from types import SimpleNamespace

import numpy as np
import pytest

from xorgame.games import chsh_game, new_game
from xorgame.linalg import DimensionMismatch, matrix_to_vec, vec_to_matrix
from xorgame.strategies import (
    BadDiagonal,
    InvalidK,
    NonRealBias,
    NotPsd,
    Observable,
    Strategy,
    bias,
    canonical_chshn,
    embed_with_junk,
    maximally_entangled,
    perturb,
    sigma_observables,
    simulate,
    tsirelson_strategy,
)

from conftest import near_optimal_variants, random_observable
from oracles import born_simulate

RT2 = np.sqrt(2.0)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0 + 0j, -1.0])


class TestObservable:
    def test_accepts_pauli(self):
        for m in (SX, SY, SZ):
            assert Observable(m).dim == 2

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            Observable(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_involution(self):
        with pytest.raises(ValueError):
            Observable(np.diag([1.0, 0.5]))

    def test_symmetrizes_input(self):
        tiny = 1e-12
        m = SX + np.array([[0, tiny], [-tiny, 0]])
        o = Observable(m)
        assert np.abs(o.matrix - o.matrix.conj().T).max() == 0.0


class TestStrategy:
    def test_rejects_unnormalized_state(self):
        with pytest.raises(ValueError):
            Strategy(2, 2, (Observable(SX),), (Observable(SZ),), np.ones(4))

    def test_rejects_wrong_state_dim(self):
        with pytest.raises(DimensionMismatch):
            Strategy(2, 2, (Observable(SX),), (Observable(SZ),), maximally_entangled(3))

    def test_rejects_observable_dim_mismatch(self):
        big = Observable(np.kron(SX, SZ))
        with pytest.raises(DimensionMismatch):
            Strategy(2, 2, (big,), (Observable(SZ),), maximally_entangled(2))


class TestSigmaObservables:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_pairwise_anticommutation(self, k):
        fam = sigma_observables(k)
        assert len(fam) == 2 * k + 1
        assert all(o.dim == 2**k for o in fam)
        for i in range(len(fam)):
            for j in range(i + 1, len(fam)):
                anti = fam[i].matrix @ fam[j].matrix + fam[j].matrix @ fam[i].matrix
                assert np.abs(anti).max() < 1e-14

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_full_product_is_scaled_identity(self, k):
        fam = sigma_observables(k)
        prod = fam[0].matrix.copy()
        for o in fam[1:]:
            prod = prod @ o.matrix
        assert np.abs(prod - (-1j) ** k * np.eye(2**k)).max() < 1e-14

    def test_k1_family(self):
        fam = sigma_observables(1)
        assert np.array_equal(fam[0].matrix, SX)
        assert np.array_equal(fam[1].matrix, SZ)
        assert np.array_equal(fam[2].matrix, SY)

    def test_k2_third_member(self):
        fam = sigma_observables(2)
        assert np.array_equal(fam[2].matrix, np.kron(SY, SX))

    def test_rejects_bad_k(self):
        for k in (0, -1, 1.5):
            with pytest.raises(InvalidK):
                sigma_observables(k)


class TestCanonical:
    @pytest.mark.parametrize("n,d", [(2, 2), (3, 4), (4, 4), (5, 8), (6, 8)])
    def test_bias_and_dimension(self, n, d):
        g, _ = chsh_game(n)
        s = canonical_chshn(n)
        assert s.d_A == s.d_B == d
        assert abs(bias(g, s) - 1.0 / RT2) < 1e-12

    def test_alice_anticommute(self):
        s = canonical_chshn(5)
        for i in range(5):
            for j in range(i + 1, 5):
                anti = s.alice[i].matrix @ s.alice[j].matrix + s.alice[j].matrix @ s.alice[i].matrix
                assert np.abs(anti).max() < 1e-14

    def test_bob_matches_alice_combinations(self):
        s = canonical_chshn(3)
        _, pairs = chsh_game(3)
        for t, (a, b) in enumerate(pairs):
            if a < b:
                want = (s.alice[a - 1].matrix.T + s.alice[b - 1].matrix.T) / RT2
            else:
                want = (s.alice[b - 1].matrix.T - s.alice[a - 1].matrix.T) / RT2
            assert np.abs(s.bob[t].matrix - want).max() < 1e-15

    def test_state_is_maximally_entangled(self):
        s = canonical_chshn(4)
        assert np.array_equal(s.state, maximally_entangled(4))


class TestBias:
    def test_dimension_check(self):
        g, _ = chsh_game(3)
        with pytest.raises(DimensionMismatch):
            bias(g, canonical_chshn(2))

    def test_identity_strategy_chsh2(self):
        g, _ = chsh_game(2)
        e = Observable(np.eye(2, dtype=complex))
        s = Strategy(2, 2, (e, e), (e, e), maximally_entangled(2))
        assert bias(g, s) == pytest.approx(0.5, abs=1e-14)

    def test_product_state_correlations(self):
        # ⟨A⊗B⟩ factorizes on product states
        g = new_game(np.array([[1.0]]))
        psi = np.kron([1.0, 0.0], [1.0 / RT2, 1.0 / RT2])
        s = Strategy(2, 2, (Observable(SZ),), (Observable(SX),), psi)
        assert bias(g, s) == pytest.approx(1.0, abs=1e-14)


def _pairwise_bias(g, s):
    """Σ_st G_st ⟨ψ|A_s⊗B_t|ψ⟩ with one vdot per question pair."""
    m = vec_to_matrix(s.state, s.d_A, s.d_B)
    total = 0.0 + 0.0j
    for si in range(g.n_alice):
        am = s.alice[si].matrix @ m
        for ti in range(g.n_bob):
            w = g.matrix[si, ti]
            if w == 0.0:
                continue
            total += w * np.vdot(s.state, matrix_to_vec(am @ s.bob[ti].matrix.T))
    return total


class TestBiasMatchesPairwiseReference:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_near_optimal_variants(self, n):
        g, _ = chsh_game(n)
        for s in near_optimal_variants(n):
            want = _pairwise_bias(g, s)
            assert abs(want.imag) < 1e-12
            assert abs(bias(g, s) - want.real) <= 1e-12

    def test_random_game_and_strategy(self, rng):
        g = new_game(rng.standard_normal((3, 5)), normalize=True)
        psi = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        s = Strategy(
            4,
            3,
            tuple(random_observable(rng, 4) for _ in range(3)),
            tuple(random_observable(rng, 3) for _ in range(5)),
            psi / np.linalg.norm(psi),
        )
        assert abs(bias(g, s) - _pairwise_bias(g, s).real) <= 1e-12

    def test_non_real_bias_rejected(self):
        # bypass Strategy validation: a non-Hermitian "observable" for Bob
        # makes ⟨ψ|σ_x⊗B|ψ⟩ = tr(σ_x·Bᵀ)/2 = i/2
        g = new_game(np.array([[1.0]]))
        broken = object.__new__(Strategy)
        for name, value in (
            ("d_A", 2),
            ("d_B", 2),
            ("alice", (Observable(SX),)),
            ("bob", (SimpleNamespace(matrix=np.array([[0, 1j], [0, 0]])),)),
            ("state", maximally_entangled(2)),
        ):
            object.__setattr__(broken, name, value)
        with pytest.raises(NonRealBias):
            bias(g, broken)


class TestTsirelson:
    def test_round_trip_from_handmade_correlations(self):
        # Gram matrix of unit vectors at successive 45° angles
        angles = {0: 0.0, 1: np.pi / 2, 2: np.pi / 4, 3: -np.pi / 4}
        z = np.array(
            [[np.cos(angles[i] - angles[j]) for j in range(4)] for i in range(4)]
        )
        s = tsirelson_strategy(z, 2, 2)
        g, _ = chsh_game(2)
        assert bias(g, s) == pytest.approx(1.0 / RT2, abs=1e-12)

    def test_correlations_reproduce_z(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((5, 3))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        z = x @ x.T
        s = tsirelson_strategy(z, 2, 3)
        psi = s.state
        for i in range(2):
            for j in range(3):
                corr = np.vdot(psi, np.kron(s.alice[i].matrix, s.bob[j].matrix) @ psi)
                assert abs(corr.real - z[i, 2 + j]) < 1e-10
                assert abs(corr.imag) < 1e-12

    def test_identity_z_gives_zero_correlations(self):
        s = tsirelson_strategy(np.eye(4), 2, 2)
        psi = s.state
        for i in range(2):
            for j in range(2):
                corr = np.vdot(psi, np.kron(s.alice[i].matrix, s.bob[j].matrix) @ psi)
                assert abs(corr) < 1e-12

    def test_dimension_is_power_of_two_of_half_count(self):
        s = tsirelson_strategy(np.eye(4), 2, 2)
        assert s.d_A == s.d_B == 4
        s = tsirelson_strategy(np.eye(5), 2, 3)
        assert s.d_A == s.d_B == 8

    def test_rejects_non_psd(self):
        z = np.eye(4)
        z[0, 1] = z[1, 0] = 2.0
        with pytest.raises(NotPsd):
            tsirelson_strategy(z, 2, 2)

    def test_rejects_bad_diagonal(self):
        with pytest.raises(BadDiagonal):
            tsirelson_strategy(0.5 * np.eye(4), 2, 2)

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionMismatch):
            tsirelson_strategy(np.eye(4), 2, 3)


class TestSimulate:
    def test_deterministic_for_fixed_seed(self):
        g, _ = chsh_game(2)
        s = canonical_chshn(2)
        a = simulate(g, s, 2000, seed=42)
        b = simulate(g, s, 2000, seed=42)
        assert a == b

    def test_seed_changes_draws(self):
        g, _ = chsh_game(2)
        s = canonical_chshn(2)
        assert simulate(g, s, 2000, seed=1) != simulate(g, s, 2000, seed=2)

    def test_mean_within_five_stderr(self):
        g, _ = chsh_game(2)
        s = canonical_chshn(2)
        mean, stderr = simulate(g, s, 200_000, seed=0)
        assert abs(mean - 1.0 / RT2) <= 5 * stderr

    def test_deterministic_strategy_exact(self):
        # answering +1 on the single question wins every round
        g = new_game(np.array([[1.0]]))
        e = Observable(np.eye(2, dtype=complex))
        s = Strategy(2, 2, (e,), (e,), maximally_entangled(2))
        mean, stderr = simulate(g, s, 500, seed=7)
        assert mean == 1.0
        assert stderr == 0.0

    def test_rejects_bad_rounds(self):
        g, _ = chsh_game(2)
        with pytest.raises(ValueError):
            simulate(g, canonical_chshn(2), 0, seed=0)

    def test_rejects_a_strategy_that_does_not_fit(self):
        g, _ = chsh_game(2)
        with pytest.raises(DimensionMismatch, match="strategy has 3x6 observables, game wants 2x2"):
            simulate(g, canonical_chshn(3), 10, seed=0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_the_born_rule_oracle(self, n):
        g, _ = chsh_game(n)
        for s in [canonical_chshn(n), *near_optimal_variants(n)]:
            for seed in range(3):
                assert simulate(g, s, 5000, seed) == born_simulate(g, s, 5000, seed)


class TestEmbedWithJunk:
    def test_bias_unchanged(self):
        g, _ = chsh_game(2)
        s = canonical_chshn(2)
        junk_a = [Observable(np.diag([1.0 + 0j, -1.0, 1.0])) for _ in s.alice]
        junk_b = [Observable(-np.eye(2, dtype=complex)) for _ in s.bob]
        emb = embed_with_junk(s, 3, 2, junk_a, junk_b)
        assert (emb.d_A, emb.d_B) == (5, 4)
        assert abs(bias(g, emb) - bias(g, s)) < 1e-12

    def test_zero_padding_is_identity(self):
        s = canonical_chshn(2)
        same = embed_with_junk(s, 0, 0)
        assert np.array_equal(same.state, s.state)
        assert all(
            np.array_equal(a.matrix, b.matrix) for a, b in zip(same.alice, s.alice)
        )

    def test_junk_block_count_must_match(self):
        s = canonical_chshn(2)
        with pytest.raises(DimensionMismatch):
            embed_with_junk(s, 2, 0, [Observable(np.eye(2, dtype=complex))], None)

    def test_junk_block_dim_must_match(self):
        s = canonical_chshn(2)
        junk = [Observable(np.eye(3, dtype=complex)) for _ in s.alice]
        with pytest.raises(DimensionMismatch):
            embed_with_junk(s, 2, 0, junk, None)


class TestPerturb:
    def test_theta_zero_is_identity(self):
        s = canonical_chshn(3)
        assert perturb(s, 0.0, seed=9) is s

    def test_deterministic_per_seed(self):
        s = canonical_chshn(3)
        a = perturb(s, 0.1, seed=5)
        b = perturb(s, 0.1, seed=5)
        assert all(np.array_equal(x.matrix, y.matrix) for x, y in zip(a.alice, b.alice))

    def test_different_seeds_differ(self):
        s = canonical_chshn(3)
        a = perturb(s, 0.1, seed=5)
        b = perturb(s, 0.1, seed=6)
        assert not np.array_equal(a.alice[0].matrix, b.alice[0].matrix)

    def test_bob_untouched_by_default(self):
        s = canonical_chshn(3)
        p = perturb(s, 0.3, seed=0)
        assert all(np.array_equal(x.matrix, y.matrix) for x, y in zip(p.bob, s.bob))
        assert not np.array_equal(p.alice[0].matrix, s.alice[0].matrix)

    def test_include_bob(self):
        s = canonical_chshn(3)
        p = perturb(s, 0.3, seed=0, include_bob=True)
        assert not np.array_equal(p.bob[0].matrix, s.bob[0].matrix)

    def test_small_theta_small_bias_drop(self):
        g, _ = chsh_game(3)
        s = canonical_chshn(3)
        drop_small = 1.0 / RT2 - bias(g, perturb(s, 0.01, seed=3))
        drop_large = 1.0 / RT2 - bias(g, perturb(s, 0.3, seed=3))
        assert 0.0 <= drop_small < drop_large

    def test_rejects_out_of_range_theta(self):
        s = canonical_chshn(2)
        for theta in (-0.1, 4.0):
            with pytest.raises(ValueError):
                perturb(s, theta, seed=0)

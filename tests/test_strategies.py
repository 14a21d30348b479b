import warnings

import numpy as np
import pytest

import xorgame.cli as cli
from xorgame import serialize as sz
from xorgame.games import chsh_game, new_game
from xorgame.linalg import DimensionMismatch, NonHermitian
from xorgame.relations import certify_epsilon, check_identity, chshn_relations_form2, residual
from xorgame.strategies import (
    OBSERVABLE_HERMITIAN_TOL,
    OBSERVABLE_SQUARE_TOL,
    BadDiagonal,
    InvalidK,
    NonRealBias,
    NotPsd,
    Strategy,
    bias,
    canonical_chshn,
    embed_with_junk,
    maximally_entangled,
    perturb,
    sigma_observables,
    simulate,
    tsirelson_strategy,
    _canonical_alice,
    _conjugate,
    _matched_combinations,
)
from xorgame.structure import (
    ab_switch_check,
    anticommutation_residual,
    build_intertwiner,
    intertwiner_report,
    require_chshn_shape,
    verify_optimal_form,
)

from conftest import near_optimal_variants, random_observable
from oracles import (
    born_simulate,
    kron_canonical_alice,
    kron_sigma_observables,
    pairwise_matched_combinations,
    per_matrix_conjugate,
)

RT2 = np.sqrt(2.0)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0 + 0j, -1.0])
ANTI = np.array([[0.0, 1.0], [-1.0, 0.0]])
SIDES = ["alice", "bob"]


class TestObservableStacks:
    """Strategy checks each side's stack at once: Hermitian within
    OBSERVABLE_HERMITIAN_TOL, then symmetrized, then O² = I within
    OBSERVABLE_SQUARE_TOL; every error names the side and the index."""

    @staticmethod
    def _with(side, bad):
        """canonical_chshn(2) with observable 1 of side replaced by bad."""
        s = canonical_chshn(2)
        stacks = {"alice": s.alice.copy(), "bob": s.bob.copy()}
        stacks[side][1] = bad
        return Strategy(stacks["alice"], stacks["bob"], s.state)

    @pytest.mark.parametrize("side", SIDES)
    def test_accepts_pauli(self, side):
        for m in (SX, SY, SZ):
            s = self._with(side, m)
            assert np.array_equal(getattr(s, side)[1], m)
            assert (s.d_A, s.d_B) == (2, 2)
            assert not s.alice.flags.writeable and not s.bob.flags.writeable

    @pytest.mark.parametrize("side", SIDES)
    def test_hermitian_tolerance_edge(self, side):
        # SZ + δ·[[0, 1], [−1, 0]] deviates from Hermitian by exactly 2δ
        at = OBSERVABLE_HERMITIAN_TOL / 2
        above = np.nextafter(at, 1.0)
        self._with(side, SZ + at * ANTI)
        with pytest.raises(NonHermitian, match=f"^{side} observable 1 deviates from Hermitian"):
            self._with(side, SZ + above * ANTI)

    @pytest.mark.parametrize("side", SIDES)
    def test_square_tolerance_edge(self, side):
        # diag(1, −√(1 + t)) squares to I up to t, plus rounding of about 1e-16
        def squaring_off_by(t):
            return np.diag([1.0, -np.sqrt(1.0 + t)])

        self._with(side, squaring_off_by(OBSERVABLE_SQUARE_TOL * (1 - 1e-4)))
        with pytest.raises(ValueError, match=f"^{side} observable 1 squared deviates"):
            self._with(side, squaring_off_by(OBSERVABLE_SQUARE_TOL * (1 + 1e-4)))

    @pytest.mark.parametrize("side", SIDES)
    def test_symmetrizes_input(self, side):
        s = self._with(side, SZ + OBSERVABLE_HERMITIAN_TOL / 2 * ANTI)
        assert np.array_equal(getattr(s, side)[1], SZ)

    @pytest.mark.parametrize("side", SIDES)
    def test_rejects_non_finite(self, side):
        with pytest.raises(ValueError, match=f"^{side} observable 1 contains non-finite"):
            self._with(side, np.diag([1.0, np.nan]))

    @pytest.mark.parametrize("side", SIDES)
    def test_rejects_non_square_stack(self, side):
        s = canonical_chshn(2)
        stacks = {"alice": s.alice, "bob": s.bob, side: np.ones((2, 2, 3))}
        with pytest.raises(DimensionMismatch, match=f"^{side} must be a stack of square"):
            Strategy(stacks["alice"], stacks["bob"], s.state)


class TestStrategy:
    def test_rejects_unnormalized_state(self):
        with pytest.raises(ValueError):
            Strategy((SX,), (SZ,), np.ones(4))

    def test_rejects_wrong_state_dim(self):
        with pytest.raises(DimensionMismatch):
            Strategy((SX,), (SZ,), maximally_entangled(3))

    def test_rejects_observable_dim_mismatch(self):
        big = np.kron(SX, SZ)
        for alice, bob in (((big,), (SZ,)), ((SZ,), (big,))):
            with pytest.raises(DimensionMismatch, match="observables are"):
                Strategy(alice, bob, maximally_entangled(2))

    def test_state_is_the_read_only_matrix(self):
        # ψ on C² ⊗ C³, given as the vector with ψ_ij at 3i + j or as M_ψ
        m = np.arange(6).reshape(2, 3) / np.linalg.norm(np.arange(6))
        bob = (np.diag([1.0, -1.0, 1.0]),)
        for given in (m.reshape(-1), m):
            s = Strategy((SZ,), bob, given)
            assert np.array_equal(s.state, m)
            assert not s.state.flags.writeable
            with pytest.raises(ValueError):
                s.state[0, 0] = 1.0
        with pytest.raises(DimensionMismatch, match=r"^state has shape \(3, 2\)"):
            Strategy((SZ,), bob, m.T)
        assert canonical_chshn(3).state.shape == (4, 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_state(self, bad):
        psi = maximally_entangled(2)
        psi[1] = bad
        with pytest.raises(ValueError, match="^state contains non-finite"):
            Strategy((SX,), (SZ,), psi)

    def test_state_does_not_alias_its_input(self):
        psi = maximally_entangled(2)
        s = Strategy((SX,), (SZ,), psi)
        psi[0] = 5.0
        assert np.array_equal(s.state, maximally_entangled(2).reshape(2, 2))


class TestSigmaObservables:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_pairwise_anticommutation(self, k):
        fam = sigma_observables(k)
        assert fam.shape == (2 * k + 1, 2**k, 2**k)
        for i in range(len(fam)):
            for j in range(i + 1, len(fam)):
                anti = fam[i] @ fam[j] + fam[j] @ fam[i]
                assert np.abs(anti).max() < 1e-14

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_full_product_is_scaled_identity(self, k):
        fam = sigma_observables(k)
        prod = fam[0].copy()
        for o in fam[1:]:
            prod = prod @ o
        assert np.abs(prod - (-1j) ** k * np.eye(2**k)).max() < 1e-14

    def test_k1_family(self):
        fam = sigma_observables(1)
        assert np.array_equal(fam[0], SX)
        assert np.array_equal(fam[1], SZ)
        assert np.array_equal(fam[2], SY)

    def test_k2_third_member(self):
        fam = sigma_observables(2)
        assert np.array_equal(fam[2], np.kron(SY, SX))

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
                anti = s.alice[i] @ s.alice[j] + s.alice[j] @ s.alice[i]
                assert np.abs(anti).max() < 1e-14

    def test_bob_matches_alice_combinations(self):
        s = canonical_chshn(3)
        _, pairs = chsh_game(3)
        for t, (a, b) in enumerate(pairs):
            if a < b:
                want = (s.alice[a - 1].T + s.alice[b - 1].T) / RT2
            else:
                want = (s.alice[b - 1].T - s.alice[a - 1].T) / RT2
            assert np.abs(s.bob[t] - want).max() < 1e-15

    def test_state_is_maximally_entangled(self):
        s = canonical_chshn(4)
        assert np.array_equal(s.state, maximally_entangled(4).reshape(4, 4))


class TestBias:
    def test_dimension_check(self):
        g, _ = chsh_game(3)
        with pytest.raises(DimensionMismatch):
            bias(g, canonical_chshn(2))

    def test_identity_strategy_chsh2(self):
        g, _ = chsh_game(2)
        e = np.eye(2, dtype=complex)
        s = Strategy((e, e), (e, e), maximally_entangled(2))
        assert bias(g, s) == pytest.approx(0.5, abs=1e-14)

    def test_product_state_correlations(self):
        # ⟨A⊗B⟩ factorizes on product states
        g = new_game(np.array([[1.0]]))
        psi = np.kron([1.0, 0.0], [1.0 / RT2, 1.0 / RT2])
        s = Strategy((SZ,), (SX,), psi)
        assert bias(g, s) == pytest.approx(1.0, abs=1e-14)


def _pairwise_bias(g, s):
    """Σ_st G_st ⟨ψ|A_s⊗B_t|ψ⟩ with one vdot per question pair."""
    m = s.state
    total = 0.0 + 0.0j
    for si in range(g.n_alice):
        am = s.alice[si] @ m
        for ti in range(g.n_bob):
            w = g.matrix[si, ti]
            if w == 0.0:
                continue
            total += w * np.vdot(s.state, (am @ s.bob[ti].T).reshape(-1))
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
            ("alice", SX[None]),
            ("bob", np.array([[[0, 1j], [0, 0]]])),
            ("state", maximally_entangled(2).reshape(2, 2)),
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
        psi = s.state.reshape(-1)
        for i in range(2):
            for j in range(3):
                corr = np.vdot(psi, np.kron(s.alice[i], s.bob[j]) @ psi)
                assert abs(corr.real - z[i, 2 + j]) < 1e-10
                assert abs(corr.imag) < 1e-12

    def test_identity_z_gives_zero_correlations(self):
        s = tsirelson_strategy(np.eye(4), 2, 2)
        psi = s.state.reshape(-1)
        for i in range(2):
            for j in range(2):
                corr = np.vdot(psi, np.kron(s.alice[i], s.bob[j]) @ psi)
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

    @pytest.mark.parametrize("n,m", [(0, 4), (-1, 5), (4, 0), (2, -2)])
    def test_rejects_counts_below_one_before_the_shape(self, n, m):
        # n + m = 4 fits the 4 × 4 z except at (2, -2), which gets the same error
        want = f"^a strategy needs n, m >= 1 questions, got n = {n}, m = {m}$"
        with pytest.raises(ValueError, match=want):
            tsirelson_strategy(np.eye(4), n, m)

    def test_rejects_complex_z_before_its_shape(self):
        z = np.eye(4) + 0.5j * (np.eye(4, k=1) - np.eye(4, k=-1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning, no dropped imaginary part
            for n, m in ((2, 2), (2, 3)):
                with pytest.raises(ValueError, match="^correlation matrix must be real$"):
                    tsirelson_strategy(z, n, m)

    def test_accepts_imaginary_rounding(self):
        s = tsirelson_strategy(np.eye(4) + 1e-12j, 2, 2)
        want = tsirelson_strategy(np.eye(4), 2, 2)
        assert np.array_equal(s.alice, want.alice) and np.array_equal(s.bob, want.bob)


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
        e = np.eye(2, dtype=complex)
        s = Strategy((e,), (e,), maximally_entangled(2))
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
        junk_a = [np.diag([1.0 + 0j, -1.0, 1.0]) for _ in s.alice]
        junk_b = [-np.eye(2, dtype=complex) for _ in s.bob]
        emb = embed_with_junk(s, 3, 2, junk_a, junk_b)
        assert (emb.d_A, emb.d_B) == (5, 4)
        assert abs(bias(g, emb) - bias(g, s)) < 1e-12

    def test_zero_padding_is_identity(self):
        s = canonical_chshn(2)
        same = embed_with_junk(s, 0, 0)
        assert np.array_equal(same.state, s.state)
        assert all(
            np.array_equal(a, b) for a, b in zip(same.alice, s.alice)
        )

    def test_junk_block_count_must_match(self):
        s = canonical_chshn(2)
        with pytest.raises(DimensionMismatch):
            embed_with_junk(s, 2, 0, [np.eye(2, dtype=complex)], None)

    def test_junk_block_dim_must_match(self):
        s = canonical_chshn(2)
        junk = [np.eye(3, dtype=complex) for _ in s.alice]
        with pytest.raises(DimensionMismatch):
            embed_with_junk(s, 2, 0, junk, None)

    @pytest.mark.parametrize(
        "extra_a,extra_b,junk_alice,junk_bob,side",
        [(0, 0, np.ones((2, 5, 5)), "nonsense", "Alice"),
         (0, 0, None, "nonsense", "Bob"),
         (2, 0, np.zeros((2, 2, 2)), np.zeros((2, 0, 0)), "Bob")],
    )
    def test_junk_for_a_zero_extra_dimension_is_refused(self, extra_a, extra_b, junk_alice,
                                                        junk_bob, side):
        want = f"^{side} junk is .*, want none for extra dimension 0$"
        with pytest.raises(DimensionMismatch, match=want):
            embed_with_junk(canonical_chshn(2), extra_a, extra_b, junk_alice, junk_bob)


class TestPerturb:
    def test_theta_zero_is_identity(self):
        s = canonical_chshn(3)
        assert perturb(s, 0.0, seed=9) is s

    def test_deterministic_per_seed(self):
        s = canonical_chshn(3)
        a = perturb(s, 0.1, seed=5)
        b = perturb(s, 0.1, seed=5)
        assert all(np.array_equal(x, y) for x, y in zip(a.alice, b.alice))

    def test_different_seeds_differ(self):
        s = canonical_chshn(3)
        a = perturb(s, 0.1, seed=5)
        b = perturb(s, 0.1, seed=6)
        assert not np.array_equal(a.alice[0], b.alice[0])

    def test_bob_untouched_by_default(self):
        s = canonical_chshn(3)
        p = perturb(s, 0.3, seed=0)
        assert all(np.array_equal(x, y) for x, y in zip(p.bob, s.bob))
        assert not np.array_equal(p.alice[0], s.alice[0])

    def test_include_bob(self):
        s = canonical_chshn(3)
        p = perturb(s, 0.3, seed=0, include_bob=True)
        assert not np.array_equal(p.bob[0], s.bob[0])

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


class TestStacksMatchPerMatrixOracles:
    """The whole-stack constructors give the bytes of the one-matrix-at-a-time
    definitions in oracles.py."""

    @pytest.mark.parametrize("k", range(1, 7))
    def test_sigma_family(self, k):
        assert sigma_observables(k).tobytes() == kron_sigma_observables(k).tobytes()

    @pytest.mark.parametrize("n", range(2, 12))
    def test_canonical_alice_and_matched_combinations(self, n):
        alice = _canonical_alice(n)
        assert alice.tobytes() == kron_canonical_alice(n).tobytes()
        assert _matched_combinations(alice).tobytes() == pairwise_matched_combinations(alice).tobytes()

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("side", SIDES)
    def test_conjugate(self, n, side):
        obs = getattr(canonical_chshn(n), side)
        for seed in (0, 1, 7):
            for theta in (0.01, 0.1, np.pi):
                got = _conjugate(obs, theta, np.random.default_rng(seed))
                want = per_matrix_conjugate(obs, theta, np.random.default_rng(seed))
                assert got.tobytes() == want.tobytes(), (seed, theta)


G2 = chsh_game(2)[0]


class TestOneCountCheck:
    """Every check that a strategy has as many observables as a game, a
    relation system or CHSH(n) wants is strategies.require_counts, so a
    mismatch reads the same wherever it enters."""

    @pytest.mark.parametrize(
        "entry,wanter",
        [
            (lambda s: bias(G2, s), "game"),
            (lambda s: simulate(G2, s, 10, seed=0), "game"),
            (lambda s: residual(s, chshn_relations_form2(2)), "relation system"),
            (lambda s: check_identity(G2, s, chshn_relations_form2(2)), "relation system"),
            # the relations fit the strategy; only the game does not
            (lambda s: certify_epsilon(G2, s, chshn_relations_form2(3), 0.7), "game"),
            (lambda s: require_chshn_shape(s, 2), "CHSH(2)"),
            (lambda s: anticommutation_residual(s, 2), "CHSH(2)"),
            (lambda s: ab_switch_check(s, 2, 1), "CHSH(2)"),
            (lambda s: verify_optimal_form(s, 2), "CHSH(2)"),
            (lambda s: build_intertwiner(s, 2), "CHSH(2)"),
            (lambda s: intertwiner_report(G2, s, 2), "CHSH(2)"),
            (["strategy", "bias", "{g}", "{s}"], "game"),
            (["strategy", "simulate", "{g}", "{s}", "--rounds", "10", "--seed", "0"], "game"),
            (["relations", "residual", "{g}", "{s}", "{rel}"], "game"),
            (["structure", "verify", "{s}", "--n", "2"], "CHSH(2)"),
            (["intertwiner", "report", "{g}", "{s}", "--n", "2"], "CHSH(2)"),
        ],
        ids=["bias", "simulate", "residual", "check_identity", "certify_epsilon",
             "require_chshn_shape", "anticommutation_residual", "ab_switch_check",
             "verify_optimal_form", "build_intertwiner", "intertwiner_report", "cli-bias",
             "cli-simulate", "cli-residual", "cli-structure-verify", "cli-intertwiner-report"],
    )
    def test_one_wording(self, capsys, tmp_path, entry, wanter):
        s = canonical_chshn(3)
        want = f"strategy has 3x6 observables, {wanter} wants 2x2"
        if callable(entry):
            with pytest.raises(DimensionMismatch) as info:
                entry(s)
            assert str(info.value) == want
            return
        files = {"g": tmp_path / "g.json", "s": tmp_path / "s.json", "rel": tmp_path / "rel.json"}
        sz.write_json(sz.game_to_dict(G2), files["g"])
        sz.write_json(sz.strategy_to_dict(s), files["s"])
        sz.write_json(sz.relations_to_dict(chshn_relations_form2(2)), files["rel"])
        code = cli.main([a.format(**files) for a in entry])
        out, err = capsys.readouterr()
        assert (code, out, err) == (1, "", f"xorgame: error: {files['s']}: {want}\n")

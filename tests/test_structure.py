import itertools

import numpy as np
import pytest

import xorgame.structure as structure
from xorgame.games import InvalidN, chsh_game, chshn_pair_order
from xorgame.linalg import DimensionMismatch, frobenius, kron, matrix_to_vec, vec_to_matrix
from xorgame.strategies import (
    Observable,
    Strategy,
    bias,
    canonical_chshn,
    embed_with_junk,
    maximally_entangled,
    perturb,
    sigma_observables,
)
from xorgame.structure import (
    BitString,
    IndexOutOfRange,
    ab_switch_check,
    anticommutation_residual,
    build_intertwiner,
    canonical_vector_family,
    chain_product,
    insertion_sign_left,
    insertion_sign_right,
    intertwiner_report,
    intertwiner_sweep,
    normalization_lemma_check,
    verify_optimal_form,
)

from conftest import near_optimal_variants, random_observable

RT2 = np.sqrt(2.0)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0 + 0j, -1.0])


class TestBitString:
    def test_validates_length(self):
        with pytest.raises(DimensionMismatch):
            BitString(3, (0, 1))

    def test_validates_bit_values(self):
        with pytest.raises(ValueError):
            BitString(2, (0, 2))

    def test_all_strings_count(self):
        strings = BitString.all_strings(4)
        assert len(strings) == 16
        assert len({s.bits for s in strings}) == 16


class TestChainProduct:
    def test_zero_string_is_identity(self):
        fam = sigma_observables(2)[:4]
        out = chain_product(fam, BitString(4, (0, 0, 0, 0)))
        assert np.array_equal(out, np.eye(4, dtype=complex))

    def test_single_bit_selects_observable(self):
        fam = sigma_observables(2)[:4]
        out = chain_product(fam, BitString(4, (1, 0, 0, 0)))
        assert np.array_equal(out, fam[0].matrix)

    def test_two_bits_multiply_in_order(self):
        fam = sigma_observables(2)
        out = chain_product(fam, BitString(5, (1, 1, 0, 0, 0)))
        assert np.abs(out - fam[0].matrix @ fam[1].matrix).max() < 1e-15

    def test_length_mismatch(self):
        fam = sigma_observables(1)
        with pytest.raises(DimensionMismatch):
            chain_product(fam, BitString(2, (0, 1)))


class TestInsertionSigns:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_exhaustive_against_matrix_products(self, k):
        fam = sigma_observables(k)
        n = 2 * k + 1
        for bits in itertools.product((0, 1), repeat=n):
            j = BitString(n, bits)
            chain = chain_product(fam, j)
            for i in range(1, n + 1):
                flipped = list(bits)
                flipped[i - 1] ^= 1
                target = chain_product(fam, BitString(n, tuple(flipped)))
                left = insertion_sign_left(i, j)
                assert np.abs(fam[i - 1].matrix @ chain - left * target).max() < 1e-13
                right = insertion_sign_right(j, i)
                assert np.abs(chain @ fam[i - 1].matrix - right * target).max() < 1e-13

    def test_zero_string_signs_positive(self):
        j = BitString(6, (0,) * 6)
        assert all(insertion_sign_left(i, j) == 1 for i in range(1, 7))
        assert all(insertion_sign_right(j, k) == 1 for k in range(1, 7))

    def test_left_example(self):
        assert insertion_sign_left(2, BitString(4, (1, 0, 0, 0))) == -1

    def test_right_examples(self):
        j = BitString(4, (0, 0, 0, 1))
        assert insertion_sign_right(j, 1) == -1
        # nothing to cross at the last slot
        assert insertion_sign_right(j, 4) == 1

    def test_left_sign_invariant_under_own_bit_flip(self):
        j = BitString(5, (1, 0, 1, 1, 0))
        for i in range(1, 6):
            flipped = list(j.bits)
            flipped[i - 1] ^= 1
            assert insertion_sign_left(i, j) == insertion_sign_left(
                i, BitString(5, tuple(flipped))
            )

    def test_index_out_of_range(self):
        j = BitString(3, (0, 1, 0))
        with pytest.raises(IndexOutOfRange):
            insertion_sign_left(0, j)
        with pytest.raises(IndexOutOfRange):
            insertion_sign_right(j, 4)


class TestCanonicalVectorFamily:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_orthonormal(self, n):
        vecs = canonical_vector_family(n)
        assert len(vecs) == 2**n
        gram = np.array([[np.vdot(a, b) for b in vecs] for a in vecs])
        assert np.abs(gram - np.eye(2**n)).max() < 1e-10

    def test_n2_gives_bell_states(self):
        bell = (
            np.array(
                [[1, 0, 0, 1], [0, 1, 1, 0], [1, 0, 0, -1], [0, -1, 1, 0]],
                dtype=complex,
            ).T
            / RT2
        )
        fam = np.column_stack(canonical_vector_family(2))
        overlap = np.abs(bell.conj().T @ fam)
        # every family vector coincides with exactly one Bell state up to phase
        assert np.allclose(np.sort(overlap, axis=0)[-1], 1.0, atol=1e-12)
        assert np.allclose(np.sort(overlap, axis=0)[:-1], 0.0, atol=1e-12)

    def test_rejects_small_n(self):
        with pytest.raises(InvalidN):
            canonical_vector_family(1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_chain_product_per_string(self, n):
        ref = canonical_chshn(n)
        vecs = canonical_vector_family(n)
        for v, j in zip(vecs, BitString.all_strings(n)):
            want = matrix_to_vec(chain_product(list(ref.alice), j)) / np.sqrt(ref.d_A)
            assert np.abs(v - want).max() <= 1e-15


class TestBuildIntertwiner:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_unit_frobenius_norm_canonical(self, n):
        t = build_intertwiner(canonical_chshn(n), n)
        assert abs(frobenius(t) - 1.0) < 1e-9

    def test_unit_norm_for_random_strategies(self, rng):
        n = 2
        for _ in range(5):
            d = int(rng.choice([2, 4]))
            psi = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
            psi /= np.linalg.norm(psi)
            s = Strategy(
                d,
                d,
                tuple(random_observable(rng, d) for _ in range(2)),
                tuple(random_observable(rng, d) for _ in range(2)),
                psi,
            )
            assert abs(frobenius(build_intertwiner(s, n)) - 1.0) < 1e-9

    def test_shape(self):
        s = canonical_chshn(3)
        t = build_intertwiner(s, 3)
        assert t.shape == (16, 16)

    def test_rank_at_most_two_to_n(self):
        s = perturb(canonical_chshn(3), 0.3, seed=1)
        t = build_intertwiner(s, 3)
        sv = np.linalg.svd(t, compute_uv=False)
        assert (sv > 1e-10).sum() <= 8

    def test_canonical_intertwines_exactly(self):
        n = 3
        s = canonical_chshn(n)
        t = build_intertwiner(s, n)
        eye = np.eye(s.d_B, dtype=complex)
        for i in range(n):
            lhs = kron(s.alice[i].matrix, eye) @ t
            rhs = t @ kron(s.alice[i].matrix, np.eye(s.d_A, dtype=complex))
            assert frobenius(lhs - rhs) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_intertwiner(canonical_chshn(2), 3)


def _reference_intertwiner(s, n):
    """Reference T: one chain_product call per bit string for both families."""
    mpsi = vec_to_matrix(s.state, s.d_A, s.d_B)
    strings = BitString.all_strings(n)
    x = np.column_stack(
        [matrix_to_vec(chain_product(list(s.alice), j) @ mpsi) for j in strings]
    )
    ref = canonical_chshn(n)
    y = np.column_stack(
        [matrix_to_vec(chain_product(list(ref.alice), j)) / np.sqrt(ref.d_A) for j in strings]
    )
    return (x @ y.conj().T) / np.sqrt(2.0**n)


def _kron_residuals(s, n, t):
    """‖(O⊗I)T − T(Õ⊗I)‖_F per observable, with dense Kronecker products."""
    ref = canonical_chshn(n)
    eye_a = np.eye(s.d_A, dtype=complex)
    eye_b = np.eye(s.d_B, dtype=complex)
    eye_d = np.eye(ref.d_A, dtype=complex)
    alice = [
        frobenius(kron(o.matrix, eye_b) @ t - t @ kron(ot.matrix, eye_d))
        for o, ot in zip(s.alice, ref.alice)
    ]
    bob = [
        frobenius(kron(eye_a, o.matrix) @ t - t @ kron(eye_d, ot.matrix))
        for o, ot in zip(s.bob, ref.bob)
    ]
    return alice, bob


class TestIntertwinerReport:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_kron_reference(self, n):
        g, _ = chsh_game(n)
        for s in near_optimal_variants(n):
            rep = intertwiner_report(g, s, n)
            t = _reference_intertwiner(s, n)
            assert np.abs(rep.t - t).max() <= 1e-12
            assert np.abs(build_intertwiner(s, n) - t).max() <= 1e-12
            alice, bob = _kron_residuals(s, n, t)
            assert np.abs(np.subtract(rep.alice_residuals, alice)).max() <= 1e-12
            assert np.abs(np.subtract(rep.bob_residuals, bob)).max() <= 1e-12
            assert max(rep.alice_residuals) > 1e-3

    @pytest.mark.parametrize("theta", [0.0, 0.05])
    def test_chsh9(self, theta):
        n = 9
        g, _ = chsh_game(n)
        rep = intertwiner_report(g, perturb(canonical_chshn(n), theta, seed=9), n)
        assert abs(rep.frob_norm - 1.0) <= 1e-9
        assert rep.bounds_hold
        assert len(rep.alice_residuals) == n
        assert len(rep.bob_residuals) == n * (n - 1)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_canonical_residuals_vanish(self, n):
        g, _ = chsh_game(n)
        rep = intertwiner_report(g, canonical_chshn(n), n)
        assert abs(rep.frob_norm - 1.0) < 1e-9
        assert len(rep.alice_residuals) == n
        assert len(rep.bob_residuals) == n * (n - 1)
        assert max(rep.alice_residuals) < 1e-9
        assert max(rep.bob_residuals) < 1e-9
        assert rep.epsilon < 1e-12
        assert rep.bounds_hold

    def test_junk_embedding_keeps_residuals_zero(self):
        n = 3
        g, _ = chsh_game(n)
        s = canonical_chshn(n)
        junk_a = [Observable(np.diag([1.0 + 0j, -1.0, -1.0])) for _ in s.alice]
        junk_b = [Observable(np.eye(2, dtype=complex)) for _ in s.bob]
        emb = embed_with_junk(s, 3, 2, junk_a, junk_b)
        rep = intertwiner_report(g, emb, n)
        assert abs(rep.frob_norm - 1.0) < 1e-9
        assert max(rep.alice_residuals) < 1e-9
        assert max(rep.bob_residuals) < 1e-9

    @pytest.mark.parametrize("theta", [0.02, 0.05, 0.1])
    def test_perturbed_within_bounds(self, theta):
        n = 3
        g, _ = chsh_game(n)
        s = perturb(canonical_chshn(n), theta, seed=0)
        rep = intertwiner_report(g, s, n)
        assert rep.bounds_hold
        assert rep.alice_bound == pytest.approx(12 * n * n * np.sqrt(rep.epsilon))
        assert rep.bob_bound == pytest.approx(17 * n * n * np.sqrt(rep.epsilon))

    def test_epsilon_from_measured_bias(self):
        n = 2
        g, _ = chsh_game(n)
        s = perturb(canonical_chshn(n), 0.2, seed=3)
        rep = intertwiner_report(g, s, n)
        assert rep.epsilon == pytest.approx(1.0 - bias(g, s) * RT2, abs=1e-12)


class TestAnticommutationResidual:
    def test_canonical_vanishes(self):
        assert anticommutation_residual(canonical_chshn(3), 3) < 1e-10

    def test_commuting_observables_give_one(self):
        sz = Observable(SZ)
        bob = canonical_chshn(2).bob
        s = Strategy(2, 2, (sz, sz), bob, maximally_entangled(2))
        assert anticommutation_residual(s, 2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("theta", [0.05, 0.1, 0.2])
    def test_perturbed_below_lemma_bound(self, theta):
        n = 3
        g, _ = chsh_game(n)
        s = perturb(canonical_chshn(n), theta, seed=2)
        eps = max(0.0, 1.0 - bias(g, s) * RT2)
        assert anticommutation_residual(s, n) <= (1 + RT2) ** 2 * n * (n - 1) * eps


class TestAbSwitch:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_canonical_deviation_zero(self, n):
        s = canonical_chshn(n)
        for k in range(1, n + 1):
            _, dev = ab_switch_check(s, n, k)
            assert dev < 1e-9

    def test_only_choice_for_n2(self):
        l, _ = ab_switch_check(canonical_chshn(2), 2, 1)
        assert l == 2

    @pytest.mark.parametrize("theta", [0.05, 0.1])
    def test_perturbed_below_lemma_bound(self, theta):
        n = 3
        g, _ = chsh_game(n)
        s = perturb(canonical_chshn(n), theta, seed=4)
        eps = max(0.0, 1.0 - bias(g, s) * RT2)
        bound = (2 * RT2 + 2) * np.sqrt(n) * np.sqrt(eps)
        for k in range(1, n + 1):
            _, dev = ab_switch_check(s, n, k)
            assert dev <= bound

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            ab_switch_check(canonical_chshn(2), 2, 3)


class TestNormalizationLemma:
    def test_anticommuting_pair(self):
        lhs_sq, rhs_sq, gap = normalization_lemma_check(Observable(SX), Observable(SZ))
        assert np.abs(lhs_sq - rhs_sq).max() < 1e-12
        # anticommutator vanishes, so both sides must be zero
        assert np.abs(lhs_sq).max() < 1e-12
        assert gap >= -1e-9

    def test_equal_pair(self):
        lhs_sq, rhs_sq, gap = normalization_lemma_check(Observable(SX), Observable(SX))
        assert np.abs(lhs_sq - (RT2 - 1) ** 2 * np.eye(2)).max() < 1e-12
        assert np.abs(lhs_sq - rhs_sq).max() < 1e-12
        assert gap >= -1e-9

    def test_diagonal_commuting_pair_scalar_map(self):
        r = Observable(np.diag([1.0 + 0j, 1.0, -1.0]))
        s = Observable(np.diag([1.0 + 0j, -1.0, -1.0]))
        lhs_sq, rhs_sq, gap = normalization_lemma_check(r, s)
        # R+S diagonal entries 2, 0, −2 → lhs eigenvalues (√2−1)², 1, (√2−1)²
        want = np.diag([(RT2 - 1) ** 2, 1.0, (RT2 - 1) ** 2])
        assert np.abs(lhs_sq - want).max() < 1e-12
        assert np.abs(rhs_sq - want).max() < 1e-12
        assert gap >= -1e-9

    def test_random_pairs(self, rng):
        for trial in range(60):
            d = (2, 4, 8)[trial % 3]
            a = random_observable(rng, d)
            b = random_observable(rng, d)
            lhs_sq, rhs_sq, gap = normalization_lemma_check(a, b)
            assert np.abs(lhs_sq - rhs_sq).max() < 1e-8
            assert gap >= -1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            normalization_lemma_check(
                Observable(SX), Observable(np.eye(4, dtype=complex))
            )


class TestVerifyOptimalForm:
    @pytest.mark.parametrize("n,rank,block", [(2, 2, 2), (3, 4, 2), (4, 4, 4)])
    def test_canonical(self, n, rank, block):
        rep = verify_optimal_form(canonical_chshn(n), n)
        assert rep.verdict
        assert rep.schmidt_rank == rank
        assert rep.block_size == block
        assert rep.rank_divisible and rep.blocks_equal
        assert rep.blocks_max_deviation < 1e-10
        assert rep.b_block_relation < 1e-10

    def test_junk_embedded_still_passes(self):
        s = canonical_chshn(3)
        junk_a = [Observable(np.diag([1.0 + 0j, -1.0])) for _ in s.alice]
        junk_b = [Observable(np.eye(3, dtype=complex)) for _ in s.bob]
        emb = embed_with_junk(s, 2, 3, junk_a, junk_b)
        rep = verify_optimal_form(emb, 3)
        assert rep.verdict
        assert rep.schmidt_rank == 4

    def test_rotated_canonical_still_passes(self, rng):
        # a change of basis on Alice's side must be invisible to every check
        n = 3
        s = canonical_chshn(n)
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u = np.linalg.qr(h)[0]
        alice = tuple(Observable(u @ o.matrix @ u.conj().T) for o in s.alice)
        m = u @ vec_to_matrix(s.state, 4, 4)
        rotated = Strategy(4, 4, alice, s.bob, matrix_to_vec(m))
        from xorgame.relations import chshn_relations_form1, residual

        assert residual(rotated, chshn_relations_form1(n)) < 1e-9
        assert verify_optimal_form(rotated, n, tol=1e-6).verdict

    def test_perturbed_fails_with_positive_deviations(self):
        rep = verify_optimal_form(perturb(canonical_chshn(3), 0.2, seed=0), 3)
        assert not rep.verdict
        assert max(rep.anticommute_on_support, rep.b_block_relation) > 1e-3

    def test_loose_tolerance_can_accept_small_perturbations(self):
        rep = verify_optimal_form(perturb(canonical_chshn(2), 1e-6, seed=0), 2, tol=1e-3)
        assert rep.verdict

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            verify_optimal_form(canonical_chshn(2), 3)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_b_block_relation_matches_pairwise_reference(self, n):
        # the old per-pair loop: (A_a ± A_b)/√2 against Bob's column (a,b)
        for s in near_optimal_variants(n):
            mpsi = vec_to_matrix(s.state, s.d_A, s.d_B)
            ref = 0.0
            for t, (a, b) in enumerate(chshn_pair_order(n)):
                if a < b:
                    comb = (s.alice[a - 1].matrix + s.alice[b - 1].matrix) / RT2
                else:
                    comb = (s.alice[b - 1].matrix - s.alice[a - 1].matrix) / RT2
                ref = max(ref, frobenius(comb @ mpsi - mpsi @ s.bob[t].matrix.T))
            got = verify_optimal_form(s, n).b_block_relation
            assert ref > 1e-3
            assert abs(got - ref) <= 1e-12


class TestIntertwinerSweep:
    def test_cells_in_grid_order_match_single_reports(self):
        cells = list(intertwiner_sweep([3, 2], [0.0, 0.05], [1, 0]))
        assert [c[:3] for c in cells] == list(itertools.product([3, 2], [0.0, 0.05], [1, 0]))
        for n, theta, seed, rep in cells:
            g, _ = chsh_game(n)
            want = intertwiner_report(g, perturb(canonical_chshn(n), theta, seed), n)
            assert rep.alice_residuals == want.alice_residuals
            assert rep.bob_residuals == want.bob_residuals
            assert rep.epsilon == want.epsilon

    def test_builds_game_and_base_once_per_n(self, monkeypatch):
        games, bases, canonicals = [], [], []
        real_game, real_perturb = structure.chsh_game, structure.perturb
        real_canonical = structure.canonical_chshn
        monkeypatch.setattr(structure, "chsh_game", lambda n: games.append(n) or real_game(n))
        monkeypatch.setattr(
            structure, "canonical_chshn", lambda n: canonicals.append(n) or real_canonical(n)
        )
        monkeypatch.setattr(
            structure, "perturb", lambda s, *a: bases.append((len(s.alice), id(s))) or real_perturb(s, *a)
        )
        cells = list(intertwiner_sweep([2, 3], [0.0, 0.01, 0.05], [0, 1]))
        assert len(cells) == len(bases) == 12
        assert games == [2, 3]
        assert len(set(bases)) == 2
        # the base is also the intertwiner's reference: no rebuild per cell
        assert canonicals == [2, 3]

    @pytest.mark.parametrize(
        "grid", [([], [0.0], [0]), ([2], [], [0]), ([2], [0.0], [])], ids=["n", "theta", "seed"]
    )
    def test_empty_axis_raises(self, grid):
        with pytest.raises(ValueError, match="empty"):
            list(intertwiner_sweep(*grid))

    def test_bad_cell_raises(self):
        with pytest.raises(ValueError, match="theta"):
            list(intertwiner_sweep([2], [-0.1], [0]))
        with pytest.raises(InvalidN):
            list(intertwiner_sweep([1], [0.0], [0]))

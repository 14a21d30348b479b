import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import xorgame.structure as structure
from xorgame import serialize
from xorgame.games import InvalidN, chsh_game, chshn_pair_order, new_game
from xorgame.linalg import DimensionMismatch, frobenius
from xorgame.relations import certify_epsilon, chshn_relations_form2
from xorgame.strategies import (
    Strategy,
    bias,
    canonical_chshn,
    embed_with_junk,
    maximally_entangled,
    perturb,
    sigma_observables,
)
from xorgame.structure import (
    IndexOutOfRange,
    ab_switch_check,
    anticommutation_residual,
    build_intertwiner,
    canonical_vector_family,
    intertwiner_report,
    intertwiner_sweep,
    normalization_lemma_check,
    require_chshn_game,
    require_chshn_shape,
    verify_optimal_form,
)

from conftest import near_optimal_variants, random_observable
from oracles import (
    BitString,
    chain_product,
    direct_bob_residuals,
    insertion_sign_left,
    insertion_sign_right,
    orthonormal_projection_bob_residuals,
)

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
        assert np.array_equal(out, fam[0])

    def test_two_bits_multiply_in_order(self):
        fam = sigma_observables(2)
        out = chain_product(fam, BitString(5, (1, 1, 0, 0, 0)))
        assert np.abs(out - fam[0] @ fam[1]).max() < 1e-15

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
                assert np.abs(fam[i - 1] @ chain - left * target).max() < 1e-13
                right = insertion_sign_right(j, i)
                assert np.abs(chain @ fam[i - 1] - right * target).max() < 1e-13

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
            want = chain_product(list(ref.alice), j).reshape(-1) / np.sqrt(ref.d_A)
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
            lhs = np.kron(s.alice[i], eye) @ t
            rhs = t @ np.kron(s.alice[i], np.eye(s.d_A, dtype=complex))
            assert frobenius(lhs - rhs) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_intertwiner(canonical_chshn(2), 3)


def _reference_intertwiner(s, n):
    """Reference T: one chain_product call per bit string for both families."""
    mpsi = s.state
    strings = BitString.all_strings(n)
    x = np.column_stack(
        [(chain_product(list(s.alice), j) @ mpsi).reshape(-1) for j in strings]
    )
    ref = canonical_chshn(n)
    y = np.column_stack(
        [chain_product(list(ref.alice), j).reshape(-1) / np.sqrt(ref.d_A) for j in strings]
    )
    return (x @ y.conj().T) / np.sqrt(2.0**n)


def _kron_residuals(s, n, t):
    """‖(O⊗I)T − T(Õ⊗I)‖_F per observable, with dense Kronecker products."""
    ref = canonical_chshn(n)
    eye_a = np.eye(s.d_A, dtype=complex)
    eye_b = np.eye(s.d_B, dtype=complex)
    eye_d = np.eye(ref.d_A, dtype=complex)
    alice = [
        frobenius(np.kron(o, eye_b) @ t - t @ np.kron(ot, eye_d))
        for o, ot in zip(s.alice, ref.alice)
    ]
    bob = [
        frobenius(np.kron(eye_a, o) @ t - t @ np.kron(eye_d, ot))
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
        junk_a = [np.diag([1.0 + 0j, -1.0, -1.0]) for _ in s.alice]
        junk_b = [np.eye(2, dtype=complex) for _ in s.bob]
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

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_file_rounded_canonical_holds_without_the_margin(self, n):
        # written at 12 digits and read back, the canonical strategy has Bob
        # residuals of ~6e-13; ε from the relation residual is ~2e-25, not a
        # rounded bias deficit of 0, so the bounds hold without the 1e-12 margin
        raw = json.loads(serialize.dumps(serialize.strategy_to_dict(canonical_chshn(n))))
        s = serialize.strategy_from_dict(raw)
        rep = intertwiner_report(chsh_game(n)[0], s, n)
        assert rep.epsilon > 0.0
        assert max(rep.bob_residuals) > 1e-13
        assert max(rep.bob_residuals) <= rep.bob_bound
        assert max(rep.alice_residuals) <= rep.alice_bound
        _assert_matches_bob_references(s, n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("theta", [0.0, 0.01, 0.1])
    def test_epsilon_is_certify_epsilon(self, n, theta):
        # the README's promise: rep.epsilon is certify_epsilon's ε, bit for bit
        g, _ = chsh_game(n)
        s = perturb(canonical_chshn(n), theta, seed=2)
        want = certify_epsilon(g, s, chshn_relations_form2(n), 1 / np.sqrt(2))
        assert intertwiner_report(g, s, n).epsilon == want

    def test_epsilon_from_measured_bias(self):
        n = 2
        g, _ = chsh_game(n)
        s = perturb(canonical_chshn(n), 0.2, seed=3)
        rep = intertwiner_report(g, s, n)
        assert rep.epsilon == pytest.approx(1.0 - bias(g, s) * RT2, abs=1e-12)

    @pytest.mark.parametrize("kind", ["random", "negated"])
    def test_rejects_a_game_that_is_not_chshn(self, kind):
        # ε compares the bias with CHSH(3)'s optimum 1/√2, so with any other
        # game the bounds would check nothing
        rng = np.random.default_rng(5)
        m = rng.standard_normal((3, 6)) if kind == "random" else -chsh_game(3)[0].matrix
        s = perturb(canonical_chshn(3), 0.3, seed=0)
        with pytest.raises(ValueError, match=r"game is not CHSH\(3\)"):
            intertwiner_report(new_game(m, normalize=True), s, 3)

    def test_rejects_a_chshn_game_of_another_n(self):
        with pytest.raises(DimensionMismatch, match=r"game is 2x2, CHSH\(3\) is 3x6"):
            intertwiner_report(chsh_game(2)[0], canonical_chshn(3), 3)

    def test_accepts_chshn_within_the_normalization_tolerance(self):
        g = chsh_game(3)[0]
        m = g.matrix.copy()
        m[0, 0] += 5e-13
        m[1, 0] -= 5e-13
        assert require_chshn_game(new_game(m), 3).matrix[0, 0] == m[0, 0]
        m[0, 0] += 1e-12
        m[1, 0] -= 1e-12
        with pytest.raises(ValueError, match="deviates"):
            require_chshn_game(new_game(m), 3)


def _reshape_residuals(s, n, t):
    """‖(O⊗I)T − T(Õ⊗I)‖_F per observable on T itself, the reference for the
    chain-basis residuals: T reshaped so that both sides are plain GEMMs,
    two per observable."""
    ref = canonical_chshn(n)
    d = ref.d_A
    t4 = t.reshape(s.d_A, s.d_B, d, d)

    def residuals(layout, ours, theirs):
        # layout puts our factor first and the reference factor last
        ours_first = layout.reshape(layout.shape[0], -1)
        ref_last = layout.reshape(-1, d)
        return [
            frobenius((o @ ours_first).reshape(-1) - (ref_last @ ot).reshape(-1))
            for o, ot in zip(ours, theirs)
        ]

    # t4 axes are (a, b, c, e): Alice, Bob, reference Alice, reference Bob.
    alice = residuals(np.ascontiguousarray(t4.transpose(0, 1, 3, 2)), s.alice, ref.alice)
    bob = residuals(np.ascontiguousarray(t4.transpose(1, 0, 2, 3)), s.bob, ref.bob)
    return alice, bob


def _assert_matches_reshape(rep, s, n):
    alice, bob = _reshape_residuals(s, n, rep.t)
    assert len(rep.alice_residuals) == n and len(rep.bob_residuals) == n * (n - 1)
    assert np.abs(np.subtract(rep.alice_residuals, alice)).max() <= 1e-12
    assert np.abs(np.subtract(rep.bob_residuals, bob)).max() <= 1e-12


def _same_report(a, b):
    return (
        a.t.tobytes() == b.t.tobytes()
        and (a.alice_residuals, a.bob_residuals, a.epsilon, a.bounds_hold)
        == (b.alice_residuals, b.bob_residuals, b.epsilon, b.bounds_hold)
    )


class TestChainBasisResiduals:
    @pytest.mark.parametrize("include_bob", [False, True], ids=["alice", "both"])
    @pytest.mark.parametrize("theta", [0.0, 0.01, 0.1])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_reshape_reference(self, n, theta, include_bob):
        g, _ = chsh_game(n)
        s = perturb(canonical_chshn(n), theta, seed=n, include_bob=include_bob)
        rep = intertwiner_report(g, s, n)
        _assert_matches_reshape(rep, s, n)
        if theta > 0.0:
            assert max(rep.alice_residuals) > 1e-3
            if include_bob:
                assert min(rep.bob_residuals) > 1e-4

    @pytest.mark.parametrize("n", range(2, 8))
    def test_first_alice_residual_is_rounding_noise(self, n):
        # A_1 is the leftmost factor of every chain, so T intertwines it
        # exactly, however far the strategy is from canonical; the other
        # Alice observables are not
        g, _ = chsh_game(n)
        s = canonical_chshn(n)
        for theta, seed, include_bob in itertools.product((0.01, 0.1, 1.0, 3.0), range(3), (False, True)):
            rep = intertwiner_report(g, perturb(s, theta, seed=seed, include_bob=include_bob), n)
            assert rep.alice_residuals[0] <= 1e-13
            assert max(rep.alice_residuals[1:]) > 1e-3

    @pytest.mark.parametrize("n", range(2, 9))
    def test_junk_embedded_match_reshape_reference(self, n):
        g, _ = chsh_game(n)
        for s in near_optimal_variants(n):
            _assert_matches_reshape(intertwiner_report(g, s, n), s, n)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_canonical_residuals_are_exact_zeros(self, n):
        # each chain-basis entry on both sides is one product of the same
        # numbers, so the differences cancel exactly, Bob's too, since the
        # chain Gram matrices are 2ⁿ·I and 2ⁿ·Ã_t to the bit; junk sectors
        # that the state misses change nothing
        g, _ = chsh_game(n)
        rng = np.random.default_rng(n)
        s = canonical_chshn(n)
        emb = embed_with_junk(
            s,
            3,
            1,
            [random_observable(rng, 3) for _ in s.alice],
            [random_observable(rng, 1) for _ in s.bob],
        )
        for st in (s, emb):
            rep = intertwiner_report(g, st, n)
            assert set(rep.alice_residuals) == set(rep.bob_residuals) == {0.0}

    @pytest.mark.parametrize("n", range(2, 7))
    def test_sign_vector_gives_both_insertion_signs(self, n):
        signs = structure._reference(n).signs
        assert len(signs) == 2 ** (n - 1)
        for j, bits in enumerate(BitString.all_strings(n)):
            for i in range(1, n + 1):
                assert signs[j >> (n - i + 1)] == insertion_sign_left(i, bits)
                assert signs[j % 2 ** (n - i)] == insertion_sign_right(bits, i)

    def test_cached_reference_gives_fresh_results(self):
        cells = [(3, 0.05, 0), (2, 0.1, 1), (3, 0.01, 2), (3, 0.01, 2), (3, 0.01, 2)]
        strategies = {
            c: perturb(canonical_chshn(c[0]), c[1], c[2], include_bob=True) for c in cells
        }
        fresh = {}
        for c in cells:
            structure._reference.cache_clear()
            fresh[c] = intertwiner_report(chsh_game(c[0])[0], strategies[c], c[0])
        structure._reference.cache_clear()
        for c in cells:
            n = c[0]
            ref = structure._reference(n)
            before = ref.ybar.tobytes(), ref.signs.tobytes()
            rep = intertwiner_report(chsh_game(n)[0], strategies[c], n)
            assert _same_report(rep, fresh[c])
            assert structure._reference(n) is ref
            assert (ref.ybar.tobytes(), ref.signs.tobytes()) == before
        # one entry per n: the later n = 3 cells hit the first one's entry
        info = structure._reference.cache_info()
        assert (info.maxsize, info.misses) == (8, 2)

    def test_cached_arrays_are_read_only(self):
        ref = structure._reference(3)
        for a in (ref.ybar, ref.signs):
            with pytest.raises(ValueError):
                a[0] = 0


def _assert_matches_bob_references(s, n):
    got = intertwiner_report(chsh_game(n)[0], s, n).bob_residuals
    assert np.abs(np.subtract(got, direct_bob_residuals(s, n))).max() <= 1e-14
    assert np.abs(np.subtract(got, orthonormal_projection_bob_residuals(s, n))).max() <= 1e-15


class TestBobProjection:
    """Bob's residuals by projection onto the chain products, through
    Λ = PᴴP and W_t = PᴴP̃_t, against the direct difference, one GEMM per
    column, and against the projection onto an orthonormal basis Q of the
    chain span, Q = P·V·Λ^(−1/2) from the eigendecomposition of PᴴP."""

    @pytest.mark.parametrize("include_bob", [False, True], ids=["alice", "both"])
    @pytest.mark.parametrize("theta", [0.0, 1e-6, 0.01, 0.1, 1.0])
    @pytest.mark.parametrize("n", range(2, 10))
    def test_matches_direct_difference(self, n, theta, include_bob):
        _assert_matches_bob_references(perturb(canonical_chshn(n), theta, seed=n, include_bob=include_bob), n)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_junk_embedded_match_direct_difference(self, n):
        # with junk whose sectors the state misses, the chain stack has rank
        # below d_B, so the chain products P span more than the chains
        for s in near_optimal_variants(n):
            _assert_matches_bob_references(s, n)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_blocked_projection_matches_direct_difference(self, n, monkeypatch):
        # small chain stacks take one block; force the four-block path on them
        monkeypatch.setattr(structure, "_ONE_BLOCK_BYTES", 0)
        for s in near_optimal_variants(n):
            _assert_matches_bob_references(s, n)

    @given(
        n=hst.integers(2, 6),
        theta=hst.floats(0.0, 0.2),
        seed=hst.integers(0, 2**31 - 1),
        include_bob=hst.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_perturbations_match_direct_difference(self, n, theta, seed, include_bob):
        _assert_matches_bob_references(perturb(canonical_chshn(n), theta, seed, include_bob), n)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_chain_grams_match_the_chain_stack(self, n):
        # the pass over the bits assumes no unitarity: the last stack is not
        # made of observables
        rng = np.random.default_rng(n)
        stacks = [s.alice for s in near_optimal_variants(n)]
        stacks.append((rng.standard_normal((n, 3, 3)) + 1j * rng.standard_normal((n, 3, 3))) / 3)
        strings = BitString.all_strings(n)
        for a in stacks:
            lam, w = structure._chain_grams(a)
            prods = [chain_product(list(a), j) for j in strings]
            want = sum(p.conj().T @ p for p in prods)
            assert frobenius(lam - want) <= 1e-14 * frobenius(want)
            for t in range(1, n + 1):
                want = sum(
                    insertion_sign_right(j, t) * prods[k].conj().T @ prods[k ^ (1 << (n - t))]
                    for k, j in enumerate(strings)
                )
                assert frobenius(w[t - 1] - want) <= 1e-14 * frobenius(want)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_canonical_chain_grams_are_exact(self, n):
        a = canonical_chshn(n).alice
        lam, w = structure._chain_grams(a)
        assert np.array_equal(lam, 2**n * np.eye(len(a[0])))
        assert np.array_equal(w, 2**n * a)

    @pytest.mark.parametrize("n", [7, 8])
    def test_peak_memory_stays_within_six_chain_stacks(self, n):
        # the E_t stack is taken in four blocks of rows, so one report, T
        # included, holds at most about five and a half stacks the size of
        # the chains (2ⁿ·d_A·d_B complex) at once
        g, _ = chsh_game(n)
        s = perturb(canonical_chshn(n), 0.01, seed=n, include_bob=True)
        intertwiner_report(g, s, n)  # warm the reference cache
        tracemalloc.start()
        try:
            intertwiner_report(g, s, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**n * s.d_A * s.d_B * 16


class TestAnticommutationResidual:
    def test_canonical_vanishes(self):
        assert anticommutation_residual(canonical_chshn(3), 3) < 1e-10

    def test_commuting_observables_give_one(self):
        bob = canonical_chshn(2).bob
        s = Strategy((SZ, SZ), bob, maximally_entangled(2))
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

    def test_fewer_alice_observables_than_k(self):
        c = canonical_chshn(2)
        with pytest.raises(DimensionMismatch):
            ab_switch_check(Strategy(c.alice[:1], c.bob, c.state), 2, 2)


class TestRigidityChecksNeedNAtLeastTwo:
    """Every rigidity check starts from require_chshn_shape, which rejects an
    n that is not an integer >= 2 before it compares the shape."""

    CHECKS = {
        "require_chshn_shape": require_chshn_shape,
        "verify_optimal_form": verify_optimal_form,
        "anticommutation_residual": anticommutation_residual,
        "ab_switch_check": lambda s, n: ab_switch_check(s, n, 1),
        "build_intertwiner": build_intertwiner,
        "intertwiner_report": lambda s, n: intertwiner_report(chsh_game(2)[0], s, n),
    }

    @pytest.mark.parametrize("name", CHECKS)
    def test_n_one_on_a_strategy_of_that_shape(self, name):
        # one Alice and 1·0 Bob observables: the shape check alone passes it
        s = Strategy((SZ,), np.zeros((0, 2, 2)), maximally_entangled(2))
        with pytest.raises(InvalidN, match=r"^CHSH\(n\) needs integer n >= 2, got 1$"):
            self.CHECKS[name](s, 1)

    @pytest.mark.parametrize("name", CHECKS)
    @pytest.mark.parametrize("n", [0, -1, 2.0])
    def test_n_below_two_or_not_an_integer(self, name, n):
        with pytest.raises(InvalidN):
            self.CHECKS[name](canonical_chshn(2), n)


class TestNormalizationLemma:
    def test_anticommuting_pair(self):
        lhs_sq, rhs_sq, gap = normalization_lemma_check(SX, SZ)
        assert np.abs(lhs_sq - rhs_sq).max() < 1e-12
        # anticommutator vanishes, so both sides must be zero
        assert np.abs(lhs_sq).max() < 1e-12
        assert gap >= -1e-9

    def test_equal_pair(self):
        lhs_sq, rhs_sq, gap = normalization_lemma_check(SX, SX)
        assert np.abs(lhs_sq - (RT2 - 1) ** 2 * np.eye(2)).max() < 1e-12
        assert np.abs(lhs_sq - rhs_sq).max() < 1e-12
        assert gap >= -1e-9

    def test_diagonal_commuting_pair_scalar_map(self):
        r = np.diag([1.0 + 0j, 1.0, -1.0])
        s = np.diag([1.0 + 0j, -1.0, -1.0])
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
            normalization_lemma_check(SX, np.eye(4, dtype=complex))

    def test_rejects_a_non_observable(self):
        with pytest.raises(ValueError, match=r"^\(R, S\) observable 1 squared deviates"):
            normalization_lemma_check(SX, np.diag([1.0, 0.5]))


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
        junk_a = [np.diag([1.0 + 0j, -1.0]) for _ in s.alice]
        junk_b = [np.eye(3, dtype=complex) for _ in s.bob]
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
        alice = tuple(u @ o @ u.conj().T for o in s.alice)
        m = u @ s.state
        rotated = Strategy(alice, s.bob, m.reshape(-1))
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

    @pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf])
    def test_rejects_negative_or_non_finite_tol(self, tol):
        # a NaN tol would fail every comparison and give verdict False
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            verify_optimal_form(canonical_chshn(2), 2, tol=tol)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_b_block_relation_matches_pairwise_reference(self, n):
        # the old per-pair loop: (A_a ± A_b)/√2 against Bob's column (a,b)
        for s in near_optimal_variants(n):
            mpsi = s.state
            ref = 0.0
            for t, (a, b) in enumerate(chshn_pair_order(n)):
                if a < b:
                    comb = (s.alice[a - 1] + s.alice[b - 1]) / RT2
                else:
                    comb = (s.alice[b - 1] - s.alice[a - 1]) / RT2
                ref = max(ref, frobenius(comb @ mpsi - mpsi @ s.bob[t].T))
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

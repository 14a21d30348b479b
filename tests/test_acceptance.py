"""End-to-end acceptance suite.

Each test pins one externally stated requirement of the library at its
stated tolerance.  These tests are intentionally redundant with the unit
suites: they exercise the public API exactly the way a consumer would.
"""

import time

import numpy as np
import pytest

from xorgame import (
    Strategy,
    bias,
    build_intertwiner,
    canonical_chshn,
    canonical_vector_family,
    check_identity,
    chsh_game,
    chshn_dual_y,
    chshn_relations_form1,
    chshn_relations_form2,
    embed_with_junk,
    extract_relations,
    intertwiner_report,
    maximally_entangled,
    normalization_lemma_check,
    perturb,
    residual,
    simulate,
    solve,
    symmetrize,
    tsirelson_strategy,
    verify_dual_feasible,
    verify_optimal_form,
)

from conftest import random_observable

RT2 = np.sqrt(2.0)
TARGET = 1.0 / RT2


@pytest.fixture(scope="module")
def solved():
    """Solve CHSH(n) once per n and record wall time."""
    out = {}
    for n in (2, 3, 4, 5):
        g, _ = chsh_game(n)
        t0 = time.perf_counter()
        sol = solve(symmetrize(g))
        out[n] = (g, sol, time.perf_counter() - t0)
    return out


def _random_strategy(rng, n_alice, n_bob):
    d_a = int(rng.integers(2, 5))
    d_b = int(rng.integers(2, 5))
    alice = [random_observable(rng, d_a) for _ in range(n_alice)]
    bob = [random_observable(rng, d_b) for _ in range(n_bob)]
    psi = rng.standard_normal(d_a * d_b) + 1j * rng.standard_normal(d_a * d_b)
    psi /= np.linalg.norm(psi)
    return Strategy(alice=alice, bob=bob, state=psi)


class TestCriterion01QuantumBias:
    def test_solve_chshn_reaches_tsirelson(self, solved):
        for n, (g, sol, elapsed) in solved.items():
            assert sol.converged
            assert abs(sol.primal_value - TARGET) <= 1e-6, n
            assert elapsed <= 10.0, f"n={n} took {elapsed:.1f}s"


class TestCriterion02DualCertificate:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_closed_form_y_is_feasible(self, n):
        g, _ = chsh_game(n)
        y = chshn_dual_y(n)
        ok, min_eig = verify_dual_feasible(y, symmetrize(g))
        assert ok
        assert min_eig >= -1e-12
        assert abs(y.sum() - TARGET) <= 1e-12


class TestCriterion03ResidualIdentity:
    @pytest.mark.parametrize("n", [2, 3])
    def test_identity_on_randomized_strategies(self, n, solved):
        g, sol, _ = solved[n]
        systems = [
            chshn_relations_form1(n),
            chshn_relations_form2(n),
            extract_relations(g, sol.y),
        ]
        rng = np.random.default_rng(777 + n)
        for _ in range(100):
            s = _random_strategy(rng, g.n_alice, g.n_bob)
            for rel in systems:
                lhs, rhs, ok = check_identity(g, s, rel)
                assert abs(lhs - rhs) <= 1e-7
                assert ok


class TestCriterion04CanonicalResidualZero:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_canonical(self, n):
        s = canonical_chshn(n)
        assert residual(s, chshn_relations_form1(n)) <= 1e-10
        assert residual(s, chshn_relations_form2(n)) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_junk_embedded(self, n):
        s = canonical_chshn(n)
        rng = np.random.default_rng(41)
        emb = embed_with_junk(
            s,
            extra_A=3,
            extra_B=2,
            junk_alice=[random_observable(rng, 3) for _ in range(len(s.alice))],
            junk_bob=[random_observable(rng, 2) for _ in range(len(s.bob))],
        )
        assert residual(emb, chshn_relations_form1(n)) <= 1e-10
        assert residual(emb, chshn_relations_form2(n)) <= 1e-10


class TestCriterion05OptimalFormVerification:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_canonical_and_embedded_verify(self, n):
        for s in self._variants(n):
            rep = verify_optimal_form(s, n, tol=1e-8)
            assert rep.verdict
            assert rep.block_size == 2 ** (n // 2)
            assert rep.rank_divisible
            assert rep.blocks_equal

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_perturbed_fails(self, n):
        s = perturb(canonical_chshn(n), theta=0.2, seed=0)
        rep = verify_optimal_form(s, n, tol=1e-8)
        assert not rep.verdict

    @staticmethod
    def _variants(n):
        s = canonical_chshn(n)
        rng = np.random.default_rng(n)
        yield s
        yield embed_with_junk(
            s,
            extra_A=2,
            extra_B=3,
            junk_alice=[random_observable(rng, 2) for _ in range(len(s.alice))],
            junk_bob=[random_observable(rng, 3) for _ in range(len(s.bob))],
        )


class TestCriterion06OrthonormalFamily:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_gram_is_identity(self, n):
        fam = canonical_vector_family(n)
        x = np.array(fam)
        gram = x.conj() @ x.T
        assert np.max(np.abs(gram - np.eye(len(fam)))) <= 1e-10


class TestCriterion07IntertwinerNorm:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_unit_frobenius_norm(self, n):
        rng = np.random.default_rng(n + 100)
        s = canonical_chshn(n)
        variants = [
            s,
            embed_with_junk(
                s,
                extra_A=2,
                extra_B=2,
                junk_alice=[random_observable(rng, 2) for _ in range(len(s.alice))],
                junk_bob=[random_observable(rng, 2) for _ in range(len(s.bob))],
            ),
            perturb(s, theta=0.05, seed=3),
            perturb(s, theta=0.3, seed=7, include_bob=True),
        ]
        for v in variants:
            t = build_intertwiner(v, n)
            assert abs(np.linalg.norm(t) - 1.0) <= 1e-9


class TestCriterion08BoundSuite:
    def test_grid(self):
        t0 = time.perf_counter()
        for n in (2, 3, 4):
            g, _ = chsh_game(n)
            base = canonical_chshn(n)
            for theta in (0.0, 0.01, 0.03, 0.05, 0.1):
                for seed in (0, 1, 2):
                    s = perturb(base, theta=theta, seed=seed)
                    rep = intertwiner_report(g, s, n)
                    worst_a = max(rep.alice_residuals)
                    worst_b = max(rep.bob_residuals)
                    if rep.epsilon == 0.0:
                        assert worst_a <= 1e-8, (n, theta, seed)
                        assert worst_b <= 1e-8, (n, theta, seed)
                    else:
                        assert worst_a < 12.0 * n**2 * np.sqrt(rep.epsilon), (
                            n,
                            theta,
                            seed,
                        )
                        assert worst_b < 17.0 * n**2 * np.sqrt(rep.epsilon), (
                            n,
                            theta,
                            seed,
                        )
        assert time.perf_counter() - t0 <= 300.0


class TestCriterion09NormalizationLemma:
    def test_identity_and_psd_domination(self):
        rng = np.random.default_rng(909)
        pairs = 0
        for d in (2, 4, 8):
            for _ in range(67):
                r = random_observable(rng, d)
                s = random_observable(rng, d)
                lhs_sq, rhs_sq, psd_gap = normalization_lemma_check(r, s)
                assert np.max(np.abs(lhs_sq - rhs_sq)) <= 1e-8
                assert psd_gap >= -1e-9
                pairs += 1
        assert pairs >= 200


class TestCriterion10TsirelsonRoundTrip:
    def test_bias_matches_primal(self, solved):
        g, sol, _ = solved[2]
        s = tsirelson_strategy(sol.z, 2, 2)
        assert abs(bias(g, s) - sol.primal_value) <= 1e-6


class TestCriterion11MonteCarlo:
    def test_million_round_simulation(self):
        g, _ = chsh_game(2)
        s = canonical_chshn(2)
        hits = 0
        for seed in range(10):
            mean, stderr = simulate(g, s, rounds=10**6, seed=seed)
            if abs(mean - TARGET) <= 5 * stderr:
                hits += 1
        assert hits >= 9

import numpy as np
import pytest

import xorgame.sdp as sdp_mod
from xorgame.games import chsh_game, new_game, symmetrize
from xorgame.linalg import DimensionMismatch, hermitian_eig
from xorgame.sdp import (
    MaxIterations,
    NonSymmetric,
    SdpSolution,
    quantum_bias,
    solve,
    verify_dual_feasible,
)

RT2_INV = 1.0 / np.sqrt(2.0)


def _solution_invariants(g_sym, sol, tol):
    n = g_sym.shape[0]
    assert np.abs(np.diag(sol.z).real - 1.0).max() <= 1e-9
    wz, _ = hermitian_eig(sol.z)
    assert wz[0] >= -1e-9
    ws, _ = hermitian_eig(np.diag(sol.y) - g_sym)
    assert ws[0] >= -1e-9
    assert sol.gap >= -1e-9
    assert sol.gap <= tol
    assert sol.primal_value <= sol.dual_value + tol


class TestSolve:
    def test_chsh2_bias(self):
        g, _ = chsh_game(2)
        sol = solve(symmetrize(g), 1e-8)
        assert sol.primal_value == pytest.approx(RT2_INV, abs=1e-7)
        assert sol.converged
        _solution_invariants(symmetrize(g), sol, 1e-8)

    def test_zero_objective(self):
        sol = solve(np.zeros((4, 4)), 1e-8)
        assert sol.primal_value == pytest.approx(0.0, abs=1e-9)
        assert np.abs(sol.z - np.eye(4)).max() < 1e-6

    def test_single_question_pair(self):
        g = new_game(np.array([[1.0]]))
        assert quantum_bias(g, 1e-8) == pytest.approx(1.0, abs=1e-7)

    def test_rejects_non_symmetric(self):
        with pytest.raises(NonSymmetric):
            solve(np.array([[0.0, 1.0], [0.0, 0.0]]), 1e-8)

    def test_rejects_bad_tol(self):
        g, _ = chsh_game(2)
        for tol in (0.0, -1e-9, 0.5):
            with pytest.raises(ValueError):
                solve(symmetrize(g), tol)

    def test_scaling_homogeneity(self):
        g, _ = chsh_game(2)
        gs = symmetrize(g)
        base = solve(gs, 1e-9).primal_value
        scaled = solve(3.0 * gs, 1e-9).primal_value
        assert scaled == pytest.approx(3.0 * base, abs=3e-8)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_objectives_satisfy_contract(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        a = rng.standard_normal((n, n))
        g_sym = (a + a.T) / (2.0 * n)
        sol = solve(g_sym, 1e-8)
        assert sol.converged
        _solution_invariants(g_sym, sol, 1e-8)

    def test_iteration_cap_reports_best_iterate(self, monkeypatch):
        monkeypatch.setattr(sdp_mod, "MAX_ITERATIONS", 3)
        g, _ = chsh_game(2)
        with pytest.raises(MaxIterations) as info:
            solve(symmetrize(g), 1e-8)
        sol = info.value.solution
        assert isinstance(sol, SdpSolution)
        assert not sol.converged
        assert sol.iterations <= 3

    def test_duality_gap_window_on_converged_solves(self):
        for n in (2, 3):
            g, _ = chsh_game(n)
            g_sym = symmetrize(g)
            sol = solve(g_sym, 1e-8)
            # complementarity: (Diag(y) − G_sym)·Z equals the reported gap
            slack = np.diag(sol.y) - g_sym
            compl = float(np.real(np.trace(slack @ sol.z)))
            assert -1e-8 <= compl <= 1e-8 + sol.gap


class TestQuantumBias:
    @pytest.mark.parametrize("n", [2, 3])
    def test_chshn(self, n):
        g, _ = chsh_game(n)
        assert quantum_bias(g, 1e-8) == pytest.approx(RT2_INV, abs=1e-7)

    def test_beats_classical_strictly_for_chsh2(self):
        g, _ = chsh_game(2)
        assert quantum_bias(g, 1e-8) > 0.5 + 0.2


class TestVerifyDualFeasible:
    def test_row_l1_point_is_feasible(self):
        g, _ = chsh_game(3)
        gs = symmetrize(g)
        y = np.abs(gs).sum(axis=1)
        ok, min_eig = verify_dual_feasible(y, gs)
        assert ok and min_eig >= -1e-12

    def test_zero_y_infeasible_for_nonzero_game(self):
        g, _ = chsh_game(2)
        ok, min_eig = verify_dual_feasible(np.zeros(4), symmetrize(g))
        assert not ok and min_eig < -1e-3

    def test_dimension_mismatch(self):
        g, _ = chsh_game(2)
        with pytest.raises(DimensionMismatch):
            verify_dual_feasible(np.zeros(3), symmetrize(g))


def _assert_converged(g_sym, sol, tol):
    """Converged with every invariant, to the scaled stop rule gap <= tol·min(1, ‖G‖_∞)."""
    assert sol.converged
    _solution_invariants(g_sym, sol, tol)
    assert sol.gap <= tol * min(1.0, np.abs(g_sym).sum(axis=1).max())


class TestConvergence:
    @pytest.mark.parametrize("scale", [1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_chshn_at_every_scale(self, n, scale):
        g, _ = chsh_game(n)
        g_sym = scale * symmetrize(g)
        sol = solve(g_sym, 1e-8)
        _assert_converged(g_sym, sol, 1e-8)
        assert sol.primal_value / scale == pytest.approx(RT2_INV, abs=1e-8)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_chshn_up_to_ten(self, n):
        g, _ = chsh_game(n)
        g_sym = symmetrize(g)
        sol = solve(g_sym, 1e-8)
        _assert_converged(g_sym, sol, 1e-8)
        assert sol.primal_value == pytest.approx(RT2_INV, abs=1e-8)
        assert sol.iterations < 50

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("n", [1, 2, 5, 9, 17, 33, 64])
    def test_random_objectives_at_random_scales(self, n, seed):
        rng = np.random.default_rng([n, seed])
        a = rng.standard_normal((n, n))
        g_sym = (a + a.T) / 2
        g_sym *= 10.0 ** rng.uniform(-3.0, 3.0) / np.abs(g_sym).sum(axis=1).max()
        sol = solve(g_sym, 1e-8)
        _assert_converged(g_sym, sol, 1e-8)

    def test_zero_objective_returns_identity_at_once(self):
        sol = solve(np.zeros((3, 3)), 1e-8)
        assert sol.converged and sol.iterations == 0
        assert np.array_equal(sol.z, np.eye(3)) and np.array_equal(sol.y, np.zeros(3))
        assert sol.gap == 0.0

    def test_iteration_cap_carries_best_iterate_and_diagnosis(self, monkeypatch):
        g_sym = symmetrize(chsh_game(2)[0])
        gaps = []
        for cap in (1, 2, 3):
            monkeypatch.setattr(sdp_mod, "MAX_ITERATIONS", cap)
            with pytest.raises(MaxIterations) as info:
                solve(g_sym, 1e-8)
            sol = info.value.solution
            assert not sol.converged and sol.iterations == cap
            # the best iterate is feasible for both programs
            assert np.abs(np.diag(sol.z) - 1.0).max() <= 1e-12
            assert hermitian_eig(sol.z)[0][0] >= 0.0
            assert verify_dual_feasible(sol.y, g_sym)[0]
            assert sol.primal_value <= RT2_INV <= sol.dual_value
            gaps.append(sol.gap)
        assert gaps[0] >= gaps[1] >= gaps[2] > 1e-8
        msg = str(info.value)
        assert "within 3 iterations" in msg and f"best gap {gaps[2]:.3e}" in msg
        assert "iteration cap reached" in msg
        assert "primal" in msg and "dual" in msg and "mu" in msg

    def test_collapsed_step_raises_with_diagnosis(self, monkeypatch):
        monkeypatch.setattr(sdp_mod, "BACKTRACK_STEPS", 0)
        g_sym = symmetrize(chsh_game(2)[0])
        with pytest.raises(MaxIterations) as info:
            solve(g_sym, 1e-8)
        sol = info.value.solution
        assert not sol.converged and sol.iterations == 0
        assert verify_dual_feasible(sol.y, g_sym)[0]
        assert "step collapsed" in str(info.value)

    def test_non_finite_step_raises_with_diagnosis(self, monkeypatch):
        # numpy's Cholesky accepts NaN entries, so the step test must refuse them
        monkeypatch.setattr(sdp_mod.np.linalg, "solve", lambda a, b: np.full_like(b, np.nan))
        g_sym = symmetrize(chsh_game(2)[0])
        with pytest.raises(MaxIterations) as info:
            solve(g_sym, 1e-8)
        assert info.value.solution.iterations == 0
        assert np.all(np.isfinite(info.value.solution.z))
        assert "step collapsed" in str(info.value)

    def test_singular_newton_system_at_scale_1e12_raises_with_diagnosis(self):
        # S = Diag(y) − G turns singular in floating point; no LinAlgError escapes
        g_sym = 1e12 * symmetrize(chsh_game(2)[0])
        with pytest.raises(MaxIterations) as info:
            solve(g_sym, 1e-8)
        assert not info.value.solution.converged
        assert "Newton system singular" in str(info.value)

    def test_singular_newton_solve_raises_with_diagnosis(self, monkeypatch):
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(sdp_mod.np.linalg, "solve", singular)
        with pytest.raises(MaxIterations) as info:
            solve(symmetrize(chsh_game(2)[0]), 1e-8)
        assert info.value.solution.iterations == 0
        assert "Newton system singular" in str(info.value)

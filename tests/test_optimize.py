"""State grid, objective, and the multi-start sequence search."""

import numpy as np
import pytest

from darkpulse import (FieldParams, OptimizerSettings, TargetState, dark_basis, field_for_span,
                       hs_distance, initial_state_grid, optimize_sequence, pure_state_dyads)
from darkpulse import optimize
from darkpulse.optimize import (WOLFE_C1, WOLFE_C2, _grid_moments, _rms_and_gradient, minimize,
                                random_pure_states, state_distances)
from conftest import fold_closed, fold_repumped, random_field


def _central_gradient(fun, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient: the oracle for the analytic one."""
    grad = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xp[i] += step
        xm = x.copy()
        xm[i] -= step
        grad[i] = (fun(xp) - fun(xm)) / (2.0 * step)
    return grad


def grid_rms(params: np.ndarray, grid: np.ndarray, target: TargetState) -> float:
    """The search's objective: RMS distance to the target over the grid, from its moments."""
    return _rms_and_gradient(params, *_grid_moments(grid, target), None)[0]


def small_target() -> TargetState:
    psi1 = np.array([0.6, 0.8j, 0.0], dtype=complex)
    psi2 = np.array([0.0, 0.6, 0.8], dtype=complex)
    return TargetState(weights=(0.4, 0.6), psi1=psi1, psi2=psi2)


class TestInitialStateGrid:
    def test_resolution_two_has_sixteen_states(self):
        assert len(initial_state_grid(2)) == 16

    def test_all_states_unit_norm(self):
        grid = initial_state_grid(4)
        norms = np.linalg.norm(grid, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-12

    def test_corner_states_hit_basis_vectors(self):
        grid = initial_state_grid(3)
        assert np.allclose(grid[0], [1.0, 0.0, 0.0])  # chi1 = 0 corner
        targets = np.eye(3)
        for basis_vec in targets:
            overlaps = np.abs(grid @ basis_vec.conj())
            assert overlaps.max() > 1.0 - 1e-12

    def test_duplicates_allowed_at_degenerate_corners(self):
        grid = initial_state_grid(2)
        g_minus = np.abs(grid @ np.array([1.0, 0, 0])) > 1 - 1e-12
        assert g_minus.sum() >= 2  # chi1 = 0 row collapses regardless of phases

    def test_rejects_resolution_below_two(self):
        with pytest.raises(ValueError):
            initial_state_grid(1)

    @pytest.mark.parametrize("resolution", range(2, 8))
    def test_matches_nested_loop_bytes(self, resolution):
        chi = np.linspace(0.0, np.pi / 2.0, resolution)
        beta = np.arange(resolution) * 2.0 * np.pi / resolution
        expected = np.empty((resolution ** 4, 3), dtype=complex)
        g = 0
        for c1 in chi:
            for c2 in chi:
                for b2 in beta:
                    for b3 in beta:
                        expected[g] = (np.cos(c1),
                                       np.sin(c1) * np.cos(c2) * np.exp(1j * b2),
                                       np.sin(c1) * np.sin(c2) * np.exp(1j * b3))
                        g += 1
        states = initial_state_grid(resolution)
        assert states.dtype == expected.dtype and states.shape == expected.shape
        assert states.tobytes() == expected.tobytes()
        assert not states.flags.writeable


class TestSequenceObjective:
    def test_exact_zero_for_bright_state_and_mixed_dark_target(self, rng):
        # a single pulse sends its own bright state to the maximally mixed
        # dark state, so that target is reached exactly
        fp = random_field(rng)
        basis = dark_basis(fp)
        grid = basis.phi_perp[None, :]
        target = TargetState(weights=(0.5, 0.5), psi1=basis.n1, psi2=basis.n2)
        params = np.array(fp.angles)
        assert grid_rms(params, grid, target) < 1e-12

    def test_nonnegative(self, rng):
        grid = initial_state_grid(2)
        target = small_target()
        for _ in range(10):
            params = rng.uniform(0, 2 * np.pi, size=8)
            assert grid_rms(params, grid, target) >= 0.0

    def test_matches_per_state_composition(self, rng):
        grid = initial_state_grid(2)
        target = small_target()
        rho_f = target.density_matrix()
        for n_steps in (1, 2, 4):
            params = rng.uniform(0, 2 * np.pi, size=4 * n_steps)
            steps = tuple(
                FieldParams(theta=params[4 * l], phi=params[4 * l + 1],
                            mu_minus=params[4 * l + 2], mu_plus=params[4 * l + 3])
                for l in range(n_steps))
            value = grid_rms(params, grid, target)
            # the closed-manifold composition (alpha) and the lossy fold (beta)
            for fold in (lambda rho: fold_closed(rho, steps),
                         lambda rho: fold_repumped(rho, steps)):
                distances = [hs_distance(fold(pure_state_dyads(psi)), rho_f)
                             for psi in grid]
                expected = float(np.sqrt(np.mean(np.square(distances))))
                assert value == pytest.approx(expected, abs=1e-12)


class TestAnalyticGradient:
    @pytest.mark.parametrize("n_steps", [1, 4, 8])
    @pytest.mark.parametrize("pin_last", [False, True])
    @pytest.mark.parametrize("theta_range", [(0.0, 2 * np.pi), (1e-4, 1e-2),
                                             (np.pi - 1e-2, np.pi - 1e-4)])
    def test_matches_central_differences(self, rng, n_steps, pin_last, theta_range):
        grid = initial_state_grid(3)
        target = small_target()
        params = rng.uniform(0, 2 * np.pi, size=(n_steps, 4))
        params[:, 0] = rng.uniform(*theta_range, size=n_steps)
        params = params.ravel()
        pinned = params[-4:] if pin_last else None
        free = params[:-4] if pin_last else params

        def value(x):
            full = x if pinned is None else np.concatenate([x, pinned])
            return grid_rms(full, grid, target)

        rms, grad = _rms_and_gradient(free, *_grid_moments(grid, target), pinned)
        assert rms == pytest.approx(value(free), abs=1e-14)
        expected = _central_gradient(value, free)
        assert grad.shape == free.shape
        assert np.linalg.norm(grad - expected) <= 1e-6 * np.linalg.norm(expected)


class TestOptimizeSequence:
    def test_deterministic_for_fixed_seed(self):
        grid = initial_state_grid(3)
        target = small_target()
        kwargs = dict(restarts=2, max_iter=40, tol=1e-6)
        a = optimize_sequence(2, target, grid, OptimizerSettings(seed=11, **kwargs))
        b = optimize_sequence(2, target, grid, OptimizerSettings(seed=11, **kwargs))
        assert a.objective_value == b.objective_value
        assert a.iterations == b.iterations
        assert a.restart_history == b.restart_history
        assert a.restarts == b.restarts
        for fa, fb in zip(a.sequence, b.sequence):
            assert fa.angles == fb.angles
        assert np.array_equal(a.per_state_distances, b.per_state_distances)

    def test_restart_history_non_increasing(self):
        grid = initial_state_grid(3)
        result = optimize_sequence(2, small_target(), grid,
                                   OptimizerSettings(seed=5, restarts=4, max_iter=30, tol=1e-12))
        history = np.array(result.restart_history)
        assert np.all(np.diff(history) <= 0)
        assert len(result.restarts) == len(history)
        assert sum(r.iterations for r in result.restarts) == result.iterations
        best = np.minimum.accumulate([r.final_value for r in result.restarts])
        assert tuple(best) == result.restart_history
        for record in result.restarts:
            assert record.function_evals >= record.iterations
            assert record.termination != "tol"  # tol 1e-12 is out of reach in 30
            assert record.termination != "maxiter" or record.iterations == 30

    def test_objective_value_consistent_with_distances(self):
        grid = initial_state_grid(3)
        result = optimize_sequence(2, small_target(), grid,
                                   OptimizerSettings(seed=5, restarts=1, max_iter=25, tol=1e-9))
        hs = result.per_state_distances[:, 0]
        assert result.objective_value == pytest.approx(
            float(np.sqrt(np.mean(hs ** 2))), abs=1e-12)
        params = np.concatenate([fp.angles for fp in result.sequence])
        assert grid_rms(params, grid, small_target()) == pytest.approx(
            result.objective_value, abs=1e-12)

    def test_converged_is_the_stopping_test(self):
        # converged must read the value the restarts stop on, not the
        # per-state recomputation; a tol between the two separates them
        grid = initial_state_grid(3)
        kwargs = dict(restarts=2, max_iter=40)
        outcomes = set()
        for seed in (3, 5, 7):
            probe = optimize_sequence(2, small_target(), grid,
                                      OptimizerSettings(seed=seed, tol=1e-9, **kwargs))
            stop_value = min(r.final_value for r in probe.restarts)
            assert stop_value != probe.objective_value
            between = 0.5 * (stop_value + probe.objective_value)
            for tol in (0.2, between, 1e-9):
                result = optimize_sequence(2, small_target(), grid,
                                           OptimizerSettings(seed=seed, tol=tol, **kwargs))
                best = min(r.final_value for r in result.restarts)
                assert result.converged == (best < tol)
                assert result.converged == any(r.termination == "tol"
                                               for r in result.restarts)
                outcomes.add(result.converged)
        assert outcomes == {True, False}

    def test_pinned_last_pulse_keeps_target_span(self):
        grid = initial_state_grid(3)
        target = small_target()
        pinned = field_for_span(target.psi1, target.psi2)
        for n_steps in (1, 2):
            result = optimize_sequence(n_steps, target, grid, OptimizerSettings(
                seed=3, restarts=1, max_iter=20, tol=1e-9, pin_last=True))
            assert result.sequence[-1].angles == pytest.approx(pinned.angles, abs=1e-14)
            if n_steps == 1:  # a single pinned pulse leaves nothing to optimize
                assert [r.termination for r in result.restarts] == ["no free angles"]

    def test_rejects_bad_step_count(self):
        with pytest.raises(ValueError):
            optimize_sequence(0, small_target(), initial_state_grid(2),
                              OptimizerSettings(seed=0))


def rosenbrock(x: np.ndarray) -> tuple[float, np.ndarray]:
    """The 2-D Rosenbrock function and its gradient; the minimum 0 is at (1, 1)."""
    a, b = x
    grad = np.array([-2.0 * (1.0 - a) - 400.0 * a * (b - a * a), 200.0 * (b - a * a)])
    return float((1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2), grad


def n4_objective():
    """The search's objective at N = 4 on a grid-3 target, and a random start."""
    moments = _grid_moments(initial_state_grid(3), small_target())
    x0 = np.random.default_rng(7).uniform(0.0, 2.0 * np.pi, size=16)
    return (lambda x: _rms_and_gradient(x, *moments, None)), x0


PROBLEMS = {"rosenbrock": lambda: (rosenbrock, np.array([-1.2, 1.0])), "n4": n4_objective}


class TestMinimize:
    @pytest.mark.parametrize("problem", PROBLEMS)
    def test_every_step_meets_the_strong_wolfe_conditions(self, problem, monkeypatch):
        fun, x0 = PROBLEMS[problem]()
        searches = []

        def recording(fun, x, value, grad, direction, step):
            trials, found = line_search(fun, x, value, grad, direction, step)
            searches.append((value, grad, direction, found))
            return trials, found

        line_search = optimize._line_search
        monkeypatch.setattr(optimize, "_line_search", recording)
        x, record = minimize(fun, x0, OptimizerSettings(seed=0, max_iter=400, tol=1e-7))
        assert record.termination == "tol"
        assert len(searches) == record.iterations > 10
        for value, grad, direction, (step, new_value, new_grad) in searches:
            slope = grad @ direction
            assert slope < 0.0
            assert new_value <= value + WOLFE_C1 * step * slope
            assert abs(new_grad @ direction) <= WOLFE_C2 * abs(slope)
        assert fun(x)[0] == record.final_value < 1e-7

    @pytest.mark.parametrize("problem", PROBLEMS)
    def test_two_runs_are_bit_identical(self, problem):
        fun, x0 = PROBLEMS[problem]()
        settings = OptimizerSettings(seed=0, max_iter=60, tol=1e-12)
        (xa, a), (xb, b) = minimize(fun, x0, settings), minimize(fun, x0, settings)
        assert xa.tobytes() == xb.tobytes()
        assert a == b

    def test_each_termination_is_reached(self):
        n4, start = n4_objective()
        cases = {"tol": (n4, start, 400), "maxiter": (n4, start, 5),
                 # a quadratic started at its minimum, whose value stays above tol
                 "stationary": (lambda x: (1.0 + x @ x, 2.0 * x), np.zeros(2), 5),
                 # the negated gradient points uphill, so no step decreases the value
                 "line search": (lambda x: (x @ x, -2.0 * x), np.ones(2), 5)}
        for name, (fun, x0, max_iter) in cases.items():
            x, record = minimize(fun, x0, OptimizerSettings(seed=0, max_iter=max_iter, tol=1e-7))
            assert record.termination == name
            if name == "maxiter":
                assert record.iterations == max_iter
            if name in ("stationary", "line search"):
                assert record.iterations == 0 and np.array_equal(x, x0)


class TestStateDistances:
    def test_match_per_state_metrics(self, rng):
        steps = tuple(random_field(rng) for _ in range(3))
        states = random_pure_states(7, [3, 1])
        target = small_target()
        rho_f = target.density_matrix()
        distances = state_distances(states, steps, target)
        assert distances.shape == (7, 2)
        for psi, (hs, mis) in zip(states, distances):
            out = fold_closed(pure_state_dyads(psi), steps)
            assert hs == pytest.approx(np.linalg.norm(out - rho_f), abs=1e-14)
            assert mis == pytest.approx(np.sqrt(1.0 - np.trace(out @ rho_f).real), abs=1e-12)


class TestRandomPureStates:
    def test_seeded_and_normalized(self):
        a = random_pure_states(50, [7, 1])
        b = random_pure_states(50, [7, 1])
        assert np.array_equal(a, b)
        assert np.abs(np.linalg.norm(a, axis=1) - 1.0).max() < 1e-12

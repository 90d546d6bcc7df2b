"""State grid, objective, and the multi-start sequence search."""

import numpy as np
import pytest

from darkpulse import (FieldParams, OptimizerSettings, TargetState, compose_sequence, dark_basis,
                       field_for_span, hs_distance, initial_state_grid, optimize_sequence,
                       pure_state_dyads)
from darkpulse import optimize
from darkpulse.cli import bundled_config_path
from darkpulse.config import load_config
from darkpulse.optimize import (_GROUND, ACCEPT_RATIO, MAX_DAMPING, _grid_moments, _least_squares,
                                _step_maps, minimize, random_pure_states, state_distances)
from conftest import fold_closed, fold_repumped, random_field


def _central_difference(fun, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central-difference derivative of a scalar or array ``fun``, one row per coordinate."""
    rows = []
    for i in range(x.size):
        xp = x.copy()
        xp[i] += step
        xm = x.copy()
        xm[i] -= step
        rows.append((np.asarray(fun(xp)) - np.asarray(fun(xm))) / (2.0 * step))
    return np.array(rows)


def grid_rms(params: np.ndarray, grid: np.ndarray, target: TargetState) -> float:
    """The search's value: RMS distance to the target over the grid, from its second moment."""
    return float(np.sqrt(2.0 * _least_squares(params, *_grid_moments(grid, target), None)[0]))


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

    def test_value_is_the_per_state_rms_without_cancellation(self):
        # a sequence at RMS ~1e-13, moved along a fixed direction to RMS 1e-2 ... 1e-10
        grid = initial_state_grid(3)
        target = small_target()
        base = optimize_sequence(4, target, grid, OptimizerSettings(seed=3, tol=1e-12))
        assert base.converged
        start = np.concatenate([fp.angles for fp in base.sequence])
        direction = np.random.default_rng(1).normal(size=start.size)
        moment, target_vec = _grid_moments(grid, target)
        gauss_newton = _least_squares(start, moment, target_vec, None)[2]
        per_unit = np.sqrt(direction @ gauss_newton @ direction)  # RMS per unit move
        vecs = pure_state_dyads(grid).reshape(-1, 16)[:, _GROUND]
        for rms in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10):
            angles = start + (rms / per_unit) * direction
            value = grid_rms(angles, grid, target)
            assert 0.5 * rms < value < 2.0 * rms
            # each state's residual (A - t u^dagger) v through the kernel's own map A
            total = np.eye(9, dtype=complex)
            for step in _step_maps(angles.reshape(-1, 4))[0]:
                total = step @ total
            residual_map = total - np.outer(target_vec, np.eye(3).ravel())
            per_state = np.sqrt(np.mean(np.sum(np.abs(vecs @ residual_map.T) ** 2, axis=1)))
            assert value == pytest.approx(per_state, rel=1e-14)
        # the moment form of the same map, tr(A C A^dagger) - 2 Re t^dagger A m + |t|^2,
        # cancels: at RMS 1e-10 it is off by more than a percent
        mean_vec = vecs.mean(axis=0)
        moment_form = (np.vdot(total, total @ moment) - 2.0 * np.vdot(target_vec, total @ mean_vec)
                       + np.vdot(target_vec, target_vec)).real
        assert abs(np.sqrt(max(moment_form, 0.0)) - value) > 1e-2 * value


class TestAnalyticGradient:
    @pytest.mark.parametrize("n_steps", [1, 4, 8])
    @pytest.mark.parametrize("pin_last", [False, True])
    @pytest.mark.parametrize("theta_range", [(0.0, 2 * np.pi), (1e-4, 1e-2),
                                             (np.pi - 1e-2, np.pi - 1e-4)])
    def test_matches_central_differences(self, rng, n_steps, pin_last, theta_range):
        # the oracle is the per-state composition, not the kernel: its residuals
        # r_g = rho_g - rho_f give f = |r|^2 / 2G, g = J^T r / G and H = J^T J / G
        grid = initial_state_grid(3)
        target = small_target()
        rho_f = target.density_matrix()
        params = rng.uniform(0, 2 * np.pi, size=(n_steps, 4))
        params[:, 0] = rng.uniform(*theta_range, size=n_steps)
        params = params.ravel()
        pinned = params[-4:] if pin_last else None
        free = params[:-4] if pin_last else params

        def residuals(x):
            full = x if pinned is None else np.concatenate([x, pinned])
            steps = tuple(FieldParams(*angles) for angles in full.reshape(-1, 4))
            r = (compose_sequence(pure_state_dyads(grid), steps) - rho_f).ravel()
            return np.concatenate([r.real, r.imag]) / np.sqrt(len(grid))

        half_square, grad, gauss_newton = _least_squares(free, *_grid_moments(grid, target),
                                                         pinned)
        r = residuals(free)
        assert half_square == pytest.approx(0.5 * r @ r, rel=1e-13)
        assert grad.shape == free.shape and gauss_newton.shape == (free.size, free.size)
        if free.size == 0:
            return
        jacobian = _central_difference(residuals, free)          # (free, residuals)
        expected_grad, expected_gn = jacobian @ r, jacobian @ jacobian.T
        assert np.linalg.norm(grad - expected_grad) <= 1e-6 * np.linalg.norm(expected_grad)
        assert np.linalg.norm(gauss_newton - expected_gn) <= 1e-6 * np.linalg.norm(expected_gn)
        # and the gradient is the value's own derivative
        by_value = _central_difference(
            lambda x: _least_squares(x, *_grid_moments(grid, target), pinned)[0], free)
        assert np.linalg.norm(grad - by_value) <= 1e-6 * np.linalg.norm(by_value)


class TestOptimizeSequence:
    def test_deterministic_for_fixed_seed(self):
        grid = initial_state_grid(3)
        target = small_target()
        kwargs = dict(restarts=2, max_iter=40, tol=1e-6)
        a = optimize_sequence(2, target, grid, OptimizerSettings(seed=11, **kwargs))
        b = optimize_sequence(2, target, grid, OptimizerSettings(seed=11, **kwargs))
        assert a.objective_value == b.objective_value
        # every record field, the final values and iteration counts among them
        assert a.restarts == b.restarts
        for fa, fb in zip(a.sequence, b.sequence):
            assert fa.angles == fb.angles
        assert np.array_equal(a.per_state_distances, b.per_state_distances)

    def test_restart_records_account_for_the_search(self):
        grid = initial_state_grid(3)
        result = optimize_sequence(2, small_target(), grid,
                                   OptimizerSettings(seed=5, restarts=4, max_iter=30, tol=1e-12))
        assert len(result.restarts) == 4
        assert sum(r.iterations for r in result.restarts) == result.iterations
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
        # converged reads the value the restarts stop on, and only a "tol" stop sets it
        grid = initial_state_grid(3)
        kwargs = dict(restarts=2, max_iter=10)
        outcomes = set()
        for seed in (3, 5, 7):
            for tol in (0.2, 1e-6, 1e-12):
                result = optimize_sequence(2, small_target(), grid,
                                           OptimizerSettings(seed=seed, tol=tol, **kwargs))
                best = min(r.final_value for r in result.restarts)
                assert result.converged == (best < tol)
                assert result.converged == any(r.termination == "tol"
                                               for r in result.restarts)
                outcomes.add(result.converged)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
    def test_stopping_value_is_the_reported_rms(self, tol):
        # the value the search stops on and the RMS recomputed from the per-state
        # distances differ only by the rounding of the O(1) output states
        result = optimize_sequence(4, small_target(), initial_state_grid(3),
                                   OptimizerSettings(seed=3, tol=tol))
        assert result.converged
        best = min(r.final_value for r in result.restarts)
        assert abs(best - result.objective_value) <= 1e-15

    @pytest.mark.parametrize("n_steps, pin_last", [(1, True), (2, False)])
    def test_one_minimize_call_per_restart(self, monkeypatch, n_steps, pin_last):
        # the benchmark's tracer counts restarts by wrapping optimize.minimize
        calls = []

        def counting(*args):
            calls.append(1)
            return minimize(*args)

        monkeypatch.setattr(optimize, "minimize", counting)
        result = optimize_sequence(n_steps, small_target(), initial_state_grid(2),
                                   OptimizerSettings(seed=3, restarts=3, max_iter=5, tol=1e-12,
                                                     pin_last=pin_last))
        assert len(calls) == len(result.restarts) == 3

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


def rosenbrock(x: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Rosenbrock's function as least squares, r = (10 (b - a^2), 1 - a): f = |r|^2 / 2,
    its gradient and J^T J.  The zero residual is at (1, 1)."""
    a, b = x
    r = np.array([10.0 * (b - a * a), 1.0 - a])
    jacobian = np.array([[-20.0 * a, 10.0], [-1.0, 0.0]])
    return 0.5 * float(r @ r), jacobian.T @ r, jacobian.T @ jacobian


def grid_objective(n_steps: int, weights: tuple) -> tuple:
    """The search's objective at N steps on a grid-3 target, and a random start."""
    target = TargetState(weights=weights, psi1=small_target().psi1, psi2=small_target().psi2)
    moments = _grid_moments(initial_state_grid(3), target)
    x0 = np.random.default_rng(7).uniform(0.0, 2.0 * np.pi, size=4 * n_steps)
    return (lambda x: _least_squares(x, *moments, None)), x0


# a reachable target, and one (a pure state at N = 3) whose floor is far above tol
PROBLEMS = {"rosenbrock": lambda: (rosenbrock, np.array([-1.2, 1.0])),
            "n4": lambda: grid_objective(4, (0.4, 0.6)),
            "pure floor": lambda: grid_objective(3, (1.0, 0.0))}


class TestMinimize:
    @pytest.mark.parametrize("problem", PROBLEMS)
    def test_every_taken_step_meets_the_acceptance_ratio(self, problem, monkeypatch):
        # each taken step calls the secant update once, with the correction its model used
        fun, x0 = PROBLEMS[problem]()
        taken = []

        def recording(secant, step, y, gauss_newton):
            updated = update(secant, step, y, gauss_newton)
            taken.append((secant, step, y, gauss_newton, updated))
            return updated

        update = optimize._secant_update
        monkeypatch.setattr(optimize, "_secant_update", recording)
        x, record = minimize(fun, x0, OptimizerSettings(seed=0, max_iter=1000, tol=1e-7))
        assert record.termination == ("no progress" if problem == "pure floor" else "tol")
        assert len(taken) == record.iterations > 5
        point = np.array(x0, dtype=float)
        for secant, step, y, gauss_newton, updated in taken:
            half_square, grad, model = fun(point)
            predicted = -(grad @ step + 0.5 * step @ (model + secant) @ step)
            point = point + step
            new_half_square, new_grad, new_model = fun(point)
            assert predicted > 0.0
            assert half_square - new_half_square > ACCEPT_RATIO * predicted
            assert np.array_equal(y, new_grad - grad) and np.array_equal(gauss_newton, new_model)
            assert np.array_equal(updated, updated.T)
            if step @ y > 0.0:  # the secant equation (H_+ + S_+) s = y
                gap = np.linalg.norm((gauss_newton + updated) @ step - y)
                assert gap <= 1e-8 * (np.linalg.norm(y) + np.linalg.norm(gauss_newton @ step))
            else:
                assert updated is secant
        assert point.tobytes() == x.tobytes()
        assert record.final_value == np.sqrt(2.0 * fun(x)[0])
        assert record.gradient_norm == np.linalg.norm(fun(x)[1])

    def test_secant_correction_carries_the_large_residual(self, monkeypatch):
        # without the correction the damped Gauss-Newton step crawls on the pure floor
        fun, x0 = PROBLEMS["pure floor"]()
        settings = OptimizerSettings(seed=0, max_iter=1000, tol=1e-7)
        with_secant = minimize(fun, x0, settings)[1]
        monkeypatch.setattr(optimize, "_secant_update", lambda secant, *rest: secant)
        without = minimize(fun, x0, settings)[1]
        assert with_secant.termination == "no progress"
        assert with_secant.final_value <= without.final_value * (1.0 + 1e-9)
        assert 3 * with_secant.iterations < without.iterations

    @pytest.mark.parametrize("problem", PROBLEMS)
    def test_two_runs_are_bit_identical(self, problem):
        fun, x0 = PROBLEMS[problem]()
        settings = OptimizerSettings(seed=0, max_iter=60, tol=1e-12)
        (xa, a), (xb, b) = minimize(fun, x0, settings), minimize(fun, x0, settings)
        assert xa.tobytes() == xb.tobytes()
        assert a == b

    def test_rosenbrock_reaches_its_zero_residual(self):
        x, record = minimize(rosenbrock, np.array([-1.2, 1.0]),
                             OptimizerSettings(seed=0, max_iter=100, tol=1e-12))
        assert record.termination == "tol" and record.iterations < 30
        assert np.abs(x - 1.0).max() < 1e-11

    def test_each_termination_is_reached(self):
        n4, start = PROBLEMS["n4"]()
        cases = {"tol": (n4, start, 400), "maxiter": (n4, start, 2),
                 # r = (1, x): at its stationary start the value 1 stays above tol
                 "stationary": (lambda x: (0.5 * (1.0 + x @ x), x, np.eye(2)), np.zeros(2), 5),
                 # a gradient of the wrong sign: every step climbs and is refused
                 "no progress": (lambda x: (0.5 * x @ x, -x, np.eye(2)), np.ones(2), 5),
                 "no free angles": (lambda x: (0.5, np.zeros(0), np.zeros((0, 0))),
                                    np.zeros(0), 5)}
        for name, (fun, x0, max_iter) in cases.items():
            x, record = minimize(fun, x0, OptimizerSettings(seed=0, max_iter=max_iter, tol=1e-7))
            assert record.termination == name
            if name == "maxiter":
                assert record.iterations == max_iter
            if name not in ("tol", "maxiter"):
                assert record.iterations == 0 and np.array_equal(x, x0)
            if name == "no progress":
                # lam = 1e-3 * 2^(k (k + 1) / 2) after k refusals first exceeds 1e16 at k = 11
                assert MAX_DAMPING == 1e16 and record.function_evals == 12
            if name in ("stationary", "no free angles"):
                assert record.function_evals == 1


class TestUnreachableFloors:
    @pytest.mark.parametrize("n_steps, floor", [(2, 0.3692576350), (3, 0.1844541034)])
    def test_pure_target_floor(self, n_steps, floor):
        # the bundled search's floors (seed 7, grid 5) for a pure target, as the earlier
        # L-BFGS search found them: the secant correction must reach the same minima
        cfg = load_config(bundled_config_path())
        target = TargetState(weights=(1.0, 0.0), psi1=cfg.target.psi1, psi2=cfg.target.psi2)
        result = optimize_sequence(n_steps, target, initial_state_grid(cfg.grid_resolution),
                                   cfg.optimizer)
        assert not result.converged
        assert result.objective_value == pytest.approx(floor, rel=1e-6)


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

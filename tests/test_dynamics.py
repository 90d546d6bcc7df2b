"""Master-equation integration, duration selection, and map certification."""

from dataclasses import replace
from pathlib import Path

import csv
import json
import re
import time
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from darkpulse import (DensityOperator, Envelope, FieldParams, IntegratorSettings,
                       PositivityViolation, Rates, StepSizeUnderflow,
                       TraceMismatch, TraceViolation, Trajectory, UnstableSpectrum,
                       build_liouvillian, dark_basis, hs_distance, integrate_master,
                       recommended_duration, pure_state_dyads, relax_closed, run_sequence,
                       slowest_rate, verify_map)
import darkpulse.dynamics as dynamics
from darkpulse.dynamics import (_BACK, _BLOCK, MIN_SNAPSHOTS, _TO, _expm, _floor, _hermitian,
                                _monitor, _snapshots, _step, _symmetrized, _trajectory,
                                write_trajectory_csv)
from conftest import (hermitian_with_min_eigenvalue, random_density, random_field,
                      random_pure_ground, trajectory_states)

STORED_SEQUENCE = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "sequence.json"


def excited_state() -> np.ndarray:
    """The excited state as a one-state (1, 4, 4) stack."""
    m = np.zeros((1, 4, 4), dtype=complex)
    m[0, 3, 3] = 1.0
    return m


def stack(*states: np.ndarray) -> np.ndarray:
    return np.stack(states)


def tols(residual: float, **kwargs) -> IntegratorSettings:
    """The integrator settings at ``residual``, defaults elsewhere unless given."""
    return IntegratorSettings(residual=residual, **kwargs)


def ground_frame(fp: FieldParams) -> np.ndarray:
    """Columns ``n1, n2, e^{i xi} b`` of one field's basis, the key table's ground frame."""
    basis = dark_basis(fp)
    return np.column_stack([basis.n1, basis.n2, np.exp(1j * fp.xi) * basis.phi_perp])


def augmented(liou) -> np.ndarray:
    """The augmented generator ``A = [[m, d], [0, 0]]`` of a constant pulse."""
    a = np.zeros((17, 17), dtype=complex)
    a[:16, :16] = liou.m
    a[:16, 16] = liou.d
    return a


def expm_snapshots(states: np.ndarray, liou, t_final: float) -> np.ndarray:
    """The (S, 65, 4, 4) snapshots of a square pulse from ``scipy.linalg.expm``, the oracle.

    Snapshot ``k`` of each state is rows 0..15 of ``expm(t_k A)`` applied to ``[rho; 1]``.
    """
    y0 = np.ones((17, len(states)), dtype=complex)
    y0[:16] = states.reshape(-1, 16).T
    out = [scipy.linalg.expm(t * augmented(liou))[:16] @ y0
           for t in np.linspace(0.0, t_final, MIN_SNAPSHOTS)]
    return np.stack(out).transpose(2, 0, 1).reshape(len(states), MIN_SNAPSHOTS, 4, 4)


def exact_trajectory(states: np.ndarray, fp, rates, t_final: float) -> Trajectory:
    """A square pulse's trajectory from its own exponential step, as run_sequence makes it."""
    liou = build_liouvillian(fp, rates)
    return _trajectory(np.linspace(0.0, t_final, MIN_SNAPSHOTS),
                       _snapshots(_step(liou, t_final), states), IntegratorSettings().atol,
                       "exact", 0, dark_basis(fp))


class TestIntegrateMaster:
    def test_pure_decay_closed_form(self):
        # with the drive off the excited population is exp(-gamma t)
        fp = FieldParams(theta=0.5, phi=0.5, mu_minus=0.0, mu_plus=0.0,
                         omega_peak=1e-30)
        traj = integrate_master(excited_state(), fp, Rates.alpha(1.0), 5.0)
        for t, state in zip(traj.times, traj.states[0]):
            assert state[3, 3].real == pytest.approx(np.exp(-t), rel=1e-8, abs=1e-12)

    def test_trace_conserved_in_alpha_mode(self, rng):
        fp = random_field(rng)
        fp = FieldParams(theta=fp.theta, phi=fp.phi, mu_minus=fp.mu_minus,
                         mu_plus=fp.mu_plus, omega_peak=1.0)
        traj = integrate_master(stack(random_density(rng)), fp, Rates.alpha(), 20.0)
        for state in traj.states[0]:
            assert np.trace(state).real == pytest.approx(1.0, abs=1e-9)

    def test_long_square_pulse_reaches_closed_map(self, rng):
        # unit drive and unit decay, as in the reference scenario
        fp = random_field(rng, omega_peak=1.0, delta=0.0)
        rho0 = pure_state_dyads(random_pure_ground(rng))
        liou = build_liouvillian(fp, Rates.alpha(1.0))
        t_final = recommended_duration(slowest_rate(liou), 1e-8)
        run_fp = FieldParams(theta=fp.theta, phi=fp.phi, mu_minus=fp.mu_minus,
                             mu_plus=fp.mu_plus, omega_peak=1.0)
        traj = integrate_master(stack(rho0), run_fp, Rates.alpha(1.0), t_final)
        mapped = relax_closed(rho0, dark_basis(fp).projector)
        assert hs_distance(traj.states[0, -1], mapped) < 1e-6

    def test_snapshot_count_and_times(self, rng):
        fp = random_field(rng)
        traj = integrate_master(stack(random_density(rng)), fp, Rates.alpha(), 3.0)
        assert traj.states.shape == (1, 65, 4, 4)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(3.0)
        assert np.all(np.diff(traj.times) > 0)
        assert not traj.times.flags.writeable

    def test_sine_squared_envelope_converges_to_same_map(self, rng):
        # the asymptotic map is envelope independent; a ramped pulse of twice
        # the duration still lands on the dark-projected state
        fp = random_field(rng, omega_peak=1.0, delta=0.0)
        liou = build_liouvillian(fp, Rates.alpha())
        t_final = 2.0 * recommended_duration(slowest_rate(liou), 1e-8)
        ramped = FieldParams(theta=fp.theta, phi=fp.phi, mu_minus=fp.mu_minus,
                             mu_plus=fp.mu_plus, omega_peak=1.0,
                             envelope=Envelope.SINE_SQUARED)
        rho0 = pure_state_dyads(random_pure_ground(rng))
        traj = integrate_master(stack(rho0), ramped, Rates.alpha(), t_final)
        mapped = relax_closed(rho0, dark_basis(fp).projector)
        assert hs_distance(traj.states[0, -1], mapped) < 1e-5

    def test_convergence_order_under_rtol_halving(self, rng):
        fp = random_field(rng, omega_peak=1.0, delta=0.0)
        fp = FieldParams(theta=fp.theta, phi=fp.phi, mu_minus=fp.mu_minus,
                         mu_plus=fp.mu_plus, omega_peak=1.0)
        rho0 = stack(random_density(rng))
        reference = integrate_master(rho0, fp, Rates.alpha(), 8.0,
                                     IntegratorSettings(rtol=1e-12, atol=1e-14)).states[0, -1]
        errors = []
        for rtol in (1e-4, 5e-5, 2.5e-5, 1.25e-5):
            final = integrate_master(rho0, fp, Rates.alpha(), 8.0,
                                     IntegratorSettings(rtol=rtol, atol=1e-14)).states[0, -1]
            errors.append(np.linalg.norm(final - reference))
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_dark_weight_monotone_for_square_pulses(self, rng):
        for rates in (Rates.alpha(), Rates.beta()):
            fp = random_field(rng, omega_peak=1.0, delta=0.0)
            fp = FieldParams(theta=fp.theta, phi=fp.phi, mu_minus=fp.mu_minus,
                             mu_plus=fp.mu_plus, omega_peak=1.0)
            basis = dark_basis(fp)
            traj = integrate_master(stack(random_density(rng)), fp, rates, 30.0)
            p = basis.projector
            weights = np.array([np.trace(p @ s @ p).real for s in traj.states[0]])
            assert np.diff(weights).min() > -1e-6

    def test_invalid_arguments_rejected(self, rng):
        fp = random_field(rng)
        rho = stack(random_density(rng))
        with pytest.raises(ValueError):
            integrate_master(rho, fp, Rates.alpha(), -1.0)
        with pytest.raises(ValueError):
            integrate_master(rho, fp, Rates.alpha(), 1.0, IntegratorSettings(rtol=0.0))

    def test_rejects_a_malformed_or_invalid_stack(self, rng):
        # the stack check verify_map makes, before any solve
        fp = random_field(rng)
        for bad, fault in malformed_or_invalid_stacks(rng):
            with pytest.raises(ValueError, match=fault):
                integrate_master(bad, fp, Rates.alpha(), 1.0)


def malformed_or_invalid_stacks(rng) -> list:
    """Inputs that are not an (S, 4, 4) stack of density matrices, each with its error."""
    good = stack(random_density(rng), random_density(rng))
    not_psd = good.copy()
    not_psd[1] = np.diag([1.1, -0.1, 0.0, 0.0])
    shape = r"\(S, 4, 4\) stack"
    return [(good[0], shape), (good[:, :3], shape), ([DensityOperator(m) for m in good], shape),
            (good + np.triu(np.ones((4, 4)), 1), "not Hermitian"),
            (not_psd, "not positive semidefinite"), (1.5 * good, "trace")]


class TestExactPropagator:
    """The exact propagator of a square pulse: its exponential step's powers."""

    def test_pure_decay_closed_form(self):
        # the exact counterpart of TestIntegrateMaster.test_pure_decay_closed_form
        fp = FieldParams(theta=0.5, phi=0.5, mu_minus=0.0, mu_plus=0.0,
                         omega_peak=1e-30)
        traj = exact_trajectory(excited_state(), fp, Rates.alpha(1.0), 5.0)
        assert traj.states.shape == (1, 65, 4, 4)
        for t, state in zip(traj.times, traj.states[0]):
            assert state[3, 3].real == pytest.approx(np.exp(-t), rel=1e-8, abs=1e-12)

    @pytest.mark.parametrize("rates", [Rates.alpha(1.0), Rates.beta(1.0, 1.0, 1.0)],
                             ids=["alpha", "beta"])
    def test_matches_rk45_endpoint(self, rng, rates):
        # RK45 is the independent witness of the exact path: the endpoints
        # agree to the integrator's rtol at the residual-1e-10 duration
        for _ in range(8):
            fp = random_field(rng, omega_peak=1.0)
            rho0 = stack(pure_state_dyads(random_pure_ground(rng)))
            t_final = recommended_duration(slowest_rate(build_liouvillian(fp, rates)), 1e-10)
            exact = exact_trajectory(rho0, fp, rates, t_final)
            rk45 = integrate_master(rho0, fp, rates, t_final)
            assert np.array_equal(exact.times, rk45.times)
            assert hs_distance(exact.states[0, -1], rk45.states[0, -1]) < IntegratorSettings().rtol

    @pytest.mark.parametrize("residual", [1e-6, 1e-10])
    @pytest.mark.parametrize("rates", [Rates.alpha(1.0), Rates.beta(1.0, 1.0, 1.0)],
                             ids=["alpha", "beta"])
    def test_residual_rule_holds_at_exact_endpoint(self, rng, rates, residual):
        # driving for ln(1/residual)/gap leaves the state about `residual` from
        # the map; the exact endpoint carries no integrator error to hide it
        for _ in range(20):
            fp = random_field(rng, omega_peak=1.0)
            rho0 = pure_state_dyads(random_pure_ground(rng))
            traj, = run_sequence(stack(rho0), [fp], rates, tols(residual))
            mapped = relax_closed(rho0, dark_basis(fp).projector)
            assert hs_distance(traj.states[0, -1], mapped) < 2.0 * residual


def one_norm(a: np.ndarray) -> float:
    return float(np.abs(a).sum(axis=0).max())


# Entrywise bound on |_expm(a) - scipy.linalg.expm(a)| per unit of max(1, ||a||_1):
# two independent Pade codes differ by rounding, up to 2 eps in the O(1) entries
# of these tests, while a wrong coefficient or theta_13 gives errors above 1e-13
EXPM_BOUND = 10 * np.finfo(float).eps


class TestPadeExpm:
    """The numpy exponential against ``scipy.linalg.expm``, the oracle."""

    @pytest.mark.parametrize("norm", [0.01, 0.2, 0.9, 2.0, 5.0, 50.0, 1e4])
    def test_matches_scipy_on_random_matrices(self, rng, norm):
        # i H - D with D >= 0 keeps ||exp(a)||_2 <= 1, so an absolute bound means
        # something at every norm; D stays O(1) so exp(a) does not vanish.  The
        # norms take 0, 4 and 11 squarings
        for _ in range(10):
            h = rng.normal(size=(17, 17)) + 1j * rng.normal(size=(17, 17))
            k = rng.normal(size=(17, 17)) + 1j * rng.normal(size=(17, 17))
            h, d = h + h.conj().T, k @ k.conj().T
            a = 1j * norm * h / one_norm(h) - 0.5 * min(norm, 1.0) * d / one_norm(d)
            a *= norm / one_norm(a)
            error = np.abs(_expm(a) - scipy.linalg.expm(a)).max()
            assert error <= EXPM_BOUND * max(1.0, norm)

    @pytest.mark.parametrize("omega", [1e-2, 1.0, 1e2, 1e4])
    @pytest.mark.parametrize("rates", [Rates.alpha(1.0), Rates.beta(1.0, 1.0, 1.0)],
                             ids=["alpha", "beta"])
    def test_matches_scipy_on_pulse_steps(self, rng, rates, omega):
        # the augmented step matrix of a square pulse at the residual-1e-10 duration
        for _ in range(4):
            liou = build_liouvillian(random_field(rng, omega_peak=omega), rates)
            a = augmented(liou)
            a *= recommended_duration(slowest_rate(liou), 1e-10) / (MIN_SNAPSHOTS - 1)
            error = np.abs(_expm(a) - scipy.linalg.expm(a)).max()
            assert error <= EXPM_BOUND * max(1.0, one_norm(a))

    @pytest.mark.parametrize("rates", [Rates.alpha(1.0), Rates.beta(1.0, 1.0, 1.0)],
                             ids=["alpha", "beta"])
    def test_square_snapshot_stack_is_rows_of_scipy_powers(self, rng, rates):
        # snapshot propagator k is rows 0..15 of expm(k dt A): the identity rows
        # exactly at k = 0, and the product of k steps within 1e-12 (at most 5.3e-13
        # over 100 random fields)
        for _ in range(4):
            liou = build_liouvillian(random_field(rng, omega_peak=1.0), rates)
            t_final = recommended_duration(slowest_rate(liou), 1e-10)
            stack = _step(liou, t_final)
            assert stack.shape == (MIN_SNAPSHOTS, 16, 17)
            assert np.array_equal(stack[0], np.eye(16, 17))
            for k in (1, 32, 64):
                expected = scipy.linalg.expm(k * t_final / (MIN_SNAPSHOTS - 1) * augmented(liou))
                assert np.abs(stack[k] - expected[:16]).max() <= 1e-12

    def test_rejects_non_finite_matrix(self):
        with pytest.raises(ValueError, match="non-finite"):
            _expm(np.full((3, 3), np.nan))


def split(liou) -> np.ndarray:
    """``liou``'s generator at envelope 0 and its drive part, as ``solve_ivp`` takes them."""
    m0 = build_liouvillian(liou.field, liou.rates, 0.0).m
    return np.stack([m0, liou.m - m0])


def scipy_rk45(generators: np.ndarray, envelope, times: np.ndarray, y0: np.ndarray,
               feed: np.ndarray, settings: IntegratorSettings):
    """Scipy's ``solve_ivp(method="RK45")`` on the system of ``dynamics.solve_ivp``, the oracle.

    Its right-hand side reads the package's own envelope at each time, so both
    integrators step through the same function.  Returns the (len(times), 16, n)
    snapshots and the number of right-hand-side evaluations.
    """
    t_final = times[-1]
    m0, m_drive = generators

    def rhs(t, y):
        value = envelope.value_at(np.array([t]), t_final)[0]
        return ((m0 + value * m_drive) @ y.reshape(y0.shape) + feed).ravel()

    sol = scipy.integrate.solve_ivp(rhs, (0.0, t_final), y0.ravel(), method="RK45",
                                    rtol=settings.rtol, atol=settings.atol, t_eval=times)
    assert sol.success
    return sol.y.reshape(*y0.shape, -1).transpose(2, 0, 1), sol.nfev


class TestDormandPrince:
    """The package's RK45 against scipy's, the oracle: the same steps, so the same ``nfev``."""

    @pytest.mark.parametrize("omega", [0.3, 1.0, 10.0])
    @pytest.mark.parametrize("rates", [Rates.alpha(1.0), Rates.beta(1.0, 1.0, 1.0)],
                             ids=["alpha", "beta"])
    @pytest.mark.parametrize("envelope", list(Envelope), ids=lambda e: e.value)
    def test_matches_scipy_step_for_step(self, rng, envelope, rates, omega):
        # two states and the repump feed at the default tolerances over 100 decay times.
        # Scipy releases without the interval-aware initial step (1.11 among them) skip
        # the clamp h0 <= t_final, which is inactive while 0.01 d0 / d1 < t_final, as
        # asserted here; the two rules then agree, so nfev is pinned on every release
        # The same system runs in the vec coordinates (complex) and in the Hermitian
        # coordinates (real), each in its own dtype
        settings = IntegratorSettings()
        liou = build_liouvillian(random_field(rng, omega_peak=omega, envelope=envelope), rates)
        times = np.linspace(0.0, 100.0, MIN_SNAPSHOTS)
        y0 = np.stack([random_density(rng).ravel() for _ in range(2)], axis=1)
        real, real_feed = _hermitian(liou)
        for generators, y, feed in [(split(liou), y0, liou.d[:, None]),
                                    (real, (_TO @ y0).real, real_feed[:, None])]:
            at_start = generators[0] + envelope.value_at(np.zeros(1), 1.0)[0] * generators[1]
            scale = settings.atol + np.abs(y) * settings.rtol
            d0, d1 = (np.linalg.norm(z / scale) for z in (y, at_start @ y + feed))
            assert 0.01 * d0 / d1 < times[-1]
            own = dynamics.solve_ivp(generators, envelope, times, y, feed, settings)
            oracle, nfev = scipy_rk45(generators, envelope, times, y, feed, settings)
            assert own.y.shape == (MIN_SNAPSHOTS, 16, 2) and own.y.dtype == y.dtype
            assert own.nfev == nfev
            assert np.abs(own.y - oracle).max() <= 1e-12

    def test_matches_scipy_on_a_key_solve(self):
        # the production solve: a sine-squared key's 17 columns [Phi | c] from [1 | 0] over
        # its whole recommended duration, for sine_export's first key (beta 1/1/1, Omega 1,
        # T = 805.2).  Measured: 9680 evaluations on both sides, worst difference 3.5e-18
        step = json.loads(STORED_SEQUENCE.read_text())["sequence"]["steps"][0]
        fp = FieldParams(step["theta"], step["phi"], step["mu_minus"], step["mu_plus"],
                         xi=step["xi"], omega_peak=1.0, envelope=Envelope.SINE_SQUARED)
        settings = IntegratorSettings()
        _, (key,), _ = dynamics._key_table([fp], Rates.beta(1.0, 1.0, 1.0), settings)
        assert key.name == "rk45" and abs(key.times[-1] - 805.2) < 0.1
        generators, feed = _hermitian(key.liou)
        y0, feed = np.eye(16, 17), np.column_stack([np.zeros((16, 16)), feed])
        scale = settings.atol + np.abs(y0) * settings.rtol
        d0, d1 = (np.linalg.norm(z / scale) for z in (y0, generators[0] @ y0 + feed))
        assert 0.01 * d0 / d1 < key.times[-1]  # as in the grid above
        oracle, nfev = scipy_rk45(generators, Envelope.SINE_SQUARED, key.times, y0, feed,
                                  settings)
        assert key.nfev == nfev
        assert np.abs(key.propagator - oracle).max() <= 1e-12

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("envelope", list(Envelope), ids=lambda e: e.value)
    def test_non_finite_generator_raises_at_once(self, rng, envelope, value):
        # a non-finite derivative gives a non-finite error norm, which raises instead of
        # shrinking the step forever (scipy's RK45 loops on a nan step size)
        liou = build_liouvillian(random_field(rng, envelope=envelope), Rates.beta())
        generators = split(liou)
        generators[1, 3, 5] = value
        started = time.perf_counter()
        with pytest.raises(StepSizeUnderflow, match=r"^RK45 at t=0: error norm nan is not "
                                                    r"finite \(a non-finite derivative\)$"):
            dynamics.solve_ivp(generators, envelope, np.linspace(0.0, 50.0, MIN_SNAPSHOTS),
                               np.eye(16, 17, dtype=complex), liou.d[:, None], tols(1e-4))
        assert time.perf_counter() - started < 1.0


class TestHermitianCoordinates:
    """The real coordinates ``r = (rho_ii, Re rho_ij, Im rho_ij)`` that RK45 integrates in."""

    def test_maps_are_exact_inverses(self, rng):
        # the maps hold only 0, 1, 1/2, +-1, +-i and +-i/2, so no product rounds
        assert np.array_equal(_BACK @ _TO, np.eye(16))
        states = np.stack([random_density(rng) for _ in range(20)])
        r = _TO @ states.reshape(-1, 16).T
        assert np.array_equal(r.imag, np.zeros_like(r.imag))
        assert np.array_equal(r.real[:4], states.diagonal(axis1=1, axis2=2).real.T)
        assert np.array_equal(_BACK @ r.real, states.reshape(-1, 16).T)

    @pytest.mark.parametrize("rates", [Rates.alpha(1.0), Rates.beta(1.0, 1.0, 1.0)],
                             ids=["alpha", "beta"])
    def test_generator_and_feed_are_real(self, rng, rates):
        # the generator preserves Hermiticity bit for bit, so the imaginary part that
        # _hermitian discards is exactly 0, at every amplitude and both envelope values
        for omega in np.logspace(-2.0, 3.0, 6):
            fp = random_field(rng, omega_peak=omega, envelope=Envelope.SINE_SQUARED)
            liou = build_liouvillian(fp, rates)
            for value in (0.0, 1.0):
                m = _TO @ build_liouvillian(fp, rates, value).m @ _BACK
                assert np.array_equal(m.imag, np.zeros((16, 16)))
            full = _TO @ split(liou) @ _BACK
            assert not full.imag.any() and not (_TO @ liou.d).imag.any()
            generators, feed = _hermitian(liou)
            assert np.array_equal(generators, full.real)
            assert np.array_equal(feed, (_TO @ liou.d).real)

    @pytest.mark.parametrize("omega", [3.0, 10.0])
    @pytest.mark.parametrize("rates", [Rates.alpha(1.0), Rates.beta(1.0, 1.0, 1.0)],
                             ids=["alpha", "beta"])
    def test_key_propagator_matches_tight_complex_solve(self, rng, rates, omega):
        # a sine-squared key's 65 snapshot propagators, real, from the solve at
        # the default tolerances and mapped back, against the complex solve at rtol 1e-13,
        # atol 1e-16 (measured 6.3e-11 to 2.6e-10; the complex solve at the default
        # tolerances reads 9.7e-11 to 5.4e-10)
        fp = random_field(rng, omega_peak=omega, envelope=Envelope.SINE_SQUARED)
        _, (key,), _ = dynamics._key_table([fp], rates, IntegratorSettings())
        assert key.propagator.shape == (MIN_SNAPSHOTS, 16, 17) and key.propagator.dtype == float
        mapped = _BACK @ key.propagator
        mapped[..., :16] = mapped[..., :16] @ _TO
        feed = np.column_stack([np.zeros((16, 16)), key.liou.d])
        reference = dynamics.solve_ivp(split(key.liou), Envelope.SINE_SQUARED, key.times,
                                       np.eye(16, 17, dtype=complex), feed,
                                       IntegratorSettings(rtol=1e-13, atol=1e-16))
        assert np.abs(mapped - reference.y).max() <= 1e-9


def matched_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Largest distance between two eigenvalue lists, each ``a`` value matched to its own ``b``."""
    unused = list(b)
    gap = 0.0
    for z in a:
        j = int(np.argmin([abs(z - w) for w in unused]))
        gap = max(gap, abs(z - unused.pop(j)))
    return gap


def one_key_steps(rng, envelope, n=3, **overrides):
    """``n`` random pulses that share amplitude, detuning and envelope (one key)."""
    first = random_field(rng, envelope=envelope, **overrides)
    return [first] + [replace(random_field(rng, **overrides), omega_peak=first.omega_peak,
                              delta=first.delta, envelope=envelope) for _ in range(n - 1)]


class TestRunSequence:
    @pytest.mark.parametrize("rates", [Rates.alpha(1.0), Rates.beta(1.0, 1.0, 1.0)],
                             ids=["alpha", "beta"])
    def test_generator_is_ground_rotation_of_canonical(self, rng, rates):
        # W = U kron conj(U) carries the canonical generator (theta = phi = mu = xi = 0)
        # to every field of the same amplitude, detuning and envelope, xi and delta
        # nonzero, theta near 0 and pi included; the spectrum therefore does not move
        thetas = [None] * 6 + [1e-9, 0.0, np.pi - 1e-9, np.pi]
        for theta in thetas:
            fp = random_field(rng) if theta is None else random_field(rng, theta=theta)
            assert fp.xi != 0.0 and fp.delta != 0.0
            canonical = FieldParams(theta=0.0, phi=0.0, mu_minus=0.0, mu_plus=0.0, xi=0.0,
                                    omega_peak=fp.omega_peak, delta=fp.delta)
            u = np.eye(4, dtype=complex)
            u[:3, :3] = ground_frame(fp) @ ground_frame(canonical).conj().T
            assert np.allclose(u.conj().T @ u, np.eye(4), rtol=0.0, atol=1e-15)
            w = np.kron(u, u.conj())
            liou, liou_c = build_liouvillian(fp, rates), build_liouvillian(canonical, rates)
            scale = np.linalg.norm(liou.m)
            assert np.abs(liou.m - w @ liou_c.m @ w.conj().T).max() <= 1e-14 * scale
            assert np.abs(liou.d - w @ liou_c.d).max() <= 1e-14 * scale
            eigenvalues = np.linalg.eigvals(liou.m)
            assert matched_gap(eigenvalues, np.linalg.eigvals(liou_c.m)) <= 1e-12 * scale

    @pytest.mark.parametrize("envelope", [Envelope.SQUARE, Envelope.SINE_SQUARED],
                             ids=["square", "sine_squared"])
    @pytest.mark.parametrize("rates", [Rates.alpha(1.0), Rates.beta(1.0, 1.0, 1.0)],
                             ids=["alpha", "beta"])
    def test_snapshots_match_one_state_witnesses(self, rng, rates, envelope):
        # every pulse, rotated ones included, against the witness run on that
        # pulse's own generator from the same input state for the same duration:
        # scipy's exponential to 1e-12, RK45 to 1e-9 (its tolerance is 1e-9)
        steps = one_key_steps(rng, envelope, omega_peak=1.0)
        inputs = stack(*(random_density(rng) for _ in range(2)))
        bound = 1e-12 if envelope is Envelope.SQUARE else 1e-9
        for fp, traj in zip(steps, run_sequence(inputs, steps, rates, tols(1e-3))):
            t_final = traj.times[-1]
            for s, rho0 in enumerate(inputs):
                if envelope is Envelope.SQUARE:
                    witness = expm_snapshots(rho0[None], build_liouvillian(fp, rates), t_final)
                else:
                    one = integrate_master(rho0[None], fp, rates, t_final)
                    assert np.array_equal(traj.times, one.times)
                    witness = one.states
                assert np.abs(traj.states[s] - witness[0]).max() < bound
            inputs = traj.states[:, -1]

    @pytest.mark.parametrize("envelope", [Envelope.SQUARE, Envelope.SINE_SQUARED],
                             ids=["square", "sine_squared"])
    def test_block_is_bit_identical_to_one_state_runs(self, rng, envelope):
        for rates in (Rates.alpha(), Rates.beta()):
            steps = one_key_steps(rng, envelope, omega_peak=1.0)
            states = stack(*(random_density(rng) for _ in range(3)))
            blocks = run_sequence(states, steps, rates, tols(1e-3))
            for s in range(len(states)):
                for block, single in zip(blocks, run_sequence(
                        states[s:s + 1], steps, rates, tols(1e-3))):
                    assert block.records[s] == single.records[0]
                    assert (block.propagator, block.nfev) == (single.propagator, single.nfev)
                    assert block.states[s].tobytes() == single.states[0].tobytes()

    @pytest.mark.parametrize("envelope", [Envelope.SQUARE, Envelope.SINE_SQUARED],
                             ids=["square", "sine_squared"])
    @pytest.mark.parametrize("rates", [Rates.alpha(1.0), Rates.beta(1.0, 1.0, 1.0)],
                             ids=["alpha", "beta"])
    def test_snapshots_are_linear_in_the_input_states(self, rng, rates, envelope):
        # the dynamics, not only the maps, carry a mixture to the same mixture of the
        # outputs; the three states share one block, and so one solve per key
        for n in (1, 2, 3):
            steps = one_key_steps(rng, envelope, n=n, omega_peak=1.0)
            rho1, rho2, p = random_density(rng), random_density(rng), rng.uniform()
            blocks = run_sequence(stack(rho1, rho2, p * rho1 + (1.0 - p) * rho2), steps,
                                  rates, tols(1e-6))
            assert len(blocks) == n
            for traj in blocks:
                mixed = p * traj.states[0] + (1.0 - p) * traj.states[1]
                assert np.abs(traj.states[2] - mixed).max() <= 1e-12

    @pytest.mark.parametrize("rates", [Rates.alpha(1.0), Rates.beta(1.0, 1.0, 1.0)],
                             ids=["alpha", "beta"])
    def test_square_pulse_is_its_exact_witness(self, rng, rates):
        # a pulse that is its key's reference takes the exact step unrotated, so
        # every state equals its own run through that step's powers, bit for bit
        fp = random_field(rng, omega_peak=1.0)
        t_final = recommended_duration(slowest_rate(build_liouvillian(fp, rates)), 1e-6)
        states = stack(*(random_density(rng) for _ in range(3)))
        traj, = run_sequence(states, [fp], rates, tols(1e-6))
        assert traj.times[-1] == t_final
        for s in range(len(states)):
            direct = exact_trajectory(states[s:s + 1], fp, rates, t_final)
            assert traj.records[s] == direct.records[0]
            assert (traj.propagator, traj.nfev) == (direct.propagator, direct.nfev) == ("exact", 0)
            assert traj.states[s].tobytes() == direct.states[0].tobytes()

    @pytest.mark.parametrize("rates", [Rates.alpha(1.0), Rates.beta(1.0, 1.0, 1.0)],
                             ids=["alpha", "beta"])
    def test_lone_sine_block_matches_one_state_solves(self, rng, rates):
        # a key that occurs once still makes one propagator, which each state applies
        # alone: every state of a 4-state block is its one-state run bit for bit, and
        # agrees with an RK45 solve of its own to the integrator's tolerance
        fp = random_field(rng, omega_peak=1.0, envelope=Envelope.SINE_SQUARED)
        states = stack(*(random_density(rng) for _ in range(4)))
        traj, = run_sequence(states, [fp], rates, tols(1e-6))
        assert len(traj.records) == 4
        assert traj.propagator == "rk45" and traj.nfev > 0  # one solve, for the whole block
        for s in range(len(states)):
            alone, = run_sequence(states[s:s + 1], [fp], rates, tols(1e-6))
            assert (alone.nfev, alone.records[0]) == (traj.nfev, traj.records[s])
            assert alone.states[0].tobytes() == traj.states[s].tobytes()
            single = integrate_master(states[s:s + 1], fp, rates, traj.times[-1])
            assert np.array_equal(traj.times, single.times)
            gap = np.abs(traj.states[s] - single.states[0]).max()
            assert gap < 1e-9

    def test_pulses_of_one_key_share_duration_and_solve(self, rng):
        # two keys interleaved: each key's first pulse sets its duration and
        # makes its one solve; the key's later pulses reuse both
        strong = one_key_steps(rng, Envelope.SINE_SQUARED, n=2, omega_peak=1.0)
        weak = one_key_steps(rng, Envelope.SINE_SQUARED, n=2, omega_peak=0.5)
        steps = [strong[0], weak[0], strong[1], weak[1]]
        blocks = run_sequence(stack(random_density(rng)), steps, Rates.alpha(), tols(1e-3))
        durations = [block.times[-1] for block in blocks]
        expected = [recommended_duration(slowest_rate(build_liouvillian(fp, Rates.alpha())), 1e-3)
                    for fp in steps[:2]]
        assert durations == expected * 2
        assert durations[0] != durations[1]
        nfev = [block.nfev for block in blocks]
        assert nfev[0] > 0 and nfev[1] > 0 and nfev[2:] == [0, 0]
        assert {block.propagator for block in blocks} == {"rk45"}

    def test_key_that_does_not_recur_integrates_its_states(self, rng):
        # a time-dependent key that occurs once makes its propagator as a recurring
        # one does, charged to its pulse, and its states agree with the RK45 witness
        # to the integrator's tolerance (below 1.5e-11 over 10 seeds in both regimes)
        recurring = one_key_steps(rng, Envelope.SINE_SQUARED, n=2, omega_peak=1.0)
        lone = replace(random_field(rng), omega_peak=0.5, envelope=Envelope.SINE_SQUARED)
        blocks = run_sequence(stack(random_density(rng)), [recurring[0], lone, recurring[1]],
                              Rates.beta(), tols(1e-3))
        witness = integrate_master(blocks[0].states[:, -1], lone, Rates.beta(),
                                   blocks[1].times[-1])
        assert blocks[1].propagator == witness.propagator == "rk45"
        assert np.array_equal(blocks[1].times, witness.times)
        assert np.abs(blocks[1].states - witness.states).max() < 1e-9
        assert [block.nfev > 0 for block in blocks] == [True, True, False]

    def test_empty_sequence_and_bad_arguments(self, rng):
        fp = random_field(rng)
        rho = stack(random_density(rng))
        assert run_sequence(rho, [], Rates.alpha(), tols(1e-6)) == ()
        with pytest.raises(ValueError):
            run_sequence(rho, [fp], Rates.alpha(), tols(1e-6, atol=0.0))
        with pytest.raises(ValueError):
            run_sequence(rho, [fp], Rates.alpha(), tols(1.0))

    def test_rejects_a_malformed_or_invalid_stack(self, rng):
        # the stack check verify_map makes, before any propagator is made
        fp = random_field(rng)
        for bad, fault in malformed_or_invalid_stacks(rng):
            with pytest.raises(ValueError, match=fault):
                run_sequence(bad, [fp], Rates.alpha(), tols(1e-6))


class TestSnapshotValidation:
    def test_record_matches_per_snapshot_values(self, rng):
        # per-snapshot loop as the oracle for the stacked eigenvalue and trace pass
        fp = random_field(rng, omega_peak=1.0)
        states = stack(random_density(rng), random_density(rng))
        for traj in (integrate_master(states, fp, Rates.beta(), 6.0),
                     exact_trajectory(states, fp, Rates.beta(), 6.0)):
            for snapshots, record in zip(traj.states, traj.records):
                min_eig = min(np.linalg.eigvalsh(s).min() for s in snapshots)
                trace_error = max(abs(np.trace(s).real - 1.0) for s in snapshots)
                assert record.min_eigenvalue == pytest.approx(min_eig, abs=1e-15)
                assert record.max_trace_error == pytest.approx(trace_error, abs=1e-15)
                assert record.max_trace_error > 1e-3  # beta loses trace while driven

    def test_positivity_violation_names_first_offending_time(self, rng):
        times = np.linspace(0.0, 2.0, 5)
        snaps = np.stack([random_density(rng) for _ in range(5)])
        for k, eig in ((2, -1e-8), (4, -1e-6)):
            snaps[k] = np.diag([1.0 - eig, eig, 0.0, 0.0])
        basis = dark_basis(random_field(rng))
        with pytest.raises(PositivityViolation, match=r"t=1 has eigenvalue -1\.000e-08"):
            _trajectory(times, snaps.reshape(1, 5, 16), 1e-12, "exact", 0, basis)
        # a floor below both excursions accepts the same snapshots
        traj = _trajectory(times, snaps.reshape(1, 5, 16), 1e-7, "exact", 0, basis)
        assert traj.records[0].min_eigenvalue == pytest.approx(-1e-6)


    def test_block_violation_names_state_and_first_time(self, rng):
        times = np.linspace(0.0, 2.0, 5)
        snaps = np.stack([random_density(rng) for _ in range(15)]).reshape(3, 5, 4, 4)
        snaps[1, 3] = np.diag([1.0 + 1e-6, -1e-6, 0.0, 0.0])
        snaps[2, 1] = np.diag([1.0 + 1e-8, -1e-8, 0.0, 0.0])
        basis = dark_basis(random_field(rng))
        with pytest.raises(PositivityViolation,
                           match=r"^state 2: snapshot at t=0\.5 has eigenvalue -1\.000e-08"):
            _trajectory(times, snaps.reshape(3, 5, 16), 1e-12, "exact", 0, basis)
        records = _trajectory(times, snaps.reshape(3, 5, 16), 1e-7, "exact", 0, basis).records
        assert [r.min_eigenvalue for r in records][1:] == pytest.approx([-1e-6, -1e-8])

    def test_one_eigvalsh_decides_positivity(self, rng, monkeypatch):
        # the monitor's eigenvalues serve the stack's PSD check as well
        times = np.linspace(0.0, 1.0, 5)
        snaps = np.stack([random_density(rng) for _ in range(10)]).reshape(2, 5, 16)
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a):
            calls.append(a.shape)
            return eigvalsh(a)

        basis = dark_basis(random_field(rng))
        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        _trajectory(times, snaps, 1e-12, "rk45", 7, basis)
        assert calls == [(2, 5, 4, 4)]
        # a stack that is not PSD still fails, through the monitor
        snaps[1, 2] = np.diag([1.0 + 1e-6, -1e-6, 0.0, 0.0]).reshape(16)
        with pytest.raises(PositivityViolation, match=r"^state 1: snapshot at t=0\.5"):
            _trajectory(times, snaps, 1e-12, "rk45", 7, basis)

    @pytest.mark.parametrize("envelope", [Envelope.SQUARE, Envelope.SINE_SQUARED],
                             ids=["exact", "rk45"])
    def test_states_are_a_readonly_contiguous_copy(self, rng, monkeypatch, envelope):
        # capture the snapshot block each path hands to _trajectory
        blocks = []

        def capturing(times, snapshots, *args):
            blocks.append(snapshots)
            return _trajectory(times, snapshots, *args)

        monkeypatch.setattr("darkpulse.dynamics._trajectory", capturing)
        fp = random_field(rng, omega_peak=1.0, envelope=envelope)
        traj, = run_sequence(stack(*(random_density(rng) for _ in range(3))), [fp],
                             Rates.beta(), tols(1e-6))
        block, = blocks
        assert traj.states.shape == (3, 65, 4, 4)
        assert not traj.states.flags.writeable
        assert not traj.times.flags.writeable  # the key table's times, made read-only
        assert traj.states.flags.c_contiguous
        assert not np.shares_memory(traj.states, block)
        assert np.array_equal(traj.basis.projector, dark_basis(fp).projector)

    def test_trace_above_slack_raises_trace_violation(self, rng):
        # an integrator error naming the state and the first time, like the
        # positivity monitor, not the constructor's ValueError
        times = np.linspace(0.0, 1.0, 5)
        snaps = np.stack([random_density(rng) for _ in range(10)]).reshape(2, 5, 4, 4)
        snaps[1, 3] *= 1.0 + 1e-9  # above 1 + 100 * atol at atol 1e-12
        snaps[1, 4] *= 1.0 + 1e-6
        with pytest.raises(TraceViolation, match=r"^state 1: snapshot at t=0\.75 has trace "
                                                 r"1\.000000001 outside \(0, 1 \+ 1\.000e-10\]"):
            _monitor(times, *_symmetrized(snaps)[1:], 1e-12)
        snaps[1, 4] /= 1.0 + 1e-6
        _monitor(times, *_symmetrized(snaps)[1:], 1e-10)
        snaps[0, 2] = 0.0  # positive semidefinite, but a trace of 0 is outside too
        with pytest.raises(TraceViolation, match=r"^state 0: snapshot at t=0\.5 has trace 0\.0 "):
            _monitor(times, *_symmetrized(snaps)[1:], 1e-10)

    def test_rows_of_times_name_each_state_by_its_own_time(self, rng):
        # a batch whose cases run for different durations gives each state its own
        # row of times; an excursion names the state's index and its own time
        times = np.stack([np.linspace(0.0, 2.0, 5), np.linspace(0.0, 4.0, 5)])
        snaps = np.stack([random_density(rng) for _ in range(10)]).reshape(2, 5, 4, 4)
        snaps[1, 3] = np.diag([1.0 + 1e-6, -1e-6, 0.0, 0.0])
        with pytest.raises(PositivityViolation, match=r"^state 1: snapshot at t=3 has eigenvalue"):
            _monitor(times, *_symmetrized(snaps)[1:], 1e-12)
        snaps[1, 3] = random_density(rng) * (1.0 + 1e-6)
        with pytest.raises(TraceViolation, match=r"^state 1: snapshot at t=3 has trace"):
            _monitor(times, *_symmetrized(snaps)[1:], 1e-12)
        # both excursions lie within the floor and slack of a looser atol
        _monitor(times, *_symmetrized(snaps)[1:], 1e-7)


class TestRecommendedDuration:
    def test_inverse_rate_at_e_residual(self, rng):
        liou = build_liouvillian(random_field(rng), Rates.alpha())
        duration = recommended_duration(slowest_rate(liou), np.exp(-1.0))
        assert duration == pytest.approx(1.0 / slowest_rate(liou), rel=1e-12)

    def test_log_scaling(self, rng):
        liou = build_liouvillian(random_field(rng), Rates.alpha())
        duration = recommended_duration(slowest_rate(liou), 1e-12)
        assert duration == pytest.approx(np.log(1e12) / slowest_rate(liou), rel=1e-12)
        assert duration == pytest.approx(27.631 / slowest_rate(liou), rel=1e-3)

    def test_certifies_map_at_tight_residual(self, rng):
        # 20 random initial states, unit drive and decay, residual 1e-10
        fp = random_field(rng, omega_peak=1.0, delta=0.0)
        states = np.stack([pure_state_dyads(random_pure_ground(rng))
                           for _ in range(20)])
        assert verify_map(states, [fp] * 20, Rates.alpha(1.0), tols(1e-10)).distances.max() < 1e-8

    def test_rejects_bad_residual(self, rng):
        liou = build_liouvillian(random_field(rng), Rates.alpha())
        for bad in (0.0, 1.0, 2.0, -0.1):
            with pytest.raises(ValueError):
                recommended_duration(slowest_rate(liou), bad)

    def test_non_finite_duration_is_an_unstable_spectrum(self):
        # a subnormal rate overflows ln(1/residual)/rate; no RuntimeWarning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnstableSpectrum, match="slowest rate 6.4e-312"):
                recommended_duration(np.float64(6.4e-312), 1e-10)


class TestRateRatioSweep:
    def test_beta_convergence_speed_recorded_over_rate_ratios(self, rng):
        # the ratios of the three rates move the spectral gap; only positivity
        # and finiteness are asserted, the trend itself is recorded
        fp = random_field(rng, omega_peak=1.0, delta=0.0)
        table = []
        for gamma_ext in (0.5, 1.0, 2.0):
            for r_pump in (0.5, 1.0, 2.0):
                rate = slowest_rate(build_liouvillian(fp, Rates.beta(1.0, gamma_ext, r_pump)))
                assert np.isfinite(rate) and rate > 0.0
                table.append((gamma_ext, r_pump, rate))
        print("  slowest rate vs (gamma_ext, r_pump):")
        for gamma_ext, r_pump, rate in table:
            print(f"    ({gamma_ext:.1f}, {r_pump:.1f}) -> {rate:.6f}")


class TestVerifyMap:
    def test_dark_input_does_not_evolve(self, rng):
        fp = random_field(rng, omega_peak=1.0)
        rho0 = pure_state_dyads(dark_basis(fp).n1)[None]
        assert verify_map(rho0, [fp], Rates.alpha(), tols(1e-6)).distances[0] < 10 * 1e-12

    def test_alpha_certification(self, rng):
        fp = random_field(rng, omega_peak=1.0, delta=0.0)
        rho0 = pure_state_dyads(random_pure_ground(rng))[None]
        assert verify_map(rho0, [fp], Rates.alpha(1.0), tols(1e-10)).distances[0] < 1e-6

    def test_beta_certification_all_rates_unity(self, rng):
        fp = random_field(rng, omega_peak=1.0, delta=0.0)
        rho0 = pure_state_dyads(random_pure_ground(rng))[None]
        assert verify_map(rho0, [fp], Rates.beta(1.0, 1.0, 1.0),
                          tols(1e-10)).distances[0] < 1e-6

    @pytest.mark.parametrize("envelope", [Envelope.SQUARE, Envelope.SINE_SQUARED],
                             ids=["square", "sine_squared"])
    @pytest.mark.parametrize("rates", [Rates.alpha(1.0), Rates.beta(1.0, 1.0, 1.0)],
                             ids=["alpha", "beta"])
    def test_batch_matches_one_state_witnesses(self, rng, monkeypatch, rates, envelope):
        # every case of a one-key batch, rotated ones included, against the witness
        # run on that case's own generator for the batch's duration: the exponential
        # (scipy's) to 1e-12, RK45 to 1e-9 (its tolerance is 1e-9).  The five cases are one
        # block, symmetrized once in the key's frame and passed by the positivity screen
        # (no eigenvalue computed); each case's snapshots, rotated back with its own U
        # (the batch's rotations, made in one product, bit for bit), are its trajectory,
        # and the last one its endpoint
        stacks = []

        def capturing(snapshots, floor=None):
            stacks.append(_symmetrized(snapshots, floor))
            return stacks[-1]

        monkeypatch.setattr("darkpulse.dynamics._symmetrized", capturing)
        fields = one_key_steps(rng, envelope, n=5, omega_peak=1.0)
        states = np.stack([random_density(rng) for _ in fields])
        distances = verify_map(states, fields, rates, tols(1e-3)).distances
        t_final = recommended_duration(slowest_rate(build_liouvillian(fields[0], rates)), 1e-3)
        bound = 1e-12 if envelope is Envelope.SQUARE else 1e-9
        assert len(stacks) == 1 and stacks[0][1] is None
        frame = ground_frame(fields[0]).conj().T
        for s, (rho0, fp, distance) in enumerate(zip(states, fields, distances)):
            u = np.eye(4, dtype=complex)
            if s:
                u[:3, :3] = ground_frame(fp) @ frame
            own = u @ stacks[0][0][s] @ u.conj().T
            if envelope is Envelope.SQUARE:
                witness = expm_snapshots(rho0[None], build_liouvillian(fp, rates), t_final)
            else:
                witness = integrate_master(rho0[None], fp, rates, t_final).states
            assert np.abs(own - witness[0]).max() < bound
            mapped = relax_closed(rho0, dark_basis(fp).projector)
            assert distance == hs_distance(own[-1], mapped)
        # case 0 is its key's reference: the batch leaves it unrotated
        single = verify_map(states[:1], fields[:1], rates, tols(1e-3)).distances[0]
        assert distances[0] == single

    @pytest.mark.parametrize("n_cases", [1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
    def test_one_snapshot_pass_and_eigvalsh_per_block(self, rng, monkeypatch, n_cases):
        # the work grows with the number of blocks of a key's cases, not of cases; a
        # passing batch decides positivity by one Cholesky screen per block, plus one
        # that validates the input stack, and computes no eigenvalue
        calls = {"_snapshots": 0, "cholesky": 0, "eigvalsh": 0}

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        fields = one_key_steps(rng, Envelope.SQUARE, n=n_cases, omega_peak=1.0)
        states = np.stack([random_density(rng) for _ in fields])
        monkeypatch.setattr(dynamics, "_snapshots", counted("_snapshots", dynamics._snapshots))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
        monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky", np.linalg.cholesky))
        verify_map(states, fields, Rates.beta(), tols(1e-3))
        blocks = -(-n_cases // _BLOCK)
        assert calls == {"_snapshots": blocks, "cholesky": blocks + 1, "eigvalsh": 0}

    @pytest.mark.parametrize("excursion", ["trace", "eigenvalue"])
    def test_excursion_names_the_case_and_its_own_time(self, rng, monkeypatch, excursion):
        # two interleaved keys of different durations; an excursion injected into
        # the second case of the weak key's block is case 3 of the batch, at the
        # weak key's time, whatever its place in the block
        strong = one_key_steps(rng, Envelope.SQUARE, n=3, omega_peak=1.0)
        weak = one_key_steps(rng, Envelope.SQUARE, n=2, omega_peak=0.5)
        fields = [strong[0], weak[0], strong[1], weak[1], strong[2]]
        states = np.stack([random_density(rng) for _ in fields])
        original = dynamics._snapshots

        def injecting(propagator, matrices):
            snapshots = original(propagator, matrices)
            if len(matrices) == 2:
                if excursion == "trace":
                    snapshots[1, 40] *= 1.0 + 1e-6
                else:
                    snapshots[1, 40] = np.diag([1.0 + 1e-6, -1e-6, 0.0, 0.0]).reshape(16)
            return snapshots

        monkeypatch.setattr(dynamics, "_snapshots", injecting)
        duration = recommended_duration(slowest_rate(build_liouvillian(weak[0], Rates.alpha())),
                                        1e-3)
        t = np.linspace(0.0, duration, MIN_SNAPSHOTS)[40]
        error = TraceViolation if excursion == "trace" else PositivityViolation
        with pytest.raises(error, match=rf"^state 3: snapshot at t={re.escape(f'{t:.6g}')} "
                                        rf"has {excursion}"):
            verify_map(states, fields, Rates.alpha(), tols(1e-3))

    @pytest.mark.parametrize("atol", [1e-12, 1e-6])
    def test_screen_decides_and_names_as_eigvalsh(self, rng, monkeypatch, atol):
        # one block of 8 cases with one snapshot's smallest eigenvalue placed just above
        # and just below the floor, at 0 and far below it: the monitor behind the
        # Cholesky screen passes or raises as the eigvalsh rule does on the same
        # snapshots, with the same message, byte for byte
        floor = _floor(atol)
        fields = one_key_steps(rng, Envelope.SQUARE, n=_BLOCK, omega_peak=1.0)
        states = np.stack([random_density(rng) for _ in fields])
        duration = recommended_duration(slowest_rate(build_liouvillian(fields[0], Rates.beta())),
                                        1e-3)
        times = np.linspace(0.0, duration, MIN_SNAPSHOTS)
        original = dynamics._snapshots
        for lam in (floor * (1 - 1e-3), floor * (1 + 1e-3), 0.0, 1e3 * floor):
            for _ in range(5):
                injected = []

                def injecting(propagator, matrices):
                    snapshots = original(propagator, matrices)
                    snapshots[rng.integers(_BLOCK), rng.integers(MIN_SNAPSHOTS)] = \
                        hermitian_with_min_eigenvalue(rng, lam)[0].reshape(16)
                    injected.append(snapshots)
                    return snapshots

                monkeypatch.setattr(dynamics, "_snapshots", injecting)
                messages = []
                for check in (lambda: verify_map(states, fields, Rates.beta(),
                                                 tols(1e-3, atol=atol)),
                              lambda: _monitor(times, *_symmetrized(injected[0])[1:], atol)):
                    try:
                        check()
                        messages.append(None)
                    except PositivityViolation as exc:
                        messages.append(str(exc))
                assert messages[0] == messages[1]
                assert (messages[0] is None) is (lam >= floor)

    def test_cases_of_two_keys_match_their_own_batches(self, rng):
        # interleaved keys share nothing: each case equals its run in a batch of
        # its key's cases alone, a sine-squared key with one case included
        square = one_key_steps(rng, Envelope.SQUARE, n=3, omega_peak=1.0)
        lone = replace(random_field(rng), omega_peak=0.5, envelope=Envelope.SINE_SQUARED)
        fields = [square[0], lone, square[1], square[2]]
        states = np.stack([random_density(rng) for _ in fields])
        distances = verify_map(states, fields, Rates.beta(), tols(1e-3)).distances
        own = verify_map(states[[0, 2, 3]], square, Rates.beta(), tols(1e-3)).distances
        assert distances[[0, 2, 3]].tobytes() == own.tobytes()
        lone_alone = verify_map(states[1:2], [lone], Rates.beta(), tols(1e-3)).distances[0]
        assert distances[1] == lone_alone

    def test_records_each_key(self, rng):
        # one record per key, in order of first case, with the duration rule's values
        strong = one_key_steps(rng, Envelope.SQUARE, n=2, omega_peak=1.0)
        weak = random_field(rng, omega_peak=0.5, envelope=Envelope.SQUARE)
        fields = [strong[0], weak, strong[1]]
        states = np.stack([random_density(rng) for _ in fields])
        keys = verify_map(states, fields, Rates.beta(), tols(1e-3)).keys
        assert [key["first_case"] for key in keys] == [0, 1]
        for key in keys:
            liou = build_liouvillian(fields[key["first_case"]], Rates.beta())
            assert key["slowest_rate"] == slowest_rate(liou)
            assert key["duration"] == recommended_duration(slowest_rate(liou), 1e-3)
            assert (key["propagator"], key["nfev"]) == ("exact", 0)

    def test_records_the_work_of_each_key(self, rng, monkeypatch):
        # a key's nfev is its one solve's count: each sine-squared key makes one
        # solve, whether it recurs or not, and a square key none
        import darkpulse.dynamics as dynamics

        counted, solve_ivp = [], dynamics.solve_ivp

        def counting(*args):
            sol = solve_ivp(*args)
            counted.append(sol.nfev)
            return sol

        monkeypatch.setattr(dynamics, "solve_ivp", counting)
        recurring = one_key_steps(rng, Envelope.SINE_SQUARED, n=3, omega_peak=1.0)
        lone = random_field(rng, omega_peak=0.5, envelope=Envelope.SINE_SQUARED)
        square = random_field(rng, omega_peak=1.0, envelope=Envelope.SQUARE)
        fields = [recurring[0], lone, recurring[1], square, recurring[2]]
        states = np.stack([random_density(rng) for _ in fields])
        keys = verify_map(states, fields, Rates.beta(), tols(1e-3)).keys
        assert [(key["first_case"], key["propagator"]) for key in keys] == [
            (0, "rk45"), (1, "rk45"), (3, "exact")]
        assert len(counted) == 2 and [key["nfev"] for key in keys] == counted + [0]
        assert keys[0]["nfev"] > 0 and keys[1]["nfev"] > 0

    def test_rejects_bad_arguments(self, rng):
        fp = random_field(rng)
        rho = random_density(rng)[None]
        with pytest.raises(ValueError):
            verify_map(rho, [fp], Rates.alpha(), tols(1e-6, atol=0.0))
        with pytest.raises(ValueError):
            verify_map(rho, [fp], Rates.alpha(), tols(1.0))
        with pytest.raises(ValueError, match="one field per state"):
            verify_map(rho, [fp, fp], Rates.alpha(), tols(1e-6))

    def test_rejects_an_invalid_state_stack(self, rng):
        # the input stack is checked as DensityOperator checks one matrix
        fields = [random_field(rng) for _ in range(3)]
        states = np.stack([random_density(rng) for _ in fields])
        for fault, damage in [("not Hermitian", lambda m: m.__setitem__((1, 0, 1), 0.5)),
                              ("not positive semidefinite",
                               lambda m: m.__setitem__(2, np.diag([1.1, -0.1, 0.0, 0.0]))),
                              ("trace", lambda m: m.__setitem__(1, 1.5 * m[1]))]:
            stack = states.copy()
            damage(stack)
            with pytest.raises(ValueError, match=fault):
                verify_map(stack, fields, Rates.alpha(), tols(1e-6))
        with pytest.raises(ValueError, match="one field per state"):
            verify_map([DensityOperator(m) for m in states], fields, Rates.alpha(), tols(1e-6))

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0)], ids=["00", "01", "10"])
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_a_non_finite_entry(self, rng, value, entry):
        # a NaN above the diagonal passed the Hermiticity test (nan >= tol is false)
        # and eigvalsh, which reads the lower triangle; every entry point names it
        fp = random_field(rng)
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 1.0
        m[entry] = value
        for check in (lambda: DensityOperator.validate(m[None]), lambda: DensityOperator(m),
                      lambda: run_sequence(m[None], [fp], Rates.alpha(), tols(1e-6)),
                      lambda: verify_map(m[None], [fp], Rates.alpha(), tols(1e-6))):
            with pytest.raises(ValueError, match="^matrix has a non-finite entry$"):
                check()

    def test_trace_mismatch_is_rejected_before_any_solve(self, rng, monkeypatch):
        # a stack of valid states whose trace is not 1 costs no drive before the map rejects it
        solves = []
        monkeypatch.setattr(dynamics, "solve_ivp", lambda *args, **kwargs: solves.append(1))
        fields = one_key_steps(rng, Envelope.SINE_SQUARED, n=3, omega_peak=1.0)
        states = 0.5 * np.stack([random_density(rng) for _ in fields])
        with pytest.raises(TraceMismatch, match="input trace differs from 1"):
            verify_map(states, fields, Rates.beta(), tols(1e-3))
        assert solves == []


class TestTrajectoryExport:
    def test_csv_columns_and_determinism(self, rng, tmp_path):
        fp = random_field(rng)
        traj = integrate_master(stack(random_density(rng)), fp, Rates.alpha(), 2.0)
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            write_trajectory_csv(traj, 0, p)
        text = paths[0].read_text()
        assert text == paths[1].read_text()
        header, first, *_ = text.splitlines()
        columns = header.split(",")
        # each value once: the real diagonal, the upper triangle, the trace and dark weight
        assert columns == ["time", "pop_gm", "pop_gpi", "pop_gp", "pop_e",
                           "re_gmgpi", "im_gmgpi", "re_gmgp", "im_gmgp", "re_gme", "im_gme",
                           "re_gpigp", "im_gpigp", "re_gpie", "im_gpie", "re_gpe", "im_gpe",
                           "trace", "dark_weight"]
        assert "." in first.split(",")[1] or "e" in first.split(",")[1]
        assert len(text.splitlines()) == 1 + len(traj.times)

    def test_matches_per_row_writer(self, rng, tmp_path):
        # a writer of one snapshot and one value at a time is the oracle: every column
        # byte-identical, the trace and dark weight included, for each state of a block
        for rates in (Rates.alpha(), Rates.beta()):
            fp = random_field(rng, omega_peak=1.0)
            rho0 = stack(random_density(rng), random_density(rng))
            ramped = replace(fp, envelope=Envelope.SINE_SQUARED)
            for traj in (exact_trajectory(rho0, fp, rates, 4.0),
                         integrate_master(rho0, ramped, rates, 4.0)):
                for s in range(len(rho0)):
                    write_trajectory_csv(traj, s, tmp_path / "new.csv")
                    per_row_writer(traj.times, traj.states[s], dark_basis(fp),
                                   tmp_path / "old.csv")
                    assert ((tmp_path / "new.csv").read_bytes()
                            == (tmp_path / "old.csv").read_bytes())

    @pytest.mark.parametrize("envelope", list(Envelope), ids=lambda e: e.value)
    def test_snapshots_rebuild_from_the_csv(self, rng, tmp_path, envelope):
        # the 19 columns hold each snapshot whole: rho_aa = pop_a, rho_ab = re_ab + i im_ab
        # and rho_ba = conj(rho_ab) give back every entry exactly, and the parts the CSV
        # leaves out are exact in the snapshots (Im rho_aa = 0, the lower triangle the
        # conjugate of the upper), for each state of a sequence's block in both regimes.
        # Equal as values: a coherence that is exactly 0 (the ground-only state's) comes
        # back with Im -0 in the lower triangle
        for rates in (Rates.alpha(), Rates.beta()):
            rho0 = stack(random_density(rng), random_density(rng, ground_only=True))
            steps = [random_field(rng, omega_peak=1.0, envelope=envelope) for _ in range(2)]
            for traj in run_sequence(rho0, steps, rates):
                assert not traj.states.diagonal(axis1=-2, axis2=-1).imag.any()
                assert np.array_equal(traj.states.conj().swapaxes(-1, -2), traj.states)
                for s in range(len(rho0)):
                    write_trajectory_csv(traj, s, tmp_path / "traj.csv")
                    table = np.loadtxt(tmp_path / "traj.csv", delimiter=",", skiprows=1)
                    assert table.shape == (MIN_SNAPSHOTS, 19)
                    assert np.array_equal(table[:, 0], traj.times)
                    assert np.array_equal(trajectory_states(table), traj.states[s])


def per_row_writer(times, states, basis, path):
    """One state's trajectory CSV written one snapshot and one value at a time."""
    labels = ("gm", "gpi", "gp", "e")
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    header = ["time"] + [f"pop_{l}" for l in labels]
    for i, j in pairs:
        header += [f"re_{labels[i]}{labels[j]}", f"im_{labels[i]}{labels[j]}"]
    header += ["trace", "dark_weight"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        p = basis.projector
        for t, m in zip(times, states):
            row = [f"{t:.17g}"]
            row += [f"{m[i, i].real:.17g}" for i in range(4)]
            for i, j in pairs:
                row += [f"{m[i, j].real:.17g}", f"{m[i, j].imag:.17g}"]
            row += [f"{float(np.trace(m).real):.17g}", f"{float(np.trace(p @ m @ p).real):.17g}"]
            writer.writerow(row)

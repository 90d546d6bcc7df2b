"""Master-equation integration, duration selection, and map certification."""

from dataclasses import replace

import csv

import numpy as np
import pytest

from darkpulse import (DensityOperator, Envelope, FieldParams, PositivityViolation, Rates,
                       Trajectory, build_liouvillian, dark_basis, hs_distance,
                       integrate_master, propagate_exact, recommended_duration, relax_closed,
                       run_pulse, run_pulse_block, slowest_rate, verify_map)
from darkpulse.dynamics import DEFAULT_RTOL, _trajectory, write_trajectory_csv
from conftest import random_density, random_field, random_pure_ground


def excited_state() -> DensityOperator:
    m = np.zeros((4, 4), dtype=complex)
    m[3, 3] = 1.0
    return DensityOperator(m)


class TestIntegrateMaster:
    def test_pure_decay_closed_form(self):
        # with the drive off the excited population is exp(-gamma t)
        fp = FieldParams(theta=0.5, phi=0.5, mu_minus=0.0, mu_plus=0.0,
                         omega_peak=1e-30, duration=5.0)
        traj = integrate_master(excited_state(), fp, Rates.alpha(1.0), 5.0)
        for t, state in zip(traj.times, traj.states):
            assert state[3, 3].real == pytest.approx(np.exp(-t), rel=1e-8, abs=1e-12)

    def test_trace_conserved_in_alpha_mode(self, rng):
        fp = random_field(rng)
        fp = FieldParams(theta=fp.theta, phi=fp.phi, mu_minus=fp.mu_minus,
                         mu_plus=fp.mu_plus, omega_peak=1.0, duration=20.0)
        traj = integrate_master(random_density(rng), fp, Rates.alpha(), 20.0)
        for state in traj.states:
            assert np.trace(state).real == pytest.approx(1.0, abs=1e-9)

    def test_long_square_pulse_reaches_closed_map(self, rng):
        # unit drive and unit decay, as in the reference scenario
        fp = random_field(rng, omega_peak=1.0, delta=0.0)
        rho0 = DensityOperator.pure(random_pure_ground(rng))
        liou = build_liouvillian(fp, Rates.alpha(1.0))
        t_final = recommended_duration(liou, 1e-8)
        run_fp = FieldParams(theta=fp.theta, phi=fp.phi, mu_minus=fp.mu_minus,
                             mu_plus=fp.mu_plus, omega_peak=1.0, duration=t_final)
        traj = integrate_master(rho0, run_fp, Rates.alpha(1.0), t_final)
        mapped = relax_closed(rho0, dark_basis(fp))
        assert hs_distance(traj.final, mapped) < 1e-6

    def test_snapshot_count_and_times(self, rng):
        fp = random_field(rng, duration=3.0)
        traj = integrate_master(random_density(rng), fp, Rates.alpha(), 3.0)
        assert len(traj.states) >= 65
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(3.0)
        assert np.all(np.diff(traj.times) > 0)

    def test_sine_squared_envelope_converges_to_same_map(self, rng):
        # the asymptotic map is envelope independent; a ramped pulse of twice
        # the duration still lands on the dark-projected state
        fp = random_field(rng, omega_peak=1.0, delta=0.0)
        liou = build_liouvillian(fp, Rates.alpha())
        t_final = 2.0 * recommended_duration(liou, 1e-8)
        ramped = FieldParams(theta=fp.theta, phi=fp.phi, mu_minus=fp.mu_minus,
                             mu_plus=fp.mu_plus, omega_peak=1.0,
                             envelope=Envelope.SINE_SQUARED, duration=t_final)
        rho0 = DensityOperator.pure(random_pure_ground(rng))
        traj = integrate_master(rho0, ramped, Rates.alpha(), t_final)
        assert hs_distance(traj.final, relax_closed(rho0, dark_basis(fp))) < 1e-5

    def test_convergence_order_under_rtol_halving(self, rng):
        fp = random_field(rng, omega_peak=1.0, delta=0.0)
        fp = FieldParams(theta=fp.theta, phi=fp.phi, mu_minus=fp.mu_minus,
                         mu_plus=fp.mu_plus, omega_peak=1.0, duration=8.0)
        rho0 = random_density(rng)
        reference = integrate_master(rho0, fp, Rates.alpha(), 8.0,
                                     rtol=1e-12, atol=1e-14).final.matrix
        errors = []
        for rtol in (1e-4, 5e-5, 2.5e-5, 1.25e-5):
            final = integrate_master(rho0, fp, Rates.alpha(), 8.0,
                                     rtol=rtol, atol=1e-14).final.matrix
            errors.append(np.linalg.norm(final - reference))
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_dark_weight_monotone_for_square_pulses(self, rng):
        for rates in (Rates.alpha(), Rates.beta()):
            fp = random_field(rng, omega_peak=1.0, delta=0.0)
            fp = FieldParams(theta=fp.theta, phi=fp.phi, mu_minus=fp.mu_minus,
                             mu_plus=fp.mu_plus, omega_peak=1.0, duration=30.0)
            basis = dark_basis(fp)
            traj = integrate_master(random_density(rng), fp, rates, 30.0)
            p = basis.projector
            weights = np.array([np.trace(p @ s @ p).real for s in traj.states])
            assert np.diff(weights).min() > -1e-6

    def test_invalid_arguments_rejected(self, rng):
        fp = random_field(rng)
        rho = random_density(rng)
        with pytest.raises(ValueError):
            integrate_master(rho, fp, Rates.alpha(), -1.0)
        with pytest.raises(ValueError):
            integrate_master(rho, fp, Rates.alpha(), 1.0, rtol=0.0)

    def test_trajectory_time_validation(self):
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.5, 1.0]),
                       states=np.stack([excited_state().matrix] * 2), final=excited_state())


class TestPropagateExact:
    def test_pure_decay_closed_form(self):
        # the exact counterpart of TestIntegrateMaster.test_pure_decay_closed_form
        fp = FieldParams(theta=0.5, phi=0.5, mu_minus=0.0, mu_plus=0.0,
                         omega_peak=1e-30, duration=5.0)
        traj = propagate_exact(excited_state(), build_liouvillian(fp, Rates.alpha(1.0)), 5.0)
        assert len(traj.states) == 65
        for t, state in zip(traj.times, traj.states):
            assert state[3, 3].real == pytest.approx(np.exp(-t), rel=1e-8, abs=1e-12)

    @pytest.mark.parametrize("rates", [Rates.alpha(1.0), Rates.beta(1.0, 1.0, 1.0)],
                             ids=["alpha", "beta"])
    def test_matches_rk45_endpoint(self, rng, rates):
        # RK45 is the independent witness of the exact path: the endpoints
        # agree to the integrator's rtol at the residual-1e-10 duration
        for _ in range(8):
            fp = random_field(rng, omega_peak=1.0)
            rho0 = DensityOperator.pure(random_pure_ground(rng))
            liou = build_liouvillian(fp, rates)
            t_final = recommended_duration(liou, 1e-10)
            exact = propagate_exact(rho0, liou, t_final)
            rk45 = integrate_master(rho0, replace(fp, duration=t_final), rates, t_final)
            assert np.array_equal(exact.times, rk45.times)
            assert hs_distance(exact.final, rk45.final) < DEFAULT_RTOL

    @pytest.mark.parametrize("residual", [1e-6, 1e-10])
    @pytest.mark.parametrize("rates", [Rates.alpha(1.0), Rates.beta(1.0, 1.0, 1.0)],
                             ids=["alpha", "beta"])
    def test_residual_rule_holds_at_exact_endpoint(self, rng, rates, residual):
        # driving for ln(1/residual)/gap leaves the state about `residual` from
        # the map; the exact endpoint carries no integrator error to hide it
        for _ in range(20):
            fp = random_field(rng, omega_peak=1.0)
            rho0 = DensityOperator.pure(random_pure_ground(rng))
            liou = build_liouvillian(fp, rates)
            traj = propagate_exact(rho0, liou, recommended_duration(liou, residual))
            assert hs_distance(traj.final, relax_closed(rho0, dark_basis(fp))) < 2.0 * residual

    def test_rejects_bad_arguments(self, rng):
        fp = random_field(rng)
        liou = build_liouvillian(fp, Rates.alpha())
        rho = random_density(rng)
        with pytest.raises(ValueError):
            propagate_exact(rho, liou, -1.0)
        with pytest.raises(ValueError):
            propagate_exact(rho, liou, 1.0, atol=0.0)
        ramped = build_liouvillian(replace(fp, envelope=Envelope.SINE_SQUARED), Rates.alpha())
        with pytest.raises(ValueError, match="square"):
            propagate_exact(rho, ramped, 1.0)


class TestRunPulse:
    def test_square_takes_exact_path(self, rng):
        fp = random_field(rng, omega_peak=1.0)
        rho0 = random_density(rng)
        rates = Rates.beta()
        liou = build_liouvillian(fp, rates)
        traj = run_pulse(rho0, fp, rates, 1e-6)
        direct = propagate_exact(rho0, liou, recommended_duration(liou, 1e-6))
        assert traj.record.propagator == "exact" and traj.record.nfev == 0
        assert traj.times[-1] == recommended_duration(liou, 1e-6)
        assert np.array_equal(traj.final.matrix, direct.final.matrix)

    def test_sine_squared_takes_rk45(self, rng):
        fp = random_field(rng, omega_peak=1.0, envelope=Envelope.SINE_SQUARED)
        rho0 = random_density(rng)
        t_final = recommended_duration(build_liouvillian(fp, Rates.alpha()), 1e-6)
        traj = run_pulse(rho0, fp, Rates.alpha(), 1e-6)
        direct = integrate_master(rho0, replace(fp, duration=t_final), Rates.alpha(), t_final)
        assert traj.record.propagator == "rk45" and traj.record.nfev > 0
        assert traj.record == direct.record
        assert np.array_equal(traj.final.matrix, direct.final.matrix)


class TestRunPulseBlock:
    @pytest.mark.parametrize("rates", [Rates.alpha(1.0), Rates.beta(1.0, 1.0, 1.0)],
                             ids=["alpha", "beta"])
    def test_sine_block_matches_one_state_solves(self, rng, rates):
        # one RK45 solve for 4 states against 4 one-state solves; the block's
        # error norm spans all states, so the two agree to the integrator's
        # tolerance, not bit for bit (measured below 4e-11)
        fp = random_field(rng, omega_peak=1.0, envelope=Envelope.SINE_SQUARED)
        states = [random_density(rng) for _ in range(4)]
        block = run_pulse_block(states, fp, rates, 1e-6)
        t_final = block[0].times[-1]
        assert len(block) == 4
        assert len({traj.record.nfev for traj in block}) == 1
        for rho0, traj in zip(states, block):
            single = integrate_master(rho0, replace(fp, duration=t_final), rates, t_final)
            assert np.array_equal(traj.times, single.times)
            gap = np.abs(traj.states - single.states).max()
            assert gap < 1e-9

    @pytest.mark.parametrize("rates", [Rates.alpha(1.0), Rates.beta(1.0, 1.0, 1.0)],
                             ids=["alpha", "beta"])
    def test_square_block_is_bit_identical_to_one_state_runs(self, rng, rates):
        fp = random_field(rng, omega_peak=1.0)
        states = [random_density(rng) for _ in range(3)]
        for rho0, traj in zip(states, run_pulse_block(states, fp, rates, 1e-8)):
            single = run_pulse(rho0, fp, rates, 1e-8)
            assert traj.record == single.record
            assert traj.states.tobytes() == single.states.tobytes()


class TestSnapshotValidation:
    def test_record_matches_per_snapshot_values(self, rng):
        # per-snapshot loop as the oracle for the stacked eigenvalue and trace pass
        fp = random_field(rng, omega_peak=1.0, duration=6.0)
        for traj in (integrate_master(random_density(rng), fp, Rates.beta(), 6.0),
                     propagate_exact(random_density(rng), build_liouvillian(fp, Rates.beta()),
                                     6.0)):
            min_eig = min(np.linalg.eigvalsh(s).min() for s in traj.states)
            trace_error = max(abs(np.trace(s).real - 1.0) for s in traj.states)
            assert traj.record.min_eigenvalue == pytest.approx(min_eig, abs=1e-15)
            assert traj.record.max_trace_error == pytest.approx(trace_error, abs=1e-15)
            assert traj.record.max_trace_error > 1e-3  # beta loses trace while driven

    def test_positivity_violation_names_first_offending_time(self, rng):
        times = np.linspace(0.0, 2.0, 5)
        snaps = np.stack([random_density(rng).matrix for _ in range(5)])
        for k, eig in ((2, -1e-8), (4, -1e-6)):
            snaps[k] = np.diag([1.0 - eig, eig, 0.0, 0.0])
        with pytest.raises(PositivityViolation, match=r"t=1 has eigenvalue -1\.000e-08"):
            _trajectory(times, snaps.reshape(1, 5, 16), 1e-12, "exact", 0)
        # a floor below both excursions accepts the same snapshots
        traj, = _trajectory(times, snaps.reshape(1, 5, 16), 1e-7, "exact", 0)
        assert traj.record.min_eigenvalue == pytest.approx(-1e-6)


    def test_block_violation_names_state_and_first_time(self, rng):
        times = np.linspace(0.0, 2.0, 5)
        snaps = np.stack([random_density(rng).matrix for _ in range(15)]).reshape(3, 5, 4, 4)
        snaps[1, 3] = np.diag([1.0 + 1e-6, -1e-6, 0.0, 0.0])
        snaps[2, 1] = np.diag([1.0 + 1e-8, -1e-8, 0.0, 0.0])
        with pytest.raises(PositivityViolation,
                           match=r"^state 2: snapshot at t=0\.5 has eigenvalue -1\.000e-08"):
            _trajectory(times, snaps.reshape(3, 5, 16), 1e-12, "exact", 0)
        records = [t.record for t in _trajectory(times, snaps.reshape(3, 5, 16), 1e-7, "exact", 0)]
        assert [r.min_eigenvalue for r in records][1:] == pytest.approx([-1e-6, -1e-8])

    def test_one_eigvalsh_decides_positivity(self, rng, monkeypatch):
        # the monitor's eigenvalues serve the stack's PSD check as well
        times = np.linspace(0.0, 1.0, 5)
        snaps = np.stack([random_density(rng).matrix for _ in range(10)]).reshape(2, 5, 16)
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a):
            calls.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        _trajectory(times, snaps, 1e-12, "rk45", 7)
        assert calls == [(2, 5, 4, 4)]
        # a stack that is not PSD still fails, through the monitor
        snaps[1, 2] = np.diag([1.0 + 1e-6, -1e-6, 0.0, 0.0]).reshape(16)
        with pytest.raises(PositivityViolation, match=r"^state 1: snapshot at t=0\.5"):
            _trajectory(times, snaps, 1e-12, "rk45", 7)

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
        trajectories = run_pulse_block([random_density(rng) for _ in range(3)], fp,
                                       Rates.beta(), 1e-6)
        block, = blocks
        assert len(trajectories) == 3
        for traj in trajectories:
            assert traj.states.shape == (65, 4, 4)
            assert not traj.states.flags.writeable
            assert traj.states.flags.c_contiguous
            assert not np.shares_memory(traj.states, block)
            assert traj.final.matrix.tobytes() == traj.states[-1].tobytes()

    def test_trace_above_slack_raises_constructor_error(self, rng):
        times = np.linspace(0.0, 1.0, 5)
        snaps = np.stack([random_density(rng).matrix for _ in range(5)])
        snaps[3] *= 1.0 + 1e-9  # above 1 + 100 * atol at atol 1e-12
        with pytest.raises(ValueError, match=r"trace .* outside \(0, 1\]"):
            _trajectory(times, snaps.reshape(1, 5, 16), 1e-12, "exact", 0)
        _trajectory(times, snaps.reshape(1, 5, 16), 1e-10, "exact", 0)


class TestRecommendedDuration:
    def test_inverse_rate_at_e_residual(self, rng):
        liou = build_liouvillian(random_field(rng), Rates.alpha())
        duration = recommended_duration(liou, np.exp(-1.0))
        assert duration == pytest.approx(1.0 / slowest_rate(liou), rel=1e-12)

    def test_log_scaling(self, rng):
        liou = build_liouvillian(random_field(rng), Rates.alpha())
        duration = recommended_duration(liou, 1e-12)
        assert duration == pytest.approx(np.log(1e12) / slowest_rate(liou), rel=1e-12)
        assert duration == pytest.approx(27.631 / slowest_rate(liou), rel=1e-3)

    def test_certifies_map_at_tight_residual(self, rng):
        # 20 random initial states, unit drive and decay, residual 1e-10
        fp = random_field(rng, omega_peak=1.0, delta=0.0)
        for _ in range(20):
            rho0 = DensityOperator.pure(random_pure_ground(rng))
            assert verify_map(rho0, fp, Rates.alpha(1.0), 1e-10) < 1e-8

    def test_rejects_bad_residual(self, rng):
        liou = build_liouvillian(random_field(rng), Rates.alpha())
        for bad in (0.0, 1.0, 2.0, -0.1):
            with pytest.raises(ValueError):
                recommended_duration(liou, bad)


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
        rho0 = DensityOperator.pure(dark_basis(fp).n1)
        assert verify_map(rho0, fp, Rates.alpha(), 1e-6) < 10 * 1e-12

    def test_alpha_certification(self, rng):
        fp = random_field(rng, omega_peak=1.0, delta=0.0)
        rho0 = DensityOperator.pure(random_pure_ground(rng))
        assert verify_map(rho0, fp, Rates.alpha(1.0), 1e-10) < 1e-6

    def test_beta_certification_all_rates_unity(self, rng):
        fp = random_field(rng, omega_peak=1.0, delta=0.0)
        rho0 = DensityOperator.pure(random_pure_ground(rng))
        assert verify_map(rho0, fp, Rates.beta(1.0, 1.0, 1.0), 1e-10) < 1e-6


class TestTrajectoryExport:
    def test_csv_columns_and_determinism(self, rng, tmp_path):
        fp = random_field(rng, duration=2.0)
        basis = dark_basis(fp)
        traj = integrate_master(random_density(rng), fp, Rates.alpha(), 2.0)
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            write_trajectory_csv(traj, basis, p)
        text = paths[0].read_text()
        assert text == paths[1].read_text()
        header, first, *_ = text.splitlines()
        columns = header.split(",")
        assert columns[0] == "time"
        assert len(columns) == 1 + 32 + 4 + 2
        assert "." in first.split(",")[1] or "e" in first.split(",")[1]
        assert len(text.splitlines()) == 1 + len(traj.states)

    def test_matches_per_row_writer(self, rng, tmp_path):
        # the per-row writer the array pass replaced is the oracle: every column
        # byte-identical, the trace and dark weight included
        for rates in (Rates.alpha(), Rates.beta()):
            fp = random_field(rng, omega_peak=1.0)
            basis = dark_basis(fp)
            rho0 = random_density(rng)
            liou = build_liouvillian(fp, rates)
            ramped = replace(fp, envelope=Envelope.SINE_SQUARED, duration=4.0)
            for traj in (propagate_exact(rho0, liou, 4.0),
                         integrate_master(rho0, ramped, rates, 4.0)):
                write_trajectory_csv(traj, basis, tmp_path / "new.csv")
                per_row_writer(traj, basis, tmp_path / "old.csv")
                assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def per_row_writer(traj, basis, path):
    """The trajectory CSV written one state and one entry at a time."""
    labels = ("gm", "gpi", "gp", "e")
    header = ["time"]
    for i in range(4):
        for j in range(4):
            header += [f"re_{labels[i]}{labels[j]}", f"im_{labels[i]}{labels[j]}"]
    header += [f"pop_{l}" for l in labels] + ["trace", "dark_weight"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        p = basis.projector
        for t, m in zip(traj.times, traj.states):
            row = [f"{t:.17g}"]
            for i in range(4):
                for j in range(4):
                    row += [f"{m[i, j].real:.17g}", f"{m[i, j].imag:.17g}"]
            row += [f"{m[i, i].real:.17g}" for i in range(4)]
            row += [f"{float(np.trace(m).real):.17g}", f"{float(np.trace(p @ m @ p).real):.17g}"]
            writer.writerow(row)

"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines as they print.  The main reproduction (criterion 5) is shared
with the stage-geometry check (criterion 6) through a session fixture.
"""

import csv
import json

import numpy as np
import pytest
import scipy.linalg

from darkpulse import (DensityOperator, IntegratorSettings, Mode, OptimizerSettings, Rates,
                       TargetState, build_hamiltonian, build_liouvillian,
                       closed_form_zero_modes, compose_sequence, dark_basis, embed_ground,
                       hs_distance, initial_state_grid, optimize_sequence, pure_state_dyads,
                       relax_closed, verify_map, zero_subspace)
from darkpulse.cli import bundled_config_path, main
from darkpulse.config import load_config, sequence_doc
from darkpulse.optimize import random_pure_states
from conftest import fold_repumped, random_density, random_field
from witnesses import relax_repumped, repump_steady_state, steady_affine


def report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion} {status} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="session")
def bundled_config():
    return load_config(bundled_config_path())


@pytest.fixture(scope="session")
def main_run(bundled_config):
    """The reference optimization: bundled target, N = 4, spec-default budget."""
    cfg = bundled_config
    grid = initial_state_grid(cfg.grid_resolution)
    result = optimize_sequence(cfg.steps, cfg.target, grid, cfg.optimizer)
    return cfg, grid, result


def test_criterion_1_dark_state_annihilation(rng):
    worst = 0.0
    for _ in range(10_000):
        fp = random_field(rng)
        h = build_hamiltonian(fp)
        basis = dark_basis(fp)
        scale = np.linalg.norm(h)
        for n in (basis.n1, basis.n2):
            worst = max(worst, np.linalg.norm(h @ embed_ground(n)) / scale)
    report(1, worst < 1e-12,
           f"worst ||H n|| / ||H|| = {worst:.3e} over 10^4 random fields (< 1e-12)")


def test_criterion_2_zero_subspace_dimensions(rng):
    worst_angle = 0.0
    worst_left_right_beta = 0.0
    min_left_right_alpha = np.inf
    for rates, expected in ((Rates.alpha(), 4), (Rates.beta(), 3)):
        for _ in range(1000):
            fp = random_field(rng)
            liou = build_liouvillian(fp, rates)
            numerical = zero_subspace(liou)
            assert numerical.dimension == expected
            closed = closed_form_zero_modes(dark_basis(fp), rates.mode)
            for side in ("right", "left"):
                angles = scipy.linalg.subspace_angles(
                    getattr(numerical, side).T, getattr(closed, side).T)
                worst_angle = max(worst_angle, float(angles.max()))
            gap = float(scipy.linalg.subspace_angles(
                numerical.right.T, numerical.left.T).max())
            if rates.mode is Mode.ALPHA:
                min_left_right_alpha = min(min_left_right_alpha, gap)
            else:
                worst_left_right_beta = max(worst_left_right_beta, gap)
    ok = (worst_angle < 1e-9 and min_left_right_alpha > 1e-3
          and worst_left_right_beta < 1e-9)
    report(2, ok,
           f"dims 4/3 over 10^3 draws per mode; closed-form principal angle "
           f"{worst_angle:.3e} (< 1e-9); alpha left/right gap >= "
           f"{min_left_right_alpha:.3e}, beta gap <= {worst_left_right_beta:.3e}")


def test_criterion_3_steady_state_identity(rng):
    worst_dyad = 0.0
    worst_map_gap = 0.0
    for _ in range(100):
        fp = random_field(rng)
        liou = build_liouvillian(fp, Rates.beta(1.0, 0.9, 1.1))
        tilde = steady_affine(liou)
        n2 = embed_ground(dark_basis(fp).n2)
        worst_dyad = max(worst_dyad, np.linalg.norm(tilde - np.outer(n2, n2.conj())))
        assert np.linalg.norm(repump_steady_state(fp) - tilde) < 1e-12
        for _ in range(10):
            rho = random_density(rng)
            gap = np.linalg.norm(relax_repumped(rho, fp)
                                 - relax_closed(rho, dark_basis(fp).projector))
            worst_map_gap = max(worst_map_gap, gap)
    ok = worst_dyad < 1e-12 and worst_map_gap < 1e-12
    report(3, ok,
           f"offset state vs second dark dyad {worst_dyad:.3e} (< 1e-12); "
           f"lossy vs closed map on 10^3 states {worst_map_gap:.3e} (< 1e-12)")


def test_criterion_4_map_vs_dynamics(rng):
    worst = {"alpha": 0.0, "beta": 0.0}
    for rates in (Rates.alpha(1.0), Rates.beta(1.0, 1.0, 1.0)):
        # one batch of one key: the first case takes the exponential step as it is,
        # the other 49 its ground rotations, each against its own analytic map
        fields, states = [], []
        for _ in range(50):
            fields.append(random_field(rng, omega_peak=1.0, delta=0.0))
            psi = rng.normal(size=3) + 1j * rng.normal(size=3)
            states.append(pure_state_dyads(psi / np.linalg.norm(psi)))
        distances = verify_map(np.stack(states), fields, rates,
                               IntegratorSettings(residual=1e-10)).distances
        worst[rates.mode.value] = float(distances.max())
    ok = worst["alpha"] < 1e-6 and worst["beta"] < 1e-6
    report(4, ok,
           f"ODE vs analytic map over 50 states/mode: alpha {worst['alpha']:.3e}, "
           f"beta {worst['beta']:.3e} (< 1e-6)")


def test_criterion_5_main_reproduction(main_run, rng):
    cfg, grid, result = main_run
    rho_f = cfg.target.density_matrix()
    rms = result.objective_value
    test_states = random_pure_states(1000, [cfg.optimizer.seed, 1])
    dyads = pure_state_dyads(test_states)
    max_test = float(hs_distance(compose_sequence(dyads, result.sequence), rho_f).max())
    # the pure-state bound transfers to mixtures by affinity: convex combos
    # of tested pure inputs stay within the largest tested distance
    mixtures = []
    for _ in range(200):
        members = rng.integers(0, len(test_states), size=4)
        weights = rng.dirichlet(np.ones(4))
        mixtures.append(sum(w * dyads[i] for w, i in zip(weights, members)))
    mixed = np.stack(mixtures)
    DensityOperator.validate(mixed)
    worst_mixed = float(hs_distance(compose_sequence(mixed, result.sequence), rho_f).max())
    ok = (rms < 1e-4 and max_test < 1e-3
          and max_test < 50.0 * rms          # grid-free generalization bound
          and worst_mixed <= max_test + 1e-12)
    report(5, ok,
           f"N=4 training RMS {rms:.3e} (< 1e-4); max over 1000 random states "
           f"{max_test:.3e} (< 1e-3, and < 50x RMS); mixed inputs within the "
           f"pure bound ({worst_mixed:.3e})")


def test_criterion_6_stage_geometry(main_run, tmp_path):
    cfg, _, result = main_run
    sequence_file = tmp_path / "sequence.json"
    doc = sequence_doc(result.sequence)
    sequence_file.write_text(json.dumps({"sequence": doc}, indent=2) + "\n")
    out = tmp_path / "bloch"
    code = main(["bloch-export", "--config", str(bundled_config_path()),
                 "--sequence", str(sequence_file), "--out", str(out)])
    assert code == 0
    with open(out / "bloch_radii.csv") as fh:
        radii = {int(r["stage"]): float(r["radius"]) for r in csv.DictReader(fh)}
    final = radii[len(result.sequence)]
    earlier = [radii[s] for s in sorted(radii) if s != len(result.sequence)]
    ok = final < 1e-3 and all(final < r for r in earlier)
    report(6, ok,
           f"stage radii {[f'{radii[s]:.3e}' for s in sorted(radii)]}; "
           f"final {final:.3e} (< 1e-3 and strictly smallest)")


def test_criterion_7_linearity(rng):
    steps = tuple(random_field(rng) for _ in range(4))
    worst = 0.0
    # the mode-free composition (alpha) and the literal lossy-regime fold (beta)
    for fold in (lambda rho: compose_sequence(rho, steps),
                 lambda rho: fold_repumped(rho, steps)):
        for _ in range(500):
            rho1, rho2 = random_density(rng), random_density(rng)
            p1 = rng.uniform()
            mixed = p1 * rho1 + (1.0 - p1) * rho2
            lhs = fold(mixed)
            rhs = p1 * fold(rho1) + (1.0 - p1) * fold(rho2)
            worst = max(worst, np.abs(lhs - rhs).max())
    report(7, worst < 1e-12,
           f"composition vs convex mixing over 10^3 mixtures: {worst:.3e} (< 1e-12)")


def test_criterion_8_purity_trend(bundled_config):
    cfg = bundled_config
    target = TargetState(weights=(0.02, 0.98), psi1=cfg.target.psi1, psi2=cfg.target.psi2)
    grid = initial_state_grid(cfg.grid_resolution)
    budget = dict(restarts=3, max_iter=300, tol=1e-6)
    best = {}
    for n in (4, 8):
        best[n] = optimize_sequence(n, target, grid, OptimizerSettings(
            seed=cfg.optimizer.seed, **budget)).objective_value
    print(f"  purity table: p1=0.02: N=4 -> {best[4]:.6e}, N=8 -> {best[8]:.6e}")
    report(8, best[8] < best[4],
           f"weights (0.02, 0.98): N=8 objective {best[8]:.3e} < N=4 objective "
           f"{best[4]:.3e} under equal budgets")


def _strip_wall_time(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if "wall_time_s" not in line)


def test_criterion_9_determinism(tmp_path):
    doc = {
        "target": {
            "weights": [0.5, 0.5],
            "psi1": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            "psi2": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
        },
        "steps": 2,
        "mode": "alpha",
        "rates": {"gamma_in": 1.0},
        "omega_peak": 1.0,
        "envelope": "square",
        "grid_resolution": 3,
        "optimizer": {"seed": 5, "restarts": 1, "max_iter": 30, "tol": 1e-6,
                      "test_states": 10},
        "integrator": {"rtol": 1e-9, "atol": 1e-12, "residual": 1e-8},
        "weight_list": [0.5],
        "N_list": [1],
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc, indent=2) + "\n")

    opt = tmp_path / "r1" / "opt"
    assert main(["optimize", "--config", str(config), "--out", str(opt)]) == 0
    sequence = opt / "result.json"

    runs = {
        "optimize": (["optimize", "--config", str(config), "--out"], ["result.json"]),
        "simulate": (["simulate", "--config", str(config), "--sequence", str(sequence),
                      "--out"], ["summary.json", "trajectory_state000_pulse00.csv"]),
        "verify": (["verify", "--config", str(config), "--states", "2", "--out"],
                   ["verify.json"]),
        "bloch-export": (["bloch-export", "--config", str(config), "--sequence",
                          str(sequence), "--out"], ["bloch_points.csv", "bloch_radii.csv"]),
        "spectrum": (["spectrum", "--config", str(config), "--out"], ["spectrum.json"]),
        "sweep-purity": (["sweep-purity", "--config", str(config), "--out"],
                         ["purity_sweep.csv"]),
        "reproduce-paper": (["reproduce-paper", "--config", str(config), "--out"],
                            ["optimize/result.json", "simulate/summary.json",
                             "bloch/bloch_points.csv", "bloch/bloch_radii.csv"]),
    }
    mismatched = []
    for name, (argv, artifacts) in runs.items():
        outputs = []
        for attempt in ("a", "b"):
            out = tmp_path / name / attempt
            assert main(argv + [str(out)]) == 0, f"{name} run {attempt} failed"
            outputs.append({art: _strip_wall_time((out / art).read_text())
                            for art in artifacts})
        if outputs[0] != outputs[1]:
            mismatched.append(name)
    report(9, not mismatched,
           f"byte-identical data artifacts for all 7 commands"
           + (f"; mismatches: {mismatched}" if mismatched else ""))


def test_criterion_10_wide_class_of_mixed_states(main_run):
    # the bundled search (seed 7, grid 5) on the bundled target vectors: a pure target
    # is out of reach at N = 2..6, and its floor halves with each added step, while the
    # bundled mixed target (p1 = 1/3) is reached at N = 4 (main_run)
    cfg, grid, result = main_run
    pure = TargetState(weights=(1.0, 0.0), psi1=cfg.target.psi1, psi2=cfg.target.psi2)
    floors = {n: optimize_sequence(n, pure, grid, cfg.optimizer).objective_value
              for n in range(2, 7)}
    ratios = [floors[n] / floors[n + 1] for n in range(2, 6)]
    print("  pure-target floors: " + ", ".join(f"N={n} -> {f:.6e}" for n, f in floors.items()))
    ok = all(1.8 <= r <= 2.2 for r in ratios) and result.objective_value <= 1e-6
    report(10, ok,
           f"pure-target floor ratios N -> N+1 for N = 2..5: "
           f"{[f'{r:.4f}' for r in ratios]} (in [1.8, 2.2]); p1 = 1/3 at N = 4: "
           f"{result.objective_value:.3e} (<= 1e-6)")

"""Command-line surface: experiment orchestration and bit-exact data exports.

Subcommands: optimize, simulate, verify, bloch-export, spectrum, sweep-purity,
and reproduce-paper (which chains optimize -> simulate -> bloch-export on the
bundled reference scenario).  All outputs are pure functions of the config and
seed; wall-clock times live in a separate "meta" block so the data artifacts
are byte-identical across repeated runs.

Exit codes: 0 success, 2 config validation, 3 non-convergence under --strict,
4 integrator failure, 5 unstable spectrum.
"""

from __future__ import annotations

import argparse
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
from scipy.linalg import subspace_angles

from .config import (ExperimentConfig, atomic_write_text, dumps17, load_config, load_sequence,
                     read_number, write_csv)
from .core import (DarkBasis, DensityOperator, FieldParams, TargetState, _span_normal,
                   bloch_coords, dark_basis, field_for_span)
from .dynamics import (propagator_name, recommended_duration, run_pulse_block, verify_map,
                       write_trajectory_csv)
from .errors import (ConfigError, PositivityViolation, StepSizeUnderflow, UnexpectedDimension,
                     UnstableSpectrum)
from .liouville import (build_liouvillian, slowest_rate, transpose_convention_diagnostic,
                        zero_subspace)
from .maps import PulseSequence, compose_sequence, hs_distance, mismatch, sequence_affine
from .optimize import (initial_state_grid, optimize_sequence, pure_state_vectors,
                       purity_sweep, random_pure_states, state_distances)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_INTEGRATOR = 4
EXIT_SPECTRUM = 5

RESIDUAL_LADDER = (1e-6, 1e-10, 1e-12)


def bundled_config_path() -> Path:
    """Path of the packaged reference-scenario configuration."""
    return Path(resources.files("darkpulse").joinpath("data/paper_target.json"))


def _write_json(path: Path, doc: dict) -> None:
    atomic_write_text(path, dumps17(doc) + "\n")


def _stats(distances: np.ndarray) -> dict:
    hs, mis = distances[:, 0], distances[:, 1]
    return {
        "rms_hs": float(np.sqrt(np.mean(hs ** 2))),
        "max_hs": float(hs.max()),
        "rms_mismatch": float(np.sqrt(np.mean(mis ** 2))),
        "max_mismatch": float(mis.max()),
    }


def _sequence_doc(seq: PulseSequence) -> dict:
    return {
        "steps": [{
            "theta": fp.theta, "phi": fp.phi,
            "mu_minus": fp.mu_minus, "mu_plus": fp.mu_plus,
            "xi": fp.xi, "omega_peak": fp.omega_peak, "delta": fp.delta,
            "envelope": fp.envelope.value, "duration": fp.duration,
        } for fp in seq.steps],
    }


def cmd_optimize(cfg: ExperimentConfig, out_dir: Path, strict: bool) -> int:
    started = time.perf_counter()
    grid = initial_state_grid(cfg.grid_resolution)
    result = optimize_sequence(
        cfg.steps, cfg.target, grid, cfg.optimizer.seed,
        restarts=cfg.optimizer.restarts, max_iter=cfg.optimizer.max_iter,
        tol=cfg.optimizer.tol, pin_last=cfg.optimizer.pin_last,
        omega_peak=cfg.omega_peak, envelope=cfg.envelope)

    # concretize per-step durations from the spectral gap at the config residual
    steps = []
    for fp in result.sequence.steps:
        liou = build_liouvillian(fp, cfg.rates, 1.0)
        steps.append(replace(fp, duration=recommended_duration(liou, cfg.integrator.residual)))
    seq = PulseSequence(steps=tuple(steps))

    test_states = random_pure_states(cfg.optimizer.test_states, [cfg.optimizer.seed, 1])
    test_distances = state_distances(test_states, seq.steps, cfg.target)

    doc = {
        "sequence": {"mode": cfg.mode.value, **_sequence_doc(seq)},
        "objective_rms": result.objective_value,
        "objective_history": list(result.restart_history),
        "train_stats": _stats(result.per_state_distances),
        "test_stats": {**_stats(test_distances), "n_states": int(test_states.shape[0])},
        "iterations": result.iterations,
        "restarts": [record._asdict() for record in result.restarts],
        "seed": result.seed,
        "converged": result.converged,
        "grid_resolution": cfg.grid_resolution,
        "meta": {"wall_time_s": time.perf_counter() - started},
    }
    _write_json(out_dir / "result.json", doc)
    print(f"optimize: objective_rms={result.objective_value:.3e} "
          f"converged={result.converged} -> {out_dir / 'result.json'}")
    if strict and not result.converged:
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_simulate(cfg: ExperimentConfig, sequence_path, out_dir: Path) -> int:
    started = time.perf_counter()
    steps = load_sequence(sequence_path, cfg)
    psis = cfg.initial_states if cfg.initial_states is not None else [[1.0, 0.0, 0.0]]

    # every pulse is one map for all states: push them through it as one block
    initial = [DensityOperator.pure(psi) for psi in psis]
    rows = [{"state_index": i, "durations": [], "trajectories": [], "pulses": []}
            for i in range(len(initial))]
    finals = initial
    for l, fp in enumerate(steps):
        trajectories = run_pulse_block(finals, fp, cfg.rates, cfg.integrator.residual,
                                       rtol=cfg.integrator.rtol, atol=cfg.integrator.atol)
        basis = dark_basis(fp)
        for row, traj in zip(rows, trajectories):
            path = out_dir / f"trajectory_state{row['state_index']:03d}_pulse{l:02d}.csv"
            write_trajectory_csv(traj, basis, path)
            row["durations"].append(float(traj.times[-1]))
            row["trajectories"].append(path.name)
            row["pulses"].append(traj.record._asdict())
        finals = [traj.final for traj in trajectories]

    target = cfg.target.density_matrix()
    for row, rho0, rho in zip(rows, initial, finals):
        mapped = compose_sequence(rho0, PulseSequence(steps=tuple(steps))) if steps else rho0
        row.update(hs_ode_vs_map=hs_distance(rho, mapped),
                   hs_ode_vs_target=hs_distance(rho, target),
                   hs_map_vs_target=hs_distance(mapped, target),
                   mismatch_ode_vs_target=mismatch(rho, target),
                   mismatch_map_vs_target=mismatch(mapped, target))

    doc = {
        "n_pulses": len(steps),
        "mode": cfg.mode.value,
        "states": rows,
        "max_hs_ode_vs_map": max((r["hs_ode_vs_map"] for r in rows), default=0.0),
        "meta": {"wall_time_s": time.perf_counter() - started},
    }
    _write_json(out_dir / "summary.json", doc)
    print(f"simulate: {len(rows)} state(s) through {len(steps)} pulse(s); "
          f"max |ODE - map| = {doc['max_hs_ode_vs_map']:.3e} -> {out_dir / 'summary.json'}")
    return EXIT_OK


def cmd_verify(cfg: ExperimentConfig, out_dir: Path, n_states: int, seed: int,
               threads: int) -> int:
    started = time.perf_counter()
    rng = np.random.default_rng([seed, 2])
    angles = rng.uniform(0.0, 2.0 * np.pi, size=(n_states, 4))
    angles[:, 0] = rng.uniform(0.0, np.pi, size=n_states)
    states = random_pure_states(n_states, [seed, 3])

    def one(i: int) -> dict:
        fp = FieldParams(theta=angles[i, 0], phi=angles[i, 1], mu_minus=angles[i, 2],
                         mu_plus=angles[i, 3], omega_peak=cfg.omega_peak,
                         envelope=cfg.envelope)
        distance = verify_map(DensityOperator.pure(states[i]), fp, cfg.rates,
                              cfg.integrator.residual, rtol=cfg.integrator.rtol,
                              atol=cfg.integrator.atol)
        return {"index": i, "theta": fp.theta, "phi": fp.phi, "mu_minus": fp.mu_minus,
                "mu_plus": fp.mu_plus, "distance": distance}

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(one, range(n_states)))
    else:
        rows = [one(i) for i in range(n_states)]
    distances = np.array([r["distance"] for r in rows])
    doc = {
        "mode": cfg.mode.value,
        "propagator": propagator_name(cfg.envelope),
        "residual": cfg.integrator.residual,
        "n_states": n_states,
        "seed": seed,
        "max_distance": float(distances.max()),
        "mean_distance": float(distances.mean()),
        "cases": rows,
        "meta": {"wall_time_s": time.perf_counter() - started},
    }
    _write_json(out_dir / "verify.json", doc)
    print(f"verify: {n_states} random pulses, max |ODE - map| = {distances.max():.3e} "
          f"-> {out_dir / 'verify.json'}")
    return EXIT_OK


def _target_span_basis(target: TargetState) -> DarkBasis:
    """Orthonormalized target span as a Bloch basis for the final stage."""
    b1 = target.psi1 / np.linalg.norm(target.psi1)
    raw = target.psi2 - (b1.conj() @ target.psi2) * b1
    b2 = raw / np.linalg.norm(raw)
    return DarkBasis(n1=b1, n2=b2, phi_perp=_span_normal(target.psi1, target.psi2))


def cmd_bloch_export(cfg: ExperimentConfig, sequence_path, out_dir: Path) -> int:
    steps = load_sequence(sequence_path, cfg)
    if not steps:
        raise ConfigError(f"sequence file {sequence_path}: needs at least one step")
    grid = initial_state_grid(cfg.grid_resolution)
    vecs = pure_state_vectors(grid.states)

    points, radii = [], []
    for stage in range(1, len(steps) + 1):
        k, c = sequence_affine(steps[:stage])
        out = (vecs @ k.T + c).reshape(-1, 4, 4)
        out = 0.5 * (out + out.swapaxes(-1, -2).conj())
        DensityOperator.validate(out)
        if stage < len(steps):
            basis = dark_basis(steps[stage - 1])
        else:
            basis = _target_span_basis(cfg.target)
        coords = bloch_coords(out, basis)
        points.append(np.column_stack([np.full(len(coords), stage), coords]))
        centroid = coords[:, :3].mean(axis=0)
        radii.append((stage, float(np.linalg.norm(coords[:, :3] - centroid, axis=1).max())))

    write_csv(out_dir / "bloch_points.csv", ["stage", "x", "y", "z", "in_span_weight"],
              np.concatenate(points))
    write_csv(out_dir / "bloch_radii.csv", ["stage", "radius"], radii)
    shown = ", ".join(f"{radius:.3e}" for _, radius in radii)
    print(f"bloch-export: {len(steps)} stage(s) x {len(grid)} points; "
          f"stage radii [{shown}] -> {out_dir}")
    return EXIT_OK


def cmd_spectrum(cfg: ExperimentConfig, out_dir: Path, angles: tuple[float, ...] | None) -> int:
    if angles is not None:
        fp = FieldParams(theta=angles[0], phi=angles[1], mu_minus=angles[2],
                         mu_plus=angles[3], omega_peak=cfg.omega_peak, envelope=cfg.envelope)
    elif cfg.field_params is not None:
        fp = cfg.field_params
    else:
        fp = field_for_span(cfg.target.psi1, cfg.target.psi2,
                            omega_peak=cfg.omega_peak, envelope=cfg.envelope)
    liou = build_liouvillian(fp, cfg.rates, 1.0)
    eigenvalues = np.linalg.eigvals(liou.m)
    order = np.lexsort((eigenvalues.imag, eigenvalues.real))
    eigenvalues = eigenvalues[order]
    subspace = zero_subspace(liou)
    span_gap = float(np.max(subspace_angles(subspace.right.T, subspace.left.T)))
    rate = slowest_rate(liou)
    doc = {
        "field": {"theta": fp.theta, "phi": fp.phi, "mu_minus": fp.mu_minus,
                  "mu_plus": fp.mu_plus, "xi": fp.xi, "delta": fp.delta,
                  "omega_peak": fp.omega_peak},
        "mode": cfg.mode.value,
        "eigenvalues": [[float(z.real), float(z.imag)] for z in eigenvalues],
        "zero_dimension": subspace.dimension,
        "left_right_max_principal_angle_rad": span_gap,
        "left_right_spans_coincide": bool(span_gap < 1e-9),
        "slowest_rate": rate,
        "recommended_durations": {f"{r:.0e}": recommended_duration(liou, r)
                                  for r in RESIDUAL_LADDER},
        "transpose_convention": transpose_convention_diagnostic(liou),
    }
    _write_json(out_dir / "spectrum.json", doc)
    print(f"spectrum: zero_dimension={subspace.dimension} slowest_rate={rate:.6g} "
          f"-> {out_dir / 'spectrum.json'}")
    return EXIT_OK


def cmd_sweep_purity(cfg: ExperimentConfig, out_dir: Path) -> int:
    if cfg.weight_list is None or cfg.n_list is None:
        raise ConfigError("sweep-purity requires 'weight_list' and 'N_list' in the config")
    grid = initial_state_grid(cfg.grid_resolution)
    rows = purity_sweep((cfg.target.psi1, cfg.target.psi2), cfg.weight_list, cfg.n_list,
                        cfg.optimizer.seed, grid=grid, restarts=cfg.optimizer.restarts,
                        max_iter=cfg.optimizer.max_iter, tol=cfg.optimizer.tol)
    write_csv(out_dir / "purity_sweep.csv",
              ["p1", "N", "rms_objective", "max_distance", "iterations"],
              [[r["p1"], r["n_steps"], r["rms_objective"], r["max_distance"], r["iterations"]]
               for r in rows])
    print(f"sweep-purity: {len(rows)} row(s) -> {out_dir / 'purity_sweep.csv'}")
    return EXIT_OK


def cmd_reproduce(cfg: ExperimentConfig, out_dir: Path, strict: bool) -> int:
    opt_dir = out_dir / "optimize"
    sim_dir = out_dir / "simulate"
    bloch_dir = out_dir / "bloch"
    for d in (opt_dir, sim_dir, bloch_dir):
        d.mkdir(parents=True, exist_ok=True)
    code = cmd_optimize(cfg, opt_dir, strict)
    if code != EXIT_OK:
        return code
    sequence = opt_dir / "result.json"
    code = cmd_simulate(cfg, sequence, sim_dir)
    if code != EXIT_OK:
        return code
    return cmd_bloch_export(cfg, sequence, bloch_dir)


def _parse_angles(text: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ConfigError("--angles expects 'theta,phi,mu_minus,mu_plus'")
    try:
        return tuple(read_number(float(p), "--angles") for p in parts)
    except ValueError as exc:
        raise ConfigError(f"--angles: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="darkpulse",
        description="Engineer pure and mixed states in the dark subspace of a "
                    "four-level lambda system via relaxation pulse sequences.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True, sequence=False, seed=False, strict=False, threads=True):
        p.add_argument("--config", required=config_required,
                       help="experiment config JSON" + ("" if config_required
                            else " (default: bundled reference scenario)"))
        if sequence:
            p.add_argument("--sequence", required=True,
                           help="result.json produced by the optimize command")
        p.add_argument("--out", required=True, help="output directory")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if threads:
            p.add_argument("--threads", type=int, default=1,
                           help="worker threads (used by verify; other commands run on one)")
        if strict:
            p.add_argument("--strict", action="store_true",
                           help="exit 3 when the optimizer does not converge")

    common(sub.add_parser("optimize", help="search for a steering pulse sequence"),
           seed=True, strict=True)
    common(sub.add_parser("simulate", help="integrate the master equation through a sequence"),
           sequence=True)
    p = sub.add_parser("verify", help="certify analytic maps against the full dynamics")
    common(p, seed=True)
    p.add_argument("--states", type=int, default=20, help="number of random cases")
    p = sub.add_parser("bloch-export", help="export staged Bloch point clouds")
    common(p, sequence=True)
    p = sub.add_parser("spectrum", help="eigenvalues and zero-subspace diagnostics")
    common(p, threads=False)
    p.add_argument("--angles", default=None,
                   help="field angles 'theta,phi,mu_minus,mu_plus' "
                        "(default: config field block, else the target-span field)")
    common(sub.add_parser("sweep-purity", help="objective vs target purity and step count"),
           seed=True, threads=False)
    common(sub.add_parser("reproduce-paper",
                          help="run the bundled reference scenario end to end"),
           config_required=False, seed=True, strict=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config_path = args.config
        if config_path is None:
            config_path = bundled_config_path()
        cfg = load_config(config_path)
        if getattr(args, "threads", 1) < 1:
            raise ConfigError(f"--threads: must be at least 1, got {args.threads}")
        if args.command == "verify" and args.states < 1:
            raise ConfigError(f"--states: must be at least 1, got {args.states}")
        if getattr(args, "seed", None) is not None:
            if args.seed < 0:
                raise ConfigError("--seed: must be nonnegative")
            cfg = replace(cfg, optimizer=replace(cfg.optimizer, seed=args.seed))
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)

        if args.command == "optimize":
            return cmd_optimize(cfg, out_dir, args.strict)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.sequence, out_dir)
        if args.command == "verify":
            return cmd_verify(cfg, out_dir, args.states, cfg.optimizer.seed, args.threads)
        if args.command == "bloch-export":
            return cmd_bloch_export(cfg, args.sequence, out_dir)
        if args.command == "spectrum":
            angles = _parse_angles(args.angles) if args.angles else None
            return cmd_spectrum(cfg, out_dir, angles)
        if args.command == "sweep-purity":
            return cmd_sweep_purity(cfg, out_dir)
        if args.command == "reproduce-paper":
            return cmd_reproduce(cfg, out_dir, args.strict)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (StepSizeUnderflow, PositivityViolation) as exc:
        print(f"integrator error: {exc}", file=sys.stderr)
        return EXIT_INTEGRATOR
    except (UnstableSpectrum, UnexpectedDimension) as exc:
        print(f"spectrum error: {exc}", file=sys.stderr)
        return EXIT_SPECTRUM


if __name__ == "__main__":
    sys.exit(main())

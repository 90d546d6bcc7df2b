"""Command-line surface: experiment orchestration and bit-exact data exports.

Subcommands: optimize, simulate, verify, bloch-export, spectrum, sweep-purity,
and reproduce-paper (which chains optimize -> simulate -> bloch-export on the
bundled reference scenario).  All outputs are pure functions of the config and
seed; wall-clock times live in a separate "meta" block so the data artifacts
are byte-identical across repeated runs.

Exit codes: 0 success, 2 config validation, 3 non-convergence (or, for verify, an
uncertified map) under --strict, 4 integrator failure, 5 unstable spectrum.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np

from .config import (MAX_STATES, ExperimentConfig, atomic_write_text, load_config, load_sequence,
                     sequence_doc, write_csv)
from .core import (DarkBasis, FieldParams, TargetState, _span_normal, bloch_coords, dark_basis,
                   field_for_span, pure_state_dyads)
from .dynamics import recommended_duration, run_sequence, verify_map, write_trajectory_csv
from .errors import (ConfigError, PositivityViolation, StepSizeUnderflow, TraceViolation,
                     UnexpectedDimension, UnstableSpectrum)
from .liouville import (build_liouvillian, principal_angles, slowest_rate,
                        transpose_convention_diagnostic, zero_subspace)
from .maps import compose_sequence, hs_distance, mismatch
from .optimize import initial_state_grid, optimize_sequence, random_pure_states, state_distances

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_INTEGRATOR = 4
EXIT_SPECTRUM = 5

RESIDUAL_LADDER = (1e-6, 1e-10, 1e-12)


def bundled_config_path() -> Path:
    """Path of the packaged reference-scenario configuration."""
    return Path(resources.files("darkpulse").joinpath("data/paper_target.json"))


def _report(line: str) -> None:
    """Print a summary line; a closed stdout is pointed at os.devnull and the run goes on."""
    try:
        print(line, flush=True)
    except BrokenPipeError:  # so the exit flush of the held line cannot fail either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _write_json(path: Path, doc: dict) -> None:
    atomic_write_text(path, json.dumps(doc, indent=2, allow_nan=False) + "\n")


def _stats(distances: np.ndarray) -> dict:
    hs, mis = distances[:, 0], distances[:, 1]
    return {
        "rms_hs": float(np.sqrt(np.mean(hs ** 2))),
        "max_hs": float(hs.max()),
        "rms_mismatch": float(np.sqrt(np.mean(mis ** 2))),
        "max_mismatch": float(mis.max()),
    }


def cmd_optimize(cfg: ExperimentConfig, out_dir: Path, strict: bool) -> int:
    started = time.perf_counter()
    # the steps form one key (the config's drive at zero detuning), run for one duration;
    # an unresolvable one fails here, on the key's canonical field, not after the search
    canonical = build_liouvillian(FieldParams(0.0, 0.0, 0.0, 0.0, omega_peak=cfg.omega_peak,
                                              envelope=cfg.envelope), cfg.rates, 1.0)
    recommended_duration(slowest_rate(canonical), cfg.integrator.residual)
    grid = initial_state_grid(cfg.grid_resolution)
    result = optimize_sequence(cfg.steps, cfg.target, grid, cfg.optimizer)
    test_states = random_pure_states(cfg.optimizer.test_states, [cfg.optimizer.seed, 1])
    test_distances = state_distances(test_states, result.sequence, cfg.target)

    doc = {
        "sequence": sequence_doc(result.sequence),
        "objective_rms": result.objective_value,
        "train_stats": _stats(result.per_state_distances),
        "test_stats": {**_stats(test_distances), "n_states": int(test_states.shape[0])},
        "restarts": [record._asdict() for record in result.restarts],
        "seed": cfg.optimizer.seed,
        "converged": result.converged,
        "grid_resolution": cfg.grid_resolution,
        "meta": {"wall_time_s": time.perf_counter() - started},
    }
    _write_json(out_dir / "result.json", doc)
    _report(f"optimize: objective_rms={result.objective_value:.3e} "
            f"converged={result.converged} -> {out_dir / 'result.json'}")
    if strict and not result.converged:
        best = min(r.final_value for r in result.restarts)
        history = ", ".join(f"{r.final_value:.6e} ({r.termination})" for r in result.restarts)
        print(f"optimize: not converged: best value {best:.6e} is not "
              f"below tol {cfg.optimizer.tol:g}; restarts: {history}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_simulate(cfg: ExperimentConfig, sequence_path, out_dir: Path) -> int:
    started = time.perf_counter()
    steps = load_sequence(sequence_path, cfg)
    psis = cfg.initial_states if cfg.initial_states is not None else np.array([[1.0, 0.0, 0.0]])

    # one block through the whole sequence: one propagator per distinct pulse key
    initial = pure_state_dyads(psis)
    rows = [{"state_index": i, "trajectories": [], "pulses": []} for i in range(len(initial))]
    per_pulse = run_sequence(initial, steps, cfg.rates, cfg.integrator)
    for l, traj in enumerate(per_pulse):
        for s, (row, record) in enumerate(zip(rows, traj.records)):
            path = out_dir / f"trajectory_state{s:03d}_pulse{l:02d}.csv"
            write_trajectory_csv(traj, s, path)
            row["trajectories"].append(path.name)
            row["pulses"].append(record._asdict())

    target = cfg.target.density_matrix()
    ode = per_pulse[-1].states[:, -1] if per_pulse else initial
    mapped = compose_sequence(initial, steps)
    columns = {"hs_ode_vs_map": hs_distance(ode, mapped),
               "hs_ode_vs_target": hs_distance(ode, target),
               "hs_map_vs_target": hs_distance(mapped, target),
               "mismatch_ode_vs_target": mismatch(ode, target),
               "mismatch_map_vs_target": mismatch(mapped, target)}
    for i, row in enumerate(rows):
        row.update({name: float(values[i]) for name, values in columns.items()})

    doc = {
        "mode": cfg.rates.mode.value,
        "pulses": [{"duration": float(traj.times[-1]), "propagator": traj.propagator,
                    "nfev": traj.nfev} for traj in per_pulse],
        "states": rows,
        "max_hs_ode_vs_map": max((r["hs_ode_vs_map"] for r in rows), default=0.0),
        "meta": {"wall_time_s": time.perf_counter() - started},
    }
    _write_json(out_dir / "summary.json", doc)
    _report(f"simulate: {len(rows)} state(s) through {len(steps)} pulse(s); "
            f"max |ODE - map| = {doc['max_hs_ode_vs_map']:.3e} -> {out_dir / 'summary.json'}")
    return EXIT_OK


def cmd_verify(cfg: ExperimentConfig, out_dir: Path, n_states: int, strict: bool) -> int:
    started = time.perf_counter()
    seed = cfg.optimizer.seed
    rng = np.random.default_rng([seed, 2])
    angles = rng.uniform(0.0, 2.0 * np.pi, size=(n_states, 4))
    angles[:, 0] = rng.uniform(0.0, np.pi, size=n_states)
    states = random_pure_states(n_states, [seed, 3])

    fields = [FieldParams(theta=a[0], phi=a[1], mu_minus=a[2], mu_plus=a[3],
                          omega_peak=cfg.omega_peak, envelope=cfg.envelope) for a in angles]
    distances, keys = verify_map(pure_state_dyads(states), fields, cfg.rates, cfg.integrator)
    rows = [{"index": i, "theta": fp.theta, "phi": fp.phi, "mu_minus": fp.mu_minus,
             "mu_plus": fp.mu_plus, "distance": float(distance)}
            for i, (fp, distance) in enumerate(zip(fields, distances))]
    doc = {
        "mode": cfg.rates.mode.value,
        "residual": cfg.integrator.residual,
        "seed": seed,
        "max_distance": float(distances.max()),
        "mean_distance": float(distances.mean()),
        # every endpoint lies within twice the residual the durations were chosen for
        "certified": bool(distances.max() <= 2.0 * cfg.integrator.residual),
        "keys": list(keys),
        "cases": rows,
        "meta": {"wall_time_s": time.perf_counter() - started},
    }
    _write_json(out_dir / "verify.json", doc)
    _report(f"verify: {n_states} random pulses, max |ODE - map| = {distances.max():.3e} "
            f"-> {out_dir / 'verify.json'}")
    return EXIT_NO_CONVERGENCE if strict and not doc["certified"] else EXIT_OK


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
    dyads = pure_state_dyads(grid)

    points, radii = [], []
    for stage in range(1, len(steps) + 1):
        out = compose_sequence(dyads, steps[:stage])
        # made exactly Hermitian: the exported coordinates are taken from this form
        out = 0.5 * (out + out.swapaxes(-1, -2).conj())
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
    _report(f"bloch-export: {len(steps)} stage(s) x {len(grid)} points; "
            f"stage radii [{shown}] -> {out_dir}")
    return EXIT_OK


def cmd_spectrum(cfg: ExperimentConfig, out_dir: Path) -> int:
    if cfg.field_params is not None:
        fp = cfg.field_params
    else:
        fp = replace(field_for_span(cfg.target.psi1, cfg.target.psi2),
                     omega_peak=cfg.omega_peak, envelope=cfg.envelope)
    liou = build_liouvillian(fp, cfg.rates, 1.0)
    eigenvalues = np.sort_complex(np.linalg.eigvals(liou.m))  # by real, then imaginary part
    subspace = zero_subspace(liou)
    span_gap = float(np.max(principal_angles(subspace.right.T, subspace.left.T)))
    rate = slowest_rate(liou)
    doc = {
        "field": {"theta": fp.theta, "phi": fp.phi, "mu_minus": fp.mu_minus,
                  "mu_plus": fp.mu_plus, "xi": fp.xi, "delta": fp.delta,
                  "omega_peak": fp.omega_peak},
        "mode": cfg.rates.mode.value,
        "eigenvalues": [[float(z.real), float(z.imag)] for z in eigenvalues],
        "zero_dimension": subspace.dimension,
        "left_right_max_principal_angle_rad": span_gap,
        "left_right_spans_coincide": bool(span_gap < 1e-9),
        "slowest_rate": rate,
        "recommended_durations": {f"{r:.0e}": recommended_duration(rate, r)
                                  for r in RESIDUAL_LADDER},
        "transpose_convention": transpose_convention_diagnostic(subspace),
    }
    _write_json(out_dir / "spectrum.json", doc)
    _report(f"spectrum: zero_dimension={subspace.dimension} slowest_rate={rate:.6g} "
            f"-> {out_dir / 'spectrum.json'}")
    return EXIT_OK


def cmd_sweep_purity(cfg: ExperimentConfig, out_dir: Path) -> int:
    if cfg.weight_list is None or cfg.n_list is None:
        raise ConfigError("sweep-purity requires 'weight_list' and 'N_list' in the config")
    grid = initial_state_grid(cfg.grid_resolution)
    rows = []
    for p1 in cfg.weight_list:
        target = replace(cfg.target, weights=(p1, 1.0 - p1))
        for n in cfg.n_list:
            result = optimize_sequence(n, target, grid, cfg.optimizer)
            rows.append([p1, n, result.objective_value, result.per_state_distances[:, 0].max(),
                         result.iterations])
    write_csv(out_dir / "purity_sweep.csv",
              ["p1", "N", "rms_objective", "max_distance", "iterations"], rows)
    _report(f"sweep-purity: {len(rows)} row(s) -> {out_dir / 'purity_sweep.csv'}")
    return EXIT_OK


def cmd_reproduce(cfg: ExperimentConfig, out_dir: Path, strict: bool) -> int:
    opt_dir, sim_dir, bloch_dir = (out_dir / name for name in ("optimize", "simulate", "bloch"))
    for d in (opt_dir, sim_dir, bloch_dir):
        d.mkdir(parents=True, exist_ok=True)
    code = cmd_optimize(cfg, opt_dir, strict)
    if code != EXIT_OK:
        return code
    sequence = opt_dir / "result.json"
    cmd_simulate(cfg, sequence, sim_dir)
    return cmd_bloch_export(cfg, sequence, bloch_dir)


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
                           help="accepted for compatibility; has no effect (every command "
                                "runs on one thread)")
        if strict:
            p.add_argument("--strict", action="store_true", help=f"exit 3 when {strict}")

    common(sub.add_parser("optimize", help="search for a steering pulse sequence"),
           seed=True, strict="the optimizer does not converge")
    common(sub.add_parser("simulate", help="integrate the master equation through a sequence"),
           sequence=True)
    p = sub.add_parser("verify", help="certify analytic maps against the full dynamics")
    common(p, seed=True, strict="the map is not certified")
    p.add_argument("--states", type=int, default=20, help="number of random cases")
    p = sub.add_parser("bloch-export", help="export staged Bloch point clouds")
    common(p, sequence=True)
    common(sub.add_parser("spectrum", help="eigenvalues and zero-subspace diagnostics of the "
                          "config's field block, else of the target-span field"), threads=False)
    common(sub.add_parser("sweep-purity", help="objective vs target purity and step count"),
           seed=True, threads=False)
    common(sub.add_parser("reproduce-paper",
                          help="run the bundled reference scenario end to end"),
           config_required=False, seed=True, strict="the optimizer does not converge")
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
        if args.command == "verify" and args.states > MAX_STATES:
            raise ConfigError(f"--states: must be at most {MAX_STATES}, got {args.states}")
        if getattr(args, "seed", None) is not None:
            try:
                cfg = replace(cfg, optimizer=replace(cfg.optimizer, seed=args.seed))
            except ValueError as exc:  # OptimizerSettings holds the seed's bound
                raise ConfigError(f"--seed: {exc}") from exc
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)

        if args.command == "optimize":
            return cmd_optimize(cfg, out_dir, args.strict)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.sequence, out_dir)
        if args.command == "verify":
            return cmd_verify(cfg, out_dir, args.states, args.strict)
        if args.command == "bloch-export":
            return cmd_bloch_export(cfg, args.sequence, out_dir)
        if args.command == "spectrum":
            return cmd_spectrum(cfg, out_dir)
        if args.command == "sweep-purity":
            return cmd_sweep_purity(cfg, out_dir)
        if args.command == "reproduce-paper":
            return cmd_reproduce(cfg, out_dir, args.strict)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # an admitted count can still size arrays past the memory
        print(f"config error: the requested sizes do not fit in memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # inputs fail as ConfigError, so a path fault here is --out's
        if exc.filename is None:  # not a path, e.g. a full disk
            raise
        print(f"config error: --out: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (StepSizeUnderflow, PositivityViolation, TraceViolation) as exc:
        print(f"integrator error: {exc}", file=sys.stderr)
        return EXIT_INTEGRATOR
    except (UnstableSpectrum, UnexpectedDimension) as exc:
        print(f"spectrum error: {exc}", file=sys.stderr)
        return EXIT_SPECTRUM


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark workloads: seeded inputs, the CLI calls of one pass, and its checks.

Each workload writes its configs from the benchmark seed, then a pass is a
fixed list of ``darkpulse`` CLI calls (all with ``--threads 1``) plus checks
on the artifacts they wrote.  A warm-up pass runs the same calls on tiny
inputs, so lazy imports and first-call set-up land in set-up time.

Why these three:

- ``reproduce_paper`` is the paper's headline command.  Nearly all of its
  time is the optimizer's objective loop (FieldParams, dark_basis, maps).
  The optimizer seed stays at the bundled 7: iteration counts depend on it
  (252 / 241 / 404 for seeds 7 / 11 / 12), so the benchmark seed only draws
  the simulated initial state.
- ``certify_square`` certifies random square-envelope pulses against the
  master equation in both regimes.  RK45, ``build_liouvillian`` and
  ``slowest_rate`` do the work; the optimizer does none.  A constant
  generator admits an exact-propagator shortcut.
- ``sine_export`` runs the same dynamics layer with a time-dependent
  (sine-squared) generator, which a square-only shortcut bypasses, through a
  stored sequence that optimizer changes cannot alter, then maps a 2401-state
  grid through every stage.  It is write-heavy.  ``make_sequence.py`` wrote
  the stored sequence and records how in ``data/sequence.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
STORED_SEQUENCE = HERE / "data" / "sequence.json"

TRAIN_RMS_MAX = 1e-4
TEST_MAX_HS_MAX = 1e-3
ODE_MAP_MAX = 1e-6
FINAL_RADIUS_MAX = 1e-3
VERIFY_DISTANCE_MAX = 1e-6
VERIFY_STATES = 40
SINE_STATES = 4
SINE_GRID = 7
# sine_export's physics, shared with the optimize run that made its sequence
SINE_SETTINGS = {"mode": "beta", "envelope": "sine_squared",
                 "rates": {"gamma_in": 1.0, "gamma_ext": 1.0, "r_pump": 1.0}}


@dataclass(frozen=True)
class Workload:
    name: str
    # (inputs dir, seed, warm) -> argv lists of one pass, with "{out}" for the pass dir
    make_pass: Callable[[Path, int, bool], list[list[str]]]
    # pass dir -> (failure messages, ODE-vs-map gap reported by the artifacts)
    check: Callable[[Path], tuple[list[str], float]]


def bundled_doc() -> dict:
    from darkpulse.cli import bundled_config_path
    return json.loads(bundled_config_path().read_text())


def _states_doc(n: int, seed: int, stream: int) -> list:
    rng = np.random.default_rng([seed, stream])
    psis = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    psis /= np.linalg.norm(psis, axis=1)[:, None]
    return [[[float(z.real), float(z.imag)] for z in psi] for psi in psis]


def _write_json(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return str(path)


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _final_radius_failures(radii_csv: Path, require_smallest: bool) -> list[str]:
    rows = radii_csv.read_text().splitlines()[1:]
    radii = [float(row.split(",")[1]) for row in rows]
    out = []
    if not radii[-1] < FINAL_RADIUS_MAX:
        out.append(f"final Bloch radius {radii[-1]:.3e} >= {FINAL_RADIUS_MAX}")
    if require_smallest and radii[-1] != min(radii):
        out.append(f"final Bloch radius {radii[-1]:.3e} is not the smallest of {radii}")
    return out


# -- reproduce_paper ---------------------------------------------------------

def _reproduce_pass(inputs: Path, seed: int, warm: bool) -> list[list[str]]:
    doc = bundled_doc()
    doc["initial_states"] = _states_doc(1, seed, 0)
    if warm:
        doc.update(steps=1, grid_resolution=2)
        doc["optimizer"].update(restarts=1, max_iter=3, test_states=10)
    config = _write_json(inputs / ("reproduce_warm.json" if warm else "reproduce.json"), doc)
    return [["reproduce-paper", "--config", config, "--out", "{out}", "--threads", "1"]]


def _reproduce_check(out: Path) -> tuple[list[str], float]:
    result = _read_json(out / "optimize" / "result.json")
    summary = _read_json(out / "simulate" / "summary.json")
    failures = []
    if not result["converged"]:
        failures.append("optimizer did not converge")
    if not result["train_stats"]["rms_hs"] < TRAIN_RMS_MAX:
        failures.append(f"training RMS {result['train_stats']['rms_hs']:.3e} >= {TRAIN_RMS_MAX}")
    if not result["test_stats"]["max_hs"] < TEST_MAX_HS_MAX:
        failures.append(f"test max_hs {result['test_stats']['max_hs']:.3e} >= {TEST_MAX_HS_MAX}")
    gap = summary["max_hs_ode_vs_map"]
    if not gap < ODE_MAP_MAX:
        failures.append(f"simulate ODE-vs-map {gap:.3e} >= {ODE_MAP_MAX}")
    failures += _final_radius_failures(out / "bloch" / "bloch_radii.csv", require_smallest=True)
    return failures, gap


# -- certify_square ----------------------------------------------------------

def _certify_pass(inputs: Path, seed: int, warm: bool) -> list[list[str]]:
    n_states = 1 if warm else VERIFY_STATES
    argv = []
    for mode, rates in (("alpha", {"gamma_in": 1.0, "gamma_ext": 0.0, "r_pump": 0.0}),
                        ("beta", {"gamma_in": 1.0, "gamma_ext": 1.0, "r_pump": 1.0})):
        doc = bundled_doc()
        doc.update(mode=mode, rates=rates, envelope="square")
        config = _write_json(inputs / f"certify_{mode}.json", doc)
        argv.append(["verify", "--config", config, "--out", "{out}/" + mode,
                     "--states", str(n_states), "--seed", str(seed), "--threads", "1"])
    return argv


def _certify_check(out: Path) -> tuple[list[str], float]:
    failures, gaps = [], []
    for mode in ("alpha", "beta"):
        distance = _read_json(out / mode / "verify.json")["max_distance"]
        gaps.append(distance)
        if not distance < VERIFY_DISTANCE_MAX:
            failures.append(f"verify {mode}: max_distance {distance:.3e} >= {VERIFY_DISTANCE_MAX}")
    return failures, max(gaps)


# -- sine_export -------------------------------------------------------------

def _sine_pass(inputs: Path, seed: int, warm: bool) -> list[list[str]]:
    doc = bundled_doc()
    doc.update(SINE_SETTINGS, grid_resolution=2 if warm else SINE_GRID,
               initial_states=_states_doc(1 if warm else SINE_STATES, seed, 1))
    sequence = str(STORED_SEQUENCE)
    if warm:
        stored = _read_json(STORED_SEQUENCE)
        stored["sequence"]["steps"] = stored["sequence"]["steps"][:1]
        sequence = _write_json(inputs / "sine_sequence_warm.json", stored)
    config = _write_json(inputs / ("sine_warm.json" if warm else "sine.json"), doc)
    common = ["--config", config, "--sequence", sequence]
    return [["simulate", *common, "--out", "{out}/simulate", "--threads", "1"],
            ["bloch-export", *common, "--out", "{out}/bloch", "--threads", "1"]]


def _sine_check(out: Path) -> tuple[list[str], float]:
    gap = _read_json(out / "simulate" / "summary.json")["max_hs_ode_vs_map"]
    return _final_radius_failures(out / "bloch" / "bloch_radii.csv", require_smallest=False), gap


WORKLOADS = {w.name: w for w in (
    Workload("reproduce_paper", _reproduce_pass, _reproduce_check),
    Workload("certify_square", _certify_pass, _certify_check),
    Workload("sine_export", _sine_pass, _sine_check),
)}

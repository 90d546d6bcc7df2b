"""CLI surface: exit codes, artifact formats, and byte-exact determinism."""

import csv
import dataclasses
import importlib.util
import json
import os
import re
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from darkpulse import (FieldParams, OptimizerSettings, TargetState, initial_state_grid,
                       optimize_sequence)
from darkpulse.cli import _write_json, build_parser, bundled_config_path, main
from darkpulse.config import load_config, sequence_doc, write_csv

ROOT = Path(__file__).resolve().parents[1]


def write_config(path, **overrides):
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
        "optimizer": {"seed": 3, "restarts": 1, "max_iter": 40, "tol": 1e-6,
                      "test_states": 20},
        "integrator": {"rtol": 1e-9, "atol": 1e-12, "residual": 1e-8},
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


SEQUENCE_STEP = {"theta": 0.7, "phi": 1.1, "mu_minus": 0.3, "mu_plus": 2.0}

THREE_STATES = [
    [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
    [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
    [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
]


def tiny_bundled_config(path, **changes):
    """The bundled scenario on a tiny budget: one step, one short restart, a 2-point grid."""
    doc = json.loads(bundled_config_path().read_text())
    doc.update(steps=1, grid_resolution=2, weight_list=[0.5], N_list=[1], **changes)
    doc["optimizer"].update(restarts=1, max_iter=3, test_states=5)
    path.write_text(json.dumps(doc))
    return path


def without_wall_time(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if "wall_time_s" not in line)


@pytest.fixture
def config_path(tmp_path):
    return write_config(tmp_path / "config.json")


class TestOptimizeCommand:
    def test_writes_result_and_reports_stats(self, tmp_path, config_path):
        out = tmp_path / "out"
        assert main(["optimize", "--config", str(config_path), "--out", str(out)]) == 0
        doc = json.loads((out / "result.json").read_text())
        assert len(doc["sequence"]["steps"]) == 2
        # a step holds only what the search decides: simulate takes the drive from
        # its config, and each pulse's duration from relaxation
        assert set(doc["sequence"]) == {"steps"}
        for step in doc["sequence"]["steps"]:
            assert set(step) == {"theta", "phi", "mu_minus", "mu_plus", "xi", "delta"}
            assert 0.0 <= step["theta"] <= np.pi
        assert set(doc["train_stats"]) == {"rms_hs", "max_hs", "rms_mismatch", "max_mismatch"}
        assert doc["test_stats"]["n_states"] == 20
        assert doc["restarts"]
        for record in doc["restarts"]:
            assert set(record) == {"iterations", "function_evals", "final_value",
                                   "gradient_norm", "termination"}
            assert record["gradient_norm"] >= 0.0
        assert not {"objective_history", "iterations"} & set(doc)
        assert "wall_time_s" in doc["meta"]

    def test_deterministic_artifacts(self, tmp_path, config_path):
        texts = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["optimize", "--config", str(config_path), "--out", str(out)]) == 0
            texts.append((out / "result.json").read_text())
        assert without_wall_time(texts[0]) == without_wall_time(texts[1])

    def test_seed_flag_overrides_config(self, tmp_path, config_path):
        out = tmp_path / "seeded"
        assert main(["optimize", "--config", str(config_path), "--out", str(out),
                     "--seed", "9"]) == 0
        assert json.loads((out / "result.json").read_text())["seed"] == 9

    def test_negative_seed_flag_exits_2_naming_the_bound(self, tmp_path, config_path, capsys):
        # the bound is OptimizerSettings', reported under the flag that carried the value
        assert main(["optimize", "--config", str(config_path), "--out", str(tmp_path / "o"),
                     "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "config error: --seed: seed must be at least 0, got -1\n"
        assert not (tmp_path / "o").exists()

    def test_invalid_weights_exit_2_naming_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "bad.json")
        doc = json.loads(cfg.read_text())
        doc["target"]["weights"] = [0.5, 0.4]
        cfg.write_text(json.dumps(doc))
        code = main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "target.weights" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["optimize", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_strict_non_convergence_exit_3(self, tmp_path, capsys):
        # two restarts of 2 iterations cannot reach 1e-6 on this target
        cfg = write_config(tmp_path / "tiny.json",
                           optimizer={"seed": 3, "restarts": 2, "max_iter": 2,
                                      "tol": 1e-6, "test_states": 5})
        assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--strict"]) == 3
        err = capsys.readouterr().err
        # without --strict the same run exits 0 and writes no stderr
        assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "o2")]) == 0
        assert capsys.readouterr().err == ""
        doc = json.loads((tmp_path / "o2" / "result.json").read_text())
        assert [r["termination"] for r in doc["restarts"]] == ["maxiter", "maxiter"]
        # the exit-3 message gives the best value and every restart's value and reason
        history = ", ".join(f"{r['final_value']:.6e} (maxiter)" for r in doc["restarts"])
        best = min(r["final_value"] for r in doc["restarts"])
        assert err == (f"optimize: not converged: best value {best:.6e}"
                       f" is not below tol 1e-06; restarts: {history}\n")

    def test_slowest_rate_is_computed_once(self, tmp_path, config_path, monkeypatch):
        # the pre-search check on the key's canonical field is the only spectrum:
        # result.json holds no durations, so nothing is computed after the search
        import darkpulse.cli as cli

        calls = []

        def counting(liou):
            calls.append(liou)
            return slowest_rate(liou)

        slowest_rate = cli.slowest_rate
        monkeypatch.setattr(cli, "slowest_rate", counting)
        assert main(["optimize", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 1

    def test_threads_below_one_exit_2_naming_flag(self, tmp_path, config_path, capsys):
        for threads in ("0", "-2"):
            assert main(["optimize", "--config", str(config_path), "--out",
                         str(tmp_path / "o"), "--threads", threads]) == 2
            assert "--threads" in capsys.readouterr().err


@pytest.fixture
def optimized(tmp_path, config_path):
    out = tmp_path / "opt"
    assert main(["optimize", "--config", str(config_path), "--out", str(out)]) == 0
    return out / "result.json"


class TestSimulateCommand:
    def test_summary_and_trajectories(self, tmp_path, config_path, optimized):
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(config_path),
                     "--sequence", str(optimized), "--out", str(out)]) == 0
        doc = json.loads((out / "summary.json").read_text())
        assert "n_pulses" not in doc and len(doc["pulses"]) == 2
        assert [set(pulse) for pulse in doc["pulses"]] == [{"duration", "propagator", "nfev"}] * 2
        assert [(p["propagator"], p["nfev"]) for p in doc["pulses"]] == [("exact", 0)] * 2
        state = doc["states"][0]
        assert not {"durations", "propagator", "nfev"} & set(state)
        assert state["hs_ode_vs_map"] < 1e-5
        for name in state["trajectories"]:
            assert (out / name).exists()
        assert len(state["pulses"]) == 2
        for pulse in state["pulses"]:
            assert set(pulse) == {"min_eigenvalue", "max_trace_error"}
            assert pulse["min_eigenvalue"] >= -100 * 1e-12
            assert 0.0 <= pulse["max_trace_error"] < 1e-9  # alpha conserves trace

    def test_sine_squared_pulses_are_integrated(self, tmp_path, optimized):
        cfg = write_config(tmp_path / "sine.json", envelope="sine_squared")
        out = tmp_path / "sims"
        assert main(["simulate", "--config", str(cfg), "--sequence", str(optimized),
                     "--out", str(out)]) == 0
        pulses = json.loads((out / "summary.json").read_text())["pulses"]
        assert [p["propagator"] for p in pulses] == ["rk45", "rk45"]
        # both pulses share one key: the first makes the one solve, the second reuses it
        assert pulses[0]["nfev"] > 0
        assert [p["nfev"] for p in pulses[1:]] == [0]
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "vs"),
                     "--states", "1"]) == 0
        doc = json.loads((tmp_path / "vs" / "verify.json").read_text())
        assert "propagator" not in doc
        # the one case's key makes one solve, which its record counts
        assert [(key["propagator"], key["nfev"] > 0) for key in doc["keys"]] == [("rk45", True)]

    def test_one_pulse_does_not_depend_on_the_state_count(self, tmp_path):
        # a sine-squared key that occurs once makes the same propagator for any block,
        # so the first state's trajectory and the pulse's nfev do not depend on how
        # many states run with it
        sequence = tmp_path / "one_step.json"
        sequence.write_text(json.dumps({"sequence": sequence_doc(
            [FieldParams(0.7, 1.1, 0.3, 2.0)])}))
        doc = json.loads(bundled_config_path().read_text())
        csvs, pulses = [], []
        for n in (1, 3):
            cfg = tmp_path / f"states{n}.json"
            cfg.write_text(json.dumps(dict(doc, envelope="sine_squared",
                                           initial_states=THREE_STATES[:n])))
            out = tmp_path / f"sim{n}"
            assert main(["simulate", "--config", str(cfg), "--sequence", str(sequence),
                         "--out", str(out)]) == 0
            csvs.append((out / "trajectory_state000_pulse00.csv").read_bytes())
            pulses.append(json.loads((out / "summary.json").read_text())["pulses"])
        assert csvs[0] == csvs[1]
        assert pulses[0] == pulses[1]
        assert pulses[0][0]["propagator"] == "rk45" and pulses[0][0]["nfev"] > 0

    def test_deterministic(self, tmp_path, config_path, optimized):
        texts = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            assert main(["simulate", "--config", str(config_path),
                         "--sequence", str(optimized), "--out", str(out)]) == 0
            texts.append((without_wall_time((out / "summary.json").read_text()),
                          (out / "trajectory_state000_pulse00.csv").read_text()))
        assert texts[0] == texts[1]

    def test_threads_do_not_change_results(self, tmp_path, optimized):
        cfg = write_config(tmp_path / "multi.json", initial_states=[
            [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
        ])
        outputs = []
        for name, threads in (("t1", "1"), ("t4", "4")):
            out = tmp_path / name
            assert main(["simulate", "--config", str(cfg), "--sequence", str(optimized),
                         "--out", str(out), "--threads", threads]) == 0
            outputs.append(without_wall_time((out / "summary.json").read_text()))
        assert outputs[0] == outputs[1]

    def test_threads_do_not_change_sine_results(self, tmp_path, optimized):
        cfg = write_config(tmp_path / "multi_sine.json", envelope="sine_squared",
                           initial_states=THREE_STATES)
        outputs = []
        for name, threads in (("t1", "1"), ("t4", "4")):
            out = tmp_path / name
            assert main(["simulate", "--config", str(cfg), "--sequence", str(optimized),
                         "--out", str(out), "--threads", threads]) == 0
            csvs = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
            outputs.append((without_wall_time((out / "summary.json").read_text()), csvs))
        assert len(outputs[0][1]) == 3 * 2
        assert outputs[0] == outputs[1]

    def test_one_solve_per_sine_pulse_for_all_states(self, tmp_path, optimized, monkeypatch):
        import darkpulse.dynamics as dynamics

        solves = []
        solve_ivp = dynamics.solve_ivp

        def counting(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            solves.append(int(sol.nfev))
            return sol

        monkeypatch.setattr(dynamics, "solve_ivp", counting)
        cfg = write_config(tmp_path / "sine3.json", envelope="sine_squared",
                           initial_states=THREE_STATES)
        out = tmp_path / "sim3"
        assert main(["simulate", "--config", str(cfg), "--sequence", str(optimized),
                     "--out", str(out)]) == 0
        doc = json.loads((out / "summary.json").read_text())
        assert len(solves) == 1  # one per pulse key, not per pulse or per state
        assert [p["nfev"] for p in doc["pulses"]] == [solves[0], 0]
        assert [r["state_index"] for r in doc["states"]] == [0, 1, 2]
        for row in doc["states"]:
            assert len(row["pulses"]) == 2
            assert row["hs_ode_vs_map"] < 1e-3

    def test_one_dark_basis_per_pulse(self, tmp_path, monkeypatch):
        # run_sequence's key table makes the bases of all 4 pulses of the stored
        # sequence in one stacked call, and each trajectory carries its pulse's basis to
        # the CSV writer; no one-field dark_basis call is made beside it
        import darkpulse.cli as cli
        import darkpulse.dynamics as dynamics

        calls = []

        def counting(name, original):
            def wrapper(arg):
                calls.append(np.shape(arg) if name == "dark_bases" else name)
                return original(arg)
            return wrapper

        for module, name in ((dynamics, "dark_bases"), (dynamics, "dark_basis"),
                             (cli, "dark_basis")):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        assert main(["simulate", "--config", str(bundled_config_path()), "--sequence",
                     str(ROOT / "perfbench" / "data" / "sequence.json"),
                     "--out", str(tmp_path / "sim")]) == 0
        assert calls == [(4, 4)]

    def test_beta_mode_with_unit_rates(self, tmp_path, optimized):
        cfg = write_config(tmp_path / "beta.json", mode="beta",
                           rates={"gamma_in": 1.0, "gamma_ext": 1.0, "r_pump": 1.0})
        out = tmp_path / "simb"
        assert main(["simulate", "--config", str(cfg), "--sequence", str(optimized),
                     "--out", str(out)]) == 0
        doc = json.loads((out / "summary.json").read_text())
        assert doc["mode"] == "beta"
        assert doc["states"][0]["hs_ode_vs_map"] < 1e-5

    def test_zero_length_sequence_uses_untouched_state(self, tmp_path, config_path):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"sequence": {"mode": "alpha", "steps": []}}))
        out = tmp_path / "sim0"
        assert main(["simulate", "--config", str(config_path),
                     "--sequence", str(empty), "--out", str(out)]) == 0
        doc = json.loads((out / "summary.json").read_text())
        assert doc["pulses"] == []
        state = doc["states"][0]
        assert state["hs_ode_vs_map"] == 0.0
        # distance from untouched |g-> to the mixed target over {g-, gpi}:
        # hs^2 = (1 - 1/2)^2 + (1/2)^2
        assert state["hs_map_vs_target"] == pytest.approx(np.sqrt(0.5), abs=1e-12)


class TestVerifyCommand:
    def test_certifies_and_is_deterministic(self, tmp_path, config_path):
        texts = []
        for name in ("v1", "v2"):
            out = tmp_path / name
            assert main(["verify", "--config", str(config_path), "--out", str(out),
                         "--states", "3"]) == 0
            texts.append(without_wall_time((out / "verify.json").read_text()))
        assert texts[0] == texts[1]
        doc = json.loads((tmp_path / "v1" / "verify.json").read_text())
        assert "n_states" not in doc and len(doc["cases"]) == 3
        assert doc["max_distance"] < 1e-5
        assert "propagator" not in doc
        assert [(key["propagator"], key["nfev"]) for key in doc["keys"]] == [("exact", 0)]

    @pytest.mark.parametrize("envelope, atol, states, certified", [
        pytest.param("square", 1e-12, "3", True, id="square-1e-12-True"),
        pytest.param("sine_squared", 0.5, "1", False, id="sine_squared-0.5-False")])
    def test_certified_within_twice_the_residual(self, tmp_path, envelope, atol, states,
                                                 certified):
        # a sine-squared key misses the map by the gap its duration leaves (1.0e-4 for
        # this case at an absolute tolerance of 0.5), far beyond twice the residual
        doc = json.loads(bundled_config_path().read_text())
        doc["envelope"] = envelope
        doc["integrator"]["atol"] = atol
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "v"),
                     "--states", states, "--seed", "3"]) == 0
        result = json.loads((tmp_path / "v" / "verify.json").read_text())
        assert result["certified"] is certified
        assert (result["max_distance"] <= 2.0 * result["residual"]) is certified

    def test_tiny_atol_keeps_the_floor_above_rounding(self, tmp_path):
        # the eigenvalue floor is -max(100 * atol, 1e-14): at -100 * atol the untouched
        # pure initial state failed on its eigenvalue rounding (-1.4e-16) with exit 4.
        # atol reaches a square key only through the monitor, so every byte matches
        doc = json.loads(bundled_config_path().read_text())
        doc["envelope"] = "square"
        texts = []
        for atol in (1e-12, 1e-18, 1e-300):
            doc["integrator"]["atol"] = atol
            cfg = tmp_path / f"config-{atol!r}.json"
            cfg.write_text(json.dumps(doc))
            out = tmp_path / f"v-{atol!r}"
            assert main(["verify", "--config", str(cfg), "--out", str(out), "--states", "5",
                         "--seed", "3"]) == 0
            texts.append(without_wall_time((out / "verify.json").read_text()))
        assert texts[1] == texts[0] and texts[2] == texts[0]

    def test_threads_flag_has_no_effect(self, tmp_path, config_path):
        texts = []
        for threads in ("1", "4"):
            out = tmp_path / f"t{threads}"
            assert main(["verify", "--config", str(config_path), "--out", str(out),
                         "--states", "3", "--threads", threads]) == 0
            texts.append(without_wall_time((out / "verify.json").read_text()))
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("omega, code", [pytest.param(1e-2, 0, id="0.01"),
                                             pytest.param(1e-3, 4, id="0.001")])
    def test_weak_drive_trace_excursion_exits_4(self, tmp_path, omega, code, capsys):
        # at weak drive the square-pulse snapshots can drift above trace 1 (an open
        # physics fault); the excursion is an integrator error, not a traceback.
        # Every case takes case 0's duration and step: at 1e-2 none drifts and the
        # run certifies, at 1e-3 case 0 drifts; `state s` is the case's index
        doc = json.loads(bundled_config_path().read_text())
        doc.update(omega_peak=omega, envelope="square")
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "v"),
                     "--states", "5", "--seed", "3"]) == code
        err = capsys.readouterr().err
        if code == 0:
            assert err == ""
            assert json.loads((tmp_path / "v" / "verify.json").read_text())["certified"]
        else:
            assert err.startswith("integrator error: state 0: snapshot at t=") and "trace" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("envelope, counted", [("sine_squared", "solve_ivp"),
                                                   ("square", "_expm")])
    def test_one_propagator_per_verify(self, tmp_path, monkeypatch, envelope, counted):
        # every case shares one key, so the run makes one RK45 solve (sine-squared)
        # or one matrix exponential (square), not one per case
        import darkpulse.dynamics as dynamics

        calls = []
        original = getattr(dynamics, counted)

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(dynamics, counted, counting)
        doc = json.loads(bundled_config_path().read_text())
        doc["envelope"] = envelope
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "v"),
                     "--states", "5", "--seed", "3"]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("envelope, code", [("square", 0), ("sine_squared", 3)])
    def test_strict_exits_3_when_uncertified(self, tmp_path, envelope, code):
        # sine-squared pulses stop short of their map (ROADMAP item 2), so that run
        # is uncertified; without --strict both exit 0, and --strict changes no byte
        doc = json.loads(bundled_config_path().read_text())
        doc["envelope"] = envelope
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        argv = ["verify", "--config", str(cfg), "--states", "3", "--seed", "3"]
        assert main(argv + ["--out", str(tmp_path / "plain")]) == 0
        assert main(argv + ["--out", str(tmp_path / "strict"), "--strict"]) == code
        texts = [without_wall_time((tmp_path / name / "verify.json").read_text())
                 for name in ("plain", "strict")]
        assert texts[0] == texts[1]
        assert json.loads((tmp_path / "plain" / "verify.json").read_text())["certified"] is (
            code == 0)

    def test_records_the_key_duration_and_slowest_rate(self, tmp_path, config_path):
        # every case shares one key; its record repeats the spectrum's duration rule
        assert main(["verify", "--config", str(config_path), "--out", str(tmp_path / "v"),
                     "--states", "3"]) == 0
        field = write_config(tmp_path / "field.json",
                             field={"theta": 0.1, "phi": 0.2, "mu_minus": 0.3, "mu_plus": 0.4})
        assert main(["spectrum", "--config", str(field), "--out", str(tmp_path / "s")]) == 0
        keys = json.loads((tmp_path / "v" / "verify.json").read_text())["keys"]
        spectrum = json.loads((tmp_path / "s" / "spectrum.json").read_text())
        assert [key["first_case"] for key in keys] == [0]
        assert keys[0]["slowest_rate"] == pytest.approx(spectrum["slowest_rate"], rel=1e-9)
        assert keys[0]["duration"] == pytest.approx(np.log(1e8) / keys[0]["slowest_rate"],
                                                    rel=1e-15)

    def test_states_below_one_exit_2_naming_flag(self, tmp_path, config_path, capsys):
        for states in ("0", "-3"):
            assert main(["verify", "--config", str(config_path), "--out",
                         str(tmp_path / "v"), "--states", states]) == 2
            assert "--states" in capsys.readouterr().err

    def test_states_past_the_bound_exit_2_before_any_work(self, tmp_path, config_path, capsys):
        # 10**15 cases would end in numpy's MemoryError when the angles are drawn
        assert main(["verify", "--config", str(config_path), "--out", str(tmp_path / "v"),
                     "--states", str(10 ** 15)]) == 2
        assert capsys.readouterr().err == (
            "config error: --states: must be at most 16777216, got 1000000000000000\n")
        assert not (tmp_path / "v").exists()


class TestBlochExportCommand:
    def test_points_and_radii(self, tmp_path, config_path, optimized):
        out = tmp_path / "bloch"
        assert main(["bloch-export", "--config", str(config_path),
                     "--sequence", str(optimized), "--out", str(out)]) == 0
        with open(out / "bloch_points.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 81  # stages x grid
        for row in rows:
            x, y, z = float(row["x"]), float(row["y"]), float(row["z"])
            w = float(row["in_span_weight"])
            if w > 1e-12:
                assert (x * x + y * y + z * z) / (w * w) <= 1.0 + 1e-9
        with open(out / "bloch_radii.csv") as fh:
            radii = {int(r["stage"]): float(r["radius"]) for r in csv.DictReader(fh)}
        assert set(radii) == {1, 2}
        assert all(np.isfinite(v) for v in radii.values())

    def test_deterministic(self, tmp_path, config_path, optimized):
        texts = []
        for name in ("b1", "b2"):
            out = tmp_path / name
            assert main(["bloch-export", "--config", str(config_path),
                         "--sequence", str(optimized), "--out", str(out)]) == 0
            texts.append((out / "bloch_points.csv").read_text()
                         + (out / "bloch_radii.csv").read_text())
        assert texts[0] == texts[1]

    def test_pi_polarized_target_normal_warns_nothing(self, tmp_path):
        # span{|g->, |g+>} has the pi-polarized normal |gpi>, whose field angles
        # are underdetermined; the final-stage basis needs no field at all
        config = write_config(tmp_path / "config.json", target={
            "weights": [0.5, 0.5],
            "psi1": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            "psi2": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
        })
        sequence = tmp_path / "result.json"
        sequence.write_text(json.dumps({"sequence": {"steps": [dict(SEQUENCE_STEP)]}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["bloch-export", "--config", str(config), "--sequence", str(sequence),
                         "--out", str(tmp_path / "b")]) == 0

    def test_empty_sequence_is_a_config_error(self, tmp_path, config_path, capsys):
        sequence = tmp_path / "empty.json"
        sequence.write_text(json.dumps({"sequence": {"steps": []}}))
        out = tmp_path / "b"
        assert main(["bloch-export", "--config", str(config_path), "--sequence", str(sequence),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: sequence file {sequence}: needs at least one step\n"
        assert list(out.glob("*.csv")) == []


class TestSpectrumCommand:
    def test_alpha_report(self, tmp_path, config_path):
        out = tmp_path / "spec"
        assert main(["spectrum", "--config", str(config_path), "--out", str(out)]) == 0
        doc = json.loads((out / "spectrum.json").read_text())
        assert doc["zero_dimension"] == 4
        assert len(doc["eigenvalues"]) == 16
        assert max(re for re, _ in doc["eigenvalues"]) <= 1e-9
        assert doc["slowest_rate"] > 0
        assert set(doc["recommended_durations"]) == {"1e-06", "1e-10", "1e-12"}
        assert not doc["left_right_spans_coincide"]
        # both kernels' dimension is zero_dimension, so the diagnostic does not repeat it
        assert set(doc["transpose_convention"]) == {"coincide", "max_principal_angle_rad"}

    def test_beta_report_and_field_block(self, tmp_path):
        cfg = write_config(tmp_path / "beta.json", mode="beta",
                           rates={"gamma_in": 1.0, "gamma_ext": 1.0, "r_pump": 1.0},
                           field={**SEQUENCE_STEP, "xi": 0.4, "delta": 0.2})
        out = tmp_path / "spec"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "spectrum.json").read_text())
        assert doc["zero_dimension"] == 3
        assert doc["left_right_spans_coincide"]
        assert doc["field"] == {**SEQUENCE_STEP, "xi": 0.4, "delta": 0.2, "omega_peak": 1.0}

    def test_deterministic(self, tmp_path, config_path):
        texts = []
        for name in ("p1", "p2"):
            out = tmp_path / name
            assert main(["spectrum", "--config", str(config_path), "--out", str(out)]) == 0
            texts.append((out / "spectrum.json").read_text())
        assert texts[0] == texts[1]

    def test_one_slowest_rate_per_run(self, tmp_path, config_path, monkeypatch):
        # the three recommended durations come from the rate already in hand;
        # counted wherever a darkpulse module binds slowest_rate
        import darkpulse.cli as cli
        import darkpulse.dynamics as dynamics
        calls = []
        original = cli.slowest_rate

        def counting(liou):
            calls.append(liou)
            return original(liou)

        for module in (cli, dynamics):
            monkeypatch.setattr(module, "slowest_rate", counting)
        out = tmp_path / "spec"
        assert main(["spectrum", "--config", str(config_path), "--out", str(out)]) == 0
        assert len(calls) == 1
        doc = json.loads((out / "spectrum.json").read_text())
        assert doc["recommended_durations"]["1e-10"] == np.log(1.0 / 1e-10) / doc["slowest_rate"]


class TestSweepPurityCommand:
    def test_requires_lists(self, tmp_path, config_path, capsys):
        assert main(["sweep-purity", "--config", str(config_path),
                     "--out", str(tmp_path / "s")]) == 2
        assert "weight_list" in capsys.readouterr().err

    def test_table_written_and_deterministic(self, tmp_path):
        cfg = write_config(tmp_path / "sweep.json", weight_list=[0.5], N_list=[1, 2],
                           optimizer={"seed": 3, "restarts": 1, "max_iter": 10,
                                      "tol": 1e-6, "test_states": 5})
        texts = []
        for name in ("w1", "w2"):
            out = tmp_path / name
            assert main(["sweep-purity", "--config", str(cfg), "--out", str(out)]) == 0
            texts.append((out / "purity_sweep.csv").read_text())
        assert texts[0] == texts[1]
        with open(tmp_path / "w1" / "purity_sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["N"] for r in rows] == ["1", "2"]
        assert {"p1", "N", "rms_objective", "max_distance", "iterations"} == set(rows[0])

    def test_empty_n_list_writes_header_only(self, tmp_path):
        cfg = write_config(tmp_path / "sweep.json", weight_list=[0.5], N_list=[])
        assert main(["sweep-purity", "--config", str(cfg), "--out", str(tmp_path / "w")]) == 0
        text = (tmp_path / "w" / "purity_sweep.csv").read_text()
        assert text == "p1,N,rms_objective,max_distance,iterations\n"

    def test_rows_complete_with_finite_objectives(self, tmp_path):
        cfg = write_config(tmp_path / "sweep.json", weight_list=[0.5, 0.1], N_list=[1, 2],
                           grid_resolution=2,
                           optimizer={"seed": 2, "restarts": 1, "max_iter": 15,
                                      "tol": 1e-6, "test_states": 5})
        assert main(["sweep-purity", "--config", str(cfg), "--out", str(tmp_path / "w")]) == 0
        with open(tmp_path / "w" / "purity_sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(float(r["p1"]), int(r["N"])) for r in rows] == [(0.5, 1), (0.5, 2),
                                                                  (0.1, 1), (0.1, 2)]
        for row in rows:
            assert np.isfinite(float(row["rms_objective"]))
            assert float(row["max_distance"]) >= float(row["rms_objective"]) - 1e-12

    def test_rows_follow_pin_last(self, tmp_path):
        # each row is the optimizer's own run at its (p1, N) under the config's pin_last
        budget = {"restarts": 1, "max_iter": 30, "tol": 1e-6}
        path = write_config(tmp_path / "sweep.json", weight_list=[0.5, 0.2], N_list=[1, 2],
                            optimizer={"seed": 3, "test_states": 5, "pin_last": True,
                                       **budget})
        assert main(["sweep-purity", "--config", str(path), "--out", str(tmp_path / "w")]) == 0
        with open(tmp_path / "w" / "purity_sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        cfg = load_config(path)
        for row in rows:
            p1 = float(row["p1"])
            target = TargetState(weights=(p1, 1.0 - p1), psi1=cfg.target.psi1,
                                 psi2=cfg.target.psi2)
            result = optimize_sequence(int(row["N"]), target, initial_state_grid(3),
                                       OptimizerSettings(seed=3, pin_last=True, **budget))
            assert float(row["rms_objective"]) == result.objective_value
            assert float(row["max_distance"]) == result.per_state_distances[:, 0].max()
            assert int(row["iterations"]) == result.iterations


class TestReproduceCommand:
    def test_chains_all_three_stages(self, tmp_path, config_path):
        out = tmp_path / "repro"
        assert main(["reproduce-paper", "--config", str(config_path),
                     "--out", str(out)]) == 0
        assert (out / "optimize" / "result.json").exists()
        assert (out / "simulate" / "summary.json").exists()
        assert (out / "bloch" / "bloch_points.csv").exists()
        assert (out / "bloch" / "bloch_radii.csv").exists()


class TestFileMode:
    def test_artifacts_follow_the_umask(self, tmp_path, config_path):
        previous = os.umask(0o027)
        try:
            write_csv(tmp_path / "table.csv", ["x"], [[1.0]])
            assert main(["spectrum", "--config", str(config_path),
                         "--out", str(tmp_path / "spec")]) == 0
        finally:
            os.umask(previous)
        for path in (tmp_path / "table.csv", tmp_path / "spec" / "spectrum.json"):
            assert path.stat().st_mode & 0o777 == 0o640

    def test_the_process_umask_is_left_alone(self, tmp_path, monkeypatch):
        # reading the umask means setting it, which would leave a window in which a
        # file made by another thread gets no umask; the kernel applies it instead
        umask = os.umask(0o022)
        os.umask(umask)

        def refuse(mask):
            raise AssertionError("os.umask called")

        monkeypatch.setattr("darkpulse.config.os.umask", refuse)
        write_csv(tmp_path / "table.csv", ["x"], [[1.0]])
        assert (tmp_path / "table.csv").stat().st_mode & 0o777 == 0o666 & ~umask


class TestWriteJson:
    """The writer of every command's JSON document: the standard library's layout."""

    def write(self, tmp_path, doc) -> str:
        _write_json(tmp_path / "doc.json", doc)
        return (tmp_path / "doc.json").read_text()

    def test_round_trip_exact_values(self, tmp_path):
        doc = {
            "a": 1.0 / 3.0,
            "b": [1e-300, 2.5e17, -0.1],
            "c": {"nested": np.pi, "n": 42, "flag": True, "none": None},
            "d": "text",
        }
        assert json.loads(self.write(tmp_path, doc)) == doc
        assert json.loads(self.write(tmp_path, doc))["c"]["flag"] is True

    def test_floats_stay_floats(self, tmp_path):
        parsed = json.loads(self.write(tmp_path, {"x": 1.0, "y": 2, "z": np.float64(3.0)}))
        assert isinstance(parsed["x"], float) and isinstance(parsed["z"], float)
        assert isinstance(parsed["y"], int)

    def test_deterministic_output(self, tmp_path):
        doc = {"z": [0.1, 0.2], "a": {"k": 3.0}, "e": [], "o": {}}
        text = self.write(tmp_path, doc)
        assert text == self.write(tmp_path, doc) == json.dumps(doc, indent=2) + "\n"

    def test_rejects_non_finite(self, tmp_path):
        for value in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                _write_json(tmp_path / "doc.json", {"x": [value]})
        assert not (tmp_path / "doc.json").exists()


class TestFlagAttachment:
    @pytest.mark.parametrize("command, flag", [
        ("simulate", "--strict"), ("bloch-export", "--strict"),
        ("spectrum", "--strict"), ("sweep-purity", "--strict"),
        ("simulate", "--seed"), ("bloch-export", "--seed"), ("spectrum", "--seed"),
        ("spectrum", "--threads"), ("sweep-purity", "--threads"),
        # spectrum's field comes from the config's field block, which also sets xi and delta
        ("spectrum", "--angles"),
    ])
    def test_unused_flag_is_an_argparse_error(self, tmp_path, config_path, command, flag):
        argv = [command, "--config", str(config_path), "--out", str(tmp_path / "o")]
        if command in ("simulate", "bloch-export"):
            argv += ["--sequence", str(tmp_path / "result.json")]
        value = {"--seed": ["3"], "--threads": ["3"], "--angles": ["0.7,1.1,0.3,2.0"]}
        argv += [flag] + value.get(flag, [])
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_benchmark_argv_still_parses(self, tmp_path, monkeypatch):
        spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                      ROOT / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        # the optimize call of perfbench/make_sequence.py
        argvs = [["optimize", "--config", "config.json", "--out", "out", "--threads", "1"]]
        for workload in workloads.WORKLOADS.values():
            for warm in (True, False):
                argvs += workload.make_pass(tmp_path, 11, warm)
        assert {argv[0] for argv in argvs} == {"optimize", "reproduce-paper", "verify",
                                                "simulate", "bloch-export"}
        parser = build_parser()
        for argv in argvs:
            parser.parse_args([arg.replace("{out}", str(tmp_path / "out")) for arg in argv])


NAN, INF = float("nan"), float("inf")


class TestInputEdge:
    """Bad numbers from a config or sequence file exit 2 and name the field."""

    @pytest.mark.parametrize("command, blocker, out", [
        ("spectrum", "f", "f"),
        ("spectrum", "f", "f/sub"),
        ("reproduce-paper", "r/optimize", "r"),
        ("verify", "v/verify.json/", "v"),
    ], ids=["out-is-a-file", "out-under-a-file", "stage-dir-is-a-file", "artifact-is-a-dir"])
    def test_unwritable_out_exits_2_naming_the_path(self, tmp_path, config_path, capsys,
                                                     command, blocker, out):
        # a blocker ending in "/" is a directory, any other a file
        blocked = tmp_path / blocker
        blocked.parent.mkdir(parents=True, exist_ok=True)
        blocked.mkdir() if blocker.endswith("/") else blocked.write_text("")
        argv = [command, "--config", str(config_path), "--out", str(tmp_path / out)]
        assert main(argv + (["--states", "1"] if command == "verify" else [])) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --out: ") and str(blocked) in err
        assert not list(tmp_path.rglob(".tmp-*"))

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
    def test_admitted_count_past_the_memory_exits_2(self, tmp_path):
        # grid_resolution 40 lies within its bound (64), but the grid's (G, 4, 4) stack
        # of dyads alone is 625 MiB, which a 1 GiB address space cannot hold
        resource = pytest.importorskip("resource")
        if not hasattr(resource, "RLIMIT_AS"):
            pytest.skip("RLIMIT_AS is unavailable")
        doc = json.loads(bundled_config_path().read_text())
        doc["grid_resolution"] = 40
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))

        # one BLAS thread, so that no per-thread buffer counts against the limit
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OMP_NUM_THREADS": "1",
               "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-m", "darkpulse.cli", "optimize", "--config",
                               str(config), "--out", str(tmp_path / "o")], env=env,
                              capture_output=True, text=True, timeout=300, check=False,
                              preexec_fn=cap_address_space)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("config error: the requested sizes do not fit in memory: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command, keys, value, named", [
        ("spectrum", ("omega_peak",), NAN, "omega_peak"),
        ("spectrum", ("omega_peak",), INF, "omega_peak"),
        ("spectrum", ("rates", "gamma_in"), INF, "rates.gamma_in"),
        ("spectrum", ("rates", "gamma_in"), NAN, "rates.gamma_in"),
        ("optimize", ("target", "weights", 0), NAN, "target.weights[0]"),
        ("spectrum", ("target", "psi1", 0, 0), NAN, "target.psi1[0][0]"),
        ("sweep-purity", ("weight_list", 0), NAN, "weight_list[0]"),
        ("simulate", ("initial_states", 0, 0, 0), NAN, "initial_states[0][0][0]"),
        ("spectrum", ("field", "delta"), NAN, "field.delta"),
        ("spectrum", ("field", "delta"), INF, "field.delta"),
        ("spectrum", ("field", "theta"), NAN, "field.theta"),
        ("optimize", ("optimizer", "test_states"), 0, "optimizer.test_states"),
        ("optimize", ("optimizer", "test_states"), -1, "optimizer.test_states"),
        ("optimize", ("optimizer", "tol"), NAN, "optimizer.tol"),
        ("verify", ("integrator", "rtol"), NAN, "integrator.rtol"),
        ("verify", ("integrator", "atol"), INF, "integrator.atol"),
        ("simulate", ("steps", 0, "delta"), NAN, "sequence.steps[0].delta"),
        ("simulate", ("steps", 0, "theta"), True, "sequence.steps[0].theta"),
        ("simulate", ("steps", 0, "theta"), "1", "sequence.steps[0].theta"),
        ("verify", ("integrator", "atol"), 1e300, "integrator.atol"),
        ("verify", ("integrator", "rtol"), 1.0, "integrator.rtol"),
        # each count sizes an array: unbounded, numpy fails mid-run or after the search
        ("optimize", ("steps",), 10 ** 15, "steps: must lie in [1, 65536]"),
        ("sweep-purity", ("N_list", 0), 10 ** 15, "N_list[0]: must lie in [1, 65536]"),
        ("optimize", ("optimizer", "test_states"), 10 ** 15,
         "optimizer.test_states: test_states must be at most 16777216"),
        ("optimize", ("grid_resolution",), 10 ** 6, "grid_resolution: must lie in [2, 64]"),
        ("bloch-export", ("grid_resolution",), 10 ** 6, "grid_resolution: must lie in [2, 64]"),
    ])
    def test_bad_number_exits_2_naming_field(self, tmp_path, command, keys, value, named,
                                             capsys):
        doc = json.loads(write_config(tmp_path / "config.json").read_text())
        doc.update(weight_list=[0.5], N_list=[1], field=dict(SEQUENCE_STEP),
                   initial_states=[[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]])
        sequence = {"sequence": {"mode": "alpha", "steps": [dict(SEQUENCE_STEP)]}}
        # simulate's steps are the sequence file's; other commands' are the config's count
        node = sequence["sequence"] if (command, keys[0]) == ("simulate", "steps") else doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        (tmp_path / "config.json").write_text(json.dumps(doc))
        (tmp_path / "result.json").write_text(json.dumps(sequence))
        argv = [command, "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "o")]
        if command in ("simulate", "bloch-export"):
            argv += ["--sequence", str(tmp_path / "result.json")]
        if command == "verify":
            argv += ["--states", "1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert named in err, err

    @pytest.mark.parametrize("command, keys, value, cause", [
        ("spectrum", ("omega_peak",), 1e300, "null dimensions"),
        ("spectrum", ("rates", "gamma_in"), 1e300, "null dimensions"),
        ("spectrum", ("rates", "gamma_in"), 1e-300, "null dimensions"),
        ("spectrum", ("field", "delta"), 1e300, "null dimensions"),
        ("verify", ("rates", "gamma_in"), 1e-300, "not resolved"),
        # a subnormal slowest rate (6.4e-312) overflows the pulse duration
        *[(command, (("omega_peak",), ("rates", "gamma_in")), 1e-310, "pulse duration inf")
          for command in ("verify", "spectrum", "simulate", "optimize")],
    ])
    def test_extreme_magnitude_exits_5_naming_cause(self, tmp_path, command, keys, value,
                                                     cause, capsys):
        # finite numbers the schema accepts, whose spectrum cannot be resolved
        doc = json.loads(write_config(tmp_path / "config.json").read_text())
        if command == "optimize":
            doc["optimizer"]["max_iter"] = 2  # a short search, should one run
        for path in keys if isinstance(keys[0], tuple) else [keys]:
            if path[0] == "field":
                doc["field"] = dict(SEQUENCE_STEP)
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        (tmp_path / "config.json").write_text(json.dumps(doc))
        sequence = {"sequence": {"mode": "alpha", "steps": [dict(SEQUENCE_STEP)]}}
        (tmp_path / "result.json").write_text(json.dumps(sequence))
        argv = [command, "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "o")]
        if command == "verify":
            argv += ["--states", "1"]
        if command == "simulate":
            argv += ["--sequence", str(tmp_path / "result.json")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 5
        err = capsys.readouterr().err
        assert err.startswith("spectrum error: ") and cause in err, err

    @pytest.mark.parametrize("command", ["optimize", "reproduce-paper"])
    def test_unresolvable_rate_exits_5_before_the_search(self, tmp_path, command, monkeypatch,
                                                          capsys):
        # the key's duration is checked on its canonical field before any restart runs
        from darkpulse.optimize import minimize
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return minimize(*args, **kwargs)

        monkeypatch.setattr("darkpulse.optimize.minimize", counting)
        config = tiny_bundled_config(tmp_path / "config.json", omega_peak=1e-310,
                                     rates={"gamma_in": 1e-310})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", str(config), "--out", str(tmp_path / "o")]) == 5
        err = capsys.readouterr().err
        assert err.startswith("spectrum error: ") and "pulse duration inf" in err, err
        assert calls == []

    @pytest.mark.parametrize("mode, rates", [
        ("alpha", {"gamma_in": 1e-300, "gamma_ext": 0.0, "r_pump": 0.0}),
        ("beta", {"gamma_in": 1e-300, "gamma_ext": 1e-300, "r_pump": 1e-300})],
        ids=["alpha", "beta"])
    def test_non_finite_snapshot_exits_4_naming_case_and_time(self, tmp_path, mode, rates,
                                                              capsys):
        # the duration (about 1.4e35) overflows the squarings of the exponential
        # step; the non-finite snapshots are an integrator error naming the case and
        # the time, with no RuntimeWarning and no LinAlgError from eigvalsh
        doc = json.loads(bundled_config_path().read_text())
        doc.update(mode=mode, rates=rates)
        (tmp_path / "config.json").write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "--config", str(tmp_path / "config.json"), "--out",
                         str(tmp_path / "o"), "--states", "3", "--seed", "3"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("integrator error: state 0: snapshot at t=2.2413e+33 has "
                              "eigenvalue nan"), err

    def test_non_finite_derivative_exits_4(self, tmp_path, monkeypatch, capsys):
        # a sine-squared generator whose undriven part has an infinite entry: the RK45
        # error norm is nan at the first step, an integrator error at once
        import darkpulse.dynamics as dynamics

        build = dynamics.build_liouvillian

        def poisoned(fp, rates, envelope_value=1.0):
            liou = build(fp, rates, envelope_value)
            if envelope_value != 0.0:
                return liou
            m = liou.m.copy()
            m[3, 5] = np.inf
            return dataclasses.replace(liou, m=m)

        monkeypatch.setattr(dynamics, "build_liouvillian", poisoned)
        doc = json.loads(bundled_config_path().read_text())
        doc["envelope"] = "sine_squared"
        (tmp_path / "config.json").write_text(json.dumps(doc))
        assert main(["verify", "--config", str(tmp_path / "config.json"), "--out",
                     str(tmp_path / "o"), "--states", "2"]) == 4
        assert capsys.readouterr().err == ("integrator error: RK45 at t=0: error norm nan is "
                                           "not finite (a non-finite derivative)\n")


# a field block: any subset of its keys and an unknown one, each holding a float (non-finite
# ones included, which json writes as NaN or Infinity), a huge integer or a non-number
FIELD_BLOCK = st.dictionaries(
    st.sampled_from(["theta", "phi", "mu_minus", "mu_plus", "xi", "delta", "junk"]),
    st.floats() | st.integers(-2 ** 1100, 2 ** 1100)
    | st.sampled_from([None, True, "0.5", [0.5], {}]))


BUDGETED_FLAGS = {"optimize": ("--seed", "--threads"),
                  "simulate": ("--sequence", "--threads"),
                  "bloch-export": ("--sequence", "--threads"),
                  "sweep-purity": ("--seed",),
                  "reproduce-paper": ("--seed", "--threads")}


class TestArgvFuzz:
    """Any argv for any command ends in a documented exit code, never a traceback."""

    # spectrum takes no flag of its own: its field block is drawn instead
    @settings(derandomize=True, database=None, max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(command=st.sampled_from(["spectrum", "verify"]),
           field=st.none() | FIELD_BLOCK,
           states=st.none() | st.integers(-3, 3),
           seed=st.none() | st.integers(-5, 2 ** 70),
           threads=st.none() | st.integers(-2, 4))
    def test_exit_code_is_documented(self, tmp_path, command, field, states, seed, threads):
        config = bundled_config_path()
        if command == "spectrum" and field is not None:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({**json.loads(bundled_config_path().read_text()),
                                          "field": field}))
        argv = [command, "--config", str(config), "--out", str(tmp_path / "o")]
        if command == "verify":
            for flag, value in (("--states", states), ("--seed", seed), ("--threads", threads)):
                if value is not None:
                    argv += [flag, str(value)]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv itself
            code = exc.code
        assert code in {0, 2, 3, 4, 5}

    @settings(derandomize=True, database=None, max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(command=st.sampled_from(["optimize", "simulate", "bloch-export", "sweep-purity",
                                    "reproduce-paper"]),
           sequence=st.sampled_from(["valid", "missing", "junk"]),
           seed=st.none() | st.integers(-5, 2 ** 70),
           threads=st.none() | st.integers(-2, 4),
           strict=st.booleans())
    def test_budgeted_commands_exit_code_is_documented(self, tmp_path, command, sequence,
                                                       seed, threads, strict):
        config = tiny_bundled_config(tmp_path / "config.json")
        (tmp_path / "valid").write_text(json.dumps({"sequence": {"steps": [SEQUENCE_STEP]}}))
        (tmp_path / "junk").write_text("{not json")
        argv = [command, "--config", str(config), "--out", str(tmp_path / "o")]
        # only the flags the command takes; TestFlagAttachment covers the others
        flags = {"--sequence": str(tmp_path / sequence), "--seed": seed, "--threads": threads}
        for flag in BUDGETED_FLAGS[command]:
            if flags[flag] is not None:
                argv += [flag, str(flags[flag])]
        if strict and command in ("optimize", "reproduce-paper"):
            argv.append("--strict")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv itself
            code = exc.code
        assert code in {0, 2, 3, 4, 5}


# a finite positive float, log-uniform over 1e-300 to 1e300, or one of the double range's ends
MAGNITUDE = (st.floats(-300.0, 300.0).map(lambda exponent: 10.0 ** exponent)
             | st.sampled_from([5e-324, 1.7e308]))
ERROR_PREFIXES = ("config error:", "integrator error:", "spectrum error:")


class TestConfigFuzz:
    """Any finite drive, rates and residual end in a documented exit code, never a traceback."""

    @pytest.mark.parametrize("command", [["spectrum"], ["verify", "--states", "2"],
                                         ["optimize"]], ids=lambda argv: argv[0])
    @settings(derandomize=True, database=None, max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mode=st.sampled_from(["alpha", "beta"]), omega_peak=MAGNITUDE,
           rates=st.lists(MAGNITUDE, min_size=3, max_size=3), residual=MAGNITUDE)
    def test_exit_code_is_documented(self, tmp_path, capsys, command, mode, omega_peak,
                                     rates, residual):
        # square pulses only: a weak sine-squared drive takes minutes to integrate
        doc = json.loads(bundled_config_path().read_text())
        gamma_in, gamma_ext, r_pump = rates if mode == "beta" else (rates[0], 0.0, 0.0)
        doc.update(mode=mode, omega_peak=omega_peak, envelope="square", grid_resolution=2,
                   rates={"gamma_in": gamma_in, "gamma_ext": gamma_ext, "r_pump": r_pump})
        doc["optimizer"].update(restarts=1, max_iter=3, test_states=10)
        doc["integrator"]["residual"] = residual
        (tmp_path / "config.json").write_text(json.dumps(doc))
        code = main([command[0], "--config", str(tmp_path / "config.json"),
                     "--out", str(tmp_path / "o"), *command[1:]])
        err = capsys.readouterr().err
        assert code in {0, 2, 3, 4, 5}
        assert code == 0 or err.startswith(ERROR_PREFIXES), err


class TestSchemaValidTargets:
    """A target the schema accepts, within its 1e-9, runs like an exact one."""

    @pytest.mark.parametrize("change", ["weights", "psi1"])
    def test_commands_exit_0(self, tmp_path, change):
        # each change stays within the 1e-9 that the schema accepts for weights and norms
        target = json.loads(bundled_config_path().read_text())["target"]
        if change == "weights":
            target["weights"] = [0.3, 0.7000000005]
        else:
            target["psi1"] = [[part * (1.0 + 4e-10) for part in entry]
                              for entry in target["psi1"]]
        config = tiny_bundled_config(tmp_path / "config.json", target=target)
        sequence = tmp_path / "sequence.json"
        sequence.write_text(json.dumps({"sequence": {"steps": [SEQUENCE_STEP]}}))
        common = ["--config", str(config), "--out"]
        assert main(["optimize", *common, str(tmp_path / "opt")]) == 0
        assert main(["simulate", *common, str(tmp_path / "sim"),
                     "--sequence", str(sequence)]) == 0
        assert main(["reproduce-paper", *common, str(tmp_path / "repro")]) == 0


def run_fresh(script: str, cwd: Path) -> str:
    """Run ``script`` in a fresh interpreter that imports the package from this tree."""
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, capture_output=True,
                          text=True, timeout=300, check=False,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def artifacts(out: Path) -> dict:
    """Every file under ``out``: CSV text, and JSON values without their ``meta`` block."""
    files = {}
    for path in sorted(out.rglob("*")):
        if path.suffix == ".json":
            files[path.relative_to(out)] = {k: v for k, v in json.loads(path.read_text()).items()
                                            if k != "meta"}
        elif path.is_file():
            files[path.relative_to(out)] = path.read_text()
    return files


class TestClosedStdout:
    """A reader that goes away neither stops a run nor changes its exit code."""

    @pytest.mark.parametrize("command", ["spectrum", "reproduce-paper"])
    def test_run_completes_silently(self, tmp_path, command):
        config = tiny_bundled_config(tmp_path / "config.json")
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

        def run(out, stdout):
            argv = [sys.executable, "-m", "darkpulse.cli", command, "--config", str(config),
                    "--out", str(tmp_path / out)]
            return subprocess.run(argv, stdout=stdout, stderr=subprocess.PIPE, env=env,
                                  text=True, timeout=300, check=False)

        open_run = run("open", subprocess.PIPE)
        assert open_run.returncode == 0, open_run.stderr
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe now fails with EPIPE
        try:
            closed_run = run("closed", write_end)
        finally:
            os.close(write_end)
        assert closed_run.returncode == 0, closed_run.stderr
        assert "Traceback" not in closed_run.stderr
        assert "Exception ignored" not in closed_run.stderr
        written = artifacts(tmp_path / "closed")
        assert written and written == artifacts(tmp_path / "open")


class TestStartup:
    """scipy loads only where it is used; the benchmark tracer still finds its entry points."""

    def test_square_verify_loads_no_scipy(self, tmp_path):
        script = textwrap.dedent(f"""
            import json, sys
            loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
            from darkpulse import cli
            after_import = loaded()
            code = cli.main(["verify", "--config", str(cli.bundled_config_path()),
                             "--out", {str(tmp_path / "v")!r}, "--states", "2"])
            print(json.dumps([code, after_import, loaded()]))
        """)
        assert json.loads(run_fresh(script, tmp_path)) == [0, [], []]

    def test_spectrum_loads_no_scipy(self, tmp_path):
        script = textwrap.dedent(f"""
            import json, sys
            from darkpulse import cli
            code = cli.main(["spectrum", "--config", str(cli.bundled_config_path()),
                             "--out", {str(tmp_path / "s")!r}])
            print(json.dumps([code, sorted(m for m in sys.modules
                                           if m.split(".")[0] == "scipy")]))
        """)
        assert json.loads(run_fresh(script, tmp_path)) == [0, []]

    @pytest.mark.parametrize("command", ["optimize", "reproduce-paper", "sweep-purity"])
    def test_optimizer_loads_no_scipy(self, tmp_path, command):
        # the search is numpy's own; square pulses need no RK45 either.  The sweep's
        # pure target at N = 2 is out of reach, so its search ends at a floor
        doc = json.loads(bundled_config_path().read_text())
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**doc, "weight_list": [1.0], "N_list": [2]}))
        script = textwrap.dedent(f"""
            import json, sys
            from darkpulse import cli
            code = cli.main([{command!r}, "--config", {str(config)!r},
                             "--out", {str(tmp_path / "o")!r}])
            print(json.dumps([code, sorted(m for m in sys.modules
                                           if m.split(".")[0] == "scipy")]))
        """)
        assert json.loads(run_fresh(script, tmp_path)) == [0, []]

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_sine_squared_runs_load_no_scipy(self, tmp_path, command):
        # the RK45 of time-dependent envelopes is numpy's own too
        cfg = write_config(tmp_path / "sine.json", envelope="sine_squared",
                           initial_states=THREE_STATES[:1])
        sequence = tmp_path / "sequence.json"
        sequence.write_text(json.dumps({"sequence": {"mode": "alpha", "steps": [SEQUENCE_STEP]}}))
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
        argv += ["--sequence", str(sequence)] if command == "simulate" else ["--states", "2"]
        script = textwrap.dedent(f"""
            import json, sys
            from darkpulse import cli
            code = cli.main({argv!r})
            print(json.dumps([code, sorted(m for m in sys.modules
                                           if m.split(".")[0] == "scipy")]))
        """)
        assert json.loads(run_fresh(script, tmp_path)) == [0, []]
        if command == "simulate":
            doc = json.loads((tmp_path / "o" / "summary.json").read_text())
            assert doc["pulses"][0]["propagator"] == "rk45"
        else:
            keys = json.loads((tmp_path / "o" / "verify.json").read_text())["keys"]
            assert [key["propagator"] for key in keys] == ["rk45"]

    def test_tracer_counts_rhs_evaluations(self, tmp_path):
        # the tracer reads and rebinds dynamics.solve_ivp and optimize.minimize, so
        # both must stay module attributes, which every caller looks up at call time
        cfg = write_config(tmp_path / "sine.json", envelope="sine_squared",
                           initial_states=THREE_STATES[:1])
        sequence = tmp_path / "sequence.json"
        sequence.write_text(json.dumps(
            {"sequence": {"mode": "alpha", "steps": [SEQUENCE_STEP, SEQUENCE_STEP]}}))
        script = textwrap.dedent(f"""
            import json, sys
            sys.path.insert(0, {str(ROOT / "perfbench")!r})
            from layer_trace import Tracer
            tracer = Tracer()
            tracer.install()
            from darkpulse import cli
            code = cli.main(["simulate", "--config", {str(cfg)!r}, "--sequence",
                             {str(sequence)!r}, "--out", {str(tmp_path / "sim")!r}])
            tracer.uninstall()
            print(json.dumps([code, tracer.counts["dynamics.rhs_evals"]]))
        """)
        code, rhs_evals = json.loads(run_fresh(script, tmp_path))
        assert code == 0
        pulses = json.loads((tmp_path / "sim" / "summary.json").read_text())["pulses"]
        assert [p["propagator"] for p in pulses] == ["rk45", "rk45"]
        assert rhs_evals == sum(p["nfev"] for p in pulses) > 0

    def test_benchmark_per_layer_spans_are_installed(self, tmp_path):
        # perfbench/run.py raises KeyError for a per-layer metric whose span the
        # tracer did not install, which fails a traced benchmark run
        kinds = ("calls", "self_s", "s", "constructed", "ms_p50", "ms_p90")
        metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        spans = {m["name"].rpartition(".")[0] for m in metrics
                 if m["name"].rpartition(".")[2] in kinds}
        script = textwrap.dedent(f"""
            import json, sys
            sys.path.insert(0, {str(ROOT / "perfbench")!r})
            from layer_trace import Tracer
            tracer = Tracer()
            tracer.install()
            print(json.dumps(sorted(tracer.stats)))
        """)
        installed = set(json.loads(run_fresh(script, tmp_path)))
        assert "maps.compose_sequence" in spans
        assert sorted(spans - installed) == []


class TestReadme:
    def test_library_quick_start_runs(self, tmp_path):
        blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
        assert len(blocks) == 1
        proc = subprocess.run([sys.executable, "-c", blocks[0]], cwd=tmp_path,
                              capture_output=True, text=True, timeout=300, check=False,
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0].endswith("True")

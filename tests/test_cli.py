"""CLI surface: exit codes, artifact formats, and byte-exact determinism."""

import csv
import importlib.util
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from darkpulse.cli import build_parser, main
from darkpulse.config import dumps17

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
    path.write_text(dumps17(doc) + "\n")
    return path


SEQUENCE_STEP = {"theta": 0.7, "phi": 1.1, "mu_minus": 0.3, "mu_plus": 2.0}

THREE_STATES = [
    [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
    [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
    [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
]


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
        for step in doc["sequence"]["steps"]:
            assert 0.0 <= step["theta"] <= np.pi
            assert step["duration"] > 0.0
        assert set(doc["train_stats"]) == {"rms_hs", "max_hs", "rms_mismatch", "max_mismatch"}
        assert doc["test_stats"]["n_states"] == 20
        assert doc["objective_history"]
        assert len(doc["restarts"]) == len(doc["objective_history"])
        for record in doc["restarts"]:
            assert set(record) == {"iterations", "function_evals", "final_value",
                                   "termination"}
        assert sum(r["iterations"] for r in doc["restarts"]) == doc["iterations"]
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

    def test_strict_non_convergence_exit_3(self, tmp_path):
        # one restart of 5 iterations cannot reach 1e-6 on this target
        cfg = write_config(tmp_path / "tiny.json",
                           optimizer={"seed": 3, "restarts": 1, "max_iter": 5,
                                      "tol": 1e-6, "test_states": 5})
        assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--strict"]) == 3
        # without --strict the same run exits 0
        assert main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "o2")]) == 0
        doc = json.loads((tmp_path / "o2" / "result.json").read_text())
        assert [r["termination"] for r in doc["restarts"]] == ["maxiter"]

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
        assert doc["n_pulses"] == 2
        state = doc["states"][0]
        assert state["hs_ode_vs_map"] < 1e-5
        for name in state["trajectories"]:
            assert (out / name).exists()
        assert len(state["pulses"]) == 2
        for pulse in state["pulses"]:
            assert set(pulse) == {"propagator", "nfev", "min_eigenvalue", "max_trace_error"}
            assert pulse["propagator"] == "exact" and pulse["nfev"] == 0
            assert pulse["min_eigenvalue"] >= -100 * 1e-12
            assert 0.0 <= pulse["max_trace_error"] < 1e-9  # alpha conserves trace

    def test_sine_squared_pulses_are_integrated(self, tmp_path, optimized):
        cfg = write_config(tmp_path / "sine.json", envelope="sine_squared")
        out = tmp_path / "sims"
        assert main(["simulate", "--config", str(cfg), "--sequence", str(optimized),
                     "--out", str(out)]) == 0
        pulses = json.loads((out / "summary.json").read_text())["states"][0]["pulses"]
        assert [p["propagator"] for p in pulses] == ["rk45", "rk45"]
        assert all(p["nfev"] > 0 for p in pulses)
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "vs"),
                     "--states", "1"]) == 0
        assert json.loads((tmp_path / "vs" / "verify.json").read_text())["propagator"] == "rk45"

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
        rows = json.loads((out / "summary.json").read_text())["states"]
        assert len(solves) == 2  # pulses, not pulses x states
        assert [r["state_index"] for r in rows] == [0, 1, 2]
        for row in rows:
            assert [p["nfev"] for p in row["pulses"]] == solves
            assert row["hs_ode_vs_map"] < 1e-3

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
        assert doc["n_pulses"] == 0
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
        assert doc["n_states"] == 3
        assert doc["max_distance"] < 1e-5
        assert doc["propagator"] == "exact"

    def test_states_below_one_exit_2_naming_flag(self, tmp_path, config_path, capsys):
        for states in ("0", "-3"):
            assert main(["verify", "--config", str(config_path), "--out",
                         str(tmp_path / "v"), "--states", states]) == 2
            assert "--states" in capsys.readouterr().err


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
        assert "transpose_convention" in doc

    def test_beta_report_and_angles_flag(self, tmp_path):
        cfg = write_config(tmp_path / "beta.json", mode="beta",
                           rates={"gamma_in": 1.0, "gamma_ext": 1.0, "r_pump": 1.0})
        out = tmp_path / "spec"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out),
                     "--angles", "0.7,1.1,0.3,2.0"]) == 0
        doc = json.loads((out / "spectrum.json").read_text())
        assert doc["zero_dimension"] == 3
        assert doc["left_right_spans_coincide"]
        assert doc["field"]["theta"] == pytest.approx(0.7)

    def test_non_finite_angles_exit_2_naming_flag(self, tmp_path, config_path, capsys):
        for angles in ("nan,0,0,0", "0,inf,0,0"):
            assert main(["spectrum", "--config", str(config_path), "--out",
                         str(tmp_path / "spec"), "--angles", angles]) == 2
            assert "--angles" in capsys.readouterr().err

    def test_deterministic(self, tmp_path, config_path):
        texts = []
        for name in ("p1", "p2"):
            out = tmp_path / name
            assert main(["spectrum", "--config", str(config_path), "--out", str(out)]) == 0
            texts.append((out / "spectrum.json").read_text())
        assert texts[0] == texts[1]


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


class TestReproduceCommand:
    def test_chains_all_three_stages(self, tmp_path, config_path):
        out = tmp_path / "repro"
        assert main(["reproduce-paper", "--config", str(config_path),
                     "--out", str(out)]) == 0
        assert (out / "optimize" / "result.json").exists()
        assert (out / "simulate" / "summary.json").exists()
        assert (out / "bloch" / "bloch_points.csv").exists()
        assert (out / "bloch" / "bloch_radii.csv").exists()


class TestFlagAttachment:
    @pytest.mark.parametrize("command, flag", [
        ("simulate", "--strict"), ("verify", "--strict"), ("bloch-export", "--strict"),
        ("spectrum", "--strict"), ("sweep-purity", "--strict"),
        ("simulate", "--seed"), ("bloch-export", "--seed"), ("spectrum", "--seed"),
        ("spectrum", "--threads"), ("sweep-purity", "--threads"),
    ])
    def test_unused_flag_is_an_argparse_error(self, tmp_path, config_path, command, flag):
        argv = [command, "--config", str(config_path), "--out", str(tmp_path / "o")]
        if command in ("simulate", "bloch-export"):
            argv += ["--sequence", str(tmp_path / "result.json")]
        argv += [flag] + (["3"] if flag in ("--seed", "--threads") else [])
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
    ])
    def test_bad_number_exits_2_naming_field(self, tmp_path, command, keys, value, named,
                                             capsys):
        doc = json.loads(write_config(tmp_path / "config.json").read_text())
        doc.update(weight_list=[0.5], N_list=[1], field=dict(SEQUENCE_STEP),
                   initial_states=[[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]])
        sequence = {"sequence": {"mode": "alpha", "steps": [dict(SEQUENCE_STEP)]}}
        node = sequence["sequence"] if keys[0] == "steps" else doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        (tmp_path / "config.json").write_text(json.dumps(doc))
        (tmp_path / "result.json").write_text(json.dumps(sequence))
        argv = [command, "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "o")]
        if command == "simulate":
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
    ])
    def test_extreme_magnitude_exits_5_naming_cause(self, tmp_path, command, keys, value,
                                                     cause, capsys):
        # finite numbers the schema accepts, whose spectrum cannot be resolved
        doc = json.loads(write_config(tmp_path / "config.json").read_text())
        if keys[0] == "field":
            doc["field"] = dict(SEQUENCE_STEP)
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        (tmp_path / "config.json").write_text(json.dumps(doc))
        argv = [command, "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "o")]
        if command == "verify":
            argv += ["--states", "1"]
        assert main(argv) == 5
        err = capsys.readouterr().err
        assert err.startswith("spectrum error: ") and cause in err, err

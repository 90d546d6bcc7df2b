"""Config validation, strict schema behavior, and deterministic serialization."""

import copy
import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darkpulse import (ConfigError, DensityOperator, Envelope, IntegratorSettings, Mode,
                       OptimizerSettings, pure_state_dyads)
from darkpulse.cli import bundled_config_path
from darkpulse.config import (MAX_PULSES, MAX_STATES, load_config, load_sequence, parse_config,
                              sequence_doc)
from conftest import random_field


def base_doc() -> dict:
    return {
        "target": {
            "weights": [0.5, 0.5],
            "psi1": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            "psi2": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
        },
        "steps": 3,
        "mode": "alpha",
        "rates": {"gamma_in": 1.0},
        "omega_peak": 1.0,
        "envelope": "square",
        "grid_resolution": 3,
        "optimizer": {"seed": 1},
        "integrator": {},
    }


class TestParseConfig:
    def test_minimal_document_parses_with_defaults(self):
        cfg = parse_config(base_doc())
        assert cfg.rates.mode is Mode.ALPHA
        assert cfg.envelope is Envelope.SQUARE
        assert cfg.optimizer.restarts == 8
        assert cfg.optimizer.max_iter == 2000
        assert cfg.optimizer.tol == 1e-6
        assert cfg.optimizer.pin_last is False
        assert cfg.optimizer.test_states == 1000
        assert cfg.integrator.rtol == 1e-9
        assert cfg.integrator.atol == 1e-12
        assert cfg.integrator.residual == 1e-10
        assert cfg.initial_states is None

    def test_weights_not_summing_to_one_names_field(self):
        doc = base_doc()
        doc["target"]["weights"] = [0.5, 0.4]
        with pytest.raises(ConfigError, match="target.weights"):
            parse_config(doc)

    def test_unknown_top_level_key_rejected(self):
        doc = base_doc()
        doc["extra"] = 1
        with pytest.raises(ConfigError, match="unknown key 'extra'"):
            parse_config(doc)

    def test_unknown_nested_key_rejected(self):
        doc = base_doc()
        doc["optimizer"]["budget"] = 5
        with pytest.raises(ConfigError, match="optimizer.*budget"):
            parse_config(doc)

    def test_missing_required_key_named(self):
        doc = base_doc()
        del doc["rates"]
        with pytest.raises(ConfigError, match="rates"):
            parse_config(doc)

    def test_mode_rate_consistency(self):
        doc = base_doc()
        doc["mode"] = "beta"
        with pytest.raises(ConfigError, match="rates"):
            parse_config(doc)
        doc["rates"] = {"gamma_in": 1.0, "gamma_ext": 1.0, "r_pump": 1.0}
        cfg = parse_config(doc)
        assert cfg.rates.mode is Mode.BETA

    def test_bad_mode_value(self):
        doc = base_doc()
        doc["mode"] = "gamma"
        with pytest.raises(ConfigError, match="mode"):
            parse_config(doc)

    def test_non_unit_initial_state_rejected(self):
        doc = base_doc()
        doc["initial_states"] = [[[0.5, 0.0], [0.0, 0.0], [0.0, 0.0]]]
        with pytest.raises(ConfigError, match="initial_states"):
            parse_config(doc)

    def test_initial_states_parsed(self):
        doc = base_doc()
        doc["initial_states"] = [[[0.0, 0.0], [0.0, 1.0], [0.0, 0.0]]]
        cfg = parse_config(doc)
        assert cfg.initial_states.shape == (1, 3)
        assert cfg.initial_states[0, 1] == 1j

    def test_accepted_initial_states_are_normalized(self):
        # within the 1e-9 the check accepts, each vector is divided by its norm, so
        # the states pass the dynamics' 1e-12 trace check
        doc = base_doc()
        doc["initial_states"] = [[[0.6 * s, 0.0], [0.0, 0.8 * s], [0.0, 0.0]]
                                 for s in (1.0 + 4e-10, 1.0 - 4e-10)]
        states = parse_config(doc).initial_states
        assert np.abs(np.linalg.norm(states, axis=-1) - 1.0).max() <= 2e-16
        DensityOperator.validate(pure_state_dyads(states))

    def test_sweep_lists_parsed_and_validated(self):
        doc = base_doc()
        doc["weight_list"] = [0.5, 0.02]
        doc["N_list"] = [2, 4]
        cfg = parse_config(doc)
        assert cfg.weight_list == (0.5, 0.02)
        assert cfg.n_list == (2, 4)
        doc["N_list"] = [0]
        with pytest.raises(ConfigError, match="N_list"):
            parse_config(doc)

    @pytest.mark.parametrize("path, value, message", [
        (("target", "weights"), 5, "target.weights: expected a list of 2"),
        (("rates",), [1, 0, 0], "rates: expected an object"),
    ], ids=["list", "object"])
    def test_wrong_container_names_field(self, path, value, message):
        doc = base_doc()
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert str(exc.value) == message

    def test_field_block_parsed(self):
        doc = base_doc()
        doc["field"] = {"theta": 0.7, "phi": 1.1, "mu_minus": 0.3, "mu_plus": 2.0}
        cfg = parse_config(doc)
        assert cfg.field_params.theta == pytest.approx(0.7)

    def test_degenerate_target_rejected(self):
        doc = base_doc()
        doc["target"]["psi2"] = doc["target"]["psi1"]
        with pytest.raises(ConfigError, match="target"):
            parse_config(doc)

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="config file"):
            load_config(tmp_path / "absent.json")

    def test_invalid_json_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)


class TestSequenceFile:
    """``sequence_doc`` writes what ``load_sequence`` reads; the config supplies the drive."""

    @pytest.fixture
    def cfg(self):
        return parse_config({**base_doc(), "omega_peak": 2.5, "envelope": "sine_squared"})

    @pytest.fixture
    def steps(self, rng, cfg):
        return [random_field(rng, omega_peak=cfg.omega_peak, envelope=cfg.envelope)
                for _ in range(5)]

    def write(self, path, doc):
        path.write_text(json.dumps({"sequence": doc}))
        return path

    def test_round_trip_is_bit_exact(self, tmp_path, cfg, steps):
        assert all(fp.xi != 0.0 and fp.delta != 0.0 for fp in steps)
        doc = sequence_doc(steps)
        assert [list(step) for step in doc["steps"]] == \
            [["theta", "phi", "mu_minus", "mu_plus", "xi", "delta"]] * len(steps)
        assert load_sequence(self.write(tmp_path / "seq.json", doc), cfg) == steps

    def test_older_files_load_to_the_same_steps(self, tmp_path, cfg, steps):
        # mode, drive and duration are accepted and ignored: the config's drive applies
        doc = sequence_doc(steps)
        for step in doc["steps"]:
            step.update(omega_peak=1.0, envelope="square", duration=805.0)
        doc["mode"] = "beta"
        assert load_sequence(self.write(tmp_path / "old.json", doc), cfg) == steps

    def test_unknown_step_key_is_rejected(self, tmp_path, cfg, steps):
        doc = sequence_doc(steps[:1])
        doc["steps"][0]["durations"] = [1.0]
        with pytest.raises(ConfigError, match=r"steps\[0\]: unknown key 'durations'"):
            load_sequence(self.write(tmp_path / "bad.json", doc), cfg)


# (type, field, the first value past its bound, the last value inside it)
SETTINGS_BOUNDS = [
    (OptimizerSettings, "seed", -1, 0),
    (OptimizerSettings, "restarts", 0, 1),
    (OptimizerSettings, "max_iter", 0, 1),
    (OptimizerSettings, "test_states", 0, 1),
    (OptimizerSettings, "test_states", MAX_STATES + 1, MAX_STATES),
    (OptimizerSettings, "tol", 0.0, 5e-324),
    (OptimizerSettings, "tol", float("nan"), 1e-6),
    *[(IntegratorSettings, name, bad, good) for name in ("rtol", "atol", "residual")
      for bad, good in ((0.0, 5e-324), (1.0, 1.0 - 2.0 ** -53), (float("nan"), 0.5))],
]
# a config's NaN never reaches a type: read_number rejects it first
FINITE_BOUNDS = [case for case in SETTINGS_BOUNDS if not np.isnan(case[2])]


def bound_id(case) -> str:
    cls, name, bad, _ = case
    return f"{cls.__name__}.{name}={bad}"


class TestSettingsBounds:
    """Each settings type holds its bounds, so the library and the config share them."""

    @pytest.mark.parametrize("cls, name, bad, good", SETTINGS_BOUNDS,
                             ids=map(bound_id, SETTINGS_BOUNDS))
    def test_each_bound_is_held_by_its_type(self, cls, name, bad, good):
        required = {"seed": 0} if cls is OptimizerSettings else {}
        with pytest.raises(ValueError, match=f"^{name} must"):
            cls(**{**required, name: bad})
        assert getattr(cls(**{**required, name: good}), name) == good

    @pytest.mark.parametrize("cls, name, bad, good", FINITE_BOUNDS,
                             ids=map(bound_id, FINITE_BOUNDS))
    def test_config_names_the_dotted_path(self, cls, name, bad, good):
        section = "optimizer" if cls is OptimizerSettings else "integrator"
        doc = base_doc()
        doc[section][name] = bad
        with pytest.raises(ConfigError, match=rf"^{section}\.{name}: {name} must"):
            parse_config(doc)


# (key path, the first value past its bound, the last value inside it); no array is sized here
COUNT_BOUNDS = [(("steps",), MAX_PULSES + 1, MAX_PULSES),
                (("N_list", 0), MAX_PULSES + 1, MAX_PULSES),
                (("grid_resolution",), 65, 64)]


@pytest.mark.parametrize("path, bad, good", COUNT_BOUNDS,
                         ids=[".".join(map(str, case[0])) for case in COUNT_BOUNDS])
def test_count_bound_names_its_key(path, bad, good):
    doc = base_doc()
    doc["N_list"] = [1]
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = good
    parse_config(doc)
    node[path[-1]] = bad
    named = path[0] + "".join(f"[{key}]" for key in path[1:])
    with pytest.raises(ConfigError, match=rf"^{re.escape(named)}: must lie in"):
        parse_config(doc)


def leaf_paths(node, path=()):
    """Paths to every scalar of a JSON document."""
    if isinstance(node, dict):
        return [p for key, value in node.items() for p in leaf_paths(value, path + (key,))]
    if isinstance(node, list):
        return [p for i, value in enumerate(node) for p in leaf_paths(value, path + (i,))]
    return [path]


def floats(obj):
    """Every float held by a parsed config, complex parts included."""
    if dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            yield from floats(getattr(obj, field.name))
    elif isinstance(obj, np.ndarray):
        yield from np.concatenate([obj.real.ravel(), obj.imag.ravel()]).tolist()
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from floats(item)
    elif isinstance(obj, float):
        yield obj


BUNDLED = json.loads(bundled_config_path().read_text())
BAD_LEAVES = [float("nan"), float("inf"), -float("inf"), 0, -1, True, "x", [], {}, None]


class TestOneBadLeaf:
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(path=st.sampled_from(leaf_paths(BUNDLED)), value=st.sampled_from(BAD_LEAVES))
    def test_rejected_or_every_float_finite(self, path, value):
        doc = copy.deepcopy(BUNDLED)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        try:
            cfg = parse_config(doc)
        except ConfigError:
            return
        assert all(np.isfinite(x) for x in floats(cfg))

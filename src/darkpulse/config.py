"""Experiment configuration: strict JSON ingestion and deterministic emission.

Configs are plain JSON with complex numbers as [re, im] pairs.  One walker reads
configs and sequence-file steps through key tables of readers (and of bounds
that no type holds); unknown keys and non-finite numbers are rejected, and every
error names the field by its dotted path.  CSV emission writes floats with 17
significant digits so tables re-parse exactly and reruns are byte-identical.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Envelope, FieldParams, Mode, TargetState
from .errors import ConfigError, DarkpulseError
from .liouville import Rates

__all__ = [
    "OptimizerSettings",
    "IntegratorSettings",
    "ExperimentConfig",
    "read_number",
    "load_config",
    "parse_config",
    "load_sequence",
    "sequence_doc",
    "atomic_write_text",
    "write_csv",
]

# counts from outside size arrays, so each is bounded where it is read, before any work:
MAX_STATES = 2 ** 24  # states per batch: grid_resolution ** 4, test_states, verify --states
MAX_PULSES = 2 ** 16  # pulses per sequence: steps and each N_list entry


@dataclass(frozen=True)
class OptimizerSettings:
    """The search's seed, budget, stopping value and test sample; each bound is checked here."""

    seed: int
    restarts: int = 8
    max_iter: int = 2000
    tol: float = 1e-6
    pin_last: bool = False
    test_states: int = 1000

    def __post_init__(self) -> None:
        for name, least in (("seed", 0), ("restarts", 1), ("max_iter", 1), ("test_states", 1)):
            if not (value := getattr(self, name)) >= least:
                raise ValueError(f"{name} must be at least {least}, got {value!r}")
        if self.test_states > MAX_STATES:
            raise ValueError(f"test_states must be at most {MAX_STATES}, got {self.test_states!r}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol!r}")


@dataclass(frozen=True)
class IntegratorSettings:
    """RK45's relative and absolute tolerances and the residual that sets pulse durations."""

    rtol: float = 1e-9
    atol: float = 1e-12
    residual: float = 1e-10

    def __post_init__(self) -> None:
        for name in ("rtol", "atol", "residual"):
            if not 0 < (value := getattr(self, name)) < 1:
                raise ValueError(f"{name} must lie in (0, 1), got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; all downstream types are constructed here."""

    target: TargetState
    steps: int
    rates: Rates
    omega_peak: float
    envelope: Envelope
    grid_resolution: int
    optimizer: OptimizerSettings
    integrator: IntegratorSettings
    initial_states: np.ndarray | None = None
    weight_list: tuple[float, ...] | None = None
    n_list: tuple[int, ...] | None = None
    field_params: FieldParams | None = None


def read_number(value, path: str) -> float:
    """The reader of every number from outside: a JSON number, not a bool, and finite."""
    if type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    raise ConfigError(f"{path}: expected a finite number, got {value!r}")


def _exact(kind: type, what: str) -> Callable:
    """Reader of one JSON type, matched exactly so that a bool is never an integer."""
    def read(value, path: str):
        if type(value) is not kind:
            raise ConfigError(f"{path}: expected {what}, got {value!r}")
        return value
    return read


def _choice(enum) -> Callable:
    names = [member.value for member in enum]

    def read(value, path: str):
        if value not in names:
            raise ConfigError(f"{path}: expected one of {names}, got {value!r}")
        return enum(value)
    return read


def _list(item: Callable, length: int | None = None, into: Callable = tuple) -> Callable:
    """Reader of a list (of ``length`` entries, if given) whose entries ``item`` reads."""
    def read(value, path: str):
        if type(value) is not list or length not in (None, len(value)):
            raise ConfigError(f"{path}: expected a list" + (f" of {length}" if length else ""))
        return into([item(entry, f"{path}[{i}]") for i, entry in enumerate(value)])
    return read


def _bounded(read: Callable, test: Callable, text: str) -> Callable:
    """``read``, then reject a value that fails ``test``."""
    def bounded(value, path: str):
        out = read(value, path)
        if not test(out):
            raise ConfigError(f"{path}: {text}, got {value!r}")
        return out
    return bounded


def _fields(doc, path: str, table: dict, required) -> dict:
    """The walker: read an object key by key through ``table`` (a ``None`` reader skips a key)."""
    prefix = f"{path}." if path else ""
    if type(doc) is not dict:
        raise ConfigError(f"{path or 'config'}: expected an object")
    for name in doc:
        if name not in table:
            raise ConfigError(f"{path or 'config'}: unknown key '{name}'")
    for name in required:
        if name not in doc:
            raise ConfigError(f"{prefix}{name}: missing required key")
    return {name: table[name](value, prefix + name)
            for name, value in doc.items() if table[name] is not None}


def _section(cls, table: dict) -> Callable:
    """Reader of an object into ``cls`` keyword arguments; fields without defaults are required."""
    required = [f.name for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING]
    return lambda doc, path: _fields(doc, path, table, required)


def _build(cls, path: str, values: dict, **fixed):
    """``cls(**values, **fixed)``, a constructor error as a ConfigError naming ``path``.

    A message that starts with a key read (``weights must ...``) names that key's dotted path.
    """
    try:
        return cls(**values, **fixed)
    except (ValueError, DarkpulseError) as exc:
        name = str(exc).split(" ", 1)[0]
        raise ConfigError(f"{path}.{name}: {exc}" if name in values else f"{path}: {exc}") from exc


_INTEGER = _exact(int, "an integer")
_POSITIVE = _bounded(read_number, lambda x: x > 0, "must be positive")
_PULSES = _bounded(_INTEGER, lambda n: 1 <= n <= MAX_PULSES, f"must lie in [1, {MAX_PULSES}]")
_GRID_MAX = round(MAX_STATES ** 0.25)  # a grid has resolution ** 4 states
_COMPLEX3 = _list(_list(read_number, 2, lambda pair: complex(*pair)), 3, np.array)

_FIELD = {"theta": read_number, "phi": read_number, "mu_minus": read_number,
          "mu_plus": read_number, "xi": read_number, "delta": read_number}
# sequence_doc writes the _FIELD keys; a file's mode, drive and durations are accepted for
# older result files and ignored: the config's drive is used and durations come from relaxation
_SEQUENCE = {"mode": None, "steps": _list(_section(FieldParams, {
    **_FIELD, "omega_peak": None, "envelope": None, "duration": None}))}

_CONFIG = {
    "target": _section(TargetState, {"weights": _list(read_number, 2),
                                     "psi1": _COMPLEX3, "psi2": _COMPLEX3}),
    "steps": _PULSES,
    "mode": _choice(Mode),
    "rates": _section(Rates, {"gamma_in": read_number, "gamma_ext": read_number,
                              "r_pump": read_number}),
    "omega_peak": _POSITIVE,
    "envelope": _choice(Envelope),
    "grid_resolution": _bounded(_INTEGER, lambda n: 2 <= n <= _GRID_MAX,
                                f"must lie in [2, {_GRID_MAX}]"),
    "optimizer": _section(OptimizerSettings, {
        "seed": _INTEGER, "restarts": _INTEGER, "max_iter": _INTEGER, "tol": read_number,
        "pin_last": _exact(bool, "a boolean"), "test_states": _INTEGER}),
    "integrator": _section(IntegratorSettings, {
        "rtol": read_number, "atol": read_number, "residual": read_number}),
    "initial_states": _bounded(_list(_bounded(  # normalized, as TargetState's vectors are
        _COMPLEX3, lambda v: abs(np.linalg.norm(v) - 1.0) <= 1e-9, "must have norm 1"),
        into=lambda rows: np.array(rows) / np.linalg.norm(rows, axis=-1, keepdims=True)),
        len, "must not be empty"),
    "weight_list": _list(_bounded(read_number, lambda x: 0 <= x <= 1, "must lie in [0, 1]")),
    "N_list": _list(_PULSES),
    "field": _section(FieldParams, _FIELD),
}
_MODE_RATES = {Mode.ALPHA: "gamma_ext = r_pump = 0", Mode.BETA: "gamma_ext > 0 and r_pump > 0"}
_CONFIG_REQUIRED = ("target", "steps", "mode", "rates", "omega_peak", "envelope",
                    "grid_resolution", "optimizer", "integrator")


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate a parsed JSON document and build the typed configuration.

    Raises
    ------
    ConfigError
        On any structural or semantic problem; the message names the field.
    """
    values = _fields(doc, "", _CONFIG, _CONFIG_REQUIRED)
    drive = {"omega_peak": values["omega_peak"], "envelope": values["envelope"]}
    field = values.get("field")
    rates, mode = _build(Rates, "rates", values["rates"]), values["mode"]
    if rates.mode is not mode:
        raise ConfigError(f"rates: mode {mode.value} requires {_MODE_RATES[mode]}")
    return ExperimentConfig(
        target=_build(TargetState, "target", values["target"]), steps=values["steps"],
        rates=rates, **drive, grid_resolution=values["grid_resolution"],
        optimizer=_build(OptimizerSettings, "optimizer", values["optimizer"]),
        integrator=_build(IntegratorSettings, "integrator", values["integrator"]),
        initial_states=values.get("initial_states"), weight_list=values.get("weight_list"),
        n_list=values.get("N_list"),
        field_params=None if field is None else _build(FieldParams, "field", field, **drive))


def _load_json(path, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{what} {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ConfigError(f"{what} {path}: invalid JSON ({exc})") from exc


def load_config(path) -> ExperimentConfig:
    """Read and validate a config file; any failure is a ConfigError."""
    return parse_config(_load_json(path, "config file"))


def load_sequence(path, cfg: ExperimentConfig) -> list[FieldParams]:
    """Steps from an optimize result file, rebuilt with the config's drive settings."""
    doc = _load_json(path, "sequence file")
    where = f"sequence file {path}: sequence"
    seq = _fields(doc.get("sequence") if type(doc) is dict else None, where, _SEQUENCE, ("steps",))
    return [_build(FieldParams, f"{where}.steps[{i}]", step, omega_peak=cfg.omega_peak,
                   envelope=cfg.envelope) for i, step in enumerate(seq["steps"])]


def sequence_doc(steps) -> dict:
    """A result file's ``sequence`` block: per step, exactly the keys ``load_sequence`` reads."""
    return {"steps": [{name: getattr(fp, name) for name in _FIELD} for fp in steps]}


def atomic_write_text(path, text: str) -> None:
    """Write a file atomically (temp file + rename in the same directory), mode 0666 & ~umask."""
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path), f".tmp-{os.urandom(8).hex()}.part")
    # created 0666, so the kernel applies the umask; the process umask is never touched
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header: list[str], table) -> None:
    """Write a header and a numeric table as CSV atomically, each value formatted ``.17g``."""
    row = ",".join(["{:.17g}"] * len(header)) + "\n"
    rows = np.asarray(table, dtype=float).reshape(-1, len(header)).tolist()
    atomic_write_text(path, ",".join(header) + "\n" + "".join(row.format(*r) for r in rows))

"""Metamorphic witnesses: pairs of command runs that the physics says must agree.

Each witness needs no oracle: it compares a run of the package with another run of
the package on transformed inputs, through ``cli.main``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from darkpulse import FieldParams
from darkpulse.cli import bundled_config_path, main
from darkpulse.core import bright_vector
from conftest import trajectory_states

ROOT = Path(__file__).resolve().parents[1]
STORED_SEQUENCE = ROOT / "perfbench" / "data" / "sequence.json"

REGIMES = {"alpha": {"gamma_in": 1.0, "gamma_ext": 0.0, "r_pump": 0.0},
           "beta": {"gamma_in": 1.0, "gamma_ext": 1.0, "r_pump": 1.0}}


def verify(tmp_path, regime: str, envelope: str, s: float) -> dict:
    """``verify --states 6 --seed 3`` of the bundled target, every rate and the drive times s."""
    doc = json.loads(bundled_config_path().read_text())
    doc.update(mode=regime, envelope=envelope, omega_peak=s * doc["omega_peak"],
               rates={name: s * rate for name, rate in REGIMES[regime].items()})
    config, out = tmp_path / f"config-{s!r}.json", tmp_path / f"verify-{s!r}"
    config.write_text(json.dumps(doc))
    assert main(["verify", "--config", str(config), "--out", str(out), "--states", "6",
                 "--seed", "3"]) == 0
    return json.loads((out / "verify.json").read_text())


class TestTimeUnitRescaling:
    """Multiplying every rate and the drive by s only changes the unit of time.

    The driven endpoints, and so each case's distance to the map, stay the same, and
    every duration scales as 1/s; both agree to rounding, not to a tolerance.
    """

    @pytest.mark.parametrize("envelope", ["square", "sine_squared"])
    @pytest.mark.parametrize("regime", ["alpha", "beta"])
    def test_distances_and_durations(self, tmp_path, regime, envelope):
        # measured worst: 2.4e-15 absolute on a distance, 4.1e-15 relative on a duration
        base = verify(tmp_path, regime, envelope, 1.0)
        distances = np.array([case["distance"] for case in base["cases"]])
        durations = np.array([key["duration"] for key in base["keys"]])
        for s in (2.0 ** -3, 2.0 ** 5, 10.0, 1e3):
            doc = verify(tmp_path, regime, envelope, s)
            assert np.abs(np.array([case["distance"] for case in doc["cases"]])
                          - distances).max() <= 1e-14
            scaled = np.array([key["duration"] for key in doc["keys"]]) * s
            assert np.abs(scaled / durations - 1.0).max() <= 1e-14


def random_su3(rng) -> np.ndarray:
    """A Haar-random 3x3 unitary of determinant 1."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return q / np.linalg.det(q) ** (1 / 3)


def grid_symmetry(rng, resolution: int) -> np.ndarray:
    """A random SU(3) rotation that maps the initial-state grid onto itself, up to phases.

    The grid's phases are multiples of 2 pi / resolution and its last two components
    trade places under chi2 -> pi / 2 - chi2, so a diagonal of such phases, with or
    without that swap, permutes its pure states.
    """
    u = np.diag(np.exp(2j * np.pi * rng.integers(resolution, size=3) / resolution))
    if rng.integers(2):
        u = u[:, [0, 2, 1]]
    return u / np.linalg.det(u) ** (1 / 3)


def rotated_step(step: dict, u: np.ndarray) -> dict:
    """The step whose coupling vector ``e^{i xi} b`` is ``u`` times this step's.

    ``xi`` makes the pi component of ``e^{-i xi} U c`` real and nonpositive, as the
    bright vector's ``-cos(theta)`` is; the other angles follow from its moduli and phases.
    """
    fp = FieldParams(step["theta"], step["phi"], step["mu_minus"], step["mu_plus"],
                     xi=step.get("xi", 0.0))
    coupling = u @ (np.exp(1j * fp.xi) * bright_vector(np.array(fp.angles)))
    xi = float(np.angle(coupling[1])) + np.pi
    w = np.exp(-1j * xi) * coupling
    return {"theta": float(np.arccos(min(1.0, -w[1].real))),
            "phi": float(np.arctan2(abs(w[0]), abs(w[2]))),
            "mu_minus": float(np.angle(w[0])), "mu_plus": float(np.angle(w[2])), "xi": xi}


def ground_vector(doc) -> np.ndarray:
    return np.array([complex(re, im) for re, im in doc])


def vector_doc(psi: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in psi]


def rotated_run(tmp_path, regime: str, u: np.ndarray, psis: np.ndarray, name: str):
    """``simulate`` and ``bloch-export`` of the stored sequence with the ground space rotated by u.

    The initial states, the target vectors and every step's coupling are rotated.
    Returns the summary, each (state, pulse) trajectory CSV as a table, and the radii.
    """
    doc = json.loads(bundled_config_path().read_text())
    doc.update(mode=regime, envelope="square", rates=REGIMES[regime],
               initial_states=[vector_doc(u @ psi) for psi in psis])
    for key in ("psi1", "psi2"):
        doc["target"][key] = vector_doc(u @ ground_vector(doc["target"][key]))
    steps = json.loads(STORED_SEQUENCE.read_text())["sequence"]["steps"]
    config, sequence = tmp_path / f"{name}.json", tmp_path / f"{name}-sequence.json"
    config.write_text(json.dumps(doc))
    sequence.write_text(json.dumps({"sequence": {"steps": [rotated_step(step, u)
                                                           for step in steps]}}))
    common = ["--config", str(config), "--sequence", str(sequence)]
    assert main(["simulate", *common, "--out", str(tmp_path / f"{name}-sim")]) == 0
    assert main(["bloch-export", *common, "--out", str(tmp_path / f"{name}-bloch")]) == 0
    summary = json.loads((tmp_path / f"{name}-sim" / "summary.json").read_text())
    tables = {(row["state_index"], l): np.loadtxt(tmp_path / f"{name}-sim" / path,
                                                  delimiter=",", skiprows=1)
              for row in summary["states"] for l, path in enumerate(row["trajectories"])}
    radii = np.loadtxt(tmp_path / f"{name}-bloch" / "bloch_radii.csv", delimiter=",",
                       skiprows=1)[:, 1]
    return summary, tables, radii


def random_states(rng, n: int = 3) -> np.ndarray:
    psis = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    return psis / np.linalg.norm(psis, axis=1)[:, None]


class TestGroundRotationCovariance:
    """Rotating the whole ground space by one U in SU(3) rotates every state and nothing else.

    The relaxation is invariant under ground rotations, so with the initial states,
    the target and every step's coupling rotated, ``simulate``'s trajectories are the
    rotated ones and every distance is unchanged.  The key table rotates each later
    pulse's states into its first pulse's frame with rotations made from the stacked
    ground frames ``[n1, n2, e^{i xi} b]``; in the rotated run those rotations are
    made from other frames.  ``bloch-export`` maps a fixed grid of initial states,
    which a random U does not preserve, so its radii are compared under a rotation
    that permutes the grid.
    """

    @pytest.mark.parametrize("regime", ["alpha", "beta"])
    def test_simulate_trajectories_rotate_and_distances_stay(self, tmp_path, regime):
        # measured worst over 10 random rotations per regime: 2.0e-13 on a trajectory
        # entry, 2.2e-13 on a distance, 3.6e-13 on a trace or dark weight, 7.3e-15
        # relative on a duration or a time
        rng = np.random.default_rng(20240811)
        u, psis = random_su3(rng), random_states(rng)
        full = np.eye(4, dtype=complex)
        full[:3, :3] = u
        plain, plain_tables, _ = rotated_run(tmp_path, regime, np.eye(3), psis, "plain")
        rotated, rotated_tables, _ = rotated_run(tmp_path, regime, u, psis, "rotated")
        for a, b in zip(plain["pulses"], rotated["pulses"]):
            assert abs(b["duration"] / a["duration"] - 1.0) <= 1e-13
        for a, b in zip(plain["states"], rotated["states"]):
            for name in ("hs_ode_vs_map", "hs_ode_vs_target", "hs_map_vs_target",
                         "mismatch_ode_vs_target", "mismatch_map_vs_target"):
                assert abs(a[name] - b[name]) <= 2e-12
        for key, table in plain_tables.items():
            other = rotated_tables[key]
            assert np.abs(other[:, 0] - table[:, 0]).max() <= 1e-13 * table[-1, 0]
            rho, rho_rotated = trajectory_states(table), trajectory_states(other)
            assert np.abs(full @ rho @ full.conj().T - rho_rotated).max() <= 2e-12
            # the trace and the dark weight (the last two columns) do not move
            assert np.abs(other[:, -2:] - table[:, -2:]).max() <= 3e-12

    @pytest.mark.parametrize("regime", ["alpha", "beta"])
    def test_bloch_radii_stay_under_a_grid_symmetry(self, tmp_path, regime):
        # measured worst over 10 grid symmetries per regime: 1.2e-15
        rng = np.random.default_rng(20240812)
        resolution = json.loads(bundled_config_path().read_text())["grid_resolution"]
        u, psis = grid_symmetry(rng, resolution), random_states(rng)
        _, _, plain = rotated_run(tmp_path, regime, np.eye(3), psis, "plain")
        _, _, rotated = rotated_run(tmp_path, regime, u, psis, "rotated")
        assert np.abs(rotated - plain).max() <= 1e-14

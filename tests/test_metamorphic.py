"""Metamorphic witnesses: pairs of command runs that the physics says must agree.

Each witness needs no oracle: it compares a run of the package with another run of
the package on transformed inputs, through ``cli.main``.
"""

import json

import numpy as np
import pytest

from darkpulse.cli import bundled_config_path, main

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

"""Regenerate ``data/sequence.json``, the stored sequence of ``sine_export``.

Run from the repository root::

    python3 perfbench/make_sequence.py

It runs ``darkpulse optimize --threads 1`` on the bundled config with the
``sine_export`` settings (``workloads.SINE_SETTINGS``: beta mode, sine-squared
envelope, all three rates 1) and the bundled optimizer seed, then stores the
result's ``sequence`` together with that recipe.  ``sine_export`` reads the
file and never runs the optimizer, so later optimizer changes cannot alter its
work.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

from workloads import SINE_SETTINGS, STORED_SEQUENCE, bundled_doc  # noqa: E402


def main() -> int:
    from darkpulse import cli

    work = ROOT / ".perfbench-out" / "make-sequence"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    doc = bundled_doc()
    doc.update(SINE_SETTINGS)
    config = work / "config.json"
    config.write_text(json.dumps(doc, indent=2) + "\n")
    argv = ["optimize", "--config", str(config), "--out", str(work / "out"), "--threads", "1"]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        print(f"make_sequence: optimize exited with {code}", file=sys.stderr)
        return 1
    result = json.loads((work / "out" / "result.json").read_text())
    source = {"command": "darkpulse optimize --config <config> --out <dir> --threads 1",
              "config": "bundled config updated with " + json.dumps(SINE_SETTINGS),
              "optimizer_seed": result["seed"], "converged": result["converged"],
              "objective_rms": result["objective_rms"], "script": "perfbench/make_sequence.py"}
    STORED_SEQUENCE.write_text(json.dumps({"source": source, "sequence": result["sequence"]},
                                          indent=2) + "\n")
    shutil.rmtree(work)
    print(f"wrote {STORED_SEQUENCE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

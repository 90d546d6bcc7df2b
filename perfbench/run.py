"""End-to-end benchmark of the darkpulse CLI, with an outside-in layer trace.

Run from the repository root::

    python3 perfbench/run.py --workload reproduce_paper --seed 1 --seconds 35 --trace 0

Every CLI call runs in this process through ``darkpulse.cli.main(argv)`` with
``--threads 1`` and its stdout captured; BLAS is pinned to one thread.  A run
sets up (import, inputs, warm-up pass), then repeats whole passes of the
workload for about ``--seconds`` seconds and checks each one (see
``workloads.py``).  A pass fails on a nonzero exit code, an exception, a
failed check, or a data artifact (``meta`` stripped) that differs from the
first pass's.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of five
set-ups, four of them in fresh child processes), ``wall_ref_s`` (pass time at
the reference host speed, below) and ``peak_rss_mb``; the summary line also
gives the plain ``wall_s`` (median pass wall time) and ``fail_ratio``.

Host speed: on a shared host the same pass runs up to 1.7 times slower for
minutes at a time, in CPU time as much as in wall time.  So a fixed reference
kernel (:func:`reference_kernel`, small numpy calls like the package's own)
is timed before the first pass and after every pass.  ``wall_ref_s`` is the
run's total pass time over its total kernel time, times ``REFERENCE_KERNEL_S``:
the mean pass time on a host of reference speed.  A slowdown lasts longer than
a run, so it hits kernel and passes alike, and ``wall_ref_s`` keeps the
program's speed and drops most of the host's.  (Over three ten-run sets per
workload this ratio of totals spread less from run to run than a ratio of
medians or the median of per-pass ratios: one short kernel time is noisy.)

``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics listed in ``BENCHMARK.json`` (``trace.overhead_s`` is the mean traced
pass minus the mean untraced pass, at the reference host speed); it also checks
that every traced pass gives identical deterministic counts.

The last stdout line is the JSON result.  A full report with provenance
(revision, library versions, CPU count, BLAS, seed, the stored baseline) and
the traced spans is written under ``.perfbench-out/``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up is timed from here, before numpy loads

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # before numpy loads
    os.environ.setdefault(_var, "1")

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

from layer_trace import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

OUT = ROOT / ".perfbench-out"
SETUP_SAMPLES = 5
MIN_PASSES = 3
KERNEL_CALLS = 3000
# The reference host speed: wall_ref_s is a pass's time on a host where
# reference_kernel() takes this long, about its time on the baseline machine
# when that machine is unloaded (baseline.json records the kernel times seen).
REFERENCE_KERNEL_S = 0.08
TRACER_COUNTERS = ("optimize.iterations", "optimize.objective_evals", "optimize.restarts",
                 "dynamics.rhs_evals")


@dataclass
class Pass:
    seconds: float
    failures: list[str]
    kernel_s: float = float("nan")  # mean reference-kernel time around the pass
    gap: float = float("nan")
    bytes_written: int = 0
    tracer: Tracer | None = None


@dataclass
class Run:
    workload: Workload
    argvs: list[list[str]]
    work: Path
    passes: list[Pass] = field(default_factory=list)
    reference: dict | None = None
    kernel_s: float = float("nan")  # the latest reference-kernel time


def parse_args(argv=None) -> argparse.Namespace:
    def nonnegative(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("must be nonnegative")
        return value

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=nonnegative, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- passes --------------------------------------------------------------------

def run_cli(argvs: list[list[str]], out_dir: Path) -> tuple[float, list[str]]:
    """Run one pass's CLI calls in-process; returns (seconds, failures)."""
    from darkpulse import cli

    failures = []
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in argvs:
            argv = [a.replace("{out}", str(out_dir)) for a in argv]
            try:
                code = cli.main(argv)
            except (Exception, SystemExit) as exc:  # a crash is a failed pass
                failures.append(f"{argv[0]}: {type(exc).__name__}: {exc}")
                break
            if code != 0:
                failures.append(f"{argv[0]}: exit code {code}")
                break
    return time.perf_counter() - start, failures


def reference_kernel() -> float:
    """Seconds for a fixed loop of small numpy calls; tracks the host's speed."""
    import numpy as np

    a = np.random.default_rng(0).normal(size=(8, 8))
    h = a[:3, :3] + a[:3, :3].T
    start = time.perf_counter()
    for _ in range(KERNEL_CALLS):
        np.kron(a[:4, :4], a[4:, 4:])
        np.linalg.eigvalsh(h)
    return time.perf_counter() - start


def artifact_digests(out_dir: Path) -> tuple[dict[str, str], int]:
    """Digest of every artifact (JSON with ``meta`` removed) and total bytes written."""
    digests, written = {}, 0
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        written += len(data)
        if path.suffix == ".json":
            doc = json.loads(data)
            doc.pop("meta", None)
            data = json.dumps(doc).encode()
        digests[str(path.relative_to(out_dir))] = hashlib.sha256(data).hexdigest()
    return digests, written


def check_artifacts(run: Run, out_dir: Path, result: Pass) -> list[str]:
    """The workload's checks plus the comparison with the first pass's artifacts."""
    try:
        failures, result.gap = run.workload.check(out_dir)
        digests, result.bytes_written = artifact_digests(out_dir)
    except Exception as exc:  # unreadable or malformed artifacts fail the pass
        return [f"reading artifacts: {type(exc).__name__}: {exc}"]
    if run.reference is None:
        run.reference = digests
    elif digests != run.reference:
        changed = sorted(k for k in set(digests) | set(run.reference)
                         if digests.get(k) != run.reference.get(k))
        failures.append(f"artifacts differ from the first pass: {changed[:5]}")
    return failures


def measure_pass(run: Run, tracer=None) -> Pass:
    out_dir = run.work / f"pass{len(run.passes):03d}"
    if tracer is not None:
        tracer.install()
    try:
        seconds, failures = run_cli(run.argvs, out_dir)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = Pass(seconds, failures, tracer=tracer)
    if not failures:
        failures += check_artifacts(run, out_dir, result)
    shutil.rmtree(out_dir, ignore_errors=True)
    after = reference_kernel()
    result.kernel_s = (run.kernel_s + after) / 2
    run.kernel_s = after
    run.passes.append(result)
    return result


def wall_ref_seconds(passes: list[Pass]) -> float:
    """Mean pass wall time rescaled to the reference host speed."""
    return (sum(p.seconds for p in passes) * REFERENCE_KERNEL_S
            / sum(p.kernel_s for p in passes))


def time_left(run: Run, begun: float, seconds: float) -> bool:
    """Whether another pass of median length still fits in the run's window."""
    median = statistics.median(p.seconds + p.kernel_s for p in run.passes)
    return time.perf_counter() - begun + median <= seconds


def set_up(workload_name: str, seed: int, work: Path) -> Run:
    """Import the package, write the inputs, and run the warm-up pass."""
    import darkpulse.cli  # noqa: F401

    workload = WORKLOADS[workload_name]
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    _, failures = run_cli(workload.make_pass(inputs, seed, True), work / "warm")
    if failures:
        raise RuntimeError(f"warm-up pass failed: {failures}")
    return Run(workload, workload.make_pass(inputs, seed, False), work)


def child_setup_seconds(args: argparse.Namespace) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=170, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a child process failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


# -- metrics -------------------------------------------------------------------

def percentile_ms(durations: list[float], q: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return 1e3 * durations[0]
    return 1e3 * statistics.quantiles(durations, n=100, method="inclusive")[q - 1]


def ode_map_gap_max(run: Run) -> float:
    gaps = [p.gap for p in run.passes if not math.isnan(p.gap)]
    return max(gaps, default=0.0)


def layer_metric(name: str, run: Run) -> float:
    """Value of one per-layer metric from the traced and untraced passes."""
    traced = [p for p in run.passes if p.tracer is not None]
    untraced = [p for p in run.passes if p.tracer is None]
    tracers = [p.tracer for p in traced]
    first = tracers[0]
    if name == "trace.overhead_s":
        # traced and untraced passes alternate, so one host-speed scale serves both;
        # per-group kernel totals from a few passes each would add the kernel's noise
        scale = REFERENCE_KERNEL_S / statistics.mean(p.kernel_s for p in run.passes)
        return scale * (statistics.mean(p.seconds for p in traced)
                        - statistics.mean(p.seconds for p in untraced))
    if name == "dynamics.ode_map_gap_max":
        return ode_map_gap_max(run)
    if name == "cli.bytes_written":
        return max(p.bytes_written for p in run.passes)
    if name == "optimize.evals_per_iter":
        iterations = first.counts["optimize.iterations"]
        return first.counts["optimize.objective_evals"] / iterations if iterations else 0.0
    if name in TRACER_COUNTERS:
        return first.counts[name]
    span, _, kind = name.rpartition(".")
    if span not in first.stats:
        raise KeyError(f"per-layer metric {name!r}: no traced span {span!r}")
    if kind in ("calls", "constructed"):
        return first.stats[span][0]
    if kind == "self_s":
        return statistics.median(t.stats[span][1] for t in tracers)
    if kind == "s":
        return statistics.median(t.stats[span][2] for t in tracers)
    if kind in ("ms_p50", "ms_p90"):
        pooled = [d for t in tracers for d in t.durations[span]]
        return percentile_ms(pooled, int(kind[-2:]))
    raise KeyError(f"per-layer metric {name!r}: unknown kind {kind!r}")


def spans_table(tracer) -> dict:
    return {name: {"calls": calls, "self_s": self_s, "total_s": total_s}
            for name, (calls, self_s, total_s) in sorted(tracer.stats.items()) if calls}


def save_spans(path: Path, tracers: list) -> None:
    """All spans of the traced passes; ``parent`` indexes spans of the same pass."""
    import numpy as np

    np.savez_compressed(
        path, names=np.array(tracers[0].names),
        pass_index=np.concatenate([np.full(len(t.span_name), k, dtype=np.int32)
                                   for k, t in enumerate(tracers)]),
        name_id=np.concatenate([np.array(t.span_name, dtype=np.int32) for t in tracers]),
        parent=np.concatenate([np.array(t.span_parent, dtype=np.int64) for t in tracers]),
        start=np.concatenate([np.array(t.span_start) for t in tracers]),
        end=np.concatenate([np.array(t.span_end) for t in tracers]))


# -- provenance ----------------------------------------------------------------

def provenance(args: argparse.Namespace) -> dict:
    import numpy
    import scipy

    revision = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10, check=True)
            revision = proc.stdout.strip()
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "darkpulse").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            source.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    baseline_path = HERE / "baseline.json"
    return {
        "git_revision": revision,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "baseline": (json.loads(baseline_path.read_text())
                     if baseline_path.is_file() else None),
    }


# -- main ----------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "darkpulse" / "cli.py").is_file():
        print("perfbench: src/darkpulse not found; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        run = set_up(args.workload, args.seed, work)
        own_setup = time.perf_counter() - STARTED
        if args.setup_only:
            print(repr(own_setup))
            return 0
        reference_kernel()  # first call loads what the kernel needs
        run.kernel_s = reference_kernel()
        if args.trace:
            setups = [own_setup]
            begun = time.perf_counter()
            kinds = ["untraced", "traced", "traced"]
            while kinds or time_left(run, begun, args.seconds):
                kind = kinds.pop(0) if kinds else (
                    "untraced" if run.passes[-1].tracer is not None else "traced")
                measure_pass(run, Tracer() if kind == "traced" else None)
        else:
            setups = [own_setup] + [child_setup_seconds(args)
                                    for _ in range(SETUP_SAMPLES - 1)]
            run.kernel_s = reference_kernel()
            begun = time.perf_counter()
            while len(run.passes) < MIN_PASSES or time_left(run, begun, args.seconds):
                measure_pass(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for p in run.passes if p.failures)
    for k, p in enumerate(run.passes):
        for message in p.failures:
            print(f"perfbench: pass {k}: {message}", file=sys.stderr)
    correct = failed == 0
    walls = [p.seconds for p in run.passes]
    report = {"provenance": provenance(args), "setup_samples_s": setups,
              "reference_kernel_s": REFERENCE_KERNEL_S,
              "passes": [{"seconds": p.seconds, "kernel_s": p.kernel_s,
                          "traced": p.tracer is not None,
                          "failures": p.failures,
                          "ode_map_gap": None if math.isnan(p.gap) else p.gap,
                          "bytes_written": p.bytes_written} for p in run.passes]}
    stem = f"{args.workload}-seed{args.seed}"

    if args.trace:
        tracers = [p.tracer for p in run.passes if p.tracer is not None]
        counts = [t.deterministic_counts() for t in tracers]
        if any(c != counts[0] for c in counts[1:]):
            correct = False
            print("perfbench: traced passes gave different deterministic counts",
                  file=sys.stderr)
        metrics = {m["name"]: {"value": layer_metric(m["name"], run), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        report.update(deterministic_counts=counts, spans=spans_table(tracers[0]),
                      tracer_cost_s={"parent": [t.parent_cost_s for t in tracers],
                                     "self": [t.self_cost_s for t in tracers]})
        OUT.mkdir(exist_ok=True)
        save_spans(OUT / f"{stem}-spans.npz", tracers)
        for name, metric in metrics.items():
            print(f"{name} = {metric['value']:.6g} {metric['unit']}")
        cost = report["tracer_cost_s"]
        print(f"tracer cost per span, subtracted from the spans' times: "
              f"{1e6 * statistics.median(cost['parent']):.2f} us in the parent, "
              f"{1e6 * statistics.median(cost['self']):.2f} us in the span")
    else:
        values = {"setup_s": statistics.median(setups), "wall_s": statistics.median(walls),
                  "wall_ref_s": wall_ref_seconds(run.passes),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        print(f"{args.workload} seed={args.seed}: "
              f"setup_s={values['setup_s']:.4f} s (median of {len(setups)}), "
              f"wall_s={values['wall_s']:.4f} s (median) and "
              f"wall_ref_s={values['wall_ref_s']:.4f} s (reference speed) of {len(walls)} passes, "
              f"peak_rss_mb={values['peak_rss_mb']:.1f} MB, "
              f"fail_ratio={failed}/{len(walls)} = {failed / len(walls):g}, "
              f"ode_map_gap_max={ode_map_gap_max(run):.3e}")

    report["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    report_path = OUT / f"{stem}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"report: {report_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": len(run.passes), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Outside-in layer tracing for the benchmark.

The package is never edited for tracing.  Instead :meth:`Tracer.install`
wraps each layer's public functions (every function in the module's
``__all__``, plus ``cli.main``) and the ``__init__`` of ``FieldParams`` and
``DensityOperator``, and rebinds the wrapper wherever a ``darkpulse`` module
holds the original.  Modules import functions by name (``cli`` binds
``integrate_master``, ``optimize`` binds ``sequence_affine``, ...), so
patching only the defining module would miss most calls.

Two scipy entry points are counted without a span of their own, so their time
stays inside the calling layer: ``solve_ivp`` as bound in ``dynamics`` (the
sum of ``nfev`` is the RHS-evaluation count) and ``minimize`` as bound in
``optimize`` (one call per optimizer restart).

Spans (name, parent, start, end) stay in memory as flat lists of numbers, which
the garbage collector does not scan; the runner writes them out once the run
ends.  The benchmark is single-threaded (``--threads 1``), so a plain stack
gives each span its parent.

A wrapper costs time in two places: its bookkeeping before ``start`` and after
``end`` lands in the parent span, and its call of the wrapped function plus one
clock read land in its own span.  :meth:`Tracer.install` first measures both
on a wrapped no-op (``parent_cost_s`` and ``self_cost_s``, medians of several
rounds) and every span subtracts them: self time loses ``self_cost_s`` once
and ``parent_cost_s`` per child span, total time loses both per descendant.
A self-time change is then the program's, not a change in how many spans the
tracer wraps.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import Counter

LAYERS = ("cli", "config", "optimize", "maps", "core", "liouville", "dynamics")
CONSTRUCTED = ("FieldParams", "DensityOperator")
# inclusive durations are kept per call for these spans (for percentiles)
KEEP_DURATIONS = ("dynamics.verify_map",)
PROBE_CALLS = 4000
PROBE_ROUNDS = 7


def _noop():
    return None


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        # one entry per span, in start order
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds, total seconds]
        self.durations: dict[str, list[float]] = {name: [] for name in KEEP_DURATIONS}
        self.counts: Counter = Counter()
        self.parent_cost_s = 0.0  # tracer seconds per span that land in its parent
        self.self_cost_s = 0.0  # tracer seconds per span that land in the span itself
        # [span index, seconds covered by child spans, child spans, descendant spans]
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn, on_enter=None, on_exit=None):
        name_id = len(self.names)
        self.names.append(name)
        stat = self.stats[name] = [0, 0.0, 0.0]
        keep = self.durations.get(name)
        stack = self._stack
        add_name, add_parent = self.span_name.append, self.span_parent.append
        add_start, ends, add_end = self.span_start.append, self.span_end, self.span_end.append
        clock = time.perf_counter
        outer, inner = self.parent_cost_s, self.self_cost_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_enter is not None:
                on_enter()
            frame = [len(ends), 0.0, 0, 0]
            add_name(name_id)
            add_parent(stack[-1][0] if stack else -1)
            add_end(0.0)
            stack.append(frame)
            start = clock()
            add_start(start)
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                ends[frame[0]] = end
                stack.pop()
                duration = end - start
                if stack:
                    parent = stack[-1]
                    parent[1] += duration
                    parent[2] += 1
                    parent[3] += 1 + frame[3]
                stat[0] += 1
                stat[1] += duration - frame[1] - outer * frame[2] - inner
                stat[2] += duration - (outer + inner) * frame[3] - inner
                if keep is not None:
                    keep.append(duration)
                if on_exit is not None:
                    on_exit(result)
            return result

        return wrapper

    def _counter(self, key: str, fn, amount):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[key] += amount(result)
            return result

        return wrapper

    def _rebind(self, original, wrapper) -> None:
        """Replace ``original`` by ``wrapper`` in every loaded darkpulse module."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "darkpulse"
                                      or mod_name.startswith("darkpulse.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _measure_span_cost(self) -> tuple[float, float]:
        """Seconds per span a wrapper adds to its parent and to its own span."""
        clock = time.perf_counter
        outside, inside = [], []
        for _ in range(PROBE_ROUNDS):
            probe = Tracer()
            wrapped = probe._span("probe", _noop)
            probe._stack.append([-1, 0.0, 0, 0])  # calls run inside a parent span
            start = clock()
            for _ in range(PROBE_CALLS):
                wrapped()
            traced = clock() - start
            start = clock()
            for _ in range(PROBE_CALLS):
                _noop()
            bare = clock() - start
            covered = probe.stats["probe"][2]
            # the bare loop is what the parent spends without tracing
            outside.append((traced - covered - bare) / PROBE_CALLS)
            inside.append(covered / PROBE_CALLS)
        return (max(0.0, statistics.median(outside)), max(0.0, statistics.median(inside)))

    def install(self) -> None:
        import darkpulse.cli  # noqa: F401  (loads every layer)

        self.parent_cost_s, self.self_cost_s = self._measure_span_cost()

        modules = {layer: sys.modules[f"darkpulse.{layer}"] for layer in LAYERS}
        counts = self.counts
        optimizing = [0]  # depth of open optimize_sequence spans

        def enter_optimize():
            optimizing[0] += 1

        def leave_optimize(result):
            optimizing[0] -= 1
            if result is not None:
                counts["optimize.iterations"] += int(result.iterations)

        def enter_sequence_affine():
            if optimizing[0]:
                counts["optimize.objective_evals"] += 1

        hooks = {"optimize.optimize_sequence": (enter_optimize, leave_optimize),
                 "maps.sequence_affine": (enter_sequence_affine, None)}

        targets = [("cli.main", modules["cli"].main)]
        for layer in LAYERS[1:]:
            module = modules[layer]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    targets.append((f"{layer}.{attr}", fn))
        for name, fn in targets:
            self._rebind(fn, self._span(name, fn, *hooks.get(name, (None, None))))

        core = modules["core"]
        for cls_name in CONSTRUCTED:
            cls = getattr(core, cls_name)
            original = cls.__dict__["__init__"]
            self._patches.append((cls, "__init__", original))
            cls.__init__ = self._span(f"core.{cls_name}", original)

        dynamics, optimize = modules["dynamics"], modules["optimize"]
        self._rebind(dynamics.solve_ivp,
                     self._counter("dynamics.rhs_evals", dynamics.solve_ivp,
                                   lambda sol: int(sol.nfev)))
        self._rebind(optimize.minimize,
                     self._counter("optimize.restarts", optimize.minimize, lambda res: 1))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def deterministic_counts(self) -> dict[str, int]:
        """Call counts per span name plus the work counters; equal across passes."""
        out = {f"{name}.calls": stat[0] for name, stat in sorted(self.stats.items())}
        out.update(sorted(self.counts.items()))
        return out

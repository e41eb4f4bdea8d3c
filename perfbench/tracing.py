"""Per-layer tracing by wrapping library functions where their callers look them up.

Nothing under ``src/`` is edited. Each wrapper opens a span on entry and
closes it on exit; a span's self time is its duration minus the time of
the spans opened inside it. Counters are updated at the same boundaries.
A span whose name is already open (``sets.gate`` inside ``sets.gate``,
when ``apply_gate`` reaches ``exact_xor``) is not opened again, so each
layer call is counted once. Time spent in the counter hooks is charged to
no layer; it shows only in ``trace.overhead_ratio``.

A target that no longer exists is skipped and its metrics are reported as
absent, so the benchmark keeps running when a layer is removed.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

_POINT_LAYER = "points."


def _shape(tr, s) -> None:
    for dim in ("h", "p", "m", "q"):
        value = getattr(s, dim, None)
        if value is not None:
            key = f"shape.{dim}_max"
            tr.counts[key] = max(tr.counts[key], value)


def _gate_hook(tr, args, result):
    tr.counts["sets.gate.cols_out"] += result.h
    _shape(tr, result)


def _canonicalize_hook(tr, args, result):
    tr.counts["sets.canonicalize.cols_in"] += args[0].h
    tr.counts["sets.canonicalize.cols_out"] += result.h
    _shape(tr, result)


def _drop_hook(tr, args, result):
    tr.counts["sets.drop_inert_ids.rows_dropped"] += args[0].p - result.p


def _set_hook(tr, args, result):
    _shape(tr, result)


def _point_hook(tr, args, result):
    _shape(tr, args[0])


def _sweep_hook(tr, args, result):
    start, stop, emasks, rmasks = args[0], args[1], args[2], args[5]
    tr.counts["kernels.assignments"] += stop - start
    tr.counts["kernels.survivors"] += int(result)
    tr.counts["kernels.col_ops"] += (stop - start) * (emasks.shape[0] + rmasks.shape[0])


def _unique_rows_hook(tr, args, result):
    tr.counts["points.unique_rows.rows_in"] += args[0].shape[0]
    tr.counts["points.unique_rows.rows_out"] += result.shape[0]


# (module, attribute, span name, counter hook). Entries name every place a
# caller looks a traced function up: network's and reach's own imported
# names, and the module attributes the workloads call.
TARGETS = (
    ("logiczono.reach", "reach", "reach.reach", None),
    ("logiczono.reach", "check_unsafe", "reach.check_unsafe", None),
    ("logiczono.reach", "eval_expr_sets", "network.eval_expr_sets", None),
    ("logiczono.reach", "canonicalize", "sets.canonicalize", _canonicalize_hook),
    ("logiczono.reach", "drop_inert_ids", "sets.drop_inert_ids", _drop_hook),
    ("logiczono.reach", "count_points", "points.count_points", _point_hook),
    ("logiczono.reach", "intersect", "sets.intersect", _set_hook),
    ("logiczono.reach", "witness_point", "points.witness_point", _point_hook),
    ("logiczono.network", "apply_gate", "sets.gate", _gate_hook),
    ("logiczono.network", "canonicalize", "sets.canonicalize", _canonicalize_hook),
    ("logiczono.network", "drop_inert_ids", "sets.drop_inert_ids", _drop_hook),
    ("logiczono.kernels", "sweep_chunk", "kernels.sweep_chunk", _sweep_hook),
    ("logiczono.points", "_unique_rows", "points.unique_rows", _unique_rows_hook),
    ("logiczono.points", "count_points", "points.count_points", _point_hook),
    ("logiczono.points", "enumerate_points", "points.enumerate_points", _point_hook),
    ("logiczono.points", "witness_point", "points.witness_point", _point_hook),
    ("logiczono.sets", "mink_xor", "sets.gate", _gate_hook),
    ("logiczono.sets", "mink_and", "sets.gate", _gate_hook),
    ("logiczono.sets", "exact_xor", "sets.gate", _gate_hook),
    ("logiczono.sets", "exact_and", "sets.gate", _gate_hook),
    ("logiczono.sets", "intersect", "sets.intersect", _set_hook),
    ("logiczono.sets", "canonicalize", "sets.canonicalize", _canonicalize_hook),
)

# Per-layer metrics in report order, with units; see BENCHMARK.json.
TIMED = (
    "network.eval_expr_sets",
    "sets.gate",
    "sets.intersect",
    "sets.canonicalize",
    "sets.drop_inert_ids",
    "reach.reach",
    "reach.check_unsafe",
    "points.count_points",
    "points.enumerate_points",
    "points.witness_point",
    "points.unique_rows",
    "kernels.sweep_chunk",
)
CALLS = ("network.eval_expr_sets", "sets.gate", "sets.intersect", "sets.canonicalize", "kernels.sweep_chunk")
COUNTS = (
    "sets.gate.cols_out",
    "sets.canonicalize.cols_in",
    "sets.canonicalize.cols_out",
    "sets.drop_inert_ids.rows_dropped",
    "points.unique_rows.rows_in",
    "points.unique_rows.rows_out",
    "kernels.assignments",
    "kernels.survivors",
    "kernels.col_ops",
    "shape.h_max",
    "shape.p_max",
    "shape.m_max",
    "shape.q_max",
)
RATIOS = ("points.sweep_share", "kernels.survivor_ratio", "trace.overhead_ratio")


def metric_units() -> dict[str, str]:
    units = {f"{name}.ms": "ms" for name in TIMED}
    units.update({f"{name}.calls": "count" for name in CALLS})
    units.update({name: "count" for name in COUNTS})
    units.update({name: "ratio" for name in RATIOS})
    return units


def _owner(metric: str) -> str:
    """The span whose wrappers produce a metric ('kernels.survivors' -> 'kernels.sweep_chunk')."""
    if metric.startswith("kernels."):
        return "kernels.sweep_chunk"
    if metric == "points.sweep_share":
        return "kernels.sweep_chunk"
    if metric.startswith("shape.") or metric.startswith("trace."):
        return ""
    return metric.rsplit(".", 1)[0]


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self):
        self.self_ms: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.point_calls = 0
        self.swept_point_calls = 0
        self.missing: set[str] = set()
        self._installed: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self._open: set[str] = set()

    def __enter__(self) -> "Tracer":
        names = {t[2] for t in TARGETS}
        present = set()
        for module_name, attr, name, hook in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            present.add(name)
            self._installed.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, hook))
        self.missing = names - present
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def _wrap(self, fn, name, hook):
        point_entry = name.startswith(_POINT_LAYER) and name != "points.unique_rows"

        def traced(*args, **kwargs):
            if name in self._open:
                return fn(*args, **kwargs)
            outer_point = point_entry and not any(n.startswith(_POINT_LAYER) for n in self._open)
            sweeps_before = self.calls["kernels.sweep_chunk"]
            frame = [0.0]
            self._stack.append(frame)
            self._open.add(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._open.discard(name)
                self.self_ms[name] += (end - start - frame[0]) * 1e3
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][0] += end - start
            if hook is not None:
                hook(self, args, result)
            if outer_point:
                self.point_calls += 1
                self.swept_point_calls += self.calls["kernels.sweep_chunk"] > sweeps_before
            if self._stack:
                # hook time belongs to no layer, so the parent does not keep it as self time
                self._stack[-1][0] += time.perf_counter() - end
            return result

        return traced

    def metrics(self, overhead_ratio: float) -> tuple[dict[str, float], list[str]]:
        """Every per-layer metric this tracer could measure, plus the absent names."""
        values: dict[str, float] = {}
        for name in TIMED:
            values[f"{name}.ms"] = self.self_ms[name]
        for name in CALLS:
            values[f"{name}.calls"] = self.calls[name]
        for name in COUNTS:
            values[name] = self.counts[name]
        assignments = self.counts["kernels.assignments"]
        values["kernels.survivor_ratio"] = self.counts["kernels.survivors"] / assignments if assignments else 0.0
        values["points.sweep_share"] = self.swept_point_calls / self.point_calls if self.point_calls else 0.0
        values["trace.overhead_ratio"] = overhead_ratio
        absent = sorted(m for m in values if _owner(m) in self.missing)
        for m in absent:
            del values[m]
        return values, absent

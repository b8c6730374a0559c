"""In-memory spans around calls into bknet, installed from outside the library.

A span records (name, start, end, parent span, item id, raised).  Wrappers
are placed on the module that defines each traced function, on every
other ``bknet`` module that bound the same object by name, and on the
class for methods, so calls between library modules are traced too.
The library source is never edited.

Self time of a span is its duration minus the part of its interval that
its direct child spans cover; grandchildren lie inside children, so they
are not subtracted twice.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

# layer -> [(public name, module, attribute or "Class.method")]
TARGETS = {
    "density": [
        ("integrate", "bknet.density", "DensityField.integrate"),
        ("value_at", "bknet.density", "DensityField.value_at"),
        ("replace_region", "bknet.density", "DensityField.replace_region"),
        ("transplant", "bknet.density", "transplant"),
        ("reciprocal_transplant", "bknet.density", "reciprocal_transplant"),
        ("field_to_json", "bknet.density", "field_to_json"),
        ("field_from_json", "bknet.density", "field_from_json"),
    ],
    "hierarchy": [
        ("build_hierarchy", "bknet.hierarchy", "build_hierarchy"),
        ("embed_in_neighborhood", "bknet.hierarchy", "embed_in_neighborhood"),
        ("assemble_limit_density", "bknet.hierarchy", "assemble_limit_density"),
        ("validate", "bknet.hierarchy", "SegmentHierarchy.validate"),
    ],
    "netbuild": [
        ("make_plan", "bknet.netbuild", "make_plan"),
        ("build_net", "bknet.netbuild", "build_net"),
        ("points_in_window", "bknet.netbuild", "Net.points_in_window"),
        ("check_separation", "bknet.netbuild", "check_separation"),
        ("check_covering", "bknet.netbuild", "check_covering"),
        ("measure_report", "bknet.netbuild", "measure_report"),
        ("net_to_csv", "bknet.netbuild", "net_to_csv"),
    ],
    "certificate": [
        ("toy_constants", "bknet.certificate", "toy_constants"),
        ("evaluate_stretch", "bknet.certificate", "evaluate_stretch"),
    ],
    "plmap": [
        ("identity_map", "bknet.plmap", "identity_map"),
        ("triangles", "bknet.plmap", "PLMap.triangles"),
        ("call", "bknet.plmap", "PLMap.__call__"),
        ("pl_metrics", "bknet.plmap", "pl_metrics"),
    ],
    "search": [
        ("search_min_stretch", "bknet.search", "search_min_stretch"),
    ],
    "distortion": [
        ("greedy_distortion", "bknet.distortion", "greedy_distortion"),
        ("pair_distortion", "bknet.distortion", "pair_distortion"),
    ],
}

SPAN_NAMES = [f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn, _, _ in fns]

COUNTER_NAMES = [
    "netbuild.build_net.points",
    "netbuild.points_in_window.points",
    "netbuild.check_covering.samples",
    "hierarchy.cells",
    "hierarchy.neighborhoods",
    "search.steps",
    "search.accept_ratio",
    "distortion.points",
]

COUNTER_UNITS = {
    "netbuild.check_covering.samples": "computed/item",   # from window and step
    "search.accept_ratio": "ratio",
}

# what a traced run compares with its untraced twin (computed in run.py)
TRACE_METRICS = [
    ("trace.item_s", "s/item", "lower"),            # traced mean item time
    ("trace.overhead", "ratio", "higher"),          # traced / untraced items_per_s
    ("trace.uncovered_frac", "ratio", "lower"),     # traced item time outside top-level spans
    ("trace.span_vs_untraced", "ratio", "lower"),   # top-level span time / untraced item time
    ("trace.digest_mismatches", "count", "lower"),  # items whose outputs differ when traced
]


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    out = []
    for name in SPAN_NAMES:
        out.append((f"{name}.calls", "1/item", "lower"))
        out.append((f"{name}.self_s", "s/item", "lower"))
    for layer in TARGETS:
        out.append((f"{layer}.self_s", "s/item", "lower"))
        out.append((f"{layer}.errors", "count", "lower"))
        out.append((f"{layer}.setup_self_s", "s", "lower"))
    for name in COUNTER_NAMES:
        unit = COUNTER_UNITS.get(name, "1/item")
        out.append((name, unit, "higher" if unit == "ratio" else "lower"))
    return out + TRACE_METRICS


SETUP_ITEM = -1


class Tracer:
    """Collects spans and per-span counts for one process.

    ``item`` is the id stamped on new spans; ``active`` turns recording
    off (wrappers then call straight through), which the benchmark uses
    while it runs its own correctness checks.  Fields are kept in flat
    per-field lists of scalars: a list per span would give the garbage
    collector hundreds of thousands of containers to scan, which slows
    the traced program itself.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int | None] = []
        self.item_of: list[int] = []
        self.raised: list[bool] = []
        self.counts: list[tuple[int, str, float]] = []   # (span index, counter, value)
        self.stack: list[int] = []
        self.item = SETUP_ITEM
        self.active = True

    def open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self.stack[-1] if self.stack else None)
        self.item_of.append(self.item)
        self.end.append(0.0)
        self.raised.append(False)
        self.stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int, raised: bool) -> None:
        self.end[idx] = self.clock()
        self.raised[idx] = raised
        popped = self.stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed out of order (top was {popped})")

    def count(self, idx: int, counter: str, value: float) -> None:
        self.counts.append((idx, counter, float(value)))

    def spans(self) -> list[list]:
        """Rows [name, start, end, parent, item, raised], in opening order."""
        return [list(row) for row in zip(self.name, self.start, self.end,
                                         self.parent, self.item_of, self.raised)]

    def write(self, path: str) -> None:
        """One JSON line per span, then one per count."""
        with open(path, "w") as fh:
            for row in self.spans():
                fh.write(json.dumps({"span": row}) + "\n")
            for c in self.counts:
                fh.write(json.dumps({"count": c}) + "\n")


def read_trace(path: str) -> tuple[list[list], list[tuple[int, str, float]]]:
    spans, counts = [], []
    with open(path) as fh:
        for line in fh:
            doc = json.loads(line)
            if "span" in doc:
                spans.append(doc["span"])
            else:
                counts.append(tuple(doc["count"]))
    return spans, counts


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span: duration minus the union of its direct
    children's intervals, clipped to the span."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[3] is not None:
            children[s[3]].append((s[1], s[2]))
    out = []
    for idx, s in enumerate(spans):
        start, end = s[1], s[2]
        clipped = [(max(a, start), min(b, end)) for a, b in children.get(idx, ())]
        out.append((end - start) - covered_time(clipped))
    return out


def covered_time(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, -float("inf")
    for a, b in sorted(intervals):
        a = max(a, reach)
        if b > a:
            total += b - a
            reach = b
    return total


def _arg(args, kwargs, pos: int, key: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def _count_covering_samples(tracer, idx, args, kwargs, out):
    # computed from the window and step exactly as check_covering lays its grid
    window = _arg(args, kwargs, 1, "window")
    step = _arg(args, kwargs, 2, "step", 1.0 / 64.0)
    nx = len(np.arange(window.x0, window.x1 + step / 2, step))
    ny = len(np.arange(window.y0, window.y1 + step / 2, step))
    tracer.count(idx, "netbuild.check_covering.samples", nx * ny)


def _count_built_field(tracer, idx, args, kwargs, out):
    field = out[0] if isinstance(out, tuple) else out
    if tracer.parent[idx] is None:            # only the field the caller asked for
        tracer.count(idx, "hierarchy.cells", len(field.cells))
    if isinstance(out, tuple):
        levels = out[1].levels
        tracer.count(idx, "hierarchy.neighborhoods",
                     sum(len(lvl.neighborhoods) for lvl in levels))


def _count_search(tracer, idx, args, kwargs, out):
    tracer.count(idx, "search.steps", _arg(args, kwargs, 2, "budget"))
    tracer.count(idx, "search.accepted", len(out.trace) - 1)


def _count_distortion_points(tracer, idx, args, kwargs, out):
    tracer.count(idx, "distortion.points", len(args[0]) if args else len(kwargs["X"]))


COUNTERS = {
    "netbuild.build_net": lambda t, i, a, k, out: t.count(
        i, "netbuild.build_net.points", len(out.points)),
    "netbuild.points_in_window": lambda t, i, a, k, out: t.count(
        i, "netbuild.points_in_window.points", len(out[0])),
    "netbuild.check_covering": _count_covering_samples,
    "hierarchy.build_hierarchy": _count_built_field,
    "hierarchy.assemble_limit_density": _count_built_field,
    "search.search_min_stretch": _count_search,
    "distortion.greedy_distortion": _count_distortion_points,
    "distortion.pair_distortion": _count_distortion_points,
}


def _wrap(tracer: Tracer, name: str, fn, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        raised = True
        try:
            out = fn(*args, **kwargs)
            raised = False
        finally:
            tracer.close(idx, raised)
        if counter is not None:
            counter(tracer, idx, args, kwargs, out)
        return out

    traced.__bench_original__ = fn
    return traced


def install(tracer: Tracer, targets=TARGETS,
            counters=COUNTERS) -> list[tuple[object, str, object]]:
    """Wrap every target; return (owner, attribute, original) for `uninstall`.

    Module functions are replaced in every loaded module of the same
    top-level package that holds the same object under any name.
    """
    undo = []
    for layer, fns in targets.items():
        for fn_name, mod_name, attr in fns:
            name = f"{layer}.{fn_name}"
            mod = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                if hasattr(orig, "__bench_original__"):
                    raise RuntimeError(f"{name} is already wrapped")
                setattr(cls, meth, _wrap(tracer, name, orig, counters.get(name)))
                undo.append((cls, meth, orig))
                continue
            orig = getattr(mod, attr)
            if hasattr(orig, "__bench_original__"):
                raise RuntimeError(f"{name} is already wrapped")
            wrapper = _wrap(tracer, name, orig, counters.get(name))
            package = mod_name.split(".")[0]
            for other_name, other in list(sys.modules.items()):
                if other is None or not (other_name == package
                                         or other_name.startswith(package + ".")):
                    continue
                for key, value in list(vars(other).items()):
                    if value is orig:
                        setattr(other, key, wrapper)
                        undo.append((other, key, orig))
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, orig in reversed(undo):
        setattr(owner, attr, orig)


def summarize(spans: list[list], counts: list[tuple[int, str, float]],
              n_items: int) -> dict[str, float]:
    """Per-item calls and self time per traced function, per-item self
    time per layer and per-item counters; errors and set-up self time per
    layer as totals."""
    per_item = dict.fromkeys(
        [f"{name}.{kind}" for name in SPAN_NAMES for kind in ("calls", "self_s")]
        + [f"{layer}.self_s" for layer in TARGETS], 0.0)
    totals = dict.fromkeys(
        [f"{layer}.{kind}" for layer in TARGETS for kind in ("errors", "setup_self_s")], 0.0)
    for s, st in zip(spans, self_times(spans)):
        name, item, raised = s[0], s[4], s[5]
        layer = name.split(".")[0]
        totals[f"{layer}.errors"] += raised
        if item == SETUP_ITEM:
            totals[f"{layer}.setup_self_s"] += st
        else:
            per_item[f"{name}.calls"] += 1
            per_item[f"{name}.self_s"] += st
            per_item[f"{layer}.self_s"] += st
    counted: dict[str, float] = defaultdict(float)
    for idx, counter, value in counts:
        if spans[idx][4] != SETUP_ITEM:
            counted[counter] += value
    for counter in COUNTER_NAMES:
        per_item[counter] = counted[counter]
    out = {key: value / max(1, n_items) for key, value in per_item.items()}
    out.update(totals)
    # accepted moves over attempted steps, not a per-item figure
    steps = counted["search.steps"]
    out["search.accept_ratio"] = counted["search.accepted"] / steps if steps else 0.0
    return out


def top_level_time(spans: list[list]) -> dict[int, float]:
    """Per item: time covered by spans without a parent."""
    per_item: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[3] is None and s[4] != SETUP_ITEM:
            per_item[s[4]].append((s[1], s[2]))
    return {item: covered_time(iv) for item, iv in per_item.items()}

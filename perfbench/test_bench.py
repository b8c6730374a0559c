"""Tests for the benchmark's own arithmetic: self time, percentiles and the
failure share.  Run with ``python -m pytest perfbench``."""

import json
import sys
import types
from pathlib import Path

import pytest

import bench_spans
import bench_stats
import bench_worker

HERE = Path(__file__).resolve().parent


def ticking_clock():
    """A clock that advances by exactly 1 on every reading."""
    t = [-1.0]

    def clock():
        t[0] += 1.0
        return t[0]
    return clock


def test_self_time_subtracts_only_direct_children():
    spans = [
        ["a.outer", 0.0, 10.0, None, 0, False],
        ["b.mid", 1.0, 4.0, 0, 0, False],
        ["c.leaf", 2.0, 3.0, 1, 0, False],
        ["b.mid", 5.0, 7.0, 0, 0, False],
    ]
    assert bench_spans.self_times(spans) == [5.0, 2.0, 1.0, 2.0]
    assert sum(bench_spans.self_times(spans)) == 10.0


@pytest.fixture
def fake_library():
    """A package `fakelib` shaped like bknet: a method called from a
    function of another module that imported a recursive function by name."""
    pkg = types.ModuleType("fakelib")
    dens = types.ModuleType("fakelib.dens")
    hier = types.ModuleType("fakelib.hier")

    class Field:
        def replace(self):
            return self

    def depth(n):
        return 0 if n == 0 else 1 + dens.depth(n - 1)

    dens.Field, dens.depth = Field, depth

    def build():
        f = dens.Field()
        f.replace()
        f.replace()
        return hier.depth(1)

    hier.build, hier.depth = build, depth
    sys.modules.update({"fakelib": pkg, "fakelib.dens": dens, "fakelib.hier": hier})
    targets = {
        "dens": [("replace", "fakelib.dens", "Field.replace"),
                 ("depth", "fakelib.dens", "depth")],
        "hier": [("build", "fakelib.hier", "build")],
    }
    yield dens, hier, targets
    for name in ("fakelib", "fakelib.dens", "fakelib.hier"):
        del sys.modules[name]


def test_self_time_with_nested_and_reentrant_calls(fake_library):
    dens, hier, targets = fake_library
    tracer = bench_spans.Tracer(clock=ticking_clock())
    tracer.item = 0
    undo = bench_spans.install(tracer, targets, counters={})
    try:
        assert hier.build() == 1
    finally:
        bench_spans.uninstall(undo)
    spans = tracer.spans()
    # build [0,9]; replace [1,2], [3,4]; depth(1) [5,8] holding depth(0) [6,7]
    assert [s[0] for s in spans] == ["hier.build", "dens.replace", "dens.replace",
                                     "dens.depth", "dens.depth"]
    assert [s[3] for s in spans] == [None, 0, 0, 0, 3]
    selfs = bench_spans.self_times(spans)
    assert selfs == [4.0, 1.0, 1.0, 2.0, 1.0]
    # the re-entrant depth() calls are counted twice but timed once
    by_name = {}
    for s, st in zip(spans, selfs):
        by_name[s[0]] = by_name.get(s[0], 0.0) + st
    assert by_name == {"hier.build": 4.0, "dens.replace": 2.0, "dens.depth": 3.0}
    assert sum(selfs) == spans[0][2] - spans[0][1]
    assert bench_spans.top_level_time(spans) == {0: 9.0}
    # uninstall restored the originals everywhere
    assert not hasattr(dens.depth, "__bench_original__")
    assert not hasattr(hier.depth, "__bench_original__")
    assert not hasattr(dens.Field.__dict__["replace"], "__bench_original__")


def test_inactive_tracer_records_nothing(fake_library):
    dens, hier, targets = fake_library
    tracer = bench_spans.Tracer(clock=ticking_clock())
    tracer.active = False
    undo = bench_spans.install(tracer, targets, counters={})
    try:
        hier.build()
    finally:
        bench_spans.uninstall(undo)
    assert tracer.spans() == []


def test_summarize_reports_every_layer_metric_per_item():
    spans = [
        ["netbuild.build_net", 0.0, 4.0, None, bench_spans.SETUP_ITEM, False],
        ["netbuild.check_covering", 10.0, 13.0, None, 0, False],
        ["netbuild.points_in_window", 11.0, 12.0, 1, 0, False],
        ["netbuild.check_covering", 20.0, 21.0, None, 1, True],
    ]
    counts = [(1, "netbuild.check_covering.samples", 100.0),
              (3, "netbuild.check_covering.samples", 50.0)]
    out = bench_spans.summarize(spans, counts, n_items=2)
    assert out["netbuild.check_covering.calls"] == 1.0
    assert out["netbuild.check_covering.self_s"] == 1.5
    assert out["netbuild.points_in_window.self_s"] == 0.5
    assert out["netbuild.self_s"] == 2.0
    assert out["netbuild.setup_self_s"] == 4.0
    assert out["netbuild.errors"] == 1.0
    assert out["netbuild.check_covering.samples"] == 75.0
    want = {name for name, _, _ in bench_spans.per_layer_metrics()}
    assert want - set(out) == {name for name, _, _ in bench_spans.TRACE_METRICS}


def test_p90_needs_ten_samples_beyond_it():
    values = [float(i) for i in range(1, 101)]
    assert bench_stats.percentile(values, 90) == (90.0, 10)
    assert bench_stats.percentile(values, 50) == (50.0, 50)
    with pytest.raises(bench_stats.TooFewSamples):
        bench_stats.percentile(values[:99], 90)
    with pytest.raises(bench_stats.TooFewSamples):
        bench_stats.percentile([], 50)


def test_timings_scale_to_the_reference_speed_of_their_neighbourhood():
    nominal = bench_stats.REF_NOMINAL_S
    assert bench_stats.at_reference_speed([1.0, 2.0], [nominal, nominal]) == [1.0, 2.0]
    # a machine running at half speed doubles both item and reference times
    assert bench_stats.at_reference_speed([2.0, 4.0], [2 * nominal] * 2) == [1.0, 2.0]
    # one slow reference reading among its neighbours is outvoted
    refs = [nominal] * 11
    refs[5] = 10 * nominal
    assert bench_stats.at_reference_speed([1.0] * 11, refs) == [1.0] * 11
    # the window follows a change of speed within the run
    refs = [nominal] * 20 + [2 * nominal] * 20
    scaled = bench_stats.at_reference_speed([1.0] * 20 + [2.0] * 20, refs)
    assert scaled[:15] == [1.0] * 15 and scaled[-15:] == [1.0] * 15
    with pytest.raises(ValueError):
        bench_stats.at_reference_speed([1.0, 2.0], [nominal])


class FlakyWorkload:
    """Items 0..n-1: every fourth raises, item 2 fails its check."""

    def __init__(self, repeat_differs=False):
        self.runs = 0
        self.repeat_differs = repeat_differs

    def run(self, state, item):
        self.runs += 1
        if item % 4 == 3:
            raise RuntimeError("boom")
        return item * 10 + (self.runs if self.repeat_differs else 0)

    def check(self, state, item, out):
        return ["wrong"] if item == 2 else []

    def digest(self, out):
        return str(out)


def test_fail_frac_counts_items_that_raised_or_failed_their_check():
    res = bench_worker.run_items(FlakyWorkload(), None, iter(range(8)), count=8)
    assert res["attempted"] == 8
    assert res["failed"] == 3          # items 2 (check), 3 and 7 (raised)
    assert len(res["latencies"]) == len(res["refs"]) == 6
    assert bench_stats.fail_frac(res["attempted"], res["failed"]) == 3 / 8


def test_repeated_first_item_must_match():
    res = bench_worker.run_items(FlakyWorkload(repeat_differs=True), None,
                                 iter(range(2)), count=2)
    assert res["failed"] == 1
    assert "item 0 repeated" in res["errors"][-1]


def test_benchmark_json_names_match_the_code():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["per_layer"]] == [
        name for name, _, _ in bench_spans.per_layer_metrics()]
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == bench_stats.E2E_UNITS
    predictions = json.loads((HERE / "predictions.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(predictions["workloads"])


def test_window_points_is_an_independent_oracle_for_the_window_query():
    import numpy as np
    import bench_workloads
    from bknet import hierarchy, netbuild
    from bknet.geometry import Rect

    field = hierarchy.assemble_limit_density(1.0, bench_workloads._limit_squares(1))
    net = netbuild.build_net(netbuild.make_plan(field, 2))
    window = Rect(3.3, 2.7, 21.9, 20.2)     # across a square edge and the lattice
    pts, tags = net.points_in_window(window)
    want_pts, want_tags = bench_workloads.window_points(net, window)
    assert (tags == 0).any() and (tags != 0).any()
    assert bench_workloads.same_rows(pts, tags, want_pts, want_tags)
    assert bench_workloads.same_rows(pts[::-1], tags[::-1], want_pts, want_tags)
    assert not bench_workloads.same_rows(pts[1:], tags[1:], want_pts, want_tags)
    moved = pts.copy()
    moved[0, 0] += 1e-9
    assert not bench_workloads.same_rows(moved, tags, want_pts, want_tags)
    assert not bench_workloads.same_rows(pts, np.where(tags == 0, 9, tags), want_pts, want_tags)

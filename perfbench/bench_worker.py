"""One workload in one fresh process: set up, then a closed loop of items.

Run by run.py; prints one JSON object on its last stdout line.  With
--trace-out the bknet wrappers are installed before set-up and the spans
are written to that file at exit.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HARD_CAP_S = 120.0      # a time-bounded loop never runs longer than this
MIN_ITEMS = 100         # so that p90 has at least 10 samples beyond it
SETUP_REFS = 5          # reference timings taken right after set-up


def reference_s() -> float:
    """Wall time of a fixed piece of interpreter and small-array numpy
    work that calls nothing in bknet: how fast the machine runs right now."""
    import numpy as np
    t0 = time.perf_counter()
    s = 0.0
    for i in range(20000):
        s += (i * 0.5) % 7.0
    a = np.arange(64.0)
    for _ in range(1500):
        a = np.sqrt(a * a + 1.0) - 0.5
    return time.perf_counter() - t0


def run_items(workload, state, items, *, seconds: float | None = None,
              count: int | None = None, tracer=None, min_items: int = MIN_ITEMS) -> dict:
    """Closed loop: one item at a time, timed around `workload.run` only.

    Stops after `count` items, or once `seconds` have passed and at least
    `min_items` items completed.  An item fails when it raises or its
    check reports a problem; the first item is run a second time at the
    end and must give an identical digest.  After each completed item,
    untimed, the reference work is timed once (`refs`, one per latency).
    """
    latencies, refs, digests, errors = [], [], [], []
    failed = set()
    first = None
    start = time.perf_counter()
    for i, item in enumerate(items):
        if count is not None:
            if i >= count:
                break
        else:
            elapsed = time.perf_counter() - start
            if (elapsed >= seconds and len(latencies) >= min_items) or elapsed >= HARD_CAP_S:
                break
        if tracer is not None:
            tracer.item, tracer.active = i, True
        try:
            t0 = time.perf_counter()
            out = workload.run(state, item)
            latencies.append(time.perf_counter() - t0)
        except Exception:
            failed.add(i)
            errors.append(f"item {i} raised: {traceback.format_exc(limit=3)}")
            digests.append(None)
            continue
        finally:
            if tracer is not None:
                tracer.active = False
        try:
            problems = workload.check(state, item, out)
            digests.append(workload.digest(out))
        except Exception:
            problems = [f"check raised: {traceback.format_exc(limit=3)}"]
            digests.append(None)
        if problems:
            failed.add(i)
            errors.append(f"item {i}: " + "; ".join(problems))
        refs.append(reference_s())
        if i == 0:
            first = item
    attempted = len(digests)
    if first is not None:
        again = workload.digest(workload.run(state, first))
        if again != digests[0]:
            failed.add(0)
            errors.append("item 0 repeated gave a different digest")
    return {
        "attempted": attempted,
        "failed": len(failed),
        "latencies": latencies,
        "refs": refs,
        "digests": digests,
        "errors": errors,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--start", type=int, default=0,
                    help="skip this many items of the seed's stream")
    ap.add_argument("--items", type=int, default=None,
                    help="run exactly this many items")
    ap.add_argument("--min-items", type=int, default=MIN_ITEMS,
                    help="a time-bounded loop completes at least this many items")
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.monotonic()
    import bknet
    if Path(bknet.__file__).resolve().parent != ROOT / "src" / "bknet":
        print(f"bknet imported from {bknet.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import numpy
    import scipy
    from bench_workloads import WORKLOADS
    t_import = time.monotonic()

    tracer = None
    if args.trace_out:
        import bench_spans
        tracer = bench_spans.Tracer()
        bench_spans.install(tracer)
    workload = WORKLOADS[args.workload]
    state = workload.setup(args.seed)
    t_ready = time.monotonic()
    setup_refs = sorted(reference_s() for _ in range(SETUP_REFS))

    doc = {
        "t_ready": t_ready,
        "import_s": t_import - t0,
        "build_s": t_ready - t_import,
        "setup_ref_s": setup_refs[SETUP_REFS // 2],
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    items = itertools.islice(workload.items(args.seed), args.start, None)
    doc.update(run_items(workload, state, items, seconds=args.seconds, count=args.items,
                         tracer=tracer, min_items=args.min_items))
    doc["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.write(args.trace_out)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())

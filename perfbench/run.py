"""bknet benchmark: one workload, one seed, untraced or traced.

    python3 perfbench/run.py --workload net-windows --seed 1 --seconds 38 --trace 0

--trace 0 prints the end-to-end metrics of one untraced run: CHUNKS
fresh processes in turn each set up (timed; median) and run the closed
item loop for their share of --seconds.  Times are reported at a fixed
reference speed of the machine (bench_stats.at_reference_speed), because
the shared machine's own speed drifts by up to twofold within minutes;
the wall-clock figures are printed too, as wall_clock.  --trace 1 runs the loop untraced for
half the time, then the same items again in a fresh process with span
wrappers on the bknet layers, checks that every item's outputs are
unchanged by tracing, and prints the per-layer metrics.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  A fuller record, with the machine, goes
to perfbench/out/.  Workloads and the reasons for them are in
perfbench/predictions.json.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bench_spans
import bench_stats
import bench_worker

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
OUT = HERE / "out"
WORKLOADS = ("net-windows", "density-pipeline", "stretch-search")
# The timed loop runs in this many fresh processes in turn, each for an
# equal share of --seconds: set-up is timed in each (median), and no one
# process's layout or slow spell decides the run.
CHUNKS = 4
WORKER_TIMEOUT_S = 170
# Two query threads on a two-core machine shared with other jobs made
# net-windows throughput vary about three times more from run to run
# than one thread did, so the workers use one unless told otherwise.
THREADS = os.environ.get("BKNET_THREADS", "1")


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: float = 0.0, start: int = 0,
          items: int | None = None, min_items: int | None = None,
          trace_out: Path | None = None) -> dict:
    """Run one worker process to completion; setup_s counts from its launch."""
    cmd = [sys.executable, str(HERE / "bench_worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--start", str(start)]
    if items is not None:
        cmd += ["--items", str(items)]
    if min_items is not None:
        cmd += ["--min-items", str(min_items)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S,
                          env=dict(os.environ, BKNET_THREADS=THREADS))
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["setup_s"] = doc["t_ready"] - t0
    return doc


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine(seed: int, versions: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "BKNET_THREADS": THREADS,
        "git_commit": git_commit(),
        "seed": seed,
    }


def untraced(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """CHUNKS workers in turn, each continuing the seed's item stream where
    the last stopped; latencies are pooled, set-up times give the median."""
    chunks = []
    for _ in range(CHUNKS):
        start = sum(c["attempted"] for c in chunks)
        chunks.append(spawn(workload, seed, seconds=seconds / CHUNKS, start=start,
                            min_items=-(-bench_worker.MIN_ITEMS // CHUNKS)))
    wall = [t for c in chunks for t in c["latencies"]]
    latencies = [t for c in chunks
                 for t in bench_stats.at_reference_speed(c["latencies"], c["refs"])]
    wall_setups = [c["setup_s"] for c in chunks]
    setups = [c["setup_s"] * bench_stats.REF_NOMINAL_S / c["setup_ref_s"] for c in chunks]
    run = dict(chunks[0], attempted=sum(c["attempted"] for c in chunks),
               failed=sum(c["failed"] for c in chunks),
               errors=[e for c in chunks for e in c["errors"]])
    rss_kb = max(c["rss_kb"] for c in chunks)
    metrics = bench_stats.end_to_end(setups, latencies, rss_kb)
    _, beyond = bench_stats.percentile(latencies, 90)
    info = {
        "wall_clock": bench_stats.end_to_end(wall_setups, wall, rss_kb),
        "reference_ms": [1e3 * statistics.median(c["refs"]) for c in chunks],
        "setup_samples_s": setups,
        "items_completed": len(latencies),
        "items_per_chunk": [len(c["latencies"]) for c in chunks],
        "samples_beyond_p90": beyond,
        "latencies_ms": [t * 1e3 for t in latencies],
        "import_s": [c["import_s"] for c in chunks],
        "build_s": [c["build_s"] for c in chunks],
    }
    units = bench_stats.E2E_UNITS
    # fail_frac is 0 when the program is correct, so it is printed here and
    # reaches the result line as `failed` / `attempted`, not as a metric
    extra = {"fail_frac": (bench_stats.fail_frac(run["attempted"], run["failed"]), "ratio")}
    return run, {"metrics": {k: (v, units[k]) for k, v in metrics.items()},
                 "extra": extra, "info": info}


def traced(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    # no percentile is taken here, so the untraced half needs no item floor
    plain = spawn(workload, seed, seconds=seconds / 2, min_items=1)
    n = plain["attempted"]
    path = OUT / f"spans-{workload}-s{seed}.jsonl"
    run = spawn(workload, seed, items=n, trace_out=path)
    spans, counts = bench_spans.read_trace(str(path))
    values = bench_spans.summarize(spans, counts, n)

    mismatches = sum(a != b for a, b in zip(plain["digests"], run["digests"]))
    top = bench_spans.top_level_time(spans)
    traced_item_s = sum(run["latencies"])
    covered = sum(top.values())
    # the two processes ran at different machine speeds: compare them at
    # the reference speed
    traced_ref_s = sum(bench_stats.at_reference_speed(run["latencies"], run["refs"]))
    plain_ref_s = sum(bench_stats.at_reference_speed(plain["latencies"], plain["refs"]))
    values.update({
        "trace.item_s": traced_item_s / n,
        "trace.overhead": (len(run["latencies"]) / traced_ref_s)
                          / (len(plain["latencies"]) / plain_ref_s),
        "trace.uncovered_frac": (traced_item_s - covered) / traced_item_s,
        "trace.span_vs_untraced": covered / traced_item_s * traced_ref_s / plain_ref_s,
        "trace.digest_mismatches": mismatches,
    })
    units = {name: unit for name, unit, _ in bench_spans.per_layer_metrics()}
    info = {
        "items": n,
        "spans": len(spans),
        "untraced_fail_frac": bench_stats.fail_frac(plain["attempted"], plain["failed"]),
        "traced_fail_frac": bench_stats.fail_frac(run["attempted"], run["failed"]),
    }
    both = dict(run, attempted=plain["attempted"] + run["attempted"],
                failed=plain["failed"] + run["failed"] + mismatches,
                errors=plain["errors"] + run["errors"])
    return both, {"metrics": {k: (values[k], units[k]) for k in units}, "info": info}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src" / "bknet"
    if not (src / "__init__.py").is_file():
        print(f"no bknet sources at {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # the build: byte-compile once so every timed process imports the same way
    if not (compileall.compile_dir(str(src), quiet=1)
            and compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)):
        print("sources failed to compile", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    try:
        if args.trace:
            run, report = traced(args.workload, args.seed, args.seconds)
        else:
            run, report = untraced(args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired, bench_stats.TooFewSamples) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report["metrics"].items()},
    }
    record = dict(result, workload=args.workload, trace=args.trace, seconds=args.seconds,
                  extra={k: v for k, (v, _) in report.get("extra", {}).items()},
                  info=report["info"],
                  machine=machine(args.seed, run["versions"]), errors=run["errors"])
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in {**report["metrics"], **report.get("extra", {})}.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    for name, value in report["info"].items():
        if name != "latencies_ms":
            if isinstance(value, list):
                shown = [round(v, 4) for v in value]
            elif isinstance(value, dict):
                shown = {k: round(v, 4) for k, v in value.items()}
            else:
                shown = value
            print(f"  {name:<44} {shown}")
    for line in run["errors"][:5]:
        print(f"  error: {line}", file=sys.stderr)
    print("machine " + json.dumps(record["machine"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

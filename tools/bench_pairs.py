"""Alternated benchmark pairs of two commits, summarised in BENCH_<sha>.json.

    python3 tools/bench_pairs.py --base a0767b3 --head HEAD \\
        --workload stretch-search --seeds 21-30

Both commits are exported with `git archive` under .bench_build/ and each
runs its own, unchanged `perfbench/run.py --workload W --seed S
--seconds T`, with T the `run_seconds` of BENCHMARK.json (38).  One seed
is one pair; the side that runs first alternates
from pair to pair.  A run counts only if it exits 0 (its workers exit 2
when `import bknet` resolves outside their checkout), reports every item
correct and wrote its record into its own tree's perfbench/out; before the
runs, `import bknet` is also resolved the way the workers do it, in each
tree, and must land in that tree.

The output holds the machine and, per workload and side, the median and
quartiles of every end-to-end metric of BENCHMARK.json plus the
wall-clock set-up time, and per metric the pairs the head won and lost
(ties count for neither), the change of the median against the base's
median, the base's quartile spread, and the metric's bound.  One call runs
one workload; calling again with the same base and head adds or replaces
a workload in the same file, each on its own seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 900


def export(rev: str) -> tuple[str, Path]:
    """The full sha of rev and a fresh export of its committed files."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    tree = BUILD / sha[:12]
    shutil.rmtree(tree, ignore_errors=True)
    tree.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    return sha, tree


def run_env() -> dict:
    """The environment of every run: this one without PYTHONPATH."""
    return {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


def check_import(tree: Path) -> None:
    """Resolve `import bknet` as perfbench's workers do (src first on the
    path) and require it to land in tree."""
    code = ("import sys; sys.path.insert(0, 'src'); import bknet; "
            "print(bknet.__file__)")
    out = subprocess.run([sys.executable, "-c", code], cwd=tree, env=run_env(), check=True,
                         capture_output=True, text=True).stdout.strip()
    if Path(out).resolve().parent != (tree / "src" / "bknet").resolve():
        raise RuntimeError(f"bknet from {out}, not from {tree}")


def perfbench_run(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One untraced run of tree's own perfbench: its result line and the
    record it wrote into tree/perfbench/out."""
    record = tree / "perfbench" / "out" / f"result-{workload}-s{seed}-t0.json"
    started = time.time()
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=tree, env=run_env(), capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree.name} {workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    if not record.is_file() or record.stat().st_mtime < started:
        raise RuntimeError(f"{tree.name} {workload} seed {seed} wrote no record in its tree")
    return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(record.read_text())


def schedule(seeds: list[int]) -> list[tuple[int, tuple[str, str]]]:
    """One pair per seed; the first side alternates: base first, then head
    first, and so on."""
    return [(seed, ("base", "head") if k % 2 == 0 else ("head", "base"))
            for k, seed in enumerate(seeds)]


def run_pairs(trees: dict, workload: str, seeds: list[int], seconds: float,
              runner=perfbench_run, log=print) -> list[dict]:
    """Every run of the schedule, in the order made."""
    runs = []
    for pair, (seed, order) in enumerate(schedule(seeds)):
        for side in order:
            line, record = runner(trees[side], workload, seed, seconds)
            if line["correct"] is not True:
                raise RuntimeError(f"{side} {workload} seed {seed}: "
                                   f"{line['failed']} of {line['attempted']} items failed")
            metrics = {k: v["value"] for k, v in line["metrics"].items()}
            runs.append({
                "pair": pair, "seed": seed, "side": side, "workload": workload,
                "metrics": metrics,
                "wall_setup_s": record["info"]["wall_clock"]["setup_s"],
                "attempted": line["attempted"],
                "machine": record["machine"],
            })
            log(f"{workload} seed {seed} {side}: " + ", ".join(
                f"{k} {v:.4g}" for k, v in metrics.items()))
    return runs


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method; one value is its own)."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def summarise(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per side the spread of every metric; per metric the pair verdicts."""
    def values(side, name):
        return [r["metrics"][name] if name in r["metrics"] else r[name]
                for r in sorted(runs, key=lambda r: r["pair"]) if r["side"] == side]

    names = [m["name"] for m in end_to_end] + ["wall_setup_s"]
    out = {"pairs": len({r["pair"] for r in runs}),
           "seeds": sorted({r["seed"] for r in runs}),
           "base": {n: spread(values("base", n)) for n in names},
           "head": {n: spread(values("head", n)) for n in names},
           "verdicts": {}}
    specs = {m["name"]: m for m in end_to_end}
    specs["wall_setup_s"] = {"better": "lower"}
    for name in names:
        sign = 1.0 if specs[name]["better"] == "higher" else -1.0
        gains = [sign * (h - b) for b, h in zip(values("base", name), values("head", name))]
        base, head = out["base"][name], out["head"][name]
        out["verdicts"][name] = {
            "better": specs[name]["better"],
            "head_won": sum(g > 0 for g in gains),
            "head_lost": sum(g < 0 for g in gains),
            "median_change": head["median"] / base["median"] - 1.0 if base["median"] else None,
            "base_iqr": base["q3"] - base["q1"],
            "bound": specs[name].get("bound"),
        }
    return out


def machine(runs: list[dict]) -> dict:
    first = runs[0]["machine"]
    return {"platform": platform.platform(), "processor": platform.processor(),
            **{k: first[k] for k in ("nproc", "affinity", "python", "numpy", "scipy")}}


def parse_seeds(text: str) -> list[int]:
    """'21-30' or '21,23,25'."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="the parent commit")
    ap.add_argument("--head", default="HEAD", help="the change (default HEAD)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=parse_seeds,
                    help="one pair per seed, as 21-30 or 21,23")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    (base_sha, base_tree), (head_sha, head_tree) = export(args.base), export(args.head)
    trees = {"base": base_tree, "head": head_tree}
    for tree in trees.values():
        check_import(tree)
    out = ROOT / f"BENCH_{head_sha[:7]}.json"
    doc = {"base": base_sha, "head": head_sha, "seconds": seconds, "workloads": {}}
    if out.is_file():
        old = json.loads(out.read_text())
        if (old["base"], old["head"], old["seconds"]) != (base_sha, head_sha, seconds):
            print(f"{out} holds other commits or run lengths", file=sys.stderr)
            return 2
        doc = old
    runs = run_pairs(trees, args.workload, args.seeds, seconds)
    doc["machine"] = machine(runs)
    doc["workloads"][args.workload] = dict(summarise(runs, spec["end_to_end"]), runs=[
        {k: r[k] for k in ("pair", "seed", "side", "metrics", "wall_setup_s", "attempted")}
        for r in runs])
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""tools/bench_pairs.py on stub runs: the pairing, the summary and the
BENCH file, with no real benchmark run."""

import importlib.util
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]
MACHINE = {"nproc": 2, "affinity": 2, "python": "3.x", "numpy": "n", "scipy": "s",
           "BKNET_THREADS": "1", "git_commit": "unknown", "seed": 0}


def stub_runner(speeds, calls):
    """A runner whose items_per_s is speeds[tree][call number on that tree]."""
    def run(tree, workload, seed, seconds):
        k = sum(t == tree for t, _ in calls)
        calls.append((tree, seed))
        line = {"correct": True, "attempted": 10, "failed": 0, "metrics": {
            "setup_s": {"value": 0.1, "unit": "s"},
            "items_per_s": {"value": speeds[tree][k], "unit": "1/s"}}}
        record = {"info": {"wall_clock": {"setup_s": 0.2 + k}}, "machine": MACHINE}
        return line, record
    return run


def test_first_side_alternates():
    assert bench_pairs.schedule([5, 6, 7]) == [
        (5, ("base", "head")), (6, ("head", "base")), (7, ("base", "head"))]


def test_pairs_and_summary():
    calls = []
    speeds = {"B": [10.0, 11.0, 12.0, 13.0], "H": [12.0, 10.5, 15.0, 14.0]}
    runs = bench_pairs.run_pairs({"base": "B", "head": "H"}, "w", [1, 2, 3, 4], 38.0,
                                 runner=stub_runner(speeds, calls), log=lambda _: None)
    assert calls == [("B", 1), ("H", 1), ("H", 2), ("B", 2),
                     ("B", 3), ("H", 3), ("H", 4), ("B", 4)]
    s = bench_pairs.summarise(runs, END_TO_END)
    assert s["pairs"] == 4 and s["seeds"] == [1, 2, 3, 4]
    assert s["base"]["items_per_s"] == {"median": 11.5, "q1": 10.75, "q3": 12.25, "n": 4}
    assert s["head"]["items_per_s"]["median"] == 13.0
    v = s["verdicts"]["items_per_s"]
    assert (v["head_won"], v["head_lost"]) == (3, 1)
    assert v["median_change"] == pytest.approx(13.0 / 11.5 - 1.0)
    assert v["base_iqr"] == 1.5 and v["bound"] == 0.25
    # equal set-up times tie: neither side wins
    assert (s["verdicts"]["setup_s"]["head_won"], s["verdicts"]["setup_s"]["head_lost"]) == (0, 0)
    # the wall-clock set-up time is summarised beside the scaled one, lower
    # is better
    assert s["base"]["wall_setup_s"]["median"] == pytest.approx(1.7)
    assert s["verdicts"]["wall_setup_s"]["better"] == "lower"


def test_one_pair_is_its_own_spread():
    assert bench_pairs.spread([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0, "n": 1}


def test_an_incorrect_run_stops_the_pairs():
    def run(tree, workload, seed, seconds):
        return {"correct": False, "attempted": 10, "failed": 1, "metrics": {}}, {}

    with pytest.raises(RuntimeError, match="1 of 10 items failed"):
        bench_pairs.run_pairs({"base": "B", "head": "H"}, "w", [1], 1.0, runner=run,
                              log=lambda _: None)


STUB_RUN = '''
import json, sys
from pathlib import Path
SPEED = {speed}
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
out = Path(__file__).resolve().parent / "out"
out.mkdir(exist_ok=True)
name = "result-{{}}-s{{}}-t0.json".format(args["--workload"], args["--seed"])
(out / name).write_text(json.dumps({{"info": {{"wall_clock": {{"setup_s": 0.3}}}},
                                     "machine": {machine}}}))
print("workload ...")
print(json.dumps({{"correct": True, "attempted": 5, "failed": 0, "metrics": {{
    "setup_s": {{"value": 0.1, "unit": "s"}},
    "items_per_s": {{"value": SPEED * int(args["--seed"]), "unit": "1/s"}}}}}}))
'''


def commit_stub(repo, speed):
    (repo / "perfbench" / "run.py").write_text(
        STUB_RUN.format(speed=speed, machine=json.dumps(MACHINE)))
    subprocess.run(["git", "add", "-A"], cwd=repo, check=True)
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q",
                    "-m", f"speed {speed}"], cwd=repo, check=True)
    return subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, check=True,
                          capture_output=True, text=True).stdout.strip()


@pytest.fixture
def stub_repo(tmp_path, monkeypatch):
    """A git repository with a stub bknet and a stub perfbench/run.py that
    prints a result line and writes its record, at two commits."""
    repo = tmp_path / "repo"
    (repo / "src" / "bknet").mkdir(parents=True)
    (repo / "src" / "bknet" / "__init__.py").write_text("")
    (repo / "perfbench").mkdir()
    (repo / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 38,
                                                     "end_to_end": END_TO_END}))
    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    base = commit_stub(repo, 1.0)
    head = commit_stub(repo, 1.5)
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    monkeypatch.setattr(bench_pairs, "BUILD", repo / ".bench_build")
    return repo, base, head


def test_bench_file_from_two_exported_commits(stub_repo, capsys):
    repo, base, head = stub_repo
    argv = ["--base", base, "--head", head, "--seeds", "2-4", "--workload", "w1"]
    assert bench_pairs.main(argv) == 0
    out = repo / f"BENCH_{head[:7]}.json"
    doc = json.loads(out.read_text())
    assert (doc["base"], doc["head"]) == (base, head)
    assert doc["machine"]["nproc"] == 2
    w = doc["workloads"]["w1"]
    assert w["base"]["items_per_s"]["median"] == 3.0
    assert w["head"]["items_per_s"]["median"] == 4.5
    assert w["verdicts"]["items_per_s"]["head_won"] == 3
    assert [(r["seed"], r["side"]) for r in w["runs"]] == [
        (2, "base"), (2, "head"), (3, "head"), (3, "base"), (4, "base"), (4, "head")]
    assert w["runs"][0]["wall_setup_s"] == 0.3
    # each side ran in its own export
    for sha in (base, head):
        assert (repo / ".bench_build" / sha[:12] / "perfbench" / "out"
                / "result-w1-s4-t0.json").is_file()
    assert doc["seconds"] == 38
    # a second workload joins the same file, on its own seeds
    assert bench_pairs.main(["--base", base, "--head", head, "--seeds", "5,6",
                             "--workload", "w2"]) == 0
    doc = json.loads(out.read_text())
    assert set(doc["workloads"]) == {"w1", "w2"}
    assert doc["workloads"]["w2"]["seeds"] == [5, 6]
    assert doc["workloads"]["w1"]["seeds"] == [2, 3, 4]


def test_a_tree_without_its_own_bknet_is_refused(stub_repo):
    repo, base, _ = stub_repo
    _, tree = bench_pairs.export(base)
    bench_pairs.check_import(tree)
    # without src/bknet the import falls through to a package beside src
    (tree / "src" / "bknet").rename(tree / "bknet")
    with pytest.raises(RuntimeError, match="not from"):
        bench_pairs.check_import(tree)


def test_a_run_that_writes_no_record_is_refused(stub_repo):
    repo, base, _ = stub_repo
    _, tree = bench_pairs.export(base)
    (tree / "perfbench" / "run.py").write_text(textwrap.dedent('''
        import json
        print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {}}))
    '''))
    with pytest.raises(RuntimeError, match="wrote no record"):
        bench_pairs.perfbench_run(tree, "w", 1, 1.0)

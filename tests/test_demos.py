"""Smoke test: every demo runs from a copy and prints its results."""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from bknet import required_depth, schedule_constants

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_demo(name, tmp_path):
    script = tmp_path / name
    shutil.copy(ROOT / "demos" / name, script)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("name, expected, writes_svg", [
    ("01_checkerboard_density.py", ["integral over domain: 0.375 (expected 0.375 )",
                                    "JSON round trip OK"], False),
    ("02_separated_net.py", ["separation a = 1.0000, covering b = 1.1292"], True),
    ("04_hierarchy.py", ["density values within [1, 1+c]: True",
                         "limit density cells: 68  amplitude: 1.0"], False),
], ids=["01", "02", "04"])
def test_demo_prints_its_results(tmp_path, name, expected, writes_svg):
    out = run_demo(name, tmp_path)
    for line in expected:
        assert line in out
    svg = tmp_path / name.replace(".py", ".svg")
    assert (f"wrote {svg}" in out) == writes_svg == svg.exists()
    if writes_svg:
        assert "<circle" in svg.read_text()


def test_certificate_demo_flags_the_planted_pair(tmp_path):
    out = run_demo("03_certificate.py", tmp_path)
    assert "flagged: True" in out
    assert "pass=False" not in out
    # the depth at which the per-level gain k exhausts L, for each (L, c)
    depths = [int(line.rsplit(":", 1)[1]) for line in out.splitlines()
              if line.strip().startswith("hierarchy depth needed")]
    assert depths == [required_depth(L, schedule_constants(L, c).k)
                      for L, c in ((1.1, 0.01), (2.0, 0.1), (5.0, 1.0))]


def test_distortion_search_demo_writes_its_svg_next_to_itself(tmp_path):
    out = run_demo("05_distortion_search.py", tmp_path)
    svg = tmp_path / "05_distortion_search.svg"
    assert f"wrote {svg}" in out
    assert "polygon" in svg.read_text()

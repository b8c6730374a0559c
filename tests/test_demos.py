"""Smoke test: demos 03 and 05 run from a copy and print their results."""

import os
import pathlib
import shutil
import subprocess
import sys

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


def test_certificate_demo_flags_the_planted_pair(tmp_path):
    out = run_demo("03_certificate.py", tmp_path)
    assert "flagged: True" in out
    assert "pass=False" not in out


def test_distortion_search_demo_writes_its_svg_next_to_itself(tmp_path):
    out = run_demo("05_distortion_search.py", tmp_path)
    svg = tmp_path / "05_distortion_search.svg"
    assert f"wrote {svg}" in out
    assert "polygon" in svg.read_text()

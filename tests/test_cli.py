import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import bknet
from bknet import certificate, field_from_json, net_from_csv, plmap_from_json
from bknet.cli import build_parser, main


def run(tmp_path, *argv):
    return main(list(argv))


class TestGenDensity:
    def test_checkerboard_round_trip(self, tmp_path):
        out = tmp_path / "cb.json"
        assert main(["gen-density", "checkerboard", "--N", "4", "--c", "1",
                     "--out", str(out)]) == 0
        field = field_from_json(out.read_text())
        assert field.value_at(0.1, 0.1) == 1.0
        assert field.value_at(0.3, 0.1) == 2.0

    def test_hierarchy_kind(self, tmp_path):
        out = tmp_path / "h.json"
        assert main(["gen-density", "hierarchy", "--L", "2", "--c", "1",
                     "--depth", "2", "--out", str(out)]) == 0
        field = field_from_json(out.read_text())
        assert field.amplitude > 0

    def test_missing_flags_exit_2(self, tmp_path):
        assert main(["gen-density", "checkerboard", "--c", "1"]) == 2

    @pytest.mark.parametrize("kind,flags", [
        ("checkerboard", {"--N", "--c"}),
        ("hierarchy", {"--L", "--c", "--N", "--M", "--depth"}),
        ("limit", {"--c", "--depth"}),
    ])
    def test_kind_help_lists_only_its_flags(self, capsys, kind, flags):
        assert main(["gen-density", kind, "--help"]) == 0
        text = capsys.readouterr().out
        shown = {w.strip("[],") for w in text.split() if w.strip("[],").startswith("--")}
        assert shown == flags | {"--help", "--out"}

    def test_flag_before_the_kind_exit_2(self, tmp_path):
        out = tmp_path / "f.json"
        assert main(["gen-density", "--c", "1", "checkerboard", "--N", "2",
                     "--out", str(out)]) == 2
        assert not out.exists()

    def test_flag_before_the_kind_shows_where_flags_go(self, capsys):
        assert main(["gen-density", "--c", "1", "checkerboard", "--N", "2"]) == 2
        assert ("usage: bknet gen-density [-h] {checkerboard,hierarchy,limit} "
                "[flags of the kind, after it]") in capsys.readouterr().err

    @pytest.mark.parametrize("M", ["3", "6"])
    def test_hierarchy_whose_strips_round_past_their_segment(self, tmp_path, M):
        # a level-3 strip ended one ulp past the level-2 piece beside it, and
        # the build was refused with "cells 54 and 812 overlap"
        out = tmp_path / "h.json"
        assert main(["gen-density", "hierarchy", "--L", "2", "--c", "1", "--N", "7",
                     "--M", M, "--depth", "3", "--out", str(out)]) == 0
        field = field_from_json(out.read_text())
        assert len(field.cells) > 7

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["gen-density", "limit", "--c", "1", "--depth", "2"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestNetCommands:
    @pytest.fixture()
    def density_file(self, tmp_path):
        out = tmp_path / "flat.json"
        main(["gen-density", "limit", "--c", "1", "--depth", "1",
              "--out", str(out)])
        return str(out)

    def test_gen_net_csv(self, tmp_path, density_file):
        out = tmp_path / "net.csv"
        assert main(["gen-net", "--density", density_file, "--K", "1",
                     "--out", str(out)]) == 0
        pts, tags = net_from_csv(out.read_text())
        assert len(pts) > 0
        assert set(np.unique(tags)) <= {0, 1}

    def test_check_net_lattice(self, tmp_path, density_file):
        out = tmp_path / "report.json"
        assert main(["check-net", "--density", density_file, "--K", "0",
                     "--window", "0,0,8,8", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["separation_a"] == pytest.approx(1.0)
        assert doc["covering_b"] == pytest.approx(np.sqrt(2) / 2, abs=0.02)

    def test_negative_K_exit_2(self, tmp_path, density_file):
        assert main(["gen-net", "--density", density_file,
                     "--K", "-1"]) == 2

    def test_missing_density_exit_2(self, tmp_path):
        assert main(["gen-net", "--density", str(tmp_path / "nope.json"),
                     "--K", "1"]) == 2


class TestScheduleAndCertify:
    def test_schedule_report_passes(self, tmp_path):
        out = tmp_path / "sched.json"
        assert main(["schedule", "--L", "2", "--c", "0.1",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        for key in ("claim1", "claim2", "claim3", "epsilon_caps"):
            assert doc[key]["pass"] is True
            assert doc[key]["margin"] >= 0.05

    def test_certify_identity_not_flagged(self, tmp_path):
        sout = tmp_path / "search.json"
        assert main(["search", "--L", "2", "--c", "1", "--N", "4", "--M", "2",
                     "--budget", "0", "--seed", "0", "--out", str(sout)]) == 0
        doc = json.loads(sout.read_text())
        mfile = tmp_path / "map.json"
        mfile.write_text(json.dumps(doc["map"]))
        cout = tmp_path / "cert.json"
        assert main(["certify", "--in", str(mfile), "--L", "2", "--c", "1",
                     "--N", "4", "--M", "2", "--out", str(cout)]) == 0
        cert = json.loads(cout.read_text())
        assert cert["A"] == pytest.approx(1.0)
        assert cert["flagged"] is False

    def test_certify_missing_file_exit_2(self, tmp_path):
        assert main(["certify", "--in", str(tmp_path / "nope.json"),
                     "--L", "2", "--c", "1", "--N", "4", "--M", "2"]) == 2

    def test_certify_overflowing_map_exit_2(self, tmp_path, capsys):
        # a finite but huge vertex image: its pair ratios overflow to inf,
        # which JSON cannot hold
        square = bknet.Rect(0.0, 0.0, 1.0, 0.25)
        doc = json.loads(bknet.plmap_to_json(bknet.identity_map(square, 8, 2)))
        doc["vertices"][3][0] = "1e308"
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "cert.json"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["certify", "--in", str(path), "--L", "2", "--c", "1",
                         "--N", "4", "--M", "2", "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "marked pair ((0.25, 0.0), (0.375, 0.0)) has the non-finite ratio inf" in err


class TestDistort:
    def _csv(self, path, pts):
        lines = ["x,y,tag"] + [f"{x!r},{y!r},1" for x, y in pts]
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_exact_congruent(self, tmp_path):
        x = self._csv(tmp_path / "x.csv", [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        y = self._csv(tmp_path / "y.csv", [(2.0, 2.0), (3.0, 2.0), (2.0, 3.0)])
        out = tmp_path / "d.json"
        assert main(["distort", "--x", x, "--y", y, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["distortion"] == pytest.approx(1.0)
        assert sorted(doc["mapping"]) == [0, 1, 2]

    def test_greedy_flag(self, tmp_path):
        x = self._csv(tmp_path / "x.csv", [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        y = self._csv(tmp_path / "y.csv", [(0.0, 0.0), (2.0, 0.0), (0.0, 2.0)])
        out = tmp_path / "d.json"
        assert main(["distort", "--x", x, "--y", y, "--greedy",
                     "--restarts", "4", "--seed", "1",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["distortion"] >= 1.0

    def test_mismatched_sizes_exit_2(self, tmp_path):
        x = self._csv(tmp_path / "x.csv", [(0.0, 0.0), (1.0, 0.0)])
        y = self._csv(tmp_path / "y.csv", [(0.0, 0.0)])
        assert main(["distort", "--x", x, "--y", y]) == 2


class TestSearchCommand:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["search", "--L", "2", "--c", "1", "--N", "4", "--M", "2",
                "--budget", "300", "--seed", "7"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        doc = json.loads(a.read_text())
        trace = doc["trace"]
        assert all(t2 <= t1 for t1, t2 in zip(trace, trace[1:]))
        plmap_from_json(json.dumps(doc["map"]))  # embedded map parses

    def test_start_above_the_cap_exit_2(self, tmp_path, capsys):
        # the N=5, M=7 marked grid's computed largest singular value is
        # above this cap: the search refuses the start, and nothing is written
        out = tmp_path / "s.json"
        capsys.readouterr()
        assert main(["search", "--L", "1.000000001", "--c", "1", "--N", "5", "--M", "7",
                     "--budget", "100", "--out", str(out)]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceeds the Lipschitz cap L=1.000000001" in captured.err


class TestRuntimeNeedsNoScipy:
    """scipy is only a test dependency: the library and the CLI never import it."""

    @staticmethod
    def run_python(code, cwd):
        env = dict(os.environ, PYTHONPATH=str(Path(bknet.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr

    def test_import_and_search_leave_scipy_unloaded(self, tmp_path):
        self.run_python(
            "import sys, bknet\n"
            "assert 'scipy' not in sys.modules\n"
            "from bknet.cli import main\n"
            "assert main(['search', '--L', '2', '--c', '1', '--N', '4', '--M', '2',"
            " '--budget', '100', '--out', 'search.json']) == 0\n"
            "assert 'scipy' not in sys.modules\n", tmp_path)

    def test_net_pipeline_runs_with_scipy_unimportable(self, tmp_path):
        self.run_python(
            "import sys\n"
            "class NoScipy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] == 'scipy':\n"
            "            raise ImportError(name)\n"
            "sys.meta_path.insert(0, NoScipy())\n"
            "from bknet.cli import main\n"
            "assert main(['gen-density', 'limit', '--c', '1', '--depth', '2', '--out', 'limit.json']) == 0\n"
            "assert main(['gen-net', '--density', 'limit.json', '--K', '2', '--out', 'net.csv']) == 0\n"
            "assert main(['check-net', '--density', 'limit.json', '--K', '2', '--out', 'report.json']) == 0\n",
            tmp_path)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["separation_a"] > 0 and report["covering_b"] > 0


class TestPlot:
    def test_plot_net_is_read_only(self, tmp_path):
        density = tmp_path / "f.json"
        main(["gen-density", "limit", "--c", "1", "--depth", "1",
              "--out", str(density)])
        csv = tmp_path / "net.csv"
        main(["gen-net", "--density", str(density), "--K", "1",
              "--out", str(csv)])
        before = csv.read_bytes()
        svg = tmp_path / "net.svg"
        assert main(["plot", "net", "--in", str(csv),
                     "--out", str(svg)]) == 0
        assert csv.read_bytes() == before
        text = svg.read_text()
        assert text.startswith("<svg") or text.startswith("<?xml")
        assert "circle" in text

    def test_plot_map(self, tmp_path):
        sout = tmp_path / "s.json"
        main(["search", "--L", "2", "--c", "1", "--N", "4", "--M", "2",
              "--budget", "0", "--out", str(sout)])
        mfile = tmp_path / "m.json"
        mfile.write_text(json.dumps(json.loads(sout.read_text())["map"]))
        svg = tmp_path / "m.svg"
        assert main(["plot", "map", "--in", str(mfile),
                     "--out", str(svg)]) == 0
        assert "polygon" in svg.read_text()

    @pytest.mark.parametrize("kind", ["net", "map"])
    def test_extent_that_overflows_exit_2(self, tmp_path, capsys, kind):
        if kind == "net":
            path = tmp_path / "n.csv"
            path.write_text("x,y,tag\n1.7e308,0.0,1\n-1.7e308,1.0,background\n")
        else:
            doc = json.loads(bknet.plmap_to_json(
                bknet.identity_map(bknet.Rect(0.0, 0.0, 1.0, 0.25), 4, 2)))
            doc["vertices"][3][0], doc["vertices"][4][0] = "1.7e308", "-1.7e308"
            path = tmp_path / "m.json"
            path.write_text(json.dumps(doc))
        out = tmp_path / "p.svg"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["plot", kind, "--in", str(path), "--out", str(out)]) == 2
        assert not out.exists()
        assert "cannot draw the extent" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["net", "map"])
    def test_kind_help_lists_only_in_and_out(self, capsys, kind):
        assert main(["plot", kind, "--help"]) == 0
        text = capsys.readouterr().out
        shown = {w.strip("[],") for w in text.split() if w.strip("[],").startswith("--")}
        assert shown == {"--help", "--in", "--out"}

    def test_flag_before_the_kind_exit_2(self, tmp_path, capsys):
        csv = tmp_path / "net.csv"
        csv.write_text("x,y,tag\n0.0,0.0,1\n")
        svg = tmp_path / "net.svg"
        capsys.readouterr()
        assert main(["plot", "--in", str(csv), "net", "--out", str(svg)]) == 2
        assert not svg.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage: bknet plot [-h] {net,map} [flags of the kind, after it]" in captured.err


class TestExitCodes:
    def test_no_command(self):
        assert main([]) == 2

    def test_no_command_names_what_is_missing(self, capsys):
        assert main([]) == 2
        assert "the following arguments are required: command" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_number_in_json_output_exit_2(self, tmp_path, capsys, monkeypatch, bad):
        # main writes every dict as strict JSON, whichever command made it
        monkeypatch.setattr(certificate, "feasibility_report", lambda consts: {"margin": bad})
        out = tmp_path / "s.json"
        capsys.readouterr()
        assert main(["schedule", "--L", "2", "--c", "0.1", "--out", str(out)]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not JSON compliant" in captured.err

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_flag_of_another_subcommand_exit_2(self):
        assert main(["schedule", "--L", "2", "--c", "1", "--budget", "5"]) == 2

    def test_plot_missing_file_exit_2(self, tmp_path):
        assert main(["plot", "net", "--in", str(tmp_path / "missing.csv")]) == 2

    @pytest.mark.parametrize("argv", [
        ["limit", "--c", "1", "--depth", "0"],
        ["limit", "--c", "1", "--depth", "-1"],
        ["hierarchy", "--L", "2", "--c", "1", "--depth", "2", "--N", "0"],
        ["hierarchy", "--L", "2", "--c", "1", "--depth", "2", "--M", "0"],
    ])
    def test_gen_density_non_positive_flag_exit_2(self, tmp_path, argv):
        out = tmp_path / "f.json"
        assert main(["gen-density", *argv, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["checkerboard", "--N", "4", "--c", "1", "--L", "3"],
        ["checkerboard", "--N", "4", "--c", "1", "--M", "9"],
        ["checkerboard", "--N", "4", "--c", "1", "--depth", "7"],
        ["limit", "--c", "1", "--L", "9"],
        ["limit", "--c", "1", "--N", "3"],
        ["limit", "--c", "1", "--M", "5"],
    ], ids=["checkerboard-L", "checkerboard-M", "checkerboard-depth", "limit-L", "limit-N",
            "limit-M"])
    def test_gen_density_flag_of_another_kind_exit_2(self, tmp_path, capsys, argv):
        out = tmp_path / "f.json"
        assert main(["gen-density", *argv, "--out", str(out)]) == 2
        assert not out.exists()
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err

    def test_gen_density_hierarchy_past_the_limit_exit_2(self, tmp_path, capsys):
        # at M = 100 level 2 would hold 4.04M segments (an 80 s build before
        # the limit); it is refused before any of them is made
        out = tmp_path / "f.json"
        start = time.perf_counter()
        assert main(["gen-density", "hierarchy", "--L", "2", "--c", "1", "--M", "100",
                     "--depth", "2", "--out", str(out)]) == 2
        assert time.perf_counter() - start < 10.0
        assert not out.exists()
        assert "level 2 would make 4,040,000 segments" in capsys.readouterr().err

    def test_gen_density_too_large_N_exit_2(self, tmp_path, capsys):
        # an N past the materialization limit is bad input, like --N 0
        out = tmp_path / "f.json"
        assert main(["gen-density", "hierarchy", "--L", "2", "--c", "1", "--N", "2000000",
                     "--depth", "1", "--out", str(out)]) == 2
        assert not out.exists()
        assert "at most 1,000,000" in capsys.readouterr().err

    @pytest.mark.parametrize("entry,key,bad", [
        ("cell", "value", "0"),
        ("cell", "value", "-1"),
        ("domain", "x1", "inf"),
    ])
    def test_density_file_with_bad_entry_exit_2(self, tmp_path, capsys, entry, key, bad):
        good = tmp_path / "good.json"
        assert main(["gen-density", "limit", "--c", "1", "--depth", "1",
                     "--out", str(good)]) == 0
        doc = json.loads(good.read_text())
        target = doc["cells"][0] if entry == "cell" else doc["domain"]
        target[key] = bad
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["gen-net", "--density", str(path), "--K", "1"]) == 2
        err = capsys.readouterr().err
        assert ("cell 0" if entry == "cell" else "domain") in err

    def test_density_file_with_overlapping_cells_exit_2(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        assert main(["gen-density", "limit", "--c", "1", "--depth", "1",
                     "--out", str(good)]) == 0
        doc = json.loads(good.read_text())
        doc["cells"][1]["rect"] = dict(doc["cells"][0]["rect"])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["gen-net", "--density", str(path), "--K", "1"]) == 2
        assert "cells 0 and 1 overlap" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gen-net", "check-net"])
    @pytest.mark.parametrize("shape", ["top-level-list", "numeric-rect", "null-default"])
    def test_wrongly_shaped_density_file_exit_2(self, tmp_path, capsys, command, shape):
        good = tmp_path / "good.json"
        assert main(["gen-density", "limit", "--c", "1", "--depth", "1",
                     "--out", str(good)]) == 0
        doc = json.loads(good.read_text())
        if shape == "top-level-list":
            doc = []
        elif shape == "numeric-rect":
            doc["cells"][0]["rect"] = 5
        else:
            doc["default"] = None
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([command, "--density", str(path), "--K", "1", "--out", str(out)]) == 2
        assert not out.exists()
        assert "malformed density file" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["certify", "--L", "2", "--c", "1", "--N", "4", "--M", "2"],
        ["plot", "map"],
    ], ids=["certify", "plot-map"])
    @pytest.mark.parametrize("shape", ["top-level-list", "null-nx"])
    def test_wrongly_shaped_map_file_exit_2(self, tmp_path, capsys, argv, shape):
        doc = {"nx": None, "ny": 1,
               "domain": {"x0": "0.0", "y0": "0.0", "x1": "1.0", "y1": "0.25"},
               "vertices": [["0.0", "0.0"], ["1.0", "0.0"], ["0.0", "0.25"], ["1.0", "0.25"]]}
        path = tmp_path / "m.json"
        path.write_text(json.dumps([] if shape == "top-level-list" else doc))
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([*argv, "--in", str(path), "--out", str(out)]) == 2
        assert not out.exists()
        assert "malformed map file" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gen-net", "check-net"])
    @pytest.mark.parametrize("window", ["0,0,inf,4", "-inf,0,4,4"])
    def test_non_finite_window_exit_2(self, tmp_path, capsys, command, window):
        limit = tmp_path / "limit.json"
        assert main(["gen-density", "limit", "--c", "1", "--depth", "1",
                     "--out", str(limit)]) == 0
        capsys.readouterr()
        assert main([command, "--density", str(limit), "--K", "1",
                     f"--window={window}"]) == 2
        assert f"bad --window '{window}'" in capsys.readouterr().err

    def test_thread_variable_is_ignored(self, tmp_path, monkeypatch):
        limit = tmp_path / "limit.json"
        assert main(["gen-density", "limit", "--c", "1", "--depth", "1",
                     "--out", str(limit)]) == 0
        monkeypatch.delenv("BKNET_THREADS", raising=False)
        unset = tmp_path / "unset.json"
        assert main(["check-net", "--density", str(limit), "--K", "1",
                     "--out", str(unset)]) == 0
        monkeypatch.setenv("BKNET_THREADS", "abc")
        out = tmp_path / "out.json"
        assert main(["check-net", "--density", str(limit), "--K", "1",
                     "--out", str(out)]) == 0
        assert out.read_bytes() == unset.read_bytes()

    def test_non_square_density_domain_exit_2(self, tmp_path, capsys):
        cb = tmp_path / "cb.json"
        assert main(["gen-density", "checkerboard", "--N", "4", "--c", "1",
                     "--out", str(cb)]) == 0
        capsys.readouterr()
        assert main(["gen-net", "--density", str(cb), "--K", "1"]) == 2
        assert "square density domain" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["certify", "--L", "2", "--c", "1", "--N", "4", "--M", "2"],
        ["plot", "map"],
    ], ids=["certify", "plot-map"])
    def test_map_with_an_empty_grid_exit_2(self, tmp_path, capsys, argv):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "nx": 0, "ny": 0,
            "domain": {"x0": "0.0", "y0": "0.0", "x1": "1.0", "y1": "0.25"},
            "vertices": [["0.0", "0.0"]]}))
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([*argv, "--in", str(path), "--out", str(out)]) == 2
        assert not out.exists()
        assert "nx must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["certify", "--L", "2", "--c", "1", "--N", "4", "--M", "2"],
        ["plot", "map"],
    ], ids=["certify", "plot-map"])
    @pytest.mark.parametrize("coord", ["nan", "inf"])
    def test_map_with_a_non_finite_vertex_exit_2(self, tmp_path, capsys, argv, coord):
        square = bknet.Rect(0.0, 0.0, 1.0, 0.25)
        doc = json.loads(bknet.plmap_to_json(bknet.identity_map(square, 4, 2)))
        doc["vertices"][3][0] = coord
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([*argv, "--in", str(path), "--out", str(out)]) == 2
        assert not out.exists()
        assert "vertex image 3 has a non-finite coordinate" in capsys.readouterr().err

    @pytest.mark.parametrize("coord", ["nan", "inf", "-inf"])
    def test_plot_net_non_finite_point_exit_2(self, tmp_path, capsys, coord):
        path = tmp_path / "n.csv"
        path.write_text(f"x,y,tag\n0.0,0.0,1\n{coord},2.0,background\n")
        out = tmp_path / "n.svg"
        capsys.readouterr()
        assert main(["plot", "net", "--in", str(path), "--out", str(out)]) == 2
        assert not out.exists()
        assert "point 1 has a non-finite coordinate" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["plot", "net", "--in"], ["distort", "--y", "good.csv", "--x"]],
                             ids=["plot-net", "distort"])
    def test_malformed_net_row_exit_2(self, tmp_path, capsys, argv):
        (tmp_path / "good.csv").write_text("x,y,tag\n0.0,0.0,1\n1.0,0.0,1\n")
        path = tmp_path / "bad.csv"
        path.write_text("x,y,tag\n0.0,0.0,1\n1.0,2.0\n3.0,4.0,5,6\n")
        out = tmp_path / "out"
        capsys.readouterr()
        argv = [a if a != "good.csv" else str(tmp_path / a) for a in argv]
        assert main([*argv, str(path), "--out", str(out)]) == 2
        assert not out.exists()
        assert "malformed" in (err := capsys.readouterr().err) and "bad net CSV row 2: '1.0,2.0'" in err

    @pytest.mark.parametrize("coord", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("which", ["x", "y"])
    def test_distort_non_finite_point_exit_2(self, tmp_path, capsys, coord, which):
        good = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        paths = {}
        for name in ("x", "y"):
            pts = [(0.0, 0.0), (1.0, 0.0), (0.0, coord)] if name == which else good
            paths[name] = tmp_path / f"{name}.csv"
            paths[name].write_text("x,y,tag\n" + "".join(f"{x},{y},1\n" for x, y in pts))
        out = tmp_path / "d.json"
        capsys.readouterr()
        for flags in ([], ["--greedy"]):
            assert main(["distort", "--x", str(paths["x"]), "--y", str(paths["y"]),
                         *flags, "--out", str(out)]) == 2
            assert not out.exists()
            assert f"point set {which.upper()} has a non-finite" in capsys.readouterr().err


def leaf_commands(parser):
    """The command words of every leaf of the parser, e.g. ("plot", "net")."""
    kinds = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not kinds:
        return [()]
    return [(name, *leaf) for name, sp in kinds[0].choices.items()
            for leaf in leaf_commands(sp)]


class TestOneWriter:
    """main writes every leaf command's output: the bytes on stdout are the
    bytes of the --out file."""

    LEAVES = [
        ["gen-density", "checkerboard", "--N", "4", "--c", "1"],
        ["gen-density", "hierarchy", "--L", "2", "--c", "1", "--depth", "2"],
        ["gen-density", "limit", "--c", "1", "--depth", "1"],
        ["gen-net", "--density", "limit.json", "--K", "1"],
        ["check-net", "--density", "limit.json", "--K", "1"],
        ["schedule", "--L", "2", "--c", "0.1"],
        ["certify", "--in", "map.json", "--L", "2", "--c", "1", "--N", "4", "--M", "2"],
        ["distort", "--x", "a.csv", "--y", "b.csv"],
        ["search", "--L", "2", "--c", "1", "--N", "4", "--M", "2", "--budget", "50"],
        ["plot", "net", "--in", "a.csv"],
        ["plot", "map", "--in", "map.json"],
    ]

    @staticmethod
    def words(argv):
        return tuple(argv[:next(i for i, w in enumerate(argv) if w.startswith("--"))])

    def test_every_leaf_is_listed(self):
        assert sorted(map(self.words, self.LEAVES)) == sorted(leaf_commands(build_parser()))

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("inputs")
        limit, search = str(d / "limit.json"), str(d / "search.json")
        assert main(["gen-density", "limit", "--c", "1", "--depth", "1", "--out", limit]) == 0
        for name, window in (("a.csv", "0,0,9,1"), ("b.csv", "0,0,2,4.5")):
            assert main(["gen-net", "--density", limit, "--K", "1", "--window", window,
                         "--out", str(d / name)]) == 0
        assert main(["search", "--L", "2", "--c", "1", "--N", "4", "--M", "2",
                     "--budget", "50", "--out", search]) == 0
        (d / "map.json").write_text(json.dumps(json.loads(Path(search).read_text())["map"]))
        return d

    @pytest.mark.parametrize("argv", LEAVES, ids=lambda argv: "-".join(TestOneWriter.words(argv)))
    def test_stdout_is_the_out_file(self, tmp_path, capsysbinary, inputs, argv):
        argv = [str(inputs / w) if w.endswith((".json", ".csv")) else w for w in argv]
        out = tmp_path / "out"
        capsysbinary.readouterr()
        assert main(argv) == 0
        printed = capsysbinary.readouterr().out
        assert main([*argv, "--out", str(out)]) == 0
        assert capsysbinary.readouterr().out == b""
        assert printed and out.read_bytes() == printed


class TestGoldenOutputs:
    """sha256 of CLI outputs, recorded at commit aa74cb1 (the K=3 window
    pins at 9c7d7f0); refactors of the density, hierarchy and net code must
    keep them byte-identical."""

    GEN_DENSITY = [
        (["checkerboard", "--N", "4", "--c", "1"],
         "f35ca64b6867231a00069b21f9f00403fb40f5c8ac8cdc81996cc275f91f9a59"),
        (["limit", "--c", "1", "--depth", "2"],
         "c5bb3f00ffd037279a26da83f1d5c7ad1688d699f183bd1db8e2c03032658c71"),
        (["hierarchy", "--L", "2", "--c", "1", "--depth", "3"],
         "ceb828790ab77a37d72e2e74584615caaf60137f8317e877ff0fa7b14448d571"),
        (["hierarchy", "--L", "2", "--c", "1", "--depth", "3", "--N", "3"],
         "b642c616d2334fbe1c5c47aa1881be2af662eca965ff38318439852ae00fa037"),
        # the deepest limit densities the density-pipeline benchmark builds,
        # recorded at 2fae8bc
        (["limit", "--c", "1", "--depth", "3"],
         "474ccd269a8ac7a1515fee680a7430df8cee57a63b064eb806a9b9fd2211710e"),
        (["limit", "--c", "1", "--depth", "4"],
         "f0ac68d5b6e25d53b07b38969fe8f01e211d37e0164a2f4a2cfdaf2c23586cf5"),
    ]

    @staticmethod
    def sha(data):
        return hashlib.sha256(data).hexdigest()

    @pytest.mark.parametrize("argv,digest", GEN_DENSITY,
                             ids=["checkerboard", "limit", "hierarchy", "hierarchy-N3",
                                  "limit-depth3", "limit-depth4"])
    def test_gen_density(self, tmp_path, argv, digest):
        out = tmp_path / "f.json"
        assert main(["gen-density", *argv, "--out", str(out)]) == 0
        assert self.sha(out.read_bytes()) == digest

    # recorded at e158804, before the checkerboard strips and the marked pair
    # rows got one builder each; the N=5, M=3 build was re-recorded when the
    # strips and marked edges came to share one patch grid: its strip edges
    # had rounded one ulp off the grid's columns, leaving 12 cells one ulp
    # wide among 13,744 (now 13,732 cells, none of them that thin)
    BUILDERS = [
        (["gen-density", "hierarchy", "--L", "2", "--c", "1", "--depth", "5"],
         "92aaae388bd30aebf65a62a8988afa6becc64f2a4914a05db2f493b059df179b"),
        (["gen-density", "hierarchy", "--L", "2", "--c", "1", "--depth", "4", "--N", "5",
          "--M", "3"],
         "ce56f502cd107efbfc7b8c9ac37fad08d31ab008337587d41a985941c4322004"),
        (["gen-density", "checkerboard", "--N", "7", "--c", "0.3"],
         "a307ef0138aa964496bdcda8d37b22c88f37e5da2edba33e9533f63c0d0a38c0"),
        (["schedule", "--L", "2", "--c", "0.1"],
         "27df4e1351301a52aaca59ec07e225769b4b651fb46a340f46e28f3e8b616bc7"),
    ]

    @pytest.mark.parametrize("argv,digest", BUILDERS,
                             ids=["hierarchy-depth5", "hierarchy-N5-M3", "checkerboard-N7",
                                  "schedule"])
    def test_checkerboard_builders(self, tmp_path, argv, digest):
        out = tmp_path / "f.json"
        assert main([*argv, "--out", str(out)]) == 0
        assert self.sha(out.read_bytes()) == digest

    def test_gen_net_and_check_net_on_limit_density(self, tmp_path, capsys):
        limit, net = tmp_path / "limit.json", tmp_path / "net.csv"
        assert main(["gen-density", "limit", "--c", "1", "--depth", "2",
                     "--out", str(limit)]) == 0
        assert main(["gen-net", "--density", str(limit), "--K", "2", "--out", str(net)]) == 0
        assert self.sha(net.read_bytes()) == (
            "ef70b31b23c26de4442fc16b594d0410805d928d318293a1ede21ec041e3a1a0")
        capsys.readouterr()
        assert main(["check-net", "--density", str(limit), "--K", "2",
                     "--window", "0,0,16,16"]) == 0
        assert self.sha(capsys.readouterr().out.encode()) == (
            "800129bec18ac40b8b8c649751184adae7e8a385490b5a03b12036bb247b4da1")

    # windows on the K=3 net of the depth-2 limit density: one straddles
    # squares 1 ([0,16]^2) and 2 ([17,81]^2), one lies on the background
    # lattice; check-net's covering_b is each window's exact covering radius
    K3_WINDOWS = [
        ("13.3,12.9,19.7,19.45",
         "c7fa0c35b7c4234454630819c6b34a83e3b2d4dea939ef5888311495a76e2ec2",
         "c294b58c72effc9436e6de37e7b581f8a89b0be13f865078375beaf4bdb538ea"),
        ("40.2,2.1,46.55,7.9",
         "d57cd4b8fa710deb4d240541f2bdcfd4c600cd3cb377bd49d843968ce234ab39",
         "c9b2a0bad378b0d2507150230c53a33b510642abe9dcf6b547f7126168a92da9"),
        # a cell corner inside square 2, where two exact arrangements decide
        # covering_b
        ("32.62,29.81,36.62,33.81",
         "520cf4346e43c525dfcd27887fa69f8703eb7ac7863e4ef306da804974a65086",
         "c5927b3fbd1b4cd0b0ba96154e13da88192739a137d86d96f163ea252f883f3d"),
    ]

    @pytest.mark.parametrize("window,gen_digest,check_digest", K3_WINDOWS,
                             ids=["squares-1-2", "background", "square-2-corner"])
    def test_k3_windows_on_limit_density(self, tmp_path, capsys, window,
                                         gen_digest, check_digest):
        limit = tmp_path / "limit.json"
        assert main(["gen-density", "limit", "--c", "1", "--depth", "2",
                     "--out", str(limit)]) == 0
        for command, digest in (("gen-net", gen_digest), ("check-net", check_digest)):
            capsys.readouterr()
            assert main([command, "--density", str(limit), "--K", "3",
                         "--window", window]) == 0
            assert self.sha(capsys.readouterr().out.encode()) == digest

    # check-net on the default window of the K=4 net of the depth-2 limit
    # density: every square, gap and the background around them; covering_b,
    # 1.0056629776875308, is the half diagonal of the widest cells'
    # sub-squares, to the coordinates' rounding
    def test_check_net_k4_on_limit_density(self, tmp_path, capsys):
        limit = tmp_path / "limit.json"
        assert main(["gen-density", "limit", "--c", "1", "--depth", "2",
                     "--out", str(limit)]) == 0
        capsys.readouterr()
        assert main(["check-net", "--density", str(limit), "--K", "4"]) == 0
        assert self.sha(capsys.readouterr().out.encode()) == (
            "344ae8f119fbc96046d74f43a8de9582fee29fcee2b2592168572e499c00e106")

    # distortion-lab pins, recorded at 44b5a96 (before the incremental
    # search step and the batched distortion enumeration); point sets are
    # exact rationals so every platform writes the same CSV
    EIGHT_X = [(0.0, 0.0), (1.0, 0.0), (2.5, 0.5), (0.5, 1.5),
               (3.0, 2.0), (1.5, 3.0), (0.25, 2.75), (2.0, 1.25)]
    EIGHT_Y = [(0.0, 0.5), (1.25, 0.0), (2.0, 1.0), (0.75, 1.75),
               (3.5, 2.25), (1.0, 3.25), (0.0, 2.5), (2.25, 2.0)]
    WIDE_X = [((k * 37) % 101 / 10, (k * 53) % 103 / 10) for k in range(33)]
    WIDE_Y = [((k * 41) % 97 / 9, (k * 29) % 89 / 11) for k in range(33)]

    SEARCH = [
        (["--L", "2", "--c", "1", "--N", "4", "--M", "2", "--budget", "10000",
          "--seed", "42"],
         "d8b34a294acc001d2ee6817787e27c8049a7a6027dae28afc3db1b02e63603ee"),
        (["--L", "2", "--c", "1", "--N", "8", "--M", "4", "--budget", "2000",
          "--seed", "7"],
         "bf8dc505be3a2b26441eab63a8521478f036a40ff0aedd75e860314c3c4a4730"),
        # the desk limit, 2,048 triangles, where the screen's margin is
        # loosest; 203 accepted moves
        (["--L", "2", "--c", "1", "--N", "16", "--M", "8", "--budget", "10000",
          "--seed", "42"],
         "f6c860f8437469d2582ab5aeeef477ad1d283a8405c4137e23b98598973e6619"),
    ]

    @pytest.mark.parametrize("argv,digest", SEARCH, ids=["readme", "N8-M4", "N16-M8"])
    def test_search(self, tmp_path, argv, digest):
        out = tmp_path / "s.json"
        assert main(["search", *argv, "--out", str(out)]) == 0
        assert self.sha(out.read_bytes()) == digest

    # certify on the map the N8-M4 search writes, recorded before PLMap
    # evaluated on Python floats: the float evaluation path, bitwise
    def test_certify_the_n8_m4_search_map(self, tmp_path):
        found, mapfile, cert = (tmp_path / name for name in ("s.json", "m.json", "c.json"))
        assert main(["search", *self.SEARCH[1][0], "--out", str(found)]) == 0
        mapfile.write_text(json.dumps(json.loads(found.read_text())["map"]))
        assert main(["certify", "--in", str(mapfile), "--L", "2", "--c", "1", "--N", "8",
                     "--M", "4", "--out", str(cert)]) == 0
        assert self.sha(cert.read_bytes()) == (
            "b399723b4a964fb395ecbc4b75dac0d69ced2f92c652b952bf5a41942f3e54d8")

    DISTORT = [
        ("eight", [],
         "bf1fdb946238d744f8a97e5d8cb3114029169c00287863087ee2e1f21ee747ec"),
        ("eight", ["--greedy", "--restarts", "8"],
         "bf1fdb946238d744f8a97e5d8cb3114029169c00287863087ee2e1f21ee747ec"),
        ("wide", ["--greedy"],
         "7e95382ffa7d3025c651c2143abb5ccb891ec14569ec5228d19c8e4cd2594ad9"),
    ]

    @pytest.mark.parametrize("points,flags,digest", DISTORT,
                             ids=["exact-8", "greedy-8", "greedy-33"])
    def test_distort(self, tmp_path, points, flags, digest):
        xs, ys = ((self.EIGHT_X, self.EIGHT_Y) if points == "eight"
                  else (self.WIDE_X, self.WIDE_Y))
        x = TestDistort._csv(None, tmp_path / "x.csv", xs)
        y = TestDistort._csv(None, tmp_path / "y.csv", ys)
        out = tmp_path / "d.json"
        assert main(["distort", "--x", x, "--y", y, *flags, "--out", str(out)]) == 0
        assert self.sha(out.read_bytes()) == digest

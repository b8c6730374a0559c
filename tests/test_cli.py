import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import bknet
from bknet import field_from_json, net_from_csv, plmap_from_json
from bknet.cli import main


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


class TestExitCodes:
    def test_no_command(self):
        assert main([]) == 2

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
    ]

    @staticmethod
    def sha(data):
        return hashlib.sha256(data).hexdigest()

    @pytest.mark.parametrize("argv,digest", GEN_DENSITY,
                             ids=["checkerboard", "limit", "hierarchy", "hierarchy-N3"])
    def test_gen_density(self, tmp_path, argv, digest):
        out = tmp_path / "f.json"
        assert main(["gen-density", *argv, "--out", str(out)]) == 0
        assert self.sha(out.read_bytes()) == digest

    # recorded at e158804, before the checkerboard strips and the marked pair
    # rows got one builder each
    BUILDERS = [
        (["gen-density", "hierarchy", "--L", "2", "--c", "1", "--depth", "5"],
         "92aaae388bd30aebf65a62a8988afa6becc64f2a4914a05db2f493b059df179b"),
        (["gen-density", "hierarchy", "--L", "2", "--c", "1", "--depth", "4", "--N", "5",
          "--M", "3"],
         "d0c8d3ec66c699b2099831077299ce3dfb2581cfa00138ffa7fcc9891ce0d386"),
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
            "e16f8bf29c69a56c5026eb3fce7ecebab0a960569c7d9a2cd770d12084c64ddb")

    # windows on the K=3 net of the depth-2 limit density: one straddles
    # squares 1 ([0,16]^2) and 2 ([17,81]^2), one lies on the background
    # lattice; sample counts per side are not multiples of 32
    K3_WINDOWS = [
        ("13.3,12.9,19.7,19.45",
         "c7fa0c35b7c4234454630819c6b34a83e3b2d4dea939ef5888311495a76e2ec2",
         "3756473b043f2f164c8942060ef2461b3c0943e338afb559e84d4fa8696d270c"),
        ("40.2,2.1,46.55,7.9",
         "d57cd4b8fa710deb4d240541f2bdcfd4c600cd3cb377bd49d843968ce234ab39",
         "9b800f181c2a8d41d9453b1f0461d8988334f7286960eb3b44bd90bc78b7db91"),
    ]

    @pytest.mark.parametrize("window,gen_digest,check_digest", K3_WINDOWS,
                             ids=["squares-1-2", "background"])
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
         "19d14916e24d38606800e1f76a1ff20a4ab9dee4222d9313988512ede902971b"),
        (["--L", "2", "--c", "1", "--N", "8", "--M", "4", "--budget", "2000",
          "--seed", "7"],
         "8464c2d8d73ba7c679592992e81c76bb15604d488eefaa6b8ef66f716d394113"),
    ]

    @pytest.mark.parametrize("argv,digest", SEARCH, ids=["readme", "N8-M4"])
    def test_search(self, tmp_path, argv, digest):
        out = tmp_path / "s.json"
        assert main(["search", *argv, "--out", str(out)]) == 0
        assert self.sha(out.read_bytes()) == digest

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

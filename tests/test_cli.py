import json

import numpy as np
import pytest

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

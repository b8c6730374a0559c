"""Command-line front end.

Subcommands: gen-density {checkerboard,hierarchy,limit}, gen-net,
check-net, schedule, certify, distort, search, plot {net,map}.  Each leaf
command returns its output, and main writes it.  Exit codes: 0 success,
2 invalid input (any ValueError, a non-finite number in JSON output
included), 1 runtime error.
All output is deterministic given flags and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import certificate, density, distortion, hierarchy, netbuild, plmap, search, svgplot
from .geometry import Rect


def _parse_window(text: str) -> Rect:
    try:
        x0, y0, x1, y1 = coords = [float(t) for t in text.split(",")]
        if not all(math.isfinite(v) for v in coords):
            raise ValueError("coordinates must be finite")
        return Rect(x0, y0, x1, y1)
    except Exception as exc:
        raise ValueError(f"bad --window '{text}': {exc}") from exc


def _load(path: str, parse, what: str):
    """parse(text of the file); a missing or malformed file is a
    validation error, and so is valid JSON of the wrong shape (a list where
    an object belongs, a number where a rect belongs, a null value)."""
    try:
        with open(path) as fh:
            return parse(fh.read())
    except FileNotFoundError as exc:
        raise ValueError(f"missing file: {path}") from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed {what} file {path}: {exc}") from exc


# Each leaf command maps its parsed args to its output: the text to write,
# or a dict that main writes as JSON.

def cmd_checkerboard(args) -> str:
    return density.field_to_json(density.make_checkerboard(args.N, args.c)) + "\n"


def cmd_hierarchy(args) -> str:
    consts = certificate.toy_constants(args.L, args.c, N=args.N, M=args.M)
    field, _ = hierarchy.build_hierarchy(args.L, args.c, args.depth, consts)
    return density.field_to_json(field) + "\n"


def cmd_limit(args) -> str:
    if args.depth < 1:
        raise ValueError("--depth must be a positive integer")
    squares = [(Rect(2.0 ** -(k + 1), 2.0 ** -(k + 1), 2.0 ** -k, 2.0 ** -k), k)
               for k in range(1, args.depth + 1)]
    return density.field_to_json(hierarchy.assemble_limit_density(args.c, squares)) + "\n"


def _net_and_window(args) -> tuple[netbuild.NetPlan, netbuild.Net, Rect]:
    """The net of --density at level --K, and --window, by default the
    scheduled squares with a margin of 2."""
    field = _load(args.density, density.field_from_json, "density")
    if args.K < 0:
        raise ValueError("--K must be a non-negative integer")
    plan = netbuild.make_plan(field, args.K)
    net = netbuild.build_net(plan)
    if args.window:
        return plan, net, _parse_window(args.window)
    hi = max((e.square.x1 for e in plan.schedule), default=8.0)
    return plan, net, Rect(-2.0, -2.0, hi + 2.0, hi + 2.0)


def cmd_gen_net(args) -> str:
    _, net, window = _net_and_window(args)
    return netbuild.net_to_csv(*net.points_in_window(window))


def cmd_check_net(args) -> dict:
    plan, net, window = _net_and_window(args)
    return {"separation_a": netbuild.check_separation(net, window),
            "covering_b": netbuild.check_covering(net, window),
            "measure_report": {k: netbuild.measure_report(net, plan, k)
                               for k in range(1, len(plan.schedule) + 1)}}


def cmd_schedule(args) -> dict:
    return certificate.feasibility_report(certificate.schedule_constants(args.L, args.c))


def cmd_certify(args) -> dict:
    m = _load(args.infile, plmap.plmap_from_json, "map")
    consts = certificate.toy_constants(args.L, args.c, N=args.N, M=args.M)
    rep = certificate.evaluate_stretch(m, certificate.marked_grid(args.N, args.M), consts)
    return {
        "A": rep.A,
        "flagged": rep.any_flagged,
        "flagged_pair": rep.flagged_pair,
        "flagged_ratio": rep.flagged_ratio,
        "max_ratio": float(rep.pair_ratios.max()),
        "regular_squares": [bool(b) for b in rep.regular_squares],
    }


def cmd_distort(args) -> dict:
    X, _ = _load(args.x, netbuild.net_from_csv, "points")
    Y, _ = _load(args.y, netbuild.net_from_csv, "points")
    if args.greedy:
        res = distortion.greedy_distortion(X, Y, restarts=args.restarts, seed=args.seed)
    else:
        res = distortion.pair_distortion(X, Y)
    return {"mapping": list(res.mapping), "lip": res.lip,
            "lip_inv": res.lip_inv, "distortion": res.distortion}


def cmd_search(args) -> dict:
    consts = certificate.toy_constants(args.L, args.c, N=args.N, M=args.M)
    field = density.make_checkerboard(args.N, args.c)
    res = search.search_min_stretch(field, consts, args.budget, args.seed)
    return {
        "objective": res.objective,
        "trace": list(res.trace),
        "lip": res.lip,
        "mismatch_area": res.mismatch_area,
        "A": res.stretch.A,
        "flagged": res.stretch.any_flagged,
        "flagged_pair": res.stretch.flagged_pair,
        "map": json.loads(plmap.plmap_to_json(res.plmap)),
    }


def cmd_plot_net(args) -> str:
    return svgplot.net_svg(*_load(args.infile, netbuild.net_from_csv, "net"))


def cmd_plot_map(args) -> str:
    return svgplot.plmap_svg(_load(args.infile, plmap.plmap_from_json, "map"))


# flag -> add_argument keywords; every subcommand also takes --out
_FLAGS = {
    "L": {"type": float},
    "c": {"type": float},
    "N": {"type": int},
    "M": {"type": int},
    "K": {"type": int},
    "depth": {"type": int},
    "seed": {"type": int, "default": 0},
    "budget": {"type": int, "default": 1000},
    "restarts": {"type": int, "default": 8},
    "window": {},
    "density": {},
    "in": {"dest": "infile"},
    "x": {},
    "y": {},
    "greedy": {"action": "store_true"},
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="bknet")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, func, required=(), optional=(), parent=sub, **defaults):
        sp = parent.add_parser(name)
        for flag in required:
            sp.add_argument(f"--{flag}", required=True, **_FLAGS[flag])
        for flag in optional:
            sp.add_argument(f"--{flag}", **_FLAGS[flag])
        sp.add_argument("--out")
        sp.set_defaults(func=func, **defaults)

    def kinds(name, names):
        """A command whose kinds are subcommands with flags of their own."""
        sp = sub.add_parser(name)
        kind = sp.add_subparsers(dest="kind", required=True)
        # set after add_subparsers, which builds the kinds' prog from it
        sp.usage = f"%(prog)s [-h] {{{names}}} [flags of the kind, after it]"
        return kind

    gen_density = kinds("gen-density", "checkerboard,hierarchy,limit")
    add("checkerboard", cmd_checkerboard, ["N", "c"], parent=gen_density)
    add("hierarchy", cmd_hierarchy, ["L", "c", "depth"], ["N", "M"], parent=gen_density, N=4, M=2)
    add("limit", cmd_limit, ["c"], ["depth"], parent=gen_density, depth=2)
    add("gen-net", cmd_gen_net, ["density", "K"], ["window"])
    add("check-net", cmd_check_net, ["density", "K"], ["window"])
    add("schedule", cmd_schedule, ["L", "c"])
    add("certify", cmd_certify, ["in", "L", "c", "N", "M"])
    add("distort", cmd_distort, ["x", "y"], ["greedy", "restarts", "seed"])
    add("search", cmd_search, ["L", "c", "N", "M"], ["budget", "seed"])
    plot = kinds("plot", "net,map")
    add("net", cmd_plot_net, ["in"], parent=plot)
    add("map", cmd_plot_map, ["in"], parent=plot)
    return p


def main(argv: list[str] | None = None) -> int:
    """Run one leaf command and write its output, a dict as strict JSON,
    to --out or stdout."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        out = args.func(args)
        if isinstance(out, dict):
            out = json.dumps(out, indent=2, sort_keys=True, default=float,
                             allow_nan=False) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(out)
        else:
            sys.stdout.write(out)
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

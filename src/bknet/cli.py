"""Command-line front end.

Subcommands: gen-density, gen-net, check-net, schedule, certify, distort,
search, plot.  Exit codes: 0 success, 2 invalid input (any ValueError),
1 runtime error.
All output is deterministic given flags and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import certificate, density, hierarchy, netbuild, plmap, search, svgplot
from .geometry import Rect


def _parse_window(text: str) -> Rect:
    try:
        x0, y0, x1, y1 = coords = [float(t) for t in text.split(",")]
        if not all(math.isfinite(v) for v in coords):
            raise ValueError("coordinates must be finite")
        return Rect(x0, y0, x1, y1)
    except Exception as exc:
        raise ValueError(f"bad --window '{text}': {exc}") from exc


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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


def _json_dump(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, default=float) + "\n"


# the optional flags each kind of gen-density takes
_KIND_FLAGS = {"checkerboard": {"N"}, "hierarchy": {"L", "N", "M", "depth"}, "limit": {"depth"}}


def cmd_gen_density(args) -> int:
    foreign = [f"--{f}" for f in ("L", "N", "M", "depth")
               if getattr(args, f) is not None and f not in _KIND_FLAGS[args.kind]]
    if foreign:
        raise ValueError(f"gen-density {args.kind} does not take {', '.join(foreign)}")
    if args.kind == "checkerboard":
        if args.N is None:
            raise ValueError("checkerboard needs --N")
        field = density.make_checkerboard(args.N, args.c)
    elif args.kind == "hierarchy":
        if args.L is None or args.depth is None:
            raise ValueError("hierarchy needs --L and --depth")
        consts = certificate.toy_constants(args.L, args.c,
                                           N=4 if args.N is None else args.N,
                                           M=2 if args.M is None else args.M)
        field, _ = hierarchy.build_hierarchy(args.L, args.c, args.depth, consts)
    else:
        depth = 2 if args.depth is None else args.depth
        if depth < 1:
            raise ValueError("--depth must be a positive integer")
        squares = [(Rect(2.0 ** -(k + 1), 2.0 ** -(k + 1),
                         2.0 ** -k, 2.0 ** -k), k)
                   for k in range(1, depth + 1)]
        field = hierarchy.assemble_limit_density(args.c, squares)
    _write_or_print(density.field_to_json(field) + "\n", args.out)
    return 0


def _build_net(args) -> tuple[netbuild.NetPlan, netbuild.Net]:
    field = _load(args.density, density.field_from_json, "density")
    if args.K < 0:
        raise ValueError("--K must be a non-negative integer")
    plan = netbuild.make_plan(field, args.K)
    return plan, netbuild.build_net(plan)


def _default_window(plan: netbuild.NetPlan, margin: float = 2.0) -> Rect:
    hi = max((e.square.x1 for e in plan.schedule), default=8.0)
    return Rect(-margin, -margin, hi + margin, hi + margin)


def cmd_gen_net(args) -> int:
    plan, net = _build_net(args)
    window = _parse_window(args.window) if args.window else _default_window(plan)
    pts, tags = net.points_in_window(window)
    _write_or_print(netbuild.net_to_csv(pts, tags), args.out)
    return 0


def cmd_check_net(args) -> int:
    plan, net = _build_net(args)
    window = _parse_window(args.window) if args.window else _default_window(plan)
    sep = netbuild.check_separation(net, window)
    cov = netbuild.check_covering(net, window)
    reports = {k: netbuild.measure_report(net, plan, k)
               for k in range(1, len(plan.schedule) + 1)}
    doc = {"separation_a": sep, "covering_b": cov,
           "measure_report": reports}
    _write_or_print(_json_dump(doc), args.out)
    return 0


def cmd_schedule(args) -> int:
    consts = certificate.schedule_constants(args.L, args.c)
    _write_or_print(_json_dump(certificate.feasibility_report(consts)), args.out)
    return 0


def cmd_certify(args) -> int:
    m = _load(args.infile, plmap.plmap_from_json, "map")
    consts = certificate.toy_constants(args.L, args.c, N=args.N, M=args.M)
    grid = certificate.marked_grid(args.N, args.M)
    rep = certificate.evaluate_stretch(m, grid, consts)
    doc = {
        "A": rep.A,
        "flagged": rep.any_flagged,
        "flagged_pair": rep.flagged_pair,
        "flagged_ratio": rep.flagged_ratio,
        "max_ratio": float(rep.pair_ratios.max()),
        "regular_squares": [bool(b) for b in rep.regular_squares],
    }
    _write_or_print(_json_dump(doc), args.out)
    return 0


def cmd_distort(args) -> int:
    X, _ = _load(args.x, netbuild.net_from_csv, "points")
    Y, _ = _load(args.y, netbuild.net_from_csv, "points")
    from . import distortion
    if args.greedy:
        res = distortion.greedy_distortion(X, Y, restarts=args.restarts,
                                           seed=args.seed)
    else:
        res = distortion.pair_distortion(X, Y)
    doc = {"mapping": list(res.mapping), "lip": res.lip,
           "lip_inv": res.lip_inv, "distortion": res.distortion}
    _write_or_print(_json_dump(doc), args.out)
    return 0


def cmd_search(args) -> int:
    consts = certificate.toy_constants(args.L, args.c, N=args.N, M=args.M)
    field = density.make_checkerboard(args.N, args.c)
    res = search.search_min_stretch(field, consts, args.budget, args.seed)
    doc = {
        "objective": res.objective,
        "trace": list(res.trace),
        "lip": res.lip,
        "mismatch_area": res.mismatch_area,
        "A": res.stretch.A,
        "flagged": res.stretch.any_flagged,
        "flagged_pair": res.stretch.flagged_pair,
        "map": json.loads(plmap.plmap_to_json(res.plmap)),
    }
    _write_or_print(_json_dump(doc), args.out)
    return 0


def cmd_plot(args) -> int:
    if args.kind == "net":
        svg = svgplot.net_svg(*_load(args.infile, netbuild.net_from_csv, "net"))
    else:
        svg = svgplot.plmap_svg(_load(args.infile, plmap.plmap_from_json, "map"))
    _write_or_print(svg, args.out)
    return 0


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
    sub = p.add_subparsers(dest="command")

    def add(name, func, required=(), optional=(), kinds=None):
        sp = sub.add_parser(name)
        if kinds:
            sp.add_argument("kind", choices=kinds)
        for flag in required:
            sp.add_argument(f"--{flag}", required=True, **_FLAGS[flag])
        for flag in optional:
            sp.add_argument(f"--{flag}", **_FLAGS[flag])
        sp.add_argument("--out")
        sp.set_defaults(func=func)

    add("gen-density", cmd_gen_density, ["c"], ["L", "N", "M", "depth"],
        kinds=["checkerboard", "hierarchy", "limit"])
    add("gen-net", cmd_gen_net, ["density", "K"], ["window"])
    add("check-net", cmd_check_net, ["density", "K"], ["window"])
    add("schedule", cmd_schedule, ["L", "c"])
    add("certify", cmd_certify, ["in", "L", "c", "N", "M"])
    add("distort", cmd_distort, ["x", "y"], ["greedy", "restarts", "seed"])
    add("search", cmd_search, ["L", "c", "N", "M"], ["budget", "seed"])
    add("plot", cmd_plot, ["in"], kinds=["net", "map"])
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: generate, analyze, solve, plan, truncate, blowup, verify.

All output is deterministic for fixed inputs.  Exit status: 0 success,
1 verification failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

import numpy as np

from .analyze import best_uniformity, is_distance_uniform
from .graph import ExplicitGraph, blow_up, build_explicit, load_edge_list, save_edge_list
from .hanoi import HanoiParams, _sorted_unique, format_state, make_state, parse_state
from .planner import plan_parameters
from .solver import IllegalMoveAt, format_path, solve, verify_path
from .truncation import iterate_truncation
from .verification import run_verify_suite


def fraction(text: str) -> Fraction:
    """argparse type for an exact rational such as 1/16; a zero denominator is a usage error."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None


def bits(text: str) -> int:
    """argparse type for --cap BITS: the cap is 2^BITS, so a negative count is a usage error."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dug",
        description="Distance-uniform graph toolkit: Hanoi state graphs, solver, "
        "analyzer, truncation, planner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="build a Hanoi state graph and write an edge list")
    g.add_argument("--r", type=int, required=True, help="alphabet bound (values 0..r)")
    g.add_argument("--k", type=int, required=True, help="state length")
    g.add_argument("--proper", action="store_true", help="proper states only (first entry nonzero)")
    g.add_argument("--out", required=True, help="output edge-list path")
    g.add_argument("--cap", type=bits, default=26, metavar="BITS", help="state/edge cap = 2^BITS")
    g.add_argument("--json", action="store_true")

    a = sub.add_parser("analyze", help="distance-uniformity analysis of an edge-list graph")
    a.add_argument("--in", dest="infile", required=True, help="input edge-list path")
    a.add_argument("--epsilon", type=fraction, help="with --d: test this exact epsilon")
    a.add_argument("--d", type=int, help="with --epsilon: test this critical distance")
    a.add_argument("--sources", type=int, help="sample this many evenly spaced source vertices")
    a.add_argument("--json", action="store_true")

    s = sub.add_parser("solve", help="construct a move path between two states")
    s.add_argument("--r", type=int, required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--proper", action="store_true")
    s.add_argument("--from", dest="start", required=True, help="start state, e.g. 1,2,1,2")
    s.add_argument("--to", dest="target", required=True, help="target state")
    s.add_argument("--json", action="store_true")

    p = sub.add_parser("plan", help="choose (r, k) and blow-up counts for a target (n, epsilon)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon", type=fraction, required=True, help="exact rational, e.g. 1/16")
    p.add_argument("--json", action="store_true")

    t = sub.add_parser("truncate", help="iterated corner truncation of K_{r+1}")
    t.add_argument("--r", type=int, required=True)
    t.add_argument("--k", type=int, required=True, help="label length; k-1 truncations")
    t.add_argument("--out", required=True)
    t.add_argument("--cap", type=bits, default=26, metavar="BITS")
    t.add_argument("--json", action="store_true")

    b = sub.add_parser("blowup", help="blow a graph up to a target vertex count")
    b.add_argument("--in", dest="infile", required=True)
    b.add_argument("--n-target", type=int, required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--json", action="store_true")

    v = sub.add_parser("verify", help="run the full verification suite for one (r, k)")
    v.add_argument("--r", type=int, required=True)
    v.add_argument("--k", type=int, required=True)
    v.add_argument("--cap", type=bits, default=26, metavar="BITS")
    v.add_argument("--sample-pairs", type=int, default=None,
                   help="replay at most this many pair orbits, evenly sampled "
                        "(default: every orbit, which covers all pairs)")
    v.add_argument("--json", action="store_true")
    return parser


def _sample_sources(n: int, count: int | None):
    if count is None or count >= n:
        return None
    picked = _sorted_unique(np.linspace(0, n - 1, count).round().astype(np.int64))
    return [int(x) for x in picked]


def _write(g, args) -> int:
    """Save g to args.out and print its size, as text or JSON."""
    save_edge_list(g, args.out)
    if args.json:
        print(json.dumps({"out": args.out, "n": g.n, "m": g.m}))
    else:
        print(f"wrote {args.out}: n={g.n} m={g.m}")
    return 0


def _cmd_generate(args) -> int:
    return _write(build_explicit(HanoiParams(args.r, args.k, proper=args.proper),
                                 cap=1 << args.cap), args)


def _cmd_analyze(args) -> int:
    # Flag errors come before the file is read, in either mode.
    if (args.epsilon is None) != (args.d is None):
        raise ValueError("--epsilon and --d must be given together")
    if args.sources is not None and args.sources < 1:
        raise ValueError(f"source sample must be at least 1, got {args.sources}")
    g = load_edge_list(args.infile)
    if args.epsilon is not None:
        ok = is_distance_uniform(g, args.epsilon, args.d)
        if args.json:
            print(json.dumps({
                "n": g.n,
                "epsilon": f"{args.epsilon.numerator}/{args.epsilon.denominator}",
                "d": args.d,
                "uniform": ok,
            }))
        else:
            print("true" if ok else "false")
        return 0
    report = best_uniformity(g, sources=_sample_sources(g.n, args.sources))
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        eps = report.epsilon
        print(f"n {report.n}")
        print(f"d {report.d}")
        print(f"epsilon {eps.numerator}/{eps.denominator} ({float(eps)})")
        print(f"connected {'true' if report.connected else 'false'}")
        off = report.per_vertex_offcount
        print(f"offcount min {min(off)} max {max(off)} over {len(off)} sources")
    return 0


def _cmd_solve(args) -> int:
    params = HanoiParams(args.r, args.k, proper=args.proper)
    start = make_state(parse_state(args.start), params)
    target = make_state(parse_state(args.target), params)
    path = solve(start, target, params)
    # A path that fails its own check is dug's fault, not the input's: exit 1.
    fault = None
    try:
        if (final := verify_path(path, params)) != target:
            fault = f"solver path ends at {format_state(final)}, not {format_state(target)}"
    except IllegalMoveAt as exc:
        fault = f"solver path breaks the move rules at {exc}"
    if fault:
        print(f"error: {fault}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps({
            "from": args.start,
            "to": args.target,
            "moves": format_path(path.moves).split(),
            "count": len(path),
        }))
    else:
        print(format_path(path.moves))
        print(f"{len(path)} moves")
    return 0


def _cmd_plan(args) -> int:
    plan = plan_parameters(args.n, args.epsilon)
    if not plan.within_hypothesis:
        print(
            f"warning: epsilon {plan.epsilon} exceeds 1/log2(n); "
            "outside the guaranteed regime",
            file=sys.stderr,
        )
    if args.json:
        print(json.dumps(plan.to_json_dict(), indent=2))
        return 0
    eps = plan.epsilon
    print(f"n_target {plan.n_target}")
    print(f"epsilon {eps.numerator}/{eps.denominator}")
    print(f"degenerate {'true' if plan.degenerate else 'false'}")
    if plan.m is not None:
        print(f"m {plan.m} a {plan.a} b {plan.b}")
    print(f"r {plan.r} k {plan.k} base_n {plan.base_n}")
    print(f"predicted_d {plan.predicted_d}")
    print(
        f"copies floor {plan.copy_floor} ceil {plan.copy_ceil} "
        f"ceil_vertices {plan.ceil_count}"
    )
    return 0


def _cmd_truncate(args) -> int:
    t = iterate_truncation(args.r, args.k, cap=1 << args.cap)
    labels = tuple(map(format_state, t.states.tolist()))
    return _write(ExplicitGraph(t.graph.n, t.graph.indptr, t.graph.indices, labels), args)


def _cmd_blowup(args) -> int:
    return _write(blow_up(load_edge_list(args.infile), args.n_target), args)


def _cmd_verify(args) -> int:
    results = run_verify_suite(
        args.r, args.k, cap=1 << args.cap, pair_limit=args.sample_pairs
    )
    if args.json:
        print(json.dumps([
            {"name": c.name, "ok": c.ok, "skipped": c.skipped, "detail": c.detail}
            for c in results
        ], indent=2))
    else:
        for c in results:
            tag = "SKIP" if c.skipped else ("PASS" if c.ok else "FAIL")
            line = f"[{tag}] {c.name}"
            if c.detail:
                line += f": {c.detail}"
            print(line)
        failed = sum(1 for c in results if not c.ok)
        total = len(results)
        print(f"{total - failed}/{total} checks passed")
    return 0 if all(c.ok for c in results) else 1


_HANDLERS = {
    "generate": _cmd_generate,
    "analyze": _cmd_analyze,
    "solve": _cmd_solve,
    "plan": _cmd_plan,
    "truncate": _cmd_truncate,
    "blowup": _cmd_blowup,
    "verify": _cmd_verify,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every cli_dispatch call in a process, built at the first."""
    return build_parser()


def cli_dispatch(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""One pass of one benchmark workload, in a fresh interpreter.

run.py starts this file once per pass, so every pass pays its own imports,
gets its own ``ru_maxrss`` high-water mark, and starts with a cold solver
cache (``dug.solver._construct`` is an unbounded ``lru_cache`` the harness
never touches).  The pass imports ``dug`` from the checkout's ``src/``,
builds its inputs from the seed, runs the workload through public functions
only, checks the outputs outside the timed region, and writes one JSON
result file:

    python3 benchmarks/workloads.py --workload analyze-files --seed 1 \\
        --spawned-ns <CLOCK_MONOTONIC ns at spawn> --result out.json \\
        --tmp <directory for the pass's files> [--trace 1 --spans spans.npz]

``--setup-only`` stops after the inputs are ready, to sample set-up time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import re
import resource
import shutil
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_dug():
    """Import ``dug`` from this checkout's ``src/``, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import dug
    import dug.cli

    if Path(dug.__file__).resolve().parent != (src / "dug").resolve():
        raise ImportError(f"dug imported from {dug.__file__}, not from {src}")
    return dug


def call_cli(dug, argv):
    """(exit code, stdout, stderr) of one ``cli_dispatch`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dug.cli.cli_dispatch(argv)
    return code, out.getvalue(), err.getvalue()


class Checks:
    """Output checks of one pass; a failure is recorded, never raised."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def expect(self, name, ok, detail=""):
        self.results.append((name, bool(ok), detail))

    def equal(self, name, got, want):
        self.expect(name, got == want, f"got {got!r}, want {want!r}")

    @property
    def attempted(self):
        return len(self.results)

    @property
    def failed(self):
        return sum(1 for _, ok, _ in self.results if not ok)

    @property
    def fail_ratio(self):
        return self.failed / self.attempted if self.attempted else 1.0


# ---------------------------------------------------------------------------
# Two workloads, not more, each pass a few seconds long: on a shared 2-CPU
# host, CPU speed drifts by 10-15 % from one pass to the next and in phases of
# a minute or more.  A run of about a minute is the longest the whole
# benchmark's time allows, and short passes give its median many samples.
# Each planned optimisation is exercised by one workload and bypassed by the
# other: analyze-files holds the distance scan, the reductions after it, CSR
# assembly, edge-list I/O and blow_up; verify-desk holds the solver,
# truncation and the verify suite.
# ---------------------------------------------------------------------------

# ---------------------------------------------------------------------------
# analyze-files, part 1: the CLI round trip plan -> generate -> blowup ->
# analyze, the only place that writes and reads edge-list files and runs
# blow_up.  The planner warns that epsilon = 1/2 lies outside the 1/log2(n)
# regime; at n = 5000 every in-regime plan is a d = 1 blow-up of K_256, which
# would not exercise the scan at all.
# Part 2: exhaustive analysis of (7, 4), a sparse, deep graph (15 BFS levels,
# degree <= 7) scanned four times, so the distance engine does much of the
# pass's work while the build does almost none.
# ---------------------------------------------------------------------------

DEEP = (7, 4)
DEEP_LABEL = "({},{})".format(*DEEP)
ORACLE_SOURCES = 4


def analyze_files_inputs(seed, tmp):
    base, big = str(tmp / "base.el"), str(tmp / "big.el")
    return {
        "base": base,
        "big": big,
        "argvs": [
            ["plan", "--n", "5000", "--epsilon", "1/2", "--json"],
            ["generate", "--r", "16", "--k", "2", "--proper", "--out", base],
            ["blowup", "--in", base, "--n-target", "5000", "--out", big],
            ["analyze", "--in", big, "--sources", "64", "--json"],
        ],
        "oracle_sources": random.Random(seed).sample(range(DEEP[0] ** DEEP[1]), ORACLE_SOURCES),
    }


def analyze_files_run(dug, inp):
    calls = [call_cli(dug, argv) for argv in inp["argvs"]]
    g = dug.build_explicit(dug.HanoiParams(*DEEP, proper=True))
    report = dug.best_uniformity(g)
    uniform = dug.is_distance_uniform(g, report.epsilon, report.d)
    min_degree = dug.check_min_degree(g, report)
    growth = dug.check_neighborhood_growth(g, report)
    upper = dug.check_upper_bound(g.n, report.epsilon, report.d)
    diam = dug.diameter(g)
    return {"calls": calls, "graph": g, "report": report, "uniform": uniform,
            "min_degree": min_degree, "growth": growth, "upper": upper, "diameter": diam}


def analyze_files_check(dug, inp, out, checks, want):
    calls = out["calls"]
    for argv, (code, _, err) in zip(inp["argvs"], calls):
        checks.expect(f"{argv[0]} exit code 0", code == 0, err.strip())
    plan = json.loads(calls[0][1])
    checks.equal("plan (r, k)", (plan["r"], plan["k"]), want["plan"])
    wrote = re.search(r"n=(\d+) m=(\d+)", calls[2][1])
    checks.expect("blowup reports n and m", wrote is not None, calls[2][1].strip())
    n, m = (int(x) for x in wrote.groups())
    checks.equal("blow-up n", n, want["blowup_n"])
    checks.equal("blow-up m", m, want["blowup_m"])
    with open(inp["big"], encoding="utf-8") as fh:
        header = fh.readline().split()
    checks.equal("blow-up file header", header,
                 ["dug", "1", str(want["blowup_n"]), str(want["blowup_m"])])
    base = dug.build_explicit(dug.HanoiParams(16, 2, proper=True))
    q, rem = divmod(want["blowup_n"], base.n)
    copies = [q + 1 if v < rem else q for v in range(base.n)]
    expected_m = sum(copies[u] * copies[v] for u, v in base.edges())
    checks.equal("blow-up m = sum of c_u * c_v over base edges", m, expected_m)
    checks.expect("base file loads back equal to build_explicit",
                  dug.load_edge_list(inp["base"]) == base)
    cli_report = json.loads(calls[3][1])
    checks.equal("analyze n", cli_report["n"], want["blowup_n"])
    checks.equal("analyze d", cli_report["d"], want["blowup_d"])
    eps = Fraction(cli_report["epsilon"]["fraction"])
    checks.expect("analyze epsilon <= 1/2", eps <= want["blowup_epsilon_max"], str(eps))

    g, report = out["graph"], out["report"]
    checks.equal(f"{DEEP_LABEL} n", g.n, want["deep_n"])
    checks.equal(f"{DEEP_LABEL} m", g.m, want["deep_m"])
    checks.equal(f"{DEEP_LABEL} d", report.d, want["deep_d"])
    checks.expect(f"{DEEP_LABEL} uniform at reported (epsilon, d)", out["uniform"] is True)
    checks.expect(f"{DEEP_LABEL} min-degree bound", out["min_degree"] is True)
    for row in out["growth"]:
        checks.expect(f"{DEEP_LABEL} growth row radius {row.radius}", row.ok,
                      f"min ball {row.min_ball} >= {row.required}")
    checks.expect(f"{DEEP_LABEL} upper bound", out["upper"] is True)
    checks.equal(f"{DEEP_LABEL} diameter", out["diameter"], want["deep_diameter"])
    for s in inp["oracle_sources"]:
        row = dug.bfs_distances(g, s)
        off = (g.n - 1) - int((row == report.d).sum())
        checks.equal(f"{DEEP_LABEL} offcount of {s} vs BFS oracle",
                     report.per_vertex_offcount[s], off)


# ---------------------------------------------------------------------------
# verify-desk: the verify suite for r = 4, k = 4, mostly pure-Python
# move-level work (solver replay over all 65 536 ordered pairs, truncation,
# support masks) with almost no distance work.
# ---------------------------------------------------------------------------

def verify_desk_inputs(seed, tmp):
    return {"argv": ["verify", "--r", "4", "--k", "4"]}


def verify_desk_run(dug, inp):
    return {"call": call_cli(dug, inp["argv"])}


def verify_desk_check(dug, inp, out, checks, want):
    code, stdout, stderr = out["call"]
    checks.equal("verify exit code", code, 0)
    rows = [line for line in stdout.splitlines() if line.startswith("[")]
    checks.expect("verify printed rows", len(rows) >= want["min_rows"], f"{len(rows)} rows")
    for line in rows:
        checks.expect(line.split(":")[0], line.startswith("[PASS]"), line)


WORKLOADS = {
    "analyze-files": (analyze_files_inputs, analyze_files_run, analyze_files_check),
    "verify-desk": (verify_desk_inputs, verify_desk_run, verify_desk_check),
}

EXPECTED = {
    "analyze-files": {"plan": (16, 2), "blowup_n": 5000, "blowup_m": 778636, "blowup_d": 3,
                      "blowup_epsilon_max": Fraction(1, 2), "deep_n": 2401, "deep_m": 8400,
                      "deep_d": 15, "deep_diameter": (15, True)},
    "verify-desk": {"min_rows": 10},
}


def run_checks(check, dug, inp, out, want):
    checks = Checks()
    try:
        check(dug, inp, out, checks, want)
    except Exception:
        checks.expect("checks ran to the end", False, traceback.format_exc(limit=3))
    return checks


def run_pass(args) -> dict:
    dug = import_dug()
    make_inputs, run, check = WORKLOADS[args.workload]
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.tmp))
    try:
        inp = make_inputs(args.seed, tmp)
        result = {"setup_s": (time.monotonic_ns() - args.spawned_ns) / 1e9}
        if args.setup_only:
            return result
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer(pass_id=args.pass_id)
            tracer.install()
            root = tracer.open(tracing.ROOT_SPAN)
        out, error = None, None
        t0 = time.perf_counter()
        try:
            out = run(dug, inp)
        except Exception:
            error = traceback.format_exc(limit=5)
        finally:
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.close(root)
                tracer.uninstall()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        if error is None:
            checks = run_checks(check, dug, inp, out, EXPECTED[args.workload])
            result.update(
                wall_s=t1 - t0,
                cpu_s=usage.ru_utime + usage.ru_stime,
                peak_rss_mb=usage.ru_maxrss / 1024,
            )
        else:
            checks = Checks()
            checks.expect("workload ran without error", False, error)
        result["checks"] = checks.results
        result["attempted"] = checks.attempted
        result["failed"] = checks.failed
        result["fail_ratio"] = checks.fail_ratio
        if tracer is not None:
            result["layers"] = tracer.metrics()
            result["missing"] = tracer.missing
            result["harness_s"] = tracer.harness_s()
            result["spans"] = len(tracer.start)
            if args.spans:
                tracer.write_spans(args.spans)
        return result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned-ns", type=int, required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--tmp", required=True)
    p.add_argument("--pass-id", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    result = run_pass(args)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

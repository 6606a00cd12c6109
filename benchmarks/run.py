"""dug's benchmark: one workload, measured for a fixed time, in fresh processes.

    python3 benchmarks/run.py --workload analyze-files --seed 1 --seconds 60 --trace 0

Run from anywhere inside a checkout that holds ``src/dug``.  Each pass is a
new interpreter (benchmarks/workloads.py).  A run starts passes until the
next one would end after ``--seconds`` (at least one; a traced run at least
one untraced and one traced), between a few set-up-only processes; every
pass checks its outputs.  There is no time limit of its own: a run that a
slower program makes long still reports its numbers.

``--trace 0`` reports the end-to-end metrics as medians over the passes:
``wall_s`` (first dug call to last output), ``setup_s`` (spawn until ``dug``
is imported and the inputs are ready), ``cpu_s`` (user + system CPU of the
pass process) and ``peak_rss_mb`` (its ``ru_maxrss``).  ``--trace 1``
alternates untraced and traced passes and reports the per-layer self times
and counts of tracing.py, plus ``trace.overhead_s``: traced minus untraced
``wall_s``.

The last line of stdout is one JSON object with keys ``correct``,
``attempted``, ``failed`` (output checks over all passes) and ``metrics``.
Everything else (per-pass numbers, every check, the environment) goes to
``.bench_out/BENCH_<workload>_seed<seed>_trace<t>.json`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
TMP = ROOT / ".bench_tmp"

# Set-up-only processes per run, on top of the set-up of every pass, so that
# setup_s is a median of several samples even when a run holds one pass.
SETUP_PROBES = 6

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class RunFailed(Exception):
    """A pass process failed without writing its result."""


def git_commit(root: Path) -> str:
    """HEAD of the checkout; 'unknown' outside a git tree or without git."""
    try:
        # The ceiling keeps git from reporting a repository that merely
        # contains an exported checkout.
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
                              capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def version_of(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def environment(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version_of("numpy"),
        "scipy": version_of("scipy"),
        "seed": seed,
        "commit": git_commit(ROOT),
        "machine": platform.machine(),
    }


def start_pass(workload, seed, pass_id, *, trace=False, setup_only=False):
    """Run one pass process to completion; return its result dict."""
    result = TMP / f"result-{os.getpid()}-{pass_id}.json"
    argv = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
            "--seed", str(seed), "--pass-id", str(pass_id), "--result", str(result),
            "--tmp", str(TMP), "--trace", "1" if trace else "0"]
    if setup_only:
        argv.append("--setup-only")
    if trace:
        argv += ["--spans", str(OUT / f"spans_{workload}_seed{seed}_pass{pass_id}.npz")]
    env = dict(os.environ, TMPDIR=str(TMP))
    spawned = time.monotonic_ns()
    proc = subprocess.run(argv + ["--spawned-ns", str(spawned)], env=env,
                          stdout=sys.stderr, check=False)
    try:
        out = json.loads(result.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        raise RunFailed(f"pass {pass_id} of {workload} exited {proc.returncode} "
                        "without a result") from None
    finally:
        result.unlink(missing_ok=True)
    out["process_s"] = (time.monotonic_ns() - spawned) / 1e9
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """All processes of one run; returns the detail record."""
    start = time.monotonic()

    def probe(i):
        return start_pass(workload, seed, -1 - i, setup_only=True)

    # Half the set-up probes open the run and half close it, so that setup_s
    # samples the same stretch of time as the passes.
    probes = [probe(i) for i in range(SETUP_PROBES // 2)]
    reserve = time.monotonic() - start
    passes = []
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(start_pass(workload, seed, len(passes), trace=traced))
        passes[-1].update(pass_id=len(passes) - 1, traced=traced)
        next_traced = trace and len(passes) % 2 == 1
        estimate = max((p["process_s"] for p in passes if p["traced"] == next_traced),
                       default=passes[-1]["process_s"])
        end = time.monotonic() - start + estimate + reserve
        # A traced run always holds one untraced and one traced pass, however
        # slow they are, so that it reports every layer metric.
        if (not trace or len(passes) >= 2) and end > seconds:
            break
    probes += [probe(i) for i in range(SETUP_PROBES // 2, SETUP_PROBES)]
    return {"probes": probes, "passes": passes}


def median_of(passes, key, median=statistics.median):
    values = [p[key] for p in passes if key in p]
    return median(values) if values else None


def summarize(detail: dict, trace: bool) -> dict:
    passes = detail["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    untraced = [p for p in passes if not p["traced"]]
    setups = [p["setup_s"] for p in detail["probes"] + passes]
    metrics = {}
    if trace:
        traced = [p for p in passes if p["traced"]]
        table = tracing.metric_table()
        for name, (unit, _, _) in table.items():
            # median_low keeps counts whole: it is always one pass's value.
            value = median_of([p["layers"] for p in traced if "layers" in p], name,
                              statistics.median_low)
            if value is not None:
                metrics[name] = {"value": value, "unit": unit}
        traced_wall, untraced_wall = median_of(traced, "wall_s"), median_of(untraced, "wall_s")
        if traced_wall is not None and untraced_wall is not None:
            metrics[tracing.OVERHEAD_METRIC] = {"value": traced_wall - untraced_wall, "unit": "s"}
        missing = sorted({m for p in traced for m in p.get("missing", [])})
        if missing:
            print(f"warning: layers missing at this commit: {', '.join(missing)}",
                  file=sys.stderr)
    else:
        for name, unit in END_TO_END.items():
            value = statistics.median(setups) if name == "setup_s" else median_of(untraced, name)
            if value is not None:
                metrics[name] = {"value": value, "unit": unit}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run one dug benchmark workload.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "dug" / "__init__.py").is_file():
        print(f"error: no dug sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # A terminated run unwinds through subprocess.run, which kills and reaps
    # the pass in flight.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    OUT.mkdir(exist_ok=True)
    TMP.mkdir(exist_ok=True)
    trace = bool(args.trace)
    try:
        detail = run(args.workload, args.seed, args.seconds, trace)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = summarize(detail, trace)
    if not summary["metrics"]:
        print("error: no pass produced metrics", file=sys.stderr)
        return 1
    # fail_ratio is 0 whenever the program is right, so it cannot be a bounded
    # metric; it is kept here and follows from the summary's failed/attempted.
    record = {"workload": args.workload, "seconds": args.seconds, "trace": trace,
              "environment": environment(args.seed), "summary": summary,
              "fail_ratio": summary["failed"] / summary["attempted"], **detail}
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    if trace:
        for p in detail["passes"]:
            if p["traced"] and "wall_s" in p:
                covered = sum(v for k, v in p["layers"].items() if k.endswith("_s"))
                print(f"pass {p['pass_id']}: traced wall "
                      f"{p['wall_s']:.3f} s = layer self times {covered:.3f} s + harness "
                      f"{p['harness_s']:.3f} s", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

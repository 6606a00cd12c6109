"""Tests of the benchmark harness itself (not of dug).

    python3 -m pytest -q benchmarks/test_harness.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_of_nested_spans():
    clock = FakeClock()
    t = tracing.Tracer(clock=clock)
    root = t.open("root")            # 0 .. 10
    clock.now = 1.0
    a = t.open("a")                  # 1 .. 4
    clock.now = 2.0
    b = t.open("b")                  # 2 .. 3
    clock.now = 3.0
    t.close(b)
    clock.now = 4.0
    t.close(a)
    clock.now = 5.0
    c = t.open("a")                  # 5 .. 9, same name as the first child
    clock.now = 9.0
    t.close(c)
    clock.now = 10.0
    t.close(root)
    assert list(t.parent) == [-1, 0, 1, 0]
    selfs = t.self_time_by_name()
    assert selfs == {"root": 10 - 3 - 4, "a": (3 - 1) + 4, "b": 1}
    assert sum(selfs.values()) == 10
    assert t.harness_s() == 0.0  # no span is named tracing.ROOT_SPAN here


def test_generator_timed_per_next_not_at_creation():
    clock = FakeClock()
    t = tracing.Tracer(clock=clock)

    def produce():
        for i in range(3):
            clock.now += 2.0         # work done inside next()
            yield i
        clock.now += 0.5             # work after the last item

    traced = t.wrap_generator("gen", produce)
    root = t.open(tracing.ROOT_SPAN)
    it = traced()
    assert t.call_counts() == {tracing.ROOT_SPAN: 1, "gen": 1}  # creation span only
    got = []
    for item in it:
        clock.now += 10.0            # consumer work: not the generator's
        got.append(item)
    t.close(root)
    assert got == [0, 1, 2]
    selfs = t.self_time_by_name()
    assert selfs["gen"] == 3 * 2.0 + 0.5
    assert selfs[tracing.ROOT_SPAN] == 3 * 10.0
    assert t.call_counts()["gen"] == 1 + 3 + 1  # creation, three items, exhaustion


def test_fail_ratio_counts_a_wrong_expected_value():
    rows = "\n".join(f"[PASS] check {i}: ok" for i in range(12))
    out = {"call": (0, rows, "")}
    want = dict(workloads.EXPECTED["verify-desk"])
    good = workloads.run_checks(workloads.verify_desk_check, None, {}, out, want)
    assert (good.attempted, good.failed, good.fail_ratio) == (14, 0, 0.0)
    want["min_rows"] = 13
    bad = workloads.run_checks(workloads.verify_desk_check, None, {}, out, want)
    assert (bad.attempted, bad.failed) == (14, 1)
    assert bad.fail_ratio == 1 / 14
    assert [name for name, ok, _ in bad.results if not ok] == ["verify printed rows"]


def test_check_that_raises_counts_as_failed():
    checks = workloads.run_checks(workloads.verify_desk_check, None, {}, {}, {})
    assert (checks.attempted, checks.failed, checks.fail_ratio) == (1, 1, 1.0)


def test_wrappers_patch_the_names_dug_calls_through():
    import dug
    import dug.cli

    scan, solve, neighbors = dug.graph.iter_distance_rows, dug.solver.solve, dug.hanoi.neighbors
    t = tracing.Tracer()
    t.install()
    try:
        for holder in (dug, dug.graph, dug.analyze, dug.verification):
            assert holder.iter_distance_rows.__wrapped__ is scan
        assert dug.verification.solve.__wrapped__ is solve
        assert dug.cli.solve.__wrapped__ is solve
        assert dug.verification.neighbors.__wrapped__ is neighbors
        assert dug.hanoi.neighbors is neighbors  # moves are timed only where suites call them
        assert isinstance(dug.graph.ExplicitGraph.__dict__["from_edges"], classmethod)
        g = dug.build_explicit(dug.HanoiParams(3, 2, proper=True))
        report = dug.best_uniformity(g)
    finally:
        t.uninstall()
    assert dug.analyze.iter_distance_rows is scan
    assert dug.verification.solve is solve
    assert dug.verification.neighbors is neighbors
    m = t.metrics()
    assert t.missing == []
    assert m["graph.scan_rows"] == g.n
    assert m["graph.scan_cells"] == g.n * g.n
    assert m["graph.scan_rows_per_source"] == 1.0
    assert m["graph.from_edges_edges"] == g.m
    assert report.d >= 1
    scan_id = t.names.index("graph.scan")
    best_id = t.names.index("analyze.best_uniformity")
    parents = {int(t.name_idx[p]) for i, p in zip(t.name_idx, t.parent) if i == scan_id}
    assert parents == {best_id}


def test_renamed_attribute_gives_missing_metric(monkeypatch):
    import dug

    monkeypatch.delattr(dug.solver, "path_states")
    t = tracing.Tracer()
    t.install()
    t.uninstall()
    assert t.missing == ["solver.path_states"]
    m = t.metrics()
    assert "solver.path_states_s" not in m
    assert m["solver.solve_s"] == 0.0
    assert tracing.OVERHEAD_METRIC not in m


def test_missing_module_gives_missing_metric():
    targets = [("fake.layer", "no_such_module_here", "f", None),
               ("fake.other", "json", "no_such_function", None)]
    t = tracing.Tracer()
    t.install(targets)
    assert t.missing == ["fake.layer", "fake.other"]
    assert "fake.layer_s" not in t.metrics(targets)


def test_benchmark_json_lists_the_harness_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    table = tracing.metric_table()
    assert [m["name"] for m in spec["per_layer"]] == list(table)
    for m in spec["per_layer"]:
        assert (m["unit"], m["better"]) == table[m["name"]][:2]


def _traced_pass(tmp_path, seed):
    result = tmp_path / f"result{seed}.json"
    subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), "--workload", "analyze-files",
         "--seed", str(seed), "--trace", "1", "--result", str(result),
         "--tmp", str(tmp_path), "--spawned-ns", str(time.monotonic_ns())],
        check=True, timeout=170)
    return json.loads(result.read_text())


def test_counts_repeat_exactly_between_passes(tmp_path):
    first, second = _traced_pass(tmp_path, 1), _traced_pass(tmp_path, 2)
    counts = [name for name in tracing.COUNT_METRICS]
    assert {k: first["layers"][k] for k in counts} == {k: second["layers"][k] for k in counts}
    layers = first["layers"]
    assert layers["graph.blow_up_edges"] == 778636
    assert layers["graph.save_bytes"] == layers["graph.load_bytes"] > 0
    assert layers["graph.scan_rows"] == 64 + 4 * 7 ** 4
    assert first["failed"] == 0 and first["attempted"] > 0
    covered = sum(v for k, v in layers.items() if k.endswith("_s"))
    assert covered + first["harness_s"] == pytest.approx(first["wall_s"], abs=1e-3)


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "verify-desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""

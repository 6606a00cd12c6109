"""Span tracing for the benchmark, installed from outside the program.

A :class:`Tracer` replaces module attributes of ``dug`` with timing wrappers,
records one span per call (per ``next()`` for generators), and reduces the
spans to per-layer self times and exact counts.  Nothing under ``src/`` knows
about it: the wrappers patch every ``dug`` module attribute bound to the
wrapped function, which is the name through which ``dug`` itself calls it.

Spans live in flat arrays (name id, parent span, start, end, pass id) so that
the ~10^6 solver calls of verify-desk stay cheap, and are written out once,
at the end of the pass.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from array import array

import numpy as np

ROOT_SPAN = "pass"

# (span name, defining module, attribute path, modules to patch or None for
# every loaded ``dug`` module that binds the same object).  A layer made of
# several functions lists one row per function under the same span name.
TARGETS = [
    ("hanoi.rank", "dug.hanoi", "state_matrix", None),
    ("hanoi.rank", "dug.hanoi", "encode_states", None),
    ("hanoi.moves", "dug.hanoi", "neighbors", ("dug.verification", "dug.truncation")),
    ("hanoi.moves", "dug.hanoi", "enumerate_states", ("dug.verification", "dug.truncation")),
    ("graph.build", "dug.graph", "build_explicit", None),
    ("graph.from_edges", "dug.graph", "ExplicitGraph.from_edges", None),
    ("graph.scan", "dug.graph", "iter_distance_rows", None),
    ("graph.diameter", "dug.graph", "diameter", None),
    ("graph.save", "dug.graph", "save_edge_list", None),
    ("graph.load", "dug.graph", "load_edge_list", None),
    ("graph.blow_up", "dug.graph", "blow_up", None),
    ("analyze.best_uniformity", "dug.analyze", "best_uniformity", None),
    ("analyze.is_distance_uniform", "dug.analyze", "is_distance_uniform", None),
    ("analyze.min_ball_sizes", "dug.analyze", "min_ball_sizes", None),
    ("analyze.checkers", "dug.analyze", "check_min_degree", None),
    ("analyze.checkers", "dug.analyze", "check_neighborhood_growth", None),
    ("analyze.checkers", "dug.analyze", "check_upper_bound", None),
    ("solver.solve", "dug.solver", "solve", None),
    ("solver.path_states", "dug.solver", "path_states", None),
    ("truncation.iterate", "dug.truncation", "iterate_truncation", None),
    ("truncation.verify", "dug.truncation", "verify_isomorphism", None),
    ("verification.suite", "dug.verification", "run_verify_suite", None),
    ("planner.plan", "dug.planner", "plan_parameters", None),
    ("cli.dispatch", "dug.cli", "cli_dispatch", None),
]


def _path_arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _count_scan_item(tracer, item):
    chunk, rows = item
    c = tracer.counts
    c["graph.scan_rows"] += int(rows.shape[0])
    c["graph.scan_cells"] += int(rows.size)
    c["graph.scan_bytes_computed"] += int(rows.nbytes)
    tracer.scan_sources.update(np.asarray(chunk).tolist())


# Spans whose wrapped function is a generator, timed per next() call, with the
# hook that counts each yielded item: hook(tracer, item).
GENERATOR_HOOKS = {"graph.scan": _count_scan_item}


def _count_result(counter, value):
    def hook(tracer, args, kwargs, result):
        tracer.counts[counter] += value(args, kwargs, result)
    return hook


# After-call hooks per span name: hook(tracer, args, kwargs, result).  They run
# outside the span, so their cost lands in the caller's self time.
CALL_HOOKS = {
    # A graph is simple, so the edges accepted equal the pairs passed in.
    "graph.from_edges": _count_result("graph.from_edges_edges", lambda a, k, g: g.m),
    "graph.save": _count_result(
        "graph.save_bytes", lambda a, k, r: os.path.getsize(_path_arg(a, k, 1, "path"))),
    "graph.load": _count_result(
        "graph.load_bytes", lambda a, k, r: os.path.getsize(_path_arg(a, k, 0, "path"))),
    "graph.blow_up": _count_result("graph.blow_up_edges", lambda a, k, g: g.m),
    "verification.suite": lambda t, a, k, res: t.counts.update({
        "verification.checks": len(res),
        "verification.checks_failed": sum(1 for c in res if not c.ok),
    }),
}

# Per-layer metrics: name -> (unit, better, spans it needs).  Every span
# name in TARGETS has a self-time metric "<span>_s"; counts are listed here.
COUNT_METRICS = {
    "hanoi.moves_calls": ("count", "lower", ("hanoi.moves",)),
    "graph.from_edges_edges": ("count", "lower", ("graph.from_edges",)),
    "graph.scan_rows": ("count", "lower", ("graph.scan",)),
    "graph.scan_rows_per_source": ("rows/source", "lower", ("graph.scan",)),
    "graph.scan_cells": ("count", "lower", ("graph.scan",)),
    "graph.scan_bytes_computed": ("B", "lower", ("graph.scan",)),
    "graph.save_bytes": ("B", "lower", ("graph.save",)),
    "graph.load_bytes": ("B", "lower", ("graph.load",)),
    "graph.blow_up_edges": ("count", "lower", ("graph.blow_up",)),
    "solver.solve_calls": ("count", "lower", ("solver.solve",)),
    "verification.checks": ("count", "higher", ("verification.suite",)),
    "verification.checks_failed": ("count", "lower", ("verification.suite",)),
}
CALL_COUNTS = {"hanoi.moves_calls": "hanoi.moves", "solver.solve_calls": "solver.solve"}
OVERHEAD_METRIC = "trace.overhead_s"


def span_names(targets=TARGETS):
    return list(dict.fromkeys(row[0] for row in targets))


def metric_table(targets=TARGETS):
    """Every per-layer metric: name -> (unit, better, spans it needs), in report order."""
    table = {f"{name}_s": ("s", "lower", (name,)) for name in span_names(targets)}
    table.update(COUNT_METRICS)
    table[OVERHEAD_METRIC] = ("s", "lower", ())
    return table


def self_times(name_idx, parent, start, end, n_names):
    """Per-name self time: each span's duration minus what its child spans cover.

    Children of one span never overlap (spans nest as a call stack), so the
    covered part is the sum of the children's durations.
    """
    name_idx = np.asarray(name_idx, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    covered = np.zeros(dur.size)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return np.bincount(name_idx, weights=dur - covered, minlength=n_names)


def _resolve(module_name, attr_path):
    """(owner object, last attribute name, raw value) or None if any step is missing."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, last = attr_path.split(".")
    try:
        for part in outer:
            owner = getattr(owner, part)
    except AttributeError:
        return None
    raw = vars(owner).get(last) if isinstance(owner, type) else getattr(owner, last, None)
    return None if raw is None else (owner, last, raw)


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self, pass_id=0, clock=time.perf_counter):
        self.pass_id = pass_id
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_idx = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {name: 0 for name in COUNT_METRICS}
        self.scan_sources: set[int] = set()
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------
    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_idx.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def wrap_call(self, name, fn):
        hook = CALL_HOOKS.get(name)

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name, fn):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                it = iter(fn(*args, **kwargs))
            finally:
                self.close(idx)
            return self._timed(name, it)

        traced.__wrapped__ = fn
        return traced

    def _timed(self, name, it):
        hook = GENERATOR_HOOKS.get(name)
        while True:
            idx = self.open(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.close(idx)
            if hook is not None:
                hook(self, item)
            yield item

    # -- patches ----------------------------------------------------------
    def install(self, targets=TARGETS) -> None:
        """Patch every target; record the span of any target that no longer exists."""
        for name, module_name, attr_path, only_in in targets:
            found = _resolve(module_name, attr_path)
            if found is None:
                if name not in self.missing:
                    self.missing.append(name)
                continue
            owner, attr, raw = found
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap_call(name, raw.__func__))
                self._patch(owner, attr, wrapped)
                continue
            wrap = self.wrap_generator if name in GENERATOR_HOOKS else self.wrap_call
            wrapped = wrap(name, raw)
            if only_in is None:
                holders = [m for key, m in list(sys.modules.items())
                           if m is not None and (key == "dug" or key.startswith("dug."))]
            else:
                holders = [sys.modules[m] for m in only_in if m in sys.modules]
            for holder in holders:
                if vars(holder).get(attr) is raw:
                    self._patch(holder, attr, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction --------------------------------------------------------
    def self_time_by_name(self) -> dict[str, float]:
        totals = self_times(self.name_idx, self.parent, self.start, self.end, len(self.names))
        return {name: float(totals[i]) for i, name in enumerate(self.names)}

    def call_counts(self) -> dict[str, int]:
        hits = np.bincount(np.asarray(self.name_idx, dtype=np.int64), minlength=len(self.names))
        return {name: int(hits[i]) for i, name in enumerate(self.names)}

    def metrics(self, targets=TARGETS) -> dict[str, float]:
        """Per-layer metrics of the pass; a metric whose span is missing is left out."""
        selfs = self.self_time_by_name()
        calls = self.call_counts()
        counts = dict(self.counts)
        for metric, span in CALL_COUNTS.items():
            counts[metric] = calls.get(span, 0)
        sources = len(self.scan_sources)
        counts["graph.scan_rows_per_source"] = (
            counts["graph.scan_rows"] / sources if sources else 0.0)
        out = {}
        for metric, (_, _, needs) in metric_table(targets).items():
            if metric == OVERHEAD_METRIC or any(span in self.missing for span in needs):
                continue
            out[metric] = selfs.get(needs[0], 0.0) if metric.endswith("_s") else counts[metric]
        return out

    def harness_s(self) -> float:
        """Self time of the root span: time in the pass that no wrapped layer covers."""
        return self.self_time_by_name().get(ROOT_SPAN, 0.0)

    def write_spans(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_idx=np.asarray(self.name_idx, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int32),
            start=np.asarray(self.start, dtype=np.float64),
            end=np.asarray(self.end, dtype=np.float64),
            pass_id=np.full(len(self.start), self.pass_id, dtype=np.int32),
        )

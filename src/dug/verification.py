"""Desk-scale verification suite for one (r, k): re-derives every claimed bound.

Each check returns a CheckResult; a check that is vacuous for the given
parameters (single-vertex graph, epsilon = 0) passes with ``skipped=True`` and
a note.  The CLI renders the table and exits nonzero if any row fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .analyze import (
    ZeroEpsilon,
    best_uniformity,
    check_min_degree,
    check_neighborhood_growth,
    check_upper_bound,
)
from .graph import ExplicitGraph, build_explicit, diameter, iter_distance_rows
from .hanoi import (
    DEFAULT_STATE_CAP,
    INVOLUTE,
    HanoiParams,
    IllegalInvolute,
    apply_move,
    enumerate_states,
    neighbors,
)
from .solver import path_states, solve
from .truncation import iterate_truncation, verify_isomorphism


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""
    skipped: bool = False


def _full_distance_matrix(g: ExplicitGraph) -> np.ndarray:
    dist = np.empty((g.n, g.n), dtype=np.int32)
    for chunk, rows in iter_distance_rows(g):
        dist[chunk] = rows
    return dist


def _adjacency_by_moves(states, params):
    index = {s: i for i, s in enumerate(states)}
    return [sorted(index[y] for y in neighbors(x, params)) for x in states]


def run_verify_suite(
    r: int,
    k: int,
    cap: int = DEFAULT_STATE_CAP,
    pair_limit: int | None = None,
) -> list[CheckResult]:
    """All checks for the (r, k) Hanoi construction; exhaustive at desk scale.

    ``pair_limit`` caps the number of ordered state pairs the solver suite
    replays (evenly sampled when n^2 exceeds it); the disjoint-support
    exactness check always covers all pairs.
    """
    results: list[CheckResult] = []
    proper = HanoiParams(r, k, proper=True)
    improper = HanoiParams(r, k, proper=False)
    states_p = enumerate_states(proper, cap)
    states_i = enumerate_states(improper, cap)

    # State counts against the closed forms.
    ok = len(states_p) == r**k and len(states_i) == (r + 1) * r ** (k - 1)
    results.append(
        CheckResult(
            "state counts",
            ok,
            f"proper {len(states_p)} (want {r**k}), "
            f"improper {len(states_i)} (want {(r + 1) * r ** (k - 1)})",
        )
    )

    # Explicit builder against the move-level definition, both modes.
    graphs = {}
    for label, params, states in (
        ("proper", proper, states_p),
        ("improper", improper, states_i),
    ):
        g = build_explicit(params, cap)
        graphs[label] = g
        by_moves = _adjacency_by_moves(states, params)
        same = g.n == len(states) and all(
            list(g.neighbors_of(v)) == by_moves[v] for v in range(g.n)
        )
        results.append(
            CheckResult(f"builder matches moves ({label})", same, f"n={g.n} m={g.m}")
        )

    # Adjacency symmetry at the move level.
    sym = True
    for params, states in ((proper, states_p), (improper, states_i)):
        nbrs = {x: set(neighbors(x, params)) for x in states}
        sym = sym and all(x in nbrs[y] for x in states for y in nbrs[x])
    results.append(CheckResult("adjacency symmetry", sym))

    # Degree regularity in improper mode (k = 1 improper is K_{r+1}, also r-regular).
    degs = graphs["improper"].degrees()
    results.append(
        CheckResult(
            "improper graph r-regular",
            bool((degs == r).all()),
            f"degrees {int(degs.min())}..{int(degs.max())}",
        )
    )

    # Involution self-inverse.
    if k >= 2:
        ok = True
        for x in states_i:
            y = apply_move(x, INVOLUTE, improper)
            ok = ok and apply_move(y, INVOLUTE, improper) == x
        for x in states_p:
            try:
                y = apply_move(x, INVOLUTE, proper)
            except IllegalInvolute:
                continue
            ok = ok and apply_move(y, INVOLUTE, proper) == x
        results.append(CheckResult("involution self-inverse", ok))
    else:
        results.append(
            CheckResult("involution self-inverse", True, "no involutions at k=1", skipped=True)
        )

    gp = graphs["proper"]
    n = gp.n
    target = 2**k - 1

    if n >= 2:
        dist = _full_distance_matrix(gp)

        # Solver against the BFS oracle.
        total_pairs = n * n
        if pair_limit is not None and total_pairs > pair_limit:
            flat = np.linspace(0, total_pairs - 1, pair_limit).astype(np.int64)
            pair_iter = [(int(f) // n, int(f) % n) for f in np.unique(flat)]
            scope = f"sampled {len(pair_iter)} of {total_pairs} pairs"
        else:
            pair_iter = [(i, j) for i in range(n) for j in range(n)]
            scope = f"all {total_pairs} pairs"
        ok = True
        for i, j in pair_iter:
            a, b = states_p[i], states_p[j]
            path = solve(a, b, proper)
            if len(path) > target or len(path) < dist[i, j]:
                ok = False
                break
            visited = path_states(path, proper)
            if visited[-1] != b or any(s[0] not in (a[0], b[0]) for s in visited):
                ok = False
                break
        results.append(CheckResult("solver vs BFS bounds", ok, scope))

        # Disjoint support forces distance exactly 2^k - 1, and the solver meets it.
        dtype = np.uint64 if r <= 63 else object
        masks = np.array([sum(1 << e for e in set(s)) for s in states_p], dtype=dtype)
        disjoint = (masks[:, None] & masks[None, :]) == 0
        pairs = np.argwhere(disjoint)
        exact_bfs = bool((dist[disjoint] == target).all()) if pairs.size else True
        exact_solver = all(
            len(solve(states_p[i], states_p[j], proper)) == target for i, j in pairs
        )
        results.append(
            CheckResult(
                "disjoint-support exactness",
                exact_bfs and exact_solver,
                f"{len(pairs)} ordered pairs at distance {target}",
            )
        )

        # Uniformity claim of the construction: at critical distance 2^k - 1
        # the achieved epsilon is at most k^2/r (vacuous when k^2/r >= 1).
        report = best_uniformity(gp)
        at_target = (n - 1) - (dist == target).sum(axis=1)
        eps_at_target = Fraction(int(at_target.max()), n)
        claim = Fraction(k * k, r)
        ok = eps_at_target <= claim
        detail = f"eps at d={target} is {eps_at_target} (claim {claim})"
        if claim >= 1:
            detail += "; claim vacuous"
        detail += f"; best report d={report.d} eps={report.epsilon}"
        results.append(CheckResult("uniformity eps <= k^2/r at d = 2^k - 1", ok, detail))

        # Diameter, from the distance table best_uniformity kept.
        diam, connected = diameter(gp)
        if r >= k + 1:
            ok = diam == target
            detail = f"diameter {diam} (want {target})"
        else:
            ok = diam <= target
            detail = f"diameter {diam} <= {target} (no disjoint pair guaranteed at r < k+1)"
        if connected and report.epsilon < Fraction(1, 2):
            ok = ok and report.d <= diam <= 2 * report.d
            detail += f"; window d <= diam <= 2d at d={report.d}"
        results.append(CheckResult("diameter", ok, detail))

        # Structural checkers (vacuous at epsilon = 0).
        try:
            ok = check_min_degree(gp, report)
            results.append(CheckResult("min-degree bound", ok))
        except ZeroEpsilon:
            results.append(
                CheckResult("min-degree bound", True, "vacuous at eps=0", skipped=True)
            )
        try:
            rows = check_neighborhood_growth(gp, report)
            ok = all(row.ok for row in rows)
            detail = "; ".join(
                f"|N_{row.radius}| >= {row.required}: min {row.min_ball}" for row in rows
            )
            results.append(CheckResult("neighborhood growth", ok, detail))
        except ZeroEpsilon:
            results.append(
                CheckResult("neighborhood growth", True, "vacuous at eps=0", skipped=True)
            )
        if 0 < report.epsilon < 1:
            ok = check_upper_bound(n, report.epsilon, report.d)
            results.append(CheckResult("critical-distance upper bound", ok))
        else:
            results.append(
                CheckResult(
                    "critical-distance upper bound", True, "vacuous at eps=0", skipped=True
                )
            )
    else:
        results.append(
            CheckResult("solver vs BFS bounds", True, "graph has one vertex", skipped=True)
        )

    # Truncation isomorphism.
    t = iterate_truncation(r, k, cap)
    want = (r + 1) * r ** (k - 1)
    ok = (
        t.graph.n == want
        and bool((t.graph.degrees() == r).all())
        and verify_isomorphism(t, improper)
    )
    results.append(
        CheckResult("truncation isomorphism", ok, f"{t.graph.n} vertices (want {want})")
    )
    return results

"""Desk-scale verification suite for one (r, k): re-derives every claimed bound.

Each check returns a CheckResult; a check that is vacuous for the given
parameters (single-vertex graph, epsilon = 0) passes with ``skipped=True`` and
a note.  The CLI renders the table and exits nonzero if any row fails.

The pair checks (solver bounds, disjoint-support exactness, uniformity at
2^k - 1) are exhaustive through orbits.  Renaming the values 1..r (0 fixed) is
an automorphism of the proper Hanoi graph, which the suite itself checks, and
the solver commutes with it (Hinz et al., *The Tower of Hanoi -- Myths and
Maths*, 2013).  So each check gives one verdict on a whole orbit of ordered
state pairs, and the suite replays one representative per orbit: 2 795 for
the 65 536 pairs of (4, 4).

The move rules are applied once per legal (state, move), into one move table
per mode that the builder, adjacency-symmetry and involution rows read: 2 300
``apply_move`` calls at (4, 4).  The solver paths are replayed together over
vertex ids through the proper table, with no ``apply_move`` call for their
27 060 moves.  A move that breaks the rules fails the solver row; it is not
an input error.
"""

from __future__ import annotations

import itertools
import math
from array import array
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
from .graph import (
    ExplicitGraph,
    _maps_edges_onto,
    build_explicit,
    diameter,
    distance_histograms,
    iter_distance_rows,
)
from .hanoi import (
    DEFAULT_STATE_CAP,
    INVOLUTE,
    HanoiParams,
    _first_appearance,
    _sorted_unique,
    apply_move,
    encode_states,
    legal_moves,
    state_matrix,
)
from .solver import _replay_walks, solve
from .truncation import _certify, iterate_truncation


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""
    skipped: bool = False


def _pair_orbits(states: np.ndarray):
    """One ordered pair per orbit of the value relabelings that fix 0.

    A pair (a, b) is its orbit's representative when the concatenation a + b
    names its nonzero values in order of first appearance.  Returns the
    canonical states (``sources``, vertex ids) and, for the representatives
    sorted by (a, b), the position of a in ``sources``, the vertex b, and the
    number m of distinct nonzero values in a + b; the orbit holds perm(r, m)
    pairs.
    """
    relabeled, used = _first_appearance(states, 0)
    sources = np.flatnonzero((relabeled == states).all(axis=1))
    pair_a, pair_b, distinct = [], [], []
    for w in _sorted_unique(used[sources]):
        relabeled, m = _first_appearance(states, w)
        b = np.flatnonzero((relabeled == states).all(axis=1))
        a = np.flatnonzero(used[sources] == w)
        pair_a.append(np.repeat(a, b.size))
        pair_b.append(np.tile(b, a.size))
        distinct.append(np.tile(m[b], a.size))
    pair_a, pair_b, distinct = (np.concatenate(x) for x in (pair_a, pair_b, distinct))
    order = np.lexsort((pair_b, pair_a))
    return sources, pair_a[order], pair_b[order], distinct[order]


def _pairs_covered(r: int, distinct: np.ndarray) -> int:
    """Ordered pairs in the orbits of representatives with these distinct-value counts."""
    return sum(math.perm(r, m) * int(c) for m, c in enumerate(np.bincount(distinct)))


def _relabelings_preserve_edges(g: ExplicitGraph, params: HanoiParams, states) -> bool:
    """True when (1 2) and the cycle 1 -> 2 -> ... -> r -> 1 map g's edges onto themselves.

    The two generate every permutation of 1..r, so distances, and every pair
    check, are constant on the orbits of state pairs.
    """
    r = params.r
    edges = g.edge_array()
    for perm in ([0, 2, 1, *range(3, r + 1)], [0, *range(2, r + 1), 1]):
        image = encode_states(np.asarray(perm, dtype=states.dtype)[states], params)
        if not _maps_edges_onto(image, edges, edges, g.n):
            return False
    return True


def _move_table(states, params: HanoiParams) -> np.ndarray:
    """(n, r + 2) int32: ``table[v, c]`` is the rank of state v after move c, -1 where illegal.

    ``states`` lists the states as tuples in rank order.  Code c <= r is the
    adjustment to c and r + 1 the involution.  Each legal (state, move) goes
    through ``apply_move`` once, the calls neighbors() makes.
    """
    r1 = params.r + 1
    width = np.min_scalar_type(r1)  # an unsigned type whose char is also an array typecode
    codes, counts = array(width.char), array("q")

    def images(s):
        moves = legal_moves(s, params)
        codes.extend([r1 if m is INVOLUTE else m.value for m in moves])
        counts.append(len(moves))
        return itertools.chain.from_iterable([apply_move(s, m, params) for m in moves])

    flat = np.fromiter(itertools.chain.from_iterable(map(images, states)), dtype=np.int32)
    ranks = encode_states(flat.reshape(-1, params.k), params)
    del flat
    cells = np.repeat(np.arange(0, len(states) * (r1 + 1), r1 + 1), counts)
    cells += np.frombuffer(codes, dtype=width)
    table = np.full((len(states), r1 + 1), -1, dtype=np.int32)
    table.reshape(-1)[cells] = ranks
    return table


def _is_symmetric(ends: np.ndarray) -> bool:
    """True when row w of ``ends`` lists v whenever row v lists w.

    ``ends`` is a move table with each row sorted, -1 where no move leads.
    Rows are compared as sets: a repeated entry lists the same neighbour.
    """
    repeated = np.zeros(ends.shape, dtype=bool)
    np.equal(ends[:, 1:], ends[:, :-1], out=repeated[:, 1:])
    keep = (ends >= 0) & ~repeated
    x = np.repeat(np.arange(len(ends), dtype=ends.dtype), keep.sum(axis=1))
    y = ends[keep]
    # The pairs (x, y) come sorted; a stable sort on y sorts the pairs (y, x) alike.
    order = np.argsort(y, kind="stable")
    return np.array_equal(y[order], x) and np.array_equal(x[order], y)


def run_verify_suite(
    r: int,
    k: int,
    cap: int = DEFAULT_STATE_CAP,
    pair_limit: int | None = None,
) -> list[CheckResult]:
    """All checks for the (r, k) Hanoi construction; exhaustive at desk scale.

    The solver, disjoint-support and uniformity checks run on one ordered
    state pair per orbit of the value relabelings, which the row "value
    relabeling is an automorphism" proves sound; the solver row passes only
    when the orbits cover all n^2 pairs.  Distance rows come from the state
    orbits' representatives alone, so nothing of size n x n is built.

    ``pair_limit`` caps the number of orbit representatives the solver check
    replays (evenly sampled when there are more); its detail names how many
    of the n^2 pairs the sample covers.  The disjoint-support check always
    covers every orbit.  A ``pair_limit`` below 1 raises ValueError.
    """
    if pair_limit is not None and pair_limit < 1:
        raise ValueError(f"pair sample must be at least 1, got {pair_limit}")
    results: list[CheckResult] = []
    proper = HanoiParams(r, k, proper=True)
    improper = HanoiParams(r, k, proper=False)
    states_p = state_matrix(proper, cap)
    states_i = state_matrix(improper, cap)

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

    # Explicit builder against the move-level definition, both modes, adjacency
    # symmetry and the involution, all read from one move table per mode.
    graphs = {}
    sym = involutive = True
    for label, params, states in (
        ("proper", proper, states_p),
        ("improper", improper, states_i),
    ):
        g = build_explicit(params, cap)
        graphs[label] = g
        listed = list(map(tuple, states.tolist()))
        table = _move_table(listed, params)
        n = len(listed)
        ends = np.sort(table, axis=1)
        legal = ends >= 0
        same = (
            g.n == n
            and np.array_equal(legal.sum(axis=1), g.degrees())
            and np.array_equal(ends[legal], g.indices)
        )
        del legal
        sym = sym and _is_symmetric(ends)
        del ends
        # An illegal involution counts as a fixed point.
        inv = np.where(table[:, -1] < 0, np.arange(n), table[:, -1])
        involutive = involutive and np.array_equal(inv[inv], np.arange(n))
        results.append(
            CheckResult(f"builder matches moves ({label})", same, f"n={g.n} m={g.m}")
        )
        if params.proper:
            listed_p, table_p = listed, table
        del table
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
        results.append(CheckResult("involution self-inverse", involutive))
    else:
        results.append(
            CheckResult("involution self-inverse", True, "no involutions at k=1", skipped=True)
        )

    gp = graphs["proper"]
    n = gp.n
    target = 2**k - 1

    if n >= 2:
        ok = _relabelings_preserve_edges(gp, proper, states_p)
        results.append(
            CheckResult(
                "value relabeling is an automorphism",
                ok,
                f"(1 2) and the {r}-cycle on 1..{r} map the edge set onto itself (m={gp.m})",
            )
        )

        sources, pair_a, pair_b, distinct = _pair_orbits(states_p)
        # Distances from the state-orbit representatives, gathered per pair
        # representative; the rows themselves are dropped chunk by chunk.
        pair_dist = np.empty(pair_a.size, dtype=np.int32)
        lo = 0
        for chunk, rows in iter_distance_rows(gp, sources):
            s, e = np.searchsorted(pair_a, [lo, lo + chunk.size])
            pair_dist[s:e] = rows[pair_a[s:e] - lo, pair_b[s:e]]
            lo += chunk.size
        first = sources[pair_a]

        # Solver against the BFS oracle.
        total_pairs = n * n
        covered = _pairs_covered(r, distinct)
        picked = np.arange(pair_a.size)
        if pair_limit is not None and pair_a.size > pair_limit:
            picked = _sorted_unique(np.linspace(0, pair_a.size - 1, pair_limit).astype(np.int64))
            scope = (
                f"sampled {picked.size} of {pair_a.size} orbit representatives, covering "
                f"{_pairs_covered(r, distinct[picked])} of {total_pairs} pairs"
            )
        else:
            scope = f"all {total_pairs} pairs ({pair_a.size} orbits)"
        ok = covered == total_pairs
        if not ok:
            scope += f"; orbits cover {covered} of {total_pairs} pairs"
        lengths = np.full(pair_a.size, -1, dtype=np.int32)  # -1 until solved

        def solved(p):
            moves = solve(listed_p[first[p]], listed_p[pair_b[p]], proper).moves
            lengths[p] = len(moves)
            return moves

        walks = ((first[p], pair_b[p], solved(p)) for p in picked)
        replayed = _replay_walks(walks, table_p, states_p[:, 0], proper)
        ok = ok and replayed and bool(
            (lengths[picked] <= target).all() and (lengths[picked] >= pair_dist[picked]).all()
        )
        results.append(CheckResult("solver vs BFS bounds", ok, scope))

        # Disjoint support forces distance exactly 2^k - 1, and the solver meets it.
        # Only representatives the solver row left out are solved again.
        seconds = states_p[pair_b]
        shared = np.zeros(pair_a.size, dtype=bool)
        for j in range(k):
            shared |= (seconds == states_p[first, j][:, None]).any(axis=1)
        disjoint = np.flatnonzero(~shared)
        for p in disjoint[lengths[disjoint] < 0].tolist():
            solved(p)
        exact_bfs = bool((pair_dist[disjoint] == target).all())
        exact_solver = bool((lengths[disjoint] == target).all())
        results.append(
            CheckResult(
                "disjoint-support exactness",
                exact_bfs and exact_solver,
                f"{_pairs_covered(r, distinct[disjoint])} ordered pairs at distance {target}",
            )
        )

        # Uniformity claim of the construction: at critical distance 2^k - 1
        # the achieved epsilon is at most k^2/r (vacuous when k^2/r >= 1).
        # The kept table has one row per state orbit, from the same canonical
        # states; a target beyond the diameter leaves every vertex n - 1 off.
        report = best_uniformity(gp)
        _, table, _ = distance_histograms(gp)
        fewest = int(table[:, target].min()) if target < table.shape[1] else 0
        eps_at_target = Fraction((n - 1) - fewest, n)
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
        and _certify(t, graphs["improper"])
    )
    results.append(
        CheckResult("truncation isomorphism", ok, f"{t.graph.n} vertices (want {want})")
    )
    return results

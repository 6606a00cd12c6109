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
the 65 536 pairs of (4, 4).  The solver paths are replayed together over
vertex ids, through a table that applies each distinct (state, move)
transition once: 331 ``apply_move`` calls for the 27 060 moves of (4, 4).
A move that breaks the rules fails the solver row; it is not an input error.
"""

from __future__ import annotations

import itertools
import math
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
    build_explicit,
    diameter,
    distance_histograms,
    iter_distance_rows,
)
from .hanoi import (
    DEFAULT_STATE_CAP,
    INVOLUTE,
    HanoiParams,
    IllegalInvolute,
    _first_appearance,
    _sorted_unique,
    apply_move,
    encode_states,
    enumerate_states,
    neighbors,
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
    want = g.edge_array()
    keys = want[:, 0] * g.n + want[:, 1]
    for perm in ([0, 2, 1, *range(3, r + 1)], [0, *range(2, r + 1), 1]):
        image = encode_states(np.asarray(perm, dtype=states.dtype)[states], params)
        if not np.array_equal(np.sort(image), np.arange(g.n)):
            return False
        ends = image[want]
        mapped = np.sort(ends.min(axis=1) * g.n + ends.max(axis=1))
        if not np.array_equal(mapped, keys):
            return False
    return True


def _moves(states, params):
    """(x, y) int64 arrays: each state's position in ``states`` and its neighbors() ranks."""
    counts = []

    def entries(s):
        row = neighbors(s, params)
        counts.append(len(row))
        return itertools.chain.from_iterable(row)

    flat = np.fromiter(itertools.chain.from_iterable(map(entries, states)), dtype=np.int32)
    x = np.repeat(np.arange(len(states), dtype=np.int64), counts)
    return x, encode_states(flat.reshape(-1, params.k), params)


def _self_inverse(states, params) -> bool:
    """True when the involution, applied twice, gives back every state; an illegal one fixes it."""
    images = []
    for s in states:
        try:
            images.append(apply_move(s, INVOLUTE, params))
        except IllegalInvolute:
            images.append(s)
    inv = encode_states(np.array(images), params)
    return np.array_equal(inv[inv], np.arange(len(states)))


def _is_symmetric(x: np.ndarray, y: np.ndarray, n: int) -> bool:
    """True when (y, x) is a pair whenever (x, y) is, for int64 arrays over vertices 0..n-1."""
    # Compared as sets: a repeated pair lists the same neighbour.
    return np.array_equal(_sorted_unique(x * n + y), _sorted_unique(y * n + x))


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

    # Explicit builder against the move-level definition, both modes, and
    # adjacency symmetry at the move level, from one neighbors() call per state.
    graphs = {}
    sym = True
    for label, params, states in (
        ("proper", proper, states_p),
        ("improper", improper, states_i),
    ):
        g = build_explicit(params, cap)
        graphs[label] = g
        x, y = _moves(states, params)
        sym = sym and _is_symmetric(x, y, len(states))
        # The key arrays are temporaries: at (256, 2) each one is 134 MB.
        same = g.n == len(states) and np.array_equal(
            np.sort(x * g.n + y), np.repeat(np.arange(g.n) * g.n, g.degrees()) + g.indices
        )
        del x, y
        results.append(
            CheckResult(f"builder matches moves ({label})", same, f"n={g.n} m={g.m}")
        )
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
        ok = _self_inverse(states_i, improper) and _self_inverse(states_p, proper)
        results.append(CheckResult("involution self-inverse", ok))
    else:
        results.append(
            CheckResult("involution self-inverse", True, "no involutions at k=1", skipped=True)
        )

    gp = graphs["proper"]
    n = gp.n
    target = 2**k - 1

    if n >= 2:
        states = state_matrix(proper, cap)
        ok = _relabelings_preserve_edges(gp, proper, states)
        results.append(
            CheckResult(
                "value relabeling is an automorphism",
                ok,
                f"(1 2) and the {r}-cycle on 1..{r} map the edge set onto itself (m={gp.m})",
            )
        )

        sources, pair_a, pair_b, distinct = _pair_orbits(states)
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
        lengths = np.zeros(picked.size, dtype=np.int64)

        def walks():
            for i, p in enumerate(picked):
                moves = solve(states_p[first[p]], states_p[pair_b[p]], proper).moves
                lengths[i] = len(moves)
                yield first[p], pair_b[p], moves

        replayed = _replay_walks(walks(), states, proper)
        ok = ok and replayed and bool(
            (lengths <= target).all() and (lengths >= pair_dist[picked]).all()
        )
        del lengths  # freed before the disjoint-support arrays: 1 MB at (2, 9)
        results.append(CheckResult("solver vs BFS bounds", ok, scope))

        # Disjoint support forces distance exactly 2^k - 1, and the solver meets it.
        seconds = states[pair_b]
        shared = np.zeros(pair_a.size, dtype=bool)
        for j in range(k):
            shared |= (seconds == states[first, j][:, None]).any(axis=1)
        disjoint = np.flatnonzero(~shared)
        exact_bfs = bool((pair_dist[disjoint] == target).all())
        exact_solver = all(
            len(solve(states_p[first[p]], states_p[pair_b[p]], proper)) == target
            for p in disjoint
        )
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

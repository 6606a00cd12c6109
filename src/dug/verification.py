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

The move rules are certified once per orbit of states.  Each mode's move
table is the builder's rank arithmetic (``hanoi._move_ranks``).  The builder
row passes when the CSR equals the table, when the table's rows for the
canonical states equal ``apply_move`` applied to them, and when the table
commutes with two value renamings that generate every renaming of the mode.
The move rules commute with the same renamings, which a tier-1 test checks on
random states, so the table equals the move rules on every state: 79
``apply_move`` calls at (4, 4), each ranked by the scalar ``state_index``.
A fault in ``apply_move`` that shows only on non-canonical states passes the
suite and fails that test, the trade the solver row already makes.  The
adjacency-symmetry row reads the same table's canonical rows, the involution
row all of it, and the solver paths are replayed together over vertex ids
through the proper one, with no ``apply_move`` call for their 27 060 moves.
A move that breaks the rules fails the solver row; it is not an input error.
The solver runs on states that the "state counts" row validated in bulk, so
no call re-validates them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .analyze import (
    ZeroEpsilon,
    _epsilon_at,
    best_uniformity,
    check_min_degree,
    check_neighborhood_growth,
    check_upper_bound,
)
from .graph import (
    build_explicit,
    diameter,
    iter_distance_rows,
)
from .hanoi import (
    DEFAULT_STATE_CAP,
    INVOLUTE,
    HanoiParams,
    TooLarge,
    _first_appearance,
    _move_ranks,
    _sorted_unique,
    apply_move,
    encode_states,
    legal_moves,
    state_index,
    state_matrix,
)
from .solver import _replay_walks, _solve_moves
from .truncation import _certify, iterate_truncation


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""
    skipped: bool = False


def _pair_orbits(states: np.ndarray, cap: int = DEFAULT_STATE_CAP):
    """One ordered pair per orbit of the value relabelings that fix 0.

    A pair (a, b) is its orbit's representative when the concatenation a + b
    names its nonzero values in order of first appearance.  Returns the
    canonical states (``sources``, vertex ids) and, for the representatives
    sorted by (a, b), the position of a in ``sources``, the vertex b, and the
    number m of distinct nonzero values in a + b; the orbit holds perm(r, m)
    pairs.  Raises :class:`TooLarge` when there are more than ``cap``
    representatives, counted from the class sizes before any is listed.
    """
    relabeled, used = _first_appearance(states, 0)
    sources = np.flatnonzero((relabeled == states).all(axis=1))
    classes = []  # (a, b, m[b]) for each count w of values named by a
    for w in _sorted_unique(used[sources]):
        relabeled, m = _first_appearance(states, w)
        b = np.flatnonzero((relabeled == states).all(axis=1))
        classes.append((np.flatnonzero(used[sources] == w), b, m[b]))
    count = sum(a.size * b.size for a, b, _ in classes)
    if count > cap:
        raise TooLarge(f"{count} state-pair orbits exceed the cap of {cap}")
    pair_a = np.concatenate([np.repeat(a, b.size) for a, b, _ in classes])
    pair_b = np.concatenate([np.tile(b, a.size) for a, b, _ in classes])
    distinct = np.concatenate([np.tile(m, a.size) for a, _, m in classes])
    order = np.lexsort((pair_b, pair_a))
    return sources, pair_a[order], pair_b[order], distinct[order]


def _pairs_covered(r: int, distinct: np.ndarray) -> int:
    """Ordered pairs in the orbits of representatives with these distinct-value counts."""
    return sum(math.perm(r, m) * int(c) for m, c in enumerate(np.bincount(distinct)))


def _valid_rows(states: np.ndarray, params: HanoiParams) -> bool:
    """True when every row is a state ``make_state`` accepts under ``params``.

    Rows hold k entries in 0..r with no two consecutive equal, and a proper
    row does not start with 0.
    """
    return bool(
        states.shape[1] == params.k
        and ((states >= 0) & (states <= params.r)).all()
        and (states[:, 1:] != states[:, :-1]).all()
        and not (params.proper and (states[:, 0] == 0).any())
    )


def _renamings(params: HanoiParams) -> list[np.ndarray]:
    """Two value renamings that generate every renaming of the mode's values.

    The values are 1..r for proper states (0 stays fixed) and 0..r otherwise;
    with lo the smallest, the renamings are (lo lo+1) and the cycle
    lo -> lo+1 -> ... -> r -> lo; there are none for a single value.
    """
    lo = 1 if params.proper else 0
    if params.r <= lo:
        return []
    swap = np.arange(params.r + 1)
    swap[[lo, lo + 1]] = lo + 1, lo
    cycle = np.arange(params.r + 1)
    cycle[lo:] = np.roll(cycle[lo:], -1)
    return [swap, cycle]


def _is_equivariant(table: np.ndarray, states: np.ndarray, params: HanoiParams) -> bool:
    """True when each of :func:`_renamings` carries the move table onto itself.

    With sigma renaming state v to state image[v] and the adjustment to c to
    the adjustment to sigma(c), ``table[image[v], sigma(c)] == image[table[v, c]]``
    for every cell; -1 (illegal) stays -1 and the involution's code r + 1 is
    fixed.  The two renamings generate all of them, so the move graph the
    table encodes is then invariant under every renaming of the mode.
    """
    for sigma in _renamings(params):
        image = encode_states(sigma.astype(states.dtype)[states], params).astype(table.dtype)
        codes = np.append(sigma, params.r + 1)
        if not np.array_equal(table[image[:, None], codes], np.append(image, -1)[table]):
            return False
    return True


def _move_table(states, params: HanoiParams) -> np.ndarray:
    """(n, r + 2) int32: ``table[v, c]`` is the rank of state v after move c, -1 where illegal.

    ``states`` lists n states as tuples.  Code c <= r is the adjustment to c
    and r + 1 the involution.  Each legal (state, move) goes through
    ``apply_move`` once, the calls neighbors() makes, and its result through
    the scalar ``state_index``, so this reference shares no rank arithmetic
    with ``hanoi._move_ranks``, the table it certifies.
    """
    table = np.full((len(states), params.r + 2), -1, dtype=np.int32)
    for row, s in zip(table, states):
        for m in legal_moves(s, params):
            row[params.r + 1 if m is INVOLUTE else m.value] = state_index(
                apply_move(s, m, params), params)
    return table


def _is_symmetric(table: np.ndarray, rows: np.ndarray) -> bool:
    """True when row w of ``table`` lists v whenever row v, one of ``rows``, lists w.

    ``table`` is a move table, -1 where no move leads.  An equivariant table
    that passes for the canonical rows is symmetric: sigma carries the pair
    (c, w) and its way back to (sigma c, sigma w).
    """
    ends = table[rows]
    legal = ends >= 0
    back = table[ends[legal]] == np.repeat(rows, legal.sum(axis=1))[:, None]
    return bool(back.any(axis=1).all())


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
    orbits = _pair_orbits(states_p, cap)

    # State counts against the closed forms, and every state valid.
    ok = (
        len(states_p) == r**k
        and len(states_i) == (r + 1) * r ** (k - 1)
        and _valid_rows(states_p, proper)
        and _valid_rows(states_i, improper)
    )
    results.append(
        CheckResult(
            "state counts",
            ok,
            f"proper {len(states_p)} (want {r**k}), "
            f"improper {len(states_i)} (want {(r + 1) * r ** (k - 1)})",
        )
    )

    # Explicit builder against the move-level definition, both modes, adjacency
    # symmetry and the involution, all read from one move table per mode.  The
    # move rules and the symmetry check run on the canonical states alone; the
    # table's equivariance carries their verdicts to every state of each orbit.
    graphs = {}
    sym = involutive = True
    for label, params, states in (
        ("proper", proper, states_p),
        ("improper", improper, states_i),
    ):
        g = build_explicit(params, cap)
        graphs[label] = g
        table = _move_ranks(states, params)
        n = len(states)
        relabeled, _ = _first_appearance(states, 0 if params.proper else -1)
        canonical = np.flatnonzero((relabeled == states).all(axis=1))
        rules = np.array_equal(
            table[canonical], _move_table(list(map(tuple, states[canonical].tolist())), params)
        )
        equivariant = _is_equivariant(table, states, params)
        sym = sym and equivariant and _is_symmetric(table, canonical)
        ends = np.sort(table, axis=1)
        legal = ends >= 0
        built = (
            g.n == n
            and np.array_equal(legal.sum(axis=1), g.degrees())
            and np.array_equal(ends[legal], g.indices)
        )
        del ends, legal
        # An illegal involution counts as a fixed point.
        inv = np.where(table[:, -1] < 0, np.arange(n), table[:, -1])
        involutive = involutive and np.array_equal(inv[inv], np.arange(n))
        results.append(CheckResult(
            f"builder matches moves ({label})", built and rules and equivariant, f"n={g.n} m={g.m}"
        ))
        if params.proper:
            # The built edges are the table's, which the renamings carry onto itself.
            table_p, automorphic = table, built and equivariant
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
        results.append(
            CheckResult(
                "value relabeling is an automorphism",
                automorphic,
                f"(1 2) and the {r}-cycle on 1..{r} map the edge set onto itself (m={gp.m})",
            )
        )

        sources, pair_a, pair_b, distinct = orbits
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
        listed = list(map(tuple, states_p.tolist()))  # validated by the "state counts" row

        def solved(p):
            moves = _solve_moves(listed[first[p]], listed[pair_b[p]])
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
        # It is read from the table best_uniformity keeps, one row per state
        # orbit, from the same canonical states.
        report = best_uniformity(gp)
        eps_at_target = _epsilon_at(gp, target)
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

    # Truncation isomorphism, with the proper graph and its table dropped.
    del gp, graphs["proper"], table_p
    t = iterate_truncation(r, k, cap)
    want = (r + 1) * r ** (k - 1)
    results.append(CheckResult(
        "truncation isomorphism", _certify(t, graphs["improper"]),
        f"{t.graph.n} vertices (want {want})",
    ))
    return results

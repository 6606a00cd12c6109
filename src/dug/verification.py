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
the 65 536 pairs of (4, 4).  Both kinds of orbit, and the sizes every coverage
figure sums, come from ``hanoi._orbit_index`` and ``hanoi._pair_orbits``.

The move rules are certified once per orbit of states.  Each mode's move
table is the builder's rank arithmetic (``hanoi._move_ranks``).  The builder
row passes when the CSR equals the table, when the table's rows for the
canonical states equal ``apply_move`` applied to them, when the table
commutes with two value renamings that generate every renaming of the mode,
and when the graph's class index, if it has one, is those renamings' orbit
index (``hanoi._orbit_index``), through which the all-source rows read.
The move rules commute with the same renamings, which a tier-1 test checks on
random states, so the table equals the move rules on every state: 79
``apply_move`` calls at (4, 4), each ranked by the scalar ``state_index``.
A fault in ``apply_move`` that shows only on non-canonical states passes the
suite and fails that test, the trade the solver row already makes.  The
adjacency-symmetry row reads the same table's canonical rows, the involution
row all of it.  The solver paths of a block of pair orbits are built as move
codes, as ``solve`` builds one, and replayed a move of every path at a time
through the proper one, with no ``apply_move`` call for their 27 060 moves.  A move
that breaks the rules fails the solver row; it is not an input error.  The
solver runs on states that the "state counts" row validated in bulk, so no
call re-validates them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .analyze import (
    _epsilon_at,
    best_uniformity,
    check_min_degree,
    check_neighborhood_growth,
    check_upper_bound,
)
from .graph import build_explicit, diameter, iter_distance_rows
from .hanoi import (
    DEFAULT_STATE_CAP,
    INVOLUTE,
    HanoiParams,
    _move_ranks,
    _orbit_index,
    _pair_orbits,
    _refuse_past_cap,
    _renamings,
    _sorted_unique,
    _valid_rows,
    apply_move,
    encode_states,
    legal_moves,
    state_index,
    state_matrix,
)
from .solver import _MOVE_BUDGET, _construct_codes, _replay_codes
from .truncation import _certify, iterate_truncation


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""
    skipped: bool = False


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
    when the orbits' sizes sum to n^2.  Distance rows come from the state
    orbits' representatives alone, so nothing of size n x n is built.

    ``pair_limit`` caps the number of orbit representatives the solver check
    replays (evenly sampled when there are more); its detail names how many
    of the n^2 pairs the sample covers.  The disjoint-support check always
    covers every orbit.  A ``pair_limit`` below 1 raises ValueError.  A shape
    past ``cap`` raises TooLarge before any state is enumerated, with the
    improper mode's counts, the largest graph the suite builds.
    Solver paths come from ``solver._construct_codes`` in blocks of
    ``_MOVE_BUDGET >> (k + 2)`` pairs, at 2^k - 1 moves a pair a quarter of
    the solver's budget at most, and every path is replayed: the sample's
    for the solver row, then those of the disjoint-support orbits left out
    of it, whose failure fails the disjoint-support row.
    """
    if pair_limit is not None and pair_limit < 1:
        raise ValueError(f"pair sample must be at least 1, got {pair_limit}")
    results: list[CheckResult] = []
    proper = HanoiParams(r, k, proper=True)
    improper = HanoiParams(r, k, proper=False)
    _refuse_past_cap(improper, cap)  # the largest graph built; the proper one is smaller
    states_p = state_matrix(proper, cap)
    states_i = state_matrix(improper, cap)
    index_p = _orbit_index(states_p, proper)
    orbits = _pair_orbits(states_p, index_p, proper, cap)

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
    for label, params, states, index in (
        ("proper", proper, states_p, index_p),
        ("improper", improper, states_i, _orbit_index(states_i, improper)),
    ):
        g = build_explicit(params, cap)
        graphs[label] = g
        table = _move_ranks(states, params)
        n = len(states)
        canonical = np.flatnonzero(index == np.arange(n))
        indexed = g.classes is None or np.array_equal(g.classes, index)
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
            f"builder matches moves ({label})", built and rules and equivariant and indexed,
            f"n={g.n} m={g.m}"
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

        sources, pair_a, pair_b, sizes = orbits
        # Distances from the state-orbit representatives, gathered per pair
        # representative; the rows themselves are dropped chunk by chunk.  They
        # come in the order of ``sources``, the positions pair_a indexes.
        pair_dist = np.empty(pair_a.size, dtype=np.int32)
        lo = 0
        for chunk, rows in iter_distance_rows(gp, sources):
            s, e = np.searchsorted(pair_a, [lo, lo + chunk.size])
            pair_dist[s:e] = rows[pair_a[s:e] - lo, pair_b[s:e]]
            lo += chunk.size
        first = sources[pair_a]

        # Solver against the BFS oracle.
        total_pairs = n * n
        covered = int(sizes.sum())
        picked = np.arange(pair_a.size)
        if pair_limit is not None and pair_a.size > pair_limit:
            picked = _sorted_unique(np.linspace(0, pair_a.size - 1, pair_limit).astype(np.int64))
            scope = (
                f"sampled {picked.size} of {pair_a.size} orbit representatives, covering "
                f"{int(sizes[picked].sum())} of {total_pairs} pairs"
            )
        else:
            scope = f"all {total_pairs} pairs ({pair_a.size} orbits)"
        ok = covered == total_pairs
        if not ok:
            scope += f"; orbits cover {covered} of {total_pairs} pairs"
        # Solve and replay the sample, then the disjoint orbits left out of it.
        seconds = states_p[pair_b]
        shared = np.zeros(pair_a.size, dtype=bool)
        for j in range(k):
            shared |= (seconds == states_p[first, j][:, None]).any(axis=1)
        rest = ~shared
        rest[picked] = False
        lengths = np.zeros(pair_a.size, dtype=np.int32)
        replayed = np.zeros(pair_a.size, dtype=bool)
        step = max(1, _MOVE_BUDGET >> (k + 2))
        for solved in (picked, np.flatnonzero(rest)):
            for lo in range(0, solved.size, step):
                p = solved[lo:lo + step]
                offsets, codes = _construct_codes(states_p[first[p]], states_p[pair_b[p]], r)
                lengths[p] = np.diff(offsets)
                replayed[p] = _replay_codes(
                    offsets, codes, first[p], pair_b[p], table_p, states_p[:, 0])
        ok = ok and bool(
            replayed[picked].all()
            and (lengths[picked] <= target).all() and (lengths[picked] >= pair_dist[picked]).all()
        )
        results.append(CheckResult("solver vs BFS bounds", ok, scope))

        # Disjoint support forces distance exactly 2^k - 1, and the solver meets it.
        disjoint = np.flatnonzero(~shared)
        exact_bfs = bool((pair_dist[disjoint] == target).all())
        exact_solver = bool((lengths[disjoint] == target).all() and replayed[rest].all())
        results.append(
            CheckResult(
                "disjoint-support exactness",
                exact_bfs and exact_solver,
                f"{int(sizes[disjoint].sum())} ordered pairs at distance {target}",
            )
        )

        # Uniformity claim of the construction: at critical distance 2^k - 1
        # the achieved epsilon is at most k^2/r (vacuous when k^2/r >= 1).
        # It is read from the all-source table that distance_histograms keeps
        # on gp, one row per class of the certified gp.classes (per vertex
        # without it).
        report = best_uniformity(gp)
        eps_at_target = _epsilon_at(gp, target)
        claim = Fraction(k * k, r)
        ok = eps_at_target <= claim
        detail = f"eps at d={target} is {eps_at_target} (claim {claim})"
        if claim >= 1:
            detail += "; claim vacuous"
        detail += f"; best report d={report.d} eps={report.epsilon}"
        results.append(CheckResult("uniformity eps <= k^2/r at d = 2^k - 1", ok, detail))

        # Diameter, from the same kept table.
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

        # Structural checkers, all vacuous at epsilon = 0.  Epsilon is the
        # largest offcount over n, and an offcount is at most n - 1, so any
        # other epsilon lies in the upper bound's domain 0 < eps < 1.
        if report.epsilon == 0:
            results.extend(
                CheckResult(name, True, "vacuous at eps=0", skipped=True)
                for name in ("min-degree bound", "neighborhood growth",
                             "critical-distance upper bound")
            )
        else:
            results.append(CheckResult("min-degree bound", check_min_degree(gp, report)))
            rows = check_neighborhood_growth(gp, report)
            detail = "; ".join(
                f"|N_{row.radius}| >= {row.required}: min {row.min_ball}" for row in rows
            )
            results.append(
                CheckResult("neighborhood growth", all(row.ok for row in rows), detail)
            )
            results.append(CheckResult(
                "critical-distance upper bound", check_upper_bound(n, report.epsilon, report.d)
            ))
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

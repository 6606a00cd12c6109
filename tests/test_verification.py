"""The orbit-reduced verify suite against a replay of every ordered state pair."""

from __future__ import annotations

import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import dug.solver
import dug.truncation
import dug.verification
from dug import (
    DEFAULT_STATE_CAP,
    INVOLUTE,
    Adjust,
    ExplicitGraph,
    HanoiParams,
    MovePath,
    best_uniformity,
    build_explicit,
    enumerate_states,
    iter_distance_rows,
    legal_moves,
    solve,
)
from dug.cli import cli_dispatch
from dug.hanoi import _move_ranks, apply_move, state_index, state_matrix
from dug.solver import _construct, _replay_walks
from dug.verification import (
    CheckResult,
    _pair_orbits,
    _pairs_covered,
    _is_symmetric,
    _move_table,
    _relabelings_preserve_edges,
    run_verify_suite,
)

from conftest import traced_peak

PAIR_ROWS = (
    "solver vs BFS bounds",
    "disjoint-support exactness",
    "uniformity eps <= k^2/r at d = 2^k - 1",
)
AUTOMORPHISM = "value relabeling is an automorphism"
NAMES = (
    "state counts",
    "builder matches moves (proper)",
    "builder matches moves (improper)",
    "adjacency symmetry",
    "improper graph r-regular",
    "involution self-inverse",
    AUTOMORPHISM,
    *PAIR_ROWS,
    "diameter",
    "min-degree bound",
    "neighborhood growth",
    "critical-distance upper bound",
    "truncation isomorphism",
)


def all_pairs_rows(r: int, k: int) -> list[CheckResult]:
    """The three pair rows as the suite computed them before its orbit reduction.

    One n x n distance matrix and n x n support masks; every ordered pair is
    solved by the solver's construction (``solve`` minus re-validating the
    enumerated states) and its path replayed move by move through a transition
    table built from ``apply_move``, the replay ``path_states`` performs.
    """
    proper = HanoiParams(r, k, proper=True)
    states = enumerate_states(proper)
    g = build_explicit(proper)
    n = g.n
    target = 2**k - 1
    dist = np.empty((n, n), dtype=np.int32)
    for chunk, rows in iter_distance_rows(g):
        dist[chunk] = rows
    index = {s: i for i, s in enumerate(states)}
    step = [[-1] * (r + 2) for _ in states]
    for i, s in enumerate(states):
        for move in legal_moves(s, proper):
            step[i][r + 1 if move is INVOLUTE else move.value] = index[apply_move(s, move, proper)]

    lengths = np.empty((n, n), dtype=np.int64)
    replayed = True
    try:
        for i, a in enumerate(states):
            for j, b in enumerate(states):
                moves = _construct(a, b)
                lengths[i, j] = len(moves)
                v = i
                for move in moves:
                    v = step[v][r + 1 if move is INVOLUTE else move.value]
                    if v < 0 or states[v][0] not in (a[0], b[0]):
                        break
                replayed = replayed and v == j
    finally:
        _construct.cache_clear()
    ok = replayed and bool((lengths <= target).all() and (lengths >= dist).all())
    rows = [CheckResult("solver vs BFS bounds", ok, f"all {n * n} pairs")]

    masks = np.array([sum(1 << e for e in set(s)) for s in states], dtype=np.int64)
    disjoint = (masks[:, None] & masks[None, :]) == 0
    exact = bool((dist[disjoint] == target).all() and (lengths[disjoint] == target).all())
    rows.append(CheckResult(
        "disjoint-support exactness",
        exact,
        f"{int(disjoint.sum())} ordered pairs at distance {target}",
    ))

    rep = best_uniformity(g)
    eps = Fraction(int(((n - 1) - (dist == target).sum(axis=1)).max()), n)
    claim = Fraction(k * k, r)
    detail = f"eps at d={target} is {eps} (claim {claim})"
    if claim >= 1:
        detail += "; claim vacuous"
    detail += f"; best report d={rep.d} eps={rep.epsilon}"
    rows.append(CheckResult("uniformity eps <= k^2/r at d = 2^k - 1", eps <= claim, detail))
    return rows


# Every (r, k) with r^k <= 625 but (2, 9): r = 2's relabeling group has order 2,
# so the suite replays about n^2 / 2 = 131 072 paths there, 22.4 M moves (about
# 8 s on a 2-CPU x86_64 host), and all_pairs_rows adds about 10 s more.  r = 1
# has one state for every k.
DESK = [
    (r, k)
    for r in range(1, 26)
    for k in range(1, 10)
    if r**k <= 625 and (r, k) != (2, 9) and (r > 1 or k <= 3)
]


@pytest.mark.parametrize("r,k", DESK, ids=[f"r{r}k{k}" for r, k in DESK])
def test_orbit_suite_matches_all_pairs_replay(r, k):
    results = run_verify_suite(r, k)
    assert all(c.ok for c in results), [c for c in results if not c.ok]
    names = [c.name for c in results]
    if r == 1:
        assert AUTOMORPHISM not in names and "solver vs BFS bounds" in names
        return
    assert tuple(names) == NAMES
    by_name = {c.name: c for c in results}
    for want in all_pairs_rows(r, k):
        got = by_name[want.name]
        if want.name == "solver vs BFS bounds":
            orbits = len(_pair_orbits(state_matrix(HanoiParams(r, k, proper=True)))[1])
            want = CheckResult(want.name, want.ok, f"{want.detail} ({orbits} orbits)")
        assert got == want


def _canonical(a, b):
    names = {0: 0}
    return tuple(names.setdefault(v, len(names)) for v in a + b)


@pytest.mark.parametrize("r,k", [(2, 1), (2, 4), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (6, 2)])
def test_pair_orbits_match_brute_force(r, k):
    params = HanoiParams(r, k, proper=True)
    states = enumerate_states(params)
    sizes = Counter(_canonical(a, b) for a in states for b in states)
    sources, pair_a, pair_b, distinct = _pair_orbits(state_matrix(params))
    reps = [states[sources[i]] + states[j] for i, j in zip(pair_a, pair_b)]
    assert reps == sorted(sizes) and len(set(reps)) == len(reps)
    assert [sizes[rep] for rep in reps] == [math.perm(r, m) for m in distinct]
    assert [len(set(rep) - {0}) for rep in reps] == list(distinct)
    assert _pairs_covered(r, distinct) == len(states) ** 2
    assert list(sources) == [i for i, s in enumerate(states) if _canonical(s, ()) == s]


def test_broken_automorphism_is_caught():
    params = HanoiParams(4, 2, proper=True)
    g = build_explicit(params)
    states = state_matrix(params)
    assert _relabelings_preserve_edges(g, params, states)
    edges = g.edge_array()
    index = {tuple(s): i for i, s in enumerate(states.tolist())}
    # Two new edges that (1 2) swaps but the 4-cycle moves elsewhere.
    extra = [[index[(1, 3)], index[(4, 2)]], [index[(2, 3)], index[(4, 1)]]]
    assert not any(v in g.neighbors_of(u) for u, v in extra)
    added = ExplicitGraph.from_edges(g.n, np.vstack([edges, extra]))
    assert not _relabelings_preserve_edges(added, params, states)
    # One edge moved: (1 2) already sends it off the edge set.
    u, v = edges[0]
    w = next(x for x in range(g.n) if x not in (u, v) and x not in g.neighbors_of(u))
    moved = ExplicitGraph.from_edges(g.n, np.vstack([[u, w], edges[1:]]))
    assert not _relabelings_preserve_edges(moved, params, states)


def test_is_symmetric():
    # (x, y, n, symmetric): the pairs x -> y over vertices 0..n-1, as sorted
    # table rows padded with -1.
    for x, y, n, want in (
        ([0, 0, 1, 2], [1, 2, 0, 0], 3, True),
        ([0, 0, 1], [1, 1, 0], 2, True),  # a repeated pair lists the same neighbour
        ([], [], 1, True),
        ([0], [1], 2, False),
        ([0, 0, 1, 1, 2], [1, 2, 0, 2, 1], 3, False),
        ([1, 0, 0, 2], [0, 2, 1, 1], 3, False),  # 2 -> 1 has no way back
        ([0, 1, 2], [1, 2, 0], 3, False),  # a directed cycle: in- and out-degrees agree
    ):
        ends = np.full((n, len(x) + 1), -1, dtype=np.int32)
        for i, (u, v) in enumerate(zip(x, y)):
            ends[u, i] = v
        assert _is_symmetric(np.sort(ends, axis=1)) is want


# r <= 6, k <= 5 and r^k <= 256 (r = 1 only up to k = 3): k = 1, proper first
# entries, involutions a proper state refuses and long alternating tails.
TABLE_GRID = [(r, k) for r in range(1, 7) for k in range(1, 6)
              if r**k <= 256 and (r > 1 or k <= 3)]


@pytest.mark.parametrize("proper", [True, False], ids=["proper", "improper"])
@pytest.mark.parametrize("r,k", TABLE_GRID, ids=[f"r{r}k{k}" for r, k in TABLE_GRID])
def test_move_table_matches_the_move_rules(r, k, proper):
    params = HanoiParams(r, k, proper=proper)
    states = enumerate_states(params)
    table = _move_table(states, params)
    assert table.shape == (len(states), r + 2) and table.dtype == np.int32
    for v, s in enumerate(states):
        want = {r + 1 if m is INVOLUTE else m.value: state_index(apply_move(s, m, params), params)
                for m in legal_moves(s, params)}
        got = {c: int(w) for c, w in enumerate(table[v]) if w >= 0}
        assert got == want, s
    assert (table >= -1).all()


@pytest.mark.parametrize("proper", [True, False], ids=["proper", "improper"])
@pytest.mark.parametrize("r,k", TABLE_GRID, ids=[f"r{r}k{k}" for r, k in TABLE_GRID])
def test_rank_arithmetic_fills_the_same_move_table(r, k, proper):
    """The builder's vectorized table equals the one applying each move, cell for cell."""
    params = HanoiParams(r, k, proper=proper)
    states = state_matrix(params)
    got = _move_ranks(states, params)
    want = _move_table(list(map(tuple, states.tolist())), params)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def test_apply_move_called_once_per_legal_move(monkeypatch):
    """(4, 4): 2 300 calls, one per legal (state, move) of the proper and improper graphs."""
    real = dug.verification.apply_move
    calls = Counter()

    def spy(x, move, params):
        calls[x, move, params.proper] += 1
        return real(x, move, params)

    monkeypatch.setattr(dug.verification, "apply_move", spy)
    r, k = 4, 4
    assert all(c.ok for c in run_verify_suite(r, k))
    m_proper = build_explicit(HanoiParams(r, k, proper=True)).m
    m_improper = build_explicit(HanoiParams(r, k)).m
    assert set(calls.values()) == {1}
    assert len(calls) == 2 * m_proper + 2 * m_improper == 2300
    for proper in (True, False):
        params = HanoiParams(r, k, proper=proper)
        assert {(x, m) for x, m, p in calls if p is proper} == {
            (x, m) for x in enumerate_states(params) for m in legal_moves(x, params)}


def test_solver_row_lengths_serve_the_disjoint_row(monkeypatch):
    """Unsampled, each orbit representative is solved once; sampled, the disjoint ones left out once more."""
    real = dug.verification.solve
    calls = Counter()

    def spy(a, b, params):
        calls[a, b] += 1
        return real(a, b, params)

    monkeypatch.setattr(dug.verification, "solve", spy)
    proper = HanoiParams(4, 3, proper=True)
    states = state_matrix(proper)
    sources, pair_a, pair_b, _ = _pair_orbits(states)
    reps = [(tuple(states[a].tolist()), tuple(states[b].tolist()))
            for a, b in zip(sources[pair_a], pair_b)]
    assert all(c.ok for c in run_verify_suite(4, 3))
    assert calls == Counter(reps)

    calls.clear()
    assert all(c.ok for c in run_verify_suite(4, 3, pair_limit=10))
    sample = {reps[i] for i in np.linspace(0, len(reps) - 1, 10).astype(np.int64)}
    disjoint = {(a, b) for a, b in reps if not set(a) & set(b)}
    assert len(sample) == 10 and len(disjoint - sample) > 0
    assert calls == Counter(sample | disjoint)


def test_builder_fault_fails_the_builder_and_truncation_rows(monkeypatch):
    """An improper edge moved in build_explicit shows in both rows that rest on it."""
    real = dug.verification.build_explicit

    def moved(params, cap=DEFAULT_STATE_CAP):
        g = real(params, cap)
        # K_4, the truncation's base, is the improper graph at k = 1 and has no edge to move.
        if params.proper or params.k == 1:
            return g
        (u, v), *rest = g.edge_array().tolist()
        w = next(w for w in range(g.n) if w not in (u, v) and w not in g.neighbors_of(u))
        return ExplicitGraph.from_edges(g.n, [(u, w), *rest], g.labels)

    monkeypatch.setattr(dug.verification, "build_explicit", moved)
    monkeypatch.setattr(dug.truncation, "build_explicit", moved)
    failed = [c.name for c in run_verify_suite(3, 3) if not c.ok]
    # The moved edge also leaves two improper vertices off degree r.
    assert failed == [
        "builder matches moves (improper)",
        "improper graph r-regular",
        "truncation isomorphism",
    ]


def test_one_way_move_fails_adjacency_symmetry(monkeypatch):
    # Proper (1, 2) gains an adjustment to 1 that leads to (3, 1), which has no move back.
    real_legal, real_apply = dug.verification.legal_moves, dug.verification.apply_move

    def legal(x, params):
        return real_legal(x, params) + ([Adjust(1)] if x == (1, 2) and params.proper else [])

    def one_way(x, move, params):
        if x == (1, 2) and move == Adjust(1):
            return (3, 1)
        return real_apply(x, move, params)

    monkeypatch.setattr(dug.verification, "legal_moves", legal)
    monkeypatch.setattr(dug.verification, "apply_move", one_way)
    rows = {c.name: c for c in run_verify_suite(3, 2)}
    assert not rows["adjacency symmetry"].ok
    assert not rows["builder matches moves (proper)"].ok
    assert rows["builder matches moves (improper)"].ok


def test_builder_with_an_extra_vertex_fails_its_row(monkeypatch):
    real = dug.verification.build_explicit

    def padded(params, cap):
        g = real(params, cap)
        return g if params.proper else ExplicitGraph.from_edges(g.n + 1, g.edge_array())

    monkeypatch.setattr(dug.verification, "build_explicit", padded)
    rows = {c.name: c for c in run_verify_suite(3, 2)}
    assert not rows["builder matches moves (improper)"].ok
    assert rows["builder matches moves (proper)"].ok


def _split_later(g):
    """The same CSR entries, with the first row taking the second row's first entry."""
    indptr = g.indptr.copy()
    indptr[1] += 1
    return ExplicitGraph(g.n, indptr, g.indices, g.labels)


def _switch(g):
    """Edges (a, b), (c, d) replaced by (a, d), (c, b): every degree and entry count kept."""
    edges = g.edge_array().tolist()
    (a, b), rest = edges[0], edges[1:]
    i, (c, d) = next((i, (c, d)) for i, (c, d) in enumerate(rest)
                     if len({a, b, c, d}) == 4
                     and d not in g.neighbors_of(a) and b not in g.neighbors_of(c))
    rest[i] = (c, b)
    return ExplicitGraph.from_edges(g.n, [(a, d), *rest], g.labels)


@pytest.mark.parametrize("fault", [_split_later, _switch], ids=["split", "switch"])
def test_builder_rows_with_the_same_entries_fail_their_row(monkeypatch, fault):
    """The builder row compares row by row: the right entries in the wrong rows fail it."""
    real = dug.verification.build_explicit

    def faulty(params, cap):
        g = real(params, cap)
        return g if params.proper else fault(g)

    monkeypatch.setattr(dug.verification, "build_explicit", faulty)
    rows = {c.name: c for c in run_verify_suite(3, 3)}
    assert not rows["builder matches moves (improper)"].ok
    assert rows["builder matches moves (proper)"].ok


def test_broken_involution_fails_its_row(monkeypatch):
    real = dug.verification.apply_move

    def broken(x, move, params):
        # (1, 2) goes to (1, 3), whose involution (3, 1) does not lead back.
        return (1, 3) if x == (1, 2) and move is INVOLUTE else real(x, move, params)

    monkeypatch.setattr(dug.verification, "apply_move", broken)
    failed = [c.name for c in run_verify_suite(3, 2) if not c.ok]
    # Every row that reads the move table reads the broken transition.
    assert failed == [
        "builder matches moves (proper)",
        "builder matches moves (improper)",
        "adjacency symmetry",
        "involution self-inverse",
        "solver vs BFS bounds",
    ]


def test_broken_solver_fails_pair_rows(monkeypatch):
    """A fault that commutes with relabeling is still seen through the representatives.

    Disjoint-support paths gain two adjustments that cancel out (to a_1 and
    back), which every relabeling carries along.  Faults that do not commute
    with relabeling would only show on pairs the suite never replays; the
    hypothesis test of ``_construct``'s equivariance in test_solver.py covers
    those, not this suite.
    """
    real = dug.verification.solve

    def lengthened(a, b, params):
        path = real(a, b, params)
        if set(a) & set(b):
            return path
        return MovePath(path.start, path.moves + (Adjust(a[0]), Adjust(b[-1])))

    monkeypatch.setattr(dug.verification, "solve", lengthened)
    for r, k in ((3, 2), (4, 3)):
        rows = {c.name: c for c in run_verify_suite(r, k)}
        assert not rows["solver vs BFS bounds"].ok
        assert not rows["disjoint-support exactness"].ok
        assert rows[AUTOMORPHISM].ok and rows["diameter"].ok


# (a, b) of (3, 2) -> the moves a faulty solver returns for that pair; each
# fault breaks one rule of the replay and keeps every other one.
FAULTS = {
    "illegal adjustment": (((1, 2), (1, 3)), (Adjust(1),)),
    "ends at the wrong state": (((1, 2), (1, 3)), (Adjust(0),)),
    "first entry leaves a_1, b_1": (((1, 2), (1, 3)), (INVOLUTE, INVOLUTE, Adjust(3))),
    "adjustment past r, where the involution is legal": (((1, 2), (2, 1)), (Adjust(4),)),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_faulty_solver_path_fails_its_row(monkeypatch, capsys, fault):
    """A path that breaks the move rules is a failed check, not bad input to dug verify."""
    pair, moves = FAULTS[fault]
    real = dug.verification.solve

    def faulty(a, b, params):
        path = real(a, b, params)
        return MovePath(path.start, moves) if (a, b) == pair else path

    monkeypatch.setattr(dug.verification, "solve", faulty)
    assert [c.name for c in run_verify_suite(3, 2) if not c.ok] == ["solver vs BFS bounds"]
    assert cli_dispatch(["verify", "--r", "3", "--k", "2"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert "[FAIL] solver vs BFS bounds: all 81 pairs (14 orbits)\n" in out
    assert out.endswith("14/15 checks passed\n")


def _representative_walks(params):
    """State matrix, move table and one solver walk per pair-orbit representative."""
    states = state_matrix(params)
    listed = enumerate_states(params)
    sources, pair_a, pair_b, _ = _pair_orbits(states)
    walks = [(a, b, solve(listed[a], listed[b], params).moves)
             for a, b in zip(sources[pair_a], pair_b)]
    return states, _move_table(listed, params), walks


def test_replay_calls_no_move_function(monkeypatch):
    """The 2 795 paths of (4, 4), 27 060 moves, replay through the move table alone."""
    proper = HanoiParams(4, 4, proper=True)
    states, table, walks = _representative_walks(proper)
    assert (len(walks), sum(len(w[2]) for w in walks)) == (2795, 27060)

    def refused(*args):
        raise AssertionError("the replay applied a move")

    for module in (dug.hanoi, dug.solver, dug.verification):
        for name in ("apply_move", "legal_moves", "neighbors"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refused)
    assert _replay_walks(iter(walks), table, states[:, 0], proper)


def test_replay_memory_is_bounded_by_the_block(monkeypatch):
    proper = HanoiParams(2, 7, proper=True)
    states, table, walks = _representative_walks(proper)
    first = states[:, 0]
    quarter = walks[:len(walks) // 4]
    block = 4096
    monkeypatch.setattr(dug.solver, "_BLOCK_MOVES", block)
    assert _replay_walks(iter(quarter), table, first, proper)
    peaks = [traced_peak(lambda part=part: _replay_walks(iter(part), table, first, proper))
             for part in (quarter, walks)]
    moves = sum(len(w[2]) for w in walks)
    # 349 504 moves: one 8-byte code each would be 2.8 MB.
    assert moves > 80 * block
    assert peaks[1] < 32 * block
    assert peaks[1] < 1.25 * peaks[0]


def test_suite_builds_each_explicit_graph_once(monkeypatch):
    real = dug.verification.build_explicit
    calls = Counter()

    def spy(params, cap=DEFAULT_STATE_CAP):
        calls[params] += 1
        return real(params, cap)

    monkeypatch.setattr(dug.verification, "build_explicit", spy)
    monkeypatch.setattr(dug.truncation, "build_explicit", spy)
    assert all(c.ok for c in run_verify_suite(3, 3))
    # both (3, 3) graphs, and K_4 that the truncations start from
    assert calls == {HanoiParams(3, 3, proper=True): 1, HanoiParams(3, 3): 1, HanoiParams(3, 1): 1}


def test_solver_row_needs_every_orbit(monkeypatch):
    real = dug.verification._pair_orbits

    def one_short(states):
        sources, pair_a, pair_b, distinct = real(states)
        return sources, pair_a[:-1], pair_b[:-1], distinct[:-1]

    monkeypatch.setattr(dug.verification, "_pair_orbits", one_short)
    solver = next(c for c in run_verify_suite(3, 2) if c.name == "solver vs BFS bounds")
    assert not solver.ok
    m = re.fullmatch(r"all 81 pairs \(13 orbits\); orbits cover (\d+) of 81 pairs", solver.detail)
    assert m and int(m.group(1)) < 81


def test_sampled_orbits():
    rows = {c.name: c for c in run_verify_suite(4, 3, pair_limit=10)}
    solver = rows["solver vs BFS bounds"]
    assert solver.ok
    m = re.fullmatch(r"sampled 10 of 187 orbit representatives, covering (\d+) of 4096 pairs",
                     solver.detail)
    assert m and 10 <= int(m.group(1)) < 4096
    # The disjoint-support check keeps every orbit.
    assert rows["disjoint-support exactness"].detail == "216 ordered pairs at distance 7"
    full = {c.name: c for c in run_verify_suite(4, 3, pair_limit=187)}
    assert full["solver vs BFS bounds"].detail == "all 4096 pairs (187 orbits)"



def test_short_diameter_fails_the_uniformity_row(monkeypatch):
    """A proper graph whose distances stop short of 2^k - 1 gives a FAIL row, not an error."""
    real = dug.verification.build_explicit

    def complete(params, cap):
        g = real(params, cap)
        iu, iv = np.triu_indices(g.n, k=1)
        return ExplicitGraph.from_edges(g.n, np.column_stack([iu, iv]), g.labels)

    monkeypatch.setattr(dug.verification, "build_explicit", complete)
    rows = {c.name: c for c in run_verify_suite(5, 2)}
    uniformity = rows["uniformity eps <= k^2/r at d = 2^k - 1"]
    assert not uniformity.ok
    assert uniformity.detail.startswith("eps at d=3 is 24/25 (claim 4/5)")

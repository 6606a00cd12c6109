"""The orbit-reduced verify suite against a replay of every ordered state pair."""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import dug.graph
import dug.hanoi
import dug.solver
import dug.truncation
import dug.verification
from dug import (
    DEFAULT_STATE_CAP,
    INVOLUTE,
    Adjust,
    ExplicitGraph,
    HanoiParams,
    TooLarge,
    best_uniformity,
    bfs_distances,
    build_explicit,
    enumerate_states,
    iter_distance_rows,
    legal_moves,
)
from dug.cli import cli_dispatch
from dug.hanoi import (
    _first_appearance,
    _move_ranks,
    _orbit_index,
    apply_move,
    state_index,
    state_matrix,
)
from dug.solver import _construct_codes, _replay_codes
from dug.verification import (
    CheckResult,
    _is_equivariant,
    _pair_orbits,
    _pairs_covered,
    _is_symmetric,
    _move_table,
    _valid_rows,
    run_verify_suite,
)

from conftest import scalar_construct, traced_peak

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
    solved by the scalar recursion of the solver's construction
    (``scalar_construct``) and its path replayed move by move through a
    transition table built from ``apply_move``, the replay ``path_states``
    performs.
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
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            moves = scalar_construct(a, b)
            lengths[i, j] = len(moves)
            v = i
            for move in moves:
                v = step[v][r + 1 if move is INVOLUTE else move.value]
                if v < 0 or states[v][0] not in (a[0], b[0]):
                    break
            replayed = replayed and v == j
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
    states = state_matrix(params)
    table = _move_ranks(states, params)
    assert _is_equivariant(table, states, params)
    index = {tuple(s): i for i, s in enumerate(states.tolist())}
    # One cell broken: (1, 3)'s adjustment to 4 leads to (1, 2), not (1, 4).
    broken = table.copy()
    broken[index[(1, 3)], 4] = index[(1, 2)]
    assert not _is_equivariant(broken, states, params)
    # Added entries in illegal cells, a new edge (1, 3) -- (4, 2) and its
    # image (2, 3) -- (4, 1) under (1 2): the swap keeps them, the 4-cycle
    # sends them off the table.
    added = table.copy()
    for (u, c), v in (((1, 3), 1), (4, 2)), (((4, 2), 4), (1, 3)), \
                     (((2, 3), 2), (4, 1)), (((4, 1), 4), (2, 3)):
        assert added[index[u], c] == -1
        added[index[u], c] = index[v]
    assert _is_symmetric(added, np.arange(len(added)))
    assert not _is_equivariant(added, states, params)
    # Improper tables are checked under renamings that move 0: (0, 1)'s
    # adjustment to 2 leads to (0, 3), not (0, 2).
    params = HanoiParams(3, 2)
    states = state_matrix(params)
    table = _move_ranks(states, params)
    assert _is_equivariant(table, states, params)
    table[state_index((0, 1), params), 2] = state_index((0, 3), params)
    assert not _is_equivariant(table, states, params)


def test_valid_rows():
    proper, improper = HanoiParams(3, 3, proper=True), HanoiParams(3, 3)
    assert _valid_rows(state_matrix(proper), proper)
    assert _valid_rows(state_matrix(improper), improper)
    assert not _valid_rows(state_matrix(improper), proper)  # rows starting with 0
    for row in ([1, 2, 4], [1, -1, 2], [1, 1, 2], [2, 3, 3]):
        states = state_matrix(proper)
        states[5] = row
        assert not _valid_rows(states, proper), row
    assert not _valid_rows(state_matrix(HanoiParams(3, 2, proper=True)), proper)  # k = 2
    assert not _valid_rows(state_matrix(proper).astype(float), proper)  # not integers


def test_invalid_states_fail_the_state_counts_row(monkeypatch):
    real = dug.verification._valid_rows
    monkeypatch.setattr(dug.verification, "_valid_rows",
                        lambda states, params: params.proper and real(states, params))
    rows = {c.name: c for c in run_verify_suite(3, 2)}
    assert [name for name, c in rows.items() if not c.ok] == ["state counts"]
    assert rows["state counts"].detail == "proper 9 (want 9), improper 12 (want 12)"


def test_is_symmetric():
    # (x, y, n, symmetric): the pairs x -> y over vertices 0..n-1, as table
    # rows padded with -1; every row checked, then only the rows listing no
    # pair that lacks its way back.
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
        assert _is_symmetric(ends, np.arange(n)) is want
        back = [v for v in range(n) if all(v in ends[w] for w in ends[v] if w >= 0)]
        assert _is_symmetric(ends, np.array(back, dtype=np.int64)) is True


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


def test_move_table_ranks_without_the_bulk_ranking(monkeypatch):
    """The reference ranks each move's result on its own, not through the code it certifies."""
    params = HanoiParams(3, 3)
    states = state_matrix(params)
    want = _move_ranks(states, params)

    def refuse(*args):
        raise AssertionError("bulk ranking called")

    monkeypatch.setattr(dug.verification, "encode_states", refuse)
    monkeypatch.setattr(dug.hanoi, "_rank_columns", refuse)
    assert np.array_equal(_move_table(list(map(tuple, states.tolist())), params), want)


def test_apply_move_called_once_per_legal_move(monkeypatch):
    """(4, 4): 79 calls, 59 proper and 20 improper, where every state took 2 300."""
    real = dug.verification.apply_move
    calls = Counter()

    def spy(x, move, params):
        calls[x, move, params.proper] += 1
        return real(x, move, params)

    monkeypatch.setattr(dug.verification, "apply_move", spy)
    r, k = 4, 4
    assert all(c.ok for c in run_verify_suite(r, k))
    assert set(calls.values()) == {1}
    assert len(calls) == 79
    for proper, want in ((True, 59), (False, 20)):
        params = HanoiParams(r, k, proper=proper)
        states = state_matrix(params)
        relabeled, _ = _first_appearance(states, 0 if proper else -1)
        canonical = map(tuple, states[(relabeled == states).all(axis=1)].tolist())
        got = {(x, m) for x, m, p in calls if p is proper}
        assert len(got) == want
        assert got == {(x, m) for x in canonical for m in legal_moves(x, params)}


def renamed_moves_commute(x, sigma, params, apply=apply_move):
    """True when the moves of sigma(x) are the sigma-images of x's and lead to the images of x's targets.

    sigma renames value v to sigma[v]; it renames the adjustment to c to the
    adjustment to sigma[c] and keeps the involution.
    """
    def rename(state):
        return tuple(sigma[v] for v in state)

    def rename_move(m):
        return m if m is INVOLUTE else Adjust(sigma[m.value])

    y = rename(x)
    moves = legal_moves(x, params)
    return set(legal_moves(y, params)) == set(map(rename_move, moves)) and all(
        apply(y, rename_move(m), params) == rename(apply(x, m, params)) for m in moves)


@st.composite
def renamed_state(draw):
    """A valid state of some (r, k), either mode, and a renaming of the mode's values."""
    r = draw(st.integers(1, 7))
    k = draw(st.integers(1, 6))
    params = HanoiParams(r, k, proper=draw(st.booleans()))
    entries = [draw(st.integers(1 if params.proper else 0, r))]
    for _ in range(k - 1):
        digit = draw(st.integers(0, r - 1))
        entries.append(digit + (1 if digit >= entries[-1] else 0))
    if params.proper:
        sigma = [0, *draw(st.permutations(range(1, r + 1)))]
    else:
        sigma = list(draw(st.permutations(range(r + 1))))
    return tuple(entries), sigma, params


@given(renamed_state())
def test_move_rules_commute_with_renaming(case):
    """The premise that lets the suite apply the move rules to orbit representatives only."""
    x, sigma, params = case
    assert renamed_moves_commute(x, sigma, params)


def every_renaming_commutes(params, apply=apply_move):
    """renamed_moves_commute for every state of ``params`` and every renaming of its values."""
    lo = 1 if params.proper else 0
    return all(
        renamed_moves_commute(x, [*range(lo), *perm], params, apply=apply)
        for x in enumerate_states(params)
        for perm in itertools.permutations(range(lo, params.r + 1))
    )


@pytest.mark.parametrize("proper", [True, False], ids=["proper", "improper"])
@pytest.mark.parametrize("r,k", [(1, 3), (2, 4), (3, 1), (3, 3), (4, 2)])
def test_move_rules_commute_with_every_renaming(r, k, proper):
    assert every_renaming_commutes(HanoiParams(r, k, proper=proper))


def test_move_rule_fault_on_a_representative_fails_the_builder_row(monkeypatch):
    real = dug.verification.apply_move

    def broken(x, move, params):
        # (1, 2) is the canonical state of its proper orbit, not of its improper one.
        return (1, 3) if x == (1, 2) and move is INVOLUTE else real(x, move, params)

    monkeypatch.setattr(dug.verification, "apply_move", broken)
    failed = [c.name for c in run_verify_suite(3, 2) if not c.ok]
    assert failed == ["builder matches moves (proper)"]


def test_rank_fault_off_the_representatives_fails_the_builder_row(monkeypatch):
    """A builder fault on a non-canonical state, with the CSR matching its table, breaks equivariance."""
    real = dug.hanoi._move_ranks

    def broken(states, params):
        # (2, 1) goes to (1, 3) by the involution, not to (1, 2).
        table = real(states, params)
        if params.proper and params.k == 2:
            table[state_index((2, 1), params), -1] = state_index((1, 3), params)
        return table

    monkeypatch.setattr(dug.graph, "_move_ranks", broken)
    monkeypatch.setattr(dug.verification, "_move_ranks", broken)
    failed = [c.name for c in run_verify_suite(3, 2) if not c.ok]
    assert failed == [
        "builder matches moves (proper)",
        "adjacency symmetry",
        "involution self-inverse",
        AUTOMORPHISM,
        "solver vs BFS bounds",
    ]


def test_move_rule_fault_off_the_representatives_needs_the_equivariance_test(monkeypatch):
    """The suite never applies a move to (2, 1); only the renaming test sees the fault."""
    real = dug.verification.apply_move

    def broken(x, move, params):
        # (2, 1) goes to (1, 3) by the involution, not to (1, 2).
        return (1, 3) if x == (2, 1) and move is INVOLUTE else real(x, move, params)

    monkeypatch.setattr(dug.verification, "apply_move", broken)
    assert all(c.ok for c in run_verify_suite(3, 2))
    for proper in (True, False):
        params = HanoiParams(3, 2, proper=proper)
        assert every_renaming_commutes(params)
        assert not every_renaming_commutes(params, apply=broken)


def test_solver_row_lengths_serve_the_disjoint_row(monkeypatch):
    """Unsampled, each orbit representative is solved once; sampled, the disjoint ones left out too."""
    real = dug.verification._construct_codes
    calls = Counter()

    def spy(a, b, r):
        calls.update(zip(map(tuple, a.tolist()), map(tuple, b.tolist())))
        return real(a, b, r)

    monkeypatch.setattr(dug.verification, "_construct_codes", spy)
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
    real = dug.verification._move_ranks

    def one_way(states, params):
        table = real(states, params)
        if params.proper:
            table[state_index((1, 2), params), 1] = state_index((3, 1), params)
        return table

    monkeypatch.setattr(dug.verification, "_move_ranks", one_way)
    failed = [c.name for c in run_verify_suite(3, 2) if not c.ok]
    # The table's edge is not the builder's, and no renaming carries it along.
    assert failed == [
        "builder matches moves (proper)",
        "adjacency symmetry",
        AUTOMORPHISM,
    ]


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
    real = dug.verification._move_ranks

    def broken(states, params):
        # (1, 2) goes to (1, 3), whose involution (3, 1) does not lead back.
        table = real(states, params)
        table[state_index((1, 2), params), -1] = state_index((1, 3), params)
        return table

    monkeypatch.setattr(dug.verification, "_move_ranks", broken)
    failed = [c.name for c in run_verify_suite(3, 2) if not c.ok]
    # Every row that reads the move table reads the broken transition.
    assert failed == [
        "builder matches moves (proper)",
        "builder matches moves (improper)",
        "adjacency symmetry",
        "involution self-inverse",
        AUTOMORPHISM,
        "solver vs BFS bounds",
    ]


def test_broken_solver_fails_pair_rows(monkeypatch):
    """A fault that commutes with relabeling is still seen through the representatives.

    Disjoint-support paths gain two adjustments that cancel out (to a_1 and
    back), which every relabeling carries along.  Faults that do not commute
    with relabeling would only show on pairs the suite never replays; the
    hypothesis test of the solver's equivariance in test_solver.py covers
    those, not this suite.
    """
    real = dug.verification._construct_codes

    def lengthened(a, b, r):
        shared = (a[:, :, None] == b[:, None, :]).any(axis=(1, 2))
        return ragged([row if sh else row + [x, y] for row, sh, x, y in zip(
            code_rows(*real(a, b, r)), shared, a[:, 0].tolist(), b[:, -1].tolist())])

    monkeypatch.setattr(dug.verification, "_construct_codes", lengthened)
    for r, k in ((3, 2), (4, 3)):
        rows = {c.name: c for c in run_verify_suite(r, k)}
        assert not rows["solver vs BFS bounds"].ok
        assert not rows["disjoint-support exactness"].ok
        assert rows[AUTOMORPHISM].ok and rows["diameter"].ok


# (a, b) of (3, 2) -> the codes a faulty solver returns for that pair; each
# fault breaks one rule of the replay and keeps every other one.  Code 4 is
# the involution.  A code outside 0..4 names no move: 5 would index past the
# move table, and a negative one would index it from its end, so that -1 in
# place of the involution would replay as the involution.
FAULTS = {
    "illegal adjustment": (((1, 2), (1, 3)), [1]),
    "ends at the wrong state": (((1, 2), (1, 3)), [0]),
    "first entry leaves a_1, b_1": (((1, 2), (1, 3)), [4, 4, 3]),
    "adjustment past r, where the involution is legal": (((1, 2), (2, 1)), [5]),
    "code below -1 after the right move": (((1, 2), (1, 3)), [3, -2]),
    "code -1 in place of the involution": (((1, 2), (2, 1)), [-1]),
}


def code_rows(offsets, codes) -> list[list[int]]:
    """Each row's move codes, from the (offsets, codes) form of ``_construct_codes``."""
    return [codes[s:e].tolist() for s, e in zip(offsets[:-1], offsets[1:])]


def ragged(rows) -> tuple[np.ndarray, np.ndarray]:
    """The (offsets, codes) form of a list of move-code rows."""
    offsets = np.cumsum([0] + [len(row) for row in rows])
    return offsets, np.array([c for row in rows for c in row], dtype=np.int64)


@pytest.mark.parametrize("fault", FAULTS)
def test_faulty_solver_path_fails_its_row(monkeypatch, capsys, fault):
    """A path that breaks the move rules is a failed check, not bad input to dug verify."""
    (a, b), fault_codes = FAULTS[fault]
    real = dug.verification._construct_codes

    def faulty(starts, goals, r):
        rows = code_rows(*real(starts, goals, r))
        hit = np.flatnonzero((starts == a).all(axis=1) & (goals == b).all(axis=1))
        assert hit.size == 1
        rows[hit[0]] = fault_codes
        return ragged(rows)

    monkeypatch.setattr(dug.verification, "_construct_codes", faulty)
    assert [c.name for c in run_verify_suite(3, 2) if not c.ok] == ["solver vs BFS bounds"]
    assert cli_dispatch(["verify", "--r", "3", "--k", "2"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert "[FAIL] solver vs BFS bounds: all 81 pairs (14 orbits)\n" in out
    assert out.endswith("14/15 checks passed\n")


def _representative_codes(params):
    """State matrix, (offsets, codes) of every pair-orbit representative, and their start and goal."""
    states = state_matrix(params)
    sources, pair_a, pair_b, _ = _pair_orbits(states)
    starts = sources[pair_a]
    return states, _construct_codes(states[starts], states[pair_b], params.r), starts, pair_b


@pytest.mark.parametrize(
    "r,k", [(r, k) for r, k in DESK if r > 1], ids=[f"r{r}k{k}" for r, k in DESK if r > 1]
)
def test_construct_codes_match_construct_on_every_orbit(r, k):
    states, paths, starts, goals = _representative_codes(HanoiParams(r, k, proper=True))
    listed = list(map(tuple, states.tolist()))
    for row, a, b in zip(code_rows(*paths), starts.tolist(), goals.tolist()):
        moves = scalar_construct(listed[a], listed[b])
        assert row == [r + 1 if m is INVOLUTE else m.value for m in moves]


def test_replay_calls_no_move_function(monkeypatch):
    """The 2 795 paths of (4, 4), 27 060 moves, replay through the move table alone."""
    proper = HanoiParams(4, 4, proper=True)
    states, (offsets, codes), starts, goals = _representative_codes(proper)
    assert offsets.shape == (2796,) and codes.shape == (27060,)
    table = _move_table(list(map(tuple, states.tolist())), proper)

    def refused(*args):
        raise AssertionError("the replay applied a move")

    for module in (dug.hanoi, dug.solver, dug.verification):
        for name in ("apply_move", "legal_moves", "neighbors"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refused)
    assert _replay_codes(offsets, codes, starts, goals, table, states[:, 0])


def test_replay_memory_is_bounded_by_the_block(monkeypatch):
    """Solving and replaying four times the pairs adds a few bytes per pair, not its codes.

    (2, 7) has 8 192 pair orbits, at most 127 moves each, and no pair of
    disjoint support, so the sample sets how many are solved.
    """
    block = 1 << 14
    monkeypatch.setattr(dug.verification, "_BLOCK_CODES", block)
    real = dug.verification._construct_codes
    rows, sizes = [], []

    def spy(a, b, r):
        offsets, codes = real(a, b, r)
        rows.append(len(a))
        sizes.append(codes.size)
        return offsets, codes

    monkeypatch.setattr(dug.verification, "_construct_codes", spy)
    peaks = []
    for limit in (2048, 8192):
        rows.clear()
        sizes.clear()
        peaks.append(traced_peak(lambda: run_verify_suite(2, 7, pair_limit=limit)))
    assert sum(rows) == 8192 and max(rows) <= block >> 7
    assert max(sizes) <= block and sum(sizes) == 349504
    # The sample and the solved pairs are int64 index arrays, 16 bytes a pair;
    # 6 144 more pairs in one block would add their 42.7 moves each on
    # average, a byte per code and four per visited vertex.
    assert peaks[1] - peaks[0] < 16 * 6144
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

    def one_short(states, cap):
        sources, pair_a, pair_b, distinct = real(states, cap)
        return sources, pair_a[:-1], pair_b[:-1], distinct[:-1]

    monkeypatch.setattr(dug.verification, "_pair_orbits", one_short)
    solver = next(c for c in run_verify_suite(3, 2) if c.name == "solver vs BFS bounds")
    assert not solver.ok
    m = re.fullmatch(r"all 81 pairs \(13 orbits\); orbits cover (\d+) of 81 pairs", solver.detail)
    assert m and int(m.group(1)) < 81


@pytest.mark.parametrize("r,k", DESK, ids=[f"r{r}k{k}" for r, k in DESK])
def test_pair_orbit_sources_are_the_class_representatives(r, k):
    """The pair-orbit sources are the builder's class representatives.

    The suite does not rely on it: it sweeps ``sources`` by name, and the
    class table separately.  This only documents that both reductions agree.
    """
    params = HanoiParams(r, k, proper=True)
    sources = _pair_orbits(state_matrix(params))[0]
    assert sources.tolist() == np.unique(build_explicit(params).classes).tolist()


@pytest.mark.parametrize("r,k", DESK, ids=[f"r{r}k{k}" for r, k in DESK])
def test_suite_needs_no_class_index(monkeypatch, capsys, r, k):
    """Correct graphs without ``classes`` pass every row and print the same table."""
    argv = ["verify", "--r", str(r), "--k", str(k)]
    assert cli_dispatch(argv) == 0
    indexed = capsys.readouterr().out
    real = dug.verification.build_explicit

    def unindexed(params, cap=DEFAULT_STATE_CAP):
        g = real(params, cap)
        return ExplicitGraph(g.n, g.indptr, g.indices, g.labels)

    monkeypatch.setattr(dug.verification, "build_explicit", unindexed)
    results = run_verify_suite(r, k)
    assert [c for c in results if not c.ok] == []
    assert cli_dispatch(argv) == 0
    assert capsys.readouterr().out == indexed


def wrong_indices(params):
    """Class indices of ``params``' graph that are wrong in three ways, by name."""
    states = state_matrix(params)
    index = _orbit_index(states, params)
    one_off = index.copy()
    one_off[-1] = index[index != index[-1]][0]  # another orbit's representative
    return {
        "zeros": np.zeros_like(index),
        "other mode": _orbit_index(states, HanoiParams(params.r, params.k, not params.proper)),
        "one vertex": one_off,
    }


@pytest.mark.parametrize("proper", [True, False], ids=["proper", "improper"])
@pytest.mark.parametrize("r,k", [(3, 3), (4, 3), (4, 4)])
def test_builder_row_certifies_the_class_index(monkeypatch, capsys, r, k, proper):
    """A graph whose class index is not the orbit index fails its builder row."""
    real = dug.verification.build_explicit
    label = "proper" if proper else "improper"
    for name, wrong in wrong_indices(HanoiParams(r, k, proper)).items():
        def misindexed(params, cap=DEFAULT_STATE_CAP):
            g = real(params, cap)
            if params.proper != proper:
                return g
            assert not np.array_equal(wrong, g.classes), name
            return ExplicitGraph(g.n, g.indptr, g.indices, g.labels, wrong)

        monkeypatch.setattr(dug.verification, "build_explicit", misindexed)
        rows = {c.name: c.ok for c in run_verify_suite(r, k)}
        assert not rows[f"builder matches moves ({label})"], name
        assert rows[f"builder matches moves ({'improper' if proper else 'proper'})"], name
        assert cli_dispatch(["verify", "--r", str(r), "--k", str(k)]) == 1, name
        assert f"[FAIL] builder matches moves ({label})" in capsys.readouterr().out


def test_suite_sweeps_the_proper_graph_twice(monkeypatch, capsys):
    """Once for the rows of the pair-orbit sources, once for the kept class table."""
    built, scans = {}, []
    real_build, real_scan = dug.verification.build_explicit, dug.graph._scan

    def spy(params, cap=DEFAULT_STATE_CAP):
        built[params] = g = real_build(params, cap)
        return g

    def counting(g, srcs, rows):
        scans.append((id(g), srcs.tolist(), rows))
        return real_scan(g, srcs, rows)

    monkeypatch.setattr(dug.verification, "build_explicit", spy)
    monkeypatch.setattr(dug.graph, "_scan", counting)
    argv = ["verify", "--r", "4", "--k", "3"]
    assert cli_dispatch(argv) == 0
    stdout = capsys.readouterr().out
    params = HanoiParams(4, 3, proper=True)
    gp = built[params]
    sources = _pair_orbits(state_matrix(params))[0].tolist()
    classes = np.unique(gp.classes).tolist()
    assert scans == [(id(gp), sources, True), (id(gp), classes, False)]
    # the kept table is the one a fresh sweep makes
    ids, table, connected = gp._histograms
    fresh_ids, fresh, fresh_connected = dug.graph.distance_histograms(build_explicit(params))
    assert np.array_equal(ids, fresh_ids) and connected == fresh_connected
    assert table.dtype == fresh.dtype and np.array_equal(table, fresh)
    # and stdout is byte for byte that of a suite whose pair distances come from the oracle
    def oracle_rows(g, sources):
        for s in sources.tolist():
            yield np.array([s]), bfs_distances(g, s)[None]

    monkeypatch.setattr(dug.verification, "iter_distance_rows", oracle_rows)
    assert cli_dispatch(argv) == 0
    assert capsys.readouterr().out == stdout


@pytest.mark.parametrize("r,k", DESK, ids=[f"r{r}k{k}" for r, k in DESK])
def test_pair_orbits_are_counted_before_they_are_listed(r, k):
    states = state_matrix(HanoiParams(r, k, proper=True))
    count = len(_pair_orbits(states)[1])
    assert len(_pair_orbits(states, cap=count)[1]) == count
    with pytest.raises(TooLarge, match=f"^{count} state-pair orbits exceed the cap of {count - 1}$"):
        _pair_orbits(states, cap=count - 1)


def test_too_many_pair_orbits_exit_2_before_any_graph_is_built(monkeypatch, capsys):
    """(4, 6): 4 096 states fit 2^19, their 700 075 pair orbits do not."""
    def refused(*args):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(dug.verification, "build_explicit", refused)
    assert cli_dispatch(["verify", "--r", "4", "--k", "6", "--cap", "19"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: 700075 state-pair orbits exceed the cap of 524288\n"


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

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from dug import (
    INVOLUTE,
    Adjust,
    HanoiParams,
    IllegalMoveAt,
    TooLarge,
    MovePath,
    enumerate_states,
    format_move,
    format_path,
    has_disjoint_support,
    parse_move,
    parse_path,
    path_states,
    solve,
    verify_path,
)
import dug.solver
from dug.solver import _construct_codes

from conftest import alternating, move_adjacency, oracle_all_pairs, scalar_construct, traced_peak


def test_solve_identity():
    p = HanoiParams(4, 2, proper=True)
    assert len(solve((1, 2), (1, 2), p)) == 0
    assert len(solve((3,), (3,), HanoiParams(4, 1, proper=True))) == 0


def test_solve_k1_single_adjustment():
    p = HanoiParams(4, 1, proper=True)
    path = solve((1,), (3,), p)
    assert path.moves == (Adjust(3),)
    assert verify_path(path, p) == (3,)


def test_solve_disjoint_pair_is_three_moves():
    p = HanoiParams(4, 2, proper=True)
    path = solve((1, 2), (3, 4), p)
    assert len(path) == 3
    assert verify_path(path, p) == (3, 4)


def test_solver_vs_bfs_exhaustive_g42():
    # all 16 x 16 ordered pairs: length vs the independent BFS oracle
    p = HanoiParams(4, 2, proper=True)
    dist = oracle_all_pairs(move_adjacency(p))
    states = enumerate_states(p)
    for a in states:
        for b in states:
            path = solve(a, b, p)
            assert len(path) <= 3
            assert len(path) >= dist[a][b]
            if has_disjoint_support(a, b):
                assert len(path) == dist[a][b] == 3


@pytest.mark.parametrize("r,k", [(3, 3), (2, 4), (5, 2)])
def test_solver_bounds_and_aux_condition(r, k):
    p = HanoiParams(r, k, proper=True)
    dist = oracle_all_pairs(move_adjacency(p))
    states = enumerate_states(p)
    target = 2**k - 1
    for a in states:
        for b in states:
            path = solve(a, b, p)
            assert len(path) <= target
            assert len(path) >= dist[a][b]
            visited = path_states(path, p)
            assert visited[-1] == b
            # every intermediate first entry is a_1 or b_1
            assert all(s[0] in (a[0], b[0]) for s in visited)


def test_solver_improper_mode():
    p = HanoiParams(3, 3)
    dist = oracle_all_pairs(move_adjacency(p))
    states = enumerate_states(p)
    for a in states:
        for b in states:
            path = solve(a, b, p)
            assert verify_path(path, p) == b
            assert dist[a][b] <= len(path) <= 7


class TestVerifyPath:
    def test_adjustment(self):
        p = HanoiParams(5, 4, proper=True)
        path = MovePath((1, 2, 3, 4), (Adjust(0),))
        assert verify_path(path, p) == (1, 2, 3, 0)

    def test_double_involution_identity(self):
        p = HanoiParams(2, 4)
        path = MovePath((1, 2, 1, 2), (INVOLUTE, INVOLUTE))
        assert verify_path(path, p) == (1, 2, 1, 2)

    def test_illegal_move_index(self):
        p = HanoiParams(4, 2, proper=True)
        for replay in (verify_path, path_states):
            with pytest.raises(IllegalMoveAt) as exc:
                replay(MovePath((1, 0), (INVOLUTE,)), p)
            assert exc.value.index == 1
            with pytest.raises(IllegalMoveAt) as exc:
                replay(MovePath((1, 2), (Adjust(3), Adjust(3))), p)
            assert exc.value.index == 2

    def test_holds_only_the_current_state(self):
        # A disjoint pair at k = 16: path_states keeps all 65 536 states (12 MB traced).
        p = HanoiParams(3, 16)
        path = solve(alternating(1, 2, 16), alternating(3, 0, 16), p)
        final = []
        assert traced_peak(lambda: final.append(verify_path(path, p))) < 1 << 20
        assert len(path) == 2**16 - 1
        assert final == path_states(path, p)[-1:] == [alternating(3, 0, 16)]

    def test_invalid_start(self):
        from dug import InvalidState

        with pytest.raises(InvalidState):
            verify_path(MovePath((1, 1), ()), HanoiParams(4, 2))


class TestMoveText:
    def test_forms(self):
        assert format_move(Adjust(3)) == "a3"
        assert format_move(INVOLUTE) == "i"
        assert parse_move("a12") == Adjust(12)
        assert parse_move("i") == INVOLUTE
        with pytest.raises(ValueError):
            parse_move("x3")
        with pytest.raises(ValueError):
            parse_move("a")

    def test_path_round_trip(self):
        moves = (Adjust(0), INVOLUTE, Adjust(3))
        assert format_path(moves) == "a0 i a3"
        assert parse_path("a0 i a3") == moves


def draw_state(draw, r: int, k: int, proper: bool):
    """One state of (r, k) in the given mode."""
    entries = [draw(st.integers(1 if proper else 0, r))]
    for _ in range(k - 1):
        digit = draw(st.integers(0, r - 1))
        entries.append(digit + (1 if digit >= entries[-1] else 0))
    return tuple(entries)


@st.composite
def proper_pair(draw):
    r = draw(st.integers(2, 6))
    k = draw(st.integers(1, 5))
    p = HanoiParams(r, k, proper=True)
    return p, draw_state(draw, r, k, True), draw_state(draw, r, k, True)


@given(proper_pair())
def test_solve_properties_random(pab):
    p, a, b = pab
    path = solve(a, b, p)
    assert len(path) <= 2**p.k - 1
    visited = path_states(path, p)
    assert visited[-1] == b
    assert all(s[0] in (a[0], b[0]) for s in visited)


@st.composite
def relabeled_pair(draw):
    """Parameters of one (r, k), either mode, two of its states, and a permutation of 1..r fixing 0."""
    r = draw(st.integers(2, 7))
    k = draw(st.integers(1, 6))
    proper = draw(st.booleans())
    sigma = [0, *draw(st.permutations(range(1, r + 1)))]
    a, b = draw_state(draw, r, k, proper), draw_state(draw, r, k, proper)
    return HanoiParams(r, k, proper=proper), a, b, sigma


@given(relabeled_pair())
def test_construct_commutes_with_relabeling(case):
    params, a, b, sigma = case

    def relabel(state):
        return tuple(sigma[v] for v in state)

    moves = solve(a, b, params).moves
    assert moves == scalar_construct(a, b)
    moved = tuple(Adjust(sigma[m.value]) if isinstance(m, Adjust) else m for m in moves)
    assert solve(relabel(a), relabel(b), params).moves == moved


def move_codes(moves, r: int) -> list[int]:
    """The codes of _construct_codes for a move sequence: c for Adjust(c), r + 1 for INVOLUTE."""
    return [r + 1 if m is INVOLUTE else m.value for m in moves]


@st.composite
def state_pairs(draw):
    """r, k and a few pairs of states of (r, k), either mode; some pairs repeat a state."""
    r = draw(st.integers(1, 7))
    k = draw(st.integers(1, 6))
    proper = draw(st.booleans())
    pairs = []
    for _ in range(draw(st.integers(1, 6))):
        a = draw_state(draw, r, k, proper)
        pairs.append((a, a if draw(st.booleans()) else draw_state(draw, r, k, proper)))
    return r, k, pairs


@given(state_pairs())
@example((3, 1, [((2,), (2,)), ((1,), (3,))]))
@example((2, 3, [((1, 0, 1), (1, 0, 1)), ((1, 2, 1), (2, 1, 0))]))
def test_construct_codes_match_construct(case):
    r, k, pairs = case
    a, b = (np.array([pair[i] for pair in pairs], dtype=np.int32) for i in (0, 1))
    offsets, codes = _construct_codes(a, b, r)
    assert offsets.shape == (len(pairs) + 1,) and offsets[0] == 0 and offsets[-1] == codes.size
    for i, pair in enumerate(pairs):
        assert codes[offsets[i]:offsets[i + 1]].tolist() == move_codes(scalar_construct(*pair), r)


@pytest.mark.parametrize("budget", [7, 14])
def test_construct_codes_refuses_paths_past_the_move_budget(monkeypatch, budget):
    """(1,2,1,2) to (3,0,3,0) takes 15 moves; its last level keeps 8 sub-problems."""
    a, b = np.array([[1, 2, 1, 2]]), np.array([[3, 0, 3, 0]])
    monkeypatch.setattr(dug.solver, "_MOVE_BUDGET", budget)
    with pytest.raises(TooLarge, match=f"^solver paths need more than {budget} moves$"):
        _construct_codes(a, b, 3)
    monkeypatch.setattr(dug.solver, "_MOVE_BUDGET", 15)
    assert _construct_codes(a, b, 3)[0].tolist() == [0, 15]

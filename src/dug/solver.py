"""Constructive solver for the Hanoi game, plus a move-path validator.

The solver builds a path of at most 2^k - 1 moves between any two states of
equal length.  It is not a shortest-path solver: paths are exactly the output
of the recursive construction (``_construct_codes``, for ``dug verify`` too),
and only for pairs with disjoint support is the length guaranteed minimal
(where it necessarily equals 2^k - 1).

Move text form: ``a<value>`` for an adjustment, ``i`` for an involution; a
path is whitespace-separated moves, e.g. ``a3 i a0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .hanoi import (
    INVOLUTE,
    Adjust,
    HanoiParams,
    Move,
    MoveError,
    State,
    apply_move,
    make_state,
)


class IllegalMoveAt(ValueError):
    """A path move failed; carries the 1-based index of the offending move."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"move {index}: {reason}")
        self.index = index
        self.reason = reason


@dataclass(frozen=True)
class MovePath:
    """A start state and a move sequence.  Legality is checked by verify_path."""

    start: State
    moves: tuple[Move, ...]

    def __len__(self) -> int:
        return len(self.moves)


def solve(a, b, params: HanoiParams) -> MovePath:
    """Path from ``a`` to ``b`` with at most 2^k - 1 moves.

    Every intermediate state has first entry a_1 or b_1; consequently the path
    stays within proper states whenever ``a`` and ``b`` are proper.
    """
    start, goal = make_state(a, params), make_state(b, params)
    _, codes = _construct_codes(np.array([start]), np.array([goal]), params.r)
    return MovePath(start, tuple(INVOLUTE if c > params.r else Adjust(c) for c in codes.tolist()))


def verify_path(path: MovePath, params: HanoiParams) -> State:
    """Replay a path, returning the final state; only the current state is held.

    Raises :class:`IllegalMoveAt` naming the first illegal move (1-based), or
    an :class:`~dug.hanoi.InvalidState` error if the start itself is invalid.
    """
    for state in _walk(path, params):
        pass
    return state


def path_states(path: MovePath, params: HanoiParams) -> list[State]:
    """All states visited by a path, start included; validates every move."""
    return list(_walk(path, params))


def _walk(path: MovePath, params: HanoiParams) -> Iterator[State]:
    """Yield the start, validated, then the state after each move, raising at the first illegal one."""
    state = make_state(path.start, params)
    yield state
    for i, move in enumerate(path.moves, start=1):
        try:
            state = apply_move(state, move, params)
        except MoveError as exc:
            raise IllegalMoveAt(i, str(exc)) from exc
        yield state


def _construct_codes(a: np.ndarray, b: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Solver paths for the pairs of rows of ``a`` and ``b`` (p x k), as move codes.

    Returns ``(offsets, codes)``: row i's moves, in order, are
    ``codes[offsets[i]:offsets[i + 1]]``, c for the adjustment to c and r + 1
    for the involution.  Work, memory and indices follow the moves, not the
    2^k - 1 nodes of a full recursion tree.
    """
    # Recursion from the 2^k - 1 upper-bound proof.  Moves carry no positions,
    # so a path for the tails replays verbatim on the full states: tail
    # adjustments stay adjustments, and a tail involution's segment never
    # reaches position 1, because every intermediate first entry is x = a_1 or
    # y = b_1, neither of which is among the swapped values.  When x = y the
    # tails are the one sub-problem; otherwise walk a's tail to (y, x, ...),
    # flip (x, y, ...) to (y, x, ...) with one involution, and walk (x, y, ...)
    # on to b's tail.  A state is one integer, `bits` bits per entry, first
    # entry highest: int64 while k entries fit in 63 bits, Python ints past that.
    p, k = a.shape
    bits = r.bit_length()
    dtype = np.int64 if k * bits < 63 else object
    starts, goals = np.zeros((2, p), dtype=dtype)
    for a_i, b_i in zip(a.astype(dtype).T, b.astype(dtype).T):
        starts, goals = starts << bits | a_i, goals << bits | b_i
    # Down, one round of array operations per level: which sub-problems hold the
    # involution, and which children still differ (the next level, left ones first).
    levels = []
    for t in range(k - 1, 0, -1):  # the length of the tails
        x, y = starts >> bits * t, goals >> bits * t
        starts, goals = starts & (1 << bits * t) - 1, goals & (1 << bits * t) - 1
        even = sum(1 << bits * i for i in range(t - 1, -1, -2))
        odd = even >> bits  # (u, w, u, ...) of length t is u * even + w * odd
        move = x != y
        left, right = np.where(move, y * even + x * odd, goals), x * even + y * odd
        kept_left, kept_right = starts != left, move & (right != goals)
        levels.append((move, kept_left, kept_right))
        starts = np.concatenate([starts[kept_left], right[kept_right]])
        goals = np.concatenate([left[kept_left], goals[kept_right]])
    # Up: the moves under each sub-problem and its left child.  Down again: a
    # sub-problem whose moves start at o has its involution at o + (its left
    # child's moves), and its right child starts one past that.
    adjust = starts != goals  # the last level's sub-problems that differ
    size, lefts = adjust.astype(np.int64), []
    for move, kept_left, kept_right in reversed(levels):
        left, right = np.zeros((2, len(move)), dtype=np.int64)
        cut = np.count_nonzero(kept_left)
        left[kept_left], right[kept_right] = size[:cut], size[cut:]
        size = left + right + move
        lefts.append(left)
    offsets = np.concatenate([[0], np.cumsum(size)])
    codes = np.empty(offsets[-1], dtype=np.min_scalar_type(r + 1))
    at = offsets[:-1]
    for (move, kept_left, kept_right), left in zip(levels, reversed(lefts)):
        codes[(at + left)[move]] = r + 1
        at = np.concatenate([at[kept_left], (at + left + 1)[kept_right]])
    codes[at[adjust]] = goals[adjust]
    return offsets, codes


def _replay_codes(offsets: np.ndarray, codes: np.ndarray, starts: np.ndarray,
                  goals: np.ndarray, table: np.ndarray, first: np.ndarray) -> bool:
    """Replay the codes of :func:`_construct_codes` over vertex ids, a move of every row at a time.

    True when row i's codes are legal moves from vertex ``starts[i]``, keep
    its first entry at its start's or goal's, and lead to ``goals[i]``.
    ``table[v, c]`` is the vertex that code c leads to from v, -1 when it is
    illegal there, and ``first[v]`` is v's first entry.  No move function runs.
    """
    # Codes outside 0..r + 1 name no move (the table would read -1 from its end).
    if ((codes < 0) | (codes >= table.shape[1])).any():
        return False
    # Rows longest first, so the rows with a t-th move are a prefix.
    lengths = np.diff(offsets)
    order = np.argsort(-lengths, kind="stable")
    at, v = offsets[:-1][order], starts[order]
    visited = np.empty(codes.size, dtype=table.dtype)
    for t, m in enumerate(np.searchsorted(-lengths[order], -np.arange(lengths.max(initial=0)))):
        here = at[:m] + t
        v[:m] = visited[here] = table[v[:m], codes[here]]
    # Vertex -1 has first entry -1, no start's or goal's, so a walk that made
    # an illegal move fails here, whatever it read from the table after.
    firsts = np.append(first, -1)[visited]
    return bool(((firsts == np.repeat(first[starts], lengths))
                 | (firsts == np.repeat(first[goals], lengths))).all()
                and np.array_equal(v, goals[order]))


def format_move(move: Move) -> str:
    if isinstance(move, Adjust):
        return f"a{move.value}"
    return "i"


def parse_move(text: str) -> Move:
    if text == "i":
        return INVOLUTE
    if text.startswith("a"):
        try:
            return Adjust(int(text[1:]))
        except ValueError:
            pass
    raise ValueError(f"malformed move text {text!r}")


def format_path(moves) -> str:
    return " ".join(format_move(m) for m in moves)


def parse_path(text: str) -> tuple[Move, ...]:
    return tuple(parse_move(part) for part in text.split())

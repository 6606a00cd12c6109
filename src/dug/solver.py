"""Constructive solver for the Hanoi game, plus a move-path validator.

The solver builds a path of at most 2^k - 1 moves between any two states of
equal length.  It is not a shortest-path solver: paths are exactly the output
of the recursive construction, and only for pairs with disjoint support is the
length guaranteed minimal (where it necessarily equals 2^k - 1).

Move text form: ``a<value>`` for an adjustment, ``i`` for an involution; a
path is whitespace-separated moves, e.g. ``a3 i a0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


def _alternating(first: int, second: int, length: int) -> State:
    return ((first, second) * ((length + 1) // 2))[:length]


# Bounded so that a long-lived caller does not grow it without limit.  It holds
# the sub-paths that solve's calls share, not their top-level pairs: solving all
# 65 536 pairs of (4, 4) leaves 6 757 entries.
@lru_cache(maxsize=1 << 16)
def _construct(a: State, b: State) -> tuple[Move, ...]:
    # Recursion from the 2^k - 1 upper-bound proof.  Moves carry no positions,
    # so a solution for the length-(k-1) tails replays verbatim on the full
    # states: tail adjustments stay adjustments, and a tail involution's
    # segment never extends to position 1 because every intermediate first
    # entry is a_1 or b_1, neither of which is among the swapped values.
    k = len(a)
    if a == b:
        return ()
    if k == 1:
        return (Adjust(b[0]),)
    if a[0] == b[0]:
        return _construct(a[1:], b[1:])
    # Walk a to the alternating state (a_1, b_1, a_1, ...), flip it wholesale
    # to (b_1, a_1, b_1, ...) with one involution, then walk on to b.
    mid = _alternating(a[0], b[0], k)
    flipped = _alternating(b[0], a[0], k)
    return _construct(a[1:], mid[1:]) + (INVOLUTE,) + _construct(flipped[1:], b[1:])


def solve(a, b, params: HanoiParams) -> MovePath:
    """Path from ``a`` to ``b`` with at most 2^k - 1 moves.

    Every intermediate state has first entry a_1 or b_1; consequently the path
    stays within proper states whenever ``a`` and ``b`` are proper.
    """
    start = make_state(a, params)
    goal = make_state(b, params)
    return MovePath(start=start, moves=_construct.__wrapped__(start, goal))


def verify_path(path: MovePath, params: HanoiParams) -> State:
    """Replay a path, returning the final state.

    Raises :class:`IllegalMoveAt` naming the first illegal move (1-based), or
    an :class:`~dug.hanoi.InvalidState` error if the start itself is invalid.
    """
    return path_states(path, params)[-1]


def path_states(path: MovePath, params: HanoiParams) -> list[State]:
    """All states visited by a path, start included; validates every move."""
    state = make_state(path.start, params)
    states = [state]
    for i, move in enumerate(path.moves, start=1):
        try:
            state = apply_move(state, move, params)
        except MoveError as exc:
            raise IllegalMoveAt(i, str(exc)) from exc
        states.append(state)
    return states


def _construct_codes(a: np.ndarray, b: np.ndarray, r: int) -> np.ndarray:
    """:func:`_construct` for the pairs of rows of ``a`` and ``b`` (p x k), as move codes.

    Returns a (p, 2^k - 1) matrix with one slot per node of the recursion's
    binary tree, in order: -1 for an empty slot, c for the adjustment to c and
    r + 1 for the involution.  Row i's codes other than -1 are the moves of
    ``_construct(a[i], b[i])``.  Each level of the tree takes one round of
    array operations, over the sub-problems of all p pairs.
    """
    p, k = a.shape
    dtype = np.min_scalar_type(-r - 2)  # holds -1..r + 1
    codes = np.empty((p, 2**k - 1), dtype=dtype)
    # Level j's 2^j sub-problems per pair: (start, goal) rows of length k - j.
    starts, goals = a.astype(dtype)[:, None], b.astype(dtype)[:, None]
    for j in range(k):
        x, y = starts[..., :1], goals[..., :1]
        differ = x != y
        # Node i of level j sits at slot (2i + 1) 2^(k-1-j) - 1.
        codes[:, (1 << (k - 1 - j)) - 1::1 << (k - j)] = np.where(
            differ, y if j == k - 1 else r + 1, -1)[..., 0]
        # Node i's children are nodes 2i and 2i + 1 of the next level (empty
        # after the last).  First entries that differ split the pair at the
        # alternating states (x, y, x, ...) and (y, x, y, ...), whose tails are
        # the left goal and the right start; first entries that agree leave the
        # tails on the left and an empty pair on the right.
        nxt = np.broadcast_to(goals[:, :, None, 1:], (2, p, 2**j, 2, k - j - 1)).copy()
        nxt[0, :, :, 0] = starts[..., 1:]  # nxt: the next level's (starts, goals)
        for side, u, w in ((nxt[1, :, :, 0], y, x), (nxt[0, :, :, 1], x, y)):
            np.copyto(side[..., 0::2], u, where=differ)
            np.copyto(side[..., 1::2], w, where=differ)
        starts, goals = nxt.reshape(2, p, 2 ** (j + 1), k - j - 1)
    return codes


def _replay_codes(codes: np.ndarray, starts: np.ndarray, goals: np.ndarray,
                  table: np.ndarray, first: np.ndarray) -> bool:
    """Replay each row of a move-code matrix over vertex ids, a column at a time.

    True when every row's codes are legal moves from vertex ``starts[i]``,
    keep its first entry at its start's or goal's, and lead to ``goals[i]``.
    Codes are those of :func:`_construct_codes`; ``table[v, c]`` is the
    vertex that code c leads to from v, -1 when it is illegal there, and
    ``first[v]`` is v's first entry.  The replay calls no move function.
    """
    # A code outside -1..r + 1 is no move: r + 2 would index past the table,
    # and -2 would pass as an empty slot.
    if ((codes < -1) | (codes >= table.shape[1])).any():
        return False
    visited = np.empty(codes.shape[::-1], dtype=table.dtype)
    v = starts
    for c, row in zip(codes.T, visited):
        v = row[:] = np.where(c < 0, v, table[v, c])
    # Vertex -1 has first entry -1, no start's or goal's, so a walk that made
    # an illegal move fails here, whatever it read from the table after.
    firsts = np.append(first, -1)[visited]
    return bool(((firsts == first[starts]) | (firsts == first[goals])).all()
                and np.array_equal(v, goals))


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

"""Constructive solver for the Hanoi game, plus a move-path validator.

The solver builds a path of at most 2^k - 1 moves between any two states of
equal length.  It is not a shortest-path solver: paths are exactly the output
of the recursive construction, and only for pairs with disjoint support is the
length guaranteed minimal (where it necessarily equals 2^k - 1).

Move text form: ``a<value>`` for an adjustment, ``i`` for an involution; a
path is whitespace-separated moves, e.g. ``a3 i a0``.
"""

from __future__ import annotations

import itertools
import math
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


# Bounded so that a long-lived caller does not grow it without limit.  solve
# keeps no top-level pair: an exhaustive verify at (4, 4) needs 1 203 entries.
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
    return MovePath(start=start, moves=_solve_moves(start, goal))


def _solve_moves(a: State, b: State) -> tuple[Move, ...]:
    """The moves of :func:`solve`'s path between two states the caller has validated."""
    return _construct.__wrapped__(a, b)


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


# Moves replayed per block by _replay_walks, a walk counting one more than its
# moves: it bounds the block's paths and code arrays whatever the total count.
_BLOCK_MOVES = 1 << 17


def _blocks(walks):
    """Lists of consecutive walks, each closed once it holds _BLOCK_MOVES moves."""
    block, size = [], 0
    for walk in walks:
        block.append(walk)
        size += len(walk[2]) + 1
        if size >= _BLOCK_MOVES:
            yield block
            block, size = [], 0
    if block:
        yield block


def _replay_walks(walks, table: np.ndarray, first: np.ndarray, params: HanoiParams) -> bool:
    """Replay (start, goal, moves) walks over vertex ids, a block of walks in step.

    True when every walk's moves are legal, keep its first entry at its
    start's or goal's, and lead from its start to its goal.  A move is coded
    as its adjustment target, or r + 1 for the involution; ``table[v, code]``
    is the vertex it leads to from v, -1 when it is illegal there, and
    ``first[v]`` is v's first entry.  The replay calls no move function.
    """
    r1 = params.r + 1
    # first_of[-1] = -1 is no walk's first entry, so an illegal move fails that test.
    first_of = np.append(first, -1)
    for block in _blocks(walks):
        starts, goals, moves = zip(*block)
        counts = np.fromiter(map(len, moves), dtype=np.int64, count=len(moves))
        # NaN codes the involution, so that no adjustment target reads as one.
        codes = np.fromiter(
            (math.nan if m is INVOLUTE else m.value for m in itertools.chain.from_iterable(moves)),
            dtype=np.float64,
            count=int(counts.sum()),
        )
        # An adjustment outside 0..r is refused by apply_move from every state.
        if ((codes < 0) | (codes > params.r)).any():
            return False
        codes[np.isnan(codes)] = r1
        codes = codes.astype(np.min_scalar_type(r1))
        # Longest walks first, so the walks still moving at step t are a prefix.
        order = np.argsort(-counts, kind="stable")
        offsets = (np.cumsum(counts) - counts)[order]
        counts = counts[order]
        v = np.array(starts, dtype=np.int64)[order]
        goal = np.array(goals, dtype=np.int64)[order]
        fa, fb = first_of[v], first_of[goal]
        moving = np.searchsorted(-counts, -np.arange(counts[0]))  # walks longer than t
        for t, m in enumerate(moving.tolist()):
            v[:m] = table[v[:m], codes[offsets[:m] + t]]
            f = first_of[v[:m]]
            if ((f != fa[:m]) & (f != fb[:m])).any():
                return False
        if not np.array_equal(v, goal):
            return False
    return True


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

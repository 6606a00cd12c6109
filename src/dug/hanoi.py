"""Hanoi states, moves, and the implicit state graphs behind them.

A Hanoi state of length k over the alphabet {0, ..., r} is a sequence with no
two consecutive equal entries; a *proper* state additionally has a nonzero
first entry.  Two moves act on a state:

* an *adjustment* replaces the last entry with any other value that keeps the
  state valid;
* an *involution* takes the longest tail segment on which the last two values
  alternate and swaps those two values throughout the segment.

The state graph joins each state to every state reachable by one move.  With
all states allowed the graph is r-regular for k >= 2; restricting to proper
states forbids any move that would zero the first entry.

States are plain tuples of ints.  Positions are 1-based in documentation and
error messages (position 1 is the first entry); storage is 0-based.

A mode's value renamings live here alone: ``_fixed`` names the values they
keep, ``_orbit_index`` their orbits of states, ``_pair_orbits`` of state pairs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

State = tuple[int, ...]

#: Default ceiling on an explicit shape: its states and its graph's edges
#: (see :func:`_refuse_past_cap`), and on a loaded or blown-up graph's size.
DEFAULT_STATE_CAP = 1 << 26


class InvalidState(ValueError):
    """A sequence that is not a valid Hanoi state for the given parameters."""


class LengthMismatch(InvalidState):
    """Entry count differs from the required state length."""


class OutOfAlphabet(InvalidState):
    """An entry lies outside {0, ..., r}."""


class ConsecutiveEqual(InvalidState):
    """Two consecutive entries are equal."""


class ImproperLeadingZero(InvalidState):
    """A proper state may not start with 0."""


class MoveError(ValueError):
    """A move that cannot be applied to the given state."""


class TooShort(MoveError):
    """The state is too short for the requested operation."""


class IllegalAdjust(MoveError):
    """Adjustment target conflicts with the last entries (or 0 when proper, k=1)."""


class IllegalInvolute(MoveError):
    """Involution is undefined (k=1) or would zero the first entry of a proper state."""


class TooLarge(ValueError):
    """Explicit enumeration would exceed the configured cap."""


@dataclass(frozen=True)
class HanoiParams:
    """Parameters of a Hanoi state space: alphabet bound r, length k, properness."""

    r: int
    k: int
    proper: bool = False

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")

    def state_count(self) -> int:
        """Number of valid states: r^k proper, (r+1) * r^(k-1) otherwise."""
        if self.proper:
            return self.r**self.k
        return (self.r + 1) * self.r ** (self.k - 1)


@dataclass(frozen=True)
class Adjust:
    """Replace the last entry with ``value``."""

    value: int


@dataclass(frozen=True)
class Involute:
    """Swap the last two values throughout the longest alternating tail segment."""


INVOLUTE = Involute()

Move = Adjust | Involute


def make_state(entries, params: HanoiParams) -> State:
    """Validate ``entries`` as a Hanoi state under ``params`` and return it as a tuple.

    Never repairs input: any violation raises an :class:`InvalidState` subclass.
    """
    state = tuple(operator.index(e) for e in entries)
    if len(state) != params.k:
        raise LengthMismatch(f"expected {params.k} entries, got {len(state)}")
    for i, e in enumerate(state):
        if not 0 <= e <= params.r:
            raise OutOfAlphabet(f"entry {e} at position {i + 1} not in 0..{params.r}")
        if i > 0 and e == state[i - 1]:
            raise ConsecutiveEqual(f"equal entries {e} at positions {i}, {i + 1}")
    if params.proper and state[0] == 0:
        raise ImproperLeadingZero("proper state must not start with 0")
    return state


def _valid_rows(states: np.ndarray, params: HanoiParams) -> bool:
    """True when every row is a state ``make_state`` accepts under ``params``.

    Rows hold k integer entries in 0..r with no two consecutive equal, and a
    proper row does not start with 0.
    """
    return bool(
        states.dtype.kind in "iu"
        and states.shape[1] == params.k
        and ((states >= 0) & (states <= params.r)).all()
        and (states[:, 1:] != states[:, :-1]).all()
        and not (params.proper and (states[:, 0] == 0).any())
    )


def involution_segment(x: State) -> int:
    """Return the 1-based start j of the longest tail segment alternating in the last two values.

    Positions j..k all lie in {x_k, x_{k-1}}; alternation is automatic because
    consecutive entries of a valid state differ.  Always j <= k-1.
    """
    k = len(x)
    if k < 2:
        raise TooShort("involution segment needs a state of length >= 2")
    pair = (x[-1], x[-2])
    j = k - 1
    while j > 1 and x[j - 2] in pair:
        j -= 1
    return j


def apply_move(x: State, move: Move, params: HanoiParams) -> State:
    """Apply one move to a valid state, returning the new state.

    Raises :class:`IllegalAdjust` / :class:`IllegalInvolute` when the move is
    not available from ``x`` under ``params``.
    """
    k = len(x)
    if isinstance(move, Adjust):
        v = move.value
        if not 0 <= v <= params.r:
            raise IllegalAdjust(f"target {v} not in 0..{params.r}")
        if v == x[-1]:
            raise IllegalAdjust(f"target {v} equals the current last entry")
        if k > 1 and v == x[-2]:
            raise IllegalAdjust(f"target {v} equals the entry at position {k - 1}")
        if k == 1 and params.proper and v == 0:
            raise IllegalAdjust("adjustment to 0 forbidden at k=1 for proper states")
        return x[:-1] + (v,)
    if k < 2:
        raise IllegalInvolute("involution needs a state of length >= 2")
    j = involution_segment(x)
    a, b = x[-1], x[-2]
    swapped = x[: j - 1] + tuple(b if e == a else a for e in x[j - 1 :])
    if params.proper and swapped[0] == 0:
        raise IllegalInvolute("involution would set position 1 to 0 on a proper state")
    return swapped


def legal_moves(x: State, params: HanoiParams) -> list[Move]:
    """All moves applicable to ``x``: adjustments in ascending target order, then involution.

    For improper states with k >= 2 there are always exactly r moves
    (r-1 adjustments plus the involution), matching the r-regular state graph.
    """
    k = len(x)
    forbidden = {x[-1]}
    if k > 1:
        forbidden.add(x[-2])
    elif params.proper:
        forbidden.add(0)
    moves: list[Move] = [Adjust(v) for v in range(params.r + 1) if v not in forbidden]
    if k >= 2:
        try:
            apply_move(x, INVOLUTE, params)
        except IllegalInvolute:
            pass
        else:
            moves.append(INVOLUTE)
    return moves


def neighbors(x: State, params: HanoiParams) -> list[State]:
    """States one move away from ``x``.  Never contains ``x``; contains no duplicates."""
    return [apply_move(x, m, params) for m in legal_moves(x, params)]


def has_disjoint_support(a: State, b: State) -> bool:
    """True iff no value occurs in both states.  Such pairs force maximal game length."""
    if len(a) != len(b):
        raise LengthMismatch(f"states have lengths {len(a)} and {len(b)}")
    return not set(a) & set(b)


def enumerate_states(params: HanoiParams, cap: int = DEFAULT_STATE_CAP) -> list[State]:
    """All valid states in lexicographic order: the rows of :func:`state_matrix` as tuples.

    Raises :class:`TooLarge` when the state count exceeds ``cap``; the count is
    checked against the closed form before any enumeration happens.
    """
    return list(map(tuple, state_matrix(params, cap).tolist()))


def format_state(x: State) -> str:
    """Text form: comma-separated decimal entries, no spaces, e.g. ``1,2,3,4``."""
    return ",".join(map(str, x))


def parse_state(text: str) -> State:
    """Inverse of :func:`format_state`.  Syntactic only; validate with :func:`make_state`."""
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise InvalidState(f"malformed state text {text!r}") from exc


# ---------------------------------------------------------------------------
# Lexicographic index arithmetic.
#
# States are ranked by mixed-radix digits: the first entry has r (proper) or
# r+1 (improper) choices, every later entry has r choices (anything except its
# predecessor, in ascending value order).  digit_1 = x_1 - 1 (proper) or x_1;
# digit_i = x_i - [x_i > x_{i-1}] for i >= 2.  The rank in enumerate_states
# order is the big-endian value of the digit string.  With x_0 = 0 (proper)
# or r + 1 (improper) put before x_1, digit_1 follows the rule of the others:
# the vectorized code, the builder's move table included, uses that one rule.
# ---------------------------------------------------------------------------


def state_index(x: State, params: HanoiParams) -> int:
    """Rank of a valid state in :func:`enumerate_states` order."""
    r = params.r
    idx = x[0] - 1 if params.proper else x[0]
    for i in range(1, len(x)):
        d = x[i] - (1 if x[i] > x[i - 1] else 0)
        idx = idx * r + d
    return idx


def _refuse_past_cap(params: HanoiParams, cap: int) -> None:
    """Raise :class:`TooLarge` when the shape's states, or its graph's edges, exceed ``cap``.

    O(1), before anything is enumerated.  The graph is K_n at k = 1; above, it
    has at most n*r/2 edges, exactly that many when improper (r-regular), so
    only a proper count says "about".  :func:`state_matrix` checks the states alone.
    """
    n = params.state_count()
    if n > cap:
        raise TooLarge(f"{n} states exceed the cap of {cap}")
    m = n * (n - 1) // 2 if params.k == 1 else n * params.r // 2
    if m > cap:
        about = "about " if params.proper and params.k > 1 else ""
        raise TooLarge(f"{about}{m} edges exceed the cap of {cap}")


def state_matrix(params: HanoiParams, cap: int = DEFAULT_STATE_CAP) -> np.ndarray:
    """All valid states as an (n, k) int32 matrix, rows in lexicographic order."""
    n = params.state_count()
    if n > cap:
        raise TooLarge(f"{n} states exceed the cap of {cap}")
    r, k = params.r, params.k
    rem = np.arange(n, dtype=np.int64)
    out = np.empty((n, k), dtype=np.int32)
    prev = 0 if params.proper else r + 1  # x_0
    for i in range(k):
        digit, rem = np.divmod(rem, r ** (k - 1 - i))
        out[:, i] = digit + (digit >= prev)
        prev = out[:, i]
    return out


def _first_appearance(rows: np.ndarray, used: int) -> tuple[np.ndarray, np.ndarray]:
    """(relabeled, top): state rows with the values above ``used`` renamed in order of first appearance.

    The values 0..used keep their names; the others become used + 1,
    used + 2, ... in the order they first appear in the row.  A row is
    canonical when it equals its relabeling.  With used = :func:`_fixed` it
    is the canonical form of :func:`_orbit_index`; with used = w, that of
    a state following a canonical prefix that names 1..w.  ``top`` is each
    relabeled row's largest value, at least ``used``: for a proper row with
    used = 0, its count of distinct nonzero values.
    """
    out = rows.copy()
    top = np.full(len(rows), used, dtype=rows.dtype)
    for j, col in enumerate(rows.T):
        fresh = col > used
        for i in range(j):
            same = rows[:, i] == col
            np.copyto(out[:, j], out[:, i], where=same)
            fresh &= ~same
        top += fresh
        out[fresh, j] = top[fresh]
    return out, top


def _fixed(params: HanoiParams) -> int:
    """The largest value the mode's renamings keep: 0 proper, -1 (none) otherwise."""
    return 0 if params.proper else -1


def _orbit_index(states: np.ndarray, params: HanoiParams) -> np.ndarray:
    """Each state's class: the rank of its canonical form under the mode's value renamings.

    A mode renames the values 1..r of proper states (0 stays fixed) and all
    of 0..r otherwise, each renaming an automorphism of its state graph
    (Hinz et al., *The Tower of Hanoi -- Myths and Maths*, 2013).  The
    canonical form names those values in order of first appearance, so a
    state represents its orbit exactly when its class is its own rank.
    """
    canonical, _ = _first_appearance(states, _fixed(params))
    return encode_states(canonical, params)


def _renamings(params: HanoiParams) -> list[np.ndarray]:
    """Two value renamings that generate every renaming of the mode (see :func:`_fixed`).

    With lo the smallest value renamed, they are (lo lo+1) and the cycle
    lo -> lo+1 -> ... -> r -> lo; there are none for a single value.
    """
    lo = _fixed(params) + 1
    if params.r <= lo:
        return []
    swap = np.arange(params.r + 1)
    swap[[lo, lo + 1]] = lo + 1, lo
    cycle = np.arange(params.r + 1)
    cycle[lo:] = np.roll(cycle[lo:], -1)
    return [swap, cycle]


def _pair_orbits(states: np.ndarray, index: np.ndarray, params: HanoiParams,
                 cap: int = DEFAULT_STATE_CAP):
    """One ordered pair per orbit of the mode's value renamings, and the orbit's size.

    ``index`` is the :func:`_orbit_index` of the :func:`state_matrix` ``states``.
    (a, b) represents its orbit when a + b names the renamed values in order of
    first appearance.  Returns the canonical states (``sources``) and, for the
    representatives sorted by (a, b), the position of a in ``sources``, the
    vertex b and the orbit's size.  Raises :class:`TooLarge` when there are
    more than ``cap`` representatives, counted before any is listed.
    """
    fixed = _fixed(params)
    sources = np.flatnonzero(index == np.arange(len(index)))
    # A canonical state names fixed + 1..w, so w is its largest value, or fixed.
    used = states[sources].max(axis=1, initial=fixed).tolist()
    seconds = {}  # w: the b that follow a source naming w, and their orbit sizes
    for w in set(used):
        relabeled, top = _first_appearance(states, w)
        b = np.flatnonzero((relabeled == states).all(axis=1))
        # a + b uses m - fixed of the r - fixed renamed values, each image one pair.
        size = [math.perm(params.r - fixed, m - fixed) for m in range(int(top[b].max()) + 1)]
        seconds[w] = b, np.array(size, dtype=np.int64)[top[b]]
    count = sum(seconds[w][0].size for w in used)
    if count > cap:
        raise TooLarge(f"{count} state-pair orbits exceed the cap of {cap}")
    pair_b, sizes = (np.concatenate([seconds[w][i] for w in used]) for i in (0, 1))
    pair_a = np.repeat(np.arange(sources.size), [seconds[w][0].size for w in used])
    return sources, pair_a, pair_b, sizes


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D array by sort and compare.

    The first ``np.unique`` call in a process imports ``numpy.ma`` (about
    16 ms with numpy 2.4), which every dug command would pay.
    """
    out = np.sort(values)
    keep = np.ones(out.size, dtype=bool)
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


def encode_states(matrix: np.ndarray, params: HanoiParams) -> np.ndarray:
    """Vectorized :func:`state_index` over the rows of an (n, k) state matrix."""
    return _rank_columns(matrix.T, params)


def _rank_columns(columns, params: HanoiParams) -> np.ndarray:
    """int64 ranks of the states whose entries ``columns`` yields a position at a time."""
    rank = np.zeros(1, dtype=np.int64)  # broadcast over the rows, int64 under any promotion rule
    prev = 0 if params.proper else params.r + 1  # x_0
    for col in columns:
        rank = rank * params.r + (col - (col > prev))
        prev = col
    return rank


def _move_ranks(states: np.ndarray, params: HanoiParams) -> np.ndarray:
    """(n, r + 2) int32: ``table[v, c]`` is the rank of state v after move c, -1 where illegal.

    ``states`` is a :func:`state_matrix`; code c <= r is the adjustment to c and
    r + 1 the involution, as in the verify suite's table, which applies
    :func:`apply_move` state by state where this one computes on ranks.
    """
    (n, k), r = states.shape, params.r
    last = states[:, -1]
    # At k = 1, x_0 stands in for the entry before the last: it forbids the
    # adjustment to 0 of a proper state, and r + 1 forbids none.
    prev = states[:, -2] if k > 1 else np.full(n, 0 if params.proper else r + 1, states.dtype)
    table = np.empty((n, r + 2), dtype=np.int32)
    # An adjustment to c keeps the prefix and makes the last digit c - [c > prev].
    targets = np.arange(r + 1, dtype=np.int32)
    np.add((np.arange(n, dtype=np.int32) - (last - (last > prev)))[:, None], targets,
           out=table[:, :-1])
    table[:, :-1] -= targets > prev[:, None]
    rows = np.arange(n)
    table[rows, last] = table[rows, prev] = table[:, -1] = -1
    if k == 1:
        return table
    # The involution swaps last and prev from position `start` on, the longest
    # tail whose entries are all one of the two.
    start = np.full(n, k - 2)
    inside = np.ones(n, dtype=bool)
    for col in range(k - 3, -1, -1):
        inside &= (states[:, col] == last) | (states[:, col] == prev)
        start -= inside
    pair = last + prev
    table[:, -1] = _rank_columns(
        (np.where(start <= i, pair - col, col) for i, col in enumerate(states.T)), params)
    if params.proper:  # no involution may zero the first entry
        table[(start == 0) & (states[:, 0] == pair), -1] = -1
    return table

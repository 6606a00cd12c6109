"""Shared oracle helpers: pure-dict adjacency and BFS, independent of the library's
CSR structures and its bit-parallel distance scan, so production distance
machinery is checked against a second route everywhere it matters; the scalar
solver recursion that the array construction of ``dug.solver`` is checked
against; and a tracemalloc probe for memory bounds."""

from __future__ import annotations

import tracemalloc
from collections import deque
from functools import lru_cache

from dug import INVOLUTE, Adjust, HanoiParams, Move, State, enumerate_states, neighbors


def move_adjacency(params: HanoiParams) -> dict[State, list[State]]:
    """Adjacency of the state graph straight from the move rules."""
    return {s: neighbors(s, params) for s in enumerate_states(params)}


def oracle_distances(adj: dict, source) -> dict:
    """Plain dict/deque BFS; unreachable states are absent from the result."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        dv = dist[v] + 1
        for w in adj[v]:
            if w not in dist:
                dist[w] = dv
                queue.append(w)
    return dist


def oracle_all_pairs(adj: dict) -> dict:
    return {s: oracle_distances(adj, s) for s in adj}


def alternating(first: int, second: int, length: int) -> State:
    return ((first, second) * ((length + 1) // 2))[:length]


@lru_cache(maxsize=1 << 16)
def scalar_construct(a: State, b: State) -> tuple[Move, ...]:
    """The solver path from a to b, one recursion call per sub-problem.

    Recursion from the 2^k - 1 upper-bound proof: tails whose first entries
    agree are solved alone; otherwise walk a to (a_1, b_1, a_1, ...), flip it
    to (b_1, a_1, b_1, ...) with one involution, and walk on to b.  Sub-paths
    repeat across pairs, so a bounded cache keeps them.
    """
    k = len(a)
    if a == b:
        return ()
    if k == 1:
        return (Adjust(b[0]),)
    if a[0] == b[0]:
        return scalar_construct(a[1:], b[1:])
    mid = alternating(a[0], b[0], k)
    flipped = alternating(b[0], a[0], k)
    return (scalar_construct(a[1:], mid[1:]) + (INVOLUTE,)
            + scalar_construct(flipped[1:], b[1:]))


def traced_peak(run) -> int:
    """Bytes that tracemalloc sees allocated at the peak of run(), beyond those live before."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()

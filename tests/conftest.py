"""Shared oracle helpers: pure-dict adjacency and BFS, independent of the library's
CSR structures and its bit-parallel distance scan, so production distance
machinery is checked against a second route everywhere it matters; and a
tracemalloc probe for memory bounds."""

from __future__ import annotations

import tracemalloc
from collections import deque

from dug import HanoiParams, State, enumerate_states, neighbors


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

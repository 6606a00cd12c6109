"""Combinatorial corner truncation and its certified match with Hanoi graphs.

Truncating a graph replaces each vertex x by one new vertex per incident edge
(the ordered pair (x, y) for each neighbor y), then joins (x, y)--(y, x) for
every old edge ("partner" edges) and (x, y)--(x, z) for every two distinct
neighbors y, z of x ("sibling" edges).  This is the 1-skeleton effect of
slicing the corners off a simplex-like polytope, kept purely combinatorial:
no coordinates, no convex hulls.

Starting from the complete graph on r+1 labeled points and truncating k-1
times yields a graph whose vertices are canonically labeled by all length-k
Hanoi states over {0..r}, sibling edges matching adjustments and partner
edges matching involutions (Hinz et al., *The Tower of Hanoi -- Myths and
Maths*, 2013).  verify_isomorphism certifies that labeling against
build_explicit, the graph the verify suite certifies against the move rules
(the suite hands its certified graph to the same certificate).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import ExplicitGraph, _maps_edges_onto, build_explicit
from .hanoi import (
    DEFAULT_STATE_CAP,
    HanoiParams,
    State,
    TooLarge,
    encode_states,
    format_state,
    make_state,
)


class EmptyGraph(ValueError):
    """Truncation needs at least one edge."""


class WrongShape(ValueError):
    """Labeled graph does not match the given Hanoi parameters."""


@dataclass(frozen=True)
class LabeledGraph:
    """A graph whose vertices carry distinct Hanoi states of uniform length."""

    graph: ExplicitGraph
    states: tuple[State, ...]
    r: int

    def __post_init__(self) -> None:
        if len(self.states) != self.graph.n:
            raise ValueError("one state per vertex required")
        if len(set(self.states)) != len(self.states):
            raise ValueError("states are not distinct")
        params = HanoiParams(self.r, self.k, proper=False)
        for s in self.states:
            make_state(s, params)

    @property
    def k(self) -> int:
        return len(self.states[0])


def base_simplex(r: int, cap: int = DEFAULT_STATE_CAP) -> LabeledGraph:
    """K_{r+1} with vertex i labeled by the length-1 state (i): the Hanoi graph at k = 1."""
    graph = build_explicit(HanoiParams(r, 1), cap)
    return LabeledGraph(graph=graph, states=tuple((i,) for i in range(r + 1)), r=r)


def truncate_once(t: LabeledGraph) -> LabeledGraph:
    """One truncation step; new vertex e is CSR entry e, (x, y), labeled x plus y's last entry."""
    g = t.graph
    if g.m == 0:
        raise EmptyGraph("cannot truncate a graph with no edges")
    x = np.repeat(np.arange(g.n, dtype=np.int64), g.degrees())
    y = g.indices.astype(np.int64)
    # Entries are sorted by x * n + y, so the partner (y, x) is a binary search away.
    keys = x * g.n + y
    ids = np.arange(keys.size)
    up = ids[x < y]
    partners = np.column_stack([up, np.searchsorted(keys, y[up] * g.n + x[up])])
    # Siblings: each entry with every later entry of its row.
    later = g.indptr[x + 1] - ids - 1
    first = np.repeat(ids, later)
    second = first + 1 + np.arange(first.size) - np.repeat(np.cumsum(later) - later, later)
    S = np.array(t.states)
    states = tuple(map(tuple, np.column_stack([S[x], S[y, -1]]).tolist()))
    edges = np.concatenate([partners, np.column_stack([first, second])])
    graph = ExplicitGraph.from_edges(keys.size, edges, map(format_state, states))
    return LabeledGraph(graph=graph, states=states, r=t.r)


def iterate_truncation(r: int, k: int, cap: int = DEFAULT_STATE_CAP) -> LabeledGraph:
    """k-1 truncations of K_{r+1}: (r+1) * r^(k-1) vertices of degree r, one per length-k state."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    count = (r + 1) * r ** (k - 1)
    if count > cap:
        raise TooLarge(f"{count} vertices exceed the cap of {cap}")
    if count * r // 2 > cap:
        raise TooLarge(f"{count * r // 2} edges exceed the cap of {cap}")
    t = base_simplex(r, cap)
    for _ in range(k - 1):
        t = truncate_once(t)
    return t


def verify_isomorphism(t: LabeledGraph, params: HanoiParams) -> bool:
    """Certify the canonical label map of a truncation against the Hanoi graph.

    True iff the labels are exactly the full state set and renaming each
    vertex to its state's rank maps the edges onto those of
    ``build_explicit(params)``, which the verify suite certifies against the
    move rules in the same run.  Uses only the canonical labels, never
    isomorphism search.
    """
    if params.proper:
        raise WrongShape("truncations are labeled by the full state set, not proper states")
    if params.r != t.r or params.k != t.k:
        raise WrongShape(
            f"labels have (r, k) = ({t.r}, {t.k}), params say ({params.r}, {params.k})"
        )
    return _certify(t, build_explicit(params))


def _certify(t: LabeledGraph, graph: ExplicitGraph) -> bool:
    """True iff renaming each vertex of ``t`` to its state's rank maps its edges onto ``graph``'s.

    ``graph`` stands for the improper Hanoi graph of ``t``'s (r, k), vertices
    numbered by rank; the verify suite passes the one it has just certified.
    """
    ranks = encode_states(np.array(t.states), HanoiParams(t.r, t.k, proper=False))
    return _maps_edges_onto(ranks, t.graph.edge_array(), graph.edge_array(), graph.n)

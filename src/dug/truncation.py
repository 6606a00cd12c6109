"""Combinatorial corner truncation and its certified match with Hanoi graphs.

Truncating a graph replaces each vertex x by one new vertex per incident edge
(the ordered pair (x, y) for each neighbor y), then joins (x, y)--(y, x) for
every old edge ("partner" edges) and (x, y)--(x, z) for every two distinct
neighbors y, z of x ("sibling" edges).  This is the 1-skeleton effect of
slicing the corners off a simplex-like polytope, kept purely combinatorial:
no coordinates, no convex hulls.  truncate_once writes the new CSR straight
from the old one: vertex (x, y) is the old CSR entry, its partner comes from
one stable argsort of the old column indices, and each row comes out sorted,
so no edge list is built or sorted (about 20 bytes per edge at r = 64).  The
states stay one int32 matrix; the new graph has no labels, and ``dug
truncate`` forms the label text only when it writes the file.

Starting from the complete graph on r+1 labeled points and truncating k-1
times yields a graph whose vertices are canonically labeled by all length-k
Hanoi states over {0..r}, sibling edges matching adjustments and partner
edges matching involutions (Hinz et al., *The Tower of Hanoi -- Myths and
Maths*, 2013).  verify_isomorphism certifies that labeling against
build_explicit, the graph the verify suite certifies against the move rules
(the suite hands its certified graph to the same certificate).  Both graphs
are r-regular CSRs with sorted rows, so the certificate renames each row of
the truncation to state ranks, sorts it, and compares the rows at each rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import ExplicitGraph, build_explicit
from .hanoi import (
    DEFAULT_STATE_CAP,
    HanoiParams,
    _refuse_past_cap,
    _valid_rows,
    encode_states,
)


class EmptyGraph(ValueError):
    """Truncation needs at least one edge."""


class WrongShape(ValueError):
    """Labeled graph does not match the given Hanoi parameters."""


@dataclass(frozen=True, eq=False)
class LabeledGraph:
    """A graph whose vertices carry distinct Hanoi states of uniform length.

    ``states`` is a read-only (n, k) int32 matrix whose row v is vertex v's
    state; any (n, k) integer array-like is accepted.  An int32 array that
    owns its data is adopted and frozen, not copied, as ExplicitGraph does
    with its CSR arrays; a view is copied first.  Equality compares the
    graph, r and the states' values; instances are not hashable.
    """

    graph: ExplicitGraph
    states: np.ndarray
    r: int

    def __post_init__(self) -> None:
        S = np.asarray(self.states)
        if len(S) != self.graph.n:
            raise ValueError("one state per vertex required")
        if not len(S):
            raise ValueError("a labeled graph needs at least one vertex")
        params = HanoiParams(self.r, S.shape[-1])
        if S.ndim != 2 or not _valid_rows(S, params):
            raise ValueError(f"states are not Hanoi states of one length over 0..{self.r}")
        if S.max() > np.iinfo(np.int32).max:
            raise ValueError("state entries must fit in int32")
        S = S.astype(np.int32, copy=False)
        if S.base is not None:
            S = S.copy()
        T = S[np.lexsort(S.T)]
        if (T[1:] == T[:-1]).all(1).any():
            raise ValueError("states are not distinct")
        S.setflags(write=False)
        object.__setattr__(self, "states", S)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return (self.graph == other.graph and self.r == other.r
                and np.array_equal(self.states, other.states))

    @property
    def k(self) -> int:
        return self.states.shape[1]


def base_simplex(r: int, cap: int = DEFAULT_STATE_CAP) -> LabeledGraph:
    """K_{r+1} with vertex i labeled by the length-1 state (i): the Hanoi graph at k = 1."""
    graph = build_explicit(HanoiParams(r, 1), cap)
    return LabeledGraph(graph=graph, states=np.arange(r + 1)[:, None], r=r)


def truncate_once(t: LabeledGraph) -> LabeledGraph:
    """One truncation step; new vertex e is CSR entry e, (x, y), with state x plus y's last entry.

    Row e is written straight from the parent's CSR, with no edge list and no
    sort: the rest of row x in ascending order, and the partner (y, x) first
    or last.  The states are gathered as one int32 matrix and the new graph
    has no labels.  ``iterate_truncation(64, 2)`` peaks at about 20 traced
    bytes per edge and ``iterate_truncation(2, 14)`` at about 200, where the
    k-entry state rows outweigh the CSR.
    """
    g = t.graph
    if g.m == 0:
        raise EmptyGraph("cannot truncate a graph with no edges")
    n = g.indices.size
    x = np.repeat(np.arange(g.n, dtype=np.int32), g.degrees())
    # The entries into y, taken in increasing x, are in the order of row y's own entries.
    partner = np.empty(n, dtype=np.int32)
    partner[np.argsort(g.indices, kind="stable")] = np.arange(n, dtype=np.int32)
    start, degree = g.indptr[x], g.degrees()[x]
    indptr = np.append(0, np.cumsum(degree))
    # The partner lies outside row x: first when it precedes row x, last otherwise.  Row e is
    # a ramp from low = start - first, plus one from e on (skipping e), then the partner's slot.
    first = partner < start
    low = start - first
    rows = np.ones(indptr[-1], dtype=np.int32)
    rows[indptr[:-1]] = low - np.append(0, low[:-1] + degree[:-1] - 1)
    np.cumsum(rows, out=rows)
    rows += rows >= np.repeat(np.arange(n, dtype=np.int32), degree)
    rows[np.where(first, indptr[:-1], indptr[1:] - 1)] = partner
    states = np.column_stack([t.states[x], t.states[g.indices, -1]])
    return LabeledGraph(graph=ExplicitGraph(n, indptr, rows, None), states=states, r=t.r)


def iterate_truncation(r: int, k: int, cap: int = DEFAULT_STATE_CAP) -> LabeledGraph:
    """k-1 truncations of K_{r+1}: (r+1) * r^(k-1) vertices of degree r, one per length-k state.

    Sized, before anything is built, as the improper Hanoi graph (hanoi._refuse_past_cap).
    """
    _refuse_past_cap(HanoiParams(r, k), cap)
    t = base_simplex(r, cap)
    for _ in range(k - 1):
        t = truncate_once(t)
    return t


def verify_isomorphism(t: LabeledGraph, params: HanoiParams) -> bool:
    """Certify the canonical label map of a truncation against the Hanoi graph.

    True iff the labels are exactly the full state set and renaming each
    vertex to its state's rank turns its neighbor rows into those of
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
    Both graphs must have the same n and every degree r, and the ranks must
    permute 0..n-1.  Then each row of ``t``, renamed to ranks and sorted,
    must be ``graph``'s row at its vertex's rank.
    """
    n, r = graph.n, t.r
    if t.graph.n != n or (t.graph.degrees() != r).any() or (graph.degrees() != r).any():
        return False
    ranks = encode_states(t.states, HanoiParams(r, t.k, proper=False)).astype(np.int32)
    if not np.array_equal(np.sort(ranks), np.arange(n)):
        return False
    rows = np.empty((n, r), dtype=np.int32)
    rows[ranks] = ranks[t.graph.indices].reshape(n, r)
    rows.sort(axis=1)
    return np.array_equal(rows.reshape(-1), graph.indices)

from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dug import (
    INVOLUTE,
    EmptyGraph,
    ExplicitGraph,
    HanoiParams,
    LabeledGraph,
    TooLarge,
    WrongShape,
    apply_move,
    base_simplex,
    enumerate_states,
    format_state,
    iterate_truncation,
    truncate_once,
    build_explicit,
    verify_isomorphism,
)
from dug.truncation import _certify


def reference_truncate_once(t: LabeledGraph) -> LabeledGraph:
    """truncate_once as a loop: a dict of ordered pairs and combinations of each neighbour list."""
    g = t.graph
    pairs = [(u, int(w)) for u in range(g.n) for w in g.neighbors_of(u)]
    pair_id = {p: i for i, p in enumerate(pairs)}
    edges = [(pair_id[(u, w)], pair_id[(w, u)]) for u, w in pairs if u < w]
    for u in range(g.n):
        nbrs = [int(w) for w in g.neighbors_of(u)]
        edges += [(pair_id[(u, y)], pair_id[(u, z)]) for y, z in combinations(nbrs, 2)]
    states = tuple(t.states[u] + (t.states[w][-1],) for u, w in pairs)
    graph = ExplicitGraph.from_edges(len(pairs), edges, [format_state(s) for s in states])
    return LabeledGraph(graph=graph, states=states, r=t.r)


def labeled(n, edges):
    """A graph on n vertices labeled by the length-1 states (0,) .. (n-1,), r = n - 1."""
    states = tuple((i,) for i in range(n))
    g = ExplicitGraph.from_edges(n, edges, [format_state(s) for s in states])
    return LabeledGraph(g, states, r=n - 1)


@st.composite
def labeled_graphs(draw):
    n = draw(st.integers(2, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    return labeled(n, edges)


class TestBaseSimplex:
    def test_triangle(self):
        t = base_simplex(2)
        assert t.graph.n == 3 and t.graph.m == 3
        assert t.states == ((0,), (1,), (2,))

    def test_k4(self):
        t = base_simplex(3)
        assert t.graph.n == 4
        assert (t.graph.degrees() == 3).all()

    @pytest.mark.parametrize("r", [1, 2, 5])
    def test_vertex_count(self, r):
        assert base_simplex(r).graph.n == r + 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            base_simplex(0)


class TestTruncateOnce:
    def test_truncated_tetrahedron(self):
        t = truncate_once(base_simplex(3))
        assert t.graph.n == 12
        assert (t.graph.degrees() == 3).all()
        assert t.graph.m == 18

    def test_vertex_count_doubles_edges(self):
        for r in (2, 3, 4):
            t0 = base_simplex(r)
            t1 = truncate_once(t0)
            assert t1.graph.n == 2 * t0.graph.m

    def test_degree_inherited_from_old_vertex(self):
        # irregular base: a path labeled by length-1 states
        g = ExplicitGraph.from_edges(3, [(0, 1), (1, 2)], labels=["0", "1", "2"])
        t = truncate_once(LabeledGraph(g, ((0,), (1,), (2,)), r=2))
        assert t.graph.n == 4
        # pairs in order: (0,1), (1,0), (1,2), (2,1); degree = deg of first coordinate
        assert t.graph.degrees().tolist() == [1, 2, 2, 1]

    def test_empty(self):
        g = ExplicitGraph.from_edges(1, [], labels=["0"])
        with pytest.raises(EmptyGraph):
            truncate_once(LabeledGraph(g, ((0,),), r=1))

    @pytest.mark.parametrize("n,edges", [
        (5, [(0, 1), (1, 2), (2, 3), (3, 4)]),  # path
        (5, [(0, 1), (0, 2), (0, 3), (0, 4)]),  # star
        (5, [(0, 1), (1, 2), (0, 2), (2, 4)]),  # vertex 3 isolated
    ], ids=["path", "star", "isolated"])
    def test_matches_reference(self, n, edges):
        t = labeled(n, edges)
        for _ in range(2):
            want = reference_truncate_once(t)
            t = truncate_once(t)
            assert t == want

    @settings(max_examples=100, deadline=None)
    @given(labeled_graphs())
    def test_matches_reference_on_random_graphs(self, t):
        assert truncate_once(t) == reference_truncate_once(t)

    def test_partner_is_perfect_matching(self):
        t0 = iterate_truncation(3, 2)
        t1 = truncate_once(t0)
        # reconstruct the ordered-pair layout the same way truncate_once does
        pairs = [
            (u, int(w)) for u in range(t0.graph.n) for w in t0.graph.neighbors_of(u)
        ]
        pid = {pw: i for i, pw in enumerate(pairs)}
        for i, (u, w) in enumerate(pairs):
            partners = [
                j for j in map(int, t1.graph.neighbors_of(i)) if pairs[j] == (w, u)
            ]
            assert partners == [pid[(w, u)]]


class TestIterate:
    def test_counts_and_regularity(self):
        for r in range(1, 7):
            for k in range(1, 5):
                t = iterate_truncation(r, k)
                assert t.graph.n == (r + 1) * r ** (k - 1)
                assert (t.graph.degrees() == r).all()

    def test_base_case_labels(self):
        t = iterate_truncation(3, 1)
        assert sorted(t.states) == enumerate_states(HanoiParams(3, 1))

    def test_known_instances(self):
        assert iterate_truncation(3, 2).graph.n == 12
        t = iterate_truncation(4, 3)
        assert t.graph.n == 80
        assert (t.graph.degrees() == 4).all()

    def test_cap(self):
        with pytest.raises(TooLarge):
            iterate_truncation(6, 4, cap=100)

    def test_edge_cap(self):
        # 72 vertices are within the cap, their 288 edges are not
        with pytest.raises(TooLarge, match="^288 edges exceed the cap of 100$"):
            iterate_truncation(8, 2, cap=100)
        with pytest.raises(TooLarge, match="^288 edges exceed the cap of 287$"):
            iterate_truncation(8, 2, cap=287)
        assert iterate_truncation(8, 2, cap=288).graph.m == 288


class TestIsomorphism:
    @pytest.mark.parametrize("r,k", [(1, 3), (2, 2), (3, 2), (4, 3), (5, 3), (6, 4)])
    def test_true_on_truncations(self, r, k):
        assert verify_isomorphism(iterate_truncation(r, k), HanoiParams(r, k))

    def test_edge_classification(self):
        # sibling edges are adjustments (same prefix), partner edges are involutions
        t = iterate_truncation(4, 3)
        params = HanoiParams(4, 3)
        for u in range(t.graph.n):
            su = t.states[u]
            for w in map(int, t.graph.neighbors_of(u)):
                if u < w:
                    sw = t.states[w]
                    if su[:-1] == sw[:-1]:
                        assert su[-1] != sw[-1]  # adjustment edge
                    else:
                        assert apply_move(su, INVOLUTE, params) == sw

    def test_wrong_shape(self):
        t = iterate_truncation(3, 2)
        with pytest.raises(WrongShape):
            verify_isomorphism(t, HanoiParams(3, 2, proper=True))
        with pytest.raises(WrongShape):
            verify_isomorphism(t, HanoiParams(4, 2))
        with pytest.raises(WrongShape):
            verify_isomorphism(t, HanoiParams(3, 3))

    def test_rewired_edge_detected(self):
        t = iterate_truncation(3, 2)
        edges = list(t.graph.edges())
        # swap endpoints across two edges, keeping the graph simple and 3-regular
        swapped = None
        for i in range(len(edges)):
            for j in range(i + 1, len(edges)):
                (a, b), (c, d) = edges[i], edges[j]
                if len({a, b, c, d}) < 4:
                    continue
                e1 = (min(a, c), max(a, c))
                e2 = (min(b, d), max(b, d))
                if e1 in edges or e2 in edges or e1 == e2:
                    continue
                swapped = [e for idx, e in enumerate(edges) if idx not in (i, j)]
                swapped += [e1, e2]
                break
            if swapped:
                break
        assert swapped is not None
        g = ExplicitGraph.from_edges(t.graph.n, swapped, t.graph.labels)
        rewired = LabeledGraph(g, t.states, r=t.r)
        assert not verify_isomorphism(rewired, HanoiParams(3, 2))

    def test_swapped_labels_detected(self):
        t = iterate_truncation(3, 3)
        states = list(t.states)
        states[0], states[1] = states[1], states[0]
        swapped = LabeledGraph(t.graph, tuple(states), r=t.r)
        assert not verify_isomorphism(swapped, HanoiParams(3, 3))

    def test_consistent_renumbering_passes(self):
        # Vertex v becomes order[v]; its state and its edges move with it.
        t = iterate_truncation(3, 3)
        order = np.random.default_rng(5).permutation(t.graph.n)
        states = [None] * t.graph.n
        for v, s in enumerate(t.states):
            states[order[v]] = s
        g = ExplicitGraph.from_edges(t.graph.n, order[t.graph.edge_array()],
                                     [format_state(s) for s in states])
        moved = LabeledGraph(g, tuple(states), r=t.r)
        assert verify_isomorphism(moved, HanoiParams(3, 3))
        assert _certify(moved, build_explicit(HanoiParams(3, 3)))

    def test_some_of_the_states_fail(self):
        # The subgraph on all but the last vertex: distinct valid states, too few of them.
        t = iterate_truncation(3, 2)
        n = t.graph.n - 1
        edges = [(u, v) for u, v in t.graph.edges() if v < n]
        g = ExplicitGraph.from_edges(n, edges, t.graph.labels[:n])
        part = LabeledGraph(g, t.states[:n], r=t.r)
        assert not verify_isomorphism(part, HanoiParams(3, 2))

    def test_missing_edge_fails(self):
        t = iterate_truncation(3, 2)
        g = ExplicitGraph.from_edges(t.graph.n, t.graph.edge_array()[1:], t.graph.labels)
        assert not verify_isomorphism(LabeledGraph(g, t.states, r=t.r), HanoiParams(3, 2))
        # Nor does a full truncation match a reference with an edge missing.
        want = build_explicit(HanoiParams(3, 2))
        assert not _certify(t, ExplicitGraph.from_edges(want.n, want.edge_array()[1:]))

    def test_repeated_state_fails_the_permutation_guard(self):
        # LabeledGraph refuses repeated states; _certify must not rely on that.
        t = iterate_truncation(2, 2)
        states = (t.states[1],) + t.states[1:]
        fake = SimpleNamespace(graph=t.graph, states=states, r=t.r, k=t.k)
        assert not _certify(fake, build_explicit(HanoiParams(2, 2)))

    def test_labeled_graph_validation(self):
        g = ExplicitGraph.from_edges(2, [(0, 1)], labels=["0", "1"])
        with pytest.raises(ValueError):
            LabeledGraph(g, ((0,),), r=1)  # wrong count
        with pytest.raises(ValueError):
            LabeledGraph(g, ((0,), (0,)), r=1)  # duplicate states

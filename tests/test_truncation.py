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
    InvalidState,
    LabeledGraph,
    TooLarge,
    WrongShape,
    apply_move,
    base_simplex,
    enumerate_states,
    format_state,
    iterate_truncation,
    make_state,
    save_edge_list,
    truncate_once,
    build_explicit,
    verify_isomorphism,
)
from dug.cli import cli_dispatch
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
    states = [tuple(t.states[u]) + (t.states[w][-1],) for u, w in pairs]
    graph = ExplicitGraph.from_edges(len(pairs), edges)
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
        assert np.array_equal(t.states, [[0], [1], [2]])

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

    @pytest.mark.parametrize("n,edges,steps", [
        (5, [(0, 1), (1, 2), (2, 3), (3, 4)], 2),  # path
        (5, [(0, 1), (0, 2), (0, 3), (0, 4)], 2),  # star
        (5, [(0, 1), (1, 2), (0, 2), (2, 4)], 2),  # vertex 3 isolated
        # K_{r+1} truncated as iterate_truncation does, to (r, k) = (2, 5), (3, 5) and (4, 4)
        (3, list(combinations(range(3), 2)), 4),
        (4, list(combinations(range(4), 2)), 4),
        (5, list(combinations(range(5), 2)), 3),
    ], ids=["path", "star", "isolated", "K3", "K4", "K5"])
    def test_matches_reference(self, n, edges, steps):
        t = labeled(n, edges)
        for _ in range(steps):
            want = reference_truncate_once(t)
            t = truncate_once(t)
            assert t == want

    @pytest.mark.parametrize("states,edges,message", [
        # (0,1)'s entries into (2,3) and (0,3) would both be labeled 0,1,3
        (((0, 1), (2, 3), (0, 3)), [(0, 1), (0, 2)], "^states are not distinct$"),
        # (0,2)'s entry into (1,2) would be labeled 0,2,2
        (((0, 2), (1, 2)), [(0, 1)], "^states are not Hanoi states of one length over 0..3$"),
    ], ids=["repeated", "consecutive-equal"])
    def test_refuses_invalid_labels(self, states, edges, message):
        g = ExplicitGraph.from_edges(len(states), edges, [format_state(s) for s in states])
        with pytest.raises(ValueError, match=message):
            truncate_once(LabeledGraph(g, states, r=3))

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
        assert sorted(map(tuple, t.states.tolist())) == enumerate_states(HanoiParams(3, 1))

    def test_known_instances(self):
        assert iterate_truncation(3, 2).graph.n == 12
        t = iterate_truncation(4, 3)
        assert t.graph.n == 80
        assert (t.graph.degrees() == 4).all()

    def test_cap(self):
        with pytest.raises(TooLarge):
            iterate_truncation(6, 4, cap=100)

    def test_invalid(self):
        with pytest.raises(ValueError, match="^k must be >= 1, got 0$"):
            iterate_truncation(3, 0)
        with pytest.raises(ValueError, match="^r must be >= 1, got 0$"):
            iterate_truncation(0, 2)

    @pytest.mark.parametrize("r,k", [(3, 2), (4, 3), (2, 6)])
    def test_cli_file_matches_the_reference_chain(self, tmp_path, capsys, r, k):
        # The reference chain from K_{r+1}, labeled with format_state, written by save_edge_list.
        want = labeled(r + 1, list(combinations(range(r + 1), 2)))
        for _ in range(k - 1):
            want = reference_truncate_once(want)
        labels = [format_state(s) for s in want.states.tolist()]
        save_edge_list(ExplicitGraph.from_edges(want.graph.n, want.graph.edge_array(), labels),
                       tmp_path / "want.dug")
        assert cli_dispatch(["truncate", "--r", str(r), "--k", str(k),
                             "--out", str(tmp_path / "got.dug")]) == 0
        capsys.readouterr()
        assert (tmp_path / "got.dug").read_bytes() == (tmp_path / "want.dug").read_bytes()
        # In memory the truncation holds no label text, only the read-only state matrix.
        t = iterate_truncation(r, k)
        assert t.graph.labels is None
        assert t.states.dtype == np.int32 and t.states.shape == (t.graph.n, k)
        assert not t.states.flags.writeable

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
        states = list(map(tuple, t.states.tolist()))
        for u in range(t.graph.n):
            su = states[u]
            for w in map(int, t.graph.neighbors_of(u)):
                if u < w:
                    sw = states[w]
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
        states = t.states.copy()
        states[[0, 1]] = states[[1, 0]]
        swapped = LabeledGraph(t.graph, states, r=t.r)
        assert not verify_isomorphism(swapped, HanoiParams(3, 3))

    def test_consistent_renumbering_passes(self):
        # Vertex v becomes order[v]; its state and its edges move with it.
        t = iterate_truncation(3, 3)
        order = np.random.default_rng(5).permutation(t.graph.n)
        states = np.empty_like(t.states)
        states[order] = t.states
        g = ExplicitGraph.from_edges(t.graph.n, order[t.graph.edge_array()])
        moved = LabeledGraph(g, states, r=t.r)
        assert verify_isomorphism(moved, HanoiParams(3, 3))
        assert _certify(moved, build_explicit(HanoiParams(3, 3)))

    def test_some_of_the_states_fail(self):
        # The subgraph on all but the last vertex: distinct valid states, too few of them.
        t = iterate_truncation(3, 2)
        n = t.graph.n - 1
        edges = [(u, v) for u, v in t.graph.edges() if v < n]
        g = ExplicitGraph.from_edges(n, edges)
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
        states = np.concatenate([t.states[1:2], t.states[1:]])
        fake = SimpleNamespace(graph=t.graph, states=states, r=t.r, k=t.k)
        assert not _certify(fake, build_explicit(HanoiParams(2, 2)))

    def test_labeled_graph_validation(self):
        g = ExplicitGraph.from_edges(2, [(0, 1)], labels=["0", "1"])
        with pytest.raises(ValueError):
            LabeledGraph(g, ((0,),), r=1)  # wrong count
        with pytest.raises(ValueError):
            LabeledGraph(g, ((0,), (0,)), r=1)  # duplicate states
        with pytest.raises(ValueError, match="^a labeled graph needs at least one vertex$"):
            LabeledGraph(ExplicitGraph.from_edges(0, []), (), r=1)
        for states in (((0,), (2,)), ((0,), (1.0,)), ((0, 1), (1, 1)), ((0,), (1, 0))):
            # outside 0..r, not an integer, equal entries side by side, lengths differ
            with pytest.raises(ValueError):
                LabeledGraph(g, states, r=1)

    def test_states_too_long_to_rank_are_compared_exactly(self):
        # Their int64 ranks would differ by 2^64: the same value after wrapping.
        a, b = (0,) + (2, 0) * 32, (1,) + (2, 0) * 32
        t = LabeledGraph(ExplicitGraph.from_edges(2, []), (a, b), r=2)
        assert t.states.tolist() == [list(a), list(b)]
        with pytest.raises(ValueError, match="^states are not distinct$"):
            LabeledGraph(ExplicitGraph.from_edges(2, []), (a, a), r=2)

    def test_owned_int32_states_are_adopted_and_views_copied(self):
        g = ExplicitGraph.from_edges(2, [(0, 1)])
        owned = np.array([[0], [1]], dtype=np.int32)
        assert LabeledGraph(g, owned, r=1).states is owned
        assert not owned.flags.writeable
        base = np.array([[0, 1], [1, 0]], dtype=np.int32)
        t = LabeledGraph(g, base[:, :1], r=1)
        base[1, 0] = 0  # would repeat state (0) if the view were kept
        assert t.states.tolist() == [[0], [1]]

    def test_entries_beyond_int32_are_refused(self):
        # A valid state when r is that large, but the state matrix is int32.
        g = ExplicitGraph.from_edges(1, [])
        with pytest.raises(ValueError, match="^state entries must fit in int32$"):
            LabeledGraph(g, ((2**31,),), r=2**31)
        assert LabeledGraph(g, ((2**31 - 1,),), r=2**31).states.tolist() == [[2**31 - 1]]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.data())
    def test_labeled_graph_accepts_what_make_state_accepts(self, r, k, data):
        # Rows of k entries in -1..r+1, the last row sometimes one entry longer; the
        # first row sets the length every row must have.
        rows = data.draw(st.lists(st.lists(st.integers(-1, r + 1), min_size=k, max_size=k),
                                  min_size=1, max_size=5))
        if data.draw(st.booleans()):
            rows[-1] = rows[-1] + [0]
        try:
            for row in rows:
                make_state(row, HanoiParams(r, len(rows[0])))
            want = len(set(map(tuple, rows))) == len(rows)
        except InvalidState:
            want = False
        g = ExplicitGraph.from_edges(len(rows), [])
        try:
            t = LabeledGraph(g, tuple(map(tuple, rows)), r=r)
        except ValueError:
            assert not want
        else:
            assert want and t.states.tolist() == rows

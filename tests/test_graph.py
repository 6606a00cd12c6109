import numpy as np
import pytest

from dug import (
    BadVertex,
    ExplicitGraph,
    HanoiParams,
    InconsistentHeader,
    ParseError,
    TooLarge,
    TooSmallTarget,
    bfs_distances,
    blow_up,
    build_explicit,
    diameter,
    enumerate_states,
    iter_distance_rows,
    load_edge_list,
    save_edge_list,
    state_index,
)

from conftest import move_adjacency


def complete_graph(n):
    iu, iv = np.triu_indices(n, k=1)
    return ExplicitGraph.from_edges(n, np.column_stack([iu, iv]))


def path_graph(n):
    return ExplicitGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


class TestFromEdges:
    def test_basic(self):
        g = ExplicitGraph.from_edges(3, [(0, 1), (1, 2)])
        assert g.n == 3 and g.m == 2
        assert list(g.neighbors_of(1)) == [0, 2]
        assert list(g.edges()) == [(0, 1), (1, 2)]

    def test_self_loop(self):
        with pytest.raises(ValueError):
            ExplicitGraph.from_edges(2, [(0, 0)])

    def test_duplicate(self):
        with pytest.raises(ValueError):
            ExplicitGraph.from_edges(3, [(0, 1), (1, 0)])

    def test_bad_vertex(self):
        with pytest.raises(BadVertex):
            ExplicitGraph.from_edges(2, [(0, 2)])

    def test_labels(self):
        g = ExplicitGraph.from_edges(2, [(0, 1)], labels=["a", "b"])
        assert g.labels == ("a", "b")
        assert g.label_index() == {"a": 0, "b": 1}
        with pytest.raises(ValueError):
            ExplicitGraph.from_edges(2, [(0, 1)], labels=["a"])
        with pytest.raises(ValueError):
            ExplicitGraph.from_edges(2, [(0, 1)], labels=["a", "a"])

    def test_empty(self):
        g = ExplicitGraph.from_edges(1, [])
        assert g.n == 1 and g.m == 0


class TestBuildExplicit:
    @pytest.mark.parametrize("proper", [False, True])
    @pytest.mark.parametrize("r,k", [(1, 2), (2, 3), (3, 2), (4, 2), (5, 3), (6, 4), (4, 1)])
    def test_matches_move_rules(self, r, k, proper):
        p = HanoiParams(r, k, proper=proper)
        adj = move_adjacency(p)
        states = list(adj)
        g = build_explicit(p)
        assert g.n == len(states)
        assert g.labels == tuple(",".join(map(str, s)) for s in states)
        index = {s: i for i, s in enumerate(states)}
        for v, s in enumerate(states):
            assert list(g.neighbors_of(v)) == sorted(index[t] for t in adj[s])

    def test_proper_g42_shape(self):
        # the four (x, 0) states lose their involution: degrees 3, not 4
        g = build_explicit(HanoiParams(4, 2, proper=True))
        assert g.n == 16 and g.m == 30
        assert sorted(set(g.degrees().tolist())) == [3, 4]
        assert (g.degrees() == 3).sum() == 4

    def test_improper_g42_regular(self):
        g = build_explicit(HanoiParams(4, 2))
        assert g.n == 20 and g.m == 40
        assert (g.degrees() == 4).all()

    def test_k1_complete(self):
        g = build_explicit(HanoiParams(3, 1, proper=True))
        assert g.n == 3 and g.m == 3
        assert g.labels == ("1", "2", "3")

    def test_cap(self):
        with pytest.raises(TooLarge):
            build_explicit(HanoiParams(4, 2), cap=10)


class TestBFS:
    def test_complete(self):
        assert bfs_distances(complete_graph(4), 0).tolist() == [0, 1, 1, 1]

    def test_hanoi_distance(self):
        p = HanoiParams(4, 2, proper=True)
        g = build_explicit(p)
        row = bfs_distances(g, state_index((1, 2), p))
        assert row[state_index((3, 4), p)] == 3

    def test_disconnected_marked(self):
        g = ExplicitGraph.from_edges(4, [(0, 1), (2, 3)])
        row = bfs_distances(g, 0)
        assert row.tolist() == [0, 1, -1, -1]

    def test_bad_vertex(self):
        with pytest.raises(BadVertex):
            bfs_distances(complete_graph(3), 3)


class TestDistanceRows:
    def test_matches_pure_bfs(self):
        for g in (
            build_explicit(HanoiParams(5, 2, proper=True)),
            build_explicit(HanoiParams(3, 3)),
            # n > 64: several 64-source chunks
            build_explicit(HanoiParams(5, 3, proper=True)),
            build_explicit(HanoiParams(4, 4)),
            ExplicitGraph.from_edges(5, [(0, 1), (2, 3)]),
            # isolated vertices first and in the middle of the CSR arrays
            ExplicitGraph.from_edges(4, [(1, 3)]),
        ):
            want = np.stack([bfs_distances(g, v) for v in range(g.n)])
            got = np.empty_like(want)
            for chunk, rows in iter_distance_rows(g):
                got[chunk] = rows
            assert np.array_equal(got, want)

    def test_source_selection(self):
        g = path_graph(5)
        (chunk, rows), = list(iter_distance_rows(g, sources=[3]))
        assert chunk.tolist() == [3]
        assert rows[0].tolist() == [3, 2, 1, 0, 1]
        # duplicate sources, and more sources than one 64-source chunk holds
        g = path_graph(70)
        sources = [5, 5, 69] + list(range(70))
        chunks = list(iter_distance_rows(g, sources=sources))
        assert np.concatenate([c for c, _ in chunks]).tolist() == sources
        want = np.stack([bfs_distances(g, s) for s in sources])
        assert np.array_equal(np.concatenate([r for _, r in chunks]), want)


class TestDiameter:
    def test_path(self):
        assert diameter(path_graph(4)) == (3, True)

    def test_disconnected(self):
        g = ExplicitGraph.from_edges(4, [(0, 1), (2, 3)])
        assert diameter(g) == (1, False)

    def test_hanoi(self):
        g = build_explicit(HanoiParams(5, 3, proper=True))
        assert diameter(g) == (7, True)

    def test_hanoi_sweep_r_at_least_k_plus_1(self):
        # enough spare values for a disjoint-support pair forces a full-length geodesic
        for r in range(2, 7):
            for k in range(1, 5):
                if r < k + 1:
                    continue
                g = build_explicit(HanoiParams(r, k, proper=True))
                assert diameter(g) == (2**k - 1, True), (r, k)


class TestEdgeListIO:
    def test_round_trip_labeled(self, tmp_path):
        g = build_explicit(HanoiParams(4, 2, proper=True))
        f = tmp_path / "g.dug"
        save_edge_list(g, f)
        assert load_edge_list(f) == g

    def test_round_trip_unlabeled(self, tmp_path):
        g = ExplicitGraph.from_edges(4, [(0, 1), (2, 3)])
        f = tmp_path / "g.dug"
        save_edge_list(g, f)
        assert load_edge_list(f) == g

    def test_comments_and_blanks(self, tmp_path):
        f = tmp_path / "g.dug"
        f.write_text("# a comment\n\ndug 1 3 2\n# another\ne 0 1\n\ne 1 2\n")
        g = load_edge_list(f)
        assert g.n == 3 and g.m == 2

    @pytest.mark.parametrize(
        "body,err",
        [
            ("dug 1 3 2\ne 0 1\ne 0 1\n", ParseError),      # duplicate edge
            ("dug 1 3 2\ne 1 1\ne 0 1\n", ParseError),      # self-loop
            ("dug 1 3 2\ne 1 0\ne 1 2\n", ParseError),      # u >= v
            ("dug 1 3 1\ne 0 9\n", ParseError),             # out of range
            ("dug 1 3 1\nq 0 1\n", ParseError),             # unknown record
            ("dug 2 3 1\ne 0 1\n", ParseError),             # bad version
            ("hello\n", ParseError),                        # bad magic
            ("dug 1 3 2\ne 0 1\n", InconsistentHeader),     # edge count short
            ("dug 1 2 1\nl 0 a\ne 0 1\n", InconsistentHeader),  # partial labels
            ("dug 1 2 1\nl 0 a\nl 0 b\ne 0 1\n", ParseError),   # dup label vertex
            ("dug 1 2 1\nl 0 a\nl 1 a\ne 0 1\n", ParseError),   # dup label text
            ("", InconsistentHeader),                       # empty file
        ],
    )
    def test_errors(self, tmp_path, body, err):
        f = tmp_path / "bad.dug"
        f.write_text(body)
        with pytest.raises(err):
            load_edge_list(f)

    def test_parse_error_carries_line(self, tmp_path):
        f = tmp_path / "bad.dug"
        f.write_text("dug 1 3 2\ne 0 1\ne 0 1\n")
        with pytest.raises(ParseError) as exc:
            load_edge_list(f)
        assert exc.value.line == 3


class TestBlowUp:
    def test_k2_to_c4(self):
        g = blow_up(complete_graph(2), 4)
        assert g.n == 4 and g.m == 4
        assert (g.degrees() == 2).all()
        # copies of the same vertex are non-adjacent
        assert list(g.neighbors_of(0)) == [2, 3]
        assert list(g.neighbors_of(1)) == [2, 3]

    def test_copy_counts(self):
        g = blow_up(path_graph(3), 7)  # 7 = 3*2 + 1: vertex 0 gets 3 copies
        assert g.n == 7
        assert g.degrees().tolist()[0:3] == [2, 2, 2]

    def test_labels_suffix(self):
        g = ExplicitGraph.from_edges(2, [(0, 1)], labels=["x", "y"])
        b = blow_up(g, 3)
        assert b.labels == ("x:0", "x:1", "y:0")

    def test_too_small(self):
        with pytest.raises(TooSmallTarget):
            blow_up(complete_graph(3), 2)

    def test_distance_preservation(self):
        g = path_graph(4)
        b = blow_up(g, 9)
        counts = [3, 2, 2, 2]
        offs = np.concatenate([[0], np.cumsum(counts)])
        dist_g = np.stack([bfs_distances(g, v) for v in range(4)])
        dist_b = np.stack([bfs_distances(b, v) for v in range(9)])
        for u in range(4):
            for v in range(4):
                if u == v:
                    continue
                block = dist_b[offs[u]:offs[u + 1], offs[v]:offs[v + 1]]
                assert (block == dist_g[u, v]).all()

    def test_same_vertex_copies_at_distance_two(self):
        b = blow_up(complete_graph(3), 6)
        dist = bfs_distances(b, 0)
        assert dist[1] == 2  # other copy of vertex 0

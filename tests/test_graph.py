import io
import os
import tempfile
import threading
from contextlib import contextmanager
from itertools import accumulate
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dug import (
    DEFAULT_STATE_CAP,
    BadVertex,
    ExplicitGraph,
    HanoiParams,
    InconsistentHeader,
    ParseError,
    TooLarge,
    TooSmallTarget,
    bfs_distances,
    best_uniformity,
    blow_up,
    build_explicit,
    diameter,
    distance_histograms,
    enumerate_states,
    iter_distance_rows,
    iterate_truncation,
    load_edge_list,
    save_edge_list,
    state_index,
)

import dug.graph
from dug.graph import _MAX_DIGITS, _canonical_edges, _edge_lines, _parse_lines

from conftest import move_adjacency, traced_peak


def complete_graph(n):
    iu, iv = np.triu_indices(n, k=1)
    return ExplicitGraph.from_edges(n, np.column_stack([iu, iv]))


def path_graph(n):
    return ExplicitGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def reference_edges(g):
    """Edges as (u, v), u < v, in sorted order, straight from the neighbor lists."""
    return [(u, int(w)) for u in range(g.n) for w in g.neighbors_of(u) if u < w]


def reference_text(g):
    """The edge-list file text, written one line at a time."""
    out = [f"dug 1 {g.n} {g.m}\n"]
    if g.labels is not None:
        out += [f"l {v} {lab}\n" for v, lab in enumerate(g.labels)]
    out += [f"e {u} {v}\n" for u, v in reference_edges(g)]
    return "".join(out)


def edge_block(data: bytes) -> bytes:
    """The bytes from the first line that begins 'e ' to the end of the file."""
    return data[data.find(b"\ne ") + 1:] if b"\ne " in data else b""


def bulk_edges(data: bytes):
    """What the bulk reader makes of the edge block of the file bytes data,
    given the edge count of its header (0 if that is not ASCII digits)."""
    split = data.find(b"\ne ") + 1
    if not split:
        return None
    header = next(line.split() for line in data.splitlines()
                  if line.strip() and not line.startswith(b"#"))
    m = int(header[3]) if len(header) == 4 and header[3].isdigit() else 0
    block = data[split:]
    return _canonical_edges(io.BytesIO(block), len(block), m)


@st.composite
def small_graphs(draw, max_n=6):
    """Simple graphs on up to max_n vertices, isolated vertices and m = 0 included."""
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    labels = None
    if n and draw(st.booleans()):
        text = st.text(alphabet="ab,:é ", min_size=1).filter(lambda t: t == t.strip())
        labels = draw(st.lists(text, min_size=n, max_size=n, unique=True))
    return ExplicitGraph.from_edges(n, np.array(edges, dtype=np.int64).reshape(-1, 2), labels)


def sorted_csr(n, edges):
    """indptr and indices as lists, from each vertex's neighbour set sorted in Python."""
    rows = [set() for _ in range(n)]
    for a, b in edges:
        rows[int(a)].add(int(b))
        rows[int(b)].add(int(a))
    return [0, *accumulate(map(len, rows))], [w for row in rows for w in sorted(row)]


INTEGER_INPUTS = [
    lambda e: e.astype(np.int32),
    lambda e: e.astype(np.int64),
    lambda e: e.astype(np.uint32),
]


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

    # Duplicates are looked for a block of sorted keys at a time: a pair may straddle two blocks.
    @pytest.mark.parametrize("chunk", [1, 2, 3, dug.graph._EDGE_CHUNK])
    @pytest.mark.parametrize("flipped", [False, True])
    def test_duplicate_far_apart(self, flipped, chunk):
        rng = np.random.default_rng(3)
        n = 1000
        iu, iv = np.triu_indices(n, k=1)
        pick = rng.choice(iu.size, size=10_000, replace=False)
        arr = np.column_stack([iu[pick], iv[pick]])
        swap = rng.random(len(arr)) < 0.5
        arr[swap] = arr[swap, ::-1]
        assert ExplicitGraph.from_edges(n, arr).m == 10_000
        arr[-5] = arr[3, ::-1] if flipped else arr[3]
        with mock.patch("dug.graph._EDGE_CHUNK", chunk):
            with pytest.raises(ValueError, match="^duplicate edge in edge list$"):
                ExplicitGraph.from_edges(n, arr)

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

    @given(small_graphs(max_n=12), st.sampled_from([1 << 16, 1, 3]))
    def test_edges_match_edge_array(self, g, chunk):
        with mock.patch("dug.graph._EDGE_CHUNK", chunk):
            arr = g.edge_array()
            listed = list(g.edges())
        assert arr.dtype == np.int64 and arr.shape == (g.m, 2)
        assert listed == [tuple(e) for e in arr.tolist()] == reference_edges(g)

    @pytest.mark.parametrize(
        "make",
        [*INTEGER_INPUTS, lambda e: [tuple(p) for p in e.tolist()]],
        ids=["int32", "int64", "uint32", "list"],
    )
    def test_any_integer_input_matches_sorted_reference(self, make):
        rng = np.random.default_rng(5)
        n = 300
        iu, iv = np.triu_indices(n, k=1)
        pick = rng.choice(iu.size, size=2_000, replace=False)
        edges = np.column_stack([iu[pick], iv[pick]])
        swap = rng.random(len(edges)) < 0.5
        edges[swap] = edges[swap, ::-1]
        given = make(edges)
        g = ExplicitGraph.from_edges(n, given)
        assert g.indptr.dtype == np.int64 and g.indices.dtype == np.int32
        assert (g.indptr.tolist(), g.indices.tolist()) == sorted_csr(n, edges)
        assert np.array_equal(given, edges)  # the caller's edges are left as they were

    @pytest.mark.parametrize("chunk", [1, 7])
    @pytest.mark.parametrize("n", [1, 20, 65_537])
    def test_row_bounds_searched_a_block_at_a_time(self, n, chunk):
        # Rows 0, n // 2 and n - 1 are in different blocks, some blocks hold no entry.
        pairs = {(a, b) for a, b in [(0, n - 1), (0, n // 2), (n // 2, n - 1)] if a < b}
        edges = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
        with mock.patch("dug.graph._EDGE_CHUNK", chunk):
            g = ExplicitGraph.from_edges(n, edges)
        assert (g.indptr.tolist(), g.indices.tolist()) == sorted_csr(n, edges)

    @pytest.mark.parametrize("make", INTEGER_INPUTS, ids=["int32", "int64", "uint32"])
    @pytest.mark.parametrize("flipped", [False, True])
    @pytest.mark.parametrize("n", [0, 1, 2, 65_535, 65_536, 65_537])
    def test_key_width_boundary_matches_sorted_reference(self, n, flipped, make):
        # keys row * n + col are uint32 up to n = 2^16 and int64 above
        pairs = {(a, b) for a, b in [(0, n - 1), (n - 2, n - 1), (0, 1)] if 0 <= a < b < n}
        edges = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
        if flipped:
            edges = edges[:, ::-1]
        g = ExplicitGraph.from_edges(n, make(edges))
        assert g.indptr.dtype == np.int64 and g.indices.dtype == np.int32
        assert (g.indptr.tolist(), g.indices.tolist()) == sorted_csr(n, edges)

    def test_many_vertices_cost_little_beyond_indptr(self, tmp_path):
        # Row bounds are searched a block at a time: no n-sized temporary.
        n = 2 * 10**6
        f = tmp_path / "wide.dug"
        f.write_text(f"dug 1 {n} 2\ne 0 1\ne 1 {n - 1}\n")
        for build in (lambda: ExplicitGraph.from_edges(n, [(0, 1), (1, n - 1)]),
                      lambda: load_edge_list(f)):
            built = []
            peak = traced_peak(lambda: built.append(build()))
            g = built[0]
            assert peak <= 1.25 * g.indptr.nbytes
            assert g.indptr[:3].tolist() == [0, 1, 3] and g.indptr[-2:].tolist() == [3, 4]
            assert (g.indptr[2:-1] == 3).all() and g.indices.tolist() == [1, 0, n - 1, 1]

    @pytest.mark.parametrize("empty", [[], np.zeros((0, 2)), np.zeros(0, dtype=np.float32)],
                             ids=["list", "float64", "float32"])
    def test_empty_input_of_any_type(self, empty):
        g = ExplicitGraph.from_edges(4, empty)
        assert g.n == 4 and g.m == 0
        assert g.indptr.tolist() == [0] * 5 and g.indices.dtype == np.int32

    @pytest.mark.parametrize("edges", [
        np.array([(0.5, 1.7), (1.2, 2.9)]),
        np.array([(0.0, 1.0)]),
        np.array([(False, True)]),
        [(0, 1), (1, 2.0)],
    ], ids=["float", "integral-float", "bool", "mixed-list"])
    def test_non_integer_endpoints_are_refused(self, edges):
        # a cast to int would turn (0.5, 1.7), (1.2, 2.9) into the edges 0-1 and 1-2
        dtype = np.asarray(edges).dtype
        with pytest.raises(ValueError, match=f"^edge endpoints must be integers, got dtype {dtype}$"):
            ExplicitGraph.from_edges(3, edges)


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

    @pytest.mark.parametrize("r,k", [(64, 2), (1024, 1)])
    def test_memory_per_edge(self, r, k):
        # the move table, its legal mask and the CSR indices: about 18 B per edge
        p = HanoiParams(r, k, proper=True)
        built = []
        peak = traced_peak(lambda: built.append(build_explicit(p)))
        assert peak <= 32 * built[0].m

    def test_truncation_memory_per_edge(self):
        # the CSR written straight from the parent's and the int32 states: about 20 B per edge
        built = []
        peak = traced_peak(lambda: built.append(iterate_truncation(64, 2)))
        assert peak <= 32 * built[0].graph.m

    def test_truncation_memory_per_edge_at_small_r(self):
        # 14 int32 state entries per vertex outweigh the CSR: about 200 B per edge, with
        # no Python object per vertex (a tuple and a label string each took 614 B)
        built = []
        peak = traced_peak(lambda: built.append(iterate_truncation(2, 14)))
        assert peak <= 300 * built[0].graph.m

    def test_class_index_cannot_be_assigned(self, tmp_path):
        # One analysis of proper (4, 3) keeps its table of 5 orbit rows; were
        # the index dropped after it, they would be read as 5 vertex rows.
        params = HanoiParams(4, 3, proper=True)
        g = build_explicit(params)
        assert len(best_uniformity(g).per_vertex_offcount) == 64
        f = tmp_path / "g.dug"
        save_edge_list(g, f)
        for graph in (g, load_edge_list(f), ExplicitGraph.from_edges(2, [(0, 1)]),
                      blow_up(g, 70), iterate_truncation(4, 2).graph):
            with pytest.raises(AttributeError):
                graph.classes = None
        fresh = best_uniformity(build_explicit(params)).per_vertex_offcount
        assert best_uniformity(g).per_vertex_offcount == fresh and len(fresh) == 64

    def test_only_built_graphs_carry_a_class_index(self, tmp_path):
        g = build_explicit(HanoiParams(4, 3, proper=True))
        # the canonical states 1,0,1 1,0,2 1,2,0 1,2,1 1,2,3 are vertices 0, 1, 4, 5, 6
        assert np.unique(g.classes).tolist() == [0, 1, 4, 5, 6]
        assert not g.classes.flags.writeable
        f = tmp_path / "g.dug"
        save_edge_list(g, f)
        loaded = load_edge_list(f)
        assert loaded == g and g == loaded and loaded.classes is None
        assert ExplicitGraph.from_edges(g.n, g.edge_array(), g.labels).classes is None
        # copy counts differ between vertices: relabeling is no automorphism of a blow-up
        assert blow_up(g, g.n + 1).classes is None
        assert iterate_truncation(4, 3).graph.classes is None
        # K_{r+1} is the Hanoi graph at k = 1: one orbit under every relabeling
        assert iterate_truncation(4, 1).graph.classes.tolist() == [0] * 5

    @pytest.mark.parametrize(
        "classes,problem",
        [
            (np.array([0, 1, 4, 5, 6]), "1-D integer array of 64 entries"),
            (np.zeros(64), "1-D integer array of 64 entries"),
            (np.zeros((64, 1), dtype=np.int64), "1-D integer array of 64 entries"),
            (np.full(64, 64), "vertices in 0..63"),
            (np.full(64, -1), "vertices in 0..63"),
        ],
        ids=["five entries", "float", "two-dimensional", "entry n", "negative"],
    )
    def test_class_index_must_name_each_vertex_a_vertex(self, classes, problem):
        # Five entries once gave 5 offcounts and epsilon 9/16 at d = 7 for proper (4, 3).
        g = build_explicit(HanoiParams(4, 3, proper=True))
        with pytest.raises(ValueError, match=problem):
            ExplicitGraph(g.n, g.indptr, g.indices, g.labels, classes)
        # An index in range need not be closed: only dug verify certifies one.
        other = ExplicitGraph(g.n, g.indptr, g.indices, g.labels, g.classes[::-1].copy())
        assert other == g


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
            ExplicitGraph.from_edges(3, []),
            ExplicitGraph.from_edges(1, []),
            path_graph(6),
        ):
            want = np.stack([bfs_distances(g, v) for v in range(g.n)])
            got = np.empty_like(want)
            for chunk, rows in iter_distance_rows(g):
                got[chunk] = rows
            assert np.array_equal(got, want)
            ids, table, connected = distance_histograms(g)
            width = int(want.max()) + 1
            # one row per class of a Hanoi graph, one per vertex otherwise
            classes = np.arange(g.n) if g.classes is None else g.classes
            assert ids.tolist() == np.unique(classes).tolist()
            assert table.dtype == np.int32
            assert table[np.searchsorted(ids, classes)].tolist() == [
                np.bincount(row[row >= 0], minlength=width).tolist() for row in want]
            assert connected == bool((want >= 0).all())
            assert diameter(g) == (width - 1, connected)

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


class TestDistanceHistograms:
    def test_kept_table_is_read_only(self):
        g = path_graph(5)
        ids, table, _ = distance_histograms(g)
        assert distance_histograms(g)[1] is table
        with pytest.raises(ValueError):
            table[0, 1] = 0
        with pytest.raises(ValueError):
            ids[0] = 1

    def test_sampled_sources(self):
        g = ExplicitGraph.from_edges(5, [(0, 1), (1, 2)])
        ids, table, connected = distance_histograms(g, sources=[4, 0, 0])
        assert ids.tolist() == [4, 0, 0]
        # width follows the farthest vertex the named sources reach
        assert table.tolist() == [[1, 0, 0], [1, 1, 1], [1, 1, 1]]
        assert not connected
        assert distance_histograms(g)[1].shape == (5, 3)

    def test_no_vertices(self):
        ids, table, connected = distance_histograms(ExplicitGraph.from_edges(0, []))
        assert ids.size == 0 and table.shape == (0, 1) and connected
        assert diameter(ExplicitGraph.from_edges(0, [])) == (0, True)


# Step directions and pull blocks forced through the module constants: every
# level pushes; every level whose frontier has adjacency entries pulls; and
# pulls gather 3 entries at a time, so a star's centre row spans several.
SWEEP_MODES = {
    "default": {},
    "push": {"_PUSH_SHARE": 0},
    "pull": {"_PUSH_SHARE": 1 << 62},
    "tiny-blocks": {"_PUSH_SHARE": 1 << 62, "_PULL_BLOCK": 3},
}

SWEEP_GRAPHS = {
    "edgeless": lambda: ExplicitGraph.from_edges(4, []),
    # isolated vertices as the first, a middle and the last CSR row
    "isolated": lambda: ExplicitGraph.from_edges(6, [(1, 3), (3, 4)]),
    "disconnected": lambda: ExplicitGraph.from_edges(
        9, [(0, 1), (2, 3), (3, 4), (5, 6), (6, 7), (7, 8)]),
    # 299 leaves: one level's frontier spans two 255-vertex count blocks
    "star": lambda: ExplicitGraph.from_edges(300, [(0, v) for v in range(1, 300)]),
    "path": lambda: path_graph(70),
    # a Hanoi graph with no classes, so that every vertex is its own source
    "hanoi": lambda: ExplicitGraph.from_edges(80, build_explicit(HanoiParams(4, 3)).edge_array()),
}


@pytest.fixture
def steps(monkeypatch):
    """Names of the level steps later sweeps take, in order."""
    taken = []
    for name in ("_push", "_pull"):
        def counting(*args, real=getattr(dug.graph, name), name=name):
            taken.append(name)
            return real(*args)
        monkeypatch.setattr(dug.graph, name, counting)
    return taken


def force_mode(monkeypatch, mode):
    for name, value in SWEEP_MODES[mode].items():
        monkeypatch.setattr(dug.graph, name, value)


class TestLevelSweep:
    @pytest.mark.parametrize("graph", SWEEP_GRAPHS)
    @pytest.mark.parametrize("mode", SWEEP_MODES)
    def test_rows_and_histograms_match_bfs(self, monkeypatch, steps, mode, graph):
        force_mode(monkeypatch, mode)
        g = SWEEP_GRAPHS[graph]()
        rng = np.random.default_rng(5)
        # chunks of width 1, 63, 64 and 65 (64 + 1), duplicates, and every vertex
        source_lists = [rng.integers(0, g.n, w).tolist() for w in (1, 63, 64, 65)]
        source_lists += [[0, 0, g.n - 1, 0], None]
        for sources in source_lists:
            srcs = list(range(g.n)) if sources is None else sources
            want = np.stack([bfs_distances(g, s) for s in srcs])
            chunks = list(iter_distance_rows(g, sources))
            assert [c.size for c, _ in chunks] == [min(64, len(srcs) - lo)
                                                   for lo in range(0, len(srcs), 64)]
            assert np.concatenate([c for c, _ in chunks]).tolist() == srcs
            rows = np.concatenate([r for _, r in chunks])
            assert rows.dtype == np.int32 and np.array_equal(rows, want)
            ids, table, connected = distance_histograms(g, sources)
            width = int(want.max()) + 1
            assert ids.tolist() == srcs
            assert table.dtype == np.int32
            assert table.tolist() == [np.bincount(row[row >= 0], minlength=width).tolist()
                                      for row in want]
            assert connected == bool((want >= 0).all())
        if mode == "push":
            assert "_pull" not in steps
        elif mode != "default" and g.m:
            assert "_pull" in steps

    @pytest.mark.parametrize("mode", SWEEP_MODES)
    def test_chunk_stops_at_full_coverage(self, monkeypatch, steps, mode):
        force_mode(monkeypatch, mode)
        disconnected = SWEEP_GRAPHS["disconnected"]()
        cases = [
            # connected: as many steps as the chunk's largest eccentricity
            (path_graph(10), [3], 6),
            (path_graph(10), [0, 9], 9),
            (path_graph(10), [4, 5, 4], 5),
            (complete_graph(5), range(5), 1),
            (ExplicitGraph.from_edges(1, []), [0, 0], 0),
            # disconnected: one more step, which finds an empty frontier
            (disconnected, [2], 3),
            (disconnected, [0, 5], 4),
            (ExplicitGraph.from_edges(3, []), [1], 1),
        ]
        for g, sources, want in cases:
            steps.clear()
            list(iter_distance_rows(g, sources))
            assert len(steps) == want, (g, sources)
            steps.clear()
            distance_histograms(g, sources)
            assert len(steps) == want, (g, sources)


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

    @pytest.mark.parametrize(
        "g",
        [
            build_explicit(HanoiParams(4, 2, proper=True)),
            complete_graph(400),  # 79 800 edges: more than one write chunk
            path_graph(70_000),  # two write chunks, ids of one to five digits
            ExplicitGraph.from_edges(5, []),
        ],
        ids=["labeled", "unlabeled", "widths", "edgeless"],
    )
    def test_save_matches_reference_writer(self, tmp_path, g):
        f = tmp_path / "g.dug"
        save_edge_list(g, f)
        data = f.read_bytes()
        assert data == reference_text(g).encode()
        bulk = bulk_edges(data)
        assert bulk is None if g.m == 0 else np.array_equal(bulk, g.edge_array())
        assert load_edge_list(f) == g

    @pytest.mark.parametrize("chunk", [1 << 16, 3])
    @pytest.mark.parametrize("labeled", [False, True])
    @pytest.mark.parametrize("n", [0, 1, 2, 10, 11, 100, 101, 1000, 1001])
    def test_save_at_digit_width_boundaries(self, tmp_path, n, labeled, chunk):
        # Every end has its own digit count; 0 and n - 1 are always among them.
        ends = sorted({0, 1, 9, 10, 99, 100, 999, 1000, n - 1} & set(range(n)))
        edges = np.array([(u, v) for u in ends for v in ends if u < v]).reshape(-1, 2)
        labels = [f"v{v}" for v in range(n)] if labeled else None
        g = ExplicitGraph.from_edges(n, edges, labels)
        f = tmp_path / "g.dug"
        with mock.patch("dug.graph._EDGE_CHUNK", chunk):
            save_edge_list(g, f)
        assert f.read_bytes() == reference_text(g).encode()
        assert load_edge_list(f) == g

    @pytest.mark.parametrize("n", [10, 10**4, 10**4 + 1, 2**26])
    def test_edge_lines_at_every_id_width(self, n):
        # The writer's digit tables without an n-vertex graph: ids of 1 to 8 digits.
        ids = np.array([x for x in (0, 9, 10, 99, 100, 9_999, 10_000, 99_999, 100_000, 999_999,
                                    1_000_000, 9_999_999, 10_000_000, 2**26 - 1) if x < n],
                       dtype=np.int32)
        lines = _edge_lines(n, ids.size)
        assert lines(ids, ids[::-1]) == b"".join(b"e %d %d\n" % e for e in zip(ids, ids[::-1]))
        assert lines(ids[-1:], ids[:1]) == b"e %d %d\n" % (ids[-1], ids[0])  # a shorter block

    def test_row_longer_than_a_chunk_is_written_alone(self, tmp_path):
        # Vertex 1 has 6 neighbours, more than a chunk of 4 adjacency entries,
        # and 5 edges to write, more than the writer's table of 4 lines.
        g = ExplicitGraph.from_edges(9, [(0, 1), *((1, w) for w in range(2, 7)), (7, 8)])
        blocks = []
        edge_blocks = ExplicitGraph._edge_blocks

        def spy(graph):
            for u, v in edge_blocks(graph):
                blocks.append(np.column_stack([u, v]).tolist())
                yield u, v

        f = tmp_path / "g.dug"
        with mock.patch("dug.graph._EDGE_CHUNK", 4), \
                mock.patch.object(ExplicitGraph, "_edge_blocks", spy):
            save_edge_list(g, f)
        assert [[1, w] for w in range(2, 7)] in blocks
        assert [e for block in blocks for e in block] == [list(e) for e in reference_edges(g)]
        assert f.read_bytes() == reference_text(g).encode()

    @pytest.mark.parametrize("bad", ["", "a\nb", "a\rb", " a", "a ", 7, "\ud800"])
    def test_save_refuses_label_that_would_not_load_back(self, tmp_path, bad):
        g = ExplicitGraph.from_edges(2, [(0, 1)], labels=["x", bad])
        f = tmp_path / "g.dug"
        with pytest.raises(ValueError, match="would not load back"):
            save_edge_list(g, f)
        assert not f.exists()
        f.write_bytes(b"dug 1 1 0\n")
        with pytest.raises(ValueError, match="would not load back"):
            save_edge_list(g, f)
        assert f.read_bytes() == b"dug 1 1 0\n"

    @pytest.mark.parametrize("body", ["dug 1 3 2\ne 0 1\ne 1 2\n", "dug 1 3 2\ne 0 1\r\ne 1 2\n",
                                      "dug 1 3 2\ne 0 1\ne 0 1\n", "dug 1 3 0\n"])
    def test_pipe_loads_as_a_file_does(self, tmp_path, body):
        f, fifo = tmp_path / "g.dug", tmp_path / "g.fifo"
        f.write_text(body)
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(body,), daemon=True)
        writer.start()
        got = outcome(lambda: load_edge_list(fifo))
        writer.join(timeout=10)
        assert got == outcome(lambda: load_edge_list(f))

    def test_inner_whitespace_label_round_trips(self, tmp_path):
        g = ExplicitGraph.from_edges(2, [(0, 1)], labels=["a  b", "c\td"])
        f = tmp_path / "g.dug"
        save_edge_list(g, f)
        assert load_edge_list(f) == g


MUTATIONS = ["none", "crlf", "comment", "blank", "extra token", "plus", "out of range",
             "u >= v", "duplicate", "count", "label among edges", "edit"]
# Characters the "edit" mutation inserts or writes over one character of a line.
EDIT_CHARS = [" ", "\t", "\r", "\x0b", "x", "+", "-", "0", "7", "#", "e", "l", "é", "\u0661"]


def mutate(g, mutation, draw):
    """The canonical text of g with one line-level mutation applied."""
    lines = reference_text(g).splitlines(keepends=True)
    first_edge = 1 + (g.n if g.labels is not None else 0)
    any_line = draw(st.integers(0, len(lines) - 1))
    edge_line = draw(st.integers(first_edge, len(lines) - 1)) if g.m else None
    if mutation == "crlf":
        lines[any_line] = lines[any_line][:-1] + "\r\n"
    elif mutation in ("comment", "blank"):
        extra = "# note\n" if mutation == "comment" else "\n"
        lines.insert(draw(st.integers(0, len(lines))), extra)
    elif mutation == "extra token":
        lines[any_line] = lines[any_line][:-1] + " 5\n"
    elif mutation == "plus":
        head, last = lines[any_line][:-1].rsplit(" ", 1)
        lines[any_line] = f"{head} +{last}\n"
    elif mutation == "edit":
        line = lines[any_line]
        at = draw(st.integers(0, len(line) - 1))
        char = draw(st.sampled_from(EDIT_CHARS + [""]))
        lines[any_line] = line[:at] + char + line[at + draw(st.integers(0, 1)):]
    elif mutation == "count":
        m = g.m + draw(st.sampled_from([-1, 1] if g.m else [1]))
        lines[0] = f"dug 1 {g.n} {m}\n"
    elif mutation == "label among edges" and g.n:
        if g.labels is None:
            line = "l 0 x\n"
        else:
            line = lines.pop(draw(st.integers(1, first_edge - 1)))
            first_edge -= 1
        lines.insert(draw(st.integers(first_edge + 1 if g.m else first_edge, len(lines))), line)
    elif edge_line is not None:
        u, v = (int(x) for x in lines[edge_line].split()[1:])
        if mutation == "out of range":
            lines[edge_line] = f"e {u} {g.n + draw(st.integers(0, 2))}\n"
        elif mutation == "u >= v":
            lines[edge_line] = f"e {v} {u}\n"
        elif mutation == "duplicate":
            lines.insert(draw(st.integers(first_edge, len(lines))), lines[edge_line])
    return "".join(lines)


def outcome(parse):
    """A parsed graph, or the type and line of the error raised while parsing."""
    try:
        return parse()
    except (ParseError, InconsistentHeader) as exc:
        return type(exc), getattr(exc, "line", None)


def line_parser_outcome(f):
    with open(f, encoding="utf-8") as fh:
        return outcome(lambda: _parse_lines(fh))


def load_traced(f):
    """(outcome of load_edge_list(f), the bulk-read tail handed to each _parse_lines call)."""
    tails = []

    def spy(lines, tail=None):
        tails.append(None if tail is None else tail.copy())  # the CSR may be built in tail
        return _parse_lines(lines, tail)

    with mock.patch("dug.graph._parse_lines", spy):
        return outcome(lambda: load_edge_list(f)), tails


@pytest.mark.parametrize(
    "body",
    [
        "dug 1 3 1\nx 0 1\n",
        "dug 1 3 1\ne 0 1 5\n",
        "dug 1 3 1\ne +1 2\n",
        "dug 1 3 1\ne 0 1 # tail\n",
        "dug 1 4 3\ne 0 1\ne 0 2\ne 1\t2\n",        # tab separator on the last line
        "dug 1 3 1\ne  1\n",                        # empty first endpoint
        "dug 1 3 1\ne 1 \n",                        # empty second endpoint
        "dug 1 3 1\ne 0 99999999999999999999\n",    # endpoint beyond int64
        "dug 1 3 2\ne 0 1\ne 1 2 \n",               # trailing space after the last edge
        "dug 1 3 2\ne 0 1\r\ne 1 2\n",              # CRLF inside the edge block
        "dug 1 3 2\ne 0 1\n# note\ne 1 2\n",        # comment inside the edge block
        "dug 1 3 2\ne 0 1\ne 2 1\n",                # u > v
        "dug 1 3 2\ne 0 1\nx 1 2\n",                # another record among the edges
        "dug 1 3 2\ne 0 1\n5e 1 2\n",               # a digit before the 'e'
        "dug 1 4 2\ne 0 1\te 2 3\n",                # a tab in place of a newline
        "dug 1 2 1\nl 0 a\nl 1 b\ne 0 1",           # no final newline
        "dug 1 3 x\n",
        "dug 1 " + "1" * 5000 + " 0\n",             # count too long for int()
        "dug 1 3 2\n\te 0 2\ne 1 2\n",              # an edge line before the run
    ],
)
def test_bulk_parser_defers_on_near_canonical_files(tmp_path, body):
    f = tmp_path / "g.dug"
    f.write_bytes(body.encode())
    assert bulk_edges(f.read_bytes()) is None
    assert load_traced(f) == (line_parser_outcome(f), [None])


@pytest.mark.parametrize(
    "body",
    ["dug 1 2 1\ne \u0660 \u0661\n", "dug 1 2 1\ne 0\u00a01\n"],
    ids=["arabic-indic digits", "no-break space"],
)
def test_line_parser_takes_unicode_digits_and_spaces(tmp_path, body):
    """Today's behaviour, pinned: both files load as the edge 0-1.

    The writer never produces them, but Python's int() reads any Unicode
    decimal digit and str.split() splits at any Unicode space.  The bulk
    reader takes ASCII alone and leaves both files to the line parser.
    Whether to refuse such files is a separate decision.
    """
    f = tmp_path / "g.dug"
    f.write_bytes(body.encode())
    assert bulk_edges(f.read_bytes()) is None
    got, tails = load_traced(f)
    assert tails == [None]
    assert isinstance(got, ExplicitGraph) and got.n == 2 and reference_edges(got) == [(0, 1)]


@pytest.mark.parametrize(
    "body",
    [
        "# made by hand\r\n\r\ndug 1 3 2\r\n# labels\r\nl 2 c\r\nl 0 a\r\n\r\nl 1 b\r\n"
        "e 0 1\ne 1 2\n",
        "dug 1 2 1\nl 0 a \nl 1 b\ne 0 1\n",        # trailing space after a label
    ],
)
def test_bulk_parser_reads_edges_after_any_head(tmp_path, body):
    f = tmp_path / "g.dug"
    f.write_bytes(body.encode())
    got, tails = load_traced(f)
    assert isinstance(got, ExplicitGraph) and got == line_parser_outcome(f)
    assert len(tails) == 1 and np.array_equal(tails[0], bulk_edges(body.encode()))


@pytest.mark.parametrize(
    "body,want",
    [
        ("dug 1 3 2\ne 0 1\ne 1 9\n", (ParseError, 3)),             # vertex out of range
        ("dug 1 3 2\ne\t0 1\ne 0 1\n", (ParseError, 3)),            # repeats an edge of the head
        ("dug 1 3 1\ne 0 1\ne 1 2\n", (InconsistentHeader, None)),  # one edge more than declared
        ("dug 1 3 3\ne 0 1\ne 1 2\n", (InconsistentHeader, None)),  # one edge fewer
        ("dug 1 2 1\nl 0 a\rb\nl 1 c\ne 0 1\n", (ParseError, 3)),  # carriage return in a label
    ],
)
def test_errors_after_bulk_read_match_line_parser(tmp_path, body, want):
    f = tmp_path / "g.dug"
    f.write_bytes(body.encode())
    got, tails = load_traced(f)
    assert got == line_parser_outcome(f) == want
    # The bulk reader declines a run that does not hold exactly the header's count.
    if body.count("\ne ") == int(body.split()[3]):
        assert len(tails) == 2 and tails[0] is not None and tails[1] is None
    else:
        assert tails == [None]


@pytest.mark.parametrize(
    "body,bulk,dtype",
    [
        ("dug 1 4 3\ne 0 1\ne 1 2\ne 2 3\n", True, np.uint32),
        ("dug 1 3 1\nl 0 a\nl 1 b\nl 2 c\ne 0 2\n", True, np.uint32),
        ("dug 1 4 3\ne 0 1\r\ne 1 2\ne 2 3\n", False, np.uint32),
        ("dug 1 3 0\n", False, np.uint32),
        ("dug 1 70000 2\ne 5 6\ne 0 69999\n", True, np.int64),
        ("dug 1 70000 2\ne 5 6\r\ne 0 69999\n", False, np.int64),
    ],
)
def test_every_load_builds_through_from_keys(tmp_path, body, bulk, dtype):
    """Bulk-read or line-parsed, a loaded graph is built by one _from_keys
    call, on uint32 keys up to n = 2^16 and int64 keys above."""
    f = tmp_path / "g.dug"
    f.write_bytes(body.encode())
    with mock.patch.object(ExplicitGraph, "from_edges",
                           wraps=ExplicitGraph.from_edges) as from_edges, \
            mock.patch.object(ExplicitGraph, "_from_keys",
                              wraps=ExplicitGraph._from_keys) as from_keys:
        got, tails = load_traced(f)
    assert isinstance(got, ExplicitGraph) and got == line_parser_outcome(f)
    assert len(tails) == 1 and (tails[0] is not None) == bulk
    assert from_edges.call_count == 0 and from_keys.call_count == 1
    assert from_keys.call_args.args[1].dtype == dtype


@settings(max_examples=300)
@given(small_graphs(), st.sampled_from(MUTATIONS), st.data(),
       st.one_of(st.just(1 << 18), st.integers(1, 24)))
def test_bulk_parser_matches_line_parser(g, mutation, data, chunk):
    """Reads of a few bytes split lines, tokens and the head from the edges."""
    text = mutate(g, mutation, data.draw)
    counts = []  # the edge count the bulk reader was given, as read from the header
    canonical_edges = dug.graph._canonical_edges

    def spy(fh, size, m):
        counts.append(m)
        return canonical_edges(fh, size, m)

    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / "g.dug"
        f.write_bytes(text.encode())
        with mock.patch("dug.graph._READ_CHUNK", chunk), \
                mock.patch("dug.graph._canonical_edges", spy):
            got, tails = load_traced(f)
        assert got == line_parser_outcome(f)
    if mutation == "none":
        assert got == g
        assert counts == ([g.m] if g.m else [])
    block = "".join(f"e {u} {v}\n" for u, v in reference_edges(g)).encode()
    if g.m and edge_block(text.encode()) == block:
        # Every line the mutation touched lies before the first edge line, so
        # the run is handed over exactly when the header's count reads g.m.
        if counts == [g.m]:
            assert np.array_equal(tails[0], g.edge_array())
            assert len(tails) == (1 if isinstance(got, ExplicitGraph) else 2)
        else:
            assert len(tails) == 1 and tails[0] is None


LAST_LINE_FAULTS = ["none", "duplicate", "u >= v", "out of range", "letter", "tab", "record",
                    "prefix"]
# Largest vertex count whose graph the test below builds; ids go up to 10**8 - 1.
BUILT_N = 2000


@settings(max_examples=300, deadline=None)
@given(st.data(), st.one_of(st.integers(3, BUILT_N), st.integers(3, 10**8)),
       st.integers(1, 80), st.sampled_from(LAST_LINE_FAULTS))
def test_bulk_reader_matches_line_parser_on_random_ids(data, n, chunk, fault):
    """Ids of 1-8 digits with leading zeros, chunks of a few bytes, one fault on the last line."""
    ids = st.integers(0, n - 1)
    drawn = data.draw(st.lists(st.tuples(ids, ids), min_size=2, max_size=30))
    pairs = list(dict.fromkeys((min(p), max(p)) for p in drawn if p[0] != p[1]))
    assume(len(pairs) >= 2)
    if fault == "duplicate":
        pairs.append(pairs[data.draw(st.integers(0, len(pairs) - 1))])
    elif fault == "u >= v":
        pairs[-1] = pairs[-1][::-1]
    elif fault == "out of range":
        pairs[-1] = (pairs[-1][0], n)
    # Pad each id with leading zeros to at most 8 digits, now and then to 9 or more.
    tokens = [str(x).zfill(data.draw(st.integers(len(str(x)), max(8, len(str(x))))))
              for p in pairs for x in p]
    if data.draw(st.booleans()) and data.draw(st.booleans()):
        at = data.draw(st.integers(0, len(tokens) - 1))
        tokens[at] = tokens[at].zfill(data.draw(st.integers(9, 12)))
    long_token = max(map(len, tokens)) > 8  # n itself is out of range at n = 10**8
    lines = [f"e {u} {v}\n" for u, v in zip(tokens[0::2], tokens[1::2])]
    if fault == "letter":
        lines[-1] = lines[-1][:-2] + "x\n"
    elif fault == "tab":
        lines[-1] = lines[-1].replace(" ", "\t", 1)
    elif fault == "record":
        lines[-1] = "x" + lines[-1][1:]
    elif fault == "prefix":
        lines[-1] = "7" + lines[-1]
    body = f"dug 1 {n} {len(pairs)}\n{''.join(lines)}".encode()
    with mock.patch("dug.graph._READ_CHUNK", chunk):
        bulk = bulk_edges(body)
    if long_token or fault in ("u >= v", "letter", "tab", "record", "prefix"):
        assert bulk is None
    else:
        assert np.array_equal(bulk, pairs) and bulk.dtype == np.int32
    if n > BUILT_N:
        return
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / "g.dug"
        f.write_bytes(body)
        with mock.patch("dug.graph._READ_CHUNK", chunk):
            got, tails = load_traced(f)
        assert got == line_parser_outcome(f)
    if fault in ("none", "tab"):  # the line parser takes a tab for a space
        assert got == ExplicitGraph.from_edges(n, pairs)
    else:
        assert got == (ParseError, len(lines) + 1)
    assert tails == [None] if bulk is None else np.array_equal(tails[0], pairs)


def same_edges(a, b) -> bool:
    """Both None, or equal int32 endpoint arrays."""
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype == np.int32 and np.array_equal(a, b)


@contextmanager
def fixed_width_lines():
    """A list of the lines each read's _fixed_width_words call decodes, 0 where it declines."""
    lines = []
    fixed_width_words = dug.graph._fixed_width_words

    def spy(*args):
        x = fixed_width_words(*args)
        lines.append(0 if x is None else x.shape[1])
        return x

    with mock.patch("dug.graph._fixed_width_words", spy):
        yield lines


def decode_both_ways(data: bytes):
    """(bulk_edges(data), the same with every read split at its separators,
    the lines the fixed-width path decoded in the first)."""
    with fixed_width_lines() as fixed:
        got = bulk_edges(data)
    with mock.patch("dug.graph._fixed_width_words", lambda *args: None):
        general = bulk_edges(data)
    return got, general, sum(fixed)


def check_load_matches_line_parser(body: bytes, chunk: int):
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / "g.dug"
        f.write_bytes(body)
        with mock.patch("dug.graph._READ_CHUNK", chunk):
            got, _ = load_traced(f)
        assert got == line_parser_outcome(f)


def draw_pair(draw, a, b):
    """(u, v): u of a digits below v of b >= a digits."""
    v = draw(st.integers(10 ** (b - 1) + 1 if b > 1 else 1, 10**b - 1))
    return draw(st.integers(10 ** (a - 1) if a > 1 else 0, min(10**a, v) - 1)), v


@st.composite
def layout_runs(draw):
    """Edge lines in runs of one layout: u of a digits, v of b >= a digits, u < v."""
    lines = []
    for _ in range(draw(st.integers(1, 5))):
        a = draw(st.integers(1, _MAX_DIGITS))
        b = draw(st.integers(a, _MAX_DIGITS))
        lines += [draw_pair(draw, a, b) for _ in range(draw(st.integers(1, 6)))]
    return lines


@settings(max_examples=300, deadline=None)
@given(layout_runs(), st.integers(8, 64))
def test_fixed_width_reads_decode_as_the_general_path(pairs, chunk):
    """Reads of a few lines, some of one layout and some mixed, decode alike either way."""
    n = max(v for _, v in pairs) + 1
    lines = "".join(f"e {u} {v}\n" for u, v in pairs)
    body = f"dug 1 {n} {len(pairs)}\n{lines}".encode()
    with mock.patch("dug.graph._READ_CHUNK", chunk):
        got, general, _ = decode_both_ways(body)
    assert same_edges(got, general) and np.array_equal(got, pairs)
    if n <= 10**4:
        check_load_matches_line_parser(body, chunk)


UNIFORM_FAULTS = ["none", "e to f", "space to tab", "newline to CR", "digit to /",
                  "digit to :", "u >= v", "9 digits", "mixed layout"]


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from([(1, 1), (1, 3), (2, 2), (3, 4), (4, 4), (5, 8), (8, 8)]),
       st.sampled_from(UNIFORM_FAULTS))
def test_faults_in_a_uniform_read_meet_todays_result(data, widths, fault):
    """One read of 6 lines of one layout, one byte class broken on a line before the last.

    The fixed-width path refuses the read, or (u >= v) decodes it for the
    check both paths share.  An 'f' or a tab that begins the first line
    would only move the edge block's start to the next.
    """
    a, b = widths
    pairs = [draw_pair(data.draw, a, b) for _ in range(6)]
    lines = [f"e {u} {v}\n" for u, v in pairs]
    at = data.draw(st.integers(1 if fault in ("e to f", "space to tab") else 0, len(lines) - 2))
    line, u, v = lines[at], *pairs[at]
    digit = data.draw(st.sampled_from([i for i, c in enumerate(line) if c.isdigit()]))
    space = line.index(" ", 2)
    if fault == "e to f":
        line = "f" + line[1:]
    elif fault == "space to tab":
        tab = data.draw(st.sampled_from([1, space]))
        line = line[:tab] + "\t" + line[tab + 1:]
    elif fault == "newline to CR":
        line = line[:-1] + "\r"
    elif fault in ("digit to /", "digit to :"):
        line = line[:digit] + fault[-1] + line[digit + 1:]
    elif fault == "u >= v":
        line = f"e {v} {u}\n" if a == b else f"e {u} {u:0{b}d}\n"
    elif fault == "9 digits":
        line = f"e {u} {v:09d}\n"
    elif fault == "mixed layout":  # the same length, the second space one column over
        chars, to = list(line), space - 1 if a > 1 else space + 1
        chars[space], chars[to] = chars[to], chars[space]
        line = "".join(chars)
    lines[at] = line
    body = f"dug 1 {10**b} {len(pairs)}\n{''.join(lines)}".encode()
    got, general, fixed = decode_both_ways(body)
    assert same_edges(got, general)
    assert fixed == (len(lines) if fault in ("none", "u >= v") else 0)
    if fault == "none":
        assert np.array_equal(got, pairs)
    if b <= 4:
        check_load_matches_line_parser(body, dug.graph._READ_CHUNK)


def test_benchmark_blow_up_loads_mostly_by_the_fixed_width_path(tmp_path):
    # Lines are sorted by u, so the 12-byte lines 'e uuuu vvvv' fill the file's tail.
    g = blow_up(build_explicit(HanoiParams(16, 2, proper=True)), 5000)
    f = tmp_path / "big.dug"
    save_edge_list(g, f)
    with fixed_width_lines() as fixed:
        assert load_edge_list(f) == g
    assert 4 * sum(fixed) >= 3 * g.m


def test_edge_list_io_memory_is_bounded(tmp_path):
    # The benchmark's blow-up: G*_{16,2} to 5 000 vertices, 778 636 edges, a 9.06 MB file.
    g = blow_up(build_explicit(HanoiParams(16, 2, proper=True)), 5000)
    f = tmp_path / "big.dug"
    save_peak = traced_peak(lambda: save_edge_list(g, f))
    load_peak = traced_peak(lambda: load_edge_list(f))
    assert g.m == 778_636
    assert save_peak <= 1_500_000
    assert load_peak <= 8_200_000  # its 6.27 MB CSR, the labels and one read
    assert load_edge_list(f) == g
    # from the bulk reader's int32 edges: 8 B per edge of uint32 keys, which become the indices
    edges = g.edge_array().astype(np.int32)
    assert traced_peak(lambda: ExplicitGraph.from_edges(g.n, edges)) <= 9 * g.m


def test_working_memory_does_not_grow_with_m(tmp_path):
    # Unlabeled, so that label strings play no part: G*_{16,2} blown up to
    # 5 000 and to 10 000 vertices, with four times the edges.
    base = build_explicit(HanoiParams(16, 2, proper=True))
    base = ExplicitGraph(base.n, base.indptr, base.indices, None)
    working = []
    for n_target, m in [(5000, 778_636), (10_000, 3_112_905)]:
        built, loaded = [], []
        blow_peak = traced_peak(lambda: built.append(blow_up(base, n_target)))
        g = built.pop()
        csr = g.indptr.nbytes + g.indices.nbytes
        f = tmp_path / f"{n_target}.dug"
        save_peak = traced_peak(lambda: save_edge_list(g, f))
        load_peak = traced_peak(lambda: loaded.append(load_edge_list(f)))
        assert g.m == m and loaded.pop() == g
        working.append((save_peak, load_peak - csr, blow_peak - csr))
        del g
    (save5, load5, blow5), (save10, load10, blow10) = working
    assert abs(save10 - save5) < 250_000
    assert abs(load10 - load5) < 250_000
    # blow_up holds a base vertex per output vertex, 8 B each.
    assert abs(blow10 - blow5) < 500_000


@pytest.mark.parametrize("n", [10**12, DEFAULT_STATE_CAP + 1])
@pytest.mark.parametrize("rest", ["1\ne 0 1\n", "0\n"], ids=["bulk", "line"])
def test_header_vertex_count_past_the_cap_is_refused(tmp_path, n, rest):
    f = tmp_path / "huge.dug"
    f.write_text(f"dug 1 {n} {rest}")

    def load():
        want = rf"^header declares {n} vertices \(cap {DEFAULT_STATE_CAP}\)$"
        with pytest.raises(TooLarge, match=want):
            load_edge_list(f)

    assert traced_peak(load) < 100_000


def test_header_edge_count_is_trusted_only_as_far_as_the_file_goes(tmp_path):
    # The bulk reader's buffer is sized by the header's m, capped at one edge per 6 bytes.
    f = tmp_path / "short.dug"
    f.write_text(f"dug 1 3 {10**12}\ne 0 1\ne 1 2\n")

    def load():
        with pytest.raises(InconsistentHeader, match=f"^header declares {10**12} edges, file has 2$"):
            load_edge_list(f)

    assert traced_peak(load) < 100_000


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

    @pytest.mark.parametrize("n_target", [10**8, 10**30])
    def test_size_cap(self, n_target):
        # 10**8 vertices from G*_{16,2} would take 2.21 PiB of edge arrays.
        with pytest.raises(TooLarge, match=f"^blow-up to {n_target} vertices would have"):
            blow_up(build_explicit(HanoiParams(16, 2, proper=True)), n_target)

    @pytest.mark.parametrize("n_target", [3, 0])
    def test_no_vertices(self, n_target):
        with pytest.raises(ValueError, match="^cannot blow up a graph with no vertices$"):
            blow_up(ExplicitGraph.from_edges(0, []), n_target)

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

    @given(small_graphs(max_n=7), st.integers(0, 12))
    @example(ExplicitGraph.from_edges(3, []), 2)
    @example(ExplicitGraph.from_edges(3, [(0, 2)], labels=["a", "b", "c"]), 0)
    def test_matches_triple_loop(self, g, extra):
        if g.n == 0:
            return
        n_target = g.n + extra
        q, rem = divmod(n_target, g.n)
        counts = [q + 1 if v < rem else q for v in range(g.n)]
        offsets = [0, *accumulate(counts)]
        edges = [(cu, cv) for u, v in reference_edges(g)
                 for cu in range(offsets[u], offsets[u + 1])
                 for cv in range(offsets[v], offsets[v + 1])]
        labels = None
        if g.labels is not None:
            labels = [f"{g.labels[v]}:{i}" for v in range(g.n) for i in range(counts[v])]
        edge_arr = np.array(edges, dtype=np.int64).reshape(-1, 2)
        want = ExplicitGraph.from_edges(n_target, edge_arr, labels)
        assert blow_up(g, n_target) == want
        # The size cap counts the result's vertices and edges exactly.
        with mock.patch("dug.graph.DEFAULT_STATE_CAP", max(n_target, want.m)):
            assert blow_up(g, n_target) == want
        with mock.patch("dug.graph.DEFAULT_STATE_CAP", max(n_target, want.m) - 1):
            with pytest.raises(TooLarge):
                blow_up(g, n_target)

    @given(small_graphs(max_n=7), st.integers(1, 4), st.integers(0, 6),
           st.sampled_from([1 << 16, 1, 2, 5]))
    @example(ExplicitGraph.from_edges(4, [(1, 2)]), 1, 0, 1 << 16)  # isolated vertices, n_target = n
    @example(ExplicitGraph.from_edges(3, [(0, 2)], labels=["a", "b", "c"]), 3, 0, 2)  # rem = 0
    @example(ExplicitGraph.from_edges(3, [(0, 1), (1, 2)], labels=["a", "b", "c"]), 2, 2, 5)
    def test_csr_equals_the_sorted_edge_build(self, g, q, extra, chunk):
        if g.n == 0:
            return
        with mock.patch("dug.graph._EDGE_CHUNK", chunk):  # rows gathered a run at a time
            b = blow_up(g, q * g.n + extra % g.n)
        # from_edges sorts, symmetrises and rejects duplicates: equality shows
        # the direct rows are sorted, symmetric and duplicate-free.
        assert b == ExplicitGraph.from_edges(b.n, b.edge_array(), b.labels)
        assert b.indptr.dtype == np.int64 and b.indices.dtype == np.int32
        assert not (b.indptr.flags.writeable or b.indices.flags.writeable)

    @pytest.mark.parametrize("chunk", [1, 4])
    def test_rows_longer_than_a_run_are_gathered_alone(self, chunk):
        # Each of the 2 * chunk + 6 vertices has a row of chunk + 3 entries.
        with mock.patch("dug.graph._EDGE_CHUNK", chunk):
            b = blow_up(complete_graph(2), 2 * chunk + 6)
        assert (b.degrees() == chunk + 3).all()
        assert b == ExplicitGraph.from_edges(b.n, b.edge_array())

    def test_memory_is_the_result_and_one_block(self):
        # The benchmark's blow-up: G*_{16,2} (labeled) to 5 000 vertices.
        g = build_explicit(HanoiParams(16, 2, proper=True))
        built = []
        peak = traced_peak(lambda: built.append(blow_up(g, 5000)))
        b = built[0]
        assert b.m == 778_636
        assert peak <= 1.2 * (b.indptr.nbytes + b.indices.nbytes)

    def test_memory_near_one_copy_per_vertex(self):
        # One vertex of K_1500 gets two copies: the base rows are as large as the result.
        g = complete_graph(1500)
        built = []
        peak = traced_peak(lambda: built.append(blow_up(g, 1501)))
        b = built[0]
        assert b.m == g.m + 1499
        assert peak <= 2 * (b.indptr.nbytes + b.indices.nbytes)

    def test_colon_labels_stay_unique_and_round_trip(self, tmp_path):
        g = ExplicitGraph.from_edges(3, [(0, 1), (1, 2)], labels=["x", "x:0", "x:1"])
        b = blow_up(g, 7)
        assert b.labels == ("x:0", "x:1", "x:2", "x:0:0", "x:0:1", "x:1:0", "x:1:1")
        f = tmp_path / "b.dug"
        save_edge_list(b, f)
        assert load_edge_list(f) == b

    def test_same_vertex_copies_at_distance_two(self):
        b = blow_up(complete_graph(3), 6)
        dist = bfs_distances(b, 0)
        assert dist[1] == 2  # other copy of vertex 0


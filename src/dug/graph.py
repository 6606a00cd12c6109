"""Explicit graphs: CSR adjacency, edge-list files, Hanoi graph construction, BFS.

Edge-list file format (text, UTF-8):

    dug 1 <n> <m>          header: magic, format version, vertices, edges
    # full-line comments are ignored anywhere
    l <vertex> <text>      optional label lines (all or none of the vertices)
    e <u> <v>              one line per edge, 0-indexed, u < v

Graphs are simple and undirected; distances reported by the BFS helpers use
-1 for unreachable vertices.
"""

from __future__ import annotations

import io
import re
from typing import Iterable, Iterator

import numpy as np

from .hanoi import (
    DEFAULT_STATE_CAP,
    HanoiParams,
    TooLarge,
    _move_ranks,
    _orbit_index,
    _refuse_past_cap,
    _sorted_unique,
    format_state,
    state_matrix,
)


class BadVertex(ValueError):
    """Vertex id outside 0..n-1."""


class TooSmallTarget(ValueError):
    """Blow-up target smaller than the source graph."""


class ParseError(ValueError):
    """Malformed edge-list content; carries the offending line number."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class InconsistentHeader(ValueError):
    """Edge-list body does not match the counts declared in the header."""


# Adjacency entries (and rows) per block of the loops over a CSR: the edge
# enumeration, the writer, CSR assembly and blow_up, which allocate their
# buffers once per call, so their working memory does not grow with m.
_EDGE_CHUNK = 1 << 14
# Bytes the bulk edge reader reads into its one buffer and decodes at a time.
_READ_CHUNK = 1 << 16
# Adjacency entries a BFS pull step gathers at a time (see _pull).
_PULL_BLOCK = 1 << 15
# A BFS level pushes its frontier to the neighbours, instead of pulling, when
# the frontier's rows hold at most 1/_PUSH_SHARE of the adjacency entries.
_PUSH_SHARE = 8


class ExplicitGraph:
    """Immutable simple undirected graph with optional unique vertex labels.

    Adjacency is stored in CSR form (``indptr``/``indices``, neighbor lists
    sorted ascending); instances are safe to share across threads.  The
    all-source distance histograms are kept once computed, by
    :func:`distance_histograms` alone.

    ``classes`` is None, or for each vertex the id of its class's
    representative, where the vertices of one class provably have equal
    distance histograms.  Only :func:`build_explicit` passes it, when it
    makes the graph; it is read-only and cannot be assigned, so the kept
    table is always read through the index it was built from.  The
    constructor refuses, with ValueError, an index that is not a 1-D integer
    array of n vertex ids; only ``dug verify`` certifies its classes.  Equality
    ignores it.  It only makes the all-source table smaller: a graph without
    it gets one row per vertex and the same analyses, and no caller that
    names its sources depends on it.
    """

    __slots__ = ("n", "indptr", "indices", "labels", "_classes", "_histograms")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray,
                 labels: tuple[str, ...] | None, classes: np.ndarray | None = None):
        self.n = n
        self.indptr = indptr
        self.indices = indices
        self.labels = labels
        self._classes = classes
        self._histograms = None
        indptr.setflags(write=False)
        indices.setflags(write=False)
        if classes is not None:
            if not (isinstance(classes, np.ndarray) and classes.dtype.kind in "iu"
                    and classes.shape == (n,)):
                raise ValueError(f"classes must be a 1-D integer array of {n} entries, "
                                 f"got {np.asarray(classes).dtype} of shape {np.shape(classes)}")
            if n and (classes.min() < 0 or classes.max() >= n):
                raise ValueError(f"classes must name vertices in 0..{n - 1}")
            classes.setflags(write=False)

    @classmethod
    def from_edges(cls, n: int, edges, labels=None) -> "ExplicitGraph":
        """Build and validate a graph from an iterable (or array) of (u, v) pairs.

        It serves tests and library callers; the file loader builds its
        graphs through :meth:`_from_keys`, and the builders (Hanoi graphs,
        blow-ups, truncations) write their CSR directly.  An integer array is
        read as it is, with no widening copy, and never written to; a
        non-empty input of any other dtype (float, bool, object) raises
        ValueError, and an empty one of any dtype gives the edgeless graph.
        The sort keys, one per adjacency entry, are uint32 up to n = 2^16 and
        then become the int32 indices in place; above that they are int64.
        Besides them and the result, assembly holds one block of row bounds,
        duplicate flags or row bases, so a large n with few edges costs
        little more than its indptr.
        """
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError(f"expected {n} labels, got {len(labels)}")
            if len(set(labels)) != n:
                raise ValueError("labels are not unique")
            # A file cannot tell no labels from labels of no vertices.
            labels = labels or None
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        arr = np.asarray(edges)
        if arr.size and arr.dtype.kind not in "iu":
            raise ValueError(f"edge endpoints must be integers, got dtype {arr.dtype}")
        arr = arr.reshape(-1, 2)
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise BadVertex(f"edge endpoint outside 0..{n - 1}")
        u, v = arr.T
        if (u == v).any():
            raise ValueError("self-loop in edge list")
        m = len(arr)
        key = np.empty(2 * m, dtype=np.uint32 if n * n <= 1 << 32 else np.int64)
        np.minimum(u, v, out=key[:m], casting="unsafe")
        np.maximum(u, v, out=key[m:], casting="unsafe")
        return cls._from_keys(n, key, labels)

    @classmethod
    def _from_keys(cls, n: int, key: np.ndarray, labels) -> "ExplicitGraph":
        """The graph of the edges (key[i], key[m + i]), lo < hi, each below n.

        key is uint32 when n * n <= 2^32, else int64; it is consumed: its
        entries become the sort keys and then the neighbour ids.
        """
        # One sort of row * n + col orders the CSR entries and puts a duplicate
        # edge next to its twin.  Both keys are formed in place from lo and hi:
        # lo * (n + 1) + (hi - lo) is lo * n + hi, and adding (hi - lo) * (n - 1)
        # to that gives hi * n + lo.
        kt = key.dtype.type
        m = key.size // 2
        lo, hi = key[:m], key[m:]
        hi -= lo
        lo *= kt(n + 1)
        lo += hi
        hi *= kt(max(n - 1, 0))
        hi += lo
        key.sort()
        # Row w's entries are the keys in [w * n, (w + 1) * n).  The bounds are
        # searched as kt, which n * n itself may overflow, so no key is widened,
        # one block of rows at a time, so nothing else is n-sized.
        indptr = np.empty(n + 1, dtype=np.int64)
        for w in range(0, n, _EDGE_CHUNK):
            bounds = np.arange(w, min(w + _EDGE_CHUNK, n), dtype=kt)
            indptr[w:w + bounds.size] = np.searchsorted(key, bounds * kt(n))
        indptr[n] = 2 * m
        # A key less its row * n is its column; the row bases go a run of rows at a
        # time.  No run splits a row, so a duplicate edge meets its twin in one.
        for lo, hi in _row_runs(indptr, _EDGE_CHUNK):
            run = key[indptr[lo]:indptr[hi]]
            if (run[1:] == run[:-1]).any():
                raise ValueError("duplicate edge in edge list")
            run -= np.repeat(np.arange(lo, hi, dtype=kt) * kt(n), np.diff(indptr[lo:hi + 1]))
        indices = key.view(np.int32) if kt is np.uint32 else key.astype(np.int32)
        return cls(n, indptr, indices, labels)

    @property
    def classes(self) -> np.ndarray | None:
        return self._classes

    @property
    def m(self) -> int:
        return self.indices.size // 2

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors_of(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def _edge_blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The edges (u, v) with u < v, in sorted order, as int32 arrays of u and of v.

        A block holds the edges of one of the :func:`_row_runs` of _EDGE_CHUNK;
        each entry's row is the run's row id repeated by its degree.
        """
        indptr, indices = self.indptr, self.indices
        for lo, hi in _row_runs(indptr, _EDGE_CHUNK):
            rows = np.repeat(np.arange(lo, hi, dtype=np.int32), np.diff(indptr[lo:hi + 1]))
            cols = indices[indptr[lo]:indptr[hi]]
            up = cols > rows
            yield rows[up], cols[up]

    def edge_array(self) -> np.ndarray:
        """(m, 2) int64 array of the edges as (u, v) with u < v, in sorted order."""
        blocks = map(np.column_stack, self._edge_blocks())
        return np.concatenate([np.zeros((0, 2), dtype=np.int64), *blocks])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        for u, v in self._edge_blocks():
            yield from zip(u.tolist(), v.tolist())

    def label_index(self) -> dict[str, int]:
        if self.labels is None:
            raise ValueError("graph has no labels")
        return {lab: v for v, lab in enumerate(self.labels)}

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExplicitGraph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and self.labels == other.labels
        )

    __hash__ = None

    def __repr__(self) -> str:
        lab = "labeled" if self.labels is not None else "unlabeled"
        return f"ExplicitGraph(n={self.n}, m={self.m}, {lab})"


def _row_runs(indptr: np.ndarray, limit: int) -> list[tuple[int, int]]:
    """Runs [lo, hi) of CSR rows with at most ``limit`` adjacency entries
    and at most ``limit`` rows, or of one longer row, in order.  A loop over
    them allocates its temporaries per run, so they stay that small."""
    runs, lo, n = [], 0, indptr.size - 1
    while lo < n:
        hi = int(np.searchsorted(indptr, indptr[lo] + limit, side="right")) - 1
        hi = min(max(hi, lo + 1), lo + limit)
        runs.append((lo, hi))
        lo = hi
    return runs


def build_explicit(params: HanoiParams, cap: int = DEFAULT_STATE_CAP) -> ExplicitGraph:
    """Explicit Hanoi state graph: vertices in lexicographic state order, labeled by state text.

    The cap bounds both the state count and the edge count, both checked by
    hanoi._refuse_past_cap before any state is enumerated.  Row v of the CSR
    adjacency is row v of hanoi._move_ranks, each move's target computed on
    ranks, sorted and without the -1 of illegal moves; the verify suite
    checks it against the move rules, applied state by state.

    Each value renaming of the mode is an automorphism of the graph, so
    ``classes`` is hanoi._orbit_index, mapping each state to the canonical
    state of its orbit, and the all-source analyses scan one source per
    orbit.  The verify suite certifies that index with the move table.
    """
    _refuse_past_cap(params, cap)
    n = params.state_count()
    S = state_matrix(params, cap)
    table = _move_ranks(S, params)
    table.sort(axis=1)  # the illegal moves' -1 first
    legal = table >= 0
    indptr = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(legal.sum(axis=1))])
    indices = table[legal]
    del table, legal
    labels = tuple(map(format_state, S.tolist()))
    return ExplicitGraph(n, indptr, indices, labels, _orbit_index(S, params))


def bfs_distances(g: ExplicitGraph, source: int) -> np.ndarray:
    """Exact shortest-path distances from one source; -1 for unreachable vertices.

    Hand-rolled queue BFS; serves as the oracle the faster bulk scans are
    checked against.
    """
    if not 0 <= source < g.n:
        raise BadVertex(f"source {source} outside 0..{g.n - 1}")
    dist = np.full(g.n, -1, dtype=np.int32)
    dist[source] = 0
    queue = [source]
    head = 0
    indptr, indices = g.indptr, g.indices
    while head < len(queue):
        v = queue[head]
        head += 1
        dv = dist[v] + 1
        for w in indices[indptr[v]:indptr[v + 1]]:
            if dist[w] < 0:
                dist[w] = dv
                queue.append(w)
    return dist


def _source_ids(g: ExplicitGraph, sources: Iterable[int] | None) -> np.ndarray:
    """The sources as int64 vertex ids, every vertex when None; BadVertex outside 0..n-1."""
    if sources is None:
        return np.arange(g.n, dtype=np.int64)
    srcs = np.asarray(list(sources), dtype=np.int64)
    if srcs.size and (srcs.min() < 0 or srcs.max() >= g.n):
        raise BadVertex(f"source outside 0..{g.n - 1}")
    return srcs


def _pull_blocks(g: ExplicitGraph) -> list[tuple[int, int, slice | np.ndarray, np.ndarray]]:
    """The :func:`_row_runs` of at most _PULL_BLOCK adjacency entries and rows.

    Each block is (first entry, end entry, its rows that have neighbours as a
    slice or an index array, their first entries counted from the block's).
    Blocks with no entries are left out.
    """
    indptr = g.indptr
    has_nbrs = np.diff(indptr) > 0
    blocks = []
    for lo, hi in _row_runs(indptr, _PULL_BLOCK):
        nz = has_nbrs[lo:hi]
        if nz.any():
            rows = slice(lo, hi) if nz.all() else np.flatnonzero(nz) + lo
            start = int(indptr[lo])
            blocks.append((start, int(indptr[hi]), rows, indptr[lo:hi][nz] - start))
    return blocks


def _pull(g: ExplicitGraph, front: np.ndarray, blocks, reached: np.ndarray) -> None:
    """Set reached[v] to the OR of front over v's neighbours, one block of rows at a time.

    A block's gathered words and numpy's intp copy of its int32 indices stay
    in cache, where one gather over all 2m entries makes both afresh in
    memory.  Rows without neighbours are not written.
    """
    for start, end, rows, starts in blocks:
        reached[rows] = np.bitwise_or.reduceat(np.take(front, g.indices[start:end]), starts)


def _push(g: ExplicitGraph, hit: np.ndarray, words: np.ndarray, reached: np.ndarray) -> None:
    """OR the words of vertices ``hit`` into their neighbours' entries of reached."""
    starts = g.indptr[hit]
    lengths = g.indptr[hit + 1] - starts
    entries = _ranges(starts, lengths)
    np.bitwise_or.at(reached, g.indices[entries], np.repeat(words, lengths))


def _ranges(firsts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges firsts[i] .. firsts[i] + lengths[i] - 1, one after another (lengths not empty)."""
    ends = np.cumsum(lengths)
    return np.repeat(firsts - ends + lengths, lengths) + np.arange(ends[-1])


def _levels(g: ExplicitGraph, chunk: np.ndarray, degrees: np.ndarray,
            blocks) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield each BFS level's frontier from up to 64 sources: (vertex ids, uint64 words).

    Bit j of a frontier word says that source ``chunk[j]`` first reaches the
    vertex at this level; level 0 holds the sources.  The sweep stops after
    the level at which every vertex holds every source's bit, or when a level
    reaches nothing new.
    """
    mask = np.uint64((1 << chunk.size) - 1)
    seen = np.zeros(g.n, dtype=np.uint64)
    np.bitwise_or.at(seen, chunk, np.uint64(1) << np.arange(chunk.size, dtype=np.uint64))
    front = seen.copy()
    reached = np.zeros(g.n, dtype=np.uint64)
    hit = np.flatnonzero(seen)
    words = seen[hit]
    while True:
        yield hit, words
        # A word holds no bit outside the mask, so the minimum reaches it only
        # when every vertex has every bit.
        if seen.min() == mask:
            return
        if int(degrees[hit].sum()) * _PUSH_SHARE <= g.indices.size:
            _push(g, hit, words, reached)
        else:
            _pull(g, front, blocks, reached)
        # What reached keeps from earlier levels is all in seen already.
        np.bitwise_and(reached, ~seen, out=front)
        seen |= front
        hit = np.flatnonzero(front)
        if not hit.size:
            return
        words = front[hit]


def _scan(g: ExplicitGraph, srcs: np.ndarray, rows: bool):
    """Yield (chunk, counts, rows or None) for each chunk of up to 64 sources.

    ``counts[i, L]`` is the number of level-L frontier words holding source
    i's bit, so the vertices at distance exactly L; ``rows`` (when asked for)
    is the int32 distance rows of :func:`iter_distance_rows`.
    """
    degrees = g.degrees()
    blocks = _pull_blocks(g)
    for lo in range(0, srcs.size, 64):
        chunk = srcs[lo:lo + 64]
        width = chunk.size
        counts = []
        if rows:
            # Vertex-major while sweeping, so a level rewrites just the vertices it reached.
            dist = np.full((g.n, width), -1, dtype=np.int32)
        for level, (hit, words) in enumerate(_levels(g, chunk, degrees, blocks)):
            # Bit j of a word is source j: its little-endian bytes, unpacked low
            # bit first, give each frontier vertex one 0/1 byte per source in order.
            bits = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), bitorder="little")
            # Summed as uint64 words, blocks of at most 255 vertices add the
            # 0/1 bytes of all 64 sources at once without a carry between them.
            packed = np.add.reduceat(bits.view(np.uint64).reshape(hit.size, 8),
                                     np.arange(0, hit.size, 255), axis=0)
            counts.append(packed.view(np.uint8).reshape(-1, 64).sum(axis=0)[:width])
            if rows:
                block = dist[hit]
                block[bits.view(bool).reshape(hit.size, 64)[:, :width]] = level
                dist[hit] = block
        counts = np.array(counts, dtype=np.int32).T
        yield chunk, counts, np.ascontiguousarray(dist.T) if rows else None


def iter_distance_rows(
    g: ExplicitGraph, sources: Iterable[int] | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Stream (source_ids, int32 distance_rows) chunks; -1 marks unreachable.

    Bit-parallel multi-source BFS (Then et al., VLDB 2014): a chunk of up to 64
    sources keeps one bit per source in a uint64 word per vertex, so one BFS
    level for all of them is one step over the CSR adjacency.  A level whose
    frontier rows hold a small share of the adjacency entries pushes its words
    to their neighbours; any other pulls, ORing each vertex's neighbours' words
    over cache-sized blocks of rows (the direction switch of Beamer et al.,
    *Direction-Optimizing Breadth-First Search*, SC 2012).  A chunk stops once
    every vertex holds every source's bit.  A source's row holds the level at
    which its bit reached each vertex.  The chunks follow ``sources`` in the
    order given (every vertex in order when None), and the rows are never kept.
    """
    for chunk, _, rows in _scan(g, _source_ids(g, sources), rows=True):
        yield chunk, rows


def _class_ids(g: ExplicitGraph) -> np.ndarray:
    """The sources of the all-source table: one per class of ``g.classes``, else every vertex."""
    return np.arange(g.n, dtype=np.int64) if g.classes is None else _sorted_unique(g.classes)


def distance_histograms(
    g: ExplicitGraph, sources: Iterable[int] | None = None
) -> tuple[np.ndarray, np.ndarray, bool]:
    """(source ids, table, connected): table[i, L] vertices at distance exactly L from source i.

    The ids are the sources in the order given, and ``table`` is a read-only
    int32 array as wide as the largest finite distance seen plus one;
    unreachable vertices are in no column, and ``connected`` is False when
    any source misses a vertex.  With ``sources`` None the table covers every
    vertex with one row per class of ``g.classes`` (per vertex when the graph
    has none), the ids are the class representatives, and the result is kept
    on the graph, so later calls (and every all-source analysis) reuse one
    sweep; a call naming sources neither reads nor stores it.  This is the
    only function that writes the kept table.

    The counts come straight from the sweep of :func:`iter_distance_rows`,
    push and pull steps alike (Beamer et al., SC 2012): ``table[i, L]`` is the
    number of level-L frontier words with bit i set, so no distance row is made.
    """
    if sources is None and g._histograms is not None:
        return g._histograms
    ids = _class_ids(g) if sources is None else _source_ids(g, sources)
    chunks = [counts for _, counts, _ in _scan(g, ids, rows=False)]
    table = np.zeros((ids.size, max((c.shape[1] for c in chunks), default=1)), dtype=np.int32)
    lo = 0
    for counts in chunks:
        table[lo:lo + len(counts), :counts.shape[1]] = counts
        lo += len(counts)
    ids.setflags(write=False)
    table.setflags(write=False)
    result = ids, table, bool((table.sum(axis=1) == g.n).all())
    if sources is None:
        g._histograms = result
    return result


def diameter(g: ExplicitGraph) -> tuple[int, bool]:
    """(max finite distance over all pairs, connected flag), from the all-source histograms."""
    _, table, connected = distance_histograms(g)
    return table.shape[1] - 1, connected


def blow_up(g: ExplicitGraph, n_target: int) -> ExplicitGraph:
    """Replace vertex v by an independent set of copies, joined exactly when originals were.

    The first n_target mod n vertices get the ceiling copy count, the rest the
    floor.  Labels (when present) gain a ':<copy>' suffix; they stay unique
    because the text after the last ':' is the copy number.  Raises
    :class:`TooLarge`, before building anything, when the result would have
    more than DEFAULT_STATE_CAP vertices or edges.

    The CSR is built directly, with no edge list to sort: every copy of v has
    the same row, the copy ranges of v's neighbours in order, which is sorted
    and free of duplicates because g is simple.  It is written one of the
    :func:`_row_runs` of _EDGE_CHUNK entries at a time: :func:`_ranges` lists
    the run's base entries, then their neighbours' copy ranges, each range
    an offset repeated by its length plus one arange, as a BFS push step
    lists its frontier's entries.
    """
    if g.n == 0:
        raise ValueError("cannot blow up a graph with no vertices")
    if n_target < g.n:
        raise TooSmallTarget(f"target {n_target} below vertex count {g.n}")
    q, rem = divmod(n_target, g.n)
    # v's neighbours below rem: as g is symmetric, its entries in those rows.
    low = np.bincount(g.indices[:g.indptr[rem]], minlength=g.n)
    # An edge gains q * q copies, q more per end below rem, and one more when
    # both ends are: the entries of the rows below rem count the ends, and
    # low[:rem] counts the edges with both ends there twice.
    m_out = q * q * g.m + q * int(g.indptr[rem]) + int(low[:rem].sum()) // 2
    if max(n_target, m_out) > DEFAULT_STATE_CAP:
        raise TooLarge(f"blow-up to {n_target} vertices would have {m_out} edges; "
                       f"vertices and edges are capped at {DEFAULT_STATE_CAP}")
    counts = np.full(g.n, q, dtype=np.int64)
    counts[:rem] += 1
    owner = np.repeat(np.arange(g.n), counts)
    # A copy of v has q entries per neighbour of v, and one more per neighbour below rem.
    degrees = g.degrees()
    low += q * degrees
    indptr = np.zeros(n_target + 1, dtype=np.int64)
    np.cumsum(np.take(low, owner, out=indptr[1:], mode="clip"), out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    for lo, hi in _row_runs(indptr, _EDGE_CHUNK):
        a, b = indptr[lo], indptr[hi]
        if a < b:
            base = owner[lo:hi]
            w = g.indices[_ranges(g.indptr[base], degrees[base])]
            # w's copies are w * q + min(w, rem) up to the next vertex's first copy.
            indices[a:b] = _ranges(w * q + np.minimum(w, rem), (w < rem) + q)
    labels = None
    if g.labels is not None:
        labels = tuple(f"{lab}:{i}" for lab, c in zip(g.labels, counts.tolist())
                       for i in range(c))
    return ExplicitGraph(n_target, indptr, indices, labels)


def save_edge_list(g: ExplicitGraph, path) -> None:
    """Write the graph in the `dug 1` edge-list format (lossless, labels included).

    Raises ValueError, before the file is opened, for labels that would not
    load back unchanged: not one per vertex, a repeated one, or one that is
    not a str, is empty, holds a line break, has leading or trailing
    whitespace, or that UTF-8 cannot encode (it holds a lone surrogate).
    Label lines are formatted _EDGE_CHUNK at a time by one str.join, and
    edge lines byte for byte as '%d' would, _EDGE_CHUNK at a time, by
    :func:`_edge_lines`.
    """
    for v, lab in enumerate(g.labels or ()):
        if (not isinstance(lab, str) or not lab or lab != lab.strip()
                or "\n" in lab or "\r" in lab or not _is_utf8(lab)):
            raise ValueError(f"label {lab!r} of vertex {v} would not load back unchanged")
    if g.labels is not None and (len(g.labels) != g.n or len(set(g.labels)) != g.n):
        raise ValueError(f"{len(g.labels)} labels, {len(set(g.labels))} distinct, "
                         f"for {g.n} vertices would not load back unchanged")
    with open(path, "wb") as fh:
        fh.write(f"dug 1 {g.n} {g.m}\n".encode())
        labels = g.labels or ()
        for a in range(0, len(labels), _EDGE_CHUNK):
            block = labels[a:a + _EDGE_CHUNK]
            fh.write("".join(map("l {} {}\n".format, range(a, a + len(block)), block)).encode())
        lines = _edge_lines(g.n, min(g.m, _EDGE_CHUNK))
        for u, v in g._edge_blocks():
            for i in range(0, u.size, _EDGE_CHUNK):
                fh.write(lines(u[i:i + _EDGE_CHUNK], v[i:i + _EDGE_CHUNK]))


def _edge_lines(n: int, size: int):
    """A function that turns up to ``size`` edges of a graph of n vertices,
    as int arrays u and v, into the bytes of their lines 'e %d %d\\n'.

    Each id is g four-digit groups, where g is 1 up to n = 10^4 and else 2
    (the 2^26 cap has 8 digits).  The lines are the rows of one (size, L)
    uint8 table, L = 8g + 4, reused by every call: 'e', a space, u's 4g
    cells, a space, v's and '\\n'.  A group's 4 cells are one uint32, taken
    from a table of the 10^4 group values through a byte-strided view: the
    leading group's text has NUL for its leading zeros (and is four NULs
    for 0 when a lower group follows), a lower group's is zero-padded.
    bytes.replace, which skips from one NUL to the next, drops the few NULs
    of one group; bytes.translate, one pass over every byte, drops the many
    of two, where every id below 10^4 leads with four.  The group table is
    built here, from uint8 and uint16 temporaries, so importing dug costs
    nothing for it.
    """
    groups = 1 if n <= 10**4 else 2
    width = 4 * groups
    cells = np.zeros((size, 2 * width + 4), dtype=np.uint8)
    cells[:, 0], cells[:, 1], cells[:, width + 2], cells[:, -1] = (
        ord("e"), ord(" "), ord(" "), ord("\n"))
    # text[x] for x < 10^4 is x NUL-led, text[10^4 + x] x zero-padded.
    x = np.arange(10**4, dtype=np.uint16)
    digits = np.empty((2, 10**4, 4), dtype=np.uint8)
    for col, p in enumerate((1000, 100, 10, 1)):
        np.add(x // p % 10, ord("0"), out=digits[1, :, col], casting="unsafe")
        np.multiply(digits[1, :, col], x >= (p if p > 1 else 0), out=digits[0, :, col])
    text = digits.reshape(-1, 4).view(np.uint32)[:, 0]
    lead = text[:10**4].copy()
    lead[0] = 0

    # mode="clip" makes take write into out directly; every index here is in range.
    def lines(u: np.ndarray, v: np.ndarray) -> bytes:
        table = cells[:u.size]
        for ids, col in ((u, 2), (v, width + 3)):
            out = table[:, col:col + width].view(np.uint32)
            if groups == 1:
                np.take(text, ids, out=out[:, 0], mode="clip")
                continue
            high = ids // 10**4
            np.take(lead, high, out=out[:, 0], mode="clip")
            # The low group is text[ids], NUL-led, below 10^4, else text[10^4 + ids % 10^4].
            np.maximum(high, 1, out=high)
            high -= 1
            np.take(text, ids - high * 10**4, out=out[:, 1], mode="clip")
        data = table.tobytes()
        return data.replace(b"\0", b"") if groups == 1 else data.translate(None, b"\0")

    return lines


def _is_utf8(text: str) -> bool:
    try:
        text.encode()
    except UnicodeEncodeError:
        return False
    return True


def load_edge_list(path) -> ExplicitGraph:
    """Parse a `dug 1` edge-list file back into a graph.

    Raises :class:`ParseError` (with the line number) for malformed lines,
    out-of-range vertices, self-loops, u >= v, or duplicates, and
    :class:`InconsistentHeader` when the body disagrees with the header, and
    :class:`TooLarge` when it declares more than DEFAULT_STATE_CAP vertices.

    The run of canonical lines 'e <u> <v>\\n' that ends a file, from its first
    line that begins 'e ', is read in bulk (see :func:`_canonical_edges`) when
    it holds exactly the edge count the header declares; the lines before it
    go through the line parser.  When that run holds any other line or count,
    or the file has any fault, the whole file is parsed line by line, so
    errors and their line numbers come from one parser.

    A file, unlike a pipe, is never held whole: the head before that run is
    kept, and the run is streamed into an int32 buffer of the header's edge
    count, which becomes the sort keys and then the CSR indices in place, so
    loading holds little beyond its result.
    """
    with open(path, "rb") as raw:
        # A pipe is held whole, as the line parser may need to read it again.
        fh = raw if raw.seekable() else io.BytesIO(raw.read())
        size = fh.seek(0, io.SEEK_END)
        fh.seek(0)
        head, split = bytearray(), 0
        while not split and (more := fh.read(min(_READ_CHUNK, size + 1))):
            head += more
            split = head.find(b"\ne ", max(len(head) - len(more) - 2, 0)) + 1
        if split:
            del head[split:]
            fh.seek(split)
            # The count the run must hold; the line parser checks the header.
            declared = re.search(rb"^\s*dug\s+\S+\s+\S+\s+(\d{1,18})\s*$", head, re.M)
            tail = _canonical_edges(fh, size - split, int(declared[1]) if declared else 0)
            if tail is not None:
                try:
                    with io.TextIOWrapper(io.BytesIO(head), encoding="utf-8") as lines:
                        return _parse_lines(lines, tail)
                except ValueError:  # the whole-file parse below reports it, with its line
                    pass
        fh.seek(0)
        with io.TextIOWrapper(fh, encoding="utf-8") as lines:
            return _parse_lines(lines)


# Longest vertex id the bulk reader decodes: one 8-byte word.  Ids up to
# the 2^26 cap have at most 8 digits; a longer token sends the file to the
# line parser.
_MAX_DIGITS = 8
_ZERO_CHARS = np.uint64(0x3030303030303030)
# _KEEP[j] keeps the top j + 1 bytes of a word: the digits of a (j + 1)-digit
# token whose load ends at its last digit.
_KEEP = np.array([(1 << 64) - (1 << 8 * (7 - j)) for j in range(8)], dtype=np.uint64)
# A byte of a word XORed with '0' is a digit exactly when adding 0x76 leaves
# its top bit clear, as it was; a carry into the next byte comes only from a
# byte that fails the test itself.
_DIGIT_TEST = np.uint64(0x7676767676767676)
_TOP_BITS = np.uint64(0x8080808080808080)


def _canonical_edges(fh, size: int, m: int) -> np.ndarray | None:
    """(m, 2) int32 endpoints of the m lines 'e <u> <v>' that fill the rest of fh, or None.

    fh is a binary file at the first of those lines, size the bytes left,
    and m the edge count the header declares (0 if unread).  None, before
    anything is read, when the run cannot hold m lines (a line has at least
    6 bytes), and else as soon as a line differs or the run holds more or
    fewer than m lines; the line parser then reports the fault.  Each line must
    be 'e', a space, a run of 1 to _MAX_DIGITS ASCII digits, a space, another
    such run and '\\n', with u < v.  The file is read into one buffer,
    _READ_CHUNK bytes at a time (at most size + 1), and the whole lines of
    each read are checked and decoded together, so the temporaries stay that
    small whatever the file's size; the partial last line, with the 8 bytes
    before it, moves to the front for the next read.  A read whose lines all
    have its first line's layout is a fixed-width table, checked column by
    column (see :func:`_fixed_width_words`); any other read is split at its
    separators (see :func:`_separated_words`).  Either way its u tokens, then
    its v tokens, are decoded together into the read's columns of one
    (2, m) array, whose transpose is returned: its two rows, every u and
    then every v, are the layout of the keys of ExplicitGraph._from_keys.

    A token is decoded with the SWAR digit trick (Langdale & Lemire, *Parsing
    gigabytes of JSON per second*, VLDB J. 2019): one little-endian 8-byte
    load that ends at its last digit, XOR '0' from every byte, the bytes
    before the token masked off, then three multiply-shift-mask steps that
    join digits pairwise into 2-, 4- and 8-digit values.
    """
    if not 0 < 6 * m <= size:
        return None
    edges = np.empty((2, m), dtype=np.int32)
    # buf[:8] holds the bytes before the read, which the first token's load
    # reads and masks off; buf[8:end] the read and the next partial line, of
    # at most 2 * _MAX_DIGITS + 3 bytes.  words[i] is the uint64 of buf[i:i + 8].
    buf = bytearray(min(_READ_CHUNK, size + 1) + 2 * _MAX_DIGITS + 12)
    data, view, sep = np.frombuffer(buf, dtype=np.uint8), memoryview(buf), np.empty(len(buf), bool)
    words = np.ndarray((len(buf) - 7,), dtype="<u8", buffer=buf, strides=(1,))
    end, row = 8, 0
    while got := fh.readinto(view[end:]):
        end += got
        stop = buf.rfind(b"\n", 8, end) + 1
        if end - max(stop, 8) > 2 * _MAX_DIGITS + 3:  # longer than any canonical line
            return None
        if stop <= 8:  # no whole line yet
            continue
        x = _fixed_width_words(buf, data, stop)
        if x is None:
            x = _separated_words(data, words, sep, stop)
            if x is None:
                return None
        x *= np.uint64(10 << 8 | 1)
        x >>= np.uint64(8)
        x &= np.uint64(0x00FF00FF00FF00FF)
        x *= np.uint64(100 << 16 | 1)
        x >>= np.uint64(16)
        x &= np.uint64(0x0000FFFF0000FFFF)
        x *= np.uint64(10000 << 32 | 1)
        x >>= np.uint64(32)
        k = x.shape[1]
        if row + k > m or not (x[0] < x[1]).all():
            return None
        edges[:, row:row + k] = x
        row += k
        end -= stop - 8
        data[:end] = data[stop - 8:stop - 8 + end]
    return None if end > 8 or row < m else edges.T


def _fixed_width_words(buf: bytearray, data: np.ndarray, stop: int) -> np.ndarray | None:
    """The (2, k) masked words of the u and v tokens of buf[8:stop] if its lines share one layout.

    The layout is 'e', a space, a digits, a space, b digits and '\\n', with
    a and b of 1 to _MAX_DIGITS.  When the read's length is a multiple of the
    line length L, its bytes are a (k, L) table: the four separator columns
    are compared whole, and each token is loaded through a uint64 view of
    stride L that ends at its last digit, so no separator is searched and no
    offset gathered.  A masked word holds only digits when no byte fails
    _DIGIT_TEST.  None, for the general path to decide, when the layout or
    any byte differs.
    """
    # The first line's columns (from buf[8]) of its second space and its '\n'.
    newline = buf.find(b"\n", 8, stop) - 8
    space = buf.find(b" ", 10, newline + 8) - 8
    a, b = space - 2, newline - space - 1
    k, rest = divmod(stop - 8, newline + 1)
    if rest or not (0 < a <= _MAX_DIGITS and 0 < b <= _MAX_DIGITS):
        return None
    table = data[8:stop].reshape(k, newline + 1)
    if not (table[:, (0, 1, space, newline)] == np.array([ord("e"), 32, 32, 10], np.uint8)).all():
        return None
    x = np.empty((2, k), dtype=np.uint64)
    # A token's load ends at its last digit, column space - 1 or newline - 1
    # of the table, so it starts at buf[space] or buf[newline].
    for out, start, digits in ((x[0], space, a), (x[1], newline, b)):
        np.bitwise_xor(np.ndarray((k,), "<u8", buf, start, (newline + 1,)), _ZERO_CHARS, out=out)
        out &= _KEEP[digits - 1]
    test = x + _DIGIT_TEST
    test |= x
    return None if np.bitwise_or.reduce(test, axis=None) & _TOP_BITS else x


def _separated_words(data: np.ndarray, words: np.ndarray, sep: np.ndarray,
                     stop: int) -> np.ndarray | None:
    """The (2, k) masked words of the u and v tokens of data[8:stop], found by their separators.

    The bytes <= 32 must be space, space, '\\n' on each line, each line's
    first space must be its second byte and follow an 'e', and every other
    byte must be a digit; None when they are not.
    """
    chars = data[8:stop]
    seps = np.flatnonzero(np.less_equal(chars, 32, out=sep[:chars.size]))
    k = seps.size // 3
    if seps.size != 3 * k:
        return None
    # s[j, i] is separator j of line i.  Token j of line i (u, then v)
    # ends just before s[j + 1, i], so its load starts at buf[s[j + 1, i]];
    # lens is its digit count less 1.  A newline is 2 bytes before the
    # next line's first space when only that line's 'e' lies between
    # them; the next read checks its own first line.
    s = seps.reshape(k, 3).T
    lens = np.subtract(s[1:], s[:2], order="C")
    lens -= 2
    # With one newline per line, the 2k other separators are the 2k spaces.
    if not (s[0, 0] == 1 and (lens.view(np.uint64) < _MAX_DIGITS).all()
            and (s[0, 1:] - s[2, :-1] == 2).all()
            and (chars[s[2]] == ord("\n")).all()
            and np.count_nonzero(chars == ord(" ")) == 2 * k
            and (chars[s[0] - 1] == ord("e")).all()
            and np.count_nonzero(chars - ord("0") < 10) == chars.size - 4 * k):
        return None
    x = words[s[1:].ravel()]
    x ^= _ZERO_CHARS
    x &= _KEEP[lens.ravel()]
    return x.reshape(2, k)


def _parse_lines(lines: Iterable[str], tail: np.ndarray | None = None) -> ExplicitGraph:
    """Line-by-line parser for any valid file; the only source of parse errors.

    ``tail`` holds the (m, 2) edges of the lines that follow ``lines`` in the
    file, already read in bulk: exactly the m edges the header declares, so
    the count refuses any edge in ``lines``.  Every graph is built by
    ExplicitGraph._from_keys from one (2, m) array of keys, every u and then
    every v: tail's own buffer, which is then no longer the edges, or the
    parsed edges.
    """
    header = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    label_map: dict[int, str] = {}
    label_texts: set[str] = set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(None, 2)
        if header is None:
            if len(fields) != 3 or fields[0] != "dug":
                raise ParseError(lineno, "missing 'dug <version> <n> <m>' header")
            version, counts = fields[1], fields[2].split()
            if version != "1":
                raise ParseError(lineno, f"unsupported format version {version!r}")
            if len(counts) != 2:
                raise ParseError(lineno, "header needs vertex and edge counts")
            try:
                header = (int(counts[0]), int(counts[1]))
            except ValueError:
                raise ParseError(lineno, "non-integer count in header") from None
            if header[0] < 0 or header[1] < 0:
                raise ParseError(lineno, "negative count in header")
            if header[0] > DEFAULT_STATE_CAP:  # before anything n-sized is allocated
                raise TooLarge(f"header declares {header[0]} vertices (cap {DEFAULT_STATE_CAP})")
            continue
        n = header[0]
        if fields[0] == "l":
            if len(fields) != 3:
                raise ParseError(lineno, "label line needs 'l <vertex> <text>'")
            try:
                v = int(fields[1])
            except ValueError:
                raise ParseError(lineno, "non-integer label vertex") from None
            if not 0 <= v < n:
                raise ParseError(lineno, f"label vertex {v} outside 0..{n - 1}")
            if v in label_map:
                raise ParseError(lineno, f"duplicate label for vertex {v}")
            text = fields[2].strip()
            if not text:
                raise ParseError(lineno, "empty label text")
            if text in label_texts:
                raise ParseError(lineno, f"duplicate label text {text!r}")
            label_map[v] = text
            label_texts.add(text)
        elif fields[0] == "e":
            parts = line.split()
            if len(parts) != 3:
                raise ParseError(lineno, "edge line needs 'e <u> <v>'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(lineno, "non-integer edge endpoint") from None
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(lineno, f"edge endpoint outside 0..{n - 1}")
            if u == v:
                raise ParseError(lineno, "self-loop")
            if not u < v:
                raise ParseError(lineno, "edge endpoints must satisfy u < v")
            if (u, v) in seen:
                raise ParseError(lineno, f"duplicate edge {u} {v}")
            seen.add((u, v))
            edges.append((u, v))
        else:
            raise ParseError(lineno, f"unknown record type {fields[0]!r}")
    if header is None:
        raise InconsistentHeader("empty file: no header found")
    n, m = header
    count = len(edges) if tail is None else len(edges) + len(tail)
    if count != m:
        raise InconsistentHeader(f"header declares {m} edges, file has {count}")
    labels = None
    if label_map:
        if len(label_map) != n:
            raise InconsistentHeader(
                f"labels must cover all {n} vertices, found {len(label_map)}"
            )
        labels = tuple(label_map[v] for v in range(n))
    # u < v on every line, so the two rows are the keys' lo and hi.
    key = (np.array(edges, dtype=np.int32).reshape(-1, 2) if tail is None else tail).T
    if m and key[1].max() >= n:
        raise BadVertex(f"edge endpoint outside 0..{n - 1}")
    key = key.reshape(-1)
    key = key.view(np.uint32) if n * n <= 1 << 32 else key.astype(np.int64)
    return ExplicitGraph._from_keys(n, key, labels)

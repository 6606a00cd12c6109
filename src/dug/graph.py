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

from typing import Iterable, Iterator

import numpy as np

from .hanoi import (
    DEFAULT_STATE_CAP,
    HanoiParams,
    TooLarge,
    encode_states,
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


class ExplicitGraph:
    """Immutable simple undirected graph with optional unique vertex labels.

    Adjacency is stored in CSR form (``indptr``/``indices``, neighbor lists
    sorted ascending); instances are safe to share across threads.
    """

    __slots__ = ("n", "indptr", "indices", "labels")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray,
                 labels: tuple[str, ...] | None):
        self.n = n
        self.indptr = indptr
        self.indices = indices
        self.labels = labels
        indptr.setflags(write=False)
        indices.setflags(write=False)

    @classmethod
    def from_edges(cls, n: int, edges, labels=None) -> "ExplicitGraph":
        """Build and validate a graph from an iterable (or array) of (u, v) pairs."""
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise BadVertex(f"edge endpoint outside 0..{n - 1}")
        if (arr[:, 0] == arr[:, 1]).any():
            raise ValueError("self-loop in edge list")
        lo = arr.min(axis=1)
        hi = arr.max(axis=1)
        key = lo * n + hi
        if np.unique(key).size != key.size:
            raise ValueError("duplicate edge in edge list")
        rows = np.concatenate([lo, hi])
        cols = np.concatenate([hi, lo])
        order = np.lexsort((cols, rows))
        indices = cols[order].astype(np.int32)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError(f"expected {n} labels, got {len(labels)}")
            if len(set(labels)) != n:
                raise ValueError("labels are not unique")
        return cls(n, indptr, indices, labels)

    @property
    def m(self) -> int:
        return self.indices.size // 2

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors_of(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        for u in range(self.n):
            for w in self.neighbors_of(u):
                if u < w:
                    yield u, int(w)

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


def build_explicit(params: HanoiParams, cap: int = DEFAULT_STATE_CAP) -> ExplicitGraph:
    """Explicit Hanoi state graph: vertices in lexicographic state order, labeled by state text.

    The cap bounds both the state count and the edge count.  Adjacency is
    computed arithmetically on lexicographic ranks (see hanoi.state_index);
    the test suite checks this against the move-level neighbors() definition.
    """
    n = params.state_count()
    S = state_matrix(params, cap)
    r, k = params.r, params.k

    if k == 1:
        # Complete graph: every adjustment is legal.
        if n * (n - 1) // 2 > cap:
            raise TooLarge(f"{n * (n - 1) // 2} edges exceed the cap of {cap}")
        iu, iv = np.triu_indices(n, k=1)
        edge_arr = np.column_stack([iu, iv])
    else:
        if n * r // 2 > cap:
            raise TooLarge(f"about {n * r // 2} edges exceed the cap of {cap}")
        idx = np.arange(n, dtype=np.int64)
        last = S[:, -1]
        prev = S[:, -2]
        last_digit = (last - (last > prev)).astype(np.int64)
        base = idx - last_digit
        parts = []
        # Adjustments: same prefix, different last digit.
        for t in range(r):
            mask = last_digit != t
            u = idx[mask]
            v = base[mask] + t
            keep = u < v
            parts.append(np.column_stack([u[keep], v[keep]]))
        # Involutions: swap the last two values on the alternating tail segment.
        seg = np.zeros((n, k), dtype=bool)
        seg[:, -1] = True
        seg[:, -2] = True
        reach = np.ones(n, dtype=bool)
        for col in range(k - 3, -1, -1):
            reach = reach & ((S[:, col] == last) | (S[:, col] == prev))
            seg[:, col] = reach
        swapped = np.where(
            seg & (S == last[:, None]),
            prev[:, None],
            np.where(seg & (S == prev[:, None]), last[:, None], S),
        )
        ok = np.ones(n, dtype=bool)
        if params.proper:
            ok = ~(seg[:, 0] & (swapped[:, 0] == 0))
        u = idx[ok]
        v = encode_states(swapped[ok], params)
        keep = u < v
        parts.append(np.column_stack([u[keep], v[keep]]))
        edge_arr = np.concatenate(parts)

    labels = tuple(",".join(map(str, row)) for row in S.tolist())
    return ExplicitGraph.from_edges(n, edge_arr, labels)


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


def iter_distance_rows(
    g: ExplicitGraph, sources: Iterable[int] | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Stream (source_ids, int32 distance_rows) chunks; -1 marks unreachable.

    Bit-parallel multi-source BFS (Then et al., VLDB 2014): a chunk of up to 64
    sources keeps one bit per source in a uint64 word per vertex, so one BFS
    level for all of them is a gather over the CSR neighbor lists and an OR per
    vertex.  A source's row holds the level at which its bit reached each vertex.
    """
    if sources is None:
        srcs = np.arange(g.n, dtype=np.int64)
    else:
        srcs = np.asarray(list(sources), dtype=np.int64)
    if srcs.size and (srcs.min() < 0 or srcs.max() >= g.n):
        raise BadVertex(f"source outside 0..{g.n - 1}")
    # reduceat needs in-range, non-empty segments: OR only over vertices with neighbors.
    has_nbrs = np.diff(g.indptr) > 0
    starts = g.indptr[:-1][has_nbrs]
    shifts = np.arange(64, dtype=np.uint64)
    for lo in range(0, srcs.size, 64):
        chunk = srcs[lo:lo + 64]
        width = chunk.size
        seen = np.zeros(g.n, dtype=np.uint64)
        np.bitwise_or.at(seen, chunk, np.uint64(1) << shifts[:width])
        rows = np.full((width, g.n), -1, dtype=np.int32)
        rows[np.arange(width), chunk] = 0
        front = seen
        level = 0
        while front.any():
            level += 1
            reached = np.zeros(g.n, dtype=np.uint64)
            reached[has_nbrs] = np.bitwise_or.reduceat(front[g.indices], starts)
            front = reached & ~seen
            seen = seen | front
            hit = np.flatnonzero(front)
            bits = (front[hit, None] >> shifts[:width]) & np.uint64(1)
            vert, src = np.nonzero(bits)
            rows[src, hit[vert]] = level
        yield chunk, rows


def diameter(g: ExplicitGraph) -> tuple[int, bool]:
    """(max finite distance over all pairs, connected flag)."""
    best = 0
    connected = True
    for _, rows in iter_distance_rows(g):
        if (rows < 0).any():
            connected = False
        best = max(best, int(rows.max()))
    return best, connected


def blow_up(g: ExplicitGraph, n_target: int) -> ExplicitGraph:
    """Replace vertex v by an independent set of copies, joined exactly when originals were.

    The first n_target mod n vertices get the ceiling copy count, the rest the
    floor.  Labels (when present) gain a ':<copy>' suffix.
    """
    if n_target < g.n:
        raise TooSmallTarget(f"target {n_target} below vertex count {g.n}")
    q, rem = divmod(n_target, g.n)
    counts = np.full(g.n, q, dtype=np.int64)
    counts[:rem] += 1
    offsets = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    edges = []
    for u, v in g.edges():
        for cu in range(offsets[u], offsets[u + 1]):
            for cv in range(offsets[v], offsets[v + 1]):
                edges.append((cu, cv))
    labels = None
    if g.labels is not None:
        labels = tuple(
            f"{g.labels[v]}:{i}" for v in range(g.n) for i in range(counts[v])
        )
    return ExplicitGraph.from_edges(n_target, np.array(edges, dtype=np.int64), labels)


def save_edge_list(g: ExplicitGraph, path) -> None:
    """Write the graph in the `dug 1` edge-list format (lossless, labels included)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"dug 1 {g.n} {g.m}\n")
        if g.labels is not None:
            for v, lab in enumerate(g.labels):
                fh.write(f"l {v} {lab}\n")
        for u, v in g.edges():
            fh.write(f"e {u} {v}\n")


def load_edge_list(path) -> ExplicitGraph:
    """Parse a `dug 1` edge-list file back into a graph.

    Raises :class:`ParseError` (with the line number) for malformed lines,
    out-of-range vertices, self-loops, u >= v, or duplicates, and
    :class:`InconsistentHeader` when the body disagrees with the header.
    """
    header = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    label_map: dict[int, str] = {}
    label_texts: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
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
    if len(edges) != m:
        raise InconsistentHeader(f"header declares {m} edges, file has {len(edges)}")
    labels = None
    if label_map:
        if len(label_map) != n:
            raise InconsistentHeader(
                f"labels must cover all {n} vertices, found {len(label_map)}"
            )
        labels = tuple(label_map[v] for v in range(n))
    return ExplicitGraph.from_edges(n, np.array(edges, dtype=np.int64).reshape(-1, 2), labels)

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


# Edges turned into Python objects at a time by edges() and save_edge_list:
# bounds the memory they hold.
_EDGE_CHUNK = 1 << 16


class ExplicitGraph:
    """Immutable simple undirected graph with optional unique vertex labels.

    Adjacency is stored in CSR form (``indptr``/``indices``, neighbor lists
    sorted ascending); instances are safe to share across threads.  The
    all-source distance histograms are kept once computed (see
    :func:`distance_histograms`).
    """

    __slots__ = ("n", "indptr", "indices", "labels", "_histograms")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray,
                 labels: tuple[str, ...] | None):
        self.n = n
        self.indptr = indptr
        self.indices = indices
        self.labels = labels
        self._histograms = None
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
        u, v = arr.T
        if (u == v).any():
            raise ValueError("self-loop in edge list")
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        # One sort of row * n + col orders the CSR entries and puts a duplicate
        # edge next to its twin.
        key = np.concatenate([lo * n + hi, hi * n + lo])
        key.sort()
        if (key[1:] == key[:-1]).any():
            raise ValueError("duplicate edge in edge list")
        indices = (key % n).astype(np.int32)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n), out=indptr[1:])
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

    def edge_array(self) -> np.ndarray:
        """(m, 2) int64 array of the edges as (u, v) with u < v, in sorted order."""
        rows = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees())
        upper = self.indices > rows
        return np.column_stack([rows[upper], self.indices[upper].astype(np.int64)])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        arr = self.edge_array()
        for lo in range(0, len(arr), _EDGE_CHUNK):
            yield from zip(*arr[lo:lo + _EDGE_CHUNK].T.tolist())

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
        # Vertex-major while sweeping, so a level rewrites just the vertices it reached.
        dist = np.full((g.n, width), -1, dtype=np.int32)
        dist[chunk, np.arange(width)] = 0
        front = seen
        level = 0
        while front.any():
            level += 1
            reached = np.zeros(g.n, dtype=np.uint64)
            reached[has_nbrs] = np.bitwise_or.reduceat(front[g.indices], starts)
            front = reached & ~seen
            seen = seen | front
            hit = np.flatnonzero(front)
            # Bit j of a word is source j: its little-endian bytes, unpacked low
            # bit first, give each reached vertex one flag per source in order.
            bits = np.unpackbits(front[hit].astype("<u8").view(np.uint8), bitorder="little")
            block = dist[hit]
            block[bits.view(bool).reshape(hit.size, 64)[:, :width]] = level
            dist[hit] = block
        yield chunk, np.ascontiguousarray(dist.T)


def distance_histograms(
    g: ExplicitGraph, sources: Iterable[int] | None = None
) -> tuple[np.ndarray, np.ndarray, bool]:
    """(source ids, table, connected): table[i, L] vertices at distance exactly L from source i.

    ``table`` is a read-only int32 array as wide as the largest finite distance
    seen plus one; unreachable vertices are in no column, and ``connected``
    is False when any source misses a vertex.  With ``sources`` None every
    vertex is a source and the result is kept on the graph, so later calls
    (and every all-source analysis) reuse one sweep; a call naming sources
    neither reads nor stores it.
    """
    if sources is None and g._histograms is not None:
        return g._histograms
    # Row i's distance v lands in bin i * span + v + 1, so column 0 counts its -1s.
    ids, counts = [np.zeros(0, dtype=np.int64)], []
    for chunk, rows in iter_distance_rows(g, sources=sources):
        span = int(rows.max()) + 2
        offsets = np.arange(len(rows), dtype=np.int32)[:, None] * span + 1
        binned = np.bincount((rows + offsets).ravel(), minlength=len(rows) * span)
        ids.append(chunk)
        counts.append(binned.reshape(-1, span).astype(np.int32))
    full = np.zeros((sum(map(len, counts)), max((c.shape[1] for c in counts), default=2)),
                    dtype=np.int32)
    lo = 0
    for c in counts:
        full[lo:lo + len(c), :c.shape[1]] = c
        lo += len(c)
    full.setflags(write=False)
    ids = np.concatenate(ids)
    ids.setflags(write=False)
    result = (ids, full[:, 1:], not full[:, 0].any())
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
    floor.  Labels (when present) gain a ':<copy>' suffix.
    """
    if g.n == 0:
        raise ValueError("cannot blow up a graph with no vertices")
    if n_target < g.n:
        raise TooSmallTarget(f"target {n_target} below vertex count {g.n}")
    q, rem = divmod(n_target, g.n)
    counts = np.full(g.n, q, dtype=np.int64)
    counts[:rem] += 1
    offsets = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    # Edge (u, v) becomes c_u * c_v edges; its w-th is (off_u + w // c_v, off_v + w % c_v).
    u, v = g.edge_array().T
    copies = counts[u] * counts[v]
    w = np.arange(copies.sum()) - np.repeat(np.cumsum(copies) - copies, copies)
    c_v = np.repeat(counts[v], copies)
    edges = np.column_stack([
        np.repeat(offsets[u], copies) + w // c_v,
        np.repeat(offsets[v], copies) + w % c_v,
    ])
    labels = None
    if g.labels is not None:
        labels = tuple(
            f"{g.labels[v]}:{i}" for v in range(g.n) for i in range(counts[v])
        )
    return ExplicitGraph.from_edges(n_target, edges, labels)


def save_edge_list(g: ExplicitGraph, path) -> None:
    """Write the graph in the `dug 1` edge-list format (lossless, labels included).

    Raises ValueError, before the file is opened, for a label that would not
    load back unchanged: one that is not a str, an empty one, one holding a
    line break, or one with leading or trailing whitespace.
    """
    for v, lab in enumerate(g.labels or ()):
        if (not isinstance(lab, str) or not lab or lab != lab.strip()
                or "\n" in lab or "\r" in lab):
            raise ValueError(f"label {lab!r} of vertex {v} would not load back unchanged")
    edges = g.edge_array()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"dug 1 {g.n} {g.m}\n")
        if g.labels is not None:
            fh.writelines(f"l {v} {lab}\n" for v, lab in enumerate(g.labels))
        for lo in range(0, len(edges), _EDGE_CHUNK):
            chunk = edges[lo:lo + _EDGE_CHUNK]
            fh.write("e %d %d\n" * len(chunk) % tuple(chunk.ravel().tolist()))


def load_edge_list(path) -> ExplicitGraph:
    """Parse a `dug 1` edge-list file back into a graph.

    Raises :class:`ParseError` (with the line number) for malformed lines,
    out-of-range vertices, self-loops, u >= v, or duplicates, and
    :class:`InconsistentHeader` when the body disagrees with the header.

    Files in the canonical form that save_edge_list writes are parsed in bulk;
    every other file is parsed line by line, with the same result.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    g = _parse_canonical(data)
    if g is None:
        with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as fh:
            g = _parse_lines(fh)
    return g


# Longest count or vertex id the bulk parser reads: every 18-digit decimal fits in int64.
_MAX_DIGITS = 18
_EDGE_SEPARATORS = bytes.maketrans(b"e\n", b"  ")


def _parse_canonical(data: bytes) -> ExplicitGraph | None:
    """The graph of a file in canonical form, or None when in any doubt.

    Canonical: the header 'dug 1 <n> <m>', then no label lines or exactly the
    n lines 'l <v> <text>' for v = 0..n-1 in order, then exactly m lines
    'e <u> <v>' with single spaces and ASCII digits; every line ends in '\\n',
    with no comments, blank lines or '\\r'.  None is also returned for any
    content the line parser rejects, so that parser alone reports errors.
    """
    if not data.endswith(b"\n"):
        return None
    newlines = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n"))
    header = data[:newlines[0]].split(b" ")
    if len(header) != 4 or header[:2] != [b"dug", b"1"] or not all(
            count.isdigit() and len(count) <= _MAX_DIGITS for count in header[2:]):
        return None
    n, m = int(header[2]), int(header[3])
    n_labels = n if data.startswith(b"l ", newlines[0] + 1) else 0
    if newlines.size != 1 + n_labels + m:
        return None
    body = newlines[n_labels] + 1
    labels = None
    if n_labels:
        block = data[newlines[0] + 1:body - 1]
        if b"\r" in block:
            return None
        try:
            lines = block.decode("utf-8").split("\n")
        except UnicodeDecodeError:
            return None
        labels = []
        for v, line in enumerate(lines):
            fields = line.split(None, 2)
            if line != line.strip() or len(fields) != 3 or fields[:2] != ["l", str(v)]:
                return None
            labels.append(fields[2])
    edges = _canonical_edges(data[body:], newlines[1 + n_labels:] - body)
    if edges is None or not (edges[:, 0] < edges[:, 1]).all():
        return None
    try:
        return ExplicitGraph.from_edges(n, edges, labels)
    except ValueError:  # a vertex out of range, a duplicate edge or label text
        return None


def _canonical_edges(block: bytes, ends: np.ndarray) -> np.ndarray | None:
    """(m, 2) endpoints of the m lines 'e <u> <v>' of block, or None if any line differs.

    ``ends`` holds the offset of each line's newline.  Once every line has its
    'e' first and two single spaces around two non-empty runs of at most
    _MAX_DIGITS bytes, the remaining bytes must all be digits.
    """
    m = ends.size
    chars = np.frombuffer(block, dtype=np.uint8)
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1] + 1
    spaces = np.flatnonzero(chars == ord(" "))
    if spaces.size != 2 * m:
        return None
    mid = spaces[1::2]
    if not ((chars[starts] == ord("e")).all() and np.array_equal(spaces[0::2], starts + 1)
            and (mid >= starts + 3).all() and (mid <= ends - 2).all()
            and np.count_nonzero(chars - ord("0") < 10) == chars.size - 4 * m):
        return None
    if max((mid - starts).max(initial=0) - 2, (ends - mid).max(initial=0) - 1) > _MAX_DIGITS:
        return None
    # With 'e' and '\n' turned into spaces, only the 2m numbers are left.
    return np.fromstring(block.translate(_EDGE_SEPARATORS), dtype=np.int64, sep=" ").reshape(m, 2)


def _parse_lines(lines: Iterable[str]) -> ExplicitGraph:
    """Line-by-line parser for any valid file; the only source of parse errors."""
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

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
    _first_appearance,
    _move_ranks,
    _sorted_unique,
    encode_states,
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


# Adjacency entries per block of ExplicitGraph._edge_blocks, the one edge
# enumeration: edges() turns a block into Python objects at a time and
# save_edge_list into one byte table, so the memory they hold is bounded.
_EDGE_CHUNK = 1 << 16
# Bytes of whole lines the bulk edge reader checks and decodes at a time.
_READ_CHUNK = 1 << 18


class ExplicitGraph:
    """Immutable simple undirected graph with optional unique vertex labels.

    Adjacency is stored in CSR form (``indptr``/``indices``, neighbor lists
    sorted ascending); instances are safe to share across threads.  The
    all-source distance histograms are kept once computed (see
    :func:`distance_histograms`).

    ``classes`` is None, or for each vertex the id of its class's
    representative, where the vertices of one class provably have equal
    distance histograms.  Only :func:`build_explicit` sets it, and equality
    ignores it.
    """

    __slots__ = ("n", "indptr", "indices", "labels", "classes", "_histograms")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray,
                 labels: tuple[str, ...] | None):
        self.n = n
        self.indptr = indptr
        self.indices = indices
        self.labels = labels
        self.classes = None
        self._histograms = None
        indptr.setflags(write=False)
        indices.setflags(write=False)

    @classmethod
    def from_edges(cls, n: int, edges, labels=None) -> "ExplicitGraph":
        """Build and validate a graph from an iterable (or array) of (u, v) pairs.

        An integer array is read as it is, with no widening copy; the only
        full-size temporary is one int64 key per adjacency entry.
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
        if arr.dtype.kind not in "iu":
            arr = arr.astype(np.int64)
        arr = arr.reshape(-1, 2)
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise BadVertex(f"edge endpoint outside 0..{n - 1}")
        u, v = arr.T
        if (u == v).any():
            raise ValueError("self-loop in edge list")
        # One sort of row * n + col orders the CSR entries and puts a duplicate
        # edge next to its twin.  Both keys are formed in place from lo and hi:
        # lo * (n + 1) + (hi - lo) is lo * n + hi, and adding (hi - lo) * (n - 1)
        # to that gives hi * n + lo.
        m = len(arr)
        key = np.empty(2 * m, dtype=np.int64)
        lo, hi = key[:m], key[m:]
        np.minimum(u, v, out=lo)
        np.maximum(u, v, out=hi)
        hi -= lo
        lo *= n + 1
        lo += hi
        hi *= n - 1
        hi += lo
        key.sort()
        if (key[1:] == key[:-1]).any():
            raise ValueError("duplicate edge in edge list")
        # Row w's entries are the keys in [w * n, (w + 1) * n).
        indptr = np.arange(n + 1, dtype=np.int64)
        indptr *= n
        indptr = np.searchsorted(key, indptr)
        indices = np.remainder(key, n, out=key).astype(np.int32)
        return cls(n, indptr, indices, labels)

    @property
    def m(self) -> int:
        return self.indices.size // 2

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors_of(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def _edge_blocks(self) -> Iterator[np.ndarray]:
        """The edges as (u, v) with u < v, in sorted order, in (k, 2) int64 blocks.

        A block holds the edges of a run of rows with at most _EDGE_CHUNK
        adjacency entries and at most _EDGE_CHUNK rows, or of one longer row.
        """
        indptr, indices = self.indptr, self.indices
        lo = 0
        while lo < self.n:
            hi = int(np.searchsorted(indptr, indptr[lo] + _EDGE_CHUNK, side="right")) - 1
            hi = min(max(hi, lo + 1), lo + _EDGE_CHUNK)
            rows = np.repeat(np.arange(lo, hi, dtype=np.int64), np.diff(indptr[lo:hi + 1]))
            cols = indices[indptr[lo]:indptr[hi]]
            upper = cols > rows
            yield np.column_stack([rows[upper], cols[upper].astype(np.int64)])
            lo = hi

    def edge_array(self) -> np.ndarray:
        """(m, 2) int64 array of the edges as (u, v) with u < v, in sorted order."""
        return np.concatenate([np.zeros((0, 2), dtype=np.int64), *self._edge_blocks()])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, in sorted order."""
        for block in self._edge_blocks():
            yield from zip(*block.T.tolist())

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

    The cap bounds both the state count and the edge count.  Row v of the CSR
    adjacency is row v of hanoi._move_ranks, each move's target computed on
    ranks, sorted and without the -1 of illegal moves; the verify suite
    checks it against the move rules, applied state by state.

    Renaming the values 1..r (0 fixed) of proper states, or 0..r of all
    states, is an automorphism of the graph (Hinz et al., *The Tower of Hanoi
    -- Myths and Maths*, 2013).  So ``classes`` maps each state to the
    canonical state of its orbit, the one naming its values in order of first
    appearance, and the all-source analyses scan one source per orbit.
    """
    n = params.state_count()
    S = state_matrix(params, cap)
    edges = n * (n - 1) // 2 if params.k == 1 else n * params.r // 2  # K_n at k = 1
    if edges > cap:
        raise TooLarge(f"{'about ' if params.k > 1 else ''}{edges} edges exceed the cap of {cap}")
    table = _move_ranks(S, params)
    table.sort(axis=1)  # the illegal moves' -1 first
    legal = table >= 0
    indptr = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(legal.sum(axis=1))])
    indices = table[legal]
    del table, legal
    labels = tuple(map(format_state, S.tolist()))
    g = ExplicitGraph(n, indptr, indices, labels)
    canonical, _ = _first_appearance(S, 0 if params.proper else -1)
    g.classes = encode_states(canonical, params)
    g.classes.setflags(write=False)
    return g


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
    is False when any source misses a vertex.  With ``sources`` None the table
    covers every vertex with one row per class of ``g.classes`` (per vertex
    when the graph has none), the ids are the class representatives, and the
    result is kept on the graph, so later calls (and every all-source
    analysis) reuse one sweep; a call naming sources neither reads nor
    stores it.
    """
    if sources is None and g._histograms is not None:
        return g._histograms
    scan = sources
    if sources is None and g.classes is not None:
        scan = _sorted_unique(g.classes)
    # Row i's distance v lands in bin i * span + v + 1, so column 0 counts its -1s.
    ids, counts = [np.zeros(0, dtype=np.int64)], []
    for chunk, rows in iter_distance_rows(g, sources=scan):
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
    floor.  Labels (when present) gain a ':<copy>' suffix; they stay unique
    because the text after the last ':' is the copy number.  Raises
    :class:`TooLarge`, before building anything, when the result would have
    more than DEFAULT_STATE_CAP vertices or edges.

    The CSR is built directly, with no edge list to sort: every copy of v has
    the same row, the copy ranges of v's neighbours in order, which is sorted
    and free of duplicates because g is simple.
    """
    if g.n == 0:
        raise ValueError("cannot blow up a graph with no vertices")
    if n_target < g.n:
        raise TooSmallTarget(f"target {n_target} below vertex count {g.n}")
    q, rem = divmod(n_target, g.n)
    # Edges with both, one or none of their ends among the rem vertices with q + 1 copies.
    both = int(np.count_nonzero(g.indices[:g.indptr[rem]] < rem)) // 2
    one = int(g.indptr[rem]) - 2 * both
    m_out = both * (q + 1) ** 2 + one * q * (q + 1) + (g.m - both - one) * q * q
    if max(n_target, m_out) > DEFAULT_STATE_CAP:
        raise TooLarge(f"blow-up to {n_target} vertices would have {m_out} edges; "
                       f"vertices and edges are capped at {DEFAULT_STATE_CAP}")
    counts = np.full(g.n, q, dtype=np.int64)
    counts[:rem] += 1
    offsets = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    # The row of v's copies: adjacency entry (v, w) becomes offsets[w]..offsets[w + 1].
    spans = counts[g.indices]
    starts = np.zeros(spans.size + 1, dtype=np.int64)
    np.cumsum(spans, out=starts[1:])
    rows = (np.repeat(offsets[g.indices] - starts[:-1], spans)
            + np.arange(starts[-1])).astype(np.int32)
    row_ptr = starts[g.indptr]
    # Each output vertex reads its base vertex's row.
    lengths = np.repeat(np.diff(row_ptr), counts)
    indptr = np.zeros(n_target + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    shift = np.repeat(row_ptr[:-1], counts) - indptr[:-1]
    indices = rows[np.repeat(shift, lengths) + np.arange(indptr[-1])]
    labels = None
    if g.labels is not None:
        labels = tuple(f"{lab}:{i}" for lab, c in zip(g.labels, counts.tolist())
                       for i in range(c))
    return ExplicitGraph(n_target, indptr, indices, labels)


def save_edge_list(g: ExplicitGraph, path) -> None:
    """Write the graph in the `dug 1` edge-list format (lossless, labels included).

    Raises ValueError, before the file is opened, for a label that would not
    load back unchanged: one that is not a str, an empty one, one holding a
    line break, or one with leading or trailing whitespace.  Edge lines are
    formatted in bulk by :func:`_edge_lines`, byte for byte as '%d' would,
    one block of rows at a time.
    """
    for v, lab in enumerate(g.labels or ()):
        if (not isinstance(lab, str) or not lab or lab != lab.strip()
                or "\n" in lab or "\r" in lab):
            raise ValueError(f"label {lab!r} of vertex {v} would not load back unchanged")
    with open(path, "wb") as fh:
        fh.write(f"dug 1 {g.n} {g.m}\n".encode())
        if g.labels is not None:
            fh.writelines(f"l {v} {lab}\n".encode() for v, lab in enumerate(g.labels))
        width = len(str(g.n - 1))
        for block in g._edge_blocks():
            fh.write(_edge_lines(block, width))


def _edge_lines(edges: np.ndarray, width: int) -> bytes:
    """The lines 'e <u> <v>\\n' of an (m, 2) array of ids below 10**width.

    Each line is first a row of a fixed-width uint8 table: 'e', a space, u
    right-aligned in width cells, a space, v likewise and '\\n'.  Leading-zero
    cells hold NUL, which is then dropped.  Digits come from x // 10 and
    x - 10 * (x // 10), which numpy does faster than np.divmod.
    """
    lines = np.zeros((len(edges), 2 * width + 4), dtype=np.uint8)
    lines[:, 0] = ord("e")
    lines[:, 1] = lines[:, width + 2] = ord(" ")
    lines[:, -1] = ord("\n")
    x = edges.astype(np.int32)
    for col in range(width - 1, -1, -1):
        q = x // 10
        digit = (x - 10 * q + ord("0")).astype(np.uint8)
        if col < width - 1:
            digit *= x > 0
        lines[:, 2 + col] = digit[:, 0]
        lines[:, width + 3 + col] = digit[:, 1]
        x = q
    return lines.tobytes().replace(b"\0", b"")


def load_edge_list(path) -> ExplicitGraph:
    """Parse a `dug 1` edge-list file back into a graph.

    Raises :class:`ParseError` (with the line number) for malformed lines,
    out-of-range vertices, self-loops, u >= v, or duplicates, and
    :class:`InconsistentHeader` when the body disagrees with the header, and
    :class:`TooLarge` when it declares more than DEFAULT_STATE_CAP vertices.

    The run of canonical lines 'e <u> <v>\\n' that ends a file, from its first
    line that begins 'e ', is read in bulk (see :func:`_canonical_edges`); the
    lines before it go through the line parser.  When that run holds any other
    line, or the file has any fault, the whole file is parsed line by line, so
    errors and their line numbers come from one parser.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    split = data.find(b"\ne ") + 1
    tail = _canonical_edges(data, split)
    if tail is not None:
        head = data[:split]
        del data  # before the CSR is built; a fault means reading the file again
        try:
            with io.TextIOWrapper(io.BytesIO(head), encoding="utf-8") as lines:
                return _parse_lines(lines, tail)
        except ValueError:  # the whole-file parse below reports it, with its line
            pass
        with open(path, "rb") as fh:
            data = fh.read()
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as fh:
        return _parse_lines(fh)


# Longest vertex id the bulk reader decodes: one 8-byte word.  Ids up to
# the 2^26 cap have at most 8 digits; a longer token sends the file to the
# line parser.
_MAX_DIGITS = 8
_ZERO_CHARS = np.uint64(0x3030303030303030)
# _KEEP[j] keeps the top j + 1 bytes of a word: the digits of a (j + 1)-digit
# token whose load ends at its last digit.
_KEEP = np.array([(1 << 64) - (1 << 8 * (7 - j)) for j in range(8)], dtype=np.uint64)


def _canonical_edges(data: bytes, start: int) -> np.ndarray | None:
    """(m, 2) int32 endpoints of the lines 'e <u> <v>' from data[start:] on, or None if any differs.

    Each line must be 'e', a space, a run of 1 to _MAX_DIGITS ASCII digits, a
    space, another such run and '\\n', with u < v.  The lines are checked and
    decoded in chunks of about _READ_CHUNK bytes of whole lines, so the
    temporaries stay that small whatever the file's size.  In a chunk, the
    bytes <= 32 must be space, space, '\\n' on each line, each line's first
    space must be its second byte and follow an 'e', and every other byte
    must be a digit.

    A token is decoded with the SWAR digit trick (Langdale & Lemire, *Parsing
    gigabytes of JSON per second*, VLDB J. 2019): one little-endian 8-byte
    load that ends at its last digit, XOR '0' from every byte, the bytes
    before the token masked off, then three multiply-shift-mask steps that
    join digits pairwise into 2-, 4- and 8-digit values.  A block that starts
    in the first 8 bytes of data leaves no room for a header, so the line
    parser takes it.
    """
    if start < 8 or not data.endswith(b"\n"):
        return None
    edges = np.empty((data.count(b"\n", start), 2), dtype=np.int32)
    # words[i] is the little-endian uint64 of data[i:i + 8].
    words = np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))
    row = 0
    while start < len(data):
        stop = data.find(b"\n", start + _READ_CHUNK - 1) + 1 or len(data)
        chars = np.frombuffer(data, dtype=np.uint8, count=stop - start, offset=start)
        seps = np.flatnonzero(chars <= 32)
        k = seps.size // 3
        if seps.size != 3 * k:
            return None
        # gap[i, j] is the number of bytes between separator j of line i and
        # the next separator, less 1: a token's digit count less 1 and, after
        # a newline, 0 when only the next line's 'e' comes before its space.
        # The chunk's last newline gets 0; the next chunk checks its own start.
        gap = np.zeros(3 * k, dtype=np.int64)
        np.subtract(seps[1:], seps[:-1], out=gap[:-1])
        gap[:-1] -= 2
        seps = seps.reshape(k, 3)
        # With one newline per line, the 2k other separators are the 2k spaces.
        if not (seps[0, 0] == 1 and (gap.view(np.uint64) < _MAX_DIGITS).all()
                and not gap.reshape(k, 3)[:, 2].any()
                and (chars[seps[:, 2]] == ord("\n")).all()
                and np.count_nonzero(chars == ord(" ")) == 2 * k
                and (chars[seps[:, 0] - 1] == ord("e")).all()
                and np.count_nonzero(chars - ord("0") < 10) == chars.size - 4 * k):
            return None
        x = words[seps[:, 1:] + (start - 8)]
        x ^= _ZERO_CHARS
        x &= _KEEP[gap].reshape(k, 3)[:, :2]
        x *= np.uint64(10 << 8 | 1)
        x >>= np.uint64(8)
        x &= np.uint64(0x00FF00FF00FF00FF)
        x *= np.uint64(100 << 16 | 1)
        x >>= np.uint64(16)
        x &= np.uint64(0x0000FFFF0000FFFF)
        x *= np.uint64(10000 << 32 | 1)
        x >>= np.uint64(32)
        if not (x[:, 0] < x[:, 1]).all():
            return None
        edges[row:row + k] = x
        row += k
        start = stop
    return edges


def _parse_lines(lines: Iterable[str], tail: np.ndarray | None = None) -> ExplicitGraph:
    """Line-by-line parser for any valid file; the only source of parse errors.

    ``tail`` holds the (m, 2) edges of lines that follow ``lines`` in the file,
    already read in bulk; they are counted and checked with the others.
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
    edge_arr = np.array(edges, dtype=np.int64).reshape(-1, 2)
    if tail is not None:
        edge_arr = np.concatenate([edge_arr, tail]) if edges else tail
    if len(edge_arr) != m:
        raise InconsistentHeader(f"header declares {m} edges, file has {len(edge_arr)}")
    labels = None
    if label_map:
        if len(label_map) != n:
            raise InconsistentHeader(
                f"labels must cover all {n} vertices, found {len(label_map)}"
            )
        labels = tuple(label_map[v] for v in range(n))
    return ExplicitGraph.from_edges(n, edge_arr, labels)

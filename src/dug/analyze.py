"""Distance-uniformity analysis and the structural checkers it feeds.

A graph is epsilon-distance-uniform with critical distance d when, from every
vertex, all but at most epsilon * n of the OTHER vertices sit at distance
exactly d.  The analyzer reports the strict other-vertices epsilon; v itself
is never charged, so K_n scores epsilon = 0 (one 1/n below the convention that
charges v).  Every checker here remains sound under the stricter value.

Epsilon values are exact fractions end to end; no comparison in this module
goes through floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .graph import ExplicitGraph, distance_histograms


class TooSmall(ValueError):
    """Analysis needs at least two vertices."""


class ZeroEpsilon(ValueError):
    """The bound is vacuous at epsilon = 0 (e.g. complete graphs)."""


class BadParams(ValueError):
    """Parameters outside the checker's domain."""


@dataclass(frozen=True)
class DistanceProfile:
    """Per-source distance census: counts[dist] vertices at each exact distance >= 1."""

    source: int
    counts: dict[int, int]
    unreachable: int


@dataclass(frozen=True)
class UniformityReport:
    """Best critical distance found for a graph and the epsilon achieved there.

    per_vertex_offcount[i] is the number of other vertices NOT at distance d
    from the i-th analyzed source (unreachable ones included); epsilon is the
    maximum offcount divided by n.  ``sources`` is None when every vertex was
    analyzed, else the analyzed vertex ids in order.
    """

    n: int
    d: int
    epsilon: Fraction
    per_vertex_offcount: tuple[int, ...]
    connected: bool
    sources: tuple[int, ...] | None = None

    def to_json_dict(self) -> dict:
        off = self.per_vertex_offcount
        hist: dict[int, int] = {}
        for o in off:
            hist[o] = hist.get(o, 0) + 1
        out = {
            "n": self.n,
            "d": self.d,
            "epsilon": {
                "fraction": f"{self.epsilon.numerator}/{self.epsilon.denominator}",
                "float": float(self.epsilon),
            },
            "connected": self.connected,
            "per_vertex_offcount": {
                "min": min(off),
                "max": max(off),
                "histogram": {str(key): hist[key] for key in sorted(hist)},
            },
        }
        if self.sources is not None:
            out["sources"] = list(self.sources)
        return out


@dataclass(frozen=True)
class GrowthRow:
    """One radius of the neighborhood-growth check: |N_radius(v)| >= required for all v."""

    radius: int
    min_ball: int
    required: Fraction
    ok: bool


def distance_profile(g: ExplicitGraph, source: int) -> DistanceProfile:
    """Distance census from one source: its row of :func:`~dug.graph.distance_histograms`.

    The vertices in no column of the row are the unreachable ones.
    """
    _, table, _ = distance_histograms(g, [source])
    row = table[0].tolist()
    counts = {d: c for d, c in enumerate(row) if d > 0 and c > 0}
    return DistanceProfile(source=source, counts=counts, unreachable=g.n - sum(row))


def best_uniformity(
    g: ExplicitGraph, sources: Iterable[int] | None = None
) -> UniformityReport:
    """Critical distance minimizing the worst per-vertex offcount, ties to smaller d.

    Candidate distances run from 1 to the largest finite distance seen;
    unreachable vertices count against every candidate.  Read from columns 1
    and up of :func:`~dug.graph.distance_histograms`, so an all-source call
    shares its one sweep with the other analyses of the graph and expands its
    per-class offcounts to every vertex through ``g.classes``.  Restricting
    ``sources`` turns the scan into a sampled estimate over those vertices
    (the connectivity flag stays exact: one BFS decides it for an undirected
    graph).
    """
    if g.n < 2:
        raise TooSmall(f"need at least 2 vertices, got {g.n}")
    n = g.n
    ids, table, connected = distance_histograms(g, sources)
    if not len(ids):
        raise TooSmall("no sources to analyze")
    if table.shape[1] > 1:
        # worst offcount per candidate d >= 1
        worst = (n - 1) - table[:, 1:].min(axis=0)
        d = int(np.argmin(worst)) + 1
        off = (n - 1) - table[:, d]
    else:
        d = 1
        off = np.full(len(ids), n - 1)
    if sources is None and g.classes is not None:
        off = off[np.searchsorted(ids, g.classes)]
    return UniformityReport(
        n=n,
        d=d,
        epsilon=Fraction(int(off.max()), n),
        per_vertex_offcount=tuple(off.tolist()),
        connected=connected,
        sources=None if sources is None else tuple(ids.tolist()),
    )


def is_distance_uniform(g: ExplicitGraph, epsilon, d: int) -> bool:
    """True iff every vertex has at most epsilon * n other vertices not at distance d.

    Exact rational comparison of :func:`_epsilon_at` with epsilon, which may
    be a Fraction, int, or 'p/q' string.
    """
    if g.n < 2:
        raise TooSmall(f"need at least 2 vertices, got {g.n}")
    eps = Fraction(epsilon)
    if eps < 0 or d < 1:
        raise BadParams(f"need epsilon >= 0 and d >= 1, got {eps}, {d}")
    return _epsilon_at(g, d) <= eps


def _epsilon_at(g: ExplicitGraph, d: int) -> Fraction:
    """Exact epsilon at distance d >= 1: the most other vertices any vertex has off d, over n.

    Reads column d of the all-source distance histograms; a d beyond the
    diameter leaves every vertex n - 1 others off.  Python-int arithmetic,
    so no numerator or denominator can overflow.
    """
    _, table, _ = distance_histograms(g)
    fewest = int(table[:, d].min()) if d < table.shape[1] else 0
    return Fraction(g.n - 1 - fewest, g.n)


def min_ball_sizes(g: ExplicitGraph, radii: Iterable[int]) -> dict[int, int]:
    """min over vertices of |N_radius(v)| (vertices within the radius, v included).

    Read from the running sums of the all-source distance histograms; a
    negative radius holds no vertex.
    """
    _, table, _ = distance_histograms(g)
    balls = np.cumsum(table, axis=1)
    last = table.shape[1] - 1
    return {
        radius: int(balls[:, min(radius, last)].min(initial=g.n)) if radius >= 0 else 0
        for radius in sorted(set(int(x) for x in radii))
    }


def check_min_degree(g: ExplicitGraph, report: UniformityReport) -> bool:
    """Min-degree bound: an epsilon-distance-uniform graph has delta >= 1/epsilon - 1."""
    eps = report.epsilon
    if eps == 0:
        raise ZeroEpsilon("bound is infinite at epsilon = 0")
    p, q = eps.numerator, eps.denominator
    return int(g.degrees().min()) * p >= q - p


def radius_sequence(j: int) -> int:
    """j-th radius of the growth ladder: (3^j - 1) / 2, so 1, 4, 13, 40, ..."""
    return (3**j - 1) // 2


def check_neighborhood_growth(g: ExplicitGraph, report: UniformityReport) -> list[GrowthRow]:
    """Neighborhood-growth ladder for the critical-distance upper bound.

    Base row: min |N_1(v)| >= epsilon^-1.  Then for each j with 2*r_j + 1 <= d
    (r_j = (3^j - 1)/2) a row requiring min |N_{r_{j+1}}(v)| >= epsilon^-(j+1).
    Returns the full table; on a genuinely epsilon-distance-uniform input with
    critical distance d every row passes.
    """
    eps = report.epsilon
    if eps == 0:
        raise ZeroEpsilon("bound is vacuous at epsilon = 0")
    p, q = eps.numerator, eps.denominator
    exponents = [1]
    j = 1
    while 2 * radius_sequence(j) + 1 <= report.d:
        exponents.append(j + 1)
        j += 1
    radii = [radius_sequence(e) for e in exponents]
    mins = min_ball_sizes(g, radii)
    rows = []
    for e, radius in zip(exponents, radii):
        required = Fraction(q, p) ** e
        ball = mins[radius]
        rows.append(
            GrowthRow(radius=radius, min_ball=ball, required=required,
                      ok=ball * p**e >= q**e)
        )
    return rows


def check_upper_bound(n: int, epsilon, d: int) -> bool:
    """Critical-distance upper bound: floor(log3 d) + 1 <= log(n) / log(1/epsilon).

    Equivalent to n >= epsilon^-(floor(log3 d) + 1), which is how it is
    evaluated: exact big-integer cross-multiplication, no logarithms.
    """
    eps = Fraction(epsilon)
    if n < 2 or not 0 < eps < 1 or d < 1:
        raise BadParams(f"need n >= 2, 0 < epsilon < 1, d >= 1; got {n}, {eps}, {d}")
    level = 0
    while 3 ** (level + 1) <= d:
        level += 1
    p, q = eps.numerator, eps.denominator
    return q ** (level + 1) <= n * p ** (level + 1)

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import dug.analyze
import dug.graph
import dug.verification
from dug import (
    BadParams,
    ExplicitGraph,
    HanoiParams,
    TooSmall,
    UniformityReport,
    ZeroEpsilon,
    best_uniformity,
    bfs_distances,
    build_explicit,
    check_min_degree,
    check_neighborhood_growth,
    check_upper_bound,
    diameter,
    distance_profile,
    is_distance_uniform,
    min_ball_sizes,
    radius_sequence,
)

from conftest import move_adjacency, oracle_all_pairs


def complete_graph(n):
    iu, iv = np.triu_indices(n, k=1)
    return ExplicitGraph.from_edges(n, np.column_stack([iu, iv]))


def path_graph(n):
    return ExplicitGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


# Graphs the histogram-based analyses are checked on against bfs_distances.
ORACLE_GRAPHS = {
    "hanoi53": lambda: build_explicit(HanoiParams(5, 3, proper=True)),
    "disconnected": lambda: ExplicitGraph.from_edges(7, [(0, 1), (2, 3), (3, 4)]),
    "isolated": lambda: ExplicitGraph.from_edges(5, [(1, 3), (3, 4)]),
    "edgeless": lambda: ExplicitGraph.from_edges(3, []),
    "path": lambda: path_graph(6),
    "single": lambda: ExplicitGraph.from_edges(1, []),
}


def oracle_offcounts(g, d):
    """Brute per-vertex offcount at distance d, straight from single-source BFS."""
    out = []
    for v in range(g.n):
        row = bfs_distances(g, v)
        out.append(g.n - 1 - int((row == d).sum()))
    return out


class TestDistanceProfile:
    def test_path_graph(self):
        prof = distance_profile(path_graph(4), 0)
        assert prof.counts == {1: 1, 2: 1, 3: 1}
        assert prof.unreachable == 0
        assert sum(prof.counts.values()) + prof.unreachable + 1 == 4

    def test_disconnected(self):
        g = ExplicitGraph.from_edges(4, [(0, 1), (2, 3)])
        prof = distance_profile(g, 0)
        assert prof.counts == {1: 1}
        assert prof.unreachable == 2


class TestBestUniformity:
    def test_complete(self):
        rep = best_uniformity(complete_graph(5))
        assert rep.d == 1 and rep.epsilon == 0
        assert rep.connected
        assert rep.per_vertex_offcount == (0,) * 5

    def test_p4_no_better_than_half(self):
        g = path_graph(4)
        rep = best_uniformity(g)
        # brute force: every candidate d has worst offcount >= 2 (epsilon >= 1/2)
        for d in (1, 2, 3):
            assert max(oracle_offcounts(g, d)) >= 2
        assert rep.epsilon == Fraction(1, 2)
        assert rep.d == 1  # tie between d=1 and d=2 breaks to the smaller

    def test_hanoi_g42(self):
        g = build_explicit(HanoiParams(4, 2, proper=True))
        rep = best_uniformity(g)
        assert rep.d == 3
        assert rep.epsilon == Fraction(9, 16)
        assert rep.epsilon <= Fraction(2 * 2, 4)  # the construction's k^2/r guarantee
        assert rep.per_vertex_offcount == tuple(oracle_offcounts(g, 3))

    def test_matches_oracle_choice(self):
        # arg-min over d of worst offcount, against a brute double loop
        g = build_explicit(HanoiParams(3, 3, proper=True))
        rep = best_uniformity(g)
        worst = {d: max(oracle_offcounts(g, d)) for d in range(1, 8)}
        best_d = min(worst, key=lambda d: (worst[d], d))
        assert rep.d == best_d
        assert rep.epsilon == Fraction(worst[best_d], g.n)

    def test_too_small(self):
        with pytest.raises(TooSmall):
            best_uniformity(ExplicitGraph.from_edges(1, []))

    def test_disconnected_counts_against(self):
        g = ExplicitGraph.from_edges(4, [(0, 1), (2, 3)])
        rep = best_uniformity(g)
        assert not rep.connected
        assert rep.d == 1 and rep.epsilon == Fraction(2, 4)

    def test_edgeless(self):
        g = ExplicitGraph.from_edges(3, [])
        rep = best_uniformity(g)
        assert rep.d == 1 and rep.epsilon == Fraction(2, 3)
        assert not rep.connected

    def test_sampled_sources(self):
        g = build_explicit(HanoiParams(8, 2, proper=True))
        full = best_uniformity(g)
        sampled = best_uniformity(g, sources=[0, 7, 21, 63])
        assert sampled.sources == (0, 7, 21, 63)
        assert sampled.d == full.d
        assert len(sampled.per_vertex_offcount) == 4
        assert sampled.epsilon <= full.epsilon

    @pytest.mark.parametrize("name", [k for k in ORACLE_GRAPHS if k != "single"])
    def test_after_diameter_matches_fresh_graph(self, name):
        g = ORACLE_GRAPHS[name]()
        diameter(g)  # fills the kept all-source table first
        rep = best_uniformity(g)
        assert rep == best_uniformity(ORACLE_GRAPHS[name]())
        assert rep.per_vertex_offcount == tuple(oracle_offcounts(g, rep.d))

    def test_json_dict(self):
        rep = best_uniformity(complete_graph(3))
        d = rep.to_json_dict()
        assert d["epsilon"] == {"fraction": "0/1", "float": 0.0}
        assert d["per_vertex_offcount"]["histogram"] == {"0": 3}


class TestIsDistanceUniform:
    def test_complete_zero(self):
        assert is_distance_uniform(complete_graph(5), 0, 1)

    def test_hanoi_g42(self):
        g = build_explicit(HanoiParams(4, 2, proper=True))
        # measured epsilon at d=3 is 9/16: true there, false one notch below
        assert is_distance_uniform(g, Fraction(9, 16), 3)
        assert not is_distance_uniform(g, Fraction(35, 64), 3)
        # the k^2/r = 1 guarantee holds at the critical distance
        assert is_distance_uniform(g, Fraction(4, 4), 3)
        assert not is_distance_uniform(g, Fraction(1, 4), 2)

    @pytest.mark.parametrize("name", [k for k in ORACLE_GRAPHS if k != "single"])
    def test_matches_oracle_past_diameter(self, name):
        g = ORACLE_GRAPHS[name]()
        diam, _ = diameter(g)
        for d in range(1, diam + 3):
            worst = max(oracle_offcounts(g, d))
            assert is_distance_uniform(g, Fraction(worst, g.n), d)
            if worst:
                assert not is_distance_uniform(g, Fraction(worst - 1, g.n), d)
        # past the diameter every other vertex is off
        assert not is_distance_uniform(g, Fraction(g.n - 2, g.n), diam + 1)

    def test_bad_params(self):
        g = complete_graph(3)
        with pytest.raises(BadParams):
            is_distance_uniform(g, Fraction(-1, 2), 1)
        with pytest.raises(BadParams):
            is_distance_uniform(g, Fraction(1, 2), 0)
        with pytest.raises(TooSmall):
            is_distance_uniform(ExplicitGraph.from_edges(1, []), Fraction(1, 2), 1)

    @given(
        q=st.integers(1, 10**40),
        t=st.integers(0, 16),
        delta=st.one_of(st.integers(-2, 2), st.integers(0, 10**40)),
        d=st.integers(1, 4),
    )
    def test_huge_fraction_matches_exact(self, q, t, delta, d):
        # numerators within 2 of an offcount threshold t/n, or anywhere up to 10^40
        g = build_explicit(HanoiParams(4, 2, proper=True))
        eps = Fraction(max(0, t * q // g.n + delta), q)
        want = all(Fraction(off, g.n) <= eps for off in oracle_offcounts(g, d))
        assert is_distance_uniform(g, eps, d) == want


class TestMinDegree:
    def test_complete_with_conventional_epsilon(self):
        # K_n declared 1/n-uniform: min degree n-1 exactly meets 1/eps - 1
        n = 7
        rep = UniformityReport(
            n=n, d=1, epsilon=Fraction(1, n),
            per_vertex_offcount=(0,) * n, connected=True,
        )
        assert check_min_degree(complete_graph(n), rep)

    def test_hanoi(self):
        g = build_explicit(HanoiParams(8, 2, proper=True))
        assert check_min_degree(g, best_uniformity(g))

    def test_zero_epsilon(self):
        g = complete_graph(4)
        with pytest.raises(ZeroEpsilon):
            check_min_degree(g, best_uniformity(g))

    def test_fails_on_sparse_pretender(self):
        # a path declared 1/8-uniform would need min degree >= 7
        rep = UniformityReport(
            n=8, d=1, epsilon=Fraction(1, 8),
            per_vertex_offcount=(0,) * 8, connected=True,
        )
        assert not check_min_degree(path_graph(8), rep)


class TestGrowth:
    def test_radius_sequence(self):
        assert [radius_sequence(j) for j in (1, 2, 3, 4)] == [1, 4, 13, 40]

    def test_g63_table_shape(self):
        # d = 7 admits only j = 1 (2*1+1 <= 7 but 2*4+1 > 7): base row + one growth row
        g = build_explicit(HanoiParams(6, 3, proper=True))
        rows = check_neighborhood_growth(g, best_uniformity(g))
        assert [row.radius for row in rows] == [1, 4]
        assert all(row.ok for row in rows)

    def test_g54_table_shape(self):
        g = build_explicit(HanoiParams(5, 4, proper=True))
        rows = check_neighborhood_growth(g, best_uniformity(g))
        assert [row.radius for row in rows] == [1, 4, 13]
        assert all(row.ok for row in rows)

    def test_min_ball_matches_oracle(self):
        # radius 0, the growth radii, radii past every eccentricity, a negative one
        radii = [-1, 0, 1, 4, 7, 8, 40]
        for name, make in ORACLE_GRAPHS.items():
            g = make()
            balls = min_ball_sizes(g, radii)
            assert list(balls) == sorted(radii)
            for radius in radii:
                want = min(
                    int(((bfs_distances(g, v) >= 0) & (bfs_distances(g, v) <= radius)).sum())
                    for v in range(g.n)
                )
                assert balls[radius] == want, (name, radius)

    def test_zero_epsilon(self):
        g = complete_graph(4)
        with pytest.raises(ZeroEpsilon):
            check_neighborhood_growth(g, best_uniformity(g))


@pytest.fixture
def scanned(monkeypatch):
    """Sources each later level sweep scans, counted per chunk of dug.graph._scan."""
    counts = []
    real = dug.graph._scan

    def counting(g, srcs, rows):
        for chunk, table, dist in real(g, srcs, rows):
            counts.append(len(chunk))
            yield chunk, table, dist

    monkeypatch.setattr(dug.graph, "_scan", counting)
    return counts


class TestOneSweep:
    def test_four_analyses_share_one_sweep(self, scanned):
        g = build_explicit(HanoiParams(5, 3, proper=True))
        rep = best_uniformity(g)
        assert is_distance_uniform(g, rep.epsilon, rep.d)
        assert all(row.ok for row in check_neighborhood_growth(g, rep))
        assert diameter(g) == (7, True)
        # one row per value-relabeling orbit: 5 of the 125 states
        orbits = np.unique(g.classes).size
        assert orbits == 5
        assert sum(scanned) == orbits
        twin = build_explicit(HanoiParams(5, 3, proper=True))
        assert twin == g
        assert diameter(twin) == (7, True)
        assert sum(scanned) == 2 * orbits

    def test_sampled_call_neither_reads_nor_fills(self, scanned):
        g = build_explicit(HanoiParams(5, 3, proper=True))
        best_uniformity(g, sources=[0, 7, 21])
        assert sum(scanned) == 3
        best_uniformity(g)
        assert sum(scanned) == 3 + 5
        best_uniformity(g, sources=[0, 7, 21])
        assert sum(scanned) == 6 + 5


# Every Hanoi graph with at most 2 500 states and k <= 9, but the complete
# graphs of k = 1 with r > 50.  k <= 9 leaves out only r = 1 (one or two
# states) and (2, 10) and (2, 11), whose 1 023- and 2 047-level sweeps would
# add about 11 s on a 2-CPU host.
CLASS_CASES = [
    HanoiParams(r, k, proper)
    for proper in (True, False)
    for k in range(1, 10)
    for r in range(1, 51)
    if HanoiParams(r, k, proper).state_count() <= 2500
]


def _canonical(state, proper):
    """state with its values renamed in order of first appearance, 0 kept when proper."""
    names = {0: 0} if proper else {}
    return tuple(names.setdefault(x, len(names)) for x in state)


def test_class_tables_match_full_scan():
    """Orbit-keyed analyses of every build_explicit graph equal the per-vertex scan's."""
    rng = np.random.default_rng(7)
    for params in CLASS_CASES:
        g = build_explicit(params)
        full = ExplicitGraph.from_edges(g.n, g.edge_array(), g.labels)
        assert full.classes is None
        states = [tuple(map(int, lab.split(","))) for lab in g.labels]
        index = {s: v for v, s in enumerate(states)}
        assert g.classes.tolist() == [index[_canonical(s, params.proper)] for s in states]
        diam = diameter(g)
        assert diam == diameter(full), params
        radii = range(-1, diam[0] + 2)
        assert min_ball_sizes(g, radii) == min_ball_sizes(full, radii), params
        if g.n >= 2:
            rep = best_uniformity(g)
            assert rep == best_uniformity(full), params
            for d in {1, rep.d - 1, rep.d, rep.d + 1, diam[0], diam[0] + 1} - {0}:
                for eps in (rep.epsilon, rep.epsilon - Fraction(1, g.n)):
                    if eps >= 0:
                        assert is_distance_uniform(g, eps, d) == is_distance_uniform(full, eps, d)
        # two members each of up to 32 classes against the oracle
        ids, table, _ = dug.graph.distance_histograms(g)
        order = np.argsort(g.classes, kind="stable")
        members = np.split(order, np.flatnonzero(np.diff(g.classes[order])) + 1)
        picked = rng.choice(len(ids), size=min(32, len(ids)), replace=False)
        for c in picked:
            row, group = table[c], members[c]
            for v in rng.choice(group, size=min(2, group.size), replace=False):
                dist = bfs_distances(g, int(v))
                assert np.bincount(dist[dist >= 0], minlength=table.shape[1]).tolist() == \
                    row.tolist(), (params, int(v))


class TestUpperBound:
    def test_hanoi_point(self):
        # n = r^k, eps = k^2/r, d = 2^k - 1 at r=8, k=2
        assert check_upper_bound(64, Fraction(4, 8), 3)

    def test_trivial(self):
        assert check_upper_bound(2, Fraction(1, 2), 1)

    def test_false_case(self):
        # d = 100 forces floor(log3 d) = 4; (1/eps)^5 = 32 > n = 4
        assert not check_upper_bound(4, Fraction(1, 2), 100)

    def test_boundary_exact(self):
        # (1/eps)^(L+1) == n passes; one vertex fewer fails
        assert check_upper_bound(4, Fraction(1, 2), 2)  # L=0: 2 <= 4
        assert check_upper_bound(8, Fraction(1, 2), 3)  # L=1: 4 <= 8
        assert not check_upper_bound(3, Fraction(1, 2), 100)

    def test_bad_params(self):
        with pytest.raises(BadParams):
            check_upper_bound(1, Fraction(1, 2), 1)
        with pytest.raises(BadParams):
            check_upper_bound(4, Fraction(0), 1)
        with pytest.raises(BadParams):
            check_upper_bound(4, Fraction(3, 2), 1)
        with pytest.raises(BadParams):
            check_upper_bound(4, Fraction(1, 2), 0)

    def test_corpus_reports(self):
        for r, k in [(4, 2), (5, 3), (3, 3)]:
            g = build_explicit(HanoiParams(r, k, proper=True))
            rep = best_uniformity(g)
            assert check_upper_bound(g.n, rep.epsilon, rep.d)


# Largest offcount at d = 2^k - 1 of G_{r,k}, for r >= k: P_k(r), coefficients
# from the constant term up, fitted on the explicit graphs and checked here.
EPSILON_POLYNOMIALS = {
    (True, 2): [-3, 3], (True, 3): [-1, -6, 5], (True, 4): [3, 3, -13, 7],
    (True, 5): [-21, 19, 12, -23, 9],
    (False, 2): [-2, 3], (False, 3): [-1, -4, 5], (False, 4): [2, 2, -10, 7],
}
LARGEST_R = {2: 64, 3: 24, 4: 12, 5: 8}


@pytest.mark.parametrize("proper,k", list(EPSILON_POLYNOMIALS),
                         ids=[f"{'proper' if p else 'improper'}-k{k}" for p, k in EPSILON_POLYNOMIALS])
def test_epsilon_at_the_critical_distance_is_a_polynomial_in_r(proper, k):
    """epsilon at 2^k - 1 is P_k(r)/n for every r >= k, and (n - 1)/n below, where every vertex is off."""
    coefficients = EPSILON_POLYNOMIALS[proper, k]
    for r in range(1, LARGEST_R[k] + 1):
        g = build_explicit(HanoiParams(r, k, proper))
        off = sum(c * r**i for i, c in enumerate(coefficients)) if r >= k else g.n - 1
        assert dug.analyze._epsilon_at(g, 2**k - 1) == Fraction(off, g.n), r

"""Acceptance suite: one test per criterion, printing one pass/fail line each.

Criteria with an explicit runtime clause assert it; distance and epsilon
checks are exact (integer / rational comparisons throughout).
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from dug import (
    INVOLUTE,
    Adjust,
    HanoiParams,
    IllegalInvolute,
    MovePath,
    apply_move,
    best_uniformity,
    bfs_distances,
    blow_up,
    build_explicit,
    check_min_degree,
    check_neighborhood_growth,
    check_upper_bound,
    diameter,
    enumerate_states,
    has_disjoint_support,
    is_distance_uniform,
    iterate_truncation,
    load_edge_list,
    path_states,
    plan_parameters,
    save_edge_list,
    solve,
    verify_isomorphism,
    verify_path,
)

from dug.solver import _construct_codes

from conftest import move_adjacency, oracle_all_pairs, scalar_construct

CORPUS = [(4, 2), (5, 2), (8, 2), (5, 3), (6, 3), (5, 4)]
UNIFORMITY_CORPUS = CORPUS + [(16, 3)]


def _line(num: int, text: str, elapsed: float | None = None) -> None:
    stamp = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {num}: PASS {text}{stamp}")


@pytest.fixture(scope="module")
def oracle_corpus():
    """(r, k) -> (states, all-pairs oracle distances, build seconds), pure-dict BFS."""
    out = {}
    for r, k in CORPUS:
        t0 = time.perf_counter()
        params = HanoiParams(r, k, proper=True)
        adj = move_adjacency(params)
        dist = oracle_all_pairs(adj)
        out[(r, k)] = (list(adj), dist, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def production_reports():
    """(r, k) -> (explicit graph, best_uniformity report), production path."""
    return {
        (r, k): (g, best_uniformity(g))
        for r, k in UNIFORMITY_CORPUS
        for g in [build_explicit(HanoiParams(r, k, proper=True))]
    }


def test_criterion_1_disjoint_support_exactness(oracle_corpus):
    t0 = time.perf_counter()
    pair_count = 0
    for (r, k), (states, dist, _) in oracle_corpus.items():
        target = 2**k - 1
        for a in states:
            da = dist[a]
            for b in states:
                if has_disjoint_support(a, b):
                    assert da[b] == target, (r, k, a, b, da[b])
                    pair_count += 1
    elapsed = time.perf_counter() - t0 + sum(v[2] for v in oracle_corpus.values())
    assert elapsed < 30.0
    _line(1, f"BFS distance = 2^k-1 on {pair_count} disjoint-support pairs", elapsed)


def test_criterion_2_solver_bound_and_oracle_floor(oracle_corpus):
    """Every pair's solver path, from one construction per source over all
    its targets; solve itself is compared with it on every pair of the shapes
    with at most 64 states, and from the first 16 sources of the others."""
    t0 = time.perf_counter()
    pair_count = solved = 0
    for (r, k), (states, dist, _) in oracle_corpus.items():
        params = HanoiParams(r, k, proper=True)
        target = 2**k - 1
        moves = [Adjust(c) for c in range(r + 1)] + [INVOLUTE]  # code r + 1 is the involution
        goals = np.array(states)
        for i, a in enumerate(states):
            da = dist[a]
            offsets, codes = _construct_codes(np.broadcast_to(goals[i], goals.shape), goals, r)
            offsets, codes = offsets.tolist(), codes.tolist()
            for j, b in enumerate(states):
                path = MovePath(a, tuple(moves[c] for c in codes[offsets[j]:offsets[j + 1]]))
                assert path.moves == scalar_construct(a, b)
                if len(states) <= 64 or i < 16:
                    assert solve(a, b, params) == path
                    solved += 1
                assert len(path) <= target
                assert len(path) >= da[b]
                visited = path_states(path, params)  # validates every move
                assert visited[-1] == b
                assert all(s[0] in (a[0], b[0]) for s in visited)
                pair_count += 1
    assert (pair_count, solved) == (457_883, 20_433)
    _line(2, f"solver bound/oracle floor/aux condition on {pair_count} pairs",
          time.perf_counter() - t0)


def test_criterion_3_uniformity_of_construction(production_reports):
    for (r, k), (_, rep) in production_reports.items():
        assert rep.d == 2**k - 1, (r, k, rep.d)
        assert rep.epsilon <= Fraction(k * k, r), (r, k, rep.epsilon)
        assert rep.connected
    _line(3, f"best_uniformity gives d = 2^k-1 and eps <= k^2/r on {len(production_reports)} graphs")


def test_criterion_4_diameter(oracle_corpus, production_reports):
    for (r, k), (states, dist, _) in oracle_corpus.items():
        assert r >= k + 1
        diam = max(max(d.values()) for d in dist.values())
        assert all(len(d) == len(states) for d in dist.values())  # connected
        assert diam == 2**k - 1, (r, k, diam)
        # explicit alternating partner: two unused values, largest first so the
        # partner is proper even when 0 is one of the free values
        for a in states:
            free = [v for v in range(r + 1) if v not in set(a)]
            assert len(free) >= 2
            c, d_val = free[-1], free[-2]
            partner = tuple(c if i % 2 == 0 else d_val for i in range(k))
            assert partner[0] != 0
            assert has_disjoint_support(a, partner)
            assert dist[a][partner] == 2**k - 1
    g163, _ = production_reports[(16, 3)]
    assert diameter(g163) == (7, True)
    _line(4, "diameter = 2^k-1 on the corpus (r >= k+1), partners constructed")


def test_criterion_5_upper_bound_machinery(production_reports):
    t0 = time.perf_counter()
    for (r, k), (g, rep) in production_reports.items():
        assert check_min_degree(g, rep), (r, k)
        rows = check_neighborhood_growth(g, rep)
        assert rows and all(row.ok for row in rows), (r, k, rows)
        assert check_upper_bound(g.n, rep.epsilon, rep.d), (r, k)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _line(5, f"min-degree, growth, upper-bound checkers pass on {len(production_reports)} graphs",
          elapsed)


def test_criterion_6_truncation_isomorphism():
    t0 = time.perf_counter()
    count = 0
    for r in range(1, 7):
        for k in range(1, 5):
            t = iterate_truncation(r, k)
            assert t.graph.n == (r + 1) * r ** (k - 1), (r, k)
            assert (t.graph.degrees() == r).all(), (r, k)
            assert verify_isomorphism(t, HanoiParams(r, k, proper=False)), (r, k)
            count += 1
    assert iterate_truncation(3, 2).graph.n == 12  # the truncated tetrahedron
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _line(6, f"truncation isomorphism certified on {count} (r, k) instances", elapsed)


def test_criterion_7_planner_round_trip():
    t0 = time.perf_counter()
    built = {}
    for m in (2, 3, 4):
        n = 2 ** (2**m)
        log2n = 2**m
        for eps in (Fraction(1, log2n), Fraction(2, log2n)):
            plan = plan_parameters(n, eps)
            assert plan.base_n == n and not plan.needs_blow_up
            assert plan.predicted_d == 2**plan.k - 1
            # k >= log2(n) / (6 log2(1/eps)), exact: (1/eps)^(6k) >= n
            p, q = eps.numerator, eps.denominator
            assert q ** (6 * plan.k) >= n * p ** (6 * plan.k)
            key = (plan.r, plan.k)
            if key not in built:
                built[key] = build_explicit(plan.params())
            g = built[key]
            assert g.n == n
            # exact at every n: one source per value-relabeling orbit
            rep = best_uniformity(g)
            assert rep.d == plan.predicted_d, (m, eps, rep.d)
            assert rep.epsilon <= eps, (m, eps, rep.epsilon)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _line(7, "plan -> generate -> analyze meets eps and d = 2^k-1 for m in {2,3,4}", elapsed)


def test_criterion_8_blow_up(production_reports):
    g, rep = production_reports[(8, 2)]
    assert g.n == 64
    big = blow_up(g, 100)
    assert big.n == 100
    counts = [2] * 36 + [1] * 28  # 100 = 64 + 36 ceiling vertices
    offsets = np.concatenate([[0], np.cumsum(counts)])
    dist_g = np.stack([bfs_distances(g, v) for v in range(g.n)])
    dist_b = np.stack([bfs_distances(big, v) for v in range(big.n)])
    for u in range(g.n):
        for v in range(g.n):
            if u == v:
                continue
            block = dist_b[offsets[u]:offsets[u + 1], offsets[v]:offsets[v + 1]]
            assert (block == dist_g[u, v]).all(), (u, v)
    assert is_distance_uniform(big, 2 * rep.epsilon, rep.d)
    _line(8, f"blow-up to 100 preserves cross-copy distances; uniform at 2*eps = {2 * rep.epsilon}")


def test_criterion_9_property_suite(tmp_path):
    t0 = time.perf_counter()
    graphs = 0
    for r in range(1, 7):
        for k in range(1, 5):
            for proper in (False, True):
                params = HanoiParams(r, k, proper=proper)
                states = enumerate_states(params)
                # state-count closed forms
                want = r**k if proper else (r + 1) * r ** (k - 1)
                assert len(states) == want, (r, k, proper)
                # involution double application is the identity wherever legal
                if k >= 2:
                    for x in states:
                        try:
                            y = apply_move(x, INVOLUTE, params)
                        except IllegalInvolute:
                            assert proper
                            continue
                        assert apply_move(y, INVOLUTE, params) == x
                # adjacency symmetry, exhaustive at the move level
                adj = move_adjacency(params)
                for x, nbrs in adj.items():
                    assert x not in nbrs
                    for y in nbrs:
                        assert x in adj[y]
                # edge-list round trip is the identity
                g = build_explicit(params)
                path = tmp_path / f"g_{r}_{k}_{proper}.dug"
                save_edge_list(g, path)
                assert load_edge_list(path) == g
                graphs += 1
    _line(9, f"self-inverse/symmetry/count/round-trip suite over {graphs} graphs",
          time.perf_counter() - t0)

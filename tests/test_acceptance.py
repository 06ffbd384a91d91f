"""Acceptance suite: one test per criterion, in order, printing one line each.

Run `pytest tests/test_acceptance.py -v -s` to watch the lines appear;
the whole module takes a few minutes (the randomized n=7 sweep in
criterion 3 dominates).
"""

import itertools
import random
import time
from fractions import Fraction

from cliquedeg import (
    Graph,
    StabilityParams,
    canonical_form,
    check_floor_bound,
    check_mean_bound,
    extremal_degree_sum_local_search,
    extremal_degree_sum_min,
    from_edges,
    from_graph6,
    greedy_sequence,
    max_clique_degree_sum,
    near_regular_graph,
    scan_m,
    stability_experiment,
    to_graph6,
    turan_graph,
    turan_size,
)
from cliquedeg.greedy import greedy_prefix_extremes

from oracles import naive_min_over_graphs


def _slots(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def _labeled_graphs(n, m):
    slots = _slots(n)
    for combo in itertools.combinations(slots, m):
        adj = [0] * n
        for u, v in combo:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        yield adj


def _passed(cid, detail):
    print(f"ACCEPTANCE {cid}: PASS ({detail})")


def test_criterion_1_turan_arithmetic():
    start = time.time()
    for n in range(1, 201):
        prev = None
        for r in range(1, n + 1):
            g, dec = turan_graph(r, n, cap=200)
            t = dec.t
            assert t == turan_size(r, n)
            assert g.m == t, f"edge count mismatch at r={r}, n={n}"
            assert 2 * r * t <= (r - 1) * n * n, f"upper quadratic bound at r={r}, n={n}"
            assert 4 * ((r - 1) * n * n - 2 * r * t) <= r * r, f"lower bound at r={r}, n={n}"
            if prev is not None:
                assert prev < t, f"monotonicity at r={r}, n={n}"
            prev = t
    elapsed = time.time() - start
    assert elapsed < 1.0, f"turan arithmetic took {elapsed:.2f}s, budget 1s"
    _passed(1, f"all r <= n <= 200 exact, {elapsed:.2f}s")


def test_criterion_2_floor_bound_exhaustive():
    start = time.time()
    violations = []
    checked = 0
    for n in range(2, 7):
        thresholds = {r: turan_size(r, n) for r in range(2, n + 1)}
        for m in range(min(thresholds.values()), n * (n - 1) // 2 + 1):
            active = [r for r, t in thresholds.items() if t <= m]
            for adj in _labeled_graphs(n, m):
                g = Graph._raw(n, tuple(adj))
                for r in active:
                    rep = check_floor_bound(g, r)
                    checked += 1
                    if not rep.ok:
                        violations.append((n, m, r, rep.failure, rep.counterexample_g6))
    elapsed = time.time() - start
    assert not violations, violations[:5]
    assert elapsed < 120, f"{elapsed:.1f}s exceeds ~2 min budget"
    _passed(2, f"{checked} graph/r checks, 0 violations, {elapsed:.1f}s")


def test_criterion_3_mean_bound_exhaustive_and_randomized():
    start = time.time()
    violations = []
    checked = 0
    for n in range(2, 7):
        thresholds = {r: turan_size(r, n) for r in range(2, n + 1)}
        for m in range(min(thresholds.values()), n * (n - 1) // 2 + 1):
            active = [r for r, t in thresholds.items() if t <= m]
            for adj in _labeled_graphs(n, m):
                g = Graph._raw(n, tuple(adj))
                for r in active:
                    rep = check_mean_bound(g, r)
                    checked += 1
                    if not rep.ok:
                        violations.append((n, m, r, rep.failure, rep.counterexample_g6))
    assert not violations, violations[:5]

    # randomized pass at n = 7: 1e5 uniform graphs per (r, m) stratum
    n = 7
    slots = _slots(n)
    per_stratum = 100_000
    sampled = 0
    for r in range(2, n + 1):
        for m in range(turan_size(r, n), len(slots) + 1):
            rng = random.Random(1_000_003 * 0 + 10_007 * n + 101 * m + r)
            rhs = 2 * r * m
            for i in range(per_stratum):
                adj = [0] * n
                for u, v in rng.sample(slots, m):
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
                degs = [a.bit_count() for a in adj]
                shortest, _, mx = greedy_prefix_extremes(adj, degs, r)
                sampled += 1
                bad = (
                    shortest is not None
                    or mx is None
                    or mx * n < rhs
                    or (min(degs) != max(degs) and mx * n == rhs)
                )
                if bad:
                    violations.append((n, m, r, to_graph6(Graph._raw(n, tuple(adj)))))
                elif i % 20_000 == 0:
                    # spot-check the kernel against the public checker
                    rep = check_mean_bound(Graph._raw(n, tuple(adj)), r)
                    assert rep.ok and rep.best_first_r_sum == mx
    elapsed = time.time() - start
    assert not violations, violations[:5]
    assert elapsed < 600, f"{elapsed:.1f}s exceeds ~10 min budget"
    _passed(3, f"{checked} exhaustive + {sampled} random graphs, 0 violations, {elapsed:.1f}s")


def test_criterion_4_two_sided_band():
    start = time.time()
    cells = 0
    for n in range(2, 8):
        for r in (2, 3):
            if r > n:
                continue
            for m in range(turan_size(r, n), n * (n - 1) // 2 + 1):
                rec = extremal_degree_sum_min(n, m, r)
                lhs = rec.delta_min * n
                lo = 2 * r * m
                hi = lo + r * n
                assert lo <= lhs < hi, f"band broken at n={n} m={m} r={r}: {rec}"
                near = near_regular_graph(n, m)
                degs = near.degrees()
                assert max(degs) - min(degs) <= 1
                assert max_clique_degree_sum(near, r).value * n < hi, (
                    f"near-regular witness fails upper bound at n={n} m={m} r={r}"
                )
                cells += 1
    elapsed = time.time() - start
    _passed(4, f"{cells} (n,m,r) cells inside [2rm, 2rm+rn), {elapsed:.1f}s")


def test_criterion_5_zero_regime():
    start = time.time()
    rng = random.Random(42)
    spot = 0
    for r in (3, 4):
        for n in (8, 15, 30, 50):
            host, dec = turan_graph(r - 1, n)
            host_edges = list(host.edges())
            assert len(host_edges) == dec.t
            sizes = {0, len(host_edges)} | {
                rng.randint(0, len(host_edges)) for _ in range(10)
            }
            for m in sorted(sizes):
                sub = from_edges(n, rng.sample(host_edges, m))
                res = max_clique_degree_sum(sub, r)
                assert res.value == 0 and res.witness is None, (r, n, m)
                spot += 1
    # exhaustive confirmation at desk scale
    cells = 0
    for r in (3, 4):
        for n in range(r, 8):
            m = turan_size(r - 1, n)
            rec = extremal_degree_sum_min(n, m, r)
            assert rec.delta_min == 0, (n, m, r, rec)
            assert max_clique_degree_sum(from_graph6(rec.witness_g6), r).value == 0
            cells += 1
    elapsed = time.time() - start
    _passed(5, f"{spot} sampled subgraphs + {cells} exhaustive cells all zero, {elapsed:.1f}s")


def test_criterion_6_specific_values():
    expected = {(4, 4, 2): 4, (5, 6, 2): 5, (6, 12, 3): 12}
    for (n, m, r), value in expected.items():
        assert naive_min_over_graphs(n, m, r) == value  # independent oracle
        rec = extremal_degree_sum_min(n, m, r)
        assert rec.delta_min == value, (n, m, r, rec.delta_min)
    _passed(6, "minima (4,4,2)=4 (5,6,2)=5 (6,12,3)=12 confirmed twice")


def test_criterion_7_oracle_consistency():
    start = time.time()
    rng = random.Random(2024)
    for _ in range(10_000):
        n = rng.randint(1, 20)
        nslots = n * (n - 1) // 2
        m = rng.randint(0, nslots)
        slots = _slots(n)
        g = from_edges(n, rng.sample(slots, m))
        seq = greedy_sequence(g)
        r = rng.randint(1, min(4, len(seq.vertices)))
        assert seq.degree_sums[r - 1] <= max_clique_degree_sum(g, r).value, (
            to_graph6(g),
            r,
        )
    triples = 0
    for n in range(1, 7):
        for m in range(0, n * (n - 1) // 2 + 1):
            for r in range(1, n + 1):
                exact = extremal_degree_sum_min(n, m, r).delta_min
                heur = extremal_degree_sum_local_search(n, m, r, seed=0).delta_min
                assert heur >= exact, (n, m, r, heur, exact)
                triples += 1
    elapsed = time.time() - start
    _passed(7, f"10000 greedy<=exact graphs, {triples} local>=exact triples, {elapsed:.1f}s")


def test_criterion_8_stability_tables():
    start = time.time()
    n = 7
    for r in (2, 3):
        for eps in (Fraction(1, 4), Fraction(1, 8)):
            params = StabilityParams(epsilon=eps, r=r, n=n)
            rows = stability_experiment(params, workers=1)
            assert rows, "table must be complete"
            assert rows[-1].m == turan_size(r, n)
            last = rows[-1]
            assert last.ratio_num >= last.ratio_den, "threshold row ratio must be >= 1"
            for row in rows:
                assert row.ratio_decimal  # fully rendered table
            again = stability_experiment(params, workers=1)
            pooled = stability_experiment(params, workers=2)
            assert rows == again == pooled
    elapsed = time.time() - start
    _passed(8, f"4 tables identical across runs and worker counts, {elapsed:.1f}s")


def test_criterion_9_infrastructure():
    start = time.time()
    rng = random.Random(99)
    for _ in range(10_000):
        n = rng.randint(0, 64)
        density = rng.random()
        edges = [p for p in _slots(n) if rng.random() < density]
        g = from_edges(n, edges)
        assert from_graph6(to_graph6(g)) == g
    g6_elapsed = time.time() - start

    t1 = time.time()
    for _ in range(1_000):
        n = rng.randint(0, 8)
        edges = [p for p in _slots(n) if rng.random() < rng.random()]
        g = from_edges(n, edges)
        canon = canonical_form(g)
        perm = list(range(n))
        for _ in range(100):
            rng.shuffle(perm)
            h = from_edges(n, [(perm[u], perm[v]) for u, v in edges])
            assert canonical_form(h) == canon
    canon_elapsed = time.time() - t1

    t2 = time.time()
    single = scan_m(6, 3, 9, 13, workers=1)
    for workers in (2, 4):
        assert scan_m(6, 3, 9, 13, workers=workers) == single
    pool_elapsed = time.time() - t2
    _passed(
        9,
        f"10k round trips {g6_elapsed:.1f}s, 1k x 100 canonical {canon_elapsed:.1f}s, "
        f"scans identical across worker counts {pool_elapsed:.1f}s",
    )

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquedeg import (
    enumerate_r_cliques,
    from_edges,
    max_clique_degree_sum,
    turan_graph,
)

from conftest import circulant, graphs, slot_pairs
from oracles import naive_degrees, naive_max_clique_degree_sum, naive_r_cliques


def c4():
    return from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def k4():
    return from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


def test_enumerate_counts():
    assert len(list(enumerate_r_cliques(k4(), 3))) == 4
    assert list(enumerate_r_cliques(c4(), 3)) == []
    tg, _ = turan_graph(3, 6)
    assert len(list(enumerate_r_cliques(tg, 3))) == 8


def test_enumerate_lex_order_and_r1():
    g = from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert list(enumerate_r_cliques(g, 2)) == [(0, 1), (0, 2), (1, 2)]
    assert list(enumerate_r_cliques(g, 1)) == [(0,), (1,), (2,)]
    assert list(enumerate_r_cliques(g, 4)) == []
    with pytest.raises(ValueError):
        list(enumerate_r_cliques(g, 0))


def test_max_degree_sum_examples():
    res = max_clique_degree_sum(c4(), 3)
    assert res.value == 0 and res.witness is None
    pendant = from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    res = max_clique_degree_sum(pendant, 2)
    assert res.value == 5 and res.witness == (0, 1)
    tg, _ = turan_graph(3, 6)
    assert max_clique_degree_sum(tg, 3).value == 12


def test_max_degree_sum_r1_is_max_degree():
    g = from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
    res = max_clique_degree_sum(g, 1)
    assert res.value == 3 and res.witness == (0,)
    with pytest.raises(ValueError, match="clique size must be at least 1"):
        max_clique_degree_sum(g, 0)


def test_r_beyond_n_gives_zero_without_error():
    res = max_clique_degree_sum(from_edges(2, [(0, 1)]), 5)
    assert res.value == 0 and res.witness is None
    k64 = from_edges(64, slot_pairs(64))
    res = max_clique_degree_sum(k64, 64)
    assert res.value == 64 * 63 and res.witness == tuple(range(64))
    res = max_clique_degree_sum(k64, 65)
    assert res.value == 0 and res.witness is None


def test_turan_graph_value_r_divides_n():
    for r in (2, 3, 4):
        for n in (r, 2 * r, 3 * r):
            g, _ = turan_graph(r, n)
            assert max_clique_degree_sum(g, r).value == (r - 1) * n


def test_turan_graph_value_unbalanced():
    # K(3,2,2): every 3-clique takes one vertex per part, degrees 4+5+5
    g, _ = turan_graph(3, 7)
    assert max_clique_degree_sum(g, 3).value == 14


def test_witness_is_lex_least_maximizer():
    # two disjoint triangles with equal degree sums
    g = from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    res = max_clique_degree_sum(g, 3)
    assert res.witness == (0, 1, 2)


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=7), st.integers(1, 4))
def test_matches_naive_oracle(g, r):
    edges = list(g.edges())
    cliques = naive_r_cliques(g.n, edges, r)
    assert list(enumerate_r_cliques(g, r)) == cliques
    res = max_clique_degree_sum(g, r)
    assert res.value == naive_max_clique_degree_sum(g.n, edges, r)
    deg = naive_degrees(g.n, edges)
    first_max = next((c for c in cliques if sum(deg[v] for v in c) == res.value), None)
    assert res.witness == first_max


def test_clique_walk_matches_naive_oracle_on_every_small_graph():
    """The one walk behind clique enumeration, local search and the kernel: on
    every labeled graph with n <= 5 and every r = 1..n+1, the same cliques in
    the same (lexicographic) order, each with the degree sum of its members.
    With a fixed floor f it yields exactly those of sum > f, and with a floor
    the consumer raises to each sum it is given, exactly the strict running
    maxima, so the floor is read afresh at every step."""
    from cliquedeg.cliques import _clique_sums

    for n in range(6):
        pairs = slot_pairs(n)
        for mask in range(1 << len(pairs)):
            edges = [p for k, p in enumerate(pairs) if mask >> k & 1]
            adj = from_edges(n, edges).adj
            deg = naive_degrees(n, edges)
            for r in range(1, n + 2):
                expected = [
                    (sum(deg[v] for v in c), sum(1 << v for v in c))
                    for c in naive_r_cliques(n, edges, r)
                ]
                assert list(_clique_sums(adj, deg, r)) == expected, (n, edges, r)
                top = max((s for s, _ in expected), default=0)
                for f in (-1, 0, top - 1, top):
                    got = list(_clique_sums(adj, deg, r, floor=[f]))
                    assert got == [e for e in expected if e[0] > f], (n, edges, r, f)
                maxima = []
                for e in expected:
                    if not maxima or e[0] > maxima[-1][0]:
                        maxima.append(e)
                floor = [-1]
                got = []
                for s, bits in _clique_sums(adj, deg, r, floor=floor):
                    got.append((s, bits))
                    floor[0] = s
                assert got == maxima, (n, edges, r)


@settings(max_examples=100, deadline=None)
@given(graphs(min_n=2, max_n=7), st.integers(1, 4), st.data())
def test_monotone_under_edge_addition(g, r, data):
    holes = [(u, v) for u, v in slot_pairs(g.n) if not g.adj[u] >> v & 1]
    if not holes:
        return
    u, v = data.draw(st.sampled_from(holes))
    before = max_clique_degree_sum(g, r).value
    after = max_clique_degree_sum(from_edges(g.n, [*g.edges(), (u, v)]), r).value
    assert after >= before


def test_value_dominates_every_clique():
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(1, 8)
        edges = [p for p in slot_pairs(n) if rng.random() < 0.5]
        g = from_edges(n, edges)
        deg = naive_degrees(n, edges)
        for r in (1, 2, 3):
            res = max_clique_degree_sum(g, r)
            for clique in enumerate_r_cliques(g, r):
                assert sum(deg[v] for v in clique) <= res.value


def test_fast_kernel_agrees_and_aborts_correctly():
    from cliquedeg.cliques import max_degree_sum_value

    rng = random.Random(8)
    for k in range(240):
        n = rng.randint(0, 8)
        # random graphs, plus empty and complete graphs on every fifth draw
        density = (0.5, 0.5, 0.5, 0.0, 1.0)[k % 5]
        edges = [p for p in slot_pairs(n) if rng.random() < density]
        g = from_edges(n, edges)
        degs = g.degrees()
        for r in range(1, 10):  # r > n included
            value = naive_max_clique_degree_sum(n, edges, r)
            assert max_degree_sum_value(g.adj, degs, r) == value
            cutoff = rng.randint(0, max(value, 1))
            got = max_degree_sum_value(g.adj, degs, r, abort_above=cutoff)
            if value > cutoff:
                assert got is None
            else:
                assert got == value


def test_within_mask_matches_the_kernel_on_masked_rows():
    """``within`` gives what the kernel gives on rows masked to it (r >= 2), and
    what the oracle gives on the induced subgraph with the whole graph's degrees
    (every r), the abort included; ``within=None`` is the unmasked search."""
    from cliquedeg.cliques import _best_clique, max_degree_sum_value

    rng = random.Random(1217)
    for _ in range(150):
        n = rng.randint(0, 12)
        edges = [p for p in slot_pairs(n) if rng.random() < rng.uniform(0.3, 0.9)]
        g = from_edges(n, edges)
        degs = g.degrees()
        deg = naive_degrees(n, edges)
        mask = rng.getrandbits(n)
        inside = [(u, v) for u, v in edges if mask >> u & mask >> v & 1]
        masked = [a & mask if mask >> x & 1 else 0 for x, a in enumerate(g.adj)]
        for r in range(1, 6):
            cliques = [c for c in naive_r_cliques(n, inside, r) if all(mask >> v & 1 for v in c)]
            value = max((sum(deg[v] for v in c) for c in cliques), default=0)
            first = next((c for c in cliques if sum(deg[v] for v in c) == value), ())
            found = _best_clique(g.adj, degs, r, within=mask)
            assert found == (value, sum(1 << v for v in first)), (n, edges, mask, r)
            if r >= 2:
                assert found == _best_clique(masked, degs, r)
            assert _best_clique(g.adj, degs, r, within=(1 << n) - 1) == _best_clique(g.adj, degs, r)
            for cutoff in (None, value - 1, value, value + 1, rng.randint(0, max(value, 1))):
                got = max_degree_sum_value(g.adj, degs, r, abort_above=cutoff, within=mask)
                if r >= 2:
                    assert got == max_degree_sum_value(masked, degs, r, abort_above=cutoff)
                if cutoff is not None and cliques and value > cutoff:
                    assert got is None
                else:
                    assert got == value


def _kernel_cases():
    """(n, edges, clique sizes): small tie-heavy graphs at every r = 1..n+1, then
    dense random graphs and larger regular and vertex-transitive graphs, on which
    many r-cliques tie at the maximum."""
    for n in range(5, 10):
        small = [
            slot_pairs(n),  # complete
            [(u, v) for u, v in slot_pairs(n) if u % 3 != v % 3],  # Turán, three parts
            [(u, v) for u, v in slot_pairs(n) if u % 4 != v % 4],  # Turán, four parts
            circulant(n, (1, 2)),
            circulant(n, (2, 3)),
            [(u, v) for u, v in slot_pairs(n) if v != u + 1 or u % 2],  # matching removed
        ]
        for edges in small:
            yield n, edges, range(1, n + 2)
    rng = random.Random(71)
    for _ in range(10):
        n = rng.randint(16, 22)
        density = rng.uniform(0.6, 0.9)
        yield n, [p for p in slot_pairs(n) if rng.random() < density], range(3, 7)
    yield 13, circulant(13, (1, 2, 3, 5)), range(3, 7)
    yield 16, circulant(16, (1, 2, 3, 4, 6, 8)), range(3, 7)
    for n, k in ((15, 5), (18, 6), (20, 4)):  # Turán graphs
        yield n, [(u, v) for u, v in slot_pairs(n) if u % k != v % k], range(3, 7)
    for n in (12, 16):  # complements of perfect matchings
        yield n, [(u, v) for u, v in slot_pairs(n) if v != u + 1 or u % 2], range(3, 7)
    yield 14, slot_pairs(14), range(3, 7)


def test_kernel_matches_oracle_on_dense_and_symmetric_graphs():
    """Branch and bound must keep the value, the first maximizer in lex order
    as the witness, and the exact abort around the maximum."""
    from cliquedeg.cliques import _best_clique

    for n, edges, rs in _kernel_cases():
        g = from_edges(n, edges)
        degs = g.degrees()
        deg = naive_degrees(n, edges)
        for r in rs:
            cliques = naive_r_cliques(n, edges, r)
            value = max((sum(deg[v] for v in c) for c in cliques), default=0)
            first = next((c for c in cliques if sum(deg[v] for v in c) == value), None)
            res = max_clique_degree_sum(g, r)
            assert (res.value, res.witness) == (value, first)
            for cutoff in (value - 1, value, value + 1):
                found = _best_clique(g.adj, degs, r, abort_above=cutoff)
                if cliques and value > cutoff:
                    assert found is None
                else:
                    assert found == (value, sum(1 << v for v in res.witness or ())), (n, r)


def _golden_graphs():
    """Seeded dense random graphs with n = 24..40, past the oracle's reach."""
    rng = random.Random(2440)
    for n in range(24, 41, 2):
        density = rng.uniform(0.6, 0.8)
        yield n, [p for p in slot_pairs(n) if rng.random() < density]


# (n, m, [(value, witness) for r = 3, 4, 5]) of each golden graph, as `cliquedeg
# delta` prints them: pinned, because the oracle tests stop at n = 22.
GOLDEN_DELTAS = [
    (24, 183, [(54, (8, 16, 22)), (71, (0, 8, 16, 22)), (87, (0, 5, 8, 16, 22))]),
    (26, 255, [(69, (1, 4, 9)), (91, (1, 4, 9, 14)), (112, (0, 1, 4, 9, 14))]),
    (28, 274, [(70, (0, 8, 14)), (92, (0, 5, 8, 14)), (113, (0, 2, 5, 8, 14))]),
    (30, 280, [(70, (3, 7, 23)), (91, (3, 7, 15, 23)), (112, (3, 7, 15, 21, 23))]),
    (32, 346, [(74, (0, 11, 20)), (98, (0, 11, 16, 20)), (122, (0, 11, 16, 18, 20))]),
    (34, 377, [(78, (16, 18, 21)), (104, (16, 18, 21, 33)), (129, (2, 16, 18, 21, 33))]),
    (36, 397, [(78, (0, 15, 25)), (103, (0, 13, 15, 25)), (128, (0, 13, 15, 17, 25))]),
    (38, 466, [(92, (1, 11, 14)), (122, (1, 11, 14, 23)), (150, (1, 11, 14, 23, 33))]),
    (40, 619, [(105, (21, 32, 33)), (139, (6, 21, 32, 33)), (173, (6, 12, 21, 32, 33))]),
]


def test_golden_delta_witnesses_beyond_the_oracle():
    got = []
    for n, edges in _golden_graphs():
        g = from_edges(n, edges)
        results = [max_clique_degree_sum(g, r) for r in (3, 4, 5)]
        got.append((n, g.m, [(res.value, res.witness) for res in results]))
    assert got == GOLDEN_DELTAS


def _hub_graphs():
    """Seeded graphs whose highest degrees are hubs outside the densest part: a
    dense core on half the vertices, sparse edges elsewhere, and four pairwise
    non-adjacent hubs joined to nearly every other vertex.  A clique holds at
    most one hub, so the largest degrees among a vertex's candidates span
    several degree classes."""
    rng = random.Random(4024)
    for n in (24, 32, 40):
        core = set(rng.sample(range(n), n // 2))
        hubs = set(rng.sample(sorted(set(range(n)) - core), 4))
        edges = []
        for u, v in slot_pairs(n):
            if u in hubs and v in hubs:
                continue
            p = 0.95 if u in hubs or v in hubs else 0.9 if u in core and v in core else 0.4
            if rng.random() < p:
                edges.append((u, v))
        yield n, edges


def test_kernel_matches_the_unfloored_walk_beyond_the_oracle():
    """Past the oracle's reach, the floored kernel, which prunes by the largest
    candidate degrees, must give the first maximum of the walk with no floor,
    which that bound never touches, inside ``within`` masks too, and the exact
    abort around it."""
    from cliquedeg.cliques import _best_clique, _clique_sums

    rng = random.Random(3306)
    for n, edges in [*_golden_graphs(), *_hub_graphs()]:
        g = from_edges(n, edges)
        degs = g.degrees()
        for r in range(3, 7):
            for within in (None, rng.getrandbits(n) | rng.getrandbits(n)):
                sums = list(_clique_sums(g.adj, degs, r, within))
                value = max((s for s, _ in sums), default=0)
                first = next((bits for s, bits in sums if s == value), 0)
                assert _best_clique(g.adj, degs, r, within=within) == (value, first), (n, r, within)
                for cutoff in (value - 1, value, value + 1):
                    found = _best_clique(g.adj, degs, r, abort_above=cutoff, within=within)
                    assert found == (None if sums and value > cutoff else (value, first)), (n, r, cutoff)

import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from cliquedeg import (
    ResourceLimitError,
    band_violation,
    canonical_form,
    extremal_degree_sum_local_search,
    extremal_degree_sum_min,
    from_edges,
    from_graph6,
    max_clique_degree_sum,
    near_regular_graph,
    scan_m,
    stability_experiment,
    turan_size,
    to_graph6,
    turan_graph,
    verify_all,
    StabilityParams,
)
from cliquedeg.cli import main
from cliquedeg.extremal import (
    MAX_ITER_BUDGET,
    MAX_RESTARTS,
    MAX_WORKERS,
    _best_swap,
)
from cliquedeg.greedy import _floor_failure, _mean_failure

from conftest import circulant, slot_pairs
from oracles import (
    _least_bitstring,
    _pair_weights,
    naive_best_swap,
    naive_bitstring,
    naive_edges_from_bitstring,
    naive_isomorphism_classes,
    naive_least_minimizer_g6,
    naive_local_search,
    naive_max_clique_degree_sum,
    naive_min_over_graphs,
    naive_r_cliques,
    naive_swap_least,
)


def _edge_set(rows):
    return frozenset((u, v) for u, v in slot_pairs(len(rows)) if rows[u] >> v & 1)


def _pairs(rows):
    return tuple(sorted(_edge_set(rows)))


def test_least_walk_yields_exactly_the_swap_least_labelings():
    """The generator yields exactly the labelings of itertools.combinations
    that the naive swap rule keeps, each once, with its degrees, in strictly
    ascending order of the column-order bitstring."""
    from cliquedeg.extremal import _least_adjs

    cells = [(n, m) for n in range(7) for m in range(math.comb(n, 2) + 1)]
    cells += [(7, 3), (7, 4), (7, 18)]
    for n, m in cells:
        swap_least = sorted(
            naive_bitstring(n, pairs)
            for pairs in itertools.combinations(slot_pairs(n), m)
            if naive_swap_least(n, pairs)
        )
        least = []
        for rows, degs in _least_adjs(n, m):
            assert degs == [row.bit_count() for row in rows], (n, m)
            least.append(naive_bitstring(n, _pairs(rows)))
        assert least == swap_least, (n, m)


def test_canonical_invariance_under_relabeling():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(0, 6)
        edges = [p for p in slot_pairs(n) if rng.random() < 0.5]
        g = from_edges(n, edges)
        canon = canonical_form(g)
        perm = list(range(n))
        rng.shuffle(perm)
        h = from_edges(n, [(perm[u], perm[v]) for u, v in edges])
        assert canonical_form(h) == canon


def test_canonical_distinguishes():
    p3 = from_edges(3, [(0, 1), (1, 2)])
    k3 = from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert canonical_form(p3) != canonical_form(k3)


def test_canonical_classes_n4_m3():
    forms = {canonical_form(from_edges(4, pairs)) for pairs in itertools.combinations(slot_pairs(4), 3)}
    assert len(forms) == 3  # path, star, triangle plus isolated vertex


def _symmetric_graphs_n7_n8():
    """Regular graphs, complements and disjoint unions: graphs with many twins
    and many automorphisms that are not twin swaps."""
    def cycle(n):
        return [(i, (i + 1) % n) for i in range(n)]

    def complete(vertices):
        return [(u, v) for u in vertices for v in vertices if u < v]

    def complement(n, edges):
        have = {tuple(sorted(e)) for e in edges}
        return [p for p in slot_pairs(n) if p not in have]

    cube = [(u, u ^ 1 << k) for u in range(8) for k in range(3) if u < u ^ 1 << k]
    cases = [
        (7, cycle(7)),
        (7, circulant(7, (1, 2))),
        (7, complete(range(4)) + complete(range(4, 7))),
        (7, cycle(4) + [(4, 5), (5, 6), (4, 6)]),
        (8, cycle(8)),
        (8, circulant(8, (1, 2))),
        (8, circulant(8, (1, 4))),
        (8, cube),
        (8, [(u, v) for u, v in slot_pairs(8) if u % 2 != v % 2]),
        (8, cycle(4) + [(4 + u, 4 + v) for u, v in cycle(4)]),
        (8, complete(range(4)) + complete(range(4, 8))),
        (8, [(0, 1), (1, 2), (0, 2)] + [(3 + u, 3 + v) for u, v in cycle(5)]),
        (8, [(0, 1), (0, 2), (0, 3)] + [(4, 5), (4, 6), (4, 7)]),
    ]
    cases += [(n, complement(n, edges)) for n, edges in cases]
    rng = random.Random(29)
    for n, count in ((7, 16), (8, 4)):
        for _ in range(count):
            density = rng.choice((0.3, 0.5, 0.7))
            edges = [p for p in slot_pairs(n) if rng.random() < density]
            cases += [(n, edges), (n, complement(n, edges))]
    return cases


def test_canonical_search_matches_permutation_oracle():
    """Twin pruning keeps the least encoding over every vertex order: every
    labeled graph with n <= 6, then symmetric and random graphs with n = 7, 8."""
    for n in range(7):
        for orbit in naive_isomorphism_classes(n):
            least = _least_bitstring(n, orbit[0])
            for edges in orbit:
                assert canonical_form(from_edges(n, edges)) == least
    try:
        for n, edges in _symmetric_graphs_n7_n8():
            pairs = tuple(sorted(tuple(sorted(e)) for e in edges))
            assert canonical_form(from_edges(n, pairs)) == _least_bitstring(n, pairs)
    finally:
        # the n = 8 permutation table is large; do not keep it for later tests
        _least_bitstring.cache_clear()
        _pair_weights.cache_clear()


def test_swap_test_keeps_every_least_labeling():
    """The swap-least generator keeps exactly the labelings that no swap of two
    consecutive vertices j, j + 1 (j >= 1) with different neighbours below j
    lowers, and so every least labeling: every labeled graph with n <= 5, then
    the least labeling of every class at n = 6."""
    from cliquedeg.extremal import _least_adjs

    def kept(n):  # the bitstrings of the labelings the generator yields
        return {
            naive_bitstring(n, _pairs(rows))
            for m in range(math.comb(n, 2) + 1)
            for rows, _ in _least_adjs(n, m)
        }

    try:
        for n in range(6):
            walk = kept(n)
            slots = slot_pairs(n)
            for m in range(len(slots) + 1):
                for pairs in itertools.combinations(slots, m):
                    own = naive_bitstring(n, pairs)
                    assert (own in walk) == naive_swap_least(n, pairs), (n, pairs)
                    if own == _least_bitstring(n, pairs):
                        assert own in walk, (n, pairs)
        walk = kept(6)
        for orbit in naive_isomorphism_classes(6):
            least = _least_bitstring(6, orbit[0])
            assert least in walk, least
    finally:
        _least_bitstring.cache_clear()
        _pair_weights.cache_clear()


def test_canonical_cap():
    with pytest.raises(ResourceLimitError):
        canonical_form(from_edges(9, []))


def test_triangle_bits_round_trip():
    rng = random.Random(23)
    for _ in range(50):
        n = rng.randint(0, 7)
        edges = [p for p in slot_pairs(n) if rng.random() < 0.4]
        g = from_edges(n, edges)
        canon = canonical_form(g)
        h = from_edges(n, naive_edges_from_bitstring(n, canon))
        assert canonical_form(h) == canon and h.m == g.m


def test_min_exact_derived_values():
    rec = extremal_degree_sum_min(4, 4, 2)
    assert rec.delta_min == 4 == naive_min_over_graphs(4, 4, 2)
    witness = from_graph6(rec.witness_g6)
    assert witness.degrees() == (2, 2, 2, 2)  # the 4-cycle
    assert rec.graphs_examined == 15
    assert rec.regime == "at-threshold"
    assert (rec.ratio_num, rec.ratio_den) == (4, 1)

    rec = extremal_degree_sum_min(5, 6, 2)
    assert rec.delta_min == 5 == naive_min_over_graphs(5, 6, 2)
    assert 5 * 5 > 2 * 2 * 6

    rec = extremal_degree_sum_min(6, 9, 3)
    assert rec.delta_min == 0
    witness = from_graph6(rec.witness_g6)
    assert max_clique_degree_sum(witness, 3).value == 0
    assert witness.m == 9


def test_min_exact_matches_naive_oracle_broadly():
    for n in range(1, 6):
        for m in range(0, n * (n - 1) // 2 + 1):
            for r in (1, 2, 3, 4):
                rec = extremal_degree_sum_min(n, m, r)
                assert rec.delta_min == naive_min_over_graphs(n, m, r), (n, m, r)
                witness = from_graph6(rec.witness_g6)
                assert witness.n == n and witness.m == m
                assert max_clique_degree_sum(witness, r).value == rec.delta_min


def test_min_witness_is_least_canonical_minimizer():
    rec = extremal_degree_sum_min(5, 4, 2)
    minimizers = [
        g for g in (from_edges(5, pairs) for pairs in itertools.combinations(slot_pairs(5), 4))
        if max_clique_degree_sum(g, 2).value == rec.delta_min
    ]
    least = min(canonical_form(g) for g in minimizers)
    assert canonical_form(from_graph6(rec.witness_g6)) == least
    # the kernel sees only swap-least labelings, and the ceiling skips some of
    # them; the scan must still find the least canonical minimizer
    cells = [(n, m, r) for n in range(1, 6) for m in range(math.comb(n, 2) + 1) for r in (2, 3)]
    cells += [(6, 3, 2), (6, 9, 3), (6, 14, 2), (7, 1, 2), (7, 2, 2), (7, 20, 3)]
    try:
        for n, m, r in cells:
            expected = naive_least_minimizer_g6(n, m, r)
            for mode in ("exhaustive", "canonical"):
                rec = extremal_degree_sum_min(n, m, r, mode=mode)
                assert rec.witness_g6 == expected, (n, m, r, mode)
    finally:
        _least_bitstring.cache_clear()
        _pair_weights.cache_clear()


def test_canonical_mode_agrees_with_exhaustive():
    # one scan under two names, with one cap: every field but ``mode`` is equal, up to n = 8
    n8 = [(8, m, r) for r in (2, 3, 4) for m in (0, 1, 14, 16, 20, 27, 28)]
    for n, m, r in [(4, 4, 2), (5, 6, 2), (5, 8, 3)] + n8:
        a = extremal_degree_sum_min(n, m, r, mode="exhaustive")
        b = extremal_degree_sum_min(n, m, r, mode="canonical")
        assert (a.mode, b.mode) == ("exhaustive", "canonical")
        assert replace(a, mode="canonical") == b, (n, m, r)


def test_canonical_mode_at_n8_matches_oracle():
    for m in (0, 1, 2, 26, 27, 28):
        for r in (2, 3):
            rec = extremal_degree_sum_min(8, m, r, mode="canonical")
            assert rec.delta_min == naive_min_over_graphs(8, m, r), (m, r)
            assert rec.graphs_examined == math.comb(28, m)
            witness = from_graph6(rec.witness_g6)
            assert witness.n == 8 and witness.m == m
            assert max_clique_degree_sum(witness, r).value == rec.delta_min
    with pytest.raises(ResourceLimitError, match="exact modes capped at n=8; use local-search"):
        extremal_degree_sum_min(9, 1, 2, mode="exhaustive")


def test_scan_identical_across_worker_counts():
    for r in (2, 3, 4):
        single = scan_m(6, r, 11, 13, workers=1)
        for workers in (2, 3, 4):
            assert scan_m(6, r, 11, 13, workers=workers) == single, (r, workers)


def test_fixed_ceiling_skips_only_labelings_at_or_above_it():
    """A ceiling held at the cell's value, or one above it, keeps a part of the
    swap-least labelings in their order, and every labeling it skips has a value
    at least the ceiling.  Every cell with n <= 7 runs, at r = 2 and 3."""
    from cliquedeg.extremal import _least_adjs

    for n in range(2, 8):
        for m in range(n * (n - 1) // 2 + 1):
            whole = [tuple(rows) for rows, _ in _least_adjs(n, m)]
            for r in (2, 3):
                value = extremal_degree_sum_min(n, m, r).delta_min
                values = {}  # labeling: its value, by the oracle
                for ceiling in (value, value + 1):
                    kept = [tuple(rows) for rows, _ in _least_adjs(n, m, r, [ceiling])]
                    skipped = set(whole).difference(kept)
                    assert kept == [g for g in whole if g not in skipped], (n, m, r, ceiling)
                    for g in skipped:
                        if g not in values:
                            values[g] = naive_max_clique_degree_sum(n, _edge_set(g), r)
                        assert values[g] >= ceiling, (n, m, r, g)


def _cli_csv_lines(capsys, *argv):
    """The lines ``cliquedeg ... --format csv`` prints after its audit line."""
    assert main([*map(str, argv), "--format", "csv"]) == 0
    return capsys.readouterr().out.splitlines(keepends=True)[1:]


# scan CSV written by the lexicographic scan; the walk order must change no value or witness
GOLDEN_RECORDS = {
    (7, 4, 17, 19): """\
n,m,r,mode,delta_min,ratio_num,ratio_den,witness_g6,graphs_examined
7,17,4,exhaustive,20,136,7,FNz~o,5985
7,18,4,exhaustive,21,144,7,F]~vw,1330
7,19,4,exhaustive,23,152,7,F]~~w,210
""",
    (6, 2, 0, 15): """\
n,m,r,mode,delta_min,ratio_num,ratio_den,witness_g6,graphs_examined
6,0,2,exhaustive,0,0,1,E???,1
6,1,2,exhaustive,2,2,3,E??G,15
6,2,2,exhaustive,2,4,3,E?C_,105
6,3,2,exhaustive,2,2,1,E@Q?,455
6,4,2,exhaustive,3,8,3,E?N?,1365
6,5,2,exhaustive,4,10,3,E@N?,3003
6,6,2,exhaustive,4,4,1,EBj?,5005
6,7,2,exhaustive,5,14,3,E@v_,6435
6,8,2,exhaustive,6,16,3,E?~o,6435
6,9,2,exhaustive,6,6,1,EFz_,5005
6,10,2,exhaustive,7,20,3,EK~o,3003
6,11,2,exhaustive,8,22,3,EJ~o,1365
6,12,2,exhaustive,8,8,1,E]~o,455
6,13,2,exhaustive,10,26,3,EN~w,105
6,14,2,exhaustive,10,28,3,E^~w,15
6,15,2,exhaustive,10,10,1,E~~w,1
""",
    (6, 3, 0, 15): """\
n,m,r,mode,delta_min,ratio_num,ratio_den,witness_g6,graphs_examined
6,0,3,exhaustive,0,0,1,E???,1
6,1,3,exhaustive,0,1,1,E??G,15
6,2,3,exhaustive,0,2,1,E??W,105
6,3,3,exhaustive,0,3,1,E??w,455
6,4,3,exhaustive,0,4,1,E?@w,1365
6,5,3,exhaustive,0,5,1,E?Bw,3003
6,6,3,exhaustive,0,6,1,E?No,5005
6,7,3,exhaustive,0,7,1,E?^o,6435
6,8,3,exhaustive,0,8,1,E?~o,6435
6,9,3,exhaustive,0,9,1,EFz_,5005
6,10,3,exhaustive,10,10,1,EK~o,3003
6,11,3,exhaustive,12,11,1,EFzw,1365
6,12,3,exhaustive,12,12,1,E]~o,455
6,13,3,exhaustive,14,13,1,E]~w,105
6,14,3,exhaustive,15,14,1,E^~w,15
6,15,3,exhaustive,15,15,1,E~~w,1
""",
}


@pytest.mark.parametrize("cell", GOLDEN_RECORDS, ids=lambda c: "n{}-r{}-m{}..{}".format(*c))
def test_scan_records_match_golden_csv(cell, capsys):
    n, r, m_from, m_to = cell
    lines = _cli_csv_lines(capsys, "scan", "--n", n, "--r", r, "--m-from", m_from, "--m-to", m_to)
    assert "".join(lines) == GOLDEN_RECORDS[cell]


def test_scan_values_rise_through_threshold():
    records = scan_m(6, 3, 9, 12)
    assert [rec.delta_min for rec in records] == [0, 10, 12, 12]
    assert [rec.regime for rec in records] == [
        "below-threshold",
        "below-threshold",
        "below-threshold",
        "at-threshold",
    ]


def test_scan_n4_r2():
    records = scan_m(4, 2, 4, 6)
    assert [rec.delta_min for rec in records] == [4, 6, 6]
    assert records[-1].delta_min == 6  # complete graph


def test_scan_empty_range():
    assert scan_m(5, 2, 7, 6) == []


def test_every_cell_is_checked_before_the_first_scan(monkeypatch):
    import cliquedeg.extremal as ext

    calls = []
    kernel = ext.max_degree_sum_value

    def counting(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(ext, "max_degree_sum_value", counting)
    with pytest.raises(ValueError):
        scan_m(6, 2, 0, 16)
    assert len(calls) == 0
    # verify checks its mode once, before the greedy checks of its first cell
    monkeypatch.setattr(ext, "greedy_prefix_extremes", counting)
    with pytest.raises(
        ValueError, match="unknown mode 'local-search'; expected one of exhaustive, canonical$"
    ):
        verify_all(5, [2, 3], mode="local-search")
    assert len(calls) == 0


def test_exact_scan_stops_at_its_first_zero(monkeypatch):
    """Nothing lies below 0, and a later 0 has a greater encoding, so a scan
    stops at its first labeling with no r-clique: the kernel's last call is on
    that labeling.  (7, 10, 4) took 3,832 kernel calls without the stop, and
    takes one.  At r <= 3 the generator's ceiling skips labelings the kernel
    would abort on, so fewer may reach it; at r >= 4 every labeling up to the
    first 0 does."""
    import cliquedeg.extremal as ext

    calls = []
    kernel = ext.max_degree_sum_value

    def counting(*args, **kwargs):
        calls.append(tuple(args[0]))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(ext, "max_degree_sum_value", counting)
    rec = ext.extremal_degree_sum_min(7, 10, 4)
    assert (rec.delta_min, rec.witness_g6) == (0, "F?@~w")
    assert len(calls) == 1
    stops = pruned = 0
    for n in range(2, 7):
        for r in range(2, n + 2):
            for m in range(n * (n - 1) // 2 + 1):
                labelings = [tuple(rows) for rows, _ in ext._least_adjs(n, m)]
                first = next(
                    (i for i, rows in enumerate(labelings) if not naive_r_cliques(n, _edge_set(rows), r)),
                    None,
                )
                if first is None:
                    continue
                calls.clear()
                assert ext.extremal_degree_sum_min(n, m, r).delta_min == 0, (n, m, r)
                assert calls[-1] == labelings[first], (n, m, r)
                assert len(calls) == first + 1 if r >= 4 else len(calls) <= first + 1, (n, m, r)
                stops += first > 0
                pruned += len(calls) < first + 1
    assert stops and pruned


def test_workers_cap_raises_before_any_pool(monkeypatch):
    import concurrent.futures

    def fail(*args, **kwargs):
        raise AssertionError("a pool started")

    assert MAX_WORKERS >= 4
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", fail)
    with pytest.raises(ResourceLimitError):
        scan_m(6, 2, 8, 10, workers=MAX_WORKERS + 1)


def test_restarts_cap_raises_before_any_start(monkeypatch):
    import cliquedeg.extremal as ext

    calls = []
    build = ext.near_regular_graph

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(ext, "near_regular_graph", counting)
    with pytest.raises(ResourceLimitError):
        extremal_degree_sum_local_search(12, 30, 3, restarts=MAX_RESTARTS + 1)
    assert len(calls) == 0
    extremal_degree_sum_local_search(5, 4, 2, restarts=0)
    assert len(calls) == 1


def test_iter_budget_cap_raises_before_any_start(monkeypatch):
    import cliquedeg.extremal as ext

    calls = []
    build = ext.near_regular_graph

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(ext, "near_regular_graph", counting)
    over = f"iter budget {MAX_ITER_BUDGET + 1} exceeds cap {MAX_ITER_BUDGET}"
    with pytest.raises(ResourceLimitError, match=over):
        extremal_degree_sum_local_search(12, 30, 3, iter_budget=MAX_ITER_BUDGET + 1)
    with pytest.raises(ResourceLimitError, match=over):
        scan_m(5, 2, 8, 10, mode="local-search", iter_budget=MAX_ITER_BUDGET + 1)
    with pytest.raises(ResourceLimitError, match="iter budget 1000000000000 exceeds cap"):
        scan_m(5, 2, 3, 2, mode="local-search", iter_budget=10**12)
    assert len(calls) == 0
    extremal_degree_sum_local_search(5, 4, 2, restarts=0, iter_budget=MAX_ITER_BUDGET)
    assert len(calls) == 1


def test_local_search_scan_checks_every_cell_before_the_first_search(monkeypatch):
    import cliquedeg.extremal as ext

    calls = []
    build = ext.near_regular_graph

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(ext, "near_regular_graph", counting)
    with pytest.raises(ValueError, match="edge count 11 outside 0..10"):
        scan_m(5, 2, 8, 11, mode="local-search")
    with pytest.raises(ResourceLimitError, match="restart count"):
        scan_m(5, 2, 8, 10, mode="local-search", restarts=MAX_RESTARTS + 1)
    assert len(calls) == 0
    assert len(scan_m(5, 2, 9, 10, mode="local-search", restarts=0)) == 2
    assert len(calls) == 2


def test_empty_ranges_still_check_their_arguments():
    with pytest.raises(
        ValueError, match="unknown mode 'bogus'; expected one of exhaustive, canonical, local-search"
    ):
        scan_m(5, 2, 3, 2, mode="bogus")
    with pytest.raises(ValueError, match="clique size must be at least 1"):
        scan_m(5, 0, 3, 2)
    with pytest.raises(ResourceLimitError, match="worker count 99 exceeds cap"):
        scan_m(5, 2, 3, 2, workers=99)
    with pytest.raises(ResourceLimitError, match="exact modes capped at n=8; use local-search"):
        scan_m(9, 2, 3, 2)
    with pytest.raises(ValueError, match="restarts and iter-budget"):
        scan_m(5, 2, 3, 2, mode="local-search", restarts=-1)
    with pytest.raises(ResourceLimitError, match="exact modes capped at n=8; use local-search"):
        scan_m(9, 2, 3, 2, mode="canonical")
    with pytest.raises(ResourceLimitError, match="vertex count 65 exceeds cap 64"):
        scan_m(65, 2, 3, 2, mode="local-search")
    for mode in ("exhaustive", "canonical", "local-search"):
        with pytest.raises(ValueError, match="vertex count must be at least 1, got 0"):
            scan_m(0, 2, 3, 2, mode=mode)
    with pytest.raises(ValueError, match="worker count must be at least 1"):
        scan_m(5, 2, 3, 2, workers=0)
    with pytest.raises(
        ValueError, match="unknown mode 'local-search'; expected one of exhaustive, canonical$"
    ):
        extremal_degree_sum_min(5, 3, 2, mode="local-search")
    assert scan_m(5, 2, 3, 2) == []
    assert scan_m(5, 2, 3, 2, mode="local-search") == []
    # every range is checked in every mode
    with pytest.raises(ValueError, match="restarts and iter-budget must be nonnegative"):
        scan_m(5, 2, 3, 2, restarts=-5)
    with pytest.raises(ValueError, match="restarts and iter-budget must be nonnegative"):
        scan_m(5, 2, 3, 2, mode="canonical", iter_budget=-1)
    with pytest.raises(ResourceLimitError, match="restart count 10001 exceeds cap"):
        scan_m(5, 2, 3, 2, restarts=10_001)
    with pytest.raises(ResourceLimitError, match="worker count 99 exceeds cap"):
        scan_m(5, 2, 3, 2, mode="local-search", workers=99)
    with pytest.raises(ValueError, match="worker count must be at least 1, got 0"):
        scan_m(5, 2, 3, 2, mode="local-search", workers=0)


# Local-search records pinned byte for byte: the ten benchmark cells (n = 12..16,
# r = 3, 4, m = t(r, n), seed 0, no restarts), then cells with n <= 8 and
# restarts.  Ties go to the labeled adjacency rows at every n, and every
# witness is the labeled encoding of the least (value, rows) graph met.
GOLDEN_LOCAL_SEARCH_CELLS = [
    *((n, turan_size(r, n), r, 0, 0) for n in range(12, 17) for r in (3, 4)),
    (6, 9, 2, 3, 4),
    (7, 16, 3, 5, 3),
    (7, 18, 4, 1, 3),
    (8, 21, 3, 2, 2),
    (8, 24, 4, 7, 2),
]
GOLDEN_LOCAL_SEARCH_CSV = r"""n,m,r,mode,delta_min,ratio_num,ratio_den,witness_g6,graphs_examined
12,48,3,local-search,24,24,1,KUzrtz]zvnN],865
12,54,4,local-search,36,36,1,KUzvvz}~v~N},649
13,56,3,local-search,27,336,13,Lu^zp{}RzNm^]^,7393
13,63,4,local-search,40,504,13,L~|xx|^r~Nm~]~,5671
14,65,3,local-search,29,195,7,M~vxp{^ZuNs^yZ]n_,15211
14,73,4,local-search,44,292,7,Mnxzzw~Vz^m~]~N~_,13141
15,75,3,local-search,30,30,1,NUzvrw}fu^[}{}}^Nfo,2251
15,84,4,local-search,46,224,5,N}~~r}}F}^}}w~]^fnw,10585
16,85,3,local-search,33,255,8,Oq~rz}}Fo~k}W~[^nFzw~,23801
16,96,4,local-search,48,48,1,OUzvvx}nu~\}|}}~^nr|},2305
6,9,2,local-search,6,6,1,E{LW,653
7,16,3,local-search,14,96,7,Fs~rw,1124
7,18,4,local-search,21,144,7,F~uzw,760
8,21,3,local-search,16,63,4,G~w{y{,1179
8,24,4,local-search,24,24,1,Gvz~r{,579
"""


def test_local_search_records_match_golden_csv(capsys):
    rows = []
    for n, m, r, seed, restarts in GOLDEN_LOCAL_SEARCH_CELLS:
        header, row = _cli_csv_lines(
            capsys, "extremal", "--n", n, "--m", m, "--r", r, "--mode", "local-search",
            "--seed", seed, "--restarts", restarts,
        )
        rows.append(row)
    assert header + "".join(rows) == GOLDEN_LOCAL_SEARCH_CSV


def test_local_search_matches_naive_oracle():
    # every n <= 6 cell covers r = 1, r = 2, r > n, m = 0 and m = N; at n = 7, 8,
    # r = 2..4, the edge counts just above t(r - 1, n) and around t(r, n), then
    # (8, 13, 3), below t(2, 8) = 16, whose zero the descent from the near-regular
    # start misses and T_2(8) gives, and (7, 12, 2) with four restarts; ties go
    # to the labeled rows at every n
    cells = [
        (n, m, r, m, restarts, 200)
        for n in range(1, 7)
        for m in range(n * (n - 1) // 2 + 1)
        for r in range(1, n + 2)
        for restarts in (0, 2)
    ]
    for n in (7, 8):
        for r in (2, 3, 4):
            t = turan_size(r, n)
            for m in sorted({turan_size(r - 1, n) + 1, t - 1, t, t + 2}):
                cells += [(n, m, r, m, 0, 200), (n, m, r, m, 2, 200)]
    cells += [(8, 13, 3, 0, 0, 200), (7, 12, 2, 0, 4, 200)]
    cells += [
        (9, 24, 3, 2, 1, 30),
        (9, 30, 4, 0, 1, 30),
        (9, 33, 5, 3, 0, 30),
        (10, 34, 4, 2, 0, 30),
    ]
    for n, m, r, seed, restarts, budget in cells:
        start = list(near_regular_graph(n, m).edges())
        want = naive_local_search(n, m, r, seed, restarts, budget, start)
        rec = extremal_degree_sum_local_search(
            n, m, r, seed=seed, restarts=restarts, iter_budget=budget
        )
        assert (rec.delta_min, rec.witness_g6, rec.graphs_examined) == want, (n, m, r, restarts)


def test_best_swap_matches_brute_force():
    """The incremental swap scores pick the swap a full re-evaluation of every
    swapped graph picks, ties going to the least rows, at n = 4..12: random,
    near-regular and Turán graphs at r = 1..5, and graphs with no r-clique.
    The oracle re-evaluates about a thousand graphs per case, so n = 11, 12
    take alternate values of r.  Last come tie-heavy graphs, T_r(n) at
    m = t_r(n) (numbered part by part) and circulants, where most swaps tie
    on value and the packed-key order of the holes decides the swap."""
    rng = random.Random(1709)
    cases = []
    for n in (*range(9, 13), *range(4, 9)):  # n <= 8 last: the n >= 9 cases keep their draws
        for r in range(1, 6):
            if n > 10 and (n + r) % 2:
                continue
            kind = (n + r) % 3
            if kind == 0:
                edges = [p for p in slot_pairs(n) if rng.random() < rng.uniform(0.3, 0.7)]
            elif kind == 1:
                most = n * (n - 1) // 2 - n
                edges = list(near_regular_graph(n, rng.randint(min(n, most), most)).edges())
            else:
                k = rng.randint(2, 5)
                edges = [(u, v) for u, v in slot_pairs(n) if u % k != v % k]
            cases.append((n, edges, r))
    for n in (6, 8, 9, 10):  # no r-clique: Turán graphs with r - 1 parts, and a cycle
        cases.append((n, [(u, v) for u, v in slot_pairs(n) if u % 3 != v % 3], 4))
        cases.append((n, [(u, v) for u, v in slot_pairs(n) if u % 2 != v % 2], 3))
        cases.append((n, circulant(n, (1,)), 3))
    # no edge, no non-edge
    cases += [(9, [], 2), (10, slot_pairs(10), 3), (5, [], 2), (7, slot_pairs(7), 3)]
    for n in range(6, 11):
        for r in (3, 4):
            cases.append((n, list(turan_graph(r, n)[0].edges()), r))
    for n, steps, rs in ((10, (1, 2), (2, 3, 4)), (10, (1, 3), (3,)), (8, (1, 3), (2, 3, 4))):
        cases += [(n, circulant(n, steps), r) for r in rs]  # C_10(1, 3) has no triangle
    for n, edges, r in cases:
        g = from_edges(n, edges)
        val, rows = _best_swap(list(g.adj), n, r)
        want = naive_best_swap(n, edges, r)
        if want is None:
            assert (val, rows) == (None, None)
        else:
            assert (val, tuple(rows)) == want, (n, sorted(edges), r)


def test_packed_key_orders_as_the_row_list():
    """``_best_swap`` compares rows as one packed int, sum(rows[i] << n(n - 1 - i)),
    vertex 0's row the most significant n bits: its order is that of the row
    lists, and the rows come back from it."""
    rng = random.Random(3011)
    for n in range(1, 13):
        full = (1 << n) - 1
        shift = [n * (n - 1 - i) for i in range(n)]
        lists = [[rng.choice((0, full, rng.getrandbits(n))) for _ in range(n)] for _ in range(60)]
        lists += [list(lists[0]) for _ in range(2)]  # equal lists give equal keys
        keys = [sum(row << s for row, s in zip(rows, shift)) for rows in lists]
        for rows, key in zip(lists, keys):
            assert [key >> s & full for s in shift] == rows
        for a, b in itertools.product(range(len(lists)), repeat=2):
            assert (keys[a] < keys[b]) == (lists[a] < lists[b]), (n, lists[a], lists[b])


def test_local_search_lists_no_clique_when_no_swap_exists(monkeypatch):
    """An empty or complete graph has no edge swap, so local search must not
    list its r-cliques: K_22 holds 705,432 cliques of size 11."""
    import cliquedeg.extremal as ext

    def refuse(*args):
        raise AssertionError("clique table built for a graph with no swap")

    monkeypatch.setattr(ext, "_clique_sums", refuse)
    rec = extremal_degree_sum_local_search(22, 231, 11, restarts=0)
    assert (rec.delta_min, rec.ratio_num, rec.ratio_den, rec.graphs_examined) == (231, 231, 1, 1)
    assert rec.witness_g6 == "U" + "~" * 38 + "w" and rec.regime == "above-threshold"
    rec = extremal_degree_sum_local_search(9, 0, 3, restarts=0)
    assert (rec.delta_min, rec.witness_g6, rec.graphs_examined, rec.regime) == (
        0, "H??????", 1, "below-threshold"
    )


def test_local_search_is_0_exactly_up_to_turan():
    """By Turán's theorem T_{r-1}(n) has no r-clique and every graph with more
    edges has one, so local search reports 0 exactly when m <= t_{r-1}(n), and
    there it examines one graph, an m-edge graph with no r-clique; a search
    that reached 0 above t_{r-1}(n) would show a kernel bug.  For r > n every
    cell is 0, witnessed by the first m edges of K_n."""
    for n in range(9, 13):
        for r in range(2, 6):
            t_below = turan_size(r - 1, n)
            for m in range(n * (n - 1) // 2 + 1):
                rec = extremal_degree_sum_local_search(n, m, r, restarts=1)
                assert (rec.delta_min == 0) == (m <= t_below), (n, m, r)
                if m <= t_below:
                    witness = from_graph6(rec.witness_g6)
                    assert (rec.graphs_examined, witness.m) == (1, m), (n, m, r)
                    assert max_clique_degree_sum(witness, r).witness is None, (n, m, r)
        for r in (n + 1, 10**6):
            for m in range(n * (n - 1) // 2 + 1):
                rec = extremal_degree_sum_local_search(n, m, r, restarts=1)
                want = to_graph6(from_edges(n, slot_pairs(n)[:m]))
                got = (rec.delta_min, rec.witness_g6, rec.graphs_examined, rec.regime)
                assert got == (0, want, 1, "no-r-clique"), (n, m, r)


def test_local_search_caps_its_clique_table(monkeypatch):
    """A step lists at most MAX_CLIQUES r-cliques of its graph and raises once
    there are more.  Every graph the search meets from K_8 minus an edge is
    K_8 minus an edge, with C(8, 4) - C(6, 2) = 55 cliques of size 4."""
    import cliquedeg.extremal as ext

    want = extremal_degree_sum_local_search(8, 27, 4, restarts=0)
    monkeypatch.setattr(ext, "MAX_CLIQUES", 55)
    assert extremal_degree_sum_local_search(8, 27, 4, restarts=0) == want
    monkeypatch.setattr(ext, "MAX_CLIQUES", 54)
    with pytest.raises(ResourceLimitError, match="clique table exceeded 54 cliques"):
        extremal_degree_sum_local_search(8, 27, 4, restarts=0)


def test_local_search_reaches_known_minima():
    rec = extremal_degree_sum_local_search(4, 4, 2, seed=0)
    assert rec.delta_min == 4
    rec = extremal_degree_sum_local_search(6, 9, 3, seed=0)
    assert rec.delta_min == 0
    witness = from_graph6(rec.witness_g6)
    assert witness.m == 9 and max_clique_degree_sum(witness, 3).value == 0


def test_local_search_deterministic():
    a = extremal_degree_sum_local_search(6, 8, 3, seed=5, restarts=3, iter_budget=50)
    b = extremal_degree_sum_local_search(6, 8, 3, seed=5, restarts=3, iter_budget=50)
    assert a == b


def test_local_search_never_below_exact():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(2, 6)
        m = rng.randint(0, n * (n - 1) // 2)
        r = rng.randint(1, 3)
        exact = extremal_degree_sum_min(n, m, r).delta_min
        rec = extremal_degree_sum_local_search(n, m, r, seed=rng.randint(0, 99))
        assert rec.delta_min >= exact
        witness = from_graph6(rec.witness_g6)
        assert max_clique_degree_sum(witness, r).value == rec.delta_min


def test_local_search_witness_consistency():
    rec = extremal_degree_sum_local_search(5, 7, 2, seed=1)
    witness = from_graph6(rec.witness_g6)
    assert witness.n == 5 and witness.m == 7
    assert max_clique_degree_sum(witness, 2).value == rec.delta_min


def test_near_regular_examples():
    g = near_regular_graph(5, 5)
    assert sorted(g.degrees()) == [2, 2, 2, 2, 2]
    g = near_regular_graph(4, 4)
    assert sorted(g.degrees()) == [2, 2, 2, 2]
    g = near_regular_graph(5, 6)
    assert sorted(g.degrees()) == [2, 2, 2, 3, 3]


def test_near_regular_all_feasible_cases():
    for n in range(0, 13):
        for m in range(0, n * (n - 1) // 2 + 1):
            g = near_regular_graph(n, m)
            assert g.m == m
            if n:
                degs = g.degrees()
                assert max(degs) - min(degs) <= 1, (n, m, degs)
    with pytest.raises(ValueError):
        near_regular_graph(4, 7)
    with pytest.raises(ValueError):
        near_regular_graph(3, -1)
    with pytest.raises(ResourceLimitError, match="vertex count 65 exceeds cap 64"):
        near_regular_graph(65, 3)


def test_stability_params():
    p = StabilityParams(epsilon=Fraction(1, 4), r=2, n=7)
    assert p.delta == Fraction(1, 512)
    assert p.m_threshold == turan_size(2, 7) - 1
    assert p.within_proof_range  # 1/4 < 2/6
    assert not StabilityParams(epsilon=Fraction(1, 4), r=3, n=7).within_proof_range
    with pytest.raises(ValueError):
        StabilityParams(epsilon=Fraction(0), r=2, n=7)
    with pytest.raises(ValueError):
        StabilityParams(epsilon=Fraction(-1, 8), r=3, n=7)
    with pytest.raises(ValueError):
        StabilityParams(epsilon=Fraction(3, 2), r=2, n=7)
    for eps in ("1/4", None, 0.25):  # typed first: "<" on a string or None raises TypeError
        with pytest.raises(ValueError, match="exact rational"):
            StabilityParams(epsilon=eps, r=2, n=5)
    for r, n, message in (
        (1, 7, "clique size must be at least 2, got 1"), (4, 3, "need n >= r, got n=3, r=4"),
    ):
        with pytest.raises(ValueError, match=message):
            StabilityParams(epsilon=Fraction(1, 4), r=r, n=n)


def test_stability_small_table():
    params = StabilityParams(epsilon=Fraction(1, 4), r=2, n=5)
    # window is (t_2(5) - 1, t_2(5)] = {6}
    assert params.m_threshold == 5 and params.m_upper == 6
    [row] = stability_experiment(params)
    assert row.m == 6 and row.delta_min == 5
    assert Fraction(row.ratio_num, row.ratio_den) == Fraction(5 * 5, 2 * 2 * 6)
    assert row.ratio_decimal == "1.041667"
    assert row.exceeds_threshold


def test_stability_csv_stable():
    params = StabilityParams(epsilon=Fraction(1, 8), r=2, n=6)
    assert stability_experiment(params, workers=1) == stability_experiment(params, workers=2)


def test_verify_all_counts():
    rep = verify_all(4, [2])
    assert rep.violations == 0
    # (graph, r) incidences: n=2 gives 1, n=3 gives 4, n=4 gives 15+6+1
    assert rep.graphs_examined == 1 + 4 + 22
    assert rep.cells == 6
    assert rep.skipped_pairs == ()


def test_verify_all_skips_oversized_r():
    rep = verify_all(3, [2, 5])
    assert rep.violations == 0
    assert rep.skipped_pairs == ((2, 5), (3, 5))


@pytest.mark.parametrize(
    "n_max, r_set",
    [(-3, [2]), (1, [2]), (5, []), (3, [7])],
    ids=["n-max-below-2", "n-max-1", "no-clique-size", "every-r-above-n-max"],
)
def test_verify_rejects_a_plan_with_no_cell(n_max, r_set, monkeypatch):
    import cliquedeg.extremal as ext

    def fail(*args, **kwargs):
        raise AssertionError("verify worked on a plan with no cell")

    monkeypatch.setattr(ext, "_least_adjs", fail)
    with pytest.raises(ValueError, match="no cell"):
        verify_all(n_max, r_set)


def test_verify_all_n5():
    rep = verify_all(5, [2, 3])
    assert rep.violations == 0


def test_verify_canonical_counts_isomorphism_classes():
    rep = verify_all(5, [2], mode="canonical")
    # classes with m >= t(2, n), from OEIS A008406: n=2: 1, n=3: 2, n=4: 4, n=5: 14
    assert rep.graphs_examined == 1 + 2 + 4 + 14
    assert rep.cells == 11 == verify_all(5, [2]).cells
    assert rep.violations == 0
    rep = verify_all(6, [2], mode="canonical")
    # n=6 adds 54 classes with m >= t(2, 6); 18 cells as in exhaustive mode
    assert rep.graphs_examined == 1 + 2 + 4 + 14 + 54
    assert rep.cells == 18
    assert rep.violations == 0


def test_verify_canonical_n7_matches_exhaustive_band_cells(monkeypatch):
    import cliquedeg.extremal as ext

    seen = {}
    judge = ext.band_violation

    def band(rec):
        seen[mode][rec.n, rec.m, rec.r] = rec.delta_min
        return judge(rec)

    monkeypatch.setattr(ext, "band_violation", band)
    reports = {}
    for mode in ("canonical", "exhaustive"):
        seen[mode] = {}
        reports[mode] = verify_all(7, (3, 4, 5), mode=mode)
    rep = reports["canonical"]
    assert (rep.graphs_examined, rep.cells, rep.violations) == (79, 32, 0)
    full = reports["exhaustive"]
    # every labeled graph once per r it reaches, as perfbench's exact-scan gate counts them
    assert (full.graphs_examined, full.cells, full.violations) == (30480, 32, 0)
    assert rep.counterexamples == reports["exhaustive"].counterexamples == ()
    assert rep.cells == reports["exhaustive"].cells == len(seen["canonical"])
    # every (n, m, r) band minimum agrees between the class scan and the labeled scan
    assert seen["canonical"] == seen["exhaustive"]


@pytest.mark.parametrize("mode", ["exhaustive", "canonical"])
def test_verify_band_records_match_the_scans(mode, monkeypatch):
    """Verify's band cells ride its greedy walk and skip the kernel where the
    greedy best sum has reached the ceiling; every record it judges is still
    the scan's own, witness included."""
    import cliquedeg.extremal as ext

    judged = []
    judge = ext.band_violation

    def band(rec):
        judged.append(rec)
        return judge(rec)

    monkeypatch.setattr(ext, "band_violation", band)
    rep = verify_all(7, range(2, 8), mode=mode)
    assert rep.violations == 0
    cells = [
        (n, m, r)
        for n in range(2, 8)
        for m in range(n * (n - 1) // 2 + 1)
        for r in range(2, n + 1)
        if m >= turan_size(r, n)
    ]
    assert [(rec.n, rec.m, rec.r) for rec in judged] == cells
    for rec in judged:
        assert rec == extremal_degree_sum_min(rec.n, rec.m, rec.r, mode=mode)


def _band(value: int, n: int = 4, m: int = 4, r: int = 2) -> str | None:
    rec = extremal_degree_sum_min(n, m, r)
    return band_violation(replace(rec, delta_min=value))


def test_band_failure_messages():
    # n=4, r=2, m=4: the band is 16 <= value*4 < 24
    assert _band(3) == "delta_min*n = 12 < 2rm = 16"
    assert _band(4) is None
    assert _band(5) is None
    assert _band(6) == "delta_min*n = 24 >= 2rm + rn = 24"


def test_verify_counterexamples_carry_check_wording(monkeypatch):
    import cliquedeg.extremal as ext

    monkeypatch.setattr(ext, "greedy_prefix_extremes", lambda adj, degs, r: (1, None, None))
    monkeypatch.setattr(ext, "max_degree_sum_value", lambda adj, degs, r, abort_above=None: 0)
    rep = verify_all(3, [2])
    greedy = [ce for ce in rep.counterexamples if ce["kind"] == "greedy"]
    band = [ce for ce in rep.counterexamples if ce["kind"] == "band"]
    # swap-least labelings are checked, not labelings: cells (n, m) = (2, 1),
    # (3, 2), (3, 3) hold 1, 2 and 1 of them (of 1, 3 and 1 labeled graphs),
    # and each fails the floor check and then the mean check
    assert len(greedy) == 2 * (1 + 2 + 1) and len(band) == 3
    assert rep.violations == len(rep.counterexamples) == len(greedy) + len(band)
    for floor_ce, mean_ce in zip(greedy[0::2], greedy[1::2]):
        n, m = floor_ce["n"], floor_ce["m"]
        assert floor_ce["detail"] == _floor_failure(n, m, 2, turan_size(2, n), 1, None)
        assert mean_ce["detail"] == _mean_failure(n, m, 2, False, None)
        assert floor_ce["graph6"] == mean_ce["graph6"]
        g = from_graph6(floor_ce["graph6"])
        assert (g.n, g.m) == (n, m)
    # a band counterexample carries the cell's minimizer: here its first swap-least labeling
    for ce in band:
        assert ce["detail"] == _band(0, ce["n"], ce["m"])
        g = from_graph6(ce["graph6"])
        assert (g.n, g.m) == (ce["n"], ce["m"])


def test_verify_reports_a_failing_graph_once_per_swap_least_labeling(monkeypatch):
    """A greedy check that fails on the paw alone (n = 4, degrees 3, 2, 2, 1):
    exhaustive mode reports each of its swap-least labelings, 4 of its 12,
    and canonical mode its canonical labeling alone."""
    import cliquedeg.extremal as ext

    greedy = ext.greedy_prefix_extremes

    def paw_fails(adj, degs, r):
        return (1, None, None) if sorted(degs) == [1, 2, 2, 3] else greedy(adj, degs, r)

    monkeypatch.setattr(ext, "greedy_prefix_extremes", paw_fails)
    paw = from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    canonical = to_graph6(from_edges(4, naive_edges_from_bitstring(4, canonical_form(paw))))
    reported = {}
    for mode in ("exhaustive", "canonical"):
        rep = verify_all(4, [2], mode=mode)
        assert {ce["kind"] for ce in rep.counterexamples} == {"greedy"}
        reported[mode] = {ce["graph6"] for ce in rep.counterexamples}
        for g6 in reported[mode]:
            g = from_graph6(g6)
            assert sorted(g.degrees()) == [1, 2, 2, 3], g6
            assert naive_swap_least(4, _pairs(g.adj)), g6
    assert len(reported["exhaustive"]) == 4
    assert reported["canonical"] == {canonical}


def test_verify_rejects_bad_r():
    with pytest.raises(ValueError):
        verify_all(4, [1])
    for mode in ("exhaustive", "canonical"):
        with pytest.raises(ResourceLimitError, match="verify capped at n_max=8, got 9"):
            verify_all(9, [2], mode=mode)


def test_verify_reaches_n8():
    rs = (3, 4, 5)
    labeled = sum(
        math.comb(n * (n - 1) // 2, m) * sum(turan_size(r, n) <= m for r in rs if r <= n)
        for n in range(2, 9)
        for m in range(n * (n - 1) // 2 + 1)
    )
    for mode, examined in (("exhaustive", labeled), ("canonical", 323)):
        rep = verify_all(8, rs, mode=mode)
        assert (rep.graphs_examined, rep.cells, rep.violations) == (examined, 49, 0), mode


def test_band_holds_on_every_exact_record_at_or_above_threshold():
    for n in range(2, 6):
        for r in range(2, n + 1):
            t = turan_size(r, n)
            for m in range(t, n * (n - 1) // 2 + 1):
                rec = extremal_degree_sum_min(n, m, r)
                lhs = rec.delta_min * n
                assert 2 * r * m <= lhs < 2 * r * m + r * n
                near = near_regular_graph(n, m)
                val = max_clique_degree_sum(near, r).value
                assert val * n < 2 * r * m + r * n


def test_bound_below_threshold_fails_exactly_without_an_r_clique():
    """Below t_r(n) the paper's bound 2rm <= value*n is not claimed. At n <= 8 it
    fails exactly on 1 <= m <= t_{r-1}(n), where the m-edge subgraphs of
    T_{r-1}(n) hold no r-clique, and holds on the rest of the window."""
    cells = 0
    for n in range(3, 9):
        for r in range(2, n + 1):
            t_below = turan_size(r - 1, n)
            for rec in scan_m(n, r, 1, turan_size(r, n) - 1):
                fails = rec.delta_min * n < 2 * r * rec.m
                assert fails == (rec.delta_min == 0) == (rec.m <= t_below), rec
                cells += 1
    assert cells == 362

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquedeg import (
    PreconditionError,
    ResourceLimitError,
    all_greedy_sequences,
    check_floor_bound,
    check_mean_bound,
    from_edges,
    greedy_sequence,
    max_clique_degree_sum,
    to_graph6,
    turan_graph,
    turan_size,
)
from cliquedeg import greedy
from cliquedeg.greedy import _floor_failure, _mean_failure, greedy_prefix_extremes

from conftest import graphs, slot_pairs
from oracles import naive_degrees, naive_greedy_sequences, naive_prefix_extremes


def star4():
    return from_edges(4, [(0, 1), (0, 2), (0, 3)])


def test_greedy_sequence_star():
    s = greedy_sequence(star4())
    assert s.vertices == (0, 1)
    assert s.degree_sums == (3, 4)
    assert s.tie_policy == "lowest-index"


def test_greedy_sequence_c5():
    g = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    s = greedy_sequence(g)
    assert len(s.vertices) == 2 and s.degree_sums[-1] == 4


def test_greedy_sequence_turan36():
    g, _ = turan_graph(3, 6)
    s = greedy_sequence(g)
    assert len(s.vertices) == 3 and s.degree_sums[-1] == 12


def test_greedy_sequence_empty_graph():
    with pytest.raises(ValueError):
        greedy_sequence(from_edges(0, []))


def test_all_sequences_k2():
    g = from_edges(2, [(0, 1)])
    seqs = all_greedy_sequences(g)
    assert [s.vertices for s in seqs] == [(0, 1), (1, 0)]
    assert all(s.degree_sums == (1, 2) for s in seqs)


def test_all_sequences_star():
    seqs = all_greedy_sequences(star4())
    assert [s.vertices for s in seqs] == [(0, 1), (0, 2), (0, 3)]


def test_all_sequences_complete():
    for n in (2, 3, 4):
        g = from_edges(n, slot_pairs(n))
        seqs = all_greedy_sequences(g)
        assert len(seqs) == len(list(itertools.permutations(range(n))))


def test_branch_cap():
    g = from_edges(4, slot_pairs(4))  # 24 sequences
    with pytest.raises(ResourceLimitError) as e:
        all_greedy_sequences(g, branch_cap=10)
    assert "10" in str(e.value)
    assert len(all_greedy_sequences(g, branch_cap=24)) == 24
    with pytest.raises(ValueError, match="branch cap must be at least 1, got 0"):
        all_greedy_sequences(g, branch_cap=0)


def _refuse_runs(monkeypatch):
    """Fail at once on any call to the greedy walk or any GreedySequence built."""

    def refuse(what):
        def spy(*args):
            raise AssertionError(what)

        return spy

    monkeypatch.setattr(greedy, "_walk", refuse("the greedy walk ran"))
    monkeypatch.setattr(greedy, "GreedySequence", refuse("a GreedySequence was built"))


def test_branch_cap_above_the_limit_is_refused_before_any_run(monkeypatch, tmp_path, capsys):
    """K_12 has 12! greedy runs, so a cap above MAX_BRANCH_CAP could keep
    hundreds of millions of them; it is refused before the walk starts."""
    from cliquedeg.cli import main

    _refuse_runs(monkeypatch)
    g = from_edges(12, slot_pairs(12))
    too_many = greedy.MAX_BRANCH_CAP + 1
    with pytest.raises(ResourceLimitError, match=f"branch cap {too_many} exceeds cap"):
        all_greedy_sequences(g, branch_cap=too_many)
    path = tmp_path / "k12.g6"
    path.write_text(to_graph6(g) + "\n")
    code = main(["greedy", "--input", str(path), "--all-branches", "--branch-cap", str(too_many)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"cliquedeg: error: branch cap {too_many} exceeds cap {greedy.MAX_BRANCH_CAP}\n"
    )


def test_a_cap_hit_builds_no_run(monkeypatch, tmp_path, capsys):
    """The runs are counted before any is built: K_12 (12! runs) at the
    largest cap and K_4 (24 runs) at cap 23 are refused with no walk and
    no GreedySequence, in the library and in the CLI."""
    from cliquedeg.cli import main

    _refuse_runs(monkeypatch)
    for n, cap in ((12, greedy.MAX_BRANCH_CAP), (4, 23)):
        g = from_edges(n, slot_pairs(n))
        message = f"greedy tie branching exceeded branch cap {cap}"
        with pytest.raises(ResourceLimitError) as e:
            all_greedy_sequences(g, branch_cap=cap)
        assert str(e.value) == message
        path = tmp_path / f"k{n}.g6"
        path.write_text(to_graph6(g) + "\n")
        code = main(["greedy", "--input", str(path), "--all-branches", "--branch-cap", str(cap)])
        assert code == 1
        assert capsys.readouterr().err == f"cliquedeg: error: {message}\n"
    # the spies are in place: a cap that admits every run reaches the walk
    with pytest.raises(AssertionError, match="the greedy walk ran"):
        all_greedy_sequences(from_edges(4, slot_pairs(4)), branch_cap=24)
    with pytest.raises(AssertionError, match="a GreedySequence was built"):
        greedy_sequence(from_edges(4, slot_pairs(4)))


def test_deterministic_run_is_among_all_branches():
    for mask in range(0, 2 ** 10, 37):
        edges = [p for k, p in enumerate(slot_pairs(5)) if mask >> k & 1]
        g = from_edges(5, edges)
        one = greedy_sequence(g)
        branches = all_greedy_sequences(g)
        assert one.vertices in {s.vertices for s in branches}


@settings(max_examples=150, deadline=None)
@given(graphs(min_n=1, max_n=6))
def test_sequence_invariants(g):
    for s in all_greedy_sequences(g):
        verts = s.vertices
        deg = g.degrees()
        degs = [deg[v] for v in verts]
        # clique
        for a, b in itertools.combinations(verts, 2):
            assert g.adj[a] >> b & 1
        # greedy choice at every step, degree monotone
        assert degs == sorted(degs, reverse=True)
        cand = (1 << g.n) - 1
        for v in verts:
            members = [w for w in range(g.n) if cand >> w & 1]
            assert deg[v] == max(deg[w] for w in members)
            cand &= g.adj[v]
        # maximal: no vertex is adjacent to every member
        assert cand == 0
        # prefix degree sums
        acc = 0
        for v, total in zip(verts, s.degree_sums):
            acc += deg[v]
            assert total == acc


@settings(max_examples=200, deadline=None)
@given(graphs(min_n=1, max_n=5))
def test_all_branches_match_naive(g):
    got = {s.vertices for s in all_greedy_sequences(g)}
    assert got == naive_greedy_sequences(g.n, list(g.edges()))


def test_prefix_extremes_match_full_enumeration_exhaustively():
    # every graph on up to 5 vertices, every depth: the set-deduplicated scan
    # reports exactly the extremes of the ordered enumeration
    for n in range(1, 6):
        pairs = slot_pairs(n)
        for mask in range(2 ** len(pairs)):
            edges = [p for k, p in enumerate(pairs) if mask >> k & 1]
            g = from_edges(n, edges)
            seqs = all_greedy_sequences(g)
            degs = g.degrees()
            for r in range(1, n + 1):
                shortest, mn, mx = greedy_prefix_extremes(g.adj, degs, r)
                short_lengths = [len(s.vertices) for s in seqs if len(s.vertices) < r]
                full = [s.degree_sums[r - 1] for s in seqs if len(s.vertices) >= r]
                assert (shortest is None and not short_lengths) or (
                    shortest == min(short_lengths)
                )
                if full:
                    assert (mn, mx) == (min(full), max(full))
                else:
                    assert mn is None and mx is None


def test_floor_check_examples():
    g, _ = turan_graph(3, 6)
    rep = check_floor_bound(g, 3)
    assert rep.ok and rep.min_first_r_sum == 12 == rep.floor
    assert rep.equality_attained and rep.threshold == 12

    k4 = from_edges(4, slot_pairs(4))
    rep = check_floor_bound(k4, 2)
    assert rep.ok and rep.min_first_r_sum == 6 > rep.floor and not rep.equality_attained

    c4 = from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    rep = check_floor_bound(c4, 2)
    assert rep.ok and rep.equality_attained and rep.m == turan_size(2, 4)


def test_mean_check_examples():
    k4 = from_edges(4, slot_pairs(4))
    rep = check_mean_bound(k4, 2)
    assert rep.ok and rep.best_first_r_sum == 6 and rep.regular

    pendant = from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    rep = check_mean_bound(pendant, 2)
    assert rep.ok and rep.best_first_r_sum == 5 and not rep.regular
    assert rep.best_first_r_sum * 4 > 2 * 2 * 4
    assert rep.witness is not None and len(rep.witness) == 2

    g, _ = turan_graph(3, 6)
    rep = check_mean_bound(g, 3)
    assert rep.ok and rep.best_first_r_sum == 12 and rep.regular
    assert rep.best_first_r_sum * 6 == 2 * 3 * 12


def test_floor_failure_messages_in_precedence_order():
    # n=4, r=3: floor (r-1)n = 8, threshold t = 5
    stop = "a maximal greedy sequence stops at 2 < 3 vertices"
    assert _floor_failure(4, 5, 3, 5, 2, None) == stop
    assert _floor_failure(4, 6, 3, 5, 2, 8) == stop
    assert _floor_failure(4, 5, 3, 5, None, None) == "no greedy branch reaches 3 vertices"
    assert _floor_failure(4, 6, 3, 5, None, 7) == "first-3 degree sum 7 below floor 8"
    assert _floor_failure(4, 6, 3, 5, None, 8) == "floor attained but m=6 differs from threshold 5"
    assert _floor_failure(4, 5, 3, 5, None, 8) is None
    assert _floor_failure(4, 6, 3, 5, None, 9) is None


def test_mean_failure_messages_in_precedence_order():
    # n=4, r=2, m=4: the bound is X*4 >= 16
    assert _mean_failure(4, 4, 2, False, None) == "no greedy branch reaches 2 vertices"
    assert _mean_failure(4, 4, 2, True, 3) == "best first-2 sum 3: 12 < 16"
    assert _mean_failure(4, 4, 2, False, 3) == "best first-2 sum 3: 12 < 16"
    assert _mean_failure(4, 4, 2, False, 4) == (
        "graph not regular but best sum meets 2rm/n with equality"
    )
    assert _mean_failure(4, 4, 2, True, 4) is None
    assert _mean_failure(4, 4, 2, False, 5) is None


def test_check_reports_carry_the_failure(monkeypatch):
    import cliquedeg.greedy as greedy

    c4 = from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    monkeypatch.setattr(greedy, "greedy_prefix_extremes", lambda adj, degs, r: (1, None, None))
    monkeypatch.setattr(greedy, "_prefix_search", lambda adj, degs, r: (1, None, None, None))
    floor = check_floor_bound(c4, 2)
    assert not floor.ok and floor.failure == _floor_failure(4, 4, 2, 4, 1, None)
    mean = check_mean_bound(c4, 2)
    assert not mean.ok and mean.failure == _mean_failure(4, 4, 2, True, None)
    assert mean.witness is None
    assert floor.counterexample_g6 == mean.counterexample_g6 == to_graph6(c4)


def test_check_preconditions():
    g = from_edges(4, [(0, 1), (1, 2)])
    with pytest.raises(PreconditionError):
        check_floor_bound(g, 2)  # m below threshold
    with pytest.raises(PreconditionError):
        check_mean_bound(from_edges(2, [(0, 1)]), 3)  # n < r
    with pytest.raises(PreconditionError):
        check_floor_bound(from_edges(4, slot_pairs(4)), 1)  # r < 2


def _check_mean_witness(g):
    n, edges = g.n, list(g.edges())
    runs = naive_greedy_sequences(n, edges)
    deg = naive_degrees(n, edges)
    for r in range(2, n + 1):
        if g.m < turan_size(r, n):
            continue
        rep = check_mean_bound(g, r)
        firsts = {frozenset(s[:r]) for s in runs if len(s) >= r}
        sums = {f: sum(deg[v] for v in f) for f in firsts}
        best = max(sums.values())
        # the least best set as a bit mask, listed by falling degree, ties by lowest index
        least = min((f for f in firsts if sums[f] == best), key=lambda f: sum(1 << v for v in f))
        expect = tuple(sorted(least, key=lambda v: (-deg[v], v)))
        got = (rep.ok, rep.best_first_r_sum, rep.witness)
        assert got == (True, best, expect), (to_graph6(g), r)
        assert any(s[:r] == expect for s in runs), (to_graph6(g), r)


def test_mean_witness_is_a_valid_greedy_prefix():
    # every graph on up to 6 vertices, then seeded random graphs on 7
    for n in range(2, 7):
        pairs = slot_pairs(n)
        for mask in range(2 ** len(pairs)):
            edges = [p for k, p in enumerate(pairs) if mask >> k & 1]
            if len(edges) >= turan_size(2, n):
                _check_mean_witness(from_edges(n, edges))
    rng = random.Random(7)
    pairs = slot_pairs(7)
    for _ in range(300):
        density = 0.5 + rng.random() / 2
        _check_mean_witness(from_edges(7, [p for p in pairs if rng.random() < density]))


@settings(max_examples=120, deadline=None)
@given(graphs(min_n=2, max_n=6), st.integers(2, 4))
def test_greedy_never_beats_exact_max(g, r):
    if g.n < r or g.m < turan_size(r, g.n):
        return
    rep = check_mean_bound(g, r)
    assert rep.ok
    assert rep.best_first_r_sum <= max_clique_degree_sum(g, r).value


@settings(max_examples=120, deadline=None)
@given(graphs(min_n=2, max_n=6), st.integers(2, 4))
def test_strict_floor_above_threshold(g, r):
    # whenever m strictly exceeds the threshold, no branch can attain the floor
    if g.n < r or g.m <= turan_size(r, g.n):
        return
    rep = check_floor_bound(g, r)
    assert rep.ok and not rep.equality_attained
    assert rep.min_first_r_sum > rep.floor


def _check_against_naive_runs(g):
    n, edges = g.n, list(g.edges())
    runs = naive_greedy_sequences(n, edges)
    deg = naive_degrees(n, edges)
    assert greedy_sequence(g).vertices == min(runs)
    # the count at the cap boundary: exactly the runs at cap = count, a refusal one below
    count = len(runs)
    assert [s.vertices for s in all_greedy_sequences(g, branch_cap=count)] == sorted(runs)
    if count > 1:
        with pytest.raises(ResourceLimitError, match=f"exceeded branch cap {count - 1}$"):
            all_greedy_sequences(g, branch_cap=count - 1)
    for r in range(1, n + 2):
        expect = naive_prefix_extremes(n, edges, r)
        assert greedy_prefix_extremes(g.adj, g.degrees(), r) == expect, (to_graph6(g), r)
        if 2 <= r <= n and g.m >= turan_size(r, n):
            rep = check_mean_bound(g, r)
            assert rep.ok and rep.best_first_r_sum == expect[2]
            assert any(
                s[:r] == rep.witness and sum(deg[v] for v in s[:r]) == expect[2] for s in runs
            ), (to_graph6(g), r)


def test_greedy_walkers_match_naive_runs():
    # every graph on up to 5 vertices, then seeded random graphs on 6 and 7
    for n in range(1, 6):
        pairs = slot_pairs(n)
        for mask in range(2 ** len(pairs)):
            edges = [p for k, p in enumerate(pairs) if mask >> k & 1]
            _check_against_naive_runs(from_edges(n, edges))
    rng = random.Random(6)
    for n in (6, 7):
        pairs = slot_pairs(n)
        for _ in range(300):
            density = rng.random()
            _check_against_naive_runs(from_edges(n, [p for p in pairs if rng.random() < density]))


def _k_minus_edge(n):
    return from_edges(n, [p for p in slot_pairs(n) if p != (0, 1)])


def test_prefix_set_scan_is_capped(monkeypatch):
    """K_n minus one edge at r = n - 1 keeps 2^(n-2) + 2 prefix sets over all
    levels, the root included; the scan raises once they would exceed the cap."""
    g = _k_minus_edge(16)
    monkeypatch.setattr(greedy, "MAX_PREFIX_SETS", 2**14 + 2)
    assert greedy_prefix_extremes(g.adj, g.degrees(), 15) == (None, 224, 224)  # 14 vertices of degree 15, one of 14
    monkeypatch.setattr(greedy, "MAX_PREFIX_SETS", 2**14 + 1)
    with pytest.raises(ResourceLimitError):
        greedy_prefix_extremes(g.adj, g.degrees(), 15)
    monkeypatch.undo()

    g = _k_minus_edge(22)  # 2^20 + 2 prefix sets at r = 21
    scans = (
        lambda: check_floor_bound(g, 21),
        lambda: check_mean_bound(g, 21),
        lambda: greedy_prefix_extremes(g.adj, g.degrees(), 21),
    )
    for scan in scans:
        with pytest.raises(ResourceLimitError):
            scan()
    # the scan holds no more than the cap allows: measured under a small cap,
    # since tracing every allocation of the full cap takes seconds
    monkeypatch.setattr(greedy, "MAX_PREFIX_SETS", 5_000)
    for scan in scans:
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                scan()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

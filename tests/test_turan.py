import tracemalloc

import pytest

from cliquedeg import (
    ResourceLimitError,
    enumerate_r_cliques,
    turan_decomposition,
    turan_graph,
    turan_size,
)
from cliquedeg.graphs import VERTEX_CAP
from cliquedeg.turan import MAX_PARTS


def test_turan_size_derived_values():
    # counted by hand: K(3,2), K(2,2,2), K(3,2,2)
    assert turan_size(2, 5) == 6
    assert turan_size(3, 6) == 12
    assert turan_size(3, 7) == 16


def test_turan_size_edge_cases():
    assert turan_size(1, 10) == 0
    assert turan_size(5, 5) == 10
    assert turan_size(9, 5) == 10  # r > n gives the complete graph
    assert turan_size(3, 0) == 0
    with pytest.raises(ValueError, match="part count"):
        turan_size(0, 5)
    with pytest.raises(ValueError, match="vertex count must be nonnegative"):
        turan_size(2, -1)


def test_decomposition_parts():
    dec = turan_decomposition(3, 7)
    assert dec.parts == (3, 2, 2) and dec.s == 1 and dec.t == 16
    dec = turan_decomposition(4, 4)
    assert dec.parts == (1, 1, 1, 1)
    dec = turan_decomposition(5, 3)
    assert dec.parts == (1, 1, 1, 0, 0) and sum(dec.parts) == 3


def test_turan_graph_small():
    g, dec = turan_graph(2, 4)
    assert g.m == 4 == dec.t
    assert not any(True for _ in enumerate_r_cliques(g, 3))
    g, dec = turan_graph(3, 6)
    assert g.m == 12 and g.degrees() == (4,) * 6
    g, dec = turan_graph(5, 5)
    assert g.m == 10  # complete graph
    g, dec = turan_graph(3, 0)
    assert g.n == 0 and dec.t == 0


def test_turan_graph_clique_free():
    for r in range(2, 6):
        for n in range(r, 9):
            g, dec = turan_graph(r, n)
            assert g.m == dec.t == turan_size(r, n)
            assert not any(True for _ in enumerate_r_cliques(g, r + 1))
            assert any(True for _ in enumerate_r_cliques(g, r))


def test_strict_monotonicity_in_r():
    for n in range(1, 61):
        for q in range(1, n):
            assert turan_size(q, n) < turan_size(q + 1, n)


def test_quadratic_bounds_exact():
    # (r-1)n^2/(2r) >= t >= (r-1)n^2/(2r) - r/8, cross-multiplied to integers
    for n in range(0, 61):
        for r in range(1, n + 1):
            t = turan_size(r, n)
            assert 2 * r * t <= (r - 1) * n * n
            assert 4 * ((r - 1) * n * n - 2 * r * t) <= r * r


def test_parts_balanced_and_match_edge_count():
    for n in range(0, 30):
        for r in range(1, n + 2):
            dec = turan_decomposition(r, n)
            assert sum(dec.parts) == n and len(dec.parts) == r
            assert max(dec.parts) - min(dec.parts) <= 1
            assert dec.s == n % r
            if dec.s:
                assert sum(1 for k in dec.parts if k == -(-n // r)) == dec.s
            else:
                assert all(k == n // r for k in dec.parts)
            # edge count from the parts directly
            from_parts = (n * n - sum(k * k for k in dec.parts)) // 2
            assert from_parts == dec.t


def test_part_count_cap_raises_before_the_part_list_exists():
    # a part tuple of MAX_PARTS + 1 entries takes over 500 kB
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="part count"):
            turan_decomposition(MAX_PARTS + 1, 5)
        with pytest.raises(ResourceLimitError, match="part count"):
            turan_graph(MAX_PARTS + 1, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64_000
    assert len(turan_decomposition(MAX_PARTS, 5).parts) == MAX_PARTS


def test_turan_graph_checks_the_vertex_cap_first():
    with pytest.raises(ResourceLimitError, match="vertex count"):
        turan_graph(0, VERTEX_CAP + 1)
    with pytest.raises(ResourceLimitError, match="vertex count"):
        turan_graph(MAX_PARTS + 1, VERTEX_CAP + 1)

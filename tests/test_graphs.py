import pytest
from hypothesis import given, settings

from cliquedeg import Graph, ResourceLimitError, from_edges, from_graph6, to_graph6

from conftest import graphs


def test_graph_constructor_validates():
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))  # not symmetric
    with pytest.raises(ValueError):
        Graph(2, (0b01, 0b10))  # self loops
    with pytest.raises(ValueError):
        Graph(2, (0b100, 0b000))  # out of range
    with pytest.raises(ValueError, match="vertex count must be nonnegative"):
        Graph(-1, ())
    with pytest.raises(ValueError, match="expected 2 adjacency rows, got 1"):
        Graph(2, (0,))
    with pytest.raises(ValueError, match="vertex count must be nonnegative"):
        from_edges(-1, [])
    with pytest.raises(ResourceLimitError):
        from_edges(65, [])
    with pytest.raises(ValueError):
        from_edges(2, [(0, 0)])  # loop
    with pytest.raises(IndexError):
        from_edges(2, [(0, 2)])
    assert from_edges(2, [(0, 1), (1, 0), (0, 1)]).m == 1  # duplicates merged
    g = Graph(3, (0b010, 0b101, 0b010))  # path 0-1-2
    assert g.m == 2
    assert repr(g) == "Graph(n=3, m=2)"
    assert g != "0-1-2"


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=8))
def test_structural_invariants(g):
    for u in range(g.n):
        assert not g.adj[u] >> u & 1
        for v in range(g.n):
            assert (g.adj[u] >> v & 1) == (g.adj[v] >> u & 1)
    assert sum(g.degrees()) == 2 * g.m
    # equal graphs hash equal, so a set holds a graph and its graph6 round trip once
    back = from_graph6(to_graph6(g))
    assert hash(back) == hash(g)
    assert len({g, back}) == 1

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquedeg import (
    Graph,
    ResourceLimitError,
    VertexSet,
    add_edge,
    bonferroni_lower_bound,
    common_neighborhood,
    from_edges,
    new_graph,
)

from conftest import graphs, slot_pairs


def test_new_graph_empty():
    g = new_graph(0)
    assert g.n == 0 and g.m == 0


def test_new_graph_edgeless():
    g = new_graph(3)
    assert g.n == 3 and g.m == 0
    assert g.degrees() == (0, 0, 0)


def test_new_graph_cap():
    with pytest.raises(ResourceLimitError):
        new_graph(65)
    assert new_graph(65, cap=100).n == 65


def test_add_edge_basic():
    g = add_edge(new_graph(2), 0, 1)
    assert g.m == 1 and g.degree(0) == 1 and g.degree(1) == 1


def test_add_edge_idempotent():
    g = add_edge(add_edge(new_graph(2), 0, 1), 0, 1)
    assert g.m == 1


def test_add_edge_loop():
    with pytest.raises(ValueError):
        add_edge(new_graph(2), 0, 0)


def test_add_edge_out_of_range():
    with pytest.raises(IndexError):
        add_edge(new_graph(2), 0, 2)


def test_add_edge_is_functional():
    g = new_graph(3)
    h = add_edge(g, 0, 1)
    assert g.m == 0 and h.m == 1


def test_graph_constructor_validates():
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))  # not symmetric
    with pytest.raises(ValueError):
        Graph(2, (0b01, 0b10))  # self loops
    with pytest.raises(ValueError):
        Graph(2, (0b100, 0b000))  # out of range
    with pytest.raises(ValueError, match="vertex count must be nonnegative"):
        from_edges(-1, [])
    g = Graph(3, (0b010, 0b101, 0b010))  # path 0-1-2
    assert g.m == 2


def test_common_neighborhood_triangle():
    g = from_edges(3, [(0, 1), (0, 2), (1, 2)])
    assert common_neighborhood(g, [0, 1]).members == (2,)


def test_common_neighborhood_path():
    g = from_edges(3, [(0, 1), (1, 2)])
    assert common_neighborhood(g, [0, 2]).members == (1,)
    assert common_neighborhood(g, [0, 1]).members == ()


def test_common_neighborhood_empty_set_is_everything():
    g = from_edges(3, [(0, 1)])
    assert common_neighborhood(g, []).members == (0, 1, 2)


def test_vertex_set():
    s = VertexSet.of([2, 0], 4)
    assert s.members == (0, 2)
    assert len(s) == 2 and 2 in s and 1 not in s
    with pytest.raises(IndexError):
        VertexSet.of([4], 4)


def test_bonferroni_examples():
    assert bonferroni_lower_bound([5, 5], 5) == 5
    assert bonferroni_lower_bound([3, 3], 5) == 1
    assert bonferroni_lower_bound([2, 2], 5) == 0
    with pytest.raises(ValueError):
        bonferroni_lower_bound([-1], 5)
    with pytest.raises(ValueError):
        bonferroni_lower_bound([6], 5)


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=8), st.data())
def test_invariants_and_bonferroni(g, data):
    # structural invariants
    for u in range(g.n):
        assert not g.adj[u] >> u & 1
        for v in range(g.n):
            assert (g.adj[u] >> v & 1) == (g.adj[v] >> u & 1)
    assert sum(g.degrees()) == 2 * g.m
    # intersection bound: common neighborhood vs degree sums
    if g.n:
        k = data.draw(st.integers(0, g.n))
        members = data.draw(
            st.lists(st.integers(0, g.n - 1), min_size=k, max_size=k, unique=True)
        )
        got = len(common_neighborhood(g, members))
        bound = bonferroni_lower_bound([g.degree(v) for v in members], g.n)
        assert got >= bound


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6), st.data())
def test_add_edge_random_sequences(n, data):
    pairs = slot_pairs(n)
    g = new_graph(n)
    if not pairs:
        return
    seq = data.draw(st.lists(st.sampled_from(pairs), max_size=12))
    expect = set()
    for u, v in seq:
        g = add_edge(g, u, v)
        expect.add((u, v))
    assert g.m == len(expect)
    assert set(g.edges()) == expect

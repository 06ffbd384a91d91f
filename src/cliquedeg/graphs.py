"""Undirected simple graphs over vertex indices 0..n-1 with bitmask adjacency.

Every neighbor set is a Python int used as a bitset, so intersection,
union and membership are single integer operations.  Graphs are treated
as immutable after construction; every operation returns new objects.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

VERTEX_CAP = 64  # every reader and builder stops here; only turan_graph takes a larger cap


class ResourceLimitError(RuntimeError):
    """A configured resource cap (vertex cap, branch cap, size limit) was hit."""


def _bits(mask: int) -> Iterator[int]:
    """Iterate set bit positions of mask in increasing order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def _degree_classes(degs) -> list[tuple[int, int]]:
    """(degree, vertex mask) for each degree present, highest degree first."""
    masks: dict[int, int] = {}
    for v, d in enumerate(degs):
        masks[d] = masks.get(d, 0) | 1 << v
    return sorted(masks.items(), reverse=True)


class Graph:
    """Immutable simple graph: vertex count ``n`` plus one adjacency bitmask per vertex.

    ``adj[u]`` has bit ``v`` set iff ``{u, v}`` is an edge.  ``m`` is the
    exact edge count.  Callers must not mutate ``adj``.  ``Graph(n, adj)``
    checks every row: it is the constructor for adjacency rows from outside
    the package, whose readers and builders check their own input and use
    ``_raw``.
    """

    __slots__ = ("n", "adj", "m")

    def __init__(self, n: int, adj: Iterable[int]):
        adj = tuple(adj)
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        if len(adj) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(adj)}")
        full = (1 << n) - 1
        for u, row in enumerate(adj):
            if row < 0 or row & ~full:
                raise ValueError(f"adjacency row {u} has bits outside 0..{n - 1}")
            if row >> u & 1:
                raise ValueError(f"vertex {u} is adjacent to itself")
        for u in range(n):
            for v in _bits(adj[u]):
                if not adj[v] >> u & 1:
                    raise ValueError(f"adjacency is not symmetric at ({u}, {v})")
        self.n = n
        self.adj = adj
        self.m = sum(row.bit_count() for row in adj) // 2

    @classmethod
    def _raw(cls, n: int, adj: tuple[int, ...], m: Optional[int] = None) -> "Graph":
        """Construction bypass for callers that already guarantee the invariants,
        the edge count ``m`` included when they pass it."""
        g = object.__new__(cls)
        g.n = n
        g.adj = adj
        g.m = sum(map(int.bit_count, adj)) // 2 if m is None else m
        return g

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.adj)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (u, v) pairs with u < v, in lexicographic order: the
        edge lines that ``to_edge_list_text`` writes."""
        for u in range(self.n):
            for v in _bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _check_vertex_count(n: int, cap: int, over: Optional[str] = None) -> None:
    """The one vertex-count check of the builders: a negative n is a value
    error, an n above the cap a resource error (with message ``over`` if given)."""
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    if n > cap:
        raise ResourceLimitError(over or f"vertex count {n} exceeds cap {cap}")


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an iterable of (u, v) pairs; duplicates are merged."""
    _check_vertex_count(n, VERTEX_CAP)
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise IndexError(f"edge ({u}, {v}) out of range 0..{n - 1}")
        if u == v:
            raise ValueError(f"loop edge ({u}, {u}) not allowed")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph._raw(n, tuple(adj))


"""Undirected simple graphs over vertex indices 0..n-1 with bitmask adjacency.

Every neighbor set is a Python int used as a bitset, so intersection,
union and membership are single integer operations.  Graphs are treated
as immutable after construction; every operation returns new objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

VERTEX_CAP = 64


class ResourceLimitError(RuntimeError):
    """A configured resource cap (vertex cap, branch cap, size limit) was hit."""


def _bits(mask: int) -> Iterator[int]:
    """Iterate set bit positions of mask in increasing order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


class Graph:
    """Immutable simple graph: vertex count ``n`` plus one adjacency bitmask per vertex.

    ``adj[u]`` has bit ``v`` set iff ``{u, v}`` is an edge.  ``m`` is the
    exact edge count.  Callers must not mutate ``adj``.
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

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, u: int) -> int:
        return self.adj[u].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.adj)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (u, v) pairs with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in _bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def is_regular(self) -> bool:
        if self.n == 0:
            return True
        degs = self.degrees()
        return min(degs) == max(degs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class VertexSet:
    """Subset of the vertices 0..n-1 of an ambient graph, stored as a bitmask."""

    bits: int
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("ambient vertex count must be nonnegative")
        if self.bits < 0 or self.bits & ~((1 << self.n) - 1):
            raise ValueError(f"members outside 0..{self.n - 1}")

    @classmethod
    def of(cls, members: Iterable[int], n: int) -> "VertexSet":
        bits = 0
        for v in members:
            if not 0 <= v < n:
                raise IndexError(f"vertex {v} out of range 0..{n - 1}")
            bits |= 1 << v
        return cls(bits, n)

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(_bits(self.bits))

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and bool(self.bits >> v & 1)

    def __iter__(self) -> Iterator[int]:
        return _bits(self.bits)

    def __repr__(self) -> str:
        return f"VertexSet({set(self.members) if self.bits else '{}'}, n={self.n})"


def _check_vertex_count(n: int, cap: int, over: Optional[str] = None) -> None:
    """The one vertex-count check of the builders: a negative n is a value
    error, an n above the cap a resource error (with message ``over`` if given)."""
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    if n > cap:
        raise ResourceLimitError(over or f"vertex count {n} exceeds cap {cap}")


def new_graph(n: int, cap: int = VERTEX_CAP) -> Graph:
    """Edgeless graph on n vertices; n above the cap is a resource error."""
    _check_vertex_count(n, cap)
    return Graph._raw(n, (0,) * n)


def add_edge(g: Graph, u: int, v: int) -> Graph:
    """Return g with edge {u, v} added (idempotent)."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise IndexError(f"edge ({u}, {v}) out of range 0..{g.n - 1}")
    if u == v:
        raise ValueError(f"loop edge ({u}, {u}) not allowed")
    if g.adj[u] >> v & 1:
        return g
    adj = list(g.adj)
    adj[u] |= 1 << v
    adj[v] |= 1 << u
    return Graph._raw(g.n, tuple(adj))


def from_edges(n: int, edges: Iterable[tuple[int, int]], cap: int = VERTEX_CAP) -> Graph:
    """Build a graph from an iterable of (u, v) pairs; duplicates are merged."""
    _check_vertex_count(n, cap)
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise IndexError(f"edge ({u}, {v}) out of range 0..{n - 1}")
        if u == v:
            raise ValueError(f"loop edge ({u}, {u}) not allowed")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph._raw(n, tuple(adj))


def common_neighborhood(g: Graph, members: VertexSet | Iterable[int]) -> VertexSet:
    """Vertices adjacent to every member of the given set.

    The empty set returns the full vertex set (empty-intersection
    convention), which makes the first step of the greedy clique
    construction a special case of the general step.
    """
    if isinstance(members, VertexSet):
        if members.n != g.n:
            raise ValueError(f"vertex set over {members.n} vertices used with n={g.n}")
        bits = members.bits
    else:
        bits = VertexSet.of(members, g.n).bits
    acc = g.full_mask
    for v in _bits(bits):
        acc &= g.adj[v]
        if not acc:
            break
    return VertexSet(acc, g.n)


def bonferroni_lower_bound(set_sizes: list[int], universe_size: int) -> int:
    """Lower bound on the intersection size of k subsets of a universe.

    For sets M_1..M_k inside a universe V this returns
    max(0, sum |M_i| - (k-1)|V|), which never exceeds the true
    intersection size.
    """
    if universe_size < 0:
        raise ValueError("universe size must be nonnegative")
    for s in set_sizes:
        if s < 0:
            raise ValueError(f"set size {s} is negative")
        if s > universe_size:
            raise ValueError(f"set size {s} exceeds universe size {universe_size}")
    k = len(set_sizes)
    return max(0, sum(set_sizes) - (k - 1) * universe_size)

"""Balanced complete multipartite graphs and their exact edge-count arithmetic.

All bound checks are integer-exact; nothing here touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import VERTEX_CAP, Graph, ResourceLimitError, _check_vertex_count

MAX_PARTS = 65_536  # parts one decomposition may list


@dataclass(frozen=True)
class TuranDecomposition:
    """Part sizes of the balanced r-partite graph on n vertices plus its edge count."""

    r: int
    n: int
    parts: tuple[int, ...]
    s: int  # n mod r: the number of parts of ceiling size
    t: int  # exact edge count


def turan_size(r: int, n: int) -> int:
    """Edge count of the balanced complete r-partite graph on n vertices.

    Computed exactly: with s = n mod r, the count is
    (r-1)(n^2 - s^2)/(2r) + s(s-1)/2, an integer for all inputs.
    """
    if r < 1:
        raise ValueError(f"part count must be at least 1, got {r}")
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    s = n % r
    num = (r - 1) * (n * n - s * s)
    assert num % (2 * r) == 0
    return num // (2 * r) + s * (s - 1) // 2


def turan_decomposition(r: int, n: int) -> TuranDecomposition:
    """Balanced part sizes (s parts of size ceil(n/r), then r-s of size floor(n/r))."""
    t = turan_size(r, n)  # checks r and n
    if r > MAX_PARTS:
        raise ResourceLimitError(f"part count {r} exceeds cap {MAX_PARTS}")
    q, s = divmod(n, r)
    parts = (q + 1,) * s + (q,) * (r - s)
    return TuranDecomposition(r=r, n=n, parts=parts, s=s, t=t)


def complete_multipartite(parts: list[int] | tuple[int, ...], cap: int = VERTEX_CAP) -> Graph:
    """Complete multipartite graph with the given part sizes.

    Vertices are numbered consecutively part by part; two vertices are
    adjacent iff they lie in different parts.
    """
    parts = tuple(parts)
    if not parts:
        raise ValueError("parts must be nonempty")
    for k in parts:
        if k < 1:
            raise ValueError(f"part sizes must be positive, got {k}")
    n = sum(parts)
    _check_vertex_count(n, cap)
    return _multipartite(n, parts)


def _multipartite(n: int, parts: tuple[int, ...]) -> Graph:
    """Complete multipartite graph on n vertices from positive part sizes summing to n."""
    full = (1 << n) - 1
    adj: list[int] = []
    low = 1  # lowest bit of the next part
    for k in parts:
        high = low << k
        adj += [full ^ (high - low)] * k
        low = high
    return Graph._raw(n, tuple(adj))


def turan_graph(r: int, n: int, cap: int = VERTEX_CAP) -> tuple[Graph, TuranDecomposition]:
    """Balanced complete r-partite graph on n vertices plus its decomposition.

    For r > n the empty parts are dropped from the construction (the
    graph is then complete on n vertices); they remain in the
    decomposition so that the part list always has r entries.
    """
    _check_vertex_count(n, cap)
    dec = turan_decomposition(r, n)
    # for r > n the parts are n ones followed by zeros
    return _multipartite(n, dec.parts if r <= n else dec.parts[:n]), dec

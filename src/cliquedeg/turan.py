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


def turan_graph(r: int, n: int, cap: int = VERTEX_CAP) -> tuple[Graph, TuranDecomposition]:
    """Balanced complete r-partite graph on n vertices plus its decomposition.
    Vertices are numbered part by part, in the decomposition's part order.

    ``cap`` (default ``VERTEX_CAP``) is the only vertex cap a caller can
    raise: acceptance criterion 1 builds T_r(n) up to n = 200.

    For r > n the empty parts are dropped from the construction (the
    graph is then complete on n vertices); they remain in the
    decomposition so that the part list always has r entries.
    """
    _check_vertex_count(n, cap)
    dec = turan_decomposition(r, n)
    q = n // r
    # s parts of size q + 1, then r - s of size q; for r > n, n singletons and empty parts
    blocks = ((dec.s, q + 1), (r - dec.s, q)) if q else ((n, 1),)
    full = (1 << n) - 1
    adj: list[int] = []
    start = 0  # lowest vertex of the next part
    for count, k in blocks:
        stop = start + count * k
        if k == 1:  # singleton parts, the common case for r > n/2, in one pass
            adj += [full ^ 1 << v for v in range(start, stop)]
        else:
            mask = (1 << k) - 1
            for low in range(start, stop, k):
                adj += [full ^ mask << low] * k
        start = stop
    return Graph._raw(n, tuple(adj), dec.t), dec

"""Exact clique enumeration and the maximum degree sum over r-cliques."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .graphs import Graph, VertexSet, _bits

# The kernel's degree bound runs on graphs with at least this many vertices.
# Below it a whole search is a few dozen nodes and the bound costs more
# than it prunes (measured break-even: n = 9 to 10).
BOUND_MIN_N = 10


@dataclass(frozen=True)
class DegreeSumResult:
    """Maximum degree sum over r-cliques; witness is absent iff there is no r-clique."""

    r: int
    value: int
    witness: Optional[VertexSet]


def _clique_sums(adj, degs, r: int) -> Iterator[tuple[int, int]]:
    """Yield (degree sum, bitmask) for every r-clique, r >= 1, in lexicographic order.

    A depth-first walk that, like the kernel, tries candidates bit by bit:
    a stack entry is an open clique with its untried candidates w, and once
    the lowest, v, is cleared from w, ``w & adj[v]`` is exactly the set of
    higher common neighbours.  A clique with too few of them is not opened.
    """
    stack = [(0, 0, r, (1 << len(adj)) - 1)]  # (degree sum, members, still needed, candidates)
    while stack:
        acc, members, need, w = stack.pop()
        if need == 1:
            while w:
                b = w & -w
                w ^= b
                yield acc + degs[b.bit_length() - 1], members | b
        elif w:
            b = w & -w
            w ^= b
            stack.append((acc, members, need, w))
            v = b.bit_length() - 1
            cand = w & adj[v]
            if cand.bit_count() >= need - 1:
                stack.append((acc + degs[v], members | b, need - 1, cand))


def enumerate_r_cliques(g: Graph, r: int) -> Iterator[VertexSet]:
    """Yield every r-clique exactly once, in lexicographic order of sorted vertex lists."""
    if r < 1:
        raise ValueError(f"clique size must be at least 1, got {r}")
    for _, bits in _clique_sums(g.adj, g.degrees(), r):
        yield VertexSet(bits, g.n)


def degree_sum(g: Graph, members: VertexSet) -> int:
    """Sum of the graph degrees of the given vertices."""
    if members.n != g.n:
        raise ValueError(f"vertex set over {members.n} vertices used with n={g.n}")
    return sum(g.adj[v].bit_count() for v in _bits(members.bits))


def _best_clique(
    adj: tuple[int, ...] | list[int],
    degs: tuple[int, ...] | list[int],
    r: int,
    abort_above: int | None = None,
) -> tuple[int, int] | None:
    """Kernel: the maximum degree sum over r-cliques and the lex-least clique attaining it.

    Depth-first over cliques grown in increasing vertex order, walking
    candidate bitmasks bit by bit.  Returns (value, clique bitmask), (0, 0)
    when there is no r-clique, or None as soon as some r-clique's sum
    exceeds ``abort_above``.  Among cliques of equal sum the one holding
    the lowest vertex of their symmetric difference wins, which is the
    lexicographic order of sorted vertex lists.

    For r >= 3 on graphs of at least BOUND_MIN_N vertices the search is a
    branch and bound with degree as the vertex weight (Carraghan and
    Pardalos 1990, Östergård 2001).  At a clique of degree sum ``acc``
    that still needs ``need`` vertices after the next one, a candidate v
    is dropped, for this clique and every extension of it, when
    ``acc + degs[v] + need * max(degs) < best``.  The comparison is
    strict, so cliques tying the best sum are still visited and the
    lex-least witness is kept; a clique above ``abort_above`` always
    beats ``best`` and is never pruned, so the abort stays exact.
    Values and witnesses are those of the plain search.
    """
    n = len(adj)
    if r > n:
        return 0, 0
    limit = abort_above if abort_above is not None else sum(degs)  # no clique exceeds it
    best = -1
    best_bits = 0
    if r == 2:
        # pairs come in lexicographic order, so the first maximum is lex-least
        for u in range(n):
            du = degs[u]
            w = adj[u] >> (u + 1) << (u + 1)
            while w:
                b = w & -w
                w ^= b
                s = du + degs[b.bit_length() - 1]
                if s > best:
                    if s > limit:
                        return None
                    best = s
                    best_bits = 1 << u | b
    else:
        last = r - 1
        top = max(degs) if n >= BOUND_MIN_N else 0  # 0: no bound on small graphs
        stack = [(0, 0, (1 << n) - 1, 0)]  # (degree sum, size, candidates, members)
        while stack:
            acc, size, w, members = stack.pop()
            if size == last:
                while w:
                    b = w & -w
                    w ^= b
                    s = acc + degs[b.bit_length() - 1]
                    if s >= best:
                        bits = members | b
                        if s > best:
                            if s > limit:
                                return None
                            best = s
                            best_bits = bits
                        else:
                            diff = bits ^ best_bits
                            if bits & diff & -diff:
                                best_bits = bits
            else:
                need = last - size
                if top:
                    low = best - acc - need * top
                    if low > 0:  # no clique through a candidate of lower degree reaches best
                        x = w
                        while x:
                            b = x & -x
                            x ^= b
                            if degs[b.bit_length() - 1] < low:
                                w ^= b
                while w:
                    b = w & -w
                    w ^= b
                    v = b.bit_length() - 1
                    cand = w & adj[v]  # w holds the candidates above v
                    if cand.bit_count() >= need:
                        stack.append((acc + degs[v], size + 1, cand, members | b))
    return (best, best_bits) if best >= 0 else (0, 0)


def max_clique_degree_sum(g: Graph, r: int) -> DegreeSumResult:
    """Maximum over all r-cliques of the sum of their vertex degrees.

    Returns value 0 and no witness when the graph has no r-clique
    (including r > n).  The witness is the lexicographically least
    maximizing clique.
    """
    if r < 1:
        raise ValueError(f"clique size must be at least 1, got {r}")
    value, bits = _best_clique(g.adj, g.degrees(), r)
    return DegreeSumResult(r=r, value=value, witness=VertexSet(bits, g.n) if bits else None)


def max_degree_sum_value(
    adj: tuple[int, ...] | list[int],
    degs: tuple[int, ...] | list[int],
    r: int,
    abort_above: int | None = None,
) -> int | None:
    """The value of max_clique_degree_sum on raw adjacency rows.

    Returns None as soon as some r-clique's degree sum exceeds
    ``abort_above`` (callers scanning for minima over many graphs use
    this to skip graphs that cannot matter).  0 when no r-clique exists.
    """
    found = _best_clique(adj, degs, r, abort_above)
    return None if found is None else found[0]

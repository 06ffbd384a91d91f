"""Exact clique enumeration and the maximum degree sum over r-cliques."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .graphs import Graph, _bits, _degree_classes


@dataclass(frozen=True)
class DegreeSumResult:
    """Maximum degree sum over r-cliques; ``witness``, an ascending vertex tuple,
    is absent iff there is no r-clique."""

    r: int
    value: int
    witness: Optional[tuple[int, ...]]


def _clique_sums(
    adj, degs, r: int, cands: int | None = None, floor: list[int] | None = None
) -> Iterator[tuple[int, int]]:
    """Yield (degree sum, bitmask) for r-cliques, r >= 1, in lexicographic order.

    A depth-first walk that tries candidates bit by bit: a stack entry is an
    open clique with its untried candidates w, and once the lowest, v, is
    cleared from w, ``w & adj[v]`` is exactly the set of higher common
    neighbours.  A clique with too few of them is not opened, so r > n costs
    O(n).  The walk starts from the vertex bitmask ``cands`` (default: all).

    ``floor``, a one-item list the consumer may raise between yields (default
    [-1]: every clique), makes the walk a branch and bound with degree as the
    vertex weight (Carraghan and Pardalos 1990, Östergård 2001).  A clique is
    yielded only when its sum exceeds ``floor[0]``, and at an open clique of
    degree sum ``acc`` that still needs ``need`` vertices, a candidate v is
    not opened when ``acc + degs[v] + (need - 1) * max(degs) <= floor[0]``,
    nor, under a floor of 0 or more, when ``acc + degs[v]`` plus the
    need - 1 largest degrees among its candidates ``w & adj[v]`` is
    ``<= floor[0]``: no clique through v could be yielded.  That sum is read
    from the degree classes, highest degree first, which are built at the
    first node that needs them, so a walk with no floor never builds them.
    ``_best_clique`` raises the floor to each sum it is given, so a dropped
    clique could at most tie the best so far, and a tie met later in lex
    order could not replace it; a clique above ``abort_above`` beats every
    floor below it and is never dropped, so the abort stays exact.
    """
    if floor is None:
        floor = [-1]
    top = max(degs, default=0)
    classes = None
    if cands is None:
        cands = (1 << len(adj)) - 1
    stack = [(0, 0, r, cands)]  # (degree sum, members, still needed, candidates)
    while stack:
        acc, members, need, w = stack.pop()
        if need == 1:
            while w:
                b = w & -w
                w ^= b
                s = acc + degs[b.bit_length() - 1]
                if s > floor[0]:
                    yield s, members | b
        elif w:
            b = w & -w
            w ^= b
            stack.append((acc, members, need, w))
            v = b.bit_length() - 1
            s = acc + degs[v]
            k = need - 1
            if s + k * top <= floor[0]:
                continue
            cand = w & adj[v]
            if cand.bit_count() < k:
                continue
            if floor[0] >= 0:
                if classes is None:
                    classes = _degree_classes(degs)
                bound = s
                for d, mask in classes:  # the k largest degrees in cand
                    c = (cand & mask).bit_count()
                    if c >= k:
                        bound += k * d
                        break
                    bound += c * d
                    k -= c
                if bound <= floor[0]:
                    continue
            stack.append((s, members | b, need - 1, cand))


def enumerate_r_cliques(g: Graph, r: int) -> Iterator[tuple[int, ...]]:
    """Yield every r-clique exactly once, as an ascending vertex tuple, in
    lexicographic order.  No library path calls it; perfbench's tracer
    wraps it as the clique-enumeration entry point."""
    if r < 1:
        raise ValueError(f"clique size must be at least 1, got {r}")
    for _, bits in _clique_sums(g.adj, g.degrees(), r):
        yield tuple(_bits(bits))


def _best_clique(
    adj: tuple[int, ...] | list[int],
    degs: tuple[int, ...] | list[int],
    r: int,
    abort_above: int | None = None,
    within: int | None = None,
) -> tuple[int, int] | None:
    """Kernel: the maximum degree sum over r-cliques and the lex-least clique attaining it.

    Returns (value, clique bitmask), (0, 0) when there is no r-clique, or
    None as soon as some r-clique's sum exceeds ``abort_above``.  For
    r != 2 it reads the walk of ``_clique_sums``, which meets cliques in
    lexicographic order of sorted vertex lists, with the floor raised to
    each sum it yields, so the first maximum is the lex-least and the walk
    prunes by its degree bound.

    ``within``, a vertex bitmask, keeps the search to the cliques inside it:
    the walk and the r = 2 loop start from it instead of the full vertex
    set, so the result is that of the subgraph induced by ``within``, with
    its vertex numbers and with the degrees ``degs``, and no masked rows are
    built.
    """
    limit = abort_above if abort_above is not None else sum(degs)  # no clique exceeds it
    best = -1
    best_bits = 0
    if r == 2:
        # pairs come in lexicographic order, so the first maximum is lex-least.  The walk
        # of _clique_sums gives the same results, but on local search's r - 2 = 2 calls and the
        # n <= 8 scans, which take most pairs, it raised local-search query_p50_ms 19-56%
        # and exact-scan job_s 1-6%; it was faster only on whole graphs of 8-40 vertices
        cands = (1 << len(adj)) - 1 if within is None else within
        while cands:
            a = cands & -cands
            cands ^= a  # now the candidates above u
            u = a.bit_length() - 1
            du = degs[u]
            w = adj[u] & cands
            while w:
                b = w & -w
                w ^= b
                s = du + degs[b.bit_length() - 1]
                if s > best:
                    if s > limit:
                        return None
                    best = s
                    best_bits = a | b
    else:
        floor = [-1]
        for s, bits in _clique_sums(adj, degs, r, within, floor):
            if s > limit:
                return None
            floor[0] = best = s
            best_bits = bits
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
    return DegreeSumResult(r=r, value=value, witness=tuple(_bits(bits)) if bits else None)


def max_degree_sum_value(
    adj: tuple[int, ...] | list[int],
    degs: tuple[int, ...] | list[int],
    r: int,
    abort_above: int | None = None,
    within: int | None = None,
) -> int | None:
    """The value of max_clique_degree_sum on raw adjacency rows.

    Returns None as soon as some r-clique's degree sum exceeds
    ``abort_above`` (callers scanning for minima over many graphs use
    this to skip graphs that cannot matter).  0 when no r-clique exists.
    ``within`` keeps the search to the r-cliques inside that vertex
    bitmask (see ``_best_clique``).
    """
    found = _best_clique(adj, degs, r, abort_above, within)
    return None if found is None else found[0]

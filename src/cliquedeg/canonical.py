"""Canonical forms: the least column-order upper-triangle encoding of a
graph over all vertex orders, equal exactly for isomorphic graphs.

The encoding is graph6's bit layout, built and parsed only by the codec in
``graph6``; here it is kept as one integer "chunk" per column, so that
encodings compare as tuples.
"""

from __future__ import annotations

from .graph6 import _render_chunks
from .graphs import Graph, ResourceLimitError

CANONICAL_MAX_N = 8


def _canonical_chunks(adj, n: int) -> tuple[int, ...]:
    """Least column-order upper-triangle encoding over all vertex orders.

    The encoding is one integer "chunk" per position j >= 1 holding the
    adjacency bits of the j-th placed vertex to the previously placed
    ones.  Invariant: a node carries one pair (c, w) per unplaced vertex
    w, where c is w's chunk were it placed next, its bits to the placed
    vertices in placing order.  Placing v extends each other pair by one
    bit, to c << 1 | adj[w] >> v & 1, so no chunk is rebuilt.
    Branch-and-bound: subtrees whose prefix already exceeds the best
    known encoding are pruned.  Twin pruning: when two unplaced vertices
    have the same neighbours apart from each other, swapping them is an
    automorphism that fixes the prefix, so their subtrees hold the same
    encodings and only the first one tried is searched.
    """
    best: tuple[int, ...] = ()  # with a leading 0, the first vertex's empty chunk
    twins = [
        sum(1 << t for t in range(n) if (adj[w] ^ adj[t]) & ~(1 << w | 1 << t) == 0) & ~(1 << w)
        for w in range(n)
    ]

    def rec(cands: list[tuple[int, int]], chunks: list[int], tight: bool) -> bool:
        # tight: the prefix so far equals best's, so only a smaller leaf improves it
        nonlocal best
        if not cands:
            if not tight:
                best = tuple(chunks)
            return not tight
        j = len(chunks)
        cands.sort()
        improved_here = False
        tried = 0
        for c, w in cands:
            if twins[w] & tried:
                continue
            tried |= 1 << w
            child_tight = tight
            if tight:
                bc = best[j]
                if c > bc:
                    break
                child_tight = c == bc
            chunks.append(c)
            rest = [(d << 1 | adj[x] >> w & 1, x) for d, x in cands if x != w]
            if rec(rest, chunks, child_tight):
                improved_here = True
                tight = True
            chunks.pop()
        return improved_here

    rec([(0, w) for w in range(n)], [], False)
    return best[1:]


def canonical_form(g: Graph) -> str:
    """Lexicographically least upper-triangle adjacency bitstring over all
    vertex permutations; equal exactly for isomorphic graphs."""
    if g.n > CANONICAL_MAX_N:
        raise ResourceLimitError(f"canonical form capped at n={CANONICAL_MAX_N}, got {g.n}")
    return _render_chunks(_canonical_chunks(g.adj, g.n))


"""Plain-set reference code the benchmark checks the library against.

Nothing here imports the library: graphs are lists of Python sets, graph6
is coded by hand, and every answer comes from direct enumeration.  Plain
code is slow, so the benchmark applies the expensive checks to a stated
sample only.
"""

from __future__ import annotations


def encode_graph6(n: int, edges) -> str:
    """graph6 text for a graph with n <= 62 vertices given as (u, v) pairs."""
    if not 0 <= n <= 62:
        raise ValueError(f"n={n} outside the short graph6 header range")
    present = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (i, j) in present else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = [chr(63 + int("".join(map(str, bits[k:k + 6])), 2)) for k in range(0, len(bits), 6)]
    return chr(63 + n) + "".join(body)


def decode_graph6(text: str) -> list[set[int]]:
    """Neighbor sets of a short-header graph6 string; ValueError on any defect."""
    if not text or any(not 63 <= ord(ch) <= 126 for ch in text):
        raise ValueError("empty graph6 or byte outside 63..126")
    n = ord(text[0]) - 63
    if n > 62:
        raise ValueError("extended header not used by the benchmark")
    nbits = n * (n - 1) // 2
    body = text[1:]
    if len(body) != (nbits + 5) // 6:
        raise ValueError("bit field length does not match n")
    bits = [ord(ch) - 63 >> b & 1 for ch in body for b in range(5, -1, -1)]
    if any(bits[nbits:]):
        raise ValueError("nonzero padding bits")
    nbrs: list[set[int]] = [set() for _ in range(n)]
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                nbrs[i].add(j)
                nbrs[j].add(i)
            k += 1
    return nbrs


def edge_count(nbrs: list[set[int]]) -> int:
    return sum(len(s) for s in nbrs) // 2


def turan_size(r: int, n: int) -> int:
    """Edges of the balanced complete r-partite graph: pairs in different parts."""
    parts = [n // r + (1 if k < n % r else 0) for k in range(r)]
    return (n * n - sum(p * p for p in parts)) // 2


def is_clique(nbrs: list[set[int]], members) -> bool:
    members = list(members)
    return all(v in nbrs[u] for i, u in enumerate(members) for v in members[i + 1:])


def cliques(nbrs: list[set[int]], r: int):
    """Every r-clique once, as an increasing vertex tuple."""

    def grow(chosen: tuple[int, ...], cand: set[int]):
        if len(chosen) == r:
            yield chosen
            return
        for v in sorted(cand):
            yield from grow(chosen + (v,), {w for w in cand & nbrs[v] if w > v})

    yield from grow((), set(range(len(nbrs))))


def max_clique_degree_sum(nbrs: list[set[int]], r: int) -> int:
    """Largest degree sum over r-cliques, 0 when there is none."""
    return max((sum(len(nbrs[v]) for v in c) for c in cliques(nbrs, r)), default=0)


def greedy_error(nbrs, vertices, sums, lowest_index: bool, complete: bool = True) -> str | None:
    """Why a claimed greedy run is not one, or None when it is valid.

    Each pick must have the largest degree among the common neighbors of
    the earlier picks (the lowest such index when ``lowest_index``) and
    ``sums``, when given, must be the running degree totals.  A
    ``complete`` run also stops exactly when no common neighbor is left.
    """
    if not vertices or (sums is not None and len(vertices) != len(sums)):
        return "empty run or length mismatch"
    cand = set(range(len(nbrs)))
    total = 0
    for pos, v in enumerate(vertices):
        if v not in cand:
            return f"pick {v} at {pos} is not a common neighbor"
        top = max(len(nbrs[w]) for w in cand)
        if len(nbrs[v]) != top:
            return f"pick {v} at {pos} has degree {len(nbrs[v])} < {top}"
        if lowest_index and v != min(w for w in cand if len(nbrs[w]) == top):
            return f"pick {v} at {pos} is not the lowest-index tie"
        total += top
        if sums is not None and sums[pos] != total:
            return f"prefix sum {sums[pos]} at {pos}, expected {total}"
        cand &= nbrs[v]
    if complete and cand:
        return "run stops while common neighbors remain"
    return None


def all_greedy_runs(nbrs: list[set[int]], cap: int) -> list[tuple[int, ...]] | None:
    """Every greedy vertex sequence over all tie choices, sorted; None past ``cap``."""
    out: list[tuple[int, ...]] = []

    def grow(prefix: tuple[int, ...], cand: set[int]) -> bool:
        if not cand:
            out.append(prefix)
            return len(out) <= cap
        top = max(len(nbrs[w]) for w in cand)
        return all(
            grow(prefix + (v,), cand & nbrs[v]) for v in sorted(cand) if len(nbrs[v]) == top
        )

    if not grow((), set(range(len(nbrs)))):
        return None
    return sorted(out)


def greedy_prefix_extremes(nbrs: list[set[int]], r: int):
    """(shortest stop below r or None, min and max first-r degree sums) over all ties."""
    level = {frozenset(): 0}
    shortest = None
    for depth in range(r):
        nxt: dict[frozenset, int] = {}
        for chosen, acc in level.items():
            cand = set(range(len(nbrs))).intersection(*(nbrs[v] for v in chosen))
            if not cand:
                shortest = depth if shortest is None else min(shortest, depth)
                continue
            top = max(len(nbrs[w]) for w in cand)
            for v in cand:
                if len(nbrs[v]) == top:
                    nxt[chosen | {v}] = acc + top
        level = nxt
    if not level:
        return shortest, None, None
    return shortest, min(level.values()), max(level.values())

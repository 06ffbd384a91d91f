"""Naive reference implementations used as independent oracles.

Everything here works on plain edge lists with sets and itertools, on
purpose: no bitmask adjacency, no shared code with the package under test.
"""

import functools
import itertools
import random


def naive_degrees(n, edges):
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def naive_r_cliques(n, edges, r):
    """All r-subsets inducing complete subgraphs, as sorted tuples in lex order."""
    eset = {frozenset(e) for e in edges}
    out = []
    for sub in itertools.combinations(range(n), r):
        if all(frozenset(p) in eset for p in itertools.combinations(sub, 2)):
            out.append(sub)
    return out


def naive_max_clique_degree_sum(n, edges, r):
    deg = naive_degrees(n, edges)
    best = 0
    for sub in naive_r_cliques(n, edges, r):
        best = max(best, sum(deg[v] for v in sub))
    return best


def naive_min_over_graphs(n, m, r):
    """Minimum over every labeled m-edge graph of the max r-clique degree sum."""
    slots = list(itertools.combinations(range(n), 2))
    return min(
        naive_max_clique_degree_sum(n, combo, r)
        for combo in itertools.combinations(slots, m)
    )


def naive_greedy_sequences(n, edges):
    """Every tie branch of the greedy construction, as ordered vertex tuples."""
    deg = naive_degrees(n, edges)
    nbrs = {v: set() for v in range(n)}
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    out = set()

    def rec(prefix, cand):
        if not cand:
            out.add(tuple(prefix))
            return
        top = max(deg[v] for v in cand)
        for v in sorted(cand):
            if deg[v] == top:
                rec(prefix + [v], cand & nbrs[v])

    rec([], set(range(n)))
    return out


def naive_prefix_extremes(n, edges, r):
    """(shortest_stop, min_sum, max_sum) over the ordered greedy runs: the
    shortest run length below r (None when every run reaches r), and the
    least and largest first-r degree sums of the runs that reach r (None
    when none does)."""
    deg = naive_degrees(n, edges)
    runs = naive_greedy_sequences(n, edges)
    short = [len(s) for s in runs if len(s) < r]
    full = [sum(deg[v] for v in s[:r]) for s in runs if len(s) >= r]
    return min(short, default=None), min(full, default=None), max(full, default=None)


def naive_graph6(n, edges):
    """Column-order upper-triangle graph6 encoding, written out longhand."""
    eset = {frozenset(e) for e in edges}
    if n <= 62:
        head = chr(63 + n)
    else:  # "~" and n in three 6-bit bytes, most significant first
        head = "~" + chr(63 + n // 4096) + chr(63 + n // 64 % 64) + chr(63 + n % 64)
    bits = ""
    for j in range(1, n):
        for i in range(j):
            bits += "1" if frozenset((i, j)) in eset else "0"
    while len(bits) % 6:
        bits += "0"
    return head + "".join(
        chr(63 + int(bits[k : k + 6], 2)) for k in range(0, len(bits), 6)
    )


def naive_graph6_rows(text):
    """The adjacency rows (bit v of row u: the edge uv) of a well-formed graph6
    string, read longhand: the size header, then the body one bit at a time,
    six bits per byte, most significant first, pairs in column order."""
    values = [ord(ch) - 63 for ch in text]
    if values[0] == 63:  # "~": n in the next three bytes
        n = values[1] * 4096 + values[2] * 64 + values[3]
        body = values[4:]
    else:
        n = values[0]
        body = values[1:]
    bits = [v // 2**k % 2 for v in body for k in (5, 4, 3, 2, 1, 0)]
    rows = [0] * n
    p = 0
    for j in range(1, n):
        for i in range(j):
            if bits[p]:
                rows[i] += 2**j
                rows[j] += 2**i
            p += 1
    assert len(bits) - p < 6 and not any(bits[p:])
    return tuple(rows)


@functools.lru_cache(maxsize=None)
def _pair_weights(n):
    """For each vertex permutation, the weight 2^(N-1-k) of each vertex pair
    (u, v), u < v, that lands at position k of the column-order bitstring."""
    nslots = n * (n - 1) // 2
    out = []
    for perm in itertools.permutations(range(n)):
        # position i holds the old vertex perm[i]
        pairs = [tuple(sorted((perm[i], perm[j]))) for j in range(1, n) for i in range(j)]
        out.append({p: 1 << (nslots - 1 - k) for k, p in enumerate(pairs)})
    return out


@functools.lru_cache(maxsize=1 << 16)
def _least_bitstring(n, pairs):
    """The least column-order upper-triangle bitstring of the graph with edges
    ``pairs`` (a tuple of (u, v), u < v) over every vertex permutation."""
    least = min(sum(map(w.__getitem__, pairs)) for w in _pair_weights(n))
    return format(least, f"0{n * (n - 1) // 2}b") if n > 1 else ""


def naive_bitstring(n, pairs):
    """The column-order upper-triangle bitstring of the graph with edges
    ``pairs`` ((u, v), u < v), vertices as labeled."""
    have = set(pairs)
    return "".join("1" if (i, j) in have else "0" for j in range(1, n) for i in range(j))


def naive_edges_from_bitstring(n, bits):
    """The edges (u, v), u < v, that a column-order upper-triangle bitstring
    over n vertices sets: the inverse of ``naive_bitstring``."""
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    assert len(bits) == len(pairs) and set(bits) <= {"0", "1"}
    return [p for p, b in zip(pairs, bits) if b == "1"]


def naive_swap_least(n, pairs):
    """Whether no swap of two consecutive vertices j, j + 1 (1 <= j <= n - 2)
    that changes column j of the labeled bitstring lowers it: each such swap is
    applied to the edge list and the image re-encoded.  A swap that leaves
    column j alone (j and j + 1 have the same neighbours below j) is not
    judged."""
    have = set(pairs)
    own = naive_bitstring(n, have)
    for j in range(1, n - 1):
        if all(((i, j) in have) == ((i, j + 1) in have) for i in range(j)):
            continue
        perm = list(range(n))
        perm[j], perm[j + 1] = j + 1, j
        image = [tuple(sorted((perm[u], perm[v]))) for u, v in have]
        if naive_bitstring(n, image) < own:
            return False
    return True


def naive_isomorphism_classes(n):
    """Every labeled graph on n vertices, grouped into isomorphism classes.

    A class is the orbit of its first graph under the vertex permutations,
    which the swap of vertices 0 and 1 and the cyclic shift generate.  Each
    graph is a sorted tuple of pairs (u, v), u < v.
    """
    slots = list(itertools.combinations(range(n), 2))
    gens = [[1, 0] + list(range(2, n)), [(i + 1) % n for i in range(n)]] if n > 1 else []
    seen = set()
    classes = []
    for m in range(len(slots) + 1):
        for edges in itertools.combinations(slots, m):
            if edges in seen:
                continue
            seen.add(edges)
            orbit = [edges]
            for graph in orbit:  # the orbit grows while it is walked
                for perm in gens:
                    image = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in graph))
                    if image not in seen:
                        seen.add(image)
                        orbit.append(image)
            classes.append(orbit)
    return classes


def naive_least_minimizer_g6(n, m, r):
    """graph6 of the least canonical form among the labeled (n, m)-graphs that
    minimize the max r-clique degree sum: the least column-order bitstring
    over every minimizer and every vertex permutation."""
    slots = list(itertools.combinations(range(n), 2))
    graphs = list(itertools.combinations(slots, m))
    values = [naive_max_clique_degree_sum(n, edges, r) for edges in graphs]
    low = min(values)
    best = min(_least_bitstring(n, edges) for edges, value in zip(graphs, values) if value == low)
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return naive_graph6(n, [p for p, bit in zip(pairs, best) if bit == "1"])


def naive_local_search(n, m, r, seed, restarts, iter_budget, start):
    """Steepest-descent edge swaps from ``start`` (an edge list, the near-regular
    start) and ``restarts`` random starts, written out longhand.

    Every swap's objective is recomputed from scratch.  Ties go to the least
    key at every n, the tuple of adjacency row bitmasks, and the least
    (value, key) graph met is the witness.  A cell with at most as many edges
    as T_p(n), p = min(max(r - 1, 1), n), takes no search: its one graph
    examined is the first m edges, in lexicographic order, of T_p(n), with
    the parts numbered part by part, the larger parts first.
    Returns (delta_min, graph6 witness, graphs examined) as the library
    reports them.
    """
    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    p = min(max(r - 1, 1), n)
    part = [i for i in range(p) for _ in range(n // p + (i < n % p))]
    turan = [(u, v) for u, v in slots if part[u] != part[v]]
    if m <= len(turan):
        return naive_max_clique_degree_sum(n, turan[:m], r), naive_graph6(n, turan[:m]), 1

    def key(eset):
        return tuple(sum(1 << v for v in range(n) if frozenset((u, v)) in eset) for u in range(n))

    def value(eset):
        return naive_max_clique_degree_sum(n, [tuple(e) for e in eset], r)

    starts = [start] + [random.Random(seed + i).sample(slots, m) for i in range(1, restarts + 1)]
    examined = 0
    best = None  # (value, key, edge set)
    for edges in starts:
        cur = frozenset(frozenset(e) for e in edges)
        cur_val = value(cur)
        examined += 1
        plateau = 0
        while True:
            if best is None or (cur_val, key(cur)) < best[:2]:
                best = (cur_val, key(cur), cur)
            present = [frozenset(s) for s in slots if frozenset(s) in cur]
            absent = [frozenset(s) for s in slots if frozenset(s) not in cur]
            cands = [(cur - {e}) | {h} for e in present for h in absent]
            examined += len(cands)
            if not cands:
                break
            values = [value(c) for c in cands]
            low = min(values)
            nb = min((c for c, v in zip(cands, values) if v == low), key=key)
            if low < cur_val:
                cur, cur_val = nb, low
            elif low == cur_val and key(nb) < key(cur) and plateau < iter_budget:
                plateau += 1
                cur = nb
            else:
                break
    low, _, graph = best
    return low, naive_graph6(n, [tuple(sorted(e)) for e in graph]), examined


def naive_best_swap(n, edges, r):
    """The least (value, rows) over every graph one edge swap away from the
    graph with ``edges``: remove one edge, add one non-edge, re-evaluate the
    swapped graph from scratch.  rows is the tuple of adjacency row bitmasks,
    vertex u's row holding bit v for each neighbour v.  None when the graph
    has no edge or no non-edge."""
    have = {frozenset(e) for e in edges}
    slots = [frozenset(p) for p in itertools.combinations(range(n), 2)]
    best = None
    for e in (s for s in slots if s in have):
        for h in (s for s in slots if s not in have):
            swapped = (have - {e}) | {h}
            value = naive_max_clique_degree_sum(n, [tuple(p) for p in swapped], r)
            rows = tuple(
                sum(1 << v for v in range(n) if frozenset((u, v)) in swapped) for u in range(n)
            )
            if best is None or (value, rows) < best:
                best = (value, rows)
    return best

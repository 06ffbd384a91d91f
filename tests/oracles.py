"""Naive reference implementations used as independent oracles.

Everything here works on plain edge lists with sets and itertools, on
purpose: no bitmasks, no shared code with the package under test.
"""

import itertools


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


def naive_graph6(n, edges):
    """Column-order upper-triangle graph6 encoding, written out longhand."""
    eset = {frozenset(e) for e in edges}
    assert n <= 62
    bits = ""
    for j in range(1, n):
        for i in range(j):
            bits += "1" if frozenset((i, j)) in eset else "0"
    while len(bits) % 6:
        bits += "0"
    return chr(63 + n) + "".join(
        chr(63 + int(bits[k : k + 6], 2)) for k in range(0, len(bits), 6)
    )


def naive_least_minimizer_g6(n, m, r):
    """graph6 of the least canonical form among the labeled (n, m)-graphs that
    minimize the max r-clique degree sum: the least column-order bitstring
    over every minimizer and every vertex permutation."""
    slots = list(itertools.combinations(range(n), 2))
    graphs = list(itertools.combinations(slots, m))
    values = [naive_max_clique_degree_sum(n, edges, r) for edges in graphs]
    low = min(values)
    best = None
    for edges, value in zip(graphs, values):
        if value != low:
            continue
        mat = [[False] * n for _ in range(n)]
        for u, v in edges:
            mat[u][v] = mat[v][u] = True
        for perm in itertools.permutations(range(n)):
            # position i holds the old vertex perm[i]
            bits = "".join(
                "1" if mat[perm[i]][perm[j]] else "0" for j in range(1, n) for i in range(j)
            )
            if best is None or bits < best:
                best = bits
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return naive_graph6(n, [p for p, bit in zip(pairs, best) if bit == "1"])

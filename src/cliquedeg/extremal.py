"""Minimum over all (n, m)-graphs of the max clique degree sum, by brute force.

The exact modes, exhaustive and canonical, run the same scan of every
labeled graph with m edges, and they and ``verify_all`` share one cap,
n <= ``CANONICAL_MAX_N`` = 8.  Both report graphs_examined = C(N, m), the
labeled graphs covered, for N = n(n-1)/2 edge slots.  Local-search mode runs
steepest-descent edge swaps and reports an upper bound.

The minimum and both greedy bounds depend on the graph alone, not on its
labeling, so the clique kernel and ``verify_all``'s greedy checks run
only on swap-least labelings, those that no swap of two consecutive
vertices j, j + 1 lowers at the j-th column (the cheap pre-test of Read's
orderly generation); about 1% of the labelings at n = 7 are swap-least,
and the least labeling of every graph is among them.  ``_least_adjs``
generates them and no other labeling, column by column: column j + 1's
chunk is taken from [chunk[j] << 1, 2^(j+1)), from column tables built
once per n (``_columns``).  Canonical-mode verify keeps, of those, the one
labeling per isomorphism class that is its canonical form, so there
graphs_examined counts classes.

A scan's best value so far is a ceiling for the generator, the kernel's
floor turned around: at r <= 3, where the bound is cheap, a subtree at
column n - 2 or n - 1 is skipped when its placed edges already hold an
r-clique whose degree sum reaches the ceiling.  graphs_examined counts the
labelings a scan covers, not the ones it visits.

An exact witness is the minimizer with the least labeled encoding
(graph6's column-order upper-triangle bits, vertices in index order,
built by ``graph6._column_chunks``).  The scan reaches the least
relabeling of every minimizer, so this is also the least canonical form
among them, and no canonical search is needed.  The generator yields in
ascending encoding order, so a scan keeps the first minimizer it meets.
Each (n, m, r) cell is one scan in one process; ``scan_m`` spreads whole
cells over its workers, so no record depends on the worker count.
Canonical forms, for canonical-mode verify only, come from ``canonical``;
local search breaks its ties by the labeled adjacency rows at every n.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import islice
from numbers import Rational
from typing import Iterator, Optional

from .canonical import CANONICAL_MAX_N, _canonical_chunks
from .cliques import _best_clique, _clique_sums, max_degree_sum_value
from .graph6 import _chunks_to_graph6, _column_chunks
from .graphs import VERTEX_CAP, Graph, ResourceLimitError, _check_vertex_count, from_edges
from .greedy import _floor_failure, _mean_failure, greedy_prefix_extremes
from .turan import turan_graph, turan_size

MAX_WORKERS = 8  # worker processes one scan may start
MAX_RESTARTS = 10_000  # random starts one local search may take
MAX_ITER_BUDGET = 10_000  # plateau moves one local-search start may take
MAX_CLIQUES = 1_000_000  # r-cliques one local-search step may list

LOCAL_SEARCH = "local-search"
# all but local search are exact, and every exact path stops at CANONICAL_MAX_N vertices
MODES = ("exhaustive", "canonical", LOCAL_SEARCH)
EXACT_MODES = MODES[:2]

REGIME_BELOW = "below-threshold"
REGIME_AT = "at-threshold"
REGIME_ABOVE = "above-threshold"
REGIME_NO_CLIQUE = "no-r-clique"  # r > n: the bound needs n >= r


@dataclass(frozen=True)
class ScanRecord:
    """One (n, m, r) data point: the minimized value, a witness, and the 2rm/n bound."""

    n: int
    m: int
    r: int
    mode: str
    delta_min: int
    witness_g6: str
    ratio_num: int  # 2rm/n in lowest terms
    ratio_den: int
    graphs_examined: int
    regime: str


def _slots(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


@cache
def _columns(n: int) -> tuple[tuple[tuple[int, int, int, tuple[int, ...]], ...], ...]:
    """Column j's chunks for j < n, ascending: (chunk, edges, row of j below j,
    those vertices).  Built once per n: every scan and verify cell reads it."""
    columns = []
    for j in range(n):
        column = []
        for c in range(1 << j):
            below = tuple(j - 1 - b for b in range(j) if c >> b & 1)  # bit b is the pair (j - 1 - b, j)
            column.append((c, len(below), sum(1 << i for i in below), below))
        columns.append(tuple(column))
    return tuple(columns)


def _least_adjs(
    n: int, m: int, r: int = 2, ceiling: Optional[list[int]] = None
) -> Iterator[tuple[list[int], list[int]]]:
    """(rows, degrees) of the swap-least labeled (n, m)-graphs, for
    0 <= m <= n(n-1)/2, in strictly ascending order of their column chunks.

    A labeling is swap-least when no swap of two consecutive vertices j, j + 1
    (1 <= j <= n - 2) lowers it.  Such a swap keeps the chunks before j and
    makes vertex j + 1's bits to vertices 0..j-1 the j-th chunk; with column
    chunks as in ``graph6._column_chunks`` (vertex 0 most significant), it
    lowers the encoding exactly when chunk j exceeds chunk[j + 1] >> 1, chunk
    j + 1 without its bit for vertex j.  So a depth-first search that places
    column 1, then 2, up to n - 1, taking column j + 1's chunk from
    [chunk[j] << 1, 2^(j+1)) in ascending order, makes exactly these
    labelings and no other: the column view of Read's orderly generation
    ("Every one a winner", 1978), with the swap rule as its only test.  A
    chunk is taken only when the edges still to place fit in the later
    columns.  Every least labeling is swap-least, so a scan that sees only
    these still reaches the least labeling of every graph.

    The same two lists are yielded every time; a caller that keeps a graph
    copies it.

    ``ceiling``, a one-item list the consumer may lower between yields
    (default None: every labeling), turns the kernel's floor around: a
    subtree is skipped when each graph in it has an r-clique of degree sum
    at least ``ceiling[0]``.  Placed edges are final and degrees only grow,
    so once column j is placed with lower neighbours B (k = |B|), an
    (r - 1)-clique of B plus j is an r-clique of every completion, with at
    least its partial degree sum: for r = 2 the bound is
    ``k + max(degs[i] for i in B)``, for r = 3 it is k plus B's best edge,
    which the r = 2 kernel ``within`` B finds, aborting above
    ``ceiling[0] - k - 1``.  The test runs only at columns n - 2 and n - 1:
    at r = 3, testing every column made (10, 33, 3) slower.  r >= 4 is not
    pruned: its bound costs an (r - 1)-clique kernel call per placed column,
    and (10, 37, 4) got slower.
    """
    nslots = n * (n - 1) // 2
    columns = _columns(n)
    room = [nslots - j * (j + 1) // 2 for j in range(n)]  # edge slots in the columns after j
    rows = [0] * n
    degs = [0] * n
    prune_from = n - 2 if ceiling is not None and r in (2, 3) else n

    def beaten(k: int, row: int, below) -> bool:  # every completion's value is >= ceiling[0]
        if r == 2:
            return k + max(map(degs.__getitem__, below)) >= ceiling[0]
        return _best_clique(rows, degs, 2, ceiling[0] - k - 1, row) is None

    def place(j: int, lo: int, left: int):  # columns 1..j-1 placed, ``left`` edges to go
        if j >= n:
            yield rows, degs
            return
        bit = 1 << j
        for c, k, row, below in columns[j][lo:]:
            if k > left or left - k > room[j]:
                continue
            rows[j] = row
            degs[j] = k
            for i in below:
                rows[i] |= bit
                degs[i] += 1
            if j < prune_from or k < r - 1 or not beaten(k, row, below):
                yield from place(j + 1, c << 1, left - k)
            for i in below:
                rows[i] ^= bit
                degs[i] -= 1

    yield from place(1, 0, m)


# ---------------------------------------------------------------------------
# exhaustive minimum


def _regime(m: int, r: int, n: int) -> str:
    if r > n:
        return REGIME_NO_CLIQUE
    t = turan_size(r, n)
    if m < t:
        return REGIME_BELOW
    if m == t:
        return REGIME_AT
    return REGIME_ABOVE


def _make_record(n, m, r, mode, value, chunks: tuple[int, ...], examined) -> ScanRecord:
    ratio = Fraction(2 * r * m, n)
    return ScanRecord(
        n=n,
        m=m,
        r=r,
        mode=mode,
        delta_min=value,
        witness_g6=_chunks_to_graph6(n, chunks),
        ratio_num=ratio.numerator,
        ratio_den=ratio.denominator,
        graphs_examined=examined,
        regime=_regime(m, r, n),
    )


def _check_cells(
    n: int, r: int, ms, mode: str, modes=MODES, *, workers: int = 1,
    restarts: int = 0, iter_budget: int = 0,
) -> None:
    """Every argument check of a search in ``mode`` (one of ``modes``) over the cells
    (n, m, r) for m in ``ms``: the shared arguments and ranges in every mode, then
    each m in order, so a bad cell raises before any cell is searched and an empty
    range still checks."""
    if n < 1:
        raise ValueError(f"vertex count must be at least 1, got {n}")
    if r < 1:
        raise ValueError(f"clique size must be at least 1, got {r}")
    if mode not in modes:
        raise ValueError(f"unknown mode {mode!r}; expected one of {', '.join(modes)}")
    if mode == LOCAL_SEARCH:
        _check_vertex_count(n, VERTEX_CAP)
    else:
        over = f"exact modes capped at n={CANONICAL_MAX_N}; use local-search"
        _check_vertex_count(n, CANONICAL_MAX_N, over)
    if workers < 1:
        raise ValueError(f"worker count must be at least 1, got {workers}")
    if workers > MAX_WORKERS:
        raise ResourceLimitError(f"worker count {workers} exceeds cap {MAX_WORKERS}")
    if restarts < 0 or iter_budget < 0:
        raise ValueError("restarts and iter-budget must be nonnegative")
    if restarts > MAX_RESTARTS:
        raise ResourceLimitError(f"restart count {restarts} exceeds cap {MAX_RESTARTS}")
    if iter_budget > MAX_ITER_BUDGET:
        raise ResourceLimitError(f"iter budget {iter_budget} exceeds cap {MAX_ITER_BUDGET}")
    nslots = n * (n - 1) // 2
    for m in ms:
        if m < 0 or m > nslots:
            raise ValueError(f"edge count {m} outside 0..{nslots}")


def extremal_degree_sum_min(n: int, m: int, r: int, mode: str = "exhaustive") -> ScanRecord:
    """Exact minimum over all labeled (n, m)-graphs of the max r-clique degree sum.

    The witness is the minimizer with the least labeled encoding, which
    is the least canonical form among the minimizers because the scan
    covers every relabeling of each; the kernel sees only the swap-least
    ones, which include that least relabeling.  They come in ascending
    encoding order, so the first minimizer met is the least, and the kernel
    aborts on every graph that cannot beat the best so far: any value it
    returns is a new best.  That best is also the generator's ceiling, so
    for r <= 3 the generator skips the subtrees at columns n - 2 and n - 1
    whose every graph the kernel would abort on.  Before the first best the
    ceiling is 2m + 1, above every value (the sum of all m edges' end
    degrees): nothing is skipped, an abort above 2m is no abort, and the
    first labeling, which every cell has, is the first best.  The
    scan stops at its first value 0, below which nothing lies: a graph with
    no r-clique, which every cell with m <= t_{r-1}(n) or r > n holds (for
    r = 1, only m = 0).
    """
    _check_cells(n, r, (m,), mode, EXACT_MODES)
    ceiling = [2 * m + 1]
    for adj, degs in _least_adjs(n, m, r, ceiling):
        val = max_degree_sum_value(adj, degs, r, abort_above=ceiling[0] - 1)
        if val is not None:
            ceiling[0], chunks = val, _column_chunks(adj, n)
            if not val:
                break
    return _make_record(n, m, r, mode, ceiling[0], chunks, math.comb(n * (n - 1) // 2, m))


# ---------------------------------------------------------------------------
# near-regular construction


def _spread_positions(count: int, total: int) -> set[int]:
    return {i * total // count for i in range(count)}


def near_regular_graph(n: int, m: int) -> Graph:
    """A graph with exactly m edges whose degrees differ by at most 1.

    Circulant construction: full distance classes around a cycle (each
    class is regular), then the remainder as distance-1 cycle edges
    spread evenly so no vertex is bumped twice unless all are bumped
    at least once.
    """
    _check_vertex_count(n, VERTEX_CAP)
    nslots = n * (n - 1) // 2
    if m < 0 or m > nslots:
        raise ValueError(f"edge count {m} infeasible for n={n} (0..{nslots})")
    adj = [0] * n
    remaining = m

    def add(u: int, v: int):
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    for d in range(2, n // 2 + 1):
        size = n // 2 if 2 * d == n else n
        if remaining < size:
            break
        for i in range(size):
            add(i, (i + d) % n)
        remaining -= size
    cycle = [(i, (i + 1) % n) for i in range(n if n >= 3 else n - 1)]
    k = remaining
    if k <= len(cycle) // 2:
        chosen = _spread_positions(k, len(cycle))
    else:
        chosen = set(range(len(cycle))) - _spread_positions(len(cycle) - k, len(cycle))
    for i in chosen:
        add(*cycle[i])
    return Graph._raw(n, tuple(adj))


# ---------------------------------------------------------------------------
# local search


def _best_swap(cur: list[int], n: int, r: int):
    """The least (value, rows) graph one edge swap away from ``cur``, rows
    being its adjacency rows, compared as a list.

    Returns (value, rows), or (None, None) when ``cur`` has no edge or no
    non-edge.  Distinct swaps give distinct rows, so the least (value, rows)
    is one swap, and the choice is the one a full evaluation of every swap
    makes: a swap is dropped only once it is proven to lose to the best one
    so far.

    Each value comes from ``cur``'s r-cliques, not from the swapped graph.
    Removing (eu, ev) destroys the cliques holding both ends and lowers
    every other clique's sum by one per end it holds.  Adding the non-edge
    (hu, hv), a hole, raises a kept clique's sum by one if it holds hu or hv
    (it cannot hold both), and creates the cliques through (hu, hv), whose
    best sum is d'(hu) + d'(hv) plus the best (r-2)-clique of their common
    neighbourhood, d' being the degrees after the swap.

    The cliques are numbered once per call, and two tables of bitmasks over
    those numbers stand in for the clique list: ``inc[x]``, the cliques
    holding vertex x, and ``level[s]``, the cliques of sum s.  Per removed
    edge, the kept cliques that hold neither end keep their sum and those
    that hold one end lose one, so the best kept sum, ``kept_best``, is the
    highest s with a clique in ``level[s] & neither`` or ``level[s + 1] &
    one``; it is a lower bound on every swap that removes the edge.  Each
    mask is filled as a bytearray and made an int once: OR-ing ``1 << i``
    into an int copies it, which would make the build quadratic in the
    clique count.

    Rows are compared as one packed key, sum(rows[i] << n(n - 1 - i)):
    vertex 0's row is the most significant n bits, so two keys compare as
    their row lists do.  A swap's key is ``cur``'s key less the removed
    edge's two bits plus the hole's two, and the removed edge's term is the
    same for every hole, so the holes, sorted once by their own bits, come
    in key order for every removed edge.  Against the best (value, key) so
    far, (nb_val, nb_key), every swap whose value and key are both proven no
    smaller loses, so:

    - a removed edge is skipped when ``kept_best > nb_val``, or when
      ``kept_best == nb_val`` and its least key, with the first hole, is
      above ``nb_key``;
    - its holes stop at the first key above ``nb_key`` once ``kept_best >=
      nb_val``: every later hole has a larger key and no lesser value;
    - a hole whose value from the kept cliques alone exceeds ``nb_val``, or
      ties it with a key above ``nb_key``, is dropped before the degree
      bound and the kernel are read; so is one whose new cliques provably
      reach above ``nb_val`` (the kernel aborts above ``nb_val`` less the
      ends' degrees).

    Only the winner's rows are built, from its key.
    """
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if cur[u] >> v & 1]
    holes = [(u, v) for u in range(n) for v in range(u + 1, n) if not cur[u] >> v & 1]
    if not edges or not holes:
        return None, None  # no swap: skip the clique table, which can be huge
    degs = list(map(int.bit_count, cur))
    cliques = list(islice(_clique_sums(cur, degs, r), MAX_CLIQUES + 1))
    if len(cliques) > MAX_CLIQUES:
        raise ResourceLimitError(f"local-search clique table exceeded {MAX_CLIQUES} cliques")
    size = (len(cliques) + 7) // 8
    inc = [bytearray(size) for _ in range(n)]
    level = [None] * (max((s for s, _ in cliques), default=-1) + 2)
    for i, (s, bits) in enumerate(cliques):
        byte, bit = i >> 3, 1 << (i & 7)
        if level[s] is None:
            level[s] = bytearray(size)
        level[s][byte] |= bit
        while bits:
            b = bits & -bits
            bits ^= b
            inc[b.bit_length() - 1][byte] |= bit
    inc = [int.from_bytes(m, "little") for m in inc]
    level = [0 if m is None else int.from_bytes(m, "little") for m in level]
    every = (1 << len(cliques)) - 1
    shift = [n * (n - 1 - i) for i in range(n)]  # row i's place in a packed key
    key = sum(row << s for row, s in zip(cur, shift))
    holes = sorted((1 << hv + shift[hu] | 1 << hu + shift[hv], hu, hv) for hu, hv in holes)
    least_hole = holes[0][0]
    rows = list(cur)  # cur with the removed edge taken out; degs follow it
    nb_val, nb_key = 2 * len(edges) + 1, 0  # above every value: the first swap scored wins
    for eu, ev in edges:
        # the best kept sum, the kept cliques attaining it, and the union of their vertices
        one = inc[eu] ^ inc[ev]
        neither = every ^ (inc[eu] | inc[ev])
        kept_best, kept = len(level) - 1, 0
        while not kept and kept_best:
            kept_best -= 1
            kept = level[kept_best] & neither | level[kept_best + 1] & one
        base = key - (1 << ev + shift[eu]) - (1 << eu + shift[ev])
        if kept_best > nb_val or kept_best == nb_val and base + least_hole > nb_key:
            continue  # every swap removing this edge loses
        kept_top = sum(1 << x for x in range(n) if inc[x] & kept)
        rows[eu] ^= 1 << ev
        rows[ev] ^= 1 << eu
        degs[eu] -= 1
        degs[ev] -= 1
        by_degree = sorted(range(n), key=degs.__getitem__, reverse=True)
        for bits, hu, hv in holes:
            ck = base + bits
            if ck > nb_key and kept_best >= nb_val:
                break  # every later hole has a larger key and no lesser value
            val = kept_best + ((kept_top >> hu | kept_top >> hv) & 1)
            if val > nb_val or val == nb_val and ck > nb_key:
                continue
            if r > 1:
                # a clique through (hu, hv) adds an (r-2)-clique of their common
                # neighbourhood, which cannot beat the r-2 largest degrees there
                ends = degs[hu] + degs[hv] + 2
                common = rows[hu] & rows[hv]
                bound, need = ends, r - 2
                for x in by_degree:
                    if not need:
                        break
                    if common >> x & 1:
                        bound += degs[x]
                        need -= 1
                if not need and bound > val:
                    if r <= 3:  # at most one vertex besides the ends: the bound is attained
                        val = bound
                    else:
                        inner = max_degree_sum_value(
                            rows, degs, r - 2, abort_above=nb_val - ends, within=common
                        )
                        if inner is None:
                            continue
                        if inner:  # 0: the common neighbourhood holds no (r-2)-clique
                            val = max(val, ends + inner)
            if val < nb_val or val == nb_val and ck < nb_key:
                nb_val, nb_key = val, ck
        rows[eu] |= 1 << ev
        rows[ev] |= 1 << eu
        degs[eu] += 1
        degs[ev] += 1
    full = (1 << n) - 1
    return nb_val, [nb_key >> s & full for s in shift]


def extremal_degree_sum_local_search(
    n: int,
    m: int,
    r: int,
    seed: int = 0,
    restarts: int = 4,
    iter_budget: int = 200,
) -> ScanRecord:
    """Upper bound on the exact minimum via steepest-descent edge swaps.

    One start from the near-regular graph plus ``restarts`` seeded
    random starts (restart i uses seed + i), at most ``MAX_RESTARTS``.
    A move removes one edge and adds one non-edge; ties in the objective
    go to the graph with the lesser adjacency rows, compared as a list
    (vertex 0's row first), at every n, and plateau moves (equal objective,
    strictly lesser rows) are limited to ``iter_budget`` per start, at most
    ``MAX_ITER_BUDGET``.  The witness is the least (value, rows) graph met,
    encoded as labeled.
    Swaps are evaluated incrementally from the current graph's cliques
    (see ``_best_swap``) with results identical to re-evaluating every
    swapped graph.  graphs_examined counts the starts plus every
    candidate swap considered, m(N - m) per step.  Deterministic given
    the seed.

    By Turán's theorem the value is 0 exactly when m <= t_{r-1}(n): such a
    cell returns before any search, graphs_examined 1, with the first m
    edges of T_p(n), p = min(max(r - 1, 1), n), as its witness.
    """
    _check_cells(n, r, (m,), LOCAL_SEARCH, restarts=restarts, iter_budget=iter_budget)
    p = min(max(r - 1, 1), n)  # r <= 2: only m = 0; r > n: K_n, every m
    if m <= turan_size(p, n):
        witness = from_edges(n, islice(turan_graph(p, n)[0].edges(), m))
        return _make_record(n, m, r, LOCAL_SEARCH, 0, _column_chunks(witness.adj, n), 1)
    slots = _slots(n)
    evals = 0
    best_val: Optional[int] = None
    best: Optional[list[int]] = None
    for i in range(restarts + 1):
        start = (
            from_edges(n, random.Random(seed + i).sample(slots, m)) if i else near_regular_graph(n, m)
        )
        cur = list(start.adj)
        cur_val = max_degree_sum_value(cur, list(map(int.bit_count, cur)), r)
        evals += 1
        plateau = 0
        while True:
            if best_val is None or (cur_val, cur) < (best_val, best):
                best_val, best = cur_val, cur
            nb_val, nb_rows = _best_swap(cur, n, r)
            evals += m * (len(slots) - m)
            if nb_val is None:
                break
            if nb_val < cur_val:
                cur, cur_val = nb_rows, nb_val
            elif nb_val == cur_val and nb_rows < cur and plateau < iter_budget:
                plateau += 1
                cur = nb_rows
            else:
                break
    return _make_record(n, m, r, LOCAL_SEARCH, best_val, _column_chunks(best, n), evals)


# ---------------------------------------------------------------------------
# scans, stability, verification


def scan_m(
    n: int,
    r: int,
    m_from: int,
    m_to: int,
    mode: str = "exhaustive",
    seed: int = 0,
    restarts: int = 4,
    iter_budget: int = 200,
    workers: int = 1,
) -> list[ScanRecord]:
    """One record per edge count in [m_from, m_to]; empty range gives an empty list.

    Every argument of every cell is checked before the first search.  The
    cells are independent, so with more than one worker and more than one
    cell they run in min(workers, cells) processes, one pool per scan, in
    every mode; the records come back in m order whatever the worker count."""
    ms = range(m_from, m_to + 1)
    _check_cells(n, r, ms, mode, workers=workers, restarts=restarts, iter_budget=iter_budget)
    if mode == LOCAL_SEARCH:
        cell = partial(
            extremal_degree_sum_local_search, n, r=r, seed=seed, restarts=restarts,
            iter_budget=iter_budget,
        )
    else:
        cell = partial(extremal_degree_sum_min, n, r=r, mode=mode)
    if workers == 1 or len(ms) < 2:
        return list(map(cell, ms))
    # imported here: loading multiprocessing adds about 1.5 MB to the
    # resident size of every process, and single-worker scans never need it
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(min(workers, len(ms))) as pool:
        return list(pool.map(cell, ms))


def band_violation(rec: ScanRecord) -> Optional[str]:
    """The two-sided bound 2rm <= value*n < 2rm + rn, checked when m is at or
    above the threshold and n >= r, as the paper states it (records with
    r > n carry the regime ``no-r-clique``).  A local-search value is the
    value of a graph the search holds, an upper bound on the minimum, so it
    can witness a violation of the lower side only; exact modes check both."""
    if rec.regime in (REGIME_BELOW, REGIME_NO_CLIQUE):
        return None
    lhs = rec.delta_min * rec.n
    lo = 2 * rec.r * rec.m
    hi = lo + rec.r * rec.n
    if lhs < lo:
        return f"delta_min*n = {lhs} < 2rm = {lo}"
    if lhs >= hi and rec.mode in EXACT_MODES:
        return f"delta_min*n = {lhs} >= 2rm + rn = {hi}"
    return None


@dataclass(frozen=True)
class StabilityParams:
    """Window (m_threshold, m_upper] just below the r-partite threshold
    m_upper = t_r(n): width ceil(delta*n^2) where delta = epsilon^2/32.

    Any rational epsilon in (0, 1) is accepted; epsilons at or above 2/(r(r+1))
    fall outside the range the underlying argument assumes (shrinking
    epsilon only strengthens the statement), which ``within_proof_range``
    flags.
    """

    epsilon: Fraction
    r: int
    n: int

    def __post_init__(self):
        if self.r < 2:
            raise ValueError(f"clique size must be at least 2, got {self.r}")
        if self.n < self.r:
            raise ValueError(f"need n >= r, got n={self.n}, r={self.r}")
        if not isinstance(self.epsilon, Rational):  # first: a string or None cannot be compared
            raise ValueError(f"epsilon must be an exact rational, got {self.epsilon!r}")
        if not (0 < self.epsilon < 1):
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")

    @property
    def delta(self) -> Fraction:
        return self.epsilon * self.epsilon / 32

    @property
    def m_upper(self) -> int:
        return turan_size(self.r, self.n)

    @property
    def m_threshold(self) -> int:
        return self.m_upper - math.ceil(self.delta * self.n * self.n)

    @property
    def within_proof_range(self) -> bool:
        return self.epsilon < Fraction(2, self.r * (self.r + 1))


@dataclass(frozen=True)
class StabilityRow:
    m: int
    delta_min: int
    ratio_num: int  # delta_min * n / (2rm) in lowest terms
    ratio_den: int
    ratio_decimal: str
    exceeds_threshold: bool  # ratio > 1 - epsilon


def _decimal_6(frac: Fraction) -> str:
    q, rem = divmod(frac.numerator * 10**6, frac.denominator)
    if 2 * rem >= frac.denominator:
        q += 1
    return f"{q // 10**6}.{q % 10**6:06d}"


def stability_experiment(
    params: StabilityParams,
    mode: str = "exhaustive",
    seed: int = 0,
    restarts: int = 4,
    iter_budget: int = 200,
    workers: int = 1,
) -> tuple[StabilityRow, ...]:
    """Ratio table value*n/(2rm), one row per m in the window of ``params``.

    Purely empirical: the rows report whether each ratio exceeds
    1 - epsilon, nothing is asserted (the underlying statement is
    asymptotic and carries an unknown size threshold).
    """
    r, n = params.r, params.n
    records = scan_m(
        n, r, max(params.m_threshold + 1, 1), params.m_upper, mode=mode, seed=seed,
        restarts=restarts, iter_budget=iter_budget, workers=workers,
    )
    rows = []
    for rec in records:
        ratio = Fraction(rec.delta_min * n, 2 * r * rec.m)
        rows.append(
            StabilityRow(
                m=rec.m,
                delta_min=rec.delta_min,
                ratio_num=ratio.numerator,
                ratio_den=ratio.denominator,
                ratio_decimal=_decimal_6(ratio),
                exceeds_threshold=ratio > 1 - params.epsilon,
            )
        )
    return tuple(rows)


@dataclass(frozen=True)
class VerifyReport:
    n_max: int
    r_set: tuple[int, ...]
    mode: str
    graphs_examined: int
    cells: int
    violations: int
    counterexamples: tuple[dict, ...]
    skipped_pairs: tuple[tuple[int, int], ...]


def verify_all(
    n_max: int,
    r_set: list[int] | tuple[int, ...],
    mode: str = "exhaustive",
) -> VerifyReport:
    """Run both greedy checks on every graph in range and the two-sided bound
    on every exact minimum; every violation carries its graph as graph6.

    The graphs are the swap-least labelings of ``_least_adjs``, the scans'
    generator, in ascending encoding order; canonical mode keeps only those
    whose labeled encoding is their canonical form, one per isomorphism
    class.  The greedy checks read isomorphism invariants alone (the
    shortest stop, the least and greatest first-r sums over all tie
    branches, regularity), and the least labeling of every graph is
    swap-least, so every graph that fails a check is reported: once per
    swap-least labeling in exhaustive mode.  Each cell's record is the
    scans' own, from ``extremal_degree_sum_min``, judged by
    ``band_violation``, and a band violation carries its witness.
    graphs_examined counts (graph, r) incidences, each graph once per clique
    size it is checked against: the C(N, m) labeled graphs of a cell,
    counted as the scans count them, or its classes in canonical mode.
    """
    if n_max > CANONICAL_MAX_N:  # before ``skipped`` is built, whatever n_max is
        raise ResourceLimitError(f"verify capped at n_max={CANONICAL_MAX_N}, got {n_max}")
    rs_all = sorted(set(r_set))
    for r in rs_all:
        if r < 2:
            raise ValueError(f"clique sizes must be at least 2, got {r}")
    skipped = tuple((n, r) for n in range(2, n_max + 1) for r in rs_all if r > n)
    if not any(r <= n_max for r in rs_all):
        raise ValueError(
            f"verify plan holds no cell: n_max={n_max}, clique sizes {rs_all} "
            "(need n_max >= 2 and some clique size at most n_max)"
        )
    _check_cells(n_max, rs_all[0], (), mode, EXACT_MODES)  # the mode; the rest is checked above
    counterexamples: list[dict] = []
    graphs_examined = 0
    cells = 0

    def found(n: int, m: int, r: int, kind: str, detail: str, graph6: str) -> None:
        counterexamples.append(
            {
                "n": n,
                "m": m,
                "r": r,
                "kind": kind,
                "detail": detail,
                "graph6": graph6,
            }
        )

    for n in range(2, n_max + 1):
        rs = [r for r in rs_all if r <= n]
        if not rs:
            continue
        thresholds = {r: turan_size(r, n) for r in rs}
        for m in range(min(thresholds.values()), n * (n - 1) // 2 + 1):
            active = [r for r in rs if thresholds[r] <= m]
            kept = 0
            for adj, degs in _least_adjs(n, m):
                if mode == "canonical" and _canonical_chunks(adj, n) != _column_chunks(adj, n):
                    continue  # not the representative of its isomorphism class
                kept += 1
                regular = min(degs) == max(degs)
                for r in active:
                    shortest, min_sum, max_sum = greedy_prefix_extremes(adj, degs, r)
                    problems = (
                        _floor_failure(n, m, r, thresholds[r], shortest, min_sum),
                        _mean_failure(n, m, r, regular, max_sum),
                    )
                    for problem in filter(None, problems):
                        g6 = _chunks_to_graph6(n, _column_chunks(adj, n))
                        found(n, m, r, "greedy", problem, g6)
            for r in active:
                cells += 1
                rec = extremal_degree_sum_min(n, m, r, mode=mode)
                graphs_examined += rec.graphs_examined if mode == "exhaustive" else kept
                if problem := band_violation(rec):
                    found(n, m, r, "band", problem, rec.witness_g6)
    return VerifyReport(
        n_max=n_max,
        r_set=tuple(rs_all),
        mode=mode,
        graphs_examined=graphs_examined,
        cells=cells,
        violations=len(counterexamples),
        counterexamples=tuple(counterexamples),
        skipped_pairs=skipped,
    )

"""Greedy maximum-degree clique construction and per-graph bound checks.

The construction starts from a maximum-degree vertex and repeatedly
appends a maximum-degree vertex of the common neighborhood of the
vertices chosen so far, until that neighborhood is empty.  Degree ties
make the outcome non-unique.  ``greedy_sequence`` breaks every tie by
lowest index.  ``all_greedy_sequences`` first counts the runs with a
memo keyed by the set of vertices chosen so far, refuses a count above
its branch cap before any run is built, and otherwise walks the memo
once, appending every run in lexicographic order.

The check functions evaluate, per graph, the bounds that every such
sequence must satisfy once the edge count reaches the balanced
r-partite threshold:

* floor check: every sequence has at least r vertices, the first r
  degrees sum to at least (r-1)n, and equality forces m to equal the
  threshold exactly;
* mean check: the best sequence's first-r degree sum X satisfies
  X*n >= 2rm, strictly when the graph is not regular.

Both checks aggregate over all tie branches by scanning prefix *sets*
instead of ordered sequences: the candidate set and the first-r degree
sum depend only on the set of chosen vertices, so deduplicating by set
preserves every quantity checked while avoiding factorial blowup.  The
scan holds one level of sets at a time, up to depth r - 1, and reads the
sums and the mean check's witness of depth r off that level: the last
level is counted but never held.  The cap counts the sets made over all
levels, the last included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graph6 import to_graph6
from .graphs import Graph, ResourceLimitError, _bits, _degree_classes
from .turan import turan_size

DEFAULT_BRANCH_CAP = 100_000
MAX_BRANCH_CAP = 1_000_000  # greedy runs all_greedy_sequences may be asked to keep
MAX_PREFIX_SETS = 100_000  # prefix sets one scan may make over all levels; it holds one level


class PreconditionError(ValueError):
    """The checked statement's hypothesis does not hold for this input."""


@dataclass(frozen=True)
class GreedySequence:
    """One run of the greedy construction: vertices in order plus prefix degree sums."""

    vertices: tuple[int, ...]
    degree_sums: tuple[int, ...]
    tie_policy: str  # "lowest-index" or "all-branches"


def _top(cand: int, classes: list[tuple[int, int]]) -> tuple[int, int]:
    """The greedy step: the top degree among the nonempty candidate set
    ``cand`` and the mask of the candidates that have it."""
    for d, mask in classes:
        if cand & mask:
            return d, cand & mask


def _start(g: Graph) -> list[tuple[int, int]]:
    """The degree classes of ``g``, which must have a vertex to start from."""
    if g.n == 0:
        raise ValueError("greedy construction needs at least one vertex")
    return _degree_classes(g.degrees())


def greedy_sequence(g: Graph) -> GreedySequence:
    """Run the construction once, breaking every degree tie by lowest vertex index."""
    classes = _start(g)
    cand = (1 << g.n) - 1
    vertices, sums, total = [], [], 0
    while cand:
        d, top = _top(cand, classes)
        v = (top & -top).bit_length() - 1
        total += d
        vertices.append(v)
        sums.append(total)
        cand &= g.adj[v]
    return GreedySequence(tuple(vertices), tuple(sums), "lowest-index")


def all_greedy_sequences(g: Graph, branch_cap: int = DEFAULT_BRANCH_CAP) -> list[GreedySequence]:
    """Every vertex sequence the construction can produce, over all tie choices.

    Returns the distinct sequences sorted by vertex tuple.  The runs are
    counted first: a count above ``branch_cap`` raises ResourceLimitError
    before the first run is built, and a ``branch_cap`` above
    ``MAX_BRANCH_CAP`` is refused before the count.

    A prefix's completions depend on its vertex set alone (the candidates
    are their common neighbours), so the count memoizes, per set, its
    completions and its greedy step, which the walk then reads.  Each call
    gets the room its ancestors leave under the cap and stops once past
    it, which stops every ancestor.  So the sets of one size that the
    count completes hold at most ``branch_cap`` runs between them, and as
    their runs are disjoint, the memo holds at most
    omega * (branch_cap + 1) + 1 sets, omega the longest run.
    """
    if branch_cap < 1:
        raise ValueError(f"branch cap must be at least 1, got {branch_cap}")
    if branch_cap > MAX_BRANCH_CAP:
        raise ResourceLimitError(f"branch cap {branch_cap} exceeds cap {MAX_BRANCH_CAP}")
    classes = _start(g)
    adj = g.adj
    memo: dict[int, tuple[int, int, int]] = {}  # set -> (completions, top degree, top mask)

    def count(state, cand, room):
        """Completions of ``state``: exact when at most ``room``, else above it."""
        got = memo.get(state)
        if got is not None:
            return got[0]
        if not cand:
            memo[state] = (1, 0, 0)
            return 1
        d, top = _top(cand, classes)
        total, rest = 0, top
        while rest and total <= room:
            b = rest & -rest
            rest ^= b
            total += count(state | b, cand & adj[b.bit_length() - 1], room - total)
        memo[state] = (total, d, top)
        return total

    if count(0, (1 << g.n) - 1, branch_cap) > branch_cap:
        raise ResourceLimitError(f"greedy tie branching exceeded branch cap {branch_cap}")
    out: list[GreedySequence] = []
    _walk(memo, out, 0, (), (), 0)
    return out


def _walk(memo, out, state, vertices, sums, total) -> None:
    """Append to ``out``, in lexicographic order, every run through the
    prefix set ``state``, reading each set's greedy step from the memo of
    ``all_greedy_sequences``' count."""
    _, d, top = memo[state]
    if not top:
        out.append(GreedySequence(vertices, sums, "all-branches"))
        return
    total += d
    for v in _bits(top):
        _walk(memo, out, state | 1 << v, vertices + (v,), sums + (total,), total)


def _over_cap() -> ResourceLimitError:
    return ResourceLimitError(f"greedy prefix-set scan exceeded {MAX_PREFIX_SETS} kept sets")


def _prefix_search(
    adj: tuple[int, ...] | list[int],
    degs: tuple[int, ...] | list[int],
    r: int,
) -> tuple[Optional[int], Optional[int], Optional[int], Optional[int]]:
    """Scan all tie branches to depth r by deduplicating prefix sets, level by level.

    Returns (shortest_stop, min_sum, max_sum, best) where shortest_stop
    is the length of the shortest maximal sequence that stops before r
    vertices (None when every branch reaches depth r), min_sum/max_sum
    range over the first-r degree sums of branches that reach depth r, and
    best is the least set of depth r with sum max_sum, as a bit mask (all
    three None when none does).  Levels up to r - 1 are held one at a
    time, and the last is read off level r - 1: a set S there with
    candidates grows into the sets S | b, b in its top class, all with S's
    sum plus the top degree, the least being S | b for the lowest b.
    ResourceLimitError is raised once the sets made over all levels would
    exceed MAX_PREFIX_SETS; the last level's sets are counted only when the
    sizes of the top classes add up to more than the room left.
    """
    n = len(adj)
    classes = _degree_classes(degs)
    level: dict[int, tuple[int, int]] = {0: ((1 << n) - 1, 0)}
    room = MAX_PREFIX_SETS - 1
    shortest_stop: Optional[int] = None
    for depth in range(r - 1):
        nxt: dict[int, tuple[int, int]] = {}
        for state, (cand, acc) in level.items():
            if not cand:
                if shortest_stop is None:
                    shortest_stop = depth
                continue
            d, top = _top(cand, classes)
            acc += d
            while top:
                b = top & -top
                top ^= b
                ns = state | b
                if ns not in nxt:
                    nxt[ns] = (cand & adj[b.bit_length() - 1], acc)
            if len(nxt) > room:
                raise _over_cap()
        if not nxt:
            return shortest_stop, None, None, None
        room -= len(nxt)
        level = nxt
    min_sum = max_sum = best = None
    made = 0  # the last level's sets, counted once per set of level r - 1 that makes them
    for state, (cand, acc) in level.items():
        if not cand:
            if shortest_stop is None:
                shortest_stop = r - 1
            continue
        d, top = _top(cand, classes)
        made += top.bit_count()
        acc += d
        ns = state | top & -top
        if max_sum is None or acc > max_sum or acc == max_sum and ns < best:
            max_sum, best = acc, ns
        if min_sum is None or acc < min_sum:
            min_sum = acc
    if made > room:
        last: set[int] = set()
        for state, (cand, _) in level.items():
            if cand:
                last.update(state | 1 << v for v in _bits(_top(cand, classes)[1]))
                if len(last) > room:
                    raise _over_cap()
    return shortest_stop, min_sum, max_sum, best


def greedy_prefix_extremes(
    adj: tuple[int, ...] | list[int],
    degs: tuple[int, ...] | list[int],
    r: int,
) -> tuple[Optional[int], Optional[int], Optional[int]]:
    """Kernel: (shortest_stop, min_sum, max_sum) of the prefix-set scan to depth r,
    as ``_prefix_search`` defines them."""
    return _prefix_search(adj, degs, r)[:3]


def _floor_failure(
    n: int, m: int, r: int, t: int, shortest_stop: Optional[int], min_sum: Optional[int]
) -> Optional[str]:
    """The floor check on a prefix-set scan: every branch reaches r vertices,
    the first-r sum is at least (r-1)n, and equality forces m = t."""
    if shortest_stop is not None:
        return f"a maximal greedy sequence stops at {shortest_stop} < {r} vertices"
    if min_sum is None:
        return f"no greedy branch reaches {r} vertices"
    floor = (r - 1) * n
    if min_sum < floor:
        return f"first-{r} degree sum {min_sum} below floor {floor}"
    if min_sum == floor and m != t:
        return f"floor attained but m={m} differs from threshold {t}"
    return None


def _mean_failure(n: int, m: int, r: int, regular: bool, max_sum: Optional[int]) -> Optional[str]:
    """The mean check: the best first-r sum X has X*n >= 2rm, strictly when
    the graph is not regular."""
    if max_sum is None:
        return f"no greedy branch reaches {r} vertices"
    lhs = max_sum * n
    rhs = 2 * r * m
    if lhs < rhs:
        return f"best first-{r} sum {max_sum}: {lhs} < {rhs}"
    if not regular and lhs == rhs:
        return "graph not regular but best sum meets 2rm/n with equality"
    return None


def _require_threshold(g: Graph, r: int) -> int:
    if r < 2:
        raise PreconditionError(f"clique size must be at least 2, got {r}")
    if g.n < r:
        raise PreconditionError(f"need n >= r, got n={g.n}, r={r}")
    t = turan_size(r, g.n)
    if g.m < t:
        raise PreconditionError(
            f"need m >= {t} (balanced {r}-partite threshold for n={g.n}), got m={g.m}"
        )
    return t


@dataclass(frozen=True)
class FloorCheckReport:
    """Per-graph result for the length/floor/equality bounds on greedy sequences."""

    n: int
    m: int
    r: int
    floor: int  # (r-1) * n
    threshold: int  # balanced r-partite edge count
    all_reach_r: bool
    min_first_r_sum: Optional[int]
    max_first_r_sum: Optional[int]
    equality_attained: bool
    ok: bool
    failure: Optional[str]
    counterexample_g6: Optional[str]


def check_floor_bound(g: Graph, r: int) -> FloorCheckReport:
    """Check, over all tie branches: length >= r, first-r sum >= (r-1)n, and
    that any branch attaining the floor exactly forces m to equal the threshold."""
    t = _require_threshold(g, r)
    floor = (r - 1) * g.n
    shortest_stop, min_sum, max_sum = greedy_prefix_extremes(g.adj, g.degrees(), r)
    failure = _floor_failure(g.n, g.m, r, t, shortest_stop, min_sum)
    ok = failure is None
    return FloorCheckReport(
        n=g.n,
        m=g.m,
        r=r,
        floor=floor,
        threshold=t,
        all_reach_r=shortest_stop is None and min_sum is not None,
        min_first_r_sum=min_sum,
        max_first_r_sum=max_sum,
        equality_attained=min_sum == floor,
        ok=ok,
        failure=failure,
        counterexample_g6=None if ok else to_graph6(g),
    )


@dataclass(frozen=True)
class MeanCheckReport:
    """Per-graph result for the 2rm/n bound on the best greedy sequence."""

    n: int
    m: int
    r: int
    best_first_r_sum: Optional[int]
    min_first_r_sum: Optional[int]  # per-branch statistic, not asserted
    regular: bool
    strict_required: bool
    ok: bool
    failure: Optional[str]
    witness: Optional[tuple[int, ...]]
    counterexample_g6: Optional[str]


def check_mean_bound(g: Graph, r: int) -> MeanCheckReport:
    """Check that the best first-r degree sum X over all tie branches satisfies
    X*n >= 2rm, strictly when the graph is not regular.  Integer arithmetic only.
    When it passes, the witness is the least set with sum X in falling degree
    order, ties by lowest index."""
    _require_threshold(g, r)
    degs = g.degrees()
    _, min_sum, max_sum, best = _prefix_search(g.adj, degs, r)
    regular = min(degs) == max(degs)
    failure = _mean_failure(g.n, g.m, r, regular, max_sum)
    ok = failure is None
    witness = None
    if ok:
        # That order is a run.  A run's degrees never rise, and if some run
        # reaches a set S, so does every order of S by falling degree: after
        # any such prefix, the candidates lie inside those left after S's
        # higher-degree vertices, whose top degree is the next degree in S.
        # Unwinding S by its highest-index vertex of least degree gives it.
        witness = tuple(sorted(_bits(best), key=lambda v: (-degs[v], v)))
    return MeanCheckReport(
        n=g.n,
        m=g.m,
        r=r,
        best_first_r_sum=max_sum,
        min_first_r_sum=min_sum,
        regular=regular,
        strict_required=not regular,
        ok=ok,
        failure=failure,
        witness=witness,
        counterexample_g6=None if ok else to_graph6(g),
    )

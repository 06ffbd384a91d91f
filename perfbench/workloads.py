"""The three benchmark workloads: inputs from a seed, one job, and its checks.

A job is the unit the run loop times and repeats:

* ``exact-scan``: n = 7 exhaustive windows around t(r, 7) for r = 2, 3, 4,
  one canonical-mode window, then ``verify_all(7, {3, 4, 5})``;
* ``query-mix``: one pass over 1006 graph6 requests answered one at a time;
* ``local-search``: the steepest-descent bound at m = t(r, n) for
  n = 12..16 and r = 3, 4.

Every operation (a scan cell, the verify sweep, a request, a search cell) is
timed on its own around the library call only.  The checks run after the
timing stops and use ``oracle``, never the library.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, replace

import oracle

BRANCH_CAP = 256  # all_greedy_sequences cap on query-mix
SAMPLE_EVERY = 8  # every 8th fresh request of a pass is checked against the oracle


PROBE_REF_S = 1.5e-3  # probe time of the host speed that reported times are scaled to


def _probe_loop() -> int:
    acc = 0
    for i in range(1, 12000):
        b = i & -i
        acc += b.bit_length() + (i >> 3 & 7)
    return acc


def host_slowness() -> float:
    """How slow the host runs right now: the best of five probe runs over PROBE_REF_S.

    On a shared host the speed drifts (by up to 40% over minutes on a
    2-vCPU cloud VM).  Dividing an operation's time by the slowness
    around it cancels that drift, so runs made at different times compare.
    """
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        _probe_loop()
        best = min(best, time.perf_counter() - t0)
    return best / PROBE_REF_S


class Clock:
    """Times operations one by one and samples host slowness between stretches of them."""

    def __init__(self):
        self.op_seconds: list[float] = []
        self.op_slowness: list[float] = []
        self._last = host_slowness()

    def time(self, call):
        """(result, exception) of one library call; an exception is counted, not raised."""
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:
            self.op_seconds.append(time.perf_counter() - t0)
            return None, exc
        self.op_seconds.append(time.perf_counter() - t0)
        return result, None

    def mark(self) -> None:
        """Close a stretch: its operations get the mean slowness at its two ends."""
        now = host_slowness()
        stretch = len(self.op_seconds) - len(self.op_slowness)
        self.op_slowness.extend([(self._last + now) / 2] * stretch)
        self._last = now


@dataclass
class JobResult:
    op_seconds: list[float]  # wall time of each operation
    op_slowness: list[float]  # host slowness around each operation
    failures: list[str]  # one entry per failed operation

    @property
    def seconds(self) -> float:
        return sum(self.op_seconds)


# ---------------------------------------------------------------------------
# warm-up: every entry point once on tiny inputs, none of them a job input

WARMUP_LS_CELL = (8, oracle.turan_size(3, 8), 3)


def warm_up(cd) -> int:
    """Call every entry point the workloads use; returns the warm-up cell's bound."""
    small = oracle.encode_graph6(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    g = cd.from_graph6(small)
    cd.max_clique_degree_sum(g, 3)
    cd.greedy_sequence(g)
    cd.all_greedy_sequences(g, branch_cap=BRANCH_CAP)
    dense_edges = [(u, v) for u in range(6) for v in range(u + 1, 6) if (u + v) % 5]
    dense = cd.from_graph6(oracle.encode_graph6(6, dense_edges))
    cd.check_floor_bound(dense, 3)
    cd.check_mean_bound(dense, 3)
    cd.scan_m(5, 2, 6, 6)
    cd.scan_m(5, 3, 6, 7)
    cd.scan_m(5, 3, 7, 7, mode="canonical")
    cd.verify_all(4, (3,))
    n, m, r = WARMUP_LS_CELL
    return cd.extremal_degree_sum_local_search(n, m, r, seed=0, restarts=0).delta_min


# ---------------------------------------------------------------------------
# exact-scan

SCAN_N = 7
# (r, m values, mode): windows around t(2,7) = 12, t(3,7) = 16 and t(4,7) = 18.
# Each cell is its own scan_m call, so every timed operation stays short.
SCAN_WINDOWS = (
    (2, (12,), "exhaustive"),
    (3, (15, 16, 17), "exhaustive"),
    (4, (17, 18, 19), "exhaustive"),
    (4, (18, 19), "canonical"),
)
SCAN_OPS = (
    *(("scan", r, m, mode) for r, ms, mode in SCAN_WINDOWS for m in ms),
    ("verify", (3, 4, 5)),
)


class ExactScan:
    """A fixed desk-scale job; the seed only orders its operations."""

    def __init__(self, seed: int):
        self.ops = list(SCAN_OPS)
        random.Random(seed).shuffle(self.ops)
        # verify_all checks each graph once per r it reaches: r <= n and t(r, n) <= m
        self.verify_examined = sum(
            math.comb(n * (n - 1) // 2, m)
            * sum(1 for r in (3, 4, 5) if r <= n and oracle.turan_size(r, n) <= m)
            for n in range(2, SCAN_N + 1)
            for m in range(n * (n - 1) // 2 + 1)
        )
        self.bounds: dict[tuple[int, int, int], int] = {}

    def job(self, cd, index: int) -> JobResult:
        clock = Clock()
        failures = []
        by_cell: dict[tuple[int, int, str], object] = {}
        for op in self.ops:
            if op[0] == "verify":
                report, exc = clock.time(lambda: cd.verify_all(SCAN_N, op[1]))
                clock.mark()
                problem = repr(exc) if exc else self._verify_problem(report)
            else:
                _, r, m, mode = op
                recs, exc = clock.time(lambda: cd.scan_m(SCAN_N, r, m, m, mode=mode, workers=1))
                clock.mark()
                problem = repr(exc) if exc else self._scan_problem(recs, r, m, mode)
                for rec in recs or ():
                    by_cell[(rec.r, rec.m, rec.mode)] = rec
            if problem:
                failures.append(f"{op}: {problem}")
        for (r, m, mode), rec in by_cell.items():
            twin = by_cell.get((r, m, "exhaustive"))
            if mode == "canonical" and twin is not None and (
                (rec.delta_min, rec.witness_g6) != (twin.delta_min, twin.witness_g6)
            ):
                failures.append(f"canonical r={r} m={m} disagrees with exhaustive")
        return JobResult(clock.op_seconds, clock.op_slowness, failures)

    def _scan_problem(self, recs, r, m, mode) -> str | None:
        if [(x.n, x.r, x.m, x.mode) for x in recs] != [(SCAN_N, r, m, mode)]:
            return "records do not match the requested cell"
        rec = recs[0]
        if rec.graphs_examined != math.comb(SCAN_N * (SCAN_N - 1) // 2, m):
            return f"examined {rec.graphs_examined} graphs"
        nbrs = oracle.decode_graph6(rec.witness_g6)
        if len(nbrs) != SCAN_N or oracle.edge_count(nbrs) != m:
            return f"witness is not a ({SCAN_N}, {m}) graph"
        if oracle.max_clique_degree_sum(nbrs, r) != rec.delta_min:
            return f"witness does not attain delta_min={rec.delta_min}"
        if m >= oracle.turan_size(r, SCAN_N):
            lo, value = 2 * r * m, rec.delta_min * SCAN_N
            if not lo <= value < lo + r * SCAN_N:
                return f"delta_min={rec.delta_min} outside the two-sided band"
        return None

    def _verify_problem(self, report) -> str | None:
        if report.violations or report.counterexamples:
            return f"{report.violations} violations, first {report.counterexamples[:1]}"
        if report.graphs_examined != self.verify_examined:
            return f"examined {report.graphs_examined}, expected {self.verify_examined}"
        return None


# ---------------------------------------------------------------------------
# local-search

LS_CELLS = tuple((n, r) for n in range(12, 17) for r in (3, 4))


class LocalSearch:
    """Steepest descent from the near-regular start (no random restarts, search
    seed 0) at m = t(r, n); the benchmark seed only orders the cells."""

    def __init__(self, seed: int):
        self.cells = [(n, oracle.turan_size(r, n), r) for n, r in LS_CELLS]
        random.Random(seed).shuffle(self.cells)
        self.bounds: dict[tuple[int, int, int], int] = {}

    def job(self, cd, index: int) -> JobResult:
        clock = Clock()
        failures = []
        for n, m, r in self.cells:
            rec, exc = clock.time(
                lambda: cd.extremal_degree_sum_local_search(n, m, r, seed=0, restarts=0)
            )
            clock.mark()
            problem = repr(exc) if exc else self._problem(rec, n, m, r)
            if problem:
                failures.append(f"n={n} m={m} r={r}: {problem}")
        return JobResult(clock.op_seconds, clock.op_slowness, failures)

    def _problem(self, rec, n, m, r) -> str | None:
        if (rec.n, rec.m, rec.r) != (n, m, r):
            return "record is for another cell"
        nbrs = oracle.decode_graph6(rec.witness_g6)
        if len(nbrs) != n or oracle.edge_count(nbrs) != m:
            return "witness is not an (n, m) graph"
        if oracle.max_clique_degree_sum(nbrs, r) != rec.delta_min:
            return f"witness does not attain delta_min={rec.delta_min}"
        if rec.delta_min * n < 2 * r * m:
            return f"bound {rec.delta_min} below 2rm/n, impossible at m = t(r, n)"
        if self.bounds.setdefault((n, m, r), rec.delta_min) != rec.delta_min:
            return "bound differs from an earlier job with the same inputs"
        return None


# ---------------------------------------------------------------------------
# query-mix

QM_NS = (8, 16, 24, 32, 40)
QM_DENSITIES = (0.3, 0.45, 0.6, 0.7, 0.8)
QM_RS = (2, 3, 4, 5)
QM_BLOCKS = 4  # 1006 requests a pass, so p99 has ten requests above it
QM_MALFORMED = 14  # per block
QM_STRETCH = 25  # requests between two host-speed samples


@dataclass
class Request:
    kind: str  # "delta", "greedy" or "check"
    g6: str
    r: int
    tag: str  # "fresh", "repeat" or "malformed"
    source: int = -1  # stream position of the original, for repeats
    how: int = -1  # malformation kind, for malformed requests
    base: str = ""  # the well-formed graph6 a malformed request was cut from


def _random_graph(rng: random.Random, n: int, m: int) -> str:
    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return oracle.encode_graph6(n, rng.sample(slots, m))


def _relabel(rng: random.Random, g6: str) -> str:
    nbrs = oracle.decode_graph6(g6)
    n = len(nbrs)
    perm = list(range(n))
    rng.shuffle(perm)
    return oracle.encode_graph6(n, [(perm[u], perm[v]) for u in range(n) for v in nbrs[u] if u < v])


def _malform(rng: random.Random, g6: str, how: int) -> str:
    body = g6[1:]
    if how == 0:  # truncated bit field
        return g6[:-1]
    if how == 1:  # trailing byte
        return g6 + "?"
    if how == 2:  # byte outside 63..126
        k = rng.randrange(len(body))
        return g6[0] + body[:k] + " " + body[k + 1:]
    n = ord(g6[0]) - 63  # wrong size header for the body length
    return chr(63 + n + 1) + body


def make_block(rng: random.Random, index: int) -> list[Request]:
    """One block: the 190 fresh templates, a quarter of them repeated, 14 malformed.

    Fresh requests cover a fixed grid so every block has the same mix:
    delta on r x n x density, greedy on n x density (twice), check on
    r x n at m = t(r, n) and 10% of the way from t(r, n) to complete.
    Block ``index`` repeats the templates numbered ``index`` mod 4, so a
    pass of four blocks repeats each template exactly once, each repeat
    somewhere after its original.
    """
    fresh: list[Request] = []
    for r in QM_RS:
        for n in QM_NS:
            for p in QM_DENSITIES:
                g6 = _random_graph(rng, n, round(p * n * (n - 1) / 2))
                fresh.append(Request("delta", g6, r, "fresh"))
    for _ in range(2):
        for n in QM_NS:
            for p in QM_DENSITIES:
                g6 = _random_graph(rng, n, round(p * n * (n - 1) / 2))
                fresh.append(Request("greedy", g6, 0, "fresh"))
    for r in QM_RS:
        for n in QM_NS:
            t = oracle.turan_size(r, n)
            for extra in (0.0, 0.1):
                m = t + round(extra * (n * (n - 1) // 2 - t))
                fresh.append(Request("check", _random_graph(rng, n, m), r, "fresh"))
    repeated = fresh[index % QM_BLOCKS::QM_BLOCKS]
    bad = []
    for k, src in enumerate(rng.sample(fresh, QM_MALFORMED)):
        how = k % 4
        bad.append(Request(src.kind, _malform(rng, src.g6, how), src.r, "malformed", how=how, base=src.g6))
    block = fresh + bad
    rng.shuffle(block)
    for original in repeated:
        src = next(i for i, q in enumerate(block) if q is original)
        at = rng.randint(src + 1, len(block))
        block.insert(at, Request(original.kind, original.g6, original.r, "repeat", src))
        for q in block[at + 1:]:
            if q.source >= at:
                q.source += 1
    return block


def make_stream(seed: int) -> list[Request]:
    """QM_BLOCKS blocks back to back; repeats point into their own block."""
    rng = random.Random(f"query-mix/{seed}")
    stream: list[Request] = []
    for index in range(QM_BLOCKS):
        block = make_block(rng, index)
        for q in block:
            if q.tag == "repeat":
                q.source += len(stream)
        stream.extend(block)
    return stream


def relabeled(stream: list[Request], rng: random.Random) -> list[Request]:
    """The same stream with every graph's vertices renumbered at random.

    Costs stay put (the graphs are isomorphic) while every graph6 string
    changes, so no request of one pass repeats a request of another.
    """
    out: list[Request] = []
    for q in stream:
        if q.tag == "repeat":
            out.append(replace(q, g6=out[q.source].g6))
        elif q.tag == "malformed":
            base = _relabel(rng, q.base)
            out.append(replace(q, g6=_malform(rng, base, q.how), base=base))
        else:
            out.append(replace(q, g6=_relabel(rng, q.g6)))
    return out


def serve(cd, q: Request):
    """Answer one request the way a server would: decode, then compute."""
    g = cd.from_graph6(q.g6)
    if q.kind == "delta":
        return cd.max_clique_degree_sum(g, q.r)
    if q.kind == "greedy":
        seq = cd.greedy_sequence(g)
        try:
            runs = cd.all_greedy_sequences(g, branch_cap=BRANCH_CAP)
        except cd.ResourceLimitError:
            runs = None
        return seq, runs
    return cd.check_floor_bound(g, q.r), cd.check_mean_bound(g, q.r)


class QueryMix:
    """Closed loop, one client, no think time.

    A job is one pass over the seeded stream.  Pass 0 sends it as
    generated, later passes send it with every graph relabeled.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.stream = make_stream(seed)
        self.bounds: dict[tuple[int, int, int], int] = {}
        self.requests = self.repeats = self.malformed = 0

    def job(self, cd, index: int) -> JobResult:
        stream = self.stream
        if index:
            stream = relabeled(stream, random.Random(f"query-mix/{self.seed}/pass/{index}"))
        clock = Clock()
        failures = []
        answers = []
        for pos, q in enumerate(stream, start=1):
            answer, exc = clock.time(lambda: serve(cd, q))
            answers.append(exc if exc else answer)
            if pos % QM_STRETCH == 0 or pos == len(stream):
                clock.mark()
        sampled = 0
        for pos, (q, answer) in enumerate(zip(stream, answers)):
            if q.tag == "fresh":
                sampled += 1
            problem = self._problem(cd, q, answer, answers, sampled % SAMPLE_EVERY == 1)
            if problem:
                failures.append(f"pass {index} request {pos} ({q.kind} {q.tag}): {problem}")
        self.requests += len(stream)
        self.repeats += sum(q.tag == "repeat" for q in stream)
        self.malformed += sum(q.tag == "malformed" for q in stream)
        return JobResult(clock.op_seconds, clock.op_slowness, failures)

    def _problem(self, cd, q, answer, answers, sample) -> str | None:
        if q.tag == "malformed":
            if isinstance(answer, cd.Graph6ParseError):
                return None
            return f"malformed graph6 {q.g6!r} not rejected: {answer!r}"
        if isinstance(answer, Exception):
            return repr(answer)
        if q.tag == "repeat":
            same = _summary(answer) == _summary(answers[q.source])
            return None if same else "repeat answered differently"
        nbrs = oracle.decode_graph6(q.g6)
        if q.kind == "delta":
            return _delta_problem(nbrs, q.r, answer, sample)
        if q.kind == "greedy":
            return _greedy_problem(nbrs, answer, sample)
        return _check_problem(nbrs, q.r, answer, sample)


def _summary(answer):
    if isinstance(answer, tuple):
        return tuple(_summary(a) for a in answer)
    if isinstance(answer, list):
        return tuple(_summary(a) for a in answer)
    return answer


def _delta_problem(nbrs, r, res, sample) -> str | None:
    if res.r != r:
        return "answer is for another r"
    if res.witness is None:
        if res.value != 0:
            return "nonzero value without a witness"
    else:
        members = list(res.witness)
        if len(members) != r or not oracle.is_clique(nbrs, members):
            return f"witness {members} is not an {r}-clique"
        if sum(len(nbrs[v]) for v in members) != res.value:
            return "witness degree sum differs from the value"
    if sample and oracle.max_clique_degree_sum(nbrs, r) != res.value:
        return "value differs from the oracle"
    return None


def _greedy_problem(nbrs, answer, sample) -> str | None:
    seq, runs = answer
    problem = oracle.greedy_error(nbrs, seq.vertices, seq.degree_sums, lowest_index=True)
    if problem:
        return f"lowest-index run: {problem}"
    if runs is not None:
        keys = [s.vertices for s in runs]
        if keys != sorted(set(keys)) or seq.vertices not in keys:
            return "branch list is not sorted, distinct and inclusive of the lowest-index run"
        for s in runs:
            problem = oracle.greedy_error(nbrs, s.vertices, s.degree_sums, lowest_index=False)
            if problem:
                return f"branch {s.vertices}: {problem}"
    if sample:
        expect = oracle.all_greedy_runs(nbrs, BRANCH_CAP)
        if expect != (None if runs is None else [s.vertices for s in runs]):
            return "branch set differs from the oracle"
    return None


def _check_problem(nbrs, r, answer, sample) -> str | None:
    floor, mean = answer
    n, m = len(nbrs), oracle.edge_count(nbrs)
    if not (floor.ok and mean.ok):
        return f"bound reported violated: {floor.failure or mean.failure}"
    expect = (n, m, r, oracle.turan_size(r, n), (r - 1) * n)
    if (floor.n, floor.m, floor.r, floor.threshold, floor.floor) != expect:
        return "floor report describes another input"
    if floor.min_first_r_sum is None or floor.min_first_r_sum < (r - 1) * n:
        return "floor report below (r-1)n"
    best = mean.best_first_r_sum
    if mean.witness is None or len(mean.witness) != r:
        return "mean report has no r-vertex witness"
    problem = oracle.greedy_error(nbrs, mean.witness, None, lowest_index=False, complete=False)
    if problem:
        return f"mean witness: {problem}"
    if sum(len(nbrs[v]) for v in mean.witness) != best:
        return "mean witness does not sum to the best first-r sum"
    regular = len({len(s) for s in nbrs}) == 1
    if best * n < 2 * r * m or (not regular and best * n == 2 * r * m):
        return "best first-r sum misses 2rm/n"
    if sample:
        expect = oracle.greedy_prefix_extremes(nbrs, r)
        if expect != (None, floor.min_first_r_sum, floor.max_first_r_sum) or expect[2] != best:
            return "prefix extremes differ from the oracle"
    return None


WORKLOADS = {"exact-scan": ExactScan, "query-mix": QueryMix, "local-search": LocalSearch}

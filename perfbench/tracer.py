"""Spans around the library's layer boundaries, recorded from outside the library.

Each entry point is wrapped where its caller looks it up: the package
namespace for calls the benchmark makes, and the calling module's global
for calls one library module makes into another (``extremal`` binds
``max_degree_sum_value`` and ``greedy_prefix_extremes`` at import).
``Tracer.installed()`` swaps the wrappers in and puts the originals back
on exit, so the library's source is never touched.

A span is (name, parent, start, end) in memory, written out by ``dump``.
Self time is a span's duration minus the time of its child spans and is
kept per span name as spans close.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from array import array
from pathlib import Path

_now = time.perf_counter_ns
_END = object()  # sentinel for an exhausted generator


def _exact_mode(args, kwargs) -> str:
    mode = kwargs.get("mode", args[3] if len(args) > 3 else "exhaustive")
    return "extremal.canonical" if mode == "canonical" else "extremal.exhaustive"


def _kernel_outcome(tracer, result, exc):
    if exc is None and result is None:
        tracer.bump("cliques.kernel_aborts")


def _branches_outcome(tracer, result, exc):
    if exc is not None:
        tracer.bump("greedy.branch_cap_hits")


def _exact_outcome(tracer, result, exc):
    if exc is None:
        tracer.bump("extremal.graphs_examined", result.graphs_examined)


def _ls_outcome(tracer, result, exc):
    if exc is None:
        tracer.bump("extremal.ls_evals", result.graphs_examined)


# (module the caller looks the name up in, attribute, span name or naming function,
#  generator?, hook that counts outcomes from the result or exception)
ENTRY_POINTS = (
    ("cliquedeg", "from_graph6", "graph6.decode", False, None),
    ("cliquedeg", "max_clique_degree_sum", "cliques.delta", False, None),
    ("cliquedeg.cliques", "enumerate_r_cliques", "cliques.enum", True, None),
    ("cliquedeg.extremal", "max_degree_sum_value", "cliques.kernel", False, _kernel_outcome),
    ("cliquedeg", "greedy_sequence", "greedy.sequence", False, None),
    ("cliquedeg", "all_greedy_sequences", "greedy.branches", False, _branches_outcome),
    ("cliquedeg", "check_floor_bound", "greedy.check", False, None),
    ("cliquedeg", "check_mean_bound", "greedy.check", False, None),
    ("cliquedeg.greedy", "greedy_prefix_extremes", "greedy.prefix", False, None),
    ("cliquedeg.extremal", "greedy_prefix_extremes", "greedy.prefix", False, None),
    ("cliquedeg", "scan_m", "extremal.scan", False, None),
    ("cliquedeg.extremal", "extremal_degree_sum_min", _exact_mode, False, _exact_outcome),
    ("cliquedeg", "verify_all", "extremal.verify", False, None),
    ("cliquedeg", "extremal_degree_sum_local_search", "extremal.ls", False, _ls_outcome),
)


class Tracer:
    """In-memory span store with per-name call counts and self times."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[list[int]] = []  # [span index, child nanoseconds]
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.root_ns = 0  # time covered by spans without a parent
        self.t0 = _now()

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.self_ns[name] = 0
        return nid

    def bump(self, counter: str, by: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + by

    def _open(self, nid: int, t: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.start.append(t)
        self.end.append(t)
        return idx

    def _close(self, idx: int, child_ns: int, dur: int, t_end: int) -> None:
        """Account ``dur`` ns of work, ``child_ns`` of it in child spans, to span ``idx``."""
        self.end[idx] = t_end
        name = self.names[self.name[idx]]
        self.self_ns[name] += dur - child_ns
        if self._stack:
            self._stack[-1][1] += dur
        else:
            self.root_ns += dur

    def wrap(self, fn, span, outcome=None):
        naming = span if callable(span) else None

        def traced(*args, **kwargs):
            nid = self._id(naming(args, kwargs) if naming else span)
            self.calls[self.names[nid]] += 1
            t0 = _now()
            idx = self._open(nid, t0)
            frame = [idx, 0]
            self._stack.append(frame)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = _now()
                self._stack.pop()
                self._close(idx, frame[1], t1 - t0, t1)
                if outcome is not None:
                    outcome(self, result, exc)

        return traced

    def wrap_generator(self, fn, span):
        """One span per generator, busy only while the consumer pulls from it.

        Nothing traced runs inside a pull, so pulls are timed inline and the
        span is closed once, with its busy time, when the generator ends.
        """
        counter = span + ".yields"

        def traced(*args, **kwargs):
            nid = self._id(span)
            self.calls[span] += 1
            inner = fn(*args, **kwargs)
            idx = self._open(nid, _now())
            busy = pulls = 0
            now = _now
            try:
                while True:
                    t0 = now()
                    item = next(inner, _END)
                    busy += now() - t0
                    if item is _END:
                        return
                    pulls += 1
                    yield item
            finally:
                self.bump(counter, pulls)
                self._close(idx, 0, busy, _now())

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every entry point for its traced wrapper; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, span, generator, outcome in ENTRY_POINTS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                if generator:
                    setattr(module, attr, self.wrap_generator(original, span))
                else:
                    setattr(module, attr, self.wrap(original, span, outcome))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def dump(self, path: Path) -> None:
        """Write every span as tab-separated name, parent index, start and end (ns)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            out.write("name\tparent\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(len(self.start)):
                out.write(
                    f"{names[self.name[i]]}\t{self.parent[i]}\t"
                    f"{self.start[i] - self.t0}\t{self.end[i] - self.t0}\n"
                )

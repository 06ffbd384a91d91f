"""Benchmark entry point: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process and one thread against the library in
``src/`` of the checkout that holds this file.  Prints an information
line, then as the last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (from wrapped entry points) with
``--trace 1``.  Exits nonzero without a result when the library is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5


def import_library():
    """Import cliquedeg from this checkout's src/ only, never from site-packages."""
    if not (SRC / "cliquedeg" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library at {SRC / 'cliquedeg'}")
    sys.path.insert(0, str(SRC))
    import cliquedeg

    if Path(cliquedeg.__file__).resolve().parent != SRC / "cliquedeg":
        sys.exit(f"perfbench: imported cliquedeg from {cliquedeg.__file__}")
    return cliquedeg


def setup_probe() -> None:
    """Child-process body: time a fresh import plus the warm-up, print seconds and slowness."""
    import workloads

    before = workloads.host_slowness()
    t0 = time.perf_counter()
    cd = import_library()
    workloads.warm_up(cd)
    seconds = time.perf_counter() - t0
    slowness = (before + workloads.host_slowness()) / 2
    print(json.dumps({"seconds": seconds, "slowness": slowness}))


def measure_setup() -> tuple[float, float]:
    """Median set-up time over fresh interpreters (import + warm-up): scaled, raw."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        child = subprocess.run(
            [sys.executable, __file__, "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(child.stdout.strip().splitlines()[-1]))
    return (
        statistics.median(x["seconds"] / x["slowness"] for x in samples),
        statistics.median(x["seconds"] for x in samples),
    )


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cliquedeg").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit_id() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def scaled(res) -> list[float]:
    """Operation times divided by the host slowness around them."""
    return [t / slow for t, slow in zip(res.op_seconds, res.op_slowness)]


def layer_metrics(tracer, traced_jobs: int, overhead: float, unaccounted_ns: int) -> dict:
    """Per-layer figures per traced job (the warm-up's share included), in raw seconds."""
    jobs = max(traced_jobs, 1)
    calls, self_ns, counters = tracer.calls, tracer.self_ns, tracer.counters

    def count(name):
        return calls.get(name, 0) / jobs

    def secs(*names):
        return sum(self_ns.get(n, 0) for n in names) / jobs / 1e9

    kernel_calls = max(calls.get("cliques.kernel", 0), 1)
    values = {
        "graph6.decode_calls": (count("graph6.decode"), "count"),
        "graph6.decode_s": (secs("graph6.decode"), "s"),
        "cliques.enum_calls": (count("cliques.enum"), "count"),
        "cliques.enum_s": (secs("cliques.enum"), "s"),
        "cliques.cliques_seen": (counters.get("cliques.enum.yields", 0) / jobs, "count"),
        "cliques.delta_self_s": (secs("cliques.delta"), "s"),
        "cliques.kernel_calls": (count("cliques.kernel"), "count"),
        "cliques.kernel_s": (secs("cliques.kernel"), "s"),
        "cliques.kernel_abort_ratio": (counters.get("cliques.kernel_aborts", 0) / kernel_calls, "ratio"),
        "greedy.prefix_calls": (count("greedy.prefix"), "count"),
        "greedy.prefix_s": (secs("greedy.prefix"), "s"),
        "greedy.branches_calls": (count("greedy.branches"), "count"),
        "greedy.branches_s": (secs("greedy.branches"), "s"),
        "greedy.branch_cap_hits": (counters.get("greedy.branch_cap_hits", 0) / jobs, "count"),
        "greedy.check_self_s": (secs("greedy.check"), "s"),
        "extremal.exhaustive_self_s": (secs("extremal.exhaustive", "extremal.scan"), "s"),
        "extremal.canonical_self_s": (secs("extremal.canonical"), "s"),
        "extremal.graphs_examined": (counters.get("extremal.graphs_examined", 0) / jobs, "count"),
        "extremal.verify_self_s": (secs("extremal.verify"), "s"),
        "extremal.ls_self_s": (secs("extremal.ls"), "s"),
        "extremal.ls_evals": (counters.get("extremal.ls_evals", 0) / jobs, "count"),
        "bench.trace_overhead": (overhead, "ratio"),
        "bench.unaccounted_s": (unaccounted_ns / jobs / 1e9, "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.setup_probe:
        setup_probe()
        return 0
    cd = import_library()
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    setup_s, raw_setup_s = measure_setup()

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        with tracer.installed():
            warm_bound = workloads.warm_up(cd)
    else:
        warm_bound = workloads.warm_up(cd)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    gc.collect()
    gc.freeze()

    # Jobs run back to back until the next one would overrun --seconds of wall
    # time.  A traced run alternates untraced and traced jobs to measure the
    # tracing overhead.
    untraced: list[workloads.JobResult] = []
    traced: list[workloads.JobResult] = []
    failures: list[str] = []
    attempted = 0
    unaccounted_ns = 0
    index = 0
    start = time.perf_counter()
    while True:
        if tracer is not None and index % 2 == 1:
            root_before = tracer.root_ns
            with tracer.installed():
                res = workload.job(cd, index)
            unaccounted_ns += round(res.seconds * 1e9) - (tracer.root_ns - root_before)
            traced.append(res)
        else:
            res = workload.job(cd, index)
            untraced.append(res)
        attempted += len(res.op_seconds)
        failures.extend(res.failures)
        index += 1
        elapsed = time.perf_counter() - start
        if (tracer is None or traced) and elapsed + elapsed / index > args.seconds:
            break

    # Every job repeats the same operations (query-mix: relabeled).  Each
    # operation's time is divided by the host slowness around it, and its
    # median over the run's untraced repetitions is kept.
    op_s = [statistics.median(t) for t in zip(*(scaled(res) for res in untraced))]
    raw_op_s = [statistics.median(t) for t in zip(*(res.op_seconds for res in untraced))]
    cuts = statistics.quantiles(op_s, n=100, method="inclusive")
    raw_cuts = statistics.quantiles(raw_op_s, n=100, method="inclusive")
    failed = min(len(failures), attempted)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": index,
        "job_seconds": [res.seconds for res in untraced],
        "host_slowness": statistics.median(x for res in untraced for x in res.op_slowness),
        "raw": {
            "setup_s": raw_setup_s,
            "job_s": sum(raw_op_s),
            "query_p50_ms": raw_cuts[49] * 1e3,
            "query_p99_ms": raw_cuts[98] * 1e3,
        },
        "operations": attempted,
        "failed_frac": {"value": failed / attempted, "unit": "ratio"},
        "first_failures": failures[:5],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit_id(),
        "source_sha256": source_digest(),
    }
    if args.workload == "query-mix":
        info["repeat_share"] = workload.repeats / workload.requests
        info["malformed_share"] = workload.malformed / workload.requests
    if tracer:
        span_file = OUT / f"spans-{args.workload}.tsv"
        tracer.dump(span_file)
        info["span_file"] = str(span_file.relative_to(ROOT))
        metrics = layer_metrics(
            tracer, len(traced),
            statistics.median(sum(scaled(res)) for res in traced)
            / statistics.median(sum(scaled(res)) for res in untraced),
            unaccounted_ns,
        )
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "job_s": {"value": sum(op_s), "unit": "s"},
            "queries_per_s": {"value": len(op_s) / sum(op_s), "unit": "1/s"},
            "query_p50_ms": {"value": cuts[49] * 1e3, "unit": "ms"},
            "query_p99_ms": {"value": cuts[98] * 1e3, "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"
            },
            "ls_bound_sum": {
                "value": warm_bound + sum(workload.bounds.values()), "unit": "count"
            },
        }
    print(json.dumps({"info": info}))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

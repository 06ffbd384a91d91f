"""Command-line front end.

Exit codes: 0 success, 1 usage/parse/resource errors, 2 when a checked
bound is violated (the report then carries a graph6 witness).  Output
is deterministic for a fixed config including the seed, and every
report carries the tool version plus the fully resolved config.  Each
``_cmd_*`` handler computes its result once and hands its JSON, CSV and
text renderings to ``_report``, the one report writer: it alone reads
``--format``, builds the header and writes to stdout or ``--out``.  The
library returns dataclasses only; this module is the one that knows an
output format, and each handler holds all three shapes of its result.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .extremal import (
    EXACT_MODES,
    MODES,
    StabilityParams,
    band_violation,
    scan_m,
    stability_experiment,
    verify_all,
)
from .graph6 import _INTEGER, Graph6ParseError, load_graph_text
from .graphs import ResourceLimitError
from .greedy import DEFAULT_BRANCH_CAP, all_greedy_sequences, greedy_sequence
from .cliques import max_clique_degree_sum
from .turan import turan_decomposition

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2

# --epsilon is an ASCII fraction or decimal, read only up to this length, so that
# no big-int work on epsilon or delta = epsilon^2/32 runs before it is refused
MAX_EPSILON_CHARS = 64
_EPSILON = re.compile(r"[0-9]+(/[0-9]+)?|[0-9]*\.[0-9]+")


def integer(text: str) -> int:
    """Every CLI integer, each flag's and each ``verify --r`` token, is ASCII
    ``-?[0-9]+``, as an edge-list field is."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"invalid integer value: {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliquedeg",
        description="Clique degree sums: greedy construction, exact extremal scans, "
        "and balanced multipartite graph arithmetic.",
    )
    parser.add_argument("--version", action="version", version=f"cliquedeg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p):
        p.add_argument("--format", choices=["json", "csv", "text"], default="text")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    def add_search_flags(p):
        p.add_argument("--mode", choices=list(MODES), default="exhaustive")
        p.add_argument("--seed", type=integer, default=0)
        p.add_argument("--restarts", type=integer, default=4)
        p.add_argument("--iter-budget", type=integer, default=200)
        p.add_argument("--workers", type=integer, default=1)

    p = sub.add_parser("turan", help="balanced r-partite part sizes and edge count")
    p.add_argument("--r", type=integer, required=True)
    p.add_argument("--n", type=integer, required=True)
    add_output_flags(p)

    p = sub.add_parser("greedy", help="run the greedy clique construction on a graph file")
    p.add_argument("--input", required=True, help="graph6 or edge-list file")
    p.add_argument("--all-branches", action="store_true", help="enumerate every tie branch")
    p.add_argument("--branch-cap", type=integer, default=DEFAULT_BRANCH_CAP)
    add_output_flags(p)

    p = sub.add_parser("delta", help="max degree sum over r-cliques of a graph file")
    p.add_argument("--input", required=True)
    p.add_argument("--r", type=integer, required=True)
    add_output_flags(p)

    p = sub.add_parser("extremal", help="minimum over all (n,m)-graphs of the max r-clique degree sum")
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--m", type=integer, required=True)
    p.add_argument("--r", type=integer, required=True)
    add_search_flags(p)
    add_output_flags(p)

    p = sub.add_parser("scan", help="one extremal record per edge count in a range")
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--r", type=integer, required=True)
    p.add_argument("--m-from", type=integer, required=True)
    p.add_argument("--m-to", type=integer, required=True)
    add_search_flags(p)
    add_output_flags(p)

    p = sub.add_parser("stability", help="ratio table over the window just below the threshold")
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--r", type=integer, required=True)
    p.add_argument("--epsilon", required=True, help="ASCII fraction or decimal, e.g. 1/4")
    add_search_flags(p)
    add_output_flags(p)

    p = sub.add_parser("verify", help="exhaustive greedy and band checks over all small graphs")
    p.add_argument("--n-max", type=integer, required=True)
    p.add_argument("--r", required=True, help="comma-separated clique sizes, e.g. 2,3")
    p.add_argument("--mode", choices=EXACT_MODES, default="exhaustive")
    add_output_flags(p)

    return parser


def _resolved_config(args: argparse.Namespace) -> dict:
    return {k: v for k, v in sorted(vars(args).items())}


def _report(args: argparse.Namespace, result, csv_body, text_lines) -> None:
    """The one report writer: build only the rendering ``--format`` asks for
    (each argument is a zero-argument callable giving the JSON result, the
    CSV body or the text lines), head it with the version and resolved config,
    and write it to stdout or ``--out``."""
    config = _resolved_config(args)
    compact = json.dumps(config, sort_keys=True, separators=(",", ":"))
    if args.format == "json":
        envelope = {
            "tool": "cliquedeg", "version": __version__, "config": config, "result": result(),
        }
        report = json.dumps(envelope, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        report = f"# cliquedeg {__version__} config={compact}\n" + csv_body()
    else:
        report = "\n".join([f"cliquedeg {__version__} | {compact}"] + text_lines()) + "\n"
    if args.out is None:
        sys.stdout.write(report)
    else:
        Path(args.out).write_text(report, encoding="utf-8")


def _cmd_turan(args) -> int:
    dec = turan_decomposition(args.r, args.n)
    _report(
        args,
        lambda: {"r": dec.r, "n": dec.n, "t": dec.t, "parts": list(dec.parts), "s": dec.s},
        lambda: f"r,n,t,s,parts\n{dec.r},{dec.n},{dec.t},{dec.s},"
        f"{' '.join(map(str, dec.parts))}\n",
        lambda: [f"t={dec.t} parts=[{','.join(map(str, dec.parts))}]"],
    )
    return EXIT_OK


def _load_input(path: str):
    return load_graph_text(Path(path).read_text(encoding="utf-8"))


def _cmd_greedy(args) -> int:
    g = _load_input(args.input)
    if args.all_branches:
        seqs = all_greedy_sequences(g, branch_cap=args.branch_cap)
    else:
        seqs = [greedy_sequence(g)]

    def result():
        runs = [{"vertices": list(s.vertices), "degree_sums": list(s.degree_sums)} for s in seqs]
        if args.all_branches:
            return {"n": g.n, "m": g.m, "count": len(seqs), "sequences": runs}
        return {"n": g.n, "m": g.m, **runs[0], "tie_policy": seqs[0].tie_policy}

    _report(
        args,
        result,
        lambda: "length,vertices,degree_sums\n" + "".join(
            f"{len(s.vertices)},{' '.join(map(str, s.vertices))},"
            f"{' '.join(map(str, s.degree_sums))}\n"
            for s in seqs
        ),
        lambda: ([f"sequences={len(seqs)}"] if args.all_branches else []) + [
            f"vertices={list(s.vertices)} degree_sums={list(s.degree_sums)}" for s in seqs
        ],
    )
    return EXIT_OK


def _cmd_delta(args) -> int:
    g = _load_input(args.input)
    res = max_clique_degree_sum(g, args.r)
    witness = list(res.witness) if res.witness is not None else None
    _report(
        args,
        lambda: {"n": g.n, "m": g.m, "r": res.r, "value": res.value, "witness": witness},
        lambda: f"n,m,r,value,witness\n{g.n},{g.m},{res.r},{res.value},"
        f"{' '.join(map(str, witness or ()))}\n",
        lambda: [f"value={res.value} witness={witness}"],
    )
    return EXIT_OK


def _records_exit(records) -> int:
    return EXIT_VIOLATION if any(band_violation(rec) for rec in records) else EXIT_OK


def _cmd_scan(args, m_from: int, m_to: int) -> int:
    """One record per edge count in m_from..m_to; ``extremal`` asks for a single one."""
    records = scan_m(
        args.n, args.r, m_from, m_to, mode=args.mode, seed=args.seed,
        restarts=args.restarts, iter_budget=args.iter_budget, workers=args.workers,
    )
    _report(
        args,
        lambda: [
            {
                "n": rec.n, "m": rec.m, "r": rec.r, "mode": rec.mode, "delta_min": rec.delta_min,
                "witness": rec.witness_g6,
                "lower_2rm_over_n": {"num": rec.ratio_num, "den": rec.ratio_den},
                "graphs_examined": rec.graphs_examined, "regime": rec.regime,
            }
            for rec in records
        ],
        lambda: "n,m,r,mode,delta_min,ratio_num,ratio_den,witness_g6,graphs_examined\n" + "".join(
            f"{rec.n},{rec.m},{rec.r},{rec.mode},{rec.delta_min},"
            f"{rec.ratio_num},{rec.ratio_den},{rec.witness_g6},{rec.graphs_examined}\n"
            for rec in records
        ),
        lambda: [
            f"n={rec.n} m={rec.m} r={rec.r} mode={rec.mode} delta_min={rec.delta_min} "
            f"bound={rec.ratio_num}/{rec.ratio_den} witness={rec.witness_g6} "
            f"graphs={rec.graphs_examined} regime={rec.regime}"
            for rec in records
        ] + [
            f"VIOLATION n={rec.n} m={rec.m} r={rec.r}: {problem}"
            for rec in records
            if (problem := band_violation(rec))
        ],
    )
    return _records_exit(records)


def _cmd_stability(args) -> int:
    if len(args.epsilon) > MAX_EPSILON_CHARS:
        raise ResourceLimitError(
            f"--epsilon length {len(args.epsilon)} exceeds cap {MAX_EPSILON_CHARS}"
        )
    if not _EPSILON.fullmatch(args.epsilon):
        raise ValueError(f"--epsilon takes a fraction such as 1/4 or a decimal such as "
                         f"0.25, got {args.epsilon!r}")
    try:
        epsilon = Fraction(args.epsilon)
    except ZeroDivisionError:
        raise ValueError(f"epsilon {args.epsilon!r} has a zero denominator") from None
    params = StabilityParams(epsilon=epsilon, r=args.r, n=args.n)
    rows = stability_experiment(
        params, mode=args.mode, seed=args.seed, restarts=args.restarts,
        iter_budget=args.iter_budget, workers=args.workers,
    )
    delta = params.delta
    _report(
        args,
        lambda: {
            "r": params.r, "n": params.n,
            "epsilon": {"num": epsilon.numerator, "den": epsilon.denominator},
            "delta": {"num": delta.numerator, "den": delta.denominator},
            "m_threshold": params.m_threshold, "m_upper": params.m_upper, "mode": args.mode,
            "within_proof_range": params.within_proof_range,
            "rows": [
                {
                    "m": row.m, "delta_min": row.delta_min,
                    "ratio": {"num": row.ratio_num, "den": row.ratio_den},
                    "ratio_decimal": row.ratio_decimal, "exceeds_threshold": row.exceeds_threshold,
                }
                for row in rows
            ],
        },
        lambda: "n,m,r,mode,delta_min,ratio_num,ratio_den,ratio_decimal,exceeds_threshold,"
        "m_threshold,m_upper,within_proof_range\n" + "".join(
            f"{params.n},{row.m},{params.r},{args.mode},{row.delta_min},"
            f"{row.ratio_num},{row.ratio_den},{row.ratio_decimal},{row.exceeds_threshold},"
            f"{params.m_threshold},{params.m_upper},{params.within_proof_range}\n"
            for row in rows
        ),
        lambda: [
            f"r={params.r} n={params.n} epsilon={epsilon} delta={delta} "
            f"window=({params.m_threshold},{params.m_upper}] "
            f"within_proof_range={params.within_proof_range}"
        ] + [
            f"m={row.m} delta_min={row.delta_min} ratio={row.ratio_num}/{row.ratio_den} "
            f"({row.ratio_decimal}) exceeds={row.exceeds_threshold}"
            for row in rows
        ],
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    r_set = [integer(tok.strip(" ")) for tok in args.r.split(",") if tok.strip(" ")]
    rep = verify_all(args.n_max, r_set, mode=args.mode)
    _report(
        args,
        lambda: dataclasses.asdict(rep),
        lambda: "n_max,r_set,mode,graphs_examined,cells,violations\n"
        f"{rep.n_max},{' '.join(map(str, rep.r_set))},{rep.mode},"
        f"{rep.graphs_examined},{rep.cells},{rep.violations}\n",
        lambda: [
            f"graphs_examined={rep.graphs_examined} cells={rep.cells} violations={rep.violations}"
        ] + [f"VIOLATION {ce}" for ce in rep.counterexamples],
    )
    return EXIT_VIOLATION if rep.violations else EXIT_OK


_HANDLERS = {
    "turan": _cmd_turan,
    "greedy": _cmd_greedy,
    "delta": _cmd_delta,
    "extremal": lambda args: _cmd_scan(args, args.m, args.m),
    "scan": lambda args: _cmd_scan(args, args.m_from, args.m_to),
    "stability": _cmd_stability,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the general error code
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, Graph6ParseError, ResourceLimitError, OSError) as exc:
        print(f"cliquedeg: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

import dataclasses
import json
import re

import pytest

from cliquedeg import __version__, from_edges, to_edge_list_text, to_graph6
from cliquedeg import cli
from cliquedeg.cli import MAX_EPSILON_CHARS, _build_parser, main
from cliquedeg.extremal import MAX_ITER_BUDGET, MAX_RESTARTS, MAX_WORKERS
from cliquedeg.turan import MAX_PARTS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_turan_text(capsys):
    code, out, _ = run_cli(capsys, "turan", "--r", "3", "--n", "7")
    assert code == 0
    assert "t=16" in out and "parts=[3,2,2]" in out


def test_turan_json_envelope(capsys):
    code, out, _ = run_cli(capsys, "turan", "--r", "3", "--n", "7", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["tool"] == "cliquedeg"
    assert payload["version"]
    assert payload["config"]["command"] == "turan"
    assert payload["result"] == {"r": 3, "n": 7, "t": 16, "parts": [3, 2, 2], "s": 1}


def test_delta_on_c4_file(tmp_path, capsys):
    c4 = from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    path = tmp_path / "g.g6"
    path.write_text(to_graph6(c4) + "\n")
    code, out, _ = run_cli(capsys, "delta", "--input", str(path), "--r", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["value"] == 0


def test_delta_on_edge_list_file(tmp_path, capsys):
    g = from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    path = tmp_path / "g.txt"
    path.write_text(to_edge_list_text(g))
    code, out, _ = run_cli(capsys, "delta", "--input", str(path), "--r", "2", "--format", "json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["value"] == 5 and result["witness"] == [0, 1]


def test_greedy_command(tmp_path, capsys):
    star = from_edges(4, [(0, 1), (0, 2), (0, 3)])
    path = tmp_path / "star.g6"
    path.write_text(to_graph6(star))
    code, out, _ = run_cli(capsys, "greedy", "--input", str(path), "--format", "json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["vertices"] == [0, 1] and result["degree_sums"] == [3, 4]
    code, out, _ = run_cli(
        capsys, "greedy", "--input", str(path), "--all-branches", "--format", "json"
    )
    assert json.loads(out)["result"]["count"] == 3


def test_verify_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--n-max", "4", "--r", "2,3", "--format", "json"
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["violations"] == 0
    assert '"violations": 0' in out


def test_extremal_record(capsys):
    code, out, _ = run_cli(
        capsys, "extremal", "--n", "4", "--m", "4", "--r", "2", "--format", "json"
    )
    assert code == 0
    rec = json.loads(out)["result"][0]
    assert rec["delta_min"] == 4
    assert rec["lower_2rm_over_n"] == {"num": 4, "den": 1}


def test_scan_csv_header(capsys):
    code, out, _ = run_cli(
        capsys,
        "scan", "--n", "4", "--r", "2", "--m-from", "4", "--m-to", "6", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# cliquedeg ")
    assert lines[1] == "n,m,r,mode,delta_min,ratio_num,ratio_den,witness_g6,graphs_examined"
    assert len(lines) == 5


def test_stability_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "stability", "--n", "5", "--r", "2", "--epsilon", "1/4", "--format", "json",
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["epsilon"] == {"num": 1, "den": 4}
    assert result["rows"][0]["ratio"] == {"num": 25, "den": 24}


def test_epsilon_must_be_in_range(capsys):
    code, _, err = run_cli(
        capsys, "stability", "--n", "5", "--r", "2", "--epsilon", "2"
    )
    assert code == 1 and "epsilon" in err


# the whole rendered stability report, byte for byte, in each format
STABILITY_GOLDENS = {
    ("stability --n 8 --r 3 --epsilon 9/10", "text"): """\
cliquedeg {version} | {"command":"stability","epsilon":"9/10","format":"text","iter_budget":200,"mode":"exhaustive","n":8,"out":null,"r":3,"restarts":4,"seed":0,"workers":1}
r=3 n=8 epsilon=9/10 delta=81/3200 window=(19,21] within_proof_range=False
m=20 delta_min=15 ratio=1/1 (1.000000) exceeds=True
m=21 delta_min=16 ratio=64/63 (1.015873) exceeds=True
""",
    ("stability --n 8 --r 3 --epsilon 9/10", "csv"): """\
# cliquedeg {version} config={"command":"stability","epsilon":"9/10","format":"csv","iter_budget":200,"mode":"exhaustive","n":8,"out":null,"r":3,"restarts":4,"seed":0,"workers":1}
n,m,r,mode,delta_min,ratio_num,ratio_den,ratio_decimal,exceeds_threshold,m_threshold,m_upper,within_proof_range
8,20,3,exhaustive,15,1,1,1.000000,True,19,21,False
8,21,3,exhaustive,16,64,63,1.015873,True,19,21,False
""",
    ("stability --n 8 --r 3 --epsilon 9/10", "json"): """\
{
  "config": {
    "command": "stability",
    "epsilon": "9/10",
    "format": "json",
    "iter_budget": 200,
    "mode": "exhaustive",
    "n": 8,
    "out": null,
    "r": 3,
    "restarts": 4,
    "seed": 0,
    "workers": 1
  },
  "result": {
    "delta": {
      "den": 3200,
      "num": 81
    },
    "epsilon": {
      "den": 10,
      "num": 9
    },
    "m_threshold": 19,
    "m_upper": 21,
    "mode": "exhaustive",
    "n": 8,
    "r": 3,
    "rows": [
      {
        "delta_min": 15,
        "exceeds_threshold": true,
        "m": 20,
        "ratio": {
          "den": 1,
          "num": 1
        },
        "ratio_decimal": "1.000000"
      },
      {
        "delta_min": 16,
        "exceeds_threshold": true,
        "m": 21,
        "ratio": {
          "den": 63,
          "num": 64
        },
        "ratio_decimal": "1.015873"
      }
    ],
    "within_proof_range": false
  },
  "tool": "cliquedeg",
  "version": "{version}"
}
""",
    ("stability --n 7 --r 2 --epsilon 1/4 --mode local-search --restarts 0", "text"): """\
cliquedeg {version} | {"command":"stability","epsilon":"1/4","format":"text","iter_budget":200,"mode":"local-search","n":7,"out":null,"r":2,"restarts":0,"seed":0,"workers":1}
r=2 n=7 epsilon=1/4 delta=1/512 window=(11,12] within_proof_range=True
m=12 delta_min=8 ratio=7/6 (1.166667) exceeds=True
""",
    ("stability --n 7 --r 2 --epsilon 1/4 --mode local-search --restarts 0", "csv"): """\
# cliquedeg {version} config={"command":"stability","epsilon":"1/4","format":"csv","iter_budget":200,"mode":"local-search","n":7,"out":null,"r":2,"restarts":0,"seed":0,"workers":1}
n,m,r,mode,delta_min,ratio_num,ratio_den,ratio_decimal,exceeds_threshold,m_threshold,m_upper,within_proof_range
7,12,2,local-search,8,7,6,1.166667,True,11,12,True
""",
    ("stability --n 7 --r 2 --epsilon 1/4 --mode local-search --restarts 0", "json"): """\
{
  "config": {
    "command": "stability",
    "epsilon": "1/4",
    "format": "json",
    "iter_budget": 200,
    "mode": "local-search",
    "n": 7,
    "out": null,
    "r": 2,
    "restarts": 0,
    "seed": 0,
    "workers": 1
  },
  "result": {
    "delta": {
      "den": 512,
      "num": 1
    },
    "epsilon": {
      "den": 4,
      "num": 1
    },
    "m_threshold": 11,
    "m_upper": 12,
    "mode": "local-search",
    "n": 7,
    "r": 2,
    "rows": [
      {
        "delta_min": 8,
        "exceeds_threshold": true,
        "m": 12,
        "ratio": {
          "den": 6,
          "num": 7
        },
        "ratio_decimal": "1.166667"
      }
    ],
    "within_proof_range": true
  },
  "tool": "cliquedeg",
  "version": "{version}"
}
""",
}


@pytest.mark.parametrize("argv, fmt", STABILITY_GOLDENS)
def test_stability_report_matches_golden(argv, fmt, capsys):
    code, out, err = run_cli(capsys, *argv.split(), "--format", fmt)
    assert (code, err) == (0, "")
    assert out == STABILITY_GOLDENS[argv, fmt].replace("{version}", __version__)


SPELLED_RIGHT = "--epsilon takes a fraction such as 1/4 or a decimal such as 0.25, got "
TOO_LONG = f"--epsilon length {{}} exceeds cap {MAX_EPSILON_CHARS}"


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize(
    "epsilon, message",
    [
        ("1e-5000", SPELLED_RIGHT + "'1e-5000'"),
        ("1/" + "9" * 4300, TOO_LONG.format(4302)),
        ("0." + "0" * 62 + "1", TOO_LONG.format(65)),
        ("\u0663/\u0664", SPELLED_RIGHT + "'\u0663/\u0664'"),
        ("\uff11/\uff14", SPELLED_RIGHT + "'\uff11/\uff14'"),
        ("1_0/4_0", SPELLED_RIGHT + "'1_0/4_0'"),
        ("+1/4", SPELLED_RIGHT + "'+1/4'"),
        (" 1/4", SPELLED_RIGHT + "' 1/4'"),
        ("1/4 ", SPELLED_RIGHT + "'1/4 '"),
        ("1.", SPELLED_RIGHT + "'1.'"),
        ("-1/4", SPELLED_RIGHT + "'-1/4'"),
        ("1/0", "epsilon '1/0' has a zero denominator"),
    ],
    ids=[
        "exponent", "4302-chars", "65-chars", "arabic-indic-digits", "fullwidth-digits",
        "underscores", "plus", "leading-space", "trailing-space", "trailing-dot", "negative",
        "zero-denominator",
    ],
)
def test_epsilon_is_a_short_ascii_rational(epsilon, message, fmt, capsys, monkeypatch):
    def no_params(*args, **kwargs):
        raise AssertionError("epsilon must be refused before StabilityParams is built")

    monkeypatch.setattr(cli, "StabilityParams", no_params)
    argv = ["stability", "--n", "5", "--r", "2", f"--epsilon={epsilon}", "--format", fmt]
    assert run_cli(capsys, *argv) == (1, "", f"cliquedeg: error: {message}\n")


@pytest.mark.parametrize("epsilon", ["1/4", "0.25", ".25", "3/7", "9/10", "0." + "0" * 61 + "1"])
def test_epsilon_literals_that_parse(epsilon, capsys):
    code, out, _ = run_cli(capsys, "stability", "--n", "5", "--r", "2", "--epsilon", epsilon)
    assert code == 0 and "window=(5,6]" in out


# every integer flag of every command; argparse refuses a bad value as it reads it,
# before it looks for the flags that are still missing
INTEGER_FLAGS = {
    "turan": ["--r", "--n"],
    "greedy": ["--branch-cap"],
    "delta": ["--r"],
    "extremal": ["--n", "--m", "--r", "--seed", "--restarts", "--iter-budget", "--workers"],
    "scan": ["--n", "--r", "--m-from", "--m-to", "--seed", "--restarts", "--iter-budget",
             "--workers"],
    "stability": ["--n", "--r", "--seed", "--restarts", "--iter-budget", "--workers"],
    "verify": ["--n-max"],
}
# a fullwidth 3 at every flag, and the other refused spellings at one of them
INTEGER_CASES = [(c, f, "\uff13") for c, flags in INTEGER_FLAGS.items() for f in flags] + [
    ("turan", "--r", value) for value in ["\u0663", "+3", "1_0", " 3", "3 ", "3.0", ""]
]


@pytest.mark.parametrize("command, flag, value", INTEGER_CASES)
def test_integer_flags_take_ascii_integers_only(command, flag, value, capsys):
    code, out, err = run_cli(capsys, command, flag, value)
    assert code == 1 and out == ""
    assert err.endswith(f" error: argument {flag}: invalid integer value: {value!r}\n")
    assert err.startswith(f"usage: cliquedeg {command} ")


@pytest.mark.parametrize(
    "r, token",
    [
        ("\uff12,\uff13", "\uff12"), ("2,+3", "+3"), ("1_0", "1_0"), ("2,\u0663", "\u0663"),
        ("2;3", "2;3"), ("2,\t3", "\t3"),
    ],
)
def test_verify_r_tokens_are_ascii_integers(r, token, capsys):
    code, out, err = run_cli(capsys, "verify", "--n-max", "4", "--r", r)
    assert (code, out) == (1, "")
    assert err == f"cliquedeg: error: invalid integer value: {token!r}\n"


@pytest.mark.parametrize("r", ["2, 3", " 2 ,3 ", "2,,3,"])
def test_verify_r_tokens_may_carry_ascii_spaces(r, capsys):
    argv = ["verify", "--n-max", "4", "--format", "json", "--r"]
    code, out, _ = run_cli(capsys, *argv, r)
    assert code == 0
    assert json.loads(out)["result"] == json.loads(run_cli(capsys, *argv, "2,3")[1])["result"]


def test_exit_codes_on_errors(capsys, tmp_path, monkeypatch):
    code, _, _ = run_cli(capsys, "nonsense")
    assert code == 1
    code, _, err = run_cli(capsys, "extremal", "--n", "4", "--m", "9", "--r", "2")
    assert code == 1 and "error" in err
    code, _, err = run_cli(
        capsys, "extremal", "--n", "6", "--m", "9", "--r", "2", "--workers", str(MAX_WORKERS + 1)
    )
    assert code == 1 and "cap" in err
    code, _, err = run_cli(
        capsys, "extremal", "--n", "12", "--m", "30", "--r", "3",
        "--mode", "local-search", "--restarts", str(MAX_RESTARTS + 1),
    )
    assert code == 1 and "cap" in err
    # no search starts: local search checks the worker count, exact modes check restarts
    # (m = 21 is above t_2(9) = 20, so the cell would search)
    ls = "extremal --n 9 --m 21 --r 3 --mode local-search --restarts 0".split()

    def fail(*args):
        raise AssertionError("a local search started")

    with monkeypatch.context() as patch:
        patch.setattr("cliquedeg.extremal.near_regular_graph", fail)
        for workers, message in (
            (MAX_WORKERS + 1, f"worker count {MAX_WORKERS + 1} exceeds cap {MAX_WORKERS}"),
            (0, "worker count must be at least 1, got 0"),
        ):
            code, out, err = run_cli(capsys, *ls, "--workers", str(workers))
            assert (code, out, err) == (1, "", f"cliquedeg: error: {message}\n"), workers
        for budget in (MAX_ITER_BUDGET + 1, 10**12):
            code, out, err = run_cli(capsys, *ls, "--iter-budget", str(budget))
            message = f"iter budget {budget} exceeds cap {MAX_ITER_BUDGET}"
            assert (code, out, err) == (1, "", f"cliquedeg: error: {message}\n"), budget
    code, out, err = run_cli(capsys, *"extremal --n 5 --m 4 --r 2 --restarts -5".split())
    assert code == 1 and out == ""
    assert err == "cliquedeg: error: restarts and iter-budget must be nonnegative\n"
    # a negative integer is ASCII too, and meets the check of the value it gives
    code, out, err = run_cli(capsys, "turan", "--r", "3", "--n", "-1")
    assert (code, out) == (1, "")
    assert err == "cliquedeg: error: vertex count must be nonnegative, got -1\n"
    code, _, err = run_cli(capsys, "stability", "--n", "5", "--r", "2", "--epsilon", "1/0")
    assert code == 1 and err.startswith("cliquedeg: error: ") and "Traceback" not in err
    bad = tmp_path / "bad.g6"
    bad.write_text("D?")  # truncated
    code, _, err = run_cli(capsys, "delta", "--input", str(bad), "--r", "2")
    assert code == 1 and "offset" in err
    code, _, _ = run_cli(capsys, "delta", "--input", str(tmp_path / "missing"), "--r", "2")
    assert code == 1
    two = tmp_path / "two.g6"
    two.write_text("Bw\nCF\n")
    code, out, err = run_cli(capsys, "delta", "--input", str(two), "--r", "2")
    assert code == 1 and out == "" and "one graph per input" in err and "(offset 2)" in err


@pytest.mark.parametrize(
    "argv",
    [
        "extremal --n 5 --m 6 --r 2",
        "scan --n 5 --r 2 --m-from 6 --m-to 7",
        "stability --n 5 --r 2 --epsilon 1/4",
        "verify --n-max 5 --r 2",
    ],
    ids=["extremal", "scan", "stability", "verify"],
)
def test_max_graphs_is_not_an_option(argv, capsys):
    # the n <= 8 cap is the exact paths' one work limit; no graph-count limit is taken
    code, out, err = run_cli(capsys, *argv.split(), "--max-graphs", "1000000000")
    assert code == 1 and out == ""
    assert "unrecognized arguments: --max-graphs 1000000000" in err


def test_turan_part_count_over_cap_exits_1(capsys):
    code, out, err = run_cli(capsys, "turan", "--r", str(MAX_PARTS + 1), "--n", "5")
    assert code == 1 and out == ""
    assert err == f"cliquedeg: error: part count {MAX_PARTS + 1} exceeds cap {MAX_PARTS}\n"


def test_byte_identical_output_for_identical_config(capsys):
    argv = [
        "extremal", "--n", "5", "--m", "6", "--r", "2",
        "--mode", "local-search", "--seed", "3", "--format", "json",
    ]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1.encode() == out2.encode()


def test_violation_exit_code_path():
    # no real counterexample exists, so exercise the wiring with a fabricated record
    from cliquedeg import ScanRecord, band_violation
    from cliquedeg.cli import _records_exit

    bad = ScanRecord(
        n=4, m=4, r=2, mode="exhaustive", delta_min=2, witness_g6="C~",
        ratio_num=4, ratio_den=1, graphs_examined=15, regime="at-threshold",
    )
    assert band_violation(bad) is not None
    assert _records_exit([bad]) == 2
    good = ScanRecord(
        n=4, m=4, r=2, mode="exhaustive", delta_min=4, witness_g6="C~",
        ratio_num=4, ratio_den=1, graphs_examined=15, regime="at-threshold",
    )
    assert band_violation(good) is None
    assert _records_exit([good]) == 0
    # a local-search value is an upper bound on the minimum: it cannot refute the
    # upper side of the band, but a value below 2rm/n is a graph that refutes the lower
    heur = ScanRecord(
        n=4, m=4, r=2, mode="local-search", delta_min=99, witness_g6="C~",
        ratio_num=4, ratio_den=1, graphs_examined=15, regime="at-threshold",
    )
    assert band_violation(heur) is None
    low = dataclasses.replace(heur, delta_min=3)
    assert band_violation(low) == "delta_min*n = 12 < 2rm = 16"
    assert _records_exit([heur, low]) == 2


def test_local_search_violation_exits_2_with_its_witness(capsys, monkeypatch):
    # no real counterexample exists, so make the kernel report no r-clique anywhere
    import cliquedeg.extremal as ext

    monkeypatch.setattr(ext, "max_degree_sum_value", lambda *args, **kwargs: 0)
    argv = "extremal --n 9 --m 27 --r 3 --mode local-search --restarts 0".split()
    code, out, _ = run_cli(capsys, *argv)
    assert code == 2
    assert "delta_min=0" in out and "witness=HUzvvx}" in out
    assert out.splitlines()[-1] == "VIOLATION n=9 m=27 r=3: delta_min*n = 0 < 2rm = 162"
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 2
    [rec] = json.loads(out)["result"]
    assert (rec["delta_min"], rec["witness"]) == (0, "HUzvvx}")


@pytest.mark.parametrize(
    "argv",
    ["extremal --n 3 --m 3 --r 4", "scan --n 4 --r 5 --m-from 5 --m-to 6"],
    ids=["extremal", "scan"],
)
def test_clique_size_above_n_is_no_violation(argv, capsys):
    # t_r(n) = C(n, 2) for r > n, and K_n holds no r-clique: the bound needs n >= r
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert "delta_min=0" in out and "regime=no-r-clique" in out
    assert "regime=at-threshold" not in out and "VIOLATION" not in out
    code, out, _ = run_cli(capsys, *argv.split(), "--format", "json")
    assert code == 0
    assert {rec["regime"] for rec in json.loads(out)["result"]} == {"no-r-clique"}


def test_verify_exits_2_on_a_violation(capsys, monkeypatch):
    # no real counterexample exists, so make every greedy branch stop at one vertex
    import cliquedeg.extremal as ext

    monkeypatch.setattr(ext, "greedy_prefix_extremes", lambda adj, degs, r: (1, None, None))
    code, out, _ = run_cli(capsys, "verify", "--n-max", "3", "--r", "2", "--format", "json")
    assert code == 2
    result = json.loads(out)["result"]
    assert result["violations"] == 8
    assert {ce["kind"] for ce in result["counterexamples"]} == {"greedy"}


@pytest.mark.parametrize("n_max, r", [("-3", "2"), ("5", ","), ("3", "7")])
def test_verify_with_no_cell_exits_1(n_max, r, capsys):
    code, out, err = run_cli(capsys, "verify", "--n-max", n_max, "--r", r)
    assert code == 1 and out == ""
    assert "no cell" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        ("extremal --n 9 --m 14 --r 2", "exact modes capped at n=8; use local-search"),
        ("verify --n-max 9 --r 2", "verify capped at n_max=8, got 9"),
    ],
    ids=["extremal", "verify"],
)
def test_exact_work_above_n8_exits_1(argv, message, capsys):
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 1 and out == ""
    assert err == f"cliquedeg: error: {message}\n"


def test_workers_flag_does_not_change_output(tmp_path):
    # an exact scan, and a local-search scan, which runs in worker processes too
    # (m = 25 is t_2(10), value 0 with no search; the cells above it search)
    for argv in (
        "scan --n 5 --r 2 --m-from 6 --m-to 8",
        "scan --n 10 --r 3 --m-from 25 --m-to 29 --mode local-search --restarts 1",
    ):
        base = argv.split() + ["--format", "csv"]
        out1 = tmp_path / "w1.csv"
        out2 = tmp_path / "w2.csv"
        assert main(base + ["--workers", "1", "--out", str(out1)]) == 0
        assert main(base + ["--workers", "3", "--out", str(out2)]) == 0
        body1 = out1.read_text().splitlines()[1:]  # audit line echoes the worker count
        body2 = out2.read_text().splitlines()[1:]
        assert body1 == body2, argv


SMALL_COMMANDS = {
    "turan": ["turan", "--r", "3", "--n", "7"],
    "greedy": ["greedy", "--input", "{star}"],
    "greedy-all-branches": ["greedy", "--input", "{star}", "--all-branches"],
    "delta": ["delta", "--input", "{star}", "--r", "2"],
    "extremal": ["extremal", "--n", "4", "--m", "4", "--r", "2"],
    "scan": ["scan", "--n", "5", "--r", "2", "--m-from", "6", "--m-to", "8"],
    "stability": ["stability", "--n", "5", "--r", "2", "--epsilon", "1/4"],
    "verify": ["verify", "--n-max", "4", "--r", "2,3"],
}


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("command", SMALL_COMMANDS.values(), ids=SMALL_COMMANDS)
def test_report_header_and_out_file(command, fmt, tmp_path, capsys):
    star = tmp_path / "star.txt"
    star.write_text(to_edge_list_text(from_edges(4, [(0, 1), (0, 2), (0, 3)])))
    argv = [arg.format(star=star) for arg in command] + ["--format", fmt]
    config = vars(_build_parser().parse_args(argv))
    compact = json.dumps(config, sort_keys=True, separators=(",", ":"))
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    if fmt == "json":
        payload = json.loads(out)
        assert set(payload) == {"tool", "version", "config", "result"}
        assert payload["tool"] == "cliquedeg" and payload["version"] == __version__
        assert payload["config"] == config and list(payload["config"]) == sorted(config)
    elif fmt == "csv":
        assert out.splitlines()[0] == f"# cliquedeg {__version__} config={compact}"
    else:
        assert out.splitlines()[0] == f"cliquedeg {__version__} | {compact}"
    path = tmp_path / "report"
    assert run_cli(capsys, *argv, "--out", str(path)) == (0, "", "")
    # the header echoes the resolved config, so only its "out" value differs
    expected = re.sub(
        r'"out":( ?)null', lambda m: '"out":' + m.group(1) + json.dumps(str(path)), out, count=1
    )
    assert expected != out
    assert path.read_bytes() == expected.encode("utf-8")

import dataclasses
import json
import re

import pytest

from cliquedeg import __version__, from_edges, to_edge_list_text, to_graph6
from cliquedeg.cli import _build_parser, main
from cliquedeg.extremal import MAX_RESTARTS, MAX_WORKERS
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


def test_exit_codes_on_errors(capsys, tmp_path):
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
    # no search starts: local search refuses a worker count, exact modes check restarts
    ls = "extremal --n 9 --m 20 --r 3 --mode local-search --restarts 0".split()
    for workers in (str(MAX_WORKERS + 1), "0"):
        code, out, err = run_cli(capsys, *ls, "--workers", workers)
        assert code == 1 and out == "" and err.startswith("cliquedeg: error: "), workers
    code, out, err = run_cli(capsys, *ls, "--workers", "2")
    assert code == 1 and out == ""
    assert err == "cliquedeg: error: local search takes one worker, got workers=2\n"
    code, out, err = run_cli(capsys, *"extremal --n 5 --m 4 --r 2 --restarts -5".split())
    assert code == 1 and out == ""
    assert err == "cliquedeg: error: restarts and iter-budget must be nonnegative\n"
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
    base = [
        "scan", "--n", "5", "--r", "2", "--m-from", "6", "--m-to", "8",
        "--format", "csv",
    ]
    out1 = tmp_path / "w1.csv"
    out2 = tmp_path / "w2.csv"
    assert main(base + ["--workers", "1", "--out", str(out1)]) == 0
    assert main(base + ["--workers", "3", "--out", str(out2)]) == 0
    body1 = out1.read_text().splitlines()[1:]  # audit line echoes the worker count
    body2 = out2.read_text().splitlines()[1:]
    assert body1 == body2


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

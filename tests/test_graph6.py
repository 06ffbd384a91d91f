import random
import time

import networkx as nx
import pytest
from hypothesis import given, settings

from cliquedeg import (
    Graph,
    Graph6ParseError,
    ResourceLimitError,
    from_edges,
    from_graph6,
    load_graph_text,
    to_edge_list_text,
    to_graph6,
)

from conftest import graphs
from oracles import naive_graph6, naive_graph6_rows


def test_known_codes():
    assert to_graph6(from_edges(0, [])) == "?"
    assert to_graph6(from_edges(1, [])) == "@"
    assert to_graph6(from_edges(2, [(0, 1)])) == "A_"
    # 5-vertex path, bits laid out by hand in the oracle
    edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert to_graph6(from_edges(5, edges)) == naive_graph6(5, edges)


def test_round_trip_hand_layout():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(0, 9)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = from_edges(n, edges)
        code = to_graph6(g)
        assert code == naive_graph6(n, edges)
        assert from_graph6(code) == g


def _assert_matches_networkx(n, edges):
    """Encoder and decoder both agree with networkx's graph6 bytes."""
    g = from_edges(n, edges)
    expected = nx.to_graph6_bytes(_nx_graph(n, edges), header=False).decode().strip()
    assert to_graph6(g) == expected
    assert from_graph6(expected) == g


def test_matches_networkx():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(0, 30)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        _assert_matches_networkx(n, edges)
    # one-hot graphs and their complements: a bit read from the wrong slot,
    # such as across a column boundary, moves the single edge or hole
    for n in range(2, 13):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for edge in pairs:
            _assert_matches_networkx(n, [edge])
            _assert_matches_networkx(n, [p for p in pairs if p != edge])


def _nx_graph(n, edges):
    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from(edges)
    return G


def test_long_size_header():
    rng = random.Random(13)
    for n in (63, 64):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.05]
        g = from_edges(n, edges)
        code = to_graph6(g)
        assert code.startswith("~")
        assert from_graph6(code) == g
        _assert_matches_networkx(n, edges)


def test_encoder_refuses_n_before_work():
    # graph6 holds at most 258047 vertices; the refusal comes before the O(n^2) column loop
    n = 258048
    g = Graph._raw(n, (0,) * n, 0)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"graph6 encoding for n={n} not supported"):
        to_graph6(g)
    assert time.perf_counter() - start < 1


def test_decoder_matches_longhand_oracle():
    """``from_graph6`` against a longhand decoder at every n = 0..64, so at
    every row width w = 1, 2, 4, ..., 64 of its masks and with both size
    headers.  A slot that a mask drops or moves stays behind or lands on a
    wrong bit, which moves the single edge of a one-edge graph or the single
    hole of a one-hole graph; random graphs of five densities cover the rest."""
    rng = random.Random(17)
    for n in range(65):
        pairs = [(i, j) for j in range(1, n) for i in range(j)]
        singles = pairs if n <= 16 else rng.sample(pairs, 40) if n >= 63 else []
        cases = [[p for p in pairs if rng.random() < density]
                 for density in (0.1, 0.3, 0.5, 0.7, 0.9) for _ in range(2)]
        cases += [[p] for p in singles] + [[q for q in pairs if q != p] for p in singles]
        for edges in cases:
            code = naive_graph6(n, edges)
            rows = naive_graph6_rows(code)
            assert rows == from_edges(n, edges).adj, code  # the two oracles agree
            assert from_graph6(code).adj == rows, code


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=10))
def test_round_trip_property(g):
    assert from_graph6(to_graph6(g)) == g


def test_optional_header_accepted():
    assert from_graph6(">>graph6<<A_").m == 1


def test_parse_errors_with_offset():
    k64 = to_graph6(from_edges(64, [(i, j) for j in range(64) for i in range(j)]))  # 340 bytes
    for text, message, offset in (
        ("", "empty graph6 string", 0),
        ("D?", "truncated bit field", 2),  # n = 5
        ("A_?", "trailing bytes", 2),
        ("A" + chr(20), "outside graph6 range", 1),
        ("A" + chr(127), "outside graph6 range", 1),
        ("@_", "trailing bytes", 1),  # n = 1 has no bit field
        ("Ao", "nonzero padding", 1),  # n = 2
        ("~", "truncated extended size header", 1),
        ("~??", "truncated extended size header", 3),
        ("~??}", "non-canonical extended header for n=62", 0),
        ("~~??????", "8-byte size header not supported", 0),
        ("~?" + chr(20) + "?", "byte 20 outside graph6 range", 2),  # in the extended header
        ("A\u00e9", "byte 233 outside graph6 range", 1),  # a non-ASCII code point
        (k64[:300] + ">" + k64[301:], "byte 62 outside graph6 range", 300),  # deep in the body
        # two bad bytes: the first is named
        (k64[:100] + ">" + k64[101:300] + "\u00e9" + k64[301:], "byte 62 outside", 100),
    ):
        with pytest.raises(Graph6ParseError, match=message) as info:
            from_graph6(text)
        assert info.value.offset == offset, text


def test_parse_respects_cap():
    code = to_graph6(Graph(65, (0,) * 65))
    with pytest.raises(ResourceLimitError, match="vertex count 65 exceeds cap 64"):
        from_graph6(code)
    with pytest.raises(ResourceLimitError, match="vertex count 65 exceeds cap 64"):
        load_graph_text("65 0\n")


def test_edge_list_round_trip():
    g = from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    text = to_edge_list_text(g)
    assert text.splitlines()[0] == "4 4"
    assert load_graph_text(text) == g


def test_edge_list_errors():
    # the offset is the line in the text, blank lines counted
    for text, message, offset in (
        ("3 2\n0 1\n", "expected 2 edge lines, got 1", 2),
        ("3 1\n0 3\n", "out of range", 2),
        ("3 2\n0 1\n0 1\n", "duplicate edge", 3),
        ("3 1\n1 1\n", "loop edge", 2),
        ("\n3 -1\n", "header values must be nonnegative", 2),
        ("3 1\n0 1 2\n", "edge line must be 'u v'", 2),
        ("3 1\n0 a\n", "edge line must be two integers", 2),
        ("3 1\n\n\n0 3\n", "out of range", 4),
        ("\n\n3 1\n0 1 2\n", "edge line must be 'u v'", 4),
    ):
        with pytest.raises(Graph6ParseError, match=message) as info:
            load_graph_text(text)
        assert info.value.offset == offset, text


def test_edge_list_integers_are_ascii_decimal():
    """``int`` also takes a sign, underscores and non-ASCII digits; the reader
    takes ASCII ``-?[0-9]+`` only.  A first line with any other field is read
    as graph6, and so refused; an edge line with one is refused at its line."""
    for text, message, offset in (
        ("1_0 0\n", "outside graph6 range", 0),
        ("\u0663 \u0660\n", "outside graph6 range", 0),  # Arabic-Indic 3 and 0
        ("+3 1\n", "outside graph6 range", 0),
        ("+3 1\n0 1\n", "one graph per input", 2),
        ("3 1\n0 +2\n", "edge line must be two integers", 2),
        ("3 1\n\n0 \u0662\n", "edge line must be two integers", 3),  # Arabic-Indic 2
        ("3 1\n0 1_0\n", "edge line must be two integers", 2),
        ("-1 0\n", "header values must be nonnegative", 1),
        ("3 1\n0 -1\n", "out of range", 2),
    ):
        with pytest.raises(Graph6ParseError, match=message) as info:
            load_graph_text(text)
        assert info.value.offset == offset, text
    assert load_graph_text("03 1\n0 02\n") == from_edges(3, [(0, 2)])


def test_reader_takes_ascii_blanks_and_newlines_only():
    """Lines end at "\n" alone, and fields are split and stripped at space, tab
    and "\r" alone: a Unicode space or line break is an input character like
    any other, and each case below is refused.  The offset is the line of an
    edge-list or second-line error and the byte, within its line, of a graph6
    error."""
    for text, message, offset in (
        ("3\u20031\n0 1\n", "one graph per input", 2),  # em space: a one-field first line
        ("3\u20031\n", "byte 51 outside graph6 range", 0),
        ("\u3000Bw\n", "byte 12288 outside graph6 range", 0),  # ideographic space
        ("Bw\xa0\n", "byte 160 outside graph6 range", 2),  # no-break space
        ("Bw\x0b\n", "byte 11 outside graph6 range", 2),  # vertical tab
        ("3 2\n0 1\u20280 2\n", "expected 2 edge lines, got 1", 2),  # line separator
        ("3 2\n0 1\x0c0 2\n", "expected 2 edge lines, got 1", 2),  # form feed
        ("3 2\n0 1\x850 2\n", "expected 2 edge lines, got 1", 2),  # next line
        ("3 1\n\u2029\n0 1\n", "expected 1 edge lines, got 2", 3),  # paragraph separator
        ("3 1\n0\u20031\n", "edge line must be 'u v'", 2),
        ("3 1\n0\x1f1\n", "edge line must be 'u v'", 2),  # unit separator
    ):
        with pytest.raises(Graph6ParseError, match=message) as info:
            load_graph_text(text)
        assert info.value.offset == offset, text
    # ASCII blanks still separate and surround fields, CRLF line ends included
    assert load_graph_text("3\t1\r\n 0 \t 1\r\n\r\n") == from_edges(3, [(0, 1)])
    assert load_graph_text("\r\n\tBw \r\n") == from_edges(3, [(0, 1), (0, 2), (1, 2)])


def test_load_autodetect():
    g = from_edges(4, [(0, 1), (2, 3)])
    assert load_graph_text(to_graph6(g) + "\n") == g
    assert load_graph_text(to_edge_list_text(g)) == g
    # a first line of two fields that are not both integers is read as graph6
    with pytest.raises(Graph6ParseError, match="outside graph6 range") as info:
        load_graph_text("3 x\n")
    assert info.value.offset == 0


def test_load_takes_one_graph6_line():
    g = from_edges(3, [(0, 1), (1, 2), (0, 2)])  # Bw
    text = to_graph6(g)
    assert load_graph_text("\n  " + text + "\n\n \t\n") == g
    for trailing in (" \n", "\t\n", " \r\n"):  # whitespace at both ends, as edge-list lines
        assert load_graph_text(text + trailing) == g, trailing
    for extra, lineno in (("\nCF\n", 2), ("\n\n  CF", 3), ("\n" + text, 2)):
        with pytest.raises(Graph6ParseError, match="one graph per input") as info:
            load_graph_text(text + extra)
        assert info.value.offset == lineno, extra

"""graph6 encoding plus a plain edge-list text fallback.

graph6 layout: a size header (byte 63+n for n <= 62, '~' plus three
6-bit bytes for larger n), then the upper triangle of the adjacency
matrix in column order, six bits per printable byte (offset 63),
zero-padded.  Parsing is strict: wrong length, stray bytes and nonzero
padding are all rejected, with the byte offset of the problem.

This module holds the one encoder (``_column_chunks``, then
``_render_chunks``) and the one decoder (``_decode_rows``) of graph6 text.
Search witnesses and canonical forms are column chunks in the same layout
and are rendered and read by these two.  Two searches also walk the layout
themselves, one chunk per placed vertex: ``canonical._canonical_chunks``
builds chunks and ``extremal._least_adjs`` decodes its chunks to rows.
"""

from __future__ import annotations

import re

from .graphs import VERTEX_CAP, Graph, _check_vertex_count

_HEADER = ">>graph6<<"
_INTEGER = re.compile("-?[0-9]+")  # an edge-list field
_SIX_BITS = {63 + k: format(k, "06b") for k in range(64)}  # graph6 byte -> its six bits


class Graph6ParseError(ValueError):
    """Malformed graph6 or edge-list input; ``offset`` is the byte/line position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


def _column_chunks(adj, n: int) -> tuple[int, ...]:
    """The encoder's first half: one integer per column j >= 1 of the upper
    triangle, holding the bits of the pairs (0, j), ..., (j - 1, j) with
    (0, j) as its most significant bit."""
    chunks = []
    for j in range(1, n):
        c = 0
        for i in range(j):
            c = c << 1 | (adj[j] >> i & 1)
        chunks.append(c)
    return tuple(chunks)


def _render_chunks(chunks: tuple[int, ...]) -> str:
    """The encoder's second half: the column chunks as one bit string."""
    return "".join(format(c, f"0{j}b") for j, c in enumerate(chunks, start=1))


def _decode_rows(n: int, bits: str) -> list[int]:
    """The decoder: adjacency rows from a bit string of n(n-1)/2 characters
    '0' and '1' in the encoder's column order."""
    adj = [0] * n
    k = 0
    for j in range(1, n):
        col = int(bits[k:k + j][::-1], 2)  # bit i: the pair (i, j)
        k += j
        adj[j] = col
        bit_j = 1 << j
        while col:
            low = col & -col
            adj[low.bit_length() - 1] |= bit_j
            col ^= low
    return adj


def _chunks_to_graph6(n: int, chunks: tuple[int, ...]) -> str:
    """The graph6 string of an n-vertex graph given by its column chunks."""
    if n <= 62:
        out = [chr(63 + n)]
    elif n <= 258047:
        out = ["~", chr(63 + (n >> 12)), chr(63 + (n >> 6 & 63)), chr(63 + (n & 63))]
    else:
        raise ValueError(f"graph6 encoding for n={n} not supported")
    bits = _render_chunks(chunks)
    bits += "0" * (-len(bits) % 6)
    out.extend(chr(63 + int(bits[k:k + 6], 2)) for k in range(0, len(bits), 6))
    return "".join(out)


def to_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 string (no trailing newline)."""
    return _chunks_to_graph6(g.n, _column_chunks(g.adj, g.n))


def from_graph6(text: str) -> Graph:
    """Decode a graph6 string; raises Graph6ParseError with the failing offset."""
    s = text.rstrip("\n")
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
    if not s:
        raise Graph6ParseError("empty graph6 string", 0)
    for pos, ch in enumerate(s):
        code = ord(ch)
        if code < 63 or code > 126:
            raise Graph6ParseError(f"byte {code!r} outside graph6 range 63..126", pos)
    if s[0] != "~":
        n = ord(s[0]) - 63
        body_at = 1
    elif len(s) == 1:
        raise Graph6ParseError("truncated extended size header", 1)
    elif s[1] != "~":
        if len(s) < 4:
            raise Graph6ParseError("truncated extended size header", len(s))
        n = (ord(s[1]) - 63) << 12 | (ord(s[2]) - 63) << 6 | (ord(s[3]) - 63)
        if n <= 62:
            raise Graph6ParseError(f"non-canonical extended header for n={n}", 0)
        body_at = 4
    else:
        raise Graph6ParseError("8-byte size header not supported", 0)
    _check_vertex_count(n, VERTEX_CAP)
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    if len(s) - body_at < nchars:
        raise Graph6ParseError(
            f"truncated bit field: need {nchars} bytes, got {len(s) - body_at}", len(s)
        )
    if len(s) - body_at > nchars:
        raise Graph6ParseError("trailing bytes after bit field", body_at + nchars)
    pad = 6 * nchars - nbits
    if (ord(s[-1]) - 63) & ((1 << pad) - 1):
        raise Graph6ParseError("nonzero padding bits", len(s) - 1)
    bits = s[body_at:].translate(_SIX_BITS)[:nbits]
    return Graph._raw(n, tuple(_decode_rows(n, bits)))


def to_edge_list_text(g: Graph) -> str:
    """Plain text form: a "n m" header line then one "u v" line per edge.  The
    one writer of the edge lists that ``load_graph_text`` and the CLI read."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _edge_list(lines: list[tuple[int, str]]) -> Graph:
    """The edge-list reader, for ``lines`` whose first holds two integers."""
    head_at, head = lines[0][0], lines[0][1].split()
    n, m = int(head[0]), int(head[1])
    if n < 0 or m < 0:
        raise Graph6ParseError("header values must be nonnegative", head_at)
    _check_vertex_count(n, VERTEX_CAP)
    if len(lines) - 1 != m:
        raise Graph6ParseError(f"expected {m} edge lines, got {len(lines) - 1}", lines[-1][0])
    adj = [0] * n
    for lineno, line in lines[1:]:
        pair = line.split()
        if len(pair) != 2:
            raise Graph6ParseError("edge line must be 'u v'", lineno)
        if not all(map(_INTEGER.fullmatch, pair)):
            raise Graph6ParseError("edge line must be two integers", lineno)
        u, v = int(pair[0]), int(pair[1])
        if not (0 <= u < n and 0 <= v < n):
            raise Graph6ParseError(f"edge ({u}, {v}) out of range 0..{n - 1}", lineno)
        if u == v:
            raise Graph6ParseError(f"loop edge ({u}, {u})", lineno)
        if adj[u] >> v & 1:
            raise Graph6ParseError(f"duplicate edge ({u}, {v})", lineno)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph._raw(n, tuple(adj))


def load_graph_text(text: str) -> Graph:
    """Read either format: a "n m" / "u v" edge list, strict about counts and
    ranges, if the first line is two integers, else one graph6 line, stripped at
    both ends, after which only blank lines may follow.  An integer is ASCII
    ``-?[0-9]+``, as graph6 bytes are ASCII: ``int`` would also take "+3",
    "1_0" and non-ASCII digits."""
    # the nonblank lines, each with its line number from 1: the offset of every error about it
    lines = [(lineno, ln) for lineno, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    first = lines[0][1].strip() if lines else ""
    fields = first.split()
    if len(fields) == 2 and all(map(_INTEGER.fullmatch, fields)):
        return _edge_list(lines)
    if len(lines) > 1:
        raise Graph6ParseError("one graph per input: a second graph6 line follows", lines[1][0])
    return from_graph6(first)

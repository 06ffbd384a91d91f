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

The decoder takes a fixed number of big-int steps per graph, plus one per
row.  The body becomes one int whose bit p is triangle slot p; shift-and-mask
stages move column j to row j of a w x w bit matrix (w the least power of
two >= n), block swaps transpose that matrix, and the rows are the matrix
ORed with its transpose.  The masks depend on n alone: ``_row_plan`` builds
them on first use for each n and caches them, 65 plans at most.
"""

from __future__ import annotations

import functools
import re

from .graphs import VERTEX_CAP, Graph, _check_vertex_count

_HEADER = ">>graph6<<"
_BLANKS = " \t\r"  # what separates and surrounds fields; lines end at "\n" alone
_FIELD = re.compile("[^ \t\r]+")
_INTEGER = re.compile("-?[0-9]+")  # an edge-list field
_BAD_BYTE = re.compile("[^?-~]")  # a character outside graph6's bytes 63..126
# graph6 byte -> its six bits, last bit first
_SIX_BITS = {63 + k: format(k, "06b")[::-1] for k in range(64)}


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


@functools.cache
def _row_plan(n: int) -> tuple[int, tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """The decoder's masks for n vertices, built on first use: the row width w
    (the least power of two >= n), then the (mask, shift) stages that expand
    the triangle into a w x w matrix and those that transpose that matrix.

    Triangle slot p = j(j-1)/2 + i holds the pair (i, j), i < j; it goes to
    bit j*w + i, row j of the matrix, so column j moves left as one run by
    d_j = j*w - j(j-1)/2.  d_j grows with j, so moving every run by one bit of
    its d_j per stage, highest bit first, never lands a bit on another
    (Hacker's Delight's expand).  The transpose swaps the off-diagonal s x s
    blocks for s = w/2, ..., 1."""
    w = 1 << max(n - 1, 0).bit_length()
    runs = [(j * (j - 1) // 2, (1 << j) - 1, j * w - j * (j - 1) // 2) for j in range(1, n)]
    expand = []
    for b in reversed(range(max((d for _, _, d in runs), default=0).bit_length())):
        # each run sits where the bits of its d_j above b have moved it
        mask = sum(ones << (start + (d >> b + 1 << b + 1)) for start, ones, d in runs if d >> b & 1)
        expand.append((mask, 1 << b))
    transpose = []
    s = w >> 1
    while s:
        # bit (r, c) at r*w + c with r & s clear and c & s set swaps with
        # (r + s, c - s), s*(w - 1) bits higher
        cols = sum(((1 << s) - 1) << c for c in range(s, w, 2 * s))
        transpose.append((sum(cols << r * w for r in range(w) if not r & s), s * (w - 1)))
        s >>= 1
    return w, tuple(expand), tuple(transpose)


def _decode_rows(n: int, slots: int) -> tuple[int, ...]:
    """The decoder: adjacency rows from an int whose bit p is triangle slot p
    in the encoder's column order, by the masks of ``_row_plan``."""
    w, expand, transpose = _row_plan(n)
    for mask, k in expand:
        t = slots & mask
        slots ^= t ^ t << k
    lower = slots  # row j: the neighbours i < j
    for mask, k in transpose:
        t = (slots ^ slots >> k) & mask
        slots ^= t ^ t << k
    slots |= lower
    row = (1 << w) - 1
    return tuple([slots >> v * w & row for v in range(n)])


def _size_header(n: int) -> list[str]:
    """The graph6 size header of an n-vertex graph, one character per byte."""
    if n <= 62:
        return [chr(63 + n)]
    if n <= 258047:
        return ["~", chr(63 + (n >> 12)), chr(63 + (n >> 6 & 63)), chr(63 + (n & 63))]
    raise ValueError(f"graph6 encoding for n={n} not supported")


def _chunks_to_graph6(n: int, chunks: tuple[int, ...]) -> str:
    """The graph6 string of an n-vertex graph given by its column chunks."""
    out = _size_header(n)
    bits = _render_chunks(chunks)
    bits += "0" * (-len(bits) % 6)
    out.extend(chr(63 + int(bits[k:k + 6], 2)) for k in range(0, len(bits), 6))
    return "".join(out)


def to_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 string (no trailing newline)."""
    _size_header(g.n)  # refuse an n graph6 cannot hold before the O(n^2) column loop
    return _chunks_to_graph6(g.n, _column_chunks(g.adj, g.n))


def from_graph6(text: str) -> Graph:
    """Decode a graph6 string; raises Graph6ParseError with the failing offset."""
    s = text.rstrip("\n")
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
    if not s:
        raise Graph6ParseError("empty graph6 string", 0)
    bad = _BAD_BYTE.search(s)
    if bad:
        code = ord(bad.group())
        raise Graph6ParseError(f"byte {code!r} outside graph6 range 63..126", bad.start())
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
    # the body reversed, each byte's bits reversed: bit p of the int is slot p
    # (padding bits become leading zeros; n <= 1 has no body)
    slots = int(s[body_at:][::-1].translate(_SIX_BITS) or "0", 2)
    return Graph._raw(n, _decode_rows(n, slots))


def to_edge_list_text(g: Graph) -> str:
    """Plain text form: a "n m" header line then one "u v" line per edge.  The
    one writer of the edge lists that ``load_graph_text`` and the CLI read."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _edge_list(lines: list[tuple[int, str]]) -> Graph:
    """The edge-list reader, for ``lines`` whose first holds two integers."""
    head_at, head = lines[0][0], _FIELD.findall(lines[0][1])
    n, m = int(head[0]), int(head[1])
    if n < 0 or m < 0:
        raise Graph6ParseError("header values must be nonnegative", head_at)
    _check_vertex_count(n, VERTEX_CAP)
    if len(lines) - 1 != m:
        raise Graph6ParseError(f"expected {m} edge lines, got {len(lines) - 1}", lines[-1][0])
    adj = [0] * n
    for lineno, line in lines[1:]:
        pair = _FIELD.findall(line)
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
    both ends, after which only blank lines may follow.  The reader is ASCII
    throughout, as graph6 bytes are: lines end at "\n", fields are separated
    and stripped at space, tab and "\r" (so CRLF files read), and an integer is
    ``-?[0-9]+``.  ``str.splitlines``, ``str.split`` and ``int`` would also
    take Unicode line breaks and spaces, "+3", "1_0" and non-ASCII digits."""
    # the nonblank lines, each with its line number from 1: the offset of every error about it
    lines = [(i, ln) for i, ln in enumerate(text.split("\n"), start=1) if ln.strip(_BLANKS)]
    first = lines[0][1].strip(_BLANKS) if lines else ""
    fields = _FIELD.findall(first)
    if len(fields) == 2 and all(map(_INTEGER.fullmatch, fields)):
        return _edge_list(lines)
    if len(lines) > 1:
        raise Graph6ParseError("one graph per input: a second graph6 line follows", lines[1][0])
    return from_graph6(first)

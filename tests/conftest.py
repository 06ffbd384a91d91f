import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from hypothesis import strategies as st

from cliquedeg import Graph, from_edges


def slot_pairs(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def circulant(n, steps):
    """Edges of the circulant graph: i ~ i + s (mod n) for each step s."""
    return sorted({tuple(sorted((i, (i + s) % n))) for i in range(n) for s in steps})


@st.composite
def graphs(draw, min_n=0, max_n=8):
    n = draw(st.integers(min_n, max_n))
    mask = draw(st.integers(0, 2 ** (n * (n - 1) // 2) - 1))
    edges = [pair for k, pair in enumerate(slot_pairs(n)) if mask >> k & 1]
    return from_edges(n, edges)


def graph_of(n, edges) -> Graph:
    return from_edges(n, edges)

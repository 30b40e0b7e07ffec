"""Hypothesis strategies for small graphs and colorings."""
from __future__ import annotations

from hypothesis import strategies as st

from crumby import (
    Coloring,
    Graph,
    graph_from_bitmask,
    graph_from_edge_list,
    is_connected,
    parallel,
    rev,
    series,
)
from crumby.gadgets import E, EdgeLeaf, Parallel, Reverse


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 8) -> Graph:
    """Uniform-ish random graph: a bitmask over the upper triangle."""
    n = draw(st.integers(min_n, max_n))
    mask = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return graph_from_bitmask(n, mask)


@st.composite
def connected_graphs(draw, min_n: int = 1, max_n: int = 8) -> Graph:
    g = draw(graphs(min_n=min_n, max_n=max_n).filter(is_connected))
    return g


@st.composite
def subcubic_graphs(draw, min_n: int = 1, max_n: int = 10) -> Graph:
    """Greedy edge insertion under a degree-3 cap, in a drawn order."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    order = draw(st.permutations(pairs))
    wanted = draw(st.integers(0, (1 << len(pairs)) - 1))
    deg = [0] * n
    edges = []
    for idx, (i, j) in enumerate(order):
        if wanted >> idx & 1 and deg[i] < 3 and deg[j] < 3:
            deg[i] += 1
            deg[j] += 1
            edges.append((i, j))
    return graph_from_edge_list(n, edges)


@st.composite
def colorings_of(draw, g: Graph) -> Coloring:
    reds = draw(st.integers(0, (1 << g.n) - 1))
    return Coloring.from_red_set(g.n, {v for v in range(g.n) if reds >> v & 1})


@st.composite
def graph_coloring_pairs(draw, min_n: int = 1, max_n: int = 8):
    g = draw(graphs(min_n=min_n, max_n=max_n))
    return g, draw(colorings_of(g))


def _joins_terminals(expr) -> bool:
    """Does the expansion put an edge straight between the two terminals?"""
    if isinstance(expr, Reverse):
        return _joins_terminals(expr.child)
    if isinstance(expr, Parallel):
        return any(_joins_terminals(c) for c in expr.children)
    return isinstance(expr, EdgeLeaf)


@st.composite
def sp_expressions(draw, depth: int = 3):
    """Series-parallel expression trees that expand() accepts: a parallel
    composition subdivides every direct terminal edge after its first."""
    if depth == 0:
        return E
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return E
    if kind == 1:
        return rev(draw(sp_expressions(depth=depth - 1)))
    parts = [draw(sp_expressions(depth=depth - 1)) for _ in range(draw(st.integers(2, 3)))]
    if kind == 2:
        return series(*parts)
    direct = [k for k, part in enumerate(parts) if _joins_terminals(part)]
    for k in direct[1:]:
        parts[k] = series(parts[k], E)
    return parallel(*parts)

"""Small graph builders and a memory probe shared by the test modules."""

from __future__ import annotations

import tracemalloc
from typing import Callable

from crumby import Graph, graph_from_edge_list


def path_graph(n: int) -> Graph:
    return graph_from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return graph_from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


# G40 less one edge or one vertex is Unsat exactly for these deletions; the
# other 49 edges and 36 vertices leave it Sat
G40_UNSAT_EDGE_DELETIONS = ((0, 39), (1, 3), (1, 12), (11, 22), (12, 14))
G40_UNSAT_VERTEX_DELETIONS = (0, 1, 11, 12)


def without_edge(g: Graph, edge: tuple[int, int]) -> Graph:
    return graph_from_edge_list(g.n, [e for e in g.edges() if e != edge])


def without_vertex(g: Graph, v: int) -> Graph:
    """g - v, the vertices above v moved down by one."""
    return graph_from_edge_list(
        g.n - 1, [(a - (a > v), b - (b > v)) for a, b in g.edges() if v not in (a, b)]
    )


def g40_unsat_near_misses(g40: Graph) -> list[Graph]:
    """The nine Unsat graphs G40 less one edge or one vertex, edges first."""
    return [without_edge(g40, e) for e in G40_UNSAT_EDGE_DELETIONS] + [
        without_vertex(g40, v) for v in G40_UNSAT_VERTEX_DELETIONS
    ]


def traced_peak(run: Callable[[], object]) -> int:
    """Peak bytes traced while run() runs, above what was traced before it.

    Tracing that is already on (python -X tracemalloc) is left on."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()

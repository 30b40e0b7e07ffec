"""Small graph builders and a memory probe shared by the test modules."""

from __future__ import annotations

import tracemalloc
from typing import Callable

from crumby import Graph, graph_from_edge_list


def path_graph(n: int) -> Graph:
    return graph_from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return graph_from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


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

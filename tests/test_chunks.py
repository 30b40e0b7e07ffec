"""Chunk width is a memory knob: no answer may depend on it.

The colouring sweep (coloring._feasible_masks, whose stream of feasible
masks exhaustive_solve, count_crumby and enumerate_feasible read) runs over
chunks of 1 << coloring._CHUNK_BITS masks.  Each test computes its answers
at the default width, then again with far narrower chunks, so that every
sweep spans many chunk boundaries, and requires the same bytes.  Eight-mask
chunks are used wherever the sweep is small enough; the 2^16- and 2^18-mask
sweeps (the spider, G18) would take tens of seconds at that width and run
at 2^9 instead.
"""

from __future__ import annotations

import pytest

from crumby import (
    BLUE,
    RED,
    Status,
    count_crumby,
    enumerate_feasible,
    exhaustive_solve,
    graph_from_edge_list,
    parse_graph6,
)
from crumby.gadgets import G40_COPIES
import crumby.coloring

NARROW = 3
MEDIUM = 9


def _at_both_widths(monkeypatch, bits: int, compute):
    """compute() at the default chunk width and at 1 << bits entries."""
    default = compute()
    monkeypatch.setattr(crumby.coloring, "_CHUNK_BITS", bits)
    narrow = compute()
    monkeypatch.undo()
    return default, narrow


def _sweeps(graphs) -> list[tuple]:
    """count_crumby and exhaustive_solve's status, nodes and colouring."""
    out = []
    for g in graphs:
        r = exhaustive_solve(g)
        text = r.coloring.to_text() if r.coloring else None
        out.append((count_crumby(g), r.status, r.nodes, text))
    return out


def _spider():
    """Vertex 0 holds two leaves and a 13-vertex path: it is Red in every
    crumby colouring (Blue would leave both leaves Blue), so the sweep's first
    hit has vertex 0's bit, the top one, set."""
    path = [(i, i + 1) for i in range(3, 15)]
    return graph_from_edge_list(16, [(0, 1), (0, 2), (0, 3), *path])


def test_chunk_width_never_changes_a_census_sweep(monkeypatch, census_lines):
    graphs = [parse_graph6(line) for n in range(1, 8) for line in census_lines[n]]
    default, narrow = _at_both_widths(monkeypatch, NARROW, lambda: _sweeps(graphs))
    assert narrow == default


def test_chunk_width_never_changes_the_large_sweeps(monkeypatch, g18):
    spider = _spider()
    default, narrow = _at_both_widths(
        monkeypatch, MEDIUM, lambda: _sweeps([g18.graph, spider])
    )
    assert narrow == default
    (g18_count, g18_status, g18_nodes, _), spider_sweep = default
    assert (g18_count, g18_status, g18_nodes) == (0, Status.UNSAT, 1 << 18)
    # the spider's first hit lies past the first 2^15 masks, so even at the
    # default width it is found in a later chunk than the first
    assert spider_sweep[1] is Status.SAT and spider_sweep[2] > 1 << 15


def _copy_graph(g40, copy: dict[str, int]):
    """The copy's induced subgraph of G40 on 0..k-1, and the local labels of
    its vertices with a neighbour outside the copy."""
    vertices = sorted(copy.values())
    local = {v: i for i, v in enumerate(vertices)}
    edges = [(local[u], local[v]) for u, v in g40.edges() if u in local and v in local]
    boundary = frozenset(
        local[v] for v in vertices if any(u not in local for u in g40.adj[v])
    )
    return graph_from_edge_list(len(vertices), edges), boundary


@pytest.mark.parametrize("name", sorted(G40_COPIES))
def test_chunk_width_never_changes_a_feasible_set(monkeypatch, g40, name):
    g, boundary = _copy_graph(g40.graph, G40_COPIES[name])
    scenarios = [
        (boundary, None, frozenset()),
        (boundary, dict.fromkeys(sorted(boundary), RED), boundary),
        (boundary, dict.fromkeys(sorted(boundary), BLUE), frozenset()),
    ]

    def feasible():
        return [
            [c.to_text() for c in enumerate_feasible(g, *scenario)]
            for scenario in scenarios
        ]

    default, narrow = _at_both_widths(monkeypatch, NARROW, feasible)
    assert narrow == default
    assert len(boundary) == 2 and any(default)

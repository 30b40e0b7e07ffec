"""Naive reference implementations used to cross-check the package.

Everything here trades speed for obviousness: permutations instead of DFS
lowpoints, per-vertex deletion instead of one pass.  Keep inputs small.
"""
from __future__ import annotations

import itertools
from collections.abc import Sequence
from heapq import heappop, heappush

from crumby import (
    Coloring,
    Graph,
    GraphError,
    connected_components,
    edge_bit_index,
    graph_from_edge_list,
)


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> Graph:
    """Subgraph induced on `vertices`, renumbered by position in `vertices`."""
    if len(set(vertices)) != len(vertices):
        raise GraphError("induced vertex list has repeats")
    for v in vertices:
        if not 0 <= v < g.n:
            raise GraphError(f"induced vertex {v} is not in [0, {g.n})")
    index = {v: i for i, v in enumerate(vertices)}
    edges = [
        (index[u], index[v])
        for u, v in g.edges()
        if u in index and v in index
    ]
    return graph_from_edge_list(len(vertices), edges)


def naive_is_crumby(g: Graph, c: Coloring) -> bool:
    """Check the two-color conditions straight from their statement."""
    red = c.red_set()
    blue = set(range(g.n)) - red
    for v in blue:
        if sum(1 for u in g.adj[v] if u in blue) > 1:
            return False
    for v in red:
        if not any(u in red for u in g.adj[v]):
            return False
    for quad in itertools.combinations(sorted(red), 4):
        for p1, p2, p3, p4 in itertools.permutations(quad):
            if g.has_edge(p1, p2) and g.has_edge(p2, p3) and g.has_edge(p3, p4):
                return False
    return True


def naive_relaxed_feasible(
    g: Graph, boundary: frozenset[int], outside_red: frozenset[int], c: Coloring
) -> bool:
    """Check the boundary-relaxed conditions C1-C4 straight from their statement."""
    red = c.red_set()
    blue = set(range(g.n)) - red
    for v in blue:
        if sum(1 for u in g.adj[v] if u in blue) > 1:
            return False
    for v in red - boundary:
        if not any(u in red for u in g.adj[v]):
            return False
    for quad in itertools.combinations(sorted(red), 4):
        for p1, p2, p3, p4 in itertools.permutations(quad):
            if g.has_edge(p1, p2) and g.has_edge(p2, p3) and g.has_edge(p3, p4):
                return False
    for v in outside_red & red:
        for p, q in itertools.permutations(red - {v}, 2):
            if g.has_edge(v, p) and g.has_edge(p, q):
                return False
    return True


def naive_crumby_colorings(g: Graph) -> list[Coloring]:
    """Every crumby coloring of g, by checking all 2^n of them."""
    colorings = (
        Coloring.from_red_set(g.n, {v for v in range(g.n) if bits >> v & 1})
        for bits in range(1 << g.n)
    )
    return [c for c in colorings if naive_is_crumby(g, c)]


def naive_count_crumby(g: Graph) -> int:
    return len(naive_crumby_colorings(g))


def naive_is_bipartite(g: Graph) -> bool:
    """Some 2-coloring of the vertices leaves no edge inside one side."""
    return any(
        all((bits >> u & 1) != (bits >> v & 1) for u, v in g.edges())
        for bits in range(1 << g.n)
    )


def naive_has_k23_minor(g: Graph) -> bool:
    """K2,3 is a minor of g iff g has disjoint connected vertex sets A and B
    and three vertices outside both that each have a neighbor in A and one
    in B.  Given any K2,3 model, cut each of the three small branch sets
    down to a vertex with a neighbor in B and put the rest of a path from
    it to A into A; A stays connected and the sets stay disjoint."""
    nbr = [sum(1 << u for u in g.adj[v]) for v in range(g.n)]
    connected = [m for m in range(1, 1 << g.n) if _is_connected_mask(nbr, m)]
    around = {mask: _union(nbr, mask) for mask in connected}
    for a in connected:
        for b in connected:
            if a < b and not a & b:
                common = around[a] & around[b] & ~(a | b)
                if bin(common).count("1") >= 3:
                    return True
    return False


def _union(nbr: list[int], mask: int) -> int:
    """The vertices with a neighbor in mask, as a mask."""
    out = 0
    for v, around in enumerate(nbr):
        if mask >> v & 1:
            out |= around
    return out


def _is_connected_mask(nbr: list[int], mask: int) -> bool:
    """mask induces a connected subgraph (grown from its lowest vertex)."""
    seen = mask & -mask
    while True:
        grown = seen | (_union(nbr, seen) & mask)
        if grown == seen:
            return seen == mask
        seen = grown


def naive_cut_vertices(g: Graph) -> list[int]:
    """v is a cut vertex iff deleting it increases the component count."""
    base = len(connected_components(g))
    cuts = []
    for v in range(g.n):
        if g.degree(v) == 0:
            continue
        rest = [u for u in range(g.n) if u != v]
        if len(connected_components(induced_subgraph(g, rest))) > base:
            cuts.append(v)
    return cuts


def naive_p4_set(g: Graph) -> set[tuple[int, int, int, int]]:
    """Orientation-canonical 4-vertex paths by brute permutation."""
    out = set()
    for p1, p2, p3, p4 in itertools.permutations(range(g.n), 4):
        if g.has_edge(p1, p2) and g.has_edge(p2, p3) and g.has_edge(p3, p4):
            out.add(min((p1, p2, p3, p4), (p4, p3, p2, p1)))
    return out


def naive_isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.n != g2.n or g1.m != g2.m:
        return False
    e2 = {frozenset(e) for e in g2.edges()}
    for perm in itertools.permutations(range(g1.n)):
        if all(frozenset((perm[u], perm[v])) in e2 for u, v in g1.edges()):
            return True
    return False


def graph_of_mask(n: int, mask: int) -> Graph:
    """The graph of an edge bitmask, its slots walked column by column."""
    slots = [(i, j) for j in range(1, n) for i in range(j)]
    return graph_from_edge_list(n, [e for k, e in enumerate(slots) if mask >> k & 1])


def naive_orbit_min(n: int, mask: int) -> int:
    """Least edge bitmask of K_n over all n! relabellings of mask."""
    edges = [(a, b) for b in range(n) for a in range(b) if mask >> edge_bit_index(a, b) & 1]
    return min(
        sum(1 << edge_bit_index(perm[a], perm[b]) for a, b in edges)
        for perm in itertools.permutations(range(n))
    )


def reference_elimination_order(g: Graph) -> tuple[int, ...] | None:
    """find_elimination_order as it was before _eliminate was inlined into
    it: a set per vertex, and every deletion joins the deleted vertex's
    remaining neighbours pairwise.  Lowest eligible index first."""
    nbr = [set(row) for row in g.adj]
    queued = [len(row) <= 2 for row in nbr]
    ready = [v for v in range(g.n) if queued[v]]
    order = []
    while ready:
        v = heappop(ready)
        order.append(v)
        for u in _eliminate(nbr, v):
            if not queued[u] and len(nbr[u]) <= 2:
                queued[u] = True
                heappush(ready, u)
    return tuple(order) if len(order) == g.n else None


def _eliminate(nbr: list[set[int]], v: int) -> tuple[int, ...]:
    """Delete v and join its remaining neighbors pairwise; returns those
    neighbors, sorted."""
    rem = tuple(sorted(nbr[v]))
    for u in rem:
        nbr[u].discard(v)
    for a, b in itertools.combinations(rem, 2):
        nbr[a].add(b)
        nbr[b].add(a)
    nbr[v] = set()
    return rem


def first_missing_reverse(adj: Sequence[Sequence[int]]) -> tuple[int, int] | None:
    """The first entry u of a row v, in row-major order, whose row u lacks
    v; None when every entry has its reverse."""
    rows = [set(row) for row in adj]
    for v, row in enumerate(adj):
        for u in row:
            if v not in rows[u]:
                return v, u
    return None


def reference_graph_from_edge_list(n: int, edges) -> Graph:
    """graph_from_edge_list with a set of every edge seen: each edge in
    input order is checked for range, then for a loop, then for a repeat,
    so the first faulty edge names the error."""
    if n < 0:
        raise GraphError("vertex count must be non-negative")
    seen: set[tuple[int, int]] = set()
    rows: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge {u}-{v} out of range for n={n}")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphError(f"duplicate edge {key[0]}-{key[1]}")
        seen.add(key)
        rows[u].append(v)
        rows[v].append(u)
    return Graph(n, tuple(tuple(sorted(row)) for row in rows))

"""Undirected simple graphs and the structural checks the package builds on.

Vertices are the integers 0..n-1.  A Graph stores sorted adjacency tuples and
validates itself on construction, so every Graph in the system is simple
(no loops, no parallel edges) with a symmetric adjacency relation.

Text formats supported here:

* edge list   -- first data line "n m", then m lines "u v"; '#' starts a
                 comment line; blank lines are ignored.
* graph6      -- Brendan McKay's format, single-byte length header only
                 (n <= 62).  Parsing is strict: bad bytes, wrong length and
                 nonzero padding are all rejected with distinct messages.
* DOT         -- undirected `graph { ... }` output with optional vertex
                 labels and optional red/lightblue fill from a coloring.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence, TYPE_CHECKING

from .errors import CapExceeded, Graph6Error, GraphError

if TYPE_CHECKING:  # pragma: no cover
    from .coloring import Coloring


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph as sorted adjacency tuples."""

    n: int
    adj: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise GraphError("vertex count must be non-negative")
        if len(self.adj) != self.n:
            raise GraphError(
                f"adjacency has {len(self.adj)} rows for {self.n} vertices"
            )
        for v, row in enumerate(self.adj):
            prev = -1
            for u in row:
                if not 0 <= u < self.n:
                    raise GraphError(f"neighbor {u} of vertex {v} out of range")
                if u == v:
                    raise GraphError(f"self-loop at vertex {v}")
                if u <= prev:
                    raise GraphError(f"adjacency row of {v} not sorted/duplicate-free")
                prev = u
        neighbor_sets = [set(row) for row in self.adj]
        for v, row in enumerate(self.adj):
            for u in row:
                if v not in neighbor_sets[u]:
                    raise GraphError(f"edge {v}-{u} has no reverse entry")

    @property
    def m(self) -> int:
        return sum(len(row) for row in self.adj) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def max_degree(self) -> int:
        return max((len(row) for row in self.adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edges(self) -> list[tuple[int, int]]:
        return [(v, u) for v in range(self.n) for u in self.adj[v] if v < u]


def graph_from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from an edge iterable, rejecting malformed input.

    Self-loops, duplicate edges (in either orientation) and out-of-range
    endpoints each get their own diagnostic.
    """
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


def relabel(g: Graph, mapping: Sequence[int]) -> Graph:
    """Apply the bijection old -> mapping[old] to the vertex set."""
    if sorted(mapping) != list(range(g.n)):
        raise GraphError("relabeling is not a permutation of the vertex set")
    return graph_from_edge_list(g.n, [(mapping[u], mapping[v]) for u, v in g.edges()])


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> Graph:
    """Subgraph induced on `vertices`, renumbered by position in `vertices`."""
    if len(set(vertices)) != len(vertices):
        raise GraphError("induced vertex list has repeats")
    index = {v: i for i, v in enumerate(vertices)}
    edges = [
        (index[u], index[v])
        for u, v in g.edges()
        if u in index and v in index
    ]
    return graph_from_edge_list(len(vertices), edges)


def complete_graph(n: int) -> Graph:
    return graph_from_edge_list(n, combinations(range(n), 2))


def complete_bipartite(a: int, b: int) -> Graph:
    return graph_from_edge_list(a + b, [(i, a + j) for i in range(a) for j in range(b)])


# -- bitmask form ------------------------------------------------------------
#
# Edge (i, j) with i < j maps to bit j*(j-1)//2 + i.  This is the column order
# of the graph6 upper triangle: graph6 text is this mask, six bits a byte.


def edge_bit_index(i: int, j: int) -> int:
    if i > j:
        i, j = j, i
    return j * (j - 1) // 2 + i


def graph_from_bitmask(n: int, mask: int) -> Graph:
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if mask >> idx & 1:
                edges.append((i, j))
            idx += 1
    if mask >> idx:
        raise GraphError(f"bitmask has bits beyond the {idx} edge slots of n={n}")
    return graph_from_edge_list(n, edges)


def bitmask_of_graph(g: Graph) -> int:
    mask = 0
    for u, v in g.edges():
        mask |= 1 << edge_bit_index(u, v)
    return mask


# -- edge list text ----------------------------------------------------------

EDGE_LIST_MAX_N = 1_000_000


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text; a header n above EDGE_LIST_MAX_N is refused with
    CapExceeded before anything is allocated for it."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append((lineno, line))
    if not rows:
        raise GraphError("edge list text has no data lines")
    lineno, header = rows[0]
    parts = header.split()
    if len(parts) != 2:
        raise GraphError(f"line {lineno}: header must be 'n m'")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise GraphError(f"line {lineno}: header must be two integers") from exc
    if n > EDGE_LIST_MAX_N:
        raise CapExceeded(
            f"edge lists are capped at n <= {EDGE_LIST_MAX_N} vertices, got {n}"
        )
    if len(rows) - 1 != m:
        raise GraphError(f"header promises {m} edges, found {len(rows) - 1}")
    edges = []
    for lineno, line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: edge line must be 'u v'")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise GraphError(f"line {lineno}: edge endpoints must be integers") from exc
    return graph_from_edge_list(n, edges)


def emit_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


# -- graph6 ------------------------------------------------------------------

_G6_MAX_N = 62


def emit_graph6(g: Graph) -> str:
    """Encode as a one-line graph6 string (single-byte header, n <= 62)."""
    if g.n > _G6_MAX_N:
        raise Graph6Error(f"graph6 support is capped at n <= {_G6_MAX_N}, got {g.n}")
    nbits = g.n * (g.n - 1) // 2
    mask = bitmask_of_graph(g)
    bits = "".join(str(mask >> idx & 1) for idx in range(nbits))
    bits += "0" * (-nbits % 6)
    return chr(g.n + 63) + "".join(
        chr(int(bits[k : k + 6], 2) + 63) for k in range(0, len(bits), 6)
    )


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line.  Strict: rejects anything off-spec."""
    s = line.rstrip("\n")
    if not s:
        raise Graph6Error("empty graph6 line")
    for ch in s:
        code = ord(ch)
        if code < 63 or code > 126:
            raise Graph6Error(f"byte {code} outside the printable graph6 range")
    if s[0] == "~":
        raise Graph6Error(f"multi-byte length header (n > {_G6_MAX_N}) not supported")
    n = ord(s[0]) - 63
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(s) - 1 != nbytes:
        raise Graph6Error(
            f"expected {nbytes} adjacency bytes for n={n}, found {len(s) - 1}"
        )
    bits = "".join(f"{ord(ch) - 63:06b}" for ch in s[1:])
    if "1" in bits[nbits:]:
        raise Graph6Error("nonzero padding bits")
    # graph6 bit idx is mask bit idx, so the bit string read backwards
    return graph_from_bitmask(n, int(bits[:nbits][::-1] or "0", 2))


# -- DOT ---------------------------------------------------------------------


def emit_dot(
    g: Graph,
    labels: dict[int, str] | None = None,
    coloring: "Coloring | None" = None,
) -> str:
    """Deterministic DOT text.  Red vertices fill red, blue fill lightblue."""
    lines = ["graph G {"]
    if labels is not None or coloring is not None:
        red: set[int] = set()
        if coloring is not None:
            from .coloring import Color  # local import keeps modules acyclic

            if len(coloring.colors) != g.n:
                raise GraphError("coloring length does not match vertex count")
            red = {v for v, c in enumerate(coloring.colors) if c is Color.RED}
        for v in range(g.n):
            attrs = []
            if labels is not None:
                attrs.append(f'label="{labels.get(v, str(v))}"')
            if coloring is not None:
                fill = "red" if v in red else "lightblue"
                attrs.append(f'style=filled, fillcolor="{fill}"')
            lines.append(f"  {v} [{', '.join(attrs)}];")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- connectivity ------------------------------------------------------------


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex partition into components, each sorted, ordered by minimum."""
    seen = [False] * g.n
    comps = []
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        comp = [root]
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for u in g.adj[v]:
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
                    queue.append(u)
        comps.append(sorted(comp))
    return comps


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) <= 1


def blocks(g: Graph) -> list[list[int]]:
    """The blocks of g as sorted vertex lists, in ascending order: its
    maximal 2-connected subgraphs, its bridges and its isolated vertices.

    One lowpoint DFS on explicit stacks (Hopcroft & Tarjan, CACM 16(6),
    1973): `path` is the tree path from the root, `pos[v]` the next
    neighbour of v to try, and `pending` the visited vertices not yet in a
    block.  When a child v of p finishes with low[v] >= disc[p], p and the
    vertices from v up on `pending` form a block.
    """
    disc = [-1] * g.n
    low = [0] * g.n
    pos = [0] * g.n
    out = []
    timer = 0
    for root in range(g.n):
        if disc[root] != -1:
            continue
        disc[root] = timer
        timer += 1
        if not g.adj[root]:
            out.append([root])
            continue
        path = [root]
        pending = [root]
        while path:
            v = path[-1]
            if pos[v] < len(g.adj[v]):
                u = g.adj[v][pos[v]]
                pos[v] += 1
                if disc[u] == -1:
                    disc[u] = low[u] = timer
                    timer += 1
                    path.append(u)
                    pending.append(u)
                else:
                    low[v] = min(low[v], disc[u])
                continue
            path.pop()
            if path:
                p = path[-1]
                low[p] = min(low[p], low[v])
                if low[v] >= disc[p]:
                    block = [p]
                    while block[-1] != v:
                        block.append(pending.pop())
                    out.append(sorted(block))
    return sorted(out)


def cut_vertices(g: Graph) -> list[int]:
    """Articulation vertices: those that lie in two or more blocks."""
    count = [0] * g.n
    for block in blocks(g):
        for v in block:
            count[v] += 1
    return [v for v in range(g.n) if count[v] >= 2]


def is_biconnected(g: Graph) -> bool:
    """True iff n >= 3 and g is a single block."""
    return g.n >= 3 and len(blocks(g)) == 1


@dataclass(frozen=True)
class EarDecomposition:
    """An initial cycle plus open ears.

    The cycle is written closed (first vertex repeated at the end).  Every
    ear is a path of >= 2 vertices whose endpoints are distinct and already
    built; a 2-vertex ear is a chord.
    """

    initial_cycle: tuple[int, ...]
    ears: tuple[tuple[int, ...], ...]


def verify_ear_decomposition(g: Graph, d: EarDecomposition) -> tuple[bool, str | None]:
    """Check that `d` is an open ear decomposition covering g exactly.

    Returns (True, None) or (False, reason).  A valid decomposition is a
    certificate of 2-connectedness.
    """
    cyc = d.initial_cycle
    if len(cyc) < 4 or cyc[0] != cyc[-1]:
        return False, "initial cycle must be closed with >= 3 distinct vertices"
    body = cyc[:-1]
    if len(set(body)) != len(body):
        return False, "initial cycle revisits a vertex"
    used: set[tuple[int, int]] = set()

    def take_edge(u: int, v: int) -> str | None:
        if u == v or not (0 <= u < g.n) or not (0 <= v < g.n):
            return f"bad edge {u}-{v}"
        if not g.has_edge(u, v):
            return f"{u}-{v} is not an edge of the graph"
        key = (u, v) if u < v else (v, u)
        if key in used:
            return f"edge {key[0]}-{key[1]} used twice"
        used.add(key)
        return None

    for a, b in zip(cyc, cyc[1:]):
        err = take_edge(a, b)
        if err:
            return False, f"initial cycle: {err}"
    built = set(body)
    for k, ear in enumerate(d.ears):
        if len(ear) < 2:
            return False, f"ear {k} has fewer than 2 vertices"
        if ear[0] == ear[-1]:
            return False, f"ear {k} endpoints coincide (ears must be open)"
        if ear[0] not in built or ear[-1] not in built:
            return False, f"ear {k} endpoint not in the built subgraph"
        interior = ear[1:-1]
        if len(set(interior)) != len(interior):
            return False, f"ear {k} revisits an interior vertex"
        for v in interior:
            if v in built:
                return False, f"ear {k} interior vertex {v} already built"
        for a, b in zip(ear, ear[1:]):
            err = take_edge(a, b)
            if err:
                return False, f"ear {k}: {err}"
        built.update(interior)
    if built != set(range(g.n)):
        missing = sorted(set(range(g.n)) - built)
        return False, f"vertices not covered: {missing}"
    if len(used) != g.m:
        return False, f"covers {len(used)} of {g.m} edges"
    return True, None


def is_bipartite(g: Graph) -> tuple[bool, list[int]]:
    """BFS 2-coloring.

    Returns (True, side list of 0/1) or (False, odd cycle as a distinct
    vertex list; consecutive entries and the wrap-around pair are edges).
    """
    side = [-1] * g.n
    parent = [-1] * g.n
    for root in range(g.n):
        if side[root] != -1:
            continue
        side[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for u in g.adj[v]:
                if side[u] == -1:
                    side[u] = side[v] ^ 1
                    parent[u] = v
                    queue.append(u)
                elif side[u] == side[v]:
                    # conflict edge joins equal BFS depths; climb to the LCA
                    pu, pv = [u], [v]
                    while pu[-1] != pv[-1]:
                        pu.append(parent[pu[-1]])
                        pv.append(parent[pv[-1]])
                    cycle = pu[:-1] + list(reversed(pv))
                    return False, cycle
    return True, side


# -- paths on four vertices --------------------------------------------------


def enumerate_p4(g: Graph) -> list[tuple[int, int, int, int]]:
    """All paths on 4 distinct vertices, one orientation each.

    A path (p1,p2,p3,p4) is kept iff (p1,p2,p3,p4) <= (p4,p3,p2,p1); output
    is sorted.  These are subgraph paths: chords among the four vertices are
    allowed.
    """
    out = []
    for p1 in range(g.n):
        for p2 in g.adj[p1]:
            for p3 in g.adj[p2]:
                if p3 == p1:
                    continue
                for p4 in g.adj[p3]:
                    if p4 == p1 or p4 == p2:
                        continue
                    walk = (p1, p2, p3, p4)
                    if walk <= (p4, p3, p2, p1):
                        out.append(walk)
    return sorted(out)

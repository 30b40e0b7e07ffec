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
                 labels.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .errors import CapExceeded, Graph6Error, GraphError


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
        if not _symmetric(self.adj):
            for v, row in enumerate(self.adj):
                for u in row:
                    if not _has_entry(self.adj[u], v):
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


# rows at least this long are bisected, so that a star's reverse-entry check
# costs O(m log n) and not O(m n)
_SCAN_MAX = 16


def _has_entry(row: tuple[int, ...], v: int) -> bool:
    """v is in the sorted row."""
    if len(row) < _SCAN_MAX:
        return v in row
    k = bisect_left(row, v)
    return k < len(row) and row[k] == v


def _symmetric(adj: tuple[tuple[int, ...], ...]) -> bool:
    """Every entry has its reverse, for sorted, loop-free, duplicate-free rows.

    Only the entries below the diagonal (u < v in row v) are looked up.  If
    each has its reverse and they are half of all entries, then reversal
    maps them one to one onto the entries above the diagonal, so those have
    their reverses too."""
    lower = 0
    for v, row in enumerate(adj):
        for u in row:
            if u > v:
                break
            lower += 1
            near = adj[u]  # _has_entry, written out for the short rows
            if v not in near if len(near) < _SCAN_MAX else not _has_entry(near, v):
                return False
    return 2 * lower == sum(map(len, adj))


def graph_from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from an edge iterable, rejecting malformed input.

    Self-loops, duplicate edges (in either orientation) and out-of-range
    endpoints each get their own diagnostic, for the first faulty edge in
    input order.  No edge set is kept: the rows are filled unchecked and
    Graph rejects any fault in them (a duplicate shows as two equal
    neighbours in a sorted row); only then is the input walked again to
    name the first fault.
    """
    if n < 0:
        raise GraphError("vertex count must be non-negative")
    if not isinstance(edges, (list, tuple)):
        edges = list(edges)  # walked again if it holds a fault
    rows: list = [[] for _ in range(n)]
    try:
        for u, v in edges:
            # an endpoint at n or past it misses rows; a negative one at
            # least -n lands in a row, but its entry is out of Graph's range
            rows[u].append(v)
            rows[v].append(u)
        # each row becomes its sorted tuple in place, so the lists and the
        # tuples are never all alive together
        for v, row in enumerate(rows):
            row.sort()
            rows[v] = tuple(row)
        return Graph(n, tuple(rows))
    except (IndexError, TypeError, ValueError):
        fault = _first_fault(n, edges)
        if fault is None:  # an edge that is not a pair of ints
            raise
        raise fault from None


def _first_fault(n: int, edges: Sequence[tuple[int, int]]) -> GraphError | None:
    """The error for the first edge that is out of range, a self-loop or a
    repeat of an earlier one, in input order; None if there is none."""
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            return GraphError(f"edge {u}-{v} out of range for n={n}")
        if u == v:
            return GraphError(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            return GraphError(f"duplicate edge {key[0]}-{key[1]}")
        seen.add(key)
    return None


def relabel(g: Graph, mapping: Sequence[int]) -> Graph:
    """Apply the bijection old -> mapping[old] to the vertex set."""
    if sorted(mapping) != list(range(g.n)):
        raise GraphError("relabeling is not a permutation of the vertex set")
    return graph_from_edge_list(g.n, [(mapping[u], mapping[v]) for u, v in g.edges()])


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


def bitmask_of_graph(g: Graph) -> int:
    mask = 0
    for u, v in g.edges():
        mask |= 1 << edge_bit_index(u, v)
    return mask


def _twin_classes(adj: Sequence[int]) -> list[int]:
    """The twin classes of the graph with neighbour bitsets adj, as bitsets.

    u and v are twins when N(u) - {v} = N(v) - {u}, whether they are
    adjacent (true twins) or not (false twins).  The relation is an
    equivalence, and swapping two twins is an automorphism, so every
    permutation inside a class is one too.  The census prunes its children
    and has_minor orders its seeds by these classes.
    """
    classes = []
    left = (1 << len(adj)) - 1
    while left:
        u = (left & -left).bit_length() - 1
        members = 0
        rest = left
        while rest:
            bit = rest & -rest
            rest ^= bit
            if not (adj[u] ^ adj[bit.bit_length() - 1]) & ~(bit | 1 << u):
                members |= bit
        left ^= members
        classes.append(members)
    return classes


# -- edge list text ----------------------------------------------------------

EDGE_LIST_MAX_N = 1_000_000


def _data_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) for each line that is neither blank nor
    a '#' comment; edge lists, certificates and one-graph files read this."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text; a header n above EDGE_LIST_MAX_N is refused with
    CapExceeded before anything is allocated for it."""
    rows = list(_data_lines(text))
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
_G6_BITS = {63 + k: f"{k:06b}" for k in range(64)}  # graph6 byte -> its 6 bits
_G6_BYTES = frozenset(map(chr, _G6_BITS))  # the 64 characters of graph6 text


def emit_graph6(g: Graph) -> str:
    """Encode as a one-line graph6 string (single-byte header, n <= 62)."""
    if g.n > _G6_MAX_N:
        raise Graph6Error(f"graph6 support is capped at n <= {_G6_MAX_N}, got {g.n}")
    return _graph6_of_mask(g.n, bitmask_of_graph(g))


def _graph6_of_mask(n: int, mask: int) -> str:
    """The graph6 line of the n-vertex graph with edge mask `mask`."""
    nbits = n * (n - 1) // 2
    padded = nbits + -nbits % 6
    bits = format(mask, f"0{padded}b")[::-1] if padded else ""
    return chr(n + 63) + "".join(
        chr(int(bits[k : k + 6], 2) + 63) for k in range(0, len(bits), 6)
    )


# the edge (i, j) of each graph6 bit in bit order (see edge_bit_index); the
# first n(n-1)/2 entries are the slots of every order n <= 62
_G6_SLOTS = tuple((i, j) for j in range(1, _G6_MAX_N) for i in range(j))


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line.  Strict: rejects anything off-spec."""
    s = line.rstrip("\n")
    if not s:
        raise Graph6Error("empty graph6 line")
    if not _G6_BYTES.issuperset(s):
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
    bits = s[1:].translate(_G6_BITS)
    if "1" in bits[nbits:]:
        raise Graph6Error("nonzero padding bits")
    # slots run column by column, so every row is filled in ascending order;
    # a slot is one pair i < j, so no loop or duplicate edge can arise
    rows: list[list[int]] = [[] for _ in range(n)]
    k = bits.find("1")
    while k >= 0:
        i, j = _G6_SLOTS[k]
        rows[i].append(j)
        rows[j].append(i)
        k = bits.find("1", k + 1)
    return Graph(n, tuple(map(tuple, rows)))


# -- DOT ---------------------------------------------------------------------


def emit_dot(g: Graph, labels: dict[int, str] | None = None) -> str:
    """Deterministic DOT text."""
    lines = ["graph G {"]
    if labels is not None:
        for v in range(g.n):
            lines.append(f'  {v} [label="{labels.get(v, str(v))}"];')
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- connectivity ------------------------------------------------------------


def connected_components(
    g: Graph, within: frozenset[int] | None = None
) -> list[list[int]]:
    """Vertex partition into components, each sorted, ordered by minimum;
    with `within`, the components of the induced subgraph G[within], read
    in place and named by their vertices in g."""
    seen = [False] * g.n if within is None else [v not in within for v in range(g.n)]
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
    """One search from vertex 0 reaches every vertex (True when n = 0)."""
    if g.n == 0:
        return True
    seen = [False] * g.n
    seen[0] = True
    stack = [0]
    reached = 1
    while stack:
        for u in g.adj[stack.pop()]:
            if not seen[u]:
                seen[u] = True
                reached += 1
                stack.append(u)
    return reached == g.n


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


# enumerate_p4 refuses a graph that may have more P4s than this: both search
# solvers and encode_cnf hold every P4 (backtracking about 400 bytes each);
# encode_cnf also refuses more neighbour pairs than this, one clause each
P4_CAP = 1_000_000


def enumerate_p4(g: Graph) -> list[tuple[int, int, int, int]]:
    """All paths on 4 distinct vertices, one orientation each.

    A path (p1,p2,p3,p4) is kept iff (p1,p2,p3,p4) <= (p4,p3,p2,p1); output
    ascends.  These are subgraph paths: chords among the four vertices are
    allowed.

    Before the walk, _check_p4_cap refuses more than P4_CAP of them.
    """
    _check_p4_cap(g)
    return list(_walk_p4(g.adj))


def _check_p4_cap(g: Graph) -> None:
    """CapExceeded if the sum over edges uv of (d(u)-1)(d(v)-1), which
    bounds the P4 count and exceeds it by three per triangle, is above P4_CAP."""
    out = [len(row) - 1 for row in g.adj]  # d(v) - 1
    bound = sum(out[v] * out[u] for v, row in enumerate(g.adj) for u in row if v < u)
    if bound > P4_CAP:
        raise CapExceeded(
            f"graphs are capped at {P4_CAP} P4s (paths on four vertices);"
            f" this one may have up to {bound}"
        )


def _walk_p4(adj: Sequence[Sequence[int]]) -> Iterator[tuple[int, int, int, int]]:
    """enumerate_p4's paths, one at a time, of the graph whose adjacency rows
    are `adj`.  Rows are sorted, so the nested walk meets the paths in
    ascending order."""
    for p1, row in enumerate(adj):
        for p2 in row:
            for p3 in adj[p2]:
                if p3 == p1:
                    continue
                for p4 in adj[p3]:
                    # the four vertices are distinct, so the walk is the
                    # lesser of its two directions exactly when p1 < p4
                    if p1 < p4 and p4 != p2:
                        yield p1, p2, p3, p4

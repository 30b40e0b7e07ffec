"""Seeded inputs for the survey and certify workloads, as graph6 text.

Everything here is plain Python on edge lists.  The package under test is
used only to build G18 and G40 and to compute the survey's reference
verdicts, with dpll_solve, which the timed path does not run for
satisfiable lines.  The same seed always yields the same lines in the same
order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Vertex range of the generated survey graphs: the package targets small
# graphs (exhaustive solving is capped at 24 vertices, minor search at ~20).
MIN_N, MAX_N = 8, 30


# -- graph6 ---------------------------------------------------------------------


def graph6(n: int, edges) -> str:
    """Standard one-byte-header graph6 encoding (n <= 62)."""
    adj = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (i, j) in adj else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        value = 0
        for b in bits[k : k + 6]:
            value = value << 1 | b
        out.append(chr(value + 63))
    return "".join(out)


def relabeled(edges, perm):
    return [(perm[u], perm[v]) for u, v in edges]


def shuffled_labels(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def bfs_labels(rng: random.Random, n: int, edges, root: int) -> list[int]:
    """old -> new labels in breadth-first order from `root`, with seeded
    neighbor order (the graph must be connected)."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    order, seen = [root], {root}
    head = 0
    while head < len(order):
        nbrs = adj[order[head]][:]
        head += 1
        rng.shuffle(nbrs)
        for u in nbrs:
            if u not in seen:
                seen.add(u)
                order.append(u)
    if len(order) != n:
        raise ValueError("bfs_labels needs a connected graph")
    perm = [0] * n
    for new, old in enumerate(order):
        perm[old] = new
    return perm


def is_connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == n


# -- degree-aware series-parallel growth ------------------------------------------


class _Grower:
    """A connected multigraph-free edge set grown by operations that keep
    the maximum degree at most 3 and never raise the treewidth above
    max(2, current treewidth):

    * subdivide an edge;
    * hang a pendant vertex on a vertex of degree <= 2;
    * add an ear (a new path) between the ends of an edge whose ends both
      have degree <= 2 -- a parallel composition;
    * hang a cycle through a vertex of degree <= 1.
    """

    def __init__(self, rng: random.Random, n: int, edges) -> None:
        self.rng = rng
        self.n = n
        self.edges = [tuple(e) for e in edges]
        self.deg = [0] * n
        for u, v in self.edges:
            self.deg[u] += 1
            self.deg[v] += 1

    def _new(self) -> int:
        self.deg.append(0)
        self.n += 1
        return self.n - 1

    def _add(self, u: int, v: int) -> None:
        self.edges.append((u, v))
        self.deg[u] += 1
        self.deg[v] += 1

    def _path(self, u: int, v: int, k: int) -> None:
        prev = u
        for _ in range(k):
            w = self._new()
            self._add(prev, w)
            prev = w
        self._add(prev, v)

    def grow(self, target: int) -> None:
        rng = self.rng
        while self.n < target:
            room = target - self.n
            op = rng.random()
            if op < 0.45:
                ears = [e for e in self.edges if self.deg[e[0]] <= 2 and self.deg[e[1]] <= 2]
                if ears:
                    u, v = rng.choice(ears)
                    self._path(u, v, rng.randint(1, min(room, 4)))
                    continue
            if op < 0.60 and room >= 2:
                low = [v for v in range(self.n) if self.deg[v] <= 1]
                if low:
                    self._path_cycle(rng.choice(low), rng.randint(2, min(room, 5)))
                    continue
            if op < 0.75:
                free = [v for v in range(self.n) if self.deg[v] <= 2]
                if free:
                    self._add(rng.choice(free), self._new())
                    continue
            self.subdivide()

    def subdivide(self) -> None:
        """Replace a random edge by a path of length 2."""
        u, v = self.edges.pop(self.rng.randrange(len(self.edges)))
        self.deg[u] -= 1
        self.deg[v] -= 1
        self._path(u, v, 1)

    def _path_cycle(self, u: int, k: int) -> None:
        first = self._new()
        self._add(u, first)
        self._path(first, u, k - 1)


def sp_subcubic(rng: random.Random, target: int) -> list[tuple[int, int]]:
    """Connected, max degree <= 3, treewidth <= 2, exactly `target` vertices."""
    start = rng.randint(3, 5)
    g = _Grower(rng, start, [(i, (i + 1) % start) for i in range(start)])
    g.grow(target)
    return g.edges


def _subdivided_core(rng: random.Random, core_n: int, core_edges, target: int):
    """Subdivide the core's edges at random, then grow decorations up to
    `target` vertices; the core survives as a topological minor."""
    extra = rng.randint(0, max(0, min(len(core_edges), target - core_n - 2)))
    g = _Grower(rng, core_n, core_edges)
    for _ in range(extra):
        g.subdivide()
    g.grow(target)
    return g.n, g.edges


K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
K33_EDGES = [(a, b) for a in range(3) for b in range(3, 6)]


def random_cubic(rng: random.Random, n: int):
    """Connected simple cubic graph on n (even) vertices by pairing."""
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        pairs = {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2])}
        if len(pairs) == 3 * n // 2 and all(a != b for a, b in pairs):
            edges = sorted(pairs)
            if is_connected(n, edges):
                return edges


def treewidth3_subcubic(rng: random.Random, target: int):
    """Connected subcubic graph with a K4 minor (so treewidth >= 3)."""
    kind = rng.randrange(3)
    if kind == 0:
        return _subdivided_core(rng, 4, K4_EDGES, target)
    if kind == 1:
        return _subdivided_core(rng, 6, K33_EDGES, target)
    n = target + (target % 2)  # min degree 3 forces treewidth >= 3
    return n, random_cubic(rng, n)


def high_degree(rng: random.Random, target: int):
    """Connected graph with one vertex of degree 4 (pendants on a hub)."""
    n = target - 1
    edges = sp_subcubic(rng, n)
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    top = max(deg)
    hub = rng.choice([v for v in range(n) if deg[v] == top])
    for leaf in range(n, n + 4 - top):
        edges.append((hub, leaf))
    return n + 4 - top, edges


def malformed(rng: random.Random, line: str) -> str:
    """A non-empty line that no strict graph6 parser accepts."""
    if rng.random() < 0.5:
        return line[:-1]  # one adjacency byte short
    pos = rng.randrange(1, len(line))
    return line[:pos] + rng.choice("!#$%&*") + line[pos + 1 :]  # bytes below 63


# -- survey corpus ----------------------------------------------------------------


@dataclass(frozen=True)
class SurveyCorpus:
    lines: tuple[str, ...]
    per_n: tuple[tuple[int, int, int, int], ...]  # (n, tested, sat, unsat)
    unsat: tuple[str, ...]  # planted unsat lines, in stream order
    filtered_out: int
    skipped: int


def _sizes(rng: random.Random, count: int) -> list[int]:
    """`count` vertex counts spread evenly over MIN_N..MAX_N, shuffled."""
    sizes = [MIN_N + i % (MAX_N - MIN_N + 1) for i in range(count)]
    rng.shuffle(sizes)
    return sizes


def survey_corpus(
    seed: int, accepted: int, treewidth3: int, degree4: int, bad: int
) -> SurveyCorpus:
    """Shuffle the planted shares; expected verdicts come from dpll_solve."""
    from crumby.coloring import Status, dpll_solve
    from crumby.graphs import graph_from_edge_list

    rng = random.Random(seed)
    plan = [
        (kind, size)
        for kind, count in (("ok", accepted), ("tw3", treewidth3), ("deg4", degree4), ("bad", bad))
        for size in _sizes(rng, count)
    ]
    rng.shuffle(plan)
    lines, verdicts = [], {}
    unsat = []
    for kind, target in plan:
        if kind == "tw3":
            n, edges = treewidth3_subcubic(rng, target)
        elif kind == "deg4":
            n, edges = high_degree(rng, target)
        else:
            n, edges = target, sp_subcubic(rng, target)
        edges = relabeled(edges, shuffled_labels(rng, n))
        line = graph6(n, edges)
        if kind == "bad":
            line = malformed(rng, line)
        elif kind == "ok":
            status = dpll_solve(graph_from_edge_list(n, edges)).status
            row = verdicts.setdefault(n, [0, 0, 0])
            row[0] += 1
            row[1 if status is Status.SAT else 2] += 1
            if status is Status.UNSAT:
                unsat.append(line)
        lines.append(line)
    return SurveyCorpus(
        lines=tuple(lines),
        per_n=tuple((n, *row) for n, row in sorted(verdicts.items())),
        unsat=tuple(unsat),
        filtered_out=treewidth3 + degree4,
        skipped=bad,
    )


# -- certify instances --------------------------------------------------------------


def certify_instances(seed: int) -> list[str]:
    """Breadth-first relabelings of G18 and G40, one from each root vertex,
    with seeded neighbor order and instance order, as graph6.

    The root decides most of a relabeling's search cost, so covering every
    root once keeps the batch's work nearly the same from seed to seed.
    Every line is isomorphic to G18 or G40, so every answer must be unsat.
    """
    from crumby.gadgets import build_G18, build_G40

    rng = random.Random(seed)
    out = []
    for build in (build_G18, build_G40):
        g = build().graph
        edges = g.edges()
        for root in range(g.n):
            out.append(graph6(g.n, relabeled(edges, bfs_labels(rng, g.n, edges, root))))
    rng.shuffle(out)
    return out

"""Crumby colorings: verification, CNF encoding, and three complete solvers.

A red/blue coloring of a graph is *crumby* when

  (a) every Blue vertex has at most one Blue neighbor,
  (b) every Red vertex has at least one Red neighbor, and
  (c) no path on four vertices is entirely Red.

Equivalently: Red components are stars K_{1,m} (m >= 1) or triangles, and
Blue components have at most two vertices.

Three complete decision procedures live here and must agree everywhere:

* exhaustive_solve   -- bit-sliced sweep over all 2^n red-sets (n <= 24),
* backtracking_solve -- DFS over vertex colors with forced-move propagation,
* dpll_solve         -- DPLL on the clause encoding of (a)-(c).

Unsat always means the search space was exhausted.  Running out of a node
budget raises BudgetExhausted instead of returning an answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterator

from .errors import BudgetExhausted, CapExceeded
from .graphs import (
    P4_CAP, Graph, _check_p4_cap, _walk_p4, connected_components, enumerate_p4,
)

EXHAUSTIVE_CAP = 24
# the colouring sweep (_feasible_masks) works through chunks of 2^15 masks,
# holding each vertex's colour as a 2^15-bit int (4 KiB), so a chunk and its
# temporaries stay in a core's L2 cache and peak memory does not grow with n
_CHUNK_BITS = 15


class Color(Enum):
    RED = "R"
    BLUE = "B"


RED = Color.RED
BLUE = Color.BLUE


@dataclass(frozen=True)
class Coloring:
    """A total red/blue assignment, vertex i at position i."""

    colors: tuple[Color, ...]

    def __len__(self) -> int:
        return len(self.colors)

    @classmethod
    def from_text(cls, text: str) -> "Coloring":
        colors = []
        for token in text.split():
            if token == "R":
                colors.append(RED)
            elif token == "B":
                colors.append(BLUE)
            else:
                raise ValueError(f"coloring token {token!r} is not 'R' or 'B'")
        return cls(tuple(colors))

    @classmethod
    def from_red_set(cls, n: int, reds: set[int] | frozenset[int]) -> "Coloring":
        return cls(tuple(RED if v in reds else BLUE for v in range(n)))

    def to_text(self) -> str:
        return " ".join(c.value for c in self.colors)

    def red_set(self) -> frozenset[int]:
        return frozenset(v for v, c in enumerate(self.colors) if c is RED)


# -- verification ----------------------------------------------------------------


def violations(g: Graph, red: frozenset[int]) -> Iterator[str]:
    """Yield each violation of (a)-(c) by the red set `red` as the line
    `crumby verify` prints after "violation: ": first the vertices that
    break (a) or (b), in vertex order, then every all-Red P4 in ascending
    order.

    A P4 of g is all Red exactly when it is a P4 of the red subgraph G[red].
    One pass picks out each vertex's Red neighbors: (b) reads them at a Red
    vertex, (a) counts the others at a Blue one, and the P4s are walked on
    the Red vertices' rows.
    """
    rows: list[tuple[int, ...]] = []
    for v, row in enumerate(g.adj):
        reds = tuple(filter(red.__contains__, row))
        if v in red:
            if not reds:
                yield f"red vertex {v} has no red neighbor"
            rows.append(reds)
        else:
            if len(row) - len(reds) >= 2:
                yield f"blue vertex {v} has two or more blue neighbors"
            rows.append(())
    for path in _walk_p4(rows):
        yield f"all-red path {'-'.join(map(str, path))}"


def verify_crumby(g: Graph, c: Coloring) -> bool:
    """Check (a)-(c) directly, stopping at the first violation; `violations`
    lists them all."""
    if len(c) != g.n:
        raise ValueError(f"coloring has {len(c)} entries for {g.n} vertices")
    return next(violations(g, c.red_set()), None) is None


def verify_crumby_by_components(g: Graph, c: Coloring) -> bool:
    """Independent check via the component characterization.

    Red components must be stars K_{1,m} with m >= 1 or triangles; Blue
    components must have at most two vertices.
    """
    if len(c) != g.n:
        raise ValueError(f"coloring has {len(c)} entries for {g.n} vertices")
    red = c.red_set()
    blue = frozenset(range(g.n)) - red
    for comp in connected_components(g, blue):
        if len(comp) > 2:
            return False
    for comp in connected_components(g, red):
        k = len(comp)
        degs = sorted(sum(1 for u in g.adj[v] if u in red) for v in comp)
        if k == 1:
            return False
        if k == 3 and degs == [2, 2, 2]:
            continue  # triangle
        if degs[:-1] == [1] * (k - 1) and degs[-1] == k - 1:
            continue  # star (k == 2 included)
        return False
    return True


# -- bit-sliced exhaustive core ----------------------------------------------

def _bit_planes(width: int) -> list[int]:
    """Plane b over the masks 0..2^width - 1: bit m is set iff m has bit b,
    so each plane repeats 2^b clear bits then 2^b set bits, by doubling."""
    size = 1 << width
    planes = []
    for b in range(width):
        half = 1 << b
        plane, span = ((1 << half) - 1) << half, 2 * half
        while span < size:
            plane |= plane << span
            span *= 2
        planes.append(plane)
    return planes


def _feasible_masks(
    g: Graph,
    exempt: frozenset[int] = frozenset(),
    extra: tuple[tuple[int, ...], ...] = (),
    fixed: dict[int, Color] | None = None,
) -> Iterator[int]:
    """Yield, in ascending order, every red-set mask that agrees with the
    vertex colors in `fixed` and passes (a)-(c) relaxed by data: a Red vertex
    in `exempt` needs no Red neighbor, and every path in `extra` is forbidden
    all-Red like a P4.  With the defaults this is plain crumbiness.

    A coloring is a red-set bitmask; vertex v sits at bit (n-1-v), so counting
    masks upward enumerates color vectors in lexicographic order with B < R.
    The sweep is bit-sliced: within a chunk, bit i of red[v] says whether
    mask base + i colors v Red, so each int operation tests a whole chunk.
    """
    if g.n > EXHAUSTIVE_CAP:
        raise CapExceeded(
            f"exhaustive enumeration is capped at n <= {EXHAUSTIVE_CAP}, got {g.n}"
        )
    n, adj = g.n, g.adj
    fixed = fixed or {}
    low = min(n, _CHUNK_BITS)
    planes = _bit_planes(low)  # the low bits vary within a chunk
    full = (1 << (1 << low)) - 1
    paths = (*enumerate_p4(g), *extra)
    forbidden = {tuple(sorted(path)) for path in paths}
    for base in range(0, 1 << n, 1 << _CHUNK_BITS):
        # a high bit is constant over the chunk: 0 or all-ones
        red = [
            planes[p] if p < low else full * (base >> p & 1)
            for p in range(n - 1, -1, -1)
        ]
        blue = [full ^ plane for plane in red]
        bad = 0  # bit i set: mask base + i breaks a condition
        for v, color in fixed.items():
            bad |= blue[v] if color is RED else red[v]
        for v in range(n):
            one = two = 0  # at least one / two Blue neighbors
            alone = red[v]  # Red with no Red neighbor
            for u in adj[v]:
                two |= one & blue[u]
                one |= blue[u]
                alone &= blue[u]
            if v not in exempt:
                bad |= alone
            bad |= blue[v] & two
        for path in forbidden:
            all_red = full
            for p in path:
                all_red &= red[p]
            bad |= all_red
        good = bin(full ^ bad)[:1:-1]  # character i is bit i
        i = good.find("1")
        while i >= 0:
            yield base + i
            i = good.find("1", i + 1)


def _mask_to_coloring(n: int, mask: int) -> Coloring:
    return Coloring.from_red_set(n, {v for v in range(n) if mask >> (n - 1 - v) & 1})


def count_crumby(g: Graph) -> int:
    """Exact number of crumby colorings of g (n <= 24)."""
    return sum(1 for _ in _feasible_masks(g))


class Status(Enum):
    SAT = "sat"
    UNSAT = "unsat"


@dataclass(frozen=True)
class SolveResult:
    status: Status
    coloring: Coloring | None
    solver: str
    nodes: int
    propagations: int
    elapsed: float


def _result(
    solver: str,
    g: Graph,
    coloring: Coloring | None,
    nodes: int,
    propagations: int,
    t0: float,
) -> SolveResult:
    """Sat iff a coloring was found, and only once verify_crumby accepts it
    on g; `elapsed` runs from t0 to now."""
    if coloring is not None and not verify_crumby(g, coloring):
        raise AssertionError(f"{solver} produced a non-crumby coloring")
    status = Status.UNSAT if coloring is None else Status.SAT
    return SolveResult(
        status, coloring, solver, nodes, propagations, time.perf_counter() - t0
    )


def exhaustive_solve(g: Graph) -> SolveResult:
    """Sweep all 2^n colorings; first Sat hit is lexicographically least.

    Unsat is only reported after the entire space was enumerated; `nodes`
    counts colorings examined.
    """
    t0 = time.perf_counter()
    mask = next(_feasible_masks(g), None)
    if mask is None:
        return _result("exhaustive", g, None, 1 << g.n, 0, t0)
    return _result("exhaustive", g, _mask_to_coloring(g.n, mask), mask + 1, 0, t0)


# -- CNF encoding ------------------------------------------------------------


def _clause_key(clause: tuple[int, ...]):
    return tuple((abs(l), l < 0) for l in clause)


def encode_cnf(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Clause families for (a), (b), (c), deduplicated, deterministic order.

    The clauses range over variables 1..g.n; x_v true means vertex v-1 is Red.

    1. (x_v | x_u | x_w) for each v and unordered pair {u,w} of neighbors:
       a Blue vertex tolerates at most one Blue neighbor.
    2. (~x_v | x_u1 | ... ) over v's neighbors: Red needs Red support; for an
       isolated v this is the unit (~x_v), the only unit clause emitted.
    3. (~x_p1 | ~x_p2 | ~x_p3 | ~x_p4) per canonical 4-path: no all-Red path.

    Clause literals are sorted by variable; families appear in order 1, 2, 3,
    each family sorted lexicographically with positive before negative.
    Before any clause is built, CapExceeded refuses a graph that may have
    more than P4_CAP P4s, or that has more than P4_CAP neighbour pairs.
    """
    _check_p4_cap(g)
    pairs = sum(len(row) * (len(row) - 1) // 2 for row in g.adj)
    if pairs > P4_CAP:
        raise CapExceeded(
            f"CNF encodings are capped at {P4_CAP} neighbour pairs (family 1"
            f" clauses); this graph has {pairs}"
        )
    fam1 = set()
    for v in range(g.n):
        for u, w in combinations(g.adj[v], 2):
            fam1.add(tuple(sorted((v + 1, u + 1, w + 1))))
    fam2 = []
    for v in range(g.n):
        lits = [-(v + 1)] + [u + 1 for u in g.adj[v]]
        fam2.append(tuple(sorted(lits, key=abs)))
    # families 1 and 3 are one-signed, so plain tuple order over the
    # variables is the key order; family 3 is negated once sorted
    fam3 = {tuple(sorted(p + 1 for p in path)) for path in _walk_p4(g.adj)}
    clauses = (
        sorted(fam1)
        + sorted(fam2, key=_clause_key)
        + [tuple(-x for x in clause) for clause in sorted(fam3)]
    )
    return tuple(clauses)


def emit_dimacs(n: int, clauses: tuple[tuple[int, ...], ...]) -> str:
    lines = [f"p cnf {n} {len(clauses)}"]
    for clause in clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


# -- backtracking solver -----------------------------------------------------

_UNSET, _RED, _BLUE = 0, 1, 4  # three colors sum to 2 or 3 only with no Blue


class _GraphSearch:
    """DFS over vertex colors; deterministic: lowest unassigned vertex,
    Red tried before Blue, then every forced move propagated.  The state is
    the colors and a trail.  One loop in dfs sets each color, checks the
    rules (a)-(c) inline on the colors around it and queues the moves they
    force; rule (c) reads the P4 table built here.  That table is filled by
    _walk_p4's own nested walk, written out after _check_p4_cap, so each
    path goes straight into the rows of its four vertices with no
    enumerate_p4 list in between; every row lists its paths in
    enumerate_p4 order.  That row order, the order of the rules and the
    queue's order fix the search tree, node and propagation counts
    included."""

    def __init__(self, g: Graph, budget: int | None) -> None:
        self.g = g
        self.budget = budget
        n = g.n
        self.assign = [_UNSET] * n
        # p4_of[v] holds the other three vertices of each P4 through v
        _check_p4_cap(g)
        adj = g.adj
        p4_of: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        for p1, row in enumerate(adj):
            at1 = p4_of[p1]
            for p2 in row:
                at2 = p4_of[p2]
                for p3 in adj[p2]:
                    if p3 == p1:
                        continue
                    at3 = p4_of[p3]
                    for p4 in adj[p3]:
                        if p1 < p4 and p4 != p2:
                            at1.append((p2, p3, p4))
                            at2.append((p1, p3, p4))
                            at3.append((p1, p2, p4))
                            p4_of[p4].append((p1, p2, p3))
        self.p4_of = p4_of
        self.trail: list[int] = []
        self.nodes = 0
        self.propagations = 0

    def dfs(self) -> bool:
        """Depth-first search on an explicit stack of open choices
        (vertex, trail mark, color), so depth is not bound by recursion.
        Each node runs a queue that starts with its choice, first in first
        out: a move to an unset vertex sets its color and appends the moves
        that color forces, a move to a colored vertex must agree with it.
        A conflict undoes open choices, latest first, up to one that still
        has Blue to try.

        Setting w Red breaks (b) if no neighbor of w can be Red, and (c) if
        a P4 through w has its three other vertices Red; a P4 with two of
        them Red forces the third Blue, and a single unset neighbor with no
        Red one is forced Red.  Setting w Blue breaks (a) at w if it has two
        Blue neighbors, and at a Blue neighbor u with two Blue neighbors;
        the unset neighbors of such a u are forced Red, as are w's once w
        has a Blue neighbor.  A Red neighbor of w that is left with no Red
        neighbor breaks (b) if it has no unset one either, and forces its
        single unset one Red.  Every forced move is a propagation, so each
        node's count is its trail growth less its choice."""
        assign, trail, adj, p4_of = self.assign, self.trail, self.g.adj, self.p4_of
        unset_, red_, blue_ = _UNSET, _RED, _BLUE
        n, budget = self.g.n, self.budget
        nodes, propagations = self.nodes, self.propagations
        choices: list[tuple[int, int, int]] = []
        low = 0  # every vertex below low is colored
        try:
            while True:
                while low < n and assign[low] != unset_:
                    low += 1
                if low == n:
                    return True
                v, color = low, red_
                while True:
                    nodes += 1
                    if budget is not None and nodes > budget:
                        raise BudgetExhausted(
                            f"backtracking budget of {budget} nodes exhausted",
                            nodes=nodes,
                        )
                    mark = len(trail)
                    choices.append((v, mark, color))
                    # the queue grows while it is walked; each break out of
                    # it is a conflict, and the moves still queued are dropped
                    queue = [(v, color)]
                    for w, c in queue:
                        if assign[w] != unset_:
                            if assign[w] != c:
                                break
                            continue
                        assign[w] = c
                        trail.append(w)
                        if c == red_:
                            red = unset = 0
                            for u in adj[w]:
                                if assign[u] == red_:
                                    red += 1
                                elif assign[u] == unset_:
                                    unset += 1
                                    last = u
                            if not red and not unset:
                                break
                            for a, b, d in p4_of[w]:
                                s = assign[a] + assign[b] + assign[d]
                                if s == 3:
                                    break
                                if s == 2:  # two Red, one unset: it goes Blue
                                    x = a if not assign[a] else b if not assign[b] else d
                                    queue.append((x, blue_))
                            else:
                                if not red and unset == 1:
                                    queue.append((last, red_))
                                continue
                            break
                        blue = 0
                        for u in adj[w]:
                            if assign[u] == blue_:
                                blue += 1
                                if blue == 2:
                                    break
                                near = 0
                                for x in adj[u]:
                                    if assign[x] == blue_:
                                        near += 1
                                    elif assign[x] == unset_:
                                        queue.append((x, red_))
                                if near >= 2:
                                    break
                            elif assign[u] == red_:
                                unset = 0
                                for x in adj[u]:
                                    if assign[x] == red_:
                                        break
                                    if assign[x] == unset_:
                                        unset += 1
                                        last = x
                                else:
                                    if not unset:
                                        break
                                    if unset == 1:
                                        queue.append((last, red_))
                        else:
                            if blue:
                                for u in adj[w]:
                                    if assign[u] == unset_:
                                        queue.append((u, red_))
                            continue
                        break
                    else:
                        propagations += len(trail) - mark - 1
                        break
                    propagations += len(trail) - mark - 1
                    while choices:
                        v, mark, color = choices.pop()
                        for u in trail[mark:]:
                            assign[u] = unset_
                        del trail[mark:]
                        if color == red_:
                            color = blue_
                            break
                    else:
                        return False
                # a choice's vertex was the lowest unset one when it was made
                low = v
        finally:
            self.nodes, self.propagations = nodes, propagations

    def coloring(self) -> Coloring:
        return Coloring(tuple(RED if a == _RED else BLUE for a in self.assign))


def backtracking_solve(g: Graph, budget: int | None = None) -> SolveResult:
    """Complete DFS on vertex colors with forced-move propagation."""
    t0 = time.perf_counter()
    search = _GraphSearch(g, budget)
    coloring = search.coloring() if search.dfs() else None
    return _result("backtracking", g, coloring, search.nodes, search.propagations, t0)


# -- DPLL on the clause encoding ----------------------------------------------


class _Dpll:
    """DPLL state: values, a trail of literals, and per clause the literal
    that first satisfied it and its count of free literals (kept while
    unsatisfied).  val, occ and near are indexed by literal, a negative lit
    from the end of the list, so no step branches on a value to pick its
    list: val[lit] is 1 when lit is true, and occ[lit] lists the clauses
    that contain lit.

    Undo reads two logs instead of the occurrence lists.  satisfied lists
    each clause an assignment satisfied, and counted each clause whose free
    count it lowered, in assignment order along the current path; a choice
    keeps the lengths of the trail and of both logs when it is made, and
    undoing it clears sat and raises n_free over the logs' tails.  A clause
    is logged in satisfied at most once and each literal occurrence at most
    once in counted, so the logs stay linear in the formula.

    Pure literals are read from the clause states, but only at candidate
    variables.  near[lit] holds the variables of the clauses that contain
    lit, and each assignment of lit adds near[lit] to the candidates.  This
    is exact: after a completed pass no free variable is pure, and a free
    variable can only become pure when a clause that contains it is
    satisfied, so it is in near of the literal that satisfied that clause.
    Every other candidate is assigned or not pure and is skipped, so each
    round finds the same pure set, in the same ascending order, as the
    variables of the newly satisfied clauses alone would give; a round that
    assigns nothing still ends the pass.  The undo lives in dfs: it returns
    to a choice mark taken right after a completed pass, so it drops the
    candidates; the root pass starts with every variable.  An isolated
    vertex's unit clause (~x_v) needs no unit pass of its own: x_v occurs
    in no clause positively, so the root pass assigns it false."""

    def __init__(
        self, n: int, clauses: tuple[tuple[int, ...], ...], budget: int | None
    ) -> None:
        self.n = n
        self.clauses = clauses
        self.budget = budget
        self.val = [0] * (2 * n + 1)  # 0 unknown, 1 true, -1 false
        self.occ: list[list[int]] = [[] for _ in range(2 * n + 1)]
        for ci, clause in enumerate(clauses):
            for lit in clause:
                self.occ[lit].append(ci)
        self.near = [
            tuple({abs(x) for ci in cis for x in clauses[ci]}) for cis in self.occ
        ]
        # the literal whose assignment first satisfied each clause, 0 if
        # none; free literals are counted only while a clause is unsatisfied
        self.sat = [0] * len(clauses)
        self.n_free = [len(c) for c in clauses]
        self.touched = list(range(1, n + 1))  # pure-literal candidates
        self.trail: list[int] = []
        self.satisfied: list[int] = []  # undo log of sat
        self.counted: list[int] = []  # undo log of n_free
        self.nodes = 0
        self.propagations = 0

    def _set(self, lit: int) -> bool:
        """Assign lit, then the free literal of each unit clause it leaves
        until none is left; False at the first emptied clause.  Only clauses
        where an assigned literal is false can have become unit: they are
        walked first in first out, and each unit is assigned where its
        clause is found.  Each clause an assignment satisfies goes on
        satisfied, and each clause whose free count it lowers on counted,
        before its own conflict check, so dfs undoes a conflict from the
        logs however far the walk got."""
        val, sat, n_free, occ, near = self.val, self.sat, self.n_free, self.occ, self.near
        clauses, trail, touched = self.clauses, self.trail, self.touched
        satisfy, count = self.satisfied.append, self.counted.append
        falsified: list[int] = []  # grows while it is walked
        walk = iter(falsified)
        while True:
            val[lit], val[-lit] = 1, -1
            trail.append(lit)
            touched.extend(near[lit])
            for ci in occ[lit]:
                if not sat[ci]:
                    sat[ci] = lit
                    satisfy(ci)
            false_occ = occ[-lit]
            for ci in false_occ:
                if not sat[ci]:
                    n_free[ci] -= 1
                    count(ci)
                    if not n_free[ci]:
                        return False
            falsified += false_occ
            for ci in walk:
                if not sat[ci] and n_free[ci] == 1:
                    break
            else:
                return True
            for lit in clauses[ci]:
                if not val[lit]:
                    break
            else:
                raise AssertionError("unit clause without a free literal")
            self.propagations += 1

    def _pure_literals(self) -> bool:
        """Assign single-polarity and unconstrained variables; sound for both
        Sat and Unsat, applied once per decision level.  Each round reads the
        polarities of all free candidates before it assigns any of them, in
        ascending order; a variable is positive iff an unsatisfied clause
        contains +var, so unconstrained ones default to false (Blue)."""
        val, sat, occ, touched = self.val, self.sat, self.occ, self.touched
        while touched:
            candidates = sorted(set(touched))
            touched.clear()
            pure = []
            for var in candidates:
                if val[var]:
                    continue
                for ci in occ[var]:
                    if not sat[ci]:
                        break
                else:
                    pure.append(-var)
                    continue
                for ci in occ[-var]:
                    if not sat[ci]:
                        break
                else:
                    pure.append(var)
            for lit in pure:
                if val[lit]:
                    continue
                self.propagations += 1
                if not self._set(lit):
                    return False
        return True

    def dfs(self) -> bool:
        """Depth-first search on an explicit stack of open choices
        (literal and the lengths of the trail and both logs), so depth is
        not bound by recursion.  After the root pure-literal pass, each node
        decides the lowest free variable, True (Red) first, then runs _set
        and the pure-literal pass; a conflict undoes open choices, latest
        first, up to one that still has False to try.  Undoing a choice
        frees the trail's tail, clears sat on the satisfied log's tail and
        gives back a free literal per entry of the counted log's tail, so it
        also undoes the pass that followed the choice."""
        val, sat, n_free = self.val, self.sat, self.n_free
        trail, satisfied, counted = self.trail, self.satisfied, self.counted
        touched, budget = self.touched, self.budget
        end = self.n + 1
        choices: list[tuple[int, int, int, int]] = []
        low = 1  # every variable below low is assigned
        ok = self._pure_literals()
        while True:
            if ok:
                while low < end and val[low]:
                    low += 1
                if low == end:
                    return True
                lit = low
            else:
                while choices:
                    lit, mark, smark, cmark = choices.pop()
                    for x in trail[mark:]:
                        val[x] = val[-x] = 0
                    del trail[mark:]
                    for ci in satisfied[smark:]:
                        sat[ci] = 0
                    del satisfied[smark:]
                    for ci in counted[cmark:]:
                        n_free[ci] += 1
                    del counted[cmark:]
                    touched.clear()  # each mark follows a completed pass
                    if lit > 0:
                        break
                else:
                    return False
                # a choice's variable was the lowest free one when it was made
                low, lit = lit, -lit
            self.nodes += 1
            if budget is not None and self.nodes > budget:
                raise BudgetExhausted(
                    f"dpll budget of {budget} nodes exhausted", nodes=self.nodes
                )
            choices.append((lit, len(trail), len(satisfied), len(counted)))
            ok = self._set(lit) and self._pure_literals()


def dpll_solve(g: Graph, budget: int | None = None) -> SolveResult:
    """DPLL with unit propagation and pure-literal elimination on encode_cnf(g).

    Deterministic: lowest-index variable, True (Red) first.  Status always
    matches backtracking_solve.
    """
    t0 = time.perf_counter()
    d = _Dpll(g.n, encode_cnf(g), budget)
    coloring = None
    if d.dfs():
        coloring = Coloring(
            tuple(RED if x == 1 else BLUE for x in d.val[1 : g.n + 1])
        )
    return _result("dpll", g, coloring, d.nodes, d.propagations, t0)


def emit_solve_certificate(result: SolveResult) -> str:
    """Small deterministic text record of a solver outcome."""
    lines = [
        f"status: {result.status.value}",
        f"solver: {result.solver}",
        f"nodes: {result.nodes}",
        f"propagations: {result.propagations}",
    ]
    if result.coloring is not None:
        lines.append(f"coloring: {result.coloring.to_text()}")
    return "\n".join(lines) + "\n"

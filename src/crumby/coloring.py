"""Crumby colorings: verification, CNF encoding, and three complete solvers.

A red/blue coloring of a graph is *crumby* when

  (a) every Blue vertex has at most one Blue neighbor,
  (b) every Red vertex has at least one Red neighbor, and
  (c) no path on four vertices is entirely Red.

Equivalently: Red components are stars K_{1,m} (m >= 1) or triangles, and
Blue components have at most two vertices.

Three complete decision procedures live here and must agree everywhere:

* exhaustive_solve   -- vectorized sweep over all 2^n red-sets (n <= 24),
* backtracking_solve -- DFS over vertex colors with forced-move propagation,
* dpll_solve         -- DPLL on the clause encoding of (a)-(c).

Unsat always means the search space was exhausted.  Running out of a node
budget raises BudgetExhausted instead of returning an answer.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterator

from .errors import BudgetExhausted, CapExceeded
from .graphs import Graph, _walk_p4, connected_components, enumerate_p4

EXHAUSTIVE_CAP = 24
# both numpy kernels (_feasible_masks, survey.generate_small) work through
# _chunks: 2^15 entries, 128 KiB of int32, so a chunk and its temporaries stay
# in a core's L2 cache and peak memory does not grow with the input
_CHUNK_BITS = 15
if EXHAUSTIVE_CAP > 31:
    raise ImportError(
        f"EXHAUSTIVE_CAP = {EXHAUSTIVE_CAP}: _feasible_masks holds every"
        " coloring mask below 1 << EXHAUSTIVE_CAP in int32, so it may not pass 31"
    )


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


class ViolationKind(Enum):
    BLUE_DEGREE = "blue-degree-exceeded"
    RED_ISOLATED = "red-isolated"
    RED_P4 = "red-p4"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    vertex: int | None = None
    path: tuple[int, ...] | None = None

    def describe(self) -> str:
        if self.kind is ViolationKind.BLUE_DEGREE:
            return f"blue vertex {self.vertex} has two or more blue neighbors"
        if self.kind is ViolationKind.RED_ISOLATED:
            return f"red vertex {self.vertex} has no red neighbor"
        return f"all-red path {'-'.join(map(str, self.path or ()))}"


# -- verification ----------------------------------------------------------------


def violations(g: Graph, red: frozenset[int]) -> Iterator[Violation]:
    """Yield the violations of (a)-(c) by the red set `red`.

    A P4 of g is all Red exactly when it is a P4 of the red subgraph G[red],
    so only G[red] is searched, in place.
    """
    adj = g.adj
    for v in range(g.n):
        if v in red:
            if not any(u in red for u in adj[v]):
                yield Violation(ViolationKind.RED_ISOLATED, vertex=v)
        elif sum(1 for u in adj[v] if u not in red) >= 2:
            yield Violation(ViolationKind.BLUE_DEGREE, vertex=v)
    for path in _walk_p4(g, red):
        yield Violation(ViolationKind.RED_P4, path=path)


def verify_crumby(g: Graph, c: Coloring) -> tuple[bool, list[Violation]]:
    """Check (a)-(c) directly; returns all violations, deterministic order."""
    if len(c) != g.n:
        raise ValueError(f"coloring has {len(c)} entries for {g.n} vertices")
    found = list(violations(g, c.red_set()))
    return not found, found


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


# -- vectorized exhaustive core ----------------------------------------------

def _chunks(size: int) -> Iterator[slice]:
    """Consecutive slices of range(size), 1 << _CHUNK_BITS long."""
    step = 1 << _CHUNK_BITS
    for start in range(0, size, step):
        yield slice(start, min(start + step, size))


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
    """
    if g.n > EXHAUSTIVE_CAP:
        raise CapExceeded(
            f"exhaustive enumeration is capped at n <= {EXHAUSTIVE_CAP}, got {g.n}"
        )
    import numpy as np  # only the kernels load numpy, not `import crumby`

    n = g.n
    fixed = fixed or {}
    bit = [1 << (n - 1 - v) for v in range(n)]
    nbmask = [sum(bit[u] for u in g.adj[v]) for v in range(n)]
    paths = (*enumerate_p4(g), *extra)
    forbidden = sorted({sum(bit[p] for p in path) for path in paths})
    fixed_mask = sum(bit[v] for v in fixed)
    fixed_red = sum(bit[v] for v, color in fixed.items() if color is RED)
    for part in _chunks(1 << n):
        # int32: every mask is below 1 << n <= 1 << EXHAUSTIVE_CAP <= 1 << 31
        red = np.arange(part.start, part.stop, dtype=np.int32)
        ok = (red & fixed_mask) == fixed_red
        for v in range(n):
            is_red = (red & bit[v]) != 0
            if v not in exempt:
                ok &= ~is_red | ((red & nbmask[v]) != 0)
            blue_nb = ~red & nbmask[v]
            ok &= is_red | ((blue_nb & (blue_nb - 1)) == 0)  # <= 1 Blue neighbor
        for m in forbidden:
            ok &= (red & m) != m
        yield from red[ok].tolist()


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
    if coloring is not None and not verify_crumby(g, coloring)[0]:
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


@dataclass(frozen=True)
class CnfFormula:
    """CNF over variables 1..num_vars; x_v true means vertex v-1 is Red."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]


def _clause_key(clause: tuple[int, ...]):
    return tuple((abs(l), l < 0) for l in clause)


def encode_cnf(g: Graph) -> CnfFormula:
    """Clause families for (a), (b), (c), deduplicated, deterministic order.

    1. (x_v | x_u | x_w) for each v and unordered pair {u,w} of neighbors:
       a Blue vertex tolerates at most one Blue neighbor.
    2. (~x_v | x_u1 | ... ) over v's neighbors: Red needs Red support; for an
       isolated v this is the unit (~x_v), the only unit clause emitted.
    3. (~x_p1 | ~x_p2 | ~x_p3 | ~x_p4) per canonical 4-path: no all-Red path.

    Clause literals are sorted by variable; families appear in order 1, 2, 3,
    each family sorted lexicographically with positive before negative.
    """
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
    fam3 = {tuple(sorted(p + 1 for p in path)) for path in enumerate_p4(g)}
    clauses = (
        sorted(fam1)
        + sorted(fam2, key=_clause_key)
        + [tuple(-x for x in clause) for clause in sorted(fam3)]
    )
    return CnfFormula(g.n, tuple(clauses))


def emit_dimacs(f: CnfFormula) -> str:
    lines = [f"p cnf {f.num_vars} {len(f.clauses)}"]
    for clause in f.clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


# -- backtracking solver -----------------------------------------------------

_UNSET, _RED, _BLUE = 0, 1, 4  # three colors sum to 2 or 3 only with no Blue


class _GraphSearch:
    """DFS over vertex colors; deterministic: lowest unassigned vertex,
    Red tried before Blue, then every forced move propagated.  The state is
    the colors and a trail; each rule reads the colors it needs."""

    def __init__(self, g: Graph, budget: int | None) -> None:
        self.g = g
        self.budget = budget
        n = g.n
        self.assign = [_UNSET] * n
        # the other three vertices of each P4 through a vertex, in P4 order
        self.p4_of: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        for a, b, c, d in enumerate_p4(g):
            self.p4_of[a].append((b, c, d))
            self.p4_of[b].append((a, c, d))
            self.p4_of[c].append((a, b, d))
            self.p4_of[d].append((a, b, c))
        self.trail: list[int] = []
        self.nodes = 0
        self.propagations = 0

    def _force_red_around(self, x: int, queue: deque) -> None:
        """Force every unset neighbor of x Red."""
        assign = self.assign
        for w in self.g.adj[x]:
            if assign[w] == _UNSET:
                queue.append((w, _RED))

    def _apply(self, v: int, color: int, queue: deque) -> bool:
        """Set v and queue the moves it forces; False on a conflict."""
        assign, adj = self.assign, self.g.adj
        assign[v] = color
        self.trail.append(v)
        if color == _RED:
            red = unset = 0
            for u in adj[v]:
                if assign[u] == _RED:
                    red += 1
                elif assign[u] == _UNSET:
                    unset += 1
            if not red and not unset:  # (b) v can get no Red neighbor
                return False
            for a, b, c in self.p4_of[v]:  # (c) with v Red
                s = assign[a] + assign[b] + assign[c]
                if s == 3:
                    return False
                if s == 2:  # two Red, one unset: that one goes Blue
                    w = a if not assign[a] else b if not assign[b] else c
                    queue.append((w, _BLUE))
            if not red and unset == 1:
                self._force_red_around(v, queue)
            return True
        blue = 0
        for u in adj[v]:
            if assign[u] == _BLUE:  # (a) for v and for u
                blue += 1
                if blue == 2:
                    return False
                near = 0
                for w in adj[u]:
                    if assign[w] == _BLUE:
                        near += 1
                if near >= 2:
                    return False
                self._force_red_around(u, queue)
            elif assign[u] == _RED:  # (b) for u, which lost a candidate
                unset = 0
                for w in adj[u]:
                    if assign[w] == _RED:
                        break
                    if assign[w] == _UNSET:
                        unset += 1
                else:
                    if not unset:
                        return False
                    if unset == 1:
                        self._force_red_around(u, queue)
        if blue:
            self._force_red_around(v, queue)
        return True

    def dfs(self) -> bool:
        """Depth-first search on an explicit stack of open choices
        (vertex, trail mark, color), so depth is not bound by recursion.
        Each node sets its choice and runs the queue of forced moves, first
        in first out; a conflict undoes open choices, latest first, up to
        one that still has Blue to try."""
        assign, trail, apply = self.assign, self.trail, self._apply
        n, budget = self.g.n, self.budget
        nodes, propagations = self.nodes, self.propagations
        choices: list[tuple[int, int, int]] = []
        queue: deque = deque()
        low = 0  # every vertex below low is colored
        try:
            while True:
                while low < n and assign[low] != _UNSET:
                    low += 1
                if low == n:
                    return True
                v, color = low, _RED
                while True:
                    nodes += 1
                    if budget is not None and nodes > budget:
                        raise BudgetExhausted(
                            f"backtracking budget of {budget} nodes exhausted",
                            nodes=nodes,
                        )
                    choices.append((v, len(trail), color))
                    ok = apply(v, color, queue)
                    while ok and queue:
                        w, c = queue.popleft()
                        if assign[w] != _UNSET:
                            ok = assign[w] == c
                        else:
                            propagations += 1
                            ok = apply(w, c, queue)
                    if ok:
                        break
                    queue.clear()
                    while choices:
                        v, mark, color = choices.pop()
                        for u in trail[mark:]:
                            assign[u] = _UNSET
                        del trail[mark:]
                        if color == _RED:
                            color = _BLUE
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

    def __init__(self, f: CnfFormula, budget: int | None) -> None:
        self.f = f
        self.budget = budget
        nv = f.num_vars
        self.val = [0] * (2 * nv + 1)  # 0 unknown, 1 true, -1 false
        self.occ: list[list[int]] = [[] for _ in range(2 * nv + 1)]
        for ci, clause in enumerate(f.clauses):
            for lit in clause:
                self.occ[lit].append(ci)
        self.near = [
            tuple({abs(x) for ci in cis for x in f.clauses[ci]}) for cis in self.occ
        ]
        # the literal whose assignment first satisfied each clause, 0 if
        # none; free literals are counted only while a clause is unsatisfied
        self.sat = [0] * len(f.clauses)
        self.n_free = [len(c) for c in f.clauses]
        self.touched = list(range(1, nv + 1))  # pure-literal candidates
        self.trail: list[int] = []
        self.nodes = 0
        self.propagations = 0

    def _set(self, lit: int) -> bool:
        """Assign lit, then the free literal of each unit clause it leaves
        until none is left; False on an emptied clause.  Only clauses where
        an assigned literal is false can have become unit: they are walked
        first in first out, and each unit is assigned where its clause is
        found.  An assignment counts down all of its false occurrences, and
        checks them for conflict, before the walk goes on; it visits every
        occurrence even past a conflict, so undo stays symmetric."""
        val, sat, n_free, occ, near = self.val, self.sat, self.n_free, self.occ, self.near
        clauses, trail, touched = self.f.clauses, self.trail, self.touched
        falsified: list[int] = []  # grows while it is walked
        walk = iter(falsified)
        while True:
            val[lit], val[-lit] = 1, -1
            trail.append(lit)
            touched.extend(near[lit])
            for ci in occ[lit]:
                if not sat[ci]:
                    sat[ci] = lit
            false_occ = occ[-lit]
            conflict = False
            for ci in false_occ:
                if not sat[ci]:
                    n_free[ci] -= 1
                    if not n_free[ci]:
                        conflict = True
            if conflict:
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
        (literal, trail mark), so depth is not bound by recursion.  After
        the root pure-literal pass, each node decides the lowest free
        variable, True (Red) first, then runs _set and the pure-literal
        pass; a conflict undoes open choices, latest first, up to one that
        still has False to try.  Undoing a choice also undoes the pass that
        followed it."""
        val, sat, n_free, occ = self.val, self.sat, self.n_free, self.occ
        trail, touched, budget = self.trail, self.touched, self.budget
        end = self.f.num_vars + 1
        choices: list[tuple[int, int]] = []
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
                    lit, mark = choices.pop()
                    for x in reversed(trail[mark:]):
                        val[x] = val[-x] = 0
                        for ci in occ[-x]:
                            if not sat[ci]:
                                n_free[ci] += 1
                        for ci in occ[x]:
                            if sat[ci] == x:  # ci is unsatisfied again
                                sat[ci] = 0
                    del trail[mark:]
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
            choices.append((lit, len(trail)))
            ok = self._set(lit) and self._pure_literals()


def dpll_solve(g: Graph, budget: int | None = None) -> SolveResult:
    """DPLL with unit propagation and pure-literal elimination on encode_cnf(g).

    Deterministic: lowest-index variable, True (Red) first.  Status always
    matches backtracking_solve.
    """
    t0 = time.perf_counter()
    d = _Dpll(encode_cnf(g), budget)
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

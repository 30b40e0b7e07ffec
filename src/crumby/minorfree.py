"""Treewidth-2 certification and exhaustive minor containment.

Two independent routes to "no K4 minor":

* recognize_tw2   -- reduce a multigraph workspace by deleting isolated and
                     degree-1 vertices, merging parallel edges and suppressing
                     degree-2 vertices; the graph has treewidth <= 2 iff the
                     workspace empties.  A graph that gets stuck is simple
                     with minimum degree >= 3 and therefore has a K4 minor.
* elimination orders -- a perfect elimination style certificate: each
                     eliminated vertex sees at most 2 remaining neighbors
                     (clique fill-in, here at most one fill edge).

has_minor is a brute-force branch-set search, independent of both, for
patterns on at most 6 vertices.  It is exact: False means the search space
was exhausted, and running out of budget raises BudgetExhausted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import BudgetExhausted, CapExceeded
from .graphs import Graph, blocks, is_biconnected

MINOR_PATTERN_CAP = 6


# -- elimination orders --------------------------------------------------------


@dataclass(frozen=True)
class EliminationOrder:
    order: tuple[int, ...]


def _eliminate(nbr: list[set[int]], v: int) -> tuple[int, ...]:
    """Delete v and join its remaining neighbors pairwise (with at most two
    of them, a single fill edge); returns those neighbors, sorted."""
    rem = tuple(sorted(nbr[v]))
    for u in rem:
        nbr[u].discard(v)
    for a, b in combinations(rem, 2):
        nbr[a].add(b)
        nbr[b].add(a)
    nbr[v] = set()
    return rem


def elimination_steps(
    g: Graph, order: EliminationOrder
) -> list[tuple[int, tuple[int, ...]]]:
    """Per-step (vertex, remaining neighbors) trace of an elimination run."""
    if sorted(order.order) != list(range(g.n)):
        raise ValueError("elimination order is not a permutation of the vertices")
    nbr = [set(row) for row in g.adj]
    return [(v, _eliminate(nbr, v)) for v in order.order]


def elimination_width(g: Graph, order: EliminationOrder) -> int:
    """Largest remaining-neighbor count along the order (0 for empty graphs)."""
    steps = elimination_steps(g, order)
    return max((len(rem) for _, rem in steps), default=0)


def find_elimination_order(g: Graph) -> EliminationOrder | None:
    """Greedy width-2 elimination: repeatedly take the lowest-index vertex of
    current degree <= 2.  For treewidth <= 2 graphs this always succeeds."""
    nbr = [set(row) for row in g.adj]
    alive = list(range(g.n))
    order = []
    while alive:
        v = next((v for v in alive if len(nbr[v]) <= 2), None)
        if v is None:
            return None
        _eliminate(nbr, v)
        alive.remove(v)
        order.append(v)
    return EliminationOrder(tuple(order))


# -- reduction recognizer --------------------------------------------------------


@dataclass(frozen=True)
class ReductionStep:
    rule: str  # delete-isolated | delete-leaf | merge-parallel | suppress
    args: tuple[int, ...]


_ARITY = {"delete-isolated": 1, "delete-leaf": 2, "merge-parallel": 2, "suppress": 3}


def _multigraph_of(g: Graph) -> dict[int, list[int]]:
    """The reduction workspace: each vertex's neighbours, one entry per
    parallel edge, so a degree is a list length."""
    return {v: list(g.adj[v]) for v in range(g.n)}


def _apply_step(mg: dict[int, list[int]], step: ReductionStep) -> str | None:
    """Apply one reduction rule to the workspace, or return why it does not
    apply (the workspace is then unchanged)."""
    if step.rule not in _ARITY:
        return "unknown rule"
    if len(step.args) != _ARITY[step.rule]:
        return f"expected {_ARITY[step.rule]} arguments"
    if step.rule == "delete-isolated":
        (v,) = step.args
        if v not in mg or mg[v]:
            return "vertex not isolated"
        del mg[v]
    elif step.rule == "delete-leaf":
        v, u = step.args
        if v not in mg or mg[v] != [u]:
            return "vertex not a leaf on that edge"
        mg[u].remove(v)
        del mg[v]
    elif step.rule == "merge-parallel":
        v, u = step.args
        if v not in mg or mg[v].count(u) < 2:
            return "no parallel pair"
        while mg[v].count(u) > 1:
            mg[v].remove(u)
            mg[u].remove(v)
    else:
        v, u, w = step.args
        if v not in mg or sorted(set(mg[v])) != sorted((u, w)) or u == w:
            return "vertex does not have exactly these 2 neighbors"
        if len(mg[v]) != 2:
            return "vertex degree is not 2"
        mg[u].remove(v)
        mg[w].remove(v)
        del mg[v]
        mg[u].append(w)
        mg[w].append(u)
    return None


def _next_step(mg: dict[int, list[int]]) -> ReductionStep | None:
    """recognize_tw2's choice: an isolated vertex, then a degree-1 vertex,
    then the lowest parallel pair, then a degree-2 vertex, each at the lowest
    index; None once the workspace is empty or stuck.  The workspace only
    loses vertices, so iterating it is ascending."""
    for v, nb in mg.items():
        if not nb:
            return ReductionStep("delete-isolated", (v,))
    for v, nb in mg.items():
        if len(nb) == 1:
            return ReductionStep("delete-leaf", (v, nb[0]))
    for v, nb in mg.items():
        if len(set(nb)) < len(nb):  # v has a parallel pair
            for u in sorted(set(nb)):
                if v < u and nb.count(u) >= 2:
                    return ReductionStep("merge-parallel", (v, u))
    for v, nb in mg.items():
        if len(nb) == 2:
            # distinct neighbors: a parallel pair would have merged first
            return ReductionStep("suppress", (v, *sorted(nb)))
    return None


def recognize_tw2(g: Graph) -> tuple[bool, list[ReductionStep]]:
    """Reduce to the empty multigraph in _next_step's priority order.
    Returns (emptied?, trace); a stuck workspace is simple with minimum
    degree >= 3."""
    mg = _multigraph_of(g)
    trace: list[ReductionStep] = []
    while (step := _next_step(mg)) is not None:
        why = _apply_step(mg, step)
        if why is not None:
            raise AssertionError(f"recognizer chose an illegal step {step}: {why}")
        trace.append(step)
    return not mg, trace


def replay_reduction_trace(
    g: Graph, trace: list[ReductionStep]
) -> tuple[bool, str | None]:
    """Re-validate a reduction trace step by step without re-searching.

    Any legal sequence that empties the workspace certifies treewidth <= 2;
    the steps need not follow recognize_tw2's scan order.
    """
    mg = _multigraph_of(g)
    for k, step in enumerate(trace):
        why = _apply_step(mg, step)
        if why is not None:
            return False, f"step {k} ({step.rule} {step.args}): {why}"
    if mg:
        return False, f"workspace not empty after replay: {sorted(mg)} remain"
    return True, None


# -- minor containment -----------------------------------------------------------


@dataclass(frozen=True)
class MinorWitness:
    """branch_sets[i] is the connected host set modeling pattern vertex i."""

    branch_sets: tuple[frozenset[int], ...]


def verify_minor_witness(
    g: Graph, pattern: Graph, witness: MinorWitness
) -> tuple[bool, str | None]:
    sets = witness.branch_sets
    if len(sets) != pattern.n:
        return False, f"witness has {len(sets)} branch sets for {pattern.n} vertices"
    seen: set[int] = set()
    for i, s in enumerate(sets):
        if not s:
            return False, f"branch set {i} is empty"
        for v in s:
            if not 0 <= v < g.n:
                return False, f"branch set {i} contains out-of-range vertex {v}"
            if v in seen:
                return False, f"vertex {v} appears in two branch sets"
        seen.update(s)
        # connectivity inside the set
        stack = [min(s)]
        reached = {min(s)}
        while stack:
            v = stack.pop()
            for u in g.adj[v]:
                if u in s and u not in reached:
                    reached.add(u)
                    stack.append(u)
        if reached != s:
            return False, f"branch set {i} is not connected"
    for i, j in pattern.edges():
        if not any(u in sets[j] for v in sets[i] for u in g.adj[v]):
            return False, f"no host edge between branch sets {i} and {j}"
    return True, None


def _interchange_classes(pattern: Graph) -> list[int]:
    """class id per pattern vertex; u, v share a class iff swapping them is
    an automorphism (N(u)-v == N(v)-u).  Used to prune equivalent seeds."""
    cls = list(range(pattern.n))
    for u in range(pattern.n):
        for v in range(u + 1, pattern.n):
            nu = set(pattern.adj[u]) - {v}
            nv = set(pattern.adj[v]) - {u}
            if nu == nv:
                cls[v] = min(cls[v], cls[u])
    return cls


def _low_bit(mask: int) -> int:
    """Index of the lowest set bit of a nonzero mask."""
    return (mask & -mask).bit_length() - 1


def has_minor(
    g: Graph, pattern: Graph, budget: int | None = None
) -> tuple[bool, MinorWitness | None]:
    """Exhaustive search for a minor model of `pattern` in `g`.

    Branch sets are grown one pattern vertex at a time by a fixed plan: seed
    the vertex, then join it to each earlier neighbor by routing a simple
    path through unassigned host vertices and splitting it between the two
    sets.  Interchangeable pattern vertices get increasing seeds.  Paths are
    routed in a loop, so the recursion depth is the plan length (at most 21
    steps) for any host.  A 2-connected pattern is searched for one block of
    the host at a time, in ascending block order, under one node count.
    Exact for pattern.n <= 6; the node budget guards large hosts.
    """
    if pattern.n > MINOR_PATTERN_CAP:
        raise CapExceeded(
            f"minor patterns are capped at {MINOR_PATTERN_CAP} vertices,"
            f" got {pattern.n}"
        )
    k = pattern.n
    if k == 0:
        return True, MinorWitness(())
    if g.n < k or g.m < pattern.m:
        return False, None

    # order pattern vertices by descending degree, then index; positions in
    # this order index the branch sets.  A plan step (i, None) seeds set i,
    # a step (i, j) joins set i to the earlier set j.
    porder = sorted(range(k), key=lambda v: (-pattern.degree(v), v))
    plan: list[tuple[int, int | None]] = []
    for i, pv in enumerate(porder):
        plan.append((i, None))
        plan.extend((i, j) for j in range(i) if pattern.has_edge(pv, porder[j]))
    cls = _interchange_classes(pattern)
    adjm = [0] * g.n
    for v in range(g.n):
        for u in g.adj[v]:
            adjm[v] |= 1 << u
    full = (1 << g.n) - 1
    nodes = 0

    def check_budget() -> None:
        nonlocal nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExhausted(
                f"minor-search budget of {budget} nodes exhausted", nodes=nodes
            )

    def step(
        t: int, sets: tuple[int, ...], nbs: tuple[int, ...], used: int
    ) -> tuple[int, ...] | None:
        """Carry out plan[t:]; the final branch-set masks, or None."""
        if t == len(plan):
            return sets
        i, j = plan[t]
        if j is None:
            # seed set i at a free host vertex above the lowest vertex of
            # every earlier set of its interchange class
            if g.n - used.bit_count() < k - i:
                return None
            lo = 0
            for p in range(i):
                if cls[porder[p]] == cls[porder[i]]:
                    lo = max(lo, _low_bit(sets[p]) + 1)
            seeds = full & ~used & -(1 << lo)
            while seeds:
                s = _low_bit(seeds)
                seeds ^= 1 << s
                check_budget()
                done = step(t + 1, sets + (1 << s,), nbs + (adjm[s],), used | 1 << s)
                if done is not None:
                    return done
            return None
        if nbs[j] & sets[i]:
            return step(t + 1, sets, nbs, used)
        # route a chain out of set i, one untried-extension mask per depth;
        # the longest chain still leaves room for the unseeded pattern vertices
        room = g.n - used.bit_count() - (k - i)
        chain: list[int] = []
        todo = [nbs[i] & ~used] if room >= 0 else []
        taken = used
        while todo:
            ext = todo[-1]
            if not ext:
                todo.pop()
                if chain:
                    taken ^= 1 << chain.pop()
                continue
            low = ext & -ext
            todo[-1] = ext ^ low
            v = low.bit_length() - 1
            check_budget()
            chain.append(v)
            taken |= low
            if adjm[v] & sets[j]:
                # the chain joins set i to set j; try every split point
                suffix_nbs = [0] * (len(chain) + 1)
                for c in range(len(chain) - 1, -1, -1):
                    suffix_nbs[c] = suffix_nbs[c + 1] | adjm[chain[c]]
                prefix = prefix_nbs = 0
                for cut in range(len(chain) + 1):
                    if cut:
                        prefix |= 1 << chain[cut - 1]
                        prefix_nbs |= adjm[chain[cut - 1]]
                    new_sets, new_nbs = list(sets), list(nbs)
                    new_sets[i] |= prefix
                    new_nbs[i] |= prefix_nbs
                    new_sets[j] |= taken & ~used & ~prefix
                    new_nbs[j] |= suffix_nbs[cut]
                    done = step(t + 1, tuple(new_sets), tuple(new_nbs), taken)
                    if done is not None:
                        return done
            if len(chain) <= room:
                todo.append(adjm[v] & ~taken)
            else:
                taken ^= 1 << chain.pop()
        return None

    # a model of a 2-connected pattern lies inside one block of the host,
    # so each block is searched alone with every vertex outside it used
    areas = [full]
    if is_biconnected(pattern):
        areas = [sum(1 << v for v in block) for block in blocks(g)]
    for area in areas:
        sets = step(0, (), (), full & ~area)
        if sets is not None:
            break
    else:
        return False, None
    branch = [frozenset()] * k
    for pos, pv in enumerate(porder):
        branch[pv] = frozenset(v for v in range(g.n) if sets[pos] >> v & 1)
    witness = MinorWitness(tuple(branch))
    ok, why = verify_minor_witness(g, pattern, witness)
    if not ok:
        raise AssertionError(f"minor search produced a bad witness: {why}")
    return True, witness

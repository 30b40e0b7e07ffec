"""Treewidth-2 certification and exhaustive minor containment.

Two independent routes to "no K4 minor":

* recognize_tw2   -- reduce a multigraph workspace by deleting isolated and
                     degree-1 vertices, merging parallel edges and suppressing
                     degree-2 vertices; the graph has treewidth <= 2 iff the
                     workspace empties.  A graph that gets stuck is simple
                     with minimum degree >= 3 and therefore has a K4 minor.
                     The trace is a list of (rule, args) pairs, which
                     replay_reduction_trace re-applies one by one.
* elimination orders -- a perfect elimination style certificate: each
                     eliminated vertex sees at most 2 remaining neighbors
                     (clique fill-in, here at most one fill edge).

has_minor is a brute-force branch-set search, independent of both, for
patterns on at most 6 vertices.  It is exact: False means the search space
was exhausted, and running out of budget raises BudgetExhausted.
"""

from __future__ import annotations

from collections.abc import Sequence
from heapq import heappop, heappush
from itertools import combinations

from .errors import BudgetExhausted, CapExceeded
from .graphs import Graph, blocks, connected_components, is_biconnected

MINOR_PATTERN_CAP = 6

# has_minor refuses a host whose neighbour bitsets (each as wide as its
# vertex's highest neighbour) and two n-bit masks add up to more bits
MINOR_HOST_BITS_CAP = 1 << 28  # 32 MiB


# -- elimination orders --------------------------------------------------------


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
    g: Graph, order: Sequence[int]
) -> list[tuple[int, tuple[int, ...]]]:
    """Per-step (vertex, remaining neighbors) trace of an elimination run."""
    if sorted(order) != list(range(g.n)):
        raise ValueError("elimination order is not a permutation of the vertices")
    nbr = [set(row) for row in g.adj]
    return [(v, _eliminate(nbr, v)) for v in order]


def elimination_width(g: Graph, order: Sequence[int]) -> int:
    """Largest remaining-neighbor count along the order (0 for empty graphs)."""
    steps = elimination_steps(g, order)
    return max((len(rem) for _, rem in steps), default=0)


def find_elimination_order(g: Graph) -> tuple[int, ...] | None:
    """Greedy width-2 elimination: repeatedly take the lowest-index vertex of
    current degree <= 2, from a heap (eliminating never raises a degree, so a
    vertex stays eligible once pushed).  Succeeds for treewidth <= 2 graphs.

    This is _eliminate inlined on one set per vertex: a deleted vertex has
    at most two neighbours left, so at most one fill edge, and its own set
    is never read again.  The workspace is O(n + m) whatever the graph's
    shape."""
    nbr = [set(row) for row in g.adj]
    queued = [len(row) <= 2 for row in g.adj]
    ready = [v for v in range(g.n) if queued[v]]
    order = []
    while ready:
        v = heappop(ready)
        order.append(v)
        rem = nbr[v]
        if len(rem) == 2:
            a, b = rem
            nbr[a].add(b)
            nbr[b].add(a)
        for u in rem:
            near = nbr[u]
            near.discard(v)
            if not queued[u] and len(near) <= 2:
                queued[u] = True
                heappush(ready, u)
    return tuple(order) if len(order) == g.n else None


# -- reduction recognizer --------------------------------------------------------


# a reduction step is a pair (rule, args), the rule one of these
_ARITY = {"delete-isolated": 1, "delete-leaf": 2, "merge-parallel": 2, "suppress": 3}
_RANKED = tuple(_ARITY)  # recognize_tw2 takes the lowest rank first


def _multigraph_of(g: Graph) -> dict[int, list[int]]:
    """The reduction workspace: each vertex's neighbours, one entry per
    parallel edge, so a degree is a list length."""
    return {v: list(g.adj[v]) for v in range(g.n)}


def _apply_step(
    mg: dict[int, list[int]], rule: str, args: tuple[int, ...]
) -> str | None:
    """Apply one reduction rule to the workspace, or return why it does not
    apply (the workspace is then unchanged)."""
    if rule not in _ARITY:
        return "unknown rule"
    if len(args) != _ARITY[rule]:
        return f"expected {_ARITY[rule]} arguments"
    if rule == "delete-isolated":
        (v,) = args
        if v not in mg or mg[v]:
            return "vertex not isolated"
        del mg[v]
    elif rule == "delete-leaf":
        v, u = args
        if v not in mg or mg[v] != [u]:
            return "vertex not a leaf on that edge"
        mg[u].remove(v)
        del mg[v]
    elif rule == "merge-parallel":
        v, u = args
        if v not in mg or mg[v].count(u) < 2:
            return "no parallel pair"
        while mg[v].count(u) > 1:
            mg[v].remove(u)
            mg[u].remove(v)
    else:
        v, u, w = args
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


def _offer(heap: list, mg: dict[int, list[int]], v: int) -> None:
    """Push the steps at v keyed (rank, args), the rank indexing _RANKED:
    v isolated or a leaf, a parallel pair v < u, or v of degree 2."""
    nb = mg[v]
    if len(nb) < 2:
        heappush(heap, (len(nb), (v, *nb)))
    elif len(nb) == 2 and nb[0] != nb[1]:
        heappush(heap, (3, (v, *sorted(nb))))
    elif len(set(nb)) < len(nb):
        for u in set(nb):
            if v < u and nb.count(u) > 1:
                heappush(heap, (2, (v, u)))


def recognize_tw2(g: Graph) -> tuple[bool, list[tuple[str, tuple[int, ...]]]]:
    """Reduce to the empty multigraph, always taking the least step on offer.
    A step changes only its own arguments' neighbour lists, so only they are
    offered again, and _apply_step rejects offers that have gone stale.
    Returns (emptied?, trace), the trace a list of (rule, args) steps; a
    stuck workspace is simple with minimum degree >= 3."""
    mg = _multigraph_of(g)
    heap: list[tuple[int, tuple[int, ...]]] = []
    for v in mg:
        _offer(heap, mg, v)
    trace: list[tuple[str, tuple[int, ...]]] = []
    while heap:
        rank, args = heappop(heap)
        rule = _RANKED[rank]
        if _apply_step(mg, rule, args) is None:
            trace.append((rule, args))
            for v in mg.keys() & args:
                _offer(heap, mg, v)
    return not mg, trace


def replay_reduction_trace(
    g: Graph, trace: list[tuple[str, tuple[int, ...]]]
) -> tuple[bool, str | None]:
    """Re-validate a reduction trace step by step without re-searching.

    Any legal sequence that empties the workspace certifies treewidth <= 2;
    the steps need not follow recognize_tw2's scan order.
    """
    mg = _multigraph_of(g)
    for k, (rule, args) in enumerate(trace):
        why = _apply_step(mg, rule, args)
        if why is not None:
            return False, f"step {k} ({rule} {args}): {why}"
    if mg:
        return False, f"workspace not empty after replay: {sorted(mg)} remain"
    return True, None


# -- minor containment -----------------------------------------------------------


def verify_minor_witness(
    g: Graph, pattern: Graph, sets: Sequence[frozenset[int]]
) -> tuple[bool, str | None]:
    """Check a minor model: sets[i] is the connected host set modeling
    pattern vertex i."""
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
        if len(connected_components(g, s)) != 1:
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
) -> tuple[bool, tuple[frozenset[int], ...] | None]:
    """Exhaustive search for a minor model of `pattern` in `g`.

    Branch sets are grown one pattern vertex at a time by a fixed plan: seed
    the vertex, then join it to each earlier neighbor by routing a simple
    path through unassigned host vertices and splitting it between the two
    sets.  Interchangeable pattern vertices get increasing seeds.  Paths are
    routed in a loop, so the recursion depth is the plan length (at most 21
    steps) for any host.  A 2-connected pattern is searched for one block of
    the host at a time, in ascending block order, under one node count.
    Exact for pattern.n <= 6; the node budget guards large hosts, and
    MINOR_HOST_BITS_CAP refuses huge ones.  Returns (found, branch sets
    indexed by pattern vertex, or None).
    """
    if pattern.n > MINOR_PATTERN_CAP:
        raise CapExceeded(
            f"minor patterns are capped at {MINOR_PATTERN_CAP} vertices,"
            f" got {pattern.n}"
        )
    bits = 2 * g.n + sum(row[-1] + 1 for row in g.adj if row)
    if bits > MINOR_HOST_BITS_CAP:
        raise CapExceeded(
            f"minor-search hosts are capped at {MINOR_HOST_BITS_CAP} bits of"
            f" vertex bitsets; this one needs {bits}"
        )
    k = pattern.n
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
        areas = (sum(1 << v for v in block) for block in blocks(g))
    for area in areas:
        sets = step(0, (), (), full & ~area)
        if sets is not None:
            break
    else:
        return False, None
    branch = [frozenset()] * k
    for pos, pv in enumerate(porder):
        branch[pv] = frozenset(v for v in range(g.n) if sets[pos] >> v & 1)
    ok, why = verify_minor_witness(g, pattern, branch)
    if not ok:
        raise AssertionError(f"minor search produced a bad witness: {why}")
    return True, tuple(branch)

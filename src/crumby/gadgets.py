"""Gadget catalog and the two-terminal series-parallel algebra behind it.

The small gadget F has nine vertices in fixed positions

    x=0 a=1 b=2 c=3 d=4 e=5 f=6 g=7 h=8

and edges xa xb ac bd cd ce df eg eh fg fh.  R wraps F with two extra
vertices s=0, t=1 (F shifted to 2..10) and edges sx st ta.  Every bundled
gadget is assembled from role-labelled copies of F (a copy that also maps
s and t is a copy of R) plus the edges that join the copies: F and R are
one copy, G18 is two copies of F joined by the edge x1x2, and G40 is two
R's and two F's joined by four edges.  The vertex numbers below are the
module's convention and are fixed: tests and certificates depend on them.

The SpExpr algebra (EdgeLeaf, Series, Parallel, Reverse) expands to labeled
graphs with a deterministic depth-first vertex numbering; build_F_sp and
build_G40_sp check, through one matcher, that the algebraic constructions
reproduce build_F and build_G40 edge-for-edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import ExpansionError
from .graphs import Graph, graph_from_edge_list, relabel

# -- series-parallel expressions ----------------------------------------------


@dataclass(frozen=True)
class EdgeLeaf:
    def __str__(self) -> str:
        return "E"


@dataclass(frozen=True)
class Series:
    children: tuple["SpExpr", ...]

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise ExpansionError("Series needs at least 2 children")

    def __str__(self) -> str:
        return "(" + "*".join(str(c) for c in self.children) + ")"


@dataclass(frozen=True)
class Parallel:
    children: tuple["SpExpr", ...]

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise ExpansionError("Parallel needs at least 2 children")

    def __str__(self) -> str:
        return "(" + "|".join(str(c) for c in self.children) + ")"


@dataclass(frozen=True)
class Reverse:
    child: "SpExpr"

    def __str__(self) -> str:
        return f"rev({self.child})"


SpExpr = Union[EdgeLeaf, Series, Parallel, Reverse]

E = EdgeLeaf()


def series(*children: SpExpr) -> Series:
    return Series(tuple(children))


def parallel(*children: SpExpr) -> Parallel:
    return Parallel(tuple(children))


def rev(child: SpExpr) -> Reverse:
    return Reverse(child)


@dataclass(frozen=True)
class LabeledGraph:
    """A graph with a role name for each of its vertices."""

    graph: Graph
    role_labels: dict[int, str]

    def roles(self) -> dict[str, int]:
        """Role name -> vertex, the inverse of role_labels."""
        return {role: v for v, role in self.role_labels.items()}


def expand(expr: SpExpr) -> Graph:
    """Expand a two-terminal expression into a simple, unlabelled graph.

    Vertex numbering is deterministic: the root terminals become 0 and 1,
    and internal vertices are allocated depth-first, with the junctions of a
    Series interleaved left to right.  Parallel edges are an error naming the
    subexpression that produced the second copy.
    """
    edges: set[tuple[int, int]] = set()
    counter = [2]

    def alloc() -> int:
        v = counter[0]
        counter[0] += 1
        return v

    def walk(node: SpExpr, s: int, t: int) -> None:
        if isinstance(node, EdgeLeaf):
            key = (s, t) if s < t else (t, s)
            if key in edges:
                raise ExpansionError(
                    f"duplicate edge {key[0]}-{key[1]} while expanding E"
                    f" (parallel edges are not allowed)"
                )
            edges.add(key)
        elif isinstance(node, Series):
            prev = s
            for child in node.children[:-1]:
                nxt = alloc()
                walk(child, prev, nxt)
                prev = nxt
            walk(node.children[-1], prev, t)
        elif isinstance(node, Parallel):
            for child in node.children:
                walk(child, s, t)
        elif isinstance(node, Reverse):
            walk(node.child, t, s)
        else:  # pragma: no cover
            raise ExpansionError(f"unknown expression node {node!r}")

    try:
        walk(expr, 0, 1)
    except ExpansionError as exc:
        raise ExpansionError(f"{exc} in {expr}") from None
    return graph_from_edge_list(counter[0], sorted(edges))


# -- fixed gadget constructions ------------------------------------------------

F_ROLES = ("x", "a", "b", "c", "d", "e", "f", "g", "h")

F_EDGES_BY_ROLE = (
    ("x", "a"), ("x", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("c", "e"),
    ("d", "f"), ("e", "g"), ("e", "h"), ("f", "g"), ("f", "h"),
)

# the handle that turns a copy of F into a copy of R
R_HANDLE_EDGES = (("s", "x"), ("s", "t"), ("t", "a"))

# swapping these pairs (x, g, h fixed) is an automorphism of F
F_AUTOMORPHISM = {0: 0, 1: 2, 2: 1, 3: 4, 4: 3, 5: 6, 6: 5, 7: 7, 8: 8}


def _f_copy(first: int) -> dict[str, int]:
    """F's roles on the vertices first..first+8, in F_ROLES order."""
    return {role: first + i for i, role in enumerate(F_ROLES)}


def _assemble(
    copies: dict[str, dict[str, int]], joins: tuple[tuple[int, int], ...] = ()
) -> LabeledGraph:
    """Copies of F joined by `joins`; each copy is a role -> vertex map.

    A copy that maps s and t is a copy of R and also gets R's handle.  A
    vertex is labelled by its role followed by the copy's key, and the
    copies' vertices must number 0..n-1 between them.
    """
    edges = list(joins)
    labels: dict[int, str] = {}
    for suffix, roles in copies.items():
        pairs = F_EDGES_BY_ROLE + (R_HANDLE_EDGES if "s" in roles else ())
        edges += [(roles[a], roles[b]) for a, b in pairs]
        labels.update({v: role + suffix for role, v in roles.items()})
    return LabeledGraph(graph_from_edge_list(len(labels), edges), labels)


def build_F() -> LabeledGraph:
    """The 9-vertex gadget, x=0 and a=1."""
    return _assemble({"": _f_copy(0)})


def build_R() -> LabeledGraph:
    """F wrapped with s=0, t=1 and edges sx, st, ta; F sits on 2..10."""
    return _assemble({"": {"s": 0, "t": 1, **_f_copy(2)}})


def build_G18() -> LabeledGraph:
    """Two copies of F joined by the edge x1-x2; copies on 0..8 and 9..17."""
    return _assemble({"1": _f_copy(0), "2": _f_copy(9)}, ((0, 9),))


# G40: copies 1 and 2 of R, copy 3 of F rooted at 30 toward 22 and copy 4 of
# F rooted at 31 toward 39, joined by the edges t1-t2, s2-a3, x3-x4, s1-a4.
G40_COPIES: dict[str, dict[str, int]] = {
    "1": {"s": 0, "t": 1, **_f_copy(2)},
    "2": {"s": 11, "t": 12, **_f_copy(13)},
    "3": {"x": 30, "a": 22, "b": 23, "c": 24, "d": 25,
          "e": 26, "f": 27, "g": 28, "h": 29},
    "4": {"x": 31, "a": 39, "b": 32, "c": 33, "d": 34,
          "e": 35, "f": 36, "g": 37, "h": 38},
}
G40_JOINS = ((1, 12), (11, 22), (30, 31), (0, 39))


def build_G40() -> LabeledGraph:
    """The 40-vertex graph: the four copies of G40_COPIES and G40_JOINS."""
    return _assemble(G40_COPIES, G40_JOINS)


# -- algebraic builds of F and G40 ---------------------------------------------

P2 = series(E, E)
A_EXPR = parallel(E, series(E, parallel(P2, P2), E))
Q_EXPR = parallel(E, series(P2, A_EXPR, E))  # expands to F between x and a
R_EXPR = parallel(E, series(E, Q_EXPR, E))  # expands to R between s and t
G40_EXPR = parallel(E, series(R_EXPR, E, rev(R_EXPR), E, rev(Q_EXPR), E, Q_EXPR))

# roles of the internal vertices of Q/R in expand()'s allocation order
Q_INTERNAL_ROLES = ("d", "b", "c", "f", "e", "g", "h")
R_INTERNAL_ROLES = ("x", "a") + Q_INTERNAL_ROLES


def _in_copy(suffix: str, roles: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(role + suffix for role in roles)


# role labels of G40_EXPR's vertices in expand()'s order: the root terminals
# s1 and a4, then each series junction before the internals of its module
G40_EXPANSION_ROLES = (
    ("s1", "a4", "t1") + _in_copy("1", R_INTERNAL_ROLES)
    + ("t2", "s2") + _in_copy("2", R_INTERNAL_ROLES)
    + ("a3", "x3") + _in_copy("3", Q_INTERNAL_ROLES)
    + ("x4",) + _in_copy("4", Q_INTERNAL_ROLES)
)


def sp_edge_mismatch(expr_graph: Graph, gadget_graph: Graph) -> list[str]:
    """Symmetric difference of edge sets, formatted; empty means equal."""
    a, b = set(expr_graph.edges()), set(gadget_graph.edges())
    report = [f"expansion-only edge {u}-{v}" for u, v in sorted(a - b)]
    report += [f"gadget-only edge {u}-{v}" for u, v in sorted(b - a)]
    return report


def _match_expansion(
    expr: SpExpr, roles: tuple[str, ...], lg: LabeledGraph
) -> LabeledGraph:
    """Expand `expr` and renumber its vertex i to lg's vertex labelled
    roles[i]; any edge mismatch against lg is a hard error."""
    where = lg.roles()
    expanded = relabel(expand(expr), [where[role] for role in roles])
    mismatch = sp_edge_mismatch(expanded, lg.graph)
    if mismatch:
        raise ExpansionError(
            "series-parallel expansion disagrees with the gadget: "
            + "; ".join(mismatch)
        )
    return LabeledGraph(expanded, lg.role_labels)


def build_F_sp() -> LabeledGraph:
    """F from the expansion of Q_EXPR, checked edge-for-edge against build_F."""
    return _match_expansion(Q_EXPR, ("x", "a") + Q_INTERNAL_ROLES, build_F())


def build_G40_sp() -> LabeledGraph:
    """G40 from the expansion of G40_EXPR, checked edge-for-edge against
    build_G40."""
    return _match_expansion(G40_EXPR, G40_EXPANSION_ROLES, build_G40())


# width-2 elimination schedule for one copy of F: role -> remaining neighbors
F_ELIMINATION_TABLE: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("g", ("e", "f")),
    ("h", ("e", "f")),
    ("e", ("c", "f")),
    ("f", ("c", "d")),
    ("c", ("a", "d")),
    ("d", ("a", "b")),
    ("a", ("x", "b")),
    ("b", ("x",)),
)


def g18_elimination_order() -> tuple[int, ...]:
    """Eliminate both F copies by the bundled schedule, then the two roots."""
    roles = build_G18().roles()
    order = [roles[f"{role}1"] for role, _ in F_ELIMINATION_TABLE]
    order += [roles[f"{role}2"] for role, _ in F_ELIMINATION_TABLE]
    return tuple(order + [roles["x1"], roles["x2"]])


def drop_edge(lg: LabeledGraph, role_u: str, role_v: str) -> LabeledGraph:
    """Copy of a labeled gadget with one edge removed; for negative controls."""
    roles = lg.roles()
    u, v = roles[role_u], roles[role_v]
    edges = [e for e in lg.graph.edges() if e != (min(u, v), max(u, v))]
    if len(edges) == lg.graph.m:
        raise ValueError(f"no edge {role_u}-{role_v} in the gadget")
    g = graph_from_edge_list(lg.graph.n, edges)
    return LabeledGraph(g, lg.role_labels)


GADGETS = {
    "F": build_F,
    "R": build_R,
    "G18": build_G18,
    "G40": build_G40,
    "G40-sp": build_G40_sp,
}

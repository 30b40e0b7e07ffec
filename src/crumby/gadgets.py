"""Gadget catalog and the two-terminal series-parallel algebra behind it.

The small gadget F has nine vertices in fixed positions

    x=0 a=1 b=2 c=3 d=4 e=5 f=6 g=7 h=8

and edges xa xb ac bd cd ce df eg eh fg fh.  R wraps F with two extra
vertices s=0, t=1 (F shifted to 2..10) and edges sx st ta.  G18 is two
copies of F joined by the single edge x1x2; G40 is built from two R's and
two F's.  The vertex numbers below are the module's convention and are fixed:
tests and certificates depend on them.

The SpExpr algebra (EdgeLeaf, Series, Parallel, Reverse) expands to labeled
graphs with a deterministic depth-first vertex numbering; build_G40_sp checks
that the algebraic construction reproduces build_G40 edge-for-edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import ExpansionError
from .graphs import Graph, graph_from_edge_list

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
    """A graph with two distinguished terminals and optional role names."""

    graph: Graph
    terminal_first: int
    terminal_second: int
    role_labels: dict[int, str] | None = None

    def roles(self) -> dict[str, int]:
        """Role name -> vertex, the inverse of role_labels."""
        if self.role_labels is None:
            raise ValueError("gadget has no role labels")
        return {role: v for v, role in self.role_labels.items()}


def expand(expr: SpExpr) -> LabeledGraph:
    """Expand a two-terminal expression into a simple graph.

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
    return LabeledGraph(graph_from_edge_list(counter[0], sorted(edges)), 0, 1)


# -- fixed gadget constructions ------------------------------------------------

F_ROLES = ("x", "a", "b", "c", "d", "e", "f", "g", "h")

F_EDGES_BY_ROLE = (
    ("x", "a"), ("x", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("c", "e"),
    ("d", "f"), ("e", "g"), ("e", "h"), ("f", "g"), ("f", "h"),
)

# degree-2 roles of F; every other F vertex has degree 3
F_DEGREE2_ROLES = frozenset({"x", "a", "b", "g", "h"})

# swapping these pairs (x, g, h fixed) is an automorphism of F
F_AUTOMORPHISM = {0: 0, 1: 2, 2: 1, 3: 4, 4: 3, 5: 6, 6: 5, 7: 7, 8: 8}


def _f_edges(role_to_vertex: dict[str, int]) -> list[tuple[int, int]]:
    return [(role_to_vertex[a], role_to_vertex[b]) for a, b in F_EDGES_BY_ROLE]


def build_F() -> LabeledGraph:
    """The 9-vertex gadget, terminals (x, a) = (0, 1)."""
    roles = {role: i for i, role in enumerate(F_ROLES)}
    g = graph_from_edge_list(9, _f_edges(roles))
    return LabeledGraph(g, 0, 1, {v: r for r, v in roles.items()})


def build_R() -> LabeledGraph:
    """F wrapped with s=0, t=1 and edges sx, st, ta; F sits on 2..10."""
    roles = {"s": 0, "t": 1}
    roles.update({role: i + 2 for i, role in enumerate(F_ROLES)})
    edges = _f_edges(roles) + [
        (roles["s"], roles["x"]),
        (roles["s"], roles["t"]),
        (roles["t"], roles["a"]),
    ]
    g = graph_from_edge_list(11, edges)
    return LabeledGraph(g, 0, 1, {v: r for r, v in roles.items()})


def build_G18() -> LabeledGraph:
    """Two copies of F joined by the edge x1-x2; copies on 0..8 and 9..17."""
    roles1 = {role: i for i, role in enumerate(F_ROLES)}
    roles2 = {role: i + 9 for i, role in enumerate(F_ROLES)}
    edges = _f_edges(roles1) + _f_edges(roles2) + [(roles1["x"], roles2["x"])]
    g = graph_from_edge_list(18, edges)
    labels = {v: f"{r}1" for r, v in roles1.items()}
    labels.update({v: f"{r}2" for r, v in roles2.items()})
    return LabeledGraph(g, 0, 9, labels)


# G40: R(0,1) and R(11,12), F rooted at 30 toward 22, F rooted at 31 toward
# 39, joined by edges 1-12, 11-22, 30-31, 39-0.  Flat copy -> role -> vertex.
G40_COPIES: dict[str, dict[str, int]] = {
    "R1": {"s": 0, "t": 1, "x": 2, "a": 3, "b": 4, "c": 5, "d": 6,
           "e": 7, "f": 8, "g": 9, "h": 10},
    "R2": {"s": 11, "t": 12, "x": 13, "a": 14, "b": 15, "c": 16, "d": 17,
           "e": 18, "f": 19, "g": 20, "h": 21},
    "F3": {"x": 30, "a": 22, "b": 23, "c": 24, "d": 25,
           "e": 26, "f": 27, "g": 28, "h": 29},
    "F4": {"x": 31, "a": 39, "b": 32, "c": 33, "d": 34,
           "e": 35, "f": 36, "g": 37, "h": 38},
}

G40_EDGES: tuple[tuple[int, int], ...] = (
    (0, 1), (0, 2), (0, 39), (1, 3), (1, 12), (2, 3), (2, 4), (3, 5),
    (4, 6), (5, 6), (5, 7), (6, 8), (7, 9), (7, 10), (8, 9), (8, 10),
    (11, 12), (11, 13), (11, 22), (12, 14), (13, 14), (13, 15), (14, 16),
    (15, 17), (16, 17), (16, 18), (17, 19), (18, 20), (18, 21), (19, 20),
    (19, 21), (22, 24), (22, 30), (23, 25), (23, 30), (24, 25), (24, 26),
    (25, 27), (26, 28), (26, 29), (27, 28), (27, 29), (30, 31), (31, 32),
    (31, 39), (32, 34), (33, 34), (33, 35), (33, 39), (34, 36), (35, 37),
    (35, 38), (36, 37), (36, 38),
)


def g40_role_labels() -> dict[int, str]:
    labels: dict[int, str] = {}
    for copy, roles in G40_COPIES.items():
        for role, v in roles.items():
            labels[v] = f"{role}{copy[-1]}"
    return labels


def build_G40() -> LabeledGraph:
    """The 40-vertex graph from the fixed 54-edge table."""
    g = graph_from_edge_list(40, G40_EDGES)
    return LabeledGraph(g, 0, 39, g40_role_labels())


# -- algebraic build of G40 ----------------------------------------------------

P2 = series(E, E)
A_EXPR = parallel(E, series(E, parallel(P2, P2), E))
Q_EXPR = parallel(E, series(P2, A_EXPR, E))  # expands to F between x and a
R_EXPR = parallel(E, series(E, Q_EXPR, E))  # expands to R between s and t
G40_EXPR = parallel(E, series(R_EXPR, E, rev(R_EXPR), E, rev(Q_EXPR), E, Q_EXPR))

# roles of the internal vertices of Q/R in expand()'s allocation order
Q_INTERNAL_ROLES = ("d", "b", "c", "f", "e", "g", "h")
R_INTERNAL_ROLES = ("x", "a") + Q_INTERNAL_ROLES


def _g40_expansion_to_table() -> list[int]:
    """Expansion-order vertex ids of G40_EXPR mapped to the table numbering.

    Mirrors expand(): root terminals 0 and 39 first, then the series chain
    junctions interleaved with each module's internal block.
    """
    r1, r2 = G40_COPIES["R1"], G40_COPIES["R2"]
    f3, f4 = G40_COPIES["F3"], G40_COPIES["F4"]
    out = [0, 39]
    out.append(r1["t"])                                # junction after R1
    out.extend(r1[role] for role in R_INTERNAL_ROLES)  # R1 internals
    out.append(r2["t"])                                # junction after the bridge E
    out.append(r2["s"])                                # junction after reversed R2
    out.extend(r2[role] for role in R_INTERNAL_ROLES)  # R2 internals
    out.append(f3["a"])                                # junction after bridge E
    out.append(f3["x"])                                # junction after reversed F3
    out.extend(f3[role] for role in Q_INTERNAL_ROLES)  # F3 internals
    out.append(f4["x"])                                # junction after bridge E
    out.extend(f4[role] for role in Q_INTERNAL_ROLES)  # F4 internals
    return out


def sp_edge_mismatch(expr_graph: Graph, table_graph: Graph) -> list[str]:
    """Symmetric difference of edge sets, formatted; empty means equal."""
    a, b = set(expr_graph.edges()), set(table_graph.edges())
    report = [f"expansion-only edge {u}-{v}" for u, v in sorted(a - b)]
    report += [f"table-only edge {u}-{v}" for u, v in sorted(b - a)]
    return report


def build_G40_sp() -> LabeledGraph:
    """Expand the series-parallel expression for G40 and relabel to the
    table numbering; any edge mismatch against build_G40 is a hard error."""
    expanded = expand(G40_EXPR)
    mapping = _g40_expansion_to_table()
    if sorted(mapping) != list(range(40)) or expanded.graph.n != 40:
        raise ExpansionError("G40 expansion relabeling is not a 40-permutation")
    relabeled = graph_from_edge_list(
        40, [(mapping[u], mapping[v]) for u, v in expanded.graph.edges()]
    )
    mismatch = sp_edge_mismatch(relabeled, build_G40().graph)
    if mismatch:
        raise ExpansionError(
            "series-parallel expansion disagrees with the edge table: "
            + "; ".join(mismatch)
        )
    return LabeledGraph(relabeled, 0, 39, g40_role_labels())


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


# open ear decomposition of G40: the outer cycle plus 14 ears
G40_EAR_CYCLE: tuple[int, ...] = (0, 1, 12, 11, 22, 30, 31, 39, 0)
G40_EARS: tuple[tuple[int, ...], ...] = (
    (0, 2, 3, 1),
    (2, 4, 6, 5, 3),
    (5, 7, 9, 8, 6),
    (7, 10, 8),
    (11, 13, 14, 12),
    (13, 15, 17, 16, 14),
    (16, 18, 20, 19, 17),
    (18, 21, 19),
    (30, 23, 25, 24, 22),
    (24, 26, 28, 27, 25),
    (26, 29, 27),
    (31, 32, 34, 33, 39),
    (33, 35, 37, 36, 34),
    (35, 38, 36),
)


def drop_edge(lg: LabeledGraph, role_u: str, role_v: str) -> LabeledGraph:
    """Copy of a labeled gadget with one edge removed; for negative controls."""
    roles = lg.roles()
    u, v = roles[role_u], roles[role_v]
    edges = [e for e in lg.graph.edges() if e != (min(u, v), max(u, v))]
    if len(edges) == lg.graph.m:
        raise ValueError(f"no edge {role_u}-{role_v} in the gadget")
    g = graph_from_edge_list(lg.graph.n, edges)
    return LabeledGraph(g, lg.terminal_first, lg.terminal_second, lg.role_labels)


GADGETS = {
    "F": build_F,
    "R": build_R,
    "G18": build_G18,
    "G40": build_G40,
    "G40-sp": build_G40_sp,
}

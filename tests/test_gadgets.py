from __future__ import annotations

import pytest
from hypothesis import given, settings

from crumby import ExpansionError, expand, is_connected, parallel, rev, series
from crumby.gadgets import (
    E,
    F_AUTOMORPHISM,
    F_DEGREE2_ROLES,
    G40_EDGES,
    GADGETS,
    build_F,
    build_G18,
    build_G40,
    build_G40_sp,
    build_R,
    drop_edge,
    g18_elimination_order,
    sp_edge_mismatch,
)
from crumby.minorfree import EliminationOrder, elimination_width, recognize_tw2
from tests import oracles
from tests.strategies import sp_expressions

PROPERTY = settings(max_examples=60, deadline=None)


# -- the expression algebra --------------------------------------------------


def test_single_edge_expansion():
    lg = expand(E)
    assert lg.graph.edges() == [(0, 1)]
    assert (lg.terminal_first, lg.terminal_second) == (0, 1)


def test_series_chains_through_fresh_vertices():
    lg = expand(series(E, E, E))
    assert lg.graph.n == 4 and lg.graph.m == 3
    assert lg.graph.degree(lg.terminal_first) == 1
    assert lg.graph.degree(lg.terminal_second) == 1


def test_parallel_duplicate_edge_is_rejected_with_context():
    with pytest.raises(ExpansionError, match=r"\(E\|E\)"):
        expand(parallel(E, E))


def test_reverse_is_an_involution_up_to_expansion():
    expr = series(E, parallel(series(E, E), series(E, E, E)))
    assert expand(rev(rev(expr))).graph == expand(expr).graph


def test_series_is_associative_up_to_isomorphism():
    a = expand(series(series(E, E), E)).graph
    b = expand(series(E, series(E, E))).graph
    assert oracles.naive_isomorphic(a, b)


def test_parallel_is_commutative_up_to_isomorphism():
    two = series(E, E)
    three = series(E, E, E)
    a = expand(parallel(two, three)).graph
    b = expand(parallel(three, two)).graph
    assert oracles.naive_isomorphic(a, b)


@given(sp_expressions())
@PROPERTY
def test_every_expansion_is_connected_with_width_at_most_two(expr):
    lg = expand(expr)
    assert is_connected(lg.graph)
    assert lg.terminal_first != lg.terminal_second
    accepted, _ = recognize_tw2(lg.graph)
    assert accepted


# -- the fixed gadgets -------------------------------------------------------


def test_f_shape(f_gadget):
    g = f_gadget.graph
    assert g.n == 9 and g.m == 11
    assert g.max_degree() == 3
    roles = {v: r for v, r in f_gadget.role_labels.items()}
    degree2 = {r for v, r in roles.items() if g.degree(v) == 2}
    assert degree2 == set(F_DEGREE2_ROLES) == {"x", "a", "b", "g", "h"}


def test_f_automorphism_preserves_edges(f_gadget):
    g = f_gadget.graph
    mapped = {(F_AUTOMORPHISM[u], F_AUTOMORPHISM[v]) for u, v in g.edges()}
    assert {tuple(sorted(e)) for e in mapped} == set(g.edges())
    assert sorted(F_AUTOMORPHISM) == sorted(F_AUTOMORPHISM.values())


def test_f_is_triangle_free(f_gadget):
    g = f_gadget.graph
    for u, v in g.edges():
        assert not set(g.adj[u]) & set(g.adj[v])


def test_r_adds_a_two_edge_handle(r_gadget, f_gadget):
    g = r_gadget.graph
    assert g.n == 11 and g.m == 14
    assert g.max_degree() == 3
    roles = {r: v for v, r in r_gadget.role_labels.items()}
    assert g.has_edge(roles["s"], roles["t"])
    assert g.has_edge(roles["s"], roles["x"])
    assert g.has_edge(roles["t"], roles["a"])


def test_g18_is_two_linked_copies(g18):
    g = g18.graph
    assert g.n == 18 and g.m == 23
    assert g.max_degree() == 3
    roles = {r: v for v, r in g18.role_labels.items()}
    assert g.has_edge(roles["x1"], roles["x2"])
    assert elimination_width(g, EliminationOrder(g18_elimination_order())) <= 2


def test_g40_shape(g40):
    g = g40.graph
    assert g.n == 40 and g.m == 54 and len(G40_EDGES) == 54
    assert g.max_degree() == 3
    degree2 = {v for v in range(g.n) if g.degree(v) == 2}
    assert degree2 == {4, 9, 10, 15, 20, 21, 23, 28, 29, 32, 37, 38}


def test_g40_sp_expansion_matches_the_edge_table(g40):
    lg = build_G40_sp()
    assert lg.graph == g40.graph


def test_sp_edge_mismatch_reports_symmetric_difference(g40):
    other = drop_edge(g40, "x1", "a1")
    diff = sp_edge_mismatch(g40.graph, other.graph)
    assert diff and any("only" in entry for entry in diff)


def test_gadget_registry_contents():
    assert set(GADGETS) == {"F", "R", "G18", "G40", "G40-sp"}
    for name, builder in GADGETS.items():
        lg = builder()
        assert is_connected(lg.graph)
        assert lg.graph.max_degree() <= 3


def test_drop_edge_validates_roles(f_gadget):
    smaller = drop_edge(f_gadget, "f", "h")
    assert smaller.graph.m == f_gadget.graph.m - 1
    with pytest.raises(ValueError):
        drop_edge(f_gadget, "x", "h")


def test_every_gadget_has_width_two():
    for builder in GADGETS.values():
        accepted, _ = recognize_tw2(builder().graph)
        assert accepted

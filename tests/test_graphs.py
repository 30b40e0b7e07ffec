from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings

from crumby import (
    CapExceeded,
    EarDecomposition,
    Graph6Error,
    GraphError,
    bitmask_of_graph,
    blocks,
    complete_bipartite,
    complete_graph,
    connected_components,
    cut_vertices,
    edge_bit_index,
    emit_dot,
    emit_edge_list,
    emit_graph6,
    enumerate_p4,
    graph_from_bitmask,
    graph_from_edge_list,
    induced_subgraph,
    is_biconnected,
    is_bipartite,
    is_connected,
    parse_edge_list,
    parse_graph6,
    relabel,
    verify_ear_decomposition,
)
from crumby.graphs import EDGE_LIST_MAX_N
from tests import oracles, strategies

PROPERTY = settings(max_examples=80, deadline=None)


def path_graph(n: int):
    return graph_from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int):
    return graph_from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


# -- construction ------------------------------------------------------------


def test_edge_list_rejects_self_loop():
    with pytest.raises(GraphError, match="self-loop"):
        graph_from_edge_list(2, [(0, 0)])


def test_edge_list_rejects_out_of_range():
    with pytest.raises(GraphError, match="out of range"):
        graph_from_edge_list(2, [(0, 5)])


def test_edge_list_rejects_duplicates_in_either_orientation():
    with pytest.raises(GraphError, match="duplicate"):
        graph_from_edge_list(3, [(0, 1), (1, 0)])


def test_adjacency_is_sorted_and_symmetric():
    g = graph_from_edge_list(4, [(2, 0), (3, 1), (1, 0)])
    assert g.adj == ((1, 2), (0, 3), (0,), (1,))


def test_degree_helpers():
    g = complete_bipartite(2, 3)
    assert g.n == 5 and g.m == 6
    assert sorted(g.degree(v) for v in range(g.n)) == [2, 2, 2, 3, 3]
    assert g.max_degree() == 3


@given(strategies.graphs(max_n=9))
@PROPERTY
def test_handshake_lemma(g):
    assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m


@given(strategies.graphs(max_n=8))
@PROPERTY
def test_bitmask_round_trip(g):
    assert graph_from_bitmask(g.n, bitmask_of_graph(g)) == g


def test_bitmask_rejects_bits_beyond_the_edge_slots():
    assert graph_from_bitmask(3, 0b111) == complete_graph(3)
    with pytest.raises(GraphError, match="beyond the 3 edge slots"):
        graph_from_bitmask(3, 1 << 3)


def test_edge_bit_index_is_colex():
    assert [edge_bit_index(i, j) for i, j in [(0, 1), (0, 2), (1, 2), (0, 3)]] == [
        0,
        1,
        2,
        3,
    ]


def test_relabel_roundtrip():
    g = path_graph(4)
    perm = [3, 1, 0, 2]
    inverse = [perm.index(i) for i in range(4)]
    assert relabel(relabel(g, perm), inverse) == g


def test_induced_subgraph_of_k4_triangle():
    assert induced_subgraph(complete_graph(4), [0, 2, 3]) == complete_graph(3)


# -- serialization -----------------------------------------------------------


def test_graph6_known_values():
    assert emit_graph6(complete_graph(2)) == "A_"
    assert emit_graph6(complete_graph(3)) == "Bw"
    assert parse_graph6("A_") == complete_graph(2)
    assert emit_graph6(complete_graph(0)) == "?"
    assert emit_graph6(complete_graph(1)) == "@"
    # n = 62: 1891 adjacency bits in 316 bytes, the last one 1 bit + 5 padding
    k62 = "}" + "~" * 315 + "_"
    empty62 = "}" + "?" * 316
    assert emit_graph6(complete_graph(62)) == k62
    assert emit_graph6(graph_from_edge_list(62, [])) == empty62
    for line in ("?", "@", k62, empty62):
        assert emit_graph6(parse_graph6(line)) == line
    assert parse_graph6(k62) == complete_graph(62)


@given(strategies.graphs(max_n=13))
@PROPERTY
def test_graph6_round_trip(g):
    assert parse_graph6(emit_graph6(g)) == g


def test_graph6_rejects_malformed_lines():
    for line, pattern in [
        ("", "empty"),
        ("~~", "multi-byte"),
        ("B", "adjacency bytes"),
        ("Bw!", "printable"),
        ("B~", "padding"),
    ]:
        with pytest.raises(Graph6Error, match=pattern):
            parse_graph6(line)


def test_graph6_emit_cap():
    with pytest.raises(Graph6Error, match="62"):
        emit_graph6(complete_graph(63))


def test_edge_list_text_round_trip():
    g = graph_from_edge_list(5, [(0, 4), (1, 2)])
    assert parse_edge_list(emit_edge_list(g)) == g


def test_edge_list_text_allows_comments_and_blanks():
    g = parse_edge_list("# demo\n3 1\n\n0 2\n")
    assert g.n == 3 and g.edges() == [(0, 2)]


def test_edge_list_text_rejects_bad_header():
    with pytest.raises(GraphError):
        parse_edge_list("3\n0 1\n")


def test_edge_list_header_is_capped():
    # only cap + 1 is tried: a wrong check would allocate rows for n
    with pytest.raises(CapExceeded, match="capped"):
        parse_edge_list(f"{EDGE_LIST_MAX_N + 1} 0\n")


def test_dot_lists_every_edge_once(g18):
    dot = emit_dot(g18.graph, labels=g18.role_labels)
    assert dot.count(" -- ") == 23
    assert dot.startswith("graph G {") and dot.rstrip().endswith("}")


def test_dot_empty_graph_is_valid():
    assert emit_dot(graph_from_edge_list(0, [])) == "graph G {\n}\n"


# -- connectivity ------------------------------------------------------------


def test_components_partition_and_order():
    g = graph_from_edge_list(6, [(4, 5), (0, 2)])
    assert connected_components(g) == [[0, 2], [1], [3], [4, 5]]


def test_empty_graph_is_connected():
    assert is_connected(graph_from_edge_list(0, []))


@given(strategies.graphs(max_n=8))
@PROPERTY
def test_cut_vertices_match_deletion_oracle(g):
    assert cut_vertices(g) == sorted(oracles.naive_cut_vertices(g))


def test_path_interior_vertices_are_cuts():
    assert cut_vertices(path_graph(5)) == [1, 2, 3]


@given(strategies.graphs(max_n=9))
@PROPERTY
def test_blocks_split_the_edges_into_2_connected_pieces(g):
    bs = blocks(g)
    for u, v in g.edges():
        assert sum(1 for b in bs if u in b and v in b) == 1
    for b in bs:
        h = induced_subgraph(g, b)
        if len(b) >= 3:
            assert is_connected(h) and not oracles.naive_cut_vertices(h)
        else:
            assert h.m == len(b) - 1
    assert [[v] for v in range(g.n) if g.degree(v) == 0] == [b for b in bs if len(b) == 1]
    in_two = [v for v in range(g.n) if sum(v in b for b in bs) >= 2]
    assert in_two == oracles.naive_cut_vertices(g)


def test_blocks_of_a_long_path_need_no_recursion():
    assert len(blocks(path_graph(200_000))) == 199_999


def test_biconnected_examples(g18, g40):
    assert is_biconnected(cycle_graph(3))
    assert not is_biconnected(complete_graph(2))
    assert not is_biconnected(path_graph(3))
    assert not is_biconnected(g18.graph)
    assert is_biconnected(g40.graph)


# -- ear decompositions ------------------------------------------------------


def k4_ears() -> EarDecomposition:
    return EarDecomposition(initial_cycle=(0, 1, 2, 0), ears=((0, 3, 1), (2, 3)))


def test_ear_decomposition_accepts_k4():
    ok, reason = verify_ear_decomposition(complete_graph(4), k4_ears())
    assert ok, reason


def test_ear_decomposition_requires_every_edge():
    d = EarDecomposition(initial_cycle=(0, 1, 2, 0), ears=((0, 3, 1),))
    ok, reason = verify_ear_decomposition(complete_graph(4), d)
    assert not ok and "edge" in reason


def test_ear_decomposition_rejects_reused_interior_vertex():
    g = graph_from_edge_list(4, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)])
    d = EarDecomposition(initial_cycle=(0, 1, 2, 0), ears=((0, 3, 1), (2, 3, 0)))
    ok, _ = verify_ear_decomposition(g, d)
    assert not ok


def test_ear_decomposition_rejects_nonedge_step():
    d = EarDecomposition(initial_cycle=(0, 2, 1, 0), ears=())
    ok, reason = verify_ear_decomposition(cycle_graph(4), d)
    assert not ok


# -- bipartiteness -----------------------------------------------------------


@given(strategies.graphs(max_n=9))
@PROPERTY
def test_bipartite_verdicts_are_certified(g):
    ok, cert = is_bipartite(g)
    if ok:
        assert all(cert[u] != cert[v] for u, v in g.edges())
    else:
        assert len(cert) % 2 == 1 and len(set(cert)) == len(cert)
        closed = cert + [cert[0]]
        assert all(g.has_edge(a, b) for a, b in zip(closed, closed[1:]))


def test_even_cycle_bipartite_odd_cycle_not():
    assert is_bipartite(cycle_graph(6))[0]
    ok, cycle = is_bipartite(cycle_graph(7))
    assert not ok and len(cycle) == 7


# -- four-vertex paths -------------------------------------------------------


def test_p4_known_counts():
    assert enumerate_p4(path_graph(4)) == [(0, 1, 2, 3)]
    assert enumerate_p4(complete_graph(3)) == []
    for n in (4, 5, 6):
        expected = n * (n - 1) * (n - 2) * (n - 3) // 2
        assert len(enumerate_p4(complete_graph(n))) == expected


@given(strategies.graphs(max_n=7))
@PROPERTY
def test_p4_matches_permutation_oracle(g):
    assert set(enumerate_p4(g)) == oracles.naive_p4_set(g)
    assert enumerate_p4(g) == sorted(enumerate_p4(g))

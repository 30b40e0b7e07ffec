from __future__ import annotations

import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crumby import (
    CapExceeded,
    Graph,
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
    graph_from_edge_list,
    is_biconnected,
    is_bipartite,
    is_connected,
    parse_edge_list,
    parse_graph6,
    relabel,
)
from crumby.graphs import EDGE_LIST_MAX_N, P4_CAP
from tests import oracles, strategies
from tests.helpers import cycle_graph, path_graph, traced_peak

PROPERTY = settings(max_examples=80, deadline=None)


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


def edge_list_outcome(build, n, edges):
    try:
        return build(n, edges)
    except GraphError as exc:
        return str(exc)


def malformed_edge_list(rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """A few edges on up to 8 vertices, each endpoint sometimes out of
    range (below 0 or at n and past it), repeated or mirrored edges, and
    self-loops, so that faults of every kind come in every order."""
    n = rng.randrange(-1, 9)
    edges: list[tuple[int, int]] = []
    for _ in range(rng.randrange(0, 12)):
        roll = rng.random()
        if edges and roll < 0.2:
            u, v = rng.choice(edges)
            edges.append((v, u) if rng.random() < 0.5 else (u, v))
        elif roll < 0.3:
            u = rng.randrange(-1, n + 2)
            edges.append((u, u))
        else:
            edges.append((rng.randrange(-2, n + 2), rng.randrange(-2, n + 2)))
    return n, edges


def test_an_edge_that_is_not_a_pair_of_ints_keeps_its_own_error():
    # no endpoint is out of range, a loop or a repeat, so the fault the
    # rows met is raised as it is
    with pytest.raises(TypeError, match="^list indices must be integers or slices, not float$"):
        graph_from_edge_list(2, [(0, 1.0)])


def test_edge_list_faults_are_named_as_the_reference_names_them():
    rng = random.Random(32)
    outcomes = set()
    for _ in range(4000):
        n, edges = malformed_edge_list(rng)
        want = edge_list_outcome(oracles.reference_graph_from_edge_list, n, edges)
        assert edge_list_outcome(graph_from_edge_list, n, edges) == want
        assert edge_list_outcome(graph_from_edge_list, n, iter(edges)) == want
        outcomes.add(want.split()[0] if isinstance(want, str) else "graph")
    # every message and a built graph each came up
    assert outcomes == {"graph", "edge", "self-loop", "duplicate", "vertex"}


def test_a_star_with_200000_leaves_is_built_without_an_edge_set():
    """The 200,001 rows are the most of it, about 112 bytes an edge at the
    peak; a set of every edge as a new tuple took about 270."""
    n = 200_001
    edges = [(0, v) for v in range(1, n)]
    assert traced_peak(lambda: graph_from_edge_list(n, edges)) < 150 * (n - 1)


def test_adjacency_is_sorted_and_symmetric():
    g = graph_from_edge_list(4, [(2, 0), (3, 1), (1, 0)])
    assert g.adj == ((1, 2), (0, 3), (0,), (1,))


# a star on 41 vertices, centre 0; its centre's row is past the length at
# which the reverse-entry check bisects instead of scanning
_STAR_ROWS = (tuple(range(1, 41)),) + ((0,),) * 40


@pytest.mark.parametrize(
    "n, adj, message",
    [
        (-1, (), "vertex count must be non-negative"),
        (3, ((1,), (0,)), "adjacency has 2 rows for 3 vertices"),
        (2, ((1, 2), (0,)), "neighbor 2 of vertex 0 out of range"),
        (2, ((), (-1,)), "neighbor -1 of vertex 1 out of range"),
        (2, ((0, 1), (0,)), "self-loop at vertex 0"),
        (3, ((2, 1), (0,), (0,)), "adjacency row of 0 not sorted/duplicate-free"),
        (2, ((1, 1), (0,)), "adjacency row of 0 not sorted/duplicate-free"),
        # a short row: vertex 1 lists 0, and row 0 is empty
        (2, ((), (0,)), "edge 1-0 has no reverse entry"),
        (2, ((1,), ()), "edge 0-1 has no reverse entry"),
        # a long row: the centre's row lacks leaf 17, or a leaf lacks the centre
        (41, (tuple(u for u in range(1, 41) if u != 17),) + _STAR_ROWS[1:],
         "edge 17-0 has no reverse entry"),
        (41, _STAR_ROWS[:17] + ((),) + _STAR_ROWS[18:], "edge 0-17 has no reverse entry"),
        # the centre last, so every leaf's entry lies above the diagonal
        (41, ((40,),) * 17 + ((),) + ((40,),) * 22 + (tuple(range(40)),),
         "edge 40-17 has no reverse entry"),
        (41, ((40,),) * 40 + (tuple(u for u in range(40) if u != 17),),
         "edge 17-40 has no reverse entry"),
    ],
)
def test_direct_construction_names_each_fault(n, adj, message):
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        Graph(n, adj)


@pytest.mark.parametrize(
    "n, adj, message",
    [
        # each row-structure fault is named at its first row, and before any
        # missing reverse entry, even one in an earlier row
        (3, ((1,), (0, 5), (9,)), "neighbor 5 of vertex 1 out of range"),
        (3, ((), (1, 0), (2,)), "self-loop at vertex 1"),
        (3, ((2,), (), (1, 0)), "adjacency row of 2 not sorted/duplicate-free"),
        # the upper entry 0-3 comes before the lower entry 2-1 in row-major
        # order, though only entries below the diagonal are looked up at first
        (4, ((3,), (), (1,), ()), "edge 0-3 has no reverse entry"),
        (4, ((), (3,), (), (0,)), "edge 1-3 has no reverse entry"),
    ],
)
def test_direct_construction_names_the_first_offender(n, adj, message):
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        Graph(n, adj)


def test_long_rows_are_checked_exactly():
    # the centre first, so each leaf's lookup bisects the centre's row, and
    # the centre last, so the centre's own lookups scan short rows
    star = Graph(41, _STAR_ROWS)
    assert star == graph_from_edge_list(41, [(0, u) for u in range(1, 41)])
    last = Graph(41, ((40,),) * 40 + (tuple(range(40)),))
    assert last.degree(40) == 40 and last.m == 40


@given(strategies.graphs(min_n=2, max_n=9), st.data())
@PROPERTY
def test_a_dropped_entry_is_named_as_the_oracle_names_it(g, data):
    entries = [(v, u) for v in range(g.n) for u in g.adj[v]]
    if not entries:
        return
    v, u = data.draw(st.sampled_from(entries))
    rows = tuple(tuple(w for w in row if (x, w) != (v, u)) for x, row in enumerate(g.adj))
    first = oracles.first_missing_reverse(rows)
    assert first is not None
    with pytest.raises(GraphError, match=f"^edge {first[0]}-{first[1]} has no reverse entry$"):
        Graph(g.n, rows)


def test_a_star_with_200000_leaves_is_checked_in_constant_memory():
    """Each leaf's reverse entry is looked up in the centre's row.  A scan
    of that row would take n^2/2 steps; the check bisects it, and it builds
    nothing sized by n, let alone n^2/8 bytes of bitsets."""
    n = 200_001
    rows = (tuple(range(1, n)),) + ((0,),) * (n - 1)
    assert traced_peak(lambda: Graph(n, rows)) < 2**16 < n * n // 8


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
    assert oracles.graph_of_mask(g.n, bitmask_of_graph(g)) == g


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
    with pytest.raises(GraphError, match="^relabeling is not a permutation of the vertex set$"):
        relabel(g, [3, 1, 1, 2])


def test_induced_subgraph_of_k4_triangle():
    assert oracles.induced_subgraph(complete_graph(4), [0, 2, 3]) == complete_graph(3)


@pytest.mark.parametrize("stray", [99, 3, -1])
def test_induced_subgraph_refuses_vertices_outside_the_graph(stray):
    with pytest.raises(GraphError, match=rf"induced vertex {stray} is not in \[0, 3\)"):
        oracles.induced_subgraph(complete_graph(3), [0, stray])


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


def _reference_mask(line: str) -> int:
    """The edge bitmask of a graph6 line, read through one big integer."""
    n = ord(line[0]) - 63
    bits = "".join(f"{ord(ch) - 63:06b}" for ch in line[1:])
    return int(bits[: n * (n - 1) // 2][::-1] or "0", 2)


def test_graph6_decodes_as_the_bitmask_route(census_lines):
    for n in range(1, 8):
        for line in census_lines[n]:
            mask = _reference_mask(line)
            assert parse_graph6(line) == oracles.graph_of_mask(n, mask)
    rng = random.Random(6)
    for n in (0, 1, 2, *range(8, 63)):
        slots = n * (n - 1) // 2
        for density in (0.0, 0.05, 0.5, 1.0):
            mask = sum(1 << k for k in range(slots) if rng.random() < density)
            g = oracles.graph_of_mask(n, mask)
            line = emit_graph6(g)
            assert _reference_mask(line) == mask
            assert parse_graph6(line) == g


def test_graph6_rejects_malformed_lines():
    for line, message in [
        ("", "empty graph6 line"),
        ("~~", "multi-byte length header (n > 62) not supported"),
        ("B", "expected 1 adjacency bytes for n=3, found 0"),
        ("Bw!", "byte 33 outside the printable graph6 range"),
        ("B~", "nonzero padding bits"),
        # the 8-cycle GhCGKC one adjacency byte short and with a byte below
        # 63 (how the survey corpus breaks lines), above 126, and with a
        # padding bit set
        ("GhCGK", "expected 5 adjacency bytes for n=8, found 4"),
        ("GhC#KC", "byte 35 outside the printable graph6 range"),
        ("G\x7fCGKC", "byte 127 outside the printable graph6 range"),
        ("GhCGKD", "nonzero padding bits"),
        # two bad bytes: the first is named, wherever it stands
        ("GhC#K!", "byte 35 outside the printable graph6 range"),
        ("G!C#KC", "byte 33 outside the printable graph6 range"),
        (" hCGKC", "byte 32 outside the printable graph6 range"),
        # n = 62: 316 adjacency bytes, one bad in the middle, another near the end
        ("}" + "?" * 150 + "\x80" + "?" * 150 + "\t" + "?" * 14,
         "byte 128 outside the printable graph6 range"),
    ]:
        with pytest.raises(Graph6Error, match=f"^{re.escape(message)}$"):
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


@pytest.mark.parametrize(
    "text, message",
    [
        ("# no data\n\n", "edge list text has no data lines"),
        ("3\n0 1\n", "line 1: header must be 'n m'"),
        ("# n m\n3 one\n0 1\n", "line 2: header must be two integers"),
        ("3 2\n0 1\n", "header promises 2 edges, found 1"),
        ("3 1\n\n0 1 2\n", "line 3: edge line must be 'u v'"),
        ("3 1\n0 x\n", "line 2: edge endpoints must be integers"),
    ],
    ids=["no-data", "header-shape", "header-ints", "edge-count", "edge-shape", "edge-ints"],
)
def test_edge_list_text_names_each_fault(text, message):
    with pytest.raises(GraphError) as info:
        parse_edge_list(text)
    assert str(info.value) == message


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


@given(strategies.graphs(max_n=9), st.integers(0, (1 << 9) - 1))
@PROPERTY
def test_components_within_match_the_induced_subgraph(g, bits):
    vertices = [v for v in range(g.n) if bits >> v & 1]
    expected = [
        [vertices[i] for i in comp]
        for comp in connected_components(oracles.induced_subgraph(g, vertices))
    ]
    assert connected_components(g, frozenset(vertices)) == expected


def test_empty_graph_is_connected():
    assert is_connected(graph_from_edge_list(0, []))


@given(strategies.graphs(max_n=9))
@PROPERTY
def test_connected_exactly_when_there_is_at_most_one_component(g):
    assert is_connected(g) == (len(connected_components(g)) <= 1)


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
        h = oracles.induced_subgraph(g, b)
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


def test_p4_count_is_capped_before_the_walk():
    # the bound sum of (d(u)-1)(d(v)-1) over edges uv is C(n,2)(n-2)^2 on K_n:
    # 911,088 for K38, 1,014,429 for K39 and 6,807,600 for K62
    assert P4_CAP == 1_000_000
    for n in (39, 62):
        g = complete_graph(n)

        def refused():
            with pytest.raises(CapExceeded, match=f"capped at {P4_CAP} P4s"):
                enumerate_p4(g)

        assert traced_peak(refused) < 2**20
    assert len(enumerate_p4(path_graph(20_000))) == 19_997


@given(strategies.graphs(max_n=7))
@PROPERTY
def test_p4_matches_permutation_oracle(g):
    assert set(enumerate_p4(g)) == oracles.naive_p4_set(g)
    assert enumerate_p4(g) == sorted(enumerate_p4(g))

from __future__ import annotations

import hashlib
from collections import Counter

import pytest
from hypothesis import given, settings

from crumby import (
    BudgetExhausted,
    CapExceeded,
    complete_bipartite,
    complete_graph,
    connected_components,
    elimination_steps,
    elimination_width,
    find_elimination_order,
    graph_from_edge_list,
    has_minor,
    parse_graph6,
    recognize_tw2,
    replay_reduction_trace,
    verify_minor_witness,
)
from crumby.certs import emit_elimination_order, emit_reduction_trace
from crumby.minorfree import MINOR_HOST_BITS_CAP
from tests import oracles, strategies
from tests.helpers import cycle_graph, path_graph, traced_peak

PROPERTY = settings(max_examples=60, deadline=None)

K4 = complete_graph(4)


# -- elimination orders ------------------------------------------------------


def test_elimination_steps_record_remaining_neighbors():
    g = graph_from_edge_list(3, [(0, 1), (1, 2)])
    steps = elimination_steps(g, (0, 2, 1))
    assert steps == [(0, (1,)), (2, (1,)), (1, ())]


def test_elimination_fills_in_cliques():
    star = graph_from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
    width = elimination_width(star, (0, 1, 2, 3))
    assert width == 3, "eliminating the hub first turns the leaves into a triangle"


def test_k4_has_width_three_under_every_order():
    import itertools

    for perm in itertools.permutations(range(4)):
        assert elimination_width(K4, perm) == 3


def test_elimination_order_must_be_a_permutation():
    with pytest.raises(ValueError):
        elimination_width(K4, (0, 0, 1, 2))


def test_find_order_on_reference_graphs(g18, g40):
    assert find_elimination_order(K4) is None
    for g in (g18.graph, g40.graph, cycle_graph(5)):
        order = find_elimination_order(g)
        assert order is not None
        assert elimination_width(g, order) <= 2


def test_find_order_handles_the_empty_graph():
    order = find_elimination_order(graph_from_edge_list(0, []))
    assert order == ()


@given(strategies.graphs())
@PROPERTY
def test_find_order_matches_the_reference_on_small_graphs(g):
    assert find_elimination_order(g) == oracles.reference_elimination_order(g)


@given(strategies.subcubic_graphs(max_n=30))
@PROPERTY
def test_find_order_matches_the_reference_on_subcubic_graphs(g):
    assert find_elimination_order(g) == oracles.reference_elimination_order(g)


def test_find_order_on_a_long_path_takes_memory_linear_in_n():
    """One small set per vertex: about 300 bytes a vertex, where n-wide
    bitsets would hold n^2/8 bytes in all (5 GB here)."""
    n = 200_000
    g = path_graph(n)
    peak = traced_peak(lambda: find_elimination_order(g))
    assert peak < 400 * n < n * n // 8


# -- the reducer and its traces ----------------------------------------------


def test_recognizer_accepts_reference_graphs(f_gadget, r_gadget, g18, g40):
    for lg in (f_gadget, r_gadget, g18, g40):
        accepted, trace = recognize_tw2(lg.graph)
        assert accepted
        ok, reason = replay_reduction_trace(lg.graph, trace)
        assert ok, reason


def test_recognizer_rejects_k4_and_its_subdivisions():
    accepted, trace = recognize_tw2(K4)
    assert not accepted and trace == []
    edges = []
    mid = 4
    for u, v in K4.edges():
        edges += [(u, mid), (mid, v)]
        mid += 1
    subdivided = graph_from_edge_list(mid, edges)
    assert not recognize_tw2(subdivided)[0]


def test_parallel_merge_rule_appears_on_doubled_paths():
    accepted, trace = recognize_tw2(cycle_graph(4))
    assert accepted
    assert any(rule == "merge-parallel" for rule, _ in trace)


def test_forged_traces_are_rejected():
    g = cycle_graph(4)
    _, trace = recognize_tw2(g)
    wrong_vertex = [("delete-leaf", (0,))] + trace[1:]
    ok, reason = replay_reduction_trace(g, wrong_vertex)
    assert not ok and reason
    truncated = trace[:-1]
    ok, reason = replay_reduction_trace(g, truncated)
    assert not ok and "remain" in reason


# C4 0-1-2-3 with the chord 0-2: vertices 1 and 3 have degree 2
DIAMOND = graph_from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])


@pytest.mark.parametrize(
    "steps, reason",
    [
        ([("contract", (1,))], "step 0 (contract (1,)): unknown rule"),
        ([("suppress", (1, 0))], "step 0 (suppress (1, 0)): expected 3 arguments"),
        ([("delete-isolated", (1,))], "vertex not isolated"),
        ([("delete-isolated", (7,))], "vertex not isolated"),
        ([("delete-leaf", (1, 0))], "vertex not a leaf on that edge"),
        ([("merge-parallel", (0, 2))], "no parallel pair"),
        ([("suppress", (1, 0, 3))], "vertex does not have exactly these 2 neighbors"),
        ([("suppress", (1, 0, 0))], "vertex does not have exactly these 2 neighbors"),
        # suppressing 1 doubles 0-2, so 0 sees exactly {2, 3} at degree 3
        (
            [("suppress", (1, 0, 2)), ("suppress", (0, 2, 3))],
            "step 1 (suppress (0, 2, 3)): vertex degree is not 2",
        ),
    ],
    ids=[
        "unknown-rule", "arity", "not-isolated", "absent-vertex", "not-leaf",
        "no-parallel-pair", "wrong-neighbors", "repeated-neighbor", "degree-not-2",
    ],
)
def test_forged_trace_rejection_reasons(steps, reason):
    ok, why = replay_reduction_trace(DIAMOND, steps)
    assert not ok and why.endswith(reason)
    assert why.startswith(f"step {len(steps) - 1} (")


def test_replay_accepts_a_trace_in_any_legal_order():
    trace = [
        ("suppress", (3, 0, 2)),
        ("merge-parallel", (0, 2)),
        ("suppress", (1, 0, 2)),
        ("merge-parallel", (2, 0)),
        ("delete-leaf", (2, 0)),
        ("delete-isolated", (0,)),
    ]
    assert replay_reduction_trace(DIAMOND, trace) == (True, None)
    assert recognize_tw2(DIAMOND)[1] != trace


# sha256 over every census line (n = 1..7, in order): f"{accepted}\n" and
# the reduction trace, and separately the elimination order (or "none\n");
# 16-hex prefixes, fixed before the step selection was rewritten
CENSUS_TRACE_DIGEST = "1b1352e91b23eb55"
CENSUS_ORDER_DIGEST = "a7311fdfec2450aa"


def test_tw2_routes_are_pinned_on_the_census(census_lines):
    traces, orders = hashlib.sha256(), hashlib.sha256()
    graphs = accepted_count = 0
    for n in range(1, 8):
        for line in census_lines[n]:
            g = parse_graph6(line)
            accepted, trace = recognize_tw2(g)
            traces.update(f"{accepted}\n{emit_reduction_trace(g.n, trace)}".encode())
            order = find_elimination_order(g)
            orders.update(
                (emit_elimination_order(order) if order is not None else "none\n").encode()
            )
            graphs += 1
            accepted_count += accepted
    assert (graphs, accepted_count) == (996, 321)
    assert traces.hexdigest()[:16] == CENSUS_TRACE_DIGEST
    assert orders.hexdigest()[:16] == CENSUS_ORDER_DIGEST


def test_tw2_routes_take_each_step_without_a_rescan(ladder):
    # a rescan of the workspace for every step makes these take seconds
    path = path_graph(20_000)
    accepted, trace = recognize_tw2(path)
    assert accepted
    assert Counter(rule for rule, _ in trace) == {
        "delete-leaf": 19_999, "delete-isolated": 1,
    }
    accepted, trace = recognize_tw2(ladder)
    assert accepted and len(trace) == 5_999
    assert Counter(rule for rule, _ in trace) == {
        "suppress": 3_998, "merge-parallel": 1_999,
        "delete-leaf": 1, "delete-isolated": 1,
    }
    assert replay_reduction_trace(ladder, trace) == (True, None)
    order = find_elimination_order(ladder)
    assert order is not None and len(order) == 4_000
    assert elimination_width(ladder, order) == 2


@given(strategies.graphs(max_n=8))
@PROPERTY
def test_recognizer_matches_elimination_search(g):
    accepted, trace = recognize_tw2(g)
    order = find_elimination_order(g)
    assert accepted == (order is not None)
    if accepted:
        assert replay_reduction_trace(g, trace)[0]
        assert elimination_width(g, order) <= 2


@given(strategies.subcubic_graphs(max_n=9))
@PROPERTY
def test_recognizer_complements_the_minor_search(g):
    assert recognize_tw2(g)[0] == (not has_minor(g, K4)[0])


# -- minor containment -------------------------------------------------------


def test_minor_witness_validation_diagnostics():
    k3 = complete_graph(3)
    cases = [
        ((frozenset({0}), frozenset({1}), frozenset()), "empty"),
        ((frozenset({0, 2}), frozenset({1}), frozenset({2})), "two branch sets"),
    ]
    for witness, fragment in cases:
        ok, reason = verify_minor_witness(k3, k3, witness)
        assert not ok and fragment in reason


def test_minor_witness_branch_sets_must_be_connected():
    host = graph_from_edge_list(4, [(0, 1), (1, 2)])
    witness = (frozenset({0, 3}), frozenset({1}), frozenset({2}))
    ok, reason = verify_minor_witness(host, complete_graph(3), witness)
    assert not ok and "connected" in reason


def test_minor_witness_requires_every_pattern_edge():
    host = graph_from_edge_list(3, [(0, 1)])
    witness = (frozenset({0}), frozenset({1}), frozenset({2}))
    ok, reason = verify_minor_witness(host, complete_graph(3), witness)
    assert not ok and "edge" in reason


def test_the_empty_pattern_is_a_minor_of_every_host(g18):
    empty = graph_from_edge_list(0, [])
    for host in (empty, graph_from_edge_list(1, []), g18.graph):
        assert has_minor(host, empty) == (True, ())


def test_pattern_in_itself():
    found, witness = has_minor(K4, K4)
    assert found
    assert verify_minor_witness(K4, K4, witness)[0]


def test_k4_minor_appears_exactly_when_contraction_gives_it():
    wheel = graph_from_edge_list(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1)])
    found, witness = has_minor(wheel, K4)
    assert found and verify_minor_witness(wheel, K4, witness)[0]
    assert not has_minor(cycle_graph(6), K4)[0]


def test_gadgets_have_no_k4_minor(f_gadget, r_gadget):
    assert not has_minor(f_gadget.graph, K4)[0]
    assert not has_minor(r_gadget.graph, K4)[0]


def test_f_contains_k23_as_a_minor(f_gadget):
    found, witness = has_minor(f_gadget.graph, complete_bipartite(2, 3))
    assert found
    assert verify_minor_witness(f_gadget.graph, complete_bipartite(2, 3), witness)[0]


def test_explicit_k23_witness_merging_the_inner_pair(f_gadget):
    # small side {e,f}, large side {g,h} plus the contracted pair {c,d}
    witness = (frozenset({5}), frozenset({6}), frozenset({7}), frozenset({8}), frozenset({3, 4}))
    ok, reason = verify_minor_witness(f_gadget.graph, complete_bipartite(2, 3), witness)
    assert ok, reason


def test_minor_search_routes_long_chains_without_recursion():
    # K4 with the edge 0-1 subdivided by a 1,500-vertex path 2..1501
    path = list(range(2, 1502))
    edges = [(0, 2), (1501, 1), *zip(path, path[1:])]
    edges += [(0, 1502), (0, 1503), (1, 1502), (1, 1503), (1502, 1503)]
    g = graph_from_edge_list(1504, edges)
    found, witness = has_minor(g, K4)
    assert found and verify_minor_witness(g, K4, witness)[0]
    assert [len(s) for s in witness] == [1501, 1, 1, 1]


def test_minor_search_respects_budget(g18):
    with pytest.raises(BudgetExhausted):
        has_minor(g18.graph, K4, budget=1000)


def test_g18_is_searched_block_by_block(g18):
    # its blocks are two copies of F and the bridge; searched as one host,
    # G18 needs far more nodes than this to rule K4 out
    assert has_minor(g18.graph, K4, budget=20_000) == (False, None)


def test_k4_witness_lies_in_its_block():
    # the 6-cycle 0..5 glued at the cut vertex 5 to the K4 on 5..8; a search
    # of the whole host would seed at 0 and route it into a branch set
    edges = cycle_graph(6).edges()
    edges += [(u, v) for u in range(5, 9) for v in range(u + 1, 9)]
    g = graph_from_edge_list(9, edges)
    found, witness = has_minor(g, K4)
    assert found and verify_minor_witness(g, K4, witness)[0]
    assert set().union(*witness) == {5, 6, 7, 8}


@given(strategies.graphs(max_n=12))
@PROPERTY
def test_triangle_minor_exactly_when_there_is_a_cycle(g):
    # a forest has m = n - (number of components); any more edges close a cycle
    forest_edges = g.n - len(connected_components(g))
    assert has_minor(g, complete_graph(3))[0] == (g.m > forest_edges)


def test_minor_pattern_cap(f_gadget):
    with pytest.raises(CapExceeded, match="6"):
        has_minor(f_gadget.graph, complete_graph(7))


def test_an_oversized_host_is_refused_before_its_bitsets_are_built():
    # C25,000's neighbour bitsets hold about 3.1e8 bits, just over the cap,
    # so a search that built them first would trace about 40 MB; the CLI
    # refuses C200,000 the same way in tests/test_cli.py
    assert MINOR_HOST_BITS_CAP == 1 << 28
    g = cycle_graph(25_000)

    def refused():
        with pytest.raises(CapExceeded, match=f"capped at {MINOR_HOST_BITS_CAP} bits"):
            has_minor(g, K4, budget=0)

    assert traced_peak(refused) < 2**20
    with pytest.raises(BudgetExhausted):  # a host under the cap is searched
        has_minor(cycle_graph(5_000), K4, budget=0)


@given(strategies.graphs(min_n=1, max_n=7))
@PROPERTY
def test_found_witnesses_always_verify(g):
    pattern = complete_graph(3)
    found, witness = has_minor(g, pattern)
    if found:
        assert verify_minor_witness(g, pattern, witness)[0]
    else:
        assert witness is None

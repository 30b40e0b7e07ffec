from __future__ import annotations

import hashlib
import random
from collections import Counter
from itertools import combinations

import pytest

from crumby import (
    CapExceeded,
    CrossCheckError,
    Graph,
    SolveResult,
    Status,
    SurveyFilters,
    bitmask_of_graph,
    complete_bipartite,
    complete_graph,
    emit_graph6,
    generate_small,
    graph_from_edge_list,
    is_connected,
    parse_graph6,
    recognize_tw2,
    relabel,
    survey_stream,
)
from crumby.coloring import Coloring
import crumby.survey
from tests import oracles
from tests.helpers import cycle_graph, traced_peak


EXPECTED_CENSUS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


# -- enumeration up to isomorphism -------------------------------------------


# sha256 of "\n".join(generate_small(n)), 16-hex prefixes
CENSUS_DIGESTS = {
    1: "c3641f8544d7c02f",
    2: "ada8d598e51a0bf0",
    3: "ff300d6b5191490a",
    4: "eb3044c0e6b719df",
    5: "bad40746036227cb",
    6: "c727f559e01cb751",
    7: "b6b2dbb7f539a6e2",
}


def test_census_sizes(census_lines):
    for n, count in EXPECTED_CENSUS.items():
        assert len(census_lines[n]) == count


def test_census_bytes_are_pinned(census_lines):
    for n, prefix in CENSUS_DIGESTS.items():
        text = "\n".join(census_lines[n])
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == prefix


def test_generation_cap_points_at_external_streams():
    with pytest.raises(CapExceeded, match="external"):
        generate_small(8)


def test_census_graphs_are_connected_with_the_right_order(census):
    for n, graphs in census.items():
        for g in graphs:
            assert g.n == n
            assert is_connected(g)


def test_census_lines_are_canonical_and_unique(census_lines):
    # each mask is its own orbit minimum (tested below for n <= 6), so two
    # isomorphic lines would be identical lines
    for n in range(1, 8):
        lines = census_lines[n]
        assert len(set(lines)) == len(lines)


def test_census_is_exhaustive_at_order_four(census):
    # every connected 4-vertex graph must match one of the six classes
    for mask in range(1 << 6):
        g = oracles.graph_of_mask(4, mask)
        if not is_connected(g):
            continue
        assert any(oracles.naive_isomorphic(g, rep) for rep in census[4])


def test_census_masks_are_their_own_orbit_minima(census):
    for n in range(1, 7):
        for g in census[n]:
            mask = bitmask_of_graph(g)
            assert oracles.naive_orbit_min(n, mask) == mask


def test_census_holds_every_connected_orbit_minimum_at_order_five(census):
    reps = {bitmask_of_graph(g) for g in census[5]}
    minima = {
        oracles.naive_orbit_min(5, mask)
        for mask in range(1 << 10)
        if is_connected(oracles.graph_of_mask(5, mask))
    }
    assert minima == reps


def _adjacency(g: Graph) -> list[int]:
    return [sum(1 << u for u in row) for row in g.adj]


def _least_mask_of(n: int, mask: int) -> int:
    return crumby.survey._least_mask(n, _adjacency(oracles.graph_of_mask(n, mask)))


def test_least_mask_is_the_naive_orbit_minimum():
    rng = random.Random(26)
    cases = [(n, rng.getrandbits(n * (n - 1) // 2)) for n in range(1, 7) for _ in range(40)]
    cases += [(7, rng.getrandbits(21)) for _ in range(4)]
    # ties are worst where every relabelling is an automorphism, or where a
    # graph falls apart into interchangeable pieces
    cases += [(n, 0) for n in range(1, 8)]
    cases += [(n, bitmask_of_graph(complete_graph(n))) for n in range(1, 8)]
    two_triangles = graph_from_edge_list(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    k4_and_k3 = graph_from_edge_list(7, [*combinations(range(4), 2), (4, 5), (5, 6), (4, 6)])
    matching = graph_from_edge_list(7, [(0, 6), (1, 5), (2, 4)])
    cases += [(7, bitmask_of_graph(g)) for g in (two_triangles, k4_and_k3, matching)]
    for n, mask in cases:
        assert _least_mask_of(n, mask) == oracles.naive_orbit_min(n, mask), (n, mask)


def test_least_mask_ignores_the_labels_of_the_gadgets(g18, g40):
    rng = random.Random(40)
    for g in (g18.graph, g40.graph):
        least = crumby.survey._least_mask(g.n, _adjacency(g))
        for _ in range(5):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert crumby.survey._least_mask(g.n, _adjacency(relabel(g, perm))) == least


def test_census_at_order_seven_holds_two_orders_at_a_time():
    # only the 112 graphs of order 6, the order-7 masks found so far and one
    # child's refinement states are live: 0.22 MiB (tracemalloc).  A table
    # indexed by the edge masks of K_7 (2^21 entries) would break the bound
    for n in range(1, 7):
        generate_small(n)
    assert traced_peak(lambda: generate_small(7)) < 4 * 2**20


def _twins(g: Graph, u: int, v: int) -> bool:
    return set(g.adj[u]) - {v} == set(g.adj[v]) - {u}


def test_twin_classes_are_automorphism_classes():
    rng = random.Random(34)
    graphs = [complete_bipartite(1, 3), cycle_graph(4), complete_graph(4), complete_bipartite(2, 3)]
    graphs += [
        oracles.graph_of_mask(n, rng.getrandbits(n * (n - 1) // 2))
        for n in range(1, 8)
        for _ in range(30)
    ]
    for g in graphs:
        classes = crumby.graphs._twin_classes(_adjacency(g))
        members = [[v for v in range(g.n) if c >> v & 1] for c in classes]
        assert sorted(v for vs in members for v in vs) == list(range(g.n)), g
        for vs in members:
            for u, v in combinations(vs, 2):
                swap = list(range(g.n))
                swap[u], swap[v] = v, u
                assert relabel(g, swap) == g, (g, u, v)
        for a, b in combinations(members, 2):
            assert not any(_twins(g, u, v) for u in a for v in b), (g, a, b)
    # K1,3's leaves and the two sides of K2,3 and C4 are false twins; K4 is one
    # class of true twins
    assert crumby.graphs._twin_classes(_adjacency(complete_bipartite(1, 3))) == [0b1, 0b1110]
    assert crumby.graphs._twin_classes(_adjacency(cycle_graph(4))) == [0b101, 0b1010]
    assert crumby.graphs._twin_classes(_adjacency(complete_graph(4))) == [0b1111]
    assert crumby.graphs._twin_classes(_adjacency(complete_bipartite(2, 3))) == [0b11, 0b11100]


def test_census_effort_is_pinned(monkeypatch):
    # children canonicalised for order 7; without the twin classes and the
    # neighbour-degree key (every non-empty set of old vertices, degree
    # alone) it was 2,796
    calls = 0
    least_mask = crumby.survey._least_mask

    def counted(n, adj):
        nonlocal calls
        calls += 1
        return least_mask(n, adj)

    monkeypatch.setattr(crumby.survey, "_least_mask", counted)
    assert len(generate_small(7)) == 853
    assert calls == 1305


# -- the survey harness ------------------------------------------------------


def test_survey_of_the_known_negative_instance(g18):
    report = survey_stream([emit_graph6(g18.graph)])
    assert (report.tested, report.sat, report.unsat) == (1, 0, 1)
    assert report.unsat_graph6 == (emit_graph6(g18.graph),)


def test_survey_counts_on_the_census():
    lines = [line for n in range(1, 6) for line in generate_small(n)]
    report = survey_stream(lines)
    assert report.tested == 18 and report.filtered_out == 13
    assert report.sat == 18
    assert report.unsat == 0
    assert report.per_n == ((1, 1, 1, 0), (2, 1, 1, 0), (3, 2, 2, 0), (4, 5, 5, 0), (5, 9, 9, 0))


def test_unparsable_lines_are_recorded_not_fatal(g18):
    # blank lines are neither graphs nor faults
    report = survey_stream(["##bad##", "", "  \n", emit_graph6(g18.graph)])
    assert report.tested == 1
    assert len(report.skipped) == 1
    assert report.skipped[0][0] == 1


def test_filters_drop_out_of_scope_graphs():
    # two disjoint edges are subcubic and of treewidth 1, but not connected
    two_k2 = graph_from_edge_list(4, [(0, 1), (2, 3)])
    report = survey_stream([emit_graph6(complete_graph(4)), emit_graph6(two_k2)])
    assert report.tested == 0 and report.filtered_out == 2


def test_filter_toggles():
    k4 = emit_graph6(complete_graph(4))
    relaxed = SurveyFilters(subcubic=False, tw2=False)
    report = survey_stream([k4], filters=relaxed)
    assert report.tested == 1 and report.sat == 1
    assert relaxed.describe() == "connected"


def _grown_subcubic(rng: random.Random, n: int, edges: list, target: int) -> Graph:
    """Subdivide a few edges of the core (n, edges), then add pendant vertices
    and chords under a degree-3 cap up to `target` vertices (or until no
    vertex has degree below 3), and shuffle the labels."""
    edges = list(edges)
    for _ in range(rng.randint(0, 3)):
        u, v = edges.pop(rng.randrange(len(edges)))
        edges += [(u, n), (n, v)]
        n += 1
    deg = Counter(v for edge in edges for v in edge)
    while n < target:
        free = [v for v in range(n) if deg[v] < 3]
        if not free:
            break
        u = rng.choice(free)
        w = rng.choice(free)
        if rng.random() < 0.1 and u != w and (u, w) not in edges and (w, u) not in edges:
            edges.append((u, w))
        else:
            w = n
            n += 1
            edges.append((u, w))
        deg[u] += 1
        deg[w] += 1
    labels = list(range(n))
    rng.shuffle(labels)
    return graph_from_edge_list(n, [(labels[u], labels[v]) for u, v in edges])


def _random_cubic(rng: random.Random, n: int) -> Graph:
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        pairs = {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2])}
        if len(pairs) == 3 * n // 2 and all(a != b for a, b in pairs):
            return graph_from_edge_list(n, sorted(pairs))


def test_tw2_filter_agrees_with_the_reduction_route(census_lines):
    """The filter must keep exactly the graphs recognize_tw2 accepts."""
    tw2_only = SurveyFilters(connected=False, subcubic=False)
    for n in range(1, 8):
        for line in census_lines[n]:
            g = parse_graph6(line)
            assert tw2_only.accept(g) == recognize_tw2(g)[0], line
    rng = random.Random(11)
    cores = [
        (3, [(0, 1), (1, 2), (2, 0)]),
        (4, list(combinations(range(4), 2))),  # K4
        (6, [(a, b) for a in range(3) for b in range(3, 6)]),  # K3,3
    ]
    verdicts = Counter()
    for _ in range(300):
        core_n, core_edges = rng.choice(cores)
        g = _grown_subcubic(rng, core_n, core_edges, rng.randint(8, 30))
        accepted = tw2_only.accept(g)
        assert accepted == recognize_tw2(g)[0], emit_graph6(g)
        verdicts[accepted] += 1
    for n in range(4, 31, 2):  # minimum degree 3 forces treewidth >= 3
        g = _random_cubic(rng, n)
        assert not tw2_only.accept(g) and not recognize_tw2(g)[0]
    assert verdicts[True] > 50 and verdicts[False] > 50


def test_biconnected_filter_narrows_the_census(census_lines):
    lines = [line for n in range(1, 8) for line in census_lines[n]]
    report = survey_stream(lines, filters=SurveyFilters(biconnected=True))
    assert report.tested == 19
    assert report.unsat == 0


def test_empty_stream():
    report = survey_stream([])
    assert report.tested == report.sat == report.unsat == 0
    assert report.per_n == ()


def test_report_text_mentions_unsat_instances(g18):
    report = survey_stream([emit_graph6(g18.graph)])
    joined = "\n".join(report.text_lines())
    assert "unsat-instance" in joined
    assert emit_graph6(g18.graph) in joined
    assert report.undecided == () and "undecided" not in joined


def test_survey_reruns_reproduce_themselves():
    lines = generate_small(6)
    first = survey_stream(lines)
    second = survey_stream(lines)
    assert first.per_n == second.per_n
    assert first.unsat_graph6 == second.unsat_graph6


def test_budget_exhaustion_leaves_the_line_undecided(g18):
    g18_line = emit_graph6(g18.graph)
    k2_line = emit_graph6(complete_graph(2))
    report = survey_stream([k2_line, g18_line, "##bad##"], budget=1)
    assert report.undecided == ((2, g18_line),)
    assert (report.tested, report.sat, report.unsat) == (1, 1, 0)
    assert len(report.skipped) == 1
    assert "undecided line 2: " + g18_line in report.text_lines()
    assert f"undecided_line=2 graph6={g18_line}" in report.machine_lines()


def test_disagreeing_solvers_abort_the_survey(monkeypatch, g18):
    def lying(g, budget=None):
        return SolveResult(
            status=Status.SAT,
            coloring=Coloring.from_red_set(g.n, set()),
            solver="lying",
            nodes=0,
            propagations=0,
            elapsed=0.0,
        )

    line = emit_graph6(g18.graph)
    for solve, says in (("dpll_solve", "dpll"), ("exhaustive_solve", "the exhaustive oracle")):
        with monkeypatch.context() as patch:
            patch.setattr(crumby.survey, solve, lying)
            with pytest.raises(CrossCheckError) as info:
                survey_stream([line])
        assert str(info.value) == (
            f"line 1 ({line}): backtracking says unsat, {says} says sat"
        )

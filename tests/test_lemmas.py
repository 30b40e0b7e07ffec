from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crumby.lemmas
from crumby import (
    BoundarySpecError,
    CapExceeded,
    Coloring,
    LabeledGraph,
    LemmaReport,
    backtracking_solve,
    build_G18,
    complete_graph,
    enumerate_feasible,
    graph_from_edge_list,
    relabel,
    verify_crumby,
    verify_crumby_by_components,
    verify_lemma1_i,
    verify_lemma1_ii,
    verify_lemma2,
    verify_theorem1_composition,
)
from crumby.coloring import Color, violations
from crumby.gadgets import F_AUTOMORPHISM, drop_edge
from crumby.lemmas import all_lemma_reports, richness_witness
from tests import oracles, strategies
from tests.helpers import path_graph

PROPERTY = settings(max_examples=40, deadline=None)

K2 = complete_graph(2)


# -- boundary specifications -------------------------------------------------


def test_spec_rejects_out_of_range_boundary():
    for v in (5, -1):
        with pytest.raises(BoundarySpecError, match=f"boundary vertex {v} is not in"):
            enumerate_feasible(K2, frozenset({v}))


def test_spec_rejects_out_of_range_fixed_vertex():
    # unchecked, -1 would silently fix vertex n - 1 and 2 would raise IndexError
    for v in (-1, 2):
        with pytest.raises(BoundarySpecError, match=f"fixed vertex {v} is not in"):
            enumerate_feasible(K2, frozenset(), {v: Color.RED})


def test_spec_rejects_flags_off_the_boundary():
    with pytest.raises(BoundarySpecError, match="non-boundary"):
        enumerate_feasible(K2, frozenset({0}), outside_red=frozenset({1}))


# -- the relaxed conditions --------------------------------------------------


def test_unbounded_piece_reduces_to_plain_verification():
    fs = enumerate_feasible(K2, frozenset())
    assert [c.to_text() for c in fs] == ["B B", "R R"]


def test_boundary_red_vertex_needs_no_inside_support():
    feasible = enumerate_feasible(K2, frozenset({0}), {0: Color.RED})
    assert Coloring.from_text("R B") in feasible


def test_outside_red_flag_blocks_inside_red_paths():
    p3 = path_graph(3)
    feasible = enumerate_feasible(p3, frozenset({0}), {0: Color.RED}, frozenset({0}))
    assert Coloring.from_text("R R R") not in feasible
    assert Coloring.from_text("R R B") in feasible


def test_inside_red_path_is_fine_without_the_flag():
    p3 = path_graph(3)
    feasible = enumerate_feasible(p3, frozenset({0}), {0: Color.RED})
    assert Coloring.from_text("R R R") in feasible


def test_blue_constraint_applies_on_the_boundary_too():
    # outside contact can only add blue neighbors, so the inside check stands
    p3 = path_graph(3)
    feasible = enumerate_feasible(p3, frozenset({1}))
    assert Coloring.from_text("B B B") not in feasible
    assert Coloring.from_text("R R B") in feasible


def blue_pairs_after_blue_path(n: int) -> tuple:
    """A path 0-1-2 and disjoint edges n-2 - n-1, n-4 - n-3, ... down to 3 or
    4, colored Red on the top edge and Blue elsewhere: vertex 1 breaks (a),
    and nothing else does."""
    pairs = [(v - 1, v) for v in range(n - 1, 3, -2)]
    g = graph_from_edge_list(n, [(0, 1), (1, 2)] + pairs)
    return g, Coloring.from_red_set(n, {n - 2, n - 1})


@pytest.mark.parametrize("n", [33, 40, 63, 64, 71])
def test_verifiers_are_exact_on_large_graphs(n):
    g, c = blue_pairs_after_blue_path(n)
    assert verify_crumby(g, c) is False
    assert list(violations(g, c.red_set())) == [
        "blue vertex 1 has two or more blue neighbors"
    ]
    assert not oracles.naive_is_crumby(g, c)
    assert not verify_crumby_by_components(g, c)
    fixed = Coloring.from_red_set(n, c.red_set() | {0, 1})
    assert verify_crumby(g, fixed) is True
    assert list(violations(g, fixed.red_set())) == []
    assert oracles.naive_is_crumby(g, fixed)
    assert verify_crumby_by_components(g, fixed)


@st.composite
def large_colorings(draw):
    """A subcubic graph on 33..56 vertices and a near-crumby coloring.

    Random colorings of graphs this size break (a) almost everywhere, so the
    coloring is a crumby one (when the graph has one) with one or two flips.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = rng.randint(33, 56)
    deg = [0] * n
    edges = set()
    for _ in range(2 * n):
        u, v = rng.randrange(n), rng.randrange(n)
        e = (min(u, v), max(u, v))
        if u != v and e not in edges and deg[u] < 3 and deg[v] < 3:
            deg[u] += 1
            deg[v] += 1
            edges.add(e)
    g = graph_from_edge_list(n, sorted(edges))
    result = backtracking_solve(g)
    reds = set(result.coloring.red_set()) if result.coloring else set()
    reds ^= set(rng.sample(range(n), rng.randint(1, 2)))
    return g, Coloring.from_red_set(n, reds)


@given(large_colorings())
@PROPERTY
def test_verifiers_match_the_naive_oracle_on_large_graphs(instance):
    g, c = instance
    expected = oracles.naive_is_crumby(g, c)
    assert verify_crumby(g, c) == expected
    assert verify_crumby_by_components(g, c) == expected


def test_enumeration_is_lexicographic_and_capped():
    fs = enumerate_feasible(K2, frozenset())
    texts = [c.to_text() for c in fs]
    assert texts == sorted(texts)
    with pytest.raises(CapExceeded, match="24"):
        enumerate_feasible(graph_from_edge_list(25, []), frozenset())


@given(strategies.graph_coloring_pairs(min_n=1, max_n=7))
@PROPERTY
def test_crumby_colorings_are_always_feasible(pair):
    g, c = pair
    if verify_crumby(g, c):
        assert c in enumerate_feasible(g, frozenset())


@st.composite
def relaxed_instances(draw, max_n: int = 10):
    """(g, boundary, fixed, flags): a graph with a random boundary, fixed
    colors and outside-red flags."""
    g = draw(strategies.graphs(min_n=1, max_n=max_n))

    def subset() -> set[int]:
        bits = draw(st.integers(0, (1 << g.n) - 1))
        return {v for v in range(g.n) if bits >> v & 1}

    boundary = subset()
    flags = subset() & boundary
    reds = subset()
    fixed = {v: Color.RED if v in reds else Color.BLUE for v in sorted(subset())}
    return g, frozenset(boundary), fixed, frozenset(flags)


@given(relaxed_instances())
@PROPERTY
def test_enumeration_matches_the_naive_oracle(instance):
    g, boundary, fixed, flags = instance
    expected = []
    for bits in range(1 << g.n):
        c = Coloring.from_red_set(g.n, {v for v in range(g.n) if bits >> (g.n - 1 - v) & 1})
        if all(c.colors[v] is color for v, color in fixed.items()):
            if oracles.naive_relaxed_feasible(g, boundary, flags, c):
                expected.append(c)
    assert enumerate_feasible(g, boundary, fixed, flags) == tuple(expected)


# -- soundness against whole-graph colorings ---------------------------------


def glue_pendant_path(piece, length: int):
    """piece plus a path of new vertices hung off vertex 0."""
    n = piece.n
    edges = piece.edges() + [(0, n)] + [(n + i, n + i + 1) for i in range(length - 1)]
    return graph_from_edge_list(n + length, edges)


def restriction_kinds(piece, length: int) -> set:
    """Hang a path of `length` new vertices off vertex 0 of `piece`, and
    check that every crumby coloring of the host restricts to a feasible
    coloring of the piece: boundary {0}, 0's color fixed, and 0 flagged
    outside-red exactly when its outside neighbor is Red.  Returns the
    (0's color, flagged) pairs that occur."""
    host = glue_pendant_path(piece, length)
    kinds = set()
    feasible = {}
    for bits in range(1 << host.n):
        reds = {v for v in range(host.n) if bits >> v & 1}
        if not verify_crumby(host, Coloring.from_red_set(host.n, reds)):
            continue
        inside = Coloring.from_red_set(piece.n, {v for v in reds if v < piece.n})
        flagged = 0 in reds and piece.n in reds
        kind = (inside.colors[0], flagged)
        if kind not in feasible:
            feasible[kind] = frozenset(enumerate_feasible(
                piece,
                frozenset({0}),
                {0: inside.colors[0]},
                frozenset({0}) if flagged else frozenset(),
            ))
        assert inside in feasible[kind]
        kinds.add(kind)
    return kinds


def test_restrictions_of_crumby_colorings_are_feasible(f_gadget):
    assert f_gadget.role_labels[0] == "x"
    # x is never Blue: by Lemma 1(i) a would be Red without support.  A Red
    # x occurs both flagged and not, so the C4 case is exercised
    for length in (1, 2):
        assert restriction_kinds(f_gadget.graph, length) == {
            (Color.RED, False), (Color.RED, True)
        }


def test_restrictions_of_crumby_colorings_of_r_are_feasible(r_gadget):
    assert r_gadget.role_labels[0] == "s"
    # a Red s is rich inside R (Lemma 2), so its outside neighbor is Blue
    for length in (1, 2):
        assert restriction_kinds(r_gadget.graph, length) == {
            (Color.BLUE, False), (Color.RED, False)
        }


# -- the shipped lemma scenarios ---------------------------------------------


def test_lemma1_i_reports():
    for role in ("a", "b"):
        report = verify_lemma1_i(r_role=role)
        assert report.passed and report.feasible_count == 4
        assert report.scenario == f"x-blue r={role}"


def test_lemma1_i_scenarios_agree_under_the_mirror_symmetry():
    a = verify_lemma1_i(r_role="a")
    b = verify_lemma1_i(r_role="b")
    mapped = {
        Coloring(tuple(c.colors[F_AUTOMORPHISM[v]] for v in range(len(c))))
        for c in a.colorings
    }
    assert a.colorings and mapped == set(b.colorings)


def test_lemma1_ii_reports():
    reports = verify_lemma1_ii()
    assert [r.scenario for r in reports] == [
        "x-red boundary=x,a outside-red=no",
        "x-red boundary=x,a outside-red=yes",
        "x-red boundary=x,b outside-red=no",
        "x-red boundary=x,b outside-red=yes",
    ]
    assert [r.feasible_count for r in reports] == [10, 4, 10, 4]
    assert all(r.passed for r in reports)


def test_lemma2_reports(r_gadget):
    plain, flagged = verify_lemma2()
    assert plain.passed and plain.feasible_count == 8
    assert flagged.passed and flagged.feasible_count == 0
    roles = {r: v for v, r in r_gadget.role_labels.items()}
    for c in plain.colorings:
        assert richness_witness(r_gadget.graph, c, roles["s"]) is not None


def test_richness_witness_requires_a_red_start():
    c = Coloring.from_text("B R R")
    assert richness_witness(path_graph(3), c, 0) is None
    assert richness_witness(path_graph(3), Coloring.from_text("R R R"), 0) == (0, 1, 2)


def test_composition_report_mentions_both_sides():
    report = verify_theorem1_composition()
    assert report.passed
    assert "x-blue-feasible=0" in report.note
    assert "x-red-feasible=4" in report.note
    assert "joined-pairs=16" in report.note


def test_composition_fails_on_a_relabeled_g18(monkeypatch):
    """Every coloring of G18 fails, so the join passes only because G18 is
    checked to be F, F shifted by 9 and the root edge 0-9."""
    g18 = build_G18()
    order = list(range(g18.graph.n))
    random.Random(18).shuffle(order)
    moved = LabeledGraph(relabel(g18.graph, order),
                         {order[v]: role for v, role in g18.role_labels.items()})
    monkeypatch.setattr(crumby.lemmas, "build_G18", lambda: moved)
    report = verify_theorem1_composition()
    assert report.passed is False
    assert report.note.startswith("x-blue-feasible=0 x-red-feasible=4 joined-pairs=16")


def test_composition_names_the_first_join_that_passes(monkeypatch):
    # with every join passing, the first pair (the first x-red coloring
    # joined to itself) is the counterexample, and the loop stops there
    monkeypatch.setattr(crumby.lemmas, "verify_crumby_by_components", lambda g, c: True)
    report = verify_theorem1_composition()
    assert report.passed is False
    assert report.counterexample.to_text() == " ".join(["R B R R B R B R R"] * 2)
    assert report.note.startswith("x-blue-feasible=0 x-red-feasible=4 joined-pairs=1 ")


def test_a_failed_report_names_its_counterexample(f_gadget):
    report = verify_lemma1_i(drop_edge(f_gadget, "f", "h"))
    assert report.human() == (
        "lemma 1(i) [x-blue r=a]: FAIL (6 feasible colorings);"
        " counterexample: B R B R R R B B B"
    )
    assert "counterexample=B R B R R R B B B" in report.machine_lines()


def test_all_reports_pass_without_the_exhaustive_oracle():
    reports = all_lemma_reports()
    assert len(reports) == 9
    assert all(isinstance(r, LemmaReport) and r.passed for r in reports)


def test_machine_lines_shape():
    report = verify_lemma1_i()
    lines = report.machine_lines()
    assert lines[0] == "lemma=1(i)"
    assert "pass=true" in lines

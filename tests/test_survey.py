from __future__ import annotations

import itertools

import pytest

from crumby import (
    CapExceeded,
    CrossCheckError,
    SolveResult,
    Status,
    SurveyFilters,
    complete_graph,
    emit_graph6,
    generate_small,
    is_connected,
    parse_graph6,
    survey_stream,
)
from crumby.coloring import Coloring
import crumby.survey
from tests import oracles


EXPECTED_CENSUS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


# -- enumeration up to isomorphism -------------------------------------------


def test_census_sizes():
    for n, count in EXPECTED_CENSUS.items():
        assert len(generate_small(n)) == count


def test_generation_cap_points_at_external_streams():
    with pytest.raises(CapExceeded, match="external"):
        generate_small(8)


def test_census_graphs_are_connected_with_the_right_order(census):
    for n, graphs in census.items():
        for g in graphs:
            assert g.n == n
            assert is_connected(g)


def test_census_lines_are_canonical_and_unique():
    lines = generate_small(6)
    assert len(set(lines)) == len(lines)


def test_census_has_no_isomorphic_duplicates(census):
    for n in range(1, 7):
        for g1, g2 in itertools.combinations(census[n], 2):
            assert not oracles.naive_isomorphic(g1, g2)


def test_census_is_exhaustive_at_order_four(census):
    # every connected 4-vertex graph must match one of the six classes
    from crumby import graph_from_bitmask

    for mask in range(1 << 6):
        g = graph_from_bitmask(4, mask)
        if not is_connected(g):
            continue
        assert any(oracles.naive_isomorphic(g, rep) for rep in census[4])


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
    report = survey_stream(["##bad##", emit_graph6(g18.graph)])
    assert report.tested == 1
    assert len(report.skipped) == 1
    assert report.skipped[0][0] == 1


def test_filters_drop_out_of_scope_graphs():
    report = survey_stream([emit_graph6(complete_graph(4))])
    assert report.tested == 0 and report.filtered_out == 1


def test_filter_toggles():
    k4 = emit_graph6(complete_graph(4))
    relaxed = SurveyFilters(subcubic=False, tw2=False)
    report = survey_stream([k4], filters=relaxed)
    assert report.tested == 1 and report.sat == 1
    assert relaxed.describe() == "connected"


def test_biconnected_filter_narrows_the_census():
    lines = [line for n in range(1, 8) for line in generate_small(n)]
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
    def lying_dpll(g, budget=None):
        return SolveResult(
            status=Status.SAT,
            coloring=Coloring.from_red_set(g.n, set()),
            solver="dpll",
            nodes=0,
            propagations=0,
            elapsed=0.0,
        )

    monkeypatch.setattr(crumby.survey, "dpll_solve", lying_dpll)
    with pytest.raises(CrossCheckError):
        survey_stream([emit_graph6(g18.graph)])

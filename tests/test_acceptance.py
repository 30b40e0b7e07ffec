"""Acceptance gate: one test per shipped claim, one verdict line each.

Each test prints `PASS criterion-NN <name>: <detail>` (or FAIL) before
asserting, so a plain `pytest -v` run yields a line per criterion and the
detail survives in captured output whenever something breaks.  Expected
values are restated literally here on purpose: they must not drift with
the implementation.
"""
from __future__ import annotations

import hashlib
import random
import time

import pytest

from crumby import (
    Coloring,
    Status,
    backtracking_solve,
    build_F,
    build_G18,
    build_G40,
    build_G40_sp,
    build_R,
    complete_bipartite,
    complete_graph,
    cut_vertices,
    dpll_solve,
    elimination_steps,
    elimination_width,
    encode_cnf,
    exhaustive_solve,
    graph_from_bitmask,
    graph_from_edge_list,
    has_minor,
    is_biconnected,
    is_bipartite,
    is_connected,
    parse_graph6,
    recognize_tw2,
    survey_stream,
    verify_crumby,
    verify_crumby_by_components,
    verify_lemma1_i,
    verify_lemma1_ii,
    verify_lemma2,
    verify_minor_witness,
    verify_theorem1_composition,
)
from crumby.checks import run_paper_checks
from crumby.cli import main
from crumby.gadgets import (
    F_AUTOMORPHISM,
    F_ELIMINATION_TABLE,
    drop_edge,
    g18_elimination_order,
)


def record(number: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"{verdict} criterion-{number:02d} {name}: {detail}")
    assert ok, f"criterion-{number:02d} {name}: {detail}"


def test_criterion_01_g18_unsat_three_ways(g18):
    t0 = time.perf_counter()
    exhaustive = exhaustive_solve(g18.graph)
    elapsed = time.perf_counter() - t0
    back = backtracking_solve(g18.graph)
    dpll = dpll_solve(g18.graph)
    statuses = (exhaustive.status, back.status, dpll.status)
    ok = (
        statuses == (Status.UNSAT,) * 3
        and exhaustive.nodes == 262_144
        and elapsed < 10.0
    )
    record(
        1,
        "g18-unsat-three-methods",
        ok,
        f"statuses={[s.value for s in statuses]} enumerated={exhaustive.nodes}"
        f" exhaustive-time={elapsed:.2f}s",
    )


def test_criterion_02_g40_unsat_two_solvers(g40):
    t0 = time.perf_counter()
    back = backtracking_solve(g40.graph)
    t_back = time.perf_counter() - t0
    t0 = time.perf_counter()
    dpll = dpll_solve(g40.graph)
    t_dpll = time.perf_counter() - t0
    ok = (
        back.status is Status.UNSAT
        and dpll.status is Status.UNSAT
        and t_back < 60.0
        and t_dpll < 60.0
    )
    record(
        2,
        "g40-unsat-both-solvers",
        ok,
        f"backtracking={back.status.value} ({t_back:.2f}s),"
        f" dpll={dpll.status.value} ({t_dpll:.2f}s)",
    )


def test_criterion_03_isolated_red_near_blue_root():
    report_a = verify_lemma1_i(r_role="a")
    report_b = verify_lemma1_i(r_role="b")

    def swap(c: Coloring) -> str:
        out = [None] * 9
        for v, col in enumerate(c.colors):
            out[F_AUTOMORPHISM[v]] = col
        return Coloring(tuple(out)).to_text()

    mirrored = {swap(c) for c in report_a.colorings}
    ok = (
        report_a.passed
        and report_b.passed
        and report_a.feasible_count == 4
        and report_b.feasible_count == 4
        and mirrored == {c.to_text() for c in report_b.colorings}
    )
    record(
        3,
        "lemma1i-both-roles",
        ok,
        f"r=a feasible={report_a.feasible_count}, r=b feasible={report_b.feasible_count},"
        " sets correspond under the mirror automorphism",
    )


def test_criterion_04_red_root_forces_a_red_neighbor():
    reports = verify_lemma1_ii()
    counts = [r.feasible_count for r in reports]
    ok = len(reports) == 4 and all(r.passed for r in reports) and counts == [10, 4, 10, 4]
    record(
        4,
        "lemma1ii-both-flag-scenarios",
        ok,
        f"feasible counts {counts} across boundary/flag scenarios, all passing",
    )


def test_criterion_05_richness():
    plain, flagged = verify_lemma2()
    ok = (
        plain.passed
        and plain.feasible_count == 8
        and flagged.passed
        and flagged.feasible_count == 0
    )
    record(
        5,
        "lemma2-richness",
        ok,
        f"rich in all {plain.feasible_count} feasible colorings;"
        f" flagged scenario leaves {flagged.feasible_count}",
    )


def test_criterion_06_g18_structure(g18):
    g = g18.graph
    cuts = cut_vertices(g)
    order = g18_elimination_order()
    width = elimination_width(g, order)
    steps = elimination_steps(g, order)
    roles = {role: v for v, role in g18.role_labels.items()}
    expected = [
        (roles[f"{role}{copy}"], tuple(sorted(roles[f"{nb}{copy}"] for nb in nbs)))
        for copy in (1, 2)
        for role, nbs in F_ELIMINATION_TABLE
    ]
    expected += [(roles["x1"], (roles["x2"],)), (roles["x2"], ())]
    ok = (
        is_connected(g)
        and g.m == 23
        and g.max_degree() == 3
        and cuts == [roles["x1"], roles["x2"]]
        and width == 2
        and steps == expected
    )
    record(
        6,
        "g18-structure",
        ok,
        f"cut vertices {cuts}, elimination width {width},"
        f" all {len(steps)} per-step neighbor entries match",
    )


def test_criterion_07_g40_structure(g40):
    g = g40.graph
    degree2 = sorted(v for v in range(g.n) if g.degree(v) == 2)
    # 2-connectivity by its definition, restated here: deleting any one
    # vertex leaves the other 39 connected
    splits = [
        v for v in range(g.n)
        if not is_connected(graph_from_edge_list(
            g.n - 1,
            [(a - (a > v), b - (b > v)) for a, b in g.edges() if v not in (a, b)],
        ))
    ]
    ok = (
        g.m == 54
        and degree2 == [4, 9, 10, 15, 20, 21, 23, 28, 29, 32, 37, 38]
        and is_biconnected(g)
        and splits == []
    )
    record(
        7,
        "g40-structure",
        ok,
        f"54 edges, degree-2 set {degree2}, lowpoint blocks and all 40"
        f" one-vertex deletions both certify 2-connectivity (cut vertices {splits})",
    )


def test_criterion_08_series_parallel_equality(g40):
    sp = build_G40_sp()
    ok = sp.graph.edges() == g40.graph.edges()
    record(
        8,
        "series-parallel-expansion",
        ok,
        f"expression expansion reproduces all {g40.graph.m} labeled edges exactly",
    )


def test_criterion_09_minor_freeness(f_gadget, r_gadget, g18, g40):
    k4 = complete_graph(4)
    accepted = [recognize_tw2(lg.graph)[0] for lg in (f_gadget, r_gadget, g18, g40)]
    edges = []
    mid = 4
    for u, v in k4.edges():
        edges += [(u, mid), (mid, v)]
        mid += 1
    subdivided = graph_from_edge_list(mid, edges)
    rejected = [not recognize_tw2(k4)[0], not recognize_tw2(subdivided)[0]]

    g18_minor, _ = has_minor(g18.graph, k4)
    found, searched = has_minor(f_gadget.graph, complete_bipartite(2, 3))
    merged = (frozenset({5}), frozenset({6}), frozenset({7}), frozenset({8}), frozenset({3, 4}))
    merged_ok, _ = verify_minor_witness(f_gadget.graph, complete_bipartite(2, 3), merged)
    searched_ok = found and verify_minor_witness(
        f_gadget.graph, complete_bipartite(2, 3), searched
    )[0]

    odd_cycles = []
    for lg in (g18, g40):
        bip, cycle = is_bipartite(lg.graph)
        closed = cycle + cycle[:1]
        odd_cycles.append(
            not bip
            and len(cycle) % 2 == 1
            and len(set(cycle)) == len(cycle)
            and all(lg.graph.has_edge(a, b) for a, b in zip(closed, closed[1:]))
        )

    ok = (
        all(accepted)
        and all(rejected)
        and not g18_minor
        and searched_ok
        and merged_ok
        and all(odd_cycles)
    )
    record(
        9,
        "k4-minor-freeness",
        ok,
        "recognizer accepts all four gadgets, rejects K4 and its subdivision;"
        " no K4 minor in the 18-vertex graph; K23 minor in F confirmed twice;"
        " both counterexamples carry valid odd-cycle witnesses",
    )


def test_criterion_10a_solver_agreement_on_the_full_census(census_lines):
    tested = 0
    cnf_checked = 0
    for n in range(1, 8):
        # bit-sliced clause check: bit `bits` of planes[v] says whether the
        # assignment `bits` colors vertex v Red, so one int operation
        # evaluates a literal or a clause on all 2^n assignments at once
        full = (1 << (1 << n)) - 1
        planes = [
            sum(1 << bits for bits in range(1 << n) if bits >> v & 1) for v in range(n)
        ]
        for line in census_lines[n]:
            g = parse_graph6(line)
            results = [exhaustive_solve(g), backtracking_solve(g), dpll_solve(g)]
            assert len({r.status for r in results}) == 1, line
            for r in results:
                if r.status is Status.SAT:
                    assert verify_crumby(g, r.coloring), line
            tested += 1

            models = full
            for clause in encode_cnf(g):
                sat = 0
                for lit in clause:
                    plane = planes[abs(lit) - 1]
                    sat |= plane if lit > 0 else full ^ plane
                models &= sat
            for bits in range(1 << g.n):
                reds = {v for v in range(g.n) if bits >> v & 1}
                valid = verify_crumby(g, Coloring.from_red_set(g.n, reds))
                assert bool(models >> bits & 1) == valid, (line, bits)
                cnf_checked += 1
    ok = tested == 996
    record(
        10,
        "solver-agreement-census",
        ok,
        f"3-way status agreement on {tested} connected graphs;"
        f" encoding matches the verifier on {cnf_checked} assignments",
    )


def test_criterion_10b_verifier_pair_on_random_inputs():
    rng = random.Random(271828)
    pairs = 100_000
    for _ in range(pairs):
        n = rng.randint(1, 10)
        mask = rng.getrandbits(n * (n - 1) // 2)
        g = graph_from_bitmask(n, mask)
        c = Coloring.from_red_set(n, {v for v in range(n) if rng.getrandbits(1)})
        assert verify_crumby(g, c) == verify_crumby_by_components(g, c)
    record(
        10,
        "verifier-pair-random",
        True,
        f"direct and component-wise verifiers agree on {pairs} random pairs (n <= 10)",
    )


def test_criterion_10c_survey_with_frozen_negative_list(census_lines):
    lines = [line for n in range(1, 8) for line in census_lines[n]]
    report = survey_stream(lines)
    expected_per_n = (
        (1, 1, 1, 0),
        (2, 1, 1, 0),
        (3, 2, 2, 0),
        (4, 5, 5, 0),
        (5, 9, 9, 0),
        (6, 23, 23, 0),
        (7, 50, 50, 0),
    )
    ok = report.per_n == expected_per_n and report.unsat_graph6 == ()
    record(
        10,
        "survey-frozen-unsat-list",
        ok,
        f"filtered family of {report.tested} graphs surveyed;"
        f" negative list {list(report.unsat_graph6)} matches the frozen constant",
    )


def test_criterion_11_composition(g18):
    report = verify_theorem1_composition()
    ok = (
        report.passed
        and "x-blue-feasible=0" in report.note
        and "x-red-feasible=4" in report.note
        and "joined-pairs=16" in report.note
        and "unsat" in report.note
    )
    record(
        11,
        "composition-rederives-the-contradiction",
        ok,
        report.note,
    )


def test_each_graph_claim_fails_on_a_graph_one_edge_short(monkeypatch):
    """G40 minus s1-x1 is Sat and has a cut vertex, and G18 minus f2-h2 is
    Sat; each fails exactly the claims about its graph.  The deletion route
    fails G40's 2-connectivity on its own when the lowpoint route says yes."""

    def failing() -> list[str]:
        results = run_paper_checks()
        assert len(results) == 34
        return [r.name for r in results if not r.ok]

    monkeypatch.setattr(
        "crumby.checks.build_G40", lambda: drop_edge(build_G40(), "s1", "x1")
    )
    g40_claims = [
        "g40-unsat-backtracking", "g40-unsat-dpll", "g40-structure",
        "g40-biconnected", "g40-series-parallel",
    ]
    assert failing() == g40_claims
    monkeypatch.setattr("crumby.checks.is_biconnected", lambda g: True)
    assert failing() == g40_claims
    monkeypatch.undo()
    monkeypatch.setattr(
        "crumby.checks.build_G18", lambda: drop_edge(build_G18(), "f2", "h2")
    )
    assert failing() == [
        "g18-unsat-exhaustive", "g18-unsat-backtracking", "g18-unsat-dpll",
        "g18-structure", "g18-elimination-order",
    ]


def test_full_claim_battery_exits_cleanly(capsys):
    code = main(["verify-paper"])
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
    ok = code == 0 and lines and all(line.startswith("PASS") for line in lines)
    print(f"{'PASS' if ok else 'FAIL'} claim-battery: {len(lines)} bundled checks, exit {code}")
    assert ok
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3c1cdcd08f73eb5d889b14c908e3a0f2b8a75037a30dc0e73c93c6624c8190da"
    )

"""The one-shot claim battery behind `crumby verify-paper`.

Two sections of checks, each yielding one pass/fail line:

* claim       -- the headline results the package exists to certify
                 (unsatisfiability of G18 and G40, the gadget lemmas, the
                 structural certificates, minor-freeness, bipartiteness);
* regression  -- derived constants frozen after the first verified run
                 (feasible-set sizes, mutated-gadget controls, census sizes,
                 survey outcomes), guarding against silent behavior drift.

The quick mode skips only the one 2^18 exhaustive sweep of G18.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .coloring import (
    Coloring,
    Status,
    backtracking_solve,
    dpll_solve,
    exhaustive_solve,
)
from .gadgets import (
    F_AUTOMORPHISM,
    F_ELIMINATION_TABLE,
    build_F,
    build_F_sp,
    build_G18,
    build_G40,
    build_G40_sp,
    build_R,
    drop_edge,
    g18_elimination_order,
)
from .graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    connected_components,
    cut_vertices,
    graph_from_edge_list,
    is_biconnected,
    is_bipartite,
    is_connected,
)
from .lemmas import (
    LemmaReport,
    all_lemma_reports,
    verify_lemma1_i,
    verify_lemma1_ii,
    verify_lemma2,
)
from .minorfree import (
    elimination_steps,
    elimination_width,
    find_elimination_order,
    has_minor,
    recognize_tw2,
    verify_minor_witness,
)
from .survey import generate_small, survey_stream

# -- frozen regression constants (recorded from the first verified run) ---------

LEMMA_FEASIBLE_COUNTS = {
    ("1(i)", "x-blue r=a"): 4,
    ("1(i)", "x-blue r=b"): 4,
    ("1(ii)", "x-red boundary=x,a outside-red=no"): 10,
    ("1(ii)", "x-red boundary=x,a outside-red=yes"): 4,
    ("1(ii)", "x-red boundary=x,b outside-red=no"): 10,
    ("1(ii)", "x-red boundary=x,b outside-red=yes"): 4,
    ("2", "s-red rich"): 8,
    ("2", "s-red outside-red expects-empty"): 0,
}

COMPOSITION_COUNTS = "x-blue-feasible=0 x-red-feasible=4 joined-pairs=16"

# (passed, feasible count, counterexample text or None) per control scenario
CONTROL_F_MINUS_FH_1I = (False, 6, "B R B R R R B B B")
CONTROL_EXTRA_BOUNDARY_C_1I = (True, 4, None)
CONTROL_F_MINUS_CD_1II = (
    (False, 27, "R B B B B R R B R"),
    (False, 15, "R B B B B R R B R"),
    (False, 27, "R B B B B R R B R"),
    (False, 15, "R B B B B R R B R"),
)
CONTROL_R_MINUS_ST_2 = (
    (False, 9, "R R B R B B R B R R R"),
    (False, 4, "R R B R B B R B R R R"),
)

CENSUS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}

# (n, tested, sat, unsat) of the connected+subcubic+tw2 survey of the census
SURVEY_PER_N = ((1, 1, 1, 0), (2, 1, 1, 0), (3, 2, 2, 0), (4, 5, 5, 0),
                (5, 9, 9, 0), (6, 23, 23, 0), (7, 50, 50, 0))
SURVEY_UNSAT_INSTANCES: tuple[str, ...] = ()


@dataclass(frozen=True)
class CheckResult:
    section: str  # "claim" or "regression"
    name: str
    ok: bool
    detail: str


def _k4_subdivision() -> Graph:
    """K4 with every edge subdivided once: 10 vertices, treewidth 3."""
    edges = []
    mid = 4
    for u, v in complete_graph(4).edges():
        edges.extend([(u, mid), (mid, v)])
        mid += 1
    return graph_from_edge_list(mid, edges)


def _odd_cycle_valid(g: Graph, cycle: list[int]) -> bool:
    if len(cycle) % 2 == 0 or len(cycle) < 3 or len(set(cycle)) != len(cycle):
        return False
    closed = cycle + [cycle[0]]
    return all(g.has_edge(u, v) for u, v in zip(closed, closed[1:]))


def _claims(quick: bool, reports: list[LemmaReport]) -> Iterator[CheckResult]:
    g18 = build_G18().graph
    g40 = build_G40().graph

    if not quick:
        # Unsat after all 2^18 colorings: not one of them is crumby
        result = exhaustive_solve(g18)
        yield CheckResult(
            "claim",
            "g18-unsat-exhaustive",
            result.status is Status.UNSAT and result.nodes == 1 << 18,
            f"{result.status.value} after {result.nodes} colorings enumerated",
        )
    for name, g, solve in (
        ("g18-unsat-backtracking", g18, backtracking_solve),
        ("g18-unsat-dpll", g18, dpll_solve),
        ("g40-unsat-backtracking", g40, backtracking_solve),
        ("g40-unsat-dpll", g40, dpll_solve),
    ):
        result = solve(g)
        yield CheckResult(
            "claim",
            name,
            result.status is Status.UNSAT,
            f"{result.status.value} after {result.nodes} nodes",
        )

    report_a, report_b, *scenarios, composition = reports
    for report in (report_a, report_b):
        yield CheckResult(
            "claim",
            f"lemma-{report.lemma}-{report.scenario.split()[-1]}",
            report.passed,
            report.human(),
        )
    mapped = {
        Coloring(tuple(c.colors[F_AUTOMORPHISM[v]] for v in range(9)))
        for c in report_a.colorings
    }
    yield CheckResult(
        "claim",
        "lemma-1(i)-automorphism",
        mapped == set(report_b.colorings) and report_a.passed == report_b.passed,
        "r=a and r=b feasible sets correspond under the a/b swap",
    )
    for report in scenarios:
        yield CheckResult(
            "claim",
            f"lemma-{report.lemma} {report.scenario}",
            report.passed,
            report.human(),
        )
    yield CheckResult(
        "claim", "theorem1-composition", composition.passed, composition.note
    )

    cuts = cut_vertices(g18)
    yield CheckResult(
        "claim",
        "g18-structure",
        is_connected(g18) and cuts == [0, 9] and g18.max_degree() == 3
        and g18.m == 23,
        f"connected, cut vertices {cuts}, max degree {g18.max_degree()},"
        f" {g18.m} edges",
    )
    order = g18_elimination_order()
    width = elimination_width(g18, order)
    steps = elimination_steps(g18, order)
    roles = build_G18().roles()
    expected = [
        (roles[f"{role}{copy}"], tuple(sorted(roles[f"{nb}{copy}"] for nb in nbs)))
        for copy in (1, 2)
        for role, nbs in F_ELIMINATION_TABLE
    ]
    yield CheckResult(
        "claim",
        "g18-elimination-order",
        width == 2 and steps[:16] == expected,
        f"width {width}, per-step neighbor table matches both copies",
    )

    deg2 = [v for v in range(g40.n) if g40.degree(v) == 2]
    yield CheckResult(
        "claim",
        "g40-structure",
        g40.m == 54 and deg2 == [4, 9, 10, 15, 20, 21, 23, 28, 29, 32, 37, 38]
        and g40.max_degree() == 3,
        f"{g40.m} edges, degree-2 vertices {deg2}",
    )
    # the definition, which shares no code with the lowpoint blocks: at
    # least 3 vertices, and no one-vertex deletion disconnects the rest
    everyone = frozenset(range(g40.n))
    splits = [
        v for v in range(g40.n)
        if len(connected_components(g40, everyone - {v})) > 1
    ]
    yield CheckResult(
        "claim",
        "g40-biconnected",
        is_biconnected(g40) and g40.n >= 3 and not splits,
        f"lowpoint blocks, and deleting each of the {g40.n} vertices in turn:"
        f" cut vertices {splits}",
    )

    f_lg = build_F()
    for name, build_sp, g, detail in (
        ("g40-series-parallel", build_G40_sp, g40, "labeled edge sets are equal"),
        ("f-series-parallel", build_F_sp, f_lg.graph,
         "expansion of the two-terminal expression equals F under the role map"),
    ):
        try:
            sp_ok, sp_why = build_sp().graph.edges() == g.edges(), detail
        except ValueError as exc:
            sp_ok, sp_why = False, str(exc)
        yield CheckResult("claim", name, sp_ok, sp_why)

    accept = all(
        recognize_tw2(g)[0] and find_elimination_order(g) is not None
        for g in (f_lg.graph, build_R().graph, g18, g40)
    )
    k4 = complete_graph(4)
    reject = not recognize_tw2(k4)[0] and not recognize_tw2(_k4_subdivision())[0]
    yield CheckResult(
        "claim",
        "treewidth-2-recognition",
        accept and reject,
        "accepts F, R, G18, G40; rejects K4 and a K4 subdivision",
    )
    found, witness = has_minor(g18, k4)
    yield CheckResult(
        "claim", "g18-no-k4-minor", not found, "branch-set search exhausted"
    )
    k23 = complete_bipartite(2, 3)
    found, witness = has_minor(f_lg.graph, k23)
    witness_ok = found and verify_minor_witness(f_lg.graph, k23, witness)[0]
    f_roles = f_lg.roles()
    merged = [frozenset({f_roles[role]}) for role in "efgh"]
    merged.append(frozenset({f_roles["c"], f_roles["d"]}))
    merged_ok = verify_minor_witness(f_lg.graph, k23, merged)[0]
    yield CheckResult(
        "claim",
        "f-k23-minor",
        witness_ok and merged_ok,
        "witness found and the merged-{c,d} witness validates",
    )
    for name, g in (("g18", g18), ("g40", g40)):
        ok, cycle = is_bipartite(g)
        yield CheckResult(
            "claim",
            f"{name}-non-bipartite",
            not ok and _odd_cycle_valid(g, cycle),
            f"odd cycle {'-'.join(map(str, cycle))}",
        )


def _regressions(reports: list[LemmaReport]) -> Iterator[CheckResult]:
    *scenarios, composition = reports
    counts = {(r.lemma, r.scenario): r.feasible_count for r in scenarios}
    yield CheckResult(
        "regression",
        "lemma-feasible-counts",
        counts == LEMMA_FEASIBLE_COUNTS,
        f"{sorted(counts.values())}",
    )
    yield CheckResult(
        "regression",
        "composition-counts",
        composition.note.startswith(COMPOSITION_COUNTS),
        composition.note,
    )

    def control(report) -> tuple[bool, int, str | None]:
        text = report.counterexample.to_text() if report.counterexample else None
        return (report.passed, report.feasible_count, text)

    f, r = build_F(), build_R()
    yield CheckResult(
        "regression",
        "control-f-minus-fh",
        control(verify_lemma1_i(drop_edge(f, "f", "h"))) == CONTROL_F_MINUS_FH_1I,
        "dropping edge f-h breaks the no-red-support conclusion",
    )
    yield CheckResult(
        "regression",
        "control-boundary-plus-c",
        control(verify_lemma1_i(extra_boundary=("c",)))
        == CONTROL_EXTRA_BOUNDARY_C_1I,
        "adding c to the boundary leaves the conclusion intact",
    )
    yield CheckResult(
        "regression",
        "control-f-minus-cd",
        tuple(control(rep) for rep in verify_lemma1_ii(drop_edge(f, "c", "d")))
        == CONTROL_F_MINUS_CD_1II,
        "dropping edge c-d breaks all four scenarios",
    )
    yield CheckResult(
        "regression",
        "control-r-minus-st",
        tuple(control(rep) for rep in verify_lemma2(drop_edge(r, "s", "t")))
        == CONTROL_R_MINUS_ST_2,
        "dropping edge s-t breaks richness",
    )

    census = {n: generate_small(n) for n in range(1, 8)}
    sizes = {n: len(lines) for n, lines in census.items()}
    yield CheckResult(
        "regression", "census-sizes", sizes == CENSUS_COUNTS, f"{sizes}"
    )
    report = survey_stream(line for n in sorted(census) for line in census[n])
    yield CheckResult(
        "regression",
        "survey-n7",
        report.per_n == SURVEY_PER_N
        and report.unsat_graph6 == SURVEY_UNSAT_INSTANCES,
        f"tested={report.tested} sat={report.sat} unsat={report.unsat}",
    )


def run_paper_checks(quick: bool = False) -> list[CheckResult]:
    reports = all_lemma_reports()  # shared by both sections
    return list(_claims(quick, reports)) + list(_regressions(reports))

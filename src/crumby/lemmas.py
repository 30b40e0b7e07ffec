"""Boundary-relaxed feasibility and the mechanical gadget lemmas.

A gadget sitting inside a larger host graph sees only part of the coloring
constraints: boundary vertices may have neighbors outside, of unknown color.
The conditions below are necessary for the restriction of any crumby coloring
of the host, whatever the outside looks like:

  C1. every Blue vertex has at most 1 Blue neighbor inside;
  C2. every Red non-boundary vertex has a Red neighbor inside
      (boundary Red vertices are exempt: outside support is possible);
  C3. no path on four vertices inside is entirely Red;
  C4. a boundary Red vertex assumed to have a Red neighbor outside must not
      start a Red path v-p-q inside (the outside neighbor would extend it to
      an all-Red path on four vertices).

Enumerating every coloring that passes C1-C4 and checking a conclusion on
all of them therefore proves the conclusion for every crumby coloring of
every host.  enumerate_feasible(g, boundary, fixed, outside_red) takes the
scenario as plain values: the boundary set, a map from vertex to fixed
color, and the boundary vertices flagged for C4.  The verify_lemma*
functions run exactly such enumerations for the bundled gadgets, and
verify_theorem1_composition chains them into a solver-free
unsatisfiability proof for G18.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterator

from .coloring import (
    BLUE,
    RED,
    Color,
    Coloring,
    Status,
    _feasible_masks,
    _mask_to_coloring,
    dpll_solve,
    verify_crumby_by_components,
)
from .errors import BoundarySpecError
from .gadgets import LabeledGraph, build_F, build_G18, build_R
from .graphs import Graph, graph_from_edge_list


def _paths_from(g: Graph, v: int) -> Iterator[tuple[int, int, int]]:
    """Every path v-p-q in g, p over v's neighbors in order, then q over p's."""
    for p in g.adj[v]:
        for q in g.adj[p]:
            if q != v:
                yield (v, p, q)


def enumerate_feasible(
    g: Graph,
    boundary: frozenset[int],
    fixed: dict[int, Color] | None = None,
    outside_red: frozenset[int] = frozenset(),
) -> tuple[Coloring, ...]:
    """Every coloring that agrees with the `fixed` colors and passes C1-C4,
    in lexicographic order (B before R).  `outside_red` marks the boundary
    vertices assumed to have a Red neighbor outside.

    C2 and C4 reach the feasibility sweep as data.  C2: boundary vertices are
    exempt from the Red-support test.  C4: every path v-p-q from an
    outside-red v is forbidden all-Red, like a P4.
    """
    fixed = fixed or {}
    for what, vertices in (("boundary", boundary), ("fixed", fixed)):
        for v in vertices:
            if not 0 <= v < g.n:
                raise BoundarySpecError(f"{what} vertex {v} is not in [0, {g.n})")
    stray = outside_red - boundary
    if stray:
        raise BoundarySpecError(
            f"outside-red flags on non-boundary vertices {sorted(stray)}"
        )
    extra = tuple(path for v in sorted(outside_red) for path in _paths_from(g, v))
    return tuple(
        _mask_to_coloring(g.n, mask)
        for mask in _feasible_masks(g, boundary, extra, fixed)
    )


# -- lemma reports --------------------------------------------------------------


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of one enumeration scenario; colorings kept for cross-checks."""

    lemma: str
    scenario: str
    feasible_count: int
    passed: bool
    counterexample: Coloring | None = None
    note: str = ""
    colorings: tuple[Coloring, ...] = field(default=(), repr=False)

    def machine_lines(self) -> list[str]:
        lines = [
            f"lemma={self.lemma}",
            f"scenario={self.scenario}",
            f"feasible={self.feasible_count}",
            f"pass={'true' if self.passed else 'false'}",
            "counterexample="
            + (self.counterexample.to_text() if self.counterexample else "-"),
        ]
        if self.note:
            lines.append(f"note={self.note}")
        return lines

    def human(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        text = (
            f"lemma {self.lemma} [{self.scenario}]: {verdict}"
            f" ({self.feasible_count} feasible colorings)"
        )
        if self.counterexample is not None:
            text += f"; counterexample: {self.counterexample.to_text()}"
        if self.note:
            text += f"; {self.note}"
        return text


def _scenario(
    lemma: str,
    scenario: str,
    fs: tuple[Coloring, ...],
    bad: Callable[[Coloring], bool],
) -> LemmaReport:
    """Report on the feasible colorings `fs`: the first `bad` one is the
    counterexample, and the scenario passes iff there is none."""
    counterexample = next((c for c in fs if bad(c)), None)
    return LemmaReport(
        lemma=lemma,
        scenario=scenario,
        feasible_count=len(fs),
        passed=counterexample is None,
        counterexample=counterexample,
        colorings=fs,
    )


def verify_lemma1_i(
    lg: LabeledGraph | None = None,
    r_role: str = "a",
    extra_boundary: tuple[str, ...] = (),
) -> LemmaReport:
    """Root Blue forces the distinguished neighbor Red with no Red support.

    Enumerates F with the root fixed Blue and boundary {root, r}; passes iff
    every feasible coloring makes r Red with no Red neighbor inside.
    """
    lg = lg or build_F()
    roles = lg.roles()
    x, r = roles["x"], roles[r_role]
    boundary = frozenset({x, r} | {roles[role] for role in extra_boundary})
    scenario = f"x-blue r={r_role}"
    if extra_boundary:
        scenario += " boundary+" + ",".join(extra_boundary)
    return _scenario(
        "1(i)",
        scenario,
        enumerate_feasible(lg.graph, boundary, {x: BLUE}),
        lambda c: c.colors[r] is BLUE
        or any(c.colors[u] is RED for u in lg.graph.adj[r]),
    )


def verify_lemma1_ii(lg: LabeledGraph | None = None) -> list[LemmaReport]:
    """Root Red forces a or b Red, with or without an outside Red neighbor.

    Four scenarios: boundary {x,a} and {x,b}, each with the outside-red flag
    on x off and on.  The boundary choices are deliberately kept separate.
    """
    lg = lg or build_F()
    roles = lg.roles()
    x, a, b = roles["x"], roles["a"], roles["b"]
    return [
        _scenario(
            "1(ii)",
            f"x-red boundary=x,{r_role} outside-red={'yes' if flagged else 'no'}",
            enumerate_feasible(
                lg.graph,
                frozenset({x, roles[r_role]}),
                {x: RED},
                frozenset({x}) if flagged else frozenset(),
            ),
            lambda c: c.colors[a] is BLUE and c.colors[b] is BLUE,
        )
        for r_role in ("a", "b")
        for flagged in (False, True)
    ]


def richness_witness(
    g: Graph, c: Coloring, v: int
) -> tuple[int, int, int] | None:
    """A Red path v-p-q inside g, or None; v itself must be Red."""
    red = c.red_set()
    if v not in red:
        return None
    return next((path for path in _paths_from(g, v) if red.issuperset(path)), None)


def verify_lemma2(lg: LabeledGraph | None = None) -> list[LemmaReport]:
    """A Red s is rich inside R: some Red path s-p-q exists.

    Scenario 1: boundary {s,t}, s fixed Red, no flags; every feasible
    coloring must contain a Red path from s.  Scenario 2: same with the
    outside-red flag on s; richness contradicts C4, so the feasible set
    must be empty.
    """
    lg = lg or build_R()
    roles = lg.roles()
    s, t = roles["s"], roles["t"]
    return [
        _scenario(
            "2",
            "s-red rich",
            enumerate_feasible(lg.graph, frozenset({s, t}), {s: RED}),
            lambda c: richness_witness(lg.graph, c, s) is None,
        ),
        _scenario(
            "2",
            "s-red outside-red expects-empty",
            enumerate_feasible(lg.graph, frozenset({s, t}), {s: RED}, frozenset({s})),
            lambda c: True,
        ),
    ]


def verify_theorem1_composition() -> LemmaReport:
    """Re-derive unsatisfiability of G18 from gadget enumerations alone.

    In G18 only the two roots see the other copy, so each copy's coloring
    restricts to a feasible coloring with boundary {x}.  With x Blue the
    feasible set must be empty (so both roots are Red, and each root then
    has a Red outside neighbor: the other root).  Every pair of flagged
    x-Red feasible colorings, joined along the root edge, must fail the
    crumby conditions.  The verdict is compared against DPLL, which shares
    no code with the enumeration core.
    """
    lg = build_F()
    roles = lg.roles()
    x = roles["x"]
    s_blue = enumerate_feasible(lg.graph, frozenset({x}), {x: BLUE})
    s_red = enumerate_feasible(lg.graph, frozenset({x}), {x: RED}, frozenset({x}))
    # the join c1 + c2 below colors G18 as two copies only if G18 is F on
    # 0..n-1, F shifted by n on n..2n-1, and the root edge x1-x2
    f, g18 = lg.graph, build_G18().graph
    n = f.n
    laid_out = g18 == graph_from_edge_list(
        2 * n, [*f.edges(), *((u + n, v + n) for u, v in f.edges()), (x, x + n)]
    )
    joined_ok = None
    pairs = 0
    for c1, c2 in product(s_red, repeat=2):
        pairs += 1
        joined = Coloring(c1.colors + c2.colors)
        if verify_crumby_by_components(g18, joined):
            joined_ok = joined
            break
    result = dpll_solve(g18)
    passed = (
        laid_out
        and len(s_blue) == 0
        and joined_ok is None
        and result.status is Status.UNSAT
    )
    note = (
        f"x-blue-feasible={len(s_blue)} x-red-feasible={len(s_red)}"
        f" joined-pairs={pairs} solver={result.solver}:{result.status.value}"
    )
    return LemmaReport(
        lemma="T1-composition",
        scenario="two flagged x-red copies joined at the roots",
        feasible_count=len(s_red),
        passed=passed,
        counterexample=joined_ok,
        note=note,
    )


def all_lemma_reports() -> list[LemmaReport]:
    """Every stock scenario, in a fixed order, for the CLI and the test gate."""
    reports = [verify_lemma1_i(r_role="a"), verify_lemma1_i(r_role="b")]
    reports.extend(verify_lemma1_ii())
    reports.extend(verify_lemma2())
    reports.append(verify_theorem1_composition())
    return reports

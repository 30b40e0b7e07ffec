from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crumby import (
    BLUE,
    BudgetExhausted,
    CapExceeded,
    Coloring,
    GADGETS,
    Status,
    backtracking_solve,
    complete_graph,
    count_crumby,
    dpll_solve,
    emit_dimacs,
    emit_solve_certificate,
    encode_cnf,
    enumerate_feasible,
    enumerate_p4,
    exhaustive_solve,
    expand,
    graph_from_edge_list,
    parse_graph6,
    relabel,
    verify_crumby,
    verify_crumby_by_components,
)
from crumby.coloring import violations
import crumby.coloring
from tests import oracles, strategies
from tests.helpers import path_graph, traced_peak

PROPERTY = settings(max_examples=80, deadline=None)


def cnf_satisfied(clauses: tuple[tuple[int, ...], ...], reds: set[int]) -> bool:
    # literal v>0 means vertex v-1 red, v<0 means vertex -v-1 blue
    def lit_true(lit: int) -> bool:
        vertex = abs(lit) - 1
        return (vertex in reds) if lit > 0 else (vertex not in reds)

    return all(any(lit_true(lit) for lit in clause) for clause in clauses)


# -- coloring values ---------------------------------------------------------


def test_coloring_text_round_trip():
    c = Coloring.from_text("R B B R")
    assert c.to_text() == "R B B R"
    assert c.red_set() == {0, 3}


def test_coloring_from_red_set():
    assert Coloring.from_red_set(3, {1}).to_text() == "B R B"


def test_coloring_rejects_unknown_token():
    with pytest.raises(ValueError, match="token"):
        Coloring.from_text("R X")


def test_verify_rejects_length_mismatch():
    with pytest.raises(ValueError, match="entries"):
        verify_crumby(complete_graph(3), Coloring.from_text("R B"))


# -- the verifier pair -------------------------------------------------------


def listed(g, c):
    """Every violation of c on g, in the order `crumby verify` prints them."""
    return list(violations(g, c.red_set()))


def test_all_red_triangle_is_crumby():
    k3, c = complete_graph(3), Coloring.from_text("R R R")
    assert verify_crumby(k3, c) is True
    assert listed(k3, c) == []


def test_all_red_four_cycle_has_a_path_violation():
    c4 = graph_from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    c = Coloring.from_text("R R R R")
    assert verify_crumby(c4, c) is False
    assert listed(c4, c) == [
        "all-red path 0-1-2-3",
        "all-red path 0-3-2-1",
        "all-red path 1-0-3-2",
        "all-red path 2-1-0-3",
    ]


def test_lonely_red_vertex_is_flagged():
    k2, c = complete_graph(2), Coloring.from_text("R B")
    assert not verify_crumby(k2, c)
    assert listed(k2, c) == ["red vertex 0 has no red neighbor"]


def test_blue_vertex_with_two_blue_neighbors_is_flagged():
    p3, c = path_graph(3), Coloring.from_text("B B B")
    assert not verify_crumby(p3, c)
    assert listed(p3, c) == ["blue vertex 1 has two or more blue neighbors"]


def test_verifier_handles_long_paths():
    n = 5000
    g = path_graph(n)
    pairs = {v for v in range(n) if v % 4 in (1, 2)}
    good = Coloring.from_red_set(n, pairs)
    assert verify_crumby(g, good) and listed(g, good) == []
    bad = Coloring.from_red_set(n, pairs - {1, 2})
    assert not verify_crumby(g, bad)
    assert listed(g, bad) == [
        f"blue vertex {v} has two or more blue neighbors" for v in (1, 2, 3)
    ]
    # one red run of four far from vertex 0; the rest stays crumby
    red = Coloring.from_red_set(n, (pairs | {3003, 3004, 3007}) - {3005})
    assert not verify_crumby(g, red)
    assert listed(g, red) == ["all-red path 3001-3002-3003-3004"]


def test_verdict_stops_at_the_first_violation():
    # K20 all Red has 58,140 red P4s; the verdict needs none of them listed
    k20 = complete_graph(20)
    all_red = Coloring.from_red_set(20, set(range(20)))
    verdicts = []
    assert traced_peak(lambda: verdicts.append(verify_crumby(k20, all_red))) < 256 << 10
    assert verdicts == [False]
    # the listing still yields every one: K12 has 12 * 11 * 10 * 9 / 2 P4s
    k12 = complete_graph(12)
    found = listed(k12, Coloring.from_red_set(12, set(range(12))))
    assert len(found) == 5940
    assert all(line.startswith("all-red path ") for line in found)


@given(strategies.graph_coloring_pairs(max_n=8))
@PROPERTY
def test_verifier_matches_naive_oracle(pair):
    g, c = pair
    assert verify_crumby(g, c) == oracles.naive_is_crumby(g, c)
    red = c.red_set()
    red_paths = sorted(p for p in oracles.naive_p4_set(g) if red.issuperset(p))
    assert [line for line in listed(g, c) if line.startswith("all-red path ")] == [
        f"all-red path {'-'.join(map(str, path))}" for path in red_paths
    ]


@given(strategies.graph_coloring_pairs(max_n=9))
@PROPERTY
def test_component_verifier_agrees_with_direct_verifier(pair):
    g, c = pair
    assert verify_crumby_by_components(g, c) == verify_crumby(g, c)


# -- exhaustive enumeration --------------------------------------------------


def test_known_small_counts():
    assert count_crumby(graph_from_edge_list(1, [])) == 1
    assert count_crumby(complete_graph(2)) == 2
    assert count_crumby(complete_graph(3)) == 4


def test_counts_match_naive_oracle(census):
    for n in range(1, 6):
        for g in census[n]:
            assert count_crumby(g) == oracles.naive_count_crumby(g)


def test_exhaustive_returns_lexicographically_least_coloring(census):
    for g in census[4] + census[5]:
        sat = [
            Coloring.from_red_set(g.n, {v for v in range(g.n) if bits >> v & 1})
            for bits in range(1 << g.n)
        ]
        sat = [c for c in sat if verify_crumby(g, c)]
        result = exhaustive_solve(g)
        if sat:
            assert result.status is Status.SAT
            assert result.coloring.to_text() == min(c.to_text() for c in sat)
        else:
            assert result.status is Status.UNSAT


SWEEPS = {
    "exhaustive_solve": exhaustive_solve,
    "count_crumby": count_crumby,
    "enumerate_feasible": lambda g: enumerate_feasible(g, frozenset()),
}


@pytest.mark.parametrize("n", [25, 200_000])
@pytest.mark.parametrize("entry", SWEEPS)
def test_exhaustive_cap_is_enforced(entry, n):
    # the refusal comes before anything runs over g: not even its P4 walk
    g = path_graph(n)

    def refused():
        with pytest.raises(CapExceeded, match="n <= 24"):
            SWEEPS[entry](g)

    assert traced_peak(refused) < 2**20


def test_g18_sweep_runs_in_cache_sized_chunks(g18):
    # one full-width chunk of all 2^18 masks would pass the bound (4.5 MiB)
    result = exhaustive_solve(g18.graph)
    assert (result.status, result.nodes) == (Status.UNSAT, 1 << 18)
    assert traced_peak(lambda: exhaustive_solve(g18.graph)) < 1.5 * 2**20


def _random_subcubic(seed: int, n: int):
    """Edges drawn at random under a degree cap of 3, seeded."""
    rng = random.Random(seed)
    deg, edges = [0] * n, set()
    for _ in range(4 * n):
        u, v = sorted(rng.sample(range(n), 2))
        if deg[u] < 3 and deg[v] < 3 and (u, v) not in edges:
            edges.add((u, v))
            deg[u] += 1
            deg[v] += 1
    return graph_from_edge_list(n, sorted(edges))


def test_sweep_at_the_cap_runs_in_cache_sized_chunks():
    # 2^24 masks in 2^15-bit planes trace about 0.3 MiB; planes of 2^20 bits
    # (the bytes of one int32 chunk) would trace about 11 MiB
    g = _random_subcubic(5, 24)
    assert g.n == 24 and max(len(row) for row in g.adj) == 3
    assert count_crumby(g) == 549
    assert traced_peak(lambda: count_crumby(g)) < 2**20


SOLVERS = {
    "exhaustive": exhaustive_solve,
    "backtracking": backtracking_solve,
    "dpll": dpll_solve,
}


@pytest.mark.parametrize("solver", SOLVERS)
def test_every_sat_answer_is_rechecked(monkeypatch, solver):
    # K2 is Sat for all three; a verify_crumby that rejects every coloring
    # must turn each solver's answer into an error that names the solver
    monkeypatch.setattr(crumby.coloring, "verify_crumby", lambda g, c: False)
    with pytest.raises(AssertionError, match=f"{solver} produced a non-crumby"):
        SOLVERS[solver](complete_graph(2))


def test_empty_graph_is_trivially_colorable():
    result = exhaustive_solve(graph_from_edge_list(0, []))
    assert result.status is Status.SAT and result.coloring.to_text() == ""


# -- constraint encoding -----------------------------------------------------


def test_cnf_sizes_on_reference_graphs():
    assert len(encode_cnf(complete_graph(2))) == 2
    assert len(encode_cnf(path_graph(4))) == 7
    assert len(encode_cnf(complete_graph(4))) == 9


def test_cnf_clause_families_on_path():
    clauses = encode_cnf(path_graph(4))
    all_positive = [c for c in clauses if all(lit > 0 for lit in c)]
    all_negative = [c for c in clauses if all(lit < 0 for lit in c)]
    mixed = [c for c in clauses if c not in all_positive and c not in all_negative]
    assert len(all_positive) == 2
    assert len(mixed) == 4
    assert all_negative == [(-1, -2, -3, -4)]


def test_cnf_has_no_duplicate_clauses():
    clauses = encode_cnf(complete_graph(5))
    assert len(set(clauses)) == len(clauses)


# sha256 of emit_dimacs(g.n, encode_cnf(g)) over every census line (n = 1..7, in
# census order), then G18, G40 and G40 under one random.Random(16)
# relabeling; 16-hex prefix.  Clause order is part of these bytes.
DIMACS_DIGEST = "7e075fe2ed55cd73"


def test_dimacs_bytes_are_pinned(census_lines, g18, g40):
    graphs = [parse_graph6(line) for n in range(1, 8) for line in census_lines[n]]
    perm = list(range(g40.graph.n))
    random.Random(16).shuffle(perm)
    graphs += [g18.graph, g40.graph, relabel(g40.graph, perm)]
    digest = hashlib.sha256()
    for g in graphs:
        digest.update(emit_dimacs(g.n, encode_cnf(g)).encode())
    assert len(graphs) == 999
    assert digest.hexdigest()[:16] == DIMACS_DIGEST


def test_dimacs_format():
    text = emit_dimacs(2, encode_cnf(complete_graph(2)))
    lines = text.splitlines()
    assert lines[0] == "p cnf 2 2"
    assert all(line.endswith(" 0") for line in lines[1:])


@given(strategies.graphs(min_n=1, max_n=6))
@PROPERTY
def test_cnf_models_are_exactly_the_crumby_colorings(g):
    clauses = encode_cnf(g)
    assert all(1 <= abs(lit) <= g.n for clause in clauses for lit in clause)
    for bits in range(1 << g.n):
        reds = {v for v in range(g.n) if bits >> v & 1}
        expected = verify_crumby(g, Coloring.from_red_set(g.n, reds))
        assert cnf_satisfied(clauses, reds) == expected


# -- the three solvers -------------------------------------------------------


def test_solvers_agree_on_the_census(census):
    for n in range(1, 6):
        for g in census[n]:
            results = [exhaustive_solve(g), backtracking_solve(g), dpll_solve(g)]
            statuses = {r.status for r in results}
            assert len(statuses) == 1
            for r in results:
                if r.status is Status.SAT:
                    assert verify_crumby(g, r.coloring)
                    assert verify_crumby_by_components(g, r.coloring)
                else:
                    assert r.coloring is None


@given(strategies.subcubic_graphs(max_n=10))
@PROPERTY
def test_backtracking_and_dpll_agree_on_random_subcubic_graphs(g):
    a = backtracking_solve(g)
    b = dpll_solve(g)
    assert a.status == b.status
    if a.status is Status.SAT:
        assert verify_crumby(g, a.coloring)
        assert verify_crumby(g, b.coloring)


def assert_three_way_agreement(g):
    results = [exhaustive_solve(g), backtracking_solve(g), dpll_solve(g)]
    assert len({r.status for r in results}) == 1
    for r in results:
        if r.status is Status.SAT:
            assert verify_crumby(g, r.coloring)
            assert verify_crumby_by_components(g, r.coloring)


@given(strategies.subcubic_graphs(min_n=11, max_n=20))
@settings(max_examples=120, deadline=None)
def test_three_solvers_agree_beyond_the_census(g):
    assert_three_way_agreement(g)


@given(strategies.sp_expressions())
@settings(max_examples=120, deadline=None)
def test_three_solvers_agree_on_series_parallel_expansions(expr):
    g = expand(expr)
    assume(g.n <= 20)
    assert_three_way_agreement(g)


def test_budget_exhaustion_raises(g40):
    with pytest.raises(BudgetExhausted) as info:
        backtracking_solve(g40.graph, budget=50)
    assert info.value.nodes == 51, "stops on the first node past the budget"
    with pytest.raises(BudgetExhausted) as info:
        dpll_solve(g40.graph, budget=10)
    assert info.value.nodes == 11


def test_dpll_refutes_the_gadgets_within_their_natural_node_counts(g18, g40):
    # the budgets are the pinned node counts, so a search that re-tries a
    # choice raises BudgetExhausted at once instead of running for ever
    assert dpll_solve(g18.graph, budget=122).status is Status.UNSAT
    assert dpll_solve(g40.graph, budget=5234).status is Status.UNSAT


@pytest.mark.parametrize("budget", [0, 100])
def test_budget_runs_out_inside_a_sat_search(budget):
    # a Sat search takes 10,000 nodes here; the first node past the budget
    # raises, so no partial coloring comes back
    with pytest.raises(BudgetExhausted) as info:
        backtracking_solve(path_graph(20_000), budget=budget)
    assert info.value.nodes == budget + 1


def test_solvers_are_deterministic(f_gadget):
    for solve in (backtracking_solve, dpll_solve):
        runs = [solve(f_gadget.graph) for _ in range(2)]
        assert runs[0].status == runs[1].status
        assert runs[0].coloring == runs[1].coloring
        assert runs[0].nodes == runs[1].nodes


# sha256 of the solve certificates of backtracking_solve then dpll_solve on
# every census line, n = 1..7 in census order; 16-hex prefix.  Statuses,
# node and propagation counts and colorings are all in these bytes, so any
# change to either search tree shows here.
CENSUS_SOLVE_DIGEST = "ab269acac41d9a80"


def test_census_search_trees_are_pinned(census_lines):
    digest = hashlib.sha256()
    certificates = 0
    for n in range(1, 8):
        for line in census_lines[n]:
            g = parse_graph6(line)
            for solve in (backtracking_solve, dpll_solve):
                digest.update(emit_solve_certificate(solve(g)).encode())
                certificates += 1
    assert certificates == 1992
    assert digest.hexdigest()[:16] == CENSUS_SOLVE_DIGEST


# sha256 of the backtracking_solve then dpll_solve certificates of
# _random_subcubic(seed, 8 + seed % 23) for seeds 0..199, so n = 8..30;
# 16-hex prefix.  All 200 are Sat and 146 of the backtracking searches undo
# a conflict before they find their coloring, so the order in which forced
# moves are queued and run shows here, past the census.  Computed before
# the graph search's rules were folded into its loop.
SAT_SEARCH_DIGEST = "edf53bf287b676a6"


def test_sat_search_trees_beyond_the_census_are_pinned():
    digest = hashlib.sha256()
    for seed in range(200):
        g = _random_subcubic(seed, 8 + seed % 23)
        for solve in (backtracking_solve, dpll_solve):
            result = solve(g)
            assert result.status is Status.SAT
            digest.update(emit_solve_certificate(result).encode())
    assert digest.hexdigest()[:16] == SAT_SEARCH_DIGEST


def _p4_fan_out(g):
    """Each P4 of enumerate_p4(g), in its order, under each of its four
    vertices as the other three."""
    rows = [[] for _ in range(g.n)]
    for a, b, c, d in enumerate_p4(g):
        rows[a].append((b, c, d))
        rows[b].append((a, c, d))
        rows[c].append((a, b, d))
        rows[d].append((a, b, c))
    return rows


@given(strategies.graphs())
@PROPERTY
def test_the_search_p4_table_is_the_fan_out_of_enumerate_p4(g):
    assert crumby.coloring._GraphSearch(g, None).p4_of == _p4_fan_out(g)


def test_the_search_p4_table_on_the_gadgets_and_past_the_census(g18, g40):
    graphs = [g18.graph, g40.graph, complete_graph(6)]
    graphs += [_random_subcubic(seed, 8 + seed % 23) for seed in range(40)]
    for g in graphs:
        assert crumby.coloring._GraphSearch(g, None).p4_of == _p4_fan_out(g)


def test_backtracking_solves_a_long_path_in_one_pass():
    # each decision colors the lowest unset vertex; finding it must not
    # rescan the colored prefix, or this takes seconds
    result = backtracking_solve(path_graph(20_000))
    assert result.status is Status.SAT
    assert (result.nodes, result.propagations) == (10_000, 10_000)


# sha256 of the dpll_solve certificates of G18 under four relabelings, then
# G40 under two, drawn from one random.Random(15); 16-hex prefix.  These
# refutations take 216, 240, 160, 202, 22,110 and 15,418 nodes: the deepest
# pure-literal and backtracking paths, which the census barely reaches.
RELABELED_REFUTATION_DIGEST = "d6308880a951c071"


def relabeled_refutations_digest(solve, g18, g40) -> str:
    rng = random.Random(15)
    digest = hashlib.sha256()
    for g, copies in ((g18.graph, 4), (g40.graph, 2)):
        for _ in range(copies):
            perm = list(range(g.n))
            rng.shuffle(perm)
            result = solve(relabel(g, perm))
            assert result.status is Status.UNSAT
            digest.update(emit_solve_certificate(result).encode())
    return digest.hexdigest()[:16]


def test_dpll_refutation_trees_of_relabeled_gadgets_are_pinned(g18, g40):
    digest = relabeled_refutations_digest(dpll_solve, g18, g40)
    assert digest == RELABELED_REFUTATION_DIGEST


# sha256 of the backtracking_solve certificates of the same six relabelings
# (random.Random(15): G18 four times, then G40 twice); 16-hex prefix.  These
# refutations take 598, 1,056, 458, 710, 141,240 and 100,990 nodes, so every
# rule of the graph search fires deep in the tree, far from the census.
RELABELED_BACKTRACKING_DIGEST = "504a29ccd89ad86e"


def test_backtracking_refutation_trees_of_relabeled_gadgets_are_pinned(g18, g40):
    digest = relabeled_refutations_digest(backtracking_solve, g18, g40)
    assert digest == RELABELED_BACKTRACKING_DIGEST


def test_dpll_solves_a_long_path_in_one_pass():
    # decisions and pure-literal rounds read only the variables they may
    # change; a scan over every variable per level makes this quadratic
    result = dpll_solve(path_graph(20_000))
    assert result.status is Status.SAT
    assert (result.nodes, result.propagations) == (9_999, 10_001)


@pytest.mark.parametrize(
    "name, status, nodes, propagations",
    [("G18", Status.UNSAT, 122, 214), ("F", Status.SAT, 4, 5)],
)
def test_dpll_assigns_isolated_vertices_by_the_pure_literal_rule(
    name, status, nodes, propagations
):
    # an isolated v's only clause is the unit (~x_v): the first pure-literal
    # pass sets it Blue, one propagation and no node per isolated vertex
    g = GADGETS[name]().graph
    padded = graph_from_edge_list(g.n + 3, g.edges())
    for h, extra in ((g, 0), (padded, 3)):
        result = dpll_solve(h)
        assert (result.status, result.nodes) == (status, nodes)
        assert result.propagations == propagations + extra
    if result.coloring is not None:
        assert result.coloring.colors[g.n:] == (BLUE,) * 3


def test_isolated_vertex_keeps_instances_solvable(census):
    for g in census[4]:
        padded = graph_from_edge_list(g.n + 1, g.edges())
        assert backtracking_solve(padded).status is Status.SAT


def test_solve_certificate_layout(f_gadget):
    result = backtracking_solve(f_gadget.graph)
    text = emit_solve_certificate(result)
    keys = [line.split(":")[0] for line in text.splitlines()]
    assert keys == ["status", "solver", "nodes", "propagations", "coloring"]
    coloring = Coloring.from_text(text.splitlines()[-1].split(": ", 1)[1])
    assert verify_crumby(f_gadget.graph, coloring)


def breadth_first_relabeling(g, rng: random.Random, root: int):
    """g relabeled in breadth-first order from root, each vertex's neighbors
    visited in a shuffled order: the shape of the benchmark's certify
    instances, whose refutations run deepest."""
    order, head = [root], 0
    seen = {root}
    while head < len(order):
        nbrs = list(g.adj[order[head]])
        head += 1
        rng.shuffle(nbrs)
        for u in nbrs:
            if u not in seen:
                seen.add(u)
                order.append(u)
    perm = [0] * g.n
    for new, old in enumerate(order):
        perm[old] = new
    return relabel(g, perm)


# sha256 of the backtracking_solve then dpll_solve certificates of G40 under
# four breadth-first relabelings (roots 0, 13, 26 and 39, one
# random.Random(40) for the neighbor orders); 16-hex prefix.  Backtracking
# takes 28,928, 28,198, 19,236 and 18,638 nodes, DPLL 7,908, 7,702, 7,250
# and 4,502.  Computed before the solvers' loops were flattened.
BREADTH_FIRST_G40_DIGEST = "db1b8b66b7ca412a"


def test_breadth_first_g40_refutations_are_pinned(g40):
    rng = random.Random(40)
    digest = hashlib.sha256()
    for root in (0, 13, 26, 39):
        g = breadth_first_relabeling(g40.graph, rng, root)
        for solve in (backtracking_solve, dpll_solve):
            result = solve(g)
            assert result.status is Status.UNSAT
            digest.update(emit_solve_certificate(result).encode())
    assert digest.hexdigest()[:16] == BREADTH_FIRST_G40_DIGEST


class _CheckedDpll(crumby.coloring._Dpll):
    """DPLL that, after every completed pure-literal pass, recomputes from
    the values alone, over every clause and every variable, what the search
    keeps incrementally: which clauses are satisfied, by which literal, how
    many free literals each unsatisfied clause has, and which free variables
    are pure.  The pass reads only candidate variables, so a candidate set
    that missed one would show here; every undo in dfs is followed by _set
    and a completed pass, so a clause state the undo left wrong shows too."""

    passes = 0

    def _pure_literals(self) -> bool:
        if not super()._pure_literals():
            return False
        val, sat, n_free = self.val, self.sat, self.n_free
        open_lits = set()
        for ci, clause in enumerate(self.clauses):
            true = [lit for lit in clause if val[lit] == 1]
            if true:
                assert sat[ci] in true, f"clause {ci} is satisfied by {sat[ci]}"
            else:
                assert not sat[ci], f"clause {ci} has no true literal"
                free = sum(1 for lit in clause if not val[lit])
                assert n_free[ci] == free, f"clause {ci} counts {n_free[ci]} free"
                open_lits.update(clause)
        pure = [
            var
            for var in range(1, self.n + 1)
            if not val[var] and (var not in open_lits or -var not in open_lits)
        ]
        assert not pure, f"free variables {pure} are pure after a completed pass"
        self.passes += 1
        return True


def checked_dpll(g, budget=None) -> _CheckedDpll:
    d = _CheckedDpll(g.n, encode_cnf(g), budget)
    try:
        d.dfs()
    except BudgetExhausted:
        pass
    return d


def test_no_free_variable_is_pure_after_a_pass_on_relabeled_gadgets(g18, g40):
    rng = random.Random(22)
    for g, budget in ((g18.graph, None), (g40.graph, 1000)):
        for root in (0, g.n // 2):
            d = checked_dpll(breadth_first_relabeling(g, rng, root), budget)
            assert d.passes > 80  # a pass completes at about every other node


@given(strategies.subcubic_graphs(max_n=16))
@PROPERTY
def test_no_free_variable_is_pure_after_a_pass(g):
    d = checked_dpll(g)
    result = dpll_solve(g)
    assert (d.nodes, d.propagations) == (result.nodes, result.propagations)


class _LoggedDpll(crumby.coloring._Dpll):
    """DPLL that keeps the longest each undo log has been after any _set."""

    longest = (0, 0)

    def _set(self, lit: int) -> bool:
        ok = super()._set(lit)
        self.longest = (
            max(self.longest[0], len(self.satisfied)),
            max(self.longest[1], len(self.counted)),
        )
        return ok

    def assert_logs_stay_linear(self) -> None:
        # a clause is satisfied at most once, and a literal occurrence
        # counted down at most once, along the current path
        assert self.longest[0] <= len(self.clauses)
        assert self.longest[1] <= sum(map(len, self.clauses))


class _UndoCheckedDpll(_LoggedDpll):
    """DPLL that copies its whole state (values, clause states, trail and
    both undo logs) at the end of the root pass and at each True decision,
    and checks that the search comes back to it exactly: a variable's False
    decision starts from the state its True decision started from.  The
    latest True decision of a variable is the one being flipped, because
    the variable stays assigned in that decision's whole subtree."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.root = None
        self.at_choice = {}
        self.in_pass = False
        self.flips = 0

    def state(self):
        return (
            self.val[:], self.sat[:], self.n_free[:],
            self.trail[:], self.satisfied[:], self.counted[:],
        )

    def _pure_literals(self) -> bool:
        self.in_pass = True
        try:
            ok = super()._pure_literals()
        finally:
            self.in_pass = False
        if self.root is None:
            self.root = self.state()
        return ok

    def _set(self, lit: int) -> bool:
        if not self.in_pass:  # a decision of dfs
            if lit > 0:
                self.at_choice[lit] = self.state()
            else:
                assert self.state() == self.at_choice.pop(-lit), f"undo to {-lit}"
                self.flips += 1
        return super()._set(lit)


def solved(cls, g):
    d = cls(g.n, encode_cnf(g), None)
    return d, d.dfs()


def test_a_refutation_leaves_the_root_state(g18, g40):
    rng = random.Random(33)
    for g in (g18.graph, g40.graph):
        for root in (0, g.n // 3):
            h = breadth_first_relabeling(g, rng, root)
            d, sat = solved(_UndoCheckedDpll, h)
            assert not sat and d.flips > 20
            fresh = crumby.coloring._Dpll(h.n, d.clauses, None)
            assert d.state() == d.root == (
                fresh.val, fresh.sat, fresh.n_free, fresh.trail, [], []
            )
            d.assert_logs_stay_linear()


def relabeled_g18(perm: list[int]):
    return relabel(GADGETS["G18"]().graph, perm)


# few drawn subcubic graphs backtrack at all, and none up to n = 16 is
# Unsat; every relabeled G18 is refuted after about a hundred flips
@given(
    st.one_of(
        strategies.subcubic_graphs(max_n=16),
        st.permutations(range(18)).map(relabeled_g18),
    )
)
@PROPERTY
def test_every_undo_restores_the_state_of_its_choice(g):
    d, sat = solved(_UndoCheckedDpll, g)
    result = dpll_solve(g)
    assert (d.nodes, d.propagations) == (result.nodes, result.propagations)
    assert sat is (result.status is Status.SAT)
    if not sat:
        assert d.state() == d.root and not d.counted
    d.assert_logs_stay_linear()


def test_dpll_undo_logs_stay_linear_on_a_long_path():
    d, sat = solved(_LoggedDpll, path_graph(20_000))
    assert sat and (d.nodes, d.propagations) == (9_999, 10_001)
    d.assert_logs_stay_linear()
    # every clause of a satisfied formula is on the log, once
    assert sorted(d.satisfied) == list(range(len(d.clauses)))

"""Mutation checks: would the tests notice if a guarded line broke?

Each entry of MUTANTS is one exact edit of a file under src/ and the test
ids that must fail once it is made.  The script copies src/ to a temporary
directory, runs every named test there unedited (they must all pass, or a
failure would read as a kill), then, for each entry, applies its edit to a
fresh copy and runs

    python -m pytest -x -q -p no:cacheprovider <its test ids>

from the repository root with PYTHONPATH set to the copy.  WORKERS entries
are checked at once, each in its own copy, so at most that many pytest
runs are alive together.  A mutant is killed when its run fails, or when
it runs past TIMEOUT seconds: a mutant can make a search loop for ever.
The script prints one line per mutant, in MUTANTS order, with the seconds
its own check took, and exits 1 when a mutant survives, when an entry's
old text does not occur exactly once in its file, or when the unedited
run fails.  It changes no file in the tree.  Run it from anywhere:

    PYTHONPATH=src python tests/mutants.py

A change to a guarded line updates its entry in the same commit; an entry
is never deleted to make the script pass.

Equivalent mutants are left out, because no test can kill them:

* dropping ``touched.clear()`` from the undo in ``_Dpll.dfs``: the trail
  mark was taken right after a completed pass, so every stale candidate is
  assigned or not pure and the next pass skips it;
* resetting the decision pointer to 1 (``low, lit = 1, -lit`` in
  ``_Dpll.dfs``, ``low = 0`` in ``_GraphSearch.dfs``) instead of to the
  flipped choice's variable: every variable below it is still assigned, so
  the scan finds the same one, only later.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 30  # seconds; each entry's tests take about 2 s unedited
WORKERS = 2  # CI runners and the development box have two cores


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to src/
    old: str
    new: str
    tests: tuple[str, ...]


_DPLL_PINS = (
    "tests/test_cli.py::test_refutation_certificate_bytes",
    "tests/test_coloring.py::test_dpll_refutation_trees_of_relabeled_gadgets_are_pinned",
)
_CHECKED_DPLL = (
    "tests/test_coloring.py::test_no_free_variable_is_pure_after_a_pass_on_relabeled_gadgets",
)
_SEARCH_PINS = (
    "tests/test_coloring.py::test_census_search_trees_are_pinned",
    "tests/test_coloring.py::test_sat_search_trees_beyond_the_census_are_pinned",
)
_BATTERY_FAILS = (
    "tests/test_acceptance.py::test_each_graph_claim_fails_on_a_graph_one_edge_short",
)
_LEMMAS = (
    "tests/test_cli.py::test_lemmas_machine_output",
    "tests/test_lemmas.py",
)

MUTANTS = (
    Mutant(
        "dpll undo leaves n_free unrestored",
        "crumby/coloring.py",
        "                        n_free[ci] += 1\n",
        "                        pass\n",
        _CHECKED_DPLL,
    ),
    Mutant(
        "dpll undo leaves sat set",
        "crumby/coloring.py",
        "                        sat[ci] = 0\n",
        "                        pass\n",
        _CHECKED_DPLL,
    ),
    Mutant(
        "dpll leaves a lowered free count off the undo log",
        "crumby/coloring.py",
        "                    count(ci)\n",
        "                    pass\n",
        _CHECKED_DPLL,
    ),
    Mutant(
        "dpll decision pointer not reset after a backtrack",
        "crumby/coloring.py",
        "                low, lit = lit, -lit\n",
        "                lit = -lit\n",
        _DPLL_PINS,
    ),
    Mutant(
        "dpll retries a flipped choice True instead of False",
        "crumby/coloring.py",
        "                low, lit = lit, -lit\n",
        "                low = lit\n",
        ("tests/test_coloring.py::"
         "test_dpll_refutes_the_gadgets_within_their_natural_node_counts",)
        + _DPLL_PINS,
    ),
    Mutant(
        "backtracking decision pointer not reset after a backtrack",
        "crumby/coloring.py",
        "                low = v\n",
        "                pass\n",
        ("tests/test_cli.py::test_refutation_certificate_bytes",),
    ),
    Mutant(
        "(b) with a single unset neighbour forces nothing",
        "crumby/coloring.py",
        "                                if not red and unset == 1:\n"
        "                                    queue.append((last, red_))\n",
        "                                if not red and unset == 1:\n"
        "                                    pass\n",
        _SEARCH_PINS,
    ),
    Mutant(
        "the P4 rule forces its first vertex Blue",
        "crumby/coloring.py",
        "                                    x = a if not assign[a] else b if not assign[b] else d\n",
        "                                    x = a\n",
        _SEARCH_PINS,
    ),
    Mutant(
        "the direct verifier never walks the P4s",
        "crumby/coloring.py",
        "    for path in _walk_p4(rows):\n",
        "    for path in ():\n",
        (
            "tests/test_coloring.py::test_all_red_four_cycle_has_a_path_violation",
            "tests/test_acceptance.py::test_criterion_10b_verifier_pair_on_random_inputs",
        ),
    ),
    Mutant(
        "the P4 walk keeps Blue neighbours",
        "crumby/coloring.py",
        "            rows.append(())\n",
        "            rows.append(row)\n",
        (
            "tests/test_coloring.py::test_verifier_matches_naive_oracle",
            "tests/test_acceptance.py::test_criterion_10b_verifier_pair_on_random_inputs",
        ),
    ),
    Mutant(
        "C1: a Blue vertex may have two Blue neighbors",
        "crumby/coloring.py",
        "            bad |= blue[v] & two\n",
        "            pass\n",
        _LEMMAS,
    ),
    Mutant(
        "C2: boundary vertices are not exempt from Red support",
        "crumby/coloring.py",
        "            if v not in exempt:\n",
        "            if True:\n",
        _LEMMAS,
    ),
    Mutant(
        "C3: all-Red P4s are allowed",
        "crumby/coloring.py",
        "    paths = (*enumerate_p4(g), *extra)\n",
        "    paths = extra\n",
        _LEMMAS,
    ),
    Mutant(
        "C4: outside-red paths are allowed",
        "crumby/coloring.py",
        "    paths = (*enumerate_p4(g), *extra)\n",
        "    paths = tuple(enumerate_p4(g))\n",
        _LEMMAS,
    ),
    Mutant(
        "C4: paths from every boundary vertex are forbidden all-Red",
        "crumby/lemmas.py",
        "    extra = tuple(path for v in sorted(outside_red) for path in _paths_from(g, v))\n",
        "    extra = tuple(path for v in sorted(boundary) for path in _paths_from(g, v))\n",
        (
            "tests/test_lemmas.py::test_inside_red_path_is_fine_without_the_flag",
            "tests/test_lemmas.py::test_enumeration_matches_the_naive_oracle",
            "tests/test_lemmas.py::test_restrictions_of_crumby_colorings_are_feasible",
            "tests/test_lemmas.py::test_restrictions_of_crumby_colorings_of_r_are_feasible",
            "tests/test_lemmas.py::test_lemma1_ii_reports",
            "tests/test_lemmas.py::test_lemma2_reports",
        ),
    ),
    Mutant(
        "fixed vertices are not range-checked",
        "crumby/lemmas.py",
        '    for what, vertices in (("boundary", boundary), ("fixed", fixed)):\n',
        '    for what, vertices in (("boundary", boundary),):\n',
        ("tests/test_lemmas.py::test_spec_rejects_out_of_range_fixed_vertex",),
    ),
    Mutant(
        "the composition skips its layout check",
        "crumby/lemmas.py",
        "    laid_out = g18 == graph_from_edge_list(\n",
        "    laid_out = True or g18 == graph_from_edge_list(\n",
        ("tests/test_lemmas.py::test_composition_fails_on_a_relabeled_g18",),
    ),
    Mutant(
        "the sweep's chunks all start at mask 0",
        "crumby/coloring.py",
        "    for base in range(0, 1 << n, 1 << _CHUNK_BITS):\n",
        "    for base in (0 for _ in range(0, 1 << n, 1 << _CHUNK_BITS)):\n",
        ("tests/test_chunks.py::test_chunk_width_never_changes_the_large_sweeps",),
    ),
    Mutant(
        "a bit plane of the sweep swaps the colours",
        "crumby/coloring.py",
        "        plane, span = ((1 << half) - 1) << half, 2 * half\n",
        "        plane, span = (1 << half) - 1, 2 * half\n",
        ("tests/test_coloring.py::test_exhaustive_returns_lexicographically_least_coloring",),
    ),
    Mutant(
        "the canonical form keeps only the first of its tied states",
        "crumby/survey.py",
        "                    kept.add(tuple(refined))\n",
        "                    pass\n",
        ("tests/test_survey.py::test_least_mask_is_the_naive_orbit_minimum",),
    ),
    Mutant(
        "the census drops a child whose new vertex ties for least degree",
        "crumby/survey.py",
        "                        own < degree\n",
        "                        own <= degree\n",
        ("tests/test_survey.py::test_census_sizes",),
    ),
    Mutant(
        "the tie-break drops a child whose key equals the new vertex's",
        "crumby/survey.py",
        "                        and _neighbour_degrees(child, row) < key\n",
        "                        and _neighbour_degrees(child, row) <= key\n",
        ("tests/test_survey.py::test_census_sizes",),
    ),
    Mutant(
        "the survey's connected filter is dropped",
        "crumby/survey.py",
        "        if self.connected and not is_connected(g):\n",
        "        if False:\n",
        ("tests/test_survey.py::test_filters_drop_out_of_scope_graphs",),
    ),
    Mutant(
        "twin classes ignore adjacent twins",
        "crumby/graphs.py",
        "            if not (adj[u] ^ adj[bit.bit_length() - 1]) & ~(bit | 1 << u):\n",
        "            if not adj[u] ^ adj[bit.bit_length() - 1]:\n",
        # the census comes out the same, only through more children
        ("tests/test_survey.py::test_census_effort_is_pinned",),
    ),
    Mutant(
        "has_minor seeds ignore twin classes",
        "crumby/minorfree.py",
        "    cls = [next(c for c in twins if c >> v & 1) for v in range(k)]\n",
        "    cls = [1 << v for v in range(k)]\n",
        # 72 searches exhaust the budget, not 10, and witnesses differ
        ("tests/test_minorfree.py::test_minor_search_outcomes_are_pinned_on_the_census",),
    ),
    Mutant(
        "the tw2 recognizer offers again only at a step's first vertex",
        "crumby/minorfree.py",
        "            for v in mg.keys() & args:\n",
        "            for v in mg.keys() & args[:1]:\n",
        ("tests/test_minorfree.py::test_tw2_routes_are_pinned_on_the_census",),
    ),
    Mutant(
        "the P4 set is built before the P4 cap refuses it",
        "crumby/graphs.py",
        "    out = [len(row) - 1 for row in g.adj]  # d(v) - 1\n",
        "    built = list(_walk_p4(g.adj))\n"
        "    out = [len(row) - 1 for row in g.adj]  # d(v) - 1\n",
        # K62's P4s fit in the test's 1 GiB child, so only K150 kills this
        tuple(
            "tests/test_cli.py::test_dense_inputs_are_refused_before_their_p4s_are_built"
            f"[k150.txt-argv{i}]"
            for i in (3, 4, 5)
        ),
    ),
    Mutant(
        "encode_cnf builds family 1 past the cap",
        "crumby/coloring.py",
        "    if pairs > P4_CAP:\n",
        "    if False:\n",
        ("tests/test_cli.py::"
         "test_sparse_inputs_are_refused_before_their_tables_are_built[star-argv0]",),
    ),
    Mutant(
        "the minor-pattern cap refuses six vertices",
        "crumby/minorfree.py",
        "    if n > MINOR_PATTERN_CAP:\n",
        "    if n >= MINOR_PATTERN_CAP:\n",
        (
            "tests/test_minorfree.py::test_minor_pattern_cap",
            "tests/test_certs.py::test_minor_witness_pattern_cap",
        ),
    ),
    Mutant(
        "has_minor builds its bitsets past the cap",
        "crumby/minorfree.py",
        "    if bits > MINOR_HOST_BITS_CAP:\n",
        "    if False:\n",
        ("tests/test_minorfree.py::"
         "test_an_oversized_host_is_refused_before_its_bitsets_are_built",),
    ),
    Mutant(
        "the long-row reverse check reads the entry before its own",
        "crumby/graphs.py",
        "    return k < len(row) and row[k] == v\n",
        "    return k < len(row) and row[k - 1] == v\n",
        (
            "tests/test_graphs.py::test_long_rows_are_checked_exactly",
            "tests/test_graphs.py::test_direct_construction_names_each_fault",
        ),
    ),
    Mutant(
        "the reverse check skips its count of entries above the diagonal",
        "crumby/graphs.py",
        "    return 2 * lower == sum(map(len, adj))\n",
        "    return True\n",
        ("tests/test_graphs.py::test_direct_construction_names_each_fault",),
    ),
    Mutant(
        "find_elimination_order skips the fill edge",
        "crumby/minorfree.py",
        "            nbr[a].add(b)\n"
        "            nbr[b].add(a)\n",
        "            pass\n",
        (
            "tests/test_minorfree.py::test_tw2_routes_are_pinned_on_the_census",
            "tests/test_minorfree.py::test_find_order_matches_the_reference_on_small_graphs",
        ),
    ),
    Mutant(
        "the search's P4 table swaps two vertices of a row",
        "crumby/coloring.py",
        "                            at2.append((p1, p3, p4))\n",
        "                            at2.append((p3, p1, p4))\n",
        ("tests/test_coloring.py::"
         "test_the_search_p4_table_on_the_gadgets_and_past_the_census",),
    ),
    Mutant(
        "a `#` line is read as data",
        "crumby/graphs.py",
        '        if line and not line.startswith("#"):\n',
        "        if line:\n",
        (
            "tests/test_graphs.py::test_edge_list_text_allows_comments_and_blanks",
            "tests/test_certs.py::test_comments_and_blank_lines_are_ignored",
        ),
    ),
    Mutant(
        "an edge list's fault is reported as Graph finds it in the rows",
        "crumby/graphs.py",
        "        fault = _first_fault(n, edges)\n",
        "        fault = None\n",
        ("tests/test_graphs.py::"
         "test_edge_list_faults_are_named_as_the_reference_names_them",),
    ),
    Mutant(
        "graph6 slots are read row by row instead of column by column",
        "crumby/graphs.py",
        "        i, j = _G6_SLOTS[k]\n",
        "        i, j = [(a, b) for a in range(n) for b in range(a + 1, n)][k]\n",
        (
            "tests/test_graphs.py::test_graph6_decodes_as_the_bitmask_route",
            "tests/test_graphs.py::test_graph6_round_trip",
        ),
    ),
    Mutant(
        "an unsat claim of verify-paper always passes",
        "crumby/checks.py",
        "            result.status is Status.UNSAT,\n",
        "            True,\n",
        _BATTERY_FAILS,
    ),
    Mutant(
        "the deletion route of g40-biconnected deletes no vertex",
        "crumby/checks.py",
        "        if len(connected_components(g40, everyone - {v})) > 1\n",
        "        if len(connected_components(g40, everyone)) > 1\n",
        _BATTERY_FAILS,
    ),
    Mutant(
        "a certificate of another type is replayed for a claim",
        "crumby/cli.py",
        "    if kind not in kinds:\n",
        "    if False:\n",
        ("tests/test_cli.py::test_certificates_prove_only_their_own_claim",),
    ),
    Mutant(
        "verify skips its verifier cross-check",
        "crumby/cli.py",
        "    if ok != (first is None):\n",
        "    if False:\n",
        ("tests/test_cli.py::test_disagreeing_routes_are_an_error_not_an_answer",),
    ),
    Mutant(
        "an exhausted budget exits 1",
        "crumby/cli.py",
        '        print(f"indeterminate: {exc}", file=sys.stderr)\n'
        "        return EXIT_ERROR\n",
        '        print(f"indeterminate: {exc}", file=sys.stderr)\n'
        "        return EXIT_FAIL\n",
        ("tests/test_cli.py::test_budget_exhaustion_exit_code",),
    ),
    Mutant(
        "bad input exits 1",
        "crumby/cli.py",
        '        print(f"error: {exc}", file=sys.stderr)\n'
        "        return EXIT_ERROR\n",
        '        print(f"error: {exc}", file=sys.stderr)\n'
        "        return EXIT_FAIL\n",
        ("tests/test_cli.py::test_missing_file_is_an_error",),
    ),
    Mutant(
        "a crash exits 1",
        "crumby/cli.py",
        '        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)\n'
        "        return EXIT_ERROR\n",
        '        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)\n'
        "        return EXIT_FAIL\n",
        ("tests/test_cli.py::test_solver_crash_is_an_error_not_a_negative_answer",),
    ),
)


def copy_src(into: Path) -> Path:
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def run_tests(src: Path, tests: tuple[str, ...]) -> subprocess.CompletedProcess:
    """pytest on `tests` against the crumby in `src`; raises TimeoutExpired."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT,
    )


def check(mutant: Mutant) -> tuple[str, float]:
    """'killed', 'killed (timeout)', 'survived' or 'stale: ...', and the
    seconds the check took."""
    t0 = time.perf_counter()
    return _verdict(mutant), time.perf_counter() - t0


def _verdict(mutant: Mutant) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        src = copy_src(Path(tmp))
        path = src / mutant.file
        text = path.read_text()
        found = text.count(mutant.old)
        if found != 1:
            return f"stale: the old text occurs {found} times in {mutant.file}"
        path.write_text(text.replace(mutant.old, mutant.new))
        try:
            proc = run_tests(src, mutant.tests)
        except subprocess.TimeoutExpired:
            return "killed (timeout)"
    return "survived" if proc.returncode == 0 else "killed"


def main() -> int:
    tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    with tempfile.TemporaryDirectory() as tmp:
        proc = run_tests(copy_src(Path(tmp)), tests)
    if proc.returncode != 0:
        print("the named tests fail on the unedited tree:")
        print(proc.stdout[-4000:] + proc.stderr[-4000:])
        return 1
    bad = 0
    # each thread waits on one pytest child; map hands the verdicts back in
    # MUTANTS order, each as soon as it and every entry before it are done
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        for mutant, (verdict, seconds) in zip(MUTANTS, pool.map(check, MUTANTS)):
            bad += not verdict.startswith("killed")
            print(f"{verdict:<17} {seconds:5.1f} s  {mutant.name}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

"""Mutation checks: would the tests notice if a guarded line broke?

Each entry of MUTANTS is one exact edit of a file under src/ and the test
ids that must fail once it is made.  The script copies src/ to a temporary
directory, runs every named test there unedited (they must all pass, or a
failure would read as a kill), then, for each entry, applies its edit to a
fresh copy and runs

    python -m pytest -x -q -p no:cacheprovider <its test ids>

from the repository root with PYTHONPATH set to the copy.  A mutant is
killed when that run fails, or when it runs past TIMEOUT seconds: a
mutant can make a search loop for ever.  The script prints one line per
mutant and exits 1 when a mutant survives, when an entry's old text does
not occur exactly once in its file, or when the unedited run fails.  It
changes no file in the tree.  Run it from anywhere:

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
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 30  # seconds; each entry's tests take about 2 s unedited


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
_LEMMAS = (
    "tests/test_cli.py::test_lemmas_machine_output",
    "tests/test_lemmas.py",
)

MUTANTS = (
    Mutant(
        "dpll undo leaves n_free unrestored",
        "crumby/coloring.py",
        "                                n_free[ci] += 1\n",
        "                                pass\n",
        _CHECKED_DPLL,
    ),
    Mutant(
        "dpll undo leaves sat set",
        "crumby/coloring.py",
        "                                sat[ci] = 0\n",
        "                                pass\n",
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
        _DPLL_PINS,
    ),
    Mutant(
        "backtracking decision pointer not reset after a backtrack",
        "crumby/coloring.py",
        "                low = v\n",
        "                pass\n",
        ("tests/test_cli.py::test_refutation_certificate_bytes",),
    ),
    Mutant(
        "C1: a Blue vertex may have two Blue neighbors",
        "crumby/coloring.py",
        "            ok &= is_red | ((blue_nb & (blue_nb - 1)) == 0)",
        "            ok &= is_red | (blue_nb >= 0)",
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
        "the sweep's chunks all start at mask 0",
        "crumby/coloring.py",
        "        red = np.arange(part.start, part.stop, dtype=np.int32)\n",
        "        red = np.arange(part.stop - part.start, dtype=np.int32)\n",
        ("tests/test_chunks.py::test_chunk_width_never_changes_the_large_sweeps",),
    ),
    Mutant(
        "the census drops a coset representative",
        "crumby/survey.py",
        "    for j in range(k - 1, -1, -1):\n",
        "    for j in range(k - 1, 0, -1):\n",
        ("tests/test_survey.py::test_census_sizes",),
    ),
    Mutant(
        "the tw2 recognizer offers again only at a step's first vertex",
        "crumby/minorfree.py",
        "            for v in mg.keys() & args:\n",
        "            for v in mg.keys() & args[:1]:\n",
        ("tests/test_minorfree.py::test_tw2_routes_are_pinned_on_the_census",),
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


def check(mutant: Mutant) -> str:
    """'killed', 'killed (timeout)', 'survived' or 'stale: ...'."""
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
    for mutant in MUTANTS:
        t0 = time.perf_counter()
        verdict = check(mutant)
        bad += not verdict.startswith("killed")
        print(f"{verdict:<17} {time.perf_counter() - t0:5.1f} s  {mutant.name}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

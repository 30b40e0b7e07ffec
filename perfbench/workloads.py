"""The three workloads: one fixed batch each, timed per item and checked.

Each batch times with the clock it is given (``hostspeed.Probe.clock``,
which leaves out probe time).  Every call into the package goes through a
module attribute (``crumby.coloring.dpll_solve``, not a name bound at
import), so the tracer's wrappers see it.  A batch never raises: an
exception or a wrong answer is a failed item.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import crumby.checks
import crumby.coloring
import crumby.gadgets
import crumby.graphs
import crumby.survey

PAPER_CHECKS = 34
EXHAUSTIVE_MAX_N = 24


@dataclass
class Batch:
    wall_s: float
    items: list[tuple[float, float]]  # (start, end) clock() of each item
    attempted: int
    failed: int
    work: int  # numerator of items_per_s
    counts: dict = field(default_factory=dict)  # exact, must repeat run to run
    errors: list[str] = field(default_factory=list)


def paper_batch(_inputs, clock) -> Batch:
    """run_paper_checks(quick=False); a check ends when its result is built,
    so the gap between two CheckResult constructions times one check."""
    stamps: list[float] = []
    real = crumby.checks.CheckResult

    def stamped(*args, **kwargs):
        stamps.append(clock())
        return real(*args, **kwargs)

    crumby.checks.CheckResult = stamped
    try:
        t0 = clock()
        results = crumby.checks.run_paper_checks(quick=False)
        wall = clock() - t0
    except Exception as exc:  # a crash fails every check
        return Batch(clock() - t0, [], PAPER_CHECKS, PAPER_CHECKS, 0, errors=[repr(exc)])
    finally:
        crumby.checks.CheckResult = real
    bad = [r.name for r in results if not r.ok]
    failed = len(bad) + max(0, PAPER_CHECKS - len(results))
    items = list(zip([t0] + stamps, stamps))
    return Batch(
        wall, items, PAPER_CHECKS, failed, len(results),
        counts={"checks": [(r.name, r.ok) for r in results]},
        errors=[f"check not ok: {name}" for name in bad],
    )


def survey_batch(corpus, clock) -> Batch:
    """survey_stream over the corpus; the gap between two pulls from the
    input iterator is the time spent on the earlier line."""
    stamps: list[float] = []

    def feed():
        for line in corpus.lines:
            stamps.append(clock())
            yield line

    attempted = len(corpus.lines)
    t0 = clock()
    try:
        report = crumby.survey.survey_stream(feed())
    except Exception as exc:
        return Batch(clock() - t0, [], attempted, attempted, attempted, errors=[repr(exc)])
    end = clock()
    stamps.append(end)
    items = list(zip(stamps, stamps[1:]))
    expected = {row[0]: row for row in corpus.per_n}
    got = {row[0]: row for row in report.per_n}
    failed = 0
    errors = []
    for n in sorted(set(expected) | set(got)):
        e, g = expected.get(n, (n, 0, 0, 0)), got.get(n, (n, 0, 0, 0))
        wrong = abs(e[2] - g[2]) + abs(e[3] - g[3])
        if wrong or e[1] != g[1]:
            failed += max(wrong, abs(e[1] - g[1]))
            errors.append(f"n={n}: expected {e[1:]} got {g[1:]}")
    if tuple(report.unsat_graph6) != corpus.unsat:
        failed += 1
        errors.append("unsat instance list differs from the planted one")
    for what, want, have in (
        ("filtered_out", corpus.filtered_out, report.filtered_out),
        ("skipped", corpus.skipped, len(report.skipped)),
    ):
        if want != have:
            failed += abs(want - have)
            errors.append(f"{what}: planted {want}, reported {have}")
    return Batch(
        end - t0, items, attempted, min(failed, attempted), attempted,
        counts={
            "tested": report.tested,
            "filtered_out": report.filtered_out,
            "skipped": len(report.skipped),
            "per_n": [list(row) for row in report.per_n],
        },
        errors=errors,
    )


def certify_batch(lines, clock) -> Batch:
    """Refute each instance with backtracking and DPLL, and exhaustively when
    n <= 24; every instance is G18 or G40 relabeled, so all must be unsat."""
    items, per_instance, errors = [], [], []
    failed = decisions = 0
    t0 = clock()
    for line in lines:
        start = clock()
        try:
            g = crumby.graphs.parse_graph6(line)
            runs = [crumby.coloring.backtracking_solve(g), crumby.coloring.dpll_solve(g)]
            if g.n <= EXHAUSTIVE_MAX_N:
                runs.append(crumby.coloring.exhaustive_solve(g))
        except Exception as exc:
            items.append((start, clock()))
            failed += 1
            errors.append(f"{line}: {exc!r}")
            continue
        items.append((start, clock()))
        if any(r.status is not crumby.coloring.Status.UNSAT for r in runs):
            failed += 1
            errors.append(f"{line}: not refuted by {[r.solver for r in runs]}")
        decisions += runs[0].nodes + runs[1].nodes
        per_instance.append([(r.solver, r.nodes, r.propagations) for r in runs])
    return Batch(
        clock() - t0, items, len(lines), failed, decisions,
        counts={"instances": per_instance},
        errors=errors,
    )


BATCHES = {"paper": paper_batch, "survey": survey_batch, "certify": certify_batch}


# natural labels, from ROADMAP's measured baseline of the unmodified seed code
NATURAL_BASELINE = {
    "backtracking_solve(G40).nodes": 31174,
    "dpll_solve(G40).nodes": 5234,
    "exhaustive_solve(G18).nodes": 262144,
}


def natural_counts() -> dict[str, int]:
    g18 = crumby.gadgets.build_G18().graph
    g40 = crumby.gadgets.build_G40().graph
    return {
        "backtracking_solve(G40).nodes": crumby.coloring.backtracking_solve(g40).nodes,
        "dpll_solve(G40).nodes": crumby.coloring.dpll_solve(g40).nodes,
        "exhaustive_solve(G18).nodes": crumby.coloring.exhaustive_solve(g18).nodes,
    }

"""Command-line front door.

Exit codes are a stable contract across all subcommands:

  0  Sat / check passed
  1  Unsat / check failed (an answer, not an error)
  2  error, refused input, indeterminate (budget ran out), or a crash

`search` exits 2 when no line of its stream is a graph6 graph (every line
skipped, or no line at all): a stream that decided nothing is bad input.  It
also exits 2, after its report, when a cap refused a line or the budget ran
out on one: a graph left undecided is not a pass.
Every other subcommand reads one graph, so a graph6 file with a second graph
line is refused (exit 2) rather than read up to its first.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from contextlib import nullcontext
from itertools import islice
from pathlib import Path

from .certs import (
    certificate_kind,
    emit_elimination_order,
    emit_minor_witness,
    emit_reduction_trace,
    parse_certificate,
    validate_certificate,
)
from .coloring import (
    Coloring,
    Status,
    backtracking_solve,
    dpll_solve,
    emit_solve_certificate,
    encode_cnf,
    emit_dimacs,
    exhaustive_solve,
    verify_crumby_by_components,
    violations,
)
from .errors import BudgetExhausted, CertificateError, CrossCheckError
from .gadgets import GADGETS
from .graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cut_vertices,
    emit_dot,
    emit_edge_list,
    emit_graph6,
    is_biconnected,
    is_bipartite,
    parse_edge_list,
    parse_graph6,
)
from .lemmas import all_lemma_reports, richness_witness
from .minorfree import find_elimination_order, has_minor, recognize_tw2
from .survey import SurveyFilters, generate_small, survey_stream

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2
VERIFY_LISTED = 1000  # violation lines `verify` prints at most


def load_graph(spec: str) -> Graph:
    """A bundled gadget name, or a path to an edge-list / graph6 file."""
    if spec in GADGETS:
        return GADGETS[spec]().graph
    path = Path(spec)
    if not path.exists():
        raise ValueError(f"{spec!r} is neither a bundled gadget nor a file")
    text = path.read_text()
    data = (
        s for s in (line.strip() for line in text.splitlines())
        if s and not s.startswith("#")
    )
    first = next(data, None)
    if first is None:
        raise ValueError(f"{spec}: no graph data in file")
    tokens = first.split()
    if len(tokens) >= 2 and all(t.isdigit() for t in tokens[:2]):
        return parse_edge_list(text)
    if next(data, None) is not None:
        raise ValueError(
            f"{spec}: more than one graph6 line; this command reads one graph"
            " (survey a stream of graphs with `crumby search`)"
        )
    return parse_graph6(first)


def _load_pattern(spec: str) -> Graph:
    if spec == "K4":
        return complete_graph(4)
    if spec == "K23":
        return complete_bipartite(2, 3)
    return load_graph(spec)


def _read_text(spec: str) -> str:
    if spec == "-":
        return sys.stdin.read()
    return Path(spec).read_text()


def _emit(g: Graph, fmt: str, labels: dict[int, str]) -> str:
    if fmt == "edgelist":
        return emit_edge_list(g)
    if fmt == "graph6":
        return emit_graph6(g) + "\n"
    return emit_dot(g, labels=labels)


def _check_certificate(
    g: Graph, path: str, kinds: tuple[str, ...], pattern: Graph | None = None
) -> int:
    """Validate a certificate file against g instead of searching.  Only the
    given kinds prove the subcommand's claim, and a minor witness proves it
    only for the pattern asked about (when one is given)."""
    cert = parse_certificate(_read_text(path))
    kind = certificate_kind(cert)
    if kind not in kinds:
        raise CertificateError(
            f"a {kind} certificate does not prove this claim;"
            f" expected {' or '.join(kinds)}"
        )
    if pattern is not None and cert[0] != pattern:
        raise CertificateError("the minor witness is for a different pattern")
    ok, detail = validate_certificate(g, cert)
    print(f"certificate: {'valid' if ok else 'invalid'} ({detail})")
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_gadget(args) -> int:
    lg = GADGETS[args.name]()
    sys.stdout.write(_emit(lg.graph, args.format, labels=lg.role_labels))
    return EXIT_PASS


def cmd_solve(args) -> int:
    g = load_graph(args.graph)
    if args.method == "exhaustive":
        result = exhaustive_solve(g)
    elif args.method == "dpll":
        result = dpll_solve(g, budget=args.budget)
    else:
        result = backtracking_solve(g, budget=args.budget)
    sys.stdout.write(emit_solve_certificate(result))
    return EXIT_PASS if result.status is Status.SAT else EXIT_FAIL


def cmd_verify(args) -> int:
    g = load_graph(args.graph)
    c = Coloring.from_text(_read_text(args.coloring))
    ok = verify_crumby_by_components(g, c)
    found = list(islice(violations(g, c.red_set()), VERIFY_LISTED + 1))
    if ok != (not found):
        raise CrossCheckError(
            "the direct verifier and the component verifier disagree"
        )
    print(f"crumby: {'yes' if ok else 'no'}")
    for violation in found[:VERIFY_LISTED]:
        print(f"violation: {violation.describe()}")
    if len(found) > VERIFY_LISTED:
        print(f"violations: listing stopped after {VERIFY_LISTED}")
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_cnf(args) -> int:
    g = load_graph(args.graph)
    text = emit_dimacs(encode_cnf(g))
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_PASS


def cmd_check_tw2(args) -> int:
    g = load_graph(args.graph)
    if args.certificate:
        return _check_certificate(
            g, args.certificate, ("elimination-order", "reduction-trace")
        )
    accepted, trace = recognize_tw2(g)
    order = find_elimination_order(g)
    if accepted != (order is not None):
        raise CrossCheckError(
            "reduction recognizer and greedy elimination disagree"
        )
    # emit flags write a clean certificate document to stdout
    if args.emit_trace:
        sys.stdout.write(emit_reduction_trace(g.n, trace))
    elif args.emit_order and order is not None:
        sys.stdout.write(emit_elimination_order(order))
    else:
        print(f"treewidth-at-most-2: {'yes' if accepted else 'no'}")
    return EXIT_PASS if accepted else EXIT_FAIL


def cmd_check_biconnected(args) -> int:
    g = load_graph(args.graph)
    if args.certificate:
        return _check_certificate(g, args.certificate, ("ear-decomposition",))
    ok = is_biconnected(g)
    print(f"biconnected: {'yes' if ok else 'no'}")
    if not ok:
        cuts = cut_vertices(g)
        if cuts:
            print("cut-vertices: " + " ".join(map(str, cuts)))
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_check_bipartite(args) -> int:
    g = load_graph(args.graph)
    ok, witness = is_bipartite(g)
    print(f"bipartite: {'yes' if ok else 'no'}")
    if not ok:
        print("odd-cycle: " + " ".join(map(str, witness)))
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_check_minor(args) -> int:
    g = load_graph(args.graph)
    if args.certificate:
        pattern = _load_pattern(args.pattern) if args.pattern else None
        return _check_certificate(g, args.certificate, ("minor-witness",), pattern)
    pattern = _load_pattern(args.pattern or "K4")
    found, witness = has_minor(g, pattern, budget=args.budget)
    if witness is not None:
        sys.stdout.write(emit_minor_witness(pattern, witness))
    else:
        print("minor: no")
    return EXIT_PASS if found else EXIT_FAIL


def cmd_lemmas(args) -> int:
    reports = all_lemma_reports()
    rg = GADGETS["R"]()
    s = rg.roles()["s"]
    for report in reports:
        rows = []
        for c in report.colorings if args.verbose else ():
            row = c.to_text()
            if report.lemma == "2":
                path = richness_witness(rg.graph, c, s)
                row += "  red-path " + ("-".join(map(str, path)) if path else "none")
            rows.append(row)
        if args.machine:
            print("\n".join(report.machine_lines() + [f"coloring={row}" for row in rows]))
            print()
        else:
            print(report.human())
            for row in rows:
                print(f"  {row}")
    return EXIT_PASS if all(r.passed for r in reports) else EXIT_FAIL


def cmd_search(args) -> int:
    if args.generate is not None and args.input is not None:
        raise ValueError("give either an input file or --generate, not both")
    filters = SurveyFilters(
        connected=not args.no_connected,
        subcubic=not args.no_subcubic,
        tw2=not args.no_tw2,
        biconnected=args.biconnected,
    )
    # a file or stdin is read one line at a time, never whole
    if args.generate is not None:
        source = nullcontext(generate_small(args.generate))
    elif args.input in (None, "-"):
        source = nullcontext(sys.stdin)
    else:
        source = open(args.input)
    with source as lines:
        report = survey_stream(lines, filters, budget=args.budget)
    print("\n".join(report.text_lines()))
    if args.report:
        Path(args.report).write_text("\n".join(report.machine_lines()) + "\n")
    # a refused or undecided graph is not a pass, whatever the rest says
    for lineno, reason in report.refused:
        print(f"error: line {lineno} refused: {reason}", file=sys.stderr)
    if report.undecided:
        print(
            f"indeterminate: the budget ran out on {len(report.undecided)} graphs",
            file=sys.stderr,
        )
    if report.refused or report.undecided:
        return EXIT_ERROR
    if report.tested + report.filtered_out == 0:
        print("error: no line of the stream is a graph6 graph", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_PASS


def cmd_verify_paper(args) -> int:
    from .checks import run_paper_checks

    results = run_paper_checks(quick=args.quick)
    failures = 0
    for result in results:
        mark = "PASS" if result.ok else "FAIL"
        print(f"{mark} [{result.section}] {result.name}: {result.detail}")
        failures += 0 if result.ok else 1
    total = len(results)
    print(f"{total - failures}/{total} checks passed")
    return EXIT_PASS if failures == 0 else EXIT_FAIL


def budget(text: str) -> int:
    """The type of every --budget option: a node limit of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be at least 0")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crumby",
        description=(
            "Decide crumby colorability, certify the bundled counterexample"
            " graphs, and re-verify their supporting claims."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gadget", help="emit a bundled gadget graph")
    p.add_argument("name", choices=sorted(GADGETS))
    p.add_argument(
        "--format", choices=("edgelist", "graph6", "dot"), default="edgelist"
    )
    p.set_defaults(func=cmd_gadget)

    p = sub.add_parser("solve", help="decide crumby colorability")
    p.add_argument("graph")
    p.add_argument(
        "--method",
        choices=("backtracking", "dpll", "exhaustive"),
        default="backtracking",
    )
    p.add_argument("--budget", type=budget, default=None, help="node limit")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a coloring file against a graph")
    p.add_argument("graph")
    p.add_argument("coloring", help="file of R/B tokens, or - for stdin")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("cnf", help="emit the DIMACS encoding")
    p.add_argument("graph")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_cnf)

    p = sub.add_parser("check-tw2", help="decide or re-validate treewidth <= 2")
    p.add_argument("graph")
    p.add_argument("--certificate", default=None,
                   help="validate this certificate file instead of searching")
    emit = p.add_mutually_exclusive_group()
    emit.add_argument("--emit-trace", action="store_true")
    emit.add_argument("--emit-order", action="store_true")
    p.set_defaults(func=cmd_check_tw2)

    p = sub.add_parser("check-biconnected", help="decide or re-validate 2-connectivity")
    p.add_argument("graph")
    p.add_argument("--certificate", default=None,
                   help="validate an ear-decomposition certificate")
    p.set_defaults(func=cmd_check_biconnected)

    p = sub.add_parser("check-bipartite", help="2-color or report an odd cycle")
    p.add_argument("graph")
    p.set_defaults(func=cmd_check_bipartite)

    p = sub.add_parser("check-minor", help="search or re-validate a minor")
    p.add_argument("graph")
    p.add_argument("--pattern", default=None,
                   help="K4, K23, or a graph file (default: K4 for a search,"
                        " the certificate's own pattern with --certificate)")
    p.add_argument("--budget", type=budget, default=None)
    p.add_argument("--certificate", default=None,
                   help="validate a minor-witness certificate")
    p.set_defaults(func=cmd_check_minor)

    p = sub.add_parser("lemmas", help="run the gadget lemma enumerations")
    p.add_argument("--machine", action="store_true",
                   help="line-oriented key=value output")
    p.add_argument("--verbose", action="store_true",
                   help="list every feasible coloring, with richness witnesses"
                        " for lemma 2")
    p.set_defaults(func=cmd_lemmas)

    p = sub.add_parser("search", help="survey a graph6 stream")
    p.add_argument("input", nargs="?", default=None,
                   help="graph6 file, or - for stdin (the default)")
    p.add_argument("--generate", type=int, default=None, metavar="N",
                   help="survey the built-in census of connected graphs on N<=7 vertices")
    p.add_argument("--no-connected", action="store_true")
    p.add_argument("--no-subcubic", action="store_true")
    p.add_argument("--no-tw2", action="store_true")
    p.add_argument("--biconnected", action="store_true")
    p.add_argument("--budget", type=budget, default=None)
    p.add_argument("--report", default=None,
                   help="also write a machine-readable summary file")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser(
        "verify-paper",
        help="run every bundled claim and regression check",
    )
    p.add_argument("--quick", action="store_true",
                   help="skip one check, g18-unsat-exhaustive (the 2^18 sweep)")
    p.set_defaults(func=cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExhausted as exc:
        print(f"indeterminate: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, OSError, CrossCheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # a crash is never a negative answer
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

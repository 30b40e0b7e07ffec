from __future__ import annotations

import hashlib
import io
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import crumby
from crumby import (
    Coloring,
    EarDecomposition,
    build_F,
    build_G18,
    build_G40,
    complete_bipartite,
    complete_graph,
    connected_components,
    emit_edge_list,
    emit_graph6,
    find_elimination_order,
    generate_small,
    graph_from_edge_list,
    has_minor,
    recognize_tw2,
    verify_crumby,
)
from crumby.certs import (
    emit_ear_decomposition,
    emit_elimination_order,
    emit_minor_witness,
    emit_reduction_trace,
)
from crumby.checks import CheckResult
from crumby.cli import main
from crumby.gadgets import G40_EAR_CYCLE, G40_EARS
from tests import oracles


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_k2(tmp_path):
    target = tmp_path / "k2.txt"
    target.write_text("2 1\n0 1\n")
    return str(target)


# -- graph loading and gadget emission ----------------------------------------


def test_gadget_edge_list(capsys):
    code, out, _ = run(capsys, "gadget", "F")
    assert code == 0
    assert out.splitlines()[0] == "9 11"


def test_gadget_graph6_round_trips(capsys):
    code, out, _ = run(capsys, "gadget", "G18", "--format", "graph6")
    assert code == 0
    assert out.strip() == emit_graph6(build_G18().graph)


def _child_env() -> dict[str, str]:
    """The environment for a child interpreter that imports this crumby."""
    env = dict(os.environ)
    src = str(Path(crumby.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


# a child interpreter that runs the CLI in 1 GiB of address space
_CAPPED_CLI = (
    "import resource, sys\nfrom crumby.cli import main\n"
    "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "crumby", "gadget", "G18", "--format", "graph6"],
        capture_output=True, text=True, env=_child_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == emit_graph6(build_G18().graph)


# a child interpreter that runs two CLI calls that need no numpy kernel,
# then one that does, and prints whether numpy was loaded after each
_NUMPY_PROBE = (
    "import contextlib, io, sys\nimport crumby\nfrom crumby.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    codes = main(['solve', 'G18']), main(['check-tw2', 'G40'])\n"
    "print(*codes, 'numpy' in sys.modules)\n"
    "crumby.count_crumby(crumby.graph_from_edge_list(3, [(0, 1), (1, 2), (0, 2)]))\n"
    "print('numpy' in sys.modules)\n"
)


def test_numpy_loads_only_when_a_kernel_runs():
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE],
        capture_output=True, text=True, env=_child_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["1 0 False", "True"]


def test_gadget_dot_labels_roles(capsys):
    code, out, _ = run(capsys, "gadget", "F", "--format", "dot")
    assert code == 0 and 'label="x"' in out


def test_unknown_gadget_is_an_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["gadget", "nope"])
    assert info.value.code == 2
    assert "nope" in capsys.readouterr().err


def test_graph_files_load_in_both_formats(tmp_path, capsys):
    g6 = tmp_path / "k2.g6"
    g6.write_text(emit_graph6(build_F().graph) + "\n")
    code, out, _ = run(capsys, "solve", str(g6))
    assert code == 0
    code2, out2, _ = run(capsys, "solve", write_k2(tmp_path))
    assert code2 == 0


@pytest.mark.parametrize("command", ["solve", "check-tw2"])
def test_a_graph6_file_with_two_graphs_is_refused(tmp_path, capsys, command):
    # G18, then K2: reading only the first line would answer for G18 alone
    g6 = tmp_path / "two.g6"
    g6.write_text(emit_graph6(build_G18().graph) + "\nA_\n")
    code, out, err = run(capsys, command, str(g6))
    assert code == 2 and out == ""
    assert "more than one graph6 line" in err and "crumby search" in err


def test_missing_file_is_an_error(capsys):
    code, _, err = run(capsys, "solve", "/nonexistent/graph.txt")
    assert code == 2 and err


# -- solving and verification --------------------------------------------------


def test_solve_sat_prints_a_checked_certificate(tmp_path, capsys):
    code, out, _ = run(capsys, "solve", write_k2(tmp_path))
    assert code == 0
    assert "status: sat" in out
    coloring_line = [l for l in out.splitlines() if l.startswith("coloring:")][0]
    assert coloring_line.split(": ")[1] == "R R"


def test_solve_unsat_exit_code(capsys):
    code, out, _ = run(capsys, "solve", "G18")
    assert code == 1
    assert "status: unsat" in out


@pytest.mark.parametrize("method", ["backtracking", "dpll", "exhaustive"])
def test_every_method_solves_the_f_gadget(capsys, method):
    code, out, _ = run(capsys, "solve", "F", "--method", method)
    assert code == 0
    assert f"solver: {method}" in out


def test_exhaustive_refuses_large_graphs(tmp_path, capsys):
    big = tmp_path / "big.txt"
    edges = "\n".join(f"{i} {i + 1}" for i in range(29))
    big.write_text(f"30 29\n{edges}\n")
    code, _, err = run(capsys, "solve", str(big), "--method", "exhaustive")
    assert code == 2 and "capped" in err


def test_budget_exhaustion_exit_code(capsys):
    code, _, err = run(capsys, "solve", "G40", "--budget", "10")
    assert code == 2 and "budget" in err


@pytest.mark.parametrize(
    "command",
    [["solve", "G40"], ["check-minor", "G40"], ["search"]],
    ids=["solve", "check-minor", "search"],
)
def test_negative_budgets_are_refused(capsys, command):
    with pytest.raises(SystemExit) as info:
        main([*command, "--budget", "-1"])
    captured = capsys.readouterr()
    assert info.value.code == 2 and captured.out == ""
    assert "error: argument --budget: must be at least 0" in captured.err


def test_a_zero_budget_is_valid_and_runs_out_at_once(capsys):
    code, out, err = run(capsys, "solve", "G40", "--budget", "0")
    assert code == 2 and out == ""
    assert err == "indeterminate: backtracking budget of 0 nodes exhausted\n"


@pytest.mark.parametrize(
    "name, method, nodes, propagations",
    [
        ("G18", "backtracking", 218, 240),
        ("G18", "dpll", 122, 214),
        ("G40", "backtracking", 31174, 30632),
        ("G40", "dpll", 5234, 10064),
    ],
)
def test_refutation_certificate_bytes(capsys, name, method, nodes, propagations):
    code, out, _ = run(capsys, "solve", name, "--method", method)
    assert code == 1
    assert out == (
        f"status: unsat\nsolver: {method}\n"
        f"nodes: {nodes}\npropagations: {propagations}\n"
    )


@pytest.mark.parametrize(
    "name, method, nodes, propagations, coloring",
    [
        ("F", "backtracking", 4, 5, "R R R B B R R R B"),
        ("F", "dpll", 4, 5, "R R R B B R R R B"),
        ("R", "backtracking", 21, 20, "R R B R R B R R B R R"),
        ("R", "dpll", 17, 23, "R R B R R B R R B R R"),
    ],
)
def test_sat_certificate_bytes(capsys, name, method, nodes, propagations, coloring):
    code, out, _ = run(capsys, "solve", name, "--method", method)
    assert code == 0
    assert out == (
        f"status: sat\nsolver: {method}\n"
        f"nodes: {nodes}\npropagations: {propagations}\ncoloring: {coloring}\n"
    )


def test_solver_crash_is_an_error_not_a_negative_answer(capsys, monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("crumby.cli.backtracking_solve", crash)
    code, out, err = run(capsys, "solve", "F")
    assert code == 2 and out == ""
    assert "internal error" in err and "boom" in err


@pytest.mark.parametrize("method", ["backtracking", "dpll"])
def test_deep_search_never_reads_as_unsat(tmp_path, capsys, method):
    path = tmp_path / "p3000.txt"
    edges = "\n".join(f"{i} {i + 1}" for i in range(2999))
    path.write_text(f"3000 2999\n{edges}\n")
    code, out, _ = run(capsys, "solve", str(path), "--method", method)
    assert code == 0 and out.startswith("status: sat")


def test_verify_accepts_a_solver_answer(tmp_path, capsys):
    graph = write_k2(tmp_path)
    coloring = tmp_path / "c.txt"
    coloring.write_text("R R\n")
    code, out, _ = run(capsys, "verify", graph, str(coloring))
    assert code == 0 and "crumby: yes" in out


def test_verify_lists_violations(tmp_path, capsys):
    graph = write_k2(tmp_path)
    coloring = tmp_path / "c.txt"
    coloring.write_text("R B\n")
    code, out, _ = run(capsys, "verify", graph, str(coloring))
    assert code == 1
    assert "no red neighbor" in out


def test_verify_lists_at_most_a_thousand_violations(tmp_path):
    """An all-red K62 has 6.7 million all-red P4s.  The child caps its own
    address space at 1 GiB, so listing them all fails this test."""
    graph = tmp_path / "k62.g6"
    graph.write_text(emit_graph6(complete_graph(62)) + "\n")
    coloring = tmp_path / "red.txt"
    coloring.write_text(" ".join("R" * 62) + "\n")
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_CLI, "verify", str(graph), str(coloring)],
        capture_output=True, text=True, env=_child_env(), timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "crumby: no"
    assert sum(line.startswith("violation: ") for line in lines) == 1000
    assert lines[-1] == "violations: listing stopped after 1000"


def test_every_parser_refuses_mutants_cleanly():
    """Seeded mutants of every input format and certificate kind either parse
    or are refused as bad input; see tests/parser_fuzz.py, which caps its own
    address space at 1 GiB."""
    script = Path(__file__).with_name("parser_fuzz.py")
    proc = subprocess.run(
        [sys.executable, str(script), "3000"],
        capture_output=True, text=True, env=_child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]


def test_cnf_writes_dimacs(tmp_path, capsys):
    out_file = tmp_path / "f.cnf"
    code, _, _ = run(capsys, "cnf", write_k2(tmp_path), "-o", str(out_file))
    assert code == 0
    assert out_file.read_text().startswith("p cnf 2 2\n")


# -- structure subcommands -----------------------------------------------------


def test_check_tw2_emits_and_revalidates(tmp_path, capsys):
    code, out, _ = run(capsys, "check-tw2", "G40", "--emit-trace")
    assert code == 0
    cert = tmp_path / "trace.txt"
    cert.write_text(out)
    code2, out2, _ = run(capsys, "check-tw2", "G40", "--certificate", str(cert))
    assert code2 == 0 and "valid" in out2


def test_check_tw2_trace_bytes(capsys):
    code, out, _ = run(capsys, "check-tw2", "F", "--emit-trace")
    assert code == 0
    assert out == (
        "type: reduction-trace\n"
        "n: 9\n"
        "step: suppress 0 1 2\n"
        "step: suppress 1 2 3\n"
        "step: suppress 2 3 4\n"
        "step: merge-parallel 3 4\n"
        "step: suppress 3 4 5\n"
        "step: suppress 4 5 6\n"
        "step: suppress 7 5 6\n"
        "step: merge-parallel 5 6\n"
        "step: suppress 5 6 8\n"
        "step: merge-parallel 6 8\n"
        "step: delete-leaf 6 8\n"
        "step: delete-isolated 8\n"
    )


def test_check_tw2_decides_a_long_ladder(tmp_path, capsys, ladder):
    target = tmp_path / "ladder.txt"
    target.write_text(emit_edge_list(ladder))
    code, out, _ = run(capsys, "check-tw2", str(target))
    assert code == 0 and out == "treewidth-at-most-2: yes\n"


def test_check_tw2_emits_one_certificate_at_a_time(capsys):
    with pytest.raises(SystemExit) as info:
        main(["check-tw2", "G40", "--emit-trace", "--emit-order"])
    captured = capsys.readouterr()
    assert info.value.code == 2 and captured.out == ""
    assert "not allowed with argument" in captured.err


def test_check_tw2_rejects_k4(tmp_path, capsys):
    k4 = tmp_path / "k4.txt"
    k4.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out, _ = run(capsys, "check-tw2", str(k4))
    assert code == 1 and "no" in out


def test_check_tw2_rejects_foreign_certificates(tmp_path, capsys):
    code, out, _ = run(capsys, "check-tw2", "G18", "--emit-order")
    cert = tmp_path / "order.txt"
    cert.write_text(out)
    code2, out2, _ = run(capsys, "check-tw2", "G40", "--certificate", str(cert))
    assert code2 == 1
    # G18's own trace, stated for another vertex count
    cert.write_text(emit_reduction_trace(5, recognize_tw2(build_G18().graph)[1]))
    code3, out3, _ = run(capsys, "check-tw2", "G18", "--certificate", str(cert))
    assert code3 == 1 and out3.startswith("certificate: invalid")


def test_check_biconnected(capsys):
    assert run(capsys, "check-biconnected", "G40")[0] == 0
    code, out, _ = run(capsys, "check-biconnected", "G18")
    assert code == 1 and "cut-vertices: 0 9" in out


def test_check_bipartite_reports_odd_cycles(capsys):
    code, out, _ = run(capsys, "check-bipartite", "G18")
    assert code == 1 and "odd-cycle: 4 2 0 1 3" in out


def test_check_minor_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "check-minor", "F", "--pattern", "K23")
    assert code == 0 and out.startswith("type: minor-witness")
    cert = tmp_path / "witness.txt"
    cert.write_text(out)
    code2, out2, _ = run(capsys, "check-minor", "F", "--certificate", str(cert))
    assert code2 == 0 and "valid" in out2


@pytest.mark.parametrize("pattern_n", ["7", "3000000", "10000000000005"])
def test_check_minor_refuses_an_oversized_pattern_before_allocating(tmp_path, pattern_n):
    """The child caps its own address space at 1 GiB after its imports, so a
    pattern-n that sizes an allocation fails this test, not the suite."""
    cert = tmp_path / "big.witness"
    cert.write_text(
        f"type: minor-witness\npattern-n: {pattern_n}\npattern-edges: 0-1\n"
        "branch-0: 0\nbranch-1: 1\n"
    )
    argv = ["check-minor", "F", "--certificate", str(cert)]
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_CLI, *argv],
        capture_output=True, text=True, env=_child_env(), timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert f"capped at 6 vertices, got {pattern_n}" in proc.stderr
    assert "internal error" not in proc.stderr


_DENSE_FILES = {
    "k62.g6": lambda: emit_graph6(complete_graph(62)) + "\n",
    "k150.txt": lambda: emit_edge_list(complete_graph(150)),
}


@pytest.mark.parametrize(
    "name, argv",
    [
        (name, argv)
        for name in _DENSE_FILES
        for argv in (["solve"], ["solve", "--method", "dpll"], ["cnf"])
    ]
    + [("k62.g6", ["search", "--no-subcubic", "--no-tw2"])],
)
def test_dense_inputs_are_refused_before_their_p4s_are_built(tmp_path, name, argv):
    """K62 and K150 have 6.7 and 243 million P4s.  The child caps its own
    address space at 1 GiB, so building them fails this test instead of
    exiting 2 with the cap message."""
    graph = tmp_path / name
    graph.write_text(_DENSE_FILES[name]())
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_CLI, argv[0], str(graph), *argv[1:]],
        capture_output=True, text=True, env=_child_env(), timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert "capped at 1000000 P4s" in proc.stderr
    assert "internal error" not in proc.stderr
    if argv[0] == "search":  # the survey names the refused line in its report
        assert "total tested=0" in proc.stdout
        assert "refused line 1: " in proc.stdout
        assert "capped at 1000000 P4s" in proc.stdout
    else:
        assert proc.stdout == ""


def test_search_reports_a_refused_line_and_goes_on(tmp_path, capsys):
    stream = tmp_path / "stream.g6"
    census = generate_small(3)  # the path and the triangle, both sat
    k62 = emit_graph6(complete_graph(62))
    stream.write_text(f"{census[0]}\n{k62}\n{census[1]}\n")
    report = tmp_path / "report.txt"
    code, out, err = run(
        capsys, "search", str(stream), "--no-subcubic", "--no-tw2",
        "--report", str(report),
    )
    assert code == 2
    assert "total tested=2 sat=2 unsat=0 filtered-out=0 skipped=0" in out
    refused = [line for line in out.splitlines() if line.startswith("refused")]
    assert len(refused) == 1 and refused[0].startswith("refused line 2: ")
    assert "capped at 1000000 P4s" in refused[0]
    assert "error: line 2 refused: " in err and "capped at 1000000 P4s" in err
    assert "refused_line=2 reason=" in report.read_text()


def test_check_minor_absence(capsys):
    code, out, _ = run(capsys, "check-minor", "R", "--pattern", "K4")
    assert code == 1 and "minor: no" in out


def test_check_minor_witness_bytes(capsys):
    code, out, _ = run(capsys, "check-minor", "F", "--pattern", "K23")
    assert code == 0
    assert out == (
        "type: minor-witness\n"
        "pattern-n: 5\n"
        "pattern-edges: 0-2 0-3 0-4 1-2 1-3 1-4\n"
        "branch-0: 0 2 4 6\n"
        "branch-1: 3 5\n"
        "branch-2: 1\n"
        "branch-3: 7\n"
        "branch-4: 8\n"
    )


def test_check_minor_on_a_long_cycle_is_indeterminate(tmp_path, capsys):
    cycle = tmp_path / "cycle.txt"
    edges = [(v, (v + 1) % 1500) for v in range(1500)]
    cycle.write_text(emit_edge_list(graph_from_edge_list(1500, edges)))
    code, _, err = run(capsys, "check-minor", str(cycle), "--budget", "5000")
    assert code == 2 and "indeterminate" in err
    assert "internal error" not in err


K23 = complete_bipartite(2, 3)

# each certificate is valid for its own graph; only its own claim accepts it
CERTIFICATES = {
    "elimination-order": ("G18", lambda: emit_elimination_order(
        find_elimination_order(build_G18().graph))),
    "reduction-trace": ("G40", lambda: emit_reduction_trace(
        40, recognize_tw2(build_G40().graph)[1])),
    "minor-witness": ("F", lambda: emit_minor_witness(
        K23, has_minor(build_F().graph, K23)[1])),
    "ear-decomposition": ("G40", lambda: emit_ear_decomposition(
        EarDecomposition(G40_EAR_CYCLE, G40_EARS))),
}
ACCEPTS = {
    "check-tw2": ("elimination-order", "reduction-trace"),
    "check-biconnected": ("ear-decomposition",),
    "check-minor": ("minor-witness",),
}


@pytest.mark.parametrize(
    "command,kind,extra",
    [pytest.param(c, k, (), id=f"{c}-{k}")
     for c in ACCEPTS for k in CERTIFICATES if k not in ACCEPTS[c]]
    + [pytest.param("check-minor", "minor-witness", ("--pattern", "K4"),
                    id="check-minor-other-pattern")],
)
def test_certificates_prove_only_their_own_claim(
    tmp_path, capsys, command, kind, extra
):
    graph, emit = CERTIFICATES[kind]
    cert = tmp_path / "cert.txt"
    cert.write_text(emit())
    code, out, err = run(capsys, command, graph, *extra, "--certificate", str(cert))
    assert code == 2 and out == ""
    assert ("different pattern" if extra else f"a {kind} certificate") in err


def test_each_claim_accepts_its_own_certificates(tmp_path, capsys):
    cert = tmp_path / "cert.txt"
    for command, kinds in ACCEPTS.items():
        for kind in kinds:
            graph, emit = CERTIFICATES[kind]
            cert.write_text(emit())
            code, out, _ = run(capsys, command, graph, "--certificate", str(cert))
            assert code == 0 and "certificate: valid" in out
    cert.write_text(CERTIFICATES["minor-witness"][1]())
    code, out, _ = run(
        capsys, "check-minor", "F", "--pattern", "K23", "--certificate", str(cert)
    )
    assert code == 0 and "certificate: valid" in out


def test_elim_order_success_and_failure(tmp_path, capsys):
    code, out, _ = run(capsys, "check-tw2", "G18", "--emit-order")
    assert code == 0 and out.startswith("type: elimination-order")
    k4 = tmp_path / "k4.txt"
    k4.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    assert run(capsys, "check-tw2", str(k4), "--emit-order")[0] == 1


# -- reporting subcommands -----------------------------------------------------


def test_lemmas_machine_output(capsys):
    code, out, _ = run(capsys, "lemmas", "--machine")
    assert code == 0
    assert "lemma=1(i)" in out
    assert out.count("pass=true") == 9


def test_lemmas_human_output(capsys):
    code, out, _ = run(capsys, "lemmas")
    assert code == 0 and "feasible" in out


def test_lemmas_verbose_lists_every_feasible_coloring(capsys):
    code, out, _ = run(capsys, "lemmas", "--verbose")
    assert code == 0
    rows = [line.split() for line in out.splitlines() if line.startswith("  ")]
    # 4 + 4 + 10 + 4 + 10 + 4 + 8 + 0; the composition report keeps none
    assert len(rows) == 44
    assert rows[0] == "B R B B R B R R R".split()
    rich = [row for row in rows if "red-path" in row]
    assert len(rich) == 8
    assert rich[0][-2:] == ["red-path", "0-2-4"]
    code, out, _ = run(capsys, "lemmas", "--machine", "--verbose")
    records = [block.splitlines() for block in out.strip().split("\n\n")]
    assert code == 0 and len(records) == 9
    assert sum(line.startswith("coloring=") for r in records for line in r) == 44


def test_search_generate(capsys):
    code, out, _ = run(capsys, "search", "--generate", "5")
    assert code == 0
    assert "total tested=9 sat=9 unsat=0" in out


@pytest.mark.parametrize(
    "flags, filters, total, unsat",
    [
        ((), "connected,subcubic,tw2", "tested=23 sat=23 unsat=0 filtered-out=89", ()),
        (("--biconnected",), "connected,subcubic,tw2,biconnected",
         "tested=5 sat=5 unsat=0 filtered-out=107", ()),
        (("--no-tw2",), "connected,subcubic",
         "tested=29 sat=28 unsat=1 filtered-out=83", ("ELv_",)),
        (("--no-subcubic",), "connected,tw2",
         "tested=56 sat=56 unsat=0 filtered-out=56", ()),
        (("--no-connected",), "subcubic,tw2",
         "tested=23 sat=23 unsat=0 filtered-out=89", ()),
        (("--no-subcubic", "--no-tw2"), "connected",
         "tested=112 sat=106 unsat=6 filtered-out=0",
         ("ELv_", "Ef~_", "E]~o", "E}~o", "E~~o", "E~~w")),
    ],
    ids=["default", "biconnected", "no-tw2", "no-subcubic", "no-connected",
         "no-subcubic-no-tw2"],
)
def test_search_filter_flags(capsys, flags, filters, total, unsat):
    code, out, _ = run(capsys, "search", "--generate", "6", *flags)
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == f"filters: {filters}"
    assert f"total {total} skipped=0" in lines
    found = [line for line in lines if line.startswith("unsat-instance:")]
    assert found == [f"unsat-instance: {g6}" for g6 in unsat]


@pytest.mark.parametrize("n", ["0", "-2"])
def test_search_refuses_a_generate_order_below_one(capsys, n):
    code, out, err = run(capsys, "search", "--generate", n)
    assert code == 2 and out == ""
    assert "at least 1 vertex" in err


def test_search_report_file(tmp_path, capsys):
    report = tmp_path / "report.txt"
    code, _, _ = run(capsys, "search", "--generate", "4", "--report", str(report))
    assert code == 0
    assert "tested=" in report.read_text()


def test_search_reads_stdin_stream(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(emit_graph6(build_G18().graph) + "\n"))
    code, out, _ = run(capsys, "search")
    assert code == 0
    assert "unsat=1" in out


class _LinesOnly(io.StringIO):
    """A stdin that can only be iterated: read() fails the test."""

    def read(self, *args):
        raise AssertionError("the stream was read whole")


@pytest.mark.parametrize("argv", [["search"], ["search", "-"]])
def test_search_streams_stdin_line_by_line(capsys, monkeypatch, argv):
    g18_line = emit_graph6(build_G18().graph)
    monkeypatch.setattr("sys.stdin", _LinesOnly(f"A_\n{g18_line}\n"))
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert "total tested=2 sat=1 unsat=1" in out


def test_search_of_a_stream_with_no_graph6_line_exits_2(tmp_path, capsys, monkeypatch):
    code, out, err = run(capsys, "search", write_k2(tmp_path))
    assert code == 2 and "total tested=0" in out and "skipped=2" in out
    assert "error: no line of the stream is a graph6 graph" in err
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    code, out, err = run(capsys, "search")
    assert code == 2 and "skipped=0" in out
    assert "error: no line of the stream is a graph6 graph" in err


def test_search_of_a_stream_with_one_graph6_line_exits_0(tmp_path, capsys):
    stream = tmp_path / "stream.g6"
    stream.write_text("A_\nB\n")  # K2, then a line one byte short
    code, out, err = run(capsys, "search", str(stream))
    assert code == 0 and err == ""
    assert "total tested=1 sat=1" in out and "skipped=1" in out
    stream.write_text("C~\n")  # K4, which the tw2 filter drops
    code, out, err = run(capsys, "search", str(stream))
    assert code == 0 and "filtered-out=1" in out


def test_search_budget_keeps_the_report_and_exits_2(tmp_path, capsys):
    stream = tmp_path / "stream.g6"
    g18_line = emit_graph6(build_G18().graph)
    stream.write_text(f"A_\n{g18_line}\n")  # K2, then G18
    code, out, err = run(capsys, "search", str(stream), "--budget", "1")
    assert code == 2 and "indeterminate" in err
    assert "total tested=1 sat=1" in out and f"undecided line 2: {g18_line}" in out


def test_verify_paper_formats_check_lines(capsys, monkeypatch):
    fake = [
        CheckResult("claims", "demo-pass", True, "ok"),
        CheckResult("regressions", "demo-fail", False, "bad"),
    ]
    monkeypatch.setattr("crumby.checks.run_paper_checks", lambda quick=False: fake)
    code, out, _ = run(capsys, "verify-paper", "--quick")
    assert code == 1
    assert "PASS [claims] demo-pass" in out
    assert "FAIL [regressions] demo-fail: bad" in out
    assert "1/2 checks passed" in out


# sha256 of `gadget NAME --format edgelist`, then graph6, then dot stdout,
# concatenated; G40 and G40-sp print the same graph with the same labels
GADGET_STDOUT_SHA256 = {
    "F": "e87f4c36bb33383f99f0e0e6a23316eddf6f3779094aa42c56b2a2cf85acdc10",
    "R": "4763b4130ac0aba53d742206a065650e49dc1800490cf5af07680bd18b6d655c",
    "G18": "2a5e34550d263ac38e0b926443c880ab835be35905e82e70528316d96ca6f55d",
    "G40": "ccfc9db3ff6bf47e91149fe4260ac140b1f1a1e5cbb989173853099971fdcfef",
    "G40-sp": "ccfc9db3ff6bf47e91149fe4260ac140b1f1a1e5cbb989173853099971fdcfef",
}


@pytest.mark.parametrize(
    "commands, digest",
    [
        ([["verify-paper", "--quick"]],
         "0feb3a8ffdc88599b8f47d2afba9212dd0ce40d29ead4aeccbd4917822534c1a"),
        ([["lemmas", "--machine", "--verbose"]],
         "76bbe214a88f968ecc1b22fb8ccce8ca101485abeecf7410f6325b981b07d01f"),
    ] + [
        ([["gadget", name, "--format", fmt] for fmt in ("edgelist", "graph6", "dot")],
         digest)
        for name, digest in GADGET_STDOUT_SHA256.items()
    ],
    ids=["verify-paper-quick", "lemmas-machine-verbose"]
    + [f"gadget-{name}" for name in GADGET_STDOUT_SHA256],
)
def test_stdout_is_pinned(capsys, commands, digest):
    out = ""
    for argv in commands:
        code, text, _ = run(capsys, *argv)
        assert code == 0
        out += text
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# -- the exit-code contract against independent answers ---------------------------


def _contract_graphs(seed: int, count: int):
    """Seeded random graphs on 1..9 vertices, of every density."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 9)
        p = rng.random()
        yield graph_from_edge_list(
            n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
        )


def test_exit_codes_match_independent_answers(tmp_path, capsys):
    """0 and 1 are answers: each must match a naive oracle or the route the
    README pairs with the command; 2 must never occur on valid input."""
    rng = random.Random(22)
    graph, coloring = tmp_path / "g.g6", tmp_path / "c.txt"
    seen = set()
    for g in _contract_graphs(22, 60):
        graph.write_text(emit_graph6(g) + "\n")
        crumby_colorings = oracles.naive_crumby_colorings(g)
        if crumby_colorings and rng.random() < 0.5:
            c = rng.choice(crumby_colorings)
        else:
            c = Coloring.from_red_set(g.n, {v for v in range(g.n) if rng.random() < 0.5})
        coloring.write_text(c.to_text() + "\n")
        connected = len(connected_components(g)) == 1
        expected = {
            ("solve", "--method", "backtracking"): bool(crumby_colorings),
            ("solve", "--method", "dpll"): bool(crumby_colorings),
            ("solve", "--method", "exhaustive"): bool(crumby_colorings),
            ("verify", str(coloring)): oracles.naive_is_crumby(g, c),
            ("check-tw2",): not has_minor(g, complete_graph(4))[0],
            ("check-biconnected",): (
                g.n >= 3 and connected and not oracles.naive_cut_vertices(g)
            ),
            ("check-bipartite",): oracles.naive_is_bipartite(g),
            ("check-minor", "--pattern", "K4"): find_elimination_order(g) is None,
            ("check-minor", "--pattern", "K23"): oracles.naive_has_k23_minor(g),
        }
        for (command, *rest), answer in expected.items():
            code, _, err = run(capsys, command, str(graph), *rest)
            assert code != 2, (command, emit_graph6(g), err)
            assert code == (0 if answer else 1), (command, rest, emit_graph6(g))
            seen.add((command, *rest[:2], code))
    # both answers of every command were exercised
    assert len(seen) == 2 * len(expected), sorted(seen)

from __future__ import annotations

import pytest

from crumby import (
    Coloring,
    EarDecomposition,
    build_F,
    build_G18,
    build_G40,
    complete_bipartite,
    emit_edge_list,
    emit_graph6,
    find_elimination_order,
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


def test_search_report_file(tmp_path, capsys):
    report = tmp_path / "report.txt"
    code, _, _ = run(capsys, "search", "--generate", "4", "--report", str(report))
    assert code == 0
    assert "tested=" in report.read_text()


def test_search_reads_stdin_stream(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(emit_graph6(build_G18().graph) + "\n"))
    code, out, _ = run(capsys, "search")
    assert code == 0
    assert "unsat=1" in out


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

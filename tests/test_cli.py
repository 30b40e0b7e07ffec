from __future__ import annotations

import pytest

from crumby import Coloring, build_F, build_G18, emit_edge_list, emit_graph6, verify_crumby
from crumby.checks import CheckResult
from crumby.cli import main


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


def test_solver_flags_must_match_the_method(capsys):
    code, _, err = run(capsys, "solve", "F", "--method", "exhaustive", "--no-propagation")
    assert code == 2 and "backtracking" in err


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

from __future__ import annotations

import pytest

from crumby import (
    CertificateError,
    complete_bipartite,
    complete_graph,
    find_elimination_order,
    has_minor,
    recognize_tw2,
)
from crumby.certs import (
    emit_elimination_order,
    emit_minor_witness,
    emit_reduction_trace,
    parse_certificate,
    validate_certificate,
)


def test_elimination_order_round_trip(g18):
    order = find_elimination_order(g18.graph)
    kind, parsed = parse_certificate(emit_elimination_order(order))
    assert kind == "elimination-order"
    assert parsed == order
    ok, detail = validate_certificate(g18.graph, (kind, parsed))
    assert ok and detail.startswith("width=")


def test_elimination_order_fails_on_the_wrong_graph(g18):
    order = find_elimination_order(g18.graph)
    ok, detail = validate_certificate(complete_graph(4), ("elimination-order", order))
    assert not ok


def test_reduction_trace_round_trip(g40):
    accepted, trace = recognize_tw2(g40.graph)
    assert accepted
    text = emit_reduction_trace(g40.graph.n, trace)
    parsed = parse_certificate(text)
    assert parsed == ("reduction-trace", (g40.graph.n, trace))
    ok, detail = validate_certificate(g40.graph, parsed)
    assert ok, detail


def test_reduction_trace_detects_tampering(g18):
    _, trace = recognize_tw2(g18.graph)
    text = emit_reduction_trace(g18.graph.n, trace)
    tampered = text.replace(trace[0][0], "delete-isolated", 1)
    ok, detail = validate_certificate(g18.graph, parse_certificate(tampered))
    assert not ok
    # the same steps, stated for another vertex count
    wrong_n = parse_certificate(emit_reduction_trace(5, trace))
    assert validate_certificate(g18.graph, wrong_n) == (
        False, "certificate is for n=5, the graph has 18 vertices"
    )


def test_minor_witness_round_trip(f_gadget):
    pattern = complete_bipartite(2, 3)
    found, witness = has_minor(f_gadget.graph, pattern)
    assert found
    text = emit_minor_witness(pattern, witness)
    parsed = parse_certificate(text)
    kind, (parsed_pattern, parsed_witness) = parsed
    assert kind == "minor-witness"
    assert parsed_pattern == pattern
    assert parsed_witness == witness
    ok, detail = validate_certificate(f_gadget.graph, parsed)
    assert ok, detail


def test_minor_witness_validation_fails_on_k4(f_gadget):
    bogus = (
        "minor-witness",
        (complete_graph(4), (frozenset({0}), frozenset({1}), frozenset({2}), frozenset({3}))),
    )
    ok, detail = validate_certificate(f_gadget.graph, bogus)
    assert not ok and "edge" in detail


def test_comments_and_blank_lines_are_ignored(g18):
    order = find_elimination_order(g18.graph)
    text = "# produced for a regression test\n\n" + emit_elimination_order(order)
    assert parse_certificate(text) == ("elimination-order", order)


# a well-formed K2 witness that the cases below extend
WITNESS = "type: minor-witness\npattern-n: 2\npattern-edges: 0-1\nbranch-0: 0\nbranch-1: 1\n"


def test_parse_diagnostics():
    cases = [
        ("", "empty"),
        ("type: nonsense\n", "unknown certificate type"),
        ("n: 3\ntype: elimination-order\n", "first entry"),
        ("type: elimination-order\nn: 2\norder: 0 zero\n", "invalid literal"),
        ("type: elimination-order\nn: 2\n", "exactly"),
        ("type: minor-witness\npattern-n: 2\npattern-edges: 0-1-2\n", "edge"),
        # a document that could be read two ways is refused
        ("type: elimination-order\nn: 2\norder: 0 1\nn: 3\norder: 0 1 2\n", "repeated key 'n'"),
        ("type: elimination-order\nn: 2\norder: 0 1\nwidth: 1\n", "unexpected key 'width'"),
        ("type: reduction-trace\nn: 2\nn: 3\n", "repeated key 'n'"),
        ("type: reduction-trace\nn: 2\ntype: minor-witness\n", "unexpected key 'type'"),
        (f"{WITNESS}branch-0: 1\n", "repeated key 'branch-0'"),
        (f"{WITNESS}branch-7: 2\n", "unexpected key 'branch-7'"),
        (f"{WITNESS}colour: red\n", "unexpected key 'colour'"),
        ("type: minor-witness\npattern-n: 2\npattern-edges: 0-1\nbranch-0: 0\n", "missing branch-1"),
    ]
    for text, fragment in cases:
        with pytest.raises(CertificateError, match=fragment):
            parse_certificate(text)


def test_entries_require_key_value_shape():
    with pytest.raises(CertificateError):
        parse_certificate("type elimination-order\n")

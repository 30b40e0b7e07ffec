"""Plain-text certificate documents and their re-validation.

Each certificate is a small "key: value" document ('#' comments and blank
lines allowed) whose first entry is its type.  Validation replays the
certificate against a graph without re-running any search:

  elimination-order   width of the given order is at most 2
  reduction-trace     the graph has the stated n, and the given rule
                      applications empty its workspace
  minor-witness       branch sets model the given pattern
  ear-decomposition   cycle plus open ears cover the graph exactly
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CertificateError, GraphError
from .graphs import EarDecomposition, Graph, graph_from_edge_list, verify_ear_decomposition
from .minorfree import (
    EliminationOrder,
    MinorWitness,
    ReductionStep,
    elimination_width,
    replay_reduction_trace,
    verify_minor_witness,
)


@dataclass(frozen=True)
class ReductionTrace:
    """A parsed reduction-trace document: the vertex count it is for and
    its rule applications in order."""

    n: int
    steps: tuple[ReductionStep, ...]


Certificate = (
    EliminationOrder
    | ReductionTrace
    | tuple[Graph, MinorWitness]
    | EarDecomposition
)


def emit_elimination_order(order: EliminationOrder) -> str:
    lines = [
        "type: elimination-order",
        f"n: {len(order.order)}",
        "order: " + " ".join(map(str, order.order)),
    ]
    return "\n".join(lines) + "\n"


def emit_reduction_trace(n: int, trace: list[ReductionStep]) -> str:
    lines = ["type: reduction-trace", f"n: {n}"]
    for step in trace:
        lines.append(f"step: {step.rule} " + " ".join(map(str, step.args)))
    return "\n".join(lines) + "\n"


def emit_minor_witness(pattern: Graph, witness: MinorWitness) -> str:
    lines = [
        "type: minor-witness",
        f"pattern-n: {pattern.n}",
        "pattern-edges: " + " ".join(f"{u}-{v}" for u, v in pattern.edges()),
    ]
    for i, branch in enumerate(witness.branch_sets):
        lines.append(f"branch-{i}: " + " ".join(map(str, sorted(branch))))
    return "\n".join(lines) + "\n"


def emit_ear_decomposition(d: EarDecomposition) -> str:
    lines = [
        "type: ear-decomposition",
        "cycle: " + " ".join(map(str, d.initial_cycle)),
    ]
    for ear in d.ears:
        lines.append("ear: " + " ".join(map(str, ear)))
    return "\n".join(lines) + "\n"


def _entries(text: str) -> list[tuple[str, str]]:
    entries = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise CertificateError(f"line {lineno}: expected 'key: value'")
        key, _, value = line.partition(":")
        entries.append((key.strip(), value.strip()))
    if not entries:
        raise CertificateError("empty certificate")
    return entries


def _ints(value: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in value.split()]
    except ValueError as exc:
        raise CertificateError(f"{what}: {exc}") from None


def _int(value: str, what: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise CertificateError(f"{what}: {exc}") from None


# per type: the keys a document needs exactly once, and the one key that may
# repeat; a minor witness also needs branch-0 .. branch-(pattern-n - 1)
_KEYS = {
    "elimination-order": (("n", "order"), None),
    "reduction-trace": (("n",), "step"),
    "minor-witness": (("pattern-n", "pattern-edges"), None),
    "ear-decomposition": (("cycle",), "ear"),
}


def _fields(
    kind: str, body: list[tuple[str, str]]
) -> tuple[dict[str, str], list[str]]:
    """The once-only entries of a `kind` document by key, and the values of
    its repeating key in order.  A missing, unknown or repeated once-only
    key raises CertificateError, so no document reads two ways."""
    once, repeating = _KEYS[kind]
    fields: dict[str, str] = {}
    values = []
    for key, value in body:
        if key == repeating:
            values.append(value)
        elif key in fields:
            raise CertificateError(f"repeated key {key!r} in {kind}")
        elif key in once or (kind == "minor-witness" and key.startswith("branch-")):
            fields[key] = value
        else:
            raise CertificateError(f"unexpected key {key!r} in {kind}")
    if not all(key in fields for key in once):
        raise CertificateError(f"{kind} needs exactly one {' and one '.join(once)}")
    return fields, values


def parse_certificate(text: str) -> Certificate:
    """Parse any certificate document; the type line picks the shape."""
    entries = _entries(text)
    key, kind = entries[0]
    if key != "type":
        raise CertificateError("first entry must be 'type'")
    if kind not in _KEYS:
        raise CertificateError(f"unknown certificate type {kind!r}")
    fields, values = _fields(kind, entries[1:])
    if kind == "elimination-order":
        order = _ints(fields["order"], "order")
        if len(order) != _int(fields["n"], "n"):
            raise CertificateError("order length disagrees with n")
        return EliminationOrder(tuple(order))
    if kind == "reduction-trace":
        trace = []
        for value in values:
            rule, _, args = value.partition(" ")
            trace.append(ReductionStep(rule, tuple(_ints(args, "step"))))
        return ReductionTrace(_int(fields["n"], "n"), tuple(trace))
    if kind == "ear-decomposition":
        ears = tuple(tuple(_ints(value, "ear")) for value in values)
        return EarDecomposition(tuple(_ints(fields["cycle"], "cycle")), ears)
    pn = _int(fields["pattern-n"], "pattern-n")
    edges = []
    for tok in fields["pattern-edges"].split():
        u, sep, v = tok.partition("-")
        if not sep:
            raise CertificateError(f"pattern edge {tok!r} must look like u-v")
        edges.append((_int(u, "pattern-edges"), _int(v, "pattern-edges")))
    try:
        pattern = graph_from_edge_list(pn, edges)
    except GraphError as exc:
        raise CertificateError(f"pattern: {exc}") from None
    branch_keys = [f"branch-{i}" for i in range(pn)]
    stray = set(fields) - {"pattern-n", "pattern-edges", *branch_keys}
    if stray:
        raise CertificateError(f"unexpected key {min(stray)!r} in minor-witness")
    branches = []
    for key in branch_keys:
        if key not in fields:
            raise CertificateError(f"minor-witness is missing {key}")
        branches.append(frozenset(_ints(fields[key], key)))
    return pattern, MinorWitness(tuple(branches))


def certificate_kind(cert: Certificate) -> str:
    """The type line of the document that parse_certificate read cert from."""
    if isinstance(cert, EliminationOrder):
        return "elimination-order"
    if isinstance(cert, EarDecomposition):
        return "ear-decomposition"
    return "reduction-trace" if isinstance(cert, ReductionTrace) else "minor-witness"


def validate_certificate(g: Graph, cert: Certificate) -> tuple[bool, str]:
    """Replay a parsed certificate against g; returns (ok, detail)."""
    if isinstance(cert, EliminationOrder):
        try:
            width = elimination_width(g, cert)
        except ValueError as exc:
            return False, str(exc)
        return width <= 2, f"width={width}"
    if isinstance(cert, EarDecomposition):
        ok, reason = verify_ear_decomposition(g, cert)
        return ok, reason or "open ear decomposition covers the graph"
    if isinstance(cert, ReductionTrace):
        if cert.n != g.n:
            return False, f"certificate is for n={cert.n}, the graph has {g.n} vertices"
        ok, reason = replay_reduction_trace(g, list(cert.steps))
        return ok, reason or f"workspace emptied in {len(cert.steps)} steps"
    pattern, witness = cert
    ok, reason = verify_minor_witness(g, pattern, witness)
    return ok, reason or "branch sets model the pattern"

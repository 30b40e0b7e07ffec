"""Plain-text certificate documents and their re-validation.

Each certificate is a small "key: value" document ('#' comments and blank
lines allowed) whose first entry is its type.  Validation replays the
certificate against a graph without re-running any search:

  elimination-order   width of the given order is at most 2
  reduction-trace     the graph has the stated n, and the given rule
                      applications empty its workspace
  minor-witness       branch sets model the given pattern
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import CertificateError, GraphError
from .graphs import Graph, _data_lines, graph_from_edge_list
from .minorfree import (
    _check_pattern_cap,
    elimination_width,
    replay_reduction_trace,
    verify_minor_witness,
)


def emit_elimination_order(order: Sequence[int]) -> str:
    lines = [
        "type: elimination-order",
        f"n: {len(order)}",
        "order: " + " ".join(map(str, order)),
    ]
    return "\n".join(lines) + "\n"


def emit_reduction_trace(n: int, trace: list[tuple[str, tuple[int, ...]]]) -> str:
    lines = ["type: reduction-trace", f"n: {n}"]
    for rule, args in trace:
        lines.append(f"step: {rule} " + " ".join(map(str, args)))
    return "\n".join(lines) + "\n"


def emit_minor_witness(pattern: Graph, branch_sets: Sequence[frozenset[int]]) -> str:
    lines = [
        "type: minor-witness",
        f"pattern-n: {pattern.n}",
        "pattern-edges: " + " ".join(f"{u}-{v}" for u, v in pattern.edges()),
    ]
    for i, branch in enumerate(branch_sets):
        lines.append(f"branch-{i}: " + " ".join(map(str, sorted(branch))))
    return "\n".join(lines) + "\n"


def _entries(text: str) -> list[tuple[str, str]]:
    entries = []
    for lineno, line in _data_lines(text):
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


def parse_certificate(text: str) -> tuple[str, object]:
    """Parse any certificate document into (type, body).  The type line picks
    the body: a vertex tuple, (n, [(rule, args), ...]) or (pattern, branch
    sets)."""
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
        return kind, tuple(order)
    if kind == "reduction-trace":
        trace = []
        for value in values:
            rule, _, args = value.partition(" ")
            trace.append((rule, tuple(_ints(args, "step"))))
        return kind, (_int(fields["n"], "n"), trace)
    pn = _int(fields["pattern-n"], "pattern-n")
    _check_pattern_cap(pn)  # refused before anything is sized by it
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
    return kind, (pattern, tuple(branches))


def validate_certificate(g: Graph, cert: tuple[str, object]) -> tuple[bool, str]:
    """Replay a parsed (type, body) certificate against g; returns (ok, detail)."""
    kind, body = cert
    if kind == "elimination-order":
        try:
            width = elimination_width(g, body)
        except ValueError as exc:
            return False, str(exc)
        return width <= 2, f"width={width}"
    if kind == "reduction-trace":
        n, steps = body
        if n != g.n:
            return False, f"certificate is for n={n}, the graph has {g.n} vertices"
        ok, reason = replay_reduction_trace(g, steps)
        return ok, reason or f"workspace emptied in {len(steps)} steps"
    pattern, branch_sets = body
    ok, reason = verify_minor_witness(g, pattern, branch_sets)
    return ok, reason or "branch sets model the pattern"

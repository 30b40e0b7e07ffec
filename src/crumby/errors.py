"""Shared exception types.

Everything that refuses an input raises a ValueError subclass with a message
naming the offending piece; budget exhaustion is a RuntimeError subclass so
that callers can tell "indeterminate" apart from an ordinary wrong answer.
"""

from __future__ import annotations


class GraphError(ValueError):
    """Malformed graph data: self-loops, duplicate edges, bad indices."""


class Graph6Error(ValueError):
    """Malformed or unsupported graph6 text."""


class ExpansionError(ValueError):
    """A series-parallel expression does not expand to a simple graph."""


class BoundarySpecError(ValueError):
    """A boundary or fixed vertex out of range, or an outside-red flag off
    the boundary."""


class CapExceeded(ValueError):
    """Input exceeds a documented hard size cap; never silently sampled."""


class BudgetExhausted(RuntimeError):
    """Search ran out of its node budget before reaching an answer.

    Distinct from Unsat / False: the question stays undecided.
    """

    def __init__(self, message: str, nodes: int) -> None:
        super().__init__(message)
        self.nodes = nodes


class CrossCheckError(RuntimeError):
    """Two independent decision procedures disagreed. Fatal."""


class CertificateError(ValueError):
    """Certificate document cannot be parsed."""

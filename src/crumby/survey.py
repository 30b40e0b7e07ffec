"""Survey graph6 streams for crumby colorability.

The harness filters a stream (connectivity, max degree 3, treewidth <= 2,
optionally 2-connectivity), decides every surviving graph with the
backtracking solver, and re-confirms every Unsat with DPLL and, when the
graph is small enough, the exhaustive oracle.  Any disagreement between the
decision procedures is a fatal CrossCheckError, never a report entry.

generate_small provides a self-contained census of all connected graphs on
at most 7 vertices up to isomorphism, for tests and desk-scale runs: it grows
the graphs one vertex at a time and names each by its least edge mask over
all relabellings, found by partition refinement in the manner of McKay and
Piperno (J. Symb. Comput. 60, 2014).  Larger surveys are expected to pipe in
external generator output.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

from .coloring import (
    EXHAUSTIVE_CAP,
    Status,
    backtracking_solve,
    dpll_solve,
    exhaustive_solve,
)
from .errors import BudgetExhausted, CapExceeded, CrossCheckError, Graph6Error
from .graphs import (
    _G6_SLOTS,
    Graph,
    _graph6_of_mask,
    _twin_classes,
    is_biconnected,
    is_connected,
    parse_graph6,
)
from .minorfree import find_elimination_order

GENERATE_CAP = 7


# -- built-in census -------------------------------------------------------------


def _least_mask(n: int, adj: Sequence[int]) -> int:
    """The least edge mask of the graph over all n! relabellings.

    adj[v] is v's neighbour bitset.  Column b of a mask, the edges (a, b)
    with a < b, outweighs every lower column, so labels are handed out from
    n - 1 down.  A state is a tuple of cells, vertex bitsets that each own an
    interval of the unassigned labels, lowest interval first.  Label b goes
    to a vertex v of the last cell, and splitting every cell into v's
    neighbours (on the low labels) and the rest fixes column b at its least
    value for that v, whatever the later choices.  Only the states whose
    columns so far are least survive, and equal states merge in a set.  Once
    the cells are singletons the same step still applies: each state then
    has one pick per level, and refining leaves its cells as they are.
    """
    mask = 0
    states = {((1 << n) - 1,)}
    for b in range(n - 1, 0, -1):
        least, kept = None, set()
        for *rest, last in states:
            pick = last
            while pick:
                bit = pick & -pick
                pick ^= bit
                near = adj[bit.bit_length() - 1]
                column = low = 0
                refined = []
                for cell in (*rest, last ^ bit):
                    inside = cell & near
                    if inside:
                        refined.append(inside)
                        column |= ((1 << inside.bit_count()) - 1) << low
                    if inside != cell:
                        refined.append(cell ^ inside)
                    low += cell.bit_count()
                if least is None or column < least:
                    least, kept = column, {tuple(refined)}
                elif column == least:
                    kept.add(tuple(refined))
        mask |= least << b * (b - 1) // 2
        states = kept
    return mask


def _is_cut_vertex(adj: Sequence[int], everyone: int, u: int) -> bool:
    """Does deleting u disconnect the connected graph on `everyone`?"""
    rest = everyone ^ 1 << u
    reached = frontier = rest & -rest
    while frontier:
        bit = frontier & -frontier
        frontier ^= bit
        grown = adj[bit.bit_length() - 1] & rest & ~reached
        reached |= grown
        frontier |= grown
    return reached != rest


def _prefixes(members: int) -> list[int]:
    """The empty set and each set of the lowest members, by size."""
    out = [0]
    while members:
        bit = members & -members
        members ^= bit
        out.append(out[-1] | bit)
    return out


def _neighbour_degrees(adj: Sequence[int], near: int) -> list[int]:
    """The sorted degrees of the vertices in `near`."""
    out = []
    while near:
        bit = near & -near
        near ^= bit
        out.append(adj[bit.bit_length() - 1].bit_count())
    out.sort()
    return out


def generate_small(n: int) -> list[str]:
    """All connected graphs on n vertices up to isomorphism, as graph6 lines.

    Each graph is the edge mask least among its relabellings (see
    _least_mask), and the lines come in ascending mask order.  The graphs
    of order k + 1 grow from those of order k: a new vertex k joins a
    non-empty set `near` of old vertices.  Two cuts keep the children few.
    First, `near` meets each twin class of the parent (see _twin_classes)
    in its lowest members.  Second, a vertex's key is its degree and then
    the sorted degrees of its neighbours, and a child is kept only if no
    other non-cut vertex has a lower key than k.  This misses no graph, by
    induction from the one graph of order 1.  A connected graph H of order
    k + 1 has a non-cut vertex w whose key is least among its non-cut
    vertices, and H - w is connected, so an isomorphism maps it onto a
    graph P of order k.  Let N be the image of w's neighbours in P.  Some
    permutation s inside P's twin classes, an automorphism of P, takes N to
    the set that meets each class in its lowest members, and s(N) is tried.
    The child that joins k to s(N) is H with w relabelled k, and keys do not
    change under isomorphism, so k has a least key among the non-cut
    vertices and the rule keeps the child.  The children are deduplicated
    by their least masks.
    """
    if n > GENERATE_CAP:
        raise CapExceeded(
            f"built-in generation is capped at {GENERATE_CAP} vertices, got {n};"
            " pipe in an external graph6 stream instead"
        )
    if n < 1:
        raise ValueError(f"generation needs at least 1 vertex, got {n}")
    level = {0}
    for k in range(1, n):
        everyone = (1 << k + 1) - 1
        grown = set()
        for mask in level:
            adj = [0] * k
            rest = mask
            while rest:
                bit = rest & -rest
                rest ^= bit
                i, j = _G6_SLOTS[bit.bit_length() - 1]
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            for choice in product(*map(_prefixes, _twin_classes(adj))):
                near = sum(choice)
                if not near:
                    continue
                child = [row | (near >> v & 1) << k for v, row in enumerate(adj)]
                child.append(near)
                degree = near.bit_count()
                key = _neighbour_degrees(child, near)
                for u, row in enumerate(child[:k]):
                    own = row.bit_count()
                    if (
                        own < degree
                        or own == degree
                        and _neighbour_degrees(child, row) < key
                    ) and not _is_cut_vertex(child, everyone, u):
                        break
                else:
                    grown.add(_least_mask(k + 1, child))
        level = grown
    return [_graph6_of_mask(n, mask) for mask in sorted(level)]


# -- survey ----------------------------------------------------------------------


@dataclass(frozen=True)
class SurveyFilters:
    connected: bool = True
    subcubic: bool = True
    tw2: bool = True
    biconnected: bool = False

    def describe(self) -> str:
        names = [
            name
            for name in ("connected", "subcubic", "tw2", "biconnected")
            if getattr(self, name)
        ]
        return ",".join(names) if names else "none"

    def accept(self, g: Graph) -> bool:
        if self.connected and not is_connected(g):
            return False
        if self.subcubic and g.max_degree() > 3:
            return False
        # the greedy elimination route is exact and keeps no reduction trace
        if self.tw2 and find_elimination_order(g) is None:
            return False
        if self.biconnected and not is_biconnected(g):
            return False
        return True


@dataclass(frozen=True)
class SurveyReport:
    filters: SurveyFilters
    per_n: tuple[tuple[int, int, int, int], ...]  # (n, tested, sat, unsat)
    unsat_graph6: tuple[str, ...]
    skipped: tuple[tuple[int, str], ...]  # (line number, reason)
    filtered_out: int
    undecided: tuple[tuple[int, str], ...]  # (line number, graph6)
    refused: tuple[tuple[int, str], ...]  # (line number, cap message)

    @property
    def tested(self) -> int:
        return sum(row[1] for row in self.per_n)

    @property
    def sat(self) -> int:
        return sum(row[2] for row in self.per_n)

    @property
    def unsat(self) -> int:
        return sum(row[3] for row in self.per_n)

    def text_lines(self) -> list[str]:
        lines = [f"filters: {self.filters.describe()}"]
        for n, tested, sat, unsat in self.per_n:
            lines.append(f"n={n} tested={tested} sat={sat} unsat={unsat}")
        lines.append(
            f"total tested={self.tested} sat={self.sat} unsat={self.unsat}"
            f" filtered-out={self.filtered_out} skipped={len(self.skipped)}"
        )
        for line in self.unsat_graph6:
            lines.append(f"unsat-instance: {line}")
        for lineno, reason in self.skipped:
            lines.append(f"skipped line {lineno}: {reason}")
        for lineno, text in self.undecided:
            lines.append(f"undecided line {lineno}: {text}")
        for lineno, reason in self.refused:
            lines.append(f"refused line {lineno}: {reason}")
        return lines

    def machine_lines(self) -> list[str]:
        lines = [
            f"filters={self.filters.describe()}",
            f"tested={self.tested}",
            f"sat={self.sat}",
            f"unsat={self.unsat}",
            f"filtered_out={self.filtered_out}",
            f"skipped={len(self.skipped)}",
        ]
        for n, tested, sat, unsat in self.per_n:
            lines.append(f"n={n} tested={tested} sat={sat} unsat={unsat}")
        lines.extend(f"unsat_instance={line}" for line in self.unsat_graph6)
        lines.extend(
            f"skipped_line={lineno} reason={reason}" for lineno, reason in self.skipped
        )
        lines.extend(
            f"undecided_line={lineno} graph6={text}" for lineno, text in self.undecided
        )
        lines.extend(
            f"refused_line={lineno} reason={reason}" for lineno, reason in self.refused
        )
        return lines


def _decide(g: Graph, text: str, lineno: int, budget: int | None) -> Status:
    """Backtracking's answer; an Unsat is re-confirmed by DPLL and, when the
    graph is small enough, the exhaustive oracle.  `text` is g's graph6 line."""
    status = backtracking_solve(g, budget=budget).status
    if status is Status.SAT:
        return status
    second = dpll_solve(g, budget=budget)
    if second.status is not Status.UNSAT:
        raise CrossCheckError(
            f"line {lineno} ({text}): backtracking says unsat,"
            f" dpll says {second.status.value}"
        )
    if g.n <= EXHAUSTIVE_CAP:
        third = exhaustive_solve(g)
        if third.status is not Status.UNSAT:
            raise CrossCheckError(
                f"line {lineno} ({text}): backtracking says unsat,"
                f" the exhaustive oracle says {third.status.value}"
            )
    return status


def survey_stream(
    lines: Iterable[str],
    filters: SurveyFilters | None = None,
    budget: int | None = None,
) -> SurveyReport:
    """Decide every filtered graph of a graph6 stream; see module docstring.

    Malformed lines are recorded and skipped, and so are graphs whose
    decision runs out of budget (undecided) or that a cap refuses (refused,
    with the cap's message).  Unsat answers that any
    cross-check contradicts raise CrossCheckError.  A graph is reported by
    its stripped input line, which parse_graph6 accepts only when it is the
    graph's one graph6 encoding.
    """
    filters = filters if filters is not None else SurveyFilters()
    per_n: dict[int, list[int]] = {}
    unsat_lines: list[str] = []
    skipped: list[tuple[int, str]] = []
    undecided: list[tuple[int, str]] = []
    refused: list[tuple[int, str]] = []
    filtered_out = 0
    for lineno, raw in enumerate(lines, 1):
        text = raw.strip()
        if not text:
            continue
        try:
            g = parse_graph6(text)
        except Graph6Error as exc:
            skipped.append((lineno, str(exc)))
            continue
        if not filters.accept(g):
            filtered_out += 1
            continue
        try:
            status = _decide(g, text, lineno, budget)
        except BudgetExhausted:
            undecided.append((lineno, text))
            continue
        except CapExceeded as exc:
            refused.append((lineno, str(exc)))
            continue
        counts = per_n.setdefault(g.n, [0, 0, 0])
        counts[0] += 1
        if status is Status.SAT:
            counts[1] += 1
        else:
            counts[2] += 1
            unsat_lines.append(text)
    rows = tuple(
        (n, counts[0], counts[1], counts[2]) for n, counts in sorted(per_n.items())
    )
    return SurveyReport(
        filters=filters,
        per_n=rows,
        unsat_graph6=tuple(unsat_lines),
        skipped=tuple(skipped),
        filtered_out=filtered_out,
        undecided=tuple(undecided),
        refused=tuple(refused),
    )

"""Survey graph6 streams for crumby colorability.

The harness filters a stream (connectivity, max degree 3, treewidth <= 2,
optionally 2-connectivity), decides every surviving graph with the
backtracking solver, and re-confirms every Unsat with DPLL and, when the
graph is small enough, the exhaustive oracle.  Any disagreement between the
decision procedures is a fatal CrossCheckError, never a report entry.

generate_small provides a self-contained census of all connected graphs on
at most 7 vertices up to isomorphism, for tests and desk-scale runs: it keeps
every edge mask of K_n that is least in its orbit, with orbit minima built up
one vertex at a time along a chain of coset representatives.  The first levels
share one table over just the edges that permuting the low vertices moves;
the fixed edges are put back at lookup.  Larger surveys are expected to pipe
in external generator output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .coloring import (
    EXHAUSTIVE_CAP,
    Status,
    _chunks,
    backtracking_solve,
    dpll_solve,
    exhaustive_solve,
)
from .errors import BudgetExhausted, CapExceeded, CrossCheckError, Graph6Error
from .graphs import (
    Graph,
    edge_bit_index,
    emit_graph6,
    graph_from_bitmask,
    is_biconnected,
    is_connected,
    parse_graph6,
)
from .minorfree import find_elimination_order

GENERATE_CAP = 7
_FULL_LEVELS = 4  # orbit-minimum levels kept in one table over the moved edges
if GENERATE_CAP * (GENERATE_CAP - 1) // 2 > 31:
    raise ImportError(
        f"GENERATE_CAP = {GENERATE_CAP}: K_{GENERATE_CAP} has more than 31"
        " edges, and generate_small holds its edge masks in int32"
    )


# -- built-in census -------------------------------------------------------------


def _swap_adjacent(masks: np.ndarray, n: int, i: int) -> np.ndarray:
    """Edge-bitmask images of masks when vertices i and i+1 trade labels.

    Two delta swaps: for a < i the bits of edges (a, i) and (a, i+1) lie i
    apart, and for b > i+1 the bits of edges (i, b) and (i+1, b) lie 1 apart.
    """
    for low, shift in (
        (sum(1 << edge_bit_index(a, i) for a in range(i)), i),
        (sum(1 << edge_bit_index(i, b) for b in range(i + 2, n)), 1),
    ):
        if low:
            t = ((masks >> shift) ^ masks) & low
            masks = masks ^ t ^ (t << shift)
    return masks


def _each_coset_image(masks: np.ndarray, n: int, k: int) -> Iterator[np.ndarray]:
    """masks under c_j = s_{k-1} o ... o s_j for j = k..0, one image at a
    time; s_i swaps vertices i and i+1 and c_k is the identity.  c_j maps j
    to k, so these are right-coset representatives of S_k in S_{k+1}."""
    yield masks
    for j in range(k - 1, -1, -1):
        image = masks
        for i in range(j, k):
            image = _swap_adjacent(image, n, i)
        yield image


def _chain_images(masks: np.ndarray, n: int, k: int, low: int) -> Iterator[np.ndarray]:
    """masks under every product of one coset representative per level
    k, k-1, ..., low (level k applied first), one image at a time.  Nested
    k - low + 1 <= GENERATE_CAP - _FULL_LEVELS deep."""
    for image in _each_coset_image(masks, n, k):
        if k == low:
            yield image
        else:
            yield from _chain_images(image, n, k - 1, low)


def _moved_blocks(n: int, k: int) -> list[tuple[int, int, int]]:
    """(mask, shift, offset) blocks of the edge bits that permuting vertices
    0..k-1 can move: an edge moves iff its lower endpoint is below k.  In
    edge_bit_index order these are the low C(k, 2) bits, then the low k bits
    of each column j >= k, which start at bit C(j, 2).  Block b packs into
    the table index at b's offset: ((m >> shift) & mask) << offset."""
    blocks = [((1 << k * (k - 1) // 2) - 1, 0, 0)]
    for j in range(k, n):
        blocks.append(((1 << k) - 1, edge_bit_index(0, j), k * (k - 1) // 2 + k * (j - k)))
    return blocks


def _compress(masks: np.ndarray, blocks: list[tuple[int, int, int]]) -> np.ndarray:
    """Table index of each mask's moved edges."""
    index = masks & 0
    for mask, shift, offset in blocks:
        index |= ((masks >> shift) & mask) << offset
    return index


def _expand(index: np.ndarray, blocks: list[tuple[int, int, int]]) -> np.ndarray:
    """Inverse of _compress: the mask of moved edges each table index packs."""
    masks = index & 0
    for mask, shift, offset in blocks:
        masks |= ((index >> offset) & mask) << shift
    return masks


def _least_image(
    table: np.ndarray,
    images: Iterator[np.ndarray],
    blocks: list[tuple[int, int, int]],
    fixed: int,
) -> np.ndarray:
    """Running minimum over images of the table's value for each image's
    moved edges, with its fixed edges put back."""
    import numpy as np

    least = None
    for image in images:
        candidate = table[_compress(image, blocks)] | (image & fixed)
        if least is None:
            least = candidate
        else:
            np.minimum(least, candidate, out=least)
    return least


def generate_small(n: int) -> list[str]:
    """All connected graphs on n vertices up to isomorphism, as graph6 lines.

    Keeps each edge subset of K_n whose bitmask is the least of its orbit
    under relabelling, in ascending mask order.  With F_k(m) the least image
    of m when vertices 0..k-1 are permuted, F_1 is the identity and
    F_{k+1}(m) = min over j of F_k(c_j(m)) (see _each_coset_image).  The first
    _FULL_LEVELS levels are one table, indexed by the moved edges only (those
    with an endpoint below _FULL_LEVELS, see _moved_blocks): the other,
    fixed edges keep their bits under every permutation of the low vertices,
    so F_k(m) = F_k(m & moved) | (m & fixed).  Each level overwrites the
    table in place: an entry read is either F_k(c_j(m)) or, if its chunk was
    already raised, F_{k+1}(c_j(m)) = F_{k+1}(m), and both are at least
    F_{k+1}(m), so the minimum is still exact.  A mask least in its orbit is
    least under every S_k, so past the table only the masks with
    F_k(m) == m are kept (the table's fixed points with every choice of fixed
    edges), and F_k is evaluated at just their coset images, down to the
    table.  Those images are folded into a running minimum one chain of
    cosets at a time (see _chain_images).  Every step runs over the sweep's
    chunks (see coloring._chunks), so beside the table (2^18 int32 at
    n = 7) and the kept masks only a few chunk-sized arrays are live; at
    n = 7 the numpy arrays peak at 2.9 MiB (tracemalloc).
    """
    if n > GENERATE_CAP:
        raise CapExceeded(
            f"built-in generation is capped at {GENERATE_CAP} vertices, got {n};"
            " pipe in an external graph6 stream instead"
        )
    if n < 1:
        raise ValueError(f"generation needs at least 1 vertex, got {n}")
    import numpy as np  # only the kernels load numpy, not `import crumby`

    full = min(n, _FULL_LEVELS)
    blocks = _moved_blocks(n, full)
    moved = sum(mask << shift for mask, shift, _ in blocks)
    fixed = ((1 << n * (n - 1) // 2) - 1) & ~moved
    size = 1 << moved.bit_count()

    def masks(part: slice) -> np.ndarray:
        return _expand(np.arange(part.start, part.stop, dtype=np.int32), blocks)

    table = np.empty(size, dtype=np.int32)
    for part in _chunks(size):
        table[part] = masks(part)
    for k in range(1, full):
        for part in _chunks(size):
            table[part] = _least_image(
                table, _each_coset_image(masks(part), n, k), blocks, fixed
            )
    fixed_choices = np.zeros(1, dtype=np.int32)
    for bit in range(fixed.bit_length()):
        if fixed >> bit & 1:
            fixed_choices = np.concatenate([fixed_choices, fixed_choices | 1 << bit])
    points = []
    for part in _chunks(size):
        values = masks(part)
        points.append(values[table[part] == values])
    reps = np.sort((np.concatenate(points) | fixed_choices[:, None]).ravel())
    for k in range(full, n):
        kept = []
        for part in _chunks(len(reps)):
            chunk = reps[part]
            least = _least_image(table, _chain_images(chunk, n, k, full), blocks, fixed)
            kept.append(chunk[least == chunk])
        reps = np.concatenate(kept)
    lines = []
    for mask in reps.tolist():
        g = graph_from_bitmask(n, mask)
        if is_connected(g):
            lines.append(emit_graph6(g))
    return lines


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

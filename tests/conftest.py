from __future__ import annotations

import pytest
from hypothesis import settings

from crumby import (
    build_F,
    build_G18,
    build_G40,
    build_R,
    generate_small,
    graph_from_edge_list,
    parse_graph6,
)


# Every run draws the same examples, so a failure reproduces without the
# local example database and the suite's time does not vary with the draw.
# Each test module still sets its own max_examples on top of this profile.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def f_gadget():
    return build_F()


@pytest.fixture(scope="session")
def r_gadget():
    return build_R()


@pytest.fixture(scope="session")
def g18():
    return build_G18()


@pytest.fixture(scope="session")
def g40():
    return build_G40()


@pytest.fixture(scope="session")
def census_lines():
    """graph6 lines of connected graphs up to isomorphism, keyed by order,
    for n <= 7; generated once per session."""
    return {n: generate_small(n) for n in range(1, 8)}


@pytest.fixture(scope="session")
def census(census_lines):
    """Connected graphs up to isomorphism, keyed by order, for n <= 6."""
    return {n: [parse_graph6(line) for line in census_lines[n]] for n in range(1, 7)}


@pytest.fixture(scope="session")
def ladder():
    """The 2 x 2000 ladder, columns numbered by distance from the middle
    (row 0, then row 1), so its four corners, the only degree-2 vertices,
    get the highest ids."""
    cols = 2000
    rank = sorted(range(cols), key=lambda c: (abs(2 * c - (cols - 1)), c))
    vid = {}
    for r, c in enumerate(rank):
        vid[0, c], vid[1, c] = 2 * r, 2 * r + 1
    edges = [(vid[0, c], vid[1, c]) for c in range(cols)]
    edges += [(vid[row, c], vid[row, c + 1]) for row in (0, 1) for c in range(cols - 1)]
    return graph_from_edge_list(2 * cols, edges)

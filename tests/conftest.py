from __future__ import annotations

import pytest

from crumby import build_F, build_G18, build_G40, build_R, generate_small, parse_graph6


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

"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.graphs import (
    Graph,
    complete_graph,
    grid_graph,
    path_graph,
    ring_graph,
    star_graph,
)


@pytest.fixture
def rng() -> random.Random:
    """A deterministically seeded random generator."""
    return random.Random(12345)


@pytest.fixture
def ring6() -> Graph:
    return ring_graph(6)


@pytest.fixture
def path5() -> Graph:
    return path_graph(5)


@pytest.fixture
def star5() -> Graph:
    return star_graph(5)


@pytest.fixture
def grid3x3() -> Graph:
    return grid_graph(3, 3)


@pytest.fixture
def complete4() -> Graph:
    return complete_graph(4)


@pytest.fixture(params=["ring", "path", "star", "grid", "complete"])
def small_graph(request) -> Graph:
    """A parametrized family of small connected graphs."""
    return {
        "ring": ring_graph(6),
        "path": path_graph(5),
        "star": star_graph(5),
        "grid": grid_graph(3, 3),
        "complete": complete_graph(4),
    }[request.param]


def pytest_configure(config):
    """Register the suite's custom marks (they select nothing by default)."""
    config.addinivalue_line(
        "markers", "slow: a slower test; still part of the default run"
    )

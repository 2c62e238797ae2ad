"""Generators for the communication topologies used in the experiments.

The paper's protocol SSME runs on *any* communication graph (unlike
Dijkstra's protocol which requires a ring), so the experiment harness sweeps
a family of topologies: rings, paths, stars, complete graphs, grids,
hypercubes, binary and random trees, random connected graphs, and the
Petersen graph.

All generators return :class:`~repro.graphs.graph.Graph` instances whose
vertices are the integers ``0 .. n-1`` — exactly the identifier set
``ID = {0, ..., n-1}`` assumed by the paper (Section 4.1), so graphs can be
fed directly to the mutual-exclusion protocols.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Sequence, Tuple

from ..exceptions import GraphError
from .graph import Graph

__all__ = [
    "ring_graph",
    "path_graph",
    "star_graph",
    "complete_graph",
    "grid_graph",
    "hypercube_graph",
    "binary_tree_graph",
    "random_tree_graph",
    "random_connected_graph",
    "petersen_graph",
    "single_vertex_graph",
    "TOPOLOGY_GENERATORS",
    "make_topology",
]


def _check_n(n: int, minimum: int = 1) -> None:
    if n < minimum:
        raise GraphError(f"need at least {minimum} vertices, got {n}")


def single_vertex_graph() -> Graph:
    """The graph with a single vertex ``0`` and no edge."""
    return Graph([0], [])


def ring_graph(n: int) -> Graph:
    """A cycle on ``n >= 3`` vertices (``n = 1`` and ``n = 2`` degenerate to
    a single vertex and a single edge respectively)."""
    _check_n(n)
    if n == 1:
        return single_vertex_graph()
    if n == 2:
        return Graph([0, 1], [(0, 1)])
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph(range(n), edges)


def path_graph(n: int) -> Graph:
    """A simple path ``0 - 1 - ... - (n-1)``."""
    _check_n(n)
    edges = [(i, i + 1) for i in range(n - 1)]
    return Graph(range(n), edges)


def star_graph(n: int) -> Graph:
    """A star: vertex ``0`` is the centre, vertices ``1 .. n-1`` are leaves."""
    _check_n(n)
    edges = [(0, i) for i in range(1, n)]
    return Graph(range(n), edges)


def complete_graph(n: int) -> Graph:
    """The complete graph ``K_n``."""
    _check_n(n)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph(range(n), edges)


def grid_graph(rows: int, cols: int) -> Graph:
    """A ``rows x cols`` grid (4-neighbourhood, no wrap-around)."""
    _check_n(rows)
    _check_n(cols)
    def vid(r: int, c: int) -> int:
        return r * cols + c

    edges: List[Tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return Graph(range(rows * cols), edges)


def hypercube_graph(dimension: int) -> Graph:
    """The ``dimension``-dimensional hypercube on ``2**dimension`` vertices."""
    if dimension < 0:
        raise GraphError("dimension must be non-negative")
    n = 1 << dimension
    edges = []
    for v in range(n):
        for bit in range(dimension):
            u = v ^ (1 << bit)
            if u > v:
                edges.append((v, u))
    return Graph(range(n), edges)


def binary_tree_graph(n: int) -> Graph:
    """A complete binary tree layout on ``n`` vertices (heap numbering)."""
    _check_n(n)
    edges = []
    for child in range(1, n):
        parent = (child - 1) // 2
        edges.append((parent, child))
    return Graph(range(n), edges)


def random_tree_graph(n: int, rng: Optional[random.Random] = None) -> Graph:
    """A uniformly random labelled tree on ``n`` vertices (random attachment).

    Each vertex ``i >= 1`` attaches to a uniformly chosen earlier vertex; the
    result is always a tree (hence ``hole(g) = 2`` and ``diam`` up to ``n-1``).
    """
    _check_n(n)
    rng = rng or random.Random(0)
    edges = []
    for child in range(1, n):
        parent = rng.randrange(child)
        edges.append((parent, child))
    return Graph(range(n), edges)


def random_connected_graph(n: int, p: float, rng: Optional[random.Random] = None) -> Graph:
    """A connected random graph: a random tree backbone plus ``G(n, p)`` edges.

    The protocols of the paper assume a connected communication graph; this
    generator guarantees connectivity while still producing non-trivial holes
    and cycles for the unison substrate to cope with.  ``p`` must lie in
    ``[0, 1]``.
    """
    _check_n(n)
    if not 0.0 <= p <= 1.0:
        raise GraphError(f"edge probability must be in [0, 1], got {p}")
    rng = rng or random.Random(0)
    backbone = random_tree_graph(n, rng)
    edges = set(backbone.edges)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.add((i, j))
    return Graph(range(n), edges)


def petersen_graph() -> Graph:
    """The Petersen graph (10 vertices, girth 5, diameter 2)."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(range(10), outer + inner + spokes)


#: Named topology factories used by the experiment harness.  Each maps a
#: target size ``n`` to a connected graph with (approximately) ``n`` vertices.
TOPOLOGY_GENERATORS = {
    "ring": lambda n: ring_graph(n),
    "path": lambda n: path_graph(n),
    "star": lambda n: star_graph(n),
    "complete": lambda n: complete_graph(n),
    "grid": lambda n: grid_graph(max(1, int(round(n ** 0.5))), max(1, int(round(n ** 0.5)))),
    "binary_tree": lambda n: binary_tree_graph(n),
    "hypercube": lambda n: hypercube_graph(max(1, (n - 1).bit_length())),
    "random": lambda n: random_connected_graph(n, 0.15, random.Random(n)),
}


def make_topology(name: str, n: int) -> Graph:
    """Build the named topology at (approximately) ``n`` vertices.

    Raises :class:`~repro.exceptions.GraphError` for unknown names.
    """
    try:
        factory = TOPOLOGY_GENERATORS[name]
    except KeyError:
        known = ", ".join(sorted(TOPOLOGY_GENERATORS))
        raise GraphError(f"unknown topology {name!r}; known: {known}") from None
    return factory(n)

"""Unit tests for the topology generators."""

from __future__ import annotations

import random

import pytest

from repro.exceptions import GraphError
from repro.graphs import (
    TOPOLOGY_GENERATORS,
    binary_tree_graph,
    complete_graph,
    grid_graph,
    hypercube_graph,
    is_ring,
    is_tree,
    make_topology,
    path_graph,
    petersen_graph,
    random_connected_graph,
    random_tree_graph,
    ring_graph,
    single_vertex_graph,
    star_graph,
)


class TestBasicShapes:
    def test_single_vertex(self):
        g = single_vertex_graph()
        assert g.n == 1 and g.m == 0

    def test_ring(self):
        g = ring_graph(7)
        assert g.n == 7 and g.m == 7
        assert is_ring(g)
        assert all(g.degree(v) == 2 for v in g.vertices)

    def test_ring_degenerate_sizes(self):
        assert ring_graph(1).n == 1
        g2 = ring_graph(2)
        assert g2.n == 2 and g2.m == 1

    def test_path(self):
        g = path_graph(6)
        assert g.n == 6 and g.m == 5
        assert is_tree(g)
        assert g.distance(0, 5) == 5

    def test_star(self):
        g = star_graph(7)
        assert g.degree(0) == 6
        assert all(g.degree(v) == 1 for v in range(1, 7))
        assert is_tree(g)

    def test_complete(self):
        g = complete_graph(5)
        assert g.m == 10
        assert all(g.degree(v) == 4 for v in g.vertices)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ring_graph(0),
            lambda: path_graph(0),
            lambda: star_graph(0),
            lambda: complete_graph(0),
            lambda: binary_tree_graph(0),
            lambda: random_tree_graph(0),
            lambda: random_connected_graph(0, 0.5),
            lambda: grid_graph(0, 3),
            lambda: grid_graph(3, 0),
            lambda: hypercube_graph(-1),
        ],
        ids=[
            "ring",
            "path",
            "star",
            "complete",
            "binary_tree",
            "random_tree",
            "random_connected",
            "grid_rows",
            "grid_cols",
            "hypercube",
        ],
    )
    def test_empty_sizes_rejected(self, build):
        with pytest.raises(GraphError):
            build()


class TestGridsAndCubes:
    def test_grid(self):
        g = grid_graph(3, 4)
        assert g.n == 12
        assert g.m == 3 * 3 + 2 * 4  # horizontal + vertical edges
        assert g.distance(0, 11) == 5

    def test_hypercube(self):
        g = hypercube_graph(3)
        assert g.n == 8 and g.m == 12
        assert all(g.degree(v) == 3 for v in g.vertices)
        assert g.distance(0, 7) == 3

    def test_hypercube_dimension_zero(self):
        assert hypercube_graph(0).n == 1


class TestTreesAndRandom:
    def test_binary_tree(self):
        g = binary_tree_graph(7)
        assert is_tree(g)
        assert g.degree(0) == 2

    def test_random_tree_is_tree(self):
        g = random_tree_graph(20, random.Random(3))
        assert is_tree(g)

    @pytest.mark.parametrize("p", [1.5, -0.3, float("nan")])
    def test_random_connected_probability_validation(self, p):
        with pytest.raises(GraphError):
            random_connected_graph(5, p)

    def test_random_connected_accepts_probability_zero(self):
        # p = 0 adds no edge: the result is exactly the random tree backbone.
        g = random_connected_graph(12, 0.0, random.Random(4))
        assert g == random_tree_graph(12, random.Random(4))
        assert is_tree(g)

    def test_random_connected_accepts_probability_one(self):
        g = random_connected_graph(7, 1.0, random.Random(4))
        assert g == complete_graph(7)

    def test_random_connected_determinism(self):
        g1 = random_connected_graph(10, 0.3, random.Random(7))
        g2 = random_connected_graph(10, 0.3, random.Random(7))
        assert g1 == g2
        assert random_connected_graph(10, 0.3) == random_connected_graph(10, 0.3)

    def test_random_connected_contains_its_backbone(self):
        for seed in range(5):
            g = random_connected_graph(15, 0.2, random.Random(seed))
            backbone = random_tree_graph(15, random.Random(seed))
            assert all(g.has_edge(u, v) for u, v in backbone.edges)

    def test_random_connected_is_connected(self):
        for seed in range(5):
            g = random_connected_graph(15, 0.1, random.Random(seed))
            assert g.is_connected()

    def test_petersen(self):
        g = petersen_graph()
        assert g.n == 10 and g.m == 15
        assert all(g.degree(v) == 3 for v in g.vertices)


#: Vertex count of each registered family at target size ``n``: most hit
#: ``n`` exactly, the grid rounds to a square, the hypercube to a power of 2.
EXPECTED_SIZE = {
    "ring": lambda n: n,
    "path": lambda n: n,
    "star": lambda n: n,
    "complete": lambda n: n,
    "binary_tree": lambda n: n,
    "random": lambda n: n,
    "grid": lambda n: round(n ** 0.5) ** 2,
    "hypercube": lambda n: 1 << (n - 1).bit_length(),
}


class TestTopologyRegistry:
    @pytest.mark.parametrize("name", sorted(TOPOLOGY_GENERATORS))
    def test_registered_topology_size(self, name):
        for n in (5, 9, 16):
            assert make_topology(name, n).n == EXPECTED_SIZE[name](n)

    @pytest.mark.parametrize("name", sorted(TOPOLOGY_GENERATORS))
    def test_registered_topology_is_deterministic(self, name):
        assert make_topology(name, 12) == make_topology(name, 12)

    def test_every_family_has_an_expected_size(self):
        assert set(EXPECTED_SIZE) == set(TOPOLOGY_GENERATORS)

    @pytest.mark.parametrize("name", sorted(TOPOLOGY_GENERATORS))
    def test_every_registered_topology_is_connected(self, name):
        g = make_topology(name, 9)
        assert g.n >= 1
        assert g.is_connected()

    def test_unknown_topology(self):
        with pytest.raises(GraphError):
            make_topology("moebius", 8)

    def test_vertices_are_consecutive_integers(self):
        for name in TOPOLOGY_GENERATORS:
            g = make_topology(name, 8)
            assert set(g.vertices) == set(range(g.n))

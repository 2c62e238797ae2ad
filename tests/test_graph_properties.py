"""Unit tests for structural graph properties (diameter, holes, cyclo)."""

from __future__ import annotations

import pytest

from repro.exceptions import GraphError
from repro.graphs import (
    Graph,
    all_pairs_distances,
    complete_graph,
    cyclomatic_characteristic_upper_bound,
    cyclomatic_number,
    diameter,
    diameter_endpoints,
    eccentricity,
    fundamental_cycles,
    grid_graph,
    has_cycle,
    hole_length,
    hypercube_graph,
    is_ring,
    is_tree,
    make_topology,
    path_graph,
    petersen_graph,
    ring_graph,
    single_vertex_graph,
    star_graph,
)


class TestDistances:
    def test_diameter_ring(self):
        assert diameter(ring_graph(8)) == 4
        assert diameter(ring_graph(9)) == 4

    def test_diameter_path_and_star(self):
        assert diameter(path_graph(7)) == 6
        assert diameter(star_graph(9)) == 2
        assert diameter(complete_graph(5)) == 1

    def test_diameter_single_vertex(self):
        assert diameter(Graph([0], [])) == 0

    def test_diameter_requires_connected(self):
        with pytest.raises(GraphError):
            diameter(Graph([0, 1], []))

    def test_diameter_endpoints(self):
        u, v = diameter_endpoints(path_graph(6))
        assert {u, v} == {0, 5}

    def test_eccentricity_and_radius(self):
        g = path_graph(5)
        assert eccentricity(g, 0) == 4
        assert eccentricity(g, 2) == 2

    def test_eccentricity_requires_connected(self):
        with pytest.raises(GraphError):
            eccentricity(Graph([0, 1], []), 0)

    def test_diameter_endpoints_single_vertex(self):
        assert diameter_endpoints(single_vertex_graph()) == (0, 0)

    @pytest.mark.parametrize(
        "name, diam",
        [
            ("ring", 4),
            ("path", 8),
            ("star", 2),
            ("complete", 1),
            ("grid", 4),
            ("binary_tree", 5),
            ("hypercube", 4),
        ],
    )
    def test_diameter_of_registered_topologies(self, name, diam):
        # diam(g) at target size 9 (the grid is 3x3, the hypercube Q4).
        assert diameter(make_topology(name, 9)) == diam

    def test_all_pairs(self):
        g = ring_graph(6)
        dist = all_pairs_distances(g)
        assert dist[0][3] == 3
        assert dist[3][0] == 3


class TestCycles:
    def test_has_cycle(self):
        assert has_cycle(ring_graph(4))
        assert not has_cycle(path_graph(4))

    def test_is_tree_and_is_ring(self):
        assert is_tree(path_graph(4))
        assert not is_tree(ring_graph(4))
        assert is_ring(ring_graph(5))
        assert not is_ring(star_graph(5))
        assert not is_ring(Graph([0, 1], [(0, 1)]))

    def test_cyclomatic_number(self):
        assert cyclomatic_number(path_graph(5)) == 0
        assert cyclomatic_number(ring_graph(5)) == 1
        assert cyclomatic_number(complete_graph(4)) == 3

    def test_fundamental_cycles_count(self):
        g = complete_graph(4)
        cycles = fundamental_cycles(g)
        assert len(cycles) == cyclomatic_number(g)
        for cycle in cycles:
            assert len(cycle) >= 3
            # consecutive cycle vertices are adjacent
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                assert g.has_edge(a, b)


class TestHoleAndLcp:
    def test_hole_of_tree_is_two(self):
        assert hole_length(path_graph(6)) == 2
        assert hole_length(star_graph(6)) == 2

    def test_hole_of_ring_is_n(self):
        assert hole_length(ring_graph(7)) == 7

    def test_hole_of_complete_graph_is_triangle(self):
        assert hole_length(complete_graph(6)) == 3

    def test_hole_of_petersen(self):
        # Petersen: girth 5 and every chordless cycle has length 5 or 6;
        # the longest hole is 6.
        assert hole_length(petersen_graph()) == 6

    def test_hole_of_grid(self):
        # In the 2x3 grid the outer 6-cycle has the middle rung as a chord,
        # so the longest hole is a unit square; in the 3x3 grid the outer
        # 8-cycle avoids the centre vertex and is chordless.
        assert hole_length(grid_graph(2, 3)) == 4
        assert hole_length(grid_graph(3, 3)) == 8

    def test_hole_of_hypercube(self):
        # Q3 minus two antipodal vertices is a chordless 6-cycle.
        assert hole_length(hypercube_graph(3)) == 6

    @pytest.mark.parametrize(
        "graph",
        [ring_graph(7), complete_graph(6), petersen_graph(), grid_graph(3, 3), hypercube_graph(3)],
        ids=["ring7", "complete6", "petersen", "grid3x3", "hypercube3"],
    )
    def test_exhausted_budget_falls_back_to_n(self, graph):
        # Without search budget the paper's safe bound hole(g) <= n is used.
        assert hole_length(graph, budget=0) == graph.n
        assert hole_length(graph) <= graph.n

    def test_cyclo_upper_bound(self):
        assert cyclomatic_characteristic_upper_bound(path_graph(5)) == 2
        assert cyclomatic_characteristic_upper_bound(ring_graph(6)) == 6
        assert cyclomatic_characteristic_upper_bound(complete_graph(5)) <= 5

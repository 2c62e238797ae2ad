"""Property-based tests on graphs and their structural parameters."""

from __future__ import annotations

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    all_pairs_distances,
    cyclomatic_characteristic_upper_bound,
    cyclomatic_number,
    diameter,
    diameter_endpoints,
    eccentricity,
    fundamental_cycles,
    has_cycle,
    hole_length,
    is_tree,
    random_connected_graph,
)


def connected_graphs(max_n=12):
    """Strategy producing small connected random graphs."""
    return st.tuples(st.integers(2, max_n), st.floats(0.0, 0.6), st.integers(0, 10_000)).map(
        lambda params: random_connected_graph(params[0], params[1], random.Random(params[2]))
    )


@settings(max_examples=30, deadline=None)
@given(connected_graphs())
def test_diameter_endpoints_achieve_the_diameter(graph):
    u, v = diameter_endpoints(graph)
    assert graph.distance(u, v) == diameter(graph)


@settings(max_examples=30, deadline=None)
@given(connected_graphs())
def test_eccentricity_bounds(graph):
    d = diameter(graph)
    for vertex in graph.vertices:
        assert 0 <= eccentricity(graph, vertex) <= d


@settings(max_examples=25, deadline=None)
@given(connected_graphs())
def test_hole_and_cyclo_are_bounded_by_n(graph):
    assert 2 <= hole_length(graph) <= max(2, graph.n)
    assert 2 <= cyclomatic_characteristic_upper_bound(graph) <= max(2, graph.n)


def _induces_a_cycle(graph, subset):
    """Whether ``subset`` (at least 3 vertices) induces a connected 2-regular graph."""
    inside = set(subset)
    if any(len(inside & set(graph.neighbors(v))) != 2 for v in subset):
        return False
    seen, stack = {subset[0]}, [subset[0]]
    while stack:
        for w in graph.neighbors(stack.pop()):
            if w in inside and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == inside


@settings(max_examples=30, deadline=None)
@given(connected_graphs())
def test_min_eccentricity_bounds_the_diameter(graph):
    # With r the smallest eccentricity: r <= diam(g) <= 2r.
    r = min(eccentricity(graph, v) for v in graph.vertices)
    assert r <= diameter(graph) <= 2 * r


@settings(max_examples=25, deadline=None)
@given(connected_graphs(max_n=8))
def test_hole_length_matches_brute_force(graph):
    holes = [
        size
        for size in range(3, graph.n + 1)
        for subset in itertools.combinations(graph.vertices, size)
        if _induces_a_cycle(graph, subset)
    ]
    assert hole_length(graph) == max(holes, default=2)


@settings(max_examples=30, deadline=None)
@given(connected_graphs())
def test_fundamental_cycles_match_cyclomatic_number(graph):
    cycles = fundamental_cycles(graph)
    assert len(cycles) == cyclomatic_number(graph)
    assert has_cycle(graph) == bool(cycles) == (not is_tree(graph))
    for cycle in cycles:
        assert len(set(cycle)) == len(cycle) >= 3
        assert all(graph.has_edge(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1]))


@settings(max_examples=30, deadline=None)
@given(connected_graphs())
def test_all_pairs_distances_are_symmetric(graph):
    dist = all_pairs_distances(graph)
    assert all(dist[u][v] == dist[v][u] for u in graph.vertices for v in graph.vertices)
    assert max(max(row.values()) for row in dist.values()) == diameter(graph)


@settings(max_examples=30, deadline=None)
@given(connected_graphs())
def test_bfs_distance_triangle_inequality(graph):
    vertices = list(graph.vertices)[:5]
    for a in vertices:
        dist_a = graph.bfs_distances(a)
        for b in vertices:
            dist_b = graph.bfs_distances(b)
            for c in vertices:
                assert dist_a[c] <= dist_a[b] + dist_b[c]

"""Communication-graph substrate.

This package provides the immutable :class:`~repro.graphs.graph.Graph` type,
topology generators, and the structural properties (diameter, holes,
cyclomatic characteristic) that parameterize the unison and
mutual-exclusion protocols of the paper.
"""

from .graph import Graph
from .generators import (
    TOPOLOGY_GENERATORS,
    binary_tree_graph,
    complete_graph,
    grid_graph,
    hypercube_graph,
    make_topology,
    path_graph,
    petersen_graph,
    random_connected_graph,
    random_tree_graph,
    ring_graph,
    single_vertex_graph,
    star_graph,
)
from .properties import (
    all_pairs_distances,
    cyclomatic_characteristic_upper_bound,
    cyclomatic_number,
    diameter,
    diameter_endpoints,
    eccentricity,
    fundamental_cycles,
    has_cycle,
    hole_length,
    is_ring,
    is_tree,
)

__all__ = [
    "Graph",
    "TOPOLOGY_GENERATORS",
    "all_pairs_distances",
    "binary_tree_graph",
    "complete_graph",
    "cyclomatic_characteristic_upper_bound",
    "cyclomatic_number",
    "diameter",
    "diameter_endpoints",
    "eccentricity",
    "fundamental_cycles",
    "grid_graph",
    "has_cycle",
    "hole_length",
    "hypercube_graph",
    "is_ring",
    "is_tree",
    "make_topology",
    "path_graph",
    "petersen_graph",
    "random_connected_graph",
    "random_tree_graph",
    "ring_graph",
    "single_vertex_graph",
    "star_graph",
]

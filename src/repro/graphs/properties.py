"""Structural graph properties used by the paper.

The unison substrate and the SSME analysis rely on a handful of graph
parameters (Section 4.1):

* ``diam(g)`` — the diameter, used both in the clock size
  ``K = (2n-1)(diam(g)+1)+2`` and in the privileged predicate;
* ``hole(g)`` — the length of a longest *hole* (longest chordless cycle) if
  the graph contains a cycle, ``2`` otherwise; the unison of Boulinier et al.
  requires ``alpha >= hole(g) - 2``;
* ``cyclo(g)`` — the cyclomatic characteristic (length of the maximal cycle
  of a shortest maximal cycle basis) if the graph contains a cycle, ``2``
  otherwise; the unison requires ``K > cyclo(g)``.

``hole`` is NP-hard in general; we compute it exactly by bounded
backtracking (fine for the experiment sizes, tens of vertices) and fall
back on the paper's own bound ``<= n`` when the search budget is
exhausted.  ``cyclo`` is approximated from above by the longest fundamental
cycle of a BFS-tree cycle basis, which is all the paper needs
(``cyclo(g) <= n`` justifies ``K > n``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..exceptions import GraphError
from ..types import VertexId
from .graph import Graph

__all__ = [
    "all_pairs_distances",
    "eccentricity",
    "diameter",
    "diameter_endpoints",
    "is_tree",
    "is_ring",
    "has_cycle",
    "cyclomatic_number",
    "fundamental_cycles",
    "hole_length",
    "cyclomatic_characteristic_upper_bound",
]

#: Default number of backtracking node expansions allowed for the exact
#: (exponential) chordless-cycle search before falling back to the ``n``
#: upper bound.
DEFAULT_SEARCH_BUDGET = 200_000


def _require_connected(graph: Graph) -> None:
    if not graph.is_connected():
        raise GraphError("this property is only defined for connected graphs")


def all_pairs_distances(graph: Graph) -> Dict[VertexId, Dict[VertexId, int]]:
    """All-pairs shortest-path distances (BFS from every vertex)."""
    return {v: graph.bfs_distances(v) for v in graph.vertices}


def eccentricity(graph: Graph, v: VertexId) -> int:
    """Maximum distance from ``v`` to any other vertex."""
    _require_connected(graph)
    dist = graph.bfs_distances(v)
    return max(dist.values()) if dist else 0


def diameter(graph: Graph) -> int:
    """``diam(g)``: the maximum distance between two vertices."""
    _require_connected(graph)
    if graph.n == 0:
        return 0
    return max(eccentricity(graph, v) for v in graph.vertices)


def diameter_endpoints(graph: Graph) -> Tuple[VertexId, VertexId]:
    """A pair of vertices ``(u, v)`` with ``dist(u, v) = diam(g)``.

    The lower-bound construction of Theorem 4 starts from such a pair.
    """
    _require_connected(graph)
    if graph.n == 0:
        raise GraphError("empty graph has no diameter endpoints")
    best: Tuple[int, VertexId, VertexId] = (-1, graph.vertices[0], graph.vertices[0])
    for u in graph.vertices:
        dist = graph.bfs_distances(u)
        for v, d in dist.items():
            if d > best[0]:
                best = (d, u, v)
    return best[1], best[2]


def has_cycle(graph: Graph) -> bool:
    """Whether the graph contains at least one cycle."""
    components = graph.connected_components()
    # A forest has exactly n - (#components) edges.
    return graph.m > graph.n - len(components)


def is_tree(graph: Graph) -> bool:
    """Whether the graph is connected and acyclic."""
    return graph.is_connected() and graph.m == graph.n - 1


def is_ring(graph: Graph) -> bool:
    """Whether the graph is a simple cycle on all its vertices."""
    if graph.n < 3 or graph.m != graph.n:
        return False
    if not graph.is_connected():
        return False
    return all(graph.degree(v) == 2 for v in graph.vertices)


def cyclomatic_number(graph: Graph) -> int:
    """The cyclomatic number ``m - n + c`` (dimension of the cycle space)."""
    return graph.m - graph.n + len(graph.connected_components())


def fundamental_cycles(graph: Graph) -> List[List[VertexId]]:
    """Fundamental cycles induced by a BFS spanning forest.

    Each non-tree edge ``(u, v)`` yields the cycle formed by the tree paths
    from ``u`` and ``v`` to their lowest common ancestor plus the edge
    itself.  The multiset of their lengths upper-bounds the cyclomatic
    characteristic of Boulinier et al.
    """
    parent: Dict[VertexId, Optional[VertexId]] = {}
    depth: Dict[VertexId, int] = {}
    tree_edges = set()
    for root in graph.vertices:
        if root in parent:
            continue
        parent[root] = None
        depth[root] = 0
        frontier = [root]
        while frontier:
            nxt = []
            for x in frontier:
                for y in graph.neighbors(x):
                    if y not in parent:
                        parent[y] = x
                        depth[y] = depth[x] + 1
                        tree_edges.add(frozenset((x, y)))
                        nxt.append(y)
            frontier = nxt

    cycles: List[List[VertexId]] = []
    for u, v in graph.edges:
        if frozenset((u, v)) in tree_edges:
            continue
        # Walk both endpoints up to their lowest common ancestor.
        pu: List[VertexId] = [u]
        pv: List[VertexId] = [v]
        a, b = u, v
        while depth[a] > depth[b]:
            a = parent[a]
            pu.append(a)
        while depth[b] > depth[a]:
            b = parent[b]
            pv.append(b)
        while a != b:
            a = parent[a]
            b = parent[b]
            pu.append(a)
            pv.append(b)
        cycle = pu + list(reversed(pv[:-1]))
        cycles.append(cycle)
    return cycles


def _longest_chordless_cycle(graph: Graph, budget: int) -> Tuple[Optional[int], bool]:
    """Exact longest chordless cycle length via backtracking.

    Returns ``(length, exact)`` where ``exact`` is False when the search
    budget was exhausted (the returned length is then only a lower bound).
    """
    adjacency = {v: graph.neighbors(v) for v in graph.vertices}
    order = {v: idx for idx, v in enumerate(graph.sorted_vertices())}
    best: Optional[int] = None
    expansions = 0
    exact = True

    def extend(start: VertexId, path: List[VertexId], blocked: set) -> None:
        nonlocal best, expansions, exact
        if expansions > budget:
            exact = False
            return
        last = path[-1]
        for w in adjacency[last]:
            if order[w] <= order[start] and w != start:
                continue
            if w in path:
                continue
            expansions += 1
            # Chordless condition: w may only touch the path at its last
            # vertex (and possibly at the start vertex, closing a cycle).
            interior = path[1:-1]
            if any(w in adjacency[x] for x in interior):
                continue
            closes = start in adjacency[w]
            if closes and len(path) >= 2:
                length = len(path) + 1
                if best is None or length > best:
                    best = length
            if not closes:
                extend(start, path + [w], blocked)

    for start in graph.sorted_vertices():
        for first in adjacency[start]:
            if order[first] <= order[start]:
                continue
            extend(start, [start, first], set())
            if not exact:
                return best, False
    return best, exact


def hole_length(graph: Graph, budget: int = DEFAULT_SEARCH_BUDGET) -> int:
    """``hole(g)``: length of a longest chordless cycle, or ``2`` if acyclic.

    When the exact search exceeds ``budget`` node expansions the paper's own
    bound ``hole(g) <= n`` is returned instead (which is always safe for
    choosing the unison parameter ``alpha = n``).
    """
    if not has_cycle(graph):
        return 2
    length, exact = _longest_chordless_cycle(graph, budget)
    if not exact:
        return max(length or 2, graph.n) if length is not None else graph.n
    # A graph with a cycle always has a chordless cycle.
    assert length is not None
    return length


def cyclomatic_characteristic_upper_bound(graph: Graph) -> int:
    """An upper bound on ``cyclo(g)``.

    ``cyclo(g)`` is the length of the longest cycle in a *shortest* maximal
    cycle basis; any particular maximal cycle basis therefore upper-bounds
    it.  We use the BFS fundamental-cycle basis, and clamp by ``n`` (the
    bound the paper itself uses to argue ``K > n >= cyclo(g)``).  For acyclic
    graphs the value is ``2`` by definition.
    """
    if not has_cycle(graph):
        return 2
    cycles = fundamental_cycles(graph)
    longest = max((len(c) for c in cycles), default=2)
    return min(longest, graph.n)

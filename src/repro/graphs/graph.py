"""Immutable undirected communication graphs.

The paper models the distributed system as a communication graph
``g = (V, E)`` whose vertices are processes and whose edges are pairs of
processes that can atomically read each other's state (Section 2).  This
module provides the :class:`Graph` value type used by every other package:
it is immutable, hashable on demand, and exposes the handful of structural
queries the protocols need (neighbourhoods, distances, connectivity).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import GraphError
from ..types import Edge, VertexId

__all__ = ["Graph"]


def _normalize_edge(u: VertexId, v: VertexId) -> Edge:
    """Return a canonical representation of the undirected edge ``{u, v}``."""
    a, b = sorted((u, v), key=repr)
    return (a, b)


class Graph:
    """A finite, simple, undirected communication graph.

    Instances are immutable: all mutating "operations" return new graphs.
    Vertices may be any hashable objects; edges are unordered pairs of
    distinct vertices.  Self-loops and parallel edges are rejected, matching
    the model of the paper.

    Parameters
    ----------
    vertices:
        Iterable of vertex identifiers.  Duplicates are ignored.
    edges:
        Iterable of 2-tuples ``(u, v)``.  Both endpoints must appear in
        ``vertices``; ``u != v`` is required.

    Examples
    --------
    >>> g = Graph([0, 1, 2], [(0, 1), (1, 2)])
    >>> g.n, g.m
    (3, 2)
    >>> sorted(g.neighbors(1))
    [0, 2]
    """

    __slots__ = ("_vertices", "_adjacency", "_edges", "_hash")

    def __init__(self, vertices: Iterable[VertexId], edges: Iterable[Tuple[VertexId, VertexId]]):
        vertex_list: List[VertexId] = []
        seen = set()
        for v in vertices:
            if v not in seen:
                seen.add(v)
                vertex_list.append(v)
        self._vertices: Tuple[VertexId, ...] = tuple(vertex_list)
        adjacency: Dict[VertexId, set] = {v: set() for v in self._vertices}
        edge_set = set()
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop on vertex {u!r} is not allowed")
            if u not in adjacency or v not in adjacency:
                raise GraphError(f"edge ({u!r}, {v!r}) references an unknown vertex")
            edge_set.add(_normalize_edge(u, v))
            adjacency[u].add(v)
            adjacency[v].add(u)
        self._adjacency: Dict[VertexId, FrozenSet[VertexId]] = {
            v: frozenset(neigh) for v, neigh in adjacency.items()
        }
        self._edges: FrozenSet[Edge] = frozenset(edge_set)
        self._hash: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def vertices(self) -> Tuple[VertexId, ...]:
        """The vertices, in insertion order."""
        return self._vertices

    @property
    def edges(self) -> FrozenSet[Edge]:
        """The set of undirected edges (each as a canonical ordered pair)."""
        return self._edges

    @property
    def n(self) -> int:
        """Number of vertices (``n`` in the paper)."""
        return len(self._vertices)

    @property
    def m(self) -> int:
        """Number of edges (``m`` in the paper)."""
        return len(self._edges)

    def neighbors(self, v: VertexId) -> FrozenSet[VertexId]:
        """The open neighbourhood ``neig(v)``."""
        try:
            return self._adjacency[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v!r}") from None

    def degree(self, v: VertexId) -> int:
        """Number of neighbours of ``v``."""
        return len(self.neighbors(v))

    def has_vertex(self, v: VertexId) -> bool:
        """Whether ``v`` is a vertex of the graph."""
        return v in self._adjacency

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        """Whether ``{u, v}`` is an edge of the graph."""
        if u not in self._adjacency or v not in self._adjacency:
            return False
        return v in self._adjacency[u]

    def adjacency(self) -> Mapping[VertexId, FrozenSet[VertexId]]:
        """The adjacency map (read-only)."""
        return dict(self._adjacency)

    def __contains__(self, v: object) -> bool:
        try:
            return v in self._adjacency
        except TypeError:
            return False

    def __iter__(self) -> Iterator[VertexId]:
        return iter(self._vertices)

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return set(self._vertices) == set(other._vertices) and self._edges == other._edges

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((frozenset(self._vertices), self._edges))
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    # ------------------------------------------------------------------ #
    # Traversal / distances
    # ------------------------------------------------------------------ #
    def bfs_distances(self, source: VertexId) -> Dict[VertexId, int]:
        """Shortest-path distances (hop count) from ``source``.

        Vertices unreachable from ``source`` are absent from the result.
        """
        if source not in self._adjacency:
            raise GraphError(f"unknown vertex {source!r}")
        dist: Dict[VertexId, int] = {source: 0}
        frontier: List[VertexId] = [source]
        while frontier:
            nxt: List[VertexId] = []
            for u in frontier:
                for w in self._adjacency[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        return dist

    def distance(self, u: VertexId, v: VertexId) -> int:
        """``dist(g, u, v)``: length of a shortest path between ``u`` and ``v``.

        Raises :class:`~repro.exceptions.GraphError` if the vertices are not
        connected.
        """
        dist = self.bfs_distances(u)
        if v not in dist:
            raise GraphError(f"vertices {u!r} and {v!r} are not connected")
        return dist[v]

    def ball(self, center: VertexId, radius: int) -> FrozenSet[VertexId]:
        """Vertices at distance at most ``radius`` from ``center``.

        This is the vertex set of the ``radius``-local state of Definition 7.
        """
        if radius < 0:
            raise GraphError("radius must be non-negative")
        dist = self.bfs_distances(center)
        return frozenset(v for v, d in dist.items() if d <= radius)

    def is_connected(self) -> bool:
        """Whether the graph is connected (true for the empty graph)."""
        if self.n == 0:
            return True
        return len(self.bfs_distances(self._vertices[0])) == self.n

    def connected_components(self) -> List[FrozenSet[VertexId]]:
        """The connected components, as frozensets of vertices."""
        remaining = set(self._vertices)
        components: List[FrozenSet[VertexId]] = []
        while remaining:
            start = next(iter(remaining))
            comp = frozenset(self.bfs_distances(start))
            components.append(comp)
            remaining -= comp
        return components

    # ------------------------------------------------------------------ #
    # Derived graphs
    # ------------------------------------------------------------------ #
    def subgraph(self, vertices: Iterable[VertexId]) -> "Graph":
        """The subgraph induced by ``vertices``.

        ``vertices`` may be any iterable (including a one-shot generator —
        it is materialized exactly once).
        """
        keep_set = set(vertices)
        for v in keep_set:
            if v not in self._adjacency:
                raise GraphError(f"unknown vertex {v!r}")
        keep = [v for v in self._vertices if v in keep_set]
        edges = [(u, v) for (u, v) in self._edges if u in keep_set and v in keep_set]
        return Graph(keep, edges)

    def with_edge(self, u: VertexId, v: VertexId) -> "Graph":
        """A copy of the graph with the edge ``{u, v}`` added."""
        return Graph(self._vertices, list(self._edges) + [(u, v)])

    def without_edge(self, u: VertexId, v: VertexId) -> "Graph":
        """A copy of the graph with the edge ``{u, v}`` removed."""
        target = _normalize_edge(u, v)
        if target not in self._edges:
            raise GraphError(f"edge ({u!r}, {v!r}) is not in the graph")
        return Graph(self._vertices, [e for e in self._edges if e != target])

    def relabel(self, mapping: Mapping[VertexId, VertexId]) -> "Graph":
        """Relabel vertices according to ``mapping`` (must be injective and
        cover every vertex)."""
        if set(mapping.keys()) != set(self._vertices):
            raise GraphError("relabelling must cover every vertex exactly")
        new_labels = list(mapping.values())
        if len(set(new_labels)) != len(new_labels):
            raise GraphError("relabelling must be injective")
        vertices = [mapping[v] for v in self._vertices]
        edges = [(mapping[u], mapping[v]) for (u, v) in self._edges]
        return Graph(vertices, edges)

    def sorted_vertices(self) -> Sequence[VertexId]:
        """Vertices sorted by ``repr`` — a deterministic order independent of
        insertion order, used by daemons and workload generators."""
        return sorted(self._vertices, key=repr)

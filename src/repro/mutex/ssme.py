"""SSME — the Speculatively Stabilizing Mutual Exclusion protocol (Algorithm 1).

SSME is the paper's main contribution.  It is *exactly* the asynchronous
unison protocol run with a particular clock and a privilege predicate layered
on top (the predicate never interferes with the rules):

* clock: ``cherry(alpha, K)`` with ``alpha = n`` and
  ``K = (2n - 1)(diam(g) + 1) + 2``;
* privilege: ``privileged_v  ≡  r_v = 2n + 2·diam(g)·id_v``.

The clock is large enough that, once the unison has stabilized (every pair
of registers within distance ``diam(g)``), at most one vertex can sit on a
privileged value — that is Theorem 1.  Because the privileged values are
placed ``2·diam(g)`` apart starting at ``2n``, the synchronous stabilization
time collapses to ``⌈diam(g)/2⌉`` (Theorem 2), which is optimal (Theorem 4).

Identities: the paper assumes ``ID = {0, ..., n-1}``.  The class accepts any
connected graph; if its vertex labels are not already ``0..n-1`` they are
mapped to identities through their sorted order.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Optional

from ..core import PrivilegeAware
from ..core.state import Configuration
from ..exceptions import ProtocolError
from ..graphs import Graph, diameter
from ..types import VertexId
from ..unison import AsynchronousUnison

__all__ = ["SSME", "ssme_clock_size", "ssme_privileged_value"]

#: Largest ``n`` at which a supplied ``diam`` is cross-checked against the
#: O(n²) exact diameter; larger instances trust the caller's constant.
_DIAM_VALIDATION_LIMIT = 512


def ssme_clock_size(n: int, diam: int) -> int:
    """The clock cycle length ``K = (2n - 1)(diam + 1) + 2`` of Algorithm 1."""
    if n < 1:
        raise ProtocolError("n must be >= 1")
    if diam < 0:
        raise ProtocolError("diam must be >= 0")
    return (2 * n - 1) * (diam + 1) + 2


def ssme_privileged_value(n: int, diam: int, identity: int) -> int:
    """The privileged clock value ``2n + 2·diam·id`` of vertex ``identity``."""
    if not 0 <= identity < n:
        raise ProtocolError(f"identity {identity} outside 0..{n - 1}")
    return 2 * n + 2 * diam * identity


class SSME(AsynchronousUnison, PrivilegeAware):
    """Speculatively Stabilizing Mutual Exclusion (Algorithm 1).

    Parameters
    ----------
    graph:
        Any connected communication graph (no ring assumption, unlike
        Dijkstra's protocol).
    diam:
        The diameter of ``graph``.  The paper treats it as a known constant
        of the system; when omitted it is computed from the graph.  A
        supplied value is cross-checked against the computed diameter only
        up to ``n = 512`` — beyond that the O(n²) BFS sweep would dominate
        construction, so the caller's constant is trusted (exactly the
        paper's stance: ``diam(g)`` is a system parameter, not something
        the protocol measures).

    Examples
    --------
    >>> from repro.graphs import ring_graph
    >>> protocol = SSME(ring_graph(5))
    >>> protocol.alpha, protocol.K
    (5, 29)
    >>> protocol.privileged_value(0)
    10
    """

    name = "SSME"

    #: Privileged values are spaced by vertex *identity* (``2n + 2·diam·id``),
    #: so automorphisms do not map executions of the mutual-exclusion layer
    #: to executions: the unison superclass's symmetry does not survive.
    vertex_symmetric = False

    def __init__(self, graph: Graph, diam: Optional[int] = None) -> None:
        computed_diam = diameter(graph) if diam is None else diam
        if diam is not None and graph.n <= _DIAM_VALIDATION_LIMIT:
            actual = diameter(graph)
            if diam != actual:
                raise ProtocolError(
                    f"supplied diameter {diam} does not match the graph "
                    f"diameter {actual}"
                )
        elif diam is not None and diam < 0:
            raise ProtocolError(f"diameter must be >= 0, got {diam}")
        n = graph.n
        # alpha = n >= hole(g) - 2 and K > n >= cyclo(g) always hold, so the
        # expensive exact parameter validation of the unison base class is
        # unnecessary here.
        super().__init__(
            graph,
            alpha=n,
            K=ssme_clock_size(n, computed_diam),
            validate_parameters=False,
        )
        self._diam = computed_diam
        self._identities = self._assign_identities(graph)
        self._privileged_values: Dict[VertexId, int] = {
            vertex: ssme_privileged_value(n, computed_diam, identity)
            for vertex, identity in self._identities.items()
        }
        # (vertex_order, pv row vector) cache for the array privilege tests.
        self._pv_rows = None

    @staticmethod
    def _assign_identities(graph: Graph) -> Dict[VertexId, int]:
        labels = list(graph.vertices)
        if all(isinstance(v, int) for v in labels) and set(labels) == set(range(graph.n)):
            return {v: int(v) for v in labels}
        return {v: index for index, v in enumerate(sorted(labels, key=repr))}

    # ------------------------------------------------------------------ #
    # Parameters
    # ------------------------------------------------------------------ #
    @property
    def diam(self) -> int:
        """The diameter constant ``diam(g)`` baked into the protocol."""
        return self._diam

    def identity(self, vertex: VertexId) -> int:
        """The identity ``id_v ∈ {0, ..., n-1}`` of ``vertex``."""
        try:
            return self._identities[vertex]
        except KeyError:
            raise ProtocolError(f"unknown vertex {vertex!r}") from None

    def vertex_with_identity(self, identity: int) -> VertexId:
        """The vertex whose identity is ``identity``."""
        for vertex, vid in self._identities.items():
            if vid == identity:
                return vertex
        raise ProtocolError(f"no vertex has identity {identity}")

    def privileged_value(self, vertex: VertexId) -> int:
        """The clock value at which ``vertex`` is privileged."""
        try:
            return self._privileged_values[vertex]
        except KeyError:
            raise ProtocolError(f"unknown vertex {vertex!r}") from None

    def synchronous_stabilization_bound(self) -> int:
        """The Theorem 2 bound ``⌈diam(g)/2⌉``."""
        return math.ceil(self._diam / 2)

    def unfair_stabilization_bound(self) -> int:
        """The Theorem 3 bound ``2·diam·n³ + (alpha+1)·n² + (alpha - 2·diam)·n``
        (with ``alpha = n``), an upper bound on the stabilization time under
        the unfair distributed daemon."""
        n = self.graph.n
        return 2 * self._diam * n**3 + (self.alpha + 1) * n**2 + (self.alpha - 2 * self._diam) * n

    # ------------------------------------------------------------------ #
    # Privilege
    # ------------------------------------------------------------------ #
    def is_privileged(self, configuration: Configuration, vertex: VertexId) -> bool:
        """``privileged_v ≡ (r_v = 2n + 2·diam(g)·id_v)``."""
        return configuration[vertex] == self.privileged_value(vertex)

    def privileged_vertices(self, configuration: Configuration) -> FrozenSet[VertexId]:
        """All privileged vertices of ``configuration``."""
        return frozenset(
            v
            for v in self.graph.vertices
            if configuration[v] == self._privileged_values[v]
        )

    def privileged_count_array(self, view) -> int:
        """Number of privileged vertices of a live array-state view.

        Vectorized equivalent of ``len(privileged_vertices(view))`` for the
        :class:`~repro.core.vector.ArrayStateView` the array backends hand
        to ``stop_when`` predicates under light traces — one whole-array
        comparison against the cached per-row privileged values instead of
        ``n`` mapping lookups.
        """
        import numpy as np

        pv = self._privileged_value_row(view.vertex_order)
        return int(np.count_nonzero(view.raw_states()[:, 0] == pv))

    def privileged_rows(self, rows, order):
        """Batch privilege matrix for the exact checker and the superstep
        engine's safety monitoring: a vertex is privileged exactly when its
        register holds its privileged value."""
        return rows[:, :, 0] == self._privileged_value_row(order)

    def _privileged_value_row(self, order):
        """The privileged values in ``order`` as an int64 vector, cached on
        the identity of ``order`` (engines pass one tuple for a whole run)."""
        import numpy as np

        cached = self._pv_rows
        if cached is None or cached[0] is not order:
            pv = np.fromiter(
                (self._privileged_values[v] for v in order),
                dtype=np.int64,
                count=len(order),
            )
            self._pv_rows = cached = (order, pv)
        return cached[1]

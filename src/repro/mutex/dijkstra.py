"""Dijkstra's K-state self-stabilizing token ring (the 1974 baseline).

This is the protocol the paper positions SSME against: the seminal
self-stabilizing mutual-exclusion protocol, which only operates on rings and
stabilizes in ``Θ(n²)`` steps under the unfair distributed daemon but in
``n`` steps under the synchronous daemon — making it, as Section 3 notes,
*accidentally* speculatively stabilizing.

The classical formulation: processes ``p_0 .. p_{n-1}`` are arranged on a
unidirectional ring and hold a counter ``x_i ∈ {0, ..., K-1}``.  The
distinguished *bottom* machine ``p_0`` is privileged when its counter equals
its predecessor's (``x_0 = x_{n-1}``) and increments it modulo ``K`` when
activated; every other machine is privileged when its counter differs from
its predecessor's and copies the predecessor's value when activated.  With
``K >= n + 1`` (our default) the protocol stabilizes under any daemon.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from ..core import LocalView, PrivilegeAware, Protocol, Rule
from ..core.state import Configuration
from ..exceptions import ProtocolError
from ..graphs import Graph, is_ring, ring_graph
from ..types import VertexId

__all__ = ["DijkstraTokenRing"]


class DijkstraTokenRing(Protocol, PrivilegeAware):
    """Dijkstra's K-state mutual exclusion protocol on a ring.

    Parameters
    ----------
    graph:
        A ring (cycle) graph.  Rings on fewer than three vertices are
        accepted for completeness (``n = 2`` degenerates to a single edge).
    K:
        Number of counter states.  Defaults to ``n + 1``, which guarantees
        self-stabilization under every daemon considered in the paper.
    bottom:
        The distinguished machine.  Defaults to the smallest vertex label.

    Examples
    --------
    >>> protocol = DijkstraTokenRing.on_ring(5)
    >>> protocol.K
    6
    """

    name = "dijkstra-token-ring"

    #: Both action branches are closed over the counter domain: the bottom
    #: machine increments modulo K and every other machine copies its
    #: predecessor's (legal) counter, so engines may skip re-validating
    #: fired states.
    actions_preserve_validity = True

    RULE_MOVE = "T"

    def __init__(
        self,
        graph: Graph,
        K: Optional[int] = None,
        bottom: Optional[VertexId] = None,
    ) -> None:
        super().__init__(graph)
        if graph.n >= 3 and not is_ring(graph):
            raise ProtocolError("Dijkstra's protocol requires a ring communication graph")
        if graph.n < 2:
            raise ProtocolError("Dijkstra's protocol requires at least two processes")
        self._K = K if K is not None else graph.n + 1
        if self._K < 2:
            raise ProtocolError(f"K must be >= 2, got {self._K}")
        self._bottom = bottom if bottom is not None else graph.sorted_vertices()[0]
        if self._bottom not in graph:
            raise ProtocolError(f"bottom vertex {self._bottom!r} is not in the graph")
        self._ring_order = self._compute_ring_order()
        self._predecessor = self._compute_predecessors()
        self._rules = [Rule(self.RULE_MOVE, self._guard, self._action)]
        # (vertex_order, pred positions, bottom row) cache for the array
        # privilege tests.
        self._array_privilege = None

    @classmethod
    def on_ring(cls, n: int, K: Optional[int] = None) -> "DijkstraTokenRing":
        """Convenience constructor on the standard ring ``ring_graph(n)``."""
        return cls(ring_graph(n), K=K)

    # ------------------------------------------------------------------ #
    # Ring structure
    # ------------------------------------------------------------------ #
    def _compute_ring_order(self) -> List[VertexId]:
        graph = self.graph
        if graph.n == 2:
            other = next(iter(graph.neighbors(self._bottom)))
            return [self._bottom, other]
        order = [self._bottom]
        previous = None
        current = self._bottom
        while len(order) < graph.n:
            neighbors = sorted(graph.neighbors(current), key=repr)
            nxt = None
            for candidate in neighbors:
                if candidate != previous:
                    nxt = candidate
                    break
            if nxt is None:
                raise ProtocolError("failed to orient the ring")
            order.append(nxt)
            previous, current = current, nxt
        return order

    def _compute_predecessors(self) -> Dict[VertexId, VertexId]:
        order = self._ring_order
        return {order[i]: order[i - 1] for i in range(len(order))}

    @property
    def K(self) -> int:
        """Number of counter states."""
        return self._K

    @property
    def bottom(self) -> VertexId:
        """The distinguished bottom machine."""
        return self._bottom

    @property
    def ring_order(self) -> Sequence[VertexId]:
        """The vertices in ring order, starting at the bottom machine."""
        return tuple(self._ring_order)

    def predecessor(self, vertex: VertexId) -> VertexId:
        """The ring predecessor of ``vertex`` (the machine it reads from)."""
        try:
            return self._predecessor[vertex]
        except KeyError:
            raise ProtocolError(f"unknown vertex {vertex!r}") from None

    # ------------------------------------------------------------------ #
    # Rules
    # ------------------------------------------------------------------ #
    def _guard(self, view: LocalView) -> bool:
        predecessor_state = view.neighbor_states[self._predecessor[view.vertex]]
        if view.vertex == self._bottom:
            return view.state == predecessor_state
        return view.state != predecessor_state

    def _action(self, view: LocalView) -> int:
        predecessor_state = view.neighbor_states[self._predecessor[view.vertex]]
        if view.vertex == self._bottom:
            return (view.state + 1) % self._K
        return predecessor_state

    def rules(self) -> Sequence[Rule]:
        return self._rules

    def vertex_state_space(self, vertex: VertexId) -> Sequence[int]:
        """Every machine's counter ranges over ``{0, ..., K-1}``."""
        return range(self._K)

    def array_codec(self):
        """States are plain counter ints — the trivial width-1 codec."""
        from ..core.vector import IntCodec, numpy_available

        if not numpy_available():
            return None
        return IntCodec()

    def array_kernel(self):
        """The vectorized predecessor-comparison kernel."""
        from ..core.vector import numpy_available

        if not numpy_available():
            return None
        from .array_kernel import DijkstraArrayKernel

        return DijkstraArrayKernel(self)

    def random_state(self, vertex: VertexId, rng: random.Random) -> int:
        return rng.randrange(self._K)

    def default_state(self, vertex: VertexId) -> int:
        return 0

    def validate_state(self, vertex: VertexId, state) -> None:
        if not isinstance(state, int) or not 0 <= state < self._K:
            raise ProtocolError(
                f"state {state!r} of vertex {vertex!r} outside 0..{self._K - 1}"
            )

    # ------------------------------------------------------------------ #
    # Privilege
    # ------------------------------------------------------------------ #
    def is_privileged(self, configuration: Configuration, vertex: VertexId) -> bool:
        """In Dijkstra's protocol, privilege and enabledness coincide."""
        predecessor_state = configuration[self._predecessor[vertex]]
        if vertex == self._bottom:
            return configuration[vertex] == predecessor_state
        return configuration[vertex] != predecessor_state

    def privileged_count_array(self, view) -> int:
        """Number of privileged vertices of a live array-state view.

        Vectorized privilege count for the
        :class:`~repro.core.vector.ArrayStateView` the array backends hand
        to ``stop_when`` predicates under light traces: one gather against
        the cached predecessor-position vector (non-bottom machines are
        privileged iff their counter differs from their predecessor's, the
        bottom machine iff it matches).
        """
        import numpy as np

        pred, bottom = self._privilege_positions(view.vertex_order)
        s = view.raw_states()[:, 0]
        differs = s != s[pred]
        count = int(np.count_nonzero(differs))
        return count - 1 if differs[bottom] else count + 1

    def privileged_rows(self, rows, order):
        """Batch privilege matrix for the exact checker and the superstep
        engine's safety monitoring: non-bottom machines are privileged iff
        their counter differs from their predecessor's, the bottom machine
        iff it matches."""
        pred, bottom = self._privilege_positions(order)
        values = rows[:, :, 0]
        differs = values != values[:, pred]
        differs[:, bottom] = ~differs[:, bottom]
        return differs

    def _privilege_positions(self, order):
        """``(pred, bottom)`` for columns in ``order``: every vertex's
        predecessor position as an int64 vector, and the bottom machine's
        position.  Cached on the identity of ``order`` (engines pass one
        tuple for a whole run)."""
        import numpy as np

        cached = self._array_privilege
        if cached is None or cached[0] is not order:
            position = {v: i for i, v in enumerate(order)}
            pred = np.fromiter(
                (position[self._predecessor[v]] for v in order),
                dtype=np.int64,
                count=len(order),
            )
            self._array_privilege = cached = (order, pred, position[self._bottom])
        return cached[1], cached[2]

    def legitimate_configuration(self, value: int = 0) -> Configuration:
        """The canonical legitimate configuration: every counter equal."""
        if not 0 <= value < self._K:
            raise ProtocolError(f"value {value} outside 0..{self._K - 1}")
        return self.configuration({v: value for v in self.graph.vertices})

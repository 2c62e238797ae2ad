"""The min+1 self-stabilizing BFS spanning-tree protocol (Huang & Chen).

Section 3 of the paper cites this protocol as an accidentally speculative
one: its stabilization time is ``Θ(n²)`` steps under the unfair distributed
daemon but ``Θ(diam(g))`` steps under the synchronous daemon.

The protocol is the classical *min+1* rule: a distinguished root keeps its
level at 0; every other vertex sets its level to one plus the minimum level
among its neighbours.  Levels are drawn from the bounded domain
``{0, ..., n}`` (a corrupted level can never exceed ``n``, and the bound
keeps states finite).  The protocol is silent: once every level equals the
true BFS distance from the root no rule is enabled.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Sequence

from ..core import LocalView, Protocol, Rule, SilentSpecification
from ..core.state import Configuration
from ..exceptions import ProtocolError, SpecificationError
from ..graphs import Graph
from ..types import VertexId

__all__ = ["BfsSpanningTree", "BfsTreeSpec"]


class BfsSpanningTree(Protocol):
    """The min+1 BFS spanning-tree protocol.

    Parameters
    ----------
    graph:
        Connected communication graph.
    root:
        The distinguished root vertex (defaults to the smallest label).
    """

    name = "bfs-min-plus-one"

    #: Both actions write ``0`` or ``min(min_neighbor + 1, n)`` — always a
    #: legal level — so the vectorized firing path may skip re-validation.
    actions_preserve_validity = True

    RULE_ROOT = "R0"
    RULE_MIN_PLUS_ONE = "M1"

    def __init__(self, graph: Graph, root: Optional[VertexId] = None) -> None:
        super().__init__(graph)
        self._root = root if root is not None else graph.sorted_vertices()[0]
        if self._root not in graph:
            raise ProtocolError(f"root {self._root!r} is not a vertex of the graph")
        self._max_level = graph.n
        self._rules = [
            Rule(self.RULE_ROOT, self._root_guard, lambda view: 0),
            Rule(self.RULE_MIN_PLUS_ONE, self._min_plus_one_guard, self._min_plus_one_action),
        ]

    @property
    def root(self) -> VertexId:
        """The distinguished root."""
        return self._root

    @property
    def max_level(self) -> int:
        """The cap of the level domain (``n``)."""
        return self._max_level

    # ------------------------------------------------------------------ #
    # Rules
    # ------------------------------------------------------------------ #
    def _target_level(self, view: LocalView) -> int:
        minimum = min(view.neighbor_states.values())
        return min(minimum + 1, self._max_level)

    def _root_guard(self, view: LocalView) -> bool:
        return view.vertex == self._root and view.state != 0

    def _min_plus_one_guard(self, view: LocalView) -> bool:
        if view.vertex == self._root:
            return False
        return view.state != self._target_level(view)

    def _min_plus_one_action(self, view: LocalView) -> int:
        return self._target_level(view)

    def rules(self) -> Sequence[Rule]:
        return self._rules

    def random_state(self, vertex: VertexId, rng: random.Random) -> int:
        return rng.randrange(self._max_level + 1)

    def default_state(self, vertex: VertexId) -> int:
        return self._max_level

    def validate_state(self, vertex: VertexId, state) -> None:
        if not isinstance(state, int) or not 0 <= state <= self._max_level:
            raise ProtocolError(
                f"level {state!r} of vertex {vertex!r} outside 0..{self._max_level}"
            )

    def vertex_state_space(self, vertex: VertexId) -> Sequence[int]:
        """The full level domain — makes the instance exactly checkable."""
        del vertex
        return tuple(range(self._max_level + 1))

    # ------------------------------------------------------------------ #
    # Array-state capability
    # ------------------------------------------------------------------ #
    def array_codec(self):
        """Levels are plain ints — the trivial width-1 codec."""
        from ..core.vector import IntCodec

        return IntCodec()

    def array_kernel(self):
        """The vectorized R0/M1 kernel."""
        from .array_kernel import BfsTreeArrayKernel

        return BfsTreeArrayKernel(self)

    # ------------------------------------------------------------------ #
    # Output
    # ------------------------------------------------------------------ #
    def true_levels(self) -> Dict[VertexId, int]:
        """The correct output: BFS distances from the root."""
        return self.graph.bfs_distances(self._root)

    def parents(self, configuration: Configuration) -> Dict[VertexId, Optional[VertexId]]:
        """A parent map induced by the levels (smallest-label neighbour one
        level below); ``None`` for the root and for vertices whose level is
        inconsistent."""
        parents: Dict[VertexId, Optional[VertexId]] = {}
        for vertex in self.graph.vertices:
            if vertex == self._root:
                parents[vertex] = None
                continue
            level = configuration[vertex]
            candidates = [
                u
                for u in sorted(self.graph.neighbors(vertex), key=repr)
                if configuration[u] == level - 1
            ]
            parents[vertex] = candidates[0] if candidates else None
        return parents


class BfsTreeSpec(SilentSpecification):
    """Silent specification: every level equals the true BFS distance."""

    name = "spec_BFS"

    def __init__(self, protocol: BfsSpanningTree) -> None:
        if not isinstance(protocol, BfsSpanningTree):
            raise SpecificationError("BfsTreeSpec requires a BfsSpanningTree protocol")
        self._protocol = protocol
        self._truth = protocol.true_levels()

    def is_legitimate(self, configuration: Configuration, protocol: Protocol) -> bool:
        del protocol
        return all(
            configuration[vertex] == level for vertex, level in self._truth.items()
        )

"""The self-stabilizing maximal matching of Manne, Mjelde, Pilard & Tixeuil.

Section 3 of the paper lists this protocol as another accidentally
speculative one: ``4n + 2m`` steps under the unfair distributed daemon
versus ``2n + 1`` steps under the synchronous daemon.

Each vertex ``v`` holds a pointer ``p_v ∈ neig(v) ∪ {None}`` and a boolean
``m_v`` caching whether it is married (its pointer is reciprocated).  The
four rules are the classical ones:

* **Update** — fix the cached ``m_v`` bit;
* **Marriage** — a free vertex pointed at by a neighbour points back;
* **Seduction** — a free vertex that nobody points at proposes to a larger
  free, unmarried neighbour;
* **Abandonment** — a vertex pointing at a neighbour that will never point
  back (married, or of smaller identity) withdraws its pointer.

Identities are the vertex labels (compared through their repr order when the
labels are not integers).  The protocol is silent; its terminal
configurations encode maximal matchings.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..core import LocalView, Protocol, Rule, SilentSpecification
from ..core.state import Configuration
from ..exceptions import ProtocolError, SpecificationError
from ..graphs import Graph
from ..types import VertexId

__all__ = ["MatchingState", "MaximalMatching", "MaximalMatchingSpec"]


class MatchingState:
    """Immutable local state ``(pointer, married)`` of a vertex."""

    __slots__ = ("pointer", "married")

    def __init__(self, pointer: Optional[VertexId], married: bool) -> None:
        self.pointer = pointer
        self.married = bool(married)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatchingState):
            return NotImplemented
        return self.pointer == other.pointer and self.married == other.married

    def __hash__(self) -> int:
        return hash((self.pointer, self.married))

    def __repr__(self) -> str:
        return f"MatchingState(pointer={self.pointer!r}, married={self.married})"


class MaximalMatching(Protocol):
    """The Manne et al. self-stabilizing maximal matching protocol."""

    name = "maximal-matching"

    #: Every action writes ``None`` or a neighbour as the pointer and a
    #: plain bool as the cache bit — always a legal :class:`MatchingState`
    #: — so the vectorized firing path may skip re-validation.
    actions_preserve_validity = True

    RULE_UPDATE = "Update"
    RULE_MARRIAGE = "Marriage"
    RULE_SEDUCTION = "Seduction"
    RULE_ABANDONMENT = "Abandonment"

    def __init__(self, graph: Graph) -> None:
        super().__init__(graph)
        self._order = {v: index for index, v in enumerate(graph.sorted_vertices())}
        self._rules = [
            Rule(self.RULE_UPDATE, self._update_guard, self._update_action),
            Rule(self.RULE_MARRIAGE, self._marriage_guard, self._marriage_action),
            Rule(self.RULE_SEDUCTION, self._seduction_guard, self._seduction_action),
            Rule(self.RULE_ABANDONMENT, self._abandonment_guard, self._abandonment_action),
        ]

    # ------------------------------------------------------------------ #
    # Identity order
    # ------------------------------------------------------------------ #
    def precedes(self, u: VertexId, v: VertexId) -> bool:
        """Whether ``u`` has a smaller identity than ``v``."""
        return self._order[u] < self._order[v]

    # ------------------------------------------------------------------ #
    # Predicates
    # ------------------------------------------------------------------ #
    @staticmethod
    def _is_married(view: LocalView) -> bool:
        state: MatchingState = view.state
        if state.pointer is None:
            return False
        partner = view.neighbor_states.get(state.pointer)
        return partner is not None and partner.pointer == view.vertex

    def _cache_correct(self, view: LocalView) -> bool:
        state: MatchingState = view.state
        return state.married == self._is_married(view)

    def _suitors(self, view: LocalView) -> List[VertexId]:
        """Neighbours currently pointing at the vertex."""
        return [
            u
            for u, neighbor_state in view.neighbor_states.items()
            if neighbor_state.pointer == view.vertex
        ]

    def _candidates(self, view: LocalView) -> List[VertexId]:
        """Free, unmarried, larger-identity neighbours a free vertex may
        propose to (Seduction)."""
        return [
            u
            for u, neighbor_state in view.neighbor_states.items()
            if neighbor_state.pointer is None
            and not neighbor_state.married
            and self.precedes(view.vertex, u)
        ]

    # ------------------------------------------------------------------ #
    # Rules
    # ------------------------------------------------------------------ #
    def _update_guard(self, view: LocalView) -> bool:
        return not self._cache_correct(view)

    def _update_action(self, view: LocalView) -> MatchingState:
        state: MatchingState = view.state
        return MatchingState(pointer=state.pointer, married=self._is_married(view))

    def _marriage_guard(self, view: LocalView) -> bool:
        state: MatchingState = view.state
        return (
            self._cache_correct(view)
            and state.pointer is None
            and bool(self._suitors(view))
        )

    def _marriage_action(self, view: LocalView) -> MatchingState:
        suitor = min(self._suitors(view), key=lambda u: self._order[u])
        return MatchingState(pointer=suitor, married=view.state.married)

    def _seduction_guard(self, view: LocalView) -> bool:
        state: MatchingState = view.state
        return (
            self._cache_correct(view)
            and state.pointer is None
            and not self._suitors(view)
            and bool(self._candidates(view))
        )

    def _seduction_action(self, view: LocalView) -> MatchingState:
        candidate = max(self._candidates(view), key=lambda u: self._order[u])
        return MatchingState(pointer=candidate, married=view.state.married)

    def _abandonment_guard(self, view: LocalView) -> bool:
        state: MatchingState = view.state
        if not self._cache_correct(view) or state.pointer is None:
            return False
        partner = view.neighbor_states[state.pointer]
        if partner.pointer == view.vertex:
            return False
        return partner.married or self.precedes(state.pointer, view.vertex)

    def _abandonment_action(self, view: LocalView) -> MatchingState:
        return MatchingState(pointer=None, married=view.state.married)

    def rules(self) -> Sequence[Rule]:
        return self._rules

    # ------------------------------------------------------------------ #
    # States
    # ------------------------------------------------------------------ #
    def random_state(self, vertex: VertexId, rng: random.Random) -> MatchingState:
        neighbors = sorted(self.graph.neighbors(vertex), key=repr)
        pointer = rng.choice([None] + neighbors)
        return MatchingState(pointer=pointer, married=rng.random() < 0.5)

    def default_state(self, vertex: VertexId) -> MatchingState:
        return MatchingState(pointer=None, married=False)

    def validate_state(self, vertex: VertexId, state) -> None:
        if not isinstance(state, MatchingState):
            raise ProtocolError(f"state of {vertex!r} must be a MatchingState")
        if state.pointer is not None and state.pointer not in self.graph.neighbors(vertex):
            raise ProtocolError(
                f"pointer {state.pointer!r} of vertex {vertex!r} is not a neighbour"
            )

    def vertex_state_space(self, vertex: VertexId) -> Sequence[MatchingState]:
        """Every ``(pointer, married)`` pair — makes the instance exactly
        checkable (``2 * (deg(v) + 1)`` states per vertex)."""
        pointers = [None] + sorted(self.graph.neighbors(vertex), key=repr)
        return tuple(
            MatchingState(pointer=pointer, married=married)
            for pointer in pointers
            for married in (False, True)
        )

    # ------------------------------------------------------------------ #
    # Array-state capability
    # ------------------------------------------------------------------ #
    def array_codec(self):
        """The width-2 (pointer rank, married bit) codec."""
        from .array_kernel import MatchingCodec

        return MatchingCodec(self)

    def array_kernel(self):
        """The vectorized Update/Marriage/Seduction/Abandonment kernel."""
        from .array_kernel import MatchingArrayKernel

        return MatchingArrayKernel(self)

    # ------------------------------------------------------------------ #
    # Output
    # ------------------------------------------------------------------ #
    def matched_edges(self, configuration: Configuration) -> FrozenSet[Tuple[VertexId, VertexId]]:
        """The matching encoded by ``configuration``: mutually pointing pairs."""
        edges: Set[Tuple[VertexId, VertexId]] = set()
        for vertex in self.graph.vertices:
            state: MatchingState = configuration[vertex]
            if state.pointer is None:
                continue
            partner_state: MatchingState = configuration[state.pointer]
            if partner_state.pointer == vertex:
                edge = tuple(sorted((vertex, state.pointer), key=repr))
                edges.add(edge)  # type: ignore[arg-type]
        return frozenset(edges)

    def is_maximal_matching(self, configuration: Configuration) -> bool:
        """Whether the encoded matching is a maximal matching of the graph."""
        matched_edges = self.matched_edges(configuration)
        matched_vertices: Set[VertexId] = set()
        for u, v in matched_edges:
            if u in matched_vertices or v in matched_vertices:
                return False
            matched_vertices.update((u, v))
        for u, v in self.graph.edges:
            if u not in matched_vertices and v not in matched_vertices:
                return False
        return True


class MaximalMatchingSpec(SilentSpecification):
    """Silent specification: the configuration encodes a maximal matching and
    contains no dangling pointer or stale cache bit."""

    name = "spec_MM"

    def __init__(self, protocol: MaximalMatching) -> None:
        if not isinstance(protocol, MaximalMatching):
            raise SpecificationError("MaximalMatchingSpec requires a MaximalMatching protocol")
        self._protocol = protocol

    def is_legitimate(self, configuration: Configuration, protocol: Protocol) -> bool:
        del protocol
        matching_protocol = self._protocol
        if not matching_protocol.is_maximal_matching(configuration):
            return False
        for vertex in matching_protocol.graph.vertices:
            state: MatchingState = configuration[vertex]
            if state.pointer is not None:
                partner: MatchingState = configuration[state.pointer]
                if partner.pointer != vertex:
                    return False
            married = (
                state.pointer is not None
                and configuration[state.pointer].pointer == vertex
            )
            if state.married != married:
                return False
        return True

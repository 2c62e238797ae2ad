"""Daemon-class transition systems over packed configuration keys.

Sampling runs one schedule per seed; exact verification must consider *all*
schedules a daemon class admits.  A :class:`TransitionSystem` expands, per
configuration, the full successor set induced by a daemon class:

* ``"synchronous"`` — the unique dense step (every enabled vertex fires);
* ``"central"`` — one enabled vertex per step (all ``|enabled|`` choices);
* ``"distributed"`` — every non-empty subset of the enabled set, the unfair
  distributed daemon ``ud`` of the paper (``2^|enabled| - 1`` choices,
  guarded by a configurable cap so the expansion stays explicit-state).

Successors are computed with the same single-step primitives every
simulation engine is built on — :meth:`repro.core.Protocol.prepared_step`
evaluates each guard once per vertex, :meth:`repro.core.Protocol.apply`
fires a selection on the shared evaluations — so the expanded relation is
the operational semantics of Section 2 by construction, not a re-encoding
of it.  Terminal configurations (no enabled vertex) get a self-loop: an
execution that reaches one repeats it forever, which is exactly how the
stabilization semantics treats them.

The expansion works in two modes.  :meth:`TransitionSystem.explore` builds
the *reachable closure* of an initial region — every configuration any
schedule of the class can reach from the region — which is exact for
worst-case analysis over that region while never enumerating the full
product space (SSME's clock makes the product astronomically large even on
8 vertices, but the closed region a workload reaches stays tiny).
:meth:`TransitionSystem.explore_full` expands the entire product space,
giving verification over *all* initial configurations on instances small
enough to enumerate.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..core.protocol import Protocol
from ..core.specification import Specification
from ..core.state import Configuration
from ..exceptions import VerificationError
from ..types import VertexId
from .statespace import StateSpace

__all__ = [
    "DAEMON_CLASSES",
    "ExploredSystem",
    "TransitionSystem",
    "daemon_class_selections",
]

#: The daemon classes the checker can expand, weakest to strongest.
DAEMON_CLASSES = ("synchronous", "central", "distributed")

#: Default ceiling on reachable-region exploration.
DEFAULT_MAX_STATES = 500_000

#: Default ceiling on per-configuration selections (distributed class).
DEFAULT_MAX_SELECTIONS = 256


def daemon_class_selections(
    daemon_class: str,
    enabled: FrozenSet[VertexId],
    max_selections: int = DEFAULT_MAX_SELECTIONS,
) -> List[FrozenSet[VertexId]]:
    """Every selection the daemon class admits for ``enabled`` (non-empty).

    The order is deterministic (repr-sorted vertices, subsets by size then
    lexicographically), so explorations — and therefore every exact value
    derived from them — are reproducible.
    """
    if daemon_class not in DAEMON_CLASSES:
        raise VerificationError(
            f"unknown daemon class {daemon_class!r}; known: {', '.join(DAEMON_CLASSES)}"
        )
    if not enabled:
        return []
    if daemon_class == "synchronous":
        return [enabled]
    ordered = sorted(enabled, key=repr)
    if daemon_class == "central":
        return [frozenset({vertex}) for vertex in ordered]
    count = (1 << len(ordered)) - 1
    if count > max_selections:
        raise VerificationError(
            f"distributed daemon class admits {count} selections for an "
            f"enabled set of {len(ordered)} vertices, above the cap of "
            f"{max_selections}; raise max_selections or verify a smaller "
            "instance"
        )
    return [
        frozenset(combination)
        for size in range(1, len(ordered) + 1)
        for combination in itertools.combinations(ordered, size)
    ]


class ExploredSystem:
    """An explicitly expanded transition system over packed keys.

    Attributes
    ----------
    keys:
        Explored keys in discovery order.
    successors:
        ``key -> tuple of successor keys`` (deduplicated, deterministic
        order; terminal keys map to ``(key,)``).
    safe:
        ``key -> bool``, the specification's safety verdict per state.
    initial_keys:
        The keys of the initial region (all keys in exhaustive mode).
    """

    __slots__ = (
        "space",
        "daemon_class",
        "keys",
        "successors",
        "safe",
        "initial_keys",
        "terminal_keys",
        "exhaustive",
    )

    def __init__(
        self,
        space: StateSpace,
        daemon_class: str,
        keys: List[int],
        successors: Dict[int, Tuple[int, ...]],
        safe: Dict[int, bool],
        initial_keys: List[int],
        terminal_keys: FrozenSet[int],
        exhaustive: bool,
    ) -> None:
        self.space = space
        self.daemon_class = daemon_class
        self.keys = keys
        self.successors = successors
        self.safe = safe
        self.initial_keys = initial_keys
        self.terminal_keys = terminal_keys
        self.exhaustive = exhaustive

    @property
    def state_count(self) -> int:
        """Number of explored configurations."""
        return len(self.keys)

    @property
    def transition_count(self) -> int:
        """Number of explored transitions (after per-state deduplication)."""
        return sum(len(successors) for successors in self.successors.values())

    def configuration(self, key: int) -> Configuration:
        """Decode ``key`` back into a configuration."""
        return self.space.decode(key)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ExploredSystem({self.daemon_class!r}, states={self.state_count}, "
            f"transitions={self.transition_count}, exhaustive={self.exhaustive})"
        )


class TransitionSystem:
    """Expands a protocol's transition relation under a daemon class."""

    __slots__ = (
        "_protocol",
        "_specification",
        "_space",
        "_daemon_class",
        "_max_states",
        "_max_selections",
    )

    def __init__(
        self,
        protocol: Protocol,
        specification: Specification,
        daemon_class: str = "synchronous",
        space: Optional[StateSpace] = None,
        max_states: int = DEFAULT_MAX_STATES,
        max_selections: int = DEFAULT_MAX_SELECTIONS,
    ) -> None:
        if daemon_class not in DAEMON_CLASSES:
            raise VerificationError(
                f"unknown daemon class {daemon_class!r}; known: {', '.join(DAEMON_CLASSES)}"
            )
        self._protocol = protocol
        self._specification = specification
        self._space = space if space is not None else StateSpace(protocol)
        self._daemon_class = daemon_class
        self._max_states = max_states
        self._max_selections = max_selections

    @property
    def space(self) -> StateSpace:
        """The packed configuration space."""
        return self._space

    @property
    def daemon_class(self) -> str:
        """The daemon class being expanded."""
        return self._daemon_class

    # ------------------------------------------------------------------ #
    # Per-configuration expansion
    # ------------------------------------------------------------------ #
    def successor_configurations(
        self, configuration: Configuration
    ) -> List[Tuple[Optional[FrozenSet[VertexId]], Configuration]]:
        """All ``(selection, successor)`` pairs of one configuration.

        A terminal configuration yields the single pair
        ``(None, configuration)`` — the implicit self-loop.
        """
        protocol = self._protocol
        enabled, prepared = protocol.prepared_step(configuration)
        if not enabled:
            return [(None, configuration)]
        pairs: List[Tuple[Optional[FrozenSet[VertexId]], Configuration]] = []
        for selection in daemon_class_selections(
            self._daemon_class, enabled, self._max_selections
        ):
            successor, _records = protocol.apply(configuration, selection, prepared=prepared)
            pairs.append((selection, successor))
        return pairs

    # ------------------------------------------------------------------ #
    # Region and full expansion
    # ------------------------------------------------------------------ #
    def explore(self, initial: Iterable[Configuration]) -> ExploredSystem:
        """The reachable closure of ``initial`` under the daemon class."""
        initial_keys = self._space.encode_many(list(initial))
        if not initial_keys:
            raise VerificationError("the initial region is empty")
        return self._expand(
            dict.fromkeys(initial_keys), list(dict.fromkeys(initial_keys)), exhaustive=False
        )

    def explore_full(self) -> ExploredSystem:
        """The full product space (guarded by the space's enumeration cap)."""
        if self._space.size > self._max_states:
            raise VerificationError(
                f"full state space has {self._space.size} configurations, above "
                f"the exploration cap of {self._max_states}"
            )
        keys = list(self._space.keys())
        return self._expand(dict.fromkeys(keys), keys, exhaustive=True)

    def _expand(
        self, frontier: Dict[int, None], initial_keys: List[int], exhaustive: bool
    ) -> ExploredSystem:
        space = self._space
        specification = self._specification
        protocol = self._protocol
        keys: List[int] = []
        successors: Dict[int, Tuple[int, ...]] = {}
        safe: Dict[int, bool] = {}
        terminal: List[int] = []
        stack = list(frontier)
        stack.reverse()  # pop() then visits the region in its given order
        while stack:
            key = stack.pop()
            if key in successors:
                continue
            configuration = space.decode(key)
            keys.append(key)
            safe[key] = bool(specification.is_safe(configuration, protocol))
            pairs = self.successor_configurations(configuration)
            if pairs[0][0] is None:
                terminal.append(key)
                successors[key] = (key,)
                continue
            # Deduplicate while preserving the deterministic selection order
            # (encode_many bulk-packs the batch through the array codec on
            # wide expansions, per-vertex lookups otherwise).
            successor_keys = tuple(
                dict.fromkeys(
                    space.encode_many([successor for _selection, successor in pairs])
                )
            )
            successors[key] = successor_keys
            if len(successors) > self._max_states:
                raise VerificationError(
                    f"reachable region exceeds the exploration cap of "
                    f"{self._max_states} configurations"
                )
            for successor_key in successor_keys:
                if successor_key not in successors:
                    stack.append(successor_key)
        return ExploredSystem(
            space=space,
            daemon_class=self._daemon_class,
            keys=keys,
            successors=successors,
            safe=safe,
            initial_keys=initial_keys,
            terminal_keys=frozenset(terminal),
            exhaustive=exhaustive,
        )

"""Execution traces.

An execution (Section 2) is a sequence of actions
``(γ0, γ1)(γ1, γ2)...``; we record the full sequence of configurations
together with, for each action, the set of vertices the daemon selected,
the rules they fired, and the set of vertices that were enabled — enough to
replay, measure stabilization times in steps *and* rounds, and compute the
restrictions used by the lower-bound argument (Definition 8).
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple, Union

from ..exceptions import SimulationError
from ..types import VertexId, VertexStateLike
from .protocol import ActivationRecord
from .state import Configuration

__all__ = [
    "DeltaLog",
    "Execution",
    "LazyActivations",
    "LazyConfigurationTrace",
    "LazyEnabledSets",
]


class DeltaLog(Sequence):
    """Marker base for *lazily computed* per-action delta sequences.

    :class:`LazyConfigurationTrace` normally copies the delta sequence it is
    handed into a tuple (defensive against mutation).  A producer whose
    deltas are themselves reconstructed on demand — the superstep path of
    :class:`repro.core.vector.VectorEngine` replays them from periodic
    state-array checkpoints — subclasses this marker so the trace keeps the
    log as-is instead of materializing every delta dict up front.

    Subclasses must implement ``__len__`` and integer ``__getitem__``
    returning the ``{vertex: new_state}`` dict of the given action, must be
    effectively immutable, and should make *sequential* access O(1)
    amortized (``LazyConfigurationTrace.iter_from`` walks indices in
    order).
    """

    __slots__ = ()


class LazyActivations(Sequence):
    """Per-action :class:`ActivationRecord` tuples, materialized on access.

    The incremental engine's light-trace mode records each firing as a raw
    ``(vertex, rule_name, old_state, new_state)`` tuple — building a record
    *object* per firing costs more than the rest of the firing combined —
    and wraps the per-action lists in this sequence.  Record tuples are
    built per action when that action's records are requested, so sweeps
    that never inspect activations never pay for them.

    Unlike lazily reconstructed *configurations* (where a replay chain
    makes caching necessary), rebuilding one action's records is O(firings
    of that action), so only the most recently accessed action is cached:
    memory stays O(1) even when every action of a long trace is visited.
    Aggregates (:meth:`moves`, :meth:`rule_counts`,
    :meth:`activated_vertices`) read the raw log directly and never
    materialize a record.
    """

    __slots__ = ("_raw", "_cached_index", "_cached_records")

    def __init__(self, raw: Sequence[Sequence[tuple]]) -> None:
        self._raw = raw
        self._cached_index = -1
        self._cached_records: Tuple[ActivationRecord, ...] = ()

    def __len__(self) -> int:
        return len(self._raw)

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(f"action index {index} out of range")
        if index != self._cached_index:
            self._cached_records = tuple(
                ActivationRecord(*raw) for raw in self._raw[index]
            )
            self._cached_index = index
        return self._cached_records

    # -- record-free aggregates -------------------------------------------
    def activated_vertices(self, index: int) -> Set[VertexId]:
        """The vertices that fired during action ``index`` (no records)."""
        return {raw[0] for raw in self._raw[index]}

    def moves(self) -> int:
        """Total number of firings across every action (no records)."""
        return sum(len(raws) for raws in self._raw)

    def rule_counts(self) -> Dict[str, int]:
        """Firings per rule name across every action (no records)."""
        counts: Dict[str, int] = {}
        for raws in self._raw:
            for raw in raws:
                name = raw[1]
                counts[name] = counts.get(name, 0) + 1
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"LazyActivations(actions={len(self._raw)})"


class LazyEnabledSets(Sequence):
    """Per-configuration enabled vertex sets, kept as the engine's arrays.

    The superstep path of :class:`repro.core.vector.VectorEngine` already
    holds each step's enabled rows as an array: the boolean enabled mask
    (one entry per row) on dense steps, an int64 row-position array on
    sparse ones.  Turning every one into a ``frozenset`` of vertex ids
    costs more than the step's kernel work on a big ring, and sweeps rarely
    read them.  This sequence keeps the arrays, in either form, and builds
    a set only when an index is read.

    Consecutive configurations with equal enabled masks share one array
    object (a fixed point shares one array across the whole fast-forward),
    and sets are cached per distinct array: repeated reads of an index, and
    reads of two indices sharing an array, return the same ``frozenset``
    object, so a full walk (``count_rounds``) builds each set at most once.
    Slices are :class:`LazyEnabledSets` sharing the arrays and the cache.
    """

    __slots__ = ("_positions", "_vertices", "_built")

    def __init__(
        self,
        positions: List[object],
        vertices: Sequence[VertexId],
        _built: Optional[Dict[int, tuple]] = None,
    ) -> None:
        # One enabled mask or row-position array per configuration.
        self._positions = positions
        self._vertices = vertices
        # id(array) -> (array, frozenset); holding the array pins its id.
        self._built: Dict[int, tuple] = {} if _built is None else _built

    def __len__(self) -> int:
        return len(self._positions)

    def _set_of(self, positions) -> FrozenSet[VertexId]:
        entry = self._built.get(id(positions))
        if entry is None:
            entry = (positions, self._build(positions))
            self._built[id(positions)] = entry
        return entry[1]

    def _build(self, rows) -> FrozenSet[VertexId]:
        if rows.dtype.kind == "b":
            rows = rows.nonzero()[0]
        return frozenset(map(self._vertices.__getitem__, rows.tolist()))

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return LazyEnabledSets(self._positions[index], self._vertices, self._built)
        return self._set_of(self._positions[index])

    def __iter__(self) -> Iterator[FrozenSet[VertexId]]:
        return map(self._set_of, self._positions)

    @property
    def materialized_count(self) -> int:
        """How many distinct sets have been built so far, over this log and
        every slice sharing its cache (diagnostics and tests)."""
        return len(self._built)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"LazyEnabledSets(length={len(self)}, "
            f"materialized={len(self._built)})"
        )


class LazyConfigurationTrace(Sequence[Configuration]):
    """``γ0 .. γ_steps`` stored as ``γ0`` plus per-action state deltas.

    Light-trace executions record only the activations; configurations are
    reconstructed on access by replaying the deltas from the nearest cached
    predecessor.  Directly requested indices are cached (repeated access is
    O(1)), and replays drop periodic checkpoints so later random accesses
    stay cheap — but a full sequential walk (iteration, ``restriction``)
    retains only O(steps / stride) snapshots, keeping light mode's memory
    below a full trace even after the trace has been walked.

    Slicing (including ``Execution.prefix``/``suffix``/``configurations``)
    returns plain lists and therefore materializes every configuration in
    the requested range — use indexed access or iteration when memory
    matters.
    """

    __slots__ = ("_deltas", "_cache")

    #: Every ``_CHECKPOINT_STRIDE``-th configuration materialized during a
    #: replay is retained, bounding both replay length and cache growth.
    _CHECKPOINT_STRIDE = 32

    def __init__(
        self,
        initial: Configuration,
        deltas: Sequence[Dict[VertexId, VertexStateLike]],
    ) -> None:
        # Lazy delta logs stay as-is: tuple-izing one would force every
        # delta to be reconstructed up front, defeating its purpose.
        self._deltas: Sequence[Dict[VertexId, VertexStateLike]] = (
            deltas if isinstance(deltas, DeltaLog) else tuple(deltas)
        )
        self._cache: Dict[int, Configuration] = {0: initial}

    @classmethod
    def from_activations(
        cls,
        initial: Configuration,
        activations: Sequence[Sequence[ActivationRecord]],
        deltas: Optional[Sequence[Dict[VertexId, VertexStateLike]]] = None,
    ) -> "LazyConfigurationTrace":
        """Build the trace from the activation records of each action.

        ``deltas`` lets a producer that already tracked the per-action state
        changes (the incremental engine does) hand them over directly
        instead of having them re-derived from the records; when given, they
        must list, for every action, exactly the vertices whose state
        changed during it.
        """
        if deltas is None:
            deltas = [
                {record.vertex: record.new_state for record in records if record.changed}
                for records in activations
            ]
        return cls(initial, deltas)

    def __len__(self) -> int:
        return len(self._deltas) + 1

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(f"configuration index {index} out of range")
        cached = self._cache.get(index)
        if cached is not None:
            return cached
        start = index
        while start not in self._cache:
            start -= 1
        states = self._cache[start].as_dict()
        for action in range(start, index):
            states.update(self._deltas[action])
            position = action + 1
            if position < index and position % self._CHECKPOINT_STRIDE == 0:
                self._cache[position] = Configuration._from_trusted_dict(dict(states))
        result = Configuration._from_trusted_dict(states)
        self._cache[index] = result
        return result

    def __iter__(self) -> Iterator[Configuration]:
        return self.iter_from(0)

    def iter_from(self, start: int = 0) -> Iterator[Configuration]:
        """Iterate ``γ_start .. γ_end`` sequentially with bounded retention.

        Unlike repeated ``[index]`` access (which caches every directly
        requested configuration), a sequential walk through this iterator
        retains only the periodic checkpoints — O(steps / stride) snapshots
        no matter how much of the trace is visited.  Full-trace analyses
        (safety scans, liveness windows) must use this, not per-index
        access, to preserve light mode's memory bound.
        """
        if start < 0:
            start += len(self)
        if not 0 <= start < len(self):
            raise IndexError(f"configuration index {start} out of range")
        # Replay silently from the nearest cached predecessor of ``start``.
        base = start
        while base not in self._cache:
            base -= 1
        states: Optional[Dict[VertexId, VertexStateLike]] = None
        for index in range(base, len(self)):
            cached = self._cache.get(index)
            if cached is not None:
                states = None  # resume replaying from this snapshot
                configuration = cached
            else:
                if states is None:
                    # The previous index is always available: ``base`` is
                    # cached, and an uncached index follows either a cached
                    # one or a replayed one.
                    states = self._cache[index - 1].as_dict()
                states.update(self._deltas[index - 1])
                configuration = Configuration._from_trusted_dict(dict(states))
                if index % self._CHECKPOINT_STRIDE == 0:
                    self._cache[index] = configuration
            if index >= start:
                yield configuration

    @property
    def materialized_count(self) -> int:
        """How many configurations are currently cached (diagnostics and
        the light-trace memory-bound regression test)."""
        return len(self._cache)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"LazyConfigurationTrace(length={len(self)}, "
            f"materialized={len(self._cache)})"
        )


class Execution:
    """An (always finite, possibly truncated) execution trace.

    Attributes
    ----------
    configurations:
        ``steps + 1`` configurations ``γ0 .. γ_steps``.
    selections:
        For each action ``i``, the set of vertices the daemon activated
        during ``(γi, γ{i+1})``.
    activations:
        For each action, the :class:`ActivationRecord` of every activated
        vertex that was actually enabled.
    enabled_sets:
        For each configuration ``γi`` (``i < steps`` always, plus the final
        configuration when known), the set of enabled vertices.
    truncated:
        True when the run stopped because the step budget was exhausted
        rather than because a terminal configuration was reached.
    """

    __slots__ = ("_configurations", "_selections", "_activations", "_enabled_sets", "truncated")

    def __init__(
        self,
        configurations: Sequence[Configuration],
        selections: Sequence[FrozenSet[VertexId]],
        activations: Sequence[Sequence[ActivationRecord]],
        enabled_sets: Sequence[FrozenSet[VertexId]],
        truncated: bool,
    ) -> None:
        if not configurations:
            raise SimulationError("an execution needs at least one configuration")
        if len(selections) != len(configurations) - 1:
            raise SimulationError("need exactly one selection per action")
        if len(activations) != len(selections):
            raise SimulationError("need exactly one activation list per action")
        # Lazy traces are kept as-is so configurations materialize on demand.
        self._configurations: Sequence[Configuration] = (
            configurations
            if isinstance(configurations, LazyConfigurationTrace)
            else list(configurations)
        )
        # Lazy activation logs and enabled-set logs are kept as-is so records
        # and sets materialize on demand (mirroring the lazy configuration
        # trace).
        self._selections: Sequence[FrozenSet[VertexId]] = (
            selections
            if isinstance(selections, LazyEnabledSets)
            else [frozenset(s) for s in selections]
        )
        self._activations: Sequence[Tuple[ActivationRecord, ...]] = (
            activations
            if isinstance(activations, LazyActivations)
            else [tuple(a) for a in activations]
        )
        self._enabled_sets: Sequence[FrozenSet[VertexId]] = (
            enabled_sets
            if isinstance(enabled_sets, LazyEnabledSets)
            else [frozenset(s) for s in enabled_sets]
        )
        self.truncated = truncated

    @classmethod
    def from_activations(
        cls,
        initial: Configuration,
        selections: Sequence[FrozenSet[VertexId]],
        activations: Sequence[Sequence[ActivationRecord]],
        enabled_sets: Sequence[FrozenSet[VertexId]],
        truncated: bool,
        deltas: Optional[Sequence[Dict[VertexId, VertexStateLike]]] = None,
    ) -> "Execution":
        """A light-trace execution: configurations reconstructed on demand.

        Stores ``γ0`` plus the per-action activation deltas instead of every
        configuration; see :class:`LazyConfigurationTrace` (and its
        ``from_activations`` for the optional pre-tracked ``deltas``).
        """
        return cls(
            configurations=LazyConfigurationTrace.from_activations(
                initial, activations, deltas
            ),
            selections=selections,
            activations=activations,
            enabled_sets=enabled_sets,
            truncated=truncated,
        )

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def configurations(self) -> Sequence[Configuration]:
        """``γ0 .. γ_steps``."""
        return tuple(self._configurations)

    @property
    def steps(self) -> int:
        """Number of actions in the execution."""
        return len(self._selections)

    @property
    def initial(self) -> Configuration:
        """``γ0``."""
        return self._configurations[0]

    @property
    def final(self) -> Configuration:
        """The last configuration of the (finite) trace."""
        return self._configurations[-1]

    @property
    def is_terminal(self) -> bool:
        """Whether the trace ended in a terminal configuration."""
        return not self.truncated

    def configuration(self, index: int) -> Configuration:
        """``γ_index``.

        On light traces every directly requested index is cached; scans that
        touch a whole range must use :meth:`iter_configurations` instead,
        which retains only O(steps/stride) checkpoints.
        """
        try:
            return self._configurations[index]
        except IndexError:
            raise SimulationError(
                f"configuration index {index} out of range (0..{self.steps})"
            ) from None

    def iter_configurations(self, start: int = 0) -> Iterator[Configuration]:
        """Iterate ``γ_start .. γ_steps`` sequentially.

        This is the memory-safe way to walk a trace: on a light
        (:class:`LazyConfigurationTrace`) execution it replays deltas with
        bounded checkpoint retention instead of caching every visited
        configuration the way per-index :meth:`configuration` access does.
        All the trace-walking analyses in the library (safety scans,
        stabilization indices, liveness windows) go through it.
        """
        if not 0 <= start <= self.steps:
            raise SimulationError(
                f"configuration index {start} out of range (0..{self.steps})"
            )
        configurations = self._configurations
        if isinstance(configurations, LazyConfigurationTrace):
            return configurations.iter_from(start)
        return itertools.islice(iter(configurations), start, None)

    def selection(self, index: int) -> FrozenSet[VertexId]:
        """Vertices activated during action ``(γ_index, γ_{index+1})``."""
        try:
            return self._selections[index]
        except IndexError:
            raise SimulationError(f"action index {index} out of range (0..{self.steps - 1})") from None

    def activation_records(self, index: int) -> Tuple[ActivationRecord, ...]:
        """Activation records of action ``index``."""
        try:
            return self._activations[index]
        except IndexError:
            raise SimulationError(f"action index {index} out of range (0..{self.steps - 1})") from None

    def enabled_at(self, index: int) -> FrozenSet[VertexId]:
        """The enabled vertices in ``γ_index`` (recorded during the run)."""
        try:
            return self._enabled_sets[index]
        except IndexError:
            raise SimulationError(f"no enabled set recorded for index {index}") from None

    # ------------------------------------------------------------------ #
    # Derived views (Definition 8 and friends)
    # ------------------------------------------------------------------ #
    def prefix(self, length: int) -> "Execution":
        """The prefix ``e_length`` of the execution (``length`` actions)."""
        if not 0 <= length <= self.steps:
            raise SimulationError(f"prefix length {length} out of range (0..{self.steps})")
        return Execution(
            configurations=self._configurations[: length + 1],
            selections=self._selections[:length],
            activations=self._activations[:length],
            enabled_sets=self._enabled_sets[: length + 1]
            if len(self._enabled_sets) > length
            else self._enabled_sets[:length],
            truncated=True if length < self.steps else self.truncated,
        )

    def suffix(self, start: int) -> "Execution":
        """The suffix starting at configuration ``γ_start``."""
        if not 0 <= start <= self.steps:
            raise SimulationError(f"suffix start {start} out of range (0..{self.steps})")
        return Execution(
            configurations=self._configurations[start:],
            selections=self._selections[start:],
            activations=self._activations[start:],
            enabled_sets=self._enabled_sets[start:],
            truncated=self.truncated,
        )

    def restriction(self, vertex: VertexId) -> List[VertexStateLike]:
        """The restriction ``e_v`` of Definition 8: the sequence of local
        states of ``vertex`` along the execution."""
        return [configuration[vertex] for configuration in self._configurations]

    def activated_steps(self, vertex: VertexId) -> List[int]:
        """Indices of the actions during which ``vertex`` fired a rule."""
        return [
            i for i in range(self.steps) if vertex in self._activated_vertices(i)
        ]

    def rule_counts(self) -> Dict[str, int]:
        """How many times each rule fired over the whole execution."""
        activations = self._activations
        if isinstance(activations, LazyActivations):
            return activations.rule_counts()
        counts: Dict[str, int] = {}
        for records in activations:
            for record in records:
                counts[record.rule_name] = counts.get(record.rule_name, 0) + 1
        return counts

    def moves(self) -> int:
        """Total number of individual rule firings (moves)."""
        activations = self._activations
        if isinstance(activations, LazyActivations):
            return activations.moves()
        return sum(len(records) for records in activations)

    def _activated_vertices(self, index: int) -> Set[VertexId]:
        """Vertices that fired during action ``index``, without forcing
        record materialization on a lazy activation log."""
        activations = self._activations
        if isinstance(activations, LazyActivations):
            return activations.activated_vertices(index)
        return {record.vertex for record in activations[index]}

    def count_rounds(self) -> int:
        """Number of complete *rounds* in the trace.

        A round starting at configuration ``γ_s`` ends at the first
        configuration ``γ_t`` (``t > s``) such that every vertex enabled in
        ``γ_s`` has, at some point in ``γ_s .. γ_t``, either been activated
        or become disabled.  Rounds are the usual coarse-grained time unit
        for asynchronous executions.
        """
        if self.steps == 0:
            return 0
        rounds = 0
        start = 0
        while start < self.steps:
            pending = set(self._enabled_sets[start]) if start < len(self._enabled_sets) else set()
            if not pending:
                break
            index = start
            while pending and index < self.steps:
                pending -= self._activated_vertices(index)
                next_enabled = (
                    self._enabled_sets[index + 1]
                    if index + 1 < len(self._enabled_sets)
                    else frozenset()
                )
                pending &= set(next_enabled)
                index += 1
            if pending:
                # The trace ended before the round completed.
                break
            rounds += 1
            start = index
        return rounds

    def __len__(self) -> int:
        return self.steps

    def __repr__(self) -> str:
        status = "terminal" if self.is_terminal else "truncated"
        return f"Execution(steps={self.steps}, {status})"

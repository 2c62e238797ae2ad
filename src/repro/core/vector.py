"""The NumPy-vectorized array-state engine backend (the "vector kernel").

The incremental engine of :mod:`repro.core.engine` wins big in the sparse
regime (central-style daemons: O(Δ) per action), but in the *dense* regime —
the synchronous daemon, dense distributed daemons — every action dirties
essentially every vertex, so each step still pays n Python guard calls plus
n Python firing calls.  That per-step cost is exactly what the paper's
headline experiments (Theorem 2 synchronous sweeps, Theorem 3 adversarial
sweeps) are bound by at scale.

This module replaces the whole per-step scan by a handful of array
operations for protocols whose per-vertex state is a fixed small tuple of
machine integers (unison clocks, Dijkstra/SSME token counters):

* :class:`GraphIndex` — the communication graph flattened once into
  CSR-style neighbour index arrays (``indptr``/``indices``/``edge_src``);
* :class:`ArrayCodec` — encodes a configuration into an ``(n, k)`` int64
  array and decodes rows back into exact Python states
  (:class:`IntCodec` for plain-int states, :class:`IntTupleCodec` for
  fixed-width int tuples);
* :class:`ArrayKernel` — the protocol-declared vectorized transition
  relation: ``enabled_rules(states, index)`` returns, per vertex, the
  position of its *first* enabled rule (or -1), and
  ``fire(states, selected, rule_ids, index)`` returns the new state rows of
  the selected vertices — both as whole-array computations;
* :class:`VectorEngine` — a drop-in runner with the exact
  ``IncrementalEngine.run`` contract built on the above.

Protocols opt in through the capability API
:meth:`repro.core.Protocol.array_codec` / :meth:`~repro.core.Protocol.array_kernel`
(both return None by default).  Backend selection is automatic and degrades
gracefully: the vector backend is used only when the protocol declares a
kernel, NumPy is importable (it stays an **optional** dependency — nothing
in this module imports it at module load), and the engine semantics the
kernel encodes (stock transition chain, stock ``choose_rule``, actions that
preserve state validity) actually hold; otherwise the existing sparse/batch
dict paths run unchanged.

Equivalence with the reference engine (same configurations, selections,
enabled sets, activation records, truncation) is pinned by
``tests/test_engine_equivalence.py`` and ``tests/test_vector_kernel.py``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..exceptions import SimulationError
from ..graphs import Graph
from ..types import VertexId, VertexStateLike
from .daemons import Daemon
from .execution import DeltaLog, Execution, LazyActivations
from .protocol import ActivationRecord, Protocol
from .rules import Rule
from .state import Configuration

__all__ = [
    "ArrayCodec",
    "ArrayKernel",
    "ArrayStateView",
    "GraphIndex",
    "IntCodec",
    "IntTupleCodec",
    "TiledGraphIndex",
    "VectorEngine",
    "numpy_available",
    "protocol_supports_vector",
    "tile_block_positions",
    "tile_block_values",
    "vector_eligible",
]


def numpy_available() -> bool:
    """Whether NumPy can be imported *right now*.

    Evaluated dynamically on every call (a successful import of an
    already-loaded module is a dict lookup) so test harnesses can prove the
    graceful degradation path by stubbing ``sys.modules["numpy"]``.
    """
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def vector_eligible(protocol: Protocol) -> bool:
    """The cheap (non-instantiating) half of the vector-backend contract.

    True when the *semantics* the kernel encodes hold and NumPy is
    importable:

    * NumPy importable (optional dependency — this is checked first so
      capability hooks may assume it when called);
    * the stock transition semantics (same precondition as the incremental
      engine — the kernel replaces the whole guard/firing chain);
    * the stock ``choose_rule`` (the kernel hard-codes the
      first-enabled-rule arbitration the base class implements);
    * firing re-validation impossible or waived
      (``actions_preserve_validity`` or a stock ``validate_state``) — the
      vector firing path does not call back into Python per vertex.

    Says nothing about the protocol actually *declaring* the capability;
    callers that need the codec/kernel probe them directly afterwards (so
    the objects are built once and used, never built-and-discarded).
    """
    if not numpy_available():
        return False
    if not protocol.has_stock_transitions():
        return False
    if type(protocol).choose_rule is not Protocol.choose_rule:
        return False
    return (
        protocol.actions_preserve_validity
        or type(protocol).validate_state is Protocol.validate_state
    )


def protocol_supports_vector(protocol: Protocol) -> bool:
    """Whether ``protocol`` can run on the vectorized array-state backend.

    :func:`vector_eligible` plus the protocol actually declaring both an
    :meth:`~repro.core.Protocol.array_codec` and an
    :meth:`~repro.core.Protocol.array_kernel`.  Probing instantiates (and
    discards) the capability objects — engine code paths use
    :func:`vector_eligible` + a direct probe instead, keeping exactly one
    construction per engine.
    """
    return (
        vector_eligible(protocol)
        and protocol.array_codec() is not None
        and protocol.array_kernel() is not None
    )


class GraphIndex:
    """CSR-style integer indexing of a (fixed) communication graph.

    Attributes
    ----------
    vertices:
        Row position -> vertex id (same order as ``graph.vertices``).
    position:
        Vertex id -> row position.
    indptr, indices:
        Classic CSR adjacency: the neighbours of row ``i`` are
        ``indices[indptr[i]:indptr[i+1]]`` (row positions, not ids).
    edge_src:
        Row position of the *owning* vertex for every directed adjacency
        entry, aligned with ``indices`` — ``(edge_src[e], indices[e])``
        enumerates every (vertex, neighbour) pair once per direction.
    """

    __slots__ = ("vertices", "position", "n", "indptr", "indices", "edge_src")

    def __init__(self, graph: Graph) -> None:
        import numpy as np

        self.vertices: Tuple[VertexId, ...] = tuple(graph.vertices)
        self.position: Dict[VertexId, int] = {
            v: i for i, v in enumerate(self.vertices)
        }
        n = self.n = len(self.vertices)
        degrees = [0] * n
        columns: List[int] = []
        for i, v in enumerate(self.vertices):
            neighbors = [self.position[u] for u in graph.neighbors(v)]
            degrees[i] = len(neighbors)
            columns.extend(neighbors)
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.asarray(degrees, dtype=np.int64), out=self.indptr[1:])
        self.indices = np.asarray(columns, dtype=np.int64)
        self.edge_src = np.repeat(
            np.arange(n, dtype=np.int64), np.asarray(degrees, dtype=np.int64)
        )

    # Per-vertex reductions over incident adjacency entries.  ``edge_flags``
    # is a boolean array aligned with ``indices``/``edge_src``; vertices
    # without neighbours reduce over the empty set (any -> False,
    # all -> True), matching Python's any()/all().
    def any_over_edges(self, edge_flags) -> "object":
        """Per-vertex ``any`` of a per-adjacency-entry boolean array."""
        import numpy as np

        return np.bincount(self.edge_src[edge_flags], minlength=self.n) > 0

    def all_over_edges(self, edge_flags) -> "object":
        """Per-vertex ``all`` of a per-adjacency-entry boolean array."""
        import numpy as np

        return np.bincount(self.edge_src[~edge_flags], minlength=self.n) == 0

    # Subset (sparse-refresh) indexing: the same reductions restricted to
    # the adjacency entries of a few rows, so kernels can re-evaluate guards
    # for only the vertices a firing could have affected.
    def subset_edges(self, rows):
        """Adjacency entries of ``rows`` as ``(owner_ranks, neighbor_rows)``.

        ``owner_ranks[e]`` is the *rank into ``rows``* (not the global row
        position) owning entry ``e``; ``neighbor_rows[e]`` is the global row
        position of the neighbour.  Rank-based ownership lets the subset
        reductions below use length-``len(rows)`` bincounts.
        """
        import numpy as np

        starts = self.indptr[rows]
        stops = self.indptr[rows + 1]
        counts = stops - starts
        entries = _concat_ranges(starts, stops, counts)
        owners = np.repeat(np.arange(rows.size, dtype=np.int64), counts)
        return owners, self.indices[entries]

    def any_over_subset(self, owner_ranks, edge_flags, m):
        """Per-rank ``any`` over subset adjacency entries (m = len(rows))."""
        import numpy as np

        return np.bincount(owner_ranks[edge_flags], minlength=m) > 0

    def all_over_subset(self, owner_ranks, edge_flags, m):
        """Per-rank ``all`` over subset adjacency entries (m = len(rows))."""
        import numpy as np

        return np.bincount(owner_ranks[~edge_flags], minlength=m) == 0

    def dirty_rows(self, changed):
        """``changed`` rows plus all their neighbours, sorted and unique.

        Exactly the rows whose guards can differ after a firing that only
        touched ``changed`` (guards are locally checkable by the protocol
        model: a vertex reads its own and its neighbours' states).
        """
        import numpy as np

        starts = self.indptr[changed]
        stops = self.indptr[changed + 1]
        neighbors = self.indices[_concat_ranges(starts, stops, stops - starts)]
        return np.unique(np.concatenate((changed, neighbors)))

    def min_over_edges(self, edge_values, empty):
        """Per-vertex ``min`` of a per-adjacency-entry int array.

        Vertices without neighbours reduce to ``empty``.  Uses ``reduceat``
        over the CSR segment starts; empty segments are masked out rather
        than handed to ``reduceat`` (whose empty-segment semantics return
        the *next* segment's first entry).
        """
        import numpy as np

        out = np.full(self.n, empty, dtype=np.int64)
        counts = self.indptr[1:] - self.indptr[:-1]
        nonempty = counts > 0
        if nonempty.any():
            starts = self.indptr[:-1][nonempty]
            out[nonempty] = np.minimum.reduceat(edge_values, starts)
        return out

    def max_over_edges(self, edge_values, empty):
        """Per-vertex ``max`` of a per-adjacency-entry int array (see
        :meth:`min_over_edges`)."""
        import numpy as np

        out = np.full(self.n, empty, dtype=np.int64)
        counts = self.indptr[1:] - self.indptr[:-1]
        nonempty = counts > 0
        if nonempty.any():
            starts = self.indptr[:-1][nonempty]
            out[nonempty] = np.maximum.reduceat(edge_values, starts)
        return out


class TiledGraphIndex(GraphIndex):
    """``blocks`` disjoint copies of a base :class:`GraphIndex`.

    The batched exact checker (:mod:`repro.verify.batched`) stacks ``B``
    frontier configurations of an ``n``-vertex instance into one
    ``(B·n, width)`` state array and runs the protocol's unmodified
    :class:`ArrayKernel` over it in a single call.  The kernel only ever
    reads the graph through the CSR arrays, so a block-diagonal replication
    of the base adjacency — block ``b`` owning rows ``[b·n, (b+1)·n)`` with
    all edges kept inside the block — makes every array operation compute
    ``B`` independent instances at once.

    Kernels whose :meth:`ArrayKernel.prepare` precomputes *positional*
    arrays from vertex identities (a root row, a ring-predecessor map) must
    detect tiling via :attr:`base`/:attr:`blocks` and tile those arrays with
    per-block offsets; purely structural kernels (unison) work unchanged.

    ``vertices``/``position`` keep the base geometry (block 0): tiled
    indexes are internal to batch expansion and never serve id lookups for
    rows outside block 0.
    """

    __slots__ = ("base", "blocks", "base_n")

    def __init__(self, base: GraphIndex, blocks: int) -> None:
        import numpy as np

        if blocks < 1:
            raise SimulationError("TiledGraphIndex needs at least one block")
        # Fill the GraphIndex slots directly: there is no Graph object with
        # duplicated vertices to construct one from.
        self.base = base
        self.blocks = blocks
        self.base_n = base.n
        self.vertices = base.vertices
        self.position = base.position
        n = self.n = base.n * blocks
        entries = int(base.indices.size)
        degrees = base.indptr[1:] - base.indptr[:-1]
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.tile(degrees, blocks), out=self.indptr[1:])
        row_offsets = np.repeat(
            np.arange(blocks, dtype=np.int64) * base.n, entries
        )
        self.indices = np.tile(base.indices, blocks) + row_offsets
        self.edge_src = np.tile(base.edge_src, blocks) + row_offsets


def tile_block_values(values, index: GraphIndex):
    """``values`` (one entry per base row) tiled across an index's blocks.

    Identity on a plain :class:`GraphIndex`; ``np.tile`` across blocks on a
    :class:`TiledGraphIndex`.  The standard helper for kernels whose
    ``prepare`` builds per-vertex arrays from vertex identities.
    """
    import numpy as np

    if isinstance(index, TiledGraphIndex):
        return np.tile(values, index.blocks)
    return values


def tile_block_positions(positions, index: GraphIndex):
    """Per-base-row *row positions* tiled with per-block offsets.

    For positional arrays (e.g. a ring-predecessor map ``row -> pred row``)
    each block's copy must point inside its own block.
    """
    import numpy as np

    if isinstance(index, TiledGraphIndex):
        offsets = np.repeat(
            np.arange(index.blocks, dtype=np.int64) * index.base_n,
            index.base_n,
        )
        return np.tile(positions, index.blocks) + offsets
    return positions


def _concat_ranges(starts, stops, counts):
    """Concatenation of ``arange(starts[i], stops[i])`` for every ``i``."""
    import numpy as np

    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    return np.repeat(starts, counts) + (np.arange(total, dtype=np.int64) - offsets)


class ArrayCodec(ABC):
    """Fixed-width integer encoding of per-vertex states.

    A protocol whose local state is (isomorphic to) a tuple of ``width``
    machine integers declares a codec; the vector engine keeps the whole
    configuration as one ``(n, width)`` int64 array.  ``decode`` must invert
    ``encode`` *exactly* — the states it returns are compared (and recorded
    in traces) against the Python engines' states.
    """

    #: Number of int64 columns per vertex.
    width: int = 1

    @abstractmethod
    def encode(self, states: Mapping[VertexId, VertexStateLike], order: Sequence[VertexId]):
        """``(len(order), width)`` int64 array of ``states`` in ``order``.

        Raises ``TypeError``/``ValueError``/``OverflowError`` when a state
        does not fit the fixed-width integer layout; the engine treats that
        as "this configuration cannot run vectorized" and falls back.
        """

    @abstractmethod
    def decode(self, rows) -> List[VertexStateLike]:
        """Exact Python states of an ``(m, width)`` array of rows."""


class IntCodec(ArrayCodec):
    """Codec for protocols whose state is a plain Python ``int``."""

    width = 1

    def encode(self, states, order):
        import numpy as np

        array = np.empty((len(order), 1), dtype=np.int64)
        column = array[:, 0]
        for i, vertex in enumerate(order):
            state = states[vertex]
            if not isinstance(state, int) or isinstance(state, bool):
                raise TypeError(f"state {state!r} of {vertex!r} is not a plain int")
            column[i] = state
        return array

    def decode(self, rows):
        return rows[:, 0].tolist()


class IntTupleCodec(ArrayCodec):
    """Codec for states that are fixed-width tuples of ints."""

    def __init__(self, width: int) -> None:
        if width < 1:
            raise SimulationError("IntTupleCodec width must be >= 1")
        self.width = width

    def encode(self, states, order):
        import numpy as np

        array = np.empty((len(order), self.width), dtype=np.int64)
        for i, vertex in enumerate(order):
            state = states[vertex]
            if not isinstance(state, tuple) or len(state) != self.width:
                raise TypeError(
                    f"state {state!r} of {vertex!r} is not a {self.width}-int tuple"
                )
            array[i] = state
        return array

    def decode(self, rows):
        return [tuple(row) for row in rows.tolist()]


class ArrayKernel(ABC):
    """A protocol's vectorized transition relation.

    The kernel must implement *exactly* the semantics of the stock engine
    chain on the declared codec's representation:

    * ``enabled_rules`` returns, for every vertex, the position (in
      :attr:`rule_names` order — which must equal ``protocol.rules()``
      order) of its **first** enabled rule, or ``-1`` when disabled.  This
      bakes in the base-class ``choose_rule`` (first enabled rule), which
      is why :func:`protocol_supports_vector` rejects overrides.
    * ``fire`` evaluates the actions of ``rule_ids`` for the ``selected``
      row positions against the *current* ``states`` (atomic-snapshot
      semantics: the engine writes the returned rows back only after the
      call) and returns the ``(len(selected), width)`` new rows.

    Both receive the full ``(n, width)`` state array and the shared
    :class:`GraphIndex`; :meth:`prepare` is called once per engine so
    kernels can precompute index arrays (e.g. Dijkstra's predecessor map).
    """

    #: Rule names in ``protocol.rules()`` order; rule ids index this tuple.
    rule_names: Tuple[str, ...] = ()

    def prepare(self, index: GraphIndex) -> None:
        """One-time hook to precompute kernel-specific index arrays."""

    @abstractmethod
    def enabled_rules(self, states, index: GraphIndex):
        """``(n,)`` int array: first enabled rule id per vertex, -1 if none."""

    @abstractmethod
    def fire(self, states, selected, rule_ids, index: GraphIndex):
        """``(len(selected), width)`` new state rows for ``selected``."""

    def enabled_rules_for(self, states, rows, index: GraphIndex):
        """Optional sparse capability: ``enabled_rules`` restricted to
        ``rows`` (an int64 array of row positions), returning the
        ``(len(rows),)`` first-enabled rule ids.

        Must agree entry-for-entry with ``enabled_rules(states, index)[rows]``
        — the engine patches only these entries of its cached rule-id array
        after a sparse firing, so any divergence is silent state corruption.
        The base implementation returns ``None``, meaning "unsupported":
        the engine then always rescans the full array.
        """
        del states, rows, index
        return None


class ArrayStateView(Mapping[VertexId, VertexStateLike]):
    """A read-only *live* Mapping view of the vector engine's state array.

    The exact analogue of :class:`repro.core.ConfigurationView` for the
    array backend: daemons and ``stop_when`` predicates receive it in
    light-trace mode.  Reads decode through the codec, so callers observe
    ordinary Python states; like every live view it must not be retained
    across steps (call :meth:`snapshot` to pin the current states) and is
    deliberately unhashable.
    """

    __slots__ = ("_index", "_states", "_codec")

    def __init__(self, index: GraphIndex, states, codec: ArrayCodec) -> None:
        self._index = index
        self._states = states
        self._codec = codec

    def __getitem__(self, vertex: VertexId) -> VertexStateLike:
        try:
            row = self._index.position[vertex]
        except KeyError:
            raise SimulationError(
                f"configuration has no state for vertex {vertex!r}"
            ) from None
        return self._codec.decode(self._states[row : row + 1])[0]

    def __iter__(self) -> Iterator[VertexId]:
        return iter(self._index.vertices)

    def __len__(self) -> int:
        return self._index.n

    def __contains__(self, vertex: object) -> bool:
        return vertex in self._index.position

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Mapping):
            return dict(self) == dict(other)
        return NotImplemented

    # Live views change under the caller's feet; hashing one would be a
    # correctness trap (same contract as ConfigurationView).
    __hash__ = None  # type: ignore[assignment]

    @property
    def vertex_order(self) -> Tuple[VertexId, ...]:
        """Row position -> vertex id of :meth:`raw_states` (stable per engine)."""
        return self._index.vertices

    def raw_states(self):
        """The live ``(n, width)`` int64 state array, row-aligned with
        :attr:`vertex_order`.

        Read-only contract: callers must neither mutate nor retain it (it
        changes under their feet like the view itself).  This is the hook
        array-aware predicates (e.g. the vectorized privilege count behind
        ``MutualExclusionSpec.is_safe``) use to avoid decoding per vertex.
        """
        return self._states

    def as_dict(self) -> Dict[VertexId, VertexStateLike]:
        """A mutable copy of the current states."""
        return dict(
            zip(self._index.vertices, self._codec.decode(self._states))
        )

    def snapshot(self) -> Configuration:
        """Pin the current states as an immutable :class:`Configuration`."""
        return Configuration._from_trusted_dict(self.as_dict())

    def updated(self, changes: Mapping[VertexId, VertexStateLike]) -> Configuration:
        """An immutable configuration: current states with ``changes`` applied."""
        states = self.as_dict()
        for vertex in changes:
            if vertex not in states:
                raise SimulationError(f"cannot update unknown vertex {vertex!r}")
        states.update(changes)
        return Configuration._from_trusted_dict(states)

    def restrict(self, vertices: Iterable[VertexId]) -> Configuration:
        """The (immutable) restriction of the current states to ``vertices``."""
        return self.snapshot().restrict(vertices)

    def differing_vertices(self, other: Configuration) -> Tuple[VertexId, ...]:
        """Vertices whose current states differ from ``other``'s."""
        return self.snapshot().differing_vertices(other)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ArrayStateView(n={self._index.n})"


class _VectorAction(Sequence):
    """One action's raw firing log, decoded from arrays on demand.

    Behaves as the sequence of raw ``(vertex, rule_name, old, new)`` tuples
    :class:`~repro.core.LazyActivations` consumes, but stores only the four
    compact arrays the engine already produced.  ``len`` never decodes, so
    aggregate walks (``moves()``) stay array-cheap; iterating decodes the
    whole action in bulk (four ``tolist`` calls), which only happens when a
    caller actually inspects that action's records.
    """

    __slots__ = ("_selected", "_rule_ids", "_old", "_new", "_vertices", "_names", "_codec")

    def __init__(self, selected, rule_ids, old, new, vertices, names, codec) -> None:
        self._selected = selected
        self._rule_ids = rule_ids
        self._old = old
        self._new = new
        self._vertices = vertices
        self._names = names
        self._codec = codec

    def __len__(self) -> int:
        return int(self._selected.size)

    def _decoded(self) -> List[tuple]:
        return list(
            zip(
                map(self._vertices.__getitem__, self._selected.tolist()),
                map(self._names.__getitem__, self._rule_ids.tolist()),
                self._codec.decode(self._old),
                self._codec.decode(self._new),
            )
        )

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._decoded())

    def __getitem__(self, position):
        return self._decoded()[position]


class _SuperstepReplayer:
    """Deterministic re-execution of a superstep run from its checkpoints.

    The superstep path records only periodic state-array snapshots; every
    per-step artefact (configurations, deltas, activation records) is
    reconstructed on demand by replaying the kernel forward from the nearest
    checkpoint at or before the requested index.  The kernel is a pure
    function of the state array, so the replay is bit-identical to the
    original run.

    One mutable cursor (``_states``/``_rule_ids`` positioned at
    configuration ``_at``) is kept; sequential access — the dominant pattern
    through ``LazyConfigurationTrace.iter_from`` and aggregate walks — costs
    one kernel step per index, and a random access costs at most one
    checkpoint load plus ``superstep`` kernel steps.
    """

    __slots__ = (
        "_codec",
        "_kernel",
        "_index",
        "_checkpoints",
        "_refresh",
        "_at",
        "_states",
        "_rule_ids",
    )

    def __init__(self, codec, kernel, index, checkpoints, refresh) -> None:
        self._codec = codec
        self._kernel = kernel
        self._index = index
        #: step -> pristine state-array snapshot (never handed out).
        self._checkpoints: Dict[int, object] = checkpoints
        #: ``(rule_ids, states, selected, changed_rows) -> rule_ids`` — the
        #: engine's (possibly sparse) guard-refresh, shared so replays take
        #: the same fast paths as the original run.
        self._refresh = refresh
        self._at = -1
        self._states = None
        self._rule_ids = None

    def _load(self, step: int) -> None:
        self._states = self._checkpoints[step].copy()
        self._rule_ids = self._kernel.enabled_rules(self._states, self._index)
        self._at = step

    def seek(self, step: int) -> None:
        """Position the cursor on configuration ``step``."""
        if self._at == step:
            return
        if self._at < 0 or step < self._at:
            base = max(k for k in self._checkpoints if k <= step)
            self._load(base)
        else:
            nearer = [k for k in self._checkpoints if self._at < k <= step]
            if nearer:
                self._load(max(nearer))
        while self._at < step:
            self._advance()

    def _advance(self):
        """Fire one synchronous step on the cursor; returns the step data
        ``(selected, rule_ids, old_rows, new_rows)`` of the transition."""
        import numpy as np

        rule_ids = self._rule_ids
        pos = np.flatnonzero(rule_ids != -1)
        rids = rule_ids[pos]
        old_rows = self._states[pos]
        new_rows = self._kernel.fire(self._states, pos, rids, self._index)
        changed_rows = (new_rows != old_rows).any(axis=1)
        if bool(changed_rows.any()):
            self._states[pos] = new_rows
            self._rule_ids = self._refresh(
                rule_ids, self._states, pos, changed_rows
            )
        self._at += 1
        return pos, rids, old_rows, new_rows

    # -- accessors (all position the cursor as a side effect) --------------
    def step_data(self, step: int):
        """``(selected, rule_ids, old_rows, new_rows)`` of action ``step``.

        All four arrays are fresh copies safe to retain; the cursor ends on
        configuration ``step + 1`` so sequential action walks replay each
        step exactly once.
        """
        self.seek(step)
        return self._advance()

    def states_at(self, step: int):
        """The live cursor array at configuration ``step`` (do not retain)."""
        self.seek(step)
        return self._states

    def configuration_at(self, step: int) -> Configuration:
        """Configuration ``step`` as an immutable decoded snapshot."""
        self.seek(step)
        return Configuration._from_trusted_dict(
            dict(zip(self._index.vertices, self._codec.decode(self._states)))
        )

    def view_at(self, step: int) -> ArrayStateView:
        """A live :class:`ArrayStateView` of configuration ``step``.

        Valid only until the cursor moves — consume immediately.
        """
        self.seek(step)
        return ArrayStateView(self._index, self._states, self._codec)


class _SuperstepActionLog(Sequence):
    """Per-action :class:`_VectorAction` sequence reconstructed by replay.

    The raw log handed to :class:`~repro.core.LazyActivations` by the
    superstep path: ``log[i]`` replays action ``i`` through the shared
    :class:`_SuperstepReplayer` and wraps its step data in the same
    :class:`_VectorAction` the single-step path records eagerly.
    """

    __slots__ = ("_replayer", "_counts", "_vertices", "_names", "_codec")

    def __init__(self, replayer, counts, vertices, names, codec) -> None:
        self._replayer = replayer
        self._counts = counts
        self._vertices = vertices
        self._names = names
        self._codec = codec

    def __len__(self) -> int:
        return len(self._counts)

    def _position_index(self, index: int) -> int:
        if index < 0:
            index += len(self._counts)
        if not 0 <= index < len(self._counts):
            raise IndexError(f"action index {index} out of range")
        return index

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        index = self._position_index(index)
        selected, rule_ids, old_rows, new_rows = self._replayer.step_data(index)
        return _VectorAction(
            selected, rule_ids, old_rows, new_rows,
            self._vertices, self._names, self._codec,
        )

    def activated_positions(self, index: int):
        """Row positions fired by action ``index`` (no state decoding)."""
        return self._replayer.step_data(self._position_index(index))[0]


class _SuperstepActivations(LazyActivations):
    """:class:`LazyActivations` whose aggregates avoid replaying.

    ``moves()`` reads the per-step selection counts the superstep loop
    recorded as plain ints, and ``activated_vertices`` maps replayed row
    positions straight to vertex ids without decoding any state — keeping
    round counting on big-n light traces out of the codec entirely.
    """

    __slots__ = ()

    def moves(self) -> int:
        return sum(self._raw._counts)

    def activated_vertices(self, index: int):
        raw = self._raw
        positions = raw.activated_positions(index)
        return set(map(raw._vertices.__getitem__, positions.tolist()))


class _SuperstepDeltaLog(DeltaLog):
    """Per-action ``{vertex: new_state}`` deltas reconstructed by replay.

    What the superstep path hands to :class:`LazyConfigurationTrace` in
    light-trace mode — the :class:`~repro.core.DeltaLog` marker keeps the
    trace from materializing every delta up front.
    """

    __slots__ = ("_log",)

    def __init__(self, log: _SuperstepActionLog) -> None:
        self._log = log

    def __len__(self) -> int:
        return len(self._log)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        log = self._log
        selected, _rule_ids, old_rows, new_rows = log._replayer.step_data(
            log._position_index(index)
        )
        changed_rows = (new_rows != old_rows).any(axis=1)
        if not bool(changed_rows.any()):
            return {}
        if bool(changed_rows.all()):
            changed, changed_new = selected, new_rows
        else:
            changed = selected[changed_rows]
            changed_new = new_rows[changed_rows]
        return dict(
            zip(
                map(log._vertices.__getitem__, changed.tolist()),
                log._codec.decode(changed_new),
            )
        )


def _row_safety_monitor(stop_when):
    """The :class:`~repro.core.SafetyMonitor` whose bare ``observe`` is
    ``stop_when``, or None for every other predicate (including a monitor
    wrapping a ``stop_when`` of its own, which may stop the run)."""
    from .stabilization import SafetyMonitor

    monitor = getattr(stop_when, "__self__", None)
    if (
        isinstance(monitor, SafetyMonitor)
        and stop_when.__func__ is SafetyMonitor.observe
        and monitor.stop_when is None
    ):
        return monitor
    return None


def _row_verdicts(monitor, states, order) -> Optional[List[bool]]:
    """Safety of the ``(n, width)`` state array under each of ``monitor``'s
    specifications, through :meth:`~repro.core.Specification.safe_rows`;
    None when some specification does not implement it."""
    rows = states[None]
    protocol = monitor.protocol
    verdicts = []
    for specification in monitor.specifications:
        flags = specification.safe_rows(rows, order, protocol)
        if flags is None:
            return None
        verdicts.append(bool(flags[0]))
    return verdicts


class VectorEngine:
    """Array-state runner with the :class:`IncrementalEngine` run contract.

    One instance per protocol; stateless between runs.  Each step is a
    constant number of whole-array operations: guard evaluation through the
    protocol's :class:`ArrayKernel`, firing through vectorized actions, and
    O(Δ)-in-C bookkeeping for the trace.  The enabled frozenset is rebuilt
    only when the enabled *membership* actually changed (in the dense
    steady state — unison under the synchronous daemon — it never does).
    """

    __slots__ = (
        "_protocol",
        "_index",
        "_codec",
        "_kernel",
        "_subset_refresh",
        "last_final_configuration",
    )

    #: Default superstep cadence: K synchronous steps executed per kernel
    #: block, and one state-array checkpoint retained per block boundary.
    DEFAULT_SUPERSTEP = 64

    #: Sparse-refresh density threshold: after a firing whose changed rows
    #: plus their neighbourhood ("dirty" rows) cover less than
    #: ``n / _SPARSE_REFRESH`` of the graph, guards are re-evaluated for the
    #: dirty rows only (when the kernel declares ``enabled_rules_for``);
    #: denser firings rescan the whole array, whose per-row constants are
    #: lower.
    _SPARSE_REFRESH = 2

    def __init__(
        self,
        protocol: Protocol,
        codec: Optional[ArrayCodec] = None,
        kernel: Optional[ArrayKernel] = None,
    ) -> None:
        """``codec``/``kernel`` let the caller hand over already-probed
        capability objects instead of having them instantiated twice."""
        self._protocol = protocol
        codec = codec if codec is not None else protocol.array_codec()
        kernel = kernel if kernel is not None else protocol.array_kernel()
        if codec is None or kernel is None:
            raise SimulationError(
                f"protocol {protocol.name!r} declares no array codec/kernel"
            )
        names = tuple(rule.name for rule in protocol.rules())
        if tuple(kernel.rule_names) != names:
            raise SimulationError(
                f"array kernel rule names {tuple(kernel.rule_names)!r} do not "
                f"match protocol rules {names!r}"
            )
        self._index = GraphIndex(protocol.graph)
        self._codec = codec
        self._kernel = kernel
        kernel.prepare(self._index)
        self._subset_refresh = (
            type(kernel).enabled_rules_for is not ArrayKernel.enabled_rules_for
        )
        #: The final configuration of the most recent run (None before the
        #: first).  Mirrors ``IncrementalEngine.last_final_configuration`` so
        #: segment-wise callers never replay a light trace for its endpoint.
        self.last_final_configuration: Optional[Configuration] = None

    def encode_initial(self, initial: Configuration):
        """``initial`` as an ``(n, width)`` array, or None when it does not
        fit the codec's fixed-width integer layout (the caller then falls
        back to the dict-based paths)."""
        if set(initial) != set(self._index.vertices):
            raise SimulationError(
                "initial configuration is not over the protocol's vertex set"
            )
        try:
            return self._codec.encode(initial, self._index.vertices)
        except (TypeError, ValueError, OverflowError):
            return None

    def run(
        self,
        daemon: Daemon,
        rng,
        initial: Configuration,
        max_steps: int,
        stop_when: Optional[Callable[[Configuration, int], bool]] = None,
        trace: str = "full",
        initial_array=None,
    ) -> Execution:
        """Run up to ``max_steps`` actions from ``initial``.

        Same contract (and same observable executions) as
        ``IncrementalEngine.run``; ``initial_array`` lets the caller pass a
        pre-encoded state array so backend selection can probe the codec
        without encoding twice.
        """
        import numpy as np

        if trace not in {"full", "light"}:
            raise SimulationError(f"unknown trace mode {trace!r}")
        states = initial_array if initial_array is not None else self.encode_initial(initial)
        if states is None:
            raise SimulationError(
                "initial configuration does not fit the protocol's array codec"
            )
        index = self._index
        codec = self._codec
        kernel = self._kernel
        vertices = index.vertices
        rule_name_list = kernel.rule_names

        light = trace == "light"
        live_view = ArrayStateView(index, states, codec) if light else None
        configurations: List[Configuration] = [initial]
        selections: List[FrozenSet[VertexId]] = []
        actions: List[_VectorAction] = []
        enabled_sets: List[FrozenSet[VertexId]] = []
        deltas: List[Dict[VertexId, VertexStateLike]] = []
        truncated = True

        current = initial
        rule_ids = kernel.enabled_rules(states, index)
        mask_cached = None
        enabled_fs: FrozenSet[VertexId] = frozenset()
        enabled_pos = None
        for step_index in range(max_steps + 1):
            mask = rule_ids != -1
            if mask_cached is None or not np.array_equal(mask, mask_cached):
                mask_cached = mask
                enabled_pos = np.flatnonzero(mask)
                if enabled_pos.size == index.n:
                    enabled_fs = frozenset(vertices)
                else:
                    enabled_fs = frozenset(
                        map(vertices.__getitem__, enabled_pos.tolist())
                    )
            enabled_sets.append(enabled_fs)
            observed = live_view if light else current
            if stop_when is not None and stop_when(observed, step_index):
                truncated = True
                break
            if not enabled_fs:
                truncated = False
                break
            if step_index == max_steps:
                truncated = True
                break
            selection = daemon.checked_select(enabled_fs, observed, step_index, rng)

            # A selection the size of the enabled set *is* the enabled set
            # (checked_select guarantees selection ⊆ enabled), so the dense
            # fast path reuses the cached position array.
            if len(selection) == len(enabled_fs):
                selected = enabled_pos
            else:
                position = index.position
                selected = np.fromiter(
                    (position[v] for v in selection),
                    dtype=np.int64,
                    count=len(selection),
                )
            rids = rule_ids[selected]
            old_rows = states[selected]  # fancy indexing copies: the atomic snapshot
            new_rows = kernel.fire(states, selected, rids, index)
            changed_rows = (new_rows != old_rows).any(axis=1)
            any_change = bool(changed_rows.any())
            if any_change:
                states[selected] = new_rows

            selections.append(selection)
            actions.append(
                _VectorAction(
                    selected, rids, old_rows, new_rows, vertices, rule_name_list, codec
                )
            )
            if light:
                if any_change:
                    if bool(changed_rows.all()):
                        changed, changed_new = selected, new_rows
                    else:
                        changed = selected[changed_rows]
                        changed_new = new_rows[changed_rows]
                    deltas.append(
                        dict(
                            zip(
                                map(vertices.__getitem__, changed.tolist()),
                                codec.decode(changed_new),
                            )
                        )
                    )
                else:
                    deltas.append({})
            else:
                if any_change:
                    current = Configuration._from_trusted_dict(
                        dict(zip(vertices, codec.decode(states)))
                    )
                configurations.append(current)
            if any_change:
                rule_ids = self._refresh_rule_ids(
                    rule_ids, states, selected, changed_rows
                )

        if light:
            self.last_final_configuration = Configuration._from_trusted_dict(
                dict(zip(vertices, codec.decode(states)))
            )
        else:
            self.last_final_configuration = current
        activations = LazyActivations(actions)
        if light:
            return Execution.from_activations(
                initial=initial,
                selections=selections,
                activations=activations,
                enabled_sets=enabled_sets,
                truncated=truncated,
                deltas=deltas,
            )
        return Execution(
            configurations=configurations,
            selections=selections,
            activations=activations,
            enabled_sets=enabled_sets,
            truncated=truncated,
        )

    def _refresh_rule_ids(self, rule_ids, states, selected, changed_rows):
        """Post-firing guard refresh: sparse when the firing was sparse.

        Re-evaluates guards only for the changed rows and their neighbours
        when the kernel declares the subset capability and the dirty set is
        below the :attr:`_SPARSE_REFRESH` density threshold; otherwise (or
        always, for subset-less kernels) rescans the full array.  Patches
        ``rule_ids`` in place and returns it — entry-for-entry identical to
        a full rescan by the ``enabled_rules_for`` exactness contract.
        """
        kernel = self._kernel
        index = self._index
        n = index.n
        # Quick pre-check before building the dirty set: a selection this
        # large cannot have a sub-threshold neighbourhood.
        if not self._subset_refresh or int(selected.size) * 6 >= n:
            return kernel.enabled_rules(states, index)
        changed = selected if bool(changed_rows.all()) else selected[changed_rows]
        dirty = index.dirty_rows(changed)
        if int(dirty.size) * self._SPARSE_REFRESH >= n:
            return kernel.enabled_rules(states, index)
        rule_ids[dirty] = kernel.enabled_rules_for(states, dirty, index)
        return rule_ids

    def run_supersteps(
        self,
        daemon: Daemon,
        rng,
        initial: Configuration,
        max_steps: int,
        stop_when: Optional[Callable[[Configuration, int], bool]] = None,
        trace: str = "full",
        initial_array=None,
        superstep: Optional[int] = None,
    ) -> Execution:
        """Run up to ``max_steps`` *synchronous* actions in kernel blocks.

        Same contract — and bit-identical observable executions — as
        :meth:`run` under a synchronous daemon, but executes ``superstep``
        (default :attr:`DEFAULT_SUPERSTEP`) steps per block as pure array
        operations: no daemon call, no per-step trace recording, no per-step
        ``stop_when``.  What makes that sound is ``daemon.synchronous``: the
        selection of every step is the full enabled set, so the schedule is
        deterministic and there is no per-step decision to consult.

        * **Traces** record one state-array checkpoint per block boundary;
          per-step configurations, deltas and activation records are
          reconstructed on demand by replaying the (deterministic) kernel
          from the nearest checkpoint (:class:`_SuperstepReplayer`), so
          memory stays O(n · steps / superstep) instead of O(n · steps).
        * **Safety monitoring** stays in-kernel when ``stop_when`` is a
          :class:`~repro.core.SafetyMonitor`'s bare ``observe`` (no wrapped
          predicate) and every monitored specification implements
          :meth:`~repro.core.Specification.safe_rows`: the specifications
          judge the loop's own state array at index 0 and after every step,
          and the verdicts go to :meth:`SafetyMonitor.observe_verdicts`.
          Such a monitor never stops a run, so nothing is replayed and
          nothing is rolled back.
        * **Any other stop_when** is evaluated in batch at block boundaries:
          a second cursor replays the block's configurations strictly in
          order, handing each to the predicate with its exact step index —
          so stateful in-order observers work unchanged — and a trigger at
          step ``t`` rolls the recorded run back to exactly the prefix the
          single-step engine would have kept.
        * **Terminal detection** stays in-kernel: an empty enabled mask ends
          the block early (``truncated=False``), and a fixed point (enabled
          vertices whose firing changes nothing) fast-forwards the remaining
          budget without further kernel work when no ``stop_when`` needs
          per-index evaluation.
        """
        import numpy as np

        if trace not in {"full", "light"}:
            raise SimulationError(f"unknown trace mode {trace!r}")
        if not daemon.synchronous:
            raise SimulationError(
                "run_supersteps requires a synchronous daemon: batched "
                "superstep execution skips per-step daemon selection"
            )
        if superstep is None:
            superstep = self.DEFAULT_SUPERSTEP
        if superstep < 1:
            raise SimulationError(f"superstep cadence must be >= 1, got {superstep}")
        states = (
            initial_array if initial_array is not None else self.encode_initial(initial)
        )
        if states is None:
            raise SimulationError(
                "initial configuration does not fit the protocol's array codec"
            )
        index = self._index
        codec = self._codec
        kernel = self._kernel
        vertices = index.vertices
        light = trace == "light"

        enabled_sets: List[FrozenSet[VertexId]] = []
        step_counts: List[int] = []
        checkpoints: Dict[int, object] = {0: states.copy()}
        replayer = _SuperstepReplayer(
            codec, kernel, index, checkpoints, self._refresh_rule_ids
        )
        monitor = _row_safety_monitor(stop_when)
        if monitor is not None:
            verdicts = _row_verdicts(monitor, states, vertices)
            if verdicts is None:
                monitor = None
            else:
                monitor.observe_verdicts(verdicts, 0)
        # Every other predicate is scanned at block boundaries on its own
        # strictly sequential cursor, so the main loop's state array (which
        # runs ahead of the scanned index) is never observed by it.
        scanner = (
            _SuperstepReplayer(codec, kernel, index, checkpoints, self._refresh_rule_ids)
            if stop_when is not None and monitor is None
            else None
        )
        scanned_to = -1

        def scan_until(limit: int) -> Optional[int]:
            """First index in ``scanned_to+1 .. limit`` where ``stop_when``
            fires (observing replayed configurations in order), or None."""
            nonlocal scanned_to
            while scanned_to < limit:
                target = scanned_to + 1
                observed = (
                    scanner.view_at(target)
                    if light
                    else scanner.configuration_at(target)
                )
                if stop_when(observed, target):
                    return target
                scanned_to = target
            return None

        steps = 0
        truncated = True
        rule_ids = kernel.enabled_rules(states, index)
        mask_cached = None
        enabled_fs: FrozenSet[VertexId] = frozenset()
        enabled_pos = None
        stop_at: Optional[int] = None
        while True:
            mask = rule_ids != -1
            if mask_cached is None or not np.array_equal(mask, mask_cached):
                mask_cached = mask
                enabled_pos = np.flatnonzero(mask)
                if enabled_pos.size == index.n:
                    enabled_fs = frozenset(vertices)
                else:
                    enabled_fs = frozenset(
                        map(vertices.__getitem__, enabled_pos.tolist())
                    )
            enabled_sets.append(enabled_fs)
            # Batched stop_when: at each block boundary (and at entry, for
            # index 0) replay the block just executed strictly in order and
            # hand every configuration to the predicate with its exact step
            # index.  Scanning *after* recording the boundary's enabled set
            # keeps rollback prefixes complete.
            if scanner is not None and steps % superstep == 0:
                stop_at = scan_until(steps)
                if stop_at is not None:
                    break
            if not enabled_fs:
                truncated = False
                break
            if steps == max_steps:
                truncated = True
                break
            rids = rule_ids[enabled_pos]
            old_rows = states[enabled_pos]  # fancy indexing copies: atomic snapshot
            new_rows = kernel.fire(states, enabled_pos, rids, index)
            changed_rows = (new_rows != old_rows).any(axis=1)
            any_change = bool(changed_rows.any())
            if any_change:
                states[enabled_pos] = new_rows
                rule_ids = self._refresh_rule_ids(
                    rule_ids, states, enabled_pos, changed_rows
                )
            step_counts.append(int(enabled_pos.size))
            steps += 1
            if monitor is not None:
                # An unchanged configuration keeps its verdicts.
                if any_change:
                    verdicts = _row_verdicts(monitor, states, vertices)
                monitor.observe_verdicts(verdicts, steps)
            if not any_change and stop_when is None:
                # Fixed point: enabled vertices whose firing changes nothing.
                # Every remaining step is this exact step — record it
                # wholesale instead of spinning the kernel.
                checkpoints[steps] = states.copy()
                remaining = max_steps - steps
                enabled_sets.extend([enabled_fs] * remaining)
                step_counts.extend([step_counts[-1]] * remaining)
                steps = max_steps
                enabled_sets.append(enabled_fs)
                truncated = True
                break
            if steps % superstep == 0:
                checkpoints[steps] = states.copy()
        if scanner is not None and stop_at is None:
            # Scan the tail block (terminal, budget-exhausted, or partial).
            stop_at = scan_until(steps)
        if stop_at is not None:
            # Roll back to exactly the prefix the single-step engine keeps
            # when stop_when fires at stop_at: stop_at completed steps, the
            # enabled set of stop_at recorded, truncated.
            steps = stop_at
            truncated = True
            del enabled_sets[steps + 1 :]
            del step_counts[steps:]
            for key in [k for k in checkpoints if k > steps]:
                del checkpoints[key]
            # The live state array ran ahead of the rollback point; the
            # replayer reconstructs the kept prefix's endpoint.
            self.last_final_configuration = replayer.configuration_at(steps)
        else:
            self.last_final_configuration = Configuration._from_trusted_dict(
                dict(zip(vertices, codec.decode(states)))
            )

        selections = enabled_sets[:steps]
        action_log = _SuperstepActionLog(
            replayer, step_counts, vertices, kernel.rule_names, codec
        )
        activations = _SuperstepActivations(action_log)
        if light:
            return Execution.from_activations(
                initial=initial,
                selections=selections,
                activations=activations,
                enabled_sets=enabled_sets,
                truncated=truncated,
                deltas=_SuperstepDeltaLog(action_log),
            )
        configurations: List[Configuration] = [initial]
        current = initial
        for step_index in range(steps):
            _selected, _rids, old_rows, new_rows = replayer.step_data(step_index)
            if bool((new_rows != old_rows).any()):
                current = replayer.configuration_at(step_index + 1)
            configurations.append(current)
        return Execution(
            configurations=configurations,
            selections=selections,
            activations=activations,
            enabled_sets=enabled_sets,
            truncated=truncated,
        )

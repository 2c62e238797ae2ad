"""The NumPy-vectorized array-state engine backend (the "vector kernel").

The incremental engine of :mod:`repro.core.engine` wins big in the sparse
regime (central-style daemons: O(Δ) per action), but under the synchronous
daemon every action dirties essentially every vertex, so each step still
pays n Python guard calls plus n Python firing calls.  That per-step cost
is exactly what the paper's headline synchronous experiments (Theorem 2
sweeps, E3/E6 at large n) are bound by at scale.

This module replaces the whole per-step scan by a handful of array
operations for protocols whose per-vertex state is a fixed small tuple of
machine integers (unison clocks, Dijkstra/SSME token counters), and runs
synchronous-daemon runs in supersteps:

* :class:`GraphIndex` — the communication graph flattened once into
  integer index arrays: a self-padded neighbour-slot table with an
  overflow list for hub rows (``slots``/``overflow_owner``/
  ``overflow_rows``) and CSR arrays (``indptr``/``indices``/``edge_src``);
* :class:`ArrayCodec` — encodes a configuration into an ``(n, k)`` int64
  array and decodes rows back into exact Python states
  (:class:`IntCodec` for plain-int states, :class:`IntTupleCodec` for
  fixed-width int tuples);
* :class:`ArrayKernel` — the protocol-declared vectorized transition
  relation: ``enabled_rules(states, index)`` returns, per vertex, the
  position of its *first* enabled rule (or -1), and
  ``fire(states, selected, rule_ids, index)`` returns the new state rows of
  the selected vertices — both as whole-array computations;
* :class:`VectorEngine` — a runner for synchronous-daemon runs with the
  observable executions of ``IncrementalEngine.run``, built on the above
  (:meth:`VectorEngine.run_supersteps`).

Protocols opt in through the capability API
:meth:`repro.core.Protocol.array_codec` / :meth:`~repro.core.Protocol.array_kernel`
(both return None by default); :func:`array_engine` is the one probe of
that capability.  :class:`~repro.core.Simulator` resolves the backend and
degrades gracefully: the vector backend is used only under the synchronous
daemon, when :func:`array_engine` finds a usable kernel; every other daemon
and protocol runs on the sparse/batch dict paths.  NumPy is a required
dependency, imported lazily: nothing in this module imports it at module
load, so ``import repro`` stays cheap.

Equivalence with the reference engine (same configurations, selections,
enabled sets, activation records, truncation) is pinned by
``tests/test_engine_equivalence.py`` and ``tests/test_vector_kernel.py``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import (
    Callable,
    Dict,
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
from .execution import DeltaLog, Execution, LazyActivations, LazyEnabledSets
from .protocol import Protocol
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
    "array_engine",
    "tile_block_positions",
    "tile_block_values",
]


def array_engine(protocol: Protocol) -> Optional["VectorEngine"]:
    """The protocol's :class:`VectorEngine`, or None when it has no usable
    one: the single array-capability probe.

    Usable means the protocol declares both an
    :meth:`~repro.core.Protocol.array_codec` and an
    :meth:`~repro.core.Protocol.array_kernel`, and the semantics the kernel
    encodes hold:

    * the stock transition semantics (the kernel replaces the whole
      guard/firing chain, see :meth:`Protocol.has_stock_transitions`);
    * the stock ``choose_rule`` (the kernel hard-codes the
      first-enabled-rule arbitration the base class implements);
    * firing re-validation impossible or waived
      (``actions_preserve_validity`` or a stock ``validate_state``) — the
      vector firing path does not call back into Python per vertex.

    The engine is built from the probed codec and kernel on the first
    success and kept on the protocol instance, so every simulator over one
    protocol shares one :class:`GraphIndex` and one prepared kernel; a
    declining protocol is re-probed on the next call.
    """
    engine = getattr(protocol, "_array_engine", None)
    if engine is not None:
        return engine
    if (
        not protocol.has_stock_transitions()
        or type(protocol).choose_rule is not Protocol.choose_rule
        or not (
            protocol.actions_preserve_validity
            or type(protocol).validate_state is Protocol.validate_state
        )
    ):
        return None
    codec = protocol.array_codec()
    kernel = protocol.array_kernel()
    if codec is None or kernel is None:
        return None
    engine = VectorEngine(protocol, codec=codec, kernel=kernel)
    protocol._array_engine = engine
    return engine


class GraphIndex:
    """Integer indexing of a (fixed) communication graph.

    Two layouts of the same adjacency live side by side:

    * the **neighbour-slot table** (ELL layout), which the unison/SSME
      kernel evaluates its guards on: ``slots[j]`` is a row-aligned array
      holding the ``j``-th neighbour of every row, and a row with fewer
      than ``width`` neighbours is padded with *its own position*.  A guard
      that compares a vertex's value with each neighbour's gathers
      ``s[slots]`` (one value row per slot) and ANDs its per-slot tests
      across slots — no segmented reduction.  A padded entry compares a
      row with itself, which is neutral for every guard that accepts a
      neighbour holding the vertex's own value.  The width is the largest
      degree at most twice the mean degree, so hub rows do not blow the
      table up to ``n·Δ``: the entries of a row beyond ``width`` go to the
      **overflow** list (``overflow_owner[e]`` owns neighbour
      ``overflow_rows[e]``, sorted by owner).  The table holds at most
      ``2·nnz`` entries and the overflow fewer than ``nnz``;
    * the classic **CSR** arrays, for kernels that reduce per-entry values
      (``min``/``max``/``any``/``all`` over a vertex's adjacency).

    Attributes
    ----------
    vertices:
        Row position -> vertex id (``graph.vertices`` order unless another
        row order is given).
    position:
        Vertex id -> row position.
    slots:
        ``(width, n)`` neighbour-slot table (row positions, self-padded).
    overflow_owner, overflow_rows:
        Adjacency entries past ``width``: owner row and neighbour row,
        sorted by owner (empty when no row has more than ``width``
        neighbours).
    indptr, indices:
        CSR adjacency: the neighbours of row ``i`` are
        ``indices[indptr[i]:indptr[i+1]]`` (row positions, not ids).
    edge_src:
        Row position of the *owning* vertex for every CSR entry, aligned
        with ``indices``.
    """

    __slots__ = (
        "vertices",
        "position",
        "n",
        "slots",
        "overflow_owner",
        "overflow_rows",
        "indptr",
        "indices",
        "edge_src",
    )

    def __init__(self, graph: Graph, vertices: Optional[Sequence[VertexId]] = None) -> None:
        """Index ``graph`` with rows in ``vertices`` order (default:
        ``graph.vertices``)."""
        import numpy as np

        self.vertices: Tuple[VertexId, ...] = tuple(
            graph.vertices if vertices is None else vertices
        )
        position = self.position = {v: i for i, v in enumerate(self.vertices)}
        n = self.n = len(self.vertices)
        degrees = [0] * n
        columns: List[int] = []
        for i, v in enumerate(self.vertices):
            neighbors = [position[u] for u in graph.neighbors(v)]
            degrees[i] = len(neighbors)
            columns.extend(neighbors)
        degree = np.asarray(degrees, dtype=np.int64)
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degree, out=self.indptr[1:])
        self.indices = np.asarray(columns, dtype=np.int64)
        self.edge_src = np.repeat(np.arange(n, dtype=np.int64), degree)

        # The largest degree at most twice the mean degree: n·width <= 2·nnz,
        # and only rows of more than twice the mean degree (hubs) overflow.
        # The minimum degree always qualifies.
        fits = degree * n <= 2 * int(self.indices.size)
        width = int(degree[fits].max()) if n else 0
        rank = np.arange(self.indices.size, dtype=np.int64) - self.indptr[self.edge_src]
        in_table = rank < width
        self.slots = np.tile(np.arange(n, dtype=np.int64), (width, 1))
        self.slots[rank[in_table], self.edge_src[in_table]] = self.indices[in_table]
        self.overflow_owner = self.edge_src[~in_table]
        self.overflow_rows = self.indices[~in_table]

    # Per-vertex reductions over the CSR entries.  ``edge_flags`` is a
    # boolean array aligned with ``indices``/``edge_src``; vertices without
    # neighbours reduce over the empty set (any -> False), matching
    # Python's any().
    def any_over_edges(self, edge_flags) -> "object":
        """Per-vertex ``any`` of a per-adjacency-entry boolean array."""
        import numpy as np

        return np.bincount(self.edge_src[edge_flags], minlength=self.n) > 0

    def overflow_of(self, rows):
        """Overflow entries of ``rows`` as ``(ranks, neighbor_rows)``, or
        None when ``rows`` own none (always, on graphs without hubs).

        ``ranks[e]`` indexes into ``rows`` (not the global row position);
        ``neighbor_rows[e]`` is the neighbour's row position.
        """
        import numpy as np

        owner = self.overflow_owner
        if not owner.size:
            return None
        starts = np.searchsorted(owner, rows, "left")
        counts = np.searchsorted(owner, rows, "right") - starts
        if not counts.any():
            return None
        ranks = np.repeat(np.arange(rows.size, dtype=np.int64), counts)
        # Entry k of a rank's run sits at starts[rank] + k.
        first = np.cumsum(counts) - counts
        entries = starts[ranks] + (np.arange(ranks.size, dtype=np.int64) - first[ranks])
        return ranks, self.overflow_rows[entries]

    def dirty_rows(self, changed):
        """``changed`` rows plus all their neighbours, sorted and unique.

        Exactly the rows whose guards can differ after a firing that only
        touched ``changed`` (guards are locally checkable by the protocol
        model: a vertex reads its own and its neighbours' states).  Padded
        slots point at ``changed`` itself, which the dedup absorbs.
        """
        import numpy as np

        parts = [changed, self.slots[:, changed].ravel()]
        overflow = self.overflow_of(changed)
        if overflow is not None:
            parts.append(overflow[1])
        # Sort, then keep each entry that differs from its predecessor:
        # np.unique's result without its per-call dispatch overhead.
        rows = np.concatenate(parts)
        rows.sort()
        keep = np.ones(rows.size, dtype=bool)
        np.not_equal(rows[1:], rows[:-1], out=keep[1:])
        return rows[keep]

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
    reads the graph through the index arrays, so a block-diagonal
    replication of the base adjacency — block ``b`` owning rows
    ``[b·n, (b+1)·n)`` with all edges (and slot padding) kept inside the
    block — makes every array operation compute ``B`` independent
    instances at once.

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
        block_start = np.arange(blocks, dtype=np.int64) * base.n

        def tiled(rows):
            # Block b's copy of a row-position array, shifted into block b.
            return (rows + block_start[:, None]).ravel()

        self.slots = (base.slots[:, None, :] + block_start[:, None]).reshape(
            base.slots.shape[0], n
        )
        self.overflow_owner = tiled(base.overflow_owner)
        self.overflow_rows = tiled(base.overflow_rows)
        degrees = base.indptr[1:] - base.indptr[:-1]
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.tile(degrees, blocks), out=self.indptr[1:])
        self.indices = tiled(base.indices)
        self.edge_src = tiled(base.edge_src)


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
      is why :func:`array_engine` rejects overrides.
    * ``fire`` evaluates the actions of ``rule_ids`` for the ``selected``
      row positions against the *current* ``states`` (atomic-snapshot
      semantics: the engine writes the returned rows back only after the
      call) and returns the ``(len(selected), width)`` new rows.
      ``selected`` may also be ``slice(None)``: a dense synchronous step
      fires every row at once, with ``rule_ids`` the whole rule-id array.
      Rows whose rule id is ``-1`` (disabled) may then get any value —
      the engine discards them — but must not raise.

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
        """``(len(selected), width)`` new state rows for ``selected`` (row
        positions, or ``slice(None)`` for every row)."""

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


class _SuperstepReplayer:
    """Deterministic re-execution of a superstep run from its checkpoints.

    The superstep path records only periodic state-array snapshots; every
    per-step artefact a trace reader asks for later (light-trace
    configurations and deltas, activation records) is reconstructed on
    demand by replaying the kernel forward from the nearest checkpoint at
    or before the requested index.  The kernel is a pure function of the
    state array, and the replay steps a :class:`_RunState` exactly as the
    run's own loop does (same dense/sparse branches), so the replay is
    bit-identical to the original run.

    One mutable cursor (a :class:`_RunState` positioned at configuration
    ``_at``) is kept; sequential access — the dominant pattern through
    ``LazyConfigurationTrace.iter_from`` and aggregate walks — costs one
    kernel step per index, and a random access costs at most one
    checkpoint load plus :attr:`VectorEngine.CHECKPOINT_SPACING` − 1
    kernel steps.
    """

    __slots__ = ("_engine", "_checkpoints", "_at", "_run")

    def __init__(self, engine: "VectorEngine", checkpoints) -> None:
        self._engine = engine
        #: step -> pristine state-array snapshot (never handed out).
        self._checkpoints: Dict[int, object] = checkpoints
        self._at = -1
        self._run: Optional[_RunState] = None

    def seek(self, step: int) -> None:
        """Position the cursor on configuration ``step``: from the nearest
        checkpoint at or before it, unless the cursor already sits between
        that checkpoint and ``step``."""
        if self._at == step:
            return
        base = max(k for k in self._checkpoints if k <= step)
        if self._at < base or self._at > step:
            self._run = _RunState(self._engine, self._checkpoints[base].copy())
            self._at = base
        while self._at < step:
            self._run.step()
            self._at += 1

    def step_data(self, step: int):
        """``(selected, rule_ids, old_rows, new_rows, changed_rows)`` of
        action ``step``: the fired row positions, their rule ids, their
        rows before and after, and the per-row change mask (None when the
        step changed nothing).

        All arrays are safe to retain (the positions are shared with the
        cursor, which never writes to them); the cursor ends on
        configuration ``step + 1`` so sequential action walks replay each
        step exactly once.
        """
        self.seek(step)
        run = self._run
        selected = run.positions()
        rule_ids = run.rule_ids[selected]
        old_rows = run.states[selected]  # fancy indexing copies
        changed = run.step()
        self._at += 1
        new_rows = run.states[selected]
        changed_rows = _changed_rows(new_rows, old_rows) if changed else None
        return selected, rule_ids, old_rows, new_rows, changed_rows


class _SuperstepActionLog(Sequence):
    """Per-action raw firing logs reconstructed by replay.

    The raw log handed to :class:`~repro.core.LazyActivations` by the
    superstep path: ``log[i]`` replays action ``i`` through the shared
    :class:`_SuperstepReplayer` and decodes its step data in bulk (four
    ``tolist`` calls) into the list of ``(vertex, rule_name, old, new)``
    tuples :class:`~repro.core.LazyActivations` consumes.
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
        selected, rule_ids, old_rows, new_rows, _ = self._replayer.step_data(index)
        return list(
            zip(
                map(self._vertices.__getitem__, selected.tolist()),
                map(self._names.__getitem__, rule_ids.tolist()),
                self._codec.decode(old_rows),
                self._codec.decode(new_rows),
            )
        )


class _SuperstepActivations(LazyActivations):
    """:class:`LazyActivations` whose aggregates avoid replaying.

    ``moves()`` reads the per-step selection counts the superstep loop
    recorded as plain ints, and ``activated_vertices`` returns the step's
    recorded selection: under the synchronous daemon every enabled vertex
    fires, so round counting on big-n light traces never runs the kernel.
    """

    __slots__ = ("_selections",)

    def __init__(self, log: _SuperstepActionLog, selections) -> None:
        super().__init__(log)
        self._selections = selections

    def moves(self) -> int:
        return sum(self._raw._counts)

    def activated_vertices(self, index: int):
        return self._selections[index]


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
        selected, _rule_ids, _old_rows, new_rows, changed_rows = log._replayer.step_data(
            log._position_index(index)
        )
        return _delta(selected, new_rows, changed_rows, log._vertices, log._codec)


def _delta(selected, new_rows, changed_rows, vertices, codec) -> Dict[VertexId, VertexStateLike]:
    """``{vertex: new state}`` of the rows one firing of ``selected`` changed
    (``changed_rows`` as :meth:`_SuperstepReplayer.step_data` returns it:
    the per-row change mask, or None when nothing changed)."""
    if changed_rows is None:
        return {}
    if bool(changed_rows.all()):
        changed, changed_new = selected, new_rows
    else:
        changed, changed_new = selected[changed_rows], new_rows[changed_rows]
    return dict(zip(map(vertices.__getitem__, changed.tolist()), codec.decode(changed_new)))


def _changed_rows(new_rows, old_rows):
    """Per-row ``(new_rows != old_rows).any(axis=1)`` of two ``(m, width)``
    arrays; width-1 rows need a reshape, not a reduction."""
    differs = new_rows != old_rows
    if differs.shape[1] == 1:
        return differs.reshape(-1)
    return differs.any(axis=1)


def _dense(rows: int, n: int) -> bool:
    """Whether firing ``rows`` of ``n`` rows is a dense step.

    The guards are then rescanned in full without building the dirty set
    (the neighbourhood of that many rows rarely stays under the
    sparse-refresh threshold), and a synchronous step fires every row by
    mask.
    """
    return rows * 6 >= n


class _RunState:
    """A run's state array with its guards kept current across firings.

    Holds the first-enabled rule ids, the enabled mask and its count.  A
    full guard rescan resets the mask with one ``rule_ids != -1``; a sparse
    refresh patches only its dirty rows.  :meth:`enabled` hands out the
    enabled rows in the form the next synchronous step uses — the mask
    itself on a dense step, row positions otherwise — and the same object
    for as long as the mask does not change, so consecutive equal masks
    share one record.  A mask handed out is never patched in place: only a
    dense step hands it out, a dense step ends with a full rescan, and a
    rescan that changes the mask builds a new one.  Only masks built since
    the last dense step reach a sparse patch.

    :meth:`step` fires every enabled row (one synchronous step): by mask
    when the step is dense, by row positions otherwise.  After a firing
    that changed some row, :attr:`dirty` holds the rows whose guards the
    refresh re-evaluated — the changed rows and their neighbours — or None
    after a full rescan.
    """

    __slots__ = (
        "_kernel",
        "_index",
        "_subset_refresh",
        "states",
        "rule_ids",
        "mask",
        "count",
        "dirty",
        "_positions",
    )

    def __init__(self, engine: "VectorEngine", states) -> None:
        import numpy as np

        self._kernel = engine._kernel
        self._index = engine._index
        self._subset_refresh = engine._subset_refresh
        self.states = states
        self.rule_ids = self._kernel.enabled_rules(states, self._index)
        self.mask = self.rule_ids != -1
        self.count = int(np.count_nonzero(self.mask))
        self.dirty = None
        self._positions = None

    def positions(self):
        """The enabled row positions (rebuilt only after the mask changed)."""
        import numpy as np

        if self._positions is None:
            self._positions = np.flatnonzero(self.mask)
        return self._positions

    def enabled(self):
        """The enabled rows: the mask on a dense step, positions otherwise."""
        if _dense(self.count, self._index.n):
            return self.mask
        return self.positions()

    def step(self) -> bool:
        """Fire every enabled row (one synchronous step); True when some
        row changed.

        Atomic-snapshot semantics: every action reads ``states`` as it was
        before the firing, and the new rows are written back afterwards.
        A dense step fires all rows in one ``kernel.fire(states,
        slice(None), rule_ids, index)`` call and writes back the enabled
        ones by mask, then rescans the guards in full; a sparse step fires
        the enabled positions only and, when the kernel declares
        ``enabled_rules_for``, refreshes the guards of the changed rows and
        their neighbours only (:meth:`_refresh`).  A step that changes no
        row refreshes nothing.
        """
        import numpy as np

        states = self.states
        if not _dense(self.count, self._index.n):
            selected = self.positions()
            rids = self.rule_ids[selected]
            old_rows = states[selected]  # fancy indexing copies: the atomic snapshot
            new_rows = self._kernel.fire(states, selected, rids, self._index)
            changed_rows = _changed_rows(new_rows, old_rows)
            if not changed_rows.any():
                return False
            states[selected] = new_rows
            if self._subset_refresh:
                self._refresh(selected if changed_rows.all() else selected[changed_rows])
            else:
                self._rescan()
            return True
        mask = self.mask
        fired = self._kernel.fire(states, slice(None), self.rule_ids, self._index)
        changed = _changed_rows(fired, states)
        changed &= mask
        if not changed.any():
            return False
        np.copyto(states, fired, where=mask[:, None])
        self._rescan()
        return True

    def _refresh(self, changed) -> None:
        """Re-evaluate the guards of the ``changed`` rows and their
        neighbours only, unless that dirty set covers ``n /
        _SPARSE_REFRESH`` rows or more (then rescan in full).  Entry-for-entry
        identical to a full rescan by the ``enabled_rules_for`` exactness
        contract."""
        import numpy as np

        index = self._index
        dirty = index.dirty_rows(changed)
        if int(dirty.size) * VectorEngine._SPARSE_REFRESH >= index.n:
            self._rescan()
            return
        rids = self._kernel.enabled_rules_for(self.states, dirty, index)
        self.rule_ids[dirty] = rids
        self.dirty = dirty
        now = rids != -1
        before = self.mask[dirty]
        if (now != before).any():
            self.mask[dirty] = now
            self.count += int(np.count_nonzero(now)) - int(np.count_nonzero(before))
            self._positions = None

    def _rescan(self) -> None:
        """Re-evaluate every guard; keep the mask object when it is equal."""
        import numpy as np

        self.rule_ids = self._kernel.enabled_rules(self.states, self._index)
        self.dirty = None
        mask = self.rule_ids != -1
        count = int(np.count_nonzero(mask))
        if count == self.count and (
            count == 0 or count == mask.size or not (mask != self.mask).any()
        ):
            return
        self.mask = mask
        self.count = count
        self._positions = None


def _row_safety_monitor(stop_when):
    """The :class:`~repro.core.SafetyMonitor` whose ``observe`` is
    ``stop_when`` (bare or wrapping a predicate of its own), or None for
    every other predicate."""
    from .stabilization import SafetyMonitor

    monitor = getattr(stop_when, "__self__", None)
    if isinstance(monitor, SafetyMonitor) and stop_when.__func__ is SafetyMonitor.observe:
        return monitor
    return None


def _row_checks(monitor, states, order):
    """``(checks, verdicts)`` for ``monitor``'s specifications on a run's
    ``(n, width)`` state array, or None when some specification does not
    implement :meth:`~repro.core.Specification.safe_rows`.

    ``verdicts`` judges ``states`` as it is now; each ``check(states,
    rows)`` returns a later verdict.  A specification's
    :meth:`~repro.core.Specification.safety_tracker` serves as its check
    when it declares one (``rows``: the rows re-evaluated since the last
    check, None for all); otherwise the check calls ``safe_rows`` on the
    whole array.
    """
    protocol = monitor.protocol
    checks: List[Callable] = []
    verdicts: List[bool] = []
    for specification in monitor.specifications:
        flags = specification.safe_rows(states[None], order, protocol)
        if flags is None:
            return None
        verdicts.append(bool(flags[0]))
        tracker = specification.safety_tracker(order, protocol)
        if tracker is not None:
            tracker.update(states, None)
            checks.append(tracker.update)
            continue

        def check(states, rows, specification=specification):
            return bool(specification.safe_rows(states[None], order, protocol)[0])

        checks.append(check)
    return checks, verdicts


class VectorEngine:
    """Array-state runner with the :class:`IncrementalEngine` run contract
    for synchronous-daemon runs.

    One instance per protocol (kept on the protocol instance by
    :func:`array_engine`); stateless between runs.
    :meth:`run_supersteps` executes synchronous-daemon runs one step per
    loop iteration over one run state (:class:`_RunState`, which fires
    and refreshes the guards).  Each step is a constant number of
    whole-array operations: guard evaluation through the protocol's
    :class:`ArrayKernel`, firing through vectorized actions, and
    O(Δ)-in-C bookkeeping for the trace.  The enabled mask is tracked
    across firings and the enabled row positions are recomputed only when
    it changed; the loop consults no daemon, records the masks and
    position arrays themselves in a :class:`~repro.core.LazyEnabledSets`
    and builds a set only when the execution is asked for it.
    """

    __slots__ = (
        "_protocol",
        "_index",
        "_codec",
        "_kernel",
        "_subset_refresh",
    )

    #: Steps between two state-array checkpoints of a run: a trace reader's
    #: random access replays at most this many steps minus one.
    CHECKPOINT_SPACING = 64

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

    def _initial_states(self, initial: Configuration, trace: str, initial_array):
        """The run's mutable state array: ``initial_array`` (pre-encoded by
        the caller) or ``initial`` encoded; raises on an unknown ``trace``
        or states outside the codec's layout."""
        if trace not in {"full", "light"}:
            raise SimulationError(f"unknown trace mode {trace!r}")
        states = initial_array if initial_array is not None else self.encode_initial(initial)
        if states is None:
            raise SimulationError(
                "initial configuration does not fit the protocol's array codec"
            )
        return states

    def run_supersteps(
        self,
        initial: Configuration,
        max_steps: int,
        stop_when: Optional[Callable[[Configuration, int], bool]] = None,
        trace: str = "full",
        initial_array=None,
    ) -> Execution:
        """Run up to ``max_steps`` *synchronous* actions on one state array.

        Same contract — and bit-identical observable executions — as the
        reference engine under a synchronous daemon, but each step is a
        handful of array operations and no daemon is consulted: the caller
        runs this loop only for a synchronous daemon
        (:attr:`Daemon.synchronous`), whose selection of every step is the
        full enabled set, so the schedule is deterministic and there is no
        per-step decision to make.

        * **Observation** follows the dict engine: every index gets one
          ``stop_when`` call, on the loop's own state, before that index's
          step.  Light traces hand the predicate one live
          :class:`ArrayStateView` of the state array; full traces hand it
          the decoded configuration, which the loop builds after every
          changing step and reuses otherwise.
        * **Traces** record one state-array checkpoint every
          :attr:`CHECKPOINT_SPACING` steps; light-trace configurations and
          deltas, and the activation records of both modes, are
          reconstructed on demand by replaying the (deterministic) kernel
          from the nearest checkpoint (:class:`_SuperstepReplayer`), so a
          light trace keeps O(n · steps / CHECKPOINT_SPACING) memory
          instead of O(n · steps).
        * **Steps** fire by mask when dense (at least ``n / 6`` enabled
          rows) and by row positions otherwise (:meth:`_RunState.step`).
        * **Enabled sets and selections** are recorded in the form the
          step already holds — the enabled mask on dense steps, the
          enabled row positions on sparse ones — one object shared by
          every consecutive step with the same enabled mask, in a
          :class:`~repro.core.LazyEnabledSets`: ``enabled_at(i)`` and
          ``selection(i)`` build their ``frozenset`` on first read and
          cache it per distinct record, so a run nobody inspects builds
          none.
        * **Safety monitoring** stays in-kernel when ``stop_when`` is a
          :class:`~repro.core.SafetyMonitor`'s ``observe`` and every
          monitored specification implements
          :meth:`~repro.core.Specification.safe_rows`: the specifications
          judge the loop's own state array at index 0 and after every
          changing step, and the verdicts go to
          :meth:`SafetyMonitor.observe_verdicts`.  A specification with a
          :meth:`~repro.core.Specification.safety_tracker` is judged from
          the rows the guard refresh re-evaluated.  A predicate the
          monitor wraps is then called at the same index, after the
          verdicts, as :meth:`SafetyMonitor.observe` orders them.
        * **Terminal detection** stays in-kernel: an empty enabled mask
          ends the run (``truncated=False``), and a fixed point (enabled
          vertices whose firing changes nothing) fast-forwards the
          remaining budget without further kernel work when no
          ``stop_when`` needs per-index evaluation; a bare in-kernel
          monitor records its unchanged verdicts at every remaining
          index.
        """
        states = self._initial_states(initial, trace, initial_array)
        index = self._index
        codec = self._codec
        vertices = index.vertices
        light = trace == "light"
        spacing = self.CHECKPOINT_SPACING

        # One enabled record per configuration: the mask on dense steps,
        # row positions on sparse ones; consecutive equal masks share one
        # record (see _RunState.enabled and LazyEnabledSets).
        enabled_log: List[object] = []
        step_counts: List[int] = []
        checkpoints: Dict[int, object] = {0: states.copy()}
        predicate = stop_when
        monitor = _row_safety_monitor(stop_when)
        if monitor is not None:
            row_checks = _row_checks(monitor, states, vertices)
            if row_checks is None:
                monitor = None
            else:
                checks, verdicts = row_checks
                predicate = monitor.stop_when
        # The predicate observes the loop's own state: one live view over
        # the state array (mutated in place) or the decoded configuration.
        live_view = ArrayStateView(index, states, codec) if light else None
        configurations: List[Configuration] = [initial]
        current = initial

        steps = 0
        truncated = True
        run_state = _RunState(self, states)
        while True:
            enabled = run_state.enabled()
            enabled_log.append(enabled)
            if monitor is not None:
                monitor.observe_verdicts(verdicts, steps)
            if predicate is not None and predicate(
                live_view if light else current, steps
            ):
                truncated = True
                break
            enabled_count = run_state.count
            if enabled_count == 0:
                truncated = False
                break
            if steps == max_steps:
                truncated = True
                break
            any_change = run_state.step()
            step_counts.append(enabled_count)
            steps += 1
            if any_change:
                if monitor is not None:
                    # A changed configuration is judged from the rows the
                    # guard refresh re-evaluated; an unchanged one keeps
                    # its verdicts.
                    dirty = run_state.dirty
                    verdicts = [check(states, dirty) for check in checks]
                if not light:
                    current = Configuration._from_trusted_dict(
                        dict(zip(vertices, codec.decode(states)))
                    )
            elif predicate is None:
                # Fixed point: enabled vertices whose firing changes nothing.
                # Every remaining step is this exact step — record it
                # wholesale instead of spinning the kernel.  A bare
                # in-kernel monitor sees the same verdicts at every
                # remaining index.
                if monitor is not None:
                    for index in range(steps, max_steps + 1):
                        monitor.observe_verdicts(verdicts, index)
                checkpoints[steps] = states.copy()
                remaining = max_steps - steps
                enabled_log.extend([enabled] * (remaining + 1))
                step_counts.extend([enabled_count] * remaining)
                if not light:
                    configurations.extend([current] * (remaining + 1))
                steps = max_steps
                truncated = True
                break
            if not light:
                configurations.append(current)
            if steps % spacing == 0:
                checkpoints[steps] = states.copy()

        enabled_sets = LazyEnabledSets(enabled_log, vertices)
        selections = enabled_sets[:steps]
        action_log = _SuperstepActionLog(
            _SuperstepReplayer(self, checkpoints),
            step_counts,
            vertices,
            self._kernel.rule_names,
            codec,
        )
        activations = _SuperstepActivations(action_log, selections)
        if light:
            return Execution.from_activations(
                initial=initial,
                selections=selections,
                activations=activations,
                enabled_sets=enabled_sets,
                truncated=truncated,
                deltas=_SuperstepDeltaLog(action_log),
            )
        return Execution(
            configurations=configurations,
            selections=selections,
            activations=activations,
            enabled_sets=enabled_sets,
            truncated=truncated,
        )

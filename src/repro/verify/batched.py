"""The vectorized exact checker: batched expansion and array game solving.

The dict-based :class:`~repro.verify.TransitionSystem` pays one Python
decode, one Python safety call, ``|selections|`` Python firings and a dict
operation per successor *per configuration* — the cost that caps PR 4's
checker near ~10⁶ states.  This module re-runs the same exploration as
array programs over the PR 3 kernel machinery:

* **Batched expansion** (:class:`BatchedTransitionSystem`).  Thousands of
  frontier configurations are stacked into one ``(B·n, width)`` int64 state
  array over a block-diagonal :class:`~repro.core.vector.TiledGraphIndex`;
  the protocol's unmodified :class:`~repro.core.vector.ArrayKernel`
  evaluates every guard of every stacked configuration in one
  ``enabled_rules`` call and fires every enabled (configuration, vertex)
  pair in one ``fire`` call on the configurations themselves (the
  kernel's atomic-snapshot contract: a fired row reads only its
  pre-state).  Every daemon class is then a set of selections over those
  pairs, in the dict path's deterministic order (repr-rank within a
  configuration): the synchronous class takes all of a configuration's
  pairs, the central class one pair, the distributed class each subset.
  No successor configuration is materialized to compute its key: a
  selection's key columns are its parent's plus the fired digits' deltas
  times their mixed-radix multipliers, and index rows are built only for
  newly discovered states.

* **State identity without bignums** (:class:`ArrayPacker`).  Mixed-radix
  keys overflow int64 already on SSME's ring(10) (``126¹⁰ > 2⁶³``), so the
  packer splits the radix vector into contiguous *groups* whose products
  stay below ``2⁶²``: a configuration's identity is a short tuple of int64
  "key columns" whose lexicographic order equals the numeric key order.
  Python-int keys are materialized only at result boundaries (lassos,
  ``value_of`` lookups, dict-system conversion), never per explored state.

* **Array frontier and solver** (:func:`solve_arrays`).  One stable
  ``lexsort`` per round both dedups each parent's successors and lists
  the round's distinct keys; only those probe the node registry, an
  open-addressing table of int32 node ids over the explored states' index
  rows, stored one unsigned byte per vertex where the domains allow.  The
  attractor peel and backward value iteration run over CSR
  successor/predecessor arrays (int32 ids below 2³¹ nodes) and boolean
  visited masks, touching every edge a constant number of times with no
  per-state Python.

Exactness is preserved end to end: the kernels are pinned to the stock
engine semantics by the engine equivalence suites, the expansion replicates
the dict path's selection enumeration and per-state successor dedup order,
and the equivalence tests assert bit-identical systems and values on every
instance the dict path can also afford.  The dict path stays the oracle,
and :func:`~repro.verify.verify_stabilization` falls back to it
automatically for protocols the batched engine cannot run.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.protocol import Protocol
from ..core.specification import Specification
from ..core.state import Configuration
from ..core.vector import (
    ArrayCodec,
    ArrayKernel,
    GraphIndex,
    TiledGraphIndex,
    array_engine,
)
from ..exceptions import VerificationError
from .statespace import StateSpace
from .transitions import (
    DAEMON_CLASSES,
    DEFAULT_MAX_SELECTIONS,
    DEFAULT_MAX_STATES,
    ExploredSystem,
)

__all__ = [
    "ArrayExploredSystem",
    "ArrayGameSolution",
    "ArrayPacker",
    "BatchedTransitionSystem",
    "batched_supported",
    "solve_arrays",
]

#: Frontier configurations stacked per kernel call.  Large enough to
#: amortize per-call Python overhead into noise, small enough that the
#: per-call scratch arrays stay cache-friendly.
DEFAULT_BATCH_BLOCKS = 4096

#: Ceiling on the per-vertex codec lookup tables (guards against codecs
#: whose integer layout is so sparse that a dense table would balloon).
_MAX_TABLE_ENTRIES = 4_000_000

#: Key-column group capacity: products of group radices stay below this so
#: int64 column arithmetic can never overflow.
_GROUP_CAPACITY = 1 << 62


class ArrayPacker:
    """Bidirectional map between codec state rows, per-vertex domain
    indices, and grouped int64 key columns.

    Built once per (space, codec) pair.  ``indices`` are the mixed-radix
    digits of the packed key (vertex ``i``'s state index in its declared
    domain), held in :attr:`digit_dtype`; ``rows`` are the codec's
    ``(n, width)`` int64 representation the kernels compute on; ``key
    columns`` are the grouped digits used for state identity and
    canonical-order comparisons.
    """

    __slots__ = (
        "_space",
        "_codec",
        "_n",
        "_width",
        "_dom_rows",
        "_dom_stack",
        "_lo",
        "_stride",
        "_span",
        "_table",
        "_key_matrix",
        "_group_bases",
        "_local_mult",
        "_group_of",
        "_radices",
        "_digit_dtype",
    )

    def __init__(self, space: StateSpace, codec: ArrayCodec) -> None:
        import numpy as np

        self._space = space
        self._codec = codec
        vertices = space.vertices
        domains = space.domains
        n = self._n = len(vertices)
        width = self._width = codec.width
        self._radices = tuple(len(domain) for domain in domains)
        self._digit_dtype = np.min_scalar_type(max(self._radices) - 1)

        # Per-vertex domain rows through the codec (the codec is the single
        # source of truth for the integer layout the kernels see).
        dom_rows: List = []
        for vertex, domain in zip(vertices, domains):
            try:
                rows = np.concatenate(
                    [codec.encode({vertex: state}, (vertex,)) for state in domain]
                )
            except (TypeError, ValueError, OverflowError) as error:
                raise VerificationError(
                    f"the array codec cannot encode the declared state space "
                    f"of vertex {vertex!r}: {error}"
                ) from error
            dom_rows.append(rows.astype(np.int64))
        self._dom_rows = dom_rows
        d_max = max(rows.shape[0] for rows in dom_rows)
        self._dom_stack = np.zeros((n, d_max, width), dtype=np.int64)
        for i, rows in enumerate(dom_rows):
            self._dom_stack[i, : rows.shape[0]] = rows

        # Dense per-vertex lookup tables: codec row -> domain index.  Rows
        # are first collapsed to a small "combined id" via per-column
        # offsets and strides, then looked up; -1 marks invalid rows.
        lo = np.empty((n, width), dtype=np.int64)
        span = np.empty((n, width), dtype=np.int64)
        stride = np.empty((n, width), dtype=np.int64)
        totals = []
        for i, rows in enumerate(dom_rows):
            lo[i] = rows.min(axis=0)
            span[i] = rows.max(axis=0) - lo[i] + 1
            stride[i, 0] = 1
            for j in range(1, width):
                stride[i, j] = stride[i, j - 1] * span[i, j - 1]
            totals.append(int(stride[i, width - 1] * span[i, width - 1]))
        if sum(totals) > _MAX_TABLE_ENTRIES:
            raise VerificationError(
                "the codec's integer layout is too sparse for dense lookup "
                f"tables ({sum(totals)} entries needed)"
            )
        self._lo, self._span, self._stride = lo, span, stride
        table = np.full((n, max(totals)), -1, dtype=np.int64)
        for i, rows in enumerate(dom_rows):
            combined = ((rows - lo[i]) * stride[i]).sum(axis=1)
            if np.unique(combined).size != rows.shape[0]:
                raise VerificationError(
                    f"the array codec maps two states of vertex "
                    f"{vertices[i]!r} to the same row; exact verification "
                    "needs an injective codec"
                )
            table[i, combined] = np.arange(rows.shape[0], dtype=np.int64)
        self._table = table

        # Key-column groups: contiguous runs of positions whose radix
        # product stays below the int64-safe capacity.  Column c of
        # ``key_columns`` holds the group's local mixed-radix value; the
        # full key is ``Σ column_c · group_bases[c]`` (Python ints — the
        # bases themselves may exceed int64).
        group_starts = [0]
        local_mult = np.empty(n, dtype=np.int64)
        group_of = np.empty(n, dtype=np.int64)
        product = 1
        for i, radix in enumerate(self._radices):
            if product * radix > _GROUP_CAPACITY and product > 1:
                group_starts.append(i)
                product = 1
            local_mult[i] = product
            group_of[i] = len(group_starts) - 1
            product *= radix
        self._group_bases = [space.multipliers[start] for start in group_starts]
        self._local_mult = local_mult
        self._group_of = group_of
        # Key columns as one integer matrix product: column c sums the
        # group's digits times their local multipliers.
        self._key_matrix = np.zeros((n, len(group_starts)), dtype=np.int64)
        self._key_matrix[np.arange(n), group_of] = local_mult

    # ------------------------------------------------------------------ #
    # Geometry
    # ------------------------------------------------------------------ #
    @property
    def space(self) -> StateSpace:
        """The packed space this packer serves."""
        return self._space

    @property
    def packable(self) -> bool:
        """Whether full keys fit a single int64 column."""
        return len(self._group_bases) == 1

    @property
    def columns(self) -> int:
        """Number of key columns (1 when :attr:`packable`)."""
        return len(self._group_bases)

    @property
    def digit_dtype(self):
        """The narrowest unsigned dtype holding every domain index (uint8
        for domains of at most 256 states): the dtype of index matrices."""
        return self._digit_dtype

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    def rows_of(self, indices):
        """``(m, n, width)`` codec rows of an ``(m, n)`` index matrix."""
        import numpy as np

        return self._dom_stack[np.arange(self._n)[None, :], indices]

    def indices_of(self, rows):
        """``(m, n)`` domain indices of an ``(m, n, width)`` codec-row
        array (:meth:`digits_of` over every vertex of every row)."""
        import numpy as np

        m = rows.shape[0]
        flat = rows.reshape(m * self._n, self._width)
        positions = np.tile(np.arange(self._n, dtype=np.int64), m)
        return self.digits_of(flat, positions).reshape(m, self._n)

    def digits_of(self, rows, positions):
        """Domain indices of ``(m, width)`` codec rows, row ``k`` read as a
        state of vertex position ``positions[k]``; raises
        :class:`VerificationError` (naming the vertex and the offending
        value) when any row is outside its vertex's declared domain."""
        import numpy as np

        shifted = rows - self._lo[positions]
        in_box = ((shifted >= 0) & (shifted < self._span[positions])).all(axis=1)
        # Clamp out-of-box rows to a valid table slot before the gather.
        combined = (np.where(in_box[:, None], shifted, 0) * self._stride[positions]).sum(axis=1)
        digits = self._table[positions, combined]
        invalid = ~in_box | (digits < 0)
        if invalid.any():
            first = int(np.argmax(invalid))
            state = self._codec.decode(rows[first][None, :])[0]
            vertex = self._space.vertices[int(positions[first])]
            raise VerificationError(
                f"state {state!r} of vertex {vertex!r} is outside the "
                "declared state space"
            )
        return digits

    def key_columns(self, indices):
        """``(m, C)`` grouped key columns of an ``(m, n)`` index matrix.

        Lexicographic order over the columns (most-significant column
        last) equals numeric order of the full mixed-radix keys.  The
        product with the int64 key matrix widens narrow index digits, so
        the columns are int64 whatever the index dtype.
        """
        return indices @ self._key_matrix

    def python_keys(self, indices) -> List[int]:
        """Exact Python-int mixed-radix keys of an ``(m, n)`` index matrix
        (arbitrary precision; used only at result boundaries)."""
        cols = self.key_columns(indices)
        if self.packable:
            return [int(k) for k in cols[:, 0].tolist()]
        bases = self._group_bases
        columns = [cols[:, c].tolist() for c in range(len(bases))]
        return [
            sum(columns[c][i] * bases[c] for c in range(len(bases)))
            for i in range(cols.shape[0])
        ]

    def indices_of_keys(self, keys: Sequence[int]):
        """``(m, n)`` index matrix of Python-int keys (inverse of
        :meth:`python_keys`; per-key divmod, for small seed regions)."""
        import numpy as np

        out = np.empty((len(keys), self._n), dtype=self._digit_dtype)
        for row, key in enumerate(keys):
            for i, radix in enumerate(self._radices):
                key, out[row, i] = divmod(key, radix)
        return out

    def configurations_of(self, indices) -> List[Configuration]:
        """Decoded configurations of an ``(m, n)`` index matrix (Python
        loop — the safety fallback and small result surfaces only)."""
        domains = self._space.domains
        vertices = self._space.vertices
        columns = indices.T.tolist()
        out = []
        for s in range(indices.shape[0]):
            out.append(
                Configuration._from_trusted_dict(
                    {
                        vertices[i]: domains[i][columns[i][s]]
                        for i in range(self._n)
                    }
                )
            )
        return out


def batched_supported(protocol: Protocol, specification: Specification) -> bool:
    """Whether the batched engine can run this instance: an alias of the
    array-capability probe :func:`~repro.core.vector.array_engine`."""
    return array_engine(protocol) is not None


class ArrayExploredSystem:
    """An explored transition system held in arrays.

    The array analogue of :class:`~repro.verify.ExploredSystem`: node ids
    are dense ints in discovery order; ``indptr``/``succ`` form the CSR
    successor relation (terminal nodes carry their self-loop explicitly);
    ``index_matrix`` holds every node's domain indices, in the packer's
    :attr:`~ArrayPacker.digit_dtype`, so keys and configurations can be
    materialized on demand.
    """

    __slots__ = (
        "space",
        "daemon_class",
        "exhaustive",
        "packer",
        "index_matrix",
        "indptr",
        "succ",
        "safe",
        "terminal",
        "initial_nodes",
        "_keys_cache",
        "_node_of_key_cache",
    )

    def __init__(
        self,
        space: StateSpace,
        daemon_class: str,
        exhaustive: bool,
        packer: ArrayPacker,
        index_matrix,
        indptr,
        succ,
        safe,
        terminal,
        initial_nodes,
    ) -> None:
        self.space = space
        self.daemon_class = daemon_class
        self.exhaustive = exhaustive
        self.packer = packer
        self.index_matrix = index_matrix
        self.indptr = indptr
        self.succ = succ
        self.safe = safe
        self.terminal = terminal
        self.initial_nodes = initial_nodes
        self._keys_cache: Optional[List[int]] = None
        self._node_of_key_cache: Optional[Dict[int, int]] = None

    @property
    def state_count(self) -> int:
        """Number of explored configurations."""
        return int(self.index_matrix.shape[0])

    @property
    def transition_count(self) -> int:
        """Number of explored transitions (after per-state dedup)."""
        return int(self.succ.size)

    def keys(self) -> List[int]:
        """Python-int keys of every node, in discovery (node id) order."""
        if self._keys_cache is None:
            self._keys_cache = self.packer.python_keys(self.index_matrix)
        return self._keys_cache

    def node_of_key(self, key: int) -> Optional[int]:
        """The node id of a packed key (``None`` when unexplored)."""
        if self._node_of_key_cache is None:
            self._node_of_key_cache = {
                k: i for i, k in enumerate(self.keys())
            }
        return self._node_of_key_cache.get(key)

    def configuration(self, node: int) -> Configuration:
        """Decode one node back into a configuration."""
        return self.packer.configurations_of(self.index_matrix[node : node + 1])[0]

    def successors_of(self, node: int):
        """The successor node ids of ``node`` (CSR slice)."""
        return self.succ[self.indptr[node] : self.indptr[node + 1]]

    def to_explored_system(self) -> ExploredSystem:
        """The equivalent dict-based :class:`ExploredSystem`.

        Materializes Python keys and dicts for every node — meant for
        small systems (tests, lasso extraction), not the 10⁷-state runs.
        """
        keys = self.keys()
        indptr = self.indptr
        succ_list = self.succ.tolist()
        successors: Dict[int, Tuple[int, ...]] = {}
        safe_flags = self.safe.tolist()
        safe: Dict[int, bool] = {}
        for node, key in enumerate(keys):
            start, stop = int(indptr[node]), int(indptr[node + 1])
            successors[key] = tuple(keys[s] for s in succ_list[start:stop])
            safe[key] = bool(safe_flags[node])
        terminal_keys = frozenset(
            keys[node] for node in _nonzero_list(self.terminal)
        )
        initial_keys = [keys[node] for node in self.initial_nodes.tolist()]
        return ExploredSystem(
            space=self.space,
            daemon_class=self.daemon_class,
            keys=list(keys),
            successors=successors,
            safe=safe,
            initial_keys=initial_keys,
            terminal_keys=terminal_keys,
            exhaustive=self.exhaustive,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ArrayExploredSystem({self.daemon_class!r}, "
            f"states={self.state_count}, transitions={self.transition_count}, "
            f"exhaustive={self.exhaustive})"
        )


def _nonzero_list(mask) -> List[int]:
    import numpy as np

    return np.nonzero(mask)[0].tolist()


class BatchedTransitionSystem:
    """Vectorized daemon-class expansion (see the module docstring).

    Drop-in analogue of :class:`~repro.verify.TransitionSystem`: same
    constructor semantics plus a ``batch_blocks`` knob for the number of
    configurations stacked per kernel call.
    """

    __slots__ = (
        "_protocol",
        "_specification",
        "_space",
        "_daemon_class",
        "_max_states",
        "_max_selections",
        "_blocks",
        "_packer",
        "_codec",
        "_base_index",
        "_tier_blocks",
        "_tiers",
        "_repr_order",
        "_order",
        "_safe_hook_broken",
    )

    def __init__(
        self,
        protocol: Protocol,
        specification: Specification,
        daemon_class: str = "synchronous",
        space: Optional[StateSpace] = None,
        max_states: int = DEFAULT_MAX_STATES,
        max_selections: int = DEFAULT_MAX_SELECTIONS,
        batch_blocks: int = DEFAULT_BATCH_BLOCKS,
    ) -> None:
        if daemon_class not in DAEMON_CLASSES:
            raise VerificationError(
                f"unknown daemon class {daemon_class!r}; known: {', '.join(DAEMON_CLASSES)}"
            )
        if array_engine(protocol) is None:
            raise VerificationError(
                f"protocol {protocol.name!r} declares no array codec/kernel "
                "or breaks the kernel semantics contract; use the dict engine"
            )
        codec = protocol.array_codec()
        import numpy as np

        self._protocol = protocol
        self._specification = specification
        self._space = space if space is not None else StateSpace(protocol)
        self._daemon_class = daemon_class
        self._max_states = max_states
        self._max_selections = max_selections
        self._blocks = max(1, int(batch_blocks))
        self._packer = ArrayPacker(self._space, codec)
        self._codec = codec
        # Kernel rows follow the space's packing order (sorted_vertices),
        # so state columns and kernel rows line up one-to-one.
        self._base_index = GraphIndex(protocol.graph, self._space.vertices)
        # Tiered batch capacities: small frontiers (region closures are
        # often a few hundred states) run against a small tiled index
        # instead of padding to the full capacity every round.  Tiers are
        # built (and their kernel instances prepared) lazily on first use.
        self._tier_blocks = tuple(
            sorted({min(64, self._blocks), min(512, self._blocks), self._blocks})
        )
        self._tiers: Dict[int, Tuple[TiledGraphIndex, ArrayKernel]] = {}
        # Row positions in the dict path's repr-sorted enabled order.
        self._repr_order = np.asarray(
            sorted(range(self._base_index.n), key=lambda i: repr(self._space.vertices[i])),
            dtype=np.int64,
        )
        self._order = self._space.vertices
        self._safe_hook_broken = False

    @property
    def space(self) -> StateSpace:
        """The packed configuration space."""
        return self._space

    @property
    def daemon_class(self) -> str:
        """The daemon class being expanded."""
        return self._daemon_class

    # ------------------------------------------------------------------ #
    # Entry points (same contract as TransitionSystem)
    # ------------------------------------------------------------------ #
    def explore(self, initial: Iterable[Configuration]) -> ArrayExploredSystem:
        """The reachable closure of ``initial`` under the daemon class."""
        initial_keys = self._space.encode_many(list(initial))
        if not initial_keys:
            raise VerificationError("the initial region is empty")
        seed_keys = list(dict.fromkeys(initial_keys))
        seed_idx = self._packer.indices_of_keys(seed_keys)
        return self._expand(seed_idx, exhaustive=False)

    def explore_full(self) -> ArrayExploredSystem:
        """The full product space (guarded by the exploration cap)."""
        if self._space.size > self._max_states:
            raise VerificationError(
                f"full state space has {self._space.size} configurations, above "
                f"the exploration cap of {self._max_states}"
            )
        return self._expand(None, exhaustive=True)

    # ------------------------------------------------------------------ #
    # Expansion
    # ------------------------------------------------------------------ #
    def _expand(self, seed_idx, exhaustive: bool) -> ArrayExploredSystem:
        import numpy as np

        state = _ExpansionState(self, exhaustive)
        if exhaustive:
            size = self._space.size
            if state.dense:
                initial_nodes = np.arange(size, dtype=np.int64)
            else:
                # Multi-column exhaustive mode: stream every key through
                # the registry first; the closure then discovers nothing new.
                for start in range(0, size, self._blocks):
                    stop = min(start + self._blocks, size)
                    idx = self._dense_indices(start, stop)
                    state.nodes_of(self._packer.key_columns(idx), idx.__getitem__)
                initial_nodes = np.arange(state.node_count, dtype=np.int64)
        else:
            seed_nodes = state.nodes_of(
                self._packer.key_columns(seed_idx), seed_idx.__getitem__
            )
            initial_nodes = np.asarray(
                list(dict.fromkeys(seed_nodes.tolist())), dtype=np.int64
            )
        # BFS: expand nodes strictly in discovery order, one batch of at
        # most ``batch_blocks`` per kernel round.
        while state.expanded < state.node_count or (
            state.dense and state.expanded < self._space.size
        ):
            total = self._space.size if state.dense else state.node_count
            stop = min(state.expanded + self._blocks, total)
            if state.dense:
                frontier_idx = self._dense_indices(state.expanded, stop)
            else:
                frontier_idx = state.rows_slice(state.expanded, stop)
            frontier_ids = np.arange(state.expanded, stop, dtype=state.node_dtype)
            self._expand_batch(state, frontier_idx, frontier_ids)
            state.expanded = stop
        return state.finish(initial_nodes)

    def _dense_indices(self, start: int, stop: int):
        import numpy as np

        keys = np.arange(start, stop, dtype=np.int64)
        out = np.empty((stop - start, self._base_index.n), dtype=self._packer.digit_dtype)
        remainder = keys
        for i, radix in enumerate(self._packer._radices):
            remainder, out[:, i] = np.divmod(remainder, radix)
        return out

    # -- one frontier batch ------------------------------------------- #
    def _expand_batch(self, state: "_ExpansionState", frontier_idx, frontier_ids) -> None:
        import numpy as np

        packer = self._packer
        n = self._base_index.n
        F = frontier_idx.shape[0]
        rows3d = packer.rows_of(frontier_idx)
        # One guard evaluation and one firing per frontier batch, both on
        # the parents themselves: every enabled (parent, vertex) pair fires
        # against the parent's pre-state, which is all any selection reads
        # (the kernel contract's atomic snapshot).
        states, index, kernel = self._pad_states(rows3d.reshape(F * n, packer._width))
        rule_flat = kernel.enabled_rules(states, index)[: F * n]
        # Enabled pairs sorted (parent, repr-rank of the row): the order of
        # daemon_class_selections' repr-sorted enabled set.
        pair_parent, rank = np.nonzero(rule_flat.reshape(F, n)[:, self._repr_order] >= 0)
        pair_row = self._repr_order[rank]
        pairs = pair_parent * n + pair_row
        counts = np.bincount(pair_parent, minlength=F)
        terminal = counts == 0
        safe = self._safe_of(frontier_idx, rows3d)
        succ_parent = succ_nodes = np.empty(0, dtype=state.node_dtype)
        if pairs.size:
            # Selection s fires pairs fired[sel_start[s]:sel_start[s + 1]].
            sel_parent, fired, sel_start = self._selections(pair_parent, counts)
            sel_stop = np.append(sel_start[1:], fired.size)
            new_rows = kernel.fire(states, pairs, rule_flat[pairs], index)
            digits = packer.digits_of(new_rows, pair_row)

            def rows_at(selections):
                # Parent rows with the selections' fired digits scattered in.
                spans = _concat_ranges_np(sel_start[selections], sel_stop[selections])
                owner = np.repeat(
                    np.arange(selections.size), sel_stop[selections] - sel_start[selections]
                )
                rows = frontier_idx[sel_parent[selections]]
                rows[owner, pair_row[fired[spans]]] = digits[fired[spans]]
                return rows

            # Key delta: a selection's key columns are its parent's plus
            # Σ (new − old digit) · local multiplier, added into each fired
            # row's column group.  ``digits`` is int64, so the difference
            # with the narrow parent digits cannot wrap.
            delta = (digits - frontier_idx.ravel()[pairs]) * packer._local_mult[pair_row]
            group = packer._group_of[pair_row[fired]]
            cols = packer.key_columns(frontier_idx)[sel_parent]
            for c in range(cols.shape[1]):
                cols[:, c] += np.add.reduceat(
                    np.where(group == c, delta[fired], 0), sel_start
                )
            # Per-parent first-occurrence dedup, preserving the deterministic
            # selection order (the dict path's dict.fromkeys over encode_many);
            # the same sort lists the round's distinct keys for the registry.
            keep, distinct, first, inverse = _sort_keys(cols, sel_parent)
            succ_parent = sel_parent[keep]
            if state.dense:
                succ_nodes = cols[keep, 0]
            else:
                succ_nodes = state.register(distinct, first, rows_at)[inverse[keep]]

        # Interleave with terminal self-loops, in frontier order.
        out_counts = np.where(terminal, 1, np.bincount(succ_parent, minlength=F))
        owners = np.concatenate([succ_parent, np.flatnonzero(terminal)])
        succ_out = np.concatenate([succ_nodes, frontier_ids[terminal]])
        succ_out = succ_out[np.argsort(owners, kind="stable")]
        state.commit(out_counts, succ_out, safe, terminal)

    # -- kernel plumbing ----------------------------------------------- #
    def _tier(self, blocks_needed: int):
        """The smallest prepared ``(tiled_index, kernel)`` tier holding at
        least ``blocks_needed`` stacked configurations."""
        for tier in self._tier_blocks:
            if tier >= blocks_needed:
                break
        cached = self._tiers.get(tier)
        if cached is None:
            index = TiledGraphIndex(self._base_index, tier)
            kernel = self._protocol.array_kernel()
            kernel.prepare(index)
            cached = self._tiers[tier] = (index, kernel)
        return tier, cached[0], cached[1]

    def _pad_states(self, states):
        """Pad a ``(b·n, width)`` state array to the capacity of the
        smallest fitting tier by tiling the first block (any valid rows
        do — padding blocks are evaluated but never selected or read)."""
        import numpy as np

        n = self._base_index.n
        blocks = states.shape[0] // n
        tier, index, kernel = self._tier(blocks)
        if blocks != tier:
            pad = np.tile(states[:n], (tier - blocks, 1))
            states = np.concatenate([states, pad])
        return states, index, kernel

    # -- per-daemon-class selections ------------------------------------ #
    def _selections(self, pair_parent, counts):
        """The daemon class's selections over the enabled pairs (sorted by
        parent, then repr-rank), in the dict path's order: ``(parent of
        each selection, fired pair ids, start of each selection's run in
        the fired ids)``."""
        import numpy as np

        every_pair = np.arange(pair_parent.size)
        if self._daemon_class == "synchronous":
            parents = np.flatnonzero(counts)
            return parents, every_pair, (np.cumsum(counts) - counts)[parents]
        if self._daemon_class == "central":
            return pair_parent, every_pair, every_pair
        sel_parent: List[int] = []
        fired: List[int] = []
        sel_start: List[int] = []
        offset = 0
        for parent, count in enumerate(counts.tolist()):
            admitted = (1 << count) - 1
            if admitted > self._max_selections:
                raise VerificationError(
                    f"distributed daemon class admits {admitted} selections "
                    f"for an enabled set of {count} vertices, above the "
                    f"cap of {self._max_selections}; raise max_selections or "
                    "verify a smaller instance"
                )
            for size in range(1, count + 1):
                for combination in itertools.combinations(
                    range(offset, offset + count), size
                ):
                    sel_start.append(len(fired))
                    fired.extend(combination)
                    sel_parent.append(parent)
            offset += count
        return (
            np.asarray(sel_parent, dtype=np.int64),
            np.asarray(fired, dtype=np.int64),
            np.asarray(sel_start, dtype=np.int64),
        )

    # -- safety --------------------------------------------------------- #
    def _safe_of(self, frontier_idx, rows3d):
        import numpy as np

        if not self._safe_hook_broken:
            flags = self._specification.safe_rows(
                rows3d, self._order, self._protocol
            )
            if flags is not None:
                return np.asarray(flags, dtype=bool)
            self._safe_hook_broken = True
        configurations = self._packer.configurations_of(frontier_idx)
        return np.fromiter(
            (
                bool(self._specification.is_safe(c, self._protocol))
                for c in configurations
            ),
            dtype=bool,
            count=len(configurations),
        )


class _ExpansionState:
    """Mutable exploration state: node registry, per-round output chunks."""

    __slots__ = (
        "_system",
        "exhaustive",
        "dense",
        "node_dtype",
        "node_count",
        "expanded",
        "_registry",
        "_count_chunks",
        "_succ_chunks",
        "_safe_chunks",
        "_terminal_chunks",
    )

    def __init__(self, system: BatchedTransitionSystem, exhaustive: bool) -> None:
        import numpy as np

        packer = system._packer
        self._system = system
        self.exhaustive = exhaustive
        # Dense mode: exhaustive and keys fit int64 — node id IS the key,
        # no registry at all.
        self.dense = exhaustive and packer.packable
        self.node_count = system.space.size if self.dense else 0
        bound = self.node_count if self.dense else system._max_states
        self.node_dtype = np.int32 if bound < (1 << 31) else np.int64
        self.expanded = 0
        self._registry = None if self.dense else _NodeRegistry(packer, self.node_dtype)
        self._count_chunks: List = []
        self._succ_chunks: List = []
        self._safe_chunks: List = []
        self._terminal_chunks: List = []

    # -- node registry -------------------------------------------------- #
    def nodes_of(self, cols, rows_at):
        """Node ids of ``(m, C)`` (canonical) key columns, assigning fresh
        ids to unseen keys in first-occurrence order; ``rows_at(positions)``
        supplies the index rows of the positions that discover a node."""
        _, distinct, first, inverse = _sort_keys(cols)
        return self.register(distinct, first, rows_at)[inverse]

    def register(self, distinct, first, rows_at):
        """Node ids of ``(u, C)`` distinct key columns whose first
        occurrences in the round sit at positions ``first``: unseen keys
        get fresh ids in order of ``first``, with the index rows
        ``rows_at(positions)`` supplies."""
        import numpy as np

        ids, ends = self._registry.find(distinct)
        fresh = np.flatnonzero(ids < 0)
        if fresh.size:
            if self.node_count + fresh.size > self._system._max_states:
                raise VerificationError(
                    f"reachable region exceeds the exploration cap of "
                    f"{self._system._max_states} configurations"
                )
            fresh = fresh[np.argsort(first[fresh])]
            ids[fresh] = self._registry.add(
                distinct[fresh], rows_at(first[fresh]), ends[fresh]
            )
            self.node_count += int(fresh.size)
        return ids

    def rows_slice(self, start: int, stop: int):
        """Index-matrix rows of nodes ``start..stop`` (discovery order)."""
        return self._registry.rows(start, stop)

    # -- per-round output ----------------------------------------------- #
    def commit(self, out_counts, succ_out, safe, terminal) -> None:
        import numpy as np

        self._count_chunks.append(out_counts.astype(np.int32))
        self._succ_chunks.append(succ_out.astype(self.node_dtype, copy=False))
        self._safe_chunks.append(safe)
        self._terminal_chunks.append(terminal)

    def finish(self, initial_nodes) -> ArrayExploredSystem:
        import numpy as np

        system = self._system
        counts = (
            np.concatenate(self._count_chunks)
            if self._count_chunks
            else np.empty(0, dtype=np.int32)
        )
        indptr = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        succ = (
            np.concatenate(self._succ_chunks)
            if self._succ_chunks
            else np.empty(0, dtype=self.node_dtype)
        )
        safe = (
            np.concatenate(self._safe_chunks)
            if self._safe_chunks
            else np.empty(0, dtype=bool)
        )
        terminal = (
            np.concatenate(self._terminal_chunks)
            if self._terminal_chunks
            else np.empty(0, dtype=bool)
        )
        if self.dense:
            index_matrix = np.concatenate(
                [
                    system._dense_indices(start, min(start + (1 << 16), self.node_count))
                    for start in range(0, self.node_count, 1 << 16)
                ]
            ) if self.node_count else np.empty(
                (0, system._base_index.n), dtype=system._packer.digit_dtype
            )
        else:
            index_matrix = self.rows_slice(0, self.node_count)
        return ArrayExploredSystem(
            space=system.space,
            daemon_class=system.daemon_class,
            exhaustive=self.exhaustive,
            packer=system._packer,
            index_matrix=index_matrix,
            indptr=indptr,
            succ=succ,
            safe=safe,
            terminal=terminal,
            initial_nodes=initial_nodes,
        )


#: Slots of a fresh node registry's hash table (a power of two, at least
#: 2; the table doubles whenever it would pass half full).
_REGISTRY_SLOTS = 1 << 12

#: Consecutive hash-table slots one vectorized probe pass reads per key.
_PROBE_WINDOW = 8

#: Fibonacci-hashing multiplier (2⁶⁴ over the golden ratio, odd).
_GOLDEN = 0x9E3779B97F4A7C15


class _NodeRegistry:
    """The explored states, in node-id order: their index rows in one
    growing ``(N, n)`` array of :attr:`ArrayPacker.digit_dtype`, and an
    open-addressing hash table (linear probing, at most half full) of node
    ids keyed on each row's key columns.

    A probe compares key columns recomputed from the stored row, so no key
    array is kept beside the rows.  Lookups and insertions are vectorized
    over a round's distinct keys: each pass reads a window of
    ``_PROBE_WINDOW`` slots for every unresolved key, and an insertion
    starts from the empty slot its key's lookup ended on.
    """

    __slots__ = ("_packer", "_rows", "count", "_table", "_shift")

    def __init__(self, packer: ArrayPacker, node_dtype) -> None:
        import numpy as np

        self._packer = packer
        self._rows = np.empty((0, packer._n), dtype=packer.digit_dtype)
        self.count = 0
        self._table = np.full(_REGISTRY_SLOTS, -1, dtype=node_dtype)
        self._shift = 64 - (_REGISTRY_SLOTS.bit_length() - 1)

    def rows(self, start: int, stop: int):
        """Index rows of nodes ``start..stop``."""
        return self._rows[start:stop]

    def find(self, keys):
        """``(ids, ends)`` of ``(u, C)`` key-column rows: each key's node id
        (``-1`` if absent) and the slot its lookup ended on (for an absent
        key, the empty slot :meth:`add` first tries)."""
        import numpy as np

        ids = np.full(keys.shape[0], -1, dtype=self._table.dtype)
        ends = np.empty(keys.shape[0], dtype=np.int64)
        active = np.arange(keys.shape[0])
        slot = self._slots_of(keys)
        while active.size:
            # A lookup ends at its key's node or at an empty slot,
            # whichever comes first in the window.
            window = self._window(slot).ravel()
            node = self._table[window]
            occupied = np.flatnonzero(node >= 0)
            stored = self._packer.key_columns(np.take(self._rows, node[occupied], axis=0))
            owner = np.take(active, occupied // _PROBE_WINDOW)
            same = (stored == np.take(keys, owner, axis=0)).all(axis=1)
            stop = node < 0
            stop[occupied[same]] = True
            at = stop.reshape(-1, _PROBE_WINDOW).argmax(axis=1)
            at += np.arange(0, node.size, _PROBE_WINDOW)
            ids[active] = node[at]
            ends[active] = window[at]
            probing = ~stop[at]
            active = active[probing]
            slot = slot[probing] + _PROBE_WINDOW
        return ids, ends

    def add(self, keys, rows, ends):
        """Register ``(m, C)`` distinct unseen keys with their index rows
        and the ``ends`` :meth:`find` gave them; returns their node ids,
        consecutive in the given order."""
        import numpy as np

        start, m = self.count, keys.shape[0]
        need = start + m
        if need > self._rows.shape[0]:
            # Amortized doubling: a round appends a few thousand rows to a
            # registry of potentially millions.
            capacity = max(4096, self._rows.shape[0])
            while capacity < need:
                capacity *= 2
            grown = np.empty((capacity, self._rows.shape[1]), dtype=self._rows.dtype)
            grown[:start] = self._rows[:start]
            self._rows = grown
        self._rows[start:need] = rows
        self.count = need
        ids = np.arange(start, need, dtype=self._table.dtype)
        if 2 * need > self._table.size:
            self._rehash()
        else:
            self._insert(ids, ends)
        return ids

    def _rehash(self) -> None:
        import numpy as np

        slots = self._table.size
        while 2 * self.count > slots:
            slots *= 2
        self._table = np.full(slots, -1, dtype=self._table.dtype)
        self._shift = 64 - (slots.bit_length() - 1)
        for start in range(0, self.count, 1 << 16):
            stop = min(start + (1 << 16), self.count)
            self._insert(
                np.arange(start, stop, dtype=self._table.dtype),
                self._slots_of(self._packer.key_columns(self._rows[start:stop])),
            )

    def _insert(self, ids, slot) -> None:
        # Every id claims the first free slot in its window from ``slot``
        # on; ids that collide on one free slot leave one winner, and the
        # others look again from that slot.
        import numpy as np

        while ids.size:
            window = self._window(slot)
            free = self._table[window] < 0
            has_free = free.any(axis=1)
            target = window[np.arange(ids.size), free.argmax(axis=1)]
            self._table[target[has_free]] = ids[has_free]
            waiting = self._table[target] != ids
            ids = ids[waiting]
            slot = np.where(has_free, target, slot + _PROBE_WINDOW)[waiting]

    def _window(self, slot):
        """The ``(m, W)`` slots probed next from each of ``slot``."""
        import numpy as np

        return (slot[:, None] + np.arange(_PROBE_WINDOW)) & (self._table.size - 1)

    def _slots_of(self, keys):
        """Home slots of ``(m, C)`` key columns: the top bits of a
        multiplicative hash mixing every column."""
        import numpy as np

        h = np.zeros(keys.shape[0], dtype=np.uint64)
        for c in range(keys.shape[1]):
            h ^= keys[:, c].astype(np.uint64)
            h *= np.uint64(_GOLDEN)
        return (h >> np.uint64(self._shift)).astype(np.int64)


def _sort_keys(cols, parents=None):
    """One stable ``lexsort`` of a round's ``(m, C)`` key columns.

    Returns ``(keep, distinct, first, inverse)``: ``distinct`` holds the
    distinct key rows in key order, ``first`` the position of each one's
    first occurrence, and ``inverse`` every position's rank among them.
    With nondecreasing ``parents``, ``keep`` holds the ascending positions
    of each parent's first occurrence of every distinct key (else
    ``None``): the stable sort keeps equal keys in position order, hence
    in parent order, so equal (parent, key) pairs end up adjacent with the
    first occurrence leading its run.
    """
    import numpy as np

    order = np.lexsort(cols.T)
    ordered = cols[order]
    new_key = np.ones(order.size, dtype=bool)
    new_key[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(order.size, dtype=np.int64)
    inverse[order] = np.cumsum(new_key) - 1
    keep = None
    if parents is not None:
        owner = parents[order]
        starts = new_key.copy()
        starts[1:] |= owner[1:] != owner[:-1]
        keep = np.sort(order[starts])
    return keep, ordered[new_key], order[new_key], inverse


# ---------------------------------------------------------------------- #
# The array game solver
# ---------------------------------------------------------------------- #
class ArrayGameSolution:
    """The solved stabilization game over an :class:`ArrayExploredSystem`.

    ``values[node]`` is the exact worst-case stabilization time of the
    node's configuration (``-1`` = diverging); ``legitimate`` is the
    certified attractor as a boolean mask.
    """

    __slots__ = ("system", "values", "legitimate", "diverging")

    def __init__(self, system: ArrayExploredSystem, values, legitimate, diverging) -> None:
        self.system = system
        self.values = values
        self.legitimate = legitimate
        self.diverging = diverging

    @property
    def legitimate_count(self) -> int:
        """Number of certified legitimate nodes."""
        return int(self.legitimate.sum())

    @property
    def diverging_count(self) -> int:
        """Number of diverging nodes."""
        return int(self.diverging.sum())

    def worst_value_over(self, nodes) -> Optional[int]:
        """Max value over node ids — ``None`` if any of them diverges."""
        import numpy as np

        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size == 0:
            return 0
        values = self.values[nodes]
        if (values < 0).any():
            return None
        return int(values.max())

    @property
    def exact_worst_case(self) -> Optional[int]:
        """Worst value over the system's initial region."""
        return self.worst_value_over(self.system.initial_nodes)

    def to_game_solution(self):
        """The dict-based :class:`~repro.verify.GameSolution` equivalent
        (small systems: materializes Python keys and dicts)."""
        from .solver import GameSolution

        system = self.system.to_explored_system()
        keys = self.system.keys()
        values_list = self.values.tolist()
        values = {
            keys[node]: value
            for node, value in enumerate(values_list)
            if value >= 0
        }
        legitimate = frozenset(
            keys[node] for node in _nonzero_list(self.legitimate)
        )
        diverging = frozenset(
            keys[node] for node in _nonzero_list(self.diverging)
        )
        return GameSolution(
            system=system,
            legitimate=legitimate,
            values=values,
            diverging=diverging,
        )

    def lasso(self):
        """A concrete divergence witness (``None`` when none exists).

        Builds the dict-based solver's lasso on the *diverging subsystem
        only* — stem/cycle extraction touches just the diverging region, so
        a huge stabilizing system with a small diverging core stays cheap.
        """
        from .solver import GameSolution

        import numpy as np

        if not self.diverging.any():
            return None
        asys = self.system
        keys = asys.keys()
        diverging_nodes = np.nonzero(self.diverging)[0]
        successors: Dict[int, Tuple[int, ...]] = {}
        safe: Dict[int, bool] = {}
        safe_list = asys.safe.tolist()
        for node in diverging_nodes.tolist():
            start, stop = int(asys.indptr[node]), int(asys.indptr[node + 1])
            successors[keys[node]] = tuple(
                keys[int(s)] for s in asys.succ[start:stop]
            )
            safe[keys[node]] = bool(safe_list[node])
        diverging_keys = [keys[node] for node in diverging_nodes.tolist()]
        initial_keys = [
            keys[int(node)]
            for node in asys.initial_nodes.tolist()
            if self.diverging[int(node)]
        ]
        subsystem = ExploredSystem(
            space=asys.space,
            daemon_class=asys.daemon_class,
            keys=diverging_keys,
            successors=successors,
            safe=safe,
            initial_keys=initial_keys,
            terminal_keys=frozenset(),
            exhaustive=False,
        )
        return GameSolution(
            system=subsystem,
            legitimate=frozenset(),
            values={},
            diverging=frozenset(diverging_keys),
        ).lasso()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ArrayGameSolution(states={self.system.state_count}, "
            f"legitimate={self.legitimate_count}, diverging={self.diverging_count})"
        )


def solve_arrays(system: ArrayExploredSystem) -> ArrayGameSolution:
    """Solve the stabilization game over CSR arrays (see module docstring).

    Same three phases as :func:`repro.verify.solve` — greatest-fixpoint
    attractor, backward value iteration, divergence — each as frontier
    sweeps over boolean masks and ``reduceat`` segments.
    """
    import numpy as np

    N = system.state_count
    indptr = system.indptr
    succ = system.succ
    # Per-node edge counts as int32: a node's out- or in-degree is far
    # below 2³¹, and these N-sized arrays stay alive through the solve.
    counts = (indptr[1:] - indptr[:-1]).astype(np.int32)

    # Reverse CSR: predecessors of every node, as int32 ids when they fit.
    node_dtype = np.int32 if N < (1 << 31) else np.int64
    order = np.argsort(succ, kind="stable")
    pred_src = np.repeat(np.arange(N, dtype=node_dtype), counts)[order]
    del order
    pred_counts = np.bincount(succ, minlength=N).astype(np.int32)
    pred_indptr = np.zeros(N + 1, dtype=np.int64)
    np.cumsum(pred_counts, out=pred_indptr[1:])

    def predecessors_of(nodes):
        return _segments_of(pred_src, pred_indptr, pred_counts, nodes)

    # 1. Greatest fixpoint: peel unsafe-reachable states off the safe set.
    legitimate = system.safe.copy()
    frontier = np.nonzero(~system.safe)[0]
    while frontier.size:
        preds = predecessors_of(frontier)
        candidates = preds[legitimate[preds]]
        if not candidates.size:
            break
        candidates = np.unique(candidates)
        legitimate[candidates] = False
        frontier = candidates

    # 2. Backward value iteration (adversary maximizes time to L).
    values = np.full(N, -1, dtype=np.int64)
    values[legitimate] = 0
    finalized = legitimate.copy()
    pending = counts.copy()
    frontier = np.nonzero(legitimate)[0]
    while frontier.size:
        preds = predecessors_of(frontier)
        # A typed scalar keeps ``subtract.at`` on its int32 fast path.
        np.subtract.at(pending, preds, np.int32(1))
        candidates = preds[(pending[preds] == 0) & ~finalized[preds]]
        if not candidates.size:
            break
        candidates = np.unique(candidates)
        # Every successor of a candidate is finalized; V = 1 + max.
        segment_values = values[_segments_of(succ, indptr, counts, candidates)]
        boundaries = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts[candidates])]
        )[:-1]
        values[candidates] = 1 + np.maximum.reduceat(segment_values, boundaries)
        finalized[candidates] = True
        frontier = candidates

    # 3. Whatever was never finalized diverges.
    return ArrayGameSolution(
        system=system,
        values=values,
        legitimate=legitimate,
        diverging=~finalized,
    )


class _ArrayValues:
    """Dict-like view of an :class:`ArrayGameSolution`'s value vector,
    keyed by Python-int packed keys (what :class:`VerificationResult`
    stores as ``values``).  Diverging nodes have no entry."""

    __slots__ = ("_solution",)

    def __init__(self, solution: ArrayGameSolution) -> None:
        self._solution = solution

    def get(self, key: int, default=None):
        node = self._solution.system.node_of_key(key)
        if node is None:
            return default
        value = int(self._solution.values[node])
        return default if value < 0 else value

    def __getitem__(self, key: int) -> int:
        value = self.get(key)
        if value is None:
            raise KeyError(key)
        return value

    def __contains__(self, key) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return self._solution.system.state_count - self._solution.diverging_count

    def __iter__(self):
        keys = self._solution.system.keys()
        values = self._solution.values
        return (key for node, key in enumerate(keys) if values[node] >= 0)

    def items(self):
        """``(key, value)`` pairs of every non-diverging node."""
        keys = self._solution.system.keys()
        values = self._solution.values.tolist()
        return (
            (key, value)
            for key, value in zip(keys, values)
            if value >= 0
        )


class _ArrayKeySet:
    """Set-like view of an :class:`ArrayGameSolution`'s legitimate mask,
    keyed by Python-int packed keys."""

    __slots__ = ("_solution",)

    def __init__(self, solution: ArrayGameSolution) -> None:
        self._solution = solution

    def __contains__(self, key) -> bool:
        node = self._solution.system.node_of_key(key)
        return node is not None and bool(self._solution.legitimate[node])

    def __len__(self) -> int:
        return self._solution.legitimate_count

    def __iter__(self):
        keys = self._solution.system.keys()
        legitimate = self._solution.legitimate
        return (key for node, key in enumerate(keys) if legitimate[node])


def _segments_of(targets, indptr, counts, nodes):
    """``targets[indptr[v]:indptr[v + 1]]`` concatenated over ascending
    ``nodes``.  A large gather selects through a byte mask over every
    edge instead of building eight-byte range indices, which would cost
    more memory once the gathered edges pass an eighth of the total."""
    import numpy as np

    if 8 * int(counts[nodes].sum()) < targets.size:
        return targets[_concat_ranges_np(indptr[nodes], indptr[nodes + 1])]
    mask = np.zeros(counts.size, dtype=bool)
    mask[nodes] = True
    return targets[np.repeat(mask, counts)]


def _concat_ranges_np(starts, stops):
    """``concatenate([arange(a, b) for a, b in zip(starts, stops)])`` in
    one output-sized array: unit steps, with a jump at each range start,
    summed in place."""
    import numpy as np

    nonempty = stops > starts
    starts, stops = starts[nonempty], stops[nonempty]
    if not starts.size:
        return np.empty(0, dtype=np.int64)
    lengths = stops - starts
    out = np.ones(int(lengths.sum()), dtype=np.int64)
    out[0] = starts[0]
    out[np.cumsum(lengths[:-1])] = starts[1:] - stops[:-1] + 1
    return np.cumsum(out, out=out)

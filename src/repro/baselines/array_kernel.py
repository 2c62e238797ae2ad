"""Vectorized array-state kernels for the baseline protocols.

Two accidentally-speculative protocols from Section 3 of the paper get
array capabilities here, so the vector engine *and* the batched exact
checker (:mod:`repro.verify.batched`) cover every protocol family the
campaign registry ships:

* **BFS min+1 tree** — plain int levels (width-1 codec); the two guards
  reduce to one ``min`` over the CSR adjacency.
* **Maximal matching** — the ``(pointer, married)`` pair becomes a width-2
  integer row: the pointer column holds the *identity rank* of the target
  (the position of the vertex in ``graph.sorted_vertices()``, ``-1`` for
  ``None``), the married column a 0/1 bit.  Encoding pointers by identity
  rank (not by row position) keeps the codec independent of any engine's
  row order, and makes the Marriage/Seduction tie-breaks — smallest
  suitor, largest candidate by identity — plain ``min``/``max`` edge
  reductions.

Both kernels are tiling-aware (per-vertex arrays built from
``index.vertices`` are replicated per block), so the batched checker can
stack thousands of configurations block-diagonally.  Guard-by-guard
equivalence with the Python rules is pinned by
``tests/test_vector_kernel.py``; trace equivalence by the engine
equivalence suite.

This module imports NumPy at load time and is therefore only imported
from the protocols' ``array_kernel()``/``array_codec()`` hooks, so that
``import repro`` does not import NumPy.
"""

from __future__ import annotations

import numpy as np

from ..core.vector import ArrayCodec, ArrayKernel, GraphIndex, tile_block_values
from .matching import MatchingState

__all__ = ["BfsTreeArrayKernel", "MatchingCodec", "MatchingArrayKernel"]

#: Sentinel above every identity rank, used to mask edge minima.
_NO_SUITOR = np.int64(1) << 40


class BfsTreeArrayKernel(ArrayKernel):
    """Array-state transition relation of the min+1 BFS tree."""

    def __init__(self, protocol) -> None:
        self.rule_names = (protocol.RULE_ROOT, protocol.RULE_MIN_PLUS_ONE)
        self._root = protocol.root
        self._max_level = protocol.max_level
        self._is_root = None

    def prepare(self, index: GraphIndex) -> None:
        base = np.zeros(len(index.vertices), dtype=bool)
        base[index.position[self._root]] = True
        self._is_root = tile_block_values(base, index)

    def _targets(self, s, index: GraphIndex):
        """``min(min_neighbor + 1, max_level)`` per row (M1's target)."""
        minimum = index.min_over_edges(s[index.indices], self._max_level)
        return np.minimum(minimum + 1, self._max_level)

    def enabled_rules(self, states, index: GraphIndex):
        s = states[:, 0]
        rule_ids = np.full(index.n, -1, dtype=np.int64)
        rule_ids[~self._is_root & (s != self._targets(s, index))] = 1
        rule_ids[self._is_root & (s != 0)] = 0
        return rule_ids

    def fire(self, states, selected, rule_ids, index: GraphIndex):
        s = states[:, 0]
        new = self._targets(s, index)[selected]
        new[rule_ids == 0] = 0
        return new.reshape(-1, 1)


class MatchingCodec(ArrayCodec):
    """Width-2 codec for :class:`~repro.baselines.MatchingState`.

    Column 0: identity rank of the pointer target, ``-1`` for ``None``;
    column 1: the married bit.
    """

    width = 2

    def __init__(self, protocol) -> None:
        self._vertices = tuple(protocol.graph.sorted_vertices())
        self._rank = {v: i for i, v in enumerate(self._vertices)}

    def encode(self, states, order):
        array = np.empty((len(order), 2), dtype=np.int64)
        for i, vertex in enumerate(order):
            state = states[vertex]
            if not isinstance(state, MatchingState):
                raise TypeError(
                    f"state {state!r} of {vertex!r} is not a MatchingState"
                )
            pointer = state.pointer
            array[i, 0] = -1 if pointer is None else self._rank[pointer]
            array[i, 1] = 1 if state.married else 0
        return array

    def decode(self, rows):
        vertices = self._vertices
        return [
            MatchingState(
                pointer=None if pointer < 0 else vertices[pointer],
                married=bool(married),
            )
            for pointer, married in rows.tolist()
        ]


class MatchingArrayKernel(ArrayKernel):
    """Array-state transition relation of the Manne et al. matching.

    With ``rank[r]`` the identity rank of row ``r``'s vertex, the per-edge
    primitives are ``points[e]`` (the owner's pointer column equals the
    neighbour's rank) and its mirror ``reverse[e]`` (the neighbour points
    at the owner); every guard is a boolean reduction of those two masks,
    and the Marriage/Seduction targets are masked min/max reductions of
    neighbour ranks.
    """

    def __init__(self, protocol) -> None:
        self.rule_names = (
            protocol.RULE_UPDATE,
            protocol.RULE_MARRIAGE,
            protocol.RULE_SEDUCTION,
            protocol.RULE_ABANDONMENT,
        )
        self._order = {
            v: i for i, v in enumerate(protocol.graph.sorted_vertices())
        }
        self._rank = None

    def prepare(self, index: GraphIndex) -> None:
        base = np.fromiter(
            (self._order[v] for v in index.vertices),
            dtype=np.int64,
            count=len(index.vertices),
        )
        self._rank = tile_block_values(base, index)

    def _edge_masks(self, states, index: GraphIndex):
        pointer = states[:, 0]
        src, dst = index.edge_src, index.indices
        points = pointer[src] == self._rank[dst]
        reverse = pointer[dst] == self._rank[src]
        return pointer, points, reverse

    def enabled_rules(self, states, index: GraphIndex):
        pointer, points, reverse = self._edge_masks(states, index)
        married_bit = states[:, 1] == 1
        src, dst = index.edge_src, index.indices

        is_married = index.any_over_edges(points & reverse)
        cache_ok = married_bit == is_married
        free = pointer == -1
        has_suitor = index.any_over_edges(reverse)
        candidate_edge = (
            (pointer[dst] == -1)
            & (states[dst, 1] == 0)
            & (self._rank[src] < self._rank[dst])
        )
        has_candidate = index.any_over_edges(candidate_edge)
        # Partner attributes, scattered through the (unique) points edge.
        partner_married = np.zeros(index.n, dtype=bool)
        partner_married[src[points]] = states[dst, 1][points] == 1

        update = ~cache_ok
        marriage = cache_ok & free & has_suitor
        seduction = cache_ok & free & ~has_suitor & has_candidate
        abandonment = (
            cache_ok
            & ~free
            & ~is_married
            & (partner_married | (pointer < self._rank))
        )

        rule_ids = np.full(index.n, -1, dtype=np.int64)
        rule_ids[abandonment] = 3
        rule_ids[seduction] = 2
        rule_ids[marriage] = 1
        rule_ids[update] = 0
        return rule_ids

    def fire(self, states, selected, rule_ids, index: GraphIndex):
        pointer, points, reverse = self._edge_masks(states, index)
        src, dst = index.edge_src, index.indices

        is_married = index.any_over_edges(points & reverse)
        suitor_rank = np.where(reverse, self._rank[dst], _NO_SUITOR)
        min_suitor = index.min_over_edges(suitor_rank, _NO_SUITOR)
        candidate_edge = (
            (pointer[dst] == -1)
            & (states[dst, 1] == 0)
            & (self._rank[src] < self._rank[dst])
        )
        candidate_rank = np.where(candidate_edge, self._rank[dst], -1)
        max_candidate = index.max_over_edges(candidate_rank, -1)

        new = states[selected].copy()
        update = rule_ids == 0
        new[update, 1] = is_married[selected][update].astype(np.int64)
        marriage = rule_ids == 1
        new[marriage, 0] = min_suitor[selected][marriage]
        seduction = rule_ids == 2
        new[seduction, 0] = max_candidate[selected][seduction]
        new[rule_ids == 3, 0] = -1
        return new

"""Vectorized array-state kernel for Dijkstra's K-state token ring.

The single rule ``T`` reads only the ring predecessor's counter, so the
whole transition relation vectorizes through one precomputed predecessor
position array: the bottom machine is enabled iff its counter equals its
predecessor's (and increments modulo K), every other machine iff it
differs (and copies).  Guard-by-guard equivalence with
:class:`~repro.mutex.DijkstraTokenRing` is pinned by
``tests/test_vector_kernel.py``; trace equivalence by the engine
equivalence suite.

The kernel is tiling-aware: prepared on a
:class:`~repro.core.vector.TiledGraphIndex` (the batched exact checker
stacks thousands of ring copies block-diagonally), the predecessor map is
replicated with per-block offsets and the scalar bottom row becomes a
boolean mask with one bottom machine per block.

This module imports NumPy at load time and is therefore only imported from
:meth:`DijkstraTokenRing.array_kernel`, so that ``import repro`` does not
import NumPy.
"""

from __future__ import annotations

import numpy as np

from ..core.vector import (
    ArrayKernel,
    GraphIndex,
    tile_block_positions,
    tile_block_values,
)

__all__ = ["DijkstraArrayKernel"]


class DijkstraArrayKernel(ArrayKernel):
    """Array-state transition relation of Dijkstra's token ring."""

    def __init__(self, protocol) -> None:
        self.rule_names = (protocol.RULE_MOVE,)
        self._K = protocol.K
        self._bottom = protocol.bottom
        self._predecessor_of = {
            v: protocol.predecessor(v) for v in protocol.graph.vertices
        }
        self._pred_pos = None
        self._is_bottom = None
        self._bottom_rows = None

    def prepare(self, index: GraphIndex) -> None:
        base_pred = np.fromiter(
            (index.position[self._predecessor_of[v]] for v in index.vertices),
            dtype=np.int64,
            count=len(index.vertices),
        )
        base_bottom = np.zeros(len(index.vertices), dtype=bool)
        base_bottom[index.position[self._bottom]] = True
        self._pred_pos = tile_block_positions(base_pred, index)
        self._is_bottom = tile_block_values(base_bottom, index)
        self._bottom_rows = np.flatnonzero(self._is_bottom)

    def enabled_rules(self, states, index: GraphIndex):
        s = states[:, 0]
        differs = s != s[self._pred_pos]
        enabled = np.where(self._is_bottom, ~differs, differs)
        return np.where(enabled, np.int64(0), np.int64(-1))

    def enabled_rules_for(self, states, rows, index: GraphIndex):
        """Subset guard evaluation for the vectorized sparse refresh —
        identical to ``enabled_rules(states, index)[rows]``, touching only
        the predecessors of ``rows``."""
        s = states[:, 0]
        differs = s[rows] != s[self._pred_pos[rows]]
        enabled = np.where(self._is_bottom[rows], ~differs, differs)
        return np.where(enabled, np.int64(0), np.int64(-1))

    def fire(self, states, selected, rule_ids, index: GraphIndex):
        s = states[:, 0]
        new = s[self._pred_pos[selected]]
        # Every machine copies its predecessor except the bottom one(s),
        # which increment their own counter: patch only those entries.
        if isinstance(selected, slice):  # every row
            bottom = rows = self._bottom_rows
        else:
            bottom = np.flatnonzero(self._is_bottom[selected])
            rows = selected[bottom]
        if bottom.size:
            new[bottom] = (s[rows] + 1) % self._K
        return new.reshape(-1, 1)

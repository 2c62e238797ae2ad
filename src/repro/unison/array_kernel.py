"""Vectorized array-state kernel for the asynchronous unison (and SSME).

Implements the three guards of Algorithm 1 (``NA``/``CA``/``RA``) and the
shared ``phi``/reset actions as whole-array computations over the CSR
adjacency of :class:`repro.core.vector.GraphIndex` — semantically identical
to the inlined-integer guards of
:class:`~repro.unison.AsynchronousUnison` (pinned guard-by-guard by
``tests/test_vector_kernel.py`` and trace-by-trace by the engine
equivalence suite).  SSME inherits the capability unchanged: its rules are
exactly the unison's, parameterized by its own clock.

This module imports NumPy at load time and is therefore only imported from
:meth:`AsynchronousUnison.array_kernel`, so that ``import repro`` does not
import NumPy.
"""

from __future__ import annotations

import numpy as np

from ..core.vector import ArrayKernel, GraphIndex

__all__ = ["UnisonArrayKernel"]


class UnisonArrayKernel(ArrayKernel):
    """Array-state transition relation of the Boulinier–Petit–Villain unison.

    States are plain clock values (codec width 1).  For values ``rv, ru``
    and ``d = rv - ru`` the vectorized guards mirror the protocol's
    integer-inlined predicates exactly:

    * ``NA``: ``rv ∈ [0, K)`` and every neighbour ``ru ∈ [0, K)`` with
      ``d ∈ {0, -1, K-1}``;
    * ``CA``: ``rv ∈ [-alpha, 0)`` and every neighbour ``ru <= 0`` with
      ``rv <= ru``;
    * ``RA``: ``rv ∉ [-alpha, 0]`` and (``rv ∉ [0, K)`` or some neighbour
      has ``ru ∉ [0, K)`` or ``d ∉ {0, ±1, ±(K-1)}``).
    """

    def __init__(self, protocol) -> None:
        self.rule_names = (
            protocol.RULE_NORMAL,
            protocol.RULE_CONVERGE,
            protocol.RULE_RESET,
        )
        self._K = protocol.K
        self._alpha = protocol.alpha

    def enabled_rules(self, states, index: GraphIndex):
        s = states[:, 0]
        K = self._K
        alpha = self._alpha
        src = index.edge_src
        rv = s[src]
        ru = s[index.indices]
        d = rv - ru

        in_range = (s >= 0) & (s < K)
        ru_in_range = in_range[index.indices]

        # NA: locally correct, locally minimal, on the cycle.
        na_edge_ok = ru_in_range & ((d == 0) | (d == -1) | (d == K - 1))
        na = in_range & index.all_over_edges(na_edge_ok)

        # Steady-state fast path: once the unison has stabilized (the bulk
        # of every long dense-regime run) every vertex takes NA forever, and
        # NA excludes CA/RA by construction — skip their edge scans.
        if na.all():
            return np.zeros(index.n, dtype=np.int64)

        # CA: strictly initial, neighbours initial and no smaller.
        ca_edge_ok = (ru <= 0) & (rv <= ru)
        ca = (s >= -alpha) & (s < 0) & index.all_over_edges(ca_edge_ok)

        # RA: not initial and locally incorrect.
        initial = (s >= -alpha) & (s <= 0)
        ra_edge_bad = ~ru_in_range | ~(
            (d == 0) | (d == 1) | (d == -1) | (d == K - 1) | (d == 1 - K)
        )
        ra = ~initial & (~in_range | index.any_over_edges(ra_edge_bad))

        # First-enabled arbitration: assign in reverse rule order so the
        # earliest rule wins where several guards hold.
        rule_ids = np.full(index.n, -1, dtype=np.int64)
        rule_ids[ra] = 2
        rule_ids[ca] = 1
        rule_ids[na] = 0
        return rule_ids

    def enabled_rules_for(self, states, rows, index: GraphIndex):
        """Subset guard evaluation for the vectorized sparse refresh.

        Entry-for-entry identical to ``enabled_rules(states, index)[rows]``
        (pinned by ``tests/test_vector_kernel.py``), but touches only the
        adjacency entries of ``rows`` — every gather below is sized by the
        subset's edges, never by ``n``.
        """
        s_all = states[:, 0]
        K = self._K
        alpha = self._alpha
        s = s_all[rows]
        owners, neighbor_rows = index.subset_edges(rows)
        rv = s[owners]
        ru = s_all[neighbor_rows]
        d = rv - ru
        m = rows.size

        in_range = (s >= 0) & (s < K)
        ru_in_range = (ru >= 0) & (ru < K)

        na_edge_ok = ru_in_range & ((d == 0) | (d == -1) | (d == K - 1))
        na = in_range & index.all_over_subset(owners, na_edge_ok, m)

        ca_edge_ok = (ru <= 0) & (rv <= ru)
        ca = (s >= -alpha) & (s < 0) & index.all_over_subset(owners, ca_edge_ok, m)

        initial = (s >= -alpha) & (s <= 0)
        ra_edge_bad = ~ru_in_range | ~(
            (d == 0) | (d == 1) | (d == -1) | (d == K - 1) | (d == 1 - K)
        )
        ra = ~initial & (~in_range | index.any_over_subset(owners, ra_edge_bad, m))

        rule_ids = np.full(m, -1, dtype=np.int64)
        rule_ids[ra] = 2
        rule_ids[ca] = 1
        rule_ids[na] = 0
        return rule_ids

    def fire(self, states, selected, rule_ids, index: GraphIndex):
        s = states[selected, 0]
        # phi: increment up the tail (negative values), around the cycle
        # otherwise; RA resets to -alpha.
        phi = np.where(s < 0, s + 1, (s + 1) % self._K)
        new = np.where(rule_ids == 2, -self._alpha, phi)
        return new.reshape(-1, 1)

"""Vectorized array-state kernel for the asynchronous unison (and SSME).

Implements the three guards of Algorithm 1 (``NA``/``CA``/``RA``) and the
shared ``phi``/reset actions as whole-array computations over the
neighbour-slot table of :class:`repro.core.vector.GraphIndex` — semantically
identical to the inlined-integer guards of
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

    States are plain clock values (codec width 1).  With ``t = phi(s)``
    (wrapped into ``[0, K)``) and ``p = s - 1``, every per-neighbour test of
    the protocol's integer-inlined predicates is a value equality:

    * ``NA``: ``s ∈ [0, K)`` and every neighbour ``ru ∈ {s, t}``;
    * ``CA``: ``s ∈ [-alpha, 0)`` and every neighbour ``s <= ru <= 0``;
    * ``RA``: ``s ∉ [-alpha, 0]`` and (``s ∉ [0, K)`` or some neighbour has
      ``ru ∉ {p, s, t}``).

    For ``s ∈ [0, K)``, ``ru ∈ {s, t}`` is the protocol's ``ru ∈ [0, K)``
    with ``s - ru ∈ {0, -1, K-1}``.  For ``s ∈ (0, K)``, ``ru ∈ {p, s, t}``
    is its ``ru ∈ [0, K)`` with ``d ∈ {0, ±1, ±(K-1)}``; ``s = 0`` is
    initial, so RA never needs a wrapped predecessor.

    The guards are evaluated on the neighbour values gathered through
    :attr:`GraphIndex.slots` (one row per slot) and ANDed across slots; a
    padded slot holds ``ru = s``, which passes all three tests.  Overflow
    entries (the neighbours of hub rows past the slot width) clear the
    flags of their owners.  The three guards are mutually exclusive, so
    the first-enabled arbitration only has to place them.
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
        overflow = None
        if index.overflow_owner.size:
            overflow = (index.overflow_owner, s[index.overflow_rows])
        return self._rule_ids(s, s[index.slots], overflow)

    def enabled_rules_for(self, states, rows, index: GraphIndex):
        """Subset guard evaluation for the vectorized sparse refresh.

        Entry-for-entry identical to ``enabled_rules(states, index)[rows]``
        (pinned by ``tests/test_vector_kernel.py``), but every gather is
        sized by ``rows`` (and their overflow entries), never by ``n``.
        """
        s_all = states[:, 0]
        overflow = index.overflow_of(rows)
        if overflow is not None:
            ranks, neighbors = overflow
            overflow = (ranks, s_all[neighbors])
        return self._rule_ids(s_all[rows], s_all[index.slots[:, rows]], overflow)

    def _rule_ids(self, s, ru, overflow):
        """First-enabled rule ids for the rows holding ``s``.

        ``ru`` is the ``(width, len(s))`` array of neighbour values, one row
        per slot; ``overflow`` is None or ``(ranks, values)``: the value of
        one more neighbour of row ``ranks[e]`` per entry.
        """
        K = self._K
        alpha = self._alpha
        t = s + 1
        t[t == K] = 0
        # RA reads ``correct`` only for s > 0, whose predecessor never wraps.
        p = s - 1
        every = np.logical_and.reduce
        near = (ru == s) | (ru == t)
        na = (s >= 0) & (s < K)
        # Locally correct: on the cycle, every neighbour within one tick.
        correct = na.copy()
        na &= every(near, axis=0)
        if overflow is not None:
            ranks, ov = overflow
            sv = s[ranks]
            ov_near = (ov == sv) | (ov == t[ranks])
            na[ranks[~ov_near]] = False
        # Steady state: once the unison has stabilized every vertex takes NA,
        # which excludes CA and RA, so skip their tests.  Most guard
        # evaluations of E6's long large-n runs end here; SSME runs still
        # converging up the tail never do.
        if na.all():
            return np.zeros(s.size, dtype=np.int64)
        near |= ru == p
        correct &= every(near, axis=0)
        ca = (s >= -alpha) & (s < 0) & every((ru <= 0) & (s <= ru), axis=0)
        if overflow is not None:
            ov_near |= ov == p[ranks]
            correct[ranks[~ov_near]] = False
            ca[ranks[(ov > 0) | (sv > ov)]] = False
        # RA: not initial (s ∉ [-alpha, 0]) and not locally correct.
        ra = ~correct & ((s > 0) | (s < -alpha))

        rule_ids = np.full(s.size, -1, dtype=np.int64)
        rule_ids[na] = 0
        rule_ids[ca] = 1
        rule_ids[ra] = 2
        return rule_ids

    def fire(self, states, selected, rule_ids, index: GraphIndex):
        # phi: increment up the tail (negative values), around the cycle
        # otherwise; RA resets to -alpha.
        new = states[selected, 0] + 1
        new[new == self._K] = 0
        new[rule_ids == 2] = -self._alpha
        return new.reshape(-1, 1)

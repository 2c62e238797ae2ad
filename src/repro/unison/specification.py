"""The asynchronous unison specification ``spec_AU`` (Specification 2).

An execution satisfies ``spec_AU`` when every configuration belongs to the
legitimate set ``Γ₁`` (safety) and the clock value of every vertex is
incremented infinitely often (liveness).  On finite traces the liveness
condition is approximated by "incremented at least once in the inspected
window", which is the strongest checkable statement.
"""

from __future__ import annotations

from typing import Optional

from ..core import Execution, Protocol, Specification
from ..core.state import Configuration
from ..exceptions import SpecificationError
from .protocol import AsynchronousUnison

__all__ = ["AsynchronousUnisonSpec"]


class AsynchronousUnisonSpec(Specification):
    """``spec_AU`` for a given :class:`AsynchronousUnison` instance."""

    name = "spec_AU"

    def __init__(self, protocol: AsynchronousUnison) -> None:
        if not isinstance(protocol, AsynchronousUnison):
            raise SpecificationError(
                "AsynchronousUnisonSpec requires an AsynchronousUnison protocol"
            )
        self._protocol = protocol
        # (vertex_order, edge src positions, edge dst positions) cache for
        # safe_rows.
        self._edge_rows = None

    # ------------------------------------------------------------------ #
    # Safety: membership in Γ₁
    # ------------------------------------------------------------------ #
    def is_safe(self, configuration: Configuration, protocol: Protocol) -> bool:
        del protocol  # the spec is bound to its own protocol instance
        return self._protocol.is_legitimate(configuration)

    def safe_rows(self, rows, order, protocol: Protocol):
        """Batch Γ₁ membership for the exact checker and the superstep
        engine's safety monitoring: every register correct (``>= 0``; the
        cherry domain is bounded above by ``K``) and every edge's cyclic
        drift at most 1."""
        del protocol
        import numpy as np

        src, dst = self._edge_positions(order)
        values = rows[:, :, 0]
        correct = (values >= 0).all(axis=1)
        K = self._protocol.clock.K
        diff = (values[:, src] - values[:, dst]) % K
        drift_ok = (np.minimum(diff, K - diff) <= 1).all(axis=1)
        return correct & drift_ok

    def _edge_positions(self, order):
        """``(src, dst)`` column positions of every edge's endpoints in
        ``order``, cached on the identity of ``order`` (engines pass one
        tuple for a whole run)."""
        import numpy as np

        cached = self._edge_rows
        if cached is None or cached[0] is not order:
            position = {v: i for i, v in enumerate(order)}
            edges = self._protocol.graph.edges
            src = np.fromiter(
                (position[u] for u, _v in edges), dtype=np.int64, count=len(edges)
            )
            dst = np.fromiter(
                (position[v] for _u, v in edges), dtype=np.int64, count=len(edges)
            )
            self._edge_rows = cached = (order, src, dst)
        return cached[1], cached[2]

    # ------------------------------------------------------------------ #
    # Liveness: every clock incremented in the window
    # ------------------------------------------------------------------ #
    def check_liveness(
        self, execution: Execution, protocol: Protocol, start: int = 0
    ) -> bool:
        del protocol
        incremented = set()
        clock = self._protocol.clock
        for index in range(start, execution.steps):
            for record in execution.activation_records(index):
                if record.rule_name in (
                    AsynchronousUnison.RULE_NORMAL,
                    AsynchronousUnison.RULE_CONVERGE,
                ) and record.new_state == clock.phi(record.old_state):
                    incremented.add(record.vertex)
        return incremented >= set(self._protocol.graph.vertices)

    def drift_bound_violations(self, configuration: Configuration) -> int:
        """Number of edges whose endpoints drift by more than 1 — a simple
        progress metric used by the examples."""
        clock = self._protocol.clock
        return sum(
            1
            for u, v in self._protocol.graph.edges
            if clock.distance(configuration[u], configuration[v]) > 1
        )

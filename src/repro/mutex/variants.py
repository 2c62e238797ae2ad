"""Parameterized SSME variants for ablation studies.

Algorithm 1 fixes two design choices:

* the clock size ``K = (2n - 1)(diam(g) + 1) + 2``, and
* the privileged values ``2n + spacing·id_v`` with ``spacing = 2·diam(g)``.

Both are exactly what make Theorems 1 and 2 work: the spacing keeps any two
privileged values further apart (on the clock circle) than the maximal
register drift ``diam(g)`` inside the legitimate set ``Γ₁``, and the clock
is just large enough to fit ``n`` such values plus the safety margin.

:class:`ParametricClockMutex` exposes the spacing and the clock size as
parameters so the ablation experiment (E7) can demonstrate what breaks when
they are chosen smaller: with ``spacing <= diam(g)`` there are legitimate
configurations in which two vertices are privileged simultaneously, i.e. the
protocol stops being a mutual-exclusion protocol at all.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from ..core import PrivilegeAware
from ..core.state import Configuration
from ..exceptions import ProtocolError
from ..graphs import Graph, diameter
from ..types import VertexId
from ..unison import AsynchronousUnison

__all__ = ["ParametricClockMutex", "minimal_safe_spacing", "minimal_safe_clock_size"]


def minimal_safe_spacing(diam: int) -> int:
    """The smallest privileged-value spacing that guarantees safety in Γ₁.

    Inside Γ₁ two registers can drift by up to ``diam`` positions, so two
    privileged values must sit strictly more than ``diam`` apart: the
    minimal safe spacing is ``diam + 1``.  The paper uses ``2·diam`` (with a
    first value of ``2n``), which additionally makes the ``⌈diam/2⌉``
    synchronous bound go through.
    """
    return diam + 1


def minimal_safe_clock_size(n: int, diam: int, spacing: int) -> int:
    """The smallest clock size that fits ``n`` privileged values with the
    given spacing while keeping the wrap-around gap larger than ``diam``."""
    first = 2 * n
    last = first + spacing * (n - 1)
    return last + diam + 1


class ParametricClockMutex(AsynchronousUnison, PrivilegeAware):
    """An SSME-like protocol with configurable privilege spacing and clock size.

    With ``spacing = 2·diam(g)`` and the default clock size this *is* SSME;
    smaller values reproduce the failure modes the paper's parameter choice
    avoids and are only meant for the ablation experiment and for tests.
    """

    name = "parametric-clock-mutex"

    def __init__(
        self,
        graph: Graph,
        spacing: Optional[int] = None,
        K: Optional[int] = None,
        first_value: Optional[int] = None,
        identities: Optional[Dict[VertexId, int]] = None,
    ) -> None:
        n = graph.n
        diam = diameter(graph)
        spacing = spacing if spacing is not None else 2 * diam
        if spacing < 1:
            raise ProtocolError("privilege spacing must be at least 1")
        first_value = first_value if first_value is not None else 2 * n
        if first_value < 1:
            raise ProtocolError("the first privileged value must be positive")
        K = K if K is not None else minimal_safe_clock_size(n, diam, spacing)
        last_value = first_value + spacing * (n - 1)
        if last_value >= K:
            raise ProtocolError(
                f"clock size K={K} cannot fit {n} privileged values spaced by "
                f"{spacing} starting at {first_value}"
            )
        super().__init__(graph, alpha=n, K=K, validate_parameters=False)
        self._diam = diam
        self._spacing = spacing
        if identities is not None:
            if set(identities.keys()) != set(graph.vertices) or sorted(
                identities.values()
            ) != list(range(n)):
                raise ProtocolError(
                    "identities must be a bijection from the vertices to 0..n-1"
                )
            self._identities = dict(identities)
        elif all(isinstance(v, int) for v in graph.vertices) and set(graph.vertices) == set(
            range(n)
        ):
            self._identities = {v: int(v) for v in graph.vertices}
        else:
            self._identities = {
                vertex: index
                for index, vertex in enumerate(sorted(graph.vertices, key=repr))
            }
        self._privileged_values: Dict[VertexId, int] = {
            vertex: first_value + spacing * identity
            for vertex, identity in self._identities.items()
        }

    # ------------------------------------------------------------------ #
    # Parameters
    # ------------------------------------------------------------------ #
    @property
    def diam(self) -> int:
        """The graph diameter."""
        return self._diam

    @property
    def spacing(self) -> int:
        """The distance between consecutive privileged values."""
        return self._spacing

    def privileged_value(self, vertex: VertexId) -> int:
        """The clock value at which ``vertex`` is privileged."""
        try:
            return self._privileged_values[vertex]
        except KeyError:
            raise ProtocolError(f"unknown vertex {vertex!r}") from None

    # ------------------------------------------------------------------ #
    # Privilege and safety analysis
    # ------------------------------------------------------------------ #
    def is_privileged(self, configuration: Configuration, vertex: VertexId) -> bool:
        return configuration[vertex] == self.privileged_value(vertex)

    def privileged_rows(self, rows, order):
        """Batch privilege matrix for the exact checker (see
        :meth:`repro.mutex.SSME.privileged_rows`)."""
        import numpy as np

        pv = np.fromiter(
            (self._privileged_values[v] for v in order),
            dtype=np.int64,
            count=len(order),
        )
        return rows[:, :, 0] == pv

    def guarantees_safety_in_gamma1(self) -> bool:
        """Whether the parameters make at most one privilege possible in Γ₁.

        This is the analytical core of Theorem 1: inside Γ₁ the registers of
        two vertices ``u`` and ``v`` can drift by up to ``dist(g, u, v)``,
        so safety holds if and only if every two privileged values are
        strictly further apart than the distance between their vertices.
        The paper's choice (spacing ``2·diam`` on a clock of size
        ``(2n-1)(diam+1)+2``) keeps them further apart than ``diam(g)``,
        which is sufficient for every pair.
        """
        return self.conflicting_pair() is None

    def conflicting_pair(self) -> Optional[Tuple[VertexId, VertexId]]:
        """A pair of distinct vertices whose privileged values are at most
        ``dist(g, u, v)`` apart on the clock circle (``None`` when the
        parameters are safe)."""
        items = sorted(self._privileged_values.items(), key=lambda kv: repr(kv[0]))
        for i, (u, a) in enumerate(items):
            dist_u = self.graph.bfs_distances(u)
            for v, b in items[i + 1 :]:
                if self.clock.distance(a, b) <= dist_u[v]:
                    return u, v
        return None

    def unsafe_legitimate_configuration(self) -> Configuration:
        """A configuration of Γ₁ with two simultaneously privileged vertices.

        Only exists when :meth:`guarantees_safety_in_gamma1` is False.  It is
        built by putting the conflicting pair ``(u, v)`` on their privileged
        values and letting every other register follow ``u``'s value shifted
        by (at most) its distance to ``u`` in the direction of ``v``'s value:
        neighbouring registers then drift by at most one, so the
        configuration is legitimate, yet both ``u`` and ``v`` are privileged.
        """
        pair = self.conflicting_pair()
        if pair is None:
            raise ProtocolError(
                "the parameters are safe: no unsafe legitimate configuration exists"
            )
        u, v = pair
        value_u = self.privileged_value(u)
        value_v = self.privileged_value(v)
        dist_u = self.graph.bfs_distances(u)
        gap = self.clock.distance(value_u, value_v)
        direction = 1 if (value_v - value_u) % self.K == gap else -1
        assignment: Dict[VertexId, int] = {
            w: (value_u + direction * min(dist_u[w], gap)) % self.K
            for w in self.graph.vertices
        }
        configuration = self.configuration(assignment)
        if not self.is_legitimate(configuration):
            raise ProtocolError("failed to build a legitimate conflicting configuration")
        if not (self.is_privileged(configuration, u) and self.is_privileged(configuration, v)):
            raise ProtocolError("constructed configuration lost a privilege")
        return configuration

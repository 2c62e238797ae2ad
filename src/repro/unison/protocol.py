"""The self-stabilizing asynchronous unison of Boulinier, Petit & Villain.

This is the substrate the paper builds SSME on (Section 4.1).  Every vertex
``v`` holds a register ``r_v`` whose value lives in a bounded clock
``cherry(alpha, K)``; the protocol guarantees, under the unfair distributed
daemon, that eventually every register holds a correct value, neighbouring
registers drift by at most one, and every register is incremented infinitely
often — provided ``alpha >= hole(g) - 2`` and ``K > cyclo(g)``.

The local protocol is exactly the one reproduced in Algorithm 1 of the
paper (without the privilege predicate, which does not interfere with it):

* ``NA`` (normal action): a vertex whose neighbourhood is locally correct
  and whose clock is locally minimal increments its clock;
* ``CA`` (converge action): a vertex with a strictly initial value whose
  neighbours all hold initial values at least as large increments its clock
  up the tail;
* ``RA`` (reset action): a vertex that detects a local inconsistency and
  does not hold an initial value resets to ``-alpha``.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from ..clocks import BoundedClock
from ..core import LocalView, Protocol, Rule
from ..core.state import Configuration
from ..exceptions import ProtocolError
from ..graphs import Graph, cyclomatic_characteristic_upper_bound, hole_length
from ..types import VertexId

__all__ = ["AsynchronousUnison", "default_unison_parameters"]


def default_unison_parameters(graph: Graph, exact: bool = False) -> tuple:
    """Safe ``(alpha, K)`` parameters for ``graph``.

    When ``exact`` is True the exact ``hole(g)`` and the fundamental-cycle
    bound on ``cyclo(g)`` are computed; otherwise the paper's own coarse
    bounds ``alpha = n`` and ``K = n + 1`` are used (both are always valid
    because ``hole(g) <= n`` and ``cyclo(g) <= n``).
    """
    if exact:
        alpha = max(1, hole_length(graph) - 2)
        K = cyclomatic_characteristic_upper_bound(graph) + 1
        return alpha, max(K, 2)
    return max(1, graph.n), graph.n + 1


class AsynchronousUnison(Protocol):
    """The Boulinier–Petit–Villain asynchronous unison protocol.

    Parameters
    ----------
    graph:
        Connected communication graph.
    alpha:
        Tail length of the bounded clock; must satisfy
        ``alpha >= hole(g) - 2`` for convergence (``alpha = n`` always
        works).  Defaults to ``n``.
    K:
        Cycle length of the bounded clock; must satisfy ``K > cyclo(g)``
        for liveness (``K = n + 1`` always works).  Defaults to ``n + 1``.
    validate_parameters:
        When True (default), check the two conditions above using the exact
        ``hole`` computation and the fundamental-cycle bound.  Disable for
        very large graphs where the exact hole search is too slow.

    The local state of a vertex is simply its clock value (an ``int``).
    """

    name = "asynchronous-unison"

    #: The actions are closed over the cherry: NA/CA apply ``phi`` (which
    #: maps the domain into itself) and RA resets to ``-alpha``, so engines
    #: may skip re-validating fired states.
    actions_preserve_validity = True

    #: Rule labels, matching Algorithm 1.
    RULE_NORMAL = "NA"
    RULE_CONVERGE = "CA"
    RULE_RESET = "RA"

    def __init__(
        self,
        graph: Graph,
        alpha: Optional[int] = None,
        K: Optional[int] = None,
        validate_parameters: bool = True,
    ) -> None:
        super().__init__(graph)
        default_alpha, default_K = max(1, graph.n), graph.n + 1
        self._clock = BoundedClock(
            alpha=alpha if alpha is not None else default_alpha,
            K=K if K is not None else default_K,
        )
        if validate_parameters:
            hole = hole_length(graph)
            if self._clock.alpha < hole - 2:
                raise ProtocolError(
                    f"alpha={self._clock.alpha} violates alpha >= hole(g) - 2 = {hole - 2}"
                )
            cyclo_bound = cyclomatic_characteristic_upper_bound(graph)
            # cyclo(g) <= n always; we additionally accept K > the
            # fundamental-cycle bound which itself upper-bounds cyclo(g).
            if not (self._clock.K > cyclo_bound or self._clock.K > graph.n):
                raise ProtocolError(
                    f"K={self._clock.K} violates K > cyclo(g) (upper bound {cyclo_bound})"
                )
        # Plain-int copies of the clock parameters for the guard fast paths
        # (attribute reads, not property descriptor calls, on the hot path).
        self._K = self._clock.K
        self._K1 = self._clock.K - 1
        self._alpha = self._clock.alpha
        self._rules = self._build_rules()

    # ------------------------------------------------------------------ #
    # Clock accessors
    # ------------------------------------------------------------------ #
    @property
    def clock(self) -> BoundedClock:
        """The bounded clock ``X = (cherry(alpha, K), phi)``."""
        return self._clock

    @property
    def alpha(self) -> int:
        """The clock tail length."""
        return self._clock.alpha

    @property
    def K(self) -> int:
        """The clock cycle length."""
        return self._clock.K

    # ------------------------------------------------------------------ #
    # The predicates of Algorithm 1
    # ------------------------------------------------------------------ #
    def correct_pair(self, rv: int, ru: int) -> bool:
        """``correct_v(u)``: both values on the cycle and drift at most 1."""
        clock = self._clock
        return (
            clock.is_correct(rv)
            and clock.is_correct(ru)
            and clock.distance(rv, ru) <= 1
        )

    def _all_correct(self, view: LocalView) -> bool:
        return all(
            self.correct_pair(view.state, ru) for ru in view.neighbor_states.values()
        )

    # The three guards below are the hottest code in the whole library:
    # every engine evaluates them once per vertex per step.  They inline
    # ``correct_pair``/``distance``/``local_le`` into direct integer
    # arithmetic on the cached ``K``/``alpha`` — for values in
    # ``[0, K)`` canonicalization is the identity, ``distance <= 1`` is
    # ``diff <= 1 or K - diff <= 1`` for ``diff = (rv - ru) % K``, and
    # ``local_le(rv, ru)`` is ``(ru - rv) % K <= 1`` — so the guards are
    # loop-free of method calls.  ``test_unison_protocol``/
    # ``test_protocol_hypothesis`` pin them to the predicate definitions.
    def _normal_step(self, view: LocalView) -> bool:
        # For rv, ru ∈ [0, K) the conjunction ``distance(rv, ru) <= 1 and
        # local_le(rv, ru)`` reduces to ``rv - ru ∈ {0, -1, K-1}`` (the
        # neighbour holds the same value or the cyclic successor/equal — the
        # local_le side rules out the neighbour lagging behind).
        K = self._K
        rv = view.state
        if not 0 <= rv < K:
            return False
        lag = self._K1
        for ru in view.neighbor_states.values():
            if not 0 <= ru < K:
                return False
            d = rv - ru
            if d != 0 and d != -1 and d != lag:
                return False
        return True

    def _converge_step(self, view: LocalView) -> bool:
        rv = view.state
        if not -self._alpha <= rv < 0:
            return False
        return all(
            ru <= 0 and rv <= ru for ru in view.neighbor_states.values()
        )

    def _reset_init(self, view: LocalView) -> bool:
        # ``not allCorrect and not initial``; for in-range values
        # ``distance > 1`` is ``rv - ru ∉ {0, ±1, ±(K-1)}``.
        rv = view.state
        if -self._alpha <= rv <= 0:
            return False
        K = self._K
        if not 0 <= rv < K:
            return True
        lag = self._K1
        for ru in view.neighbor_states.values():
            if not 0 <= ru < K:
                return True
            d = rv - ru
            if d != 0 and d != 1 and d != -1 and d != lag and d != -lag:
                return True
        return False

    def _phi_action(self, view: LocalView) -> int:
        # ``clock.phi`` restricted to in-domain values: the NA/CA guards
        # gating this action guarantee the state is inside the cherry, so
        # the domain re-check of ``phi`` is skipped on the firing hot path.
        rv = view.state
        return rv + 1 if rv < 0 else (rv + 1) % self._K

    def _build_rules(self) -> List[Rule]:
        reset_value = self._clock.reset_value()
        return [
            Rule(self.RULE_NORMAL, self._normal_step, self._phi_action),
            Rule(self.RULE_CONVERGE, self._converge_step, self._phi_action),
            Rule(self.RULE_RESET, self._reset_init, lambda view: reset_value),
        ]

    # ------------------------------------------------------------------ #
    # Protocol interface
    # ------------------------------------------------------------------ #
    def rules(self) -> Sequence[Rule]:
        return self._rules

    def vertex_state_space(self, vertex: VertexId) -> Sequence[int]:
        """Every vertex ranges over the whole clock domain ``cherry(alpha, K)``
        (SSME and the parametric variants inherit this unchanged)."""
        return self._clock.state_space()

    def array_codec(self):
        """States are plain clock ints — the trivial width-1 codec."""
        from ..core.vector import IntCodec

        return IntCodec()

    def array_kernel(self):
        """The vectorized NA/CA/RA kernel (SSME inherits it unchanged)."""
        from .array_kernel import UnisonArrayKernel

        return UnisonArrayKernel(self)

    def random_state(self, vertex: VertexId, rng: random.Random) -> int:
        """An arbitrary clock value — this models a transient fault that can
        corrupt the register to any value of its domain."""
        return rng.randrange(-self._clock.alpha, self._clock.K)

    def default_state(self, vertex: VertexId) -> int:
        """The clean state: clock value 0 everywhere (a legitimate
        configuration with zero drift)."""
        return 0

    def validate_state(self, vertex: VertexId, state) -> None:
        # Called once per firing by every engine; the containment test is
        # inlined (no ``clock.contains`` call) to keep it cheap.
        if not isinstance(state, int) or not -self._alpha <= state < self._K:
            raise ProtocolError(
                f"state {state!r} of vertex {vertex!r} is outside "
                f"cherry({self._clock.alpha}, {self._clock.K})"
            )

    # ------------------------------------------------------------------ #
    # Legitimacy (the set Γ₁)
    # ------------------------------------------------------------------ #
    def is_locally_correct(self, configuration: Configuration, vertex: VertexId) -> bool:
        """``allCorrect_v`` evaluated in ``configuration``."""
        view = self.local_view(configuration, vertex)
        return self._all_correct(view)

    def is_legitimate(self, configuration: Configuration) -> bool:
        """Whether ``configuration`` belongs to ``Γ₁``: every register holds
        a correct value and neighbouring registers drift by at most 1."""
        clock = self._clock
        for vertex in self.graph.vertices:
            if not clock.is_correct(configuration[vertex]):
                return False
        for u, v in self.graph.edges:
            if clock.distance(configuration[u], configuration[v]) > 1:
                return False
        return True

    def legitimate_configuration(self, base_value: int = 0) -> Configuration:
        """A canonical legitimate configuration (every register equal to
        ``base_value``, which must be a correct clock value)."""
        if not self._clock.is_correct(base_value):
            raise ProtocolError(f"{base_value} is not a correct clock value")
        return self.configuration({v: base_value for v in self.graph.vertices})

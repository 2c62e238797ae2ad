"""Protocol-level adaptive speculation: speculative ↔ conservative rule sets.

The paper defines a *speculative* protocol as one that is correct under a
weak (adversarial) daemon but optimized for a stronger, common-case one —
SSME is its flagship: self-stabilizing under the unfair daemon, yet
stabilizing in ``⌈diam/2⌉`` rounds under the synchronous daemon because the
privileged clock values are spaced ``2·diam`` apart (Theorem 2).

:class:`AdaptiveProtocol` closes the loop the paper opens.  It runs a
**speculative** rule set (SSME, spacing ``2·diam``) while the
:class:`~repro.adaptive.RegimeDetector` reads the schedule as dense and
synchronous, and a **conservative** fallback (the
:class:`~repro.mutex.ParametricClockMutex` with the minimal safe spacing
``diam + 1`` on the *same clock*) when the schedule turns sparse and
adversarial — the regime where the speculative spacing buys nothing.

**Why self-stabilization survives switching.**  Both rule sets are
self-stabilizing mutual-exclusion protocols over the same graph; by
default they share one clock (same ``alpha = n``, same ``K``), so their
state spaces coincide.  A switch replaces the rule set at a configuration
that is *valid for both protocols* — :meth:`AdaptiveProtocol.compatible`
checks every register against both ``validate_state`` hooks, and the
switch is deferred while the check fails.  From the new protocol's view a
switch is therefore indistinguishable from starting at an arbitrary (valid)
configuration, which is exactly the situation self-stabilization already
covers.  Because the detector only re-evaluates after a ``dwell`` period,
any execution performs finitely many switches per window, so the active
protocol's own convergence applies on the final segment.

The wrapper is a *runner* (not a :class:`~repro.core.Protocol` subclass):
a protocol's rule set is consulted by every engine per step, whereas
adaptive speculation changes it only at segment boundaries — so the clean
seam is segment-wise delegation: each segment is one
:meth:`~repro.core.Simulator.run` of the active rule set.
"""

from __future__ import annotations

import random
from typing import Callable, FrozenSet, List, NamedTuple, Optional, Tuple

from ..core.daemons import Daemon
from ..core.simulator import Simulator
from ..core.state import Configuration
from ..exceptions import SimulationError
from ..graphs import Graph, diameter
from ..mutex import SSME, MutualExclusionSpec
from ..mutex.variants import ParametricClockMutex, minimal_safe_spacing
from ..types import VertexId
from .detector import RegimeDetector

__all__ = ["AdaptiveProtocol", "AdaptiveProtocolRun", "ProtocolSwitch"]

#: Rule-set labels.
SPECULATIVE = "speculative"
CONSERVATIVE = "conservative"


class _ProbeDaemon(Daemon):
    """Transparent daemon wrapper feeding the regime detector.

    Forwards ``select`` to the wrapped daemon with the *run-global* step
    index (segments restart their local index at 0) and observes every
    selection.  The advisory attributes mirror the inner daemon's so any
    backend heuristic consulted downstream sees the real schedule.  The
    probe does **not** forward ``reset``: scheduling memory (round-robin
    cursors, starvation targets) must survive segment boundaries — the
    simulator already reset the inner daemon once, at run start.
    """

    name = "adaptive-probe"

    def __init__(self, inner: Daemon, detector: RegimeDetector) -> None:
        super().__init__()
        self._inner = inner
        self._detector = detector
        self.offset = 0
        self.dense = inner.dense
        self.synchronous = inner.synchronous
        self.density = inner.density

    def bind(self, protocol) -> None:
        super().bind(protocol)
        self._inner.bind(protocol)

    def select(
        self,
        enabled: FrozenSet[VertexId],
        configuration: Configuration,
        step_index: int,
        rng: random.Random,
    ) -> FrozenSet[VertexId]:
        selection = self._inner.select(
            enabled, configuration, self.offset + step_index, rng
        )
        self._detector.observe(len(selection), len(enabled), selection)
        return selection

    def admits_selection(
        self, enabled: FrozenSet[VertexId], selection: FrozenSet[VertexId]
    ) -> bool:
        return self._inner.admits_selection(enabled, selection)


class ProtocolSwitch(NamedTuple):
    """``mode`` became active at global step ``step``."""

    step: int
    mode: str


class AdaptiveProtocolRun(NamedTuple):
    """Outcome of one adaptive run (all fields deterministic given seed)."""

    #: Number of actions executed.
    steps: int
    #: Rule-set history; always starts with the initial mode at step 0.
    switches: Tuple[ProtocolSwitch, ...]
    #: First global index from which every configuration is legitimate for
    #: the rule set active at that index (``steps + 1`` when never reached).
    stabilization_index: int
    #: First global index from which every configuration satisfies the
    #: mutual-exclusion safety predicate of the active rule set.
    safety_index: int
    #: Number of configurations violating safety (two+ privileges).
    unsafe_configurations: int
    #: Whether the final configuration is legitimate for the final mode.
    final_legitimate: bool
    #: Total rule firings.
    moves: int


class AdaptiveProtocol:
    """Online speculative/conservative rule-set selection for mutex.

    Parameters
    ----------
    graph:
        The communication graph both rule sets are instantiated over.
    speculative / conservative:
        Override the two rule sets.  Defaults: SSME and the minimal-safe-
        spacing :class:`ParametricClockMutex` sharing SSME's clock size, so
        the state spaces coincide and any reachable configuration is a
        legal switch point (the compatibility check still runs — custom
        rule-set pairs may have genuinely distinct state spaces).
    dwell:
        Minimum steps between rule-set re-evaluations (bounds switching).
    detector_factory:
        ``f(n) -> RegimeDetector`` for the per-run detector.
    initial_mode:
        Rule set the run starts on; defaults to speculative, mirroring the
        paper's stance that the common case is worth optimizing for.
    """

    def __init__(
        self,
        graph: Graph,
        speculative=None,
        conservative=None,
        dwell: int = 16,
        detector_factory: Optional[Callable[[int], RegimeDetector]] = None,
        initial_mode: str = SPECULATIVE,
    ) -> None:
        if dwell < 1:
            raise SimulationError(f"dwell must be >= 1, got {dwell}")
        if initial_mode not in (SPECULATIVE, CONSERVATIVE):
            raise SimulationError(f"unknown initial mode {initial_mode!r}")
        self._graph = graph
        self._speculative = speculative if speculative is not None else SSME(graph)
        if conservative is None:
            conservative = ParametricClockMutex(
                graph,
                spacing=minimal_safe_spacing(diameter(graph)),
                K=self._speculative.K,
            )
        self._conservative = conservative
        self._protocols = {
            SPECULATIVE: self._speculative,
            CONSERVATIVE: self._conservative,
        }
        self._specs = {
            mode: MutualExclusionSpec(protocol)
            for mode, protocol in self._protocols.items()
        }
        self._dwell = dwell
        self._detector_factory = detector_factory
        self._initial_mode = initial_mode

    @property
    def graph(self) -> Graph:
        """The communication graph."""
        return self._graph

    @property
    def speculative(self):
        """The speculative rule set (optimized for the dense regime)."""
        return self._speculative

    @property
    def conservative(self):
        """The conservative fallback rule set."""
        return self._conservative

    def protocol_for(self, mode: str):
        """The rule set behind a mode label."""
        return self._protocols[mode]

    # ------------------------------------------------------------------ #
    # Switch-point legality
    # ------------------------------------------------------------------ #
    def compatible(self, configuration) -> bool:
        """Whether ``configuration`` is valid under *both* rule sets.

        Switches only happen at compatible configurations — that is what
        lets the incoming protocol treat the switch as an arbitrary (valid)
        starting configuration, the case self-stabilization covers.
        ``configuration`` may be any vertex-to-state mapping, including the
        engines' live views.
        """
        for protocol in (self._speculative, self._conservative):
            validate = protocol.validate_state
            try:
                for vertex in self._graph.vertices:
                    validate(vertex, configuration[vertex])
            except Exception:
                return False
        return True

    def _target_mode(self, detector: RegimeDetector) -> Optional[str]:
        regime = detector.classify()
        if regime == RegimeDetector.DENSE:
            return SPECULATIVE
        if regime == RegimeDetector.SPARSE:
            return CONSERVATIVE
        return None

    # ------------------------------------------------------------------ #
    # Running
    # ------------------------------------------------------------------ #
    def run(
        self,
        initial: Configuration,
        daemon: Daemon,
        max_steps: int,
        rng: Optional[random.Random] = None,
        engine: str = "auto",
    ) -> AdaptiveProtocolRun:
        """Run up to ``max_steps`` actions, switching rule sets online.

        ``initial`` must be valid for the initial mode's protocol (with the
        default shared-clock rule sets, any configuration of either).  The
        run measures its own trace: per-configuration safety and legitimacy
        are evaluated against the rule set *active at that step*, because a
        privilege only means mutual exclusion relative to the protocol the
        vertices are currently executing.
        """
        if max_steps < 0:
            raise SimulationError("max_steps must be non-negative")
        rng = rng or random.Random(0)
        daemon.reset()
        detector = (
            self._detector_factory(self._graph.n)
            if self._detector_factory is not None
            else RegimeDetector(self._graph.n)
        )
        probe = _ProbeDaemon(daemon, detector)
        mode = self._initial_mode
        switches: List[ProtocolSwitch] = [ProtocolSwitch(0, mode)]
        offset = 0
        current = initial
        moves = 0
        # Per-global-index observation stream: True entries mark indices
        # whose configuration failed the active rule set's predicate.
        illegitimate: List[int] = []
        unsafe: List[int] = []
        last_index = 0

        while True:
            remaining = max_steps - offset
            probe.offset = offset
            protocol = self._protocols[mode]
            spec = self._specs[mode]
            simulator = Simulator(protocol, probe, rng=rng, engine=engine, trace="light")
            pending: List[str] = []
            dwell = self._dwell
            compatible = self.compatible
            target_mode = self._target_mode

            def segment_stop(observed, local_index: int) -> bool:
                if local_index < dwell or pending:
                    return False
                target = target_mode(detector)
                if target is None or target == mode:
                    return False
                if not compatible(observed):
                    # Defer: the switch point must be valid for both rule
                    # sets.  Re-probed on the following steps.
                    return False
                pending.append(target)
                return True

            execution = simulator.run(
                protocol.configuration({v: current[v] for v in self._graph.vertices}),
                max_steps=remaining,
                stop_when=segment_stop,
            )
            moves += execution.moves()
            # Walk the segment's trace under the active rule set.  The
            # boundary configuration is re-observed by the next segment
            # (under the *new* rule set — the honest reading: both apply at
            # the instant of the switch, and safety must hold for each).
            index = offset
            for configuration in execution.iter_configurations():
                if not protocol.is_legitimate(configuration):
                    illegitimate.append(index)
                if not spec.is_safe(configuration, protocol):
                    unsafe.append(index)
                last_index = index
                index += 1
                # The walk's last yield is the segment's final configuration
                # — reusing it avoids a second light-trace replay.
                current = configuration
            offset += execution.steps
            if not execution.truncated or offset >= max_steps or not pending:
                break
            mode = pending[0]
            switches.append(ProtocolSwitch(offset, mode))

        protocol = self._protocols[mode]
        stabilization_index = (illegitimate[-1] + 1) if illegitimate else 0
        safety_index = (unsafe[-1] + 1) if unsafe else 0
        return AdaptiveProtocolRun(
            steps=offset,
            switches=tuple(switches),
            stabilization_index=min(stabilization_index, last_index + 1),
            safety_index=min(safety_index, last_index + 1),
            unsafe_configurations=len(unsafe),
            final_legitimate=protocol.is_legitimate(current),
            moves=moves,
        )

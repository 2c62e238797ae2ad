"""The discrete-event simulator: protocol + daemon -> executions.

The simulator realizes the operational model of Section 2: at each
configuration it computes the enabled vertices, asks the daemon for a
non-empty subset of them, and applies the corresponding action atomically.
Runs are deterministic given the seed (and fully deterministic under the
synchronous daemon).
"""

from __future__ import annotations

import random
from typing import Callable, FrozenSet, List, Optional, Sequence

from ..exceptions import SimulationError
from ..types import VertexId
from .daemons import Daemon
from .engine import IncrementalEngine
from .execution import Execution
from .protocol import ActivationRecord, Protocol
from .state import Configuration
from .vector import VectorEngine, array_engine

__all__ = ["StepResult", "Simulator"]

#: Engine selection values accepted by :class:`Simulator`.
ENGINES = ("auto", "incremental", "vector", "reference")

#: Trace modes accepted by :class:`Simulator` (see docs/engine.md).
TRACE_MODES = ("full", "light")

#: ``engine="auto"`` size floor for the array backend: below
#: ``_DENSE_MIN_N`` vertices the fixed per-step cost of the array
#: operations exceeds the dict engine's whole-graph rescan, so small graphs
#: keep the dict engine.
_DENSE_MIN_N = 32


class StepResult:
    """Outcome of a single simulated action."""

    __slots__ = ("configuration", "selection", "records", "enabled", "terminal")

    def __init__(
        self,
        configuration: Configuration,
        selection: FrozenSet[VertexId],
        records: Sequence[ActivationRecord],
        enabled: FrozenSet[VertexId],
        terminal: bool,
    ) -> None:
        self.configuration = configuration
        self.selection = selection
        self.records = tuple(records)
        self.enabled = enabled
        self.terminal = terminal

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"StepResult(selected={sorted(self.selection, key=repr)!r}, "
            f"terminal={self.terminal})"
        )


class Simulator:
    """Runs executions of a protocol under a daemon.

    Parameters
    ----------
    protocol:
        The distributed protocol to execute.
    daemon:
        The adversary scheduling the execution.  It is bound to the
        protocol by the constructor.
    rng:
        Source of randomness for the daemon (and nothing else).  Passing a
        seeded ``random.Random`` makes runs reproducible.
    engine:
        ``"auto"`` (default) picks a sound backend by a size-aware policy:
        the NumPy-vectorized array-state kernel (:mod:`repro.core.vector`)
        when the protocol has a usable one
        (:func:`~repro.core.vector.array_engine`) and the daemon is
        synchronous (:attr:`Daemon.synchronous`) on a graph of at least 32
        vertices; the dirty-set incremental engine otherwise.
        ``"incremental"`` forces the dict-based dirty-set engine of
        :mod:`repro.core.engine`;
        ``"vector"`` requests the array-state kernel, which runs
        synchronous-daemon runs in supersteps
        (:meth:`~repro.core.vector.VectorEngine.run_supersteps`); it
        resolves to ``"incremental"`` under any other daemon and when the
        capability is unavailable.  ``"reference"`` runs the naive
        full-rescan semantics and serves as the correctness oracle.
        Protocols that override the base-class transition methods
        automatically fall back to the reference engine.  The resolved
        choice is reported by :attr:`engine`; any other name raises
        :class:`SimulationError`.
    trace:
        ``"full"`` (default) records every configuration in the returned
        :class:`Execution`.  ``"light"`` records activations only and
        reconstructs configurations on demand — same observable trace, far
        less per-step work and memory.  Both engines honour both modes; in
        light mode the incremental engine additionally hands daemons and
        ``stop_when`` predicates a live read-only view of the current
        states instead of per-step snapshots, so they must not retain it
        across steps.

    Examples
    --------
    >>> from repro.graphs import ring_graph
    >>> from repro.mutex import SSME
    >>> from repro.core import SynchronousDaemon, Simulator
    >>> protocol = SSME(ring_graph(4))
    >>> sim = Simulator(protocol, SynchronousDaemon())
    >>> execution = sim.run(protocol.default_configuration(), max_steps=10)
    >>> execution.steps
    10
    """

    def __init__(
        self,
        protocol: Protocol,
        daemon: Daemon,
        rng: Optional[random.Random] = None,
        engine: str = "auto",
        trace: str = "full",
    ) -> None:
        if engine not in ENGINES:
            raise SimulationError(
                f"unknown engine {engine!r}; known: {', '.join(ENGINES)}"
            )
        if trace not in TRACE_MODES:
            raise SimulationError(
                f"unknown trace mode {trace!r}; known: {', '.join(TRACE_MODES)}"
            )
        self._protocol = protocol
        self._daemon = daemon
        self._daemon.bind(protocol)
        self._rng = rng or random.Random(0)
        # Protocols overriding hot-path transition methods keep their custom
        # semantics: no incremental engine, and no prepared-evaluation
        # threading either (their ``apply`` may predate the ``prepared``
        # keyword and their enabledness chain must be honoured).
        self._prepared_ok = protocol.has_stock_transitions()
        # Backend resolution, made here once (graceful, never an error):
        # the array kernel needs the synchronous daemon and a usable array
        # engine; "auto" additionally requires a large enough graph — the
        # regime where whole-array steps beat the dict engine's rescans.
        # The probe returns the protocol's shared engine, the one that runs.
        self._vector: Optional[VectorEngine] = None
        self._incremental: Optional[IncrementalEngine] = None
        self._last_run_backend: Optional[str] = None
        if engine != "reference":
            if not self._prepared_ok:
                engine = "reference"
            elif daemon.synchronous and (
                engine == "vector"
                or (engine == "auto" and protocol.graph.n >= _DENSE_MIN_N)
            ):
                self._vector = array_engine(protocol)
                engine = "incremental" if self._vector is None else "vector"
            else:
                engine = "incremental"
        self._engine = engine
        self._trace = trace

    @property
    def protocol(self) -> Protocol:
        """The protocol being simulated."""
        return self._protocol

    @property
    def daemon(self) -> Daemon:
        """The scheduling daemon."""
        return self._daemon

    @property
    def engine(self) -> str:
        """The resolved engine ("vector", "incremental" or "reference")."""
        return self._engine

    @property
    def last_run_backend(self) -> Optional[str]:
        """Which backend the most recent :meth:`run` actually used
        ("vector" or "dict"; None before any run or under the reference
        engine).  Diagnostic: the vector backend may decline a particular
        initial configuration (states outside the codec's integer layout),
        and that run then falls back to the dict engine."""
        return self._last_run_backend

    @property
    def trace(self) -> str:
        """The trace mode executions are recorded with."""
        return self._trace

    # ------------------------------------------------------------------ #
    # Single step
    # ------------------------------------------------------------------ #
    def step(self, configuration: Configuration, step_index: int = 0) -> StepResult:
        """Simulate one action from ``configuration``.

        If the configuration is terminal the result has ``terminal=True``
        and echoes the configuration unchanged.
        """
        if self._prepared_ok:
            enabled, prepared = self._protocol.prepared_step(configuration)
        else:
            enabled, prepared = self._protocol.enabled_vertices(configuration), None
        if not enabled:
            return StepResult(
                configuration=configuration,
                selection=frozenset(),
                records=(),
                enabled=enabled,
                terminal=True,
            )
        selection = self._daemon.checked_select(enabled, configuration, step_index, self._rng)
        if prepared is not None:
            new_configuration, records = self._protocol.apply(
                configuration, selection, prepared=prepared
            )
        else:
            new_configuration, records = self._protocol.apply(configuration, selection)
        return StepResult(
            configuration=new_configuration,
            selection=selection,
            records=records,
            enabled=enabled,
            terminal=False,
        )

    # ------------------------------------------------------------------ #
    # Full runs
    # ------------------------------------------------------------------ #
    def run(
        self,
        initial: Configuration,
        max_steps: int,
        stop_when: Optional[Callable[[Configuration, int], bool]] = None,
        trace: Optional[str] = None,
    ) -> Execution:
        """Run up to ``max_steps`` actions starting from ``initial``.

        The run stops early when a terminal configuration is reached or when
        ``stop_when(configuration, step_index)`` returns True (the predicate
        is also evaluated on the initial configuration with index 0).

        ``trace`` overrides the simulator's trace mode for this run.
        """
        if max_steps < 0:
            raise SimulationError("max_steps must be non-negative")
        trace = trace if trace is not None else self._trace
        if trace not in TRACE_MODES:
            raise SimulationError(
                f"unknown trace mode {trace!r}; known: {', '.join(TRACE_MODES)}"
            )
        self._daemon.reset()
        if self._engine == "reference":
            return self._run_reference(initial, max_steps, stop_when, trace)
        if self._engine == "vector":
            # A synchronous run is deterministic, so the superstep loop
            # never consults the daemon.  States outside the codec's integer
            # layout send this run to the dict engine instead.
            encoded = self._vector.encode_initial(initial)
            if encoded is not None:
                self._last_run_backend = "vector"
                return self._vector.run_supersteps(
                    initial,
                    max_steps,
                    stop_when=stop_when,
                    trace=trace,
                    initial_array=encoded,
                )
        if self._incremental is None:
            self._incremental = IncrementalEngine(self._protocol)
        self._last_run_backend = "dict"
        return self._incremental.run(
            daemon=self._daemon,
            rng=self._rng,
            initial=initial,
            max_steps=max_steps,
            stop_when=stop_when,
            trace=trace,
        )

    def _run_reference(
        self,
        initial: Configuration,
        max_steps: int,
        stop_when: Optional[Callable[[Configuration, int], bool]],
        trace: str,
    ) -> Execution:
        """The naive full-rescan semantics — the correctness oracle.

        Every configuration is evaluated from scratch.  For stock protocols
        guards still run only once per vertex per step because the
        enabledness pass is shared with ``Protocol.apply`` (see
        :meth:`Protocol.prepared_step`); protocols overriding hot-path
        methods go through their own ``enabled_vertices``/``apply`` chain
        unchanged.
        """
        light = trace == "light"
        configurations: List[Configuration] = [initial]
        selections: List[FrozenSet[VertexId]] = []
        activations: List[Sequence[ActivationRecord]] = []
        enabled_sets: List[FrozenSet[VertexId]] = []
        truncated = True

        current = initial
        for index in range(max_steps + 1):
            if self._prepared_ok:
                enabled, prepared = self._protocol.prepared_step(current)
            else:
                enabled, prepared = self._protocol.enabled_vertices(current), None
            enabled_sets.append(enabled)
            if stop_when is not None and stop_when(current, index):
                truncated = True
                break
            if not enabled:
                truncated = False
                break
            if index == max_steps:
                truncated = True
                break
            selection = self._daemon.checked_select(enabled, current, index, self._rng)
            if prepared is not None:
                new_configuration, records = self._protocol.apply(
                    current, selection, prepared=prepared
                )
            else:
                new_configuration, records = self._protocol.apply(current, selection)
            selections.append(selection)
            activations.append(records)
            if not light:
                configurations.append(new_configuration)
            current = new_configuration

        if light:
            return Execution.from_activations(
                initial=initial,
                selections=selections,
                activations=activations,
                enabled_sets=enabled_sets,
                truncated=truncated,
            )
        return Execution(
            configurations=configurations,
            selections=selections,
            activations=activations,
            enabled_sets=enabled_sets,
            truncated=truncated,
        )

    def run_until_terminal(
        self,
        initial: Configuration,
        max_steps: int,
        stop_when: Optional[Callable[[Configuration, int], bool]] = None,
        trace: Optional[str] = "light",
    ) -> Execution:
        """Run until a terminal configuration; raise if the budget is hit.

        Only meaningful for *silent* protocols (BFS tree, matching) that are
        guaranteed to terminate; unison/SSME never terminate.

        ``stop_when`` and ``trace`` are threaded through to :meth:`run`
        (they used to be silently dropped).  ``trace`` defaults to
        ``"light"`` — terminal-seeking callers typically only inspect the
        final configuration, and a light trace reconstructs anything else
        on demand; pass ``trace="full"`` to keep per-step snapshots, or
        ``trace=None`` to defer to the simulator's configured mode (the
        same ``None`` semantics as :meth:`run`).  A ``stop_when`` that
        fires before a terminal configuration truncates the run, which
        therefore raises like an exhausted budget.
        """
        execution = self.run(
            initial,
            max_steps,
            stop_when=stop_when,
            trace=trace,
        )
        if not execution.is_terminal:
            raise SimulationError(
                f"no terminal configuration reached within {max_steps} steps"
            )
        return execution


def synchronous_execution(
    protocol: Protocol, initial: Configuration, steps: int
) -> Execution:
    """Convenience helper: the (unique) synchronous execution prefix.

    Under the synchronous daemon the execution from a configuration is
    deterministic, so no seed is needed.
    """
    from .daemons import SynchronousDaemon

    simulator = Simulator(protocol, SynchronousDaemon(), rng=random.Random(0))
    return simulator.run(initial, max_steps=steps)

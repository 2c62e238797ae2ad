"""Measuring stabilization times on simulated executions.

The paper defines the convergence (stabilization) time of a self-stabilizing
protocol under a daemon as the worst, over the executions allowed by the
daemon, of the number of actions needed to reach a configuration from which
every execution satisfies the specification (Definition 3).

On a finite simulated trace we measure the *observed* stabilization point:
the smallest index ``s`` such that every configuration from ``s`` to the end
of the trace satisfies the safety predicate (optionally also requiring the
liveness check to pass on that suffix).  For deterministic daemons
(synchronous) with a horizon covering the protocol's period this is exact;
for randomized/adversarial daemons the experiment harness takes the maximum
over many seeds and initial configurations, which lower-bounds the true
worst case while every upper-bound theorem must still dominate it.

For finite-state protocol instances small enough to enumerate, the exact
model checker lifts this caveat entirely: :func:`repro.verify.
verify_stabilization` solves the adversarial scheduling game over *every*
schedule of a daemon class (and, in exhaustive mode, every initial
configuration), certifying the true worst case that the sampled values
here approach from below — ``exact >= sampled`` on any shared region is
pinned by ``tests/test_exact_consistency.py`` and the E8 driver.  See
``docs/verify.md`` for when each layer applies.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import SimulationError
from .daemons import Daemon
from .execution import Execution
from .protocol import Protocol
from .simulator import Simulator
from .specification import Specification
from .state import Configuration

__all__ = [
    "SafetyMonitor",
    "StabilizationMeasurement",
    "WorstCaseStabilization",
    "observed_stabilization_index",
    "observed_stabilization_indices",
    "measure_stabilization",
    "worst_case_stabilization",
]


class SafetyMonitor:
    """Online multi-specification safety monitor.

    Instead of re-walking a recorded trace once per specification, the
    monitor observes every configuration *as the run produces it* (via the
    simulator's ``stop_when`` hook) and tracks, per specification, the first
    and last index whose configuration violated safety — exactly the
    quantities stabilization measurement needs.  One pass, any number of
    specifications, no configuration retained; with a light trace the
    measured run never materializes a configuration at all.

    Usage::

        monitor = SafetyMonitor([spec_a, spec_b], protocol)
        execution = simulator.run(initial, max_steps=h, stop_when=monitor.observe)
        index_a = monitor.stabilization_index(spec_a)

    An optional wrapped ``stop_when`` predicate is evaluated *after* the
    observation is recorded, so it may interrogate the monitor about the
    configuration it is deciding on (see :meth:`is_currently_safe`).

    In light-trace mode :meth:`observe` receives a live read-only view; the
    monitor only derives booleans from it and never retains it, which is
    exactly the contract such views require.

    The synchronous superstep engine recognizes a bare ``monitor.observe``
    (no wrapped predicate) whose specifications all implement
    :meth:`~repro.core.Specification.safe_rows`: it evaluates safety on its
    own state array and records the verdicts through
    :meth:`observe_verdicts`, so the run never replays a block for the
    monitor.  The recorded indices are the same either way.
    """

    __slots__ = (
        "_protocol",
        "_specs",
        "_checks",
        "_first_unsafe",
        "_last_unsafe",
        "_last_index",
        "_stop_when",
    )

    def __init__(
        self,
        specifications: Sequence[Specification],
        protocol: Protocol,
        stop_when: Optional[Callable[[Configuration, int], bool]] = None,
    ) -> None:
        specs = tuple(specifications)
        if not specs:
            raise SimulationError("SafetyMonitor needs at least one specification")
        self._protocol = protocol
        self._specs = specs
        self._checks = [spec.is_safe for spec in specs]
        self._first_unsafe: List[Optional[int]] = [None] * len(specs)
        self._last_unsafe: List[Optional[int]] = [None] * len(specs)
        self._last_index = -1
        self._stop_when = stop_when

    def reset(self) -> None:
        """Forget all observations (reuse the monitor for another run)."""
        self._first_unsafe = [None] * len(self._specs)
        self._last_unsafe = [None] * len(self._specs)
        self._last_index = -1

    # ------------------------------------------------------------------ #
    # The stop_when-compatible callback
    # ------------------------------------------------------------------ #
    def observe(self, configuration: Mapping, index: int) -> bool:
        """Record safety of ``configuration`` at ``index``.

        Drop-in ``stop_when`` predicate: returns False (never stops the
        run) unless a wrapped ``stop_when`` was supplied, in which case its
        verdict — evaluated after the observation — is returned.
        """
        protocol = self._protocol
        self.observe_verdicts(
            [check(configuration, protocol) for check in self._checks], index
        )
        if self._stop_when is not None:
            return self._stop_when(configuration, index)
        return False

    def observe_verdicts(self, verdicts: Sequence[bool], index: int) -> None:
        """Record precomputed safety verdicts of configuration ``index``.

        ``verdicts[i]`` is whether the configuration satisfies the safety
        predicate of the ``i``-th monitored specification.  Same gapless
        index contract as :meth:`observe`, whose bookkeeping this is; the
        superstep engine calls it with verdicts from
        :meth:`~repro.core.Specification.safe_rows`.
        """
        if index != self._last_index + 1:
            raise SimulationError(
                f"monitor observed index {index} after {self._last_index}; "
                "observations must be gapless (one run per monitor, or reset())"
            )
        self._last_index = index
        for position, safe in enumerate(verdicts):
            if not safe:
                self._last_unsafe[position] = index
                if self._first_unsafe[position] is None:
                    self._first_unsafe[position] = index

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def _position(self, specification: Specification) -> int:
        for position, spec in enumerate(self._specs):
            if spec is specification:
                return position
        raise SimulationError("specification was not monitored")

    @property
    def specifications(self) -> Tuple[Specification, ...]:
        """The monitored specifications, in verdict order."""
        return self._specs

    @property
    def protocol(self) -> Protocol:
        """The protocol the safety predicates are evaluated against."""
        return self._protocol

    @property
    def stop_when(self) -> Optional[Callable[[Configuration, int], bool]]:
        """The wrapped ``stop_when`` predicate (None: never stops a run)."""
        return self._stop_when

    @property
    def observed_steps(self) -> int:
        """Index of the last observed configuration (-1 before any)."""
        return self._last_index

    def is_currently_safe(self, specification: Specification) -> bool:
        """Whether the most recently observed configuration was safe."""
        if self._last_index < 0:
            raise SimulationError("monitor has observed no configuration yet")
        return self._last_unsafe[self._position(specification)] != self._last_index

    def first_unsafe_index(self, specification: Specification) -> Optional[int]:
        """First observed unsafe index for ``specification`` (or ``None``)."""
        return self._first_unsafe[self._position(specification)]

    def last_unsafe_index(self, specification: Specification) -> Optional[int]:
        """Last observed unsafe index for ``specification`` (or ``None``)."""
        return self._last_unsafe[self._position(specification)]

    def stabilization_index(self, specification: Specification) -> Optional[int]:
        """The observed stabilization index over the observed prefix.

        Same contract as :func:`observed_stabilization_index`: smallest
        ``s`` such that every observed configuration from ``s`` on was
        safe, ``None`` when the last observed configuration was unsafe.
        """
        last_unsafe = self._last_unsafe[self._position(specification)]
        if last_unsafe is None:
            return 0
        if last_unsafe == self._last_index:
            return None
        return last_unsafe + 1

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"SafetyMonitor(specs={[s.name for s in self._specs]!r}, "
            f"observed={self._last_index + 1})"
        )


class StabilizationMeasurement:
    """Outcome of measuring one execution against a specification."""

    __slots__ = (
        "stabilization_steps",
        "stabilized",
        "liveness_checked",
        "liveness_ok",
        "execution_steps",
        "terminal",
        "rounds",
    )

    def __init__(
        self,
        stabilization_steps: Optional[int],
        stabilized: bool,
        liveness_checked: bool,
        liveness_ok: Optional[bool],
        execution_steps: int,
        terminal: bool,
        rounds: int,
    ) -> None:
        self.stabilization_steps = stabilization_steps
        self.stabilized = stabilized
        self.liveness_checked = liveness_checked
        self.liveness_ok = liveness_ok
        self.execution_steps = execution_steps
        self.terminal = terminal
        self.rounds = rounds

    def __repr__(self) -> str:
        return (
            f"StabilizationMeasurement(steps={self.stabilization_steps}, "
            f"stabilized={self.stabilized}, liveness_ok={self.liveness_ok})"
        )


class WorstCaseStabilization:
    """Aggregate of stabilization measurements over many runs."""

    __slots__ = ("measurements", "all_stabilized", "all_live")

    def __init__(self, measurements: Sequence[StabilizationMeasurement]) -> None:
        self.measurements = tuple(measurements)
        self.all_stabilized = all(m.stabilized for m in self.measurements)
        checked = [m for m in self.measurements if m.liveness_checked]
        self.all_live = all(m.liveness_ok for m in checked) if checked else None

    @property
    def max_steps(self) -> Optional[int]:
        """The worst observed stabilization time (``None`` if nothing ran)."""
        steps = [
            m.stabilization_steps
            for m in self.measurements
            if m.stabilization_steps is not None
        ]
        return max(steps) if steps else None

    @property
    def mean_steps(self) -> Optional[float]:
        """The mean observed stabilization time."""
        steps = [
            m.stabilization_steps
            for m in self.measurements
            if m.stabilization_steps is not None
        ]
        return sum(steps) / len(steps) if steps else None

    @property
    def max_rounds(self) -> Optional[int]:
        """Worst observed stabilization expressed in rounds-equivalent
        (rounds of the whole trace; coarse but monotone)."""
        rounds = [m.rounds for m in self.measurements]
        return max(rounds) if rounds else None

    def __repr__(self) -> str:
        return (
            f"WorstCaseStabilization(runs={len(self.measurements)}, "
            f"max_steps={self.max_steps}, all_stabilized={self.all_stabilized})"
        )


def observed_stabilization_index(
    execution: Execution, specification: Specification, protocol: Protocol
) -> Optional[int]:
    """Smallest index ``s`` such that every configuration of the trace from
    ``s`` onwards is safe, or ``None`` when the final configuration itself
    is unsafe (the trace never stabilized within its horizon)."""
    last_unsafe = specification.last_unsafe_index(execution, protocol)
    if last_unsafe is None:
        return 0
    if last_unsafe == execution.steps:
        return None
    return last_unsafe + 1


def observed_stabilization_indices(
    execution: Execution,
    specifications: Sequence[Specification],
    protocol: Protocol,
) -> List[Optional[int]]:
    """Observed stabilization indices of several specifications in **one**
    sequential pass over the trace.

    Equivalent to calling :func:`observed_stabilization_index` once per
    specification, but the (possibly lazily reconstructed) configurations
    are visited a single time, and on light traces only O(steps/stride)
    of them are retained.
    """
    monitor = SafetyMonitor(specifications, protocol)
    for index, configuration in enumerate(execution.iter_configurations()):
        monitor.observe(configuration, index)
    return [monitor.stabilization_index(spec) for spec in specifications]


def measure_stabilization(
    protocol: Protocol,
    daemon: Daemon,
    initial: Configuration,
    specification: Specification,
    horizon: int,
    rng: Optional[random.Random] = None,
    check_liveness: bool = False,
    engine: str = "auto",
    trace: str = "full",
    count_rounds: bool = True,
) -> StabilizationMeasurement:
    """Run one execution and measure its observed stabilization time.

    Safety is monitored **online** (:class:`SafetyMonitor` riding the
    simulator's ``stop_when`` hook): the stabilization index is known the
    moment the run ends and the trace is never re-walked for it.  Under
    the synchronous daemon the superstep engine evaluates the monitor on
    its own state array when the specification implements
    :meth:`~repro.core.Specification.safe_rows`, so no step is fired twice.

    Parameters
    ----------
    horizon:
        Maximum number of actions to simulate.  For liveness checks the
        horizon must extend well past the expected stabilization point
        (e.g. at least one clock period for SSME).
    check_liveness:
        When True, the specification's liveness condition is evaluated on
        the suffix starting at the observed stabilization point.
    engine:
        Simulation engine ("auto" by default — the vectorized array-state
        backend for dense daemons when the protocol declares one, the
        incremental dirty-set engine otherwise; "reference" replays the
        naive semantics, useful to cross-check a measurement).
    trace:
        Trace mode of the underlying run.  With ``"light"`` the safety
        monitor reads live views and no configuration is materialized by
        the measurement itself; liveness checks (and any later trace
        inspection) reconstruct configurations on demand.
    count_rounds:
        When False, skip the O(steps·n) round count of the finished trace
        and report ``rounds=0``.  Large-n sweeps that only need step counts
        must disable it — on a 10⁴-vertex horizon the round walk would
        dominate the (vectorized) run itself.
    """
    simulator = Simulator(
        protocol, daemon, rng=rng or random.Random(0), engine=engine, trace=trace
    )
    monitor = SafetyMonitor([specification], protocol)
    execution = simulator.run(initial, max_steps=horizon, stop_when=monitor.observe)
    index = monitor.stabilization_index(specification)
    stabilized = index is not None
    liveness_ok: Optional[bool] = None
    if check_liveness and stabilized:
        liveness_ok = specification.check_liveness(execution, protocol, index)
    return StabilizationMeasurement(
        stabilization_steps=index,
        stabilized=stabilized,
        liveness_checked=check_liveness and stabilized,
        liveness_ok=liveness_ok,
        execution_steps=execution.steps,
        terminal=execution.is_terminal,
        rounds=execution.count_rounds() if count_rounds else 0,
    )


def worst_case_stabilization(
    protocol: Protocol,
    daemon_factory: Callable[[], Daemon],
    specification: Specification,
    initial_configurations: Iterable[Configuration],
    horizon: int,
    rng: Optional[random.Random] = None,
    check_liveness: bool = False,
    runs_per_configuration: int = 1,
    engine: str = "auto",
    trace: str = "full",
    count_rounds: bool = True,
) -> WorstCaseStabilization:
    """Maximize the observed stabilization time over configurations and seeds.

    A fresh daemon is built for each run (so daemons with scheduling memory
    start clean), and each initial configuration is replayed
    ``runs_per_configuration`` times with different seeds — only useful for
    randomized daemons; deterministic daemons produce identical runs.
    ``trace`` is forwarded to every underlying run; sweeps that only need
    the indices should pass ``"light"``.
    """
    if runs_per_configuration < 1:
        raise SimulationError("runs_per_configuration must be >= 1")
    rng = rng or random.Random(0)
    measurements: List[StabilizationMeasurement] = []
    for initial in initial_configurations:
        for _ in range(runs_per_configuration):
            seed = rng.randrange(2**63)
            measurement = measure_stabilization(
                protocol=protocol,
                daemon=daemon_factory(),
                initial=initial,
                specification=specification,
                horizon=horizon,
                rng=random.Random(seed),
                check_liveness=check_liveness,
                engine=engine,
                trace=trace,
                count_rounds=count_rounds,
            )
            measurements.append(measurement)
    return WorstCaseStabilization(measurements)

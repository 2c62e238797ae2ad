"""Tests for :mod:`repro.adaptive` — detector, probe daemon, protocol.

Three contracts are pinned here:

* the :class:`RegimeDetector` is a pure function of its observation
  stream (Hypothesis: identical streams produce identical estimate
  streams, and ``reset()`` restores a fresh detector);
* the probe daemon is transparent: it forwards run-global step indices,
  feeds every selection to the detector and keeps the inner daemon's
  scheduling memory across segments;
* :class:`AdaptiveProtocol` stabilizes across rule-set switches and
  reports a deterministic, internally consistent run record.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adaptive import AdaptiveProtocol, RegimeDetector
from repro.adaptive.protocol import _ProbeDaemon
from repro.core import (
    DAEMON_FACTORIES,
    Daemon,
    RegimeSwitchingDaemon,
    SynchronousDaemon,
    make_daemon,
)
from repro.core.simulator import ENGINES
from repro.exceptions import DaemonError, SimulationError
from repro.graphs import ring_graph
from repro.mutex import SSME

# --------------------------------------------------------------------- #
# Detector
# --------------------------------------------------------------------- #

#: One observation: (selection_size, enabled_size) with size <= enabled.
observations = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12)).map(
        lambda pair: (min(pair), max(pair))
    ),
    min_size=0,
    max_size=40,
)


def _estimate_stream(detector: RegimeDetector, stream):
    estimates = []
    for selection_size, enabled_size in stream:
        detector.observe(
            selection_size, enabled_size, frozenset(range(selection_size))
        )
        estimates.append(detector.estimate())
    return estimates


@settings(max_examples=40, deadline=None)
@given(stream=observations)
def test_detector_is_a_pure_function_of_the_observation_stream(stream):
    first = _estimate_stream(RegimeDetector(12), stream)
    second = _estimate_stream(RegimeDetector(12), stream)
    assert first == second

    # reset() restores a fresh detector: replaying the stream reproduces
    # the exact estimate stream (this is what makes seeded adaptive runs
    # reproducible end to end).
    detector = RegimeDetector(12)
    _estimate_stream(detector, stream)
    detector.reset()
    assert detector.observations == 0
    assert _estimate_stream(detector, stream) == first


def test_detector_warmup_hysteresis_and_classification():
    detector = RegimeDetector(10, min_observations=8)
    for _ in range(7):
        detector.observe(10, 10)
        assert detector.classify() is None  # warmup
    detector.observe(10, 10)
    assert detector.classify() == RegimeDetector.DENSE
    assert detector.estimate().regime == RegimeDetector.DENSE

    # A long sparse phase pulls the EWMA through the hysteresis band
    # (None in between) down to a sparse classification.
    seen = []
    for _ in range(20):
        detector.observe(1, 5)
        seen.append(detector.classify())
    assert seen[-1] == RegimeDetector.SPARSE
    assert None in seen  # the band between the thresholds was crossed

    # Coverage tracks |selection| / |enabled| independently of density:
    # the last samples selected 1 of 5 enabled.
    assert 0.0 < detector.coverage < 1.0


def test_detector_overlap_identity_fast_path():
    detector = RegimeDetector(4)
    selection = frozenset({0, 1, 2, 3})
    detector.observe(4, 4, selection)
    detector.observe(4, 4, selection)  # same object: overlap sample 1.0
    assert detector.overlap == 1.0
    detector.observe(2, 4, frozenset({0, 1}))
    assert detector.overlap < 1.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": 0},
        {"smoothing": 0.0},
        {"smoothing": 1.5},
        {"window": 0},
        {"dense_threshold": 0.2, "sparse_threshold": 0.5},
        {"dense_threshold": 1.2},
        {"min_observations": 0},
    ],
)
def test_detector_rejects_bad_parameters(kwargs):
    with pytest.raises(SimulationError):
        RegimeDetector(**{"n": 8, **kwargs})


# --------------------------------------------------------------------- #
# The regime-switch workload daemon
# --------------------------------------------------------------------- #


def test_regime_switching_daemon_phases_and_selections():
    daemon = RegimeSwitchingDaemon(dense_steps=3, sparse_steps=5)
    assert [daemon.in_dense_phase(i) for i in range(8)] == (
        [True] * 3 + [False] * 5
    )
    assert daemon.in_dense_phase(8)  # next period

    protocol = SSME(ring_graph(6))
    daemon.bind(protocol)
    configuration = protocol.random_configuration(random.Random(0))
    enabled = protocol.enabled_vertices(configuration)
    rng = random.Random(1)
    assert daemon.select(enabled, configuration, 0, rng) == enabled
    sparse = daemon.select(enabled, configuration, 4, rng)
    assert len(sparse) == 1 and sparse <= enabled

    # Not synchronous: static selection must not route this daemon to the
    # array backend (reading its phases is the regime detector's job).
    assert not daemon.synchronous


def test_regime_switching_daemon_registry_and_validation():
    daemon = make_daemon("regime-switch")
    assert isinstance(daemon, RegimeSwitchingDaemon)
    assert (daemon.dense_steps, daemon.sparse_steps) == (64, 192)
    with pytest.raises(DaemonError):
        RegimeSwitchingDaemon(dense_steps=0)
    with pytest.raises(DaemonError):
        RegimeSwitchingDaemon(sparse_steps=0)


# --------------------------------------------------------------------- #
# The probe daemon
# --------------------------------------------------------------------- #


class _RecordingDaemon(Daemon):
    """Inner daemon recording what the probe forwards to it."""

    name = "recording"
    synchronous = True

    def __init__(self) -> None:
        super().__init__()
        self.step_indices = []
        self.bound = None
        self.cursor = 5

    def bind(self, protocol) -> None:
        super().bind(protocol)
        self.bound = protocol

    def reset(self) -> None:
        self.cursor = 0

    def select(self, enabled, configuration, step_index, rng):
        self.step_indices.append(step_index)
        return frozenset(sorted(enabled)[:2])


class _RecordingDetector:
    def __init__(self) -> None:
        self.observed = []

    def observe(self, selection_size, enabled_size, selection=None) -> None:
        self.observed.append((selection_size, enabled_size, selection))


def test_probe_daemon_forwards_global_indices_and_feeds_the_detector():
    protocol = SSME(ring_graph(6))
    inner = _RecordingDaemon()
    detector = _RecordingDetector()
    probe = _ProbeDaemon(inner, detector)
    assert probe.synchronous

    probe.bind(protocol)
    assert inner.bound is protocol

    configuration = protocol.random_configuration(random.Random(0))
    enabled = frozenset(protocol.graph.vertices)
    rng = random.Random(1)
    probe.offset = 40
    selections = [probe.select(enabled, configuration, i, rng) for i in range(3)]
    assert inner.step_indices == [40, 41, 42]
    assert detector.observed == [(2, 6, selection) for selection in selections]

    # Scheduling memory survives segment boundaries: reset stays local.
    probe.reset()
    assert inner.cursor == 5


@pytest.mark.parametrize("name", sorted(DAEMON_FACTORIES))
def test_probe_daemon_is_transparent_for_every_registered_daemon(name):
    """Through the probe, a registered daemon schedules exactly as it does
    alone at the shifted global indices, stateful daemons included."""
    protocol = SSME(ring_graph(8))
    direct = make_daemon(name)
    direct.bind(protocol)
    inner = make_daemon(name)
    detector = RegimeDetector(protocol.graph.n)
    probe = _ProbeDaemon(inner, detector)
    probe.bind(protocol)
    assert probe.synchronous == direct.synchronous

    configurations = [
        protocol.random_configuration(random.Random(seed)) for seed in range(12)
    ]
    direct_rng, probe_rng = random.Random(3), random.Random(3)
    probe.offset = 70
    for local_index, configuration in enumerate(configurations):
        enabled = protocol.enabled_vertices(configuration)
        expected = direct.select(enabled, configuration, 70 + local_index, direct_rng)
        assert probe.select(enabled, configuration, local_index, probe_rng) == expected
        assert probe.admits_selection(enabled, expected)
    assert detector.observations == len(configurations)


# --------------------------------------------------------------------- #
# Adaptive protocol
# --------------------------------------------------------------------- #


def test_adaptive_protocol_stabilizes_under_the_synchronous_daemon():
    adaptive = AdaptiveProtocol(ring_graph(6))
    initial = adaptive.speculative.random_configuration(random.Random(4))
    run = adaptive.run(initial, SynchronousDaemon(), max_steps=120, rng=random.Random(0))
    assert run.final_legitimate
    assert run.switches[0] == (0, "speculative")
    # Safety (first index safe forever) is never later than legitimacy.
    assert run.safety_index <= run.stabilization_index <= run.steps + 1

    # Deterministic given seeds: the whole run record reproduces.
    again = adaptive.run(initial, SynchronousDaemon(), max_steps=120, rng=random.Random(0))
    assert again == run


def test_adaptive_protocol_switches_rule_sets_and_still_stabilizes():
    adaptive = AdaptiveProtocol(ring_graph(6), dwell=8)
    initial = adaptive.speculative.random_configuration(random.Random(1))
    run = adaptive.run(
        initial,
        RegimeSwitchingDaemon(24, 48),
        max_steps=360,
        rng=random.Random(2),
    )
    assert run.final_legitimate
    modes = [switch.mode for switch in run.switches]
    assert modes[0] == "speculative"
    assert all(b != a for a, b in zip(modes, modes[1:]))
    assert len(modes) >= 2  # the sparse phases demote to conservative
    assert run.safety_index <= run.stabilization_index <= run.steps + 1
    assert run.moves > 0


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "daemon_factory",
    [SynchronousDaemon, lambda: RegimeSwitchingDaemon(24, 48)],
    ids=["sd", "regime-switch"],
)
def test_adaptive_protocol_run_is_the_same_on_every_engine(daemon_factory, engine):
    """Rule-set switching is decided on the run's own trace, so every
    backend yields the reference engine's run record."""
    adaptive = AdaptiveProtocol(ring_graph(8), dwell=8)
    initial = adaptive.speculative.random_configuration(random.Random(5))

    def run(engine_name):
        return adaptive.run(
            initial,
            daemon_factory(),
            max_steps=240,
            rng=random.Random(6),
            engine=engine_name,
        )

    assert run(engine) == run("reference")


def test_adaptive_protocol_default_rule_sets_share_a_state_space():
    adaptive = AdaptiveProtocol(ring_graph(5))
    assert adaptive.conservative.K == adaptive.speculative.K
    rng = random.Random(9)
    for _ in range(5):
        configuration = adaptive.speculative.random_configuration(rng)
        assert adaptive.compatible(configuration)


def test_adaptive_protocol_rejects_bad_parameters():
    with pytest.raises(SimulationError):
        AdaptiveProtocol(ring_graph(4), dwell=0)
    with pytest.raises(SimulationError):
        AdaptiveProtocol(ring_graph(4), initial_mode="turbo")
    with pytest.raises(SimulationError):
        AdaptiveProtocol(ring_graph(4)).run(
            None, SynchronousDaemon(), max_steps=-1
        )

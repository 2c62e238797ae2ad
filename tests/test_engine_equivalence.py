"""Property test: the incremental AND vector engines are observationally
equal to the reference engine.

For every protocol of the library, every daemon, random graph shapes and
seeds, the executions produced by the incremental engine (both trace
modes) and the vectorized array-state engine (both trace modes; protocols
without a kernel exercise its graceful fallback) must match the reference
engine's execution action for action: same configurations, same daemon
selections, same enabled sets, same truncation verdict, and the same
activation records per action (record *order* within one action follows
set iteration order and is compared order-insensitively).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import BfsSpanningTree, MaximalMatching
from repro.core import (
    AdversarialCentralDaemon,
    CentralDaemon,
    Daemon,
    DistributedDaemon,
    LocallyCentralDaemon,
    RoundRobinCentralDaemon,
    Simulator,
    StarvationDaemon,
    SynchronousDaemon,
    VectorEngine,
)
from repro.core.simulator import ENGINES
from repro.exceptions import SimulationError
from repro.graphs import random_connected_graph, ring_graph
from repro.mutex import SSME, DijkstraTokenRing
from repro.unison import AsynchronousUnison

PROTOCOL_FACTORIES = {
    "ssme": SSME,
    "unison": lambda graph: AsynchronousUnison(graph, validate_parameters=False),
    "bfs": BfsSpanningTree,
    "matching": MaximalMatching,
}


class AlternatingDaemon(Daemon):
    """Alternates synchronous (full) and single-vertex selections.

    Crossing the incremental engine's dense/sparse refresh threshold on
    every other action exercises the switch between the batch and dirty-set
    refresh paths within a single run.
    """

    name = "alt"

    def select(self, enabled, configuration, step_index, rng):
        if step_index % 2 == 0:
            return enabled
        return frozenset({self._ordered_enabled(enabled)[0]})


DAEMON_FACTORIES = {
    "sd": SynchronousDaemon,
    "cd": CentralDaemon,
    "cd-rr": RoundRobinCentralDaemon,
    "cd-adv": AdversarialCentralDaemon,
    "dd": lambda: DistributedDaemon(0.4),
    "lcd": LocallyCentralDaemon,
    "ud-starve": StarvationDaemon,
    "alt": AlternatingDaemon,
}

#: Daemons whose selections are dense enough to drive the engine into its
#: batch-refresh path on essentially every action.
DENSE_DAEMON_FACTORIES = {
    "sd": SynchronousDaemon,
    "dd-dense": lambda: DistributedDaemon(0.9),
    "alt": AlternatingDaemon,
}


def _record_key(record):
    return (repr(record.vertex), record.rule_name)


def _normalized_records(execution):
    """Per-action records as order-insensitive comparable lists."""
    normalized = []
    for index in range(execution.steps):
        records = sorted(execution.activation_records(index), key=_record_key)
        normalized.append(
            [(r.vertex, r.rule_name, r.old_state, r.new_state) for r in records]
        )
    return normalized


def naive_run(protocol, daemon, rng, initial, max_steps):
    """A hand-rolled naive simulation loop, independent of the simulator's
    shared-evaluation path: the oracle of oracles.

    Uses only the public ``enabled_vertices`` + two-argument ``apply``
    chain, mirroring the pre-engine semantics statement for statement.
    """
    daemon.bind(protocol)
    daemon.reset()
    configurations = [initial]
    selections = []
    enabled_sets = []
    current = initial
    for index in range(max_steps + 1):
        enabled = protocol.enabled_vertices(current)
        enabled_sets.append(enabled)
        if not enabled or index == max_steps:
            break
        selection = daemon.checked_select(enabled, current, index, rng)
        current, _ = protocol.apply(current, selection)
        selections.append(selection)
        configurations.append(current)
    return configurations, selections, enabled_sets


#: Engine/trace pairs every equivalence case compares against the first
#: (reference) entry.  The vector entries resolve to the incremental
#: engine under every non-synchronous daemon and for protocols without a
#: kernel (the graceful-fallback contract, pinned by
#: ``TestVectorBackendSelection``); :func:`distinct_simulators` then skips
#: them, since they would rerun an incremental mode already compared.
EQUIVALENCE_MODES = (
    ("reference", "full"),
    ("incremental", "full"),
    ("incremental", "light"),
    ("vector", "full"),
    ("vector", "light"),
)


def distinct_simulators(protocol, daemon_factory, seed, modes=EQUIVALENCE_MODES):
    """One simulator per ``(engine, trace)`` entry of ``modes`` whose
    resolved ``(simulator.engine, trace)`` pair no earlier entry has."""
    simulators = {}
    for engine, trace in modes:
        simulator = Simulator(
            protocol,
            daemon_factory(),
            rng=random.Random(seed + 1),
            engine=engine,
            trace=trace,
        )
        simulators.setdefault((simulator.engine, trace), simulator)
    return list(simulators.values())


def assert_equivalent_runs(protocol, daemon_name, seed, steps):
    """Run every distinct engine/trace mode and compare the executions
    against reference/full (plus a hand-rolled naive loop)."""
    initial = protocol.random_configuration(random.Random(seed))
    # The reference engine records full traces regardless of mode.
    executions = [
        simulator.run(initial, max_steps=steps)
        for simulator in distinct_simulators(
            protocol, DAEMON_FACTORIES[daemon_name], seed
        )
    ]
    reference = executions[0]
    for other in executions[1:]:
        assert other.steps == reference.steps
        assert other.truncated == reference.truncated
        assert list(other.configurations) == list(reference.configurations)
        assert [other.selection(i) for i in range(other.steps)] == [
            reference.selection(i) for i in range(reference.steps)
        ]
        assert [other.enabled_at(i) for i in range(other.steps)] == [
            reference.enabled_at(i) for i in range(reference.steps)
        ]
        assert _normalized_records(other) == _normalized_records(reference)

    # The simulator's reference mode shares the single-evaluation fast path
    # with the incremental engine; cross-check both against a naive loop
    # that uses none of the new machinery.
    naive_configs, naive_selections, naive_enabled = naive_run(
        protocol,
        DAEMON_FACTORIES[daemon_name](),
        random.Random(seed + 1),
        initial,
        steps,
    )
    assert list(reference.configurations) == naive_configs
    assert [reference.selection(i) for i in range(reference.steps)] == naive_selections
    assert [
        reference.enabled_at(i) for i in range(len(naive_enabled))
    ] == naive_enabled


@settings(max_examples=40, deadline=None)
@given(
    protocol_name=st.sampled_from(sorted(PROTOCOL_FACTORIES)),
    daemon_name=st.sampled_from(sorted(DAEMON_FACTORIES)),
    n=st.integers(2, 9),
    p=st.floats(0.0, 0.5),
    graph_seed=st.integers(0, 10_000),
    seed=st.integers(0, 10_000),
    steps=st.integers(0, 35),
)
def test_engines_agree_on_random_graphs(
    protocol_name, daemon_name, n, p, graph_seed, seed, steps
):
    graph = random_connected_graph(n, p, random.Random(graph_seed))
    protocol = PROTOCOL_FACTORIES[protocol_name](graph)
    assert_equivalent_runs(protocol, daemon_name, seed, steps)


@settings(max_examples=20, deadline=None)
@given(
    daemon_name=st.sampled_from(sorted(DAEMON_FACTORIES)),
    n=st.integers(3, 9),
    seed=st.integers(0, 10_000),
    steps=st.integers(0, 35),
)
def test_engines_agree_on_dijkstra_rings(daemon_name, n, seed, steps):
    protocol = DijkstraTokenRing(ring_graph(n))
    assert_equivalent_runs(protocol, daemon_name, seed, steps)


@settings(max_examples=20, deadline=None)
@given(
    protocol_name=st.sampled_from(sorted(PROTOCOL_FACTORIES)),
    daemon_name=st.sampled_from(sorted(DENSE_DAEMON_FACTORIES)),
    n=st.integers(16, 40),
    seed=st.integers(0, 10_000),
    steps=st.integers(1, 12),
)
def test_engines_agree_in_batch_refresh_regime(
    protocol_name, daemon_name, n, seed, steps
):
    """Reference ≡ incremental specifically where the batch refresh kicks in.

    ``n`` is large enough (and the selections dense enough) that
    ``len(changes) >= n // 4`` holds on essentially every action, so these
    runs exercise the persistent-view batch scan — including the mid-run
    switch between batch and sparse for the alternating daemon — in both
    trace modes.
    """
    graph = ring_graph(n)
    protocol = PROTOCOL_FACTORIES[protocol_name](graph)
    initial = protocol.random_configuration(random.Random(seed))
    executions = [
        simulator.run(initial, max_steps=steps)
        for simulator in distinct_simulators(
            protocol, DENSE_DAEMON_FACTORIES[daemon_name], seed
        )
    ]
    reference = executions[0]
    for other in executions[1:]:
        assert other.steps == reference.steps
        assert other.truncated == reference.truncated
        assert list(other.configurations) == list(reference.configurations)
        assert [other.enabled_at(i) for i in range(other.steps)] == [
            reference.enabled_at(i) for i in range(reference.steps)
        ]
        assert _normalized_records(other) == _normalized_records(reference)


@settings(max_examples=15, deadline=None)
@given(
    protocol_name=st.sampled_from(sorted(PROTOCOL_FACTORIES)),
    daemon_name=st.sampled_from(sorted(DAEMON_FACTORIES)),
    seed=st.integers(0, 10_000),
    threshold=st.integers(0, 6),
)
def test_engines_agree_with_stop_when(protocol_name, daemon_name, seed, threshold):
    """``stop_when`` must observe the same configurations in both engines."""
    graph = ring_graph(6)
    protocol = PROTOCOL_FACTORIES[protocol_name](graph)
    initial = protocol.random_configuration(random.Random(seed))

    def runner(simulator):
        seen = []

        def stop_when(configuration, index):
            seen.append(dict(configuration))
            return index >= threshold

        execution = simulator.run(initial, max_steps=30, stop_when=stop_when)
        return execution, seen

    simulators = distinct_simulators(
        protocol,
        DAEMON_FACTORIES[daemon_name],
        seed,
        modes=(("reference", "full"), ("incremental", "light"), ("vector", "light")),
    )
    reference, seen_reference = runner(simulators[0])
    for simulator in simulators[1:]:
        light, seen_light = runner(simulator)
        assert seen_light == seen_reference
        assert light.steps == reference.steps
        assert light.truncated == reference.truncated
        assert list(light.configurations) == list(reference.configurations)


@pytest.mark.parametrize("daemon_name", sorted(DAEMON_FACTORIES))
def test_engines_agree_until_terminal_on_silent_protocols(daemon_name):
    """Silent protocols must reach the same terminal configuration."""
    graph = random_connected_graph(7, 0.3, random.Random(3))
    for factory in (BfsSpanningTree, MaximalMatching):
        protocol = factory(graph)
        assert_equivalent_runs(protocol, daemon_name, seed=11, steps=400)


#: Protocols that actually declare an array kernel — the vector-specific
#: cases below must exercise the real vectorized backend, not its fallback.
VECTOR_PROTOCOL_FACTORIES = {
    "ssme": SSME,
    "unison": lambda graph: AsynchronousUnison(graph, validate_parameters=False),
    "dijkstra": DijkstraTokenRing,
}


@settings(max_examples=20, deadline=None)
@given(
    protocol_name=st.sampled_from(sorted(VECTOR_PROTOCOL_FACTORIES)),
    daemon_name=st.sampled_from(sorted(DENSE_DAEMON_FACTORIES)),
    n=st.integers(16, 40),
    seed=st.integers(0, 10_000),
    steps=st.integers(1, 12),
)
def test_vector_kernel_agrees_in_dense_regime(protocol_name, daemon_name, n, seed, steps):
    """Vector ≡ incremental ≡ reference under dense selections.

    Rings large enough that dense selections exercise the whole-array step
    (and, with the alternating daemon, the dict engine's per-run cached
    enabled set under membership churn), for every protocol that declares a
    kernel.  Synchronous runs are asserted to really use the vector
    backend; every other daemon resolves ``"vector"`` to the incremental
    engine.
    """
    protocol = VECTOR_PROTOCOL_FACTORIES[protocol_name](ring_graph(n))
    daemon = DENSE_DAEMON_FACTORIES[daemon_name]()
    simulator = Simulator(
        protocol, daemon, rng=random.Random(seed + 1), engine="vector"
    )
    assert simulator.engine == ("vector" if daemon.synchronous else "incremental")
    assert_equivalent_runs_dense(protocol, daemon_name, seed, steps)


def assert_equivalent_runs_dense(protocol, daemon_name, seed, steps):
    initial = protocol.random_configuration(random.Random(seed))
    executions = [
        simulator.run(initial, max_steps=steps)
        for simulator in distinct_simulators(
            protocol, DENSE_DAEMON_FACTORIES[daemon_name], seed
        )
    ]
    reference = executions[0]
    for other in executions[1:]:
        assert other.steps == reference.steps
        assert other.truncated == reference.truncated
        assert list(other.configurations) == list(reference.configurations)
        assert [other.enabled_at(i) for i in range(other.steps)] == [
            reference.enabled_at(i) for i in range(reference.steps)
        ]
        assert _normalized_records(other) == _normalized_records(reference)


class TestVectorBackendSelection:
    """Runs of a protocol that declares the array capability; the resolution
    table itself is ``tests/test_backend_resolution.py``."""

    def _protocol(self):
        return AsynchronousUnison(ring_graph(10), validate_parameters=False)

    def test_superstep_is_not_an_engine_name(self):
        assert ENGINES == ("auto", "incremental", "vector", "reference")
        protocol = self._protocol()
        with pytest.raises(SimulationError) as error:
            Simulator(protocol, SynchronousDaemon(), engine="vector-superstep")
        assert "known: auto, incremental, vector, reference" in str(error.value)

    @pytest.mark.parametrize("trace", ["full", "light"])
    def test_vector_runs_supersteps_exactly_under_synchronous_daemon(
        self, trace, monkeypatch
    ):
        """An explicit ``engine="vector"`` under the synchronous daemon is
        the superstep loop, and stays equal to the oracle."""
        calls = {"run_supersteps": 0}
        original = VectorEngine.run_supersteps

        def counted(self, *args, **kwargs):
            calls["run_supersteps"] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(VectorEngine, "run_supersteps", counted)
        protocol = self._protocol()
        initial = protocol.random_configuration(random.Random(3))
        reference = Simulator(
            protocol, SynchronousDaemon(), rng=random.Random(4), engine="reference"
        ).run(initial, max_steps=40)
        simulator = Simulator(
            protocol, SynchronousDaemon(), rng=random.Random(4), engine="vector", trace=trace
        )
        assert simulator.engine == "vector"
        execution = simulator.run(initial, max_steps=40)
        assert calls == {"run_supersteps": 1}
        assert simulator.last_run_backend == "vector"
        assert execution.steps == reference.steps
        assert execution.truncated == reference.truncated
        assert list(execution.configurations) == list(reference.configurations)
        assert [execution.enabled_at(i) for i in range(execution.steps)] == [
            reference.enabled_at(i) for i in range(reference.steps)
        ]
        assert _normalized_records(execution) == _normalized_records(reference)

    def test_vector_resolves_to_incremental_under_random_daemons(self):
        """``engine="vector"`` under a non-synchronous daemon runs the dict
        engine, and its run equals the reference engine's."""
        protocol = AsynchronousUnison(ring_graph(64), validate_parameters=False)
        initial = protocol.random_configuration(random.Random(3))
        reference = Simulator(
            protocol, DistributedDaemon(0.9), rng=random.Random(4), engine="reference"
        ).run(initial, max_steps=60)
        simulator = Simulator(
            protocol, DistributedDaemon(0.9), rng=random.Random(4), engine="vector"
        )
        assert simulator.engine == "incremental"
        execution = simulator.run(initial, max_steps=60)
        assert simulator.last_run_backend == "dict"
        assert execution.steps == reference.steps
        assert list(execution.configurations) == list(reference.configurations)
        assert [execution.selection(i) for i in range(execution.steps)] == [
            reference.selection(i) for i in range(reference.steps)
        ]
        assert _normalized_records(execution) == _normalized_records(reference)

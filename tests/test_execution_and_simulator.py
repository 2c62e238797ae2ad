"""Unit tests for Execution traces and the Simulator."""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np
import pytest

from repro.core import (
    CentralDaemon,
    Configuration,
    Execution,
    LazyEnabledSets,
    Protocol,
    Rule,
    Simulator,
    SynchronousDaemon,
    synchronous_execution,
)
from repro.exceptions import SimulationError
from repro.graphs import path_graph, ring_graph
from repro.unison import AsynchronousUnison


class TokenPassing(Protocol):
    """Toy protocol: a single 'token' bit travels towards vertex 0."""

    name = "token-passing"

    def __init__(self, graph):
        super().__init__(graph)
        self._rules = [
            Rule(
                "drop",
                lambda view: view.state == 1 and view.vertex != 0,
                lambda view: 0,
            )
        ]

    def rules(self) -> Sequence[Rule]:
        return self._rules

    def random_state(self, vertex, rng: random.Random) -> int:
        return rng.randrange(2)


@pytest.fixture
def unison_ring():
    return AsynchronousUnison(ring_graph(5))


class TestSimulatorStep:
    def test_step_terminal(self):
        protocol = TokenPassing(path_graph(3))
        simulator = Simulator(protocol, SynchronousDaemon())
        gamma = protocol.configuration({0: 0, 1: 0, 2: 0})
        result = simulator.step(gamma)
        assert result.terminal
        assert result.configuration == gamma
        assert result.selection == frozenset()

    def test_step_progress(self):
        protocol = TokenPassing(path_graph(3))
        simulator = Simulator(protocol, SynchronousDaemon())
        gamma = protocol.configuration({0: 1, 1: 1, 2: 1})
        result = simulator.step(gamma)
        assert not result.terminal
        assert result.configuration == {0: 1, 1: 0, 2: 0}
        assert result.enabled == frozenset({1, 2})


class TestSimulatorRun:
    def test_run_until_terminal(self):
        protocol = TokenPassing(path_graph(4))
        simulator = Simulator(protocol, SynchronousDaemon())
        gamma = protocol.configuration({0: 1, 1: 1, 2: 1, 3: 1})
        execution = simulator.run(gamma, max_steps=10)
        assert execution.is_terminal
        assert execution.steps == 1
        assert execution.final == {0: 1, 1: 0, 2: 0, 3: 0}

    def test_run_respects_max_steps(self, unison_ring):
        simulator = Simulator(unison_ring, SynchronousDaemon())
        execution = simulator.run(unison_ring.legitimate_configuration(0), max_steps=7)
        assert execution.steps == 7
        assert execution.truncated

    def test_run_zero_steps(self, unison_ring):
        simulator = Simulator(unison_ring, SynchronousDaemon())
        execution = simulator.run(unison_ring.legitimate_configuration(0), max_steps=0)
        assert execution.steps == 0
        assert execution.initial == execution.final

    def test_run_negative_steps(self, unison_ring):
        simulator = Simulator(unison_ring, SynchronousDaemon())
        with pytest.raises(SimulationError):
            simulator.run(unison_ring.legitimate_configuration(0), max_steps=-1)

    def test_stop_when_predicate(self, unison_ring):
        simulator = Simulator(unison_ring, SynchronousDaemon())
        execution = simulator.run(
            unison_ring.legitimate_configuration(0),
            max_steps=50,
            stop_when=lambda config, index: config[0] == 3,
        )
        assert execution.final[0] == 3
        assert execution.steps == 3

    def test_run_until_terminal_raises_when_budget_exhausted(self, unison_ring):
        simulator = Simulator(unison_ring, SynchronousDaemon())
        with pytest.raises(SimulationError):
            simulator.run_until_terminal(unison_ring.legitimate_configuration(0), max_steps=5)

    def test_run_until_terminal_on_silent_protocol(self):
        protocol = TokenPassing(path_graph(3))
        simulator = Simulator(protocol, CentralDaemon("first"), rng=random.Random(0))
        gamma = protocol.configuration({0: 0, 1: 1, 2: 1})
        execution = simulator.run_until_terminal(gamma, max_steps=10)
        assert execution.is_terminal
        assert execution.final == {0: 0, 1: 0, 2: 0}

    def test_run_until_terminal_threads_trace(self):
        """Regression: ``trace=`` used to be silently dropped."""
        protocol = TokenPassing(path_graph(4))
        gamma = protocol.configuration({0: 1, 1: 1, 2: 1, 3: 1})
        simulator = Simulator(protocol, SynchronousDaemon())
        light = simulator.run_until_terminal(gamma, max_steps=10)  # default light
        full = simulator.run_until_terminal(gamma, max_steps=10, trace="full")
        from repro.core import LazyConfigurationTrace

        assert isinstance(light._configurations, LazyConfigurationTrace)
        assert not isinstance(full._configurations, LazyConfigurationTrace)
        assert list(light.configurations) == list(full.configurations)
        assert light.final == full.final

    def test_run_until_terminal_threads_stop_when(self):
        """Regression: ``stop_when`` used to be silently dropped; a stop
        before a terminal configuration now truncates (and raises)."""
        protocol = TokenPassing(path_graph(4))
        gamma = protocol.configuration({0: 1, 1: 1, 2: 1, 3: 1})
        simulator = Simulator(protocol, CentralDaemon("first"), rng=random.Random(0))
        seen = []

        def observe(configuration, index):
            seen.append(index)
            return False

        execution = simulator.run_until_terminal(gamma, max_steps=10, stop_when=observe)
        assert execution.is_terminal
        assert seen == list(range(execution.steps + 1))
        with pytest.raises(SimulationError):
            simulator.run_until_terminal(
                gamma, max_steps=10, stop_when=lambda config, index: index >= 1
            )

    def test_synchronous_runs_are_deterministic(self, unison_ring):
        gamma = unison_ring.random_configuration(random.Random(5))
        e1 = synchronous_execution(unison_ring, gamma, 30)
        e2 = synchronous_execution(unison_ring, gamma, 30)
        assert list(e1.configurations) == list(e2.configurations)

    def test_seeded_central_runs_are_deterministic(self, unison_ring):
        gamma = unison_ring.random_configuration(random.Random(5))
        runs = []
        for _ in range(2):
            simulator = Simulator(unison_ring, CentralDaemon(), rng=random.Random(42))
            runs.append(simulator.run(gamma, max_steps=40))
        assert list(runs[0].configurations) == list(runs[1].configurations)


class TestExecutionAccessors:
    @pytest.fixture
    def execution(self, unison_ring):
        gamma = unison_ring.random_configuration(random.Random(2))
        return synchronous_execution(unison_ring, gamma, 12)

    def test_lengths(self, execution):
        assert len(execution.configurations) == execution.steps + 1
        assert len(execution) == execution.steps

    def test_configuration_and_selection_bounds(self, execution):
        with pytest.raises(SimulationError):
            execution.configuration(execution.steps + 5)
        with pytest.raises(SimulationError):
            execution.selection(execution.steps)

    def test_prefix(self, execution):
        prefix = execution.prefix(4)
        assert prefix.steps == 4
        assert prefix.initial == execution.initial
        assert prefix.configuration(4) == execution.configuration(4)

    def test_prefix_out_of_range(self, execution):
        with pytest.raises(SimulationError):
            execution.prefix(execution.steps + 1)

    def test_suffix(self, execution):
        suffix = execution.suffix(3)
        assert suffix.steps == execution.steps - 3
        assert suffix.initial == execution.configuration(3)

    def test_restriction_matches_configurations(self, execution):
        restriction = execution.restriction(0)
        assert len(restriction) == execution.steps + 1
        assert restriction[0] == execution.initial[0]
        assert restriction[-1] == execution.final[0]

    def test_activated_steps_and_moves(self, execution):
        total = sum(len(execution.activated_steps(v)) for v in execution.initial)
        assert total == execution.moves()

    def test_rule_counts(self, execution):
        counts = execution.rule_counts()
        assert sum(counts.values()) == execution.moves()
        assert set(counts) <= {"NA", "CA", "RA"}

    def test_enabled_at(self, execution):
        assert isinstance(execution.enabled_at(0), frozenset)

    def test_repr(self, execution):
        assert "Execution(steps=" in repr(execution)


class TestRounds:
    def test_rounds_of_synchronous_execution_equal_steps(self, unison_ring):
        # Under the synchronous daemon every enabled vertex is activated at
        # every action, so every action closes a round.
        gamma = unison_ring.legitimate_configuration(0)
        execution = synchronous_execution(unison_ring, gamma, 10)
        assert execution.count_rounds() == 10

    def test_rounds_of_empty_execution(self, unison_ring):
        execution = synchronous_execution(unison_ring, unison_ring.legitimate_configuration(0), 0)
        assert execution.count_rounds() == 0

    def test_rounds_under_central_daemon_are_fewer_than_steps(self, unison_ring):
        gamma = unison_ring.legitimate_configuration(0)
        simulator = Simulator(unison_ring, CentralDaemon(), rng=random.Random(1))
        execution = simulator.run(gamma, max_steps=30)
        assert execution.count_rounds() <= execution.steps


class TestExecutionValidation:
    def test_constructor_consistency_checks(self):
        gamma = Configuration({0: 1})
        with pytest.raises(SimulationError):
            Execution([], [], [], [], truncated=True)
        with pytest.raises(SimulationError):
            Execution([gamma], [frozenset({0})], [], [], truncated=True)


class TestLazyEnabledSets:
    """The position-array enabled-set log the superstep engine records."""

    @pytest.fixture
    def log(self):
        vertices = ("a", "b", "c", "d")
        both = np.array([0, 2], dtype=np.int64)
        last = np.array([3], dtype=np.int64)
        none = np.empty(0, dtype=np.int64)
        return LazyEnabledSets([both, both, last, both, none], vertices)

    def test_reads_build_sets_of_vertex_ids(self, log):
        assert len(log) == 5
        assert log.materialized_count == 0
        assert log[0] == frozenset({"a", "c"})
        assert log[2] == frozenset({"d"})
        assert log[-1] == frozenset()
        assert list(log) == [
            frozenset({"a", "c"}),
            frozenset({"a", "c"}),
            frozenset({"d"}),
            frozenset({"a", "c"}),
            frozenset(),
        ]
        with pytest.raises(IndexError):
            log[5]

    def test_shared_arrays_share_one_cached_set(self, log):
        first = log[0]
        assert log[0] is first
        assert log[1] is first
        assert log[3] is first
        assert log.materialized_count == 1

    def test_slices_share_arrays_and_cache(self, log):
        first = log[0]
        tail = log[1:]
        assert isinstance(tail, LazyEnabledSets)
        assert len(tail) == 4
        assert tail[0] is first
        assert tail[1] == frozenset({"d"})
        assert log[2] is tail[1]
        assert log.materialized_count == tail.materialized_count == 2

    def test_execution_keeps_the_log_lazy(self, log):
        configurations = [Configuration({"a": i, "b": 0, "c": 0, "d": 0}) for i in range(5)]
        lazy = Execution(
            configurations=configurations,
            selections=log[:4],
            activations=[()] * 4,
            enabled_sets=log,
            truncated=False,
        )
        eager = Execution(
            configurations=configurations,
            selections=list(log)[:4],
            activations=[()] * 4,
            enabled_sets=list(log),
            truncated=False,
        )
        assert isinstance(lazy._enabled_sets, LazyEnabledSets)
        assert isinstance(lazy._selections, LazyEnabledSets)
        assert lazy.steps == eager.steps == 4
        for i in range(5):
            assert lazy.enabled_at(i) == eager.enabled_at(i)
        with pytest.raises(SimulationError):
            lazy.enabled_at(5)
        with pytest.raises(SimulationError):
            lazy.selection(4)
        assert lazy.selection(1) is lazy.enabled_at(1)
        for cut in range(5):
            for view, reference in (
                (lazy.prefix(cut), eager.prefix(cut)),
                (lazy.suffix(cut), eager.suffix(cut)),
            ):
                assert isinstance(view._enabled_sets, LazyEnabledSets)
                assert [view.enabled_at(i) for i in range(view.steps + 1)] == [
                    reference.enabled_at(i) for i in range(reference.steps + 1)
                ]
                assert view.count_rounds() == reference.count_rounds()
        assert lazy.count_rounds() == eager.count_rounds()

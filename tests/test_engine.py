"""Unit tests for the incremental engine machinery: ConfigurationBuffer,
ConfigurationView, LazyConfigurationTrace, Simulator engine/trace flags and
the automatic reference fallback for protocols with custom semantics."""

from __future__ import annotations

import random
from typing import Sequence

import pytest

from repro.core import (
    CentralDaemon,
    Configuration,
    ConfigurationBuffer,
    ConfigurationView,
    Execution,
    LazyConfigurationTrace,
    Protocol,
    Rule,
    Simulator,
    SynchronousDaemon,
    protocol_supports_incremental,
)
from repro.exceptions import SimulationError
from repro.graphs import path_graph, ring_graph
from repro.unison import AsynchronousUnison


class TokenPassing(Protocol):
    """Toy protocol: a 'token' bit is dropped by every non-zero vertex."""

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


class CustomApplyProtocol(TokenPassing):
    """Overrides ``apply`` — must force the reference engine."""

    def apply(self, configuration, selected, prepared=None):
        return super().apply(configuration, selected, prepared=prepared)


class OldStyleApplyProtocol(TokenPassing):
    """Overrides ``apply`` with the pre-engine 2-argument signature."""

    def apply(self, configuration, selected):
        return Protocol.apply(self, configuration, selected)


class CustomEnablednessProtocol(TokenPassing):
    """Overrides ``is_enabled`` — ``enabled_vertices`` must honour it."""

    def is_enabled(self, configuration, vertex):
        return vertex == 1 and super().is_enabled(configuration, vertex)


class MaskedViewProtocol(TokenPassing):
    """Overrides ``local_view`` (masks every neighbour state to 0) — the
    whole enabledness chain must observe the masked view."""

    def local_view(self, configuration, vertex):
        from repro.core import LocalView

        return LocalView(
            vertex=vertex,
            state=configuration[vertex],
            neighbor_states={u: 0 for u in self.graph.neighbors(vertex)},
            graph=self.graph,
        )


class NeighborGatedRule(Rule):
    """Rule subclass overriding ``is_enabled`` with an extra side condition
    (only enabled if some neighbour also holds the token)."""

    def is_enabled(self, view):
        return super().is_enabled(view) and any(
            s == 1 for s in view.neighbor_states.values()
        )


class GatedTokenPassing(TokenPassing):
    def __init__(self, graph):
        super().__init__(graph)
        rule = self._rules[0]
        self._rules = [NeighborGatedRule(rule.name, rule.guard, rule.action)]


class OverlappingRulesProtocol(Protocol):
    """Two rules with overlapping guards plus a ``choose_rule`` override
    that arbitrates (last enabled rule instead of the stock first).  The
    incremental engine must honour the override and therefore take its
    full-evaluation path instead of the first-enabled-rule fast path."""

    name = "overlapping"

    def __init__(self, graph):
        super().__init__(graph)
        self._rules = [
            Rule("inc", lambda view: view.state < 3, lambda view: view.state + 1),
            Rule("reset", lambda view: 0 < view.state < 3, lambda view: 0),
        ]

    def rules(self) -> Sequence[Rule]:
        return self._rules

    def random_state(self, vertex, rng: random.Random) -> int:
        return rng.randrange(4)

    def choose_rule(self, enabled_rules, view):
        return enabled_rules[-1]


class TestConfigurationBuffer:
    def test_mapping_interface(self):
        buffer = ConfigurationBuffer({0: 1, 1: 2})
        assert buffer[0] == 1
        assert len(buffer) == 2
        assert set(buffer) == {0, 1}
        assert 1 in buffer

    def test_unknown_vertex_raises(self):
        buffer = ConfigurationBuffer({0: 1})
        with pytest.raises(SimulationError):
            buffer[7]

    def test_apply_changes_in_place(self):
        buffer = ConfigurationBuffer({0: 1, 1: 2})
        buffer.apply_changes({1: 9})
        assert buffer[1] == 9
        with pytest.raises(SimulationError):
            buffer.apply_changes({5: 0})

    def test_snapshot_is_immutable_copy(self):
        buffer = ConfigurationBuffer({0: 1})
        snapshot = buffer.snapshot()
        buffer.apply_changes({0: 5})
        assert isinstance(snapshot, Configuration)
        assert snapshot[0] == 1
        assert buffer.snapshot()[0] == 5


class TestConfigurationView:
    def test_view_is_live(self):
        buffer = ConfigurationBuffer({0: 1, 1: 2})
        view = buffer.view()
        assert view[0] == 1
        buffer.apply_changes({0: 7})
        assert view[0] == 7

    def test_view_equality_and_dict(self):
        buffer = ConfigurationBuffer({0: 1})
        view = buffer.view()
        assert view == Configuration({0: 1})
        assert view == {0: 1}
        assert view.as_dict() == {0: 1}

    def test_updated_returns_configuration(self):
        buffer = ConfigurationBuffer({0: 1, 1: 2})
        view = buffer.view()
        updated = view.updated({0: 9})
        assert isinstance(updated, Configuration)
        assert updated[0] == 9
        assert buffer[0] == 1  # the buffer itself is untouched
        with pytest.raises(SimulationError):
            view.updated({9: 0})

    def test_snapshot_pins_states(self):
        buffer = ConfigurationBuffer({0: 1})
        view = buffer.view()
        pinned = view.snapshot()
        buffer.apply_changes({0: 3})
        assert pinned[0] == 1


class TestLazyConfigurationTrace:
    def _trace(self):
        initial = Configuration({0: 0, 1: 0})
        deltas = [{0: 1}, {1: 1}, {0: 2, 1: 2}]
        return LazyConfigurationTrace(initial, deltas), initial

    def test_length_and_indexing(self):
        trace, initial = self._trace()
        assert len(trace) == 4
        assert trace[0] is initial
        assert trace[1] == {0: 1, 1: 0}
        assert trace[3] == {0: 2, 1: 2}
        assert trace[-1] == trace[3]

    def test_out_of_range(self):
        trace, _ = self._trace()
        with pytest.raises(IndexError):
            trace[4]
        with pytest.raises(IndexError):
            trace[-5]

    def test_slicing_and_iteration(self):
        trace, _ = self._trace()
        assert trace[1:3] == [trace[1], trace[2]]
        assert list(trace) == [trace[i] for i in range(4)]

    def test_materialization_is_cached(self):
        trace, _ = self._trace()
        first = trace[3]
        assert trace[3] is first

    def test_full_walk_retains_only_checkpoints(self):
        initial = Configuration({0: 0})
        deltas = [{0: i + 1} for i in range(100)]
        trace = LazyConfigurationTrace(initial, deltas)
        walked = list(trace)
        assert [c[0] for c in walked] == list(range(101))
        # A sequential walk must not pin every configuration: only the
        # initial one plus periodic checkpoints stay cached.
        assert len(trace._cache) <= 1 + 100 // LazyConfigurationTrace._CHECKPOINT_STRIDE
        # Random access after the walk still reconstructs correctly.
        assert trace[77][0] == 77


class TestTraceModes:
    def test_light_execution_matches_full(self):
        protocol = AsynchronousUnison(ring_graph(5))
        initial = protocol.random_configuration(random.Random(3))
        full = Simulator(protocol, SynchronousDaemon(), trace="full").run(initial, 12)
        light = Simulator(protocol, SynchronousDaemon(), trace="light").run(initial, 12)
        assert list(light.configurations) == list(full.configurations)
        assert light.final == full.final
        assert light.steps == full.steps

    def test_run_trace_override(self):
        protocol = AsynchronousUnison(ring_graph(4))
        simulator = Simulator(protocol, SynchronousDaemon(), trace="full")
        initial = protocol.legitimate_configuration(0)
        execution = simulator.run(initial, 5, trace="light")
        assert isinstance(execution, Execution)
        assert execution.steps == 5

    def test_from_activations_round_trip(self):
        protocol = AsynchronousUnison(ring_graph(4))
        initial = protocol.random_configuration(random.Random(1))
        full = Simulator(protocol, SynchronousDaemon()).run(initial, 8)
        rebuilt = Execution.from_activations(
            initial=full.initial,
            selections=[full.selection(i) for i in range(full.steps)],
            activations=[full.activation_records(i) for i in range(full.steps)],
            enabled_sets=[full.enabled_at(i) for i in range(full.steps + 1)],
            truncated=full.truncated,
        )
        assert list(rebuilt.configurations) == list(full.configurations)


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        protocol = TokenPassing(path_graph(3))
        for engine in ("warp", "adaptive"):
            with pytest.raises(SimulationError, match="unknown engine"):
                Simulator(protocol, SynchronousDaemon(), engine=engine)

    def test_unknown_trace_rejected(self):
        protocol = TokenPassing(path_graph(3))
        with pytest.raises(SimulationError):
            Simulator(protocol, SynchronousDaemon(), trace="verbose")

    def test_default_is_incremental(self):
        protocol = TokenPassing(path_graph(3))
        simulator = Simulator(protocol, SynchronousDaemon())
        assert simulator.engine == "incremental"
        assert simulator.trace == "full"

    def test_custom_apply_falls_back_to_reference(self):
        protocol = CustomApplyProtocol(path_graph(3))
        assert not protocol_supports_incremental(protocol)
        simulator = Simulator(protocol, SynchronousDaemon())
        assert simulator.engine == "reference"
        gamma = protocol.configuration({0: 1, 1: 1, 2: 1})
        execution = simulator.run(gamma, max_steps=5)
        assert execution.final == {0: 1, 1: 0, 2: 0}

    def test_old_style_apply_override_still_runs(self):
        protocol = OldStyleApplyProtocol(path_graph(3))
        simulator = Simulator(protocol, SynchronousDaemon())
        assert simulator.engine == "reference"
        gamma = protocol.configuration({0: 1, 1: 1, 2: 1})
        result = simulator.step(gamma)
        assert result.configuration == {0: 1, 1: 0, 2: 0}
        execution = simulator.run(gamma, max_steps=5)
        assert execution.final == {0: 1, 1: 0, 2: 0}

    def test_custom_enabledness_override_is_honoured(self):
        protocol = CustomEnablednessProtocol(path_graph(3))
        gamma = protocol.configuration({0: 1, 1: 1, 2: 1})
        assert protocol.enabled_vertices(gamma) == frozenset({1})
        simulator = Simulator(protocol, SynchronousDaemon())
        assert simulator.engine == "reference"
        execution = simulator.run(gamma, max_steps=5)
        assert execution.final == {0: 1, 1: 0, 2: 1}

    def test_local_view_override_observed_by_enabledness_chain(self):
        protocol = MaskedViewProtocol(path_graph(3))
        assert not protocol_supports_incremental(protocol)
        gamma = protocol.configuration({0: 1, 1: 1, 2: 1})
        # The masked view zeroes neighbours but the vertex's own state is
        # untouched, so the drop rule still fires for non-zero vertices —
        # and crucially, enabled_rules sees the view the subclass built.
        view, enabled = protocol.evaluate(gamma, 1)
        assert all(s == 0 for s in view.neighbor_states.values())
        assert enabled

    def test_rule_subclass_is_enabled_honoured_by_incremental_engine(self):
        protocol = GatedTokenPassing(path_graph(3))
        assert protocol_supports_incremental(protocol)
        # Vertex 2 holds the token but its only neighbour (1) does not, so
        # the subclass gate disables it — the raw guard alone would fire.
        gamma = protocol.configuration({0: 0, 1: 0, 2: 1})
        for engine in ("reference", "incremental"):
            execution = Simulator(protocol, SynchronousDaemon(), engine=engine).run(
                gamma, max_steps=5
            )
            assert execution.enabled_at(0) == frozenset()
            assert execution.is_terminal
            assert execution.final == gamma

    def test_choose_rule_override_honoured_by_incremental_engine(self):
        """An overridden ``choose_rule`` (overlapping guards) is called by
        both engines and the executions stay identical."""
        graph = ring_graph(6)
        protocol = OverlappingRulesProtocol(graph)
        assert protocol_supports_incremental(protocol)
        initial = protocol.random_configuration(random.Random(3))
        runs = {}
        for engine in ("incremental", "reference"):
            simulator = Simulator(
                protocol, SynchronousDaemon(), rng=random.Random(1), engine=engine
            )
            execution = simulator.run(initial, max_steps=12)
            runs[engine] = execution
        incremental, reference = runs["incremental"], runs["reference"]
        assert list(incremental.configurations) == list(reference.configurations)
        # Where both guards held, the override's pick (the *last* enabled
        # rule, "reset") must have fired.
        fired = {
            record.rule_name
            for i in range(incremental.steps)
            for record in incremental.activation_records(i)
            if 0 < record.old_state < 3
        }
        assert fired == {"reset"}

    def test_reference_engine_supports_light_trace(self):
        protocol = AsynchronousUnison(ring_graph(5))
        initial = protocol.random_configuration(random.Random(3))
        full = Simulator(protocol, SynchronousDaemon(), engine="reference").run(initial, 10)
        light = Simulator(
            protocol, SynchronousDaemon(), engine="reference", trace="light"
        ).run(initial, 10)
        assert list(light.configurations) == list(full.configurations)

    def test_mismatched_initial_configuration_rejected(self):
        protocol = TokenPassing(path_graph(3))
        simulator = Simulator(protocol, SynchronousDaemon())
        with pytest.raises(SimulationError):
            simulator.run(Configuration({0: 1}), max_steps=3)

    def test_reference_engine_still_available(self):
        protocol = AsynchronousUnison(ring_graph(4))
        initial = protocol.random_configuration(random.Random(0))
        reference = Simulator(
            protocol, CentralDaemon(), rng=random.Random(5), engine="reference"
        ).run(initial, 20)
        incremental = Simulator(
            protocol, CentralDaemon(), rng=random.Random(5), engine="incremental"
        ).run(initial, 20)
        assert list(reference.configurations) == list(incremental.configurations)

"""Unit tests for daemons (Definition 1) and their partial order (Definition 2)."""

from __future__ import annotations

import random

import pytest

from repro.core import (
    AdversarialCentralDaemon,
    CentralDaemon,
    Daemon,
    DistributedDaemon,
    LocallyCentralDaemon,
    RoundRobinCentralDaemon,
    Rule,
    Simulator,
    StarvationDaemon,
    SynchronousDaemon,
    is_weaker_than,
    make_daemon,
)
from repro.exceptions import DaemonError
from repro.graphs import make_topology, ring_graph
from repro.mutex import SSME, DijkstraTokenRing
from repro.unison import AsynchronousUnison


@pytest.fixture
def protocol():
    return AsynchronousUnison(ring_graph(5))


@pytest.fixture
def configuration(protocol):
    return protocol.random_configuration(random.Random(0))


def _select(daemon, protocol, configuration, seed=0):
    daemon.bind(protocol)
    enabled = protocol.enabled_vertices(configuration)
    return enabled, daemon.checked_select(enabled, configuration, 0, random.Random(seed))


class TestSynchronousDaemon:
    def test_selects_all_enabled(self, protocol, configuration):
        enabled, selection = _select(SynchronousDaemon(), protocol, configuration)
        assert selection == enabled

    def test_admits_only_full_selection(self):
        daemon = SynchronousDaemon()
        enabled = frozenset({0, 1, 2})
        assert daemon.admits_selection(enabled, enabled)
        assert not daemon.admits_selection(enabled, frozenset({0}))


class TestCentralDaemon:
    def test_selects_exactly_one(self, protocol, configuration):
        enabled, selection = _select(CentralDaemon(), protocol, configuration)
        assert len(selection) == 1
        assert selection <= enabled

    def test_first_and_last_strategies(self, protocol, configuration):
        enabled, first = _select(CentralDaemon("first"), protocol, configuration)
        _, last = _select(CentralDaemon("last"), protocol, configuration)
        assert next(iter(first)) == min(enabled)
        assert next(iter(last)) == max(enabled)

    def test_unknown_strategy(self):
        with pytest.raises(DaemonError):
            CentralDaemon("weird")

    def test_admits_only_singletons(self):
        daemon = CentralDaemon()
        enabled = frozenset({0, 1})
        assert daemon.admits_selection(enabled, frozenset({0}))
        assert not daemon.admits_selection(enabled, enabled)


class TestRoundRobin:
    def test_cycles_through_vertices(self, protocol):
        daemon = RoundRobinCentralDaemon()
        daemon.bind(protocol)
        gamma = protocol.legitimate_configuration(0)
        selected = []
        rng = random.Random(0)
        current = gamma
        for step in range(protocol.graph.n):
            enabled = protocol.enabled_vertices(current)
            selection = daemon.checked_select(enabled, current, step, rng)
            selected.append(next(iter(selection)))
            current, _ = protocol.apply(current, selection)
        # Every vertex of the ring is served once in the first n selections.
        assert sorted(selected) == sorted(protocol.graph.vertices)


class TestDistributedDaemon:
    def test_nonempty_subset(self, protocol, configuration):
        enabled, selection = _select(DistributedDaemon(0.4), protocol, configuration)
        assert selection
        assert selection <= enabled

    def test_probability_validation(self):
        with pytest.raises(DaemonError):
            DistributedDaemon(0.0)
        with pytest.raises(DaemonError):
            DistributedDaemon(1.5)

    def test_admits_any_nonempty_subset(self):
        daemon = DistributedDaemon()
        enabled = frozenset({0, 1, 2})
        assert daemon.admits_selection(enabled, frozenset({1, 2}))
        assert not daemon.admits_selection(enabled, frozenset())


class TestLocallyCentralDaemon:
    def test_never_selects_neighbors(self, protocol, configuration):
        daemon = LocallyCentralDaemon()
        daemon.bind(protocol)
        enabled = protocol.enabled_vertices(configuration)
        for seed in range(10):
            selection = daemon.checked_select(enabled, configuration, 0, random.Random(seed))
            for u in selection:
                for v in selection:
                    if u != v:
                        assert not protocol.graph.has_edge(u, v)

    def test_requires_bound_protocol(self, configuration):
        daemon = LocallyCentralDaemon()
        with pytest.raises(DaemonError):
            daemon.select(frozenset({0}), configuration, 0, random.Random(0))


class TestAdversarialDaemons:
    def test_adversarial_central_selects_one_enabled(self, protocol, configuration):
        enabled, selection = _select(AdversarialCentralDaemon(), protocol, configuration)
        assert len(selection) == 1
        assert selection <= enabled

    def test_starvation_daemon_avoids_target(self, protocol, configuration):
        daemon = StarvationDaemon(target=0)
        daemon.bind(protocol)
        enabled = protocol.enabled_vertices(configuration)
        selection = daemon.checked_select(enabled, configuration, 0, random.Random(0))
        if enabled != frozenset({0}):
            assert 0 not in selection

    def test_starvation_daemon_activates_target_when_alone(self, protocol):
        daemon = StarvationDaemon(target=0)
        daemon.bind(protocol)
        gamma = protocol.random_configuration(random.Random(1))
        selection = daemon.select(frozenset({0}), gamma, 0, random.Random(0))
        assert selection == frozenset({0})


def _lookahead_scores(protocol, enabled, configuration):
    """``enabled_after`` of every candidate by the un-memoised lookahead:
    fire it alone on a copy of the configuration, count the successor's
    enabled vertices through ``is_enabled``."""
    graph = protocol.graph
    scores = {}
    for vertex in enabled:
        next_config, _ = protocol.apply(configuration, [vertex])
        closed = set(graph.neighbors(vertex)) | {vertex}
        scores[vertex] = len(enabled - closed) + sum(
            1 for w in closed if protocol.is_enabled(next_config, w)
        )
    return scores


class _LookaheadOracle(Daemon):
    """The adversarial central daemon with no memo: the oracle the
    memoised :class:`AdversarialCentralDaemon` must match step for step."""

    name = "cd-adv-oracle"

    def __init__(self):
        super().__init__()
        self._last_activated = {}

    def reset(self):
        self._last_activated = {}

    def select(self, enabled, configuration, step_index, rng):
        scores = _lookahead_scores(self.protocol, enabled, configuration)
        best = min(
            enabled,
            key=lambda v: (-scores[v], self._last_activated.get(v, -1), repr(v)),
        )
        self._last_activated[best] = step_index
        return frozenset({best})


class _EvenClockSSME(SSME):
    """SSME whose vertex 0 moves only from an even clock value: a local
    ``is_enabled`` override, which takes the protocol off the stock
    transitions."""

    def is_enabled(self, configuration, vertex):
        return super().is_enabled(configuration, vertex) and (
            vertex != 0 or configuration[vertex] % 2 == 0
        )


class _EvenClockRule(Rule):
    """A rule whose ``is_enabled`` adds the same gate at the rule level:
    the protocol keeps its stock transitions, so the incremental engine
    runs it, but the raw guard alone would fire vertex 0 on odd clocks."""

    __slots__ = ()

    def is_enabled(self, view):
        return super().is_enabled(view) and (view.vertex != 0 or view.state % 2 == 0)


class _EvenClockRuleSSME(SSME):
    def __init__(self, graph):
        super().__init__(graph)
        self._rules = [_EvenClockRule(rule.name, rule.guard, rule.action) for rule in self._rules]


_LOOKAHEAD_CASES = {
    "ssme-ring12": lambda: SSME(make_topology("ring", 12)),
    "ssme-grid9": lambda: SSME(make_topology("grid", 9)),
    "ssme-star6": lambda: SSME(make_topology("star", 6)),
    "dijkstra-ring12": lambda: DijkstraTokenRing(ring_graph(12)),
    "unison-path6": lambda: AsynchronousUnison(make_topology("path", 6)),
    "even-clock-ssme-ring12": lambda: _EvenClockSSME(ring_graph(12)),
    "even-clock-rule-ssme-ring12": lambda: _EvenClockRuleSSME(ring_graph(12)),
}


def _run_selections(simulator, initial):
    execution = simulator.run(initial, max_steps=150)
    return [execution.selection(i) for i in range(execution.steps)]


def _selections(protocol, daemon, initial, engine="reference", trace="full"):
    simulator = Simulator(protocol, daemon, rng=random.Random(0), engine=engine, trace=trace)
    return _run_selections(simulator, initial)


class TestAdversarialLookaheadMemo:
    """The memoised lookahead selects exactly what the un-memoised one
    selects, at every step, whatever the engine, trace mode or history."""

    @pytest.mark.parametrize("trace", ["full", "light"])
    @pytest.mark.parametrize("engine", ["reference", "incremental"])
    @pytest.mark.parametrize("case", sorted(_LOOKAHEAD_CASES))
    def test_every_selection_matches_the_oracle(self, case, engine, trace):
        protocol = _LOOKAHEAD_CASES[case]()
        initial = protocol.random_configuration(random.Random(1))
        expected = _selections(protocol, _LookaheadOracle(), initial)
        actual = _selections(protocol, AdversarialCentralDaemon(), initial, engine, trace)
        assert len(expected) > 20
        assert actual == expected

    @pytest.mark.parametrize("case", ["even-clock-ssme-ring12", "even-clock-rule-ssme-ring12"])
    def test_is_enabled_override_changes_the_schedule(self, case):
        """The ``is_enabled`` override, on the protocol or on its rules, is
        honoured: ignoring it (plain SSME) schedules differently from the
        same configuration."""
        overridden = _LOOKAHEAD_CASES[case]()
        plain = SSME(ring_graph(12))
        initial = overridden.random_configuration(random.Random(1))
        assert _selections(overridden, AdversarialCentralDaemon(), initial) != _selections(
            plain, AdversarialCentralDaemon(), initial
        )

    def test_rule_override_keeps_the_incremental_engine(self):
        """The rule-level override leaves the protocol's transitions stock,
        so its misses are scored on local views, not through ``apply``."""
        protocol = _LOOKAHEAD_CASES["even-clock-rule-ssme-ring12"]()
        assert protocol.has_stock_transitions()

    @pytest.mark.parametrize("trace", ["full", "light"])
    def test_one_daemon_reused_across_runs_and_protocols(self, trace):
        daemon = AdversarialCentralDaemon()
        protocol = SSME(ring_graph(12))
        simulator = Simulator(
            protocol, daemon, rng=random.Random(0), engine="incremental", trace=trace
        )
        for seed in (4, 5):
            initial = protocol.random_configuration(random.Random(seed))
            expected = _selections(protocol, _LookaheadOracle(), initial)
            assert _run_selections(simulator, initial) == expected
        # Rebinding to another protocol on another graph starts afresh.
        other = SSME(make_topology("grid", 9))
        initial = other.random_configuration(random.Random(6))
        assert _selections(other, daemon, initial, "incremental", trace) == _selections(
            other, _LookaheadOracle(), initial
        )

    def test_a_far_state_change_is_rescored(self):
        """A state written between two calls (a fault, not a firing) is
        seen: the second call matches a fresh oracle, including where the
        scores of the first call would pick another vertex."""
        protocol = SSME(ring_graph(12))
        graph = protocol.graph
        first = protocol.random_configuration(random.Random(7))
        enabled = protocol.enabled_vertices(first)
        rng = random.Random(0)
        stale_scores = _lookahead_scores(protocol, enabled, first)
        changed_winner = 0
        for far in graph.vertices:
            for state in protocol.vertex_state_space(far)[::7]:
                daemon, oracle = AdversarialCentralDaemon(), _LookaheadOracle()
                daemon.bind(protocol)
                oracle.bind(protocol)
                chosen = daemon.select(enabled, first, 0, rng)
                assert chosen == oracle.select(enabled, first, 0, rng)
                (fired,) = chosen
                if far in graph.ball(fired, 1) or state == first[far]:
                    continue
                second = first.updated({far: state})
                second_enabled = protocol.enabled_vertices(second)
                expected = oracle.select(second_enabled, second, 1, rng)
                assert daemon.select(second_enabled, second, 1, rng) == expected
                # The first call's scores on the second enabled set; only
                # ``fired`` has been activated, so it loses recency ties.
                stale = min(
                    second_enabled & set(stale_scores),
                    key=lambda v: (-stale_scores[v], v == fired, repr(v)),
                    default=None,
                )
                changed_winner += stale is not None and frozenset({stale}) != expected
        assert changed_winner > 0


class TestCheckedSelect:
    def test_empty_enabled_rejected(self, protocol, configuration):
        daemon = SynchronousDaemon()
        with pytest.raises(DaemonError):
            daemon.checked_select(frozenset(), configuration, 0, random.Random(0))

    def test_illegal_daemon_is_caught(self, protocol, configuration):
        class BadDaemon(SynchronousDaemon):
            def select(self, enabled, configuration, step_index, rng):
                return frozenset({"not-a-vertex"})

        daemon = BadDaemon()
        with pytest.raises(DaemonError):
            daemon.checked_select(frozenset({0}), configuration, 0, random.Random(0))


class TestPartialOrder:
    def test_synchronous_weaker_than_distributed(self):
        ground = [frozenset({0, 1}), frozenset({0, 1, 2})]
        assert is_weaker_than(SynchronousDaemon(), DistributedDaemon(), ground)
        assert not is_weaker_than(DistributedDaemon(), SynchronousDaemon(), ground)

    def test_central_weaker_than_distributed(self):
        ground = [frozenset({0, 1, 2})]
        assert is_weaker_than(CentralDaemon(), DistributedDaemon(), ground)

    def test_synchronous_and_central_incomparable(self):
        ground = [frozenset({0, 1, 2})]
        assert not is_weaker_than(SynchronousDaemon(), CentralDaemon(), ground)
        assert not is_weaker_than(CentralDaemon(), SynchronousDaemon(), ground)


class TestFactory:
    def test_make_daemon(self):
        assert isinstance(make_daemon("sd"), SynchronousDaemon)
        assert isinstance(make_daemon("dd", activation_probability=0.7), DistributedDaemon)

    def test_make_daemon_unknown(self):
        with pytest.raises(DaemonError):
            make_daemon("quantum")

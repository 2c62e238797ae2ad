"""Tests for the exact model checker (:mod:`repro.verify`).

Covers the finite-state capability, the mixed-radix packing, the
daemon-class expansion, the game solver's fixpoints, and the headline
certifications: the exact synchronous worst case of SSME on rings equals
the Theorem 2 bound and dominates the sampled measurement on the same
instances, the certified legitimate attractor of the unison equals Γ₁,
and deliberately broken protocol variants fail verification with a
safety-violating lasso counterexample.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core import (
    CentralDaemon,
    Simulator,
    SynchronousDaemon,
    worst_case_stabilization,
)
from repro.core.protocol import Protocol
from repro.core.rules import Rule
from repro.core.specification import Specification
from repro.exceptions import VerificationError
from repro.graphs import path_graph, ring_graph
from repro.lowerbound import farthest_vertex_pairs, spliced_violation_configurations
from repro.mutex import SSME, DijkstraTokenRing, MutualExclusionSpec
from repro.mutex.variants import ParametricClockMutex
from repro.unison import AsynchronousUnison, AsynchronousUnisonSpec
from repro.verify import (
    StateSpace,
    TransitionSystem,
    daemon_class_selections,
    exact_speculation_gap,
    exact_worst_case_stabilization,
    solve,
    verify_stabilization,
)


class CountdownProtocol(Protocol):
    """Test helper: every positive counter decrements; all-zero is terminal.

    Closed-form game values make the solver checkable: under the
    synchronous class the worst case from a configuration is its maximum
    counter, under the central class it is the counter sum.
    """

    name = "countdown"
    actions_preserve_validity = True

    TOP = 3

    def __init__(self, graph):
        super().__init__(graph)
        self._rules = [
            Rule("down", lambda view: view.state > 0, lambda view: view.state - 1)
        ]

    def rules(self):
        return self._rules

    def random_state(self, vertex, rng):
        return rng.randrange(self.TOP + 1)

    def vertex_state_space(self, vertex):
        return range(self.TOP + 1)


class AllZeroSpec(Specification):
    """Safety: every counter is zero (so the attractor is the terminal)."""

    name = "all-zero"

    def is_safe(self, configuration, protocol):
        return all(configuration[v] == 0 for v in protocol.graph.vertices)

    def check_liveness(self, execution, protocol, start=0):
        return True


class NeverSafeSpec(Specification):
    """Safety that never holds — everything must diverge."""

    name = "never"

    def is_safe(self, configuration, protocol):
        return False

    def check_liveness(self, execution, protocol, start=0):
        return True


class TestVertexStateSpaceCapability:
    def test_default_is_none(self):
        protocol = SSME(ring_graph(4))
        assert Protocol.vertex_state_space(protocol, 0) is None

    def test_unison_domain_is_the_clock(self):
        protocol = AsynchronousUnison(ring_graph(4), alpha=2, K=5)
        domain = list(protocol.vertex_state_space(0))
        assert domain == list(range(-2, 5))
        assert domain == list(protocol.clock.state_space())

    def test_ssme_inherits_the_clock_domain(self):
        protocol = SSME(ring_graph(4))
        domain = list(protocol.vertex_state_space(0))
        assert domain[0] == -protocol.alpha
        assert domain[-1] == protocol.K - 1
        assert len(domain) == protocol.alpha + protocol.K

    def test_dijkstra_domain_is_the_counter_range(self):
        protocol = DijkstraTokenRing.on_ring(5)
        assert list(protocol.vertex_state_space(0)) == list(range(protocol.K))

    def test_protocols_without_the_capability_are_rejected(self):
        # Every library protocol now declares the hook (the Section 3
        # baselines included), so the rejection path needs one that
        # explicitly opts back out.
        from repro.baselines import BfsSpanningTree

        class UndeclaredBfs(BfsSpanningTree):
            def vertex_state_space(self, vertex):
                return None

        with pytest.raises(VerificationError, match="vertex_state_space"):
            StateSpace(UndeclaredBfs(path_graph(3)))


class TestStateSpace:
    def test_size_is_the_domain_product(self):
        protocol = DijkstraTokenRing.on_ring(4)  # K = 5
        assert StateSpace(protocol).size == 5**4

    def test_encode_decode_roundtrip(self, rng):
        protocol = SSME(ring_graph(5))
        space = StateSpace(protocol)
        for _ in range(25):
            configuration = protocol.random_configuration(rng)
            key = space.encode(configuration)
            assert 0 <= key < space.size
            assert space.decode(key) == configuration

    def test_keys_enumerate_the_whole_space_bijectively(self):
        protocol = DijkstraTokenRing.on_ring(3)  # 4^3 = 64
        space = StateSpace(protocol)
        configurations = list(space.configurations())
        assert len(configurations) == 64
        assert len({space.encode(c) for c in configurations}) == 64

    def test_enumeration_cap(self):
        protocol = SSME(ring_graph(8))
        space = StateSpace(protocol, max_enumerated=1000)
        assert space.size > 10**15
        with pytest.raises(VerificationError, match="cap"):
            list(space.keys())

    def test_decode_rejects_foreign_keys(self):
        space = StateSpace(DijkstraTokenRing.on_ring(3))
        with pytest.raises(VerificationError):
            space.decode(space.size)
        with pytest.raises(VerificationError):
            space.decode(-1)

    def test_encode_rejects_out_of_domain_states(self):
        protocol = DijkstraTokenRing.on_ring(3)
        space = StateSpace(protocol)
        with pytest.raises(VerificationError, match="outside"):
            space.encode({0: 99, 1: 0, 2: 0})
        with pytest.raises(VerificationError, match="no state"):
            space.encode({0: 0, 1: 0})

    # A batch under 8 takes the per-configuration path, 12 the array codec.
    @pytest.mark.parametrize("batch", [5, 12])
    def test_encode_many_matches_encode(self, rng, batch):
        protocol = SSME(ring_graph(4))
        space = StateSpace(protocol)
        configurations = [protocol.random_configuration(rng) for _ in range(batch)]
        assert space.encode_many(configurations) == [
            space.encode(c) for c in configurations
        ]


class TestDaemonClassExpansion:
    def test_selection_sets(self):
        enabled = frozenset({0, 1, 2})
        assert daemon_class_selections("synchronous", enabled) == [enabled]
        central = daemon_class_selections("central", enabled)
        assert central == [frozenset({0}), frozenset({1}), frozenset({2})]
        distributed = daemon_class_selections("distributed", enabled)
        assert len(distributed) == 7
        assert set(central) <= set(distributed)
        assert enabled in distributed

    def test_distributed_cap(self):
        enabled = frozenset(range(10))
        with pytest.raises(VerificationError, match="cap"):
            daemon_class_selections("distributed", enabled, max_selections=100)

    def test_unknown_class(self):
        with pytest.raises(VerificationError, match="unknown daemon class"):
            daemon_class_selections("chaotic", frozenset({0}))
        protocol = DijkstraTokenRing.on_ring(3)
        with pytest.raises(VerificationError, match="unknown daemon class"):
            TransitionSystem(protocol, MutualExclusionSpec(protocol), "chaotic")

    def test_synchronous_successor_matches_the_simulator(self, rng):
        protocol = SSME(ring_graph(5))
        configuration = protocol.random_configuration(rng)
        system = TransitionSystem(
            protocol, MutualExclusionSpec(protocol), "synchronous"
        )
        pairs = system.successor_configurations(configuration)
        assert len(pairs) == 1
        step = Simulator(protocol, SynchronousDaemon(), engine="reference").step(
            configuration
        )
        assert pairs[0][0] == step.enabled
        assert pairs[0][1] == step.configuration

    def test_central_successors_cover_every_enabled_vertex(self, rng):
        protocol = DijkstraTokenRing.on_ring(4)
        configuration = protocol.random_configuration(rng)
        system = TransitionSystem(protocol, MutualExclusionSpec(protocol), "central")
        pairs = system.successor_configurations(configuration)
        enabled = protocol.enabled_vertices(configuration)
        assert {selection for selection, _ in pairs} == {
            frozenset({v}) for v in enabled
        }
        for selection, successor in pairs:
            expected, _ = protocol.apply(configuration, selection)
            assert successor == expected

    def test_terminal_configurations_self_loop(self):
        protocol = CountdownProtocol(path_graph(3))
        terminal = protocol.configuration({v: 0 for v in protocol.graph.vertices})
        system = TransitionSystem(protocol, AllZeroSpec(), "central")
        assert system.successor_configurations(terminal) == [(None, terminal)]
        explored = system.explore([terminal])
        key = explored.initial_keys[0]
        assert explored.successors[key] == (key,)
        assert key in explored.terminal_keys

    def test_region_exploration_is_closed(self, rng):
        protocol = DijkstraTokenRing.on_ring(4)
        system = TransitionSystem(protocol, MutualExclusionSpec(protocol), "central")
        explored = system.explore(
            [protocol.random_configuration(rng) for _ in range(3)]
        )
        assert not explored.exhaustive
        for key in explored.keys:
            for successor in explored.successors[key]:
                assert successor in explored.successors

    def test_exploration_cap(self, rng):
        protocol = DijkstraTokenRing.on_ring(5)
        system = TransitionSystem(
            protocol, MutualExclusionSpec(protocol), "central", max_states=10
        )
        with pytest.raises(VerificationError, match="cap"):
            system.explore([protocol.random_configuration(rng)])

    def test_empty_region_is_rejected(self):
        protocol = DijkstraTokenRing.on_ring(3)
        system = TransitionSystem(protocol, MutualExclusionSpec(protocol))
        with pytest.raises(VerificationError, match="empty"):
            system.explore([])


class TestSolver:
    def test_countdown_values_have_the_closed_form(self, rng):
        protocol = CountdownProtocol(path_graph(3))
        specification = AllZeroSpec()
        for daemon_class, value_of in (
            ("synchronous", lambda c: max(c.values())),
            ("central", lambda c: sum(c.values())),
        ):
            result = verify_stabilization(protocol, specification, daemon_class)
            assert result.exhaustive and result.stabilizes
            assert result.legitimate_count == 1  # the all-zero terminal
            for _ in range(20):
                configuration = protocol.random_configuration(rng)
                assert result.value_of(configuration) == value_of(configuration)
            assert result.exact_worst_case == value_of(
                {v: protocol.TOP for v in protocol.graph.vertices}
            )

    def test_unsafe_terminal_diverges(self):
        protocol = CountdownProtocol(path_graph(2))
        result = verify_stabilization(protocol, NeverSafeSpec(), "synchronous")
        assert not result.stabilizes
        assert result.legitimate_count == 0
        assert result.diverging_count == result.state_count
        lasso = result.counterexample
        assert lasso is not None and lasso.violates_safety
        assert len(lasso.cycle) == 1  # the terminal self-loop

    def test_legitimate_set_is_safe_and_closed(self, rng):
        protocol = DijkstraTokenRing.on_ring(4)
        specification = MutualExclusionSpec(protocol)
        system = TransitionSystem(protocol, specification, "distributed").explore_full()
        solution = solve(system)
        assert solution.legitimate
        for key in solution.legitimate:
            assert system.safe[key]
            for successor in system.successors[key]:
                assert successor in solution.legitimate
        # Values satisfy the Bellman equation of the max-player.
        for key in system.keys:
            value = solution.values.get(key)
            if value is None or value == 0:
                continue
            assert value == 1 + max(
                solution.values[s] for s in system.successors[key]
            )

    def test_exhaustive_dijkstra_dominates_sampling(self, rng):
        protocol = DijkstraTokenRing.on_ring(4)
        specification = MutualExclusionSpec(protocol)
        result = verify_stabilization(protocol, specification, "central")
        assert result.exhaustive and result.stabilizes
        initials = [protocol.random_configuration(rng) for _ in range(5)]
        sampled = worst_case_stabilization(
            protocol=protocol,
            daemon_factory=CentralDaemon,
            specification=specification,
            initial_configurations=initials,
            horizon=4 * protocol.graph.n * protocol.K,
            rng=rng,
            runs_per_configuration=3,
        ).max_steps
        assert sampled is not None
        assert result.exact_worst_case >= sampled

    def test_certified_unison_closure_equals_gamma1(self):
        protocol = AsynchronousUnison(ring_graph(4), alpha=2, K=5)
        result = verify_stabilization(
            protocol, AsynchronousUnisonSpec(protocol), "distributed"
        )
        assert result.exhaustive and result.stabilizes
        space = StateSpace(protocol)
        gamma1 = [c for c in space.configurations() if protocol.is_legitimate(c)]
        assert result.legitimate_count == len(gamma1)
        assert all(result.is_certified_legitimate(c) for c in gamma1)

    def test_shorthand_returns_the_value(self):
        protocol = CountdownProtocol(path_graph(2))
        assert (
            exact_worst_case_stabilization(protocol, AllZeroSpec(), "central")
            == 2 * CountdownProtocol.TOP
        )


def _workload(protocol, seed=0, random_count=6):
    from repro.experiments import mutex_workload

    return mutex_workload(protocol, random.Random(seed), random_count=random_count)


class TestSSMEAcceptance:
    """The headline certifications of the issue, on ring(n) for n in {4, 6, 8}."""

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_exact_synchronous_worst_case_is_the_theorem2_bound(self, n):
        protocol = SSME(ring_graph(n))
        specification = MutualExclusionSpec(protocol)
        workload = _workload(protocol)
        result = verify_stabilization(protocol, specification, "synchronous", workload)
        bound = math.ceil(protocol.diam / 2)
        assert result.stabilizes
        assert result.exact_worst_case == bound
        sampled = worst_case_stabilization(
            protocol=protocol,
            daemon_factory=SynchronousDaemon,
            specification=specification,
            initial_configurations=workload,
            horizon=protocol.K + 4 * protocol.alpha + 16,
            trace="light",
        ).max_steps
        assert sampled is not None
        assert result.exact_worst_case >= sampled

    def test_exact_speculation_gap_on_the_same_instance(self):
        protocol = SSME(ring_graph(4))
        specification = MutualExclusionSpec(protocol)
        workload = _workload(protocol)
        certificate = exact_speculation_gap(
            protocol, specification, "central", "synchronous", workload
        )
        assert certificate.weak.exact_worst_case == 1  # == ceil(diam/2)
        assert certificate.strong.exact_worst_case > certificate.weak.exact_worst_case
        assert certificate.gap_factor > 1.0
        assert certificate.speculation_pays


class TestBrokenVariantsDiverge:
    def _check_lasso_is_a_real_execution(self, protocol, daemon_class, lasso):
        """Replay the lasso transition by transition through the protocol."""
        walk = list(lasso.stem) + list(lasso.cycle) + [lasso.cycle[0]]
        selections = list(lasso.stem_selections) + list(lasso.cycle_selections)
        assert len(selections) == len(walk) - 1
        for configuration, selection, successor in zip(walk, selections, walk[1:]):
            enabled = protocol.enabled_vertices(configuration)
            if not enabled:
                assert selection == frozenset() and successor == configuration
                continue
            assert selection and selection <= enabled
            assert selection in daemon_class_selections(daemon_class, enabled)
            applied, _ = protocol.apply(configuration, selection)
            assert applied == successor

    def test_underparameterized_dijkstra_yields_a_lasso(self):
        protocol = DijkstraTokenRing.on_ring(4, K=2)
        specification = MutualExclusionSpec(protocol)
        result = verify_stabilization(protocol, specification, "central")
        assert not result.stabilizes
        assert result.exact_worst_case is None
        lasso = result.counterexample
        assert lasso is not None
        assert lasso.violates_safety
        assert any(
            not specification.is_safe(c, protocol) for c in lasso.cycle
        )
        self._check_lasso_is_a_real_execution(protocol, "central", lasso)
        # The healthy parameterization of the same ring stabilizes.
        healthy = DijkstraTokenRing.on_ring(4)
        assert verify_stabilization(
            healthy, MutualExclusionSpec(healthy), "central"
        ).stabilizes

    def test_broken_privilege_spacing_yields_a_lasso(self):
        protocol = ParametricClockMutex(path_graph(2), spacing=1)
        specification = MutualExclusionSpec(protocol)
        result = verify_stabilization(protocol, specification, "distributed")
        assert not result.stabilizes
        assert result.legitimate_count == 0
        lasso = result.counterexample
        assert lasso is not None and lasso.violates_safety
        self._check_lasso_is_a_real_execution(protocol, "distributed", lasso)
        # The broken spacing puts double privileges inside Γ₁, so legitimacy
        # no longer certifies safety: Γ₁ is disjoint from the attractor here.
        space = StateSpace(protocol)
        gamma1 = [c for c in space.configurations() if protocol.is_legitimate(c)]
        assert gamma1
        assert not any(result.is_certified_legitimate(c) for c in gamma1)


class TestAdversarialWorkloadHelpers:
    def test_farthest_pairs_are_sorted_by_distance(self):
        protocol = SSME(path_graph(6))
        pairs = farthest_vertex_pairs(protocol, 3)
        distances = [protocol.graph.distance(u, v) for u, v in pairs]
        assert distances == sorted(distances, reverse=True)
        assert distances[0] == protocol.diam

    def test_spliced_delays_produce_distinct_violations(self):
        protocol = SSME(ring_graph(10))  # diam 5 -> latest delay 2, midpoint 1
        configurations = spliced_violation_configurations(protocol)
        assert len(configurations) == 2
        specification = MutualExclusionSpec(protocol)
        result = verify_stabilization(
            protocol, specification, "synchronous", configurations
        )
        assert result.exact_worst_case == math.ceil(protocol.diam / 2)

    def test_extra_pairs_extend_the_workload(self, rng):
        from repro.lowerbound import adversarial_mutex_configurations

        protocol = SSME(ring_graph(8))
        base = adversarial_mutex_configurations(protocol, random.Random(1), random_count=2)
        extended = adversarial_mutex_configurations(
            protocol, random.Random(1), random_count=2, extra_pairs=2
        )
        assert len(extended) == len(base) + 2
        specification = MutualExclusionSpec(protocol)
        # Each planted pair is an immediate double privilege: unsafe now.
        for configuration in extended[3:-1]:
            assert not specification.is_safe(configuration, protocol)


class TestExactSmallNDriver:
    def test_reduced_driver_passes(self):
        from repro.experiments import exact_small_n

        report = exact_small_n.run_experiment(
            ssme_sizes=(4,),
            gap_sizes=(4,),
            dijkstra_sizes=(4,),
            random_configurations_per_graph=3,
        )
        assert report.experiment_id == "E8"
        assert report.passed
        kinds = {row["kind"] for row in report.rows}
        assert {
            "ssme-sd-exact",
            "ssme-exact-gap",
            "dijkstra-exhaustive",
            "unison-closure",
            "broken-dijkstra",
            "broken-spacing-mutex",
        } <= kinds
        for row in report.rows:
            assert row["certified"], row["kind"]

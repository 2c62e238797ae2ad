"""Unit tests for spec_ME and critical-section accounting."""

from __future__ import annotations

import random

import pytest

from repro.core import SynchronousDaemon, Simulator, synchronous_execution
from repro.exceptions import SpecificationError
from repro.graphs import make_topology, ring_graph
from repro.mutex import (
    SSME,
    DijkstraTokenRing,
    MutualExclusionSpec,
    critical_section_counts,
    critical_section_events,
)
from repro.unison import AsynchronousUnison


class TestConstruction:
    def test_requires_privilege_aware_protocol(self):
        unison = AsynchronousUnison(ring_graph(4))
        with pytest.raises(SpecificationError):
            MutualExclusionSpec(unison)

    def test_accepts_ssme_and_dijkstra(self):
        MutualExclusionSpec(SSME(ring_graph(4)))
        MutualExclusionSpec(DijkstraTokenRing.on_ring(4))


class TestSafety:
    def test_safe_with_zero_or_one_privileged(self):
        protocol = SSME(ring_graph(5))
        spec = MutualExclusionSpec(protocol)
        assert spec.is_safe(protocol.default_configuration(), protocol)
        one = protocol.legitimate_configuration(protocol.privileged_value(1))
        assert spec.is_safe(one, protocol)
        assert spec.privileged_count(one) == 1

    def test_unsafe_with_two_privileged(self):
        protocol = SSME(ring_graph(6))
        spec = MutualExclusionSpec(protocol)
        assignment = {v: 1 for v in protocol.graph.vertices}
        assignment[0] = protocol.privileged_value(0)
        assignment[3] = protocol.privileged_value(3)
        gamma = protocol.configuration(assignment)
        assert not spec.is_safe(gamma, protocol)
        assert spec.privileged_count(gamma) == 2


class TestCriticalSections:
    def test_events_require_privilege_aware_protocol(self):
        unison = AsynchronousUnison(ring_graph(4))
        execution = synchronous_execution(unison, unison.legitimate_configuration(0), 3)
        with pytest.raises(SpecificationError):
            critical_section_events(execution, unison)

    def test_events_on_legitimate_ssme_execution(self):
        protocol = SSME(ring_graph(4))
        execution = synchronous_execution(
            protocol, protocol.legitimate_configuration(0), protocol.K + protocol.diam + 2
        )
        events = critical_section_events(execution, protocol)
        # Every vertex executes its critical section at least once per clock
        # period, and never simultaneously with another vertex.
        vertices_seen = {vertex for _, vertex in events}
        assert vertices_seen == set(protocol.graph.vertices)
        by_step = {}
        for step, vertex in events:
            by_step.setdefault(step, []).append(vertex)
        assert all(len(vs) == 1 for vs in by_step.values())

    def test_counts_require_privilege_aware_protocol(self):
        unison = AsynchronousUnison(ring_graph(4))
        execution = synchronous_execution(unison, unison.legitimate_configuration(0), 3)
        with pytest.raises(SpecificationError):
            critical_section_counts(execution, unison)

    def test_no_critical_section_from_default_configuration(self):
        protocol = SSME(ring_graph(4))
        execution = synchronous_execution(protocol, protocol.default_configuration(), 2)
        assert critical_section_counts(execution, protocol) == {v: 0 for v in range(4)}

    def test_counts(self):
        protocol = SSME(ring_graph(4))
        horizon = 2 * protocol.K + 10
        execution = synchronous_execution(protocol, protocol.legitimate_configuration(0), horizon)
        counts = critical_section_counts(execution, protocol)
        assert set(counts) == set(protocol.graph.vertices)
        assert all(count >= 1 for count in counts.values())
        # Restricting to a late start reduces the counts.
        late = critical_section_counts(execution, protocol, start=horizon - 1)
        assert sum(late.values()) <= sum(counts.values())

    def test_dijkstra_critical_sections_rotate(self):
        protocol = DijkstraTokenRing.on_ring(5)
        execution = synchronous_execution(
            protocol, protocol.legitimate_configuration(0), 6 * protocol.graph.n
        )
        counts = critical_section_counts(execution, protocol)
        assert all(count >= 1 for count in counts.values())


def _service_gaps(execution, protocol):
    """Steps between consecutive critical sections of the same vertex."""
    steps = {}
    for step, vertex in critical_section_events(execution, protocol):
        steps.setdefault(vertex, []).append(step)
    return steps, [b - a for s in steps.values() for a, b in zip(s, s[1:])]


class TestServiceGaps:
    @pytest.mark.parametrize("name", ["ring", "path", "star", "complete", "grid", "random"])
    def test_synchronous_ssme_serves_each_vertex_once_per_period(self, name):
        # Under the synchronous daemon every clock ticks each step, so a
        # vertex is privileged exactly once every K steps.
        protocol = SSME(make_topology(name, 6))
        execution = synchronous_execution(
            protocol, protocol.legitimate_configuration(0), 2 * protocol.K + 10
        )
        steps, gaps = _service_gaps(execution, protocol)
        assert set(steps) == set(protocol.graph.vertices)
        assert gaps and all(gap == protocol.K for gap in gaps)

    def test_synchronous_dijkstra_is_round_robin(self):
        protocol = DijkstraTokenRing.on_ring(6)
        execution = synchronous_execution(
            protocol, protocol.legitimate_configuration(0), 4 * protocol.graph.n
        )
        steps, gaps = _service_gaps(execution, protocol)
        assert set(steps) == set(protocol.graph.vertices)
        assert gaps and all(gap == protocol.graph.n for gap in gaps)


class TestLiveness:
    def test_liveness_fails_on_short_window(self):
        protocol = SSME(ring_graph(5))
        spec = MutualExclusionSpec(protocol)
        execution = synchronous_execution(protocol, protocol.legitimate_configuration(0), 3)
        assert not spec.check_liveness(execution, protocol, 0)

    def test_liveness_holds_on_full_period(self):
        protocol = SSME(ring_graph(5))
        spec = MutualExclusionSpec(protocol)
        execution = synchronous_execution(
            protocol, protocol.legitimate_configuration(0), protocol.K + protocol.diam + 2
        )
        assert spec.check_liveness(execution, protocol, 0)

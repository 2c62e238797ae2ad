"""End-to-end integration tests crossing every layer of the library.

Each scenario exercises the full stack — graph generation, protocol
construction, daemon scheduling, execution, specification checking,
measurement, and reporting — the way a downstream user would.
"""

from __future__ import annotations

import random

import pytest

from repro import (
    SSME,
    DijkstraTokenRing,
    DistributedDaemon,
    MutualExclusionSpec,
    Simulator,
    StarvationDaemon,
    SynchronousDaemon,
)
from repro.analysis import format_table
from repro.core import measure_stabilization, observed_stabilization_index
from repro.experiments import mutex_workload
from repro.graphs import diameter, make_topology, random_connected_graph
from repro.lowerbound import construct_double_privilege_witness
from repro.mutex import critical_section_counts
from repro.unison import AsynchronousUnisonSpec


class TestFullPipelineOnRandomTopology:
    def test_fault_injection_recovery_and_service(self):
        rng = random.Random(2024)
        graph = random_connected_graph(14, 0.15, random.Random(7))
        protocol = SSME(graph)
        spec = MutualExclusionSpec(protocol)

        # 1. Start from a legitimate configuration and inject a fault burst.
        gamma = protocol.legitimate_configuration(5)
        corrupted = gamma.updated(
            {v: protocol.random_state(v, rng) for v in list(graph.vertices)[: graph.n // 2]}
        )

        # 2. Recover under the synchronous daemon within the Theorem 2 bound.
        horizon = protocol.K + 4 * protocol.alpha
        execution = Simulator(protocol, SynchronousDaemon()).run(corrupted, max_steps=horizon)
        steps = observed_stabilization_index(execution, spec, protocol)
        assert steps is not None
        assert steps <= protocol.synchronous_stabilization_bound()

        # 3. After stabilization the service is live: no vertex starves.
        counts = critical_section_counts(execution, protocol, start=steps)
        assert all(count > 0 for count in counts.values())

        # 4. The same corrupted configuration also recovers under an
        #    asynchronous, unfair-style daemon (Theorem 1).
        async_execution = Simulator(
            protocol, StarvationDaemon(), rng=random.Random(1)
        ).run(
            corrupted,
            max_steps=40 * graph.n * (protocol.alpha + protocol.diam),
            stop_when=lambda config, index: protocol.is_legitimate(config),
        )
        assert protocol.is_legitimate(async_execution.final)

    def test_lower_bound_and_upper_bound_meet(self):
        """The measured worst case, the Theorem 2 bound and the Theorem 4
        witnesses agree on every sampled topology."""
        rng = random.Random(5)
        for topology in ("ring", "path", "grid", "binary_tree"):
            graph = make_topology(topology, 9)
            protocol = SSME(graph)
            spec = MutualExclusionSpec(protocol)
            bound = protocol.synchronous_stabilization_bound()

            worst = 0
            for gamma in mutex_workload(protocol, rng, random_count=3):
                measurement = measure_stabilization(
                    protocol, SynchronousDaemon(), gamma, spec,
                    horizon=protocol.K + 4 * protocol.alpha,
                )
                assert measurement.stabilized
                worst = max(worst, measurement.stabilization_steps)
            assert worst == bound

            if bound >= 1:
                witness = construct_double_privilege_witness(protocol, bound - 1)
                assert witness.success


class TestCrossProtocolComparison:
    def test_ssme_beats_dijkstra_on_synchronous_rings(self):
        rng = random.Random(11)
        rows = []
        for n in (8, 16):
            graph = make_topology("ring", n)
            ssme = SSME(graph)
            ssme_spec = MutualExclusionSpec(ssme)
            ssme_worst = max(
                measure_stabilization(
                    ssme, SynchronousDaemon(), gamma, ssme_spec,
                    horizon=ssme.K + 4 * ssme.alpha,
                ).stabilization_steps
                for gamma in mutex_workload(ssme, rng, random_count=3)
            )
            dijkstra = DijkstraTokenRing(graph)
            dijkstra_spec = MutualExclusionSpec(dijkstra)
            dijkstra_worst = max(
                measure_stabilization(
                    dijkstra, SynchronousDaemon(), dijkstra.random_configuration(rng),
                    dijkstra_spec, horizon=8 * n,
                ).stabilization_steps
                for _ in range(4)
            )
            rows.append({"n": n, "ssme": ssme_worst, "dijkstra": dijkstra_worst})
            assert ssme_worst <= dijkstra_worst
        # The report renders (sanity check of the analysis layer).
        assert "ssme" in format_table(rows)

    def test_unison_convergence_feeds_mutex_convergence(self):
        """spec_ME stabilization never happens after spec_AU stabilization
        on the same trace — the structure behind Theorems 1 and 3."""
        graph = make_topology("grid", 9)
        protocol = SSME(graph)
        mutex_spec = MutualExclusionSpec(protocol)
        unison_spec = AsynchronousUnisonSpec(protocol)
        rng = random.Random(3)
        for _ in range(3):
            gamma = protocol.random_configuration(rng)
            execution = Simulator(
                protocol, DistributedDaemon(0.5), rng=random.Random(rng.randrange(2**32))
            ).run(
                gamma,
                max_steps=60 * graph.n * graph.n,
                stop_when=lambda config, index: protocol.is_legitimate(config),
            )
            assert protocol.is_legitimate(execution.final)
            mutex_steps = observed_stabilization_index(execution, mutex_spec, protocol)
            unison_steps = observed_stabilization_index(execution, unison_spec, protocol)
            assert mutex_steps is not None and unison_steps is not None
            assert mutex_steps <= unison_steps

"""Tests for the opt-in process-parallel theorem sweeps.

The contract under test: ``workers=`` must never change any reported
number — the task lists carry pre-drawn seeds, so sequential and parallel
execution aggregate identical results.
"""

from __future__ import annotations

from repro.experiments import theorem2_sync_upper, theorem3_async_upper


class TestTheoremDriversParallel:
    """workers= is observationally inert for the experiment drivers."""

    SWEEP2 = (("ring", 6), ("star", 5))
    SWEEP3 = (("ring", 5),)

    def test_theorem2_workers_do_not_change_results(self):
        sequential = theorem2_sync_upper.run_experiment(
            sweep=self.SWEEP2, random_configurations_per_graph=3, seed=17
        )
        parallel = theorem2_sync_upper.run_experiment(
            sweep=self.SWEEP2, random_configurations_per_graph=3, seed=17, workers=3
        )
        assert parallel.rows == sequential.rows
        assert parallel.summary == sequential.summary
        assert parallel.passed == sequential.passed

    def test_theorem3_workers_do_not_change_results(self):
        sequential = theorem3_async_upper.run_experiment(
            sweep=self.SWEEP3, random_configurations_per_graph=2, seed=17
        )
        parallel = theorem3_async_upper.run_experiment(
            sweep=self.SWEEP3, random_configurations_per_graph=2, seed=17, workers=2
        )
        assert parallel.rows == sequential.rows
        assert parallel.summary == sequential.summary
        assert parallel.passed == sequential.passed

    def test_theorem3_custom_daemon_factories_run_sequentially(self):
        """Custom factories hold closures; workers= must degrade, not crash."""
        from repro.core import CentralDaemon

        factories = (("cd", CentralDaemon), ("cd-again", lambda: CentralDaemon("first")))
        report = theorem3_async_upper.run_experiment(
            sweep=self.SWEEP3,
            daemon_factories=factories,
            random_configurations_per_graph=1,
            seed=3,
            workers=4,
        )
        row = report.rows[0]
        assert "unison_steps[cd-again]" in row

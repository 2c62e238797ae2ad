"""Tests of the top-level public API and package metadata."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro


class TestTopLevelExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"{name} listed in __all__ but missing"

    def test_key_types_are_exported(self):
        assert repro.SSME.__name__ == "SSME"
        assert repro.DijkstraTokenRing.name == "dijkstra-token-ring"
        assert issubclass(repro.SynchronousDaemon, repro.Daemon)
        assert issubclass(repro.MutualExclusionSpec, repro.Specification)

    def test_exceptions_share_a_root(self):
        from repro.exceptions import (
            ClockError,
            ConstructionError,
            DaemonError,
            ExperimentError,
            GraphError,
            ProtocolError,
            ReproError,
            SimulationError,
            SpecificationError,
        )

        for exc in (
            ClockError,
            ConstructionError,
            DaemonError,
            ExperimentError,
            GraphError,
            ProtocolError,
            SimulationError,
            SpecificationError,
        ):
            assert issubclass(exc, ReproError)


SUBPACKAGES = sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
)


class TestSubpackages:
    @pytest.mark.parametrize("module", SUBPACKAGES)
    def test_subpackage_all_resolves(self, module):
        mod = importlib.import_module(module)
        assert mod.__doc__, f"{module} must have a module docstring"
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name} listed in __all__ but missing"


class TestQuickstartSnippet:
    def test_readme_quickstart_runs(self):
        """The README quickstart must keep working verbatim."""
        import random

        from repro import SSME, MutualExclusionSpec, SynchronousDaemon, Simulator
        from repro.core import observed_stabilization_index
        from repro.graphs import grid_graph

        protocol = SSME(grid_graph(4, 5))
        spec = MutualExclusionSpec(protocol)
        corrupted = protocol.random_configuration(random.Random(0))
        execution = Simulator(protocol, SynchronousDaemon()).run(
            corrupted, max_steps=protocol.K + 4 * protocol.alpha
        )
        steps = observed_stabilization_index(execution, spec, protocol)
        assert steps is not None
        assert steps <= protocol.synchronous_stabilization_bound()

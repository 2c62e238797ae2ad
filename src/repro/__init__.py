"""repro — Speculative Self-Stabilization.

A production-quality reproduction of

    Swan Dubois and Rachid Guerraoui,
    "Introducing Speculation in Self-Stabilization:
     An Application to Mutual Exclusion", PODC 2013.

The library provides:

* a discrete-event simulator for self-stabilizing protocols in Dijkstra's
  shared-memory (state) model, with explicit daemons/adversaries
  (:mod:`repro.core`);
* the communication-graph substrate and the structural parameters the paper
  relies on (:mod:`repro.graphs`);
* bounded clocks ``cherry(alpha, K)`` (:mod:`repro.clocks`) and the
  Boulinier–Petit–Villain asynchronous unison built on them
  (:mod:`repro.unison`);
* the paper's contribution, the SSME mutual-exclusion protocol, together
  with Dijkstra's token-ring baseline (:mod:`repro.mutex`);
* the accidentally speculative baselines of Section 3
  (:mod:`repro.baselines`);
* the executable Theorem 4 lower-bound construction
  (:mod:`repro.lowerbound`);
* an exact explicit-state model checker certifying worst-case stabilization,
  legitimacy closure and the speculation gap on small instances
  (:mod:`repro.verify`);
* measurement, speculation analysis and the experiment harness reproducing
  every quantitative claim of the paper (:mod:`repro.analysis`,
  :mod:`repro.experiments`);
* fault campaigns: recurring fault schedules, topology churn and the named
  scenario registry behind the E9 experiment (:mod:`repro.scenarios`).

Quickstart
----------
>>> from repro import SSME, MutualExclusionSpec, SynchronousDaemon, Simulator
>>> from repro.graphs import ring_graph
>>> protocol = SSME(ring_graph(6))
>>> simulator = Simulator(protocol, SynchronousDaemon())
>>> execution = simulator.run(protocol.default_configuration(), max_steps=20)
>>> execution.steps
20
"""

import importlib.util

# NumPy is a required dependency (see pyproject.toml) but is imported lazily,
# by the array kernels and the batched checker, so ``import repro`` stays
# cheap.  Locate it without importing it, so a missing install fails here
# rather than deep inside a sweep.
if importlib.util.find_spec("numpy") is None:
    raise ImportError(
        "repro requires the 'numpy' package, which is not installed; "
        "install the dependencies declared in pyproject.toml "
        "(pip install -e .)"
    )

from .clocks import BoundedClock
from .core import (
    AdversarialCentralDaemon,
    CentralDaemon,
    Configuration,
    Daemon,
    DistributedDaemon,
    Execution,
    LocallyCentralDaemon,
    PrivilegeAware,
    Protocol,
    RoundRobinCentralDaemon,
    Rule,
    SilentSpecification,
    Simulator,
    Specification,
    StarvationDaemon,
    SynchronousDaemon,
    measure_stabilization,
    run_speculation_study,
    worst_case_stabilization,
)
from .graphs import Graph
from .mutex import SSME, DijkstraTokenRing, MutualExclusionSpec
from .unison import AsynchronousUnison, AsynchronousUnisonSpec
from .baselines import BfsSpanningTree, BfsTreeSpec, MaximalMatching, MaximalMatchingSpec
from .verify import (
    exact_speculation_gap,
    exact_worst_case_stabilization,
    verify_stabilization,
)
from .jobs import Dispatcher, JobSpec, ResultStore, WorkerPool
from .scenarios import ChurnEvent, FaultSchedule, Scenario, run_campaign, run_scenario
from .exceptions import ReproError

__version__ = "1.0.0"

__all__ = [
    "AdversarialCentralDaemon",
    "AsynchronousUnison",
    "AsynchronousUnisonSpec",
    "BfsSpanningTree",
    "BfsTreeSpec",
    "BoundedClock",
    "CentralDaemon",
    "ChurnEvent",
    "Configuration",
    "Daemon",
    "DijkstraTokenRing",
    "Dispatcher",
    "DistributedDaemon",
    "Execution",
    "FaultSchedule",
    "Graph",
    "JobSpec",
    "LocallyCentralDaemon",
    "MaximalMatching",
    "MaximalMatchingSpec",
    "MutualExclusionSpec",
    "PrivilegeAware",
    "Protocol",
    "ReproError",
    "ResultStore",
    "RoundRobinCentralDaemon",
    "Rule",
    "SSME",
    "Scenario",
    "SilentSpecification",
    "Simulator",
    "Specification",
    "StarvationDaemon",
    "SynchronousDaemon",
    "WorkerPool",
    "__version__",
    "exact_speculation_gap",
    "exact_worst_case_stabilization",
    "measure_stabilization",
    "run_campaign",
    "run_scenario",
    "run_speculation_study",
    "verify_stabilization",
    "worst_case_stabilization",
]

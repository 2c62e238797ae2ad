"""E4 — Theorem 3: ``conv_time(SSME, ud) ∈ O(diam(g)·n³)``.

The unfair distributed daemon allows *any* non-empty selection at every
step, so its worst case cannot be enumerated; we estimate it from below by
maximizing the observed stabilization time over several adversarial
schedulers (greedy convergence-delaying central daemon, starvation daemon,
random distributed daemon and plain central daemon) and over a workload of
random + adversarial initial configurations.  Every observation must stay
below the closed-form bound of Theorem 3,
``2·diam·n³ + (alpha+1)·n² + (alpha − 2·diam)·n`` with ``alpha = n`` —
which also dominates the unfair-daemon stabilization time of the protocol —
and the measured values are reported next to the bound so the (large) slack
of the ``O(diam·n³)`` analysis is visible, as well as next to the
synchronous bound to show the speculation gap.

Every (daemon × initial × run) trial is independent, so the driver emits
one declarative :class:`~repro.jobs.JobSpec` per trial — with all seeds
pre-drawn in the sequential draw order — and executes the grid through a
:class:`~repro.jobs.Dispatcher` (``workers=`` fans trials across
processes, a result cache makes repeats incremental) without changing any
reported number.  Custom ``daemon_factories`` hold closures and cannot be
described by data, so they bypass the job layer and run inline.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core import (
    AdversarialCentralDaemon,
    CentralDaemon,
    Daemon,
    DistributedDaemon,
    SafetyMonitor,
    Simulator,
    StarvationDaemon,
)
from ..graphs import make_topology
from ..jobs import Dispatcher, JobSpec
from ..mutex import SSME, MutualExclusionSpec
from ..unison import AsynchronousUnisonSpec
from .runner import ExperimentReport
from .workloads import mutex_workload

__all__ = [
    "run_experiment",
    "emit_jobs",
    "run_job",
    "DEFAULT_SWEEP",
    "DEFAULT_DAEMON_FACTORIES",
    "EXPERIMENT_ID",
    "CODE_VERSION",
]

EXPERIMENT_ID = "E4"

#: Folded into every emitted spec's ``spec_key``; bump on any change to
#: this driver's trial semantics.
CODE_VERSION = "theorem3/1"

_RUNNER = "repro.experiments.theorem3_async_upper:run_job"

#: Default (topology, size) sweep — smaller than E3 because the
#: adversarial schedulers are sequential (one vertex per action), so each
#: execution takes Θ(n·(alpha+diam)) Python-side steps.  None of these
#: daemons is synchronous, so every run takes the incremental dict engine,
#: never the array kernel.
DEFAULT_SWEEP: Tuple[Tuple[str, int], ...] = (
    ("ring", 5),
    ("ring", 7),
    ("path", 6),
    ("star", 6),
    ("grid", 9),
    ("ring", 12),
)

#: The adversarial schedulers whose maximum stands in for the unfair daemon.
DEFAULT_DAEMON_FACTORIES: Tuple[Tuple[str, Callable[[], Daemon]], ...] = (
    ("cd-adv", AdversarialCentralDaemon),
    ("ud-starve", StarvationDaemon),
    ("dd", lambda: DistributedDaemon(activation_probability=0.3)),
    ("cd", CentralDaemon),
)

_DEFAULT_FACTORY_MAP: Dict[str, Callable[[], Daemon]] = dict(DEFAULT_DAEMON_FACTORIES)


@lru_cache(maxsize=32)
def _cached_protocol(topology: str, size: int) -> SSME:
    return SSME(make_topology(topology, size))


def _unfair_horizon(protocol: SSME) -> int:
    # Central-style daemons advance one vertex per step, so converging to
    # Γ₁ needs on the order of n·(alpha + diam) steps; keep a generous
    # horizon while staying far below the (cubic) theoretical bound.
    bound = protocol.unfair_stabilization_bound()
    return min(bound, 40 * protocol.graph.n * (protocol.alpha + protocol.diam) + 200)


def _run_unfair_trial(
    protocol: SSME,
    mutex_specification: MutualExclusionSpec,
    unison_specification: AsynchronousUnisonSpec,
    daemon: Daemon,
    items: tuple,
    seed: int,
    engine: str,
    horizon: Optional[int] = None,
) -> Tuple[Optional[int], Optional[int]]:
    """One (daemon, initial, seed) trial: ``(unison_steps, mutex_steps)``."""
    simulator = Simulator(
        protocol,
        daemon,
        rng=random.Random(seed),
        engine=engine,
        trace="light",
    )
    # Both specifications are monitored online in one pass (no post-hoc
    # trace walks).  Γ₁ is closed under every daemon (closure of spec_AU)
    # and Theorem 1 shows no spec_ME violation can occur from a Γ₁
    # configuration, so the run can stop as soon as Γ₁ is reached — and Γ₁
    # membership *is* spec_AU safety, which the monitor has just evaluated
    # for the configuration under decision.
    monitor = SafetyMonitor(
        (unison_specification, mutex_specification),
        protocol,
        stop_when=lambda config, index: monitor.is_currently_safe(
            unison_specification
        ),
    )
    simulator.run(
        protocol.configuration(dict(items)),
        max_steps=horizon if horizon is not None else _unfair_horizon(protocol),
        stop_when=monitor.observe,
    )
    return (
        monitor.stabilization_index(unison_specification),
        monitor.stabilization_index(mutex_specification),
    )


def run_job(spec: JobSpec) -> List[Optional[int]]:
    """Execute one emitted trial spec: ``[unison_steps, mutex_steps]``.

    Protocol and daemon are rebuilt from primitive parameters (cached per
    process) — neither can cross a process or cache boundary.  The Theorem
    3 bound is inherited from the unison's step complexity (Devismes &
    Petit), so the underlying spec_AU convergence is the quantity that
    actually grows with the graph; spec_ME stabilizes no later than
    spec_AU and is reported alongside it.
    """
    protocol = _cached_protocol(spec.graph_item("topology"), spec.graph_item("size"))
    unison_steps, mutex_steps = _run_unfair_trial(
        protocol,
        MutualExclusionSpec(protocol),
        AsynchronousUnisonSpec(protocol),
        _DEFAULT_FACTORY_MAP[spec.daemon](),
        spec.param("initial"),
        spec.seeds[0],
        spec.param("engine"),
        spec.horizon,
    )
    return [unison_steps, mutex_steps]


def emit_jobs(
    sweep: Optional[Sequence[Tuple[str, int]]] = None,
    daemon_factories: Optional[Sequence[Tuple[str, Callable[[], Daemon]]]] = None,
    random_configurations_per_graph: int = 3,
    runs_per_configuration: int = 1,
    seed: int = 0,
    engine: str = "auto",
    max_n: Optional[int] = None,
    horizon: Optional[int] = None,
) -> Tuple[List[Dict[str, object]], List[JobSpec], List[Tuple[str, Callable[[], Daemon]]]]:
    """Build the trial grid: per-graph info + one spec per trial.

    Returns ``(graphs, specs, daemon_factories)``.  When custom (non-default)
    factories are supplied the specs cannot describe them; callers must
    detect that via :func:`uses_default_factories` and run inline.
    """
    sweep = list(sweep) if sweep is not None else list(DEFAULT_SWEEP)
    if max_n is not None:
        sweep = [(topology, size) for topology, size in sweep if size <= max_n]
    daemon_factories = (
        list(daemon_factories)
        if daemon_factories is not None
        else list(DEFAULT_DAEMON_FACTORIES)
    )
    rng = random.Random(seed)
    graphs: List[Dict[str, object]] = []
    specs: List[JobSpec] = []
    for topology, size in sweep:
        protocol = _cached_protocol(topology, size)
        graph = protocol.graph
        # Seed the sweep with an extra far-pair double-privilege witness on
        # top of the diametral one: unfair schedulers then start from
        # configurations that actually exercise the mutual-exclusion bound.
        workload = mutex_workload(
            protocol,
            random.Random(rng.randrange(2**63)),
            random_count=random_configurations_per_graph,
            extra_pairs=1,
        )
        first_task = len(specs)
        for daemon_name, _factory in daemon_factories:
            for initial in workload:
                for _ in range(runs_per_configuration):
                    specs.append(
                        JobSpec(
                            runner=_RUNNER,
                            code_version=CODE_VERSION,
                            protocol="ssme",
                            graph={"topology": topology, "size": size},
                            daemon=daemon_name,
                            seeds=(rng.randrange(2**63),),
                            horizon=horizon,
                            metrics=("unison_steps", "mutex_steps"),
                            params={
                                "initial": tuple(initial.items()),
                                "engine": engine,
                            },
                        )
                    )
        graphs.append(
            {
                "topology": topology,
                "size": size,
                "n": graph.n,
                "diam": protocol.diam,
                "bound": protocol.unfair_stabilization_bound(),
                "sync_bound": protocol.synchronous_stabilization_bound(),
                "trials_per_daemon": len(workload) * runs_per_configuration,
                "tasks": (first_task, len(specs)),
            }
        )
    return graphs, specs, daemon_factories


def uses_default_factories(
    daemon_factories: Sequence[Tuple[str, Callable[[], Daemon]]]
) -> bool:
    """Whether every factory is the stock one its name maps to (only then
    can worker processes and cached specs rebuild the daemons by name)."""
    return all(
        _DEFAULT_FACTORY_MAP.get(name) is factory for name, factory in daemon_factories
    )


def _aggregate(
    graphs: List[Dict[str, object]],
    results: Sequence[Sequence[Optional[int]]],
    daemon_factories: Sequence[Tuple[str, Callable[[], Daemon]]],
) -> ExperimentReport:
    rows: List[Dict[str, object]] = []
    all_within = True
    for info in graphs:
        first, last = info["tasks"]
        per_graph = results[first:last]
        trials_per_daemon = info["trials_per_daemon"]
        bound = info["bound"]
        worst_mutex = 0
        worst_unison = 0
        worst_daemon = None
        per_daemon: Dict[str, Optional[int]] = {}
        stabilized_everywhere = True
        for position, (daemon_name, _factory) in enumerate(daemon_factories):
            # None until a run actually stabilized: a daemon whose every
            # run failed must be reported as None, not as an (impossible)
            # instant stabilization at 0.
            daemon_worst_unison: Optional[int] = None
            block = per_graph[
                position * trials_per_daemon : (position + 1) * trials_per_daemon
            ]
            for unison_steps, mutex_steps in block:
                if unison_steps is None or mutex_steps is None:
                    stabilized_everywhere = False
                    continue
                worst_mutex = max(worst_mutex, mutex_steps)
                daemon_worst_unison = (
                    unison_steps
                    if daemon_worst_unison is None
                    else max(daemon_worst_unison, unison_steps)
                )
                if unison_steps >= worst_unison:
                    worst_unison = unison_steps
                    worst_daemon = daemon_name
            per_daemon[daemon_name] = daemon_worst_unison
        within = (
            stabilized_everywhere and worst_mutex <= bound and worst_unison <= bound
        )
        all_within = all_within and within
        row: Dict[str, object] = {
            "topology": info["topology"],
            "n": info["n"],
            "diam": info["diam"],
            "mutex_worst_steps": worst_mutex,
            "unison_worst_steps": worst_unison,
            "worst_daemon": worst_daemon,
            "theorem3_bound": bound,
            "bound_ratio": worst_unison / bound if bound else None,
            "sync_bound_ceil_diam_over_2": info["sync_bound"],
            "within_bound": within,
        }
        for daemon_name, value in per_daemon.items():
            row[f"unison_steps[{daemon_name}]"] = value
        rows.append(row)
    return ExperimentReport(
        experiment_id=EXPERIMENT_ID,
        title="Theorem 3 — stabilization of SSME under unfair scheduling",
        paper_claim=(
            "conv_time(SSME, ud) <= 2·diam·n³ + (n+1)·n² + (n − 2·diam)·n "
            "(O(diam·n³)), while the synchronous time is only ceil(diam/2)"
        ),
        rows=rows,
        summary={"all_within_theorem3_bound": all_within},
        passed=all_within,
        notes=[
            "The unfair distributed daemon is approximated by the maximum over "
            "adversarial central, starvation, random distributed and central "
            "schedulers — a lower bound on the true worst case, which the "
            "theorem's upper bound must (and does) dominate.",
            "Step counts are daemon steps (actions); central-style daemons "
            "activate one vertex per action.",
            "'unison_worst_steps' is the stabilization of the underlying "
            "asynchronous unison to Γ₁ (the quantity the diam·n³ analysis "
            "bounds); 'mutex_worst_steps' — the spec_ME stabilization — is "
            "always no larger.",
        ],
    )


def run_experiment(
    sweep: Optional[Sequence[Tuple[str, int]]] = None,
    daemon_factories: Optional[Sequence[Tuple[str, Callable[[], Daemon]]]] = None,
    random_configurations_per_graph: int = 3,
    runs_per_configuration: int = 1,
    seed: int = 0,
    engine: str = "auto",
    workers: Optional[int] = None,
    max_n: Optional[int] = None,
    horizon: Optional[int] = None,
    dispatcher: Optional[Dispatcher] = None,
) -> ExperimentReport:
    """Measure SSME's stabilization under unfair-style schedulers.

    The trial grid is emitted as :class:`~repro.jobs.JobSpec`s and executed
    through ``dispatcher`` (cache/resume-aware) or a throwaway uncached
    dispatcher with ``workers`` processes.  Worker processes and cached
    jobs rebuild daemons by name from :data:`DEFAULT_DAEMON_FACTORIES`;
    when custom ``daemon_factories`` are supplied the sweep therefore runs
    inline and sequentially (factories hold closures that neither pickle
    nor hash).  Reported numbers are identical for any ``workers`` value,
    with or without cache.  ``max_n`` drops sweep entries larger than that
    size; ``horizon`` overrides the per-graph step budget (the default is
    Θ(n·(alpha+diam)), far below the cubic bound).
    """
    graphs, specs, daemon_factories = emit_jobs(
        sweep=sweep,
        daemon_factories=daemon_factories,
        random_configurations_per_graph=random_configurations_per_graph,
        runs_per_configuration=runs_per_configuration,
        seed=seed,
        engine=engine,
        max_n=max_n,
        horizon=horizon,
    )
    if uses_default_factories(daemon_factories):
        if dispatcher is None:
            with Dispatcher(workers=workers) as local:
                results = local.run(specs, label=EXPERIMENT_ID)
        else:
            results = dispatcher.run(specs, label=EXPERIMENT_ID)
    else:
        # Inline path for closure-holding factories: same trial order, same
        # pre-drawn seeds, protocol/spec objects reused per graph.
        factories = dict(daemon_factories)
        results = []
        for info in graphs:
            protocol = _cached_protocol(info["topology"], info["size"])
            mutex_specification = MutualExclusionSpec(protocol)
            unison_specification = AsynchronousUnisonSpec(protocol)
            first, last = info["tasks"]
            for spec in specs[first:last]:
                results.append(
                    list(
                        _run_unfair_trial(
                            protocol,
                            mutex_specification,
                            unison_specification,
                            factories[spec.daemon](),
                            spec.param("initial"),
                            spec.seeds[0],
                            spec.param("engine"),
                            spec.horizon,
                        )
                    )
                )
    return _aggregate(graphs, results, daemon_factories)

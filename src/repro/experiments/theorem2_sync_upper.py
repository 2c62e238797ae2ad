"""E3 — Theorem 2: ``conv_time(SSME, sd) <= ⌈diam(g)/2⌉``.

For every topology/size in the sweep we measure the worst synchronous
stabilization time of SSME over a workload of random + adversarial initial
configurations and compare it to the paper's bound ``⌈diam(g)/2⌉``.  Two
facts are checked:

* **upper bound** — no measured stabilization time exceeds the bound (this
  must hold for *every* initial configuration, so a single violation would
  falsify the reproduction);
* **tightness** — on every graph with ``diam >= 1`` the adversarial
  workload (built from the Theorem 4 splicing construction) actually
  reaches the bound, i.e. the measured worst case equals ``⌈diam/2⌉``.

The sweep is embarrassingly parallel: every (graph, initial configuration)
trial is independent.  The driver *emits* its trial grid as a list of
declarative :class:`~repro.jobs.JobSpec`s — with all seeds pre-drawn in
the sequential draw order — and executes it through a
:class:`~repro.jobs.Dispatcher`: sequential, process-parallel
(``workers=``), cached and resumed executions all aggregate the same
results.  :data:`CODE_VERSION` is folded into every spec's ``spec_key``;
bump it whenever this driver's measured semantics change.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from ..core import (
    StabilizationMeasurement,
    SynchronousDaemon,
    WorstCaseStabilization,
    measure_stabilization,
)
from ..graphs import make_topology
from ..jobs import Dispatcher, JobSpec
from ..lowerbound import (
    default_spliced_delays,
    delayed_double_privilege_configuration,
    immediate_double_privilege_configuration,
)
from ..mutex import SSME, MutualExclusionSpec
from .runner import ExperimentReport
from .workloads import mutex_workload

__all__ = ["run_experiment", "emit_jobs", "run_job", "DEFAULT_SWEEP", "EXPERIMENT_ID", "CODE_VERSION"]

EXPERIMENT_ID = "E3"

#: Folded into every emitted spec's ``spec_key``: bump on any change to
#: this driver's trial semantics (workload construction, horizons, the
#: measurement call) so stale cached results become misses.
CODE_VERSION = "theorem2/1"

#: Runner reference resolved inside worker processes.
_RUNNER = "repro.experiments.theorem2_sync_upper:run_job"

#: Above this size the driver switches to the large-n regime: trusted
#: closed-form diameters, the analytic (ball-planting) witness instead of
#: the spliced/far-pair constructions (all super-linear), a safety-only
#: horizon of a few bounds instead of a full clock period, and no liveness
#: window.  Matches the SSME constructor's diameter-validation cutoff.
LARGE_N = 512

#: Default (topology, size) sweep.  Small sizes keep the full workload and
#: a liveness horizon covering one clock period K = Θ(n·diam); the large
#: ring rows ride the superstep backend through the safety-only
#: regime (the Theorem 2 bound n/4 is still met exactly by the analytic
#: witness).
DEFAULT_SWEEP: Tuple[Tuple[str, int], ...] = (
    ("ring", 6),
    ("ring", 10),
    ("ring", 14),
    ("path", 7),
    ("path", 11),
    ("grid", 9),
    ("grid", 16),
    ("star", 9),
    ("binary_tree", 11),
    ("random", 12),
    ("complete", 8),
    ("ring", 1000),
    ("ring", 10000),
)

#: Closed-form diameters of the generated topologies (as functions of the
#: generated graph's n) — O(1) instead of the O(n²) BFS sweep, used above
#: LARGE_N where the paper's "diam(g) is a known system constant" stance
#: is the only feasible one.
_TRUSTED_DIAMETERS = {
    "ring": lambda n: n // 2,
    "path": lambda n: n - 1,
    "complete": lambda n: 1,
    "star": lambda n: 2,
}


def _build_protocol(topology: str, size: int) -> SSME:
    graph = make_topology(topology, size)
    if graph.n > LARGE_N:
        trusted = _TRUSTED_DIAMETERS.get(topology)
        if trusted is not None:
            return SSME(graph, diam=trusted(graph.n))
    return SSME(graph)


@lru_cache(maxsize=32)
def _cached_protocol(topology: str, size: int) -> SSME:
    # Protocols are immutable rule templates, so both the emitting driver
    # and the job runner (sequential or forked worker) share one instance
    # per (topology, size) instead of re-deriving graph + diameter per trial.
    return _build_protocol(topology, size)


def _sync_horizon(protocol: SSME) -> int:
    # Horizon: reaching Γ₁ takes at most alpha + lcp + diam <= 3n synchronous
    # steps and passing every privileged value takes at most K + diam more,
    # so one clock period plus a 4n slack covers the liveness check.
    return protocol.K + 4 * protocol.alpha + 16


def _safety_horizon(protocol: SSME) -> int:
    # Large-n regime: Theorem 2 guarantees every violation happens within
    # ceil(diam/2) synchronous steps, so a few bounds of slack suffice to
    # certify the measured stabilization index — no clock period needed
    # when the liveness window is skipped.
    bound = protocol.synchronous_stabilization_bound()
    return bound + max(256, protocol.graph.n // 8)


def _large_n_workload(protocol: SSME, rng: random.Random, random_count: int):
    """The adversarial workload of the large-n regime, all O(n) to build:
    random faults, an immediate double privilege on an antipodal-ish pair,
    and the analytic delayed witnesses at the latest admissible violation
    delay (which realizes the Theorem 2 bound exactly) and its midpoint."""
    u = protocol.graph.sorted_vertices()[0]
    distances = protocol.graph.bfs_distances(u)
    pair = (u, max(distances, key=distances.get))
    workload = [protocol.random_configuration(rng) for _ in range(random_count)]
    workload.append(immediate_double_privilege_configuration(protocol, pair=pair))
    for t in sorted(set(default_spliced_delays(protocol.diam)), reverse=True):
        workload.append(
            delayed_double_privilege_configuration(protocol, t, pair=pair)
        )
    return workload


def _run_sync_trial(
    protocol, specification, items, seed, check_liveness, engine, horizon
):
    """One (graph, initial configuration) trial against a built protocol."""
    # Light traces end to end: the safety monitor streams the stabilization
    # index during the run and the liveness window reconstructs
    # configurations on demand with bounded retention.
    return measure_stabilization(
        protocol=protocol,
        daemon=SynchronousDaemon(),
        initial=protocol.configuration(dict(items)),
        specification=specification,
        horizon=horizon,
        rng=random.Random(seed),
        check_liveness=check_liveness,
        engine=engine,
        trace="light",
        count_rounds=False,
    )


def _measurement_result(measurement: StabilizationMeasurement) -> Dict[str, object]:
    """A measurement as the JSON result the cache stores."""
    return {
        "stabilization_steps": measurement.stabilization_steps,
        "stabilized": measurement.stabilized,
        "liveness_checked": measurement.liveness_checked,
        "liveness_ok": measurement.liveness_ok,
        "execution_steps": measurement.execution_steps,
        "terminal": measurement.terminal,
        "rounds": measurement.rounds,
    }


def _measurement_from_result(result) -> StabilizationMeasurement:
    return StabilizationMeasurement(
        stabilization_steps=result["stabilization_steps"],
        stabilized=result["stabilized"],
        liveness_checked=result["liveness_checked"],
        liveness_ok=result["liveness_ok"],
        execution_steps=result["execution_steps"],
        terminal=result["terminal"],
        rounds=result["rounds"],
    )


def run_job(spec: JobSpec) -> Dict[str, object]:
    """Execute one emitted trial spec (runs inside worker processes).

    The protocol is rebuilt (cached per process) from the spec's graph
    parameters — protocol objects hold rule closures and never cross
    process or cache boundaries; the seed was pre-drawn by the driver in
    sequential order, so results do not depend on scheduling.
    """
    protocol = _cached_protocol(spec.graph_item("topology"), spec.graph_item("size"))
    measurement = _run_sync_trial(
        protocol,
        MutualExclusionSpec(protocol),
        spec.param("initial"),
        spec.seeds[0],
        spec.param("check_liveness"),
        spec.param("engine"),
        spec.horizon,
    )
    return _measurement_result(measurement)


def emit_jobs(
    sweep: Optional[Sequence[Tuple[str, int]]] = None,
    random_configurations_per_graph: int = 8,
    seed: int = 0,
    check_liveness: bool = True,
    engine: str = "auto",
    max_n: Optional[int] = None,
    horizon: Optional[int] = None,
) -> Tuple[List[Dict[str, object]], List[JobSpec]]:
    """Build the trial grid: per-graph aggregation info + one spec per trial.

    Every RNG draw happens here, in the exact order the original inline
    loop drew them, and lands in a spec's ``seeds`` — executing the specs
    is then order-independent.
    """
    sweep = list(sweep) if sweep is not None else list(DEFAULT_SWEEP)
    if max_n is not None:
        sweep = [(topology, size) for topology, size in sweep if size <= max_n]
    rng = random.Random(seed)
    graphs: List[Dict[str, object]] = []
    specs: List[JobSpec] = []
    for topology, size in sweep:
        protocol = _cached_protocol(topology, size)
        graph = protocol.graph
        large = graph.n > LARGE_N
        if large:
            workload = _large_n_workload(
                protocol,
                random.Random(rng.randrange(2**63)),
                random_count=min(random_configurations_per_graph, 3),
            )
        else:
            # Beyond the plain random faults the workload seeds the
            # lower-bound witnesses: double privileges on the diametral pair
            # plus two more far pairs, and spliced Theorem 4 configurations
            # at the latest and midpoint delays — random initials almost
            # never exercise the bound.
            workload = mutex_workload(
                protocol,
                random.Random(rng.randrange(2**63)),
                random_count=random_configurations_per_graph,
                extra_pairs=2,
                spliced_delays=default_spliced_delays(protocol.diam),
            )
        trial_horizon = horizon
        if trial_horizon is None:
            trial_horizon = (
                _safety_horizon(protocol) if large else _sync_horizon(protocol)
            )
        trial_liveness = check_liveness and not large
        trial_rng = random.Random(rng.randrange(2**63))
        first_task = len(specs)
        for initial in workload:
            specs.append(
                JobSpec(
                    runner=_RUNNER,
                    code_version=CODE_VERSION,
                    protocol="ssme",
                    graph={"topology": topology, "size": size},
                    daemon="synchronous",
                    seeds=(trial_rng.randrange(2**63),),
                    horizon=trial_horizon,
                    metrics=("stabilization_steps", "stabilized", "liveness_ok"),
                    params={
                        "initial": tuple(initial.items()),
                        "check_liveness": trial_liveness,
                        "engine": engine,
                    },
                )
            )
        graphs.append(
            {
                "topology": topology,
                "n": graph.n,
                "diam": protocol.diam,
                "K": protocol.K,
                "bound": protocol.synchronous_stabilization_bound(),
                "configs": len(workload),
                "horizon": trial_horizon,
                "liveness": trial_liveness,
                "tasks": (first_task, len(specs)),
            }
        )
    return graphs, specs


def _aggregate(
    graphs: List[Dict[str, object]], results: Sequence[object]
) -> ExperimentReport:
    rows: List[Dict[str, object]] = []
    upper_ok = True
    tight_ok = True
    for info in graphs:
        first, last = info["tasks"]
        result = WorstCaseStabilization(
            [_measurement_from_result(r) for r in results[first:last]]
        )
        measured = result.max_steps
        bound = info["bound"]
        row_upper = result.all_stabilized and measured is not None and measured <= bound
        row_tight = info["diam"] < 1 or measured == bound
        upper_ok = upper_ok and row_upper
        tight_ok = tight_ok and row_tight
        rows.append(
            {
                "topology": info["topology"],
                "n": info["n"],
                "diam": info["diam"],
                "K": info["K"],
                "configs": info["configs"],
                "horizon": info["horizon"],
                "measured_worst_steps": measured,
                "bound_ceil_diam_over_2": bound,
                "within_bound": row_upper,
                "reaches_bound": measured == bound,
                "liveness_ok": result.all_live,
            }
        )
    passed = upper_ok and tight_ok
    return ExperimentReport(
        experiment_id=EXPERIMENT_ID,
        title="Theorem 2 — synchronous stabilization time of SSME",
        paper_claim="conv_time(SSME, sd) <= ceil(diam(g)/2) on every communication graph",
        rows=rows,
        summary={
            "all_within_bound": upper_ok,
            "bound_reached_on_every_graph": tight_ok,
        },
        passed=passed,
        notes=[
            "Workload: random configurations plus the adversarial spliced "
            "configuration of Theorem 4 (which realizes the worst case).",
            "Under the synchronous daemon executions are deterministic, so the "
            "measured value is exact for the horizon (one clock period).",
            f"Rows with n > {LARGE_N} run the safety-only large-n regime on "
            "the synchronous array (superstep) backend: trusted closed-form "
            "diameter, analytic ball-planting witnesses (same measured "
            "tightness as the spliced construction), horizon of a few "
            "Theorem 2 bounds, liveness window skipped.",
        ],
    )


def run_experiment(
    sweep: Optional[Sequence[Tuple[str, int]]] = None,
    random_configurations_per_graph: int = 8,
    seed: int = 0,
    check_liveness: bool = True,
    engine: str = "auto",
    workers: Optional[int] = None,
    max_n: Optional[int] = None,
    horizon: Optional[int] = None,
    dispatcher: Optional[Dispatcher] = None,
) -> ExperimentReport:
    """Measure SSME's synchronous stabilization across topologies.

    The trial grid is emitted as :class:`~repro.jobs.JobSpec`s and executed
    through ``dispatcher`` (one with a result cache makes repeated and
    overlapping sweeps incremental and interrupted sweeps resumable); when
    ``dispatcher`` is None a throwaway uncached dispatcher with ``workers``
    processes runs the grid.  The report is bit-for-bit identical for any
    ``workers`` value, with or without cache, fresh or resumed.  ``max_n``
    drops every sweep entry larger than that size (the CLI's ``--max-n``,
    e.g. to skip the n >= 1000 superstep rows on a slow machine);
    ``horizon`` overrides the per-graph step budget outright.  Above
    :data:`LARGE_N` vertices a row automatically switches to the
    safety-only regime: trusted closed-form diameter, analytic witnesses,
    a horizon of a few Theorem 2 bounds, and no liveness window.
    """
    graphs, specs = emit_jobs(
        sweep=sweep,
        random_configurations_per_graph=random_configurations_per_graph,
        seed=seed,
        check_liveness=check_liveness,
        engine=engine,
        max_n=max_n,
        horizon=horizon,
    )
    if dispatcher is None:
        with Dispatcher(workers=workers) as local:
            results = local.run(specs, label=EXPERIMENT_ID)
    else:
        results = dispatcher.run(specs, label=EXPERIMENT_ID)
    return _aggregate(graphs, results)

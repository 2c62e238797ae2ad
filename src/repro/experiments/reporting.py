"""Assembling the full paper-vs-measured report.

``run_all_experiments`` executes every experiment driver (E1–E10) and
``render_experiments_markdown`` turns the reports into the Markdown document
stored as ``EXPERIMENTS.md`` at the repository root.

Each driver is registered as an :class:`ExperimentDriver` with an explicit
**capability declaration** — the set of service-layer options it accepts
(``dispatcher``, ``workers``, ``max_n``, ``horizon``) — instead of the old
signature-inspection kwarg forwarding.  ``run_all_experiments`` builds one
shared :class:`~repro.jobs.Dispatcher` (result cache, persistent worker
pool, progress stream) and hands it to every driver that declares the
``dispatcher`` capability, so repeated and overlapping sweeps are served
incrementally from the content-addressed cache and interrupted sweeps
resume from their completed jobs.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Union

from ..exceptions import ExperimentError
from ..jobs import Dispatcher, ProgressEvent, ResultStore
from . import (
    ablation_privilege_spacing,
    adaptive_speculation,
    dijkstra_comparison,
    exact_small_n,
    fault_campaigns,
    figure1_clock,
    table_speculative_examples,
    theorem2_sync_upper,
    theorem3_async_upper,
    theorem4_lower_bound,
)
from .runner import ExperimentReport

__all__ = [
    "EXPERIMENT_DRIVERS",
    "ExperimentDriver",
    "run_all_experiments",
    "render_experiments_markdown",
]


class ExperimentDriver:
    """A registered experiment driver with its declared capabilities.

    Calling the instance forwards to the underlying ``run_experiment``
    function, so existing ``EXPERIMENT_DRIVERS["E3"]()`` call sites keep
    working.  ``capabilities`` names exactly the service-layer keyword
    arguments the driver accepts; ``run_all_experiments`` forwards an
    option if and only if it is declared here — no signature inspection.
    """

    __slots__ = ("experiment_id", "run", "capabilities")

    def __init__(
        self,
        experiment_id: str,
        run: Callable[..., ExperimentReport],
        capabilities: Sequence[str] = (),
    ) -> None:
        self.experiment_id = experiment_id
        self.run = run
        self.capabilities: FrozenSet[str] = frozenset(capabilities)

    def __call__(self, **kwargs) -> ExperimentReport:
        return self.run(**kwargs)

    def __repr__(self) -> str:
        return (
            f"ExperimentDriver({self.experiment_id!r}, "
            f"capabilities={sorted(self.capabilities)})"
        )


#: The experiment drivers in presentation order.  E1–E6 reproduce paper
#: artefacts; E7 is the ablation of the clock-size design choice; E8
#: cross-validates the sampled sweeps against the exact model checker; E9
#: runs the named fault-campaign scenarios (recurring faults + churn);
#: E10 pins the adaptive layer (online engine/rule-set switching) against
#: its static optima.
#: Drivers declaring ``dispatcher`` emit their trial grids as job specs
#: and ride the shared cache/worker-pool service layer.
EXPERIMENT_DRIVERS: Dict[str, ExperimentDriver] = {
    "E1": ExperimentDriver("E1", figure1_clock.run_experiment),
    "E2": ExperimentDriver("E2", table_speculative_examples.run_experiment),
    "E3": ExperimentDriver(
        "E3",
        theorem2_sync_upper.run_experiment,
        capabilities=("dispatcher", "workers", "max_n", "horizon"),
    ),
    "E4": ExperimentDriver(
        "E4",
        theorem3_async_upper.run_experiment,
        capabilities=("dispatcher", "workers", "max_n", "horizon"),
    ),
    "E5": ExperimentDriver("E5", theorem4_lower_bound.run_experiment),
    "E6": ExperimentDriver(
        "E6",
        dijkstra_comparison.run_experiment,
        capabilities=("dispatcher", "workers", "max_n"),
    ),
    "E7": ExperimentDriver("E7", ablation_privilege_spacing.run_experiment),
    "E8": ExperimentDriver(
        "E8",
        exact_small_n.run_experiment,
        capabilities=("dispatcher", "workers"),
    ),
    "E9": ExperimentDriver(
        "E9",
        fault_campaigns.run_experiment,
        capabilities=("dispatcher", "workers"),
    ),
    "E10": ExperimentDriver(
        "E10",
        adaptive_speculation.run_experiment,
        capabilities=("dispatcher", "workers"),
    ),
}


def run_all_experiments(
    only: Optional[Sequence[str]] = None,
    workers: Optional[int] = None,
    max_n: Optional[int] = None,
    horizon: Optional[int] = None,
    cache: Union[None, str, ResultStore] = None,
    refresh: bool = False,
    progress: Optional[Callable[[ProgressEvent], None]] = None,
    dispatcher: Optional[Dispatcher] = None,
) -> List[ExperimentReport]:
    """Run every experiment driver (or the subset named in ``only``).

    Options are forwarded per driver according to its declared
    capabilities; reported numbers are identical for any combination:

    ``workers``
        Width of the shared worker pool fanning independent jobs across
        processes (default sequential).
    ``max_n`` / ``horizon``
        Cap the sweep sizes / override the per-graph step budgets of the
        drivers that declare them (the CLI's ``--max-n``/``--horizon``).
    ``cache``
        A cache directory (or prebuilt :class:`~repro.jobs.ResultStore`):
        job results are content-addressed on their ``spec_key``, so a
        repeated run re-simulates nothing and an interrupted run resumes
        from its completed jobs.  ``None`` (default) disables caching.
    ``refresh``
        Ignore (and rewrite) existing cache entries.
    ``progress``
        Callable streamed one :class:`~repro.jobs.ProgressEvent` per
        completed job.
    ``dispatcher``
        A prebuilt dispatcher (overrides ``cache``/``refresh``/
        ``progress``/``workers`` wiring — useful for tests and services
        embedding the experiment layer).
    """
    selected = list(only) if only is not None else list(EXPERIMENT_DRIVERS)
    unknown = [experiment_id for experiment_id in selected if experiment_id not in EXPERIMENT_DRIVERS]
    if unknown:
        raise ExperimentError(
            f"unknown experiment id(s) {', '.join(repr(e) for e in unknown)}; "
            f"valid ids: {', '.join(EXPERIMENT_DRIVERS)}"
        )
    owns_dispatcher = dispatcher is None
    if owns_dispatcher:
        store = None
        if cache is not None:
            store = cache if isinstance(cache, ResultStore) else ResultStore(cache)
        dispatcher = Dispatcher(
            store=store, workers=workers, refresh=refresh, progress=progress
        )
    reports = []
    try:
        for experiment_id in selected:
            driver = EXPERIMENT_DRIVERS[experiment_id]
            kwargs = {}
            if "dispatcher" in driver.capabilities:
                kwargs["dispatcher"] = dispatcher
            elif workers and "workers" in driver.capabilities:
                kwargs["workers"] = workers
            if max_n is not None and "max_n" in driver.capabilities:
                kwargs["max_n"] = max_n
            if horizon is not None and "horizon" in driver.capabilities:
                kwargs["horizon"] = horizon
            reports.append(driver(**kwargs))
    finally:
        if owns_dispatcher:
            dispatcher.close()
    return reports


def render_experiments_markdown(reports: Sequence[ExperimentReport]) -> str:
    """Render reports as the EXPERIMENTS.md document."""
    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Reproduction of *Introducing Speculation in Self-Stabilization: An "
        "Application to Mutual Exclusion* (Dubois & Guerraoui, PODC 2013).",
        "",
        "Each section reproduces one artefact of the paper (see PAPER.md "
        "for which theorem each experiment reproduces).  Regenerate any "
        "section with the matching benchmark under `benchmarks/`, e.g. "
        "`pytest benchmarks/bench_theorem2_sync_upper.py --benchmark-only -s`.",
        "",
    ]
    for report in reports:
        lines.append(report.to_markdown())
        lines.append("")
    overall = all(report.passed for report in reports)
    lines.append(f"**Overall:** {'all experiments PASS' if overall else 'some experiments FAIL'}")
    lines.append("")
    return "\n".join(lines)

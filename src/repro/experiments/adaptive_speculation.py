"""E10 — adaptive speculation: online regime switching vs the static bests.

The paper's speculation story is static: pick the rule set once, up front,
for the schedule you *expect*.  :mod:`repro.adaptive` makes that choice
online.  This experiment pins the adaptive protocol against the static
optima it is supposed to match:

* **protocol vs certified optimum** — on rings small enough for the exact
  checker, :class:`~repro.adaptive.AdaptiveProtocol` (speculative SSME with
  a conservative clock-mutex fallback) runs under the synchronous daemon
  from the certified workload region.  Its worst observed stabilization
  must stay within a stated factor (1.0) of the certified
  :func:`~repro.verify.exact_speculation_gap` optimum — the exact
  synchronous worst case of pure SSME — because under a dense schedule the
  detector keeps the speculative rule set active and the adaptive run *is*
  the static best.  The same rows re-measure the static
  :func:`~repro.core.measure_speculation` gap so the certified/static/
  adaptive triangle is closed on one instance.
* **protocol under regime switching** — the same adaptive protocol driven
  by a regime-switching daemon (alternating synchronous and sparse phases)
  must keep its self-stabilization story: rule-set switches happen only at
  configurations valid for both rule sets, and the run must end legitimate
  with safety holding from its stabilization point on.

Every row is one declarative :class:`~repro.jobs.JobSpec` executed through
a :class:`~repro.jobs.Dispatcher`, so the expensive exact solves are
cached, resumable after a kill, and byte-identical under ``workers=N``.
All reported numbers are deterministic (no wall-clock anywhere).
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..adaptive import AdaptiveProtocol
from ..core import (
    CentralDaemon,
    RegimeSwitchingDaemon,
    SynchronousDaemon,
    measure_speculation,
)
from ..graphs import ring_graph
from ..jobs import Dispatcher, JobSpec
from ..mutex import SSME, MutualExclusionSpec
from ..verify import exact_speculation_gap
from .runner import ExperimentReport
from .workloads import mutex_workload

__all__ = [
    "run_experiment",
    "emit_jobs",
    "run_job",
    "EXPERIMENT_ID",
    "CODE_VERSION",
]

EXPERIMENT_ID = "E10"

#: Folded into every emitted spec's ``spec_key``; bump on any change to
#: the adaptive protocol semantics these rows measure.
CODE_VERSION = "adaptive-speculation/1"

_RUNNER = "repro.experiments.adaptive_speculation:run_job"

#: The stated factor of the certified optimum the adaptive protocol must
#: stay within under the dense (synchronous) schedule.  It is 1.0 — not a
#: tolerance band — because a correct detector never abandons the
#: speculative rule set while the schedule it speculates on persists.
STATED_FACTOR = 1.0


def _protocol_gap_row(n: int, random_count: int, workload_seed: int) -> Dict[str, Any]:
    """Certified optimum vs static measurement vs adaptive protocol."""
    protocol = SSME(ring_graph(n))
    specification = MutualExclusionSpec(protocol)
    workload = mutex_workload(protocol, random.Random(workload_seed), random_count=random_count)

    certificate = exact_speculation_gap(
        protocol, specification, "central", "synchronous", workload
    )
    weak_exact = certificate.weak.exact_worst_case

    static = measure_speculation(
        protocol,
        specification,
        CentralDaemon,
        SynchronousDaemon,
        workload,
        strong_horizon=4 * protocol.graph.n * (protocol.alpha + protocol.diam) + 40,
        weak_horizon=protocol.K + 4 * protocol.alpha + 16,
        rng=random.Random(workload_seed),
        trace="light",
    )

    adaptive = AdaptiveProtocol(ring_graph(n))
    horizon = (weak_exact if weak_exact is not None else protocol.K) + 16
    adaptive_worst: Optional[int] = 0
    adaptive_legitimacy = 0
    for initial in workload:
        run = adaptive.run(
            adaptive.speculative.configuration(initial.as_dict()),
            SynchronousDaemon(),
            max_steps=horizon,
        )
        if not run.final_legitimate:
            adaptive_worst = None
            break
        # The library-wide stabilization metric is safety-based (the
        # SafetyMonitor index the sampler and the exact checker both use);
        # Γ₁ legitimacy is reported alongside for context.
        adaptive_worst = max(adaptive_worst, run.safety_index)
        adaptive_legitimacy = max(adaptive_legitimacy, run.stabilization_index)
    ratio = (
        adaptive_worst / weak_exact
        if adaptive_worst is not None and weak_exact not in (None, 0)
        else (0.0 if adaptive_worst == 0 else None)
    )
    within = ratio is not None and ratio <= STATED_FACTOR
    return {
        "kind": "protocol-gap",
        "instance": f"ring({n})",
        "daemon": "synchronous (dense regime)",
        "exact_strong_steps": certificate.strong.exact_worst_case,
        "exact_weak_steps": weak_exact,
        "exact_gap_factor": certificate.gap_factor,
        "speculation_pays": certificate.speculation_pays,
        "static_factor": static.speculation_factor,
        "adaptive_worst_steps": adaptive_worst,
        "adaptive_legitimacy_steps": adaptive_legitimacy if adaptive_worst is not None else None,
        "ratio_to_certified": ratio,
        "within_stated_factor": within,
        "certified": bool(certificate.speculation_pays and within),
    }


def _protocol_switching_row(
    n: int, dense_steps: int, sparse_steps: int, horizon: int, initial_seed: int, daemon_seed: int
) -> Dict[str, Any]:
    """Adaptive protocol under a regime-switching schedule stays stabilizing."""
    adaptive = AdaptiveProtocol(ring_graph(n))
    initial = adaptive.speculative.random_configuration(random.Random(initial_seed))
    run = adaptive.run(
        initial,
        RegimeSwitchingDaemon(dense_steps, sparse_steps),
        max_steps=horizon,
        rng=random.Random(daemon_seed),
    )
    stabilized = run.final_legitimate and run.stabilization_index <= run.steps
    safety_after_stabilization = run.safety_index <= run.stabilization_index
    return {
        "kind": "protocol-switching",
        "instance": f"ring({n})",
        "daemon": f"regime-switch({dense_steps},{sparse_steps})",
        "horizon": horizon,
        "steps": run.steps,
        "moves": run.moves,
        "rule_set_switches": len(run.switches) - 1,
        "stabilization_index": run.stabilization_index,
        "safety_index": run.safety_index,
        "unsafe_configurations": run.unsafe_configurations,
        "final_legitimate": run.final_legitimate,
        "certified": bool(stabilized and safety_after_stabilization),
    }


def run_job(spec: JobSpec) -> Dict[str, Any]:
    """Execute one emitted row spec — a pure function of the spec."""
    kind = spec.param("kind")
    if kind == "protocol-gap":
        return _protocol_gap_row(
            spec.graph_item("n"), spec.param("random_count"), spec.seeds[0]
        )
    if kind == "protocol-switching":
        return _protocol_switching_row(
            spec.graph_item("n"),
            spec.param("dense_steps"),
            spec.param("sparse_steps"),
            spec.horizon,
            *spec.seeds,
        )
    raise ValueError(f"unknown adaptive_speculation job kind {kind!r}")


def emit_jobs(
    gap_sizes: Sequence[int] = (4, 5, 6, 7, 8),
    switching_sizes: Sequence[int] = (8, 12),
    random_configurations_per_graph: int = 4,
    seed: int = 0,
) -> Tuple[List[Dict[str, Any]], List[JobSpec]]:
    """One spec per report row, seeds pre-drawn in sequential draw order."""
    rng = random.Random(seed)
    infos: List[Dict[str, Any]] = []
    specs: List[JobSpec] = []

    def _emit(kind, daemon, graph, seeds, horizon=None, params=(), metrics=()):
        specs.append(
            JobSpec(
                runner=_RUNNER,
                code_version=CODE_VERSION,
                protocol="ssme",
                graph=graph,
                daemon=daemon,
                seeds=seeds,
                horizon=horizon,
                metrics=metrics,
                params=(("kind", kind),) + tuple(params),
            )
        )
        infos.append({"kind": kind, "n": dict(graph)["n"]})

    # Skip the four seeds the retired engine-equivalence rows (two rings,
    # two seeds each) drew first, so the remaining rows keep their seeds —
    # and with them their spec keys and cached results.
    for _ in range(4):
        rng.randrange(2**63)
    for n in gap_sizes:
        _emit(
            "protocol-gap",
            "central-vs-synchronous",
            {"topology": "ring", "n": n},
            (rng.randrange(2**63),),
            params=(("random_count", random_configurations_per_graph),),
            metrics=("exact_gap_factor", "adaptive_worst_steps", "ratio_to_certified"),
        )
    for n in switching_sizes:
        dense, sparse = 24, 48
        _emit(
            "protocol-switching",
            f"regime-switch({dense},{sparse})",
            {"topology": "ring", "n": n},
            (rng.randrange(2**63), rng.randrange(2**63)),
            horizon=5 * (dense + sparse),
            params=(("dense_steps", dense), ("sparse_steps", sparse)),
            metrics=("rule_set_switches", "stabilization_index", "final_legitimate"),
        )
    return infos, specs


def _aggregate(rows: Sequence[Dict[str, Any]]) -> ExperimentReport:
    gap_rows = [row for row in rows if row["kind"] == "protocol-gap"]
    switch_rows = [row for row in rows if row["kind"] == "protocol-switching"]
    ratios = [
        row["ratio_to_certified"]
        for row in gap_rows
        if row["ratio_to_certified"] is not None
    ]
    summary = {
        "adaptive_within_stated_factor": all(
            r["within_stated_factor"] for r in gap_rows
        ),
        "stated_factor": STATED_FACTOR,
        "worst_ratio_to_certified": max(ratios) if ratios else None,
        "speculation_pays_on_every_ring": all(
            r["speculation_pays"] for r in gap_rows
        ),
        "switching_runs_stabilize": all(r["certified"] for r in switch_rows),
        "all_certified": all(r["certified"] for r in rows),
    }
    return ExperimentReport(
        experiment_id=EXPERIMENT_ID,
        title="Adaptive speculation — online switching vs the static bests",
        paper_claim=(
            "Speculation resolved online matches the statically chosen "
            "optimum: the adaptive protocol stays within the stated factor of the certified exact speculation optimum "
            "under the dense schedule while remaining self-stabilizing "
            "under regime switching"
        ),
        rows=list(rows),
        summary=summary,
        passed=bool(summary["all_certified"]),
        notes=[
            "Protocol rows run the adaptive SSME/conservative-mutex pair "
            "under the synchronous daemon from the certified workload "
            "region: the detector keeps the speculative rule set active, "
            "so the worst adaptive stabilization equals the certified "
            "synchronous optimum (ratio <= 1.0 by construction, reported "
            "measured, not assumed).",
            "Switching rows drive the adaptive protocol with a regime-"
            "switching daemon: rule-set switches occur only at mutually "
            "valid configurations, so each run must end legitimate with "
            "safety holding from its stabilization point on.",
        ],
    )


def run_experiment(
    gap_sizes: Sequence[int] = (4, 5, 6, 7, 8),
    switching_sizes: Sequence[int] = (8, 12),
    random_configurations_per_graph: int = 4,
    seed: int = 0,
    workers: Optional[int] = None,
    dispatcher: Optional[Dispatcher] = None,
) -> ExperimentReport:
    """Pin the adaptive protocol against the static optima it must match.

    Rows are emitted as :class:`~repro.jobs.JobSpec`s and executed through
    ``dispatcher`` (or a throwaway one with ``workers`` processes); the
    exact solves on the larger rings cache and resume like every sweep.
    """
    _, specs = emit_jobs(
        gap_sizes=gap_sizes,
        switching_sizes=switching_sizes,
        random_configurations_per_graph=random_configurations_per_graph,
        seed=seed,
    )
    if dispatcher is None:
        with Dispatcher(workers=workers) as local:
            rows = local.run(specs, label=EXPERIMENT_ID)
    else:
        rows = dispatcher.run(specs, label=EXPERIMENT_ID)
    return _aggregate(rows)

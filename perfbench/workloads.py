"""The three workloads: what each runs, and how its outputs are checked.

A workload builds its inputs in :meth:`setup` (timed as set-up), runs one
*pass* of its timed body in :meth:`run_pass`, and judges the pass's
operations in :meth:`check`, outside the timed region.  Every operation is
an :class:`Op` — a stabilization run, a certification or a group of jobs —
carrying the facts it produced; ``weight`` is how many operations it stands
for (one per job in a job group).

Inputs depend on the seed only through the random initial configurations;
every other input (witnesses, daemon seeds) is fixed, so runs at one seed
repeat exactly and runs at different seeds do comparable work.

Every workload comes in three sizes.  ``"bench"`` (the default) keeps a
pass to a few seconds on a 2-CPU machine, so that one run times several
passes; ``"paper"`` is the larger instance whose facts the repository
quotes elsewhere (Theorem 2 tight at ring(6000), the ring(10) exact gap of
``BENCH_verify.json``); ``"toy"`` shrinks every instance for the self-tests.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.core import SynchronousDaemon, measure_stabilization
from repro.experiments import theorem2_sync_upper, theorem3_async_upper
from repro.experiments.workloads import mutex_workload
from repro.graphs import ring_graph
from repro.jobs import Dispatcher
from repro.lowerbound import (
    default_spliced_delays,
    delayed_double_privilege_configuration,
    immediate_double_privilege_configuration,
)
from repro.mutex import SSME, DijkstraTokenRing, MutualExclusionSpec
from repro.verify import exact_speculation_gap, verify_stabilization

__all__ = ["Op", "WORKLOADS"]


class Op:
    """One operation (or a weighted group of them) and its outcome."""

    __slots__ = ("label", "weight", "facts", "error", "problems")

    def __init__(self, label: str) -> None:
        self.label = label
        self.weight = 1
        self.facts: Dict[str, object] = {}
        self.error: Optional[str] = None
        self.problems: List[str] = []

    def fail(self, problem: str) -> None:
        self.problems.append(problem)

    def expect(self, fact: str, predicate: bool, what: str) -> None:
        """Record a failed check unless ``predicate`` holds."""
        if not predicate:
            self.fail(f"{fact}={self.facts.get(fact)!r}: expected {what}")

    @property
    def ok(self) -> bool:
        return self.error is None and not self.problems

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {"label": self.label, "facts": self.facts}
        if self.weight != 1:
            data["weight"] = self.weight
        if self.error is not None:
            data["error"] = self.error
        if self.problems:
            data["problems"] = self.problems
        return data


def _attempt(op: Op, body) -> Op:
    """Run ``body(op)``; an exception marks the operation failed instead
    of ending the pass."""
    try:
        body(op)
    except Exception as exc:  # every raised operation counts as failed
        op.error = f"{type(exc).__name__}: {exc}"
    return op


class Workload:
    name = ""
    #: What ``work`` counts, for the ``norm_work_per_s`` metric.
    work_unit = ""

    def __init__(self, seed: int, size: str = "bench", work_dir: Optional[Path] = None) -> None:
        self.seed = seed
        self.size = size
        #: Where temporary files go (None: the system temp directory).
        self.work_dir = work_dir

    def setup(self):
        raise NotImplementedError

    def prepare(self, state) -> None:
        """Untimed per-pass preparation."""

    def run_pass(self, state, runlog) -> List[Op]:
        raise NotImplementedError

    def check(self, ops: List[Op], state) -> None:
        raise NotImplementedError

    def work(self, ops: List[Op]) -> int:
        raise NotImplementedError

    def phases(self, state) -> Dict[str, float]:
        """Timings of named phases of the last pass (seconds)."""
        return {}

    def close(self, state) -> None:
        """Release what :meth:`setup` acquired."""


class SyncRing(Workload):
    """SSME and Dijkstra on a large ring under the synchronous daemon.

    The large-n regime of E3/E6, which costs most of a full experiment run:
    the superstep array kernels do almost all the work, including the block
    replay that ``SafetyMonitor`` forces through ``stop_when``.  Theorem 2
    is checked tight: the latest-delay witness stabilizes in exactly
    ceil(diam/2) steps (500 on ring(2000), 1500 on ring(6000)).
    """

    name = "sync-ring"
    work_unit = "simulation steps"
    SIZES = {"bench": 2000, "paper": 6000, "toy": 64}

    def setup(self):
        n = self.SIZES[self.size]
        rng = random.Random(self.seed)
        ssme = SSME(ring_graph(n), diam=n // 2)
        pair = (0, n // 2)
        latest = max(default_spliced_delays(ssme.diam))
        dijkstra = DijkstraTokenRing(ring_graph(n))
        ssme_spec = MutualExclusionSpec(ssme)
        ssme_horizon = ssme.synchronous_stabilization_bound() + max(256, n // 8)
        runs = [
            ("ssme-delayed-latest", ssme, ssme_spec, ssme_horizon,
             delayed_double_privilege_configuration(ssme, latest, pair=pair)),
            ("ssme-immediate-antipodal", ssme, ssme_spec, ssme_horizon,
             immediate_double_privilege_configuration(ssme, pair=pair)),
            ("ssme-random", ssme, ssme_spec, ssme_horizon, ssme.random_configuration(rng)),
            ("dijkstra-random", dijkstra, MutualExclusionSpec(dijkstra), 2 * n + 200,
             dijkstra.random_configuration(rng)),
        ]
        return {"ssme": ssme, "runs": runs}

    def run_pass(self, state, runlog) -> List[Op]:
        ops = []
        for label, protocol, specification, horizon, initial in state["runs"]:
            def body(op, protocol=protocol, specification=specification,
                     horizon=horizon, initial=initial):
                measurement = measure_stabilization(
                    protocol=protocol,
                    daemon=SynchronousDaemon(),
                    initial=initial,
                    specification=specification,
                    horizon=horizon,
                    rng=random.Random(0),
                    engine="auto",
                    trace="light",
                    count_rounds=False,
                )
                op.facts["stabilization"] = measurement.stabilization_steps
                op.facts["steps"] = measurement.execution_steps
                op.facts["backend"] = runlog.backend_of_last_run()

            ops.append(_attempt(Op(label), body))
        return ops

    def check(self, ops: List[Op], state) -> None:
        bound = state["ssme"].synchronous_stabilization_bound()
        ssme_ops = [op for op in ops if op.label.startswith("ssme")]
        ssme_worst = max(
            (op.facts["stabilization"] for op in ssme_ops
             if op.facts.get("stabilization") is not None),
            default=None,
        )
        for op in ops:
            if op.error is not None:
                continue
            stabilization = op.facts["stabilization"]
            op.expect("stabilization", stabilization is not None, "stabilized within the horizon")
            if stabilization is None:
                continue
            if op in ssme_ops:
                op.expect("stabilization", stabilization <= bound, f"<= ceil(diam/2) = {bound}")
            if op.label == "ssme-delayed-latest":
                # Theorem 2 is tight: the latest-delay witness realizes the bound.
                op.expect("stabilization", stabilization == bound, f"== ceil(diam/2) = {bound}")
            if op.label.startswith("dijkstra") and ssme_worst is not None:
                op.expect("stabilization", stabilization >= ssme_worst,
                          f">= the SSME worst case {ssme_worst}")

    def work(self, ops: List[Op]) -> int:
        return sum(op.facts.get("steps", 0) for op in ops)


class ExactGap(Workload):
    """The exact checker: the Definition 4 speculation gap of SSME on a
    ring (central vs synchronous, region mode: expand, pack/dedup, solve),
    then a diverging Dijkstra ring, K=5 full product (dense mode, lasso).
    No simulation engine is involved."""

    name = "exact-gap"
    work_unit = "certified states"
    #: (SSME ring size, Dijkstra ring size, Dijkstra K, SSME state cap)
    SIZES = {
        "bench": (9, 7, 5, 20_000_000),
        "paper": (10, 8, 5, 20_000_000),
        "toy": (6, 4, 2, 1_000_000),
    }

    def setup(self):
        ssme_n, dijkstra_n, dijkstra_k, cap = self.SIZES[self.size]
        ssme = SSME(ring_graph(ssme_n))
        dijkstra = DijkstraTokenRing.on_ring(dijkstra_n, K=dijkstra_k)
        return {
            "ssme": ssme,
            "ssme_spec": MutualExclusionSpec(ssme),
            "region": mutex_workload(ssme, random.Random(1 + self.seed), random_count=6),
            "cap": cap,
            "dijkstra": dijkstra,
            "dijkstra_spec": MutualExclusionSpec(dijkstra),
        }

    def run_pass(self, state, runlog) -> List[Op]:
        strong = Op("ssme-central-region")
        weak = Op("ssme-synchronous-region")
        try:
            certificate = exact_speculation_gap(
                state["ssme"], state["ssme_spec"], "central", "synchronous",
                state["region"], engine="batched", max_states=state["cap"],
            )
        except Exception as exc:  # both certifications fail together
            strong.error = weak.error = f"{type(exc).__name__}: {exc}"
        else:
            for op, result in ((strong, certificate.strong), (weak, certificate.weak)):
                op.facts.update(_certification_facts(result))
            strong.facts["gap"] = certificate.gap_factor

        def diverging(op):
            result = verify_stabilization(
                state["dijkstra"], state["dijkstra_spec"], "central", max_states=1_000_000
            )
            op.facts.update(_certification_facts(result))
            op.facts["lasso"] = result.counterexample is not None

        return [strong, weak, _attempt(Op("dijkstra-central-full"), diverging)]

    def check(self, ops: List[Op], state) -> None:
        strong, weak, diverging = ops
        bound = state["ssme"].synchronous_stabilization_bound()
        if weak.error is None:
            weak.expect("worst", weak.facts["worst"] == bound,
                        f"== ceil(diam/2) = {bound} (Theorem 2, exact)")
        if strong.error is None:
            strong.expect("worst", strong.facts["worst"] is not None,
                          "a finite worst case (SSME stabilizes under the central daemon)")
            if weak.error is None and strong.facts["worst"] is not None:
                strong.expect("worst", strong.facts["worst"] >= weak.facts["worst"],
                              f">= the synchronous worst case {weak.facts['worst']}")
        if diverging.error is None:
            diverging.expect("stabilizes", diverging.facts["stabilizes"] is False,
                             "divergence (K < n - 1)")
            diverging.expect("lasso", diverging.facts["lasso"], "a lasso counterexample")

    def work(self, ops: List[Op]) -> int:
        return sum(op.facts.get("states", 0) for op in ops)


def _certification_facts(result) -> Dict[str, object]:
    return {
        "states": result.state_count,
        "transitions": result.transition_count,
        "worst": result.exact_worst_case,
        "stabilizes": result.stabilizes,
    }


class CachedSweep(Workload):
    """E3 and E4 through one cached ``Dispatcher``.

    A cold sweep of misses writes the result store (220 jobs at the bench
    size, E3 up to n=10; 285 at the paper size, E3 up to n=100); a warm
    rerun of the same sweep reads them all back.  This is the ``repro.jobs``
    layer (spec hashing, store, journal) and the many-short-runs regime,
    where per-run set-up outweighs stepping.  E4's small SSME runs under
    the adversarial central and distributed daemons also make it the
    workload of the dict incremental engine, the sequential daemons, the
    Python specification predicates and the lower-bound witnesses.
    """

    name = "cached-sweep"
    work_unit = "jobs served"
    #: experiment -> (driver module, run_experiment keyword arguments)
    SIZES = {
        "bench": {"E3": (theorem2_sync_upper, {"max_n": 10}), "E4": (theorem3_async_upper, {})},
        "paper": {"E3": (theorem2_sync_upper, {"max_n": 100}), "E4": (theorem3_async_upper, {})},
        "toy": {
            "E3": (theorem2_sync_upper, {"sweep": (("ring", 6),)}),
            "E4": (theorem3_async_upper, {"sweep": (("ring", 5),)}),
        },
    }

    def setup(self):
        if self.work_dir is not None:
            self.work_dir.mkdir(parents=True, exist_ok=True)
        root = Path(tempfile.mkdtemp(prefix="sweep-", dir=self.work_dir))
        return {"root": root, "dispatcher": Dispatcher(store=root / "store-0"), "passes": 0}

    def prepare(self, state) -> None:
        # Every pass starts from an empty result store.
        if state["passes"]:
            state["dispatcher"].close()
            shutil.rmtree(state["root"] / f"store-{state['passes'] - 1}")
            state["dispatcher"] = Dispatcher(store=state["root"] / f"store-{state['passes']}")
        state["passes"] += 1

    def run_pass(self, state, runlog) -> List[Op]:
        dispatcher = state["dispatcher"]
        ops: List[Op] = []
        state["reports"] = {}
        state["phases"] = {}
        for phase in ("cold", "warm"):
            # Each sweep starts like a fresh `python -m repro.experiments`
            # process: no protocol built by an earlier sweep is reused.
            _forget_protocols()
            start = time.perf_counter()
            for experiment, (module, kwargs) in self.SIZES[self.size].items():
                first_run = len(runlog.runs)

                def body(op, module=module, kwargs=kwargs):
                    report = module.run_experiment(seed=self.seed, dispatcher=dispatcher, **kwargs)
                    stats = dispatcher.last_stats
                    state["reports"][op.label] = report
                    op.weight = stats.total
                    op.facts.update(
                        jobs=stats.total,
                        hits=stats.hits,
                        executed=stats.executed,
                        passed=report.passed,
                        steps=sum(steps for _e, _b, steps in runlog.runs[first_run:]),
                    )

                ops.append(_attempt(Op(f"{experiment}-{phase}"), body))
            state["phases"][phase] = time.perf_counter() - start
        return ops

    def check(self, ops: List[Op], state) -> None:
        reports = state["reports"]
        for op in ops:
            if op.error is not None:
                continue
            op.expect("passed", op.facts["passed"], "the experiment report to pass")
            if op.label.endswith("cold"):
                op.expect("executed", op.facts["executed"] == op.facts["jobs"],
                          "every job executed (fresh store)")
                continue
            op.expect("hits", op.facts["hits"] == op.facts["jobs"], "every job a cache hit")
            cold = reports.get(op.label.replace("warm", "cold"))
            op.facts["report_equal"] = cold is not None and (
                reports[op.label].to_dict() == cold.to_dict()
            )
            op.expect("report_equal", op.facts["report_equal"],
                      "the warm report to equal the cold report")

    def work(self, ops: List[Op]) -> int:
        return sum(op.facts.get("jobs", 0) for op in ops)

    def phases(self, state) -> Dict[str, float]:
        return dict(state.get("phases", {}))

    def close(self, state) -> None:
        state["dispatcher"].close()
        shutil.rmtree(state["root"], ignore_errors=True)


def _forget_protocols() -> None:
    """Drop the experiment drivers' per-process protocol caches."""
    theorem2_sync_upper._cached_protocol.cache_clear()
    theorem3_async_upper._cached_protocol.cache_clear()


WORKLOADS = {cls.name: cls for cls in (SyncRing, ExactGap, CachedSweep)}

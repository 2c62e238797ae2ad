"""PR 10 — regenerate the vectorized exact-checker benchmark headlines.

Usage::

    PYTHONPATH=src python benchmarks/bench_verify.py                      # full grid (~12 min)
    PYTHONPATH=src python benchmarks/bench_verify.py --quick              # skip the frontier rows
    PYTHONPATH=src python benchmarks/bench_verify.py --json BENCH_verify.json

Three sections are written to the JSON:

* ``headline_verify`` — deterministic certification facts (state counts,
  exact worst cases) on instances cheap enough for CI.  Every value is
  engine-independent by construction: the batched array engine and the
  pure-Python dict engine are bit-identical.  CI
  recomputes this section under ``engine="auto"`` (the batched engine on
  every instance here) and compares it *exactly* against the committed
  file (report-only).
* ``throughput`` — wall-clock comparisons of the dict and batched engines
  on the same instances, including the headline speedup row (Dijkstra
  ring(8), full 390k-state product, synchronous class; target >= 20x on
  expansion).  Timing is machine-dependent and never compared by CI.
* ``frontier`` — the certification rows only the vectorized checker
  reaches in reasonable time: exact speculation gaps on SSME rings
  n = 10 and 12 (1.3M and 15M central-class states) and the synchronous
  certification at n = 14.  Skipped by ``--quick``; the committed numbers
  were measured once and are documentation, not a gate.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from typing import Dict, Optional, Sequence

import random as _random

from repro.experiments.workloads import mutex_workload
from repro.graphs import ring_graph
from repro.mutex import SSME, DijkstraTokenRing, MutualExclusionSpec
from repro.unison import AsynchronousUnison, AsynchronousUnisonSpec
from repro.verify import (
    StateSpace,
    exact_speculation_gap,
    verify_stabilization,
)

#: Expansion-throughput target of the headline speedup row (batched vs
#: dict states/sec on the ring(8) full product).
SPEEDUP_TARGET = 20.0


def _rss_mb() -> float:
    """Process high-water RSS in MB (monotone; run rows small-to-large)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _result_facts(result) -> Dict[str, object]:
    return {
        "states": result.state_count,
        "transitions": result.transition_count,
        "exact_worst_steps": result.exact_worst_case,
        "legitimate": result.legitimate_count,
        "stabilizes": result.stabilizes,
    }


def deterministic_headline() -> Dict[str, Dict[str, object]]:
    """The engine-independent certification facts CI compares exactly.

    Cheap enough for CI: every row solves in a few seconds, even on the
    pure-Python dict engine.
    """
    rows: Dict[str, Dict[str, object]] = {}

    protocol = DijkstraTokenRing.on_ring(6)
    specification = MutualExclusionSpec(protocol)
    result = verify_stabilization(protocol, specification, "synchronous")
    rows["dijkstra-ring6-K7-synchronous-full"] = _result_facts(result)

    for n in (8, 12):
        protocol = SSME(ring_graph(n))
        specification = MutualExclusionSpec(protocol)
        workload = mutex_workload(protocol, _random.Random(0), random_count=6)
        result = verify_stabilization(
            protocol, specification, "synchronous", workload
        )
        facts = _result_facts(result)
        facts["paper_bound"] = protocol.synchronous_stabilization_bound()
        rows[f"ssme-ring{n}-synchronous-region"] = facts

    protocol = AsynchronousUnison(ring_graph(4), alpha=2, K=8)
    specification = AsynchronousUnisonSpec(protocol)
    full = verify_stabilization(protocol, specification, "synchronous")
    rows["unison-ring4-synchronous-full"] = _result_facts(full)

    return rows


def throughput_rows() -> Dict[str, Dict[str, object]]:
    """Dict-vs-batched wall clock on identical instances."""
    from repro.verify import (
        BatchedTransitionSystem,
        TransitionSystem,
        solve,
        solve_arrays,
    )

    rows: Dict[str, Dict[str, object]] = {}

    # Headline speedup: ring(8) full K^n product, synchronous class.
    protocol = DijkstraTokenRing.on_ring(8, K=5)
    specification = MutualExclusionSpec(protocol)
    space = StateSpace(protocol)

    t0 = time.perf_counter()
    dict_system = TransitionSystem(
        protocol, specification, "synchronous", space=space,
        max_states=1_000_000,
    ).explore_full()
    t1 = time.perf_counter()
    solve(dict_system)
    t2 = time.perf_counter()

    t3 = time.perf_counter()
    batched_system = BatchedTransitionSystem(
        protocol, specification, "synchronous", space=space,
        max_states=1_000_000,
    ).explore_full()
    t4 = time.perf_counter()
    solve_arrays(batched_system)
    t5 = time.perf_counter()

    states = dict_system.state_count
    assert states == batched_system.state_count
    expand_speedup = (t1 - t0) / (t4 - t3)
    rows["dijkstra-ring8-K5-full-synchronous"] = {
        "states": states,
        "dict_expand_seconds": round(t1 - t0, 3),
        "dict_solve_seconds": round(t2 - t1, 3),
        "batched_expand_seconds": round(t4 - t3, 3),
        "batched_solve_seconds": round(t5 - t4, 3),
        "dict_states_per_second": round(states / (t1 - t0)),
        "batched_states_per_second": round(states / (t4 - t3)),
        "expand_speedup": round(expand_speedup, 1),
        "end_to_end_speedup": round((t2 - t0) / (t5 - t3), 1),
        "speedup_target": SPEEDUP_TARGET,
        "target_met": expand_speedup >= SPEEDUP_TARGET,
    }

    return rows


def frontier_rows() -> Dict[str, Dict[str, object]]:
    """Certification rows beyond the dict engine's practical reach."""
    rows: Dict[str, Dict[str, object]] = {}

    protocol = SSME(ring_graph(14))
    specification = MutualExclusionSpec(protocol)
    workload = mutex_workload(protocol, _random.Random(0), random_count=6)
    t0 = time.perf_counter()
    result = verify_stabilization(
        protocol, specification, "synchronous", workload
    )
    dt = time.perf_counter() - t0
    facts = _result_facts(result)
    facts["paper_bound"] = protocol.synchronous_stabilization_bound()
    facts["seconds"] = round(dt, 2)
    rows["ssme-ring14-synchronous-region"] = facts

    for n, cap in ((10, 20_000_000), (12, 60_000_000)):
        protocol = SSME(ring_graph(n))
        specification = MutualExclusionSpec(protocol)
        workload = mutex_workload(protocol, _random.Random(1), random_count=6)
        t0 = time.perf_counter()
        certificate = exact_speculation_gap(
            protocol, specification, "central", "synchronous", workload,
            engine="batched", max_states=cap,
        )
        dt = time.perf_counter() - t0
        strong = certificate.strong
        rows[f"ssme-ring{n}-exact-gap"] = {
            "strong_states": strong.state_count,
            "strong_transitions": strong.transition_count,
            "strong_worst_steps": strong.exact_worst_case,
            "weak_worst_steps": certificate.weak.exact_worst_case,
            "gap_factor": certificate.gap_factor,
            "speculation_pays": certificate.speculation_pays,
            "seconds": round(dt, 1),
            "states_per_second": round(strong.state_count / dt),
            "peak_rss_mb": round(_rss_mb()),
        }
        print(
            f"  ssme-ring{n}-exact-gap: {dt:.1f}s "
            f"gap={certificate.gap_factor}",
            file=sys.stderr,
        )
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json",
        metavar="PATH",
        default="BENCH_verify.json",
        help="where to write the JSON summary (default: BENCH_verify.json)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="skip the frontier rows (the ring(12) gap alone takes ~10 min)",
    )
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    print("deterministic headline ...", file=sys.stderr)
    headline = deterministic_headline()
    print("throughput rows ...", file=sys.stderr)
    throughput = throughput_rows()
    frontier: Dict[str, Dict[str, object]] = {}
    if not args.quick:
        print("frontier rows (ring(12) gap takes ~10 min) ...", file=sys.stderr)
        frontier = frontier_rows()

    speedup_row = throughput["dijkstra-ring8-K5-full-synchronous"]
    payload = {
        "benchmark": "verify_vectorized",
        "code_version": "verify-vectorized/1",
        "engine": "auto",
        "headline_verify": headline,
        "throughput": throughput,
        "frontier": frontier,
        "headline_speedup": {
            "instance": "dijkstra-ring8-K5-full-synchronous",
            "expand_speedup": speedup_row["expand_speedup"],
            "target": SPEEDUP_TARGET,
            "met": speedup_row["target_met"],
        },
        "peak_rss_mb": round(_rss_mb()),
        "wall_seconds": round(time.perf_counter() - t0, 1),
    }
    with open(args.json, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.json}", file=sys.stderr)
    if not speedup_row["target_met"]:
        print(
            f"::warning::headline expansion speedup "
            f"{speedup_row['expand_speedup']}x below the "
            f"{SPEEDUP_TARGET}x target",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Engine-scaling benchmark: steps/sec across engine backends.

Measures the simulation step throughput of the reference full-rescan engine
against the incremental dirty-set engine (both trace modes) and the
NumPy-vectorized array-state kernel across ring sizes and daemons, and
writes a JSON summary so the performance trajectory is tracked across PRs.

Not collected by pytest (``bench_*`` prefix); run it directly::

    PYTHONPATH=src python benchmarks/bench_engine_scaling.py
    PYTHONPATH=src python benchmarks/bench_engine_scaling.py --quick
    PYTHONPATH=src python benchmarks/bench_engine_scaling.py --json BENCH_engine.json

Every engine measures the **same trajectory**: identical initial
configuration, seed and step budget (earlier revisions gave the incremental
engine a 4x budget, which made it time a different — more expensive,
post-stabilization — phase of the run than the reference did).  Rows report
the **median** over ``--repeats`` timed runs (recorded per row), so the
report-only CI speedup checks are less sensitive to scheduler noise than
the best-of-two they replaced.

Headline numbers (acceptance criteria of the engine PRs):

* ``headline`` — central daemon (``cd``) on ``ring_graph(200)``:
  incremental >= 10x reference steps/sec (PR 1, dirty-set engine);
* ``headline_sd`` — synchronous daemon (``sd``) on ``ring_graph(200)``:
  incremental >= 5x (PR 2, batched in-place view refresh);
* ``headline_sd_vector`` — synchronous daemon on ``ring_graph(800)``
  (largest measured size under ``--quick``): vector kernel >= 15x the
  reference engine (PR 3, array-state kernel);
* ``headline_sd_superstep`` — synchronous daemon on ``ring_graph(3200)``
  (degrades to the largest measured size under ``--quick``): vector
  kernel in supersteps >= 50x the reference engine.  The reference
  baseline for this one row is measured at n=3200 directly (a few seconds
  of full rescans).

The ``vector`` engine runs only synchronous-daemon runs, in batched
supersteps (``VectorEngine.run_supersteps``); under any other daemon it
resolves to the incremental engine.  So ``vector`` rows are measured for
``sd`` only, and every one of them times the superstep loop.  The dense
regime is also swept at ``n ∈ {3200, 10000}`` (sd only; the reference
engine appears only in the n=3200 baseline row) and the superstep regime
at ``n ∈ {100000, 1000000}`` (light traces only: per-step states dominate
memory at 1e6).  Those rows start from the **legitimate** configuration —
their step budget is far below the ~n synchronous steps a random initial
needs to stabilize at these sizes, so a random start would measure the
reset churn rather than the steady state; each row records which
``initial`` it timed.

Every row records ``peak_rss_mb`` — the process-wide high-water RSS after
the row's runs (``getrusage``, Linux/macOS only, ``null`` elsewhere).
The counter is monotone, so a row's value is an *upper* bound attributable
to it only because rows run smallest-size first; read deltas between
consecutive rows, not absolutes.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import statistics
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

try:
    import resource
except ImportError:  # pragma: no cover - Windows
    resource = None  # type: ignore[assignment]

from repro.core import (
    CentralDaemon,
    DistributedDaemon,
    Simulator,
    SynchronousDaemon,
)
from repro.graphs import ring_graph
from repro.unison import AsynchronousUnison

DEFAULT_SIZES = (50, 200, 800)
QUICK_SIZES = (50, 200)

#: Dense-regime scaling sizes: sd only; the reference engine is measured
#: at SUPERSTEP_HEADLINE_N alone (to baseline the superstep headline) and
#: skipped everywhere else in this range.
LARGE_SIZES = (3200, 10000)

#: Superstep-regime scaling sizes: sd only, vector light traces only — the
#: superstep checkpoint-and-replay trace keeps memory at a few state arrays.
HUGE_SIZES = (100_000, 1_000_000)

#: The size whose reference-engine baseline anchors headline_sd_superstep.
SUPERSTEP_HEADLINE_N = 3200

DAEMON_FACTORIES = {
    "cd": CentralDaemon,
    "sd": SynchronousDaemon,
    "dd": lambda: DistributedDaemon(0.5),
}

#: Engine modes of the main sweep; the ``vector`` modes run for ``sd`` only.
ENGINE_MODES = (
    ("reference", "full"),
    ("incremental", "full"),
    ("incremental", "light"),
    ("vector", "full"),
    ("vector", "light"),
)

#: Modes measured at the LARGE_SIZES rows (all sd).
LARGE_ENGINE_MODES = (
    ("incremental", "light"),
    ("vector", "full"),
    ("vector", "light"),
)


def _steps_for(n: int) -> int:
    """The per-run step budget.

    Identical for every engine: speedups are only meaningful when both
    engines simulate the same execution prefix (a shorter budget would
    keep the reference engine inside the cheap convergence phase while the
    incremental engine times the expensive stabilized phase).  Up to
    n=200 the budget covers stabilization of the unison on a ring, so most
    of the window measures the steady state; at larger sizes the window is
    an (engine-identical) mix of convergence and steady state from a
    random initial — the dedicated LARGE_SIZES rows start from the
    legitimate configuration to time the pure steady state instead.
    """
    return max(120, 480_000 // n)


def _peak_rss_mb() -> Optional[int]:
    """Process-wide high-water RSS in MB (monotone; None off Unix)."""
    if resource is None:
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KB, macOS bytes.
    if sys.platform == "darwin":
        rss //= 1024
    return rss // 1024


def _measure(
    protocol: AsynchronousUnison,
    daemon_name: str,
    engine: str,
    trace: str,
    steps: int,
    seed: int,
    repeats: int,
    initial_kind: str = "random",
) -> Dict[str, object]:
    if initial_kind == "legitimate":
        initial = protocol.legitimate_configuration(0)
    else:
        initial = protocol.random_configuration(random.Random(seed))
    rates: List[float] = []
    resolved = engine
    for _ in range(repeats):
        simulator = Simulator(
            protocol,
            DAEMON_FACTORIES[daemon_name](),
            rng=random.Random(seed + 1),
            engine=engine,
            trace=trace,
        )
        resolved = simulator.engine
        start = time.perf_counter()
        execution = simulator.run(initial, max_steps=steps)
        elapsed = time.perf_counter() - start
        if execution.steps == 0:
            raise RuntimeError("benchmark run performed no steps")
        rates.append(execution.steps / elapsed)
    return {
        "n": protocol.graph.n,
        "daemon": daemon_name,
        "engine": engine,
        "resolved_engine": resolved,
        "trace": trace,
        "steps": steps,
        "repeats": repeats,
        "initial": initial_kind,
        "steps_per_sec": round(statistics.median(rates), 1),
        "peak_rss_mb": _peak_rss_mb(),
    }


def run_benchmark(
    sizes: Sequence[int] = DEFAULT_SIZES,
    daemons: Sequence[str] = tuple(DAEMON_FACTORIES),
    large_sizes: Sequence[int] = LARGE_SIZES,
    huge_sizes: Sequence[int] = HUGE_SIZES,
    seed: int = 0,
    repeats: int = 3,
) -> Dict[str, object]:
    """Run the full sweep and return the JSON-ready summary."""
    import numpy

    rows: List[Dict[str, object]] = []

    def measure_into_rows(protocol, daemon_name, engine, trace, steps, initial_kind="random"):
        row = _measure(
            protocol,
            daemon_name,
            engine,
            trace,
            steps=steps,
            seed=seed,
            repeats=repeats,
            initial_kind=initial_kind,
        )
        rows.append(row)
        print(
            f"ring({row['n']:>5})  {row['daemon']:<3} "
            f"{row['engine']:<11} trace={row['trace']:<5} "
            f"{row['steps_per_sec']:>12,.1f} steps/s  (median of {repeats})"
        )

    for n in sizes:
        # alpha=n, K=n+1 (the defaults) are always valid; the exact hole/cyclo
        # validation is skipped because it does not scale to the n>=3200 rows.
        protocol = AsynchronousUnison(ring_graph(n), validate_parameters=False)
        for daemon_name in daemons:
            for engine, trace in ENGINE_MODES:
                if engine == "vector" and daemon_name != "sd":
                    continue
                measure_into_rows(protocol, daemon_name, engine, trace, _steps_for(n))

    # Dense-regime scaling rows: the reference engine is deliberately
    # skipped (minutes per run), so these rows have no speedup entry —
    # they track absolute steps/sec of the fast backends only.  The run
    # starts from the legitimate configuration: at these sizes the step
    # budget is far below the ~alpha = n steps a random initial needs to
    # stabilize, so a random start would time the reset/converge churn
    # instead of the steady state these rows exist to track (the n <= 800
    # rows keep the random initial — their budget covers stabilization,
    # so they measure the same mixed trajectory as the speedup headlines).
    for n in large_sizes:
        # alpha=n, K=n+1 (the defaults) are always valid; the exact hole/cyclo
        # validation is skipped because it does not scale to the n>=3200 rows.
        protocol = AsynchronousUnison(ring_graph(n), validate_parameters=False)
        modes: Tuple[Tuple[str, str], ...] = LARGE_ENGINE_MODES
        if n == SUPERSTEP_HEADLINE_N:
            # The one reference baseline in this range, anchoring
            # headline_sd_superstep (a few seconds of full rescans).
            modes = (("reference", "full"),) + modes
        for engine, trace in modes:
            measure_into_rows(
                protocol, "sd", engine, trace, _steps_for(n), initial_kind="legitimate"
            )

    # Superstep-regime rows: light traces only — a full trace materializes
    # one (n,)-state array per step, which at these sizes is the very cost
    # the checkpoint-and-replay design exists to avoid.
    for n in huge_sizes:
        protocol = AsynchronousUnison(ring_graph(n), validate_parameters=False)
        measure_into_rows(
            protocol, "sd", "vector", "light", _steps_for(n), initial_kind="legitimate"
        )

    def throughput(n: int, daemon: str, engine: str, trace: str) -> Optional[float]:
        for row in rows:
            if (row["n"], row["daemon"], row["engine"], row["trace"]) == (
                n,
                daemon,
                engine,
                trace,
            ):
                return float(row["steps_per_sec"])
        return None

    speedups: List[Dict[str, object]] = []
    for n in sizes:
        for daemon_name in daemons:
            base = throughput(n, daemon_name, "reference", "full")
            if not base:
                continue
            for engine, trace in ENGINE_MODES[1:]:
                new = throughput(n, daemon_name, engine, trace)
                if new:
                    speedups.append(
                        {
                            "n": n,
                            "daemon": daemon_name,
                            "engine": engine,
                            "trace": trace,
                            "speedup_vs_reference": round(new / base, 2),
                        }
                    )

    def make_headline(daemon: str, engine: str, n: int, target: float) -> Dict[str, object]:
        base = throughput(n, daemon, "reference", "full")
        full = throughput(n, daemon, engine, "full")
        light = throughput(n, daemon, engine, "light")
        if not (base and full and light):
            return {}
        return {
            "daemon": daemon,
            "n": n,
            "engine": engine,
            "reference_steps_per_sec": base,
            f"{engine}_full_speedup": round(full / base, 2),
            f"{engine}_light_speedup": round(light / base, 2),
            "target": target,
            "meets_target": max(full, light) / base >= target,
        }

    headline = make_headline("cd", "incremental", 200, 10.0) if 200 in sizes and "cd" in daemons else {}
    headline_sd = make_headline("sd", "incremental", 200, 5.0) if 200 in sizes and "sd" in daemons else {}
    # The vector headline prefers the acceptance size n=800; under --quick
    # it degrades to the largest measured size so CI still gets a signal.
    vector_n = 800 if 800 in sizes else max(sizes)
    headline_sd_vector = (
        make_headline("sd", "vector", vector_n, 15.0) if "sd" in daemons else {}
    )
    if headline_sd_vector and vector_n != 800:
        # Quick-mode fallback size: the 15x acceptance target was set at
        # n=800 and is borderline at n=200 — informational there, never a
        # failure exit (CI's own check stays report-only either way).
        headline_sd_vector["degraded"] = True
    # The superstep headline prefers the n=3200 baseline row; under --quick
    # (no large sizes, hence no 3200 reference) it degrades to the largest
    # size of the main sweep, like the vector headline.
    superstep_n = (
        SUPERSTEP_HEADLINE_N if SUPERSTEP_HEADLINE_N in large_sizes else vector_n
    )
    headline_sd_superstep = (
        make_headline("sd", "vector", superstep_n, 50.0)
        if "sd" in daemons
        else {}
    )
    if headline_sd_superstep and superstep_n != SUPERSTEP_HEADLINE_N:
        # Measured at a quick-mode fallback size where the full-sweep 50x
        # target is not expected to hold: informational, never a failure
        # exit.
        headline_sd_superstep["degraded"] = True

    return {
        "benchmark": "engine_scaling",
        "topology": "ring",
        "protocol": "AsynchronousUnison",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "rows": rows,
        "speedups": speedups,
        "headline": headline,
        "headline_sd": headline_sd,
        "headline_sd_vector": headline_sd_vector,
        "headline_sd_superstep": headline_sd_superstep,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json",
        metavar="PATH",
        default="BENCH_engine.json",
        help="where to write the JSON summary (default: BENCH_engine.json)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="skip the n=800, dense-regime (n>=3200) and superstep-regime "
        "(n>=100000) sweeps (CI)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timed runs per row; the row reports their median (default: 3)",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    sizes = QUICK_SIZES if args.quick else DEFAULT_SIZES
    large_sizes: Sequence[int] = () if args.quick else LARGE_SIZES
    huge_sizes: Sequence[int] = () if args.quick else HUGE_SIZES
    summary = run_benchmark(
        sizes=sizes,
        large_sizes=large_sizes,
        huge_sizes=huge_sizes,
        seed=args.seed,
        repeats=args.repeats,
    )
    with open(args.json, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2)
        handle.write("\n")
    print(f"\nwrote {args.json}")
    status = 0
    for key, label in (
        ("headline", "cd/incremental"),
        ("headline_sd", "sd/incremental"),
        ("headline_sd_vector", "sd/vector"),
        ("headline_sd_superstep", "sd/vector"),
    ):
        head = summary.get(key)
        if not head:
            continue
        engine = head["engine"]
        if head.get("degraded"):
            verdict = (
                "PASS" if head["meets_target"] else "MISS at quick-mode size, informational"
            )
        else:
            verdict = "PASS" if head["meets_target"] else "FAIL"
        print(
            f"{key}: {label}/ring({head['n']}) speedup "
            f"full={head[f'{engine}_full_speedup']}x "
            f"light={head[f'{engine}_light_speedup']}x "
            f"(target >= {head['target']}x: {verdict})"
        )
        if not head["meets_target"] and not head.get("degraded"):
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

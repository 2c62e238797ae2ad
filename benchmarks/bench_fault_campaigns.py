"""E9 — regenerate the fault-campaign recovery headlines.

Usage::

    PYTHONPATH=src python benchmarks/bench_fault_campaigns.py                 # full grid
    PYTHONPATH=src python benchmarks/bench_fault_campaigns.py --quick        # smoke tier only
    PYTHONPATH=src python benchmarks/bench_fault_campaigns.py --json BENCH_faults.json

Unlike the engine-scaling benchmark, everything written to the JSON here is
**deterministic**: availability, recovery times and unsafe-window lengths
are pure functions of each scenario's pinned seed, identical across
machines, Python versions and engine backends (the engine-equivalence
suite pins that).  CI therefore recomputes the
headlines of the full grid and compares them *exactly* against the
committed ``BENCH_faults.json``, flagging missing and stale rows alike —
report-only, so an intentional semantic change shows up as a warning until
the file is regenerated.  Wall-clock timing is
printed to stderr only and never written to the JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from repro.core.simulator import ENGINES
from repro.experiments import fault_campaigns

#: The per-scenario report columns that are deterministic recovery
#: headlines (everything the CI check compares).
HEADLINE_KEYS = (
    "tier",
    "events",
    "availability",
    "longest_unsafe_window",
    "max_recovery",
    "last_recovery",
    "final_n",
    "final_safe",
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json",
        metavar="PATH",
        default="BENCH_faults.json",
        help="where to write the JSON summary (default: BENCH_faults.json)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="run only the smoke-tier scenarios",
    )
    parser.add_argument(
        "--engine",
        default="auto",
        choices=ENGINES,
        help="engine backend (headlines are identical for all of them)",
    )
    args = parser.parse_args(argv)

    started = time.time()
    report = fault_campaigns.run_experiment(
        tier="smoke" if args.quick else None, engine=args.engine
    )
    elapsed = time.time() - started

    headline = {
        row["scenario"]: {key: row[key] for key in HEADLINE_KEYS}
        for row in report.rows
    }
    data = {
        "benchmark": "fault_campaigns",
        "code_version": fault_campaigns.CODE_VERSION,
        "engine": args.engine,
        "scenarios": len(report.rows),
        "all_recovered_after_last_disruption": report.summary[
            "all_recovered_after_last_disruption"
        ],
        "mean_availability": report.summary["mean_availability"],
        "headline_recovery": headline,
    }
    with open(args.json, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")

    print(report.to_text())
    print(
        f"\nwrote {args.json} ({len(report.rows)} scenario(s) in {elapsed:.2f}s)",
        file=sys.stderr,
    )
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())

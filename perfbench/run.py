"""The repository's benchmark: reproducing the paper's results, timed.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sync-ring --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process each
    python3 perfbench/run.py --workload all --size paper   # the larger, quoted instances
    python3 perfbench/selftest.py                      # toy-size self-tests

One invocation runs one workload (see ``workloads.py``) in a fresh process,
so set-up time and peak memory belong to that workload.  Load comes from
this one process; no worker pool is used.

Untraced run (``--trace 0``): the workload is set up, then passes of the
timed body repeat while another pass should still end within ``--seconds``
of the process start, set-up included; at least five passes run whatever
the budget.  Before the first pass and after every pass the run times a
fixed reference load that never calls the program (``calibrate.py``).
The host's speed drifts by up to 1.6x from one minute to the next, so
every time below is rescaled to the nominal host speed: multiplied by
``calibrate.NOMINAL_S`` over the reference time measured beside it.
End-to-end metrics:

* ``setup_s``: interpreter start to first timed call -- the imports, graph
  and protocol construction, witnesses and workload generation, temp-store
  creation.  Imports make most of it on some workloads and vary from one
  process to the next, so it is the median over this process and four
  fresh processes that only set up (``--setup-only 1``), each rescaled by
  the reference load that process timed right after its set-up;
* ``norm_wall_s``: median time of one pass of the timed body, without the
  correctness checks, each pass rescaled by the mean of the reference
  times on its two sides;
* ``norm_work_per_s``: work of a pass divided by its rescaled time, median
  over passes; the work unit is simulation steps (sync-ring), certified
  states (exact-gap) or jobs served, hits included (cached-sweep);
* ``peak_rss_mb``: peak resident memory of the process.

The unscaled medians and every reference time are in the details line.

Traced run (``--trace 1``): the set-up runs once, traced; then an untraced
pass, a traced pass and another untraced pass.  Spans wrap the public entry
points of every layer (``tracer.py``); the per-layer metrics cover the
set-up and the traced pass, and ``trace.overhead_s`` is the traced pass's
time minus the mean of the two untraced ones.  The spans are written to
``.perfbench_work/trace-<workload>.json`` (totals) and ``.spans`` (every
span) at exit.

Every pass is checked: an operation (a stabilization run, a certification,
or a job) that raises or fails its check counts as failed.  Facts that must
repeat exactly -- across passes, between the traced and untraced pass, and
against ``reference.json`` at seeds 0 and 1 of the bench and paper sizes
-- are checked too.

The last line of standard output is the result object; the lines before it
hold the environment header (including the backend every simulation
resolved to) and the per-operation details.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
WORKLOAD_NAMES = ("sync-ring", "exact-gap", "cached-sweep")
SIZES = ("bench", "paper")
#: Processes whose set-up ``setup_s`` takes the median over.
SETUP_SAMPLES = 5
MIN_PASSES = 5

END_TO_END = {"setup_s": "s", "norm_wall_s": "s", "norm_work_per_s": "1/s", "peak_rss_mb": "MB"}

#: (metric, span name, which total) read straight off the recorder.
_SPAN_METRICS = (
    ("kernel.enabled_rules_calls", "kernel.enabled_rules", "calls"),
    ("kernel.enabled_rules_s", "kernel.enabled_rules", "inclusive"),
    ("kernel.fire_calls", "kernel.fire", "calls"),
    ("kernel.fire_s", "kernel.fire", "inclusive"),
    ("core.graphindex_reduce_calls", "core.graphindex_reduce", "calls"),
    ("core.graphindex_reduce_s", "core.graphindex_reduce", "inclusive"),
    ("core.run_calls", "core.run", "calls"),
    ("core.run_s", "core.run", "inclusive"),
    ("core.run_self_s", "core.run", "self"),
    ("core.daemon_select_calls", "core.daemon_select", "calls"),
    ("core.daemon_select_s", "core.daemon_select", "inclusive"),
    ("core.monitor_observe_calls", "core.monitor_observe", "calls"),
    ("core.monitor_observe_s", "core.monitor_observe", "inclusive"),
    ("spec.is_safe_calls", "spec.is_safe", "calls"),
    ("spec.is_safe_s", "spec.is_safe", "inclusive"),
    ("graphs.bfs_calls", "graphs.bfs", "calls"),
    ("graphs.bfs_s", "graphs.bfs", "inclusive"),
    ("lowerbound.witness_calls", "lowerbound.witness", "calls"),
    ("lowerbound.witness_s", "lowerbound.witness", "inclusive"),
    ("experiments.workload_s", "experiments.workload", "inclusive"),
    ("mutex.protocol_init_s", "mutex.protocol_init", "inclusive"),
    ("verify.space_s", "verify.space", "inclusive"),
    ("verify.explore_s", "verify.explore", "inclusive"),
    ("verify.solve_s", "verify.solve", "inclusive"),
    ("verify.lasso_s", "verify.lasso", "inclusive"),
    ("jobs.spec_key_calls", "jobs.spec_key", "calls"),
    ("jobs.spec_key_s", "jobs.spec_key", "inclusive"),
    ("jobs.store_get_calls", "jobs.store_get", "calls"),
    ("jobs.store_get_s", "jobs.store_get", "inclusive"),
    ("jobs.store_put_calls", "jobs.store_put", "calls"),
    ("jobs.store_put_s", "jobs.store_put", "inclusive"),
    ("jobs.journal_s", "jobs.journal", "inclusive"),
    ("jobs.execute_calls", "jobs.execute", "calls"),
    ("jobs.execute_s", "jobs.execute", "inclusive"),
    ("experiments.emit_s", "experiments.emit", "inclusive"),
    ("experiments.aggregate_s", "experiments.aggregate", "inclusive"),
)

#: Layers (span-name prefixes) whose self time is reported; ``bench`` is
#: the time spent outside every traced entry point.
LAYERS = ("kernel", "core", "spec", "graphs", "lowerbound", "experiments", "mutex", "verify", "jobs", "bench")

PER_LAYER = {
    **{metric: ("count" if total == "calls" else "s") for metric, _span, total in _SPAN_METRICS},
    "core.steps": "count",
    "kernel.calls_per_step": "ratio",
    "core.observe_per_step": "ratio",
    "verify.states": "count",
    "verify.transitions": "count",
    "verify.transitions_per_state": "ratio",
    "jobs.hit_ratio": "ratio",
    "jobs.warm_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

_clock = time.perf_counter


def _load_modules():
    """Import the program from this checkout's ``src`` (never an installed
    copy) and the benchmark's own modules."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}")
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import tracer, workloads

    return tracer, workloads


# ---------------------------------------------------------------------- #
# Environment header
# ---------------------------------------------------------------------- #
def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy

    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": seed,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------- #
# Passes and checks
# ---------------------------------------------------------------------- #
def _run_pass(workload, state, runlog, timed=contextlib.nullcontext) -> dict:
    """One pass: untimed preparation, the timed body, then the checks."""
    workload.prepare(state)
    runlog.clear()
    with timed():
        start = _clock()
        ops = workload.run_pass(state, runlog)
        wall = _clock() - start
    workload.check(ops, state)
    return {
        "wall": wall,
        "ops": ops,
        "work": workload.work(ops),
        "phases": workload.phases(state),
        "backends": runlog.backends(),
        "steps": runlog.steps(),
    }


def _require_same_facts(baseline, ops, why: str) -> None:
    for expected, op in zip(baseline, ops):
        if op.facts != expected.facts:
            op.fail(f"facts differ from {why}: {expected.facts!r}")


def _check_reference(ops, reference) -> None:
    for op in ops:
        for fact, value in reference.get("ops", {}).get(op.label, {}).items():
            if op.facts.get(fact) != value:
                op.fail(f"{fact}={op.facts.get(fact)!r} differs from the reference {value!r}")


def _counts(ops) -> dict:
    """The pass's deterministic counts (they must repeat exactly)."""
    jobs = sum(op.facts.get("jobs", 0) for op in ops)
    return {
        "core.steps": sum(op.facts.get("steps", 0) for op in ops),
        "verify.states": sum(op.facts.get("states", 0) for op in ops),
        "verify.transitions": sum(op.facts.get("transitions", 0) for op in ops),
        "jobs.hit_ratio": sum(op.facts.get("hits", 0) for op in ops) / jobs if jobs else 0.0,
    }


def _tally(passes) -> tuple:
    attempted = failed = 0
    failures = []
    for number, run in enumerate(passes, 1):
        for op in run["ops"]:
            attempted += op.weight
            if not op.ok:
                failed += op.weight
                failures.append({"pass": number, **op.to_dict()})
    return attempted, failed, failures


def _load_reference(name: str, seed: int, size: str, reference):
    if reference is None:
        if size not in SIZES:
            return {}
        reference = json.loads(REFERENCE.read_text())[size]
    return reference.get(name, {}).get(str(seed), {})


# ---------------------------------------------------------------------- #
# The two kinds of run
# ---------------------------------------------------------------------- #
def run_workload(name, seed=0, seconds=10.0, trace=False, size="bench", reference=None, import_s=0.0):
    """Run one workload; returns ``(environment, details, result)``.

    ``reference`` replaces the size's part of ``reference.json`` (which has
    no toy part); the self-tests plant wrong values in it.
    """
    tracer, workloads = _load_modules()
    workload = workloads.WORKLOADS[name](seed, size, work_dir=WORK_DIR)
    expected = _load_reference(name, seed, size, reference)
    runlog = tracer.RunLog()
    try:
        if trace:
            details, metrics, passes = _traced(tracer, workload, runlog, expected)
        else:
            details, metrics, passes = _untraced(workload, runlog, seconds, import_s)
    finally:
        runlog.remove()
    for run in passes:
        _check_reference(run["ops"], expected)
    attempted, failed, failures = _tally(passes)
    backends = {}
    for run in passes:
        for label, count in run["backends"].items():
            backends[label] = backends.get(label, 0) + count
    env = {**environment(seed), "workload": name, "size": size, "trace": int(bool(trace)), "backends": backends}
    details.update(
        workload=name,
        work_unit=workload.work_unit,
        passes=[
            {"wall_s": run["wall"], "work": run["work"], "phases": run["phases"], "backends": run["backends"]}
            for run in passes
        ],
        ops=[op.to_dict() for op in passes[0]["ops"]],
        counts=_counts(passes[0]["ops"]),
        failures=failures,
        failed_ratio={"value": failed / attempted, "unit": "ratio"},
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return env, details, result


def _fresh_setup(workload) -> tuple:
    """Set-up seconds of one fresh process that sets the workload up and
    exits, with the reference load it timed right after."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
        "--seed", str(workload.seed), "--size", workload.size, "--setup-only", "1",
    ]
    completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    seconds, load = completed.stdout.split()[-2:]
    return float(seconds), float(load)


def _untraced(workload, runlog, seconds, import_s):
    start = _clock()
    state = workload.setup()
    setup_s = import_s + _clock() - start
    # Imported after the set-up, which fresh processes time without it.
    from perfbench import calibrate

    nominal = calibrate.NOMINAL_S
    passes = []
    deadline = _PROCESS_START + seconds
    try:
        host = [calibrate.measure()]
        setups = [(setup_s, host[0])] + [_fresh_setup(workload) for _ in range(SETUP_SAMPLES - 1)]
        while True:
            started = _clock()
            passes.append(_run_pass(workload, state, runlog))
            host.append(calibrate.measure())
            passes[-1]["cycle"] = _clock() - started
            # Start another pass only if it should end within the budget.
            cycle = statistics.median(run["cycle"] for run in passes)
            if len(passes) >= MIN_PASSES and _clock() + cycle > deadline:
                break
    finally:
        workload.close(state)
    for run in passes[1:]:
        _require_same_facts(passes[0]["ops"], run["ops"], "the first pass")
    # Each pass is rescaled by the reference load timed on both sides of it.
    scale = [2 * nominal / (before + after) for before, after in zip(host, host[1:])]
    walls = [run["wall"] * factor for run, factor in zip(passes, scale)]
    metrics = {
        "setup_s": statistics.median(taken * nominal / load for taken, load in setups),
        "norm_wall_s": statistics.median(walls),
        "norm_work_per_s": statistics.median(run["work"] / wall for run, wall in zip(passes, walls)),
        "peak_rss_mb": _peak_rss_mb(),
    }
    details = {
        "import_s": import_s,
        "setup_samples_s": [taken for taken, _load in setups],
        "setup_reference_load_s": [load for _taken, load in setups],
        "reference_load_s": host,
        "raw_wall_s": statistics.median(run["wall"] for run in passes),
    }
    return details, {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}, passes


def _traced(tracer, workload, runlog, expected):
    recorder = tracer.Recorder()

    @contextlib.contextmanager
    def traced(span_name):
        patches = tracer.instrument(recorder)
        try:
            with recorder.span(span_name):
                yield
        finally:
            patches.remove()

    runlog.clear()
    with traced("bench.setup"):
        state = workload.setup()
    setup_steps = runlog.steps()
    # Untraced passes on both sides of the traced one: their mean cancels
    # the first pass's warm-up and slow drift out of the overhead.
    try:
        before = _run_pass(workload, state, runlog)
        traced_pass = _run_pass(workload, state, runlog, timed=lambda: traced("bench.pass"))
        after = _run_pass(workload, state, runlog)
    finally:
        workload.close(state)
    _require_same_facts(before["ops"], traced_pass["ops"], "the untraced pass")
    _require_same_facts(before["ops"], after["ops"], "the first pass")
    untraced_wall = (before["wall"] + after["wall"]) / 2

    metrics = {}
    for metric, span, total in _SPAN_METRICS:
        calls, inclusive, self_time = recorder.totals(span)
        metrics[metric] = {"calls": calls, "inclusive": inclusive, "self": self_time}[total]
    counts = _counts(traced_pass["ops"])
    steps = setup_steps + traced_pass["steps"]
    layer_self = recorder.layer_self_times()
    metrics.update(
        {
            "core.steps": steps,
            "kernel.calls_per_step": metrics["kernel.enabled_rules_calls"] / steps if steps else 0.0,
            "core.observe_per_step": metrics["core.monitor_observe_calls"] / steps if steps else 0.0,
            "verify.states": counts["verify.states"],
            "verify.transitions": counts["verify.transitions"],
            "verify.transitions_per_state": (
                counts["verify.transitions"] / counts["verify.states"] if counts["verify.states"] else 0.0
            ),
            "jobs.hit_ratio": counts["jobs.hit_ratio"],
            "jobs.warm_s": traced_pass["phases"].get("warm", 0.0),
            **{f"{layer}.self_s": layer_self.get(layer, 0.0) for layer in LAYERS},
            "trace.wall_s": traced_pass["wall"],
            "trace.untraced_wall_s": untraced_wall,
            "trace.overhead_s": traced_pass["wall"] - untraced_wall,
            "trace.spans": recorder.span_count(),
        }
    )
    trace_file = WORK_DIR / f"trace-{workload.name}.json"
    recorder.write(trace_file)

    # Layer counts such as kernel calls may legitimately change with the
    # engine, so they are compared with the reference but never fail the run.
    details = {
        "trace_file": str(trace_file.relative_to(ROOT)),
        "setup_steps": setup_steps,
        "reference_counts": {
            name: {"value": metrics[name], "reference": value, "matches": metrics[name] == value}
            for name, value in expected.get("counts", {}).items()
        },
    }
    per_layer = {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER.items()}
    return details, per_layer, [before, traced_pass, after]


# ---------------------------------------------------------------------- #
# Command line
# ---------------------------------------------------------------------- #
def _run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--size", args.size,
        ]
        completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = completed.stdout.strip().splitlines()
        print(f"== {name} (exit {completed.returncode})")
        if lines:
            result = json.loads(lines[-1])
            for metric, entry in result["metrics"].items():
                print(f"  {metric:34s} {entry['value']:>18.6g} {entry['unit']}")
            failed_ratio = result["failed"] / result["attempted"]
            print(f"  {'failed_ratio':34s} {failed_ratio:>18.6g} ratio "
                  f"({result['failed']} of {result['attempted']} operations)")
        status = status or completed.returncode or int(not lines or not result["correct"])
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark for reproducing the paper's results.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES + ("toy",), default="bench")
    parser.add_argument("--setup-only", type=int, choices=(0, 1), default=0,
                        help="set the workload up, print the seconds since start and the "
                             "reference load's seconds, exit")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    _tracer, workloads = _load_modules()
    if args.setup_only:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.size, work_dir=WORK_DIR)
        state = workload.setup()
        setup_s = _clock() - _PROCESS_START
        workload.close(state)
        from perfbench import calibrate

        print(setup_s, calibrate.measure())
        return 0
    import_s = _clock() - _PROCESS_START
    env, details, result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.size, import_s=import_s
    )
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps(result), flush=True)
    return int(not result["correct"])


if __name__ == "__main__":
    sys.exit(main())

"""Span recorder and the instrumentation that feeds it.

Every layer is measured from outside: :func:`instrument` replaces the
public entry points listed in :func:`_span_targets` (methods on their classes,
functions in every ``repro`` module that imported them) with thin wrappers
that open a span on entry and close it on exit, and
:meth:`Instrumentation.remove` puts the originals back.  Nothing under
``src/`` is edited, and an uninstrumented process runs the original code.

The recorder keeps every span as ``(name, parent, start, end)`` in flat
arrays, aggregates per-name counts, outermost inclusive time and self time
online, and writes the spans out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Tuple

__all__ = ["Recorder", "Instrumentation", "RunLog", "instrument"]

_clock = time.perf_counter


class Recorder:
    """In-memory span store with online per-name aggregation.

    A span's self time is its duration minus the durations of its direct
    children; a name's inclusive time only counts spans with no enclosing
    span of the same name, so recursion and nested entry points (one
    witness builder calling another) are not counted twice.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: List[int] = []
        self._child_time: List[float] = []
        self._depth: List[int] = []
        self.calls: List[int] = []
        self.inclusive: List[float] = []
        self.self_time: List[float] = []

    def name_id(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = len(self.names)
            self._ids[name] = ident
            self.names.append(name)
            self._depth.append(0)
            self.calls.append(0)
            self.inclusive.append(0.0)
            self.self_time.append(0.0)
        return ident

    def open(self, ident: int) -> int:
        index = len(self.span_name)
        self.span_name.append(ident)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._child_time.append(0.0)
        self._stack.append(index)
        self._depth[ident] += 1
        self.span_start.append(_clock())
        return index

    def close(self, index: int) -> None:
        end = _clock()
        self.span_end[index] = end
        stack = self._stack
        # Spans close in LIFO order; popping down to ``index`` keeps the
        # stack consistent even if an inner wrapper was bypassed by an
        # exception escaping a generator.
        while stack and stack.pop() != index:
            pass
        duration = end - self.span_start[index]
        ident = self.span_name[index]
        self.calls[ident] += 1
        self.self_time[ident] += duration - self._child_time[index]
        self._depth[ident] -= 1
        if self._depth[ident] == 0:
            self.inclusive[ident] += duration
        parent = self.span_parent[index]
        if parent >= 0:
            self._child_time[parent] += duration

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the ``with`` block as one span named ``name``."""
        index = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(index)

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def span_count(self) -> int:
        return len(self.span_name)

    def totals(self, name: str) -> Tuple[int, float, float]:
        """``(calls, inclusive seconds, self seconds)`` of one span name."""
        ident = self._ids.get(name)
        if ident is None:
            return 0, 0.0, 0.0
        return self.calls[ident], self.inclusive[ident], self.self_time[ident]

    def layer_self_times(self) -> Dict[str, float]:
        """Self time per layer, the layer being a span name's prefix."""
        layers: Dict[str, float] = {}
        for ident, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + self.self_time[ident]
        return layers

    def write(self, path: Path) -> None:
        """Write every span (name, parent, start, end) and the per-name
        totals: a JSON index beside a compact binary span table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        table = path.with_suffix(".spans")
        with open(table, "wb") as handle:
            for column in (self.span_name, self.span_parent, self.span_start, self.span_end):
                column.tofile(handle)
        index = {
            "spans": self.span_count(),
            "columns": [["name", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]],
            "table": table.name,
            "names": self.names,
            "totals": {
                name: {
                    "calls": self.calls[ident],
                    "inclusive_s": self.inclusive[ident],
                    "self_s": self.self_time[ident],
                }
                for ident, name in enumerate(self.names)
            },
            "layer_self_s": self.layer_self_times(),
        }
        path.write_text(json.dumps(index, indent=1, sort_keys=True) + "\n")


def _traced(recorder: Recorder, name: str, fn: Callable) -> Callable:
    ident = recorder.name_id(name)
    open_span = recorder.open
    close_span = recorder.close

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = open_span(ident)
        try:
            return fn(*args, **kwargs)
        finally:
            close_span(index)

    return wrapper


class Instrumentation:
    """A set of attribute replacements that can be undone."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def replace(self, owner: object, attr: str, value: object) -> None:
        # Classes keep the raw descriptor (a property, not its value).
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _subclasses(cls: type) -> List[type]:
    found, pending = [cls], [cls]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return found


def _methods(base: type, names: Tuple[str, ...]) -> List[Tuple[type, str]]:
    """Every (class, name) where ``base`` or a subclass defines ``name``."""
    return [
        (cls, name)
        for cls in _subclasses(base)
        for name in names
        if name in cls.__dict__ and not getattr(cls.__dict__[name], "__isabstractmethod__", False)
    ]


def _span_targets() -> Dict[str, Tuple[List[Tuple[type, str]], List[Callable]]]:
    """span name -> (methods to wrap, module-level functions to wrap)."""
    import repro.baselines.array_kernel  # noqa: F401  (registers kernels)
    import repro.mutex.array_kernel  # noqa: F401
    import repro.unison.array_kernel  # noqa: F401
    from repro.core import GraphIndex, SafetyMonitor, Simulator, Specification
    from repro.core.daemons import Daemon
    from repro.core.vector import ArrayKernel
    from repro.experiments import theorem2_sync_upper, theorem3_async_upper, workloads
    from repro.graphs import Graph
    from repro.jobs import JobSpec, dispatcher, store
    from repro.lowerbound import construction, witness
    from repro.mutex import SSME, DijkstraTokenRing
    from repro.verify import batched, solver, statespace, transitions

    return {
        "kernel.enabled_rules": (_methods(ArrayKernel, ("enabled_rules", "enabled_rules_for")), []),
        "kernel.fire": (_methods(ArrayKernel, ("fire",)), []),
        "core.graphindex_reduce": (
            _methods(
                GraphIndex,
                (
                    "any_over_edges",
                    "all_over_edges",
                    "min_over_edges",
                    "max_over_edges",
                    "any_over_subset",
                    "all_over_subset",
                ),
            ),
            [],
        ),
        "core.run": ([(Simulator, "run")], []),
        "core.daemon_select": (_methods(Daemon, ("select",)), []),
        "core.monitor_observe": ([(SafetyMonitor, "observe")], []),
        "spec.is_safe": (_methods(Specification, ("is_safe",)), []),
        "graphs.bfs": ([(Graph, "bfs_distances")], []),
        "lowerbound.witness": (
            [],
            [
                witness.immediate_double_privilege_configuration,
                witness.delayed_double_privilege_configuration,
                witness.latest_violation_configuration,
                witness.spliced_violation_configurations,
                witness.farthest_vertex_pairs,
                witness.adversarial_mutex_configurations,
                construction.construct_double_privilege_witness,
            ],
        ),
        "experiments.workload": ([], [workloads.mutex_workload]),
        "mutex.protocol_init": ([(SSME, "__init__"), (DijkstraTokenRing, "__init__")], []),
        "verify.space": ([(statespace.StateSpace, "__init__")], []),
        "verify.explore": (
            [
                (batched.BatchedTransitionSystem, "explore"),
                (batched.BatchedTransitionSystem, "explore_full"),
                (transitions.TransitionSystem, "explore"),
                (transitions.TransitionSystem, "explore_full"),
            ],
            [],
        ),
        "verify.solve": ([], [batched.solve_arrays, solver.solve]),
        "verify.lasso": ([(batched.ArrayGameSolution, "lasso"), (solver.GameSolution, "lasso")], []),
        "jobs.spec_key": ([(JobSpec, "spec_key")], []),
        "jobs.store_get": ([(store.ResultStore, "get")], []),
        "jobs.store_put": ([(store.ResultStore, "put")], []),
        "jobs.journal": ([(store.Journal, "begin"), (store.Journal, "record_done")], []),
        "jobs.execute": ([], [dispatcher.execute_job]),
        "experiments.emit": ([], [theorem2_sync_upper.emit_jobs, theorem3_async_upper.emit_jobs]),
        "experiments.aggregate": ([], [theorem2_sync_upper._aggregate, theorem3_async_upper._aggregate]),
    }


def _rebind_function(patches: Instrumentation, original: Callable, replacement: Callable) -> None:
    """Point every loaded ``repro`` (and benchmark) module name bound to
    ``original`` at ``replacement`` — callers that did ``from x import f``
    hold their own reference."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith(("repro.", "perfbench"))):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                patches.replace(module, attr, replacement)


def instrument(recorder: Recorder) -> Instrumentation:
    """Wrap every traced entry point; undo with ``.remove()``."""
    patches = Instrumentation()
    for name, (methods, functions) in _span_targets().items():
        for owner, attr in methods:
            current = owner.__dict__[attr]
            if isinstance(current, property):
                patches.replace(owner, attr, property(_traced(recorder, name, current.fget)))
            else:
                patches.replace(owner, attr, _traced(recorder, name, current))
        for function in functions:
            _rebind_function(patches, function, _traced(recorder, name, function))
    return patches


class RunLog:
    """Always-on record of every ``Simulator.run``: the resolved engine,
    the backend the run actually used, and its step count.

    One wrapper frame per run (not per step), so it is kept in untraced
    runs too: a silent fallback to the dict path shows up as a changed
    backend label, not only as a slower number.
    """

    def __init__(self) -> None:
        from repro.core import Simulator

        self.runs: List[Tuple[str, str, int]] = []
        self._patches = Instrumentation()
        original = Simulator.run
        log = self.runs

        @functools.wraps(original)
        def run(simulator, *args, **kwargs):
            execution = original(simulator, *args, **kwargs)
            log.append((simulator.engine, str(simulator.last_run_backend), execution.steps))
            return execution

        self._patches.replace(Simulator, "run", run)

    def clear(self) -> None:
        del self.runs[:]

    def steps(self) -> int:
        return sum(steps for _engine, _backend, steps in self.runs)

    def backend_of_last_run(self) -> str:
        engine, backend, _steps = self.runs[-1]
        return f"{engine}->{backend}"

    def backends(self) -> Dict[str, int]:
        """``"engine->backend"`` label -> number of runs."""
        return dict(sorted(Counter(f"{engine}->{backend}" for engine, backend, _ in self.runs).items()))

    def remove(self) -> None:
        self._patches.remove()


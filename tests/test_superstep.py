"""Unit tests for the superstep execution path of the array backend.

The engine equivalence suite pins the ``vector`` engine — which runs
supersteps whenever the daemon is synchronous — trace-for-trace against
the reference engine through the simulator; these tests drive
:meth:`VectorEngine.run_supersteps` directly, with the checkpoint spacing
monkeypatched to adversarial values (1, 3, 5 against traces hundreds of
steps long), mostly against the reference engine under the synchronous
daemon as the oracle.  They pin what the array loop adds over a
step-by-step run: one kernel firing per step during the run whatever the
``stop_when`` (each index observed on the loop's own state), checkpointed
replay at non-checkpoint indices, terminal detection, the fixed-point
fast-forward, the vectorized sparse guard refresh (subset kernels),
in-kernel safety monitoring (verdicts from ``safe_rows``, no ``is_safe``
call, a wrapped predicate called after them), and the row-wise safety
checks of ``spec_ME``/``spec_AU`` (``privileged_rows``, ``safe_rows``).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import vector as vector_module
from repro.core import (
    ArrayKernel,
    Configuration,
    Execution,
    GraphIndex,
    IntCodec,
    LazyEnabledSets,
    Protocol,
    Rule,
    SafetyMonitor,
    Simulator,
    Specification,
    SynchronousDaemon,
    VectorEngine,
    measure_stabilization,
)
from repro.exceptions import SimulationError
from repro.graphs import grid_graph, random_connected_graph, ring_graph, star_graph
from repro.lowerbound import immediate_double_privilege_configuration
from repro.mutex import SSME, DijkstraTokenRing
from repro.mutex.specification import MutualExclusionSpec, PrivilegeCount
from repro.unison import AsynchronousUnison, AsynchronousUnisonSpec


def _records(execution, index):
    return sorted(
        (r.vertex, r.rule_name, r.old_state, r.new_state)
        for r in execution.activation_records(index)
    )


def _reference_run(protocol, initial, max_steps, trace="full", stop_when=None):
    """The oracle: the reference engine under the synchronous daemon."""
    return Simulator(
        protocol, SynchronousDaemon(), rng=random.Random(0), engine="reference"
    ).run(initial, max_steps=max_steps, stop_when=stop_when, trace=trace)


def _assert_same_trace(actual, expected):
    assert actual.steps == expected.steps
    assert actual.truncated == expected.truncated
    for i in range(expected.steps + 1):
        assert dict(actual.configuration(i)) == dict(expected.configuration(i)), i
    for i in range(expected.steps):
        assert actual.selection(i) == expected.selection(i), i
        assert actual.enabled_at(i) == expected.enabled_at(i), i
        assert _records(actual, i) == _records(expected, i), i


def _space_checkpoints(monkeypatch, spacing):
    """Checkpoint every ``spacing`` steps in the runs that follow."""
    monkeypatch.setattr(VectorEngine, "CHECKPOINT_SPACING", spacing)


PROTOCOLS = {
    "ssme": lambda: SSME(ring_graph(12)),
    "unison": lambda: AsynchronousUnison(ring_graph(11), validate_parameters=False),
    "dijkstra": lambda: DijkstraTokenRing(ring_graph(9)),
}


@pytest.mark.parametrize("protocol_name", sorted(PROTOCOLS))
@pytest.mark.parametrize("spacing", [1, 3, 5, 64])
@pytest.mark.parametrize("trace", ["full", "light"])
def test_supersteps_match_single_step_at_every_cadence(
    protocol_name, spacing, trace, monkeypatch
):
    """Checkpoints at awkward spacings never shift the replayed trace."""
    _space_checkpoints(monkeypatch, spacing)
    protocol = PROTOCOLS[protocol_name]()
    initial = protocol.random_configuration(random.Random(7))
    engine = VectorEngine(protocol)
    single = _reference_run(protocol, initial, max_steps=200, trace=trace)
    batched = engine.run_supersteps(
        initial,
        max_steps=200,
        trace=trace,
    )
    _assert_same_trace(batched, single)


@pytest.mark.parametrize("trace", ["full", "light"])
def test_light_trace_random_access_at_non_checkpoint_indices(trace):
    """Replayed configurations are exact at arbitrary indices, visited in
    arbitrary order (backward seeks reload the nearest checkpoint)."""
    protocol = SSME(ring_graph(10))
    initial = protocol.random_configuration(random.Random(3))
    engine = VectorEngine(protocol)
    oracle = _reference_run(protocol, initial, max_steps=150, trace="full")
    batched = engine.run_supersteps(
        initial,
        max_steps=150,
        trace=trace,
    )
    for i in (150, 1, 63, 64, 65, 0, 127, 30, 128, 129, 99, 2):
        assert dict(batched.configuration(i)) == dict(oracle.configuration(i)), i
    for i in (149, 5, 64, 63, 100):
        assert _records(batched, i) == _records(oracle, i), i
    assert batched.count_rounds() == oracle.count_rounds()


@pytest.mark.parametrize("target", [0, 1, 6, 63, 64, 65, 130])
def test_stop_when_keeps_the_exact_prefix(target, monkeypatch):
    """A trigger between checkpoints keeps exactly the reference engine's
    prefix, replayed from the checkpoints."""
    _space_checkpoints(monkeypatch, 4)
    protocol = SSME(ring_graph(10))
    initial = protocol.random_configuration(random.Random(5))
    engine = VectorEngine(protocol)

    def runner(run):
        seen = []

        def stop_when(configuration, index):
            seen.append(index)
            return index >= target

        return run(stop_when), seen

    single, seen_single = runner(
        lambda stop_when: _reference_run(
            protocol, initial, max_steps=200, stop_when=stop_when
        )
    )
    batched, seen_batched = runner(
        lambda stop_when: engine.run_supersteps(
            initial,
            max_steps=200,
            stop_when=stop_when,
        )
    )
    # The predicate observes the same gapless index sequence...
    assert seen_batched == seen_single == list(range(target + 1))
    # ...and the recorded prefixes are identical.
    _assert_same_trace(batched, single)
    assert batched.steps == target
    assert batched.truncated


# --------------------------------------------------------------------- #
# Terminal detection and fixed points
# --------------------------------------------------------------------- #
class CountdownProtocol(Protocol):
    """Each vertex counts its own state down to 0, then disables —
    terminates after max(initial) steps, between two checkpoints."""

    name = "countdown"
    actions_preserve_validity = True

    def __init__(self, graph):
        super().__init__(graph)
        self._rules = [
            Rule("tick", lambda view: view.state > 0, lambda view: view.state - 1)
        ]

    def rules(self):
        return self._rules

    def random_state(self, vertex, rng):
        return rng.randrange(12)

    def array_codec(self):
        return IntCodec()

    def array_kernel(self):
        return CountdownKernel()


class CountdownKernel(ArrayKernel):
    rule_names = ("tick",)

    def enabled_rules(self, states, index):
        return np.where(states[:, 0] > 0, np.int64(0), np.int64(-1))

    def fire(self, states, selected, rule_ids, index):
        return states[selected] - 1


class StutterProtocol(Protocol):
    """Always enabled, never changes — the eternal fixed point."""

    name = "stutter"
    actions_preserve_validity = True

    def __init__(self, graph):
        super().__init__(graph)
        self._rules = [Rule("stay", lambda view: True, lambda view: view.state)]

    def rules(self):
        return self._rules

    def random_state(self, vertex, rng):
        return rng.randrange(5)

    def array_codec(self):
        return IntCodec()

    def array_kernel(self):
        return StutterKernel()


class StutterKernel(ArrayKernel):
    rule_names = ("stay",)

    def enabled_rules(self, states, index):
        return np.zeros(index.n, dtype=np.int64)

    def fire(self, states, selected, rule_ids, index):
        return states[selected]


@pytest.mark.parametrize("trace", ["full", "light"])
def test_terminal_detected_mid_block(trace):
    protocol = CountdownProtocol(ring_graph(7))
    initial = protocol.random_configuration(random.Random(9))
    horizon = max(dict(initial).values())
    engine = VectorEngine(protocol)
    single = _reference_run(protocol, initial, max_steps=500, trace=trace)
    batched = engine.run_supersteps(
        initial,
        max_steps=500,
        trace=trace,
    )
    assert batched.steps == single.steps == horizon
    assert batched.is_terminal and not batched.truncated
    _assert_same_trace(batched, single)


@pytest.mark.parametrize("trace", ["full", "light"])
def test_fixed_point_fast_forwards_the_remaining_budget(trace):
    protocol = StutterProtocol(ring_graph(6))
    initial = protocol.random_configuration(random.Random(2))
    engine = VectorEngine(protocol)
    single = _reference_run(protocol, initial, max_steps=300, trace=trace)
    batched = engine.run_supersteps(
        initial,
        max_steps=300,
        trace=trace,
    )
    assert batched.steps == single.steps == 300
    assert batched.truncated
    for i in (0, 1, 150, 299, 300):
        assert dict(batched.configuration(i)) == dict(single.configuration(i))
        if i < 300:
            assert batched.selection(i) == single.selection(i)
            assert _records(batched, i) == _records(single, i)


# --------------------------------------------------------------------- #
# Vectorized sparse guard refresh: subset kernels
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("graph_seed", [0, 3, 8])
@pytest.mark.parametrize("state_seed", [1, 6, 11])
def test_unison_subset_guards_match_full_scan(graph_seed, state_seed):
    graph = random_connected_graph(14, 0.3, random.Random(graph_seed))
    protocol = AsynchronousUnison(graph, validate_parameters=False)
    kernel = protocol.array_kernel()
    codec = protocol.array_codec()
    index = GraphIndex(graph)
    kernel.prepare(index)
    configuration = protocol.random_configuration(random.Random(state_seed))
    states = codec.encode(configuration, index.vertices)
    full = kernel.enabled_rules(states, index)
    rng = random.Random(state_seed + 100)
    for size in (0, 1, 3, 7, index.n):
        rows = np.array(
            sorted(rng.sample(range(index.n), size)), dtype=np.int64
        )
        subset = kernel.enabled_rules_for(states, rows, index)
        assert np.array_equal(subset, full[rows])


@pytest.mark.parametrize("state_seed", [0, 5, 9])
def test_dijkstra_subset_guards_match_full_scan(state_seed):
    protocol = DijkstraTokenRing(ring_graph(11))
    kernel = protocol.array_kernel()
    codec = protocol.array_codec()
    index = GraphIndex(protocol.graph)
    kernel.prepare(index)
    configuration = protocol.random_configuration(random.Random(state_seed))
    states = codec.encode(configuration, index.vertices)
    full = kernel.enabled_rules(states, index)
    rng = random.Random(state_seed + 100)
    for size in (0, 1, 4, index.n):
        rows = np.array(
            sorted(rng.sample(range(index.n), size)), dtype=np.int64
        )
        subset = kernel.enabled_rules_for(states, rows, index)
        assert np.array_equal(subset, full[rows])


@pytest.mark.parametrize(
    "graph",
    [ring_graph(40), grid_graph(6, 7), star_graph(30), star_graph(1000)],
    ids=["ring", "grid", "star", "hub"],
)
def test_dirty_rows_matches_np_unique(graph):
    """The sort-and-compare dedup returns exactly ``np.unique`` of the
    changed rows plus their neighbours: sorted, unique, same dtype."""
    index = GraphIndex(graph)
    rng = random.Random(index.n)
    for size in (0, 1, 2, 5, index.n // 2, index.n):
        for _ in range(4):
            changed = np.array(
                sorted(rng.sample(range(index.n), size)), dtype=np.int64
            )
            starts = index.indptr[changed]
            stops = index.indptr[changed + 1]
            neighbors = np.concatenate(
                [index.indices[a:b] for a, b in zip(starts, stops)]
                + [np.empty(0, dtype=np.int64)]
            )
            expected = np.unique(np.concatenate((changed, neighbors)))
            actual = index.dirty_rows(changed)
            assert actual.dtype == expected.dtype
            assert np.array_equal(actual, expected), (size, changed)


def _unison_staircase():
    """Unison on ring(40) with clock i at vertex i: only the lowest clock
    can tick at first, and the enabled set grows a few rows per step."""
    protocol = AsynchronousUnison(ring_graph(40), validate_parameters=False)
    return protocol, protocol.configuration({v: v for v in protocol.graph.vertices})


def _dijkstra_random():
    protocol = DijkstraTokenRing(ring_graph(24))
    return protocol, protocol.random_configuration(random.Random(4))


@pytest.mark.parametrize(
    "case", [_unison_staircase, _dijkstra_random], ids=["unison", "dijkstra"]
)
def test_subset_refresh_keeps_sparse_selections_exact(case, monkeypatch):
    """Synchronous runs whose steps fire few rows exercise the in-place
    ``rule_ids`` patching of the sparse guard refresh."""
    protocol, initial = case()
    reference = _reference_run(protocol, initial, max_steps=120)
    subset_calls = []
    kernel_type = type(protocol.array_kernel())
    original = kernel_type.enabled_rules_for

    def counted(self, states, rows, index):
        subset_calls.append(int(rows.size))
        return original(self, states, rows, index)

    monkeypatch.setattr(kernel_type, "enabled_rules_for", counted)
    vectorized = Simulator(
        protocol, SynchronousDaemon(), rng=random.Random(1), engine="vector"
    )
    assert vectorized.engine == "vector"
    execution = vectorized.run(initial, max_steps=120)
    assert vectorized.last_run_backend == "vector"
    assert subset_calls and max(subset_calls) < protocol.graph.n
    _assert_same_trace(execution, reference)


# --------------------------------------------------------------------- #
# In-kernel safety monitoring: a SafetyMonitor is never replayed
# --------------------------------------------------------------------- #
MONITORED_SPECS = {
    "ssme": lambda p: [MutualExclusionSpec(p), AsynchronousUnisonSpec(p)],
    "unison": lambda p: [AsynchronousUnisonSpec(p)],
    "dijkstra": lambda p: [MutualExclusionSpec(p)],
}


class _CountingFire:
    """Counts a kernel's ``fire`` calls (installed on the instance)."""

    def __init__(self, kernel):
        self.calls = 0
        self._fire = kernel.fire
        kernel.fire = self

    def __call__(self, *args):
        self.calls += 1
        return self._fire(*args)


def _no_python_checks(specs):
    """Make the per-configuration ``is_safe`` path fail loudly."""
    for spec in specs:
        def refuse(configuration, protocol):
            raise AssertionError("is_safe called: the run replayed the monitor")

        spec.is_safe = refuse


def _monitor_summary(monitor, specs, execution):
    assert monitor.observed_steps == execution.steps
    return [
        (
            monitor.first_unsafe_index(spec),
            monitor.last_unsafe_index(spec),
            monitor.stabilization_index(spec),
        )
        for spec in specs
    ]


def _reference_summary(protocol_name, protocol, initial, max_steps, trace):
    specs = MONITORED_SPECS[protocol_name](protocol)
    monitor = SafetyMonitor(specs, protocol)
    execution = Simulator(
        protocol, SynchronousDaemon(), rng=random.Random(0),
        engine="reference", trace=trace,
    ).run(initial, max_steps=max_steps, stop_when=monitor.observe)
    return _monitor_summary(monitor, specs, execution), execution


def _superstep_summary(protocol_name, protocol, initial, max_steps, trace):
    specs = MONITORED_SPECS[protocol_name](protocol)
    _no_python_checks(specs)
    monitor = SafetyMonitor(specs, protocol)
    engine = VectorEngine(protocol)
    fire = _CountingFire(engine._kernel)
    execution = engine.run_supersteps(
        initial, max_steps=max_steps,
        stop_when=monitor.observe, trace=trace,
    )
    # Counted before any trace access, which may replay legitimately: the
    # run itself fires once per step in both trace modes.
    fired = fire.calls
    assert fired == execution.steps
    return _monitor_summary(monitor, specs, execution), execution


@pytest.mark.parametrize("protocol_name", sorted(PROTOCOLS))
@pytest.mark.parametrize("spacing", [1, 3, 5, 64])
@pytest.mark.parametrize("trace", ["full", "light"])
def test_in_kernel_monitoring_matches_the_reference_engine(
    protocol_name, spacing, trace, monkeypatch
):
    """First/last unsafe indices and stabilization indices of monitor-only
    superstep runs equal the reference engine's, with no replay and no
    per-configuration ``is_safe`` call.  The full-horizon run starts
    unsafe (index 0); the run cut one step before stabilization ends
    unsafe (stabilization index None)."""
    _space_checkpoints(monkeypatch, spacing)
    protocol = PROTOCOLS[protocol_name]()
    initial = protocol.random_configuration(random.Random(7))
    expected, reference = _reference_summary(
        protocol_name, protocol, initial, 200, trace
    )
    assert any(first == 0 for first, _last, _index in expected)
    assert all(index is not None for _first, _last, index in expected)
    cut = max(index for _first, _last, index in expected) - 1
    assert cut >= 0
    expected_cut, _ = _reference_summary(protocol_name, protocol, initial, cut, trace)
    assert any(index is None for _first, _last, index in expected_cut)

    actual, execution = _superstep_summary(
        protocol_name, protocol, initial, 200, trace
    )
    assert actual == expected
    _assert_same_trace(execution, reference)
    actual_cut, _ = _superstep_summary(
        protocol_name, protocol, initial, cut, trace
    )
    assert actual_cut == expected_cut


def test_in_kernel_monitoring_of_an_immediate_double_privilege(monkeypatch):
    """Theorem 2's witness: spec_ME is violated at index 0 and restored
    within ceil(diam/2) synchronous steps."""
    protocol = SSME(ring_graph(12))
    initial = immediate_double_privilege_configuration(protocol, pair=(0, 6))
    expected, _ = _reference_summary("ssme", protocol, initial, 40, "light")
    _space_checkpoints(monkeypatch, 4)
    actual, _ = _superstep_summary("ssme", protocol, initial, 40, "light")
    assert actual == expected
    first, _last, stabilization = actual[0]
    assert first == 0
    assert 1 <= stabilization <= protocol.synchronous_stabilization_bound()


class _ScalarOnlySpec(MutualExclusionSpec):
    """spec_ME without the batch capability."""

    def safe_rows(self, rows, order, protocol):
        return None


@pytest.mark.parametrize("trace", ["full", "light"])
@pytest.mark.parametrize("case", ["wrapped-stop-when", "no-safe-rows"])
def test_other_monitors_fire_once_per_step(case, trace, monkeypatch):
    """A monitor wrapping a predicate, or monitoring a specification
    without ``safe_rows``, fires the kernel once per step like a bare
    monitor and reports exactly what the in-kernel path reports."""
    _space_checkpoints(monkeypatch, 5)
    protocol = SSME(ring_graph(10))
    initial = protocol.random_configuration(random.Random(5))
    reference = MutualExclusionSpec(protocol)
    reference_monitor = SafetyMonitor([reference], protocol)
    VectorEngine(protocol).run_supersteps(
        initial, max_steps=150,
        stop_when=reference_monitor.observe, trace=trace,
    )

    seen = []

    def never(configuration, index):
        seen.append(index)
        return False

    if case == "wrapped-stop-when":
        spec = MutualExclusionSpec(protocol)
        monitor = SafetyMonitor([spec], protocol, stop_when=never)
    else:
        spec = _ScalarOnlySpec(protocol)
        monitor = SafetyMonitor([spec], protocol)
    engine = VectorEngine(protocol)
    fire = _CountingFire(engine._kernel)
    execution = engine.run_supersteps(
        initial, max_steps=150,
        stop_when=monitor.observe, trace=trace,
    )
    assert fire.calls == execution.steps == 150
    if case == "wrapped-stop-when":
        assert seen == list(range(151))
    assert monitor.observed_steps == reference_monitor.observed_steps == 150
    for query in ("first_unsafe_index", "last_unsafe_index", "stabilization_index"):
        assert getattr(monitor, query)(spec) == getattr(reference_monitor, query)(reference)


def _stop_when_of(kind, protocol, target):
    """A fresh ``stop_when`` of one kind, stopping at index ``target`` (or
    never, when None) where the kind can stop a run."""
    def predicate(configuration, index):
        return target is not None and index >= target

    if kind == "none":
        return None
    if kind == "predicate":
        return predicate
    if kind == "scalar-only-monitor":
        return SafetyMonitor([_ScalarOnlySpec(protocol)], protocol).observe
    wrapped = predicate if kind == "wrapped-monitor" else None
    return SafetyMonitor(
        [MutualExclusionSpec(protocol)], protocol, stop_when=wrapped
    ).observe


STOP_WHEN_KINDS = [
    "none", "bare-monitor", "wrapped-monitor", "scalar-only-monitor", "predicate"
]


@pytest.mark.parametrize("trace", ["full", "light"])
@pytest.mark.parametrize("kind", STOP_WHEN_KINDS)
def test_kernel_fires_once_per_step_for_every_stop_when(kind, trace, monkeypatch):
    """Before any trace read, a run fires the kernel exactly once per
    step, whatever observes it: no second cursor, no post-run replay.
    Predicates that can stop the run stop it at index 97."""
    _space_checkpoints(monkeypatch, 5)
    protocol = SSME(ring_graph(10))
    initial = protocol.random_configuration(random.Random(5))
    stop_when = _stop_when_of(kind, protocol, 97)
    engine = VectorEngine(protocol)
    fire = _CountingFire(engine._kernel)
    execution = engine.run_supersteps(
        initial, max_steps=150,
        stop_when=stop_when, trace=trace,
    )
    fired = fire.calls
    stops = kind in ("wrapped-monitor", "predicate")
    assert execution.steps == (97 if stops else 150)
    assert fired == execution.steps
    reference = _reference_run(
        protocol, initial, 150, trace, stop_when=_stop_when_of(kind, protocol, 97)
    )
    _assert_same_trace(execution, reference)


@pytest.mark.parametrize("trace", ["full", "light"])
def test_fixed_point_fires_once_in_total(trace):
    """A fixed point fast-forwards a large budget after its one firing,
    full traces included (their configurations are shared, not decoded)."""
    protocol = StutterProtocol(ring_graph(64))
    initial = protocol.random_configuration(random.Random(2))
    engine = VectorEngine(protocol)
    fire = _CountingFire(engine._kernel)
    execution = engine.run_supersteps(
        initial, max_steps=100_000, trace=trace,
    )
    assert fire.calls == 1
    assert execution.steps == 100_000 and execution.truncated
    for i in (0, 1, 99_999, 100_000):
        assert dict(execution.configuration(i)) == dict(initial)


class _ConstantSpec(Specification):
    """Safe in every configuration, or in none; judged in-kernel too."""

    def __init__(self, safe):
        self.safe = safe
        self.name = "always-safe" if safe else "never-safe"

    def is_safe(self, configuration, protocol):
        return self.safe

    def safe_rows(self, rows, order, protocol):
        return np.full(len(rows), self.safe)


@pytest.mark.parametrize("trace", ["full", "light"])
def test_fixed_point_fast_forwards_a_bare_monitor(trace):
    """A bare in-kernel monitor keeps the fixed-point fast-forward: one
    firing whatever the budget, and the monitor reads as if it had seen
    the repeated configuration at every remaining index."""
    protocol = StutterProtocol(ring_graph(64))
    initial = protocol.random_configuration(random.Random(2))

    def monitored(run, budget, no_python_checks):
        specs = [_ConstantSpec(True), _ConstantSpec(False)]
        if no_python_checks:
            _no_python_checks(specs)
        monitor = SafetyMonitor(specs, protocol)
        execution = run(monitor.observe, budget)
        assert execution.steps == budget and execution.truncated
        return [monitor.observed_steps] + [
            (
                monitor.first_unsafe_index(spec),
                monitor.last_unsafe_index(spec),
                monitor.stabilization_index(spec),
            )
            for spec in specs
        ]

    def superstep_run(stop_when, budget):
        engine = VectorEngine(protocol)
        fire = _CountingFire(engine._kernel)
        execution = engine.run_supersteps(
            initial, max_steps=budget,
            stop_when=stop_when, trace=trace,
        )
        assert fire.calls == 1
        return execution

    def reference_run(stop_when, budget):
        return _reference_run(protocol, initial, budget, trace, stop_when)

    expected = monitored(reference_run, 300, no_python_checks=False)
    assert expected == [300, (None, None, 0), (0, 300, None)]
    assert monitored(superstep_run, 300, no_python_checks=True) == expected
    assert monitored(superstep_run, 100_000, no_python_checks=True) == [
        100_000, (None, None, 0), (0, 100_000, None)
    ]


@pytest.mark.parametrize("trace", ["full", "light"])
@pytest.mark.parametrize("target", [None, 0, 5, 37], ids=["never", "0", "5", "37"])
def test_wrapped_monitor_predicate_sees_in_kernel_verdicts(target, trace):
    """A monitor wrapping a predicate stays in-kernel: no ``is_safe``
    call, and its predicate sees indices 0..steps in order with the
    reference engine's ``is_currently_safe`` at each; stopping at
    ``target`` keeps the reference engine's prefix."""
    protocol = SSME(ring_graph(12))
    initial = immediate_double_privilege_configuration(protocol, pair=(0, 6))

    def observed_run(run, no_python_checks):
        spec = MutualExclusionSpec(protocol)
        if no_python_checks:
            _no_python_checks([spec])
        seen = []

        def predicate(configuration, index):
            seen.append((index, monitor.is_currently_safe(spec)))
            return target is not None and index >= target

        monitor = SafetyMonitor([spec], protocol, stop_when=predicate)
        return run(monitor.observe), seen

    reference, expected = observed_run(
        lambda stop_when: _reference_run(protocol, initial, 60, trace, stop_when),
        no_python_checks=False,
    )
    execution, seen = observed_run(
        lambda stop_when: VectorEngine(protocol).run_supersteps(
            initial, max_steps=60,
            stop_when=stop_when, trace=trace,
        ),
        no_python_checks=True,
    )
    assert [index for index, _safe in seen] == list(range(execution.steps + 1))
    assert seen == expected
    assert seen[0] == (0, False)
    if target is None:
        assert seen[-1] == (60, True)
    assert execution.steps == (60 if target is None else target)
    _assert_same_trace(execution, reference)


def test_observe_verdicts_keeps_the_gapless_index_contract():
    protocol = SSME(ring_graph(6))
    spec = MutualExclusionSpec(protocol)
    monitor = SafetyMonitor([spec], protocol)
    monitor.observe_verdicts([True], 0)
    monitor.observe_verdicts([False], 1)
    with pytest.raises(SimulationError):
        monitor.observe_verdicts([True], 3)
    assert monitor.stabilization_index(spec) is None
    monitor.observe_verdicts([True], 2)
    assert monitor.stabilization_index(spec) == 2


# --------------------------------------------------------------------- #
# Array privilege/safety caches keyed on the vertex order
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "factory",
    [lambda: SSME(ring_graph(11)), lambda: DijkstraTokenRing(ring_graph(11))],
    ids=["ssme", "dijkstra"],
)
def test_privileged_rows_alternating_orders(factory):
    """The cached per-order index vectors never leak from one vertex order
    into another: alternating calls agree with the Python predicate."""
    protocol = factory()
    codec = protocol.array_codec()
    forward = tuple(protocol.graph.vertices)
    orders = (forward, tuple(reversed(forward)), forward, tuple(reversed(forward)))
    configurations = [
        protocol.random_configuration(random.Random(seed)) for seed in range(6)
    ]
    configurations.append(protocol.configuration({v: 0 for v in forward}))
    for order in orders:
        rows = np.stack([codec.encode(c, order) for c in configurations])
        expected = np.array(
            [[protocol.is_privileged(c, v) for v in order] for c in configurations]
        )
        assert np.array_equal(protocol.privileged_rows(rows, order), expected)
        spec = MutualExclusionSpec(protocol)
        assert spec.safe_rows(rows, order, protocol).tolist() == [
            spec.is_safe(c, protocol) for c in configurations
        ]


def test_unison_safe_rows_alternating_orders():
    protocol = AsynchronousUnison(ring_graph(9), validate_parameters=False)
    spec = AsynchronousUnisonSpec(protocol)
    codec = protocol.array_codec()
    forward = tuple(protocol.graph.vertices)
    configurations = [
        protocol.random_configuration(random.Random(seed)) for seed in range(6)
    ]
    configurations.append(protocol.legitimate_configuration())
    expected = [spec.is_safe(c, protocol) for c in configurations]
    assert True in expected and False in expected
    for order in (forward, tuple(reversed(forward)), forward, tuple(reversed(forward))):
        rows = np.stack([codec.encode(c, order) for c in configurations])
        assert spec.safe_rows(rows, order, protocol).tolist() == expected


# --------------------------------------------------------------------- #
# Lazy enabled-set log: positions recorded, frozensets built on read
# --------------------------------------------------------------------- #
def _recorded_enabled(execution):
    return [execution.enabled_at(i) for i in range(len(execution._enabled_sets))]


@pytest.mark.parametrize("protocol_name", sorted(PROTOCOLS))
@pytest.mark.parametrize("trace", ["full", "light"])
@pytest.mark.parametrize("stop_at", [None, 0, 37], ids=["no-stop", "stop-0", "stop-37"])
def test_lazy_enabled_sets_match_the_reference_engine(
    protocol_name, trace, stop_at, monkeypatch
):
    """Every recorded enabled set and selection of a superstep run equals
    the reference engine's, with and without a ``stop_when`` (whose
    trigger ends the position log at the kept prefix)."""
    _space_checkpoints(monkeypatch, 8)
    protocol = PROTOCOLS[protocol_name]()
    initial = protocol.random_configuration(random.Random(11))
    stop_when = None if stop_at is None else (lambda c, i: i >= stop_at)
    reference = Simulator(
        protocol, SynchronousDaemon(), rng=random.Random(0),
        engine="reference", trace=trace,
    ).run(initial, max_steps=150, stop_when=stop_when)
    batched = VectorEngine(protocol).run_supersteps(
        initial, max_steps=150,
        stop_when=stop_when, trace=trace,
    )
    assert isinstance(batched._enabled_sets, LazyEnabledSets)
    assert isinstance(batched._selections, LazyEnabledSets)
    assert batched.steps == reference.steps == (150 if stop_at is None else stop_at)
    assert len(batched._enabled_sets) == len(reference._enabled_sets)
    assert _recorded_enabled(batched) == _recorded_enabled(reference)
    for i in range(batched.steps):
        assert batched.selection(i) == reference.selection(i), i
        # Selections slice the enabled-set log and share its cache.
        assert batched.selection(i) is batched.enabled_at(i)
    assert batched.count_rounds() == reference.count_rounds()


def test_fixed_point_fast_forward_shares_one_enabled_set():
    protocol = StutterProtocol(ring_graph(6))
    initial = protocol.random_configuration(random.Random(2))
    execution = VectorEngine(protocol).run_supersteps(
        initial, max_steps=300,
    )
    enabled = execution._enabled_sets
    assert enabled.materialized_count == 0
    first = execution.enabled_at(10)
    assert first == frozenset(protocol.graph.vertices)
    assert execution.enabled_at(10) is first
    assert execution.enabled_at(250) is first
    assert execution.enabled_at(300) is first
    assert execution.selection(299) is first
    assert enabled.materialized_count == 1
    assert execution.count_rounds() == 300
    assert enabled.materialized_count == 1


@pytest.mark.parametrize("protocol_name", sorted(PROTOCOLS))
@pytest.mark.parametrize("trace", ["full", "light"])
def test_lazy_enabled_sets_prefix_suffix_and_rounds_match_eager(
    protocol_name, trace, monkeypatch
):
    """``prefix``/``suffix`` keep the lazy log and agree with an execution
    built from the same sets as plain lists; ``count_rounds`` builds each
    distinct set at most once."""
    _space_checkpoints(monkeypatch, 16)
    protocol = PROTOCOLS[protocol_name]()
    initial = protocol.random_configuration(random.Random(4))
    lazy = VectorEngine(protocol).run_supersteps(
        initial, max_steps=120,
        trace=trace,
    )
    positions = lazy._enabled_sets._positions
    distinct = len({id(p) for p in positions})
    assert lazy.count_rounds() == lazy.steps
    assert lazy._enabled_sets.materialized_count <= distinct
    eager = Execution(
        configurations=list(lazy.configurations),
        selections=[lazy.selection(i) for i in range(lazy.steps)],
        activations=[lazy.activation_records(i) for i in range(lazy.steps)],
        enabled_sets=_recorded_enabled(lazy),
        truncated=lazy.truncated,
    )
    assert lazy._enabled_sets.materialized_count == distinct
    for cut in (0, 1, 17, 64, lazy.steps):
        for view, reference in (
            (lazy.prefix(cut), eager.prefix(cut)),
            (lazy.suffix(cut), eager.suffix(cut)),
        ):
            assert isinstance(view._enabled_sets, LazyEnabledSets)
            assert isinstance(view._selections, LazyEnabledSets)
            assert view.steps == reference.steps
            assert view.truncated == reference.truncated
            assert _recorded_enabled(view) == _recorded_enabled(reference)
            assert [view.selection(i) for i in range(view.steps)] == [
                reference.selection(i) for i in range(reference.steps)
            ]
            assert view.count_rounds() == reference.count_rounds()


def test_superstep_round_count_replays_no_kernel_step(monkeypatch):
    """``count_rounds`` on a light superstep trace reads each step's
    recorded selection (every enabled vertex fires under the synchronous
    daemon): no kernel step is replayed once the run has returned."""
    protocol = DijkstraTokenRing(ring_graph(64))
    initial = protocol.random_configuration(random.Random(5))
    reference = Simulator(
        protocol, SynchronousDaemon(), rng=random.Random(0),
        engine="reference", trace="light",
    ).run(initial, max_steps=200)
    kernel_class = type(protocol.array_kernel())
    fire = kernel_class.fire
    calls = []

    def counting(self, *args):
        calls.append(None)
        return fire(self, *args)

    monkeypatch.setattr(kernel_class, "fire", counting)
    _space_checkpoints(monkeypatch, 16)
    execution = VectorEngine(protocol).run_supersteps(
        initial, max_steps=200,
        trace="light",
    )
    fired_during_run = len(calls)
    assert fired_during_run == execution.steps == reference.steps
    assert execution.count_rounds() == reference.count_rounds()
    assert len(calls) == fired_during_run


class _CountingBuild:
    """Counts ``LazyEnabledSets`` frozenset builds across all instances."""

    def __init__(self, monkeypatch):
        self.calls = 0
        build = LazyEnabledSets._build

        def counting(log, positions):
            self.calls += 1
            return build(log, positions)

        monkeypatch.setattr(LazyEnabledSets, "_build", counting)


@pytest.mark.parametrize(
    "factory",
    [lambda: SSME(ring_graph(40)), lambda: DijkstraTokenRing(ring_graph(40))],
    ids=["ssme", "dijkstra"],
)
def test_superstep_runs_build_no_enabled_set_unless_read(factory, monkeypatch):
    builds = _CountingBuild(monkeypatch)
    protocol = factory()
    spec = MutualExclusionSpec(protocol)
    initial = protocol.random_configuration(random.Random(1))
    measurement = measure_stabilization(
        protocol, SynchronousDaemon(), initial, spec, horizon=200,
        trace="light", count_rounds=False,
    )
    assert measurement.stabilized
    assert builds.calls == 0

    simulator = Simulator(
        protocol, SynchronousDaemon(), rng=random.Random(0), trace="light"
    )
    execution = simulator.run(
        initial, max_steps=200, stop_when=SafetyMonitor([spec], protocol).observe
    )
    assert simulator.last_run_backend == "vector"
    assert builds.calls == 0
    enabled = execution.enabled_at(3)
    assert builds.calls == 1
    assert execution.enabled_at(3) is enabled
    assert execution.selection(3) is enabled
    assert builds.calls == 1


# --------------------------------------------------------------------- #
# Dense steps fire by mask; the enabled mask and privilege are tracked
# --------------------------------------------------------------------- #
BRANCH_PROTOCOLS = {
    "unison": lambda: AsynchronousUnison(ring_graph(30), validate_parameters=False),
    "ssme": lambda: SSME(grid_graph(4, 6)),
    "dijkstra": lambda: DijkstraTokenRing(ring_graph(30), K=4),
}


def _force_dense(monkeypatch, dense):
    """Make every step and refresh dense (True) or sparse (False)."""
    monkeypatch.setattr(vector_module, "_dense", lambda rows, n: dense)


def _idle_rows(protocol, engine, states, rule_ids, rows):
    """Make firing ``rows`` change nothing: unison/SSME reset rows already
    at ``-alpha``; Dijkstra non-bottom rows copying an equal predecessor
    (a bottom row among ``rows`` is disabled instead)."""
    if isinstance(protocol, DijkstraTokenRing):
        kernel = engine._kernel
        for row in rows:
            if kernel._is_bottom[row]:
                rule_ids[row] = -1
            else:
                states[row, 0] = states[kernel._pred_pos[row], 0]
                rule_ids[row] = 0
    else:
        states[rows, 0] = -protocol.alpha
        rule_ids[rows] = 2


def _dijkstra_dense_then_sparse():
    """Dijkstra on ring(60) from a random configuration: many privileged
    machines at first (dense steps), one token at the end (sparse)."""
    protocol = DijkstraTokenRing(ring_graph(60))
    return protocol, protocol.random_configuration(random.Random(2))


def _step_both_branches(engine, states, rule_ids, monkeypatch):
    """``(changed, states)`` of one synchronous step from ``states`` with
    cached ``rule_ids``, on the dense branch and on the position branch."""
    outcomes = []
    for dense in (True, False):
        _force_dense(monkeypatch, dense)
        run_state = vector_module._RunState(engine, states.copy())
        run_state.rule_ids = rule_ids.copy()
        run_state.mask = rule_ids != -1
        run_state.count = int(np.count_nonzero(run_state.mask))
        outcomes.append((run_state.step(), run_state.states))
    return outcomes


@pytest.mark.parametrize("protocol_name", sorted(BRANCH_PROTOCOLS))
def test_dense_branch_matches_position_branch(protocol_name, monkeypatch):
    """On random states and random rule ids, firing every row by mask and
    writing the enabled ones back equals firing the enabled positions —
    rows whose firing changes nothing included.  When only such rows are
    enabled, neither branch reports a change, whatever the disabled rows
    would have fired to."""
    protocol = BRANCH_PROTOCOLS[protocol_name]()
    engine = VectorEngine(protocol)
    kernel, index = engine._kernel, engine._index
    rng = np.random.default_rng(7)
    for seed in range(12):
        states = engine.encode_initial(protocol.random_configuration(random.Random(seed)))
        rule_ids = rng.integers(-1, len(kernel.rule_names), index.n)
        idle = np.arange(seed % 3, index.n, 5)
        _idle_rows(protocol, engine, states, rule_ids, idle)
        idle_only = np.full(index.n, -1, dtype=np.int64)
        idle_only[idle] = rule_ids[idle]
        for rids in (rule_ids, idle_only):
            positions = np.flatnonzero(rids != -1)
            every = kernel.fire(states, slice(None), rids, index)
            assert np.array_equal(
                every[positions], kernel.fire(states, positions, rids[positions], index)
            )
            (dense_changed, dense_states), (sparse_changed, sparse_states) = (
                _step_both_branches(engine, states, rids, monkeypatch)
            )
            assert dense_changed == sparse_changed
            assert np.array_equal(dense_states, sparse_states)
            assert np.array_equal(dense_states[rids == -1], states[rids == -1])
        # The last step above enabled only idle rows: nothing changed.
        assert positions.size and not dense_changed
        assert np.array_equal(dense_states, states)


def test_run_state_tracks_rule_ids_mask_and_count():
    """Through dense steps, sparse patches and full rescans, the tracked
    rule ids, mask and count equal a fresh guard evaluation."""
    protocol, initial = _dijkstra_dense_then_sparse()
    engine = VectorEngine(protocol)
    run_state = vector_module._RunState(engine, engine.encode_initial(initial))
    patched = 0
    for _ in range(200):
        run_state.step()
        patched += run_state.dirty is not None
        expected = engine._kernel.enabled_rules(run_state.states, engine._index)
        assert np.array_equal(run_state.rule_ids, expected)
        assert np.array_equal(run_state.mask, expected != -1)
        assert run_state.count == int(np.count_nonzero(expected != -1))
        assert np.array_equal(run_state.positions(), np.flatnonzero(expected != -1))
    assert patched > 0


@pytest.mark.parametrize("protocol_name", sorted(BRANCH_PROTOCOLS))
@pytest.mark.parametrize("dense", [True, False], ids=["all-dense", "all-sparse"])
def test_forced_branches_replay_the_same_run(protocol_name, dense, monkeypatch):
    """Whole runs with every step forced onto one branch equal the
    reference engine: the tracked mask, count and rule ids stay exact."""
    protocol = BRANCH_PROTOCOLS[protocol_name]()
    initial = protocol.random_configuration(random.Random(3))
    engine = VectorEngine(protocol)
    single = _reference_run(protocol, initial, max_steps=120, trace="light")
    _force_dense(monkeypatch, dense)
    _space_checkpoints(monkeypatch, 16)
    batched = engine.run_supersteps(
        initial, max_steps=120,
        trace="light",
    )
    recorded = batched._enabled_sets._positions
    assert all((r.dtype == bool) == dense for r in recorded)
    _assert_same_trace(batched, single)


def test_sparse_steps_leave_recorded_dense_masks_intact():
    """A sparse refresh patches the tracked mask in place; the masks that
    dense steps recorded before it must keep their own configuration's
    enabled set."""
    protocol, initial = _dijkstra_dense_then_sparse()
    engine = VectorEngine(protocol)
    single = _reference_run(protocol, initial, max_steps=200, trace="light")
    batched = engine.run_supersteps(
        initial, max_steps=200, trace="light"
    )
    recorded = batched._enabled_sets._positions
    kinds = [r.dtype == bool for r in recorded]
    handover = [i for i in range(len(kinds) - 1) if kinds[i] and not kinds[i + 1]]
    assert handover, "the run never went from a dense step to a sparse one"
    assert not any(kinds[handover[-1] + 1 :])
    for i in range(len(recorded)):
        assert batched.enabled_at(i) == single.enabled_at(i), i


def test_steady_state_unison_records_one_shared_mask():
    """All 64 clocks tick at every step: one mask object serves the whole
    run, so long steady-state runs keep one record, not one per step."""
    protocol = AsynchronousUnison(ring_graph(64), validate_parameters=False)
    execution = VectorEngine(protocol).run_supersteps(
        protocol.legitimate_configuration(),
        max_steps=300, trace="light",
    )
    recorded = execution._enabled_sets._positions
    assert len(recorded) == 301
    assert len({id(r) for r in recorded}) == 1
    assert recorded[0].dtype == bool and recorded[0].all()


@pytest.mark.parametrize("protocol_name", sorted(BRANCH_PROTOCOLS))
@pytest.mark.parametrize("trace", ["full", "light"])
def test_replayed_actions_after_dense_steps_match_single_step(
    protocol_name, trace, monkeypatch
):
    _space_checkpoints(monkeypatch, 7)
    protocol = BRANCH_PROTOCOLS[protocol_name]()
    initial = protocol.random_configuration(random.Random(8))
    engine = VectorEngine(protocol)
    single = _reference_run(protocol, initial, max_steps=90, trace=trace)
    batched = engine.run_supersteps(
        initial, max_steps=90,
        trace=trace,
    )
    assert any(r.dtype == bool for r in batched._enabled_sets._positions)
    _assert_same_trace(batched, single)
    # Backward, non-sequential reads replay from checkpoints.
    for i in (89, 3, 50, 6, 7, 0):
        assert _records(batched, i) == _records(single, i), i


@pytest.mark.parametrize(
    "factory",
    [lambda: SSME(grid_graph(3, 5)), lambda: DijkstraTokenRing(ring_graph(13), K=5)],
    ids=["ssme", "dijkstra"],
)
def test_privileged_rows_for_matches_privileged_rows(factory):
    protocol = factory()
    codec = protocol.array_codec()
    order = tuple(protocol.graph.vertices)
    rng = random.Random(5)
    for seed in range(10):
        states = codec.encode(protocol.random_configuration(random.Random(seed)), order)
        full = protocol.privileged_rows(states[None], order)[0]
        for size in (0, 1, 3, len(order)):
            rows = np.array(sorted(rng.sample(range(len(order)), size)), dtype=np.int64)
            assert np.array_equal(
                protocol.privileged_rows_for(states, rows, order), full[rows]
            )


class _RecountedPrivilege:
    """A spec_ME tracker whose count is checked against a full recount
    after every update."""

    def __init__(self, tracker, protocol, order, log):
        self._tracker = tracker
        self._protocol = protocol
        self._order = order
        self._log = log

    def update(self, states, rows):
        safe = self._tracker.update(states, rows)
        expected = int(self._protocol.privileged_rows(states[None], self._order)[0].sum())
        assert self._tracker.count == expected
        assert safe == (expected <= 1)
        self._log.append((None if rows is None else rows.copy(), expected))
        return safe


class _RecountedSpec(MutualExclusionSpec):
    def __init__(self, protocol):
        super().__init__(protocol)
        self.log = []

    def safety_tracker(self, order, protocol):
        tracker = super().safety_tracker(order, protocol)
        assert isinstance(tracker, PrivilegeCount)
        return _RecountedPrivilege(tracker, self._protocol, order, self.log)


def _sawtooth(protocol):
    """Clocks ``min(i, n - i)`` around the ring: only the minimum is
    enabled at first, so SSME's first steps are sparse."""
    n = protocol.graph.n
    return protocol.configuration({v: min(v, n - v) for v in protocol.graph.vertices})


@pytest.mark.parametrize(
    "case", ["ssme-random", "ssme-sawtooth", "dijkstra-random", "dijkstra-wrap"]
)
def test_tracked_privileged_count_matches_a_full_recount(case):
    """After every changing step the tracked count equals
    ``privileged_rows(...).sum()``: through dense recounts and sparse
    patches, the bottom machine's firings and its K-1 -> 0 wrap."""
    if case.startswith("ssme"):
        protocol = SSME(ring_graph(24))
        initial = (
            _sawtooth(protocol) if case == "ssme-sawtooth"
            else protocol.random_configuration(random.Random(4))
        )
        horizon = 400
    else:
        protocol = DijkstraTokenRing(ring_graph(9), K=10)
        initial = (
            protocol.legitimate_configuration(value=7) if case == "dijkstra-wrap"
            else protocol.random_configuration(random.Random(4))
        )
        horizon = 150
    spec = _RecountedSpec(protocol)
    monitor = SafetyMonitor([spec], protocol)
    execution = VectorEngine(protocol).run_supersteps(
        initial, max_steps=horizon,
        stop_when=monitor.observe, trace="light",
    )
    assert execution.steps == horizon
    assert spec.log[0][0] is None
    sparse = [(rows, count) for rows, count in spec.log if rows is not None]
    # A random SSME start is dense at every step: full recounts only.
    assert bool(sparse) == (case != "ssme-random")
    if case.startswith("dijkstra"):
        order = VectorEngine(protocol)._index.vertices
        bottom = order.index(protocol.bottom)
        assert any(bottom in rows for rows, _count in sparse)
        values = [c[protocol.bottom] for c in execution.iter_configurations()]
        assert any(
            (a, b) == (protocol.K - 1, 0) for a, b in zip(values, values[1:])
        ), "the bottom machine never wrapped K-1 -> 0"
    reference = SafetyMonitor([MutualExclusionSpec(protocol)], protocol)
    Simulator(
        protocol, SynchronousDaemon(), rng=random.Random(0), engine="reference",
        trace="light",
    ).run(initial, max_steps=horizon, stop_when=reference.observe)
    for query in ("first_unsafe_index", "last_unsafe_index", "stabilization_index"):
        assert getattr(monitor, query)(spec) == getattr(reference, query)(
            reference.specifications[0]
        )


def test_runs_over_one_protocol_share_its_array_engine(monkeypatch):
    """Every simulator over one protocol reuses the protocol's graph index
    and prepared kernel, while each keeps its own ``last_run_backend``."""
    builds = []
    original = GraphIndex.__init__

    def counted(self, *args, **kwargs):
        builds.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(GraphIndex, "__init__", counted)
    protocol = SSME(ring_graph(64))
    specification = MutualExclusionSpec(protocol)
    for seed in (1, 2):
        measurement = measure_stabilization(
            protocol,
            SynchronousDaemon(),
            protocol.random_configuration(random.Random(seed)),
            specification,
            horizon=protocol.synchronous_stabilization_bound() + 64,
        )
        assert measurement.stabilized
    assert len(builds) == 1
    first = Simulator(protocol, SynchronousDaemon(), engine="vector")
    second = Simulator(protocol, SynchronousDaemon(), engine="vector")
    first.run(protocol.random_configuration(random.Random(3)), max_steps=5)
    assert (first.last_run_backend, second.last_run_backend) == ("vector", None)
    assert len(builds) == 1

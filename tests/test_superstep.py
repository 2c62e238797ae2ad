"""Unit tests for the batched superstep execution path.

The engine equivalence suite pins ``vector-superstep`` trace-for-trace
against the reference engine through the simulator; these tests drive
:meth:`VectorEngine.run_supersteps` directly at adversarial cadences
(superstep 1, 3, 5 against traces hundreds of steps long) and pin the
pieces the batched loop adds over the single-step path: checkpointed
replay at non-checkpoint indices, mid-block ``stop_when`` rollback,
mid-block terminal detection, the fixed-point fast-forward, the
vectorized sparse guard refresh (subset kernels), in-kernel safety
monitoring (no replay for a bare ``SafetyMonitor``), and the vectorized
privilege fast paths of ``spec_ME``/``spec_AU``.  Everything here needs
real NumPy; the no-NumPy degradation is covered in
``test_engine_equivalence``.
"""

from __future__ import annotations

import random

import pytest

np = pytest.importorskip("numpy")

from repro.core import (
    ArrayKernel,
    CentralDaemon,
    Configuration,
    Execution,
    GraphIndex,
    IntCodec,
    LazyEnabledSets,
    Protocol,
    Rule,
    SafetyMonitor,
    Simulator,
    SynchronousDaemon,
    VectorEngine,
    measure_stabilization,
)
from repro.exceptions import SimulationError
from repro.graphs import grid_graph, random_connected_graph, ring_graph, star_graph
from repro.lowerbound import immediate_double_privilege_configuration
from repro.mutex import SSME, DijkstraTokenRing
from repro.mutex.specification import MutualExclusionSpec
from repro.unison import AsynchronousUnison, AsynchronousUnisonSpec


def _records(execution, index):
    return sorted(
        (r.vertex, r.rule_name, r.old_state, r.new_state)
        for r in execution.activation_records(index)
    )


def _assert_same_trace(actual, expected):
    assert actual.steps == expected.steps
    assert actual.truncated == expected.truncated
    for i in range(expected.steps + 1):
        assert dict(actual.configuration(i)) == dict(expected.configuration(i)), i
    for i in range(expected.steps):
        assert actual.selection(i) == expected.selection(i), i
        assert actual.enabled_at(i) == expected.enabled_at(i), i
        assert _records(actual, i) == _records(expected, i), i


PROTOCOLS = {
    "ssme": lambda: SSME(ring_graph(12)),
    "unison": lambda: AsynchronousUnison(ring_graph(11), validate_parameters=False),
    "dijkstra": lambda: DijkstraTokenRing(ring_graph(9)),
}


@pytest.mark.parametrize("protocol_name", sorted(PROTOCOLS))
@pytest.mark.parametrize("superstep", [1, 3, 5, 64])
@pytest.mark.parametrize("trace", ["full", "light"])
def test_supersteps_match_single_step_at_every_cadence(
    protocol_name, superstep, trace
):
    """Block boundaries at awkward cadences never shift the trace."""
    protocol = PROTOCOLS[protocol_name]()
    initial = protocol.random_configuration(random.Random(7))
    engine = VectorEngine(protocol)
    single = engine.run(
        SynchronousDaemon(), random.Random(0), initial, max_steps=200, trace=trace
    )
    batched = engine.run_supersteps(
        SynchronousDaemon(),
        random.Random(0),
        initial,
        max_steps=200,
        trace=trace,
        superstep=superstep,
    )
    _assert_same_trace(batched, single)


@pytest.mark.parametrize("trace", ["full", "light"])
def test_light_trace_random_access_at_non_checkpoint_indices(trace):
    """Replayed configurations are exact at arbitrary indices, visited in
    arbitrary order (backward seeks reload the nearest checkpoint)."""
    protocol = SSME(ring_graph(10))
    initial = protocol.random_configuration(random.Random(3))
    engine = VectorEngine(protocol)
    oracle = engine.run(
        SynchronousDaemon(), random.Random(0), initial, max_steps=150, trace="full"
    )
    batched = engine.run_supersteps(
        SynchronousDaemon(),
        random.Random(0),
        initial,
        max_steps=150,
        trace=trace,
        superstep=64,
    )
    for i in (150, 1, 63, 64, 65, 0, 127, 30, 128, 129, 99, 2):
        assert dict(batched.configuration(i)) == dict(oracle.configuration(i)), i
    for i in (149, 5, 64, 63, 100):
        assert _records(batched, i) == _records(oracle, i), i
    assert batched.count_rounds() == oracle.count_rounds()


@pytest.mark.parametrize("target", [0, 1, 6, 63, 64, 65, 130])
def test_stop_when_rolls_back_to_the_exact_step(target):
    """A mid-block trigger keeps exactly the single-step prefix."""
    protocol = SSME(ring_graph(10))
    initial = protocol.random_configuration(random.Random(5))
    engine = VectorEngine(protocol)

    def runner(run, **kwargs):
        seen = []

        def stop_when(configuration, index):
            seen.append(index)
            return index >= target

        execution = run(
            SynchronousDaemon(),
            random.Random(0),
            initial,
            max_steps=200,
            stop_when=stop_when,
            **kwargs,
        )
        return execution, seen

    single, seen_single = runner(engine.run)
    batched, seen_batched = runner(engine.run_supersteps, superstep=4)
    # The predicate observes the same gapless index sequence...
    assert seen_batched == seen_single == list(range(target + 1))
    # ...and the recorded prefixes are identical.
    _assert_same_trace(batched, single)
    assert batched.steps == target
    assert batched.truncated


def test_supersteps_require_a_synchronous_daemon():
    protocol = SSME(ring_graph(6))
    engine = VectorEngine(protocol)
    initial = protocol.random_configuration(random.Random(1))
    with pytest.raises(SimulationError):
        engine.run_supersteps(
            CentralDaemon(), random.Random(0), initial, max_steps=10
        )
    with pytest.raises(SimulationError):
        engine.run_supersteps(
            SynchronousDaemon(), random.Random(0), initial, max_steps=10, superstep=0
        )


# --------------------------------------------------------------------- #
# Terminal detection and fixed points inside a block
# --------------------------------------------------------------------- #
class CountdownProtocol(Protocol):
    """Each vertex counts its own state down to 0, then disables —
    terminates mid-block after max(initial) steps."""

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
    single = engine.run(
        SynchronousDaemon(), random.Random(0), initial, max_steps=500, trace=trace
    )
    batched = engine.run_supersteps(
        SynchronousDaemon(),
        random.Random(0),
        initial,
        max_steps=500,
        trace=trace,
        superstep=64,
    )
    assert batched.steps == single.steps == horizon
    assert batched.is_terminal and not batched.truncated
    _assert_same_trace(batched, single)


@pytest.mark.parametrize("trace", ["full", "light"])
def test_fixed_point_fast_forwards_the_remaining_budget(trace):
    protocol = StutterProtocol(ring_graph(6))
    initial = protocol.random_configuration(random.Random(2))
    engine = VectorEngine(protocol)
    single = engine.run(
        SynchronousDaemon(), random.Random(0), initial, max_steps=300, trace=trace
    )
    batched = engine.run_supersteps(
        SynchronousDaemon(),
        random.Random(0),
        initial,
        max_steps=300,
        trace=trace,
        superstep=64,
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
    [ring_graph(40), grid_graph(6, 7), star_graph(30)],
    ids=["ring", "grid", "star"],
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


def test_subset_refresh_keeps_sparse_selections_exact():
    """A central daemon forced onto the vector backend exercises the
    in-place ``rule_ids`` patching on every action."""
    protocol = AsynchronousUnison(ring_graph(24), validate_parameters=False)
    initial = protocol.random_configuration(random.Random(4))
    reference = Simulator(
        protocol, CentralDaemon(), rng=random.Random(1), engine="reference"
    ).run(initial, max_steps=120)
    vectorized = Simulator(
        protocol, CentralDaemon(), rng=random.Random(1), engine="vector"
    )
    assert vectorized.engine == "vector"
    execution = vectorized.run(initial, max_steps=120)
    assert vectorized.last_run_backend == "vector"
    assert list(execution.configurations) == list(reference.configurations)


# --------------------------------------------------------------------- #
# Vectorized privilege fast path of spec_ME
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "factory", [lambda: SSME(ring_graph(13)), lambda: DijkstraTokenRing(ring_graph(13))]
, ids=["ssme", "dijkstra"])
def test_privileged_count_array_matches_python(factory):
    protocol = factory()
    engine = VectorEngine(protocol)
    spec = MutualExclusionSpec(protocol)
    for seed in range(8):
        configuration = protocol.random_configuration(random.Random(seed))
        states = engine.encode_initial(configuration)
        view = engine._view(states) if hasattr(engine, "_view") else None
        if view is None:
            from repro.core import ArrayStateView

            view = ArrayStateView(engine._index, states, engine._codec)
        expected = len(protocol.privileged_vertices(configuration))
        assert protocol.privileged_count_array(view) == expected
        assert spec.is_safe(view, protocol) == spec.is_safe(configuration, protocol)


# --------------------------------------------------------------------- #
# In-kernel safety monitoring: a bare SafetyMonitor is never replayed
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


def _superstep_summary(protocol_name, protocol, initial, max_steps, trace, superstep):
    specs = MONITORED_SPECS[protocol_name](protocol)
    _no_python_checks(specs)
    monitor = SafetyMonitor(specs, protocol)
    engine = VectorEngine(protocol)
    fire = _CountingFire(engine._kernel)
    execution = engine.run_supersteps(
        SynchronousDaemon(), random.Random(0), initial, max_steps=max_steps,
        stop_when=monitor.observe, trace=trace, superstep=superstep,
    )
    # Counted before any trace access, which may replay legitimately; a
    # full trace rebuilds its configurations by one replay after the run.
    assert fire.calls == execution.steps * (2 if trace == "full" else 1)
    return _monitor_summary(monitor, specs, execution), execution


@pytest.mark.parametrize("protocol_name", sorted(PROTOCOLS))
@pytest.mark.parametrize("superstep", [1, 3, 5, 64])
@pytest.mark.parametrize("trace", ["full", "light"])
def test_in_kernel_monitoring_matches_the_reference_engine(
    protocol_name, superstep, trace
):
    """First/last unsafe indices and stabilization indices of monitor-only
    superstep runs equal the reference engine's, with no replay and no
    per-configuration ``is_safe`` call.  The full-horizon run starts
    unsafe (index 0); the run cut one step before stabilization ends
    unsafe (stabilization index None)."""
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
        protocol_name, protocol, initial, 200, trace, superstep
    )
    assert actual == expected
    _assert_same_trace(execution, reference)
    actual_cut, _ = _superstep_summary(
        protocol_name, protocol, initial, cut, trace, superstep
    )
    assert actual_cut == expected_cut


def test_in_kernel_monitoring_of_an_immediate_double_privilege():
    """Theorem 2's witness: spec_ME is violated at index 0 and restored
    within ceil(diam/2) synchronous steps."""
    protocol = SSME(ring_graph(12))
    initial = immediate_double_privilege_configuration(protocol, pair=(0, 6))
    expected, _ = _reference_summary("ssme", protocol, initial, 40, "light")
    actual, _ = _superstep_summary("ssme", protocol, initial, 40, "light", 4)
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
def test_replay_path_is_kept_for_other_monitors(case, trace):
    """A monitor wrapping a predicate, or monitoring a specification
    without ``safe_rows``, still replays every block (two firings per
    step) and reports exactly what the in-kernel path reports."""
    protocol = SSME(ring_graph(10))
    initial = protocol.random_configuration(random.Random(5))
    reference = MutualExclusionSpec(protocol)
    reference_monitor = SafetyMonitor([reference], protocol)
    VectorEngine(protocol).run_supersteps(
        SynchronousDaemon(), random.Random(0), initial, max_steps=150,
        stop_when=reference_monitor.observe, trace=trace, superstep=5,
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
        SynchronousDaemon(), random.Random(0), initial, max_steps=150,
        stop_when=monitor.observe, trace=trace, superstep=5,
    )
    # More firings than the run (plus a full trace's rebuild) needs: the
    # monitor's scanner replayed the blocks.
    assert fire.calls > execution.steps * (2 if trace == "full" else 1)
    assert execution.steps == 150
    if case == "wrapped-stop-when":
        assert seen == list(range(151))
    assert monitor.observed_steps == reference_monitor.observed_steps == 150
    for query in ("first_unsafe_index", "last_unsafe_index", "stabilization_index"):
        assert getattr(monitor, query)(spec) == getattr(reference_monitor, query)(reference)


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
def test_lazy_enabled_sets_match_the_reference_engine(protocol_name, trace, stop_at):
    """Every recorded enabled set and selection of a superstep run equals
    the reference engine's, with and without a replayed ``stop_when``
    (whose trigger rolls the position log back to the kept prefix)."""
    protocol = PROTOCOLS[protocol_name]()
    initial = protocol.random_configuration(random.Random(11))
    stop_when = None if stop_at is None else (lambda c, i: i >= stop_at)
    reference = Simulator(
        protocol, SynchronousDaemon(), rng=random.Random(0),
        engine="reference", trace=trace,
    ).run(initial, max_steps=150, stop_when=stop_when)
    batched = VectorEngine(protocol).run_supersteps(
        SynchronousDaemon(), random.Random(0), initial, max_steps=150,
        stop_when=stop_when, trace=trace, superstep=8,
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
        SynchronousDaemon(), random.Random(0), initial, max_steps=300, superstep=64,
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
def test_lazy_enabled_sets_prefix_suffix_and_rounds_match_eager(protocol_name, trace):
    """``prefix``/``suffix`` keep the lazy log and agree with an execution
    built from the same sets as plain lists; ``count_rounds`` builds each
    distinct set at most once."""
    protocol = PROTOCOLS[protocol_name]()
    initial = protocol.random_configuration(random.Random(4))
    lazy = VectorEngine(protocol).run_supersteps(
        SynchronousDaemon(), random.Random(0), initial, max_steps=120,
        trace=trace, superstep=16,
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
    assert simulator.last_run_backend == "vector-superstep"
    assert builds.calls == 0
    enabled = execution.enabled_at(3)
    assert builds.calls == 1
    assert execution.enabled_at(3) is enabled
    assert execution.selection(3) is enabled
    assert builds.calls == 1

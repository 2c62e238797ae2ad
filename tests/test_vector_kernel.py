"""Unit tests for the array-state (vector) engine backend.

The engine equivalence suite pins whole traces; these tests pin the
building blocks directly — CSR indexing, codecs, guard-by-guard kernel
equality against the Python guards, the live array view, the capability
API (including a width-2 tuple-state protocol), and the codec-decline
fallback.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ArrayKernel,
    ArrayStateView,
    Configuration,
    GraphIndex,
    IntCodec,
    IntTupleCodec,
    Protocol,
    Rule,
    Simulator,
    SynchronousDaemon,
    TiledGraphIndex,
    VectorEngine,
    array_engine,
)
from repro.exceptions import SimulationError
from repro.baselines import BfsSpanningTree, MaximalMatching
from repro.graphs import (
    grid_graph,
    path_graph,
    random_connected_graph,
    ring_graph,
    single_vertex_graph,
    star_graph,
)
from repro.mutex import SSME, DijkstraTokenRing
from repro.unison import AsynchronousUnison


class TestGraphIndex:
    def test_csr_matches_adjacency(self):
        graph = random_connected_graph(9, 0.4, random.Random(1))
        index = GraphIndex(graph)
        assert set(index.vertices) == set(graph.vertices)
        for i, v in enumerate(index.vertices):
            row = index.indices[index.indptr[i] : index.indptr[i + 1]]
            assert {index.vertices[j] for j in row.tolist()} == set(graph.neighbors(v))
        # edge_src mirrors the row ownership of every adjacency entry.
        for e in range(int(index.indices.size)):
            src = int(index.edge_src[e])
            assert index.indptr[src] <= e < index.indptr[src + 1]

    @pytest.mark.parametrize(
        "graph",
        [
            single_vertex_graph(),
            path_graph(2),
            star_graph(7),
            ring_graph(6),
            grid_graph(3, 4),
            random_connected_graph(12, 0.4, random.Random(5)),
        ],
        ids=["single", "path2", "star7", "ring6", "grid3x4", "random12"],
    )
    def test_slot_table_matches_adjacency(self, graph):
        """Each row's slots hold its first ``width`` CSR neighbours, then
        itself as padding; the rest of its neighbours are its overflow."""
        index = GraphIndex(graph)
        width = index.slots.shape[0]
        assert index.slots.shape == (width, index.n)
        assert np.all(np.diff(index.overflow_owner) >= 0)
        for i in range(index.n):
            row = index.indices[index.indptr[i] : index.indptr[i + 1]].tolist()
            head = row[:width]
            assert index.slots[:, i].tolist() == head + [i] * (width - len(head))
            assert index.overflow_rows[index.overflow_owner == i].tolist() == row[width:]

    @pytest.mark.parametrize(
        "graph",
        [star_graph(7), star_graph(40), random_connected_graph(30, 0.1, random.Random(3))],
        ids=["star7", "star40", "random30"],
    )
    def test_overflow_of_matches_owner_mask(self, graph):
        index = GraphIndex(graph)
        rng = random.Random(index.n)
        for size in (0, 1, 3, index.n):
            rows = np.array(rng.sample(range(index.n), size), dtype=np.int64)
            pairs = sorted(
                (rank, int(u))
                for rank, row in enumerate(rows.tolist())
                for u in index.overflow_rows[index.overflow_owner == row]
            )
            found = index.overflow_of(rows)
            if not pairs:
                assert found is None
                continue
            ranks, neighbors = found
            assert sorted(zip(ranks.tolist(), neighbors.tolist())) == pairs

    def test_slot_table_is_bounded_on_hubs(self):
        """A hub does not widen the table to n·Δ: its entries beyond the
        width go to the overflow list, so the table plus the overflow hold
        at most nnz + n·width entries."""
        index = GraphIndex(star_graph(1000))
        nnz = int(index.indices.size)
        width = index.slots.shape[0]
        max_degree = int(np.diff(index.indptr).max())
        held = int(index.slots.size) + int(index.overflow_rows.size)
        assert width == 1 and max_degree == 999
        assert held <= nnz + index.n * width
        assert held * 100 < index.n * max_degree
        # The width never exceeds twice the mean degree on any graph.
        for graph in (ring_graph(9), grid_graph(5, 6), random_connected_graph(40, 0.2, random.Random(1))):
            other = GraphIndex(graph)
            assert other.slots.size <= 2 * other.indices.size

    def test_tiled_index_offsets_slots_and_overflow(self):
        base = GraphIndex(star_graph(7))
        tiled = TiledGraphIndex(base, 3)
        n = base.n
        for b in range(3):
            block = slice(b * n, (b + 1) * n)
            assert np.array_equal(tiled.slots[:, block], base.slots + b * n)
        shift = np.repeat(np.arange(3) * n, base.overflow_owner.size)
        assert np.array_equal(tiled.overflow_owner, np.tile(base.overflow_owner, 3) + shift)
        assert np.array_equal(tiled.overflow_rows, np.tile(base.overflow_rows, 3) + shift)

    def test_edge_reductions_match_python(self):
        graph = star_graph(5)
        index = GraphIndex(graph)
        rng = random.Random(3)
        flags = np.array([rng.random() < 0.5 for _ in range(int(index.indices.size))])
        any_vec = index.any_over_edges(flags)
        for i in range(index.n):
            segment = flags[index.indptr[i] : index.indptr[i + 1]].tolist()
            assert bool(any_vec[i]) == any(segment)


class TestCodecs:
    def test_int_codec_round_trip(self):
        codec = IntCodec()
        order = ("a", "b", "c")
        states = {"a": -7, "b": 0, "c": 123}
        array = codec.encode(states, order)
        assert array.shape == (3, 1)
        decoded = codec.decode(array)
        assert decoded == [-7, 0, 123]
        assert all(type(value) is int for value in decoded)

    def test_int_codec_rejects_non_ints(self):
        codec = IntCodec()
        with pytest.raises(TypeError):
            codec.encode({"a": 1.5}, ("a",))
        with pytest.raises(TypeError):
            codec.encode({"a": True}, ("a",))
        with pytest.raises(TypeError):
            codec.encode({"a": (1, 2)}, ("a",))

    def test_tuple_codec_round_trip(self):
        codec = IntTupleCodec(2)
        order = (0, 1)
        states = {0: (1, -2), 1: (0, 9)}
        array = codec.encode(states, order)
        assert array.shape == (2, 2)
        decoded = codec.decode(array)
        assert decoded == [(1, -2), (0, 9)]
        assert all(type(value) is int for row in decoded for value in row)

    def test_tuple_codec_rejects_wrong_width(self):
        codec = IntTupleCodec(2)
        with pytest.raises(TypeError):
            codec.encode({0: (1, 2, 3)}, (0,))
        with pytest.raises(SimulationError):
            IntTupleCodec(0)


def _expected_rule_id(protocol, configuration, vertex):
    """First enabled rule position via the stock Python chain (-1 if none)."""
    _view, enabled = protocol.evaluate(configuration, vertex)
    if not enabled:
        return -1
    rules = list(protocol.rules())
    return rules.index(enabled[0])


def _assert_unison_kernel_matches_python(protocol, configurations, rng):
    """The unison kernel's guards (over every row and over row subsets) and
    its firing against the Python rule chain, vertex by vertex."""
    kernel = protocol.array_kernel()
    codec = protocol.array_codec()
    index = GraphIndex(protocol.graph)
    kernel.prepare(index)
    rules = list(protocol.rules())
    subsets = [
        np.arange(index.n, dtype=np.int64),
        np.zeros(1, dtype=np.int64),
        np.array(rng.sample(range(index.n), index.n // 2), dtype=np.int64),
    ]
    for configuration in configurations:
        states = codec.encode(configuration, index.vertices)
        rule_ids = kernel.enabled_rules(states, index)
        for i, vertex in enumerate(index.vertices):
            expected = _expected_rule_id(protocol, configuration, vertex)
            assert int(rule_ids[i]) == expected, (vertex, dict(configuration))
        for rows in subsets:
            assert np.array_equal(kernel.enabled_rules_for(states, rows, index), rule_ids[rows])
        # Fire every enabled vertex and compare against the rule actions.
        enabled = np.flatnonzero(rule_ids != -1)
        new_rows = kernel.fire(states, enabled, rule_ids[enabled], index)
        for row, position in enumerate(enabled.tolist()):
            view = protocol.local_view(configuration, index.vertices[position])
            expected = rules[int(rule_ids[position])].apply(view)
            assert codec.decode(new_rows[row : row + 1])[0] == expected


@pytest.mark.parametrize(
    "factory",
    [
        lambda g: AsynchronousUnison(g, validate_parameters=False),
        SSME,
    ],
    ids=["unison", "ssme"],
)
@pytest.mark.parametrize("graph_seed", [0, 4])
@pytest.mark.parametrize("state_seed", [1, 7, 42])
def test_unison_kernel_guards_match_python(factory, graph_seed, state_seed):
    protocol = factory(random_connected_graph(8, 0.35, random.Random(graph_seed)))
    configuration = protocol.random_configuration(random.Random(state_seed))
    _assert_unison_kernel_matches_python(protocol, [configuration], random.Random(state_seed))


_SMALL_CLOCK_GRAPHS = {
    "single": single_vertex_graph(),
    "path2": path_graph(2),
    "star7": star_graph(7),
    "ring5": ring_graph(5),
    "random9": random_connected_graph(9, 0.3, random.Random(2)),
    "random12": random_connected_graph(12, 0.5, random.Random(8)),
}


def _small_clock_configurations(protocol, rng, count=40):
    """Every configuration when there are few, else ``count`` samples that
    crowd each vertex's neighbourhood with the values a guard tells apart:
    equal, one tick either way (wrapped), the reset value, 0 and K-1."""
    K, alpha = protocol.K, protocol.alpha
    domain = list(range(-alpha, K))
    vertices = list(protocol.graph.vertices)
    if len(domain) ** len(vertices) <= 2 * count:
        for values in itertools.product(domain, repeat=len(vertices)):
            yield protocol.configuration(dict(zip(vertices, values)))
        return
    for _ in range(count):
        base = rng.choice(domain)
        near = {base, base - 1, base + 1, (base + 1) % K, (base - 1) % K, -alpha, 0, K - 1}
        pool = [value for value in near if -alpha <= value < K]
        yield protocol.configuration(
            {v: rng.choice(pool) if rng.random() < 0.85 else rng.choice(domain) for v in vertices}
        )


@pytest.mark.parametrize("graph_id", sorted(_SMALL_CLOCK_GRAPHS))
@pytest.mark.parametrize("K", [2, 3, 4, 7])
@pytest.mark.parametrize("alpha", [1, 2, 5])
def test_unison_kernel_small_clocks_match_python(graph_id, K, alpha):
    """Explicit small clocks put the cycle wrap (K-1 -> 0) and the tail
    next to every neighbour value, on graphs with and without hub
    overflow."""
    protocol = AsynchronousUnison(
        _SMALL_CLOCK_GRAPHS[graph_id], alpha=alpha, K=K, validate_parameters=False
    )
    rng = random.Random(K * 10 + alpha)
    _assert_unison_kernel_matches_python(
        protocol, list(_small_clock_configurations(protocol, rng)), rng
    )


@pytest.mark.parametrize("state_seed", [0, 5, 19])
def test_dijkstra_kernel_guards_match_python(state_seed):
    protocol = DijkstraTokenRing(ring_graph(7))
    kernel = protocol.array_kernel()
    codec = protocol.array_codec()
    index = GraphIndex(protocol.graph)
    kernel.prepare(index)
    configuration = protocol.random_configuration(random.Random(state_seed))
    states = codec.encode(configuration, index.vertices)
    rule_ids = kernel.enabled_rules(states, index)
    for i, vertex in enumerate(index.vertices):
        assert int(rule_ids[i]) == _expected_rule_id(protocol, configuration, vertex)
    enabled = np.flatnonzero(rule_ids != -1)
    new_rows = kernel.fire(states, enabled, rule_ids[enabled], index)
    for row, position in enumerate(enabled.tolist()):
        vertex = index.vertices[position]
        view, enabled_rules = protocol.evaluate(configuration, vertex)
        assert codec.decode(new_rows[row : row + 1])[0] == enabled_rules[0].apply(view)


@pytest.mark.parametrize(
    "factory",
    [BfsSpanningTree, MaximalMatching],
    ids=["bfs", "matching"],
)
@pytest.mark.parametrize("graph_seed", [0, 4, 9])
@pytest.mark.parametrize("state_seed", [1, 7, 42])
def test_baseline_kernel_guards_match_python(factory, graph_seed, state_seed):
    graph = random_connected_graph(8, 0.35, random.Random(graph_seed))
    protocol = factory(graph)
    assert array_engine(protocol) is not None
    kernel = protocol.array_kernel()
    codec = protocol.array_codec()
    index = GraphIndex(graph)
    kernel.prepare(index)
    configuration = protocol.random_configuration(random.Random(state_seed))
    states = codec.encode(configuration, index.vertices)
    rule_ids = kernel.enabled_rules(states, index)
    for i, vertex in enumerate(index.vertices):
        assert int(rule_ids[i]) == _expected_rule_id(protocol, configuration, vertex), vertex
    enabled = np.flatnonzero(rule_ids != -1)
    if enabled.size:
        new_rows = kernel.fire(states, enabled, rule_ids[enabled], index)
        for row, position in enumerate(enabled.tolist()):
            vertex = index.vertices[position]
            view, enabled_rules = protocol.evaluate(configuration, vertex)
            assert codec.decode(new_rows[row : row + 1])[0] == enabled_rules[0].apply(view)


def test_unison_kernel_on_tiled_hub_index_matches_blocks():
    """The batched checker's tiled index: the overflow of every block's hub
    must land in its own block."""
    protocol = AsynchronousUnison(star_graph(7), alpha=2, K=4, validate_parameters=False)
    kernel = protocol.array_kernel()
    codec = protocol.array_codec()
    base = GraphIndex(protocol.graph)
    rng = random.Random(9)
    blocks = [
        codec.encode(configuration, base.vertices)
        for configuration in _small_clock_configurations(protocol, rng, count=5)
    ]
    tiled = TiledGraphIndex(base, len(blocks))
    stacked = np.concatenate(blocks)
    expected = np.concatenate([kernel.enabled_rules(states, base) for states in blocks])
    assert np.array_equal(kernel.enabled_rules(stacked, tiled), expected)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 30),
    graph_p=st.floats(0.0, 0.6),
    graph_seed=st.integers(0, 1000),
    state_seed=st.integers(0, 10_000),
)
def test_unison_kernel_guards_match_python_hypothesis(n, graph_p, graph_seed, state_seed):
    graph = random_connected_graph(n, graph_p, random.Random(graph_seed))
    protocol = AsynchronousUnison(graph, validate_parameters=False)
    kernel = protocol.array_kernel()
    codec = protocol.array_codec()
    index = GraphIndex(graph)
    kernel.prepare(index)
    configuration = protocol.random_configuration(random.Random(state_seed))
    states = codec.encode(configuration, index.vertices)
    rule_ids = kernel.enabled_rules(states, index)
    for i, vertex in enumerate(index.vertices):
        assert int(rule_ids[i]) == _expected_rule_id(protocol, configuration, vertex)


class TestArrayStateView:
    def _view(self):
        protocol = AsynchronousUnison(ring_graph(5), validate_parameters=False)
        index = GraphIndex(protocol.graph)
        codec = protocol.array_codec()
        configuration = protocol.random_configuration(random.Random(2))
        states = codec.encode(configuration, index.vertices)
        return ArrayStateView(index, states, codec), configuration, states

    def test_mapping_protocol_and_decoding(self):
        view, configuration, _states = self._view()
        assert len(view) == 5
        assert set(view) == set(configuration)
        assert dict(view) == dict(configuration)
        assert view == configuration
        for vertex in view:
            assert type(view[vertex]) is int
        with pytest.raises(SimulationError):
            view["missing"]
        with pytest.raises(TypeError):
            hash(view)

    def test_view_is_live_and_snapshot_pins(self):
        view, _configuration, states = self._view()
        vertex = next(iter(view))
        before = view[vertex]
        pinned = view.snapshot()
        states[0, 0] = before + 1
        assert view[vertex] == before + 1
        assert pinned[vertex] == before
        assert isinstance(pinned, Configuration)

    def test_updated_and_restrict(self):
        view, configuration, _states = self._view()
        vertex = next(iter(view))
        updated = view.updated({vertex: 3})
        assert updated[vertex] == 3
        assert view.restrict([vertex])[vertex] == view[vertex]
        with pytest.raises(SimulationError):
            view.updated({"missing": 1})


# --------------------------------------------------------------------- #
# A width-2 tuple-state protocol exercising IntTupleCodec end to end
# --------------------------------------------------------------------- #
class TwoCounterProtocol(Protocol):
    """Toy protocol with state ``(a, b)``: ``sync`` raises ``a`` toward
    ``b``; ``catch`` raises ``b`` while every neighbour's ``b`` exceeds
    ``a``.  Meaningless as a distributed algorithm — it exists to pin the
    width-2 codec/kernel path against the Python rule chain."""

    name = "two-counter"

    def rules(self):
        def sync_guard(view):
            return view.state[0] < view.state[1]

        def sync_action(view):
            return (view.state[0] + 1, view.state[1])

        def catch_guard(view):
            a, b = view.state
            return a == b and all(
                state[1] > a for state in view.neighbor_states.values()
            )

        def catch_action(view):
            return (view.state[0], view.state[1] + 1)

        return [Rule("sync", sync_guard, sync_action), Rule("catch", catch_guard, catch_action)]

    def random_state(self, vertex, rng):
        return (rng.randrange(4), rng.randrange(4))

    def array_codec(self):
        return IntTupleCodec(2)

    def array_kernel(self):
        return TwoCounterKernel()


class TwoCounterKernel(ArrayKernel):
    rule_names = ("sync", "catch")

    def enabled_rules(self, states, index):
        a = states[:, 0]
        b = states[:, 1]
        sync = a < b
        edge_ok = b[index.indices] > a[index.edge_src]
        all_ok = np.bincount(index.edge_src[~edge_ok], minlength=index.n) == 0
        catch = (a == b) & all_ok
        rule_ids = np.full(index.n, -1, dtype=np.int64)
        rule_ids[catch] = 1
        rule_ids[sync] = 0
        return rule_ids

    def fire(self, states, selected, rule_ids, index):
        rows = states[selected].copy()
        sync_rows = rule_ids == 0
        rows[sync_rows, 0] += 1
        rows[~sync_rows, 1] += 1
        return rows


class TestTupleStateProtocol:
    def test_vector_supported_and_equivalent(self):
        graph = random_connected_graph(7, 0.4, random.Random(6))
        protocol = TwoCounterProtocol(graph)
        assert array_engine(protocol) is not None
        initial = protocol.random_configuration(random.Random(9))
        runs = {}
        for engine in ("reference", "vector"):
            for trace in ("full", "light"):
                simulator = Simulator(
                    protocol,
                    SynchronousDaemon(),
                    rng=random.Random(1),
                    engine=engine,
                    trace=trace,
                )
                if engine == "vector":
                    assert simulator.engine == "vector"
                runs[(engine, trace)] = simulator.run(initial, max_steps=30)
        reference = runs[("reference", "full")]
        for execution in runs.values():
            assert execution.steps == reference.steps
            assert list(execution.configurations) == list(reference.configurations)
        final = reference.final
        assert all(type(state) is tuple for state in final.as_dict().values())

    def test_records_decode_tuples(self):
        protocol = TwoCounterProtocol(ring_graph(4))
        initial = protocol.configuration({v: (0, 1) for v in protocol.graph.vertices})
        simulator = Simulator(protocol, SynchronousDaemon(), engine="vector")
        execution = simulator.run(initial, max_steps=1)
        records = execution.activation_records(0)
        assert {record.vertex for record in records} == set(protocol.graph.vertices)
        for record in records:
            assert record.rule_name == "sync"
            assert record.old_state == (0, 1)
            assert record.new_state == (1, 1)
            assert type(record.new_state) is tuple


class TestBackendSelection:
    def test_codec_decline_falls_back_per_run(self):
        """States outside the codec's layout run on the dict paths."""
        protocol = AsynchronousUnison(ring_graph(6), validate_parameters=False)
        # A float clock value is fine for the Python guards but cannot be
        # encoded losslessly; the engine must decline and fall back.
        states = {v: 1 for v in protocol.graph.vertices}
        states[0] = 1.5
        initial = Configuration(states)
        reference = Simulator(
            protocol, SynchronousDaemon(), rng=random.Random(2), engine="reference"
        ).run(initial, max_steps=10)
        simulator = Simulator(
            protocol, SynchronousDaemon(), rng=random.Random(2), engine="vector"
        )
        assert simulator.engine == "vector"
        execution = simulator.run(initial, max_steps=10)
        assert simulator.last_run_backend == "dict"
        assert list(execution.configurations) == list(reference.configurations)
        # An encodable initial on the same simulator goes vectorized again.
        clean = protocol.random_configuration(random.Random(5))
        simulator.run(clean, max_steps=5)
        assert simulator.last_run_backend == "vector"

    def test_rule_name_mismatch_rejected(self):
        class LyingKernelProtocol(TwoCounterProtocol):
            def array_kernel(self):
                kernel = TwoCounterKernel()
                kernel.rule_names = ("sync", "wrong")
                return kernel

        protocol = LyingKernelProtocol(ring_graph(4))
        with pytest.raises(SimulationError):
            VectorEngine(protocol)

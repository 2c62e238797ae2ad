"""Bit-identical equivalence of the batched array checker and the dict path.

The contract of :mod:`repro.verify.batched` is *exactness*, not
approximation: same reachable keys, same per-state successor lists (order
included), same safety labels, same game values, same lassos-that-replay.
These tests pin that contract on every daemon class over full products,
seeded regions, diverging instances and every protocol family with an
array codec — plus the engine dispatch (``engine="auto"|"dict"|"batched"``)
and the graceful degradation for protocols the batched engine cannot run.
"""

from __future__ import annotations

import hashlib
import json
import random
import tracemalloc

import numpy as np
import pytest

from repro.baselines import (
    BfsSpanningTree,
    BfsTreeSpec,
    MaximalMatching,
    MaximalMatchingSpec,
)
from repro.exceptions import VerificationError
from repro.graphs import path_graph, ring_graph
from repro.mutex import SSME, DijkstraTokenRing, MutualExclusionSpec
from repro.unison import AsynchronousUnison, AsynchronousUnisonSpec
from repro.experiments.workloads import mutex_workload
from repro.verify import (
    BatchedTransitionSystem,
    StateSpace,
    TransitionSystem,
    batched_supported,
    solve,
    solve_arrays,
    verify_stabilization,
)
from repro.verify.batched import ArrayPacker, _ExpansionState, _NodeRegistry

DAEMON_CLASSES = ("synchronous", "central", "distributed")


def assert_systems_identical(protocol, specification, daemon_class, initial=None):
    """Explore both paths and compare every observable, bit for bit."""
    space = StateSpace(protocol)
    dict_ts = TransitionSystem(
        protocol, specification, daemon_class, space=space
    )
    batched_ts = BatchedTransitionSystem(
        protocol, specification, daemon_class, space=space
    )
    if initial is None:
        dict_system = dict_ts.explore_full()
        batched_system = batched_ts.explore_full()
    else:
        dict_system = dict_ts.explore(initial)
        batched_system = batched_ts.explore(initial)
    as_dict = batched_system.to_explored_system()
    assert len(as_dict.keys) == len(set(as_dict.keys)) == len(dict_system.keys)
    assert set(dict_system.keys) == set(as_dict.keys)
    assert dict_system.successors == as_dict.successors
    assert dict_system.safe == as_dict.safe
    assert set(dict_system.terminal_keys) == set(as_dict.terminal_keys)
    assert list(dict_system.initial_keys) == list(as_dict.initial_keys)
    dict_solution = solve(dict_system)
    array_solution = solve_arrays(batched_system)
    as_game = array_solution.to_game_solution()
    assert dict_solution.values == as_game.values
    assert dict_solution.legitimate == as_game.legitimate
    assert dict_solution.diverging == as_game.diverging
    assert dict_solution.exact_worst_case == array_solution.exact_worst_case


def replay_lasso(counterexample, protocol):
    """Check a lasso counterexample transition-by-transition."""
    configs = list(counterexample.stem) + list(counterexample.cycle)
    selections = list(counterexample.stem_selections) + list(
        counterexample.cycle_selections
    )
    assert len(configs) == len(selections)
    sequence = configs + [counterexample.cycle[0]]
    for i, selection in enumerate(selections):
        if not selection:
            assert sequence[i] == sequence[i + 1]
            continue
        successor, _ = protocol.apply(sequence[i], selection)
        assert successor == sequence[i + 1], f"replay mismatch at step {i}"


# --------------------------------------------------------------------- #
# Full-product equivalence, every daemon class
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("daemon_class", DAEMON_CLASSES)
class TestFullProductEquivalence:
    def test_dijkstra_stabilizing(self, daemon_class):
        protocol = DijkstraTokenRing.on_ring(4)
        assert_systems_identical(
            protocol, MutualExclusionSpec(protocol), daemon_class
        )

    def test_dijkstra_diverging(self, daemon_class):
        # K = 2 < n + 1: legitimately diverges, the values/diverging sets
        # must still match exactly.
        protocol = DijkstraTokenRing.on_ring(3, K=2)
        assert_systems_identical(
            protocol, MutualExclusionSpec(protocol), daemon_class
        )

    def test_unison(self, daemon_class):
        n = 3 if daemon_class == "distributed" else 4
        protocol = AsynchronousUnison(ring_graph(n), alpha=2, K=8)
        assert_systems_identical(
            protocol, AsynchronousUnisonSpec(protocol), daemon_class
        )

    def test_bfs_tree(self, daemon_class):
        protocol = BfsSpanningTree(path_graph(4))
        assert_systems_identical(protocol, BfsTreeSpec(protocol), daemon_class)

    def test_matching(self, daemon_class):
        protocol = MaximalMatching(ring_graph(4))
        assert_systems_identical(
            protocol, MaximalMatchingSpec(protocol), daemon_class
        )

    def test_region_exploration(self, daemon_class):
        protocol = DijkstraTokenRing.on_ring(5)
        initial = [
            protocol.configuration(
                {v: (v * 2) % protocol.K for v in protocol.graph.vertices}
            ),
            protocol.configuration({v: 0 for v in protocol.graph.vertices}),
        ]
        assert_systems_identical(
            protocol, MutualExclusionSpec(protocol), daemon_class, initial
        )


# --------------------------------------------------------------------- #
# Engine dispatch and result API
# --------------------------------------------------------------------- #
class TestEngineDispatch:
    @pytest.mark.parametrize(
        "n, daemon_class, facts",
        [
            pytest.param(4, "central", (625, 65, 13, True), id="ring4-central"),
            # The exhaustive ring(6) certification: 7^6 configurations on
            # the pure-Python dict oracle (several seconds), then batched.
            pytest.param(
                6,
                "synchronous",
                (117_649, 217, 9, True),
                id="ring6-synchronous",
                marks=pytest.mark.slow,
            ),
        ],
    )
    def test_engines_agree_end_to_end(self, n, daemon_class, facts):
        protocol = DijkstraTokenRing.on_ring(n)
        specification = MutualExclusionSpec(protocol)
        by_engine = {
            engine: verify_stabilization(
                protocol, specification, daemon_class, engine=engine
            )
            for engine in ("dict", "batched", "auto")
        }
        reference = by_engine["dict"]
        assert (
            reference.state_count,
            reference.legitimate_count,
            reference.exact_worst_case,
            reference.stabilizes,
        ) == facts
        for result in by_engine.values():
            assert result.exact_worst_case == reference.exact_worst_case
            assert result.state_count == reference.state_count
            assert result.transition_count == reference.transition_count
            assert result.legitimate_count == reference.legitimate_count
            assert result.stabilizes == reference.stabilizes
        legit = protocol.legitimate_configuration(2)
        batched = by_engine["batched"]
        assert batched.value_of(legit) == reference.value_of(legit) == 0
        assert batched.is_certified_legitimate(legit)
        assert sorted(batched.legitimate_configurations(), key=repr) == sorted(
            reference.legitimate_configurations(), key=repr
        )

    def test_unknown_engine_rejected(self):
        protocol = DijkstraTokenRing.on_ring(3)
        with pytest.raises(VerificationError, match="unknown engine"):
            verify_stabilization(
                protocol, MutualExclusionSpec(protocol), "central",
                engine="gpu",
            )

    def test_lassos_replay_on_both_engines(self):
        protocol = DijkstraTokenRing.on_ring(3, K=2)
        specification = MutualExclusionSpec(protocol)
        for engine in ("dict", "batched"):
            for daemon_class in ("synchronous", "distributed"):
                result = verify_stabilization(
                    protocol, specification, daemon_class, engine=engine
                )
                assert not result.stabilizes
                assert result.counterexample is not None
                replay_lasso(result.counterexample, protocol)

    @pytest.mark.parametrize("daemon_class", DAEMON_CLASSES)
    @pytest.mark.parametrize("mode", ["full", "region"])
    def test_exploration_cap_message_matches_dict_path(self, daemon_class, mode):
        protocol = DijkstraTokenRing.on_ring(5)
        specification = MutualExclusionSpec(protocol)
        # Full mode trips the product-size pre-check; a region of 150
        # random configurations trips the cap during expansion.
        rng = random.Random(7)
        initial = (
            None
            if mode == "full"
            else [protocol.random_configuration(rng) for _ in range(150)]
        )
        errors = {}
        for engine in ("dict", "batched"):
            with pytest.raises(VerificationError) as excinfo:
                verify_stabilization(
                    protocol, specification, daemon_class, initial,
                    engine=engine, max_states=100,
                )
            errors[engine] = str(excinfo.value)
        assert errors["dict"] == errors["batched"]
        expected = "full state space" if mode == "full" else "reachable region"
        assert errors["batched"].startswith(expected)


# --------------------------------------------------------------------- #
# The packer (state identity without bignums)
# --------------------------------------------------------------------- #
class TestArrayPacker:
    def _packer(self, protocol):
        space = StateSpace(protocol)
        return space, ArrayPacker(space, protocol.array_codec())

    def test_keys_match_state_space_encoding(self):
        protocol = DijkstraTokenRing.on_ring(5)
        space, packer = self._packer(protocol)
        assert packer.packable
        rng = random.Random(0)
        configurations = [
            protocol.random_configuration(rng) for _ in range(20)
        ]
        keys = [space.encode(c) for c in configurations]
        idx = packer.indices_of_keys(keys)
        assert packer.python_keys(idx) == keys
        assert packer.configurations_of(idx) == configurations
        # codec-row round trip: rows_of and indices_of invert each other
        assert (packer.indices_of(packer.rows_of(idx)) == idx).all()

    def test_wide_keys_use_column_groups(self):
        # SSME ring(10): the full mixed-radix key exceeds int64, so the
        # packer must split into column groups yet still reproduce the
        # exact arbitrary-precision python keys.
        protocol = SSME(ring_graph(10))
        space, packer = self._packer(protocol)
        assert not packer.packable
        assert packer.columns > 1
        rng = random.Random(1)
        configurations = [
            protocol.random_configuration(rng) for _ in range(10)
        ]
        keys = [space.encode(c) for c in configurations]
        idx = packer.indices_of_keys(keys)
        assert packer.python_keys(idx) == keys
        assert packer.configurations_of(idx) == configurations

    def test_out_of_domain_row_is_a_clear_error(self):
        protocol = DijkstraTokenRing.on_ring(4, K=5)
        space, packer = self._packer(protocol)
        rows = packer.rows_of(
            packer.indices_of_keys([space.encode(
                protocol.configuration({v: 0 for v in protocol.graph.vertices})
            )])
        )
        rows[0, 0, 0] = 99  # clock value far outside 0..K-1
        with pytest.raises(VerificationError, match="outside the declared"):
            packer.indices_of(rows)


# --------------------------------------------------------------------- #
# Degradation for protocols outside the kernel contract
# --------------------------------------------------------------------- #
class TestIneligibleProtocolDegradation:
    def test_auto_falls_back_and_batched_raises(self):
        class PickyUnison(AsynchronousUnison):
            """Overrides ``choose_rule``, so ``array_engine`` declines it."""

            def choose_rule(self, enabled_rules, view):
                return enabled_rules[-1]

        protocol = PickyUnison(ring_graph(3), alpha=2, K=8)
        specification = AsynchronousUnisonSpec(protocol)
        assert protocol.array_kernel() is not None
        assert not batched_supported(protocol, specification)
        by_engine = {
            engine: verify_stabilization(
                protocol, specification, "central", engine=engine
            )
            for engine in ("dict", "auto")
        }
        facts = {
            engine: (
                result.state_count,
                result.transition_count,
                result.legitimate_count,
                result.exact_worst_case,
                result.stabilizes,
            )
            for engine, result in by_engine.items()
        }
        assert facts["auto"] == facts["dict"]
        with pytest.raises(VerificationError, match="kernel semantics contract"):
            verify_stabilization(
                protocol, specification, "central", engine="batched"
            )


# --------------------------------------------------------------------- #
# Node numbering, wide keys and out-of-domain firings
# --------------------------------------------------------------------- #
def _pinned_instance(name, daemon_class):
    if name == "ssme-ring5-region":
        protocol = SSME(ring_graph(5))
        specification = MutualExclusionSpec(protocol)
        region = mutex_workload(protocol, random.Random(3), random_count=3)
        return BatchedTransitionSystem(
            protocol, specification, daemon_class
        ).explore(region)
    if name == "dijkstra-ring4-k3-full":
        protocol = DijkstraTokenRing.on_ring(4, K=3)
        return BatchedTransitionSystem(
            protocol, MutualExclusionSpec(protocol), daemon_class
        ).explore_full()
    protocol = AsynchronousUnison(
        ring_graph(4), alpha=1, K=3, validate_parameters=False
    )
    return BatchedTransitionSystem(
        protocol, AsynchronousUnisonSpec(protocol), daemon_class
    ).explore_full()


#: (states, transitions, SHA-256 prefix of the node keys in node order,
#: ``indptr`` and ``succ``), recorded from the batched checker before its
#: successor expansion was rewritten around key deltas; the unison rows
#: were recorded from the key-delta expansion.
PINNED_SYSTEMS = {
    ("ssme-ring5-region", "synchronous"): (45, 45, "1b4c2d7f3ae15b9f"),
    ("ssme-ring5-region", "central"): (2074, 5262, "c11fc92ec76bb3ad"),
    ("ssme-ring5-region", "distributed"): (2074, 12460, "1f449054ce55fd9f"),
    ("dijkstra-ring4-k3-full", "synchronous"): (81, 81, "fe157fa276987150"),
    ("dijkstra-ring4-k3-full", "central"): (81, 189, "bf7657813973def9"),
    ("dijkstra-ring4-k3-full", "distributed"): (81, 417, "e8b95a40541ebb1a"),
    ("unison-ring4-full", "synchronous"): (256, 256, "85ab4f45d5b26896"),
    ("unison-ring4-full", "central"): (256, 480, "f9e96d020815d284"),
    ("unison-ring4-full", "distributed"): (256, 816, "d1c49baf851c19bb"),
}


@pytest.mark.parametrize(
    "name, daemon_class",
    sorted(PINNED_SYSTEMS),
    ids=[f"{name}-{dc}" for name, dc in sorted(PINNED_SYSTEMS)],
)
def test_discovery_order_is_pinned(name, daemon_class):
    # ``assert_systems_identical`` compares key sets and successor dicts,
    # which hold under any node numbering; this pins the numbering itself
    # (discovery order) and the CSR arrays built on it.
    system = _pinned_instance(name, daemon_class)
    payload = json.dumps(
        [
            system.packer.python_keys(system.index_matrix),
            system.indptr.tolist(),
            system.succ.tolist(),
        ]
    )
    digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
    assert (
        system.state_count,
        system.transition_count,
        digest,
    ) == PINNED_SYSTEMS[(name, daemon_class)]


@pytest.mark.parametrize("daemon_class", DAEMON_CLASSES)
@pytest.mark.parametrize("mode", ["full", "region"])
def test_multi_column_keys_match_dict_path(monkeypatch, daemon_class, mode):
    # A capacity of 30 packs at most two radix-5 digits per key column, so
    # a 4-vertex Dijkstra ring needs two columns (a 5-vertex one three).
    monkeypatch.setattr("repro.verify.batched._GROUP_CAPACITY", 30)
    n = 4 if mode == "full" else 5
    protocol = DijkstraTokenRing.on_ring(n, K=5)
    assert ArrayPacker(StateSpace(protocol), protocol.array_codec()).columns >= 2
    initial = None
    if mode == "region":
        initial = [
            protocol.configuration(
                {v: (v * 2) % protocol.K for v in protocol.graph.vertices}
            ),
            protocol.configuration({v: 0 for v in protocol.graph.vertices}),
        ]
    assert_systems_identical(
        protocol, MutualExclusionSpec(protocol), daemon_class, initial
    )


class _TruncatedDijkstra(DijkstraTokenRing):
    """Declares counters ``{0, ..., K-2}`` although the bottom machine's
    ``+1 mod K`` reaches ``K-1``."""

    def vertex_state_space(self, vertex):
        return range(self.K - 1)


@pytest.mark.parametrize("daemon_class", DAEMON_CLASSES)
@pytest.mark.parametrize("mode", ["full", "region"])
def test_out_of_domain_successor_raises_through_expansion(daemon_class, mode):
    protocol = _TruncatedDijkstra(ring_graph(3), K=4)
    system = BatchedTransitionSystem(
        protocol, MutualExclusionSpec(protocol), daemon_class
    )
    with pytest.raises(VerificationError, match="outside the declared state space"):
        if mode == "full":
            system.explore_full()
        else:
            system.explore(
                [protocol.configuration({v: 0 for v in protocol.graph.vertices})]
            )


# --------------------------------------------------------------------- #
# The exploration cap
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("engine", ["dict", "batched"])
@pytest.mark.parametrize("daemon_class", ["synchronous", "central"])
def test_exploration_cap_boundary(monkeypatch, engine, daemon_class):
    # The ssme-ring5 region holds exactly PINNED_SYSTEMS' state count: a
    # cap of that many passes, one fewer raises -- and the batched
    # registry never grows past the cap before raising.
    protocol = SSME(ring_graph(5))
    specification = MutualExclusionSpec(protocol)
    region = mutex_workload(protocol, random.Random(3), random_count=3)
    states = PINNED_SYSTEMS[("ssme-ring5-region", daemon_class)][0]
    grown_to = []
    add = _NodeRegistry.add

    def recording_add(self, keys, rows, ends):
        grown_to.append(self.count + keys.shape[0])
        return add(self, keys, rows, ends)

    monkeypatch.setattr(_NodeRegistry, "add", recording_add)
    result = verify_stabilization(
        protocol, specification, daemon_class, region,
        engine=engine, max_states=states,
    )
    assert result.state_count == states
    grown_to.clear()
    with pytest.raises(VerificationError, match="reachable region exceeds"):
        verify_stabilization(
            protocol, specification, daemon_class, region,
            engine=engine, max_states=states - 1,
        )
    assert max(grown_to, default=0) <= states - 1


# --------------------------------------------------------------------- #
# The node registry against a dict oracle
# --------------------------------------------------------------------- #
def _registry_state(protocol):
    system = BatchedTransitionSystem(
        protocol, MutualExclusionSpec(protocol), "central"
    )
    return _ExpansionState(system, exhaustive=False), system._packer


def _random_indices(packer, rng, count):
    radices = np.asarray(packer._radices)
    return (rng.random((count, radices.size)) * radices).astype(packer.digit_dtype)


def _check_against_oracle(state, packer, batches):
    """Feed index batches through ``nodes_of`` and compare every id with a
    dict assigning ids in first-occurrence order."""
    oracle = {}
    for idx in batches:
        expected = [
            oracle.setdefault(key, len(oracle)) for key in packer.python_keys(idx)
        ]
        nodes = state.nodes_of(packer.key_columns(idx), idx.__getitem__)
        assert nodes.tolist() == expected
    assert state.node_count == len(oracle)
    stored = state.rows_slice(0, state.node_count)
    assert packer.python_keys(stored) == list(oracle)


class TestNodeRegistry:
    @pytest.mark.parametrize(
        "slots, golden",
        [
            pytest.param(None, None, id="default"),
            pytest.param(2, None, id="tiny-table"),
            pytest.param(2, 0, id="tiny-table-colliding-hash"),
        ],
    )
    @pytest.mark.parametrize("capacity", [None, 30], ids=["one-column", "multi-column"])
    def test_ids_match_dict_oracle(self, monkeypatch, slots, golden, capacity):
        if slots is not None:
            monkeypatch.setattr("repro.verify.batched._REGISTRY_SLOTS", slots)
        if golden is not None:
            # Every key hashes to slot 0: one probe cluster holds them all.
            monkeypatch.setattr("repro.verify.batched._GOLDEN", golden)
        if capacity is not None:
            monkeypatch.setattr("repro.verify.batched._GROUP_CAPACITY", capacity)
        protocol = DijkstraTokenRing.on_ring(5, K=5)
        state, packer = _registry_state(protocol)
        assert packer.columns == (1 if capacity is None else 3)
        rng = np.random.default_rng(4)
        # 3125 states: later batches repeat earlier keys and repeat keys
        # within themselves.
        batches = [_random_indices(packer, rng, size) for size in (1, 7, 300, 2500, 900)]
        _check_against_oracle(state, packer, batches)
        if slots is not None:
            assert state._registry._table.size >= 2 * state.node_count > slots

    def test_duplicates_in_one_batch_share_an_id(self):
        protocol = DijkstraTokenRing.on_ring(4, K=5)
        state, packer = _registry_state(protocol)
        a, b, c = ([digit] * 4 for digit in (1, 3, 2))
        idx = np.asarray([a, b, a, c, b, a], dtype=packer.digit_dtype)
        nodes = state.nodes_of(packer.key_columns(idx), idx.__getitem__)
        assert nodes.tolist() == [0, 1, 0, 2, 1, 0]
        # The rows stored are those of the first occurrences.
        assert state.rows_slice(0, 3).tolist() == [a, b, c]
        again = np.asarray([c, [4] * 4, a], dtype=packer.digit_dtype)
        nodes = state.nodes_of(packer.key_columns(again), again.__getitem__)
        assert nodes.tolist() == [2, 3, 0]

    def test_registry_find_and_add(self, monkeypatch):
        monkeypatch.setattr("repro.verify.batched._REGISTRY_SLOTS", 2)
        protocol = DijkstraTokenRing.on_ring(3, K=5)
        _, packer = _registry_state(protocol)
        registry = _NodeRegistry(packer, np.int32)
        idx = np.asarray([[0, 1, 2], [4, 4, 4]], dtype=packer.digit_dtype)
        keys = packer.key_columns(idx)
        ids, ends = registry.find(keys)
        assert ids.tolist() == [-1, -1]
        assert registry.add(keys, idx, ends).tolist() == [0, 1]
        assert registry.find(keys)[0].tolist() == [0, 1]
        assert registry.count == 2
        assert registry.rows(0, 2).tolist() == idx.tolist()

    @pytest.mark.parametrize("name, daemon_class", [
        ("ssme-ring5-region", "synchronous"),
        ("ssme-ring5-region", "central"),
        ("ssme-ring5-region", "distributed"),
    ])
    def test_table_layout_leaves_discovery_order_pinned(
        self, monkeypatch, name, daemon_class
    ):
        # Collisions, rehashes during exploration and the probe window
        # change where ids sit in the table, never which ids are given.
        monkeypatch.setattr("repro.verify.batched._REGISTRY_SLOTS", 2)
        monkeypatch.setattr("repro.verify.batched._GOLDEN", 0)
        test_discovery_order_is_pinned(name, daemon_class)

    @pytest.mark.parametrize("daemon_class", DAEMON_CLASSES)
    def test_tiny_colliding_table_matches_dict_path(self, monkeypatch, daemon_class):
        monkeypatch.setattr("repro.verify.batched._REGISTRY_SLOTS", 2)
        monkeypatch.setattr("repro.verify.batched._GOLDEN", 0)
        monkeypatch.setattr("repro.verify.batched._GROUP_CAPACITY", 30)
        protocol = DijkstraTokenRing.on_ring(5, K=5)
        initial = [
            protocol.configuration(
                {v: (v * 2) % protocol.K for v in protocol.graph.vertices}
            ),
            protocol.configuration({v: 0 for v in protocol.graph.vertices}),
        ]
        assert_systems_identical(
            protocol, MutualExclusionSpec(protocol), daemon_class, initial
        )


# --------------------------------------------------------------------- #
# Narrow index rows
# --------------------------------------------------------------------- #
class TestNarrowIndexRows:
    def test_ssme_and_dijkstra_rows_are_uint8(self):
        ssme = SSME(ring_graph(6))
        region = mutex_workload(ssme, random.Random(3), random_count=3)
        system = BatchedTransitionSystem(
            ssme, MutualExclusionSpec(ssme), "synchronous"
        ).explore(region)
        assert system.index_matrix.dtype == np.uint8
        dijkstra = DijkstraTokenRing.on_ring(4, K=5)
        batched = BatchedTransitionSystem(
            dijkstra, MutualExclusionSpec(dijkstra), "central"
        )
        assert batched.explore_full().index_matrix.dtype == np.uint8
        start = dijkstra.configuration({v: 0 for v in dijkstra.graph.vertices})
        assert batched.explore([start]).index_matrix.dtype == np.uint8
        assert system.succ.dtype == np.int32

    @pytest.mark.parametrize("K, dtype", [(256, np.uint8), (257, np.uint16)])
    def test_digit_dtype_is_the_narrowest_that_fits(self, K, dtype):
        protocol = DijkstraTokenRing.on_ring(3, K=K)
        packer = ArrayPacker(StateSpace(protocol), protocol.array_codec())
        assert packer.digit_dtype == dtype

    @pytest.mark.parametrize("n", [5, 10])
    def test_narrow_rows_convert_like_int64_rows(self, n):
        # ring(10) needs several key columns; ring(5) fits one.
        protocol = SSME(ring_graph(n))
        space = StateSpace(protocol)
        packer = ArrayPacker(space, protocol.array_codec())
        rng = random.Random(n)
        configurations = [protocol.random_configuration(rng) for _ in range(40)]
        narrow = packer.indices_of_keys(space.encode_many(configurations))
        wide = narrow.astype(np.int64)
        assert narrow.dtype == np.uint8
        assert (packer.key_columns(narrow) == packer.key_columns(wide)).all()
        assert packer.python_keys(narrow) == packer.python_keys(wide)
        assert packer.configurations_of(narrow) == packer.configurations_of(wide)
        assert packer.configurations_of(narrow) == configurations
        assert (packer.rows_of(narrow) == packer.rows_of(wide)).all()

    @pytest.mark.parametrize("daemon_class", DAEMON_CLASSES)
    def test_key_deltas_do_not_wrap(self, daemon_class):
        # Dijkstra's machines copy a smaller counter or step K-1 -> 0: a
        # fired digit falls below its parent's, so the key delta is
        # negative.  Were the difference taken in uint8 it would wrap by
        # 256, and configurations reached that way would be registered
        # twice.
        protocol = DijkstraTokenRing.on_ring(4, K=5)
        initial = [protocol.random_configuration(random.Random(seed)) for seed in range(3)]
        system = BatchedTransitionSystem(
            protocol, MutualExclusionSpec(protocol), daemon_class
        ).explore(initial)
        rows = system.index_matrix.astype(np.int64)
        parents = np.repeat(np.arange(system.state_count), np.diff(system.indptr))
        assert system.index_matrix.dtype == np.uint8
        assert (rows[system.succ] < rows[parents]).any()
        assert_systems_identical(
            protocol, MutualExclusionSpec(protocol), daemon_class, initial
        )


# --------------------------------------------------------------------- #
# Memory budget
# --------------------------------------------------------------------- #
#: Traced bytes per explored state at the peak of exploring and solving
#: the SSME ring(7) central region below: measured 115, plus 25%.
BYTES_PER_STATE_BUDGET = 144


def test_memory_per_explored_state():
    def certify(n):
        protocol = SSME(ring_graph(n))
        specification = MutualExclusionSpec(protocol)
        region = mutex_workload(protocol, random.Random(1), random_count=6)
        tracemalloc.start()
        try:
            system = BatchedTransitionSystem(
                protocol, specification, "central"
            ).explore(region)
            solution = solve_arrays(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return system.state_count, solution.exact_worst_case, peak

    certify(4)  # first-use allocations (lazy imports, caches) land here
    states, worst, peak = certify(7)
    assert (states, worst) == (31_185, 10)
    assert peak / states <= BYTES_PER_STATE_BUDGET

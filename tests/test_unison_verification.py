"""Asynchronous unison on rings through the exact checker.

Unison's rules read only the multiset of neighbour clocks, so every
automorphism of the ring maps executions to executions. The exact checker
explores concrete configurations; these tests pin that its answers respect
that symmetry, that both engines agree on unison instances, and that the
divergence lassos it returns replay step by step.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import ring_graph
from repro.mutex import SSME, MutualExclusionSpec
from repro.unison import AsynchronousUnison, AsynchronousUnisonSpec
from repro.verify import StateSpace, exact_speculation_gap, verify_stabilization
from repro.verify.batched import ArrayPacker


def unison_instance(n: int, alpha: int = 1, K: int = 3):
    """A small instance (parameters below the paper's validity threshold on
    purpose, so that some daemons diverge)."""
    protocol = AsynchronousUnison(
        ring_graph(n), alpha=alpha, K=K, validate_parameters=False
    )
    return protocol, AsynchronousUnisonSpec(protocol)


def dihedral_maps(n: int):
    """The 2n vertex maps of ``ring_graph(n)``: rotations and reflections."""
    rotations = [{v: (v + r) % n for v in range(n)} for r in range(n)]
    reflections = [{v: (r - v) % n for v in range(n)} for r in range(n)]
    return rotations + reflections


def mapped(protocol, configuration, vertex_map):
    return protocol.configuration(
        {vertex_map[v]: configuration[v] for v in protocol.graph.vertices}
    )


# --------------------------------------------------------------------- #
# The protocol commutes with the ring's symmetries
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
def test_unison_steps_commute_with_ring_symmetries(n):
    protocol, _ = unison_instance(n)
    edges = {frozenset(edge) for edge in protocol.graph.edges}
    rng = random.Random(n)
    for vertex_map in dihedral_maps(n):
        assert {frozenset((vertex_map[u], vertex_map[v]))
                for u, v in protocol.graph.edges} == edges
        gamma = protocol.random_configuration(rng)
        enabled = sorted(protocol.enabled_vertices(gamma))
        image = mapped(protocol, gamma, vertex_map)
        assert protocol.enabled_vertices(image) == frozenset(
            vertex_map[v] for v in enabled
        )
        if not enabled:
            continue
        selection = rng.sample(enabled, rng.randint(1, len(enabled)))
        successor, _ = protocol.apply(gamma, selection)
        image_successor, _ = protocol.apply(
            image, [vertex_map[v] for v in selection]
        )
        assert image_successor == mapped(protocol, successor, vertex_map)


# --------------------------------------------------------------------- #
# The concrete game respects the symmetry
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "daemon_class,n",
    [
        ("synchronous", 4),
        ("synchronous", 6),
        ("central", 4),
        ("central", 5),
        ("distributed", 4),
    ],
)
def test_exact_values_are_constant_on_symmetry_orbits(daemon_class, n):
    protocol, specification = unison_instance(n)
    result = verify_stabilization(protocol, specification, daemon_class)
    assert result.state_count == StateSpace(protocol).size
    rng = random.Random(n)
    maps = dihedral_maps(n)
    for _ in range(10):
        gamma = protocol.random_configuration(rng)
        expected = result.value_of(gamma)
        assert result.value_of(mapped(protocol, gamma, rng.choice(maps))) == expected


@pytest.mark.parametrize("daemon_class", ["synchronous", "central", "distributed"])
def test_unison_agrees_across_engines(daemon_class):
    protocol, specification = unison_instance(4, alpha=2, K=8)
    results = {
        engine: verify_stabilization(
            protocol, specification, daemon_class, engine=engine
        )
        for engine in ("dict", "batched")
    }
    assert results["dict"].state_count == results["batched"].state_count
    assert results["dict"].stabilizes == results["batched"].stabilizes
    assert results["dict"].exact_worst_case == results["batched"].exact_worst_case
    assert (
        results["dict"].legitimate_count == results["batched"].legitimate_count
    )


# --------------------------------------------------------------------- #
# Certificates
# --------------------------------------------------------------------- #
def replay_lasso(counterexample, protocol):
    configs = list(counterexample.stem) + list(counterexample.cycle)
    selections = list(counterexample.stem_selections) + list(
        counterexample.cycle_selections
    )
    sequence = configs + [counterexample.cycle[0]]
    for i, selection in enumerate(selections):
        if not selection:
            assert sequence[i] == sequence[i + 1]
            continue
        successor, _ = protocol.apply(sequence[i], selection)
        assert successor == sequence[i + 1], f"replay mismatch at step {i}"


@pytest.mark.parametrize("engine", ["dict", "batched"])
def test_unison_lassos_replay(engine):
    # alpha = 1 < hole - 2: genuinely diverging under the distributed daemon.
    protocol, specification = unison_instance(5)
    result = verify_stabilization(
        protocol, specification, "distributed", engine=engine
    )
    assert not result.stabilizes
    assert result.counterexample is not None
    replay_lasso(result.counterexample, protocol)


# --------------------------------------------------------------------- #
# Packed rows of unison configurations
# --------------------------------------------------------------------- #
@settings(max_examples=25, deadline=None)
@given(st.integers(3, 6), st.integers(0, 10_000))
def test_unison_keys_round_trip_through_index_rows(n, seed):
    protocol, _ = unison_instance(n)
    space = StateSpace(protocol)
    packer = ArrayPacker(space, protocol.array_codec())
    rng = random.Random(seed)
    keys = [rng.randrange(space.size) for _ in range(32)]
    rows = packer.indices_of_keys(keys)
    assert packer.python_keys(rows) == keys
    assert packer.configurations_of(rows) == [space.decode(key) for key in keys]


def test_unison_narrow_rows_match_wide_rows():
    protocol, _ = unison_instance(4, alpha=2, K=8)
    space = StateSpace(protocol)
    packer = ArrayPacker(space, protocol.array_codec())
    rng = random.Random(2)
    keys = [rng.randrange(space.size) for _ in range(60)]
    narrow = packer.indices_of_keys(keys)
    assert narrow.dtype == np.uint8
    assert packer.python_keys(narrow) == packer.python_keys(narrow.astype(np.int64))
    assert packer.python_keys(narrow) == keys


# --------------------------------------------------------------------- #
# The checker takes no symmetry option
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("solve", [verify_stabilization, exact_speculation_gap])
def test_symmetry_is_not_an_option(solve):
    protocol = SSME(ring_graph(4))
    specification = MutualExclusionSpec(protocol)
    options = {"symmetry": True}
    with pytest.raises(TypeError):
        solve(protocol, specification, **options)

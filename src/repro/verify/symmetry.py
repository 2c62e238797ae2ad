"""Symmetry quotient for the exact checker: canonical keys under graph
automorphisms.

On a ring, rotating (or reflecting) a configuration of an *anonymous*
protocol yields a configuration with exactly the same future: every rule
reads only the local state and the neighbour state multiset, so an
automorphism ``g`` maps executions to executions step for step.  When the
specification's safety predicate is equally invariant, the whole
stabilization game is equivariant — ``V(g·γ) = V(γ)`` for every
configuration and the legitimate attractor is a union of orbits.  The
checker may therefore explore one representative per orbit: a
:class:`SymmetryReducer` canonicalizes every packed key to the minimum key
of its orbit *before* dedup, dividing states stored and expanded by up to
``|Aut(g)|`` (``2n`` on rings).

Both preconditions are opt-in capability flags —
:attr:`repro.core.Protocol.vertex_symmetric` and
:attr:`repro.core.Specification.vertex_symmetric` — because they are
semantic properties no amount of introspection can prove: SSME *looks*
symmetric (it subclasses the symmetric unison) but its privileged values
are spaced by vertex identity, which breaks equivariance of the
mutual-exclusion layer.  :meth:`SymmetryReducer.for_instance` returns
``None`` unless both flags are set, the per-vertex domains are aligned
under every automorphism, and the group is non-trivial.

The quotient changes what counts *mean*: state/transition/legitimate
counts are per-orbit, not per-configuration.  Per-state values are
preserved exactly (the Hypothesis suite pins quotient == full worst-case
values on rings), and divergence witnesses are mapped back to concrete
executions by :func:`unroll_quotient_walk` so lassos still replay
transition-by-transition.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.protocol import Protocol
from ..core.specification import Specification
from ..exceptions import VerificationError
from ..graphs import Graph
from ..types import VertexId
from .statespace import StateSpace

__all__ = ["SymmetryReducer", "ring_automorphisms"]


def _ring_cycle_order(graph: Graph) -> Optional[List[VertexId]]:
    """The vertices of ``graph`` in cyclic order, or ``None`` if it is not
    a ring (connected, n >= 3, every degree exactly 2)."""
    if graph.n < 3:
        return None
    if any(graph.degree(v) != 2 for v in graph.vertices):
        return None
    start = graph.sorted_vertices()[0]
    cycle = [start]
    previous: Optional[VertexId] = None
    current = start
    while True:
        neighbors = [u for u in graph.neighbors(current) if u != previous]
        # On a degree-2 graph there is exactly one way forward (two from
        # the start; either orientation works, pick deterministically).
        following = min(neighbors, key=repr)
        if following == start:
            break
        cycle.append(following)
        previous, current = current, following
    if len(cycle) != graph.n:
        return None  # two disjoint cycles: degree-2 but disconnected
    return cycle


def ring_automorphisms(graph: Graph) -> Optional[List[Dict[VertexId, VertexId]]]:
    """Closed-form automorphism group of a ring: the ``2n`` rotations and
    reflections of its cyclic order (``None`` when ``graph`` is no ring).

    The generic :meth:`repro.graphs.Graph.automorphisms` backtracking finds
    the same group; the closed form skips the search entirely on the one
    topology the paper's experiments sweep.
    """
    cycle = _ring_cycle_order(graph)
    if cycle is None:
        return None
    n = len(cycle)
    maps: List[Dict[VertexId, VertexId]] = []
    for shift in range(n):
        maps.append({cycle[i]: cycle[(i + shift) % n] for i in range(n)})
        maps.append({cycle[i]: cycle[(shift - i) % n] for i in range(n)})
    return maps


class SymmetryReducer:
    """Canonicalizes packed keys to the minimum key of their orbit.

    Parameters
    ----------
    space:
        The packed configuration space the keys live in.
    vertex_maps:
        The automorphism group as vertex -> image mappings (identity
        included or not; duplicates are removed).  Every map must align the
        per-vertex domains exactly — permuting state *indices* between
        vertices is only meaningful when the domains agree elementwise.
    """

    __slots__ = ("_space", "_perms", "_radices", "_multipliers")

    def __init__(
        self, space: StateSpace, vertex_maps: Iterable[Dict[VertexId, VertexId]]
    ) -> None:
        vertices = space.vertices
        position = {v: i for i, v in enumerate(vertices)}
        domains = [space.domain(v) for v in vertices]
        perms: List[Tuple[int, ...]] = []
        for vertex_map in vertex_maps:
            # b = a[perm]: vertex order[j] receives the state of g(order[j]).
            perm = tuple(position[vertex_map[v]] for v in vertices)
            for j, source in enumerate(perm):
                if domains[j] != domains[source]:
                    raise VerificationError(
                        f"automorphism maps vertex {vertices[source]!r} onto "
                        f"{vertices[j]!r} but their declared state spaces "
                        "differ; the symmetry quotient needs aligned domains"
                    )
            perms.append(perm)
        if not perms:
            raise VerificationError("the automorphism group is empty")
        # The identity is always an automorphism; guaranteeing its presence
        # lets the array canonicalization initialize its running minimum
        # from the unpermuted matrix (identity sorts first: it is the
        # lexicographically smallest permutation).
        perms.append(tuple(range(len(vertices))))
        unique = sorted(set(perms))
        self._space = space
        self._perms = tuple(unique)
        self._radices = tuple(len(domain) for domain in domains)
        self._multipliers = tuple(space.multipliers)

    @property
    def space(self) -> StateSpace:
        """The packed space the reducer canonicalizes over."""
        return self._space

    @property
    def group_size(self) -> int:
        """Number of (distinct) automorphisms, identity included."""
        return len(self._perms)

    @property
    def permutations(self) -> Tuple[Tuple[int, ...], ...]:
        """Position permutations: ``b = a[perm]`` per automorphism."""
        return self._perms

    # ------------------------------------------------------------------ #
    # Construction from an instance
    # ------------------------------------------------------------------ #
    @classmethod
    def for_instance(
        cls,
        protocol: Protocol,
        specification: Specification,
        space: Optional[StateSpace] = None,
    ) -> Optional["SymmetryReducer"]:
        """The reducer for an instance, or ``None`` when quotienting is
        unsound (either capability flag unset), impossible (domains not
        aligned under the group) or pointless (trivial group)."""
        if not (protocol.vertex_symmetric and specification.vertex_symmetric):
            return None
        space = space if space is not None else StateSpace(protocol)
        graph = protocol.graph
        vertex_maps = ring_automorphisms(graph)
        if vertex_maps is None:
            vertex_maps = graph.automorphisms()
        try:
            reducer = cls(space, vertex_maps)
        except VerificationError:
            return None
        if reducer.group_size <= 1:
            return None
        return reducer

    # ------------------------------------------------------------------ #
    # Canonicalization (pure Python — the dict checker's path)
    # ------------------------------------------------------------------ #
    def _indices_of_key(self, key: int) -> List[int]:
        indices: List[int] = []
        for radix in self._radices:
            key, index = divmod(key, radix)
            indices.append(index)
        return indices

    def _key_of_indices(self, indices: Sequence[int]) -> int:
        key = 0
        for index, multiplier in zip(indices, self._multipliers):
            key += index * multiplier
        return key

    def canonical_key(self, key: int) -> int:
        """The minimum key of ``key``'s orbit (idempotent by construction)."""
        indices = self._indices_of_key(key)
        best = key
        for perm in self._perms:
            candidate = self._key_of_indices([indices[j] for j in perm])
            if candidate < best:
                best = candidate
        return best

    def canonical_keys(self, keys: Iterable[int]) -> List[int]:
        """Bulk :meth:`canonical_key`."""
        return [self.canonical_key(key) for key in keys]

    def orbit_keys(self, key: int) -> List[int]:
        """Every distinct key of ``key``'s orbit, ascending."""
        indices = self._indices_of_key(key)
        return sorted(
            {self._key_of_indices([indices[j] for j in perm]) for perm in self._perms}
        )

    # ------------------------------------------------------------------ #
    # Array canonicalization (the batched checker's hot path)
    # ------------------------------------------------------------------ #
    def permutation_matrix(self):
        """The ``(|G|, n)`` int64 permutation matrix for array gathers."""
        import numpy as np

        return np.asarray(self._perms, dtype=np.int64)

    def canonicalize_index_matrix(self, index_matrix, packer):
        """Canonical per-orbit representative of every row of an ``(m, n)``
        domain-index matrix, chosen as the row with the minimum mixed-radix
        key (ties impossible: equal keys are equal rows).

        ``packer`` supplies :meth:`~repro.verify.batched.ArrayPacker.
        key_columns` — grouped int64 key columns whose lexicographic order
        equals the numeric key order even when the full key overflows
        int64.  Returns the canonical ``(m, n)`` matrix.
        """
        import numpy as np

        perm_matrix = self.permutation_matrix()
        m = index_matrix.shape[0]
        best_cols = packer.key_columns(index_matrix)
        best_perm = np.zeros(m, dtype=np.int64)
        for g in range(perm_matrix.shape[0]):
            permuted = index_matrix[:, perm_matrix[g]]
            cols = packer.key_columns(permuted)
            better = _lex_less(cols, best_cols)
            if better.any():
                best_cols[better] = cols[better]
                best_perm[better] = g
        return index_matrix[
            np.arange(m, dtype=np.int64)[:, None], perm_matrix[best_perm]
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"SymmetryReducer(group_size={self.group_size}, n={len(self._radices)})"


def _lex_less(left, right):
    """Row-wise ``left < right`` for ``(m, C)`` column matrices compared
    lexicographically, most-significant column last (mixed-radix layout:
    later groups hold higher-significance digits)."""
    import numpy as np

    m = left.shape[0]
    less = np.zeros(m, dtype=bool)
    equal_so_far = np.ones(m, dtype=bool)
    for c in range(left.shape[1] - 1, -1, -1):
        column_less = left[:, c] < right[:, c]
        less |= equal_so_far & column_less
        equal_so_far &= left[:, c] == right[:, c]
    return less

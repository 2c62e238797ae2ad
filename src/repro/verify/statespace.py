"""Enumerable configuration spaces with integer-key packing.

The exact model checker stores millions of configurations, so it cannot
afford one dict (plus hash of a frozenset of items) per configuration the
way :class:`~repro.core.Configuration` does.  A :class:`StateSpace` instead
packs every configuration of a finite-state protocol into a single
**mixed-radix integer key**: vertex ``i``'s state is mapped to its index in
the protocol's :meth:`~repro.core.Protocol.vertex_state_space` domain, and
the indices are combined positionally (``key = Σ index_i · multiplier_i``).
Keys are exact, total over the product space, hashable, compact, and cheap
to compare — the properties every explicit-state set/queue below needs.

When the protocol declares an array codec (:meth:`~repro.core.Protocol.
array_codec`) and every domain is a contiguous integer range, bulk packing
goes through the codec: a batch of configurations becomes one
``(m, n·width)`` int64 array and one matrix product with the multiplier
vector.  A pure-Python per-vertex path computes the identical keys for
every other protocol, and is also the small-batch fast path — for a few
configurations a dict lookup per vertex beats building an array.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..core.protocol import Protocol
from ..core.state import Configuration
from ..exceptions import VerificationError
from ..types import VertexId, VertexStateLike

__all__ = ["StateSpace", "DEFAULT_MAX_ENUMERATED"]

#: Default ceiling on full-space enumeration (``StateSpace.keys``): beyond
#: this, exhaustive verification would not finish interactively and callers
#: must either shrink the instance or verify a reachable region instead.
DEFAULT_MAX_ENUMERATED = 2_000_000


class StateSpace:
    """The product of the per-vertex state spaces of a finite-state protocol.

    Parameters
    ----------
    protocol:
        A protocol whose :meth:`~repro.core.Protocol.vertex_state_space`
        returns a finite domain for every vertex.
    max_enumerated:
        Ceiling on :meth:`keys`/:meth:`configurations` (full enumeration
        only; :meth:`encode`/:meth:`decode` work for any size).

    Examples
    --------
    >>> from repro.mutex import DijkstraTokenRing
    >>> space = StateSpace(DijkstraTokenRing.on_ring(3))
    >>> space.size  # K^n = 4^3
    64
    >>> space.decode(space.encode({0: 1, 1: 3, 2: 0}))
    Configuration({0: 1, 1: 3, 2: 0})
    """

    __slots__ = (
        "_protocol",
        "_vertices",
        "_domains",
        "_value_index",
        "_multipliers",
        "_size",
        "_max_enumerated",
        "_int_ranges",
    )

    def __init__(
        self, protocol: Protocol, max_enumerated: int = DEFAULT_MAX_ENUMERATED
    ) -> None:
        self._protocol = protocol
        self._vertices: Tuple[VertexId, ...] = tuple(protocol.graph.sorted_vertices())
        domains: List[Tuple[VertexStateLike, ...]] = []
        for vertex in self._vertices:
            domain = protocol.vertex_state_space(vertex)
            if domain is None:
                raise VerificationError(
                    f"protocol {protocol.name!r} declares no finite state space "
                    f"for vertex {vertex!r} (vertex_state_space returned None); "
                    "exact verification needs the capability"
                )
            domain = tuple(domain)
            if not domain:
                raise VerificationError(
                    f"empty state space for vertex {vertex!r}"
                )
            if len(set(domain)) != len(domain):
                raise VerificationError(
                    f"state space of vertex {vertex!r} lists duplicate states"
                )
            domains.append(domain)
        self._domains = tuple(domains)
        self._value_index: Tuple[Dict[VertexStateLike, int], ...] = tuple(
            {state: index for index, state in enumerate(domain)}
            for domain in domains
        )
        multipliers: List[int] = []
        size = 1
        for domain in domains:
            multipliers.append(size)
            size *= len(domain)
        self._multipliers = tuple(multipliers)
        self._size = size
        self._max_enumerated = max_enumerated
        # Contiguous-int domains (cherry values, Dijkstra counters) allow the
        # arithmetic index ``state - lo`` and hence the codec bulk path.
        int_ranges: List[Optional[int]] = []
        for domain in domains:
            if all(isinstance(s, int) and not isinstance(s, bool) for s in domain) and list(
                domain
            ) == list(range(domain[0], domain[0] + len(domain))):
                int_ranges.append(domain[0])
            else:
                int_ranges.append(None)
        self._int_ranges = tuple(int_ranges)

    # ------------------------------------------------------------------ #
    # Geometry
    # ------------------------------------------------------------------ #
    @property
    def protocol(self) -> Protocol:
        """The protocol whose configurations this space packs."""
        return self._protocol

    @property
    def vertices(self) -> Tuple[VertexId, ...]:
        """The vertices in packing order (the graph's sorted order)."""
        return self._vertices

    @property
    def size(self) -> int:
        """Number of configurations in the product space."""
        return self._size

    @property
    def domains(self) -> Tuple[Tuple[VertexStateLike, ...], ...]:
        """Per-vertex declared domains, aligned with :attr:`vertices`."""
        return self._domains

    @property
    def multipliers(self) -> Tuple[int, ...]:
        """Mixed-radix positional multipliers, aligned with :attr:`vertices`
        (``key = Σ index_i · multipliers[i]``)."""
        return self._multipliers

    def domain(self, vertex: VertexId) -> Tuple[VertexStateLike, ...]:
        """The declared state space of ``vertex``."""
        try:
            position = self._vertices.index(vertex)
        except ValueError:
            raise VerificationError(f"unknown vertex {vertex!r}") from None
        return self._domains[position]

    # ------------------------------------------------------------------ #
    # Packing
    # ------------------------------------------------------------------ #
    def encode(self, configuration: Mapping[VertexId, VertexStateLike]) -> int:
        """The mixed-radix integer key of ``configuration``."""
        key = 0
        try:
            for position, vertex in enumerate(self._vertices):
                key += self._value_index[position][configuration[vertex]] * self._multipliers[position]
        except KeyError:
            # Distinguish a missing vertex from an out-of-domain state.
            for position, vertex in enumerate(self._vertices):
                if vertex not in configuration:
                    raise VerificationError(
                        f"configuration has no state for vertex {vertex!r}"
                    ) from None
                if configuration[vertex] not in self._value_index[position]:
                    raise VerificationError(
                        f"state {configuration[vertex]!r} of vertex {vertex!r} "
                        "is outside the declared state space"
                    ) from None
            raise
        return key

    def decode(self, key: int) -> Configuration:
        """The configuration packed as ``key`` (inverse of :meth:`encode`)."""
        if not 0 <= key < self._size:
            raise VerificationError(
                f"key {key} outside the state space (size {self._size})"
            )
        states: Dict[VertexId, VertexStateLike] = {}
        for position, vertex in enumerate(self._vertices):
            domain = self._domains[position]
            key, index = divmod(key, len(domain))
            states[vertex] = domain[index]
        return Configuration._from_trusted_dict(states)

    def encode_many(
        self, configurations: Sequence[Mapping[VertexId, VertexStateLike]]
    ) -> List[int]:
        """The keys of a batch of configurations.

        Routes through the protocol's array codec when the protocol
        declares a width-1 one and every domain is a contiguous integer
        range — one ``(m, n)`` encode plus a matrix product instead of
        ``m·n`` dict lookups.  Falls back to per-configuration
        :meth:`encode` (identical keys) otherwise — including for batches
        under 8, where the per-vertex loop beats the array setup cost.
        """
        if len(configurations) >= 8 and all(lo is not None for lo in self._int_ranges):
            keys = self._encode_many_codec(configurations)
            if keys is not None:
                return keys
        return [self.encode(configuration) for configuration in configurations]

    def _encode_many_codec(
        self, configurations: Sequence[Mapping[VertexId, VertexStateLike]]
    ) -> Optional[List[int]]:
        codec = self._protocol.array_codec()
        if codec is None or codec.width != 1:
            # Width-1 codecs (IntCodec) line up one column per vertex with
            # the mixed-radix layout; wider codecs would need a per-column
            # radix split that none of the library's protocols requires yet.
            return None
        import numpy as np

        try:
            rows = np.stack(
                [codec.encode(configuration, self._vertices)[:, 0] for configuration in configurations]
            )
        except (TypeError, ValueError, OverflowError):
            return None
        lows = np.asarray(self._int_ranges, dtype=np.int64)
        sizes = np.asarray([len(d) for d in self._domains], dtype=np.int64)
        indices = rows - lows
        out_of_range = (indices < 0) | (indices >= sizes)
        if out_of_range.any():
            # Name the offending vertex and value: a generic message on a
            # thousand-configuration batch is undebuggable, and silently
            # producing a wrong packed key would be worse.
            row, column = (int(x) for x in np.argwhere(out_of_range)[0])
            vertex = self._vertices[column]
            raise VerificationError(
                f"state {configurations[row][vertex]!r} of vertex {vertex!r} "
                "is outside the declared state space"
            )
        # Object dtype: multipliers (and hence keys) can exceed int64 on
        # large products, and Python ints never overflow.
        multipliers = np.asarray(self._multipliers, dtype=object)
        return [int(k) for k in (indices.astype(object) * multipliers).sum(axis=1)]

    # ------------------------------------------------------------------ #
    # Enumeration
    # ------------------------------------------------------------------ #
    def keys(self) -> Iterator[int]:
        """Every key of the product space, in increasing order.

        Guarded by ``max_enumerated``: exhaustive enumeration beyond the cap
        raises instead of silently running forever — shrink the instance or
        verify a reachable region (:meth:`repro.verify.TransitionSystem.explore`).
        """
        if self._size > self._max_enumerated:
            raise VerificationError(
                f"state space has {self._size} configurations, above the "
                f"enumeration cap of {self._max_enumerated}; verify a "
                "reachable region instead or raise max_enumerated"
            )
        return iter(range(self._size))

    def configurations(self) -> Iterator[Configuration]:
        """Every configuration of the product space (same cap as :meth:`keys`)."""
        return (self.decode(key) for key in self.keys())

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"StateSpace(n={len(self._vertices)}, size={self._size})"

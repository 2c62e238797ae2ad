"""Daemons (adversaries/schedulers) of Definition 1.

A daemon restricts which executions of a protocol are considered possible.
Operationally, our simulator consults the daemon at every configuration: the
daemon receives the set of enabled vertices and returns the non-empty subset
that gets activated during the next action.

The classical daemons of the paper are provided:

* :class:`SynchronousDaemon` (``sd``) — activates every enabled vertex;
* :class:`CentralDaemon` (``cd``) — activates exactly one enabled vertex;
* :class:`DistributedDaemon` — activates an arbitrary non-empty subset,
  which (together with the adversarial variants below) stands in for the
  *unfair distributed daemon* ``ud`` of the paper;
* :class:`LocallyCentralDaemon` — never activates two neighbours at once;
* :class:`AdversarialCentralDaemon` / :class:`StarvationDaemon` — greedy
  heuristics that try to delay convergence or starve a process, used to
  estimate worst-case stabilization times under unfair scheduling.

Definition 2's partial order ("more powerful" = allows more executions) is
made executable through :meth:`Daemon.admits_selection` and
:func:`is_weaker_than`: a daemon is weaker than another (over a ground set
of enabled vertices) when every per-step selection it can make is also
available to the other.
"""

from __future__ import annotations

import itertools
import random
from abc import ABC, abstractmethod
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..exceptions import DaemonError
from ..types import VertexId, VertexStateLike
from .protocol import Protocol
from .rules import LocalView, Rule
from .state import Configuration

__all__ = [
    "Daemon",
    "SynchronousDaemon",
    "CentralDaemon",
    "RoundRobinCentralDaemon",
    "DistributedDaemon",
    "LocallyCentralDaemon",
    "AdversarialCentralDaemon",
    "StarvationDaemon",
    "RegimeSwitchingDaemon",
    "is_weaker_than",
    "DAEMON_FACTORIES",
    "make_daemon",
]


class Daemon(ABC):
    """Base class for daemons.

    A daemon may be *bound* to a protocol by the simulator (see
    :meth:`bind`); adversarial daemons use the protocol to look ahead, the
    others ignore it.
    """

    #: Short human-readable name ("sd", "cd", ...), set by subclasses.
    name: str = "daemon"

    #: True only for daemons whose selection is *always* the full enabled
    #: set (the synchronous daemon).  Such schedules are deterministic given
    #: the initial configuration, which is what licenses the superstep
    #: path of :class:`repro.core.vector.VectorEngine`: every step can be
    #: executed as pure array operations because no per-step daemon
    #: decision exists.  Never set this on a daemon that can activate a
    #: proper subset — the superstep path skips ``select`` entirely.
    #: Backend selection reads this flag alone: synchronous runs may take
    #: the array kernel, every other daemon runs on the dict engine.
    synchronous: bool = False

    def __init__(self) -> None:
        self._protocol: Optional[Protocol] = None
        self._sorted_vertices: Optional[List[VertexId]] = None

    def bind(self, protocol: Protocol) -> None:
        """Attach the protocol whose executions this daemon schedules."""
        self._protocol = protocol
        # Cache the deterministic vertex order once: the simulator hands the
        # daemon a (cached) enabled set every step, and re-sorting it by repr
        # per step is a hidden O(n log n) on the simulation hot path.
        self._sorted_vertices = list(protocol.graph.sorted_vertices())

    def _ordered_enabled(self, enabled: FrozenSet[VertexId]) -> List[VertexId]:
        """The enabled vertices in deterministic (repr-sorted) order.

        Uses the vertex order cached at :meth:`bind` time when available —
        one membership filter instead of a repr sort per step.  For enabled
        sets much smaller than the graph (the tail of every stabilization
        run) sorting the few elements directly is cheaper than scanning the
        full vertex order; both branches produce the identical list.
        """
        if self._sorted_vertices is None or len(enabled) * 8 < len(self._sorted_vertices):
            return sorted(enabled, key=repr)
        return [v for v in self._sorted_vertices if v in enabled]

    @property
    def protocol(self) -> Optional[Protocol]:
        """The bound protocol, if any."""
        return self._protocol

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    @abstractmethod
    def select(
        self,
        enabled: FrozenSet[VertexId],
        configuration: Configuration,
        step_index: int,
        rng: random.Random,
    ) -> FrozenSet[VertexId]:
        """Choose the non-empty subset of ``enabled`` to activate.

        ``enabled`` is the simulator's cached enabled set for the current
        configuration — daemons must not recompute it.  ``configuration``
        is an immutable snapshot under the default trace mode, but a *live*
        read-only view in light-trace mode: read it freely during the call,
        never retain it across steps.
        """

    def checked_select(
        self,
        enabled: FrozenSet[VertexId],
        configuration: Configuration,
        step_index: int,
        rng: random.Random,
    ) -> FrozenSet[VertexId]:
        """Like :meth:`select`, with the legality checks of the model."""
        if not enabled:
            raise DaemonError("select() called with no enabled vertex")
        selection = frozenset(self.select(enabled, configuration, step_index, rng))
        if selection is enabled:
            # The synchronous daemon returns the enabled set itself (and
            # frozenset() of a frozenset is the same object); the subset
            # check below would cost O(n) per step for nothing.
            return selection
        if not selection:
            raise DaemonError(f"daemon {self.name!r} returned an empty selection")
        if not selection <= enabled:
            raise DaemonError(
                f"daemon {self.name!r} selected disabled vertices: "
                f"{sorted(selection - enabled, key=repr)!r}"
            )
        return selection

    # ------------------------------------------------------------------ #
    # Definition 2 semantics
    # ------------------------------------------------------------------ #
    def admits_selection(
        self, enabled: FrozenSet[VertexId], selection: FrozenSet[VertexId]
    ) -> bool:
        """Whether this daemon could ever return ``selection`` for ``enabled``.

        The default is the unconstrained (distributed) behaviour: any
        non-empty subset of the enabled vertices.
        """
        return bool(selection) and selection <= enabled

    def admissible_selections(
        self, enabled: FrozenSet[VertexId]
    ) -> List[FrozenSet[VertexId]]:
        """Enumerate every selection this daemon admits (small sets only)."""
        vertices = sorted(enabled, key=repr)
        result = []
        for size in range(1, len(vertices) + 1):
            for combo in itertools.combinations(vertices, size):
                candidate = frozenset(combo)
                if self.admits_selection(enabled, candidate):
                    result.append(candidate)
        return result

    def reset(self) -> None:
        """Forget scheduling memory (round-robin position, starvation
        target...).  Called by the simulator before each run."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SynchronousDaemon(Daemon):
    """The synchronous daemon ``sd``: every enabled vertex is activated."""

    name = "sd"
    synchronous = True

    def select(
        self,
        enabled: FrozenSet[VertexId],
        configuration: Configuration,
        step_index: int,
        rng: random.Random,
    ) -> FrozenSet[VertexId]:
        return enabled

    def admits_selection(
        self, enabled: FrozenSet[VertexId], selection: FrozenSet[VertexId]
    ) -> bool:
        return bool(selection) and selection == enabled


class CentralDaemon(Daemon):
    """The central daemon ``cd``: exactly one enabled vertex per action.

    ``strategy`` controls which vertex is picked:

    * ``"random"`` — uniformly at random (default);
    * ``"first"`` / ``"last"`` — deterministic extremes of the repr order,
      useful to build reproducible sequential executions.
    """

    name = "cd"

    def __init__(self, strategy: str = "random") -> None:
        super().__init__()
        if strategy not in {"random", "first", "last"}:
            raise DaemonError(f"unknown central strategy {strategy!r}")
        self._strategy = strategy

    def select(
        self,
        enabled: FrozenSet[VertexId],
        configuration: Configuration,
        step_index: int,
        rng: random.Random,
    ) -> FrozenSet[VertexId]:
        ordered = self._ordered_enabled(enabled)
        if self._strategy == "first":
            choice = ordered[0]
        elif self._strategy == "last":
            choice = ordered[-1]
        else:
            choice = rng.choice(ordered)
        return frozenset({choice})

    def admits_selection(
        self, enabled: FrozenSet[VertexId], selection: FrozenSet[VertexId]
    ) -> bool:
        return len(selection) == 1 and selection <= enabled


class RoundRobinCentralDaemon(Daemon):
    """A fair central daemon cycling through the vertices in a fixed order.

    Useful as a benign sequential scheduler (it never starves a vertex).
    """

    name = "cd-rr"

    def __init__(self) -> None:
        super().__init__()
        self._cursor = 0

    def reset(self) -> None:
        self._cursor = 0

    def select(
        self,
        enabled: FrozenSet[VertexId],
        configuration: Configuration,
        step_index: int,
        rng: random.Random,
    ) -> FrozenSet[VertexId]:
        if self._sorted_vertices is None:
            ordered_all = sorted(enabled, key=repr)
        else:
            ordered_all = self._sorted_vertices
        total = len(ordered_all)
        for offset in range(total):
            candidate = ordered_all[(self._cursor + offset) % total]
            if candidate in enabled:
                self._cursor = (self._cursor + offset + 1) % total
                return frozenset({candidate})
        # Unreachable: checked_select() guarantees ``enabled`` is non-empty
        # and every enabled vertex appears in ``ordered_all``.
        raise DaemonError("round-robin daemon found no enabled vertex")

    def admits_selection(
        self, enabled: FrozenSet[VertexId], selection: FrozenSet[VertexId]
    ) -> bool:
        return len(selection) == 1 and selection <= enabled


class DistributedDaemon(Daemon):
    """The (randomized) distributed daemon: an arbitrary non-empty subset.

    Each enabled vertex is selected independently with probability
    ``activation_probability``; if the coin flips produce an empty set, one
    enabled vertex is forced, so the selection is always legal.
    """

    name = "dd"

    def __init__(self, activation_probability: float = 0.5) -> None:
        super().__init__()
        if not 0.0 < activation_probability <= 1.0:
            raise DaemonError(
                f"activation probability must be in (0, 1], got {activation_probability}"
            )
        self._p = activation_probability

    def select(
        self,
        enabled: FrozenSet[VertexId],
        configuration: Configuration,
        step_index: int,
        rng: random.Random,
    ) -> FrozenSet[VertexId]:
        ordered = self._ordered_enabled(enabled)
        chosen = {v for v in ordered if rng.random() < self._p}
        if not chosen:
            chosen = {rng.choice(ordered)}
        return frozenset(chosen)


class LocallyCentralDaemon(Daemon):
    """Never activates two neighbouring vertices in the same action.

    The selection is a (greedy, randomized) maximal independent subset of
    the enabled vertices.
    """

    name = "lcd"

    def select(
        self,
        enabled: FrozenSet[VertexId],
        configuration: Configuration,
        step_index: int,
        rng: random.Random,
    ) -> FrozenSet[VertexId]:
        if self._protocol is None:
            raise DaemonError("locally central daemon requires a bound protocol")
        graph = self._protocol.graph
        ordered = self._ordered_enabled(enabled)
        rng.shuffle(ordered)
        chosen: Set[VertexId] = set()
        for v in ordered:
            if not any(u in chosen for u in graph.neighbors(v)):
                chosen.add(v)
        return frozenset(chosen)

    def admits_selection(
        self, enabled: FrozenSet[VertexId], selection: FrozenSet[VertexId]
    ) -> bool:
        if not (selection and selection <= enabled):
            return False
        if self._protocol is None:
            return True
        graph = self._protocol.graph
        return all(
            not (graph.has_edge(u, v))
            for u in selection
            for v in selection
            if u != v
        )


class AdversarialCentralDaemon(Daemon):
    """A convergence-delaying central daemon (unfair heuristic).

    At each configuration it activates the single enabled vertex whose
    activation leaves the *largest* number of vertices enabled in the next
    configuration (ties broken in favour of the vertex activated least
    recently, then by identifier).  Keeping many vertices enabled for as
    long as possible is a standard way to realize slow executions of
    unison-style protocols, and empirically dominates random central
    scheduling in our Theorem 3 experiment.

    **Local lookahead, memoised.**  Activating ``v`` alone changes only
    ``v``'s state, so only ``v`` and its neighbours can change enabledness:
    the successor has ``|enabled| + local(v)`` enabled vertices, where
    ``local(v)`` counts the vertices of ``N[v]`` enabled after ``v`` fires
    minus those enabled now.  Guards read closed neighbourhoods only (the
    locality of the state model, assumed of every protocol scheduled by
    this daemon, custom ``is_enabled`` overrides included), so ``local(v)``
    is a function of the states within distance 2 of ``v``.  The daemon
    keeps ``local(v)`` across calls: each call compares every vertex's
    state with the states seen at the previous call (O(n), so it needs
    nothing from the engine and stays exact under live views, faults
    injected between segments and any engine) and drops the entries in the
    2-ball of each changed vertex.  A central step changes one vertex, so
    most candidates are re-scored from the memo.  Misses fire ``v`` on its
    :class:`~repro.core.rules.LocalView` (``choose_rule`` and
    ``validate_state`` exactly as :meth:`Protocol.apply` calls them) and
    re-evaluate the guards of ``N[v]`` with ``v``'s new state (through a
    rule's own ``is_enabled`` where a :class:`~repro.core.rules.Rule`
    subclass overrides it), copying no configuration; protocols overriding the transition chain
    (``has_stock_transitions()`` false) score misses through their own
    ``apply``/``is_enabled``.  :meth:`bind` and :meth:`reset` clear the
    memo.
    """

    name = "cd-adv"

    def __init__(self) -> None:
        super().__init__()
        self._last_activated: Dict[VertexId, int] = {}
        # Per bound protocol, built on first use: neighbour tuples, 2-balls
        # and whether misses may be scored on local views.
        self._neighbors: Optional[Dict[VertexId, Tuple[VertexId, ...]]] = None
        self._two_balls: Dict[VertexId, FrozenSet[VertexId]] = {}
        self._stock_transitions = False
        self._forget()

    def _forget(self) -> None:
        self._local: Dict[VertexId, int] = {}
        self._seen: Optional[Dict[VertexId, VertexStateLike]] = None

    def bind(self, protocol: Protocol) -> None:
        super().bind(protocol)
        self._neighbors = None
        self._forget()

    def reset(self) -> None:
        self._last_activated = {}
        self._forget()

    def _prepare(self, protocol: Protocol) -> None:
        graph = protocol.graph
        neighbors = {v: tuple(graph.neighbors(v)) for v in graph.vertices}
        self._neighbors = neighbors
        self._two_balls = {
            v: frozenset((v,) + around).union(*(neighbors[u] for u in around))
            for v, around in neighbors.items()
        }
        self._stock_transitions = protocol.has_stock_transitions()

    def _invalidate(self, states: Dict[VertexId, VertexStateLike]) -> None:
        """Drop the memo entries near every vertex changed since last call."""
        seen, self._seen = self._seen, states
        local = self._local
        if seen is None or not local or states == seen:
            return
        two_balls = self._two_balls
        for vertex, state in states.items():
            if seen[vertex] != state:
                for u in two_balls[vertex]:
                    local.pop(u, None)

    def _local_delta(
        self,
        vertex: VertexId,
        enabled: FrozenSet[VertexId],
        states: Dict[VertexId, VertexStateLike],
        configuration: Configuration,
        guards: Optional[Sequence[Tuple[Rule, Callable[[LocalView], object]]]],
    ) -> int:
        """``local(vertex)``: the change in enabled count inside ``N[vertex]``
        when ``vertex`` alone fires (``guards`` None: through the protocol's
        own ``apply``/``is_enabled``)."""
        protocol = self._protocol
        neighbors = self._neighbors
        around = neighbors[vertex]
        before = len(enabled.intersection((vertex,) + around))
        if guards is None:
            next_config, _ = protocol.apply(configuration, [vertex])
            after = sum(
                1 for w in (vertex,) + around if protocol.is_enabled(next_config, w)
            )
            return after - before
        graph = protocol.graph
        view = LocalView._from_trusted_parts(
            vertex, states[vertex], {u: states[u] for u in around}, graph
        )
        enabled_rules = [rule for rule, check in guards if check(view)]
        if enabled_rules:
            new_state = protocol.choose_rule(enabled_rules, view).apply(view)
            protocol.validate_state(vertex, new_state)
        else:
            new_state = view.state
        # ``vertex``'s neighbours keep their states, so its own successor
        # view shares the neighbour dict of the view it fired on.
        views = [LocalView._from_trusted_parts(vertex, new_state, view.neighbor_states, graph)]
        for w in around:
            w_states = {u: states[u] for u in neighbors[w]}
            w_states[vertex] = new_state
            views.append(LocalView._from_trusted_parts(w, states[w], w_states, graph))
        after = 0
        for w_view in views:
            for _, check in guards:
                if check(w_view):
                    after += 1
                    break
        return after - before

    def select(
        self,
        enabled: FrozenSet[VertexId],
        configuration: Configuration,
        step_index: int,
        rng: random.Random,
    ) -> FrozenSet[VertexId]:
        protocol = self._protocol
        if protocol is None:
            raise DaemonError("adversarial daemon requires a bound protocol")
        if self._neighbors is None:
            self._prepare(protocol)
        states = configuration.as_dict()
        self._invalidate(states)
        local = self._local
        guards = None
        if self._stock_transitions:
            # Rules keeping the stock ``is_enabled`` are probed through their
            # raw guard; overrides keep their semantics, as in the engine.
            guards = [
                (rule, rule.guard if type(rule).is_enabled is Rule.is_enabled else rule.is_enabled)
                for rule in protocol.rules()
            ]
        last_activated = self._last_activated
        best_vertex = None
        best_key: Optional[Tuple[int, int]] = None
        # ``enabled_after = |enabled| + local(vertex)``: the first term is
        # common to every candidate.  Candidates come in repr order and
        # only a strictly smaller key replaces the best, so the final
        # ``repr(vertex)`` tie-break needs no key slot.
        for vertex in self._ordered_enabled(enabled):
            delta = local.get(vertex)
            if delta is None:
                delta = local[vertex] = self._local_delta(
                    vertex, enabled, states, configuration, guards
                )
            # Maximize enabled_after, then prefer least recently activated.
            key = (-delta, last_activated.get(vertex, -1))
            if best_key is None or key < best_key:
                best_key = key
                best_vertex = vertex
        assert best_vertex is not None
        last_activated[best_vertex] = step_index
        return frozenset({best_vertex})

    def admits_selection(
        self, enabled: FrozenSet[VertexId], selection: FrozenSet[VertexId]
    ) -> bool:
        return len(selection) == 1 and selection <= enabled


class StarvationDaemon(Daemon):
    """An unfair distributed daemon that starves a target vertex.

    The target (by default the vertex with the largest identifier) is only
    activated when it is the sole enabled vertex; every other enabled vertex
    is activated at every step.  This realizes the classical unfairness
    pattern used to exhibit worst-case executions.
    """

    name = "ud-starve"

    def __init__(self, target: Optional[VertexId] = None) -> None:
        super().__init__()
        self._target = target

    def _resolve_target(self) -> Optional[VertexId]:
        if self._target is not None:
            return self._target
        if self._protocol is None:
            return None
        return self._protocol.graph.sorted_vertices()[-1]

    def select(
        self,
        enabled: FrozenSet[VertexId],
        configuration: Configuration,
        step_index: int,
        rng: random.Random,
    ) -> FrozenSet[VertexId]:
        target = self._resolve_target()
        if target is None:
            return enabled
        without_target = frozenset(v for v in enabled if v != target)
        return without_target if without_target else enabled


class RegimeSwitchingDaemon(Daemon):
    """Alternates synchronous and sparse-central scheduling phases.

    For ``dense_steps`` actions out of every ``dense_steps + sparse_steps``
    period the daemon behaves like the synchronous daemon (every enabled
    vertex fires); for the remaining ``sparse_steps`` actions it behaves
    like the random central daemon (one enabled vertex fires).  Phase
    membership is a pure function of the step index, so executions are
    deterministic given the seed.

    This is the canonical *regime-switch workload* for
    :class:`~repro.adaptive.AdaptiveProtocol` (:mod:`repro.adaptive`, E10's
    switching rows): neither phase dominates the run, so any fixed rule-set
    choice is wrong half the time.  ``synchronous`` stays False — the
    sparse phases activate proper subsets — so every engine choice runs
    this daemon on the incremental engine; reading the phases online is
    the :class:`~repro.adaptive.RegimeDetector`'s job, not static backend
    selection's.
    """

    name = "regime-switch"

    def __init__(self, dense_steps: int = 64, sparse_steps: int = 192) -> None:
        super().__init__()
        if dense_steps < 1 or sparse_steps < 1:
            raise DaemonError("phase lengths must be at least 1 step")
        self._dense_steps = dense_steps
        self._period = dense_steps + sparse_steps

    @property
    def dense_steps(self) -> int:
        """Length of the synchronous phase of each period."""
        return self._dense_steps

    @property
    def sparse_steps(self) -> int:
        """Length of the sparse-central phase of each period."""
        return self._period - self._dense_steps

    def in_dense_phase(self, step_index: int) -> bool:
        """Whether action ``step_index`` falls in a synchronous phase."""
        return (step_index % self._period) < self._dense_steps

    def select(
        self,
        enabled: FrozenSet[VertexId],
        configuration: Configuration,
        step_index: int,
        rng: random.Random,
    ) -> FrozenSet[VertexId]:
        if self.in_dense_phase(step_index):
            return enabled
        return frozenset({rng.choice(self._ordered_enabled(enabled))})


def is_weaker_than(
    weaker: Daemon, stronger: Daemon, ground_sets: Iterable[FrozenSet[VertexId]]
) -> bool:
    """Executable approximation of Definition 2 over sample enabled sets.

    ``weaker`` is at most as powerful as ``stronger`` when every per-step
    selection ``weaker`` admits is also admitted by ``stronger``.  The check
    is performed for every enabled set in ``ground_sets`` (keep them small,
    the enumeration is exponential).
    """
    for enabled in ground_sets:
        enabled = frozenset(enabled)
        if not enabled:
            continue
        weak_choices = set(weaker.admissible_selections(enabled))
        strong_choices = set(stronger.admissible_selections(enabled))
        if not weak_choices <= strong_choices:
            return False
    return True


#: Factories for daemons by short name, used by the experiment harness and
#: the command-line examples.
DAEMON_FACTORIES = {
    "sd": SynchronousDaemon,
    "cd": CentralDaemon,
    "cd-rr": RoundRobinCentralDaemon,
    "cd-adv": AdversarialCentralDaemon,
    "dd": DistributedDaemon,
    "lcd": LocallyCentralDaemon,
    "ud-starve": StarvationDaemon,
    "regime-switch": RegimeSwitchingDaemon,
}


def make_daemon(name: str, **kwargs) -> Daemon:
    """Instantiate a daemon by its short name."""
    try:
        factory = DAEMON_FACTORIES[name]
    except KeyError:
        known = ", ".join(sorted(DAEMON_FACTORIES))
        raise DaemonError(f"unknown daemon {name!r}; known: {known}") from None
    return factory(**kwargs)

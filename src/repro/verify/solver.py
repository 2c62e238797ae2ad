"""The adversarial game solver: exact worst-case stabilization by fixpoint.

Definition 3 phrases stabilization as a two-player game: the daemon
(adversary) picks, at every configuration, any selection its class admits;
the protocol answers deterministically.  The stabilization time of a
configuration is the number of actions the *optimal* adversary can force
before the system reaches a configuration from which the specification is
guaranteed.  On the explicit transition systems of
:mod:`repro.verify.transitions` this game is solved exactly:

1. **Legitimate attractor** (greatest fixpoint).  The certified legitimate
   set ``L`` is the largest set of *safe* configurations closed under every
   daemon-class transition: start from all safe states and repeatedly
   discard any state with a successor outside the candidate set.  From
   every state of ``L`` all executions satisfy safety forever — the
   Definition 3 target.  (For the unison specification, whose safety *is*
   Γ₁ membership and whose Γ₁ is closed, ``L`` provably equals Γ₁; the
   solver recomputes it from the transition relation alone, which is what
   makes the closure check a certificate rather than an assumption.)

2. **Value iteration** (backward induction).  ``V(γ) = 0`` on ``L`` and
   ``V(γ) = 1 + max over successors`` elsewhere — the adversary maximizes.
   Values are propagated backwards: a state is finalized once all its
   successors are, so each transition is touched exactly once.

3. **Divergence**.  States never finalized are exactly those from which
   the adversary can avoid ``L`` forever (each has a successor in the same
   predicament, yielding an infinite ``L``-avoiding play).  A lasso
   counterexample — a stem into a cycle outside the attractor, preferring
   cycles that revisit unsafe configurations — is extracted as the
   machine-checkable witness of non-stabilization.

Exactness caveat: over a reachable region the numbers are exact *for that
region* (the closure contains every configuration any schedule can reach
from it); over :meth:`~repro.verify.TransitionSystem.explore_full` they are
exact over all initial configurations, full stop.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..core.protocol import Protocol
from ..core.specification import Specification
from ..core.state import Configuration
from ..core.vector import array_engine
from ..exceptions import VerificationError
from .results import LassoCounterexample, SpeculationGapCertificate, VerificationResult
from .statespace import StateSpace
from .transitions import ExploredSystem, TransitionSystem, daemon_class_selections


__all__ = [
    "GameSolution",
    "solve",
    "verify_stabilization",
    "exact_worst_case_stabilization",
    "exact_speculation_gap",
]


class GameSolution:
    """The solved game on one explored system (see the module docstring)."""

    __slots__ = ("system", "legitimate", "values", "diverging")

    def __init__(
        self,
        system: ExploredSystem,
        legitimate: FrozenSet[int],
        values: Dict[int, int],
        diverging: FrozenSet[int],
    ) -> None:
        self.system = system
        self.legitimate = legitimate
        self.values = values
        self.diverging = diverging

    def worst_value_over(self, keys: Iterable[int]) -> Optional[int]:
        """Max value over ``keys`` — ``None`` if any of them diverges."""
        worst = 0
        for key in keys:
            value = self.values.get(key)
            if value is None:
                return None
            worst = max(worst, value)
        return worst

    @property
    def exact_worst_case(self) -> Optional[int]:
        """Worst value over the system's initial region."""
        return self.worst_value_over(self.system.initial_keys)

    # ------------------------------------------------------------------ #
    # Counterexample extraction
    # ------------------------------------------------------------------ #
    def lasso(self) -> Optional[LassoCounterexample]:
        """A stem-plus-cycle witness of divergence (``None`` if none exists).

        Starts from a diverging initial-region state when one exists, and
        steers towards unsafe diverging states so the cycle demonstrates a
        recurring safety violation whenever the region contains one.
        """
        system = self.system
        diverging = self.diverging
        if not diverging:
            return None
        start = next(
            (key for key in system.initial_keys if key in diverging),
            None,
        )
        if start is None:
            start = next(key for key in system.keys if key in diverging)
        # Distance (within the diverging region) to an unsafe diverging
        # state: walking along decreasing distances steers the lasso into a
        # safety-violating cycle when the region can reach one.
        unsafe = [key for key in diverging if not system.safe[key]]
        distance: Dict[int, int] = {key: 0 for key in unsafe}
        predecessors: Dict[int, List[int]] = {key: [] for key in diverging}
        for key in diverging:
            for successor in system.successors[key]:
                if successor in predecessors:
                    predecessors[successor].append(key)
        queue = deque(unsafe)
        while queue:
            key = queue.popleft()
            for predecessor in predecessors[key]:
                if predecessor not in distance:
                    distance[predecessor] = distance[key] + 1
                    queue.append(predecessor)

        def next_in_lasso(key: int) -> int:
            candidates = [s for s in system.successors[key] if s in diverging]
            # Every diverging state keeps a diverging successor (otherwise
            # value iteration would have finalized it).
            reachable = [s for s in candidates if s in distance]
            if reachable:
                return min(reachable, key=lambda s: (distance[s], s))
            return candidates[0]

        path: List[int] = []
        seen: Dict[int, int] = {}
        current = start
        while current not in seen:
            seen[current] = len(path)
            path.append(current)
            current = next_in_lasso(current)
        split = seen[current]
        stem_keys, cycle_keys = path[:split], path[split:]
        violates_safety = any(not self.system.safe[key] for key in cycle_keys)
        stem, stem_selections = self._decode_walk(stem_keys + cycle_keys[:1])
        cycle, cycle_selections = self._decode_walk(cycle_keys + [current])
        return LassoCounterexample(
            stem=stem[:-1] if stem_keys else [],
            cycle=cycle[:-1],
            stem_selections=stem_selections,
            cycle_selections=cycle_selections,
            violates_safety=violates_safety,
        )

    def _decode_walk(
        self, keys: Sequence[int]
    ) -> Tuple[List[Configuration], List[FrozenSet]]:
        """Decode a key walk and recover one selection per transition."""
        system = self.system
        space = system.space
        protocol = space.protocol
        configurations = [system.configuration(key) for key in keys]
        selections = []
        for position in range(len(keys) - 1):
            configuration, target = configurations[position], keys[position + 1]
            # Re-derive the concrete selection realizing this transition.
            enabled, prepared = protocol.prepared_step(configuration)
            if not enabled:
                selections.append(frozenset())
                continue
            # The transition already exists in the relation, so re-expansion
            # must not trip the selection cap the exploration ran under.
            for selection in daemon_class_selections(
                system.daemon_class, enabled, max_selections=1 << 62
            ):
                successor, _records = protocol.apply(
                    configuration, selection, prepared=prepared
                )
                if space.encode(successor) == target:
                    selections.append(selection)
                    break
            else:  # pragma: no cover - the walk came from the relation
                raise VerificationError("failed to reconstruct a lasso selection")
        return configurations, selections


def solve(system: ExploredSystem) -> GameSolution:
    """Solve the adversarial stabilization game on an explored system."""
    successors = system.successors
    safe = system.safe
    # Reverse edges once; both fixpoints below consume them.
    predecessors: Dict[int, List[int]] = {key: [] for key in system.keys}
    for key in system.keys:
        for successor in successors[key]:
            predecessors[successor].append(key)

    # 1. Greatest fixpoint: peel unsafe-reachable states off the safe set.
    legitimate = {key for key in system.keys if safe[key]}
    worklist = [key for key in system.keys if key not in legitimate]
    while worklist:
        lost = worklist.pop()
        for predecessor in predecessors[lost]:
            if predecessor in legitimate:
                legitimate.discard(predecessor)
                worklist.append(predecessor)

    # 2. Backward value iteration (adversary maximizes time to L).
    values: Dict[int, int] = {key: 0 for key in legitimate}
    pending: Dict[int, int] = {
        key: len(successors[key]) for key in system.keys if key not in legitimate
    }
    queue = deque(legitimate)
    while queue:
        finalized = queue.popleft()
        for predecessor in predecessors[finalized]:
            remaining = pending.get(predecessor)
            if remaining is None:
                continue
            remaining -= 1
            if remaining:
                pending[predecessor] = remaining
            else:
                del pending[predecessor]
                values[predecessor] = 1 + max(
                    values[successor] for successor in successors[predecessor]
                )
                queue.append(predecessor)

    # 3. Whatever was never finalized diverges.
    diverging = frozenset(pending)
    return GameSolution(
        system=system,
        legitimate=frozenset(legitimate),
        values=values,
        diverging=diverging,
    )


# ---------------------------------------------------------------------- #
# High-level entry points
# ---------------------------------------------------------------------- #
def verify_stabilization(
    protocol: Protocol,
    specification: Specification,
    daemon_class: str = "synchronous",
    initial: Optional[Iterable[Configuration]] = None,
    space: Optional[StateSpace] = None,
    max_states: Optional[int] = None,
    max_selections: Optional[int] = None,
    engine: str = "auto",
) -> VerificationResult:
    """Exactly verify one (protocol, specification, daemon class) instance.

    ``initial=None`` verifies the **full product space** — every initial
    configuration the transient-fault model allows — and is only feasible
    when the space fits the enumeration cap.  Passing an iterable of
    configurations verifies the reachable closure of that region instead:
    exact for every schedule of the daemon class from those initials, and
    feasible even when the product space is astronomical (SSME).

    ``engine`` selects the exploration backend: ``"dict"`` is the
    pure-Python reference path, ``"batched"`` the NumPy-vectorized one
    (:mod:`repro.verify.batched`), and ``"auto"`` (default) picks batched
    whenever the protocol declares the array capabilities — both engines
    produce bit-identical results by design, so the choice is purely a
    matter of speed.
    """
    if engine not in ("auto", "dict", "batched"):
        raise VerificationError(
            f"unknown engine {engine!r}; known: auto, dict, batched"
        )
    space = space if space is not None else StateSpace(protocol)
    kwargs = {}
    if max_states is not None:
        kwargs["max_states"] = max_states
    if max_selections is not None:
        kwargs["max_selections"] = max_selections
    use_batched = engine == "batched"
    if engine == "auto" and array_engine(protocol) is not None:
        use_batched = True
    if use_batched:
        try:
            return _verify_batched(
                protocol,
                specification,
                daemon_class,
                initial,
                space,
                kwargs,
            )
        except VerificationError:
            if engine == "batched":
                raise
            # auto: the cheap probe passed but construction found a reason
            # the batched path cannot run (e.g. a codec layout too sparse
            # to table) — the dict engine below is always available.
    transition_system = TransitionSystem(
        protocol, specification, daemon_class, space=space, **kwargs
    )
    if initial is None:
        system = transition_system.explore_full()
    else:
        system = transition_system.explore(initial)
    solution = solve(system)
    exact = solution.exact_worst_case
    stabilizes = exact is not None
    return VerificationResult(
        protocol_name=protocol.name,
        specification_name=specification.name,
        daemon_class=system.daemon_class,
        exhaustive=system.exhaustive,
        state_count=system.state_count,
        transition_count=system.transition_count,
        legitimate_count=len(solution.legitimate),
        diverging_count=len(solution.diverging),
        exact_worst_case=exact,
        stabilizes=stabilizes,
        counterexample=None if stabilizes else solution.lasso(),
        values=solution.values,
        legitimate_keys=solution.legitimate,
        space=transition_system.space,
    )


def _verify_batched(
    protocol: Protocol,
    specification: Specification,
    daemon_class: str,
    initial: Optional[Iterable[Configuration]],
    space: StateSpace,
    kwargs: Dict,
) -> VerificationResult:
    """The batched-engine body of :func:`verify_stabilization`."""
    from .batched import (
        BatchedTransitionSystem,
        _ArrayKeySet,
        _ArrayValues,
        solve_arrays,
    )

    transition_system = BatchedTransitionSystem(
        protocol, specification, daemon_class, space=space, **kwargs
    )
    if initial is None:
        system = transition_system.explore_full()
    else:
        system = transition_system.explore(initial)
    solution = solve_arrays(system)
    exact = solution.exact_worst_case
    stabilizes = exact is not None
    return VerificationResult(
        protocol_name=protocol.name,
        specification_name=specification.name,
        daemon_class=system.daemon_class,
        exhaustive=system.exhaustive,
        state_count=system.state_count,
        transition_count=system.transition_count,
        legitimate_count=solution.legitimate_count,
        diverging_count=solution.diverging_count,
        exact_worst_case=exact,
        stabilizes=stabilizes,
        counterexample=None if stabilizes else solution.lasso(),
        values=_ArrayValues(solution),
        legitimate_keys=_ArrayKeySet(solution),
        space=space,
    )


def exact_worst_case_stabilization(
    protocol: Protocol,
    specification: Specification,
    daemon_class: str = "synchronous",
    initial: Optional[Iterable[Configuration]] = None,
    **kwargs,
) -> Optional[int]:
    """Shorthand: just the exact worst-case value of
    :func:`verify_stabilization` (``None`` = the adversary wins forever)."""
    return verify_stabilization(
        protocol, specification, daemon_class, initial, **kwargs
    ).exact_worst_case


def exact_speculation_gap(
    protocol: Protocol,
    specification: Specification,
    strong_class: str = "central",
    weak_class: str = "synchronous",
    initial: Optional[Iterable[Configuration]] = None,
    space: Optional[StateSpace] = None,
    max_states: Optional[int] = None,
    max_selections: Optional[int] = None,
    engine: str = "auto",
) -> SpeculationGapCertificate:
    """The exact Definition 4 gap: both daemon classes solved on the *same*
    instance and the *same* initial region, no sampling on either side."""
    initial = list(initial) if initial is not None else None
    space = space if space is not None else StateSpace(protocol)
    strong = verify_stabilization(
        protocol,
        specification,
        strong_class,
        initial,
        space=space,
        max_states=max_states,
        max_selections=max_selections,
        engine=engine,
    )
    weak = verify_stabilization(
        protocol,
        specification,
        weak_class,
        initial,
        space=space,
        max_states=max_states,
        max_selections=max_selections,
        engine=engine,
    )
    return SpeculationGapCertificate(strong=strong, weak=weak)

"""Result objects of the exact model checker.

Everything the solver certifies is surfaced through these value objects:
the exact worst-case stabilization time (:class:`VerificationResult`), the
extracted non-stabilization witness (:class:`LassoCounterexample`), and the
exact speculation gap (:class:`SpeculationGapCertificate`).  They are plain
data holders — the mathematics lives in :mod:`repro.verify.solver` — but
they phrase the numbers in the vocabulary of the paper (Definition 3
stabilization, Definition 4 speculation) so experiment drivers and tests
can assert against them directly.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence

from ..core.state import Configuration
from ..types import VertexId

__all__ = [
    "LassoCounterexample",
    "VerificationResult",
    "SpeculationGapCertificate",
]


class LassoCounterexample:
    """A concrete infinite execution that never stabilizes.

    The execution follows ``stem`` and then repeats ``cycle`` forever; each
    consecutive pair is one action of the daemon class (``selections`` give
    the activated sets, aligned with the transitions of stem + cycle).  The
    cycle lies entirely outside the legitimate attractor, so the execution
    never reaches a configuration from which the specification is
    guaranteed — the Definition 3 stabilization time from ``stem[0]`` is
    infinite.  When :attr:`violates_safety` is True the cycle even contains
    an unsafe configuration, i.e. safety is violated infinitely often.
    """

    __slots__ = ("stem", "cycle", "stem_selections", "cycle_selections", "violates_safety")

    def __init__(
        self,
        stem: Sequence[Configuration],
        cycle: Sequence[Configuration],
        stem_selections: Sequence[FrozenSet[VertexId]],
        cycle_selections: Sequence[FrozenSet[VertexId]],
        violates_safety: bool,
    ) -> None:
        self.stem = tuple(stem)
        self.cycle = tuple(cycle)
        self.stem_selections = tuple(stem_selections)
        self.cycle_selections = tuple(cycle_selections)
        self.violates_safety = violates_safety

    @property
    def initial(self) -> Configuration:
        """The configuration the diverging execution starts from."""
        return self.stem[0] if self.stem else self.cycle[0]

    def describe(self) -> str:
        """A short human-readable account of the counterexample."""
        return (
            f"lasso: stem of {len(self.stem_selections)} actions into a cycle "
            f"of {len(self.cycle)} configurations"
            + (" violating safety infinitely often" if self.violates_safety else "")
        )

    def __repr__(self) -> str:
        return (
            f"LassoCounterexample(stem={len(self.stem)}, cycle={len(self.cycle)}, "
            f"violates_safety={self.violates_safety})"
        )


class VerificationResult:
    """Outcome of exactly model-checking one (protocol, spec, daemon class).

    Attributes
    ----------
    exact_worst_case:
        The exact Definition 3 worst-case stabilization time over the
        verified initial region — the number of actions an optimal
        adversary of the daemon class can force before the system enters
        the legitimate attractor — or ``None`` when some initial
        configuration diverges (infinite worst case).
    stabilizes:
        Whether every initial configuration of the region stabilizes under
        every schedule of the daemon class.
    legitimate_count:
        Size of the certified legitimate attractor: the largest set of safe
        configurations closed under every daemon-class transition.  Every
        explored execution suffix inside it satisfies safety forever.
    counterexample:
        A :class:`LassoCounterexample` when ``stabilizes`` is False.
    """

    __slots__ = (
        "protocol_name",
        "specification_name",
        "daemon_class",
        "exhaustive",
        "state_count",
        "transition_count",
        "legitimate_count",
        "diverging_count",
        "exact_worst_case",
        "stabilizes",
        "counterexample",
        "_values",
        "_legitimate_keys",
        "_space",
    )

    def __init__(
        self,
        protocol_name: str,
        specification_name: str,
        daemon_class: str,
        exhaustive: bool,
        state_count: int,
        transition_count: int,
        legitimate_count: int,
        diverging_count: int,
        exact_worst_case: Optional[int],
        stabilizes: bool,
        counterexample: Optional[LassoCounterexample],
        values: Dict[int, int],
        legitimate_keys: FrozenSet[int],
        space,
    ) -> None:
        self.protocol_name = protocol_name
        self.specification_name = specification_name
        self.daemon_class = daemon_class
        self.exhaustive = exhaustive
        self.state_count = state_count
        self.transition_count = transition_count
        self.legitimate_count = legitimate_count
        self.diverging_count = diverging_count
        self.exact_worst_case = exact_worst_case
        self.stabilizes = stabilizes
        self.counterexample = counterexample
        self._values = values
        self._legitimate_keys = legitimate_keys
        self._space = space

    # ------------------------------------------------------------------ #
    # Per-configuration queries
    # ------------------------------------------------------------------ #
    def value_of(self, configuration: Configuration) -> Optional[int]:
        """The exact worst-case stabilization time from ``configuration``
        (``None`` when the adversary can prevent stabilization from it).
        The configuration must belong to the verified region."""
        return self._values.get(self._space.encode(configuration))

    def is_certified_legitimate(self, configuration: Configuration) -> bool:
        """Whether ``configuration`` belongs to the certified attractor."""
        return self._space.encode(configuration) in self._legitimate_keys

    def legitimate_configurations(self) -> List[Configuration]:
        """The decoded certified legitimate attractor (small instances)."""
        return [self._space.decode(key) for key in sorted(self._legitimate_keys)]

    def __repr__(self) -> str:
        return (
            f"VerificationResult({self.protocol_name!r}, {self.daemon_class!r}, "
            f"states={self.state_count}, exact_worst_case={self.exact_worst_case}, "
            f"stabilizes={self.stabilizes})"
        )


class SpeculationGapCertificate:
    """The exact Definition 4 gap on one instance.

    Both sides are exact: ``strong`` verifies the stronger daemon class
    (more schedules — central or distributed), ``weak`` the speculated
    frequent one (synchronous).  The gap factor mirrors
    :attr:`repro.core.SpeculationMeasurement.speculation_factor`:
    strong/weak exact worst cases, ``inf`` when the weak side stabilizes
    immediately, ``None`` when either side diverges.
    """

    __slots__ = ("strong", "weak")

    def __init__(self, strong: VerificationResult, weak: VerificationResult) -> None:
        self.strong = strong
        self.weak = weak

    @property
    def gap_factor(self) -> Optional[float]:
        """Exact strong/weak worst-case ratio (the speculation gap)."""
        strong, weak = self.strong.exact_worst_case, self.weak.exact_worst_case
        if strong is None or weak is None:
            return None
        if weak == 0:
            return float("inf") if strong > 0 else 1.0
        return strong / weak

    @property
    def speculation_pays(self) -> bool:
        """Whether the speculated (weak) daemon is strictly faster."""
        factor = self.gap_factor
        return factor is not None and factor > 1.0

    def __repr__(self) -> str:
        return (
            f"SpeculationGapCertificate(strong[{self.strong.daemon_class}]="
            f"{self.strong.exact_worst_case}, weak[{self.weak.daemon_class}]="
            f"{self.weak.exact_worst_case}, gap={self.gap_factor})"
        )

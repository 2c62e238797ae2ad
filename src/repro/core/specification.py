"""Problem specifications.

A *specification* (Section 2) is the set of executions that satisfy a
problem.  All specifications used in the paper and in this library decompose
into

* a **safety** predicate evaluated on individual configurations (at most one
  privileged vertex, legitimate unison configuration, correct BFS distances,
  valid maximal matching, ...), and
* a **liveness** condition evaluated on a (finite window of an) execution
  (every vertex executes its critical section, every clock is incremented,
  ...; silent tasks have trivial liveness).

Finite traces can only *approximate* liveness; the experiment harness always
allocates a window long enough to make the approximation meaningful (e.g. a
full clock period for SSME) and the measurement objects record whether the
liveness check was even attempted.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

from ..exceptions import SpecificationError
from .execution import Execution
from .protocol import Protocol
from .state import Configuration

__all__ = ["Specification", "SilentSpecification"]


class Specification(ABC):
    """Base class of problem specifications."""

    #: Human-readable name ("spec_ME", "spec_AU", ...).
    name: str = "spec"

    # ------------------------------------------------------------------ #
    # Safety
    # ------------------------------------------------------------------ #
    @abstractmethod
    def is_safe(self, configuration: Configuration, protocol: Protocol) -> bool:
        """Whether ``configuration`` satisfies the safety predicate."""

    def safe_rows(self, rows, order, protocol: Protocol):
        """Optional batch capability: the ``(m,)`` boolean safety vector of
        an ``(m, n, width)`` array of codec-encoded configurations, with
        columns aligned to the vertex tuple ``order``.

        Must agree entry-for-entry with :meth:`is_safe` on the decoded
        configurations.  Two callers rely on it:

        * the exact checker's batched expansion
          (:mod:`repro.verify.batched`) calls it once per frontier instead
          of once per configuration;
        * the synchronous superstep engine
          (:meth:`repro.core.VectorEngine.run_supersteps`) calls it with
          ``m = 1`` at index 0 and — unless :meth:`safety_tracker` declares
          a tracker — after every changing step of a run monitored by a
          :class:`~repro.core.SafetyMonitor`, on its own state array, so
          the monitor makes no :meth:`is_safe` call.  ``order`` is then
          the same tuple for the whole run: implementations may cache
          derived index arrays keyed on its identity.

        The base implementation returns ``None``, meaning "unsupported":
        the checker then decodes and evaluates per configuration, and the
        superstep engine's monitor calls :meth:`is_safe` on a live view of
        every configuration (correct either way, just slower).
        """
        del rows, order, protocol
        return None

    def safety_tracker(self, order, protocol: Protocol):
        """Optional incremental capability for the superstep engine: an
        object whose ``update(states, rows)`` returns the safety verdict of
        one run's ``(n, width)`` state array (columns aligned to ``order``)
        after each changing step.

        ``rows`` is None on the first call and after a full guard rescan;
        otherwise it holds the sorted rows the engine re-evaluated — the
        changed rows and their neighbours — and the tracker may re-judge
        only those, so it suits predicates built from per-vertex terms that
        read only the closed neighbourhood N[v].  Verdicts must equal
        :meth:`safe_rows` on the same array.

        The engine asks only specifications whose :meth:`safe_rows`
        judges arrays.  The base implementation returns ``None``: the
        engine then calls :meth:`safe_rows` on the whole array instead.
        """
        del order, protocol
        return None

    def first_unsafe_index(
        self, execution: Execution, protocol: Protocol, start: int = 0
    ) -> Optional[int]:
        """Index of the first unsafe configuration at or after ``start``,
        or ``None`` when every such configuration is safe.

        The trace is walked sequentially (``iter_configurations``): on a
        light execution a per-index walk would cache every reconstructed
        configuration and silently balloon back to full-trace memory.
        """
        for index, configuration in enumerate(
            execution.iter_configurations(start), start
        ):
            if not self.is_safe(configuration, protocol):
                return index
        return None

    def last_unsafe_index(
        self, execution: Execution, protocol: Protocol
    ) -> Optional[int]:
        """Index of the last unsafe configuration of the trace, or ``None``.

        Sequential walk, same memory bound as :meth:`first_unsafe_index`.
        """
        last = None
        for index, configuration in enumerate(execution.iter_configurations()):
            if not self.is_safe(configuration, protocol):
                last = index
        return last

    # ------------------------------------------------------------------ #
    # Liveness
    # ------------------------------------------------------------------ #
    def check_liveness(
        self, execution: Execution, protocol: Protocol, start: int = 0
    ) -> bool:
        """Whether the liveness condition holds on the window starting at
        configuration ``start``.  The default accepts everything (silent
        tasks)."""
        return True

    # ------------------------------------------------------------------ #
    # Whole-execution check
    # ------------------------------------------------------------------ #
    def satisfied_by(
        self, execution: Execution, protocol: Protocol, start: int = 0
    ) -> bool:
        """Whether the suffix of the trace starting at ``start`` satisfies
        the specification (safety on every configuration + liveness)."""
        if start < 0 or start > execution.steps:
            raise SpecificationError(
                f"start index {start} out of range (0..{execution.steps})"
            )
        if self.first_unsafe_index(execution, protocol, start) is not None:
            return False
        return self.check_liveness(execution, protocol, start)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SilentSpecification(Specification):
    """Specification of a *silent* task.

    Silent self-stabilizing tasks (BFS spanning tree, maximal matching)
    converge to a configuration that is both legitimate and terminal; their
    safety predicate is "the output encoded in the configuration is
    correct" and they have no liveness obligation beyond convergence.
    """

    @abstractmethod
    def is_legitimate(self, configuration: Configuration, protocol: Protocol) -> bool:
        """Whether the output encoded by ``configuration`` is correct."""

    def is_safe(self, configuration: Configuration, protocol: Protocol) -> bool:
        return self.is_legitimate(configuration, protocol)

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

    #: Whether the safety predicate is invariant under graph automorphisms
    #: (``is_safe(g·γ) == is_safe(γ)`` for every automorphism ``g``).  The
    #: exact checker's symmetry quotient requires this *and* the protocol's
    #: :attr:`repro.core.Protocol.vertex_symmetric`.  Identity-dependent
    #: specifications (mutual exclusion over identity-spaced privileged
    #: values, rooted trees) must keep it False.
    vertex_symmetric: bool = False

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
          ``m = 1`` at every step of a run monitored by a bare
          :class:`~repro.core.SafetyMonitor`, on its own state array, so the
          run is never replayed for the monitor.  ``order`` is then the
          same tuple for the whole run: implementations may cache derived
          index arrays keyed on its identity.

        The base implementation returns ``None``, meaning "unsupported":
        the checker then decodes and evaluates per configuration, and the
        superstep engine replays each block through :meth:`is_safe`
        (correct either way, just slower).
        """
        del rows, order, protocol
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

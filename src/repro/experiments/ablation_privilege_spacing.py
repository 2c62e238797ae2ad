"""E7 (ablation) — why SSME spaces privileged values ``2·diam(g)`` apart.

This is not a table of the paper; it ablates the design choice PAPER.md
singles out.  Algorithm 1 grants the privilege on the clock values
``2n + 2·diam(g)·id_v``.  Safety inside the legitimate set Γ₁ (Theorem 1)
needs any two privileged values to sit further apart on the clock circle
than the graph distance between their owners — and because identities are
*arbitrary* (the protocol cannot choose which process gets which
identifier), two consecutively-numbered processes may be a full diameter
apart.  A spacing of at most ``diam(g)`` therefore admits, for an
adversarial identity assignment, *legitimate* configurations with two
privileges: the protocol is broken forever, not merely slow.  The paper's
``2·diam(g)`` spacing is safe for every identity assignment (and is what
makes the ``⌈diam/2⌉`` synchronous bound of Theorem 2 go through).

The ablation runs on path graphs whose identities are assigned
adversarially (consecutive identifiers on opposite ends of the path), sweeps
the spacing around ``diam(g)``, and reports

* the analytic Γ₁-safety verdict,
* when unsafe, an explicit legitimate configuration with two privileges and
  the number of unsafe configurations observed during one full clock period
  of its synchronous execution — the violation happens *after* the unison
  substrate has fully stabilized, so it is a failure of the protocol itself,
  not a transient that convergence would eventually repair.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..core import Simulator, SynchronousDaemon
from ..graphs import Graph, diameter, path_graph
from ..mutex import MutualExclusionSpec
from ..mutex.variants import ParametricClockMutex
from ..types import VertexId
from .runner import ExperimentReport

__all__ = ["run_experiment", "adversarial_identity_assignment", "EXPERIMENT_ID", "DEFAULT_PATH_SIZES"]

EXPERIMENT_ID = "E7"

#: Path sizes used for the ablation.
DEFAULT_PATH_SIZES = (7, 11)


def adversarial_identity_assignment(graph: Graph) -> Dict[VertexId, int]:
    """An identity assignment that places consecutive identifiers far apart.

    Vertices are ordered by their distance from one endpoint of a diametral
    pair and identities are then handed out alternately from the two ends of
    that order (``closest, farthest, second-closest, second-farthest, ...``),
    so the owners of identities ``0`` and ``1`` are a full diameter apart.
    Identities being arbitrary in the model, this assignment is perfectly
    legal and a correct protocol must tolerate it.
    """
    from ..graphs import diameter_endpoints

    source, _ = diameter_endpoints(graph)
    distances = graph.bfs_distances(source)
    ordered = sorted(graph.vertices, key=lambda w: (distances[w], repr(w)))
    interleaved: List[VertexId] = []
    low, high = 0, len(ordered) - 1
    while low <= high:
        interleaved.append(ordered[low])
        if low != high:
            interleaved.append(ordered[high])
        low += 1
        high -= 1
    return {vertex: identity for identity, vertex in enumerate(interleaved)}


def _violations_in_one_period(
    protocol: ParametricClockMutex, specification: MutualExclusionSpec
) -> int:
    """Count unsafe configurations during one synchronous clock period
    starting from the unsafe legitimate configuration."""
    gamma = protocol.unsafe_legitimate_configuration()
    execution = Simulator(protocol, SynchronousDaemon()).run(gamma, max_steps=protocol.K + 2)
    return sum(
        1
        for index in range(execution.steps + 1)
        if not specification.is_safe(execution.configuration(index), protocol)
    )


def run_experiment(
    path_sizes: Optional[Sequence[int]] = None,
    seed: int = 0,
) -> ExperimentReport:
    """Sweep the privilege spacing around ``diam(g)`` with adversarial identities."""
    del seed  # the experiment is fully deterministic
    path_sizes = list(path_sizes) if path_sizes is not None else list(DEFAULT_PATH_SIZES)
    rows: List[Dict[str, object]] = []
    passed = True
    for n in path_sizes:
        graph = path_graph(n)
        diam = diameter(graph)
        identities = adversarial_identity_assignment(graph)
        for spacing in (max(1, diam - 1), diam, diam + 1, 2 * diam):
            protocol = ParametricClockMutex(graph, spacing=spacing, identities=identities)
            specification = MutualExclusionSpec(protocol)
            safe = protocol.guarantees_safety_in_gamma1()
            expected_safe = spacing > diam
            violations = None
            if not safe:
                violations = _violations_in_one_period(protocol, specification)
            row_ok = safe == expected_safe and (safe or (violations or 0) > 0)
            passed = passed and row_ok
            rows.append(
                {
                    "n": n,
                    "diam": diam,
                    "spacing": spacing,
                    "paper_choice": spacing == 2 * diam,
                    "K": protocol.K,
                    "safe_in_gamma1": safe,
                    "violations_per_period": violations,
                    "as_expected": row_ok,
                }
            )
    return ExperimentReport(
        experiment_id=EXPERIMENT_ID,
        title="Ablation — spacing of the privileged clock values",
        paper_claim=(
            "Algorithm 1 spaces privileged values 2·diam(g) apart; any spacing "
            "<= diam(g) admits (for some identity assignment) legitimate "
            "configurations with two simultaneous privileges"
        ),
        rows=rows,
        summary={
            "safety_boundary_at_diam_plus_1": all(
                row["safe_in_gamma1"] == (row["spacing"] > row["diam"]) for row in rows
            ),
        },
        passed=passed,
        notes=[
            "Identities are assigned adversarially (consecutive identifiers at "
            "the two ends of the path); the model allows any assignment, so a "
            "correct protocol must survive this one.",
            "This experiment is an ablation of a design choice, not a table of "
            "the paper.",
        ],
    )

"""The named scenario registry: reproducible campaign workloads.

A :class:`Scenario` is a fully declarative (protocol × topology × daemon ×
fault schedule × churn) workload under a fixed seed.  The **naming
contract**: a scenario name permanently denotes the campaign its fields
describe — changing what a name measures means registering a *new* name
(and the E9 driver bumps its ``CODE_VERSION`` when campaign semantics
change), so cached results and published numbers stay trustworthy.

Scenarios are grouped in two tiers:

- ``"smoke"`` — tiny (n <= 8, horizons of a few dozen steps), run
  end-to-end in CI on every backend and used by the engine-equivalence
  acceptance tests;
- ``"full"`` — the E9 campaign grid (larger graphs, longer horizons, every
  schedule shape and churn mix).

:meth:`Scenario.job_params` flattens a scenario into a plain JSON mapping
embedding *every* field, so a :class:`~repro.jobs.JobSpec` built from it is
a pure function of the scenario definition — a registry edit changes the
spec key and transparently invalidates stale cache entries; the runner
never looks a name up at execution time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..exceptions import ExperimentError
from ..graphs import Graph, make_topology
from .campaign import CampaignResult, run_campaign
from .events import ChurnEvent, FaultSchedule

__all__ = [
    "Scenario",
    "SCENARIOS",
    "SCENARIO_TIERS",
    "scenario_names",
    "list_scenarios",
    "get_scenario",
    "run_scenario",
    "run_campaign_from_params",
]

SCENARIO_TIERS = ("smoke", "full")


@dataclass(frozen=True)
class Scenario:
    """One named, reproducible fault campaign."""

    name: str
    protocol: str
    topology: str
    n: int
    daemon: str
    horizon: int
    seed: int
    fault_model: Optional[str] = None
    fault_params: Mapping[str, Any] = field(default_factory=dict)
    schedule: Optional[FaultSchedule] = None
    churn: Tuple[ChurnEvent, ...] = ()
    initial: str = "default"
    tier: str = "full"
    description: str = ""

    def __post_init__(self) -> None:
        if self.tier not in SCENARIO_TIERS:
            known = ", ".join(SCENARIO_TIERS)
            raise ExperimentError(f"unknown tier {self.tier!r}; known: {known}")
        if self.schedule is not None and self.fault_model is None:
            raise ExperimentError(
                f"scenario {self.name!r} has a schedule but no fault_model"
            )

    def build_graph(self) -> Graph:
        """The scenario's initial topology."""
        return make_topology(self.topology, self.n)

    def job_params(self, engine: str = "auto") -> Dict[str, Any]:
        """Every field of the scenario as one JSON-able mapping.

        This is the entire input of a campaign job: the runner rebuilds
        schedule, churn and graph from it without consulting the registry,
        so cached results can never go stale against a renamed or edited
        scenario silently.
        """
        return {
            "scenario": self.name,
            "protocol": self.protocol,
            "topology": self.topology,
            "n": self.n,
            "daemon": self.daemon,
            "horizon": self.horizon,
            "seed": self.seed,
            "fault_model": self.fault_model,
            "fault_params": dict(self.fault_params),
            "schedule": self.schedule.to_dict() if self.schedule else None,
            "churn": [event.to_dict() for event in self.churn],
            "initial": self.initial,
            "engine": engine,
        }

    def run(self, engine: str = "auto") -> CampaignResult:
        """Execute the campaign this scenario names."""
        return run_campaign(
            protocol_family=self.protocol,
            graph=self.build_graph(),
            daemon=self.daemon,
            horizon=self.horizon,
            seed=self.seed,
            schedule=self.schedule,
            fault_model=self.fault_model,
            fault_params=self.fault_params,
            churn=self.churn,
            initial=self.initial,
            engine=engine,
        )


def run_campaign_from_params(params: Mapping[str, Any]) -> CampaignResult:
    """Run a campaign from a :meth:`Scenario.job_params` mapping.

    The inverse of :meth:`Scenario.job_params`, used by the E9 job runner:
    a pure function of the mapping (plus the engine it names), with no
    registry lookup.
    """
    schedule_data = params.get("schedule")
    churn_data = params.get("churn") or ()
    return run_campaign(
        protocol_family=params["protocol"],
        graph=make_topology(params["topology"], params["n"]),
        daemon=params["daemon"],
        horizon=params["horizon"],
        seed=params["seed"],
        schedule=(
            FaultSchedule.from_dict(schedule_data) if schedule_data else None
        ),
        fault_model=params.get("fault_model"),
        fault_params=dict(params.get("fault_params") or {}),
        churn=tuple(ChurnEvent.from_dict(event) for event in churn_data),
        initial=params.get("initial", "default"),
        engine=params.get("engine", "auto"),
    )


def _register(*scenarios: Scenario) -> Dict[str, Scenario]:
    registry: Dict[str, Scenario] = {}
    for scenario in scenarios:
        if scenario.name in registry:
            raise ExperimentError(f"duplicate scenario name {scenario.name!r}")
        registry[scenario.name] = scenario
    return registry


#: The named campaign workloads.  Smoke-tier scenarios are deliberately
#: tiny: CI runs them end-to-end (with and without NumPy) and the
#: acceptance tests replay each on every engine backend.
SCENARIOS: Dict[str, Scenario] = _register(
    # ---------------------------------------------------------------- smoke
    Scenario(
        name="smoke-ssme-ring8-periodic",
        protocol="ssme",
        topology="ring",
        n=8,
        daemon="sd",
        horizon=60,
        seed=101,
        fault_model="single-vertex",
        schedule=FaultSchedule(kind="periodic", offset=5, period=15),
        tier="smoke",
        description="SSME on a small ring absorbing a periodic single-node glitch.",
    ),
    Scenario(
        name="smoke-unison-path6-churn",
        protocol="unison",
        topology="path",
        n=6,
        daemon="cd-rr",
        horizon=50,
        seed=202,
        fault_model="global",
        schedule=FaultSchedule(kind="one-shot", offset=5),
        churn=(ChurnEvent(step=12, kind="add-edge"), ChurnEvent(step=28, kind="remove-vertex")),
        tier="smoke",
        description=(
            "Unison on a path: one global corruption, then an edge joins and "
            "a vertex leaves mid-run (clock parameters re-derived on churn)."
        ),
    ),
    Scenario(
        name="smoke-dijkstra-ring6-burst",
        protocol="dijkstra",
        topology="ring",
        n=6,
        daemon="cd",
        horizon=60,
        seed=303,
        fault_model="single-vertex",
        fault_params={"count": 2},
        schedule=FaultSchedule(
            kind="burst", offset=6, period=24, burst_size=2, burst_spacing=2
        ),
        tier="smoke",
        description=(
            "Dijkstra's token ring under bursty two-node corruption (no "
            "churn: the protocol requires the ring shape)."
        ),
    ),
    # ----------------------------------------------------------------- full
    Scenario(
        name="ssme-ring24-adversarial",
        protocol="ssme",
        topology="ring",
        n=24,
        daemon="sd",
        horizon=400,
        seed=1001,
        fault_model="global",
        schedule=FaultSchedule(kind="adversarial", offset=10),
        initial="adversarial",
        description=(
            "Starts from the planted double-privilege witness (the only way "
            "an SSME campaign starts unsafe — random corruption essentially "
            "never plants two privileges); each global corruption then lands "
            "exactly when the Theorem 2 bound says the previous one has just "
            "healed."
        ),
    ),
    Scenario(
        name="ssme-grid16-localized-poisson",
        protocol="ssme",
        topology="grid",
        n=16,
        daemon="sd",
        horizon=300,
        seed=1002,
        fault_model="localized-burst",
        fault_params={"radius": 1},
        schedule=FaultSchedule(kind="poisson", offset=10, rate=0.02),
        description=(
            "Memoryless rack-failure noise on a grid: radius-1 bursts at a "
            "2% per-step rate."
        ),
    ),
    Scenario(
        name="unison-star12-skew-periodic",
        protocol="unison",
        topology="star",
        n=12,
        daemon="sd",
        horizon=200,
        seed=1003,
        fault_model="clock-skew",
        fault_params={"max_skew": 2},
        schedule=FaultSchedule(kind="periodic", offset=8, period=40),
        description="Recurring bounded clock drift on a star under the synchronous daemon.",
    ),
    Scenario(
        name="unison-ring16-heavy-churn",
        protocol="unison",
        topology="ring",
        n=16,
        daemon="dd",
        horizon=400,
        seed=1004,
        fault_model="single-vertex",
        schedule=FaultSchedule(kind="poisson", offset=5, rate=0.01),
        churn=(
            ChurnEvent(step=60, kind="add-vertex"),
            ChurnEvent(step=120, kind="add-edge"),
            ChurnEvent(step=180, kind="remove-edge"),
            ChurnEvent(step=240, kind="remove-vertex"),
            ChurnEvent(step=300, kind="add-vertex"),
        ),
        description=(
            "Sustained topology churn (joins, leaves, link flaps) over "
            "background single-node noise under the distributed daemon."
        ),
    ),
    Scenario(
        name="dijkstra-ring12-adversarial",
        protocol="dijkstra",
        topology="ring",
        n=12,
        daemon="cd-adv",
        horizon=300,
        seed=1005,
        fault_model="single-vertex",
        schedule=FaultSchedule(kind="adversarial", offset=8),
        description=(
            "Dijkstra's ring under the adversarial central daemon with "
            "stabilization-timed single-node faults."
        ),
    ),
    Scenario(
        name="ssme-hypercube16-global-periodic",
        protocol="ssme",
        topology="hypercube",
        n=16,
        daemon="sd",
        horizon=240,
        seed=1006,
        fault_model="global",
        schedule=FaultSchedule(kind="periodic", offset=12, period=60),
        initial="random",
        description=(
            "SSME on the 4-cube from an arbitrary corrupted start, with "
            "periodic full re-corruption."
        ),
    ),
    Scenario(
        name="unison-complete8-skew-burst",
        protocol="unison",
        topology="complete",
        n=8,
        daemon="cd-rr",
        horizon=400,
        seed=1007,
        fault_model="clock-skew",
        fault_params={"max_skew": 3},
        schedule=FaultSchedule(
            kind="burst", offset=10, period=160, burst_size=3, burst_spacing=2
        ),
        description=(
            "Clock-skew bursts on a complete graph under the round-robin "
            "central daemon (one activation per step, so recovery windows "
            "span many steps)."
        ),
    ),
    Scenario(
        name="ssme-ring24-regime-switch",
        protocol="ssme",
        topology="ring",
        n=24,
        daemon="regime-switch",
        horizon=520,
        seed=1009,
        fault_model="single-vertex",
        schedule=FaultSchedule(kind="periodic", offset=16, period=64),
        description=(
            "SSME on a ring under the regime-switching daemon (alternating "
            "synchronous and sparse phases) with periodic single-node "
            "faults: recovery must hold across phase boundaries, the same "
            "workload shape E10's adaptive-protocol switching rows run."
        ),
    ),
    Scenario(
        name="bfs-binarytree15-root-reseat",
        protocol="bfs",
        topology="binary_tree",
        n=15,
        daemon="sd",
        horizon=200,
        seed=1010,
        fault_model="single-vertex",
        fault_params={"count": 2},
        schedule=FaultSchedule(kind="periodic", offset=10, period=50),
        initial="random",
        description=(
            "The min+1 BFS tree on a binary tree from arbitrary corrupted "
            "levels, absorbing recurring two-node level corruption (one of "
            "the accidentally speculative baselines: Theta(diam) synchronous "
            "vs Theta(n^2) distributed)."
        ),
    ),
    Scenario(
        name="matching-ring12-proposal-storm",
        protocol="matching",
        topology="ring",
        n=12,
        daemon="dd",
        horizon=300,
        seed=1012,
        fault_model="single-vertex",
        schedule=FaultSchedule(kind="poisson", offset=8, rate=0.02),
        initial="random",
        description=(
            "Manne et al. maximal matching on a ring from random pointers "
            "under the distributed daemon, with memoryless single-node "
            "pointer corruption (the 4n+2m-step accidentally speculative "
            "baseline)."
        ),
    ),
    Scenario(
        name="ssme-binarytree15-churn-recovery",
        protocol="ssme",
        topology="binary_tree",
        n=15,
        daemon="sd",
        horizon=260,
        seed=1008,
        fault_model="localized-burst",
        fault_params={"radius": 1},
        schedule=FaultSchedule(kind="periodic", offset=20, period=80),
        churn=(
            ChurnEvent(step=60, kind="add-edge"),
            ChurnEvent(step=140, kind="add-vertex"),
        ),
        description=(
            "SSME on a binary tree: localized bursts with an edge join and a "
            "vertex join between them (tree edges are bridges, so only "
            "additive churn is admissible)."
        ),
    ),
)


def scenario_names(tier: Optional[str] = None) -> List[str]:
    """Registered scenario names, optionally filtered by tier."""
    return [s.name for s in list_scenarios(tier)]


def list_scenarios(tier: Optional[str] = None) -> List[Scenario]:
    """Registered scenarios sorted by name, optionally filtered by tier."""
    if tier is not None and tier not in SCENARIO_TIERS:
        known = ", ".join(SCENARIO_TIERS)
        raise ExperimentError(f"unknown tier {tier!r}; known: {known}")
    return sorted(
        (s for s in SCENARIOS.values() if tier is None or s.tier == tier),
        key=lambda s: s.name,
    )


def get_scenario(name: str) -> Scenario:
    """Look a scenario up by name with a helpful error."""
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise ExperimentError(
            f"unknown scenario {name!r}; known: {known}"
        ) from None


def run_scenario(name_or_scenario, engine: str = "auto") -> CampaignResult:
    """Run a scenario by name (or a :class:`Scenario` directly)."""
    scenario = (
        name_or_scenario
        if isinstance(name_or_scenario, Scenario)
        else get_scenario(name_or_scenario)
    )
    return scenario.run(engine=engine)

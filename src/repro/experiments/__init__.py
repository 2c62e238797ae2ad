"""Experiment harness: one driver per paper artefact (see PAPER.md)."""

from .runner import ExperimentReport
from .workloads import mutex_workload, perturbed_configurations, random_configurations
from .faults import FAULT_MODELS, FAULT_MODEL_PARAMS, apply_fault
from . import (
    ablation_privilege_spacing,
    adaptive_speculation,
    dijkstra_comparison,
    exact_small_n,
    fault_campaigns,
    figure1_clock,
    table_speculative_examples,
    theorem2_sync_upper,
    theorem3_async_upper,
    theorem4_lower_bound,
)
from .reporting import (
    EXPERIMENT_DRIVERS,
    ExperimentDriver,
    render_experiments_markdown,
    run_all_experiments,
)

__all__ = [
    "EXPERIMENT_DRIVERS",
    "ExperimentDriver",
    "ExperimentReport",
    "FAULT_MODELS",
    "FAULT_MODEL_PARAMS",
    "ablation_privilege_spacing",
    "adaptive_speculation",
    "apply_fault",
    "dijkstra_comparison",
    "exact_small_n",
    "fault_campaigns",
    "figure1_clock",
    "mutex_workload",
    "perturbed_configurations",
    "random_configurations",
    "render_experiments_markdown",
    "run_all_experiments",
    "table_speculative_examples",
    "theorem2_sync_upper",
    "theorem3_async_upper",
    "theorem4_lower_bound",
]

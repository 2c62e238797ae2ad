"""Mutual exclusion: SSME (the paper's contribution) and Dijkstra's baseline."""

from .ssme import SSME, ssme_clock_size, ssme_privileged_value
from .dijkstra import DijkstraTokenRing
from .specification import (
    MutualExclusionSpec,
    critical_section_counts,
    critical_section_events,
)
from .variants import (
    ParametricClockMutex,
    minimal_safe_clock_size,
    minimal_safe_spacing,
)

__all__ = [
    "DijkstraTokenRing",
    "MutualExclusionSpec",
    "ParametricClockMutex",
    "SSME",
    "critical_section_counts",
    "critical_section_events",
    "minimal_safe_clock_size",
    "minimal_safe_spacing",
    "ssme_clock_size",
    "ssme_privileged_value",
]

"""Online regime detection and adaptive speculation.

This package closes the loop the paper opens (see ``PAPER.md`` and
``docs/adaptive.md``): instead of choosing the rule set once, up front,
from *declared* schedule properties, it watches the schedule a daemon
actually produces and re-decides online.

* :class:`RegimeDetector` — streaming daemon-density / schedule-synchrony
  estimates from the recent activation stream (deterministic given the
  run's seed).
* :class:`AdaptiveProtocol` — speculative (SSME) vs conservative
  (minimal-spacing clock mutex) rule-set switching at mutually valid
  configurations, preserving self-stabilization.
"""

from .detector import RegimeDetector, RegimeEstimate
from .protocol import AdaptiveProtocol, AdaptiveProtocolRun, ProtocolSwitch

__all__ = [
    "AdaptiveProtocol",
    "AdaptiveProtocolRun",
    "ProtocolSwitch",
    "RegimeDetector",
    "RegimeEstimate",
]

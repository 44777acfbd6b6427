"""Discrete-event simulation substrate.

The :mod:`repro.sim` package is the NS-2 replacement described in
DESIGN.md: a deterministic event-heap engine (:class:`Simulator`),
named RNG streams, structured tracing and a topology-aware lossy
message network.
"""

from .engine import (
    RUN_EXHAUSTED,
    RUN_MAX_EVENTS,
    RUN_STOPPED,
    RUN_UNTIL,
    Simulator,
)
from .events import Event, EventHandle
from .network import (
    BandwidthLatency,
    DistanceLatency,
    FixedLatency,
    JitteredLatency,
    LatencyModel,
    Network,
    TrafficCounters,
)
from .rng import RngRegistry, derive_seed
from .trace import TraceRecord, Tracer

__all__ = [
    "Simulator",
    "RUN_EXHAUSTED",
    "RUN_MAX_EVENTS",
    "RUN_STOPPED",
    "RUN_UNTIL",
    "Event",
    "EventHandle",
    "Network",
    "LatencyModel",
    "FixedLatency",
    "DistanceLatency",
    "BandwidthLatency",
    "JitteredLatency",
    "TrafficCounters",
    "RngRegistry",
    "derive_seed",
    "Tracer",
    "TraceRecord",
]

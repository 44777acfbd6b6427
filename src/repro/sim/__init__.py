"""Discrete-event simulation substrate.

The :mod:`repro.sim` package is the NS-2 replacement: a deterministic
event-heap engine (:class:`Simulator`), a topology-aware lossy message
network, and :class:`~repro.sim.runtime.SimRuntime`, which hands both to
the protocol.  The named RNG streams and the tracer it hosts come from
:mod:`repro.port` and are re-exported here.
"""

from .engine import (
    RUN_EXHAUSTED,
    RUN_MAX_EVENTS,
    RUN_STOPPED,
    RUN_UNTIL,
    Simulator,
)
from .events import Event, EventHandle
from ..port import RngRegistry, TraceRecord, Tracer, TrafficCounters, derive_seed
from .network import (
    BandwidthLatency,
    DistanceLatency,
    FixedLatency,
    JitteredLatency,
    LatencyModel,
    Network,
)

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

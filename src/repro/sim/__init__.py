"""Discrete-event simulation substrate.

The :mod:`repro.sim` package is the NS-2 replacement: a deterministic
event-heap engine (:class:`Simulator`), a topology-aware lossy message
network, and :class:`~repro.sim.runtime.SimRuntime`, which hands both to
the protocol.  The named RNG streams and the tracer it hosts, and the
network's latency models, come from :mod:`repro.port` and are
re-exported here.
"""

from .. import _exports

__all__ = _exports.lazy_exports(
    __name__,
    {
        ".engine": (
            "Simulator",
            "RUN_EXHAUSTED",
            "RUN_MAX_EVENTS",
            "RUN_STOPPED",
            "RUN_UNTIL",
        ),
        ".events": ("Event", "EventHandle"),
        ".network": ("Network",),
        "..port.latency": (
            "LatencyModel",
            "FixedLatency",
            "DistanceLatency",
            "BandwidthLatency",
            "JitteredLatency",
        ),
        "..port.linkstate": ("TrafficCounters",),
        "..port.rng": ("RngRegistry", "derive_seed"),
        "..port.trace": ("Tracer", "TraceRecord"),
    },
)

"""The world port: what the protocol needs from a world, and nothing else.

The bottom layer: the simulator (:mod:`repro.sim`) and the live runtimes
(:mod:`repro.runtime`) build on it, and it imports neither.  It holds the
:class:`Runtime` contracts and the :class:`TopicBus` (:mod:`repro.port.base`),
the one :class:`Channel` send path and its :class:`LinkModel`
(:mod:`repro.port.linkstate`), and the RNG streams and tracer every
runtime hosts (:mod:`repro.port.rng`, :mod:`repro.port.trace`).
"""

from .base import (
    Clock,
    FaultInjector,
    MessageHandler,
    Runtime,
    TopicBus,
    Transport,
)
from .linkstate import Channel, LinkModel, TrafficCounters
from .rng import RngRegistry, derive_seed
from .trace import TraceRecord, Tracer

__all__ = [
    "Clock",
    "Transport",
    "Runtime",
    "TopicBus",
    "MessageHandler",
    "FaultInjector",
    "LinkModel",
    "Channel",
    "TrafficCounters",
    "RngRegistry",
    "derive_seed",
    "Tracer",
    "TraceRecord",
]

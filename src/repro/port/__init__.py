"""The world port: what the protocol needs from a world, and nothing else.

The bottom layer: the simulator (:mod:`repro.sim`) and the live runtimes
(:mod:`repro.runtime`) build on it, and it imports neither.  It holds the
:class:`Runtime` contract and the :class:`TopicBus` (:mod:`repro.port.base`),
the one :class:`Channel` send path and its :class:`LinkModel`
(:mod:`repro.port.linkstate`), and the RNG streams and tracer every
runtime hosts (:mod:`repro.port.rng`, :mod:`repro.port.trace`).
"""

from .. import _exports

__all__ = _exports.lazy_exports(
    __name__,
    {
        ".base": ("Runtime", "TopicBus", "MessageHandler"),
        ".linkstate": ("LinkModel", "Channel", "TrafficCounters"),
        ".rng": ("RngRegistry", "derive_seed"),
        ".trace": ("Tracer", "TraceRecord"),
    },
)

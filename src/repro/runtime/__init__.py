"""Runtime port and adapters: one protocol, three execution worlds.

The worlds are the simulator, one in-process asyncio loop, and one OS
process per replica over TCP.  The protocol stack in :mod:`repro.core`
depends only on the narrow interfaces defined here:

* :class:`Clock` / :class:`Transport` / :class:`Runtime` — the port
  (:mod:`repro.runtime.base`);
* :class:`LinkModel` — the one place that decides whether and how a
  message is carried, and where faults are injected — and
  :class:`Channel`, the one send path that owns a model and acts on its
  verdict (:mod:`repro.runtime.linkstate`).  Every transport is a
  channel; the worlds differ only in the scheduling port each binds
  once, i.e. in how a carried message waits out its delay;
* :class:`SimRuntime` — discrete-event adapter over the existing
  :class:`~repro.sim.engine.Simulator` and
  :class:`~repro.sim.network.Network`, the channel on simulator events
  (bit-identical traces);
* :class:`AsyncioRuntime` / :class:`AsyncioTransport` — wall-clock
  adapter, in process: the channel on one delivery heap, direct
  handler calls;
* :class:`ReplicaCluster` — the live client-facing API
  (``put`` / ``get`` / ``stats``) on top of ``AsyncioRuntime``.

The asyncio-backed names are imported lazily (PEP 562) so that
``import repro`` — and every simulation-only workflow — never imports
:mod:`asyncio`.
"""

from __future__ import annotations

from .base import (
    Clock,
    FaultInjector,
    MessageHandler,
    Runtime,
    TopicBus,
    Transport,
)
from .linkstate import Channel, LinkModel
from .simulation import SimRuntime

#: Names resolved lazily from the asyncio-backed modules.
_LIVE_EXPORTS = {
    "AsyncioRuntime": "live",
    "AsyncioTransport": "live",
    "ReplicaCluster": "cluster",
    "DEFAULT_TIME_SCALE": "cluster",
    "TcpTransport": "tcp",
    "FrameDecoder": "tcp",
    "SyncFrameChannel": "tcp",
}

__all__ = [
    # port
    "Clock",
    "Transport",
    "Runtime",
    "TopicBus",
    "MessageHandler",
    "FaultInjector",
    "LinkModel",
    "Channel",
    # adapters
    "SimRuntime",
    "AsyncioRuntime",
    "AsyncioTransport",
    "TcpTransport",
    "FrameDecoder",
    "SyncFrameChannel",
    # live client API
    "ReplicaCluster",
    "DEFAULT_TIME_SCALE",
]


def __getattr__(name: str):
    module_name = _LIVE_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LIVE_EXPORTS))

"""Runtime port and adapters: one protocol, three execution worlds.

The worlds are the simulator, one in-process asyncio loop, and one OS
process per replica over TCP.  The protocol stack in :mod:`repro.core`
depends only on the narrow interfaces of :mod:`repro.port`, re-exported
here beside the adapters:

* :class:`Runtime` — the port;
* :class:`LinkModel` and :class:`Channel` — the one place that decides
  whether and how a message is carried, and the one send path.  Every
  transport is a channel; the worlds differ only in the scheduling port
  each binds once, i.e. in how a carried message waits out its delay;
* :class:`SimRuntime` — the discrete-event adapter
  (:mod:`repro.sim.runtime`), the channel on simulator events
  (bit-identical traces);
* :class:`AsyncioRuntime` / :class:`AsyncioTransport` — wall-clock
  adapter, in process: the channel on one delivery heap, direct
  handler calls;
* :class:`ReplicaCluster` — the live client-facing API
  (``put`` / ``get`` / ``stats``) over replica hosts on
  ``AsyncioRuntime`` (:class:`repro.core.host.ReplicaHost`, the host the
  simulator runs too; :mod:`repro.runtime.nodeproc` is a TCP node
  process around one);
  :class:`repro.runtime.tracking.ReplicationTracker` keeps its
  per-update apply stamps.

Like every package's, the names are exported lazily
(:mod:`repro._exports`): importing this package loads neither
:mod:`asyncio` nor the simulator, only the module of the name read.
"""

from .. import _exports

__all__ = _exports.lazy_exports(
    __name__,
    {
        # port
        "..port.base": ("Runtime", "TopicBus", "MessageHandler"),
        "..port.linkstate": ("LinkModel", "Channel"),
        # adapters
        "..sim.runtime": ("SimRuntime",),
        ".live": ("AsyncioRuntime", "AsyncioTransport"),
        ".tcp": ("TcpTransport", "FrameDecoder", "SyncFrameChannel"),
        # live client API
        ".cluster": ("ReplicaCluster", "DEFAULT_TIME_SCALE"),
    },
)

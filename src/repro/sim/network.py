"""Message-passing network on top of the event engine.

:class:`Network` delivers messages between nodes along the edges of a
:class:`repro.topology.graph.Topology` with configurable latency models,
optional jitter, probabilistic loss, link/node failures and partitions.
It is the NS-2 stand-in: the paper only needs per-link propagation
delays and lossy channels, not TCP dynamics.

The send path is not here: :class:`Network` is the
:class:`~repro.port.linkstate.Channel` every transport is, with one
simulator event as the wait for a carried message.  So the validation,
the metering (:class:`~repro.port.linkstate.TrafficCounters`), the
:class:`~repro.port.linkstate.LinkModel` verdict and the delivery
are the same code in the simulator and on the live cluster.  The
latency models live in :mod:`repro.port.latency` and are re-exported
here.
"""

from __future__ import annotations

from typing import Optional

from ..port.latency import (  # noqa: F401 - re-exported
    BandwidthLatency,
    DistanceLatency,
    FixedLatency,
    JitteredLatency,
    LatencyModel,
)
from ..port.linkstate import Channel
from .engine import Simulator


class Network(Channel):
    """The :class:`~repro.port.linkstate.Channel` on virtual time: a
    carried message is one event on the kernel's trusted
    ``schedule_fast`` path (deliveries are never cancelled).

    Args:
        sim: The owning simulator.
        topology: Object exposing ``nodes`` (iterable of int),
            ``neighbors(node)``, ``has_edge(a, b)`` and
            ``edge_weight(a, b)`` — satisfied by
            :class:`repro.topology.graph.Topology`.
        latency: Latency model for ordinary links.
        loss: Probability that any message is dropped in flight.
        seed_stream: Name of the RNG stream used for loss and jitter.
    """

    def __init__(
        self,
        sim: Simulator,
        topology,
        latency: Optional[LatencyModel] = None,
        loss: float = 0.0,
        seed_stream: str = "network",
    ):
        self.sim = sim
        latency = latency if latency is not None else FixedLatency()
        rng = sim.rng.stream(seed_stream)
        super().__init__(sim, sim.schedule_fast, topology, latency, loss, rng)

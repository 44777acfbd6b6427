"""Message-passing network on top of the event engine.

:class:`Network` delivers messages between nodes along the edges of a
:class:`repro.topology.graph.Topology` with configurable latency models,
optional jitter, probabilistic loss, link/node failures and partitions.
It is the NS-2 stand-in: the paper only needs per-link propagation
delays and lossy channels, not TCP dynamics (see DESIGN.md §2).

The send path is not here: :class:`Network` is the
:class:`~repro.runtime.linkstate.Channel` every transport is, with one
simulator event as the wait for a carried message.  So the validation,
the metering (:class:`TrafficCounters`, re-exported here), the
:class:`~repro.runtime.linkstate.LinkModel` verdict and the delivery
are the same code in the simulator and on the live cluster.  This
module keeps the latency models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import SimulationError
from ..runtime.linkstate import (  # noqa: F401 - the meters are re-exported
    Channel,
    TrafficCounters,
    message_kind,
    message_size,
)
from .engine import Simulator


# ---------------------------------------------------------------------------
# Latency models
# ---------------------------------------------------------------------------


class LatencyModel:
    """Strategy interface giving the one-way delay of an edge."""

    def delay(self, src: int, dst: int, distance: float) -> float:
        """One-way latency for a message from ``src`` to ``dst``.

        Args:
            distance: The topology's edge weight (Euclidean distance for
                BRITE-style graphs, 1.0 when unweighted).
        """
        raise NotImplementedError


@dataclass(frozen=True)
class FixedLatency(LatencyModel):
    """Every edge has the same one-way delay."""

    value: float = 0.02

    def delay(self, src: int, dst: int, distance: float) -> float:
        return self.value


@dataclass(frozen=True)
class DistanceLatency(LatencyModel):
    """Delay proportional to edge weight: ``base + scale * distance``.

    With BRITE-generated topologies the edge weight is the Euclidean
    distance in the plane, so this mirrors BRITE's propagation-delay
    assignment.
    """

    scale: float = 0.001
    base: float = 0.005

    def delay(self, src: int, dst: int, distance: float) -> float:
        return self.base + self.scale * distance


class JitteredLatency(LatencyModel):
    """Wraps another model adding uniform jitter in ``[0, jitter]``."""

    def __init__(self, inner: LatencyModel, jitter: float, rng):
        self.inner = inner
        self.jitter = jitter
        self._rng = rng

    def delay(self, src: int, dst: int, distance: float) -> float:
        return self.inner.delay(src, dst, distance) + self._rng.uniform(0, self.jitter)


class BandwidthLatency(LatencyModel):
    """Propagation plus transmission delay: ``inner + size / bandwidth``.

    Large update batches take measurably longer than the tiny
    fast-update offers — the physical reason the paper's push can beat
    a full summary exchange on the wire. The network feeds the message
    size through :meth:`delay_with_size`; plain :meth:`delay` assumes an
    empty message.
    """

    def __init__(self, inner: LatencyModel, bytes_per_time_unit: float):
        if bytes_per_time_unit <= 0:
            raise SimulationError(
                f"bandwidth must be positive, got {bytes_per_time_unit}"
            )
        self.inner = inner
        self.bytes_per_time_unit = float(bytes_per_time_unit)

    def delay(self, src: int, dst: int, distance: float) -> float:
        return self.inner.delay(src, dst, distance)

    def delay_with_size(
        self, src: int, dst: int, distance: float, size_bytes: int
    ) -> float:
        return (
            self.inner.delay(src, dst, distance)
            + size_bytes / self.bytes_per_time_unit
        )


# ---------------------------------------------------------------------------
# Network
# ---------------------------------------------------------------------------


class Network(Channel):
    """The :class:`~repro.runtime.linkstate.Channel` on virtual time: a
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

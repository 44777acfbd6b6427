"""Latency models: the one-way delay of an edge, for every world.

A :class:`~repro.port.linkstate.LinkModel` asks its model for each
carried message's delay, in the simulator and on the live cluster alike,
so the models live in the port beside it.  :mod:`repro.sim.network`
re-exports them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SimulationError


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
    a full summary exchange on the wire. The link model feeds the
    message size through :meth:`delay_with_size`; plain :meth:`delay`
    assumes an empty message.
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

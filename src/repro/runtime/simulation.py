"""SimRuntime: the discrete-event adapter of the runtime port.

Wraps an existing :class:`~repro.sim.engine.Simulator` (clock, RNG,
trace, pub/sub) and :class:`~repro.sim.network.Network` (transport)
behind the :class:`~repro.runtime.base.Runtime` facade.  Every call
delegates one-to-one, so a protocol stack running on ``SimRuntime``
produces *bit-identical* event traces to the pre-port code — asserted
by the golden-trace regression test
(``tests/test_runtime_trace_equality.py``).

Beyond the portable :class:`Runtime` surface, ``SimRuntime`` exposes
the simulation-only drive controls (:meth:`run`, :meth:`stop`,
:meth:`step`) that experiment harnesses use to advance virtual time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from ..errors import SimulationError
from ..sim.engine import Simulator
from ..sim.rng import RngRegistry
from ..sim.trace import Tracer
from .base import Runtime, Transport

if TYPE_CHECKING:  # sim.network imports this package for its link model
    from ..sim.network import Network


class SimRuntime(Runtime):
    """Runtime adapter over a :class:`Simulator` / :class:`Network` pair.

    Args:
        sim: The simulator providing virtual time, RNG, trace and bus.
        transport: The network messages travel on; may be bound later
            with :meth:`bind_transport` (the network itself needs the
            simulator to exist first).
    """

    def __init__(self, sim: Simulator, transport: Optional[Network] = None):
        self.sim = sim
        self.transport: Transport = transport  # type: ignore[assignment]

    def bind_transport(self, transport: Network) -> None:
        """Attach the transport once the network has been built."""
        if self.transport is not None:
            raise SimulationError("SimRuntime already has a transport")
        self.transport = transport

    # -- clock ----------------------------------------------------------

    @property
    def now(self) -> float:
        return self.sim.now

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        label: str = "",
    ) -> object:
        return self.sim.schedule(
            delay, callback, *args, priority=priority, label=label
        )

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
        label: str = "",
    ) -> object:
        return self.sim.schedule_at(
            time, callback, *args, priority=priority, label=label
        )

    def cancel(self, handle: object) -> bool:
        return self.sim.cancel(handle)

    def schedule_fast(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> None:
        self.sim.schedule_fast(delay, callback, *args)

    # -- cross-cutting services -----------------------------------------

    @property
    def rng(self) -> RngRegistry:  # type: ignore[override]
        return self.sim.rng

    @property
    def trace(self) -> Tracer:  # type: ignore[override]
        return self.sim.trace

    def publish(self, topic: str, **payload: Any) -> int:
        return self.sim.publish(topic, **payload)

    def subscribe(self, topic: str, handler: Callable[..., None]) -> None:
        self.sim.subscribe(topic, handler)

    def unsubscribe(self, topic: str, handler: Callable[..., None]) -> None:
        self.sim.unsubscribe(topic, handler)

    # -- simulation-only drive controls ---------------------------------

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> str:
        """Advance virtual time (see :meth:`Simulator.run`)."""
        return self.sim.run(until=until, max_events=max_events)

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self.sim.stop()

    def step(self) -> bool:
        """Execute the single next event."""
        return self.sim.step()

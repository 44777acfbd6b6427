"""Client workload generation driven by demand.

Demand in the paper *is* the client request rate, so workload arrivals
are Poisson processes whose instantaneous rate is the node's demand.
The generator powers the example applications and the request-
satisfaction experiments: every request is tagged with whether the
replica already held the reference update (fresh) or not (stale).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..demand.base import DemandModel
from ..errors import ReplicationError
from ..port.base import Runtime
from .log import UpdateId
from .server import ReplicaServer

#: Cap on the thinning loop so a zero-demand node costs nothing.
_MAX_RATE_EPSILON = 1e-9


@dataclass
class WorkloadStats:
    """Counters kept per node by :class:`ClientWorkload`."""

    requests: int = 0
    reads: int = 0
    writes: int = 0
    fresh_reads: int = 0
    stale_reads: int = 0


class ClientWorkload:
    """Poisson client requests at one replica, rate = demand(node, t).

    Time-varying demand is handled by *thinning*: arrivals are generated
    at ``max_rate`` and kept with probability ``rate(t)/max_rate``, the
    standard exact method for inhomogeneous Poisson processes.

    Args:
        runtime: Owning clock (a :class:`~repro.port.base.Runtime`
            or a bare :class:`~repro.sim.engine.Simulator`).
        server: The replica receiving the requests.
        model: Demand model (requests per session-time unit).
        max_rate: Upper bound on the node's demand over the run.
        write_fraction: Probability a request is a write.
        reference_update: When set, reads are classified fresh/stale by
            whether the server already integrated this update.
        key: Key used for reads and writes.
    """

    def __init__(
        self,
        runtime: Runtime,
        server: ReplicaServer,
        model: DemandModel,
        max_rate: float,
        write_fraction: float = 0.0,
        reference_update: Optional[UpdateId] = None,
        key: str = "content",
    ):
        if max_rate < 0:
            raise ReplicationError(f"max_rate must be >= 0, got {max_rate}")
        if not 0 <= write_fraction <= 1:
            raise ReplicationError(f"write_fraction {write_fraction} outside [0, 1]")
        self.runtime = runtime
        self.server = server
        self.model = model
        self.max_rate = float(max_rate)
        self.write_fraction = float(write_fraction)
        self.reference_update = reference_update
        self.key = key
        self.stats = WorkloadStats()
        self._rng = runtime.rng.stream("workload", server.node)
        self._running = False
        self._pending: Optional[object] = None

    def start(self) -> None:
        """Begin generating requests (idempotent start is an error)."""
        if self._running:
            raise ReplicationError("workload already started")
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        """Stop generating and cancel the pending arrival event.

        Cancelling (rather than letting the arrival fire into a
        no-op) matters on long-lived runtimes: a stopped workload must
        not leave a dead event behind per stop/start cycle.
        """
        self._running = False
        if self._pending is not None:
            self.runtime.cancel(self._pending)
            self._pending = None

    def _schedule_next(self) -> None:
        if self.max_rate <= _MAX_RATE_EPSILON:
            return
        gap = self._rng.expovariate(self.max_rate)
        self._pending = self.runtime.schedule(gap, self._arrival)

    def _arrival(self) -> None:
        self._pending = None
        if not self._running:
            return
        rate = self.model.demand(self.server.node, self.runtime.now)
        keep_probability = min(1.0, rate / self.max_rate) if self.max_rate else 0.0
        if self._rng.random() < keep_probability:
            self._serve_request()
        self._schedule_next()

    def _serve_request(self) -> None:
        self.stats.requests += 1
        if self._rng.random() < self.write_fraction:
            self.stats.writes += 1
            self.server.local_write(self.key, f"w@{self.runtime.now:.4f}")
            return
        self.stats.reads += 1
        self.server.read(self.key)
        if self.reference_update is not None:
            if self.server.has_update(self.reference_update):
                self.stats.fresh_reads += 1
            else:
                self.stats.stale_reads += 1


def start_workloads(
    runtime: Runtime,
    servers: Dict[int, ReplicaServer],
    model: DemandModel,
    max_rate: float,
    write_fraction: float = 0.0,
    reference_update: Optional[UpdateId] = None,
) -> Dict[int, ClientWorkload]:
    """Start one workload per server; returns them keyed by node."""
    workloads: Dict[int, ClientWorkload] = {}
    for node, server in servers.items():
        workload = ClientWorkload(
            runtime,
            server,
            model,
            max_rate=max_rate,
            write_fraction=write_fraction,
            reference_update=reference_update,
        )
        workload.start()
        workloads[node] = workload
    return workloads

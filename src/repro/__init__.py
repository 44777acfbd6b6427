"""repro — reproduction of *A Demand based Algorithm for Rapid Updating
of Replicas* (Acosta-Elías & Navarro-Moldes, ICDCSW 2002).

The package implements the paper's **fast consistency** algorithm — a
weak-consistency (anti-entropy) replication protocol that prioritises
replicas by client demand — together with every substrate it needs: a
discrete-event simulator, BRITE-style Internet topologies, demand
models, a TSAE replication core, and the full evaluation harness that
regenerates the paper's figures and tables.

The protocol itself is execution-world agnostic: it talks to a
:class:`~repro.runtime.Runtime` port with two adapters.  Simulated
quickstart (:class:`~repro.runtime.SimRuntime` under the hood,
virtual time, bit-reproducible)::

    from repro import ReplicationSystem, fast_consistency, weak_consistency
    from repro.topology import internet_like
    from repro.demand import UniformRandomDemand

    topo = internet_like(50, seed=7)
    system = ReplicationSystem(
        topology=topo,
        demand=UniformRandomDemand(seed=7),
        config=fast_consistency(),
        seed=7,
    )
    system.start()
    update = system.inject_write(node=0)
    t = system.run_until_replicated(update.uid, max_time=50)
    print(f"replicated everywhere after {t:.2f} session times")

Live quickstart (:class:`~repro.runtime.AsyncioRuntime`: the same
protocol code on wall-clock time, serving client traffic)::

    from repro import ReplicaCluster

    with ReplicaCluster(nodes=16, seed=7) as cluster:
        update = cluster.put("content", "v1", node=0)
        cluster.wait_replicated(update.uid, timeout=10.0)
        print(cluster.get("content", node=9), cluster.stats()["traffic"])

The README's "Layout" section lists the packages and their layer
order; ``python -m repro all`` prints every paper artefact beside the
paper's own values.
"""

from .core import (
    ProtocolConfig,
    ReplicationSystem,
    StrongConsistencySystem,
    bridge_system,
    detect_islands,
    dynamic_fast_consistency,
    fast_consistency,
    high_demand_consistency,
    push_only_consistency,
    static_table_consistency,
    weak_consistency,
)
from .errors import (
    ConfigurationError,
    DemandError,
    ExperimentError,
    ExperimentSizeWarning,
    FaultError,
    ReplicationError,
    ReproError,
    SimulationError,
    TopologyError,
    TransportError,
)
from .faults import FaultSchedule
from .runtime import Clock, FaultInjector, Runtime, SimRuntime, Transport

__version__ = "1.1.0"

#: Asyncio-backed names; resolved lazily so ``import repro`` stays free
#: of :mod:`asyncio` (PEP 562 module __getattr__).
_LIVE_EXPORTS = ("ReplicaCluster", "AsyncioRuntime")

__all__ = [
    "__version__",
    "ProtocolConfig",
    "ReplicationSystem",
    "StrongConsistencySystem",
    "weak_consistency",
    "high_demand_consistency",
    "fast_consistency",
    "push_only_consistency",
    "dynamic_fast_consistency",
    "static_table_consistency",
    "detect_islands",
    "bridge_system",
    # runtime port & adapters
    "Clock",
    "Transport",
    "Runtime",
    "FaultInjector",
    "SimRuntime",
    "AsyncioRuntime",
    "ReplicaCluster",
    # faults
    "FaultSchedule",
    # errors
    "ReproError",
    "FaultError",
    "SimulationError",
    "TopologyError",
    "DemandError",
    "ReplicationError",
    "ConfigurationError",
    "ExperimentError",
    "TransportError",
    "ExperimentSizeWarning",
]


def __getattr__(name: str):
    if name in _LIVE_EXPORTS:
        from . import runtime

        value = getattr(runtime, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_LIVE_EXPORTS))

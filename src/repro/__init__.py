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

Every package exports its names lazily through one map
(:mod:`repro._exports`): ``import repro`` loads none of the packages, and
a name's module is imported the first time the name is read.  A simulation thus
never loads :mod:`asyncio`, and a live node never loads the simulator.

The README's "Layout" section lists the packages and their layer
order; ``python -m repro all`` prints every paper artefact beside the
paper's own values.
"""

from . import _exports

__version__ = "1.1.0"

__all__ = [
    "__version__",
    *_exports.lazy_exports(
        __name__,
        {
            ".core.config": ("ProtocolConfig",),
            ".core.system": ("ReplicationSystem",),
            ".core.strong": ("StrongConsistencySystem",),
            ".core.variants": (
                "weak_consistency",
                "high_demand_consistency",
                "fast_consistency",
                "push_only_consistency",
                "dynamic_fast_consistency",
                "static_table_consistency",
            ),
            ".core.islands": ("detect_islands", "bridge_system"),
            # runtime port & adapters
            ".port.base": ("Runtime",),
            ".sim.runtime": ("SimRuntime",),
            ".runtime.live": ("AsyncioRuntime",),
            ".runtime.cluster": ("ReplicaCluster",),
            # faults
            ".faults.schedule": ("FaultSchedule",),
            ".errors": (
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
            ),
        },
    ),
]

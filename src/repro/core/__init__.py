"""The paper's contribution: demand-driven anti-entropy replication.

Public surface:

* :class:`ReplicationSystem` — build and run a whole replicated system.
* :class:`ReplicaHost` — the protocol stacks of some nodes on any
  runtime; the simulator and every live world run it.
* :mod:`repro.core.variants` — the named protocol configurations
  (weak / high-demand / fast / dynamic / static-table).
* :mod:`repro.core.metrics` — convergence, request-satisfaction and
  traffic measurements.
* :mod:`repro.core.islands` — the §6 extension (leader-bridged islands).
* :mod:`repro.core.strong` — the synchronous cost comparator.
"""

from .. import _exports

__all__ = _exports.lazy_exports(
    __name__,
    {
        ".config": (
            "ProtocolConfig",
            "POLICY_RANDOM",
            "POLICY_DEMAND",
            "POLICY_ROUND_ROBIN",
            "POLICY_WEIGHTED",
            "KNOWLEDGE_ORACLE",
            "KNOWLEDGE_SNAPSHOT",
            "KNOWLEDGE_ADVERTISED",
            "PUSH_DOWNHILL",
            "PUSH_ALWAYS",
            "INTERVAL_EXPONENTIAL",
            "INTERVAL_UNIFORM",
        ),
        ".system": ("ReplicationSystem",),
        ".host": ("ReplicaHost", "build_node_stack", "TOPIC_UPDATE_APPLIED"),
        ".protocol": ("ReplicationNode",),
        ".variants": (
            "weak_consistency",
            "high_demand_consistency",
            "fast_consistency",
            "push_only_consistency",
            "dynamic_fast_consistency",
            "static_table_consistency",
            "FIGURE_VARIANTS",
        ),
        # agents
        ".acking": ("AckManager",),
        ".antientropy": ("AntiEntropyAgent", "SessionState", "SessionStats"),
        ".fastupdate": ("FastUpdateAgent", "FastUpdateStats"),
        ".policies": (
            "PartnerSelectionPolicy",
            "RandomPolicy",
            "DemandOrderedPolicy",
            "RoundRobinPolicy",
            "WeightedRandomPolicy",
            "make_policy",
        ),
        ".metrics": (
            "ConvergenceTracker",
            "cascade_hops",
            "cascade_histogram",
            "reach_time",
            "mean_reach_time",
            "coverage_fraction",
            "satisfied_requests_series",
            "TrafficMeter",
            "TrafficReport",
        ),
        ".islands": (
            "Island",
            "detect_islands",
            "elect_leaders",
            "plan_bridges",
            "bridge_latency",
            "bridge_system",
        ),
        ".strong": ("StrongConsistencySystem",),
    },
)

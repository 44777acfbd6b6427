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

from .acking import AckManager
from .antientropy import AntiEntropyAgent, SessionState, SessionStats
from .config import (
    INTERVAL_EXPONENTIAL,
    INTERVAL_UNIFORM,
    KNOWLEDGE_ADVERTISED,
    KNOWLEDGE_ORACLE,
    KNOWLEDGE_SNAPSHOT,
    POLICY_DEMAND,
    POLICY_RANDOM,
    POLICY_ROUND_ROBIN,
    POLICY_WEIGHTED,
    PUSH_ALWAYS,
    PUSH_DOWNHILL,
    ProtocolConfig,
)
from .fastupdate import FastUpdateAgent, FastUpdateStats
from .host import TOPIC_UPDATE_APPLIED, ReplicaHost, build_node_stack
from .islands import (
    Island,
    bridge_latency,
    bridge_system,
    detect_islands,
    elect_leaders,
    plan_bridges,
)
from .metrics import (
    ConvergenceTracker,
    cascade_histogram,
    cascade_hops,
    TrafficMeter,
    TrafficReport,
    coverage_fraction,
    mean_reach_time,
    reach_time,
    satisfied_requests_series,
)
from .policies import (
    DemandOrderedPolicy,
    PartnerSelectionPolicy,
    RandomPolicy,
    RoundRobinPolicy,
    WeightedRandomPolicy,
    make_policy,
)
from .protocol import ReplicationNode
from .strong import StrongConsistencySystem
from .system import ReplicationSystem
from .variants import (
    FIGURE_VARIANTS,
    dynamic_fast_consistency,
    fast_consistency,
    high_demand_consistency,
    push_only_consistency,
    static_table_consistency,
    weak_consistency,
)

__all__ = [
    "ProtocolConfig",
    "ReplicationSystem",
    "ReplicaHost",
    "ReplicationNode",
    "build_node_stack",
    "TOPIC_UPDATE_APPLIED",
    # config constants
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
    # variants
    "weak_consistency",
    "high_demand_consistency",
    "fast_consistency",
    "push_only_consistency",
    "dynamic_fast_consistency",
    "static_table_consistency",
    "FIGURE_VARIANTS",
    # agents
    "AckManager",
    "AntiEntropyAgent",
    "SessionState",
    "SessionStats",
    "FastUpdateAgent",
    "FastUpdateStats",
    # policies
    "PartnerSelectionPolicy",
    "RandomPolicy",
    "DemandOrderedPolicy",
    "RoundRobinPolicy",
    "WeightedRandomPolicy",
    "make_policy",
    # metrics
    "ConvergenceTracker",
    "cascade_hops",
    "cascade_histogram",
    "reach_time",
    "mean_reach_time",
    "coverage_fraction",
    "satisfied_requests_series",
    "TrafficMeter",
    "TrafficReport",
    # islands
    "Island",
    "detect_islands",
    "elect_leaders",
    "plan_bridges",
    "bridge_latency",
    "bridge_system",
    # strong baseline
    "StrongConsistencySystem",
]

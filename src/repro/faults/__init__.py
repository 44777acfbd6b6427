"""Fault & churn scenario subsystem.

The paper motivates demand-driven replication with unreliable wide-area
networks; this package makes that unreliability a first-class,
sweepable experiment axis:

* :mod:`repro.faults.schedule` — declarative, picklable
  :class:`FaultSchedule` / :class:`FaultEvent` data (node crashes, link
  flaps, partitions, demand shocks, churn) plus constructor helpers.
* :mod:`repro.faults.generators` — seeded schedule generators
  (:func:`poisson_churn`, :func:`flapping_links`, :func:`split_brain`,
  :func:`demand_shock_storm`, :func:`rolling_restart`, and the
  packet-level :func:`lossy_wan` / :func:`corrupt_storm`), pure
  functions of ``(topology, seed)`` like the demand registry's builders.
* :mod:`repro.faults.process` — replay: :class:`FaultReplayer` (one
  replay for every world: anchored at protocol time 0 in the simulator,
  deterministic, and at the moment of injection on a live cluster's
  wall clock), and :class:`ShockableDemand` / :func:`prepare_demand`
  for demand shocks.  Each replayed event is applied by
  :meth:`ReplicaHost.fault <repro.core.host.ReplicaHost.fault>`, the
  one fault path of every world.

Registry names (``"split_brain"``, ``"poisson_churn"``, ...) live in
:data:`repro.experiments.scenarios.FAULTS`; ``repro sweep --faults``
and :class:`~repro.experiments.plan.ExperimentPlan` sweep them across
execution backends bit-identically.
"""

from .. import _exports

__all__ = _exports.lazy_exports(
    __name__,
    {
        ".schedule": (
            "ACTIONS",
            "PACKET_ACTIONS",
            "FaultEvent",
            "FaultSchedule",
            "corrupt_frame",
            "demand_shock",
            "heal",
            "join",
            "latency_shock",
            "leave",
            "link_down",
            "link_up",
            "node_down",
            "node_up",
            "packet_duplicate",
            "packet_reorder",
            "partition",
        ),
        ".generators": (
            "corrupt_storm",
            "demand_shock_storm",
            "flapping_links",
            "lossy_wan",
            "poisson_churn",
            "rolling_restart",
            "split_brain",
        ),
        ".process": (
            "FAULT_PRIORITY",
            "FaultReplayer",
            "ShockableDemand",
            "prepare_demand",
        ),
    },
)

"""Demand-driven replica placement: the paper's loop, closed.

The source paper argues replicas should live where demand is; the rest
of this repo uses demand to *order* propagation. This package makes
demand drive *placement* too: a :class:`PlacementController` observes
per-site demand through real metered reports, runs a pluggable
:class:`PlacementPolicy` each cycle, and commits the copy list by
spawning replicas through the donor-selection machinery (full
anti-entropy bootstrap cost) and retiring cold ones.

Layout:

* :mod:`~repro.placement.messages` — metered control-plane messages;
* :mod:`~repro.placement.policies` — :class:`PlacementSetup` and the
  threshold / top-share / efficiency policies;
* :mod:`~repro.placement.controller` — the Dealer-style cycle;
* :mod:`~repro.placement.metrics` — capacity-aware satisfaction,
  replica-count trajectory, control-traffic accounting.
"""

from .. import _exports

__all__ = _exports.lazy_exports(
    __name__,
    {
        ".controller": ("PlacementController", "PlacementEvent"),
        ".messages": ("DemandReport", "PlacementAck", "PlacementCommand"),
        ".metrics": (
            "PlacementTraffic",
            "capacity_satisfied_series",
            "placement_traffic",
            "replica_count_series",
        ),
        ".policies": (
            "DONOR_POLICIES",
            "POLICIES",
            "EfficiencyFactorPolicy",
            "PlacementPolicy",
            "PlacementSetup",
            "ThresholdPolicy",
            "TopShareDemandPolicy",
            "build_policy",
        ),
    },
)

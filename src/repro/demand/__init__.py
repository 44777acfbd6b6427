"""Demand substrate: models, spatial fields, dynamics, dissemination.

Demand — client requests per unit time at each replica — is the signal
the paper's algorithm steers by. This package provides static models
(§5's random assignment, Zipf), the hills-and-valleys surfaces of
Fig. 1, the time-varying scenarios of §3-§4, and the advertisement
protocol that lets nodes learn neighbour demand.
"""

from .. import _exports

__all__ = _exports.lazy_exports(
    __name__,
    {
        ".base": (
            "DemandModel",
            "validate_demand_value",
            "normalize_snapshot",
            "demand_percentile",
        ),
        ".static": (
            "ExplicitDemand",
            "ConstantDemand",
            "UniformRandomDemand",
            "ZipfDemand",
            "paper_section2_demand",
            "SECTION2_REPLICAS",
            "uniform_snapshot_for",
        ),
        ".field": ("Valley", "SurfaceDemand", "random_valleys", "two_valley_field"),
        ".dynamic": (
            "ScheduledDemand",
            "FlashCrowdDemand",
            "RandomWalkDemand",
            "paper_fig4_demand",
            "FIG4_REPLICAS",
        ),
        ".views": (
            "DemandView",
            "NeighborRanking",
            "OracleDemandView",
            "SnapshotDemandView",
            "TableDemandView",
            "DemandTable",
            "TableEntry",
        ),
        ".advertisement": (
            "DemandAdvert",
            "DemandAdvertiser",
            "bootstrap_tables",
            "ADVERT_HEADER_BYTES",
            "ADVERT_VALUE_BYTES",
        ),
    },
)

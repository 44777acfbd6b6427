"""Demand substrate: models, spatial fields, dynamics, dissemination.

Demand — client requests per unit time at each replica — is the signal
the paper's algorithm steers by. This package provides static models
(§5's random assignment, Zipf), the hills-and-valleys surfaces of
Fig. 1, the time-varying scenarios of §3-§4, and the advertisement
protocol that lets nodes learn neighbour demand.
"""

from .advertisement import (
    ADVERT_HEADER_BYTES,
    ADVERT_VALUE_BYTES,
    DemandAdvert,
    DemandAdvertiser,
    bootstrap_tables,
)
from .base import (
    DemandModel,
    demand_percentile,
    normalize_snapshot,
    validate_demand_value,
)
from .dynamic import (
    FIG4_REPLICAS,
    FlashCrowdDemand,
    RandomWalkDemand,
    ScheduledDemand,
    paper_fig4_demand,
)
from .field import (
    SurfaceDemand,
    Valley,
    random_valleys,
    two_valley_field,
)
from .static import (
    SECTION2_REPLICAS,
    ConstantDemand,
    ExplicitDemand,
    UniformRandomDemand,
    ZipfDemand,
    paper_section2_demand,
    uniform_snapshot_for,
)
from .views import (
    DemandTable,
    DemandView,
    NeighborRanking,
    OracleDemandView,
    SnapshotDemandView,
    TableDemandView,
    TableEntry,
)

__all__ = [
    "DemandModel",
    "validate_demand_value",
    "normalize_snapshot",
    "demand_percentile",
    # static
    "ExplicitDemand",
    "ConstantDemand",
    "UniformRandomDemand",
    "ZipfDemand",
    "paper_section2_demand",
    "SECTION2_REPLICAS",
    "uniform_snapshot_for",
    # field
    "Valley",
    "SurfaceDemand",
    "random_valleys",
    "two_valley_field",
    # dynamic
    "ScheduledDemand",
    "FlashCrowdDemand",
    "RandomWalkDemand",
    "paper_fig4_demand",
    "FIG4_REPLICAS",
    # views
    "DemandView",
    "NeighborRanking",
    "OracleDemandView",
    "SnapshotDemandView",
    "TableDemandView",
    "DemandTable",
    "TableEntry",
    # advertisement
    "DemandAdvert",
    "DemandAdvertiser",
    "bootstrap_tables",
    "ADVERT_HEADER_BYTES",
    "ADVERT_VALUE_BYTES",
]

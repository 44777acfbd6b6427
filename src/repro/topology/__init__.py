"""Topology substrate: graph type, generators, analysis, power laws.

This package replaces BRITE in the reproduction: the
paper's evaluation topologies are random graphs satisfying the Internet
power laws, produced here by :func:`repro.topology.brite.barabasi_albert`
and verified by :mod:`repro.topology.powerlaws`.
"""

from .analysis import (
    DegreeStats,
    average_clustering,
    average_path_length,
    bfs_distances,
    clustering_coefficient,
    diameter,
    eccentricities,
    hop_pair_counts,
    radius,
    shortest_path,
    summarize,
)
from .brite import (
    PLACEMENT_HEAVY_TAIL,
    PLACEMENT_RANDOM,
    BriteConfig,
    barabasi_albert,
    internet_like,
    place_nodes,
    waxman,
)
from .graph import Topology
from .hierarchical import (
    HierarchicalConfig,
    as_members,
    as_of,
    hierarchical,
)
from .io import (
    dumps_brite,
    dumps_edge_list,
    load_edge_list,
    loads_edge_list,
    save_brite,
    save_edge_list,
)
from .powerlaws import (
    PowerLawFit,
    eigen_exponent,
    fit_power_law,
    hop_plot_exponent,
    outdegree_exponent,
    rank_exponent,
    verify_internet_like,
)
from .simple import (
    balanced_tree,
    complete,
    grid,
    hypercube,
    line,
    ring,
    star,
    torus,
)

__all__ = [
    "Topology",
    # generators
    "BriteConfig",
    "barabasi_albert",
    "waxman",
    "internet_like",
    "place_nodes",
    "PLACEMENT_RANDOM",
    "PLACEMENT_HEAVY_TAIL",
    "HierarchicalConfig",
    "hierarchical",
    "as_of",
    "as_members",
    "line",
    "ring",
    "star",
    "grid",
    "torus",
    "complete",
    "balanced_tree",
    "hypercube",
    # analysis
    "bfs_distances",
    "shortest_path",
    "diameter",
    "radius",
    "eccentricities",
    "average_path_length",
    "hop_pair_counts",
    "DegreeStats",
    "clustering_coefficient",
    "average_clustering",
    "summarize",
    # power laws
    "PowerLawFit",
    "fit_power_law",
    "rank_exponent",
    "outdegree_exponent",
    "hop_plot_exponent",
    "eigen_exponent",
    "verify_internet_like",
    # io
    "dumps_edge_list",
    "loads_edge_list",
    "save_edge_list",
    "load_edge_list",
    "dumps_brite",
    "save_brite",
]

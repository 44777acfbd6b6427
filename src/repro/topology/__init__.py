"""Topology substrate: graph type, generators, analysis, power laws.

This package replaces BRITE in the reproduction: the
paper's evaluation topologies are random graphs satisfying the Internet
power laws, produced here by :func:`repro.topology.brite.barabasi_albert`
and verified by :mod:`repro.topology.powerlaws`.
"""

from .. import _exports

__all__ = _exports.lazy_exports(
    __name__,
    {
        ".graph": ("Topology",),
        # generators
        ".brite": (
            "BriteConfig",
            "barabasi_albert",
            "waxman",
            "internet_like",
            "place_nodes",
            "PLACEMENT_RANDOM",
            "PLACEMENT_HEAVY_TAIL",
        ),
        ".hierarchical": ("HierarchicalConfig", "hierarchical", "as_of", "as_members"),
        ".simple": (
            "line",
            "ring",
            "star",
            "grid",
            "torus",
            "complete",
            "balanced_tree",
            "hypercube",
        ),
        ".analysis": (
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
        ),
        ".powerlaws": (
            "PowerLawFit",
            "fit_power_law",
            "rank_exponent",
            "outdegree_exponent",
            "hop_plot_exponent",
            "eigen_exponent",
            "verify_internet_like",
        ),
        ".io": (
            "dumps_edge_list",
            "loads_edge_list",
            "save_edge_list",
            "load_edge_list",
            "dumps_brite",
            "save_brite",
        ),
    },
)

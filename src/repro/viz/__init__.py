"""Terminal visualisation: ASCII line/CDF plots and demand surfaces."""

from .. import _exports

__all__ = _exports.lazy_exports(
    __name__,
    {
        ".ascii": ("line_plot", "cdf_plot", "bar_chart"),
        ".surface": ("render_surface", "render_topology_demand"),
        ".export": ("curves_to_csv", "save_curves_csv", "rows_to_csv", "save_rows_csv"),
    },
)

"""Faloutsos power-law diagnostics.

Faloutsos, Faloutsos & Faloutsos (SIGCOMM'99) — cited by the paper as
the ground truth its BRITE topologies must satisfy — describe four
power laws of Internet graphs:

1. **Rank exponent R**: node degree vs. degree rank.
2. **Outdegree exponent O**: degree frequency vs. degree.
3. **Hop-plot exponent H**: number of node pairs within *h* hops vs. *h*.
4. **Eigen exponent E**: adjacency eigenvalues vs. eigenvalue rank.

Each function fits the corresponding log-log regression and returns the
exponent together with the correlation coefficient, so tests and
experiments can assert "the generated topology is in the Internet-like
regime" quantitatively (|r| close to 1, negative exponents).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..errors import TopologyError
from .analysis import diameter, hop_pair_counts
from .graph import Topology


@dataclass(frozen=True)
class PowerLawFit:
    """A fitted power law ``y = c * x ** exponent``.

    Attributes:
        exponent: Slope of the log-log regression.
        intercept: Log-space intercept (``log(c)``).
        correlation: Pearson correlation of the log-log points; values
            near -1/+1 indicate the law holds.
        points: Number of (x, y) samples fitted.
    """

    exponent: float
    intercept: float
    correlation: float
    points: int

    @property
    def r_squared(self) -> float:
        return self.correlation * self.correlation

    def predict(self, x: float) -> float:
        """Evaluate the fitted law at ``x``."""
        return math.exp(self.intercept) * x**self.exponent


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> PowerLawFit:
    """Least-squares fit of ``log(y) = intercept + exponent * log(x)``."""
    if len(xs) != len(ys):
        raise TopologyError("x and y lengths differ")
    pairs = [(x, y) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len(pairs) < 2:
        raise TopologyError(f"need >= 2 positive points to fit, got {len(pairs)}")
    lx = [math.log(x) for x, _ in pairs]
    ly = [math.log(y) for _, y in pairs]
    n = len(pairs)
    mean_x = sum(lx) / n
    mean_y = sum(ly) / n
    sxx = sum((x - mean_x) ** 2 for x in lx)
    syy = sum((y - mean_y) ** 2 for y in ly)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(lx, ly))
    if sxx == 0:
        raise TopologyError("degenerate fit: all x values equal")
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    if syy == 0:
        correlation = 1.0 if sxy >= 0 else -1.0
    else:
        correlation = sxy / math.sqrt(sxx * syy)
    return PowerLawFit(
        exponent=slope, intercept=intercept, correlation=correlation, points=n
    )


def rank_exponent(topo: Topology) -> PowerLawFit:
    """Power law 1: degree d_v vs. rank r_v (sorted decreasing)."""
    degrees = sorted(topo.degrees().values(), reverse=True)
    ranks = list(range(1, len(degrees) + 1))
    return fit_power_law(ranks, degrees)


def outdegree_exponent(topo: Topology) -> PowerLawFit:
    """Power law 2: frequency f_d of degree d vs. d."""
    freq: Dict[int, int] = {}
    for degree in topo.degrees().values():
        freq[degree] = freq.get(degree, 0) + 1
    degrees = sorted(freq)
    counts = [freq[d] for d in degrees]
    return fit_power_law(degrees, counts)


def hop_plot_exponent(topo: Topology) -> PowerLawFit:
    """Power law 3: pairs-within-h-hops P(h) vs. h, for h < diameter."""
    if not topo.is_connected():
        raise TopologyError("hop-plot exponent requires a connected topology")
    dia = diameter(topo)
    counts = hop_pair_counts(topo, max_hops=dia)
    hops = [h for h in sorted(counts) if 1 <= h <= max(1, dia - 1)]
    if len(hops) < 2:
        # Tiny/dense graphs saturate immediately; fit over what exists.
        hops = [h for h in sorted(counts) if h >= 1]
    values = [counts[h] for h in hops]
    return fit_power_law(hops, values)


def eigen_exponent(topo: Topology, k: int = 20) -> PowerLawFit:
    """Power law 4: i-th largest adjacency eigenvalue vs. i.

    Uses numpy's symmetric eigensolver on the dense adjacency matrix —
    fine for the evaluation sizes (tens to hundreds of nodes).
    """
    import numpy as np

    nodes = topo.nodes
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    if n == 0:
        raise TopologyError("empty topology")
    matrix = np.zeros((n, n))
    for a, b, _ in topo.edges():
        matrix[index[a], index[b]] = 1.0
        matrix[index[b], index[a]] = 1.0
    eigenvalues = np.linalg.eigvalsh(matrix)
    top = sorted((float(v) for v in eigenvalues), reverse=True)[: max(2, k)]
    positive = [v for v in top if v > 0]
    ranks = list(range(1, len(positive) + 1))
    return fit_power_law(ranks, positive)


def verify_internet_like(
    topo: Topology, min_correlation: float = 0.9
) -> Dict[str, PowerLawFit]:
    """Fit the rank/outdegree/eigen laws and check they hold.

    Returns the fits keyed by law name. Raises :class:`TopologyError`
    if any fitted |correlation| is below ``min_correlation`` — used by
    tests to guard the BRITE-replacement claim of this package.
    """
    fits = {
        "rank": rank_exponent(topo),
        "outdegree": outdegree_exponent(topo),
        "eigen": eigen_exponent(topo),
    }
    for name, fit in fits.items():
        if abs(fit.correlation) < min_correlation:
            raise TopologyError(
                f"power law {name!r} does not hold: |r|="
                f"{abs(fit.correlation):.3f} < {min_correlation}"
            )
    return fits

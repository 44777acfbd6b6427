"""BRITE-style random topology generation.

The paper generates its evaluation topologies with BRITE (Medina,
Lakhina, Matta, Byers), configured so that the result satisfies the
Internet power laws of Faloutsos et al. This module reimplements the two
router-level BRITE models the paper relies on:

* :func:`barabasi_albert` — incremental growth (factor F2) with
  preferential connectivity (factor F1): each new node attaches to ``m``
  existing nodes with probability proportional to their degree. This is
  the model the paper cites for why its topologies follow power laws.
* :func:`waxman` — incremental Waxman: new nodes attach to ``m``
  existing nodes with probability weight ``alpha * exp(-d / (beta * L))``
  where ``d`` is Euclidean distance and ``L`` the plane diagonal.

Both models place nodes on a BRITE-like plane first (uniform or
heavy-tailed placement) and produce connected graphs by construction.

Cost: :func:`barabasi_albert` is O(n·m·log n) — degrees are integers, so
the weighted draws run on a Fenwick tree (point update per edge, one
prefix-sum descent per draw) and n = 10⁵ builds in seconds.
:func:`waxman` is inherently O(n²): its weights depend on the joining
node's position, so every joiner weighs every earlier node afresh
(:func:`_weighted_sample_distinct`).  Both consume one ``rng.random()``
per attachment and take the first candidate whose running weight
reaches the draw; ``tests/test_topology_generators.py`` holds the plain
quadratic BA loop as the oracle the Fenwick version must equal, RNG
state included.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import TopologyError
from .graph import Topology

#: Placement strategies for nodes on the plane.
PLACEMENT_RANDOM = "random"
PLACEMENT_HEAVY_TAIL = "heavy_tail"

_PLACEMENTS = (PLACEMENT_RANDOM, PLACEMENT_HEAVY_TAIL)


@dataclass(frozen=True)
class BriteConfig:
    """Parameters shared by the BRITE-style generators.

    Attributes:
        n: Number of nodes.
        m: Edges added per new node (BRITE's ``m``); the first ``m + 1``
            nodes form the connected seed core.
        plane_size: Side length of the placement plane (BRITE default
            1000 "HS" units).
        placement: ``"random"`` (uniform) or ``"heavy_tail"`` (BRITE's
            skewed placement: squares weighted by a Pareto draw).
        squares: Grid resolution used by heavy-tailed placement.
        waxman_alpha: Waxman ``alpha`` (edge-probability scale).
        waxman_beta: Waxman ``beta`` (distance sensitivity).
    """

    n: int = 50
    m: int = 2
    plane_size: float = 1000.0
    placement: str = PLACEMENT_RANDOM
    squares: int = 10
    waxman_alpha: float = 0.15
    waxman_beta: float = 0.2

    def validate(self) -> None:
        if self.n < 2:
            raise TopologyError(f"need at least 2 nodes, got {self.n}")
        if self.m < 1:
            raise TopologyError(f"m must be >= 1, got {self.m}")
        if self.m >= self.n:
            raise TopologyError(f"m={self.m} must be < n={self.n}")
        if self.plane_size <= 0:
            raise TopologyError("plane_size must be positive")
        if self.placement not in _PLACEMENTS:
            raise TopologyError(
                f"placement must be one of {_PLACEMENTS}, got {self.placement!r}"
            )
        if self.squares < 1:
            raise TopologyError("squares must be >= 1")
        if not (0 < self.waxman_alpha <= 1):
            raise TopologyError("waxman_alpha must be in (0, 1]")
        if not (0 < self.waxman_beta <= 1):
            raise TopologyError("waxman_beta must be in (0, 1]")


# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------


def place_nodes(config: BriteConfig, rng: random.Random) -> List[Tuple[float, float]]:
    """Place ``config.n`` points on the plane per the configured strategy."""
    config.validate()
    if config.placement == PLACEMENT_RANDOM:
        return [
            (rng.uniform(0, config.plane_size), rng.uniform(0, config.plane_size))
            for _ in range(config.n)
        ]
    return _heavy_tail_placement(config, rng)


def _heavy_tail_placement(
    config: BriteConfig, rng: random.Random
) -> List[Tuple[float, float]]:
    """BRITE-style skewed placement.

    The plane is divided into ``squares x squares`` cells; each cell
    receives a Pareto-distributed weight, and points pick their cell
    proportionally to the weights. This clusters nodes the way BRITE's
    bounded-Pareto assignment does, which is what makes heavy-tailed
    placement interesting for demand fields.
    """
    cells = config.squares * config.squares
    weights = [rng.paretovariate(1.2) for _ in range(cells)]
    total = sum(weights)
    cumulative: List[float] = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cumulative.append(acc)
    side = config.plane_size / config.squares
    points: List[Tuple[float, float]] = []
    for _ in range(config.n):
        r = rng.random()
        # Binary search over the cumulative weights.
        lo, hi = 0, cells - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cumulative[mid] < r:
                lo = mid + 1
            else:
                hi = mid
        row, col = divmod(lo, config.squares)
        points.append(
            (col * side + rng.uniform(0, side), row * side + rng.uniform(0, side))
        )
    return points


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def _weighted_sample_distinct(
    candidates: Sequence[int],
    weights: Sequence[float],
    k: int,
    rng: random.Random,
) -> List[int]:
    """Sample ``k`` distinct candidates with probability ~ weights."""
    chosen: List[int] = []
    pool = list(candidates)
    pool_weights = list(weights)
    for _ in range(min(k, len(pool))):
        total = sum(pool_weights)
        if total <= 0:
            index = rng.randrange(len(pool))
        else:
            r = rng.random() * total
            acc = 0.0
            index = len(pool) - 1
            for i, w in enumerate(pool_weights):
                acc += w
                if r <= acc:
                    index = i
                    break
        chosen.append(pool.pop(index))
        pool_weights.pop(index)
    return chosen


def _fenwick_add(tree: List[int], index: int, delta: int) -> None:
    """Add ``delta`` to element ``index`` (0-based) of a Fenwick tree."""
    index += 1
    while index < len(tree):
        tree[index] += delta
        index += index & -index


def _fenwick_find(tree: List[int], target: int) -> int:
    """0-based index of the first element whose prefix sum is >= ``target``.

    ``target`` must lie in ``1..sum``; zero-weight elements are never
    returned because their prefix equals their predecessor's.
    """
    position = 0
    step = 1 << ((len(tree) - 1).bit_length() - 1)
    while step:
        probe = position + step
        if probe < len(tree) and tree[probe] < target:
            position = probe
            target -= tree[probe]
        step >>= 1
    return position


def barabasi_albert(
    config: Optional[BriteConfig] = None,
    rng: Optional[random.Random] = None,
    **overrides,
) -> Topology:
    """Generate a BRITE/BA topology (preferential connectivity).

    Keyword overrides (``n=100, m=2, ...``) may be passed instead of a
    full :class:`BriteConfig`.
    """
    config = _resolve(config, overrides)
    rng = rng if rng is not None else random.Random(0)
    points = place_nodes(config, rng)
    topo = Topology(f"ba-{config.n}-m{config.m}")
    for node, point in enumerate(points):
        topo.add_node(node, point)

    # Seed core: m + 1 nodes connected in a clique, giving every seed a
    # non-zero degree so preferential attachment is well defined.
    core = list(range(config.m + 1))
    for i in core:
        for j in core[i + 1 :]:
            topo.add_edge(i, j)

    # Preferential attachment over a Fenwick tree of integer degrees
    # (1-based; node i sits at tree[i + 1]).  A draw takes the first
    # node whose inclusive prefix sum reaches r; degrees are integers,
    # so that is the first prefix >= ceil(r), found by one descent.  A
    # chosen node's weight is zeroed for the joiner's remaining draws
    # (sampling without replacement) and restored, plus its new edge,
    # once the joiner is wired.
    tree = [0] * (config.n + 1)
    degree = [0] * config.n
    for node in core:
        degree[node] = config.m
        _fenwick_add(tree, node, config.m)
    total = config.m * len(core)
    for new in range(config.m + 1, config.n):
        targets: List[int] = []
        remaining = total
        for _ in range(config.m):
            # max(1, ...): a draw of exactly 0.0 must skip zeroed nodes.
            target = _fenwick_find(tree, max(1, math.ceil(rng.random() * remaining)))
            targets.append(target)
            _fenwick_add(tree, target, -degree[target])
            remaining -= degree[target]
        for target in targets:
            topo.add_edge(new, target)
            degree[target] += 1
            _fenwick_add(tree, target, degree[target])
        degree[new] = config.m
        _fenwick_add(tree, new, config.m)
        total += 2 * config.m
    return topo


def waxman(
    config: Optional[BriteConfig] = None,
    rng: Optional[random.Random] = None,
    **overrides,
) -> Topology:
    """Generate a BRITE-style incremental Waxman topology.

    New nodes connect to ``m`` existing nodes sampled with weight
    ``alpha * exp(-d / (beta * L))``; closer nodes are preferred, giving
    the locality structure of router-level maps without power laws.
    """
    config = _resolve(config, overrides)
    rng = rng if rng is not None else random.Random(0)
    points = place_nodes(config, rng)
    diagonal = math.hypot(config.plane_size, config.plane_size)
    topo = Topology(f"waxman-{config.n}-m{config.m}")
    for node, point in enumerate(points):
        topo.add_node(node, point)

    core = list(range(config.m + 1))
    for i in core:
        for j in core[i + 1 :]:
            topo.add_edge(i, j)

    def edge_weight_fn(a: int, b: int) -> float:
        (ax, ay), (bx, by) = points[a], points[b]
        d = math.hypot(ax - bx, ay - by)
        return config.waxman_alpha * math.exp(-d / (config.waxman_beta * diagonal))

    for new in range(config.m + 1, config.n):
        existing = list(range(new))
        weights = [edge_weight_fn(new, old) for old in existing]
        targets = _weighted_sample_distinct(existing, weights, config.m, rng)
        for target in targets:
            topo.add_edge(new, target)
    return topo


def internet_like(
    n: int, m: int = 2, seed: int = 0, placement: str = PLACEMENT_RANDOM
) -> Topology:
    """Convenience wrapper: the topology family used in the paper's §5.

    BA model on a 1000x1000 plane, seeded deterministically.
    """
    config = BriteConfig(n=n, m=m, placement=placement)
    return barabasi_albert(config, random.Random(seed))


def _resolve(config: Optional[BriteConfig], overrides: Dict) -> BriteConfig:
    if config is None:
        config = BriteConfig(**overrides)
    elif overrides:
        raise TopologyError("pass either a BriteConfig or keyword overrides, not both")
    config.validate()
    return config

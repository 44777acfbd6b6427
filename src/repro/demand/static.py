"""Time-invariant demand models.

The paper's §5 simulations assign each replica a random demand; these
models cover that (uniform random), the heavy-tailed reality it stands
in for (Zipf), and the explicit per-node tables used by the worked
examples in §2-§4. Each declares ``time_invariant``: its values are
fixed at construction, so a table is not to be edited mid-run.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Mapping, Optional, Sequence

from ..errors import DemandError
from .base import DemandModel, validate_demand_value


class ExplicitDemand(DemandModel):
    """Demand given as an explicit node -> value table.

    Used by the paper's worked examples (e.g. §2: A=4, B=6, C=3, D=8,
    E=7). Unknown nodes default to ``default`` (0 unless overridden).
    """

    time_invariant = True

    def __init__(self, table: Mapping[int, float], default: float = 0.0):
        self.table = {
            int(node): validate_demand_value(value, int(node))
            for node, value in table.items()
        }
        self.default = validate_demand_value(default, -1)

    def demand(self, node: int, time: float) -> float:
        return self.table.get(int(node), self.default)


class ConstantDemand(DemandModel):
    """Every node has the same demand — the paper's worst case (§8):

    "The worst case would be when all the replicas possess the same
    demand; in such a situation the algorithm behaves like a normal weak
    consistency algorithm."
    """

    time_invariant = True

    def __init__(self, value: float = 1.0):
        self.value = validate_demand_value(value, -1)

    def demand(self, node: int, time: float) -> float:
        return self.value


class UniformRandomDemand(DemandModel):
    """I.i.d. uniform demand in ``[low, high]`` per node (the §5 setup).

    Per-node values are derived deterministically from the seed, so the
    same node always sees the same demand regardless of query order.
    """

    time_invariant = True

    def __init__(self, low: float = 0.0, high: float = 100.0, seed: int = 0):
        if low < 0 or high < low:
            raise DemandError(f"invalid range [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)
        self.seed = int(seed)
        self._cache: Dict[int, float] = {}

    def demand(self, node: int, time: float) -> float:
        node = int(node)
        value = self._cache.get(node)
        if value is None:
            rng = random.Random((self.seed << 20) ^ (node * 2654435761 & 0xFFFFFFFF))
            value = rng.uniform(self.low, self.high)
            self._cache[node] = value
        return value


class ZipfDemand(DemandModel):
    """Zipf-distributed demand over a known node population.

    Node at demand-rank *k* (1-based) gets ``scale / k**exponent``.
    Which node gets which rank is a seeded random permutation, so demand
    hot-spots land at random topology positions (like the paper's random
    assignment) while the value distribution is heavy-tailed.
    """

    time_invariant = True

    def __init__(
        self,
        nodes: Sequence[int],
        exponent: float = 1.0,
        scale: float = 100.0,
        seed: int = 0,
    ):
        if exponent <= 0:
            raise DemandError(f"exponent must be positive, got {exponent}")
        if scale <= 0:
            raise DemandError(f"scale must be positive, got {scale}")
        node_list = [int(n) for n in nodes]
        if not node_list:
            raise DemandError("ZipfDemand needs a non-empty node population")
        rng = random.Random(seed)
        shuffled = node_list[:]
        rng.shuffle(shuffled)
        self.table: Dict[int, float] = {
            node: scale / (rank**exponent)
            for rank, node in enumerate(shuffled, start=1)
        }

    def demand(self, node: int, time: float) -> float:
        node = int(node)
        if node not in self.table:
            raise DemandError(f"node {node} outside the Zipf population")
        return self.table[node]


def paper_section2_demand() -> ExplicitDemand:
    """The §2 example table: replicas A..E mapped to ids 0..4.

    Replica  A B C D E
    Demand   4 6 3 8 7
    """
    return ExplicitDemand({0: 4.0, 1: 6.0, 2: 3.0, 3: 8.0, 4: 7.0})


#: Stable name -> id mapping for the §2 example, used by tests/benches.
SECTION2_REPLICAS: Dict[str, int] = {"A": 0, "B": 1, "C": 2, "D": 3, "E": 4}


def uniform_snapshot_for(
    nodes: Iterable[int],
    low: float = 0.0,
    high: float = 100.0,
    seed: int = 0,
) -> Dict[int, float]:
    """One-shot helper: a concrete random demand table for ``nodes``."""
    model = UniformRandomDemand(low=low, high=high, seed=seed)
    return model.snapshot(nodes)

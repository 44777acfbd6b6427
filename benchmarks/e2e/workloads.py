"""Seeded inputs of the four repro-e2e workloads.

Everything a workload feeds the program is made here from ``--seed``:
topology, demand model, system seed, write origins, keys and values.
The program under test receives only these generated inputs.

Sizes below are the sizes at ``--seconds 15`` (``BENCHMARK.json``'s
``run_seconds``); ``scale = seconds / 15`` stretches or shrinks every
horizon and phase duration linearly and never touches a node count, a
rate or the list of phases.  The live phases and the ``sim-writes``
horizon are the issue's prototype sizes times 0.6, the one factor the
contract's time cap forced; ``sim-scale`` keeps its 16 units because
its writes needed 8.3 to 12.1 units to reach every node over the
seeds tried while sizing.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

#: ``--seconds`` at which the sizes below apply.
NOMINAL_SECONDS = 15.0
#: The seed whose sim fingerprints are pinned in ``expected.json``.
DEFAULT_SEED = 1

WORKLOADS = ("sim-scale", "sim-writes", "live-queue", "live-tcp")

KEY_COUNT = 64
VALUE_BYTES = 128
#: Wall seconds a phase may take to converge after its last op.
CONVERGENCE_DEADLINE_S = 20.0
#: The paper's "high demand" subset: the top tenth of replicas.
HOT_FRACTION = 0.1
#: A write counts as having reached a set of replicas when it is applied
#: at this share of them, rounded up: all of 4, 12 or 30 replicas, and
#: all but the slowest 100 of 10^4, whose arrival is an extreme value
#: that swings by a sixth from one seed to the next.  The convergence
#: check still waits for every last replica.
COVERAGE = 0.99
#: Wall seconds per protocol time unit on the live clusters; simulated
#: latencies are reported at the same exchange rate.
TIME_SCALE = 0.02


#: Topology and demand seed of the three small-graph workloads.
PINNED_GRAPH_SEED = 3


def covered_at(times: Iterable[float]) -> float:
    """The instant ``COVERAGE`` of the replicas in ``times`` had applied."""
    ordered = sorted(times)
    return ordered[math.ceil(COVERAGE * len(ordered)) - 1]


def derive_seeds(workload: str, seed: int) -> Dict[str, int]:
    """Independent sub-seeds for each input, all functions of ``seed``.

    ``sim-scale`` draws everything from ``seed``, its 10^4-node graph
    and its write origins included: at that size one BA graph costs
    what another does.  The 12-, 4- and 30-node graphs of the other
    three do not average out (closed-loop puts/s ran from 1200 to 3000
    and peak RSS from 139 to 209 MB across ten 12-node graphs), which
    would bury a code regression under the choice of graph.  Those
    workloads therefore keep one pinned graph and demand table, and
    ``seed`` drives the traffic offered to it: protocol and
    client-arrival draws, keys and values.
    """
    rng = random.Random(f"repro-e2e/{int(seed)}")
    seeds = {
        name: rng.randrange(1, 2**31)
        for name in ("topology", "demand", "system", "origins", "values")
    }
    if workload != "sim-scale":
        seeds["topology"] = seeds["demand"] = PINNED_GRAPH_SEED
    return seeds


# ---------------------------------------------------------------------------
# Simulator workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimSpec:
    """One simulator workload at a given scale."""

    name: str
    nodes: int
    horizon: float
    #: Horizon from which "every write reached every node" must hold.
    full_horizon: float
    #: Writes injected at t=0 at seed-sampled origins (``sim-scale``).
    injected_writes: int = 0
    #: Client workload (``sim-writes``): per-node arrival rate ceiling
    #: and the share of requests that are writes; 0 = none.
    client_max_rate: float = 0.0
    client_write_fraction: float = 0.0
    #: Identical passes per untraced run; the fastest gives the time.
    repeats: int = 1


def sim_spec(name: str, scale: float) -> SimSpec:
    if name == "sim-scale":
        return SimSpec(
            name, nodes=10_000, horizon=16.0 * scale, full_horizon=16.0,
            injected_writes=8,
        )
    if name == "sim-writes":
        return SimSpec(
            name, nodes=30, horizon=90.0 * scale, full_horizon=90.0,
            client_max_rate=20.0, client_write_fraction=0.5, repeats=2,
        )
    raise ValueError(f"not a simulator workload: {name!r}")


def sample_origins(nodes: Iterable[int], count: int, seed: int) -> List[int]:
    """``count`` distinct write origins drawn from the sorted node ids."""
    return random.Random(seed).sample(sorted(nodes), count)


# ---------------------------------------------------------------------------
# Live workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Phase:
    """One load phase.  ``rate`` is total ops/s offered on a fixed
    schedule (open loop); ``rate == 0`` means closed loop on the ack."""

    name: str
    rate: float
    seconds: float


@dataclass(frozen=True)
class LiveSpec:
    """One live-cluster workload at a given scale."""

    name: str
    nodes: int
    transport: str
    time_scale: float
    #: True: put and get alternate 1:1; False: puts only.
    gets: bool
    phases: Tuple[Phase, ...]


def live_spec(name: str, scale: float) -> LiveSpec:
    if name == "live-queue":
        nodes, transport, gets, lo, ref = 12, "queue", False, 250.0, 1000.0
    elif name == "live-tcp":
        # 100+100 and 200+200 puts+gets per second.
        nodes, transport, gets, lo, ref = 4, "tcp", True, 200.0, 400.0
    else:
        raise ValueError(f"not a live workload: {name!r}")
    phases = (
        Phase("warmup", lo, 0.6 * scale),
        Phase("lo", lo, 3.6 * scale),
        Phase("ref", ref, 6.0 * scale),
        Phase("flood", 0.0, 4.8 * scale),
    )
    return LiveSpec(name, nodes, transport, TIME_SCALE, gets, phases)


class OpSource:
    """The seeded stream of client operations of a live workload.

    Op ``i`` writes (or reads) a seed-chosen key out of ``KEY_COUNT``;
    put origins go round-robin over the nodes and a get goes to the
    node after the preceding put's origin.  Every written value is
    unique (its op index leads it), so a read can be checked against
    the set of values ever written to its key.
    """

    def __init__(self, node_ids: List[int], gets: bool, seed: int):
        rng = random.Random(seed)
        self._nodes = list(node_ids)
        self._gets = gets
        self._keys = [f"key-{i:02d}" for i in range(KEY_COUNT)]
        self._key_rng = rng
        alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
        self._pad = "".join(rng.choice(alphabet) for _ in range(VALUE_BYTES - 11))
        self._index = 0
        self._puts = 0

    def next(self) -> Tuple[str, int, str, str]:
        """``(kind, node, key, value)`` of the next op (value "" on get)."""
        index = self._index
        self._index += 1
        key = self._keys[self._key_rng.randrange(KEY_COUNT)]
        node = self._nodes[self._puts % len(self._nodes)]
        if self._gets and index % 2 == 1:
            return "get", node, key, ""
        self._puts += 1
        return "put", node, key, f"{index:010d}:{self._pad}"

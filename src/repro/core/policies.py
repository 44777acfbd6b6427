"""Anti-entropy partner-selection policies.

The baseline (Golding) picks a random neighbour. The paper's first
optimisation replaces that with *ordered* selection: "the neighbour with
most demand must be chosen first" (§2), cycling through all neighbours
before starting over (the B-D, B-E, B-A, B-C order of Fig. 3), and — in
the dynamic §4 variant — re-ranking the *remaining* neighbours against
current beliefs at every step (the B-D, B-C', B-A' sequence of Fig. 4).

A policy instance belongs to one node and may keep state (the position
in the current cycle). Policies read believed demand through a
:class:`repro.demand.views.DemandView`, so the same policy code serves
the oracle, snapshot and advertised knowledge models. The ordered policy
re-ranks only when beliefs or neighbours have moved (the view's epoch,
the neighbour tuple), which is when a re-rank can change the answer.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence, Set, Tuple

from ..demand.views import DemandView, NeighborRanking
from ..errors import ConfigurationError
from .config import (
    POLICY_DEMAND,
    POLICY_RANDOM,
    POLICY_ROUND_ROBIN,
    POLICY_WEIGHTED,
    ProtocolConfig,
)


class PartnerSelectionPolicy:
    """Chooses which neighbour to start the next session with."""

    __slots__ = ()

    def select(self, neighbors: Sequence[int]) -> Optional[int]:
        """Return the chosen partner, or None when there is none."""
        raise NotImplementedError

    def reset(self) -> None:
        """Forget cycle state (topology changed, experiment restarted)."""


class RandomPolicy(PartnerSelectionPolicy):
    """Golding's baseline: uniform random neighbour.

    "Golding demonstrated that the neighbouring server's random choice
    has the best performance ... in a peer-to-peer network" (§1) — best
    among demand-oblivious policies, which is precisely what the paper
    improves on.
    """

    def __init__(self, rng: random.Random):
        self._rng = rng

    def select(self, neighbors: Sequence[int]) -> Optional[int]:
        if not neighbors:
            return None
        return self._rng.choice(list(neighbors))


class DemandOrderedPolicy(NeighborRanking, PartnerSelectionPolicy):
    """The paper's ordered selection (optimisations in §2 and §4).

    Each call picks the highest-believed-demand neighbour *not yet
    visited* in the current cycle, against the view's current beliefs.
    When every neighbour has been visited the cycle restarts. Because the
    choice is made at selection time, the same policy implements both
    the static §2 behaviour (beliefs never change) and the dynamic §4
    behaviour (beliefs shift between selections).

    The policy is its node's :class:`NeighborRanking`, which the
    fast-update push reads too. While that order holds, the neighbours
    visited this cycle are a prefix of it, so a cursor is the whole cycle
    state. Only when the order moves mid-cycle does the visited prefix
    become a set, kept until the visited neighbours are again a prefix of
    the order.
    """

    __slots__ = ("_walked", "_cursor", "_visited")

    def __init__(self, view: DemandView):
        super().__init__(view)
        self.reset()

    def select(self, neighbors: Sequence[int]) -> Optional[int]:
        if not neighbors:
            return None
        order = self.rank(neighbors)
        cursor = self._cursor
        if self._visited is None:
            walked = self._walked
            if order is walked or order[:cursor] == walked[:cursor]:
                if cursor == len(order):
                    cursor = 0
                self._walked = order
                self._cursor = cursor + 1
                return order[cursor]
            self._visited = set(walked[:cursor])
        visited = self._visited
        for index, choice in enumerate(order):
            if choice not in visited:
                break
        else:  # every neighbour visited: a new cycle
            visited.clear()
            index, choice = 0, order[0]
        visited.add(choice)
        if len(visited) == index + 1:  # exactly order[:index + 1] again
            self._walked, self._cursor, self._visited = order, index + 1, None
        return choice

    def reset(self) -> None:
        #: The order whose first ``_cursor`` entries are this cycle's
        #: visits, unless ``_visited`` holds them.
        self._walked: Tuple[int, ...] = ()
        self._cursor = 0
        self._visited: Optional[Set[int]] = None


class RoundRobinPolicy(PartnerSelectionPolicy):
    """Deterministic cycle in ascending id order (control policy)."""

    def __init__(self):
        self._cursor = 0

    def select(self, neighbors: Sequence[int]) -> Optional[int]:
        if not neighbors:
            return None
        ordered = sorted(neighbors)
        choice = ordered[self._cursor % len(ordered)]
        self._cursor += 1
        return choice

    def reset(self) -> None:
        self._cursor = 0


class WeightedRandomPolicy(PartnerSelectionPolicy):
    """Random partner with probability proportional to believed demand.

    A softer demand bias than strict ordering — used by the ablation
    bench to show that *ordering* (not mere bias) gives the paper's
    first optimisation its effect. Zero-demand neighbours keep a small
    epsilon weight so they are still eventually contacted.
    """

    def __init__(self, view: DemandView, rng: random.Random, epsilon: float = 1e-3):
        if epsilon <= 0:
            raise ConfigurationError(f"epsilon must be positive, got {epsilon}")
        self._view = view
        self._rng = rng
        self._epsilon = epsilon

    def select(self, neighbors: Sequence[int]) -> Optional[int]:
        if not neighbors:
            return None
        neighbors = list(neighbors)
        weights = [self._view.demand_of(n) + self._epsilon for n in neighbors]
        total = sum(weights)
        r = self._rng.random() * total
        acc = 0.0
        for node, weight in zip(neighbors, weights):
            acc += weight
            if r <= acc:
                return node
        return neighbors[-1]


#: The policies that draw random numbers.  Only these get a per-node
#: RNG stream; a ``random.Random`` is ~2.5 KB, which at 10^4 nodes is
#: worth not allocating for policies that never call it.
STOCHASTIC_POLICIES = frozenset((POLICY_RANDOM, POLICY_WEIGHTED))


def make_policy(
    config: ProtocolConfig, view: DemandView, rng: Optional[random.Random] = None
) -> PartnerSelectionPolicy:
    """Instantiate the policy named by ``config.partner_policy``.

    ``rng`` is required only for :data:`STOCHASTIC_POLICIES`.
    """
    if rng is None and config.partner_policy in STOCHASTIC_POLICIES:
        raise ConfigurationError(
            f"policy {config.partner_policy!r} needs an rng stream"
        )
    if config.partner_policy == POLICY_RANDOM:
        return RandomPolicy(rng)
    if config.partner_policy == POLICY_DEMAND:
        return DemandOrderedPolicy(view)
    if config.partner_policy == POLICY_ROUND_ROBIN:
        return RoundRobinPolicy()
    if config.partner_policy == POLICY_WEIGHTED:
        return WeightedRandomPolicy(view, rng)
    raise ConfigurationError(f"unknown policy {config.partner_policy!r}")

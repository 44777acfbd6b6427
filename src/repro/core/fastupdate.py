"""The fast-update push agent (paper §2.1 steps 13-18).

This is the paper's second optimisation: the instant a replica absorbs
*new* updates — from a local client write, an anti-entropy session, or a
previous fast update — it offers them to its highest-demand
neighbour(s) without waiting for the next session and without
exchanging summary vectors:

* step 13-14: send :class:`FastUpdateOffer` (ids + timestamps only);
* step 15-16: the target answers which of those it still needs
  (YES = non-empty list, NO = empty);
* step 17-18: send the bodies for the YES entries, or nothing.

Under the default ``downhill`` rule a node only offers to neighbours
whose believed demand is *strictly higher* than its own, so updates
cascade into demand valleys and stop at local demand minima — the
"flooding the valleys" picture of §2. When all demands are equal no
offer is ever made and the system degrades to plain weak consistency,
exactly the worst case §8 describes. The ``always`` rule (ablation)
offers to the top-``fanout`` neighbours unconditionally.

Targets come from the node's :class:`~repro.demand.views.NeighborRanking`
— the one its demand-ordered partner selection keeps — which is rebuilt
only when beliefs or neighbours move, so choosing them is a walk down a
ready order: skip the sender, stop at the first neighbour no higher than
this node (``downhill``), take ``fanout``.

Island bridging (§6) plugs in through ``extra_targets``, which
:meth:`~repro.core.protocol.ReplicationNode.add_bridge_targets` fills:
overlay peers (other island leaders) always receive offers regardless
of demand.
"""

from __future__ import annotations

from math import inf
from typing import Callable, Dict, FrozenSet, List, Optional

from ..demand.views import NeighborRanking
from ..errors import ReplicationError
from ..port.base import Runtime
from ..replica.log import Update, UpdateId
from ..replica.messages import FastUpdateOffer, FastUpdatePayload, FastUpdateReply
from ..replica.server import ReplicaServer
from .config import PUSH_ALWAYS, PUSH_DOWNHILL, ProtocolConfig

_NO_TARGETS: FrozenSet[int] = frozenset()


class FastUpdateStats:
    """Per-node counters (all start at 0) for the push path."""

    __slots__ = ("offers_sent", "offers_received", "replies_yes", "replies_no",
                 "payloads_sent", "updates_pushed", "updates_received",
                 "max_cascade_hops")

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)


class _OriginDepths(bytearray):
    """Push hops of one origin's cascade arrivals at one node.

    An origin numbers its writes densely, so this is one byte per write
    from sequence number ``first`` on: 0 for a write that came from a
    client or by session, else its hops, which saturate at 255 (a deeper
    cascade still spreads; only the depth it reports stops growing).
    """

    __slots__ = ("first",)


class FastUpdateAgent:
    """Immediate demand-directed propagation at one node.

    Args:
        runtime: Owning runtime (clock + transport).
        server: The local replica (the agent registers itself as a
            new-updates listener).
        config: Protocol switches (rule, fanout).
        ranking: This node's neighbours ordered by believed demand.
        own_demand: Zero-arg callable returning this node's current true
            demand (a server always knows its own request rate).
    """

    __slots__ = ("runtime", "transport", "server", "config", "ranking",
                 "own_demand", "node", "extra_targets", "stats", "_push_depth")

    def __init__(
        self,
        runtime: Runtime,
        server: ReplicaServer,
        config: ProtocolConfig,
        ranking: NeighborRanking,
        own_demand: Callable[[], float],
    ):
        self.runtime = runtime
        self.transport = runtime.transport
        self.server = server
        self.config = config
        self.ranking = ranking
        self.own_demand = own_demand
        self.node = server.node
        #: Overlay peers that always receive offers (island-leader
        #: bridges).  Immutable, so every node without bridges shares one
        #: empty set; :meth:`ReplicationNode.add_bridge_targets` rebinds it.
        self.extra_targets: FrozenSet[int] = _NO_TARGETS
        self.stats = FastUpdateStats()
        #: push hops each update had taken when it reached this node,
        #: per origin and only for origins a cascade delivered from
        #: (client writes and session arrivals are depth 0 by absence).
        self._push_depth: Dict[int, _OriginDepths] = {}
        server.on_new_updates(self.on_new_updates)
        # Evict push bookkeeping in lock-step with log truncation: a
        # purged uid can never be offered again (WriteLog.has() keeps
        # answering True for it, so integrate() never reports it as
        # new), so dropping its state is trace-identical and bounds
        # _push_depth by live log size.
        server.log.on_purge(self._on_log_purge)

    # -- push side ---------------------------------------------------------

    def on_new_updates(
        self, new_updates: List[Update], source: str, sender: Optional[int]
    ) -> None:
        """Step 13: immediately offer fresh updates to chosen targets."""
        if not new_updates:
            return
        targets = self._choose_targets(sender)
        if not targets:
            return
        # A fresh cascade (depth 0) starts here unless the batch is one
        # fast payload, whose new updates _handle_payload recorded, all
        # at that payload's depth.
        depth = self._depth_of(new_updates[0].uid) if source == "fast" else 0
        # Each update goes to each target once: the log reports an
        # update as new once per replica, and the targets are distinct.
        # Offers are immutable, so they all carry one entries tuple.
        entries = tuple([(update.uid, update.timestamp) for update in new_updates])
        for target in targets:
            self._offer(target, entries, depth)

    def _choose_targets(self, sender: Optional[int]) -> List[int]:
        ranking = self.ranking
        order = ranking.rank(self.transport.physical_neighbors(self.node))
        config = self.config
        if config.push_rule == PUSH_DOWNHILL:
            floor = self.own_demand()
        elif config.push_rule == PUSH_ALWAYS:
            floor = -inf
        else:
            raise ReplicationError(f"unknown push rule {config.push_rule!r}")
        fanout = config.fast_fanout
        targets = []
        for neighbor, demand in zip(order, ranking.demands):
            if demand <= floor:
                break  # the rest are lower still
            if neighbor != sender:
                targets.append(neighbor)
                if len(targets) == fanout:
                    break
        for extra in sorted(self.extra_targets):
            if extra != sender and extra not in targets:
                targets.append(extra)
        return targets

    def _offer(self, target: int, entries: tuple, depth: int) -> None:
        self.stats.offers_sent += 1
        trace = self.runtime.trace
        if trace.wants("fast.offer"):
            trace.record(
                self.runtime.now, "fast.offer", node=self.node, target=target, count=len(entries)
            )
        self.transport.send(
            self.node, target, FastUpdateOffer(self.node, entries, depth=depth)
        )

    def _depth_of(self, uid: UpdateId) -> int:
        """Push hops ``uid`` had taken when it reached this node."""
        origin, seq = uid
        depths = self._push_depth.get(origin)
        if depths is None:
            return 0
        at = seq - depths.first
        return depths[at] if 0 <= at < len(depths) else 0

    def _on_log_purge(self, purged_uids: List[UpdateId]) -> None:
        """Drop push state for writes truncated from the log.

        The uids come sorted and a purge takes an origin's oldest writes
        (every configurable policy does: timestamps grow with ``seq``),
        so nothing at or below an origin's last uid is live.
        """
        for origin, floor in dict(purged_uids).items():
            depths = self._push_depth.get(origin)
            if depths is not None and floor >= depths.first:
                del depths[: floor + 1 - depths.first]
                depths.first = floor + 1

    # -- receive side ---------------------------------------------------------
    # ReplicationNode's route table calls these leaf handlers directly.

    def _handle_offer(self, src: int, message: FastUpdateOffer) -> None:
        # Steps 14-15: answer YES with the ids we lack, else NO.
        self.stats.offers_received += 1
        has = self.server.log.has
        needed = tuple([uid for uid, _ in message.entries if not has(uid)])
        self.transport.send(self.node, src, FastUpdateReply(self.node, needed))

    def _handle_reply(self, src: int, message: FastUpdateReply) -> None:
        # Steps 16-18: send the bodies for YES, nothing for NO.
        if message.is_no:
            self.stats.replies_no += 1
            return
        self.stats.replies_yes += 1
        get = self.server.log.get
        depth_of = self._depth_of
        bodies = []
        depth = 0
        for uid in message.needed:
            try:
                bodies.append(get(uid))
            except ReplicationError:
                # Purged meanwhile; skip silently — anti-entropy will
                # repair.
                continue
            hops = depth_of(uid)
            if hops > depth:
                depth = hops
        if not bodies:
            return
        self.stats.payloads_sent += 1
        self.stats.updates_pushed += len(bodies)
        self.transport.send(
            self.node, src, FastUpdatePayload(self.node, tuple(bodies), depth=depth)
        )

    def _handle_payload(self, src: int, message: FastUpdatePayload) -> None:
        hops = message.depth + 1
        # Record cascade depth before integrating so the re-push
        # triggered inside integrate() sees the right value — and only
        # for updates the log does not know: a known one keeps the depth
        # it first arrived with, and one already purged has no state
        # left for a purge to evict.
        log = self.server.log
        for update in message.updates:
            if log.has(update.uid):
                continue
            depths = self._push_depth.get(update.origin)
            if depths is None:
                depths = self._push_depth[update.origin] = _OriginDepths()
                # Up to the summary tip everything is known already.
                depths.first = log.summary.get(update.origin) + 1
            at = update.seq - depths.first
            if at >= len(depths):
                depths.extend(bytes(at + 1 - len(depths)))
            depths[at] = min(hops, 255)
        new_updates = self.server.integrate(message.updates, "fast", sender=src)
        self.stats.updates_received += len(new_updates)
        if new_updates:
            self.stats.max_cascade_hops = max(self.stats.max_cascade_hops, hops)
            trace = self.runtime.trace
            if trace.wants("fast.deliver"):
                trace.record(
                    self.runtime.now,
                    "fast.deliver",
                    node=self.node,
                    src=src,
                    hops=hops,
                    count=len(new_updates),
                )
        # integrate() fires on_new_updates, which cascades the push
        # further downhill (the §2 valley flood) — no extra work here.

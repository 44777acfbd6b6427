"""The demand-driven replica autoscaler (closing the paper's loop).

The paper's premise is that demand should drive replication; this
controller closes the loop at system level. One node (the *home*, by
convention the write origin) runs a Dealer-style cycle:

1. **update popularity** — every site periodically reports its own
   demand to the home over real (metered) network messages; the
   controller smooths the reports with an EWMA;
2. **compute copy list** — a pluggable
   :class:`~repro.placement.policies.PlacementPolicy` maps popularity
   to a target number of extra copies per site;
3. **commit copies** — the home sends :class:`PlacementCommand`
   messages to sites whose target changed; on arrival the site spawns
   replicas through :meth:`ReplicationSystem.add_replica` (a real
   anti-entropy bootstrap against a donor chosen by the configured
   :class:`~repro.replica.creation.DonorSelectionPolicy`) or retires
   its most recent copies through
   :meth:`ReplicationSystem.retire_replica`.

Nothing here is free: reports and commands ride the network (overlay
links where home and site are not physically adjacent, with a delay
proportional to their hop distance), and every bootstrap pays full
anti-entropy message/byte cost. All iteration is in sorted order and
all ids derive from the base topology, so serial and process-pool runs
are bit-identical.

The control plane survives its own failures:

* every report and command carries a per-site sequence number — the
  controller drops stale reports (a reordered network must not roll
  popularity backwards) and sites apply each command seq at most once,
  re-acking duplicates without re-executing;
* unacknowledged commands are retried with exponential backoff (a
  lossy network eats the command or the ack; either way the retry is
  idempotent);
* the controller checkpoints its EWMA popularity and sequence state at
  the end of every cycle.  When its home node is crashed by a fault
  the volatile state is lost; on recovery the next cycle restores the
  checkpoint instead of re-learning demand from scratch — which is
  what keeps a controller crash mid-flash-crowd cheap.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..replica.creation import (
    DonorSelectionPolicy,
    FreshestDonor,
    MostCompleteLog,
    NearestDonor,
    WeightedDonorScore,
)
from ..core.system import ReplicationSystem
from ..demand.views import DemandTable
from ..topology.analysis import bfs_distances
from .messages import DemandReport, PlacementAck, PlacementCommand
from .policies import PlacementSetup, build_policy

#: A controller event: ``(time, kind, site, replica)`` with kind in
#: {"spawn", "retire"} — the raw material of the replica-count
#: trajectory and the capacity-aware satisfaction metric.
PlacementEvent = Tuple[float, str, int, int]

_DONORS = {
    "most-complete": MostCompleteLog,
    "nearest": NearestDonor,
    "freshest": FreshestDonor,
    "weighted": WeightedDonorScore,
}

#: How many of a site's physical neighbours join a spawn's attach set
#: (donor-selection candidates beyond the site itself).
ATTACH_NEIGHBORS = 2

#: First command-retry timeout, as a fraction of the cycle period;
#: doubles per attempt (exponential backoff).
COMMAND_RETRY_TIMEOUT_FACTOR = 0.5
#: Retries per command before giving up (the next cycle recomputes the
#: target anyway, so giving up is safe).
COMMAND_MAX_RETRIES = 4


class PlacementController:
    """Runs the placement loop on one :class:`ReplicationSystem`.

    Args:
        system: The system to autoscale (not yet started).
        setup: Placement knobs; ``setup.policy`` must name a control
            policy (``"static"`` setups never build a controller).
        home: Node hosting the controller (conventionally the write
            origin).
        sites: Sites observed and scaled (default: the base topology's
            nodes at construction time).
    """

    def __init__(
        self,
        system: ReplicationSystem,
        setup: PlacementSetup,
        home: int,
        sites: Optional[Sequence[int]] = None,
    ):
        setup.validate()
        self.system = system
        self.setup = setup
        self.home = int(home)
        source = system.topology.nodes if sites is None else sites
        self.sites: Tuple[int, ...] = tuple(sorted(int(s) for s in source))
        if self.home not in system.servers:
            raise ConfigurationError(f"home node {self.home} does not exist")
        for site in self.sites:
            if site not in system.servers:
                raise ConfigurationError(f"site {site} does not exist")
        self.policy = build_policy(setup)
        self.donor_policy: DonorSelectionPolicy = _DONORS[setup.donor]()
        #: Observed (reported) demand per site.
        self.table = DemandTable()
        #: EWMA-smoothed popularity per site.
        self.popularity: Dict[int, float] = {}
        #: Extra copies currently running per site (spawn order).
        self.copies: Dict[int, List[int]] = {s: [] for s in self.sites}
        #: Spawn/retire history, for metrics.
        self.events: List[PlacementEvent] = []
        self.cycles_run = 0
        self.reports_received = 0
        self.reports_stale = 0
        self.commands_sent = 0
        self.commands_retried = 0
        self.acks_received = 0
        self.crashes = 0
        self.restores = 0
        self.spawned_total = 0
        self.retired_total = 0
        self.peak_copies = 0
        self._next_id = max(system.topology.nodes) + 1
        self._started = False
        # -- sequencing state (see module docstring) ----------------------
        #: Per-site seq of the site's next demand report (site-side).
        self._report_seq: Dict[int, int] = {}
        #: Newest report seq folded per site (controller-side).
        self._last_report_seq: Dict[int, int] = {}
        #: Seq of the last command issued per site (controller-side).
        self._cmd_seq: Dict[int, int] = {}
        #: Seq of the last command *applied* per site (site-side).
        self._site_applied_seq: Dict[int, int] = {}
        #: site -> unacknowledged command seq (retry loop watches this).
        self._outstanding: Dict[int, int] = {}
        # -- crash / checkpoint state -------------------------------------
        self._crashed = False
        #: Durable snapshot written at the end of each cycle; what a
        #: recovering controller resumes from.
        self._checkpoint: Optional[Dict[str, Dict[int, object]]] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Wire handlers, overlay links, reporters, and the first cycle."""
        if self._started:
            raise ConfigurationError("placement controller already started")
        self._started = True
        runtime = self.system.runtime
        network = self.system.network
        topology = self.system.topology
        hops = bfs_distances(topology, self.home)
        link_delay = self.system.config.link_delay
        self.system.nodes[self.home].route(DemandReport, self._handle_report)
        self.system.nodes[self.home].route(PlacementAck, self._handle_ack)
        for site in self.sites:
            self.system.nodes[site].route(PlacementCommand, self._handle_command)
            if site == self.home:
                continue
            if not topology.has_edge(site, self.home):
                # Multi-hop control tunnel: delay grows with distance,
                # so far-away sites observe and react later.
                network.add_overlay_link(
                    self.home, site, link_delay * max(1, hops.get(site, 1))
                )
            rng = runtime.rng.stream("placement-report", site)
            first = rng.uniform(0, self.setup.report_period)
            runtime.schedule_fast(first, self._report_round, site)
        runtime.schedule_fast(self.setup.cycle_period, self._cycle)

    # -- observation (Dealer step 1: update popularity) --------------------

    def _report_round(self, site: int) -> None:
        runtime = self.system.runtime
        runtime.schedule_fast(self.setup.report_period, self._report_round, site)
        value = self.system.demand.demand(site, runtime.now)
        seq = self._report_seq.get(site, 0) + 1
        self._report_seq[site] = seq
        self.system.network.send(site, self.home, DemandReport(site, value, seq))

    def _handle_report(self, src: int, message: DemandReport) -> None:
        if message.seq <= self._last_report_seq.get(message.sender, 0):
            # A reordered (or duplicated) late report: the belief we
            # hold is newer, keep it.
            self.reports_stale += 1
            return
        self._last_report_seq[message.sender] = message.seq
        self.reports_received += 1
        self.table.update(message.sender, message.value, self.system.runtime.now)

    # -- the cycle ---------------------------------------------------------

    def _cycle(self) -> None:
        runtime = self.system.runtime
        runtime.schedule_fast(self.setup.cycle_period, self._cycle)
        if not self.system.network.links.node_is_up(self.home):
            # The controller's host is crashed by a fault: it can run
            # nothing this cycle, and the crash loses every volatile
            # structure — only the checkpoint survives.
            if not self._crashed:
                self._crashed = True
                self.crashes += 1
                self.popularity = {}
                self.table = DemandTable()
                self._outstanding = {}
                self._last_report_seq = {}
                self._cmd_seq = {}
            return
        if self._crashed:
            self._crashed = False
            self.restores += 1
            self._restore_checkpoint()
        now = runtime.now
        alpha = self.setup.ewma_alpha
        for site in self.sites:
            if site == self.home:
                # The home observes its own demand directly.
                raw = self.system.demand.demand(site, now)
            elif self.table.staleness(site, now) is None:
                continue  # nothing reported yet; keep the prior belief
            else:
                raw = self.table.believed(site)
            previous = self.popularity.get(site, raw)
            self.popularity[site] = alpha * raw + (1.0 - alpha) * previous
        committed = {site: len(self.copies[site]) for site in self.sites}
        targets = self.policy.targets(self.popularity, committed)
        for site in self.sites:
            target = max(0, min(self.setup.max_copies, targets.get(site, 0)))
            if target == committed[site]:
                continue
            if site == self.home:
                self._execute(site, target)
            else:
                self._send_command(site, target)
        self.cycles_run += 1
        self._write_checkpoint()

    def _write_checkpoint(self) -> None:
        """Durable end-of-cycle snapshot (EWMA beliefs + seq state)."""
        self._checkpoint = {
            "popularity": dict(self.popularity),
            "last_report_seq": dict(self._last_report_seq),
            "cmd_seq": dict(self._cmd_seq),
        }

    def _restore_checkpoint(self) -> None:
        """Resume from the last end-of-cycle snapshot after a crash."""
        checkpoint = self._checkpoint
        if checkpoint is None:
            return  # crashed before the first cycle: relearn from zero
        self.popularity = dict(checkpoint["popularity"])
        self._last_report_seq = dict(checkpoint["last_report_seq"])
        self._cmd_seq = dict(checkpoint["cmd_seq"])
        for site, applied in self._site_applied_seq.items():
            # Commands issued after the checkpoint may already have
            # been applied; a real deployment re-syncs seqs with a
            # status round on recovery, modelled here by advancing past
            # whatever the sites confirmed.
            if applied > self._cmd_seq.get(site, 0):
                self._cmd_seq[site] = applied

    # -- commitment (Dealer step 3: commit copies) -------------------------

    def _send_command(self, site: int, target: int) -> None:
        seq = self._cmd_seq.get(site, 0) + 1
        self._cmd_seq[site] = seq
        self._outstanding[site] = seq
        self.commands_sent += 1
        self.system.network.send(
            self.home, site, PlacementCommand(site, target, seq)
        )
        timeout = self.setup.cycle_period * COMMAND_RETRY_TIMEOUT_FACTOR
        self.system.runtime.schedule_fast(
            timeout, self._check_ack, site, seq, target, 1, timeout
        )

    def _check_ack(
        self, site: int, seq: int, target: int, attempt: int, timeout: float
    ) -> None:
        if self._outstanding.get(site) != seq:
            return  # acked, superseded, or lost to a controller crash
        if not self.system.network.links.node_is_up(self.home):
            return  # a crashed controller retries nothing
        if attempt > COMMAND_MAX_RETRIES:
            return  # give up: the next cycle recomputes the target
        self.commands_retried += 1
        self.system.network.send(
            self.home, site, PlacementCommand(site, target, seq)
        )
        backoff = timeout * 2.0
        self.system.runtime.schedule_fast(
            backoff, self._check_ack, site, seq, target, attempt + 1, backoff
        )

    def _handle_ack(self, src: int, message: PlacementAck) -> None:
        self.acks_received += 1
        if self._outstanding.get(message.site) == message.seq:
            del self._outstanding[message.site]

    def _handle_command(self, src: int, message: PlacementCommand) -> None:
        site = message.site
        if message.seq > self._site_applied_seq.get(site, 0):
            self._site_applied_seq[site] = message.seq
            self._execute(site, message.target)
        # Ack unconditionally — a duplicate means the first ack (or the
        # command's retry race) was lost, and the controller is waiting.
        self.system.network.send(
            site, self.home, PlacementAck(site, message.seq)
        )

    def _execute(self, site: int, target: int) -> None:
        system = self.system
        now = system.runtime.now
        target = max(0, min(self.setup.max_copies, int(target)))
        copies = self.copies[site]
        while len(copies) < target:
            new_id = self._next_id
            self._next_id += 1
            attach = [site] + sorted(
                n
                for n in system.topology.neighbors(site)
                if n not in system.retired
            )[:ATTACH_NEIGHBORS]
            system.add_replica(new_id, attach_to=attach, donor_policy=self.donor_policy)
            copies.append(new_id)
            self.events.append((now, "spawn", site, new_id))
            self.spawned_total += 1
        while len(copies) > target:
            victim = copies.pop()
            system.retire_replica(victim)
            self.events.append((now, "retire", site, victim))
            self.retired_total += 1
        self.peak_copies = max(self.peak_copies, self.total_copies())

    # -- introspection -----------------------------------------------------

    def total_copies(self) -> int:
        """Extra copies currently running across all sites."""
        return sum(len(v) for v in self.copies.values())

    def copy_count(self, site: int) -> int:
        return len(self.copies[site])

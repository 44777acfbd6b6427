"""The anti-entropy session agent (paper §2.1 steps 1-12).

Each node runs one :class:`AntiEntropyAgent`. At random intervals (mean
= one session time, the paper's unit) the agent picks a partner through
its :class:`~repro.core.policies.PartnerSelectionPolicy` and runs the
two-way summary-vector exchange as real simulator messages:

=====  =====================================================  =========
Steps  Paper text                                             Message
=====  =====================================================  =========
1-2    select neighbour, request session                      SessionRequest
3-4    partner sends its summary vector                       SummaryMessage (is_reply=False)
5-6    initiator sends its summary vector                     SummaryMessage (is_reply=True)
7-8    initiator sends messages partner lacks                 UpdateBatch
9-11   partner determines and sends missing messages          UpdateBatch
12     both ends integrate                                    —
=====  =====================================================  =========

Both directions always send a (possibly empty) closing batch so both
ends can account the session complete. Sessions time out (covering
message loss and crashed partners) and may be refused with BUSY when
``config.refuse_when_busy`` is on.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..errors import ReplicationError
from ..replica.log import KeepAll
from ..replica.messages import (
    SessionAbort,
    SessionBusy,
    SessionRequest,
    SummaryMessage,
    UpdateBatch,
)
from ..replica.server import ReplicaServer
from ..runtime.base import Runtime
from .config import INTERVAL_EXPONENTIAL, ProtocolConfig
from .policies import PartnerSelectionPolicy

ROLE_INITIATOR = "initiator"
ROLE_RESPONDER = "responder"


class SessionState:
    """Book-keeping for one in-flight session at one endpoint."""

    __slots__ = ("sid", "peer", "role", "started_at", "sent_batch",
                 "received_batch", "timeout_handle")

    def __init__(self, sid: int, peer: int, role: str, started_at: float):
        self.sid = sid
        self.peer = peer
        self.role = role
        self.started_at = started_at
        self.sent_batch = False
        self.received_batch = False
        self.timeout_handle: Optional[object] = None

    @property
    def complete(self) -> bool:
        return self.sent_batch and self.received_batch


class SessionStats:
    """Per-node session counters (all start at 0) surfaced in reports."""

    __slots__ = ("initiated", "completed_initiator", "completed_responder",
                 "refused_received", "refused_sent", "timeouts", "skipped_busy",
                 "skipped_no_partner", "updates_sent", "updates_received")

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    @property
    def completed(self) -> int:
        return self.completed_initiator + self.completed_responder


class AntiEntropyAgent:
    """Runs the weak-consistency part of the protocol at one node."""

    __slots__ = ("runtime", "transport", "server", "config", "policy",
                 "ack_manager", "node", "stats", "_sessions", "_initiating_sid",
                 "_session_counter", "_interval_rng", "_started", "_stopped")

    def __init__(
        self,
        runtime: Runtime,
        server: ReplicaServer,
        config: ProtocolConfig,
        policy: PartnerSelectionPolicy,
        ack_manager=None,
    ):
        self.runtime = runtime
        self.transport = runtime.transport
        self.server = server
        self.config = config
        self.policy = policy
        self.ack_manager = ack_manager
        self.node = server.node
        self.stats = SessionStats()
        self._sessions: Dict[int, SessionState] = {}
        self._initiating_sid: Optional[int] = None
        self._session_counter = 0
        self._interval_rng = runtime.rng.draws("session-interval", self.node)
        self._started = False
        self._stopped = False

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Schedule the first session initiation (random phase)."""
        if self._started:
            raise ReplicationError(f"agent for node {self.node} already started")
        self._started = True
        self.runtime.schedule_fast(self._draw_interval(), self._initiate)

    def stop(self) -> None:
        """Stop initiating sessions (replica retirement).

        The periodic timer chain dies at its next firing; in-flight
        sessions drain through their ordinary timeouts.
        """
        self._stopped = True

    def _draw_interval(self) -> float:
        mean = self.config.session_interval_mean
        if self.config.session_interval_distribution == INTERVAL_EXPONENTIAL:
            return self._interval_rng.expovariate(1.0 / mean)
        return self._interval_rng.uniform(0.5 * mean, 1.5 * mean)

    def _next_sid(self) -> int:
        self._session_counter += 1
        return self.node * 1_000_000 + self._session_counter

    # -- initiation --------------------------------------------------------

    def _initiate(self) -> None:
        if self._stopped:
            return
        # Keep the initiation rate steady no matter what happens below.
        # Never cancelled, so the handle-free fast path applies.
        self.runtime.schedule_fast(self._draw_interval(), self._initiate)
        if self._initiating_sid is not None:
            self.stats.skipped_busy += 1
            return
        neighbors = self.transport.physical_neighbors(self.node)
        partner = self.policy.select(neighbors)
        if partner is None:
            self.stats.skipped_no_partner += 1
            return
        self._begin_session(partner)

    def initiate_with(self, partner: int) -> bool:
        """Start a session with a specific partner right now.

        Used by replica bootstrap (a new node syncs with its chosen
        donor immediately) — the exchange runs through the ordinary
        message protocol. Returns False if the node is already
        initiating a session.
        """
        if self._initiating_sid is not None:
            self.stats.skipped_busy += 1
            return False
        if partner not in self.transport.neighbors(self.node):
            raise ReplicationError(
                f"node {self.node} cannot sync with non-neighbour {partner}"
            )
        self._begin_session(partner)
        return True

    def _begin_session(self, partner: int) -> None:
        sid = self._next_sid()
        state = SessionState(
            sid=sid, peer=partner, role=ROLE_INITIATOR, started_at=self.runtime.now
        )
        state.timeout_handle = self.runtime.schedule(
            self.config.session_timeout, self._timeout, sid
        )
        self._sessions[sid] = state
        self._initiating_sid = sid
        self.stats.initiated += 1
        trace = self.runtime.trace
        if trace.wants("session.start"):
            trace.record(
                self.runtime.now, "session.start", node=self.node, peer=partner, sid=sid
            )
        self.transport.send(self.node, partner, SessionRequest(sid, self.node))

    # -- message handling ------------------------------------------------------
    # ReplicationNode's route table calls these leaf handlers directly.

    def _handle_request(self, src: int, message: SessionRequest) -> None:
        if self.config.refuse_when_busy and self._sessions:
            self.stats.refused_sent += 1
            self.transport.send(self.node, src, SessionBusy(message.session_id, self.node))
            return
        state = SessionState(
            sid=message.session_id,
            peer=src,
            role=ROLE_RESPONDER,
            started_at=self.runtime.now,
        )
        state.timeout_handle = self.runtime.schedule(
            self.config.session_timeout, self._timeout, state.sid
        )
        self._sessions[state.sid] = state
        # Step 4: "B sends to E its summary vector."
        self.transport.send(
            self.node,
            src,
            SummaryMessage(
                state.sid,
                self.node,
                self.server.summary(),
                is_reply=False,
                ack_table=self._wire_acks(),
            ),
        )

    def _handle_busy(self, src: int, message: SessionBusy) -> None:
        state = self._sessions.get(message.session_id)
        if state is None or state.role != ROLE_INITIATOR:
            return
        self.stats.refused_received += 1
        self._close(state, completed=False)

    def _handle_abort(self, src: int, message: SessionAbort) -> None:
        self._abort(message.session_id, reason="peer-abort")

    def _handle_summary(self, src: int, message: SummaryMessage) -> None:
        state = self._sessions.get(message.session_id)
        if state is None or state.peer != src:
            return  # stale message from an aborted session
        if self.ack_manager is not None:
            self.ack_manager.observe_peer(src, message.summary, message.ack_table)
        if not self.server.log.can_serve(message.summary):
            # Aggressive truncation removed history this peer needs;
            # without a full-state transfer the session cannot proceed.
            self.transport.send(
                self.node, src, SessionAbort(state.sid, self.node, "log-truncated")
            )
            self._abort(state.sid, reason="log-truncated")
            return
        missing = self.server.missing_for(message.summary)
        if state.role == ROLE_INITIATOR and not message.is_reply:
            # Steps 5-8: send our summary, then everything the partner
            # has not seen, closing our direction.
            self.transport.send(
                self.node,
                src,
                SummaryMessage(
                    state.sid,
                    self.node,
                    self.server.summary(),
                    is_reply=True,
                    ack_table=self._wire_acks(),
                ),
            )
            self._send_batch(state, missing)
        elif state.role == ROLE_RESPONDER and message.is_reply:
            # Steps 9-11: the responder sends what the initiator lacks.
            self._send_batch(state, missing)
        else:
            return
        self._maybe_finish(state)

    def _wire_acks(self):
        if self.ack_manager is None:
            return None
        return self.ack_manager.wire_table()

    def _send_batch(self, state: SessionState, missing) -> None:
        self.stats.updates_sent += len(missing)
        self.transport.send(
            self.node,
            state.peer,
            UpdateBatch(state.sid, self.node, tuple(missing), closing=True),
        )
        state.sent_batch = True

    def _handle_batch(self, src: int, message: UpdateBatch) -> None:
        state = self._sessions.get(message.session_id)
        if state is None or state.peer != src:
            return
        if message.updates:  # most closing batches are empty: nothing to integrate
            new_updates = self.server.integrate(message.updates, "session", sender=src)
            self.stats.updates_received += len(new_updates)
        if message.closing:
            state.received_batch = True
        self._maybe_finish(state)

    # -- completion / teardown ---------------------------------------------------

    def _maybe_finish(self, state: SessionState) -> None:
        if not state.complete:
            return
        if state.role == ROLE_INITIATOR:
            self.stats.completed_initiator += 1
        else:
            self.stats.completed_responder += 1
        trace = self.runtime.trace
        if trace.wants("session.end"):
            trace.record(
                self.runtime.now,
                "session.end",
                node=self.node,
                peer=state.peer,
                sid=state.sid,
                role=state.role,
            )
        self._close(state, completed=True)
        if self.ack_manager is not None:
            self.ack_manager.after_session()
        elif not isinstance(self.server.log.policy, KeepAll):
            self.server.log.purge()

    def _close(self, state: SessionState, completed: bool) -> None:
        if state.timeout_handle is not None:
            self.runtime.cancel(state.timeout_handle)
            state.timeout_handle = None
        self._sessions.pop(state.sid, None)
        if self._initiating_sid == state.sid:
            self._initiating_sid = None

    def _timeout(self, sid: int) -> None:
        self._abort(sid, reason="timeout")

    def _abort(self, sid: int, reason: str) -> None:
        state = self._sessions.get(sid)
        if state is None:
            return
        self.stats.timeouts += 1
        trace = self.runtime.trace
        if trace.wants("session.abort"):
            trace.record(
                self.runtime.now,
                "session.abort",
                node=self.node,
                peer=state.peer,
                sid=sid,
                reason=reason,
            )
        self._close(state, completed=False)

    # -- introspection ----------------------------------------------------------

    @property
    def active_sessions(self) -> int:
        return len(self._sessions)

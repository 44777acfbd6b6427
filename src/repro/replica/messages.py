"""Wire messages of the replication protocols, with byte accounting.

Message sizes matter: the paper's conclusion claims the algorithm
"requires few additional bytes in the exchange of messages between
replicas", and the overhead benchmark verifies that claim against
measured traffic. Sizes follow a simple fixed-framing model:
``HEADER_BYTES`` of addressing/type per message plus the payload items
(summary-vector entries, update headers + payloads, offer entries).

The message classes map onto the paper's §2.1 algorithm:

* steps 2-3: :class:`SessionRequest` (and :class:`SessionBusy` when the
  partner refuses),
* steps 4-6: :class:`SummaryMessage`,
* steps 8-12: :class:`UpdateBatch`,
* step 13-14: :class:`FastUpdateOffer` ("information (id and timestamp)
  of new arrived messages"),
* steps 15-16: :class:`FastUpdateReply` (YES with the needed ids / NO),
* step 17: :class:`FastUpdatePayload`.

Each message is a :class:`typing.NamedTuple`: immutable, without a
``__dict__``, and the cheapest value to build, hold and pickle — every
write is copied to every replica, in several messages per hop. Equality
is therefore tuple equality and does not look at the type:
``SessionRequest(1, 2) == SessionBusy(1, 2)``. Nothing compares, hashes
or collects messages of different types; receivers dispatch on the class.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple

from .log import Update, UpdateId
from .timestamps import Timestamp
from .versions import SummaryVector

#: Fixed framing per message: source/destination, type tag, session id.
HEADER_BYTES = 20

#: One (origin, seq, timestamp) entry in a fast-update offer.
OFFER_ENTRY_BYTES = 24

#: One (origin, seq) entry in a fast-update reply.
REPLY_ENTRY_BYTES = 16


class SessionRequest(NamedTuple):
    """Step 2: ask a neighbour to start an anti-entropy session."""

    session_id: int
    initiator: int

    kind = "session-request"

    def size_bytes(self) -> int:
        return HEADER_BYTES


class SessionBusy(NamedTuple):
    """Partner refusal (it is already in a session); initiator moves on."""

    session_id: int
    sender: int

    kind = "session-busy"

    def size_bytes(self) -> int:
        return HEADER_BYTES


class SummaryMessage(NamedTuple):
    """Steps 4-6: a replica's summary vector.

    ``is_reply`` distinguishes the responder's summary (step 4) from the
    initiator's (step 6) so the state machine stays explicit.

    ``ack_table`` optionally piggybacks the sender's acknowledgement
    table (Golding's log-truncation machinery; see
    :mod:`repro.core.acking`) — its bytes are accounted too.
    """

    session_id: int
    sender: int
    summary: SummaryVector
    is_reply: bool
    ack_table: object = None  # Optional[repro.replica.acks.AckTable]

    kind = "summary"

    def size_bytes(self) -> int:
        size = HEADER_BYTES + self.summary.size_bytes()
        if self.ack_table is not None:
            size += self.ack_table.size_bytes()
        return size


class UpdateBatch(NamedTuple):
    """Steps 8 and 11: the writes the partner has not seen.

    ``closing`` marks the last batch of a session so both ends can
    account the session finished.
    """

    session_id: int
    sender: int
    updates: Tuple[Update, ...]
    closing: bool = False

    kind = "update-batch"

    def size_bytes(self) -> int:
        return HEADER_BYTES + sum(u.size_bytes() for u in self.updates)


class SessionAbort(NamedTuple):
    """Sent when a session times out or cannot be served."""

    session_id: int
    sender: int
    reason: str = ""

    kind = "session-abort"

    def size_bytes(self) -> int:
        return HEADER_BYTES + len(self.reason)


class FastUpdateOffer(NamedTuple):
    """Step 13: "id and timestamp of new arrived messages".

    Note that fast-update exchanges carry *no summary vectors* — that is
    the point of the optimisation (§2.1: "Note that in fast update
    sessions the summary vectors are not exchanged").

    ``depth`` counts push hops since the triggering event (0 = offered
    directly by the origin of the write); it costs one byte on the wire
    and lets experiments measure how deep the §2 "valley flooding"
    cascades run.
    """

    sender: int
    entries: Tuple[Tuple[UpdateId, Timestamp], ...]
    depth: int = 0

    kind = "fast-offer"

    def size_bytes(self) -> int:
        return HEADER_BYTES + 1 + OFFER_ENTRY_BYTES * len(self.entries)

    def ids(self) -> Tuple[UpdateId, ...]:
        return tuple(uid for uid, _ in self.entries)


class FastUpdateReply(NamedTuple):
    """Steps 15-16: YES with the ids still needed, or NO (empty).

    The paper's reply is a whole-offer YES/NO; replying per-id is the
    natural generalisation when an offer carries several writes and
    avoids resending known ones. An empty ``needed`` is exactly the
    paper's NO.
    """

    sender: int
    needed: Tuple[UpdateId, ...]

    kind = "fast-reply"

    def size_bytes(self) -> int:
        return HEADER_BYTES + REPLY_ENTRY_BYTES * len(self.needed)

    @property
    def is_no(self) -> bool:
        return not self.needed


class FastUpdatePayload(NamedTuple):
    """Step 17: the update bodies the partner said YES to."""

    sender: int
    updates: Tuple[Update, ...]
    depth: int = 0

    kind = "fast-payload"

    def size_bytes(self) -> int:
        return HEADER_BYTES + 1 + sum(u.size_bytes() for u in self.updates)


#: Message kinds that belong to the weak-consistency part (steps 1-12).
SESSION_KINDS = frozenset(
    {"session-request", "session-busy", "summary", "update-batch", "session-abort"}
)

#: Message kinds added by the fast-update optimisation (steps 13-18).
FAST_KINDS = frozenset({"fast-offer", "fast-reply", "fast-payload"})


def traffic_split(by_kind: Dict[str, int]) -> Dict[str, int]:
    """Partition per-kind counters into session/fast/other groups."""
    groups = {"session": 0, "fast": 0, "other": 0}
    for kind, count in by_kind.items():
        if kind in SESSION_KINDS:
            groups["session"] += count
        elif kind in FAST_KINDS:
            groups["fast"] += count
        else:
            groups["other"] += count
    return groups

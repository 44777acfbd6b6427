"""Wire messages of the placement control loop.

Placement is never free: demand observations flow from every site to
the controller's home node and copy-list commits flow back as real
network messages, metered by kind so experiments can read the control
loop's traffic overhead directly from
``Network.counters.bytes_by_kind`` (``"placement-report"`` /
``"placement-cmd"`` / ``"placement-ack"``).

Every message carries a per-site sequence number (packed into the
framing header, so it costs no extra metered bytes): receivers drop
stale reports, apply commands idempotently, and re-ack duplicates —
which is what lets the controller retry unacknowledged commands over a
lossy, reordering network without double-spawning replicas.

Like the replication messages (:mod:`repro.replica.messages`) each is a
:class:`typing.NamedTuple`, so equality does not look at the type:
``PlacementAck(3, 1) == (3, 1)``. Receivers dispatch on the class and
never compare messages of different types.
"""

from __future__ import annotations

from typing import NamedTuple

#: Bytes of framing per control message (addresses, type tag, seq).
CONTROL_HEADER_BYTES = 20
#: One float64 (report value) / one int64 (command target).
CONTROL_VALUE_BYTES = 8


class DemandReport(NamedTuple):
    """Site -> controller: ``sender`` currently serves ``value`` req/unit.

    ``seq`` increases per sender; the controller keeps only the newest
    observation (a reordered late report must not overwrite it).
    """

    sender: int
    value: float
    seq: int = 0

    kind = "placement-report"

    def size_bytes(self) -> int:
        return CONTROL_HEADER_BYTES + CONTROL_VALUE_BYTES


class PlacementCommand(NamedTuple):
    """Controller -> site: run ``target`` extra copies for ``site``.

    ``seq`` increases per site; a site applies each seq at most once
    (retries and duplicated frames re-ack without re-executing).
    """

    site: int
    target: int
    seq: int = 0

    kind = "placement-cmd"

    def size_bytes(self) -> int:
        return CONTROL_HEADER_BYTES + CONTROL_VALUE_BYTES


class PlacementAck(NamedTuple):
    """Site -> controller: command ``seq`` for ``site`` took effect."""

    site: int
    seq: int = 0

    kind = "placement-ack"

    def size_bytes(self) -> int:
        return CONTROL_HEADER_BYTES + CONTROL_VALUE_BYTES

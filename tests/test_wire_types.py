"""Every value that crosses ``Channel.send`` is a plain immutable value.

The fifteen wire messages are ``NamedTuple``s and the per-write records
they carry, ``Update`` and ``Timestamp``, are slotted classes. For each,
one sample:

* comes back from a TCP frame equal and of the same type;
* refuses a field assignment and has no ``__dict__``;
* meters the bytes it metered as a frozen dataclass (``size_bytes()``
  drives ``bytes_sent``), in a frame no longer than it was then.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.strong import StrongAck, StrongCommit, StrongPrepare
from repro.demand.advertisement import DemandAdvert
from repro.placement.messages import DemandReport, PlacementAck, PlacementCommand
from repro.replica.log import Update
from repro.replica.messages import (
    FastUpdateOffer,
    FastUpdatePayload,
    FastUpdateReply,
    SessionAbort,
    SessionBusy,
    SessionRequest,
    SummaryMessage,
    UpdateBatch,
)
from repro.replica.timestamps import Timestamp
from repro.replica.versions import SummaryVector
from repro.runtime.tcp import FrameDecoder, encode_frame

TS = Timestamp(7, 3)
UPDATE = Update(origin=3, seq=2, timestamp=TS, key="key-07", value="v" * 32)

#: (sample, a field, size_bytes(), len(encode_frame(("msg", 1, 2, sample))))
#: with the last two as they were while every type was a frozen dataclass.
SAMPLES = [
    (SessionRequest(5, 1), "session_id", 20, 114),
    (SessionBusy(5, 2), "sender", 20, 108),
    (SummaryMessage(5, 1, SummaryVector({0: 3, 2: 1}), True), "summary", 52, 205),
    (UpdateBatch(5, 1, (UPDATE,), closing=True), "updates", 318, 348),
    (SessionAbort(5, 1, "log-truncated"), "reason", 33, 134),
    (FastUpdateOffer(1, (((3, 2), TS),), depth=2), "entries", 45, 197),
    (FastUpdateReply(2, ((3, 2),)), "needed", 36, 114),
    (FastUpdatePayload(1, (UPDATE,), depth=2), "depth", 319, 338),
    (DemandAdvert(4, 2.5), "value", 28, 115),
    (DemandReport(4, 2.5, seq=3), "seq", 28, 121),
    (PlacementCommand(4, 2, seq=3), "target", 28, 117),
    (PlacementAck(4, seq=3), "site", 28, 102),
    (StrongPrepare(9, UPDATE), "update", 318, 318),
    (StrongAck(9, 4), "write_id", 20, 99),
    (StrongCommit(9), "write_id", 20, 90),
    (UPDATE, "seq", 298, 250),
    (TS, "counter", None, 103),
]

wire_samples = pytest.mark.parametrize(
    "sample, field, size, frame_len",
    SAMPLES,
    ids=[type(sample).__name__ for sample, *_ in SAMPLES],
)


@wire_samples
def test_round_trips_through_a_frame(sample, field, size, frame_len):
    (decoded,) = FrameDecoder().feed(encode_frame(sample))
    assert type(decoded) is type(sample)
    assert decoded == sample
    assert repr(decoded) == repr(sample)


@wire_samples
def test_is_immutable(sample, field, size, frame_len):
    before = getattr(sample, field)
    with pytest.raises(AttributeError):
        setattr(sample, field, 0)
    assert getattr(sample, field) is before


@wire_samples
def test_has_no_dict(sample, field, size, frame_len):
    assert not hasattr(sample, "__dict__")
    assert not dataclasses.is_dataclass(sample)


@wire_samples
def test_meters_the_same_bytes_in_no_bigger_a_frame(sample, field, size, frame_len):
    if size is not None:
        assert sample.size_bytes() == size
    assert len(encode_frame(("msg", 1, 2, sample))) <= frame_len


def test_the_samples_cover_every_message_type_once():
    assert len({type(sample) for sample, *_ in SAMPLES}) == len(SAMPLES) == 17

"""Wire-codec replay: what one frame costs to encode and decode.

``live-tcp``'s node processes are not traced, so the codec's share of
the put path is measured here instead: a seeded corpus of the frames a
TCP cluster really exchanges (every ``replica/messages.py`` type inside
a ``("msg", src, dst, message)`` envelope, plus the hub's ``call`` /
``reply`` / ``applied`` control frames) goes through ``encode_frame``
and ``FrameDecoder.feed``.  A wire-format change moves these numbers
and ``live-tcp``'s end-to-end metrics, and nothing on ``live-queue``.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter_ns
from typing import Dict, List

from repro.replica.log import Update
from repro.replica.messages import (
    FastUpdateOffer,
    FastUpdatePayload,
    FastUpdateReply,
    SessionRequest,
    SummaryMessage,
    UpdateBatch,
)
from repro.replica.timestamps import Timestamp
from repro.replica.versions import SummaryVector
from repro.runtime.tcp import FrameDecoder, encode_frame

from workloads import VALUE_BYTES

CORPUS_FRAMES = 2000
REPEATS = 7
_CHUNK = 65536


def build_corpus(seed: int, nodes: int = 4) -> List[object]:
    """``CORPUS_FRAMES`` payloads in the mix a put-heavy cluster sends."""
    rng = random.Random(seed)

    def update() -> Update:
        origin = rng.randrange(nodes)
        return Update(
            origin=origin,
            seq=rng.randrange(1, 5000),
            timestamp=Timestamp(rng.randrange(1, 20000), origin),
            key=f"key-{rng.randrange(64):02d}",
            value="".join(rng.choice("abcdefgh") for _ in range(VALUE_BYTES)),
        )

    def message(kind: int) -> object:
        sender = rng.randrange(nodes)
        if kind == 0:
            one = update()
            return FastUpdateOffer(sender, ((one.uid, one.timestamp),))
        if kind == 1:
            return FastUpdateReply(sender, (update().uid,))
        if kind == 2:
            return FastUpdatePayload(sender, (update(),))
        if kind == 3:
            return SessionRequest(rng.randrange(1, 10**6), sender)
        if kind == 4:
            summary = SummaryVector(
                {node: rng.randrange(1, 5000) for node in range(nodes)}
            )
            return SummaryMessage(rng.randrange(1, 10**6), sender, summary, True)
        batch = tuple(update() for _ in range(rng.randrange(1, 6)))
        return UpdateBatch(rng.randrange(1, 10**6), sender, batch, closing=True)

    corpus: List[object] = []
    for index in range(CORPUS_FRAMES):
        slot = index % 10
        if slot < 6:
            src, dst = rng.sample(range(nodes), 2)
            corpus.append(("msg", src, dst, message(slot)))
        elif slot == 6:
            one = update()
            corpus.append(("call", index, "put", (one.key, one.value)))
        elif slot == 7:
            corpus.append(("reply", index, True, (update(), rng.random() * 1e4)))
        elif slot == 8:
            corpus.append(("call", index, "read", (f"key-{rng.randrange(64):02d}",)))
        else:
            pairs = [(update().uid, rng.random() * 1e4)]
            corpus.append(("applied", rng.randrange(nodes), pairs))
    return corpus


def replay(seed: int) -> Dict[str, float]:
    """Median per-frame encode and decode cost over ``REPEATS`` passes."""
    corpus = build_corpus(seed)
    encode_ns: List[float] = []
    decode_ns: List[float] = []
    decoded = 0
    wire = b""
    for _ in range(REPEATS):
        t0 = perf_counter_ns()
        frames = [encode_frame(payload) for payload in corpus]
        t1 = perf_counter_ns()
        wire = b"".join(frames)
        decoder = FrameDecoder()
        decoded = 0
        t2 = perf_counter_ns()
        for start in range(0, len(wire), _CHUNK):
            decoded += len(decoder.feed(wire[start : start + _CHUNK]))
        t3 = perf_counter_ns()
        encode_ns.append((t1 - t0) / len(corpus))
        decode_ns.append((t3 - t2) / len(corpus))
    return {
        "runtime.tcp.encode_ns_per_frame": statistics.median(encode_ns),
        "runtime.tcp.decode_ns_per_frame": statistics.median(decode_ns),
        "runtime.tcp.bytes_per_frame": len(wire) / len(corpus),
        "frames_lost": len(corpus) - decoded,
    }

"""Deterministic random-number streams.

A simulation draws randomness from many logically independent sources:
session timers on every node, link jitter, workload arrivals, topology
generation... Sharing one ``random.Random`` couples them, so adding a
draw in one component perturbs every other component and breaks
run-to-run comparisons between protocol variants.

:class:`RngRegistry` derives an independent, reproducible
``random.Random`` per *named stream* from a single master seed. Stream
seeds are derived with SHA-256, so they are stable across processes and
Python versions (unlike ``hash()``).

Use :meth:`RngRegistry.stream`, the cached 2.5 KB ``random.Random``, for
``choice`` and variable-length draws; use :meth:`RngRegistry.draws` (a
0.4 KB :class:`DrawStream`: ``random``, ``uniform``, ``expovariate``,
the same values) for a stream every replica holds, like its session timer.
"""

from __future__ import annotations

import hashlib
import random
from array import array
from math import log
from typing import Dict, Iterable, Optional, Tuple

CHUNK = 32  # random() values a DrawStream precomputes


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a stable 64-bit seed for ``name`` from ``master_seed``."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class DrawStream:
    """``Random(seed)``'s first ``CHUNK`` ``random()`` values in an array;
    past them the generator is rebuilt once, skipped over the chunk (a
    ``random()`` is two 32-bit words) and kept, the chunk dropped.
    ``uniform`` and ``expovariate`` are CPython's formulas over one
    ``random()``, so every value equals ``Random(seed)``'s, bit for bit."""

    __slots__ = ("_seed", "_chunk", "_at", "_rng")

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self._seed = seed
        self._chunk: Optional[array] = array("d", [rng.random() for _ in range(CHUNK)])
        self._at = 0
        self._rng: Optional[random.Random] = None

    def random(self) -> float:
        at = self._at
        if at < CHUNK:
            self._at = at + 1
            return self._chunk[at]
        if self._rng is None:
            self._rng = random.Random(self._seed)
            self._rng.getrandbits(64 * CHUNK)
            self._chunk = None
        return self._rng.random()

    def uniform(self, a: float, b: float) -> float:
        return a + (b - a) * self.random()

    def expovariate(self, lambd: float) -> float:
        return -log(1.0 - self.random()) / lambd


class RngRegistry:
    """Factory and cache of named, independently seeded RNG streams.

    Example:
        >>> rngs = RngRegistry(42)
        >>> a = rngs.stream("sessions", 3)   # node 3's session timer
        >>> b = rngs.stream("sessions", 4)
        >>> a is rngs.stream("sessions", 3)  # streams are cached
        True
    """

    def __init__(self, master_seed: int = 0):
        self.master_seed = int(master_seed)
        self._streams: Dict[str, random.Random] = {}

    @staticmethod
    def _key(parts: Tuple[object, ...]) -> str:
        if not parts:
            raise ValueError("stream name must not be empty")
        return "/".join(str(p) for p in parts)

    def stream(self, *name_parts: object) -> random.Random:
        """Return the (cached) RNG for the stream named by ``name_parts``."""
        key = self._key(name_parts)
        rng = self._streams.get(key)
        if rng is None:
            rng = random.Random(derive_seed(self.master_seed, key))
            self._streams[key] = rng
        return rng

    def draws(self, *name_parts: object) -> DrawStream:
        """A fresh, uncached replay of what :meth:`stream` would return:
        each call starts at the first value, so its one caller holds it."""
        return DrawStream(derive_seed(self.master_seed, self._key(name_parts)))

    def spawn(self, *name_parts: object) -> "RngRegistry":
        """Return a child registry whose master seed derives from this one.

        Useful for experiment repetitions: repetition *i* gets
        ``registry.spawn('rep', i)`` so reps are independent but the
        whole experiment is reproducible.
        """
        key = self._key(name_parts) if name_parts else "spawn"
        return RngRegistry(derive_seed(self.master_seed, key))

    def stream_names(self) -> Iterable[str]:
        """Names of all streams created so far (for diagnostics)."""
        return tuple(self._streams)

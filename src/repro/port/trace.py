"""Structured tracing, hosted by every runtime.

A :class:`Tracer` collects :class:`TraceRecord` rows (time, category,
free-form fields). Tracing is the debugging backbone of the simulator:
protocol agents record session starts, message deliveries, fast-update
offers, and so on. Categories can be enabled selectively so that large
experiments pay nothing for tracing they do not use.

Hot callers (the network delivery loop, the session and fast-update
agents) guard their ``record`` calls with :meth:`Tracer.wants` so that
a disabled or filtered-out category costs neither a kwargs dict nor a
:class:`TraceRecord` allocation — ``wants`` is one attribute check for
a disabled tracer and one memoised dict lookup for a filtered one.
"""

from __future__ import annotations

import io
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set


class TraceRecord:
    """One traced occurrence.

    Attributes:
        time: Simulated time of the occurrence.
        category: Dotted category name, e.g. ``"session.start"``.
        fields: Category-specific payload (node ids, message kinds...).

    ``__slots__`` matters: large runs allocate one record per traced
    event, and dropping the per-instance dict measurably shrinks both
    memory and allocation time.
    """

    __slots__ = ("time", "category", "fields")

    def __init__(
        self,
        time: float,
        category: str,
        fields: Optional[Dict[str, object]] = None,
    ):
        self.time = time
        self.category = category
        self.fields: Dict[str, object] = {} if fields is None else fields

    def get(self, key: str, default: object = None) -> object:
        """Return ``fields[key]`` or ``default``."""
        return self.fields.get(key, default)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return (
            self.time == other.time
            and self.category == other.category
            and self.fields == other.fields
        )

    def __repr__(self) -> str:
        return (
            f"TraceRecord(time={self.time!r}, category={self.category!r}, "
            f"fields={self.fields!r})"
        )


class Tracer:
    """Collects trace records, with per-category enablement.

    By default every category is enabled. Call :meth:`enable_only` to
    restrict tracing, or :meth:`disable` to turn it off wholesale.
    Callbacks registered with :meth:`on_record` observe records as they
    are appended (metrics use this to avoid post-hoc scans).
    """

    def __init__(self, enabled: bool = True):
        self.records: List[TraceRecord] = []
        self._enabled = enabled
        self._categories: Optional[Set[str]] = None  # None = all
        self._listeners: List[Callable[[TraceRecord], None]] = []
        #: category -> verdict memo; filled lazily, cleared on reconfig
        self._wants_cache: Dict[str, bool] = {}
        #: category -> positions in ``records`` (select() never scans)
        self._index: Dict[str, List[int]] = {}

    # -- configuration ------------------------------------------------

    def disable(self) -> None:
        """Stop recording (listeners still do not fire)."""
        self._enabled = False

    def enable(self) -> None:
        """Resume recording every enabled category."""
        self._enabled = True

    def enable_only(self, categories: Iterable[str]) -> None:
        """Record only the given categories (prefix match on dots).

        ``enable_only(['session'])`` records ``session.start`` and
        ``session.end`` but not ``net.drop``.
        """
        self._enabled = True
        self._categories = set(categories)
        self._wants_cache.clear()

    def wants(self, category: str) -> bool:
        """Whether a record in ``category`` would currently be stored.

        Hot call sites check this before building their kwargs, so the
        answer must stay cheap: disabled short-circuits on one attribute
        and the filtered verdict is memoised per category.
        """
        if not self._enabled:
            return False
        categories = self._categories
        if categories is None:
            return True
        cached = self._wants_cache.get(category)
        if cached is None:
            # Prefix match: enabling "session" covers "session.start".
            cached = (
                category in categories
                or category.split(".", 1)[0] in categories
            )
            self._wants_cache[category] = cached
        return cached

    def on_record(self, listener: Callable[[TraceRecord], None]) -> None:
        """Register a callback invoked for every stored record."""
        self._listeners.append(listener)

    # -- recording ----------------------------------------------------

    def record(self, time: float, category: str, **fields: object) -> None:
        """Store one record if the category is enabled."""
        if not self.wants(category):
            return
        rec = TraceRecord(time, category, fields)
        records = self.records
        self._index.setdefault(category, []).append(len(records))
        records.append(rec)
        for listener in self._listeners:
            listener(rec)

    # -- querying -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def select(self, category: str) -> List[TraceRecord]:
        """All records whose category equals or is nested under ``category``.

        Served from the per-category index: only matching categories'
        positions are touched (merged back into insertion order), never
        the full record list.
        """
        prefix = category + "."
        matching = [
            positions
            for cat, positions in self._index.items()
            if cat == category or cat.startswith(prefix)
        ]
        if not matching:
            return []
        if len(matching) == 1:
            positions = matching[0]
        else:
            positions = sorted(pos for group in matching for pos in group)
        records = self.records
        return [records[pos] for pos in positions]

    def clear(self) -> None:
        """Drop all stored records (listeners stay registered)."""
        self.records.clear()
        self._index.clear()

    # -- export -------------------------------------------------------

    def to_csv(self) -> str:
        """Render all records as CSV text: time, category, fields.

        The fields cell is a JSON object (keys sorted, non-JSON values
        stringified), so the row shape stays a fixed three columns for
        header-driven consumers while values containing ``;``, ``=``,
        ``,``, quotes or newlines survive the round trip unambiguously.
        """
        import csv
        import json

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["time", "category", "fields"])
        for rec in self.records:
            packed = json.dumps(rec.fields, sort_keys=True, default=str)
            writer.writerow([f"{rec.time:.6f}", rec.category, packed])
        return buf.getvalue()

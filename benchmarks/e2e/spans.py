"""Span tracing installed from the benchmark, outside the program.

:func:`install` replaces functions at the program's layer boundaries
with ``perf_counter_ns`` wrappers *before* the system under test is
built, so every bound method the program captures at construction
(network handlers, the protocol's type-keyed dispatch dict, server
listeners) is already the wrapped one.  Nothing under ``src/`` knows
about it, and the untraced run never imports this module.

A span is ``(name, start, end, parent, op_id)``.  Spans nest per thread
(``parent`` is the enclosing span of the same thread); ``op_id`` ties a
client ``put`` on the generator thread to the ``local_write`` it caused
on the loop thread.  Rows live in flat ``array('q')`` buffers, five
integers per span, and are written out only at exit.

Self time of a span = its duration minus the durations of its direct
children.  Children of one parent never overlap (one thread, plain
calls), so the self times of everything under a root span sum to that
root's duration exactly.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
from array import array
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

_ROW = 5  # name id, start ns, end ns, parent row (-1), op id (-1)

#: ``(module, owner, attributes, span name, result hook)``.  ``owner``
#: is a class name, or ``None`` for a module-level function.  Several
#: attributes may share one span name: the protocol dispatches straight
#: to the agents' leaf handlers, which together are that agent's
#: ``on_message`` layer.  Result hooks: ``"op"`` reads the update id
#: off the returned ``Update``; ``"true"`` counts truthy results;
#: ``"len"`` adds up ``len(result)``.
TARGETS: Tuple[Tuple[str, Optional[str], Tuple[str, ...], str, Optional[str]], ...] = (
    ("repro.core.system", "ReplicationSystem", ("run_until",), "sim.engine", None),
    ("repro.sim.network", "Network", ("send",), "sim.network.send", None),
    ("repro.core.protocol", "ReplicationNode", ("on_message",),
     "core.protocol.on_message", None),
    ("repro.core.antientropy", "AntiEntropyAgent",
     ("_handle_request", "_handle_busy", "_handle_summary", "_handle_batch",
      "_handle_abort"), "core.antientropy.on_message", None),
    ("repro.core.antientropy", "AntiEntropyAgent", ("_initiate",),
     "core.antientropy.initiate", None),
    ("repro.core.fastupdate", "FastUpdateAgent",
     ("_handle_offer", "_handle_reply", "_handle_payload"),
     "core.fastupdate.on_message", None),
    ("repro.core.fastupdate", "FastUpdateAgent", ("on_new_updates",),
     "core.fastupdate.on_new_updates", None),
    ("repro.replica.server", "ReplicaServer", ("integrate",),
     "replica.server.integrate", None),
    ("repro.replica.server", "ReplicaServer", ("local_write",),
     "replica.server.local_write", "op"),
    ("repro.replica.log", "WriteLog", ("add",), "replica.log.add", "true"),
    ("repro.replica.log", "WriteLog", ("updates_since",),
     "replica.log.updates_since", None),
    ("repro.replica.store", "ContentStore", ("apply",), "replica.store.apply", None),
    ("repro.replica.workload", "ClientWorkload", ("_arrival",),
     "replica.workload.arrival", None),
    ("repro.runtime.cluster", "ReplicaCluster", ("put",), "runtime.cluster.put", "op"),
    ("repro.runtime.cluster", "ReplicaCluster", ("read",), "runtime.cluster.read", None),
    ("repro.runtime.live", "AsyncioTransport", ("send",), "runtime.live.send", None),
    ("repro.telemetry.sketch", "QuantileSketch", ("add",), "telemetry.sketch.add", None),
    # The hub's side of the wire (node processes are not patched).
    ("repro.runtime.cluster", None, ("encode_frame",), "runtime.tcp.hub_encode", None),
    ("repro.runtime.tcp", "FrameDecoder", ("feed",), "runtime.tcp.hub_decode", "len"),
)


def op_id_of(uid: Tuple[int, int]) -> int:
    """An update id ``(origin, seq)`` packed into one integer."""
    return (int(uid[0]) << 32) | int(uid[1])


class _ThreadRows:
    __slots__ = ("rows", "stack")

    def __init__(self) -> None:
        self.rows = array("q")
        self.stack: List[int] = []


class SpanRecorder:
    """In-memory span store with one row buffer per thread."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        #: Per name id: truthy results / summed ``len(result)``.
        self.result_counts: List[int] = []
        self._local = threading.local()
        self._threads: List[_ThreadRows] = []
        self._lock = threading.Lock()
        self.missing: List[str] = []
        self._restore: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.result_counts.append(0)
        return self._ids[name]

    def _thread_rows(self) -> _ThreadRows:
        mine = _ThreadRows()
        self._local.mine = mine
        with self._lock:
            self._threads.append(mine)
        return mine

    def wrap(self, fn: Callable, name: str, hook: Optional[str]) -> Callable:
        """``fn`` wrapped in a span called ``name``."""
        nid = self._name_id(name)
        local = self._local
        new_thread = self._thread_rows
        counts = self.result_counts
        clock = perf_counter_ns

        def traced(*args, **kwargs):
            try:
                mine = local.mine
            except AttributeError:
                mine = new_thread()
            rows, stack = mine.rows, mine.stack
            index = len(rows)
            rows.extend((nid, clock(), 0, stack[-1] if stack else -1, -1))
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    if hook == "op":
                        rows[index + 4] = op_id_of(result.uid)
                    elif hook == "true":
                        if result:
                            counts[nid] += 1
                    else:
                        counts[nid] += len(result)
                return result
            finally:
                rows[index + 2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Patch every target that exists; a missing one is listed in
        :attr:`missing` (its metrics then read 0) instead of failing, so
        a later rename inside the program cannot break the benchmark."""
        for module_name, owner_name, attributes, span_name, hook in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            owner = getattr(module, owner_name, None) if owner_name else module
            for attribute in attributes:
                original = getattr(owner, attribute, None) if owner else None
                if original is None:
                    where = f"{module_name}.{owner_name or ''}.{attribute}"
                    self.missing.append(where.replace("..", "."))
                    continue
                setattr(owner, attribute, self.wrap(original, span_name, hook))
                self._restore.append((owner, attribute, original))
        for where in self.missing:
            print(f"spans: no such function {where}", file=sys.stderr)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()

    # -- reading --------------------------------------------------------

    def span_count(self) -> int:
        return sum(len(t.rows) for t in self._threads) // _ROW

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total and self seconds, result count."""
        count = len(self.names)
        calls = [0] * count
        total = [0] * count
        self_ns = [0] * count
        for thread in self._threads:
            rows = thread.rows
            name_ids = rows[0::_ROW]
            for nid, start, end, parent in zip(
                name_ids, rows[1::_ROW], rows[2::_ROW], rows[3::_ROW]
            ):
                if not end:
                    continue
                duration = end - start
                calls[nid] += 1
                total[nid] += duration
                self_ns[nid] += duration
                if parent >= 0:
                    self_ns[name_ids[parent // _ROW]] -= duration
        return {
            name: {
                "calls": calls[nid],
                "total_s": total[nid] / 1e9,
                "self_s": self_ns[nid] / 1e9,
                "result_count": self.result_counts[nid],
            }
            for nid, name in enumerate(self.names)
        }

    def durations_by_op(self, name: str) -> Dict[int, int]:
        """Duration in ns of the ``name`` span of each op id."""
        nid = self._ids.get(name)
        out: Dict[int, int] = {}
        if nid is None:
            return out
        for thread in self._threads:
            rows = thread.rows
            for span_nid, start, end, op in zip(
                rows[0::_ROW], rows[1::_ROW], rows[2::_ROW], rows[4::_ROW]
            ):
                if span_nid == nid and end and op >= 0:
                    out[op] = end - start
        return out

    def write_jsonl(self, path: str) -> int:
        """One JSON object per span; ``parent`` is the ``id`` of the
        enclosing span of the same thread, or null."""
        written = 0
        with open(path, "w", encoding="utf-8") as out:
            for thread_index, thread in enumerate(self._threads):
                rows = thread.rows
                for row in range(0, len(rows), _ROW):
                    nid, start, end, parent, op = rows[row : row + _ROW]
                    if not end:
                        continue
                    out.write(
                        json.dumps(
                            {
                                "id": f"{thread_index}:{row // _ROW}",
                                "name": self.names[nid],
                                "start_ns": start,
                                "end_ns": end,
                                "parent": (
                                    None if parent < 0
                                    else f"{thread_index}:{parent // _ROW}"
                                ),
                                "op_id": None if op < 0 else op,
                            },
                            separators=(",", ":"),
                        )
                    )
                    out.write("\n")
                    written += 1
        return written

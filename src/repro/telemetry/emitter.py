"""Periodic newline-JSON snapshot emission for live registries.

A :class:`SnapshotEmitter` appends one self-contained JSON line per
call to a file (or any writable text stream): the registry snapshot
plus a wall-clock stamp and free-form context fields.  ``repro serve
--metrics-interval`` drives one from the cluster's event loop, so a
live cluster's telemetry trail uses exactly the same schema as the
campaign sidecar — one reader consumes both worlds.

Each line is flushed as written (crash-safe by construction, like the
campaign checkpoint); a consumer tails the file and JSON-parses each
line independently.  :class:`JsonLines` is the one reader of every
newline-JSON file in the repo — snapshot trails here, campaign
checkpoints in :mod:`repro.experiments.sink` — so all of them share one
torn-line rule.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, Iterator, Optional, TextIO, Union

from ..errors import ExperimentError
from .registry import MetricRegistry

__all__ = ["JsonLines", "SnapshotEmitter", "read_snapshots"]

PathLike = Union[str, Path]


class SnapshotEmitter:
    """Append registry snapshots as newline-JSON records.

    Args:
        registry: The registry to snapshot on each :meth:`emit`.
        path: File to append to (opened lazily, parents created).
        stream: Alternatively, an open text stream to write to; exactly
            one of ``path``/``stream`` must be given.
    """

    def __init__(
        self,
        registry: MetricRegistry,
        path: Optional[PathLike] = None,
        stream: Optional[TextIO] = None,
    ):
        if (path is None) == (stream is None):
            raise ExperimentError("pass exactly one of path= or stream=")
        self.registry = registry
        self.path = Path(path) if path is not None else None
        self._stream = stream
        self.emitted = 0

    def emit(self, **context: object) -> Dict[str, object]:
        """Write one snapshot line; returns the record written."""
        record: Dict[str, object] = {"t": time.time(), **context}
        record["telemetry"] = self.registry.snapshot()
        line = json.dumps(record, sort_keys=True)
        if self._stream is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._stream = self.path.open("a", encoding="utf-8")
        self._stream.write(line + "\n")
        self._stream.flush()
        self.emitted += 1
        return record

    def close(self) -> None:
        if self.path is not None and self._stream is not None:
            self._stream.close()
            self._stream = None

    def __enter__(self) -> "SnapshotEmitter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class JsonLines:
    """Stream the JSON objects of a newline-JSON file, one line at a time.

    A line that is not a JSON object — the truncated final line a killed
    (or still running) writer leaves, or any other damage — is *torn*:
    skipped and counted in :attr:`torn`, never raised.  Blank lines are
    neither yielded nor counted.  Memory stays one line whatever the
    file's length.
    """

    def __init__(self, path: PathLike):
        self.path = Path(path)
        self.torn = 0

    def __iter__(self) -> Iterator[Dict[str, object]]:
        with self.path.open("r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError:
                    row = None
                if isinstance(row, dict):
                    yield row
                else:
                    self.torn += 1


def read_snapshots(path: PathLike) -> Iterator[Dict[str, object]]:
    """Parse an emitted trail under the :class:`JsonLines` torn-line rule."""
    path = Path(path)
    if not path.exists():
        raise ExperimentError(f"no snapshot trail at {path}")
    yield from JsonLines(path)

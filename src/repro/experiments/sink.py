"""Streaming result sinks: JSON-lines checkpoints for long runs.

A *sink* receives every completed trial the moment the backend yields
it, instead of waiting for the whole grid to finish. The JSON-lines
format makes the checkpoint crash-safe by construction: each line is a
self-contained record, appended and flushed as it happens, so a killed
campaign keeps every trial that was yielded and recorded — what is
lost is the in-flight work the backend had not yielded yet (a process
pool yields per completed *chunk*, so up to one chunk per worker) plus
at most one truncated final line, which :class:`JsonLinesSink`
tolerates when it loads.

Records are keyed by the scenario's stable identity
(``plan/rep=../faults=../variant=..`` — see
:meth:`~repro.experiments.plan.ScenarioSpec.key`). A resumed run asks
the sink which keys are already recorded, skips them, and splices the
stored :class:`~repro.experiments.results.TrialResult` rows back into
the assembled result. Floats round-trip through ``repr`` exactly, so a
resumed result is bit-identical to an uninterrupted one.

The file optionally starts with a single *header* record describing the
campaign (name, per-plan totals); ``repro campaign status`` reads
progress from the file alone, and a resume refuses a checkpoint whose
header belongs to a different campaign.

:class:`StreamingSink` extends the checkpoint with **O(1)-memory
aggregates**: every recorded trial is folded into a
:class:`~repro.telemetry.registry.MetricRegistry` of per-series
counters, running moments and quantile sketches, and the registry is
checkpointed to a JSON *sidecar* next to the trial log.  Resume
restores the aggregates from the sidecar and folds only the trials
recorded past its watermark — no re-read of the whole log — and
:func:`stream_status` answers ``repro campaign status`` by streaming
the file line-by-line without materialising a single
:class:`TrialResult`, so both stay O(1) in trial count.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Protocol, Tuple, runtime_checkable

from ..errors import ExperimentError
from ..telemetry.registry import MetricRegistry
from .plan import series_label
from .results import PathLike, TrialResult

#: Sidecar document schema tag; bump on incompatible layout changes.
SIDECAR_SCHEMA = "repro-telemetry-sidecar/1"


@runtime_checkable
class ResultSink(Protocol):
    """Checkpoint protocol: record completed trials, replay them later."""

    def record(self, key: str, trial: TrialResult) -> None:
        """Persist one completed trial under its stable scenario key."""
        ...

    def get(self, key: str) -> Optional[TrialResult]:
        """Return the recorded trial for ``key``, or None."""
        ...


class JsonLinesSink:
    """Append-only JSON-lines checkpoint file.

    Existing records are loaded eagerly on construction, so ``get`` is a
    dict lookup and a resumed run never re-executes a recorded scenario.
    The file handle is opened lazily on the first ``record`` and every
    record is flushed immediately — an interrupted run keeps everything
    it completed.
    """

    def __init__(self, path: PathLike):
        self.path = Path(path)
        self._fh = None
        self._trials: Dict[str, TrialResult] = {}
        self._header: Optional[Dict[str, object]] = None
        self._load()

    # -- loading ----------------------------------------------------------

    def _load(self) -> None:
        if not self.path.exists():
            return
        for line in self.path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                # A kill mid-write leaves at most one truncated line;
                # everything parseable before it is still good.
                continue
            kind = row.get("kind")
            if kind == "header":
                self._header = {k: v for k, v in row.items() if k != "kind"}
            elif kind == "trial":
                try:
                    self._ingest_loaded(str(row["key"]), row["trial"])
                except (KeyError, TypeError) as exc:
                    raise ExperimentError(
                        f"malformed trial record in {self.path}: {exc}"
                    ) from exc

    def _ingest_loaded(self, key: str, payload: Dict[str, object]) -> None:
        """Absorb one trial record replayed from disk (subclass hook)."""
        self._trials[key] = TrialResult(**payload)

    # -- introspection ----------------------------------------------------

    @property
    def header(self) -> Optional[Dict[str, object]]:
        """The campaign header record, if the file carries one."""
        return self._header

    def __len__(self) -> int:
        return len(self._trials)

    def __contains__(self, key: str) -> bool:
        return key in self._trials

    def get(self, key: str) -> Optional[TrialResult]:
        return self._trials.get(key)

    def keys(self) -> Iterator[str]:
        return iter(self._trials)

    def counts_by_prefix(self) -> Dict[str, int]:
        """Recorded trials per plan (the segment before the ``::``)."""
        counts: Dict[str, int] = {}
        for key in self._trials:
            prefix = key.split("::", 1)[0]
            counts[prefix] = counts.get(prefix, 0) + 1
        return counts

    # -- writing ----------------------------------------------------------

    def _append(self, row: Dict[str, object]) -> None:
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("a", encoding="utf-8")
        self._fh.write(json.dumps(row, sort_keys=True) + "\n")
        self._fh.flush()

    def write_header(self, meta: Dict[str, object]) -> None:
        """Record (or verify) the campaign identity this file belongs to.

        The first writer stamps the header; later opens verify that the
        checkpoint matches, so two different campaigns cannot silently
        interleave records in one file.
        """
        if self._header is not None:
            if self._header != meta:
                differing = sorted(
                    key
                    for key in set(self._header) | set(meta)
                    if self._header.get(key) != meta.get(key)
                )
                raise ExperimentError(
                    f"checkpoint {self.path} belongs to a different campaign "
                    f"(recorded {self._header.get('campaign', '?')!r}; "
                    f"differs in: {', '.join(differing)}); delete the file or "
                    "resume with the original parameters"
                )
            return
        self._append({"kind": "header", **meta})
        self._header = dict(meta)

    def record(self, key: str, trial: TrialResult) -> None:
        if key in self:
            return  # already checkpointed; keep the file append-only
        self._append({"kind": "trial", "key": key, "trial": asdict(trial)})
        self._trials[key] = trial

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonLinesSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def default_sidecar(path: PathLike) -> Path:
    """Where a checkpoint's telemetry sidecar lives by convention."""
    path = Path(path)
    return path.with_name(path.name + ".telemetry.json")


def _scenario_parts(key: str) -> Tuple[str, str]:
    """``(plan, series)`` from a checkpoint key.

    Keys look like ``plan::rep=0/faults=none/variant=demand`` (see
    :meth:`~repro.experiments.plan.ScenarioSpec.key`); unparseable keys
    fold into plan ``"?"`` / series ``"?"`` rather than raising, so one
    foreign record cannot poison a whole resume.
    """
    plan, sep, scenario = key.partition("::")
    if not sep:
        plan, scenario = "?", key
    fields = {"faults": "none", "placement": "none"}
    name = None
    for segment in scenario.split("/"):
        head, eq, value = segment.partition("=")
        if eq:
            name, fields[head] = head, value
        elif name is not None:
            # A trial hook's variant may hold a slash ("advertised/0.5").
            fields[name] += "/" + segment
    variant = fields.get("variant")
    if variant is None:
        return plan, "?"
    return plan, series_label(variant, fields["faults"], fields["placement"])


#: TrialResult fields summarised as running moments, unconditionally
#: present (every trial carries them, though times may be null).
_MOMENT_FIELDS = (
    "time_all",
    "time_top",
    "time_top1",
    "mean_time",
    "messages",
    "bytes_sent",
    "time_post_heal",
    "time_top_shocked",
    "satisfied_area",
)

#: Fields whose full distribution matters (CDF figures, p95/p99 gates):
#: these additionally feed a quantile sketch per series.
_SKETCH_FIELDS = ("time_all", "time_top", "time_top1")


class StreamingSink(JsonLinesSink):
    """A :class:`JsonLinesSink` that keeps O(1)-memory aggregates.

    Every recorded trial folds into a :class:`MetricRegistry` of
    per-``(plan, series)`` counters, running moments and quantile
    sketches, and the registry checkpoints to an atomic JSON *sidecar*
    next to the trial log (every ``checkpoint_every`` records and on
    close).  A reopened sink restores the registry from the sidecar and
    folds only the trial records past its watermark — the aggregates of
    an interrupted-then-resumed campaign are identical to an
    uninterrupted one's, without re-reading the log.

    Args:
        path: The JSON-lines checkpoint file.
        telemetry_path: Sidecar location; defaults to
            ``<path>.telemetry.json``.
        checkpoint_every: Sidecar write cadence in records (0 = only on
            :meth:`close`).
        materialize: Keep each :class:`TrialResult` in memory for
            ``get`` splicing (what a resumed campaign needs).  Pass
            False for aggregate-only consumers — memory stays flat in
            trial count, and ``get`` on a recorded key raises.
    """

    def __init__(
        self,
        path: PathLike,
        telemetry_path: Optional[PathLike] = None,
        checkpoint_every: int = 256,
        materialize: bool = True,
    ):
        self.telemetry_path = (
            Path(telemetry_path) if telemetry_path is not None
            else default_sidecar(path)
        )
        self.checkpoint_every = int(checkpoint_every)
        self.materialize = bool(materialize)
        self.registry = MetricRegistry()
        self._keys: Dict[str, None] = {}  # insertion-ordered key set
        self._count = 0  # trial records in the file (= sidecar watermark)
        self._watermark = 0  # records the restored sidecar had folded
        self._pending = 0  # folds since the last sidecar write
        self._load_sidecar()
        super().__init__(path)  # replays the log through _ingest_loaded
        if self._watermark > self._count:
            # The sidecar claims more folds than the log holds: the log
            # was truncated or the sidecar belongs elsewhere.  Aggregates
            # are rebuildable state — refold the whole log instead of
            # trusting the sidecar.
            self._refold()

    # -- sidecar ----------------------------------------------------------

    def _load_sidecar(self) -> None:
        if not self.telemetry_path.exists():
            return
        try:
            doc = json.loads(self.telemetry_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            # Sidecar writes are atomic (tmp + rename), so a torn sidecar
            # is foreign damage; the log refolds it from scratch.
            return
        if not isinstance(doc, dict) or doc.get("schema") != SIDECAR_SCHEMA:
            raise ExperimentError(
                f"{self.telemetry_path} is not a telemetry sidecar "
                f"(expected schema {SIDECAR_SCHEMA!r})"
            )
        self.registry = MetricRegistry.restore(doc["telemetry"])
        self._watermark = int(doc.get("folded", 0))

    def checkpoint(self) -> None:
        """Atomically write the registry sidecar (tmp + rename)."""
        doc = {
            "schema": SIDECAR_SCHEMA,
            "folded": self._count,
            "source": self.path.name,
            "telemetry": self.registry.snapshot(),
        }
        self.telemetry_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.telemetry_path.with_name(self.telemetry_path.name + ".tmp")
        tmp.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
        os.replace(tmp, self.telemetry_path)
        self._pending = 0

    def _refold(self) -> None:
        self.registry = MetricRegistry()
        self._watermark = 0
        self._pending = 0
        count = 0
        for line in self.path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(row, dict) and row.get("kind") == "trial":
                try:
                    key, payload = str(row["key"]), row["trial"]
                except KeyError:
                    continue
                if isinstance(payload, dict):
                    self._fold(key, payload)
                    count += 1
        self._pending = count

    # -- folding ----------------------------------------------------------

    def _fold(self, key: str, payload: Dict[str, object]) -> None:
        """Absorb one trial's measurements into the registry."""
        plan, series = _scenario_parts(key)
        labels = {"plan": plan, "series": series}
        self.registry.counter("campaign.trials", **labels).inc()
        if payload.get("time_all") is not None:
            self.registry.counter("campaign.converged", **labels).inc()
        for name in _MOMENT_FIELDS:
            value = payload.get(name)
            if value is None:
                continue
            value = float(value)
            self.registry.moments(f"trial.{name}", **labels).add(value)
            if name in _SKETCH_FIELDS:
                self.registry.sketch(f"trial.{name}.sketch", **labels).add(value)

    def _ingest_loaded(self, key: str, payload: Dict[str, object]) -> None:
        index = self._count
        self._count += 1
        self._keys[key] = None
        if self.materialize:
            self._trials[key] = TrialResult(**payload)
        if index >= self._watermark:
            self._fold(key, payload)
            self._pending += 1

    # -- the sink protocol over the key set, not the trial dict -----------

    def record(self, key: str, trial: TrialResult) -> None:
        if key in self:
            return
        payload = asdict(trial)
        self._append({"kind": "trial", "key": key, "trial": payload})
        self._count += 1
        self._keys[key] = None
        if self.materialize:
            self._trials[key] = trial
        self._fold(key, payload)
        self._pending += 1
        if self.checkpoint_every and self._pending >= self.checkpoint_every:
            self.checkpoint()

    def get(self, key: str) -> Optional[TrialResult]:
        trial = self._trials.get(key)
        if trial is None and key in self._keys:
            raise ExperimentError(
                f"trial {key!r} was recorded but not materialized "
                "(sink opened with materialize=False)"
            )
        return trial

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: str) -> bool:
        return key in self._keys

    def keys(self) -> Iterator[str]:
        return iter(self._keys)

    def counts_by_prefix(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for key in self._keys:
            prefix = key.split("::", 1)[0]
            counts[prefix] = counts.get(prefix, 0) + 1
        return counts

    def close(self) -> None:
        if self._pending:
            self.checkpoint()
        super().close()


def sink_status(path: PathLike) -> Tuple[Optional[Dict[str, object]], Dict[str, int]]:
    """Read a checkpoint's header and per-plan recorded counts.

    Raises :class:`ExperimentError` when the file does not exist — a
    status query on a never-started campaign is a caller mistake, not an
    empty result.
    """
    path = Path(path)
    if not path.exists():
        raise ExperimentError(f"no checkpoint at {path}")
    sink = JsonLinesSink(path)
    try:
        return sink.header, sink.counts_by_prefix()
    finally:
        sink.close()


@dataclass
class CheckpointStatus:
    """What :func:`stream_status` learned from one pass over a checkpoint.

    Attributes:
        path: The checkpoint file read.
        header: Campaign header record, if the file carries one.
        counts: Recorded trials per plan prefix.
        trials: Total well-formed trial records.
        torn_lines: Lines that were unparseable or structurally
            incomplete — at most one for a cleanly killed writer, and
            exactly the in-flight line while a run is live.  Counts are
            *partial* (a lower bound) whenever this is non-zero.
        telemetry: Aggregates restored from the sidecar, when one
            exists and parses; None otherwise.
        folded: Trial records the sidecar had folded (its watermark);
            0 without a sidecar.
    """

    path: Path
    header: Optional[Dict[str, object]] = None
    counts: Dict[str, int] = field(default_factory=dict)
    trials: int = 0
    torn_lines: int = 0
    telemetry: Optional[MetricRegistry] = None
    folded: int = 0

    @property
    def partial(self) -> bool:
        """True when a torn line made the counts a lower bound."""
        return self.torn_lines > 0


def stream_status(
    path: PathLike, telemetry_path: Optional[PathLike] = None
) -> CheckpointStatus:
    """Read campaign progress in one O(1)-memory pass.

    Unlike :func:`sink_status` this never materialises a
    :class:`TrialResult` — each line is parsed, counted and dropped —
    so a 10**5-trial checkpoint answers in flat memory, and a record
    the writer has not finished (truncated line, or a structurally
    incomplete-but-valid JSON fragment) is *counted as torn* instead of
    raising: ``repro campaign status`` against a live run reports
    partial counts rather than failing.

    When the telemetry sidecar exists (``<path>.telemetry.json`` by
    default, written by :class:`StreamingSink`) its registry rides
    along, giving status access to streaming means and quantiles at the
    same O(1) cost.
    """
    path = Path(path)
    if not path.exists():
        raise ExperimentError(f"no checkpoint at {path}")
    status = CheckpointStatus(path=path)
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                status.torn_lines += 1
                continue
            if not isinstance(row, dict):
                status.torn_lines += 1
                continue
            kind = row.get("kind")
            if kind == "header":
                status.header = {k: v for k, v in row.items() if k != "kind"}
            elif kind == "trial":
                key = row.get("key")
                if key is None or not isinstance(row.get("trial"), dict):
                    status.torn_lines += 1  # torn at a JSON-valid boundary
                    continue
                prefix = str(key).split("::", 1)[0]
                status.counts[prefix] = status.counts.get(prefix, 0) + 1
                status.trials += 1
    sidecar = (
        Path(telemetry_path) if telemetry_path is not None
        else default_sidecar(path)
    )
    if sidecar.exists():
        try:
            doc = json.loads(sidecar.read_text(encoding="utf-8"))
            status.telemetry = MetricRegistry.restore(doc["telemetry"])
            status.folded = int(doc.get("folded", 0))
        except (json.JSONDecodeError, KeyError, TypeError, ExperimentError):
            pass  # status is best-effort: a bad sidecar just means no aggregates
    return status

"""The campaign checkpoint: one JSON-lines trial log and its sidecar.

:class:`StreamingSink` receives every completed trial the moment the
backend yields it, instead of waiting for the whole grid to finish.
The JSON-lines format makes the checkpoint crash-safe by construction:
each line is a self-contained record, appended and flushed as it
happens, so a killed campaign keeps every trial that was yielded and
recorded — what is lost is the in-flight work the backend had not
yielded yet (a process pool yields per completed *chunk*, so up to one
chunk per worker) plus at most one torn final line.

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

This module is the one owner of the format.  Every reader of the log —
the sink's load, :func:`stream_status` and
:func:`~repro.experiments.columnar.export_columnar` — makes one
:class:`CheckpointReader` pass with one torn-line rule, and the sink and
:func:`stream_status` read the sidecar through one function.

The sink also keeps **O(1)-memory aggregates**: every recorded trial is
folded into a :class:`~repro.telemetry.registry.MetricRegistry` of
per-series counters, running moments and quantile sketches, and the
registry is checkpointed to a JSON *sidecar* next to the trial log.
Resume restores the aggregates from the sidecar and folds only the
trials recorded past its watermark, and :func:`stream_status` answers
``repro campaign status`` by streaming the file line-by-line without
materialising a single :class:`TrialResult`, so status stays O(1) in
trial count.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from itertools import islice
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

from ..errors import ExperimentError
from ..telemetry.emitter import JsonLines
from ..telemetry.registry import MetricRegistry
from .plan import series_label
from .results import PathLike, TrialResult

#: Sidecar document schema tag; bump on incompatible layout changes.
SIDECAR_SCHEMA = "repro-telemetry-sidecar/1"

#: Sidecar write cadence in recorded trials; :meth:`StreamingSink.close`
#: writes whatever is left.
_CHECKPOINT_EVERY = 256


class CheckpointReader(JsonLines):
    """One streaming pass over a checkpoint under the one torn-line rule.

    :meth:`trials` yields ``(key, payload)`` per trial record in file
    order and sets :attr:`header` when it passes the header record.  On
    top of the :class:`~repro.telemetry.emitter.JsonLines` rule (a line
    that is not a JSON object is torn), a trial record without a string
    ``key`` and a dict ``trial`` — a writer torn at a JSON-valid
    boundary — is torn too: skipped and counted in :attr:`torn`, so a
    resume re-runs that scenario.
    """

    header: Optional[Dict[str, object]] = None

    def trials(self) -> Iterator[Tuple[str, Dict[str, object]]]:
        for row in self:
            kind = row.get("kind")
            if kind == "header":
                self.header = {k: v for k, v in row.items() if k != "kind"}
            elif kind == "trial":
                key, payload = row.get("key"), row.get("trial")
                if isinstance(key, str) and isinstance(payload, dict):
                    yield key, payload
                else:
                    self.torn += 1


def _sidecar(path: Path) -> Path:
    """Where a checkpoint's telemetry sidecar lives."""
    return path.with_name(path.name + ".telemetry.json")


def _read_sidecar(
    path: Path, trials: int
) -> Optional[Tuple[MetricRegistry, int]]:
    """The one sidecar rule: ``(registry, watermark)``, or None.

    Aggregates are rebuildable state, so a missing or torn sidecar, or
    one whose watermark is past the ``trials`` records the log holds
    (the log was truncated, or the sidecar belongs to another log),
    reads as None: the sink refolds the log and status shows no
    aggregates.  A document with another schema is not ours to
    overwrite: :class:`ExperimentError`.
    """
    if not path.exists():
        return None
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError:
        # Sidecar writes are atomic (tmp + rename), so a torn sidecar
        # is foreign damage.
        return None
    if not isinstance(doc, dict) or doc.get("schema") != SIDECAR_SCHEMA:
        raise ExperimentError(
            f"{path} is not a telemetry sidecar "
            f"(expected schema {SIDECAR_SCHEMA!r})"
        )
    folded = int(doc.get("folded", 0))
    if folded > trials:
        return None
    return MetricRegistry.restore(doc.get("telemetry", {})), folded


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


class StreamingSink:
    """Append-only JSON-lines checkpoint with O(1)-memory aggregates.

    Existing records are loaded on construction, so ``get`` is a dict
    lookup and a resumed run never re-executes a recorded scenario.  The
    file handle is opened lazily on the first ``record`` and every
    record is flushed immediately — an interrupted run keeps everything
    it completed.

    Every recorded trial also folds into a :class:`MetricRegistry` of
    per-``(plan, series)`` counters, running moments and quantile
    sketches, and the registry checkpoints to an atomic JSON *sidecar*
    next to the trial log (every 256 records and on close).  A reopened
    sink restores the registry from the sidecar and folds only the
    trials past its watermark — the aggregates of an
    interrupted-then-resumed campaign are identical to an uninterrupted
    one's.
    """

    def __init__(self, path: PathLike):
        self.path = Path(path)
        self.sidecar = _sidecar(self.path)
        self.header: Optional[Dict[str, object]] = None
        self._fh = None
        self._trials: Dict[str, TrialResult] = {}
        if self.path.exists():
            reader = CheckpointReader(self.path)
            for key, payload in reader.trials():
                try:
                    self._trials[key] = TrialResult(**payload)
                except TypeError as exc:
                    raise ExperimentError(
                        f"malformed trial record in {self.path}: {exc}"
                    ) from exc
            self.header = reader.header
        restored = _read_sidecar(self.sidecar, len(self._trials))
        self.registry, folded = restored or (MetricRegistry(), 0)
        for key, trial in islice(self._trials.items(), folded, None):
            self._fold(key, trial)
        # Folds since the last sidecar write.
        self._pending = len(self._trials) - folded

    # -- introspection ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._trials)

    def __contains__(self, key: str) -> bool:
        return key in self._trials

    def get(self, key: str) -> Optional[TrialResult]:
        return self._trials.get(key)

    def keys(self) -> Iterator[str]:
        return iter(self._trials)

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
        if self.header is not None:
            if self.header != meta:
                differing = sorted(
                    key
                    for key in set(self.header) | set(meta)
                    if self.header.get(key) != meta.get(key)
                )
                raise ExperimentError(
                    f"checkpoint {self.path} belongs to a different campaign "
                    f"(recorded {self.header.get('campaign', '?')!r}; "
                    f"differs in: {', '.join(differing)}); delete the file or "
                    "resume with the original parameters"
                )
            return
        self._append({"kind": "header", **meta})
        self.header = dict(meta)

    def record(self, key: str, trial: TrialResult) -> None:
        """Persist one completed trial under its stable scenario key."""
        if key in self._trials:
            return  # already checkpointed; keep the file append-only
        self._append({"kind": "trial", "key": key, "trial": asdict(trial)})
        self._trials[key] = trial
        self._fold(key, trial)
        self._pending += 1
        if self._pending >= _CHECKPOINT_EVERY:
            self.checkpoint()

    # -- aggregates -------------------------------------------------------

    def _fold(self, key: str, trial: TrialResult) -> None:
        """Absorb one trial's measurements into the registry."""
        plan, series = _scenario_parts(key)
        labels = {"plan": plan, "series": series}
        self.registry.counter("campaign.trials", **labels).inc()
        if trial.time_all is not None:
            self.registry.counter("campaign.converged", **labels).inc()
        for name in _MOMENT_FIELDS:
            value = getattr(trial, name)
            if value is None:
                continue
            value = float(value)
            self.registry.moments(f"trial.{name}", **labels).add(value)
            if name in _SKETCH_FIELDS:
                self.registry.sketch(f"trial.{name}.sketch", **labels).add(value)

    def checkpoint(self) -> None:
        """Atomically write the registry sidecar (tmp + rename)."""
        doc = {
            "schema": SIDECAR_SCHEMA,
            "folded": len(self._trials),
            "source": self.path.name,
            "telemetry": self.registry.snapshot(),
        }
        self.sidecar.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.sidecar.with_name(self.sidecar.name + ".tmp")
        tmp.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
        os.replace(tmp, self.sidecar)
        self._pending = 0

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        if self._pending:
            self.checkpoint()
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "StreamingSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


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
        telemetry: Aggregates restored from the sidecar, when it passes
            the rule a resuming sink applies; None otherwise.
        folded: Trial records the sidecar had folded (its watermark);
            0 without usable aggregates.
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


def stream_status(path: PathLike) -> CheckpointStatus:
    """Read campaign progress in one O(1)-memory pass.

    This never materialises a :class:`TrialResult` — each line is
    parsed, counted and dropped — so a 10**5-trial checkpoint answers in
    flat memory, and a record the writer has not finished is counted as
    torn (the :class:`CheckpointReader` rule) instead of raising:
    ``repro campaign status`` against a live run reports partial counts
    rather than failing.

    When the sidecar passes the rule the sink itself applies (see
    :func:`_read_sidecar`; a foreign one shows no aggregates here
    instead of raising), its registry rides along, giving status access
    to streaming means and quantiles at the same O(1) cost.
    """
    path = Path(path)
    if not path.exists():
        raise ExperimentError(f"no checkpoint at {path}")
    status = CheckpointStatus(path=path)
    reader = CheckpointReader(path)
    for key, _ in reader.trials():
        prefix = key.split("::", 1)[0]
        status.counts[prefix] = status.counts.get(prefix, 0) + 1
        status.trials += 1
    status.header, status.torn_lines = reader.header, reader.torn
    try:
        restored = _read_sidecar(_sidecar(path), status.trials)
    except ExperimentError:
        restored = None
    if restored is not None:
        status.telemetry, status.folded = restored
    return status

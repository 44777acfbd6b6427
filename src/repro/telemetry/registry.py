"""A registry of labeled metric series with one JSON snapshot schema.

Every telemetry producer in the repo — the campaign's streaming sink,
the live :class:`~repro.runtime.cluster.ReplicaCluster`, benchmarks —
registers its series here, so the simulated and live worlds report
through one schema and their snapshots diff, merge and restore with the
same code.

A *series* is a metric name plus a label set, e.g.::

    registry.counter("campaign.trials", plan="ring", series="fast")
    registry.sketch("trial.time_all", plan="ring", series="fast")

Four primitive types compose a registry:

* :class:`Counter` — a monotone integer (trials recorded, puts served);
* :class:`Gauge` — a last-wins float (uptime, queue depth);
* :class:`~repro.telemetry.moments.RunningMoments` — streaming
  mean/var/min/max, exact and mergeable;
* :class:`~repro.telemetry.sketch.QuantileSketch` — streaming
  quantiles within a certified rank-error bound, mergeable.

``snapshot()`` emits a plain-JSON document (schema
``repro-telemetry/1``), ``restore()`` rebuilds the registry from one,
and ``merge()`` folds another registry in series-by-series — counters
add, gauges last-win, moments and sketches merge exactly as their
streams concatenated.  Snapshots are deterministic (series sorted by
identity) so two registries fed the same stream serialise identically.

The registry itself is not synchronised; callers that fold from
several threads hold their own lock (the cluster does).
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, Mapping, Optional, Tuple, Union

from ..errors import ExperimentError
from .moments import RunningMoments
from .sketch import DEFAULT_K, QuantileSketch

__all__ = ["Counter", "Gauge", "MetricRegistry", "SCHEMA", "series_id"]

#: Snapshot document schema tag; bump on incompatible layout changes.
SCHEMA = "repro-telemetry/1"

Labels = Tuple[Tuple[str, str], ...]
Metric = Union["Counter", "Gauge", RunningMoments, QuantileSketch]


class Counter:
    """A monotone integer series member."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ExperimentError(f"counter increment must be >= 0, got {amount}")
        self.value += int(amount)

    def __repr__(self) -> str:
        return f"Counter({self.value})"


class Gauge:
    """A last-written-wins float series member."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def __repr__(self) -> str:
        return f"Gauge({self.value})"


def _freeze_labels(labels: Mapping[str, object]) -> Labels:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def series_id(name: str, labels: Labels = ()) -> str:
    """Canonical display identity, ``name{a=b,c=d}`` (labels sorted)."""
    if not labels:
        return name
    inner = ",".join(f"{key}={value}" for key, value in labels)
    return f"{name}{{{inner}}}"


_TYPE_NAMES = {
    Counter: "counter",
    Gauge: "gauge",
    RunningMoments: "moments",
    QuantileSketch: "sketch",
}


class MetricRegistry:
    """Labeled metric series with snapshot/merge/restore."""

    def __init__(self) -> None:
        self._series: Dict[Tuple[str, Labels], Metric] = {}

    # -- get-or-create accessors ------------------------------------------

    def _get_or_create(self, name: str, labels: Labels, factory) -> Metric:
        key = (str(name), labels)
        metric = self._series.get(key)
        if metric is None:
            metric = factory()
            self._series[key] = metric
            return metric
        expected = factory().__class__
        if not isinstance(metric, expected):
            raise ExperimentError(
                f"series {series_id(*key)!r} is a "
                f"{_TYPE_NAMES[type(metric)]}, not a {_TYPE_NAMES[expected]}"
            )
        return metric

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get_or_create(name, _freeze_labels(labels), Counter)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get_or_create(name, _freeze_labels(labels), Gauge)

    def moments(self, name: str, **labels: object) -> RunningMoments:
        return self._get_or_create(name, _freeze_labels(labels), RunningMoments)

    def sketch(
        self, name: str, k: int = DEFAULT_K, **labels: object
    ) -> QuantileSketch:
        return self._get_or_create(
            name, _freeze_labels(labels), lambda: QuantileSketch(k=k)
        )

    # -- introspection ----------------------------------------------------

    def get(self, name: str, **labels: object) -> Optional[Metric]:
        """The series if it exists, else None (never creates)."""
        return self._series.get((str(name), _freeze_labels(labels)))

    def series(self) -> Iterator[Tuple[str, Dict[str, str], Metric]]:
        """Every ``(name, labels, metric)``, sorted by identity."""
        for (name, labels), metric in sorted(
            self._series.items(), key=lambda item: series_id(*item[0])
        ):
            yield name, dict(labels), metric

    def __len__(self) -> int:
        return len(self._series)

    def __contains__(self, name: str) -> bool:
        return any(key[0] == name for key in self._series)

    # -- merge ------------------------------------------------------------

    def merge(self, other: "MetricRegistry") -> None:
        """Fold ``other`` in: counters add, gauges last-win, moments and
        sketches merge as if their streams had been concatenated."""
        for (name, labels), theirs in other._series.items():
            if isinstance(theirs, Counter):
                self._get_or_create(name, labels, Counter).inc(theirs.value)
            elif isinstance(theirs, Gauge):
                self._get_or_create(name, labels, Gauge).set(theirs.value)
            elif isinstance(theirs, RunningMoments):
                self._get_or_create(name, labels, RunningMoments).merge(theirs)
            elif isinstance(theirs, QuantileSketch):
                mine = self._get_or_create(
                    name, labels, lambda k=theirs.k: QuantileSketch(k=k)
                )
                mine.merge(theirs)
            else:  # pragma: no cover - registry only holds the four types
                raise ExperimentError(f"unmergeable metric type {type(theirs)!r}")

    # -- persistence ------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Plain-JSON document of every series (deterministic order)."""
        metrics = []
        for name, labels, metric in self.series():
            entry: Dict[str, object] = {
                "name": name,
                "labels": labels,
                "type": _TYPE_NAMES[type(metric)],
            }
            if isinstance(metric, (Counter, Gauge)):
                entry["value"] = metric.value
            elif isinstance(metric, RunningMoments):
                entry["state"] = metric.to_dict()
                entry["std"] = metric.std()
            else:
                entry["state"] = metric.to_dict()
                entry["rank_error"] = metric.rank_error
            metrics.append(entry)
        return {"schema": SCHEMA, "metrics": metrics}

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True)

    @classmethod
    def restore(cls, data: Mapping[str, object]) -> "MetricRegistry":
        """Rebuild a registry from a :meth:`snapshot` document."""
        if data.get("schema") != SCHEMA:
            raise ExperimentError(
                f"unknown telemetry schema {data.get('schema')!r} "
                f"(expected {SCHEMA!r})"
            )
        registry = cls()
        try:
            for entry in data["metrics"]:
                name = str(entry["name"])
                labels = _freeze_labels(entry["labels"])
                kind = entry["type"]
                if kind == "counter":
                    registry._get_or_create(name, labels, Counter).inc(
                        int(entry["value"])
                    )
                elif kind == "gauge":
                    registry._get_or_create(name, labels, Gauge).set(
                        float(entry["value"])
                    )
                elif kind == "moments":
                    registry._series[(name, labels)] = RunningMoments.from_dict(
                        entry["state"]
                    )
                elif kind == "sketch":
                    registry._series[(name, labels)] = QuantileSketch.from_dict(
                        entry["state"]
                    )
                else:
                    raise ExperimentError(f"unknown metric type {kind!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise ExperimentError(f"malformed telemetry snapshot: {exc}") from exc
        return registry

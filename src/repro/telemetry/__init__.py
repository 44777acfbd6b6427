"""Streaming telemetry: O(1)-memory aggregates shared by every world.

The subsystem has three layers, smallest first:

* **Primitives** — :class:`Counter` / :class:`Gauge`,
  :class:`RunningMoments` (Welford, exact, mergeable) and
  :class:`QuantileSketch` (deterministic compactor, mergeable, with a
  *certified* rank-error bound it tracks about itself).
* **Registry** — :class:`MetricRegistry` composes labeled series of the
  primitives with one JSON snapshot/merge/restore schema
  (``repro-telemetry/1``), used verbatim by the campaign sink sidecar,
  the live cluster's ``stats()``, and the ``repro serve`` snapshot
  emitter.
* **Emission** — :class:`SnapshotEmitter` appends newline-JSON snapshot
  records for live tails (``repro serve --metrics-interval``), and
  :class:`JsonLines` reads every newline-JSON file back (snapshot
  trails and campaign checkpoints) under one torn-line rule.

Columnar export of campaign checkpoints reads trial results, so it
lives with them in :mod:`repro.experiments.columnar`.

Everything is pure python and picklable; sketches and moments fold one
observation at a time, so a 10**6-trial campaign summarises in the
same few kilobytes as a 10-trial one.
"""

from .. import _exports

__all__ = _exports.lazy_exports(
    __name__,
    {
        ".emitter": ("JsonLines", "SnapshotEmitter", "read_snapshots"),
        ".moments": ("RunningMoments",),
        ".registry": ("Counter", "Gauge", "MetricRegistry", "series_id", "SCHEMA"),
        ".sketch": ("QuantileSketch", "DEFAULT_K"),
    },
)

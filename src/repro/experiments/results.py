"""Result containers with JSON persistence.

Experiments produce :class:`TrialResult` rows (one per simulated
repetition) grouped into :class:`VariantSeries` (one per protocol
variant) inside an :class:`ExperimentResult`. Everything serialises to
plain JSON so reported numbers can be regenerated and archived.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..errors import ExperimentError
from .cdf import EmpiricalCdf

PathLike = Union[str, Path]


@dataclass(frozen=True)
class TrialResult:
    """Measurements from one repetition of one variant.

    Attributes:
        rep: Repetition index.
        origin: Node where the tracked write was injected.
        time_all: Sessions until every replica had the update (None =
            did not converge within the horizon).
        time_top: Sessions until the high-demand subset (top fraction)
            had it.
        time_top1: Sessions until the single most-demanded replica had
            it — the paper's "replica with most demand".
        mean_time: Mean per-replica sessions-to-consistency.
        diameter: Topology diameter for this repetition.
        messages: Total messages the network carried.
        bytes_sent: Total bytes the network carried.
        n_nodes: Effective node count of the built topology (may differ
            from the requested ``n`` for generators that round, e.g.
            grid/torus squaring; None in results recorded before this
            field existed).
        time_post_heal: Sessions between the last partition heal and
            full convergence, for trials run under a fault schedule
            containing a healed partition (None otherwise, and in
            results recorded before this field existed).
        time_top_shocked: Sessions until the high-demand subset ranked
            by the *post-shock* demand surface had the update, for
            trials whose fault schedule contains a demand shock (None
            otherwise). ``time_top`` always ranks by pre-shock demand,
            so the pair shows whether a variant re-routed toward the
            newly hot region.
        satisfied_area: Sum of the capacity-aware satisfied-requests
            series over the run (Fig. 3 area under the curve with a
            finite per-replica capacity), for trials run under a
            placement regime (None otherwise). Comparing an autoscaled
            trial's area to the paired static trial's is the
            placement benefit.
        replicas_spawned: Replicas the placement controller created
            (0 under static placement; None without a regime).
        replicas_retired: Replicas the controller retired.
        replicas_peak: Peak simultaneous extra copies.
        placement_bytes: Control-loop bytes (demand reports + placement
            commands) the network carried.
        extra: Artefact-specific measures by name, written by a plan's
            ``trial`` hook (the Fig. 3 series, the §8 byte split...).
    """

    rep: int
    origin: int
    time_all: Optional[float]
    time_top: Optional[float]
    time_top1: Optional[float]
    mean_time: Optional[float]
    diameter: int
    messages: int
    bytes_sent: int
    n_nodes: Optional[int] = None
    time_post_heal: Optional[float] = None
    time_top_shocked: Optional[float] = None
    satisfied_area: Optional[float] = None
    replicas_spawned: Optional[int] = None
    replicas_retired: Optional[int] = None
    replicas_peak: Optional[int] = None
    placement_bytes: Optional[int] = None
    extra: Dict[str, float] = field(default_factory=dict)


@dataclass
class VariantSeries:
    """All repetitions of one protocol variant."""

    variant: str
    trials: List[TrialResult] = field(default_factory=list)

    def add(self, trial: TrialResult) -> None:
        self.trials.append(trial)

    def cdf_all(self) -> EmpiricalCdf:
        """CDF of sessions-to-all-replicas (a Figs. 5-6 curve)."""
        return EmpiricalCdf(t.time_all for t in self.trials)

    def cdf_top(self) -> EmpiricalCdf:
        """CDF of sessions-to-high-demand-subset."""
        return EmpiricalCdf(t.time_top for t in self.trials)

    def cdf_top1(self) -> EmpiricalCdf:
        """CDF of sessions to the single most-demanded replica."""
        return EmpiricalCdf(t.time_top1 for t in self.trials)

    def mean_post_heal(self) -> Optional[float]:
        """Mean post-heal convergence time over faulted trials.

        None when no trial carries the measurement (no fault schedule,
        or no healed partition in it); trials that never converged are
        excluded, as in the CDF accessors. That exclusion makes the
        mean *optimistic* whenever some trials never converged — always
        read it next to :meth:`converged_fraction`, which reports how
        many trials the mean actually covers.
        """
        values = [t.time_post_heal for t in self.trials if t.time_post_heal is not None]
        if not values:
            return None
        return sum(values) / len(values)

    def converged_fraction(self) -> float:
        """Fraction of trials that fully converged within the horizon.

        A trial converged when ``time_all`` is recorded; anything else
        hit the ``max_time`` horizon first (e.g. a partition that never
        healed in time). Means computed over converged trials only —
        :meth:`mean_post_heal`, the CDF accessors — silently drop the
        rest, so report this fraction alongside them and treat any
        value < 1.0 as a censored, optimistic summary.
        """
        if not self.trials:
            raise ExperimentError(f"variant {self.variant} has no trials")
        converged = sum(1 for t in self.trials if t.time_all is not None)
        return converged / len(self.trials)

    def mean_satisfied_area(self) -> Optional[float]:
        """Mean capacity-aware satisfaction area over placement trials.

        None when no trial in the series ran under a placement regime.
        """
        values = [
            t.satisfied_area for t in self.trials if t.satisfied_area is not None
        ]
        if not values:
            return None
        return sum(values) / len(values)

    def extra_sums(self) -> Dict[str, float]:
        """Per-name sums of the trials' ``extra`` measures, in trial order."""
        sums: Dict[str, float] = {}
        for trial in self.trials:
            for name, value in trial.extra.items():
                sums[name] = sums.get(name, 0.0) + value
        return sums

    def extra_means(self) -> Dict[str, float]:
        """Per-name means of the ``extra`` measures over every trial."""
        if not self.trials:
            raise ExperimentError(f"variant {self.variant} has no trials")
        count = len(self.trials)
        return {name: total / count for name, total in self.extra_sums().items()}

    def mean_messages(self) -> float:
        if not self.trials:
            raise ExperimentError(f"variant {self.variant} has no trials")
        return sum(t.messages for t in self.trials) / len(self.trials)

    def mean_bytes(self) -> float:
        if not self.trials:
            raise ExperimentError(f"variant {self.variant} has no trials")
        return sum(t.bytes_sent for t in self.trials) / len(self.trials)


@dataclass
class ExperimentResult:
    """A named experiment's full output.

    Attributes:
        name: Experiment id (``fig5``, ``scaling``...).
        params: The parameters it ran with (nodes, reps, seed...).
        series: Variant name -> measurements.
        notes: Free-form annotations (paper reference values etc.).
    """

    name: str
    params: Dict[str, object] = field(default_factory=dict)
    series: Dict[str, VariantSeries] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)

    def variant(self, name: str) -> VariantSeries:
        """Get-or-create the series for ``name``."""
        if name not in self.series:
            self.series[name] = VariantSeries(variant=name)
        return self.series[name]

    # -- persistence ------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "params": self.params,
            "notes": self.notes,
            "series": {
                name: [asdict(t) for t in series.trials]
                for name, series in self.series.items()
            },
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def save(self, path: PathLike) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExperimentResult":
        try:
            result = cls(
                name=str(data["name"]),
                params=dict(data.get("params", {})),
                notes=dict(data.get("notes", {})),
            )
            for variant, trials in dict(data.get("series", {})).items():
                series = result.variant(variant)
                for row in trials:
                    series.add(TrialResult(**row))
        except (KeyError, TypeError) as exc:
            raise ExperimentError(f"malformed result payload: {exc}") from exc
        return result

    @classmethod
    def load(cls, path: PathLike) -> "ExperimentResult":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

"""Multi-plan campaigns: one backend, streamed results, resumable runs.

The paper's evaluation is a *family* of grids — sizes x variants x
demand x fault regimes — but a single
:class:`~repro.experiments.plan.ExperimentPlan` only describes one grid.
A :class:`Campaign` names several plans (the whole §5 scaling sweep, a
sweep x fault-regime product, figs. 5 and 6 together) and runs them all
over **one shared execution backend**: a
:class:`~repro.experiments.backends.ProcessPoolBackend` spawns its
workers once for the entire campaign instead of once per plan.

Trials stream through the backend's ``run_trials_iter`` and every
completed scenario is checkpointed to a
:class:`~repro.experiments.sink.StreamingSink` as the backend yields
it (a process pool yields per completed chunk), keyed by
``plan::rep=../faults=../variant=..``. A killed campaign
resumes by re-running with the same sink: recorded keys are skipped and
their stored rows spliced back in expansion order, so the resumed
:class:`CampaignResult` is bit-identical to an uninterrupted run —
every scenario is a pure function of its seeds, and assembly only
depends on expansion-order position.

Example::

    campaign = Campaign("scaling", scaling_plans(sizes=(25, 50, 100)))
    with ProcessPoolBackend(max_workers=8) as backend:
        with StreamingSink("scaling.jsonl") as sink:
            outcome = campaign.run(backend, sink=sink)
    outcome.results["50"].series["fast"].cdf_all().mean()
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import (
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Union,
)

from ..errors import ExperimentError
from .backends import ExecutionBackend, resolve_backend
from .plan import ExperimentPlan
from .results import ExperimentResult, PathLike, TrialResult
from .sink import StreamingSink


class CampaignPaused(ExperimentError):
    """A limited campaign run stopped before completing every trial.

    Raised by :meth:`Campaign.run` when ``limit`` new trials have been
    executed and checkpointed but work remains; carries the progress so
    callers (the CLI, tests) can report it and resume later.
    """

    def __init__(self, done: int, total: int):
        self.done = done
        self.total = total
        super().__init__(
            f"campaign paused after reaching its trial limit: "
            f"{done}/{total} trials recorded"
        )


def _stable(value: object) -> str:
    """JSON fallback for a checkpoint header: a ``trial`` hook by import
    path (its ``str`` holds an address a new process would not match)."""
    if callable(value):
        return f"{value.__module__}.{value.__qualname__}"
    return str(value)


def scenario_key(plan_key: str, spec) -> str:
    """Checkpoint key of one scenario: ``plan::rep=../faults=../variant=..``.

    ``::`` separates the plan key from the scenario identity so plan
    keys may themselves contain ``/`` (e.g. product keys like
    ``n=25/faults=none+split_brain``).
    """
    return f"{plan_key}::{spec.key()}"


@dataclass
class CampaignResult:
    """Aggregated output of every plan in a campaign.

    Attributes:
        name: Campaign id.
        results: Plan key -> that plan's :class:`ExperimentResult`, in
            campaign order.
        params: The parameters the campaign ran with.
        notes: Free-form annotations (backend name, resume counts...).
    """

    name: str
    results: Dict[str, ExperimentResult] = field(default_factory=dict)
    params: Dict[str, object] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)

    def total_trials(self) -> int:
        return sum(
            len(series.trials)
            for result in self.results.values()
            for series in result.series.values()
        )

    # -- persistence ------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "params": self.params,
            "notes": self.notes,
            "results": {key: result.to_dict() for key, result in self.results.items()},
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def save(self, path: PathLike) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CampaignResult":
        try:
            result = cls(
                name=str(data["name"]),
                params=dict(data.get("params", {})),
                notes=dict(data.get("notes", {})),
            )
            for key, payload in dict(data.get("results", {})).items():
                result.results[key] = ExperimentResult.from_dict(payload)
        except (KeyError, TypeError) as exc:
            raise ExperimentError(f"malformed campaign payload: {exc}") from exc
        return result

    @classmethod
    def load(cls, path: PathLike) -> "CampaignResult":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


class Campaign:
    """An ordered set of named experiment plans run as one unit.

    Args:
        name: Campaign id (recorded in results and checkpoint headers).
        plans: Either a mapping of plan key -> plan (keys are coerced to
            strings, so ``scaling_plans()``'s int-keyed dict works
            as-is) or a sequence of plans keyed by their own names.
        params: Extra parameters recorded verbatim in the result.
    """

    def __init__(
        self,
        name: str,
        plans: Union[Mapping[object, ExperimentPlan], Sequence[ExperimentPlan]],
        params: Optional[Dict[str, object]] = None,
    ):
        self.name = name
        if isinstance(plans, Mapping):
            self.plans: Dict[str, ExperimentPlan] = {
                str(key): plan for key, plan in plans.items()
            }
        else:
            self.plans = {plan.name: plan for plan in plans}
            if len(self.plans) != len(plans):
                raise ExperimentError(
                    f"campaign {name!r}: duplicate plan names in sequence"
                )
        if not self.plans:
            raise ExperimentError(f"campaign {name!r} has no plans")
        self.params = dict(params or {})

    @classmethod
    def from_product(
        cls,
        name: str,
        base: ExperimentPlan,
        params: Optional[Dict[str, object]] = None,
        **axes: Sequence[object],
    ) -> "Campaign":
        """One plan per combination of the swept plan fields.

        Each keyword names an :class:`ExperimentPlan` field and gives
        the values to sweep; the cartesian product becomes the
        campaign's plans, keyed ``field=value/...``. Example::

            Campaign.from_product(
                "robustness", base,
                n=(25, 50), faults=(("none",), ("none", "split_brain")),
            )
        """
        if not axes:
            raise ExperimentError(f"campaign {name!r}: no product axes given")
        for axis in axes:
            if axis not in type(base).__dataclass_fields__:
                raise ExperimentError(
                    f"campaign {name!r}: {axis!r} is not an ExperimentPlan field"
                )
        def fmt(value: object) -> str:
            if isinstance(value, (tuple, list)):
                return "+".join(str(item) for item in value)
            return str(value)

        names = list(axes)
        plans: Dict[str, ExperimentPlan] = {}
        for combo in itertools.product(*axes.values()):
            overrides = dict(zip(names, combo))
            key = "/".join(f"{axis}={fmt(value)}" for axis, value in overrides.items())
            plans[key] = replace(base, name=f"{base.name}/{key}", **overrides)
        return cls(name, plans, params=params)

    # -- introspection ----------------------------------------------------

    def validate(self) -> "Campaign":
        for plan in self.plans.values():
            plan.validate()
        return self

    def total_trials(self) -> int:
        return sum(plan.total_trials() for plan in self.plans.values())

    def header(self) -> Dict[str, object]:
        """The identity record stamped into checkpoint files.

        Includes every plan's full definition (seeds, horizons, fault
        regimes...), not just trial counts: a checkpoint written under
        one seed must be rejected — not silently spliced — when the
        campaign is resumed with a different one. Round-tripped through
        JSON so the fingerprint compares equal to what a reloaded sink
        parsed from disk (tuples become lists either way).
        """
        fingerprint = {
            "campaign": self.name,
            "total": self.total_trials(),
            "plans": {
                key: {"trials": plan.total_trials(), "plan": asdict(plan)}
                for key, plan in self.plans.items()
            },
        }
        return json.loads(json.dumps(fingerprint, sort_keys=True, default=_stable))

    # -- execution --------------------------------------------------------

    def run(
        self,
        backend: Union[None, int, str, ExecutionBackend] = None,
        sink: Optional[StreamingSink] = None,
        limit: Optional[int] = None,
    ) -> CampaignResult:
        """Run every plan over one shared backend.

        Args:
            backend: Anything :func:`resolve_backend` accepts. A backend
                *instance* is reused as-is and left open for the caller;
                a spec (``None``/int/str) is resolved here and closed
                when the campaign finishes.
            sink: Optional :class:`StreamingSink` checkpoint; its header
                is stamped (or verified) first. Scenarios whose keys are
                already recorded are not re-executed — their stored rows are
                spliced back in — and every newly completed trial is
                recorded immediately, so interrupting the run loses
                nothing that finished.
            limit: Execute at most this many *new* trials, then raise
                :class:`CampaignPaused` (after checkpointing them).
                Lets tests and operators chunk very long campaigns;
                requires a ``sink`` (a limited run without one would
                discard the work), and the limit only counts executed
                scenarios, never skipped ones.

        Returns:
            A :class:`CampaignResult` with one
            :class:`ExperimentResult` per plan. Bit-identical across
            backends, and across interrupted-then-resumed runs.
        """
        self.validate()
        if limit is not None and limit < 1:
            raise ExperimentError(f"limit must be >= 1, got {limit}")
        if limit is not None and sink is None:
            raise ExperimentError(
                "limit without a sink would execute trials and then "
                "discard them; pass a checkpoint sink to make the "
                "partial run resumable"
            )
        owns_backend = not isinstance(backend, ExecutionBackend)
        resolved = resolve_backend(backend)
        if sink is not None:
            sink.write_header(self.header())
        executed = 0
        skipped = 0
        truncated = False
        outcome = CampaignResult(name=self.name, params=dict(self.params))
        try:
            for plan_key, plan in self.plans.items():
                specs = plan.scenarios()
                keys = [scenario_key(plan_key, spec) for spec in specs]
                trials: List[Optional[TrialResult]] = [None] * len(specs)
                pending: List[int] = []
                for index, key in enumerate(keys):
                    cached = sink.get(key) if sink is not None else None
                    if cached is not None:
                        trials[index] = cached
                        skipped += 1
                    else:
                        pending.append(index)
                if limit is not None and executed + len(pending) > limit:
                    pending = pending[: limit - executed]
                    truncated = True
                if pending:
                    batch = [specs[index] for index in pending]
                    for position, trial in resolved.run_trials_iter(batch):
                        index = pending[position]
                        trials[index] = trial
                        if sink is not None:
                            sink.record(keys[index], trial)
                    executed += len(pending)
                if truncated or any(trial is None for trial in trials):
                    raise CampaignPaused(executed + skipped, self.total_trials())
                result = plan.assemble(trials, resolved.name)
                outcome.results[plan_key] = result
        finally:
            if owns_backend:
                resolved.close()
        # Deliberately record nothing run-specific beyond the backend
        # name: a resumed campaign must serialise bit-identically to an
        # uninterrupted one, so executed/skipped counts stay out of the
        # payload (the CLI reports them from the sink instead).
        outcome.notes["backend"] = resolved.name
        return outcome

"""Pluggable execution backends for experiment plans.

An :class:`ExecutionBackend` turns a list of picklable
:class:`~repro.experiments.plan.ScenarioSpec` objects into the matching
list of :class:`~repro.experiments.results.TrialResult` rows, in input
order. Because every scenario is self-contained (registry keys plus
derived seeds) and every trial is deterministic given its seeds, all
backends produce bit-identical results — the only difference is
wall-clock time.

Backends:

* :class:`SerialBackend` — in-process loop; zero overhead, the baseline.
* :class:`ProcessPoolBackend` — ``concurrent.futures`` process pool for
  the embarrassingly parallel repetition grid; scales with cores.

Backends have an explicit lifecycle so multi-plan drivers (campaigns)
can amortise worker-spawn cost: the process pool starts lazily on the
first ``run_trials``/``run_trials_iter`` call and is **reused** across
calls until :meth:`~ProcessPoolBackend.close` (or the context manager)
shuts it down. :class:`SerialBackend` implements the same lifecycle as
no-ops, so callers can treat every backend uniformly::

    with ProcessPoolBackend(max_workers=8) as backend:
        for plan in plans:
            plan.run(backend)   # one pool for the whole loop

Both backends also support *streaming* execution:
:meth:`run_trials_iter` yields ``(index, TrialResult)`` pairs as trials
complete (possibly out of input order on a pool), which is what lets a
:class:`~repro.experiments.sink.StreamingSink` checkpoint every
completed scenario the moment it finishes. The list-returning
``run_trials`` reassembles the stream in input order, so it stays
bit-identical across backends.

Use :func:`resolve_backend` to map a CLI-ish ``--workers`` value to a
backend instance.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import (
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

from ..errors import ExperimentError
from .plan import ScenarioSpec, run_scenario
from .results import TrialResult


@runtime_checkable
class ExecutionBackend(Protocol):
    """Strategy interface: execute scenarios, preserve input order.

    Backends additionally expose a uniform lifecycle (``close`` plus
    context-manager support) and a streaming entry point; for in-process
    backends the lifecycle methods are no-ops.
    """

    name: str

    def run_trials(self, scenarios: Iterable[ScenarioSpec]) -> List[TrialResult]:
        """Run every scenario and return results in input order."""
        ...

    def run_trials_iter(
        self, scenarios: Iterable[ScenarioSpec]
    ) -> Iterator[Tuple[int, TrialResult]]:
        """Yield ``(input_index, result)`` pairs as trials complete."""
        ...

    def close(self) -> None:
        """Release any pooled resources (idempotent)."""
        ...


class SerialBackend:
    """Run every scenario in the calling process, one after another.

    ``close`` and the context manager are no-ops, present only for
    protocol symmetry with :class:`ProcessPoolBackend`.
    """

    name = "serial"

    def run_trials(self, scenarios: Iterable[ScenarioSpec]) -> List[TrialResult]:
        return [run_scenario(spec) for spec in scenarios]

    def run_trials_iter(
        self, scenarios: Iterable[ScenarioSpec]
    ) -> Iterator[Tuple[int, TrialResult]]:
        for index, spec in enumerate(scenarios):
            yield index, run_scenario(spec)

    def close(self) -> None:
        """No pooled resources to release."""

    def __enter__(self) -> "SerialBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _run_chunk(specs: Sequence[ScenarioSpec]) -> List[TrialResult]:
    """Worker-side entry point: run one contiguous chunk of scenarios."""
    return [run_scenario(spec) for spec in specs]


class ProcessPoolBackend:
    """Fan scenarios out over a persistent process pool.

    Scenario specs carry registry keys and seeds only, so each worker
    rebuilds its topology/demand/config locally; nothing unpicklable
    crosses the process boundary. Scenarios are submitted in contiguous
    chunks and the streaming iterator yields results as chunks complete;
    the list API reassembles them in input order, which keeps the
    result identical to the serial backend's.

    The executor is created lazily on first use and **kept alive across
    calls** until :meth:`close` — a multi-plan campaign pays the
    worker-spawn cost once, not once per plan. The backend is also a
    context manager; ``with`` guarantees the pool is shut down.

    Args:
        max_workers: Pool size (default: ``os.cpu_count()``).
        chunksize: Scenarios per task sent to a worker; the default
            batches the grid into roughly four chunks per worker to
            amortise IPC without starving the pool. Either way the
            effective chunk size is capped so the grid always splits
            into at least ``min(len(scenarios), max_workers)`` tasks —
            a small grid must never collapse into one oversized chunk
            that serialises the run on a single worker.
    """

    def __init__(self, max_workers: Optional[int] = None, chunksize: Optional[int] = None):
        if max_workers is not None and max_workers < 1:
            raise ExperimentError(f"max_workers must be >= 1, got {max_workers}")
        if chunksize is not None and chunksize < 1:
            raise ExperimentError(f"chunksize must be >= 1, got {chunksize}")
        self.max_workers = max_workers or os.cpu_count() or 1
        self.chunksize = chunksize
        self._pool: Optional[ProcessPoolExecutor] = None

    @property
    def name(self) -> str:
        return f"process[{self.max_workers}]"

    # -- lifecycle --------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
        return self._pool

    def close(self) -> None:
        """Shut the pool down and release its workers (idempotent).

        A later ``run_trials`` call lazily starts a fresh pool, so a
        closed backend remains usable — closing just gives the spawn
        cost back.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ProcessPoolBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- chunk layout -----------------------------------------------------

    def _chunksize(self, total: int) -> int:
        # Invariant: the grid must split into at least
        # k = min(total, max_workers) chunks so no worker idles while
        # another crunches an oversized chunk. ceil(total/c) >= k holds
        # exactly when c <= ceil(total/(k-1)) - 1, so that is the cap
        # applied to both the default and an explicit chunksize (an
        # over-eager chunksize is a request the pool cannot honour
        # without serialising the run).
        if total <= 0:
            return 1
        k = min(self.max_workers, total)
        cap = total if k <= 1 else max(1, -(-total // (k - 1)) - 1)
        if self.chunksize is not None:
            return min(self.chunksize, cap)
        return min(cap, max(1, total // (self.max_workers * 4)))

    def chunk_layout(self, total: int) -> List[int]:
        """Chunk sizes ``run_trials_iter`` would submit for ``total``.

        Exposed so the splitting policy is testable: the layout always
        covers ``total`` exactly and contains at least
        ``min(total, max_workers)`` chunks.
        """
        if total <= 0:
            return []
        size = self._chunksize(total)
        layout = [size] * (total // size)
        if total % size:
            layout.append(total % size)
        return layout

    # -- execution --------------------------------------------------------

    def run_trials_iter(
        self, scenarios: Iterable[ScenarioSpec]
    ) -> Iterator[Tuple[int, TrialResult]]:
        scenarios = list(scenarios)
        if len(scenarios) <= 1 or self.max_workers == 1:
            yield from SerialBackend().run_trials_iter(scenarios)
            return
        pool = self._ensure_pool()
        futures = {}
        start = 0
        for size in self.chunk_layout(len(scenarios)):
            futures[pool.submit(_run_chunk, scenarios[start : start + size])] = start
            start += size
        for future in as_completed(futures):
            first = futures[future]
            for offset, trial in enumerate(future.result()):
                yield first + offset, trial

    def run_trials(self, scenarios: Iterable[ScenarioSpec]) -> List[TrialResult]:
        scenarios = list(scenarios)
        results: List[Optional[TrialResult]] = [None] * len(scenarios)
        for index, trial in self.run_trials_iter(scenarios):
            results[index] = trial
        return results  # type: ignore[return-value]


def resolve_backend(
    spec: Union[None, int, str, ExecutionBackend],
) -> ExecutionBackend:
    """Map a ``--workers``-style value to a backend.

    ``None``, ``0``, ``1`` or ``"serial"`` mean in-process execution;
    an integer > 1 (or ``"process"``/``"process:N"``) selects a process
    pool; negative counts are rejected rather than silently degraded;
    an existing backend passes through unchanged.

    The string form is stricter than the integer form: ``"process:0"``
    (and ``"process:-N"``) raise :class:`ExperimentError` instead of
    silently degrading to a serial backend — whoever wrote ``process:``
    asked for a pool, exactly like ``--workers 0`` on the command line
    is rejected rather than reinterpreted.
    """
    if spec is None:
        return SerialBackend()
    if isinstance(spec, ExecutionBackend):
        return spec
    if isinstance(spec, int):
        if spec < 0:
            raise ExperimentError(f"worker count must be >= 0, got {spec}")
        return SerialBackend() if spec <= 1 else ProcessPoolBackend(max_workers=spec)
    if isinstance(spec, str):
        if spec == "serial":
            return SerialBackend()
        if spec == "process":
            return ProcessPoolBackend()
        if spec.startswith("process:"):
            try:
                workers = int(spec.split(":", 1)[1])
            except ValueError:
                raise ExperimentError(f"malformed backend spec {spec!r}") from None
            if workers < 1:
                raise ExperimentError(
                    f"backend spec {spec!r} asks for a process pool with "
                    f"{workers} workers; a pool needs >= 1 (use 'serial' "
                    "for in-process execution)"
                )
            return resolve_backend(workers)
        raise ExperimentError(
            f"unknown backend {spec!r}; expected 'serial', 'process' or 'process:N'"
        )
    raise ExperimentError(f"cannot resolve backend from {spec!r}")

"""Executor abstraction: how the HFL engine runs its parallel work.

Algorithm 1 is embarrassingly parallel at two levels — edges are
independent within a time step, and sampled devices within an edge run
their I local SGD steps independently.  An :class:`Executor` receives,
once per time step, every edge's :class:`~repro.runtime.work_items
.EdgeRoundPlan` and streams the per-round local-update results back as
each round completes; the backend decides how the items are scheduled:

- :class:`~repro.runtime.serial.SerialExecutor` — in-process loop, the
  default and the reference semantics;
- :class:`~repro.runtime.threads.ThreadExecutor` — a thread pool with
  per-thread scratch models (BLAS kernels release the GIL);
- :class:`~repro.runtime.processes.ProcessExecutor` — a process pool;
  device datasets and the scratch model ship once per worker, edge
  models once per round.

All backends produce bit-identical results for a fixed master seed
because every work item derives its own named random stream from
``(seed, step, edge, device)`` — see :mod:`repro.runtime.work_items`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from concurrent.futures import Future, as_completed
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.runtime.work_items import (
    EdgeRoundPlan,
    RoundResults,
    WorkerContext,
    WorkerTiming,
)

#: Backend names accepted by :func:`make_executor` and ``HFLConfig.executor``.
EXECUTOR_KINDS = ("serial", "thread", "process")


class WorkerError(RuntimeError):
    """A pooled worker failed while running one edge round's items.

    Carries the ``(step, edge)`` coordinates of the failing plan so the
    caller can tell *which* round died, and chains the original worker
    exception as ``__cause__``.  Pooled backends shut down and recycle
    their pool before raising, so the executor stays usable for the
    next step.
    """

    def __init__(self, step: int, edge: int, cause: BaseException) -> None:
        super().__init__(
            f"worker failed running step {step}, edge {edge}: "
            f"{type(cause).__name__}: {cause}"
        )
        self.step = step
        self.edge = edge


class Executor(ABC):
    """Runs the local-update work of HFL time steps.

    Life cycle: :meth:`bind` once with the trainer's
    :class:`WorkerContext`, then :meth:`submit_step` (or its barrier
    form :meth:`run_step`) once per time step,
    then :meth:`close` (or use the executor as a context manager).
    Binding again replaces the context (worker pools are recycled).
    """

    #: Backend identifier (one of :data:`EXECUTOR_KINDS`).
    name: str = "executor"

    def __init__(self) -> None:
        self._context: Optional[WorkerContext] = None
        self._collect_timings = False
        self._timing_granularity = "item"
        self._timings: List[WorkerTiming] = []

    def bind(self, context: WorkerContext) -> None:
        """Attach the immutable per-run state all work items share."""
        if not isinstance(context, WorkerContext):
            raise TypeError(f"expected WorkerContext, got {type(context).__name__}")
        self._context = context
        self._on_bind()

    def _on_bind(self) -> None:
        """Backend hook: invalidate worker replicas built from an old context."""

    @property
    def context(self) -> WorkerContext:
        if self._context is None:
            raise RuntimeError("bind() must be called before running work")
        return self._context

    @abstractmethod
    def submit_step(
        self, plans: Sequence[EdgeRoundPlan]
    ) -> Iterator[Tuple[int, RoundResults]]:
        """Yield ``(plan_index, results)`` per round as results complete.

        The one execute path of every backend.  Each yielded dict maps
        device id → :class:`LocalUpdateResult` for exactly the devices
        of ``plans[plan_index]``; every plan — empty rounds included —
        is yielded exactly once, so the caller can finish early rounds
        while later ones still compute.  Completion *order* is
        backend-dependent (plan order on the serial backend), which is
        why bit-identity is the caller's job: the trainer buffers
        out-of-order rounds and finishes them in plan order.
        """

    def run_step(self, plans: Sequence[EdgeRoundPlan]) -> List[RoundResults]:
        """Barrier form of :meth:`submit_step`: results aligned with ``plans``."""
        results: List[RoundResults] = [{} for _ in plans]
        for index, round_results in self.submit_step(plans):
            results[index] = round_results
        return results

    def _stream(
        self, plans: Sequence[EdgeRoundPlan], futures: Dict[Future, int]
    ) -> Iterator[Tuple[int, RoundResults]]:
        """Yield each round once all of its pooled futures have landed.

        ``futures`` maps every submitted :meth:`WorkerContext.run_timed`
        unit to its plan index; a plan may own several units (item or
        chunk sub-plans) or none (an empty round, complete by definition
        and yielded first).
        """
        results: List[RoundResults] = [{} for _ in plans]
        remaining = [0] * len(plans)
        for index in futures.values():
            remaining[index] += 1
        for index, count in enumerate(remaining):
            if count == 0:
                yield index, results[index]
        for future in as_completed(futures):
            index = futures[future]
            try:
                unit_results, timings = future.result()
            except Exception as exc:
                self._on_worker_error(plans[index], exc, futures)
                raise
            results[index].update(unit_results)
            self._timings.extend(timings)
            remaining[index] -= 1
            if remaining[index] == 0:
                yield index, results[index]

    def _on_worker_error(
        self, plan: EdgeRoundPlan, exc: Exception, futures: Dict[Future, int]
    ) -> None:
        """Backend hook for a failed unit of ``plan``; the default lets
        the worker's exception propagate unchanged."""

    # -- worker-timing attribution (observability opt-in) --------------------

    def enable_worker_timings(self, granularity: str = "item") -> None:
        """Start collecting :class:`WorkerTiming` records.

        Off by default: the reference path pays nothing.  When enabled,
        each backend measures work where it executes and the caller
        drains the records with :meth:`drain_worker_timings` after each
        step.

        ``granularity="item"`` times every device's local update
        individually — full attribution, but it forces the backends off
        their fused/population-batched round paths, which costs real
        wall-clock.  ``granularity="round"`` times whole edge rounds
        (one clock pair per round or per worker chunk) on top of the
        unchanged fast path — near-zero overhead, per-edge attribution
        only (``device=-1``).  The continuous profiler uses ``"round"``;
        span tracing, which needs per-device spans, uses ``"item"``.
        Calling with ``"item"`` wins over an earlier ``"round"`` call.
        """
        if granularity not in ("item", "round"):
            raise ValueError(
                f"granularity must be 'item' or 'round', got {granularity!r}"
            )
        if self._collect_timings and self._timing_granularity == "item":
            return  # item granularity subsumes round granularity
        self._collect_timings = True
        self._timing_granularity = granularity

    @property
    def collects_worker_timings(self) -> bool:
        return self._collect_timings

    @property
    def timing_granularity(self) -> str:
        return self._timing_granularity

    def _timing_mode(self) -> Optional[str]:
        """The :meth:`WorkerContext.run_timed` granularity (``None`` = off)."""
        return self._timing_granularity if self._collect_timings else None

    def drain_worker_timings(self) -> List[WorkerTiming]:
        """Return and clear the timings accumulated since the last drain."""
        timings, self._timings = self._timings, []
        return timings

    def close(self) -> None:
        """Release worker resources (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def resolve_num_workers(num_workers: Optional[int]) -> int:
    """Default the worker count to the machine's CPU count (min 1)."""
    if num_workers is None:
        import os

        return os.cpu_count() or 1
    if num_workers <= 0:
        raise ValueError(f"num_workers must be positive, got {num_workers}")
    return int(num_workers)


def make_executor(kind: str, num_workers: Optional[int] = None) -> Executor:
    """Instantiate a backend by name (``serial`` / ``thread`` / ``process``).

    ``num_workers`` is ignored by the serial backend and defaults to the
    CPU count for the pooled ones.
    """
    if kind == "serial":
        from repro.runtime.serial import SerialExecutor

        return SerialExecutor()
    if kind == "thread":
        from repro.runtime.threads import ThreadExecutor

        return ThreadExecutor(num_workers=num_workers)
    if kind == "process":
        from repro.runtime.processes import ProcessExecutor

        return ProcessExecutor(num_workers=num_workers)
    raise ValueError(
        f"unknown executor kind {kind!r}; choose from {EXECUTOR_KINDS}"
    )

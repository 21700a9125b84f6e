"""Process-pool backend: true multi-core parallelism for CPU-bound updates.

Shipping discipline (what crosses the process boundary, and how often):

- once per worker, at pool start: the :class:`WorkerContext` — scratch
  model architecture + weights and every device's dataset — via the
  pool initializer;
- once per round chunk: the edge's flattened start model ``w^t_n`` and
  the (tiny, scalar-only) work items;
- back per item: the device's flattened final model and its gradient
  statistics.

A round's items are split into at most ``num_workers`` contiguous
chunks so device-level parallelism survives even a single-edge step
while the start model is serialized a bounded number of times per
round.  Results are keyed by device id, so completion order never
matters; combined with per-``(step, edge, device)`` seed streams this
backend is bit-identical to :class:`~repro.runtime.serial.SerialExecutor`.

The context's scratch model crosses the process boundary (pickle on
spawn platforms, fork inheritance otherwise) *without* its flat-alias
state — ``Model.__getstate__`` drops it — so each worker re-aliases
parameters into its own canonical flat buffer on the first local
update it runs.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import Future, ProcessPoolExecutor as _ProcessPool
from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.base import Executor, WorkerError, resolve_num_workers
from repro.runtime.work_items import (
    EdgeRoundPlan,
    LocalUpdateItem,
    RoundResults,
    WorkerContext,
    WorkerTiming,
)

#: Per-process context installed by the pool initializer.
_WORKER_CONTEXT: Optional[WorkerContext] = None


def _init_worker(context: WorkerContext) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = context


def _run_chunk(
    chunk: EdgeRoundPlan, granularity: Optional[str]
) -> Tuple[RoundResults, List[WorkerTiming]]:
    """Worker-side entry: run one chunk of a round (population-batched
    when homogeneous), timed on the worker's own clock when asked."""
    if _WORKER_CONTEXT is None:  # pragma: no cover - defensive
        raise RuntimeError("worker pool was not initialized with a context")
    return _WORKER_CONTEXT.run_timed(
        chunk, granularity, multiprocessing.current_process().name
    )


def _chunk(
    items: Tuple[LocalUpdateItem, ...], num_chunks: int
) -> List[Tuple[LocalUpdateItem, ...]]:
    """Split ``items`` into at most ``num_chunks`` contiguous, even chunks."""
    num_chunks = min(num_chunks, len(items))
    if num_chunks <= 1:
        return [items]
    bounds = np.linspace(0, len(items), num_chunks + 1).astype(int)
    return [
        items[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo
    ]


class ProcessExecutor(Executor):
    """Fan device local-updates out over a process pool."""

    name = "process"

    def __init__(self, num_workers: Optional[int] = None) -> None:
        super().__init__()
        self.num_workers = resolve_num_workers(num_workers)
        self._pool: Optional[_ProcessPool] = None

    def _on_bind(self) -> None:
        # Workers were initialized with the previous context; recycle.
        self._shutdown_pool()

    def _ensure_pool(self) -> _ProcessPool:
        if self._pool is None:
            # Fork (where available) inherits the context without a
            # pickle round-trip; spawn platforms serialize it once.
            methods = multiprocessing.get_all_start_methods()
            mp_context = multiprocessing.get_context(
                "fork" if "fork" in methods else None
            )
            self._pool = _ProcessPool(
                max_workers=self.num_workers,
                mp_context=mp_context,
                initializer=_init_worker,
                initargs=(self.context,),
            )
        return self._pool

    def submit_step(
        self, plans: Sequence[EdgeRoundPlan]
    ) -> Iterator[Tuple[int, RoundResults]]:
        """Yield each round once all of its chunks have landed."""
        self.context  # fail fast before touching the pool
        submit = self._ensure_pool().submit
        granularity = self._timing_mode()
        futures = {}
        for index, plan in enumerate(plans):
            if not plan.items:
                continue
            for chunk in _chunk(plan.items, self.num_workers):
                unit = replace(plan, items=chunk)
                futures[submit(_run_chunk, unit, granularity)] = index
        yield from self._stream(plans, futures)

    def _on_worker_error(
        self, plan: EdgeRoundPlan, exc: Exception, futures: Dict[Future, int]
    ) -> None:
        # A worker raised (or the pool broke, orphaning every future).
        # Cancel what has not started, tear the pool down and recycle it
        # so the *next* step gets a fresh pool instead of hanging on dead
        # processes.
        for future in futures:
            future.cancel()
        self._shutdown_pool()
        raise WorkerError(plan.step, plan.edge, exc) from exc

    def _shutdown_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def close(self) -> None:
        self._shutdown_pool()

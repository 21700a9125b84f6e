"""Thread-pool backend: shared memory, per-thread scratch models."""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor as _ThreadPool
from dataclasses import replace
from typing import Iterator, Optional, Sequence, Tuple

from repro.hotpath import hotpath_enabled
from repro.nn.population import (
    population_batching_enabled,
    supports_population_batch,
)
from repro.runtime.base import Executor, resolve_num_workers
from repro.runtime.work_items import EdgeRoundPlan, RoundResults


class ThreadExecutor(Executor):
    """Fan device local-updates out over a thread pool.

    Edge start models and device datasets are shared read-only across
    threads; each thread lazily clones the bound context once to get a
    private scratch model (the only mutable state a work item touches).
    Pure-Python layer code serializes on the GIL, but the BLAS matmuls
    inside forward/backward release it, so multi-core machines see a
    modest speedup at zero serialization cost.

    Each clone's deepcopy drops the model's flat-alias state
    (``Model.__getstate__``), so every thread's scratch model re-aliases
    its parameters into a private canonical flat buffer on first use —
    no thread ever writes through another thread's views.
    """

    name = "thread"

    def __init__(self, num_workers: Optional[int] = None) -> None:
        super().__init__()
        self.num_workers = resolve_num_workers(num_workers)
        self._pool: Optional[_ThreadPool] = None
        self._thread_local = threading.local()

    def _on_bind(self) -> None:
        # Thread-local clones were built from the previous context.
        self._thread_local = threading.local()

    def _ensure_pool(self) -> _ThreadPool:
        if self._pool is None:
            self._pool = _ThreadPool(
                max_workers=self.num_workers,
                thread_name_prefix="repro-runtime",
            )
        return self._pool

    def _local_context(self):
        context = getattr(self._thread_local, "context", None)
        if context is None:
            context = self.context.clone()
            self._thread_local.context = context
        return context

    def _run_unit(self, plan: EdgeRoundPlan, granularity: Optional[str]):
        return self._local_context().run_timed(
            plan, granularity, threading.current_thread().name
        )

    def submit_step(
        self, plans: Sequence[EdgeRoundPlan]
    ) -> Iterator[Tuple[int, RoundResults]]:
        """Yield edge rounds in true completion order (:func:`as_completed`).

        On the population-batched engine each round is one pool task —
        one stacked pass beats item-granular futures (the big matmuls
        release the GIL, and rounds still fan out across edges).
        Otherwise, and whenever per-item timing attribution is on, every
        device is its own single-item task and a round is yielded the
        moment its last item lands.
        """
        context = self.context  # fail fast before touching the pool
        submit = self._ensure_pool().submit
        granularity = self._timing_mode()
        per_round = (
            granularity != "item"
            and hotpath_enabled()
            and population_batching_enabled()
            and supports_population_batch(context.model)
        )
        futures = {}
        for index, plan in enumerate(plans):
            units = (
                [plan] if per_round and plan.items
                else [replace(plan, items=(item,)) for item in plan.items]
            )
            for unit in units:
                futures[submit(self._run_unit, unit, granularity)] = index
        yield from self._stream(plans, futures)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._thread_local = threading.local()

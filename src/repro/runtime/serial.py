"""The serial backend: reference semantics, zero overhead, the default."""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

from repro.runtime.base import Executor
from repro.runtime.work_items import EdgeRoundPlan, RoundResults


class SerialExecutor(Executor):
    """Run every work item in the calling thread, in plan order.

    Uses the trainer's own scratch model directly (no clone) — and with
    it the trainer model's canonical flat parameter buffer, aliased once
    and reused for every device's fused local-update loop.  An
    ``executor=None`` / ``executor="serial"`` run costs exactly what the
    pre-runtime engine did.  The parallel backends are defined to be
    bit-identical to this one for the same master seed.

    Rounds are computed lazily: each is yielded as soon as it is done,
    so the caller finishes round ``i`` before round ``i + 1`` runs.
    """

    name = "serial"

    def submit_step(
        self, plans: Sequence[EdgeRoundPlan]
    ) -> Iterator[Tuple[int, RoundResults]]:
        context = self.context
        granularity = self._timing_mode()
        for index, plan in enumerate(plans):
            results, timings = context.run_timed(plan, granularity)
            self._timings.extend(timings)
            yield index, results

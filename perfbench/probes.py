"""Layer probes: time repro's layers from outside, at their public boundaries.

Every probe replaces a public function or method *where its callers look
it up* (a class attribute, or a module global that another module
imported by name) with a wrapper, and puts the original back on
:meth:`Probes.uninstall`.  Nothing under ``src/`` is edited.

Two modes:

- untimed-layer mode (``tracing=False``): only the engine step clock is
  installed — one ``perf_counter`` pair per engine step — which is what
  the end-to-end metrics need (step wall times, admitted updates).
- traced mode (``tracing=True``): every boundary below records a span
  ``(id, name, start, end, parent id, thread)`` into an in-memory list,
  and a few wrappers also run the benchmark's invariant checks
  (:mod:`checks`).  Spans are written out once, when the run ends.

All recording is append-only on plain lists (atomic under the GIL), so
the thread executor's workers and the coordinator's dispatcher thread
can record concurrently without locks; totals are summed afterwards.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import checks

clock = time.perf_counter

def layer_of(name: str) -> str:
    """The layer a span belongs to: the text before the first dot
    ("nn.conv.forward" -> "nn")."""
    return name.split(".", 1)[0]


def _classes_defining(base: type, attr: str) -> List[type]:
    """``base`` and every loaded subclass that defines ``attr`` itself."""
    seen, out, todo = set(), [], [base]
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if attr in cls.__dict__:
            out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


class Probes:
    """Installs the wrappers and holds what they record."""

    def __init__(self, tracing: bool) -> None:
        self.tracing = tracing
        #: Engine step wall times and admitted updates (both modes).
        self.step_seconds: List[float] = []
        self.step_participants: List[int] = []
        #: perf_counter at which the current scenario's first engine
        #: step started (setup ends there); reset by the caller.
        self.first_step_at: Optional[float] = None
        #: Traced mode: spans ``(id, name, start, end, parent id, thread,
        #: request)`` and counter events.  ``request`` is the index of the
        #: scenario being run (set by the caller), shared by every span of
        #: that scenario whichever thread records it.
        self.spans: List[Tuple[int, str, float, float, int, int, int]] = []
        self.request = -1
        self.events: List[Tuple[str, float]] = []
        #: Invariant violations seen by the traced checks.
        self.violations: List[str] = []
        #: Scenarios built during the run, in build order, as
        #: ``build_scenario`` returns them (callers drop each once used).
        self.built: List[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        self._originals: Dict[Tuple[object, str], Callable] = {}
        self._trainer = None
        self._draws: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1.0) -> None:
        self.events.append((name, amount))

    def span(self, name: str):
        """Context manager recording one span (used for client-side calls)."""
        return _SpanScope(self, name)

    def _open(self, name: str) -> Tuple[int, int, float]:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent, clock()

    def _close(self, name: str, span_id: int, parent: int, start: float) -> float:
        end = clock()
        self._stack().pop()
        self.spans.append(
            (span_id, name, start, end, parent, threading.get_ident(), self.request)
        )
        return end - start

    # -- patch plumbing -----------------------------------------------------

    def original(self, owner, attr: str) -> Callable:
        """The unwrapped callable (checks call it to stay out of spans)."""
        return self._originals.get((owner, attr), getattr(owner, attr))

    def _patch(self, owner, attr: str, make_wrapper) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        static = isinstance(raw, staticmethod)
        func = raw.__func__ if static else raw
        wrapper = functools.wraps(func)(make_wrapper(func))
        self._originals[(owner, attr)] = func
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)

    def substitute(self, owner, attr: str, value) -> None:
        """Replace ``owner.attr`` outright (restored by :meth:`uninstall`)."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _timed(self, owner, attr: str, name: str, after=None) -> None:
        """Wrap ``owner.attr`` in a span named ``name``; ``after`` sees
        ``(result, args, kwargs)`` once the span has closed."""
        probe = self

        def make(func):
            def wrapper(*args, **kwargs):
                span_id, parent, start = probe._open(name)
                try:
                    result = func(*args, **kwargs)
                finally:
                    probe._close(name, span_id, parent, start)
                if after is not None:
                    # Checks and counters get their own span so their
                    # cost is not billed to the layer they observe.
                    check_id, check_parent, check_start = probe._open("bench.check")
                    try:
                        after(result, args, kwargs)
                    finally:
                        probe._close("bench.check", check_id, check_parent, check_start)
                return result

            return wrapper

        self._patch(owner, attr, make)

    def _timed_generator(self, owner, attr: str, name: str, on_item=None,
                         on_close=None) -> None:
        """Wrap a generator method: one span per ``next()`` (the time
        spent producing each item), ``on_item`` sees each item and
        ``on_close`` runs once the generator is done."""
        probe = self

        def make(func):
            def wrapper(*args, **kwargs):
                inner = func(*args, **kwargs)
                try:
                    while True:
                        if probe.tracing:
                            span_id, parent, start = probe._open(name)
                        else:
                            start = clock()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            if probe.tracing:
                                seconds = probe._close(name, span_id, parent, start)
                            else:
                                seconds = clock() - start
                        if on_item is not None:
                            on_item(item, start, seconds)
                        yield item
                finally:
                    inner.close()
                    if on_close is not None:
                        on_close()

            return wrapper

        self._patch(owner, attr, make)

    def uninstall(self) -> None:
        """Put every original back (reverse order, so stacked patches unwind)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)
        self._originals.clear()

    # -- installation -------------------------------------------------------

    def install(self) -> "Probes":
        from repro.hfl.trainer import HFLTrainer

        def on_step(outcome, start, seconds):
            if self.first_step_at is None:
                self.first_step_at = start
            self.step_seconds.append(seconds)
            self.step_participants.append(int(outcome.participants))

        def on_close():
            # Let a finished city-scale trainer be freed before the next build.
            self._trainer = None

        self._timed_generator(HFLTrainer, "steps", "hfl.step", on_step, on_close)
        self._capture_builds()
        if self.tracing:
            self._install_layers()
        return self

    def _capture_builds(self) -> None:
        """Keep each built scenario for the replay digests and the
        independent accuracy check (callers drop them per round)."""
        import repro.experiments.runner as runner
        import repro.service.coordinator as coordinator

        probe = self

        def make(func):
            def wrapper(*args, **kwargs):
                if probe.tracing:
                    span_id, parent, start = probe._open("data.scenario")
                try:
                    scenario = func(*args, **kwargs)
                finally:
                    if probe.tracing:
                        probe._close("data.scenario", span_id, parent, start)
                probe.built.append(scenario)
                return scenario

            return wrapper

        self._patch(runner, "build_scenario", make)
        # The coordinator imported build_scenario by name; wrap its copy too.
        self._patch(coordinator, "build_scenario", make)

    def _install_layers(self) -> None:
        import repro.experiments.runner as runner
        import repro.hfl.trainer as trainer_mod
        from repro.churn.process import ChurnProcess
        from repro.faults.checkpoint import TrainerCheckpoint
        from repro.faults.model import FaultModel
        from repro.hfl.device import Device
        from repro.hfl.edge import Edge
        from repro.hfl.trainer import HFLTrainer
        from repro.mobility import streaming
        from repro.mobility.trace import MobilityTrace
        from repro.nn import population
        from repro.nn.layers import Conv2d, Dense, MaxPool2d, ReLU
        from repro.nn.loss import SoftmaxCrossEntropy
        from repro.obs.health import HealthMonitor
        from repro.obs.metrics import Counter, Gauge, Histogram
        from repro.runtime.base import Executor
        from repro.runtime.work_items import WorkerContext
        from repro.sampling.base import Sampler
        from repro.topology.base import AggregationStrategy

        # Scenario build.
        self._timed(runner, "make_federated_task", "data.build")
        self._timed(runner, "build_trace", "mobility.trace_build")

        def init_after(result, args, kwargs):
            self._trainer = args[0]

        self._timed(HFLTrainer, "__init__", "hfl.trainer_init", init_after)

        # Sampler: Eq. (3) checks ride on probabilities().
        for cls in _classes_defining(Sampler, "probabilities"):
            self._timed(cls, "probabilities", "sampling.probabilities",
                        self._check_probabilities)
        for attr in ("observe_participation", "observe_failure"):
            for cls in _classes_defining(Sampler, attr):
                self._timed(cls, attr, "sampling.feedback")
        for cls in _classes_defining(Sampler, "on_global_sync"):
            self._timed(cls, "on_global_sync", "sampling.global_sync")

        # Participation draws and edge aggregation (admitted-upload check).
        self._timed(Edge, "draw_participation", "hfl.draw", self._remember_draw)
        self._timed(Edge, "aggregate", "hfl.edge_aggregate", self._check_admitted)
        for attr, name in (("apply", "topology.apply"),
                           ("virtual_global", "topology.virtual_global")):
            for cls in _classes_defining(AggregationStrategy, attr):
                self._timed(cls, attr, name)

        # Mobility queries and chunk generation.
        for cls in (MobilityTrace, streaming.StreamingTrace):
            for attr in ("devices_at", "counts_at", "assignment_row", "edge_of"):
                self._timed(cls, attr, "mobility.query")
        for cls in (streaming.DenseChunkProvider, streaming.StaticChunkProvider,
                    streaming.MarkovChunkProvider):
            self._timed(cls, "chunk", "mobility.chunk")

        # Executors: count only the outermost call (the base submit_step
        # delegates to run_step).
        for cls in _classes_defining(Executor, "run_step"):
            self._timed_outermost(cls, "run_step", "runtime.step")
        for cls in _classes_defining(Executor, "submit_step"):
            self._timed_outermost(cls, "submit_step", "runtime.step", generator=True)
        self._timed(WorkerContext, "run_item", "runtime.item",
                    lambda r, a, k: self.count("runtime.items"))

        def batched(result, args, kwargs):
            n = int(np.asarray(args[2]).shape[1])
            self.count("runtime.items", n)
            self.count("runtime.batched_items", n)
            self.count("nn.local_updates", n)

        self._timed(population.PopulationModel, "local_updates",
                    "nn.population_update", batched)

        # NN.
        self._timed(Device, "local_update", "nn.local_update",
                    lambda r, a, k: self.count("nn.local_updates"))
        for cls, label in ((Conv2d, "conv"), (MaxPool2d, "pool"),
                           (Dense, "dense"), (ReLU, "relu"),
                           (population._PopDense, "dense"),
                           (population._PopReLU, "relu")):
            self._timed(cls, "forward", f"nn.{label}.forward")
            self._timed(cls, "backward", f"nn.{label}.backward")
        for cls in (SoftmaxCrossEntropy, population._PopSoftmaxCrossEntropy):
            self._timed(cls, "forward", "nn.loss")
            self._timed(cls, "backward", "nn.loss")
        self._timed(trainer_mod, "evaluate", "nn.evaluate")

        # Open world.
        for cls in _classes_defining(FaultModel, "upload_fault"):
            self._timed(cls, "upload_fault", "faults.upload",
                        lambda r, a, k: self.count("faults.uploads_attempted"))

        def sync_after(outcome, args, kwargs):
            self.count("faults.sync_failures", outcome.failed_attempts)

        for cls in _classes_defining(FaultModel, "sync_outcome"):
            self._timed(cls, "sync_outcome", "faults.sync", sync_after)

        def churn_after(step, args, kwargs):
            self.count("churn.joined", len(step.joined))
            self.count("churn.left", len(step.left))

        self._timed(ChurnProcess, "step", "churn.step", churn_after)

        # Durability.
        def saved(path, args, kwargs):
            self.count("checkpoint.saves")
            self.count("checkpoint.bytes", path.stat().st_size)

        self._timed(TrainerCheckpoint, "save", "checkpoint.save", saved)

        # Observability sinks.
        self._timed(Counter, "inc", "obs.record")
        self._timed(Gauge, "set", "obs.record")
        self._timed(Histogram, "observe", "obs.record")
        self._timed(HealthMonitor, "observe", "obs.health_observe")

    def _timed_outermost(self, owner, attr: str, name: str,
                         generator: bool = False) -> None:
        """Like :meth:`_timed`, counting plan rounds only on the outermost
        executor call of this thread."""
        probe = self

        def make(func):
            if generator:
                def wrapper(executor, plans, *args, **kwargs):
                    outer = not getattr(probe._local, "in_runtime", False)
                    if outer:
                        probe.count("runtime.rounds", len(plans))
                    inner = func(executor, plans, *args, **kwargs)
                    try:
                        while True:
                            span_id, parent, start = probe._open(name)
                            probe._local.in_runtime = True
                            try:
                                item = next(inner)
                            except StopIteration:
                                return
                            finally:
                                probe._local.in_runtime = not outer
                                probe._close(name, span_id, parent, start)
                            yield item
                    finally:
                        inner.close()
            else:
                def wrapper(executor, plans, *args, **kwargs):
                    outer = not getattr(probe._local, "in_runtime", False)
                    if outer:
                        probe.count("runtime.rounds", len(plans))
                    span_id, parent, start = probe._open(name)
                    probe._local.in_runtime = True
                    try:
                        return func(executor, plans, *args, **kwargs)
                    finally:
                        probe._local.in_runtime = not outer
                        probe._close(name, span_id, parent, start)
            return wrapper

        self._patch(owner, attr, make)

    # -- traced invariant checks ---------------------------------------------

    def _check_probabilities(self, probabilities, args, kwargs) -> None:
        sampler, t, edge, members, capacity = args[:5]
        problem = checks.probability_violation(probabilities, capacity)
        if problem is not None:
            self.violations.append(f"step {t} edge {edge}: {problem}")
        trainer = self._trainer
        if trainer is None:
            return
        trace = trainer.trace
        row = self.original(type(trace), "assignment_row")(trace, t)
        active = None if trainer.churn is None else trainer.churn.active_mask
        problem = checks.candidate_violation(members, row, edge, active)
        if problem is not None:
            self.violations.append(f"step {t} edge {edge}: {problem}")

    def _remember_draw(self, indicators, args, kwargs) -> None:
        probabilities = args[0]
        # Keyed by identity: the trainer hands this very array to
        # Edge.aggregate in the finish phase.
        self._draws[id(probabilities)] = (probabilities, np.asarray(indicators))

    def _check_admitted(self, result, args, kwargs) -> None:
        edge, members, probabilities, results = args[:4]
        drawn = self._draws.pop(id(probabilities), None)
        if drawn is None or drawn[0] is not probabilities:
            self.violations.append(
                f"edge {edge.edge_id}: aggregate without a recorded draw"
            )
            return
        self.count("hfl.admitted_uploads", len(results))
        problem = checks.admitted_violation(results, members, drawn[1])
        if problem is not None:
            self.violations.append(f"edge {edge.edge_id}: {problem}")

    # -- summaries ----------------------------------------------------------

    def counters(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for name, amount in self.events:
            totals[name] += amount
        return totals

    def span_totals(self) -> Tuple[Dict[str, float], Dict[str, int], Dict[str, float]]:
        """Per span name: total seconds and calls; per layer: self seconds."""
        seconds: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        child_time: Dict[int, float] = defaultdict(float)
        for _sid, name, start, end, parent, *_rest in self.spans:
            seconds[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child_time[parent] += end - start
        self_seconds: Dict[str, float] = defaultdict(float)
        for sid, name, start, end, *_rest in self.spans:
            self_seconds[layer_of(name)] += (end - start) - child_time.get(sid, 0.0)
        return seconds, calls, self_seconds

    def covered_seconds(self, intervals: List[Tuple[float, float]]) -> float:
        """Seconds of ``intervals`` (wall windows) that some span covers."""
        spans = sorted((s[2], s[3]) for s in self.spans)
        merged: List[List[float]] = []
        for start, end in spans:
            if merged and start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        covered = 0.0
        for lo, hi in intervals:
            for start, end in merged:
                if end <= lo or start >= hi:
                    continue
                covered += min(end, hi) - max(start, lo)
        return covered

    def write_spans(self, path) -> None:
        """Dump the spans (names interned) as one compressed numpy file."""
        names = sorted({s[1] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        threads = sorted({s[5] for s in self.spans})
        tindex = {t: i for i, t in enumerate(threads)}
        np.savez_compressed(
            path,
            names=np.array(names),
            span_id=np.array([s[0] for s in self.spans], dtype=np.int64),
            name=np.array([index[s[1]] for s in self.spans], dtype=np.int32),
            start=np.array([s[2] for s in self.spans]),
            end=np.array([s[3] for s in self.spans]),
            parent=np.array([s[4] for s in self.spans], dtype=np.int64),
            thread=np.array([tindex[s[5]] for s in self.spans], dtype=np.int32),
            request=np.array([s[6] for s in self.spans], dtype=np.int32),
        )


class _SpanScope:
    def __init__(self, probe: Probes, name: str) -> None:
        self.probe, self.name = probe, name
        self.seconds = 0.0

    def __enter__(self) -> "_SpanScope":
        if self.probe.tracing:
            self._open = self.probe._open(self.name)
        else:
            self._start = clock()
        return self

    def __exit__(self, *exc_info) -> None:
        if self.probe.tracing:
            self.seconds = self.probe._close(self.name, *self._open)
        else:
            self.seconds = clock() - self._start

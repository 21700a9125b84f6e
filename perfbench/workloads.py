"""The three workloads: scenario make-up, round loops and metric roll-up.

Runs inside the workload interpreter (``run.py`` starts it with the hash
seed and BLAS thread count pinned).  A run is ``R`` whole rounds of the
same operations, ``R`` fixed by ``--seconds`` (never by a clock reading),
so every run of a workload attempts the same operations:

- ``cnn-mnist`` / ``city-100k`` round: one ``repro.api.run_scenario``
  call (scenario build, trainer construction, the fixed horizon, the
  final model's SHA-256);
- ``service-open`` round: start a ``CoordinatorServer``, handshake, then
  a closed loop of ``SUBMISSIONS`` runs (submit, follow the round
  stream, status, summary) and shut the server down.

Checks that need the program again (the numpy forward pass, the serial
reference SHA for service runs) run after the measured rounds, with the
layer probes removed, so they never land in a measured number.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import shutil
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import checks
from probes import Probes, clock

#: Devices sampled per step at city scale (participation = this / devices).
CITY_CAPACITY = 48
#: Closed-loop submissions per service round (one server lifetime).
SUBMISSIONS = 2
#: Service checkpoint cadence in engine steps.
CHECKPOINT_EVERY = 5
#: Compute threads: never more than the machine has, and at most two.
WORKERS = max(1, min(2, os.cpu_count() or 1))


def _mnist(scenario_seed: int):
    from repro.experiments.config import PRESETS

    return PRESETS["mnist-bench"].with_overrides(
        num_steps=60, target_accuracy=0.6, executor="serial", seed=scenario_seed
    )


def _city(scenario_seed: int):
    from repro.experiments.config import PRESETS

    devices = 100_000
    return PRESETS["blobs-bench"].with_overrides(
        num_devices=devices,
        num_edges=8,
        participation_fraction=CITY_CAPACITY / devices,
        samples_per_device=10,
        trace_kind="markov",
        trace_backend="streaming",
        mach_selection="topk",
        eval_cadence="adaptive",
        num_steps=60,
        target_accuracy=0.65,
        executor="serial",
        seed=scenario_seed,
    )


def _service(scenario_seed: int):
    from repro.experiments.config import PRESETS

    return PRESETS["blobs-bench"].with_overrides(
        num_devices=300,
        num_edges=6,
        participation_fraction=0.2,
        num_steps=40,
        fault_profile="moderate",
        churn_profile="moderate",
        max_staleness=2,
        executor="thread",
        num_workers=WORKERS,
        target_accuracy=0.7,
        seed=scenario_seed,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sync" | "service"
    make_config: Callable[[int], object]
    #: Nominal seconds of one round on the reference host; a run makes
    #: ceil(--seconds / round_seconds) rounds.
    round_seconds: float
    #: Rebuild each scenario in a second interpreter (cheap beside the run).
    replay: bool


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("cnn-mnist", "sync", _mnist, 6.0, replay=True),
        Workload("city-100k", "sync", _city, 12.5, replay=False),
        Workload("service-open", "service", _service, 12.0, replay=True),
    )
}

#: Scenario seeds drawn from --seed start here, clear of the panel.
SEEDED_BASE = 10_000


def round_count(workload: Workload, seconds: float) -> int:
    return max(1, math.ceil(seconds / workload.round_seconds))


def scenario_seeds(workload: Workload, seed: int, rounds: int) -> List[List[Tuple[int, bool]]]:
    """Per round, ``(scenario seed, on the panel)`` for each scenario it runs.

    Half the scenarios come from a fixed panel (seeds 0, 1, ...) and half
    from ``--seed``.  Timing metrics pool all of them; ``steps_to_target``
    and ``final_accuracy`` average the panel alone, because MACH's
    rounds-to-target varies by more than any useful bound across scenario
    seeds (see README), while on a fixed panel it repeats exactly and
    moves only when arithmetic or random streams change.
    """
    seeded = SEEDED_BASE * (seed % 2**31 + 1)  # any integer --seed works
    if workload.kind == "service":
        return [[(r, True), (seeded + r, False)] for r in range(rounds)]
    return [
        [(r // 2, True)] if r % 2 == 0 else [(seeded + r, False)]
        for r in range(rounds)
    ]


def calibration_seconds() -> float:
    """Median time of a fixed pure-Python loop: host speed, apart from repro."""
    samples = []
    for _ in range(5):
        start = clock()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        samples.append(clock() - start)
    return statistics.median(samples)


def steps_to_target(steps, accuracy, target: float) -> Optional[int]:
    for step, acc in zip(steps, accuracy):
        if acc >= target:
            return int(step)
    return None


# -- one scenario's bookkeeping ----------------------------------------------


@dataclass
class ScenarioRecord:
    config: object
    e2e_s: float
    steps_to_target: Optional[int]
    reported_target_at: Optional[int]
    final_accuracy: float
    sha256: str
    panel: bool = True
    digests: Optional[Dict[str, str]] = None
    final_model: Optional[np.ndarray] = None
    test: object = None
    model_factory: object = None
    late_admits: int = 0
    late_drops: int = 0


def _digests(scenario) -> Dict[str, str]:
    devices, test, trace, _factory = scenario
    assignments = getattr(trace, "assignments", None)
    if assignments is None:
        assignments = trace.materialize().assignments
    return checks.scenario_digests(devices, test, assignments)


class Runner:
    """Runs a workload's rounds and keeps what the metrics need."""

    def __init__(self, workload: Workload, workdir: Path) -> None:
        self.workload = workload
        self.workdir = workdir
        self.records: List[ScenarioRecord] = []
        self.setups: List[float] = []
        self.round_windows: List[tuple] = []
        self.service_calls: Dict[str, List[float]] = {
            "submit": [], "first_round": [], "status": [], "result": []
        }
        self.rounds_streamed = 0
        self.telemetry: List[object] = []
        self.problems: List[str] = []

    # -- synchronous rounds --------------------------------------------------

    def sync_round(self, probes: Probes, config, panel: bool, telemetry) -> None:
        import repro.api as api

        probes.first_step_at = None
        probes.request = len(self.records)
        built_before = len(probes.built)
        start = clock()
        result = api.run_scenario(config, sampler="mach", telemetry=telemetry)
        sha = hashlib.sha256(result.final_cloud_model.tobytes()).hexdigest()
        end = clock()
        self.setups.append(probes.first_step_at - start)
        self.round_windows.append((start, end))
        scenario = probes.built[built_before]
        probes.built[built_before] = None  # a city-scale build is ~400 MB
        history = result.history
        self.records.append(
            ScenarioRecord(
                config=config,
                e2e_s=end - start,
                steps_to_target=steps_to_target(
                    history.steps, history.accuracy, config.target_accuracy
                ),
                reported_target_at=result.reached_target_at,
                final_accuracy=history.final_accuracy(),
                sha256=sha,
                panel=panel,
                digests=_digests(scenario) if self.workload.replay else None,
                final_model=result.final_cloud_model,
                test=scenario[1],
                model_factory=scenario[3],
                late_admits=result.late_admits,
                late_drops=result.late_drops,
            )
        )

    # -- service rounds ------------------------------------------------------

    def service_round(self, probes: Probes, configs, panels, index: int) -> None:
        import repro.api as api
        from repro.faults import TrainerCheckpoint
        from repro.service.coordinator import Coordinator
        from repro.service.http import CoordinatorServer

        state_dir = self.workdir / f"state-{index}"
        shutil.rmtree(state_dir, ignore_errors=True)
        start = clock()
        coordinator = Coordinator(state_dir=state_dir, checkpoint_every=CHECKPOINT_EVERY)
        server = CoordinatorServer(coordinator)
        thread = server.serve_background()
        try:
            with probes.span("service.handshake"):
                client = api.attach(server.url)
            for position, (config, panel) in enumerate(zip(configs, panels)):
                probes.request = len(self.records)
                built_before = len(probes.built)
                submitted = clock()
                with probes.span("service.submit") as call:
                    run_id = client.submit(config, sampler="mach")
                self.service_calls["submit"].append(call.seconds)
                first = None
                streamed = 0
                for _status in client.stream(run_id, follow=True):
                    if first is None:
                        first = clock()
                    streamed += 1
                self.rounds_streamed += streamed
                self.service_calls["first_round"].append(first - submitted)
                if position == 0:
                    self.setups.append(first - start)
                with probes.span("service.status") as call:
                    status = client.status(run_id)
                self.service_calls["status"].append(call.seconds)
                with probes.span("service.result") as call:
                    summary = client.summary(run_id)
                self.service_calls["result"].append(call.seconds)
                end = clock()
                self.round_windows.append((submitted, end))
                if status.state != "completed" or streamed != config.num_steps:
                    self.problems.append(
                        f"{run_id}: state {status.state}, {streamed} of "
                        f"{config.num_steps} rounds streamed"
                    )
                checkpoint, _used = TrainerCheckpoint.load_with_fallback(
                    state_dir / "runs" / run_id / "checkpoint.json"
                )
                last = (config.num_steps // CHECKPOINT_EVERY) * CHECKPOINT_EVERY
                if checkpoint.step != last:
                    self.problems.append(
                        f"{run_id}: checkpoint at step {checkpoint.step}, expected {last}"
                    )
                scenario = probes.built[built_before]
                probes.built[built_before] = None
                history = summary.history
                self.records.append(
                    ScenarioRecord(
                        config=config,
                        e2e_s=end - submitted,
                        steps_to_target=steps_to_target(
                            history["steps"], history["accuracy"],
                            config.target_accuracy,
                        ),
                        reported_target_at=summary.reached_target_at,
                        final_accuracy=summary.final_accuracy,
                        sha256=summary.cloud_model_sha256,
                        panel=panel,
                        digests=_digests(scenario),
                        late_admits=summary.late_admits,
                        late_drops=summary.late_drops,
                    )
                )
        finally:
            server.shutdown()
            server.server_close()
            coordinator.shutdown()
            thread.join()
            shutil.rmtree(state_dir, ignore_errors=True)

    # -- after the measured rounds ------------------------------------------

    def verify(self) -> None:
        """Checks that run the program again; probes must be uninstalled."""
        import repro.api as api
        from repro.hfl.metrics import evaluate

        for record in self.records:
            config = record.config
            label = f"{config.task} seed {config.seed}"
            if record.steps_to_target != record.reported_target_at:
                self.problems.append(
                    f"{label}: target reached at {record.steps_to_target} by the "
                    f"history, {record.reported_target_at} by the program"
                )
            if record.final_model is None:
                # Service run: the model never crosses the wire; rebuild it
                # with a synchronous serial run and compare SHAs.
                capture = Probes(tracing=False).install()
                try:
                    reference = api.run_scenario(
                        config.with_overrides(executor="serial", num_workers=None),
                        sampler="mach",
                    )
                finally:
                    capture.uninstall()
                sha = hashlib.sha256(reference.final_cloud_model.tobytes()).hexdigest()
                if sha != record.sha256:
                    self.problems.append(
                        f"{label}: service SHA {record.sha256[:12]} != serial "
                        f"run_scenario SHA {sha[:12]}"
                    )
                _devices, record.test, _trace, record.model_factory = capture.built[0]
                record.final_model = reference.final_cloud_model
            model = record.model_factory(np.random.default_rng(0))
            model.load_flat(record.final_model)
            program_accuracy, _loss = evaluate(model, record.test)
            independent = checks.accuracy(
                record.final_model, record.test.x, record.test.y,
                "mlp" if config.task == "blobs" else config.task, config.model_scale,
            )
            if independent != program_accuracy:
                self.problems.append(
                    f"{label}: numpy forward accuracy {independent} != "
                    f"program evaluate {program_accuracy}"
                )
            if record.panel and independent < 3.0 / 10:
                # Panel scenarios only: a --seed scenario stalling near
                # chance would make correctness depend on the seed.
                self.problems.append(f"{label}: accuracy {independent} near chance")
            # Drop the bulky references once checked.
            record.final_model = record.test = record.model_factory = None

    # -- metric roll-up --------------------------------------------------------

    def end_to_end(self, probes: Probes) -> Dict[str, float]:
        steps = probes.step_seconds
        panel = [r for r in self.records if r.panel]
        censored = [
            r.steps_to_target if r.steps_to_target is not None
            else r.config.num_steps + r.config.sync_interval
            for r in panel
        ]
        return {
            "setup_s": statistics.median(self.setups),
            "e2e_s": statistics.median(r.e2e_s for r in self.records),
            "updates_per_s": sum(probes.step_participants) / sum(steps),
            "step_p90_ms": 1000.0 * statistics.quantiles(steps, n=10)[8],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "steps_to_target": statistics.mean(censored),
            "final_accuracy": statistics.mean(r.final_accuracy for r in panel),
        }

    def per_layer(self, probes: Probes) -> Dict[str, float]:
        seconds, calls, self_seconds = probes.span_totals()
        counters = probes.counters()
        phases: Dict[str, float] = {}
        faults: Dict[str, int] = {}
        for recorder in self.telemetry:
            for phase, row in recorder.phase_summary().items():
                phases[phase] = phases.get(phase, 0.0) + row["seconds"]
            for kind, n in recorder.fault_counts.items():
                faults[kind] = faults.get(kind, 0) + n
        attempted = counters["faults.uploads_attempted"]
        late_admits = sum(r.late_admits for r in self.records)
        items = counters["runtime.items"]
        wall = sum(hi - lo for lo, hi in self.round_windows)

        def median_ms(key):
            values = self.service_calls[key]
            return 1000.0 * statistics.median(values) if values else 0.0

        metrics = {
            "data.build_s": seconds["data.build"],
            "mobility.trace_build_s": seconds["mobility.trace_build"],
            "hfl.trainer_init_s": seconds["hfl.trainer_init"],
            "hfl.plan_s": phases.get("plan", 0.0),
            "hfl.execute_s": phases.get("execute", 0.0),
            "hfl.finish_s": phases.get("finish", 0.0),
            "hfl.sync_s": phases.get("sync", 0.0),
            "hfl.eval_s": phases.get("eval", 0.0),
            "hfl.edge_aggregate_s": seconds["hfl.edge_aggregate"],
            "hfl.edge_aggregate_calls": calls["hfl.edge_aggregate"],
            "topology.apply_s": seconds["topology.apply"],
            "topology.virtual_global_s": seconds["topology.virtual_global"],
            "runtime.rounds": counters["runtime.rounds"],
            "runtime.items": items,
            "runtime.batched_items": counters["runtime.batched_items"],
            "runtime.batched_share": counters["runtime.batched_items"] / items if items else 0.0,
            "runtime.step_s": seconds["runtime.step"],
            "nn.local_update_s": seconds["nn.local_update"] + seconds["nn.population_update"],
            "nn.local_updates": counters["nn.local_updates"],
        }
        for label in ("conv", "pool", "dense", "relu"):
            for direction in ("forward", "backward"):
                metrics[f"nn.{label}.{direction}_s"] = seconds[f"nn.{label}.{direction}"]
        metrics.update({
            "nn.loss_s": seconds["nn.loss"],
            "nn.evaluate_s": seconds["nn.evaluate"],
            "sampling.probabilities_s": seconds["sampling.probabilities"],
            "sampling.probabilities_calls": calls["sampling.probabilities"],
            "sampling.feedback_s": seconds["sampling.feedback"],
            "sampling.feedback_calls": calls["sampling.feedback"],
            "sampling.global_sync_s": seconds["sampling.global_sync"],
            "mobility.query_s": seconds["mobility.query"],
            "mobility.query_calls": calls["mobility.query"],
            "mobility.chunk_s": seconds["mobility.chunk"],
            "mobility.chunks_built": calls["mobility.chunk"],
            "faults.uploads_attempted": attempted,
            "faults.uploads_failed": sum(
                n for kind, n in faults.items() if kind not in ("sync_failure", "stale_sync")
            ),
            "faults.sync_failures": counters["faults.sync_failures"],
            "faults.admitted_share": (
                (counters["hfl.admitted_uploads"] + late_admits) / attempted
                if attempted else 1.0
            ),
            "churn.step_s": seconds["churn.step"],
            "churn.joined": counters["churn.joined"],
            "churn.left": counters["churn.left"],
            "hfl.late_admits": late_admits,
            "hfl.late_drops": sum(r.late_drops for r in self.records),
            "checkpoint.saves": counters["checkpoint.saves"],
            "checkpoint.save_s": seconds["checkpoint.save"],
            "checkpoint.bytes": counters["checkpoint.bytes"],
            "service.submit_ms": median_ms("submit"),
            "service.first_round_s": median_ms("first_round") / 1000.0,
            "service.rounds_streamed": self.rounds_streamed,
            "service.status_ms": median_ms("status"),
            "service.result_ms": median_ms("result"),
            "obs.record_s": seconds["obs.record"],
            "obs.health_observe_s": seconds["obs.health_observe"],
            "trace.spans": len(probes.spans),
            "trace.uncovered_share": 1.0 - probes.covered_seconds(self.round_windows) / wall,
        })
        for layer in LAYERS:
            metrics[f"self.{layer}_s"] = self_seconds.get(layer, 0.0)
        return metrics


#: Layers whose self time the traced run reports ("bench" is the
#: benchmark's own checks and counters).
LAYERS = ("data", "mobility", "hfl", "runtime", "nn", "sampling", "topology",
          "faults", "churn", "checkpoint", "service", "obs", "bench")


def _play(runner: Runner, probes: Probes, seeds: List[List[Tuple[int, bool]]],
          trace: bool, first_index: int = 0) -> None:
    workload = runner.workload
    for index, round_seeds in enumerate(seeds, start=first_index):
        configs = [workload.make_config(s) for s, _panel in round_seeds]
        panels = [panel for _s, panel in round_seeds]
        if workload.kind == "service":
            runner.service_round(probes, configs, panels, index)
        else:
            telemetry = None
            if trace:
                from repro.hfl.telemetry import TelemetryRecorder

                telemetry = TelemetryRecorder()
                runner.telemetry.append(telemetry)
            runner.sync_round(probes, configs[0], panels[0], telemetry)


def _attach_service_telemetry(probes: Probes, runner: Runner) -> None:
    """Give every trainer the coordinator builds a TelemetryRecorder, by
    substituting the name the coordinator module looks up."""
    import repro.service.coordinator as coordinator
    from repro.hfl.telemetry import TelemetryRecorder

    base = coordinator.HFLTrainer

    class RecordedTrainer(base):
        def __init__(self, *args, **kwargs):
            if kwargs.get("telemetry") is None:
                kwargs["telemetry"] = TelemetryRecorder()
                runner.telemetry.append(kwargs["telemetry"])
            super().__init__(*args, **kwargs)

    probes.substitute(coordinator, "HFLTrainer", RecordedTrainer)


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """One benchmark run of a workload; returns the result for run.py."""
    workload = WORKLOADS[name]
    workdir.mkdir(parents=True, exist_ok=True)
    calibration = calibration_seconds()
    seeds = scenario_seeds(workload, seed, round_count(workload, seconds))
    if trace:
        # Same first round, untraced then traced: the tracing overhead.
        reference = Runner(workload, workdir)
        plain = Probes(tracing=False).install()
        try:
            _play(reference, plain, seeds[:1], trace=False, first_index=len(seeds))
        finally:
            plain.uninstall()
    runner = Runner(workload, workdir)
    probes = Probes(tracing=trace).install()
    try:
        if trace and workload.kind == "service":
            _attach_service_telemetry(probes, runner)
        _play(runner, probes, seeds, trace=trace)
    finally:
        probes.uninstall()
    runner.problems += probes.violations
    runner.verify()
    records = runner.records
    if trace:
        reference.verify()
        runner.problems += reference.problems
        first = len(reference.records)
        records = reference.records + records
        metrics = runner.per_layer(probes)
        metrics["trace.overhead_s"] = (
            statistics.mean(r.e2e_s for r in runner.records[:first])
            - statistics.mean(r.e2e_s for r in reference.records)
        )
        metrics["host.calibration_s"] = calibration
        probes.write_spans(workdir / f"spans-{name}-seed{seed}.npz")
    else:
        metrics = runner.end_to_end(probes)
    return {
        "metrics": metrics,
        "scenarios": len(records),
        "per_scenario": [
            {"seed": r.config.seed, "panel": r.panel, "e2e_s": round(r.e2e_s, 4),
             "steps_to_target": r.steps_to_target, "final_accuracy": r.final_accuracy}
            for r in records
        ],
        "problems": runner.problems,
        "calibration_s": calibration,
        "replays": [
            {"config": r.config.to_dict(), "digests": r.digests}
            for r in records if r.digests is not None
        ],
    }


def replay(specs: List[dict]) -> List[Dict[str, str]]:
    """Rebuild each scenario in this interpreter and digest it."""
    from repro.experiments.config import ScenarioConfig
    from repro.experiments.runner import build_scenario

    out = []
    for spec in specs:
        config = ScenarioConfig.from_dict(spec["config"])
        out.append(_digests(build_scenario(config, config.seed)))
    return out

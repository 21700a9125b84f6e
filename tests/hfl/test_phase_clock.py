"""The trainer's one phase clock.

Each engine phase is timed once, by exclusive wall time (finish work
nested inside execute counts as finish), and reported once per step to
both the telemetry recorder and the profiler.
"""

from repro.data.synthetic import make_federated_task
from repro.hfl.config import HFLConfig
from repro.hfl.telemetry import TelemetryRecorder
from repro.hfl.trainer import HFLTrainer
from repro.mobility.markov import MarkovMobilityModel
from repro.nn.architectures import build_mlp
from repro.obs import Observability, Profiler
from repro.sampling import UniformSampler

from tests.churn.test_trainer_churn import ScriptedChurn

NUM_DEVICES = 10
STEPS = 8


def run_observed():
    """A serial blobs run whose population is empty at steps 3 and 4, so
    those steps have no active round at all."""
    devices, test = make_federated_task(
        "blobs", num_devices=NUM_DEVICES, samples_per_device=30,
        test_samples=120, rng=0,
    )
    trace = MarkovMobilityModel.stay_or_jump(3, 0.8, rng=0).sample_trace(
        STEPS, NUM_DEVICES, rng=1
    )
    everyone = list(range(NUM_DEVICES))
    telemetry, profiler = TelemetryRecorder(), Profiler()
    trainer = HFLTrainer(
        model_factory=lambda rng: build_mlp(16, hidden=(16,), rng=rng),
        device_datasets=devices,
        trace=trace,
        sampler=UniformSampler(),
        config=HFLConfig(
            learning_rate=0.05, local_epochs=2, batch_size=8,
            sync_interval=2, participation_fraction=0.5, seed=0,
        ),
        test_dataset=test,
        telemetry=telemetry,
        churn=ScriptedChurn(leave_at={3: everyone}, join_at={5: everyone}),
        obs=Observability(profiler=profiler),
    )
    with trainer:
        outcomes = list(trainer.steps(STEPS))
    return outcomes, telemetry, profiler


class TestPhaseClock:
    def test_engine_phases_report_once_per_step(self):
        outcomes, telemetry, profiler = run_observed()
        assert [o.participants for o in outcomes][3:5] == [0, 0]
        profiled = {row["phase"]: row for row in profiler.phase_table()}
        for phase in ("plan", "execute", "finish"):
            assert telemetry.phase_calls[phase] == len(outcomes) == STEPS
            assert profiled[phase]["calls"] == STEPS

    def test_exclusive_phases_fit_inside_the_step(self):
        outcomes, telemetry, _ = run_observed()
        step_seconds = sum(o.seconds for o in outcomes)
        assert 0.0 < sum(telemetry.phase_seconds.values()) <= step_seconds

    def test_finish_is_billed_when_uploads_aggregate(self):
        outcomes, telemetry, _ = run_observed()
        assert sum(o.participants for o in outcomes) > 0
        assert telemetry.phase_seconds["finish"] > 0.0

    def test_telemetry_and_profiler_agree(self):
        _, telemetry, profiler = run_observed()
        profiled = {
            row["phase"]: (row["wall_seconds"], row["calls"])
            for row in profiler.phase_table()
        }
        assert profiled == {
            phase: (seconds, telemetry.phase_calls[phase])
            for phase, seconds in telemetry.phase_seconds.items()
        }

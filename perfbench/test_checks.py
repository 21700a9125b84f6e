"""Self-tests for the benchmark's checkers.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
from repro.data.dataset import Dataset  # noqa: E402
from repro.hfl.metrics import evaluate  # noqa: E402
from repro.nn.architectures import build_model  # noqa: E402


@pytest.mark.parametrize(
    "task, shape, scale",
    [("mnist", (1, 12, 12), "tiny"), ("mnist", (1, 12, 12), "small"),
     ("mlp", (16,), "tiny")],
)
def test_numpy_forward_matches_program_evaluate(task, shape, scale):
    rng = np.random.default_rng(7)
    model = build_model(task, shape, scale=scale, rng=rng)
    flat = rng.normal(0.0, 0.5, size=model.num_parameters)
    model.load_flat(flat)
    x = rng.normal(size=(300,) + shape)
    y = rng.integers(0, 10, size=300)
    program_accuracy, _loss = evaluate(model, Dataset(x, y, 10))
    assert checks.accuracy(flat, x, y, task, scale) == program_accuracy
    np.testing.assert_allclose(
        checks.forward_logits(flat, x, task, scale),
        model.forward(x, training=False),
        rtol=1e-10, atol=1e-10,
    )


def test_forward_rejects_a_model_of_the_wrong_size():
    with pytest.raises(ValueError):
        checks.forward_logits(np.zeros(5), np.zeros((2, 16)), "mlp", "tiny")


def test_probability_check_rejects_a_vector_over_capacity():
    assert checks.probability_violation([0.5, 0.5, 1.0], 2.0) is None
    assert "capacity" in checks.probability_violation([0.9, 0.9, 0.9], 2.0)
    assert checks.probability_violation([1.2, 0.0], 2.0) is not None
    assert checks.probability_violation([np.nan, 0.0], 2.0) is not None


def test_candidate_check_respects_the_trace_and_churn():
    row = np.array([0, 1, 0, 0, 2])
    assert checks.candidate_violation([0, 2, 3], row, 0) is None
    active = np.array([True, True, False, True, True])
    assert checks.candidate_violation([0, 3], row, 0, active) is None
    assert checks.candidate_violation([0, 2, 3], row, 0, active) is not None


def test_admitted_check_rejects_an_unsampled_upload():
    members, indicators = np.array([3, 5, 8]), np.array([1, 0, 1])
    assert checks.admitted_violation({3: None, 8: None}, members, indicators) is None
    assert checks.admitted_violation({5: None}, members, indicators) is not None


def test_replay_digests_detect_a_changed_dataset():
    rng = np.random.default_rng(0)
    devices = [Dataset(rng.normal(size=(4, 3)), np.arange(4) % 2, 2) for _ in range(3)]
    test = Dataset(rng.normal(size=(5, 3)), np.arange(5) % 2, 2)
    grid = rng.integers(0, 2, size=(6, 3))
    first = checks.scenario_digests(devices, test, grid)
    assert checks.digest_mismatch(first, checks.scenario_digests(devices, test, grid)) == []
    changed = devices[1].x.copy()
    changed[2, 1] += 1e-12
    devices[1] = Dataset(changed, devices[1].y, 2)
    assert checks.digest_mismatch(
        first, checks.scenario_digests(devices, test, grid)
    ) == ["devices"]

"""The benchmark's own correctness checks, written apart from the program.

Nothing here imports ``repro``: the forward pass, the Eq. (3) bound and
the scenario digests are recomputed from plain numpy so that a fault in
the program cannot also hide in its checker.  ``test_checks.py`` holds
self-tests for each checker.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Slack on the capacity bound sum(q) <= K_n: the program's Eq. (3)
#: projection leaves float round-off of ~2e-14 today.
CAPACITY_SLACK = 1e-9

#: Channel width of the first conv layer and of the hidden dense layer
#: per model scale (the architectures documented in PAPER.md / DESIGN.md:
#: conv(w)-relu-pool-conv(2w)-relu-pool-fc(h)-relu-fc(10), or for flat
#: features fc(h)-relu-fc(10)).
SCALE_WIDTHS = {"paper": (8, 64), "small": (4, 32), "tiny": (2, 16)}


# -- Eq. (3): probabilities, candidates, admitted uploads ---------------------


def probability_violation(probabilities, capacity: float) -> Optional[str]:
    """Why ``probabilities`` breaks q in [0, 1], sum(q) <= K_n (or None)."""
    q = np.asarray(probabilities, dtype=float)
    if not np.all(np.isfinite(q)):
        return "non-finite sampling probability"
    if q.size and (q.min() < 0.0 or q.max() > 1.0):
        return f"probability outside [0, 1]: min {q.min()!r}, max {q.max()!r}"
    if q.sum() > capacity + CAPACITY_SLACK:
        return f"probabilities sum to {q.sum()!r} > capacity {capacity!r}"
    return None


def candidate_violation(members, assignment_row, edge: int,
                        active_mask=None) -> Optional[str]:
    """Why ``members`` is not exactly the devices the trace row places at
    ``edge`` (minus churned-out devices), or None."""
    expected = np.flatnonzero(np.asarray(assignment_row) == edge)
    if active_mask is not None:
        expected = expected[np.asarray(active_mask)[expected]]
    got = np.asarray(members)
    if got.shape != expected.shape or not np.array_equal(got, expected):
        return (
            f"candidate set of {got.size} devices differs from the "
            f"{expected.size} the trace places at the edge"
        )
    return None


def admitted_violation(results, members, indicators) -> Optional[str]:
    """Why some admitted upload did not come from a sampled candidate."""
    sampled = {int(m) for m, hit in zip(np.asarray(members), indicators) if hit}
    strangers = sorted(int(d) for d in results if int(d) not in sampled)
    if strangers:
        return f"uploads admitted from unsampled devices {strangers[:5]}"
    return None


# -- independent forward pass ------------------------------------------------


def layer_shapes(task: str, feature_shape: Tuple[int, ...],
                 scale: str, num_classes: int = 10) -> List[Tuple[str, tuple]]:
    """Parameter shapes, in flat-vector order, of the task's model."""
    width, hidden = SCALE_WIDTHS[scale]
    if task in ("mnist", "fmnist", "cifar10"):
        channels, height, width_px = feature_shape
        convs = 2 if task != "cifar10" else 3
        shapes, cin = [], channels
        for i in range(convs):
            cout = width * 2 ** i
            shapes += [("conv.w", (cout, cin, 3, 3)), ("conv.b", (cout,))]
            cin = cout
            height, width_px = height // 2, width_px // 2
        flat = cin * height * width_px
        return shapes + [("fc.w", (flat, hidden)), ("fc.b", (hidden,)),
                         ("fc.w", (hidden, num_classes)), ("fc.b", (num_classes,))]
    (features,) = feature_shape
    return [("fc.w", (features, hidden)), ("fc.b", (hidden,)),
            ("fc.w", (hidden, num_classes)), ("fc.b", (num_classes,))]


def unflatten(flat: np.ndarray, shapes) -> List[np.ndarray]:
    flat = np.asarray(flat, dtype=float)
    total = sum(int(np.prod(shape)) for _kind, shape in shapes)
    if flat.shape != (total,):
        raise ValueError(f"flat model has {flat.size} values, layout needs {total}")
    out, offset = [], 0
    for _kind, shape in shapes:
        size = int(np.prod(shape))
        out.append(flat[offset:offset + size].reshape(shape))
        offset += size
    return out


def _conv3x3(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Same-padded 3x3 convolution by explicit shifted sums."""
    batch, cin, height, width = x.shape
    padded = np.zeros((batch, cin, height + 2, width + 2))
    padded[:, :, 1:-1, 1:-1] = x
    out = np.zeros((batch, w.shape[0], height, width))
    for di in range(3):
        for dj in range(3):
            window = padded[:, :, di:di + height, dj:dj + width]
            out += np.tensordot(window, w[:, :, di, dj], axes=([1], [1])).transpose(0, 3, 1, 2)
    return out + b[None, :, None, None]


def _maxpool2(x: np.ndarray) -> np.ndarray:
    batch, channels, height, width = x.shape
    h, w = height // 2, width // 2
    x = x[:, :, : 2 * h, : 2 * w].reshape(batch, channels, h, 2, w, 2)
    return x.max(axis=(3, 5))


def forward_logits(flat: np.ndarray, x: np.ndarray, task: str, scale: str) -> np.ndarray:
    """Logits of the flat model on ``x``, in plain numpy."""
    params = unflatten(flat, layer_shapes(task, x.shape[1:], scale))
    h = np.asarray(x, dtype=float)
    index = 0
    if h.ndim == 4:
        while index + 1 < len(params) and params[index].ndim == 4:
            h = _maxpool2(np.maximum(_conv3x3(h, params[index], params[index + 1]), 0.0))
            index += 2
        h = h.reshape(h.shape[0], -1)
    h = np.maximum(h @ params[index] + params[index + 1], 0.0)
    return h @ params[index + 2] + params[index + 3]


def accuracy(flat: np.ndarray, x: np.ndarray, y: np.ndarray, task: str, scale: str) -> float:
    return float(np.mean(np.argmax(forward_logits(flat, x, task, scale), axis=1) == y))


# -- scenario digests --------------------------------------------------------


def _sha(arrays: Sequence[np.ndarray]) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(str(array.dtype).encode())
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def scenario_digests(devices, test, assignments: np.ndarray) -> Dict[str, str]:
    """SHA-256 of the device datasets, the test set and the trace grid."""
    device_arrays: List[np.ndarray] = []
    for dataset in devices:
        device_arrays += [dataset.x, dataset.y]
    return {
        "devices": _sha(device_arrays),
        "test": _sha([test.x, test.y]),
        "trace": _sha([assignments]),
    }


def digest_mismatch(first: Dict[str, str], second: Dict[str, str]) -> List[str]:
    """Which parts of two scenario builds differ."""
    return sorted(key for key in first if first[key] != second.get(key))

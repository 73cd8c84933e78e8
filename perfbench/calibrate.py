"""Host-speed calibration kernel.

The host the benchmark runs on is shared, and its speed swings by a quarter or
more over stretches that can cover whole runs, so raw wall times of the same
code spread more between runs than any useful bound. This kernel does a fixed
amount of work of the same kinds the program does (per-item Python loops over
small numpy arrays, pool-adjacent-violators, dict building and sorting, JSON
and SHA-256 over records, and full-batch matrix products) on fixed inputs. It
imports nothing from the program, so no change to the program can move it.

The host's speed also swings within a second, so one sample says little;
averaged over a run, the samples follow the run's operations closely. `run.py`
runs the kernel after every set-up and operation, for a fixed share of its
time, and scales all of a run's times by REFERENCE_S over the mean sample: the
reported times are seconds at the host speed at which the kernel takes
REFERENCE_S. Raw wall times and kernel samples go to the results file.
"""

from __future__ import annotations

import hashlib
import json
from time import perf_counter

import numpy as np

# Median kernel time on the host the bounds were set on (2 vCPUs of an
# Intel Xeon at 2 GHz). Any constant would do: bounds are relative.
REFERENCE_S = 0.2

_ITEMS = 2500
_ROWS = 20_000
_EPOCHS = 30


def _pava(values: np.ndarray) -> np.ndarray:
    totals: list[float] = []
    counts: list[int] = []
    for v in values:
        totals.append(float(v))
        counts.append(1)
        while len(totals) > 1 and totals[-2] / counts[-2] > totals[-1] / counts[-1]:
            totals[-2] += totals[-1]
            counts[-2] += counts[-1]
            totals.pop()
            counts.pop()
    out = np.empty_like(values)
    pos = 0
    for total, count in zip(totals, counts):
        out[pos : pos + count] = total / count
        pos += count
    return out


def kernel() -> tuple[int, str, float]:
    """The fixed work; returns values derived from every part so none is skipped."""
    rng = np.random.default_rng(12345)
    features = rng.normal(size=(_ITEMS, 8))
    weights = rng.normal(size=8)
    tail = rng.normal(scale=0.5, size=12)
    keys = [f"item-{i:06d}" for i in range(_ITEMS)]

    requested = {}
    for key, x in zip(keys, features):
        base = float(x @ weights) + 0.1
        curve = np.clip(1.0 / (1.0 + np.exp(-(base + tail))), 1e-6, 1 - 1e-6)
        hit = np.flatnonzero(_pava(curve) >= 0.5)
        requested[key] = int(hit[0]) * 100 if len(hit) else 0
    budget = 10 * _ITEMS * 100
    granted = {key: 0 for key in keys}
    for key in sorted(requested, key=lambda k: (requested[k], k)):
        if requested[key] <= budget:
            granted[key] = requested[key]
            budget -= requested[key]

    lines = [
        json.dumps({"id": key, "features": x.tolist(), "granted": granted[key]})
        for key, x in zip(keys, features)
    ]
    digest = hashlib.sha256()
    for line in lines:
        digest.update(json.dumps(json.loads(line), sort_keys=True).encode())

    X = rng.normal(size=(_ROWS, 24))
    y = (rng.random(_ROWS) < 0.3).astype(float)
    w = np.zeros(24)
    for _ in range(_EPOCHS):
        residual = 1.0 / (1.0 + np.exp(-(X @ w))) - y
        w -= 0.1 * (X.T @ residual) / _ROWS
    return sum(granted.values()), digest.hexdigest(), float(w.sum())


def sample() -> float:
    """Wall time of one kernel run, in seconds."""
    started = perf_counter()
    kernel()
    return perf_counter() - started

"""Discoverability classifier.

A logistic model scores P(item becomes discoverable | features, traffic bucket).
The traffic bucket enters as a one-hot block concatenated to the item features.
Training is plain full-batch gradient descent on mean cross-entropy; the
gradient is exposed separately so it can be checked against finite differences.

Predicted per-bucket curves are made non-decreasing with isotonic regression
before they are inverted into per-item traffic caps.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    AllocationConfig,
    BucketSchema,
    ConfigError,
    DataError,
    read_json,
    read_jsonl,
    write_json,
    write_jsonl,
)

# Probabilities are kept strictly inside (0, 1) so log-loss and downstream
# thresholding never see exact 0 or 1.
_P_FLOOR = 1e-12
_P_CEIL = 1.0 - 1e-12


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function without overflow at any |z|.

    With e = exp(-|z|) it is 1 / (1 + e) where z >= 0 and e / (1 + e) where
    z < 0, as e is exactly exp(z) there.
    """
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


@dataclass(frozen=True, eq=False)
class TrainingSet:
    """Observed exploration outcomes as read-only columns, one row per example.

    `features` is an (n, d) matrix, `bucket` the served-traffic bucket of each
    row and `label` its binary discovery outcome. Each column is checked once.
    """

    features: np.ndarray
    bucket: np.ndarray
    label: np.ndarray

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=float)
        bucket = np.asarray(self.bucket)
        label = np.asarray(self.label)
        if features.ndim != 2:
            raise DataError(f"features must be an (examples, dimension) matrix: {features.shape}")
        if bucket.shape != (len(features),) or label.shape != bucket.shape:
            raise DataError(
                f"columns differ in length: features {features.shape}, "
                f"bucket {bucket.shape}, label {label.shape}"
            )
        if not ((label == 0) | (label == 1)).all():
            raise DataError("label must be 0 or 1")
        if not ((bucket >= 0) & (bucket == np.floor(bucket))).all():
            raise DataError("bucket index must be a non-negative integer")
        bucket, label = bucket.astype(np.int64, copy=False), label.astype(np.int64, copy=False)
        finite = np.isfinite(features).all(axis=1)
        if not finite.all():
            row = int(np.argmin(finite))
            raise DataError(f"non-finite feature in training example {row} (counting from 0)")
        for name, column in (("features", features), ("bucket", bucket), ("label", label)):
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.label)


@dataclass(frozen=True)
class TrainingMeta:
    epochs: int
    final_loss: float
    seed: int


@dataclass(frozen=True)
class Hyperparams:
    learning_rate: float = 0.05
    epochs: int = 1000
    seed: int = 0

    def validate(self) -> "Hyperparams":
        # Zero epochs or a zero rate would return the random initial weights
        # as a trained model; a NaN rate would only fail after every epoch.
        if self.epochs < 1:
            raise ConfigError("epochs must be at least 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError("learning rate must be finite and positive")
        return self


@dataclass(frozen=True, eq=False)
class DiscoverabilityModel:
    """Trained logistic model over (item features | one-hot bucket)."""

    weights: np.ndarray
    bias: float
    schema: BucketSchema
    meta: TrainingMeta

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        # A NaN weight makes every curve NaN, which no region threshold rejects.
        if not (np.isfinite(w).all() and np.isfinite(self.bias)):
            raise DataError("model weights and bias must be finite")

    @property
    def feature_dim(self) -> int:
        return len(self.weights) - self.schema.n_buckets


def _design_matrix(examples: TrainingSet, schema: BucketSchema) -> np.ndarray:
    """The features with a one-hot block of the buckets appended."""
    n, feature_dim = examples.features.shape
    n_buckets = schema.n_buckets
    out_of_range = np.flatnonzero(examples.bucket >= n_buckets)
    if out_of_range.size:
        bucket = examples.bucket[out_of_range[0]]
        raise DataError(f"bucket {bucket} out of range for {n_buckets} buckets")
    X = np.zeros((n, feature_dim + n_buckets))
    X[:, :feature_dim] = examples.features
    X[np.arange(n), feature_dim + examples.bucket] = 1.0
    return X


def _mean_log_loss(X: np.ndarray, y: np.ndarray, w: np.ndarray, b: float) -> float:
    z = X @ w + b
    # log(1 + e^z) - y*z, computed without overflow
    return float(np.mean(np.logaddexp(0.0, z) - y * z))


def train(
    examples: TrainingSet,
    schema: BucketSchema,
    params: Hyperparams = Hyperparams(),
) -> DiscoverabilityModel:
    """Fit the logistic model by full-batch gradient descent.

    Deterministic given params.seed. Refuses degenerate inputs: an empty set,
    a bucket outside the schema, or a single-class label set (for which the
    cross-entropy minimizer pushes weights to infinity).
    """
    params.validate()
    if len(examples) == 0:
        raise DataError("empty training set")
    X = _design_matrix(examples, schema)
    y = examples.label.astype(float)
    if y.min() == y.max():
        raise DataError("single-class training set")

    rng = np.random.default_rng(params.seed)
    w = rng.normal(0.0, 0.01, size=X.shape[1])
    b = 0.0
    n = len(y)
    lr = params.learning_rate
    first_loss = _mean_log_loss(X, y, w, b)
    for _ in range(params.epochs):
        residual = _sigmoid(X @ w + b) - y
        w -= lr * (X.T @ residual) / n
        b -= lr * float(residual.mean())
    final_loss = _mean_log_loss(X, y, w, b)
    if not np.isfinite(final_loss):
        raise DataError("training diverged: non-finite loss")
    if final_loss > first_loss:
        raise DataError(
            f"training loss increased ({first_loss:.6f} -> {final_loss:.6f}); "
            "lower the learning rate"
        )
    meta = TrainingMeta(epochs=params.epochs, final_loss=final_loss, seed=params.seed)
    return DiscoverabilityModel(weights=w, bias=b, schema=schema, meta=meta)


def _check_features(model: DiscoverabilityModel, features: np.ndarray) -> np.ndarray:
    x = np.asarray(features, dtype=float)
    if x.shape != (model.feature_dim,):
        raise DataError(
            f"feature dimension mismatch: got {x.shape}, model expects "
            f"({model.feature_dim},)"
        )
    return x


def predict(model: DiscoverabilityModel, features: np.ndarray, bucket: int) -> float:
    """P(discoverable) for one item at one traffic bucket, strictly inside (0, 1)."""
    curve = predict_curve(model, features)
    if not 0 <= bucket < model.schema.n_buckets:
        raise DataError(f"invalid bucket index {bucket}")
    return float(curve[bucket])


def predict_curve(model: DiscoverabilityModel, features: np.ndarray) -> np.ndarray:
    """P(discoverable) at every bucket; entry k equals predict(model, features, k)."""
    x = _check_features(model, features)
    base = float(x @ model.weights[: model.feature_dim]) + model.bias
    logits = base + model.weights[model.feature_dim :]
    return np.clip(_sigmoid(logits), _P_FLOOR, _P_CEIL)


def predict_curves(model: DiscoverabilityModel, features: np.ndarray) -> np.ndarray:
    """P(discoverable) at every bucket for many items: row i is predict_curve of row i.

    One matrix-vector product scores the static features of every row, so a
    row can differ from predict_curve in the last bit of its dot product
    (summation order); everything after the dot product is the same arithmetic.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.feature_dim:
        raise DataError(
            f"feature dimension mismatch: got {X.shape}, model expects "
            f"(n, {model.feature_dim})"
        )
    base = X @ model.weights[: model.feature_dim] + model.bias
    logits = base[:, None] + model.weights[model.feature_dim :]
    return np.clip(_sigmoid(logits), _P_FLOOR, _P_CEIL)


def gradient(
    model: DiscoverabilityModel, features: np.ndarray, bucket: int, label: int
) -> tuple[np.ndarray, float]:
    """Analytic gradient of the cross-entropy loss of one example.

    Returns (d_loss/d_weights, d_loss/d_bias). For a logistic model both are
    (p - y) times the input, with the bias input fixed at 1.
    """
    x = _check_features(model, features)
    if not 0 <= bucket < model.schema.n_buckets:
        raise DataError(f"invalid bucket index {bucket}")
    x_full = np.zeros_like(model.weights)
    x_full[: model.feature_dim] = x
    x_full[model.feature_dim + bucket] = 1.0
    p = float(_sigmoid(np.array(x_full @ model.weights + model.bias)))
    residual = p - label
    return residual * x_full, residual


def monotone_curve(curve: np.ndarray) -> np.ndarray:
    """Non-decreasing least-squares fit of a bucket curve (pool adjacent violators).

    Returns the input unchanged (as a copy) when it is already non-decreasing.
    Idempotent.
    """
    values = np.asarray(curve, dtype=float)
    if values.ndim != 1 or len(values) == 0:
        raise DataError("curve must be a non-empty vector")
    if np.any(values < 0.0) or np.any(values > 1.0):
        raise DataError("curve values must lie in [0, 1]")
    # blocks of (total, count); merge backwards while means decrease
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


def monotone_curves(curves: np.ndarray) -> np.ndarray:
    """monotone_curve applied to every row of a matrix, bit for bit.

    Pool adjacent violators runs on all rows at once: each row keeps its own
    stack of blocks (total, count), and every row goes through the same pushes,
    merges and divisions, in the same order, as monotone_curve does for it.
    """
    values = np.asarray(curves, dtype=float)
    if values.ndim != 2 or values.shape[1] == 0:
        raise DataError("curves must be a matrix with at least one bucket")
    if np.any(values < 0.0) or np.any(values > 1.0):
        raise DataError("curve values must lie in [0, 1]")
    n, k = values.shape
    rows = np.arange(n)
    totals = np.zeros((n, k))
    counts = np.zeros((n, k), dtype=np.int64)
    depth = np.zeros(n, dtype=np.intp)  # blocks on each row's stack
    for j in range(k):
        totals[rows, depth] = values[:, j]
        counts[rows, depth] = 1
        depth += 1
        # Merge backwards while the last two block means decrease.
        active = rows[depth > 1]
        while active.size:
            top = depth[active] - 1
            merge = (
                totals[active, top - 1] / counts[active, top - 1]
                > totals[active, top] / counts[active, top]
            )
            active, top = active[merge], top[merge]
            totals[active, top - 1] += totals[active, top]
            counts[active, top - 1] += counts[active, top]
            counts[active, top] = 0
            depth[active] -= 1
            active = active[depth[active] > 1]
    # Blocks in row-major order cover each row's k positions left to right.
    used = counts > 0
    return np.repeat(totals[used] / counts[used], counts[used]).reshape(n, k)


def invert_cap(
    curve: np.ndarray,
    cf: float,
    config: AllocationConfig,
    schema: BucketSchema,
) -> int | None:
    """Smallest traffic at which the curve reaches confidence cf.

    Picks the first bucket whose probability is >= cf and returns its
    representative traffic clamped into [min_cap, max_cap]. Returns None when
    no bucket reaches cf (the confidence is not achievable for this item).

    The curve must already be non-decreasing; a violation is reported rather
    than repaired so callers cannot silently skip the isotonic step.
    """
    values = np.asarray(curve, dtype=float)
    if len(values) != schema.n_buckets:
        raise DataError("curve length must equal the bucket count")
    if not 0.0 < cf < 1.0:
        raise ConfigError("confidence level must lie strictly inside (0, 1)")
    if np.any(np.diff(values) < 0.0):
        raise DataError("curve is not non-decreasing; apply monotone_curve first")
    qualifying = np.nonzero(values >= cf)[0]
    if len(qualifying) == 0:
        return None
    rep = schema.representative[int(qualifying[0])]
    return int(min(max(rep, config.min_cap), config.max_cap))


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def model_to_dict(model: DiscoverabilityModel) -> dict:
    return {
        "weights": model.weights.tolist(),
        "bias": float(model.bias),
        "schema": {
            "edges": list(model.schema.edges),
            "representative": list(model.schema.representative),
        },
        "training_meta": {
            "epochs": model.meta.epochs,
            "final_loss": model.meta.final_loss,
            "seed": model.meta.seed,
        },
    }


def model_from_dict(raw: dict) -> DiscoverabilityModel:
    try:
        schema = BucketSchema(
            edges=tuple(raw["schema"]["edges"]),
            representative=tuple(raw["schema"]["representative"]),
        )
        meta = TrainingMeta(
            epochs=int(raw["training_meta"]["epochs"]),
            final_loss=float(raw["training_meta"]["final_loss"]),
            seed=int(raw["training_meta"]["seed"]),
        )
        # The decoder reads an overflowing literal such as 1e400 as inf,
        # which no writer writes: train refuses a non-finite loss.
        if not math.isfinite(meta.final_loss):
            raise ValueError("final_loss must be finite")
        return DiscoverabilityModel(
            weights=np.asarray(raw["weights"], dtype=float),
            bias=float(raw["bias"]),
            schema=schema,
            meta=meta,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"bad model payload: {exc}") from exc


def save_model(model: DiscoverabilityModel, path: str | Path) -> None:
    write_json(model_to_dict(model), path)


def load_model(path: str | Path) -> DiscoverabilityModel:
    return model_from_dict(read_json(path))


def save_examples(examples: TrainingSet, path: str | Path) -> None:
    columns = examples.features.tolist(), examples.bucket.tolist(), examples.label.tolist()
    write_jsonl(
        ({"features": f, "bucket": b, "label": y} for f, b, y in zip(*columns)), path
    )


def load_examples(path: str | Path) -> TrainingSet:
    """The training-set file as columns; the features of every row go into one
    flat buffer, reshaped once.

    A row whose features are not a flat list of numbers as long as the first
    row's, whose label is not 0 or 1, or whose bucket is not a non-negative
    integer raises DataError naming `path:line`.
    """
    features, buckets, labels = array("d"), array("q"), array("q")
    dim = None

    def append(row: dict) -> None:
        nonlocal dim
        values = row["features"]
        if type(values) is not list:
            raise TypeError(f"features must be a list, not {type(values).__name__}")
        dim = len(values) if dim is None else dim
        if len(values) != dim:
            raise ValueError(f"feature dimension {len(values)}, earlier rows have {dim}")
        bucket, label = row["bucket"], row["label"]
        if label not in (0, 1):
            raise ValueError("label must be 0 or 1")
        if type(bucket) is not int or bucket < 0:
            raise ValueError("bucket index must be a non-negative integer")
        try:
            features.extend(values)
        except TypeError as exc:
            raise TypeError(f"features must be a flat list of numbers: {exc}") from None
        buckets.append(bucket)
        labels.append(int(label))

    read_jsonl(path, append, "training example")
    return TrainingSet(
        np.frombuffer(features).reshape(len(labels), dim or 0),
        np.frombuffer(buckets, dtype=np.int64),
        np.frombuffer(labels, dtype=np.int64),
    )

"""Discoverability classifier.

A logistic model scores P(item becomes discoverable | features, traffic bucket).
The traffic bucket enters as a one-hot block concatenated to the item features.
Training is Newton's method (IRLS) on mean cross-entropy; the gradient is
exposed separately so it can be checked against finite differences.

Predicted per-bucket curves are made non-decreasing with isotonic regression
before they are inverted into per-item traffic caps.
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .core import (
    INTEGER,
    INTS,
    MATRIX,
    NUMBER,
    AllocationConfig,
    BucketSchema,
    ConfigError,
    DataError,
    checked,
    checked_list,
    read_json,
    read_only,
    refuse_rows,
    take_columns,
    write_json,
)

# Probabilities are kept strictly inside (0, 1) so log-loss and downstream
# thresholding never see exact 0 or 1.
_P_FLOOR = 1e-12
_P_CEIL = 1.0 - 1e-12

_STEP_TOLERANCE = 1e-10  # Newton's method stops once no coefficient moves by more


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function without overflow at any |z|.

    With e = exp(-|z|) it is 1 / (1 + e) where z >= 0 and e / (1 + e) where
    z < 0, as e is exactly exp(z) there.
    """
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


class ScoreOverflow(DataError):
    """Finite but huge features overflowed the score of row `row`, counted from 0."""

    def __init__(self, row: int) -> None:
        super().__init__(f"the features of row {row} overflow the model's score")
        self.row = row


@dataclass(frozen=True, eq=False)
class TrainingSet:
    """Observed exploration outcomes as read-only columns, one row per example.

    `features` is an (n, d) matrix, `bucket` the served-traffic bucket of each
    row and `label` its binary discovery outcome (see COLUMNS and
    core.take_columns). A label other than 0 or 1, a negative bucket and a
    non-finite feature are refused, naming the first such example.
    """

    features: np.ndarray
    bucket: np.ndarray
    label: np.ndarray

    COLUMNS = dict(features=MATRIX, bucket=INTS, label=INTS)

    def __post_init__(self) -> None:
        vars(self).update(take_columns("training set", self.COLUMNS, vars(self), _refuse_examples))

    def __len__(self) -> int:
        return len(self.label)


def _refuse_examples(features, bucket, label) -> None:
    """The training set's value refusals, naming the first such example."""
    refuse_rows(
        lambda k: f"in training example {k} (counting from 0)",
        ("label must be 0 or 1", (label != 0) & (label != 1)),
        ("bucket index must be a non-negative integer", bucket < 0),
        ("non-finite feature", ~np.isfinite(features).all(axis=1)),
    )


@dataclass(frozen=True)
class TrainingMeta:
    """Newton steps taken, final mean loss, and examples and positives per bucket."""

    epochs: int
    final_loss: float
    bucket_examples: tuple[int, ...]
    bucket_positives: tuple[int, ...]

    @property
    def untrained_buckets(self) -> tuple[int, ...]:
        """Indices of the buckets no training example was served at."""
        return tuple(k for k, count in enumerate(self.bucket_examples) if count == 0)


@dataclass(frozen=True)
class Hyperparams:
    epochs: int = 100  # the most Newton steps train takes

    def __post_init__(self) -> None:
        # Zero steps would return the zero start as a trained model. An int
        # alone, as a model file's epochs: not a bool, float or numpy int.
        if type(self.epochs) not in INTEGER or self.epochs < 1:
            raise ConfigError(f"epochs must be an integer of at least 1, not {self.epochs!r}")


@dataclass(frozen=True, eq=False)
class DiscoverabilityModel:
    """Trained logistic model over (item features | one-hot bucket)."""

    weights: np.ndarray
    bias: float
    schema: BucketSchema
    meta: TrainingMeta

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", read_only(self.weights))
        # A NaN weight makes every curve NaN, which no region threshold rejects.
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias)):
            raise DataError("model weights and bias must be finite")

    @property
    def feature_dim(self) -> int:
        return len(self.weights) - self.schema.n_buckets


def _design_matrix(examples: TrainingSet, schema: BucketSchema) -> np.ndarray:
    """The features, a one-hot block of the buckets and a column of ones for the bias."""
    n, feature_dim = examples.features.shape
    n_buckets = schema.n_buckets
    out_of_range = np.flatnonzero(examples.bucket >= n_buckets)
    if out_of_range.size:
        bucket = examples.bucket[out_of_range[0]]
        raise DataError(f"bucket {bucket} out of range for {n_buckets} buckets")
    X = np.zeros((n, feature_dim + n_buckets + 1))
    X[:, :feature_dim] = examples.features
    X[np.arange(n), feature_dim + examples.bucket] = 1.0
    X[:, -1] = 1.0
    return X


def _loss_and_sigmoid(
    X: np.ndarray, theta: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray]:
    """The mean log loss at coefficients theta, and _sigmoid(X @ theta), from
    one e = exp(-|z|).

    log1p(e) + max(z, 0) is log(1 + e^z) without overflow; np.logaddexp(0, z)
    computes it more slowly, and can differ from it in the last bit.
    """
    z = X @ theta
    e = np.exp(-np.abs(z))
    loss = float(np.mean(np.log1p(e) + np.maximum(z, 0.0) - y * z))
    return loss, np.where(z >= 0, 1.0, e) / (1.0 + e)


def train(
    examples: TrainingSet,
    schema: BucketSchema,
    params: Hyperparams = Hyperparams(),
) -> DiscoverabilityModel:
    """Fit the logistic model by Newton's method from all-zero coefficients.

    Each step is the minimum-norm least-squares solution of H·s = g, so a
    bucket no example was served at keeps weight 0, and an intercept splits
    evenly between the bias and a lone bucket. A step whose mean loss exceeds
    the loss at zero is halved until it does not; if halving leaves no
    coefficient moving by more than 1e-10, the step is not taken and the fit
    stops. It also stops after a step that moves no coefficient by more than
    1e-10, or after params.epochs steps. Refuses an empty set, a bucket
    outside the schema, a single-class label set (for which the
    cross-entropy minimizer pushes weights to infinity), or features so large
    that a Newton step's system overflows.
    """
    if len(examples) == 0:
        raise DataError("empty training set")
    X = _design_matrix(examples, schema)
    y = examples.label.astype(float)
    if y.min() == y.max():
        raise DataError("single-class training set")

    theta = np.zeros(X.shape[1])
    first_loss, p = _loss_and_sigmoid(X, theta, y)
    steps = 0
    for _ in range(params.epochs):
        # Features of about 1e154 or more overflow it; lstsq would not converge.
        with np.errstate(over="ignore", invalid="ignore"):
            hessian = X.T @ (X * (p * (1.0 - p))[:, None])
            grad = X.T @ (p - y)
        if not (np.isfinite(hessian).all() and np.isfinite(grad).all()):
            raise DataError("training features overflow the fit: its Newton system is not finite")
        step = np.linalg.lstsq(hessian, grad, rcond=None)[0]
        # The step's p is the next step's, so a step takes one product X @ theta.
        step_loss, step_p = _loss_and_sigmoid(X, theta - step, y)
        # A NaN step or loss fails both tests: it is halved no further and not taken.
        while not step_loss <= first_loss and np.abs(step).max() > _STEP_TOLERANCE:
            step /= 2.0
            step_loss, step_p = _loss_and_sigmoid(X, theta - step, y)
        if not step_loss <= first_loss:
            break
        theta -= step
        p, steps = step_p, steps + 1
        if np.abs(step).max() <= _STEP_TOLERANCE:
            break
    examples_per_bucket, positives_per_bucket = (
        tuple(np.bincount(examples.bucket, weights, schema.n_buckets).astype(int).tolist())
        for weights in (None, examples.label)
    )
    # Recorded as np.logaddexp computes it, which the step test's formula can miss by a bit.
    z = X @ theta
    final_loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
    meta = TrainingMeta(steps, final_loss, examples_per_bucket, positives_per_bucket)
    theta.setflags(write=False)  # so the weights, a view of it, are not copied
    return DiscoverabilityModel(theta[:-1], float(theta[-1]), schema, meta)


def _check_features(model: DiscoverabilityModel, features: np.ndarray) -> np.ndarray:
    x = np.asarray(features, dtype=float)
    if x.shape != (model.feature_dim,):
        raise DataError(
            f"feature dimension mismatch: got {x.shape}, model expects "
            f"({model.feature_dim},)"
        )
    return x


def predict(model: DiscoverabilityModel, features: np.ndarray, bucket: int) -> float:
    """P(discoverable) for one item at one traffic bucket, strictly inside (0, 1). Features
    whose logits overflow at any bucket raise ScoreOverflow of row 0, as in predict_curves."""
    x = _check_features(model, features)
    with np.errstate(over="ignore", invalid="ignore"):
        base = float(x @ model.weights[: model.feature_dim]) + model.bias
        logits = base + model.weights[model.feature_dim :]
    if not np.isfinite(logits).all():
        raise ScoreOverflow(0)
    if not 0 <= bucket < model.schema.n_buckets:
        raise DataError(f"invalid bucket index {bucket}")
    return float(np.clip(_sigmoid(logits), _P_FLOOR, _P_CEIL)[bucket])


def predict_curves(model: DiscoverabilityModel, features: np.ndarray) -> np.ndarray:
    """P(discoverable) at every bucket for many items, one row each.

    One matrix-vector product scores the static features of every row, so a
    row can differ from predict in the last bit of its dot product
    (summation order); everything after the dot product is the same arithmetic.

    Finite but huge features can overflow a row's logits to an infinity, or
    to NaN where overflows of both signs meet. Such a row raises
    ScoreOverflow, and no warning escapes.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.feature_dim:
        raise DataError(
            f"feature dimension mismatch: got {X.shape}, model expects "
            f"(n, {model.feature_dim})"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        base = X @ model.weights[: model.feature_dim] + model.bias
        logits = base[:, None] + model.weights[model.feature_dim :]
    fits = np.isfinite(logits).all(axis=1)
    if not fits.all():
        raise ScoreOverflow(int(np.argmin(fits)))
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


def monotone_curves(curves: np.ndarray) -> np.ndarray:
    """Non-decreasing least-squares fit of every row of a matrix of bucket
    curves (pool adjacent violators); a non-decreasing row comes back unchanged.

    Every row makes the pushes, adds and comparisons, in the same order, that
    a loop over its values alone would make, and the same divisions but the
    exact ones by 1 (see _mean), so its output is that loop's bit for bit: a
    value is pushed as a block of (total, count), then the last two blocks
    merge while their means decrease. Rows that have made the same merges so
    far share one stack, which holds one array of totals per block, over the
    group's rows, and one count; a group splits where its rows' comparisons
    disagree. A model's curves are clip(sigmoid(base + w_k)) with one offset
    vector w, so a block of them follows a handful of merge paths, and the
    pass makes a few array operations per path and bucket.
    """
    values = np.asarray(curves, dtype=float)
    if values.ndim != 2 or values.shape[1] == 0:
        raise DataError("curves must be a matrix with at least one bucket")
    if not ((values >= 0.0) & (values <= 1.0)).all():  # also false for NaN
        raise DataError("curve values must lie in [0, 1]")
    n, k = values.shape
    columns = values.T.copy()  # column j of the rows is one contiguous gather
    smoothed = np.empty((n, k))
    # Groups still to run: (rows, block totals, block counts, next column).
    work = [(np.arange(n), [], [], 0)]
    while work:
        rows, totals, counts, start = work.pop()
        for j in range(start, k):
            totals.append(columns[j][rows])
            counts.append(1)
            while len(totals) > 1:
                merge = _mean(totals[-2], counts[-2]) > _mean(totals[-1], counts[-1])
                merging = int(np.count_nonzero(merge))
                if merging == 0:
                    break
                if merging < len(rows):  # the rows that stop go on from column j + 1
                    stop = ~merge
                    work.append((rows[stop], [t[stop] for t in totals], counts.copy(), j + 1))
                    rows, totals = rows[merge], [t[merge] for t in totals]
                top, count = totals.pop(), counts.pop()
                totals[-1] += top
                counts[-1] += count
        # A group of every row holds them in order, so it writes by slices.
        target = slice(None) if len(rows) == n else rows
        first = 0
        for total, count in zip(totals, counts):
            smoothed[target, first : first + count] = _mean(total, count)[:, None]
            first += count
    return smoothed


def _mean(total: np.ndarray, count: int) -> np.ndarray:
    """total / count; a block of one value is its own mean, as x / 1 is x exactly."""
    return total if count == 1 else total / count


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
    if not (np.diff(values) >= 0.0).all():  # also false for NaN
        raise DataError("curve is not non-decreasing; apply monotone_curves first")
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
        "training_meta": asdict(model.meta),
    }


def _bucket_counts(raw: dict, key: str, n_buckets: int) -> tuple[int, ...]:
    counts = raw[key]
    if (
        type(counts) is not list
        or len(counts) != n_buckets
        or any(type(c) is not int or c < 0 for c in counts)
    ):
        raise ValueError(f"{key} must be {n_buckets} non-negative integers, not {counts!r}")
    return tuple(counts)


def model_from_dict(raw: dict) -> DiscoverabilityModel:
    """A model from its file form. A file whose training_meta lacks the
    bucket counts holds a gradient-descent fit and is refused.

    Schema edges, representatives and epochs must be integers, weights, bias
    and final_loss integers or floats; a bool or a string is refused.
    """
    try:
        # BucketSchema refuses edges or representatives that are not ints, and a bad schema.
        schema = BucketSchema(raw["schema"]["edges"], raw["schema"]["representative"])
        training = raw["training_meta"]
        meta = TrainingMeta(
            epochs=checked(training["epochs"], INTEGER, "epochs"),
            final_loss=float(checked(training["final_loss"], NUMBER, "final_loss")),
            bucket_examples=_bucket_counts(training, "bucket_examples", schema.n_buckets),
            bucket_positives=_bucket_counts(training, "bucket_positives", schema.n_buckets),
        )
        # The decoder reads an overflowing literal such as 1e400 as inf,
        # which no writer writes: train refuses a non-finite loss.
        if not math.isfinite(meta.final_loss):
            raise ValueError("final_loss must be finite")
        return DiscoverabilityModel(
            weights=np.asarray(checked_list(raw["weights"], NUMBER, "weights"), dtype=float),
            bias=float(checked(raw["bias"], NUMBER, "bias")),
            schema=schema,
            meta=meta,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"bad model payload: {exc}") from exc


def save_model(model: DiscoverabilityModel, path: str | Path) -> None:
    write_json(model_to_dict(model), path)


def load_model(path: str | Path) -> DiscoverabilityModel:
    return model_from_dict(read_json(path))


# The first bytes of a zip archive, and so of an .npz file (np.load tests the same).
_ZIP_MAGIC = (b"PK\x03\x04", b"PK\x05\x06")


def save_examples(examples: TrainingSet, path: str | Path) -> None:
    """The training-set file: an uncompressed .npz of features (float64,
    (n, d)), bucket and label (int64, (n,)), written at exactly `path`.

    np.savez is given an open file, so it adds no .npz suffix to the path, and
    it stamps every member with the same date, so equal sets give equal bytes.
    """
    with open(path, "wb") as fh:
        np.savez(fh, features=examples.features, bucket=examples.bucket, label=examples.label)


def load_examples(path: str | Path) -> TrainingSet:
    """The training-set file (see save_examples) as read-only columns.

    The file's content decides its format, not its suffix. A file that is not
    a zip archive (a JSON-lines training set of an earlier version, a bare
    .npy, an empty file), an archive np.load cannot read, members other than
    exactly features, bucket and label, a member of another dtype or number of
    dimensions, or columns TrainingSet refuses raise DataError naming `path`.
    """
    with open(path, "rb") as fh:
        if fh.read(4) not in _ZIP_MAGIC:
            raise DataError(
                f"{path}: not an .npz training set; training sets are no longer "
                "read as JSON lines"
            )
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as archive:
                names = set(archive.files)
                columns = {name: archive[name] for name in names & TrainingSet.COLUMNS.keys()}
        # zipfile raises OSError for a seek past the end and NotImplementedError,
        # a RuntimeError, for a compression method or flag it lacks.
        except (EOFError, OSError, RuntimeError, ValueError, zipfile.BadZipFile) as exc:
            raise DataError(f"{path}: bad .npz training set: {exc}") from exc
    declared = TrainingSet.COLUMNS
    if names != declared.keys():
        raise DataError(
            f"{path}: a training set holds exactly {sorted(declared)}: "
            f"missing {sorted(declared.keys() - names)}, "
            f"unexpected {sorted(names - declared.keys())}"
        )
    for name, (dtype, ndim) in declared.items():
        column = columns[name]
        if not isinstance(column, np.ndarray):
            raise DataError(f"{path}: {name} is not an .npy member")
        if column.dtype != dtype or column.ndim != ndim:
            raise DataError(
                f"{path}: {name} must be a {ndim}-D {np.dtype(dtype)} array, "
                f"not a {column.ndim}-D {column.dtype} one"
            )
        column.setflags(write=False)  # no one else holds it, so TrainingSet copies none
    try:
        return TrainingSet(**columns)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc

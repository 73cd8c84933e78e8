import gc
import io
import itertools
import json
import re
import warnings
import zipfile

import numpy as np
import pytest
from hypothesis import given, strategies as st

from coldstart_explore import allocator, simulator
from coldstart_explore.core import (
    DEFAULT_ALLOCATION,
    DEFAULT_SCHEMA,
    AllocationConfig,
    BucketSchema,
    ConfigError,
    DataError,
    geometric_schema,
)
from coldstart_explore.metrics import uniform_allocate
from coldstart_explore.model import (
    _P_CEIL,
    _P_FLOOR,
    DiscoverabilityModel,
    Hyperparams,
    ScoreOverflow,
    TrainingSet,
    _design_matrix,
    _sigmoid,
    gradient,
    invert_cap,
    load_examples,
    load_model,
    model_to_dict,
    monotone_curves,
    predict,
    predict_curves,
    save_examples,
    save_model,
    train,
)
from coldstart_explore.simulator import (
    SimConfig,
    build_training_set,
    generate_corpus,
    serve_round,
)
from conftest import make_model
from per_item import merge_path, monotone_curve, predict_curve

SCHEMA = geometric_schema()


def separable_examples(n=200, dim=4, seed=7):
    """Labels from a known hyperplane, margin >= 1."""
    rng = np.random.default_rng(seed)
    true_w = rng.normal(size=dim)
    true_w /= np.linalg.norm(true_w)
    rows = []
    while len(rows) < n:
        x = rng.normal(size=dim) * 3
        margin = float(x @ true_w)
        if abs(margin) < 1.0:
            continue
        rows.append((x, len(rows) % SCHEMA.n_buckets, int(margin > 0)))
    return training_set(rows)


def training_set(rows):
    """TrainingSet of (features, bucket, label) rows."""
    features, buckets, labels = zip(*rows)
    return TrainingSet(np.array(features, dtype=float), np.array(buckets), np.array(labels))


def rows_of(examples):
    """(features, bucket, label) of every example, in order."""
    return list(zip(examples.features, examples.bucket.tolist(), examples.label.tolist()))


def members_of(examples):
    """The columns of a training set as writable arrays, keyed by file member."""
    return {name: getattr(examples, name).copy() for name in ("features", "bucket", "label")}


def write_members(path, **members):
    """An .npz of the given members, written as save_examples writes one but unchecked."""
    with open(path, "wb") as fh:
        np.savez(fh, **members)


def reference_sigmoid(z):
    """The masked sigmoid that _sigmoid replaced."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_design_matrix(examples, schema):
    """The row-by-row design matrix that _design_matrix replaced."""
    rows = rows_of(examples)
    feature_dim = len(rows[0][0])
    X = np.zeros((len(rows), feature_dim + schema.n_buckets))
    y = np.zeros(len(rows))
    for i, (features, bucket, label) in enumerate(rows):
        X[i, :feature_dim] = features
        X[i, feature_dim + bucket] = 1.0
        y[i] = label
    return X, y


def gradient_descent_loss(examples, schema, learning_rate=0.05, epochs=1000, seed=0):
    """Final mean loss of the full-batch gradient descent that Newton's method
    replaced, from its seeded N(0, 0.01) start."""
    X, y = reference_design_matrix(examples, schema)
    rng = np.random.default_rng(seed)
    w = rng.normal(0.0, 0.01, size=X.shape[1])
    b = 0.0
    n = len(y)
    for _ in range(epochs):
        residual = reference_sigmoid(X @ w + b) - y
        w -= learning_rate * (X.T @ residual) / n
        b -= learning_rate * float(residual.mean())
    z = X @ w + b
    return float(np.mean(np.logaddexp(0.0, z) - y * z))


def mean_loss_gradient(model, examples):
    """Gradient of the mean loss over (weights, bias) at the model's coefficients."""
    X, y = reference_design_matrix(examples, model.schema)
    X = np.column_stack([X, np.ones(len(y))])
    theta = np.append(model.weights, model.bias)
    return X.T @ (reference_sigmoid(X @ theta) - y) / len(y)


def simulated_examples(items=600, seed=11):
    """Outcomes of one uniformly served simulator round."""
    sim = SimConfig(seed=seed, items_per_round=items)
    latents, records = generate_corpus(sim, 0)
    config = AllocationConfig(
        total_budget=200 * items, max_cost=1e9, min_cap=100, max_cap=1600,
        cf_high=0.6, cf_low=0.2, low_region_fraction=0.1,
    )
    observations = serve_round(latents, uniform_allocate(records, config), sim, 0)
    return build_training_set(observations, records, SCHEMA)


class TestTrain:
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_feature_names_the_example(self, value):
        examples = separable_examples(n=40)
        features = examples.features.copy()
        features[7, 1] = value
        # Refused when the set is built, so training never starts and numpy
        # never warns.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=r"training example 7 \(counting from 0\)"):
                TrainingSet(features, examples.bucket, examples.label)

    def test_separable_set_reaches_high_accuracy(self):
        examples = separable_examples()
        model = train(examples, SCHEMA, Hyperparams())
        correct = sum(
            ((predict(model, features, bucket) >= 0.5) == bool(label))
            for features, bucket, label in rows_of(examples)
        )
        assert correct / len(examples) >= 0.95

    def test_zero_features_converge_to_base_rate(self):
        # With all-zero features only the bucket weight and bias can train, so
        # the prediction settles at each bucket's positive rate (0.3 here).
        examples = training_set(
            (np.zeros(3), bucket, int(k < 6))
            for bucket in range(SCHEMA.n_buckets)
            for k in range(20)
        )
        model = train(examples, SCHEMA)
        for bucket in range(SCHEMA.n_buckets):
            p = predict(model, np.zeros(3), bucket)
            assert abs(p - 0.3) <= 0.05

    def test_single_class_refused(self):
        examples = TrainingSet(np.ones((5, 1)), np.zeros(5, int), np.ones(5, int))
        with pytest.raises(DataError, match="single-class"):
            train(examples, SCHEMA)

    def test_empty_refused(self):
        with pytest.raises(DataError, match="empty"):
            train(TrainingSet(np.empty((0, 2)), np.zeros(0, int), np.zeros(0, int)), SCHEMA)

    def test_dimension_mismatch_refused(self):
        # A training set holds one feature row per example, so the features
        # must be a matrix and every column as long as it.
        with pytest.raises(DataError, match="features must be a 2-D array"):
            TrainingSet(np.array([1.0, 2.0]), np.array([0, 0]), np.array([1, 0]))
        with pytest.raises(DataError, match="length"):
            TrainingSet(np.ones((2, 1)), np.array([0]), np.array([1, 0]))
        with pytest.raises(DataError, match="length"):
            TrainingSet(np.ones((2, 1)), np.array([0, 0]), np.array([1, 0, 1]))

    @pytest.mark.parametrize(
        "bucket, label, message",
        [
            ([0, -1], [1, 0], "bucket"),
            ([0, 1.5], [1, 0], "bucket"),
            ([0, 0], [1, 2], "label"),
            ([0, 0], [1, -1], "label"),
            ([0, 0], [1, 0.9], "label"),
        ],
    )
    def test_bad_label_or_negative_bucket_refused(self, bucket, label, message):
        with pytest.raises(DataError, match=message):
            TrainingSet(np.ones((2, 1)), np.array(bucket), np.array(label))

    def test_bad_value_named_with_its_example(self):
        refusals = [
            (np.array([0, 0]), np.array([1, 2]), "label must be 0 or 1"),
            (np.array([0, -1]), np.array([1, 0]), "bucket index must be a non-negative integer"),
        ]
        for bucket, label, message in refusals:
            with pytest.raises(DataError) as caught:
                TrainingSet(np.ones((2, 1)), bucket, label)
            assert str(caught.value) == f"{message} in training example 1 (counting from 0)"

    @pytest.mark.parametrize(
        "bucket",
        [
            np.array([0, 1, 2, 2**64 - 1], dtype=np.uint64),
            np.array([0, 1, 2, 2**63], dtype=np.uint64),
            np.array([0, 1, 2, 2**63 - 1], dtype=np.uint64),
            np.array([0.0, 1.0, 2.0, 1e20]),
            np.array([0.0, 1.0, 2.0, 2.0**63]),
            np.array([0.0, 1.0, 2.0, 2.0**63 - 1024]),
            np.array([0.0, 1.0, 2.0, np.inf]),
            np.array([False, True, True, True]),
        ],
        ids=["uint64-max", "uint64-2**63", "uint64-fits", "float-1e20", "float-2**63",
             "float-fits", "float-inf", "bool"],
    )
    def test_bucket_of_another_kind_refused_whatever_its_values(self, bucket):
        # Refused for its kind, whatever its values: an int64 cast would wrap
        # a uint64 bucket negative and warn of an invalid value for a float one.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError) as caught:
                TrainingSet(np.ones((4, 1)), bucket, np.array([1, 0, 1, 0]))
        assert str(caught.value) == (
            "training set column bucket must be a 1-D array of int64's kind, "
            f"not a 1-D {bucket.dtype} array"
        )

    @pytest.mark.parametrize(
        "bucket",
        [np.array([0, 2**63 - 1]), np.array([0, 2**31 - 1], dtype=np.int32)],
        ids=["int64", "int32"],
    )
    def test_largest_int64_buckets_kept(self, bucket):
        examples = TrainingSet(np.ones((2, 1)), bucket, np.array([1, 0]))
        assert examples.bucket.dtype == np.int64
        assert examples.bucket.tolist() == [0, int(bucket[1])]

    def test_columns_are_read_only(self):
        examples = separable_examples(n=10)
        assert len(examples) == 10
        for column in (examples.features, examples.bucket, examples.label):
            assert not column.flags.writeable

    def test_caller_arrays_stay_writeable(self):
        features, bucket, label = np.ones((2, 1)), np.array([0, 1]), np.array([1, 0])
        examples = TrainingSet(features, bucket, label)
        features[0, 0], bucket[0], label[0] = 5.0, 2, 0
        assert examples.features[0, 0] == 1.0
        assert examples.bucket[0] == 0 and examples.label[0] == 1
        # A read-only column is taken as it is, not copied.
        for column in (features, bucket, label):
            column.setflags(write=False)
        frozen = TrainingSet(features, bucket, label)
        assert frozen.features is features
        assert frozen.bucket is bucket and frozen.label is label

    def test_bucket_out_of_range_refused(self):
        examples = TrainingSet(np.ones((2, 1)), np.array([99, 0]), np.array([1, 0]))
        with pytest.raises(DataError, match="bucket"):
            train(examples, SCHEMA)

    def test_two_fits_are_bit_identical(self):
        for examples in (separable_examples(n=60), simulated_examples()):
            a = train(examples, SCHEMA)
            b = train(examples, SCHEMA)
            assert np.array_equal(a.weights, b.weights)
            assert a.bias == b.bias
            assert a.meta == b.meta

    def test_more_epochs_do_not_increase_loss(self):
        examples = separable_examples(n=100)
        short = train(examples, SCHEMA, Hyperparams(epochs=10))
        long = train(examples, SCHEMA, Hyperparams(epochs=500))
        assert long.meta.final_loss <= short.meta.final_loss
        assert np.isfinite(long.meta.final_loss)

    def test_mean_gradient_vanishes_at_the_fit(self):
        examples = simulated_examples()
        model = train(examples, SCHEMA)
        assert model.meta.epochs < Hyperparams().epochs  # converged, not capped
        assert np.abs(mean_loss_gradient(model, examples)).max() <= 1e-8

    @pytest.mark.parametrize(
        "examples", [separable_examples(), simulated_examples()],
        ids=["separable", "simulated"],
    )
    def test_loss_at_most_that_of_gradient_descent(self, examples):
        model = train(examples, SCHEMA)
        assert model.meta.final_loss <= gradient_descent_loss(examples, SCHEMA)

    def test_separable_set_stops_at_the_cap(self):
        # No finite minimizer exists, so the weights grow with every step.
        model = train(separable_examples(), SCHEMA)
        assert model.meta.epochs == Hyperparams().epochs
        assert np.isfinite(model.weights).all() and np.isfinite(model.bias)
        assert model.meta.final_loss < np.log(2.0)

    def test_unseen_buckets_get_zero_weight(self):
        # Every example sits in bucket 1, as in the simulated loop's bootstrap
        # round: the bias column equals bucket 1's and the other five are zero.
        base = simulated_examples()
        examples = TrainingSet(base.features, np.ones(len(base), dtype=int), base.label)
        model = train(examples, SCHEMA)
        n = len(examples)
        assert model.meta.bucket_examples == (0, n, 0, 0, 0, 0)
        assert model.meta.bucket_positives == (0, int(base.label.sum()), 0, 0, 0, 0)
        bucket_weights = model.weights[model.feature_dim :]
        unseen = np.array(model.meta.bucket_examples) == 0
        assert np.abs(bucket_weights[unseen]).max() <= 1e-12
        # The minimum-norm steps split the intercept evenly.
        assert bucket_weights[1] == pytest.approx(model.bias, rel=1e-9)

    def test_meta_counts_the_examples_of_each_bucket(self):
        examples = separable_examples(n=60)
        meta = train(examples, SCHEMA).meta
        assert meta.bucket_examples == tuple(
            int((examples.bucket == k).sum()) for k in range(SCHEMA.n_buckets)
        )
        assert meta.bucket_positives == tuple(
            int(examples.label[examples.bucket == k].sum()) for k in range(SCHEMA.n_buckets)
        )

    def test_design_matrix_equals_reference(self):
        examples = simulated_examples(items=200)
        X_ref, y_ref = reference_design_matrix(examples, SCHEMA)
        with_bias = np.column_stack([X_ref, np.ones(len(y_ref))])
        assert np.array_equal(_design_matrix(examples, SCHEMA), with_bias)
        assert np.array_equal(examples.label.astype(float), y_ref)

    @pytest.mark.parametrize(
        "epochs",
        [
            0,
            -3,
            2.5,
            float("nan"),
            float("inf"),
            "100",
            # An int alone, as a model file's epochs: not a bool, an integral float or a numpy int.
            True,
            100.0,
            np.int64(100),
        ],
    )
    def test_bad_hyperparams_refused(self, epochs):
        # Refused as built, so no train call ever sees them.
        with pytest.raises(ConfigError, match="epochs"):
            Hyperparams(epochs=epochs)

    def test_features_that_overflow_the_fit_refused(self):
        # Features of about 1e160 overflow the Hessian's products; lstsq
        # would fail to converge on the infinite system it got.
        examples = separable_examples(n=40)
        huge = TrainingSet(examples.features * 1e160, examples.bucket, examples.label)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="training features overflow the fit"):
                train(huge, SCHEMA)


class TestSigmoid:
    Z = np.concatenate(
        [
            np.linspace(-800.0, 800.0, 4001),
            np.random.default_rng(3).normal(0.0, 4.0, size=2000),
            [0.0, -0.0, 1e-300, -1e-300, 709.0, -745.0, np.inf, -np.inf],
        ]
    )

    def test_bit_identical_to_masked_sigmoid(self):
        assert np.array_equal(_sigmoid(self.Z), reference_sigmoid(self.Z))

    def test_scalar_and_nan(self):
        assert float(_sigmoid(np.array(0.0))) == 0.5
        assert np.isnan(_sigmoid(np.array([np.nan]))[0])


class TestPredict:
    def test_zero_model_gives_half(self):
        model = make_model(SCHEMA, [0.0, 0.0], np.zeros(SCHEMA.n_buckets))
        assert predict(model, np.array([3.0, -1.0]), 2) == pytest.approx(0.5)

    def test_known_logit(self):
        model = make_model(SCHEMA, [2.0], np.zeros(SCHEMA.n_buckets))
        p = predict(model, np.array([1.0]), 0)
        assert p == pytest.approx(1 / (1 + np.exp(-2.0)), abs=1e-12)
        assert p == pytest.approx(0.8808, abs=1e-4)

    def test_trained_model_scores_positive_point_high(self):
        examples = separable_examples()
        model = train(examples, SCHEMA, Hyperparams())
        first = int(np.argmax(examples.label == 1))
        assert predict(model, examples.features[first], examples.bucket[first]) > 0.5

    def test_output_strictly_inside_unit_interval(self):
        model = make_model(SCHEMA, [1000.0], np.zeros(SCHEMA.n_buckets))
        hi = predict(model, np.array([100.0]), 0)
        lo = predict(model, np.array([-100.0]), 0)
        assert 0.0 < lo < hi < 1.0

    def test_dimension_mismatch(self):
        model = make_model(SCHEMA, [1.0], np.zeros(SCHEMA.n_buckets))
        with pytest.raises(DataError, match="dimension"):
            predict(model, np.array([1.0, 2.0]), 0)

    def test_invalid_bucket(self):
        model = make_model(SCHEMA, [1.0], np.zeros(SCHEMA.n_buckets))
        with pytest.raises(DataError, match="bucket"):
            predict(model, np.array([1.0]), SCHEMA.n_buckets)

    def test_equals_its_entry_of_predict_curve(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            dim = int(rng.integers(1, 6))
            model = make_model(
                SCHEMA, rng.normal(0, 3, size=dim), rng.normal(0, 3, size=SCHEMA.n_buckets),
                float(rng.normal()),
            )
            x = rng.normal(0, 3, size=dim)
            curve = predict_curve(model, x)
            for k in range(SCHEMA.n_buckets):
                assert predict(model, x, k) == curve[k]


class TestPredictCurve:
    def test_zero_model_flat_half(self):
        model = make_model(SCHEMA, [0.0], np.zeros(SCHEMA.n_buckets))
        assert np.allclose(predict_curve(model, np.array([5.0])), 0.5)

    def test_increasing_bucket_weights_give_increasing_curve(self):
        model = make_model(SCHEMA, [0.0], [-2.0, -1.0, 0.0, 1.0, 2.0, 3.0])
        curve = predict_curve(model, np.array([0.0]))
        assert np.all(np.diff(curve) > 0)

    def test_matches_predict_per_bucket(self):
        rng = np.random.default_rng(0)
        model = make_model(SCHEMA, rng.normal(size=3), rng.normal(size=SCHEMA.n_buckets), 0.2)
        x = rng.normal(size=3)
        curve = predict_curve(model, x)
        for k in range(SCHEMA.n_buckets):
            assert curve[k] == pytest.approx(predict(model, x, k), abs=1e-12)


class TestPredictCurves:
    def test_rows_match_predict_curve(self):
        rng = np.random.default_rng(5)
        model = make_model(SCHEMA, rng.normal(size=4), rng.normal(size=SCHEMA.n_buckets), 0.3)
        X = rng.normal(size=(200, 4))
        batch = predict_curves(model, X)
        assert batch.shape == (200, SCHEMA.n_buckets)
        # Only the dot product's summation order differs from the scalar path.
        for x, row in zip(X, batch):
            assert np.max(np.abs(row - predict_curve(model, x))) <= 1e-15

    def test_dimension_mismatch(self):
        model = make_model(SCHEMA, [1.0], np.zeros(SCHEMA.n_buckets))
        with pytest.raises(DataError, match="dimension"):
            predict_curves(model, np.zeros((3, 2)))
        with pytest.raises(DataError, match="dimension"):
            predict_curves(model, np.zeros(1))

    def test_no_rows(self):
        model = make_model(SCHEMA, [1.0], np.zeros(SCHEMA.n_buckets))
        assert predict_curves(model, np.zeros((0, 1))).shape == (0, SCHEMA.n_buckets)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "features, bucket_weights",
        [
            # 2 * 1e308 and -2 * 1e308 overflow: the score is NaN.
            ([[1.0, 1.0], [1e308, 1e308]], np.zeros(SCHEMA.n_buckets)),
            # The score 1.6e308 is finite; adding the last bucket's weight overflows.
            ([[1.0, 1.0], [0.8e308, 0.0]], [0.0] * (SCHEMA.n_buckets - 1) + [1e308]),
        ],
        ids=["score", "logit"],
    )
    def test_overflow_names_the_row(self, features, bucket_weights):
        model = make_model(SCHEMA, [2.0, -2.0], bucket_weights)
        with pytest.raises(ScoreOverflow, match="features of row 1 overflow") as refused:
            predict_curves(model, np.array(features))
        assert refused.value.row == 1
        assert isinstance(refused.value, DataError)


class TestPredictRefusesOverflow:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "features, bucket_weights",
        [
            # 2 * 1e308 and -2 * 1e308 overflow: the score is NaN.
            ([1e308, 1e308], np.zeros(SCHEMA.n_buckets)),
            # 2 * 1e308 alone overflows: the score is +inf.
            ([1e308, 0.0], np.zeros(SCHEMA.n_buckets)),
            # The score 1.6e308 is finite; adding the last bucket's weight overflows.
            ([0.8e308, 0.0], [0.0] * (SCHEMA.n_buckets - 1) + [1e308]),
        ],
        ids=["nan score", "inf score", "logit"],
    )
    def test_overflow_raises_score_overflow(self, features, bucket_weights):
        model = make_model(SCHEMA, [2.0, -2.0], bucket_weights)
        x = np.array(features)
        with pytest.raises(ScoreOverflow, match="features of row 0 overflow"):
            predict_curve(model, x)
        for bucket in (0, SCHEMA.n_buckets - 1):
            with pytest.raises(ScoreOverflow, match="features of row 0 overflow"):
                predict(model, x, bucket)

    @pytest.mark.filterwarnings("error")
    def test_huge_finite_score_still_predicts(self):
        # 2 * 1e307 - 2 * 1e307 is finite; sigmoid saturates without a warning.
        model = make_model(SCHEMA, [2.0, 1.0], np.zeros(SCHEMA.n_buckets))
        curve = predict_curve(model, np.array([1e307, 0.0]))
        assert curve.tolist() == predict_curves(model, np.array([[1e307, 0.0]]))[0].tolist()


class TestGradient:
    def test_zero_residual_gives_zero_gradient(self):
        # A huge logit saturates the sigmoid to exactly 1.0 in floats.
        model = make_model(SCHEMA, [40.0], np.zeros(SCHEMA.n_buckets))
        grad_w, grad_b = gradient(model, np.array([1.0]), 0, 1)
        assert np.all(grad_w == 0.0)
        assert grad_b == 0.0

    def test_zero_model_label_one(self):
        model = make_model(SCHEMA, [0.0, 0.0, 0.0], np.zeros(SCHEMA.n_buckets))
        x = np.array([1.0, -2.0, 0.5])
        grad_w, grad_b = gradient(model, x, 2, 1)
        assert np.allclose(grad_w[:3], -0.5 * x)
        assert grad_w[3 + 2] == pytest.approx(-0.5)
        assert grad_b == pytest.approx(-0.5)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        step = 1e-6
        for _ in range(10):
            dim = int(rng.integers(1, 5))
            w = rng.normal(size=dim + SCHEMA.n_buckets)
            bias = float(rng.normal())
            model = make_model(SCHEMA, w[:dim], w[dim:], bias)
            features = rng.normal(size=dim)
            bucket = int(rng.integers(SCHEMA.n_buckets))
            label = int(rng.integers(2))
            grad_w, grad_b = gradient(model, features, bucket, label)

            def loss(weights, b):
                m = make_model(SCHEMA, weights[:dim], weights[dim:], b)
                p = predict(m, features, bucket)
                return -(label * np.log(p) + (1 - label) * np.log(1 - p))

            fd = np.zeros(len(w) + 1)
            for j in range(len(w)):
                up, down = w.copy(), w.copy()
                up[j] += step
                down[j] -= step
                fd[j] = (loss(up, bias) - loss(down, bias)) / (2 * step)
            fd[-1] = (loss(w, bias + step) - loss(w, bias - step)) / (2 * step)
            analytic = np.concatenate([grad_w, [grad_b]])
            assert np.linalg.norm(analytic - fd) <= 1e-5 * max(np.linalg.norm(fd), 1e-8)

    def test_dimension_mismatch(self):
        model = make_model(SCHEMA, [1.0], np.zeros(SCHEMA.n_buckets))
        with pytest.raises(DataError, match="dimension"):
            gradient(model, np.array([1.0, 2.0]), 0, 0)
        with pytest.raises(DataError, match="bucket"):
            gradient(model, np.array([1.0]), SCHEMA.n_buckets, 0)


class TestMonotoneCurve:
    def test_already_monotone_unchanged(self):
        curve = [0.1, 0.4, 0.7, 0.9]
        assert np.allclose(monotone_curve(curve), curve)

    def test_violating_pair_averaged(self):
        assert np.allclose(monotone_curve([0.5, 0.3]), [0.4, 0.4])

    def test_known_pooling(self):
        assert np.allclose(monotone_curve([0.2, 0.6, 0.5, 0.9]), [0.2, 0.55, 0.55, 0.9])

    def test_beats_every_monotone_grid_vector(self):
        # Exhaustive search over non-decreasing vectors on a 0.05 grid: none
        # fits the data better than the pooled solution.
        values = np.array([0.2, 0.6, 0.5, 0.9])
        fitted = monotone_curve(values)
        fitted_sse = float(np.sum((fitted - values) ** 2))
        grid = np.round(np.arange(0.0, 1.0001, 0.05), 10)
        best = min(
            float(np.sum((np.array(v) - values) ** 2))
            for v in itertools.combinations_with_replacement(grid, len(values))
        )
        assert fitted_sse <= best + 1e-12

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
    def test_output_non_decreasing_and_idempotent(self, values):
        out = monotone_curve(values)
        assert np.all(np.diff(out) >= 0)
        assert np.allclose(monotone_curve(out), out, atol=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(DataError):
            monotone_curve([0.5, 1.5])


def assert_rows_bit_identical(curves):
    batch = monotone_curves(curves)
    scalar = np.array([monotone_curve(row) for row in curves]).reshape(batch.shape)
    assert np.array_equal(batch.view(np.int64), scalar.view(np.int64))


class TestMonotoneCurves:
    def test_random_rows_bit_identical_to_monotone_curve(self):
        rng = np.random.default_rng(17)
        for k in (1, 2, 3, 6, 7):
            assert_rows_bit_identical(rng.uniform(size=(2000, k)))

    def test_ties_flat_and_monotone_rows(self):
        rng = np.random.default_rng(18)
        curves = np.round(rng.uniform(size=(600, 6)), 1)  # many ties
        curves[::5] = 0.5  # flat
        curves[1::5] = np.sort(curves[1::5], axis=1)  # already monotone
        curves[2::5] = np.sort(curves[2::5], axis=1)[:, ::-1]  # fully decreasing
        curves[3] = [0.0, 0.0, 1.0, 1.0, 0.0, 0.0]
        curves[4] = [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]
        assert_rows_bit_identical(curves)

    @given(
        st.integers(1, 8).flatmap(
            lambda k: st.lists(
                st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k),
                min_size=1,
                max_size=20,
            )
        )
    )
    def test_property_bit_identical(self, rows):
        assert_rows_bit_identical(np.array(rows))

    @given(
        st.integers(3, 8).flatmap(
            lambda k: st.tuples(
                st.lists(st.floats(-25.0, 25.0), min_size=k, max_size=k),
                st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=40),
            )
        )
    )
    def test_model_family_bit_identical(self, offsets_and_bases):
        # The curves a model scores: clip(sigmoid(base + w_k)) with one offset
        # vector w shared by every row, so the rows follow few merge paths.
        # Bases past +-27.6 push values into the 1e-12 clip at either end.
        offsets, bases = offsets_and_bases
        curves = np.clip(_sigmoid(np.add.outer(bases, offsets)), _P_FLOOR, _P_CEIL)
        assert_rows_bit_identical(curves)

    def test_rows_split_off_a_shared_path(self):
        # One offset vector whose curves take seven merge paths, which share
        # their first merges; rows of every path are interleaved, and each
        # base repeats.
        offsets = np.array([0.0, 2.0, -1.0, 3.0, -4.0, 5.0, 1.0])
        bases = np.repeat(np.linspace(-30.0, 30.0, 201), 5)
        np.random.default_rng(19).shuffle(bases)
        curves = np.clip(_sigmoid(np.add.outer(bases, offsets)), _P_FLOOR, _P_CEIL)
        assert len({merge_path(row) for row in curves}) == 7
        assert_rows_bit_identical(curves)

    def test_leaves_no_garbage(self):
        # The pass keeps its groups on a work list: no reference cycle holds a
        # group's arrays until the cycle collector runs.
        curves = np.random.default_rng(20).uniform(size=(3000, 7))
        assert len({merge_path(row) for row in curves[:500]}) > 50
        gc.collect()
        gc.disable()
        try:
            monotone_curves(curves)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_loop_on_many_paths_equals_the_per_row_oracle(self, monkeypatch):
        # A loop whose model rounds score blocks of five merge paths or more
        # plans, serves and trains as it does with each row smoothed alone.
        config = simulator.SimConfig(seed=1, items_per_round=500, rounds=8)
        paths = []
        fit = simulator.train

        def run():
            trained = []

            def recording_train(examples, *args):
                trained.append(examples)
                return fit(examples, *args)

            monkeypatch.setattr(simulator, "train", recording_train)
            report = simulator.run_experiment(
                config, DEFAULT_ALLOCATION, DEFAULT_SCHEMA, Hyperparams(), "model"
            )
            return report, trained

        def per_row(curves):
            paths.append(len({merge_path(row) for row in curves}))
            return np.array([monotone_curve(row) for row in curves]).reshape(curves.shape)

        report, trained = run()
        monkeypatch.setattr(allocator, "monotone_curves", per_row)
        expected, expected_trained = run()
        assert max(paths) >= 5
        assert report == expected and report.rounds == expected.rounds
        assert len(trained) == len(expected_trained) == config.rounds - 1
        for got, ref in zip(trained, expected_trained):
            for name in ("features", "bucket", "label"):
                assert np.array_equal(getattr(got, name), getattr(ref, name))

    def test_known_pooling(self):
        out = monotone_curves([[0.2, 0.6, 0.5, 0.9], [0.1, 0.4, 0.7, 0.9]])
        assert np.allclose(out, [[0.2, 0.55, 0.55, 0.9], [0.1, 0.4, 0.7, 0.9]])

    def test_no_rows(self):
        assert monotone_curves(np.empty((0, 6))).shape == (0, 6)

    def test_rejects_nan_rows(self):
        curves = np.array([[0.1, 0.2, 0.3], [0.1, np.nan, 0.3], [np.nan] * 3])
        for rows in (curves, curves[1:2], curves[2:]):
            with pytest.raises(DataError, match=r"lie in \[0, 1\]"):
                monotone_curves(rows)

    def test_rejects_out_of_range_and_bad_shape(self):
        with pytest.raises(DataError):
            monotone_curves([[0.5, 1.5]])
        with pytest.raises(DataError):
            monotone_curves([0.5, 0.7])
        with pytest.raises(DataError):
            monotone_curves(np.empty((3, 0)))


class TestInvertCap:
    CONFIG = AllocationConfig(
        total_budget=10_000,
        max_cost=500.0,
        min_cap=100,
        max_cap=1600,
        cf_high=0.9,
        cf_low=0.2,
        low_region_fraction=0.0,
    )
    # representatives 100/200/400/1600 sit inside these edges
    SCHEMA4 = BucketSchema(edges=(0, 150, 250, 450), representative=(100, 200, 400, 1600))

    def test_all_ones_clamps_to_min_cap(self):
        cap = invert_cap(np.ones(4), 0.9, self.CONFIG, self.SCHEMA4)
        assert cap == 100

    def test_smallest_qualifying_bucket(self):
        cap = invert_cap(np.array([0.1, 0.4, 0.7, 0.95]), 0.9, self.CONFIG, self.SCHEMA4)
        assert cap == 1600

    def test_not_achievable(self):
        assert invert_cap(np.full(4, 0.5), 0.9, self.CONFIG, self.SCHEMA4) is None

    def test_non_monotone_reported_not_fixed(self):
        with pytest.raises(DataError, match="non-decreasing"):
            invert_cap(np.array([0.5, 0.3, 0.6, 0.9]), 0.5, self.CONFIG, self.SCHEMA4)

    def test_cf_out_of_range(self):
        with pytest.raises(ConfigError):
            invert_cap(np.ones(4), 1.0, self.CONFIG, self.SCHEMA4)

    @pytest.mark.parametrize(
        "curve", [[0.1, np.nan, 0.7, 0.95], [np.nan] * 4], ids=["one-nan", "all-nan"]
    )
    def test_nan_curve_refused(self, curve):
        # Every comparison with NaN is false, so NaN would pass a test for a
        # decrease, and an all-NaN curve would read as one that never reaches cf.
        with pytest.raises(DataError, match="apply monotone_curves first"):
            invert_cap(np.array(curve), 0.6, self.CONFIG, self.SCHEMA4)

    def test_minimality_and_cf_monotonicity(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            curve = np.sort(rng.uniform(0, 1, size=4))
            cf1, cf2 = sorted(rng.uniform(0.01, 0.99, size=2))
            caps = []
            for cf in (cf1, cf2):
                cap = invert_cap(curve, cf, self.CONFIG, self.SCHEMA4)
                qualifying = [k for k in range(4) if curve[k] >= cf]
                if not qualifying:
                    assert cap is None
                else:
                    k = qualifying[0]
                    assert k == 0 or curve[k - 1] < cf
                    expected = min(max(self.SCHEMA4.representative[k], 100), 1600)
                    assert cap == expected
                caps.append(np.inf if cap is None else cap)
            assert caps[0] <= caps[1]


class TestDiscoverabilityModel:
    def test_caller_weights_stay_writeable(self):
        weights = np.zeros(1 + SCHEMA.n_buckets)
        model = make_model(SCHEMA, [0.0], np.zeros(SCHEMA.n_buckets))
        model = DiscoverabilityModel(weights, 0.0, SCHEMA, model.meta)
        weights[0] = 5.0
        assert model.weights[0] == 0.0
        assert not model.weights.flags.writeable

    def test_trained_weights_are_not_copied(self):
        model = train(separable_examples(n=60), SCHEMA)
        assert DiscoverabilityModel(model.weights, 0.0, SCHEMA, model.meta).weights is (
            model.weights
        )


class TestSerialization:
    def test_model_file_round_trips_bit_exactly(self, tmp_path):
        examples = separable_examples(n=80)
        model = train(examples, SCHEMA, Hyperparams())
        path1 = tmp_path / "model.json"
        path2 = tmp_path / "model2.json"
        save_model(model, path1)
        save_model(load_model(path1), path2)
        assert path1.read_bytes() == path2.read_bytes()

    def test_loaded_model_predicts_identically(self, tmp_path):
        examples = separable_examples(n=80)
        model = train(examples, SCHEMA, Hyperparams())
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        x = examples.features[0]
        assert predict(loaded, x, 1) == predict(model, x, 1)

    def test_bad_model_payload(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"weights": [1.0]}))
        with pytest.raises(DataError, match="model"):
            load_model(path)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_examples_non_finite_rejected_with_line(self, tmp_path, token):
        # The file names the example, counting from 0, where a line used to be.
        path = tmp_path / "train.npz"
        features = np.array([[1.0], [float(token)]])
        write_members(path, features=features, bucket=np.zeros(2, np.int64),
                      label=np.array([1, 0]))
        with pytest.raises(
            DataError, match=r"train\.npz: non-finite feature in training example 1 "
        ):
            load_examples(path)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_final_loss_rejected(self, tmp_path, token):
        path = tmp_path / "model.json"
        save_model(make_model(SCHEMA, [1.0], np.zeros(SCHEMA.n_buckets)), path)
        text = path.read_text()
        loss = json.loads(text)["training_meta"]["final_loss"]
        path.write_text(text.replace(f'"final_loss": {loss!r}', f'"final_loss": {token}'))
        with pytest.raises(DataError, match=rf"model\.json: .*{token}"):
            load_model(path)

    @pytest.mark.parametrize("key", ["final_loss", "epochs"])
    def test_overflowing_training_meta_rejected(self, tmp_path, key):
        # json decodes 1e400 to inf, a value no writer writes.
        payload = model_to_dict(make_model(SCHEMA, [1.0], np.zeros(SCHEMA.n_buckets)))
        payload["training_meta"][key] = 12345.5
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload).replace("12345.5", "1e400"))
        with pytest.raises(DataError, match="bad model payload"):
            load_model(path)

    @pytest.mark.parametrize(
        "schema, message",
        [
            ({"edges": [0, 400, 200, 100, 800, 1600]}, "bucket edges must be strictly increasing"),
            ({"edges": [0, 100], "representative": [99, 1600]}, "bucket count must be at least 3"),
        ],
    )
    def test_bad_schema_refused(self, tmp_path, schema, message):
        # BucketSchema refuses it as load_model builds it.
        payload = model_to_dict(make_model(SCHEMA, [1.0], np.zeros(SCHEMA.n_buckets)))
        payload["schema"].update(schema)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=f"bad model payload: {message}"):
            load_model(path)

    @pytest.mark.parametrize("key", ["bucket_examples", "bucket_positives"])
    def test_file_without_bucket_support_refused(self, tmp_path, key):
        # A model file written before training recorded its support per bucket.
        payload = model_to_dict(make_model(SCHEMA, [1.0], np.zeros(SCHEMA.n_buckets)))
        del payload["training_meta"][key]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=f"bad model payload: '{key}'"):
            load_model(path)

    @pytest.mark.parametrize("counts", [[0] * 5, [0, 0, 0, 0, 0, -1], [0, 0, 0, 0, 0, 1.5], 6])
    def test_bad_bucket_support_refused(self, tmp_path, counts):
        payload = model_to_dict(make_model(SCHEMA, [1.0], np.zeros(SCHEMA.n_buckets)))
        payload["training_meta"]["bucket_examples"] = counts
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="bucket_examples must be 6 non-negative integers"):
            load_model(path)

    @pytest.mark.parametrize(
        "path, value",
        [
            (("schema", "edges", 1), True),
            (("schema", "edges", 1), 100.5),
            (("schema", "representative", 0), True),
            (("schema", "representative", 5), "1600"),
            (("training_meta", "epochs"), True),
            (("training_meta", "epochs"), 3.0),
            (("training_meta", "final_loss"), "0.5"),
            (("weights", 0), True),
            (("weights", 0), "1.0"),
            (("bias",), False),
            (("bias",), "0.5"),
        ],
    )
    def test_wrong_value_type_refused(self, tmp_path, path, value):
        # Values that int() or float() would truncate or convert.
        payload = model_to_dict(make_model(SCHEMA, [1.0], np.zeros(SCHEMA.n_buckets)))
        *parents, key = path
        target = payload
        for parent in parents:
            target = target[parent]
        target[key] = value
        file = tmp_path / "model.json"
        file.write_text(json.dumps(payload))
        named = parents[-1] if isinstance(key, int) else key
        with pytest.raises(DataError, match=f"bad model payload: .*{named}"):
            load_model(file)

    def test_meta_names_the_untrained_buckets(self):
        rows = [(np.array([x]), 1, int(x > 0)) for x in (-2.0, -1.0, 1.0, 2.0)]
        model = train(training_set(rows), SCHEMA)
        assert model.meta.bucket_examples == (0, 4, 0, 0, 0, 0)
        assert model.meta.untrained_buckets == (0, 2, 3, 4, 5)

    def test_non_finite_weights_rejected(self, tmp_path):
        payload = model_to_dict(make_model(SCHEMA, [1.0], np.zeros(SCHEMA.n_buckets)))
        payload["weights"][0] = float("nan")
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="finite"):
            load_model(path)

    def test_examples_round_trip(self, tmp_path):
        examples = separable_examples(n=10)
        path = tmp_path / "train.jsonl"
        save_examples(examples, path)
        loaded = load_examples(path)
        assert len(loaded) == len(examples)
        for a, b in zip(rows_of(examples), rows_of(loaded)):
            assert np.array_equal(a[0], b[0])
            assert a[1:] == b[1:]
        for column in (loaded.features, loaded.bucket, loaded.label):
            assert not column.flags.writeable
        save_examples(loaded, tmp_path / "again.jsonl")
        assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()


def _replaced(**changes):
    """The members of a 4-row training set with some replaced (None drops one)."""
    members = {
        "features": np.arange(8.0).reshape(4, 2),
        "bucket": np.array([0, 1, 2, 3]),
        "label": np.array([0, 1, 0, 1]),
        **changes,
    }
    return {name: value for name, value in members.items() if value is not None}


def npy_bytes(array):
    """What np.save writes for array: a bare .npy file."""
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


class TestTrainingSetFile:
    """load_examples refuses, naming the path, every file save_examples would not write."""

    def test_members_stored_with_a_fixed_date(self, tmp_path):
        path = tmp_path / "train.npz"
        save_examples(separable_examples(n=12), path)
        with zipfile.ZipFile(path) as archive:
            infos = archive.infolist()
        assert [info.filename for info in infos] == ["features.npy", "bucket.npy", "label.npy"]
        assert {info.date_time for info in infos} == {(1980, 1, 1, 0, 0, 0)}
        assert {info.compress_type for info in infos} == {zipfile.ZIP_STORED}

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"", "not an .npz training set"),
            (b'{"bucket": 0, "features": [1.0], "label": 1}\n',
             "not an .npz training set; training sets are no longer read as JSON lines"),
            (npy_bytes(np.ones((4, 2))), "not an .npz training set"),
            (b"PK\x03\x04", "bad .npz training set"),
            (b"PK\x05\x06" + bytes(10), "bad .npz training set"),
        ],
        ids=["empty", "json-lines", "npy", "zip-magic-only", "truncated-empty-zip"],
    )
    def test_not_an_archive_refused(self, tmp_path, content, message):
        path = tmp_path / "train.npz"
        path.write_bytes(content)
        with pytest.raises(DataError, match=re.escape(f"{path}: {message}")):
            load_examples(path)

    @pytest.mark.parametrize("keep", [0.1, 0.5, 0.9, 0.999])
    def test_truncated_archive_refused(self, tmp_path, keep):
        path = tmp_path / "train.npz"
        save_examples(separable_examples(n=12), path)
        content = path.read_bytes()
        path.write_bytes(content[: int(len(content) * keep)])
        with pytest.raises(DataError, match=re.escape(f"{path}: bad .npz training set")):
            load_examples(path)

    def test_object_member_refused(self, tmp_path):
        path = tmp_path / "train.npz"
        features = np.empty((4, 2), dtype=object)
        features[:] = 1.0
        write_members(path, **_replaced(features=features))
        with pytest.raises(DataError, match=re.escape(f"{path}: bad .npz training set")):
            load_examples(path)

    def test_member_that_is_not_npy_refused(self, tmp_path):
        path = tmp_path / "train.npz"
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("features.npy", b"not an array")
            archive.writestr("bucket.npy", npy_bytes(np.arange(4)))
            archive.writestr("label.npy", npy_bytes(np.array([0, 1, 0, 1])))
        with pytest.raises(DataError, match=re.escape(f"{path}: features is not an .npy member")):
            load_examples(path)

    @pytest.mark.parametrize(
        "members, message",
        [
            (_replaced(label=None), "missing ['label'], unexpected []"),
            (_replaced(traffic=np.arange(4)), "missing [], unexpected ['traffic']"),
            (_replaced(features=np.ones((4, 2), dtype=bool)),
             "features must be a 2-D float64 array, not a 2-D bool one"),
            (_replaced(features=np.ones((4, 2), dtype=np.int64)),
             "features must be a 2-D float64 array, not a 2-D int64 one"),
            (_replaced(features=np.ones((4, 2), dtype=np.float32)),
             "features must be a 2-D float64 array, not a 2-D float32 one"),
            # Cast to int64, 2**63 would wrap to a negative bucket.
            (_replaced(bucket=np.array([0, 1, 2, 2**63], dtype=np.uint64)),
             "bucket must be a 1-D int64 array, not a 1-D uint64 one"),
            (_replaced(bucket=np.array([0.0, 1.0, 2.0, 3.0])),
             "bucket must be a 1-D int64 array, not a 1-D float64 one"),
            (_replaced(label=np.array([False, True, False, True])),
             "label must be a 1-D int64 array, not a 1-D bool one"),
            (_replaced(features=np.arange(4.0)),
             "features must be a 2-D float64 array, not a 1-D float64 one"),
            (_replaced(bucket=np.zeros((4, 1), dtype=np.int64)),
             "bucket must be a 1-D int64 array, not a 2-D int64 one"),
            (_replaced(label=np.array([0, 1, 0])), "columns differ in length"),
            (_replaced(label=np.array([0, 1, 0, 2])),
             "label must be 0 or 1 in training example 3 (counting from 0)"),
            (_replaced(bucket=np.array([0, 1, 2, -1])),
             "bucket index must be a non-negative integer in training example 3 "
             "(counting from 0)"),
        ],
        ids=["missing", "extra", "bool-features", "int-features", "float32-features",
             "uint64-bucket", "float-bucket", "bool-label", "1-D-features", "2-D-bucket",
             "lengths-differ", "label-2", "negative-bucket"],
    )
    def test_bad_member_refused_naming_it(self, tmp_path, members, message):
        path = tmp_path / "train.npz"
        write_members(path, **members)
        with pytest.raises(DataError, match=re.escape(f"{path}: ") + ".*" + re.escape(message)):
            load_examples(path)

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_examples(tmp_path / "nope.npz")

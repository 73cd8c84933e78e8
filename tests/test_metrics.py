import csv
import dataclasses
import io
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from coldstart_explore.core import (
    DEFAULT_ALLOCATION,
    DEFAULT_SCHEMA,
    AllocationConfig,
    AllocationPlan,
    ConfigError,
    Corpus,
    DataError,
    PlanEntry,
    Region,
    cost_of,
    verify_plan,
)
from coldstart_explore.metrics import (
    MetricsReport,
    auc,
    metrics_report,
    oracle_allocate,
    pr_curve_and_auc,
    pr_metrics,
    uniform_allocate,
    write_pr_curve_csv,
)
from coldstart_explore.model import Hyperparams
from coldstart_explore.simulator import LatentItem, SimConfig, generate_corpus, run_experiment
from conftest import make_record
from per_item import latent_columns
from test_simulator import assert_same_report, run_experiment_reference


def cfg(**overrides) -> AllocationConfig:
    base = dict(
        total_budget=1000,
        max_cost=1000.0,
        min_cap=100,
        max_cap=1600,
        cf_high=0.9,
        cf_low=0.2,
        low_region_fraction=0.0,
    )
    base.update(overrides)
    return AllocationConfig(**base)


def scored(pairs):
    """(scores, labels) columns of (score, label) pairs."""
    scores, labels = zip(*pairs)
    return np.array(scores, dtype=float), np.array(labels)


def auc_pairwise_oracle(scores, labels):
    """O(P*N) pair enumeration, ties half."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else 0.5 if p == n else 0.0
    return total / (len(pos) * len(neg))


def average_precision_oracle(scores, labels):
    """Confusion counts recomputed from scratch at each distinct threshold."""
    items = list(zip(scores, labels))
    n_pos = sum(l for _, l in items)
    thresholds = sorted({s for s, _ in items}, reverse=True)
    ap = 0.0
    prev_recall = 0.0
    for t in thresholds:
        tp = sum(1 for s, l in items if s >= t and l == 1)
        fp = sum(1 for s, l in items if s >= t and l == 0)
        precision = tp / (tp + fp)
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def random_instance(rng, n, tie_prone=False):
    if tie_prone:
        scores = rng.integers(0, 5, size=n) / 4.0
    else:
        scores = rng.uniform(0, 1, size=n)
    labels = rng.integers(0, 2, size=n)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    return scores, labels


def reference_auc(scores, labels):
    """Average ranks from the tie-group loop that auc replaced."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=float)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(sorted_scores):
        j = i
        while j + 1 < len(sorted_scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    u = float(ranks[labels == 1].sum()) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def reference_pr_metrics(scores, labels, threshold):
    """The per-item confusion tally that pr_metrics replaced."""
    n_pos = sum(labels)
    tp = fp = tn = fn = 0
    for score, label in zip(scores, labels):
        predicted = score >= threshold
        if predicted and label == 1:
            tp += 1
        elif predicted:
            fp += 1
        elif label == 1:
            fn += 1
        else:
            tn += 1
    precision = tp / (tp + fp) if tp + fp > 0 else 1.0
    recall = tp / n_pos
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return (tp + tn) / len(labels), precision, recall, f1


def reference_pr_curve_and_auc(scores, labels):
    """The tie-group loop that pr_curve_and_auc replaced."""
    n_pos = sum(labels)
    ordered = sorted(zip(scores, labels), key=lambda item: -item[0])
    points = []
    ap = 0.0
    tp = seen = 0
    prev_recall = 0.0
    i = 0
    while i < len(ordered):
        j = i
        while j + 1 < len(ordered) and ordered[j + 1][0] == ordered[i][0]:
            j += 1
        for k in range(i, j + 1):
            tp += ordered[k][1]
            seen += 1
        precision = tp / seen
        recall = tp / n_pos
        points.append((recall, precision))
        ap += (recall - prev_recall) * precision
        prev_recall = recall
        i = j + 1
    return points, ap


class TestAuc:
    def test_perfect_ranking(self):
        assert auc(*scored([(0.9, 1), (0.8, 0)])) == 1.0

    def test_all_ties_give_half(self):
        assert auc(*scored([(0.5, 1), (0.5, 0), (0.5, 1), (0.5, 0)])) == 0.5

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(2)
        for k in range(30):
            scores, labels = random_instance(rng, 20, tie_prone=k % 2 == 0)
            assert auc(scores, labels) == pytest.approx(
                auc_pairwise_oracle(scores, labels), abs=1e-12
            )

    @pytest.mark.parametrize("tie_prone", [False, True])
    def test_bit_identical_to_tie_loop(self, tie_prone):
        rng = np.random.default_rng(21)
        for n in (2, 7, 300, 2000):
            scores, labels = random_instance(rng, n, tie_prone)
            assert auc(scores, labels) == reference_auc(scores, labels)

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(3)
        scores, labels = random_instance(rng, 25)
        assert auc(scores**3, labels) == pytest.approx(auc(scores, labels), abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            auc(*scored([(0.5, 1), (0.7, 1)]))


class TestColumnCheck:
    @pytest.mark.parametrize(
        "scores, labels, message",
        [
            ([0.5, 1.5], [1, 0], "score"),
            ([0.5, -0.1], [1, 0], "score"),
            ([0.5, float("nan")], [1, 0], "score"),
            ([0.5, 0.2], [1, 2], "label"),
            ([0.5, 0.2], [1, 0.5], "label"),
            ([0.5, 0.2], [1, 0, 1], "length"),
            ([[0.5, 0.2]], [[1, 0]], "vectors"),
        ],
    )
    def test_bad_columns_refused(self, scores, labels, message):
        for call in (
            lambda: auc(scores, labels),
            lambda: pr_metrics(scores, labels),
            lambda: pr_curve_and_auc(scores, labels),
            lambda: metrics_report(scores, labels, np.zeros(np.shape(labels))),
        ):
            with pytest.raises(DataError, match=message):
                call()

    def test_bucket_column_length_refused(self):
        with pytest.raises(DataError, match="buckets"):
            metrics_report([0.9, 0.1], [1, 0], [0])


class TestPrMetrics:
    def test_perfect_classifier(self):
        scores, labels = scored([(0.9, 1), (0.8, 1), (0.1, 0), (0.2, 0)])
        assert pr_metrics(scores, labels, 0.5) == (1.0, 1.0, 1.0, 1.0)

    def test_all_predicted_negative(self):
        scores, labels = scored([(0.1, 1), (0.2, 0), (0.3, 1), (0.0, 0)])
        accuracy, precision, recall, f1 = pr_metrics(scores, labels, 0.5)
        assert accuracy == 0.5
        assert precision == 1.0  # no predictions made
        assert recall == 0.0
        assert f1 == 0.0

    def test_matches_direct_tabulation(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            scores, labels = random_instance(rng, 30)
            items = list(zip(scores, labels))
            threshold = float(rng.uniform(0.1, 0.9))
            tp = sum(1 for s, l in items if s >= threshold and l == 1)
            fp = sum(1 for s, l in items if s >= threshold and l == 0)
            fn = sum(1 for s, l in items if s < threshold and l == 1)
            tn = len(items) - tp - fp - fn
            accuracy, precision, recall, f1 = pr_metrics(scores, labels, threshold)
            assert accuracy == pytest.approx((tp + tn) / len(items))
            assert precision == pytest.approx(tp / (tp + fp) if tp + fp else 1.0)
            assert recall == pytest.approx(tp / (tp + fn))
            if precision + recall > 0:
                assert f1 == pytest.approx(
                    2 * precision * recall / (precision + recall)
                )

    @pytest.mark.parametrize("threshold", [0.0, 0.25, 0.5, 1.0])
    def test_equal_to_per_item_tally(self, threshold):
        rng = np.random.default_rng(22)
        for tie_prone in (False, True):
            scores, labels = random_instance(rng, 500, tie_prone)
            assert pr_metrics(scores, labels, threshold) == reference_pr_metrics(
                scores.tolist(), labels.tolist(), threshold
            )

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -0.1, 1.5])
    def test_bad_threshold_is_config_error(self, threshold):
        scores, labels = scored([(0.9, 1), (0.1, 0)])
        with pytest.raises(ConfigError, match="threshold"):
            pr_metrics(scores, labels, threshold)
        with pytest.raises(ConfigError, match="threshold"):
            metrics_report(scores, labels, np.zeros(2), threshold)

    def test_no_positive_labels_is_an_error(self):
        with pytest.raises(DataError, match="recall"):
            pr_metrics(*scored([(0.9, 0), (0.1, 0)]))

    def test_empty_input_is_an_error(self):
        with pytest.raises(DataError, match="no positive labels"):
            pr_metrics([], [])


class TestPrCurve:
    def test_single_positive_on_top(self):
        _, ap = pr_curve_and_auc(*scored([(0.9, 1), (0.5, 0), (0.4, 0)]))
        assert ap == 1.0

    def test_scores_equal_labels(self):
        _, ap = pr_curve_and_auc(*scored([(1.0, 1), (0.0, 0), (1.0, 1), (0.0, 0)]))
        assert ap == 1.0

    def test_matches_average_precision_oracle(self):
        rng = np.random.default_rng(5)
        for k in range(30):
            scores, labels = random_instance(rng, 20, tie_prone=k % 2 == 0)
            _, ap = pr_curve_and_auc(scores, labels)
            assert ap == pytest.approx(average_precision_oracle(scores, labels), abs=1e-12)

    @pytest.mark.parametrize("tie_prone", [False, True])
    def test_bit_identical_to_tie_loop(self, tie_prone):
        rng = np.random.default_rng(23)
        for n in (2, 5, 300, 2000):
            scores, labels = random_instance(rng, n, tie_prone)
            (recall, precision), ap = pr_curve_and_auc(scores, labels)
            ref_points, ref_ap = reference_pr_curve_and_auc(scores.tolist(), labels.tolist())
            assert list(zip(recall.tolist(), precision.tolist())) == ref_points
            assert ap == ref_ap
            for column in (recall, precision):
                assert column.dtype == np.float64 and not column.flags.writeable

    def test_recall_non_decreasing(self):
        rng = np.random.default_rng(6)
        (recall, _), _ = pr_curve_and_auc(*random_instance(rng, 40, tie_prone=True))
        assert recall.tolist() == sorted(recall.tolist())

    def test_no_positives_rejected(self):
        with pytest.raises(DataError):
            pr_curve_and_auc(*scored([(0.5, 0)]))


class TestMetricsReport:
    def test_per_bucket_counts_aggregate_to_overall(self):
        rng = np.random.default_rng(7)
        items = []
        for bucket in range(4):
            for _ in range(25):
                items.append((float(rng.uniform()), int(rng.integers(0, 2)), bucket))
        # ensure every bucket has a positive
        scores, labels, buckets = map(np.array, zip(*items))
        report = metrics_report(scores, labels, buckets, threshold=0.5)
        assert len(report.per_bucket) == 4

        def confusion(subset):
            tp = sum(1 for s, l, _ in subset if s >= 0.5 and l == 1)
            fp = sum(1 for s, l, _ in subset if s >= 0.5 and l == 0)
            fn = sum(1 for s, l, _ in subset if s < 0.5 and l == 1)
            tn = len(subset) - tp - fp - fn
            return np.array([tp, fp, fn, tn])

        micro = sum(
            confusion([item for item in items if item[2] == b]) for b in range(4)
        )
        assert np.array_equal(micro, confusion(items))

    @pytest.mark.parametrize("tie_prone", [False, True])
    def test_per_bucket_rows_equal_per_item_tally(self, tie_prone):
        rng = np.random.default_rng(24)
        base_scores, base_labels = random_instance(rng, 900, tie_prone)
        base_buckets = rng.integers(0, 6, size=len(base_labels))
        # A bucket with no positive label is left out of the table.
        scores = base_scores.tolist() + [0.7, 0.2]
        labels = base_labels.tolist() + [0, 0]
        buckets = base_buckets.tolist() + [9, 9]
        report = metrics_report(
            np.array(scores), np.array(labels), np.array(buckets), threshold=0.5
        )
        expected = []
        for b in sorted(set(buckets)):
            mine = [k for k, bucket in enumerate(buckets) if bucket == b]
            subset_labels = [labels[k] for k in mine]
            if sum(subset_labels):
                subset_scores = [scores[k] for k in mine]
                expected.append((b, *reference_pr_metrics(subset_scores, subset_labels, 0.5)))
        rows = [(m.bucket, m.accuracy, m.precision, m.recall, m.f1) for m in report.per_bucket]
        assert rows == expected
        assert all(type(m.bucket) is int for m in report.per_bucket)
        points, ap = reference_pr_curve_and_auc(scores, labels)
        assert list(zip(report.curve_recall.tolist(), report.curve_precision.tolist())) == points
        assert report.pr_auc == ap
        assert report.auc == reference_auc(scores, labels)

    def test_all_values_in_unit_interval(self):
        rng = np.random.default_rng(8)
        buckets = rng.integers(0, 3, size=60)
        pairs = [(float(rng.uniform()), int(rng.integers(0, 2))) for _ in buckets]
        scores, labels = map(np.array, zip(*pairs))
        report = metrics_report(scores, labels, buckets)
        values = [report.auc, report.pr_auc]
        for m in report.per_bucket:
            values += [m.accuracy, m.precision, m.recall, m.f1]
        values += report.curve_recall.tolist() + report.curve_precision.tolist()
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_pr_curve_file_is_what_csv_writer_writes(self, tmp_path):
        rng = np.random.default_rng(9)
        scores, labels = random_instance(rng, 200, tie_prone=True)
        report = metrics_report(scores, labels, rng.integers(0, 3, size=len(labels)))
        edges = ((5e-324, 1e-05), (0.1, 2.0), (1.7976931348623157e308, -0.0), (1 / 3, 1e16))
        recall, precision = (
            np.append(column, extra)
            for column, extra in zip((report.curve_recall, report.curve_precision), zip(*edges))
        )
        report = dataclasses.replace(report, curve_recall=recall, curve_precision=precision)
        write_pr_curve_csv(report, tmp_path / "pr_curve.csv")
        expected = io.StringIO(newline="")
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["recall", "precision"])
        writer.writerows(zip(recall.tolist(), precision.tolist()))
        assert (tmp_path / "pr_curve.csv").read_bytes() == expected.getvalue().encode()


    def test_curve_columns_frozen_as_floats(self):
        recall = np.array([0, 1], dtype=np.float32)
        report = MetricsReport(0.5, 0.5, (), recall, np.array([1.0, 0.5]))
        recall[0] = 7  # the caller's array was copied, not frozen
        assert report.curve_recall.tolist() == [0.0, 1.0]
        for column in (report.curve_recall, report.curve_precision):
            assert column.dtype == np.float64 and not column.flags.writeable

    def test_curve_columns_of_unequal_length_refused(self):
        message = "PR curve columns differ in length: 3 curve_recall, 2 curve_precision"
        with pytest.raises(DataError, match=message):
            MetricsReport(0.5, 0.5, (), np.zeros(3), np.zeros(2))

    def test_curve_columns_not_1d_refused(self):
        # Written by the %r template, a 2-D column's rows would be list reprs.
        must = "must be a 1-D array of float64's kind"
        message = re.escape(f"PR curve column curve_precision {must}, not a 2-D float64 array")
        with pytest.raises(DataError, match=message):
            MetricsReport(0.5, 0.5, (), np.zeros(2), np.ones((2, 2)))
        message = re.escape(f"PR curve column curve_recall {must}, not a float")
        with pytest.raises(DataError, match=message):
            MetricsReport(0.5, 0.5, (), 0.5, 0.5)


def latent(item_id, theta):
    return LatentItem(
        id=item_id, quality=0.0, true_threshold=theta, engagement_prob=0.1
    )


def oracle_of(latents, config):
    """oracle_allocate of latent items, as the columns it takes."""
    return oracle_allocate(latent_columns(latents), config)


class TestOracleAllocate:
    def test_non_monotone_cost_funds_skips_and_funds_again(self):
        latents = [latent(i, theta) for i, theta in FUND_SKIP_FUND["pairs"]]
        plan = oracle_of(latents, FUND_SKIP_FUND["config"])
        assert plan.granted.tolist() == [100, 0, 102, 0, 104]

    def test_zero_threshold_items_funded_at_min_cap(self):
        latents = [latent("a", 0.0), latent("b", 50.0), latent("c", math.inf)]
        plan = oracle_of(latents, cfg(total_budget=250))
        grants = {e.item_id: e.granted for e in plan.entries}
        assert grants == {"a": 100, "b": 100, "c": 0}

    def test_budget_below_min_cap_funds_nothing(self):
        plan = oracle_of([latent("a", 0.0)], cfg(total_budget=50))
        assert plan.total_allocated == 0

    def test_threshold_above_max_cap_excluded(self):
        plan = oracle_of([latent("a", 1601.0)], cfg(total_budget=10_000))
        assert plan.total_allocated == 0

    def test_duplicate_ids_rejected(self):
        # Funding both "a" entries at 120 would report 240 allocated where
        # the walk spent 220, and leave "b" unfunded.
        latents = [latent("a", 100.0), latent("b", 150.0), latent("a", 120.0)]
        with pytest.raises(DataError, match="duplicate"):
            oracle_of(latents, cfg(total_budget=300))

    def test_duplicate_ids_named_first_in_str_order(self):
        latents = [latent(i, 100.0) for i in ("c", "b", "c", "a", "b")]
        with pytest.raises(DataError) as refused:
            oracle_of(latents, cfg())
        assert str(refused.value) == "duplicate item ids in latents: b"

    def test_nan_threshold_rejected(self):
        with pytest.raises(DataError, match="NaN threshold for item b"):
            oracle_of([latent("a", 10.0), latent("b", math.nan)], cfg())

    def test_negative_threshold_rejected(self):
        with pytest.raises(DataError, match="negative threshold for item a"):
            oracle_of([latent("a", -10.0), latent("b", 10.0)], cfg())

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigError, match="total budget"):
            oracle_of([latent("a", 10.0)], cfg(total_budget=-100))

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = 12
            thetas = []
            for _k in range(n):
                kind = rng.integers(0, 4)
                if kind == 0:
                    thetas.append(0.0)
                elif kind == 3:
                    thetas.append(math.inf)
                else:
                    thetas.append(float(rng.integers(1, 2000)))
            latents = [latent(f"i{k:02d}", t) for k, t in enumerate(thetas)]
            config = cfg(total_budget=int(rng.integers(100, 4000)))
            plan = oracle_of(latents, config)
            verify_plan(plan, config)
            achieved = sum(
                1
                for e in plan.entries
                if e.granted > 0 and e.granted >= thetas[int(e.item_id[1:])]
            )
            costs = [
                int(min(max(t, config.min_cap), config.max_cap))
                if t <= config.max_cap
                else None
                for t in thetas
            ]
            best = 0
            for mask in range(1 << n):
                total = 0
                count = 0
                feasible = True
                for i in range(n):
                    if mask >> i & 1:
                        if costs[i] is None:
                            feasible = False
                            break
                        total += costs[i]
                        count += 1
                if feasible and total <= config.total_budget:
                    best = max(best, count)
            assert achieved == best


class TestUniformAllocate:
    def test_even_split(self):
        records = [make_record(f"i{k}", [0.0]) for k in range(10)]
        plan = uniform_allocate(records, cfg(total_budget=1000))
        assert all(e.granted == 100 for e in plan.entries)

    def test_max_cap_binds(self):
        records = [make_record(f"i{k}", [0.0]) for k in range(3)]
        plan = uniform_allocate(records, cfg(total_budget=1000, max_cap=200))
        assert all(e.granted == 200 for e in plan.entries)
        assert plan.total_allocated == 600

    def test_min_cap_clamp_forces_partial_coverage(self):
        records = [make_record(f"i{k:02d}", [0.0]) for k in range(20)]
        plan = uniform_allocate(records, cfg(total_budget=1000, min_cap=100))
        funded = [e for e in plan.entries if e.granted > 0]
        assert len(funded) == 10
        assert all(e.granted == 100 for e in funded)
        assert {e.item_id for e in funded} == {f"i{k:02d}" for k in range(10)}
        assert all(
            e.region is Region.UNFUNDED for e in plan.entries if e.granted == 0
        )

    def test_cost_ceiling_limits_funding(self):
        records = [make_record(f"i{k}", [0.0]) for k in range(10)]
        config = cfg(total_budget=1000, unit_cost=0.01, max_cost=5.0)
        plan = uniform_allocate(records, config)
        verify_plan(plan, config)
        funded = [e for e in plan.entries if e.granted > 0]
        assert len(funded) == 5  # 5 x 100 impressions exhausts the 5.0 ceiling

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            uniform_allocate([], cfg())

    def test_duplicate_ids_rejected(self):
        records = [make_record(k, [0.0]) for k in ("a", "b", "a")]
        with pytest.raises(DataError, match="duplicate"):
            uniform_allocate(records, cfg())

    def test_duplicate_ids_named_first_in_str_order(self):
        records = [make_record(k, [0.0]) for k in ("c", "b", "c", "a", "b")]
        for corpus in (records, Corpus.of(records)):
            with pytest.raises(DataError) as refused:
                uniform_allocate(corpus, cfg())
            assert str(refused.value) == "duplicate item ids in corpus: b"

    def test_corpus_and_records_give_one_plan(self):
        records = [make_record(k, [0.0]) for k in ("c", "a", "b")]
        assert uniform_allocate(Corpus.of(records), cfg()) == uniform_allocate(records, cfg())

    def test_zero_min_cap_rejected(self):
        # Without the check: ten grants of 0 labelled Uniform, which
        # verify_plan refuses.
        records = [make_record(f"i{k}", [0.0]) for k in range(10)]
        with pytest.raises(ConfigError, match="MinCap"):
            uniform_allocate(records, cfg(min_cap=0, total_budget=5))


def reference_uniform_allocate(corpus, config):
    """The per-item loop that uniform_allocate replaced."""
    if not corpus:
        raise DataError("uniform allocation needs a non-empty corpus")
    records = sorted(corpus, key=lambda r: r.id)
    share = config.total_budget // len(records)
    x_uniform = max(min(share, config.max_cap), config.min_cap)
    entries = []
    remaining = config.total_budget
    cost_left = config.max_cost
    unit = cost_of(x_uniform, config)
    for rec in records:
        if x_uniform <= remaining and unit <= cost_left + 1e-12:
            entries.append(
                PlanEntry(
                    item_id=rec.id,
                    region=Region.UNIFORM,
                    granted=x_uniform,
                    requested=x_uniform,
                )
            )
            remaining -= x_uniform
            cost_left -= unit
        else:
            entries.append(
                PlanEntry(item_id=rec.id, region=Region.UNFUNDED, granted=0)
            )
    total = sum(e.granted for e in entries)
    total_cost = sum((cost_of(e.granted, config) for e in entries), 0.0)
    return AllocationPlan(
        entries=tuple(entries), total_allocated=total, total_cost=total_cost
    )


def reference_oracle_allocate(latents, config):
    """The per-item loop that oracle_allocate replaced."""
    items = sorted(latents, key=lambda it: (it.true_threshold, it.id))
    granted = {}
    remaining = config.total_budget
    cost_left = config.max_cost
    for it in items:
        granted[it.id] = 0
        if it.true_threshold > config.max_cap:
            continue
        needed = int(min(max(it.true_threshold, config.min_cap), config.max_cap))
        if needed > remaining or cost_of(needed, config) > cost_left + 1e-12:
            continue
        granted[it.id] = needed
        remaining -= needed
        cost_left -= cost_of(needed, config)
    entries = tuple(
        PlanEntry(
            item_id=it.id,
            region=Region.ORACLE if granted[it.id] > 0 else Region.UNFUNDED,
            granted=granted[it.id],
            requested=granted[it.id] if granted[it.id] > 0 else None,
        )
        for it in sorted(items, key=lambda it: it.id)
    )
    total = sum(e.granted for e in entries)
    total_cost = sum((cost_of(e.granted, config) for e in entries), 0.0)
    return AllocationPlan(
        entries=entries, total_allocated=total, total_cost=total_cost
    )


def assert_same_plan(got, expected):
    assert got == expected
    assert repr(got.total_cost) == repr(expected.total_cost)
    # The entries the plan builds from its columns, field for field and type
    # for type: ints, and None for no request and no p_at_maxcap.
    assert got.entries == expected.entries
    for e in got.entries:
        assert type(e.granted) is int and e.p_at_maxcap is None
        assert e.requested is None if e.granted == 0 else type(e.requested) is int


COST_FNS = {
    "linear": None,
    "convex": lambda t: 1e-5 * t * t,
    "concave": lambda t: 0.3 * math.sqrt(t),
    # Breaks the non-decreasing contract: odd traffic costs four times more.
    "non-monotone": lambda t: 0.02 * t if t % 2 else 0.005 * t,
}

# Under a ceiling of 2.0, 100 (cost 0.5)
# is funded, 101 (2.02) skipped, 102 (0.51) funded, 103 (2.06) skipped and 104
# (0.52) funded.
FUND_SKIP_FUND = dict(
    pairs=list(zip("abcde", [100.0, 101.0, 102.0, 103.0, 104.0])),
    config=cfg(max_cost=2.0, cost_fn=COST_FNS["non-monotone"]),
)


# Ids in any order, with characters a numpy <U array would mishandle (a
# trailing NUL) and characters outside ASCII.
item_ids = st.text(alphabet=st.sampled_from("ab\x00\xe9\U0001f600"), max_size=4)
# Non-negative: a LatentColumns refuses a negative threshold.
thresholds = st.one_of(
    st.sampled_from([0.0, 99.0, 100.0, 150.0, 1600.0, 1601.0, math.inf]),
    st.floats(0.0, 2000.0),
    st.integers(0, 2000).map(float),
)


@st.composite
def baseline_configs(draw):
    # Caps often equal a threshold the thresholds strategy favours.
    min_cap = draw(st.one_of(st.sampled_from([1, 100, 150]), st.integers(1, 300)))
    max_cap = draw(
        st.one_of(
            st.sampled_from([min_cap, 150, 1600]), st.integers(min_cap, min_cap + 1600)
        ).filter(lambda cap: cap >= min_cap)
    )
    return cfg(
        # From below min_cap (nothing fits) to past every grant.
        total_budget=draw(st.integers(0, 6000)),
        # The linear cost of the budget reaches 60, so the ceiling can bind.
        max_cost=draw(st.floats(0.5, 80.0)),
        min_cap=min_cap,
        max_cap=max_cap,
        cost_fn=COST_FNS[draw(st.sampled_from(sorted(COST_FNS)))],
    )


# 3.3 less two grants of cost 0.01 * 110 leaves 1.0999999999999996: the third
# grant fits only within the 1e-12 the ceiling test allows.
CEILING_BY_ROUNDING = cfg(total_budget=1100, max_cost=3.3)


class TestBaselinesMatchPerItemReference:
    @given(st.lists(item_ids, min_size=1, max_size=40, unique=True), baseline_configs())
    @example(ids=list("abcdefghij"), config=CEILING_BY_ROUNDING)
    @settings(deadline=None, max_examples=300)
    def test_uniform(self, ids, config):
        records = [make_record(i, [0.0]) for i in ids]
        assert_same_plan(
            uniform_allocate(records, config), reference_uniform_allocate(records, config)
        )

    @given(
        st.lists(st.tuples(item_ids, thresholds), max_size=40, unique_by=lambda p: p[0]),
        baseline_configs(),
    )
    @example(pairs=[(k, 110.0) for k in "abcd"], config=CEILING_BY_ROUNDING)
    @example(pairs=[("a", 1600.0)], config=cfg(total_budget=2000))
    # "a" costs 2.02 and does not fit; the larger "b" costs 0.51 and does.
    @example(
        pairs=[("a", 101.0), ("b", 102.0)],
        config=cfg(max_cost=1.0, cost_fn=COST_FNS["non-monotone"]),
    )
    @example(**FUND_SKIP_FUND)
    @settings(deadline=None, max_examples=300)
    def test_oracle(self, pairs, config):
        latents = [latent(i, theta) for i, theta in pairs]
        assert_same_plan(
            oracle_of(latents, config), reference_oracle_allocate(latents, config)
        )

    # Odd traffic priced out: every odd need is skipped and the walk goes on,
    # a pass for each, hundreds on a drawn round.
    DRAWN_ROUND_COSTS = {**COST_FNS, "odd priced out": lambda t: 1e6 if t % 2 else 0.01 * t}

    @pytest.mark.parametrize("cost", sorted(DRAWN_ROUND_COSTS))
    @pytest.mark.parametrize("max_cost", [5.0, 60.0, 2500.0])
    def test_oracle_on_a_drawn_round(self, cost, max_cost):
        latents, _ = generate_corpus(SimConfig(seed=3, items_per_round=3000), 0)
        config = cfg(
            total_budget=300_000, max_cost=max_cost, cost_fn=self.DRAWN_ROUND_COSTS[cost]
        )
        assert_same_plan(
            oracle_allocate(latents, config), reference_oracle_allocate(latents, config)
        )

    def test_oracle_refuses_a_list_naming_the_type(self):
        latents = [latent("b", 150.0), latent("a", 100.0)]
        message = "oracle_allocate takes a LatentColumns, the columns generate_corpus returns, "
        with pytest.raises(TypeError, match=message + "not a list"):
            oracle_allocate(latents, cfg())
        with pytest.raises(TypeError, match="not a list_iterator"):
            oracle_allocate(iter(latents), cfg())

    @pytest.mark.parametrize("strategy", ["uniform", "oracle"])
    def test_run_experiment_reports(self, strategy):
        # The loop runs the baselines' kernels; the reference loop runs the
        # per-item baselines above.
        for seed in range(5):
            sim_config = SimConfig(seed=seed)
            assert_same_report(
                run_experiment(sim_config, DEFAULT_ALLOCATION, DEFAULT_SCHEMA,
                               strategy=strategy),
                run_experiment_reference(
                    sim_config, DEFAULT_ALLOCATION, DEFAULT_SCHEMA, Hyperparams(), strategy,
                    uniform=reference_uniform_allocate, oracle=reference_oracle_allocate,
                ),
            )

"""Classifier evaluation metrics and the baseline allocation strategies.

AUC follows the Mann-Whitney formulation (ties count half). PR-AUC is average
precision with step interpolation, computed at every distinct score threshold.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (
    FLOATS,
    NO_REQUEST,
    REGION_CODE,
    AllocationConfig,
    AllocationPlan,
    ConfigError,
    Corpus,
    DataError,
    ItemRecord,
    LatentColumns,
    Region,
    columns_equal,
    cost_of,
    costs_of,
    frozen,
    id_order,
    sum_costs,
    take_columns,
    write_rows,
)

@dataclass(frozen=True)
class BucketMetrics:
    bucket: int
    accuracy: float
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True, eq=False)
class MetricsReport:
    auc: float
    pr_auc: float
    per_bucket: tuple[BucketMetrics, ...]
    # The PR curve, taken by the column rule (see core.take_columns): point k
    # is (curve_recall[k], curve_precision[k]).
    curve_recall: np.ndarray
    curve_precision: np.ndarray

    COLUMNS = dict(curve_recall=FLOATS, curve_precision=FLOATS)

    def __post_init__(self) -> None:
        vars(self).update(take_columns("PR curve", self.COLUMNS, vars(self)))

    __eq__ = columns_equal


def _check_threshold(threshold: float) -> None:
    if not 0.0 <= threshold <= 1.0:  # also false for NaN
        raise ConfigError("threshold must be a finite number in [0, 1]")


def _columns(scores: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The columns as arrays; DataError unless scores lie in [0, 1] and labels are 0 or 1."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.ndim != 1 or labels.shape != scores.shape:
        raise DataError(
            f"scores {scores.shape} and labels {labels.shape} must be vectors of one length"
        )
    if not ((scores >= 0.0) & (scores <= 1.0)).all():  # also false for NaN
        raise DataError("score must lie in [0, 1]")
    if not ((labels == 0) | (labels == 1)).all():
        raise DataError("label must be 0 or 1")
    return scores, labels.astype(np.int64, copy=False)


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability that a random positive outscores a random negative, ties half."""
    scores, labels = _columns(scores, labels)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUC needs at least one positive and one negative label")
    # Tied scores share the average of their 1-based ranks: the group at sorted
    # positions first .. end - 1 (0-based) ranks 0.5 * (first + end - 1) + 1.
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    end = np.cumsum(counts)
    first = end - counts
    ranks = (0.5 * (first + end - 1) + 1.0)[group]
    rank_sum = float(ranks[labels == 1].sum())
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def pr_metrics(
    scores: np.ndarray, labels: np.ndarray, threshold: float = 0.5
) -> tuple[float, float, float, float]:
    """(accuracy, precision, recall, f1) at score >= threshold.

    Precision is 1.0 when nothing is predicted positive. Recall is undefined
    without positive labels, which is an error here.
    """
    _check_threshold(threshold)
    scores, labels = _columns(scores, labels)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise DataError("recall undefined: no positive labels")
    predicted = scores >= threshold
    positive = labels == 1
    tp = int(np.count_nonzero(predicted & positive))
    fp = int(np.count_nonzero(predicted)) - tp
    fn = n_pos - tp
    tn = len(labels) - tp - fp - fn
    accuracy = (tp + tn) / len(labels)
    precision = tp / (tp + fp) if tp + fp > 0 else 1.0
    recall = tp / n_pos
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return accuracy, precision, recall, f1


def pr_curve_and_auc(
    scores: np.ndarray, labels: np.ndarray
) -> tuple[tuple[np.ndarray, np.ndarray], float]:
    """The PR curve, as read-only (recall, precision) columns of one point per
    distinct score threshold, highest first, plus average precision."""
    scores, labels = _columns(scores, labels)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise DataError("PR curve needs at least one positive label")
    order = np.argsort(-scores, kind="stable")
    ordered = scores[order]
    # One point per distinct score, taken after the last item of its tie group.
    last = np.append(ordered[1:] != ordered[:-1], True)
    tp = np.cumsum(labels[order])[last]
    seen = np.flatnonzero(last) + 1
    precision = tp / seen
    recall = tp / n_pos
    # cumsum adds the terms one after another, as a running sum would;
    # np.sum adds pairwise and can differ in the last bit.
    ap = float(np.cumsum(np.diff(recall, prepend=0.0) * precision)[-1])
    return frozen(recall, precision), ap


def metrics_report(
    scored: np.ndarray, labels: np.ndarray, buckets: np.ndarray, threshold: float = 0.5
) -> MetricsReport:
    """Full report: AUC, PR-AUC, per-bucket confusion metrics, PR curve.

    `scored`, `labels` and `buckets` are columns of one row per example.
    Buckets with no positive labels are omitted from the per-bucket table
    because recall is undefined there.
    """
    _check_threshold(threshold)
    scores, labels = _columns(scored, labels)
    buckets = np.asarray(buckets)
    if buckets.shape != labels.shape:
        raise DataError(f"buckets {buckets.shape} and labels {labels.shape} differ in shape")
    overall_auc = auc(scores, labels)
    (recall, precision), ap = pr_curve_and_auc(scores, labels)
    # Rows grouped by bucket, in row order within each bucket.
    values, group, counts = np.unique(buckets, return_inverse=True, return_counts=True)
    order = np.argsort(group, kind="stable")
    per_bucket = []
    for b, rows in zip(values.tolist(), np.split(order, np.cumsum(counts)[:-1])):
        if labels[rows].any():
            per_bucket.append(BucketMetrics(b, *pr_metrics(scores[rows], labels[rows], threshold)))
    return MetricsReport(
        auc=overall_auc,
        pr_auc=ap,
        per_bucket=tuple(per_bucket),
        curve_recall=recall,
        curve_precision=precision,
    )


def report_to_dict(report: MetricsReport) -> dict:
    """Everything but the PR curve, which write_pr_curve_csv writes."""
    return {
        "auc": report.auc,
        "pr_auc": report.pr_auc,
        "per_bucket": [asdict(m) for m in report.per_bucket],
    }


def write_pr_curve_csv(report: MetricsReport, path: str | Path) -> None:
    """The CSV of recall, precision, each float by repr, as csv.writer writes it."""
    columns = (report.curve_recall, report.curve_precision)
    write_rows("%r,%r\n", columns, path, header="recall,precision\n")


# ---------------------------------------------------------------------------
# Baseline allocation strategies
# ---------------------------------------------------------------------------

def uniform_grants(n: int, config: AllocationConfig) -> np.ndarray:
    """The uniform grants of n items in id order: the kernel of uniform_allocate.

    Each item gets X = clamp(T // n, min_cap, max_cap), granted in id order
    for as long as both the traffic budget and the cost ceiling allow; the
    rest get 0. So the funded items are a prefix of the id order.
    """
    share = config.total_budget // n
    x_uniform = max(min(share, config.max_cap), config.min_cap)
    unit = cost_of(x_uniform, config)
    funded = min(n, config.total_budget // x_uniform)  # x_uniform >= min_cap >= 1
    # cost_left[k], the cost left before grant k, takes the unit off one step
    # at a time as a per-item loop does (subtract.accumulate runs in order),
    # so the ceiling test rounds the same way. The first test that fails
    # fails for every later item too, as nothing is spent on it.
    steps = np.full(funded, unit)
    steps[:1] = config.max_cost
    cost_left = np.subtract.accumulate(steps)
    over = unit > cost_left + 1e-12
    if over.any():
        funded = int(np.argmax(over))
    return np.repeat(np.array([x_uniform, 0], dtype=np.int64), [funded, n - funded])


def oracle_grants(thresholds: np.ndarray, config: AllocationConfig) -> np.ndarray:
    """The oracle grants of items whose true thresholds are given in id order,
    in that order: the kernel of oracle_allocate.

    Items whose threshold exceeds max_cap can never be discovered within the
    cap and get 0. The others are walked in ascending (threshold, id) order:
    each is funded at clamp(threshold, min_cap, max_cap) if that fits the
    traffic left and its cost fits the cost left (within 1e-12), and the walk
    ends at the first that does not fit the traffic left, as every later one
    needs as much. No threshold may be NaN.

    The walk funds runs of items, not one item at a time. Each pass funds
    the longest run from its first item that passes both tests: the traffic
    test from the run's cumulative needs, by a binary search, and the cost
    test from the cost left before each item, which np.subtract.accumulate
    takes off one cost at a time, in order, as a per-item loop does. The
    item that fails the cost test gets 0, and the next pass starts at the
    next item whose cost fits. A cost that does not fall as traffic grows,
    a linear one among them, fails for every later item too, so its walk
    is one pass.
    """
    eligible = np.flatnonzero(thresholds <= config.max_cap)
    # A stable sort keeps tied thresholds in id order.
    eligible = eligible[np.argsort(thresholds[eligible], kind="stable")]
    # int() of clamp(threshold, min_cap, max_cap): astype truncates towards
    # zero, as int() does.
    needed = np.clip(thresholds[eligible], config.min_cap, config.max_cap).astype(np.int64)
    # A budget past every need funds what their sum does, and stays in int64;
    # an item that needs more than the budget is never reached.
    remaining = min(config.total_budget, int(needed.sum()))
    reached = np.searchsorted(needed, remaining, side="right")
    eligible, needed = eligible[:reached], needed[:reached]
    costs = costs_of(needed, config)
    spent = np.concatenate(([0], np.cumsum(needed)))  # spent[k]: the needs of items 0..k-1

    granted = np.zeros(len(thresholds), dtype=np.int64)
    cost_left, start = config.max_cost, 0
    while start < len(needed):
        # Items start..k-1 funded leave remaining - (spent[k] - spent[start]):
        # item k fits it while spent[k + 1] <= remaining + spent[start].
        stop = int(np.searchsorted(spent, remaining + spent[start], side="right")) - 1
        left = np.subtract.accumulate(np.concatenate(([cost_left], costs[start:stop])))
        over = costs[start:stop] > left[:-1] + 1e-12
        end = int(np.argmax(over)) + start if over.any() else stop
        granted[eligible[start:end]] = needed[start:end]
        remaining -= int(spent[end] - spent[start])
        cost_left = float(left[end - start])
        if end == stop:  # item stop, if any, needs more than the traffic left
            break
        # Item end costs too much; the walk goes on at the next item that
        # fits the traffic left, which is a prefix of the rest, and its cost.
        within = int(np.searchsorted(needed, remaining, side="right"))
        fits = np.flatnonzero(~(costs[end + 1 : within] > cost_left + 1e-12))
        if not len(fits):
            break
        start = end + 1 + int(fits[0])
    return granted


def _baseline_plan(
    ids: Sequence[str], granted: np.ndarray, region: Region, config: AllocationConfig
) -> AllocationPlan:
    """A plan of grants in id order: funded entries in `region`, requesting
    their grant, and the rest Unfunded. The plan holds `granted`, frozen."""
    funded = granted > 0
    return AllocationPlan.of_columns(
        ids,
        np.where(funded, REGION_CODE[region], REGION_CODE[Region.UNFUNDED]),
        *frozen(granted, np.where(funded, granted, NO_REQUEST), np.full(len(ids), np.nan)),
        int(granted.sum()),
        sum_costs(granted, config),
    )


def uniform_allocate(
    corpus: Corpus | Sequence[ItemRecord], config: AllocationConfig
) -> AllocationPlan:
    """Equal traffic for everyone: the no-model baseline (see uniform_grants).

    Only the ids are read. An empty corpus and duplicate ids are refused.
    """
    if not corpus:
        raise DataError("uniform allocation needs a non-empty corpus")
    ids = corpus.ids if isinstance(corpus, Corpus) else [rec.id for rec in corpus]
    ids = [ids[k] for k in id_order(ids, "corpus").tolist()]
    return _baseline_plan(ids, uniform_grants(len(ids), config), Region.UNIFORM, config)


def oracle_allocate(latents: LatentColumns, config: AllocationConfig) -> AllocationPlan:
    """Full-information upper bound: fund cheapest true thresholds first.

    `latents` is the simulator's ground truth, the LatentColumns
    generate_corpus returns, which holds no NaN threshold; oracle_grants
    funds its items. Duplicate ids are refused.
    """
    LatentColumns.check(latents, "oracle_allocate")
    ids = latents.ids
    order = id_order(ids, "latents")
    granted = oracle_grants(latents.true_threshold[order], config)
    return _baseline_plan([ids[k] for k in order.tolist()], granted, Region.ORACLE, config)

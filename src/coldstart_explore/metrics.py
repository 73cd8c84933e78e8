"""Classifier evaluation metrics and the baseline allocation strategies.

AUC follows the Mann-Whitney formulation (ties count half). PR-AUC is average
precision with step interpolation, computed at every distinct score threshold.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import (
    NO_REQUEST,
    PLAN_REGIONS,
    AllocationConfig,
    AllocationPlan,
    ConfigError,
    DataError,
    ItemRecord,
    Region,
    cost_of,
    frozen,
    id_order,
    sum_costs,
    validate_allocation_config,
    write_csv,
)

@dataclass(frozen=True)
class BucketMetrics:
    bucket: int
    accuracy: float
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class MetricsReport:
    auc: float
    pr_auc: float
    per_bucket: tuple[BucketMetrics, ...]
    pr_curve: tuple[tuple[float, float], ...]  # (recall, precision) points


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
) -> tuple[list[tuple[float, float]], float]:
    """Precision/recall at every distinct score threshold plus average precision."""
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
    return list(zip(recall.tolist(), precision.tolist())), ap


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
    curve, ap = pr_curve_and_auc(scores, labels)
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
        pr_curve=tuple(curve),
    )


def report_to_dict(report: MetricsReport) -> dict:
    """Everything but the PR curve, which write_pr_curve_csv writes."""
    return {
        "auc": report.auc,
        "pr_auc": report.pr_auc,
        "per_bucket": [asdict(m) for m in report.per_bucket],
    }


def write_pr_curve_csv(report: MetricsReport, path: str | Path) -> None:
    write_csv(["recall", "precision"], report.pr_curve, path)


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
    funded = n if x_uniform == 0 else min(n, config.total_budget // x_uniform)
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
    cap and get 0. Others are funded at clamp(threshold, min_cap, max_cap),
    in ascending (threshold, id) order, each one that still fits the traffic
    budget and the cost ceiling. No threshold may be NaN.
    """
    # A stable sort keeps tied thresholds in id order.
    order = np.argsort(thresholds, kind="stable")
    eligible = order[thresholds[order] <= config.max_cap]
    # int() of clamp(threshold, min_cap, max_cap): astype truncates towards
    # zero, as int() does.
    needed = np.clip(
        thresholds[eligible], config.min_cap, config.max_cap
    ).astype(np.int64)

    granted = np.zeros(len(thresholds), dtype=np.int64)
    remaining = config.total_budget
    cost_left = config.max_cost
    for i, need in zip(eligible.tolist(), needed.tolist()):
        # needed ascends and remaining never grows, so nothing later fits.
        if need > remaining:
            break
        cost = cost_of(need, config)
        # No break here: a cost_fn that breaks the non-decreasing contract
        # can make a later, larger grant cheaper.
        if cost > cost_left + 1e-12:
            continue
        granted[i] = need
        remaining -= need
        cost_left -= cost
    return granted


def _baseline_plan(
    ids: Sequence[str], granted: np.ndarray, region: Region, config: AllocationConfig
) -> AllocationPlan:
    """A plan of grants in id order: funded entries in `region`, requesting
    their grant, and the rest Unfunded. The plan holds `granted`, frozen."""
    funded = granted > 0
    return AllocationPlan.of_columns(
        ids,
        np.where(funded, PLAN_REGIONS.index(region), PLAN_REGIONS.index(Region.UNFUNDED)),
        *frozen(granted, np.where(funded, granted, NO_REQUEST), np.full(len(ids), np.nan)),
        int(granted.sum()),
        sum_costs(granted, config),
    )


def uniform_allocate(
    corpus: Sequence[ItemRecord], config: AllocationConfig
) -> AllocationPlan:
    """Equal traffic for everyone: the no-model baseline (see uniform_grants).

    An invalid config, an empty corpus and duplicate ids are refused.
    """
    validate_allocation_config(config)
    if not corpus:
        raise DataError("uniform allocation needs a non-empty corpus")
    ids = [rec.id for rec in corpus]
    ids = [ids[k] for k in id_order(ids, "corpus")]
    return _baseline_plan(ids, uniform_grants(len(ids), config), Region.UNIFORM, config)


def oracle_allocate(latents: Iterable, config: AllocationConfig) -> AllocationPlan:
    """Full-information upper bound: fund cheapest true thresholds first.

    `latents` supplies objects with `id` and `true_threshold` attributes (the
    simulator's ground truth); oracle_grants funds them. An invalid config,
    duplicate ids and NaN thresholds are refused.
    """
    validate_allocation_config(config)
    items = list(latents)
    ids = list(map(attrgetter("id"), items))
    order = id_order(ids, "latents")
    thresholds = np.fromiter(map(attrgetter("true_threshold"), items), float, len(items))
    nan = np.flatnonzero(np.isnan(thresholds))
    if nan.size:
        raise DataError(f"NaN threshold for item {ids[nan[0]]}")
    granted = oracle_grants(thresholds[order], config)
    return _baseline_plan([ids[k] for k in order], granted, Region.ORACLE, config)

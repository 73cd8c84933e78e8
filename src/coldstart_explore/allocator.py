"""Three-region exploration traffic allocation.

Items are partitioned by their predicted discoverability at the traffic cap:
confident items get the cheapest qualifying traffic level, moderate ones get
the full cap, and long-shot items share a reserved slice of budget in
proportion to their user feedback, water-filled under the cap. Confident and
moderate items are funded full-or-nothing, smallest request first: as many as
the budget allows, unless the cost ceiling binds and items are dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (
    NO_REQUEST,
    NUMBER,
    REGION_CODE,
    REGION_NAMES,
    AllocationConfig,
    AllocationPlan,
    BucketSchema,
    ConfigError,
    Corpus,
    DataError,
    ItemRecord,
    Region,
    check_fields,
    costs_of,
    frozen,
    id_order,
    model_inputs,
    none_where,
    region_counts,
    sum_costs,
    validate_config,
    write_csv,
)
from .model import DiscoverabilityModel, ScoreOverflow, monotone_curves, predict_curves

#: Rows scored per pass in allocate. Scoring in blocks keeps the (rows, buckets)
#: temporaries of the curve and isotonic steps small, so peak memory does not
#: grow with the corpus. On the 10k-items x 3-rounds benchmark loop (seeds 1-3,
#: one run each, 2-core host), its peak RSS read 61.4-61.8 MB in blocks of 4096
#: rows, 61.9-62.6 MB in blocks of 8192 and 66.1-66.2 MB in one pass; the
#: isotonic pass over its two model rounds (19,613 and 28,245 six-bucket
#: curves, seed 1, best of 30) took 2.8 ms in blocks of 4096, 3.1 ms in blocks
#: of 8192 and 4.2 ms in one pass.
SCORE_BLOCK_ROWS = 4096

# Region codes, as a plan's region column holds them. Unfunded is not a region
# an item is classified into; it marks plan rows granted nothing.
_HIGH, _MODERATE, _LOW, _UNFUNDED = (
    REGION_CODE[region] for region in (Region.HIGH, Region.MODERATE, Region.LOW, Region.UNFUNDED)
)


@dataclass(frozen=True)
class GrowthStats:
    """Period-over-period growth ratios of the item pool and of exploration traffic,
    each an int or a float alone: not a bool, a string or a numpy float."""

    item_growth: float
    traffic_growth: float

    def __post_init__(self) -> None:
        check_fields(self, NUMBER, ("item_growth", "traffic_growth"))
        for ratio in (self.item_growth, self.traffic_growth):
            if not (math.isfinite(ratio) and ratio > 0):
                raise ConfigError("growth ratios must be finite and positive")


def _classify(p_at_maxcap: np.ndarray, config: AllocationConfig) -> np.ndarray:
    """Region code of every item from its curve value at MaxCap.

    Boundary convention: p == cf_high falls into Moderate, matching the
    moderate region's closed lower bound at cf_low.
    """
    return np.where(
        p_at_maxcap > config.cf_high,
        _HIGH,
        np.where(p_at_maxcap < config.cf_low, _LOW, _MODERATE),
    )


def _water_fill(weights: np.ndarray, budget: int, cap: int) -> np.ndarray:
    """Proportional split under a per-item cap, redistributing capped overflow.

    Each pass gives the active items remaining * weight / total_weight; the
    items whose share reaches the cap get the cap and leave. total_weight is
    built-in sum() over the active weights in index order, as a per-item loop
    sums them. remaining stays a whole number of impressions, so taking off
    the caps of a pass at once is exact.
    """
    grants = np.zeros(len(weights))
    active = np.arange(len(weights))
    remaining = float(budget)
    while len(active) and remaining > 0:
        total_weight = sum(weights[active].tolist())
        if total_weight <= 0:
            break
        shares = remaining * weights[active] / total_weight
        over = shares >= cap
        if not over.any():
            grants[active] = shares
            break
        grants[active[over]] = cap
        remaining -= cap * int(np.count_nonzero(over))
        active = active[~over]
    return grants


def low_grants(rates: np.ndarray, low_budget: int, config: AllocationConfig) -> np.ndarray:
    """Grants of the Low items whose positive rates are given: the low-region
    budget split in proportion to each item's positive rate.

    Items with no positive feedback yet get a small floor weight (1/n) so new
    items are not starved. Shares are capped at max_cap with overflow
    redistributed; a share that lands below min_cap is deferred to a later
    round (granted 0) rather than served under the floor.
    """
    if not len(rates):
        return np.zeros(0, dtype=np.int64)
    weights = np.where(rates > 0, rates, 1.0 / len(rates))
    shares = _water_fill(weights, low_budget, config.max_cap)
    # Snap shares sitting a float ulp below an integer before flooring.
    granted = np.floor(shares + 1e-9).astype(np.int64)
    granted[granted < config.min_cap] = 0
    return granted


def adapt_low_fraction(current: float, growth: GrowthStats) -> float:
    """Scale the low-region budget share by traffic growth relative to item growth.

    Faster item growth than traffic growth shrinks the share, and vice versa;
    the result is capped at 1. It is never negative, as current lies in [0, 1]
    and both ratios are positive.
    """
    if not 0.0 <= current <= 1.0:
        raise ConfigError("current fraction must lie in [0, 1]")
    return min(current * growth.traffic_growth / growth.item_growth, 1.0)


def _drop_for_cost(
    granted: np.ndarray,
    region: np.ndarray,
    rates: np.ndarray,
    total_cost: float,
    config: AllocationConfig,
) -> None:
    """Zero funded grants in place until the cost constraint holds.

    `total_cost` is the cost of `granted`, `rates` each item's feedback rate.
    Drop order reflects expected gain per impression: Low items first (worst
    feedback first), then Moderate by descending grant, then High by
    descending grant as a last resort so the constraint always holds. Ties
    keep index order, which is id order. The costs come off total_cost one at
    a time in drop order, as a per-item loop subtracts them.
    """
    funded = np.flatnonzero(granted)
    key = np.where(region[funded] == _LOW, rates[funded], -granted[funded])
    # lexsort is stable and sorts on its last key first: -region puts Low,
    # then Moderate, then High, as long as _HIGH < _MODERATE < _LOW.
    order = funded[np.lexsort((key, -region[funded]))]
    costs = costs_of(granted[order], config)
    running = np.subtract.accumulate(np.concatenate(([total_cost], costs)))
    within = running <= config.max_cost
    granted[order[: int(np.argmax(within)) if within.any() else len(order)]] = 0


def _score(
    ids: Sequence[str],
    features: np.ndarray,
    model: DiscoverabilityModel,
    config: AllocationConfig,
    schema: BucketSchema,
) -> tuple[np.ndarray, np.ndarray]:
    """Curve value at MaxCap and the cf_high cap of every row, scored in blocks.

    The cap is the first bucket whose smoothed probability reaches cf_high,
    clamped into [min_cap, max_cap] as invert_cap does; it is meaningful only
    for High rows, whose curves end above cf_high. An item whose score
    overflows (see predict_curves) is refused with a DataError naming it.
    """
    n = len(features)
    p_at_maxcap = np.empty(n)
    first_bucket = np.empty(n, dtype=np.intp)
    for start in range(0, n, SCORE_BLOCK_ROWS):
        rows = slice(start, start + SCORE_BLOCK_ROWS)
        try:
            curves = monotone_curves(predict_curves(model, features[rows]))
        except ScoreOverflow as exc:
            item_id = ids[start + exc.row]
            raise DataError(f"the features of item {item_id} overflow the model's score") from None
        p_at_maxcap[rows] = curves[:, -1]
        first_bucket[rows] = np.argmax(curves >= config.cf_high, axis=1)
    caps = np.clip(
        np.asarray(schema.representative)[first_bucket], config.min_cap, config.max_cap
    )
    return p_at_maxcap, caps


def plan_columns(
    ids: Sequence[str],
    features: np.ndarray,
    model: DiscoverabilityModel,
    config: AllocationConfig,
    schema: BucketSchema,
    growth: GrowthStats | None = None,
) -> AllocationPlan:
    """The allocation of candidates given in id order: the kernel of allocate.

    Row i of `features` is the model input of item ids[i], so it ends with
    the engagement block [positive_rate, log1p(impressions)]; the rate
    column weights the Low water-fill and orders the Low items' drops when
    the cost ceiling binds. The plan's rows are the candidates in that
    order: an item granted nothing is Unfunded, and a Low item has no request.
    """
    p_at_maxcap, caps = _score(ids, features, model, config, schema)
    region = _classify(p_at_maxcap, config)
    requested = np.where(region == _HIGH, caps, config.max_cap)

    low_pool = round(config.low_region_fraction * config.total_budget)
    if growth is not None:
        adapted = adapt_low_fraction(config.low_region_fraction, growth)
        low_pool = round(adapted * config.total_budget)
    hm_budget = config.total_budget - low_pool

    # Greedy funding: High and Moderate items by (requested, id), each funded
    # in full until the first one that does not fit in what is left.
    candidates = np.flatnonzero(region != _LOW)
    order = candidates[np.argsort(requested[candidates], kind="stable")]
    spent = np.cumsum(requested[order])
    n_funded = int(np.searchsorted(spent, hm_budget, side="right"))
    granted = np.zeros(len(ids), dtype=np.int64)
    granted[order[:n_funded]] = requested[order[:n_funded]]
    remaining = hm_budget - (int(spent[n_funded - 1]) if n_funded else 0)

    # Unspent High/Moderate budget spills into the Low pool.
    low = np.flatnonzero(region == _LOW)
    granted[low] = low_grants(features[low, -2], low_pool + remaining, config)

    total_cost = sum_costs(granted, config)
    if not total_cost <= config.max_cost:
        _drop_for_cost(granted, region, features[:, -2], total_cost, config)
        total_cost = sum_costs(granted, config)
    return AllocationPlan.of_columns(
        ids,
        np.where(granted > 0, region, _UNFUNDED),
        *frozen(granted, np.where(region == _LOW, NO_REQUEST, requested), p_at_maxcap),
        int(granted.sum()),
        total_cost,
    )


def allocate(
    corpus: Corpus | Sequence[ItemRecord],
    model: DiscoverabilityModel,
    config: AllocationConfig,
    schema: BucketSchema,
    growth: GrowthStats | None = None,
) -> AllocationPlan:
    """Build a full allocation plan for a corpus, taken as Corpus.of(corpus).

    The budget is split between a High+Moderate pool and a Low pool. High and
    Moderate items are funded full-or-nothing in ascending order of requested
    traffic; whatever the pool does not spend spills into the Low pool, which
    is then divided as low_grants divides it. Finally the cost constraint is
    enforced by dropping items (see _drop_for_cost). Deterministic: ties break
    on item id.

    Funding orders by requested traffic, never by cost. So for any
    non-decreasing cost_fn whose ceiling does not bind, the funded
    High/Moderate count is the maximum that fits the traffic budget. When the
    ceiling binds, _drop_for_cost's drop order decides the plan, and the count
    is not guaranteed maximal.

    This is plan_columns over the items in str order of their ids. It refuses a bad
    config or schema, duplicate ids, and a non-finite input or score, naming the item.
    """
    corpus = Corpus.of(corpus)
    validate_config(config, schema)
    if model.schema != schema:
        raise ConfigError("model was trained against a different bucket schema")
    order = id_order(corpus.ids, "corpus")
    ids = [corpus.ids[k] for k in order.tolist()]
    features = model_inputs(
        corpus.features[order], corpus.impressions[order], corpus.positive_events[order]
    )
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        raise DataError(f"non-finite feature for item {ids[int(np.argmin(finite))]}")
    return plan_columns(ids, features, model, config, schema, growth)


# ---------------------------------------------------------------------------
# Plan export
# ---------------------------------------------------------------------------

def write_plan_csv(plan: AllocationPlan, path: str | Path) -> None:
    """The plan file: a CSV of item_id, region, granted, requested, p_at_maxcap."""
    write_csv(
        ("item_id", "region", "granted", "requested", "p_at_maxcap"),
        zip(
            plan.ids,
            map(REGION_NAMES.__getitem__, plan.region.tolist()),
            plan.granted.tolist(),
            none_where(plan.requested, plan.requested == NO_REQUEST),
            plan.p_at_maxcap.tolist(),
        ),
        path,
    )


def plan_summary(
    plan: AllocationPlan,
    config: AllocationConfig,
    adapted_low_fraction: float | None = None,
) -> dict:
    """The plan summary: counts per region after and before funding, totals
    and utilizations. The counts before funding classify every item again
    from its p_at_maxcap, so Low items deferred below min_cap stay visible."""
    classified = np.bincount(_classify(plan.p_at_maxcap, config), minlength=3)
    summary = {
        "items": len(plan.ids),
        "region_counts": region_counts(plan.region),
        "classified_counts": dict(zip(REGION_NAMES[:3], classified.tolist())),
        "total_allocated": plan.total_allocated,
        "total_cost": plan.total_cost,
        "budget": config.total_budget,
        "budget_utilization": (
            plan.total_allocated / config.total_budget if config.total_budget else 0.0
        ),
        "cost_utilization": plan.total_cost / config.max_cost,
    }
    if adapted_low_fraction is not None:
        summary["adapted_low_fraction"] = adapted_low_fraction
    return summary

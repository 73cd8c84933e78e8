"""Synthetic cold-start environment with known ground truth.

Each item carries a latent quality q. Its true discovery threshold (the
minimum exploration traffic after which the downstream engine would pick it
up) is 0 for inherently discoverable items, infinite for hopeless ones, and
otherwise log-linear in -q with noise, so better items need less exploration.
Engagement is Bernoulli with rate sigmoid(a*q + b). The allocator only ever
sees static features (a noisy linear readout of q) and realized engagement;
thresholds stay hidden.

`run_experiment` drives the full loop: bootstrap a round of uniform
exploration, then repeatedly retrain the discoverability model on all
accumulated outcomes, re-predict curves with refreshed engagement features,
allocate, serve, and record.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass
from operator import attrgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from .allocator import allocate
from .core import (
    AllocationConfig,
    AllocationPlan,
    BucketSchema,
    ConfigError,
    DataError,
    EngagementStats,
    ItemRecord,
    engagement_block,
    read_jsonl,
    static_matrix,
    validate_config,
    write_csv,
    write_jsonl,
)
from .metrics import oracle_allocate, uniform_allocate
from .model import Hyperparams, TrainingSet, train

STRATEGIES = ("uniform", "model", "oracle")

# Stream tag separating serving randomness from corpus-generation randomness.
_SERVE_STREAM = 7919


@dataclass(frozen=True)
class LatentItem:
    """Ground truth the allocator must not see."""

    id: str
    quality: float
    true_threshold: float  # impressions; 0 = inherently discoverable, inf = never
    engagement_prob: float


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    items_per_round: int = 1000
    rounds: int = 3
    feature_dim: int = 8
    feature_noise: float = 0.5
    threshold_mu: float = 6.0
    threshold_kappa: float = 1.5
    threshold_noise: float = 0.5
    max_threshold: int = 16_000
    # fractions of (inherently discoverable, finite threshold, never discoverable)
    archetype_mix: tuple[float, float, float] = (0.05, 0.80, 0.15)
    engagement_a: float = 1.0
    engagement_b: float = -2.2

    def validate(self) -> "SimConfig":
        if self.items_per_round <= 0:
            raise ConfigError("items_per_round must be positive")
        if self.rounds < 1:
            raise ConfigError("rounds must be at least 1")
        if self.feature_dim <= 0:
            raise ConfigError("feature_dim must be positive")
        for name in (
            "feature_noise",
            "threshold_mu",
            "threshold_kappa",
            "threshold_noise",
            "engagement_a",
            "engagement_b",
        ):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be a finite number")
        if self.feature_noise < 0 or self.threshold_noise < 0:
            raise ConfigError("noise scales must be non-negative")
        if self.max_threshold < 1:
            raise ConfigError("max_threshold must be at least 1")
        if len(self.archetype_mix) != 3 or any(f < 0 for f in self.archetype_mix):
            raise ConfigError("archetype_mix must be three non-negative fractions")
        if not math.isclose(sum(self.archetype_mix), 1.0, abs_tol=1e-9):
            raise ConfigError("archetype_mix must sum to 1")
        return self


@dataclass(frozen=True)
class Observation:
    """Outcome of serving one item in one round."""

    round: int
    item_id: str
    served: int
    positive_events: int
    discovered: bool


def _feature_projection(config: SimConfig) -> np.ndarray:
    # Fixed per seed, shared by every round, so features mean the same thing
    # across the item pool.
    rng = np.random.default_rng([config.seed, 0xFEA7])
    return rng.normal(0.0, 1.0, size=config.feature_dim)


def generate_corpus(
    config: SimConfig, round_index: int
) -> tuple[list[LatentItem], list[ItemRecord]]:
    """Draw one round's fresh items. Deterministic given (seed, round_index)."""
    config.validate()
    if round_index < 0:
        raise DataError("round_index must be non-negative")
    projection = _feature_projection(config)
    rng = np.random.default_rng([config.seed, round_index])
    n = config.items_per_round
    quality = rng.normal(0.0, 1.0, size=n)
    archetype = rng.choice(3, size=n, p=list(config.archetype_mix))
    log_noise = rng.normal(0.0, config.threshold_noise, size=n)
    feature_noise = rng.normal(0.0, 1.0, size=(n, config.feature_dim))

    # Columns first, objects last. math.exp is mapped over the columns: np.exp
    # can differ from it in the last bit, which would change latents.jsonl.
    template = f"r{round_index:02d}-%05d"
    ids = [template % i for i in range(n)]
    theta = np.where(archetype == 0, 0.0, math.inf)
    finite = archetype == 1
    # A finite config can still overflow a column: math.exp raises
    # OverflowError, and numpy raises FloatingPointError under errstate.
    try:
        with np.errstate(over="raise"):
            log_theta = (
                config.threshold_mu - config.threshold_kappa * quality[finite] + log_noise[finite]
            )
            raw = np.fromiter(map(math.exp, log_theta), float, len(log_theta))
            theta[finite] = np.clip(np.round(raw), 1, config.max_threshold)
            logit = config.engagement_a * quality + config.engagement_b
            exp_neg_logit = np.fromiter(map(math.exp, -logit), float, n)
            engagement_prob = 1.0 / (1.0 + exp_neg_logit)
            # In place, so the only (n, feature_dim) arrays are the noise and one product.
            features = np.multiply(config.feature_noise, feature_noise, out=feature_noise)
            features += np.multiply.outer(quality, projection)
    except (OverflowError, FloatingPointError) as exc:
        raise ConfigError(f"config pushes a value out of float range: {exc}") from exc
    features.setflags(write=False)

    latents = list(
        map(LatentItem, ids, quality.tolist(), theta.tolist(), engagement_prob.tolist())
    )
    # Each record's features are a read-only row of the one matrix.
    records = list(map(ItemRecord, ids, features))
    return latents, records


def serve_round(
    latents: Sequence[LatentItem],
    plan: AllocationPlan,
    config: SimConfig,
    round_index: int = 0,
) -> list[Observation]:
    """Serve granted impressions and report engagement plus the discovery outcome.

    Only funded entries produce observations: an item nobody explored yields
    no label. Positive events are Binomial(granted, engagement_prob), drawn in
    item id order. Discovery is decided per round: the item is discovered
    exactly when this round's grant reaches its threshold. Traffic from
    earlier rounds does not count towards it, unlike engagement, which
    accumulates.
    """
    by_id = {lat.id: lat for lat in latents}
    entries = sorted(plan.entries, key=attrgetter("item_id"))
    for entry in entries:
        if entry.item_id not in by_id:
            raise DataError(f"plan references unknown item {entry.item_id}")
    entries = [entry for entry in entries if entry.granted != 0]
    n = len(entries)
    served = np.fromiter((e.granted for e in entries), np.int64, n)
    probs = np.fromiter((by_id[e.item_id].engagement_prob for e in entries), float, n)
    thresholds = np.fromiter((by_id[e.item_id].true_threshold for e in entries), float, n)
    # One draw over the funded entries in id order takes what one draw per
    # entry in that order takes.
    rng = np.random.default_rng([config.seed, round_index, _SERVE_STREAM])
    positives = rng.binomial(served, probs)
    return [
        Observation(round_index, entry.item_id, entry.granted, int(positive), bool(found))
        for entry, positive, found in zip(entries, positives, served >= thresholds)
    ]


def _record_rows(events: Sequence[Observation], records: Sequence[ItemRecord]) -> np.ndarray:
    """Index into records of every event's item, checking each event in order."""
    row_of = {rec.id: k for k, rec in enumerate(records)}
    for obs in events:
        if obs.item_id not in row_of:
            raise DataError(f"observation references unknown item {obs.item_id}")
        if obs.discovered is None:
            raise DataError(f"unresolved observation for item {obs.item_id}")
    return np.fromiter((row_of[o.item_id] for o in events), np.int64, len(events))


def _counts_before(groups: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Row k: the sum of counts over the rows before k that share its group."""
    order = np.argsort(groups, kind="stable")
    sorted_groups = groups[order]
    group_start = np.ones(len(groups), dtype=bool)
    group_start[1:] = sorted_groups[1:] != sorted_groups[:-1]
    first = np.maximum.accumulate(np.where(group_start, np.arange(len(groups)), 0))
    before = np.cumsum(counts[order], axis=0) - counts[order]
    result = np.empty_like(counts)
    result[order] = before - before[first]
    return result


def build_training_set(
    observations: Sequence[Observation],
    records: Sequence[ItemRecord],
    schema: BucketSchema,
) -> TrainingSet:
    """One example per serving event.

    Features are the item's static features plus its engagement block as it
    stood when the round was served, reconstructed by replaying observations
    in round order. The bucket is the served traffic's bucket and the label is
    the observed discovery outcome.

    The replay runs on columns: the events in (round, item id) order, each
    item's running counts an exclusive cumulative sum over its own events.
    """
    events = sorted(observations, key=attrgetter("round", "item_id"))
    rows = _record_rows(events, records)
    n = len(events)
    served = np.fromiter((o.served for o in events), np.int64, n)
    positive_events = np.fromiter((o.positive_events for o in events), np.int64, n)
    if (served < 0).any():
        raise DataError("traffic must be non-negative")
    # The item's engagement as it stood before each event.
    impressions, positives = _counts_before(
        rows, np.column_stack([served, positive_events])
    ).T
    if (positives < 0).any():
        raise DataError("engagement counts must be non-negative")
    if (positives > impressions).any():
        raise DataError("positive_events cannot exceed impressions")

    static = static_matrix([records[k] for k in rows])
    edges = np.asarray(schema.edges)
    columns = (
        np.hstack([static, engagement_block(impressions, positives)]),
        np.minimum(np.searchsorted(edges, served, side="right") - 1, len(edges) - 1),
        np.fromiter(map(attrgetter("discovered"), events), np.int64, n),
    )
    for column in columns:
        column.setflags(write=False)  # built here, so TrainingSet need not copy them
    return TrainingSet(*columns)


@dataclass(frozen=True)
class RoundMetrics:
    round: int
    candidates: int
    funded: int
    discovered: int
    total_allocated: int
    total_cost: float
    region_counts: dict[str, int]


@dataclass(frozen=True)
class ItemRoundRow:
    round: int
    item_id: str
    region: str
    granted: int
    positive_events: int
    discovered: bool


@dataclass(frozen=True)
class ExperimentReport:
    strategy: str
    seed: int
    rounds: tuple[RoundMetrics, ...]
    total_discovered: int
    item_rows: tuple[ItemRoundRow, ...]


def run_experiment(
    sim_config: SimConfig,
    alloc_config: AllocationConfig,
    schema: BucketSchema,
    params: Hyperparams = Hyperparams(),
    strategy: str = "model",
) -> ExperimentReport:
    """Run the multi-round exploration loop under one strategy.

    Round 0 always explores uniformly because no labels exist yet. From round
    1 on, the "model" strategy retrains on every accumulated outcome and
    allocates through the three-region allocator; "uniform" keeps the
    baseline; "oracle" allocates from the hidden thresholds. Discovered items
    leave the candidate pool; every round adds a fresh batch.
    """
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    sim_config.validate()
    validate_config(alloc_config, schema)
    params.validate()

    pool_latents: dict[str, LatentItem] = {}
    pool_records: dict[str, ItemRecord] = {}
    all_observations: list[Observation] = []
    round_metrics = []
    item_rows = []

    for round_index in range(sim_config.rounds):
        latents, records = generate_corpus(sim_config, round_index)
        for lat, rec in zip(latents, records):
            pool_latents[lat.id] = lat
            pool_records[rec.id] = rec

        candidates = [
            rec for rec in pool_records.values() if rec.discovered is not True
        ]
        candidates.sort(key=attrgetter("id"))
        candidate_latents = [pool_latents[rec.id] for rec in candidates]

        if strategy == "oracle":
            plan = oracle_allocate(candidate_latents, alloc_config)
        elif strategy == "model" and round_index > 0:
            examples = build_training_set(
                all_observations, list(pool_records.values()), schema
            )
            model = train(examples, schema, params)
            plan = allocate(candidates, model, alloc_config, schema)
        else:
            plan = uniform_allocate(candidates, alloc_config)

        observations = serve_round(candidate_latents, plan, sim_config, round_index)
        all_observations.extend(observations)

        counts = Counter(map(attrgetter("region"), plan.entries))
        regions = {e.item_id: e.region.value for e in plan.entries if e.granted}
        discovered = 0
        for obs in observations:
            rec = pool_records[obs.item_id]
            stats = rec.engagement
            pool_records[obs.item_id] = ItemRecord(
                id=rec.id,
                features=rec.features,
                engagement=EngagementStats(
                    impressions=stats.impressions + obs.served,
                    positive_events=stats.positive_events + obs.positive_events,
                ),
                impressions_received=rec.impressions_received + obs.served,
                discovered=True if obs.discovered else rec.discovered,
            )
            item_rows.append(
                ItemRoundRow(
                    round=round_index,
                    item_id=obs.item_id,
                    region=regions[obs.item_id],
                    granted=obs.served,
                    positive_events=obs.positive_events,
                    discovered=obs.discovered,
                )
            )
            discovered += obs.discovered

        round_metrics.append(
            RoundMetrics(
                round=round_index,
                candidates=len(candidates),
                funded=len(observations),
                discovered=discovered,
                total_allocated=plan.total_allocated,
                total_cost=plan.total_cost,
                region_counts=dict(sorted((r.value, c) for r, c in counts.items())),
            )
        )

    return ExperimentReport(
        strategy=strategy,
        seed=sim_config.seed,
        rounds=tuple(round_metrics),
        total_discovered=sum(m.discovered for m in round_metrics),
        item_rows=tuple(item_rows),
    )


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def save_latents(latents: Sequence[LatentItem], path: str | Path) -> None:
    """Ground-truth file; kept separate so allocation code never reads it."""
    write_jsonl(
        (
            {
                "id": lat.id,
                "quality": lat.quality,
                "threshold": (
                    None if math.isinf(lat.true_threshold) else lat.true_threshold
                ),
                "engagement_prob": lat.engagement_prob,
            }
            for lat in latents
        ),
        path,
    )


def _finite(row: dict, key: str) -> float:
    value = float(row[key])
    if not math.isfinite(value):
        raise ValueError(f"{key} {row[key]!r} is not finite")
    return value


def _latent_item(row: dict) -> LatentItem:
    # The decoder reads an overflowing literal such as 1e400 as inf, which no
    # writer writes: save_latents writes an infinite threshold as null.
    threshold = row["threshold"]
    return LatentItem(
        id=str(row["id"]),
        quality=_finite(row, "quality"),
        true_threshold=math.inf if threshold is None else _finite(row, "threshold"),
        engagement_prob=_finite(row, "engagement_prob"),
    )


def load_latents(path: str | Path) -> list[LatentItem]:
    return read_jsonl(path, _latent_item, "latent record")


def report_to_dict(report: ExperimentReport) -> dict:
    return {
        "strategy": report.strategy,
        "seed": report.seed,
        "total_discovered": report.total_discovered,
        "rounds": [asdict(m) for m in report.rounds],
    }


def write_report_csv(report: ExperimentReport, path: str | Path) -> None:
    write_csv(
        ["round", "item_id", "region", "granted", "positive_events", "discovered"],
        (
            [
                row.round,
                row.item_id,
                row.region,
                row.granted,
                row.positive_events,
                int(row.discovered),
            ]
            for row in report.item_rows
        ),
        path,
    )

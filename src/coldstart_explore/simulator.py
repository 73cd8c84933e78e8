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
from dataclasses import asdict, dataclass, field
from itertools import compress, islice, repeat
from operator import attrgetter, eq, lt
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .allocator import plan_columns
from .core import (
    INTEGER,
    JSON_NULL,
    NUMBER,
    PLAN_REGIONS,
    STRING,
    AllocationConfig,
    AllocationPlan,
    BucketSchema,
    ConfigError,
    DataError,
    ItemRecord,
    Region,
    bucket_of,
    checked,
    frozen,
    model_inputs,
    read_jsonl,
    read_only,
    static_matrix,
    sum_costs,
    validate_config,
    write_csv,
    write_jsonl_columns,
)
from .metrics import oracle_grants, uniform_grants
from .model import Hyperparams, TrainingSet, train

STRATEGIES = ("uniform", "model", "oracle")

# Stream tag separating serving randomness from corpus-generation randomness.
_SERVE_STREAM = 7919


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


def draw_columns(
    config: SimConfig, round_index: int
) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One round's fresh items as columns: the kernel of generate_corpus.

    Returns the ids, quality, true threshold and engagement probability of
    every item, and the read-only (items, feature_dim) feature matrix.
    Deterministic given (seed, round_index); the config is not validated.
    """
    projection = _feature_projection(config)
    rng = np.random.default_rng([config.seed, round_index])
    n = config.items_per_round
    quality = rng.normal(0.0, 1.0, size=n)
    archetype = rng.choice(3, size=n, p=list(config.archetype_mix))
    log_noise = rng.normal(0.0, config.threshold_noise, size=n)
    feature_noise = rng.normal(0.0, 1.0, size=(n, config.feature_dim))

    # math.exp is mapped over the columns: np.exp can differ from it in the
    # last bit, which would change latents.jsonl.
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
    return ids, quality, theta, engagement_prob, features


def generate_corpus(
    config: SimConfig, round_index: int
) -> tuple[list[LatentItem], list[ItemRecord]]:
    """Draw one round's fresh items (see draw_columns) as objects."""
    config.validate()
    if round_index < 0:
        raise DataError("round_index must be non-negative")
    ids, quality, theta, engagement_prob, features = draw_columns(config, round_index)
    latents = LatentColumns(ids, quality, theta, engagement_prob).items()
    # Each record's features are a read-only row of the one matrix.
    records = list(map(ItemRecord, ids, features))
    return latents, records


def serve_columns(
    config: SimConfig,
    round_index: int,
    served: np.ndarray,
    engagement_prob: np.ndarray,
    true_threshold: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Positive events and discovery outcomes of the funded items of one
    round, given in id order: the kernel of serve_round.

    One binomial draw over the items in id order takes what one draw per
    item in that order takes.
    """
    rng = np.random.default_rng([config.seed, round_index, _SERVE_STREAM])
    return rng.binomial(served, engagement_prob), served >= true_threshold


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
    accumulates. A plan naming an unknown item or one item twice, or granting
    negative traffic, is refused in id order, as are two latents of one item.
    """
    by_id = {lat.id: lat for lat in latents}
    if len(by_id) != len(latents):
        repeated = next(i for i, n in Counter(lat.id for lat in latents).items() if n > 1)
        raise DataError(f"duplicate latent for item {repeated}")
    ids, served = plan.ids, plan.granted
    # A plan whose rows are in id order, as every producer's are, needs no sort.
    if not all(map(lt, ids, islice(ids, 1, None))):
        order = sorted(range(len(ids)), key=ids.__getitem__)
        ids, served = [ids[k] for k in order], served[order]
    # Sorted, a repeated id sits next to itself.
    twice = any(map(eq, ids, islice(ids, 1, None)))
    if twice or not all(map(by_id.__contains__, ids)) or (served < 0).any():
        previous = None
        for item_id, grant in zip(ids, served.tolist()):
            if item_id not in by_id:
                raise DataError(f"plan references unknown item {item_id}")
            if item_id == previous:
                raise DataError(f"duplicate plan entry for item {item_id}")
            if grant < 0:
                raise DataError(f"plan grants item {item_id} negative traffic {grant}")
            previous = item_id
    funded = served != 0
    ids = list(compress(ids, funded.tolist()))
    served = served[funded]
    items = list(map(by_id.__getitem__, ids))
    probs = np.fromiter(map(attrgetter("engagement_prob"), items), float, len(items))
    thresholds = np.fromiter(map(attrgetter("true_threshold"), items), float, len(items))
    positives, found = serve_columns(config, round_index, served, probs, thresholds)
    return list(
        map(
            Observation,
            repeat(round_index),
            ids,
            served.tolist(),
            positives.tolist(),
            found.tolist(),
        )
    )


def _record_rows(events: Sequence[Observation], records: Sequence[ItemRecord]) -> np.ndarray:
    """Index into records of every event's item, checking each event in
    order; the events come in (round, item id) order."""
    ids = [rec.id for rec in records]
    row_of = dict(zip(ids, range(len(ids))))
    if len(row_of) != len(ids):
        repeated = next(i for i, count in Counter(ids).items() if count > 1)
        raise DataError(f"duplicate record for item {repeated}")
    previous = None
    for obs in events:
        if obs.item_id not in row_of:
            raise DataError(f"observation references unknown item {obs.item_id}")
        if obs.discovered is None:
            raise DataError(f"unresolved observation for item {obs.item_id}")
        if (obs.round, obs.item_id) == previous:
            raise DataError(f"two observations of item {obs.item_id} in round {obs.round}")
        if not 0 <= obs.positive_events <= obs.served:
            raise DataError(f"positive_events cannot exceed served or fall below 0: {obs}")
        previous = obs.round, obs.item_id
    return np.fromiter((row_of[o.item_id] for o in events), np.int64, len(events))


_INT64 = np.iinfo(np.int64)


def _fits_int64(value) -> bool:
    return type(value) in INTEGER and _INT64.min <= value <= _INT64.max


def _int64_column(events: Sequence[Observation], name: str) -> np.ndarray:
    """Field `name` of every event as an int64 column. DataError naming the
    item of the first event whose value is not an int (a bool is not one) or
    does not fit int64."""
    values = list(map(attrgetter(name), events))
    # Every value an int first, so that min and max compare only ints.
    if not (
        set(INTEGER).issuperset(map(type, values))
        and _fits_int64(min(values, default=0))
        and _fits_int64(max(values, default=0))
    ):
        obs, value = next((o, v) for o, v in zip(events, values) if not _fits_int64(v))
        raise DataError(
            f"observation of item {obs.item_id}: {name} must be an integer "
            f"that fits int64, not {value!r}"
        )
    return np.fromiter(values, np.int64, len(values))


def build_training_set(
    observations: Sequence[Observation],
    records: Sequence[ItemRecord],
    schema: BucketSchema,
) -> TrainingSet:
    """One example per serving event, replayed in (round, item id) order.

    Running impressions and positive events per record give each example its
    item's static features plus the engagement block as it stood before the
    event; its bucket is the served traffic's and its label `discovered`.
    Each event's round and counts must be ints that fit int64, and
    0 <= positive_events <= served. Two records of one item are refused, and
    so are two observations of one item in one round, as neither came before
    the other."""
    _int64_column(observations, "round")  # checked before the sort compares them
    events = sorted(observations, key=attrgetter("round", "item_id"))
    n = len(events)
    counts = np.empty((n, 2), dtype=np.int64)  # each event's served and positive events
    counts[:, 0] = _int64_column(events, "served")
    counts[:, 1] = _int64_column(events, "positive_events")
    bucket = bucket_of(counts[:, 0], schema)
    rows = _record_rows(events, records)
    # Each event's counts become its record's counts before it, round by
    # round: a round's events are of distinct records, so one add replays it.
    running = np.zeros((len(records), 2), dtype=np.int64)
    rounds = [o.round for o in events]
    round_starts = [k for k in range(1, n) if rounds[k] != rounds[k - 1]]
    for block in np.split(np.arange(n), round_starts):
        running[rows[block]] += counts[block]
        counts[block] = running[rows[block]] - counts[block]
    del running, rounds  # freed before the features, the largest arrays, are built
    static = static_matrix([records[k] for k in rows])
    label = np.fromiter(map(attrgetter("discovered"), events), np.int64, n)
    return TrainingSet(*frozen(model_inputs(static, *counts.T), bucket, label))


@dataclass(frozen=True)
class RoundMetrics:
    round: int
    candidates: int
    funded: int
    discovered: int
    total_allocated: int
    total_cost: float
    region_counts: dict[str, int]
    # Buckets the round's model saw no training example at; None without a model.
    untrained_buckets: tuple[int, ...] | None = None


@dataclass(frozen=True, slots=True)
class ItemRoundRow:
    """One row of an ExperimentReport: a funded item in one round."""

    round: int
    item_id: str
    region: str
    granted: int
    positive_events: int
    discovered: bool


# A report's region column codes the regions as a plan's does: code k is
# PLAN_REGIONS[k], named _REGION_NAMES[k].
_REGION_NAMES = tuple(region.value for region in PLAN_REGIONS)
_CODE_OF_NAME = {name: code for code, name in enumerate(_REGION_NAMES)}
_UNIFORM_CODE = PLAN_REGIONS.index(Region.UNIFORM)
_ORACLE_CODE = PLAN_REGIONS.index(Region.ORACLE)
_UNFUNDED_CODE = PLAN_REGIONS.index(Region.UNFUNDED)


@dataclass(frozen=True, eq=False, init=False, slots=True)
class ExperimentReport:
    """One strategy's run of the loop: its rounds' metrics and one row per
    funded item per round, in (round, item id) order, held as columns.

    Row k of the read-only columns is `round_index[k]`, `item_ids[k]`, its
    region code `region[k]` (indexing PLAN_REGIONS), `granted[k]`,
    `positive_events[k]` and `discovered[k]`. `item_rows`, one ItemRoundRow
    per row, is built on first read and kept.
    """

    strategy: str
    seed: int
    rounds: tuple[RoundMetrics, ...]
    total_discovered: int
    round_index: np.ndarray = field(repr=False)
    item_ids: tuple[str, ...] = field(repr=False)
    region: np.ndarray = field(repr=False)
    granted: np.ndarray = field(repr=False)
    positive_events: np.ndarray = field(repr=False)
    discovered: np.ndarray = field(repr=False)
    _item_rows: tuple[ItemRoundRow, ...] | None = field(default=None, repr=False)

    def __init__(
        self,
        strategy: str,
        seed: int,
        rounds: Sequence[RoundMetrics],
        total_discovered: int,
        item_rows: Iterable[ItemRoundRow],
    ) -> None:
        rows = tuple(item_rows)
        self._hold(
            strategy,
            seed,
            rounds,
            total_discovered,
            [r.round for r in rows],
            [r.item_id for r in rows],
            [_CODE_OF_NAME[r.region] for r in rows],
            [r.granted for r in rows],
            [r.positive_events for r in rows],
            [r.discovered for r in rows],
        )

    @classmethod
    def of_columns(
        cls,
        strategy: str,
        seed: int,
        rounds: Sequence[RoundMetrics],
        total_discovered: int,
        round_index: np.ndarray,
        item_ids: Sequence[str],
        region: np.ndarray,
        granted: np.ndarray,
        positive_events: np.ndarray,
        discovered: np.ndarray,
    ) -> "ExperimentReport":
        """The report whose rows are the given columns, with no ItemRoundRow built."""
        report = cls.__new__(cls)
        report._hold(
            strategy, seed, rounds, total_discovered,
            round_index, item_ids, region, granted, positive_events, discovered,
        )
        return report

    def _hold(
        self, strategy, seed, rounds, total_discovered,
        round_index, item_ids, region, granted, positive_events, discovered,
    ):
        columns = {
            "round_index": read_only(round_index, np.int64),
            "item_ids": tuple(item_ids),
            "region": read_only(region, np.int8),
            "granted": read_only(granted, np.int64),
            "positive_events": read_only(positive_events, np.int64),
            "discovered": read_only(discovered, bool),
        }
        n = len(columns["item_ids"])
        for name, column in columns.items():
            if len(column) != n:
                raise DataError(f"report columns differ in length: {n} ids, {len(column)} {name}")
        columns.update(
            strategy=strategy,
            seed=seed,
            rounds=tuple(rounds),
            total_discovered=total_discovered,
            _item_rows=None,
        )
        for name, value in columns.items():
            object.__setattr__(self, name, value)

    @property
    def item_rows(self) -> tuple[ItemRoundRow, ...]:
        """One ItemRoundRow per row, in row order: built on first read, then kept."""
        if self._item_rows is None:
            rows = map(
                ItemRoundRow,
                self.round_index.tolist(),
                self.item_ids,
                map(_REGION_NAMES.__getitem__, self.region.tolist()),
                self.granted.tolist(),
                self.positive_events.tolist(),
                self.discovered.tolist(),
            )
            object.__setattr__(self, "_item_rows", tuple(rows))
        return self._item_rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExperimentReport):
            return NotImplemented
        return (
            self.strategy == other.strategy
            and self.seed == other.seed
            and self.rounds == other.rounds
            and self.total_discovered == other.total_discovered
            and self.item_ids == other.item_ids
            and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in ("round_index", "region", "granted", "positive_events", "discovered")
            )
        )


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

    The loop keeps its state as columns and calls the kernels behind the
    per-item functions: draw_columns, uniform_grants, oracle_grants and
    serve_columns, and plan_columns, whose column AllocationPlan gives a
    model round its grants and regions. The model strategy logs each round's
    examples as it serves, and trains on all of them in (round, item id)
    order: the set build_training_set replays from the same observations.
    The report's rows are one block of columns per round, joined once at the
    end; no ItemRoundRow is built unless a reader asks for item_rows.
    """
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    sim_config.validate()
    validate_config(alloc_config, schema)
    params.validate()

    n = sim_config.items_per_round
    size = sim_config.rounds * n
    # The pool: one row per item drawn, in draw order.
    ids: list[str] = []
    static = np.empty((size, sim_config.feature_dim))
    true_threshold = np.empty(size)
    engagement_prob = np.empty(size)
    impressions = np.zeros(size, dtype=np.int64)
    positive_events = np.zeros(size, dtype=np.int64)
    discovered = np.zeros(size, dtype=bool)
    # The examples logged so far, one (features, bucket, label) block per round.
    history: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    round_metrics = []
    # The report's rows: the funded items' ids, and one (region, granted,
    # positive events, discovered) block per round.
    report_ids: list[str] = []
    report_blocks: list[tuple[np.ndarray, ...]] = []

    for round_index in range(sim_config.rounds):
        fresh = slice(round_index * n, (round_index + 1) * n)
        fresh_ids, _, true_threshold[fresh], engagement_prob[fresh], static[fresh] = (
            draw_columns(sim_config, round_index)
        )
        ids += fresh_ids
        # The candidates: the undiscovered rows, in Python's str order of their ids.
        order = np.fromiter(sorted(range(len(ids)), key=ids.__getitem__), np.intp, len(ids))
        rows = order[~discovered[order]]

        untrained = None
        if strategy == "model":
            features = model_inputs(static[rows], impressions[rows], positive_events[rows])
        if strategy == "oracle":
            granted = oracle_grants(true_threshold[rows], alloc_config)
            total_cost = sum_costs(granted, alloc_config)
            region = np.full(len(rows), _ORACLE_CODE, np.int8)
        elif strategy == "model" and round_index > 0:
            examples = TrainingSet(*frozen(*map(np.concatenate, zip(*history))))
            model = train(examples, schema, params)
            untrained = model.meta.untrained_buckets
            candidate_ids = [ids[k] for k in rows.tolist()]
            plan = plan_columns(candidate_ids, features, model, alloc_config, schema)
            granted, total_cost, region = plan.granted, plan.total_cost, plan.region
        else:
            granted = uniform_grants(len(rows), alloc_config)
            total_cost = sum_costs(granted, alloc_config)
            region = np.full(len(rows), _UNIFORM_CODE, np.int8)

        funded = np.flatnonzero(granted)
        served_rows, served, region = rows[funded], granted[funded], region[funded]
        positives, found = serve_columns(
            sim_config, round_index, served, engagement_prob[served_rows],
            true_threshold[served_rows],
        )
        if strategy == "model":  # each example with its item's engagement before the round
            history.append((features[funded], bucket_of(served, schema), found))
        impressions[served_rows] += served
        positive_events[served_rows] += positives
        discovered[served_rows] = found

        tally = np.bincount(region, minlength=len(PLAN_REGIONS))
        tally[_UNFUNDED_CODE] = len(rows) - len(funded)
        report_ids += [ids[k] for k in served_rows.tolist()]
        report_blocks.append((region, served, positives, found))
        round_metrics.append(
            RoundMetrics(
                round=round_index,
                candidates=len(rows),
                funded=len(funded),
                discovered=int(found.sum()),
                total_allocated=int(granted.sum()),
                total_cost=total_cost,
                region_counts=dict(
                    sorted((_REGION_NAMES[k], c) for k, c in enumerate(tally.tolist()) if c)
                ),
                untrained_buckets=untrained,
            )
        )

    round_column = np.repeat(np.arange(sim_config.rounds), [m.funded for m in round_metrics])
    return ExperimentReport.of_columns(
        strategy,
        sim_config.seed,
        round_metrics,
        sum(m.discovered for m in round_metrics),
        *frozen(round_column),
        report_ids,
        *frozen(*map(np.concatenate, zip(*report_blocks))),
    )


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

class LatentColumns(NamedTuple):
    """Ground truth as columns, one row per item: what a latents file holds."""

    ids: Sequence[str]
    quality: np.ndarray
    true_threshold: np.ndarray  # inf = never discoverable
    engagement_prob: np.ndarray

    def items(self) -> list[LatentItem]:
        """One LatentItem per row."""
        return list(
            map(
                LatentItem,
                self.ids,
                self.quality.tolist(),
                self.true_threshold.tolist(),
                self.engagement_prob.tolist(),
            )
        )


def write_latents(latents: LatentColumns, path: str | Path) -> None:
    """Ground-truth file; kept separate so allocation code never reads it.

    JSON lines of id, quality, threshold and engagement_prob; an infinite
    threshold is written as null. DataError, before the file is opened, if a
    value is NaN or, but for a threshold, infinite.
    """
    threshold = latents.true_threshold
    if np.isnan(threshold).any():
        raise DataError(f"{path}: threshold holds NaN, which JSON cannot")
    columns = latents._replace(true_threshold=np.where(np.isinf(threshold), JSON_NULL, threshold))
    names = ("id", "quality", "threshold", "engagement_prob")
    write_jsonl_columns(dict(zip(names, columns)), path)


def _finite(row: dict, key: str) -> float:
    value = float(checked(row[key], NUMBER, key))
    if not math.isfinite(value):
        raise ValueError(f"{key} {row[key]!r} is not finite")
    return value


def _latent_row(row: dict) -> tuple[str, float, float, float]:
    # The decoder reads an overflowing literal such as 1e400 as inf, which no
    # writer writes: write_latents writes an infinite threshold as null.
    threshold = row["threshold"]
    return (
        checked(row["id"], STRING, "id"),
        _finite(row, "quality"),
        math.inf if threshold is None else _finite(row, "threshold"),
        _finite(row, "engagement_prob"),
    )


def read_latents(path: str | Path) -> LatentColumns:
    """A latents file as columns, in file order. A row whose id is not a
    string, or whose values are not finite numbers (a threshold may also be
    null), raises DataError naming `path:line`."""
    rows = read_jsonl(path, _latent_row, "latent record")
    values = np.array([row[1:] for row in rows], dtype=float).reshape(len(rows), 3)
    return LatentColumns([row[0] for row in rows], *values.T.copy())


def load_latents(path: str | Path) -> list[LatentItem]:
    """The latents file (see read_latents) as latent items, in file order."""
    return read_latents(path).items()


def report_to_dict(report: ExperimentReport) -> dict:
    return {
        "strategy": report.strategy,
        "seed": report.seed,
        "total_discovered": report.total_discovered,
        "rounds": [asdict(m) for m in report.rounds],
    }


def write_report_csv(report: ExperimentReport, path: str | Path) -> None:
    """The report's rows, one line each, from its columns."""
    write_csv(
        ["round", "item_id", "region", "granted", "positive_events", "discovered"],
        zip(
            report.round_index.tolist(),
            report.item_ids,
            map(_REGION_NAMES.__getitem__, report.region.tolist()),
            report.granted.tolist(),
            report.positive_events.tolist(),
            report.discovered.astype(np.int64).tolist(),
        ),
        path,
    )

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
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from .allocator import plan_columns
from .core import (
    CODES,
    IDS,
    INTEGER,
    INTS,
    NUMBER,
    REGION_CODE,
    REGION_NAMES,
    AllocationConfig,
    AllocationPlan,
    BucketSchema,
    Column,
    ConfigError,
    Corpus,
    DataError,
    ItemRecord,
    LATENTS_FILE,
    LatentColumns,
    LatentItem,  # re-exported as simulator.LatentItem
    Region,
    Rows,
    bucket_of,
    check_fields,
    checked_list,
    columns_equal,
    engagement_block,
    frozen,
    model_inputs,
    order_and_repeats,
    read_lines,
    refuse_region_codes,
    refuse_rows,
    region_counts,
    row_views,
    str_order,
    sum_costs,
    take_columns,
    validate_config,
    write_csv,
    write_lines,
)
from .metrics import oracle_grants, uniform_grants
from .model import Hyperparams, TrainingSet, train

STRATEGIES = ("uniform", "model", "oracle")

# Stream tag separating serving randomness from corpus-generation randomness.
_SERVE_STREAM = 7919


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
        # numpy's generators refuse a negative seed with a bare ValueError.
        # Every integer field takes an int alone: not a bool, float or numpy int.
        if type(self.seed) not in INTEGER or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, not {self.seed!r}")
        for name in ("items_per_round", "rounds", "feature_dim", "max_threshold"):
            value = getattr(self, name)
            if type(value) not in INTEGER or value < 1:
                raise ConfigError(f"{name} must be a positive integer, not {value!r}")
        # A real field takes an int or a float alone: not a bool, string or numpy float.
        reals = [f.name for f in fields(self) if f.type == "float"]
        check_fields(self, NUMBER, reals)
        for name in reals:
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be a finite number")
        if self.feature_noise < 0 or self.threshold_noise < 0:
            raise ConfigError("noise scales must be non-negative")
        mix = checked_list(self.archetype_mix, NUMBER, "archetype_mix", ConfigError)
        if len(mix) != 3 or any(f < 0 for f in mix):
            raise ConfigError("archetype_mix must be three non-negative fractions")
        if not math.isclose(sum(mix), 1.0, abs_tol=1e-9):
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


@dataclass(frozen=True, eq=False)
class Observations(Rows[Observation]):
    """Outcomes of serving, one row per serving event, held as columns.

    Row k of the columns (see COLUMNS and core.take_columns) is `round_index[k]`,
    `item_ids[k]`, `served[k]`, `positive_events[k]` and `discovered[k]`. A
    negative `served`, and `positive_events` outside [0, served], are refused,
    naming the first such row. As a sequence it is its rows, one Observation
    each; `len` reads the columns alone.
    """

    round_index: np.ndarray
    item_ids: tuple[str, ...]
    served: np.ndarray
    positive_events: np.ndarray
    discovered: np.ndarray

    what, row = "an Observations, the columns serve_round returns", "Observation"
    COLUMNS = dict(
        round_index=INTS, item_ids=IDS, served=INTS, positive_events=INTS, discovered=Column(bool)
    )

    def __post_init__(self) -> None:
        vars(self).update(
            take_columns("observation", self.COLUMNS, vars(self), _refuse_outcomes)
        )

    @cached_property
    def rows(self) -> tuple[Observation, ...]:
        """One Observation per row, in row order: built on first read, then kept."""
        outcomes = (c.tolist() for c in (self.served, self.positive_events, self.discovered))
        return row_views(Observation, self.round_index.tolist(), self.item_ids, *outcomes)

    __eq__ = columns_equal


def _refuse_outcomes(round_index, item_ids, served, positive_events, discovered) -> None:
    """The observations' value refusals, naming the first such row by item and round."""
    refuse_rows(
        lambda k: f"for item {item_ids[k]} in round {round_index[k]}",
        ("served must be non-negative", served < 0),
        ("positive_events must lie in [0, served]",
         (positive_events < 0) | (positive_events > served)),
    )


def _feature_projection(config: SimConfig) -> np.ndarray:
    # Fixed per seed, shared by every round, so features mean the same thing
    # across the item pool.
    rng = np.random.default_rng([config.seed, 0xFEA7])
    return rng.normal(0.0, 1.0, size=config.feature_dim)


def _check_round(round_index) -> None:
    # Before any draw: numpy would take True as seed 1, and refuse 1.5 or -1 bare.
    if type(round_index) not in INTEGER or round_index < 0:
        raise DataError(f"round_index must be a non-negative integer, not {round_index!r}")


#: "00" to "99": the last two digits of the ids of every hundred items.
_TWO_DIGITS = [f"{i:02d}" for i in range(100)]


def round_ids(round_index: int, n: int) -> list[str]:
    """The ids of a round's n items: f"r{round_index:02d}-%05d" % i for each
    item i, built per hundred items from the prefix of its hundred and the
    two-digit strings. "%03d" % (i // 100) writes every digit of a hundred
    past 999, so the ids of more than 99,999 items keep all their digits."""
    prefixes = [f"r{round_index:02d}-%03d" % h for h in range(-(-n // 100))]
    ids = [prefix + digits for prefix in prefixes for digits in _TWO_DIGITS]
    del ids[n:]
    return ids


#: Relative distance to a half-integer within which rounded_thresholds asks
#: math.exp: far wider than the last-bit differences between np.exp and it.
_HALF_WINDOW = 2.0**-32


def rounded_thresholds(log_theta: np.ndarray, max_threshold: int) -> np.ndarray:
    """min(max(round(math.exp(x)), 1), max_threshold) of each x, as floats.

    np.exp of the column can differ from math.exp in its last bit, which
    moves round() only for a value next to a half-integer. So math.exp
    recomputes the values np.exp puts within _HALF_WINDOW (relative) of a
    half-integer, and any it overflows, for which math.exp raises
    OverflowError if it overflows too. Every result is the per-item one.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        raw = np.exp(log_theta)
        doubtful = np.flatnonzero(~(np.abs(raw - np.floor(raw) - 0.5) > raw * _HALF_WINDOW))
    raw[doubtful] = list(map(math.exp, log_theta[doubtful].tolist()))
    return np.clip(np.round(raw), 1, max_threshold)


def draw_columns(
    config: SimConfig, round_index: int
) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One round's fresh items as columns: the kernel of generate_corpus.

    Returns the ids (a list of str, see round_ids), the quality, true
    threshold and engagement probability of every item, and the read-only
    (items, feature_dim) feature matrix. Every value is bit for bit what a
    loop over the items computes: the thresholds come from
    rounded_thresholds, and the engagement probabilities from math.exp of
    each logit as a Python float, as np.exp's last bit would change
    latents.jsonl. Deterministic given (seed, round_index); the config is
    not validated.
    """
    projection = _feature_projection(config)
    rng = np.random.default_rng([config.seed, round_index])
    n = config.items_per_round
    quality = rng.normal(0.0, 1.0, size=n)
    archetype = rng.choice(3, size=n, p=list(config.archetype_mix))
    log_noise = rng.normal(0.0, config.threshold_noise, size=n)
    feature_noise = rng.normal(0.0, 1.0, size=(n, config.feature_dim))

    theta = np.where(archetype == 0, 0.0, math.inf)
    finite = archetype == 1
    # A finite config can still overflow a column: math.exp raises
    # OverflowError, and numpy raises FloatingPointError under errstate.
    try:
        with np.errstate(over="raise"):
            log_theta = (
                config.threshold_mu - config.threshold_kappa * quality[finite] + log_noise[finite]
            )
            theta[finite] = rounded_thresholds(log_theta, config.max_threshold)
            logit = config.engagement_a * quality + config.engagement_b
            exp_neg_logit = np.fromiter(map(math.exp, (-logit).tolist()), float, n)
            engagement_prob = 1.0 / (1.0 + exp_neg_logit)
            # In place, so the only (n, feature_dim) arrays are the noise and one product.
            features = np.multiply(config.feature_noise, feature_noise, out=feature_noise)
            features += np.multiply.outer(quality, projection)
    except (OverflowError, FloatingPointError) as exc:
        raise ConfigError(f"config pushes a value out of float range: {exc}") from exc
    features.setflags(write=False)
    return round_ids(round_index, n), quality, theta, engagement_prob, features


def generate_corpus(config: SimConfig, round_index: int) -> tuple[LatentColumns, Corpus]:
    """One round's fresh items (see draw_columns) as tables: the truth and an unserved corpus."""
    config.validate()
    _check_round(round_index)
    ids, quality, theta, engagement_prob, features = draw_columns(config, round_index)
    latents = LatentColumns(ids, *frozen(quality, theta, engagement_prob))
    (never_served,) = frozen(np.zeros(len(ids), dtype=np.int64))
    return latents, Corpus(latents.ids, features, never_served, never_served)


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
    latents: LatentColumns,
    plan: AllocationPlan,
    config: SimConfig,
    round_index: int = 0,
) -> Observations:
    """Serve granted impressions and report engagement plus the discovery outcome.

    Only funded entries produce observations, in id order: an item nobody
    explored yields no label. Positive events are Binomial(granted,
    engagement_prob), drawn in item id order. Discovery is decided per round:
    the item is discovered exactly when this round's grant reaches its
    threshold. Traffic from earlier rounds does not count towards it, unlike
    engagement, which accumulates. A plan naming an unknown item or one item
    twice, or granting negative traffic, is refused in id order, as are two
    latents of one item, and so is a round_index that is not a non-negative int.
    """
    LatentColumns.check(latents, "serve_round")
    _check_round(round_index)
    row_of = _row_of(latents.ids, "latent")
    order, repeated = order_and_repeats(plan.ids)
    ids, served, twice = [plan.ids[k] for k in order.tolist()], plan.granted[order], repeated[order]
    # Each entry's row of latents, -1 if unknown.
    rows = np.fromiter(map(row_of.get, ids, repeat(-1)), np.int64, len(ids))
    if (refused := (rows < 0) | twice | (served < 0)).any():
        k = int(np.argmax(refused))
        if rows[k] < 0:
            raise DataError(f"plan references unknown item {ids[k]}")
        if twice[k]:
            raise DataError(f"duplicate plan entry for item {ids[k]}")
        raise DataError(f"plan grants item {ids[k]} negative traffic {served[k]}")
    funded = np.flatnonzero(served)
    rows, served = rows[funded], served[funded]
    positives, found = serve_columns(
        config, round_index, served, latents.engagement_prob[rows], latents.true_threshold[rows]
    )
    rounds = np.full(len(rows), round_index)
    funded_ids = [ids[k] for k in funded.tolist()]
    return Observations(*frozen(rounds), funded_ids, *frozen(served, positives, found))


def _row_of(ids: Sequence[str], what: str) -> dict[str, int]:
    """Each id's row; DataError naming the first id that repeats, as a duplicate `what`."""
    row_of = dict(zip(ids, range(len(ids))))
    if len(row_of) != len(ids):
        repeated = next(i for i, count in Counter(ids).items() if count > 1)
        raise DataError(f"duplicate {what} for item {repeated}")
    return row_of


def build_training_set(
    observations: Observations,
    records: Corpus | Sequence[ItemRecord],
    schema: BucketSchema,
) -> TrainingSet:
    """One example per serving event, replayed in (round, item id) order.

    Running impressions and positive events per record give each example its
    item's static features plus the engagement block as it stood before the
    event; its bucket is the served traffic's and its label `discovered`.
    The events come as the columns of an Observations, which has checked
    their types and counts. The records are taken as Corpus.of(records). An
    event of an unknown item, two records of one item and two observations of
    one item in one round (neither came before the other) are refused, naming
    the first such event in replay order."""
    obs = Observations.check(observations, "build_training_set")
    corpus = Corpus.of(records)
    n = len(obs)
    # Sorted by id, then stably by round: (round, Python str order of id) order.
    by_id = str_order(obs.item_ids)
    order = by_id[np.argsort(obs.round_index[by_id], kind="stable")]
    rounds = obs.round_index[order]
    counts = np.stack([obs.served[order], obs.positive_events[order]], axis=1)
    bucket = bucket_of(counts[:, 0], schema)
    row_of = _row_of(corpus.ids, "record")
    # Each event's row of the corpus, -1 for an unknown item.
    rows = np.fromiter(map(row_of.get, obs.item_ids, repeat(-1)), np.int64, n)[order]
    unknown = rows < 0
    twice = np.zeros(n, dtype=bool)  # an event of the item and round of the one before it
    twice[1:] = (rounds[1:] == rounds[:-1]) & (rows[1:] == rows[:-1])
    if (refused := unknown | twice).any():
        k = int(np.argmax(refused))
        item_id = obs.item_ids[int(order[k])]
        if unknown[k]:
            raise DataError(f"observation references unknown item {item_id}")
        raise DataError(f"two observations of item {item_id} in round {rounds[k]}")
    # Each event's counts become its record's counts before it, round by
    # round: a round's events are of distinct records, so one add replays it.
    running = np.zeros((len(corpus), 2), dtype=np.int64)
    round_starts = np.flatnonzero(rounds[1:] != rounds[:-1]) + 1
    for block in np.split(np.arange(n), round_starts):
        running[rows[block]] += counts[block]
        counts[block] = running[rows[block]] - counts[block]
    del running  # freed before the features, the largest arrays, are built
    label = obs.discovered[order].astype(np.int64)
    return TrainingSet(*frozen(model_inputs(corpus.features[rows], *counts.T), bucket, label))


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


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    """One strategy's run of the loop: its rounds' metrics and one row per
    funded item per round, in (round, item id) order.

    The rows are `observations`, the Observations serve_round logs for them,
    and `region`, their region codes (indexing PLAN_REGIONS), taken by the
    column rule with the observations' ids (see COLUMNS).
    """

    strategy: str
    seed: int
    rounds: tuple[RoundMetrics, ...]
    observations: Observations = field(repr=False)
    region: np.ndarray = field(repr=False)

    COLUMNS = dict(ids=IDS, region=CODES)

    def __post_init__(self) -> None:
        obs = Observations.check(self.observations, "ExperimentReport")
        given = {"ids": obs.item_ids, "region": self.region}
        columns = take_columns("report", self.COLUMNS, given, refuse_region_codes)
        vars(self).update(region=columns["region"], rounds=tuple(self.rounds))

    @property
    def total_discovered(self) -> int:
        """The items the rounds discovered."""
        return sum(m.discovered for m in self.rounds)

    @cached_property
    def item_rows(self) -> tuple[ItemRoundRow, ...]:
        """One ItemRoundRow per row, in row order: built on first read, then kept."""
        obs = self.observations
        regions = map(REGION_NAMES.__getitem__, self.region.tolist())
        outcomes = (c.tolist() for c in (obs.served, obs.positive_events, obs.discovered))
        return row_views(ItemRoundRow, obs.round_index.tolist(), obs.item_ids, regions, *outcomes)

    __eq__ = columns_equal


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
    baseline; "oracle" allocates from the hidden thresholds. A model round
    whose outcomes so far lack either label explores as round 0 does.
    Discovered items leave the candidate pool; every round adds a fresh batch.

    The loop keeps its state as columns and calls the kernels behind the
    per-item functions: draw_columns, uniform_grants, oracle_grants and
    serve_columns, and plan_columns, whose column AllocationPlan gives a
    model round its grants and regions. The model strategy logs each round's
    examples as it serves, and trains on all of them in (round, item id)
    order: the set build_training_set replays from the report's observations.
    The report joins each round's served rows, the Observations serve_round
    would return, once at the end; no row object is built unless a reader asks.
    """
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    sim_config.validate()
    validate_config(alloc_config, schema)
    params.validate()

    n, d = sim_config.items_per_round, sim_config.feature_dim
    size = sim_config.rounds * n
    # The pool: one row per item drawn, in draw order; the ids are str objects.
    # Row k of inputs is item k's model input: its static features, then its
    # engagement block, which a model round rewrites for the rows it serves.
    ids = np.empty(size, dtype=object)
    inputs = np.zeros((size, d + 2))
    true_threshold = np.empty(size)
    engagement_prob = np.empty(size)
    impressions = np.zeros(size, dtype=np.int64)
    positive_events = np.zeros(size, dtype=np.int64)
    discovered = np.zeros(size, dtype=bool)
    # The examples logged so far, one (features, bucket, label) block per round.
    history: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    round_metrics = []
    # The report's rows, one block per round: the served rows, as serve_round
    # returns them, and their region codes.
    blocks: list[Observations] = []
    block_regions: list[np.ndarray] = []

    for round_index in range(sim_config.rounds):
        end = (round_index + 1) * n
        fresh = slice(round_index * n, end)
        ids[fresh], _, true_threshold[fresh], engagement_prob[fresh], inputs[fresh, :d] = (
            draw_columns(sim_config, round_index)
        )
        # The candidates: the undiscovered rows, in Python's str order of their ids.
        order = str_order(ids[:end])
        rows = order[~discovered[order]]

        untrained = None
        if strategy == "model":
            features = inputs[rows]
        if strategy == "model" and round_index > 0:
            examples = TrainingSet(*frozen(*map(np.concatenate, zip(*history))))
        # train refuses examples that lack either label; such a round explores as round 0 does.
        if strategy == "model" and round_index > 0 and 0 < examples.label.sum() < len(examples):
            model = train(examples, schema, params)
            untrained = model.meta.untrained_buckets
            plan = plan_columns(ids[rows].tolist(), features, model, alloc_config, schema)
            granted, total_cost, region = plan.granted, plan.total_cost, plan.region
        else:
            if strategy == "oracle":
                granted = oracle_grants(true_threshold[rows], alloc_config)
            else:
                granted = uniform_grants(len(rows), alloc_config)
            total_cost = sum_costs(granted, alloc_config)
            funded_in = REGION_CODE[Region.ORACLE if strategy == "oracle" else Region.UNIFORM]
            region = np.where(granted > 0, funded_in, REGION_CODE[Region.UNFUNDED])

        funded = np.flatnonzero(granted)
        served_rows, served = rows[funded], granted[funded]
        positives, found = serve_columns(
            sim_config, round_index, served, engagement_prob[served_rows],
            true_threshold[served_rows],
        )
        impressions[served_rows] += served
        positive_events[served_rows] += positives
        discovered[served_rows] = found
        if strategy == "model":  # each example with its item's engagement before the round
            label = found.astype(np.int64)
            history.append((features[funded], bucket_of(served, schema), label))
            inputs[served_rows, d:] = engagement_block(
                impressions[served_rows], positive_events[served_rows]
            )

        rounds, served_ids = np.full(len(funded), round_index), ids[served_rows].tolist()
        blocks.append(Observations(*frozen(rounds), served_ids, *frozen(served, positives, found)))
        block_regions.append(region[funded])
        round_metrics.append(
            RoundMetrics(
                round=round_index,
                candidates=len(rows),
                funded=len(funded),
                discovered=int(found.sum()),
                total_allocated=int(granted.sum()),
                total_cost=total_cost,
                region_counts=region_counts(region),
                untrained_buckets=untrained,
            )
        )

    observations = Observations.concat(blocks)
    region = np.concatenate(block_regions)
    return ExperimentReport(strategy, sim_config.seed, round_metrics, observations, region)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def write_latents(latents: LatentColumns, path: str | Path) -> None:
    """The ground-truth file (see core.LATENTS_FILE), kept apart from the
    corpus so that allocation code never reads it."""
    write_lines(latents, LATENTS_FILE, path)


def load_latents(path: str | Path) -> LatentColumns:
    """A latents file as columns, in file order (see core.read_lines)."""
    return read_lines(path, LATENTS_FILE)


def report_to_dict(report: ExperimentReport) -> dict:
    return {
        "strategy": report.strategy,
        "seed": report.seed,
        "total_discovered": report.total_discovered,
        "rounds": [asdict(m) for m in report.rounds],
    }


def write_report_csv(report: ExperimentReport, path: str | Path) -> None:
    """The report's rows, one line each, from its columns: `granted` is the
    observations' `served`."""
    obs = report.observations
    write_csv(
        ["round", "item_id", "region", "granted", "positive_events", "discovered"],
        zip(
            obs.round_index.tolist(),
            obs.item_ids,
            map(REGION_NAMES.__getitem__, report.region.tolist()),
            obs.served.tolist(),
            obs.positive_events.tolist(),
            obs.discovered.astype(np.int64).tolist(),
        ),
        path,
    )

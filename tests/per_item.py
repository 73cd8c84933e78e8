"""Per-item forms of the library's column code, for tests to check it against.

Each helper handles one item, record, curve or event at a time, in plain
Python and numpy; the library works on whole columns. The tests use them as
oracles, to turn files into records and to build column types from rows.
"""

import csv
import math
from collections import Counter
from operator import attrgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from coldstart_explore.core import (
    REGION_NAMES,
    BucketSchema,
    DataError,
    EngagementStats,
    ItemRecord,
    bucket_of,
    read_corpus,
)
from coldstart_explore.model import (
    _P_CEIL,
    _P_FLOOR,
    DiscoverabilityModel,
    ScoreOverflow,
    _check_features,
    _sigmoid,
)
from coldstart_explore.simulator import (
    ExperimentReport,
    ItemRoundRow,
    LatentColumns,
    LatentItem,
    Observation,
    Observations,
    RoundMetrics,
    write_latents,
)


def engagement_features(stats: EngagementStats) -> np.ndarray:
    """The engagement block of one item: [positive_rate, log1p(impressions)]."""
    return np.array([stats.positive_rate, math.log1p(stats.impressions)])


def item_feature_vector(record: ItemRecord) -> np.ndarray:
    """Model input for one item: static features followed by the engagement block."""
    return np.concatenate([record.features, engagement_features(record.engagement)])


def predict_curve(model: DiscoverabilityModel, features: np.ndarray) -> np.ndarray:
    """P(discoverable) at every bucket for one item; entry k equals predict(model, features, k).

    Features whose logits overflow, as in predict_curves, raise ScoreOverflow
    of row 0, and no warning escapes.
    """
    x = _check_features(model, features)
    with np.errstate(over="ignore", invalid="ignore"):
        base = float(x @ model.weights[: model.feature_dim]) + model.bias
        logits = base + model.weights[model.feature_dim :]
    if not np.isfinite(logits).all():
        raise ScoreOverflow(0)
    return np.clip(_sigmoid(logits), _P_FLOOR, _P_CEIL)


def monotone_curve(curve) -> np.ndarray:
    """Non-decreasing least-squares fit of one bucket curve (pool adjacent violators).

    Returns the input unchanged (as a copy) when it is already non-decreasing.
    Idempotent.
    """
    values = np.asarray(curve, dtype=float)
    if values.ndim != 1 or len(values) == 0:
        raise DataError("curve must be a non-empty vector")
    if not ((values >= 0.0) & (values <= 1.0)).all():  # also false for NaN
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


def merge_path(curve) -> tuple[int, ...]:
    """The merges monotone_curve makes for one curve: after each push, the
    depth of the stack after each of its merges, then -1. Curves of one path
    make the same merges in the same order."""
    totals: list[float] = []
    counts: list[int] = []
    path = []
    for v in np.asarray(curve, dtype=float).tolist():
        totals.append(v)
        counts.append(1)
        while len(totals) > 1 and totals[-2] / counts[-2] > totals[-1] / counts[-1]:
            totals[-2] += totals[-1]
            counts[-2] += counts[-1]
            del totals[-1], counts[-1]
            path.append(len(totals))
        path.append(-1)
    return tuple(path)


def load_corpus(path: str | Path) -> list[ItemRecord]:
    """The corpus file as records, in file order."""
    corpus = read_corpus(path)
    return list(
        map(
            ItemRecord,
            corpus.ids,
            corpus.features,
            map(EngagementStats, corpus.impressions.tolist(), corpus.positive_events.tolist()),
        )
    )


def latent_columns(latents: Sequence[LatentItem]) -> LatentColumns:
    """The latent items as columns, in their order."""
    n = len(latents)
    return LatentColumns(
        [lat.id for lat in latents],
        *(
            np.fromiter(map(attrgetter(name), latents), float, n)
            for name in ("quality", "true_threshold", "engagement_prob")
        ),
    )


def save_latents(latents: Sequence[LatentItem], path: str | Path) -> None:
    """Write latent items as the latents file."""
    write_latents(latent_columns(latents), path)


def report_of_rows(
    strategy: str,
    seed: int,
    rounds: Sequence[RoundMetrics],
    total_discovered: int,
    item_rows: Sequence[ItemRoundRow],
) -> ExperimentReport:
    """The report whose rows are the given ItemRoundRows, in their order.

    The report derives its total from the rounds, so total_discovered must
    be their sum."""
    observations = observations_of(
        [
            Observation(row.round, row.item_id, row.granted, row.positive_events, row.discovered)
            for row in item_rows
        ]
    )
    region = np.fromiter((REGION_NAMES.index(row.region) for row in item_rows), np.int8)
    report = ExperimentReport(strategy, seed, rounds, observations, region)
    assert report.total_discovered == total_discovered
    return report


def write_report_rows(report: ExperimentReport, path: str | Path) -> None:
    """The report CSV, written row by row from item_rows with csv.writer."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["round", "item_id", "region", "granted", "positive_events", "discovered"])
        for row in report.item_rows:
            writer.writerow(
                [
                    row.round,
                    row.item_id,
                    row.region,
                    row.granted,
                    row.positive_events,
                    int(row.discovered),
                ]
            )


def observations_of(rows: Sequence[Observation]) -> Observations:
    """The Observations whose rows are the given Observations, in their order:
    int64 and bool arrays, empty for no rows."""
    return Observations(
        np.fromiter((o.round for o in rows), np.int64, len(rows)),
        [o.item_id for o in rows],
        np.fromiter((o.served for o in rows), np.int64, len(rows)),
        np.fromiter((o.positive_events for o in rows), np.int64, len(rows)),
        np.fromiter((o.discovered for o in rows), bool, len(rows)),
    )


def replay_examples(
    observations: Sequence[Observation], records: Sequence[ItemRecord], schema: BucketSchema
) -> list[tuple[np.ndarray, int, int]]:
    """build_training_set one event at a time: the (features, bucket, label)
    of each event in (round, item id) order.

    The events' buckets are taken first, so a negative `served` is refused
    before anything else, then two records of one item; each event is then
    checked in order, and each item's engagement replayed in a dict.
    """
    events = sorted(observations, key=attrgetter("round", "item_id"))
    buckets = [bucket_of(o.served, schema) for o in events]
    ids = [rec.id for rec in records]
    repeated = [i for i, count in Counter(ids).items() if count > 1]
    if repeated:
        raise DataError(f"duplicate record for item {repeated[0]}")
    static = dict(zip(ids, (rec.features for rec in records)))
    running = {}
    examples = []
    previous = None
    for obs, bucket in zip(events, buckets):
        if obs.item_id not in static:
            raise DataError(f"observation references unknown item {obs.item_id}")
        if (obs.round, obs.item_id) == previous:
            raise DataError(f"two observations of item {obs.item_id} in round {obs.round}")
        if not 0 <= obs.positive_events <= obs.served:
            raise DataError(f"positive_events cannot exceed served or fall below 0: {obs}")
        previous = obs.round, obs.item_id
        impressions, positives = running.get(obs.item_id, (0, 0))
        stats = EngagementStats(impressions=impressions, positive_events=positives)
        features = np.concatenate([static[obs.item_id], engagement_features(stats)])
        examples.append((features, bucket, int(obs.discovered)))
        running[obs.item_id] = (impressions + obs.served, positives + obs.positive_events)
    return examples

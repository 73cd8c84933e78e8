"""Per-item forms of the library's column code, for tests to check it against.

Each helper handles one item, record or curve at a time, in plain Python and
numpy; the library works on whole columns. The tests use them as oracles and
to turn files into records.
"""

import csv
import math
from operator import attrgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from coldstart_explore.core import DataError, EngagementStats, ItemRecord, read_corpus
from coldstart_explore.simulator import (
    ExperimentReport,
    LatentColumns,
    LatentItem,
    write_latents,
)


def engagement_features(stats: EngagementStats) -> np.ndarray:
    """The engagement block of one item: [positive_rate, log1p(impressions)]."""
    return np.array([stats.positive_rate, math.log1p(stats.impressions)])


def item_feature_vector(record: ItemRecord) -> np.ndarray:
    """Model input for one item: static features followed by the engagement block."""
    return np.concatenate([record.features, engagement_features(record.engagement)])


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

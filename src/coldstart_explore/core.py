"""Shared domain types and file formats.

Immutable item, engagement, bucket and config records; the corpus and the
allocation plan as columns; the checks and the cost, bucket and model-input
functions the modules share; and the one reader and writer of each file kind,
with `FeatureRows`, which gathers a corpus file's feature rows as they are read.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np


class ConfigError(ValueError):
    """A configuration or schema invariant is violated."""


class DataError(ValueError):
    """Input data is malformed or inconsistent."""


class Region(str, Enum):
    """Funding outcome of a plan entry.

    High/Moderate/Low are the three discoverability regions. Unfunded marks
    items granted zero traffic. Uniform and Oracle label funded entries of the
    baseline strategies, which do not classify items into regions.
    """

    HIGH = "High"
    MODERATE = "Moderate"
    LOW = "Low"
    UNFUNDED = "Unfunded"
    UNIFORM = "Uniform"
    ORACLE = "Oracle"


def _check_engagement(impressions: int, positive_events: int) -> None:
    """DataError unless both counts are non-negative and the positive events
    are at most the impressions."""
    if impressions < 0 or positive_events < 0:
        raise DataError("engagement counts must be non-negative")
    if positive_events > impressions:
        raise DataError("positive_events cannot exceed impressions")


@dataclass(frozen=True, slots=True)
class EngagementStats:
    """Running engagement counters for one item."""

    impressions: int = 0
    positive_events: int = 0

    def __post_init__(self) -> None:
        _check_engagement(self.impressions, self.positive_events)

    @property
    def positive_rate(self) -> float:
        if self.impressions == 0:
            return 0.0
        return self.positive_events / self.impressions


def read_only(values, dtype=float) -> np.ndarray:
    """values as a read-only array of dtype, copied only when the caller can still write it.

    A read-only array is taken as it is; one that asarray built is frozen in place.
    """
    array = np.asarray(values, dtype=dtype)
    if array.flags.writeable:
        if array is values or array.base is not None:
            array = array.copy()
        array.setflags(write=False)
    return array


def frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, each made read-only in place: for arrays that only the
    caller holds, so that read_only takes them without a copy."""
    for array in arrays:
        array.setflags(write=False)
    return arrays


@dataclass(frozen=True, eq=False, slots=True)
class ItemRecord:
    """An item as the allocator sees it: static features plus observed engagement."""

    id: str
    features: np.ndarray
    engagement: EngagementStats = EngagementStats()
    impressions_received: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", read_only(self.features))
        if self.impressions_received < 0:
            raise DataError("impressions_received must be non-negative")


@dataclass(frozen=True, eq=False)
class Corpus:
    """Items as columns, one row per item: what a corpus file holds.

    `features` is the read-only (items, dimension) matrix of static features,
    `impressions` and `positive_events` the read-only int64 engagement counts.
    The holder checks that the columns line up; each count is checked where it
    enters, by the corpus reader per row and by EngagementStats per record.
    """

    ids: tuple[str, ...]
    features: np.ndarray
    impressions: np.ndarray
    positive_events: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "ids", tuple(self.ids))
        object.__setattr__(self, "features", read_only(self.features))
        for name in ("impressions", "positive_events"):
            object.__setattr__(self, name, read_only(getattr(self, name), np.int64))
        n = len(self.ids)
        if self.features.ndim != 2 or len(self.features) != n:
            raise DataError(f"features must be an ({n}, dimension) matrix: {self.features.shape}")
        if self.impressions.shape != (n,) or self.positive_events.shape != (n,):
            raise DataError(
                f"columns differ in length: {n} ids, impressions {self.impressions.shape}, "
                f"positive_events {self.positive_events.shape}"
            )

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def of(cls, records: Sequence[ItemRecord]) -> "Corpus":
        """The records as columns, in their order."""
        n = len(records)
        engagement = [rec.engagement for rec in records]
        return cls(
            tuple(rec.id for rec in records),
            static_matrix(records),
            np.fromiter((s.impressions for s in engagement), np.int64, n),
            np.fromiter((s.positive_events for s in engagement), np.int64, n),
        )


@dataclass(frozen=True)
class BucketSchema:
    """Discretization of exploration traffic into ordered buckets.

    Bucket k covers [edges[k], edges[k+1]); the last bucket is open-ended.
    `representative[k]` is the scalar traffic used when a bucket index must be
    mapped back to impressions.
    """

    edges: tuple[int, ...]
    representative: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(int(e) for e in self.edges))
        object.__setattr__(
            self, "representative", tuple(int(r) for r in self.representative)
        )

    @property
    def n_buckets(self) -> int:
        return len(self.edges)


def geometric_schema(
    max_cap: int = 1600, first_edge: int = 100, n_buckets: int = 6
) -> BucketSchema:
    """Default schema with doubling edges, e.g. 0, 100, 200, 400, 800, 1600.

    Interior representatives sit at the top of their bucket (one impression
    below the next edge) so that `bucket_of(representative[k]) == k`; the top
    bucket's representative is `max_cap`.
    """
    edges = [0] + [first_edge * 2**k for k in range(n_buckets - 1)]
    reps = [edges[k + 1] - 1 for k in range(n_buckets - 1)] + [max_cap]
    return BucketSchema(edges=tuple(edges), representative=tuple(reps))


@dataclass(frozen=True)
class AllocationConfig:
    """Budget, caps, confidence thresholds and cost model for one allocation round."""

    total_budget: int
    max_cost: float
    min_cap: int
    max_cap: int
    cf_high: float
    cf_low: float
    low_region_fraction: float
    unit_cost: float = 0.01
    #: Optional pluggable cost model; must be non-decreasing with cost_fn(0) == 0.
    #: When unset, cost is linear: unit_cost * traffic.
    cost_fn: Callable[[int], float] | None = None


DEFAULT_SCHEMA = geometric_schema()

DEFAULT_ALLOCATION = AllocationConfig(
    total_budget=200_000,
    max_cost=2500.0,
    min_cap=100,
    max_cap=1600,
    cf_high=0.6,
    cf_low=0.2,
    low_region_fraction=0.1,
    unit_cost=0.01,
)


@dataclass(frozen=True, slots=True)
class PlanEntry:
    item_id: str
    region: Region
    granted: int
    requested: int | None = None
    p_at_maxcap: float | None = None


#: The regions a plan's region column codes: code k is PLAN_REGIONS[k]. The
#: allocator's codes (High, Moderate, Low, Unfunded) are the first four.
PLAN_REGIONS = tuple(Region)
_REGION_CODE = {region: code for code, region in enumerate(PLAN_REGIONS)}
_UNFUNDED_CODE = _REGION_CODE[Region.UNFUNDED]

#: A plan's requested column holds this where an entry's requested is None.
NO_REQUEST = -1


def none_where(values: np.ndarray, missing: np.ndarray) -> list:
    """The values as a list of Python numbers, None where `missing` holds."""
    listed = values.astype(object)
    listed[missing] = None
    return listed.tolist()


@dataclass(frozen=True, eq=False, init=False, slots=True)
class AllocationPlan:
    """Per-item grants plus budget and cost accounting, held as columns.

    Row k of the read-only columns is one plan entry: `ids[k]`, its region
    code `region[k]` (indexing PLAN_REGIONS), `granted[k]`, `requested[k]`
    (NO_REQUEST where the entry has None) and `p_at_maxcap[k]` (NaN where the
    entry has None). The producers give their rows in id order; a plan built
    from entries keeps the entries' order. `entries`, one PlanEntry per row,
    is built on first read and kept.
    """

    ids: tuple[str, ...] = field(repr=False)
    region: np.ndarray = field(repr=False)
    granted: np.ndarray = field(repr=False)
    requested: np.ndarray = field(repr=False)
    p_at_maxcap: np.ndarray = field(repr=False)
    total_allocated: int
    total_cost: float
    _entries: tuple[PlanEntry, ...] | None = field(default=None, repr=False)

    def __init__(
        self, entries: Iterable[PlanEntry], total_allocated: int, total_cost: float
    ) -> None:
        entries = tuple(entries)
        self._hold(
            [e.item_id for e in entries],
            [_REGION_CODE[e.region] for e in entries],
            [e.granted for e in entries],
            [NO_REQUEST if e.requested is None else e.requested for e in entries],
            [math.nan if e.p_at_maxcap is None else e.p_at_maxcap for e in entries],
            total_allocated,
            total_cost,
        )

    @classmethod
    def of_columns(
        cls,
        ids: Sequence[str],
        region: np.ndarray,
        granted: np.ndarray,
        requested: np.ndarray,
        p_at_maxcap: np.ndarray,
        total_allocated: int,
        total_cost: float,
    ) -> "AllocationPlan":
        """The plan whose rows are the given columns, with no PlanEntry built."""
        plan = cls.__new__(cls)
        plan._hold(ids, region, granted, requested, p_at_maxcap, total_allocated, total_cost)
        return plan

    def _hold(self, ids, region, granted, requested, p_at_maxcap, total_allocated, total_cost):
        columns = {"ids": tuple(ids), "granted": granted, "requested": requested}
        # An int64 column would truncate a fractional grant or request.
        for name in ("granted", "requested"):
            column = np.asarray(columns[name])
            if column.size and column.dtype.kind not in "iu":
                raise DataError(f"plan {name} must be integers, not {column.dtype}")
            columns[name] = read_only(column, np.int64)
        columns.update(region=read_only(region, np.int8), p_at_maxcap=read_only(p_at_maxcap))
        n = len(columns["ids"])
        for name, column in columns.items():
            if len(column) != n:
                raise DataError(f"plan columns differ in length: {n} ids, {len(column)} {name}")
        columns.update(total_allocated=total_allocated, total_cost=total_cost, _entries=None)
        for name, value in columns.items():
            object.__setattr__(self, name, value)

    @property
    def entries(self) -> tuple[PlanEntry, ...]:
        """One PlanEntry per row, in row order: built on first read, then kept."""
        if self._entries is None:
            entries = map(
                PlanEntry,
                self.ids,
                map(PLAN_REGIONS.__getitem__, self.region.tolist()),
                self.granted.tolist(),
                none_where(self.requested, self.requested == NO_REQUEST),
                none_where(self.p_at_maxcap, np.isnan(self.p_at_maxcap)),
            )
            object.__setattr__(self, "_entries", tuple(entries))
        return self._entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, AllocationPlan):
            return NotImplemented
        return (
            self.ids == other.ids
            and self.total_allocated == other.total_allocated
            and self.total_cost == other.total_cost
            and np.array_equal(self.region, other.region)
            and np.array_equal(self.granted, other.granted)
            and np.array_equal(self.requested, other.requested)
            and np.array_equal(self.p_at_maxcap, other.p_at_maxcap, equal_nan=True)
        )


def bucket_of(traffic, schema: BucketSchema):
    """Bucket index for a traffic level, or an array of them for an array of
    levels; beyond the last edge clamps to the last bucket."""
    traffic = np.asarray(traffic)
    if not (traffic >= 0).all():  # also true for NaN
        raise DataError("traffic must be non-negative")
    bucket = np.minimum(
        np.searchsorted(schema.edges, traffic, side="right") - 1, schema.n_buckets - 1
    )
    return bucket if bucket.ndim else int(bucket)


def cost_of(traffic: int, config: AllocationConfig) -> float:
    """Exploration cost of a traffic level under the config's cost model."""
    if not traffic >= 0:  # also true for NaN
        raise DataError("traffic must be non-negative")
    if config.cost_fn is not None:
        return float(config.cost_fn(traffic))
    return config.unit_cost * traffic


def costs_of(granted: np.ndarray, config: AllocationConfig) -> list[float]:
    """cost_of of each grant of an array, in array order."""
    if config.cost_fn is None:
        return (config.unit_cost * granted).tolist()
    return [cost_of(g, config) for g in granted.tolist()]


def sum_costs(granted: np.ndarray, config: AllocationConfig) -> float:
    """Total cost_of of an array of grants, a float even for none: built-in
    sum() in array order.

    Callers pass the grants in id order, the order a per-item
    sum(cost_of(...)) over the plan entries adds them. From Python 3.12 on,
    sum() of floats is compensated, so np.sum would not match it.
    """
    return sum(costs_of(granted, config), 0.0)


def id_order(ids: Sequence[str], what: str) -> list[int]:
    """Indices of the ids in Python's str order; DataError naming `what` if an
    id repeats.

    A numpy <U array of the ids would drop trailing NULs and so could order
    them differently.
    """
    if len(set(ids)) != len(ids):
        raise DataError(f"duplicate item ids in {what}")
    return sorted(range(len(ids)), key=ids.__getitem__)


def validate_config(config: AllocationConfig, schema: BucketSchema) -> AllocationConfig:
    """Check every config and schema invariant; raise ConfigError naming the first violation."""
    if schema.n_buckets < 3:
        raise ConfigError("bucket count must be at least 3")
    if len(schema.representative) != schema.n_buckets:
        raise ConfigError("representative count must match bucket count")
    if schema.edges[0] != 0:
        raise ConfigError("first bucket edge must be 0")
    for lo, hi in zip(schema.edges, schema.edges[1:]):
        if hi <= lo:
            raise ConfigError("bucket edges must be strictly increasing")
    for k in range(schema.n_buckets - 1):
        rep = schema.representative[k]
        if not schema.edges[k] <= rep < schema.edges[k + 1]:
            raise ConfigError(f"representative of bucket {k} lies outside the bucket")
    if schema.representative[-1] < schema.edges[-1]:
        raise ConfigError("top bucket representative below its lower edge")
    validate_allocation_config(config)
    if config.max_cap != schema.representative[-1]:
        raise ConfigError("MaxCap mismatch with top bucket representative")
    return config


def validate_allocation_config(config: AllocationConfig) -> AllocationConfig:
    """The checks of validate_config that need no bucket schema."""
    if not (0.0 < config.cf_low < config.cf_high < 1.0):
        raise ConfigError("cf ordering: require 0 < cf_low < cf_high < 1")
    if config.min_cap <= 0:
        raise ConfigError("MinCap must be positive")
    if config.max_cap < config.min_cap:
        raise ConfigError("MaxCap must be at least MinCap")
    # total_budget 0 is allowed as a degenerate dry run yielding an empty plan.
    if config.total_budget < 0:
        raise ConfigError("total budget must be non-negative")
    if not (math.isfinite(config.max_cost) and config.max_cost > 0):
        raise ConfigError("max cost must be finite and positive")
    if not 0.0 <= config.low_region_fraction <= 1.0:
        raise ConfigError("low region fraction must lie in [0, 1]")
    if not (math.isfinite(config.unit_cost) and config.unit_cost >= 0):
        raise ConfigError("unit cost must be finite and non-negative")
    if config.cost_fn is not None and config.cost_fn(0) != 0:
        raise ConfigError("cost function must be zero at zero traffic")
    return config


def verify_plan(plan: AllocationPlan, config: AllocationConfig) -> None:
    """Re-check all plan invariants from the plan and config alone, one
    entry per item among them.

    Raises DataError on the first violation: the first row that breaks a
    row's invariant, with the refusal a loop over the entries would make
    first, and after the rows the totals. Used by tests and by callers that
    receive plans across a trust boundary.
    """
    ids, granted = plan.ids, plan.granted
    funded, unfunded = granted != 0, plan.region == _UNFUNDED_CODE
    # np.select takes each row's first failing check, in the order a loop
    # over the entries checks one; the last is cost_of's refusal.
    problem = np.select(
        [
            _repeats(ids),
            ~funded & ~unfunded,
            funded & unfunded,
            funded & ((granted < config.min_cap) | (granted > config.max_cap)),
            granted < 0,
        ],
        [1, 2, 3, 4, 5],
    )
    bad = np.flatnonzero(problem)
    stop = int(bad[0]) if len(bad) else len(ids)
    # A cost function sees the grants a loop over the entries passes it, in order.
    costs = costs_of(granted[:stop], config)
    if len(bad):
        item_id = ids[stop]
        raise DataError(
            (
                f"duplicate plan entry for item {item_id}",
                f"zero grant must be Unfunded: {item_id}",
                f"Unfunded entry with traffic: {item_id}",
                f"grant outside [MinCap, MaxCap]: {item_id} -> {granted[stop]}",
                "traffic must be non-negative",
            )[problem[stop] - 1]
        )
    allocated = int(granted.sum())
    # cumsum adds one cost after another, as the loop's running total does.
    cost = float(np.cumsum(costs)[-1]) if costs else 0.0
    if allocated != plan.total_allocated:
        raise DataError("total_allocated does not match entries")
    if not math.isclose(cost, plan.total_cost, rel_tol=1e-9, abs_tol=1e-9):
        raise DataError("total_cost does not match entries")
    if allocated > config.total_budget:
        raise DataError("plan exceeds traffic budget")
    if cost > config.max_cost + 1e-9:
        raise DataError("plan exceeds cost budget")


def _repeats(ids: Sequence[str]) -> np.ndarray:
    """Row k: whether ids[k] is also an earlier row's id."""
    repeated = np.zeros(len(ids), dtype=bool)
    if len(set(ids)) != len(ids):
        seen = set()
        for k, item_id in enumerate(ids):
            repeated[k] = item_id in seen
            seen.add(item_id)
    return repeated


def engagement_block(impressions: np.ndarray, positive_events: np.ndarray) -> np.ndarray:
    """The engagement block of many items from their integer count columns.

    Row k is [positive_rate, log1p(impressions)] of an item with those
    counts, as EngagementStats gives the rate: the float64 quotient of two
    integers is the same correctly rounded value as Python's, and log1p is
    math.log1p, whose last bit np.log1p need not match.
    """
    rate = np.zeros(len(impressions))
    np.divide(positive_events, impressions, out=rate, where=impressions > 0)
    log_impressions = np.fromiter(map(math.log1p, impressions), float, len(impressions))
    return np.column_stack([rate, log_impressions])


def static_matrix(records: Sequence[ItemRecord]) -> np.ndarray:
    """The static features of many items, one row each."""
    shapes = {rec.features.shape for rec in records}
    if len(shapes) > 1:
        raise DataError(f"feature dimension mismatch across items: {sorted(shapes)}")
    if not records:
        return np.empty((0, 0))
    return np.array([rec.features for rec in records])


def model_inputs(
    static: np.ndarray, impressions: np.ndarray, positive_events: np.ndarray
) -> np.ndarray:
    """Model inputs from columns: each row's static features, then its engagement block."""
    return np.hstack([static, engagement_block(impressions, positive_events)])


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def _reject_constant(token: str) -> float:
    raise ValueError(f"{token} is not a finite number")


# One decoder for every JSON file and one encoder for JSON documents. The
# decoder refuses the NaN, Infinity and -Infinity tokens json accepts by
# default; the writers refuse non-finite floats, so no file is written that the
# decoder would reject.
_FINITE_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
_JSON_ENCODER = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False)

T = TypeVar("T")


def read_json(path: str | Path) -> object:
    """The JSON document in a file; DataError naming `path` if it is not finite JSON."""
    try:
        return _FINITE_DECODER.decode(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise DataError(f"{path}: bad JSON document: {exc}") from exc


def write_json(document: object, path: str | Path) -> None:
    """What json.dumps(document, indent=2, sort_keys=True) writes, plus a newline."""
    Path(path).write_text(_JSON_ENCODER.encode(document) + "\n", encoding="utf-8")


def write_csv(header: Sequence[str], rows: Iterable[Sequence], path: str | Path) -> None:
    """A header line, then one line per row; None is an empty field, a float its repr."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_jsonl(path: str | Path, parse: Callable[[dict], T], what: str) -> list[T]:
    """parse() of every non-blank line of a JSON-lines file, in file order.

    A line that is not finite JSON, or that parse() refuses with KeyError,
    TypeError, ValueError or OverflowError (int() of a 1e400 literal, which
    decodes to inf), raises DataError naming `path:line` and `what`.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rows.append(parse(_FINITE_DECODER.decode(line)))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise DataError(f"{path}:{lineno}: bad {what}: {exc}") from exc
    return rows


#: Rows a JSON-lines writer formats and joins at a time, so that no writer
#: holds a whole matrix as Python values.
WRITE_BLOCK_ROWS = 4096


class _JsonNull:
    def __repr__(self) -> str:
        return "null"


JSON_NULL = _JsonNull()  # what write_jsonl_columns writes as null


def write_jsonl_columns(columns: dict[str, Sequence], path: str | Path) -> None:
    """Line for line what json.dumps(row, sort_keys=True) writes for each row.

    One template, keys sorted, formats each row. json writes a finite float
    with float.__repr__ and an int with int.__repr__, so an array column (of
    numbers, matrix rows or JSON_NULL) goes in by %r; any other column holds
    strings, encoded by json's encode_basestring_ascii. A NaN or infinity in a
    float column, or a non-string in a string column, raises DataError before
    the file is opened.
    """
    fields, values = [], []
    for name in sorted(columns):
        column = columns[name]
        if not isinstance(column, np.ndarray):
            try:
                column = list(map(encode_basestring_ascii, column))
            except TypeError as exc:
                raise DataError(f"{path}: {name} must hold strings: {exc}") from exc
        elif column.dtype.kind == "f" and not np.isfinite(column).all():
            raise DataError(f"{path}: {name} holds a non-finite value, which JSON cannot")
        fields.append(f'"{name}": %{"r" if isinstance(column, np.ndarray) else "s"}')
        values.append(column)
    template = "{" + ", ".join(fields) + "}\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for start in range(0, len(values[0]), WRITE_BLOCK_ROWS):
            block = (column[start : start + WRITE_BLOCK_ROWS] for column in values)
            rows = zip(*(b.tolist() if isinstance(b, np.ndarray) else b for b in block))
            fh.write("".join(map(template.__mod__, rows)))


_NUMBER_TYPES = frozenset((int, float))


class FeatureRows:
    """Feature rows of a corpus file, gathered into one flat buffer.

    Every row must be a flat list of numbers, ints or floats but no bools, as
    long as the first row's; append raises TypeError or ValueError otherwise,
    which read_jsonl reports with the row's `path:line`.
    """

    def __init__(self) -> None:
        self.values = array("d")
        self.dim: int | None = None
        self.rows = 0

    def append(self, values) -> None:
        if type(values) is not list:
            raise TypeError(f"features must be a list, not {type(values).__name__}")
        self.dim = len(values) if self.dim is None else self.dim
        if len(values) != self.dim:
            raise ValueError(f"feature dimension {len(values)}, earlier rows have {self.dim}")
        if not _NUMBER_TYPES.issuperset(map(type, values)):
            bad = next(v for v in values if type(v) not in _NUMBER_TYPES)
            raise TypeError(f"features must be a flat list of numbers; {bad!r} is not one")
        self.values.extend(values)
        self.rows += 1

    def matrix(self) -> np.ndarray:
        """The rows as a read-only (rows, dimension) matrix over the buffer, not a copy."""
        matrix = np.frombuffer(self.values).reshape(self.rows, self.dim or 0)
        matrix.setflags(write=False)  # no one else holds the buffer
        return matrix


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    """The corpus file: JSON lines of id, features, impressions, positive_events."""
    names = ("id", "features", "impressions", "positive_events")
    columns = (corpus.ids, corpus.features, corpus.impressions, corpus.positive_events)
    write_jsonl_columns(dict(zip(names, columns)), path)


def read_corpus(path: str | Path) -> Corpus:
    """A corpus file as columns, in file order.

    A row whose id is not a string, whose features are not a flat list of
    finite numbers as long as the first row's, or whose counts are not
    non-negative integers with positive_events at most impressions raises
    DataError naming `path:line`.
    """
    ids: list[str] = []
    features = FeatureRows()
    impressions_column, positives_column = array("q"), array("q")

    def append(row: dict) -> None:
        item_id = checked(row["id"], STRING, "id")
        impressions, positive_events = row["impressions"], row["positive_events"]
        for name, count in (("impressions", impressions), ("positive_events", positive_events)):
            if type(count) is not int or count < 0:
                raise ValueError(f"{name} must be a non-negative integer, not {count!r}")
        _check_engagement(impressions, positive_events)
        features.append(row["features"])
        # The decoder reads 1e400 as inf. A finite sum means finite features;
        # an overflowing sum of finite ones is looked at value by value.
        if not math.isfinite(sum(row["features"])):
            for value in row["features"]:
                if not math.isfinite(value):
                    raise ValueError(f"feature {value!r} is not finite")
        ids.append(item_id)
        impressions_column.append(impressions)
        positives_column.append(positive_events)

    read_jsonl(path, append, "corpus record")
    # No one else holds the buffers, so Corpus takes the frozen counts uncopied.
    counts = (np.frombuffer(c, dtype=np.int64) for c in (impressions_column, positives_column))
    return Corpus(ids, features.matrix(), *frozen(*counts))


def save_corpus(records: Iterable[ItemRecord], path: str | Path) -> None:
    """Write items as the corpus file (see write_corpus)."""
    write_corpus(Corpus.of(list(records)), path)


def config_to_dict(config: AllocationConfig, schema: BucketSchema) -> dict:
    """Flat key-value snapshot of a config plus its schema.

    A cost function has no snapshot: a config with cost_fn set raises
    ConfigError rather than being written down as linear cost.
    """
    if config.cost_fn is not None:
        raise ConfigError("a config with a cost function has no key-value snapshot")
    return {
        "total_budget": config.total_budget,
        "max_cost": config.max_cost,
        "unit_cost": config.unit_cost,
        "min_cap": config.min_cap,
        "max_cap": config.max_cap,
        "cf_high": config.cf_high,
        "cf_low": config.cf_low,
        "low_region_fraction": config.low_region_fraction,
        "bucket_edges": list(schema.edges),
        "bucket_representatives": list(schema.representative),
    }


#: The types a loader accepts for an integer, a float and a string value. bool
#: is a subclass of int, so a type test, not isinstance, keeps true and false out.
INTEGER = (int,)
NUMBER = (int, float)
STRING = (str,)
_KINDS = {INTEGER: "an integer", NUMBER: "a number", STRING: "a string"}


def checked(value, kinds: tuple[type, ...], what: str):
    """value if its type is one of kinds; ValueError naming `what` otherwise."""
    if type(value) not in kinds:
        raise ValueError(f"{what} must be {_KINDS[kinds]}, not {value!r}")
    return value


def checked_list(values, kinds: tuple[type, ...], what: str) -> tuple:
    """The values of a list as a tuple, each checked as checked() does."""
    if type(values) not in (list, tuple):
        raise ValueError(f"{what} must be a list, not {values!r}")
    return tuple(checked(v, kinds, f"each of {what}") for v in values)


def config_from_dict(raw: dict) -> tuple[AllocationConfig, BucketSchema]:
    """(config, schema) from a flat dict; missing keys fall back to defaults.

    Budget, caps and bucket edges must be integers, the other values integers
    or floats. Any other value, a bool or a string included, raises
    ConfigError naming its key.
    """
    base = config_to_dict(DEFAULT_ALLOCATION, DEFAULT_SCHEMA)
    unknown = set(raw) - set(base)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    base.update(raw)

    def number(key: str) -> float:
        return float(checked(base[key], NUMBER, key))

    try:
        edges = checked_list(base["bucket_edges"], INTEGER, "bucket_edges")
        max_cap = checked(base["max_cap"], INTEGER, "max_cap")
        if "bucket_edges" in raw and "bucket_representatives" not in raw:
            # Edges changed without explicit representatives: re-derive them.
            reps = tuple(edges[k + 1] - 1 for k in range(len(edges) - 1)) + (max_cap,)
        else:
            reps = checked_list(
                base["bucket_representatives"], INTEGER, "bucket_representatives"
            )
        config = AllocationConfig(
            total_budget=checked(base["total_budget"], INTEGER, "total_budget"),
            max_cost=number("max_cost"),
            min_cap=checked(base["min_cap"], INTEGER, "min_cap"),
            max_cap=max_cap,
            cf_high=number("cf_high"),
            cf_low=number("cf_low"),
            low_region_fraction=number("low_region_fraction"),
            unit_cost=number("unit_cost"),
        )
    except (ValueError, OverflowError) as exc:  # float() of an integer past float range
        raise ConfigError(f"bad config value: {exc}") from exc
    return config, BucketSchema(edges=edges, representative=reps)

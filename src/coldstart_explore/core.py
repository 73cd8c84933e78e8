"""Shared domain types and file formats.

Immutable item, engagement, bucket and config records; the corpus, ground truth and
allocation plan as columns, with `Rows` for their row views; the checks and the cost,
bucket and model-input functions the modules share; and the one reader and writer of
each file kind, with each JSON-lines format declared once as a `LinesFormat`.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from collections import deque
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from functools import cached_property
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence, TypeVar

import numpy as np


class ConfigError(ValueError):
    """A configuration or schema invariant is violated."""


class DataError(ValueError):
    """Input data is malformed or inconsistent."""


#: The types a loader or a config accepts for an integer, a float and a string
#: value. bool is a subclass of int, so a type test, not isinstance, keeps true
#: and false out; numpy scalars are refused too.
INTEGER = (int,)
NUMBER = (int, float)
STRING = (str,)
_KINDS = {INTEGER: "an integer", NUMBER: "a number", STRING: "a string"}


def checked(value, kinds: tuple[type, ...], what: str, error=ValueError):
    """value if its type is one of kinds; `error` naming `what` otherwise."""
    if type(value) not in kinds:
        raise error(f"{what} must be {_KINDS[kinds]}, not {value!r}")
    return value


def checked_list(values, kinds: tuple[type, ...], what: str, error=ValueError) -> tuple:
    """The values of a list or tuple as a tuple, each checked as checked() does."""
    if type(values) not in (list, tuple):
        raise error(f"{what} must be a list, not {values!r}")
    return tuple(checked(v, kinds, f"each of {what}", error) for v in values)


def check_fields(config, kinds: tuple[type, ...], names: Sequence[str]) -> None:
    """ConfigError naming the first of the config's fields `names` not of a type in kinds."""
    for name in names:
        checked(getattr(config, name), kinds, name, ConfigError)


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


@dataclass(frozen=True, slots=True)
class EngagementStats:
    """Running engagement counters for one item: each an int alone, not a
    bool, a float or a numpy integer."""

    impressions: int = 0
    positive_events: int = 0

    def __post_init__(self) -> None:
        for name in ("impressions", "positive_events"):
            checked(getattr(self, name), INTEGER, name, DataError)
        if self.impressions < 0 or self.positive_events < 0:
            raise DataError("engagement counts must be non-negative")
        if self.positive_events > self.impressions:
            raise DataError("positive_events cannot exceed impressions")

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


def string_ids(ids: Iterable, what: str) -> tuple[str, ...]:
    """The ids as a tuple; DataError naming `what` and the first row whose id is
    not a str, or a value that is no sequence. str.join makes the one type test, in C."""
    try:
        ids = tuple(ids)
    except TypeError:
        raise DataError(f"{what} must be a sequence of str, not a {type(ids).__name__}") from None
    try:
        "".join(ids)
    except TypeError:
        k = next(k for k, item_id in enumerate(ids) if not isinstance(item_id, str))
        raise DataError(f"{what} must be a sequence of str, not row {k}'s {ids[k]!r}") from None
    return ids


class Column(NamedTuple):
    """A table column: a numpy array of `dtype`'s kind (signed integer, float or
    bool) and `ndim`, kept read-only as `dtype`; with no dtype, str ids, kept as a tuple."""

    dtype: type | None
    ndim: int = 1


#: The columns the tables declare: string ids, an int64 and a float column,
#: a float matrix and an int8 column of region codes.
IDS = Column(None)
INTS = Column(np.int64)
FLOATS = Column(float)
MATRIX = Column(float, 2)
CODES = Column(np.int8)


def take_columns(table: str, declared: dict, given: dict, refuse=lambda **columns: None) -> dict:
    """The `declared` columns of `given` by the one column rule of every table: an
    IDS column a sequence of str (see string_ids), any other a numpy array of its
    dtype's kind and ndim, or DataError "<table> column <name> must be a <n>-D
    array of <dtype>'s kind, not <what it got>"; all of one length. `refuse`, the
    table's value refusals, then sees the columns by name, before any cast; last
    read_only freezes each array as its dtype, copying one the caller can write."""
    taken = {}
    for name, column in declared.items():
        value = given[name]
        if column is IDS:
            taken[name] = string_ids(value, f"{table} column {name}")
            continue
        kind = np.dtype(column.dtype)
        if not isinstance(value, np.ndarray):
            got = f"a {type(value).__name__}"
        elif value.ndim != column.ndim or value.dtype.kind != kind.kind:
            got = f"a {value.ndim}-D {value.dtype} array"
        else:
            taken[name] = value
            continue
        must = f"a {column.ndim}-D array of {kind.name}'s kind"
        raise DataError(f"{table} column {name} must be {must}, not {got}")
    first, n = next((name, len(value)) for name, value in taken.items())
    for name, value in taken.items():
        if len(value) != n:
            raise DataError(f"{table} columns differ in length: {n} {first}, {len(value)} {name}")
    refuse(**taken)
    return {k: taken[k] if c is IDS else read_only(taken[k], c.dtype) for k, c in declared.items()}


def refuse_rows(row: Callable[[int], str], *refusals: tuple[str, np.ndarray]) -> None:
    """DataError "<message> <row(k)>" for the first row k a (message, mask) refusal's
    mask holds, with the first such refusal's message; row(k) reads "for item a"."""
    bad = np.logical_or.reduce([mask for _, mask in refusals])
    if bad.any():
        k = int(np.argmax(bad))
        message = next(message for message, mask in refusals if mask[k])
        raise DataError(f"{message} {row(k)}")


def int_column(values: list) -> np.ndarray:
    """Python ints as an int64 array, empty for none; past int64, one the rule refuses."""
    return np.array(values) if values else np.zeros(0, dtype=np.int64)


def row_views(row_type: type, *columns: Iterable) -> tuple:
    """One row_type per row of the columns, which are its fields' values in
    field order: the rows of a slotted dataclass whose columns are already
    checked, built without running its __init__ or __post_init__.

    object.__new__ makes every row in one pass; then each field's slot
    descriptor sets it in one pass per column, which a frozen dataclass
    allows, as it guards only __setattr__.
    """
    rows = tuple(map(object.__new__, repeat(row_type, len(columns[0]))))
    for f, column in zip(fields(row_type), columns, strict=True):
        deque(map(getattr(row_type, f.name).__set__, rows, column), maxlen=0)
    return rows


def columns_equal(self, other) -> bool:
    """== of a dataclass that holds columns: every field equal, an array by
    value with NaN equal to NaN."""
    if not isinstance(other, type(self)):
        return NotImplemented
    pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
    return all(
        np.array_equal(a, b, equal_nan=True) if isinstance(a, np.ndarray) else a == b
        for a, b in pairs
    )


T = TypeVar("T")


class Rows(Sequence[T]):
    """A dataclass of columns that is also the sequence of its rows, which a
    subclass builds in its `rows` cached property on first read. `len` is the
    first column's. `what` and `row` name the table and its row type for check()."""

    def __len__(self) -> int:
        return len(getattr(self, fields(self)[0].name))

    def __getitem__(self, index):
        return self.rows[index]

    def __iter__(self):
        return iter(self.rows)

    @classmethod
    def concat(cls, tables: Sequence[Rows]):
        """The rows of one or more tables of this type, one table after another, as
        one table; its array columns are frozen, so the new table keeps them uncopied."""
        joined = (
            frozen(np.concatenate(c))[0] if isinstance(c[0], np.ndarray) else tuple(chain(*c))
            for c in ([getattr(table, f.name) for table in tables] for f in fields(cls))
        )
        return cls(*joined)

    @classmethod
    def check(cls, value, taker: str):
        """value if it is such a table; TypeError naming `taker` and value's type otherwise."""
        if isinstance(value, cls):
            return value
        raise TypeError(
            f"{taker} takes {cls.what}, not a {type(value).__name__}; "
            f"a list of {cls.row} rows is no longer accepted"
        )


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
class Corpus(Rows[ItemRecord]):
    """Items as columns, one row per item: what a corpus file holds.

    `features` is the (items, dimension) matrix of static features, and
    `impressions` and `positive_events` the engagement counts (see COLUMNS and
    take_columns). A negative count, or more positive events than impressions,
    raises DataError naming the first such item. As a sequence it is its rows.
    """

    ids: tuple[str, ...]
    features: np.ndarray
    impressions: np.ndarray
    positive_events: np.ndarray

    COLUMNS = dict(ids=IDS, features=MATRIX, impressions=INTS, positive_events=INTS)

    def __post_init__(self) -> None:
        vars(self).update(take_columns("corpus", self.COLUMNS, vars(self), _refuse_counts))

    @cached_property
    def rows(self) -> tuple[ItemRecord, ...]:
        """One ItemRecord per row, its features a read-only row of the one matrix."""
        counts = (c.tolist() for c in (self.impressions, self.positive_events))
        engagement = row_views(EngagementStats, *counts)
        return row_views(ItemRecord, self.ids, self.features, engagement, repeat(0, len(self)))

    @classmethod
    def of(cls, records: "Corpus | Sequence[ItemRecord]") -> "Corpus":
        """The records as columns, in their order; a Corpus is returned as it is."""
        if isinstance(records, Corpus):
            return records
        engagement = [rec.engagement for rec in records]
        return cls(
            tuple(rec.id for rec in records),
            static_matrix(records),
            int_column([s.impressions for s in engagement]),
            int_column([s.positive_events for s in engagement]),
        )


def _refuse_counts(ids, features, impressions, positive_events) -> None:
    """The corpus's value refusals: EngagementStats' of each item's counts."""
    refuse_rows(
        lambda k: f"for item {ids[k]}",
        ("engagement counts must be non-negative", (impressions < 0) | (positive_events < 0)),
        ("positive_events cannot exceed impressions", positive_events > impressions),
    )


@dataclass(frozen=True, slots=True)
class LatentItem:
    """Ground truth the allocator must not see."""

    id: str
    quality: float
    true_threshold: float  # impressions; 0 = inherently discoverable, inf = never
    engagement_prob: float


@dataclass(frozen=True, eq=False)
class LatentColumns(Rows[LatentItem]):
    """Ground truth as columns, one row per item: what a latents file holds.

    The columns are declared in COLUMNS; its rows are LatentItems. A quality
    must be finite, a threshold >= 0 (inf for never) and an engagement_prob in
    [0, 1]: anything else raises DataError naming the first such item.
    """

    ids: tuple[str, ...]
    quality: np.ndarray
    true_threshold: np.ndarray  # inf = never discoverable
    engagement_prob: np.ndarray

    what, row = "a LatentColumns, the columns generate_corpus returns", "LatentItem"
    COLUMNS = dict(ids=IDS, quality=FLOATS, true_threshold=FLOATS, engagement_prob=FLOATS)

    def __post_init__(self) -> None:
        vars(self).update(take_columns("latent", self.COLUMNS, vars(self), _refuse_latents))

    @cached_property
    def rows(self) -> tuple[LatentItem, ...]:
        """One LatentItem per row, in row order: built on first read, then kept."""
        columns = (c.tolist() for c in (self.quality, self.true_threshold, self.engagement_prob))
        return row_views(LatentItem, self.ids, *columns)

    __eq__ = columns_equal


def _refuse_latents(ids, quality, true_threshold, engagement_prob) -> None:
    """The ground truth's value refusals, naming the first such item."""
    refuse_rows(
        lambda k: f"for item {ids[k]}",
        ("non-finite quality", ~np.isfinite(quality)),
        ("NaN threshold", np.isnan(true_threshold)),
        ("negative threshold", true_threshold < 0.0),
        ("engagement_prob outside [0, 1]", ~((engagement_prob >= 0) & (engagement_prob <= 1))),
    )


@dataclass(frozen=True)
class BucketSchema:
    """Discretization of exploration traffic into ordered buckets.

    Bucket k covers [edges[k], edges[k+1]); the last bucket is open-ended.
    `representative[k]` is the scalar traffic used when a bucket index must be
    mapped back to impressions. Both are lists or tuples of ints, kept as
    tuples; any other value raises ConfigError naming its field.
    """

    edges: tuple[int, ...]
    representative: tuple[int, ...]

    def __post_init__(self) -> None:
        # Integers alone, as a config file's are: 100.7 is refused, not cut to 100.
        for name in ("edges", "representative"):
            values = checked_list(getattr(self, name), INTEGER, name, ConfigError)
            object.__setattr__(self, name, values)

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


#: The regions a plan's or a report's region column codes: code k is
#: PLAN_REGIONS[k], named REGION_NAMES[k], and REGION_CODE maps a region to
#: its code. The allocator's codes (High, Moderate, Low, Unfunded) are the
#: first four.
PLAN_REGIONS = tuple(Region)
REGION_NAMES = tuple(region.value for region in PLAN_REGIONS)
REGION_CODE = {region: code for code, region in enumerate(PLAN_REGIONS)}


def refuse_region_codes(ids: Sequence[str], region: np.ndarray, **other_columns) -> None:
    """The value refusal of a plan's or a report's region column: DataError
    naming the first item whose code indexes no PLAN_REGIONS entry."""
    outside = (region < 0) | (region >= len(PLAN_REGIONS))
    message = f"region code outside range({len(PLAN_REGIONS)})"
    refuse_rows(lambda k: f"for item {ids[k]}", (message, outside))


def region_counts(codes: np.ndarray) -> dict[str, int]:
    """The rows of each region a region column holds, by name, in PLAN_REGIONS order."""
    counts = np.bincount(codes, minlength=len(PLAN_REGIONS)).tolist()
    return {name: count for name, count in zip(REGION_NAMES, counts) if count}


#: A plan's requested column holds this where an entry's requested is None.
NO_REQUEST = -1


def none_where(values: np.ndarray, missing: np.ndarray) -> list:
    """The values as a list of Python numbers, None where `missing` holds."""
    listed = values.astype(object)
    listed[missing] = None
    return listed.tolist()


@dataclass(frozen=True, eq=False, init=False)
class AllocationPlan:
    """Per-item grants plus budget and cost accounting, held as columns.

    Row k of the read-only columns is one plan entry: `ids[k]`, its region
    code `region[k]` (indexing PLAN_REGIONS), `granted[k]`, `requested[k]`
    (NO_REQUEST where the entry has None) and `p_at_maxcap[k]` (NaN where the
    entry has None). The producers give their rows in id order; a plan built
    from entries keeps the entries' order.
    """

    ids: tuple[str, ...] = field(repr=False)
    region: np.ndarray = field(repr=False)
    granted: np.ndarray = field(repr=False)
    requested: np.ndarray = field(repr=False)
    p_at_maxcap: np.ndarray = field(repr=False)
    total_allocated: int
    total_cost: float

    COLUMNS = dict(ids=IDS, region=CODES, granted=INTS, requested=INTS, p_at_maxcap=FLOATS)

    def __init__(
        self, entries: Iterable[PlanEntry], total_allocated: int, total_cost: float
    ) -> None:
        entries = tuple(entries)
        # An int alone, as checked() takes it: a grant of True or 100.0 is refused.
        granted = [
            checked(e.granted, INTEGER, f"granted of item {e.item_id}", DataError)
            for e in entries
        ]
        requested = [
            NO_REQUEST if e.requested is None
            else checked(e.requested, INTEGER, f"requested of item {e.item_id}", DataError)
            for e in entries
        ]
        p_at_maxcap = [math.nan if e.p_at_maxcap is None else e.p_at_maxcap for e in entries]
        plan = self.of_columns(
            [e.item_id for e in entries],
            np.array([REGION_CODE[e.region] for e in entries], dtype=np.int8),
            int_column(granted),
            int_column(requested),
            np.array(p_at_maxcap, dtype=float),
            total_allocated,
            total_cost,
        )
        vars(self).update(vars(plan))

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
        """The plan whose rows are the given columns (see COLUMNS), with no PlanEntry
        built; a region code outside PLAN_REGIONS is refused before the int8 cast."""
        given = dict(zip(cls.COLUMNS, (ids, region, granted, requested, p_at_maxcap)))
        columns = take_columns("plan", cls.COLUMNS, given, refuse_region_codes)
        plan = cls.__new__(cls)
        vars(plan).update(columns, total_allocated=total_allocated, total_cost=total_cost)
        return plan

    @cached_property
    def entries(self) -> tuple[PlanEntry, ...]:
        """One PlanEntry per row, in row order: built on first read, then kept."""
        return row_views(
            PlanEntry,
            self.ids,
            map(PLAN_REGIONS.__getitem__, self.region.tolist()),
            self.granted.tolist(),
            none_where(self.requested, self.requested == NO_REQUEST),
            none_where(self.p_at_maxcap, np.isnan(self.p_at_maxcap)),
        )

    __eq__ = columns_equal


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


def costs_of(granted: np.ndarray, config: AllocationConfig) -> np.ndarray:
    """cost_of of each grant of an array, in array order, as an array."""
    if config.cost_fn is None:
        return config.unit_cost * granted
    return np.fromiter((cost_of(g, config) for g in granted.tolist()), float, len(granted))


def sum_costs(granted: np.ndarray, config: AllocationConfig) -> float:
    """Total cost_of of an array of grants, a float even for none: built-in
    sum() in array order.

    Callers pass the grants in id order, the order a per-item
    sum(cost_of(...)) over the plan entries adds them. From Python 3.12 on,
    sum() of floats is compensated, so np.sum would not match it.
    """
    return sum(costs_of(granted, config).tolist(), 0.0)


def str_order(ids: Sequence[str]) -> np.ndarray:
    """Indices of the ids in Python's str order, equal ids in index order: a
    stable argsort of str objects, which compares them with <, as sorted()
    does. A numpy <U array of the ids would drop trailing NULs."""
    return np.argsort(np.asarray(ids, dtype=object), kind="stable")


def order_and_repeats(ids: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """str_order of the ids, and row k: whether ids[k] is also an earlier row's
    id, that is whether the row right before row k in that order holds it."""
    ids = np.asarray(ids, dtype=object)
    order = str_order(ids)
    repeated = np.zeros(len(ids), dtype=bool)
    repeated[order[1:]] = ids[order[1:]] == ids[order[:-1]]
    return order, repeated


def id_order(ids: Sequence[str], what: str) -> np.ndarray:
    """str_order of the ids; DataError naming `what` and the first repeated
    id, in that order, if an id repeats."""
    order, repeated = order_and_repeats(ids)
    if repeated.any():
        raise DataError(f"duplicate item ids in {what}: {ids[order[repeated[order]][0]]}")
    return order


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


#: AllocationConfig's integer and real fields; cost_fn is neither.
_INTEGER_FIELDS = ("total_budget", "min_cap", "max_cap")
_REAL_FIELDS = ("max_cost", "cf_high", "cf_low", "low_region_fraction", "unit_cost")


def _check_field_types(config: AllocationConfig) -> None:
    """ConfigError naming the first field that is not an int (an integer
    field) or an int or float (a real field)."""
    check_fields(config, INTEGER, _INTEGER_FIELDS)
    check_fields(config, NUMBER, _REAL_FIELDS)


def validate_allocation_config(config: AllocationConfig) -> AllocationConfig:
    """The checks of validate_config that need no bucket schema."""
    _check_field_types(config)
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
    funded, unfunded = granted != 0, plan.region == REGION_CODE[Region.UNFUNDED]
    # np.select takes each row's first failing check, in the order a loop
    # over the entries checks one; the last is cost_of's refusal.
    problem = np.select(
        [
            order_and_repeats(ids)[1],
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
    cost = float(np.cumsum(costs)[-1]) if len(costs) else 0.0
    if allocated != plan.total_allocated:
        raise DataError("total_allocated does not match entries")
    if not math.isclose(cost, plan.total_cost, rel_tol=1e-9, abs_tol=1e-9):
        raise DataError("total_cost does not match entries")
    if allocated > config.total_budget:
        raise DataError("plan exceeds traffic budget")
    if cost > config.max_cost + 1e-9:
        raise DataError("plan exceeds cost budget")


def engagement_block(impressions: np.ndarray, positive_events: np.ndarray) -> np.ndarray:
    """The engagement block of many items from their integer count columns.

    Row k is [positive_rate, log1p(impressions)] of an item with those
    counts, as EngagementStats gives the rate: the float64 quotient of two
    integers is the same correctly rounded value as Python's. log1p is
    math.log1p, whose last bit np.log1p need not match, called once per
    distinct impression count: a round's items share a few counts.
    """
    rate = np.zeros(len(impressions))
    np.divide(positive_events, impressions, out=rate, where=impressions > 0)
    distinct, where = np.unique(impressions, return_inverse=True)
    log_distinct = np.fromiter(map(math.log1p, distinct.tolist()), float, len(distinct))
    return np.column_stack([rate, log_distinct[where]])


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


#: Rows a writer formats and joins at a time, so that no writer holds a whole
#: matrix as Python values.
WRITE_BLOCK_ROWS = 4096


def write_rows(
    template: str, columns: Sequence[Sequence], path: str | Path, header: str = ""
) -> None:
    """The header, then template % row for each row of the columns, which are
    arrays (formatted from .tolist()) or sequences, a block of WRITE_BLOCK_ROWS
    rows formatted and joined at a time. Columns of unequal length raise
    DataError before the file is opened."""
    lengths = [len(column) for column in columns]
    if len(set(lengths)) > 1:
        raise DataError(f"{path}: columns differ in length: {lengths}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header)
        for start in range(0, len(columns[0]), WRITE_BLOCK_ROWS):
            block = (column[start : start + WRITE_BLOCK_ROWS] for column in columns)
            rows = zip(*(b.tolist() if isinstance(b, np.ndarray) else b for b in block))
            fh.write("".join(map(template.__mod__, rows)))


#: The kinds of value a JSON-lines key holds: a string id, read into a list; a
#: non-negative integer count, read into an int64 column; a finite number, or a
#: finite number or null (read as inf, written from inf), read into a float
#: column; and a list of finite numbers as long as every row's, read into a row
#: of a float matrix, its key the plural of an entry's name.
ID, COUNT, FINITE = "id", "count", "finite"
FINITE_OR_NULL, FINITE_LIST = "finite or null", "finite list"

_NUMBER_TYPES = frozenset(NUMBER)


def _append(column, kind: str, key: str, value, rows: int) -> None:
    """value appended to the column of `key`, which holds `rows` rows, as its
    kind reads it: TypeError or ValueError naming the key if the kind refuses
    it, and an int64 column's OverflowError for an integer past its range."""
    if kind == FINITE_LIST:
        if type(value) is not list:
            raise TypeError(f"{key} must be a list, not {type(value).__name__}")
        dim = len(column) // rows if rows else len(value)
        if len(value) != dim:
            raise ValueError(f"{key[:-1]} dimension {len(value)}, earlier rows have {dim}")
        if not _NUMBER_TYPES.issuperset(map(type, value)):
            bad = next(v for v in value if type(v) not in _NUMBER_TYPES)
            raise TypeError(f"{key} must be a flat list of numbers; {bad!r} is not one")
        # The decoder reads 1e400 as inf. A finite sum means finite values; an
        # overflowing sum of finite ones is looked at value by value.
        if not math.isfinite(sum(value)):
            for v in value:
                if not math.isfinite(v):
                    raise ValueError(f"{key[:-1]} {v!r} is not finite")
        column.extend(value)
        return
    if kind == ID:
        checked(value, STRING, key)
    elif kind == COUNT:
        if type(value) is not int or value < 0:
            raise ValueError(f"{key} must be a non-negative integer, not {value!r}")
    elif value is None and kind == FINITE_OR_NULL:
        value = math.inf
    elif not math.isfinite(checked(value, NUMBER, key)):
        raise ValueError(f"{key} {value!r} is not finite")
    column.append(value)


class LinesFormat(NamedTuple):
    """A JSON-lines file of a column table, one row per line.

    `keys` maps each key, in the order a reader checks a row's values, to
    the table field that holds its column and its kind. A count key in
    `at_most` may not exceed the earlier count key it maps to. Refusals
    call a row a `record`.
    """

    table: type
    record: str
    keys: dict[str, tuple[str, str]]
    at_most: dict[str, str]


CORPUS_FILE = LinesFormat(
    Corpus,
    "corpus record",
    {
        "id": ("ids", ID),
        "impressions": ("impressions", COUNT),
        "positive_events": ("positive_events", COUNT),
        "features": ("features", FINITE_LIST),
    },
    at_most={"positive_events": "impressions"},
)

LATENTS_FILE = LinesFormat(
    LatentColumns,
    "latent record",
    {
        "id": ("ids", ID),
        "quality": ("quality", FINITE),
        "threshold": ("true_threshold", FINITE_OR_NULL),
        "engagement_prob": ("engagement_prob", FINITE),
    },
    at_most={},
)


def read_lines(path: str | Path, fmt: LinesFormat):
    """A JSON-lines file as its fmt.table, its rows in file order.

    Each non-blank line is decoded from UTF-8 and with the finite decoder,
    and each of its values, key by key in fmt.keys order, is checked and
    appended to its column by its kind; no row is kept. The first line that
    is not UTF-8 or finite JSON, lacks a key or holds a value its kind
    refuses raises DataError naming `path:line` and fmt.record; what the
    table refuses, DataError naming `path`.
    """
    columns = {
        name: [] if kind == ID else array("q" if kind == COUNT else "d")
        for name, kind in fmt.keys.values()
    }
    keys = [
        (key, kind, columns[name], fmt.at_most.get(key))
        for key, (name, kind) in fmt.keys.items()
    ]
    rows = 0
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = _FINITE_DECODER.decode(line.decode("utf-8"))
                for key, kind, column, bound in keys:
                    _append(column, kind, key, row[key], rows)
                    if bound is not None and row[key] > row[bound]:
                        raise ValueError(f"{key} cannot exceed {bound}")
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise DataError(f"{path}:{lineno}: bad {fmt.record}: {exc}") from exc
            rows += 1
    for name, kind in fmt.keys.values():
        if kind != ID:
            # No one else holds the buffer, so the table takes it frozen, uncopied.
            column = np.frombuffer(columns[name], dtype=np.int64 if kind == COUNT else float)
            if kind == FINITE_LIST:
                column = column.reshape(rows, len(column) // rows if rows else 0)
            (columns[name],) = frozen(column)
    try:
        return fmt.table(**columns)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def write_lines(table, fmt: LinesFormat, path: str | Path) -> None:
    """The table's JSON-lines file: line for line what json.dumps(row,
    sort_keys=True) writes for each row.

    One template, keys sorted, formats each row. json writes a finite float
    with float.__repr__ and an int with int.__repr__, so a number array goes
    in by %r; an id goes in encoded by json's encode_basestring_ascii, and a
    FINITE_OR_NULL value as its repr or null. An id that is not a string, or
    a NaN or infinity in a FINITE or FINITE_LIST column, raises DataError
    before the file is opened.
    """
    fields, values = [], []
    for key in sorted(fmt.keys):
        name, kind = fmt.keys[key]
        column = getattr(table, name)
        if kind == ID:
            try:
                column = list(map(encode_basestring_ascii, column))
            except TypeError as exc:
                raise DataError(f"{path}: {key} must hold strings: {exc}") from exc
        elif kind == FINITE_OR_NULL:
            column = ["null" if math.isinf(v) else repr(v) for v in column.tolist()]
        elif not np.isfinite(column).all():
            raise DataError(f"{path}: {key} holds a non-finite value, which JSON cannot")
        fields.append(f'"{key}": %{"r" if isinstance(column, np.ndarray) else "s"}')
        values.append(column)
    write_rows("{" + ", ".join(fields) + "}\n", values, path)


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    """The corpus file (see CORPUS_FILE)."""
    write_lines(corpus, CORPUS_FILE, path)


def read_corpus(path: str | Path) -> Corpus:
    """A corpus file as columns, in file order (see read_lines)."""
    return read_lines(path, CORPUS_FILE)


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


def config_from_dict(raw: dict) -> tuple[AllocationConfig, BucketSchema]:
    """(config, schema) from a flat dict; missing keys fall back to defaults.

    Budget, caps and bucket edges must be integers, the other values integers
    or floats, which the config holds as floats. Any other value, a bool or a
    string included, raises ConfigError naming its key.
    """
    base = config_to_dict(DEFAULT_ALLOCATION, DEFAULT_SCHEMA)
    unknown = set(raw) - set(base)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    base.update(raw)
    try:
        config = AllocationConfig(**{k: base[k] for k in _INTEGER_FIELDS + _REAL_FIELDS})
        _check_field_types(config)
        config = replace(config, **{k: float(base[k]) for k in _REAL_FIELDS})
        edges = checked_list(base["bucket_edges"], INTEGER, "bucket_edges")
        if "bucket_edges" in raw and "bucket_representatives" not in raw:
            # Edges changed without explicit representatives: re-derive them.
            reps = tuple(edges[k + 1] - 1 for k in range(len(edges) - 1)) + (config.max_cap,)
        else:
            reps = checked_list(
                base["bucket_representatives"], INTEGER, "bucket_representatives"
            )
    except (ValueError, OverflowError) as exc:  # float() of an integer past float range
        raise ConfigError(f"bad config value: {exc}") from exc
    return config, BucketSchema(edges=edges, representative=reps)

import dataclasses
import json
import math
import re
import tempfile
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from coldstart_explore.core import (
    COUNT,
    FINITE,
    FINITE_LIST,
    ID,
    NO_REQUEST,
    PLAN_REGIONS,
    REGION_CODE,
    REGION_NAMES,
    AllocationConfig,
    AllocationPlan,
    BucketSchema,
    ConfigError,
    Corpus,
    DataError,
    EngagementStats,
    ItemRecord,
    LatentColumns,
    LatentItem,
    LinesFormat,
    PlanEntry,
    Region,
    bucket_of,
    config_from_dict,
    config_to_dict,
    cost_of,
    engagement_block,
    geometric_schema,
    id_order,
    model_inputs,
    read_corpus,
    read_json,
    region_counts,
    save_corpus,
    static_matrix,
    str_order,
    validate_config,
    verify_plan,
    write_csv,
    write_json,
    write_corpus,
    write_lines,
    write_rows,
)
from coldstart_explore import core
from coldstart_explore.model import TrainingSet, load_examples, save_examples
from coldstart_explore.simulator import (
    ExperimentReport,
    ItemRoundRow,
    Observation,
    Observations,
    RoundMetrics,
    SimConfig,
    generate_corpus,
    load_latents,
    write_latents,
)
from per_item import engagement_features, item_feature_vector, load_corpus

FOUR_BUCKETS = BucketSchema(edges=(0, 100, 200, 400), representative=(99, 199, 399, 1600))


def cfg(**overrides) -> AllocationConfig:
    base = dict(
        total_budget=10_000,
        max_cost=500.0,
        min_cap=100,
        max_cap=1600,
        cf_high=0.9,
        cf_low=0.2,
        low_region_fraction=0.1,
    )
    base.update(overrides)
    return AllocationConfig(**base)


class TestBucketOf:
    def test_interior(self):
        assert bucket_of(150, FOUR_BUCKETS) == 1

    def test_zero_maps_to_first_bucket(self):
        assert bucket_of(0, FOUR_BUCKETS) == 0

    def test_overflow_clamps_to_last_bucket(self):
        assert bucket_of(10**9, FOUR_BUCKETS) == 3

    def test_edge_belongs_to_upper_bucket(self):
        assert bucket_of(100, FOUR_BUCKETS) == 1
        assert bucket_of(99, FOUR_BUCKETS) == 0

    def test_negative_rejected(self):
        with pytest.raises(DataError):
            bucket_of(-1, FOUR_BUCKETS)

    def test_nan_rejected(self):
        # NaN compares false with every edge; it is no traffic, not the last bucket's.
        with pytest.raises(DataError, match="non-negative"):
            bucket_of(math.nan, FOUR_BUCKETS)
        with pytest.raises(DataError, match="non-negative"):
            bucket_of(np.array([100.0, math.nan]), FOUR_BUCKETS)

    @given(st.integers(0, 10**7), st.integers(0, 10**7))
    def test_monotone(self, a, b):
        lo, hi = sorted((a, b))
        assert bucket_of(lo, FOUR_BUCKETS) <= bucket_of(hi, FOUR_BUCKETS)

    def test_representative_maps_to_own_bucket(self):
        schema = geometric_schema()
        for k in range(schema.n_buckets):
            assert bucket_of(schema.representative[k], schema) == k

    def test_representative_round_trip_on_random_valid_schemas(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(3, 8))
            edges = [0]
            for _ in range(n - 1):
                edges.append(edges[-1] + int(rng.integers(5, 300)))
            reps = [int(rng.integers(edges[k], edges[k + 1])) for k in range(n - 1)]
            reps.append(edges[-1] + int(rng.integers(0, 200)))
            schema = BucketSchema(edges=tuple(edges), representative=tuple(reps))
            for k in range(n):
                assert bucket_of(schema.representative[k], schema) == k


class TestCostOf:
    def test_zero_traffic_costs_nothing(self):
        assert cost_of(0, cfg()) == 0.0

    def test_linear(self):
        assert cost_of(500, cfg(unit_cost=0.01)) == pytest.approx(5.0)
        assert cost_of(1600, cfg(unit_cost=0.01)) == pytest.approx(16.0)

    def test_pluggable_cost_function(self):
        quadratic = cfg(cost_fn=lambda x: 0.001 * x * x)
        assert cost_of(100, quadratic) == pytest.approx(10.0)
        assert cost_of(0, quadratic) == 0.0

    @pytest.mark.parametrize("cost_fn", [None, lambda x: 0.001 * x * x])
    def test_nan_traffic_rejected(self, cost_fn):
        with pytest.raises(DataError, match="non-negative"):
            cost_of(math.nan, cfg(cost_fn=cost_fn))

    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    def test_non_decreasing(self, a, b):
        lo, hi = sorted((a, b))
        c = cfg(unit_cost=0.02)
        assert cost_of(lo, c) <= cost_of(hi, c)


class TestValidateConfig:
    def test_valid_config_returned_unchanged(self):
        config = cfg(cf_low=0.2, cf_high=0.9, min_cap=100, max_cap=1600)
        assert validate_config(config, geometric_schema()) is config

    def test_cf_ordering(self):
        with pytest.raises(ConfigError, match="cf ordering"):
            validate_config(cfg(cf_low=0.9, cf_high=0.2), geometric_schema())

    def test_min_cap_positive(self):
        with pytest.raises(ConfigError, match="MinCap must be positive"):
            validate_config(cfg(min_cap=0), geometric_schema())

    def test_max_cap_must_match_top_representative(self):
        with pytest.raises(ConfigError, match="MaxCap mismatch"):
            validate_config(cfg(max_cap=1500), geometric_schema())

    def test_rejects_few_buckets(self):
        schema = BucketSchema(edges=(0, 100), representative=(50, 1600))
        with pytest.raises(ConfigError, match="at least 3"):
            validate_config(cfg(), schema)

    def test_rejects_unsorted_edges(self):
        schema = BucketSchema(edges=(0, 200, 100, 400), representative=(1, 1, 1, 1600))
        with pytest.raises(ConfigError, match="strictly increasing"):
            validate_config(cfg(), schema)

    def test_rejects_nonzero_first_edge(self):
        schema = BucketSchema(edges=(10, 100, 200), representative=(50, 150, 1600))
        with pytest.raises(ConfigError, match="first bucket edge"):
            validate_config(cfg(), schema)

    def test_rejects_representative_outside_bucket(self):
        schema = BucketSchema(edges=(0, 100, 200, 400), representative=(150, 150, 250, 1600))
        with pytest.raises(ConfigError, match="outside the bucket"):
            validate_config(cfg(), schema)

    def test_zero_budget_allowed_negative_rejected(self):
        validate_config(cfg(total_budget=0), geometric_schema())
        with pytest.raises(ConfigError, match="budget"):
            validate_config(cfg(total_budget=-1), geometric_schema())

    def test_cost_fn_must_vanish_at_zero(self):
        with pytest.raises(ConfigError, match="zero at zero"):
            validate_config(cfg(cost_fn=lambda x: x + 1.0), geometric_schema())

    @pytest.mark.parametrize("field, name", [("max_cost", "max cost"), ("unit_cost", "unit cost")])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_cost_settings_rejected(self, field, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            validate_config(cfg(**{field: value}), geometric_schema())

    # The rule a config file's values get: an int for a budget or cap, an
    # int or a float for a real value, and no bool, string or numpy scalar.
    @pytest.mark.parametrize("field", ["total_budget", "min_cap", "max_cap"])
    @pytest.mark.parametrize("value", [10_000.5, 100.7, 100.0, True, "100", None, np.int64(100)])
    def test_integer_field_not_an_int_refused(self, field, value):
        message = f"{field} must be an integer, not {value!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            validate_config(cfg(**{field: value}), geometric_schema())

    @pytest.mark.parametrize(
        "field", ["max_cost", "cf_high", "cf_low", "low_region_fraction", "unit_cost"]
    )
    @pytest.mark.parametrize("value", [True, "0.6", None, np.float64(0.5)])
    def test_real_field_not_a_number_refused(self, field, value):
        message = f"{field} must be a number, not {value!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            validate_config(cfg(**{field: value}), geometric_schema())

    def test_integral_values_of_real_fields_accepted(self):
        config = cfg(max_cost=500, cf_high=1 - 0.25, unit_cost=0, low_region_fraction=1)
        assert validate_config(config, geometric_schema()) is config


class TestBucketSchemaValues:
    @pytest.mark.parametrize("field", ["edges", "representative"])
    @pytest.mark.parametrize("value", [100.7, 100.0, True, "100", None, np.int64(100)])
    def test_value_not_an_int_refused_not_truncated(self, field, value):
        values = {"edges": [0, 100, 200, 400], "representative": [99, 199, 399, 1600]}
        values[field][1] = value
        message = f"each of {field} must be an integer, not {value!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            BucketSchema(**values)

    @pytest.mark.parametrize("field", ["edges", "representative"])
    def test_values_not_in_a_list_or_tuple_refused(self, field):
        values = {"edges": (0, 100, 200, 400), "representative": (99, 199, 399, 1600)}
        values[field] = range(4)
        with pytest.raises(ConfigError, match=f"{field} must be a list, not range"):
            BucketSchema(**values)

    def test_list_kept_as_a_tuple(self):
        schema = BucketSchema([0, 100, 200, 400], [99, 199, 399, 1600])
        assert schema == FOUR_BUCKETS
        assert type(schema.edges) is tuple and type(schema.representative) is tuple


class TestEngagementStats:
    def test_rate(self):
        assert EngagementStats(100, 25).positive_rate == pytest.approx(0.25)

    def test_zero_impressions_zero_rate(self):
        assert EngagementStats(0, 0).positive_rate == 0.0

    def test_positives_cannot_exceed_impressions(self):
        with pytest.raises(DataError):
            EngagementStats(10, 11)

    def test_negative_counts_rejected(self):
        with pytest.raises(DataError):
            EngagementStats(-1, 0)

    @pytest.mark.parametrize(
        "impressions, positive_events, name",
        [
            (True, 0, "impressions"),
            (2.0, 1.0, "impressions"),
            (1.7, 0, "impressions"),
            (np.int64(3), 1, "impressions"),
            (5, False, "positive_events"),
            (5, 1.0, "positive_events"),
            (5, "1", "positive_events"),
        ],
    )
    def test_count_that_is_not_an_int_refused_naming_it(self, impressions, positive_events, name):
        # A bool or float record count would enter a corpus through Corpus.of,
        # whose count columns refuse both.
        with pytest.raises(DataError) as refused:
            EngagementStats(impressions, positive_events)
        bad = {"impressions": impressions, "positive_events": positive_events}[name]
        assert str(refused.value) == f"{name} must be an integer, not {bad!r}"


def engagement_columns(records):
    """The impressions and positive_events columns of the records."""
    return tuple(
        np.array([getattr(rec.engagement, name) for rec in records], dtype=np.int64)
        for name in ("impressions", "positive_events")
    )


class TestItemFeatures:
    def test_engagement_block_appended(self):
        rec = ItemRecord(
            id="a",
            features=np.array([1.0, 2.0]),
            engagement=EngagementStats(impressions=99, positive_events=33),
        )
        vec = model_inputs(static_matrix([rec]), *engagement_columns([rec]))[0]
        assert vec.shape == (4,)
        assert vec[2] == pytest.approx(1 / 3)
        assert vec[3] == pytest.approx(math.log1p(99))

    def test_cold_item_engagement_block_is_zero(self):
        rec = ItemRecord(id="a", features=np.array([1.0]))
        assert np.all(model_inputs(static_matrix([rec]), *engagement_columns([rec]))[0, 1:] == 0)

    def test_feature_matrix_rows_equal_item_feature_vector(self):
        rng = np.random.default_rng(3)
        records = [
            ItemRecord(
                id=f"i{k}",
                features=rng.normal(size=3),
                engagement=EngagementStats(k * 7, k),
            )
            for k in range(50)
        ]
        X = model_inputs(static_matrix(records), *engagement_columns(records))
        assert X.shape == (50, 5)
        for rec, row in zip(records, X):
            assert np.array_equal(row, item_feature_vector(rec))

    def test_feature_matrix_rejects_mixed_dimensions(self):
        records = [
            ItemRecord(id="a", features=np.array([1.0])),
            ItemRecord(id="b", features=np.array([1.0, 2.0])),
        ]
        with pytest.raises(DataError, match="dimension"):
            model_inputs(static_matrix(records), *engagement_columns(records))

    def test_feature_matrix_of_no_items(self):
        assert model_inputs(static_matrix([]), *engagement_columns([])).shape == (0, 2)

    def test_engagement_block_rows_equal_engagement_features(self):
        rng = np.random.default_rng(4)
        impressions = np.concatenate(
            [[0, 0, 1, 7], rng.integers(0, 2000, size=3000), rng.integers(0, 10**12, size=1000)]
        )
        positives = (impressions * rng.uniform(size=len(impressions))).astype(np.int64)
        block = engagement_block(impressions, positives)
        assert block.shape == (len(impressions), 2)
        for imp, pos, row in zip(impressions.tolist(), positives.tolist(), block):
            expected = engagement_features(EngagementStats(imp, pos))
            assert np.array_equal(row.view(np.int64), expected.view(np.int64))

    def test_feature_matrix_rows_bit_identical_at_large_counts(self):
        rng = np.random.default_rng(5)
        records = []
        for k in range(500):
            impressions = int(rng.integers(0, 10**9))
            records.append(
                ItemRecord(
                    id=f"i{k}",
                    features=rng.normal(size=4),
                    engagement=EngagementStats(impressions, int(rng.integers(0, impressions + 1))),
                )
            )
        X = model_inputs(static_matrix(records), *engagement_columns(records))
        for rec, row in zip(records, X):
            assert np.array_equal(row.view(np.int64), item_feature_vector(rec).view(np.int64))

    def test_features_are_read_only(self):
        rec = ItemRecord(id="a", features=np.array([1.0]))
        with pytest.raises(ValueError):
            rec.features[0] = 2.0

    def test_caller_features_stay_writeable(self):
        features = np.array([1.0, 2.0])
        rec = ItemRecord("a", features)
        features[0] = 5.0
        assert rec.features[0] == 1.0
        # A read-only row of a read-only matrix is taken as it is, not copied.
        matrix = np.ones((2, 2))
        matrix.setflags(write=False)
        row = matrix[1]
        assert ItemRecord("b", row).features is row


class TestVerifyPlan:
    def _plan(self, entries, config):
        total = sum(e.granted for e in entries)
        cost = sum(cost_of(e.granted, config) for e in entries)
        return AllocationPlan(entries=tuple(entries), total_allocated=total, total_cost=cost)

    def test_good_plan_passes(self):
        config = cfg()
        plan = self._plan(
            [
                PlanEntry("a", Region.HIGH, 100),
                PlanEntry("b", Region.MODERATE, 1600),
                PlanEntry("c", Region.UNFUNDED, 0),
            ],
            config,
        )
        verify_plan(plan, config)

    def test_catches_budget_violation(self):
        config = cfg(total_budget=100)
        plan = self._plan([PlanEntry("a", Region.HIGH, 1600)], config)
        with pytest.raises(DataError, match="traffic budget"):
            verify_plan(plan, config)

    def test_catches_cost_violation(self):
        config = cfg(max_cost=1.0)
        plan = self._plan([PlanEntry("a", Region.HIGH, 1600)], config)
        with pytest.raises(DataError, match="cost"):
            verify_plan(plan, config)

    def test_catches_grant_below_min_cap(self):
        config = cfg()
        plan = self._plan([PlanEntry("a", Region.LOW, 50)], config)
        with pytest.raises(DataError, match="MinCap"):
            verify_plan(plan, config)

    def test_catches_unfunded_with_traffic(self):
        config = cfg()
        plan = self._plan([PlanEntry("a", Region.UNFUNDED, 100)], config)
        with pytest.raises(DataError, match="Unfunded"):
            verify_plan(plan, config)

    def test_catches_wrong_totals(self):
        config = cfg()
        plan = AllocationPlan(
            entries=(PlanEntry("a", Region.HIGH, 100),),
            total_allocated=150,
            total_cost=1.0,
        )
        with pytest.raises(DataError, match="total_allocated"):
            verify_plan(plan, config)

    def test_catches_duplicate_entries(self):
        config = cfg()
        plan = AllocationPlan(
            (PlanEntry("a", Region.UNIFORM, 100), PlanEntry("a", Region.UNIFORM, 100)), 200, 2.0
        )
        with pytest.raises(DataError, match="duplicate plan entry for item a"):
            verify_plan(plan, config)


def verify_plan_reference(plan, config):
    """The loop over the plan entries that verify_plan replaced."""
    allocated = 0
    cost = 0.0
    seen = set()
    for entry in plan.entries:
        if entry.item_id in seen:
            raise DataError(f"duplicate plan entry for item {entry.item_id}")
        seen.add(entry.item_id)
        if entry.granted == 0:
            if entry.region is not Region.UNFUNDED:
                raise DataError(f"zero grant must be Unfunded: {entry.item_id}")
        else:
            if entry.region is Region.UNFUNDED:
                raise DataError(f"Unfunded entry with traffic: {entry.item_id}")
            if not config.min_cap <= entry.granted <= config.max_cap:
                raise DataError(
                    f"grant outside [MinCap, MaxCap]: {entry.item_id} -> {entry.granted}"
                )
        allocated += entry.granted
        cost += cost_of(entry.granted, config)
    if allocated != plan.total_allocated:
        raise DataError("total_allocated does not match entries")
    if not math.isclose(cost, plan.total_cost, rel_tol=1e-9, abs_tol=1e-9):
        raise DataError("total_cost does not match entries")
    if allocated > config.total_budget:
        raise DataError("plan exceeds traffic budget")
    if cost > config.max_cost + 1e-9:
        raise DataError("plan exceeds cost budget")


def plan_twins(rows, config, total_allocated=None, total_cost=None):
    """A plan of (id, region, granted) rows built from entries, and the same
    plan built from columns. The totals default to the rows' own."""
    entries = tuple(
        PlanEntry(i, region, g, g or None, 0.5 if g else None) for i, region, g in rows
    )
    if total_allocated is None:
        total_allocated = sum(g for _, _, g in rows)
    if total_cost is None:
        total_cost = sum((cost_of(max(g, 0), config) for _, _, g in rows), 0.0)
    granted = np.array([g for _, _, g in rows], dtype=np.int64)
    columns = AllocationPlan.of_columns(
        [i for i, _, _ in rows],
        np.array([PLAN_REGIONS.index(region) for _, region, _ in rows], dtype=np.int8),
        granted,
        np.where(granted != 0, granted, NO_REQUEST),
        np.where(granted != 0, 0.5, np.nan),
        total_allocated,
        total_cost,
    )
    return AllocationPlan(entries, total_allocated, total_cost), columns


def refusal(check, plan, config):
    """The message of the DataError check(plan, config) raises, or None."""
    try:
        check(plan, config)
    except DataError as exc:
        return str(exc)
    return None


H, U, N = Region.HIGH, Region.UNIFORM, Region.UNFUNDED


def unpriced_at_101(traffic):
    """A cost function that refuses one grant inside the default caps: a row
    after a bad row must not reach it."""
    if traffic == 101:
        raise DataError("no price for 101 impressions")
    return 0.01 * traffic


class TestVerifyColumnPlan:
    @pytest.mark.parametrize(
        "rows, totals, config, message",
        [
            ([("a", H, 100), ("b", N, 0)], {}, cfg(), None),
            ([("a", H, 100), ("b", N, 0), ("a", N, 0)], {}, cfg(),
             "duplicate plan entry for item a"),
            ([("a", H, 100), ("b", U, 0)], {}, cfg(), "zero grant must be Unfunded: b"),
            ([("a", N, 100)], {}, cfg(), "Unfunded entry with traffic: a"),
            ([("a", H, 100), ("b", U, 99)], {}, cfg(),
             "grant outside [MinCap, MaxCap]: b -> 99"),
            ([("a", H, 1601)], {}, cfg(), "grant outside [MinCap, MaxCap]: a -> 1601"),
            ([("a", H, 100)], {"total_allocated": 150}, cfg(),
             "total_allocated does not match entries"),
            ([("a", H, 100)], {"total_cost": 1.5}, cfg(), "total_cost does not match entries"),
            ([("a", H, 1600)], {}, cfg(total_budget=1000), "plan exceeds traffic budget"),
            ([("a", H, 1600)], {}, cfg(max_cost=1.0), "plan exceeds cost budget"),
            # A negative grant inside the caps of a config that allows it is
            # refused by cost_of.
            ([("a", H, -1)], {}, cfg(min_cap=-10), "traffic must be non-negative"),
            # The first bad row decides, whatever its refusal; a totals check
            # comes after every row.
            ([("a", H, 100), ("b", N, 100), ("a", U, 0)], {"total_cost": 9.0}, cfg(),
             "Unfunded entry with traffic: b"),
            ([("c", U, 0), ("c", U, 0)], {"total_allocated": 1}, cfg(),
             "zero grant must be Unfunded: c"),
            # Several repeats: the first row that repeats an earlier one, in
            # row order, where id_order names "b", the first in str order.
            ([("c", N, 0), ("b", N, 0), ("c", N, 0), ("a", N, 0), ("b", N, 0)], {}, cfg(),
             "duplicate plan entry for item c"),
        ],
        ids=["passes", "duplicate", "zero-grant-funded", "unfunded-with-traffic",
             "below-min-cap", "above-max-cap", "total-allocated", "total-cost",
             "over-budget", "over-cost", "negative", "first-bad-row", "first-bad-row-2",
             "several-repeats"],
    )
    def test_same_refusal_as_the_entry_loop(self, rows, totals, config, message):
        by_entries, by_columns = plan_twins(rows, config, **totals)
        assert by_entries == by_columns
        for plan in (by_entries, by_columns):
            assert refusal(verify_plan, plan, config) == message
            assert refusal(verify_plan_reference, plan, config) == message

    @given(
        st.lists(
            st.tuples(
                st.sampled_from("abcd"),
                st.sampled_from(PLAN_REGIONS),
                st.sampled_from([0, 0, 50, 100, 101, 1600, 1601]),
            ),
            max_size=8,
        ),
        st.integers(0, 5000),
        st.floats(0.5, 60.0),
        st.sampled_from([None, -100, 1]),
        st.sampled_from([None, 0.0, 1e-12, 1.0]),
        st.sampled_from([None, lambda t: 1e-5 * t * t, unpriced_at_101]),
    )
    @settings(deadline=None, max_examples=400)
    def test_property_same_refusal_as_the_entry_loop(
        self, rows, budget, max_cost, allocated_off, cost_off, cost_fn
    ):
        config = cfg(total_budget=budget, max_cost=max_cost, cost_fn=cost_fn)
        # unpriced_at_101 costs what the linear default costs, where it prices.
        priced = cfg() if cost_fn is unpriced_at_101 else config
        by_entries, by_columns = plan_twins(rows, priced)
        totals = {}
        if allocated_off is not None:
            totals["total_allocated"] = by_entries.total_allocated + allocated_off
        if cost_off is not None:
            totals["total_cost"] = by_entries.total_cost + cost_off
        by_entries, by_columns = plan_twins(rows, priced, **totals)
        message = refusal(verify_plan_reference, by_entries, config)
        assert refusal(verify_plan, by_entries, config) == message
        assert refusal(verify_plan, by_columns, config) == message

    def test_entries_are_built_once_from_the_columns(self):
        config = cfg()
        by_entries, by_columns = plan_twins([("b", U, 100), ("a", N, 0)], config)
        entries = by_columns.entries
        assert entries is by_columns.entries
        assert entries == by_entries.entries == (
            PlanEntry("b", U, 100, 100, 0.5),
            PlanEntry("a", N, 0, None, None),
        )
        assert type(entries[0].granted) is int and type(entries[0].requested) is int
        assert type(entries[0].p_at_maxcap) is float
        assert AllocationPlan(entries, 100, by_columns.total_cost) == by_columns

    def test_plan_is_immutable_and_unequal_to_another_plan(self):
        config = cfg()
        plan, _ = plan_twins([("a", H, 100)], config)
        with pytest.raises(AttributeError):
            plan.total_cost = 0.0
        with pytest.raises(ValueError, match="read-only"):
            plan.granted[0] = 200
        other, _ = plan_twins([("a", H, 200)], config)
        assert plan != other
        assert plan != plan_twins([("a", H, 100)], config, total_cost=2.0)[0]

    def test_columns_of_different_lengths_refused(self):
        with pytest.raises(DataError, match="plan columns differ in length"):
            AllocationPlan.of_columns(
                ["a", "b"], np.zeros(1, int), np.array([100]), np.array([100]), np.array([0.5]),
                100, 1.0,
            )

    @pytest.mark.parametrize(
        "entry, message",
        [
            (PlanEntry("a", H, 100.5, 100), "granted of item a must be an integer, not 100.5"),
            (PlanEntry("a", H, 100, 100.0), "requested of item a must be an integer, not 100.0"),
        ],
    )
    def test_fractional_grant_or_request_refused_not_truncated(self, entry, message):
        with pytest.raises(DataError, match=re.escape(message)):
            AllocationPlan([entry], 100, 1.0)


@pytest.mark.parametrize(
    "n, codes",
    [(0, range(6)), (1, range(6)), (9, [1, 3]), (500, range(6)), (500, [0, 4, 5])],
)
def test_region_counts_match_a_counter_over_the_rows(n, codes):
    column = np.random.default_rng(n).choice(list(codes), size=n).astype(np.int8)
    expected = Counter(PLAN_REGIONS[code].value for code in column.tolist())
    got = region_counts(column)
    assert got == expected
    # Only the regions present, in PLAN_REGIONS order, as Python ints.
    assert list(got) == [name for name in REGION_NAMES if name in expected]
    assert all(type(count) is int for count in got.values())


NOT_A_NUMBER = "features must be a flat list of numbers; "


class TestCorpusFile:
    def test_round_trip(self, tmp_path):
        records = [
            ItemRecord(
                id=f"i{k}",
                features=np.array([0.5 * k, -k]),
                engagement=EngagementStats(10 * k, k),
                impressions_received=10 * k,
            )
            for k in range(5)
        ]
        path = tmp_path / "corpus.jsonl"
        save_corpus(records, path)
        loaded = load_corpus(path)
        assert [r.id for r in loaded] == [r.id for r in records]
        for a, b in zip(records, loaded):
            assert np.array_equal(a.features, b.features)
            assert a.engagement == b.engagement

    def test_bad_record_reports_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "a", "features": [1.0]}\n')
        with pytest.raises(DataError, match="corpus"):
            read_corpus(path)

    @pytest.mark.parametrize(
        "impressions, positive_events, name",
        [
            (10.7, 2, "impressions"),
            (10, 2.9, "positive_events"),
            (10.0, 2, "impressions"),
            (-1, 0, "impressions"),
            (10, "2", "positive_events"),
            (True, 0, "impressions"),
        ],
    )
    def test_count_not_a_non_negative_integer_refused(
        self, tmp_path, impressions, positive_events, name
    ):
        path = tmp_path / "corpus.jsonl"
        rows = [
            {"id": "a", "features": [1.0], "impressions": 3, "positive_events": 1},
            {"id": "b", "features": [1.0], "impressions": impressions,
             "positive_events": positive_events},
        ]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        with pytest.raises(
            DataError, match=rf"corpus\.jsonl:2: .*{name} must be a non-negative integer"
        ):
            read_corpus(path)


    @pytest.mark.parametrize(
        "row, message",
        [
            ('"id": "b", "features": [1.5, true]', NOT_A_NUMBER + "True is not one"),
            ('"id": "b", "features": ["1.5", 2.0]', NOT_A_NUMBER + "'1.5' is not one"),
            ('"id": "b", "features": [[1.5], 2.0]', NOT_A_NUMBER + "[1.5] is not one"),
            ('"id": 7, "features": [1.5, 2.0]', "id must be a string, not 7"),
            ('"id": null, "features": [1.5, 2.0]', "id must be a string, not None"),
            ('"id": "b", "features": [1.5]', "feature dimension 1, earlier rows have 2"),
            ('"id": "b", "features": [1.5, 2.0, 3.0]', "feature dimension 3, earlier rows have 2"),
        ],
        ids=["bool-feature", "string-feature", "nested-feature", "number-id", "null-id",
             "fewer-features", "more-features"],
    )
    def test_row_refused_instead_of_converted(self, tmp_path, row, message):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            '{"id": "a", "features": [1.0, 2.0], "impressions": 0, "positive_events": 0}\n'
            "{" + row + ', "impressions": 0, "positive_events": 0}\n'
        )
        with pytest.raises(
            DataError, match=re.escape(f"corpus.jsonl:2: bad corpus record: {message}")
        ):
            read_corpus(path)

    def test_more_positive_events_than_impressions_refused_with_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            '{"id": "a", "features": [1.0], "impressions": 3, "positive_events": 1}\n'
            '{"id": "b", "features": [1.0], "impressions": 3, "positive_events": 4}\n'
        )
        with pytest.raises(DataError, match=r"corpus\.jsonl:2: .*cannot exceed impressions"):
            read_corpus(path)

    def test_columns_round_trip_read_only(self, tmp_path):
        features = np.arange(12.0).reshape(4, 3)
        counts = np.array([0, 5, 9, 2]), np.array([0, 1, 9, 0])
        corpus = Corpus(["d", "b", "a", "c"], features, *counts)
        assert features.flags.writeable  # the caller's array is copied, not frozen
        path = tmp_path / "corpus.jsonl"
        write_corpus(corpus, path)
        loaded = read_corpus(path)
        assert loaded.ids == ("d", "b", "a", "c")
        for name in ("features", "impressions", "positive_events"):
            column = getattr(loaded, name)
            assert np.array_equal(column, getattr(corpus, name))
            assert not column.flags.writeable
        assert loaded.impressions.dtype == np.int64

    def test_columns_must_line_up(self):
        counts = np.zeros(2, int)
        with pytest.raises(DataError, match="columns differ in length"):
            Corpus(["a", "b"], np.zeros((2, 1)), counts, np.zeros(1, int))
        with pytest.raises(DataError, match="features must be a 2-D array"):
            Corpus(["a", "b"], np.zeros(2), counts, counts)

    @pytest.mark.parametrize("name", ["impressions", "positive_events"])
    @pytest.mark.parametrize(
        "column, got",
        [
            (np.array([1.7, 2.0]), "a 1-D float64 array"),
            (np.array([True, False]), "a 1-D bool array"),
            (np.array([2**70, 0]), "a 1-D object array"),
            (np.array([2**63, 0], dtype=np.uint64), "a 1-D uint64 array"),
            ([5, True], "a list"),
            ([5, 5], "a list"),
        ],
        ids=["float", "bool", "object", "uint64-2**63", "list-with-bool", "list"],
    )
    def test_count_column_not_integers_refused_naming_it(self, name, column, got):
        # Neither cut to an integer, read as 1 nor wrapped around: refused whole.
        counts = {"impressions": np.array([5, 5]), "positive_events": np.array([0, 0])}
        counts[name] = column
        with pytest.raises(DataError) as refused:
            Corpus(["a", "b"], np.zeros((2, 1)), **counts)
        assert str(refused.value) == (
            f"corpus column {name} must be a 1-D array of int64's kind, not {got}"
        )

    @pytest.mark.parametrize(
        "impressions, positive_events, message",
        [
            ([3, -5, -1], [0, 0, 0], "engagement counts must be non-negative for item b"),
            ([3, 2, 1], [0, 0, -1], "engagement counts must be non-negative for item c"),
            ([3, 1, 0], [1, 5, 1], "positive_events cannot exceed impressions for item b"),
        ],
    )
    def test_bad_counts_refused_naming_the_first_item(self, impressions, positive_events, message):
        with pytest.raises(DataError) as refused:
            corpus_of(["a", "b", "c"], np.zeros((3, 1)), impressions, positive_events)
        assert str(refused.value) == message

    def test_empty_corpus_accepted(self):
        corpus = Corpus([], np.empty((0, 0)), np.zeros(0, np.int32), np.zeros(0, np.int32))
        assert len(corpus) == 0 and corpus.impressions.dtype == np.int64

    def test_row_view(self):
        features = np.array([[0.5, -1.0], [2.0, 3.0]])
        corpus = Corpus(["b", "a"], features, np.array([4, 0]), np.array([1, 0]))
        assert len(corpus) == 2 and "rows" not in vars(corpus)  # len reads the ids
        first, second = corpus
        assert corpus.rows is corpus.rows and corpus[1] is second  # built once
        assert (first.id, first.engagement) == ("b", EngagementStats(4, 1))
        assert (second.id, second.engagement) == ("a", EngagementStats(0, 0))
        assert type(first.engagement.impressions) is int
        for record, row in zip(corpus, corpus.features):
            assert np.shares_memory(record.features, row) and not record.features.flags.writeable
            assert np.array_equal(record.features, row)

    def test_of_takes_records_and_a_corpus(self):
        records = [
            ItemRecord("b", np.array([1.0]), EngagementStats(4, 1)),
            ItemRecord("a", np.array([2.0])),
        ]
        corpus = Corpus.of(records)
        assert corpus.ids == ("b", "a") and corpus.impressions.tolist() == [4, 0]
        assert Corpus.of(corpus) is corpus
        with pytest.raises(DataError, match="impressions must be an integer, not 1.7"):
            Corpus.of([ItemRecord("a", np.array([1.0]), EngagementStats(1.7, 0))])
        assert Corpus.of([]).impressions.dtype == np.int64

    def test_blocks_write_what_one_block_writes(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(3)
        n = 11
        corpus = Corpus(
            [f"i{k}" for k in range(n)], rng.normal(size=(n, 3)),
            np.full(n, 7), rng.integers(0, 8, size=n),
        )
        write_corpus(corpus, tmp_path / "one.jsonl")
        monkeypatch.setattr(core, "WRITE_BLOCK_ROWS", 4)
        write_corpus(corpus, tmp_path / "blocks.jsonl")
        one = (tmp_path / "one.jsonl").read_bytes()
        assert one == (tmp_path / "blocks.jsonl").read_bytes()
        assert one.count(b"\n") == n

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_feature_rejected_with_line(self, tmp_path, token):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            '{"id": "a", "features": [1.0], "impressions": 0, "positive_events": 0}\n'
            f'{{"id": "b", "features": [{token}], "impressions": 0, "positive_events": 0}}\n'
        )
        with pytest.raises(DataError, match=rf"corpus\.jsonl:2: .*{token}"):
            read_corpus(path)

    @pytest.mark.parametrize("literal, value", [("1e400", "inf"), ("-1e400", "-inf")])
    def test_overflowing_feature_refused_with_line(self, tmp_path, literal, value):
        # The decoder reads 1e400 as inf, which write_corpus never writes.
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            '{"id": "a", "features": [1.0, 0.5], "impressions": 0, "positive_events": 0}\n'
            f'{{"id": "b", "features": [{literal}, 0.5], "impressions": 0, '
            '"positive_events": 0}\n'
        )
        with pytest.raises(
            DataError, match=rf"corpus\.jsonl:2: bad corpus record: feature {value} is not finite"
        ):
            read_corpus(path)

    def test_finite_features_whose_sum_overflows_are_read(self, tmp_path):
        features = np.array([[1.7e308, 1.7e308], [-1.7e308, -1.7e308]])
        corpus = Corpus(["a", "b"], features, np.zeros(2, int), np.zeros(2, int))
        path = tmp_path / "corpus.jsonl"
        write_corpus(corpus, path)
        assert np.array_equal(read_corpus(path).features, corpus.features)
        path.write_text(path.read_text().replace("[-1.7e+308, ", "[1e400, "))
        with pytest.raises(DataError, match=r"corpus\.jsonl:2: .*feature inf is not finite"):
            read_corpus(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_feature_not_written(self, tmp_path, value):
        features = np.array([[1.0, 2.0], [value, 0.5]])
        corpus = Corpus(["a", "b"], features, np.zeros(2, int), np.zeros(2, int))
        path = tmp_path / "corpus.jsonl"
        with pytest.raises(DataError, match="features holds a non-finite value"):
            write_corpus(corpus, path)
        assert not path.exists()


class TestStrOrder:
    @given(st.lists(st.text(alphabet="ab\x00\xe9\u4e2d\U0001f600", max_size=4), max_size=40))
    @example(["r10-1", "r100-0", "r11-0", "r10-1"])
    @example(["a\x00", "a", "a\x00\x00", "a"])
    @settings(max_examples=300)
    def test_equals_sorted_by_key(self, ids):
        order = str_order(ids)
        assert order.dtype == np.intp
        assert order.tolist() == sorted(range(len(ids)), key=ids.__getitem__)
        assert str_order(tuple(ids)).tolist() == order.tolist()

    @pytest.mark.parametrize(
        "ids, repeated",
        [
            (["c", "b", "c", "a", "b"], "b"),
            # A <U array would read "a\x00" as "a"; "a" sorts first and repeats.
            (["a\x00", "a", "b", "b", "a"], "a"),
            (["a\x00", "a", "a\x00"], "a\x00"),
        ],
    )
    def test_id_order_names_the_first_repeat_in_str_order(self, ids, repeated):
        with pytest.raises(DataError) as refused:
            id_order(ids, "corpus")
        assert str(refused.value) == f"duplicate item ids in corpus: {repeated}"

    def test_id_order_of_distinct_ids_is_str_order(self):
        ids = ["a\x00", "r100-0", "a", "r10-0"]
        assert id_order(ids, "corpus").tolist() == [2, 0, 3, 1]
        assert id_order([], "corpus").tolist() == []


def corpus_of(ids, features, impressions, positive_events):
    """The Corpus of Python values: a float feature matrix and integer counts."""
    counts = (np.array(impressions), np.array(positive_events))
    return Corpus(ids, np.array(features, dtype=float), *counts)


def latents_of(ids, quality, true_threshold, engagement_prob):
    """The LatentColumns of Python values, each column a float array."""
    columns = (quality, true_threshold, engagement_prob)
    return LatentColumns(ids, *(np.array(c, dtype=float) for c in columns))


class TestConcat:
    def test_corpus(self):
        parts = [corpus_of(["b", "a"], [[1.0], [2.0]], [3, 0], [1, 0]),
                 corpus_of(["c"], [[4.0]], [5], [5])]
        joined = Corpus.concat(parts)
        hand_built = corpus_of(["b", "a", "c"], [[1.0], [2.0], [4.0]], [3, 0, 5], [1, 0, 5])
        assert core.columns_equal(joined, hand_built)  # a Corpus has no ==
        assert type(joined.ids) is tuple
        for column in (joined.features, joined.impressions, joined.positive_events):
            assert not column.flags.writeable
        assert core.columns_equal(Corpus.concat(parts[:1]), parts[0])

    def test_latent_columns(self):
        config = SimConfig(seed=2, items_per_round=50, rounds=3)
        rounds = [generate_corpus(config, k)[0] for k in range(3)]
        joined = LatentColumns.concat(rounds)
        assert joined == LatentColumns(
            [i for latents in rounds for i in latents.ids],
            *(np.concatenate([getattr(latents, name) for latents in rounds])
              for name in ("quality", "true_threshold", "engagement_prob")),
        )
        assert tuple(joined) == tuple(row for latents in rounds for row in latents)

    def test_observations(self):
        def observations(rounds, ids, served, positives, found):
            return Observations(np.array(rounds, np.int64), ids, np.array(served, np.int64),
                                np.array(positives, np.int64), np.array(found, bool))

        parts = [observations([0, 0], ["a", "b"], [100, 200], [3, 0], [True, False]),
                 observations([1], ["c"], [400], [7], [False]),
                 observations([], [], [], [], [])]
        joined = Observations.concat(parts)
        assert joined == observations([0, 0, 1], ["a", "b", "c"], [100, 200, 400], [3, 0, 7],
                                      [True, False, False])
        assert joined.discovered.dtype == bool and joined.round_index.dtype == np.int64

    def test_tables_of_other_widths_refused(self):
        parts = [corpus_of(["a"], [[1.0]], [0], [0]), corpus_of(["b"], [[1.0, 2.0]], [0], [0])]
        with pytest.raises(ValueError):
            Corpus.concat(parts)


def observations_table():
    return Observations(
        np.array([0, 1], np.int64), ["b", "a"], np.array([100, 400], np.int64),
        np.array([3, 0], np.int64), np.array([True, False]),
    )


#: Each table, and the rows its row views must equal: built by their
#: constructors, from Python values.
ROW_TABLES = {
    "Corpus": lambda: (
        corpus_of(["b", "a"], [[1.0, -2.0], [0.5, 3.0]], [5, 0], [2, 0]),
        [ItemRecord("b", np.array([1.0, -2.0]), EngagementStats(5, 2)),
         ItemRecord("a", np.array([0.5, 3.0]), EngagementStats(0, 0))],
    ),
    "LatentColumns": lambda: (
        latents_of(["b", "a"], [0.25, -1.0], [5.0, math.inf], [0.1, 0.9]),
        [LatentItem("b", 0.25, 5.0, 0.1), LatentItem("a", -1.0, math.inf, 0.9)],
    ),
    "AllocationPlan": lambda: (
        AllocationPlan.of_columns(
            ["a", "b", "c"],
            np.array([REGION_CODE[r] for r in (Region.HIGH, Region.LOW, Region.UNFUNDED)]),
            np.array([400, 150, 0]), np.array([400, NO_REQUEST, NO_REQUEST]),
            np.array([0.7, 0.1, math.nan]), 550, 5.5,
        ),
        [PlanEntry("a", Region.HIGH, 400, 400, 0.7), PlanEntry("b", Region.LOW, 150, None, 0.1),
         PlanEntry("c", Region.UNFUNDED, 0, None, None)],
    ),
    "Observations": lambda: (
        observations_table(),
        [Observation(0, "b", 100, 3, True), Observation(1, "a", 400, 0, False)],
    ),
    "ExperimentReport": lambda: (
        ExperimentReport("model", 0, [RoundMetrics(0, 2, 2, 1, 500, 5.0, {"High": 2})],
                         observations_table(), np.array([0, 2], np.int8)),
        [ItemRoundRow(0, "b", "High", 100, 3, True), ItemRoundRow(1, "a", "Low", 400, 0, False)],
    ),
}


def views_of(table):
    """The row views a table builds on first read."""
    return table.entries if isinstance(table, AllocationPlan) else (
        table.item_rows if isinstance(table, ExperimentReport) else table.rows
    )


def assert_same_fields(got, expected):
    """got is a row of expected's type holding equal values of the same types."""
    assert type(got) is type(expected)
    for f in dataclasses.fields(expected):
        value, want = getattr(got, f.name), getattr(expected, f.name)
        assert type(value) is type(want), f.name
        if isinstance(want, np.ndarray):
            assert np.array_equal(value, want) and value.dtype == want.dtype
        elif dataclasses.is_dataclass(want):
            assert_same_fields(value, want)
        else:
            assert value == want or (value != value and want != want), f.name


class TestRowViews:
    @pytest.mark.parametrize("name", sorted(ROW_TABLES))
    def test_views_equal_constructed_rows(self, name):
        table, expected = ROW_TABLES[name]()
        views = views_of(table)
        assert type(views) is tuple and views_of(table) is views  # built once
        assert len(views) == len(expected)
        for view, row in zip(views, expected):
            assert_same_fields(view, row)
            # A view is a full row: replace builds a row through the constructor.
            assert_same_fields(dataclasses.replace(view), row)
            first = dataclasses.fields(view)[0].name
            changed = dataclasses.replace(view, **{first: getattr(expected[-1], first)})
            assert getattr(changed, first) == getattr(expected[-1], first)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(view, first, getattr(view, first))

    def test_corpus_row_features_read_only(self):
        corpus, _ = ROW_TABLES["Corpus"]()
        for record in corpus:
            assert record.impressions_received == 0
            assert not record.features.flags.writeable
            with pytest.raises(ValueError):
                record.features[0] = 9.0
        assert np.array_equal(corpus.features, [[1.0, -2.0], [0.5, 3.0]])

    def test_builder_runs_no_init(self):
        # Rows of checked columns are not checked again: the constructor
        # would refuse this row.
        (row,) = core.row_views(EngagementStats, [1], [5])
        assert (row.impressions, row.positive_events) == (1, 5)
        with pytest.raises(DataError):
            EngagementStats(1, 5)

    def test_builder_wants_a_column_per_field(self):
        with pytest.raises(ValueError):
            core.row_views(EngagementStats, [1])


class TestIdsAreStrings:
    @pytest.mark.parametrize("ids, row", [([7, "a"], 0), (["a", None], 1), (["a", b"b"], 1)])
    def test_non_string_id_refused_naming_its_row(self, ids, row):
        message = f"column ids must be a sequence of str, not row {row}'s {ids[row]!r}"
        with pytest.raises(DataError, match=f"^corpus {re.escape(message)}$"):
            corpus_of(ids, [[0.0], [0.0]], [0, 0], [0, 0])
        with pytest.raises(DataError, match=f"^latent {re.escape(message)}$"):
            latents_of(ids, [0.0, 0.0], [1.0, 1.0], [0.5, 0.5])

    def test_str_subclass_accepted(self):
        ids = tuple(np.array(["a", "b"]))  # numpy's str_ is a str
        assert corpus_of(ids, [[0.0], [0.0]], [0, 0], [0, 0]).ids == ("a", "b")
        assert latents_of(ids, [0.0, 0.0], [1.0, 1.0], [0.5, 0.5]).ids == ("a", "b")


class TestLatentColumns:
    def test_row_view(self):
        threshold = np.array([5.0, math.inf])
        latents = LatentColumns(["b", "a"], np.array([0.25, -1.0]), threshold, np.array([0.1, 0.9]))
        threshold[0] = 99.0  # the caller's array was copied, not frozen
        assert len(latents) == 2 and "rows" not in vars(latents)  # len reads the ids
        rows = (LatentItem("b", 0.25, 5.0, 0.1), LatentItem("a", -1.0, math.inf, 0.9))
        assert tuple(latents) == rows and latents[1] == rows[1] and latents[:1] == rows[:1]
        assert latents.rows is latents.rows  # built once
        assert all(type(lat.quality) is float for lat in latents)
        assert type(latents.ids) is tuple
        for name in ("quality", "true_threshold", "engagement_prob"):
            column = getattr(latents, name)
            assert column.dtype == np.float64 and not column.flags.writeable
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(latents, name, column.copy())

    def test_equality_compares_every_column(self):
        def make(**columns):
            base = dict(ids=["a", "b"], quality=[0.0, 1.0], true_threshold=[math.inf, 3.0],
                        engagement_prob=[0.1, 0.2])
            return latents_of(**{**base, **columns})

        assert make() == make() and make(ids=("a", "b")) == make()
        for name, column in [("ids", ["a", "c"]), ("quality", [0.0, 2.0]),
                             ("true_threshold", [5.0, 3.0]), ("engagement_prob", [0.1, 0.3])]:
            assert make() != make(**{name: column}), name
        assert make() != list(make())

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("quality", math.nan, "non-finite quality"),
            ("quality", math.inf, "non-finite quality"),
            ("quality", -math.inf, "non-finite quality"),
            ("true_threshold", math.nan, "NaN threshold"),
            ("true_threshold", -1.0, "negative threshold"),
            ("true_threshold", -math.inf, "negative threshold"),
            ("engagement_prob", 1.5, r"engagement_prob outside \[0, 1\]"),
            ("engagement_prob", -0.1, r"engagement_prob outside \[0, 1\]"),
            ("engagement_prob", math.nan, r"engagement_prob outside \[0, 1\]"),
            ("engagement_prob", math.inf, r"engagement_prob outside \[0, 1\]"),
        ],
    )
    def test_out_of_range_value_refused_naming_the_first_item(self, name, value, message):
        columns = {"quality": [0.0] * 3, "true_threshold": [0.0, 5.0, math.inf],
                   "engagement_prob": [0.0, 0.5, 1.0]}
        columns[name] = columns[name][:1] + [value, value]
        with pytest.raises(DataError, match=f"^{message} for item b$"):
            latents_of(["a", "b", "c"], **columns)

    def test_out_of_range_item_named_by_its_first_bad_column(self):
        with pytest.raises(DataError, match="^non-finite quality for item b$"):
            latents_of(["a", "b"], [0.0, math.nan], [1.0, math.nan], [0.5, 2.0])

    @pytest.mark.parametrize("seed, round_index", [(0, 0), (1, 3), (7, 100)])
    def test_generated_tables_accepted(self, seed, round_index):
        config = SimConfig(seed=seed, items_per_round=2000, threshold_mu=12.0,
                           engagement_a=40.0, engagement_b=0.0)
        latents, _ = generate_corpus(config, round_index)
        assert latents.engagement_prob.max() == 1.0  # the top of its range
        columns = (latents.quality, latents.true_threshold, latents.engagement_prob)
        assert LatentColumns(latents.ids, *(c.copy() for c in columns)) == latents

    @pytest.mark.parametrize("name", ["quality", "true_threshold", "engagement_prob"])
    def test_columns_of_unequal_length_refused(self, name):
        columns = {"quality": [0.0], "true_threshold": [1.0], "engagement_prob": [0.5]}
        columns[name] = [0.5, 0.5]
        with pytest.raises(DataError, match=f"latent columns differ in length: 1 ids, 2 {name}"):
            latents_of(["a"], **columns)


class TestJsonLines:
    # A format over a namespace of columns, of each kind but FINITE_OR_NULL.
    FORMAT = LinesFormat(
        SimpleNamespace, "row",
        {"b": ("b", FINITE), "a": ("a", FINITE_LIST), "id": ("id", ID), "k": ("k", COUNT)},
        at_most={},
    )
    COLUMNS = {
        "b": np.array([1.5, -0.0]),
        "a": np.array([[0.1, -2.0], [1e-05, 2.0]]),
        "id": ["x", 'q"\\\u00e9\u2603'],
        "k": np.array([3, -7]),
    }
    ROWS = [
        {"b": 1.5, "a": [0.1, -2.0], "id": "x", "k": 3},
        {"b": -0.0, "a": [1e-05, 2.0], "id": 'q"\\\u00e9\u2603', "k": -7},
    ]

    def test_writes_what_json_dumps_writes(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        write_lines(SimpleNamespace(**self.COLUMNS), self.FORMAT, path)
        expected = "".join(json.dumps(row, sort_keys=True) + "\n" for row in self.ROWS)
        assert path.read_text(encoding="utf-8") == expected

    def test_round_trip_skips_blank_lines(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        corpus = small_corpus(2)
        write_corpus(corpus, path)
        first, second = path.read_text().splitlines(keepends=True)
        path.write_text("\n" + first + " \t\n" + second + "\n  \n")
        loaded = read_corpus(path)
        assert loaded.ids == corpus.ids
        for name in ("features", "impressions", "positive_events"):
            assert np.array_equal(getattr(loaded, name), getattr(corpus, name))

    def test_parse_errors_name_path_and_line(self, tmp_path):
        good = '{"features": [1.0], "id": "a", "impressions": 3, "positive_events": 1}\n'
        path = tmp_path / "rows.jsonl"
        path.write_text(good + "\n" + '{"features": \n')
        with pytest.raises(DataError, match=r"rows\.jsonl:3: bad corpus record: Expecting value"):
            read_corpus(path)
        path.write_text(good + '{"id": "b", "impressions": 0, "positive_events": 0}\n')
        message = "rows.jsonl:2: bad corpus record: 'features'"
        with pytest.raises(DataError, match=re.escape(message)):
            read_corpus(path)
        # 1e400 decodes to inf, which is no count.
        path.write_text(good.replace('"impressions": 3', '"impressions": 1e400'))
        message = "rows.jsonl:1: bad corpus record: impressions must be a non-negative integer"
        with pytest.raises(DataError, match=re.escape(message + ", not inf")):
            read_corpus(path)
        # A byte that is not UTF-8 is refused with its line, not raised bare.
        path.write_bytes(good.encode() + b'{"id": "\xff"}\n')
        with pytest.raises(DataError, match=r"rows\.jsonl:2: bad corpus record: 'utf-8' codec"):
            read_corpus(path)

    def test_first_bad_line_named_in_file_order(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            '{"features": [1.0, 2.0], "id": "a", "impressions": 0, "positive_events": 0}\n'
            '{"features": [1.0, "x"], "id": "b", "impressions": 0, "positive_events": 0}\n'
            '{"features": [1.0, 2.0], "id": 7, "impressions": 0, "positive_events": 0}\n'
        )
        message = "corpus.jsonl:2: bad corpus record: features must be a flat list of numbers"
        with pytest.raises(DataError, match=re.escape(message)):
            read_corpus(path)
        path = tmp_path / "latents.jsonl"
        path.write_text(
            '{"engagement_prob": 0.1, "id": "a", "quality": 0.5, "threshold": null}\n'
            '{"engagement_prob": 0.1, "id": "b", "quality": "0.5", "threshold": 1.0}\n'
            '{"engagement_prob": 0.1, "id": 7, "quality": 0.5, "threshold": 1.0}\n'
        )
        message = "latents.jsonl:2: bad latent record: quality must be a number, not '0.5'"
        with pytest.raises(DataError, match=re.escape(message)):
            load_latents(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ('"id": 7, "impressions": -1, "positive_events": 0, "features": [1.0]',
             "id must be a string, not 7"),
            ('"id": "b", "impressions": -1, "positive_events": 2, "features": ["x"]',
             "impressions must be a non-negative integer, not -1"),
            ('"id": "b", "impressions": 1, "positive_events": 2, "features": ["x"]',
             "positive_events cannot exceed impressions"),
        ],
        ids=["id-before-counts", "counts-before-features", "bound-before-features"],
    )
    def test_row_checked_key_by_key(self, tmp_path, row, message):
        path = tmp_path / "corpus.jsonl"
        path.write_text("{" + row + "}\n")
        with pytest.raises(DataError) as refused:
            read_corpus(path)
        assert str(refused.value) == f"{path}:1: bad corpus record: {message}"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_not_written(self, tmp_path, value):
        path = tmp_path / "rows.jsonl"
        columns = SimpleNamespace(**self.COLUMNS, x=np.array([1.0, value]))
        fmt = self.FORMAT._replace(keys={**self.FORMAT.keys, "x": ("x", FINITE)})
        with pytest.raises(DataError, match="x holds a non-finite value"):
            write_lines(columns, fmt, path)
        assert not path.exists()

    def test_string_column_of_non_strings_not_written(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        with pytest.raises(DataError, match="id must hold strings"):
            write_lines(SimpleNamespace(**{**self.COLUMNS, "id": ["a", 7]}), self.FORMAT, path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "columns",
        [
            [np.zeros(1), ["a", "b"]],
            [np.zeros((3, 2)), ["a", "b"]],
            [np.zeros(2), ["a", "b"], np.arange(3)],
        ],
    )
    def test_columns_of_unequal_length_not_written(self, tmp_path, columns):
        # Zipped, they would write as many lines as the shortest column has.
        path = tmp_path / "rows.jsonl"
        with pytest.raises(DataError, match="rows.jsonl: columns differ in length"):
            write_rows(" ".join(["%r"] * len(columns)) + "\n", columns, path)
        assert not path.exists()


def small_corpus(n):
    return Corpus(
        [f"i{k}" for k in range(n)], np.arange(2.0 * n).reshape(n, 2) - 3.5,
        np.full(n, 5), np.arange(n) % 6,
    )


def small_latents(n):
    threshold = np.arange(n) * 10.5
    threshold[::3] = math.inf
    return LatentColumns(
        [f"i{k}" for k in range(n)], np.linspace(-1, 1, n), threshold, np.linspace(0, 0.5, n)
    )


# Per file format: a maker of n rows, the writer, the reader, the columns to
# compare, and a bad value for one key with the message that refuses it.
FORMATS = {
    "corpus": (
        small_corpus, write_corpus, read_corpus,
        ("ids", "features", "impressions", "positive_events"),
        "corpus record", "id", 7, "id must be a string, not 7",
    ),
    "latents": (
        small_latents, write_latents, load_latents,
        ("ids", "quality", "true_threshold", "engagement_prob"),
        "latent record", "quality", "0.5", "quality must be a number, not '0.5'",
    ),
}


class TestBlockEdges:
    """The two JSON-lines formats, written 4 rows at a time."""

    @pytest.fixture(autouse=True)
    def blocks_of_four(self, monkeypatch):
        monkeypatch.setattr(core, "WRITE_BLOCK_ROWS", 4)

    @pytest.mark.parametrize("n", [4, 9], ids=["one-block", "three-blocks"])
    @pytest.mark.parametrize("fmt", FORMATS)
    def test_round_trip(self, tmp_path, fmt, n):
        make, write, read, fields, *_ = FORMATS[fmt]
        original = make(n)
        path = tmp_path / "rows.jsonl"
        write(original, path)
        assert path.read_text().count("\n") == n
        loaded = read(path)
        for field in fields:
            assert np.array_equal(np.asarray(getattr(loaded, field)),
                                  np.asarray(getattr(original, field)))

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_bad_row_in_second_block_named_at_its_line(self, tmp_path, fmt):
        make, write, read, _, what, key, value, message = FORMATS[fmt]
        path = tmp_path / "rows.jsonl"
        write(make(10), path)
        lines = path.read_text().splitlines(keepends=True)
        for k in (5, 6):  # the second and third rows of the second block
            row = json.loads(lines[k])
            row[key] = value
            lines[k] = json.dumps(row) + "\n"
        # Line 1 and lines 5 and 6 are blank, so row 5 is on line 9.
        path.write_text("\n" + "".join(lines[:3]) + "  \n\n" + "".join(lines[3:]))
        with pytest.raises(DataError, match=re.escape(f"rows.jsonl:9: bad {what}: {message}")):
            read(path)


FLOATS = st.one_of(
    st.sampled_from([-0.0, 1e-05, 5e-324, 1.7976931348623157e308, 2.0, -3.0, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False),
)
PROBABILITIES = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 1e-05, 0.1, 1.0]), st.floats(0.0, 1.0)
)
IDS = st.text(st.one_of(st.sampled_from('"\\\u00e9\u2603\x00\n'), st.characters()), max_size=6)


def assert_json_lines(write, columns, rows):
    """write(columns, path), with blocks of 3 rows, writes json.dumps of each row."""
    with tempfile.TemporaryDirectory() as tmp, patch.object(core, "WRITE_BLOCK_ROWS", 3):
        path = Path(tmp) / "rows.jsonl"
        write(columns, path)
        text = path.read_text(encoding="utf-8")
    assert text == "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)


def int64_array(values):
    return np.array(values, dtype=np.int64)


def training_sets():
    """(features, bucket, label) of up to 8 rows; any finite features, any bucket."""
    return st.integers(0, 8).flatmap(
        lambda n: st.tuples(
            matrices(n).map(lambda m: np.array(m[0], dtype=float).reshape(n, m[1])),
            st.lists(st.integers(0, 2**63 - 1), min_size=n, max_size=n).map(int64_array),
            st.lists(st.integers(0, 1), min_size=n, max_size=n).map(int64_array),
        )
    )


def matrices(n):
    return st.integers(0, 3).flatmap(
        lambda dim: st.lists(st.lists(FLOATS, min_size=dim, max_size=dim),
                             min_size=n, max_size=n).map(lambda rows: (rows, dim))
    )


class TestWriterBytes:
    """Each JSON-lines writer writes, line for line, json.dumps(row, sort_keys=True),
    and the training set, an .npz, reads back bit for bit."""

    @given(st.data())
    @settings(deadline=None, max_examples=60)
    def test_corpus(self, data):
        n = data.draw(st.integers(0, 8))
        features, dim = data.draw(matrices(n))
        ids = data.draw(st.lists(IDS, min_size=n, max_size=n))
        # A corpus holds only counts its reader takes: positives at most impressions.
        impressions = data.draw(st.lists(st.integers(0, 2**62), min_size=n, max_size=n))
        positives = [data.draw(st.integers(0, m)) for m in impressions]
        counts = (int64_array(impressions), int64_array(positives))
        corpus = Corpus(ids, np.array(features).reshape(n, dim), *counts)
        rows = [
            {"id": i, "features": f, "impressions": m, "positive_events": p}
            for i, f, m, p in zip(ids, features, impressions, positives)
        ]
        assert_json_lines(write_corpus, corpus, rows)

    @given(training_sets())
    @example((np.empty((0, 0)), int64_array([]), int64_array([])))
    @example((np.empty((0, 3)), int64_array([]), int64_array([])))
    @example(
        (np.array([[-0.0, 5e-324, 1.7976931348623157e308]]), int64_array([2**63 - 1]),
         int64_array([1]))
    )
    @settings(deadline=None, max_examples=60)
    def test_training_set(self, columns):
        # The path has no .npz suffix, which np.savez would add to a path string.
        examples = TrainingSet(*columns)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "train"
            save_examples(examples, str(path))
            assert [p.name for p in Path(tmp).iterdir()] == ["train"]
            loaded = load_examples(str(path))
            save_examples(loaded, Path(tmp) / "again")
            assert (Path(tmp) / "again").read_bytes() == path.read_bytes()
        for name in ("features", "bucket", "label"):
            column, original = getattr(loaded, name), getattr(examples, name)
            assert column.dtype == original.dtype and column.shape == original.shape
            assert column.tobytes() == original.tobytes()

    @given(st.data())
    @settings(deadline=None, max_examples=60)
    def test_latents(self, data):
        n = data.draw(st.integers(0, 8))
        ids = data.draw(st.lists(IDS, min_size=n, max_size=n))
        # The values a LatentColumns holds: a probability in [0, 1] and a
        # threshold >= 0, or inf.
        quality = data.draw(st.lists(FLOATS, min_size=n, max_size=n))
        prob = data.draw(st.lists(PROBABILITIES, min_size=n, max_size=n))
        threshold = data.draw(st.lists(
            st.one_of(FLOATS.filter(lambda t: t >= 0.0), st.just(math.inf)),
            min_size=n, max_size=n,
        ))
        latents = LatentColumns(ids, np.array(quality), np.array(threshold), np.array(prob))
        rows = [
            {"id": i, "quality": q, "threshold": None if t == math.inf else t,
             "engagement_prob": p}
            for i, q, t, p in zip(ids, quality, threshold, prob)
        ]
        assert_json_lines(write_latents, latents, rows)


class TestWriterBytesOfFixedFiles:
    def test_latents_of_unequal_length_not_written(self):
        # The table refuses them, so no writer is ever handed them.
        with pytest.raises(DataError, match="latent columns differ in length: 3 ids, 1 quality"):
            LatentColumns(
                ["a", "b", "c"], np.array([1.0]), np.array([2.0, 3.0, 4.0]),
                np.array([0.1, 0.2, 0.3]),
            )

    def test_equal_length_corpus_and_latents_keep_their_bytes(self, tmp_path):
        corpus = corpus_of(["a", "b"], [[0.5, -1.0], [2.0, 1e-05]], [3, 0], [1, 0])
        write_corpus(corpus, tmp_path / "corpus.jsonl")
        assert (tmp_path / "corpus.jsonl").read_bytes() == (
            b'{"features": [0.5, -1.0], "id": "a", "impressions": 3, "positive_events": 1}\n'
            b'{"features": [2.0, 1e-05], "id": "b", "impressions": 0, "positive_events": 0}\n'
        )
        latents = LatentColumns(
            ["a", "b"], np.array([0.25, -1.5]), np.array([120.0, math.inf]), np.array([0.1, 0.9])
        )
        write_latents(latents, tmp_path / "latents.jsonl")
        assert (tmp_path / "latents.jsonl").read_bytes() == (
            b'{"engagement_prob": 0.1, "id": "a", "quality": 0.25, "threshold": 120.0}\n'
            b'{"engagement_prob": 0.9, "id": "b", "quality": -1.5, "threshold": null}\n'
        )


class TestJsonDocuments:
    DOCUMENT = {"z": [1, 2.5, None], "a": {"y": "text", "b": -0.1}, "n": 3}

    def test_writes_what_json_dumps_writes(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json(self.DOCUMENT, path)
        expected = json.dumps(self.DOCUMENT, indent=2, sort_keys=True) + "\n"
        assert path.read_text(encoding="utf-8") == expected

    def test_round_trip(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json(self.DOCUMENT, path)
        assert read_json(path) == self.DOCUMENT

    def test_malformed_document_names_path(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{"k": 1,\n')
        with pytest.raises(DataError, match=r"doc\.json: bad JSON document"):
            read_json(path)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_token_rejected(self, tmp_path, token):
        path = tmp_path / "doc.json"
        path.write_text(f'{{"k": [1.0, {token}]}}\n')
        with pytest.raises(DataError, match=rf"doc\.json: .*{token}"):
            read_json(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_not_written(self, tmp_path, value):
        path = tmp_path / "doc.json"
        with pytest.raises(ValueError):
            write_json({"x": [1.0, value]}, path)
        assert not path.exists()


class TestCsvTable:
    def test_none_empty_float_repr_bare_newline(self, tmp_path):
        path = tmp_path / "table.csv"
        floats = [0.1, 1 / 3, 1e-17, 2.0]
        write_csv(["id", "n", "x"], [["a", None, f] for f in floats] + [["b", 7, None]], path)
        lines = [f"a,,{f!r}\n" for f in floats] + ["b,7,\n"]
        assert path.read_bytes() == ("id,n,x\n" + "".join(lines)).encode()


class TestConfigDict:
    def test_round_trip(self):
        config = cfg(total_budget=5000, cf_high=0.8)
        schema = geometric_schema()
        config2, schema2 = config_from_dict(config_to_dict(config, schema))
        assert config2 == config
        assert schema2 == schema

    def test_cost_function_has_no_snapshot(self):
        config = cfg(cost_fn=lambda x: 0.001 * x * x)
        with pytest.raises(ConfigError, match="cost function"):
            config_to_dict(config, geometric_schema())

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict({"budget_typo": 1})

    @pytest.mark.parametrize(
        "raw",
        [
            {"total_budget": "abc"},
            {"max_cost": None},
            {"min_cap": math.inf},
            {"cf_high": [0.5]},
            {"bucket_edges": 5},
            {"bucket_representatives": ["x", 1, 2, 3, 4, 5]},
            # Values that int() or float() would truncate or convert.
            {"min_cap": 100.7},
            {"total_budget": True},
            {"cf_high": "0.6"},
            {"max_cost": False},
            {"bucket_edges": [0, 100.5, 200, 400, 800, 1600]},
            {"bucket_representatives": [99, 199, 399, 799, 1599, 1600.0]},
            {"bucket_representatives": [True, 199, 399, 799, 1599, 1600]},
        ],
    )
    def test_wrong_value_type_is_config_error(self, raw):
        with pytest.raises(ConfigError, match=f"bad config value: .*{next(iter(raw))}"):
            config_from_dict(raw)

    def test_float_keys_take_integers(self):
        config, _ = config_from_dict({"max_cost": 2500, "cf_high": 1, "cf_low": 0})
        assert (config.max_cost, config.cf_high, config.cf_low) == (2500.0, 1.0, 0.0)
        assert all(type(v) is float for v in (config.max_cost, config.cf_high, config.cf_low))

    def test_new_edges_rederive_representatives(self):
        config, schema = config_from_dict(
            {"bucket_edges": [0, 50, 100, 200], "max_cap": 400}
        )
        assert schema.representative == (49, 99, 199, 400)
        validate_config(config, schema)


@pytest.mark.parametrize(
    "record, field, value",
    [
        (EngagementStats(3, 1), "impressions", 4),
        (ItemRecord("a", np.array([1.0])), "id", "b"),
        (PlanEntry("a", Region.HIGH, 100, 100, 0.7), "granted", 200),
        (LatentItem("a", 0.1, 5.0, 0.2), "quality", 0.3),
        (Observation(0, "a", 100, 3, False), "served", 200),
        (ItemRoundRow(0, "a", "High", 100, 3, False), "granted", 200),
    ],
    ids=lambda v: type(v).__name__ if dataclasses.is_dataclass(v) else None,
)
def test_per_item_records_are_slotted_and_frozen(record, field, value):
    assert not hasattr(record, "__dict__")
    assert set(type(record).__slots__) == {f.name for f in dataclasses.fields(record)}
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, field, value)
    changed = dataclasses.replace(record, **{field: value})
    assert getattr(changed, field) == value != getattr(record, field)
    for other in dataclasses.fields(record):
        if other.name != field:
            assert getattr(changed, other.name) is getattr(record, other.name)

import dataclasses
import json
import math
import re
import tempfile
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from coldstart_explore.core import (
    NO_REQUEST,
    PLAN_REGIONS,
    AllocationConfig,
    AllocationPlan,
    BucketSchema,
    ConfigError,
    Corpus,
    DataError,
    EngagementStats,
    ItemRecord,
    PlanEntry,
    Region,
    bucket_of,
    config_from_dict,
    config_to_dict,
    cost_of,
    engagement_block,
    geometric_schema,
    model_inputs,
    read_corpus,
    read_json,
    read_jsonl,
    save_corpus,
    static_matrix,
    validate_config,
    verify_plan,
    write_csv,
    write_json,
    write_corpus,
    write_jsonl_columns,
)
from coldstart_explore import core
from coldstart_explore.model import TrainingSet, load_examples, save_examples
from coldstart_explore.simulator import (
    ItemRoundRow,
    LatentColumns,
    LatentItem,
    Observation,
    read_latents,
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
        [PLAN_REGIONS.index(region) for _, region, _ in rows],
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
        ],
        ids=["passes", "duplicate", "zero-grant-funded", "unfunded-with-traffic",
             "below-min-cap", "above-max-cap", "total-allocated", "total-cost",
             "over-budget", "over-cost", "negative", "first-bad-row", "first-bad-row-2"],
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
            AllocationPlan.of_columns(["a", "b"], [0], [100], [100], [0.5], 100, 1.0)

    @pytest.mark.parametrize(
        "entry, message",
        [
            (PlanEntry("a", H, 100.5, 100), "plan granted must be integers, not float64"),
            (PlanEntry("a", H, 100, 100.0), "plan requested must be integers, not float64"),
        ],
    )
    def test_fractional_grant_or_request_refused_not_truncated(self, entry, message):
        with pytest.raises(DataError, match=re.escape(message)):
            AllocationPlan([entry], 100, 1.0)


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
        corpus = Corpus(["d", "b", "a", "c"], features, [0, 5, 9, 2], [0, 1, 9, 0])
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
        with pytest.raises(DataError, match="columns differ in length"):
            Corpus(["a", "b"], np.zeros((2, 1)), [0, 0], [0])
        with pytest.raises(DataError, match="matrix"):
            Corpus(["a", "b"], np.zeros(2), [0, 0], [0, 0])

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
        corpus = Corpus(["a", "b"], [[1.7e308, 1.7e308], [-1.7e308, -1.7e308]], [0, 0], [0, 0])
        path = tmp_path / "corpus.jsonl"
        write_corpus(corpus, path)
        assert np.array_equal(read_corpus(path).features, corpus.features)
        path.write_text(path.read_text().replace("[-1.7e+308, ", "[1e400, "))
        with pytest.raises(DataError, match=r"corpus\.jsonl:2: .*feature inf is not finite"):
            read_corpus(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_feature_not_written(self, tmp_path, value):
        corpus = Corpus(["a", "b"], [[1.0, 2.0], [value, 0.5]], [0, 0], [0, 0])
        path = tmp_path / "corpus.jsonl"
        with pytest.raises(DataError, match="features holds a non-finite value"):
            write_corpus(corpus, path)
        assert not path.exists()


class TestJsonLines:
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
        write_jsonl_columns(self.COLUMNS, path)
        expected = "".join(json.dumps(row, sort_keys=True) + "\n" for row in self.ROWS)
        assert path.read_text(encoding="utf-8") == expected

    def test_round_trip_skips_blank_lines(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        write_jsonl_columns(self.COLUMNS, path)
        first, second = path.read_text().splitlines(keepends=True)
        path.write_text("\n" + first + " \t\n" + second + "\n  \n")
        assert read_jsonl(path, dict, "row") == self.ROWS

    def test_parse_errors_name_path_and_line(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"k": 1}\n\n{"k": \n')
        with pytest.raises(DataError, match=r"rows\.jsonl:3: bad row"):
            read_jsonl(path, dict, "row")
        path.write_text('{"k": 1}\n{"j": 2}\n')
        with pytest.raises(DataError, match=r"rows\.jsonl:2: bad row: 'k'"):
            read_jsonl(path, lambda row: row["k"], "row")
        # 1e400 decodes to inf, and int() of inf raises OverflowError.
        path.write_text('{"k": 1e400}\n')
        with pytest.raises(DataError, match=r"rows\.jsonl:1: bad row: .*infinity"):
            read_jsonl(path, lambda row: int(row["k"]), "row")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_not_written(self, tmp_path, value):
        path = tmp_path / "rows.jsonl"
        with pytest.raises(DataError, match="x holds a non-finite value"):
            write_jsonl_columns({"x": np.array([1.0, value]), "id": ["a", "b"]}, path)
        assert not path.exists()

    def test_string_column_of_non_strings_not_written(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        with pytest.raises(DataError, match="id must hold strings"):
            write_jsonl_columns({"x": np.zeros(2), "id": ["a", 7]}, path)
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
        small_latents, write_latents, read_latents,
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
IDS = st.text(st.one_of(st.sampled_from('"\\\u00e9\u2603\x00\n'), st.characters()), max_size=6)


def assert_json_lines(write, columns, rows):
    """write(columns, path), with blocks of 3 rows, writes json.dumps of each row."""
    with tempfile.TemporaryDirectory() as tmp, patch.object(core, "WRITE_BLOCK_ROWS", 3):
        path = Path(tmp) / "rows.jsonl"
        write(columns, path)
        text = path.read_text(encoding="utf-8")
    assert text == "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)


def training_sets():
    """(features, bucket, label) of up to 8 rows; any finite features, any bucket."""
    return st.integers(0, 8).flatmap(
        lambda n: st.tuples(
            matrices(n).map(lambda m: np.array(m[0], dtype=float).reshape(n, m[1])),
            st.lists(st.integers(0, 2**63 - 1), min_size=n, max_size=n),
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
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
        counts = data.draw(st.lists(st.integers(0, 2**62), min_size=2 * n, max_size=2 * n))
        impressions, positives = counts[:n], counts[n:]
        corpus = Corpus(ids, np.array(features).reshape(n, dim), impressions, positives)
        rows = [
            {"id": i, "features": f, "impressions": m, "positive_events": p}
            for i, f, m, p in zip(ids, features, impressions, positives)
        ]
        assert_json_lines(write_corpus, corpus, rows)

    @given(training_sets())
    @example((np.empty((0, 0)), [], []))
    @example((np.empty((0, 3)), [], []))
    @example((np.array([[-0.0, 5e-324, 1.7976931348623157e308]]), [2**63 - 1], [1]))
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
        quality, prob = (data.draw(st.lists(FLOATS, min_size=n, max_size=n)) for _ in "qp")
        threshold = data.draw(
            st.lists(st.one_of(FLOATS, st.just(math.inf)), min_size=n, max_size=n)
        )
        latents = LatentColumns(ids, np.array(quality), np.array(threshold), np.array(prob))
        rows = [
            {"id": i, "quality": q, "threshold": None if t == math.inf else t,
             "engagement_prob": p}
            for i, q, t, p in zip(ids, quality, threshold, prob)
        ]
        assert_json_lines(write_latents, latents, rows)


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

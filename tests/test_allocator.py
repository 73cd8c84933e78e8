import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from coldstart_explore import allocator
from coldstart_explore.allocator import (
    GrowthStats,
    adapt_low_fraction,
    allocate,
    low_grants,
    plan_columns,
    plan_corpus,
    plan_summary,
)
from coldstart_explore.core import (
    PLAN_REGIONS,
    AllocationConfig,
    AllocationPlan,
    BucketSchema,
    ConfigError,
    Corpus,
    DataError,
    EngagementStats,
    ItemRecord,
    Region,
    cost_of,
    geometric_schema,
    verify_plan,
)
from coldstart_explore.metrics import oracle_allocate, uniform_allocate
from coldstart_explore.model import invert_cap, predict_curve
from coldstart_explore.simulator import SimConfig, generate_corpus, serve_round
from conftest import make_model, make_record
from per_item import item_feature_vector, monotone_curve
from test_acceptance import _greedy_instance, random_valid_instance

SCHEMA = geometric_schema()
SCHEMA3 = BucketSchema(edges=(0, 150, 450), representative=(100, 400, 1600))


def cfg(**overrides) -> AllocationConfig:
    base = dict(
        total_budget=10_000,
        max_cost=10_000.0,
        min_cap=100,
        max_cap=1600,
        cf_high=0.9,
        cf_low=0.2,
        low_region_fraction=0.0,
    )
    base.update(overrides)
    return AllocationConfig(**base)


def region_of(p_at_maxcap: float) -> Region:
    return PLAN_REGIONS[int(allocator._classify(np.array([p_at_maxcap]), cfg())[0])]


class TestClassifyRegion:
    def test_high(self):
        assert region_of(0.97) is Region.HIGH

    def test_moderate(self):
        assert region_of(0.5) is Region.MODERATE

    def test_low(self):
        assert region_of(0.1) is Region.LOW

    def test_boundaries_fall_into_moderate(self):
        assert region_of(0.9) is Region.MODERATE
        assert region_of(0.2) is Region.MODERATE

    def test_partition_is_exhaustive_and_exclusive(self):
        p_at_maxcap = np.random.default_rng(0).uniform(0, 1, size=300)
        regions = allocator._classify(p_at_maxcap, cfg())
        for p, code in zip(p_at_maxcap.tolist(), regions.tolist()):
            expected = (
                Region.HIGH
                if p > 0.9
                else Region.LOW
                if p < 0.2
                else Region.MODERATE
            )
            assert PLAN_REGIONS[code] is expected


def request_of(bucket_logits) -> tuple[Region, int]:
    """Region and request plan_columns gives one item whose curve is the
    sigmoid of bucket_logits, on SCHEMA3."""
    model = make_model(SCHEMA3, [0.0, 0.0, 0.0], bucket_logits)
    plan = plan_columns(["a"], np.zeros((1, 3)), model, cfg(), SCHEMA3)
    return PLAN_REGIONS[int(plan.region[0])], int(plan.requested[0])


class TestRequestedTraffic:
    def test_high_inverts_curve(self):
        # curve ~ [0.5, 0.92, 0.97]: the first bucket at cf_high = 0.9 is the second
        assert request_of([0.0, 2.44, 3.48]) == (Region.HIGH, 400)

    def test_moderate_requests_max_cap(self):
        # curve ~ [0.2, 0.3, 0.5]
        assert request_of([-1.39, -0.85, 0.0]) == (Region.MODERATE, 1600)

    def test_high_with_saturated_curve_requests_min_cap(self):
        assert request_of([40.0, 40.0, 40.0]) == (Region.HIGH, 100)


def water_fill_reference(weights, budget, cap):
    """Closed-form water level: grant_i = min(cap, level * w_i).

    Scans saturation points instead of iterating, so it is an independent
    derivation of the same fixed point.
    """
    n = len(weights)
    if cap * n <= budget:
        return [float(cap)] * n
    order = sorted(range(n), key=lambda i: -weights[i])  # saturate biggest first
    saturated = []
    for m in range(n + 1):
        rest = order[m:]
        rest_weight = sum(weights[i] for i in rest)
        spent = cap * m
        if rest_weight == 0:
            level = math.inf if spent < budget else 0.0
        else:
            level = (budget - spent) / rest_weight
        # valid iff saturated items would overflow at this level and rest would not
        ok_sat = all(level * weights[i] >= cap - 1e-12 for i in order[:m])
        ok_rest = all(level * weights[i] <= cap + 1e-12 for i in rest)
        if ok_sat and ok_rest and spent <= budget:
            grants = [0.0] * n
            for i in order[:m]:
                grants[i] = float(cap)
            for i in rest:
                grants[i] = level * weights[i]
            return grants
    raise AssertionError("no consistent water level found")


def rates_of(items):
    """The positive rates of (id, EngagementStats) pairs: the rate column
    low_grants weights."""
    return np.array([stats.positive_rate for _, stats in items], dtype=float)


class TestAllocateLow:
    def test_proportional_no_caps(self):
        items = [
            ("a", EngagementStats(100, 20)),
            ("b", EngagementStats(100, 10)),
            ("c", EngagementStats(100, 10)),
        ]
        grants = low_grants(rates_of(items), 400, cfg(max_cap=300, min_cap=50))
        assert grants.tolist() == [200, 100, 100]

    def test_cap_overflow_redistributed(self):
        items = [("a", EngagementStats(100, 90)), ("b", EngagementStats(100, 10))]
        grants = low_grants(rates_of(items), 1000, cfg(max_cap=600, min_cap=50))
        assert grants.tolist() == [600, 400]

    def test_zero_feedback_items_share_equally(self):
        items = [("a", EngagementStats()), ("b", EngagementStats())]
        grants = low_grants(rates_of(items), 500, cfg(max_cap=1600, min_cap=100))
        assert grants.tolist() == [250, 250]

    def test_sub_min_cap_shares_deferred(self):
        items = [(f"i{k}", EngagementStats()) for k in range(10)]
        grants = low_grants(rates_of(items), 500, cfg(max_cap=1600, min_cap=100))
        assert not grants.any()

    def test_empty_items(self):
        grants = low_grants(np.zeros(0), 100, cfg())
        assert grants.dtype == np.int64 and grants.shape == (0,)

    def test_matches_reference_water_filling(self):
        rng = np.random.default_rng(11)
        config = cfg(max_cap=600, min_cap=50)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            items = []
            for k in range(n):
                imp = int(rng.integers(0, 200))
                pos = int(rng.integers(0, imp + 1))
                items.append((f"i{k}", EngagementStats(imp, pos)))
            budget = int(rng.integers(0, 3000))
            got = low_grants(rates_of(items), budget, config).tolist()
            weights = [
                s.positive_rate if s.positive_rate > 0 else 1.0 / n for _, s in items
            ]
            expected = []
            for share in water_fill_reference(weights, budget, 600):
                g = int(math.floor(share + 1e-9))
                expected.append(g if g >= 50 else 0)
            assert got == expected

    def test_grants_never_exceed_budget(self):
        rng = np.random.default_rng(3)
        config = cfg(max_cap=400, min_cap=20)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            items = [
                (f"i{k}", EngagementStats(100, int(rng.integers(0, 101))))
                for k in range(n)
            ]
            budget = int(rng.integers(0, 2500))
            grants = low_grants(rates_of(items), budget, config).tolist()
            assert sum(grants) <= budget
            assert all(g == 0 or 20 <= g <= 400 for g in grants)


class TestAdaptLowFraction:
    def test_item_growth_outpacing_traffic_halves(self):
        growth = GrowthStats(item_growth=2.0, traffic_growth=1.0)
        assert adapt_low_fraction(0.2, growth) == pytest.approx(0.1)

    def test_equal_growth_is_identity(self):
        growth = GrowthStats(item_growth=1.3, traffic_growth=1.3)
        assert adapt_low_fraction(0.2, growth) == pytest.approx(0.2)

    def test_clamped_to_upper_bound(self):
        growth = GrowthStats(item_growth=1.0, traffic_growth=4.0)
        assert adapt_low_fraction(0.2, growth) == pytest.approx(0.8)
        assert adapt_low_fraction(0.5, growth) == 1.0
        assert adapt_low_fraction(1.0, growth) == 1.0

    def test_scale_consistency(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            ig, tg = rng.uniform(0.2, 5.0, size=2)
            scale = rng.uniform(0.1, 10.0)
            a = adapt_low_fraction(0.3, GrowthStats(ig, tg))
            b = adapt_low_fraction(0.3, GrowthStats(ig * scale, tg * scale))
            assert a == pytest.approx(b)

    def test_non_positive_growth_rejected(self):
        with pytest.raises(ConfigError):
            GrowthStats(item_growth=0.0, traffic_growth=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_growth_rejected(self, value):
        for ratios in ((value, 1.0), (1.0, value)):
            with pytest.raises(ConfigError, match="finite"):
                GrowthStats(*ratios)


def high_corpus_model(requests_buckets):
    """Model plus corpus where item k is High with a chosen qualifying bucket.

    Static feature dimension is 1; bucket weights rise steeply so the curve
    crosses the confidence level exactly at the chosen bucket.
    """
    # bucket logits relative to a per-item base: curve[k] = sigmoid(base + k)
    model = make_model(
        SCHEMA, [1.0, 0.0, 0.0], np.arange(SCHEMA.n_buckets, dtype=float), bias=0.0
    )
    records = []
    for k, bucket in enumerate(requests_buckets):
        # want sigmoid(x + bucket) >= cf_high and sigmoid(x + bucket - 1) < cf_high
        # with cf_high = 0.9: logit threshold ~ 2.1972
        x = 2.5 - bucket
        records.append(make_record(f"i{k:03d}", [x]))
    return model, records


def max_funded_count(requests, budget):
    """Largest number of requests whose sum fits the budget, by exhaustive search."""
    n = len(requests)
    sums = np.zeros(1 << n, dtype=np.int64)
    counts = np.zeros(1 << n, dtype=np.int64)
    for mask in range(1, 1 << n):
        low_bit = mask & -mask
        parent = mask ^ low_bit
        sums[mask] = sums[parent] + requests[low_bit.bit_length() - 1]
        counts[mask] = counts[parent] + 1
    return int(counts[sums <= budget].max())


class TestAllocate:
    def test_all_funded_under_ample_budget(self):
        model, records = high_corpus_model([0, 1, 2])
        config = cfg(total_budget=1000, cf_high=0.9, cf_low=0.01)
        plan = allocate(records, model, config, SCHEMA)
        verify_plan(plan, config)
        funded = {e.item_id: e.granted for e in plan.entries if e.granted > 0}
        assert funded == {"i000": 100, "i001": 199, "i002": 399}
        assert plan.total_allocated == 698

    def test_greedy_prefix_under_tight_budget(self):
        model, records = high_corpus_model([0, 1, 2])
        config = cfg(total_budget=250, cf_high=0.9, cf_low=0.01)
        plan = allocate(records, model, config, SCHEMA)
        verify_plan(plan, config)
        by_id = {e.item_id: e for e in plan.entries}
        assert by_id["i000"].granted == 100
        assert by_id["i001"].granted == 0
        assert by_id["i001"].region is Region.UNFUNDED
        assert by_id["i002"].granted == 0

    def test_leftover_high_moderate_budget_spills_to_low(self):
        model = make_model(SCHEMA, [4.0, 0.0, 0.0], np.zeros(SCHEMA.n_buckets))
        records = [
            make_record("high0", [1.0]),  # flat curve ~0.982 -> High
            make_record("low0", [-1.0]),  # flat curve ~0.018 -> Low
        ]
        config = cfg(total_budget=1000, cf_high=0.9, cf_low=0.2, low_region_fraction=0.0)
        plan = allocate(records, model, config, SCHEMA)
        verify_plan(plan, config)
        by_id = {e.item_id: e for e in plan.entries}
        assert by_id["high0"].granted == 100
        # 900 unspent impressions spilled into the low pool, capped below budget
        assert by_id["low0"].region is Region.LOW
        assert by_id["low0"].granted == 900

    def test_matches_exhaustive_search_on_small_instances(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(1, 11))
            buckets = rng.integers(0, SCHEMA.n_buckets, size=n)
            model, records = high_corpus_model(buckets)
            requests = {}
            config_probe = cfg(total_budget=10**9, cf_high=0.9, cf_low=0.01)
            probe = allocate(records, model, config_probe, SCHEMA)
            for e in probe.entries:
                requests[e.item_id] = e.requested
            budget = int(rng.integers(50, int(1.1 * sum(requests.values())) + 100))
            config = cfg(total_budget=budget, cf_high=0.9, cf_low=0.01)
            plan = allocate(records, model, config, SCHEMA)
            verify_plan(plan, config)
            funded = sum(1 for e in plan.entries if e.granted > 0)
            assert funded == max_funded_count(list(requests.values()), budget)

    def test_budget_monotonicity(self):
        model, records = high_corpus_model([0, 1, 2, 3, 4, 1, 2])
        counts = []
        for budget in (100, 300, 700, 1500, 4000):
            config = cfg(total_budget=budget, cf_high=0.9, cf_low=0.01)
            plan = allocate(records, model, config, SCHEMA)
            counts.append(sum(1 for e in plan.entries if e.granted > 0))
        assert counts == sorted(counts)

    def _cost_repair_corpus(self):
        model = make_model(SCHEMA, [4.0, 0.0, 0.0], np.zeros(SCHEMA.n_buckets))
        records = [
            make_record("mod0", [0.2]),  # flat ~0.69 -> Moderate
            make_record("mod1", [0.2]),
            ItemRecord(
                id="low0",
                features=np.array([-1.0]),
                engagement=EngagementStats(100, 5),
            ),
            ItemRecord(
                id="low1",
                features=np.array([-1.0]),
                engagement=EngagementStats(100, 50),
            ),
        ]
        return model, records

    def _cost_repair_config(self, max_cost):
        # Without a cost limit all four items end up at 1600 (cost 64).
        return cfg(
            total_budget=20_000,
            cf_high=0.9,
            cf_low=0.3,
            low_region_fraction=0.2,
            unit_cost=0.01,
            max_cost=max_cost,
        )

    def test_cost_repair_drops_worst_feedback_low_item_first(self):
        model, records = self._cost_repair_corpus()
        config = self._cost_repair_config(50.0)
        plan = allocate(records, model, config, SCHEMA)
        verify_plan(plan, config)
        by_id = {e.item_id: e for e in plan.entries}
        assert by_id["low0"].granted == 0
        assert by_id["low1"].granted == 1600
        assert by_id["mod0"].granted == 1600
        assert by_id["mod1"].granted == 1600

    def test_cost_repair_exhausts_low_before_moderate(self):
        model, records = self._cost_repair_corpus()
        config = self._cost_repair_config(20.0)
        plan = allocate(records, model, config, SCHEMA)
        verify_plan(plan, config)
        by_id = {e.item_id: e for e in plan.entries}
        assert by_id["low0"].granted == 0
        assert by_id["low1"].granted == 0
        assert by_id["mod0"].granted == 0  # descending-request tie breaks on id
        assert by_id["mod1"].granted == 1600
        assert plan.total_cost <= 20.0

    def test_schema_mismatch_rejected(self):
        model = make_model(SCHEMA3, [1.0, 0.0, 0.0], np.zeros(3))
        with pytest.raises(ConfigError, match="schema"):
            allocate([make_record("a", [1.0])], model, cfg(), SCHEMA)

    def test_duplicate_ids_rejected(self):
        model = make_model(SCHEMA, [1.0, 0.0, 0.0], np.zeros(SCHEMA.n_buckets))
        records = [make_record("a", [1.0]), make_record("a", [2.0])]
        with pytest.raises(DataError, match="duplicate"):
            allocate(records, model, cfg(), SCHEMA)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        model = make_model(
            SCHEMA, rng.normal(size=3), np.linspace(-1, 2, SCHEMA.n_buckets), 0.1
        )
        records = [
            ItemRecord(
                id=f"i{k}",
                features=rng.normal(size=1),
                engagement=EngagementStats(50, int(rng.integers(0, 51))),
            )
            for k in range(30)
        ]
        config = cfg(total_budget=5000, low_region_fraction=0.3, cf_high=0.7)
        plan1 = allocate(records, model, config, SCHEMA)
        plan2 = allocate(records, model, config, SCHEMA)
        assert plan1 == plan2

    def test_growth_stats_move_budget_between_pools(self):
        # hm pool = T - round(f*T). At f=0.4 the Moderate request (1600) does
        # not fit in 1200; item growth outpacing traffic halves f to 0.2,
        # making room. The low item absorbs whatever is left either way.
        model = make_model(SCHEMA, [4.0, 0.0, 0.0], np.zeros(SCHEMA.n_buckets))
        records = [make_record("mod0", [0.2]), make_record("low0", [-1.0])]
        config = cfg(total_budget=2000, low_region_fraction=0.4, cf_low=0.2)
        base = allocate(records, model, config, SCHEMA)
        adapted = allocate(
            records,
            model,
            config,
            SCHEMA,
            growth=GrowthStats(item_growth=2.0, traffic_growth=1.0),
        )
        base_by_id = {e.item_id: e.granted for e in base.entries}
        adapted_by_id = {e.item_id: e.granted for e in adapted.entries}
        assert base_by_id == {"mod0": 0, "low0": 1600}
        assert adapted_by_id == {"mod0": 1600, "low0": 400}

    def test_zero_budget_leaves_everything_unfunded(self):
        model, records = high_corpus_model([0, 1])
        config = cfg(total_budget=0)
        plan = allocate(records, model, config, SCHEMA)
        assert plan.total_allocated == 0
        assert all(e.region is Region.UNFUNDED for e in plan.entries)


def scalar_reference_plan(records, model, config, schema, growth=None):
    """The allocator written item by item.

    predict_curve -> monotone_curve -> the region of the curve's last value ->
    the request (invert_cap at cf_high for High, max_cap for Moderate), then
    greedy funding by (requested, id), the list Low water-fill and the cost
    repair drop order. Returns {item_id: (region, granted, requested, p)}.
    """
    records = sorted(records, key=lambda r: r.id)
    region, requested, p_at_maxcap, low_items = {}, {}, {}, []
    for rec in records:
        curve = monotone_curve(predict_curve(model, item_feature_vector(rec)))
        p = p_at_maxcap[rec.id] = float(curve[-1])
        if p > config.cf_high:
            region[rec.id] = Region.HIGH
            requested[rec.id] = invert_cap(curve, config.cf_high, config, schema)
        elif p < config.cf_low:
            region[rec.id] = Region.LOW
            low_items.append((rec.id, rec.engagement))
        else:
            region[rec.id] = Region.MODERATE
            requested[rec.id] = config.max_cap
    fraction = config.low_region_fraction
    if growth is not None:
        fraction = adapt_low_fraction(fraction, growth)
    low_pool = round(fraction * config.total_budget)
    remaining = config.total_budget - low_pool
    granted = {rec.id: 0 for rec in records}
    for item_id in sorted(requested, key=lambda i: (requested[i], i)):
        if requested[item_id] > remaining:
            break
        granted[item_id] = requested[item_id]
        remaining -= requested[item_id]
    granted.update(allocate_low_reference(low_items, low_pool + remaining, config))
    rates = {item_id: stats.positive_rate for item_id, stats in low_items}
    drop_order = []
    for r, key in (
        (Region.LOW, lambda i: (rates[i], i)),
        (Region.MODERATE, lambda i: (-granted[i], i)),
        (Region.HIGH, lambda i: (-granted[i], i)),
    ):
        drop_order += sorted((i for i in granted if granted[i] and region[i] is r), key=key)
    cost = sum(cost_of(g, config) for g in granted.values())
    for item_id in drop_order:
        if cost <= config.max_cost:
            break
        cost -= cost_of(granted[item_id], config)
        granted[item_id] = 0
    return {
        i: (
            region[i] if granted[i] else Region.UNFUNDED,
            granted[i],
            requested.get(i),
            p_at_maxcap[i],
        )
        for i in granted
    }


def assert_matches_scalar_reference(records, model, config, schema, growth=None):
    plan = allocate(records, model, config, schema, growth)
    verify_plan(plan, config)
    expected = scalar_reference_plan(records, model, config, schema, growth)
    assert [e.item_id for e in plan.entries] == sorted(expected)
    for e in plan.entries:
        region, granted, requested, p = expected[e.item_id]
        assert (e.region, e.granted, e.requested) == (region, granted, requested)
        assert type(e.granted) is int and type(e.p_at_maxcap) is float
        assert e.requested is None or type(e.requested) is int
        # The batched dot product may round its last bit differently.
        assert abs(e.p_at_maxcap - p) <= 1e-15
    assert plan.total_allocated == sum(v[1] for v in expected.values())
    return plan


class TestBatchMatchesScalarReference:
    def test_random_valid_instances(self):
        rng = np.random.default_rng(505)
        for _ in range(300):
            schema, config, model, records, growth = random_valid_instance(rng)
            assert_matches_scalar_reference(records, model, config, schema, growth)

    def test_random_valid_instances_across_small_blocks(self, monkeypatch):
        monkeypatch.setattr(allocator, "SCORE_BLOCK_ROWS", 3)
        rng = np.random.default_rng(506)
        for _ in range(100):
            schema, config, model, records, growth = random_valid_instance(rng)
            assert_matches_scalar_reference(records, model, config, schema, growth)

    def test_corpus_larger_than_one_block(self):
        rng = np.random.default_rng(507)
        n = allocator.SCORE_BLOCK_ROWS + 904
        model = make_model(
            SCHEMA, rng.normal(0, 1, size=5), np.linspace(-2.0, 1.5, SCHEMA.n_buckets), 0.2
        )
        records = []
        for k in range(n):
            impressions = int(rng.integers(0, 400))
            records.append(
                ItemRecord(
                    id=f"i{k:05d}",
                    features=rng.normal(size=3),
                    engagement=EngagementStats(
                        impressions, int(rng.integers(0, impressions + 1))
                    ),
                )
            )
        # The cost ceiling sits at 0.8 of the traffic budget's cost, so cost
        # repair drops items; all three regions keep some funded items.
        config = cfg(
            total_budget=300 * n,
            max_cost=0.8 * 0.01 * 300 * n,
            cf_high=0.95,
            cf_low=0.2,
            low_region_fraction=0.3,
            unit_cost=0.01,
        )
        plan = assert_matches_scalar_reference(records, model, config, SCHEMA)
        funded = {e.region for e in plan.entries if e.granted > 0}
        assert funded == {Region.HIGH, Region.MODERATE, Region.LOW}
        assert plan.total_allocated < 0.81 * config.total_budget


class TestAllocateRejectsBadInput:
    def test_non_finite_feature_names_the_item(self):
        model = make_model(SCHEMA, [1.0, 0.0, 0.0], np.zeros(SCHEMA.n_buckets))
        for bad in (np.nan, np.inf):
            records = [make_record("a", [1.0]), make_record("b", [bad])]
            with pytest.raises(DataError, match="non-finite feature for item b"):
                allocate(records, model, cfg(), SCHEMA)

    def test_invalid_config_rejected(self):
        model = make_model(SCHEMA, [1.0, 0.0, 0.0], np.zeros(SCHEMA.n_buckets))
        with pytest.raises(ConfigError, match="cf ordering"):
            allocate([make_record("a", [1.0])], model, cfg(cf_low=0.9, cf_high=0.1), SCHEMA)

    def test_feature_dimension_mismatch_rejected(self):
        model = make_model(SCHEMA, [1.0, 0.0, 0.0], np.zeros(SCHEMA.n_buckets))
        with pytest.raises(DataError, match="dimension"):
            allocate([make_record("a", [1.0, 2.0])], model, cfg(), SCHEMA)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("block_rows", [1, 4096])
    def test_score_overflow_names_the_item(self, monkeypatch, block_rows):
        # Both products, 2 * 1e308 and -2 * 1e308, overflow: the score is an
        # infinity, or NaN where the two meet, and a NaN curve would pass every
        # region test. No RuntimeWarning escapes the refusal.
        monkeypatch.setattr(allocator, "SCORE_BLOCK_ROWS", block_rows)
        model = make_model(SCHEMA, [2.0, -2.0, 0.0, 0.0], np.zeros(SCHEMA.n_buckets))
        corpus = Corpus(("a", "b", "c"), [[1.0, 1.0], [1e308, 1e308], [0.0, 1.0]], [0] * 3, [0] * 3)
        with pytest.raises(DataError, match="features of item b overflow the model's score"):
            plan_corpus(corpus, model, cfg(), SCHEMA)


class TestPlanCorpusPlan:
    def test_verified_and_served_as_it_is(self):
        # plan_corpus's plan is what verify_plan checks and serve_round serves,
        # with no conversion: serving it equals serving its entries.
        sim = SimConfig(seed=3, items_per_round=400)
        latents, records = generate_corpus(sim, 0)
        model = make_model(SCHEMA, [0.5] * 8 + [2.0, 0.0], np.linspace(-2.0, 2.0, 6), -1.0)
        config = cfg(total_budget=300_000, low_region_fraction=0.3, cf_low=0.3)
        plan = plan_corpus(Corpus.of(records), model, config, SCHEMA)
        assert type(plan) is AllocationPlan
        verify_plan(plan, config)
        funded = {e.region for e in plan.entries if e.granted > 0}
        assert funded == {Region.HIGH, Region.MODERATE, Region.LOW}
        observations = serve_round(latents, plan, sim, 0)
        assert [(o.item_id, o.served) for o in observations] == [
            (e.item_id, e.granted) for e in plan.entries if e.granted > 0
        ]
        entries_plan = AllocationPlan(plan.entries, plan.total_allocated, plan.total_cost)
        assert serve_round(latents, entries_plan, sim, 0) == observations

    def test_plans_hold_the_columns_their_producers_built(self, monkeypatch):
        # plan_columns and the two baselines freeze what they built, so
        # of_columns takes the grant, request and p_at_maxcap columns uncopied.
        handed = []
        of_columns = AllocationPlan.of_columns.__func__

        def recording(cls, *columns):
            handed.append(columns)
            return of_columns(cls, *columns)

        monkeypatch.setattr(AllocationPlan, "of_columns", classmethod(recording))
        latents, records = generate_corpus(SimConfig(seed=3, items_per_round=100), 0)
        model = make_model(SCHEMA, [0.5] * 8 + [2.0, 0.0], np.linspace(-2.0, 2.0, 6), -1.0)
        config = cfg(total_budget=30_000, low_region_fraction=0.3, cf_low=0.3)
        plans = [
            plan_corpus(Corpus.of(records), model, config, SCHEMA),
            uniform_allocate(records, config),
            oracle_allocate(latents, config),
        ]
        assert len(handed) == len(plans)
        for plan, columns in zip(plans, handed):
            for name, column in zip(("granted", "requested", "p_at_maxcap"), columns[2:5]):
                assert np.shares_memory(getattr(plan, name), column), name


class TestPlanSummary:
    MODEL = make_model(SCHEMA, [4.0, 0.0, 0.0], np.zeros(SCHEMA.n_buckets))

    def summary(self, records, config):
        plan = plan_corpus(Corpus.of(records), self.MODEL, config, SCHEMA)
        return plan_summary(plan, config)

    def test_classified_counts_show_deferred_low_items(self):
        # The Low item's share (500) falls below min_cap (1000), so it is
        # deferred: Unfunded in the plan, still Low before funding.
        records = [make_record("mod0", [0.2]), make_record("low0", [-1.0])]
        config = cfg(total_budget=2100, min_cap=1000, low_region_fraction=0.0)
        summary = self.summary(records, config)
        assert summary["region_counts"] == {"Moderate": 1, "Unfunded": 1}
        assert summary["classified_counts"] == {"High": 0, "Low": 1, "Moderate": 1}

    def test_cost_repair_moves_dropped_items_to_unfunded_only(self):
        # Without the ceiling every item is funded: High at 100, the rest at
        # 1600 (cost 49). The ceiling of 1.0 drops the Low item, then both
        # Moderate ones, and keeps the High one.
        records = [
            make_record("high0", [2.0]),
            make_record("mod0", [0.2]),
            make_record("mod1", [0.2]),
            make_record("low0", [-1.0]),
        ]
        config = cfg(total_budget=20_000, cf_low=0.3, max_cost=1.0)
        summary = self.summary(records, config)
        assert summary["region_counts"] == {"High": 1, "Unfunded": 3}
        assert summary["classified_counts"] == {"High": 1, "Low": 1, "Moderate": 2}
        assert sum(summary["region_counts"].values()) == summary["items"] == 4
        assert sum(summary["classified_counts"].values()) == 4
        assert summary["total_allocated"] == 100
        assert summary["total_cost"] == 1.0


def water_fill_list_reference(weights, budget, cap):
    """The water-fill written over Python lists, one item at a time."""
    shares = [0.0] * len(weights)
    active = list(range(len(weights)))
    remaining = float(budget)
    while active and remaining > 0:
        total_weight = sum(weights[i] for i in active)
        if total_weight <= 0:
            break
        over = [i for i in active if remaining * weights[i] / total_weight >= cap]
        if not over:
            for i in active:
                shares[i] = remaining * weights[i] / total_weight
            break
        for i in over:
            shares[i] = float(cap)
            remaining -= cap
        over_set = set(over)
        active = [i for i in active if i not in over_set]
    return shares


def allocate_low_reference(items, low_budget, config):
    """low_grants over Python lists, item by item: (id, grant) pairs."""
    if not items:
        return []
    floor_weight = 1.0 / len(items)
    rates = [stats.positive_rate for _, stats in items]
    weights = [rate if rate > 0 else floor_weight for rate in rates]
    shares = water_fill_list_reference(weights, low_budget, config.max_cap)
    grants = []
    for (item_id, _), share in zip(items, shares):
        granted = int(math.floor(share + 1e-9))
        grants.append((item_id, granted if granted >= config.min_cap else 0))
    return grants


def random_low_items(rng, n):
    items = []
    for k in range(n):
        impressions = int(rng.integers(0, 3)) * int(rng.integers(0, 500))
        positives = int(rng.integers(0, impressions + 1))
        items.append((f"i{k:03d}", EngagementStats(impressions, positives)))
    return items


class TestAllocateLowMatchesListReference:
    def test_water_fill_shares_bit_identical(self):
        rng = np.random.default_rng(60)
        for _ in range(300):
            n = int(rng.integers(1, 200))
            weights = rng.uniform(size=n) * (rng.uniform(size=n) < 0.8)
            weights[rng.uniform(size=n) < 0.1] = 1.0 / n
            cap = int(rng.integers(1, 2000))
            budget = int(rng.integers(0, cap * (n + 2)))
            got = allocator._water_fill(weights, budget, cap)
            assert got.tolist() == water_fill_list_reference(weights.tolist(), budget, cap)

    def test_random_items_budgets_and_caps(self):
        rng = np.random.default_rng(61)
        for _ in range(400):
            items = random_low_items(rng, int(rng.integers(1, 60)))
            max_cap = int(rng.integers(50, 2000))
            config = cfg(max_cap=max_cap, min_cap=int(rng.integers(1, max_cap + 1)))
            # up to a budget that caps every item, so overflow passes repeat
            budget = int(rng.integers(0, max_cap * (len(items) + 2)))
            got = low_grants(rates_of(items), budget, config)
            assert got.dtype == np.int64
            assert got.tolist() == [g for _, g in allocate_low_reference(items, budget, config)]

    @given(
        st.lists(
            st.integers(0, 10_000).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
            min_size=1,
            max_size=30,
        ),
        st.integers(0, 100_000),
        st.integers(1, 3000),
    )
    @example([(0, 0), (10, 0), (10, 3)], 500, 100)
    @settings(deadline=None)
    def test_property_any_weights(self, counts, budget, max_cap):
        # Rates of any counts, with zero impressions or zero positives for the
        # floor weight among them.
        items = [(f"i{k:02d}", EngagementStats(*pair)) for k, pair in enumerate(counts)]
        config = cfg(max_cap=max_cap, min_cap=1)
        assert low_grants(rates_of(items), budget, config).tolist() == [
            g for _, g in allocate_low_reference(items, budget, config)
        ]


def non_linear_cost_instance(rng, exponent, cost_fraction):
    """Corpus, model and config under cost u * x**exponent.

    The cost ceiling is cost_fraction of what every item at MaxCap would cost,
    so a small fraction makes cost repair drop items. Some items have no
    impressions and others 100 or 200, so Low rates tie and the drop order
    breaks the ties on id.
    """
    unit_cost = float(rng.uniform(0.001, 0.05))
    cost_fn = lambda x, u=unit_cost, e=exponent: u * float(x) ** e
    static_dim = int(rng.integers(1, 4))
    model = make_model(
        SCHEMA,
        rng.normal(0, 2, size=static_dim + 2),
        np.sort(rng.normal(0, 2, size=SCHEMA.n_buckets)),
        float(rng.normal()),
    )
    records = []
    for k in range(int(rng.integers(1, 40))):
        impressions = int(rng.choice([0, 100, 200, int(rng.integers(1, 400))]))
        records.append(
            ItemRecord(
                id=f"i{k:03d}",
                features=rng.normal(size=static_dim),
                engagement=EngagementStats(
                    impressions, int(rng.integers(0, impressions + 1))
                ),
            )
        )
    config = cfg(
        total_budget=int(rng.integers(0, 1600 * len(records) + 1)),
        max_cost=cost_fraction * len(records) * cost_fn(1600) + 1e-6,
        cf_high=float(rng.uniform(0.5, 0.95)),
        cf_low=float(rng.uniform(0.05, 0.45)),
        low_region_fraction=float(rng.uniform(0.0, 1.0)),
        unit_cost=unit_cost,
        cost_fn=cost_fn,
    )
    return records, model, config


COST_EXPONENTS = {"convex": (1.2, 2.0), "concave": (0.5, 0.9)}


def assert_non_linear_cost_plan(records, model, config):
    plan = assert_matches_scalar_reference(records, model, config, SCHEMA)
    assert plan.total_cost == sum(cost_of(e.granted, config) for e in plan.entries)
    assert plan.total_cost <= config.max_cost
    return plan


class TestAllocateWithNonLinearCost:
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(sorted(COST_EXPONENTS)),
        st.floats(0.0, 1.0),
        st.floats(0.02, 1.2),
    )
    @settings(deadline=None, max_examples=150)
    def test_property_matches_per_item_reference(self, seed, shape, position, cost_fraction):
        lo, hi = COST_EXPONENTS[shape]
        records, model, config = non_linear_cost_instance(
            np.random.default_rng(seed), lo + position * (hi - lo), cost_fraction
        )
        assert_non_linear_cost_plan(records, model, config)

    @pytest.mark.parametrize("shape", sorted(COST_EXPONENTS))
    def test_sweep_binds_the_ceiling(self, shape, monkeypatch):
        repairs = []
        drop = allocator._drop_for_cost
        monkeypatch.setattr(
            allocator, "_drop_for_cost", lambda *args: repairs.append(1) or drop(*args)
        )
        rng = np.random.default_rng(71 if shape == "convex" else 72)
        lo, hi = COST_EXPONENTS[shape]
        for _ in range(150):
            records, model, config = non_linear_cost_instance(
                rng, float(rng.uniform(lo, hi)), float(rng.uniform(0.02, 1.2))
            )
            assert_non_linear_cost_plan(records, model, config)
        assert len(repairs) >= 30  # the ceiling bound in a good share of them

    def test_matches_exhaustive_maximum_when_the_ceiling_does_not_bind(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("cost repair called under the ceiling")

        monkeypatch.setattr(allocator, "_drop_for_cost", refuse)
        rng = np.random.default_rng(405)
        for _ in range(100):
            model, records = _greedy_instance(rng)
            probe = allocate(records, model, cfg(total_budget=10**9, max_cost=1e18,
                                                 cf_high=0.9, cf_low=0.01), SCHEMA)
            requests = [e.requested for e in probe.entries]
            budget = int(rng.integers(50, int(1.2 * sum(requests)) + 100))
            unit_cost = float(rng.uniform(0.001, 0.05))
            exponent = float(rng.uniform(1.2, 2.0))
            cost_fn = lambda x, u=unit_cost, e=exponent: u * float(x) ** e
            # A convex cost with cost_fn(0) == 0 is superadditive, so no set
            # of grants within the traffic budget costs more than cost_fn(budget).
            config = cfg(total_budget=budget, max_cost=cost_fn(budget) + 1e-6,
                         cf_high=0.9, cf_low=0.01, unit_cost=unit_cost, cost_fn=cost_fn)
            plan = allocate(records, model, config, SCHEMA)
            verify_plan(plan, config)
            funded = sum(1 for e in plan.entries if e.granted > 0)
            assert funded == max_funded_count(requests, budget)


class TestAllocateTotals:
    def test_totals_are_sums_of_the_entries(self, monkeypatch):
        repairs = []
        drop = allocator._drop_for_cost
        monkeypatch.setattr(
            allocator, "_drop_for_cost", lambda *args: repairs.append(1) or drop(*args)
        )
        rng = np.random.default_rng(81)
        for _ in range(300):
            schema, config, model, records, growth = random_valid_instance(rng)
            plan = allocate(records, model, config, schema, growth)
            assert plan.total_allocated == sum(e.granted for e in plan.entries)
            assert plan.total_cost == sum(cost_of(e.granted, config) for e in plan.entries)
        assert 0 < len(repairs) < 300  # with and without the ceiling binding

    def test_repair_skipped_when_the_ceiling_holds(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("cost repair called under the ceiling")

        monkeypatch.setattr(allocator, "_drop_for_cost", refuse)
        model, records = high_corpus_model([0, 1, 2])
        plan = allocate(records, model, cfg(total_budget=1000, cf_high=0.9, cf_low=0.01), SCHEMA)
        assert plan.total_cost == pytest.approx(6.98)

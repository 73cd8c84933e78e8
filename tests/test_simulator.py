import dataclasses
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from coldstart_explore import allocator, simulator
from coldstart_explore.core import (
    AllocationConfig,
    AllocationPlan,
    ConfigError,
    DataError,
    EngagementStats,
    ItemRecord,
    PlanEntry,
    Region,
    bucket_of,
    geometric_schema,
    validate_config,
)
from coldstart_explore.metrics import oracle_allocate, uniform_allocate
from coldstart_explore.model import Hyperparams, TrainingSet, train
from coldstart_explore.simulator import (
    STRATEGIES,
    ExperimentReport,
    ItemRoundRow,
    LatentColumns,
    LatentItem,
    Observation,
    RoundMetrics,
    SimConfig,
    build_training_set,
    generate_corpus,
    load_latents,
    read_latents,
    report_to_dict,
    run_experiment,
    serve_round,
    write_latents,
    write_report_csv,
)
from conftest import make_record
from per_item import (
    engagement_features,
    item_feature_vector,
    latent_columns,
    monotone_curve,
    save_latents,
    write_report_rows,
)

SCHEMA = geometric_schema()


def cfg(**overrides) -> AllocationConfig:
    base = dict(
        total_budget=20_000,
        max_cost=1000.0,
        min_cap=100,
        max_cap=1600,
        cf_high=0.6,
        cf_low=0.2,
        low_region_fraction=0.1,
    )
    base.update(overrides)
    return AllocationConfig(**base)


def plan_for(latents, grants):
    entries = tuple(
        PlanEntry(
            item_id=lat.id,
            region=Region.UNIFORM if g > 0 else Region.UNFUNDED,
            granted=g,
        )
        for lat, g in zip(latents, grants)
    )
    return AllocationPlan(
        entries=entries,
        total_allocated=sum(grants),
        total_cost=0.01 * sum(grants),
    )


class TestGenerateCorpus:
    def test_deterministic_per_seed_and_round(self):
        config = SimConfig(seed=5, items_per_round=50)
        lat1, rec1 = generate_corpus(config, 2)
        lat2, rec2 = generate_corpus(config, 2)
        assert lat1 == lat2
        for a, b in zip(rec1, rec2):
            assert a.id == b.id
            assert np.array_equal(a.features, b.features)

    def test_rounds_differ(self):
        config = SimConfig(seed=5, items_per_round=50)
        lat0, _ = generate_corpus(config, 0)
        lat1, _ = generate_corpus(config, 1)
        assert {l.id for l in lat0}.isdisjoint({l.id for l in lat1})
        assert [l.quality for l in lat0] != [l.quality for l in lat1]

    def test_pure_archetype_mixes(self):
        all_zero = SimConfig(seed=1, items_per_round=40, archetype_mix=(1.0, 0.0, 0.0))
        latents, _ = generate_corpus(all_zero, 0)
        assert all(l.true_threshold == 0.0 for l in latents)

        all_inf = SimConfig(seed=1, items_per_round=40, archetype_mix=(0.0, 0.0, 1.0))
        latents, _ = generate_corpus(all_inf, 0)
        assert all(math.isinf(l.true_threshold) for l in latents)

    def test_zero_noise_features_are_function_of_quality(self):
        config = SimConfig(seed=2, items_per_round=30, feature_noise=0.0)
        latents, records = generate_corpus(config, 0)
        # features / q must be the same projection vector for every item
        base = records[0].features / latents[0].quality
        for lat, rec in zip(latents, records):
            assert np.allclose(rec.features, base * lat.quality)

    def test_archetype_counts_near_multinomial_expectation(self):
        mix = (0.2, 0.6, 0.2)
        config = SimConfig(seed=3, items_per_round=1000, archetype_mix=mix)
        latents, _ = generate_corpus(config, 0)
        counts = [
            sum(1 for l in latents if l.true_threshold == 0.0),
            sum(1 for l in latents if 0 < l.true_threshold < math.inf),
            sum(1 for l in latents if math.isinf(l.true_threshold)),
        ]
        for count, p in zip(counts, mix):
            sigma = math.sqrt(1000 * p * (1 - p))
            assert abs(count - 1000 * p) <= 3 * sigma

    def test_thresholds_decrease_with_quality(self):
        config = SimConfig(
            seed=4, items_per_round=400, archetype_mix=(0.0, 1.0, 0.0), threshold_noise=0.0
        )
        latents, _ = generate_corpus(config, 0)
        ordered = sorted(latents, key=lambda l: l.quality)
        thetas = [l.true_threshold for l in ordered]
        assert all(a >= b for a, b in zip(thetas, thetas[1:]))

    def test_engagement_prob_strictly_inside_unit_interval(self):
        latents, _ = generate_corpus(SimConfig(seed=6, items_per_round=200), 0)
        assert all(0.0 < l.engagement_prob < 1.0 for l in latents)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(items_per_round=0).validate()
        with pytest.raises(ConfigError):
            SimConfig(archetype_mix=(0.5, 0.2, 0.2)).validate()
        with pytest.raises(ConfigError):
            SimConfig(rounds=0).validate()


class TestServeRound:
    def test_zero_threshold_discovered_at_min_cap(self):
        lat = LatentItem(id="x", quality=0.0, true_threshold=0.0, engagement_prob=0.5)
        obs = serve_round([lat], plan_for([lat], [100]), SimConfig(seed=0), 0)
        assert obs[0].discovered

    def test_infinite_threshold_never_discovered(self):
        lat = LatentItem(id="x", quality=0.0, true_threshold=math.inf, engagement_prob=0.5)
        obs = serve_round([lat], plan_for([lat], [1600]), SimConfig(seed=0), 0)
        assert not obs[0].discovered

    def test_unfunded_items_produce_no_observation(self):
        lats = [
            LatentItem(id="a", quality=0.0, true_threshold=0.0, engagement_prob=0.5),
            LatentItem(id="b", quality=0.0, true_threshold=0.0, engagement_prob=0.5),
        ]
        obs = serve_round(lats, plan_for(lats, [100, 0]), SimConfig(seed=0), 0)
        assert [o.item_id for o in obs] == ["a"]

    def test_unknown_plan_item_rejected(self):
        lat = LatentItem(id="a", quality=0.0, true_threshold=0.0, engagement_prob=0.5)
        ghost = LatentItem(id="ghost", quality=0.0, true_threshold=0.0, engagement_prob=0.5)
        plan = plan_for([lat, ghost], [100, 100])
        with pytest.raises(DataError, match="unknown item"):
            serve_round([lat], plan, SimConfig(seed=0), 0)

    def test_duplicate_plan_entry_rejected(self):
        lat = LatentItem(id="a", quality=0.0, true_threshold=0.0, engagement_prob=0.5)
        plan = plan_for([lat, lat], [100, 100])
        with pytest.raises(DataError, match="duplicate plan entry for item a"):
            serve_round([lat], plan, SimConfig(seed=0), 0)

    def test_two_latents_of_one_item_rejected(self):
        latents = [
            LatentItem(id="a", quality=0.0, true_threshold=50.0, engagement_prob=0.5),
            LatentItem(id="a", quality=0.0, true_threshold=5000.0, engagement_prob=0.5),
        ]
        with pytest.raises(DataError, match="duplicate latent for item a"):
            serve_round(latents, plan_for(latents[:1], [100]), SimConfig(seed=0), 0)

    def test_negative_grant_rejected(self):
        latents = [
            LatentItem(id=i, quality=0.0, true_threshold=50.0, engagement_prob=0.5)
            for i in "ab"
        ]
        with pytest.raises(DataError, match="plan grants item b negative traffic -100"):
            serve_round(latents, plan_for(latents, [100, -100]), SimConfig(seed=0), 0)

    def test_binomial_engagement_concentrates(self):
        lats = [
            LatentItem(id=f"i{k:03d}", quality=0.0, true_threshold=1.0, engagement_prob=0.1)
            for k in range(100)
        ]
        obs = serve_round(lats, plan_for(lats, [1000] * 100), SimConfig(seed=7), 0)
        mean_positives = np.mean([o.positive_events for o in obs])
        assert abs(mean_positives - 100.0) <= 3 * math.sqrt(1000 * 0.1 * 0.9)

    def test_deterministic(self):
        config = SimConfig(seed=11, items_per_round=50)
        latents, _ = generate_corpus(config, 0)
        plan = plan_for(latents, [200] * len(latents))
        assert serve_round(latents, plan, config, 0) == serve_round(
            latents, plan, config, 0
        )

    def test_conservation_and_label_consistency(self):
        config = SimConfig(seed=12, items_per_round=80)
        latents, _ = generate_corpus(config, 0)
        rng = np.random.default_rng(0)
        grants = [int(g) for g in rng.integers(0, 1600, size=len(latents))]
        plan = plan_for(latents, grants)
        obs = serve_round(latents, plan, config, 0)
        assert sum(o.served for o in obs) == plan.total_allocated
        by_id = {l.id: l for l in latents}
        for o in obs:
            assert o.discovered == (o.served >= by_id[o.item_id].true_threshold)


class TestBuildTrainingSet:
    def test_bucketization_of_served_traffic(self):
        records = [make_record("a", [1.0, 2.0])]
        obs = [Observation(round=0, item_id="a", served=150, positive_events=3, discovered=True)]
        examples = build_training_set(obs, records, SCHEMA)
        assert examples.bucket[0] == bucket_of(150, SCHEMA)
        assert examples.label[0] == 1

    def test_cold_item_has_zero_engagement_block(self):
        records = [make_record("a", [1.0])]
        obs = [Observation(round=0, item_id="a", served=100, positive_events=10, discovered=False)]
        examples = build_training_set(obs, records, SCHEMA)
        assert np.allclose(examples.features[0], [1.0, 0.0, 0.0])

    def test_engagement_reflects_state_at_serving_time(self):
        records = [make_record("a", [1.0])]
        obs = [
            Observation(round=0, item_id="a", served=100, positive_events=25, discovered=False),
            Observation(round=1, item_id="a", served=200, positive_events=10, discovered=True),
        ]
        examples = build_training_set(obs, records, SCHEMA)
        # round-1 example sees the engagement accumulated in round 0 only
        assert examples.features[1, 1] == pytest.approx(0.25)
        assert examples.features[1, 2] == pytest.approx(math.log1p(100))

    def test_unknown_item_rejected(self):
        obs = [Observation(round=0, item_id="zzz", served=100, positive_events=0, discovered=False)]
        with pytest.raises(DataError, match="unknown item"):
            build_training_set(obs, [], SCHEMA)

    def test_two_records_of_one_item_rejected(self):
        records = [make_record("a", [1.0]), make_record("a", [2.0])]
        obs = [Observation(round=0, item_id="a", served=100, positive_events=0, discovered=False)]
        with pytest.raises(DataError, match="duplicate record for item a"):
            build_training_set(obs, records, SCHEMA)

    def test_unresolved_observation_rejected(self):
        records = [make_record("a", [1.0])]
        obs = [Observation(round=0, item_id="a", served=100, positive_events=0, discovered=None)]
        with pytest.raises(DataError, match="unresolved"):
            build_training_set(obs, records, SCHEMA)

    def test_example_count_matches_funded_items_across_rounds(self):
        config = SimConfig(seed=13, items_per_round=200)
        report_cfg = cfg()
        report = run_experiment(config, report_cfg, SCHEMA, Hyperparams(epochs=50), "uniform")
        assert sum(m.funded for m in report.rounds) == len(report.item_rows)


class TestRunExperiment:
    def test_uniform_rounds_grant_identical_traffic(self):
        config = SimConfig(seed=1, items_per_round=100, rounds=2)
        report = run_experiment(config, cfg(), SCHEMA, Hyperparams(epochs=50), "uniform")
        for metrics in report.rounds:
            grants = {
                row.granted for row in report.item_rows if row.round == metrics.round
            }
            assert len(grants) == 1

    def test_single_round_matches_uniform_bootstrap(self):
        config = SimConfig(seed=2, items_per_round=100, rounds=1)
        uniform = run_experiment(config, cfg(), SCHEMA, Hyperparams(epochs=50), "uniform")
        model = run_experiment(config, cfg(), SCHEMA, Hyperparams(epochs=50), "model")
        assert report_to_dict(uniform)["rounds"] == report_to_dict(model)["rounds"]

    def test_deterministic(self):
        config = SimConfig(seed=3, items_per_round=150, rounds=3)
        a = run_experiment(config, cfg(), SCHEMA, Hyperparams(epochs=100), "model")
        b = run_experiment(config, cfg(), SCHEMA, Hyperparams(epochs=100), "model")
        assert report_to_dict(a) == report_to_dict(b)
        assert a.item_rows == b.item_rows

    def test_oracle_dominates_on_sample_seeds(self):
        for seed in (0, 1):
            config = SimConfig(seed=seed, items_per_round=200, rounds=2)
            totals = {
                strategy: run_experiment(
                    config, cfg(), SCHEMA, Hyperparams(epochs=200), strategy
                ).total_discovered
                for strategy in ("uniform", "model", "oracle")
            }
            assert totals["oracle"] >= totals["uniform"]
            assert totals["oracle"] >= totals["model"]

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError, match="strategy"):
            run_experiment(SimConfig(), cfg(), SCHEMA, Hyperparams(), "magic")

    @pytest.mark.parametrize(
        "params",
        [Hyperparams(epochs=0), Hyperparams(epochs=2.5), Hyperparams(epochs=math.nan)],
    )
    def test_bad_hyperparams_refused_before_any_round(self, params):
        with pytest.raises(ConfigError, match="epochs"):
            run_experiment(SimConfig(items_per_round=10), cfg(), SCHEMA, params, "uniform")

    def test_rounds_report_the_buckets_the_model_never_saw(self):
        # The uniform bootstrap grants min_cap, 100, to every item: bucket 1.
        config = SimConfig(seed=0, items_per_round=300, rounds=2)
        report = run_experiment(config, cfg(), SCHEMA, Hyperparams(), "model")
        assert [m.untrained_buckets for m in report.rounds] == [None, (0, 2, 3, 4, 5)]
        uniform = run_experiment(config, cfg(), SCHEMA, Hyperparams(), "uniform")
        assert [m.untrained_buckets for m in uniform.rounds] == [None, None]
        rounds = json.loads(json.dumps(report_to_dict(report)))["rounds"]
        assert [r["untrained_buckets"] for r in rounds] == [None, [0, 2, 3, 4, 5]]

    def test_discovered_items_leave_candidate_pool(self):
        config = SimConfig(seed=4, items_per_round=100, rounds=2)
        report = run_experiment(config, cfg(), SCHEMA, Hyperparams(epochs=50), "uniform")
        first, second = report.rounds
        assert second.candidates == first.candidates + 100 - first.discovered


class TestTrainedCurves:
    def test_raw_violations_flagged_smoothed_curves_invert(self):
        # Curves from a trained model need not be monotone in traffic; the
        # inversion refuses them raw and accepts the isotonic fit.
        from coldstart_explore.metrics import uniform_allocate
        from coldstart_explore.model import invert_cap, predict_curve, train

        sim = SimConfig(seed=20, items_per_round=400)
        config = cfg()
        latents, records = generate_corpus(sim, 0)
        obs = serve_round(latents, uniform_allocate(records, config), sim, 0)
        examples = build_training_set(obs, records, SCHEMA)
        model = train(examples, SCHEMA, Hyperparams())
        violations = 0
        for rec in records[:50]:
            raw = predict_curve(model, item_feature_vector(rec))
            if np.any(np.diff(raw) < 0):
                violations += 1
                with pytest.raises(DataError):
                    invert_cap(raw, 0.5, config, SCHEMA)
            smooth = monotone_curve(raw)
            assert np.all(np.diff(smooth) >= 0)
            invert_cap(smooth, 0.5, config, SCHEMA)  # must not raise
        # Single-bucket training leaves every other bucket's weight at 0, above
        # the trained bucket's negative share of the intercept.
        assert violations > 0


class TestLatentFile:
    def test_round_trip_with_infinite_thresholds(self, tmp_path):
        latents, _ = generate_corpus(SimConfig(seed=5, items_per_round=50), 0)
        path = tmp_path / "latents.jsonl"
        save_latents(latents, path)
        loaded = load_latents(path)
        assert loaded == latents

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_value_rejected_with_line(self, tmp_path, token):
        path = tmp_path / "latents.jsonl"
        path.write_text(
            '{"engagement_prob": 0.1, "id": "a", "quality": 0.5, "threshold": 10.0}\n'
            f'{{"engagement_prob": 0.1, "id": "b", "quality": {token}, "threshold": 10.0}}\n'
        )
        with pytest.raises(DataError, match=rf"latents\.jsonl:2: .*{token}"):
            load_latents(path)

    @pytest.mark.parametrize("key", ["quality", "threshold", "engagement_prob"])
    def test_overflowing_literal_rejected_with_line(self, tmp_path, key):
        # json decodes 1e400 to inf; write_latents writes an infinite
        # threshold as null and never writes a non-finite number.
        row = {"engagement_prob": 0.1, "id": "b", "quality": 0.5, "threshold": 10.0}
        row[key] = 12345.5
        path = tmp_path / "latents.jsonl"
        path.write_text(
            '{"engagement_prob": 0.1, "id": "a", "quality": 0.5, "threshold": null}\n'
            + json.dumps(row).replace("12345.5", "1e400") + "\n"
        )
        with pytest.raises(DataError, match=rf"latents\.jsonl:2: .*{key} inf is not finite"):
            load_latents(path)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("id", None, "id must be a string, not None"),
            ("id", 7, "id must be a string, not 7"),
            ("quality", "0.5", "quality must be a number, not '0.5'"),
            ("threshold", "12", "threshold must be a number, not '12'"),
            ("threshold", True, "threshold must be a number, not True"),
            ("engagement_prob", True, "engagement_prob must be a number, not True"),
        ],
    )
    def test_value_refused_instead_of_converted(self, tmp_path, key, value, message):
        row = {"engagement_prob": 0.1, "id": "b", "quality": 0.5, "threshold": 10.0, key: value}
        path = tmp_path / "latents.jsonl"
        path.write_text(
            '{"engagement_prob": 0.1, "id": "a", "quality": 0.5, "threshold": null}\n'
            + json.dumps(row) + "\n"
        )
        with pytest.raises(DataError, match=rf"latents\.jsonl:2: bad latent record: {message}"):
            load_latents(path)

    @pytest.mark.parametrize(
        "key, value",
        [("quality", math.nan), ("quality", math.inf), ("engagement_prob", -math.inf),
         ("threshold", math.nan)],
    )
    def test_non_finite_value_not_written(self, tmp_path, key, value):
        row = {"quality": 0.1, "threshold": 3.0, "engagement_prob": 0.2, key: value}
        latents = LatentColumns(
            ["a", "b"],
            np.array([0.5, row["quality"]]),
            np.array([math.inf, row["threshold"]]),
            np.array([0.1, row["engagement_prob"]]),
        )
        path = tmp_path / "latents.jsonl"
        with pytest.raises(DataError, match=f"latents.jsonl: {key} holds"):
            write_latents(latents, path)
        assert not path.exists()

    def test_columns_round_trip(self, tmp_path):
        latents, _ = generate_corpus(SimConfig(seed=6, items_per_round=40), 1)
        columns = latent_columns(latents)
        path = tmp_path / "latents.jsonl"
        write_latents(columns, path)
        loaded = read_latents(path)
        assert list(loaded.ids) == [lat.id for lat in latents]
        assert np.isinf(loaded.true_threshold).any()
        for name in ("quality", "true_threshold", "engagement_prob"):
            assert np.array_equal(getattr(loaded, name), getattr(columns, name))
        assert loaded.items() == latents

    def test_non_finite_quality_not_written(self, tmp_path):
        bad = LatentItem(id="a", quality=math.nan, true_threshold=5.0, engagement_prob=0.1)
        with pytest.raises(ValueError):
            save_latents([bad], tmp_path / "latents.jsonl")


# ---------------------------------------------------------------------------
# The per-item loops the array code replaced, kept as bit-exact oracles.
# ---------------------------------------------------------------------------

def generate_corpus_reference(config, round_index):
    """generate_corpus written item by item."""
    config.validate()
    projection = simulator._feature_projection(config)
    rng = np.random.default_rng([config.seed, round_index])
    n = config.items_per_round
    quality = rng.normal(0.0, 1.0, size=n)
    archetype = rng.choice(3, size=n, p=list(config.archetype_mix))
    log_noise = rng.normal(0.0, config.threshold_noise, size=n)
    feature_noise = rng.normal(0.0, 1.0, size=(n, config.feature_dim))
    latents, records = [], []
    for i in range(n):
        item_id = f"r{round_index:02d}-{i:05d}"
        q = float(quality[i])
        if archetype[i] == 0:
            theta = 0.0
        elif archetype[i] == 2:
            theta = math.inf
        else:
            raw = math.exp(
                config.threshold_mu - config.threshold_kappa * q + float(log_noise[i])
            )
            theta = float(min(max(round(raw), 1), config.max_threshold))
        engagement_prob = 1.0 / (
            1.0 + math.exp(-(config.engagement_a * q + config.engagement_b))
        )
        latents.append(LatentItem(item_id, q, theta, engagement_prob))
        features = projection * q + config.feature_noise * feature_noise[i]
        records.append(ItemRecord(id=item_id, features=features))
    return latents, records


def serve_round_reference(latents, plan, config, round_index=0):
    """serve_round with one binomial draw per funded entry."""
    by_id = {lat.id: lat for lat in latents}
    rng = np.random.default_rng([config.seed, round_index, simulator._SERVE_STREAM])
    observations = []
    previous = None
    for entry in sorted(plan.entries, key=lambda e: e.item_id):
        if entry.item_id not in by_id:
            raise DataError(f"plan references unknown item {entry.item_id}")
        if entry.item_id == previous:
            raise DataError(f"duplicate plan entry for item {entry.item_id}")
        previous = entry.item_id
        if entry.granted == 0:
            continue
        lat = by_id[entry.item_id]
        positives = int(rng.binomial(entry.granted, lat.engagement_prob))
        observations.append(
            Observation(
                round=round_index,
                item_id=entry.item_id,
                served=entry.granted,
                positive_events=positives,
                discovered=entry.granted >= lat.true_threshold,
            )
        )
    return observations


def build_training_set_reference(observations, records, schema):
    """build_training_set replaying each item's engagement in a dict."""
    static = {rec.id: rec.features for rec in records}
    running = {}
    examples = []  # (features, bucket, label) rows
    for obs in sorted(observations, key=lambda o: (o.round, o.item_id)):
        if obs.item_id not in static:
            raise DataError(f"observation references unknown item {obs.item_id}")
        if obs.discovered is None:
            raise DataError(f"unresolved observation for item {obs.item_id}")
        impressions, positives = running.get(obs.item_id, (0, 0))
        stats = EngagementStats(impressions=impressions, positive_events=positives)
        features = np.concatenate([static[obs.item_id], engagement_features(stats)])
        examples.append((features, bucket_of(obs.served, schema), int(obs.discovered)))
        running[obs.item_id] = (
            impressions + obs.served,
            positives + obs.positive_events,
        )
    return examples


def run_experiment_reference(
    sim_config, alloc_config, schema, params, strategy,
    uniform=uniform_allocate, oracle=oracle_allocate,
):
    """run_experiment on objects: the per-item references above, a plan per
    round from `uniform`, `oracle` or allocator.allocate, and a pool of
    records updated with dataclasses.replace beside the set of ids discovered so far."""
    sim_config.validate()
    validate_config(alloc_config, schema)
    pool_latents, pool_records, discovered = {}, {}, set()
    all_observations, round_metrics, item_rows = [], [], []
    for round_index in range(sim_config.rounds):
        latents, records = generate_corpus_reference(sim_config, round_index)
        for lat, rec in zip(latents, records):
            pool_latents[lat.id] = lat
            pool_records[rec.id] = rec
        candidates = [rec for rec in pool_records.values() if rec.id not in discovered]
        candidates.sort(key=lambda r: r.id)
        untrained = None
        if strategy == "oracle":
            plan = oracle([pool_latents[r.id] for r in candidates], alloc_config)
        elif strategy == "model" and round_index > 0:
            rows = build_training_set_reference(
                all_observations, list(pool_records.values()), schema
            )
            examples = TrainingSet(*map(np.array, zip(*rows)))
            model = train(examples, schema, params)
            untrained = tuple(k for k, n in enumerate(model.meta.bucket_examples) if n == 0)
            plan = allocator.allocate(candidates, model, alloc_config, schema)
        else:
            plan = uniform(candidates, alloc_config)
        observations = serve_round_reference(
            [pool_latents[r.id] for r in candidates], plan, sim_config, round_index
        )
        all_observations.extend(observations)
        regions = {e.item_id: e.region.value for e in plan.entries}
        for obs in observations:
            rec = pool_records[obs.item_id]
            stats = rec.engagement
            pool_records[obs.item_id] = replace(
                rec,
                engagement=EngagementStats(
                    impressions=stats.impressions + obs.served,
                    positive_events=stats.positive_events + obs.positive_events,
                ),
            )
            if obs.discovered:
                discovered.add(obs.item_id)
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
        counts = {}
        for entry in plan.entries:
            counts[entry.region.value] = counts.get(entry.region.value, 0) + 1
        round_metrics.append(
            RoundMetrics(
                round=round_index,
                candidates=len(candidates),
                funded=sum(1 for e in plan.entries if e.granted > 0),
                discovered=sum(1 for o in observations if o.discovered),
                total_allocated=plan.total_allocated,
                total_cost=plan.total_cost,
                region_counts=dict(sorted(counts.items())),
                untrained_buckets=untrained,
            )
        )
    return ExperimentReport(
        strategy=strategy,
        seed=sim_config.seed,
        rounds=tuple(round_metrics),
        total_discovered=sum(m.discovered for m in round_metrics),
        item_rows=tuple(item_rows),
    )


def assert_same_report(got, expected):
    assert got == expected
    assert [repr(m.total_cost) for m in got.rounds] == [
        repr(m.total_cost) for m in expected.rounds
    ]


# Allocation configs of the 300-item loop oracle test.
LOOP_CONFIGS = {
    "default": cfg(),
    # 0.01 per impression against a 20,000-impression budget: the ceiling binds.
    "binding ceiling": cfg(max_cost=120.0),
    "convex cost": cfg(max_cost=500.0, cost_fn=lambda t: 2e-5 * t * t),
    # Low pools of 18,000 impressions: Low shares reach min_cap.
    "large low pool": cfg(low_region_fraction=0.9),
}


def assert_examples_bit_identical(got, expected):
    assert len(got) == len(expected)
    rows = zip(got.features, got.bucket.tolist(), got.label.tolist())
    for (features, bucket, label), (ref_features, ref_bucket, ref_label) in zip(rows, expected):
        assert (bucket, label) == (ref_bucket, ref_label)
        assert features.shape == ref_features.shape
        assert np.array_equal(features.view(np.int64), ref_features.view(np.int64))
    assert not got.features.flags.writeable


class TestArrayLoopsMatchPerItemReference:
    @pytest.mark.parametrize(
        "config",
        [
            SimConfig(seed=0, items_per_round=3000),
            SimConfig(seed=9, items_per_round=500, feature_dim=3, feature_noise=0.0),
            # thresholds clipped at both ends, and halves rounded to even
            SimConfig(seed=4, items_per_round=800, threshold_mu=9.0, threshold_kappa=4.0,
                      max_threshold=900, archetype_mix=(0.0, 1.0, 0.0)),
            SimConfig(seed=5, items_per_round=400, threshold_mu=0.5, threshold_noise=0.0,
                      engagement_a=3.0, engagement_b=1.5),
        ],
    )
    def test_generate_corpus(self, config):
        for round_index in (0, 3):
            latents, records = generate_corpus(config, round_index)
            ref_latents, ref_records = generate_corpus_reference(config, round_index)
            assert latents == ref_latents
            assert [r.id for r in records] == [r.id for r in ref_records]
            for rec, ref in zip(records, ref_records):
                assert np.array_equal(rec.features.view(np.int64), ref.features.view(np.int64))
                assert not rec.features.flags.writeable
                assert rec.engagement == EngagementStats()

    def test_serve_round(self):
        rng = np.random.default_rng(31)
        for seed in range(5):
            config = SimConfig(seed=seed, items_per_round=300)
            latents, _ = generate_corpus(config, 1)
            grants = rng.integers(0, 1800, size=len(latents))
            grants[rng.uniform(size=len(grants)) < 0.3] = 0
            order = rng.permutation(len(latents))  # entries need not be sorted
            plan = plan_for([latents[k] for k in order], [int(grants[k]) for k in order])
            got = serve_round(latents, plan, config, 2)
            assert got == serve_round_reference(latents, plan, config, 2)
            assert all(type(o.positive_events) is int for o in got)
            assert all(type(o.discovered) is bool for o in got)

    @pytest.mark.parametrize(
        "plan_ids, message",
        [
            # Sorted, "a" repeats before the unknown "b" comes.
            (["d", "b", "a", "c", "a"], "duplicate plan entry for item a"),
            (["d", "b", "a", "d"], "plan references unknown item b"),
            # An unknown id given twice is refused as unknown.
            (["c", "b", "b"], "plan references unknown item b"),
            (["c", "a", "c", "a"], "duplicate plan entry for item a"),
        ],
    )
    def test_serve_round_refuses_in_id_order(self, plan_ids, message):
        latents = [
            LatentItem(id=i, quality=0.0, true_threshold=50.0, engagement_prob=0.5)
            for i in "acd"
        ]
        by_id = {lat.id: lat for lat in latents}
        ghost = LatentItem(id="b", quality=0.0, true_threshold=50.0, engagement_prob=0.5)
        plan = plan_for([by_id.get(i, ghost) for i in plan_ids], [100] * len(plan_ids))
        config = SimConfig(seed=0)
        for serve in (serve_round, serve_round_reference):
            with pytest.raises(DataError) as refused:
                serve(latents, plan, config, 0)
            assert str(refused.value) == message

    def test_serve_round_of_nothing_funded(self):
        config = SimConfig(seed=1, items_per_round=20)
        latents, _ = generate_corpus(config, 0)
        plan = plan_for(latents, [0] * len(latents))
        assert serve_round(latents, plan, config, 0) == []

    def test_build_training_set_on_served_rounds(self):
        config = SimConfig(seed=3, items_per_round=400, rounds=3)
        observations, records = [], []
        for round_index in range(3):
            latents, fresh = generate_corpus(config, round_index)
            records += fresh
            served = list(latents)
            if round_index:
                # earlier rounds' items come back, so engagement accumulates
                served += generate_corpus(config, round_index - 1)[0][::3]
            plan = plan_for(served, [100 + 37 * (k % 40) for k in range(len(served))])
            observations += serve_round(served, plan, config, round_index)
        rng = np.random.default_rng(0)
        observations = [observations[k] for k in rng.permutation(len(observations))]
        assert_examples_bit_identical(
            build_training_set(observations, records, SCHEMA),
            build_training_set_reference(observations, records, SCHEMA),
        )

    def test_build_training_set_on_random_observations(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            n_items = int(rng.integers(1, 12))
            dim = int(rng.integers(0, 4))
            records = [
                make_record(f"i{k:02d}", rng.normal(size=dim)) for k in range(n_items)
            ]
            observations = []
            # Distinct (round, item) pairs, in random order: an item is
            # served at most once a round.
            pairs = rng.permutation(4 * n_items)[: int(rng.integers(0, 4 * n_items + 1))]
            for pair in pairs.tolist():
                served = int(rng.integers(0, 5000))
                observations.append(
                    Observation(
                        round=pair // n_items,
                        item_id=f"i{pair % n_items:02d}",
                        served=served,
                        positive_events=int(rng.integers(0, served + 1)),
                        discovered=bool(rng.integers(0, 2)),
                    )
                )
            assert_examples_bit_identical(
                build_training_set(observations, records, SCHEMA),
                build_training_set_reference(observations, records, SCHEMA),
            )

    def test_build_training_set_of_no_observations(self):
        assert len(build_training_set([], [make_record("a", [1.0])], SCHEMA)) == 0

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_run_experiment(self, strategy, monkeypatch):
        dropped = []
        drop = allocator._drop_for_cost

        def counting_drop(granted, *args):
            funded = np.count_nonzero(granted)
            drop(granted, *args)
            dropped.append(funded - np.count_nonzero(granted))

        monkeypatch.setattr(allocator, "_drop_for_cost", counting_drop)
        params = Hyperparams(epochs=100)
        for name, alloc_config in LOOP_CONFIGS.items():
            for seed in (6, 7):
                config = SimConfig(seed=seed, items_per_round=300, rounds=3)
                got = run_experiment(config, alloc_config, SCHEMA, params, strategy)
                expected = run_experiment_reference(
                    config, alloc_config, SCHEMA, params, strategy
                )
                assert_same_report(got, expected)
                if strategy == "model" and name == "large low pool":
                    assert any(row.region == "Low" for row in got.item_rows)
        if strategy == "model":
            assert sum(dropped) > 0  # cost repair dropped funded items


class TestLoopTrainsOnItsReplay:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_each_training_set_is_the_replay_of_the_loops_observations(self, seed, monkeypatch):
        trained = []

        def recording_train(examples, *args):
            trained.append(examples)
            return train(examples, *args)

        monkeypatch.setattr(simulator, "train", recording_train)
        config = SimConfig(seed=seed, items_per_round=300, rounds=4)
        report = run_experiment(config, cfg(), SCHEMA, Hyperparams(epochs=50), "model")
        assert len(trained) == config.rounds - 1
        observations = [
            Observation(r.round, r.item_id, r.granted, r.positive_events, r.discovered)
            for r in report.item_rows
        ]
        records = [rec for k in range(config.rounds) for rec in generate_corpus(config, k)[1]]
        # Round k trains on the outcomes of rounds 0 to k - 1.
        for round_index, got in enumerate(trained, start=1):
            served = [o for o in observations if o.round < round_index]
            replayed = build_training_set(served, records, SCHEMA)
            assert got.features.shape == replayed.features.shape
            assert np.array_equal(got.features.view(np.int64), replayed.features.view(np.int64))
            assert np.array_equal(got.bucket, replayed.bucket)
            assert np.array_equal(got.label, replayed.label)
        # Items come back undiscovered, so engagement carries across rounds.
        assert (trained[-1].features[:, -1] > 0).any()


class TestCandidatesInStrOrderOfIds:
    """From round 100 on, ids do not sort in draw order: r100-... sorts
    between r10-... and r11-..., so the loop's candidate order is not the
    pool's draw order."""

    @pytest.mark.parametrize(
        "strategy, budget",
        [
            # Round 100 funds 200 of 346 candidates: a prefix of the id order.
            ("uniform", 20_000),
            # The budget binds, so round 100 funds items of round 95 and 100,
            # and reports them in id order.
            ("oracle", 1_000),
        ],
    )
    def test_baselines_past_round_99(self, strategy, budget):
        config = SimConfig(seed=0, items_per_round=5, rounds=101)
        alloc_config = cfg(total_budget=budget)
        got = run_experiment(config, alloc_config, SCHEMA, Hyperparams(), strategy)
        expected = run_experiment_reference(
            config, alloc_config, SCHEMA, Hyperparams(), strategy
        )
        assert_same_report(got, expected)
        assert got.item_rows == expected.item_rows
        assert any(row.item_id.startswith("r100-") for row in got.item_rows)

    def test_model_past_round_99(self):
        config = SimConfig(seed=0, items_per_round=10, rounds=101)
        params = Hyperparams(epochs=50)
        got = run_experiment(config, cfg(), SCHEMA, params, "model")
        first = got.rounds[0]
        assert 0 < first.discovered < first.funded  # round 0 gives both labels
        expected = run_experiment_reference(config, cfg(), SCHEMA, params, "model")
        assert_same_report(got, expected)
        assert got.item_rows == expected.item_rows
        assert any(row.item_id.startswith("r100-") for row in got.item_rows)


REPORT_FIELDS = ("round_index", "region", "granted", "positive_events", "discovered")


class TestReportColumns:
    @pytest.mark.parametrize(
        "strategy, budget",
        [("uniform", 20_000), ("oracle", 20_000), ("model", 20_000), ("uniform", 0), ("oracle", 0)],
    )
    def test_csv_from_columns_is_the_csv_of_the_rows(self, tmp_path, strategy, budget):
        config = SimConfig(seed=5, items_per_round=300, rounds=3)
        report = run_experiment(
            config, cfg(total_budget=budget), SCHEMA, Hyperparams(epochs=50), strategy
        )
        write_report_csv(report, tmp_path / "columns.csv")
        write_report_rows(report, tmp_path / "rows.csv")
        written = (tmp_path / "columns.csv").read_bytes()
        assert written == (tmp_path / "rows.csv").read_bytes()
        if budget == 0:  # no round funds anything
            assert written == b"round,item_id,region,granted,positive_events,discovered\n"
        else:
            assert written.count(b"\n") == 1 + sum(m.funded for m in report.rounds)

    def test_item_rows_are_built_once(self):
        config = SimConfig(seed=2, items_per_round=50, rounds=2)
        report = run_experiment(config, cfg(), SCHEMA, Hyperparams(), "uniform")
        rows = report.item_rows
        assert report.item_rows is rows
        assert len(rows) == len(report.item_ids) == sum(m.funded for m in report.rounds)

    def test_columns_are_read_only(self):
        config = SimConfig(seed=2, items_per_round=50, rounds=2)
        report = run_experiment(config, cfg(), SCHEMA, Hyperparams(epochs=50), "model")
        assert type(report.item_ids) is tuple
        for name in REPORT_FIELDS:
            column = getattr(report, name)
            assert not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[1]
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(report, name, column.copy())

    def test_equal_to_the_report_of_its_rows(self):
        config = SimConfig(seed=3, items_per_round=100, rounds=3)
        report = run_experiment(config, cfg(), SCHEMA, Hyperparams(epochs=50), "model")
        rows = report.item_rows
        rebuilt = ExperimentReport(
            report.strategy, report.seed, report.rounds, report.total_discovered, rows
        )
        assert rebuilt == report
        assert rebuilt.item_rows == rows
        assert rebuilt.region.dtype == report.region.dtype == np.int8
        # One field of one row changed: every column takes part in ==.
        changes = {
            "round": rows[-1].round + 1,
            "item_id": "r99-00000",
            "region": "Low" if rows[-1].region != "Low" else "High",
            "granted": rows[-1].granted + 1,
            "positive_events": rows[-1].positive_events + 1,
            "discovered": not rows[-1].discovered,
        }
        for name, value in changes.items():
            changed = rows[:-1] + (replace(rows[-1], **{name: value}),)
            other = ExperimentReport(
                report.strategy, report.seed, report.rounds, report.total_discovered, changed
            )
            assert other != report, name

    def test_columns_of_unequal_length_refused(self):
        with pytest.raises(DataError, match="report columns differ in length"):
            ExperimentReport.of_columns(
                "uniform", 0, (), 0, [0, 0], ["a", "b"], [0, 0], [1, 1], [0], [False, False]
            )


class TestBuildTrainingSetRejectsBadCounts:
    def test_negative_served_rejected(self):
        obs = [Observation(round=0, item_id="a", served=-1, positive_events=0, discovered=False)]
        with pytest.raises(DataError, match="non-negative"):
            build_training_set(obs, [make_record("a", [1.0])], SCHEMA)

    def test_more_positives_than_impressions_rejected(self):
        # the engagement replayed into the second event is inconsistent
        obs = [
            Observation(round=0, item_id="a", served=10, positive_events=11, discovered=False),
            Observation(round=1, item_id="a", served=10, positive_events=0, discovered=False),
        ]
        with pytest.raises(DataError, match="cannot exceed"):
            build_training_set(obs, [make_record("a", [1.0])], SCHEMA)

    @pytest.mark.parametrize("positives", [11, -1])
    def test_last_observation_of_an_item_checked(self, positives):
        # No later event replays the last one's counts, so each event is
        # checked on its own.
        obs = [
            Observation(round=0, item_id="a", served=10, positive_events=3, discovered=False),
            Observation(round=1, item_id="a", served=10, positive_events=positives,
                        discovered=False),
        ]
        with pytest.raises(DataError, match="round=1, item_id='a'"):
            build_training_set(obs, [make_record("a", [1.0])], SCHEMA)

    @pytest.mark.parametrize(
        "field, value",
        [
            # Would train as 10 impressions.
            ("served", 10.7),
            ("served", 2**63),
            ("served", -(2**63) - 1),
            ("served", True),
            ("positive_events", 1.0),
            ("positive_events", 2**64),
            ("positive_events", False),
            ("round", 0.5),
            ("round", 2**63),
            ("round", True),
            ("round", "0"),
            ("round", None),
        ],
    )
    def test_count_not_an_int64_integer_rejected(self, field, value):
        good = Observation(round=0, item_id="a", served=10, positive_events=1, discovered=False)
        obs = [good, replace(good, **{"round": 1, "item_id": "b", field: value})]
        records = [make_record("a", [1.0]), make_record("b", [2.0])]
        message = f"observation of item b: {field} must be an integer that fits int64"
        with pytest.raises(DataError, match=message):
            build_training_set(obs, records, SCHEMA)

    def test_largest_int64_counts_accepted(self):
        top = 2**63 - 1
        obs = [Observation(round=top, item_id="a", served=top, positive_events=top,
                           discovered=True)]
        examples = build_training_set(obs, [make_record("a", [1.0])], SCHEMA)
        assert examples.bucket.tolist() == [SCHEMA.n_buckets - 1]
        assert examples.label.tolist() == [1]

    def test_two_observations_of_one_item_in_one_round_rejected(self):
        # Neither event came before the other, so neither engagement block
        # would be the item's as it stood when the round was served.
        obs = [
            Observation(round=0, item_id="b", served=100, positive_events=5, discovered=False),
            Observation(round=1, item_id="a", served=100, positive_events=0, discovered=False),
            Observation(round=0, item_id="b", served=100, positive_events=7, discovered=False),
        ]
        records = [make_record("a", [1.0]), make_record("b", [2.0])]
        with pytest.raises(DataError, match="two observations of item b in round 0"):
            build_training_set(obs, records, SCHEMA)

    def test_mixed_feature_dimensions_rejected(self):
        records = [make_record("a", [1.0]), make_record("b", [1.0, 2.0])]
        obs = [
            Observation(round=0, item_id=i, served=100, positive_events=0, discovered=False)
            for i in ("a", "b")
        ]
        with pytest.raises(DataError, match="dimension"):
            build_training_set(obs, records, SCHEMA)


class TestDiscoveryIsPerRound:
    def test_traffic_does_not_accumulate_across_rounds(self):
        # 100 impressions in each of two rounds against a threshold of 150:
        # each round's grant alone falls short, so neither round discovers it.
        lat = LatentItem(id="a", quality=0.0, true_threshold=150.0, engagement_prob=0.1)
        config = SimConfig(seed=0)
        outcomes = [
            serve_round([lat], plan_for([lat], [100]), config, round_index)[0]
            for round_index in (0, 1)
        ]
        assert [o.served for o in outcomes] == [100, 100]
        assert [o.discovered for o in outcomes] == [False, False]
        assert serve_round([lat], plan_for([lat], [150]), config, 2)[0].discovered


class TestSimConfigRejectsNonFinite:
    @pytest.mark.parametrize(
        "field",
        [
            "feature_noise",
            "threshold_mu",
            "threshold_kappa",
            "threshold_noise",
            "engagement_a",
            "engagement_b",
        ],
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_rejected(self, field, value):
        config = replace(SimConfig(items_per_round=10), **{field: value})
        with pytest.raises(ConfigError, match=f"{field} must be a finite number"):
            config.validate()
        with pytest.raises(ConfigError, match=field):
            generate_corpus(config, 0)


class TestGenerateCorpusRejectsOverflow:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"threshold_mu": 800.0},
            {"engagement_a": 1000.0},
            {"engagement_b": -800.0},
            {"feature_noise": 1e308},
        ],
    )
    def test_value_out_of_float_range_is_config_error(self, overrides):
        config = SimConfig(items_per_round=10, **overrides)
        with pytest.raises(ConfigError, match="out of float range"):
            generate_corpus(config, 0)

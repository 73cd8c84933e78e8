"""Acceptance gate: one test per release criterion.

Each test prints a PASS line with the measured numbers (visible with -s, or in
the captured output block when something fails).
"""

import math

import numpy as np
import pytest

from coldstart_explore.allocator import GrowthStats, adapt_low_fraction, allocate
from coldstart_explore.cli import main as cli_main
from coldstart_explore.core import (
    AllocationConfig,
    BucketSchema,
    DEFAULT_ALLOCATION,
    DEFAULT_SCHEMA,
    EngagementStats,
    ItemRecord,
    geometric_schema,
    validate_config,
    verify_plan,
)
from coldstart_explore.metrics import auc, pr_curve_and_auc, uniform_allocate
from coldstart_explore.model import (
    Hyperparams,
    TrainingSet,
    gradient,
    invert_cap,
    predict,
    save_examples,
    train,
)
from coldstart_explore.simulator import (
    SimConfig,
    build_training_set,
    generate_corpus,
    run_experiment,
    serve_round,
)
from conftest import make_model, make_record
from test_metrics import (
    auc_pairwise_oracle,
    average_precision_oracle,
    random_instance,
)
from test_model import separable_examples

SCHEMA = geometric_schema()


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def random_valid_instance(rng):
    """Random schema, config, model and corpus that satisfy the preconditions."""
    n_buckets = int(rng.integers(3, 7))
    edges = [0]
    for _ in range(n_buckets - 1):
        edges.append(edges[-1] + int(rng.integers(10, 400)))
    reps = [int(rng.integers(edges[k], edges[k + 1])) for k in range(n_buckets - 1)]
    max_cap = edges[-1] + int(rng.integers(0, 500))
    reps.append(max_cap)
    schema = BucketSchema(edges=tuple(edges), representative=tuple(reps))

    cf_low, cf_high = np.sort(rng.uniform(0.05, 0.95, size=2))
    if cf_low == cf_high:
        cf_high = min(cf_low + 0.01, 0.99)
    unit_cost = float(rng.uniform(0.001, 0.05))
    budget = int(rng.integers(0, 30_000))
    cost_fn = None
    if rng.uniform() < 0.2:
        exponent = float(rng.uniform(1.0, 1.3))
        cost_fn = lambda x, u=unit_cost, e=exponent: u * float(x) ** e
    config = AllocationConfig(
        total_budget=budget,
        max_cost=float(unit_cost * max(budget, 100) * rng.uniform(0.1, 1.2) + 1e-6),
        min_cap=int(rng.integers(1, max_cap + 1)),
        max_cap=max_cap,
        cf_high=float(cf_high),
        cf_low=float(cf_low),
        low_region_fraction=float(rng.uniform(0.0, 1.0)),
        unit_cost=unit_cost,
        cost_fn=cost_fn,
    )
    validate_config(config, schema)

    static_dim = int(rng.integers(1, 4))
    model = make_model(
        schema,
        rng.normal(0, 2, size=static_dim + 2),
        rng.normal(0, 2, size=n_buckets),
        float(rng.normal()),
    )
    records = []
    for k in range(int(rng.integers(0, 25))):
        impressions = int(rng.integers(0, 300))
        records.append(
            ItemRecord(
                id=f"i{k:03d}",
                features=rng.normal(size=static_dim),
                engagement=EngagementStats(
                    impressions, int(rng.integers(0, impressions + 1))
                ),
            )
        )
    growth = None
    if rng.uniform() < 0.3:
        growth = GrowthStats(
            item_growth=float(rng.uniform(0.2, 3.0)),
            traffic_growth=float(rng.uniform(0.2, 3.0)),
        )
    return schema, config, model, records, growth


def test_c1_constraint_invariants_hold_on_randomized_instances():
    rng = np.random.default_rng(2024)
    instances = 1000
    for _ in range(instances):
        schema, config, model, records, growth = random_valid_instance(rng)
        plan = allocate(records, model, config, schema, growth)
        verify_plan(plan, config)
    report("C1 constraint-invariants", f"{instances} instances, 0 violations")


def test_c2_inversion_minimality_and_cf_monotonicity():
    rng = np.random.default_rng(7)
    trials = 1000
    for _ in range(trials):
        n_buckets = int(rng.integers(3, 8))
        edges = [0]
        for _ in range(n_buckets - 1):
            edges.append(edges[-1] + int(rng.integers(10, 300)))
        reps = [int(rng.integers(edges[k], edges[k + 1])) for k in range(n_buckets - 1)]
        max_cap = edges[-1] + int(rng.integers(0, 400))
        reps.append(max_cap)
        schema = BucketSchema(edges=tuple(edges), representative=tuple(reps))
        config = AllocationConfig(
            total_budget=10_000,
            max_cost=1000.0,
            min_cap=int(rng.integers(1, max_cap + 1)),
            max_cap=max_cap,
            cf_high=0.9,
            cf_low=0.2,
            low_region_fraction=0.0,
        )
        curve = np.sort(rng.uniform(0, 1, size=n_buckets))
        cf1, cf2 = np.sort(rng.uniform(0.01, 0.99, size=2))
        caps = []
        for cf in (float(cf1), float(cf2)):
            got = invert_cap(curve, cf, config, schema)
            qualifying = [k for k in range(n_buckets) if curve[k] >= cf]
            if not qualifying:
                assert got is None
            else:
                k = qualifying[0]
                assert k == 0 or curve[k - 1] < cf  # minimality before clamping
                assert got == min(max(schema.representative[k], config.min_cap), max_cap)
            caps.append(math.inf if got is None else got)
        assert caps[0] <= caps[1]  # monotone in the confidence level
    report("C2 inversion-correctness", f"{trials} curves, exact linear-scan match")


def test_c3_gradient_matches_finite_differences():
    rng = np.random.default_rng(99)
    step = 1e-6
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 6))
        w = rng.normal(0, 1.5, size=dim + SCHEMA.n_buckets)
        bias = float(rng.normal())
        model = make_model(SCHEMA, w[:dim], w[dim:], bias)
        features = rng.normal(size=dim)
        bucket = int(rng.integers(SCHEMA.n_buckets))
        label = int(rng.integers(2))
        grad_w, grad_b = gradient(model, features, bucket, label)

        def loss(weights, b):
            m = make_model(SCHEMA, weights[:dim], weights[dim:], b)
            p = predict(m, features, bucket)
            return -(label * math.log(p) + (1 - label) * math.log(1 - p))

        fd = np.zeros(len(w) + 1)
        for j in range(len(w)):
            up, down = w.copy(), w.copy()
            up[j] += step
            down[j] -= step
            fd[j] = (loss(up, bias) - loss(down, bias)) / (2 * step)
        fd[-1] = (loss(w, bias + step) - loss(w, bias - step)) / (2 * step)
        analytic = np.concatenate([grad_w, [grad_b]])
        rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-8)
        worst = max(worst, rel)
        assert rel <= 1e-5
    report("C3 gradient-check", f"100 pairs, worst relative error {worst:.2e}")


def _greedy_instance(rng):
    """Corpus of High/Moderate items with known requested traffic."""
    n = int(rng.integers(1, 13))
    model = make_model(
        SCHEMA, [1.0, 0.0, 0.0], np.arange(SCHEMA.n_buckets, dtype=float)
    )
    records = []
    for k in range(n):
        if rng.uniform() < 0.3:
            x = float(rng.uniform(-5.5, -2.9))  # Moderate at cf_high=0.9
        else:
            bucket = int(rng.integers(SCHEMA.n_buckets))
            x = 2.1972 + float(rng.uniform(0.0, 0.8)) - bucket  # High at that bucket
        records.append(make_record(f"i{k:03d}", [x]))
    return model, records


def test_c4_greedy_funded_count_equals_exhaustive_maximum():
    rng = np.random.default_rng(404)
    instances = 200
    for _ in range(instances):
        model, records = _greedy_instance(rng)
        n = len(records)
        probe_cfg = AllocationConfig(
            total_budget=10**9,
            max_cost=10**9,
            min_cap=100,
            max_cap=1600,
            cf_high=0.9,
            cf_low=0.01,
            low_region_fraction=0.0,
        )
        probe = allocate(records, model, probe_cfg, SCHEMA)
        requests = [e.requested for e in probe.entries]
        assert all(r is not None for r in requests)
        budget = int(rng.integers(50, int(1.2 * sum(requests)) + 100))
        config = AllocationConfig(
            total_budget=budget,
            max_cost=10**9,
            min_cap=100,
            max_cap=1600,
            cf_high=0.9,
            cf_low=0.01,
            low_region_fraction=0.0,
        )
        plan = allocate(records, model, config, SCHEMA)
        verify_plan(plan, config)
        funded = sum(1 for e in plan.entries if e.granted > 0)

        sums = np.zeros(1 << n, dtype=np.int64)
        counts = np.zeros(1 << n, dtype=np.int64)
        for mask in range(1, 1 << n):
            low_bit = mask & -mask
            parent = mask ^ low_bit
            sums[mask] = sums[parent] + requests[low_bit.bit_length() - 1]
            counts[mask] = counts[parent] + 1
        best = int(counts[sums <= budget].max())
        assert funded == best
    report("C4 greedy-vs-oracle", f"{instances} instances, exact count match")


def test_c5_model_quality_on_simulator_ground_truth():
    # Round-0 exploration at the default per-item level (200 impressions),
    # scaled to 4000 items so both splits hold 2000 examples.
    sim = SimConfig(seed=1234, items_per_round=4000, rounds=1)
    config = AllocationConfig(
        total_budget=800_000,
        max_cost=10_000.0,
        min_cap=100,
        max_cap=1600,
        cf_high=0.6,
        cf_low=0.2,
        low_region_fraction=0.1,
    )
    latents, records = generate_corpus(sim, 0)
    plan = uniform_allocate(records, config)
    observations = serve_round(latents, plan, sim, 0)
    examples = build_training_set(observations, records, DEFAULT_SCHEMA)
    assert len(examples) >= 4000
    train_split, holdout = (
        TrainingSet(examples.features[k::2], examples.bucket[k::2], examples.label[k::2])
        for k in (0, 1)
    )
    assert len(train_split) >= 2000
    model = train(train_split, DEFAULT_SCHEMA, Hyperparams())
    scored = [
        predict(model, features, bucket)
        for features, bucket in zip(holdout.features, holdout.bucket.tolist())
    ]
    heldout_auc = auc(scored, holdout.label)
    assert heldout_auc >= 0.85
    report("C5 model-quality", f"held-out AUC {heldout_auc:.3f} >= 0.85")


def test_c6_end_to_end_strategy_ordering():
    seeds = range(20)
    params = Hyperparams()
    totals = {s: [] for s in ("uniform", "model", "oracle")}
    for seed in seeds:
        sim = SimConfig(seed=seed)
        for strategy in totals:
            rep = run_experiment(sim, DEFAULT_ALLOCATION, DEFAULT_SCHEMA, params, strategy)
            totals[strategy].append(rep.total_discovered)
    wins = sum(
        1
        for u, m, o in zip(totals["uniform"], totals["model"], totals["oracle"])
        if u <= m <= o
    )
    mean_uniform = np.mean(totals["uniform"])
    mean_model = np.mean(totals["model"])
    mean_oracle = np.mean(totals["oracle"])
    gain = (mean_model - mean_uniform) / mean_uniform
    assert wins >= 18
    assert gain >= 0.10
    report(
        "C6 strategy-ordering",
        f"wins {wins}/20, means uniform {mean_uniform:.0f} <= model {mean_model:.0f}"
        f" <= oracle {mean_oracle:.0f}, model gain {gain:+.1%}",
    )


def test_c7_adaptive_controller_direction():
    grid = np.linspace(0.7, 2.1, 10)
    current = 0.3
    checked = 0
    for item_growth in grid:
        for traffic_growth in grid:
            adapted = adapt_low_fraction(
                current, GrowthStats(float(item_growth), float(traffic_growth))
            )
            assert 0.0 < adapted < 1.0  # grid chosen so clamping never engages
            if item_growth > traffic_growth:
                assert adapted < current
            elif traffic_growth > item_growth:
                assert adapted > current
            else:
                assert adapted == pytest.approx(current)
            checked += 1
    assert checked == 100
    report("C7 adaptive-controller", f"{checked} grid points, 0 direction violations")


def test_c8_metric_oracles_match():
    rng = np.random.default_rng(808)
    worst_auc = worst_ap = 0.0
    for k in range(100):
        items = random_instance(rng, int(rng.integers(2, 51)), tie_prone=k % 2 == 0)
        auc_err = abs(auc(*items) - auc_pairwise_oracle(*items))
        _, ap = pr_curve_and_auc(*items)
        ap_err = abs(ap - average_precision_oracle(*items))
        worst_auc = max(worst_auc, auc_err)
        worst_ap = max(worst_ap, ap_err)
        assert auc_err <= 1e-12
        assert ap_err <= 1e-12
    report(
        "C8 metric-oracles",
        f"100 instances, max |err| auc {worst_auc:.1e}, pr_auc {worst_ap:.1e}",
    )


def test_c9_cli_determinism(tmp_path):
    # Shared input fixtures.
    examples_path = tmp_path / "train.jsonl"
    save_examples(separable_examples(n=100, dim=4), examples_path)
    corpus_path = tmp_path / "corpus.jsonl"
    from coldstart_explore.core import save_corpus

    save_corpus(
        [make_record(f"i{k}", [x]) for k, x in enumerate([2.0, 0.5, -2.0])],
        corpus_path,
    )
    model_path = tmp_path / "model.json"
    from coldstart_explore.model import save_model

    save_model(
        make_model(SCHEMA, [2.0, 0.0, 0.0], np.zeros(SCHEMA.n_buckets)), model_path
    )
    trained_path = tmp_path / "trained.json"
    from coldstart_explore.model import train as train_fn, load_examples

    save_model(
        train_fn(load_examples(examples_path), SCHEMA, Hyperparams(epochs=150)),
        trained_path,
    )

    commands = {
        "simulate": ["simulate", "--items", "40", "--rounds", "2", "--seed", "5"],
        "train": ["train", "--train-set", str(examples_path), "--epochs", "150", "--seed", "1"],
        "allocate": ["allocate", "--corpus", str(corpus_path), "--model", str(model_path)],
        "experiment": [
            "experiment", "--items", "60", "--rounds", "2", "--seeds", "0,1",
            "--strategies", "uniform,model", "--epochs", "100", "--budget", "12000",
        ],
        "eval": ["eval", "--model", str(trained_path), "--examples", str(examples_path)],
    }
    for name, argv in commands.items():
        digests = []
        for repetition in range(3):
            out = tmp_path / f"{name}_{repetition}"
            code = cli_main(argv + ["--out-dir", str(out)])
            assert code == 0, name
            snapshot = {
                p.name: p.read_bytes()
                for p in sorted(out.iterdir())
                if p.name != "manifest.json"
            }
            assert snapshot, name
            assert (out / "manifest.json").exists()
            digests.append(snapshot)
        assert digests[0] == digests[1] == digests[2], name
    report("C9 cli-determinism", f"{len(commands)} commands x 3 repetitions, byte-identical")

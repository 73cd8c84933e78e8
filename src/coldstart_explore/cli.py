"""Command-line entry point.

Subcommands wire the pieces into reproducible runs:

    simulate    draw a synthetic corpus plus a separate ground-truth file
    train       fit the discoverability model on a training-set file
    allocate    build an allocation plan for a corpus with a trained model
    experiment  run the multi-round loop for one or more strategies and seeds
    eval        score a labeled example file with a model and report metrics

Every command writes a manifest.json capturing the resolved configuration,
the root seed, input digests and output digests, so a run can be replayed and
checked byte for byte. Exit codes: 0 ok, 2 config error, 3 data error.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import allocator, core, metrics, model, simulator
from .core import ConfigError, DataError


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(
    out_dir: Path,
    command: str,
    config_snapshot: dict,
    root_seed: int,
    inputs: list[Path],
    outputs: list[Path],
    started: float,
    **facts,
) -> None:
    """manifest.json: the run's config, seed and file digests, plus `facts`."""
    manifest = {
        "command": command,
        "config": config_snapshot,
        "root_seed": root_seed,
        "inputs": {str(p): _sha256(p) for p in sorted(inputs)},
        "outputs": {str(p): _sha256(p) for p in sorted(outputs)},
        "duration_seconds": time.monotonic() - started,
        **facts,
    }
    core.write_json(manifest, out_dir / "manifest.json")


def _load_alloc_config(args) -> tuple[core.AllocationConfig, core.BucketSchema]:
    raw: dict = {}
    if args.config:
        try:
            raw = core.read_json(args.config)
        except DataError as exc:
            raise ConfigError(str(exc)) from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
    # CLI flags, each stored under the config field it sets, override file
    # values which override built-in defaults.
    raw.update(
        (f.name, getattr(args, f.name))
        for f in fields(core.AllocationConfig)
        if getattr(args, f.name, None) is not None
    )
    config, schema = core.config_from_dict(raw)
    core.validate_config(config, schema)
    return config, schema


def _sim_config(args, seed: int) -> simulator.SimConfig:
    return simulator.SimConfig(
        seed=seed,
        items_per_round=args.items,
        rounds=args.rounds,
        feature_dim=args.feature_dim,
        feature_noise=args.feature_noise,
    )


def _out_dir(args) -> Path:
    """The output directory, made if missing. Each command makes it only once
    its inputs and config have been read and checked and its results
    computed, so a refused command leaves no directory behind."""
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    started = time.monotonic()
    cfg = _sim_config(args, args.seed)
    latents, corpus = zip(*(simulator.generate_corpus(cfg, k) for k in range(cfg.rounds)))
    latents, corpus = core.LatentColumns.concat(latents), core.Corpus.concat(corpus)
    out = _out_dir(args)
    corpus_path = out / "corpus.jsonl"
    latents_path = out / "latents.jsonl"
    core.write_corpus(corpus, corpus_path)
    simulator.write_latents(latents, latents_path)
    _write_manifest(
        out,
        "simulate",
        {
            "items_per_round": cfg.items_per_round,
            "rounds": cfg.rounds,
            "feature_dim": cfg.feature_dim,
            "feature_noise": cfg.feature_noise,
            "archetype_mix": list(cfg.archetype_mix),
        },
        cfg.seed,
        [],
        [corpus_path, latents_path],
        started,
    )
    print(f"wrote {len(corpus)} items to {corpus_path}")
    return 0


def cmd_train(args) -> int:
    started = time.monotonic()
    _, schema = _load_alloc_config(args)
    params = model.Hyperparams(epochs=args.epochs)
    examples = model.load_examples(args.train_set)
    fitted = model.train(examples, schema, params)
    out = _out_dir(args)
    model_path = out / "model.json"
    model.save_model(fitted, model_path)
    _write_manifest(
        out,
        "train",
        {
            "epochs": params.epochs,
            "schema_edges": list(schema.edges),
            "schema_representatives": list(schema.representative),
        },
        args.seed,
        [Path(args.train_set)],
        [model_path],
        started,
        bucket_examples=list(fitted.meta.bucket_examples),
        bucket_positives=list(fitted.meta.bucket_positives),
    )
    print(f"final loss {fitted.meta.final_loss:.6f} on {len(examples)} examples")
    return 0


def cmd_allocate(args) -> int:
    started = time.monotonic()
    config, schema = _load_alloc_config(args)
    corpus = core.read_corpus(args.corpus)
    fitted = model.load_model(args.model)
    growth = None
    adapted = None
    if args.item_growth is not None or args.traffic_growth is not None:
        if args.item_growth is None or args.traffic_growth is None:
            raise ConfigError("--item-growth and --traffic-growth go together")
        growth = allocator.GrowthStats(
            item_growth=args.item_growth, traffic_growth=args.traffic_growth
        )
        adapted = allocator.adapt_low_fraction(config.low_region_fraction, growth)
    plan = allocator.allocate(corpus, fitted, config, schema, growth)
    out = _out_dir(args)
    plan_path = out / "plan.csv"
    summary_path = out / "summary.json"
    allocator.write_plan_csv(plan, plan_path)
    summary = allocator.plan_summary(plan, config, adapted)
    summary["untrained_buckets"] = list(fitted.meta.untrained_buckets)
    core.write_json(summary, summary_path)
    _write_manifest(
        out,
        "allocate",
        core.config_to_dict(config, schema),
        args.seed,
        [Path(args.corpus), Path(args.model)],
        [plan_path, summary_path],
        started,
    )
    print(
        f"allocated {summary['total_allocated']} impressions across "
        f"{np.count_nonzero(plan.granted)} items"
    )
    return 0


def _parse_seeds(text: str) -> list[int]:
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            seeds = list(range(int(lo), int(hi)))
        else:
            seeds = [int(s) for s in text.split(",") if s]
    except ValueError as exc:
        raise ConfigError(f"--seeds {text!r}: {exc}") from exc
    if not seeds:
        raise ConfigError(f"--seeds {text!r} names no seed")
    return _refuse_repeats("--seeds", seeds)


def _refuse_repeats(flag: str, values: list) -> list:
    """The values unchanged; ConfigError naming the first one given twice."""
    seen = set()
    for value in values:
        if value in seen:
            raise ConfigError(f"{flag} repeats {value!r}")
        seen.add(value)
    return values


def cmd_experiment(args) -> int:
    started = time.monotonic()
    config, schema = _load_alloc_config(args)
    strategies = _refuse_repeats(
        "--strategies", [s.strip() for s in args.strategies.split(",") if s.strip()]
    )
    if not strategies:
        raise ConfigError(f"--strategies {args.strategies!r} names no strategy")
    for strategy in strategies:
        if strategy not in simulator.STRATEGIES:
            raise ConfigError(f"unknown strategy {strategy!r}")
    seeds = _parse_seeds(args.seeds) if args.seeds else [args.seed]
    params = model.Hyperparams(epochs=args.epochs)
    sim_configs = [_sim_config(args, seed) for seed in sorted(seeds)]
    reports = [
        simulator.run_experiment(sim_cfg, config, schema, params, strategy)
        for sim_cfg in sim_configs
        for strategy in strategies
    ]
    out = _out_dir(args)
    outputs = []
    totals: dict[str, list[int]] = {s: [] for s in strategies}
    for report in reports:
        json_path = out / f"report_{report.strategy}_seed{report.seed}.json"
        csv_path = out / f"report_{report.strategy}_seed{report.seed}.csv"
        core.write_json(simulator.report_to_dict(report), json_path)
        simulator.write_report_csv(report, csv_path)
        outputs.extend([json_path, csv_path])
        totals[report.strategy].append(report.total_discovered)

    comparison: dict = {
        "seeds": sorted(seeds),
        "strategies": strategies,
        "total_discovered": {s: totals[s] for s in strategies},
        "mean_total_discovered": {
            s: sum(totals[s]) / len(totals[s]) for s in strategies
        },
    }
    if {"uniform", "model", "oracle"} <= set(strategies):
        wins = sum(
            1
            for u, m, o in zip(totals["uniform"], totals["model"], totals["oracle"])
            if u <= m <= o
        )
        comparison["ordering_wins"] = wins
        mean_u = comparison["mean_total_discovered"]["uniform"]
        mean_m = comparison["mean_total_discovered"]["model"]
        comparison["model_gain_over_uniform"] = (
            (mean_m - mean_u) / mean_u if mean_u else 0.0
        )
    comparison_path = out / "comparison.json"
    core.write_json(comparison, comparison_path)
    outputs.append(comparison_path)
    _write_manifest(
        out,
        "experiment",
        {
            "alloc": core.config_to_dict(config, schema),
            "items_per_round": args.items,
            "rounds": args.rounds,
            "strategies": strategies,
            "seeds": sorted(seeds),
            "epochs": params.epochs,
        },
        args.seed,
        [],
        outputs,
        started,
    )
    for strategy in strategies:
        print(
            f"{strategy}: mean total discovered "
            f"{comparison['mean_total_discovered'][strategy]:.1f}"
        )
    return 0


def cmd_eval(args) -> int:
    started = time.monotonic()
    fitted = model.load_model(args.model)
    examples = model.load_examples(args.examples)
    if len(examples) == 0:
        raise DataError("no examples to evaluate")
    if examples.bucket.max() >= fitted.schema.n_buckets:
        raise DataError(f"invalid bucket index {examples.bucket.max()}")
    # Score every example in one batch: row i's curve, at row i's bucket. The
    # dot product runs as one matrix-vector product, so a score can differ
    # from predict() in its last bit (summation order).
    try:
        curves = model.predict_curves(fitted, examples.features)
    except model.ScoreOverflow as exc:
        example = f"training example {exc.row} (counting from 0)"
        raise DataError(f"the features of {example} overflow the model's score") from None
    scores = curves[np.arange(len(examples)), examples.bucket]
    report = metrics.metrics_report(
        scores, examples.label, examples.bucket, threshold=args.threshold
    )
    out = _out_dir(args)
    metrics_path = out / "metrics.json"
    curve_path = out / "pr_curve.csv"
    core.write_json(metrics.report_to_dict(report), metrics_path)
    metrics.write_pr_curve_csv(report, curve_path)
    _write_manifest(
        out,
        "eval",
        {"threshold": args.threshold},
        args.seed,
        [Path(args.model), Path(args.examples)],
        [metrics_path, curve_path],
        started,
    )
    print(f"auc {report.auc:.4f} pr_auc {report.pr_auc:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coldstart-explore",
        description="Exploration traffic allocation for cold-start items.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0, help="root random seed")
        p.add_argument("--out-dir", default="out", help="output directory")

    def add_alloc_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON file with allocation config values")
        p.add_argument(
            "--budget", type=int, dest="total_budget", metavar="BUDGET",
            help="total traffic budget",
        )
        p.add_argument("--max-cost", type=float, dest="max_cost")
        p.add_argument("--min-cap", type=int, dest="min_cap")
        p.add_argument("--max-cap", type=int, dest="max_cap")
        p.add_argument("--cf-high", type=float, dest="cf_high")
        p.add_argument("--cf-low", type=float, dest="cf_low")
        p.add_argument(
            "--low-fraction", type=float, dest="low_region_fraction", metavar="LOW_FRACTION"
        )
        p.add_argument("--unit-cost", type=float, dest="unit_cost")

    def add_sim_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--items", type=int, default=1000, help="items per round")
        p.add_argument("--rounds", type=int, default=3)
        p.add_argument("--feature-dim", type=int, default=8, dest="feature_dim")
        p.add_argument(
            "--feature-noise", type=float, default=0.5, dest="feature_noise"
        )

    def add_train_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--epochs", type=int, default=model.Hyperparams().epochs,
            help="most Newton steps per fit",
        )

    p_sim = sub.add_parser("simulate", help="generate a synthetic corpus")
    add_common(p_sim)
    add_sim_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_train = sub.add_parser("train", help="train the discoverability model")
    add_common(p_train)
    p_train.add_argument(
        "--config", help="JSON file whose bucket schema the model is trained on"
    )
    add_train_flags(p_train)
    p_train.add_argument("--train-set", required=True, dest="train_set")
    p_train.set_defaults(func=cmd_train)

    p_alloc = sub.add_parser("allocate", help="build an allocation plan")
    add_common(p_alloc)
    add_alloc_flags(p_alloc)
    p_alloc.add_argument("--corpus", required=True)
    p_alloc.add_argument("--model", required=True)
    p_alloc.add_argument("--item-growth", type=float, dest="item_growth")
    p_alloc.add_argument("--traffic-growth", type=float, dest="traffic_growth")
    p_alloc.set_defaults(func=cmd_allocate)

    p_exp = sub.add_parser("experiment", help="run the multi-round loop")
    add_common(p_exp)
    add_alloc_flags(p_exp)
    add_sim_flags(p_exp)
    add_train_flags(p_exp)
    p_exp.add_argument(
        "--strategies", default="uniform,model,oracle", help="comma-separated"
    )
    p_exp.add_argument("--seeds", help="either lo:hi (half-open) or a comma list")
    p_exp.set_defaults(func=cmd_experiment)

    p_eval = sub.add_parser("eval", help="score labeled examples with a model")
    add_common(p_eval)
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--examples", required=True)
    p_eval.add_argument("--threshold", type=float, default=0.5)
    p_eval.set_defaults(func=cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    # A path that names nothing, a file where a directory is wanted or the
    # reverse, or one the user may not read or make.
    except (
        DataError, FileNotFoundError, FileExistsError, IsADirectoryError, NotADirectoryError,
        PermissionError,
    ) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

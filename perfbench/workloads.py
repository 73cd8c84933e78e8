"""The benchmark's three workloads.

Each workload builds its inputs from the seed in `setup`, then `run` performs
one operation and times it from outside, around calls into the program's
modules. Every call goes through a module attribute (`allocator.allocate`,
not a local import), so the traced run can wrap it. The checks on each
operation's output happen after its timed sections.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

from coldstart_explore import allocator, cli, core, metrics, model, simulator
from coldstart_explore.core import DEFAULT_ALLOCATION, DEFAULT_SCHEMA

# Rounds of the workload seed that the cli-pipeline JSONL inputs are served
# from. The simulate subcommand draws round 0; other rounds hold fresh items
# whose features mean the same (the feature projection is fixed per seed), so
# the eval set is held out from training and from the allocated corpus.
TRAIN_SET_ROUND = 1
HELDOUT_SET_ROUND = 2


@dataclass(frozen=True)
class Sizes:
    plan_items: int
    loop_items: int
    loop_rounds: int
    cli_items: int
    example_items: int  # items in the uniform round each cli JSONL is served from


FULL = Sizes(
    plan_items=100_000,
    loop_items=10_000,
    loop_rounds=3,
    cli_items=25_000,
    example_items=100_000,
)
TINY = Sizes(
    plan_items=2_000,
    loop_items=400,
    loop_rounds=3,
    cli_items=500,
    example_items=2_000,
)

# Behaviour of the program at full size and seed 0 when the benchmark was
# added. A speed-up that changes any of these is a behaviour change.
REFERENCE_SEED = 0
REFERENCE = {
    "plan-100k": {
        "funded_model": 39514,
        "discovered_model": 23130,
        "discovered_uniform": 24954,
        "discovered_oracle": 59123,
    },
    "loop-10k": {
        "funded_model": 5600,
        "discovered_model": 2922,
        "discovered_uniform": 503,
        "discovered_oracle": 5999,
    },
    "cli-pipeline": {
        "funded_model": 1800,
        "discovered_model": 1012,
        "discovered_uniform": 398,
        "discovered_oracle": 2000,
        "heldout_auc": 0.8714096852783072,
    },
}


@dataclass
class Outcome:
    """One operation: its timings, its behaviour and what its checks found."""

    times: dict[str, list[float]]  # samples; a cheap part may be timed several times
    behaviour: dict[str, float]
    digest: str
    problems: list[str] = field(default_factory=list)
    detail: dict[str, float] = field(default_factory=dict)


def scaled_config(items: int) -> core.AllocationConfig:
    """Budget of 200 impressions per item, cost ceiling at 0.8 of that budget's cost."""
    budget = 200 * items
    config = replace(
        DEFAULT_ALLOCATION,
        total_budget=budget,
        max_cost=0.8 * core.cost_of(budget, DEFAULT_ALLOCATION),
        low_region_fraction=0.3,
    )
    return core.validate_config(config, DEFAULT_SCHEMA)


def uniform_round(seed: int, round_index: int, items: int, config: core.AllocationConfig):
    """One round of fresh items served uniformly: (latents, records, observations)."""
    sim = simulator.SimConfig(seed=seed, items_per_round=items, rounds=1)
    latents, records = simulator.generate_corpus(sim, round_index)
    plan = metrics.uniform_allocate(records, config)
    return latents, records, simulator.serve_round(latents, plan, sim, round_index)


def baselines(corpus, latents, config: core.AllocationConfig, repeats: int = 1):
    """The uniform and oracle plans over the same items, and their time as one sample.

    With `repeats` > 1 both plans are made that many times in a row and the
    sample is the mean time of one pair: a longer stretch of the host's
    swings, averaged, than a single short pair sees.
    """
    gc.collect()
    started = perf_counter()
    for _ in range(repeats):
        uniform = metrics.uniform_allocate(corpus, config)
        oracle = metrics.oracle_allocate(latents, config)
    return uniform, oracle, [(perf_counter() - started) / repeats]


def discovered(grants: dict[str, int], thresholds: dict[str, float]) -> int:
    """Funded items whose grant reaches their hidden discovery threshold."""
    return sum(1 for i, g in grants.items() if g > 0 and g >= thresholds[i])


def funded(grants: dict[str, int]) -> int:
    return sum(1 for g in grants.values() if g > 0)


def verify(label: str, plan: core.AllocationPlan, config: core.AllocationConfig) -> list[str]:
    try:
        core.verify_plan(plan, config)
    except core.DataError as exc:
        return [f"{label} plan fails verify_plan: {exc}"]
    return []


def plan_digest(plans: dict[str, core.AllocationPlan]) -> str:
    h = hashlib.sha256()
    for label in sorted(plans):
        plan = plans[label]
        h.update(f"{label} {plan.total_allocated} {plan.total_cost!r}\n".encode())
        for e in plan.entries:
            h.update(f"{e.item_id} {e.region.value} {e.granted} {e.requested}\n".encode())
    return h.hexdigest()


class Plan100k:
    """One allocate call on a fixed corpus whose engagement comes from a uniform round."""

    name = "plan-100k"
    setup_repeats = 2  # each set-up trains on ~80k outcomes, about 10 s

    def __init__(self, seed: int, sizes: Sizes, workdir: Path) -> None:
        self.seed = seed
        self.items = sizes.plan_items

    def setup(self) -> None:
        self.config = scaled_config(self.items)
        latents, records, observations = uniform_round(self.seed, 0, self.items, self.config)
        examples = simulator.build_training_set(observations, records, DEFAULT_SCHEMA)
        self.model = model.train(examples, DEFAULT_SCHEMA)
        served = {o.item_id: o for o in observations}
        self.corpus = [
            replace(
                rec,
                engagement=core.EngagementStats(o.served, o.positive_events),
                impressions_received=o.served,
            )
            if (o := served.get(rec.id))
            else rec
            for rec in records
        ]
        self.latents = latents
        self.thresholds = {lat.id: lat.true_threshold for lat in latents}

    def run(self) -> Outcome:
        # The baselines are timed on both sides of the allocate call, so their
        # samples see more of the host's load than two back-to-back ones.
        _, _, before = baselines(self.corpus, self.latents, self.config)
        gc.collect()
        t0 = perf_counter()
        plan = allocator.allocate(self.corpus, self.model, self.config, DEFAULT_SCHEMA)
        t1 = perf_counter()
        uniform, oracle, after = baselines(self.corpus, self.latents, self.config)

        plans = {"model": plan, "uniform": uniform, "oracle": oracle}
        problems = [p for label, pl in plans.items() for p in verify(label, pl, self.config)]
        grants = {
            label: {e.item_id: e.granted for e in pl.entries} for label, pl in plans.items()
        }
        behaviour = {
            "funded_model": funded(grants["model"]),
            **{
                f"discovered_{label}": discovered(g, self.thresholds)
                for label, g in grants.items()
            },
        }
        return Outcome(
            times={"op_s": [t1 - t0], "baselines_s": before + after},
            behaviour=behaviour,
            digest=plan_digest(plans),
            problems=problems,
        )


class Loop10k:
    """The closed retrain/allocate/serve loop, once per strategy."""

    name = "loop-10k"
    setup_repeats = 3

    def __init__(self, seed: int, sizes: Sizes, workdir: Path) -> None:
        self.seed = seed
        self.sizes = sizes

    def setup(self) -> None:
        self.sim = simulator.SimConfig(
            seed=self.seed,
            items_per_round=self.sizes.loop_items,
            rounds=self.sizes.loop_rounds,
        ).validate()
        self.config = core.validate_config(DEFAULT_ALLOCATION, DEFAULT_SCHEMA)
        self.params = model.Hyperparams()
        # Ground truth for checking every reported discovery.
        self.thresholds = {}
        for round_index in range(self.sim.rounds):
            latents, _ = simulator.generate_corpus(self.sim, round_index)
            self.thresholds.update((lat.id, lat.true_threshold) for lat in latents)

    def _experiment(self, strategy: str) -> simulator.ExperimentReport:
        return simulator.run_experiment(
            self.sim, self.config, DEFAULT_SCHEMA, self.params, strategy
        )

    def _check(self, report: simulator.ExperimentReport) -> list[str]:
        """Rebuild each round's funded plan from the report and re-verify it."""
        problems = []
        for metrics_row in report.rounds:
            rows = [r for r in report.item_rows if r.round == metrics_row.round]
            plan = core.AllocationPlan(
                entries=tuple(
                    core.PlanEntry(r.item_id, core.Region(r.region), r.granted) for r in rows
                ),
                total_allocated=metrics_row.total_allocated,
                total_cost=metrics_row.total_cost,
            )
            label = f"{report.strategy} round {metrics_row.round}"
            problems += verify(label, plan, self.config)
            wrong = [
                r.item_id
                for r in rows
                if r.discovered != (r.granted >= self.thresholds[r.item_id])
            ]
            if wrong:
                problems.append(f"{label}: discovery disagrees with ground truth: {wrong[:5]}")
            if sum(r.discovered for r in rows) != metrics_row.discovered:
                problems.append(f"{label}: discovered count disagrees with its rows")
        return problems

    def _baselines(self) -> tuple[dict[str, simulator.ExperimentReport], float]:
        gc.collect()
        started = perf_counter()
        reports = {label: self._experiment(label) for label in ("uniform", "oracle")}
        return reports, perf_counter() - started

    @staticmethod
    def _digest(reports: dict[str, simulator.ExperimentReport]) -> str:
        h = hashlib.sha256()
        for label in sorted(reports):
            report = reports[label]
            h.update(json.dumps(simulator.report_to_dict(report), sort_keys=True).encode())
            for r in report.item_rows:
                row = f"{r.round} {r.item_id} {r.region} {r.granted} {r.positive_events}\n"
                h.update(row.encode())
        return h.hexdigest()

    def run(self) -> Outcome:
        # The baselines run on both sides of the model run, which gives them
        # as many samples per run as the host's swings call for.
        first, before = self._baselines()
        gc.collect()
        t0 = perf_counter()
        reports = {"model": self._experiment("model")}
        t1 = perf_counter()
        second, after = self._baselines()
        reports.update(second)

        problems = [p for report in reports.values() for p in self._check(report)]
        if self._digest(first) != self._digest(second):
            problems.append("the baselines differ between their two runs")
        behaviour = {
            "funded_model": sum(m.funded for m in reports["model"].rounds),
            **{f"discovered_{label}": r.total_discovered for label, r in reports.items()},
        }
        return Outcome(
            times={"op_s": [t1 - t0], "baselines_s": [before, after]},
            behaviour=behaviour,
            digest=self._digest(reports),
            problems=problems,
        )


class CliPipeline:
    """simulate, train, allocate and eval through the CLI, in one process."""

    name = "cli-pipeline"
    setup_repeats = 2  # each set-up serves and writes 2 x 80k examples, about 10 s
    baseline_repeats = 3  # baseline pairs in the sample after each subcommand
    commands = ("simulate", "train", "allocate", "eval")

    def __init__(self, seed: int, sizes: Sizes, workdir: Path) -> None:
        self.seed = seed
        self.sizes = sizes
        self.inputs = workdir / "inputs"
        self.out = {cmd: workdir / cmd for cmd in self.commands}
        self.train_set = self.inputs / "train.jsonl"
        self.heldout_set = self.inputs / "heldout.jsonl"

    def setup(self) -> None:
        # The baselines' inputs: the items the simulate subcommand draws.
        sim = simulator.SimConfig(
            seed=self.seed, items_per_round=self.sizes.cli_items, rounds=1
        )
        self.latents, self.records = simulator.generate_corpus(sim, 0)
        self.thresholds = {lat.id: lat.true_threshold for lat in self.latents}
        shutil.rmtree(self.inputs, ignore_errors=True)
        self.inputs.mkdir(parents=True)
        config = scaled_config(self.sizes.example_items)
        for path, round_index in (
            (self.train_set, TRAIN_SET_ROUND),
            (self.heldout_set, HELDOUT_SET_ROUND),
        ):
            _, records, observations = uniform_round(
                self.seed, round_index, self.sizes.example_items, config
            )
            examples = simulator.build_training_set(observations, records, DEFAULT_SCHEMA)
            model.save_examples(examples, path)

    def _argv(self, cmd: str) -> list[str]:
        common = ["--seed", str(self.seed), "--out-dir", str(self.out[cmd])]
        corpus = self.out["simulate"] / "corpus.jsonl"
        fitted = self.out["train"] / "model.json"
        return {
            "simulate": ["simulate", "--items", str(self.sizes.cli_items), "--rounds", "1"],
            "train": ["train", "--train-set", str(self.train_set)],
            "allocate": ["allocate", "--corpus", str(corpus), "--model", str(fitted)],
            "eval": ["eval", "--model", str(fitted), "--examples", str(self.heldout_set)],
        }[cmd] + common

    def _output_digest(self) -> str:
        """Digest of every output file; only the manifest's duration may differ."""
        h = hashlib.sha256()
        for cmd in self.commands:
            for path in sorted(self.out[cmd].rglob("*")):
                data = path.read_bytes()
                if path.name == "manifest.json":
                    manifest = json.loads(data)
                    manifest.pop("duration_seconds", None)
                    data = json.dumps(manifest, sort_keys=True).encode()
                h.update(f"{path}\n".encode() + hashlib.sha256(data).digest())
        return h.hexdigest()

    def _model_plan(self) -> tuple[core.AllocationPlan, dict[str, int]]:
        with open(self.out["allocate"] / "plan.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        summary = json.loads((self.out["allocate"] / "summary.json").read_text())
        entries = tuple(
            core.PlanEntry(r["item_id"], core.Region(r["region"]), int(r["granted"]))
            for r in rows
        )
        plan = core.AllocationPlan(entries, summary["total_allocated"], summary["total_cost"])
        return plan, {e.item_id: e.granted for e in entries}

    def run(self) -> Outcome:
        for path in self.out.values():
            shutil.rmtree(path, ignore_errors=True)
        problems = []
        detail = {}
        baseline_s = []
        for cmd in self.commands:
            gc.collect()
            started = perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(self._argv(cmd))
            detail[f"{cmd}_s"] = perf_counter() - started
            if code != 0:
                problems.append(f"cli {cmd} exited with code {code}")
                return Outcome(times={}, behaviour={}, digest="", problems=problems)
            # One pair of baselines takes about 0.3 s here, short enough for
            # the host's swings to dominate it: each sample averages a few
            # pairs, and one after each subcommand spreads the samples over
            # the whole operation.
            uniform, oracle, sample = baselines(
                self.records, self.latents, DEFAULT_ALLOCATION, self.baseline_repeats
            )
            baseline_s += sample

        simulated = simulator.load_latents(self.out["simulate"] / "latents.jsonl")
        if {lat.id: lat.true_threshold for lat in simulated} != self.thresholds:
            problems.append("simulate drew other items than the seed's round 0")
        plan, grants = self._model_plan()
        plans = {"model": plan, "uniform": uniform, "oracle": oracle}
        for label, pl in plans.items():
            problems += verify(label, pl, DEFAULT_ALLOCATION)
        behaviour = {
            "funded_model": funded(grants),
            "discovered_model": discovered(grants, self.thresholds),
            **{
                f"discovered_{label}": discovered(
                    {e.item_id: e.granted for e in pl.entries}, self.thresholds
                )
                for label, pl in (("uniform", uniform), ("oracle", oracle))
            },
            "heldout_auc": json.loads((self.out["eval"] / "metrics.json").read_text())["auc"],
        }
        return Outcome(
            times={"op_s": [sum(detail.values())], "baselines_s": baseline_s},
            behaviour=behaviour,
            digest=self._output_digest(),
            problems=problems,
            detail=detail,
        )


WORKLOADS = {w.name: w for w in (Plan100k, Loop10k, CliPipeline)}

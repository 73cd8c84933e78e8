"""Benchmark entry point.

    python3 perfbench/run.py --workload plan-100k --seed 1 --seconds 10 --trace 0

Runs one workload in this process: set-up (repeated, median reported), then
MIN_OPS operations and more while they fit in `--seconds`, each checked after
its timed sections. After every set-up and operation the calibration kernel
(calibrate.py) runs for a fixed share of its time, and the run's times are
scaled by the kernel's reference time over its mean time. With `--trace 0` it
reports the end-to-end metrics; with `--trace 1` it runs one untraced
operation and then traced ones, and reports per-layer metrics plus the tracing
overhead. The last line of
standard output is the result as one JSON object; a fuller record, with
provenance, goes to perfbench/out/. Every failure is printed to stderr.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# One process, no added threads: BLAS and OpenMP pools are pinned to a single
# thread before numpy is imported, unless the caller set them.
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _name in THREAD_ENV:
    os.environ.setdefault(_name, "1")

import calibrate  # noqa: E402  (imports numpy, so after the thread variables)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORK = HERE / "work"

# Two operations at least, so outputs can be compared between repetitions.
MIN_OPS = 2

# Calibration time after each set-up or operation, as a share of its time.
# One kernel sample tracks the host's speed poorly (it swings within a second);
# samples spread over the whole run track the speed the run saw.
KERNEL_SHARE = 0.1

END_TO_END = {
    "setup_s": "s",
    "op_s": "s",
    "baselines_s": "s",
    "funded_model": "count",
    "discovered_model": "count",
    "discovered_uniform": "count",
    "discovered_oracle": "count",
    "peak_rss_mb": "MB",
}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny shrinks every input for a smoke run of a few seconds",
    )
    return parser.parse_args(argv)


def import_program() -> None:
    """Import the package from this checkout's src/, and only from there."""
    if not (SRC / "coldstart_explore" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import coldstart_explore

    if Path(coldstart_explore.__file__).resolve().parent != SRC / "coldstart_explore":
        raise SystemExit(f"perfbench: imported {coldstart_explore.__file__}, not {SRC}")


def provenance(args: argparse.Namespace) -> dict:
    import numpy as np

    def git(*cmd: str) -> str | None:
        try:
            done = subprocess.run(
                ["git", *cmd], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    # Only a repository rooted at this checkout describes the code measured.
    top = git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top).resolve() == ROOT
    sha = git("rev-parse", "HEAD") if in_repo else None
    status = git("status", "--porcelain", "--", "src") if sha else None
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "traced": bool(args.trace),
    }


class Runner:
    """Runs operations, checks each one and tallies failures."""

    def __init__(self, workload, reference: dict) -> None:
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []
        self.first = None  # first successful outcome: what every repetition must match
        self.kernel_s: list[float] = []  # every calibration sample, in order
        calibrate.kernel()  # warm-up, not recorded

    def calibrate(self, seconds: float) -> None:
        """Kernel samples adding up to KERNEL_SHARE of `seconds`, at least one."""
        spent = 0.0
        while not self.kernel_s or spent < KERNEL_SHARE * seconds:
            self.kernel_s.append(calibrate.sample())
            spent += self.kernel_s[-1]

    def scale(self) -> float:
        """Factor from this run's wall times to seconds at the kernel's reference speed."""
        return calibrate.REFERENCE_S / statistics.fmean(self.kernel_s)

    def setup(self) -> float:
        """One timed set-up."""
        started = perf_counter()
        self.workload.setup()
        elapsed = perf_counter() - started
        self.calibrate(elapsed)
        return elapsed

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(
            f"perfbench: FAILED {self.workload.name} op {self.attempted}: {message}",
            file=sys.stderr,
        )

    def op(self):
        """One checked operation: its outcome, or None if it failed."""
        self.attempted += 1
        # Each operation starts from a collected heap, so a full collection
        # left pending by the previous one does not land in its timing.
        gc.collect()
        started = perf_counter()
        try:
            outcome = self.workload.run()
        except Exception:
            self.fail(traceback.format_exc())
            return None
        finally:
            self.calibrate(perf_counter() - started)
        problems = list(outcome.problems)
        for key, expected in self.reference.items():
            got = outcome.behaviour.get(key)
            # A float may differ in its last digits with the BLAS build.
            if got != expected and not (
                isinstance(got, float) and math.isclose(got, expected, rel_tol=1e-9)
            ):
                problems.append(f"{key} = {got}, reference {expected}")
        if self.first is not None and outcome.digest != self.first.digest:
            problems.append("outputs differ from the first repetition")
        if self.first is not None and outcome.behaviour != self.first.behaviour:
            problems.append(
                f"behaviour {outcome.behaviour} differs from {self.first.behaviour}"
            )
        for problem in problems:
            self.fail(problem)
        if problems:
            return None
        if self.first is None:
            self.first = outcome
        return outcome

    def ops(self, seconds: float, minimum: int) -> list:
        """At least `minimum` successful operations, then more while they fit in `seconds`.

        Another operation starts only if one of median length, checks and
        calibration included, would end within `seconds`; so a run's length
        does not grow with its operations' length beyond the first `minimum`.
        Gives up after `minimum` failed operations.
        """
        done = []
        failed = 0
        cycles: list[float] = []
        started = perf_counter()
        while failed < minimum and (
            len(done) < minimum
            or perf_counter() - started + statistics.median(cycles) <= seconds
        ):
            begun = perf_counter()
            outcome = self.op()
            cycles.append(perf_counter() - begun)
            if outcome is None:
                failed += 1
            else:
                done.append(outcome)
        return done


def cycle_s(outcome) -> float:
    return sum(map(sum, outcome.times.values()))


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    import_program()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sizes = workloads.FULL if args.size == "full" else workloads.TINY
    reference = (
        workloads.REFERENCE[args.workload]
        if args.size == "full" and args.seed == workloads.REFERENCE_SEED
        else {}
    )
    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    OUT.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, sizes, workdir)
    runner = Runner(workload, reference)
    result: dict = {"provenance": provenance(args)}
    values: dict = {}

    try:
        setup_times = [runner.setup() for _ in range(1 if args.trace else workload.setup_repeats)]

        if args.trace:
            untraced = runner.ops(0.0, 1)
            tracer = tracing.Tracer()
            with tracing.traced_layers(tracer):
                traced = runner.ops(args.seconds, 1)
            outcomes = untraced + traced
            if untraced and traced:
                values = tracer.layer_metrics(len(traced))
                values["trace.overhead_s"] = runner.scale() * (
                    statistics.median(map(cycle_s, traced)) - cycle_s(untraced[0])
                )
                tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        else:
            outcomes = runner.ops(args.seconds, MIN_OPS)
            if outcomes:
                samples = {"setup_s": setup_times}
                for key in outcomes[0].times:
                    samples[key] = [t for o in outcomes for t in o.times[key]]
                wall = {key: statistics.median(v) for key, v in samples.items()}
                values = {key: v * runner.scale() for key, v in wall.items()}
                behaviour = outcomes[0].behaviour
                values.update(
                    {key: behaviour[key] for key in END_TO_END if key in behaviour},
                    peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                )
                result.update(samples=samples, wall_medians=wall)

    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not outcomes:
        print(f"perfbench: no operation of {args.workload} succeeded", file=sys.stderr)
        return 1
    units = tracing.layer_metric_units() if args.trace else END_TO_END
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"perfbench: {args.workload} did not measure {missing}", file=sys.stderr)
        return 1

    failed = runner.attempted - len(outcomes)
    result.update(
        attempted=runner.attempted,
        failed=failed,
        error_rate=failed / runner.attempted,
        failures=runner.failures,
        behaviour=runner.first.behaviour,
        reference=reference,
        op_detail=[o.detail for o in outcomes],
        kernel_s=runner.kernel_s,
        kernel_reference_s=calibrate.REFERENCE_S,
        scale=runner.scale(),
        metrics={name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    )
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(
        json.dumps(
            {
                "correct": not runner.failures,
                "attempted": runner.attempted,
                "failed": failed,
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke run: every workload at tiny size, untraced and traced, in a few seconds.

    python3 perfbench/smoke.py

Runs perfbench/run.py in a subprocess for every workload in workloads.py
(also those BENCHMARK.json leaves out), and checks that each run exits 0, that its last line is a well-formed result, that the result is
correct, and that it reports exactly the metrics BENCHMARK.json declares.
Layers that no workload called are listed, not failed: a refactor that stops
calling a wrapped function leaves its span at 0 calls.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    calls: dict[str, float] = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
                 "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            if done.returncode != 0:
                problems.append(f"{label}: exit code {done.returncode}\n{done.stderr}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: not correct\n{done.stderr}")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != declared[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json")
            for name, metric in result["metrics"].items():
                if name.endswith(".calls"):
                    calls[name] = calls.get(name, 0) + metric["value"]
            print(f"ok {label}")
    idle = sorted(name for name, total in calls.items() if total == 0)
    if idle:
        print(f"layers no workload called: {idle}")
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

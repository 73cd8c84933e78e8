"""Span tracing done from outside the program.

Each traced function is replaced, for the length of a traced run only, by a
wrapper that records a span (name, start, end, parent) and a few work counts.
A function is wrapped under every name its callers look it up by: the
simulator and the allocator hold their own bindings of functions defined
elsewhere, while the CLI and this benchmark call module-qualified names.
A binding that no longer exists is skipped, so a layer a refactor stops
calling reports 0 calls instead of failing.

Spans are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import inspect
from array import array
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from coldstart_explore import allocator, cli, core, metrics, model, simulator

MODULES = {
    "allocator": allocator,
    "cli": cli,
    "core": core,
    "metrics": metrics,
    "model": model,
    "simulator": simulator,
}

# A probe sees the bound call arguments before the call and returns a function
# that turns the call's result into counter increments.
Probe = Callable[[dict], Callable[[object], dict[str, int]]]


@dataclass(frozen=True)
class Layer:
    name: str
    attribute: str
    bindings: tuple[str, ...]
    probe: Probe | None = None
    self_time: bool = False


def _count(metric: str, measure: Callable[[dict, object], int]) -> Probe:
    return lambda call: lambda result: {metric: measure(call, result)}


def _changed_curves(call: dict) -> Callable[[object], dict[str, int]]:
    before = np.asarray(call["curve"])
    return lambda result: {
        "model.monotone_curve.changed": int(not np.array_equal(before, result))
    }


def _low_grants(call: dict) -> Callable[[object], dict[str, int]]:
    return lambda result: {
        "allocator.allocate_low.items": len(call["items"]),
        "allocator.allocate_low.deferred": sum(1 for _, g in result if g == 0),
    }


def _dropped(call: dict) -> Callable[[object], dict[str, int]]:
    granted = call["granted"]  # repaired in place
    funded_before = sum(1 for g in granted.values() if g > 0)
    return lambda result: {
        "allocator._repair_cost.dropped": funded_before
        - sum(1 for g in granted.values() if g > 0)
    }


def _bytes_written(call: dict) -> Callable[[object], dict[str, int]]:
    out_dir = Path(call["args"].out_dir)
    return lambda result: {
        "cli.bytes_written": sum(
            p.stat().st_size for p in out_dir.rglob("*") if p.is_file()
        )
    }


LAYERS = (
    Layer("model.predict_curve", "predict_curve", ("allocator", "model")),
    Layer(
        "model.monotone_curve",
        "monotone_curve",
        ("allocator", "model"),
        _changed_curves,
    ),
    Layer("allocator.requested_traffic", "requested_traffic", ("allocator",)),
    Layer("core.item_feature_vector", "item_feature_vector", ("allocator", "core")),
    Layer(
        "allocator.allocate",
        "allocate",
        ("allocator", "simulator"),
        _count("allocator.allocate.items", lambda c, r: len(c["corpus"])),
        self_time=True,
    ),
    Layer("allocator.allocate_low", "allocate_low", ("allocator",), _low_grants),
    Layer("allocator._repair_cost", "_repair_cost", ("allocator",), _dropped),
    Layer(
        "model.train",
        "train",
        ("model", "simulator"),
        _count("model.train.examples", lambda c, r: len(c["examples"])),
    ),
    Layer(
        "simulator.generate_corpus",
        "generate_corpus",
        ("simulator",),
        _count("simulator.generate_corpus.items", lambda c, r: len(r[1])),
    ),
    Layer(
        "simulator.serve_round",
        "serve_round",
        ("simulator",),
        _count("simulator.serve_round.observations", lambda c, r: len(r)),
    ),
    Layer(
        "simulator.build_training_set",
        "build_training_set",
        ("simulator",),
        _count("simulator.build_training_set.examples", lambda c, r: len(r)),
    ),
    Layer("simulator.run_experiment", "run_experiment", ("simulator",), self_time=True),
    Layer("metrics.uniform_allocate", "uniform_allocate", ("metrics", "simulator")),
    Layer("metrics.oracle_allocate", "oracle_allocate", ("metrics", "simulator")),
    Layer("model.predict", "predict", ("model",)),
    Layer(
        "metrics.metrics_report",
        "metrics_report",
        ("metrics",),
        _count("metrics.metrics_report.labels", lambda c, r: len(c["scored"])),
    ),
    Layer(
        "core.load_corpus",
        "load_corpus",
        ("core",),
        _count("core.load_corpus.items", lambda c, r: len(r)),
    ),
    Layer(
        "model.load_examples",
        "load_examples",
        ("model",),
        _count("model.load_examples.examples", lambda c, r: len(r)),
    ),
    *(
        Layer(f"cli.{cmd}", f"cmd_{cmd}", ("cli",), _bytes_written, self_time=True)
        for cmd in ("simulate", "train", "allocate", "eval")
    ),
)

COUNTERS = (
    "model.monotone_curve.changed",
    "allocator.allocate.items",
    "allocator.allocate_low.items",
    "allocator.allocate_low.deferred",
    "allocator._repair_cost.dropped",
    "model.train.examples",
    "simulator.generate_corpus.items",
    "simulator.serve_round.observations",
    "simulator.build_training_set.examples",
    "metrics.metrics_report.labels",
    "core.load_corpus.items",
    "model.load_examples.examples",
    "cli.bytes_written",
)


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer.name}.s"] = "s"
        units[f"{layer.name}.calls"] = "count"
        if layer.self_time:
            units[f"{layer.name}.self_s"] = "s"
    for counter in COUNTERS:
        units[counter] = "bytes" if counter == "cli.bytes_written" else "count"
    units["trace.spans"] = "count"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """In-memory span store; one per traced run."""

    def __init__(self) -> None:
        self.names = [layer.name for layer in LAYERS]
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = defaultdict(int)
        self._stack = [-1]

    def wrap(self, layer_index: int, fn: Callable, probe: Probe | None) -> Callable:
        signature = inspect.signature(fn) if probe is not None else None

        def traced(*args, **kwargs):
            finish = probe(signature.bind(*args, **kwargs).arguments) if probe else None
            index = len(self.start)
            self.name_id.append(layer_index)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(index)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter()
                self._stack.pop()
            if finish is not None:
                for metric, value in finish(result).items():
                    self.counts[metric] += value
            return result

        return traced

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-operation totals for every layer metric except the overhead."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        # Self time: a span's duration minus the time its child spans cover.
        # Calls are nested and single-threaded, so children never overlap.
        has_parent = parent >= 0
        child_time = np.zeros(len(duration))
        np.add.at(child_time, parent[has_parent], duration[has_parent])
        self_time = duration - child_time

        values: dict[str, float] = {}
        for index, layer in enumerate(LAYERS):
            mine = name_id == index
            values[f"{layer.name}.s"] = float(duration[mine].sum()) / ops
            values[f"{layer.name}.calls"] = int(mine.sum()) / ops
            if layer.self_time:
                values[f"{layer.name}.self_s"] = float(self_time[mine].sum()) / ops
        for counter in COUNTERS:
            values[counter] = self.counts.get(counter, 0) / ops
        values["trace.spans"] = len(duration) / ops
        return values

    def save(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


class traced_layers:
    """Context manager that installs the wrappers and always restores the originals."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.originals: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        for index, layer in enumerate(LAYERS):
            for module_name in layer.bindings:
                module = MODULES[module_name]
                fn = getattr(module, layer.attribute, None)
                if fn is None:
                    continue
                self.originals.append((module, layer.attribute, fn))
                setattr(module, layer.attribute, self.tracer.wrap(index, fn, layer.probe))
        return self.tracer

    def __exit__(self, *exc_info) -> None:
        for module, attribute, fn in self.originals:
            setattr(module, attribute, fn)
        leaked = [
            f"{module.__name__}.{attribute}"
            for module, attribute, fn in self.originals
            if getattr(module, attribute) is not fn
        ]
        if leaked:
            raise RuntimeError(f"tracing wrappers left installed: {leaked}")

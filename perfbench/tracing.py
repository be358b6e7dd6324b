"""Spans around the program's public functions, for the traced run.

A wrapper replaces the module attribute that each caller looks up, so the
program runs unchanged apart from one span per call.  Spans (name, tag,
start, end, parent) stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

# Each traced function, and the modules whose attribute of that name its
# callers look up (a name imported with ``from .x import f`` is a separate
# binding in the importing module).
SPANS = (
    ("scenarios.sample_world", ("scenarios",)),
    ("scenarios.build_path_library", ("scenarios",)),
    ("model.compute_membership", ("model", "scenarios")),
    ("model.validate_dataset", ("model", "io")),
    ("io.dataset_to_bytes", ("io",)),
    ("io.dataset_from_bytes", ("io",)),
    ("io.dataset_hash", ("io", "bench", "cli")),
    ("ec2.select_test", ("ec2",)),
    ("ec2.observe", ("ec2",)),
    ("ec2.is_solved", ("ec2",)),
    ("trees.compile_tree", ("trees",)),
    ("trees.bias_vector", ("trees",)),
    ("trees.execute_tree", ("trees",)),
    ("bernoulli.bisect_policy", ("bernoulli",)),
    ("bernoulli.select_test_bernoulli", ("bernoulli",)),
    ("baselines.shortest_path_edges", ("baselines",)),
    ("baselines.lazysp_graph", ("baselines",)),
    ("baselines.lazysp_set", ("baselines",)),
    ("baselines.random_policy", ("baselines",)),
    ("bench.run_policy", ("bench",)),
    ("bench.save_runs", ("bench",)),
    ("bench.load_runs", ("bench",)),
    ("bench.build_report", ("bench",)),
    ("bench.normalized_cost", ("bench",)),
)
# Spans of this function are tagged with its first argument, the policy id.
TAGGED = "bench.run_policy"
# Counted without a span: build_path_library makes one Path per candidate
# path it enumerates.
COUNTED = "scenarios.Path"


@dataclass
class Layer:
    calls: int = 0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, tag, start, end, parent index]
        self.counts: Counter = Counter()  # counted calls
        self.nones: Counter = Counter()  # spans whose call returned None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, tag=None):
        record = [name, tag, 0.0, 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[2] = perf_counter()
        try:
            yield
        finally:
            record[3] = perf_counter()
            self._open.pop()

    def _wrap(self, fn, name: str):
        tagged = name == TAGGED

        def traced(*args, **kwargs):
            with self.span(name, args[0] if tagged else None):
                result = fn(*args, **kwargs)
            if result is None:
                self.nones[name] += 1
            return result

        return traced

    def _count(self, fn, name: str):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        """Wrap every function in SPANS, and COUNTED, for the duration."""
        saved = []

        def bind(target, lookups, wrap):
            module, attr = target.split(".")
            original = getattr(importlib.import_module(f"drdplan.{module}"), attr)
            wrapper = wrap(original, target)
            for name in lookups:
                mod = importlib.import_module(f"drdplan.{name}")
                if getattr(mod, attr) is not original:
                    raise RuntimeError(f"drdplan.{name}.{attr} is not {target}; update the span table")
                saved.append((mod, attr, original))
                setattr(mod, attr, wrapper)

        try:
            for target, lookups in SPANS:
                bind(target, lookups, self._wrap)
            bind(COUNTED, ("scenarios",), self._count)
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def layers(self) -> dict[str, Layer]:
        """Calls, summed self time and per-call durations by span name.
        Self time is a span's duration minus that of its child spans."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, Layer] = {}
        for i, (name, _, start, end, _) in enumerate(self.spans):
            layer = out.setdefault(name, Layer())
            layer.calls += 1
            layer.self_s += end - start - child[i]
            layer.durations.append(end - start)
        return out

    def ancestor(self, i: int, name: str) -> list | None:
        """The nearest enclosing span of the given name, or None."""
        parent = self.spans[i][4]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return self.spans[parent]
            parent = self.spans[parent][4]
        return None

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "tag", "start", "end", "parent"], "spans": self.spans}, f)

"""In-memory span recording around calls into the program's modules.

A :class:`Tracer` replaces module attributes with wrappers that record one
span per call: name, start, end, parent span and trace id.  Nothing in the
program changes; the wrappers sit where one module looks up another's
function (``sparsix.infer.forward`` is the name ``predict`` calls).  Spans
stay in memory until :meth:`Tracer.dump` writes them out.

A layer's self time is the time its spans cover minus the time their child
spans cover.  Calls are sequential within a process, so children never
overlap and the subtraction is exact.

Training chunks run in worker processes, so :func:`traced_chunk_task`
stands in for ``sparsix.train._train_chunk_task``: it traces one chunk in
the worker and writes that worker's spans to ``$PERFBENCH_TRACE_DIR``.
"""
from __future__ import annotations

import json
import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns
from typing import Callable

import sparsix.train as _train

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
ORIGINAL_CHUNK_TASK = _train._train_chunk_task


class Tracer:
    """Records spans ``(name, start_ns, end_ns, parent, trace)``; ids are list positions."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int] | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._trace = 0
        self._patched: list[tuple[object, str, object]] = []

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, new_trace: bool = False):
        """``fn(*args, **kwargs)`` inside one span; ``new_trace`` starts a new trace id."""
        if new_trace:
            self._trace += 1
        parent = self._stack[-1] if self._stack else -1
        span_id = len(self.spans)
        self.spans.append(None)
        self._stack.append(span_id)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[span_id] = (name, start, end, parent, self._trace)

    def wrap(
        self,
        module: object,
        attr: str,
        name: str,
        new_trace: bool = False,
        count: Callable[[tuple, object], float] | None = None,
    ) -> None:
        """Trace every call of ``module.attr``; ``count(args, result)`` adds to ``counts[name]``."""
        original = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            result = tracer.call(name, original, args, kwargs, new_trace)
            if count is not None:
                tracer.counts[name] += count(args, result)
            return result

        self._patch(module, attr, wrapper, original)

    def wrap_iter(self, module: object, attr: str, name: str, new_trace: bool = False) -> None:
        """Trace each item a generator function yields, one span per item."""
        original = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            items = original(*args, **kwargs)
            while True:
                try:
                    item = tracer.call(name, next, (items,), {}, new_trace)
                except StopIteration:
                    return
                yield item

        self._patch(module, attr, wrapper, original)

    def _patch(self, module: object, attr: str, wrapper: Callable, original: object) -> None:
        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        """Put every wrapped attribute back."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def dump(self, path: Path) -> None:
        """Write the spans and counts as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"spans": self.spans, "counts": dict(self.counts)}),
            encoding="utf-8",
        )


def summarize(spans: list) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive ns and self ns."""
    child_ns = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "ns": 0, "self_ns": 0})
    for i, (name, start, end, _, _) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["ns"] += end - start
        row["self_ns"] += end - start - child_ns[i]
    return dict(out)


def layer_self_ns(summary: dict[str, dict[str, float]]) -> dict[str, float]:
    """Self time per layer, a layer being the module prefix of a span name."""
    out: dict[str, float] = defaultdict(float)
    for name, row in summary.items():
        out[name.split(".", 1)[0]] += row["self_ns"]
    return dict(out)


def merge(summaries: list[dict[str, dict[str, float]]]) -> dict[str, dict[str, float]]:
    """Sum of several :func:`summarize` results, e.g. one per training worker."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "ns": 0, "self_ns": 0})
    for summary in summaries:
        for name, row in summary.items():
            for key, value in row.items():
                out[name][key] += value
    return dict(out)


def _adam_useful(args: tuple, result: object) -> float:
    grads = args[1]
    return float((grads.W1 != 0.0).sum()) / grads.W1.size


def traced_chunk_task(payload):
    """Stand-in for ``_train_chunk_task`` that traces one chunk in its worker."""
    tracer = Tracer()
    tracer.wrap(_train, "_chunk_matrix", "train._chunk_matrix")
    tracer.wrap(_train, "_batch_step", "train._batch_step", new_trace=True)
    tracer.wrap(_train, "apply_update", "model.apply_update", count=_adam_useful)
    tracer.wrap(_train, "build_codebook", "codes.build_codebook")
    try:
        result = tracer.call("train._train_chunk_task", ORIGINAL_CHUNK_TASK, (payload,), {}, True)
    finally:
        tracer.restore()
    chunk = payload[0]
    tracer.dump(Path(os.environ[TRACE_DIR_ENV]) / f"chunk-{chunk}.json")
    return result

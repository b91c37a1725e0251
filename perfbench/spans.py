"""Spans, Ray Data operator stats and in-process layer probes.

Everything here instruments the program from the outside: spans wrap the
benchmark's calls into ``jsschema_ray`` (a registered ``x-*`` handler, the
row-local stage, a manifest commit, one ``queries()`` entry), and the Ray
layer figures come from the ``DatasetStatsSummary`` that Ray Data builds
for every execution in this process. Nothing in ``jsschema_ray/`` changes.
Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from typing import Any, Iterator

import numpy as np

#: operator-name fragments of Ray Data's all-to-all (exchange) operators
_EXCHANGE_OPS = ("Sort", "Shuffle", "Repartition", "Aggregate", "Join")


class Tracer:
    """Spans with a name, start, end, parent and run id, plus the Ray Data
    executions that finished while each span was open."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict[str, Any]] = []
        self.executions: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self._seen_ops: set = set()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[dict[str, Any]]:
        rec = {"id": len(self.spans), "name": name, "run": self.run_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def record_execution(self, summary) -> None:
        """Fold one finished execution into per-layer totals. A stats tree
        also lists upstream operators that ran in an earlier execution
        (a materialized input); those are counted once."""
        ex = {"span": self._stack[-1] if self._stack else None,
              "elapsed_s": float(summary.time_total_s or 0.0),
              "exchange_s": 0.0, "task_s": 0.0, "exchange_bytes": 0,
              "spilled_bytes": int(summary.dataset_bytes_spilled or 0)}
        todo = [summary]
        while todo:
            node = todo.pop()
            todo.extend(node.parents)
            for op in node.operators_stats:
                key = (op.operator_name, op.earliest_start_time,
                       op.latest_end_time)
                if key in self._seen_ops or not op.wall_time:
                    continue
                self._seen_ops.add(key)
                busy = float(op.wall_time.get("sum", 0.0))
                if any(s in op.operator_name for s in _EXCHANGE_OPS):
                    ex["exchange_s"] += busy
                    if op.operator_name.endswith("Map") and op.output_size_bytes:
                        ex["exchange_bytes"] += int(
                            op.output_size_bytes.get("sum", 0))
                else:
                    ex["task_s"] += busy
        self.executions.append(ex)

    # -- summaries -----------------------------------------------------------
    def duration(self, span_id: int) -> float:
        s = self.spans[span_id]
        return s["end"] - s["start"]

    def descendants(self, span_id: int) -> list[int]:
        out, frontier = [], {span_id}
        for s in self.spans[span_id + 1:]:
            if s["parent"] in frontier:
                out.append(s["id"])
                frontier.add(s["id"])
        return out

    def executions_under(self, span_id: int) -> list[dict[str, Any]]:
        ids = {span_id, *self.descendants(span_id)}
        return [e for e in self.executions if e["span"] in ids]

    def stage_seconds(self, span_id: int) -> dict[str, float]:
        """Summed duration of each child span name under ``span_id``."""
        out: dict[str, float] = {}
        for sid in self.descendants(span_id):
            s = self.spans[sid]
            if s["parent"] == span_id:
                out[s["name"]] = out.get(s["name"], 0.0) + self.duration(sid)
        return out


@contextlib.contextmanager
def ray_stats_hook(tracer: Tracer) -> Iterator[None]:
    """Hand every Ray Data execution that finishes in this process to
    ``tracer``. Ray builds the summary anyway when an executor shuts down;
    the hook only keeps it."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    original = StreamingExecutor.shutdown

    def shutdown(self, *args, **kwargs):
        first = not self._shutdown
        out = original(self, *args, **kwargs)
        if first and self._final_stats is not None:
            tracer.record_execution(self._final_stats.to_summary())
        return out

    StreamingExecutor.shutdown = shutdown
    try:
        yield
    finally:
        StreamingExecutor.shutdown = original


@contextlib.contextmanager
def pipeline_spans(tracer: Tracer) -> Iterator[None]:
    """Span every layer boundary the pipeline crosses in this process: the
    row-local stage, each registered ``x-*`` handler and each manifest
    commit."""
    from jsschema_ray.pipelines.manifest import CheckpointManifest
    from jsschema_ray.pipelines.validate_pipeline import ValidationPipeline
    from jsschema_ray.schema.registry import (
        get_handler,
        register_constraint,
        registered_keywords,
    )

    def wrap(fn, name):
        def traced(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)
        return traced

    stage_names = {"x-uniqueness": "stages.uniqueness",
                   "x-referential": "stages.referential",
                   "x-stats": "stages.stats", "x-drift": "stages.drift",
                   "x-decode": "stages.multimodal.decode"}
    handlers = {kw: get_handler(kw) for kw in registered_keywords()}
    rowlocal = ValidationPipeline._run_rowlocal
    commit = CheckpointManifest.commit_partition
    for kw, fn in handlers.items():
        register_constraint(kw)(wrap(fn, stage_names.get(kw, f"stages.{kw}")))
    ValidationPipeline._run_rowlocal = wrap(rowlocal, "stages.validate")
    CheckpointManifest.commit_partition = wrap(commit,
                                               "pipelines.manifest.commit")
    try:
        yield
    finally:
        for kw, fn in handlers.items():
            register_constraint(kw)(fn)
        ValidationPipeline._run_rowlocal = rowlocal
        CheckpointManifest.commit_partition = commit


# -- in-process layer probes --------------------------------------------------

def _per_call(fn, items, reps: int = 3) -> float:
    """Median over ``reps`` of the mean seconds per item of ``fn``."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for it in items:
            fn(it)
        times.append((time.perf_counter() - t0) / len(items))
    return statistics.median(times)


def layer_probes(seed: int, pngs: list[bytes], batch, schema: dict,
                 scratch: str) -> dict[str, float]:
    """Time single layers in this process, on the run's seeded inputs:
    PNG decode and re-encode, the row-local kernels, sketch merges, schema
    compilation and one manifest commit."""
    from jsschema_ray.pipelines.image_schema import IMAGE_SCHEMA
    from jsschema_ray.pipelines.manifest import CheckpointManifest
    from jsschema_ray.schema.compiler import compile_schema
    from jsschema_ray.sources.png import decode_png, encode_png
    from jsschema_ray.stages.validate import ValidateBatch
    from jsschema_ray.state.hll import HyperLogLog
    from jsschema_ray.state.tdigest import TDigest

    images = [decode_png(p) for p in pngs]
    stage = ValidateBatch(schema, mode="violations", key_column="image_id")
    eval_s = _per_call(stage, [batch], reps=5)

    rng = np.random.default_rng((seed, 31))
    parts = []
    for _ in range(32):
        d = TDigest()
        d.add(rng.gamma(2.0, 50.0, 4096))
        parts.append(d)

    def merge_all(_):
        acc = TDigest()
        for d in parts:
            acc.merge(d)
        acc.quantile(0.5)

    merge_s = _per_call(merge_all, [None], reps=5) / len(parts)
    values = rng.integers(0, 1 << 40, 200_000)
    hll_s = _per_call(lambda v: HyperLogLog().add(v), [values], reps=5)
    manifest = CheckpointManifest(scratch)
    commit_s = _per_call(
        lambda i: manifest.commit_partition(
            f"probe-{i:03d}", "probe.parquet", {"rows": 1,
                                                "violation_rows": 0}),
        list(range(16)), reps=1)
    return {
        "sources.png.decode_us": _per_call(decode_png, pngs) * 1e6,
        "sources.png.encode_us": _per_call(encode_png, images) * 1e6,
        "kernels.eval_rows_per_s": batch.num_rows / eval_s,
        "state.tdigest.merge_us": merge_s * 1e6,
        "state.hll.add_ns_per_row": hll_s / len(values) * 1e9,
        "schema.compile_ms": _per_call(compile_schema, [IMAGE_SCHEMA] * 20)
        * 1e3,
        "pipelines.manifest.commit_ms": commit_s * 1e3,
    }


"""One measured Ray session: set-up, warm pass, timed closed loop, checks.

Started by ``run.py`` as the leader of its own process group, so that every
Ray process it starts can be killed with the group. It reports to its
parent through JSON lines on ``--events-fd``; Ray and the libraries log to
stdout/stderr, which the parent sends to a log file.

    python3 perfbench/session.py --workload W --seed N --seconds S \
        --trace 0|1 --inputs DIR --run-dir DIR --ray-temp DIR --events-fd FD
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import sys
import time
from typing import Any, Callable, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402
import spans as tracing  # noqa: E402

#: logical CPUs of the Ray session, as in tests/conftest.py, on any host
RAY_CPUS = 4
#: program set-up repetitions; setup_s counts their median
SETUP_REPS = 5


class Events:
    """JSON-line channel to the parent."""

    def __init__(self, fd: int):
        self._f = os.fdopen(fd, "w", buffering=1)

    def send(self, ev: str, **fields: Any) -> None:
        self._f.write(json.dumps({"ev": ev, **fields}) + "\n")


# -- workloads ----------------------------------------------------------------

def tabular_schema() -> dict:
    """IMAGE_SCHEMA without the payload column and the x-* keywords."""
    from jsschema_ray.pipelines.image_schema import IMAGE_SCHEMA

    return {
        "$schema": IMAGE_SCHEMA["$schema"], "type": "object",
        "required": [r for r in IMAGE_SCHEMA["required"] if r != "bytes"],
        "properties": {k: v for k, v in IMAGE_SCHEMA["properties"].items()
                       if k != "bytes"},
    }


class PipelineWorkload:
    """``ValidationPipeline.run(resume=False)`` over a sharded table; one
    operation is one pass."""

    def __init__(self, name: str, data: str, truth: dict, run_dir: str):
        from jsschema_ray.pipelines.image_schema import IMAGE_SCHEMA

        self.name = name
        self.data = os.path.join(data, "data")
        self.truth = truth
        self.out = os.path.join(run_dir, "out")
        self.schema = IMAGE_SCHEMA if name == "image_full" \
            else tabular_schema()
        self.profile = None
        self.rows_per_pass = truth["rows"]

    def setup(self) -> None:
        import ray.data as rd

        from jsschema_ray.schema.compiler import compile_schema
        from jsschema_ray.stages.drift import build_profile

        compile_schema(self.schema)
        if "x-drift" in self.schema:
            # the reference profile is the input itself: every partition
            # must pass the drift check
            self.profile = build_profile(
                rd.read_parquet(self.data, columns=["w", "h", "caption"]),
                self.schema["x-drift"]["columns"], batch_size=8192)

    def ops(self) -> list[tuple[str, Callable[[], Any]]]:
        return [("pass", self._pass)]

    def _pass(self):
        from jsschema_ray.pipelines.validate_pipeline import ValidationPipeline

        return ValidationPipeline(self.schema, self.data, self.out,
                                  drift_profile=self.profile).run(
                                      resume=False)

    def before_op(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def rows(self, _op: str) -> int:
        return self.rows_per_pass

    def check(self, _op: str, report: dict) -> list[str]:
        """Compare the pass with the synthesis manifest."""
        import pyarrow.dataset as pads

        bad = []
        vio = pads.dataset(os.path.join(self.out, "violations"),
                           partitioning="hive").to_table(columns=["key"])
        keys = set(vio.column("key").to_pylist())
        if keys != set(self.truth["rowlocal_keys"]):
            bad.append(f"row-local violation keys: {len(keys)} reported, "
                       f"{len(self.truth['rowlocal_keys'])} injected")
        counted = sum(p["metrics"]["violation_rows"]
                      for p in report["partitions"].values())
        if counted != vio.num_rows or len(report["partitions"]) == 0:
            bad.append(f"manifest counts {counted} violation rows, "
                       f"files hold {vio.num_rows}")
        if self.name != "image_full":
            return bad
        uniq = {u["column"]: u for u in report.get("uniqueness", [])}
        if uniq.get("image_id", {}).get("dup_keys") != len(
                self.truth["dup_image_ids"]):
            bad.append("duplicate image_id keys differ from the manifest")
        top = {r["image_id"] for r in uniq["image_id"].get(
            "top_duplicates", [])}
        if not top <= set(self.truth["dup_image_ids"]):
            bad.append("top duplicates name a key that is not duplicated")
        ref = report.get("referential", [{}])[0]
        if ref.get("n_violations") != len(self.truth["fmt_enum_keys"]):
            bad.append("referential violations differ from the manifest")
        if not report.get("drift") or not all(
                v["passed"] for v in report["drift"]):
            bad.append("drift check failed against its own profile")
        if report.get("stats", {}).get("w", {}).get("count") != \
                self.rows_per_pass:
            bad.append("stats row count differs from the input")
        dec = report.get("decode", {})
        want = set(self.truth["bad_png_keys"])
        if dec.get("n_violations") != len(want) or not all(
                s["key"] in want and s["reason"] == "decode_failed"
                for s in dec.get("sample", [])):
            bad.append(f"decode violations: {dec.get('n_violations')} "
                       f"reported, {len(want)} bad PNG payloads injected")
        return bad


class ExchangeWorkload:
    """The oracled ``queries()`` in a fixed order; one operation is one
    query, materialized inside the timed span."""

    def __init__(self, name: str, data: str, truth: dict, run_dir: str):
        self.sf = os.path.join(data, "sf")
        self.oracle_dir = os.path.join(data, "oracle")
        self.queries: dict[str, Callable] = {}
        self.oracle: dict[str, Any] = {}
        self._input_rows: dict[str, int] = {}

    def setup(self) -> None:
        import pandas as pd
        import pyarrow.parquet as pq

        import __ray_entry__ as contract

        qs = contract.queries()
        self.queries = {q: qs[q] for q in inputs.EXCHANGE_QUERIES}
        self.oracle = {q: pd.read_pickle(os.path.join(self.oracle_dir,
                                                      f"{q}.pkl"))
                       for q in inputs.EXCHANGE_QUERIES}
        self._input_rows = {
            t: pq.read_metadata(os.path.join(self.sf, f"{t}.parquet")).num_rows
            for t in inputs.EXCHANGE_TABLES}

    def ops(self) -> list[tuple[str, Callable[[], Any]]]:
        return [(q, (lambda q=q: _materialize(self.queries[q](self.sf))))
                for q in inputs.EXCHANGE_QUERIES]

    def before_op(self) -> None:
        pass

    def rows(self, op: str) -> int:
        return sum(self._input_rows[t] for t in _QUERY_TABLES[op])

    def check(self, op: str, result) -> list[str]:
        import pandas as pd

        got = inputs.canon(result if isinstance(result, pd.DataFrame)
                           else result.to_pandas())
        if inputs.same_answer(got, self.oracle[op]):
            return []
        return [f"{op}: result differs from its oracle_sql() answer"]


def _materialize(result):
    """Run a lazy Dataset to completion; results computed in this process
    (an Arrow table or a DataFrame) are already complete."""
    import ray.data

    if isinstance(result, ray.data.Dataset):
        return result.materialize()
    return result


#: input tables each exchange query reads (for rows_per_s)
_QUERY_TABLES = {
    "duplicate_keys": ("lineitem",),
    "join_orders_customers": ("orders", "customer"),
    "rolling_rows": ("events",), "session_windows": ("events",),
    "group_quantiles": ("documents",), "exact_dedup": ("documents",),
    "tpch_q18": ("lineitem", "orders", "customer"),
    "value_cdf": ("events",), "candidate_keys": ("lineitem",),
    "event_ranks": ("events",), "except_all_events": ("events",),
    "asof_join_orders": ("events", "orders"),
    "dedup_components": ("documents",),
}

WORKLOADS = {"image_full": PipelineWorkload,
             "tabular_dirty": PipelineWorkload,
             "exchange_mix": ExchangeWorkload}


# -- the session ----------------------------------------------------------------

def start_ray(temp_dir: str) -> None:
    import ray
    from ray.data import DataContext

    ray.init(address="local", num_cpus=RAY_CPUS, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=512 * 1024 * 1024, _temp_dir=temp_dir)
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.enable_auto_log_stats = False


class Session:
    def __init__(self, args, events: Events):
        self.args = args
        self.events = events
        self.mismatches: list[str] = []
        data = args.inputs
        truth = inputs.load_truth(data)
        self.wl = WORKLOADS[args.workload](args.workload, data, truth,
                                           args.run_dir)

    def timed_setup(self, fn: Callable[[], Any]) -> float:
        """One set-up step and its wall time; the parent samples the CPU
        time of the session's processes between the two events."""
        self.events.send("setup_start")
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        self.events.send("setup_end")
        return elapsed

    def run_op(self, name: str, fn: Callable[[], Any], measured: bool,
               tracer: Optional[tracing.Tracer] = None) -> float:
        """One closed-loop operation: timed call, then the correctness
        check outside the timed span."""
        self.wl.before_op()
        phase = "warm" if not measured else \
            "untraced" if tracer is None else "traced"
        self.events.send("op_start", op=name, phase=phase)
        if tracer is None:
            t0 = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - t0
        else:
            with tracer.span(f"op.{name}") as sp:
                result = fn()
            elapsed = sp["end"] - sp["start"]
        self.events.send("op_end", op=name, seconds=elapsed)
        bad = self.wl.check(name, result)
        self.mismatches.extend(bad)
        return elapsed

    def loop(self, seconds: float, tracer=None) -> dict[str, list[float]]:
        """Run operations in order, one at a time, while the next one is
        expected (by its median so far) to end within ``seconds``; always
        at least one whole pass."""
        lat: dict[str, list[float]] = {op: [] for op, _ in self.wl.ops()}
        t0 = time.perf_counter()
        done_pass = False
        while True:
            for op, fn in self.wl.ops():
                if done_pass and time.perf_counter() - t0 + \
                        statistics.median(lat[op]) > seconds:
                    return lat
                lat[op].append(self.run_op(op, fn, True, tracer))
            done_pass = True

    def pass_figures(self, lat: dict[str, list[float]]) -> dict[str, Any]:
        """A pass is every operation once; its time is the sum of the
        per-operation medians."""
        med = {op: statistics.median(v) for op, v in lat.items()}
        pass_s = sum(med.values())
        rows = sum(self.wl.rows(op) for op in lat)
        samples = min(len(v) for v in lat.values())
        q = {}
        if len(lat) == 1:  # one operation per pass: pass-time quartiles
            (v,) = lat.values()
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else v * 3
            q = {"q1": q1, "q3": q3}
        return {"pass_s": pass_s, "rows_per_s": rows / pass_s,
                "rows_per_pass": rows, "samples": samples,
                "op_median_s": med, "op_samples_s": lat, **q}

    def run(self) -> dict[str, Any]:
        a = self.args
        ray_s = self.timed_setup(lambda: start_ray(a.ray_temp))
        import ray

        self.events.send("ray_started",
                         logical_cpus=ray.cluster_resources()["CPU"],
                         session_dir=ray._private.worker._global_node
                         .get_session_dir_path())
        reps = [self.timed_setup(self.wl.setup) for _ in range(SETUP_REPS)]
        out: dict[str, Any] = {"ray_start_s": ray_s, "setup_reps_s": reps,
                               "setup_wall_s": ray_s + statistics.median(reps)}
        warm = [self.run_op(op, fn, False) for op, fn in self.wl.ops()]
        out["warm_pass_s"] = sum(warm)
        if not a.trace:
            out["untraced"] = self.pass_figures(self.loop(a.seconds))
        else:
            half = a.seconds / 2.0
            out["untraced"] = self.pass_figures(self.loop(half))
            out["traced"] = self.traced(half)
        out["mismatches"] = self.mismatches
        return out

    def traced(self, seconds: float) -> dict[str, Any]:
        """Per-layer figures: spans around the calls into each layer, Ray
        Data operator stats for every execution, then in-process probes."""
        from contextlib import ExitStack

        tracer = tracing.Tracer(run_id=f"{self.args.workload}-{self.args.seed}")
        with ExitStack() as stack:
            stack.enter_context(tracing.ray_stats_hook(tracer))
            if isinstance(self.wl, PipelineWorkload):
                stack.enter_context(tracing.pipeline_spans(tracer))
            lat = self.loop(seconds, tracer)
        fig = self.pass_figures(lat)
        fig["layers"] = self.layers_per_pass(tracer)
        fig["probes"] = self.probes()
        with open(os.path.join(self.args.run_dir, "trace.json"), "w") as f:
            json.dump({"spans": tracer.spans,
                       "executions": tracer.executions}, f)
        return fig

    def layers_per_pass(self, tracer: tracing.Tracer) -> dict[str, float]:
        """Median per pass of each layer total. A pass of the exchange
        workload is the sum over its queries of each query's median."""
        by_op: dict[str, list[dict[str, float]]] = {}
        for s in tracer.spans:
            if s["parent"] is not None or not s["name"].startswith("op."):
                continue
            op = s["name"][3:]
            execs = tracer.executions_under(s["id"])
            wall = tracer.duration(s["id"])
            ex_elapsed = sum(e["elapsed_s"] for e in execs)
            rec = {
                "wall_s": wall,
                "ray.exec_s": ex_elapsed,
                "ray.task_s": sum(e["task_s"] for e in execs),
                "ray.exchange_s": sum(e["exchange_s"] for e in execs),
                "ray.exchange_bytes": sum(e["exchange_bytes"] for e in execs),
                "ray.spilled_bytes": sum(e["spilled_bytes"] for e in execs),
                "ray.executions": len(execs),
                "driver_s": wall - ex_elapsed,
            }
            if isinstance(self.wl, PipelineWorkload):
                stages = tracer.stage_seconds(s["id"])
                commits = [tracer.duration(c) for c in tracer.descendants(
                    s["id"]) if tracer.spans[c]["name"]
                    == "pipelines.manifest.commit"]
                rec["pipelines.manifest.commit_pass_ms"] = sum(commits) * 1e3
                for name, sec in stages.items():
                    rec[f"{name}_s"] = sec
                rec["pipelines.driver_s"] = wall - sum(stages.values())
            by_op.setdefault(op, []).append(rec)
        out: dict[str, float] = {}
        for op, recs in by_op.items():
            keys = recs[0].keys()
            med = {k: statistics.median(r.get(k, 0.0) for r in recs)
                   for k in keys}
            if isinstance(self.wl, ExchangeWorkload):
                out[f"query.{op}_s"] = med["wall_s"]
                out[f"query.{op}.exchange_s"] = med["ray.exchange_s"]
            for k, v in med.items():
                if k != "wall_s":
                    out[k] = out.get(k, 0.0) + v
        return out

    def probes(self) -> dict[str, float]:
        """In-process layer probes on seeded samples of the image_full
        payloads and of tabular_dirty rows."""
        from jsschema_ray.sources.synth import synth_image_table

        seed = self.args.seed
        pngs = inputs.seeded_pngs(seed, 256,
                                  inputs.SHAPES["image_full"]["img_side"])
        batch, _ = synth_image_table(65536, seed=seed, violation_frac=0.25,
                                     with_bytes=False)
        return tracing.layer_probes(seed, pngs, batch.drop_columns(["bytes"]),
                                    tabular_schema(),
                                    os.path.join(self.args.run_dir, "probe"))


def die_with_parent(parent: int) -> None:
    """Have the kernel send SIGTERM to this session when the benchmark
    process dies, even by SIGKILL, so the session still tears down."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(1, signal.SIGTERM, 0, 0, 0) != 0:  # PR_SET_PDEATHSIG
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG)")
    if os.getppid() != parent:
        raise SystemExit("benchmark process ended before the session began")


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    for name in ("--workload", "--inputs", "--run-dir", "--ray-temp"):
        p.add_argument(name, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--events-fd", type=int, required=True)
    p.add_argument("--parent", type=int, required=True)
    a = p.parse_args(argv)
    events = Events(a.events_fd)

    def on_signal(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    die_with_parent(a.parent)
    try:
        result = Session(a, events).run()
        events.send("result", **result)
        return 0
    except Exception as e:  # reported to the parent, which fails the run
        import traceback

        traceback.print_exc()
        events.send("error", error=f"{type(e).__name__}: {e}")
        return 1
    finally:
        import ray

        if ray.is_initialized():
            ray.shutdown()
        if os.getppid() != a.parent:
            # orphaned: nobody else will kill what is left of the group
            os.killpg(0, signal.SIGKILL)


if __name__ == "__main__":
    sys.exit(main())

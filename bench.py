"""Benchmark harness (driver contract).

    python bench.py              # one JSON line: headline seconds + per-query
    python bench.py --flagship   # the flagship image-validation pipeline only
    python bench.py --scaling    # flagship at num_cpus N and 4N (default
                                 # 4 vs 16) in fresh processes -> throughput
                                 # at both + efficiency + machine ceilings

Env: GRAFT_SF_DIR (default /root/testdata/sf0.1), RAY_GRAFT_CPUS (default
32), GRAFT_SCALE_ROWS (default 8M), GRAFT_SCALE_LO/HI, GRAFT_SCALE_REPEATS.
The headline metric is wall seconds; rows_per_sec reports the flagship
image-validation throughput (BASELINE.json metric).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, REPO)

#: queries timed in the benchmark suite (name -> weight in the headline)
BENCH_QUERIES = [
    # flagship: image input_hint table
    "image_validate",
    "image_stats",
    "image_unique_phash",
    "image_decode",
    "image_drift",
    "approx_top_phash",
    "image_near_dup_components",
    "image_curation_pipeline",
    "aspect_bucket_stats",
    "image_letterbox_plan",
    # tabular validation + aggregation + global constraints
    "range_violations",
    "group_stats",
    "column_stats",
    "duplicate_keys",
    "referential_orphans",
    "json_validate",
    # joins + windows
    "join_orders_customers",
    "bloom_semi_orders",
    "rollup_revenue",
    "cube_revenue",
    "event_type_mode",
    "value_cdf",
    "quantity_mad",
    "weighted_median",
    "tpch_q3",
    "tpch_q18",
    "tpch_q4a",
    "tpch_q5",
    "tpch_q6",
    "tpch_q10",
    "tpch_q14",
    "tpch_q7",
    "tpch_q12a",
    "tpch_q15",
    "tpch_q19",
    "tpch_q8a",
    "tpch_q13",
    "tpch_q17",
    "tpch_q22a",
    "top_quantity_ties",
    "user_coverage",
    "quantity_skewness",
    "min_price_parts",
    "revenue_gini",
    "lang_source_chi2",
    "fd_source_lang",
    "orderkey_gaps",
    "value_monotonicity",
    "benford_digits",
    "longest_streaks",
    "event_type_runs",
    "event_count_spikes",
    "null_profile",
    "candidate_keys",
    "price_trimmed_mean",
    "price_histogram",
    "price_ks_flags",
    "user_activity_histogram",
    "revenue_pivot",
    "user_first_seen",
    "orders_snapshot_diff",
    "pareto_parts",
    "orders_checksum",
    "partition_checksums",
    "top_langs_per_source",
    "first_event_latency",
    "price_size_heatmap",
    "dedup_rate_by_source",
    "price_iqr_outliers",
    "image_bpp_outliers",
    "caption_spam",
    "phash_bit_balance",
    "order_totals_reconcile",
    "orders_upsert",
    "events_join_fanout",
    "dup_cluster_histogram",
    "image_magic_audit",
    "image_partition_verdicts",
    "embedding_health",
    "except_all_events",
    "intersect_all_events",
    "quantity_price_corr",
    "brand_price_linreg",
    "quantity_stddev",
    "quantity_zscore",
    "price_minmax",
    "price_decile",
    "price_winsorized",
    "weighted_discount",
    "tpch_q1",
    "tpch_q21a",
    "price_psi",
    "balance_band_pairs",
    "unmatched_balances",
    "click_purchase_pairs",
    "quantile_normalize",
    "cumulative_new_users",
    "event_value_share",
    "acctbal_percentile_cont",
    "group_quantile_sketch",
    "distinct_orders_sketch",
    "cohort_retention",
    "event_lag_lead",
    "weighted_sample",
    "mixture_sample",
    "doc_split_assign",
    "event_funnel",
    "incremental_dedup",
    "partitioned_write_roundtrip",
    "category_drift",
    "violation_summary",
    "chunk_documents",
    "chunk_pack_pipeline",
    "asof_join_orders",
    "range_join_acctbal",
    "session_windows",
    "hopping_windows",
    "hopping_distinct_users",
    "event_transitions",
    "event_cooccurrence",
    "rolling_windows",
    "rolling_rows",
    "event_deltas",
    "pivot_events",
    "histogram_chars",
    "ntile_events",
    "event_paths",
    "count_distinct_types",
    "best_event_per_user",
    "top_events_per_user",
    "top_value_events",
    "unpivot_lineitem",
    "session_length_histogram",
    "event_ranks",
    "first_last_touch",
    # training-data ops
    "exact_dedup",
    "sorted_neighborhood",
    "containment_pairs",
    "name_typo_pairs",
    "fuzzy_name_join",
    "normalize_docs",
    "normalized_dedup",
    "token_counts",
    "doc_freq_score",
    "source_vocab_overlap",
    "lang_concentration",
    "minhash_dedup",
    "simhash",
    "lang_id",
    "knn_brute",
    "embedding_dedup",
    "repetition",
    "contamination",
    "pii_redact",
    "pack_sequences",
    "similarity_join",
    "percentile_filter",
    "top_doc_frequency",
    "top_bigrams",
    "jaccard_pairs",
    "near_contamination",
    "group_quantiles",
    "dedup_components",
    "tfidf_terms",
    # composed curation chain (sample -> quality gate -> dedup -> cap)
    "curation_pipeline",
    # second closing session: rank-blend scoring, inter-arrival profile,
    # survivorship, Hamming radius calibration
    "doc_quality_blend",
    "event_gap_quantiles",
    "canonical_docs",
    "phash_distance_histogram",
]


def _consume(res) -> int:
    """Force full execution; return row count."""
    import pandas as pd
    import pyarrow as pa

    import ray.data

    if isinstance(res, ray.data.Dataset):
        # not count(): on a bare read it answers from the parquet footers
        return sum(b.num_rows for b in res.iter_batches(
            batch_size=None, batch_format="pyarrow"))
    if isinstance(res, pa.Table):
        return res.num_rows
    if isinstance(res, pd.DataFrame):
        return len(res)
    return 0



def _quiet_worker_logs():
    """worker_process_setup_hook: drop Ray Data's cosmetic 'Failed to hash
    the schemas (for deduplication)' WARNING (map-typed columns make
    pa.Schema unhashable; ray/data/_internal/arrow_ops/transform_pyarrow.py
    falls back to full unification, so nothing is actually wrong). The
    warning is emitted in WORKER processes, so it must be filtered there —
    a driver-side logging filter cannot reach it. A FILTER, not a level:
    Ray Data re-applies its per-dataset logging config after the hook runs,
    which resets levels but keeps filters (VERDICT r2 item #7)."""
    import logging

    class _DropSchemaHashWarning(logging.Filter):
        def filter(self, record):
            return "Failed to hash the schemas" not in record.getMessage()

    logging.getLogger(
        "ray.data._internal.arrow_ops.transform_pyarrow"
    ).addFilter(_DropSchemaHashWarning())


def run_bench() -> dict:
    import ray

    ncpu = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=ncpu,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
            runtime_env={"worker_process_setup_hook": _quiet_worker_logs},
        )
    _quiet_worker_logs()  # same filter for driver-side concats
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    import __ray_entry__ as m

    qs = m.queries()

    # warm-up (untimed): build the image cache + one pass over the inputs so
    # the OS page cache is hot and we measure compute + shuffle, not first IO
    m._image_dir(sf_dir)
    _consume(qs["column_stats"](sf_dir))
    n_image_rows = _consume(
        __import__("ray").data.read_parquet(m._image_dir(sf_dir),
                                            columns=["image_id"])
    )

    probe_before = host_fingerprint()
    times: dict[str, float] = {}
    rows: dict[str, int] = {}
    for name in BENCH_QUERIES:
        t0 = time.perf_counter()
        rows[name] = _consume(qs[name](sf_dir))
        times[name] = round(time.perf_counter() - t0, 3)
    probe_after = host_fingerprint()

    total = round(sum(times.values()), 3)
    image_secs = sum(times[n] for n in BENCH_QUERIES if n.startswith("image_"))
    out = {
        "metric": "bench suite wall time (validated rows/s in rows_per_sec)",
        "value": total,
        "unit": "sec",
        "queries": times,
        "sf": sf_dir,
        "num_cpus": ncpu,
        "rows_per_sec": round(n_image_rows * 5 / image_secs)  # 5 image stages
        if image_secs
        else None,
        "image_rows": n_image_rows,
        # host-window evidence: single-thread compute + memcpy rates and
        # their ratio to the recorded clean-window reference (BASELINE.md
        # "host-window variance" tables) — read these before comparing
        # wall times across rounds
        "host_probe_before": probe_before,
        "host_probe_after": probe_after,
    }
    return out


def run_flagship() -> dict:
    """The headline pipeline for the scaling criterion: the full image
    validation flow (row-local DAG masks -> stats sketches -> global
    uniqueness -> decode invariant) over a fixed synthesized input_hint
    table (GRAFT_SCALE_ROWS, default 8M rows — large enough that per-stage
    scheduling overhead is a small fraction of wall time at the low CPU
    level)."""
    import ray

    ncpu = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    # 8M rows: large enough that per-stage fixed costs (executor spin-up,
    # shuffle setup ~0.5-1 s) are <3% of even the 16-cpu stage times — at 4M
    # they bias the measured efficiency down by ~0.05
    n_rows = int(os.environ.get("GRAFT_SCALE_ROWS", "8000000"))
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR",
                 runtime_env={"worker_process_setup_hook": _quiet_worker_logs})
    _quiet_worker_logs()  # same filter for driver-side concats
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import ray.data as rd

    import __ray_entry__ as m
    from jsschema_ray.pipelines.image_schema import IMAGE_SCHEMA  # noqa: E501
    from jsschema_ray.stages.multimodal import decode_violations
    from jsschema_ray.stages.stats import StatsSpec, collect_stats
    from jsschema_ray.stages.uniqueness import duplicate_keys_multi
    from jsschema_ray.stages.validate import summarize

    img = m._image_dir_rows(n_rows)  # cache build is untimed
    meta_cols = ["image_id", "w", "h", "fmt", "caption", "phash"]
    schema = {k: v for k, v in IMAGE_SCHEMA.items() if not k.startswith("x-")}
    schema["required"] = [r for r in schema["required"] if r != "bytes"]
    _consume(rd.read_parquet(img, columns=meta_cols))  # warm page cache
    # warm the worker pool + executor machinery with one full untimed pass
    # (a limit()-truncated warm-up leaves cancelled tasks that perturb the
    # first timed stage) so stage timings measure compute, not worker spawn
    _consume(summarize(rd.read_parquet(img, columns=meta_cols), schema))

    def stage_masks():
        _consume(summarize(rd.read_parquet(img, columns=meta_cols), schema))

    def stage_stats():
        collect_stats(
            rd.read_parquet(img,
                            columns=["image_id", "w", "h", "fmt", "phash"]),
            StatsSpec(columns=["w", "h"], distinct=["image_id", "phash"],
                      quantiles=["w", "h"]),
        )

    def stage_uniqueness():
        res = duplicate_keys_multi(
            rd.read_parquet(img, columns=["image_id", "phash"]),
            ["image_id", "phash"])
        assert res["image_id"].num_rows >= 0 and res["phash"].num_rows >= 0

    def stage_decode():
        _consume(decode_violations(
            rd.read_parquet(img, columns=["image_id", "bytes", "fmt"]),
            batch_size=2048,
        ))

    # window-shuffle stage (r3 VERDICT item 8): the flagship's other four
    # stages cover map/sketch/all-to-all-unique/decode; this adds the
    # hash(key)-shuffle -> per-partition-sort window shape over a
    # same-sized synthetic events table (Zipf keys, unique tiebreak)
    from jsschema_ray.stages.windows import rolling_rows_windows

    ev_dir = f"/tmp/jsschema_ray_cache/events_{n_rows}"
    if not os.path.exists(os.path.join(ev_dir, "_DONE")):
        from jsschema_ray.sources.synth import write_events_dataset

        write_events_dataset(ev_dir, n_rows, shards=64)
        open(os.path.join(ev_dir, "_DONE"), "w").write("ok")
    _consume(rd.read_parquet(ev_dir))  # warm page cache (untimed)

    def stage_window_shuffle():
        _consume(rolling_rows_windows(
            rd.read_parquet(ev_dir), key="user_id", ts="ts",
            tiebreak="event_id", value="value", n_rows=5,
        ))

    # repeat and keep the per-stage minimum: single-node runs are noisy
    # (turbo, object-store GC); the min is the achievable compute time
    repeats = int(os.environ.get("GRAFT_SCALE_REPEATS", "2"))
    stage_fns = {
        "rowlocal_masks": stage_masks,
        "stats_sketches": stage_stats,
        "uniqueness": stage_uniqueness,
        "decode_invariant": stage_decode,
        "window_shuffle": stage_window_shuffle,
    }
    stages = {name: float("inf") for name in stage_fns}
    for _ in range(repeats):
        for name, fn in stage_fns.items():
            t0 = time.perf_counter()
            fn()
            stages[name] = round(min(stages[name],
                                     time.perf_counter() - t0), 3)

    total = round(sum(stages.values()), 3)
    return {
        "metric": "flagship image-validation pipeline wall time",
        "value": total,
        "unit": "sec",
        "queries": stages,
        "sf": f"synthetic input_hint table, {n_rows} rows",
        "num_cpus": ncpu,
        "rows_per_sec": round(n_rows * len(stages) / total),
        "image_rows": n_rows,
    }


#: single-thread probe rates observed in the cleanest round-5 window
#: (2026-08-18, 1-min load 0.5): the normalizers that turn a raw in-run
#: probe into the 0-1-ish "host ceiling" the BASELINE.md variance tables
#: use. This host's memory subsystem swings 3-10x between windows while
#: compute stays ~stable — a BENCH json must carry its own evidence.
_REF_COMPUTE_ITERS = 930.0   # zlib level-6 round-trips/s, 50 KB payload
_REF_MEMCPY_GBPS = 11.5      # np.copyto GB/s, 50 MB buffers


def host_fingerprint(seconds: float = 1.2) -> dict:
    """One single-process compute + memcpy probe (r5 VERDICT task 6:
    the bench SUITE json now records its own host-window fingerprint,
    like --scaling always did, so a degraded driver window is
    adjudicable without cross-referencing preview files)."""
    import time as _t
    import zlib as _z

    import numpy as np

    rng = np.random.default_rng(0)
    data = rng.integers(0, 256, size=50_000).astype(np.uint8).tobytes()
    t0 = _t.perf_counter()
    k = 0
    while _t.perf_counter() - t0 < seconds:
        _z.decompress(_z.compress(data, 6))
        k += 1
    compute = k / seconds
    a = np.zeros(50_000_000, dtype=np.uint8)
    b = np.empty_like(a)
    t0 = _t.perf_counter()
    k = 0
    while _t.perf_counter() - t0 < seconds:
        np.copyto(b, a)
        k += 1
    memcpy_gbps = k * a.nbytes / seconds / 1e9
    try:
        load1 = os.getloadavg()[0]
    except OSError:
        load1 = None
    return {
        "compute_iters_per_s": round(compute, 1),
        "memcpy_gb_per_s": round(memcpy_gbps, 2),
        "compute_vs_clean": round(compute / _REF_COMPUTE_ITERS, 3),
        "memcpy_vs_clean": round(memcpy_gbps / _REF_MEMCPY_GBPS, 3),
        "load1": load1,
    }


def _cpu_probe(_):
    import time as _t
    import zlib as _z

    import numpy as np

    rng = np.random.default_rng(0)
    data = rng.integers(0, 256, size=50_000).astype(np.uint8).tobytes()
    t0 = _t.perf_counter()
    k = 0
    while _t.perf_counter() - t0 < 3.0:
        _z.decompress(_z.compress(data, 6))
        k += 1
    return k


def _mem_probe(_):
    import time as _t

    import numpy as np

    a = np.zeros(50_000_000, dtype=np.uint8)
    b = np.empty_like(a)
    t0 = _t.perf_counter()
    k = 0
    while _t.perf_counter() - t0 < 3.0:
        np.copyto(b, a)
        k += 1
    return k


def measure_machine_ceilings(lo: int, hi: int) -> dict:
    """What lo->hi scaling THIS MACHINE can express, independent of Ray:
    a compute-bound probe (zlib round-trips — per-core turbo/thermal
    throttling) and a bandwidth-bound probe (memcpy — one shared memory
    controller). Single-node CPU scaling is bounded by these; on a real
    N->4N NODE cluster each node brings its own memory controller and
    thermal budget, so the CPU proxy understates true cluster scaling for
    bandwidth-bound stages."""
    import multiprocessing as mp

    out = {}
    for name, work in (("compute", _cpu_probe), ("bandwidth", _mem_probe)):
        rates = {}
        for n in (lo, hi):
            with mp.Pool(n) as p:
                rates[n] = sum(p.map(work, range(n)))
        out[name] = round((rates[hi] / rates[lo]) / (hi / lo), 3)
    return out


def run_scaling() -> dict:
    # N=4 vs 4N=16: on this box 8->32 is hardware-capped at ~0.80 efficiency
    # (zlib busy-work measures 3.21x from turbo/memory throttling) while
    # 4->16 measures 3.83x — the pair chosen so the MEASURED quantity is the
    # engine's scaling, not the silicon's frequency curve; override with
    # GRAFT_SCALE_LO/HI
    lo = int(os.environ.get("GRAFT_SCALE_LO", "4"))
    hi = int(os.environ.get("GRAFT_SCALE_HI", "16"))

    def run(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), PYTHONPATH=REPO)
        out = subprocess.run(
            [sys.executable, os.path.join(REPO, "bench.py"), "--flagship"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    r_lo, r_hi = run(lo), run(hi)
    t_lo, t_hi = r_lo["value"], r_hi["value"]
    eff = (t_lo / t_hi) / (hi / lo)
    ceilings = measure_machine_ceilings(lo, hi)
    stage_eff = {
        name: round((r_lo["queries"][name] / r_hi["queries"][name]) / (hi / lo), 3)
        for name in r_lo["queries"]
        if r_hi["queries"].get(name)
    }
    return {
        "machine_ceiling_efficiency": ceilings,
        "per_stage_efficiency": stage_eff,
        "metric": f"scaling efficiency of the flagship pipeline (proxy: "
                  f"num_cpus {lo} vs {hi}, fresh processes, same input)",
        "num_cpus_lo": lo,
        "num_cpus_hi": hi,
        "sec_lo": t_lo,
        "sec_hi": t_hi,
        "rows_per_sec_lo": r_lo["rows_per_sec"],
        "rows_per_sec_hi": r_hi["rows_per_sec"],
        "speedup": round(t_lo / t_hi, 3),
        "scaling_efficiency": round(eff, 3),
        "stages_lo": r_lo["queries"],
        "stages_hi": r_hi["queries"],
        "input": r_hi["sf"],
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    elif "--flagship" in sys.argv:
        result = run_flagship()
        print(json.dumps(result))
        import ray

        ray.shutdown()
    else:
        result = run_bench()
        print(json.dumps(result))
        import ray

        ray.shutdown()

"""Deterministic sampling + per-key quota operators for training-data
curation (the dataset-mixing half of a web-scale pipeline: fixed-seed
subsampling, per-language mixture fractions, per-domain document caps).

All three are driver-mandated training-data-operator additions with NO
reference analogue (the reference is a single-value validator); they follow
the repo's scale rules: scan-only where possible, pre-trim before any
shuffle, never a per-key Ray aggregate.

Design notes:
  * `hash_sample` / `stratified_hash_sample` select by a Knuth
    multiplicative hash of an integer key — ``((key + seed) * 2654435761)
    mod 2^32 < floor(fraction * 2^32)``. This is deliberately NOT the
    engine's hash64 (pandas hash_array): the arithmetic is exact in int64
    (no overflow for keys < ~3.4e9 after the guard below), so a DuckDB
    oracle can mirror the selection bit-for-bit — the sample is
    reproducible across engines, runs, and block layouts, and the
    correctness gate covers it. Pure map_batches filter: no shuffle, no
    driver state, composes with any downstream stage.
  * `cap_per_key` keeps the ``n`` first rows per key under a total order
    (order_col asc, deterministic). Per-batch PRE-TRIM (a batch's rows
    beyond its local top-n can never be in the global top-n) bounds the
    shuffle payload at batches × keys-per-batch × n rows, then one
    hash(key)-partitioned vectorized groupby-head per partition. The same
    composition shape as uniqueness/dedup: the block is the salt.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from jsschema_ray.stages.exchange import by_key

#: Knuth's 32-bit multiplicative hashing constant (public, TAOCP vol. 3)
KNUTH_A = 2654435761
_M32 = 1 << 32
#: (key + seed) * A must stay under 2^63 for the int64/SQL mirror to be
#: exact — guard keys at this bound
_MAX_KEY = (1 << 63) // KNUTH_A - 1


def _mix32(keys: np.ndarray, seed: int) -> np.ndarray:
    """((key + seed) * A) mod 2^32 — exact in int64, SQL-mirrorable as
    ``((key + seed) * 2654435761) % 4294967296``."""
    if keys.size and (keys.max() > _MAX_KEY or keys.min() < 0):
        raise ValueError(
            f"hash_sample keys must be in [0, {_MAX_KEY}] for the exact "
            f"int64/SQL-mirrorable mix; hash or remap larger keys first"
        )
    return ((keys.astype(np.int64) + np.int64(seed)) * np.int64(KNUTH_A)) \
        % np.int64(_M32)


def sample_threshold(fraction: float) -> int:
    """floor(fraction * 2^32): the integer cutoff BOTH the engine and a SQL
    oracle compare the mix against (compute once, share — never let two
    engines round the float independently)."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    return int(fraction * _M32)


def hash_sample(ds, key_column: str, fraction: float, seed: int = 1,
                batch_size: int = 262144):
    """Deterministic ``fraction``-rate sample: keep rows with
    mix32(key) < floor(fraction * 2^32). Scan-only (no shuffle, no RNG
    state); the same (key, seed, fraction) always selects the same rows on
    any cluster/block layout. Null keys drop."""
    thr = sample_threshold(fraction)

    def fn(batch: pa.Table) -> pa.Table:
        keys = batch.column(key_column).combine_chunks()
        k = keys.cast(pa.int64()).to_numpy(zero_copy_only=False) \
            if keys.null_count == 0 else \
            keys.cast(pa.int64()).fill_null(-1).to_numpy(zero_copy_only=False)
        valid = k >= 0 if keys.null_count else np.ones(len(k), dtype=bool)
        keep = np.zeros(len(k), dtype=bool)
        if valid.any():
            keep[valid] = _mix32(k[valid], seed) < thr
        return batch.filter(pa.array(keep))

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=batch_size,
                          zero_copy_batch=True)


def stratified_hash_sample(ds, key_column: str, strata_col: str,
                           fractions: dict, default_fraction: float = 0.0,
                           seed: int = 1, batch_size: int = 262144):
    """Per-stratum deterministic sampling (mixture construction: e.g.
    {'en': 0.5, 'de': 1.0} with default 0.1). Same mix32 selection, with a
    per-stratum threshold looked up via one dictionary-encode per batch —
    no shuffle, no per-row Python. Rows with a null stratum use
    ``default_fraction``."""
    thr_map = {k: sample_threshold(v) for k, v in fractions.items()}
    default_thr = sample_threshold(default_fraction)

    def fn(batch: pa.Table) -> pa.Table:
        keys = batch.column(key_column).combine_chunks()
        k = keys.cast(pa.int64()).fill_null(-1).to_numpy(
            zero_copy_only=False)
        strata = batch.column(strata_col).combine_chunks()
        enc = strata.dictionary_encode()
        labels = enc.dictionary.to_pylist()
        lab_thr = np.array(
            [thr_map.get(lab, default_thr) for lab in labels] + [default_thr],
            dtype=np.int64,
        )
        codes = enc.indices.fill_null(len(labels)).to_numpy(
            zero_copy_only=False).astype(np.int64)
        thr = lab_thr[codes]
        valid = k >= 0
        keep = np.zeros(len(k), dtype=bool)
        if valid.any():
            keep[valid] = _mix32(k[valid], seed) < thr[valid]
        return batch.filter(pa.array(keep))

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=batch_size,
                          zero_copy_batch=True)


def cap_per_key(ds, key_column: str, n: int, order_col: str,
                batch_size: int = 262144,
                keep_columns: Optional[list[str]] = None):
    """At most ``n`` rows per distinct ``key_column`` value — the rows with
    the ``n`` smallest ``order_col`` values (ties broken by order_col then
    input order inside a partition, made total by choosing a unique
    order_col such as a row id). The per-domain / per-source quota cap of
    dataset curation, as a two-stage composition:

      1. map-side pre-trim: each batch keeps only its local first-n per
         key (global first-n ⊆ union of per-batch first-n — monotone), so
         the shuffle moves at most batches × keys-per-batch × n rows;
      2. hash(key) co-partition + ONE vectorized groupby-head per
         partition (never per-key groups).

    Partitioning assumption (documented): one partition's pre-trimmed rows
    fit a worker; ``exchange.fanout`` grows the partition count with the
    cluster."""
    proj = keep_columns or None

    def pretrim(batch: pa.Table) -> pa.Table:
        if proj is not None:
            batch = batch.select(
                list(dict.fromkeys(proj + [key_column, order_col]))
            )
        df = batch.to_pandas()
        trimmed = df.sort_values(order_col, kind="stable").groupby(
            key_column, sort=False, dropna=False
        ).head(n)
        return pa.Table.from_pandas(trimmed, preserve_index=False,
                                    schema=batch.schema)

    def cap_part(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(order_col, kind="stable").groupby(
            key_column, sort=False, dropna=False
        ).head(n)

    return by_key(ds.map_batches(
        pretrim, batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True,
    ), [key_column], cap_part, batch_format="pandas")


def weighted_hash_sample(ds, key_column: str, weight_col: str, scale: int,
                         seed: int = 1, batch_size: int = 262144):
    """Deterministic WEIGHTED Bernoulli sample: keep each row with
    probability min(1, weight/scale) — the upweight-by-quality curation
    step (long/high-score documents survive at full rate, short ones
    proportionally). Selection is integer-exact and SQL-mirrorable like
    :func:`hash_sample`:

        keep  <=>  mix32(key) * scale < weight * 2^32

    (mix32 < 2^32 and scale <= 2^31 keep the product under 2^63; weight
    >= scale makes the inequality always true — the min(1, ·) clip comes
    free). Same determinism contract: (key, seed, scale) selects the
    same rows on any layout. NULL keys or weights drop; weights must be
    non-negative int64 below 2^31."""
    if not 1 <= scale <= (1 << 31):
        raise ValueError(f"scale must be in [1, 2^31], got {scale}")

    def fn(batch: pa.Table) -> pa.Table:
        keys = batch.column(key_column).combine_chunks()
        w = batch.column(weight_col).combine_chunks()
        # only genuine NULLs drop; a negative key or weight raises (r5
        # ADVICE fix: fill_null(-1) made NULL and -1 indistinguishable,
        # silently dropping key-domain bugs that _mix32 elsewhere rejects)
        valid = (np.asarray(keys.is_valid())
                 & np.asarray(w.is_valid()))
        k = keys.cast(pa.int64()).fill_null(0).to_numpy(
            zero_copy_only=False)
        wv = w.cast(pa.int64()).fill_null(0).to_numpy(
            zero_copy_only=False)
        if valid.any():
            if wv[valid].min() < 0:
                raise ValueError(
                    "weighted_hash_sample weights must be non-negative "
                    "(NULL weights drop; negative is a data bug)")
            if wv[valid].max() >= (1 << 31):
                raise ValueError(
                    "weighted_hash_sample weights must be < 2^31 for the "
                    "exact int64/SQL mirror; rescale weights first")
        keep = np.zeros(len(k), dtype=bool)
        if valid.any():
            # _mix32 raises on negative or oversized keys
            keep[valid] = (_mix32(k[valid], seed) * np.int64(scale)
                           < (wv[valid] << np.int64(32)))
        return batch.filter(pa.array(keep))

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=batch_size,
                          zero_copy_batch=True)


def sample_exact_n(ds, key_column: str, n: int, seed: int = 1,
                   batch_size: int = 262144):
    """Deterministic EXACT-size uniform sample: the ``n`` rows with the
    SMALLEST mix32(key) (key breaks mix ties) — completes the sampling
    family (fraction → hash_sample, per-stratum → stratified, weighted →
    weighted_hash_sample, per-key quota → cap_per_key, exact global n →
    this). Hash-rank selection is the distributed, rerun-stable
    equivalent of a reservoir sample: same (keys, seed, n) → same rows
    on any layout, and a SQL oracle mirrors it as ORDER BY mix LIMIT n.

    Scale shape: rides stages/stats.top_k_rows — per-batch pre-trim to
    the local n smallest (≤ n rows per batch cross the wire), one gather,
    replay. n is a result size, not data. NULL keys drop."""
    from jsschema_ray.stages.stats import top_k_rows

    def add_mix(batch: pa.Table) -> pa.Table:
        keys = batch.column(key_column).combine_chunks()
        batch = batch.filter(keys.is_valid())
        k = batch.column(key_column).combine_chunks().cast(
            pa.int64()).to_numpy(zero_copy_only=False)
        return batch.append_column("__mix", pa.array(_mix32(k, seed)))

    withmix = ds.map_batches(add_mix, batch_format="pyarrow",
                             batch_size=batch_size, zero_copy_batch=True)
    picked = top_k_rows(withmix, value="__mix", tiebreak=key_column,
                        k=n, descending=False, batch_size=batch_size)
    return picked.drop_columns(["__mix"])


def stratified_exact_n(ds, strata_col: str, counts: dict, key_column: str,
                       seed: int = 1, batch_size: int = 262144,
                       keep_columns: Optional[list[str]] = None):
    """Deterministic per-stratum EXACT-size quotas — the mixture-
    construction op of training-data curation ("exactly 2,000 wiki +
    500 code + 300 forum docs"): for each stratum in ``counts``, keep
    its counts[s] rows with the SMALLEST (mix32(key), key); strata not
    in ``counts`` (and NULL strata / NULL keys) drop; a stratum with
    fewer rows than its quota yields all of them. Completes the family:
    fraction → hash_sample, per-stratum rate → stratified_hash_sample,
    exact global n → sample_exact_n, per-stratum exact n → this. Same
    rerun-stability contract as the rest of the mix32 family (same
    keys/seed/quotas → same rows on any layout), SQL-mirrorable as
    ROW_NUMBER() OVER (PARTITION BY stratum ORDER BY mix, key) <= quota.

    Scale shape (the cap_per_key composition with per-stratum quotas):
    each batch pre-trims to its LOCAL first-quota rows per stratum via
    one sort + groupby-cumcount (global first-n ⊆ union of per-batch
    first-n — selection is monotone), so the shuffle carries at most
    batches × strata × quota rows; survivors hash(stratum)-co-partition
    and one identical vectorized pass per partition replays the
    selection. Quota table is a tiny in-code dict (a schema, not data)."""
    if not counts:
        raise ValueError("counts must be non-empty")
    if any(n < 0 for n in counts.values()):
        raise ValueError("quotas must be >= 0")

    strata_vals = pa.array(list(counts.keys()))

    def _trim_df(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["__mix", key_column], kind="stable")
        cc = df.groupby(strata_col, sort=False).cumcount()
        quota = df[strata_col].map(counts)
        return df[cc < quota]

    def pretrim(batch: pa.Table) -> pa.Table:
        if keep_columns is not None:
            batch = batch.select(list(dict.fromkeys(
                keep_columns + [strata_col, key_column])))
        sv = batch.column(strata_col).combine_chunks()
        keep = pc.and_(pc.is_in(sv, value_set=strata_vals),
                       pc.is_valid(batch.column(key_column)))
        batch = batch.filter(keep)
        k = batch.column(key_column).combine_chunks().cast(
            pa.int64()).to_numpy(zero_copy_only=False)
        batch = batch.append_column("__mix", pa.array(_mix32(k, seed)))
        return pa.Table.from_pandas(
            _trim_df(batch.to_pandas()), preserve_index=False,
            schema=batch.schema)

    def final_part(gdf: pd.DataFrame) -> pd.DataFrame:
        return _trim_df(gdf).drop(columns=["__mix"])

    return by_key(ds.map_batches(
        pretrim, batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True,
    ), [strata_col], final_part, batch_format="pandas")


def split_assign(ds, key_column: str, fractions: tuple = (0.98, 0.01),
                 labels: tuple = ("train", "val", "test"), seed: int = 1,
                 batch_size: int = 262144):
    """Deterministic train/val/test SPLIT labels — the dataset-split
    assignment every training pipeline runs, as a row-local map:
    appends ``split`` (string) chosen by where mix32(key) falls among
    the cumulative fraction thresholds (len(labels) = len(fractions)+1;
    the last label takes the remainder). Same rerun-stability contract
    as the mix32 family — the same (key, seed, fractions) labels the
    same row identically on any layout, any cluster, any day — and the
    same SQL mirror shape (CASE over the integer mix against
    precomputed integer thresholds, shared via sample_threshold so the
    two engines never round a float independently). NULL keys get a
    NULL split (they belong to no deterministic split; filter or remap
    upstream). Zero shuffles."""
    if len(labels) != len(fractions) + 1:
        raise ValueError("need len(labels) == len(fractions) + 1")
    if any(f < 0 for f in fractions) or sum(fractions) > 1.0:
        raise ValueError("fractions must be >= 0 and sum to <= 1")
    cum = []
    tot = 0.0
    for f in fractions:
        tot += f
        cum.append(sample_threshold(tot))
    thr = np.asarray(cum, dtype=np.int64)

    def fn(batch: pa.Table) -> pa.Table:
        keys = batch.column(key_column).combine_chunks()
        valid = keys.is_valid().to_numpy(zero_copy_only=False)
        k = keys.cast(pa.int64()).fill_null(0).to_numpy(
            zero_copy_only=False)
        mix = _mix32(np.where(valid, k, 0), seed)
        idx = np.searchsorted(thr, mix, side="right")
        lab = np.asarray(labels, dtype=object)[idx]
        return batch.append_column(
            "split", pa.array(np.where(valid, lab, None).tolist(),
                              pa.string()))

    return ds.map_batches(fn, batch_format="pyarrow",
                          batch_size=batch_size, zero_copy_batch=True)

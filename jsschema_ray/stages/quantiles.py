"""Exact distributed order statistics WITHOUT a sort shuffle: the k-th
smallest value of a numeric column via iterative range-refinement
histogram scans (the classic distributed selection algorithm — Blum et al.
selection generalized to scan/fold rounds).

Why not `ds.sort(col).limit(...)`: a global sort is an all-to-all exchange
of EVERY row. Selection needs only counts: each round histograms the
current candidate range into B bins with a map-side `np.bincount` partial
per batch (tiny: one (B,) int row + per-bin min/max), the driver folds
O(batches × B) partials, descends into the bin containing the target rank,
and re-scans. The range provably shrinks to actual data values (bins snap
to observed per-bin min/max), so rounds are O(log_B(distinct)) — 2-4 scans
in practice; the final short range is collected exactly once it holds
<= collect_limit rows.

Complements the t-digest APPROXIMATE quantiles in stages/stats.py
(sketches for profiles/drift; this op for exact thresholds — e.g.
percentile-based curation gates where the cut must be reproducible).

No reference analogue (single-value validator); driver-mandated
training-data operator class (sorts/top-k/sampling — SURVEY §2.D).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa

from jsschema_ray.stages.exchange import by_key


def _scan_partials(ds, column: str, lo: float, hi: float, bins: int,
                   batch_size: int):
    """One histogram round: per batch emit (counts[B], bmin[B], bmax[B],
    n_below, n_in) packed as binary blobs; driver folds."""

    edges = np.linspace(lo, hi, bins + 1)

    def fn(batch: pa.Table) -> pa.Table:
        x = batch.column(column).to_numpy(zero_copy_only=False)
        xf = x.astype(np.float64)
        xf = xf[~np.isnan(xf)]
        sel = (xf >= lo) & (xf <= hi)
        v = xf[sel]
        idx = np.clip(np.searchsorted(edges, v, side="right") - 1, 0,
                      bins - 1)
        counts = np.bincount(idx, minlength=bins).astype(np.int64)
        bmin = np.full(bins, np.inf)
        bmax = np.full(bins, -np.inf)
        if len(v):
            np.minimum.at(bmin, idx, v)
            np.maximum.at(bmax, idx, v)
        return pa.table(
            {
                "counts": pa.array([counts.tobytes()], type=pa.binary()),
                "bmin": pa.array([bmin.tobytes()], type=pa.binary()),
                "bmax": pa.array([bmax.tobytes()], type=pa.binary()),
            }
        )

    rows = ds.map_batches(fn, batch_format="pyarrow", batch_size=batch_size,
                          zero_copy_batch=True).take_all()
    counts = np.zeros(bins, dtype=np.int64)
    bmin = np.full(bins, np.inf)
    bmax = np.full(bins, -np.inf)
    for r in rows:
        counts += np.frombuffer(r["counts"], dtype=np.int64)
        bmin = np.minimum(bmin, np.frombuffer(r["bmin"], dtype=np.float64))
        bmax = np.maximum(bmax, np.frombuffer(r["bmax"], dtype=np.float64))
    return counts, bmin, bmax


def kth_smallest(ds, column: str, k, bins: int = 1024,
                 collect_limit: int = 65536, batch_size: int = 262144,
                 max_rounds: int = 64):
    """Exact k-th smallest (1-indexed, duplicates counted — SQL's
    ORDER BY col LIMIT 1 OFFSET k-1) of a numeric column. NaNs/nulls are
    ignored (SQL ORDER BY semantics for the OFFSET mirror require a
    NaN-free column; nulls sort last in SQL and never reach rank k <= n).
    ``k`` may be a callable(n) -> rank, resolved from the same scan that
    counts the column (one fewer pass for quantile wrappers). Returns a
    Python number of the column's kind (int for integer columns)."""
    sch = ds.schema()  # Ray Data Schema wrapper: parallel names/types
    col_type = dict(zip(sch.names, sch.types))[column]
    is_int = pa.types.is_integer(col_type)

    # round 0: global count / min / max
    def mm(batch: pa.Table) -> pa.Table:
        x = batch.column(column).to_numpy(zero_copy_only=False)
        xf = x.astype(np.float64)
        xf = xf[~np.isnan(xf)]
        if not len(xf):
            return pa.table({"n": pa.array([0], pa.int64()),
                             "lo": pa.array([np.inf]),
                             "hi": pa.array([-np.inf])})
        return pa.table({"n": pa.array([len(xf)], pa.int64()),
                         "lo": pa.array([float(xf.min())]),
                         "hi": pa.array([float(xf.max())])})

    rows = ds.map_batches(mm, batch_format="pyarrow", batch_size=batch_size,
                          zero_copy_batch=True).take_all()
    n = sum(r["n"] for r in rows)
    if callable(k):
        k = k(n)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} non-null rows")
    lo = min(r["lo"] for r in rows)
    hi = max(r["hi"] for r in rows)
    rank = k  # rank within [lo, hi]
    in_range = n

    for _ in range(max_rounds):
        if lo == hi:
            return int(lo) if is_int else lo
        if in_range <= collect_limit:
            break
        counts, bmin, bmax = _scan_partials(
            ds, column, lo, hi, bins, batch_size
        )
        cum = np.cumsum(counts)
        b = int(np.searchsorted(cum, rank, side="left"))
        rank -= int(cum[b - 1]) if b else 0
        lo, hi = float(bmin[b]), float(bmax[b])
        in_range = int(counts[b])

    # exact tail: collect the (small) candidate range once
    def in_rng(batch: pa.Table) -> pa.Table:
        x = batch.column(column).to_numpy(zero_copy_only=False)
        xf = x.astype(np.float64)
        sel = (xf >= lo) & (xf <= hi) & ~np.isnan(xf)
        return pa.table({column: pa.array(xf[sel])})

    vals = np.sort(np.array(
        [r[column] for r in ds.map_batches(
            in_rng, batch_format="pyarrow", batch_size=batch_size,
            zero_copy_batch=True).take_all()]
    ))
    v = float(vals[rank - 1])
    return int(v) if is_int else v


def quantile_disc(ds, column: str, q: float, **kw):
    """Exact discrete quantile: the k-th smallest with
    k = floor(q * (n-1)) + 1 over non-null rows (numpy/pandas
    interpolation='lower' rank; NOTE DuckDB's QUANTILE_DISC uses
    ceil(q*n) instead — grouped_quantile_disc mirrors THAT; the
    percentile_filter oracle mirrors this one via ORDER BY/OFFSET).
    Counts rows once, then selects."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    return kth_smallest(ds, column, lambda n: int(q * (n - 1)) + 1, **kw)


def grouped_quantile_disc(ds, group_col: str, column: str, q: float,
                          batch_size: int = 262144,
                          qs: Optional[tuple] = None):
    """Exact per-group discrete quantile(s) with DuckDB QUANTILE_DISC
    rank semantics (k-th smallest, k = max(1, ceil(q * n_group)),
    verified empirically incl. duplicate ties). Returns a Dataset of
    (group_col, q_value) — or, when ``qs`` is given, one
    ``q<percent>_disc`` column per requested quantile from the SAME
    single pass (``q`` is ignored then).

    Scale shape — raw rows never shuffle: each batch pre-aggregates to
    (group, value, count) rows (bounded by DISTINCT values per group, the
    histogram trick), those count rows hash(group)-co-partition, and each
    partition does ONE fully vectorized weighted selection for ALL its
    groups: with the partition sorted by (group, value), the global
    cumsum of counts is monotone, and a group's k-th smallest sits at
    ``np.searchsorted(global_cumsum, base_g + k_g)`` (positions before
    the segment satisfy cumsum <= base_g < base_g + k_g, positions
    inside reach base_g + n_g >= base_g + k_g) — one batched
    searchsorted over (groups x quantiles) needles, no per-group loop
    (r5 upgrade: the former per-STRATUM Python loop and its documented
    low-cardinality contract are gone; the remaining contract is the
    standard one — a partition's distinct (group, value) pairs fit a
    worker; ``exchange.fanout`` grows the partition count with the
    cluster).

    Rank-parity caveat (documented): k is computed as ceil(q * n) in
    float64 exactly as SQL engines do; q values exactly representable in
    binary (0.5, 0.25, 0.75...) are boundary-safe, arbitrary q may differ
    at ceil boundaries between float implementations."""
    import pandas as pd

    if qs is None:
        q_list, out_names = [q], ["q_value"]
    else:
        q_list = list(qs)
        out_names = [f"q{round(qq * 100):02d}_disc" for qq in q_list]
        if len(set(out_names)) != len(out_names):
            raise ValueError(f"qs collide at integer percents: {qs}")
    if any(not 0.0 <= qq <= 1.0 for qq in q_list):
        raise ValueError(f"quantiles must be in [0, 1], got {q_list}")

    def select_part(gdf: pd.DataFrame) -> pd.DataFrame:
        if not len(gdf):
            return pd.DataFrame(
                {group_col: gdf[group_col]}
                | {nm: gdf[column] for nm in out_names})
        gdf, uniq, csum, base, n_g = _sorted_segments(gdf, group_col,
                                                      column)
        vals = gdf[column].to_numpy()
        out = {group_col: uniq}
        for qq, nm in zip(q_list, out_names):
            k = np.maximum(1, np.ceil(qq * n_g.astype(np.float64))
                           ).astype(np.int64)
            out[nm] = vals[np.searchsorted(csum, base + k, side="left")]
        return pd.DataFrame(out)

    return _grouped_value_counts(ds, group_col, column, batch_size,
                                 select_part)


def _grouped_value_counts(ds, group_col: str, column: str, batch_size: int,
                          finish):
    """Shared histogram-trick pre-aggregation of the grouped quantile
    family: per batch, collapse to (group, value, cnt) rows (NULL values
    drop), then run ``finish`` (a pandas fn) once per hash(group)
    partition — only COUNT rows ever shuffle."""

    def pre(batch: pa.Table) -> pa.Table:
        df = batch.select([group_col, column]).to_pandas()
        df = df[df[column].notna()]
        g = (df.groupby([group_col, column], sort=False, dropna=False)
             .size().reset_index(name="cnt"))
        # strip the pandas schema metadata from_pandas attaches: dict
        # metadata makes the schema unhashable, which disables Ray's
        # shuffle schema-dedup fast path and spams reduce-task logs
        return pa.Table.from_pandas(
            g, preserve_index=False).replace_schema_metadata(None)

    return by_key(ds.map_batches(pre, batch_format="pyarrow",
                                 batch_size=batch_size, zero_copy_batch=True),
                  [group_col], finish, batch_format="pandas")


def _sorted_segments(gdf, group_col: str, column: str):
    """Sort a partition's (group, value, cnt) rows by (group, value) and
    return (sorted_gdf, unique_groups, global_cumsum, per-group base
    offsets, per-group totals) — the vectorized-selection scaffolding
    shared by the grouped quantile family. NaN groups form one block
    (pandas sorts them last)."""
    import pandas as pd

    gdf = gdf.sort_values([group_col, column], kind="stable")
    codes, uniq = pd.factorize(gdf[group_col], use_na_sentinel=False)
    cnt = gdf["cnt"].to_numpy(dtype=np.int64)
    csum = np.cumsum(cnt)
    starts = np.r_[0, np.nonzero(np.diff(codes))[0] + 1]
    base = np.where(starts > 0, csum[starts - 1], 0)
    ends = np.r_[starts[1:], len(cnt)] - 1
    n_g = csum[ends] - base
    return gdf, uniq, csum, base, n_g


def grouped_quantile_cont(ds, group_col: str, column: str, q: float,
                          batch_size: int = 262144):
    """Exact per-group CONTINUOUS (interpolated) quantile — SQL
    PERCENTILE_CONT rank semantics: with the group's n non-null values
    sorted ascending (0-based v), h = (n-1)*q in float64,
    lo = floor(h), frac = h - lo,

        q_cont = f(v[lo]) + (f(v[lo+1]) - f(v[lo])) * frac

    (f = exact cast to float64; the upper rank clamps to n-1, where
    frac is necessarily 0). Returns (group_col, n, q_cont float64).

    Float-parity contract (the bit-mirror recipe): every step — the
    (n-1)*q product, floor, the frac subtraction, and the one
    interpolation — is a plain IEEE float64 op on exactly-representable
    inputs, in ONE spelled order. A SQL mirror selecting the same two
    order statistics (ROW_NUMBER ranks lo+1 and LEAST(lo+2, n)) and
    spelling the same expression reproduces the float64 bits, so the
    result hashes against a DuckDB oracle without tolerance (DuckDB's
    own QUANTILE_CONT cannot be trusted to share the op order — the
    manual two-rank mirror is the contract).

    Scale shape: identical to :func:`grouped_quantile_disc` — the
    shared histogram pre-aggregation, one hash(group) co-partition of
    count rows, and one batched two-needle searchsorted per partition
    (no per-group loop)."""
    import pandas as pd

    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")

    def select_part(gdf: pd.DataFrame) -> pd.DataFrame:
        if not len(gdf):
            return pd.DataFrame({
                group_col: gdf[group_col],
                "n": pd.Series([], dtype="int64"),
                "q_cont": pd.Series([], dtype="float64")})
        gdf, uniq, csum, base, n_g = _sorted_segments(gdf, group_col,
                                                      column)
        vals = gdf[column].to_numpy()
        h = (n_g - 1).astype(np.float64) * q
        lo = np.floor(h)
        frac = h - lo
        klo = lo.astype(np.int64) + 1            # 1-based lower rank
        khi = np.minimum(klo + 1, n_g)           # clamp at the top
        vlo = vals[np.searchsorted(csum, base + klo, side="left")] \
            .astype(np.float64)
        vhi = vals[np.searchsorted(csum, base + khi, side="left")] \
            .astype(np.float64)
        return pd.DataFrame({group_col: uniq, "n": n_g,
                             "q_cont": vlo + (vhi - vlo) * frac})

    return _grouped_value_counts(ds, group_col, column, batch_size,
                                 select_part)


def value_cdf(ds, col: str, batch_size: int = 262144):
    """Integer-exact global CDF per DISTINCT non-null value of ``col``:
    (col, n_lt, n_le, n_total) — the score-percentile normalization step
    of a curation pipeline (percent_rank of a value = n_lt / (n_total-1),
    CDF = n_le / n_total), exact where a t-digest estimates.

    Scale shape (r5: distributed finish — the former single-task cumsum
    with its distinct-values-fit-one-worker contract is gone): the raw
    scan collapses to per-batch distinct-value count partials, which
    merge through a hash(value) co-partition (the _grouped_value_counts
    shape — Ray's own key-sort Aggregate measured 26 s on a 150k-distinct
    float key where this hash shuffle takes ~2 s; only COUNT rows ever
    shuffle). The O(distinct)-row counts table is then RANGE-partitioned
    by one Dataset sort and finishes with the packing.py prefix-sum
    shape — scan A emits one (block_start_value, block_count_sum) row
    per sorted BLOCK, the driver folds those O(blocks) rows into
    exclusive per-block base offsets (never touching value rows), and
    scan B cumsums each block seeded by its base. No stage holds more
    than one block of distinct values. NULLs are excluded (SQL aggregate
    semantics); -0.0/0.0 merge like SQL GROUP BY; NaN groups last (numpy
    and SQL both order NaN after +inf)."""
    import pyarrow.compute as pc

    def pre(batch: pa.Table) -> pa.Table:
        c = batch.column(col).combine_chunks().drop_null()
        g = pa.table({col: c}).group_by([col]).aggregate(
            [([], "count_all")])
        return g.rename_columns(
            ["cnt" if n == "count_all" else n for n in g.column_names])

    def merge_part(t: pa.Table) -> pa.Table:
        g = t.group_by([col]).aggregate([("cnt", "sum")])
        return g.rename_columns(
            ["cnt" if n == "cnt_sum" else n for n in g.column_names])

    counts = by_key(ds.select_columns([col]).map_batches(
        pre, batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True,
    ), [col], merge_part)

    # range partition: one Dataset sort; blocks hold disjoint, ordered
    # value ranges and every distinct value exactly once
    sorted_counts = counts.sort(col).materialize()

    # scan A: one (first_value, cnt_sum) partial per BLOCK
    # (batch_size=None = whole blocks) — O(blocks) rows to the driver
    def block_partial(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return pa.table({"first": pa.array([], t.schema.field(col).type),
                             "csum": pa.array([], pa.int64())})
        c = t.column("cnt").to_numpy(zero_copy_only=False)
        return pa.table({"first": t.column(col).slice(0, 1),
                         "csum": pa.array([int(c.sum())], pa.int64())})

    parts = sorted_counts.map_batches(
        block_partial, batch_format="pyarrow", batch_size=None).take_all()

    def _key(v):
        # NaN is a valid (single, last-sorting) distinct value but is
        # neither orderable in python sorts nor equal to itself in dict
        # lookups — map it to a sentinel
        return ("__nan__",) if isinstance(v, float) and v != v else v

    parts.sort(key=lambda r: (isinstance(_key(r["first"]), tuple),
                              _key(r["first"])))
    sums = np.array([r["csum"] for r in parts], dtype=np.int64)
    bases = np.cumsum(sums) - sums  # exclusive prefix per block
    total = int(sums.sum()) if len(sums) else 0
    base_by_first = {_key(r["first"]): int(b)
                     for r, b in zip(parts, bases)}

    # scan B: per-block cumsum seeded by the block's base offset
    def finish(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            e = pa.array([], pa.int64())
            return pa.table({col: t.column(col),
                             "n_lt": e, "n_le": e, "n_total": e})
        base = base_by_first[_key(t.column(col)[0].as_py())]
        c = t.column("cnt").to_numpy(zero_copy_only=False).astype(np.int64)
        n_le = np.cumsum(c) + base
        return pa.table({
            col: t.column(col),
            "n_lt": pa.array(n_le - c),
            "n_le": pa.array(n_le),
            "n_total": pa.array(np.full(len(c), total, dtype=np.int64)),
        })

    return sorted_counts.map_batches(finish, batch_format="pyarrow",
                                     batch_size=None)


def quantile_normalize(ds, col: str, keep: list | None = None,
                       batch_size: int = 262144):
    """Map every row's ``col`` value to its EXACT empirical CDF position —
    the rank/quantile normalization step of a curation pipeline (score →
    percentile before thresholding or blending across heterogeneous
    scorers). Output: the ``keep`` id columns + ``col`` + integer-exact
    (n_lt, n_le, n_total) + ``cdf`` = n_le/n_total (SQL CUME_DIST) +
    ``pct_rank`` = n_lt/(n_total-1) (SQL PERCENT_RANK; 0.0 when
    n_total = 1). NULL values drop (SQL window-over-non-null semantics
    via the inner join back).

    Scale shape: value_cdf builds the O(distinct)-row exact CDF (hash
    co-partitioned count merge + range-partitioned prefix sum, no stage
    holds more than a block); rows join back to it by ONE partitioned
    hash join on the value — never a sort of the data, never a driver
    gather. Floats appear only as two spelled divisions of exact int64
    counts, bit-mirrorable in SQL."""
    import pyarrow.compute as pc

    from jsschema_ray.stages.join import hash_join

    cdf = value_cdf(ds, col, batch_size=batch_size)
    cols = ([c for c in (keep or []) if c != col]) + [col]
    joined = hash_join(ds.select_columns(cols), cdf, key=col, how="inner")

    def finish(b: pa.Table) -> pa.Table:
        n_lt = b.column("n_lt").cast(pa.float64())
        n_le = b.column("n_le").cast(pa.float64())
        n_tot = b.column("n_total").cast(pa.float64())
        cdfv = pc.divide(n_le, n_tot)
        denom = pc.subtract(n_tot, pa.scalar(1.0))
        pr = pc.if_else(pc.greater(denom, 0.0),
                        pc.divide(n_lt, denom), pa.scalar(0.0))
        return b.append_column("cdf", cdfv).append_column("pct_rank", pr)

    return joined.map_batches(finish, batch_format="pyarrow",
                              zero_copy_batch=True)


def grouped_mad(ds, group_col: str, column: str,
                batch_size: int = 262144):
    """Exact per-group median absolute deviation with QUANTILE_DISC rank
    semantics on BOTH medians: MAD = median(|x - median(x)|) — the
    robust spread statistic outlier gates use where stddev is skew-
    fragile. Returns (group_col, mad). Float parity is exact: both
    engines compute the same double subtraction/abs on the same values,
    and the discrete quantile SELECTS an existing value rather than
    interpolating (DuckDB's mad() interpolates — the oracle spells out
    the DISC form).

    Scale shape: two raw scans by construction (the inner median must
    exist before deviations do — SQL pays the same); each is the
    histogram-trick pre-aggregation of :func:`grouped_quantile_disc`,
    and the O(groups)-row median table broadcast-joins back (ray.put
    once). Same contract as grouped_quantile_disc (a partition's
    distinct (group, value) pairs fit a worker); the broadcast median
    table additionally requires O(groups) to fit the object store
    copy."""
    import pyarrow.compute as pc

    from jsschema_ray.stages.join import broadcast_join

    med = grouped_quantile_disc(ds, group_col, column, 0.5,
                                batch_size=batch_size).map_batches(
        lambda b: b.rename_columns([group_col, "__med"]),
        batch_format="pyarrow", zero_copy_batch=True)

    joined = broadcast_join(ds.select_columns([group_col, column]), med,
                            key=group_col)

    def absdev(batch: pa.Table) -> pa.Table:
        return pa.table({
            group_col: batch.column(group_col),
            "absdev": pc.abs(pc.subtract(batch.column(column),
                                         batch.column("__med"))),
        })

    devs = joined.map_batches(absdev, batch_format="pyarrow",
                              batch_size=batch_size, zero_copy_batch=True)
    return grouped_quantile_disc(devs, group_col, "absdev", 0.5,
                                 batch_size=batch_size).map_batches(
        lambda b: b.rename_columns([group_col, "mad"]),
        batch_format="pyarrow", zero_copy_batch=True)


def grouped_tdigest_quantiles(ds, group_col: str, column: str,
                              qs: tuple = (0.5,), compression: float = 200.0,
                              batch_size: int = 262144):
    """APPROXIMATE per-group quantiles at UNBOUNDED group cardinality —
    the mergeable-sketch counterpart of :func:`grouped_quantile_disc`
    (exact, but its histogram trick needs each partition's distinct
    (group, value) pairs to fit a worker — the sketch bounds a hot
    group's footprint by centroid count instead) built on
    state/tdigest.TDigest (Dunning & Ertl, public algorithm). Returns a
    Dataset of
    (group_col, n, vmin, vmax, q<percent> per requested quantile);
    n/vmin/vmax are EXACT (counts and extremes survive t-digest merging
    exactly), quantiles carry the usual t-digest error (tight at the
    tails, ~1/compression relative rank error in the middle).

    Scale shape — the map-side-combine sketch pattern of
    aggregates.grouped_sums, applied to a sketch instead of a sum: each
    batch emits ONE partial blob per (group, batch) — raw packed values
    while the group's in-batch count is below 8x compression (weight-1
    centroids ARE a valid t-digest partial), auto-compressed to
    (means, weights) centroids above it, so a hot group's shuffle
    volume is bounded by centroid count while a long-tail group costs
    exactly its values. Partials hash(group)-co-partition ONCE
    (``exchange.fanout()`` tasks, not one UDF call per group), and each
    partition merges + queries its groups vectorized per blob set. Driver holds
    nothing; 10^8 groups shuffle O(groups x batches-touching-them)
    blob rows. NULL values drop (SQL aggregate semantics); groups whose
    every value is NULL are absent (SQL GROUP BY over the non-null
    scan)."""
    import struct

    import pandas as pd

    from jsschema_ray.state.tdigest import TDigest

    if not qs or any(not 0.0 <= q <= 1.0 for q in qs):
        raise ValueError(f"qs must be within [0, 1], got {qs}")
    qcols = [f"q{round(q * 100):02d}" for q in qs]
    if len(set(qcols)) != len(qcols):
        raise ValueError(f"qs collide at integer percents: {qs}")
    raw_cap = int(8 * compression)

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.select([group_col, column])
        t = t.filter(t.column(column).is_valid())
        if t.num_rows == 0:
            return pa.table({group_col: pa.array([], batch.schema.field(
                group_col).type), "blob": pa.array([], pa.binary())})
        gv = t.column(group_col).combine_chunks()
        vals = t.column(column).to_numpy(zero_copy_only=False).astype(
            np.float64)
        codes, uniques = pd.factorize(gv.to_pandas(), use_na_sentinel=False)
        order = np.lexsort((vals, codes))
        sc, sv = codes[order], vals[order]
        bounds = np.searchsorted(sc, np.arange(len(uniques) + 1))
        blobs = []
        for i in range(len(uniques)):
            seg = sv[bounds[i]:bounds[i + 1]]
            if len(seg) > raw_cap:
                td = TDigest(compression)
                td.add(seg)
                td._compress()
                blobs.append(
                    struct.pack("<qdd", -len(td.means), seg[0], seg[-1])
                    + td.means.tobytes() + td.weights.tobytes())
            else:
                # raw sorted values, implicit weight 1 — exact partial
                blobs.append(struct.pack("<qdd", len(seg), seg[0], seg[-1])
                             + seg.tobytes())
        return pa.table({group_col: pa.array(uniques),
                         "blob": pa.array(blobs, type=pa.binary())})

    def merge_part(gdf: pd.DataFrame) -> pd.DataFrame:
        out = {group_col: [], "n": [], "vmin": [], "vmax": []}
        for c in qcols:
            out[c] = []
        for key, sub in gdf.groupby(group_col, sort=False, dropna=False):
            td = TDigest(compression)
            vmin, vmax = np.inf, -np.inf
            for blob in sub["blob"]:
                k, bmin, bmax = struct.unpack_from("<qdd", blob)
                body = np.frombuffer(blob, dtype="<f8", offset=24)
                if k >= 0:
                    td.add(body)
                else:
                    td.add(body[:-k], body[-k:])
                vmin, vmax = min(vmin, bmin), max(vmax, bmax)
            td._min, td._max = vmin, vmax
            out[group_col].append(key)
            out["n"].append(int(round(td.count)))
            out["vmin"].append(vmin)
            out["vmax"].append(vmax)
            for q, c in zip(qs, qcols):
                out[c].append(td.quantile(q))
        return pd.DataFrame(out)

    return by_key(ds.map_batches(
        partial, batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True,
    ), [group_col], merge_part, batch_format="pandas")


def decile_assign(ds, id_cols: list, col: str, k: int = 10,
                  batch_size: int = 262144):
    """Per-row GLOBAL quantile-bucket assignment of ``col`` (decile for
    k=10) by the CUME_DIST rule — the value-based feature-binning step
    of a curation pipeline (a row at the p-th percentile lands in bucket
    ~floor(p*k); ties share a bucket because peers share n_le):

        bucket = min( ceil( f(n_le)/f(n_total) * f(k) ) - 1 , k-1 )

    over the EXACT int64 (n_le, n_total) from :func:`value_cdf`. Float
    parity: both operands of the division are exact ints and the finish
    is one spelled order — divide, multiply by the k literal, CEIL,
    subtract 1, clamp — mirrored in SQL by ``COUNT(*) OVER (ORDER BY
    col)`` (the default RANGE frame counts peers, i.e. n_le) with the
    same CASTs, so buckets are bit-identical. Rows with NULL ``col``
    are DROPPED (the mirror's WHERE col IS NOT NULL; value_cdf excludes
    NULLs from ranks either way). Returns id_cols + [col, "bucket"].

    Scale shape: value_cdf (per-batch distinct-count map-side combine +
    range-partitioned prefix-sum finish, no O(distinct) single task), a
    row-local bucket map over the O(distinct)-row cdf table, then ONE
    partitioned hash join back on the value column
    (:func:`jsschema_ray.stages.join.hash_join`, inner) — the cdf table
    is never broadcast and the driver never sees value rows."""
    import pyarrow.compute as pc

    from jsschema_ray.stages.join import hash_join

    if k < 1:
        raise ValueError(f"decile_assign needs k >= 1, got {k}")
    fk = float(k)
    top = k - 1

    cdf = value_cdf(ds, col, batch_size=batch_size)

    def bucketize(t: pa.Table) -> pa.Table:
        n_le = t.column("n_le").to_numpy(zero_copy_only=False).astype(
            np.float64)
        n_tot = t.column("n_total").to_numpy(zero_copy_only=False).astype(
            np.float64)
        b = np.ceil(n_le / n_tot * fk) - 1.0
        b = np.minimum(b, float(top)).astype(np.int64)
        return pa.table({col: t.column(col), "bucket": pa.array(b)})

    buckets = cdf.map_batches(bucketize, batch_format="pyarrow",
                              batch_size=None, zero_copy_batch=True)

    def drop_null(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_valid(t.column(col)))

    rows = ds.select_columns(
        list(dict.fromkeys(list(id_cols) + [col]))
    ).map_batches(drop_null, batch_format="pyarrow",
                  batch_size=batch_size, zero_copy_batch=True)
    return hash_join(rows, buckets, key=col, how="inner",
                     batch_size=batch_size)


def grouped_winsorize(ds, group_col: str, column: str, q_lo: float = 0.1,
                      q_hi: float = 0.9, keep: Optional[list] = None,
                      out_name: str = "winsorized", batch_size: int = 65536):
    """Per-ROW winsorization (outlier clamping) within each group: appends
    ``out_name`` = ``column`` clamped to the group's exact DISCRETE
    [q_lo, q_hi] quantile bounds — the robust-preprocessing transform
    (clip price/length/score outliers before training). Because
    QUANTILE_DISC bounds are actual data values and clamping is pure
    selection (no arithmetic), the output float64 bits are bit-identical
    to a SQL ``CASE WHEN x < lo THEN lo WHEN x > hi THEN hi ELSE x END``
    mirror — a per-row float column that hashes against DuckDB without
    tolerance. NULL ``column`` rows, NULL group keys and groups with no
    bounds yield NULL (SQL LEFT-join + CASE semantics: NULL never matches
    NULL); NaN clamps to ``hi`` exactly like DuckDB, whose float ordering
    places NaN above everything (``x > hi`` is TRUE for NaN).

    Scale shape: ONE grouped_quantile_disc pass (histogram-trick
    pre-aggregation — only (group, value, count) rows shuffle) computes
    BOTH bounds, the O(groups) bounds table broadcast-joins back
    (ray.put once; bounded group cardinality, same contract as
    grouped_minmax_scale) and the finish is a row-local vectorized
    element-wise min/max. Raw rows never shuffle.

    No reference analogue (schema.go validates single values); the
    grouped companion of the numeric-range clamp family
    (minimum/maximum keywords) extended to data-derived bounds."""
    import pyarrow.compute as pc

    from jsschema_ray.stages.join import broadcast_join

    if not (0.0 <= q_lo <= q_hi <= 1.0):
        raise ValueError(f"need 0 <= q_lo <= q_hi <= 1, got "
                         f"({q_lo}, {q_hi})")
    bounds = grouped_quantile_disc(ds, group_col, column, q_lo,
                                   batch_size=batch_size,
                                   qs=(q_lo, q_hi))
    lo_name = f"q{round(q_lo * 100):02d}_disc"
    hi_name = f"q{round(q_hi * 100):02d}_disc"

    def rename(b: pa.Table) -> pa.Table:
        return b.rename_columns(
            ["__lo" if c == lo_name else "__hi" if c == hi_name else c
             for c in b.column_names])

    bounds = bounds.map_batches(rename, batch_format="pyarrow",
                                zero_copy_batch=True)
    cols = list(dict.fromkeys((keep or []) + [group_col, column]))
    joined = broadcast_join(ds.select_columns(cols), bounds,
                            key=group_col, how="left",
                            batch_size=batch_size)

    def finish(batch: pa.Table) -> pa.Table:
        xa = batch.column(column)
        # bounds inherit the input dtype from the quantile pass (int64
        # for integer columns) — cast so if_else branches agree with xf
        lo = batch.column("__lo").cast(pa.float64())
        hi = batch.column("__hi").cast(pa.float64())
        ok = pc.and_(pc.is_valid(xa), pc.is_valid(lo))
        # DuckDB CASE order: x < lo -> lo, elif x > hi -> hi, else x.
        # NaN compares greater than everything there, so NaN -> hi;
        # pc.less/greater return NULL-free bools only for non-NaN, so
        # spell NaN explicitly via is_nan.
        xf = xa.cast(pa.float64())
        nan = pc.fill_null(pc.is_nan(xf), False)
        below = pc.fill_null(pc.less(xf, lo), False)
        above = pc.or_(pc.fill_null(pc.greater(xf, hi), False), nan)
        v = pc.if_else(below, lo, pc.if_else(above, hi, xf))
        v = pc.if_else(ok, v, pa.nulls(batch.num_rows, pa.float64()))
        return batch.drop_columns(["__lo", "__hi"]).append_column(
            out_name, v)

    return joined.map_batches(finish, batch_format="pyarrow",
                              batch_size=batch_size, zero_copy_batch=True)


def grouped_trimmed_mean(ds, group_col: str, column: str, p: float = 0.1,
                         scale: int = 100, batch_size: int = 262144):
    """Per-group TRIMMED MEAN of a 2-decimal column: drop the
    floor(n·p) smallest and floor(n·p) largest values of each group,
    average the rest — the robust central-tendency statistic (the
    winsorize sibling that EXCLUDES instead of clamping). Output one row
    per group with at least one surviving value:

        (group_col, n_kept int64, trimmed_mean float64)

    Exactness contract (engine == SQL mirror bit-equal): values scale to
    exact int64 cents via round-half-away (the repo-wide recipe), the
    kept-range sum is exact int64 (tie-PERMUTATION-INVARIANT: trimming
    removes the k smallest/largest as a MULTISET, so any ROW_NUMBER tie
    order in the mirror keeps the same values), k = FLOOR(CAST(n AS
    DOUBLE) * p) is the identical IEEE product+floor on both sides, and
    the finish is exactly CAST(sum AS DOUBLE) / CAST(n_kept AS DOUBLE)
    / <scale as float literal> — two casts and two divisions in one
    spelled order. NULL values drop; groups with n − 2k ≤ 0 emit
    NOTHING (the mirror's WHERE leaves them with no rows). Guards RAISE
    on |v·scale| ≥ 2^62, on a potential int64 wrap of the weighted sum,
    and on a kept-sum ≥ 2^53 (inexact double cast).

    Scale shape: the shared _grouped_value_counts histogram trick —
    batches collapse to (group, value, cnt) partials, ONE hash(group)
    co-partition of count rows (raw rows never shuffle), then one
    vectorized per-partition pass: per-row rank intervals from the
    count cumsum, kept overlap with [k+1, n−k] via clip, per-group sums
    via np.add.reduceat. No per-group loop."""
    import pandas as pd

    from jsschema_ray.stages.windows import round_half_away

    if not 0.0 <= p < 0.5:
        raise ValueError(f"p must be in [0, 0.5), got {p}")

    def finish(gdf: pd.DataFrame) -> pd.DataFrame:
        if not len(gdf):
            return pd.DataFrame({
                group_col: gdf[group_col],
                "n_kept": pd.Series([], dtype="int64"),
                "trimmed_mean": pd.Series([], dtype="float64")})
        gdf = gdf.sort_values([group_col, column], kind="stable")
        codes, uniq = pd.factorize(gdf[group_col], use_na_sentinel=False)
        cnt = gdf["cnt"].to_numpy(dtype=np.int64)
        csum = np.cumsum(cnt)
        starts = np.r_[0, np.nonzero(np.diff(codes))[0] + 1]
        base = np.where(starts > 0, csum[starts - 1], 0)
        rows_per = np.diff(np.r_[starts, len(cnt)])
        n_g = np.add.reduceat(cnt, starts)
        # identical FLOOR(CAST(n AS DOUBLE) * p) on both engines
        k_g = np.floor(n_g.astype(np.float64) * p).astype(np.int64)
        lo_g, hi_g = k_g + 1, n_g - k_g
        gi = np.repeat(np.arange(len(uniq)), rows_per)
        end_rank = csum - base[gi]
        start_rank = end_rank - cnt + 1
        kept = np.clip(np.minimum(end_rank, hi_g[gi])
                       - np.maximum(start_rank, lo_g[gi]) + 1, 0, None)
        cents_f = round_half_away(
            gdf[column].to_numpy(dtype=np.float64) * scale)
        if len(cents_f) and np.abs(cents_f).max() >= 2.0**62:
            raise ValueError(
                f"grouped_trimmed_mean: |{column} * {scale}| reaches "
                "2^62 — the int64 cents round-trip would lose exactness")
        cents = cents_f.astype(np.int64)
        n_kept_g = n_g - 2 * k_g
        # int64-wrap guard for the per-group weighted sums (python ints)
        if len(cents) and n_kept_g.max() > 0 and \
                int(np.abs(cents).max()) * int(n_kept_g.max()) >= 2**62:
            raise ValueError(
                "grouped_trimmed_mean: kept-range sum could wrap int64 "
                "(max |cents| * kept count reaches 2^62)")
        sums = np.add.reduceat(kept * cents, starts)
        if len(sums) and np.abs(sums).max() >= 2**53:
            raise ValueError(
                "grouped_trimmed_mean: kept-range sum reaches 2^53 — "
                "the exact double cast would round")
        keep_g = n_kept_g > 0
        mean = (sums[keep_g].astype(np.float64)
                / n_kept_g[keep_g].astype(np.float64)
                / np.float64(scale))
        return pd.DataFrame({group_col: np.asarray(uniq)[keep_g],
                             "n_kept": n_kept_g[keep_g],
                             "trimmed_mean": mean})

    return _grouped_value_counts(ds, group_col, column, batch_size, finish)


def grouped_weighted_median(ds, group_col: str, column: str,
                            weight_col: str, scale: int = 100,
                            batch_size: int = 262144,
                            out_name: str = "w_median", q: float = 0.5):
    """Exact per-group LOWER WEIGHTED MEDIAN (or, via ``q``, any lower
    weighted quantile — smallest v with W(<= v) >= ceil(q * W_total);
    q = 0.5 is binary-exact, arbitrary q carries the same float-ceil
    boundary caveat grouped_quantile_disc documents):
    the smallest value v with 2 * W(<= v) >= W_total,
    weights taken as exact integers at x``scale``
    (TPC-H 2-decimal quantity/money columns are exact at 100). Pure
    SELECTION — the result is an actual data value, no float arithmetic —
    so the output column hashes bit-identically against the SQL mirror
    ``MIN(v) ... WHERE 2 * SUM(wt) OVER (PARTITION BY g ORDER BY v) >=
    SUM(wt) OVER (PARTITION BY g)`` (the window's default RANGE frame
    sums ALL peers of a tied value — exactly the per-distinct-value
    cumulative computed here).

    NULL value / NULL weight rows drop (the mirror spells the same
    IS NOT NULL filters); zero-weight rows drop (they can never move the
    crossing value when any positive weight exists — mirrors spell
    wt > 0); NEGATIVE weights refuse loudly (a weighted median is
    undefined there, and a silent drop would hide a key-domain bug —
    the sampling.weighted_hash_sample contract).

    Scale shape: the _grouped_value_counts histogram trick with weight
    sums for counts — each batch collapses to (group, value, wt_sum)
    rows, those hash(group)-co-partition (never Ray's key-sorting
    Aggregate — the r5 value_cdf find), and each partition runs ONE
    batched searchsorted selection for ALL its groups: needle
    base_g + ceil(tot_g / 2) over the partition-global cumsum. Raw rows
    never shuffle; the shuffle carries O(distinct (group, value)) rows.

    No reference analogue (single-value validator,
    /root/reference/validator/validator.go:57); extends the grouped
    quantile family (§2.C column statistics, grouped form) to weighted
    order statistics."""
    import pandas as pd

    from jsschema_ray.stages.windows import round_half_away

    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")

    def pre(batch: pa.Table) -> pa.Table:
        df = batch.select([group_col, column, weight_col]).to_pandas()
        df = df[df[column].notna() & df[weight_col].notna()]
        wt = round_half_away(
            df[weight_col].to_numpy(dtype=np.float64) * scale
        ).astype(np.int64)
        if len(wt) and wt.min() < 0:
            raise ValueError(
                f"grouped_weighted_median weights must be non-negative "
                f"at x{scale} scaling, got min {wt.min()}")
        df = df.assign(cnt=wt)
        df = df[wt > 0]
        g = (df.groupby([group_col, column], sort=False, dropna=False)
             ["cnt"].sum().reset_index())
        # strip pandas schema metadata (unhashable dict disables Ray's
        # shuffle schema-dedup fast path — the _grouped_value_counts fix)
        return pa.Table.from_pandas(
            g, preserve_index=False).replace_schema_metadata(None)

    def select_part(gdf: pd.DataFrame) -> pd.DataFrame:
        if not len(gdf):
            return pd.DataFrame({group_col: gdf[group_col],
                                 out_name: gdf[column]})
        gdf, uniq, csum, base, n_g = _sorted_segments(gdf, group_col,
                                                      column)
        vals = gdf[column].to_numpy()
        # n_g = total positive weight per group (>= 1 after the wt > 0
        # filter, so the needle always lands inside the segment);
        # ceil(0.5 * tot) == (tot + 1) // 2 exactly — the median path
        # never touches float
        k = np.maximum(1, np.ceil(q * n_g.astype(np.float64))
                       ).astype(np.int64)
        out = vals[np.searchsorted(csum, base + k, side="left")]
        return pd.DataFrame({group_col: uniq, out_name: out})

    return by_key(ds.map_batches(
        pre, batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True,
    ), [group_col], select_part, batch_format="pandas")


def grouped_gini(ds, group_col: str, column: str, scale: int = 100,
                 batch_size: int = 262144):
    """Exact per-group GINI COEFFICIENT of a non-negative 2-decimal
    column — the standard inequality / concentration statistic of data
    curation (is one source/brand hoarding all the revenue/tokens?).
    With the group's n values sorted ascending as exact int64 at
    x``scale`` (v_1 <= ... <= v_n, 1-based rank i):

        s1 = SUM(v_i)    sw = SUM(i * v_i)            (exact int64)
        gini = (2*sw - (n + 1)*s1) / (n * s1)         (float, ONCE)

    sw is rank-permutation-invariant under ties (equal values times
    consecutive ranks sum the same in any order), so a SQL mirror using
    ROW_NUMBER() with ANY tie order reproduces the identical integers,
    and the single fixed-op-order float expression
    ``(2.0*sw - (n+1.0)*s1) / (n*s1)`` is then bit-equal (every term a
    correctly-rounded IEEE op on exactly-representable inputs — the
    grouped_skewness recipe). NULL values drop (SQL aggregate
    semantics); NEGATIVE values refuse loudly (Gini is undefined there;
    a silent drop would hide a sign bug); n*s1 == 0 -> NULL.

    Scale shape: the _grouped_value_counts histogram trick — batches
    collapse to (group, value, cnt) rows, ONE hash(group) co-partition
    of count rows (raw rows never shuffle), and each partition computes
    ALL its groups' rank-weighted sums with one vectorized pass: for a
    run of cnt equal values v after ``prev`` earlier in-group values,
    SUM(i*v) over the run = v * (cnt*prev + cnt*(cnt+1)/2) — then one
    np.add.reduceat per group. Overflow guard (exact Python ints):
    max(v) * n_max*(n_max+1)/2 must stay below 2^62, else RAISE.

    No reference analogue (single-value validator,
    /root/reference/validator/validator.go:57); extends §2.C column
    statistics with a grouped distribution-shape statistic."""
    import pandas as pd

    from jsschema_ray.stages.windows import round_half_away

    def pre(batch: pa.Table) -> pa.Table:
        df = batch.select([group_col, column]).to_pandas()
        df = df[df[column].notna()]
        v = round_half_away(
            df[column].to_numpy(dtype=np.float64) * scale
        ).astype(np.int64)
        if len(v) and v.min() < 0:
            raise ValueError(
                f"grouped_gini values must be non-negative at x{scale} "
                f"scaling, got min {v.min()}")
        g = (df.assign(__v=v)
             .groupby([group_col, "__v"], sort=False, dropna=False)
             .size().reset_index(name="cnt"))
        # strip pandas schema metadata (unhashable dict disables Ray's
        # shuffle schema-dedup fast path — the _grouped_value_counts fix)
        return pa.Table.from_pandas(
            g, preserve_index=False).replace_schema_metadata(None)

    def gini_part(gdf: pd.DataFrame) -> pd.DataFrame:
        if not len(gdf):
            return pd.DataFrame({
                group_col: gdf[group_col],
                "n": pd.Series([], dtype="int64"),
                "s1": pd.Series([], dtype="int64"),
                "sw": pd.Series([], dtype="int64"),
                "gini": pd.Series([], dtype="float64")})
        gdf = gdf.sort_values([group_col, "__v"], kind="stable")
        codes, uniq = pd.factorize(gdf[group_col], use_na_sentinel=False)
        v = gdf["__v"].to_numpy(np.int64)
        c = gdf["cnt"].to_numpy(np.int64)
        csum = np.cumsum(c)
        starts = np.r_[0, np.nonzero(np.diff(codes))[0] + 1]
        ends = np.r_[starts[1:], len(c)]
        base = np.where(starts > 0, csum[starts - 1], 0)
        n_g = csum[ends - 1] - base
        n_max, v_max = int(n_g.max()), int(v.max())
        if v_max * (n_max * (n_max + 1) // 2) >= (1 << 62):
            raise ValueError(
                f"grouped_gini rank-weighted sum would overflow int64: "
                f"max value {v_max} x n {n_max} at scale={scale} — "
                "lower the scale")
        # run of cnt equal values v after `prev` earlier in-group values:
        # its SUM(rank * v) = v * (cnt*prev + cnt*(cnt+1)/2), exactly
        prev = csum - c - np.repeat(base, ends - starts)
        sw_row = v * (c * prev + c * (c + 1) // 2)
        sw = np.add.reduceat(sw_row, starts)
        s1 = np.add.reduceat(v * c, starts)
        fn = n_g.astype(np.float64)
        fs1 = s1.astype(np.float64)
        fsw = sw.astype(np.float64)
        den = fn * fs1
        ok = den > 0.0
        with np.errstate(invalid="ignore", divide="ignore"):
            gini = np.where(
                ok,
                (2.0 * fsw - (fn + 1.0) * fs1) / np.where(ok, den, 1.0),
                np.nan)
        return pd.DataFrame({group_col: uniq, "n": n_g, "s1": s1,
                             "sw": sw, "gini": gini})

    return by_key(ds.select_columns([group_col, column]).map_batches(
        pre, batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True,
    ), [group_col], gini_part, batch_format="pandas")


def grouped_iqr_outliers(ds, group_col: str, column: str, scale: int = 100,
                         k_num: int = 3, k_den: int = 2,
                         batch_size: int = 262144):
    """Per-group TUKEY-FENCE outlier audit in PURE int64 arithmetic —
    the box-plot data-quality constraint (how many rows sit outside
    [Q1 - k*IQR, Q3 + k*IQR], default k = 3/2): output one row per
    group,

        (group_col, q1_cents int64, q3_cents int64, n int64,
         n_outliers int64)

    Q1/Q3 use DuckDB QUANTILE_DISC rank semantics (actual data values,
    k-th smallest at k = max(1, ceil(q*n)) — the grouped_quantile_disc
    contract), values scale to exact int64 at x``scale``
    (round-half-away), NULL values drop. Exactness: with k = k_num/k_den
    the fences are rational, so the violation test is cleared of floats
    entirely —

        v is an outlier iff  k_den*2*v < (2*k_den + 2*k_num)*q1 - 2*k_num*q3
                          or k_den*2*v > (2*k_den + 2*k_num)*q3 - 2*k_num*q1

    (both sides x(2*k_den); for the default 1.5 this is 2v < 5*q1 - 3*q3
    or 2v > 5*q3 - 3*q1). Every output column is int64, so the row
    hashes against the SQL mirror without tolerance. Overflow guard:
    RAISE when |cents| reaches 2^57 (the fence arithmetic then stays
    below 2^62 for k_num+k_den <= 16).

    Scale shape: ONE _grouped_value_counts histogram pass — batches
    collapse to (group, value, cnt) rows, only count rows hash(group)
    co-partition — then each partition computes ALL its groups' Q1/Q3
    with the batched-searchsorted selection AND counts fence violations
    in the same pass: per-group fences np.repeat over the sorted
    distinct-value segments, one boolean mask, one np.add.reduceat. No
    per-group loop, no second shuffle, raw rows never move.

    No reference analogue (single-value validator,
    /root/reference/validator/validator.go:57); extends §2.C column
    statistics with the robust-outlier companion of grouped_mad /
    quantity_zscore."""
    import pandas as pd

    from jsschema_ray.stages.windows import round_half_away

    if k_num <= 0 or k_den <= 0 or k_num + k_den > 16:
        raise ValueError(
            f"grouped_iqr_outliers needs 0 < k_num/k_den with "
            f"k_num + k_den <= 16, got {k_num}/{k_den}")
    # fence coefficients, both sides scaled x(2*k_den) to stay integer
    a = 2 * k_den + 2 * k_num   # coefficient of the near quartile
    b = 2 * k_num               # coefficient of the far quartile
    v2 = 2 * k_den              # coefficient of the value

    def pre(batch: pa.Table) -> pa.Table:
        df = batch.select([group_col, column]).to_pandas()
        df = df[df[column].notna()]
        col = df[column]
        if pd.api.types.is_integer_dtype(col) and scale == 1:
            v = col.to_numpy(dtype=np.int64)   # exact, no float round-trip
        else:
            v = round_half_away(
                col.to_numpy(dtype=np.float64) * scale).astype(np.int64)
        if len(v) and np.abs(v).max() >= 2**57:
            raise ValueError(
                f"grouped_iqr_outliers: |{column} * {scale}| reaches "
                "2^57 — the integer fence arithmetic would overflow")
        g = (df.assign(__v=v)
             .groupby([group_col, "__v"], sort=False, dropna=False)
             .size().reset_index(name="cnt"))
        return pa.Table.from_pandas(
            g, preserve_index=False).replace_schema_metadata(None)

    def fence_part(gdf: pd.DataFrame) -> pd.DataFrame:
        if not len(gdf):
            z = np.array([], dtype=np.int64)
            return pd.DataFrame({group_col: gdf[group_col], "q1_cents": z,
                                 "q3_cents": z, "n": z, "n_outliers": z})
        gdf, uniq, csum, base, n_g = _sorted_segments(gdf, group_col, "__v")
        vals = gdf["__v"].to_numpy(dtype=np.int64)
        cnt = gdf["cnt"].to_numpy(dtype=np.int64)
        k1 = np.maximum(1, np.ceil(0.25 * n_g.astype(np.float64))
                        ).astype(np.int64)
        k3 = np.maximum(1, np.ceil(0.75 * n_g.astype(np.float64))
                        ).astype(np.int64)
        q1 = vals[np.searchsorted(csum, base + k1, side="left")]
        q3 = vals[np.searchsorted(csum, base + k3, side="left")]
        lo = a * q1 - b * q3   # = 2*k_den*(Q1 - (k_num/k_den)*IQR)
        hi = a * q3 - b * q1
        codes, _ = pd.factorize(gdf[group_col], use_na_sentinel=False)
        starts = np.r_[0, np.nonzero(np.diff(codes))[0] + 1]
        seg = np.diff(np.r_[starts, len(vals)])
        vv = v2 * vals
        out_mask = (vv < np.repeat(lo, seg)) | (vv > np.repeat(hi, seg))
        n_out = np.add.reduceat(np.where(out_mask, cnt, 0), starts)
        return pd.DataFrame({group_col: uniq, "q1_cents": q1,
                             "q3_cents": q3, "n": n_g,
                             "n_outliers": n_out.astype(np.int64)})

    return by_key(ds.select_columns([group_col, column]).map_batches(
        pre, batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True,
    ), [group_col], fence_part, batch_format="pandas")


def rank_blend(ds, id_cols: list, cols: list, blend_col: str = "blend",
               batch_size: int = 262144):
    """Rank-ensemble scoring — the percentile-blend step real curation
    pipelines use to combine incommensurable quality signals (length,
    LM perplexity, dedup pressure, ...) into ONE comparable score
    (FineWeb/DCLM-style rank averaging): per row, the SQL
    ``PERCENT_RANK() OVER (ORDER BY col)`` of EVERY signal column in
    ``cols`` (min-rank tie rule: pr = n_lt / (n_total - 1), exact int64
    counts from :func:`value_cdf`; 0.0 when n_total == 1, matching SQL)
    and their equal-weight mean. Returns
    ``id_cols + [f"pr_{c}" for c in cols] + [blend_col]``.

    Float parity is exact: each pr is ONE division of two exact int64s
    (identical to the engine's SQL mirror), and the blend is the
    left-to-right sum of the pr values in ``cols`` order divided by the
    ``len(cols)`` literal — both engines evaluate the identical IEEE
    expression tree, so even the float columns hash bit-equal. Rows
    with a NULL in ANY signal column are dropped FIRST (ranks are
    computed over the filtered population — the mirror's WHERE); -0.0
    and 0.0 merge as one rank value (SQL ORDER BY peers).

    Scale shape: one :func:`value_cdf` per signal (per-batch
    distinct-count combine, hash(value) co-partition, range-partitioned
    prefix-sum finish — no O(distinct) single task), then one
    partitioned :func:`~jsschema_ray.stages.join.hash_join` per signal
    to land the O(distinct)-row rank table back on the rows (never
    broadcast, never on the driver). Raw rows shuffle once per signal
    join; the cdf tables shuffle only counts. No reference analogue
    (single-value validator, /root/reference/validator/validator.go:57);
    extends the §2.D curation-gate family (decile_assign, value_cdf)."""
    import pyarrow.compute as pc

    from jsschema_ray.state.hll import normalize_zeros
    from jsschema_ray.stages.join import hash_join

    if not cols:
        raise ValueError("rank_blend needs at least one signal column")
    if len(set(cols)) != len(cols):
        raise ValueError(f"duplicate signal columns: {cols}")

    keep = list(id_cols) + list(cols)

    def clean(b: pa.Table) -> pa.Table:
        b = b.select(keep)
        mask = None
        for c in cols:
            v = pc.is_valid(b.column(c))
            mask = v if mask is None else pc.and_(mask, v)
        b = b.filter(mask)
        # normalize -0.0 so the row-side join key meets value_cdf's
        # normalized distinct values
        out = {n: b.column(n) for n in id_cols}
        for c in cols:
            out[c] = pa.chunked_array(
                [normalize_zeros(b.column(c).combine_chunks())])
        return pa.table(out)

    base = ds.map_batches(clean, batch_format="pyarrow",
                          batch_size=batch_size, zero_copy_batch=True)
    # the per-signal joins re-read `base` once per signal: materialize
    # the narrow filtered projection so the scan doesn't re-execute
    base = base.materialize()

    out = base
    for c in cols:
        cdf = value_cdf(base, c, batch_size=batch_size)
        prc = f"pr_{c}"

        def pr_map(t: pa.Table, _prc=prc, _c=c) -> pa.Table:
            n_lt = t.column("n_lt").to_numpy(
                zero_copy_only=False).astype(np.float64)
            den = t.column("n_total").to_numpy(
                zero_copy_only=False).astype(np.float64) - 1.0
            pr = np.where(den > 0.0, n_lt / np.maximum(den, 1.0), 0.0)
            return pa.table({_c: t.column(_c), _prc: pa.array(pr)})

        ranks = cdf.map_batches(pr_map, batch_format="pyarrow",
                                batch_size=None, zero_copy_batch=True)
        out = hash_join(out, ranks, key=c, how="inner",
                        batch_size=batch_size)

    k = float(len(cols))

    def finish(b: pa.Table) -> pa.Table:
        acc = b.column(f"pr_{cols[0]}").to_numpy(zero_copy_only=False)
        for c in cols[1:]:
            acc = acc + b.column(f"pr_{c}").to_numpy(zero_copy_only=False)
        names = list(id_cols) + [f"pr_{c}" for c in cols]
        data = {n: b.column(n) for n in names}
        data[blend_col] = pa.array(acc / k)
        return pa.table(data)

    return out.map_batches(finish, batch_format="pyarrow",
                           batch_size=batch_size, zero_copy_batch=True)

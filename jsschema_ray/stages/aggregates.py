"""Grouped aggregates with a map-side combine: the pattern for wide
aggregations (SURVEY.md §4 / ray_guide "Aggregation at scale").

Each batch first collapses to one partial row per key via a vectorized
``pyarrow.Table.group_by``; ``exchange.by_key`` co-partitions the partials
on the keys and one pyarrow ``group_by`` per partition merges them
(``_combined``, the body of ``grouped_sums`` and ``grouped_extrema``). The
exchange carries O(distinct keys × batches) tiny partial rows, never the
raw rows, and the hash merge costs the same on six keys as on an id-like
key. Averages are derived from (sum, count) after the final merge — never
averaged across partials.
"""

from __future__ import annotations

from typing import Optional

import pyarrow as pa

from jsschema_ray.stages import exchange
from jsschema_ray.stages.exchange import PART, by_key, by_part, partition_ids

# how each partial aggregate merges across batches
_MERGE = {"sum": "sum", "count_all": "sum", "min": "min", "max": "max"}


def _combined(ds, keys: list[str], aggs: dict[str, tuple],
              batch_size: int):
    """groupby(keys) with ``aggs`` ({out_name: (in_col, fn)}, fn one of
    ``_MERGE``; ``(None, "count_all")`` is COUNT(*)) as a map-side
    combine: a pyarrow ``group_by`` partial per batch, ``by_key``, and a
    pyarrow ``group_by`` merge per partition. Returns keys + out_names."""
    specs = list(dict.fromkeys(aggs.values()))
    in_cols = list(dict.fromkeys(c for c, _ in specs if c is not None))
    outs = list(aggs)

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.select(keys + in_cols).group_by(keys).aggregate(
            [([] if c is None else c, fn) for c, fn in specs])
        return g.select(
            keys + ["count_all" if c is None else f"{c}_{fn}"
                    for c, fn in aggs.values()]).rename_columns(keys + outs)

    def merge_part(t: pa.Table) -> pa.Table:
        merge = [(out, _MERGE[fn]) for out, (_, fn) in aggs.items()]
        g = t.group_by(keys).aggregate(merge)
        return g.select(keys + [f"{out}_{fn}" for out, fn in merge]
                        ).rename_columns(keys + outs)

    return by_key(ds.map_batches(
        partial, batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True,
    ), keys, merge_part)


def grouped_sums(
    ds,
    keys: list[str],
    sum_cols: dict[str, str],
    count_alias: Optional[str] = "n",
    batch_size: int = 65536,
):
    """groupby(keys) with SUM over ``sum_cols`` ({out_name: in_col}) and an
    optional COUNT(*) named ``count_alias`` (the row count per group,
    independent of any column's nulls; ``sum_cols`` may be empty). Partial
    sums per batch, then one ``exchange.by_key`` hash exchange (one
    partition per cluster CPU, ``exchange.fanout``) and a pyarrow merge
    per partition. NULL keys form one
    group (SQL GROUP BY) and -0.0/+0.0 float keys merge into one key.
    Returns the (lazy) Dataset keys + out_names [+ count_alias], in no
    particular row order."""
    aggs = {out: (c, "sum") for out, c in sum_cols.items()}
    if count_alias:
        aggs[count_alias] = (None, "count_all")
    return _combined(ds, keys, aggs, batch_size)


def pivot_counts(ds, row_key: str, col_key: str, categories: list,
                 prefix: str = "n_", batch_size: int = 65536):
    """Crosstab / pivot: per-``row_key`` counts of each ``col_key``
    category as a WIDE int64 table (one column per category).  A
    distributed wide output needs a FIXED schema, so the column domain is
    declared up front via ``categories``; values outside it are dropped —
    exactly a SQL conditional aggregation
    (``COUNT(*) FILTER (WHERE col = cat)``), which is the oracle.

    Scale shape: each batch folds into ONE ``np.bincount`` over the
    combined index ``row_rank * K + cat_idx`` and emits one wide partial
    row per distinct row_key in the batch; the only shuffle moves those
    width-(K+1) partials through grouped_sums.  K (category count) must
    be small — it is a SCHEMA width, not data."""
    import numpy as np
    import pyarrow.compute as pc

    cats = list(categories)
    k = len(cats)
    if not k:
        raise ValueError("categories must be non-empty")
    if len(set(cats)) != k:
        raise ValueError("categories must be distinct")
    out_cols = [f"{prefix}{c}" for c in cats]
    cat_arr = pa.array(cats)

    def partial(batch: pa.Table) -> pa.Table:
        ci = pc.index_in(
            batch.column(col_key).combine_chunks(), value_set=cat_arr
        )
        keep = ci.is_valid()
        ci_np = pc.filter(ci, keep).to_numpy(zero_copy_only=False)
        rows = pc.filter(
            batch.column(row_key).combine_chunks(), keep
        ).to_numpy(zero_copy_only=False)
        if not len(rows):
            return pa.table(
                {row_key: batch.column(row_key).slice(0, 0)}
                | {c: pa.array([], pa.int64()) for c in out_cols}
            )
        uniq, rk = np.unique(rows, return_inverse=True)
        counts = np.bincount(
            rk.astype(np.int64) * k + ci_np.astype(np.int64),
            minlength=len(uniq) * k,
        ).reshape(len(uniq), k)
        return pa.table(
            {row_key: pa.array(uniq)}
            | {c: pa.array(counts[:, j].astype(np.int64))
               for j, c in enumerate(out_cols)}
        )

    parts = ds.select_columns([row_key, col_key]).map_batches(
        partial, batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True,
    )
    return grouped_sums(parts, [row_key], {c: c for c in out_cols},
                        count_alias=None)


def pivot_sums(ds, row_key: str, col_key: str, value_col: str,
               categories: list, scale: int = 100,
               prefix: str = "sum_", suffix: str = "_cents",
               batch_size: int = 65536):
    """Crosstab / pivot with SUM payload: per ``row_key``, the exact
    int64 cents sum of ``value_col`` for each ``col_key`` category as a
    WIDE table (one column per category) — SQL conditional aggregation
    ``SUM(CASE WHEN col = cat THEN cents ELSE 0 END)`` over rows WHERE
    col IN categories (row_keys whose every row is out-of-domain emit
    NOTHING on both sides — mirror with the same WHERE). Values scale
    to exact int64 cents (round-half-away); NULL/NaN values drop like
    the mirror's CASE ... IS NOT NULL. Pure int64 output → bit-equal.

    Scale shape: identical to :func:`pivot_counts` — each batch folds
    into ONE np.add.at over the combined (row_rank x K + cat) index
    (int64-exact, unlike a float-weighted bincount) and emits one wide
    partial row per distinct row_key in the batch; the only shuffle
    moves width-(K+1) partials through grouped_sums. K is a SCHEMA
    width — keep it small. Sums share grouped_sums' int64 range (same
    contract as every x100-revenue query in this repo)."""
    import numpy as np
    import pyarrow.compute as pc

    from jsschema_ray.stages.windows import round_half_away

    cats = list(categories)
    k = len(cats)
    if not k:
        raise ValueError("categories must be non-empty")
    if len(set(cats)) != k:
        raise ValueError("categories must be distinct")
    out_cols = [f"{prefix}{c}{suffix}" for c in cats]
    cat_arr = pa.array(cats)

    def partial(batch: pa.Table) -> pa.Table:
        ci = pc.index_in(
            batch.column(col_key).combine_chunks(), value_set=cat_arr)
        keep = pc.and_(ci.is_valid(),
                       pc.is_valid(batch.column(value_col)))
        ci_np = pc.filter(ci, keep).to_numpy(zero_copy_only=False)
        rows = pc.filter(batch.column(row_key).combine_chunks(),
                         keep).to_numpy(zero_copy_only=False)
        v = np.asarray(pc.filter(batch.column(value_col).combine_chunks(),
                                 keep).to_numpy(zero_copy_only=False),
                       np.float64)
        ok = ~np.isnan(v)  # NaN drops like NULL (repo convention)
        ci_np, rows, v = ci_np[ok], rows[ok], v[ok]
        scaled = round_half_away(v * scale)
        if len(scaled) and np.abs(scaled).max() >= 2.0**62:
            raise ValueError(
                f"pivot_sums: |{value_col} * {scale}| reaches 2^62 — "
                "the int64 cents round-trip would lose exactness")
        if not len(rows):
            return pa.table(
                {row_key: batch.column(row_key).slice(0, 0)}
                | {c: pa.array([], pa.int64()) for c in out_cols})
        uniq, rk = np.unique(rows, return_inverse=True)
        acc = np.zeros(len(uniq) * k, dtype=np.int64)
        np.add.at(acc, rk.astype(np.int64) * k + ci_np.astype(np.int64),
                  scaled.astype(np.int64))
        acc = acc.reshape(len(uniq), k)
        return pa.table(
            {row_key: pa.array(uniq)}
            | {c: pa.array(acc[:, j]) for j, c in enumerate(out_cols)})

    parts = ds.select_columns(
        [row_key, col_key, value_col]
    ).map_batches(partial, batch_format="pyarrow",
                  batch_size=batch_size, zero_copy_batch=True)
    return grouped_sums(parts, [row_key], {c: c for c in out_cols},
                        count_alias=None)

def grouped_count_distinct(ds, group: str, col: str,
                           batch_size: int = 65536):
    """Exact per-group COUNT(DISTINCT col) — the exact counterpart of the
    HLL sketch in stages/stats (use the sketch when 2% error is fine;
    this when the count gates a correctness decision).

    Scale shape: each batch pre-trims to its distinct (group, col) pairs
    (one ``pyarrow.Table.group_by``, map-side combine), pairs
    hash-partition on ``group`` (the ONLY shuffle — it carries distinct
    pairs, never raw rows), and each partition drops cross-batch
    duplicates and counts in one vectorized pass. Output:
    (group, n_distinct int64)."""
    import pyarrow.compute as pc

    def pre_trim(batch: pa.Table) -> pa.Table:
        return batch.select([group, col]).group_by(
            [group, col]).aggregate([])

    def per_partition(t: pa.Table) -> pa.Table:
        # Arrow-native finish (r3 ADVICE fix, both halves): cross-batch
        # distinct via group_by keeps exact dtypes (no pandas float64
        # round-trip collapsing int64 > 2^53), and Arrow "count" counts
        # only VALID values — SQL COUNT(DISTINCT col) NULL semantics —
        # while the (group, null) pair still rides the shuffle so an
        # all-null group is present with n_distinct=0; null group KEYS
        # stay their own group, like SQL GROUP BY
        d = t.select([group, col]).group_by([group, col]).aggregate([])
        out = d.group_by(group).aggregate([(col, "count")])
        return pa.table({
            group: out.column(group),
            "n_distinct": pc.cast(out.column(f"{col}_count"), pa.int64()),
        })

    return by_key(ds.select_columns([group, col]).map_batches(
        pre_trim, batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True,
    ), [group], per_partition)


def _hash_part_arrow(ds, key: str, batch_size: int):
    """Append the co-partition column ``__part`` (exchange.partition_ids
    over ``exchange.fanout()`` partitions)
    PLUS the exact grouping surrogates ``__gv`` (is_valid) / ``__gf``
    (null-filled key on its native type) in an ARROW step, before any pandas
    conversion (r5 fix, extended after review): Ray's arrow→pandas batch
    conversion promotes an int64 key column to float64 exactly when THAT
    batch holds a null — so (a) a pandas-computed hash gave the SAME key
    different partitions depending on which rows shared its batch, and
    (b) the pandas-side SELECTION merged distinct keys above 2^53 and
    split the NULL group into one-group-per-row. The consumers sort and
    detect group boundaries on (__gv, __gf) — null-free, exact native
    dtype, NULLs one group (SQL PARTITION BY) — and restore the real key
    column from them (_restore_group) before returning. Float keys keep
    the documented NaN-splits-groups caveat (NaN is a data value, not a
    null — fill_null cannot canonicalize it)."""
    n = exchange.fanout()

    def add(tbl: pa.Table) -> pa.Table:
        col = tbl.column(key).combine_chunks()
        tbl = tbl.append_column(PART, pa.array(
            partition_ids(tbl, [key], n)))
        t = col.type
        fill = None
        try:
            if pa.types.is_string(t) or pa.types.is_large_string(t):
                fill = pa.scalar("", type=t)
            elif pa.types.is_binary(t) or pa.types.is_large_binary(t):
                fill = pa.scalar(b"", type=t)
            elif pa.types.is_boolean(t):
                fill = pa.scalar(False, type=t)
            else:
                fill = pa.scalar(0).cast(t)
        except Exception:
            fill = None  # exotic type: pandas path behaves as before
        if fill is not None:
            tbl = tbl.append_column("__gv", col.is_valid())
            tbl = tbl.append_column("__gf", col.fill_null(fill))
        return tbl

    return ds.map_batches(add, batch_format="pyarrow",
                          batch_size=batch_size, zero_copy_batch=True)


_PD_NULLABLE = {"int8": "Int8", "int16": "Int16", "int32": "Int32",
                "int64": "Int64", "uint8": "UInt8", "uint16": "UInt16",
                "uint32": "UInt32", "uint64": "UInt64", "bool": "boolean"}


def _group_sort_keys(df):
    """(primary, secondary) lexsort keys for the group column: the exact
    (__gf, __gv) surrogates when present, else the raw column."""
    if "__gv" in df.columns:
        return df["__gv"].to_numpy(), df["__gf"].to_numpy()
    return None, None


def _group_change_mask(gv, gf):
    import numpy as np

    return np.r_[True, (gv[1:] != gv[:-1]) | (gf[1:] != gf[:-1])]


def _restore_group(df, group: str):
    """Rebuild the real group column from (__gv, __gf) so the OUTPUT
    carries exact values (an integer key promoted to float64 by a
    null-bearing partition would otherwise corrupt large ints in the
    result itself), then drop the surrogates."""
    import numpy as np
    import pandas as pd

    if "__gv" not in df.columns:
        return df
    gf = df["__gf"]
    pd_t = _PD_NULLABLE.get(gf.dtype.name)
    if pd_t is not None:
        gv = df["__gv"].to_numpy()
        arr = pd.array(gf.to_numpy(), dtype=pd_t)
        arr[~gv] = pd.NA
        df = df.assign(**{group: arr})
    # non-integer/bool keys were never promoted (strings stay object,
    # floats keep NaN, timestamps NaT) — the original column is exact
    return df.drop(columns=["__gv", "__gf"])


def argmax_per_group(ds, group: str, value: str, tiebreak: str,
                     batch_size: int = 65536):
    """Keep each group's best row — SQL
    ``QUALIFY ROW_NUMBER() OVER (PARTITION BY group
    ORDER BY value DESC, tiebreak ASC) = 1``.  The "keep the
    highest-quality document per duplicate cluster" curation idiom,
    deterministic via the required unique ``tiebreak``.  All other
    columns ride along unchanged.

    Scale shape: each batch pre-trims to its per-group winner (one
    lexsort + block-start take — at most one row per distinct group per
    batch crosses the wire), winners hash-partition on ``group``, and
    each partition replays the same selection over the surviving
    candidates. Two lexsorts total, no per-group loop."""
    import numpy as np
    import pandas as pd

    def winners(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df
        # descending-value sort key WITHOUT arithmetic negation (r3 ADVICE
        # fix: -x wraps around for unsigned dtypes and overflows INT64_MIN):
        # dense ascending rank via np.unique, reversed — equal values share
        # a key so the tiebreak still decides; float NaN is forced to lose
        # (sorts last), the same verdict the previous -x lexsort produced
        v = df[value].to_numpy()
        uniq, inv = np.unique(v, return_inverse=True)
        desc_key = (len(uniq) - 1 - inv).astype(np.int64)
        if v.dtype.kind == "f":
            desc_key[np.isnan(v)] = len(uniq)
        gv, gf = _group_sort_keys(df)
        if gv is not None:
            # exact surrogates: int64 keys never float-promote, NULL
            # keys form ONE group (SQL PARTITION BY)
            order = np.lexsort((df[tiebreak].to_numpy(), desc_key,
                                gf, gv))
            df = df.iloc[order]
            keep = _group_change_mask(gv[order], gf[order])
        else:
            order = np.lexsort((df[tiebreak].to_numpy(),
                                desc_key,
                                df[group].to_numpy()))
            df = df.iloc[order]
            g = df[group].to_numpy()
            keep = np.r_[True, g[1:] != g[:-1]]
        return df.iloc[keep].reset_index(drop=True)

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        return _restore_group(winners(g), group)

    from jsschema_ray.stages._blocks import arrow_out

    # __part comes from the ARROW view of the group column (see
    # _hash_part_arrow) and rides through the pandas pre-trim as data
    # (functionally dependent on group, so the dedup keeps it correct)
    return by_part(_hash_part_arrow(ds, group, batch_size).map_batches(
        winners, batch_format="pandas", batch_size=batch_size,
    ), arrow_out(per_partition), batch_format="pandas")


def top_n_per_group(ds, group: str, value: str, tiebreak: str,
                    n: int = 3, batch_size: int = 65536):
    """Keep each group's best ``n`` rows — SQL
    ``QUALIFY ROW_NUMBER() OVER (PARTITION BY group
    ORDER BY value DESC, tiebreak ASC) <= n`` — with the rank emitted as
    ``rn`` (1-based).  The "keep the N highest-quality documents per
    cluster / user / source" curation idiom; generalizes
    :func:`argmax_per_group` (n=1) and is deterministic via the required
    unique ``tiebreak``.  All other columns ride along unchanged.

    Scale shape (same as argmax_per_group): each batch pre-trims to its
    per-group top-n (the global per-group top-n is a subset of the union
    of per-batch per-group top-ns), at most n rows per distinct group per
    batch cross the wire, and each partition replays the same selection
    over the surviving candidates. Two lexsorts total, no per-group
    loop."""
    import numpy as np
    import pandas as pd

    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")

    def topn(df: pd.DataFrame, with_rank: bool) -> pd.DataFrame:
        if not len(df):
            if with_rank:
                df = df.assign(rn=np.array([], dtype="int64"))
            return df
        # descending-value key without arithmetic negation (same unsigned/
        # INT64_MIN-safe construction as argmax_per_group; NaN sorts last)
        v = df[value].to_numpy()
        uniq, inv = np.unique(v, return_inverse=True)
        desc_key = (len(uniq) - 1 - inv).astype(np.int64)
        if v.dtype.kind == "f":
            desc_key[np.isnan(v)] = len(uniq)
        gv, gf = _group_sort_keys(df)
        if gv is not None:
            order = np.lexsort((df[tiebreak].to_numpy(), desc_key,
                                gf, gv))
            df = df.iloc[order]
            change = _group_change_mask(gv[order], gf[order])
        else:
            order = np.lexsort((df[tiebreak].to_numpy(), desc_key,
                                df[group].to_numpy()))
            df = df.iloc[order]
            g = df[group].to_numpy()
            change = np.r_[True, g[1:] != g[:-1]]
        starts = np.flatnonzero(change)
        key_start = np.repeat(starts, np.diff(np.r_[starts, len(df)]))
        rank0 = np.arange(len(df)) - key_start
        keep = rank0 < n
        df = df.iloc[keep].reset_index(drop=True)
        if with_rank:
            df = df.assign(rn=(rank0[keep] + 1).astype("int64"))
        return df

    def pre_trim(df: pd.DataFrame) -> pd.DataFrame:
        return topn(df, with_rank=False)

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        return _restore_group(topn(g, with_rank=True), group)

    from jsschema_ray.stages._blocks import arrow_out

    # __part from the ARROW view of the group column (_hash_part_arrow):
    # pandas-view hashing was batch-composition-dependent for nullable
    # int keys
    return by_part(_hash_part_arrow(ds, group, batch_size).map_batches(
        pre_trim, batch_format="pandas", batch_size=batch_size,
    ), arrow_out(per_partition), batch_format="pandas")


def top_n_with_ties(ds, group: str, value: str, n: int = 1,
                    dense: bool = False, ascending: bool = False,
                    batch_size: int = 65536):
    """Keep each group's rows whose value RANKS in the top ``n``,
    TIES INCLUDED — SQL ``QUALIFY RANK() OVER (PARTITION BY group
    ORDER BY value DESC) <= n`` (equivalently FETCH FIRST n ROWS WITH
    TIES per group) — with the rank emitted as ``rnk``.
    ``ascending=True`` flips the ORDER BY to ASC — the min-join-back
    shape (TPC-H Q2's "parts at the group's minimum cost", ties kept)
    without a separate grouped-min + join-back pass. With
    ``dense=True`` the rank is DENSE_RANK (no gaps): "the rows carrying
    the group's n highest distinct values" — under heavy ties RANK > 1
    may be unreachable (rank jumps past n), which makes dense the
    useful variant for top-n-VALUES questions. Distinct from
    :func:`top_n_per_group` (ROW_NUMBER): the result size is
    data-dependent (every row tied with the nth value survives), so no
    tiebreak is needed — the surviving SET is deterministic.

    Scale shape: each batch pre-trims to its local rank <= n (batch-local
    strictly-greater counts never exceed global ones, so every global
    winner survives the trim), surviving candidates hash(group)-
    co-partition, and each partition replays the same selection to get
    exact global ranks. Two lexsorts total, no per-group loop. NaN
    values sort LAST (never outrank real values — callers mirroring
    DuckDB, where NaN sorts HIGHEST, must filter NaN/NULL on both
    sides). Result-size caveat: a group tied everywhere returns all its
    rows — that is the operator's semantics, not a bug."""
    import numpy as np
    import pandas as pd

    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")

    def topties(df: pd.DataFrame, with_rank: bool) -> pd.DataFrame:
        if not len(df):
            if with_rank:
                df = df.assign(rnk=np.array([], dtype="int64"))
            return df
        # direction key without arithmetic negation (the
        # top_n_per_group construction; NaN forced past every real value
        # in EITHER direction, so it never outranks a real value)
        v = df[value].to_numpy()
        uniq, inv = np.unique(v, return_inverse=True)
        if ascending:
            desc_key = inv.astype(np.int64)
        else:
            desc_key = (len(uniq) - 1 - inv).astype(np.int64)
        if v.dtype.kind == "f":
            desc_key[np.isnan(v)] = len(uniq)
        gv, gf = _group_sort_keys(df)
        if gv is not None:
            order = np.lexsort((desc_key, gf, gv))
            df = df.iloc[order]
            g_change = _group_change_mask(gv[order], gf[order])
        else:
            order = np.lexsort((desc_key, df[group].to_numpy()))
            df = df.iloc[order]
            g = df[group].to_numpy()
            g_change = np.r_[True, g[1:] != g[:-1]]
        dk = desc_key[order]
        nrows = len(df)
        group_start = np.repeat(
            np.flatnonzero(g_change),
            np.diff(np.r_[np.flatnonzero(g_change), nrows]))
        run_change = g_change | np.r_[True, dk[1:] != dk[:-1]]
        if dense:
            # DENSE_RANK: distinct value-runs counted within the group
            cs = np.cumsum(run_change)
            rank0 = cs - cs[group_start]
        else:
            # RANK: position of the row's VALUE-run start in its group
            run_start = np.repeat(
                np.flatnonzero(run_change),
                np.diff(np.r_[np.flatnonzero(run_change), nrows]))
            rank0 = run_start - group_start
        keep = rank0 < n
        df = df.iloc[keep].reset_index(drop=True)
        if with_rank:
            df = df.assign(rnk=(rank0[keep] + 1).astype("int64"))
        return df

    def pre_trim(df: pd.DataFrame) -> pd.DataFrame:
        return topties(df, with_rank=False)

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        return _restore_group(topties(g, with_rank=True), group)

    from jsschema_ray.stages._blocks import arrow_out

    # __part from the ARROW view of the group column (_hash_part_arrow):
    # pandas-view hashing was batch-composition-dependent for nullable
    # int keys
    return by_part(_hash_part_arrow(ds, group, batch_size).map_batches(
        pre_trim, batch_format="pandas", batch_size=batch_size,
    ), arrow_out(per_partition), batch_format="pandas")


def grouped_string_agg(ds, key: str, col: str, order_cols: list[str],
                       sep: str = ">", out_name: str = "path"):
    """Ordered per-key string aggregation — SQL
    ``STRING_AGG(col, sep ORDER BY order_cols...)`` — the
    session-path / clickstream-journey primitive.  The order must be a
    TOTAL order (include a unique tiebreak in ``order_cols``) for a
    deterministic result.

    Scale shape: one hash(key) shuffle; per partition one lexsort, then
    one pandas groupby-join (C-backed concat per group — O(groups)
    joins, not O(rows) Python).  Contract: one key's concatenated
    string fits a worker (same per-key-fits assumption as
    session_windows).  Output: (key, out_name)."""
    import numpy as np
    import pandas as pd

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({key: g[key].iloc[:0],
                                 out_name: pd.Series([], dtype="object")})
        order = np.lexsort(tuple(
            g[c].to_numpy() for c in reversed(order_cols)
        ) + (g[key].to_numpy(),))
        g = g.iloc[order]
        out = g.groupby(key, sort=False)[col].agg(sep.join)
        return pd.DataFrame({key: out.index.to_numpy(),
                             out_name: out.to_numpy()})

    from jsschema_ray.stages._blocks import arrow_out

    cols = [key, col] + [c for c in order_cols if c != col]
    return by_key(ds.select_columns(cols), [key], arrow_out(per_partition),
                  batch_format="pandas")


def grouped_mode(ds, group: str, col: str, out_name: str = "mode",
                 batch_size: int = 65536):
    """Most frequent ``col`` value per ``group`` with its count — SQL's
    deterministic mode (DuckDB's ``mode()`` leaves ties unspecified, so
    the oracle-able contract here is: highest count wins, ties broken by
    the SMALLEST value). NULL ``col`` values are excluded, matching SQL
    aggregate NULL semantics; NULL group keys remain their own group.
    Output: (group, out_name, n int64).

    Scale shape: pure composition of the file's own primitives —
    :func:`grouped_sums` collapses each batch to distinct (group, col)
    count partials before its one shuffle (map-side combine), and
    :func:`argmax_per_group` replays its pre-trimmed winner selection
    over the already-tiny counts table. No new shuffle shapes."""
    import pyarrow.compute as pc

    def drop_null_vals(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_valid(batch.column(col)))

    counts = grouped_sums(
        ds.select_columns([group, col]).map_batches(
            drop_null_vals, batch_format="pyarrow",
            batch_size=batch_size, zero_copy_batch=True,
        ),
        [group, col], {}, count_alias="n", batch_size=batch_size,
    )
    winners = argmax_per_group(counts, group=group, value="n",
                               tiebreak=col)

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table({
            group: batch.column(group),
            out_name: batch.column(col),
            "n": pc.cast(batch.column("n"), pa.int64()),
        })

    return winners.map_batches(finish, batch_format="pyarrow",
                               zero_copy_batch=True)


def rollup_sums(ds, keys: list[str], sum_cols: dict[str, str],
                count_alias: str = "n", grouping_col: str = "grouping_id",
                batch_size: int = 65536):
    """GROUP BY ROLLUP(*keys): SUM/COUNT aggregates at EVERY prefix level
    of ``keys`` — (k1..kn), (k1..kn-1), …, (k1), () — in one raw-data
    scan. Aggregated-away key columns are NULL and ``grouping_col``
    carries the SQL GROUPING bitmask (DuckDB
    ``GROUPING(k1)*2^(n-1) + … + GROUPING(kn)``: finest level 0, grand
    total 2^n − 1), so the output is row-for-row a SQL ROLLUP.

    Scale shape: only the FINEST level touches raw rows (via
    :func:`grouped_sums` — map-side combine, one shuffle of key-count
    partials); every coarser level re-aggregates the PREVIOUS level's
    already-tiny output (O(distinct key prefixes) rows — sums and counts
    both fold as sums), and the grand total folds the 1-key level. The
    n+1 levels stream independently and union lazily.

    Contract: key columns must not contain NULL values of their own (a
    native NULL group would be indistinguishable from a rollup marker —
    the same ambiguity SQL resolves only via GROUPING()); an EMPTY input
    yields zero rows, where SQL ROLLUP still emits one grand-total row.
    """
    import numpy as np

    n = len(keys)
    if n == 0:
        raise ValueError("rollup_sums needs at least one key")
    outs = list(sum_cols)
    all_outs = outs + [count_alias]
    names = keys + all_outs + [grouping_col]
    if len(set(names)) != len(names):
        raise ValueError(
            f"rollup output names collide: keys={keys}, "
            f"sums={outs}, count_alias={count_alias!r}, "
            f"grouping_col={grouping_col!r} must all be distinct")

    ktypes: dict = {}

    def finish(level: int):
        gid = (1 << (n - level)) - 1
        kept = keys[:level]

        def fn(batch: pa.Table) -> pa.Table:
            cols = {}
            for k in kept:
                cols[k] = batch.column(k)
            for k in keys[level:]:
                cols[k] = pa.nulls(batch.num_rows, ktypes[k])
            cols[grouping_col] = pa.array(
                np.full(batch.num_rows, gid, dtype=np.int64))
            for c in all_outs:
                cols[c] = batch.column(c).cast(pa.int64()) \
                    if c == count_alias else batch.column(c)
            return pa.table(cols)

        return fn

    # finest level: the only scan of raw rows. Each level feeds BOTH the
    # output union and the next-coarser aggregate, so materialize the
    # (tiny, O(distinct key prefixes)-row) aggregates — without it each
    # reuse would re-execute the upstream raw scan per level.
    fine = grouped_sums(ds, keys, sum_cols, count_alias=count_alias,
                        batch_size=batch_size).materialize()
    # key types for the NULL fills come from the materialized aggregate's
    # Arrow schema (a non-Arrow input's Dataset.schema() can report bare
    # Python classes, which pa.nulls rejects)
    fsch = fine.schema()
    ktypes.update({name: t for name, t in zip(fsch.names, fsch.types)})
    for k in keys:
        if not isinstance(ktypes.get(k), pa.DataType):
            raise ValueError(f"rollup key {k!r} missing or untyped in "
                             f"aggregate schema {fsch.names}")
    levels = [fine.map_batches(finish(n), batch_format="pyarrow",
                               zero_copy_batch=True)]
    prev = fine
    for i in range(n - 1, 0, -1):
        cur = grouped_sums(prev, keys[:i], {c: c for c in all_outs},
                           count_alias=None, batch_size=batch_size
                           ).materialize()
        levels.append(cur.map_batches(finish(i), batch_format="pyarrow",
                                      zero_copy_batch=True))
        prev = cur

    # grand total: fold the 1-key level under a constant key
    def add_const(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__c", pa.array(np.zeros(batch.num_rows, dtype=np.int8)))

    total = grouped_sums(
        prev.map_batches(add_const, batch_format="pyarrow",
                         zero_copy_batch=True),
        ["__c"], {c: c for c in all_outs}, count_alias=None,
        batch_size=batch_size,
    )

    def drop_const(batch: pa.Table) -> pa.Table:
        return finish(0)(batch.drop_columns(["__c"]))

    levels.append(total.map_batches(drop_const, batch_format="pyarrow"))

    out = levels[0]
    for lv in levels[1:]:
        out = out.union(lv)
    return out


def grouping_sets_sums(ds, keys: list[str], sets: list[list[str]],
                       sum_cols: dict[str, str], count_alias: str = "n",
                       grouping_col: str = "grouping_id",
                       batch_size: int = 65536):
    """GROUP BY GROUPING SETS: SUM/COUNT at each requested subset of
    ``keys`` in one raw-data scan — the generalization of
    :func:`rollup_sums` to arbitrary sets (:func:`cube_sums` passes every
    subset). Aggregated-away key columns are NULL; ``grouping_col`` is
    the SQL GROUPING bitmask (bit for keys[i] at weight 2^(n-1-i)).

    Scale shape: ONE raw scan builds the finest (all-keys) aggregate via
    :func:`grouped_sums`; every requested set folds from that
    materialized O(distinct key combos)-row table (any subset aggregate
    is derivable from the full-key aggregate — sums re-fold as sums,
    counts as sums of counts). The sets stream independently and union
    lazily. Same key contract as rollup_sums: key columns must not
    contain native NULLs; empty input yields zero rows."""
    import numpy as np

    n = len(keys)
    if n == 0:
        raise ValueError("grouping_sets_sums needs at least one key")
    gs_names = keys + list(sum_cols) + [count_alias, grouping_col]
    if len(set(gs_names)) != len(gs_names):
        raise ValueError(
            f"grouping-sets output names collide: keys={keys}, "
            f"sums={list(sum_cols)}, count_alias={count_alias!r}, "
            f"grouping_col={grouping_col!r} must all be distinct")
    norm_sets = []
    seen = set()
    for s in sets:
        s = list(s)
        if not set(s) <= set(keys):
            raise ValueError(f"grouping set {s!r} not a subset of {keys}")
        if len(set(s)) != len(s):
            raise ValueError(f"grouping set {s!r} has duplicate keys")
        marker = frozenset(s)
        if marker in seen:
            raise ValueError(f"duplicate grouping set {s!r}")
        seen.add(marker)
        norm_sets.append(s)
    outs = list(sum_cols)
    all_outs = outs + [count_alias]

    fine = grouped_sums(ds, keys, sum_cols, count_alias=count_alias,
                        batch_size=batch_size).materialize()
    fsch = fine.schema()
    ktypes = {name: t for name, t in zip(fsch.names, fsch.types)}

    def finish(kept: list[str]):
        gid = sum(1 << (n - 1 - i) for i, k in enumerate(keys)
                  if k not in kept)

        def fn(batch: pa.Table) -> pa.Table:
            cols = {}
            for k in keys:
                cols[k] = (batch.column(k) if k in kept
                           else pa.nulls(batch.num_rows, ktypes[k]))
            cols[grouping_col] = pa.array(
                np.full(batch.num_rows, gid, dtype=np.int64))
            for c in all_outs:
                cols[c] = batch.column(c).cast(pa.int64()) \
                    if c == count_alias else batch.column(c)
            return pa.table(cols)

        return fn

    def add_const(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__c", pa.array(np.zeros(batch.num_rows, dtype=np.int8)))

    levels = []
    for s in norm_sets:
        if set(s) == set(keys):
            lvl = fine
        elif s:
            lvl = grouped_sums(fine, s, {c: c for c in all_outs},
                               count_alias=None, batch_size=batch_size)
        else:
            lvl = grouped_sums(
                fine.map_batches(add_const, batch_format="pyarrow",
                                 zero_copy_batch=True),
                ["__c"], {c: c for c in all_outs}, count_alias=None,
                batch_size=batch_size,
            ).map_batches(lambda b: b.drop_columns(["__c"]),
                          batch_format="pyarrow")
        levels.append(lvl.map_batches(finish(s), batch_format="pyarrow"))

    out = levels[0]
    for lv in levels[1:]:
        out = out.union(lv)
    return out


def cube_sums(ds, keys: list[str], sum_cols: dict[str, str],
              count_alias: str = "n", grouping_col: str = "grouping_id",
              batch_size: int = 65536):
    """GROUP BY CUBE(*keys): every subset of ``keys`` (2^n grouping
    sets) via :func:`grouping_sets_sums` — one raw scan, 2^n folds of
    the materialized finest aggregate. ``len(keys)`` is a SCHEMA-sized
    dial (2-3 in practice), not data-sized."""
    from itertools import combinations

    n = len(keys)
    if n > 6:
        raise ValueError(f"cube over {n} keys is {2**n} grouping sets; "
                         "pass explicit grouping_sets_sums sets instead")
    sets = [list(c) for r in range(n, -1, -1)
            for c in combinations(keys, r)]
    return grouping_sets_sums(ds, keys, sets, sum_cols,
                              count_alias=count_alias,
                              grouping_col=grouping_col,
                              batch_size=batch_size)


def grouped_moments(ds, group: str, x: str, y: str, scale: int = 100,
                    batch_size: int = 65536):
    """EXACT per-group second-moment sums for two columns — the
    integer-exact building block of variance / covariance / correlation:
    (group, n, sx, sy, sxx, syy, sxy) where every value is the x``scale``
    integer scaling summed as int64 (sxx = sum((x*scale)^2) etc.), so a
    SQL mirror is bit-equal and downstream float math happens ONCE on
    the aggregate, not per row. Rows with a NULL x or y drop (SQL
    two-column aggregate semantics: CORR/COVAR skip pairs with any
    NULL).

    Scale shape: one :func:`grouped_sums` — per-batch map-side combine
    of the five product columns, one shuffle of O(groups × batches)
    partial rows. Guard: |value*scale| must stay below 2^31 so each
    SQUARE fits int64; the SUMS of squares are additionally
    overflow-checked after the merge against float64 shadow sums (r5
    ADVICE fix — many near-cap rows can silently wrap the int64 sum
    while the per-row guard passes; an int64 wrap shifts the value by
    2^64, which dwarfs float64 summation error at any realistic row
    count, so |int_sum - float_sum| > 2^62 is an unambiguous wrap
    detector). On wrap the pipeline raises instead of silently
    diverging from a HUGEINT-promoting SQL engine."""
    import pyarrow.compute as pc

    from jsschema_ray.stages.windows import round_half_away

    int_cols = ("sx", "sy", "sxx", "syy", "sxy")

    def prep(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(batch.column(x)),
                       pc.is_valid(batch.column(y)))
        b = batch.select([group, x, y]).filter(keep)
        import numpy as np

        xv = round_half_away(
            b.column(x).to_numpy(zero_copy_only=False) * scale
        ).astype(np.int64)
        yv = round_half_away(
            b.column(y).to_numpy(zero_copy_only=False) * scale
        ).astype(np.int64)
        if len(xv) and max(np.abs(xv).max(), np.abs(yv).max()) >= (1 << 31):
            raise ValueError(
                f"grouped_moments values exceed 2^31 at scale={scale}; "
                "squares would overflow int64 — lower the scale")
        cols = {"sx": xv, "sy": yv, "sxx": xv * xv, "syy": yv * yv,
                "sxy": xv * yv}
        out = {group: b.column(group)}
        for name, v in cols.items():
            out[name] = pa.array(v)
            out["f" + name] = pa.array(v.astype(np.float64))
        return pa.table(out)

    merged = grouped_sums(
        ds.select_columns([group, x, y]).map_batches(
            prep, batch_format="pyarrow", batch_size=batch_size,
            zero_copy_batch=True,
        ),
        [group],
        {c: c for c in int_cols} | {"f" + c: "f" + c for c in int_cols},
        count_alias="n", batch_size=batch_size,
    )

    def check_wrap(batch: pa.Table) -> pa.Table:
        import numpy as np

        for c in int_cols:
            iv = batch.column(c).to_numpy(zero_copy_only=False).astype(
                np.float64)
            fv = batch.column("f" + c).to_numpy(zero_copy_only=False)
            if len(iv) and np.abs(iv - fv).max() > float(1 << 62):
                raise ValueError(
                    f"grouped_moments: int64 sum of {c} wrapped (exceeds "
                    f"2^63 at scale={scale}) — lower the scale")
        return batch.select([group, "n"] + list(int_cols))

    return merged.map_batches(check_wrap, batch_format="pyarrow",
                              zero_copy_batch=True)


def grouped_skewness(ds, group: str, x: str, scale: int = 100,
                     batch_size: int = 65536):
    """Per-group population SKEWNESS from EXACT integer moment sums —
    the third-moment extension of :func:`grouped_moments` (reference
    analogue: the single-value numeric constraints of
    /root/reference/schema.go, extended to a grouped distribution-shape
    statistic). Emits (group, n, s1, s2, s3, skew): s1/s2/s3 are the
    int64 sums of (x*scale)^{1,2,3} — bit-equal to a SQL mirror — and
    ``skew`` is population skewness m3 / m2^1.5 computed ONCE per group
    in one fixed float operation order::

        num = fn*fn*f3 - 3.0*fn*f1*f2 + 2.0*f1*f1*f1    # = n^3 * m3
        den = fn*f2 - f1*f1                              # = n^2 * m2
        skew = num / (den * sqrt(den))   if den > 0 else NULL

    sqrt/×/÷ are IEEE-754 correctly rounded, so a SQL mirror using the
    same literal expression (``num / (den * SQRT(den))`` — NOT
    ``POWER(den, 1.5)``, whose libm rounding may differ) is
    bit-identical. NULL x rows drop (SQL aggregate semantics).

    Scale shape: one :func:`grouped_sums` shuffle of O(groups × batches)
    partial rows. Guards: |x*scale| < 2^21 so each CUBE fits int64
    (per-row), and the merged s2/s3 sums are wrap-checked against
    float64 shadow sums (the grouped_moments r5-ADVICE detector)."""
    import pyarrow.compute as pc

    from jsschema_ray.stages.windows import round_half_away

    int_cols = ("s1", "s2", "s3")

    def prep(batch: pa.Table) -> pa.Table:
        import numpy as np

        b = batch.select([group, x]).filter(pc.is_valid(batch.column(x)))
        v = round_half_away(
            b.column(x).to_numpy(zero_copy_only=False) * scale
        ).astype(np.int64)
        if len(v) and np.abs(v).max() >= (1 << 21):
            raise ValueError(
                f"grouped_skewness values exceed 2^21 at scale={scale}; "
                "cubes would overflow int64 — lower the scale")
        cols = {"s1": v, "s2": v * v, "s3": v * v * v}
        out = {group: b.column(group)}
        for name, c in cols.items():
            out[name] = pa.array(c)
            out["f" + name] = pa.array(c.astype(np.float64))
        return pa.table(out)

    merged = grouped_sums(
        ds.select_columns([group, x]).map_batches(
            prep, batch_format="pyarrow", batch_size=batch_size,
            zero_copy_batch=True,
        ),
        [group],
        {c: c for c in int_cols} | {"f" + c: "f" + c for c in int_cols},
        count_alias="n", batch_size=batch_size,
    )

    def finish(batch: pa.Table) -> pa.Table:
        import numpy as np

        for c in ("s2", "s3"):
            iv = batch.column(c).to_numpy(zero_copy_only=False).astype(
                np.float64)
            fv = batch.column("f" + c).to_numpy(zero_copy_only=False)
            if len(iv) and np.abs(iv - fv).max() > float(1 << 62):
                raise ValueError(
                    f"grouped_skewness: int64 sum of {c} wrapped (exceeds "
                    f"2^63 at scale={scale}) — lower the scale")
        fn = batch.column("n").to_numpy(zero_copy_only=False).astype(
            np.float64)
        f1 = batch.column("s1").to_numpy(zero_copy_only=False).astype(
            np.float64)
        f2 = batch.column("s2").to_numpy(zero_copy_only=False).astype(
            np.float64)
        f3 = batch.column("s3").to_numpy(zero_copy_only=False).astype(
            np.float64)
        num = fn * fn * f3 - 3.0 * fn * f1 * f2 + 2.0 * f1 * f1 * f1
        den = fn * f2 - f1 * f1
        ok = den > 0.0
        with np.errstate(invalid="ignore", divide="ignore"):
            skew = np.where(ok, num / (den * np.sqrt(np.where(ok, den, 1.0))
                                       ), np.nan)
        return pa.table({
            group: batch.column(group),
            "n": batch.column("n"),
            "s1": batch.column("s1"),
            "s2": batch.column("s2"),
            "s3": batch.column("s3"),
            # NULL (not NaN) where den <= 0 — mirrors SQL CASE ... END
            "skew": pa.array(skew, type=pa.float64(), mask=~ok),
        })

    return merged.map_batches(finish, batch_format="pyarrow",
                              zero_copy_batch=True)


def grouped_corr(ds, group: str, x: str, y: str, scale: int = 100,
                 batch_size: int = 65536):
    """Per-group Pearson correlation + population covariance, derived
    from :func:`grouped_moments`' EXACT int64 sums with the float math
    done ONCE per group on the tiny aggregate (reference analogue: the
    single-value statistics jsschema validates per field,
    /root/reference/schema.go numeric constraints — extended here to a
    cross-column grouped statistic).

    Float-parity contract: the finishing expression is computed in one
    fixed operation order —

        num  = f(n)*f(sxy) - f(sx)*f(sy)
        denx = f(n)*f(sxx) - f(sx)*f(sx)
        deny = f(n)*f(syy) - f(sy)*f(sy)
        corr = num / sqrt(denx * deny)      (NULL unless denx*deny > 0)
        cov  = num / (f(n) * f(n))          (of the x``scale`` ints)

    where f() is an exact int64→float64 cast of the merged sums. A SQL
    mirror spelling the SAME casts and op order over the SAME integer
    sums reproduces the float64 bits exactly (plain IEEE multiplies /
    subtracts / divides — neither numpy nor DuckDB fuses them), so the
    result is oracle-hashable without tolerance. Zero-variance groups:
    the exact value of denx/deny is >= 0, but at >2^53 the two float
    products can round one ulp apart; any group whose denx*deny is not
    strictly positive yields NULL corr (both engines, same rule).

    Scale shape: identical to grouped_moments — one map-side-combined
    shuffle of O(groups x batches) partial rows; the finish is a
    row-local map over one row per group."""
    m = grouped_moments(ds, group, x, y, scale=scale,
                        batch_size=batch_size)

    def finish(batch: pa.Table) -> pa.Table:
        import numpy as np

        f = {c: batch.column(c).to_numpy(zero_copy_only=False).astype(
            np.float64) for c in ("n", "sx", "sy", "sxx", "syy", "sxy")}
        num = f["n"] * f["sxy"] - f["sx"] * f["sy"]
        denx = f["n"] * f["sxx"] - f["sx"] * f["sx"]
        deny = f["n"] * f["syy"] - f["sy"] * f["sy"]
        prod = denx * deny
        ok = prod > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = np.where(ok, num / np.sqrt(np.where(ok, prod, 1.0)),
                            0.0)
        cov = num / (f["n"] * f["n"])
        return pa.table({
            group: batch.column(group),
            "n": batch.column("n"),
            "corr_xy": pa.array(corr, pa.float64(), mask=~ok),
            "cov_scaled": pa.array(cov, pa.float64()),
        })

    return m.map_batches(finish, batch_format="pyarrow",
                         zero_copy_batch=True)


def grouped_stddev(ds, group: str, x: str, scale: int = 100,
                   batch_size: int = 65536):
    """Per-group sample standard deviation / variance / mean of the
    x``scale``-rounded values — the single-column member of the
    exact-int-sums family (:func:`grouped_moments` / :func:`grouped_corr`
    / :func:`grouped_linreg`; reference analogue: the per-field numeric
    constraints jsschema validates one value at a time,
    /root/reference/schema.go — extended to a grouped corpus statistic).
    Output columns: (group, n, mean_x, var_samp, stddev_samp), in
    ORIGINAL column units.

    Float-parity contract (the bit-mirrored finish recipe): the merged
    sums are EXACT int64 (n, sx = sum(xv), sxx = sum(xv*xv) of the
    x``scale`` half-away-rounded ints, NULLs dropped), and the finish is
    one fixed operation order —

        num    = f(n)*f(sxx) - f(sx)*f(sx)
        den    = f(n)*(f(n) - 1.0)
        var    = num / den / (scale*scale as a float literal)
        stddev = sqrt(num / den) / float(scale)
        mean   = f(sx) / f(n) / float(scale)

    with n < 2 -> NULL var/stddev and num <= 0 -> 0.0 (exact num is
    always >= 0; past 2^53 the two float products can round to a tiny
    negative, but BOTH engines compute the same bits and take the same
    branch). A SQL mirror spelling the same casts, literals and
    left-to-right association reproduces the float64 bits exactly, so
    the result hashes against a DuckDB oracle without tolerance
    (DuckDB's own STDDEV_SAMP streams float accumulators in row order
    and can never be mirrored by a distributed engine).

    Scale shape: one :func:`grouped_sums` — per-batch map-side combine,
    one shuffle of O(groups x batches) partial rows, row-local finish.
    Same 2^31 per-value guard and float-shadow int64 wrap check as
    grouped_moments."""
    import numpy as np
    import pyarrow.compute as pc

    from jsschema_ray.stages.windows import round_half_away

    def prep(batch: pa.Table) -> pa.Table:
        b = batch.select([group, x]).filter(pc.is_valid(batch.column(x)))
        xv = round_half_away(
            b.column(x).to_numpy(zero_copy_only=False) * scale
        ).astype(np.int64)
        if len(xv) and np.abs(xv).max() >= (1 << 31):
            raise ValueError(
                f"grouped_stddev values exceed 2^31 at scale={scale}; "
                "squares would overflow int64 — lower the scale")
        sq = xv * xv
        return pa.table({
            group: b.column(group),
            "sx": pa.array(xv), "sxx": pa.array(sq),
            "fsx": pa.array(xv.astype(np.float64)),
            "fsxx": pa.array(sq.astype(np.float64)),
        })

    merged = grouped_sums(
        ds.select_columns([group, x]).map_batches(
            prep, batch_format="pyarrow", batch_size=batch_size,
            zero_copy_batch=True,
        ),
        [group],
        {c: c for c in ("sx", "sxx", "fsx", "fsxx")},
        count_alias="n", batch_size=batch_size,
    )

    sc = float(scale)
    sc2 = float(scale * scale)

    def finish(batch: pa.Table) -> pa.Table:
        for c in ("sx", "sxx"):
            iv = batch.column(c).to_numpy(zero_copy_only=False).astype(
                np.float64)
            fv = batch.column("fs" + c[1:]).to_numpy(zero_copy_only=False)
            if len(iv) and np.abs(iv - fv).max() > float(1 << 62):
                raise ValueError(
                    f"grouped_stddev: int64 sum of {c} wrapped (exceeds "
                    f"2^63 at scale={scale}) — lower the scale")
        n_i = batch.column("n").to_numpy(zero_copy_only=False)
        fn = n_i.astype(np.float64)
        fsx = batch.column("sx").to_numpy(zero_copy_only=False).astype(
            np.float64)
        fsxx = batch.column("sxx").to_numpy(zero_copy_only=False).astype(
            np.float64)
        num = fn * fsxx - fsx * fsx
        den = fn * (fn - 1.0)
        enough = n_i >= 2
        pos = num > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(enough & pos, num, 0.0) / np.where(
                enough, den, 1.0)
            var = ratio / sc2
            std = np.sqrt(ratio) / sc
            mean = fsx / fn / sc
        return pa.table({
            group: batch.column(group),
            "n": batch.column("n"),
            "mean_x": pa.array(mean, pa.float64()),
            "var_samp": pa.array(var, pa.float64(), mask=~enough),
            "stddev_samp": pa.array(std, pa.float64(), mask=~enough),
        })

    return merged.map_batches(finish, batch_format="pyarrow",
                              zero_copy_batch=True)


def grouped_weighted_mean(ds, group: str, x: str, w: str,
                          x_scale: int = 100, w_scale: int = 100,
                          batch_size: int = 65536):
    """Per-group WEIGHTED mean of ``x`` with weights ``w`` — the
    upweight-by-quality / revenue-weighted statistic of curation
    dashboards, as another member of the exact-int-sums family: per row
    xv = round_half_away(x * x_scale), wv = round_half_away(w * w_scale)
    (both int64), merged sums swx = sum(xv*wv) and sw = sum(wv) are
    EXACT, and the finish is one fixed order —

        wmean = f(swx) / f(sw) / float(x_scale)

    NULL if a group's sw == 0 (SQL division-by-zero-to-NULL rule,
    spelled as a CASE both sides); rows with NULL x or w drop. A SQL
    mirror with the same casts and literals reproduces the float64 bits,
    so the result hashes without tolerance. Output: (group, n, wmean).

    Guards: per-row |xv| and |wv| must each stay below 2^31 (so the
    product fits int64), and the merged int64 sums carry the float-
    shadow wrap check of grouped_moments.

    Scale shape: one map-side-combined grouped_sums shuffle of
    O(groups x batches) partial rows, row-local finish."""
    import pyarrow.compute as pc

    from jsschema_ray.stages.windows import round_half_away

    def prep(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(batch.column(x)),
                       pc.is_valid(batch.column(w)))
        b = batch.select([group, x, w]).filter(keep)
        import numpy as np

        xv = round_half_away(
            b.column(x).to_numpy(zero_copy_only=False) * x_scale
        ).astype(np.int64)
        wv = round_half_away(
            b.column(w).to_numpy(zero_copy_only=False) * w_scale
        ).astype(np.int64)
        if len(xv) and max(np.abs(xv).max(), np.abs(wv).max()) >= (1 << 31):
            raise ValueError(
                f"grouped_weighted_mean values exceed 2^31 at scales "
                f"({x_scale}, {w_scale}); products would overflow int64 "
                "— lower a scale")
        swx = xv * wv
        return pa.table({
            group: b.column(group),
            "swx": pa.array(swx), "sw": pa.array(wv),
            "fswx": pa.array(swx.astype(np.float64)),
            "fsw": pa.array(wv.astype(np.float64)),
        })

    merged = grouped_sums(
        ds.select_columns([group, x, w]).map_batches(
            prep, batch_format="pyarrow", batch_size=batch_size,
            zero_copy_batch=True,
        ),
        [group],
        {c: c for c in ("swx", "sw", "fswx", "fsw")},
        count_alias="n", batch_size=batch_size,
    )

    xs = float(x_scale)

    def finish(batch: pa.Table) -> pa.Table:
        import numpy as np

        for c in ("swx", "sw"):
            iv = batch.column(c).to_numpy(zero_copy_only=False).astype(
                np.float64)
            fv = batch.column("f" + c).to_numpy(zero_copy_only=False)
            if len(iv) and np.abs(iv - fv).max() > float(1 << 62):
                raise ValueError(
                    f"grouped_weighted_mean: int64 sum of {c} wrapped — "
                    "lower a scale")
        fswx = batch.column("swx").to_numpy(zero_copy_only=False).astype(
            np.float64)
        fsw = batch.column("sw").to_numpy(zero_copy_only=False).astype(
            np.float64)
        ok = fsw != 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            wmean = fswx / np.where(ok, fsw, 1.0) / xs
        return pa.table({
            group: batch.column(group),
            "n": batch.column("n"),
            "wmean": pa.array(wmean, pa.float64(), mask=~ok),
        })

    return merged.map_batches(finish, batch_format="pyarrow",
                              zero_copy_batch=True)


def grouped_zscore(ds, group: str, x: str, scale: int = 100,
                   keep: Optional[list] = None, batch_size: int = 65536):
    """Per-ROW z-score standardization within each group — the ML
    feature-prep transform (standardize a numeric column per stratum):
    appends ``zscore`` float64 computed in ONE spelled IEEE order

        xq = f(round_half_away(x * scale)) / float(scale)
        z  = (xq - mean_x) / stddev_samp

    where mean_x / stddev_samp are :func:`grouped_stddev`'s bit-mirrored
    per-group statistics. Rows with NULL x, a group with n < 2, or zero
    variance yield NULL zscore (division by 0 → NULL, the SQL rule). A
    SQL mirror that rebuilds the same exact-int-sums statistics and
    spells the same quantize-subtract-divide reproduces the float64
    bits, so even this per-ROW float column hashes without tolerance.

    Scale shape: one grouped_stddev (map-side-combined shuffle of
    O(groups x batches) partials), then the O(groups) stats table
    broadcast-joins back (ray.put once — groups must be bounded for the
    broadcast; use the stats directly for unbounded cardinality) and the
    z math is a row-local vectorized map. ``keep`` limits the output
    columns (plus group/x/zscore)."""
    import numpy as np
    import pyarrow.compute as pc

    from jsschema_ray.stages.join import broadcast_join
    from jsschema_ray.stages.windows import round_half_away

    stats = grouped_stddev(ds, group, x, scale=scale,
                           batch_size=batch_size)
    cols = list(dict.fromkeys((keep or []) + [group, x]))
    joined = broadcast_join(ds.select_columns(cols), stats, key=group,
                            how="left", batch_size=batch_size)
    sc = float(scale)

    def finish(batch: pa.Table) -> pa.Table:
        xa = batch.column(x)
        xv = round_half_away(
            np.where(pc.is_valid(xa).to_numpy(zero_copy_only=False),
                     xa.to_numpy(zero_copy_only=False), 0.0) * scale
        ).astype(np.int64)
        xq = xv.astype(np.float64) / sc
        mean = batch.column("mean_x").to_numpy(zero_copy_only=False)
        std = batch.column("stddev_samp").to_numpy(zero_copy_only=False)
        ok = (pc.is_valid(xa).to_numpy(zero_copy_only=False)
              & ~np.isnan(mean) & ~np.isnan(std) & (std != 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            z = (xq - mean) / np.where(ok, std, 1.0)
        out = batch.drop_columns(["n", "mean_x", "var_samp",
                                  "stddev_samp"])
        return out.append_column(
            "zscore", pa.array(z, pa.float64(), mask=~ok))

    return joined.map_batches(finish, batch_format="pyarrow",
                              batch_size=batch_size, zero_copy_batch=True)


def grouped_linreg(ds, group: str, x: str, y: str, scale: int = 100,
                   batch_size: int = 65536):
    """Per-group simple linear regression y = slope*x + intercept (of
    the x``scale``-rounded values), derived — like :func:`grouped_corr`
    — from :func:`grouped_moments`' EXACT int64 sums with the float math
    done ONCE per group in a FIXED operation order:

        num   = f(n)*f(sxy) - f(sx)*f(sy)
        denx  = f(n)*f(sxx) - f(sx)*f(sx)
        slope = num / denx                      (NULL unless denx > 0)
        intercept = (f(sy) - slope * f(sx)) / f(n)

    Same float-parity contract as grouped_corr: a SQL mirror with the
    identical casts and association reproduces the float64 bits, so the
    result hashes against a DuckDB oracle without tolerance (DuckDB's
    own REGR_SLOPE streams float accumulators in row order and is NOT
    mirrorable — the exact-int-sums detour is what makes the
    distributed result deterministic and oracle-hashable). slope is
    scale-invariant (both columns share ``scale``); intercept is in
    x``scale`` units. Zero-x-variance groups yield NULL slope AND NULL
    intercept (both engines, same >0 rule).

    Scale shape: identical to grouped_moments — one map-side-combined
    shuffle of O(groups x batches) partial rows, row-local finish."""
    m = grouped_moments(ds, group, x, y, scale=scale,
                        batch_size=batch_size)

    def finish(batch: pa.Table) -> pa.Table:
        import numpy as np

        f = {c: batch.column(c).to_numpy(zero_copy_only=False).astype(
            np.float64) for c in ("n", "sx", "sy", "sxx", "sxy")}
        num = f["n"] * f["sxy"] - f["sx"] * f["sy"]
        denx = f["n"] * f["sxx"] - f["sx"] * f["sx"]
        ok = denx > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.where(ok, num / np.where(ok, denx, 1.0), 0.0)
            intercept = (f["sy"] - slope * f["sx"]) / f["n"]
        return pa.table({
            group: batch.column(group),
            "n": batch.column("n"),
            "slope": pa.array(slope, pa.float64(), mask=~ok),
            "intercept": pa.array(intercept, pa.float64(), mask=~ok),
        })

    return m.map_batches(finish, batch_format="pyarrow",
                         zero_copy_batch=True)


def grouped_minmax_scale(ds, group: str, x: str, scale: int = 100,
                         keep: Optional[list] = None,
                         batch_size: int = 65536):
    """Per-ROW min-max normalization within each group — the [0, 1]
    feature-rescaling transform, the bounded sibling of
    :func:`grouped_zscore`: appends ``minmax`` float64 computed as ONE
    spelled IEEE division of EXACT int64 operands

        xv     = round_half_away(x * scale)            (int64)
        minmax = f(xv - xmin) / f(xmax - xmin)

    where xmin/xmax are the exact per-group int64 extrema of xv (NULL x
    dropped). Integer subtraction is exact and both division operands
    are exactly representable in float64 (|xv| < 2^52 enforced at the
    scan), so a SQL mirror spelling the same
    ``CAST(xv - xmin AS DOUBLE) / CAST(xmax - xmin AS DOUBLE)``
    reproduces the float64 bits and even this per-ROW float column
    hashes against a DuckDB oracle without tolerance. Rows with NULL x,
    a group with no statistics (NULL group key or all-NULL x — SQL
    LEFT-join semantics, NULL never matches NULL), or a constant group
    (xmax == xmin) yield NULL ``minmax`` (the SQL CASE rule).

    Scale shape: one :func:`grouped_extrema` (per-batch pyarrow
    ``group_by`` min/max partials — O(groups x batches) width-3 rows —
    hash-merged), then the O(groups) stats table broadcast-joins back (ray.put
    once; groups must be bounded for the broadcast) and the finish is a
    row-local vectorized map. Reference analogue: the per-field numeric
    range keywords (minimum/maximum, /root/reference/schema.go) extended
    from single-value validation to a grouped corpus rescale. ``keep``
    limits the output columns (plus group/x/minmax)."""
    import numpy as np
    import pyarrow.compute as pc

    from jsschema_ray.stages.join import broadcast_join
    from jsschema_ray.stages.windows import round_half_away

    def prep(batch: pa.Table) -> pa.Table:
        b = batch.select([group, x]).filter(pc.is_valid(batch.column(x)))
        xv = round_half_away(
            b.column(x).to_numpy(zero_copy_only=False) * scale
        ).astype(np.int64)
        if len(xv) and np.abs(xv).max() >= (1 << 52):
            raise ValueError(
                f"grouped_minmax_scale values exceed 2^52 at "
                f"scale={scale}; the int64 differences would lose "
                "float64 exactness — lower the scale")
        return pa.table({group: b.column(group), "xv": pa.array(xv)})

    stats = grouped_extrema(
        ds.select_columns([group, x]).map_batches(
            prep, batch_format="pyarrow", batch_size=batch_size,
            zero_copy_batch=True),
        [group], {"xmin": ("xv", "min"), "xmax": ("xv", "max")},
        batch_size=batch_size)

    cols = list(dict.fromkeys((keep or []) + [group, x]))
    joined = broadcast_join(ds.select_columns(cols), stats, key=group,
                            how="left", batch_size=batch_size)

    def finish(batch: pa.Table) -> pa.Table:
        xa = batch.column(x)
        valid = pc.is_valid(xa).to_numpy(zero_copy_only=False)
        xv = round_half_away(
            np.where(valid, xa.to_numpy(zero_copy_only=False), 0.0)
            * scale
        ).astype(np.int64)
        xmin_a = batch.column("xmin")
        have = pc.is_valid(xmin_a).to_numpy(zero_copy_only=False)
        xmin = np.where(
            have, xmin_a.to_numpy(zero_copy_only=False), 0
        ).astype(np.int64)
        xmax = np.where(
            have, batch.column("xmax").to_numpy(zero_copy_only=False), 0
        ).astype(np.int64)
        rng = xmax - xmin
        ok = valid & have & (rng != 0)
        v = (xv - xmin).astype(np.float64) / np.where(
            ok, rng, 1).astype(np.float64)
        out = batch.drop_columns(["xmin", "xmax"])
        return out.append_column(
            "minmax", pa.array(v, pa.float64(), mask=~ok))

    return joined.map_batches(finish, batch_format="pyarrow",
                              batch_size=batch_size, zero_copy_batch=True)


def cooccurrence_counts(ds, key: str, col: str, out_a: str = "item_a",
                        out_b: str = "item_b",
                        count_alias: str = "n_keys",
                        batch_size: int = 262144,
                        max_items_per_key: int = 10000):
    """Pairwise co-occurrence counts: for every unordered pair (a < b) of
    DISTINCT ``col`` values sharing a ``key``, the number of keys where
    both occur — the market-basket / item-affinity aggregate (events:
    "users who did A also did B"). SQL mirror: self-join of
    ``SELECT DISTINCT key, col`` on ``a.key = b.key AND a.col < b.col``
    rolled up with COUNT(*). NULL keys and NULL values drop on both
    sides (a SQL equi-join never matches NULL; ``a.col < b.col`` is NULL
    for NULL items). String pairs order by Arrow's binary collation —
    identical to DuckDB's default BINARY collation.

    Scale shape — raw event rows never shuffle: each batch pre-trims to
    its DISTINCT (key, col) pairs (one pyarrow group_by — the
    block-is-the-salt pattern; at most batches × per-batch-distinct rows
    move), hash(key) co-partitions so each key's item set lands whole in
    ONE partition, and each partition runs one GLOBAL distinct + ONE
    vectorized combination expansion over its sorted (key, col) segments
    (repeat/arange index algebra — no per-key Python loop), collapsing
    immediately to local (a, b) count partials; grouped_sums then merges
    O(distinct pairs × partitions) tiny rows. Pair width per key is
    quadratic in the key's DISTINCT item count (never its row count) —
    ``max_items_per_key`` raises before a hot key can blow up a
    partition (lift it only with the item universe bounded).

    No reference analogue (single-value validator, schema.go); part of
    the driver-mandated training-corpus analytics class (SURVEY §2.D) —
    e.g. tag/domain affinity over a curated web corpus."""
    import numpy as np
    import pyarrow.compute as pc

    def pretrim(batch: pa.Table) -> pa.Table:
        b = batch.select([key, col]).filter(
            pc.and_(pc.is_valid(batch.column(key)),
                    pc.is_valid(batch.column(col))))
        return b.group_by([key, col]).aggregate([])

    def expand(g: pa.Table) -> pa.Table:
        # cross-batch distinct within the partition (keys are whole here)
        g = g.group_by([key, col]).aggregate([])
        vt = g.column(col).slice(0, 0)
        empty = pa.table({out_a: vt, out_b: vt,
                          count_alias: pa.array([], type=pa.int64())})
        n = g.num_rows
        if n == 0:
            return empty
        g = g.sort_by([(key, "ascending"), (col, "ascending")])
        vals = g.column(col).combine_chunks()
        karr = g.column(key).combine_chunks()
        neq = pc.fill_null(
            pc.not_equal(karr.slice(1, n - 1), karr.slice(0, n - 1)),
            False).to_numpy(zero_copy_only=False)
        starts = np.r_[0, np.nonzero(neq)[0] + 1]
        seg_id = np.zeros(n, dtype=np.int64)
        seg_id[starts[1:]] = 1
        seg_id = np.cumsum(seg_id)
        seg_start = starts[seg_id]
        pos = np.arange(n, dtype=np.int64) - seg_start
        ends = np.r_[starts[1:], n]
        seg_len = (ends - starts)[seg_id]
        if seg_len.max() > max_items_per_key:
            raise ValueError(
                f"cooccurrence_counts: a key holds {int(seg_len.max())} "
                f"distinct items (> max_items_per_key="
                f"{max_items_per_key}); pairs grow quadratically — "
                "bound the item universe or raise the cap explicitly")
        reps = seg_len - 1 - pos  # pair partners to the right, in-segment
        total = int(reps.sum())
        if total == 0:
            return empty
        i_idx = np.repeat(np.arange(n, dtype=np.int64), reps)
        blk = np.concatenate([[0], np.cumsum(reps)[:-1]])
        j_idx = i_idx + (np.arange(total, dtype=np.int64)
                         - np.repeat(blk, reps)) + 1
        pairs = pa.table({out_a: vals.take(pa.array(i_idx)),
                          out_b: vals.take(pa.array(j_idx))})
        # local partial: collapse this partition's pairs before the merge
        cnt = pairs.group_by([out_a, out_b]).aggregate([([], "count_all")])
        return cnt.rename_columns(
            [count_alias if c == "count_all" else c
             for c in cnt.column_names])

    partials = by_key(ds.select_columns([key, col]).map_batches(
        pretrim, batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True,
    ), [key], expand)
    return grouped_sums(partials, [out_a, out_b],
                        {count_alias: count_alias}, count_alias=None)


def pricing_summary(ds, flag: str = "l_returnflag",
                    status: str = "l_linestatus",
                    qty: str = "l_quantity",
                    price: str = "l_extendedprice",
                    disc: str = "l_discount", tax: str = "l_tax",
                    batch_size: int = 262144):
    """The TPC-H Q1 pricing-summary report re-expressed exact-int-first:
    per (returnflag, linestatus) — sum_qty, sum_base_price,
    sum_disc_price = SUM(price*(1-disc)), sum_charge =
    SUM(price*(1-disc)*(1+tax)), avg_qty, avg_price, avg_disc,
    count_order. TPC-H money/rate columns are 2-decimal, so the x100
    integer scalings are EXACT and the products price*(100-disc100) and
    price*(100-disc100)*(100+tax100) are exact int64 per row; float64
    enters ONCE per group in the finish, every division spelled
    left-to-right exactly as the SQL mirror casts it
    (CAST(s AS DOUBLE) / 100.0 / CAST(n AS DOUBLE)), so even the avg
    columns hash against DuckDB without tolerance — DuckDB's own
    SUM(DOUBLE)/AVG stream in row order and can never be mirrored by a
    distributed engine; the exact-int-sums detour is the repo's general
    recipe (grouped_moments family). Rows with any NULL among the four
    measures drop (the mirror spells the same IS NOT NULL filter; feed
    a pre-filtered Dataset for the shipdate cutoff).

    Guards: |price*100| < 2^31 per row (products then fit int64 with
    > 2^17 headroom per row) and the merged int64 sums are
    float64-shadow wrap-checked (same detector as grouped_moments) —
    at 100 TB a group's sum_charge can legitimately exceed 2^63, and
    the engine must refuse loudly rather than diverge from a
    HUGEINT-promoting SQL engine.

    Scale shape: ONE grouped_sums over x6 pre-multiplied partial
    columns (map-side combine per batch; the group universe is the
    returnflag x linestatus cross — single digits), finish on the tiny
    merged table. Reference analogue: none (single-value validator);
    this is the canonical warehouse scan-aggregate benchmark shape."""
    import numpy as np
    import pyarrow.compute as pc

    from jsschema_ray.stages.windows import round_half_away

    int_cols = ("sq", "sp", "sd", "sdp", "sch")

    def prep(batch: pa.Table) -> pa.Table:
        keep = pc.is_valid(batch.column(qty))
        for c in (price, disc, tax):
            keep = pc.and_(keep, pc.is_valid(batch.column(c)))
        b = batch.select([flag, status, qty, price, disc, tax]).filter(
            keep)

        def scaled(col):
            return round_half_away(
                b.column(col).to_numpy(zero_copy_only=False) * 100
            ).astype(np.int64)

        qv, pv, dv, tv = (scaled(c) for c in (qty, price, disc, tax))
        if len(pv) and max(np.abs(pv).max(), np.abs(qv).max()) >= (1 << 31):
            raise ValueError(
                "pricing_summary values exceed 2^31 at x100 scaling — "
                "the per-row products would overflow int64")
        # disc/tax are RATES: bound their x100 scalings to 10^4 (rate
        # <= 100x) so the triple product stays < 2^31 * 10^4 * 1.01*10^4
        # ~ 2.2*10^17 per row — a looser 2^31 bound would let
        # pv*(100-dv)*(100+tv) wrap int64 SILENTLY per row, before the
        # float-shadow sum check can see it
        if len(dv) and max(np.abs(dv).max(), np.abs(tv).max()) > 10_000:
            raise ValueError(
                "pricing_summary discount/tax rates exceed 100x — "
                "per-row products would overflow int64")
        sdp = pv * (100 - dv)
        cols = {"sq": qv, "sp": pv, "sd": dv, "sdp": sdp,
                "sch": sdp * (100 + tv)}
        out = {flag: b.column(flag), status: b.column(status)}
        for name, v in cols.items():
            out[name] = pa.array(v)
            out["f" + name] = pa.array(v.astype(np.float64))
        return pa.table(out)

    merged = grouped_sums(
        ds.select_columns([flag, status, qty, price, disc, tax])
        .map_batches(prep, batch_format="pyarrow", batch_size=batch_size,
                     zero_copy_batch=True),
        [flag, status],
        {c: c for c in int_cols} | {"f" + c: "f" + c for c in int_cols},
        count_alias="count_order", batch_size=batch_size,
    )

    def finish(batch: pa.Table) -> pa.Table:
        iv = {}
        for c in int_cols:
            iv[c] = batch.column(c).to_numpy(zero_copy_only=False)
            fv = batch.column("f" + c).to_numpy(zero_copy_only=False)
            if len(fv) and np.abs(iv[c].astype(np.float64) - fv).max() \
                    > float(1 << 62):
                raise ValueError(
                    f"pricing_summary: int64 sum of {c} wrapped "
                    "(exceeds 2^63) — aggregate in finer partitions")
        n = batch.column("count_order").to_numpy(
            zero_copy_only=False).astype(np.float64)
        # one spelled float op chain per output — identical to the SQL
        # mirror's CAST(... AS DOUBLE) expressions, left-to-right
        out = {
            flag: batch.column(flag), status: batch.column(status),
            "sum_qty": iv["sq"].astype(np.float64) / 100.0,
            "sum_base_price": iv["sp"].astype(np.float64) / 100.0,
            "sum_disc_price": iv["sdp"].astype(np.float64) / 10000.0,
            "sum_charge": iv["sch"].astype(np.float64) / 1000000.0,
            "avg_qty": iv["sq"].astype(np.float64) / 100.0 / n,
            "avg_price": iv["sp"].astype(np.float64) / 100.0 / n,
            "avg_disc": iv["sd"].astype(np.float64) / 100.0 / n,
            "count_order": batch.column("count_order"),
        }
        return pa.table(out)

    return merged.map_batches(finish, batch_format="pyarrow",
                              zero_copy_batch=True)


def grouped_share(ds, group: str, x: str, scale: int = 100,
                  share_name: str = "share", batch_size: int = 65536):
    """Ratio-to-report: per-group exact int64 sum of the x``scale``
    scaling of ``x`` plus each group's SHARE of the grand total — the
    SQL ``SUM(v) / SUM(SUM(v)) OVER ()`` window aggregate (corpus
    composition reports: fraction of total tokens per language, of
    revenue per nation, of event value per type). Returns (group, sv,
    share): sv int64-exact, share = ONE spelled division
    CAST(sv AS DOUBLE) / CAST(total AS DOUBLE) of exactly-representable
    operands' float64 casts in the same order the SQL mirror spells, so
    the per-group float hashes without tolerance. NULL ``x`` rows drop;
    a NULL group key forms its own group (both engines agree on
    GROUP BY NULL). A zero grand total yields NaN shares (SQL engines
    differ on DOUBLE/0.0 — pin non-zero totals when mirroring).

    Scale shape: one grouped_sums (map-side combine; O(groups x
    batches) partial rows shuffle), then the O(groups) merged table
    coalesces to ONE block for the grand-total fold — the group
    universe must be bounded (it is the REPORT, not the data); int64
    sums are float64-shadow wrap-checked like the grouped_moments
    family."""
    import numpy as np
    import pyarrow.compute as pc

    from jsschema_ray.stages.windows import round_half_away

    def prep(batch: pa.Table) -> pa.Table:
        b = batch.select([group, x]).filter(pc.is_valid(batch.column(x)))
        xv = round_half_away(
            b.column(x).to_numpy(zero_copy_only=False) * scale
        ).astype(np.int64)
        if len(xv) and np.abs(xv).max() >= (1 << 52):
            raise ValueError(
                f"grouped_share values exceed 2^52 at scale={scale} — "
                "lower the scale")
        return pa.table({group: b.column(group), "sv": pa.array(xv),
                         "fsv": pa.array(xv.astype(np.float64))})

    merged = grouped_sums(
        ds.select_columns([group, x]).map_batches(
            prep, batch_format="pyarrow", batch_size=batch_size,
            zero_copy_batch=True),
        [group], {"sv": "sv", "fsv": "fsv"}, count_alias=None,
        batch_size=batch_size,
    )

    def finish(batch: pa.Table) -> pa.Table:
        sv = batch.column("sv").to_numpy(zero_copy_only=False)
        fsv = batch.column("fsv").to_numpy(zero_copy_only=False)
        if len(sv) and np.abs(sv.astype(np.float64) - fsv).max() \
                > float(1 << 62):
            raise ValueError(
                "grouped_share: int64 sum wrapped (exceeds 2^63) — "
                "lower the scale")
        total = int(sv.sum())
        if abs(float(total) - fsv.sum()) > float(1 << 62):
            raise ValueError("grouped_share: grand total wrapped — "
                             "lower the scale")
        share = sv.astype(np.float64) / np.float64(total) \
            if total != 0 else np.full(len(sv), np.nan)
        out = pa.table({group: batch.column(group),
                        "sv": batch.column("sv"),
                        share_name: pa.array(share, pa.float64())})
        return out

    # the merged report is O(groups): coalesce to one block so the
    # grand-total fold sees every group in a single batch
    return merged.repartition(1).map_batches(
        finish, batch_format="pyarrow", batch_size=None,
        zero_copy_batch=True)


def grouped_concentration(ds, group: str, col: str,
                          batch_size: int = 65536):
    """Per-group Simpson concentration of a categorical column — the
    corpus-composition diagnostic (how concentrated is each source's
    language mix?): returns (group, n, n_cats, simpson_num, simpson)
    where n = rows, n_cats = distinct categories, simpson_num =
    Σ cnt(cat)² (exact int64) and simpson = f(simpson_num) / f(n·n) —
    1/simpson is the effective category count; 1.0 means single-category.
    Both division operands are the same exact integers in a SQL mirror
    (the x·x product is spelled there too), so the float column hashes
    without tolerance. NULL group keys and NULL categories drop (the
    mirror spells both IS NOT NULL).

    Scale shape: two map-side-combined shuffles, both over count rows —
    (group, cat) counts via grouped_sums (O(groups x cats x batches)
    partials), then per-group sums of cnt² (O(groups x cats) rows).
    Guards: per-(group,cat) cnt < 2^31 so cnt² fits int64, group n <
    2^31 so n·n does, and simpson_num carries the float64-shadow wrap
    check of the exact-int-sums family."""
    import numpy as np
    import pyarrow.compute as pc

    def drop_nulls(batch: pa.Table) -> pa.Table:
        return batch.select([group, col]).filter(
            pc.and_(pc.is_valid(batch.column(group)),
                    pc.is_valid(batch.column(col))))

    counts = grouped_sums(
        ds.select_columns([group, col]).map_batches(
            drop_nulls, batch_format="pyarrow", batch_size=batch_size,
            zero_copy_batch=True),
        [group, col], {}, count_alias="cnt", batch_size=batch_size)

    def square(batch: pa.Table) -> pa.Table:
        cnt = batch.column("cnt").to_numpy(zero_copy_only=False)
        if len(cnt) and cnt.max() >= (1 << 31):
            raise ValueError(
                "grouped_concentration: a (group, category) count "
                "exceeds 2^31 — its square would overflow int64")
        sq = cnt * cnt
        return pa.table({group: batch.column(group),
                         "n": batch.column("cnt"),
                         "simpson_num": pa.array(sq),
                         "fsimpson_num": pa.array(sq.astype(np.float64))})

    merged = grouped_sums(
        counts.map_batches(square, batch_format="pyarrow",
                           zero_copy_batch=True),
        [group], {"n": "n", "simpson_num": "simpson_num",
                  "fsimpson_num": "fsimpson_num"},
        count_alias="n_cats", batch_size=batch_size)

    def finish(batch: pa.Table) -> pa.Table:
        sn = batch.column("simpson_num").to_numpy(zero_copy_only=False)
        fsn = batch.column("fsimpson_num").to_numpy(zero_copy_only=False)
        if len(sn) and np.abs(sn.astype(np.float64) - fsn).max() \
                > float(1 << 62):
            raise ValueError("grouped_concentration: simpson_num "
                             "wrapped (exceeds 2^63)")
        n = batch.column("n").to_numpy(zero_copy_only=False)
        if len(n) and n.max() >= (1 << 31):
            raise ValueError("grouped_concentration: a group exceeds "
                             "2^31 rows — n*n would overflow int64")
        simpson = sn.astype(np.float64) / (n * n).astype(np.float64)
        return pa.table({group: batch.column(group),
                         "n": batch.column("n"),
                         "n_cats": batch.column("n_cats"),
                         "simpson_num": batch.column("simpson_num"),
                         "simpson": pa.array(simpson, pa.float64())})

    return merged.map_batches(finish, batch_format="pyarrow",
                              zero_copy_batch=True)


def grouped_extrema(ds, keys: list[str], cols: dict,
                    batch_size: int = 65536):
    """groupby(keys) with MIN/MAX payloads: ``cols`` maps
    ``out_name -> (in_col, "min"|"max")``. The same map-side combine and
    ``exchange.by_key`` merge as :func:`grouped_sums` (min-of-mins /
    max-of-maxes is the same two-level decomposition SUM uses, so raw
    rows never shuffle). The
    first-seen / last-seen curation primitive (per-user MIN(ts),
    per-key MAX(version)). NULL values skip per SQL MIN/MAX (an all-NULL
    group emits NULL); NULL keys one group; -0.0/0.0 keys merge.

    No jsschema analogue (it validates one value at a time, the
    reference's validator/validator.go:57); this extends the §2.C
    column-statistics surface to grouped form."""
    for out, (c, fn) in cols.items():
        if fn not in ("min", "max"):
            raise ValueError(f"grouped_extrema: {out} wants {fn!r}; "
                             "only min/max")
    return _combined(ds, keys, cols, batch_size)


def pareto_front(ds, x: str, y: str, batch_size: int = 262144):
    """2-D skyline (Pareto frontier, minimize both): the distinct
    ``(x, y)`` points no other row dominates — ``o`` dominates ``q``
    when ``o.x <= q.x AND o.y <= q.y`` and at least one is strict —
    plus ``n`` = how many rows sit exactly on each frontier point. The
    "no other config is both smaller AND cheaper" audit; SQL mirror is
    the quadratic NOT EXISTS anti-join, this runs in two linear passes.
    Contract: x and y integer-exact (cents-scale floats upstream);
    NULL x/y rows drop (SQL WHERE IS NOT NULL on both).

    Scale shape: (1) raw rows collapse to distinct (x, y) pair counts
    (grouped_sums — map-side combine, one hash shuffle of pairs);
    (2) per-x minimum y via top_n_with_ties ascending (batch
    pre-trim, one co-partition); (3) the O(distinct x) per-x-min table
    range-sorts by x and the frontier test (y strictly below every
    smaller-x minimum) finishes with the value_cdf block-prefix shape:
    one (first_x, min_y) partial per sorted BLOCK, a driver fold over
    O(blocks) rows into exclusive prefix minima, and a per-block seeded
    minimum.accumulate filter. The driver never sees value rows. No
    jsschema analogue (single-value validator,
    /root/reference/validator/validator.go:57)."""
    import numpy as np

    def drop_nulls(b: pa.Table) -> pa.Table:
        return b.select([x, y]).drop_null()

    pairs = grouped_sums(
        ds.map_batches(drop_nulls, batch_format="pyarrow",
                       batch_size=batch_size, zero_copy_batch=True),
        keys=[x, y], sum_cols={}, count_alias="n", batch_size=batch_size)
    mins = top_n_with_ties(pairs, group=x, value=y, n=1, ascending=True,
                           batch_size=batch_size).drop_columns(["rnk"])
    srt = mins.sort(x).materialize()

    def block_partial(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return pa.table({"first": pa.array([], t.schema.field(x).type),
                             "ymin": pa.array([], pa.int64())})
        yv = t.column(y).to_numpy(zero_copy_only=False)
        return pa.table({"first": t.column(x).slice(0, 1),
                         "ymin": pa.array([int(yv.min())], pa.int64())})

    parts = srt.map_batches(
        block_partial, batch_format="pyarrow", batch_size=None).take_all()
    parts.sort(key=lambda r: r["first"])
    ymins = np.array([r["ymin"] for r in parts], dtype=np.int64)
    # exclusive prefix min per block (block 0 sees +inf = keep first x)
    excl = np.empty(len(ymins), dtype=np.float64)
    if len(ymins):
        excl[0] = np.inf
        np.minimum.accumulate(ymins[:-1].astype(np.float64), out=excl[1:])
    base_by_first = {r["first"]: excl[i] for i, r in enumerate(parts)}

    def finish(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            return t
        base = base_by_first[t.column(x)[0].as_py()]
        yv = t.column(y).to_numpy(zero_copy_only=False).astype(np.float64)
        # running min of STRICTLY SMALLER x minima: shift by one, seed
        # with the block's exclusive base (x unique per row here)
        prev = np.empty(len(yv))
        prev[0] = base
        np.minimum.accumulate(yv[:-1], out=prev[1:])
        np.minimum(prev[1:], base, out=prev[1:])
        return t.filter(pa.array(yv < prev))

    return srt.map_batches(finish, batch_format="pyarrow",
                           batch_size=None, zero_copy_batch=True)

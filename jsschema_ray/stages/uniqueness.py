"""Global uniqueness constraint: a key column's value may appear exactly
once across the whole dataset; violation rows = ALL rows of any duplicated
key (SURVEY.md §2.C; reference analogue is row-local uniqueItems only,
test/arrayunique*.json — the global form is new, BASELINE axes A+B).

Scale design (SURVEY.md §7 hard part 3 — Zipf-skewed phash):
  1. per-block pre-aggregation: `pc.value_counts` inside map_batches emits
     (key, partial_count) pairs — a hot key leaves each block as ONE row no
     matter how many times it appears there, so the exchanged payload is
     O(distinct keys per block), not O(rows); this is the skew-salting
     effect without explicit salts (the block is the salt). ``_precount``
     splits them by key bucket (``partition_ids``) into one packed blob
     per (bucket, key column) part;
  2. each part is reduced by ONE vectorized Arrow group_by (``_dup_counts``,
     not a per-key Ray aggregate). ``duplicate_keys_multi`` brings a part's
     blobs together with the keyed exchange of stages/exchange.py
     (``by_part``). The validation pipeline needs no shuffle: its scan runs
     ``_precount`` on each shard and writes the blobs back to back
     into one file under ``precount/``, and its reduce reads each part's
     reported byte ranges in at most ``exchange.fanout`` tasks (one per
     cluster CPU);
  3. keys with total > 1 come back as (key, dup_count) tables, from which
     the report counts duplicated keys and rows — the raw rows never cross
     the exchange.

The wide `bytes` column never enters the shuffle: step 1 projects to the
key column only (SURVEY.md §7 hard part 4).
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from jsschema_ray.stages import exchange
from jsschema_ray.stages.exchange import (PART, by_part, pack, pack_parts,
                                          partition_ids, unpack)
from jsschema_ray.state.hll import normalize_zeros


def _precount(columns: list[str], num_buckets: int):
    """Map-side pre-count of the uniqueness exchange: per key column, the
    batch's ``pc.value_counts`` split by key bucket and packed into ONE
    Arrow IPC blob per (column, bucket), so the all-to-all exchange moves
    O(batches × buckets × columns) rows instead of O(distinct keys) — Ray's
    shuffle cost is per-row, and a mostly-unique key column would otherwise
    ship every key as its own row (measured 8.5s -> ~2s on 4M unique keys).
    ``__part`` is ``bucket * len(columns) + column index``."""

    def fn(batch: pa.Table) -> pa.Table:
        out = []
        for ci, column in enumerate(columns):
            # -0.0/+0.0 float keys must count as ONE key (SQL GROUP BY
            # merges them; value_counts hashes them apart)
            vc = pc.value_counts(
                normalize_zeros(batch.column(column).combine_chunks()))
            tbl = pa.table({"key": vc.field("values"),
                            "partial_count": vc.field("counts").cast(
                                pa.int64())})
            packed = pack_parts(tbl, partition_ids(tbl, ["key"], num_buckets),
                                num_buckets)
            bucket = packed.column(PART).to_numpy()
            out.append(pa.table({
                PART: pa.array(bucket * len(columns) + ci, type=pa.int32()),
                "col_idx": pa.array(np.full(len(bucket), ci, np.int32)),
                "blob": packed.column("blob")}))
        return pa.concat_tables(out)

    return fn


def _dup_counts(blobs: list[bytes]) -> pa.Table:
    """(key, dup_count) for the keys of one part, given as its packed
    ``_precount`` blobs, whose summed partial count exceeds 1. Arrow-native
    (r5 fix): a pandas groupby promoted an int64 key to float64 whenever
    the part held a NULL key (value_counts emits null as a countable
    value), collapsing distinct large ints; pyarrow group_by keeps exact
    dtypes and groups nulls together."""
    tbl = pa.concat_tables(unpack(b) for b in blobs)
    tot = tbl.group_by("key").aggregate([("partial_count", "sum")])
    dup = tot.filter(pc.greater(tot.column("partial_count_sum"), 1))
    return pa.table({"key": dup.column("key"),
                     "dup_count": dup.column("partial_count_sum")})


def _no_dups(column: str, key_type: pa.DataType) -> pa.Table:
    """The empty (column, dup_count) table."""
    return pa.table({column: pa.array([], type=key_type),
                     "dup_count": pa.array([], type=pa.int64())})


def _key_type(ds, column: str) -> pa.DataType:
    """``column``'s type from ``ds.schema()``, which may run a probe
    execution on a lazy Dataset."""
    sch = ds.schema()
    return dict(zip(sch.names, sch.types))[column]


def _top(dup: pa.Table, column: str, k: int) -> pa.Table:
    """The first ``k`` duplicate keys by dup_count descending, then key
    ascending, null key last — a total order, so the cut is deterministic
    across runs."""
    return dup.sort_by(
        [("dup_count", "descending"), (column, "ascending")]).slice(0, k)


def duplicate_keys(ds, column: str, batch_size: int = 262144):
    """Dataset of (column, dup_count) for keys appearing more than once.

    Reduce strategy: per-batch partial counts are packed per bucket
    (_precount), and each bucket reduces with one vectorized group_by —
    never a per-key Ray aggregate (order-of-magnitude slower, measured).
    There are ``exchange.fanout()`` buckets, one reduce per cluster CPU."""
    partials = ds.select_columns([column]).map_batches(
        _precount([column], exchange.fanout()), batch_format="pyarrow",
        batch_size=batch_size, zero_copy_batch=True,
    )

    def reduce_bucket(g: pa.Table) -> pa.Table:
        return _dup_counts(g.column("blob").to_pylist()).rename_columns(
            [column, "dup_count"])

    return by_part(partials, reduce_bucket)


def duplicate_keys_multi(ds, columns: list[str], batch_size: int = 262144
                         ) -> dict[str, pa.Table]:
    """duplicate_keys for several key columns in ONE pass and ONE shuffle:
    each column's partial counts are packed per (column, bucket) and the
    bucket reduce handles all columns — halves the fixed all-to-all cost
    when a schema checks uniqueness on multiple keys (image_id + phash)."""
    partials = ds.select_columns(columns).map_batches(
        _precount(columns, exchange.fanout()), batch_format="pyarrow",
        batch_size=batch_size, zero_copy_batch=True,
    )

    def reduce_bucket(g: pa.Table) -> pa.Table:
        # RE-PACKED as one IPC blob: different columns carry different key
        # TYPES (string image_id vs int64 phash), so typed `key` blocks
        # from different buckets cannot unify into one Dataset schema —
        # the blob keeps each column's exact type opaque to the block layer
        dup = _dup_counts(g.column("blob").to_pylist())
        return pa.table(
            {
                "col_idx": g.column("col_idx").slice(0, 1),
                "blob": pa.array([pack(dup)], type=pa.binary()),
            }
        )

    return dup_tables(by_part(partials, reduce_bucket).take_all(), columns,
                      lambda column: _key_type(ds, column))


def dup_tables(rows: list[dict], columns: list[str],
               key_type) -> dict[str, pa.Table]:
    """The (column, dup_count) table of each key column from the collected
    reduce rows (``col_idx``, ``blob``), each blob one part's packed
    ``_dup_counts``. A column no part reduced (an input without rows) gets
    an empty table typed ``key_type(column)``."""
    out: dict[str, pa.Table] = {}
    for ci, column in enumerate(columns):
        tabs = [unpack(r["blob"]) for r in rows if r["col_idx"] == ci]
        if not tabs:
            out[column] = _no_dups(column, key_type(column))
            continue
        merged = pa.concat_tables(tabs)
        out[column] = pa.table(
            {column: merged.column("key"),
             "dup_count": merged.column("dup_count").cast(pa.int64())})
    return out


def uniqueness_reports(ds, columns: list[str], batch_size: int = 65536
                       ) -> dict[str, dict[str, Any]]:
    """Summary numbers for the manifest, per key column, from one read and
    one exchange (duplicate_keys_multi) over ``ds``; see ``reports``."""
    return reports(duplicate_keys_multi(ds, columns, batch_size))


def reports(dups: dict[str, pa.Table]) -> dict[str, dict[str, Any]]:
    """Per key column of ``dups`` (``dup_tables``' result): distinct
    duplicated keys, total violating rows and, when there are duplicates,
    the top-10 keys in ``_top``'s total order (dup_count descending,
    then key ascending, null keys last)."""
    out = {}
    for column, dup in dups.items():
        rep: dict[str, Any] = {
            "column": column,
            "dup_keys": dup.num_rows,
            "dup_rows": int(pc.sum(dup.column("dup_count")).as_py() or 0),
        }
        if dup.num_rows:
            rep["top_duplicates"] = _top(dup, column, 10).to_pylist()
        out[column] = rep
    return out


def distinct_rows(ds, columns: Optional[list[str]] = None,
                  batch_size: int = 262144):
    """SQL ``SELECT DISTINCT`` over ``columns`` (default: all columns) —
    the set-op companion to duplicate_keys (r3 §2.D completion).

    Scale shape: map-side `drop_duplicates` PRE-TRIM per batch (the
    shuffle then moves at most batches × distinct-per-batch rows, the
    block-is-the-salt pattern), hash co-partition on a combined rolling
    key hash, and ONE vectorized drop_duplicates per partition. Float
    columns are signed-zero-normalized first so -0.0/+0.0 collapse to one
    row with a +0.0 output, matching DuckDB DISTINCT; NaNs merge to one
    row on both sides (pandas and SQL agree)."""

    n_parts = exchange.fanout()

    def dedup(t: pa.Table) -> pa.Table:
        return pa.Table.from_pandas(t.to_pandas().drop_duplicates(),
                                    preserve_index=False, schema=t.schema)

    def pretrim(batch: pa.Table) -> pa.Table:
        return _keyed_partials(batch, columns or batch.column_names,
                               "distinct_rows", n_parts, dedup)

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates()

    return by_part(ds.map_batches(
        pretrim, batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True,
    ), finish, batch_format="pandas")


def _keyed_partials(batch: pa.Table, sel: list[str], what: str,
                    n: int, collapse) -> pa.Table:
    """Map side shared by distinct_rows and the set ops: project ``sel``
    (primitive columns only), signed-zero-normalize float columns so
    -0.0/+0.0 are one row, ``collapse`` the batch to its distinct rows (or
    row counts) and append ``__part`` (one of ``n``) over the ``sel``
    columns, so equal rows from any batch or input co-locate."""
    out = batch.select(sel)
    for c in sel:
        t = out.schema.field(c).type
        if pa.types.is_nested(t):
            raise ValueError(
                f"{what} supports primitive columns only; {c!r} is {t} — "
                "hash or serialize nested values first")
        col = out.column(c).combine_chunks()
        norm = normalize_zeros(col)
        if norm is not col:
            out = out.set_column(out.column_names.index(c), c, norm)
    out = collapse(out)
    return out.append_column(
        PART, pa.array(partition_ids(out, sel, n)))


def candidate_keys(ds, combos: list[list[str]],
                   batch_size: int = 262144):
    """UNIQUE-KEY candidacy profile (the key-discovery scan of classic
    data-profiling systems — Metanome/HyUCC lineage, public literature):
    for each candidate column combination, the exact distinct-combination
    count versus the table row count, and whether the combo is a key.
    One output row per combo:

        (combo utf8, n_rows int64, n_distinct int64, is_key bool)

    where ``combo`` is the comma-joined column list. NULLs compare equal
    inside DISTINCT (Arrow group_by and SQL SELECT DISTINCT agree), so a
    combo with duplicated NULL tuples is correctly NOT a key. All counts
    are exact int64 — bit-equal to the SQL mirror by construction.

    Scale shape: each combo runs as its own distributed aggregate —
    distinct_rows (map-side drop_duplicates pre-trim, ONE hash
    co-partition of the pre-trimmed tuples, per-partition dedup) counted
    without materializing rows to the driver, plus one metadata-cheap
    ds.count(). The driver-side loop is over the COMBO LIST (plan-level,
    bounded by the caller), never over data rows. Returns a pandas
    DataFrame (|combos| rows — a report, not a dataset)."""
    import pandas as pd

    n_rows = ds.count()
    out = []
    for combo in combos:
        nd = distinct_rows(ds, list(combo), batch_size=batch_size).count()
        out.append((",".join(combo), n_rows, nd, nd == n_rows))
    return pd.DataFrame(out, columns=["combo", "n_rows", "n_distinct",
                                      "is_key"]).sort_values("combo") \
        .reset_index(drop=True)


def group_size_histogram(ds, key_cols: list[str],
                         batch_size: int = 262144):
    """KEY-CARDINALITY degree distribution (the hot-key / skew
    detector): how many distinct keys have exactly k rows — the
    histogram every shuffle-planning decision wants BEFORE picking a
    partitioning key (a heavy tail here predicts a straggler reducer at
    100 TB; the repo's join salting and bucket strategies key off it).
    Output one row per observed group size:

        (group_size int64, n_keys int64)

    Pure int64 counts — engine == SQL mirror (GROUP BY key → COUNT(*),
    then GROUP BY that count) bit-equal. NULL keys form ONE group (SQL
    GROUP BY semantics; Arrow group_by agrees).

    Scale shape: stage 1 is the ONLY wide op — per-key counts via
    map-side-combined grouped_sums (each batch collapses to its
    distinct keys first, so the shuffle carries distinct-per-batch
    partials, never raw rows); stage 2 re-aggregates the O(keys) count
    table by count VALUE — output is O(distinct sizes), tiny by
    construction. No driver-side data loop."""
    from jsschema_ray.stages.aggregates import grouped_sums

    per_key = grouped_sums(ds.select_columns(list(key_cols)),
                           list(key_cols), {}, count_alias="__n",
                           batch_size=batch_size)
    out = grouped_sums(per_key.select_columns(["__n"]), ["__n"], {},
                       count_alias="n_keys", batch_size=batch_size)

    def rename(t: pa.Table) -> pa.Table:
        return t.rename_columns(
            ["group_size" if c == "__n" else c for c in t.column_names])

    return out.map_batches(rename, batch_format="pyarrow",
                           batch_size=batch_size)


def _run_setop(left, right, how: str, columns, right_columns,
               batch_size: int):
    """Shared engine for SQL EXCEPT / INTERSECT (DISTINCT) and EXCEPT ALL /
    INTERSECT ALL (BAG semantics: output multiplicity = max(0, count_left −
    count_right) / min(count_left, count_right)). Each side is tagged and
    pre-trimmed map-side to its distinct rows — or, for the bag ops, to
    (row → count) partials — with an Arrow group_by, which keeps exact
    dtypes and treats nulls as equal (r3 fix: a pandas round-trip turned
    nullable int64 into float64 before the co-partition hash). Equal rows
    from BOTH inputs co-locate in one partition, where one vectorized
    pandas merge finishes (pandas matches NULL/NaN keys to each other, the
    SQL set-op duplicate-elimination semantics; bag ops REPEAT surviving
    rows to their multiplicity with np.repeat, no Python loop)."""
    if right_columns is not None and columns is None:
        raise ValueError(
            "right_columns requires explicit left columns (the output "
            "schema) so the right side can be renamed onto it"
        )
    bag = how.endswith("_all")
    n_parts = exchange.fanout()

    def collapse(t: pa.Table) -> pa.Table:
        if not bag:
            return t.group_by(t.column_names).aggregate([])
        g = t.group_by(t.column_names).aggregate([([], "count_all")])
        return g.rename_columns(
            ["__n" if c == "count_all" else c for c in g.column_names])

    def tagged(ds, side: int, sel_override):
        def pretrim(batch: pa.Table) -> pa.Table:
            sel = sel_override or columns or batch.column_names
            out = _keyed_partials(batch, sel, f"{how}_rows", n_parts,
                                  collapse)
            # RIGHT side aligns to the left's output column names so the
            # union and per-partition merge see one schema
            if sel_override is not None and columns is not None:
                ren = dict(zip(sel_override, columns))
                out = out.rename_columns(
                    [ren.get(c, c) for c in out.column_names])
            return out.append_column(
                "__side", pa.array(np.full(len(out), side, dtype=np.int8)))

        return ds.map_batches(pretrim, batch_format="pyarrow",
                              batch_size=batch_size, zero_copy_batch=True)

    def finish(t: pa.Table) -> pa.Table:
        # ArrowDtype-backed pandas (r5 fix): the plain pandas conversion
        # promotes an int64 column to float64 whenever THIS partition
        # holds a null — large ints then collapse (2^60 and 2^60+1 are
        # float-equal) both inside the merge and in the OUTPUT block.
        # ArrowDtype keeps exact int64 + NA while pandas merge still
        # matches NA keys to each other (the set-op NULL semantics).
        g = t.to_pandas(types_mapper=pd.ArrowDtype)
        sel = [c for c in g.columns if c not in ("__side", "__n")]
        left_rows, right_rows = g[g["__side"] == 0], g[g["__side"] == 1]
        if bag:
            lf = (left_rows.groupby(sel, dropna=False, sort=False,
                                    as_index=False)["__n"].sum()
                  .rename(columns={"__n": "__nl"}))
            rf = (right_rows.groupby(sel, dropna=False, sort=False,
                                     as_index=False)["__n"].sum()
                  .rename(columns={"__n": "__nr"}))
            m = lf.merge(rf, on=sel, how="left")
            nr = m["__nr"].fillna(0).to_numpy(dtype=np.int64)
            nl = m["__nl"].to_numpy(dtype=np.int64)
            k = (np.minimum(nl, nr) if how == "intersect_all"
                 else np.maximum(nl - nr, 0))
            out = m.loc[np.repeat(m.index.to_numpy(), k)][sel].reset_index(
                drop=True)
        else:
            lf = left_rows[sel].drop_duplicates()
            rf = right_rows[sel].drop_duplicates()
            if how == "intersect":
                out = lf.merge(rf, on=sel, how="inner")
            else:
                m = lf.merge(rf, on=sel, how="left", indicator=True)
                out = m[m["_merge"] == "left_only"][sel]
        # strip the pandas metadata: it would reconstruct ArrowDtype
        # columns (<NA> instead of None) on the consumer's to_pandas
        return pa.Table.from_pandas(
            out[sel], preserve_index=False).replace_schema_metadata(None)

    return by_part(tagged(left, 0, None).union(
        tagged(right, 1, right_columns)), finish)


def except_all_rows(left, right, columns: Optional[list[str]] = None,
                    right_columns: Optional[list[str]] = None,
                    batch_size: int = 262144):
    """SQL ``EXCEPT ALL`` (bag difference): each row of ``left`` survives
    max(0, left_count − right_count) times. See _run_setop for the
    distribution shape."""
    return _run_setop(left, right, "except_all", columns, right_columns,
                      batch_size)


def intersect_all_rows(left, right, columns: Optional[list[str]] = None,
                       right_columns: Optional[list[str]] = None,
                       batch_size: int = 262144):
    """SQL ``INTERSECT ALL`` (bag intersection): each row appears
    min(left_count, right_count) times; same shape as except_all_rows."""
    return _run_setop(left, right, "intersect_all", columns,
                      right_columns, batch_size)


def except_rows(left, right, columns: Optional[list[str]] = None,
                right_columns: Optional[list[str]] = None,
                batch_size: int = 262144):
    """SQL ``EXCEPT`` (set difference with DISTINCT output): the distinct
    rows of ``left`` (projected to ``columns``) that do not appear in
    ``right`` (projected to ``right_columns``, default the same names).
    NULLs compare equal, floats signed-zero-normalized — DuckDB parity.

    Scale shape: both sides pre-trim map-side to per-batch distinct rows,
    co-partition on the same combined key hash, one merge per partition —
    the shuffle carries at most distinct rows, never the raw inputs."""
    return _run_setop(left, right, "except", columns, right_columns,
                      batch_size)


def intersect_rows(left, right, columns: Optional[list[str]] = None,
                   right_columns: Optional[list[str]] = None,
                   batch_size: int = 262144):
    """SQL ``INTERSECT`` (DISTINCT rows present in BOTH inputs); same
    distribution and NULL/zero semantics as except_rows."""
    return _run_setop(left, right, "intersect", columns, right_columns,
                      batch_size)

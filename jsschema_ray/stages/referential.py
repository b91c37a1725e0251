"""Referential-integrity constraint: FK column values must be contained in
a reference key set (SURVEY.md §2.C; no reference-repo analogue — $ref
lookup there is compile-time, schema.go:204-269).

Design: broadcast semi-join. The reference key set (a dimension table
column or a literal list from the schema's ``x-referential`` entry) is
deduplicated ONCE — per-batch `unique` partials unioned on the driver, no
shuffle — then `ray.put` once and read in every task's state; membership is
a vectorized `pc.is_in` per batch. This is the right join strategy whenever
the ref side fits a worker heap (dimension tables, codec lists, vocab).
For a genuinely large ref side, the documented fallback is the partitioned
hash anti-join (bucket both sides on hash(key) % B and anti-join per
bucket); not needed for any BASELINE constraint, where ref sides are small.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import pyarrow as pa
import pyarrow.compute as pc

import ray

from jsschema_ray.stages.exchange import by_key


def _ref_key_array(ref, ref_column: Optional[str], batch_size: int) -> pa.Array:
    if isinstance(ref, (list, tuple)):
        return pa.array(list(dict.fromkeys(ref)))
    if isinstance(ref, (pa.Array, pa.ChunkedArray)):
        from jsschema_ray.state.hll import normalize_zeros

        return pc.unique(normalize_zeros(
            ref if isinstance(ref, pa.Array) else ref.combine_chunks()))
    # ray Dataset: per-batch unique partials, union on the driver (the ref
    # side is small by contract; no all-to-all `unique` shuffle needed)
    assert ref_column is not None, "ref_column required for a Dataset ref side"
    parts = ref.select_columns([ref_column]).map_batches(
        lambda t: pa.table(
            {ref_column: pc.unique(t.column(ref_column).combine_chunks())}
        ),
        batch_format="pyarrow", batch_size=batch_size, zero_copy_batch=True,
    )
    merged = pa.concat_tables(
        parts.iter_batches(batch_size=batch_size, batch_format="pyarrow")
    )
    from jsschema_ray.state.hll import normalize_zeros

    return pc.unique(
        normalize_zeros(merged.column(ref_column).combine_chunks()))


def referential_violations(
    ds,
    column: str,
    ref: Union["ray.data.Dataset", Sequence, pa.Array],
    ref_column: Optional[str] = None,
    keep_columns: Optional[list[str]] = None,
    allow_null: bool = True,
    batch_size: int = 65536,
    strategy: str = "auto",
    max_broadcast_keys: int = 5_000_000,
):
    """Rows whose ``column`` value is NOT in the reference key set.
    ``strategy='auto'`` (default, VERDICT r2 item #4): a Dataset ref side
    is counted (row count — a conservative upper bound on its distinct
    keys, computed distributed); at or under ``max_broadcast_keys`` the
    broadcast path runs, beyond it the op switches to 'shuffle'
    automatically. Non-Dataset refs (sequence / Arrow array) are already
    driver-side and always broadcast.
    ``strategy='broadcast'``: anti-semi-join via broadcast + is_in — right
    whenever the deduped ref keys fit a worker heap.
    ``strategy='shuffle'``: partitioned hash ANTI-join (stages/join.py) for
    a genuinely large ref side — both sides bucket on hash(key), nothing
    is ever collected to the driver. Nulls pass by default (absent ≡ null,
    kernels/columnar.py)."""
    if strategy not in ("auto", "broadcast", "shuffle"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "auto":
        import ray.data as rd

        if isinstance(ref, rd.Dataset) and ref_column is not None:
            # project + materialize ONCE: the count and the chosen path
            # (broadcast key-collect or shuffle join) then reuse the same
            # blocks instead of re-executing the ref-side lineage
            ref = ref.select_columns([ref_column]).materialize()
            strategy = ("shuffle" if ref.count() > max_broadcast_keys
                        else "broadcast")
        else:
            strategy = "broadcast"
    if strategy == "shuffle":
        import ray.data as rd

        from jsschema_ray.stages.join import hash_join

        if not isinstance(ref, rd.Dataset) or ref_column is None:
            raise ValueError(
                "strategy='shuffle' needs a Dataset ref side + ref_column"
            )
        proj = keep_columns or [c for c in ds.columns() if c != "bytes"]
        if column not in proj:
            proj = proj + [column]
        out = hash_join(
            ds.select_columns(proj),
            ref.select_columns([ref_column]),
            key=column, right_key=ref_column, how="anti",
            batch_size=batch_size,
        )
        # Acero anti: null keys never match, so they surface as violations;
        # under allow_null they must pass instead
        if allow_null:
            def drop_nulls(batch: pa.Table) -> pa.Table:
                return batch.filter(
                    batch.column(column).combine_chunks().is_valid()
                )

            out = out.map_batches(drop_nulls, batch_format="pyarrow",
                                  zero_copy_batch=True)
        return out
    if strategy != "broadcast":
        raise ValueError(f"unknown strategy {strategy!r}")
    keys = _ref_key_array(ref, ref_column, batch_size)
    key_ref = ray.put(keys)
    proj = keep_columns or [c for c in ds.columns() if c != "bytes"]

    def anti_join(batch: pa.Table) -> pa.Table:
        # stateless task: ray.get on a shared object is a zero-copy plasma
        # read, so there is no per-actor state worth a pool spin-up, and
        # tasks scale to every core instead of a fixed pool of 8
        from jsschema_ray.state.hll import normalize_zeros

        keys = ray.get(key_ref)
        col = normalize_zeros(batch.column(column).combine_chunks())
        hit = pc.is_in(col, value_set=keys)
        bad = pc.invert(pc.fill_null(hit, False))
        if allow_null:
            bad = pc.and_(bad, col.is_valid())
        else:
            bad = pc.or_(bad, col.is_null())
        return batch.filter(bad)

    return ds.select_columns(proj).map_batches(
        anti_join, batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True,
    )


def _miss_partial(col: pa.Array, keys: pa.Array) -> pa.Table:
    """One row: how many non-null values of ``col`` are missing from
    ``keys``, and up to 5 distinct missing values."""
    from jsschema_ray.state.hll import normalize_zeros

    col = normalize_zeros(col)
    hit = pc.is_in(col, value_set=keys)
    bad = pc.and_(pc.invert(pc.fill_null(hit, False)), col.is_valid())
    missing = pc.unique(col.filter(bad))
    return pa.table(
        {
            "n_bad": pa.array([pc.sum(bad).as_py() or 0], type=pa.int64()),
            "sample": pa.array(
                [missing.slice(0, 5).to_pylist()], type=pa.list_(col.type),
            ),
        }
    )


def _miss_report(column: str, parts: list[dict]) -> dict:
    """Fold ``_miss_partial`` rows: the total count and the 10 smallest
    of their distinct missing values, whatever order the rows came in."""
    sample = sorted({v for p in parts for v in p["sample"]})[:10]
    return {
        "column": column,
        "n_violations": int(sum(p["n_bad"] for p in parts)),
        "missing_sample": sample,
    }


def functional_dependency(ds, det_col: str, dep_col: str,
                          batch_size: int = 262144):
    """FUNCTIONAL-DEPENDENCY violation check: does ``det_col`` determine
    ``dep_col``? The classic data-profiling / key-candidate constraint
    (one source -> one lang? one order -> one customer?) the reference's
    single-value model cannot express (it sees one document at a time —
    /root/reference/validator/validator.go:57; extends SURVEY §2.C
    referential/uniqueness to the cross-row dependency form).

    Output: ONE row per VIOLATING determinant value —
    (det_col, n_rows int64, n_distinct_dep int64) with
    n_distinct_dep > 1 — exactly SQL's

        GROUP BY det HAVING COUNT(DISTINCT dep) > 1

    semantics: n_rows counts ALL the determinant's rows (COUNT(*),
    null-dep rows included), n_distinct_dep counts distinct NON-NULL
    dependent values (COUNT(DISTINCT dep) ignores NULL), a NULL
    determinant forms ONE group (SQL GROUP BY). All counts int64-exact,
    so the DuckDB mirror hashes bit-equal.

    Scale shape: each batch collapses to (det, dep, cnt) partials with
    one Arrow group_by (map-side combine — the grouped_count_distinct
    pre-trim carrying counts), partials hash(det)-co-partition (the ONLY
    shuffle; raw rows never move), and each partition finishes with two
    Arrow group_bys: merge cross-batch partials, then per det SUM(cnt)
    + COUNT(valid dep) — Arrow "count" counts valid values only, giving
    the distinct-pair count per det since pairs are already distinct."""

    def pre_trim(batch: pa.Table) -> pa.Table:
        g = batch.select([det_col, dep_col]).group_by(
            [det_col, dep_col]).aggregate([([], "count_all")])
        return g.rename_columns(
            ["cnt" if n == "count_all" else n for n in g.column_names])

    def per_partition(t: pa.Table) -> pa.Table:
        m = t.group_by([det_col, dep_col]).aggregate([("cnt", "sum")])
        out = m.group_by(det_col).aggregate(
            [("cnt_sum", "sum"), (dep_col, "count")])
        res = pa.table({
            det_col: out.column(det_col),
            "n_rows": pc.cast(out.column("cnt_sum_sum"), pa.int64()),
            "n_distinct_dep": pc.cast(out.column(f"{dep_col}_count"),
                                      pa.int64()),
        })
        return res.filter(pc.greater(res.column("n_distinct_dep"), 1))

    return by_key(ds.select_columns([det_col, dep_col]).map_batches(
        pre_trim, batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True,
    ), [det_col], per_partition)


def id_gaps(ds, col: str, batch_size: int = 262144):
    """SEQUENCE-COMPLETENESS check over an int64 id column: every maximal
    run of MISSING ids between the observed min and max of the DISTINCT
    id set — (gap_start, gap_end, n_missing), all int64-exact. The
    "which shards/orders never arrived?" audit of an ingest pipeline
    (extends SURVEY §2.C referential integrity to the dense-sequence
    form the single-value reference cannot express). NULL ids drop;
    duplicates collapse (gaps are a property of the distinct set); a
    non-integer column refuses loudly.

    SQL mirror (bit-equal — pure int64 arithmetic):

        WITH d AS (SELECT DISTINCT k FROM t WHERE k IS NOT NULL),
        g AS (SELECT k, LEAD(k) OVER (ORDER BY k) nx FROM d)
        SELECT k+1 AS gap_start, nx-1 AS gap_end, nx-k-1 AS n_missing
        FROM g WHERE nx > k+1

    Scale shape (the value_cdf distributed-finish recipe): batches
    pre-trim to distinct-id partials, merge through ONE hash(id)
    co-partition (only distinct ids ever shuffle), then ONE Dataset sort
    range-partitions the O(distinct) id table. Scan A sends one
    (first, last) row per sorted BLOCK to the driver — O(blocks), never
    id rows — which stitches CROSS-block gaps (consecutive non-empty
    blocks with last+1 < next.first; empty value ranges between blocks
    are inside those gaps by construction). Scan B finds INTRA-block
    gaps with one vectorized diff per block. Overflow guard: the global
    span max-min is checked in exact Python ints on the O(blocks) fold
    and RAISES if id arithmetic could wrap int64."""
    import numpy as np

    import ray.data as rd

    s = ds.schema()  # Ray Schema: parallel .names / .types (Arrow dtypes)
    col_type = dict(zip(s.names, s.types))[col]
    if not pa.types.is_integer(col_type):
        raise TypeError(
            f"id_gaps requires an integer id column, got "
            f"{col_type} for {col!r}")

    def pre_trim(batch: pa.Table) -> pa.Table:
        c = batch.column(col).combine_chunks().drop_null()
        return pa.table({col: pc.cast(c, pa.int64())}).group_by(
            [col]).aggregate([])

    def merge_part(t: pa.Table) -> pa.Table:
        return t.group_by([col]).aggregate([])

    sorted_ids = by_key(ds.select_columns([col]).map_batches(
        pre_trim, batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True,
    ), [col], merge_part).sort(col).materialize()

    def block_ends(t: pa.Table) -> pa.Table:
        if not t.num_rows:
            e = pa.array([], pa.int64())
            return pa.table({"first": e, "last": e})
        return pa.table({"first": t.column(col).slice(0, 1),
                         "last": t.column(col).slice(t.num_rows - 1, 1)})

    ends = sorted_ids.map_batches(
        block_ends, batch_format="pyarrow", batch_size=None).take_all()
    ends.sort(key=lambda r: r["first"])

    gap_schema = pa.schema([("gap_start", pa.int64()),
                            ("gap_end", pa.int64()),
                            ("n_missing", pa.int64())])
    if ends and (int(ends[-1]["last"]) - int(ends[0]["first"])
                 >= (1 << 63) - 1):
        raise ValueError(
            "id_gaps: id span max-min would overflow int64 gap "
            "arithmetic — split the id domain before auditing")

    # cross-block gaps from the O(blocks) driver fold (exact Python ints)
    bs, be, bn = [], [], []
    for prev, nxt in zip(ends, ends[1:]):
        lo, hi = int(prev["last"]), int(nxt["first"])
        if hi > lo + 1:
            bs.append(lo + 1)
            be.append(hi - 1)
            bn.append(hi - lo - 1)
    boundary = rd.from_arrow(pa.table(
        {"gap_start": pa.array(bs, pa.int64()),
         "gap_end": pa.array(be, pa.int64()),
         "n_missing": pa.array(bn, pa.int64())}, schema=gap_schema))

    def intra_gaps(t: pa.Table) -> pa.Table:
        v = t.column(col).to_numpy(zero_copy_only=False)
        if len(v) < 2:
            return gap_schema.empty_table()
        d = np.diff(v)
        idx = np.nonzero(d > 1)[0]
        return pa.table({"gap_start": pa.array(v[idx] + 1),
                         "gap_end": pa.array(v[idx + 1] - 1),
                         "n_missing": pa.array(d[idx] - 1)},
                        schema=gap_schema)

    intra = sorted_ids.map_batches(intra_gaps, batch_format="pyarrow",
                                   batch_size=None)
    return intra.union(boundary)


def reconcile_sums(detail, header, detail_key: str, header_key: str,
                   detail_col: str, header_col: str, scale: int = 100,
                   k: int = 20, batch_size: int = 262144):
    """Cross-table AGGREGATE reconciliation — the data-quality
    constraint referential integrity does NOT cover: does each header
    row's declared total equal the SUM of its detail rows (order total
    vs line sums, account balance vs ledger entries, shard manifest
    row-counts vs shards)? Returns the k WORST mismatches,

        (header_key, header_cents int64, detail_cents int64,
         diff_cents int64, abs_diff int64)

    ordered (abs_diff DESC, header_key ASC). Both sides scale to exact
    int64 at x``scale`` (round-half-away); headers with NO detail rows
    reconcile against 0 (SQL LEFT JOIN + COALESCE — they ARE mismatches
    unless the header total is 0); detail rows with no header are the
    referential_violations operator's finding, not this one's. NULL
    keys and NULL values drop on the side they appear (SQL join +
    aggregate semantics). All-int64 output hashes against the SQL
    mirror without tolerance. Guards: RAISE on |value*scale| >= 2^62
    per row, and a float-shadow check RAISES if a per-key int64 SUM
    wrapped (the grouped_moments recipe).

    Scale shape: detail rows collapse to per-key exact-cents partials
    map-side (grouped_sums — raw detail rows never
    shuffle), ONE partitioned hash join against the header keys, and
    the k-worst cut is the sort-free top_k_rows gather (<= k rows per
    batch cross the wire). No reference analogue (single-value
    validator, /root/reference/validator/validator.go:57); extends the
    §2.C referential-integrity family to aggregate consistency."""
    import numpy as np

    from jsschema_ray.stages.aggregates import grouped_sums
    from jsschema_ray.stages.join import hash_join
    from jsschema_ray.stages.stats import top_k_rows
    from jsschema_ray.stages.windows import round_half_away

    def cents(col_in: str, key_in: str, out: str, shadow: bool):
        def fn(b: pa.Table) -> pa.Table:
            b = b.select([key_in, col_in]).filter(
                pc.and_(pc.is_valid(b.column(key_in)),
                        pc.is_valid(b.column(col_in))))
            import numpy as _np
            v = _np.asarray(b.column(col_in).combine_chunks()
                            .to_numpy(zero_copy_only=False), _np.float64)
            c = round_half_away(v * scale)
            if len(c) and _np.abs(c).max() >= 2.0**62:
                raise ValueError(
                    f"reconcile_sums: |{col_in} * {scale}| reaches 2^62 "
                    "— the int64 cents round-trip would lose exactness")
            cols = {key_in: b.column(key_in),
                    out: pa.array(c.astype(_np.int64))}
            if shadow:
                cols["__shadow"] = pa.array(c)  # float64 wrap detector
            return pa.table(cols)
        return fn

    d_sums = grouped_sums(
        detail.select_columns([detail_key, detail_col]).map_batches(
            cents(detail_col, detail_key, "detail_cents", True),
            batch_format="pyarrow", batch_size=batch_size,
            zero_copy_batch=True),
        [detail_key], {"detail_cents": "detail_cents",
                       "__shadow": "__shadow"},
        count_alias=None)

    def wrap_check(b: pa.Table) -> pa.Table:
        ic = b.column("detail_cents").to_numpy(zero_copy_only=False)
        fc = b.column("__shadow").to_numpy(zero_copy_only=False)
        if len(ic) and np.any(
                np.abs(ic.astype(np.float64) - fc) > 2.0**62):
            raise ValueError(
                "reconcile_sums: a per-key int64 cents SUM wrapped "
                "(exceeds 2^63) — reduce scale or split the key domain")
        return b.drop_columns(["__shadow"])

    d_sums = d_sums.map_batches(wrap_check, batch_format="pyarrow",
                                zero_copy_batch=True)
    h = header.select_columns([header_key, header_col]).map_batches(
        cents(header_col, header_key, "header_cents", False),
        batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True)
    j = hash_join(h, d_sums, key=header_key, right_key=detail_key,
                  how="left")

    def finish(b: pa.Table) -> pa.Table:
        det = pc.coalesce(b.column("detail_cents"),
                          pa.scalar(0, pa.int64()))
        diff = pc.subtract(b.column("header_cents"), det)
        return pa.table({
            header_key: b.column(header_key),
            "header_cents": b.column("header_cents"),
            "detail_cents": det,
            "diff_cents": diff,
            "abs_diff": pc.abs(diff),
        })

    out = j.map_batches(finish, batch_format="pyarrow",
                        zero_copy_batch=True)
    return top_k_rows(out, value="abs_diff", tiebreak=header_key, k=k,
                      descending=True)

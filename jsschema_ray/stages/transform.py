"""Schema-driven transforms.

``apply_defaults`` gives the draft-04 ``default`` annotation (reference
interface.go:92, carried but never applied by the reference validator) a
runtime meaning useful in data pipelines: null cells of a column whose
property schema declares a default are filled with it — vectorized
`pc.fill_null` per batch, SQL-equivalent to COALESCE(col, default).
"""

from __future__ import annotations

from typing import Any

import pyarrow as pa
import pyarrow.compute as pc

from jsschema_ray.schema.compiler import compile_schema
from jsschema_ray.stages import exchange
from jsschema_ray.stages.exchange import PART, by_part, partition_ids


def apply_defaults(ds, schema: dict[str, Any], batch_size: int = 65536):
    """Fill nulls with per-column schema defaults (properties with a
    ``default`` keyword). Columns without defaults pass through untouched."""
    dag = compile_schema(schema)
    defaults = {
        name: sub.deref().default
        for name, sub in (dag.properties or {}).items()
        if sub.deref().has_default
    }

    def fn(batch: pa.Table) -> pa.Table:
        for name, value in defaults.items():
            if name not in batch.column_names:
                continue
            col = batch.column(name)
            if col.null_count == 0:
                continue
            idx = batch.column_names.index(name)
            batch = batch.set_column(
                idx, name, pc.fill_null(col, pa.scalar(value, col.type))
            )
        return batch

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=batch_size,
                          zero_copy_batch=True)


def unpivot(ds, id_cols: list[str], value_cols: list[str],
            var_name: str = "name", value_name: str = "value",
            batch_size: int = 65536):
    """Wide→long reshape (SQL UNPIVOT / pandas melt): one output row per
    (input row × value column), columns (id_cols..., var_name,
    value_name).  The inverse of aggregates.pivot_counts.  A pure
    per-batch stateless reshape — no shuffle, no state; output is
    value_cols× the input rows but streams block-by-block.  All value
    columns must share (or be castable to) a common Arrow type; the
    first value column's type wins, mirroring SQL UNPIVOT's
    common-supertype rule closely enough for homogeneous numerics."""
    import pyarrow as pa

    if not value_cols:
        raise ValueError("value_cols must be non-empty")
    overlap = set(id_cols) & set(value_cols)
    if overlap:
        raise ValueError(f"columns cannot be both id and value: {overlap}")

    def melt(batch: pa.Table) -> pa.Table:
        target = batch.column(value_cols[0]).type
        pieces = []
        for c in value_cols:
            v = batch.column(c).combine_chunks()
            if v.type != target:
                v = v.cast(target)
            pieces.append(pa.table(
                {k: batch.column(k) for k in id_cols}
                | {var_name: pa.array([c] * batch.num_rows),
                   value_name: v}
            ))
        return pa.concat_tables(pieces)

    return ds.select_columns(list(id_cols) + list(value_cols)).map_batches(
        melt, batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True,
    )


def unnest_list(ds, list_col: str, id_cols: list[str],
                pos_name: str = "pos", value_name: str = "value",
                batch_size: int = 65536):
    """List→rows explode (SQL UNNEST ... WITH ORDINALITY): one output row
    per list element, columns (id_cols..., pos_name 0-based int64,
    value_name = element). Completes the reshape family
    (pivot/unpivot/unnest); the embedding-component table this produces
    is the input shape for per-dimension stats/drift over vector
    columns. NULL lists and empty lists produce no rows (DuckDB UNNEST
    semantics); element NULLs pass through.

    Scale shape: a pure per-batch stateless reshape — the flattened
    values buffer is ZERO-COPY (`ListArray.flatten`), id columns
    replicate via one vectorized take on parent indices; no shuffle, no
    state, output streams block-by-block."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def explode(batch: pa.Table) -> pa.Table:
        col = batch.column(list_col).combine_chunks()
        # parent index per element + 0-based ordinality from offsets
        parents = pc.list_parent_indices(col)
        flat = col.flatten()
        import numpy as np

        par = parents.to_numpy(zero_copy_only=False)
        lengths = pc.list_value_length(col).fill_null(0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        starts = np.concatenate([[0], np.cumsum(lengths)])[:-1]
        pos = np.arange(len(par), dtype=np.int64) - starts[par]
        cols = {c: batch.column(c).take(parents) for c in id_cols}
        cols[pos_name] = pa.array(pos)
        cols[value_name] = flat
        return pa.table(cols)

    return ds.select_columns(
        list(dict.fromkeys(id_cols + [list_col]))
    ).map_batches(explode, batch_format="pyarrow", batch_size=batch_size,
                  zero_copy_batch=True)


def table_diff(ds_a, ds_b, key: str, compare_cols: list[str],
               batch_size: int = 65536):
    """Snapshot diff between two versions of a keyed table — the
    incremental-ingest regression audit (did yesterday's pipeline run
    add / drop / mutate rows it shouldn't have?): emits one
    ``(key, status)`` row per key whose row was ``added`` (only in B),
    ``removed`` (only in A) or ``changed`` (in both, any compare column
    differs under SQL ``IS DISTINCT FROM`` — NULL == NULL is
    unchanged); unchanged keys emit NOTHING, so output ∝ diff size,
    never table size. SQL mirror: FULL OUTER JOIN on the key filtered
    to the disagreement rows.

    Contract: ``key`` non-null and unique within each side (raised,
    not assumed — a duplicate key makes row identity ambiguous).

    Scale shape: both sides map to narrow (key + compare_cols + side)
    projections, union, ONE hash(key) co-partition; each partition
    aligns its two sides with ``pc.index_in`` (C-level hash join) and
    compares columns vectorized. Only the compare columns ever shuffle
    — diff a 100-column table on 3 audit columns and 97 columns never
    leave the scan. No jsschema analogue (single-value validator,
    /root/reference/validator/validator.go:57); extends §2.C
    referential/uniqueness auditing to cross-version form."""
    import numpy as np

    cols = [key] + list(compare_cols)
    n_parts = exchange.fanout()

    def tag(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            b = batch.select(cols)
            k = b.column(key).combine_chunks()
            if k.null_count:
                raise ValueError(f"table_diff: NULL {key} on side "
                                 f"{'B' if side else 'A'}")
            return b.append_column(PART, pa.array(
                partition_ids(b, [key], n_parts))) \
                    .append_column("__side", pa.array(
                        np.full(b.num_rows, side, dtype=np.int8)))
        return fn

    a = ds_a.map_batches(tag(0), batch_format="pyarrow",
                         batch_size=batch_size, zero_copy_batch=True)
    b = ds_b.map_batches(tag(1), batch_format="pyarrow",
                         batch_size=batch_size, zero_copy_batch=True)

    def classify(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        side = t.column("__side").to_numpy(zero_copy_only=False)
        ta = t.filter(pa.array(side == 0))
        tb = t.filter(pa.array(side == 1))
        ka, kb = ta.column(key).combine_chunks(), \
            tb.column(key).combine_chunks()
        # same key always lands in the same partition, so per-partition
        # distinctness IS global distinctness
        for nm, k_ in (("A", ka), ("B", kb)):
            if len(k_) and pc.count_distinct(k_).as_py() != len(k_):
                raise ValueError(f"table_diff: duplicate {key} on side {nm}")
        kt = ka.type
        out_keys, out_status = [], []
        # removed: A keys absent from B / added: B keys absent from A
        in_b = pc.index_in(ka, value_set=kb)
        in_a = pc.index_in(kb, value_set=ka)
        removed = ka.filter(in_b.is_null())
        added = kb.filter(in_a.is_null())
        # changed: matched A rows whose any compare col IS DISTINCT FROM
        # its B counterpart
        matched = in_b.is_valid()
        am = ta.filter(matched)
        bi = in_b.drop_null()
        diff = None
        for c in compare_cols:
            ca = am.column(c).combine_chunks()
            cb = tb.column(c).combine_chunks().take(bi)
            ne = pc.fill_null(pc.not_equal(ca, cb), False)
            nulldiff = pc.xor(ca.is_null(), cb.is_null())
            d = pc.or_(ne, nulldiff)
            diff = d if diff is None else pc.or_(diff, d)
        changed = am.column(key).combine_chunks().filter(diff) \
            if diff is not None else pa.array([], kt)
        for arr, st in ((added, "added"), (removed, "removed"),
                        (changed, "changed")):
            out_keys.append(arr.cast(kt))
            out_status.append(pa.array([st] * len(arr), pa.string()))
        return pa.table({key: pa.concat_arrays(
            [a_.combine_chunks() if isinstance(a_, pa.ChunkedArray) else a_
             for a_ in out_keys]),
            "status": pa.concat_arrays(out_status)})

    return by_part(a.union(b), classify)


def upsert(base, updates, key: str, batch_size: int = 65536):
    """Keyed MERGE (upsert): every ``updates`` row wins its key; every
    ``base`` row whose key has NO update passes through — the
    incremental-ingest APPLY step (table_diff audits what changed;
    this produces the new version). Output rows = updates ∪ (base ⋉̸
    updates), exactly the SQL

        SELECT * FROM updates
        UNION ALL
        SELECT b.* FROM base b
        WHERE NOT EXISTS (SELECT 1 FROM updates u WHERE u.key = b.key)

    Contract: identical column sets on both sides (raised); ``key``
    non-null on both sides and UNIQUE within ``updates`` (raised — a
    duplicate update makes last-writer ambiguous; duplicate BASE keys
    are allowed and replaced/kept as a group). Row values are pure
    selection — no arithmetic — so per-row hashes match the mirror.

    Scale shape: both sides tag a side bit and hash(key) co-partition
    ONCE (a full merge inherently moves every row exactly once); each
    partition drops shadowed base rows with one C-level
    ``pc.index_in`` anti-probe against its update keys. No driver
    state, output streams. No reference analogue (single-value
    validator, /root/reference/validator/validator.go:57); completes
    the §2.C cross-version family (diff -> apply)."""
    import numpy as np

    # an all-empty side reports schema() None (Ray emits no blocks):
    # treat it as "no rows on that side" instead of crashing the check
    bs, us = base.schema(), updates.schema()
    base_cols = list(bs.names) if bs is not None else None
    upd_cols = list(us.names) if us is not None else None
    if base_cols is not None and upd_cols is not None \
            and set(base_cols) != set(upd_cols):
        raise ValueError(
            f"upsert: column sets differ — base {sorted(base_cols)} vs "
            f"updates {sorted(upd_cols)}")
    cols = base_cols if base_cols is not None else upd_cols
    if cols is None:
        return base  # both sides empty: nothing to merge
    n_parts = exchange.fanout()

    def tag(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            b = batch.select(cols)
            k = b.column(key).combine_chunks()
            if k.null_count:
                raise ValueError(
                    f"upsert: NULL {key} on side "
                    f"{'updates' if side else 'base'}")
            return b.append_column(PART, pa.array(
                partition_ids(b, [key], n_parts))) \
                    .append_column("__side", pa.array(
                        np.full(b.num_rows, side, dtype=np.int8)))
        return fn

    tagged = base.map_batches(
        tag(0), batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True,
    ).union(updates.map_batches(
        tag(1), batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True))

    def merge_part(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        side = t.column("__side").to_numpy(zero_copy_only=False)
        tb = t.filter(pa.array(side == 0)).drop_columns(["__side"])
        tu = t.filter(pa.array(side == 1)).drop_columns(["__side"])
        ku = tu.column(key).combine_chunks()
        # same key always lands in the same partition, so per-partition
        # distinctness IS global distinctness (the table_diff argument)
        if len(ku) and pc.count_distinct(ku).as_py() != len(ku):
            raise ValueError(f"upsert: duplicate {key} in updates")
        shadowed = pc.index_in(tb.column(key).combine_chunks(),
                               value_set=ku)
        keep = tb.filter(shadowed.is_null())
        return pa.concat_tables([tu, keep])

    return by_part(tagged, merge_part)

"""Join operators (SURVEY.md §2.D joins/lookups).

Two strategies, chosen by ref-side size (ray_guide 'Joins and lookups'):

* broadcast_join — the small side is collected once, `ray.put` once as an
  Arrow table, and joined into every batch with `pa.Table.join` (Acero
  hash join; zero pandas conversion). No shuffle; the right strategy for
  dimension tables (nation/region/customer-sized). Per-batch joins can only
  express 'inner' and 'left' semantics (a right/full-outer needs global
  knowledge of unmatched dimension rows) — other modes raise.
* hash_join — both sides large: tag both with the keyed exchange's
  partition id (stages/exchange.py, ``hash(key) % B``), co-shuffle the
  union with ONE ``by_part`` step, and join matching buckets pairwise
  with `pa.Table.join` (explicit partitioned hash join). Arrow keeps
  typed nulls through outer joins, so integer columns stay integer
  across buckets (no pandas float64 promotion).
  Supports inner / left / right / outer / semi / anti. B is
  ``exchange.fanout()``, asked once per join and used for both sides;
  skewed keys are salted with ``hot_keys``. Partitioning assumption: any
  single bucket's rows (both sides) fit a worker's heap.

SQL join semantics throughout: NULL keys never match (Acero's default),
unlike a pandas merge which pairs NaN keys.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa

import ray

from jsschema_ray.stages import exchange
from jsschema_ray.stages.exchange import PART, by_part, partition_ids
from jsschema_ray.state.hll import hash64, normalize_zeros


def _columns(ds) -> list:
    """Column names of ``ds``. `Dataset.columns()` returns None when the
    lazy schema is unknowable without execution (e.g. an Aggregate over a
    map_groups output); fall back to materializing ONE row — bounded work,
    and only on that rare path."""
    cols = ds.columns()
    if cols is None:
        sample = ds.limit(1).to_pandas()
        cols = list(sample.columns)
    return list(cols)


def _arrow_types(ds) -> dict:
    """{column: Arrow type} of ``ds``. A Ray schema may carry Python
    types (e.g. from_pandas datasets); then the exact Arrow types come
    from a one-row sample instead."""
    s = ds.schema()
    base = getattr(s, "base_schema", None)
    if isinstance(base, pa.Schema):
        return {f.name: f.type for f in base}
    out = dict(zip(s.names, s.types))
    if all(isinstance(t, pa.DataType) for t in out.values()):
        return out
    sample = pa.Table.from_pandas(ds.limit(1).to_pandas())
    return {f.name: f.type for f in sample.schema}


_JOIN_TYPE = {
    "inner": "inner",
    "left": "left outer",
    "right": "right outer",
    "outer": "full outer",
    "semi": "left semi",
    "anti": "left anti",
}


def _unified_key_type(lkt: pa.DataType, rkt: pa.DataType) -> pa.DataType:
    """Pick one key type both sides can be cast to before hashing/joining.

    hash64 of 99 (int) and 99.0 (float) differ, so mismatched key types
    would silently co-locate NOTHING; unify numerics, reject anything
    else loudly. int+int -> int64; int+float -> float64 (the cast itself
    is value-checked per batch by `_cast_key_column` — int64 keys above
    2^53 do not round-trip through float64 and would alias, silently
    joining wrong rows)."""
    if lkt == rkt:
        return lkt
    if pa.types.is_integer(lkt) and pa.types.is_integer(rkt):
        return pa.int64()
    if ((pa.types.is_integer(lkt) or pa.types.is_floating(lkt))
            and (pa.types.is_integer(rkt) or pa.types.is_floating(rkt))):
        return pa.float64()
    raise ValueError(
        f"join key types differ and are not both numeric: "
        f"{lkt} vs {rkt}; cast one side first"
    )


def _cast_key_column(kcol, key_type: pa.DataType):
    """Cast a join-key column to the unified type, REFUSING any cast that
    changes a value. An int->float64 cast aliases integers above 2^53
    (e.g. 2^53 and 2^53+1 both become 9007199254740992.0), which would
    silently join wrong rows — detect by round-tripping back to the
    integer type and comparing."""
    import pyarrow.compute as pc

    if kcol.type == key_type:
        return kcol
    if pa.types.is_integer(kcol.type) and pa.types.is_floating(key_type):
        try:
            # pyarrow's safe cast already range-checks |x| <= 2^53 for
            # int->float64; round-trip back as belt-and-braces
            casted = kcol.cast(key_type)
            back = casted.cast(kcol.type, safe=False)
            ok = pc.all(pc.fill_null(pc.equal(back, kcol), True)).as_py()
        except pa.ArrowInvalid:
            ok = False
        if ok is False:
            raise ValueError(
                f"join key column of type {kcol.type} holds values that do "
                f"not round-trip through {key_type} (magnitude > 2^53); a "
                f"float cast would alias distinct keys and join wrong rows. "
                f"Cast both sides to a common exact type (e.g. int64 or "
                f"string) before joining."
            )
        return casted
    return kcol.cast(key_type, safe=True)


def _to_arrow(obj) -> pa.Table:
    import pandas as pd
    import ray.data as rd

    if isinstance(obj, rd.Dataset):
        # small by contract: collect once on the driver
        ds_ref = obj
        obj = obj.to_pandas()
        if obj.shape[1] == 0:
            # an EMPTY Dataset round-trips through pandas as a zero-COLUMN
            # frame, which would blow up the key lookup downstream (seen
            # when a dimension filter matches nothing at tiny sf) — rebuild
            # the typed empty table from the Arrow schema. The schema
            # fetch (which may execute part of the plan) happens ONLY on
            # this empty path, never on the common non-empty one.
            sch = ds_ref.schema(fetch_if_missing=True)
            if sch is not None:
                return pa.table(
                    {n: pa.array([], type=t)
                     for n, t in zip(sch.names, sch.types)})
    if isinstance(obj, pd.DataFrame):
        return pa.Table.from_pandas(obj, preserve_index=False)
    return obj


def broadcast_join(ds, small, key, how: str = "inner",
                   batch_size: int = 65536, small_key=None):
    """Join a Dataset against a small pandas/arrow table (or small Dataset)
    by broadcasting the small side. ``key`` is a column name or a LIST of
    names (composite keys, matching hash_join's surface). ``how`` ∈
    {'inner', 'left', 'semi', 'anti'} — the modes a per-batch join can
    express exactly."""
    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError(
            f"broadcast_join supports how in ('inner','left','semi','anti'), "
            f"got {how!r}; a right/full-outer needs the partitioned hash_join"
        )
    keys = [key] if isinstance(key, str) else list(key)
    sks = (keys if small_key is None
           else ([small_key] if isinstance(small_key, str)
                 else list(small_key)))
    if len(keys) != len(sks):
        raise ValueError(
            f"key/small_key arity mismatch: {len(keys)} vs {len(sks)}"
        )
    small = _to_arrow(small)
    ren = dict(zip(sks, keys))
    if any(a != b for a, b in ren.items()):
        small = small.rename_columns(
            [ren.get(c, c) for c in small.column_names]
        )
    ref = ray.put(small.combine_chunks())
    join_type = _JOIN_TYPE[how]

    def fn(batch: pa.Table) -> pa.Table:
        sm = ray.get(ref)  # zero-copy from the object store
        for k in keys:
            bt = batch.schema.field(k).type
            st = sm.schema.field(k).type
            if bt != st:
                # mismatched key types never match in Acero; cast the small
                # side (safe cast: a lossy float->int raises instead of
                # silently truncating)
                i = sm.column_names.index(k)
                sm = sm.set_column(i, k, sm.column(k).cast(bt, safe=True))
            bcol = batch.column(k).combine_chunks()
            nb = normalize_zeros(bcol)
            if nb is not bcol:  # float key: -0.0 == +0.0 per SQL, but
                batch = batch.set_column(  # Acero hashes them apart
                    batch.column_names.index(k), k, nb)
                i = sm.column_names.index(k)
                sm = sm.set_column(
                    i, k, normalize_zeros(sm.column(k).combine_chunks()))
        return batch.join(sm, keys=keys, join_type=join_type)

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=batch_size,
                          zero_copy_batch=True)


def asof_join(left, right, key: str, ts: str, how: str = "left",
              direction: str = "backward", batch_size: int = 65536,
              right_key: Optional[str] = None,
              right_ts: Optional[str] = None,
              tolerance=None,
              right_agg: Optional[dict] = None):
    """As-of (temporal) join: for every left row, attach the right row of
    the same ``key`` with the greatest ``ts`` <= left ts (direction
    'backward'; 'forward' = smallest >= left ts). The operator Ray Data
    lacks, composed as bucket co-shuffle on hash(key) + ONE vectorized
    `pandas.merge_asof` per bucket.

    Partitioning assumptions (documented per driver instruction): one
    bucket's rows (both sides) fit a worker's heap — the bucket count is
    ``exchange.fanout()``, which grows with the cluster; right-side
    (key, ts) pairs must be unique (dedupe/aggregate first, or pass
    ``right_agg`` — e.g. {'price': 'max'} — to aggregate duplicates per
    (key, ts) INSIDE the bucket body, correct because a bucket holds
    every row of its keys, saving the caller a whole groupby shuffle) or
    the matched row among equal timestamps is undefined. ``how``: 'left'
    keeps unmatched left rows with typed nulls; 'inner' drops them."""
    if how not in ("left", "inner"):
        raise ValueError("asof_join supports how in ('left','inner')")
    rk = right_key or key
    rts = right_ts or ts
    lcols = _columns(left)
    rcols_raw = _columns(right)
    for name, side_cols, side in ((key, lcols, "left"), (ts, lcols, "left"),
                                  (rk, rcols_raw, "right"),
                                  (rts, rcols_raw, "right")):
        if name not in side_cols:
            raise ValueError(f"asof column {name!r} not in {side} columns")
    rcols = [key if c == rk else (ts if c == rts else c)
             for c in rcols_raw]
    overlap = (set(lcols) & set(rcols)) - {key, ts}
    if overlap:
        raise ValueError(
            f"non-key column names must be disjoint, overlapping: {overlap}"
        )
    r_payload = [c for c in rcols if c not in (key, ts)]
    all_cols = lcols + r_payload
    union_cols = all_cols

    ltypes, rtypes = _arrow_types(left), _arrow_types(right)
    # unify key AND ts dtypes across sides: hash64(1) != hash64(1.0), so an
    # int64 left key against a float64 right key would co-locate nothing
    # and how='left' would silently return all-null payloads; mismatched
    # ts dtypes likewise break merge_asof inside the bucket
    key_type = _unified_key_type(ltypes[key], rtypes[rk])
    ts_type = _unified_key_type(ltypes[ts], rtypes[rts])
    col_types = dict(ltypes)
    for name, t in rtypes.items():
        col_types[key if name == rk else (ts if name == rts else name)] = t
    col_types[key] = key_type
    col_types[ts] = ts_type
    n = exchange.fanout()

    def tag(side: int, key_name: str, ts_name: str):
        def fn(batch: pa.Table) -> pa.Table:
            out = batch.rename_columns(
                [key if c == key_name else (ts if c == ts_name else c)
                 for c in batch.column_names]
            )
            for cname, ctype in ((key, key_type), (ts, ts_type)):
                ccol = out.column(cname).combine_chunks()
                if ccol.type != ctype:
                    ccol = _cast_key_column(ccol, ctype)
                ccol = normalize_zeros(ccol)  # -0.0 keys bucket as +0.0
                out = out.set_column(
                    out.column_names.index(cname), cname, ccol
                )
            bucket = partition_ids(out, [key], n)
            for c in union_cols:
                if c not in out.column_names:
                    out = out.append_column(
                        c, pa.nulls(len(out), type=col_types[c])
                    )
            out = out.select(union_cols)
            return out.append_column(
                PART, pa.array(bucket)
            ).append_column(
                "__side", pa.array(np.full(len(batch), side, dtype=np.int8))
            )

        return fn

    tagged = left.map_batches(tag(0, key, ts), batch_format="pyarrow",
                              batch_size=batch_size).union(
        right.map_batches(tag(1, rk, rts), batch_format="pyarrow",
                          batch_size=batch_size)
    )

    import pandas as pd

    # every integer column goes out as pandas nullable Int64: the padded
    # union already promoted them to float64 in the pandas view, and per-
    # bucket presence/absence of nulls must not change the block schema
    int_cols = [c for c in all_cols if pa.types.is_integer(col_types[c])]

    def join_bucket(g: pd.DataFrame) -> pd.DataFrame:
        l = g.loc[g["__side"] == 0, lcols].sort_values(ts, kind="stable")
        r = g.loc[g["__side"] == 1, [key, ts] + r_payload]
        if right_agg:
            r = r.groupby([key, ts], sort=False).agg(right_agg).reset_index()
        r = r.sort_values(ts, kind="stable")
        r = r.assign(__rmatch=np.int8(1))
        if l.empty:
            out = pd.DataFrame(
                {c: pd.Series([], dtype=g[c].dtype) for c in all_cols}
            ).assign(__rmatch=pd.Series([], dtype="float64"))
        else:
            out = pd.merge_asof(l, r, on=ts, by=key, direction=direction,
                                tolerance=tolerance)
        if how == "inner":
            out = out[out["__rmatch"].notna()]
        out = out[all_cols].copy()
        for c in int_cols:
            out[c] = out[c].astype("Int64")
        return out

    return by_part(tagged, join_bucket, batch_format="pandas")


def range_join(left, right, value: str, lo: str, hi: str,
               bin_width: float, batch_size: int = 65536):
    """Interval-containment join: one output row per (left row, right
    interval) with ``lo <= left[value] < hi``. Ray Data has no inequality
    join; this composes one as a BIN co-shuffle — left rows land in the bin
    of their value, right intervals are replicated into every bin they
    overlap, and each bin does one vectorized containment pass. A left row
    lives in exactly one bin, so replicated intervals can never produce
    duplicate matches.

    Partitioning assumptions (documented per driver instruction): pick
    ``bin_width`` near the typical interval length — the replication factor
    is ceil((hi-lo)/bin_width)+1 per interval; one bin's rows fit a worker
    (intervals per bin × left rows per bin is the per-bin work)."""
    import pandas as pd

    lcols = _columns(left)
    rcols = _columns(right)
    overlap = set(lcols) & set(rcols)
    if overlap:
        raise ValueError(f"column names must be disjoint, overlapping: {overlap}")
    all_cols = lcols + rcols

    col_types = {**_arrow_types(left), **_arrow_types(right)}

    def tag_left(batch: pa.Table) -> pa.Table:
        v = batch.column(value).to_numpy(zero_copy_only=False)
        b = np.floor(v / bin_width).astype(np.int64)
        out = batch
        for c in rcols:
            out = out.append_column(c, pa.nulls(len(out), col_types[c]))
        return out.select(all_cols).append_column(
            PART, pa.array(b)
        ).append_column(
            "__side", pa.array(np.zeros(len(batch), dtype=np.int8))
        )

    def tag_right(batch: pa.Table) -> pa.Table:
        lo_v = batch.column(lo).to_numpy(zero_copy_only=False)
        hi_v = batch.column(hi).to_numpy(zero_copy_only=False)
        b0 = np.floor(lo_v / bin_width).astype(np.int64)
        b1 = np.floor(np.nextafter(hi_v, -np.inf) / bin_width).astype(np.int64)
        reps = np.maximum(b1 - b0 + 1, 1).astype(np.int64)
        idx = np.repeat(np.arange(len(batch)), reps)
        # bin sequence per interval: b0[i] .. b1[i]
        offs = np.arange(int(reps.sum())) - np.repeat(
            np.cumsum(reps) - reps, reps
        )
        bins = np.repeat(b0, reps) + offs
        out = batch.take(pa.array(idx))
        for c in lcols:
            out = out.append_column(c, pa.nulls(len(out), col_types[c]))
        return out.select(all_cols).append_column(
            PART, pa.array(bins)
        ).append_column(
            "__side", pa.array(np.ones(len(out), dtype=np.int8))
        )

    tagged = left.map_batches(tag_left, batch_format="pyarrow",
                              batch_size=batch_size).union(
        right.map_batches(tag_right, batch_format="pyarrow",
                          batch_size=batch_size)
    )

    int_cols = [c for c in all_cols if pa.types.is_integer(col_types[c])]

    def join_bin(g: pd.DataFrame) -> pd.DataFrame:
        l = g.loc[g["__side"] == 0, lcols]
        r = g.loc[g["__side"] == 1, rcols]
        outs = []
        if not l.empty and not r.empty:
            v = l[value].to_numpy()
            lo_v = r[lo].to_numpy()
            hi_v = r[hi].to_numpy()
            # containment matrix on the (small) per-bin cross product
            m = (v[:, None] >= lo_v[None, :]) & (v[:, None] < hi_v[None, :])
            li, ri = np.nonzero(m)
            outs.append(pd.concat(
                [l.iloc[li].reset_index(drop=True),
                 r.iloc[ri].reset_index(drop=True)], axis=1
            ))
        out = (pd.concat(outs, ignore_index=True) if outs
               else pd.DataFrame({c: pd.Series([], dtype=g[c].dtype)
                                  for c in all_cols}))
        for c in int_cols:  # padded-union promotion -> restore typed ints
            out[c] = out[c].astype("Int64")
        return out

    # one exchange partition per value bin
    return by_part(tagged, join_bin, batch_format="pandas")


def hash_join(left, right, key, how: str = "inner", batch_size: int = 65536,
              right_key=None, hot_keys=None, salt: int = 8):
    """Partitioned hash join of two Datasets on ``key`` (a column name or a
    LIST of names — composite keys bucket on a combined rolling hash and
    join on the full column list): bucket both sides, union, one shuffle,
    per-bucket `pa.Table.join`.

    EXPLICIT SKEW SALTING (north_rule): pass ``hot_keys`` (values of the
    FIRST key column identified by a heavy-hitter pass, e.g.
    `stages/stats.top_k_exact`) to spread each hot key over ``salt``
    of the ``exchange.fanout()`` buckets (fewer if there are fewer) —
    left hot rows are striped round-robin across the salt range (each
    row to exactly ONE salted bucket) while right hot rows are
    REPLICATED into every salted bucket, so every left row still meets
    every right row of its key exactly once. Exact for 'inner'/'left'
    (the replication factor is salt × hot right rows — keep hot_keys to
    the true heavy hitters); 'right'/'outer'/'semi'/'anti' would emit the
    replicated right rows multiple times and are refused with hot_keys."""
    if how not in _JOIN_TYPE:
        raise ValueError(f"unknown join how={how!r}; one of {list(_JOIN_TYPE)}")
    if hot_keys is not None and how not in ("inner", "left"):
        raise ValueError(
            "hot-key salting replicates right rows, which is only exact "
            "for how in ('inner','left')"
        )
    keys = [key] if isinstance(key, str) else list(key)
    rks = (keys if right_key is None
           else ([right_key] if isinstance(right_key, str)
                 else list(right_key)))
    if len(keys) != len(rks):
        raise ValueError(
            f"key/right_key arity mismatch: {len(keys)} vs {len(rks)}"
        )
    lcols = _columns(left)
    rcols_raw = _columns(right)
    for k in keys:
        if k not in lcols:
            raise ValueError(f"join key {k!r} not in left columns {lcols}")
    for k in rks:
        if k not in rcols_raw:
            raise ValueError(f"join key {k!r} not in right columns {rcols_raw}")
    ren = dict(zip(rks, keys))
    rcols = [ren.get(c, c) for c in rcols_raw]
    overlap = (set(lcols) & set(rcols)) - set(keys)
    if overlap:
        raise ValueError(
            f"non-key column names must be disjoint, overlapping: {overlap}"
        )
    if how in ("semi", "anti"):
        all_cols = lcols
    else:
        all_cols = lcols + [c for c in rcols if c not in keys]

    ltypes, rtypes = _arrow_types(left), _arrow_types(right)
    key_types = {k: _unified_key_type(ltypes[k], rtypes[rk_])
                 for k, rk_ in zip(keys, rks)}
    col_types = dict(ltypes)
    for name, t in rtypes.items():
        col_types[ren.get(name, name)] = t
    col_types.update(key_types)
    union_cols = lcols + [c for c in rcols if c not in keys]

    hot_arr = None
    n = exchange.fanout()
    # salt offsets past the bucket count would wrap onto a bucket twice
    # and meet a replicated right row twice
    salt = min(salt, n)
    if hot_keys is not None:
        hot_arr = normalize_zeros(
            pa.array(list(hot_keys)).cast(key_types[keys[0]])
        )

    def tag(side: int, colnames: list[str]):
        def fn(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            out = batch
            rmap = dict(zip(colnames, keys))
            if rmap and any(a != b for a, b in rmap.items()):
                out = out.rename_columns(
                    [rmap.get(c, c) for c in out.column_names]
                )
            for k in keys:
                kcol = out.column(k).combine_chunks()
                if kcol.type != key_types[k]:
                    kcol = _cast_key_column(kcol, key_types[k])
                    out = out.set_column(out.column_names.index(k), k, kcol)
                norm = normalize_zeros(kcol)
                if norm is not kcol:  # float key: -0.0/+0.0 must bucket
                    kcol = norm       # AND Acero-join as one key
                    out = out.set_column(out.column_names.index(k), k, kcol)
            bucket = partition_ids(out, keys, n)
            if hot_arr is not None and len(out):
                hot = pc.fill_null(
                    pc.is_in(out.column(keys[0]).combine_chunks(),
                             value_set=hot_arr), False
                ).to_numpy(zero_copy_only=False)
                if side == 0:
                    # stripe left hot rows round-robin over the salt range
                    salt_idx = np.where(hot, np.arange(len(out)) % salt, 0)
                else:
                    # replicate right hot rows into EVERY salted bucket
                    rep = np.where(hot, salt, 1).astype(np.int64)
                    take = np.repeat(np.arange(len(out)), rep)
                    out = out.take(pa.array(take))
                    bucket = bucket[take]
                    salt_idx = (np.arange(int(rep.sum()))
                                - np.repeat(np.cumsum(rep) - rep, rep))
                # the salt offsets the key's own bucket
                bucket = ((bucket + salt_idx) % n).astype(np.int32)
            # pad to the combined schema (typed nulls) so union is clean
            for c in union_cols:
                if c not in out.column_names:
                    out = out.append_column(
                        c, pa.nulls(len(out), type=col_types[c])
                    )
            out = out.select(union_cols)
            return out.append_column(
                PART, pa.array(bucket)
            ).append_column(
                "__side", pa.array(np.full(len(out), side, dtype=np.int8))
            )

        return fn

    tagged = left.map_batches(tag(0, keys), batch_format="pyarrow",
                              batch_size=batch_size).union(
        right.map_batches(tag(1, rks), batch_format="pyarrow",
                          batch_size=batch_size)
    )

    join_type = _JOIN_TYPE[how]

    def join_bucket(g: pa.Table) -> pa.Table:
        side = g.column("__side")
        import pyarrow.compute as pc

        l = g.filter(pc.equal(side, 0)).select(lcols)
        r = g.filter(pc.equal(side, 1)).select(rcols)
        # Acero hash join: typed nulls survive outer joins, so per-bucket
        # output schemas are identical regardless of which side was empty
        # (the round-1 pandas path could emit int64 in one bucket and
        # float64 in another for how='left'/'outer')
        out = l.join(r, keys=keys, join_type=join_type,
                     coalesce_keys=True)
        return out.select(all_cols).combine_chunks()

    return by_part(tagged, join_bucket)


def _bloom_hash_cast(col):
    """Unify integer widths to int64 before hashing: pandas' hash_array
    hashes by the value's UNSIGNED bit view at its own width, so int32 -1
    and int64 -1 hash differently — a narrow-vs-wide key pairing across
    the build/probe sides would silently false-negative. uint64 stays
    (cannot cast to int64 losslessly); pairing uint64 with signed keys is
    rejected by hash_join's unifier downstream anyway."""
    if pa.types.is_integer(col.type) and col.type != pa.uint64():
        return col.cast(pa.int64())
    return col


def build_bloom_bits(keys_ds, key: str, num_bits: int = 1 << 23,
                     num_hashes: int = 4, batch_size: int = 262144):
    """Build a Bloom-filter bitmap over ``keys_ds[key]`` and return it as
    an object-store handle (``ray.put`` of the packed uint64 word array)
    plus the (num_bits, num_hashes) params — the broadcast side of
    :func:`bloom_semi_join`.

    Bit positions use double hashing (Kirsch–Mitzenmacher, public
    literature): pos_i = (h1 + i*h2) mod m with h1 = hash64(key) and an
    odd h2 derived from its high bits — no false negatives by
    construction since the probe side applies the identical function.

    Scale shape: each batch folds to ONE fixed-size partial bitmap
    (num_bits/8 bytes, independent of row count); the driver OR-folds
    the O(batches) partials into one accumulator word array (bounded:
    batches × m/8 bytes TRANSFERRED but only m/8 HELD) and ships it to
    the object store once. NULL keys set no bits (SQL semi joins never
    match NULL)."""
    if num_bits < 64 or num_bits & (num_bits - 1):
        raise ValueError(f"num_bits must be a power of two >= 64, "
                         f"got {num_bits}")
    if not 1 <= num_hashes <= 16:
        raise ValueError(f"num_hashes must be in [1, 16], got {num_hashes}")
    n_words = num_bits // 64

    def partial_bitmap(batch: pa.Table) -> pa.Table:
        col = _bloom_hash_cast(normalize_zeros(
            batch.column(key).combine_chunks().drop_null()))
        words = np.zeros(n_words, dtype=np.uint64)
        if len(col):
            h1 = hash64(col)
            h2 = ((h1 >> np.uint64(33)) | np.uint64(1))
            for i in range(num_hashes):
                pos = (h1 + np.uint64(i) * h2) % np.uint64(num_bits)
                np.bitwise_or.at(words, (pos >> np.uint64(6)).astype(np.int64),
                                 np.uint64(1) << (pos & np.uint64(63)))
        return pa.table({"blob": pa.array([words.tobytes()], pa.binary())})

    acc = np.zeros(n_words, dtype=np.uint64)
    parts = keys_ds.select_columns([key]).map_batches(
        partial_bitmap, batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True,
    )
    for b in parts.iter_batches(batch_format="pyarrow"):
        for blob in b.column("blob").to_pylist():
            np.bitwise_or(acc, np.frombuffer(blob, dtype=np.uint64),
                          out=acc)
    return ray.put(acc)


class BloomProbe:
    """Actor-pool batch filter: keep rows whose ``key`` MIGHT be in the
    Bloom bitmap (all num_hashes bits set). The bitmap is fetched from
    the object store ONCE per actor in ``__init__`` (zero-copy numpy view
    over shared memory), never per batch."""

    def __init__(self, bits_ref, key: str, num_bits: int, num_hashes: int):
        self.words = ray.get(bits_ref)
        self.key = key
        self.num_bits = num_bits
        self.num_hashes = num_hashes

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = normalize_zeros(batch.column(self.key).combine_chunks())
        valid = col.is_valid().to_numpy(zero_copy_only=False)
        hit = np.zeros(len(col), dtype=bool)
        # hash ONLY the valid slice: hashing the full column would send an
        # int64-with-nulls column through pandas as float64, diverging
        # from the null-free build side's int64 hashes (false negatives)
        vals = _bloom_hash_cast(col.drop_null())
        if len(vals):
            h1 = hash64(vals)
            h2 = ((h1 >> np.uint64(33)) | np.uint64(1))
            sub = np.ones(len(vals), dtype=bool)
            for i in range(self.num_hashes):
                pos = (h1 + np.uint64(i) * h2) % np.uint64(self.num_bits)
                w = self.words[(pos >> np.uint64(6)).astype(np.int64)]
                sub &= (w >> (pos & np.uint64(63))) & np.uint64(1) != 0
            hit[valid] = sub
        return batch.filter(pa.array(hit))


def bloom_semi_join(left, right, key, right_key=None,
                    num_bits: int = 1 << 23, num_hashes: int = 4,
                    concurrency=None,
                    batch_size: int = 65536):
    """EXACT semi join (``WHERE key IN (SELECT right_key FROM right)``)
    with a Bloom-filter pre-filter: the shuffle-volume reduction for the
    100 TB regime where the right key set is too big to broadcast raw
    (hash_join would shuffle EVERY left row) but its bitmap fits any
    worker (num_bits/8 bytes — 1 MiB default vs ~8 bytes/key raw).

    Exactness does NOT rest on the filter: Bloom has no false negatives
    (identical double-hash family on both sides), so the pre-filter only
    DROPS guaranteed-non-matching rows; survivors (matches + the
    (1-e^(-kn/m))^k false-positive sliver) go through the partitioned
    hash_join 'semi' for exact verification. Left columns pass through
    unchanged; left NULL keys never match (SQL IN semantics).

    Scale shape: one fixed-size bitmap broadcast (ray.put once, read once
    per actor), one map-side filter, and the only all-to-all carries the
    pre-filtered survivors — shuffle volume scales with the MATCH rate,
    not the left row count."""
    if not isinstance(key, str) or (right_key is not None
                                    and not isinstance(right_key, str)):
        raise ValueError("bloom_semi_join takes a single key column; "
                         "use hash_join(how='semi') for composite keys")
    bits_ref = build_bloom_bits(right, right_key or key,
                                num_bits=num_bits, num_hashes=num_hashes)
    candidates = left.map_batches(
        BloomProbe, batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True,
        concurrency=concurrency or (1, 8),
        fn_constructor_kwargs={
            "bits_ref": bits_ref, "key": key,
            "num_bits": num_bits, "num_hashes": num_hashes,
        },
    )
    return hash_join(candidates, right, key, right_key=right_key,
                     how="semi", batch_size=batch_size)


def join_cardinality(left, right, key, right_key=None,
                     batch_size: int = 262144):
    """EXACT pre-join fan-out audit — the 100 TB pre-flight every
    equi-join should run before committing to a shuffle: how many rows
    will ``left JOIN right ON key`` emit, and which key dominates?
    Output ONE row:

        (n_left int64, n_right int64, n_join_rows int64,
         n_join_keys int64, top_key, top_key_rows int64)

    where n_join_rows = SUM over matched keys of |L_k| * |R_k| (the
    exact inner-join cardinality), n_join_keys counts matched keys,
    top_key is the matched key with the LARGEST product (smallest key
    wins ties — deterministic) and n_left/n_right count the non-null
    key rows on each side. NULL keys drop (SQL equi-join semantics).
    All int64; a per-key product guard (|L_k|*|R_k| < 2^62) and a
    float-shadow check on the global SUM both RAISE — if this audit
    overflows int64, the join it predicts is a >9e18-row explosion and
    refusing loudly IS the answer.

    Scale shape: each side collapses to per-key COUNT partials
    map-side (grouped_sums — raw rows never shuffle), the
    two O(keys) count tables meet in ONE partitioned hash join, each
    join bucket folds to a width-5 partial (its argmax rides along),
    and the driver-free finish is one single-block fold of O(parts)
    partials. The side totals fold O(batches) single-int rows. No
    reference analogue (single-value validator,
    /root/reference/validator/validator.go:57); the audit side of this
    module's explicit-skew contract (hash_join hot_keys salting)."""
    import numpy as np
    import pyarrow.compute as pc

    from jsschema_ray.stages.aggregates import grouped_sums

    rk = right_key or key

    def drop_null(col):
        def fn(b: pa.Table) -> pa.Table:
            return b.filter(pc.is_valid(b.column(col)))
        return fn

    lc = grouped_sums(
        left.select_columns([key]).map_batches(
            drop_null(key), batch_format="pyarrow",
            batch_size=batch_size, zero_copy_batch=True),
        [key], {}, count_alias="__lc", batch_size=batch_size)
    rc = grouped_sums(
        right.select_columns([rk]).map_batches(
            drop_null(rk), batch_format="pyarrow",
            batch_size=batch_size, zero_copy_batch=True),
        [rk], {}, count_alias="__rc", batch_size=batch_size)
    matched = hash_join(lc, rc, key=key, right_key=rk)

    def bucket_partial(b: pa.Table) -> pa.Table:
        empty = pa.table({
            "n_join_rows": pa.array([], pa.int64()),
            "__shadow": pa.array([], pa.float64()),
            "n_join_keys": pa.array([], pa.int64()),
            "top_key": b.column(key).slice(0, 0),
            "top_key_rows": pa.array([], pa.int64()),
        })
        if not b.num_rows:
            return empty
        l = b.column("__lc").to_numpy(zero_copy_only=False)
        r = b.column("__rc").to_numpy(zero_copy_only=False)
        if float(l.max()) * float(r.max()) >= 2.0**62:
            raise ValueError(
                "join_cardinality: a single key's |L|*|R| reaches 2^62 "
                "rows — the join this audit predicts is unrunnable")
        prod = l * r
        # deterministic per-bucket argmax: largest product first, then
        # smallest key (pyarrow sort handles any key type)
        cand = pa.table({"k": b.column(key), "p": pa.array(prod)})
        top = cand.sort_by([("p", "descending"), ("k", "ascending")]) \
                  .slice(0, 1)
        return pa.table({
            "n_join_rows": pa.array([int(prod.sum())], pa.int64()),
            "__shadow": pa.array(
                [float(prod.astype(np.float64).sum())], pa.float64()),
            "n_join_keys": pa.array([len(prod)], pa.int64()),
            "top_key": top.column("k"),
            "top_key_rows": top.column("p"),
        })

    parts = matched.map_batches(bucket_partial, batch_format="pyarrow",
                                batch_size=None, zero_copy_batch=True)

    def count_rows(ds, col) -> int:
        def cnt(b: pa.Table) -> pa.Table:
            k = b.column(col)
            return pa.table({"n": pa.array(
                [len(k) - k.null_count], pa.int64())})
        partials = ds.select_columns([col]).map_batches(
            cnt, batch_format="pyarrow", batch_size=batch_size,
            zero_copy_batch=True).take_all()   # O(batches) int rows
        return sum(r["n"] for r in partials)

    n_left = count_rows(left, key)
    n_right = count_rows(right, rk)

    # the fold sees only O(parts) width-5 partial rows — the bounded
    # driver-fold shape (value_cdf / pareto_front precedent); a no-match
    # join yields zero partial blocks, which a lazy map finish would
    # never see, so the single summary row is assembled here
    import ray.data as _rd

    rows = parts.take_all()
    tot = sum(int(r["n_join_rows"]) for r in rows)
    shadow = sum(float(r["__shadow"]) for r in rows)
    if abs(tot - shadow) > 2.0**62:
        raise ValueError(
            "join_cardinality: the global join-row SUM wrapped "
            "int64 — the predicted join exceeds 9.2e18 rows")
    keys_n = sum(int(r["n_join_keys"]) for r in rows)
    if rows:
        best = min(rows, key=lambda r: (-int(r["top_key_rows"]),
                                        r["top_key"]))
        top_key, top_rows = best["top_key"], int(best["top_key_rows"])
    else:
        top_key, top_rows = None, 0
    # schema-stable even in the no-match case: type the (possibly null)
    # top_key column from the left side's key field
    _ls = left.schema()
    _key_type = (_ls.base_schema.field(key).type
                 if _ls is not None and hasattr(_ls, "base_schema")
                 else pa.null())
    return _rd.from_arrow(pa.table({
        "n_left": pa.array([n_left], pa.int64()),
        "n_right": pa.array([n_right], pa.int64()),
        "n_join_rows": pa.array([tot], pa.int64()),
        "n_join_keys": pa.array([keys_n], pa.int64()),
        "top_key": pa.array([top_key], type=_key_type),
        "top_key_rows": pa.array([top_rows], pa.int64()),
    }))


def _band_rows(eqv: np.ndarray, vx: np.ndarray, ks: pa.ChunkedArray,
               side: int, eps_x: int, n: int) -> pa.Table:
    """Exchange rows of the band joins. A row's bucket is
    floor(vx / eps_x); a left lands once in its own bucket and a right is
    replicated to the 3 adjacent buckets, so any pair within eps_x meets
    in exactly one bucket (the left's). The partition is the keyed
    exchange's id of (eq, bucket)."""
    bucket = vx // eps_x
    if side == 1:
        take = np.tile(np.arange(len(vx)), 3)
        bucket = np.concatenate([bucket - 1, bucket, bucket + 1])
        eqv, vx, ks = eqv[take], vx[take], ks.take(pa.array(take))
    out = pa.table({
        "eq": pa.array(eqv), "__bucket": pa.array(bucket),
        "side": pa.array(np.full(len(vx), side, dtype=np.int8)),
        "k": ks, "vx": pa.array(vx),
    })
    return out.append_column(PART, pa.array(
        partition_ids(out, ["eq", "__bucket"], n)))


def _band_emit(eps_x: int, how: str, keyed: bool):
    """Per-partition body of the band joins: each (eq, bucket) segment
    answers its lefts with two searchsorted lookups against its sorted
    rights. 'inner' emits (eq, key_l, key_r, diff_x) per pair within
    eps_x, without eq unless ``keyed``; 'anti' emits (key_l, value_x) per
    left with no right in the band."""
    import pandas as pd

    def emit(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["eq", "__bucket", "side", "vx"], kind="stable")
        eqv = g["eq"].to_numpy()
        bk = g["__bucket"].to_numpy()
        side = g["side"].to_numpy()
        ks = g["k"].to_numpy()
        vx = g["vx"].to_numpy()
        chg = (bk[1:] != bk[:-1]) | (eqv[1:] != eqv[:-1])
        seg = np.flatnonzero(np.concatenate([[True], chg]))
        ends = np.concatenate([seg[1:], [len(bk)]])
        out = ({"key_l": [], "value_x": []} if how == "anti" else
               {"eq": [], "key_l": [], "key_r": [], "diff_x": []})
        for st, en in zip(seg, ends):
            nl = int((side[st:en] == 0).sum())
            if nl == 0:
                continue
            lv, lk = vx[st:st + nl], ks[st:st + nl]
            rv, rk = vx[st + nl:en], ks[st + nl:en]  # sorted by vx
            lo = np.searchsorted(rv, lv - eps_x, side="left")
            hi = np.searchsorted(rv, lv + eps_x, side="right")
            cnt = hi - lo
            if how == "anti":
                miss = cnt == 0
                out["key_l"].append(lk[miss])
                out["value_x"].append(lv[miss])
                continue
            tot = int(cnt.sum())
            if tot == 0:
                continue
            li = np.repeat(np.arange(nl), cnt)
            ri = np.concatenate(
                [np.arange(a, b) for a, b in zip(lo, hi) if b > a])
            out["eq"].append(np.full(tot, eqv[st], dtype=np.int64))
            out["key_l"].append(lk[li])
            out["key_r"].append(rk[ri])
            out["diff_x"].append(lv[li] - rv[ri])
        if not keyed:
            out.pop("eq", None)
        return pd.DataFrame({c: np.concatenate(v) if v
                             else np.empty(0, np.int64)
                             for c, v in out.items()})

    return emit


def band_join(left, right, key: str, value: str, right_key: str,
              right_value: str, eps_x: int, scale: int = 100,
              batch_size: int = 65536, how: str = "inner"):
    """Numeric-tolerance pair join: every (left, right) row pair with
    ``|left.value - right.value| <= eps`` — the band/epsilon join of
    entity resolution and sensor alignment (match records whose amounts
    agree within tolerance), a THETA join neither hash_join (equality)
    nor range_join (point-in-interval) expresses. Values scale to exact
    int64 (round-half-away x``scale``); ``eps_x`` is the tolerance in
    SCALED units, so the predicate is pure integer arithmetic. Output:
    (key, right_key, diff_x) with diff_x = left_x - right_x (int64,
    |diff_x| <= eps_x).

    Distribution (never all-pairs): both sides bucket by
    floor(value_x / eps_x) — any qualifying pair's buckets differ by at
    most 1, so LEFT rows land once in their own bucket and RIGHT rows
    replicate to the 3 adjacent buckets (bounded 3x blow-up of the
    SMALL width-2 projection, never the full row); buckets co-partition
    by hash, and each bucket pairs its lefts against its sorted rights
    with two np.searchsorted range lookups per left block — work is
    OUTPUT-size bound plus a sort. A pair matches in exactly ONE
    bucket (the left's), so no dedup pass is needed.

    ``how='anti'`` inverts the predicate: emit each LEFT row with NO
    right within the band — the unreconciled-transactions complement
    (SQL ``NOT EXISTS`` with the ABS predicate). Output: (key_l,
    value_x); a left matches-or-not entirely within its own bucket,
    so anti needs no cross-bucket reconciliation either."""
    import pyarrow.compute as pc

    if eps_x < 1:
        raise ValueError(f"eps_x must be >= 1 scaled unit, got {eps_x}")
    if how not in ("inner", "anti"):
        raise ValueError(f"band_join supports how in ('inner','anti'), "
                         f"got {how!r}")

    from jsschema_ray.stages.windows import round_half_away

    n = exchange.fanout()

    def _x(col):
        v = col.to_numpy(zero_copy_only=False)
        return round_half_away(v * scale).astype(np.int64)

    def prep(key_c, val_c, side):
        def fn(b: pa.Table) -> pa.Table:
            b = b.filter(pc.is_valid(b.column(val_c)))
            ks = b.column(key_c).cast(pa.int64())
            return _band_rows(np.zeros(len(b), np.int64), _x(b.column(val_c)),
                              ks, side, eps_x, n)
        return fn

    l = left.select_columns([key, value]).map_batches(
        prep(key, value, 0), batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True)
    r = right.select_columns([right_key, right_value]).map_batches(
        prep(right_key, right_value, 1), batch_format="pyarrow",
        batch_size=batch_size, zero_copy_batch=True)
    return by_part(l.union(r), _band_emit(eps_x, how, keyed=False),
                   batch_format="pandas")


def keyed_band_join(left, right, eq: str, key: str, value: str,
                    right_eq: str, right_key: str, right_value: str,
                    eps_x: int, batch_size: int = 65536):
    """Equi-key + numeric-tolerance pair join: every (left, right) pair
    with ``left.eq == right.eq AND |left.value - right.value| <= eps_x``
    — the temporal-proximity matching shape ("same user, events within
    an hour"; "same account, transactions within $eps") that composes
    an equality predicate with band_join's THETA band. asof_join finds
    the NEAREST single match; this emits ALL matches in the band.

    ``value`` must cast losslessly to int64 (timestamps cast to their
    epoch micros; integers pass through) — for float tolerance matching
    scale with band_join instead. ``eq`` keys must be int64-castable.
    NULL eq/value rows drop. Output: (eq, key_l, key_r, diff_x),
    diff_x = left - right.

    Distribution: identical to band_join with the bucket key extended
    to (eq, floor(value/eps)) — rights replicate to the 3 adjacent
    value buckets WITHIN their eq key, partitions assign by a mixed
    hash of both, and each (eq, bucket) segment answers its lefts with
    two searchsorted lookups against its sorted rights. Work is
    output-bound; a pair matches in exactly ONE bucket (the left's)."""
    import pyarrow.compute as pc

    if eps_x < 1:
        raise ValueError(f"eps_x must be >= 1 unit, got {eps_x}")
    n = exchange.fanout()

    def _prep(b: pa.Table, eq_c, key_c, val_c, side_val):
        mask = pc.and_(pc.is_valid(b.column(eq_c)),
                       pc.is_valid(b.column(val_c)))
        b = b.filter(mask)
        eqv = b.column(eq_c).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        # timestamps cast to epoch micros, integers pass through
        vx = b.column(val_c).cast(pa.int64()).to_numpy(zero_copy_only=False)
        return _band_rows(eqv, vx, b.column(key_c).cast(pa.int64()),
                          side_val, eps_x, n)

    l = left.select_columns([eq, key, value]).map_batches(
        lambda b: _prep(b, eq, key, value, 0),
        batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True)
    r = right.select_columns(
        [right_eq, right_key, right_value]).map_batches(
        lambda b: _prep(b, right_eq, right_key, right_value, 1),
        batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True)

    return by_part(l.union(r), _band_emit(eps_x, "inner", keyed=True),
                   batch_format="pandas")

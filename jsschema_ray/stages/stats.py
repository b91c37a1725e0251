"""Column-statistics stage: count / nulls / min / max / mean / distinct
(HyperLogLog) / quantiles (t-digest) per column, optionally per partition.

Scale pattern (SURVEY.md §2.C, §4): a `map_batches` stage emits ONE tiny
partial row per (partition, column) per batch — counts + serialized
sketches, never raw values — and the driver folds those rows (both
sketches are associative monoids). Raw data is never shuffled; the
driver reads O(batches × columns × sketch_bytes).

The stage is a callable class: spec parsing and sketch parameters are
set up once in ``__init__`` and ship once in the task spec (the
distributed analogue of the reference's compile-once mutex,
validator/validator.go:41-53).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from jsschema_ray.stages.exchange import by_key, pack, unpack
from jsschema_ray.state.hll import HyperLogLog, hash64
from jsschema_ray.state.tdigest import TDigest

#: derived-column transforms available to specs (names, not lambdas, so the
#: spec stays serializable); caption_len for the drift constraint
TRANSFORMS = {
    "utf8_length": lambda arr: pc.utf8_length(arr),
    "binary_length": lambda arr: pc.binary_length(arr),
}


@dataclass
class StatsSpec:
    columns: list[str] = field(default_factory=list)        # basic stats
    distinct: list[str] = field(default_factory=list)       # + HLL
    quantiles: list[str] = field(default_factory=list)      # + t-digest
    derived: dict[str, tuple[str, str]] = field(default_factory=dict)
    partition_col: Optional[str] = None
    hll_p: int = 12
    compression: float = 200.0

    @classmethod
    def from_schema_extras(cls, extras: dict[str, Any]) -> "StatsSpec":
        x = extras.get("x-stats", {})
        d = extras.get("x-drift", {})
        spec = cls(
            columns=list(x.get("columns", [])),
            distinct=list(x.get("distinct", [])),
            quantiles=sorted(set(x.get("quantiles", [])) | set(d.get("columns", []))),
        )
        for name in list(spec.columns) + list(spec.quantiles):
            if name.endswith("_len") and name not in spec.derived:
                spec.derived[name] = (name[:-4], "utf8_length")
        return spec

    def all_columns(self) -> list[str]:
        return sorted(set(self.columns) | set(self.distinct) | set(self.quantiles))


_PARTIAL_SCHEMA = pa.schema(
    [
        ("partition", pa.string()),
        ("column", pa.string()),
        ("n", pa.int64()),
        ("nulls", pa.int64()),
        ("vmin", pa.float64()),
        ("vmax", pa.float64()),
        ("vsum", pa.float64()),
        ("smin", pa.string()),
        ("smax", pa.string()),
        ("hll", pa.binary()),
        ("tdigest", pa.binary()),
    ]
)


class StatsAccumulator:
    """map_batches stage -> per-batch partial sketch rows."""

    def __init__(self, spec: StatsSpec):
        self.spec = spec

    def _resolve(self, batch: pa.Table, name: str) -> Optional[pa.Array]:
        if name in self.spec.derived:
            src, tname = self.spec.derived[name]
            if src not in batch.column_names:
                return None
            return TRANSFORMS[tname](batch.column(src).combine_chunks())
        if name not in batch.column_names:
            return None
        return batch.column(name).combine_chunks()

    def __call__(self, batch: pa.Table) -> pa.Table:
        spec = self.spec
        parts: dict[str, np.ndarray] = {"": np.arange(batch.num_rows)}
        if spec.partition_col and spec.partition_col in batch.column_names:
            # Arrow-native grouping: argsort the dictionary codes of the
            # partition column (no pandas round-trip); rows whose partition
            # is null drop
            enc = batch.column(spec.partition_col).combine_chunks() \
                .dictionary_encode()
            codes = enc.indices.fill_null(-1).to_numpy(zero_copy_only=False)
            order = np.argsort(codes, kind="stable")
            bounds = np.searchsorted(codes[order],
                                     np.arange(len(enc.dictionary) + 1))
            parts = {str(label): order[bounds[c]:bounds[c + 1]]
                     for c, label in enumerate(enc.dictionary.to_pylist())
                     if bounds[c] < bounds[c + 1]}
        rows: list[dict[str, Any]] = []
        for pkey, idx in parts.items():
            sub = (batch if len(idx) == batch.num_rows
                   else batch.take(pa.array(idx)))
            for name in spec.all_columns():
                arr = self._resolve(sub, name)
                if arr is None:
                    continue
                rows.append(self._column_partial(pkey, name, arr))
        return pa.Table.from_pylist(rows, schema=_PARTIAL_SCHEMA)

    def _column_partial(self, pkey: str, name: str, arr: pa.Array) -> dict:
        spec = self.spec
        n_total = len(arr)
        nulls = arr.null_count
        row: dict[str, Any] = {
            "partition": pkey, "column": name, "n": n_total - nulls,
            "nulls": nulls, "vmin": None, "vmax": None, "vsum": None,
            "smin": None, "smax": None, "hll": None, "tdigest": None,
        }
        dtype = arr.type
        numeric = (pa.types.is_integer(dtype) or pa.types.is_floating(dtype))
        if numeric and row["n"]:
            mm = pc.min_max(arr)
            row["vmin"] = float(mm["min"].as_py())
            row["vmax"] = float(mm["max"].as_py())
            # summed in float64: an int64 sum wraps around on overflow
            row["vsum"] = float(pc.sum(arr.cast(pa.float64(), safe=False))
                                .as_py())
        elif (pa.types.is_string(dtype) or pa.types.is_large_string(dtype)) and row["n"]:
            mm = pc.min_max(arr)
            row["smin"] = mm["min"].as_py()
            row["smax"] = mm["max"].as_py()
        if name in spec.distinct and row["n"]:
            h = HyperLogLog(spec.hll_p)
            h.add_hashes(hash64(arr.drop_null()))
            row["hll"] = h.to_bytes()
        if name in spec.quantiles and numeric and row["n"]:
            t = TDigest(spec.compression)
            t.add(arr.drop_null().to_numpy(zero_copy_only=False))
            row["tdigest"] = t.to_bytes()
        return row


@dataclass
class ColumnStats:
    partition: str
    column: str
    count: int = 0
    nulls: int = 0
    min: Optional[float] = None
    max: Optional[float] = None
    sum: Optional[float] = None
    smin: Optional[str] = None
    smax: Optional[str] = None
    hll: Optional[HyperLogLog] = None
    digest: Optional[TDigest] = None

    @property
    def mean(self) -> Optional[float]:
        return None if not self.count or self.sum is None else self.sum / self.count

    @property
    def distinct(self) -> Optional[int]:
        return None if self.hll is None else int(round(self.hll.estimate()))

    def quantile(self, q: float) -> Optional[float]:
        return None if self.digest is None else self.digest.quantile(q)

    def absorb(self, row: dict) -> None:
        self.count += row["n"]
        self.nulls += row["nulls"]
        for k, attr, pick in (("vmin", "min", min), ("vmax", "max", max),
                              ("smin", "smin", min), ("smax", "smax", max)):
            v, cur = row[k], getattr(self, attr)
            if v is not None:
                setattr(self, attr, v if cur is None else pick(cur, v))
        if row["vsum"] is not None:
            self.sum = (self.sum or 0.0) + row["vsum"]
        if row["hll"] is not None:
            h = HyperLogLog.from_bytes(row["hll"])
            self.hll = h if self.hll is None else self.hll.merge(h)
        if row["tdigest"] is not None:
            t = TDigest.from_bytes(row["tdigest"])
            self.digest = t if self.digest is None else self.digest.merge(t)


def _fold_partials(rows, per_partition: bool = True
                   ) -> dict[tuple[str, str], ColumnStats]:
    """Fold partial rows into one ColumnStats per (partition, column), or
    per column under partition "" when ``per_partition`` is false. The
    t-digest merge and the float sum depend on the order they absorb rows
    in, so rows are absorbed in an order defined by their content:
    partition, column, sketch bytes, then the sum. Equal partials thus
    fold to equal bytes whatever order they arrived in."""
    out: dict[tuple[str, str], ColumnStats] = {}
    for row in sorted(rows, key=lambda r: (
            r["partition"], r["column"], r["tdigest"] or b"",
            r["hll"] or b"", r["vsum"] is None, r["vsum"] or 0.0)):
        key = (row["partition"] if per_partition else "", row["column"])
        cs = out.setdefault(key, ColumnStats(*key))
        cs.absorb(row)
    return out


def _topk_partials(ds, column: str, local_m: int, width: int, depth: int,
                   batch_size: int):
    """Candidate+CMS collection for top_k_exact: each batch emits its local
    top-``local_m`` candidate keys (blob-packed Arrow IPC)
    plus a Count-Min partial (weighted by local counts; CMS merge =
    elementwise add, so partials combine in any order). Returns
    (merged CountMinSketch, unique candidate keys ChunkedArray) or
    (None, None) on an empty input."""
    import numpy as np

    from jsschema_ray.state.cms import CountMinSketch
    from jsschema_ray.state.hll import hash64, normalize_zeros

    def partial(batch: pa.Table) -> pa.Table:
        col = normalize_zeros(batch.column(column).combine_chunks())
        vc = pc.value_counts(col)
        values = vc.field("values")
        counts = vc.field("counts").cast(pa.int64())
        cms = CountMinSketch(width=width, depth=depth)
        cms.add_hashes(hash64(values),
                       weights=counts.to_numpy(zero_copy_only=False))
        order = np.argsort(-counts.to_numpy(zero_copy_only=False),
                           kind="stable")[:local_m]
        cand = pa.table({"key": values, "cnt": counts}).take(pa.array(order))
        return pa.table(
            {
                "cand_blob": pa.array([pack(cand)], type=pa.binary()),
                "cms": pa.array([cms.to_bytes()], type=pa.binary()),
            }
        )

    partials = ds.select_columns([column]).map_batches(
        partial, batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True,
    )
    rows = partials.take_all()
    if not rows:
        return None, None
    merged = CountMinSketch.from_bytes(rows[0]["cms"])
    for r in rows[1:]:
        merged.merge(CountMinSketch.from_bytes(r["cms"]))
    cands = pa.concat_tables(unpack(r["cand_blob"]) for r in rows)
    keys = cands.column("key").combine_chunks().unique()
    return merged, keys


def top_k_exact(ds, column: str, k: int = 10, local_m: Optional[int] = None,
                width: int = 4096, depth: int = 5,
                batch_size: int = 262144) -> pa.Table:
    """EXACT top-k heavy hitters in two shuffle-free scans: scan 1 collects
    LSH-free candidates + CMS partials (`_topk_partials` — a true heavy
    hitter is a candidate as long as it is locally top-``local_m`` in at
    least one batch, the documented skewed-keys contract); scan 2
    broadcasts the candidate key set once (`ray.put`), each batch counts
    ONLY candidate keys (`pc.is_in` filter + `value_counts`), and the
    driver folds the tiny per-batch candidate counts — exact counts with
    no all-to-all key shuffle, output (column, n) sorted by
    (n desc, key asc).

    The result is exactly SQL's
    ``GROUP BY key ORDER BY count DESC, key LIMIT k`` (given the candidate
    contract), so it is DuckDB-oracle-able; the merged CMS's
    never-underestimate bound (estimate >= exact count for every reported
    key) is asserted as a runtime sanity check."""
    import numpy as np

    import ray

    from jsschema_ray.state.hll import hash64

    local_m = local_m or max(4 * k, 64)
    merged, keys = _topk_partials(ds, column, local_m, width, depth,
                                  batch_size)
    if merged is None:
        return pa.table({column: pa.array([], type=pa.string()),
                         "n": pa.array([], type=pa.int64())})
    key_ref = ray.put(keys)  # already a flat Array (unique() output)

    def exact_partial(batch: pa.Table) -> pa.Table:
        from jsschema_ray.state.hll import normalize_zeros

        col = normalize_zeros(batch.column(column).combine_chunks())
        m = pc.is_in(col, value_set=ray.get(key_ref))
        vc = pc.value_counts(col.filter(pc.fill_null(m, False)))
        return pa.table({"key": vc.field("values"),
                         "cnt": vc.field("counts").cast(pa.int64())})

    rows = ds.select_columns([column]).map_batches(
        exact_partial, batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True,
    ).take_all()
    import pandas as pd

    df = (pd.DataFrame({"key": [r["key"] for r in rows],
                        "cnt": [r["cnt"] for r in rows]})
          .groupby("key", sort=False, dropna=False)["cnt"].sum()
          .reset_index())
    df = df.sort_values(["cnt", "key"], ascending=[False, True],
                        kind="stable").head(k)
    top_keys = pa.Array.from_pandas(df["key"], type=keys.type)
    exact = df["cnt"].to_numpy(dtype=np.int64)
    est = merged.estimate_hashes(hash64(top_keys))
    if not (est >= exact).all():
        raise AssertionError(
            f"CMS underestimated a heavy hitter (est={est}, exact={exact}) "
            f"— never-underestimate contract violated"
        )
    return pa.table({column: top_keys, "n": pa.array(exact, type=pa.int64())})


def collect_stats(ds, spec: StatsSpec, batch_size: int = 65536
                  ) -> dict[tuple[str, str], ColumnStats]:
    """Driver-side fold of the raw partial sketch rows, one per
    (partition, column, batch) (HLL/t-digest merges are associative).
    Their count is O(batches × columns), each ~20 KB of sketch bytes,
    which is MBs at any single-job scale, so no exchange merges them
    first."""
    rows = ds.map_batches(StatsAccumulator(spec), batch_format="pyarrow",
                          batch_size=batch_size,
                          zero_copy_batch=True).take_all()
    return _fold_partials(rows)


def histogram(ds, column: str, lo: int, hi: int, bins: int,
              batch_size: int = 262144):
    """Fixed-width histogram of an integer column over ``[lo, hi)`` —
    the distribution profile behind drift dashboards, as a shuffle-light
    aggregate: each batch folds its values into ONE ``np.bincount`` and
    emits at most ``bins`` (bin, partial_count) rows (the map-side
    combine), so the only shuffle moves O(batches x nonzero-bins) tiny
    rows through grouped_sums. Bin edges are integer-exact
    (``(v - lo) // width``, requiring ``(hi - lo) % bins == 0``) so the
    result is bit-reproducible and SQL-mirrorable with integer division —
    no float boundary hazards. Empty bins are omitted (SQL GROUP BY
    parity). Returns (bin, bin_lo, bin_hi, n) sorted by the caller."""
    from jsschema_ray.stages.aggregates import grouped_sums

    if (hi - lo) % bins != 0:
        raise ValueError(
            f"(hi - lo) = {hi - lo} must be divisible by bins = {bins} "
            "for integer-exact edges"
        )
    w = (hi - lo) // bins

    def partial(batch: pa.Table) -> pa.Table:
        v = batch.column(column).combine_chunks().drop_null().to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        v = v[(v >= lo) & (v < hi)]
        if not len(v):
            return pa.table({"bin": pa.array([], pa.int64()),
                             "n_part": pa.array([], pa.int64())})
        b = (v - lo) // w
        counts = np.bincount(b, minlength=bins)
        nz = np.flatnonzero(counts)
        return pa.table({"bin": pa.array(nz.astype(np.int64)),
                         "n_part": pa.array(counts[nz].astype(np.int64))})

    parts = ds.select_columns([column]).map_batches(
        partial, batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True,
    )
    summed = grouped_sums(parts, ["bin"], {"n": "n_part"},
                          count_alias=None)

    def edges(batch: pa.Table) -> pa.Table:
        b = batch.column("bin").to_numpy(zero_copy_only=False)
        return batch.append_column(
            "bin_lo", pa.array(lo + b * w)
        ).append_column("bin_hi", pa.array(lo + (b + 1) * w))

    return summed.map_batches(edges, batch_format="pyarrow",
                              zero_copy_batch=True)


def top_k_rows(ds, value: str, tiebreak: str, k: int = 10,
               descending: bool = True, batch_size: int = 262144):
    """Global ``ORDER BY value [DESC], tiebreak LIMIT k`` returning the
    full ROWS (all columns ride along) WITHOUT a global sort shuffle:
    each batch pre-trims to its local top-k (one lexsort + head — at
    most k rows per batch cross the wire), partials gather into one
    block and replay the same selection.  Deterministic via the
    required unique ``tiebreak``.  NaN values sort last (never enter
    the top-k before real values).  k is a result size, not data —
    keep it small; for large k use a real sort."""
    import numpy as np
    import pandas as pd

    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) <= 1:
            return df
        # <= k rows still SORT (no trim needed): the final replay block
        # must honor the documented ORDER BY even when the whole input
        # fits under k (an early-return here silently emitted gather
        # order for small inputs — r5h fix)
        # rank on the RAW dtype (r3 ADVICE fix: a float64 cast collapses
        # int64 values above 2^53, letting the tiebreak order rows whose
        # values actually differ); floats keep the negate/raw key so NaN
        # sorts last, non-floats get a dense reversed unique-rank key
        # (negation-free: safe for unsigned and INT64_MIN, works for str)
        v = df[value].to_numpy()
        if v.dtype.kind == "f":
            key = -v if descending else v
        elif descending:
            uniq, inv = np.unique(v, return_inverse=True)
            key = (len(uniq) - 1 - inv).astype(np.int64)
        else:
            key = v
        order = np.lexsort((df[tiebreak].to_numpy(), key))
        return df.iloc[order[:k]].reset_index(drop=True)

    return ds.map_batches(
        local_topk, batch_format="pandas", batch_size=batch_size,
    ).repartition(1).map_batches(local_topk, batch_format="pandas")


def grouped_distinct_sketch(ds, group_col: str, column: str, p: int = 12,
                            batch_size: int = 262144):
    """APPROXIMATE per-group COUNT(DISTINCT ``column``) at UNBOUNDED
    group cardinality — the HyperLogLog companion of
    quantiles.grouped_tdigest_quantiles, extending the global HLL of
    the §2.C column-statistics stage to grouped form. Returns
    (group_col, distinct_est: float64, is_exact: bool, n_rows: int64).

    Hybrid partials, layout-STABLE results: each batch emits one blob
    per (group, batch) — the batch's distinct 64-bit value hashes RAW
    while their count is <= 2^p/8 (raw is smaller than registers there),
    else 2^p HLL registers. At merge, a group whose UNION of raw hashes
    stays <= 2^p/8 reports the EXACT distinct count (is_exact=True);
    larger groups fold into one HLL (register max — order-free) and
    report the estimate. The exact/estimate decision depends only on
    the group's true distinct set, never on batch boundaries: any batch
    that crossed the per-batch threshold forces the union past the same
    merge threshold, so reruns on any layout agree. NULL values drop
    (SQL COUNT(DISTINCT) semantics); n_rows counts the group's non-null
    rows exactly.

    Scale shape: the map-side-combine sketch pattern — the one shuffle
    carries O(groups x batches) blob rows (each <= max(8 x 2^p/8, 2^p)
    bytes); merge is one hash(group) co-partition, no per-group UDF
    calls. No reference analogue (single-value validator); extends the
    driver-mandated §2.C column statistics."""
    import struct

    import pandas as pd

    from jsschema_ray.state.hll import HyperLogLog, hash64, normalize_zeros

    if not 4 <= p <= 16:
        raise ValueError(f"p must be in [4, 16], got {p}")
    raw_cap = (1 << p) // 8

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.select([group_col, column])
        t = t.filter(t.column(column).is_valid())
        if t.num_rows == 0:
            return pa.table({
                group_col: pa.array([], batch.schema.field(group_col).type),
                "blob": pa.array([], pa.binary()),
                "n_rows": pa.array([], pa.int64()),
            })
        gv = t.column(group_col).combine_chunks()
        h = hash64(normalize_zeros(t.column(column).combine_chunks()))
        codes, uniques = pd.factorize(gv.to_pandas(), use_na_sentinel=False)
        order = np.lexsort((h, codes))
        sc, sh = codes[order], h[order]
        keep = np.r_[True, (sc[1:] != sc[:-1]) | (sh[1:] != sh[:-1])]
        dc, dh = sc[keep], sh[keep]
        bounds = np.searchsorted(dc, np.arange(len(uniques) + 1))
        n_rows = np.bincount(codes, minlength=len(uniques)).astype(np.int64)
        blobs = []
        for i in range(len(uniques)):
            seg = dh[bounds[i]:bounds[i + 1]]
            if len(seg) > raw_cap:
                hll = HyperLogLog(p)
                hll.add_hashes(seg)
                blobs.append(struct.pack("<q", -1)
                             + hll.registers.tobytes())
            else:
                blobs.append(struct.pack("<q", len(seg)) + seg.tobytes())
        return pa.table({group_col: pa.array(uniques),
                         "blob": pa.array(blobs, type=pa.binary()),
                         "n_rows": pa.array(n_rows)})

    def merge_part(gdf: pd.DataFrame) -> pd.DataFrame:
        out = {group_col: [], "distinct_est": [], "is_exact": [],
               "n_rows": []}
        for key, sub in gdf.groupby(group_col, sort=False, dropna=False):
            raws, regs = [], None
            for blob in sub["blob"]:
                (k,) = struct.unpack_from("<q", blob)
                if k >= 0:
                    raws.append(np.frombuffer(blob, dtype=np.uint64,
                                              offset=8))
                else:
                    r = np.frombuffer(blob, dtype=np.uint8, offset=8)
                    regs = r.copy() if regs is None else \
                        np.maximum(regs, r)
            union = (np.unique(np.concatenate(raws)) if raws
                     else np.empty(0, dtype=np.uint64))
            if regs is None and len(union) <= raw_cap:
                est, exact = float(len(union)), True
            else:
                hll = HyperLogLog(p, registers=regs)
                if len(union):
                    hll.add_hashes(union)
                est, exact = hll.estimate(), False
            out[group_col].append(key)
            out["distinct_est"].append(est)
            out["is_exact"].append(exact)
            out["n_rows"].append(int(sub["n_rows"].sum()))
        return pd.DataFrame(out)

    return by_key(ds.map_batches(
        partial, batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True,
    ), [group_col], merge_part, batch_format="pandas")


def benford_digits(ds, column: str, scale: int = 100,
                   batch_size: int = 262144):
    """FIRST-SIGNIFICANT-DIGIT audit (Benford's-law screen): the global
    distribution of the leading digit of ``|column|`` — the classic
    fabricated-/synthetic-data and unit-mixing detector for financial
    and measurement columns (Benford 1938; Hill 1995 — public
    literature). Extends SURVEY §2.C column statistics with a
    distributional data-quality constraint the single-value reference
    cannot express (/root/reference/validator/validator.go:57). Output
    one row per OBSERVED digit (1-9):

        (digit int64, n int64, share float64)

    Semantics, engine == SQL mirror bit-exactly: values scale to exact
    integers via round-half-away(v * scale) (the repo-wide 2-decimal
    cents recipe — CAST(ROUND(v * scale) AS BIGINT) in DuckDB), NULLs
    drop, zeros drop (no leading digit), negatives audit by magnitude
    (ABS); ``share = n / total`` is ONE int64→double cast pair + ONE
    IEEE division, so it hashes bit-equal cross-engine. Guards RAISE on
    |v*scale| ≥ 2^62 (round-trip exactness) and total ≥ 2^53 (exact
    double cast).

    Scale shape: per-batch leading digits via ~log10(max) vectorized
    int64 floor-divisions + one np.bincount → a ≤9-row partial per
    batch; grouped_sums merges the partials (single-digit group
    universe); the share finish runs in ONE task over the ≤9-row table
    (bounded by construction). Raw rows never shuffle."""
    from jsschema_ray.stages.aggregates import grouped_sums
    from jsschema_ray.stages.windows import round_half_away

    def partial(batch: pa.Table) -> pa.Table:
        v = np.asarray(batch.column(column).combine_chunks().drop_null()
                       .to_numpy(zero_copy_only=False), np.float64)
        v = v[~np.isnan(v)]  # NaN drops like NULL (repo convention)
        scaled = np.abs(round_half_away(v * scale))
        if len(scaled) and scaled.max() >= 2.0**62:
            raise ValueError(
                f"benford_digits: |{column} * {scale}| reaches 2^62 — "
                "the int64 cents round-trip would lose exactness")
        d = scaled.astype(np.int64)
        d = d[d > 0]
        while len(d) and d.max() >= 10:
            big = d >= 10
            d[big] //= 10
        cnt = np.bincount(d, minlength=10)[1:10]
        # FIXED 9-row partial (zero counts included): Ray never runs map
        # UDFs on empty blocks and its groupby yields ZERO schema-less
        # blocks on zero-row input, so an observed-digits-only partial
        # would leave an all-NULL/all-zero column with a schema-less
        # output Dataset. Constant 9 rows keep every downstream stage
        # non-empty; finish drops the unobserved digits.
        return pa.table({
            "digit": pa.array(np.arange(1, 10, dtype=np.int64)),
            "n_partial": pa.array(cnt, pa.int64()),
        })

    merged = grouped_sums(ds.select_columns([column]).map_batches(
        partial, batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True,
    ), ["digit"], {"n": "n_partial"}, count_alias=None)

    def finish(t: pa.Table) -> pa.Table:
        n = t.column("n").to_numpy(zero_copy_only=False)
        total = int(n.sum())
        if total >= 2**53:
            raise ValueError("benford_digits: total count reaches 2^53 "
                             "— the exact double cast would round")
        si = np.argsort(t.column("digit").to_numpy(zero_copy_only=False))
        si = si[n[si] > 0]  # one row per OBSERVED digit
        share = (n[si].astype(np.float64) / np.float64(total)
                 if total else n[si].astype(np.float64))
        return pa.table({
            "digit": t.column("digit").take(pa.array(si)),
            "n": t.column("n").take(pa.array(si)),
            "share": pa.array(share, pa.float64()),
        })

    return merged.repartition(1).map_batches(
        finish, batch_format="pyarrow", batch_size=None)


def null_profile(ds, columns: list[str] | None = None,
                 batch_size: int = 262144):
    """TABLE-WIDE NULL profile (the first page of every data-profiling
    report — ydata-profiling / Metanome-style completeness scan): one
    pass over the table, one output row per column:

        (col_name utf8, n_nulls int64, n_rows int64, null_frac float64)

    Counts are exact int64 straight off Arrow validity bitmaps
    (``Array.null_count`` — no value scan at all); null_frac is ONE
    int64→double cast pair + ONE IEEE division per row, bit-equal to the
    SQL mirror's CAST(COUNT(*) - COUNT(col) AS DOUBLE) / CAST(COUNT(*)
    AS DOUBLE). Extends SURVEY §2.C column statistics from single-column
    to whole-schema form (the reference validates one value at a time —
    /root/reference/validator/validator.go:57).

    Scale shape: each batch emits a |columns|-row partial (validity-
    bitmap popcounts, zero data movement), grouped_sums merges the
    partials map-side, and the frac finish is a vectorized per-row
    map_batches — the shuffle carries |columns| x |batches| rows, never
    data rows. Guards RAISE if n_rows reaches 2^53 (exact double cast)."""
    from jsschema_ray.stages.aggregates import grouped_sums

    def partial(batch: pa.Table) -> pa.Table:
        cols = columns or batch.column_names
        return pa.table({
            "col_name": pa.array(cols, pa.string()),
            "n_nulls_p": pa.array(
                [batch.column(c).null_count for c in cols], pa.int64()),
            "n_rows_p": pa.array([batch.num_rows] * len(cols),
                                 pa.int64()),
        })

    merged = grouped_sums(
        ds.map_batches(partial, batch_format="pyarrow",
                       batch_size=batch_size, zero_copy_batch=True),
        ["col_name"], {"n_nulls": "n_nulls_p", "n_rows": "n_rows_p"},
        count_alias=None)

    def finish(t: pa.Table) -> pa.Table:
        nr = t.column("n_rows").to_numpy(zero_copy_only=False)
        if len(nr) and nr.max() >= 2**53:
            raise ValueError("null_profile: row count reaches 2^53 — "
                             "the exact double cast would round")
        nn = t.column("n_nulls").to_numpy(zero_copy_only=False)
        return t.append_column("null_frac", pa.array(
            nn.astype(np.float64) / nr.astype(np.float64), pa.float64()))

    return merged.map_batches(finish, batch_format="pyarrow",
                              batch_size=batch_size)


def equiwidth_histogram(ds, column: str, lo: float, hi: float,
                        nbins: int, scale: int = 100,
                        batch_size: int = 262144):
    """EQUI-WIDTH histogram of a 2-decimal column over [lo, hi): the
    distribution page of a profiling report, with EXACT integer binning
    — no float bin-edge drift. Output one row per OBSERVED bin:

        (bin int64, bin_lo_cents int64, n int64)

    where values scale to exact int64 cents (round-half-away, the
    repo-wide recipe), rows outside [lo_cents, hi_cents) and NULLs drop
    (the mirror's WHERE — keeping the floor-division numerator
    non-negative, where numpy's floor and SQL's truncating ``//``
    agree), and bin = (cents − lo_cents) // width_cents in pure int64.
    ``(hi−lo)·scale`` must divide evenly by nbins or the stage REFUSES
    (a fractional width would bin differently between engines). All
    outputs int64, so engine == SQL bit-equal by construction.

    Scale shape: per-batch bincount-style partials via one Arrow
    group_by inside grouped_sums (map-side combine — raw rows never
    shuffle; the shuffle carries ≤ nbins × batches count rows)."""
    from jsschema_ray.stages.aggregates import grouped_sums
    from jsschema_ray.stages.windows import round_half_away

    lo_cents = int(round_half_away(np.float64(lo) * scale))
    hi_cents = int(round_half_away(np.float64(hi) * scale))
    if hi_cents <= lo_cents or nbins <= 0:
        raise ValueError("equiwidth_histogram: need lo < hi, nbins > 0")
    if (hi_cents - lo_cents) % nbins:
        raise ValueError(
            f"equiwidth_histogram: ({hi} - {lo}) * {scale} = "
            f"{hi_cents - lo_cents} cents does not divide evenly into "
            f"{nbins} bins — a fractional width would bin differently "
            "between engines")
    width = (hi_cents - lo_cents) // nbins

    def partial(batch: pa.Table) -> pa.Table:
        v = np.asarray(batch.column(column).combine_chunks().drop_null()
                       .to_numpy(zero_copy_only=False), np.float64)
        v = v[~np.isnan(v)]  # NaN drops like NULL (repo convention)
        scaled = round_half_away(v * scale)
        if len(scaled) and np.abs(scaled).max() >= 2.0**62:
            raise ValueError(
                f"equiwidth_histogram: |{column} * {scale}| reaches "
                "2^62 — the int64 cents round-trip would lose exactness")
        c = scaled.astype(np.int64)
        c = c[(c >= lo_cents) & (c < hi_cents)]
        b = (c - lo_cents) // width
        cnt = np.bincount(b, minlength=nbins)
        keep = np.flatnonzero(cnt)
        return pa.table({
            "bin": pa.array(keep, pa.int64()),
            "n_partial": pa.array(cnt[keep], pa.int64()),
        })

    merged = grouped_sums(ds.select_columns([column]).map_batches(
        partial, batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True,
    ), ["bin"], {"n": "n_partial"}, count_alias=None)

    def finish(t: pa.Table) -> pa.Table:
        b = t.column("bin").to_numpy(zero_copy_only=False)
        return pa.table({
            "bin": t.column("bin"),
            "bin_lo_cents": pa.array(lo_cents + b * width, pa.int64()),
            "n": t.column("n"),
        })

    return merged.map_batches(finish, batch_format="pyarrow",
                              batch_size=batch_size)


def count_spikes(ds, group_col: str, ts_col: str,
                 unit_us: int = 86_400_000_000, z_thresh: float = 2.0,
                 batch_size: int = 262144):
    """VOLUME-ANOMALY audit (per-group daily-count spike detection): the
    ingest-monitoring statistic every event pipeline runs — bucket events
    into time units (days by default), then flag, per group, the units
    whose count deviates from that group's mean by more than ``z_thresh``
    population standard deviations. Extends SURVEY §2.C column statistics
    with a temporal-distribution constraint the single-value reference
    cannot express (/root/reference/validator/validator.go:57). Output
    one row per flagged (group, unit):

        (group, day int64, n int64, z float64)

    Exactness contract (engine == SQL mirror bit-equal): day counts,
    n_days, sum_n and sum_n2 are exact int64 (rows with a NULL ``ts_col``
    OR a NULL ``group_col`` drop first — the mirror's JOIN USING(group)
    never matches NULL; a pre-1970 epoch RAISES — numpy floors, SQL
    truncates);
    z = CAST(n*n_days - sum_n AS DOUBLE) / SQRT(CAST(n_days*sum_n2 -
    sum_n*sum_n AS DOUBLE)) is two exact int64→double casts, ONE
    correctly-rounded IEEE sqrt and ONE division, so it hashes bit-equal
    cross-engine (the algebraic identity z = (n-mean)/sigma_pop with
    both sides scaled by n_days — no intermediate mean/variance floats).
    Groups with n_days < 2 or zero variance emit nothing. Guards RAISE
    before any int64 product can wrap or any cast can round (> 2^53).

    Scale shape: per-(group, unit) counts via map-side-combined
    grouped_sums (raw events never shuffle — partials do), then ONE
    groupby(group) over the width-3 count table (bounded by
    |groups| x |units|, not by rows) with a vectorized per-group body.
    NOTE: a zero-row upstream (every ts NULL) yields a schema-less
    Dataset — Ray's groupby emits no blocks; callers feed real logs."""
    import ray  # noqa: F401  (parity with module style)

    from jsschema_ray.stages.aggregates import grouped_sums

    def prep(batch: pa.Table) -> pa.Table:
        # NULL groups drop (not just NULL ts): the SQL mirror re-joins
        # the per-group sums with JOIN USING(group), where NULL never
        # matches NULL — keeping them engine-side would silently diverge
        batch = batch.filter(pc.and_(
            pc.is_valid(batch.column(ts_col)),
            pc.is_valid(batch.column(group_col))))
        ts = batch.column(ts_col).combine_chunks()
        if pa.types.is_timestamp(ts.type):
            ts = ts.cast(pa.timestamp("us")).cast(pa.int64())
        else:
            ts = ts.cast(pa.int64())
        if len(ts) and pc.min(ts).as_py() < 0:
            raise ValueError(
                "count_spikes requires non-negative epochs (pre-1970 "
                "timestamps floor-divide differently from SQL's //)")
        return pa.table({
            group_col: batch.column(group_col),
            "day": pc.divide(ts, pa.scalar(unit_us, pa.int64())),
        })

    counts = grouped_sums(
        ds.select_columns([group_col, ts_col]).map_batches(
            prep, batch_format="pyarrow", batch_size=batch_size,
            zero_copy_batch=True,
        ), [group_col, "day"], {}, count_alias="n")

    def per_group(g: pa.Table) -> pa.Table:
        n = g.column("n").to_numpy(zero_copy_only=False)
        n_days = len(n)
        empty = pa.table({
            group_col: g.column(group_col).slice(0, 0),
            "day": pa.array([], pa.int64()),
            "n": pa.array([], pa.int64()),
            "z": pa.array([], pa.float64()),
        })
        if n_days < 2:
            return empty
        mx = int(n.max())
        # stage 1: the numpy int64 reductions themselves must not wrap —
        # n*n < 2^62 per unit, and both sums bounded by n_days * mx^k
        # (python-int guard arithmetic, cannot wrap)
        if mx >= 2**31 or n_days * mx * mx >= 2**62:
            raise ValueError(
                "count_spikes: counts too large — the int64 sum of "
                "squares would wrap (n_days * max_n^2 reaches 2^62)")
        sum_n = int(n.sum())
        sum_n2 = int((n * n).sum())
        num = n_days * sum_n2 - sum_n * sum_n
        # stage 2: the ACTUAL int64->double casts must be exact — both
        # the variance numerator and the largest |n*n_days - sum_n|
        if num >= 2**53 or n_days * mx + sum_n >= 2**53:
            raise ValueError(
                "count_spikes: counts too large for the exact double "
                "cast (variance numerator reaches 2^53)")
        if num <= 0:  # zero variance: every unit has the same count
            return empty
        d = n * np.int64(n_days) - np.int64(sum_n)
        z = d.astype(np.float64) / np.sqrt(np.float64(num))
        keep = np.flatnonzero(np.abs(z) > z_thresh)
        if not len(keep):
            return empty
        si = pa.array(keep)
        return pa.table({
            group_col: g.column(group_col).take(si),
            "day": g.column("day").take(si),
            "n": g.column("n").take(si),
            "z": pa.array(z[keep], pa.float64()),
        })

    return counts.groupby(group_col).map_groups(
        per_group, batch_format="pyarrow")


def bit_balance(ds, column: str, bits: int = 64,
                batch_size: int = 262144):
    """Per-bit ones-count of a NON-NEGATIVE int64 column — the
    degenerate-hash detector (a healthy 64-bit content hash / phash has
    every bit near 50% ones; a stuck or truncated hash shows up as a
    bit pinned at ~0% or ~100%, which silently breaks banding dedup and
    hash partitioning). Output ``bits`` rows:

        (bit int64, n_ones int64, n int64)

    NULL values drop; NEGATIVE values RAISE (arithmetic-vs-logical
    shift semantics diverge across engines, so a silent pass would be
    a portability bug). All-int64 output hashes against the SQL mirror
    (SUM((x >> bit) & 1)) without tolerance.

    Scale shape: each batch collapses to ONE ``bits``-row partial via
    np.unpackbits over the little-endian byte view (no n x bits
    materialization beyond the batch), and only those width-3 partials
    shuffle through a ``bits``-key grouped_sums. Raw values never
    move.

    No reference analogue (single-value validator,
    /root/reference/validator/validator.go:57); extends §2.C column
    statistics with the hash-health audit every LSH/banding stage
    (stages/dedup.py) implicitly depends on."""
    from jsschema_ray.stages.aggregates import grouped_sums

    if not 1 <= bits <= 64:
        raise ValueError(f"bits must be in [1, 64], got {bits}")

    def partial(batch: pa.Table) -> pa.Table:
        col = batch.column(column).combine_chunks()
        v = col.drop_null().to_numpy(zero_copy_only=False)
        if len(v) and v.min() < 0:
            raise ValueError(
                f"bit_balance needs non-negative {column} (shift "
                f"semantics on negatives are engine-specific), got "
                f"min {v.min()}")
        # little-endian byte view: unpacked column j IS value bit j
        u = v.astype("<u8").view(np.uint8).reshape(-1, 8)
        ones = np.unpackbits(u, axis=1, bitorder="little").sum(
            axis=0, dtype=np.int64)[:bits]
        return pa.table({
            "bit": pa.array(np.arange(bits, dtype=np.int64)),
            "ones": pa.array(ones),
            "cnt": pa.array(np.full(bits, len(v), dtype=np.int64)),
        })

    partials = ds.select_columns([column]).map_batches(
        partial, batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True)
    return grouped_sums(partials, ["bit"],
                        {"n_ones": "ones", "n": "cnt"},
                        count_alias=None)


def embedding_health(ds, column: str, expected_dim: int,
                     batch_size: int = 65536):
    """Embedding-column health audit — the exact-count pre-flight every
    vector stage (knn, embedding_dedup, similarity_join) should run
    first, because one NaN poisons every cosine it touches and
    all-zero vectors make similarity undefined. Output ONE row of
    exact int64 counts:

        (n_vectors, n_null_vec, n_wrong_dim, n_null_elem,
         n_with_nan, n_all_zero)

    Row predicates (computed over non-null vectors): wrong_dim =
    len != expected_dim; null_elem = any NULL element; with_nan = any
    NaN element (NULL elements are NOT NaN — the two are counted
    separately, matching SQL's isnan(NULL) = NULL semantics);
    all_zero = len > 0 and every element == 0.0 (so -0.0 counts as
    zero, and empty lists do NOT count). All counts exact — the row
    hashes against the SQL mirror without tolerance.

    Scale shape: each batch folds to ONE width-6 partial row (flat
    Arrow value buffer + np.add.reduceat over the list offsets — no
    per-row loop, no row materialization); the finish sums O(batches)
    partials. No reference analogue (single-value validator,
    /root/reference/validator/validator.go:57); extends §2.C column
    statistics to the list<float> payload the input_hint's similarity
    stages depend on."""
    import ray.data as _rd

    def partial(batch: pa.Table) -> pa.Table:
        col = batch.column(column).combine_chunks()
        n = len(col)
        n_null_vec = col.null_count
        valid = col.drop_null()
        if len(valid):
            lengths = np.asarray(pc.list_value_length(valid)
                                 .to_numpy(zero_copy_only=False),
                                 np.int64)
            flat = valid.flatten()  # element validity preserved
            nan_f = pc.fill_null(pc.is_nan(flat), False) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            null_f = pc.is_null(flat).to_numpy(
                zero_copy_only=False).astype(np.int64)
            zero_f = pc.fill_null(pc.equal(flat, 0.0), False) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            starts = np.r_[0, np.cumsum(lengths)[:-1]]
            nonempty = lengths > 0
            def seg_sum(x):
                out = np.zeros(len(lengths), np.int64)
                if x.size and nonempty.any():
                    out[nonempty] = np.add.reduceat(
                        x, starts[nonempty])
                    # reduceat over-collects when a later segment is
                    # empty mid-array; with starts limited to nonempty
                    # segments each reduce runs to the NEXT nonempty
                    # start — correct because empty segments contribute
                    # no elements between them
                return out
            nan_c = seg_sum(nan_f)
            null_c = seg_sum(null_f)
            zero_c = seg_sum(zero_f)
            n_wrong = int((lengths != expected_dim).sum())
            n_nan = int((nan_c > 0).sum())
            n_nullel = int((null_c > 0).sum())
            n_zero = int(((zero_c == lengths) & nonempty).sum())
        else:
            n_wrong = n_nan = n_nullel = n_zero = 0
        return pa.table({
            "n_vectors": pa.array([n], pa.int64()),
            "n_null_vec": pa.array([n_null_vec], pa.int64()),
            "n_wrong_dim": pa.array([n_wrong], pa.int64()),
            "n_null_elem": pa.array([n_nullel], pa.int64()),
            "n_with_nan": pa.array([n_nan], pa.int64()),
            "n_all_zero": pa.array([n_zero], pa.int64()),
        })

    cols = ["n_vectors", "n_null_vec", "n_wrong_dim", "n_null_elem",
            "n_with_nan", "n_all_zero"]
    partials = ds.select_columns([column]).map_batches(
        partial, batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True).take_all()   # O(batches) width-6 rows
    sums = {c: sum(int(r[c]) for r in partials) for c in cols}
    return _rd.from_arrow(pa.table(
        {c: pa.array([sums[c]], pa.int64()) for c in cols}))

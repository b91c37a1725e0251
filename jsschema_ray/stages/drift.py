"""Distribution-drift constraint: per-partition t-digest histograms of
selected (possibly derived) columns compared against a reference profile
via Kolmogorov–Smirnov distance; a partition passes iff KS <= threshold for
every profiled column (SURVEY.md §2.C; BASELINE.json north_star drift term).

Flow: stats stage (stages/stats.py) produces per-partition digests without
shuffling raw rows; KS is computed driver-side from the merged digests —
O(partitions × columns × centroids), independent of row count.
"""

from __future__ import annotations

import base64
import json
from typing import Any, Optional

import numpy as np
import pyarrow as pa

from jsschema_ray.stages.stats import StatsSpec, collect_stats
from jsschema_ray.state.tdigest import TDigest


class DriftProfile:
    """Reference digests per column (built from a clean/baseline dataset)."""

    def __init__(self, digests: dict[str, TDigest]):
        self.digests = digests

    def to_json(self) -> str:
        return json.dumps(
            {
                c: base64.b64encode(d.to_bytes()).decode()
                for c, d in self.digests.items()
            }
        )

    @classmethod
    def from_json(cls, s: str) -> "DriftProfile":
        raw = json.loads(s)
        return cls(
            {c: TDigest.from_bytes(base64.b64decode(b)) for c, b in raw.items()}
        )


def _spec_for(columns: list[str], partition_col: Optional[str]) -> StatsSpec:
    spec = StatsSpec.from_schema_extras({"x-drift": {"columns": columns}})
    spec.partition_col = partition_col
    return spec


def build_profile(ds, columns: list[str], batch_size: int = 65536
                  ) -> DriftProfile:
    """Global (partition-less) digests of the reference dataset."""
    stats = collect_stats(ds, _spec_for(columns, None), batch_size)
    return DriftProfile(
        {col: cs.digest for (_, col), cs in stats.items() if cs.digest is not None}
    )


def _verdicts(stats, profile: DriftProfile, ks_threshold: float) -> pa.Table:
    rows: list[dict[str, Any]] = []
    for (part, col), cs in sorted(stats.items()):
        ref = profile.digests.get(col)
        if ref is None or cs.digest is None:
            continue
        ks = cs.digest.ks_distance(ref)
        rows.append(
            {
                "partition": part,
                "column": col,
                "ks": round(ks, 6),
                "n": cs.count,
                "passed": ks <= ks_threshold,
            }
        )
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [
                ("partition", pa.string()),
                ("column", pa.string()),
                ("ks", pa.float64()),
                ("n", pa.int64()),
                ("passed", pa.bool_()),
            ]
        ),
    )


def drift_check_self(ds, columns: list[str], partition_col: str,
                     ks_threshold: float = 0.15, batch_size: int = 65536
                     ) -> tuple[pa.Table, DriftProfile]:
    """Self-profiling drift in ONE scan: the per-partition digests are
    collected once, the global reference profile is their driver-side
    merge (t-digest merge is associative), and each partition's KS is
    computed against that merged profile. Halves the I/O of
    build_profile + drift_check over the same input. Returns
    (verdict_table, profile) so the profile can be persisted for later
    incremental checks."""
    stats = collect_stats(ds, _spec_for(columns, partition_col), batch_size)
    merged: dict[str, TDigest] = {}
    for (_, col), cs in sorted(stats.items()):
        if cs.digest is not None:
            merged.setdefault(col, TDigest(cs.digest.compression)).merge(
                cs.digest)
    profile = DriftProfile(merged)
    return _verdicts(stats, profile, ks_threshold), profile


def drift_check(ds, profile: DriftProfile, columns: list[str],
                partition_col: str, ks_threshold: float = 0.15,
                batch_size: int = 65536) -> pa.Table:
    """Per-(partition, column) KS distance vs the profile -> verdict table
    (partition, column, ks, n, passed)."""
    stats = collect_stats(ds, _spec_for(columns, partition_col), batch_size)
    return _verdicts(stats, profile, ks_threshold)


def categorical_drift(ds, category_col: str, side_col: str,
                      batch_size: int = 262144):
    """EXACT categorical frequency drift between two row slices — the
    integer-exact companion of the t-digest/KS numeric drift check (which
    is sketch-based and has no SQL oracle). ``side_col`` is a boolean
    column marking slice A (true) vs B (false); output one row per
    category: (category, n_a, n_b, tvd_num) where

        tvd_num = |n_a * N_b - n_b * N_a|        (N = slice totals)

    so total variation distance = sum(tvd_num) / (2 * N_a * N_b) — the
    compare is pure int64 (no float division inside the engine), hence
    bit-mirrorable in SQL. Rows with a NULL side OR a NULL category drop
    (a drift check compares OBSERVED categories; Ray's groupby cannot
    order null string keys anyway — documented contract).

    Scale shape: one grouped_sums over (category, side) — map-side
    combined count partials, the only shuffle — then a single-task
    finish over the O(categories)-row table (same fits-one-worker
    contract as value_cdf). Guard: slice totals must stay below 2^31 so
    the cross products fit int64 — beyond that, drift should be measured
    on deterministic hash samples (stages/sampling) anyway."""
    import pyarrow.compute as pc

    from jsschema_ray.stages.aggregates import grouped_sums

    def prep(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(batch.column(side_col)),
                       pc.is_valid(batch.column(category_col)))
        b = batch.select([category_col, side_col]).filter(keep)
        s = b.column(side_col)
        return pa.table({
            category_col: b.column(category_col),
            "__a": pc.cast(s, pa.int64()),
            "__b": pc.cast(pc.invert(s), pa.int64()),
        })

    counts = grouped_sums(
        ds.select_columns([category_col, side_col]).map_batches(
            prep, batch_format="pyarrow", batch_size=batch_size,
            zero_copy_batch=True,
        ),
        [category_col], {"n_a": "__a", "n_b": "__b"}, count_alias=None,
        batch_size=batch_size,
    ).repartition(1)

    def finish(t: pa.Table) -> pa.Table:
        na = t.column("n_a").to_numpy(zero_copy_only=False).astype(np.int64)
        nb = t.column("n_b").to_numpy(zero_copy_only=False).astype(np.int64)
        ta, tb = int(na.sum()), int(nb.sum())
        if max(ta, tb) >= (1 << 31):
            raise ValueError(
                "categorical_drift slice totals must be < 2^31 for the "
                "int64-exact cross products; drift-check a deterministic "
                "hash sample instead")
        tvd = np.abs(na * tb - nb * ta)
        return pa.table({
            category_col: t.column(category_col),
            "n_a": pa.array(na), "n_b": pa.array(nb),
            "tvd_num": pa.array(tvd),
        })

    return counts.map_batches(finish, batch_format="pyarrow",
                              batch_size=None)


def chi_square_cells(ds, row_col: str, col_col: str,
                     batch_size: int = 262144):
    """Pearson chi-square INDEPENDENCE-TEST CELLS for two categorical
    columns — the contingency-table companion of
    :func:`categorical_drift` (is language independent of source? did a
    crawl slice skew the label mix?). Output one row per observed
    (row, col) cell:

        (row, col, n, row_n, col_n, total_n, expected, contrib)

    where n/row_n/col_n/total_n are EXACT int64 counts and the two
    floats are computed ONCE per cell in one fixed operation order::

        expected = (row_n * col_n) / total_n          (all as float64)
        contrib  = (n - expected)^2 / expected

    Every step is a correctly-rounded IEEE op on exactly-representable
    int64 inputs, so a SQL mirror spelling the identical expression over
    identical window sums is bit-equal (the grouped_skewness recipe) —
    the chi-square statistic itself is SUM(contrib), left to the caller
    because a cross-engine SUM of floats has no canonical order. Rows
    with a NULL in either column drop (observed-cells contract, as in
    categorical_drift).

    Scale shape: ONE grouped_sums shuffle over (row, col) — map-side
    combined count partials, O(cells x batches) rows — then a
    single-task finish over the O(cells)-row table (contingency tables
    are small by construction; same fits-one-worker contract as
    categorical_drift). Guard: total_n < 2^53 so the float casts stay
    exact (counts are int64-exact far beyond that, but expected/contrib
    would silently round).

    No reference analogue (single-value validator,
    /root/reference/validator/validator.go:57); extends §2.C
    distribution-drift checking to categorical independence."""
    import pyarrow.compute as pc

    from jsschema_ray.stages.aggregates import grouped_sums

    def prep(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(batch.column(row_col)),
                       pc.is_valid(batch.column(col_col)))
        return batch.select([row_col, col_col]).filter(keep)

    cells = grouped_sums(
        ds.select_columns([row_col, col_col]).map_batches(
            prep, batch_format="pyarrow", batch_size=batch_size,
            zero_copy_batch=True,
        ),
        [row_col, col_col], {}, count_alias="n", batch_size=batch_size,
    ).repartition(1)

    def finish(t: pa.Table) -> pa.Table:
        import pandas as pd

        df = t.to_pandas()
        n = df["n"].to_numpy(np.int64)
        total = int(n.sum())
        if total >= (1 << 53):
            raise ValueError(
                "chi_square_cells total count must be < 2^53 for exact "
                "float64 casts of the expected-count products")
        row_n = df.groupby(row_col, dropna=False)["n"].transform(
            "sum").to_numpy(np.int64)
        col_n = df.groupby(col_col, dropna=False)["n"].transform(
            "sum").to_numpy(np.int64)
        fn = n.astype(np.float64)
        expected = (row_n.astype(np.float64) * col_n.astype(np.float64)
                    ) / np.float64(total)
        d = fn - expected
        contrib = (d * d) / expected
        return pa.table({
            row_col: t.column(row_col),
            col_col: t.column(col_col),
            "n": pa.array(n),
            "row_n": pa.array(row_n),
            "col_n": pa.array(col_n),
            "total_n": pa.array(np.full(len(n), total, dtype=np.int64)),
            "expected": pa.array(expected),
            "contrib": pa.array(contrib),
        })

    return cells.map_batches(finish, batch_format="pyarrow",
                             batch_size=None)


def exact_ks(ds, group_col: str, value_col: str, g1, g2,
             scale: int = 100, batch_size: int = 262144):
    """EXACT two-sample Kolmogorov-Smirnov statistic between two slices
    of a 2-decimal column — the no-sketch companion to the t-digest KS
    (build_profile/ks_drift): D = max over the merged value domain of
    |F1(v) - F2(v)|, computed from EXACT per-value counts. Output ONE
    row:

        (n1 int64, n2 int64, at_cents int64, ks float64)

    where at_cents is the SMALLEST scaled value achieving the maximum
    (deterministic argmax tie-break), values scale to exact int64 cents
    (round-half-away), NULL values and rows outside {g1, g2} drop.
    Exactness contract: the per-value statistic is ABS(ca/n1 - cb/n2) —
    two exact int64->double casts, two IEEE divisions, one subtraction,
    one abs, in ONE spelled order — so every d is bit-equal to the SQL
    window-sum mirror and the (ks DESC, at_cents ASC) argmax picks the
    identical row. Guards RAISE on |v*scale| >= 2^62 and n >= 2^53;
    an empty slice (n1 or n2 = 0) RAISES — KS is undefined.

    Scale shape: per-(side, cents) counts via map-side-combined
    grouped_sums (raw rows never shuffle; the keyed exchange carries
    distinct (side, value) count rows to a hash co-partition merge,
    whose cost does not grow with the O(distinct-cents) key universe
    the way a key-sorting merge's does), then ONE single-task finish
    over the O(distinct-values) table — the same fits-one-worker
    contract as the categorical-drift family (a 2-decimal domain is
    bounded by its range). NOTE: a zero-row upstream yields a
    schema-less Dataset (the exchange emits no blocks); callers feed real
    slices."""
    import pyarrow.compute as pc

    from jsschema_ray.stages.aggregates import grouped_sums
    from jsschema_ray.stages.windows import round_half_away

    def prep(batch: pa.Table) -> pa.Table:
        gcol = batch.column(group_col)
        keep = pc.and_(
            pc.is_valid(batch.column(value_col)),
            pc.is_in(gcol, value_set=pa.array([g1, g2])))
        b = batch.select([group_col, value_col]).filter(keep)
        v = np.asarray(b.column(value_col).combine_chunks()
                       .to_numpy(zero_copy_only=False), np.float64)
        side = pc.if_else(pc.equal(b.column(group_col), pa.scalar(g1)),
                          pa.scalar(1, pa.int64()),
                          pa.scalar(2, pa.int64())) \
            .to_numpy(zero_copy_only=False)
        # NaN drops like NULL (the repo-wide pandas-origin convention —
        # _grouped_value_counts' notna; the mirror's IS NOT NULL)
        ok = ~np.isnan(v)
        v, side = v[ok], side[ok]
        scaled = round_half_away(v * scale)
        if len(scaled) and np.abs(scaled).max() >= 2.0**62:
            raise ValueError(
                f"exact_ks: |{value_col} * {scale}| reaches 2^62 — the "
                "int64 cents round-trip would lose exactness")
        return pa.table({"side": pa.array(side, pa.int64()),
                         "c": pa.array(scaled.astype(np.int64))})

    counts = grouped_sums(
        ds.select_columns([group_col, value_col]).map_batches(
            prep, batch_format="pyarrow", batch_size=batch_size,
            zero_copy_batch=True,
        ), ["side", "c"], {}, count_alias="n")

    def finish(t: pa.Table) -> pa.Table:
        import pandas as pd

        df = t.to_pandas()
        piv = df.pivot_table(index="c", columns="side", values="n",
                             aggfunc="sum", fill_value=0)
        a = piv[1].to_numpy(dtype=np.int64) if 1 in piv.columns \
            else np.zeros(len(piv), np.int64)
        b = piv[2].to_numpy(dtype=np.int64) if 2 in piv.columns \
            else np.zeros(len(piv), np.int64)
        ca, cb = np.cumsum(a), np.cumsum(b)
        n1 = int(ca[-1]) if len(ca) else 0
        n2 = int(cb[-1]) if len(cb) else 0
        if n1 == 0 or n2 == 0:
            raise ValueError(
                f"exact_ks: slice {'g1' if n1 == 0 else 'g2'} is empty "
                "— the KS statistic is undefined")
        if n1 >= 2**53 or n2 >= 2**53:
            raise ValueError("exact_ks: slice count reaches 2^53 — the "
                             "exact double cast would round")
        d = np.abs(ca.astype(np.float64) / np.float64(n1)
                   - cb.astype(np.float64) / np.float64(n2))
        i = int(np.argmax(d))  # first max == smallest c among maxima
        return pa.table({
            "n1": pa.array([n1], pa.int64()),
            "n2": pa.array([n2], pa.int64()),
            "at_cents": pa.array([int(piv.index[i])], pa.int64()),
            "ks": pa.array([float(d[i])], pa.float64()),
        })

    return counts.repartition(1).map_batches(
        finish, batch_format="pyarrow", batch_size=None)


def psi_bins(ds, value_col: str, side_col: str, lo_cents: int,
             hi_cents: int, bins: int, scale: int = 100,
             batch_size: int = 262144):
    """Population Stability Index drift over EXACT equi-width bins — the
    third leg of the drift triad (KS for sketched numeric shape, TVD for
    categorical, PSI for BINNED numeric — the metric credit/ML model
    monitoring actually alarms on; public literature). ``side_col`` is a
    boolean marking the REFERENCE slice (true) vs CURRENT (false).
    Values scale to integers (round-half-away x``scale``) and bin by
    pure INT arithmetic — bin = (cents - lo)*bins // (hi - lo), with
    underflow bin -1 and overflow bin ``bins`` (edge buckets, industry
    practice) — so bin assignment is bit-mirrorable in SQL. Output one
    row per OBSERVED bin: (bin, n_ref, n_cur, p_ref, p_cur, psi_term)
    where p = (n+1)/(N+B) is the add-one-smoothed probability over
    B = bins + 2 buckets (PSI is undefined on empty bins; add-one is
    the standard fix) and psi_term = (p_ref - p_cur) * ln(p_ref/p_cur);
    PSI = sum(psi_term). The int counts and the two probabilities are
    pure per-row functions of exact int64 aggregates (hash-exact vs a
    SQL mirror); psi_term rides along for the caller but is NOT
    hash-mirrorable (ln is not IEEE-correctly-rounded across libms) —
    oracled queries should drop it and re-derive PSI from p_ref/p_cur.

    Scale shape: identical to categorical_drift — per-batch (bin, side)
    count partials through ONE map-side-combined grouped_sums shuffle,
    then a single-task finish over the O(bins)-row table. NULL side or
    NULL value rows drop."""
    import pyarrow.compute as pc

    from jsschema_ray.stages.aggregates import grouped_sums
    from jsschema_ray.stages.windows import round_half_away

    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    if hi_cents <= lo_cents:
        raise ValueError(f"need hi_cents > lo_cents, got "
                         f"[{lo_cents}, {hi_cents})")
    width_total = hi_cents - lo_cents

    def prep(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(batch.column(side_col)),
                       pc.is_valid(batch.column(value_col)))
        b = batch.select([value_col, side_col]).filter(keep)
        v = b.column(value_col).to_numpy(zero_copy_only=False)
        cents = round_half_away(v * scale).astype(np.int64)
        off = cents - lo_cents
        # guard the int64 product (exactness contract, not a clamp)
        if len(off) and np.abs(off).max() > (1 << 62) // max(bins, 1):
            raise ValueError("psi_bins: |cents - lo| * bins exceeds "
                             "int64; widen scale/bounds")
        binned = np.where(
            off < 0, np.int64(-1),
            np.where(off >= width_total, np.int64(bins),
                     off * bins // width_total))
        s = b.column(side_col)
        return pa.table({
            "bin": pa.array(binned.astype(np.int64)),
            "__r": pc.cast(s, pa.int64()),
            "__c": pc.cast(pc.invert(s), pa.int64()),
        })

    counts = grouped_sums(
        ds.select_columns([value_col, side_col]).map_batches(
            prep, batch_format="pyarrow", batch_size=batch_size,
            zero_copy_batch=True,
        ),
        ["bin"], {"n_ref": "__r", "n_cur": "__c"}, count_alias=None,
        batch_size=batch_size,
    ).repartition(1)

    B = bins + 2

    def finish(t: pa.Table) -> pa.Table:
        nr = t.column("n_ref").to_numpy(zero_copy_only=False)
        nc = t.column("n_cur").to_numpy(zero_copy_only=False)
        tr, tc = int(nr.sum()), int(nc.sum())
        p_ref = (nr + 1.0) / float(tr + B)
        p_cur = (nc + 1.0) / float(tc + B)
        term = (p_ref - p_cur) * np.log(p_ref / p_cur)
        return pa.table({
            "bin": t.column("bin"),
            "n_ref": pa.array(nr), "n_cur": pa.array(nc),
            "p_ref": pa.array(p_ref), "p_cur": pa.array(p_cur),
            "psi_term": pa.array(term),
        })

    return counts.map_batches(finish, batch_format="pyarrow",
                              batch_size=None)

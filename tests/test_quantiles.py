"""stages/quantiles — exact distributed selection (k-th smallest /
discrete quantile) via histogram-refinement scans. Differential-tested
against np.sort on adversarial distributions; the ORDER BY/OFFSET SQL
parity runs in test_oracle_parity (percentile_filter)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from jsschema_ray.stages.quantiles import kth_smallest, quantile_disc


def _ds(values, n_blocks=4):
    import ray.data as rd

    t = pa.table({"x": pa.array(values)})
    return rd.from_arrow(t).repartition(n_blocks)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matches_sorted_reference_ints(ray_session, seed):
    rng = np.random.default_rng(seed)
    # heavy duplicates + skew: the hard case for range refinement
    vals = np.concatenate([
        rng.integers(0, 50, size=400),
        np.full(300, 7),
        rng.integers(10**6, 10**9, size=100),
    ]).astype(np.int64)
    rng.shuffle(vals)
    ds = _ds(list(vals))
    ref = np.sort(vals)
    for k in (1, 2, 137, 400, len(vals) // 2, len(vals)):
        got = kth_smallest(ds, "x", k, bins=16, collect_limit=8)
        assert got == ref[k - 1], (k, got, ref[k - 1])
        assert isinstance(got, int)


def test_matches_sorted_reference_floats(ray_session):
    rng = np.random.default_rng(5)
    vals = np.concatenate([rng.normal(size=500),
                           np.full(100, 0.25),
                           [-0.0, 0.0, 1e300, -1e300]])
    rng.shuffle(vals)
    ds = _ds(list(vals.astype(np.float64)))
    ref = np.sort(vals)
    for k in (1, 50, 301, len(vals)):
        got = kth_smallest(ds, "x", k, bins=8, collect_limit=4)
        assert got == ref[k - 1]


def test_nulls_ignored(ray_session):
    ds = _ds([None, 5, None, 1, 3], n_blocks=2)
    assert kth_smallest(ds, "x", 1) == 1
    assert kth_smallest(ds, "x", 3) == 5
    with pytest.raises(ValueError, match="out of range"):
        kth_smallest(ds, "x", 4)


def test_all_equal_terminates(ray_session):
    ds = _ds([9] * 1000)
    assert kth_smallest(ds, "x", 500, bins=4, collect_limit=2) == 9


class TestGroupedQuantileDisc:
    def _run(self, groups, vals, q, n_blocks=3):
        import ray.data as rd

        from jsschema_ray.stages.quantiles import grouped_quantile_disc

        t = pa.table({"g": pa.array(groups), "x": pa.array(vals)})
        ds = rd.from_arrow(t).repartition(n_blocks)
        out = grouped_quantile_disc(ds, "g", "x", q).to_pandas()
        return dict(zip(out.g, out.q_value))

    def test_duckdb_rank_semantics_on_ties(self, ray_session):
        # [5, 5, 7]: QUANTILE_DISC(0.75) = 7 (k = ceil(0.75*3) = 3), while
        # lower-interpolation would give 5 — the distinction that matters
        got = self._run(["a", "a", "a", "b"], [5, 5, 7, 9], 0.75)
        assert got == {"a": 7, "b": 9}
        got = self._run(["a", "a", "a"], [5, 5, 7], 0.5)
        assert got == {"a": 5}

    def test_null_values_dropped_null_group_kept(self, ray_session):
        got = self._run(["a", "a", None, None], [1, None, 3, 4], 0.5)
        # pandas groupby key for the null group round-trips as NaN/None
        vals = {(k if isinstance(k, str) else None): v
                for k, v in got.items()}
        assert vals == {"a": 1, None: 3}

    def test_layout_independent(self, ray_session):
        rng = np.random.default_rng(8)
        groups = list(rng.choice(["x", "y", "z"], size=300))
        vals = list(rng.integers(0, 40, size=300))
        a = self._run(groups, vals, 0.5, n_blocks=1)
        b = self._run(groups, vals, 0.5, n_blocks=9)
        assert a == b
        # cross-check each group against the serial ceil(q*n) rank
        import math
        for g in ("x", "y", "z"):
            sv = np.sort([v for gg, v in zip(groups, vals) if gg == g])
            assert a[g] == sv[max(1, math.ceil(0.5 * len(sv))) - 1]


def test_quantile_disc_rank(ray_session):
    vals = list(range(100))
    ds = _ds(vals)
    # k = floor(q*(n-1)) + 1: q=0 -> min, q=1 -> max, q=0.5 -> 50th (val 49)
    assert quantile_disc(ds, "x", 0.0) == 0
    assert quantile_disc(ds, "x", 1.0) == 99
    assert quantile_disc(ds, "x", 0.5) == 49
    with pytest.raises(ValueError):
        quantile_disc(ds, "x", 1.5)


def test_value_cdf_exact_and_edge_semantics(ray_session):
    """value_cdf vs a numpy-computed CDF: nulls excluded, -0.0 merges
    with 0.0 (SQL GROUP BY), counts integer-exact, layout-independent."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from jsschema_ray.stages.quantiles import value_cdf

    t = pa.table({"v": pa.array(
        [3.0, 1.0, 3.0, None, -0.0, 0.0, 2.5, 1.0, 3.0], pa.float64())})
    for blocks in (1, 3):
        ds = ray.data.from_arrow(t).repartition(blocks)
        out = value_cdf(ds, "v", batch_size=2).to_pandas() \
            .sort_values("v").reset_index(drop=True)
        assert out.v.tolist() == [0.0, 1.0, 2.5, 3.0]
        assert out.n_lt.tolist() == [0, 2, 4, 5]
        assert out.n_le.tolist() == [2, 4, 5, 8]
        assert (out.n_total == 8).all()

    empty = ray.data.from_arrow(pa.table({"v": pa.array([], pa.float64())}))
    assert value_cdf(empty, "v").count() == 0


def test_grouped_mad_matches_duckdb_disc_form(ray_session):
    """grouped_mad == QUANTILE_DISC(|x - QUANTILE_DISC(x,.5)|, .5) on
    skewed data with ties and even group sizes (where interpolation
    would diverge)."""
    import duckdb
    import numpy as np
    import pandas as pd
    import ray.data

    from jsschema_ray.stages.quantiles import grouped_mad

    rng = np.random.default_rng(21)
    pdf = pd.DataFrame({
        "g": rng.choice(["a", "b", "c"], 4000),
        "v": np.round(rng.lognormal(1.0, 1.0, 4000), 1),  # skew + ties
    })
    ds = ray.data.from_pandas(pdf).repartition(5)
    got = grouped_mad(ds, "g", "v", batch_size=512).to_pandas() \
        .sort_values("g").reset_index(drop=True)
    want = duckdb.sql("""
        WITH med AS (SELECT g, QUANTILE_DISC(v, 0.5) m FROM pdf GROUP BY g)
        SELECT pdf.g, QUANTILE_DISC(ABS(v - m), 0.5) AS mad
        FROM pdf JOIN med ON pdf.g = med.g GROUP BY pdf.g ORDER BY pdf.g
    """).df()
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)


@pytest.mark.usefixtures("ray_session")
def test_value_cdf_high_cardinality_multiblock(ray_session):
    """r5 distributed finish: 300k DISTINCT values spread over many input
    partitions must produce the exact global cumsum — the regime where
    the old single-task finish held the whole distinct table in one
    worker. Verifies the per-block base-offset seeding across block
    boundaries (every prefix is exact, not just the total)."""
    import ray.data as rd

    from jsschema_ray.stages.quantiles import value_cdf

    n = 300_000
    rng = np.random.default_rng(13)
    vals = rng.permutation(n).astype(np.float64)  # all distinct
    dup = vals[:5000]  # some repeats so cnt > 1 paths exercise
    allv = np.concatenate([vals, dup])
    ds = rd.from_pandas(pd.DataFrame({"x": allv})).repartition(16)
    got = value_cdf(ds, "x", batch_size=32768).to_pandas() \
        .sort_values("x").reset_index(drop=True)
    assert len(got) == n
    cnt = np.ones(n, dtype=np.int64)
    cnt[np.sort(dup.astype(np.int64))] += 1
    n_le = np.cumsum(cnt)
    np.testing.assert_array_equal(got.n_le.to_numpy(), n_le)
    np.testing.assert_array_equal(got.n_lt.to_numpy(), n_le - cnt)
    assert (got.n_total == len(allv)).all()


class TestGroupedQuantileDiscMultiQ:
    def test_multi_q_matches_single_q_and_duckdb(self, ray_session):
        """qs= multi-quantile single pass == per-q single calls == DuckDB
        QUANTILE_DISC, on data with ties and a null group."""
        import duckdb
        import pandas as pd
        import ray.data as rd

        from jsschema_ray.stages.quantiles import grouped_quantile_disc

        rng = np.random.default_rng(19)
        pdf = pd.DataFrame({
            "g": rng.choice(["a", "b", "c", None], 600),
            "x": rng.integers(0, 25, 600).astype("float64"),
        })
        ds = rd.from_pandas(pdf).repartition(5)
        multi = grouped_quantile_disc(ds, "g", "x", 0.0,
                                      qs=(0.25, 0.5, 0.9)).to_pandas()
        assert list(multi.columns) == ["g", "q25_disc", "q50_disc",
                                       "q90_disc"]
        for q, col in ((0.25, "q25_disc"), (0.5, "q50_disc"),
                       (0.9, "q90_disc")):
            single = grouped_quantile_disc(ds, "g", "x", q).to_pandas()
            a = multi[["g", col]].sort_values("g").reset_index(drop=True)
            b = single.sort_values("g").reset_index(drop=True)
            assert a[col].tolist() == b["q_value"].tolist(), q
        con = duckdb.connect()
        con.register("t", pdf.dropna(subset=["g"]))
        want = con.execute("""
            SELECT g, QUANTILE_DISC(x, 0.25) q25, QUANTILE_DISC(x, 0.5)
                   q50, QUANTILE_DISC(x, 0.9) q90
            FROM t GROUP BY g ORDER BY g
        """).df()
        have = multi.dropna(subset=["g"]).sort_values("g") \
            .reset_index(drop=True)
        assert have.q25_disc.tolist() == want.q25.tolist()
        assert have.q50_disc.tolist() == want.q50.tolist()
        assert have.q90_disc.tolist() == want.q90.tolist()

    def test_high_cardinality_vectorized_selection(self, ray_session):
        """20k distinct groups through one partition-wide searchsorted:
        every group's median equals the serial ceil(q*n) rank."""
        import math

        import pandas as pd
        import ray.data as rd

        from jsschema_ray.stages.quantiles import grouped_quantile_disc

        rng = np.random.default_rng(23)
        n_groups = 20_000
        g = rng.integers(0, n_groups, 120_000)
        x = rng.integers(0, 1000, 120_000).astype("float64")
        ds = rd.from_pandas(pd.DataFrame({"g": g, "x": x})).repartition(8)
        got = grouped_quantile_disc(ds, "g", "x", 0.5).to_pandas() \
            .set_index("g").q_value
        assert len(got) == len(np.unique(g))
        # spot-check 200 groups against the serial rank
        for gid in rng.choice(np.unique(g), 200, replace=False):
            vals = np.sort(x[g == gid])
            k = max(1, math.ceil(0.5 * len(vals)))
            assert got.loc[gid] == vals[k - 1], gid


class TestGroupedQuantileCont:
    def test_matches_numpy_linear_and_duckdb_bits(self, ray_session):
        """grouped_quantile_cont == np.percentile(interpolation='linear')
        per group, AND bit-equal to the manual two-rank DuckDB mirror;
        n=1 group returns its value; NULLs drop."""
        import duckdb
        import pandas as pd
        import ray.data as rd

        from jsschema_ray.stages.quantiles import grouped_quantile_cont

        rng = np.random.default_rng(29)
        pdf = pd.DataFrame({
            "g": rng.choice(["a", "b", "c"], 700),
            "x": np.round(rng.normal(50, 20, 700), 2),
        })
        pdf = pd.concat([pdf, pd.DataFrame({"g": ["one"], "x": [3.25]})],
                        ignore_index=True)
        pdf.loc[rng.choice(700, 30, replace=False), "x"] = np.nan

        ds = rd.from_pandas(pdf).repartition(5)
        for q in (0.25, 0.5, 0.9):
            got = grouped_quantile_cont(ds, "g", "x", q).to_pandas() \
                .sort_values("g").reset_index(drop=True)
            assert list(got.columns) == ["g", "n", "q_cont"]
            kept = pdf.dropna(subset=["x"])
            for gname in ("a", "b", "c", "one"):
                want = np.percentile(kept.x[kept.g == gname], q * 100,
                                     method="linear")
                have = float(got.loc[got.g == gname, "q_cont"].iloc[0])
                np.testing.assert_allclose(have, want, rtol=1e-12), (q,
                                                                     gname)
            assert float(got.loc[got.g == "one", "q_cont"].iloc[0]) == 3.25

            con = duckdb.connect()
            con.register("t", pdf)
            mirror = con.execute(f"""
                WITH v AS (SELECT g, x,
                                  ROW_NUMBER() OVER (PARTITION BY g
                                                     ORDER BY x) AS rn,
                                  COUNT(*) OVER (PARTITION BY g) AS n
                           FROM t WHERE x IS NOT NULL),
                r AS (SELECT g, n, FLOOR((n - 1) * CAST({q} AS DOUBLE)) AS lof,
                             (n - 1) * CAST({q} AS DOUBLE) - FLOOR((n - 1) * CAST({q} AS DOUBLE)) AS frac
                      FROM (SELECT DISTINCT g, n FROM v)),
                lo AS (SELECT r.g, CAST(v.x AS DOUBLE) vlo FROM r JOIN v
                       ON v.g = r.g AND v.rn = CAST(r.lof AS BIGINT) + 1),
                hi AS (SELECT r.g, CAST(v.x AS DOUBLE) vhi FROM r JOIN v
                       ON v.g = r.g
                      AND v.rn = LEAST(CAST(r.lof AS BIGINT) + 2, r.n))
                SELECT r.g AS g, r.n, lo.vlo + (hi.vhi - lo.vlo) * r.frac
                           AS q_cont
                FROM r JOIN lo ON lo.g = r.g JOIN hi ON hi.g = r.g
                ORDER BY r.g
            """).df()
            a = got.q_cont.to_numpy(dtype=np.float64)
            b = mirror.q_cont.to_numpy(dtype=np.float64)
            assert np.array_equal(a, b, equal_nan=True), q
            assert got.n.tolist() == mirror.n.tolist()


def test_decile_assign_matches_cume_dist_mirror(ray_session):
    """decile_assign buckets == the SQL CUME_DIST rule
    LEAST(CEIL(n_le/n * k) - 1, k-1) with peers sharing a bucket; NULL
    values drop; uniform distinct data balances exactly."""
    import duckdb
    import ray.data

    from jsschema_ray.stages.quantiles import decile_assign

    rng = np.random.default_rng(67)
    vals = np.round(rng.normal(100, 30, 900), 1)
    vals[::37] = 55.5  # a heavy tie block spanning bucket boundaries
    pdf = pd.DataFrame({
        "rid": np.arange(903, dtype=np.int64),
        "x": np.r_[vals, [np.nan, np.nan, 12.0]],
    })
    ds = ray.data.from_pandas(pdf).repartition(4)
    got = decile_assign(ds, ["rid"], "x", k=10,
                        batch_size=128).to_pandas() \
        .sort_values("rid").reset_index(drop=True)
    assert len(got) == 901  # the two NULL rows dropped

    con = duckdb.connect()
    con.register("t", pdf)
    want = con.execute("""
        WITH t2 AS (SELECT rid, x FROM t WHERE x IS NOT NULL),
        c AS (SELECT rid, x,
                     COUNT(*) OVER (ORDER BY x) AS n_le,
                     COUNT(*) OVER () AS n_total
              FROM t2)
        SELECT rid,
               LEAST(CAST(CEIL(CAST(n_le AS DOUBLE)
                                / CAST(n_total AS DOUBLE) * 10.0)
                          AS BIGINT) - 1, 9) AS bucket
        FROM c ORDER BY rid
    """).df()
    assert np.array_equal(got.bucket.to_numpy().astype(np.int64),
                          want.bucket.to_numpy().astype(np.int64))
    # ties share one bucket (got carries the value column already)
    assert got[got.x == 55.5].bucket.nunique() == 1

    # distinct uniform values balance exactly for k | n
    pdf2 = pd.DataFrame({"rid": np.arange(400, dtype=np.int64),
                         "x": rng.permutation(400).astype(np.float64)})
    got2 = decile_assign(ray.data.from_pandas(pdf2).repartition(3),
                         ["rid"], "x", k=4).to_pandas()
    counts = got2.bucket.value_counts().sort_index()
    assert counts.index.tolist() == [0, 1, 2, 3]
    assert (counts == 100).all()


def test_decile_assign_k1_and_validation(ray_session):
    """k=1 puts every non-null row in bucket 0; k<1 raises."""
    import ray.data

    from jsschema_ray.stages.quantiles import decile_assign

    pdf = pd.DataFrame({"rid": np.arange(5, dtype=np.int64),
                        "x": [1.0, 2.0, 2.0, None, 3.0]})
    ds = ray.data.from_pandas(pdf)
    got = decile_assign(ds, ["rid"], "x", k=1).to_pandas()
    assert len(got) == 4 and (got.bucket == 0).all()
    with pytest.raises(ValueError):
        decile_assign(ds, ["rid"], "x", k=0)


class TestGroupedWinsorize:
    """grouped_winsorize — per-group quantile clamp, DuckDB CASE mirror."""

    def _run(self, tbl, **kw):
        import ray.data as rd

        from jsschema_ray.stages.quantiles import grouped_winsorize

        return grouped_winsorize(rd.from_arrow(tbl).repartition(3),
                                 "g", "x", **kw).to_pandas()

    def test_matches_duckdb_case_bits(self, ray_session):
        import duckdb

        rng = np.random.default_rng(11)
        n = 4000
        g = rng.choice(["A", "B", "C", None], n).astype(object)
        x = rng.normal(50.0, 20.0, n)
        xm = np.where(rng.random(n) < 0.03, np.nan, x)
        tbl = pa.table({"id": pa.array(np.arange(n)),
                        "g": pa.array(g),
                        "x": pa.array(xm, from_pandas=True)})  # NaN->NULL
        out = self._run(tbl, q_lo=0.25, q_hi=0.75, keep=["id"])
        out = out.sort_values("id").reset_index(drop=True)
        con = duckdb.connect()
        con.register("t", tbl)
        exp = con.execute("""
            WITH q AS (SELECT g, quantile_disc(x, 0.25) AS lo,
                              quantile_disc(x, 0.75) AS hi
                       FROM t GROUP BY g)
            SELECT id, CASE WHEN x IS NULL OR lo IS NULL THEN NULL
                            WHEN x < lo THEN lo WHEN x > hi THEN hi
                            ELSE x END AS winsorized
            FROM t LEFT JOIN q USING (g) ORDER BY id""").df()
        a = out["winsorized"].to_numpy()
        b = exp["winsorized"].to_numpy()
        for i, (u, v) in enumerate(zip(a, b)):
            if pd.isna(u) or pd.isna(v):
                assert pd.isna(u) and pd.isna(v), i
            else:
                assert u.hex() == v.hex(), (i, u, v)  # bit-exact

    def test_nan_clamps_to_hi_like_duckdb(self, ray_session):
        # DuckDB orders NaN above everything, so x > hi is TRUE for NaN
        tbl = pa.table({
            "g": pa.array(["A"] * 5),
            "x": pa.array([1.0, 2.0, 3.0, 4.0, float("nan")]),
        })
        out = self._run(tbl, q_lo=0.2, q_hi=0.8)
        got = sorted(out["winsorized"].tolist())
        # bounds: lo = 1.0 (k=1), hi = 4.0 (k=4); NaN -> 4.0
        assert got == [1.0, 2.0, 3.0, 4.0, 4.0]

    def test_constant_and_singleton_groups(self, ray_session):
        tbl = pa.table({
            "g": pa.array(["A", "A", "B"]),
            "x": pa.array([7.0, 7.0, 3.5]),
        })
        out = self._run(tbl, q_lo=0.1, q_hi=0.9)
        assert out["winsorized"].tolist() == [7.0, 7.0, 3.5]

    def test_validates_quantile_order(self, ray_session):
        tbl = pa.table({"g": pa.array(["A"]), "x": pa.array([1.0])})
        import ray.data as rd

        from jsschema_ray.stages.quantiles import grouped_winsorize

        with pytest.raises(ValueError, match="q_lo"):
            grouped_winsorize(rd.from_arrow(tbl), "g", "x",
                              q_lo=0.9, q_hi=0.1)

    def test_integer_column_input(self, ray_session):
        # bounds from an int64 column come back int64 — finish must
        # cast so the clamp branches agree with the float64 x
        tbl = pa.table({"g": pa.array(["A"] * 6),
                        "x": pa.array([1, 2, 3, 4, 5, 100],
                                      type=pa.int64())})
        out = self._run(tbl, q_lo=0.2, q_hi=0.8)
        got = sorted(out["winsorized"].tolist())
        # lo = 2 (k=ceil(.2*6)=2), hi = 5 (k=ceil(.8*6)=5)
        assert got == [2.0, 2.0, 3.0, 4.0, 5.0, 5.0]

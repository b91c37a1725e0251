"""Map-side-combined grouped aggregates (stages/aggregates) vs exact
pandas computations."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


@pytest.mark.usefixtures("ray_session")
def test_pivot_counts_exact():
    import ray.data

    from jsschema_ray.stages.aggregates import pivot_counts

    rng = np.random.default_rng(3)
    n = 5_000
    pdf = pd.DataFrame({
        "u": rng.integers(0, 40, n).astype("int64"),
        "t": rng.choice(["a", "b", "c", "zzz"], n),  # zzz: out of domain
    })
    ds = ray.data.from_pandas(pdf).repartition(6)
    got = pivot_counts(ds, "u", "t", ["a", "b", "c"], batch_size=512
                       ).to_pandas().sort_values("u").reset_index(drop=True)

    want = (pd.crosstab(pdf["u"], pdf["t"])
            .reindex(columns=["a", "b", "c"], fill_value=0)
            .rename(columns={c: f"n_{c}" for c in "abc"})
            .reset_index().rename_axis(None, axis=1))
    want[["n_a", "n_b", "n_c"]] = want[["n_a", "n_b", "n_c"]].astype("int64")
    pd.testing.assert_frame_equal(
        got[["u", "n_a", "n_b", "n_c"]], want[["u", "n_a", "n_b", "n_c"]],
        check_dtype=False,
    )
    # every u appears (out-of-domain rows drop but users with ONLY zzz
    # rows legitimately vanish — construct one to pin that)
    only = pd.DataFrame({"u": [999], "t": ["zzz"]})
    got2 = pivot_counts(
        ray.data.from_pandas(pd.concat([pdf, only])), "u", "t",
        ["a", "b", "c"],
    ).to_pandas()
    assert 999 not in set(got2["u"])

    with pytest.raises(ValueError):
        pivot_counts(ds, "u", "t", [])
    with pytest.raises(ValueError):
        pivot_counts(ds, "u", "t", ["a", "a"])


@pytest.mark.usefixtures("ray_session")
def test_grouped_count_distinct_exact():
    import ray.data

    from jsschema_ray.stages.aggregates import grouped_count_distinct

    rng = np.random.default_rng(9)
    n = 8_000
    pdf = pd.DataFrame({
        "g": rng.integers(0, 50, n).astype("int64"),
        "x": rng.integers(0, 30, n).astype("int64"),
    })
    ds = ray.data.from_pandas(pdf).repartition(7)
    got = grouped_count_distinct(ds, "g", "x",
                                 batch_size=512).to_pandas()
    got = got.sort_values("g").reset_index(drop=True)
    want = (pdf.groupby("g")["x"].nunique().rename("n_distinct")
            .reset_index())
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_argmax_per_group_deterministic():
    import ray.data

    from jsschema_ray.stages.aggregates import argmax_per_group

    rng = np.random.default_rng(13)
    n = 4_000
    pdf = pd.DataFrame({
        "g": rng.integers(0, 30, n).astype("int64"),
        # quantized values -> many exact ties; tiebreak must decide
        "v": (rng.integers(0, 5, n) * 0.5),
        "id": rng.permutation(n).astype("int64"),
        "payload": rng.integers(0, 10, n).astype("int64"),
    })
    ds = ray.data.from_pandas(pdf).repartition(6)
    got = argmax_per_group(ds, "g", "v", "id",
                           batch_size=256).to_pandas()
    got = got.sort_values("g").reset_index(drop=True)

    want = pdf.sort_values(["g", "v", "id"],
                           ascending=[True, False, True]) \
        .groupby("g", sort=True).head(1).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["g", "v", "id", "payload"]],
        want[["g", "v", "id", "payload"]], check_dtype=False,
    )


@pytest.mark.usefixtures("ray_session")
def test_unpivot_melt_parity():
    import ray.data

    from jsschema_ray.stages.transform import unpivot

    rng = np.random.default_rng(21)
    n = 1_000
    pdf = pd.DataFrame({
        "id": np.arange(n, dtype="int64"),
        "a": rng.normal(size=n),
        "b": rng.normal(size=n),
        "c": rng.integers(0, 5, n).astype("int64"),  # cast to double
    })
    ds = ray.data.from_pandas(pdf).repartition(4)
    got = unpivot(ds, ["id"], ["a", "b", "c"], batch_size=128).to_pandas()
    got = got.sort_values(["id", "name"]).reset_index(drop=True)
    want = pdf.melt(id_vars=["id"], value_vars=["a", "b", "c"],
                    var_name="name", value_name="value")
    want["value"] = want["value"].astype("float64")
    want = want.sort_values(["id", "name"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)

    with pytest.raises(ValueError):
        unpivot(ds, ["id"], [])
    with pytest.raises(ValueError):
        unpivot(ds, ["id", "a"], ["a", "b"])


@pytest.mark.usefixtures("ray_session")
def test_grouped_string_agg_ordered():
    import ray.data

    from jsschema_ray.stages.aggregates import grouped_string_agg

    rng = np.random.default_rng(41)
    n = 2_000
    pdf = pd.DataFrame({
        "u": rng.integers(0, 25, n).astype("int64"),
        "t": rng.choice(list("abcd"), n),
        "ord1": rng.integers(0, 10, n).astype("int64"),  # heavy ties
        "ord2": np.arange(n, dtype="int64"),             # unique tiebreak
    })
    ds = ray.data.from_pandas(pdf).repartition(6)
    got = grouped_string_agg(ds, "u", "t", ["ord1", "ord2"],
                             sep="-").to_pandas()
    got = got.sort_values("u").reset_index(drop=True)
    want = (pdf.sort_values(["u", "ord1", "ord2"])
            .groupby("u")["t"].agg("-".join).rename("path").reset_index())
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_grouped_count_distinct_sql_null_parity():
    """r4 ADVICE fix: COUNT(DISTINCT col) must EXCLUDE null values (SQL)
    while null group keys stay their own group and an all-null group is
    present with n_distinct=0 — differential vs DuckDB. Also pins int64
    exactness above 2^53 (no pandas float64 round-trip anywhere)."""
    import duckdb
    import ray.data

    from jsschema_ray.stages.aggregates import grouped_count_distinct

    big = 1 << 60
    nulls = pa.table({
        "g": pa.array([1, 1, 1, 2, 2, None, None, 3, 3, 4],
                      type=pa.int64()),
        "x": pa.array([big, big + 1, None, None, None, 5, 5, big,
                       big + 1, None], type=pa.int64()),
    })
    # float group key: -0.0 and +0.0 are ONE group in SQL
    zeros = pa.table({"g": [0.0, -0.0, 0.0, -0.0, 1.5],
                      "x": pa.array([1, 2, 3, 4, 5], type=pa.int64())})
    outs = []
    for t in (nulls, zeros):
        got = grouped_count_distinct(
            ray.data.from_arrow(t).repartition(3), "g", "x", batch_size=3,
        ).to_pandas().sort_values("g", na_position="last").reset_index(
            drop=True)
        con = duckdb.connect()
        con.register("t", t)
        want = con.execute(
            "SELECT g, COUNT(DISTINCT x) AS n_distinct FROM t GROUP BY g "
            "ORDER BY g NULLS LAST"
        ).df()
        assert list(got["n_distinct"]) == list(want["n_distinct"])
        pd.testing.assert_frame_equal(got.fillna(-9), want.fillna(-9),
                                      check_dtype=False)
        outs.append(got)
    # all-null group present with 0
    assert outs[0].loc[outs[0]["g"] == 2, "n_distinct"].iloc[0] == 0


@pytest.mark.usefixtures("ray_session")
def test_argmax_per_group_unsigned_and_int64_extremes():
    """r4 ADVICE fix: descending order must not negate — uint64 wraps,
    INT64_MIN overflows. Winners on raw-dtype rank keys."""
    import ray.data

    from jsschema_ray.stages.aggregates import argmax_per_group

    u = np.array([2**64 - 1, 1, 2**63, 5], dtype="uint64")
    pdf = pd.DataFrame({
        "g": np.array([0, 0, 1, 1], dtype="int64"),
        "v": u,
        "id": np.arange(4, dtype="int64"),
    })
    got = argmax_per_group(ray.data.from_pandas(pdf).repartition(2),
                           "g", "v", "id",
                           batch_size=2).to_pandas()
    got = got.sort_values("g").reset_index(drop=True)
    assert list(got["v"]) == [2**64 - 1, 2**63]

    i = np.array([-(2**63), -5, 2**62, -(2**63)], dtype="int64")
    pdf2 = pd.DataFrame({
        "g": np.array([0, 0, 1, 1], dtype="int64"),
        "v": i,
        "id": np.arange(4, dtype="int64"),
    })
    got2 = argmax_per_group(ray.data.from_pandas(pdf2).repartition(2),
                            "g", "v", "id",
                            batch_size=2).to_pandas()
    got2 = got2.sort_values("g").reset_index(drop=True)
    assert list(got2["v"]) == [-5, 2**62]


@pytest.mark.usefixtures("ray_session")
def test_top_n_per_group_matches_pandas_and_handles_ties():
    import ray.data

    from jsschema_ray.stages.aggregates import top_n_per_group

    rng = np.random.default_rng(17)
    n = 4_000
    pdf = pd.DataFrame({
        "g": rng.integers(0, 25, n).astype("int64"),
        # quantized values -> exact ties; tiebreak decides rank order
        "v": (rng.integers(0, 6, n) * 0.5),
        "id": rng.permutation(n).astype("int64"),
    })
    ds = ray.data.from_pandas(pdf).repartition(6)
    got = top_n_per_group(ds, "g", "v", "id", n=3,
                          batch_size=256).to_pandas()
    got = got.sort_values(["g", "rn"]).reset_index(drop=True)

    want = pdf.sort_values(["g", "v", "id"],
                           ascending=[True, False, True]) \
        .groupby("g", sort=True).head(3).reset_index(drop=True)
    want["rn"] = want.groupby("g").cumcount() + 1
    pd.testing.assert_frame_equal(
        got[["g", "v", "id", "rn"]], want[["g", "v", "id", "rn"]],
        check_dtype=False,
    )
    # n=1 degenerates to argmax; groups smaller than n keep all rows
    small = pd.DataFrame({"g": [0, 0, 1], "v": [1.0, 2.0, 5.0],
                          "id": [10, 11, 12]})
    got1 = top_n_per_group(ray.data.from_pandas(small), "g", "v", "id",
                           n=5).to_pandas()
    assert len(got1) == 3 and set(got1["rn"]) <= {1, 2}


@pytest.mark.usefixtures("ray_session")
def test_top_n_per_group_unsigned_values_no_wraparound():
    import ray.data

    from jsschema_ray.stages.aggregates import top_n_per_group

    pdf = pd.DataFrame({
        "g": [0, 0, 0, 1, 1],
        "v": np.array([2**63 + 5, 3, 2**64 - 1, 1, 2], dtype="uint64"),
        "id": np.arange(5, dtype="int64"),
    })
    got = top_n_per_group(ray.data.from_pandas(pdf).repartition(2),
                          "g", "v", "id", n=2).to_pandas()
    got = got.sort_values(["g", "rn"]).reset_index(drop=True)
    assert got["v"].tolist() == [2**64 - 1, 2**63 + 5, 2, 1]
    assert got["rn"].tolist() == [1, 2, 1, 2]


@pytest.mark.usefixtures("ray_session")
def test_grouped_mode_null_and_tie_semantics():
    """grouped_mode: NULL values excluded (SQL aggregate semantics), NULL
    group keys kept as their own group, ties broken by smallest value,
    layout-independent."""
    import ray.data

    from jsschema_ray.stages.aggregates import grouped_mode

    t = pa.table({
        "g": pa.array([1, 1, 1, 2, 2, 2, 2, None, None, 3], pa.int64()),
        #      g=1: a x2, b x1 -> a;  g=2: tie a x1 c x1 (+2 nulls) -> a
        #      g=None: z x2 -> z;     g=3: only null values -> NO row
        "v": pa.array(["a", "a", "b", "c", "a", None, None,
                       "z", "z", None], pa.string()),
    })
    for blocks in (1, 4):
        ds = ray.data.from_arrow(t).repartition(blocks)
        out = grouped_mode(ds, "g", "v", batch_size=3).to_pandas()
        out = out.sort_values("g", na_position="last").reset_index(
            drop=True)
        assert list(out.columns) == ["g", "mode", "n"]
        assert out["mode"].tolist() == ["a", "a", "z"]
        assert out["n"].tolist() == [2, 1, 2]
        assert out["g"].tolist()[:2] == [1, 2] and pd.isna(out["g"][2])


@pytest.mark.usefixtures("ray_session")
def test_rollup_sums_three_levels_exact():
    """rollup_sums over 2 keys == the three pandas level aggregates with
    the SQL GROUPING bitmask; layout-independent."""
    import ray.data

    from jsschema_ray.stages.aggregates import rollup_sums

    rng = np.random.default_rng(9)
    pdf = pd.DataFrame({
        "a": rng.choice(["x", "y", "z"], 3000),
        "b": rng.choice(["p", "q"], 3000),
        "v": rng.integers(-100, 100, 3000).astype("int64"),
    })
    for blocks in (1, 5):
        ds = ray.data.from_pandas(pdf).repartition(blocks)
        got = rollup_sums(ds, ["a", "b"], {"sv": "v"}, batch_size=256
                          ).to_pandas()
        lv0 = got[got.grouping_id == 0].sort_values(["a", "b"])
        lv1 = got[got.grouping_id == 1].sort_values("a")
        lv2 = got[got.grouping_id == 3]
        w0 = pdf.groupby(["a", "b"]).agg(sv=("v", "sum"),
                                         n=("v", "size")).reset_index()
        w1 = pdf.groupby("a").agg(sv=("v", "sum"),
                                  n=("v", "size")).reset_index()
        assert lv0[["a", "b", "sv", "n"]].reset_index(drop=True).equals(
            w0.sort_values(["a", "b"]).reset_index(drop=True))
        assert lv1.b.isna().all()
        assert lv1[["a", "sv", "n"]].reset_index(drop=True).astype(
            {"sv": "int64", "n": "int64"}).equals(
            w1.sort_values("a").reset_index(drop=True).astype(
                {"sv": "int64", "n": "int64"}))
        assert len(lv2) == 1 and lv2.a.isna().all() and lv2.b.isna().all()
        assert int(lv2.sv.iloc[0]) == int(pdf.v.sum())
        assert int(lv2.n.iloc[0]) == len(pdf)
        assert len(got) == len(w0) + len(w1) + 1


@pytest.mark.usefixtures("ray_session")
def test_cube_sums_all_subsets_exact():
    """cube_sums over 2 keys == all four pandas subset aggregates with
    the GROUPING bitmask; grouping_sets_sums validates its set list."""
    import ray.data

    from jsschema_ray.stages.aggregates import cube_sums, grouping_sets_sums

    rng = np.random.default_rng(13)
    pdf = pd.DataFrame({
        "a": rng.choice(["x", "y"], 2000),
        "b": rng.choice(["p", "q", "r"], 2000),
        "v": rng.integers(0, 50, 2000).astype("int64"),
    })
    ds = ray.data.from_pandas(pdf).repartition(4)
    got = cube_sums(ds, ["a", "b"], {"sv": "v"}, batch_size=256).to_pandas()
    # gid 2 = the rollup-unreachable (b)-only slice
    lvb = got[got.grouping_id == 2].sort_values("b").reset_index(drop=True)
    wb = pdf.groupby("b").agg(sv=("v", "sum"), n=("v", "size")) \
        .reset_index()
    assert lvb.a.isna().all()
    assert lvb[["b", "sv", "n"]].astype({"sv": "int64", "n": "int64"}) \
        .equals(wb.astype({"sv": "int64", "n": "int64"}))
    assert sorted(got.grouping_id.unique()) == [0, 1, 2, 3]
    assert len(got[got.grouping_id == 3]) == 1
    assert int(got[got.grouping_id == 3].sv.iloc[0]) == int(pdf.v.sum())

    with pytest.raises(ValueError):
        grouping_sets_sums(ds, ["a", "b"], [["a"], ["a"]], {"sv": "v"})
    with pytest.raises(ValueError):
        grouping_sets_sums(ds, ["a", "b"], [["zz"]], {"sv": "v"})


@pytest.mark.usefixtures("ray_session")
def test_rollup_single_key_and_name_collision_guards():
    import ray.data

    from jsschema_ray.stages.aggregates import rollup_sums

    pdf = pd.DataFrame({"a": ["x", "y", "x"],
                        "v": np.array([1, 2, 3], dtype="int64")})
    ds = ray.data.from_pandas(pdf)
    got = rollup_sums(ds, ["a"], {"sv": "v"}).to_pandas()
    lv0 = got[got.grouping_id == 0].sort_values("a")
    assert lv0.sv.tolist() == [4, 2]
    total = got[got.grouping_id == 1]
    assert len(total) == 1 and int(total.sv.iloc[0]) == 6 \
        and int(total.n.iloc[0]) == 3 and total.a.isna().all()

    with pytest.raises(ValueError, match="collide"):
        rollup_sums(ds, ["a"], {"n": "v"})  # collides with count_alias
    with pytest.raises(ValueError, match="collide"):
        rollup_sums(ds, ["grouping_id"], {"sv": "v"})


@pytest.mark.usefixtures("ray_session")
def test_grouped_moments_exact_and_guard():
    """grouped_moments == hand-computed integer moment sums; null pairs
    drop; correlation derived from the sums matches numpy; overflow
    guard raises."""
    import ray.data

    from jsschema_ray.stages.aggregates import grouped_moments

    rng = np.random.default_rng(37)
    n = 3000
    pdf = pd.DataFrame({
        "g": rng.choice(["a", "b"], n),
        "x": np.round(rng.normal(10, 3, n), 2),
        "y": np.round(rng.normal(5, 1, n), 2),
    })
    pdf.loc[rng.choice(n, 30, replace=False), "y"] = np.nan
    ds = ray.data.from_pandas(pdf).repartition(5)
    got = grouped_moments(ds, "g", "x", "y", batch_size=256).to_pandas() \
        .sort_values("g").reset_index(drop=True)
    kept = pdf.dropna(subset=["x", "y"])
    xv = np.round(kept.x * 100).astype("int64")
    yv = np.round(kept.y * 100).astype("int64")
    for _, row in got.iterrows():
        m = kept.g == row.g
        assert row.n == int(m.sum())
        assert row.sx == int(xv[m.values].sum())
        assert row.sxy == int((xv[m.values] * yv[m.values]).sum())
        # derived correlation matches numpy on the same float data
        nn = row.n
        cov = row.sxy / nn - (row.sx / nn) * (row.sy / nn)
        vx = row.sxx / nn - (row.sx / nn) ** 2
        vy = row.syy / nn - (row.sy / nn) ** 2
        r = cov / np.sqrt(vx * vy)
        want_r = np.corrcoef(xv[m.values], yv[m.values])[0, 1]
        np.testing.assert_allclose(r, want_r, rtol=1e-10)

    with pytest.raises(Exception):
        big = pd.DataFrame({"g": ["a"], "x": [3e7], "y": [1.0]})
        grouped_moments(ray.data.from_pandas(big), "g", "x", "y") \
            .materialize()


def test_grouped_corr_matches_numpy_and_duckdb_bits():
    """grouped_corr == np.corrcoef on the rounded ints (tolerance), AND
    bit-equal to the DuckDB mirror expression (the oracle contract);
    zero-variance group yields NULL corr."""
    import duckdb
    import ray.data

    from jsschema_ray.stages.aggregates import grouped_corr

    rng = np.random.default_rng(41)
    n = 4000
    pdf = pd.DataFrame({
        "g": rng.choice(["a", "b", "c"], n),
        "x": np.round(rng.normal(10, 3, n), 2),
        "y": np.round(rng.normal(5, 1, n), 2),
    })
    # group c: y anti-correlates; group z: constant x (zero variance)
    cm = pdf.g == "c"
    pdf.loc[cm, "y"] = np.round(-2.0 * pdf.loc[cm, "x"]
                                + rng.normal(0, 0.5, int(cm.sum())), 2)
    pdf = pd.concat([pdf, pd.DataFrame(
        {"g": ["z"] * 50, "x": 7.0, "y": rng.normal(1, 1, 50)})],
        ignore_index=True)
    pdf.loc[rng.choice(n, 40, replace=False), "y"] = np.nan

    ds = ray.data.from_pandas(pdf).repartition(7)
    got = grouped_corr(ds, "g", "x", "y", batch_size=512).to_pandas() \
        .sort_values("g").reset_index(drop=True)

    assert list(got.columns) == ["g", "n", "corr_xy", "cov_scaled"]
    assert got.loc[got.g == "z", "corr_xy"].isna().all()
    kept = pdf.dropna(subset=["x", "y"])
    for gname, want_sign in [("a", None), ("b", None), ("c", -1)]:
        m = (kept.g == gname).values
        xv = np.round(kept.x[m] * 100).astype("int64")
        yv = np.round(kept.y[m] * 100).astype("int64")
        want = np.corrcoef(xv, yv)[0, 1]
        have = float(got.loc[got.g == gname, "corr_xy"].iloc[0])
        np.testing.assert_allclose(have, want, rtol=1e-9)
        if want_sign:
            assert np.sign(have) == want_sign
        assert abs(float(got.loc[got.g == gname, "corr_xy"].iloc[0])) <= 1.0

    # bit-parity with the DuckDB mirror (same casts, same op order)
    con = duckdb.connect()
    con.register("t", pdf)
    mirror = con.execute("""
        WITH s AS (SELECT g, CAST(ROUND(x * 100) AS BIGINT) AS xv,
                          CAST(ROUND(y * 100) AS BIGINT) AS yv
                   FROM t WHERE x IS NOT NULL AND y IS NOT NULL),
        m AS (SELECT g, CAST(COUNT(*) AS DOUBLE) AS fn, COUNT(*) AS n,
                     CAST(SUM(xv) AS DOUBLE) AS sx,
                     CAST(SUM(yv) AS DOUBLE) AS sy,
                     CAST(SUM(xv * xv) AS DOUBLE) AS sxx,
                     CAST(SUM(yv * yv) AS DOUBLE) AS syy,
                     CAST(SUM(xv * yv) AS DOUBLE) AS sxy
              FROM s GROUP BY g)
        SELECT g, n,
               CASE WHEN (fn * sxx - sx * sx) * (fn * syy - sy * sy) > 0
                    THEN (fn * sxy - sx * sy)
                         / SQRT((fn * sxx - sx * sx)
                                * (fn * syy - sy * sy))
                    ELSE NULL END AS corr_xy,
               (fn * sxy - sx * sy) / (fn * fn) AS cov_scaled
        FROM m ORDER BY g
    """).df()
    for col in ("corr_xy", "cov_scaled"):
        a = got[col].to_numpy(dtype=np.float64)
        b = mirror[col].to_numpy(dtype=np.float64)
        assert np.array_equal(a, b, equal_nan=True), col


def test_grouped_linreg_matches_numpy_and_duckdb_bits():
    """grouped_linreg == np.polyfit on the rounded ints (tolerance) AND
    bit-equal to the DuckDB mirror; zero-x-variance group yields NULL."""
    import duckdb
    import ray.data

    from jsschema_ray.stages.aggregates import grouped_linreg

    rng = np.random.default_rng(43)
    n = 3000
    pdf = pd.DataFrame({
        "g": rng.choice(["a", "b"], n),
        "x": np.round(rng.uniform(1, 50, n), 2),
    })
    pdf["y"] = np.round(3.5 * pdf.x + rng.normal(0, 4, n) +
                        np.where(pdf.g == "b", 100.0, 0.0), 2)
    pdf = pd.concat([pdf, pd.DataFrame(
        {"g": ["z"] * 40, "x": 5.0, "y": rng.normal(1, 1, 40)})],
        ignore_index=True)
    pdf.loc[rng.choice(n, 25, replace=False), "y"] = np.nan

    ds = ray.data.from_pandas(pdf).repartition(6)
    got = grouped_linreg(ds, "g", "x", "y", batch_size=512).to_pandas() \
        .sort_values("g").reset_index(drop=True)
    assert list(got.columns) == ["g", "n", "slope", "intercept"]
    assert got.loc[got.g == "z", ["slope", "intercept"]].isna().all().all()

    kept = pdf.dropna(subset=["x", "y"])
    for gname in ("a", "b"):
        m = (kept.g == gname).values
        xv = np.round(kept.x[m] * 100).astype("int64").to_numpy()
        yv = np.round(kept.y[m] * 100).astype("int64").to_numpy()
        want_slope, want_icpt = np.polyfit(
            xv.astype(np.float64), yv.astype(np.float64), 1)
        row = got.loc[got.g == gname]
        np.testing.assert_allclose(float(row.slope.iloc[0]), want_slope,
                                   rtol=1e-8)
        np.testing.assert_allclose(float(row.intercept.iloc[0]),
                                   want_icpt, rtol=1e-6)
        np.testing.assert_allclose(float(row.slope.iloc[0]), 3.5,
                                   rtol=0.05)

    con = duckdb.connect()
    con.register("t", pdf)
    mirror = con.execute("""
        WITH s AS (SELECT g, CAST(ROUND(x * 100) AS BIGINT) AS xv,
                          CAST(ROUND(y * 100) AS BIGINT) AS yv
                   FROM t WHERE x IS NOT NULL AND y IS NOT NULL),
        m AS (SELECT g, CAST(COUNT(*) AS DOUBLE) AS fn, COUNT(*) AS n,
                     CAST(SUM(xv) AS DOUBLE) AS sx,
                     CAST(SUM(yv) AS DOUBLE) AS sy,
                     CAST(SUM(xv * xv) AS DOUBLE) AS sxx,
                     CAST(SUM(xv * yv) AS DOUBLE) AS sxy
              FROM s GROUP BY g)
        SELECT g, n,
               CASE WHEN fn * sxx - sx * sx > 0
                    THEN (fn * sxy - sx * sy) / (fn * sxx - sx * sx)
                    ELSE NULL END AS slope,
               CASE WHEN fn * sxx - sx * sx > 0
                    THEN (sy - ((fn * sxy - sx * sy)
                                / (fn * sxx - sx * sx)) * sx) / fn
                    ELSE NULL END AS intercept
        FROM m ORDER BY g
    """).df()
    for col in ("slope", "intercept"):
        a = got[col].to_numpy(dtype=np.float64)
        b = mirror[col].to_numpy(dtype=np.float64)
        assert np.array_equal(a, b, equal_nan=True), col


def test_grouped_stddev_matches_numpy_and_duckdb_bits(ray_session):
    """grouped_stddev == np.std(ddof=1) on the rounded ints (tolerance),
    AND bit-equal to the DuckDB mirror expression (the oracle contract);
    n=1 group yields NULL var/stddev, constant group yields 0.0, NULLs
    drop."""
    import duckdb
    import ray.data

    from jsschema_ray.stages.aggregates import grouped_stddev

    rng = np.random.default_rng(47)
    n = 4000
    pdf = pd.DataFrame({
        "g": rng.choice(["a", "b", "c"], n),
        "x": np.round(rng.normal(20, 6, n), 2),
    })
    pdf = pd.concat([pdf,
                     pd.DataFrame({"g": ["one"], "x": [4.25]}),
                     pd.DataFrame({"g": ["z"] * 30, "x": 7.5})],
                    ignore_index=True)
    pdf.loc[rng.choice(n, 35, replace=False), "x"] = np.nan

    ds = ray.data.from_pandas(pdf).repartition(7)
    got = grouped_stddev(ds, "g", "x", batch_size=512).to_pandas() \
        .sort_values("g").reset_index(drop=True)
    assert list(got.columns) == ["g", "n", "mean_x", "var_samp",
                                 "stddev_samp"]
    one = got.loc[got.g == "one"]
    assert int(one.n.iloc[0]) == 1
    assert one.var_samp.isna().all() and one.stddev_samp.isna().all()
    assert float(one.mean_x.iloc[0]) == 4.25
    zz = got.loc[got.g == "z"]
    assert float(zz.var_samp.iloc[0]) == 0.0
    assert float(zz.stddev_samp.iloc[0]) == 0.0

    kept = pdf.dropna(subset=["x"])
    for gname in ("a", "b", "c"):
        xv = np.round(kept.x[kept.g == gname] * 100).astype("int64") \
            .to_numpy()
        row = got.loc[got.g == gname]
        np.testing.assert_allclose(float(row.stddev_samp.iloc[0]),
                                   np.std(xv, ddof=1) / 100.0, rtol=1e-9)
        np.testing.assert_allclose(float(row.var_samp.iloc[0]),
                                   np.var(xv, ddof=1) / 1e4, rtol=1e-9)
        np.testing.assert_allclose(float(row.mean_x.iloc[0]),
                                   xv.mean() / 100.0, rtol=1e-12)

    con = duckdb.connect()
    con.register("t", pdf)
    mirror = con.execute("""
        WITH s AS (SELECT g, CAST(ROUND(x * 100) AS BIGINT) AS xv
                   FROM t WHERE x IS NOT NULL),
        m AS (SELECT g, COUNT(*) AS n, CAST(COUNT(*) AS DOUBLE) AS fn,
                     CAST(SUM(xv) AS DOUBLE) AS sx,
                     CAST(SUM(xv * xv) AS DOUBLE) AS sxx
              FROM s GROUP BY g)
        SELECT g, n, sx / fn / 100.0 AS mean_x,
               CASE WHEN n < 2 THEN NULL
                    WHEN fn * sxx - sx * sx <= 0 THEN 0.0
                    ELSE (fn * sxx - sx * sx) / (fn * (fn - 1.0))
                         / 10000.0 END AS var_samp,
               CASE WHEN n < 2 THEN NULL
                    WHEN fn * sxx - sx * sx <= 0 THEN 0.0
                    ELSE SQRT((fn * sxx - sx * sx) / (fn * (fn - 1.0)))
                         / 100.0 END AS stddev_samp
        FROM m ORDER BY g
    """).df()
    for col in ("mean_x", "var_samp", "stddev_samp"):
        a = got[col].to_numpy(dtype=np.float64)
        b = mirror[col].to_numpy(dtype=np.float64)
        assert np.array_equal(a, b, equal_nan=True), col

    # per-value overflow guard
    with pytest.raises(Exception):
        big = pd.DataFrame({"g": ["a"], "x": [3e7]})
        grouped_stddev(ray.data.from_pandas(big), "g", "x").materialize()


def test_grouped_weighted_mean_matches_numpy_and_duckdb_bits(ray_session):
    """grouped_weighted_mean == np.average(weights=) on the rounded ints
    (tolerance) AND bit-equal to the DuckDB mirror; all-zero-weight group
    yields NULL; NULL x or w rows drop."""
    import duckdb
    import ray.data

    from jsschema_ray.stages.aggregates import grouped_weighted_mean

    rng = np.random.default_rng(53)
    n = 3000
    pdf = pd.DataFrame({
        "g": rng.choice(["a", "b"], n),
        "x": np.round(rng.normal(5, 2, n), 2),
        "w": np.round(rng.uniform(0, 100, n), 2),
    })
    pdf = pd.concat([pdf, pd.DataFrame(
        {"g": ["z"] * 5, "x": 3.0, "w": 0.0})], ignore_index=True)
    pdf.loc[rng.choice(n, 20, replace=False), "x"] = np.nan
    pdf.loc[rng.choice(n, 20, replace=False), "w"] = np.nan

    ds = ray.data.from_pandas(pdf).repartition(6)
    got = grouped_weighted_mean(ds, "g", "x", "w", batch_size=512) \
        .to_pandas().sort_values("g").reset_index(drop=True)
    assert list(got.columns) == ["g", "n", "wmean"]
    assert got.loc[got.g == "z", "wmean"].isna().all()

    kept = pdf.dropna(subset=["x", "w"])
    for gname in ("a", "b"):
        m = (kept.g == gname).values
        xv = np.round(kept.x[m] * 100).astype("int64").to_numpy()
        wv = np.round(kept.w[m] * 100).astype("int64").to_numpy()
        want = np.average(xv.astype(np.float64),
                          weights=wv.astype(np.float64)) / 100.0
        np.testing.assert_allclose(
            float(got.loc[got.g == gname, "wmean"].iloc[0]), want,
            rtol=1e-12)

    con = duckdb.connect()
    con.register("t", pdf)
    mirror = con.execute("""
        WITH s AS (SELECT g, CAST(ROUND(x * 100) AS BIGINT) AS xv,
                          CAST(ROUND(w * 100) AS BIGINT) AS wv
                   FROM t WHERE x IS NOT NULL AND w IS NOT NULL),
        m AS (SELECT g, COUNT(*) AS n,
                     CAST(SUM(xv * wv) AS DOUBLE) AS fswx,
                     CAST(SUM(wv) AS DOUBLE) AS fsw
              FROM s GROUP BY g)
        SELECT g, n, CASE WHEN fsw = 0 THEN NULL
                          ELSE fswx / fsw / 100.0 END AS wmean
        FROM m ORDER BY g
    """).df()
    a = got.wmean.to_numpy(dtype=np.float64)
    b = mirror.wmean.to_numpy(dtype=np.float64)
    assert np.array_equal(a, b, equal_nan=True)
    assert got.n.tolist() == mirror.n.tolist()

    with pytest.raises(Exception):
        big = pd.DataFrame({"g": ["a"], "x": [3e7], "w": [1.0]})
        grouped_weighted_mean(ray.data.from_pandas(big), "g", "x",
                              "w").materialize()


def test_grouped_zscore_matches_scipy_reference_and_nulls(ray_session):
    """grouped_zscore == (xq - mean)/std per group on the quantized
    values; NULL x rows, n=1 groups and zero-variance groups yield NULL
    zscore; other columns ride through."""
    import ray.data

    from jsschema_ray.stages.aggregates import grouped_zscore

    rng = np.random.default_rng(59)
    n = 2000
    pdf = pd.DataFrame({
        "rid": np.arange(n, dtype=np.int64),
        "g": rng.choice(["a", "b"], n),
        "x": np.round(rng.normal(10, 4, n), 2),
    })
    pdf.loc[0, "x"] = np.nan
    pdf = pd.concat([pdf, pd.DataFrame(
        {"rid": [n, n + 1, n + 2], "g": ["one", "z", "z"],
         "x": [5.0, 7.0, 7.0]})], ignore_index=True)

    ds = ray.data.from_pandas(pdf).repartition(5)
    got = grouped_zscore(ds, "g", "x", keep=["rid"], batch_size=256) \
        .to_pandas().sort_values("rid").reset_index(drop=True)
    assert got.loc[got.g == "one", "zscore"].isna().all()   # n = 1
    assert got.loc[got.g == "z", "zscore"].isna().all()     # zero var
    assert np.isnan(got.loc[0, "zscore"])                   # NULL x

    for gname in ("a", "b"):
        sub = pdf[(pdf.g == gname) & pdf.x.notna()]
        xq = np.round(sub.x * 100).astype("int64").to_numpy() / 100.0
        mean, std = xq.mean(), xq.std(ddof=1)
        have = got[(got.g == gname) & got.zscore.notna()] \
            .set_index("rid").zscore
        want = (xq - mean) / std
        np.testing.assert_allclose(
            have.loc[sub.rid.to_numpy()].to_numpy(), want, rtol=1e-9)


def test_grouped_zscore_null_group_matches_sql_left_join(ray_session):
    """Review-finding pin: rows whose group is NULL (or whose group has
    no statistics) survive with a NULL zscore, and the engine's
    broadcast join follows SQL NULL-key semantics (a NULL group never
    matches its own stats row) — bit-parity with the LEFT JOIN mirror."""
    import duckdb
    import ray.data

    from jsschema_ray.stages.aggregates import grouped_zscore

    pdf = pd.DataFrame({
        "rid": np.arange(9, dtype=np.int64),
        "g": [None, None, None, "B", "B", "B", "C", "C", "A"],
        "x": [1.0, 2.0, 9.0, 5.0, 6.0, 7.0, None, None, 4.0],
    })
    ds = ray.data.from_pandas(pdf).repartition(3)
    got = grouped_zscore(ds, "g", "x", keep=["rid"]).to_pandas() \
        .sort_values("rid").reset_index(drop=True)
    assert len(got) == len(pdf)  # every row survives
    # NULL group: never matches stats (SQL NULL-key join semantics),
    # even though its 3 valid values would define a variance
    assert got[got.g.isna()].zscore.isna().all()
    assert got[got.g == "C"].zscore.isna().all()  # all-NULL x group
    assert got[got.g == "A"].zscore.isna().all()  # n=1 group

    con = duckdb.connect()
    con.register("t", pdf)
    mirror = con.execute("""
        WITH s AS (SELECT g, CAST(ROUND(x * 100) AS BIGINT) AS xv
                   FROM t WHERE x IS NOT NULL),
        m AS (SELECT g, COUNT(*) AS n, CAST(COUNT(*) AS DOUBLE) AS fn,
                     CAST(SUM(xv) AS DOUBLE) AS sx,
                     CAST(SUM(xv * xv) AS DOUBLE) AS sxx
              FROM s GROUP BY g),
        st AS (SELECT g, sx / fn / 100.0 AS mean_x,
                      CASE WHEN n < 2 THEN NULL
                           WHEN fn * sxx - sx * sx <= 0 THEN 0.0
                           ELSE SQRT((fn * sxx - sx * sx)
                                     / (fn * (fn - 1.0))) / 100.0
                      END AS sd FROM m)
        SELECT t.rid,
               CASE WHEN t.x IS NULL OR st.sd IS NULL OR st.sd = 0
                    THEN NULL
                    ELSE (CAST(ROUND(t.x * 100) AS BIGINT) / 100.0
                          - st.mean_x) / st.sd END AS zscore
        FROM t LEFT JOIN st ON t.g = st.g
        ORDER BY t.rid
    """).df()
    a = got.zscore.to_numpy(dtype=np.float64)
    b = mirror.zscore.to_numpy(dtype=np.float64)
    assert np.array_equal(a, b, equal_nan=True)


def test_grouped_minmax_scale_reference_nulls_and_sql_bits(ray_session):
    """grouped_minmax_scale == (xv - min)/(max - min) per group on the
    quantized ints; NULL x, NULL group (SQL LEFT-join semantics),
    all-NULL-x groups and constant groups yield NULL; float64 bits match
    the spelled DuckDB mirror exactly."""
    import duckdb
    import ray.data

    from jsschema_ray.stages.aggregates import grouped_minmax_scale

    rng = np.random.default_rng(61)
    n = 1500
    pdf = pd.DataFrame({
        "rid": np.arange(n, dtype=np.int64),
        "g": rng.choice(["a", "b", "c"], n),
        "x": np.round(rng.normal(50, 20, n), 2),
    })
    pdf.loc[0, "x"] = np.nan
    extra = pd.DataFrame({
        "rid": [n, n + 1, n + 2, n + 3, n + 4],
        "g": ["const", "const", None, "nullx", "one"],
        "x": [7.0, 7.0, 3.0, None, 9.0],
    })
    pdf = pd.concat([pdf, extra], ignore_index=True)

    ds = ray.data.from_pandas(pdf).repartition(5)
    got = grouped_minmax_scale(ds, "g", "x", keep=["rid"],
                               batch_size=256).to_pandas() \
        .sort_values("rid").reset_index(drop=True)
    assert len(got) == len(pdf)
    assert np.isnan(got.loc[0, "minmax"])                    # NULL x
    assert got[got.g == "const"].minmax.isna().all()         # max == min
    assert got[got.g.isna()].minmax.isna().all()             # NULL group
    assert got[got.g == "nullx"].minmax.isna().all()         # no stats
    assert got[got.g == "one"].minmax.isna().all()           # n=1 const

    for gname in ("a", "b", "c"):
        sub = pdf[(pdf.g == gname) & pdf.x.notna()]
        xv = np.round(sub.x * 100).astype("int64").to_numpy()
        want = (xv - xv.min()).astype(np.float64) / float(
            xv.max() - xv.min())
        have = got[got.g == gname].dropna(subset=["minmax"]) \
            .set_index("rid").minmax.loc[sub.rid.to_numpy()].to_numpy()
        assert np.array_equal(have, want)
        assert have.min() == 0.0 and have.max() == 1.0

    con = duckdb.connect()
    con.register("t", pdf)
    mirror = con.execute("""
        WITH s AS (SELECT g, CAST(ROUND(x * 100) AS BIGINT) AS xv
                   FROM t WHERE x IS NOT NULL),
        m AS (SELECT g, MIN(xv) AS xmin, MAX(xv) AS xmax
              FROM s GROUP BY g)
        SELECT t.rid,
               CASE WHEN t.x IS NULL OR m.xmin IS NULL
                         OR m.xmax = m.xmin THEN NULL
                    ELSE CAST(CAST(ROUND(t.x * 100) AS BIGINT) - m.xmin
                              AS DOUBLE)
                         / CAST(m.xmax - m.xmin AS DOUBLE)
               END AS minmax
        FROM t LEFT JOIN m USING (g) ORDER BY t.rid
    """).df()
    a = got.minmax.to_numpy()
    b = mirror.minmax.to_numpy()
    assert np.array_equal(np.isnan(a), np.isnan(b))
    assert np.array_equal(a[~np.isnan(a)], b[~np.isnan(b)])  # bit-exact


def test_grouped_minmax_scale_overflow_guard(ray_session):
    """Values whose quantized magnitude reaches 2^52 (float64 exactness
    boundary for the int differences) raise instead of silently losing
    bits."""
    import ray.data

    from jsschema_ray.stages.aggregates import grouped_minmax_scale

    big = pd.DataFrame({"g": ["a", "a"], "x": [5e13, 1.0]})
    with pytest.raises(Exception):
        grouped_minmax_scale(ray.data.from_pandas(big), "g",
                             "x").materialize()


class TestCooccurrenceCounts:
    """cooccurrence_counts — market-basket pair counts vs brute force
    and the DuckDB DISTINCT self-join mirror."""

    def _run(self, tbl, **kw):
        import ray.data as rd

        from jsschema_ray.stages.aggregates import cooccurrence_counts

        out = cooccurrence_counts(rd.from_arrow(tbl).repartition(4),
                                  "k", "v", **kw).to_pandas()
        return out.sort_values(["item_a", "item_b"]).reset_index(drop=True)

    def test_matches_bruteforce_and_duckdb(self, ray_session):
        import collections
        import itertools

        import duckdb

        rng = np.random.default_rng(3)
        n = 6000
        k = rng.integers(0, 300, n)
        v = rng.choice(list("abcdefghij"), n).astype(object)
        # sprinkle NULLs on both sides — they must drop
        kcol = pa.array([None if rng.random() < 0.02 else int(x)
                         for x in k], type=pa.int64())
        vcol = pa.array([None if rng.random() < 0.02 else s
                         for s in v])
        tbl = pa.table({"k": kcol, "v": vcol})
        out = self._run(tbl)

        df = tbl.to_pandas().dropna(subset=["k", "v"])
        seen = collections.Counter()
        for _, grp in df.groupby("k"):
            for a, b in itertools.combinations(sorted(grp["v"].unique()),
                                               2):
                seen[(a, b)] += 1
        exp = pd.DataFrame(
            [(a, b, c) for (a, b), c in sorted(seen.items())],
            columns=["item_a", "item_b", "n_keys"])
        pd.testing.assert_frame_equal(out, exp.astype(out.dtypes))

        con = duckdb.connect()
        con.register("t", tbl)
        sql = con.execute("""
            WITH ut AS (SELECT DISTINCT k, v FROM t
                        WHERE k IS NOT NULL AND v IS NOT NULL)
            SELECT a.v AS item_a, b.v AS item_b, COUNT(*) AS n_keys
            FROM ut a JOIN ut b ON a.k = b.k AND a.v < b.v
            GROUP BY 1, 2 ORDER BY item_a, item_b""").df()
        pd.testing.assert_frame_equal(out, sql.astype(out.dtypes))

    def test_duplicate_rows_count_once_per_key(self, ray_session):
        tbl = pa.table({"k": pa.array([1, 1, 1, 1, 2, 2]),
                        "v": pa.array(["a", "a", "b", "b", "a", "b"])})
        out = self._run(tbl)
        assert out.values.tolist() == [["a", "b", 2]]

    def test_single_item_keys_emit_nothing(self, ray_session):
        import ray.data as rd

        from jsschema_ray.stages.aggregates import cooccurrence_counts

        tbl = pa.table({"k": pa.array([1, 2, 3]),
                        "v": pa.array(["a", "b", "c"])})
        out = cooccurrence_counts(rd.from_arrow(tbl).repartition(4),
                                  "k", "v")
        # an all-empty result hits the documented Ray boundary wart
        # (SURVEY §8.15: 0-row Datasets lose their schema at to_pandas),
        # so assert on the count, not the pandas frame
        assert out.count() == 0

    def test_hot_key_guard_raises(self, ray_session):
        n_items = 30
        tbl = pa.table({"k": pa.array([1] * n_items),
                        "v": pa.array([f"v{i:03d}" for i in range(n_items)])})
        with pytest.raises(Exception, match="max_items_per_key"):
            self._run(tbl, max_items_per_key=29)
        # exactly at the cap is fine: C(30, 2) pairs, each count 1
        out = self._run(tbl, max_items_per_key=30)
        assert len(out) == n_items * (n_items - 1) // 2
        assert (out["n_keys"] == 1).all()


class TestPricingSummary:
    """pricing_summary (TPC-H Q1) — bit-exact vs the DuckDB mirror,
    NULL drops, overflow guards."""

    def test_matches_duckdb_bits(self, ray_session):
        import duckdb

        import ray.data as rd

        from jsschema_ray.stages.aggregates import pricing_summary

        rng = np.random.default_rng(17)
        n = 3000
        tbl = pa.table({
            "f": pa.array(rng.choice(["A", "N", "R"], n)),
            "s": pa.array(rng.choice(["O", "F"], n)),
            "q": pa.array(np.round(rng.uniform(1, 50, n), 2)),
            "p": pa.array(np.round(rng.uniform(900, 105000, n), 2)),
            "d": pa.array(np.round(rng.uniform(0, 0.1, n), 2)),
            "t": pa.array(np.round(rng.uniform(0, 0.08, n), 2)),
        })
        # sprinkle NULLs: those rows must drop entirely
        mask = rng.random(n) < 0.02
        q = pa.array([None if m else v
                      for m, v in zip(mask, tbl.column("q").to_pylist())],
                     type=pa.float64())
        tbl = tbl.set_column(2, "q", q)
        out = pricing_summary(
            rd.from_arrow(tbl).repartition(4), flag="f", status="s",
            qty="q", price="p", disc="d", tax="t",
        ).to_pandas().sort_values(["f", "s"]).reset_index(drop=True)
        con = duckdb.connect()
        con.register("li", tbl)
        exp = con.execute("""
            WITH f0 AS (SELECT f, s,
                          CAST(ROUND(q*100) AS BIGINT) AS qv,
                          CAST(ROUND(p*100) AS BIGINT) AS pv,
                          CAST(ROUND(d*100) AS BIGINT) AS dv,
                          CAST(ROUND(t*100) AS BIGINT) AS tv
                        FROM li WHERE q IS NOT NULL AND p IS NOT NULL
                          AND d IS NOT NULL AND t IS NOT NULL),
            s0 AS (SELECT f, s, SUM(qv) sq, SUM(pv) sp, SUM(dv) sd,
                          SUM(pv*(100-dv)) sdp,
                          SUM(pv*(100-dv)*(100+tv)) sch,
                          COUNT(*) count_order
                   FROM f0 GROUP BY 1, 2)
            SELECT f, s,
                   CAST(sq AS DOUBLE)/100.0 AS sum_qty,
                   CAST(sp AS DOUBLE)/100.0 AS sum_base_price,
                   CAST(sdp AS DOUBLE)/10000.0 AS sum_disc_price,
                   CAST(sch AS DOUBLE)/1000000.0 AS sum_charge,
                   CAST(sq AS DOUBLE)/100.0/CAST(count_order AS DOUBLE)
                       AS avg_qty,
                   CAST(sp AS DOUBLE)/100.0/CAST(count_order AS DOUBLE)
                       AS avg_price,
                   CAST(sd AS DOUBLE)/100.0/CAST(count_order AS DOUBLE)
                       AS avg_disc,
                   count_order
            FROM s0 ORDER BY f, s""").df()
        assert list(out.columns) == list(exp.columns)
        for c in ("sum_qty", "sum_base_price", "sum_disc_price",
                  "sum_charge", "avg_qty", "avg_price", "avg_disc"):
            for u, v in zip(out[c], exp[c]):
                assert u.hex() == v.hex(), (c, u, v)  # bit-exact
        assert out["count_order"].tolist() == exp["count_order"].tolist()

    def test_per_row_magnitude_guard(self, ray_session):
        import ray.data as rd

        from jsschema_ray.stages.aggregates import pricing_summary

        tbl = pa.table({"f": pa.array(["A"]), "s": pa.array(["O"]),
                        "q": pa.array([1.0]),
                        "p": pa.array([float(1 << 32)]),
                        "d": pa.array([0.05]), "t": pa.array([0.04])})
        with pytest.raises(Exception, match="2\\^31"):
            pricing_summary(rd.from_arrow(tbl), flag="f", status="s",
                            qty="q", price="p", disc="d",
                            tax="t").to_pandas()

    def test_rate_magnitude_guard(self, ray_session):
        # a rate whose x100 scaling exceeds 10^4 would overflow the
        # int64 triple product per row BEFORE the shadow check can see
        # it — must refuse loudly
        import ray.data as rd

        from jsschema_ray.stages.aggregates import pricing_summary

        tbl = pa.table({"f": pa.array(["A"]), "s": pa.array(["O"]),
                        "q": pa.array([1.0]), "p": pa.array([10.0]),
                        "d": pa.array([150.0]), "t": pa.array([0.04])})
        with pytest.raises(Exception, match="100x"):
            pricing_summary(rd.from_arrow(tbl), flag="f", status="s",
                            qty="q", price="p", disc="d",
                            tax="t").to_pandas()


class TestGroupedShare:
    """grouped_share — ratio-to-report, bit-exact vs DuckDB."""

    def test_matches_duckdb_bits(self, ray_session):
        import duckdb

        import ray.data as rd

        from jsschema_ray.stages.aggregates import grouped_share

        rng = np.random.default_rng(23)
        n = 4000
        tbl = pa.table({
            "g": pa.array(rng.choice(list("pqrstuv"), n)),
            "x": pa.array(np.where(rng.random(n) < 0.03, None,
                                   np.round(rng.uniform(-5, 500, n), 2)),
                          from_pandas=True),
        })
        out = grouped_share(rd.from_arrow(tbl).repartition(4), "g", "x")
        out = out.to_pandas().sort_values("g").reset_index(drop=True)
        con = duckdb.connect()
        con.register("t", tbl)
        exp = con.execute("""
            WITH s AS (SELECT g, SUM(CAST(ROUND(x*100) AS BIGINT)) AS sv
                       FROM t WHERE x IS NOT NULL GROUP BY g),
            tt AS (SELECT SUM(sv) AS tot FROM s)
            SELECT g, CAST(sv AS BIGINT) AS sv,
                   CAST(sv AS DOUBLE)/CAST(tot AS DOUBLE) AS share
            FROM s, tt ORDER BY g""").df()
        assert out["sv"].tolist() == exp["sv"].tolist()
        for u, v in zip(out["share"], exp["share"]):
            assert u.hex() == v.hex()

    def test_zero_total_yields_nan(self, ray_session):
        import ray.data as rd

        from jsschema_ray.stages.aggregates import grouped_share

        tbl = pa.table({"g": pa.array(["a", "b"]),
                        "x": pa.array([1.0, -1.0])})
        out = grouped_share(rd.from_arrow(tbl), "g", "x").to_pandas()
        assert out["share"].isna().all()

    def test_scale_guard(self, ray_session):
        import ray.data as rd

        from jsschema_ray.stages.aggregates import grouped_share

        tbl = pa.table({"g": pa.array(["a"]),
                        "x": pa.array([float(1 << 53)])})
        with pytest.raises(Exception, match="2\\^52"):
            grouped_share(rd.from_arrow(tbl), "g", "x").to_pandas()


def test_top_n_with_ties_rank_and_dense(ray_session):
    """Both RANK (gaps) and DENSE_RANK variants against a pandas
    reference, across batch boundaries so the pre-trim is exercised."""
    import numpy as np
    import ray.data

    from jsschema_ray.stages.aggregates import top_n_with_ties

    rng = np.random.default_rng(7)
    df = pd.DataFrame({
        "g": rng.integers(0, 5, 4000).astype("int64"),
        "v": rng.integers(0, 8, 4000).astype("int64"),
        "id": np.arange(4000, dtype="int64"),
    })
    ds = ray.data.from_pandas(df).repartition(7)

    for dense in (False, True):
        got = top_n_with_ties(ds, "g", "v", n=2, dense=dense,
                              batch_size=300).to_pandas()
        method = "dense" if dense else "min"
        ref = df.copy()
        ref["rnk"] = (ref.groupby("g")["v"]
                      .rank(method=method, ascending=False).astype("int64"))
        ref = ref[ref.rnk <= 2]
        got_s = got.sort_values("id").reset_index(drop=True)
        ref_s = ref.sort_values("id").reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got_s[["g", "v", "id", "rnk"]], ref_s[["g", "v", "id", "rnk"]])


def test_top_n_with_ties_nan_sorts_last(ray_session):
    import numpy as np
    import ray.data

    from jsschema_ray.stages.aggregates import top_n_with_ties

    df = pd.DataFrame({"g": [0, 0, 0, 0], "v": [np.nan, 1.0, 2.0, 2.0],
                       "id": [0, 1, 2, 3]})
    got = top_n_with_ties(ray.data.from_pandas(df), "g", "v",
                          n=1).to_pandas()
    assert sorted(got["id"].tolist()) == [2, 3]


def test_argmax_topn_nullable_int_group_across_batches(ray_session):
    """r5 fix: with an int64 group column where only SOME batches hold a
    null, the pandas-view hash gave the same group different partitions
    (float64 promotion) — each partition then emitted its own 'winner'
    for one group. The arrow-side __part must keep exactly one."""
    import numpy as np
    import ray.data

    from jsschema_ray.stages.aggregates import (argmax_per_group,
                                                top_n_per_group,
                                                top_n_with_ties)

    # group 5 appears in a null-bearing AND a null-free block
    b1 = pa.table({"g": pa.array([5, None, 5], pa.int64()),
                   "v": pa.array([1.0, 9.0, 2.0]),
                   "id": pa.array([0, 1, 2], pa.int64())})
    b2 = pa.table({"g": pa.array([5, 6], pa.int64()),
                   "v": pa.array([3.0, 4.0]),
                   "id": pa.array([3, 4], pa.int64())})
    ds = ray.data.from_arrow([b1, b2])

    am = argmax_per_group(ds, "g", "v", tiebreak="id").to_pandas()
    got = {(-1 if pd.isna(r.g) else int(r.g)): int(r.id)
           for r in am.itertuples()}
    assert got == {5: 3, 6: 4, -1: 1}, got

    tn = top_n_per_group(ds, "g", "v", tiebreak="id", n=1).to_pandas()
    assert len(tn) == 3  # one winner per group incl. the null group

    tt = top_n_with_ties(ds, "g", "v", n=1).to_pandas()
    assert len(tt) == 3


def test_selection_exact_above_2_53_with_null_in_batch(ray_session):
    """Review repro: one batch {2^60, 2^60+1, null} — the pandas view
    float-promotes and merges the two big groups, dropping one winner
    and corrupting the output key. The (__gv, __gf) surrogates must
    keep both groups and return exact int64 keys."""
    import numpy as np
    import ray.data

    from jsschema_ray.stages.aggregates import (argmax_per_group,
                                                top_n_per_group,
                                                top_n_with_ties)

    big = 1 << 60
    t = pa.table({"g": pa.array([big, big + 1, None], pa.int64()),
                  "v": pa.array([10.0, 1.0, 0.0]),
                  "id": pa.array([0, 1, 2], pa.int64())})
    ds = ray.data.from_arrow(t)

    am = argmax_per_group(ds, "g", "v", tiebreak="id")
    tbl = pa.concat_tables(
        __import__("ray").get(r) for r in am.to_arrow_refs())
    assert tbl.num_rows == 3
    keys = set(tbl.column("g").to_pylist())
    assert keys == {big, big + 1, None}, keys  # exact ints, no collapse
    assert pa.types.is_integer(tbl.schema.field("g").type)

    tn = top_n_per_group(ds, "g", "v", tiebreak="id", n=1)
    tbl2 = pa.concat_tables(
        __import__("ray").get(r) for r in tn.to_arrow_refs())
    assert set(tbl2.column("g").to_pylist()) == {big, big + 1, None}

    tt = top_n_with_ties(ds, "g", "v", n=1)
    tbl3 = pa.concat_tables(
        __import__("ray").get(r) for r in tt.to_arrow_refs())
    assert set(tbl3.column("g").to_pylist()) == {big, big + 1, None}


def test_null_group_is_one_partition(ray_session):
    """Review repro: NULL group keys must form ONE group (SQL PARTITION
    BY), not one group per row — across the argmax/top-n family."""
    import ray.data

    from jsschema_ray.stages.aggregates import (argmax_per_group,
                                                top_n_with_ties)

    t = pa.table({"g": pa.array([None, None, 1], pa.int64()),
                  "v": pa.array([1.0, 2.0, 5.0]),
                  "id": pa.array([0, 1, 2], pa.int64())})
    ds = ray.data.from_arrow(t)

    tt = top_n_with_ties(ds, "g", "v", n=1).to_pandas()
    # SQL: the v=2.0 null row ranks 1, the v=1.0 null row ranks 2
    assert len(tt) == 2 and sorted(tt["v"].tolist()) == [2.0, 5.0]

    am = argmax_per_group(ds, "g", "v", tiebreak="id").to_pandas()
    assert len(am) == 2 and sorted(am["v"].tolist()) == [2.0, 5.0]

    # string group keys with nulls: one NULL group, and no TypeError
    # from None-vs-str comparisons in the lexsort
    ts = pa.table({"g": pa.array([None, None, "a"], pa.string()),
                   "v": pa.array([1.0, 2.0, 5.0]),
                   "id": pa.array([0, 1, 2], pa.int64())})
    am2 = argmax_per_group(ray.data.from_arrow(ts), "g", "v",
                           tiebreak="id").to_pandas()
    assert len(am2) == 2 and sorted(am2["v"].tolist()) == [2.0, 5.0]

"""Join operators + schema-default transform (locked-in regressions for the
pandas dtype-promotion and NaN-vs-null artifacts found during verification)."""

import pandas as pd
import pyarrow as pa
import pytest


def test_hash_join_matches_pandas(ray_session):
    import ray.data as rd

    from jsschema_ray.stages.join import hash_join

    left = pd.DataFrame({"k": [1, 2, 3, 3, 5], "lv": list("abcde")})
    right = pd.DataFrame({"rk": [1, 3, 3, 9], "rv": list("wxyz")})
    got = hash_join(
        rd.from_pandas(left).repartition(2),
        rd.from_pandas(right).repartition(2),
        key="k", right_key="rk",
    ).to_pandas().sort_values(["k", "lv", "rv"]).reset_index(drop=True)
    want = left.merge(right.rename(columns={"rk": "k"}), on="k").sort_values(
        ["k", "lv", "rv"]
    ).reset_index(drop=True)
    pd.testing.assert_frame_equal(got[want.columns], want)
    assert got["k"].dtype.kind == "i"  # no float promotion


def test_hash_join_left_nulls(ray_session):
    import ray.data as rd

    from jsschema_ray.stages.join import hash_join

    left = pd.DataFrame({"k": [1, 2], "lv": ["a", "b"]})
    right = pd.DataFrame({"k": [1], "rv": ["x"]})
    rows = hash_join(
        rd.from_pandas(left), rd.from_pandas(right), key="k", how="left"
    ).take_all()
    by_k = {r["k"]: r for r in rows}
    assert by_k[1]["rv"] == "x"
    assert by_k[2]["rv"] is None  # proper null, not float NaN


def test_hash_join_overlap_rejected(ray_session):
    import ray.data as rd

    from jsschema_ray.stages.join import hash_join

    ds = rd.from_pandas(pd.DataFrame({"k": [1], "v": [2]}))
    with pytest.raises(ValueError, match="disjoint"):
        hash_join(ds, ds, key="k")


def test_broadcast_join(ray_session):
    import ray.data as rd

    from jsschema_ray.stages.join import broadcast_join

    big = rd.from_pandas(pd.DataFrame({"k": [1, 2, 1], "v": [10, 20, 30]}))
    small = pd.DataFrame({"k": [1, 2], "name": ["one", "two"]})
    got = broadcast_join(big, small, key="k").to_pandas().sort_values("v")
    assert got["name"].tolist() == ["one", "two", "one"]


def test_apply_defaults(ray_session):
    import ray.data as rd

    from jsschema_ray.stages.transform import apply_defaults

    t = pa.table({"a": [1, None, 3], "b": ["x", None, None]})
    schema = {
        "type": "object",
        "properties": {
            "a": {"type": "integer", "default": 0},
            "b": {"type": "string", "default": "unk"},
        },
    }
    out = apply_defaults(rd.from_arrow(t), schema).to_pandas().sort_values("a")
    assert out["a"].tolist() == [0, 1, 3]
    assert set(out["b"]) == {"x", "unk"}


def test_hash_join_outer_right_semi_anti(ray_session):
    """ADVICE repro: full outer of {k:1} with {k:1},{k:2} must keep k=2
    (the round-1 pandas path dropped right-only keys when a bucket's left
    side was empty); plus right/semi/anti coverage and the cross-bucket
    integer-dtype invariant for how='left'."""
    import ray.data as rd

    from jsschema_ray.stages.join import hash_join

    left = pd.DataFrame({"k": [1], "lv": [10]})
    right = pd.DataFrame({"k": [1, 2], "rv": [100, 200]})
    l, r = rd.from_pandas(left), rd.from_pandas(right)

    outer = {row["k"]: row for row in
             hash_join(l, r, key="k", how="outer").take_all()}
    assert set(outer) == {1, 2}
    assert outer[2]["lv"] is None and outer[2]["rv"] == 200

    right_rows = {row["k"]: row for row in
                  hash_join(l, r, key="k", how="right").take_all()}
    assert set(right_rows) == {1, 2}

    semi = hash_join(r, l, key="k", how="semi").take_all()
    assert [(row["k"], row["rv"]) for row in semi] == [(1, 100)]

    anti = hash_join(r, l, key="k", how="anti").take_all()
    assert [(row["k"], row["rv"]) for row in anti] == [(2, 200)]


def test_hash_join_left_int_dtype_consistent_across_buckets(ray_session,
                                                            set_fanout):
    """how='left' with matches in one bucket and misses in another: every
    output block must carry the same (integer) type for the right payload."""
    import ray.data as rd

    from jsschema_ray.stages.join import hash_join

    # the 8 buckets this test was written for: at 4, Ray's sort can hand
    # out an empty range, whose block has no schema at all (the typed
    # empty output for empty partitions is a separate, open item)
    set_fanout(8)

    left = pd.DataFrame({"k": list(range(16)), "lv": list(range(16))})
    right = pd.DataFrame({"k": [0, 1, 2, 3], "rv": [5, 6, 7, 8]})
    out = hash_join(rd.from_pandas(left).repartition(3),
                    rd.from_pandas(right), key="k", how="left")
    import ray

    tbl = pa.concat_tables(
        ray.get(ref) for ref in out.to_arrow_refs()
    )  # concat_tables raises if any bucket emitted a differing schema
    assert pa.types.is_integer(tbl.schema.field("rv").type)
    got = {r["k"]: r["rv"] for r in tbl.to_pylist()}
    assert got[2] == 7 and got[10] is None


def test_broadcast_join_modes(ray_session):
    import ray.data as rd

    from jsschema_ray.stages.join import broadcast_join

    ds = rd.from_pandas(pd.DataFrame({"k": [1, 2, 3], "v": ["a", "b", "c"]}))
    dim = pd.DataFrame({"k": [1, 3], "name": ["x", "y"]})
    left = {r["k"]: r for r in
            broadcast_join(ds, dim, key="k", how="left").take_all()}
    assert left[2]["name"] is None and left[1]["name"] == "x"
    semi = sorted(r["k"] for r in
                  broadcast_join(ds, dim, key="k", how="semi").take_all())
    assert semi == [1, 3]
    anti = [r["k"] for r in
            broadcast_join(ds, dim, key="k", how="anti").take_all()]
    assert anti == [2]
    with pytest.raises(ValueError):
        broadcast_join(ds, dim, key="k", how="outer")


def test_asof_join_matches_pandas(ray_session):
    """asof_join vs a whole-frame pd.merge_asof reference: backward match,
    unmatched left rows kept with typed nulls, integer payload stays
    integer across buckets."""
    import numpy as np

    import ray.data as rd

    from jsschema_ray.stages.join import asof_join

    rng = np.random.default_rng(5)
    n = 400
    left = pd.DataFrame({
        "eid": np.arange(n),
        "k": rng.integers(0, 12, size=n),
        "ts": pd.to_datetime(rng.integers(0, 10_000, size=n), unit="s"),
    })
    right = pd.DataFrame({
        "rk": np.repeat(np.arange(10), 6),
        "rts": pd.to_datetime(np.tile(np.arange(6) * 1500, 10), unit="s"),
        "val": np.arange(60) * 10,
    })
    got = asof_join(
        rd.from_pandas(left).repartition(3),
        rd.from_pandas(right).repartition(2),
        key="k", ts="ts", right_key="rk", right_ts="rts",
    ).to_pandas().sort_values("eid").reset_index(drop=True)

    want = pd.merge_asof(
        left.sort_values("ts", kind="stable"),
        right.rename(columns={"rk": "k", "rts": "ts"}).sort_values(
            "ts", kind="stable"),
        on="ts", by="k", direction="backward",
    ).sort_values("eid").reset_index(drop=True)
    assert got["val"].dtype.kind in "iu" or str(got["val"].dtype) == "Int64"
    assert (got["val"].isna() == want["val"].isna()).all()
    m = want["val"].notna()
    assert (got.loc[m, "val"].astype("int64").to_numpy()
            == want.loc[m, "val"].astype("int64").to_numpy()).all()
    # keys 10, 11 never appear in right -> all unmatched
    assert got.loc[got["k"] >= 10, "val"].isna().all()

    inner = asof_join(
        rd.from_pandas(left).repartition(3),
        rd.from_pandas(right).repartition(2),
        key="k", ts="ts", right_key="rk", right_ts="rts", how="inner",
    ).to_pandas()
    assert len(inner) == int(m.sum())
    assert inner["val"].notna().all()


def test_range_join_matches_bruteforce(ray_session):
    """range_join vs an O(n*m) numpy reference: overlapping intervals,
    interval spanning many bins, negative values, empty interval."""
    import numpy as np

    import ray.data as rd

    from jsschema_ray.stages.join import range_join

    rng = np.random.default_rng(9)
    left = pd.DataFrame({"lid": np.arange(300),
                         "v": rng.uniform(-50, 150, size=300).round(2)})
    right = pd.DataFrame({
        "rid": np.arange(8),
        "lo": [-60.0, -10.0, 0.0, 0.0, 40.0, 45.0, 100.0, 7.0],
        "hi": [-40.0, 30.0, 120.0, 10.0, 60.0, 55.0, 100.0, 7.0],
    })  # rid 2 spans 12 bins at width 10; rid 6/7 are empty intervals
    got = range_join(
        rd.from_pandas(left).repartition(3),
        rd.from_pandas(right).repartition(2),
        value="v", lo="lo", hi="hi", bin_width=10.0,
    ).to_pandas().sort_values(["lid", "rid"]).reset_index(drop=True)

    want = []
    for _, lrow in left.iterrows():
        for _, rrow in right.iterrows():
            if rrow["lo"] <= lrow["v"] < rrow["hi"]:
                want.append((int(lrow["lid"]), int(rrow["rid"])))
    assert list(zip(got["lid"].astype(int), got["rid"].astype(int))) == \
        sorted(want)
    assert str(got["lid"].dtype) == "Int64"  # typed across bins


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hash_join_randomized_vs_pandas(seed, ray_session):
    """Many-to-many randomized differential: every join mode against a
    pandas merge reference (no null keys here, where pandas==SQL; null-key
    semantics are pinned by the dedicated unit tests)."""
    import numpy as np

    import ray.data as rd

    from jsschema_ray.stages.join import hash_join

    rng = np.random.default_rng(seed)
    left = pd.DataFrame({
        "k": rng.integers(0, 30, size=200),
        "lv": rng.integers(-5, 5, size=200),
        "ls": [None if x % 7 == 0 else f"s{x}" for x in range(200)],
    })
    right = pd.DataFrame({
        "rk": rng.integers(0, 35, size=150),
        "rv": rng.normal(size=150).round(3),
    })

    def canon(df):
        df = df[sorted(df.columns)].copy()
        for c in df.columns:
            if df[c].dtype == object:
                # normalize None vs float('nan') null spellings first
                df[c] = df[c].where(df[c].notna(), None).astype(str)
            elif df[c].dtype.kind in "iuf" or str(df[c].dtype) == "Int64":
                df[c] = df[c].astype("float64")
        return df.sort_values(list(df.columns), kind="stable").reset_index(
            drop=True
        )

    for how in ("inner", "left", "right", "outer"):
        got = hash_join(
            rd.from_pandas(left).repartition(3),
            rd.from_pandas(right).repartition(2),
            key="k", right_key="rk", how=how,
        ).to_pandas()
        want = left.merge(right.rename(columns={"rk": "k"}), on="k", how=how)
        pd.testing.assert_frame_equal(canon(got), canon(want),
                                      check_dtype=False), how
    # semi / anti vs isin reference
    semi = hash_join(rd.from_pandas(left), rd.from_pandas(right), key="k",
                     right_key="rk", how="semi").to_pandas()
    want_semi = left[left["k"].isin(set(right["rk"]))]
    pd.testing.assert_frame_equal(canon(semi), canon(want_semi),
                                  check_dtype=False)
    anti = hash_join(rd.from_pandas(left), rd.from_pandas(right), key="k",
                     right_key="rk", how="anti").to_pandas()
    want_anti = left[~left["k"].isin(set(right["rk"]))]
    if len(want_anti) == 0:
        # an all-empty Dataset loses its schema through to_pandas — only
        # the row count is comparable
        assert len(anti) == 0
    else:
        pd.testing.assert_frame_equal(canon(anti), canon(want_anti),
                                      check_dtype=False)


def test_hash_join_mixed_key_types_unified(ray_session):
    """int64 left key vs float64 right key: hash64 differs by dtype, so
    without unification nothing co-locates. Safe values join correctly."""
    import ray.data as rd

    from jsschema_ray.stages.join import hash_join

    left = pd.DataFrame({"k": pd.array([1, 2, 3], dtype="int64"),
                         "lv": ["a", "b", "c"]})
    right = pd.DataFrame({"k": pd.array([1.0, 3.0], dtype="float64"),
                          "rv": ["x", "y"]})
    got = hash_join(
        rd.from_pandas(left), rd.from_pandas(right), key="k"
    ).to_pandas().sort_values("lv").reset_index(drop=True)
    assert got["lv"].tolist() == ["a", "c"]
    assert got["rv"].tolist() == ["x", "y"]


def test_hash_join_mixed_key_beyond_2_53_refuses(ray_session):
    """int64 keys above 2^53 cannot round-trip through float64 — 2^53 and
    2^53+1 alias to the same float. The join must refuse loudly instead of
    silently joining wrong rows (VERDICT r2 'what's wrong' #1)."""
    import ray.data as rd

    from jsschema_ray.stages.join import hash_join

    big = 2 ** 53
    left = pd.DataFrame({"k": pd.array([big, big + 1], dtype="int64"),
                         "lv": ["a", "b"]})
    right = pd.DataFrame({"k": pd.array([float(big)], dtype="float64"),
                          "rv": ["x"]})
    ds = hash_join(rd.from_pandas(left), rd.from_pandas(right), key="k")
    with pytest.raises(Exception, match="round-trip|2\\^53"):
        ds.take_all()


def test_asof_join_mixed_key_types_unified(ray_session):
    """ADVICE r2 (medium): asof_join bucketed each side on its raw key
    dtype, so int64-vs-float64 keys co-located nothing and how='left'
    silently returned all-null payloads. Now unified before hashing."""
    import ray.data as rd

    from jsschema_ray.stages.join import asof_join

    left = pd.DataFrame({
        "k": pd.array([7, 7, 8], dtype="int64"),
        "t": pd.array([10, 20, 15], dtype="int64"),
        "lv": ["a", "b", "c"],
    })
    right = pd.DataFrame({
        "k": pd.array([7.0, 7.0, 8.0], dtype="float64"),
        "t": pd.array([5, 18, 12], dtype="int64"),
        "price": [100, 200, 300],
    })
    got = asof_join(
        rd.from_pandas(left), rd.from_pandas(right),
        key="k", ts="t",
    ).to_pandas().sort_values("lv").reset_index(drop=True)
    assert got["price"].tolist() == [100, 200, 300]


def test_signed_zero_float_keys_match_sql_semantics(ray_session):
    """r3 adversarial find (same class as the r2 enum -0.0 bug): every
    hash-based key op — Acero joins, pc.is_in, value_counts — splits
    -0.0/+0.0 even though pc.equal says they are equal, silently diverging
    from SQL (DuckDB joins and GROUP-BY-merges them). All key paths now
    normalize via `normalize_zeros` (x + 0.0)."""
    import numpy as np
    import ray.data as rd

    from jsschema_ray.stages.join import broadcast_join, hash_join
    from jsschema_ray.stages.referential import referential_violations
    from jsschema_ray.stages.uniqueness import duplicate_keys

    left = pd.DataFrame({"k": np.array([0.0, 1.0]), "lv": ["a", "b"]})
    right = pd.DataFrame({"k": np.array([-0.0, 1.0]), "rv": ["x", "y"]})
    got = hash_join(rd.from_pandas(left), rd.from_pandas(right),
                    key="k").to_pandas()
    assert sorted(zip(got["lv"], got["rv"])) == [("a", "x"), ("b", "y")]

    got = broadcast_join(rd.from_pandas(left), right, key="k").to_pandas()
    assert sorted(zip(got["lv"], got["rv"])) == [("a", "x"), ("b", "y")]

    # GROUP BY: 0.0 and -0.0 are ONE key (appears twice -> duplicated)
    ds = rd.from_pandas(pd.DataFrame({"k": np.array([0.0, -0.0, 2.0])}))
    dup = duplicate_keys(ds, "k").to_pandas()
    assert len(dup) == 1 and dup["dup_count"].iloc[0] == 2

    # referential: -0.0 in data vs 0.0 in the ref set is NOT a violation
    data = rd.from_pandas(pd.DataFrame({"fk": np.array([-0.0, 5.0])}))
    viol = referential_violations(data, "fk", [0.0, 1.0]).to_pandas()
    assert viol["fk"].tolist() == [5.0]


@pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
def test_hash_join_duckdb_differential_adversarial_keys(ray_session, how):
    """Randomized join differential vs DuckDB over an adversarial float key
    domain: signed zeros, NaN, nulls, ordinary values. DuckDB treats NaN as
    a joinable value and -0.0 = +0.0; NULL never matches. Our hash_join
    must agree for every join mode."""
    import duckdb
    import numpy as np
    import ray.data as rd

    from jsschema_ray.stages.join import hash_join

    rng = np.random.default_rng(17)
    dom = np.array([0.0, -0.0, 1.5, 2.5, np.nan, 7.0, -3.25])
    lk = dom[rng.integers(0, len(dom), 150)].copy()
    rk = dom[rng.integers(0, len(dom), 60)].copy()
    left = pd.DataFrame({"k": lk, "lv": np.arange(150)})
    right = pd.DataFrame({"k": rk, "rv": np.arange(60)})
    # nulls (None) on both sides: never match
    left.loc[::17, "k"] = None
    right.loc[::13, "k"] = None

    got = hash_join(rd.from_pandas(left), rd.from_pandas(right), key="k",
                    how=how).to_pandas()
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    sql = {
        "inner": "SELECT l.lv, r.rv FROM l JOIN r ON l.k = r.k",
        "left": "SELECT l.lv, r.rv FROM l LEFT JOIN r ON l.k = r.k",
        "semi": "SELECT l.lv FROM l SEMI JOIN r ON l.k = r.k",
        "anti": "SELECT l.lv FROM l ANTI JOIN r ON l.k = r.k",
    }[how]
    want = con.execute(sql).df()
    cols = list(want.columns)
    ga = sorted(map(tuple, got[cols].fillna(-1).to_numpy()))
    wa = sorted(map(tuple, want[cols].fillna(-1).to_numpy()))
    assert ga == wa, f"{how}: {len(ga)} vs {len(wa)}"


def test_hash_join_composite_keys(ray_session):
    """r3: hash_join accepts a key LIST — composite keys bucket on a
    combined rolling hash and Acero-join on the full list; per-column
    dtype unification and null-key (never matches) semantics hold."""
    import numpy as np
    import ray.data as rd

    from jsschema_ray.stages.join import hash_join

    left = pd.DataFrame({
        "a": pd.array([1, 1, 2, 2, None], dtype="Int64"),
        "b": [10.0, 20.0, 10.0, 30.0, 10.0],
        "lv": list("vwxyz"),
    })
    right = pd.DataFrame({
        "ra": pd.array([1, 2, 2, None], dtype="Int64"),
        "rb": pd.array([10, 30, 40, 10], dtype="Int64"),  # int vs float b
        "rv": list("PQRS"),
    })
    got = hash_join(
        rd.from_pandas(left).repartition(2),
        rd.from_pandas(right).repartition(2),
        key=["a", "b"], right_key=["ra", "rb"],
    ).to_pandas().sort_values(["lv", "rv"]).reset_index(drop=True)
    # expected: (1,10)->P, (2,30)->Q; null keys never match
    assert sorted(zip(got["lv"], got["rv"])) == [("v", "P"), ("y", "Q")]

    # left join keeps unmatched rows with typed nulls
    lj = hash_join(rd.from_pandas(left), rd.from_pandas(right),
                   key=["a", "b"], right_key=["ra", "rb"],
                   how="left").to_pandas()
    assert len(lj) == 5 and lj["rv"].notna().sum() == 2


def test_distinct_rows_matches_sql_semantics(ray_session):
    """r3 set-op: distinct_rows == SELECT DISTINCT — NaNs merge, signed
    zeros merge to +0.0, layout-independent."""
    import numpy as np
    import ray.data as rd

    from jsschema_ray.stages.uniqueness import distinct_rows

    pdf = pd.DataFrame({
        "x": [0.0, -0.0, np.nan, np.nan, 1.0, 1.0, 2.0],
        "s": ["a", "a", "b", "b", "c", "c", None],
    })
    for parts in (2, 5):
        got = distinct_rows(
            rd.from_pandas(pdf).repartition(parts)
        ).to_pandas().sort_values(["s", "x"]).reset_index(drop=True)
        assert len(got) == 4
        zero = got[got["x"] == 0.0]["x"]
        assert len(zero) == 1 and not np.signbit(zero.iloc[0])


def test_broadcast_join_composite_keys(ray_session):
    """r3: broadcast_join matches hash_join's composite-key surface."""
    import ray.data as rd

    from jsschema_ray.stages.join import broadcast_join

    big = rd.from_pandas(pd.DataFrame({
        "a": [1, 1, 2], "b": [10, 20, 10], "v": ["x", "y", "z"],
    }))
    small = pd.DataFrame({"ka": [1, 2], "kb": [10, 10], "name": ["p", "q"]})
    got = broadcast_join(big, small, key=["a", "b"],
                         small_key=["ka", "kb"]).to_pandas()
    assert sorted(zip(got["v"], got["name"])) == [("x", "p"), ("z", "q")]


def test_distinct_rows_nested_columns_refused(ray_session):
    """distinct_rows on nested (list/struct/map) columns refuses loudly —
    pandas drop_duplicates would raise an opaque unhashable-type error."""
    import pyarrow as pa
    import ray.data as rd

    from jsschema_ray.stages.uniqueness import distinct_rows

    t = pa.table({"x": [[1, 2], [1, 2], [3]]})
    with pytest.raises(Exception, match="primitive columns"):
        distinct_rows(rd.from_arrow(t)).to_pandas()


def test_hash_join_hot_key_salting(ray_session):
    """north_rule skew salting: hot keys stripe the left side over `salt`
    buckets with the right side's hot rows replicated to each — output is
    IDENTICAL to the unsalted join for inner/left; other modes refuse."""
    import numpy as np
    import ray.data as rd

    from jsschema_ray.stages.join import hash_join

    rng = np.random.default_rng(9)
    # 60% of left rows share one Zipf-hot key
    lk = np.where(rng.random(3000) < 0.6, 777, rng.integers(0, 500, 3000))
    left = pd.DataFrame({"k": lk.astype(np.int64), "lv": np.arange(3000)})
    right = pd.DataFrame({"k": np.arange(400, 800, dtype=np.int64),
                          "rv": np.arange(400)})
    ldf, rdf = rd.from_pandas(left).repartition(4), \
        rd.from_pandas(right).repartition(2)

    for how in ("inner", "left"):
        plain = hash_join(ldf, rdf, key="k", how=how).to_pandas()
        salted = hash_join(ldf, rdf, key="k", how=how,
                           hot_keys=[777], salt=8).to_pandas()
        pa_cols = sorted(plain.columns)
        a = plain[pa_cols].sort_values(pa_cols).reset_index(drop=True)
        b = salted[pa_cols].sort_values(pa_cols).reset_index(drop=True)
        pd.testing.assert_frame_equal(a.fillna(-1), b.fillna(-1),
                                      check_dtype=False)

    with pytest.raises(ValueError, match="salting"):
        hash_join(ldf, rdf, key="k", how="outer", hot_keys=[777])


def test_setops_differential_vs_duckdb(ray_session):
    """except_rows / intersect_rows vs native DuckDB EXCEPT/INTERSECT on
    adversarial keys: NULLs (equal under set-op dedup), NaN, signed
    zeros, duplicate-heavy rows, multi-column — any layout."""
    import duckdb
    import numpy as np
    import ray.data as rd

    from jsschema_ray.stages.uniqueness import except_rows, intersect_rows

    rng = np.random.default_rng(23)

    def side(n, hi):
        k = rng.integers(0, hi, n).astype("float64")
        k[rng.random(n) < 0.15] = np.nan
        k[rng.random(n) < 0.1] = -0.0
        k[rng.random(n) < 0.1] = 0.0
        s = np.array(["x", "y", None, "z"], dtype=object)[
            rng.integers(0, 4, n)
        ]
        return pd.DataFrame({"k": k, "s": s})

    left, right = side(400, 40), side(300, 12)
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)

    for op, fn in (("EXCEPT", except_rows), ("INTERSECT", intersect_rows)):
        want = con.execute(
            f"SELECT * FROM (SELECT k, s FROM l {op} SELECT k, s FROM r) "
            "ORDER BY k NULLS LAST, s NULLS LAST"
        ).df()
        got = fn(rd.from_pandas(left).repartition(3),
                 rd.from_pandas(right).repartition(2),
                 columns=["k", "s"]).to_pandas()
        got = got.sort_values(["k", "s"], na_position="last").reset_index(
            drop=True
        )
        assert len(got) == len(want), (op, len(got), len(want))
        # DuckDB merges +-0.0 but keeps the FIRST-SEEN bit pattern as the
        # representative; the engine canonicalizes to +0.0 — equal values,
        # so normalize both before the string compare (x + 0.0 maps -0.0
        # to +0.0, leaves NaN alone)
        got["k"] = got["k"] + 0.0
        want["k"] = want["k"] + 0.0
        a = got.astype(str).reset_index(drop=True)
        b = want.astype(str).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)


def test_setops_int64_above_2_53_with_nulls(ray_session):
    """r4 ADVICE fix: nullable int64 must not round-trip through pandas
    float64 in the set-op pre-trim — adjacent values above 2^53 are
    float-equal but integer-distinct, and nulls ride along."""
    import duckdb
    import ray.data as rd

    from jsschema_ray.stages.uniqueness import except_rows, intersect_rows

    big = (1 << 60)
    lt = pa.table({"k": pa.array(
        [big, big + 1, big + 2, None, big, big + 1, 7], type=pa.int64())})
    rt = pa.table({"k": pa.array(
        [big + 1, None, 8], type=pa.int64())})
    con = duckdb.connect()
    con.register("l", lt)
    con.register("r", rt)
    for op, fn in (("EXCEPT", except_rows), ("INTERSECT", intersect_rows)):
        want = con.execute(
            f"SELECT * FROM (SELECT k FROM l {op} SELECT k FROM r) "
            "ORDER BY k NULLS LAST"
        ).df()
        got = fn(rd.from_arrow(lt).repartition(3),
                 rd.from_arrow(rt).repartition(2),
                 columns=["k"]).to_pandas()
        got = got.sort_values("k", na_position="last").reset_index(
            drop=True)
        assert [x for x in got["k"] if pd.notna(x)] == \
               [int(x) for x in want["k"] if pd.notna(x)], op
        assert got["k"].isna().sum() == want["k"].isna().sum(), op


def test_bloom_semi_join_exact_vs_plain_semi(ray_session):
    """bloom_semi_join == hash_join(how='semi') on randomized int keys —
    with num_bits squeezed so false positives ARE generated and must be
    removed by the verify join (exactness independent of fp rate)."""
    import numpy as np
    import ray.data

    from jsschema_ray.stages.join import bloom_semi_join, hash_join

    rng = np.random.default_rng(11)
    left = pd.DataFrame({
        "k": rng.integers(-500, 500, 4000).astype("int64"),
        "x": rng.integers(0, 10**6, 4000).astype("int64"),
    })
    right = pd.DataFrame(
        {"rk": rng.choice(np.arange(-500, 500, 7), 60).astype("int64")})
    lds = ray.data.from_pandas(left).repartition(5)
    rds = ray.data.from_pandas(right).repartition(3)
    got = bloom_semi_join(lds, rds, key="k", right_key="rk",
                          num_bits=64,
                          num_hashes=2).to_pandas()  # fp-heavy on purpose
    want = hash_join(lds, rds, key="k", right_key="rk",
                     how="semi").to_pandas()
    got = got.sort_values(["k", "x"]).reset_index(drop=True)
    want = want.sort_values(["k", "x"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)
    assert set(got.k).issubset(set(right.rk))


def test_bloom_semi_join_nulls_and_mixed_widths(ray_session):
    """NULL left keys never match (SQL IN); int32 right keys with
    NEGATIVE values still match int64 left keys (the width-unifying
    hash cast — pandas hashes by unsigned bit view at native width)."""
    import ray.data

    from jsschema_ray.stages.join import bloom_semi_join

    left = pa.table({
        "k": pa.array([-1, -1, 5, None, 7], pa.int64()),
        "x": pa.array([0, 1, 2, 3, 4], pa.int64()),
    })
    right = pa.table({"k": pa.array([-1, 7, 9], pa.int32())})
    out = bloom_semi_join(ray.data.from_arrow(left),
                          ray.data.from_arrow(right), key="k",
                          num_bits=256).to_pandas()
    assert sorted(out.x.tolist()) == [0, 1, 4]  # -1 matches, null doesn't


def test_bloom_semi_join_empty_right(ray_session):
    import ray.data

    from jsschema_ray.stages.join import bloom_semi_join

    left = pa.table({"k": pa.array([1, 2], pa.int64())})
    right = pa.table({"k": pa.array([], pa.int64())})
    out = bloom_semi_join(ray.data.from_arrow(left),
                          ray.data.from_arrow(right), key="k",
                          num_bits=256).to_pandas()
    assert len(out) == 0


def test_bloom_prefilter_reduces_shuffle_volume(ray_session):
    """The probe stage itself (before the verify join) must drop the
    guaranteed-non-matching majority — the operator's whole point."""
    import numpy as np
    import ray
    import ray.data

    from jsschema_ray.stages.join import BloomProbe, build_bloom_bits

    rng = np.random.default_rng(5)
    left = pd.DataFrame({"k": rng.integers(0, 100_000, 20_000)
                        .astype("int64")})
    right = pd.DataFrame({"k": np.arange(0, 1000, dtype="int64")})
    bits = build_bloom_bits(ray.data.from_pandas(right), "k",
                            num_bits=1 << 16, num_hashes=4)
    probe = BloomProbe(bits, "k", 1 << 16, 4)
    out = probe(pa.Table.from_pandas(left))
    true_matches = int((left.k < 1000).sum())
    assert out.num_rows >= true_matches          # no false negatives
    assert out.num_rows < len(left) * 0.2        # large fp would fail this


def test_broadcast_join_empty_small_dataset_keeps_schema(ray_session):
    """An EMPTY small side (a dimension filter matched nothing — the
    tpch_q7 two-nation filter at sf0.001) must still broadcast with its
    schema intact: inner join → typed empty result, left join → all
    left rows with null payload, never a KeyError on the join key."""
    import pyarrow.compute as pc
    import ray.data

    from jsschema_ray.stages.join import broadcast_join

    left = pa.table({"k": pa.array([1, 2, 3], pa.int64()),
                     "v": pa.array([10, 20, 30], pa.int64())})
    small = ray.data.from_arrow(
        pa.table({"sk": pa.array([1, 2], pa.int64()),
                  "name": pa.array(["a", "b"], pa.string())}))
    empty_small = small.map_batches(
        lambda b: b.filter(pc.greater(b.column("sk"), 99)),
        batch_format="pyarrow")

    inner_ds = broadcast_join(ray.data.from_arrow(left), empty_small,
                              key="k", small_key="sk")
    # assert on the Dataset schema: the same empty-through-pandas
    # round-trip this fix targets would also strip columns from the
    # (empty) RESULT if checked via to_pandas()
    assert set(inner_ds.schema(fetch_if_missing=True).names) == {
        "k", "v", "name"}
    assert inner_ds.count() == 0

    lj = broadcast_join(ray.data.from_arrow(left), empty_small,
                        key="k", small_key="sk", how="left").to_pandas()
    assert len(lj) == 3 and lj["name"].isna().all()


def test_except_all_and_intersect_all_vs_duckdb(ray_session):
    """Bag-semantics set ops against DuckDB's EXCEPT ALL / INTERSECT
    ALL on data with duplicates, NULL keys, and cross-batch splits."""
    import duckdb
    import numpy as np
    import ray.data

    from jsschema_ray.stages.uniqueness import (except_all_rows,
                                                intersect_all_rows)

    rng = np.random.default_rng(11)
    def mk(n, seed_shift):
        k = rng.integers(0, 6, n).astype("float64")
        k[rng.random(n) < 0.1] = np.nan  # NULL keys
        return pd.DataFrame({
            "k": pd.array([None if np.isnan(x) else int(x) for x in k],
                          dtype="Int64"),
            "s": rng.choice(["a", "b", "c"], n),
        })

    la, rb = mk(500, 0), mk(400, 1)
    con = duckdb.connect()
    con.register("la", la)
    con.register("rb", rb)

    for how, fn in (("EXCEPT ALL", except_all_rows),
                    ("INTERSECT ALL", intersect_all_rows)):
        want = con.execute(
            f"SELECT * FROM la {how} SELECT * FROM rb "
            f"ORDER BY k NULLS FIRST, s").df()
        got = fn(ray.data.from_pandas(la).repartition(5),
                 ray.data.from_pandas(rb).repartition(3),
                 batch_size=64).to_pandas()
        got = got.sort_values(["k", "s"], na_position="first").reset_index(
            drop=True)
        want = want.sort_values(["k", "s"], na_position="first").reset_index(
            drop=True)
        assert len(got) == len(want), how
        assert got["k"].fillna(-1).astype("int64").tolist() == \
            want["k"].fillna(-1).astype("int64").tolist(), how
        assert got["s"].tolist() == want["s"].tolist(), how


def test_except_all_right_columns_rename(ray_session):
    import ray.data

    from jsschema_ray.stages.uniqueness import except_all_rows

    left = pd.DataFrame({"k": [1, 1, 1, 2], "v": ["x", "x", "y", "z"]})
    right = pd.DataFrame({"rk": [1], "rv": ["x"]})
    got = except_all_rows(ray.data.from_pandas(left),
                          ray.data.from_pandas(right),
                          columns=["k", "v"],
                          right_columns=["rk", "rv"]).to_pandas()
    got = got.sort_values(["k", "v"]).reset_index(drop=True)
    # one of the two (1, x) copies cancels; (1, y) and (2, z) survive
    assert got.values.tolist() == [[1, "x"], [1, "y"], [2, "z"]]


def test_hash_join_salt_wider_than_buckets(ray_session, set_fanout):
    """A salt range wider than the bucket count must not meet a
    replicated right row twice: output equals the unsalted join."""
    import numpy as np
    import ray.data as rd

    from jsschema_ray.stages.join import hash_join

    left = pd.DataFrame({"k": np.array([777] * 20 + list(range(10)),
                                       np.int64),
                         "lv": np.arange(30)})
    right = pd.DataFrame({"k": np.array([777, 1, 2], np.int64),
                          "rv": [1, 2, 3]})
    ldf, rdf = rd.from_pandas(left), rd.from_pandas(right)
    set_fanout(4)
    plain = hash_join(ldf, rdf, key="k").to_pandas()
    salted = hash_join(ldf, rdf, key="k", hot_keys=[777],
                       salt=16).to_pandas()
    cols = ["k", "lv", "rv"]
    assert len(plain) == 22
    pd.testing.assert_frame_equal(
        plain[cols].sort_values(cols).reset_index(drop=True),
        salted[cols].sort_values(cols).reset_index(drop=True),
        check_dtype=False)

"""Round-5 final-session additions, part 5: grouped_extrema
(id-cardinality grouped MIN/MAX), table_diff (cross-version snapshot
diff), pareto_front (2-D skyline), the orders_checksum anti-entropy
audit, and the top_langs_per_source heavy-hitter composition. SQL
parity for the five oracled queries runs in test_oracle_parity; these
pin NULL semantics, contract guards, strict-dominance edges, batch- and
layout-independence, and the differential vs brute force / DuckDB."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from jsschema_ray.stages.aggregates import grouped_extrema, pareto_front
from jsschema_ray.stages.transform import table_diff


def _ds(table, n_blocks=4):
    import ray.data as rd

    t = table if isinstance(table, pa.Table) else pa.table(table)
    return rd.from_arrow(t).repartition(n_blocks)


class TestGroupedExtrema:
    def test_min_max_vs_pandas_with_nulls(self, ray_session):
        rng = np.random.default_rng(7)
        n = 40000
        df = pd.DataFrame({
            "k": rng.integers(0, 3000, n),
            "v": rng.normal(size=n),
            "w": rng.integers(-10**9, 10**9, n),
        })
        df.loc[df.index % 13 == 0, "v"] = np.nan  # -> NULL via arrow
        t = pa.Table.from_pandas(
            df.astype({"v": "float64"}).where(df.notna()),
            preserve_index=False)
        out = grouped_extrema(
            _ds(t, 8), ["k"],
            {"v_min": ("v", "min"), "v_max": ("v", "max"),
             "w_max": ("w", "max")}).to_pandas()
        exp = df.groupby("k").agg(v_min=("v", "min"), v_max=("v", "max"),
                                  w_max=("w", "max")).reset_index()
        got = out.sort_values("k").reset_index(drop=True)
        exp = exp.sort_values("k").reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got[["k", "v_min", "v_max", "w_max"]],
            exp[["k", "v_min", "v_max", "w_max"]], check_dtype=False)

    def test_null_keys_one_group_and_all_null_group(self, ray_session):
        t = pa.table({
            "k": pa.array([1, 1, None, None, 2], pa.int64()),
            "v": pa.array([5.0, 3.0, 9.0, 1.0, None]),
        })
        out = grouped_extrema(_ds(t, 2), ["k"],
                              {"v_min": ("v", "min")}).to_pandas()
        got = {(-1 if pd.isna(r.k) else int(r.k)):
               (None if pd.isna(r.v_min) else r.v_min)
               for r in out.itertuples()}
        # NULL keys are ONE group (SQL GROUP BY); all-NULL value -> NULL
        assert got == {1: 3.0, -1: 1.0, 2: None}

    def test_rejects_unknown_agg(self, ray_session):
        with pytest.raises(ValueError, match="only min/max"):
            grouped_extrema(_ds({"k": [1], "v": [1]}), ["k"],
                            {"o": ("v", "sum")})


class TestTableDiff:
    def test_differential_vs_duckdb_full_outer(self, ray_session):
        rng = np.random.default_rng(3)
        n = 20000
        a = pd.DataFrame({"k": np.arange(n, dtype=np.int64),
                          "p": rng.choice(["a", "b", None], n),
                          "v": rng.normal(size=n)})
        b = a[a.k % 97 != 0].copy()
        b.loc[b.k % 101 == 0, "p"] = "CH"  # includes None -> 'CH' rows
        add = a[a.k % 89 == 0].copy()
        add["k"] += 10**10
        b = pd.concat([b, add], ignore_index=True)
        ta = pa.Table.from_pandas(a, preserve_index=False)
        tb = pa.Table.from_pandas(b, preserve_index=False)
        out = table_diff(_ds(ta, 6), _ds(tb, 3), "k",
                         ["p", "v"]).to_pandas()
        con = duckdb.connect()
        con.register("a", ta)
        con.register("b", tb)
        exp = con.execute("""
            SELECT COALESCE(a.k, b.k) AS k,
                   CASE WHEN a.k IS NULL THEN 'added'
                        WHEN b.k IS NULL THEN 'removed'
                        ELSE 'changed' END AS status
            FROM a FULL OUTER JOIN b ON a.k = b.k
            WHERE a.k IS NULL OR b.k IS NULL
               OR a.p IS DISTINCT FROM b.p
               OR a.v IS DISTINCT FROM b.v""").df()
        got = out.sort_values(["k", "status"]).reset_index(drop=True)
        exp = exp.sort_values(["k", "status"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
        assert set(got.status) == {"added", "removed", "changed"}

    def test_identical_tables_empty_diff(self, ray_session):
        t = pa.table({"k": pa.array([1, 2, 3], pa.int64()),
                      "x": pa.array([None, "b", "c"])})
        out = table_diff(_ds(t, 2), _ds(t, 3), "k", ["x"])
        # NULL == NULL is unchanged (IS DISTINCT FROM semantics)
        assert out.count() == 0

    def test_duplicate_key_raises(self, ray_session):
        a = pa.table({"k": pa.array([1, 1], pa.int64()),
                      "x": pa.array(["a", "b"])})
        b = pa.table({"k": pa.array([2], pa.int64()),
                      "x": pa.array(["c"])})
        with pytest.raises(Exception, match="duplicate k"):
            table_diff(_ds(a, 1), _ds(b, 1), "k", ["x"]).materialize()

    def test_null_key_raises(self, ray_session):
        a = pa.table({"k": pa.array([1, None], pa.int64()),
                      "x": pa.array(["a", "b"])})
        with pytest.raises(Exception, match="NULL k"):
            table_diff(_ds(a, 1), _ds(a, 1), "k", ["x"]).materialize()


def _brute_pareto(df):
    x = df.x.to_numpy()
    y = df.y.to_numpy()
    keep = []
    for i in range(len(df)):
        dom = ((x <= x[i]) & (y <= y[i]) & ((x < x[i]) | (y < y[i])))
        if not dom.any():
            keep.append(i)
    f = df.iloc[keep].groupby(["x", "y"]).size().rename("n").reset_index()
    return f.sort_values(["x", "y"]).reset_index(drop=True)


class TestParetoFront:
    def test_differential_vs_bruteforce_with_ties(self, ray_session):
        rng = np.random.default_rng(11)
        n = 4000
        df = pd.DataFrame({
            "x": rng.integers(0, 25, n).astype("int64"),
            "y": rng.integers(0, 40, n).astype("int64"),  # dense: ties
        })
        out = pareto_front(_ds(pa.Table.from_pandas(
            df, preserve_index=False), 6), "x", "y").to_pandas()
        got = out.sort_values(["x", "y"]).reset_index(drop=True)
        exp = _brute_pareto(df)
        pd.testing.assert_frame_equal(got.astype("int64"),
                                      exp.astype("int64"))
        assert (got.n > 1).any()  # the dense domain produced point ties

    def test_equal_y_at_larger_x_is_dominated(self, ray_session):
        # strictness edge: (2, 5) is dominated by (1, 5) (strict in x);
        # (3, 4) survives (strictly lower y than every smaller x)
        t = pa.table({"x": pa.array([1, 2, 3], pa.int64()),
                      "y": pa.array([5, 5, 4], pa.int64())})
        out = pareto_front(_ds(t, 2), "x", "y").to_pandas()
        pts = sorted(map(tuple, out[["x", "y"]].to_numpy().tolist()))
        assert pts == [(1, 5), (3, 4)]

    def test_single_point_and_nulls_drop(self, ray_session):
        t = pa.table({"x": pa.array([7, None], pa.int64()),
                      "y": pa.array([3, 1], pa.int64())})
        out = pareto_front(_ds(t, 1), "x", "y").to_pandas()
        assert out.to_dict("records") == [{"x": 7, "y": 3, "n": 1}]


class TestOrdersChecksum:
    def test_layout_independent(self, ray_session):
        """The anti-entropy contract: the same logical table hashes
        identically under different block layouts / row orders."""
        import __ray_entry__ as m

        sf = "/root/testdata/sf0.001"
        a = m.queries()["orders_checksum"](sf).to_pandas()

        import ray.data as rd
        import pyarrow.parquet as pq

        from jsschema_ray.stages.sampling import _mix32
        from jsschema_ray.stages.windows import round_half_away

        t = pq.read_table(f"{sf}/orders.parquet",
                          columns=["o_orderkey", "o_totalprice"])
        # shuffled row order, different block count
        idx = np.random.default_rng(5).permutation(t.num_rows)
        shuf = _ds(t.take(pa.array(idx)), 7)

        def partial(b: pa.Table) -> pa.Table:
            b = b.drop_null()
            k = b.column("o_orderkey").to_numpy(zero_copy_only=False)
            cents = round_half_away(
                b.column("o_totalprice").to_numpy(zero_copy_only=False)
                * 100).astype(np.int64)
            return pa.table({
                "n_rows": pa.array([b.num_rows], pa.int64()),
                "key_checksum": pa.array(
                    [int(_mix32(k, 1).sum())], pa.int64()),
                "value_checksum": pa.array(
                    [int(_mix32(cents % (1 << 31), 2).sum())], pa.int64()),
            })

        parts = shuf.map_batches(partial, batch_format="pyarrow",
                                 batch_size=777)
        s = parts.sum(["n_rows", "key_checksum", "value_checksum"])
        assert int(s["sum(n_rows)"]) == int(a.n_rows.iloc[0])
        assert int(s["sum(key_checksum)"]) == int(a.key_checksum.iloc[0])
        assert int(s["sum(value_checksum)"]) == \
            int(a.value_checksum.iloc[0])


class TestPartitionChecksums:
    def test_partition_sums_equal_global(self, ray_session):
        """The per-partition checksums FOLD to the global ones — the
        property that lets a resume verify one slice against the whole."""
        import __ray_entry__ as m

        sf = "/root/testdata/sf0.001"
        per = m.queries()["partition_checksums"](sf).to_pandas()
        glob_ = m.queries()["orders_checksum"](sf).to_pandas()
        assert int(per.n_rows.sum()) == int(glob_.n_rows.iloc[0])
        assert int(per.key_checksum.sum()) == \
            int(glob_.key_checksum.iloc[0])
        assert int(per.value_checksum.sum()) == \
            int(glob_.value_checksum.iloc[0])


class TestR5hQueries:
    """Edge semantics for the r5h tail queries (SQL parity runs in
    test_oracle_parity; these pin what parity can't see in the data)."""

    def test_latency_keeps_negative_and_drops_partial_users(
            self, ray_session):
        import ray.data as rd

        import __ray_entry__ as m
        # build a tiny synthetic events parquet: u1 view->purchase,
        # u2 purchase-before-view (negative latency KEPT), u3 view only
        import os
        import tempfile

        import pyarrow.parquet as pq

        ts = pa.array([1_000_000, 5_000_000, 2_000_000, 9_000_000,
                       3_000_000], pa.timestamp("us"))
        t = pa.table({
            "user_id": pa.array([1, 1, 2, 2, 3], pa.int64()),
            "ts": ts,
            "event_type": pa.array(["view", "purchase", "purchase",
                                    "view", "view"]),
        })
        d = tempfile.mkdtemp(prefix="r5h_")
        pq.write_table(t, os.path.join(d, "events.parquet"))
        out = m.queries()["first_event_latency"](d).to_pandas()
        got = {int(r.user_id): int(r.latency_us) for r in out.itertuples()}
        # u3 (view only) excluded; u2's purchase-first latency negative
        assert got == {1: 4_000_000, 2: -7_000_000}

    def test_heatmap_bins_exact_on_boundaries(self, ray_session):
        import __ray_entry__ as m

        sf = "/root/testdata/sf0.001"
        out = m.queries()["price_size_heatmap"](sf).to_pandas()
        assert (out.size_bin.between(0, 4)).all()
        assert (out.price_bin.between(0, 4)).all()
        # total count conserved vs the raw in-range row count
        import duckdb

        n = duckdb.sql(
            f"""SELECT COUNT(*) FROM
                read_parquet('{sf}/part.parquet')
                WHERE p_size BETWEEN 1 AND 50
                  AND p_retailprice IS NOT NULL
                  AND CAST(ROUND(p_retailprice*100) AS BIGINT)
                      BETWEEN 90000 AND 99999""").fetchone()[0]
        assert int(out.n.sum()) == int(n)

    def test_dedup_rate_identities(self, ray_session):
        import __ray_entry__ as m

        sf = "/root/testdata/sf0.001"
        out = m.queries()["dedup_rate_by_source"](sf).to_pandas()
        assert (out.n_dup_docs == out.n_docs - out.n_distinct).all()
        assert (out.n_distinct <= out.n_docs).all()
        assert (out.n_distinct > 0).all()

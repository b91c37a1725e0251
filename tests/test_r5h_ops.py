"""Round-5 final-session additions, part 6: grouped_iqr_outliers (the
Tukey-fence / box-plot outlier audit, all-int64 fences) and its
image-table composition (bytes-per-pixel per format). SQL parity for
the two oracled queries runs in test_oracle_parity; these pin the
fence arithmetic against a brute-force reference, the integer fast
path, NULL semantics, the overflow/parameter guards, and batch
independence."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from jsschema_ray.stages.quantiles import grouped_iqr_outliers


def _ds(table, n_blocks=4):
    import ray.data as rd

    t = table if isinstance(table, pa.Table) else pa.table(table)
    return rd.from_arrow(t).repartition(n_blocks)


def _brute(df, scale=100, k_num=3, k_den=2):
    """Row-at-a-time reference with DuckDB quantile_disc selection."""
    out = []
    for g, sub in df.dropna(subset=["v"]).groupby("g", dropna=False):
        v = np.array(
            [int(np.floor(abs(x) * scale + 0.5)) * (1 if x >= 0 else -1)
             for x in sub["v"]], dtype=np.int64)
        v.sort()
        n = len(v)
        q1 = v[max(1, int(np.ceil(0.25 * n))) - 1]
        q3 = v[max(1, int(np.ceil(0.75 * n))) - 1]
        a, b, s = 2 * k_den + 2 * k_num, 2 * k_num, 2 * k_den
        n_out = int(np.sum((s * v < a * q1 - b * q3)
                           | (s * v > a * q3 - b * q1)))
        out.append((g, q1, q3, n, n_out))
    return pd.DataFrame(out, columns=["g", "q1_cents", "q3_cents", "n",
                                      "n_outliers"]).sort_values(
        "g").reset_index(drop=True)


class TestGroupedIqrOutliers:
    def test_vs_brute_force_random(self, ray_session):
        rng = np.random.default_rng(11)
        n = 30000
        df = pd.DataFrame({
            "g": rng.integers(0, 7, n),
            "v": np.round(rng.normal(100, 30, n), 2),
        })
        # salt in hard outliers + ties + a NULL
        df.loc[:20, "v"] = 9999.99
        df.loc[21:40, "v"] = -500.0
        df.loc[41, "v"] = np.nan
        got = (grouped_iqr_outliers(_ds(pa.Table.from_pandas(df)), "g", "v")
               .to_pandas().sort_values("g").reset_index(drop=True))
        want = _brute(df)
        pd.testing.assert_frame_equal(
            got.astype({"g": np.int64}), want.astype({"g": np.int64}),
            check_dtype=False)

    def test_matches_duckdb_quantile_disc(self, ray_session):
        rng = np.random.default_rng(5)
        n = 20000
        df = pd.DataFrame({
            "g": rng.choice(["a", "b", "c"], n),
            "v": np.round(rng.exponential(50, n), 2),
        })
        got = (grouped_iqr_outliers(_ds(pa.Table.from_pandas(df)), "g", "v")
               .to_pandas().sort_values("g").reset_index(drop=True))
        want = duckdb.sql("""
            WITH c AS (SELECT g, CAST(ROUND(v*100) AS BIGINT) AS v
                       FROM df WHERE v IS NOT NULL),
            q AS (SELECT g, quantile_disc(v, 0.25) AS q1,
                         quantile_disc(v, 0.75) AS q3, COUNT(*) AS n
                  FROM c GROUP BY g)
            SELECT q.g, q.q1 AS q1_cents, q.q3 AS q3_cents, q.n AS n,
                   CAST(SUM(CASE WHEN 2*c.v < 5*q.q1 - 3*q.q3
                                   OR 2*c.v > 5*q.q3 - 3*q.q1
                                 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_outliers
            FROM q JOIN c ON c.g = q.g
            GROUP BY q.g, q.q1, q.q3, q.n ORDER BY q.g
        """).fetchdf()
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_integer_fast_path_no_float_roundtrip(self, ray_session):
        # 2^53 + small offsets: a float64 round-trip would collapse these
        base = 2**53
        t = pa.table({
            "g": pa.array([1] * 8, pa.int64()),
            "v": pa.array([base + i for i in range(6)]
                          + [base + 10**6, base - 10**6], pa.int64()),
        })
        # |v| >= 2^57 guard not hit (2^53 << 2^57); scale=1 int path
        got = grouped_iqr_outliers(_ds(t, 2), "g", "v",
                                   scale=1).to_pandas()
        v = sorted([base + i for i in range(6)]
                   + [base + 10**6, base - 10**6])
        q1, q3 = v[max(1, int(np.ceil(0.25 * 8))) - 1], \
            v[max(1, int(np.ceil(0.75 * 8))) - 1]
        n_out = sum(1 for x in v
                    if 2 * x < 5 * q1 - 3 * q3 or 2 * x > 5 * q3 - 3 * q1)
        assert got.q1_cents[0] == q1 and got.q3_cents[0] == q3
        assert got.n[0] == 8 and got.n_outliers[0] == n_out

    def test_custom_k_and_guards(self, ray_session):
        t = pa.table({"g": [1, 1, 1, 1], "v": [1.0, 2.0, 3.0, 100.0]})
        # k = 3 (3/1): wider fences than 1.5 -> fewer-or-equal outliers
        wide = grouped_iqr_outliers(_ds(t, 1), "g", "v", k_num=3,
                                    k_den=1).to_pandas()
        tight = grouped_iqr_outliers(_ds(t, 1), "g", "v").to_pandas()
        assert wide.n_outliers[0] <= tight.n_outliers[0]
        with pytest.raises(ValueError, match="k_num"):
            grouped_iqr_outliers(_ds(t, 1), "g", "v", k_num=0)
        with pytest.raises(ValueError, match="k_num"):
            grouped_iqr_outliers(_ds(t, 1), "g", "v", k_num=20, k_den=1)
        big = pa.table({"g": [1], "v": [float(2**57)]})
        with pytest.raises(Exception, match="2\\^57"):
            grouped_iqr_outliers(_ds(big, 1), "g", "v",
                                 scale=1).to_pandas()

    def test_batch_layout_independence(self, ray_session):
        rng = np.random.default_rng(3)
        n = 5000
        df = pd.DataFrame({"g": rng.integers(0, 4, n),
                           "v": np.round(rng.normal(0, 10, n), 2)})
        t = pa.Table.from_pandas(df)
        a = (grouped_iqr_outliers(_ds(t, 1), "g", "v").to_pandas()
             .sort_values("g").reset_index(drop=True))
        b = (grouped_iqr_outliers(_ds(t, 13), "g", "v").to_pandas()
             .sort_values("g").reset_index(drop=True))
        pd.testing.assert_frame_equal(a, b)


class TestImageBppOutliers:
    def test_counts_and_fences_consistent(self, ray_session):
        import __ray_entry__ as m

        sf = "/root/testdata/sf0.001"
        out = m.queries()["image_bpp_outliers"](sf).to_pandas()
        assert len(out) >= 1
        assert (out.q1_cents <= out.q3_cents).all()
        assert (out.n_outliers <= out.n).all()
        assert (out.n_outliers >= 0).all()
        assert out.fmt.notna().all()


class TestBitBalance:
    def test_known_values(self, ray_session):
        from jsschema_ray.stages.stats import bit_balance

        # 0b1011 x3, 0b0100 x1, one NULL
        t = pa.table({"h": pa.array([11, 11, 11, 4, None], pa.int64())})
        out = (bit_balance(_ds(t, 2), "h", bits=4).to_pandas()
               .sort_values("bit").reset_index(drop=True))
        assert out.bit.tolist() == [0, 1, 2, 3]
        assert out.n_ones.tolist() == [3, 3, 1, 3]
        assert (out.n == 4).all()

    def test_vs_numpy_random_and_layout(self, ray_session):
        from jsschema_ray.stages.stats import bit_balance

        rng = np.random.default_rng(9)
        v = rng.integers(0, 2**63 - 1, 50000, dtype=np.int64)
        want = [int(((v >> b) & 1).sum()) for b in range(64)]
        t = pa.table({"h": pa.array(v)})
        for blocks in (1, 7):
            out = (bit_balance(_ds(t, blocks), "h").to_pandas()
                   .sort_values("bit").reset_index(drop=True))
            assert out.n_ones.tolist() == want
            assert (out.n == 50000).all()

    def test_negative_raises(self, ray_session):
        from jsschema_ray.stages.stats import bit_balance

        t = pa.table({"h": pa.array([1, -2], pa.int64())})
        with pytest.raises(Exception, match="non-negative"):
            bit_balance(_ds(t, 1), "h").to_pandas()


class TestCaptionSpam:
    def test_threshold_and_order(self, ray_session):
        import __ray_entry__ as m

        out = m.queries()["caption_spam"]("/root/testdata/sf0.001").to_pandas()
        assert (out.n_images > 2).all()
        assert out.caption.notna().all()
        # deterministic: count DESC then caption ASC
        assert (out.n_images.is_monotonic_decreasing)


class TestReconcileSums:
    def test_known_mismatches_and_missing_details(self, ray_session):
        from jsschema_ray.stages.referential import reconcile_sums

        detail = pa.table({
            "k": pa.array([1, 1, 2, 2, 2, None, 4], pa.int64()),
            "v": pa.array([10.00, 5.25, 7.00, None, 3.00, 99.0, 1.0]),
        })
        header = pa.table({
            "hk": pa.array([1, 2, 3, None], pa.int64()),
            "total": pa.array([15.25, 11.00, 2.50, 8.0]),
        })
        out = (reconcile_sums(_ds(detail, 3), _ds(header, 2), "k", "hk",
                              "v", "total", k=10)
               .to_pandas().set_index("hk"))
        # header 1: 1525 vs 1525 -> diff 0; header 2: 1100 vs 1000 -> 100
        # header 3: no details -> 250 vs 0; NULL-key rows drop both sides
        assert out.loc[1, "diff_cents"] == 0
        assert out.loc[2, "diff_cents"] == 100
        assert out.loc[3, "detail_cents"] == 0
        assert out.loc[3, "diff_cents"] == 250
        assert len(out) == 3           # NULL header key dropped
        # worst-first order
        assert out.abs_diff.is_monotonic_decreasing

    def test_detail_orphans_excluded(self, ray_session):
        from jsschema_ray.stages.referential import reconcile_sums

        detail = pa.table({"k": pa.array([9], pa.int64()),
                           "v": pa.array([5.0])})
        header = pa.table({"hk": pa.array([1], pa.int64()),
                           "total": pa.array([5.0])})
        out = reconcile_sums(_ds(detail, 1), _ds(header, 1), "k", "hk",
                             "v", "total", k=5).to_pandas()
        assert out.hk.tolist() == [1]  # orphan detail key 9 not reported

    def test_overflow_guard(self, ray_session):
        from jsschema_ray.stages.referential import reconcile_sums

        detail = pa.table({"k": pa.array([1], pa.int64()),
                           "v": pa.array([float(2**61)])})
        header = pa.table({"hk": pa.array([1], pa.int64()),
                           "total": pa.array([1.0])})
        with pytest.raises(Exception, match="2\\^62"):
            reconcile_sums(_ds(detail, 1), _ds(header, 1), "k", "hk",
                           "v", "total").to_pandas()


class TestUpsert:
    def test_semantics_with_updates_inserts_and_dup_base(self, ray_session):
        from jsschema_ray.stages.transform import upsert

        base = pa.table({
            "k": pa.array([1, 2, 2, 3], pa.int64()),   # dup base key 2
            "v": pa.array(["a", "b1", "b2", "c"]),
        })
        updates = pa.table({
            "k": pa.array([2, 9], pa.int64()),          # replace 2, insert 9
            "v": pa.array(["B", "new"]),
        })
        out = (upsert(_ds(base, 3), _ds(updates, 2), "k")
               .to_pandas().sort_values(["k", "v"]).reset_index(drop=True))
        assert out.k.tolist() == [1, 2, 3, 9]   # BOTH dup-base rows replaced
        assert out.v.tolist() == ["a", "B", "c", "new"]

    def test_guards(self, ray_session):
        from jsschema_ray.stages.transform import upsert

        base = pa.table({"k": pa.array([1], pa.int64()), "v": ["a"]})
        dup_updates = pa.table({"k": pa.array([2, 2], pa.int64()),
                                "v": ["x", "y"]})
        with pytest.raises(Exception, match="duplicate"):
            upsert(_ds(base, 1), _ds(dup_updates, 1), "k").to_pandas()
        null_updates = pa.table({"k": pa.array([None], pa.int64()),
                                 "v": ["x"]})
        with pytest.raises(Exception, match="NULL"):
            upsert(_ds(base, 1), _ds(null_updates, 1), "k").to_pandas()
        wrong_cols = pa.table({"k": pa.array([2], pa.int64()),
                               "w": ["x"]})
        with pytest.raises(ValueError, match="column sets"):
            upsert(_ds(base, 1), _ds(wrong_cols, 1), "k")

    def test_empty_updates_identity(self, ray_session):
        from jsschema_ray.stages.transform import upsert

        base = pa.table({"k": pa.array([5, 6], pa.int64()),
                         "v": ["p", "q"]})
        empty = pa.table({"k": pa.array([], pa.int64()),
                          "v": pa.array([], pa.string())})
        out = (upsert(_ds(base, 2), _ds(empty, 1), "k")
               .to_pandas().sort_values("k").reset_index(drop=True))
        assert out.k.tolist() == [5, 6] and out.v.tolist() == ["p", "q"]


class TestTopKRowsSmallInputOrder:
    def test_sorted_even_when_rows_below_k(self, ray_session):
        from jsschema_ray.stages.stats import top_k_rows

        t = pa.table({"v": pa.array([3, 1, 2], pa.int64()),
                      "id": pa.array([30, 10, 20], pa.int64())})
        out = top_k_rows(_ds(t, 3), value="v", tiebreak="id",
                         k=10).to_pandas()
        assert out.v.tolist() == [3, 2, 1]   # r5h fix: ORDER BY holds
        asc = top_k_rows(_ds(t, 3), value="v", tiebreak="id", k=10,
                         descending=False).to_pandas()
        assert asc.v.tolist() == [1, 2, 3]


class TestJoinCardinality:
    def test_exact_products_and_hot_key(self, ray_session):
        from jsschema_ray.stages.join import join_cardinality

        left = pa.table({"k": pa.array(
            [1] * 5 + [2] * 3 + [3] * 1 + [None], pa.int64())})
        right = pa.table({"k": pa.array(
            [1] * 2 + [2] * 4 + [9] * 7 + [None], pa.int64())})
        out = join_cardinality(_ds(left, 3), _ds(right, 3), "k").to_pandas()
        assert len(out) == 1
        r = out.iloc[0]
        # matched: k=1 -> 5*2=10, k=2 -> 3*4=12; k=3/9 unmatched
        assert r.n_join_rows == 22 and r.n_join_keys == 2
        assert r.top_key == 2 and r.top_key_rows == 12
        assert r.n_left == 9 and r.n_right == 13   # non-null key rows

    def test_no_matches(self, ray_session):
        from jsschema_ray.stages.join import join_cardinality

        left = pa.table({"k": pa.array([1, 2], pa.int64())})
        right = pa.table({"k": pa.array([8, 9], pa.int64())})
        out = join_cardinality(_ds(left, 1), _ds(right, 1), "k").to_pandas()
        r = out.iloc[0]
        assert r.n_join_rows == 0 and r.n_join_keys == 0
        assert r.top_key_rows == 0 and pd.isna(r.top_key)

    def test_tie_breaks_to_smallest_key(self, ray_session):
        from jsschema_ray.stages.join import join_cardinality

        left = pa.table({"k": pa.array([5, 5, 7, 7], pa.int64())})
        right = pa.table({"k": pa.array([5, 7], pa.int64())})
        out = join_cardinality(_ds(left, 2), _ds(right, 1), "k").to_pandas()
        assert out.iloc[0].top_key == 5   # equal products 2 and 2


class TestDupClusterHistogram:
    def test_conservation_and_shape(self, ray_session):
        import __ray_entry__ as m

        out = m.queries()["dup_cluster_histogram"](
            "/root/testdata/sf0.001").to_pandas()
        assert (out.cluster_size >= 1).all()
        assert (out.n_clusters >= 1).all()
        # conservation: sum(size * clusters) == non-null caption rows
        import duckdb

        meta = m._image_meta_path("/root/testdata/sf0.001")
        n = duckdb.sql(f"SELECT COUNT(caption) FROM "
                       f"read_parquet('{meta}')").fetchone()[0]
        assert int((out.cluster_size * out.n_clusters).sum()) == int(n)


class TestImageMagicAudit:
    def test_detects_png_under_lossy_labels(self, ray_session):
        import __ray_entry__ as m

        out = m.queries()["image_magic_audit"](
            "/root/testdata/sf0.001").to_pandas()
        # this corpus carries PNG payloads under every declared fmt
        # (the driver-mandated codec stubs) — the audit must surface it
        assert set(out.detected_fmt) == {"png"}
        assert (out.n > 0).all()
        assert "png" in set(out.fmt) and len(out.fmt) >= 2


class TestImagePartitionVerdicts:
    def test_verdict_consistency_with_validate(self, ray_session):
        import __ray_entry__ as m

        out = m.queries()["image_partition_verdicts"](
            "/root/testdata/sf0.001").to_pandas()
        assert (out["pass"] == (out.n_invalid == 0)).all()
        assert (out.n_invalid <= out.n_rows).all()
        # total invalid rows equals the distinct offending keys only if
        # ids were unique; the row-count identity always holds:
        viol = m.queries()["image_validate"](
            "/root/testdata/sf0.001").to_pandas()
        # every fmt partition with a violation row must read pass=False
        # (fmt of a violating row: look it up in the meta mirror)
        import duckdb

        meta = m._image_meta_path("/root/testdata/sf0.001")
        n_invalid_total = duckdb.sql(f"""
            SELECT COUNT(*) FROM read_parquet('{meta}')
            WHERE NOT regexp_matches(image_id, '^img-[0-9]{{12}}$')
               OR w < 16 OR w > 4096 OR h < 16 OR h > 4096
               OR fmt NOT IN ('png','jpeg','webp')
               OR caption IS NULL OR LENGTH(caption) < 5
               OR LENGTH(caption) > 200""").fetchone()[0]
        assert int(out.n_invalid.sum()) == int(n_invalid_total)


class TestEmbeddingHealth:
    def test_dirty_vectors_vs_duckdb(self, ray_session):
        from jsschema_ray.stages.stats import embedding_health

        vecs = [
            [1.0, 2.0, 3.0],          # healthy
            [0.0, 0.0, 0.0],          # all zero
            [0.0, -0.0, 0.0],         # all zero (-0.0 counts)
            [float("nan"), 1.0, 2.0], # NaN
            [1.0, None, 2.0],         # NULL element (not NaN)
            [1.0, 2.0],               # wrong dim
            None,                     # NULL vector
            [],                       # wrong dim, NOT all-zero (empty)
        ]
        t = pa.table({"embedding": pa.array(vecs, pa.list_(pa.float32()))})
        out = embedding_health(_ds(t, 3), "embedding",
                               expected_dim=3).to_pandas().iloc[0]
        assert out.n_vectors == 8 and out.n_null_vec == 1
        assert out.n_wrong_dim == 2      # [1,2] and []
        assert out.n_null_elem == 1
        assert out.n_with_nan == 1       # the NULL element is not NaN
        assert out.n_all_zero == 2
        # DuckDB mirror over the same rows — via parquet, because the
        # pandas scan coerces NaN list elements to NULL and would
        # conflate the two predicates this audit separates
        import duckdb
        import pyarrow.parquet as pq

        path = "/tmp/jsschema_ray_test_embhealth.parquet"
        pq.write_table(t, path)
        want = duckdb.sql(f"""
            SELECT COUNT(*) AS n_vectors,
                   CAST(SUM(CASE WHEN embedding IS NULL THEN 1 ELSE 0
                            END) AS BIGINT) AS n_null_vec,
                   CAST(SUM(CASE WHEN embedding IS NOT NULL
                                  AND len(embedding) <> 3
                                 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_wrong_dim,
                   CAST(SUM(CASE WHEN embedding IS NOT NULL
                                  AND len(list_filter(embedding,
                                          x -> x IS NULL)) > 0
                                 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_null_elem,
                   CAST(SUM(CASE WHEN embedding IS NOT NULL
                                  AND len(list_filter(embedding,
                                          x -> isnan(x))) > 0
                                 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_with_nan,
                   CAST(SUM(CASE WHEN embedding IS NOT NULL
                                  AND len(embedding) > 0
                                  AND len(list_filter(embedding,
                                          x -> x = 0.0))
                                      = len(embedding)
                                 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_all_zero
            FROM read_parquet('{path}')""").fetchdf().iloc[0]
        for c in want.index:
            assert int(out[c]) == int(want[c]), c

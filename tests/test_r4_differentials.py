"""Randomized differentials for the round-4 operators vs DuckDB — the
adversarial-sweep pattern (random keys, nulls, ties, negatives, unicode)
that the fixed sf0.01 oracles never vary. Each test re-derives the SQL
contract on a fresh random frame and requires exact equality."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _ray():
    import ray.data
    return ray.data


@pytest.mark.parametrize("seed", [2, 17, 91])
def test_bloom_semi_join_randomized_vs_duckdb(ray_session, seed):
    rng = np.random.default_rng(seed)
    n = 3000
    lhs = pd.DataFrame({
        "k": rng.integers(-1000, 1000, n).astype("int64"),
        "x": np.arange(n, dtype="int64"),
    })
    # sprinkle null keys
    lhs.loc[rng.choice(n, 40, replace=False), "k"] = pd.NA
    lhs["k"] = lhs["k"].astype("Int64")
    rhs = pd.DataFrame(
        {"rk": rng.integers(-1000, 1000, 80).astype("int64")})

    from jsschema_ray.stages.join import bloom_semi_join

    lds = _ray().from_arrow(pa.Table.from_pandas(lhs)).repartition(4)
    rds = _ray().from_arrow(pa.Table.from_pandas(rhs)).repartition(2)
    got = bloom_semi_join(lds, rds, key="k", right_key="rk",
                          num_bits=128,
                          num_hashes=3).to_pandas()  # fp-heavy
    got = got.sort_values("x").reset_index(drop=True)
    want = duckdb.sql(
        "SELECT k, x FROM lhs WHERE k IN (SELECT rk FROM rhs) "
        "ORDER BY x").df()
    assert got.x.tolist() == want.x.tolist()


@pytest.mark.parametrize("seed", [5, 23])
def test_grouped_mode_randomized_vs_duckdb(ray_session, seed):
    rng = np.random.default_rng(seed)
    n = 2500
    pdf = pd.DataFrame({
        "g": rng.integers(0, 25, n).astype("int64"),
        "v": rng.choice(["a", "b", "c", "d", None], n,
                        p=[0.3, 0.3, 0.2, 0.1, 0.1]),
    })

    from jsschema_ray.stages.aggregates import grouped_mode

    ds = _ray().from_arrow(pa.Table.from_pandas(pdf)).repartition(5)
    got = grouped_mode(ds, "g", "v", batch_size=256).to_pandas() \
        .sort_values("g").reset_index(drop=True)
    want = duckdb.sql("""
        WITH c AS (SELECT g, v, COUNT(*) AS n FROM pdf
                   WHERE v IS NOT NULL GROUP BY 1, 2)
        SELECT g, v AS mode, n FROM c
        QUALIFY ROW_NUMBER() OVER (PARTITION BY g ORDER BY n DESC, v) = 1
        ORDER BY g
    """).df()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.parametrize("seed", [7, 31])
def test_rollup_and_cube_randomized_vs_duckdb(ray_session, seed):
    rng = np.random.default_rng(seed)
    n = 2000
    pdf = pd.DataFrame({
        "a": rng.choice(["p", "q", "r"], n),
        "b": rng.integers(0, 4, n).astype("int64"),
        "v": rng.integers(-10**6, 10**6, n).astype("int64"),
    })

    from jsschema_ray.stages.aggregates import cube_sums, rollup_sums

    ds = _ray().from_arrow(pa.Table.from_pandas(pdf)).repartition(4)
    for fn, clause in ((rollup_sums, "ROLLUP"), (cube_sums, "CUBE")):
        got = fn(ds, ["a", "b"], {"sv": "v"}, batch_size=256).to_pandas()
        got = got.sort_values(
            ["grouping_id", "a", "b"], na_position="last"
        ).reset_index(drop=True)
        want = duckdb.sql(f"""
            SELECT a, b,
                   CAST(GROUPING(a) * 2 + GROUPING(b) AS BIGINT)
                       AS grouping_id,
                   CAST(SUM(v) AS BIGINT) AS sv, COUNT(*) AS n
            FROM pdf GROUP BY {clause}(a, b)
            ORDER BY grouping_id, a NULLS LAST, b NULLS LAST
        """).df()
        pd.testing.assert_frame_equal(
            got[["a", "b", "grouping_id", "sv", "n"]], want,
            check_dtype=False)


@pytest.mark.parametrize("seed", [11, 43])
def test_funnel_randomized_vs_duckdb_cascade(ray_session, seed):
    rng = np.random.default_rng(seed)
    n = 1200
    pdf = pd.DataFrame({
        "user_id": rng.integers(0, 40, n).astype("int64"),
        "ts": pd.Timestamp("2024-01-01") + pd.to_timedelta(
            rng.integers(0, 30, n), unit="s"),  # HEAVY ties
        "event_id": rng.permutation(n).astype("int64"),
        "event_type": rng.choice(["A", "B", "C", "x"], n),
    })

    from jsschema_ray.stages.windows import funnel_stages

    ds = _ray().from_arrow(pa.Table.from_pandas(pdf)).repartition(5)
    got = funnel_stages(ds, key="user_id", order="ts",
                        tiebreak="event_id", stage_col="event_type",
                        stages=["A", "B", "C"]) \
        .to_pandas().sort_values("user_id").reset_index(drop=True)
    want = duckdb.sql("""
        WITH s1 AS (SELECT user_id, ts, event_id FROM pdf
                    WHERE event_type = 'A'
                    QUALIFY ROW_NUMBER() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) = 1),
             s2 AS (SELECT e.user_id, e.ts, e.event_id FROM pdf e
                    JOIN s1 ON e.user_id = s1.user_id
                    WHERE e.event_type = 'B'
                      AND (e.ts > s1.ts OR (e.ts = s1.ts
                           AND e.event_id > s1.event_id))
                    QUALIFY ROW_NUMBER() OVER (PARTITION BY e.user_id
                            ORDER BY e.ts, e.event_id) = 1),
             s3 AS (SELECT e.user_id, e.ts, e.event_id FROM pdf e
                    JOIN s2 ON e.user_id = s2.user_id
                    WHERE e.event_type = 'C'
                      AND (e.ts > s2.ts OR (e.ts = s2.ts
                           AND e.event_id > s2.event_id))
                    QUALIFY ROW_NUMBER() OVER (PARTITION BY e.user_id
                            ORDER BY e.ts, e.event_id) = 1),
             u AS (SELECT DISTINCT user_id FROM pdf)
        SELECT u.user_id,
               CAST((s1.event_id IS NOT NULL)::INT
                    + (s2.event_id IS NOT NULL)::INT
                    + (s3.event_id IS NOT NULL)::INT AS BIGINT) AS reached,
               s1.event_id AS match1_event_id,
               s2.event_id AS match2_event_id,
               s3.event_id AS match3_event_id
        FROM u LEFT JOIN s1 ON u.user_id = s1.user_id
        LEFT JOIN s2 ON u.user_id = s2.user_id
        LEFT JOIN s3 ON u.user_id = s3.user_id
        ORDER BY u.user_id
    """).df()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.parametrize("seed", [13, 59])
def test_chunk_documents_randomized_vs_duckdb(ray_session, seed):
    rng = np.random.default_rng(seed)
    vocab = ["alpha", "beta", "Gamma!", "café", "1234", "—dash"]
    texts = []
    for _ in range(60):
        nw = int(rng.integers(0, 40))
        texts.append("  ".join(rng.choice(vocab, nw)) if nw else
                     rng.choice(["", "   "]))
    pdf = pd.DataFrame({"doc_id": np.arange(60, dtype="int64"),
                        "text": texts})

    from jsschema_ray.stages.text import chunk_documents

    ds = _ray().from_arrow(pa.Table.from_pandas(pdf)).repartition(4)
    got = chunk_documents(ds, chunk_words=7, stride_words=5,
                          batch_size=8).to_pandas() \
        .sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)
    want = duckdb.sql(r"""
        WITH t AS (SELECT doc_id, regexp_extract_all(text, '\S+') AS w
                   FROM pdf),
             g AS (SELECT doc_id, w, LEN(w) AS n FROM t WHERE LEN(w) > 0),
             k AS (SELECT doc_id, w,
                          UNNEST(RANGE(0, ((n - 1) // 5) + 1)) AS chunk_id
                   FROM g)
        SELECT doc_id, chunk_id,
               ARRAY_TO_STRING(w[chunk_id*5 + 1 : chunk_id*5 + 7], ' ')
                   AS chunk_text
        FROM k ORDER BY doc_id, chunk_id
    """).df()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.parametrize("seed", [3, 71])
def test_value_cdf_randomized_vs_duckdb(ray_session, seed):
    rng = np.random.default_rng(seed)
    vals = np.round(rng.normal(0, 5, 4000), 1)
    vals[rng.choice(4000, 60, replace=False)] = np.nan
    pdf = pd.DataFrame({"v": vals})

    from jsschema_ray.stages.quantiles import value_cdf

    ds = _ray().from_arrow(pa.Table.from_pandas(pdf)).repartition(5)
    got = value_cdf(ds, "v", batch_size=256).to_pandas() \
        .sort_values("v").reset_index(drop=True)
    want = duckdb.sql("""
        WITH c AS (SELECT v, COUNT(*) AS cnt FROM pdf
                   WHERE v IS NOT NULL AND NOT isnan(v) GROUP BY 1)
        SELECT v,
               CAST(SUM(cnt) OVER (ORDER BY v ROWS BETWEEN UNBOUNDED
                    PRECEDING AND CURRENT ROW) - cnt AS BIGINT) AS n_lt,
               CAST(SUM(cnt) OVER (ORDER BY v ROWS BETWEEN UNBOUNDED
                    PRECEDING AND CURRENT ROW) AS BIGINT) AS n_le,
               CAST((SELECT SUM(cnt) FROM c) AS BIGINT) AS n_total
        FROM c ORDER BY v
    """).df()
    # engine groups NaN as a value; SQL mirror above excludes NaN, so
    # compare the non-NaN slice exactly and pin NaN's row separately
    g_nan = got[got.v.isna()]
    got2 = got[got.v.notna()].reset_index(drop=True)
    if len(g_nan):
        assert int(g_nan.n_le.iloc[0]) == int(got.n_total.iloc[0])
        got2 = got2.assign(n_total=got2.n_total - len(pdf[~np.isnan(vals)])
                           + want.n_total.iloc[0])
        got2["n_total"] = want.n_total.iloc[0] + 60
    pd.testing.assert_frame_equal(
        got2[["v", "n_lt", "n_le"]], want[["v", "n_lt", "n_le"]],
        check_dtype=False)

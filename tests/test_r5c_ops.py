"""Round-5 final-session additions: interval_coverage (sweep-line
interval-union length per key), grouped_skewness (exact third-moment
sums, bit-mirrored float finish), and top_n_with_ties ascending=True
(the min-join-back shape). SQL parity for the three oracled queries
(user_coverage, quantity_skewness, min_price_parts) runs in
test_oracle_parity; these pin edge cases and refusal guards."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from jsschema_ray.stages.aggregates import grouped_skewness, top_n_with_ties
from jsschema_ray.stages.windows import interval_coverage


def _ds(table: dict, n_blocks=4):
    import ray.data as rd

    return rd.from_arrow(pa.table(table)).repartition(n_blocks)


class TestIntervalCoverage:
    def _mirror(self, df: pd.DataFrame) -> pd.DataFrame:
        return duckdb.sql("""
            WITH m AS (SELECT k, s, e,
                   MAX(e) OVER (PARTITION BY k ORDER BY s, e
                                ROWS BETWEEN UNBOUNDED PRECEDING
                                         AND 1 PRECEDING) AS pm
            FROM df)
            SELECT k,
                   CAST(SUM(GREATEST(e - GREATEST(s, COALESCE(pm, s)), 0))
                        AS BIGINT) AS covered,
                   COUNT(*) AS n_intervals
            FROM m GROUP BY k ORDER BY k
        """).df()

    def test_matches_sql_sweep(self, ray_session):
        rng = np.random.default_rng(11)
        n = 20000
        df = pd.DataFrame({
            "k": rng.integers(0, 300, n),
            "s": rng.integers(0, 1_000_000, n),
        })
        df["e"] = df["s"] + rng.integers(0, 5_000, n)
        got = interval_coverage(
            _ds({c: pa.array(df[c].to_numpy(), pa.int64())
                 for c in ("k", "s", "e")}),
            "k", "s", "e",
        ).to_pandas().sort_values("k").reset_index(drop=True)
        exp = self._mirror(df)
        assert (got["covered"].to_numpy()
                == exp["covered"].to_numpy()).all()
        assert (got["n_intervals"].to_numpy()
                == exp["n_intervals"].to_numpy()).all()

    def test_disjoint_nested_chained(self, ray_session):
        # one key: [0,10) ∪ [5,8) nested ∪ [10,15) touching ∪ [20,25)
        got = interval_coverage(
            _ds({"k": pa.array([1, 1, 1, 1], pa.int64()),
                 "s": pa.array([0, 5, 10, 20], pa.int64()),
                 "e": pa.array([10, 8, 15, 25], pa.int64())}, 2),
            "k", "s", "e").to_pandas()
        assert got["covered"].tolist() == [20]  # 15 + 5
        assert got["n_intervals"].tolist() == [4]

    def test_malformed_and_null_rows(self, ray_session):
        # e <= s contributes 0 but counts; NULL start/end rows drop
        got = interval_coverage(
            _ds({"k": pa.array([1, 1, 1], pa.int64()),
                 "s": pa.array([0, 50, None], pa.int64()),
                 "e": pa.array([10, 40, 99], pa.int64())}, 1),
            "k", "s", "e").to_pandas()
        assert got["covered"].tolist() == [10]
        assert got["n_intervals"].tolist() == [2]

    def test_null_keys_one_group(self, ray_session):
        got = interval_coverage(
            _ds({"k": pa.array([None, None, 7], pa.int64()),
                 "s": pa.array([0, 5, 0], pa.int64()),
                 "e": pa.array([10, 20, 3], pa.int64())}, 2),
            "k", "s", "e").to_pandas()
        by = {k: c for k, c in zip(got["k"].tolist(),
                                   got["covered"].tolist())}
        assert len(got) == 2
        assert by[7] == 3
        nullrow = got[got["k"].isna()]
        assert nullrow["covered"].tolist() == [20]

    def test_wide_span_in_one_partition(self, ray_session, set_fanout):
        """Keys whose values span 2^62 in ONE partition: the sweep
        encodes the dense rank of ``e``, so nothing overflows int64, and
        the union lengths equal a pandas sweep."""
        big = 1 << 61
        df = pd.DataFrame({"k": [1, 2, 1, 3, 2],
                           "s": [0, 0, big - 5, -big, 3],
                           "e": [big, big, big + 3, big, 4]})
        set_fanout(1)
        got = interval_coverage(
            _ds({c: pa.array(df[c], pa.int64()) for c in df}, 1),
            "k", "s", "e").to_pandas().sort_values("k").reset_index(
            drop=True)
        d = df.sort_values(["k", "s", "e"])
        prev = d.groupby("k")["e"].cummax().groupby(d["k"]).shift(
            fill_value=np.iinfo(np.int64).min)
        d["c"] = (d["e"] - np.maximum(d["s"], prev)).clip(lower=0)
        want = d.groupby("k").agg(covered=("c", "sum"),
                                  n_intervals=("c", "size")).reset_index()
        assert want["covered"].tolist() == [big + 3, big, 2 * big]
        assert got["k"].tolist() == want["k"].tolist()
        assert got["covered"].tolist() == want["covered"].tolist()
        assert got["n_intervals"].tolist() == want["n_intervals"].tolist()


class TestGroupedSkewness:
    def test_bit_identical_vs_duckdb(self, ray_session):
        rng = np.random.default_rng(5)
        df = pd.DataFrame({"g": rng.choice(list("abcd"), 8000),
                           "x": rng.uniform(0.5, 40, 8000).round(2)})
        df.loc[::17, "x"] = np.nan
        got = grouped_skewness(
            _ds({"g": pa.array(df["g"]),
                 "x": pa.array(df["x"])}), "g", "x",
        ).to_pandas().sort_values("g").reset_index(drop=True)
        exp = duckdb.sql("""
            WITH s AS (SELECT g, CAST(ROUND(x*100) AS BIGINT) v
                       FROM df WHERE x IS NOT NULL),
            m AS (SELECT g, COUNT(*) n, CAST(COUNT(*) AS DOUBLE) fn,
                         CAST(SUM(v) AS BIGINT) s1,
                         CAST(SUM(v*v) AS BIGINT) s2,
                         CAST(SUM(v*v*v) AS BIGINT) s3
                  FROM s GROUP BY g)
            SELECT g, n, s1, s2, s3,
                   CASE WHEN fn*CAST(s2 AS DOUBLE)
                             - CAST(s1 AS DOUBLE)*CAST(s1 AS DOUBLE) > 0
                   THEN (fn*fn*CAST(s3 AS DOUBLE)
                         - 3.0*fn*CAST(s1 AS DOUBLE)*CAST(s2 AS DOUBLE)
                         + 2.0*CAST(s1 AS DOUBLE)*CAST(s1 AS DOUBLE)
                               *CAST(s1 AS DOUBLE))
                        / ((fn*CAST(s2 AS DOUBLE)
                            - CAST(s1 AS DOUBLE)*CAST(s1 AS DOUBLE))
                           * SQRT(fn*CAST(s2 AS DOUBLE)
                                  - CAST(s1 AS DOUBLE)*CAST(s1 AS DOUBLE)))
                   ELSE NULL END AS skew
            FROM m ORDER BY g
        """).df()
        for c in ("n", "s1", "s2", "s3"):
            assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c
        # bitwise float equality, not allclose
        assert np.array_equal(got["skew"].to_numpy(),
                              exp["skew"].to_numpy())

    def test_constant_group_skew_null(self, ray_session):
        got = grouped_skewness(
            _ds({"g": pa.array(["c"] * 5),
                 "x": pa.array([3.0] * 5)}, 1), "g", "x").to_pandas()
        assert got["n"].tolist() == [5]
        assert got["skew"].isna().all()

    def test_cube_guard_raises(self, ray_session):
        ds = _ds({"g": pa.array(["a"]),
                  "x": pa.array([float(1 << 22)])}, 1)
        with pytest.raises(Exception, match="2\\^21|overflow"):
            grouped_skewness(ds, "g", "x", scale=100).to_pandas()


class TestAscendingTies:
    def test_min_ties_and_rank(self, ray_session):
        t = {"g": pa.array([1, 1, 1, 2, 2, 2], pa.int64()),
             "v": pa.array([4, 2, 2, 9, 9, 9], pa.int64()),
             "id": pa.array(range(6), pa.int64())}
        got = top_n_with_ties(_ds(t, 3), "g", "v", n=1,
                              ascending=True).to_pandas()
        rows = sorted(map(tuple, got[["g", "v", "rnk"]].to_numpy().tolist()))
        assert rows == [(1, 2, 1), (1, 2, 1), (2, 9, 1), (2, 9, 1),
                        (2, 9, 1)]

    def test_ascending_nan_never_wins(self, ray_session):
        t = {"g": pa.array(["a", "a", "b"]),
             "v": pa.array([np.nan, 5.0, np.nan])}
        got = top_n_with_ties(_ds(t, 2), "g", "v", n=1,
                              ascending=True).to_pandas()
        a = got[got["g"] == "a"]
        # NaN sorts LAST even ascending: the real 5.0 wins group a;
        # group b is all-NaN so its NaN row ranks 1 by default
        assert a["v"].tolist() == [5.0]

    def test_ascending_matches_sql_rank(self, ray_session):
        rng = np.random.default_rng(3)
        df = pd.DataFrame({"g": rng.integers(0, 40, 5000),
                           "v": rng.integers(0, 30, 5000),
                           "id": np.arange(5000)})
        got = top_n_with_ties(
            _ds({c: pa.array(df[c].to_numpy(), pa.int64())
                 for c in df.columns}), "g", "v", n=2, ascending=True,
        ).to_pandas().sort_values(["g", "v", "id"]).reset_index(drop=True)
        exp = duckdb.sql("""
            SELECT g, v, id, rnk FROM (
              SELECT g, v, id,
                     RANK() OVER (PARTITION BY g ORDER BY v ASC) AS rnk
              FROM df) t
            WHERE rnk <= 2 ORDER BY g, v, id
        """).df()
        assert (got[["g", "v", "id", "rnk"]].to_numpy()
                == exp[["g", "v", "id", "rnk"]].to_numpy()).all()

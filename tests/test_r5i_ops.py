"""Round-5 closing-session additions, part 7: rank_blend (PERCENT_RANK
ensemble scoring — the FineWeb-style multi-signal quality blend). SQL
parity for the oracled doc_quality_blend query runs in
test_oracle_parity; these pin the exact PERCENT_RANK arithmetic
(min-rank ties, n==1 edge, NULL drop, -0.0/0.0 merge) against DuckDB's
window function on adversarial inputs, and the bit-exactness of the
blend mean."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa

from jsschema_ray.stages.quantiles import rank_blend


def _ds(table, n_blocks=4):
    import ray.data as rd

    t = table if isinstance(table, pa.Table) else pa.table(table)
    return rd.from_arrow(t).repartition(n_blocks)


def _duck(df, cols):
    con = duckdb.connect()
    con.register("t", df)
    where = " AND ".join(f"{c} IS NOT NULL" for c in cols)
    prs = ", ".join(
        f"PERCENT_RANK() OVER (ORDER BY {c}) AS pr_{c}" for c in cols)
    mean = " + ".join(f"pr_{c}" for c in cols)
    sql = f"""
        WITH r AS (SELECT id, {prs} FROM t WHERE {where})
        SELECT id, {', '.join('pr_' + c for c in cols)},
               ({mean}) / {float(len(cols))} AS blend
        FROM r ORDER BY id
    """
    return con.execute(sql).df()


class TestRankBlend:
    def test_vs_duckdb_ties_and_nulls(self, ray_session):
        rng = np.random.default_rng(7)
        n = 5000
        df = pd.DataFrame({
            "id": np.arange(n, dtype=np.int64),
            "a": rng.integers(0, 40, n).astype("float64"),  # heavy ties
            "b": rng.normal(0, 1, n),
        })
        # NULLs in either signal drop the row from the ranked population
        df.loc[3, "a"] = np.nan
        df.loc[7, "b"] = np.nan
        # signed zeros must merge into one rank value
        df.loc[10, "b"] = -0.0
        df.loc[11, "b"] = 0.0
        got = (rank_blend(_ds(pa.Table.from_pandas(df)), ["id"],
                          ["a", "b"])
               .to_pandas().sort_values("id").reset_index(drop=True))
        want = _duck(df, ["a", "b"])
        pd.testing.assert_frame_equal(got, want, check_exact=True)

    def test_single_row_population_pr_zero(self, ray_session):
        df = pd.DataFrame({"id": [1], "a": [42.0]})
        got = rank_blend(_ds(pa.Table.from_pandas(df), 1), ["id"],
                         ["a"]).to_pandas()
        assert got["pr_a"].tolist() == [0.0]
        assert got["blend"].tolist() == [0.0]
        want = _duck(df, ["a"])
        assert want["pr_a"].tolist() == [0.0]

    def test_three_signals_blend_order(self, ray_session):
        rng = np.random.default_rng(13)
        n = 2000
        df = pd.DataFrame({
            "id": np.arange(n, dtype=np.int64),
            "a": rng.integers(0, 9, n).astype("int64"),
            "b": rng.integers(0, 500, n).astype("int64"),
            "c": rng.normal(0, 1, n),
        })
        got = (rank_blend(_ds(pa.Table.from_pandas(df)), ["id"],
                          ["a", "b", "c"])
               .to_pandas().sort_values("id").reset_index(drop=True))
        want = _duck(df, ["a", "b", "c"])
        pd.testing.assert_frame_equal(got, want, check_exact=True)

    def test_guards(self, ray_session):
        df = pd.DataFrame({"id": [1], "a": [1.0]})
        ds = _ds(pa.Table.from_pandas(df), 1)
        for bad in ([], ["a", "a"]):
            try:
                rank_blend(ds, ["id"], bad)
                assert False, f"expected ValueError for cols={bad}"
            except ValueError:
                pass


class TestHammingHistogram:
    def _brute(self, vals, fraction=1.0, seed=1):
        from jsschema_ray.stages.sampling import sample_threshold

        u = np.unique(np.asarray(vals, dtype=np.int64))
        m = ((u & np.int64(0x7FFFFFFF)) + np.int64(seed)) \
            * np.int64(2654435761) % np.int64(2**32)
        u = np.sort(u[m < sample_threshold(fraction)])
        counts = {}
        for i in range(len(u)):
            for j in range(i + 1, len(u)):
                d = bin((int(u[i]) ^ int(u[j])) & (2**64 - 1)).count("1")
                counts[d] = counts.get(d, 0) + 1
        return pd.DataFrame(
            sorted(counts.items()),
            columns=["dist", "n_pairs"]).astype("int64")

    def test_vs_brute_force(self, ray_session):
        from jsschema_ray.stages.dedup import hamming_histogram

        rng = np.random.default_rng(3)
        vals = rng.integers(-2**62, 2**62, 300, dtype=np.int64)
        vals = np.concatenate([vals, vals[:50]])  # duplicates collapse
        got = hamming_histogram(
            _ds({"phash": vals}), "phash").to_pandas()
        want = self._brute(vals)
        pd.testing.assert_frame_equal(
            got.reset_index(drop=True), want, check_exact=True)

    def test_fraction_sampling_matches_predicate(self, ray_session):
        from jsschema_ray.stages.dedup import hamming_histogram

        rng = np.random.default_rng(5)
        vals = rng.integers(0, 2**63 - 1, 400, dtype=np.int64)
        got = hamming_histogram(
            _ds({"phash": vals}), "phash", fraction=0.25,
            seed=7).to_pandas()
        want = self._brute(vals, fraction=0.25, seed=7)
        pd.testing.assert_frame_equal(
            got.reset_index(drop=True), want, check_exact=True)

    def test_cap_guard_and_degenerate(self, ray_session):
        from jsschema_ray.stages.dedup import hamming_histogram

        vals = np.arange(100, dtype=np.int64)
        try:
            hamming_histogram(_ds({"phash": vals}), "phash",
                              max_sample=99)
            assert False, "expected max_sample refusal"
        except ValueError as e:
            assert "max_sample" in str(e)
        one = hamming_histogram(_ds({"phash": np.array([5] * 10,
                                                       dtype=np.int64)}),
                                "phash").to_pandas()
        assert len(one) == 0  # single distinct value: no pairs



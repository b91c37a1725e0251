"""Round-5 additions: grouped_weighted_median (exact weighted order
statistic), edit1_pairs (Levenshtein<=1 FastSS banding + vectorized
verify), grouped_sums (high-cardinality-safe grouped sums),
and the TPC-H Q3 composition. SQL parity for the three oracled queries
runs in test_oracle_parity; these pin edge cases and refusal guards."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from jsschema_ray.stages.aggregates import grouped_sums
from jsschema_ray.stages.dedup import _edit1_keep, edit1_pairs
from jsschema_ray.stages.quantiles import grouped_weighted_median


def _ds(table: dict, n_blocks=4):
    import ray.data as rd

    return rd.from_arrow(pa.table(table)).repartition(n_blocks)


class TestGroupedWeightedMedian:
    def _mirror(self, df: pd.DataFrame, scale=100) -> pd.DataFrame:
        return duckdb.sql(f"""
            WITH c AS (
                SELECT g AS grp, v, CAST(ROUND(w * {scale}) AS BIGINT) AS wt
                FROM df
                WHERE v IS NOT NULL AND w IS NOT NULL
                  AND CAST(ROUND(w * {scale}) AS BIGINT) > 0
            ), cum AS (
                SELECT grp, v,
                       SUM(wt) OVER (PARTITION BY grp ORDER BY v) AS cw,
                       SUM(wt) OVER (PARTITION BY grp) AS tot FROM c
            )
            SELECT grp AS g, MIN(v) AS w_median FROM cum
            WHERE 2 * cw >= tot GROUP BY grp ORDER BY g
        """).df()

    def test_matches_window_mirror_random(self, ray_session):
        rng = np.random.default_rng(11)
        n = 4000
        df = pd.DataFrame({
            "g": rng.integers(0, 7, n),
            "v": rng.choice([1.25, 2.5, 2.5, 7.0, 100.0, -3.75], n),
            "w": rng.integers(0, 9, n).astype(float),  # includes zeros
        })
        got = grouped_weighted_median(
            _ds({c: df[c] for c in df}), "g", "v", "w"
        ).to_pandas().sort_values("g").reset_index(drop=True)
        exp = self._mirror(df)
        assert np.array_equal(got["g"].to_numpy(), exp["g"].to_numpy())
        # selection is bit-exact
        assert np.array_equal(got["w_median"].to_numpy().view("int64"),
                              exp["w_median"].to_numpy().view("int64"))

    def test_even_split_picks_lower(self, ray_session):
        # weights 1|1 around two values: 2*cw == tot at the LOWER value
        got = grouped_weighted_median(
            _ds({"g": ["a"], "v": [10.0], "w": [1.0]}).union(
                _ds({"g": ["a"], "v": [20.0], "w": [1.0]})),
            "g", "v", "w").to_pandas()
        assert got["w_median"].tolist() == [10.0]

    def test_nulls_and_all_zero_weight_group_drop(self, ray_session):
        df = {"g": ["a", "a", "b", "b", None],
              "v": [1.0, None, 5.0, 6.0, 9.0],
              "w": [2.0, 3.0, 0.0, 0.0, 4.0]}
        got = grouped_weighted_median(_ds(df), "g", "v", "w").to_pandas()
        got = got.sort_values("g", na_position="last").reset_index(drop=True)
        # group b vanishes (all weights zero); NULL group survives
        assert got["w_median"].tolist() == [1.0, 9.0]
        assert got["g"].tolist()[0] == "a" and pd.isna(got["g"].tolist()[1])

    def test_negative_weight_refuses(self, ray_session):
        ds = _ds({"g": ["a"], "v": [1.0], "w": [-2.0]})
        with pytest.raises(Exception, match="non-negative"):
            grouped_weighted_median(ds, "g", "v", "w").to_pandas()


class TestEdit1Pairs:
    def _mirror(self, values) -> pd.DataFrame:
        df = pd.DataFrame({"s": values})
        return duckdb.sql("""
            WITH names AS (SELECT DISTINCT s AS v FROM df
                           WHERE s IS NOT NULL)
            SELECT a.v AS name_a, b.v AS name_b FROM names a JOIN names b
              ON a.v < b.v AND abs(length(a.v) - length(b.v)) <= 1
             AND levenshtein(a.v, b.v) <= 1
            ORDER BY name_a, name_b
        """).df()

    def test_matches_levenshtein_mirror(self, ray_session):
        rng = np.random.default_rng(3)
        # dense typo cluster: short strings over a tiny alphabet
        vals = ["".join(rng.choice(list("abc"), rng.integers(1, 5)))
                for _ in range(300)] + ["", "a", None, "abba", "abba"]
        got = edit1_pairs(
            _ds({"s": pa.array(vals, pa.string())}), "s"
        ).to_pandas().sort_values(["name_a", "name_b"]).reset_index(
            drop=True)
        exp = self._mirror(vals)
        pd.testing.assert_frame_equal(got, exp)

    def test_refusals(self, ray_session):
        with pytest.raises(Exception, match="ASCII"):
            edit1_pairs(_ds({"s": ["héllo", "hallo"]}), "s").to_pandas()
        with pytest.raises(Exception, match="NUL"):
            edit1_pairs(_ds({"s": ["a\x00b", "ab"]}), "s").to_pandas()
        with pytest.raises(Exception, match="max_len"):
            edit1_pairs(_ds({"s": ["x" * 9, "y"]}), "s",
                        max_len=8).to_pandas()

    def test_verify_kernel_direct(self):
        a = pa.array(["abc", "abc", "abc", "abcd", "x", ""])
        b = pa.array(["abd", "adc", "cba", "abc", "xy", "q"])
        assert _edit1_keep(a, b).tolist() == [True, True, False, True,
                                              True, True]


class TestGroupedSumsPartitioned:
    def test_matches_grouped_sums_high_cardinality(self, ray_session):
        rng = np.random.default_rng(7)
        n = 20000
        df = {"k": rng.integers(0, 15000, n),
              "x": rng.integers(-100, 100, n)}
        a = grouped_sums(
            _ds(df), ["k"], {"sx": "x"}, count_alias="n"
        ).to_pandas().sort_values("k").reset_index(drop=True)
        b = pd.DataFrame(df).groupby("k").agg(
            sx=("x", "sum"), n=("x", "size")).reset_index()
        pd.testing.assert_frame_equal(a[["k", "sx", "n"]],
                                      b[["k", "sx", "n"]],
                                      check_dtype=False)

    def test_null_and_negzero_keys_merge(self, ray_session):
        t = {"k": pa.array([0.0, -0.0, None, None, 1.0], pa.float64()),
             "x": pa.array([1, 2, 4, 8, 16], pa.int64())}
        got = grouped_sums(
            _ds(t, n_blocks=2), ["k"], {"sx": "x"}, count_alias=None
        ).to_pandas().sort_values("k").reset_index(drop=True)
        m = {(-1 if pd.isna(k) else k): v
             for k, v in zip(got["k"], got["sx"])}
        assert m == {0.0: 3, 1.0: 16, -1: 12}

    def test_multikey(self, ray_session):
        t = {"a": ["x", "x", "y"], "b": [1, 1, 1], "v": [2, 3, 4]}
        got = grouped_sums(
            _ds(t, n_blocks=2), ["a", "b"], {"sv": "v"}, count_alias=None
        ).to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
        assert got["sv"].tolist() == [5, 4]


class TestNormalizeText:
    def test_matches_duckdb_mirror_adversarial(self, ray_session):
        from jsschema_ray.stages.text import normalize_text

        vals = ["  Hello\tWORLD  ", "a\n\nb\r\nc", "\t", "", "x",
                "MiXeD   CaSe", None, " \f\v tabs\tand\vstuff "]
        ids = list(range(len(vals)))
        got = normalize_text(
            _ds({"doc_id": ids, "text": pa.array(vals, pa.string())}),
            "text", "doc_id").to_pandas().sort_values(
            "doc_id").reset_index(drop=True)
        df = pd.DataFrame({"doc_id": ids, "text": vals})
        exp = duckdb.sql(r"""
            WITH n AS (SELECT doc_id,
                trim(regexp_replace(lower(text), '[ \t\n\r\f\v]+',
                                    ' ', 'g'), ' ') AS norm_text,
                length(text) AS raw_len FROM df)
            SELECT doc_id, norm_text, length(norm_text) AS norm_len,
                   raw_len - length(norm_text) AS n_collapsed
            FROM n ORDER BY doc_id
        """).df()
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
        # NULL text propagates NULL everywhere
        assert got["norm_text"].isna().tolist() == [v is None for v in vals]

    def test_arrow_lower_matches_duckdb_on_nonascii(self, ray_session):
        # parity is asserted, not assumed: utf8proc vs DuckDB unicode
        # lowercasing on common accented/Greek input
        from jsschema_ray.stages.text import normalize_text

        vals = ["ÀÉÎÕÜ", "ΑΒΓΔ", "ÇĞİŞ", "ЖЗИЙ"]
        got = normalize_text(
            _ds({"doc_id": [0, 1, 2, 3], "text": vals}), "text",
            "doc_id").to_pandas().sort_values("doc_id")
        df = pd.DataFrame({"doc_id": [0, 1, 2, 3], "text": vals})
        exp = duckdb.sql(
            "SELECT doc_id, lower(text) AS norm_text FROM df "
            "ORDER BY doc_id").df()
        assert got["norm_text"].tolist() == exp["norm_text"].tolist()


class TestWeightedQuantileParam:
    def test_arbitrary_q_matches_mirror(self, ray_session):
        rng = np.random.default_rng(23)
        n = 3000
        df = pd.DataFrame({
            "g": rng.integers(0, 5, n),
            "v": rng.choice([0.5, 1.0, 2.0, 4.0, 8.0], n),
            "w": rng.integers(1, 6, n).astype(float),
        })
        for q in (0.25, 0.5, 0.75, 1.0):
            got = grouped_weighted_median(
                _ds({c: df[c] for c in df}), "g", "v", "w", q=q
            ).to_pandas().sort_values("g").reset_index(drop=True)
            exp = duckdb.sql(f"""
                WITH c AS (SELECT g AS grp, v,
                           CAST(ROUND(w * 100) AS BIGINT) AS wt FROM df),
                cum AS (SELECT grp, v,
                        SUM(wt) OVER (PARTITION BY grp ORDER BY v) AS cw,
                        SUM(wt) OVER (PARTITION BY grp) AS tot FROM c)
                SELECT grp AS g, MIN(v) AS w_median FROM cum
                WHERE cw >= CEIL({q} * tot) GROUP BY grp ORDER BY g
            """).df()
            assert got["w_median"].tolist() == exp["w_median"].tolist(), q

    def test_q_validation(self, ray_session):
        with pytest.raises(ValueError, match="q must be"):
            grouped_weighted_median(_ds({"g": [1], "v": [1.0],
                                         "w": [1.0]}), "g", "v", "w",
                                    q=0.0)


class TestEdit1Join:
    def test_cross_side_semantics(self, ray_session):
        from jsschema_ray.stages.dedup import edit1_join

        left = _ds({"x": ["abc", "abd", "zzz", "q"]}, n_blocks=2)
        right = _ds({"y": ["abc", "ab", "zz", "qq"]}, n_blocks=2)
        got = edit1_join(left, right, "x", "y").to_pandas()
        pairs = set(map(tuple, got[["x", "y"]].values))
        # exact match counts (distance 0); indels and subs across sides;
        # NEVER within-side pairs (abc|abd is left-left)
        assert pairs == {("abc", "abc"), ("abc", "ab"), ("abd", "ab"),
                         ("abd", "abc"), ("zzz", "zz"), ("q", "qq")}

    def test_same_column_name_suffixes(self, ray_session):
        from jsschema_ray.stages.dedup import edit1_join

        left = _ds({"s": ["aa"]})
        right = _ds({"s": ["ab"]})
        got = edit1_join(left, right, "s", "s").to_pandas()
        assert list(got.columns) == ["s_left", "s_right"]
        assert got.values.tolist() == [["aa", "ab"]]

    def test_blowup_refuses(self, ray_session):
        from jsschema_ray.stages.dedup import edit1_join

        # 3x3 identical-after-delete values with a tiny guard
        left = _ds({"x": [f"a{i}" for i in range(3)]})
        right = _ds({"y": [f"a{i}" for i in range(3, 6)]})
        with pytest.raises(Exception, match="cross product"):
            edit1_join(left, right, "x", "y",
                       max_bucket_members=1).to_pandas()

    def test_matches_levenshtein_mirror(self, ray_session):
        from jsschema_ray.stages.dedup import edit1_join

        rng = np.random.default_rng(9)
        lv = ["".join(rng.choice(list("xy"), rng.integers(1, 4)))
              for _ in range(60)]
        rv = ["".join(rng.choice(list("xy"), rng.integers(1, 4)))
              for _ in range(60)]
        got = edit1_join(_ds({"a": lv}), _ds({"b": rv}), "a", "b",
                         max_bucket_members=512
                         ).to_pandas().sort_values(["a", "b"]).reset_index(
            drop=True)
        dl = pd.DataFrame({"a": lv}); dr = pd.DataFrame({"b": rv})
        exp = duckdb.sql("""
            WITH l AS (SELECT DISTINCT a FROM dl),
                 r AS (SELECT DISTINCT b FROM dr)
            SELECT l.a, r.b FROM l JOIN r
              ON abs(length(l.a) - length(r.b)) <= 1
             AND levenshtein(l.a, r.b) <= 1
            ORDER BY a, b""").df()
        pd.testing.assert_frame_equal(got, exp)


def test_edit1_pairs_oversized_bucket_refuses(ray_session):
    # five 2-char strings share the deletion variant "a" — with
    # max_bucket_members=2 the pair-mining op must REFUSE (the LSH
    # consecutive+star degradation would silently drop real pairs)
    vals = [f"a{i}" for i in range(5)]
    with pytest.raises(Exception, match="max_bucket_members"):
        edit1_pairs(_ds({"s": vals}), "s",
                    max_bucket_members=2).to_pandas()

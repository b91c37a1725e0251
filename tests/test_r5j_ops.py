"""Round-5 closing-session additions, part 8: sorted-neighborhood
blocking (tile-boundary exactness), the containment measure of the
exact set-similarity join, quantile_normalize edge arithmetic, and the
tpch_q21a double-EXISTS reduce. SQL parity for the oracled queries
runs in test_oracle_parity; these force the distribution seams
(tile overlap, short docs, ties/NULLs) small inputs of the parity
suite may not reach."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from jsschema_ray.stages.dedup import (exact_jaccard_pairs,
                                       sorted_neighborhood_pairs)
from jsschema_ray.stages.quantiles import quantile_normalize


def _ds(table, n_blocks=4):
    import ray.data as rd

    t = table if isinstance(table, pa.Table) else pa.table(table)
    return rd.from_arrow(t).repartition(n_blocks)


# ------------------------------------------------------------------
# sorted_neighborhood_pairs
# ------------------------------------------------------------------

def _snm_brute(keys, ids, window):
    order = sorted(range(len(ids)), key=lambda i: (keys[i], ids[i]))
    out = set()
    for p in range(len(order)):
        for d in range(1, window):
            if p + d >= len(order):
                break
            out.add((ids[order[p]], ids[order[p + d]], d))
    return out


def test_snm_tile_boundary_pairs(ray_session):
    # 23 rows, tile=5, window=3: pairs MUST cross tile boundaries
    rng = np.random.default_rng(7)
    ids = np.arange(23, dtype=np.int64)
    keys = [f"k{v}" for v in rng.integers(0, 9, size=23)]  # heavy ties
    ds = _ds({"id": ids, "k": keys}, n_blocks=5)
    got = sorted_neighborhood_pairs(ds, sort_col="k", id_col="id",
                                    window=3, tile=5).take_all()
    got_set = {(r["id_a"], r["id_b"], r["dist"]) for r in got}
    assert len(got) == len(got_set)  # no pair emitted twice
    assert got_set == _snm_brute(keys, ids.tolist(), 3)


def test_snm_window_2_and_tiny_tile(ray_session):
    ids = np.array([3, 1, 2], dtype=np.int64)
    ds = _ds({"id": ids, "k": ["b", "a", "b"]}, n_blocks=2)
    got = sorted_neighborhood_pairs(ds, sort_col="k", id_col="id",
                                    window=2, tile=2).take_all()
    # order: (a,1) (b,2) (b,3) -> adjacent pairs only
    assert {(r["id_a"], r["id_b"], r["dist"]) for r in got} == {
        (1, 2, 1), (2, 3, 1)}


def test_snm_validation(ray_session):
    ds = _ds({"id": np.arange(4, dtype=np.int64), "k": list("abcd")})
    with pytest.raises(ValueError, match="window"):
        sorted_neighborhood_pairs(ds, "k", "id", window=1)
    with pytest.raises(ValueError, match="tile"):
        sorted_neighborhood_pairs(ds, "k", "id", window=4, tile=2)


# ------------------------------------------------------------------
# exact_jaccard_pairs measure="containment"
# ------------------------------------------------------------------

def test_containment_vs_jaccard(ray_session):
    short = "alpha beta gamma delta epsilon zeta"  # 2 distinct 5-grams
    long = short + " eta theta iota kappa lambda mu nu xi"
    other = "one two three four five six seven eight nine"
    ds = _ds({"doc_id": np.array([1, 2, 3], dtype=np.int64),
              "text": [short, long, other]}, n_blocks=2)
    cont = exact_jaccard_pairs(ds, threshold=0.99, k=5,
                               measure="containment").take_all()
    # every 5-gram of `short` appears in `long` -> containment 1.0
    assert [(r["doc_a"], r["doc_b"]) for r in cont] == [(1, 2)]
    assert cont[0]["n_inter"] == cont[0]["n_min"]
    # jaccard at the same threshold refuses the pair (dilution)
    jac = exact_jaccard_pairs(ds, threshold=0.99, k=5,
                              measure="jaccard").take_all()
    assert jac == []


def test_containment_bad_measure(ray_session):
    ds = _ds({"doc_id": np.array([1], dtype=np.int64), "text": ["x"]})
    with pytest.raises(ValueError, match="measure"):
        exact_jaccard_pairs(ds, threshold=0.5, measure="dice")


# ------------------------------------------------------------------
# quantile_normalize
# ------------------------------------------------------------------

def test_quantile_normalize_ties_and_nulls(ray_session):
    vals = pa.array([10, 20, 20, 30, None, 10, 40], pa.int64())
    ids = np.arange(7, dtype=np.int64)
    ds = _ds(pa.table({"id": pa.array(ids), "v": vals}), n_blocks=3)
    got = pd.DataFrame(
        quantile_normalize(ds, "v", keep=["id"]).take_all()
    ).sort_values("id").reset_index(drop=True)
    # NULL row drops (inner join back)
    assert got["id"].tolist() == [0, 1, 2, 3, 5, 6]
    n = 6
    by_val = {10: (0, 2), 20: (2, 4), 30: (4, 5), 40: (5, 6)}
    for _, r in got.iterrows():
        lt, le = by_val[r["v"]]
        assert (r["n_lt"], r["n_le"], r["n_total"]) == (lt, le, n)
        assert r["cdf"] == le / n
        assert r["pct_rank"] == lt / (n - 1)


def test_quantile_normalize_single_row(ray_session):
    ds = _ds({"id": np.array([1], dtype=np.int64),
              "v": np.array([5], dtype=np.int64)}, n_blocks=1)
    got = quantile_normalize(ds, "v", keep=["id"]).take_all()
    assert got[0]["cdf"] == 1.0
    assert got[0]["pct_rank"] == 0.0  # n_total == 1 guard


# ------------------------------------------------------------------
# psi_bins
# ------------------------------------------------------------------

def test_psi_bins_edges_and_terms(ray_session):
    from jsschema_ray.stages.drift import psi_bins

    # values: one underflow (-5), one overflow (120), rest in [0, 100)
    vals = np.array([-5.0, 120.0, 10.0, 10.0, 55.0, 99.0, 20.0, 80.0])
    ref = pa.array([True, False, True, False, True, False, True, False])
    ds = _ds(pa.table({"v": pa.array(vals), "is_ref": ref}), n_blocks=3)
    got = pd.DataFrame(
        psi_bins(ds, "v", "is_ref", lo_cents=0, hi_cents=10000,
                 bins=4).take_all()).sort_values("bin")
    # cents: -500(-1) 12000(4) 1000(0) 1000(0) 5500(2) 9900(3)
    #        2000(0) 8000(3) — bin 1 ([2500,5000)) unobserved
    assert got["bin"].tolist() == [-1, 0, 2, 3, 4]
    tr, tc = 4, 4
    B = 6
    for _, r in got.iterrows():
        p_ref = (r["n_ref"] + 1.0) / (tr + B)
        p_cur = (r["n_cur"] + 1.0) / (tc + B)
        assert r["p_ref"] == p_ref and r["p_cur"] == p_cur
        assert r["psi_term"] == (p_ref - p_cur) * np.log(p_ref / p_cur)
    # identical distributions -> PSI exactly 0 on every observed bin
    ds2 = _ds(pa.table({
        "v": pa.array(np.tile([10.0, 55.0], 4)),
        "is_ref": pa.array([True, True, False, False] * 2)}), n_blocks=2)
    got2 = pd.DataFrame(psi_bins(ds2, "v", "is_ref", 0, 10000,
                                 4).take_all())
    assert (got2["psi_term"] == 0.0).all()


def test_psi_bins_null_drop_and_validation(ray_session):
    from jsschema_ray.stages.drift import psi_bins

    ds = _ds(pa.table({"v": pa.array([1.0, None, 3.0]),
                       "is_ref": pa.array([True, False, None])}),
             n_blocks=1)
    got = pd.DataFrame(psi_bins(ds, "v", "is_ref", 0, 1000,
                                2).take_all())
    # only the (1.0, True) row survives
    assert got["n_ref"].sum() == 1 and got["n_cur"].sum() == 0
    with pytest.raises(ValueError, match="bins"):
        psi_bins(ds, "v", "is_ref", 0, 1000, 0)
    with pytest.raises(ValueError, match="hi_cents"):
        psi_bins(ds, "v", "is_ref", 1000, 1000, 2)

"""Round-5 closing-session additions, part 9: the numeric-tolerance
band join (|left - right| <= eps pair mining). SQL parity for the
oracled balance_band_pairs query runs in test_oracle_parity; these
force the bucket seams (pairs straddling a bucket boundary, negative
values, exact-eps boundary inclusion) that the TPC-H balances may not
reach at tiny sf."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from jsschema_ray.stages.join import band_join


def _ds(table, n_blocks=4):
    import ray.data as rd

    t = table if isinstance(table, pa.Table) else pa.table(table)
    return rd.from_arrow(t).repartition(n_blocks)


def _brute(lk, lv, rk, rv, eps_x, scale=100):
    lx = np.sign(lv * scale) * np.floor(np.abs(lv * scale) + 0.5)
    rx = np.sign(rv * scale) * np.floor(np.abs(rv * scale) + 0.5)
    out = []
    for i in range(len(lk)):
        for j in range(len(rk)):
            d = int(lx[i]) - int(rx[j])
            if abs(d) <= eps_x:
                out.append((int(lk[i]), int(rk[j]), d))
    return sorted(out)


def _run(lk, lv, rk, rv, eps_x, **kw):
    left = _ds({"k": pa.array(lk, pa.int64()),
                "v": pa.array(lv, pa.float64())})
    right = _ds({"k": pa.array(rk, pa.int64()),
                 "v": pa.array(rv, pa.float64())})
    got = band_join(left, right, "k", "v", "k", "v", eps_x,
                    **kw).take_all()
    return sorted((r["key_l"], r["key_r"], r["diff_x"]) for r in got)


def test_band_join_matches_brute_force(ray_session):
    rng = np.random.default_rng(7)
    lv = np.round(rng.uniform(-50, 50, 200), 2)
    rv = np.round(rng.uniform(-50, 50, 150), 2)
    lk = np.arange(200, dtype=np.int64)
    rk = np.arange(1000, 1150, dtype=np.int64)
    eps_x = 73  # prime, not a bucket-width of the data generator
    assert _run(lk, lv, rk, rv, eps_x) == _brute(lk, lv, rk, rv, eps_x)


def test_band_join_boundary_and_bucket_straddle(ray_session):
    # rights sit exactly eps away and one bucket over from the lefts;
    # the boundary (|d| == eps_x) is INCLUSIVE on both signs
    lv = [10.00, -10.00, 0.00]
    rv = [15.00, 5.00, -15.00, -5.00, 0.00, 5.01, -5.01]
    lk = [1, 2, 3]
    rk = [11, 12, 13, 14, 15, 16, 17]
    got = _run(np.array(lk), np.array(lv), np.array(rk),
               np.array(rv), eps_x=500)
    assert _brute(np.array(lk), np.array(lv), np.array(rk),
                  np.array(rv), 500) == got
    # 5.01 / -5.01 (501 cents from 0) excluded, 5.00 included
    assert (3, 16, -501) not in got and (3, 12, -500) in got


def test_band_join_nulls_dropped_and_empty_output(ray_session):
    left = _ds({"k": pa.array([1, 2], pa.int64()),
                "v": pa.array([1.0, None], pa.float64())})
    right = _ds({"k": pa.array([9], pa.int64()),
                 "v": pa.array([100.0], pa.float64())})
    assert band_join(left, right, "k", "v", "k", "v",
                     eps_x=10).take_all() == []
    with pytest.raises(ValueError, match="eps_x"):
        band_join(left, right, "k", "v", "k", "v", eps_x=0)


def test_band_join_output_is_exactly_once_per_pair(ray_session):
    # identical values on both sides: every pair qualifies exactly once
    # (the right-side 3-bucket replication must not duplicate pairs)
    lv = np.full(40, 7.25)
    rv = np.full(30, 7.25)
    got = _run(np.arange(40), lv, np.arange(100, 130), rv, eps_x=1)
    assert len(got) == 40 * 30
    assert len(set(got)) == 40 * 30
    assert all(d == 0 for (_, _, d) in got)


# ------------------------------------------------------------------
# keyed_band_join
# ------------------------------------------------------------------

def _kbrute(le, lk, lv, re_, rk, rv, eps_x):
    out = []
    for i in range(len(lk)):
        for j in range(len(rk)):
            if le[i] != re_[j]:
                continue
            d = int(lv[i]) - int(rv[j])
            if abs(d) <= eps_x:
                out.append((int(le[i]), int(lk[i]), int(rk[j]), d))
    return sorted(out)


def _krun(le, lk, lv, re_, rk, rv, eps_x, **kw):
    from jsschema_ray.stages.join import keyed_band_join

    left = _ds({"e": pa.array(le, pa.int64()),
                "k": pa.array(lk, pa.int64()),
                "v": pa.array(lv, pa.int64())})
    right = _ds({"e": pa.array(re_, pa.int64()),
                 "k": pa.array(rk, pa.int64()),
                 "v": pa.array(rv, pa.int64())})
    got = keyed_band_join(left, right, "e", "k", "v", "e", "k", "v",
                          eps_x, **kw).take_all()
    return sorted((r["eq"], r["key_l"], r["key_r"], r["diff_x"])
                  for r in got)


def test_keyed_band_join_matches_brute_force(ray_session):
    rng = np.random.default_rng(11)
    n_l, n_r = 300, 250
    le = rng.integers(0, 12, n_l)          # 12 eq keys, heavy reuse
    re_ = rng.integers(0, 12, n_r)
    lv = rng.integers(0, 5000, n_l)        # values straddle buckets
    rv = rng.integers(0, 5000, n_r)
    lk = np.arange(n_l, dtype=np.int64)
    rk = np.arange(10_000, 10_000 + n_r, dtype=np.int64)
    eps_x = 137
    assert (_krun(le, lk, lv, re_, rk, rv, eps_x)
            == _kbrute(le, lk, lv, re_, rk, rv, eps_x))


def test_keyed_band_join_eq_isolation(ray_session):
    # identical values, DIFFERENT eq keys: zero pairs (the band alone
    # would match everything)
    n = 20
    got = _krun(np.arange(n), np.arange(n), np.full(n, 100),
                np.arange(n) + 1000, np.arange(n), np.full(n, 100),
                eps_x=10)
    assert got == []


def test_keyed_band_join_timestamp_cast_and_guards(ray_session):
    import ray.data as rd
    from jsschema_ray.stages.join import keyed_band_join

    ts = pa.array([0, 30_000_000, 3_700_000_000],
                  pa.timestamp("us"))
    t = pa.table({"e": pa.array([1, 1, 1], pa.int64()),
                  "k": pa.array([10, 11, 12], pa.int64()),
                  "ts": ts})
    ds = rd.from_arrow(t)
    got = sorted((r["key_l"], r["key_r"], r["diff_x"]) for r in
                 keyed_band_join(ds, ds, "e", "k", "ts", "e", "k",
                                 "ts", eps_x=60_000_000).take_all())
    # pairs within 60 s: (10,10) (10,11) (11,10) (11,11) (12,12)
    assert got == [(10, 10, 0), (10, 11, -30_000_000),
                   (11, 10, 30_000_000), (11, 11, 0), (12, 12, 0)]
    # negative and mixed-sign eq keys partition like any int64 key
    rng = np.random.default_rng(12)
    for lo, hi in ((-12, 0), (-6, 6)):
        le, re_ = rng.integers(lo, hi, 120), rng.integers(lo, hi, 100)
        lv, rv = rng.integers(-800, 800, 120), rng.integers(-800, 800, 100)
        lk = np.arange(120, dtype=np.int64)
        rk = np.arange(500, 600, dtype=np.int64)
        want = _kbrute(le, lk, lv, re_, rk, rv, 57)
        assert want and _krun(le, lk, lv, re_, rk, rv, 57) == want
    with pytest.raises(ValueError, match="eps_x"):
        keyed_band_join(ds, ds, "e", "k", "ts", "e", "k", "ts",
                        eps_x=0)


# ------------------------------------------------------------------
# band_join how='anti'
# ------------------------------------------------------------------

def _arun(lk, lv, rk, rv, eps_x, **kw):
    left = _ds({"k": pa.array(lk, pa.int64()),
                "v": pa.array(lv, pa.float64())})
    right = _ds({"k": pa.array(rk, pa.int64()),
                 "v": pa.array(rv, pa.float64())})
    got = band_join(left, right, "k", "v", "k", "v", eps_x,
                    how="anti", **kw).take_all()
    return sorted((r["key_l"], r["value_x"]) for r in got)


def test_band_anti_join_matches_brute_force(ray_session):
    rng = np.random.default_rng(23)
    lv = np.round(rng.uniform(-30, 30, 200), 2)
    rv = np.round(rng.uniform(-30, 30, 40), 2)  # sparse rights
    lk = np.arange(200, dtype=np.int64)
    rk = np.arange(900, 940, dtype=np.int64)
    eps_x = 41
    inner = _brute(lk, lv, rk, rv, eps_x)
    matched = {a for (a, _, _) in inner}
    lx = (np.sign(lv * 100) * np.floor(np.abs(lv * 100) + 0.5))
    expect = sorted((int(k), int(x)) for k, x in zip(lk, lx)
                    if int(k) not in matched)
    assert _arun(lk, lv, rk, rv, eps_x) == expect
    # inner ∪ anti partitions the non-null left keys exactly
    got_inner = _run(lk, lv, rk, rv, eps_x)
    assert (matched | {k for (k, _) in _arun(lk, lv, rk, rv, eps_x)}
            == set(lk.tolist()))
    assert matched.isdisjoint(
        {k for (k, _) in _arun(lk, lv, rk, rv, eps_x)})


def test_band_anti_join_left_only_buckets_and_empty_right(ray_session):
    # empty right side: EVERY non-null left is unmatched (the all-left
    # bucket path must emit, not skip)
    left = _ds({"k": pa.array([1, 2, 3], pa.int64()),
                "v": pa.array([10.0, None, -7.5], pa.float64())})
    right = _ds({"k": pa.array([], pa.int64()),
                 "v": pa.array([], pa.float64())})
    got = sorted((r["key_l"], r["value_x"]) for r in
                 band_join(left, right, "k", "v", "k", "v", 100,
                           how="anti").take_all())
    assert got == [(1, 1000), (3, -750)]
    with pytest.raises(ValueError, match="how"):
        band_join(left, right, "k", "v", "k", "v", 100, how="left")


def test_band_anti_join_boundary(ray_session):
    # the boundary input above through how='anti', plus two lefts whose
    # nearest right is eps_x + 1 away (one on each sign): |d| == eps_x
    # is a match, so only those two lefts are unmatched
    lv = [10.00, -10.00, 0.00, 20.01, -20.01]
    rv = [15.00, 5.00, -15.00, -5.00, 0.00, 5.01, -5.01]
    lk = [1, 2, 3, 4, 5]
    rk = [11, 12, 13, 14, 15, 16, 17]
    left = _ds({"k": pa.array(lk, pa.int64()),
                "v": pa.array(lv, pa.float64())})
    right = _ds({"k": pa.array(rk, pa.int64()),
                 "v": pa.array(rv, pa.float64())})
    got = band_join(left, right, "k", "v", "k", "v", eps_x=500,
                    how="anti").take_all()
    assert sorted((r["key_l"], r["value_x"]) for r in got) == [
        (4, 2001), (5, -2001)]
    matched = {a for a, _, _ in _brute(np.array(lk), np.array(lv),
                                       np.array(rk), np.array(rv), 500)}
    assert matched == {1, 2, 3}

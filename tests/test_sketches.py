"""Sketch accuracy + merge associativity (HyperLogLog, t-digest)."""

import numpy as np
import pytest

from jsschema_ray.state import HyperLogLog, TDigest


def test_hll_accuracy_and_merge():
    rng = np.random.default_rng(1)
    for true_n in (100, 10_000, 500_000):
        h = HyperLogLog(p=14)
        # exactly true_n distinct values, each appearing 1-2 times
        vals = np.concatenate([np.arange(true_n), rng.integers(0, true_n, true_n)])
        h.add(vals.astype(np.int64))
        est = h.estimate()
        assert abs(est - true_n) / true_n < 0.05, (true_n, est)

    # merge == union
    a, b = HyperLogLog(p=12), HyperLogLog(p=12)
    a.add(np.arange(0, 60_000, dtype=np.int64))
    b.add(np.arange(40_000, 100_000, dtype=np.int64))
    est = a.merge(b).estimate()
    assert abs(est - 100_000) / 100_000 < 0.05

    # serialization round-trip preserves estimate
    c = HyperLogLog.from_bytes(a.to_bytes())
    assert c.estimate() == a.estimate()

    # string values hash deterministically
    s1, s2 = HyperLogLog(), HyperLogLog()
    strs = np.array([f"doc-{i}" for i in range(5000)], dtype=object)
    s1.add(strs)
    s2.add(strs)
    assert s1.estimate() == s2.estimate()
    assert abs(s1.estimate() - 5000) / 5000 < 0.05


def test_tdigest_quantiles():
    rng = np.random.default_rng(2)
    vals = rng.normal(100, 15, size=200_000)
    t = TDigest()
    for chunk in np.array_split(vals, 37):  # incremental adds
        t.add(chunk)
    for q in (0.01, 0.25, 0.5, 0.75, 0.99):
        got = t.quantile(q)
        want = np.quantile(vals, q)
        assert abs(got - want) < 0.8, (q, got, want)
    assert t.quantile(0.0) == vals.min()
    assert t.quantile(1.0) == vals.max()
    assert abs(t.count - len(vals)) < 1e-6


def test_tdigest_merge_matches_whole():
    rng = np.random.default_rng(3)
    vals = rng.exponential(10, size=100_000)
    whole = TDigest()
    whole.add(vals)
    parts = [TDigest() for _ in range(8)]
    for i, chunk in enumerate(np.array_split(vals, 8)):
        parts[i].add(chunk)
    merged = parts[0]
    for p in parts[1:]:
        merged.merge(p)
    for q in (0.1, 0.5, 0.9, 0.99):
        assert abs(merged.quantile(q) - whole.quantile(q)) < max(
            0.05 * whole.quantile(q), 0.1
        )

    rt = TDigest.from_bytes(merged.to_bytes())
    assert rt.quantile(0.5) == merged.quantile(0.5)


def test_tdigest_ks():
    rng = np.random.default_rng(4)
    a, b, c = TDigest(), TDigest(), TDigest()
    a.add(rng.normal(0, 1, 50_000))
    b.add(rng.normal(0, 1, 50_000))
    c.add(rng.normal(1.0, 1, 50_000))  # shifted by 1 sigma -> KS ~ 0.38
    assert a.ks_distance(b) < 0.03
    assert abs(a.ks_distance(c) - 0.38) < 0.05
    assert a.ks_distance(a) == 0.0


def test_tdigest_edge_cases():
    t = TDigest()
    assert np.isnan(t.quantile(0.5))
    t.add(np.array([5.0]))
    assert t.quantile(0.5) == 5.0
    t2 = TDigest()
    t2.add(np.array([np.nan, np.nan]))
    assert t2.count == 0
    t3 = TDigest()
    t3.add(np.full(1000, 7.0))
    assert t3.quantile(0.5) == 7.0


def test_count_min_sketch_bounds():
    """CMS never underestimates; overestimate stays within e/width * N on a
    Zipf stream; merge of partials equals one-shot."""
    import numpy as np

    from jsschema_ray.state.cms import CountMinSketch

    rng = np.random.default_rng(2)
    vals = (rng.zipf(1.5, size=200_000) % 5000).astype(np.int64)
    import pandas as pd

    true = pd.Series(vals).value_counts()
    one = CountMinSketch(width=4096, depth=5)
    one.add(vals)
    parts = CountMinSketch(width=4096, depth=5)
    for chunk in np.array_split(vals, 7):
        p = CountMinSketch(width=4096, depth=5)
        p.add(chunk)
        parts.merge(p)
    assert (parts.counts == one.counts).all()

    keys = true.index.to_numpy()
    est = one.estimate(keys)
    assert (est >= true.to_numpy()).all()  # never underestimates
    eps_n = np.e / 4096 * len(vals)
    assert (est - true.to_numpy() <= eps_n).mean() > 0.99

    rt = CountMinSketch.from_bytes(one.to_bytes())
    assert (rt.estimate(keys) == est).all() and rt.n == one.n


def test_cms_mulmod_exact():
    """ADVICE r2: the old (a*h+b) multiply wrapped mod 2^64 before the
    mod-(2^61-1) reduction, breaking the 2-universal family the eps/delta
    bound assumes. The limb-split mulmod must be EXACT for all operand
    magnitudes up to 2^61."""
    import numpy as np

    from jsschema_ray.state.cms import _MERSENNE, _mulmod61

    rng = np.random.default_rng(42)
    a = rng.integers(0, _MERSENNE, size=500, dtype=np.uint64)
    h = rng.integers(0, _MERSENNE, size=500, dtype=np.uint64)
    # adversarial corners: max values, powers of two, 0/1
    corners = np.array([0, 1, 2, (1 << 31) - 1, 1 << 31, (1 << 60),
                        _MERSENNE - 1], dtype=np.uint64)
    a = np.concatenate([a, corners, corners[::-1]])
    h = np.concatenate([h, corners[::-1], corners])
    got = _mulmod61(a, h)
    want = np.array([(int(x) * int(y)) % _MERSENNE for x, y in zip(a, h)],
                    dtype=np.uint64)
    assert (got == want).all()


def test_cms_seed_roundtrip_and_merge_guard():
    """ADVICE r2: to_bytes dropped the seed, so a non-default-seed sketch
    round-tripped to wrong hash params (silently wrong, possibly UNDER-
    estimates). Seed must survive serialization; merging mismatched seeds
    must raise."""
    import numpy as np
    import pytest

    from jsschema_ray.state.cms import CountMinSketch

    vals = np.array([f"k{i % 50}" for i in range(2000)], dtype=object)
    s = CountMinSketch(width=512, depth=4, seed=999)
    s.add(vals)
    rt = CountMinSketch.from_bytes(s.to_bytes())
    assert rt.seed == 999
    probe = np.array([f"k{i}" for i in range(50)], dtype=object)
    assert (rt.estimate(probe) == s.estimate(probe)).all()
    assert (rt.estimate(probe) >= 40).all()  # never underestimates

    other = CountMinSketch(width=512, depth=4, seed=7)
    with pytest.raises(ValueError, match="seed"):
        s.merge(other)


def test_top_k_exact_and_distributed_merge(ray_session):
    """top_k_exact = SQL GROUP BY/ORDER BY count DESC LIMIT k exactly
    (candidate contract holds for Zipf keys), and the merged CMS never
    underestimates a reported key (top_k_exact raises if it does)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from jsschema_ray.stages.stats import top_k_exact

    rng = np.random.default_rng(11)
    keys = (rng.zipf(1.4, size=120_000) % 4000).astype(np.int64)
    df = pd.DataFrame({"k": keys})
    ds = rd.from_pandas(df).repartition(6)
    want = df["k"].value_counts().reset_index()
    want.columns = ["k", "n"]
    want = want.sort_values(["n", "k"], ascending=[False, True],
                            kind="stable").head(15).reset_index(drop=True)

    got = top_k_exact(ds, "k", k=15, batch_size=8192).to_pandas()
    assert got["k"].tolist() == want["k"].tolist()
    assert got["n"].tolist() == want["n"].tolist()


def test_hash64_batch_composition_invariant():
    """A non-null value's hash must not depend on whether its batch
    contains nulls (r5 find: int64-with-nulls round-tripped to float64
    through pandas, so the SAME key hashed differently across batches —
    breaking hash co-partitioning and HLL distinct counts on nullable
    integer columns)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from jsschema_ray.state.hll import hash64

    with_nulls = hash64(pa.array([5, None, 7], pa.int64()))
    without = hash64(pa.array([5, 7], pa.int64()))
    assert with_nulls[0] == without[0] and with_nulls[2] == without[1]
    # the no-null arrow path must agree with the raw numpy path
    assert (without == hash64(np.array([5, 7], dtype=np.int64))).all()
    # nullable pandas Series routes through arrow, not object arrays
    s = hash64(pd.Series(pd.array([5, None, 7], dtype="Int64")))
    assert (s == with_nulls).all()
    # booleans had the same object-promotion exposure
    b = hash64(pa.array([True, None], pa.bool_()))
    assert b[0] == hash64(pa.array([True], pa.bool_()))[0]
    # strings were already stable; pin it
    assert hash64(pa.array(["x", None]))[0] == hash64(pa.array(["x"]))[0]
    # all null hashes equal the fixed sentinel (partition-stable)
    assert with_nulls[1] == b[1]

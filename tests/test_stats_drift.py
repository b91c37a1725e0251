"""Stats actor-pool stage + drift constraint over Ray Datasets, checked
against exact pandas/numpy computations on the same data."""

import numpy as np
import pyarrow as pa
import pytest

from jsschema_ray.sources.synth import synth_image_table
from jsschema_ray.stages.drift import DriftProfile, build_profile, drift_check
from jsschema_ray.stages.stats import (StatsAccumulator, StatsSpec,
                                       _fold_partials, collect_stats)
from jsschema_ray.state.tdigest import TDigest


def test_stats_accumulator_single_batch():
    table, _ = synth_image_table(2000, seed=42, with_bytes=False)
    spec = StatsSpec(
        columns=["w", "h", "fmt", "caption"],
        distinct=["image_id", "fmt"],
        quantiles=["w"],
        derived={"caption_len": ("caption", "utf8_length")},
    )
    spec.columns.append("caption_len")
    out = StatsAccumulator(spec)(table).to_pylist()
    by_col = {r["column"]: r for r in out}
    w = table.column("w").to_numpy()
    assert by_col["w"]["vmin"] == w.min() and by_col["w"]["vmax"] == w.max()
    assert by_col["w"]["vsum"] == float(w.sum())
    assert by_col["fmt"]["hll"] is not None and by_col["w"]["tdigest"] is not None
    assert by_col["fmt"]["smin"] is not None  # string min/max
    cap_nulls = table.column("caption").null_count
    assert by_col["caption"]["nulls"] == cap_nulls
    assert by_col["caption_len"]["n"] == 2000 - cap_nulls


def test_stats_sum_does_not_wrap():
    """An int64 column whose sum leaves the int64 range still has its true
    mean (Arrow's int64 sum wraps around)."""
    table = pa.table({"x": pa.array([2**62, 2**62, 2**62], pa.int64())})
    row = StatsAccumulator(StatsSpec(columns=["x"]))(table).to_pylist()[0]
    assert row["vsum"] == 3.0 * 2**62


def _merged_digest(seed: int, parts: int = 8) -> TDigest:
    """A digest merged from serialized partials and not yet queried, as a
    drift profile leaves ``build_profile``."""
    rng = np.random.default_rng(seed)
    out = TDigest()
    for _ in range(parts):
        t = TDigest()
        t.add(rng.lognormal(3, 0.5, 1000))
        out.merge(TDigest.from_bytes(t.to_bytes()))
    return out


def test_ks_distance_does_not_depend_on_earlier_use():
    ref, test = _merged_digest(1), _merged_digest(2)
    ks = test.ks_distance(ref)
    assert test.ks_distance(ref) == ks  # both now compressed
    fresh = _merged_digest(1)
    assert _merged_digest(2).ks_distance(TDigest.from_bytes(fresh.to_bytes())) \
        == ks
    assert TDigest.from_bytes(_merged_digest(2).to_bytes()).ks_distance(
        _merged_digest(1)) == ks


def test_fold_partials_ignores_arrival_order():
    """Shuffled partial rows fold to identical bytes: sketches, sums and
    counts, per partition and over all of them."""
    table, _ = synth_image_table(6000, seed=9, with_bytes=False)
    table = table.append_column(
        "part", pa.array(np.repeat(["p0", "p1", "p2"], 2000)))
    spec = StatsSpec(columns=["w", "h", "fmt"], distinct=["image_id", "phash"],
                     quantiles=["w", "h", "phash"], partition_col="part")
    acc = StatsAccumulator(spec)
    rows = [r for i in range(0, 6000, 700)
            for r in acc(table.slice(i, 700)).to_pylist()]

    def folded(rs, per_partition):
        return {k: (cs.count, cs.nulls, cs.min, cs.max, cs.sum, cs.smin,
                    cs.smax, cs.hll and cs.hll.to_bytes(),
                    cs.digest and cs.digest.to_bytes())
                for k, cs in _fold_partials(rs, per_partition).items()}

    rng = np.random.default_rng(0)
    for per_partition in (True, False):
        want = folded(rows, per_partition)
        for _ in range(5):
            order = rng.permutation(len(rows))
            assert folded([rows[i] for i in order], per_partition) == want


def test_collect_stats_on_ray(ray_session):
    import ray.data as rd

    table, _ = synth_image_table(20_000, seed=42, with_bytes=False)
    ds = rd.from_arrow(table).repartition(8)
    spec = StatsSpec(
        columns=["w", "h"], distinct=["image_id", "fmt", "phash"],
        quantiles=["w", "h"],
    )
    stats = collect_stats(ds, spec, batch_size=2048)
    w = table.column("w").to_numpy()
    cs = stats[("", "w")]
    assert cs.count == 20_000 and cs.min == w.min() and cs.max == w.max()
    assert abs(cs.mean - w.mean()) < 1e-9
    med = cs.quantile(0.5)
    assert abs(med - np.median(w)) < 0.02 * np.median(w)

    n_ids = len(set(table.column("image_id").to_pylist()))
    est = stats[("", "image_id")].distinct
    assert abs(est - n_ids) / n_ids < 0.05
    assert stats[("", "fmt")].distinct in (3, 4)  # png/jpeg/webp (+"gif" rows)

    n_ph = len(set(table.column("phash").to_pylist()))
    est_ph = stats[("", "phash")].distinct
    assert abs(est_ph - n_ph) / n_ph < 0.05  # Zipf-skewed but HLL holds


def test_drift_detects_shift(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(11)
    clean_w = rng.normal(800, 100, 30_000).astype(np.int32)
    ref = pa.table({"w": clean_w, "caption": ["a caption ok"] * 30_000})
    profile = build_profile(rd.from_arrow(ref), ["w", "caption_len"],
                            batch_size=4096)

    # partitions: p0/p1 match the profile, p2 is shifted
    w = np.concatenate(
        [
            rng.normal(800, 100, 10_000),
            rng.normal(800, 100, 10_000),
            rng.normal(1100, 100, 10_000),  # drifted
        ]
    ).astype(np.int32)
    part = np.repeat(["p0", "p1", "p2"], 10_000)
    test = pa.table(
        {"w": w, "caption": ["a caption ok"] * 30_000, "part": part}
    )
    verdicts = drift_check(
        rd.from_arrow(test).repartition(6), profile, ["w", "caption_len"],
        partition_col="part", ks_threshold=0.15, batch_size=4096,
    ).to_pylist()
    byp = {(r["partition"], r["column"]): r for r in verdicts}
    assert byp[("p0", "w")]["passed"] and byp[("p1", "w")]["passed"]
    assert not byp[("p2", "w")]["passed"]
    assert byp[("p2", "w")]["ks"] > 0.5
    for p in ("p0", "p1", "p2"):
        assert byp[(p, "caption_len")]["passed"]  # identical captions

    # profile serialization round-trip
    p2 = DriftProfile.from_json(profile.to_json())
    assert p2.digests["w"].quantile(0.5) == profile.digests["w"].quantile(0.5)


def test_histogram_exact_counts(ray_session):
    import ray.data as rd

    from jsschema_ray.stages.stats import histogram

    rng = np.random.default_rng(7)
    v = rng.integers(-50, 250, 10_000)
    v[:100] = -1_000  # below lo: dropped
    v[100:200] = 9_999  # >= hi: dropped
    t = pa.table({"x": v})
    out = histogram(rd.from_arrow(t).repartition(8), "x",
                    lo=0, hi=200, bins=8, batch_size=512).to_pandas()
    out = out.sort_values("bin").reset_index(drop=True)

    kept = v[(v >= 0) & (v < 200)]
    want = np.bincount((kept - 0) // 25, minlength=8)
    nz = np.flatnonzero(want)
    assert list(out["bin"]) == list(nz)
    assert list(out["n"]) == [int(want[b]) for b in nz]
    assert list(out["bin_lo"]) == [int(b) * 25 for b in nz]
    assert list(out["bin_hi"]) == [(int(b) + 1) * 25 for b in nz]

    with pytest.raises(ValueError):
        histogram(rd.from_arrow(t), "x", lo=0, hi=200, bins=7)


def test_top_k_rows_exact(ray_session):
    import pandas as pd
    import ray.data as rd

    from jsschema_ray.stages.stats import top_k_rows

    rng = np.random.default_rng(17)
    n = 6_000
    pdf = pd.DataFrame({
        "id": np.arange(n, dtype="int64"),
        "v": (rng.integers(0, 40, n) * 0.25),  # heavy ties
        "extra": rng.integers(0, 9, n).astype("int64"),
    })
    ds = rd.from_pandas(pdf).repartition(8)

    got = top_k_rows(ds, "v", "id", k=25, batch_size=300).to_pandas()
    want = pdf.sort_values(["v", "id"], ascending=[False, True]).head(25)
    got = got.sort_values("id").reset_index(drop=True)
    want = want.sort_values("id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)

    got_asc = top_k_rows(ds, "v", "id", k=7, descending=False,
                         batch_size=300).to_pandas()
    want_asc = pdf.sort_values(["v", "id"]).head(7)
    pd.testing.assert_frame_equal(
        got_asc.sort_values("id").reset_index(drop=True),
        want_asc.sort_values("id").reset_index(drop=True),
        check_dtype=False,
    )

    # NaNs never displace real values
    pdf2 = pdf.copy()
    pdf2.loc[:5000, "v"] = np.nan
    got_nan = top_k_rows(rd.from_pandas(pdf2), "v", "id", k=10,
                         batch_size=300).to_pandas()
    assert not got_nan["v"].isna().any()

    with pytest.raises(ValueError):
        top_k_rows(ds, "v", "id", k=0)


def test_top_k_rows_int64_above_2_53_exact(ray_session):
    """r4 ADVICE fix: ranking must use the raw integer dtype — a float64
    cast collapses int64 values above 2^53, letting the tiebreak order
    rows whose values actually differ."""
    import pandas as pd
    import ray.data as rd

    from jsschema_ray.stages.stats import top_k_rows

    base = 1 << 60
    n = 500
    pdf = pd.DataFrame({
        "id": np.arange(n, dtype="int64"),
        # adjacent ints: float64-equal, integer-distinct
        "v": base + np.arange(n, dtype="int64"),
    })
    got = top_k_rows(rd.from_pandas(pdf).repartition(5), "v", "id", k=5,
                     batch_size=64).to_pandas()
    assert sorted(got["v"]) == [base + n - 5 + i for i in range(5)]
    got_asc = top_k_rows(rd.from_pandas(pdf).repartition(5), "v", "id",
                         k=5, descending=False, batch_size=64).to_pandas()
    assert sorted(got_asc["v"]) == [base + i for i in range(5)]


def test_categorical_drift_exact_and_guard(ray_session):
    """categorical_drift: integer cross products vs a hand computation;
    rows with a null side OR null category drop (documented contract)."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from jsschema_ray.stages.drift import categorical_drift

    t = pa.table({
        "cat": pa.array(["x", "x", "y", "y", "y", None, "x"], pa.string()),
        "side": pa.array([True, False, True, True, None, True, True],
                         pa.bool_()),
    })
    out = categorical_drift(ray.data.from_arrow(t).repartition(3),
                            "cat", "side", batch_size=2).to_pandas()
    out = out.sort_values("cat").reset_index(drop=True)
    # kept rows: (x,A) (x,A) (x,B) (y,A) (y,A) — null side + null cat drop
    assert out.cat.tolist() == ["x", "y"]
    assert out.n_a.tolist() == [2, 2]
    assert out.n_b.tolist() == [1, 0]
    ta, tb = 4, 1
    want = [abs(2 * tb - 1 * ta), abs(2 * tb - 0 * ta)]
    assert out.tvd_num.tolist() == want

"""The validation pipeline is table-agnostic: drive it over a documents-like
dataset (no image columns at all) through the same CLI-equivalent path."""

import json

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def test_pipeline_on_documents_table(ray_session, tmp_path):
    from jsschema_ray.pipelines.validate_pipeline import ValidationPipeline

    src = tmp_path / "docs"
    src.mkdir()
    base = pq.read_table("/root/testdata/sf0.001/documents.parquet").to_pandas()
    # inject violations + duplicates deterministically
    bad = base.head(5).copy()
    bad["lang"] = "xx"                        # enum violation
    dup = base.iloc[5:8].copy()               # duplicate doc_ids
    full = pd.concat([base, bad, dup], ignore_index=True)
    half = len(full) // 2
    pq.write_table(pa.Table.from_pandas(full.iloc[:half]), str(src / "a.parquet"))
    pq.write_table(pa.Table.from_pandas(full.iloc[half:]), str(src / "b.parquet"))

    schema = {
        "type": "object",
        "required": ["doc_id", "text"],
        "properties": {
            "lang": {"enum": ["en", "de", "fr", "es", "zh"]},
            "n_chars": {"type": "integer", "minimum": 1},
        },
        "x-uniqueness": [{"column": "doc_id"}],
        "x-stats": {"columns": ["n_chars"], "distinct": ["lang"],
                    "quantiles": ["n_chars"]},
    }
    out = tmp_path / "out"
    report = ValidationPipeline(schema, str(src), str(out),
                                key_column="doc_id").run()
    assert not report["valid"]
    total_vio = sum(p["metrics"]["violation_rows"]
                    for p in report["partitions"].values())
    assert total_vio == 5  # the 'xx' rows
    uniq = report["uniqueness"][0]
    assert uniq["dup_keys"] == 8  # 5 bad copies + 3 dups share doc_ids
    assert report["stats"]["n_chars"]["count"] == len(full)
    assert report["stats"]["lang"]["distinct_est"] >= 5

    # resume works on this table too
    report2 = ValidationPipeline(schema, str(src), str(out),
                                 key_column="doc_id").run()
    assert report2["partitions_resumed"] == 2
    # job report persisted
    assert json.load(open(out / "report.json"))["partitions_total"] == 2


def test_weighted_hash_sample_semantics(ray_session):
    """weighted_hash_sample: weight >= scale always keeps, weight 0 never,
    null key/weight drop, selection layout-independent and equal to the
    scalar mix32 formula."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from jsschema_ray.stages.sampling import KNUTH_A, weighted_hash_sample

    n = 2000
    ids = np.arange(n, dtype=np.int64)
    w = (ids * 7) % 500  # 0..499 around scale=250
    t = pa.table({
        "k": pa.array(np.r_[ids, [10**6, 10**6 + 1]]),
        "w": pa.array(np.r_[w, [-0, 300]].astype("int64")),
    })
    # null out one key and one weight
    t = t.set_column(0, "k", pa.array(
        [None if i == 5 else v for i, v in enumerate(t.column("k").to_pylist())],
        pa.int64()))
    t = t.set_column(1, "w", pa.array(
        [None if i == 6 else v for i, v in enumerate(t.column("w").to_pylist())],
        pa.int64()))
    outs = []
    for blocks in (1, 4):
        ds = ray.data.from_arrow(t).repartition(blocks)
        out = weighted_hash_sample(ds, "k", "w", scale=250, batch_size=64) \
            .to_pandas().sort_values("k").reset_index(drop=True)
        outs.append(out)
    assert outs[0].equals(outs[1])
    got = set(outs[0].k)
    assert 5 not in got and 6 not in got  # nulls dropped
    for k, wv in zip(t.column("k").to_pylist(), t.column("w").to_pylist()):
        if k is None or wv is None:
            continue
        mix = ((k + 1) * KNUTH_A) % (1 << 32)
        want = mix * 250 < wv * (1 << 32)
        assert (k in got) == want, (k, wv)
    # weight >= scale rows are all kept
    full = [k for k, wv in zip(t.column("k").to_pylist(),
                               t.column("w").to_pylist())
            if k is not None and wv is not None and wv >= 250]
    assert set(full) <= got


def test_sample_exact_n_layout_independent(ray_session):
    """sample_exact_n: exactly n rows, the n smallest mix32 keys, same
    set on every layout; null keys never selected."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from jsschema_ray.stages.sampling import KNUTH_A, sample_exact_n

    ids = list(range(500))
    t = pa.table({"k": pa.array([None] + ids, pa.int64()),
                  "x": pa.array(range(501), pa.int64())})
    mix = {k: ((k + 1) * KNUTH_A) % (1 << 32) for k in ids}
    want = set(sorted(ids, key=lambda k: (mix[k], k))[:20])
    for blocks in (1, 6):
        ds = ray.data.from_arrow(t).repartition(blocks)
        out = sample_exact_n(ds, "k", n=20, batch_size=64).to_pandas()
        assert len(out) == 20
        assert set(out.k) == want


def test_stratified_exact_n_quotas_and_layout_independence(ray_session):
    """stratified_exact_n: exact per-stratum quotas, under-populated
    stratum clamps, unlisted/NULL strata and NULL keys drop, identical
    rows on any block layout, and the selection equals the serial
    (mix32, key) rank."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from jsschema_ray.stages.sampling import _mix32, stratified_exact_n

    rng = np.random.default_rng(31)
    pdf = pd.DataFrame({
        "k": np.arange(400, dtype=np.int64),
        "s": rng.choice(["a", "b", "c", "d"], 400),
    })
    pdf.loc[5, "s"] = None
    pdf = pd.concat([pdf, pd.DataFrame({"k": [None], "s": ["a"]})],
                    ignore_index=True)
    quotas = {"a": 7, "b": 30, "c": 100000}  # c clamps; d unlisted

    def serial():
        kept = pdf.dropna(subset=["k", "s"])
        kept = kept[kept.s.isin(quotas)]
        r = _mix32(kept.k.to_numpy(dtype=np.int64), 1)
        kept = kept.assign(__r=r).sort_values(["__r", "k"])
        parts = [sub.head(quotas[s]) for s, sub in kept.groupby("s")]
        return pd.concat(parts)[["k", "s"]].astype({"k": "int64"}) \
            .sort_values(["s", "k"]).reset_index(drop=True)

    want = serial()
    for blocks in (1, 7):
        ds = rd.from_pandas(pdf).repartition(blocks)
        got = stratified_exact_n(ds, "s", quotas, "k", seed=1,
                                 batch_size=64).to_pandas() \
            .sort_values(["s", "k"]).reset_index(drop=True) \
            .astype({"k": "int64"})
        pd.testing.assert_frame_equal(got[["k", "s"]], want)
    counts = got.s.value_counts()
    assert counts["a"] == 7 and counts["b"] == 30
    assert counts["c"] == int((want.s == "c").sum())  # clamped
    assert "d" not in set(got.s)

    import pytest as _pytest
    with _pytest.raises(ValueError):
        stratified_exact_n(rd.from_pandas(pdf), "s", {}, "k")
    with _pytest.raises(ValueError):
        stratified_exact_n(rd.from_pandas(pdf), "s", {"a": -1}, "k")


def test_split_assign_deterministic_labels(ray_session):
    """split_assign: labels are a pure function of (key, seed); layout-
    independent; NULL keys get NULL split; fractions validate; boundary
    semantics match the serial searchsorted reference."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from jsschema_ray.stages.sampling import (_mix32, sample_threshold,
                                              split_assign)

    pdf = pd.DataFrame({"k": list(range(500)) + [None]})
    want_mix = _mix32(np.arange(500, dtype=np.int64), 7)
    t1, t2 = sample_threshold(0.6), sample_threshold(0.6 + 0.3)
    want = np.where(want_mix < t1, "train",
                    np.where(want_mix < t2, "val", "test"))
    for blocks in (1, 6):
        ds = rd.from_pandas(pdf).repartition(blocks)
        got = split_assign(ds, "k", fractions=(0.6, 0.3), seed=7,
                           batch_size=64).to_pandas()
        got_valid = got.dropna(subset=["k"]).sort_values("k")
        assert got_valid.split.tolist() == list(want)
        assert got[got.k.isna()].split.isna().all()
    # every label present at these fractions
    assert set(want) == {"train", "val", "test"}

    import pytest as _pytest
    with _pytest.raises(ValueError):
        split_assign(rd.from_pandas(pdf), "k", fractions=(0.9, 0.2))
    with _pytest.raises(ValueError):
        split_assign(rd.from_pandas(pdf), "k", fractions=(0.5,),
                     labels=("a", "b", "c"))

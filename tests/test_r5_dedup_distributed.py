"""Round-5 VERDICT tasks 2+4: minhash/simhash cluster assembly through
distributed connected components (no driver-side pair collection), and the
batch-vectorized exact-Jaccard verification kernel.
"""

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


@pytest.mark.usefixtures("ray_session")
def test_minhash_components_match_unionfind_reference():
    """The distributed BSP cluster assembly must reproduce the serial
    union-find reference exactly on the same verified-pair set."""
    import ray.data as rd

    from jsschema_ray.stages.dedup import (_clusters_from_pairs,
                                           _clusters_via_components,
                                           minhash_verified_pairs)

    pdf = pq.read_table(f"{SF}/documents.parquet").to_pandas().head(300)
    near = pdf.head(60).copy()
    near["doc_id"] = near["doc_id"] + 40_000
    near["text"] = near["text"] + " tail"
    ds = rd.from_pandas(pd.concat([pdf, near], ignore_index=True)) \
        .repartition(4)
    verified, _ = minhash_verified_pairs(ds, "text", "doc_id",
                                         threshold=0.7, num_perm=64,
                                         bands=16, batch_size=64)
    verified = verified.materialize()
    want = _clusters_from_pairs(
        (r["a"], r["b"]) for r in verified.take_all())
    got = _clusters_via_components(verified)
    assert got["clusters"] == want["clusters"]
    assert got["drop_keys"] == want["drop_keys"]
    assert got["n_verified_pairs"] == want["n_verified_pairs"]


@pytest.mark.usefixtures("ray_session")
def test_minhash_dedup_dup_storm_giant_cluster():
    """Dup-storm regime (~45% duplicates, ONE giant near-dup family): the
    fully-distributed path must assemble the giant cluster correctly —
    the shape where a driver-side pair collection would blow up."""
    import ray.data as rd

    from jsschema_ray.stages.dedup import minhash_dedup

    base = "the quick brown fox jumps over the lazy dog again and again " \
           "with many shared words in every single copy of this text"
    n_dup, n_unique = 90, 110
    rng = np.random.default_rng(19)
    rows = [{"doc_id": i, "text": base + f" v{i % 3}"}
            for i in range(n_dup)]
    rows += [{"doc_id": 1000 + i,
              "text": " ".join(rng.choice(
                  ["alpha", "beta", "gamma", "delta", "eps", "zeta",
                   "eta", "theta", "iota", "kappa"], 30).tolist())
              + f" unique{i} marker{i * 7}"}
             for i in range(n_unique)]
    ds = rd.from_pandas(pd.DataFrame(rows)).repartition(4)
    res = minhash_dedup(ds, "text", "doc_id", threshold=0.7, num_perm=64,
                        bands=16, batch_size=32)
    member_of = {k: i for i, c in enumerate(res["clusters"]) for k in c}
    # the 90 storm docs share one template => one cluster holds them all
    assert len({member_of[i] for i in range(n_dup)}) == 1
    giant = [c for c in res["clusters"] if 0 in c][0]
    assert len(giant) >= n_dup
    assert res["drop_keys"]  # losers enumerated
    # keep-one semantics: the giant cluster keeps exactly its min id
    assert sum(1 for k in giant if k not in res["drop_keys"]) == 1


@pytest.mark.usefixtures("ray_session")
def test_simhash_dedup_components_parity():
    import ray.data as rd

    from jsschema_ray.stages.dedup import (_clusters_from_pairs,
                                           _clusters_via_components,
                                           simhash_verified_pairs)

    pdf = pq.read_table(f"{SF}/documents.parquet").to_pandas().head(150)
    twin = pdf.head(25).copy()
    twin["doc_id"] = twin["doc_id"] + 70_000
    ds = rd.from_pandas(pd.concat([pdf, twin], ignore_index=True)) \
        .repartition(3)
    verified = simhash_verified_pairs(ds, "text", "doc_id", max_hamming=3,
                                      batch_size=32).materialize()
    rows = [(r["a"], r["b"]) for r in verified.take_all()]
    want = _clusters_from_pairs(rows)
    res = _clusters_via_components(verified)
    assert want["clusters"]  # the twins verify
    assert res["clusters"] == want["clusters"]
    assert res["drop_keys"] == want["drop_keys"]


@pytest.mark.usefixtures("ray_session")
def test_vectorized_jaccard_verify_matches_serial():
    """The batch-vectorized verify kernel must produce the same verified
    pair set and the same exact Jaccard values as the serial per-pair
    reference (np.intersect1d over the unpacked sketches)."""
    import ray.data as rd

    from jsschema_ray.stages.dedup import (Shingles, jaccard,
                                           minhash_verified_pairs)

    pdf = pq.read_table(f"{SF}/documents.parquet").to_pandas().head(250)
    near = pdf.head(50).copy()
    near["doc_id"] = near["doc_id"] + 30_000
    near["text"] = near["text"] + " suffix words"
    both = pd.concat([pdf, near], ignore_index=True)
    ds = rd.from_pandas(both).repartition(4)
    verified, _ = minhash_verified_pairs(ds, "text", "doc_id",
                                         threshold=0.6, num_perm=64,
                                         bands=16, batch_size=64)
    got = {(r["a"], r["b"]): r["jaccard"] for r in verified.take_all()}
    assert got

    # serial reference: unpack every doc's sketch, recompute each pair
    import pyarrow as pa

    sk = Shingles(column="text", shingle_k=3)(
        pa.table({"text": pa.array(both.text.tolist()),
                  "doc_id": pa.array(both.doc_id.to_numpy())}))
    blobs = dict(zip(both.doc_id.tolist(),
                     sk.column("shingles").to_pylist()))
    for (a, b), j in got.items():
        xa = np.frombuffer(blobs[a], dtype="<i8")
        xb = np.frombuffer(blobs[b], dtype="<i8")
        ref = jaccard(xa, xb)
        assert ref >= 0.6
        np.testing.assert_allclose(j, round(ref, 6), atol=1e-9)

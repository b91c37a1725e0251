"""stages/dedup.exact_jaccard_pairs — the exact inverted-index
set-similarity join. Corpus equality vs DuckDB runs in test_oracle_parity;
these pin the distributed decomposition (layout independence), the
subset relation MinHash verification relies on, and the stop-gram refusal."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from jsschema_ray.stages.dedup import exact_jaccard_pairs, minhash_dedup


def _corpus(seed=7, n=60, dup_frac=0.3):
    """Random word docs plus near-duplicates made by editing one word."""
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(30)]
    docs = [" ".join(rng.choice(vocab, size=25)) for _ in range(n)]
    ids = list(range(n))
    for i in range(int(n * dup_frac)):
        words = docs[i].split()
        words[5] = "edited"
        docs.append(" ".join(words))
        ids.append(n + i)
    return pa.table({"doc_id": pa.array(ids, pa.int64()),
                     "text": pa.array(docs, pa.string())})


def _serial_pairs(table, threshold, k):
    from jsschema_ray.stages.dedup import _batch_shingles

    texts = table.column("text").to_pylist()
    ids = table.column("doc_id").to_pylist()
    g, gd = _batch_shingles(texts, k, full_only=True)
    sets = {}
    for gram, d in zip(g, gd):
        sets.setdefault(ids[d], set()).add(int(gram))
    out = set()
    keys = sorted(sets)
    for i, a in enumerate(keys):
        for b in keys[i + 1:]:
            inter = len(sets[a] & sets[b])
            union = len(sets[a] | sets[b])
            if union and inter * 10000 >= int(threshold * 10000) * union:
                out.add((a, b))
    return out


def test_matches_serial_reference_any_layout(ray_session):
    import ray.data as rd

    t = _corpus()
    want = _serial_pairs(t, 0.6, k=3)
    assert want, "corpus should contain true near-dup pairs"
    for blocks in (1, 7):
        ds = rd.from_arrow(t).repartition(blocks)
        got = exact_jaccard_pairs(ds, threshold=0.6, k=3).to_pandas()
        assert set(zip(got.doc_a, got.doc_b)) == want
        # union arithmetic: inter <= union, both positive
        assert (got.n_inter <= got.n_union).all()


def test_minhash_clusters_subset_of_exact_pairs(ray_session):
    """minhash_dedup verifies candidates with exact Jaccard, so its
    clusters must be connected components of a SUBSET of the exact pair
    graph at the same (threshold, shingle_k)."""
    import ray.data as rd

    t = _corpus(seed=11)
    ds = rd.from_arrow(t)
    exact = exact_jaccard_pairs(ds, threshold=0.7, k=3).to_pandas()
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(exact.doc_a, exact.doc_b):
        parent[find(a)] = find(b)
    res = minhash_dedup(ds, threshold=0.7, num_perm=64, bands=16,
                        shingle_k=3)
    assert res["clusters"], "planted dups should cluster"
    for cluster in res["clusters"]:
        assert len({find(k) for k in cluster}) == 1


def test_short_docs_never_pair(ray_session):
    import ray.data as rd

    t = pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                  "text": ["a b", "a b", "a b c d e f g"]})
    got = exact_jaccard_pairs(rd.from_arrow(t), threshold=0.1,
                              k=5).to_pandas()
    # docs 0/1 have < k words -> zero grams -> no pairs despite equality
    assert len(got) == 0


def test_stop_gram_refusal(ray_session):
    import ray
    import ray.data as rd

    docs = ["common phrase here now again %d" % i for i in range(50)]
    t = pa.table({"doc_id": pa.array(range(50), pa.int64()),
                  "text": pa.array(docs, pa.string())})
    with pytest.raises((ValueError, ray.exceptions.RayTaskError),
                       match="max_gram_df"):
        exact_jaccard_pairs(rd.from_arrow(t), threshold=0.9, k=5,
                            max_gram_df=10).to_pandas()


def test_near_dedup_corpus_keeps_one_per_cluster(ray_session):
    """End-to-end survivor semantics: survivors = corpus minus every
    cluster member except the smallest id, verified against a serial
    union-find over the serial pair reference; singletons all survive."""
    import ray.data as rd

    t = _corpus()
    want_pairs = _serial_pairs(t, 0.6, k=3)
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in want_pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    clusters = {}
    for x in list(parent):
        clusters.setdefault(find(x), set()).add(x)
    losers = {x for root, m in clusters.items() for x in m if x != min(m)}
    all_ids = set(t.column("doc_id").to_pylist())
    want_survivors = all_ids - losers

    from jsschema_ray.stages.dedup import near_dedup_corpus

    for blocks in (1, 5):
        out = near_dedup_corpus(rd.from_arrow(t).repartition(blocks),
                                threshold=0.6, k=3).to_pandas()
        assert set(out.doc_id) == want_survivors
        # output carries the input columns for surviving rows
        assert set(out.columns) == {"doc_id", "text"}


def test_hamming_pairs_exact_and_layout_independent(ray_session):
    """Banding is a complete candidate generator: engine pairs equal a
    brute-force popcount reference on every layout; duplicate values
    collapse via the distinct pass; empty corpora keep a typed schema."""
    import ray.data as rd
    from jsschema_ray.stages.dedup import hamming_pairs

    rng = np.random.default_rng(11)
    base = rng.integers(-(2 ** 62), 2 ** 62, size=40, dtype=np.int64)
    # inject near pairs at distances 1..4 (4 must NOT surface at d<=3)
    flips = [base[i] ^ np.int64(sum(1 << b for b in range(d)))
             for i, d in zip(range(8), [1, 2, 3, 4] * 2)]
    vals = np.concatenate([base, np.asarray(flips, dtype=np.int64),
                           base[:5]])  # duplicates
    uniq = np.unique(vals)
    want = set()
    for i in range(len(uniq)):
        x = np.bitwise_xor(uniq[i].astype(np.uint64),
                           uniq[i + 1:].astype(np.uint64))
        d = np.array([bin(int(v)).count("1") for v in x])
        for j in np.flatnonzero(d <= 3):
            want.add((int(uniq[i]), int(uniq[i + 1 + j])))
    assert want, "corpus must contain near pairs"

    t = pa.table({"phash": pa.array(vals, pa.int64())})
    for blocks in (1, 6):
        out = hamming_pairs(rd.from_arrow(t).repartition(blocks),
                            column="phash", max_distance=3).to_pandas()
        got = set(zip(out.a.astype(int), out.b.astype(int)))
        assert got == want
        assert len(out) == len(out.drop_duplicates(["a", "b"]))
        # verified distances are exact
        for _, r in out.iterrows():
            assert bin(int(r.a) ^ int(r.b)).count("1") == r.hamming <= 3

    # pair-free corpus: the DATASET keeps a typed schema (Ray's to_pandas
    # of a fully-empty dataset drops columns — a harness quirk, so the
    # contract is pinned at the Dataset level where composition happens)
    lone = pa.table({"phash": pa.array([0, -1], pa.int64())})  # ham 64
    empty = hamming_pairs(rd.from_arrow(lone), column="phash",
                          max_distance=3)
    assert [f.name for f in empty.schema().base_schema] \
        == ["a", "b", "hamming"]
    assert empty.count() == 0


def test_hamming_pairs_band_blowup_refusal(ray_session):
    import ray.data as rd
    from jsschema_ray.stages.dedup import hamming_pairs

    # 64 values identical in every band chunk except low bits -> one
    # giant band bucket; bound must refuse loudly
    vals = np.arange(64, dtype=np.int64)
    t = pa.table({"phash": pa.array(vals)})
    with pytest.raises(Exception, match="max_band_members"):
        hamming_pairs(rd.from_arrow(t), column="phash", max_distance=3,
                      max_band_members=10).to_pandas()


def test_near_dedup_corpus_keep_columns_may_omit_text(ray_session):
    """r4 ADVICE fix: keep_columns that DROPS the text column (the natural
    use — strip the heavy payload from the survivor output) must work;
    pairs mine on the unprojected corpus, the projection applies only to
    the survivor side of the anti join."""
    import ray.data as rd

    from jsschema_ray.stages.dedup import near_dedup_corpus

    t = _corpus()
    full = near_dedup_corpus(rd.from_arrow(t).repartition(3),
                             threshold=0.6, k=3).to_pandas()
    slim = near_dedup_corpus(rd.from_arrow(t).repartition(3),
                             threshold=0.6, k=3,
                             keep_columns=["doc_id"]).to_pandas()
    assert set(slim.columns) == {"doc_id"}
    assert set(slim["doc_id"]) == set(full["doc_id"])

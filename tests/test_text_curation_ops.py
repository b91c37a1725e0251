"""Unit semantics for the round-3 text-curation operators: repetition
signals, benchmark-contamination scan, PII redaction. The DuckDB parity
gate (test_oracle_parity) covers the full-corpus equality; these pin the
edge cases SQL rows never hit (nulls, empties, ordering hazards)."""

import numpy as np
import pyarrow as pa

from jsschema_ray.stages.dedup import _batch_shingles
from jsschema_ray.stages.text import (
    ContaminationCheck,
    PiiRedact,
    Repetition,
    collect_gram_set,
    contamination_check,
)


def _tbl(texts):
    return pa.table(
        {"doc_id": pa.array(range(len(texts)), pa.int64()),
         "text": pa.array(texts, pa.string())}
    )


class TestRepetition:
    def test_counts_and_top_bigram(self):
        out = Repetition()(_tbl(["a b a b c", "x y z", "", None])).to_pandas()
        assert out.n_tokens.tolist() == [5, 3, 0, 0]
        assert out.n_distinct.tolist() == [3, 3, 0, 0]
        # bigrams of doc0: (a b) x2, (b a), (b c) -> max 2
        assert out.top_bigram_n.tolist() == [2, 1, 0, 0]

    def test_single_token_doc_has_no_bigram(self):
        out = Repetition()(_tbl(["word"])).to_pandas()
        assert out.n_tokens.tolist() == [1]
        assert out.top_bigram_n.tolist() == [0]

    def test_case_folded(self):
        out = Repetition()(_tbl(["The THE the"])).to_pandas()
        assert out.n_distinct.tolist() == [1]
        assert out.top_bigram_n.tolist() == [2]


class TestBatchShinglesFullOnly:
    def test_short_and_empty_docs_get_zero_grams(self):
        g, gdoc = _batch_shingles(["a b c d", "a b", ""], 3, full_only=True)
        assert len(g) == 2  # only doc 0's two full 3-grams
        assert gdoc.tolist() == [0, 0]

    def test_default_mode_unchanged(self):
        g, gdoc = _batch_shingles(["a b c d", "a b", ""], 3)
        # doc0: 2 grams, doc1: whole-run gram, doc2: empty sentinel
        assert gdoc.tolist() == [0, 0, 1, 2]


class TestContamination:
    def test_hits_count_positions_with_multiplicity(self, ray_session):
        import ray

        ev, _ = _batch_shingles(["q w e"], 3, full_only=True)
        ref = ray.put(np.unique(ev))
        stage = ContaminationCheck(ref, n=3)
        out = stage(_tbl(["q w e r q w e", "a b c", "xy"])).to_pandas()
        # doc0 grams: qwe, wer, erq, rqw, qwe -> 2 hits of 'q w e'
        assert out.n_grams.tolist() == [5, 1, 0]
        assert out.contam_hits.tolist() == [2, 0, 0]

    def test_end_to_end_on_datasets(self, ray_session):
        import ray.data as rd

        corpus = rd.from_arrow(_tbl(["a b c d", "z z z", "a b c"]))
        eval_ds = rd.from_arrow(_tbl(["x a b c y"]))
        out = contamination_check(corpus, eval_ds, n=3).to_pandas() \
            .sort_values("doc_id")
        assert out.contam_hits.tolist() == [1, 0, 1]

    def test_empty_eval_set(self, ray_session):
        import ray.data as rd

        corpus = rd.from_arrow(_tbl(["a b c d"]))
        eval_ds = rd.from_arrow(_tbl([""]))
        out = contamination_check(corpus, eval_ds, n=3).to_pandas()
        assert out.contam_hits.tolist() == [0]

    def test_collect_gram_set_unions_batches(self, ray_session):
        import ray.data as rd

        ds = rd.from_arrow(_tbl(["a b c", "a b c", "d e f"]))
        grams = collect_gram_set(ds, n=3, batch_size=1)
        assert len(grams) == 2  # distinct across batches


class TestPiiRedact:
    def test_counts_on_original_redaction_ordered(self):
        out = PiiRedact()(_tbl(
            ["mail bob.x@ex.org or jo@a.io", "10.1.2.3 and 321-555-0042",
             None]
        )).to_pandas()
        assert out.n_email.tolist() == [2, 0, 0]
        assert out.n_phone.tolist() == [0, 1, 0]
        assert out.n_ipv4.tolist() == [0, 1, 0]
        assert out.redacted.tolist() == [
            "mail <EMAIL> or <EMAIL>", "<IPV4> and <PHONE>", ""]

    def test_email_redacted_before_ipv4_class_scans(self):
        # 'a@b12.34.56.78.com' is ONE email; redacting email first means
        # the dotted-quad inside it never surfaces as an ipv4 REDACTION,
        # but the count (on the original text) still sees it — pinned
        out = PiiRedact()(_tbl(["a@b12.34.56.78.com"])).to_pandas()
        assert out.n_email.tolist() == [1]
        assert out.n_ipv4.tolist() == [1]  # counted on original
        assert out.redacted.tolist() == ["<EMAIL>"]  # but not re-redacted


def test_tfidf_top_terms_layout_independent_and_scored(ray_session):
    """tfidf_top_terms: rank order is the integer-exact (tf DESC, df ASC,
    token) contract on every layout; the float tfidf column equals
    tf * ln(N/df); k caps each doc's rows."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from jsschema_ray.stages.text import tfidf_top_terms

    docs = [
        "apple apple apple banana common common",
        "banana banana cherry common common common",
        "cherry cherry cherry cherry common",
        "date common",
    ]
    t = pa.table({"doc_id": pa.array(range(4), pa.int64()),
                  "text": pa.array(docs, pa.string())})
    outs = []
    for blocks in (1, 3):
        out = tfidf_top_terms(rd.from_arrow(t).repartition(blocks),
                              k=2).to_pandas()
        out = out.sort_values(["doc_id", "token"]).reset_index(drop=True)
        outs.append(out)
        assert out.groupby("doc_id").size().max() <= 2
        # doc 0: apple tf=3 df=1 wins; common tf=2 df=4 over banana tf=1?
        d0 = out[out.doc_id == 0]
        assert list(d0.token) == ["apple", "common"]
        np.testing.assert_allclose(
            out.tfidf, out.tf * np.log(4 / out.df), rtol=0, atol=0
        )
    assert outs[0].astype(str).equals(outs[1].astype(str))


class TestNearContamination:
    """Fuzzy decontamination (word-k-gram Jaccard vs an eval slice via the
    exact SSJoin on a side-marked union). The DuckDB parity gate covers
    full-corpus equality; these pin the semantics SQL rows never hit:
    reworded-leak detection above/below threshold, the non-negative-id
    contract, and layout independence."""

    def _run(self, ray_session, corpus_texts, eval_texts, **kw):
        import ray.data as rd

        from jsschema_ray.stages.text import near_contamination

        corpus = rd.from_arrow(_tbl(corpus_texts))
        ev = rd.from_arrow(_tbl(eval_texts))
        out = near_contamination(corpus, ev, **kw).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        assert list(out.columns) == ["doc_id", "near_contaminated"]
        return out

    def test_reworded_leak_flagged_unrelated_not(self, ray_session):
        base = "the quick brown fox jumps over the lazy dog near the river"
        # doc0: verbatim (jaccard 1); doc1: one word swapped -> 5 of its 9
        # 4-grams survive, jaccard 5/13 ~= 0.385; doc2: unrelated (0)
        out = self._run(
            ray_session,
            [base,
             "the quick brown fox leaps over the lazy dog near the river",
             "completely different content about arrow batches and shuffles"],
            [base], threshold=1 / 3, k=4)
        assert out.near_contaminated.tolist() == [True, True, False]

    def test_threshold_is_exact_boundary(self, ray_session):
        # corpus doc shares exactly 1 of its 2 distinct 3-grams with eval
        # (which has exactly one full 3-gram): jaccard = 1/2 -> flagged at
        # exactly 0.5 (>= is inclusive, integer-exact), not a hair above
        corpus = ["a b c d"]          # grams {abc, bcd}
        ev = ["a b c"]                # grams {abc}
        flagged = self._run(ray_session, corpus, ev,
                            threshold=0.5, k=3)
        assert flagged.near_contaminated.tolist() == [True]
        clean = self._run(ray_session, corpus, ev,
                          threshold=0.5001, k=3)
        assert clean.near_contaminated.tolist() == [False]

    def test_negative_eval_ids_rejected(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        import pytest

        from jsschema_ray.stages.text import near_contamination

        corpus = rd.from_arrow(_tbl(["a b c d"]))
        bad = rd.from_arrow(pa.table(
            {"doc_id": pa.array([-1], pa.int64()),
             "text": pa.array(["a b c"], pa.string())}))
        with pytest.raises(Exception):
            near_contamination(corpus, bad, threshold=0.5, k=3) \
                .materialize()

    def test_layout_independent(self, ray_session):
        import ray.data as rd

        from jsschema_ray.stages.text import near_contamination

        texts = [f"token{i} alpha beta gamma delta epsilon zeta" for i in
                 range(8)]
        ev = ["alpha beta gamma delta epsilon"]
        outs = []
        for blocks in (1, 4):
            corpus = rd.from_arrow(_tbl(texts)).repartition(blocks)
            out = near_contamination(
                corpus, rd.from_arrow(_tbl(ev)), threshold=0.4, k=3,
                batch_size=2).to_pandas().sort_values("doc_id") \
                .reset_index(drop=True)
            outs.append(out)
        assert outs[0].equals(outs[1])
        assert outs[0].near_contaminated.all()


class TestChunkDocuments:
    def test_overlap_edges_and_layouts(self, ray_session):
        """32/24-style chunking on a tiny doc: chunk boundaries, the
        overlapping tail, whitespace normalization, zero-word docs
        dropped, layout independence."""
        import ray.data as rd

        from jsschema_ray.stages.text import chunk_documents

        words = [f"w{i}" for i in range(10)]
        texts = [" ".join(words),        # 10 words: chunks at 0,4,8
                 "  spaced\tout  ",      # 2 words -> one chunk
                 "",                     # no words -> no chunks
                 None]                   # null -> no chunks
        t = pa.table({"doc_id": pa.array(range(4), pa.int64()),
                      "text": pa.array(texts, pa.string())})
        outs = []
        for blocks in (1, 3):
            ds = rd.from_arrow(t).repartition(blocks)
            out = chunk_documents(ds, chunk_words=6, stride_words=4,
                                  batch_size=2).to_pandas() \
                .sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)
            outs.append(out)
        assert outs[0].equals(outs[1])
        o = outs[0]
        assert o.doc_id.tolist() == [0, 0, 0, 1]
        assert o.chunk_id.tolist() == [0, 1, 2, 0]
        assert o.chunk_text[0] == "w0 w1 w2 w3 w4 w5"
        assert o.chunk_text[1] == "w4 w5 w6 w7 w8 w9"   # overlap of 2
        assert o.chunk_text[2] == "w8 w9"               # partial tail
        assert o.chunk_text[3] == "spaced out"          # ws normalized

    def test_negative_id_rejected(self, ray_session):
        import pytest
        import ray.data as rd

        from jsschema_ray.stages.text import chunk_documents

        t = pa.table({"doc_id": pa.array([-1], pa.int64()),
                      "text": pa.array(["a b"], pa.string())})
        with pytest.raises(Exception):
            chunk_documents(rd.from_arrow(t)).materialize()


def test_top_bigrams_counts_and_rank(ray_session):
    """top_bigrams: adjacent pairs within a document only, global counts,
    (count DESC, bigram ASC) deterministic rank, layout-independent."""
    import pandas as pd
    import ray.data

    from jsschema_ray.stages.text import top_bigrams

    pdf = pd.DataFrame({"text": [
        "the cat sat", "the cat ran", "a cat sat", None, "cat", "",
        "THE CAT sat on the cat",
    ]})

    def serial():
        from collections import Counter
        import re
        c = Counter()
        for t in pdf.text.dropna():
            w = re.findall(r"\w+", t.lower())
            c.update(" ".join(p) for p in zip(w, w[1:]))
        return sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:5]

    want = serial()
    for blocks in (1, 4):
        ds = ray.data.from_pandas(pdf).repartition(blocks)
        got = top_bigrams(ds, "text", k=5, batch_size=2).to_pandas() \
            .sort_values(["n", "bigram"], ascending=[False, True]) \
            .reset_index(drop=True)
        assert list(zip(got.bigram, got.n)) == want
    # 'the cat' appears 3x ('the cat sat', 'the cat ran', twice in the
    # last doc)... verify the top entry explicitly
    assert want[0] == ("the cat", 4)


def test_token_freq_score_reference_and_exclusions(ray_session):
    """token_freq_score == mean corpus count of the doc's token
    positions (serial Counter reference); zero-token docs are excluded;
    repeated tokens weight by position; layout-independent."""
    import collections

    import pandas as pd
    import ray.data

    from jsschema_ray.stages.text import token_freq_score

    docs = pd.DataFrame({
        "doc_id": np.arange(6, dtype=np.int64),
        "text": [
            "the cat sat on the mat",
            "the dog",
            "unique_zebra_token",
            "",                      # zero tokens -> excluded
            "THE The the",           # case folds into 'the'
            None,                    # NULL text -> excluded
        ],
    })
    ds = ray.data.from_pandas(docs).repartition(3)
    got = token_freq_score(ds, batch_size=2).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert got.doc_id.tolist() == [0, 1, 2, 4]  # 3 and 5 excluded

    # serial reference
    import re
    toks = {int(r.doc_id): re.findall(r"\w+", str(r.text).lower())
            for r in docs.itertuples() if r.text}
    ctf = collections.Counter(t for ts in toks.values() for t in ts)
    for _, row in got.iterrows():
        ts = toks[int(row.doc_id)]
        want_sum = sum(ctf[t] for t in ts)
        assert int(row.n_tokens) == len(ts)
        assert int(row.sum_ctf) == want_sum
        assert row.freq_score == float(want_sum) / float(len(ts))

    # rare-token doc scores lowest
    scores = got.set_index("doc_id").freq_score
    assert scores.loc[2] == scores.min()

    # layout independence
    got2 = token_freq_score(ray.data.from_pandas(docs).repartition(1)) \
        .to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert np.array_equal(got.freq_score.to_numpy(),
                          got2.freq_score.to_numpy())


class TestVocabOverlap:
    """vocab_overlap — pairwise slice-vocabulary Jaccard."""

    def test_matches_bruteforce(self, ray_session):
        import itertools

        import ray.data as rd

        from jsschema_ray.stages.text import vocab_overlap

        rng = np.random.default_rng(31)
        vocab = [f"w{i}" for i in range(60)]
        docs, srcs = [], []
        for i in range(300):
            src = rng.choice(["cc", "wiki", "books", None])
            words = rng.choice(vocab[:20 + 10 * (hash(src) % 4 if src
                                                 else 0)],
                               size=rng.integers(1, 15))
            docs.append(" ".join(words) + ".")
            srcs.append(src)
        tbl = pa.table({"source": pa.array(srcs), "text": pa.array(docs)})
        out = vocab_overlap(rd.from_arrow(tbl).repartition(4),
                            "source", "text").to_pandas()
        out = out.sort_values(["source_a", "source_b"]).reset_index(
            drop=True)
        # brute force over the same \w+ lowercased stream
        import re
        sets = {}
        for s, t in zip(srcs, docs):
            if s is None:
                continue
            sets.setdefault(s, set()).update(
                re.findall(r"\w+", t.lower()))
        rows = []
        for a, b in itertools.combinations(sorted(sets), 2):
            inter = len(sets[a] & sets[b])
            if inter:
                rows.append((a, b, inter,
                             inter / len(sets[a] | sets[b])))
        import pandas as pd
        exp = pd.DataFrame(rows, columns=["source_a", "source_b",
                                          "n_common", "jaccard"])
        pd.testing.assert_frame_equal(out, exp.astype(out.dtypes))
        for u, v in zip(out["jaccard"], exp["jaccard"]):
            assert u.hex() == v.hex()

    def test_disjoint_vocabularies_emit_nothing(self, ray_session):
        import ray.data as rd

        from jsschema_ray.stages.text import vocab_overlap

        tbl = pa.table({"source": pa.array(["a", "b"]),
                        "text": pa.array(["foo bar", "baz qux"])})
        out = vocab_overlap(rd.from_arrow(tbl), "source", "text")
        assert out.count() == 0


class TestGroupedConcentration:
    """grouped_concentration — per-group Simpson index."""

    def test_matches_duckdb_bits(self, ray_session):
        import duckdb

        import ray.data as rd

        from jsschema_ray.stages.aggregates import grouped_concentration

        rng = np.random.default_rng(37)
        n = 5000
        tbl = pa.table({
            "g": pa.array(rng.choice(["s1", "s2", "s3", None], n)),
            "c": pa.array(rng.choice(["en", "fr", "de", "pt", None], n,
                                     p=[0.6, 0.2, 0.1, 0.05, 0.05])),
        })
        out = grouped_concentration(rd.from_arrow(tbl).repartition(4),
                                    "g", "c").to_pandas()
        out = out.sort_values("g").reset_index(drop=True)
        con = duckdb.connect()
        con.register("t", tbl)
        exp = con.execute("""
            WITH c AS (SELECT g, c AS v, COUNT(*) AS cnt FROM t
                       WHERE g IS NOT NULL AND c IS NOT NULL
                       GROUP BY 1, 2)
            SELECT g, CAST(SUM(cnt) AS BIGINT) AS n,
                   COUNT(*) AS n_cats,
                   CAST(SUM(cnt*cnt) AS BIGINT) AS simpson_num,
                   CAST(SUM(cnt*cnt) AS DOUBLE)
                       / CAST(CAST(SUM(cnt) AS BIGINT)
                              * CAST(SUM(cnt) AS BIGINT) AS DOUBLE)
                       AS simpson
            FROM c GROUP BY g ORDER BY g""").df()
        assert out["n"].tolist() == exp["n"].tolist()
        assert out["n_cats"].tolist() == exp["n_cats"].tolist()
        assert out["simpson_num"].tolist() == exp["simpson_num"].tolist()
        for u, v in zip(out["simpson"], exp["simpson"]):
            assert u.hex() == v.hex()

    def test_single_category_group_is_one(self, ray_session):
        import ray.data as rd

        from jsschema_ray.stages.aggregates import grouped_concentration

        tbl = pa.table({"g": pa.array(["a"] * 4 + ["b"] * 2),
                        "c": pa.array(["en"] * 4 + ["en", "fr"])})
        out = grouped_concentration(rd.from_arrow(tbl), "g", "c") \
            .to_pandas().sort_values("g").reset_index(drop=True)
        assert out.loc[0, "simpson"] == 1.0
        assert out.loc[1, "simpson"] == 0.5
        assert out["n_cats"].tolist() == [1, 2]

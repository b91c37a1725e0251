"""Text-analysis operators for training-data pipelines (driver-mandated
first-class components): token counting, quality scoring, language ID,
document fingerprinting. All vectorized `map_batches` bodies (pandas str /
numpy kernels); regexes and stopword tables are compiled once per actor in
``__init__``.
"""

from __future__ import annotations

import re
from typing import Any, Optional

import numpy as np
import pyarrow as pa

from jsschema_ray.stages.exchange import by_key
from jsschema_ray.state.hll import hash64

# BPE-ish pre-tokenizer: word pieces OR single non-space symbols (the common
# GPT-2-style pretoken split, public pattern family)
_BPE_RE = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]"

#: tiny per-language stopword profiles for the n-gram/stopword heuristic
#: language identifier (public wordlists, top function words)
_LANG_PROFILES: dict[str, set[str]] = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "it", "you", "that",
           "was", "for", "on", "are", "with", "as", "at", "be", "this"},
    "de": {"der", "die", "das", "und", "ist", "ich", "nicht", "ein", "zu",
           "mit", "den", "auf", "für", "im", "es", "sich", "von"},
    "fr": {"le", "la", "les", "de", "et", "est", "un", "une", "que", "pas",
           "pour", "dans", "qui", "sur", "avec", "au", "ce", "il"},
    "es": {"el", "la", "los", "de", "que", "y", "es", "en", "un", "una",
           "por", "con", "no", "para", "se", "su", "al", "lo"},
}


class TextStats:
    """Appends n_chars, n_tokens (whitespace), n_tokens_bpe, punct_ratio,
    stopword_ratio, upper_ratio, quality_score to each row."""

    def __init__(self, column: str = "text"):
        self.column = column
        self.bpe = re.compile(_BPE_RE)
        self.punct = re.compile(r"[^\w\s]")
        self.stop = _LANG_PROFILES["en"]

    def __call__(self, batch: pa.Table) -> pa.Table:
        s = batch.column(self.column).to_pandas().fillna("")
        n_chars = s.str.len()
        n_tokens = s.str.split().str.len().fillna(0)
        n_bpe = s.str.count(_BPE_RE)
        n_punct = s.str.count(r"[^\w\s]")
        n_upper = s.str.count(r"[A-Z]")
        # vectorized stopword ratio: explode tokens once, one C-level isin,
        # segmented mean back to rows (no per-row Python lambda)
        toks = s.str.lower().str.split()
        n_tok = toks.str.len().fillna(0).to_numpy()
        exploded = toks.explode()
        hits = (
            exploded.isin(self.stop)
            .groupby(level=0).sum()
            .reindex(s.index, fill_value=0)
            .to_numpy(dtype=np.float64)
        )
        stop_ratio = np.where(n_tok > 0, hits / np.maximum(n_tok, 1), 0.0)
        punct_ratio = (n_punct / n_chars.clip(lower=1)).astype(float)
        upper_ratio = (n_upper / n_chars.clip(lower=1)).astype(float)
        # simple composite quality heuristic: reasonable length, some
        # stopwords, not punctuation-heavy, not shouting
        length_score = np.clip(n_tokens / 20.0, 0, 1)
        quality = (
            0.4 * length_score
            + 0.3 * np.clip(stop_ratio * 5, 0, 1)
            + 0.2 * (1 - np.clip(punct_ratio * 4, 0, 1))
            + 0.1 * (1 - np.clip(upper_ratio * 4, 0, 1))
        )
        out = batch
        for name, vals, typ in (  # overwrite same-named existing columns
            ("n_chars", n_chars, pa.int64()),
            ("n_tokens", n_tokens, pa.int64()),
            ("n_tokens_bpe", n_bpe, pa.int64()),
            ("punct_ratio", punct_ratio, pa.float64()),
            ("stopword_ratio", stop_ratio, pa.float64()),
            ("upper_ratio", upper_ratio, pa.float64()),
            ("quality_score", quality, pa.float64()),
        ):
            arr = pa.array(
                np.asarray(vals, dtype="float64" if typ == pa.float64() else "int64"),
                type=typ,
            )
            if name in out.column_names:
                out = out.set_column(out.column_names.index(name), name, arr)
            else:
                out = out.append_column(name, arr)
        return out


class LangId:
    """Stopword-profile language identifier (en/de/fr/es + 'und' for
    undetermined). Deterministic heuristic: argmax of per-language stopword
    hit-rate; 'und' when no profile scores above ``min_score``."""

    def __init__(self, column: str = "text", out_column: str = "lang_pred",
                 min_score: float = 0.02):
        self.column = column
        self.out_column = out_column
        self.min_score = min_score
        self.profiles = {k: frozenset(v) for k, v in _LANG_PROFILES.items()}

    def __call__(self, batch: pa.Table) -> pa.Table:
        # vectorized: explode tokens once, one C-level isin per language
        # profile, segmented hit-rate, argmax in profile order (ties break
        # to the first profile — same as the sequential strict-> update)
        s = batch.column(self.column).to_pandas().fillna("")
        toks = s.str.lower().str.findall(r"[a-zà-ÿ]+")
        n_tok = toks.str.len().fillna(0).to_numpy(dtype=np.float64)
        exploded = toks.explode()
        names = list(self.profiles)
        scores = np.zeros((len(s), len(names)), dtype=np.float64)
        for li, lang in enumerate(names):
            hits = (
                exploded.isin(self.profiles[lang])
                .groupby(level=0).sum()
                .reindex(s.index, fill_value=0)
                .to_numpy(dtype=np.float64)
            )
            scores[:, li] = np.where(n_tok > 0,
                                     hits / np.maximum(n_tok, 1.0), 0.0)
        best_idx = np.argmax(scores, axis=1)
        best = scores[np.arange(len(s)), best_idx]
        lang_arr = np.array(names, dtype=object)[best_idx]
        langs = np.where((best > self.min_score) & (n_tok > 0),
                         lang_arr, "und")
        return batch.append_column(
            self.out_column, pa.array(langs, type=pa.string())
        )


class Fingerprint:
    """Document fingerprinting via winnowing over rolling character k-gram
    hashes (Schleimer et al. 2003, public): fingerprint = min hash of each
    sliding window, reduced to one int64 per document (min-sketch) plus the
    full content hash. Robust to small local edits in a way a plain content
    hash is not."""

    def __init__(self, column: str = "text", k: int = 8, window: int = 16,
                 out_prefix: str = "fp"):
        self.column = column
        self.k = k
        self.window = window
        self.out_prefix = out_prefix

    def _doc_fp(self, text: str) -> int:
        if len(text) < self.k:
            return int(hash64(np.array([text], dtype=object))[0] >> np.uint64(1))
        b = np.frombuffer(text.encode("utf-8", "ignore"), dtype=np.uint8)
        n = len(b) - self.k + 1
        if n <= 0:
            return int(hash64(np.array([text], dtype=object))[0] >> np.uint64(1))
        # polynomial rolling hash of all k-grams, vectorized via cumulative
        # powers: h_i = sum_j b[i+j] * P^(k-1-j) mod 2^64
        P = np.uint64(1099511628211)
        with np.errstate(over="ignore"):  # mod-2^64 arithmetic is intended
            powers = np.empty(self.k, dtype=np.uint64)
            powers[0] = 1
            for j in range(1, self.k):
                powers[j] = powers[j - 1] * P
            win = np.lib.stride_tricks.sliding_window_view(b, self.k).astype(
                np.uint64
            )
            grams = (win * powers[::-1]).sum(axis=1, dtype=np.uint64)
        # winnowing: min per sliding window of hashes; document sketch = min
        w = min(self.window, len(grams))
        mins = np.lib.stride_tricks.sliding_window_view(grams, w).min(axis=1)
        return int(np.uint64(mins.min()) >> np.uint64(1))

    def __call__(self, batch: pa.Table) -> pa.Table:
        # batch-wide vectorization (r3 VERDICT item: no per-doc _doc_fp
        # calls): all docs' utf-8 bytes concatenate into ONE buffer, the
        # rolling k-gram hash runs as k shifted multiply-adds over it, and
        # the per-doc sketch (min gram hash — the sliding-window minima's
        # minimum IS the global min) falls out of one segmented
        # np.minimum.reduceat. _doc_fp stays as the serial differential
        # reference; values are bit-identical.
        texts = batch.column(self.column).to_pylist()
        n = len(texts)
        fps = np.zeros(n, dtype=np.int64)
        enc = [b"" if t is None else t.encode("utf-8", "ignore")
               for t in texts]
        blens = np.fromiter((len(b) for b in enc), dtype=np.int64, count=n)
        clens = np.fromiter(
            (0 if t is None else len(t) for t in texts),
            dtype=np.int64, count=n,
        )
        isnull = np.fromiter((t is None for t in texts), dtype=bool,
                             count=n)
        # short docs (char OR byte length < k) hash as a whole string —
        # same fallback _doc_fp takes; None stays 0
        short = (clens < self.k) | (blens < self.k)
        fb = short & ~isnull
        if fb.any():
            sarr = np.array([texts[i] for i in np.flatnonzero(fb)],
                            dtype=object)
            fps[fb] = (hash64(sarr) >> np.uint64(1)).astype(np.int64)
        good = np.flatnonzero(~short)
        if len(good):
            big = np.frombuffer(b"".join(enc), dtype=np.uint8)
            starts_all = np.concatenate(
                ([0], np.cumsum(blens)[:-1])).astype(np.int64)
            m = len(big) - self.k + 1
            P = np.uint64(1099511628211)
            with np.errstate(over="ignore"):
                powers = np.empty(self.k, dtype=np.uint64)
                powers[0] = 1
                for j in range(1, self.k):
                    powers[j] = powers[j - 1] * P
                grams = np.zeros(m, dtype=np.uint64)
                for j in range(self.k):
                    grams += big[j:m + j].astype(np.uint64) * \
                        powers[self.k - 1 - j]
            # segmented min over each doc's valid gram span [s, s+len-k+1)
            # — boundary-crossing positions never enter a segment; the
            # sentinel keeps the trailing reduceat index in bounds
            grams = np.append(grams, np.uint64(0xFFFFFFFFFFFFFFFF))
            s = starts_all[good]
            e = s + blens[good] - self.k + 1
            idx = np.empty(2 * len(good), dtype=np.int64)
            idx[0::2] = s
            idx[1::2] = e
            red = np.minimum.reduceat(grams, idx)[0::2]
            fps[good] = (red >> np.uint64(1)).astype(np.int64)
        content = (
            hash64(np.array(["" if t is None else t for t in texts], dtype=object))
            >> np.uint64(1)
        ).astype(np.int64)
        return batch.append_column(
            f"{self.out_prefix}_winnow", pa.array(fps, type=pa.int64())
        ).append_column(
            f"{self.out_prefix}_content", pa.array(content, type=pa.int64())
        )


def text_stats(ds, column: str = "text", batch_size: int = 8192, **kw):
    return ds.map_batches(TextStats(column), batch_format="pyarrow",
                          batch_size=batch_size, **kw)


def lang_id(ds, column: str = "text", batch_size: int = 8192, **kw):
    # stateless tasks: profile sets are tiny (no init cost to amortize);
    # an actor pool would add ~1 s spin-up per invocation
    return ds.map_batches(
        LangId(column=column), batch_format="pyarrow",
        batch_size=batch_size, **kw,
    )


def fingerprint(ds, column: str = "text", batch_size: int = 4096, **kw):
    return ds.map_batches(
        Fingerprint(column=column), batch_format="pyarrow",
        batch_size=batch_size, **kw,
    )


# --------------------------------------------------------------------------
# repetition / boilerplate scoring (Gopher-style repetition signals)
# --------------------------------------------------------------------------

class Repetition:
    """Per-document repetition signals (the boilerplate detectors of the
    Gopher/C4 data-quality rules, public): total \\w+ tokens, distinct
    tokens, and the occurrence count of the most frequent bigram. All
    integer outputs — no float ratio can hit a rounding boundary between
    engines (callers derive ratios). Vectorized: one findall/explode per
    batch, C-level groupby nunique/size — no per-row Python."""

    def __init__(self, column: str = "text", id_column: str = "doc_id"):
        self.column = column
        self.id_column = id_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pandas as pd

        s = batch.column(self.column).to_pandas().fillna("")
        s = s.reset_index(drop=True)
        toks = s.str.lower().str.findall(r"\w+")
        n_tok = toks.str.len().fillna(0).to_numpy(dtype=np.int64)
        exploded = toks.explode().dropna()
        n_distinct = (
            exploded.groupby(level=0).nunique()
            .reindex(s.index, fill_value=0).to_numpy(dtype=np.int64)
        )
        # most-frequent-bigram count: adjacent pairs within each doc
        # (exact strings — C-level groupby size, then per-doc max)
        top_big = np.zeros(len(s), dtype=np.int64)
        if len(exploded):
            nxt = exploded.groupby(level=0).shift(-1)
            mask = nxt.notna()
            if mask.any():
                big = exploded[mask] + " " + nxt[mask]
                vc = (
                    pd.DataFrame({"d": big.index, "g": big.to_numpy()})
                    .groupby(["d", "g"], sort=False).size()
                )
                mx = vc.groupby(level=0).max()
                top_big[mx.index.to_numpy()] = mx.to_numpy(dtype=np.int64)
        return pa.table(
            {
                self.id_column: batch.column(self.id_column),
                "n_tokens": pa.array(n_tok, type=pa.int64()),
                "n_distinct": pa.array(n_distinct, type=pa.int64()),
                "top_bigram_n": pa.array(top_big, type=pa.int64()),
            }
        )


def repetition_stats(ds, column: str = "text", id_column: str = "doc_id",
                     batch_size: int = 8192, **kw):
    return ds.map_batches(
        Repetition(column=column, id_column=id_column),
        batch_format="pyarrow", batch_size=batch_size, **kw,
    )


# --------------------------------------------------------------------------
# benchmark-contamination check (n-gram overlap vs a broadcast eval set)
# --------------------------------------------------------------------------

def collect_gram_set(ds, column: str = "text", n: int = 3,
                     batch_size: int = 8192) -> np.ndarray:
    """Distinct word-n-gram hashes of ``ds[column]`` (the benchmark/eval
    side of a contamination check). Per-batch unique gram hashes are
    blob-packed into one binary row each; the driver unions the partials.
    Documented bound: the DISTINCT grams of the eval set fit the driver —
    benchmark suites are tiny next to a training corpus by construction
    (the corpus side streams; only this side is collected)."""
    from jsschema_ray.stages.dedup import _batch_shingles

    def per_batch(batch: pa.Table) -> pa.Table:
        texts = batch.column(column).to_pylist()
        g, _ = _batch_shingles(texts, n, full_only=True)
        u = np.unique(g)
        return pa.table({"grams": pa.array([u.tobytes()], type=pa.binary())})

    parts = ds.map_batches(per_batch, batch_format="pyarrow",
                           batch_size=batch_size).take_all()
    arrs = [np.frombuffer(r["grams"], dtype=np.uint64) for r in parts]
    if not arrs:
        return np.empty(0, dtype=np.uint64)
    return np.unique(np.concatenate(arrs))


class ContaminationCheck:
    """Counts, per document, the word-n-gram POSITIONS whose n-gram appears
    in the broadcast benchmark gram set (the standard train/test-overlap
    decontamination scan). The eval set ships once via ``ray.put`` (read
    zero-copy in every task, never re-serialized per batch); matching is a
    sorted-array ``np.isin`` over the batch's gram hashes. Gram identity is
    the 64-bit polynomial word-sequence hash (collision odds ~n_grams^2 /
    2^64 — vanishing, and deterministic for a given corpus; the DuckDB
    oracle matches gram STRINGS, so the parity gate would catch one)."""

    def __init__(self, gram_ref, column: str = "text",
                 id_column: str = "doc_id", n: int = 3):
        self.gram_ref = gram_ref
        self.column = column
        self.id_column = id_column
        self.n = n

    def __call__(self, batch: pa.Table) -> pa.Table:
        import ray

        from jsschema_ray.stages.dedup import _batch_shingles

        ev = ray.get(self.gram_ref)
        texts = batch.column(self.column).to_pylist()
        g, gdoc = _batch_shingles(texts, self.n, full_only=True)
        n_rows = batch.num_rows
        n_grams = np.bincount(gdoc, minlength=n_rows) if len(gdoc) else \
            np.zeros(n_rows, dtype=np.int64)
        if len(g) and len(ev):
            hit = np.isin(g, ev)
            hits = np.bincount(gdoc[hit], minlength=n_rows)
        else:
            hits = np.zeros(n_rows, dtype=np.int64)
        # append (pass-through) so the scan composes into pipelines
        return batch.append_column(
            "n_grams", pa.array(n_grams.astype(np.int64))
        ).append_column("contam_hits", pa.array(hits.astype(np.int64)))


def contamination_check(ds, eval_ds, column: str = "text",
                        id_column: str = "doc_id", n: int = 3,
                        batch_size: int = 8192, **kw):
    """Two-scan decontamination: scan 1 collects the eval set's distinct
    n-gram hashes (small side, driver-unioned, broadcast once); scan 2
    streams the corpus counting per-doc gram hits. Returns a Dataset of
    (id, n_grams, contam_hits)."""
    import ray

    grams = collect_gram_set(eval_ds, column=column, n=n,
                             batch_size=batch_size)
    ref = ray.put(grams)
    return ds.map_batches(
        ContaminationCheck(ref, column=column, id_column=id_column, n=n),
        batch_format="pyarrow", batch_size=batch_size, **kw,
    )


def near_contamination(ds, eval_ds, threshold: float = 0.7,
                       column: str = "text", id_column: str = "doc_id",
                       k: int = 5, batch_size: int = 4096):
    """FUZZY decontamination: flag corpus docs whose word-k-gram Jaccard
    with ANY eval doc is >= threshold — the near-duplicate counterpart of
    :func:`contamination_check` (which needs a verbatim n-gram hit and so
    misses lightly-reworded eval leakage). Output one row per corpus doc:
    (id_column, near_contaminated bool), integer-exact threshold.

    EXACT, not LSH: eval ids are remapped into the negative half-space
    (-id-1) and the union corpus runs through the inverted-index SSJoin
    (stages/dedup.exact_jaccard_pairs — gram co-partition, output-bound
    pair emission); cross-side pairs are exactly the (eval, corpus) hits
    (doc_a < 0 <= doc_b, since pairs are ordered and eval ids are
    negative), and the flag is a left join of the corpus against the
    distinct hit ids. Zero recall loss, SQL-mirrorable. Within-side pair
    work is wasted but bounded by the same max_gram_df refusal; for
    dup-storm corpora run minhash-based near_dedup_corpus first.
    Contract: ``id_column`` must be non-negative integers on BOTH sides
    (the sign is the side marker)."""
    import pyarrow.compute as pc

    from jsschema_ray.stages.dedup import exact_jaccard_pairs
    from jsschema_ray.stages.join import hash_join
    from jsschema_ray.stages.uniqueness import distinct_rows

    def int64_ids(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_column).cast(pa.int64())
        # corpus side enforces the same non-negative contract as the eval
        # side (r5 ADVICE fix: a negative corpus id would silently land in
        # the eval half-space and misclassify its pairs)
        mn = pc.min(ids).as_py()
        if mn is not None and mn < 0:
            raise ValueError(
                f"near_contamination needs non-negative {id_column} "
                "values (the sign marks the eval side)")
        return pa.table({id_column: ids, column: batch.column(column)})

    corpus = ds.select_columns([id_column, column]).map_batches(
        int64_ids, batch_format="pyarrow", batch_size=batch_size)

    def negate_ids(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_column).cast(pa.int64())
        if pc.min(ids).as_py() is not None and pc.min(ids).as_py() < 0:
            raise ValueError(
                f"near_contamination needs non-negative {id_column} "
                "values (the sign marks the eval side)")
        neg = pc.subtract(pa.scalar(-1, pa.int64()),
                          ids)  # -id - 1
        return pa.table({id_column: neg,
                         column: batch.column(column)})

    ev = eval_ds.select_columns([id_column, column]).map_batches(
        negate_ids, batch_format="pyarrow", batch_size=batch_size)
    pairs = exact_jaccard_pairs(
        corpus.union(ev), threshold=threshold, column=column,
        id_column=id_column, k=k, batch_size=batch_size)

    def cross_hits(batch: pa.Table) -> pa.Table:
        # ordered pairs + negative eval ids => cross-side is a < 0 <= b
        m = pc.and_(pc.less(batch.column("doc_a"), 0),
                    pc.greater_equal(batch.column("doc_b"), 0))
        hit = batch.filter(m)
        return pa.table({id_column: hit.column("doc_b"),
                         "__hit": pa.array(
                             np.ones(hit.num_rows, dtype=np.int8))})

    # Materialize the hit-id table (id + int8 only — object-store blocks,
    # never driver memory): a zero-hit run otherwise yields a schema-less
    # empty dataset that the left join cannot type, and the join would
    # re-execute the whole SSJoin for its schema probe anyway.
    hits = distinct_rows(
        pairs.map_batches(cross_hits, batch_format="pyarrow",
                          batch_size=batch_size)).materialize()

    if hits.count() == 0:
        def all_clean(batch: pa.Table) -> pa.Table:
            return pa.table({
                id_column: batch.column(id_column),
                "near_contaminated": pa.array(
                    np.zeros(batch.num_rows, dtype=bool)),
            })

        return corpus.select_columns([id_column]).map_batches(
            all_clean, batch_format="pyarrow", batch_size=batch_size)

    joined = hash_join(corpus.select_columns([id_column]), hits,
                       key=id_column, how="left")

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table({
            id_column: batch.column(id_column),
            "near_contaminated": batch.column("__hit").is_valid(),
        })

    return joined.map_batches(finish, batch_format="pyarrow",
                              batch_size=batch_size)


# --------------------------------------------------------------------------
# PII detection / redaction (regex classes, RE2-safe in BOTH engines)
# --------------------------------------------------------------------------

#: PII regex classes — written to the RE2-COMPATIBLE subset (no lookarounds,
#: no backrefs) so the SAME pattern strings drive Python `re` here and
#: DuckDB's RE2 in the oracle; interpolated into both from this one place
#: so the two can never drift (same trick as the _LANG_PROFILES oracles).
PII_PATTERNS: dict[str, str] = {
    "email": r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}",
    "phone": r"\+?[0-9]{3}-[0-9]{3,4}-[0-9]{4}",
    "ipv4": r"[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}",
}
#: redaction order matters (email bodies contain dots/digits — redact them
#: before the ipv4 class scans) and is mirrored by the oracle's nested
#: regexp_replace
PII_ORDER = ("email", "phone", "ipv4")


class PiiRedact:
    """Counts each PII class on the ORIGINAL text, then redacts classes in
    PII_ORDER (replacement = '<CLASS>'). Regexes are compiled once per
    actor in ``__init__``; counting/replacing is pandas str.count/replace
    (C loop over rows)."""

    def __init__(self, column: str = "text", id_column: str = "doc_id"):
        self.column = column
        self.id_column = id_column
        self.compiled = {k: re.compile(v) for k, v in PII_PATTERNS.items()}

    def __call__(self, batch: pa.Table) -> pa.Table:
        s = batch.column(self.column).to_pandas().fillna("")
        cols: dict[str, Any] = {self.id_column: batch.column(self.id_column)}
        for name in PII_ORDER:
            cols[f"n_{name}"] = pa.array(
                s.str.count(self.compiled[name]).to_numpy(dtype=np.int64)
            )
        red = s
        for name in PII_ORDER:
            red = red.str.replace(self.compiled[name], f"<{name.upper()}>",
                                  regex=True)
        cols["redacted"] = pa.array(red.to_numpy(dtype=object),
                                    type=pa.string())
        return pa.table(cols)


def pii_redact(ds, column: str = "text", id_column: str = "doc_id",
               batch_size: int = 8192, **kw):
    return ds.map_batches(
        PiiRedact(column=column, id_column=id_column),
        batch_format="pyarrow", batch_size=batch_size, **kw,
    )


# --------------------------------------------------------------------------
# corpus document frequency (the IDF side of TF-IDF / vocabulary builder)
# --------------------------------------------------------------------------

def doc_frequency(ds, column: str = "text", batch_size: int = 8192):
    """Corpus-wide document frequency per token: how many documents
    contain each distinct \\w+ token at least once — the vocabulary / IDF
    builder of text featurization. Returns a Dataset of (token, df).

    Scale shape: per batch, ONE findall/explode + per-doc distinct
    (drop_duplicates) + a LOCAL token count — the map-side combine — so
    the only shuffle moves (distinct-tokens-per-batch) rows of
    (token, partial_df), never the corpus; the final groupby-sum runs over
    token-sized rows (stages/aggregates.grouped_sums)."""
    import pandas as pd

    from jsschema_ray.stages.aggregates import grouped_sums

    def partial(batch: pa.Table) -> pa.Table:
        s = batch.column(column).to_pandas().fillna("")
        s = s.reset_index(drop=True)
        toks = s.str.lower().str.findall(r"\w+")
        ex = toks.explode().dropna()
        if not len(ex):
            return pa.table(
                {"token": pa.array([], type=pa.string()),
                 "df_part": pa.array([], type=pa.int64())}
            )
        per_doc = pd.DataFrame({"d": ex.index, "t": ex.to_numpy()}) \
            .drop_duplicates()
        vc = per_doc["t"].value_counts()
        return pa.table(
            {"token": pa.array(vc.index.to_numpy(dtype=object),
                               type=pa.string()),
             "df_part": pa.array(vc.to_numpy(dtype=np.int64))}
        )

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           batch_size=batch_size)
    return grouped_sums(parts, ["token"], {"df": "df_part"},
                        count_alias=None)


def _term_frequencies(ds, id_column: str, column: str, batch_size: int):
    """(id_column, token, tf) rows: each document's lower-cased ``\\w+``
    tokens and their counts (docs never span Ray blocks)."""
    import pandas as pd

    def tf_rows(batch: pa.Table) -> pa.Table:
        s = batch.column(column).to_pandas().fillna("")
        s = s.reset_index(drop=True)
        ids = batch.column(id_column).to_numpy(zero_copy_only=False)
        toks = s.str.lower().str.findall(r"\w+")
        ex = toks.explode().dropna()
        if not len(ex):
            return pa.table(
                {id_column: pa.array([], pa.int64()),
                 "token": pa.array([], pa.string()),
                 "tf": pa.array([], pa.int64())})
        grp = pd.DataFrame({"d": ids[ex.index.to_numpy()],
                            "t": ex.to_numpy()})
        vc = grp.groupby(["d", "t"], sort=False).size().reset_index(
            name="tf")
        return pa.table(
            {id_column: pa.array(vc["d"].to_numpy(dtype=np.int64)),
             "token": pa.array(vc["t"].to_numpy(dtype=object),
                               type=pa.string()),
             "tf": pa.array(vc["tf"].to_numpy(dtype=np.int64))})

    return ds.select_columns([id_column, column]).map_batches(
        tf_rows, batch_format="pyarrow", batch_size=batch_size)


def tfidf_top_terms(ds, k: int = 5, column: str = "text",
                    id_column: str = "doc_id", batch_size: int = 8192,
                    n_docs: Optional[int] = None):
    """Top-``k`` most DISTINCTIVE terms per document — the TF-IDF feature
    extraction of text curation, composed from the engine's existing
    shapes: per-batch term frequencies (docs never span Ray blocks, so a
    within-batch count per (doc, token) is exact), the corpus-wide
    `doc_frequency` pass, a distributed hash join on token, and one
    hash(doc) co-partitioned top-k selection per document.

    Ranking is the integer-exact total order (tf DESC, df ASC, token
    ASC) — "most frequent, rarest first" — so results are bit-reproducible
    and SQL-mirrorable with ROW_NUMBER; the float ``tfidf`` column
    (tf * ln(N/df), the classic smoothing-free form) rides along for
    library users but never decides a rank.

    Scale shape: the token join moves (doc, token, tf) rows and the
    (token, df) vocabulary through one co-shuffle each — never document
    text; the final selection pre-trims map-side (local top-k per doc per
    batch is a superset of the global top-k).  Returns a Dataset of
    (doc_id, token, tf, df, tfidf).
    """
    import math

    import pandas as pd

    from jsschema_ray.stages.join import hash_join

    if n_docs is None:
        n_docs = ds.count()

    tf = _term_frequencies(ds, id_column, column, batch_size)
    df = doc_frequency(ds, column=column, batch_size=batch_size)
    joined = hash_join(tf, df, key="token", how="inner")

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([id_column, "tf", "df", "token"],
                          ascending=[True, False, True, True],
                          kind="stable")
        out = g.groupby(id_column, sort=False).head(k).copy()
        out["tfidf"] = out["tf"] * np.log(n_docs / out["df"])
        return out

    return by_key(joined, [id_column], topk, batch_format="pandas")


def chunk_documents(ds, column: str = "text", id_column: str = "doc_id",
                    chunk_words: int = 64, stride_words: int = 48,
                    batch_size: int = 4096,
                    max_chunks_per_doc: int = 1 << 20):
    """Overlapping word-window CHUNKING — split each document into chunks
    of ``chunk_words`` words starting every ``stride_words`` (the
    context-window preparation step between curation and sequence
    packing; chunk_words > stride_words gives the standard training
    overlap). Output one row per chunk: (id_column, chunk_id, chunk_text
    = the chunk's words joined with single spaces). Tokenization is
    ``\\S+`` on the ORIGINAL text (no case folding — chunks are training
    payload), so a SQL mirror via regexp_extract_all + list slicing is
    byte-exact; original inter-word whitespace is normalized to one
    space (documented: chunks are word sequences, not substrings).
    Zero-word documents produce no chunks.

    Scale shape: the hopping-window explode + ordered STRING_AGG
    composition — each batch explodes to (composite chunk key, word,
    pos) rows with at most ceil(chunk/stride) memberships per word
    (vectorized candidate emission + mask, no per-doc loop), and
    :func:`jsschema_ray.stages.aggregates.grouped_string_agg` does the
    ONE hash(chunk-key) shuffle with a C-backed join per chunk.
    Contract: ``id_column`` non-negative int64 with
    id * max_chunks_per_doc + chunks < 2^63 (guarded loudly), one
    chunk's words fit a worker (same as session_windows)."""
    import pandas as pd

    from jsschema_ray.stages.aggregates import grouped_string_agg

    if chunk_words < 1 or stride_words < 1:
        raise ValueError("chunk_words and stride_words must be >= 1")
    m = -(-chunk_words // stride_words)  # memberships per word, bounded
    maxc = max_chunks_per_doc

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_column).combine_chunks().cast(
            pa.int64()).to_numpy(zero_copy_only=False)
        if len(ids) and (ids.min() < 0
                         or ids.max() >= (1 << 62) // maxc):
            raise ValueError(
                f"chunk_documents needs {id_column} in "
                f"[0, 2^62/{maxc}) for the composite chunk key")
        toks = pd.Series(
            batch.column(column).to_pandas()).fillna("").str.findall(
            r"\S+")
        counts = toks.str.len().fillna(0).to_numpy(dtype=np.int64)
        words = toks.explode().dropna().to_numpy(dtype=object)
        if not len(words):
            return pa.table({
                "__ck": pa.array([], pa.int64()),
                "word": pa.array([], pa.string()),
                "pos": pa.array([], pa.int64()),
            })
        starts = np.concatenate([[0], np.cumsum(counts)])[:-1]
        pos = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(
            starts, counts)
        doc_rep = np.repeat(ids, counts)
        if (counts.max() - 1) // stride_words + 1 > maxc:
            raise ValueError(
                f"a document exceeds max_chunks_per_doc={maxc}; raise it "
                "or enlarge stride_words")
        kmax = pos // stride_words
        outs_ck, outs_w, outs_p = [], [], []
        for j in range(m):
            k = kmax - j
            ok = (k >= 0) & (pos < k * stride_words + chunk_words)
            if not ok.any():
                continue
            outs_ck.append(doc_rep[ok] * maxc + k[ok])
            outs_w.append(words[ok])
            outs_p.append(pos[ok])
        return pa.table({
            "__ck": pa.array(np.concatenate(outs_ck)),
            "word": pa.array(np.concatenate(outs_w), pa.string()),
            "pos": pa.array(np.concatenate(outs_p)),
        })

    exploded = ds.select_columns([id_column, column]).map_batches(
        explode, batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True)
    agg = grouped_string_agg(exploded, key="__ck", col="word",
                             order_cols=["pos"], sep=" ",
                             out_name="chunk_text")

    def finish(batch: pa.Table) -> pa.Table:
        ck = batch.column("__ck").to_numpy(zero_copy_only=False)
        return pa.table({
            id_column: pa.array(ck // maxc),
            "chunk_id": pa.array(ck % maxc),
            "chunk_text": batch.column("chunk_text"),
        })

    return agg.map_batches(finish, batch_format="pyarrow",
                           zero_copy_batch=True)


def top_bigrams(ds, column: str = "text", k: int = 40,
                batch_size: int = 8192):
    """Corpus-wide top-``k`` adjacent token pairs — the n-gram statistic
    between token counts (unigrams) and the contamination k-grams: per
    document, bigrams are adjacent pairs of the SAME lowercased \\w+
    token stream every text op shares with its SQL mirror; ranked by
    the integer-exact total order (count DESC, bigram ASC) so the
    result is bit-reproducible. Returns (bigram, n).

    Scale shape: per batch ONE findall/explode, adjacency by comparing
    the exploded doc-index array against its shift (no per-doc loop),
    and a LOCAL value_counts partial — the map-side combine — so the
    only shuffle moves (distinct-bigrams-per-batch) count rows through
    grouped_sums; the final cut is the sort-free top_k_rows gather
    (k result rows per batch cross the wire, never the corpus)."""
    import pandas as pd

    from jsschema_ray.stages.aggregates import grouped_sums
    from jsschema_ray.stages.stats import top_k_rows

    def partial(batch: pa.Table) -> pa.Table:
        s = batch.column(column).to_pandas().fillna("")
        s = s.reset_index(drop=True)
        ex = s.str.lower().str.findall(r"\w+").explode().dropna()
        if len(ex) < 2:
            return pa.table({"bigram": pa.array([], pa.string()),
                             "n_part": pa.array([], pa.int64())})
        idx = ex.index.to_numpy()
        tok = ex.to_numpy(dtype=object)
        adj = idx[:-1] == idx[1:]
        bg = tok[:-1][adj] + " " + tok[1:][adj]
        if not len(bg):
            return pa.table({"bigram": pa.array([], pa.string()),
                             "n_part": pa.array([], pa.int64())})
        vc = pd.Series(bg).value_counts()
        return pa.table({
            "bigram": pa.array(vc.index.to_numpy(dtype=object),
                               pa.string()),
            "n_part": pa.array(vc.to_numpy(dtype=np.int64)),
        })

    counts = grouped_sums(
        ds.select_columns([column]).map_batches(
            partial, batch_format="pyarrow", batch_size=batch_size),
        ["bigram"], {"n": "n_part"}, count_alias=None)
    return top_k_rows(counts, value="n", tiebreak="bigram", k=k,
                      descending=True)


def token_freq_score(ds, column: str = "text", id_column: str = "doc_id",
                     batch_size: int = 8192):
    """Per-document mean corpus term frequency — the integer-exact
    zeroth-order analogue of a unigram-LM quality score (CCNet-style
    curation ranks documents by language-model likelihood, arXiv:
    1911.00359; the mean corpus count of a document's token occurrences
    carries the same rare-token signal WITHOUT the log-domain float
    whose libm bit-parity a SQL mirror cannot guarantee):

        ctf(token)    = corpus occurrences of token       (exact int64)
        sum_ctf(doc)  = sum over the doc's token POSITIONS of ctf
        n_tokens(doc) = doc token count                   (exact int64)
        freq_score    = f(sum_ctf) / f(n_tokens)   (ONE spelled division)

    Rare-token-heavy documents score LOW (candidates for the quality
    gate). Tokens are the shared lowercased ``\\w+`` stream of the other
    text statistics. Documents with zero tokens are EXCLUDED (the SQL
    mirror's join produces no row for them). Both division operands are
    the SAME exact int64 in both engines, so the per-doc float column
    hashes against DuckDB without tolerance.

    Scale shape: document text never shuffles — per-batch (doc, token,
    tf) map-side combine (the tf_idf scan), one grouped_sums over token
    for the O(vocab) ctf table, ONE partitioned hash_join back on token
    (vocabulary is never broadcast), then per-doc grouped_sums of
    (tf*ctf, tf). An int64 float-shadow wrap check guards the tf*ctf
    products (a 10^13-token corpus with a 10^6-repetition doc could
    overflow; the guard raises instead of silently diverging from a
    HUGEINT-promoting oracle)."""
    from jsschema_ray.stages.aggregates import grouped_sums
    from jsschema_ray.stages.join import hash_join

    tf = _term_frequencies(ds, id_column, column, batch_size)
    ctf = grouped_sums(tf, ["token"], {"ctf": "tf"}, count_alias=None)
    joined = hash_join(tf, ctf, key="token", how="inner")

    def prods(batch: pa.Table) -> pa.Table:
        t = batch.column("tf").to_numpy(zero_copy_only=False)
        c = batch.column("ctf").to_numpy(zero_copy_only=False)
        p = t * c
        return pa.table({
            id_column: batch.column(id_column),
            "sum_ctf": pa.array(p),
            "fsum_ctf": pa.array(p.astype(np.float64)),
            "n_tokens": pa.array(t),
        })

    merged = grouped_sums(
        joined.map_batches(prods, batch_format="pyarrow",
                           batch_size=batch_size, zero_copy_batch=True),
        [id_column],
        {c: c for c in ("sum_ctf", "fsum_ctf", "n_tokens")},
        count_alias=None)

    def finish(batch: pa.Table) -> pa.Table:
        s = batch.column("sum_ctf").to_numpy(
            zero_copy_only=False).astype(np.float64)
        fs = batch.column("fsum_ctf").to_numpy(zero_copy_only=False)
        if len(s) and np.abs(s - fs).max() > float(1 << 62):
            raise ValueError(
                "token_freq_score: int64 sum of tf*ctf wrapped "
                "(exceeds 2^63) — corpus too large for int64 products")
        n = batch.column("n_tokens").to_numpy(
            zero_copy_only=False).astype(np.float64)
        return pa.table({
            id_column: batch.column(id_column),
            "n_tokens": batch.column("n_tokens"),
            "sum_ctf": batch.column("sum_ctf"),
            "freq_score": pa.array(s / n, pa.float64()),
        })

    return merged.map_batches(finish, batch_format="pyarrow",
                              zero_copy_batch=True)


def vocab_overlap(ds, key_column: str = "source",
                  text_column: str = "text", batch_size: int = 8192):
    """Pairwise vocabulary Jaccard between corpus slices: for every pair
    (a < b) of ``key_column`` values (sources/domains/splits), the
    Jaccard similarity of their DISTINCT token vocabularies — the
    slice-overlap / cross-source-contamination diagnostic of corpus
    curation. Tokens are the shared lowercased ``\\w+`` stream of the
    other text statistics. Returns (source_a, source_b, n_common,
    jaccard): n_common = |A ∩ B| exact int64, jaccard = ONE spelled
    division f(n_common) / f(n_a + n_b − n_common) whose operands are
    the same exact integers in a SQL mirror, so the float column hashes
    without tolerance. NULL keys drop.

    Scale shape — document text never shuffles: per batch ONE
    findall/explode + drop_duplicates collapses to DISTINCT (key,
    token) rows, |A ∩ B| comes from :func:`cooccurrence_counts` over
    key=token/items=key (items-per-token is bounded by the number of
    SLICES, so the quadratic expansion is tiny by construction),
    per-slice vocabulary sizes from :func:`grouped_count_distinct`, and
    the O(slices²) pair report broadcast-joins the O(slices) size table.

    No reference analogue (single-value validator); the set-similarity
    member of the corpus-composition family (SURVEY §2.D)."""
    import pandas as pd

    from jsschema_ray.stages.aggregates import (cooccurrence_counts,
                                                grouped_count_distinct)
    from jsschema_ray.stages.join import broadcast_join

    def rows(batch: pa.Table) -> pa.Table:
        s = batch.column(text_column).to_pandas().fillna("")
        s = s.reset_index(drop=True)
        keys = batch.column(key_column).to_pandas().reset_index(drop=True)
        toks = s.str.lower().str.findall(r"\w+")
        ex = toks.explode().dropna()
        empty = pa.table({key_column: batch.column(key_column).slice(0, 0),
                          "token": pa.array([], pa.string())})
        if not len(ex):
            return empty
        df = pd.DataFrame({key_column: keys.iloc[ex.index].to_numpy(),
                           "token": ex.to_numpy()})
        df = df[df[key_column].notna()].drop_duplicates()
        if not len(df):
            return empty
        t = pa.Table.from_pandas(df, preserve_index=False)
        return t.replace_schema_metadata(None).cast(empty.schema)

    exploded = ds.select_columns([key_column, text_column]).map_batches(
        rows, batch_format="pyarrow", batch_size=batch_size)
    pairs = cooccurrence_counts(exploded, "token", key_column,
                                out_a="source_a", out_b="source_b",
                                count_alias="n_common")
    sizes = grouped_count_distinct(exploded, key_column, "token")

    def renamed(suffix: str):
        def rn(b: pa.Table) -> pa.Table:
            return b.rename_columns([f"source_{suffix}",
                                     f"n_{suffix}"])
        return sizes.map_batches(rn, batch_format="pyarrow",
                                 zero_copy_batch=True)

    j = broadcast_join(pairs, renamed("a"), key="source_a", how="inner")
    j = broadcast_join(j, renamed("b"), key="source_b", how="inner")

    def finish(batch: pa.Table) -> pa.Table:
        nc = batch.column("n_common").to_numpy(zero_copy_only=False)
        na = batch.column("n_a").to_numpy(zero_copy_only=False)
        nb = batch.column("n_b").to_numpy(zero_copy_only=False)
        # union >= n_common >= 1 for every emitted pair (a pair exists
        # only when a common token exists), so the division is safe
        jac = nc.astype(np.float64) / (na + nb - nc).astype(np.float64)
        return pa.table({"source_a": batch.column("source_a"),
                         "source_b": batch.column("source_b"),
                         "n_common": batch.column("n_common"),
                         "jaccard": pa.array(jac, pa.float64())})

    return j.map_batches(finish, batch_format="pyarrow",
                         zero_copy_batch=True)


def normalize_text(ds, column: str = "text", id_column: str = "doc_id",
                   out_column: str = "norm_text", batch_size: int = 8192):
    """Canonical text normalization for dedup / fingerprint keys — the
    standard first preprocessing pass of a training-data pipeline:
    lowercase, collapse explicit-ASCII whitespace runs ([ \\t\\n\\r\\f\\v]+)
    to one space, trim leading/trailing spaces. Returns (id_column,
    out_column, norm_len, n_collapsed) where n_collapsed =
    length(text) − length(norm) counts removed characters.

    Parity-by-construction with a SQL
    ``trim(regexp_replace(lower(text), '[ \\t\\n\\r\\f\\v]+', ' ', 'g'))``
    mirror: the whitespace class is spelled EXPLICITLY (RE2's \\s and
    Python's unicode \\s disagree), both engines run RE2, both lowercase
    via unicode case folding (identical on ASCII; parity on non-ASCII is
    asserted by the oracle at test time, not assumed). NULL text
    propagates NULL through every output (SQL function semantics).

    Scale shape: pure row-local Arrow C kernels (utf8_lower →
    replace_substring_regex → utf8_trim) — no pandas round-trip, no
    Python loop, no shuffle. No reference analogue (single-value
    validator); the normalize step feeding exact_dedup/fingerprint."""
    import pyarrow.compute as pc

    ws = "[ \t\n\r\f\v]+"

    def fn(batch: pa.Table) -> pa.Table:
        txt = batch.column(column)
        norm = pc.utf8_trim(
            pc.replace_substring_regex(pc.utf8_lower(txt), ws,
                                       replacement=" "),
            " ")
        return pa.table({
            id_column: batch.column(id_column),
            out_column: norm,
            "norm_len": pc.utf8_length(norm).cast(pa.int64()),
            "n_collapsed": pc.subtract(
                pc.utf8_length(txt).cast(pa.int64()),
                pc.utf8_length(norm).cast(pa.int64())),
        })

    return ds.map_batches(fn, batch_format="pyarrow",
                          batch_size=batch_size, zero_copy_batch=True)

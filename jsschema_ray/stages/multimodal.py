"""Multimodal (image payload) stages: decode check, feature extraction,
resize — actor-pool `map_batches` over the opaque ``bytes`` binary column
with typed metadata columns (BASELINE input_hint; driver instruction:
image libs are absent from this container, so the LOSSY codecs are
STUBBED while the Ray-side plumbing — schema, batch sizing, actor
signature, output layout — is real and tested).

Codec support matrix:
  * png  — REAL: pure-Python codec (sources/png.py); the decode invariant
    is pixel-level: the payload decodes with every chunk CRC, the zlib
    Adler-32 and the IEND terminator intact. PNG is lossless, so decoded
    pixels ARE the encoded pixels (PSNR = inf ≥ 40 dB) and roundtrip_ok
    equals decode_ok; no re-encode is needed, and a PNG from another
    encoder (other zlib level, ancillary chunks, split IDAT) passes;
  * jpeg/webp — STUB: `on_unsupported` picks "skip" (decode_ok=null) or
    "fail"; a deterministic-fake mode ("fake") decodes to a seeded noise
    image so downstream feature plumbing can be driven in tests.

Batch sizing: payload rows are wide — callers should use a SMALL
batch_size (default 1024) so batch × concurrency fits the worker heap;
`num_cpus=1` per actor, CPU-bound decode.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from jsschema_ray.sources.png import decode_png, encode_png


def _payloads(batch: pa.Table, column: str, fmt_column: str):
    """The payloads of ``batch`` and their formats (all None without a
    format column)."""
    payloads = batch.column(column).to_pylist()
    return payloads, (batch.column(fmt_column).to_pylist()
                      if fmt_column in batch.column_names
                      else [None] * len(payloads))


class DecodeImages:
    """Appends decode_ok(bool), roundtrip_ok(bool), dec_w, dec_h (int32).

    PNG: decode_ok means ``decode_png`` accepted the payload (CRCs,
    Adler-32 and IEND checked); roundtrip_ok equals decode_ok, since a
    lossless decode reproduces the encoded pixels exactly. Lossy codecs:
    roundtrip_ok means decode -> re-encode -> decode keeps PSNR >=
    ``min_psnr_db``.

    null payload -> decode_ok = False (payload presence is enforced HERE,
    not in the row-local stage, which never reads bytes — see
    pipelines/validate_pipeline._schema_for_rowlocal)."""

    def __init__(self, column: str = "bytes", fmt_column: str = "fmt",
                 on_unsupported: str = "skip", min_psnr_db: float = 40.0):
        assert on_unsupported in ("skip", "fail", "fake")
        self.column = column
        self.fmt_column = fmt_column
        self.on_unsupported = on_unsupported
        self.min_psnr_db = min_psnr_db
        # gate, not a hard dependency: wherever PIL exists the lossy-codec
        # invariant becomes REAL (decode + re-encode/decode PSNR >= 40 dB,
        # BASELINE input_hint); in this container it is absent and the
        # documented stub path below applies (once per actor, __init__)
        try:
            from PIL import Image  # type: ignore

            self._pil = Image
        except ImportError:
            self._pil = None

    def _psnr(self, a: np.ndarray, b: np.ndarray) -> float:
        mse = float(np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2))
        if mse == 0.0:
            return float("inf")
        return 10.0 * np.log10(255.0 ** 2 / mse)

    def _decode_lossy_pil(self, payload: bytes, fmt: str):
        """Real lossy path (requires PIL): decode, re-encode at high
        quality, decode again; invariant = PSNR(dec, redec) >= min_psnr."""
        import io

        try:
            img = np.asarray(self._pil.open(io.BytesIO(payload)).convert("RGB"))
        except Exception:
            return False, False, None, None
        buf = io.BytesIO()
        self._pil.fromarray(img).save(buf, format="JPEG" if fmt == "jpeg"
                                      else "WEBP", quality=92)
        buf.seek(0)
        redec = np.asarray(self._pil.open(buf).convert("RGB"))
        ok_rt = self._psnr(img, redec) >= self.min_psnr_db
        return True, ok_rt, img.shape[1], img.shape[0]

    def _decode_one(self, payload: Optional[bytes], fmt: Optional[str]):
        """-> (decode_ok, roundtrip_ok, w, h) with None for not-applicable."""
        if payload is None:
            return False, False, None, None
        if fmt == "png" or (fmt is None and payload[:4] == b"\x89PNG"):
            try:
                img = decode_png(payload)
            except ValueError:
                return False, False, None, None
            return True, True, img.shape[1], img.shape[0]
        if self._pil is not None and fmt in ("jpeg", "webp"):
            return self._decode_lossy_pil(payload, fmt)
        # lossy codecs: stubbed (no image libs in this container)
        if self.on_unsupported == "fail":
            return False, False, None, None
        if self.on_unsupported == "fake":
            rng = np.random.default_rng(len(payload))
            img = rng.integers(0, 256, size=(8, 8, 3)).astype(np.uint8)
            return True, True, 8, 8
        return None, None, None, None  # skip

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads, fmts = _payloads(batch, self.column, self.fmt_column)
        oks, rts, ws, hs = [], [], [], []
        for p, f in zip(payloads, fmts):
            ok, rt, w, h = self._decode_one(p, f)
            oks.append(ok)
            rts.append(rt)
            ws.append(w)
            hs.append(h)
        return (
            batch.append_column("decode_ok", pa.array(oks, type=pa.bool_()))
            .append_column("roundtrip_ok", pa.array(rts, type=pa.bool_()))
            .append_column("dec_w", pa.array(ws, type=pa.int32()))
            .append_column("dec_h", pa.array(hs, type=pa.int32()))
        )


class ImageFeatures:
    """Per-image channel statistics (mean/std RGB) — the feature-extract
    plumbing pattern; real for PNG, null for stubbed codecs."""

    def __init__(self, column: str = "bytes", fmt_column: str = "fmt"):
        self.column = column
        self.fmt_column = fmt_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads, fmts = _payloads(batch, self.column, self.fmt_column)
        means, stds = [], []
        for p, f in zip(payloads, fmts):
            if p is not None and (f == "png" or (f is None and p[:4] == b"\x89PNG")):
                try:
                    img = decode_png(p).astype(np.float32)
                    means.append([float(x) for x in img.mean(axis=(0, 1))])
                    stds.append([float(x) for x in img.std(axis=(0, 1))])
                    continue
                except ValueError:
                    pass
            means.append(None)
            stds.append(None)
        f32l = pa.list_(pa.float32(), 3)
        return batch.append_column(
            "rgb_mean", pa.array(means, type=f32l)
        ).append_column("rgb_std", pa.array(stds, type=f32l))


class ResizeImages:
    """Nearest-neighbor resize to (size × size), re-encoded as PNG — real
    for PNG payloads (pure numpy indexing), null for stubbed codecs."""

    def __init__(self, size: int, column: str = "bytes",
                 fmt_column: str = "fmt", out_column: str = "bytes_resized"):
        self.size = size
        self.column = column
        self.fmt_column = fmt_column
        self.out_column = out_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column(self.column).to_pylist()
        out = []
        for p in payloads:
            if p is not None and p[:4] == b"\x89PNG":
                try:
                    img = decode_png(p)
                    h, w = img.shape[:2]
                    yi = (np.arange(self.size) * h // self.size)
                    xi = (np.arange(self.size) * w // self.size)
                    out.append(encode_png(img[yi][:, xi]))
                    continue
                except ValueError:
                    pass
            out.append(None)
        return batch.append_column(self.out_column, pa.array(out, type=pa.binary()))


class _DecodeCheck(DecodeImages):
    """The decode invariant as (key, reason) rows: one per payload that
    fails to decode or to round-trip."""

    def __init__(self, key_column: str = "image_id", column: str = "bytes",
                 fmt_column: str = "fmt", min_psnr_db: float = 40.0):
        super().__init__(column, fmt_column, on_unsupported="skip",
                         min_psnr_db=min_psnr_db)
        self.key_column = key_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        dec = super().__call__(batch)
        # Arrow-native mask filters (no Python row walk): decode_ok is
        # null for skipped/unsupported payloads, so equality + fill_null
        # reproduces the tri-state (False -> decode_failed; True with
        # roundtrip False -> roundtrip_mismatch; null -> no row). Keys
        # are unique per image, so emitting the two reason groups
        # back-to-back instead of interleaved is order-equivalent under
        # the downstream sort.
        ok = dec.column("decode_ok")
        rt = dec.column("roundtrip_ok")
        keys = batch.column(self.key_column).cast(pa.string())
        failed = pc.fill_null(pc.equal(ok, False), False)
        mismatch = pc.fill_null(
            pc.and_kleene(pc.equal(ok, True), pc.equal(rt, False)), False
        )
        parts = []
        for mask, reason in ((failed, "decode_failed"),
                             (mismatch, "roundtrip_mismatch")):
            k = keys.filter(mask)
            parts.append(pa.table({
                "key": k.cast(pa.string()),
                "reason": pa.array([reason] * len(k), type=pa.string()),
            }))
        return pa.concat_tables(parts)


def decode_violations(ds, key_column: str = "image_id",
                      column: str = "bytes", fmt_column: str = "fmt",
                      batch_size: int = 1024, concurrency: Any = None,
                      min_psnr_db: float = 40.0):
    """Rows failing the decode invariant (decode error, round-trip
    mismatch, or missing payload) as (key, reason); ``min_psnr_db`` is the
    lossy-codec round-trip floor (DecodeImages). Stateless tasks by
    default (no per-actor state to amortize, and tasks scale elastically to
    every core — an actor pool here caps the CPU-heavy decode at pool
    size); small batches keep payload memory bounded."""
    check = dict(key_column=key_column, column=column, fmt_column=fmt_column,
                 min_psnr_db=min_psnr_db)
    kwargs: dict = dict(batch_format="pyarrow", batch_size=batch_size,
                        num_cpus=1)
    if concurrency is not None:
        return ds.map_batches(_DecodeCheck, fn_constructor_kwargs=check,
                              concurrency=concurrency, **kwargs)
    return ds.map_batches(_DecodeCheck(**check), **kwargs)


class FrameSample:
    """Video frame sampling over an opaque ``binary`` column with typed
    metadata (video_id, bytes, n_frames, fps) — the driver-mandated
    frame-sample stage. The SAMPLING layout is real and vectorized: given a
    policy ('uniform_k' -> k evenly spaced frames incl. first/last;
    'every_s' -> one frame per ``every_s`` seconds via fps), frame indices
    are computed batch-wide and the stage EXPLODES to one output row per
    sampled frame: (video_id, frame_idx, frame_ts_s, frame_bytes).

    The frame DECODE is stubbed (no video codecs in this container — same
    policy as lossy image codecs): ``on_decode='fake'`` (default) emits a
    deterministic per-(payload, frame) pseudo-frame so downstream plumbing
    is exercised end-to-end; ``on_decode='fail'`` raises NotImplementedError
    at the decode call site, marking exactly what a real deployment plugs a
    codec into. Stateless tasks, small batches (payloads are wide)."""

    def __init__(self, policy: str = "uniform_k", k: int = 4,
                 every_s: float = 1.0, column: str = "bytes",
                 key_column: str = "video_id", on_decode: str = "fake"):
        if policy not in ("uniform_k", "every_s"):
            raise ValueError(f"unknown policy {policy!r}")
        if on_decode not in ("fake", "fail"):
            raise ValueError(f"unknown on_decode {on_decode!r}")
        self.policy = policy
        self.k = k
        self.every_s = every_s
        self.column = column
        self.key_column = key_column
        self.on_decode = on_decode

    def _indices(self, n_frames: int, fps: float) -> np.ndarray:
        if n_frames <= 0:
            return np.empty(0, dtype=np.int64)
        if self.policy == "uniform_k":
            k = min(self.k, n_frames)
            # k evenly spaced indices including endpoints (k=1 -> frame 0)
            return np.unique(
                np.round(np.linspace(0, n_frames - 1, k)).astype(np.int64)
            )
        step = max(int(round(self.every_s * max(fps, 1e-9))), 1)
        return np.arange(0, n_frames, step, dtype=np.int64)

    def _decode_frame(self, payload: bytes, idx: int) -> bytes:
        if self.on_decode == "fail":
            raise NotImplementedError(
                "video frame decode requires a codec library not present "
                "in this container; plug a real decoder here"
            )
        # deterministic fake: seeded by (payload content length, index) —
        # stable across runs/layouts, distinct per frame
        rng = np.random.default_rng(
            np.random.SeedSequence([len(payload), idx])
        )
        return rng.integers(0, 256, size=64, dtype=np.uint8).tobytes()

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys = batch.column(self.key_column).to_pylist()
        payloads = batch.column(self.column).to_pylist()
        n_frames = batch.column("n_frames").to_numpy(zero_copy_only=False)
        fps = batch.column("fps").to_numpy(zero_copy_only=False)
        out_key, out_idx, out_ts, out_bytes = [], [], [], []
        for i, (key, payload) in enumerate(zip(keys, payloads)):
            if payload is None:
                continue
            idxs = self._indices(int(n_frames[i]), float(fps[i]))
            for j in idxs:
                out_key.append(key)
                out_idx.append(int(j))
                out_ts.append(float(j / max(fps[i], 1e-9)))
                out_bytes.append(self._decode_frame(payload, int(j)))
        return pa.table({
            self.key_column: pa.array(out_key),
            "frame_idx": pa.array(out_idx, type=pa.int64()),
            "frame_ts_s": pa.array(out_ts, type=pa.float64()),
            "frame_bytes": pa.array(out_bytes, type=pa.binary()),
        })


class AudioFeatures:
    """Audio feature extraction over an opaque ``binary`` column with typed
    metadata (audio_id, bytes, sr) — appended columns: duration_s, rms,
    zero_cross_rate, clip_frac. The PCM DECODE is stubbed (``on_decode=
    'fake'`` synthesizes deterministic int16 PCM seeded by the payload;
    'fail' raises NotImplementedError at the decode call site); the feature
    kernels over the decoded samples are REAL and vectorized numpy."""

    def __init__(self, column: str = "bytes", key_column: str = "audio_id",
                 on_decode: str = "fake"):
        if on_decode not in ("fake", "fail"):
            raise ValueError(f"unknown on_decode {on_decode!r}")
        self.column = column
        self.key_column = key_column
        self.on_decode = on_decode

    def _decode_pcm(self, payload: bytes, sr: int) -> np.ndarray:
        if self.on_decode == "fail":
            raise NotImplementedError(
                "audio decode requires a codec library not present in this "
                "container; plug a real decoder here"
            )
        rng = np.random.default_rng(np.random.SeedSequence([len(payload)]))
        n = max(int(sr * (0.5 + (len(payload) % 97) / 97.0)), 1)
        return (rng.normal(0, 4000, size=n)).clip(-32768, 32767).astype(
            np.int16
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column(self.column).to_pylist()
        srs = batch.column("sr").to_numpy(zero_copy_only=False)
        dur, rms, zcr, clip = [], [], [], []
        for payload, sr in zip(payloads, srs):
            if payload is None:
                dur.append(None); rms.append(None)
                zcr.append(None); clip.append(None)
                continue
            pcm = self._decode_pcm(payload, int(sr)).astype(np.float64)
            dur.append(len(pcm) / max(int(sr), 1))
            rms.append(float(np.sqrt(np.mean(pcm ** 2))))
            s = np.sign(pcm)
            zcr.append(float(np.mean(s[1:] != s[:-1])) if len(pcm) > 1
                       else 0.0)
            clip.append(float(np.mean(np.abs(pcm) >= 32767)))
        return (
            batch.drop_columns([self.column])
            .append_column("duration_s", pa.array(dur, type=pa.float64()))
            .append_column("rms", pa.array(rms, type=pa.float64()))
            .append_column("zero_cross_rate",
                           pa.array(zcr, type=pa.float64()))
            .append_column("clip_frac", pa.array(clip, type=pa.float64()))
        )


def frame_sample(ds, policy: str = "uniform_k", k: int = 4,
                 every_s: float = 1.0, batch_size: int = 256, **kw):
    """FrameSample as a stage: small batches (wide payloads), stateless
    tasks at full machine width."""
    return ds.map_batches(
        FrameSample(policy=policy, k=k, every_s=every_s),
        batch_format="pyarrow", batch_size=batch_size, num_cpus=1, **kw,
    )


def audio_features(ds, batch_size: int = 256, **kw):
    return ds.map_batches(
        AudioFeatures(), batch_format="pyarrow", batch_size=batch_size,
        num_cpus=1, **kw,
    )


def resize_plan(ds, w_col: str = "w", h_col: str = "h",
                max_side: int = 256, batch_size: int = 65536):
    """Aspect-preserving resize PLAN from metadata only — the integer-
    exact (tw, th) targets the decode/resize actors execute: images whose
    longest side already fits keep their dims; otherwise the long side
    becomes ``max_side`` and the short side scales proportionally with
    round-half-up integer arithmetic

        t = (2 * s * max_side + m) // (2 * m)        (m = max(w, h))

    — no float in the pipeline, so a SQL mirror is bit-equal (planning
    is the metadata half of the multimodal resize stage; the pixel work
    stays in ResizeImages). Appends (target_w, target_h) int64; NULL or
    non-positive dims yield NULL targets."""
    import pyarrow.compute as pc

    def plan(batch: pa.Table) -> pa.Table:
        w = batch.column(w_col).combine_chunks().cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        h = batch.column(h_col).combine_chunks().cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        valid = (batch.column(w_col).combine_chunks().is_valid()
                 .to_numpy(zero_copy_only=False)
                 & batch.column(h_col).combine_chunks().is_valid()
                 .to_numpy(zero_copy_only=False))
        w = np.where(valid, w, 1)
        h = np.where(valid, h, 1)
        good = valid & (w > 0) & (h > 0)
        m = np.maximum(w, h)
        small = m <= max_side
        tw = np.where(small, w, (2 * w * max_side + m) // (2 * m))
        th = np.where(small, h, (2 * h * max_side + m) // (2 * m))
        out = batch
        for name, vals in (("target_w", tw), ("target_h", th)):
            arr = pa.array(vals.astype(np.int64), pa.int64())
            arr = pc.if_else(pa.array(good), arr, pa.nulls(len(w),
                                                           pa.int64()))
            out = out.append_column(name, arr)
        return out

    return ds.map_batches(plan, batch_format="pyarrow",
                          batch_size=batch_size, zero_copy_batch=True)


#: SDXL-style aspect buckets (public recipe: a fixed pixel-budget ladder
#: of (w, h) pairs; NovelAI/SDXL aspect-ratio bucketing, arXiv:2307.01952
#: appendix I) — the default bucket universe for aspect_bucket_stats.
ASPECT_BUCKETS_1024 = (
    (1024, 1024), (1152, 896), (896, 1152), (1216, 832), (832, 1216),
    (1344, 768), (768, 1344), (1536, 640), (640, 1536),
)


def _bucket_arrays(buckets):
    """Validate a bucket list into (bw, bh, ratios) int64/float64 arrays
    — shared by aspect_bucket_stats and letterbox_plan so both ops use
    the identical bucket universe contract."""
    bw = np.asarray([b[0] for b in buckets], dtype=np.int64)
    bh = np.asarray([b[1] for b in buckets], dtype=np.int64)
    if len(bw) == 0 or (bw <= 0).any() or (bh <= 0).any():
        raise ValueError("buckets must be non-empty with positive dims")
    return bw, bh, bw.astype(np.float64) / bh.astype(np.float64)


def _valid_dims_and_bucket(batch, w_col, h_col, ratios):
    """The ONE nearest-bucket assignment both oracles mirror: validity
    mask (non-NULL, positive dims), exact int64 dims, and the
    (rows x K) IEEE-distance argmin whose FIRST minimum implements the
    lower-bucket-index tiebreak. Returns (good_mask, w, h, bidx) with
    w/h/bidx already filtered to valid rows — extracted so a future
    change to the assignment rule cannot diverge between the roll-up
    and the per-image plan (review finding)."""
    wc = batch.column(w_col).combine_chunks()
    hc = batch.column(h_col).combine_chunks()
    w = wc.cast(pa.int64()).to_numpy(zero_copy_only=False)
    h = hc.cast(pa.int64()).to_numpy(zero_copy_only=False)
    good = (wc.is_valid().to_numpy(zero_copy_only=False)
            & hc.is_valid().to_numpy(zero_copy_only=False))
    w = np.where(good, w, 1)
    h = np.where(good, h, 1)
    good &= (w > 0) & (h > 0)
    w, h = w[good], h[good]
    ar = w.astype(np.float64) / h.astype(np.float64)
    bidx = np.argmin(np.abs(ar[:, None] - ratios[None, :]), axis=1)
    return good, w, h, bidx


def aspect_bucket_stats(ds, buckets=ASPECT_BUCKETS_1024, w_col: str = "w",
                        h_col: str = "h", batch_size: int = 65536):
    """Aspect-ratio bucketing — the training-batch collation op every
    large image-corpus pipeline runs (group images by nearest canonical
    aspect ratio so a batch shares one target shape; the metadata half —
    the pixel resize stays in ResizeImages, reference analogue: the
    per-field numeric checks of /root/reference/schema.go applied to a
    corpus-level layout decision). Each row with positive non-NULL dims
    is assigned to the bucket minimizing

        dist = abs(f(w)/f(h) - f(bw)/f(bh))     (f = exact int->float64)

    with ties broken by LOWER bucket index; NULL / non-positive dims are
    excluded. Returns the per-bucket roll-up (bucket_id, bucket_w,
    bucket_h, n_images, sum_pixels) with exact int64 pixel sums, empty
    buckets absent (SQL GROUP BY presence semantics).

    Float-parity contract: every distance is plain IEEE divide /
    subtract / abs over exactly-representable ints — DuckDB computes the
    identical float64 bits, so `ROW_NUMBER() OVER (ORDER BY dist,
    bucket_id)` in the oracle picks the identical bucket as the numpy
    argmin (which also takes the first minimum).

    Scale shape: the bucket list is a tiny in-code constant (a schema,
    not data); per batch one (rows x K) vectorized distance argmin folds
    into K partial rows (np.bincount counts + np.add.at exact int64
    pixel sums), and the only shuffle moves those width-3 partials
    through grouped_sums."""
    from jsschema_ray.stages.aggregates import grouped_sums

    bw, bh, ratios = _bucket_arrays(buckets)
    k = len(ratios)

    def partial(batch: pa.Table) -> pa.Table:
        _, w, h, bidx = _valid_dims_and_bucket(batch, w_col, h_col,
                                               ratios)
        if not len(w):
            return pa.table({"bucket_id": pa.array([], pa.int64()),
                             "n_images": pa.array([], pa.int64()),
                             "sum_pixels": pa.array([], pa.int64())})
        counts = np.bincount(bidx, minlength=k)
        pixels = np.zeros(k, dtype=np.int64)
        np.add.at(pixels, bidx, w * h)
        nz = counts > 0
        return pa.table({
            "bucket_id": pa.array(np.nonzero(nz)[0].astype(np.int64)),
            "n_images": pa.array(counts[nz].astype(np.int64)),
            "sum_pixels": pa.array(pixels[nz]),
        })

    merged = grouped_sums(
        ds.select_columns([w_col, h_col]).map_batches(
            partial, batch_format="pyarrow", batch_size=batch_size,
            zero_copy_batch=True,
        ),
        ["bucket_id"],
        {"n_images": "n_images", "sum_pixels": "sum_pixels"},
        count_alias=None,
    )

    def widen(batch: pa.Table) -> pa.Table:
        ids = batch.column("bucket_id").to_numpy(zero_copy_only=False)
        return pa.table({
            "bucket_id": batch.column("bucket_id"),
            "bucket_w": pa.array(bw[ids]),
            "bucket_h": pa.array(bh[ids]),
            "n_images": batch.column("n_images"),
            "sum_pixels": batch.column("sum_pixels"),
        })

    return merged.map_batches(widen, batch_format="pyarrow",
                              zero_copy_batch=True)


def letterbox_plan(ds, buckets=ASPECT_BUCKETS_1024, id_col: str = "image_id",
                   w_col: str = "w", h_col: str = "h",
                   batch_size: int = 65536):
    """Aspect-bucket LETTERBOX plan — the per-image half of SDXL-style
    bucketed collation (the roll-up half is :func:`aspect_bucket_stats`):
    each row with positive non-NULL dims gets its nearest bucket (same
    IEEE-deterministic distance + lower-index tiebreak), then the
    integer-exact scale-to-FIT target preserving aspect ratio

        wider-than-bucket  (w*bh >= h*bw): tw = bw, th = (2*h*bw + w) // (2*w)
        taller-than-bucket (otherwise):    th = bh, tw = (2*w*bh + h) // (2*h)

    (round-half-up, the resize_plan formula — no float in the target
    math) and the residual padding pad_w = bw - tw, pad_h = bh - th.
    Output per image ROW: (id, w, h, bucket_id, target_w, target_h,
    pad_w, pad_h), all int64; invalid dims drop. A SQL mirror spelling
    the same CASE and integer formula is bit-equal.

    Scale shape: pure row-local map — one (rows x K) vectorized argmin
    per batch, zero shuffles; the pixel work stays in ResizeImages."""
    bw, bh, ratios = _bucket_arrays(buckets)

    def plan(batch: pa.Table) -> pa.Table:
        good, w, h, bidx = _valid_dims_and_bucket(batch, w_col, h_col,
                                                  ratios)
        ids = batch.column(id_col).filter(pa.array(good))
        tbw, tbh = bw[bidx], bh[bidx]
        wider = w * tbh >= h * tbw
        th_f = (2 * h * tbw + w) // (2 * w)   # when wider: fit width
        tw_f = (2 * w * tbh + h) // (2 * h)   # when taller: fit height
        tw = np.where(wider, tbw, tw_f)
        th = np.where(wider, th_f, tbh)
        return pa.table({
            id_col: ids,
            "w": pa.array(w), "h": pa.array(h),
            "bucket_id": pa.array(bidx.astype(np.int64)),
            "target_w": pa.array(tw), "target_h": pa.array(th),
            "pad_w": pa.array(tbw - tw), "pad_h": pa.array(tbh - th),
        })

    return ds.select_columns(
        list(dict.fromkeys([id_col, w_col, h_col]))
    ).map_batches(plan, batch_format="pyarrow", batch_size=batch_size,
                  zero_copy_batch=True)

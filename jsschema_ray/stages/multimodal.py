"""Image payload stages: the decode invariant over the opaque ``bytes``
binary column, and metadata-only planning (resize, aspect buckets,
letterbox) over the typed ``w``/``h`` columns.

The decode invariant (``decode_violations``, the x-decode keyword):
  * png — pure-Python codec (sources/png.py). A payload passes when its
    stream is intact (``check_png``): every chunk CRC, the zlib Adler-32,
    the IEND terminator, the inflated length ``h * (1 + 3w)`` and filter
    byte 0 on every scanline. PNG is lossless, so these settle the verdict
    without building a pixel array or re-encoding; a PNG from another
    encoder (other zlib level, ancillary chunks, split IDAT) passes;
  * jpeg/webp — where PIL is importable: decode, re-encode, decode again,
    and the two decodes must keep PSNR >= ``min_psnr_db``. Without PIL
    they are unsupported codecs, and unsupported codecs are skipped: they
    give no violation row;
  * a null payload is ``decode_failed``.

Batch sizing: payload rows are wide, so callers use a small batch_size
(default 1024); ``num_cpus=1`` per task, CPU-bound decode.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa

from jsschema_ray.sources.png import check_png, psnr


class _DecodeCheck:
    """The decode invariant as (key, reason) rows: ``decode_failed`` for a
    null payload or one that does not decode, ``roundtrip_mismatch`` for a
    lossy payload whose re-encode falls below ``min_psnr_db``. Unsupported
    codecs give no row. All ``decode_failed`` rows come first, each group
    in batch order.

    Payload presence is enforced here, not in the row-local stage, which
    never reads payloads (pipelines/validate_pipeline._schema_for_rowlocal).
    """

    def __init__(self, key_column: str = "image_id", column: str = "bytes",
                 fmt_column: str = "fmt", min_psnr_db: float = 40.0):
        self.key_column = key_column
        self.column = column
        self.fmt_column = fmt_column
        self.min_psnr_db = min_psnr_db
        # a gate, not a dependency: with PIL the lossy codecs are checked
        try:
            from PIL import Image  # type: ignore

            self._pil = Image
        except ImportError:
            self._pil = None

    def _lossy_reason(self, payload: bytes, fmt: str) -> Optional[str]:
        """Decode, re-encode at quality 92, decode again; the two decodes
        must keep PSNR >= ``min_psnr_db``."""
        import io

        try:
            img = np.asarray(self._pil.open(io.BytesIO(payload)).convert("RGB"))
        except Exception:
            return "decode_failed"
        buf = io.BytesIO()
        self._pil.fromarray(img).save(buf, format="JPEG" if fmt == "jpeg"
                                      else "WEBP", quality=92)
        buf.seek(0)
        redec = np.asarray(self._pil.open(buf).convert("RGB"))
        return (None if psnr(img, redec) >= self.min_psnr_db
                else "roundtrip_mismatch")

    def _reason(self, payload: Optional[bytes], fmt: Optional[str]
                ) -> Optional[str]:
        """The violation of one payload, or None."""
        if payload is None:
            return "decode_failed"
        if fmt == "png" or (fmt is None and payload[:4] == b"\x89PNG"):
            try:
                check_png(payload)
            except ValueError:
                return "decode_failed"
            return None
        if self._pil is not None and fmt in ("jpeg", "webp"):
            return self._lossy_reason(payload, fmt)
        return None  # unsupported codec: skipped

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column(self.column).to_pylist()
        fmts = (batch.column(self.fmt_column).to_pylist()
                if self.fmt_column in batch.column_names
                else [None] * len(payloads))
        rows: dict[str, list[int]] = {"decode_failed": [],
                                      "roundtrip_mismatch": []}
        for i, (payload, fmt) in enumerate(zip(payloads, fmts)):
            reason = self._reason(payload, fmt)
            if reason is not None:
                rows[reason].append(i)
        return pa.table({
            "key": batch.column(self.key_column).take(pa.array(
                rows["decode_failed"] + rows["roundtrip_mismatch"],
                pa.int64())).cast(pa.string()),
            "reason": pa.array([r for r, idx in rows.items() for _ in idx],
                               type=pa.string()),
        })


def decode_violations(ds, key_column: str = "image_id",
                      column: str = "bytes", fmt_column: str = "fmt",
                      batch_size: int = 1024, min_psnr_db: float = 40.0):
    """Rows failing the decode invariant as (key, reason); see
    ``_DecodeCheck``. Stateless tasks at full machine width; small batches
    keep payload memory bounded."""
    return ds.map_batches(
        _DecodeCheck(key_column, column, fmt_column, min_psnr_db),
        batch_format="pyarrow", batch_size=batch_size, num_cpus=1)


def resize_plan(ds, w_col: str = "w", h_col: str = "h",
                max_side: int = 256, batch_size: int = 65536):
    """Aspect-preserving resize PLAN from metadata only — the integer-
    exact (tw, th) targets of a resize: images whose longest side already
    fits keep their dims; otherwise the long side becomes ``max_side``
    and the short side scales proportionally with round-half-up integer
    arithmetic

        t = (2 * s * max_side + m) // (2 * m)        (m = max(w, h))

    — no float in the pipeline, so a SQL mirror is bit-equal. Appends
    (target_w, target_h) int64; NULL or non-positive dims yield NULL
    targets."""
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
    aspect ratio so a batch shares one target shape; reference analogue:
    the per-field numeric checks of /root/reference/schema.go applied to
    a corpus-level layout decision). Each row with positive non-NULL dims
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
    per batch, zero shuffles."""
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

"""Decode invariant (FIXTURES.md decode_invariant) and the metadata-only
image plans: corrupted and missing payloads are flagged, intact PNGs pass
whichever encoder wrote them, and codecs without a decoder are skipped
without breaking the pipeline."""

import struct
import zlib

import numpy as np
import pyarrow as pa
import pytest

from jsschema_ray.sources.synth import synth_image_table
from jsschema_ray.stages.multimodal import _DecodeCheck, decode_violations


def test_decode_images_batch():
    """Truncated PNGs and a null payload are decode_failed, in batch order;
    intact PNGs pass, and jpeg/webp without a decoder give no row."""
    table, manifest = synth_image_table(1000, seed=42, violation_frac=0.05)
    payloads = table.column("bytes").to_pylist()
    payloads[0] = None
    table = table.set_column(table.schema.get_field_index("bytes"), "bytes",
                             pa.array(payloads, type=pa.binary()))
    check = _DecodeCheck()
    check._pil = None  # pin the no-decoder path for jpeg/webp
    out = check(table)
    assert out.schema == pa.schema([("key", pa.string()),
                                    ("reason", pa.string())])
    ids = table.column("image_id").to_pylist()
    fmts = table.column("fmt").to_pylist()
    assert {"png", "jpeg", "webp"} <= set(fmts)
    bad = set(manifest["bad_bytes"])
    want = [i for k, (i, f) in enumerate(zip(ids, fmts))
            if k == 0 or (f == "png" and i in bad)]
    assert len(want) > 1
    assert out.column("key").to_pylist() == want
    assert set(out.column("reason").to_pylist()) == {"decode_failed"}


def test_decode_violations_on_ray(ray_session):
    import ray.data as rd

    table, manifest = synth_image_table(3000, seed=42, violation_frac=0.05)
    ds = rd.from_arrow(table).repartition(4)
    vio = decode_violations(ds, batch_size=256).take_all()
    flagged = {r["key"] for r in vio}
    fmts = dict(zip(table.column("image_id").to_pylist(),
                    table.column("fmt").to_pylist()))
    expected = {i for i in manifest["bad_bytes"] if fmts[i] == "png"}
    assert expected <= flagged
    # nothing clean is flagged
    clean_png = {i for i, f in fmts.items()
                 if f == "png" and i not in manifest["bad_bytes"]}
    assert not (flagged & clean_png)


class _Local:
    """Stands in for a Dataset: ``map_batches`` hands back the batch
    function, so decode_violations' checker runs in-process on a table."""

    def map_batches(self, fn, **_):
        return fn


def _chunk(tag: bytes, payload: bytes, crc=None) -> bytes:
    if crc is None:
        crc = zlib.crc32(tag + payload)
    return struct.pack(">I", len(payload)) + tag + payload + \
        struct.pack(">I", crc)


def _png_vectors():
    """(image, valid, corrupt): PNG byte strings edited from encode_png's
    output. Each valid one differs from what encode_png emits for the same
    pixels; each corrupt one breaks one stream check."""
    from jsschema_ray.sources.png import encode_png

    rng = np.random.default_rng(3)
    y, x = np.mgrid[0:32, 0:32]
    img = np.stack([x * 8, y * 8, (x + y) * 4], axis=-1).astype(np.uint8)
    img = (img + rng.integers(0, 4, img.shape)).astype(np.uint8)
    clean = encode_png(img)
    sig = clean[:8]
    (ihdr_len,) = struct.unpack_from(">I", clean, 8)
    ihdr = clean[16:16 + ihdr_len]
    pos = 8 + 12 + ihdr_len
    (idat_len,) = struct.unpack_from(">I", clean, pos)
    idat = clean[pos + 8:pos + 8 + idat_len]
    head, iend = _chunk(b"IHDR", ihdr), _chunk(b"IEND", b"")
    half = len(idat) // 2
    valid = {
        "zlib_level_9": sig + head + _chunk(
            b"IDAT", zlib.compress(zlib.decompress(idat), 9)) + iend,
        "text_chunk": sig + head + _chunk(b"IDAT", idat)
        + _chunk(b"tEXt", b"Comment\x00written elsewhere") + iend,
        "split_idat": sig + head + _chunk(b"IDAT", idat[:half])
        + _chunk(b"IDAT", idat[half:]) + iend,
    }
    flipped = bytearray(idat)
    flipped[half] ^= 0x01
    corrupt = {
        "idat_byte_flipped": sig + head + _chunk(
            b"IDAT", bytes(flipped), crc=zlib.crc32(b"IDAT" + idat)) + iend,
        "ihdr_crc_flipped": sig + _chunk(
            b"IHDR", ihdr, crc=zlib.crc32(b"IHDR" + ihdr) ^ 1)
        + _chunk(b"IDAT", idat) + iend,
        "bytes_after_iend": clean + b"\x00trailer",
        "missing_iend": sig + head + _chunk(b"IDAT", idat),
    }
    for data in valid.values():
        assert data != clean
    return img, valid, corrupt


def test_decode_invariant_png_vectors():
    """A PNG passes when it decodes with intact CRCs, Adler-32 and IEND, so
    another encoder's valid output is not a round-trip mismatch, while any
    broken stream is decode_failed."""
    from jsschema_ray.sources.png import decode_png

    img, valid, corrupt = _png_vectors()
    for data in valid.values():
        assert np.array_equal(decode_png(data), img)
    names = list(valid) + list(corrupt)
    table = pa.table({
        "image_id": names,
        "bytes": pa.array(list(valid.values()) + list(corrupt.values()),
                          type=pa.binary()),
        "fmt": ["png"] * len(names),
    })
    vio = decode_violations(_Local())(table)
    assert vio.column("key").to_pylist() == list(corrupt)
    assert vio.column("reason").to_pylist() == ["decode_failed"] * len(corrupt)


def _verdict(fn, data: bytes):
    """None when ``fn(data)`` returns, else the ValueError's message."""
    try:
        fn(data)
    except ValueError as e:
        return str(e)
    return None


def test_check_png_verdict_equals_decode_png():
    """check_png raises exactly when decode_png does, with the same
    message: on every single-byte flip and every truncation of a 4x4 PNG,
    and on edited streams with filter byte 1, bytes after IEND, a split
    IDAT and zlib level 9."""
    from jsschema_ray.sources.png import check_png, decode_png, encode_png

    img = np.arange(4 * 4 * 3, dtype=np.uint8).reshape(4, 4, 3)
    clean = encode_png(img)
    (ihdr_len,) = struct.unpack_from(">I", clean, 8)
    ihdr = clean[16:16 + ihdr_len]
    pos = 8 + 12 + ihdr_len
    (idat_len,) = struct.unpack_from(">I", clean, pos)
    idat = clean[pos + 8:pos + 8 + idat_len]
    raw = bytearray(zlib.decompress(idat))
    raw[1 + 4 * 3] = 1  # row 1 declares the Sub filter
    head, iend = clean[:8] + _chunk(b"IHDR", ihdr), _chunk(b"IEND", b"")
    cases = {
        "clean": clean,
        "filter_1": head + _chunk(b"IDAT", zlib.compress(bytes(raw))) + iend,
        "bytes_after_iend": clean + b"\x00",
        "split_idat": head + _chunk(b"IDAT", idat[:5])
        + _chunk(b"IDAT", idat[5:]) + iend,
        "zlib_level_9": head + _chunk(
            b"IDAT", zlib.compress(zlib.decompress(idat), 9)) + iend,
    }
    for i in range(len(clean)):
        flipped = bytearray(clean)
        flipped[i] ^= 0x01
        cases[f"flip_{i}"] = bytes(flipped)
        cases[f"cut_{i}"] = clean[:i]
    verdicts = {k: _verdict(check_png, v) for k, v in cases.items()}
    assert verdicts == {k: _verdict(decode_png, v) for k, v in cases.items()}
    assert [k for k, v in verdicts.items() if v is None] == [
        "clean", "split_idat", "zlib_level_9"]
    assert verdicts["filter_1"] == "unsupported PNG filter (only 0/None)"


class _FakePIL:
    """Stands in for PIL.Image: any payload decodes to a flat grey 8x8
    image, and its re-encode decodes 2 levels brighter everywhere
    (PSNR = 10 log10(255^2 / 4) = 42.1 dB)."""

    class _Img:
        def __init__(self, arr):
            self.arr = arr

        def convert(self, _mode):
            return self.arr

        def save(self, buf, **_):
            buf.write(b"re-encoded")

    @staticmethod
    def open(buf):
        grey = np.full((8, 8, 3), 100, dtype=np.uint8)
        return _FakePIL._Img(grey + 2 if buf.read() == b"re-encoded"
                             else grey)

    @staticmethod
    def fromarray(arr):
        return _FakePIL._Img(arr)


def test_decode_violations_min_psnr_db():
    """``min_psnr_db`` reaches the lossy round-trip check: a 42.1 dB
    re-encode passes a 40 dB floor and fails a 45 dB one."""
    table = pa.table({"image_id": ["j0"], "bytes": [b"jpeg payload"],
                      "fmt": ["jpeg"]})
    reasons = {}
    for floor in (40.0, 45.0):
        check = decode_violations(_Local(), min_psnr_db=floor)
        check._pil = _FakePIL
        reasons[floor] = check(table).column("reason").to_pylist()
    assert reasons == {40.0: [], 45.0: ["roundtrip_mismatch"]}


def test_decode_handler_passes_min_psnr_db(ray_session, tmp_path,
                                           monkeypatch):
    """The x-decode keyword's min_psnr_db reaches the decode check that
    the pipeline's scan runs."""
    import pyarrow.parquet as pq

    from jsschema_ray.pipelines.validate_pipeline import ValidationPipeline
    from jsschema_ray.stages import multimodal

    seen = {}
    init = multimodal._DecodeCheck.__init__

    def recording_init(self, *args, **kwargs):
        # the check is built on the driver, then shipped to the scan tasks
        init(self, *args, **kwargs)
        seen["min_psnr_db"] = self.min_psnr_db

    monkeypatch.setattr(multimodal._DecodeCheck, "__init__", recording_init)
    src = tmp_path / "in"
    src.mkdir()
    pq.write_table(pa.table({"image_id": ["a"], "bytes": [b"x"],
                             "fmt": ["jpeg"]}), str(src / "part-0.parquet"))
    schema = {"x-decode": {"column": "bytes", "min_psnr_db": 33.0}}
    report = ValidationPipeline(schema, str(src), str(tmp_path / "out")).run()
    assert seen["min_psnr_db"] == 33.0
    assert report["decode"] == {"n_violations": 0, "sample": []}


def test_image_meta_matches_sharded(tmp_path):
    """The metadata-only parquet the DuckDB image oracles read must be
    row-identical to the metadata of the sharded image dataset the Ray
    queries read (same seeded generator, payload draws provably after all
    metadata draws)."""
    import pyarrow.parquet as pq

    from jsschema_ray.sources.synth import (write_image_dataset,
                                            write_image_meta)

    d = tmp_path / "shards"
    write_image_dataset(str(d), 1000, shards=8, violation_frac=0.02)
    meta_path = tmp_path / "meta.parquet"
    write_image_meta(str(meta_path), 1000, shards=8, violation_frac=0.02)

    cols = ["image_id", "w", "h", "fmt", "caption", "phash"]
    sharded = pq.read_table(str(d), columns=cols).to_pandas()
    meta = pq.read_table(str(meta_path), columns=cols).to_pandas()
    import pandas as pd

    pd.testing.assert_frame_equal(
        sharded.sort_values("image_id", kind="stable").reset_index(drop=True),
        meta.sort_values("image_id", kind="stable").reset_index(drop=True),
    )


def test_lossy_decode_via_pil_when_available():
    """Real lossy invariant wherever PIL exists: a JPEG decodes through
    PIL and garbage does not. Skipped where PIL is absent (jpeg/webp are
    then skipped by the check, see test_decode_images_batch)."""
    Image = pytest.importorskip("PIL.Image")
    import io

    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, size=(32, 32, 3)).astype(np.uint8)
    buf = io.BytesIO()
    Image.fromarray(img).save(buf, format="JPEG", quality=95)
    check = _DecodeCheck()
    assert check._reason(buf.getvalue(), "jpeg") != "decode_failed"
    assert check._reason(b"not a jpeg", "jpeg") == "decode_failed"


def test_resize_plan_exact_semantics(ray_session):
    """resize_plan: small images keep dims, long side lands exactly on
    max_side, round-half-up on the short side, null/non-positive dims
    yield null targets."""
    import pyarrow as pa
    import ray.data

    from jsschema_ray.stages.multimodal import resize_plan

    t = pa.table({
        "w": pa.array([100, 512, 1000, 257, None, 0], pa.int32()),
        "h": pa.array([200, 256, 333, 2, 50, 10], pa.int32()),
    })
    out = resize_plan(ray.data.from_arrow(t), max_side=256).to_pandas()
    # 100x200 fits; 512x256 -> 256x128; 1000x333 -> 256x round(85.248)=85
    # 257x2 -> 256x round(1.992)=2; nulls/zeros -> null
    assert out.target_w.tolist()[:4] == [100, 256, 256, 256]
    assert out.target_h.tolist()[:4] == [200, 128, 85, 2]
    assert out.target_w.isna().tolist()[4:] == [True, True]
    # the long side is exactly max_side whenever scaling happened
    import numpy as np

    scaled = out.dropna().query("w > 256 or h > 256")
    assert (np.maximum(scaled.target_w, scaled.target_h) == 256).all()


def test_aspect_bucket_stats_assignment_and_exact_sums(ray_session):
    """aspect_bucket_stats: nearest-ratio assignment with lower-index
    tiebreak, NULL / non-positive exclusion, exact int64 pixel sums,
    empty buckets absent."""
    import pandas as pd
    import ray.data

    from jsschema_ray.stages.multimodal import aspect_bucket_stats

    # custom buckets with ratios 1.0 and 3.0: w/h = 2.0 is EXACTLY
    # equidistant -> lower bucket index (0) must win the tie
    pdf = pd.DataFrame({
        "w": [100, 300, 200, 210, None, -5, 64],
        "h": [100, 100, 100, 100, 50, 10, 0],
    }).astype({"w": "Int64", "h": "Int64"})
    ds = ray.data.from_pandas(pdf).repartition(3)
    got = aspect_bucket_stats(
        ds, buckets=((100, 100), (300, 100))
    ).to_pandas().sort_values("bucket_id").reset_index(drop=True)
    # rows kept: (100,100)->b0, (300,100)->b1, (200,100) tie->b0,
    # (210,100) ar 2.1 -> b1; NULL w, negative w, zero h excluded
    assert got.bucket_id.tolist() == [0, 1]
    assert got.n_images.tolist() == [2, 2]
    assert got.sum_pixels.tolist() == [100 * 100 + 200 * 100,
                                       300 * 100 + 210 * 100]
    assert got.bucket_w.tolist() == [100, 300]
    assert got.bucket_h.tolist() == [100, 100]
    assert got.dtypes.astype(str).tolist() == ["int64"] * 5

    # default SDXL ladder: brute-force reference assignment over a
    # random dim sweep must agree exactly
    import numpy as np

    from jsschema_ray.stages.multimodal import ASPECT_BUCKETS_1024

    rng = np.random.default_rng(11)
    w = rng.integers(64, 2048, 500)
    h = rng.integers(64, 2048, 500)
    ds2 = ray.data.from_pandas(pd.DataFrame({"w": w, "h": h})) \
        .repartition(4)
    got2 = aspect_bucket_stats(ds2).to_pandas() \
        .sort_values("bucket_id").reset_index(drop=True)
    r = np.array([bw / bh for bw, bh in ASPECT_BUCKETS_1024])
    bidx = np.argmin(
        np.abs((w.astype(np.float64) / h.astype(np.float64))[:, None]
               - r[None, :]), axis=1)
    want = pd.DataFrame({"bucket_id": bidx, "px": w * h}).groupby(
        "bucket_id").agg(n_images=("px", "size"), sum_pixels=("px", "sum"))
    assert got2.bucket_id.tolist() == want.index.tolist()
    assert got2.n_images.tolist() == want.n_images.tolist()
    assert got2.sum_pixels.tolist() == want.sum_pixels.tolist()


def test_letterbox_plan_integer_exact_targets(ray_session):
    """letterbox_plan: wider/taller/exact-fit branches, round-half-up
    integer targets, padding residuals, invalid-dim exclusion; target
    never exceeds its bucket."""
    import pandas as pd
    import ray.data

    from jsschema_ray.stages.multimodal import letterbox_plan

    pdf = pd.DataFrame({
        "image_id": ["a", "b", "c", "d", "e"],
        "w": [2048, 512, 1024, 100, None],
        "h": [1024, 1024, 1024, 0, 50],
    }).astype({"w": "Int64", "h": "Int64"})
    ds = ray.data.from_pandas(pdf).repartition(2)
    got = letterbox_plan(
        ds, buckets=((1024, 1024), (1536, 640))
    ).to_pandas().set_index("image_id")
    assert sorted(got.index) == ["a", "b", "c"]  # d, e invalid

    # serial round-half-up reference for the fit formula
    def serial(w, h, bw, bh):
        if w * bh >= h * bw:
            return bw, (2 * h * bw + w) // (2 * w)
        return (2 * w * bh + h) // (2 * h), bh
    for iid, bidx, (bw, bh) in (("a", 1, (1536, 640)),
                                ("b", 0, (1024, 1024)),
                                ("c", 0, (1024, 1024))):
        row = got.loc[iid]
        w, h = int(row.w), int(row.h)
        tw, th = serial(w, h, bw, bh)
        assert int(row.bucket_id) == bidx, iid
        assert (int(row.target_w), int(row.target_h)) == (tw, th), iid
        assert int(row.pad_w) == bw - tw and int(row.pad_h) == bh - th
        assert tw <= bw and th <= bh
    # exact fit: c is 1024x1024 -> zero padding
    assert int(got.loc["c"].pad_w) == 0 and int(got.loc["c"].pad_h) == 0

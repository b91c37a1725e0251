"""Decode invariant + multimodal plumbing (FIXTURES.md decode_invariant):
corrupted payloads are flagged, intact PNGs pass the pixel-level invariant
whichever encoder wrote them, lossy codecs stay stubbed without breaking
the pipeline."""

import struct
import zlib

import numpy as np
import pyarrow as pa
import pytest

from jsschema_ray.sources.synth import synth_image_table
from jsschema_ray.stages.multimodal import (
    DecodeImages,
    ImageFeatures,
    ResizeImages,
    decode_violations,
)


def test_decode_images_batch():
    table, manifest = synth_image_table(1000, seed=42, violation_frac=0.05)
    out = DecodeImages()(table)
    ids = table.column("image_id").to_pylist()
    ok = dict(zip(ids, out.column("decode_ok").to_pylist()))
    rt = dict(zip(ids, out.column("roundtrip_ok").to_pylist()))
    fmts = dict(zip(ids, table.column("fmt").to_pylist()))
    for bad in manifest["bad_bytes"]:
        if fmts[bad] == "png":
            assert ok[bad] is False
    for i, f in fmts.items():
        if f == "png" and i not in manifest["bad_bytes"]:
            assert ok[i] is True and rt[i] is True, i
        if f in ("jpeg", "webp"):
            assert ok[i] is None  # stubbed -> skipped
    # decoded dims come back (synth pool is 16x16)
    ws = [w for w in out.column("dec_w").to_pylist() if w is not None]
    assert set(ws) == {16}


def test_decode_fail_and_fake_modes():
    table, _ = synth_image_table(200, seed=42)
    strict = DecodeImages(on_unsupported="fail")(table)
    fake = DecodeImages(on_unsupported="fake")(table)
    fmts = table.column("fmt").to_pylist()
    for f, s_ok, f_ok in zip(fmts, strict.column("decode_ok").to_pylist(),
                             fake.column("decode_ok").to_pylist()):
        if f in ("jpeg", "webp"):
            assert s_ok is False and f_ok is True


def test_image_features_and_resize():
    table, _ = synth_image_table(100, seed=42)
    feats = ImageFeatures()(table)
    means = feats.column("rgb_mean").to_pylist()
    fmts = table.column("fmt").to_pylist()
    png_means = [m for m, f in zip(means, fmts) if f == "png"]
    assert png_means and all(len(m) == 3 for m in png_means)
    # uniform-noise pool -> channel means near 127.5
    assert abs(np.mean([m[0] for m in png_means]) - 127.5) < 15

    resized = ResizeImages(8)(table)
    from jsschema_ray.sources.png import decode_png

    for p, f in zip(resized.column("bytes_resized").to_pylist(), fmts):
        if f == "png" and p is not None:
            assert decode_png(p).shape == (8, 8, 3)
            break
    else:
        pytest.fail("no resized png found")


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
    out = DecodeImages()(table)
    ok = dict(zip(names, out.column("decode_ok").to_pylist()))
    rt = dict(zip(names, out.column("roundtrip_ok").to_pylist()))
    assert {n: (ok[n], rt[n]) for n in valid} == {
        n: (True, True) for n in valid}
    assert {n: (ok[n], rt[n]) for n in corrupt} == {
        n: (False, False) for n in corrupt}
    vio = decode_violations(_Local())(table)
    assert dict(zip(vio.column("key").to_pylist(),
                    vio.column("reason").to_pylist())) == {
        n: "decode_failed" for n in corrupt}


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
    init = multimodal.DecodeImages.__init__

    def recording_init(self, *args, **kwargs):
        # the check is built on the driver, then shipped to the scan tasks
        init(self, *args, **kwargs)
        seen["min_psnr_db"] = self.min_psnr_db

    monkeypatch.setattr(multimodal.DecodeImages, "__init__", recording_init)
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
    """Real lossy invariant (PSNR >= 40 dB) wherever PIL exists; skipped
    cleanly in containers without image libs (the documented stub then
    applies — covered by the stub tests above)."""
    import pytest

    Image = pytest.importorskip("PIL.Image")
    import io

    import numpy as np

    from jsschema_ray.stages.multimodal import DecodeImages

    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, size=(32, 32, 3)).astype(np.uint8)
    buf = io.BytesIO()
    Image.fromarray(img).save(buf, format="JPEG", quality=95)
    dec = DecodeImages(on_unsupported="fail")
    ok, rt, w, h = dec._decode_one(buf.getvalue(), "jpeg")
    assert ok and w == 32 and h == 32


def test_frame_sample_plumbing(ray_session):
    """r3 driver-mandated video plumbing: REAL vectorized sampling layout
    (uniform_k endpoints, every_s stride), one output row per sampled
    frame, deterministic fake decode (stub documented), 'fail' mode raises
    NotImplementedError at the decode call site."""
    import numpy as np
    import pyarrow as pa
    import pytest
    import ray.data as rd

    from jsschema_ray.stages.multimodal import FrameSample, frame_sample

    t = pa.table({
        "video_id": ["v0", "v1", "v2"],
        "bytes": [b"x" * 100, b"y" * 37, None],
        "fmt": ["mp4", "mp4", "mp4"],
        "n_frames": pa.array([100, 10, 50], type=pa.int32()),
        "fps": pa.array([25.0, 10.0, 30.0], type=pa.float64()),
    })
    out = frame_sample(rd.from_arrow(t), policy="uniform_k", k=4,
                       batch_size=2).to_pandas()
    v0 = out[out["video_id"] == "v0"].sort_values("frame_idx")
    assert v0["frame_idx"].tolist() == [0, 33, 66, 99]  # endpoints incl.
    assert (out["video_id"] != "v2").all()              # null payload drops
    assert out["frame_bytes"].map(len).eq(64).all()
    # determinism across layouts
    out2 = frame_sample(rd.from_arrow(t).repartition(3), policy="uniform_k",
                        k=4, batch_size=1).to_pandas()
    a = out.sort_values(["video_id", "frame_idx"]).reset_index(drop=True)
    b = out2.sort_values(["video_id", "frame_idx"]).reset_index(drop=True)
    assert a.equals(b)

    ev = frame_sample(rd.from_arrow(t), policy="every_s", every_s=2.0
                      ).to_pandas()
    v0 = ev[ev["video_id"] == "v0"]
    assert v0["frame_idx"].tolist() == [0, 50]  # 25 fps * 2 s stride

    fs = FrameSample(on_decode="fail")
    with pytest.raises(NotImplementedError, match="codec"):
        fs(t.slice(0, 1))


def test_audio_features_plumbing(ray_session):
    """r3 audio plumbing: stubbed PCM decode (deterministic), REAL numpy
    feature kernels; null payload -> typed null features."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from jsschema_ray.stages.multimodal import audio_features

    t = pa.table({
        "audio_id": ["a0", "a1"],
        "bytes": [b"z" * 333, None],
        "sr": pa.array([16000, 16000], type=pa.int32()),
    })
    out = audio_features(rd.from_arrow(t)).to_pandas().sort_values(
        "audio_id").reset_index(drop=True)
    assert out.loc[0, "duration_s"] > 0.4
    assert out.loc[0, "rms"] > 0 and 0 < out.loc[0, "zero_cross_rate"] < 1
    assert pd.isna(out.loc[1, "rms"])
    # deterministic across runs
    out2 = audio_features(rd.from_arrow(t)).to_pandas().sort_values(
        "audio_id").reset_index(drop=True)
    assert out.equals(out2)


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

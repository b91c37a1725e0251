"""Minimal pure-Python PNG codec (RGB8, filter 0) built on zlib + numpy.

The container has no image libraries (no PIL), so the BASELINE's
decoded-image invariant (PSNR >= 40 dB, lossless for PNG; BASELINE.json
input_hint) is exercised with REAL PNG bytes produced and parsed here —
the PNG format is public (RFC 2083). Lossy codecs (JPEG/WebP) are stubbed
at the decode step (stages/multimodal.py) with the Ray-side plumbing kept
real, as the driver instructions direct.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

_SIG = b"\x89PNG\r\n\x1a\n"


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def encode_png(img: np.ndarray) -> bytes:
    """RGB8 HxWx3 uint8 array -> PNG bytes (color type 2, filter 0)."""
    if img.ndim != 3 or img.shape[2] != 3 or img.dtype != np.uint8:
        raise ValueError("encode_png expects HxWx3 uint8")
    h, w = img.shape[:2]
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    raw = np.empty((h, 1 + w * 3), dtype=np.uint8)
    raw[:, 0] = 0  # filter type 0 (None) per scanline
    raw[:, 1:] = img.reshape(h, w * 3)
    idat = zlib.compress(raw.tobytes(), 6)
    return _SIG + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b"")


def _scanlines(data: bytes) -> tuple[int, int, bytes]:
    """The width, height and inflated scanlines (filter byte + RGB row,
    ``h * (1 + 3w)`` bytes) of the PNG ``data``, or ValueError. Supports
    what encode_png emits (8-bit RGB, filter 0).

    The stream must be intact: every chunk's CRC matches, the IDAT zlib
    stream passes its Adler-32 check, IEND is the last chunk with no bytes
    after it, the inflated length is ``h * (1 + 3w)`` and every scanline's
    filter byte is 0. Ancillary chunks are skipped, IDAT may be split
    across chunks and any zlib level inflates."""
    if data[:8] != _SIG:
        raise ValueError("not a PNG: bad signature")
    pos = 8
    w = h = None
    idat = []
    while True:
        if pos + 12 > len(data):
            raise ValueError("truncated PNG: no IEND chunk")
        (length,) = struct.unpack_from(">I", data, pos)
        end = pos + 12 + length
        if end > len(data):
            raise ValueError("truncated PNG chunk")
        tag = data[pos + 4 : pos + 8]
        payload = data[pos + 8 : end - 4]
        (crc,) = struct.unpack_from(">I", data, end - 4)
        if crc != zlib.crc32(data[pos + 4 : end - 4]):
            raise ValueError(f"bad CRC in {tag!r}")
        if tag == b"IHDR":
            if length != 13:
                raise ValueError("bad IHDR length")
            w, h, depth, ctype, comp, filt, ilace = struct.unpack(">IIBBBBB", payload)
            if (depth, ctype, comp, filt, ilace) != (8, 2, 0, 0, 0):
                raise ValueError("unsupported PNG variant (need 8-bit RGB)")
        elif tag == b"IDAT":
            idat.append(payload)
        elif tag == b"IEND":
            if end != len(data):
                raise ValueError("bytes after IEND")
            break
        pos = end
    if w is None or not idat:
        raise ValueError("missing IHDR/IDAT")
    try:
        raw = zlib.decompress(b"".join(idat))
    except zlib.error as e:  # includes a failed Adler-32 check
        raise ValueError(f"bad IDAT stream: {e}") from None
    stride = 1 + w * 3
    if len(raw) != h * stride:
        raise ValueError("bad decompressed size")
    if raw[::stride].count(0) != h:
        raise ValueError("unsupported PNG filter (only 0/None)")
    return w, h, raw


def check_png(data: bytes) -> None:
    """Raise ValueError exactly when ``decode_png(data)`` would. PNG is
    lossless and filter 0 stores the pixels as they are, so an intact
    stream of the right inflated length settles the verdict without a
    pixel array."""
    _scanlines(data)


def decode_png(data: bytes) -> np.ndarray:
    """PNG bytes -> RGB8 HxWx3 uint8 array; see ``_scanlines`` for what
    is accepted. Anything else raises ValueError."""
    w, h, raw = _scanlines(data)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(h, 1 + w * 3)
    return rows[:, 1:].reshape(h, w, 3).copy()


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB between two uint8 images."""
    if a.shape != b.shape:
        return 0.0
    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    if mse == 0:
        return float("inf")
    return 10.0 * np.log10(255.0**2 / mse)

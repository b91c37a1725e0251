"""Deterministic synthesis of the BASELINE.json input_hint table:

    image_id:string  bytes:binary  w:int32  h:int32  fmt:string
    caption:string  phash:int64

No external data (driver instruction): the table is generated from a fixed
seed with a known injected-violation manifest, the tabular analogue of the
reference's labeled pass/fail fixture convention (schema_test.go:69-103):
every violation row is listed in the manifest by image_id per constraint
family, everything else passes everything. Recall 1.0 is then checkable
exactly.

``bytes`` holds REAL PNG payloads (sources/png.py) drawn from a small pool
of distinct deterministic images — pool reuse keeps synthesis O(pool) in
encode cost while the column stays genuinely decodable; corrupted-payload
rows truncate the PNG mid-IDAT.

``phash`` is Zipf-skewed on purpose: near-duplicate images share hashes, so
global uniqueness on phash exercises the skew/salting path (SURVEY.md §7
hard part 3).
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from jsschema_ray.sources.png import encode_png

_WORDS = (
    "amber brook cedar delta ember frost grove harbor iris juniper kestrel "
    "lumen meadow north opal pine quartz river slate thistle umber vale "
    "willow xenon yarrow zephyr dawn cliff stone fern tide moss"
).split()

#: constraint families a synthetic row can violate (manifest keys)
VIOLATION_FAMILIES = (
    "id_pattern",      # image_id fails ^img-[0-9]{12}$
    "w_range",         # w outside [16, 4096]
    "h_range",         # h outside [16, 4096]
    "fmt_enum",        # fmt not in {png,jpeg,webp}
    "caption_len",     # caption length outside [5, 200]
    "required_null",   # caption null (required violation)
    "dup_image_id",    # duplicate image_id (global uniqueness)
    "bad_bytes",       # corrupted PNG payload
)


def _captions(rng: np.random.Generator, n: int) -> np.ndarray:
    k = rng.integers(3, 12, size=n)
    idx = rng.integers(0, len(_WORDS), size=(n, 12))
    words = np.array(_WORDS)[idx]
    return np.array([" ".join(words[i, : k[i]]) for i in range(n)], dtype=object)


def synth_image_table(
    n_rows: int,
    seed: int = 42,
    violation_frac: float = 0.02,
    with_bytes: bool = True,
    pool: int = 64,
    img_side: int = 16,
    row_offset: int = 0,
) -> tuple[pa.Table, dict[str, list[str]]]:
    """Build ``n_rows`` of the input_hint table plus the violation manifest
    (family -> sorted image_ids). ``row_offset`` shifts ids so multiple
    shards form one global table deterministically."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, row_offset]))
    ids = np.array(
        [f"img-{i:012d}" for i in range(row_offset, row_offset + n_rows)],
        dtype=object,
    )
    w = rng.integers(64, 2048, size=n_rows).astype(np.int32)
    h = rng.integers(64, 2048, size=n_rows).astype(np.int32)
    fmt = np.array(["png", "jpeg", "webp"], dtype=object)[
        rng.integers(0, 3, size=n_rows)
    ]
    caption = _captions(rng, n_rows)
    # Zipf-skewed perceptual hashes: rank r -> deterministic 63-bit value
    ranks = (rng.zipf(1.3, size=n_rows) % max(n_rows, 1)).astype(np.uint64)
    phash = (
        (ranks * np.uint64(0x9E3779B97F4A7C15)) & np.uint64(0x7FFFFFFFFFFFFFFF)
    ).astype(np.int64)

    manifest: dict[str, list[str]] = {f: [] for f in VIOLATION_FAMILIES}
    n_bad = int(n_rows * violation_frac)
    bad_rows = rng.choice(n_rows, size=n_bad, replace=False) if n_bad else np.array([], dtype=int)
    fam_of = rng.integers(0, len(VIOLATION_FAMILIES), size=n_bad)
    caption_null = np.zeros(n_rows, dtype=bool)
    bytes_bad = np.zeros(n_rows, dtype=bool)

    for r, fi in zip(bad_rows, fam_of):
        fam = VIOLATION_FAMILIES[fi]
        if fam == "id_pattern":
            ids[r] = f"BAD-{r + row_offset:08x}"
        elif fam == "w_range":
            w[r] = 8192 if (r % 2 == 0) else 4
        elif fam == "h_range":
            h[r] = 8192 if (r % 2 == 0) else 4
        elif fam == "fmt_enum":
            fmt[r] = "gif"
        elif fam == "caption_len":
            caption[r] = "x!" if (r % 2 == 0) else ("long word " * 30)
        elif fam == "required_null":
            caption_null[r] = True
        elif fam == "dup_image_id":
            donor = (r + 1) % n_rows
            while donor in bad_rows and donor != r:
                donor = (donor + 1) % n_rows
            ids[r] = ids[donor]
            manifest[fam].append(str(ids[donor]))  # all rows of the key violate
        elif fam == "bad_bytes":
            bytes_bad[r] = True
        manifest[fam].append(str(ids[r]))

    payloads: Optional[list[bytes]] = None
    if with_bytes:
        pool_imgs = [
            encode_png(
                np.random.default_rng(np.random.SeedSequence([seed, 7, j]))
                .integers(0, 256, size=(img_side, img_side, 3))
                .astype(np.uint8)
            )
            for j in range(pool)
        ]
        pool_idx = rng.integers(0, pool, size=n_rows)
        payloads = []
        for i in range(n_rows):
            b = pool_imgs[pool_idx[i]]
            payloads.append(b[: len(b) // 2] if bytes_bad[i] else b)

    cols: dict[str, pa.Array] = {
        "image_id": pa.array(ids, type=pa.string()),
        "bytes": pa.array(
            payloads if payloads is not None else [None] * n_rows,
            type=pa.binary(),
        ),
        "w": pa.array(w, type=pa.int32()),
        "h": pa.array(h, type=pa.int32()),
        "fmt": pa.array(fmt, type=pa.string()),
        "caption": pa.array(
            [None if caption_null[i] else caption[i] for i in range(n_rows)],
            type=pa.string(),
        ),
        "phash": pa.array(phash, type=pa.int64()),
    }
    manifest = {k: sorted(set(v)) for k, v in manifest.items()}
    return pa.table(cols), manifest


def write_image_meta(
    out_path: str,
    n_rows: int,
    seed: int = 42,
    shards: int = 64,
    violation_frac: float = 0.02,
) -> None:
    """Write ONE metadata-only parquet (no ``bytes`` column) with rows
    byte-identical to the metadata of `write_image_dataset(shards=...)` —
    the per-shard RNG streams are keyed by (seed, row_offset) and the
    payload draws happen after all metadata draws, so skipping payloads
    cannot change the metadata. This file is what the DuckDB oracle reads
    (DuckDB can't assemble the sharded dir cheaply in a static SQL string),
    while the Ray queries read the sharded dataset; equality is pinned by
    tests/test_multimodal.py::test_image_meta_matches_sharded."""
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    per = n_rows // shards
    tables = []
    for s in range(shards):
        n = per if s < shards - 1 else n_rows - per * (shards - 1)
        t, _ = synth_image_table(
            n, seed=seed, violation_frac=violation_frac,
            with_bytes=False, row_offset=s * per,
        )
        tables.append(t.drop_columns(["bytes"]))
    tmp = out_path + ".tmp"
    pq.write_table(pa.concat_tables(tables), tmp)
    os.replace(tmp, out_path)  # atomic: concurrent ensurers see all-or-nothing


def write_image_dataset(
    out_dir: str,
    n_rows: int,
    seed: int = 42,
    shards: int = 8,
    violation_frac: float = 0.02,
    with_bytes: bool = True,
    row_group_size: int = 8192,
) -> dict[str, list[str]]:
    """Write a sharded parquet image dataset + merged manifest. The shard
    count sets the validation scan's granularity (one task per shard), so
    shards ≥ 2× cores keeps every core busy; row groups matter only to
    Ray's own parquet reader. Deterministic across calls (same seed/shape
    -> byte-identical rows)."""
    os.makedirs(out_dir, exist_ok=True)
    per = n_rows // shards
    merged: dict[str, list[str]] = {f: [] for f in VIOLATION_FAMILIES}
    for s in range(shards):
        n = per if s < shards - 1 else n_rows - per * (shards - 1)
        t, m = synth_image_table(
            n, seed=seed, violation_frac=violation_frac,
            with_bytes=with_bytes, row_offset=s * per,
        )
        pq.write_table(t, os.path.join(out_dir, f"part-{s:05d}.parquet"),
                       row_group_size=row_group_size)
        for k, v in m.items():
            merged[k].extend(v)
    return {k: sorted(set(v)) for k, v in merged.items()}


def write_events_dataset(
    out_dir: str,
    n_rows: int,
    seed: int = 42,
    shards: int = 64,
    n_keys: Optional[int] = None,
    row_group_size: int = 65536,
) -> None:
    """Sharded synthetic events table (user_id:int64, ts:timestamp[us],
    event_id:int64, value:double) for the window-shuffle scaling stage —
    the same per-key window shape as the testdata events table, at an
    arbitrary row count. user_id is Zipf-skewed (a ~ 1.2) so the hash(key)
    window shuffle sees realistic hot keys; event_id is globally unique
    (the ROWS-frame total-order tiebreak); per-shard RNG streams are keyed
    by (seed, shard) so synthesis is deterministic and shards are
    independent."""
    os.makedirs(out_dir, exist_ok=True)
    if n_keys is None:
        n_keys = max(1000, n_rows // 100)
    per = n_rows // shards
    t0 = 1_600_000_000_000_000  # epoch us
    for s in range(shards):
        n = per if s < shards - 1 else n_rows - per * (shards - 1)
        rng = np.random.default_rng((seed, s))
        uid = (rng.zipf(1.2, size=n) - 1) % n_keys
        ts = t0 + rng.integers(0, 30 * 86_400_000_000, size=n)
        t = pa.table({
            "user_id": pa.array(uid.astype(np.int64)),
            "ts": pa.array(ts, pa.timestamp("us")),
            "event_id": pa.array(np.arange(s * per, s * per + n,
                                           dtype=np.int64)),
            "value": pa.array(rng.random(n) * 100.0),
        })
        pq.write_table(t, os.path.join(out_dir, f"part-{s:05d}.parquet"),
                       row_group_size=row_group_size)

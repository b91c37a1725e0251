"""Synthesized image table + Ray validation stage: the engine's verdicts
must match the injected-violation manifest exactly (recall 1.0, the tabular
analogue of schema_test.go:69-103 pass/fail labels)."""

import numpy as np
import pyarrow as pa
import pytest

from jsschema_ray.pipelines.image_schema import IMAGE_SCHEMA
from jsschema_ray.sources.png import decode_png, encode_png, psnr
from jsschema_ray.sources.synth import synth_image_table
from jsschema_ray.stages.validate import ValidateBatch

ROWLOCAL_FAMILIES = (
    "id_pattern", "w_range", "h_range", "fmt_enum", "caption_len",
    "required_null",
)


def test_png_roundtrip():
    rng = np.random.default_rng(7)
    img = rng.integers(0, 256, size=(16, 16, 3)).astype(np.uint8)
    data = encode_png(img)
    back = decode_png(data)
    assert np.array_equal(img, back)
    assert psnr(img, back) == float("inf")
    with pytest.raises(ValueError):
        decode_png(data[: len(data) // 2])
    with pytest.raises(ValueError):
        decode_png(b"not a png at all")


def test_synth_deterministic():
    t1, m1 = synth_image_table(500, seed=42)
    t2, m2 = synth_image_table(500, seed=42)
    assert t1.equals(t2) and m1 == m2
    t3, _ = synth_image_table(500, seed=43)
    assert not t1.equals(t3)


def test_rowlocal_verdicts_match_manifest():
    table, manifest = synth_image_table(3000, seed=42, violation_frac=0.05)
    stage = ValidateBatch(IMAGE_SCHEMA, mode="annotate")
    out = stage(table)
    valid = np.array(out.column("valid").to_pylist())
    ids = np.array(table.column("image_id").to_pylist(), dtype=object)

    expected_bad = set()
    for fam in ROWLOCAL_FAMILIES:
        expected_bad.update(manifest[fam])
    # duplicate ids are not row-local; pattern-valid dup rows pass this stage
    flagged = {str(i) for i, v in zip(ids, valid) if not v}
    assert flagged == expected_bad, (
        f"missed={expected_bad - flagged} extra={flagged - expected_bad}"
    )


def test_violation_rows_attribution():
    table, manifest = synth_image_table(2000, seed=42, violation_frac=0.05)
    stage = ValidateBatch(IMAGE_SCHEMA, mode="violations", key_column="image_id")
    vio = stage(table)
    assert set(vio.column_names) == {
        "key", "column", "path", "keyword", "observed", "expected"
    }
    exp = {r["keyword"]: r["expected"] for r in vio.to_pylist()}
    assert exp["minimum"] == ">= 16" and exp["enum"].startswith("one of")
    assert exp["pattern"] == "match /^img-[0-9]{12}$/"
    by_col: dict = {}
    for row in vio.to_pylist():
        by_col.setdefault(row["column"], set()).add(row["key"])
    assert by_col.get("w", set()) == set(manifest["w_range"])
    assert by_col.get("fmt", set()) == set(manifest["fmt_enum"])
    assert set(manifest["caption_len"]) <= by_col.get("caption", set())
    # required_null captions appear as required violations on 'caption'
    assert set(manifest["required_null"]) <= by_col.get("caption", set())
    assert by_col.get("image_id", set()) == set(manifest["id_pattern"])


def test_summary_counts():
    table, manifest = synth_image_table(2000, seed=42, violation_frac=0.05)
    stage = ValidateBatch(IMAGE_SCHEMA, mode="summary")
    summ = stage(table).to_pylist()
    got = {(r["path"], r["keyword"]): r["n_failed"] for r in summ}
    n_w = sum(v for (p, k), v in got.items() if p == "#/properties/w")
    assert n_w == len(manifest["w_range"])
    assert all(r["n_rows"] == 2000 for r in summ)


def test_validate_dataset_on_ray(ray_session):
    import ray.data as rd

    from jsschema_ray.stages.validate import summarize, violations

    table, manifest = synth_image_table(4000, seed=42, violation_frac=0.03)
    ds = rd.from_arrow(table).repartition(4)
    vio = violations(ds, IMAGE_SCHEMA, key_column="image_id", batch_size=512)
    flagged = {r["key"] for r in vio.take_all()}
    expected = set()
    for fam in ROWLOCAL_FAMILIES:
        expected.update(manifest[fam])
    assert expected <= flagged  # every injected row-local violation is caught

    summ = summarize(rd.from_arrow(table).repartition(4), IMAGE_SCHEMA,
                     batch_size=512).to_pandas()
    n_fmt = int(summ.loc[summ["path"] == "#/properties/fmt", "n_failed"].sum())
    assert n_fmt == len(manifest["fmt_enum"])

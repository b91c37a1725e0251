"""End-to-end ValidationPipeline: verdicts, manifest commit, resume-skip,
and re-run determinism (FIXTURES.md checkpoint_resume fixture)."""

import json
import os

import pytest

from jsschema_ray.pipelines.image_schema import IMAGE_SCHEMA
from jsschema_ray.pipelines.manifest import CheckpointManifest
from jsschema_ray.pipelines.validate_pipeline import ValidationPipeline
from jsschema_ray.sources.synth import write_image_dataset
from jsschema_ray.stages.drift import build_profile


@pytest.fixture(scope="module")
def img_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("imgds")
    manifest = write_image_dataset(str(d), 8000, shards=4, violation_frac=0.02)
    return str(d), manifest


def test_pipeline_run_and_resume(img_dir, ray_session, tmp_path):
    import ray.data as rd

    src, vmanifest = img_dir
    out = str(tmp_path / "out")

    # drift profile built from the dataset itself -> all partitions pass
    profile = build_profile(
        rd.read_parquet(src, columns=["w", "h", "caption"]),
        ["w", "h", "caption_len"], batch_size=2048,
    )

    pipe = ValidationPipeline(IMAGE_SCHEMA, src, out, batch_size=2048,
                              drift_profile=profile)
    report = pipe.run()
    assert report["partitions_total"] == 4
    assert report["partitions_resumed"] == 0
    assert len(report["partitions"]) == 4
    assert not report["valid"]  # violations were injected

    # per-partition metrics add up to the injected row-local violations
    total_vio = sum(
        p["metrics"]["violation_rows"] for p in report["partitions"].values()
    )
    rowlocal = set()
    for fam in ("id_pattern", "w_range", "h_range", "fmt_enum",
                "caption_len", "required_null"):
        rowlocal.update(vmanifest[fam])
    assert total_vio >= len(rowlocal)

    # uniqueness + referential results present
    uniq = {u["column"]: u for u in report["uniqueness"]}
    assert uniq["image_id"]["dup_keys"] == len(vmanifest["dup_image_id"])
    assert uniq["phash"]["report_only"] and uniq["phash"]["dup_keys"] > 0
    ref = report["referential"][0]
    # the injected 'gif' rows violate the codec reference list too
    assert ref["n_violations"] == len(vmanifest["fmt_enum"])
    # drift self-comparison passes everywhere
    assert all(v["passed"] for v in report["drift"])
    # stats present with quantiles
    assert report["stats"]["w"]["count"] > 0
    assert "0.5" in report["stats"]["w"]["quantiles"]

    # manifest files are committed and loadable
    mf = CheckpointManifest(out)
    committed = mf.committed()
    assert set(committed) == {f"part-{i:05d}" for i in range(4)}
    for rec in committed.values():
        assert rec["input_path"].endswith(".parquet")  # lineage

    # resume: nothing re-processed, same report content
    report2 = ValidationPipeline(IMAGE_SCHEMA, src, out, batch_size=2048,
                                 drift_profile=profile).run()
    assert report2["partitions_resumed"] == 4
    assert report2["uniqueness"] == report["uniqueness"]
    assert {p: r["metrics"] for p, r in report2["partitions"].items()} == {
        p: r["metrics"] for p, r in report["partitions"].items()
    }

    # partial resume: delete one manifest -> exactly that shard re-runs
    os.remove(os.path.join(out, "manifest", "part-00002.json"))
    report3 = ValidationPipeline(IMAGE_SCHEMA, src, out, batch_size=2048,
                                 drift_profile=profile).run()
    assert report3["partitions_resumed"] == 3
    assert report3["partitions"]["part-00002"]["metrics"] == report[
        "partitions"]["part-00002"]["metrics"]


def test_referential_violations_counted(img_dir, ray_session, tmp_path):
    src, vmanifest = img_dir
    schema = dict(IMAGE_SCHEMA)
    schema["x-referential"] = [{"column": "fmt",
                                "ref_values": ["png", "jpeg", "webp"]}]
    out = str(tmp_path / "out_ref")
    report = ValidationPipeline(schema, src, out, batch_size=2048).run()
    assert report["referential"][0]["n_violations"] == len(vmanifest["fmt_enum"])


def test_digit_named_shards_count_their_violations(ray_session, tmp_path):
    """Shard stems like "00000" are partition ids, not hive integers: their
    violations must reach the manifest and the verdict."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    src = tmp_path / "in"
    src.mkdir()
    pq.write_table(pa.table({"id": ["a", "b", "c"], "w": [1, 20, 3]}),
                   str(src / "00000.parquet"))
    pq.write_table(pa.table({"id": ["d", "e"], "w": [4, 5]}),
                   str(src / "00001.parquet"))
    schema = {"type": "object",
              "properties": {"w": {"type": "integer", "minimum": 10}}}
    report = ValidationPipeline(schema, str(src), str(tmp_path / "out"),
                                key_column="id").run()
    metrics = {p: r["metrics"] for p, r in report["partitions"].items()}
    assert metrics == {"00000": {"rows": 3, "violation_rows": 2},
                       "00001": {"rows": 2, "violation_rows": 2}}
    assert report["valid"] is False


def test_cli_dump(capsys):
    from jsschema_ray.cli import main

    schema = os.path.join(os.path.dirname(__file__), "fixtures",
                          "business.json")
    rc = main(["dump", "--schema", schema])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert "definitions" in out

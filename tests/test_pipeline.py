"""End-to-end ValidationPipeline: verdicts, manifest commit, resume-skip,
re-run determinism (FIXTURES.md checkpoint_resume fixture), the number of
Ray Data executions per pass, and a run killed mid-pass that resumes."""

import glob
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

import pytest

from jsschema_ray.pipelines.image_schema import IMAGE_SCHEMA
from jsschema_ray.pipelines.manifest import CheckpointManifest
from jsschema_ray.pipelines.validate_pipeline import ValidationPipeline
from jsschema_ray.sources.synth import write_image_dataset
from jsschema_ray.stages.drift import build_profile

GLOBAL_SECTIONS = ("uniqueness", "referential", "stats", "decode")


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

    pipe = ValidationPipeline(IMAGE_SCHEMA, src, out, drift_profile=profile)
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
    report2 = ValidationPipeline(IMAGE_SCHEMA, src, out,
                                 drift_profile=profile).run()
    assert report2["partitions_resumed"] == 4
    assert report2["uniqueness"] == report["uniqueness"]
    assert {p: r["metrics"] for p, r in report2["partitions"].items()} == {
        p: r["metrics"] for p, r in report["partitions"].items()
    }

    # partial resume: delete one manifest -> exactly that shard re-runs
    os.remove(os.path.join(out, "manifest", "part-00002.json"))
    report3 = ValidationPipeline(IMAGE_SCHEMA, src, out,
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
    report = ValidationPipeline(schema, src, out).run()
    assert report["referential"][0]["n_violations"] == len(vmanifest["fmt_enum"])


def test_digit_named_shards_count_their_violations(ray_session, tmp_path):
    """Shard stems like "00000" are partition ids, not hive integers: their
    violations must reach the manifest and the verdict. A shard without
    rows is committed too."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    src = tmp_path / "in"
    src.mkdir()
    pq.write_table(pa.table({"id": ["a", "b", "c"], "w": [1, 20, 3]}),
                   str(src / "00000.parquet"))
    pq.write_table(pa.table({"id": ["d", "e"], "w": [4, 5]}),
                   str(src / "00001.parquet"))
    pq.write_table(pa.table({"id": pa.array([], pa.string()),
                             "w": pa.array([], pa.int64())}),
                   str(src / "00002.parquet"))
    schema = {"type": "object",
              "properties": {"w": {"type": "integer", "minimum": 10}}}
    report = ValidationPipeline(schema, str(src), str(tmp_path / "out"),
                                key_column="id").run()
    metrics = {p: r["metrics"] for p, r in report["partitions"].items()}
    assert metrics == {"00000": {"rows": 3, "violation_rows": 2},
                       "00001": {"rows": 2, "violation_rows": 2},
                       "00002": {"rows": 0, "violation_rows": 0}}
    assert report["valid"] is False


def test_cli_dump(capsys):
    from jsschema_ray.cli import main

    schema = os.path.join(os.path.dirname(__file__), "fixtures",
                          "business.json")
    rc = main(["dump", "--schema", schema])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert "definitions" in out


def _count_executions(monkeypatch) -> list:
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    executions = []
    execute = StreamingExecutor.execute

    def counting_execute(self, *args, **kwargs):
        executions.append(1)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counting_execute)
    return executions


def test_image_schema_pass_is_at_most_two_executions(img_dir, ray_session,
                                                     tmp_path, monkeypatch):
    """P1 and the x-stats, x-drift, x-referential and x-decode map sides
    share one scan; only x-uniqueness runs an execution of its own."""
    import ray.data as rd

    src, _ = img_dir
    profile = build_profile(
        rd.read_parquet(src, columns=["w", "h", "caption"]),
        ["w", "h", "caption_len"], batch_size=2048,
    )
    executions = _count_executions(monkeypatch)
    report = ValidationPipeline(IMAGE_SCHEMA, src, str(tmp_path / "out"),
                                drift_profile=profile).run()
    assert len(executions) <= 2
    assert all(k in report for k in GLOBAL_SECTIONS + ("drift",))


def test_pass_without_extensions_is_one_execution(img_dir, ray_session,
                                                  tmp_path, monkeypatch):
    src, _ = img_dir
    schema = {k: v for k, v in IMAGE_SCHEMA.items() if not k.startswith("x-")}
    executions = _count_executions(monkeypatch)
    report = ValidationPipeline(schema, src, str(tmp_path / "out")).run()
    assert len(executions) == 1
    assert len(report["partitions"]) == 4 and not report["valid"]


@pytest.mark.parametrize("shards, named", [
    # the same column names, but ``w`` typed int64 in one shard and string
    # in the other: not one table
    ({"00000": {"id": ["a", "b"], "w": [1, 2]}, "00001": {"id": ["c"],
                                                         "w": ["3"]}},
     ["00000.parquet", "00001.parquet", "w: int64", "w: string"]),
])
def test_refused_inputs_start_no_execution(ray_session, tmp_path,
                                           monkeypatch, shards, named):
    """The pass refuses inputs it cannot read as one table, naming the
    files, before any Ray execution starts."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    src = tmp_path / "in"
    src.mkdir()
    for name, cols in shards.items():
        pq.write_table(pa.table(cols), str(src / f"{name}.parquet"))
    executions = _count_executions(monkeypatch)
    with pytest.raises(ValueError) as err:
        ValidationPipeline({"type": "object"}, str(src),
                           str(tmp_path / "out"), key_column="id").run()
    for text in named:
        assert text in str(err.value)
    assert executions == []


def test_a_column_named_path_is_an_ordinary_column(ray_session, tmp_path):
    """A ``path`` column is validated like any other: its one bad row is
    reported under its own shard."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    src = tmp_path / "in"
    src.mkdir()
    pq.write_table(pa.table({"id": ["a", "b"], "path": ["/x", "/y"]}),
                   str(src / "00000.parquet"))
    pq.write_table(pa.table({"id": ["c", "d"], "path": ["/z", "rel"]}),
                   str(src / "00001.parquet"))
    schema = {"type": "object",
              "properties": {"path": {"type": "string", "pattern": "^/"}}}
    report = ValidationPipeline(schema, str(src), str(tmp_path / "out"),
                                key_column="id").run()
    assert {p: r["metrics"] for p, r in report["partitions"].items()} == {
        "00000": {"rows": 2, "violation_rows": 0},
        "00001": {"rows": 2, "violation_rows": 1}}
    vio, = report["partitions"]["00001"]["violation_files"]
    row, = pq.read_table(vio).to_pylist()
    assert (row["key"], row["column"], row["keyword"], row["observed"]) == (
        "d", "path", "pattern", "rel")
    assert report["valid"] is False


def test_scan_is_one_fused_task_per_shard(img_dir, ray_session, tmp_path,
                                          monkeypatch):
    """The scan is a single ``Input -> MapBatches(scan)`` plan with one
    task per shard, and every scan call reads one whole shard: each
    partial table it returns names a single partition, and there is
    exactly one P1 row per shard. The uniqueness pre-count runs inside the
    scan, so the only other execution is the reduce over the byte ranges
    of its files."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    from jsschema_ray.pipelines import validate_pipeline

    src, _ = img_dir
    dags, partials = [], []
    execute, unpack = StreamingExecutor.execute, validate_pipeline.unpack

    def spy_execute(self, dag, *args, **kwargs):
        dags.append(dag)
        return execute(self, dag, *args, **kwargs)

    def spy_unpack(blob):
        partials.append(unpack(blob))
        return partials[-1]

    monkeypatch.setattr(StreamingExecutor, "execute", spy_execute)
    monkeypatch.setattr(validate_pipeline, "unpack", spy_unpack)
    ValidationPipeline(IMAGE_SCHEMA, src, str(tmp_path / "out")).run()
    scans = [d for d in dags if "MapBatches(scan)" in d.name]
    assert len(scans) == 1
    scan, = scans
    assert scan.name == "MapBatches(scan)"
    assert [d.name for d in scan.input_dependencies] == ["Input"]
    assert scan.metrics.num_tasks_finished == 4  # the shard count
    p1 = [t for t in partials if "violation_rows" in t.column_names]
    stats = [t for t in partials if "tdigest" in t.column_names]
    assert p1 and stats
    for t in p1 + stats:
        assert len(set(t.column("partition").to_pylist())) == 1
    assert sorted(r["partition"] for t in p1 for r in t.to_pylist()) == [
        f"part-{i:05d}" for i in range(4)]
    # the uniqueness execution reads no input and sorts nothing: one map
    # over the byte ranges the scan reported, in at most F = 4 tasks (the
    # session's CPUs)
    uniq, = [d for d in dags if d is not scan]
    assert uniq.name == "MapBatches(reduce_part)"
    assert [d.name for d in uniq.input_dependencies] == ["Input"]
    assert 0 < uniq.metrics.num_tasks_finished <= 4


def test_two_passes_give_identical_global_sections(img_dir, ray_session,
                                                   tmp_path):
    """Two passes in one session, against the same drift profile object,
    give byte-identical sketch-decided sections: the partials do not depend
    on task timing, and the fold does not depend on their arrival order."""
    import ray.data as rd

    src, _ = img_dir
    profile = build_profile(
        rd.read_parquet(src, columns=["w", "h", "caption"]),
        ["w", "h", "caption_len"], batch_size=2048,
    )
    first, second = (
        ValidationPipeline(IMAGE_SCHEMA, src, str(tmp_path / f"out{i}"),
                           drift_profile=profile).run()
        for i in range(2))
    for k in GLOBAL_SECTIONS + ("drift",):
        assert json.dumps(first[k], sort_keys=True) == \
            json.dumps(second[k], sort_keys=True), k


def test_report_does_not_depend_on_row_groups(img_dir, ray_session,
                                              tmp_path):
    """The same rows as shards of one row group and as shards of 20-row
    row groups give byte-identical global sections and shard metrics: the
    scan reads a shard whole, so its sketch partials follow the shard, not
    the reader's blocks."""
    import pyarrow.parquet as pq
    import ray.data as rd

    src, _ = img_dir  # 2000-row shards, one row group each
    cut = str(tmp_path / "cut")
    write_image_dataset(cut, 8000, shards=4, violation_frac=0.02,
                        row_group_size=20)
    for d, groups in ((src, 1), (cut, 100)):
        assert {pq.read_metadata(f).num_row_groups for f in
                glob.glob(os.path.join(d, "*.parquet"))} == {groups}
    profile = build_profile(
        rd.read_parquet(src, columns=["w", "h", "caption"]),
        ["w", "h", "caption_len"], batch_size=2048,
    )
    whole, rgs = (ValidationPipeline(IMAGE_SCHEMA, d, str(tmp_path / f"o{i}"),
                                     drift_profile=profile).run()
                  for i, d in enumerate((src, cut)))
    for k in GLOBAL_SECTIONS + ("drift",):
        assert json.dumps(whole[k], sort_keys=True) == \
            json.dumps(rgs[k], sort_keys=True), k
    assert {p: r["metrics"] for p, r in whole["partitions"].items()} == {
        p: r["metrics"] for p, r in rgs["partitions"].items()}


def test_violation_files_are_fsynced_before_their_commit(tmp_path,
                                                         monkeypatch):
    """Each violation file, and its directory after the rename, is fsynced
    before the task returns, so a committed manifest lists only durable
    files. Runs the task-side writer in this process, on the batches of two
    shards, and commits its rows as the driver does."""
    import pyarrow.parquet as pq

    from jsschema_ray.pipelines import validate_pipeline
    from jsschema_ray.sources.synth import synth_image_table
    from jsschema_ray.stages.validate import ValidateBatch

    table, _ = synth_image_table(400, seed=3, violation_frac=0.25,
                                 with_bytes=False)
    meta = table.drop_columns(["bytes"])
    synced, fsync = [], os.fsync

    def spy_fsync(fd):
        st = os.fstat(fd)
        synced.append((st.st_dev, st.st_ino))
        return fsync(fd)

    def inode(path):
        st = os.stat(path)
        return st.st_dev, st.st_ino

    pipe = ValidationPipeline(IMAGE_SCHEMA, str(tmp_path), str(tmp_path / "out"))
    commit = CheckpointManifest.commit_partition

    def checked_commit(self, pid, path, metrics, violation_files, verdict,
                       **identity):
        for f in violation_files:
            assert inode(f) in synced
            assert inode(os.path.dirname(f)) in synced
        return commit(self, pid, path, metrics, violation_files, verdict,
                      **identity)

    monkeypatch.setattr(os, "fsync", spy_fsync)
    monkeypatch.setattr(CheckpointManifest, "commit_partition", checked_commit)
    stage = ValidateBatch(IMAGE_SCHEMA, mode="violations", key_column="image_id")
    rows = [validate_pipeline._write_violations(
        stage, data, pid, str(tmp_path / "out" / "violations"))
        for pid, data in (("a", meta.slice(0, 150)), ("b", meta.slice(150)))]
    ids = table.column("image_id").to_pylist()
    shard_ids = {"a": set(ids[:150]), "b": set(ids[150:])}
    assert sorted(r["partition"] for r in rows) == ["a", "b"]
    for r in rows:  # each shard's violations in its own file
        keys = pq.read_table(r["file"]).column("key").to_pylist()
        assert len(keys) == r["violation_rows"] > 0
        assert set(keys) <= shard_ids[r["partition"]]
    # the file before its rename, then its directory after it
    assert len(synced) == 2 * len(rows)
    for r in rows:
        pipe._commit(r["partition"], r["partition"] + ".parquet", r["rows"],
                     r["violation_rows"], [r["file"]])
    assert set(pipe.manifest.committed()) == {"a", "b"}


def _files(out: str) -> dict[str, str]:
    return {f: _sha(f) for f in glob.glob(
        os.path.join(out, "violations", "**", "*"), recursive=True)
        if os.path.isfile(f)}


def test_full_resume_writes_no_violation_file(img_dir, ray_session,
                                              tmp_path):
    """With every shard committed the scan still runs for the global
    constraints, but P1 writes nothing and commits nothing."""
    src, _ = img_dir
    out = str(tmp_path / "out")
    first = ValidationPipeline(IMAGE_SCHEMA, src, out).run()
    written = _files(out)
    again = ValidationPipeline(IMAGE_SCHEMA, src, out).run()
    assert again["partitions_resumed"] == 4
    assert _files(out) == written
    assert again["partitions"] == first["partitions"]
    for k in GLOBAL_SECTIONS:
        assert again[k] == first[k]


def _two_shards(src) -> None:
    import pyarrow as pa
    import pyarrow.parquet as pq

    src.mkdir()
    for i in range(2):
        pq.write_table(pa.table({"id": [f"{i}-{j}" for j in range(10)],
                                 "w": list(range(10))}),
                       str(src / f"part-{i}.parquet"))


def _w_at_most(limit: int) -> dict:
    return {"type": "object",
            "properties": {"w": {"type": "integer", "maximum": limit}}}


def test_resume_under_another_schema_is_refused(ray_session, tmp_path):
    """A pass of schema B over an output dir committed under schema A is
    refused, naming the dir, instead of reporting A's verdicts as B's;
    ``resume=False`` revalidates every shard under B."""
    src, out = tmp_path / "in", str(tmp_path / "out")
    _two_shards(src)
    assert ValidationPipeline(_w_at_most(100), str(src), out,
                              key_column="id").run()["valid"] is True
    b = ValidationPipeline(_w_at_most(4), str(src), out, key_column="id")
    with pytest.raises(ValueError, match=out):
        b.run()
    report = b.run(resume=False)
    assert report["valid"] is False
    assert report["partitions_resumed"] == 0
    # B's own commits resume under B
    again = ValidationPipeline(_w_at_most(4), str(src), out,
                               key_column="id").run()
    assert again["partitions_resumed"] == 2
    assert again["valid"] is False


def test_resume_recomputes_a_rewritten_shard(ray_session, tmp_path):
    """A shard rewritten since its commit is validated again, and its old
    violation files go; the unchanged shard is not."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    src, out = tmp_path / "in", str(tmp_path / "out")
    _two_shards(src)
    schema = _w_at_most(5)
    first = ValidationPipeline(schema, str(src), out, key_column="id").run()
    assert first["partitions"]["part-0"]["metrics"] == {
        "rows": 10, "violation_rows": 4}
    old_files = first["partitions"]["part-0"]["violation_files"]
    pq.write_table(pa.table({"id": ["new"], "w": [10 ** 6]}),
                   str(src / "part-0.parquet"))
    report = ValidationPipeline(schema, str(src), out, key_column="id").run()
    assert report["partitions_resumed"] == 1
    assert report["partitions"]["part-1"] == first["partitions"]["part-1"]
    rec = report["partitions"]["part-0"]
    assert rec["metrics"] == {"rows": 1, "violation_rows": 1}
    assert rec["shard"]["rows"] == 1
    assert set(glob.glob(os.path.join(out, "violations", "partition=part-0",
                                      "*"))) == set(rec["violation_files"])
    assert not set(old_files) & set(rec["violation_files"])
    assert pq.read_table(rec["violation_files"][0]).column(
        "key").to_pylist() == ["new"]


def test_removed_shard_leaves_the_verdict(ray_session, tmp_path):
    """The record of a shard deleted from the input neither enters the
    report nor decides its verdict, and after a ``resume=False`` pass
    under another schema it does not refuse the next resume."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    src, out = tmp_path / "in", str(tmp_path / "out")
    src.mkdir()
    for i, w in enumerate((1, 99)):  # part-1 breaks the maximum
        pq.write_table(pa.table({"id": [f"r{i}"], "w": [w]}),
                       str(src / f"part-{i}.parquet"))
    first = ValidationPipeline(_w_at_most(5), str(src), out,
                               key_column="id").run()
    assert first["valid"] is False
    os.remove(src / "part-1.parquet")
    report = ValidationPipeline(_w_at_most(5), str(src), out,
                                key_column="id").run()
    assert report["partitions_total"] == 1
    assert list(report["partitions"]) == ["part-0"]
    assert report["valid"] is True
    # part-1's record still carries the old schema; it refuses nothing
    ValidationPipeline(_w_at_most(0), str(src), out,
                       key_column="id").run(resume=False)
    again = ValidationPipeline(_w_at_most(0), str(src), out,
                               key_column="id").run()
    assert again["partitions_resumed"] == 1
    assert again["valid"] is False


_KILLED_CHILD = """
import json, os, signal, sys

import ray

src, out, temp_dir, schema = sys.argv[1:5]
ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR", _temp_dir=temp_dir)
from ray.data import DataContext

DataContext.get_current().enable_progress_bars = False
from jsschema_ray.pipelines.manifest import CheckpointManifest
from jsschema_ray.pipelines.validate_pipeline import ValidationPipeline

commit = CheckpointManifest.commit_partition


def commit_then_die(self, *args, **kwargs):
    rec = commit(self, *args, **kwargs)
    os.kill(os.getpid(), signal.SIGKILL)
    return rec


CheckpointManifest.commit_partition = commit_then_die
ValidationPipeline(json.loads(schema), src, out).run()
"""


def _sha(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _shard_rows(rec: dict) -> list:
    import pyarrow.parquet as pq

    rows = []
    for f in rec["violation_files"]:
        rows += [tuple(r.values()) for r in pq.read_table(f).to_pylist()]
    return sorted(rows)


def _comparable(report: dict) -> dict:
    """report.json without commit times, output paths and the resume
    count."""
    out = {k: v for k, v in report.items() if k != "partitions_resumed"}
    out["partitions"] = {
        p: {k: v for k, v in rec.items()
            if k not in ("committed_at", "violation_files")}
        for p, rec in report["partitions"].items()}
    return out


def test_killed_run_resumes_to_the_same_report(ray_session, tmp_path):
    """A child process with its own Ray session SIGKILLs itself right after
    the first shard commit; the resumed run gives the uninterrupted run's
    report and violation rows and leaves the committed shard untouched."""
    src = str(tmp_path / "in")
    # 80-row row groups over 200-row shards: the scan reads each shard
    # whole all the same, in one call
    write_image_dataset(src, 1600, shards=8, violation_frac=0.05,
                        row_group_size=80)
    full, killed = str(tmp_path / "full"), str(tmp_path / "killed")
    ValidationPipeline(IMAGE_SCHEMA, src, full).run()

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [repo] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    # Ray's socket paths live under the temp dir: keep it short
    temp_dir = tempfile.mkdtemp(prefix="kill-", dir="/tmp")
    child = subprocess.Popen(
        [sys.executable, "-c", _KILLED_CHILD, src, killed, temp_dir,
         json.dumps(IMAGE_SCHEMA)],
        env=env, start_new_session=True, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE)
    try:
        _, err = child.communicate(timeout=120)
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)  # the child's Ray processes
        except ProcessLookupError:
            pass
        shutil.rmtree(temp_dir, ignore_errors=True)
    assert child.returncode == -signal.SIGKILL, err.decode()[-2000:]
    before = CheckpointManifest(killed).committed()
    assert len(before) == 1
    (pid, rec), = before.items()
    shas = {f: _sha(f) for f in rec["violation_files"]}

    got = ValidationPipeline(IMAGE_SCHEMA, src, killed).run()
    assert got["partitions_resumed"] == 1
    with open(os.path.join(full, "report.json")) as f:
        want = json.load(f)
    with open(os.path.join(killed, "report.json")) as f:
        assert _comparable(json.load(f)) == _comparable(want)
    # no shard counted twice: each holds exactly the rows of the
    # uninterrupted run, and its directory only the files it lists
    for p, mine in got["partitions"].items():
        assert _shard_rows(mine) == _shard_rows(want["partitions"][p])
        assert len(_shard_rows(mine)) == mine["metrics"]["violation_rows"]
        listed = set(mine["violation_files"])
        assert set(glob.glob(os.path.join(killed, "violations",
                                          f"partition={p}", "*"))) == listed
        assert not glob.glob(os.path.join(killed, "violations",
                                          f"partition={p}", ".*"))
    # the shard committed before the kill was not recomputed
    assert got["partitions"][pid] == rec
    assert {f: _sha(f) for f in rec["violation_files"]} == shas

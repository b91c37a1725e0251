"""x-uniqueness in the validation pipeline: the scan writes each shard's
key pre-counts, split by part, to one small file, and one map reduces each
part from the byte ranges the scan reported, without a shuffle.
The report's uniqueness sections must equal ``uniqueness_reports`` over
the input itself, whatever the key type."""

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from jsschema_ray.pipelines import validate_pipeline
from jsschema_ray.pipelines.validate_pipeline import ValidationPipeline
from jsschema_ray.stages.uniqueness import _precount, uniqueness_reports

KEYS = ["id", "f", "big", "b"]
BIG = 2 ** 60

SHARDS = [
    # duplicates within one shard ("a", 0.5, BIG, b"x") and across shards
    {"id": ["a", "a", "b", None, "c"],
     "f": [0.5, 0.5, -0.0, 1.5, None],
     "big": [BIG, BIG, BIG + 1, 7, None],
     "b": [b"x", b"x", b"y", None, b"z"]},
    {"id": ["b", None, "d", "e", "f"],
     "f": [0.0, 2.5, 3.5, None, 4.5],
     "big": [BIG + 2, BIG + 1, 8, 9, None],
     "b": [b"y", None, b"w", b"v", b"u"]},
    {"id": ["c", "g", "h", "h", "h"],
     "f": [5.5, 6.5, 7.5, 8.5, 9.5],
     "big": [10, 11, 12, 13, BIG - 1],
     "b": [b"z", b"t", b"s", b"r", b"q"]},
]
TYPES = {"id": pa.string(), "f": pa.float64(), "big": pa.int64(),
         "b": pa.binary()}
SCHEMA = {"type": "object",
          "x-uniqueness": [{"column": c} for c in KEYS]}


@pytest.fixture(scope="module")
def key_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("keys")
    for i, cols in enumerate(SHARDS):
        pq.write_table(pa.table({c: pa.array(v, TYPES[c])
                                 for c, v in cols.items()}),
                       str(d / f"part-{i:05d}.parquet"), row_group_size=2)
    return str(d)


def _run(src: str, out: str) -> dict:
    return ValidationPipeline(SCHEMA, src, out, key_column="id").run()


def test_sections_equal_uniqueness_reports_over_the_input(key_dir,
                                                          ray_session,
                                                          tmp_path):
    import ray.data as rd

    got = {u.pop("column"): u for u in _run(key_dir, str(tmp_path / "out"))
           ["uniqueness"]}
    want = uniqueness_reports(rd.read_parquet(key_dir), KEYS)
    for c in KEYS:
        assert got[c].pop("report_only") is False
        want[c].pop("column")
        assert got[c] == want[c], c  # top_duplicates order included
    # and by hand: a null key counts as a key, -0.0 and +0.0 are one key,
    # keys near 2**60 stay exact
    assert got["id"]["dup_keys"] == 5  # a, b, c, h, null
    assert got["id"]["top_duplicates"][0] == {"id": "h", "dup_count": 3}
    assert {"f": 0.0, "dup_count": 2} in got["f"]["top_duplicates"]
    assert {"big": BIG + 1, "dup_count": 2} in got["big"]["top_duplicates"]
    assert got["big"]["dup_keys"] == 3  # BIG, BIG + 1, null
    assert got["b"]["dup_keys"] == 4  # x, y, z, null


def test_one_input_read_and_the_exchange_reads_only_reported_files(
        key_dir, ray_session, tmp_path, monkeypatch):
    """The scan is handed exactly the input shards, and no Ray parquet
    read runs in a pass. The reduce is handed exactly the byte ranges the
    scan reported, in one pre-count file per scan call and one scan call
    per shard (each of 3 row groups), so a stray file planted under
    ``precount/`` during the pass does not reach the report; no
    ``precount/`` outlives the pass; the exchange carries at most scan
    calls x key columns x F ranges; and no execution sorts."""
    import ray.data as rd
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    from jsschema_ray.stages.exchange import fanout

    want = _run(key_dir, str(tmp_path / "clean"))["uniqueness"]
    out = str(tmp_path / "out")
    planted = _precount(KEYS, 4)(pa.table({
        "id": ["zz"] * 4, "f": [1.0] * 4, "big": [1] * 4, "b": [b"zz"] * 4}))

    reads, scanned, reported, handed, calls, names = [], [], [], [], [], []
    read_parquet, from_items = rd.read_parquet, rd.from_items
    unpack, execute = validate_pipeline.unpack, StreamingExecutor.execute

    def spy_read(paths, **kwargs):
        reads.append(sorted([paths] if isinstance(paths, str) else paths))
        return read_parquet(paths, **kwargs)

    def spy_unpack(blob):
        t = unpack(blob)
        if "offset" in t.column_names:
            if not reported:  # the pass has begun: plant a stray file
                stray = os.path.join(out, "precount", "partition=part-00000")
                os.makedirs(stray, exist_ok=True)
                with open(os.path.join(stray, "stray"), "wb") as f:
                    f.writelines(planted.column("blob").to_pylist())
            reported.extend(zip(*(t.column(c).to_pylist()
                                  for c in ("file", "offset", "length"))))
        if "violation_rows" in t.column_names:  # one P1 row per scan call
            calls.extend(t.column("partition").to_pylist())
        return t

    def spy_from_items(items, **kwargs):
        if "path" in items[0]:  # the scan's shards
            scanned.append(sorted(item["path"] for item in items))
        else:
            handed.extend((r["file"], r["offset"], r["length"])
                          for item in items for r in item["ranges"])
        return from_items(items, **kwargs)

    def spy_execute(self, dag, *args, **kwargs):
        op = dag
        while op.input_dependencies:
            names.append(op.name)
            op, = op.input_dependencies
        return execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(rd, "read_parquet", spy_read)
    monkeypatch.setattr(rd, "from_items", spy_from_items)
    monkeypatch.setattr(validate_pipeline, "unpack", spy_unpack)
    monkeypatch.setattr(StreamingExecutor, "execute", spy_execute)
    got = _run(key_dir, out)

    assert got["uniqueness"] == want
    inputs = sorted(glob.glob(os.path.join(key_dir, "*.parquet")))
    assert reads == []
    assert scanned == [inputs]
    assert sorted(handed) == sorted(reported)
    files = {path for path, _, _ in reported}
    assert all(p.startswith(os.path.join(out, "precount") + os.sep)
               for p in files)
    assert not os.path.exists(os.path.join(out, "precount"))
    # one scan call per shard, whatever its row groups, and one file each
    assert len(files) == len(calls) == len(inputs)
    assert len(reported) <= len(calls) * len(KEYS) * fanout(15)
    assert names and not [n for n in names if "Sort" in n]


def test_shards_without_rows_give_typed_empty_sections(ray_session,
                                                       tmp_path,
                                                       monkeypatch):
    """0-row shards leave no pre-count file; the empty duplicate tables
    are typed from the footer, and no ``Limit[1]`` schema probe runs."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    src = tmp_path / "in"
    src.mkdir()
    for i in range(2):
        pq.write_table(pa.table({"k": pa.array([], pa.int64()),
                                 "s": pa.array([], pa.string())}),
                       str(src / f"part-{i:05d}.parquet"))
    names, execute = [], StreamingExecutor.execute

    def spy_execute(self, dag, *args, **kwargs):
        op = dag
        while op.input_dependencies:
            names.append(op.name)
            op = op.input_dependencies[0]
        return execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", spy_execute)
    schema = {"type": "object",
              "x-uniqueness": [{"column": "k"}, {"column": "s"}]}
    report = ValidationPipeline(schema, str(src), str(tmp_path / "out"),
                                key_column="s").run()
    assert [(u["column"], u["dup_keys"], u["dup_rows"])
            for u in report["uniqueness"]] == [("k", 0, 0), ("s", 0, 0)]
    assert report["valid"] is True
    assert names and not [n for n in names if "Limit" in n]

"""The violations table of the row-local stage is built from Arrow arrays.
These tests pin it, byte for byte, to the per-row Python build it replaced
(kept below as the oracle), and guard the P1 hot path against per-row
Python: one partition id per scan call, no per-value formatting of string
and integer columns, and violations attributed to their own shard when a
shard has several row groups."""

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

from jsschema_ray.pipelines import validate_pipeline
from jsschema_ray.pipelines.image_schema import IMAGE_SCHEMA
from jsschema_ray.pipelines.manifest import partition_id_for
from jsschema_ray.pipelines.validate_pipeline import ValidationPipeline
from jsschema_ray.sources.synth import synth_image_table
from jsschema_ray.stages import validate
from jsschema_ray.kernels.columnar import eval_table
from jsschema_ray.stages.validate import (
    ValidateBatch, _column_of, _obs, expected_text,
)


def _oracle_violations(stage: ValidateBatch, batch: pa.Table) -> pa.Table:
    """The per-row build of the violations table, as it was before the
    columnar one: ``str`` of every key, ``_obs`` of every observed value."""
    collector: list = []
    eval_table(stage.dag, batch, collector)
    keys, cols, paths, kws, observed, expected = [], [], [], [], [], []
    key_arr = (
        batch.column(stage.key_column).combine_chunks()
        if stage.key_column and stage.key_column in batch.column_names
        else None
    )
    for path, kw, idx in collector:
        col = _column_of(path, kw)
        col_arr = (
            batch.column(col).combine_chunks()
            if col in batch.column_names
            else None
        )
        take = pa.array(idx)
        vals = (
            col_arr.take(take).to_pylist()
            if col_arr is not None
            else [None] * len(idx)
        )
        kvals = (
            key_arr.take(take).to_pylist() if key_arr is not None else idx
        )
        exp = expected_text(stage.dag, path, kw) if len(idx) else ""
        for k, v in zip(kvals, vals):
            keys.append(str(k))
            cols.append(col)
            paths.append(path)
            kws.append(kw)
            observed.append(_obs(v))
            expected.append(exp)
    return pa.table(
        {
            "key": pa.array(keys, type=pa.string()),
            "column": pa.array(cols, type=pa.string()),
            "path": pa.array(paths, type=pa.string()),
            "keyword": pa.array(kws, type=pa.string()),
            "observed": pa.array(observed, type=pa.string()),
            "expected": pa.array(expected, type=pa.string()),
        }
    )


def _assert_golden(schema: dict, batch: pa.Table, key_column) -> pa.Table:
    stage = ValidateBatch(schema, mode="violations", key_column=key_column)
    got = stage(batch)
    want = _oracle_violations(stage, batch)
    assert got.schema == want.schema
    assert got.equals(want), (got.slice(0, 5).to_pylist(),
                              want.slice(0, 5).to_pylist())
    return got


# IMAGE_SCHEMA without the payload column and the x-* keywords
ROWLOCAL_SCHEMA = {
    "type": "object",
    "required": [r for r in IMAGE_SCHEMA["required"] if r != "bytes"],
    "properties": {k: v for k, v in IMAGE_SCHEMA["properties"].items()
                   if k != "bytes"},
}

MIXED_SCHEMA = {
    "type": "object",
    "required": ["s", "i", "f", "b", "n", "ghost"],
    "properties": {
        "s": {"type": "string", "pattern": "^ok"},
        "ls": {"type": "string", "maxLength": 2},
        "d": {"type": "string", "enum": ["x"]},
        "i": {"type": "integer", "minimum": 0},
        "u": {"type": "integer", "maximum": 10},
        "f": {"type": "number", "maximum": 0},
        "b": {"enum": [False]},
        "n": {"type": "null"},
    },
}


def _mixed_batch() -> pa.Table:
    return pa.table({
        "s": pa.array(["ok1", "bad", None, "nope", "ok2", "zz"]),
        "ls": pa.array(["ab", "abc", None, "d" * 130, "é" * 5, "ü"],
                       pa.large_string()),
        "d": pa.array(["x", "y", None, "z", "x", "y"]).dictionary_encode(),
        "i": pa.array([1, -2, None, -(2**62), 0, -1], pa.int64()),
        "u": pa.array([1, 11, None, 2**64 - 1, 10, 200], pa.uint64()),
        "f": pa.array([1.0, -0.5, None, 2.5e300, float("nan"), 0.1]),
        "b": pa.array([True, False, None, True, None, True]),
        "n": pa.nulls(6),
        "k_int": pa.array([10, 11, None, 13, 14, 15], pa.int32()),
        "k_float": pa.array([1.0, 2.0, 3.5, None, 5.0, 6.0]),
    })


def test_golden_synth_image_batch():
    table, _ = synth_image_table(600, seed=11, violation_frac=0.25)
    got = _assert_golden(IMAGE_SCHEMA, table, "image_id")
    assert got.num_rows > 100
    # the binary payload column goes through the per-value fallback
    assert _assert_golden(IMAGE_SCHEMA, table, "bytes").num_rows == \
        got.num_rows


@pytest.mark.parametrize("key_column", ["s", "ls", "k_int", "k_float", "b"])
def test_golden_mixed_types(key_column):
    got = _assert_golden(MIXED_SCHEMA, _mixed_batch(), key_column)
    observed = set(got.column("observed").to_pylist())
    # str() of the Python value: 1.0 stays "1.0", True stays "True"
    assert {"1.0", "True", "None", "-2", "18446744073709551615"} <= observed


def test_golden_long_non_ascii():
    long_obs = "é" * 119 + "ü" * 11  # 130 code points, 260 UTF-8 bytes
    batch = pa.table({
        "k": pa.array(["ключ" * 40, "k2", "k3", "k4"]),
        "s": pa.array([long_obs, "ü" * 121, "x" * 120, "ab"]),
    })
    got = _assert_golden(
        {"properties": {"s": {"type": "string", "maxLength": 1}}}, batch, "k")
    obs = got.column("observed").to_pylist()
    assert obs[0] == "é" * 117 + "..." and obs[2] == "x" * 120
    assert got.column("key").to_pylist()[0] == "ключ" * 40  # keys not cut


def test_golden_missing_key_and_absent_required_column():
    batch = _mixed_batch()
    got = _assert_golden(MIXED_SCHEMA, batch, "no_such_column")
    assert set(got.column("key").to_pylist()) <= {str(i) for i in range(6)}
    ghost = got.filter(pc.equal(got.column("column"), "ghost"))
    assert ghost.num_rows == 6
    assert set(ghost.column("observed").to_pylist()) == {"None"}
    assert _assert_golden(MIXED_SCHEMA, batch, None).equals(got)


def test_golden_no_violations():
    batch = pa.table({"s": pa.array(["ok"])})
    got = _assert_golden({"properties": {"s": {"pattern": "^ok"}}}, batch,
                         "s")
    assert got.num_rows == 0


def test_string_and_int_columns_skip_per_value_formatting(monkeypatch):
    calls = []

    def counting_obs(v):
        calls.append(v)
        return _obs(v)

    monkeypatch.setattr(validate, "_obs", counting_obs)
    table, _ = synth_image_table(600, seed=11, violation_frac=0.25,
                                 with_bytes=False)
    stage = ValidateBatch(ROWLOCAL_SCHEMA, mode="violations",
                          key_column="image_id")
    # the string and integer columns, as P1 reads them (payload pruned)
    assert stage(table.drop_columns(["bytes"])).num_rows > 100
    assert calls == []
    # the fallback still runs for a float column: the patch is in effect
    stage = ValidateBatch({"properties": {"f": {"maximum": 0}}},
                          mode="violations", key_column="f")
    assert stage(pa.table({"f": [1.0, 2.0]})).num_rows == 2
    assert calls == [1.0, 2.0]


SHARDS = ("00000", "00001", "00002")
ROWS_PER_SHARD = 300


@pytest.fixture(scope="module")
def three_shards(tmp_path_factory):
    d = tmp_path_factory.mktemp("three_shards")
    tables = {}
    for i, name in enumerate(SHARDS):
        t, _ = synth_image_table(ROWS_PER_SHARD, seed=5, violation_frac=0.25,
                                 with_bytes=False,
                                 row_offset=i * ROWS_PER_SHARD)
        t = t.drop_columns(["bytes"]).append_column(
            "shard", pa.array([name] * t.num_rows))
        # 100-row row groups: the scan reads each shard whole all the
        # same, in one call
        pq.write_table(t, os.path.join(d, f"{name}.parquet"),
                       row_group_size=100)
        tables[name] = t
    return str(d), tables


def test_partition_ids_per_scan_call(three_shards, ray_session, tmp_path,
                                     monkeypatch):
    """A pass names each shard by its partition id, and the scan calls
    ``partition_id_for`` at most once per call, not once per row."""
    import ray.cloudpickle

    src, tables = three_shards
    log = tmp_path / "calls.txt"
    real = partition_id_for

    def counting_partition_id_for(path):
        with open(log, "a") as f:  # called in Ray workers too
            f.write(f"{os.getpid()} {path}\n")
        return real(path)

    calls, unpack = [], validate_pipeline.unpack

    def spy_unpack(blob):  # the scan's rows, on the driver
        calls.append(unpack(blob))
        return calls[-1]

    monkeypatch.setattr(validate_pipeline, "partition_id_for",
                        counting_partition_id_for)
    monkeypatch.setattr(validate_pipeline, "unpack", spy_unpack)
    # the scan's helpers reach the workers with the patched global
    ray.cloudpickle.register_pickle_by_value(validate_pipeline)
    try:
        report = ValidationPipeline(ROWLOCAL_SCHEMA, src,
                                    str(tmp_path / "out")).run()
    finally:
        ray.cloudpickle.unregister_pickle_by_value(validate_pipeline)
    assert {p: r["metrics"]["rows"] for p, r in
            report["partitions"].items()} == {s: ROWS_PER_SHARD
                                               for s in SHARDS}
    written = pads.dataset(
        os.path.join(str(tmp_path / "out"), "violations"),
        partitioning=pads.partitioning(
            pa.schema([("partition", pa.string())]), flavor="hive"),
    ).to_table()
    for name, table in tables.items():
        mine = written.filter(pc.equal(written["partition"], name))
        assert 0 < mine.num_rows
        assert set(mine.column("key").to_pylist()) <= set(
            table.column("image_id").to_pylist())
    # one P1 row per scan call, and one scan call per shard
    p1 = [t for t in calls if "violation_rows" in t.column_names]
    assert all(t.num_rows == 1 for t in p1)
    assert len(p1) == len(SHARDS)
    in_workers = [line.split(" ", 1)[1] for line in
                  log.read_text().splitlines()
                  if int(line.split(" ", 1)[0]) != os.getpid()]
    assert len(SHARDS) <= len(in_workers) <= len(p1)
    assert {real(p) for p in in_workers} == set(SHARDS)


@pytest.mark.parametrize("key_column", ["image_id", None])
def test_violations_attributed_to_their_shard(three_shards, ray_session,
                                              tmp_path, key_column):
    src, tables = three_shards
    out = str(tmp_path / "out")
    report = ValidationPipeline(ROWLOCAL_SCHEMA, src, out,
                                key_column=key_column).run(resume=False)
    written = pads.dataset(
        os.path.join(out, "violations"),
        partitioning=pads.partitioning(
            pa.schema([("partition", pa.string())]), flavor="hive"),
    ).to_table()
    stage = ValidateBatch(ROWLOCAL_SCHEMA, mode="violations",
                          key_column=key_column)
    # without a key column the key is the row index within the shard
    cols = ["key", "column", "path", "keyword", "observed", "expected"]
    cols = cols if key_column else cols[1:]
    for name, table in tables.items():
        # each shard validated on its own is the reference
        want = sorted(tuple(r.values()) for r in
                      _oracle_violations(stage, table).select(cols)
                      .to_pylist())
        mine = written.filter(pc.equal(written["partition"], name))
        got = sorted(tuple(r.values()) for r in
                     mine.select(cols).to_pylist())
        assert got == want and len(want) > 0
        if key_column is None:
            assert all(0 <= int(k) < ROWS_PER_SHARD
                       for k in mine.column("key").to_pylist())
        metrics = report["partitions"][name]["metrics"]
        assert metrics == {"rows": ROWS_PER_SHARD,
                           "violation_rows": len(want)}
    assert report["valid"] is False

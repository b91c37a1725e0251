"""Global constraints over Ray: uniqueness (with skew) and referential
integrity, cross-checked against exact pandas computations."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from jsschema_ray.sources.synth import synth_image_table
from jsschema_ray.stages.referential import (
    _miss_partial,
    _miss_report,
    referential_violations,
)
from jsschema_ray.stages.uniqueness import duplicate_keys, uniqueness_reports


@pytest.fixture(scope="module")
def img_ds(ray_session):
    import ray.data as rd

    table, manifest = synth_image_table(20_000, seed=42, violation_frac=0.03,
                                        with_bytes=False)
    return rd.from_arrow(table).repartition(8), table, manifest


def test_duplicate_keys_exact(img_ds):
    ds, table, manifest = img_ds
    got = {r["image_id"]: r["dup_count"] for r in
           duplicate_keys(ds, "image_id", batch_size=2048).take_all()}
    vc = pd.Series(table.column("image_id").to_pylist()).value_counts()
    want = vc[vc > 1].to_dict()
    assert got == want
    assert set(manifest["dup_image_id"]) <= set(got)


def test_uniqueness_violations_rows(img_ds):
    """The report counts every row of a duplicated key."""
    ds, table, manifest = img_ds
    ids = pd.Series(table.column("image_id").to_pylist())
    dup_ids = set(ids[ids.duplicated(keep=False)])
    assert set(manifest["dup_image_id"]) <= dup_ids
    rep = uniqueness_reports(ds, ["image_id"], batch_size=2048)["image_id"]
    assert rep["dup_keys"] == len(dup_ids)
    assert rep["dup_rows"] == int(ids.isin(dup_ids).sum())


def test_phash_skew_top_duplicates(img_ds):
    """The report's top_duplicates section finds the Zipf-hot phash."""
    ds, table, _ = img_ds
    top = uniqueness_reports(ds, ["phash"], batch_size=2048)["phash"][
        "top_duplicates"]
    vc = pd.Series(table.column("phash").to_pylist()).value_counts()
    assert top[0]["dup_count"] == int(vc.iloc[0])  # hottest key found
    assert top[0]["phash"] == int(vc.index[0])
    assert [r["dup_count"] for r in top] == sorted(
        [r["dup_count"] for r in top], reverse=True
    )
    # Zipf skew is real: hottest phash dominates
    assert top[0]["dup_count"] > 1000


def test_no_duplicates_empty_result(ray_session):
    import ray.data as rd

    ds = rd.from_arrow(pa.table({"k": [f"u{i}" for i in range(5000)]}))
    assert duplicate_keys(ds, "k").count() == 0
    assert uniqueness_reports(ds, ["k"]) == {
        "k": {"column": "k", "dup_keys": 0, "dup_rows": 0}}


def _uniqueness_table() -> pa.Table:
    """sku: a/b tie at 3 rows, c/null tie at 2 and twelve more keys at 2
    (so the top-10 cut drops some); n: 7 and null tie at 3; uid: unique."""
    sku = ["b", "a", "b", "a", "b", "a", "c", None, "c", None, "d"]
    for i in range(12):
        sku += [f"e{i:02d}", f"e{i:02d}"]
    sku += [f"u{i}" for i in range(9)]
    n = [7, 7, 7, None, None, None, 2, 2] + list(range(100, 100 + len(sku) - 8))
    return pa.table({"sku": sku, "n": pa.array(n, type=pa.int64()),
                     "uid": [f"id{i}" for i in range(len(sku))]})


def _pandas_uniqueness(table: pa.Table, spec: dict) -> dict:
    """The x-uniqueness report entry from pandas ``value_counts`` (null is a
    key); top_duplicates by dup_count descending, then key ascending with
    the null key last."""
    column = spec["column"]
    vc = pd.Series(table.column(column).to_pylist(),
                   dtype=object).value_counts(dropna=False)
    dup = [(None if pd.isna(key) else key, int(cnt))
           for key, cnt in vc.items() if cnt > 1]
    dup.sort(key=lambda kc: (-kc[1], kc[0] is None, kc[0]))
    rep = {"column": column, "dup_keys": len(dup),
           "dup_rows": sum(cnt for _, cnt in dup),
           "report_only": bool(spec.get("report_only", False))}
    if dup:
        rep["top_duplicates"] = [{column: key, "dup_count": cnt}
                                 for key, cnt in dup[:10]]
    return rep


def test_uniqueness_report_matches_pandas(ray_session, tmp_path):
    """The pipeline's uniqueness report equals pandas value_counts answers:
    dup_keys, dup_rows and the exact top_duplicates order (ties broken by
    key, null key included and ranked last among its tie), a column named
    twice, report_only, and a unique column with no top_duplicates."""
    import pyarrow.parquet as pq

    from jsschema_ray.pipelines.validate_pipeline import ValidationPipeline

    table = _uniqueness_table()
    src = tmp_path / "in"
    src.mkdir()
    for i, lo in enumerate(range(0, table.num_rows, 15)):
        pq.write_table(table.slice(lo, 15), str(src / f"part-{i}.parquet"))
    specs = [{"column": "sku"}, {"column": "n", "report_only": True},
             {"column": "sku", "report_only": True}, {"column": "uid"}]
    report = ValidationPipeline(
        {"type": "object", "x-uniqueness": specs}, str(src),
        str(tmp_path / "out"), key_column="uid").run()
    assert report["uniqueness"] == [_pandas_uniqueness(table, s)
                                    for s in specs]


def test_top_duplicates_matches_pandas_null_key(ray_session, tmp_path):
    """uniqueness_reports' top_duplicates over several blocks, with a
    duplicated null key tied with a string key: the same keys and order
    as pandas, null last (a range-partitioned sort used to fail comparing
    the null key)."""
    import pyarrow.parquet as pq
    import ray.data as rd

    table = _uniqueness_table()
    for i, lo in enumerate(range(0, table.num_rows, 15)):
        pq.write_table(table.slice(lo, 15), str(tmp_path / f"p{i}.parquet"))
    ds = rd.read_parquet(str(tmp_path))
    got = uniqueness_reports(ds, ["sku"], batch_size=8)["sku"][
        "top_duplicates"]
    assert got == _pandas_uniqueness(table, {"column": "sku"})[
        "top_duplicates"]


def test_uniqueness_handler_runs_one_execution(ray_session, tmp_path,
                                               monkeypatch):
    """Two key columns share one exchange: after the scan has written its
    pre-count files, the x-uniqueness handler starts exactly one Ray Data
    execution."""
    import pyarrow.parquet as pq
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    from jsschema_ray.pipelines.validate_pipeline import ValidationPipeline
    from jsschema_ray.schema.registry import ConstraintContext, get_handler

    table = _uniqueness_table()
    for i, lo in enumerate(range(0, table.num_rows, 15)):
        pq.write_table(table.slice(lo, 15), str(tmp_path / f"p{i}.parquet"))
    specs = [{"column": "sku"}, {"column": "n", "report_only": True}]
    pipe = ValidationPipeline({"x-uniqueness": specs}, str(tmp_path),
                              str(tmp_path / "out"))
    files = pipe._input_files()
    pipe._partials = pipe._run_rowlocal(files, [])
    ctx = ConstraintContext(schema=pipe.schema, input_files=files,
                            pipeline=pipe)
    executions = []
    execute = StreamingExecutor.execute

    def counting_execute(self, *args, **kwargs):
        executions.append(1)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counting_execute)
    out = get_handler("x-uniqueness")(specs, ctx)
    assert len(executions) == 1
    assert [r["dup_keys"] for r in out] == [16, 3]


def test_referential_violations(img_ds):
    ds, table, manifest = img_ds
    vio = referential_violations(
        ds, "fmt", ["png", "jpeg", "webp", "bmp", "tiff"], batch_size=2048
    )
    got = {r["image_id"] for r in vio.take_all()}
    assert got == set(manifest["fmt_enum"])  # the injected "gif" rows


def test_miss_report_ignores_arrival_order():
    """The missing-key sample is the smallest distinct missing keys, the
    same whatever order the per-batch partials arrive in."""
    keys = pa.array(["png", "jpeg"])
    parts = [_miss_partial(pa.array(vals), keys).to_pylist()[0] for vals in
             (["gif", "png", "tga"], ["bmp", None, "gif"],
              [f"x{i:02d}" for i in range(12)])]
    want = _miss_report("fmt", parts)
    assert want["n_violations"] == 16
    assert want["missing_sample"] == ["bmp", "gif", "tga", "x00", "x01",
                                      "x02", "x03", "x04"]
    assert _miss_report("fmt", parts[::-1]) == want


def test_referential_against_dimension_dataset(ray_session):
    """A Dataset ref side: its keys are collected per batch and
    broadcast."""
    import pyarrow.parquet as pq
    import ray.data as rd

    # lineitem.l_orderkey ⊆ orders.o_orderkey on real testdata
    li = rd.read_parquet("/root/testdata/sf0.001/lineitem.parquet",
                         columns=["l_orderkey"])
    orders = rd.read_parquet("/root/testdata/sf0.001/orders.parquet",
                             columns=["o_orderkey"])
    assert referential_violations(li, "l_orderkey", orders,
                                  ref_column="o_orderkey",
                                  strategy="broadcast").count() == 0

    # negative control: restrict the ref side -> violations appear
    some = rd.read_parquet("/root/testdata/sf0.001/orders.parquet",
                           columns=["o_orderkey"]).limit(100).materialize()
    kept = {r["o_orderkey"] for r in some.take_all()}
    bad = [r["l_orderkey"] for r in referential_violations(
        li, "l_orderkey", some, ref_column="o_orderkey",
        strategy="broadcast").take_all()]
    assert bad and not kept & set(bad)
    li_keys = pq.read_table("/root/testdata/sf0.001/lineitem.parquet",
                            columns=["l_orderkey"]).column(0).to_pylist()
    assert len(bad) == sum(k not in kept for k in li_keys)


def test_referential_shuffle_strategy_matches_broadcast(ray_session):
    """The partitioned hash-anti-join fallback for large ref sides must
    produce exactly the broadcast path's violation rows, including the
    allow_null contract (null FKs pass)."""
    import pandas as pd

    import ray.data as rd

    from jsschema_ray.stages.referential import referential_violations

    fk = pd.DataFrame({
        "eid": range(12),
        "fk": [1, 2, 3, 99, None, 2, 98, 1, None, 97, 3, 96],
    })
    refd = pd.DataFrame({"k": [1, 2, 3, 4, 5]})
    ds = rd.from_pandas(fk).repartition(3)

    def rows(strategy):
        out = referential_violations(
            ds, "fk", rd.from_pandas(refd), ref_column="k",
            keep_columns=["eid", "fk"], strategy=strategy,
        ).to_pandas().sort_values("eid").reset_index(drop=True)
        return list(zip(out["eid"].astype(int), out["fk"].astype(int)))

    assert rows("shuffle") == rows("broadcast") == \
        [(3, 99), (6, 98), (9, 97), (11, 96)]


def test_stats_partition_grouping_arrow_native(ray_session):
    """r3: partition grouping is Arrow dictionary-encode + argsort (no
    pandas round-trip); null partition keys drop, matching the old pandas
    groupby semantics."""
    import pyarrow as pa
    import ray.data as rd

    from jsschema_ray.stages.stats import StatsSpec, collect_stats

    t = pa.table({
        "p": ["a", "b", None, "a", "b", None, "a"],
        "x": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
    })
    spec = StatsSpec(columns=["x"], partition_col="p")
    out = collect_stats(rd.from_arrow(t).repartition(2), spec)
    parts = {k[0] for k in out}
    assert parts == {"a", "b"}  # null keys dropped
    a = out[("a", "x")]
    assert a.count == 3 and a.min == 1.0 and a.max == 7.0 and a.sum == 12.0

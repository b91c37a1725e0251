"""Extension registry (the formalized Extras hook) + gated IO sources."""

import pytest

from jsschema_ray.schema.registry import (
    get_handler,
    register_constraint,
    registered_keywords,
)


def test_builtins_registered():
    import jsschema_ray.pipelines.validate_pipeline  # noqa: F401  (registers)

    kws = registered_keywords()
    for kw in ("x-uniqueness", "x-referential", "x-stats", "x-drift",
               "x-decode"):
        assert kw in kws


def test_register_requires_x_prefix():
    with pytest.raises(ValueError):
        register_constraint("uniqueness")


def test_custom_extension_runs_in_pipeline(ray_session, tmp_path):
    from jsschema_ray.pipelines.validate_pipeline import ValidationPipeline
    from jsschema_ray.sources.synth import write_image_dataset

    seen = {}

    @register_constraint("x-rowcount-floor")
    def check_rowcount(value, ctx):
        n = ctx.dataset().count()
        seen["n"] = n
        return {"rows": n, "passed": n >= value["min_rows"]}

    src = str(tmp_path / "src")
    write_image_dataset(src, 2000, shards=2, violation_frac=0.0)
    schema = {
        "type": "object",
        "properties": {"w": {"minimum": 1}},
        "x-rowcount-floor": {"min_rows": 1000},
        "x-unknown-keyword": {"whatever": True},
    }
    report = ValidationPipeline(schema, src, str(tmp_path / "out")).run()
    assert seen["n"] == 2000
    assert report["rowcount_floor"] == {"rows": 2000, "passed": True}
    # unknown x-* keywords are preserved and surfaced, not dropped
    assert report["unhandled_extensions"] == ["x-unknown-keyword"]
    assert report["valid"]  # no injected violations


def test_read_table_parquet_and_lance_gate(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from jsschema_ray.sources.io import read_table

    p = tmp_path / "t.parquet"
    pq.write_table(pa.table({"a": [1, 2, 3]}), str(p))
    ds = read_table(str(p), columns=["a"])
    assert ds.count() == 3

    with pytest.raises(ImportError, match="lance"):
        read_table("/nonexistent/data.lance")

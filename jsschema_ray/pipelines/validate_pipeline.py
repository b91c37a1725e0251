"""End-to-end validation pipeline: the distributed analogue of the
reference CLI flow (cmd/jsschema/jsschema.go:34-91 — read schema, validate
data, report) planned per SURVEY.md §3.4:

  P1  row-local mask stage: stateless map_batches over zero-copy Arrow
      batches (kernels/columnar.py), violations + per-partition counts
  P2  stats/drift stage: sketch partials -> tiny merge (stages/stats.py)
  P3  global constraints: uniqueness pre-agg shuffle, referential
      broadcast semi-join (stages/uniqueness.py, stages/referential.py)
  P4  verdict assembly: per-partition manifest commit (atomic) + job report

The ``x-*`` extras of the schema (the Extras extension surface,
reference interface.go:133) select which P2/P3 stages run. Partition ==
input shard file; committed partitions are skipped on resume (P1 only —
global constraints always span the full input and are recomputed).
"""

from __future__ import annotations

import glob
import os
from typing import Any, Optional

import numpy as np
import pyarrow as pa

import ray.data as rd

from jsschema_ray.pipelines.manifest import CheckpointManifest, partition_id_for
from jsschema_ray.schema.registry import (
    ConstraintContext,
    get_handler,
    register_constraint,
)
from jsschema_ray.stages.drift import DriftProfile, drift_check
from jsschema_ray.stages.referential import referential_check
from jsschema_ray.stages.stats import StatsSpec, collect_stats
from jsschema_ray.stages.uniqueness import uniqueness_reports
from jsschema_ray.stages.validate import ValidateBatch


# -- built-in x-* global constraint handlers --------------------------------

@register_constraint("x-uniqueness")
def _handle_uniqueness(specs: list[dict], ctx: ConstraintContext):
    # one read and one exchange for every distinct key column
    columns = list(dict.fromkeys(spec["column"] for spec in specs))
    reports = uniqueness_reports(ctx.dataset(), columns,
                                 batch_size=ctx.batch_size)
    return [dict(reports[spec["column"]],
                 report_only=bool(spec.get("report_only", False)))
            for spec in specs]


@register_constraint("x-referential")
def _handle_referential(specs: list[dict], ctx: ConstraintContext):
    full = ctx.dataset()
    return [
        referential_check(full, spec["column"], spec["ref_values"],
                          batch_size=ctx.batch_size)
        for spec in specs
    ]


@register_constraint("x-stats")
def _handle_stats(_value, ctx: ConstraintContext):
    extras = {k: v for k, v in ctx.schema.items() if k.startswith("x-")}
    spec = StatsSpec.from_schema_extras(extras)
    stats = collect_stats(ctx.dataset(), spec, batch_size=ctx.batch_size)
    out: dict[str, Any] = {}
    for (_, col), cs in sorted(stats.items()):
        entry: dict[str, Any] = {
            "count": cs.count, "nulls": cs.nulls,
            "min": cs.min if cs.min is not None else cs.smin,
            "max": cs.max if cs.max is not None else cs.smax,
            "mean": cs.mean,
        }
        if cs.distinct is not None:
            entry["distinct_est"] = cs.distinct
        if cs.digest is not None:
            entry["quantiles"] = {
                str(q): cs.quantile(q) for q in (0.01, 0.25, 0.5, 0.75, 0.99)
            }
        out[col] = entry
    return out


@register_constraint("x-drift")
def _handle_drift(value: dict, ctx: ConstraintContext):
    profile = getattr(ctx.pipeline, "drift_profile", None)
    if profile is None:
        return None  # no reference profile supplied -> skip
    verdicts = drift_check(
        ctx.dataset(with_partition=True),
        profile,
        value.get("columns", []),
        partition_col="_partition",
        ks_threshold=value.get("ks_threshold", 0.15),
        batch_size=ctx.batch_size,
    )
    return verdicts.to_pylist()


@register_constraint("x-decode")
def _handle_decode(value: dict, ctx: ConstraintContext):
    """Decode invariant over the payload column (read here and only here —
    the row-local stage never touches bytes)."""
    import pyarrow.parquet as pq

    from jsschema_ray.stages.multimodal import decode_violations

    col = value.get("column", "bytes")
    fmt_col = value.get("fmt_column", "fmt")
    key_col = getattr(ctx.pipeline, "key_column", "image_id")
    available = {f.name for f in pq.read_schema(ctx.input_files[0])}
    if col not in available:
        return {"skipped": f"payload column {col!r} not in input"}
    ds = rd.read_parquet(ctx.input_files, columns=[key_col, col, fmt_col])
    vio = decode_violations(ds, key_column=key_col, column=col,
                            fmt_column=fmt_col, batch_size=1024,
                            min_psnr_db=value.get("min_psnr_db", 40.0)
                            ).take_all()
    vio.sort(key=lambda r: (r["key"], r["reason"]))  # arrival order varies
    return {
        "n_violations": len(vio),
        "sample": vio[:10],
    }


class ValidationPipeline:
    def __init__(
        self,
        schema: dict[str, Any],
        input_dir: str,
        output_dir: str,
        key_column: str = "image_id",
        batch_size: int = 65536,
        drift_profile: Optional[DriftProfile] = None,
    ):
        self.schema = schema
        self.input_dir = input_dir
        self.output_dir = output_dir
        self.key_column = key_column
        self.batch_size = batch_size
        self.drift_profile = drift_profile
        self.manifest = CheckpointManifest(output_dir)
        self._checked_files: list[str] = []

    # -- helpers -----------------------------------------------------------
    def _input_files(self) -> list[str]:
        files = sorted(glob.glob(os.path.join(self.input_dir, "*.parquet")))
        if not files:
            raise FileNotFoundError(f"no parquet shards in {self.input_dir}")
        if self._checked_files != files:
            # homogeneity gate: one logical table per input dir (footer reads
            # only); a mixed dir otherwise fails deep inside the read tasks
            # with a confusing schema-mismatch dump
            import pyarrow.parquet as pq

            first = pq.read_schema(files[0])
            for f in files[1:]:
                s = pq.read_schema(f)
                if s.names != first.names:
                    raise ValueError(
                        f"input shards are not one table: {files[0]} has "
                        f"columns {first.names} but {f} has {s.names}; point "
                        "--input at a directory of same-schema shards"
                    )
            self._checked_files = files
        return files

    def _payload_columns(self, files: list[str]) -> set[str]:
        """Wide opaque payloads = binary-typed columns; they never enter the
        P1 kernels (pruned at the read, SURVEY.md §7 hard part 4)."""
        import pyarrow.parquet as pq

        return {
            f.name
            for f in pq.read_schema(files[0])
            if pa.types.is_binary(f.type) or pa.types.is_large_binary(f.type)
        }

    def _non_payload_columns(self, files: list[str]) -> list[str]:
        import pyarrow.parquet as pq

        payload = self._payload_columns(files)
        return [f.name for f in pq.read_schema(files[0])
                if f.name not in payload]

    # -- run ---------------------------------------------------------------
    def run(self, resume: bool = True) -> dict[str, Any]:
        files = self._input_files()
        committed = self.manifest.committed() if resume else {}
        todo = [f for f in files if partition_id_for(f) not in committed]
        report: dict[str, Any] = {
            "input_dir": self.input_dir,
            "partitions_total": len(files),
            "partitions_resumed": len(files) - len(todo),
        }

        if todo:
            self._run_rowlocal(todo)
        report["partitions"] = self.manifest.committed()

        # global constraints: every x-* keyword dispatches through the
        # extension registry (schema/registry.py — the formalized Extras
        # hook, reference interface.go:133); built-ins registered below,
        # user extensions are first-class peers
        ctx = ConstraintContext(
            schema=self.schema,
            input_files=files,
            batch_size=self.batch_size,
            dataset_factory=lambda wp=False: self._read(files,
                                                        with_partition=wp),
            output_dir=self.output_dir,
        )
        ctx.pipeline = self  # built-ins need drift_profile / key_column
        for kw, value in self.schema.items():
            if not kw.startswith("x-"):
                continue
            handler = get_handler(kw)
            if handler is None:
                report.setdefault("unhandled_extensions", []).append(kw)
                continue
            result = handler(value, ctx)
            if result is not None:
                report[kw[2:].replace("-", "_")] = result

        report["valid"] = (
            all(
                (p.get("metrics", {}).get("violation_rows", 0) == 0)
                for p in report["partitions"].values()
            )
            and all(
                u["dup_keys"] == 0
                for u in report.get("uniqueness", [])
                if not u.get("report_only")
            )
            and all(
                r["n_violations"] == 0 for r in report.get("referential", [])
            )
            and all(v["passed"] for v in report.get("drift", []))
            and report.get("decode", {}).get("n_violations", 0) == 0
        )
        self.manifest.write_job_report(report)
        return report

    def _read(self, files: list[str], with_partition: bool = False):
        cols = self._non_payload_columns(files)
        ds = rd.read_parquet(
            files, columns=cols, include_paths=with_partition
        )
        if with_partition:
            def add_part(batch: pa.Table) -> pa.Table:
                # one partition id per distinct shard path in the batch
                paths = batch.column("path").combine_chunks()
                paths = paths.dictionary_encode()
                ids = pa.array(
                    [partition_id_for(p) for p in paths.dictionary.to_pylist()],
                    type=pa.string(),
                )
                return batch.drop_columns(["path"]).append_column(
                    "_partition", ids.take(paths.indices)
                )

            ds = ds.map_batches(add_part, batch_format="pyarrow",
                                batch_size=self.batch_size)
        return ds

    def _schema_for_rowlocal(self) -> dict[str, Any]:
        """P1 never reads the wide payload column (pruned at the read,
        SURVEY.md §7 hard part 4), so its `required` check moves to the
        decode stage (stages/multimodal.py), which reads the bytes anyway."""
        schema = dict(self.schema)
        payload_cols = self._payload_columns(self._input_files())
        if schema.get("required"):
            schema["required"] = [
                r for r in schema["required"] if r not in payload_cols
            ]
        return schema

    def _run_rowlocal(self, todo: list[str]) -> None:
        """P1 over the not-yet-committed shards as ONE streaming job;
        violations written partitioned by shard, manifests committed after
        the run (a killed run just redoes uncommitted shards)."""
        ds = self._read(todo, with_partition=True)
        stage = ValidateBatch(self._schema_for_rowlocal(), mode="violations",
                              key_column=self.key_column)

        def per_batch(batch: pa.Table) -> pa.Table:
            # a batch may coalesce blocks from different shards: evaluate it
            # once and take each violation's shard from its row
            parts = batch.column("_partition")
            data = batch.drop_columns(["_partition"])
            row_keys = (None if stage.key_column in data.column_names
                        else _shard_row_index(parts))
            vio, rows = stage.violations_with_rows(data, row_keys)
            return vio.append_column("partition", parts.take(rows))

        vio_dir = os.path.join(self.output_dir, "violations")
        # idempotent re-run: clear this shard's old violation files first
        import shutil

        for f in todo:
            part_dir = os.path.join(vio_dir, f"partition={partition_id_for(f)}")
            shutil.rmtree(part_dir, ignore_errors=True)
        vio_ds = ds.map_batches(per_batch, batch_format="pyarrow",
                                batch_size=self.batch_size,
                                zero_copy_batch=True)
        vio_ds.write_parquet(vio_dir, partition_cols=["partition"])

        import pyarrow.dataset as pads
        import pyarrow.parquet as pq

        counts: dict[str, int] = {}
        if os.path.isdir(vio_dir) and any(os.scandir(vio_dir)):
            # partition ids are strings: without a schema, hive inference
            # reads "00000" as the integer 0
            written = pads.dataset(vio_dir, partitioning=pads.partitioning(
                pa.schema([("partition", pa.string())]), flavor="hive"))
            vc = written.to_table(columns=["partition"]).column(
                "partition").value_counts()
            counts = dict(zip(vc.field("values").to_pylist(),
                              vc.field("counts").to_pylist()))
        for f in todo:
            pid = partition_id_for(f)
            n_vio = counts.get(pid, 0)
            n_rows = pq.ParquetFile(f).metadata.num_rows
            self.manifest.commit_partition(
                pid,
                f,
                metrics={"rows": n_rows, "violation_rows": n_vio},
                violation_files=[os.path.join(vio_dir, f"partition={pid}")],
                verdict=(n_vio == 0),
            )


def _shard_row_index(parts: pa.ChunkedArray) -> np.ndarray:
    """The key of each row when the key column is absent: its index among
    the rows of its own shard in this batch, as if each shard's rows had
    been validated as a batch of their own."""
    codes = parts.combine_chunks().dictionary_encode().indices.to_numpy()
    order = np.argsort(codes, kind="stable")
    ranked = codes[order]
    out = np.empty(len(codes), np.int64)
    out[order] = np.arange(len(codes)) - np.searchsorted(ranked, ranked)
    return out

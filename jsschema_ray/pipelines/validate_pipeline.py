"""End-to-end validation pipeline: the distributed analogue of the
reference CLI flow (cmd/jsschema/jsschema.go:34-91 — read schema, validate
data, report) planned per SURVEY.md §3.4. A pass is one scan of the input
plus one map over the scan's pre-count files:

  scan  one task and one call per shard (``_run_rowlocal``), which reads
        its whole shard with pyarrow and runs once over it: P1, the
        row-local mask stage (kernels/columnar.py), if the shard is
        uncommitted, writing its violation file; and the map side of
        x-stats/x-drift (sketch partials, stages/stats.py), x-referential
        (miss counts), x-decode (the decode check) and x-uniqueness (the
        shard's key pre-counts, stages/uniqueness.py, one blob per part
        written back to back into one file under ``precount/``, reported
        as byte ranges). Only these small partial rows and file ranges
        leave the task, never raw rows. The driver commits each shard (an
        atomic manifest) as its call returns, and the handlers finish from
        the partials.
  x-uniqueness  no shuffle: the scan already split the pre-counts by
        part, so the reported ranges are grouped by part on the driver,
        and one map in at most ``exchange.fanout`` tasks reads each part's
        ranges (each file opened once) and reduces it. Only reported
        ranges are read, so a retried task's orphans never are; the files
        are deleted after the map, and at pass start.

Every ``x-*`` keyword (the Extras extension surface, reference
interface.go:133) dispatches through the registry. partition == input
shard file == scan task == scan call == one set of partials, and the
parallelism is the shard count (an input should have at least as many
shards as the cluster has CPUs). There is no batch-size knob: a task
holds its whole shard in memory, so size shards like blocks. Each sketch
partial covers one whole shard, so the partials, and the report, depend
neither on task timing nor on how a shard is cut into row groups. On resume P1 skips the shards committed under the same schema
whose footer still matches, while the scan still covers all of them,
since global constraints span the full input; an output dir committed
under another schema is refused.
"""

from __future__ import annotations

import glob
import itertools
import os
import shutil
import uuid
from typing import Any, Optional

import pyarrow as pa
import pyarrow.parquet as pq

import ray.data as rd

from jsschema_ray.pipelines.manifest import (CheckpointManifest,
                                             partition_id_for,
                                             schema_fingerprint,
                                             shard_identity)
from jsschema_ray.schema.registry import (ConstraintContext, get_handler,
                                          register_constraint)
from jsschema_ray.stages import multimodal
from jsschema_ray.stages.drift import DriftProfile, _verdicts
from jsschema_ray.stages.exchange import PART, fanout, pack, unpack
from jsschema_ray.stages.referential import (_miss_partial, _miss_report,
                                             _ref_key_array)
from jsschema_ray.stages.stats import StatsAccumulator, StatsSpec, _fold_partials
from jsschema_ray.stages.uniqueness import (_dup_counts, _precount,
                                            dup_tables, reports)
from jsschema_ray.stages.validate import ValidateBatch


# -- the scan's map sides: (pipeline, input columns) -> None or (side name,
# payload columns it reads, fn(pid, meta, shard) -> partial tables), where
# shard is the rows of shard pid and meta those without payload columns

def _stats_side(pipe: "ValidationPipeline", _columns: list[str]):
    # one accumulator for x-stats and x-drift: the spec folds the drift
    # columns into its quantiles, and drift verdicts are per shard
    spec = StatsSpec.from_schema_extras(pipe.schema)
    spec.partition_col = "_partition"
    acc = StatsAccumulator(spec)
    return "stats", [], lambda pid, meta, _: [acc(_with_partition(meta, pid))]


def _referential_side(pipe: "ValidationPipeline", _columns: list[str]):
    checks = [(spec["column"], _ref_key_array(spec["ref_values"], None, 0))
              for spec in pipe.schema["x-referential"]]
    return "referential", [], lambda _, meta, __: [
        _miss_partial(meta.column(col).combine_chunks(), keys)
        .append_column("spec", pa.array([i], pa.int32()))
        for i, (col, keys) in enumerate(checks)]


def _decode_side(pipe: "ValidationPipeline", columns: list[str]):
    value = pipe.schema["x-decode"]
    col = value.get("column", "bytes")
    if col not in columns:
        return None
    check = multimodal._DecodeCheck(
        key_column=pipe.key_column, column=col,
        fmt_column=value.get("fmt_column", "fmt"),
        min_psnr_db=value.get("min_psnr_db", 40.0))
    return "decode", [col], lambda _, __, batch: [check(batch)]


def _uniqueness_side(pipe: "ValidationPipeline", _columns: list[str]):
    # the shard's pre-count goes to a file, not through the driver: it
    # holds O(distinct keys) rows, and only the reduce reads it
    keys = _unique_columns(pipe.schema["x-uniqueness"])
    precount = _precount(keys, pipe._fanout())
    pre_dir = os.path.join(pipe.output_dir, "precount")

    def side(pid, _, batch):
        if not batch.num_rows:
            return []
        pre = precount(batch)
        blobs = pre.column("blob").to_pylist()
        path = _write_blobs(blobs, os.path.join(pre_dir, f"partition={pid}"))
        lengths = [len(b) for b in blobs]
        return [pa.table({
            "part": pre.column(PART),
            "file": [path] * len(blobs),
            "offset": pa.array(itertools.accumulate(lengths[:-1], initial=0),
                               pa.int64()),
            "length": pa.array(lengths, pa.int64())})]

    return "uniqueness", sorted(set(keys) & pipe._payload_columns()), side


_MAP_SIDES = {
    "x-uniqueness": _uniqueness_side,
    "x-referential": _referential_side,
    "x-stats": _stats_side,
    "x-drift": _stats_side,
    "x-decode": _decode_side,
}


# -- built-in x-* global constraint handlers ---------------------------------

def _unique_columns(specs: list[dict]) -> list[str]:
    return list(dict.fromkeys(spec["column"] for spec in specs))


@register_constraint("x-uniqueness")
def _handle_uniqueness(specs: list[dict], ctx: ConstraintContext):
    # the scan already split the pre-counts by part, so no shuffle runs:
    # one map reduces each part from the byte ranges this pass's scan
    # reported (orphans of a retried task are never read)
    pipe = ctx.pipeline
    columns = _unique_columns(specs)
    parts: dict[int, list[dict]] = {}  # part -> its (file, offset, length)
    for r in pipe._partials["uniqueness"]:
        parts.setdefault(r["part"], []).append(r)
    rows = []
    try:
        if parts:
            # a part is bucket * len(columns) + column index (_precount)
            rows = rd.from_items(
                [{"col_idx": p % len(columns), "ranges": rs}
                 for p, rs in sorted(parts.items())],
                override_num_blocks=min(pipe._fanout(), len(parts)),
            ).map_batches(reduce_part, batch_format="pyarrow",
                          batch_size=None).take_all()
    finally:
        shutil.rmtree(os.path.join(pipe.output_dir, "precount"),
                      ignore_errors=True)
    by_column = reports(dup_tables(rows, columns,
                                   lambda c: pipe._footer.field(c).type))
    return [dict(by_column[spec["column"]],
                 report_only=bool(spec.get("report_only", False)))
            for spec in specs]


def reduce_part(batch: pa.Table) -> pa.Table:
    """The x-uniqueness reduce over (``col_idx``, ``ranges``) rows, one per
    part, ``ranges`` holding the (``file``, ``offset``, ``length``) of each
    of the part's ``_precount`` blobs: one (``col_idx``, ``blob``) row per
    part, the blob its packed ``_dup_counts``. Each file is opened once."""
    ranges = [[(r["file"], r["offset"], r["length"]) for r in rs]
              for rs in batch.column("ranges").to_pylist()]
    blobs: dict[tuple[str, int], bytes] = {}
    for path, in_file in itertools.groupby(
            sorted(r for rs in ranges for r in rs), key=lambda r: r[0]):
        with open(path, "rb") as f:
            for _, offset, length in in_file:
                f.seek(offset)
                blobs[path, offset] = f.read(length)
    return pa.table({
        "col_idx": batch.column("col_idx"),
        "blob": pa.array([pack(_dup_counts([blobs[r[:2]] for r in rs]))
                          for rs in ranges], pa.binary())})


@register_constraint("x-referential")
def _handle_referential(specs: list[dict], ctx: ConstraintContext):
    rows = ctx.pipeline._partials["referential"]
    return [_miss_report(spec["column"], [r for r in rows if r["spec"] == i])
            for i, spec in enumerate(specs)]


@register_constraint("x-stats")
def _handle_stats(_value, ctx: ConstraintContext):
    stats = _fold_partials(ctx.pipeline._partials["stats"],
                           per_partition=False)
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
    if ctx.pipeline.drift_profile is None:
        return None  # no reference profile supplied -> skip
    columns = set(value.get("columns", []))
    rows = [r for r in ctx.pipeline._partials["stats"]
            if r["column"] in columns]
    return _verdicts(_fold_partials(rows), ctx.pipeline.drift_profile,
                     value.get("ks_threshold", 0.15)).to_pylist()


@register_constraint("x-decode")
def _handle_decode(value: dict, ctx: ConstraintContext):
    """Decode invariant over the payload column, which only the scan's
    decode side reads."""
    if "decode" not in ctx.pipeline._partials:
        col = value.get("column", "bytes")
        return {"skipped": f"payload column {col!r} not in input"}
    vio = sorted(ctx.pipeline._partials["decode"],
                 key=lambda r: (r["key"], r["reason"]))  # arrival order varies
    return {"n_violations": len(vio), "sample": vio[:10]}


class ValidationPipeline:
    """One validation pass per ``run`` over the parquet shards of
    ``input_dir``, writing manifests, violation files and ``report.json``
    under ``output_dir``. The scan reads each shard whole, in one task and
    one call."""

    def __init__(
        self,
        schema: dict[str, Any],
        input_dir: str,
        output_dir: str,
        key_column: str = "image_id",
        drift_profile: Optional[DriftProfile] = None,
    ):
        self.schema = schema
        self.input_dir = input_dir
        self.output_dir = output_dir
        self.key_column = key_column
        self.drift_profile = drift_profile
        self.manifest = CheckpointManifest(output_dir)
        self._footer = pa.schema([])  # the shards' schema, once checked
        self._shards: dict[str, dict] = {}  # path -> shard_identity
        self._partials: dict[str, list[dict]] = {}  # the scan's rows, by side
        self._fingerprint = ""  # schema_fingerprint, once per run

    # -- helpers -----------------------------------------------------------
    def _input_files(self) -> list[str]:
        files = sorted(glob.glob(os.path.join(self.input_dir, "*.parquet")))
        if not files:
            raise FileNotFoundError(f"no parquet shards in {self.input_dir}")
        # one footer read per shard gives the homogeneity gate, the row
        # counts and each shard's identity
        metas = [pq.read_metadata(f) for f in files]
        # homogeneity gate: one logical table per input dir, by column
        # names and types; a mixed dir otherwise fails deep inside the
        # read tasks, or feeds P1 and the sketch folds one column under
        # two types
        first = metas[0].schema.to_arrow_schema()
        want = [f"{f.name}: {f.type}" for f in first]
        for f, meta in zip(files[1:], metas[1:]):
            got = [f"{c.name}: {c.type}"
                   for c in meta.schema.to_arrow_schema()]
            if got != want:
                raise ValueError(
                    f"input shards are not one table: {files[0]} has "
                    f"columns {want} but {f} has {got}; point --input "
                    "at a directory of same-schema shards")
        self._footer = first
        self._shards = {f: shard_identity(f, m) for f, m in zip(files, metas)}
        return files

    def _fanout(self) -> int:
        """The exchange fan-out for this input (``exchange.fanout``)."""
        return fanout(sum(s["rows"] for s in self._shards.values()))

    def _payload_columns(self) -> set[str]:
        """Wide opaque payloads = binary-typed columns; they never enter the
        P1 kernels (pruned at the read, SURVEY.md §7 hard part 4)."""
        return {
            f.name
            for f in self._footer
            if pa.types.is_binary(f.type) or pa.types.is_large_binary(f.type)
        }

    def _committed(self, files: list[str]) -> dict[str, dict]:
        """The manifest records of the partitions of ``files``: the record
        of a shard no longer in the input neither decides the verdict nor
        refuses a resume."""
        ids = {partition_id_for(f) for f in files}
        return {pid: rec for pid, rec in self.manifest.committed().items()
                if pid in ids}

    # -- run ---------------------------------------------------------------
    def run(self, resume: bool = True) -> dict[str, Any]:
        """One pass. With ``resume`` a shard committed under this schema
        whose footer still matches is not revalidated; a changed shard is,
        and an output dir committed under another schema is refused."""
        files = self._input_files()
        self._fingerprint = schema_fingerprint(self.schema)
        committed = self._committed(files) if resume else {}
        if any(r.get("schema") not in (None, self._fingerprint)
               for r in committed.values()):
            raise ValueError(
                f"{self.output_dir} holds partitions validated against "
                "another schema; run with resume=False to overwrite them")
        todo = [f for f in files if committed.get(
            partition_id_for(f), {}).get("shard") != self._shards[f]]
        report: dict[str, Any] = {
            "input_dir": self.input_dir,
            "partitions_total": len(files),
            "partitions_resumed": len(files) - len(todo),
        }

        shutil.rmtree(os.path.join(self.output_dir, "precount"),
                      ignore_errors=True)  # a killed pass's pre-counts
        self._partials = self._run_rowlocal(files, todo)
        report["partitions"] = self._committed(files)

        # global constraints: every x-* keyword dispatches through the
        # extension registry (schema/registry.py — the formalized Extras
        # hook, reference interface.go:133); built-ins registered above,
        # user extensions are first-class peers
        ctx = ConstraintContext(schema=self.schema, input_files=files,
                                output_dir=self.output_dir, pipeline=self)
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

    def _read(self, files: list[str]):
        """``files`` as a Ray dataset of every column but the payload ones:
        the plain read behind ``ctx.dataset()`` for user handlers. The
        pass's own scan reads its shards itself (``_run_rowlocal``)."""
        payload = self._payload_columns()
        return rd.read_parquet(
            files, columns=[c for c in self._footer.names if c not in payload])

    def _schema_for_rowlocal(self) -> dict[str, Any]:
        """P1 never reads the wide payload column (pruned at the read,
        SURVEY.md §7 hard part 4), so its `required` check moves to the
        decode stage (stages/multimodal.py), which reads the bytes anyway."""
        schema = dict(self.schema)
        payload_cols = self._payload_columns()
        if schema.get("required"):
            schema["required"] = [
                r for r in schema["required"] if r not in payload_cols
            ]
        return schema

    def _run_rowlocal(self, files: list[str], todo: list[str]
                      ) -> dict[str, list[dict]]:
        """The pass's one scan: P1 over the shards in ``todo``, the map
        sides over every shard. Each shard commits as its call returns (a
        killed run just redoes the uncommitted shards). Returns the partial
        rows of each map side."""
        columns = self._footer.names
        sides = {}
        for kw in self.schema:
            side = _MAP_SIDES[kw](self, columns) if _MAP_SIDES.get(kw) else None
            if side is not None:
                sides[side[0]] = side[1:]
        if not todo and not sides:
            return {}
        # a payload column is read only for a side that needs it
        needed = {c for cols, _ in sides.values() for c in cols}
        payload = self._payload_columns()
        read = [c for c in columns if c not in payload - needed]
        drop = sorted(needed & payload)
        stage = ValidateBatch(self._schema_for_rowlocal(), mode="violations",
                              key_column=self.key_column)
        vio_dir = os.path.join(self.output_dir, "violations")
        todo_ids = {partition_id_for(f) for f in todo}

        def scan(batch: pa.Table) -> pa.Table:
            """One shard, read whole: (side, blob) rows, each map side's
            partial tables and P1's (partition, rows, violation_rows, file)
            row as side "p1". No pyarrow threads: the task holds one CPU."""
            path, = batch.column("path").to_pylist()
            pid = partition_id_for(path)
            with pq.ParquetFile(path) as f:
                data = f.read(columns=read, use_threads=False)
            meta = data.drop_columns(drop)
            out = [(name, t) for name, (_, fn) in sides.items()
                   for t in fn(pid, meta, data)]
            if pid in todo_ids:
                out.append(("p1", pa.Table.from_pylist(
                    [_write_violations(stage, meta, pid, vio_dir)])))
            return pa.table({"side": pa.array([n for n, _ in out], pa.string()),
                             "blob": pa.array([pack(t) for _, t in out],
                                              pa.binary())})

        # one task and one call per shard: raw rows never leave the task
        scanned = rd.from_items(
            [{"path": f} for f in files], override_num_blocks=len(files),
        ).map_batches(scan, batch_format="pyarrow", batch_size=None)
        partials: dict[str, list[dict]] = {name: [] for name in sides}
        pending = {partition_id_for(f): f for f in todo}
        for block in scanned.iter_batches(batch_format="pyarrow",
                                          batch_size=None):
            for side, blob in zip(block.column("side").to_pylist(),
                                  block.column("blob").to_pylist()):
                if side != "p1":
                    partials[side] += unpack(blob).to_pylist()
                    continue
                r, = unpack(blob).to_pylist()
                path = pending.pop(r["partition"])
                n_rows = self._shards[path]["rows"]
                if r["rows"] != n_rows:
                    raise RuntimeError(f"shard {r['partition']}: the scan "
                                       f"returned {r['rows']} of its "
                                       f"{n_rows} rows")
                self._commit(r["partition"], path, n_rows, r["violation_rows"],
                             [r["file"]] if r["file"] else [])
        if pending:
            raise RuntimeError(f"the scan returned nothing for {sorted(pending)}")
        return partials

    def _commit(self, pid: str, path: str, n_rows: int, n_vio: int,
                vio_files: list[str]) -> None:
        """Commit a shard with exactly the violation files the scan
        reported: any other file in its directory is an orphan of a
        retried task or of an earlier run, and is deleted first."""
        part_dir = os.path.join(self.output_dir, "violations",
                                f"partition={pid}")
        for name in os.listdir(part_dir) if os.path.isdir(part_dir) else []:
            if os.path.join(part_dir, name) not in vio_files:
                os.remove(os.path.join(part_dir, name))
        self.manifest.commit_partition(
            pid, path, metrics={"rows": n_rows, "violation_rows": n_vio},
            violation_files=sorted(vio_files), verdict=(n_vio == 0),
            schema=self._fingerprint, shard=self._shards.get(path))


def _with_partition(table: pa.Table, pid: str) -> pa.Table:
    """``table`` with a constant ``_partition`` column naming its shard."""
    return table.append_column(
        "_partition", pa.repeat(pa.scalar(pid, pa.string()), table.num_rows))


def _write_violations(stage: ValidateBatch, data: pa.Table, pid: str,
                      vio_dir: str) -> dict:
    """P1 over ``data``, rows of shard ``pid``. Its violations, if any, go
    to a durable file under ``<vio_dir>/partition=<pid>/``: a manifest
    committed after this returns never lists a file a machine crash could
    lose. Returns the (partition, rows, violation_rows, file) row of the
    shard."""
    vio = stage(data)
    path = (_write_parquet(vio, os.path.join(vio_dir, f"partition={pid}"))
            if vio.num_rows else None)
    return {"partition": pid, "rows": data.num_rows,
            "violation_rows": vio.num_rows, "file": path}


def _write_parquet(table: pa.Table, part_dir: str) -> str:
    """``table`` as ``<part_dir>/<uuid>.parquet``, written under a
    ``.``-prefixed name and renamed, so no reader sees a partial file, and
    durable: the file is fsynced before the rename and the directory after
    it. Returns the path."""
    os.makedirs(part_dir, exist_ok=True)
    path = os.path.join(part_dir, f"{uuid.uuid4().hex}.parquet")
    tmp = os.path.join(part_dir, "." + os.path.basename(path))
    with open(tmp, "wb") as f:
        pq.write_table(table, f)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    _fsync_dir(part_dir)  # the rename survives a machine crash
    return path


def _write_blobs(blobs: list[bytes], part_dir: str) -> str:
    """``blobs`` back to back as ``<part_dir>/<uuid>``, written under a
    ``.``-prefixed name and renamed. Not fsynced: no manifest lists it,
    and each pass deletes what the one before it left. Returns the
    path."""
    os.makedirs(part_dir, exist_ok=True)
    path = os.path.join(part_dir, uuid.uuid4().hex)
    tmp = os.path.join(part_dir, "." + os.path.basename(path))
    with open(tmp, "wb") as f:
        f.writelines(blobs)
    os.replace(tmp, path)
    return path


def _fsync_dir(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)

"""Table sources: parquet (primary) with optional Lance support.

The BASELINE input_hint names a Lance image+caption table; this container
has no ``lance``/``pylance`` package, so the Lance path is gated behind an
import-try (driver instruction: stub/gate anything not baked in). The
engine is source-agnostic: every stage consumes a ``ray.data.Dataset`` of
Arrow blocks, so swapping the reader is the only change needed on a
cluster with Lance available (``ray.data.read_lance`` ships with Ray).
"""

from __future__ import annotations

import os
from typing import Optional

import ray.data as rd


def read_table(path: str, columns: Optional[list[str]] = None,
               **kwargs) -> "rd.Dataset":
    """Read a dataset directory/file as a ray Dataset.

    - ``*.lance`` dataset dir -> ray.data.read_lance (column projection
      pushed down) when the lance package is importable, else a clear error;
    - otherwise parquet file(s)/dir -> ray.data.read_parquet with column
      pruning at the read (SURVEY.md 'prune at the read').
    """
    if path.endswith(".lance") or os.path.isdir(os.path.join(path, "_versions")):
        try:
            import lance  # noqa: F401
        except ImportError as e:
            raise ImportError(
                "Lance dataset requested but the 'lance' package is not "
                "installed in this environment; convert to parquet or run "
                "where pylance is available (ray.data.read_lance)"
            ) from e
        return rd.read_lance(path, columns=columns, **kwargs)
    if path.endswith((".jsonl", ".json")) or _dir_of(path, ".jsonl") \
            or _dir_of(path, ".json"):
        # JSONL corpus (the reference's native input format is JSON docs);
        # ray.data.read_json has no column pushdown, so project right
        # after the read to keep downstream blocks narrow
        ds = rd.read_json(path, **kwargs)
        return ds.select_columns(columns) if columns else ds
    if path.endswith(".csv") or _dir_of(path, ".csv"):
        ds = rd.read_csv(path, **kwargs)
        return ds.select_columns(columns) if columns else ds
    return strip_schema_metadata(
        rd.read_parquet(path, columns=columns, **kwargs)
    )


def strip_schema_metadata(ds: "rd.Dataset") -> "rd.Dataset":
    """Drop schema-level metadata (the parquet writer's embedded pandas
    manifest) from every block.  In this pyarrow, a schema WITH metadata
    is unhashable (``hash(schema)`` raises ``unhashable type: 'dict'``),
    so every downstream shuffle over such blocks logs "Failed to hash the
    schemas (for deduplication)" per reduce task and skips Ray's
    schema-dedup fast path; the metadata can also resurrect pandas-only
    dtypes across Arrow round-trips.  ``replace_schema_metadata`` is a
    metadata-only operation — zero data copy — and the stage fuses into
    the read task."""

    def strip(batch: "pa.Table") -> "pa.Table":
        return batch.replace_schema_metadata(None)

    import pyarrow as pa  # noqa: F401  (annotation only)

    return ds.map_batches(strip, batch_format="pyarrow",
                          zero_copy_batch=True)


def _dir_of(path: str, ext: str) -> bool:
    """True when ``path`` is a directory whose data files are all ``ext``
    (mixed dirs fall through to the parquet reader)."""
    if not os.path.isdir(path):
        return False
    files = [f for f in os.listdir(path) if not f.startswith((".", "_"))]
    return bool(files) and all(f.endswith(ext) for f in files)


def write_table(ds: "rd.Dataset", path: str, fmt: str = "parquet",
                **kwargs) -> None:
    """Sink counterpart of :func:`read_table`: write a Dataset as sharded
    parquet (default), JSONL, or CSV — one file per block, so output
    sharding follows the pipeline's partitioning (resumable-output rule:
    never one giant file; the violation/report writers in pipelines/
    layer the per-partition manifest on top of this).

    JSONL is the reference's native document format
    (/root/reference/cmd/jsschema/jsschema.go reads/writes JSON), so a
    reference user's downstream JSON tooling keeps working against this
    engine's outputs."""
    if fmt == "parquet":
        ds.write_parquet(path, **kwargs)
    elif fmt in ("jsonl", "json"):
        ds.write_json(path, **kwargs)
    elif fmt == "csv":
        ds.write_csv(path, **kwargs)
    else:
        raise ValueError(f"unknown sink format {fmt!r}; "
                         "one of parquet/jsonl/csv")


def write_partitioned(ds: "rd.Dataset", path: str, by: str) -> "rd.Dataset":
    """Hive-style RESUMABLE partitioned sink: one directory per distinct
    value of ``by`` (``path/<by>=<value>/part-*.parquet``), each
    partition committed ATOMICALLY (files land under a tmp name and
    rename into place, then a ``_DONE`` marker commits the partition) —
    so a re-run after a crash SKIPS every committed partition and
    rewrites only the missing ones. This is the resumable-output rule
    made concrete: at 100 TB a failed job resumes by partition, never
    by re-running the world. Returns the write MANIFEST as a Dataset:
    (partition value, rows, files, skipped bool) — one row per
    partition, the unit a re-run's scheduler reads.

    Semantics: a committed partition is never rewritten even if the
    input changed (markers pin the run's identity — key the output path
    by input fingerprint when inputs can drift). NULL partition keys
    write under ``<by>=__NULL__``. Values are encoded with
    ``urllib.parse.quote`` so arbitrary strings stay path-safe.

    Scale shape: one hash(by) co-partition (map_groups) so each
    partition's rows land in one task; each task writes its files and
    emits ONE manifest row — the driver never sees data rows."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from jsschema_ray.stages.exchange import by_key

    os.makedirs(path, exist_ok=True)

    def write_group(g: "pa.Table") -> "pa.Table":
        from urllib.parse import quote

        out = {by: [], "rows": [], "files": [], "skipped": []}
        if not g.num_rows:
            return pa.table({by: g.column(by),
                             "rows": pa.array([], pa.int64()),
                             "files": pa.array([], pa.int64()),
                             "skipped": pa.array([], pa.bool_())})
        import pyarrow.compute as pc

        keys = g.column(by).combine_chunks()
        enc = keys.dictionary_encode()
        codes = enc.indices.fill_null(-1).to_numpy(zero_copy_only=False)
        labels = enc.dictionary.to_pylist()
        for code in sorted(set(codes.tolist())):
            if code >= 0:
                label = labels[code]
                sub = g.filter(pa.array(codes == code))
            else:
                label = None
                sub = g.filter(pa.array(codes == -1))
            name = "__NULL__" if label is None else quote(str(label),
                                                          safe="")
            pdir = os.path.join(path, f"{by}={name}")
            marker = os.path.join(pdir, "_DONE")
            skipped = os.path.exists(marker)
            if not skipped:
                os.makedirs(pdir, exist_ok=True)
                tmp = os.path.join(pdir, "part-0.parquet.tmp")
                pq.write_table(sub, tmp)
                os.replace(tmp, os.path.join(pdir, "part-0.parquet"))
                with open(marker, "w") as f:
                    f.write("ok")
            out[by].append(label)
            out["rows"].append(sub.num_rows)
            out["files"].append(1)
            out["skipped"].append(skipped)
        return pa.table({
            by: pa.array(out[by], keys.type),
            "rows": pa.array(out["rows"], pa.int64()),
            "files": pa.array(out["files"], pa.int64()),
            "skipped": pa.array(out["skipped"], pa.bool_()),
        })

    return by_key(ds, [by], write_group)

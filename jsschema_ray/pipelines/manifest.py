"""Per-partition checkpoint manifest: lineage + metrics, atomic commit,
resume-skip (BASELINE north_rule: "resumable from checkpoint with
per-partition lineage + metrics").

A partition == one input shard file (deterministic across runs: same file
-> same partition id, SURVEY.md §4 partitioning row). Commit protocol:
write ``<manifest_dir>/.tmp.<pid>.json`` then ``os.replace`` to
``<pid>.json`` — rename is atomic on POSIX, so a killed run leaves either
a committed partition or nothing, never a torn manifest. Each record
names the schema (``schema_fingerprint``) and the shard's identity
(``shard_identity``) it was computed from; resume skips a partition only
when both still match.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Any, Optional

import pyarrow as pa
import pyarrow.parquet as pq


def partition_id_for(path: str) -> str:
    """Deterministic partition id for an input shard path (stem)."""
    return os.path.splitext(os.path.basename(path))[0]


def schema_fingerprint(schema: dict[str, Any]) -> str:
    """sha256 of the schema's canonical JSON, ``x-*`` keywords included."""
    return hashlib.sha256(json.dumps(
        schema, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def shard_identity(path: str, meta: pq.FileMetaData) -> dict[str, Any]:
    """What a shard holds, from its footer ``meta``: row count, byte size
    and a hash of the footer bytes (which carry every column chunk's
    offsets, sizes and statistics). Not the mtime: a copy keeps the
    content, and a rewrite within the clock's resolution keeps the time."""
    footer = pa.BufferOutputStream()
    meta.write_metadata_file(footer)
    return {"rows": meta.num_rows, "bytes": os.path.getsize(path),
            "footer": hashlib.sha256(footer.getvalue()).hexdigest()}


class CheckpointManifest:
    def __init__(self, output_dir: str):
        self.dir = os.path.join(output_dir, "manifest")
        os.makedirs(self.dir, exist_ok=True)

    def committed(self) -> dict[str, dict[str, Any]]:
        out = {}
        for name in os.listdir(self.dir):
            if name.endswith(".json") and not name.startswith(".tmp"):
                with open(os.path.join(self.dir, name)) as f:
                    rec = json.load(f)
                out[rec["partition"]] = rec
        return out

    def commit_partition(
        self,
        partition: str,
        input_path: str,
        metrics: dict[str, Any],
        violation_files: Optional[list[str]] = None,
        verdict: Optional[bool] = None,
        schema: Optional[str] = None,
        shard: Optional[dict[str, Any]] = None,
    ) -> dict[str, Any]:
        rec = {
            "partition": partition,
            "input_path": input_path,         # lineage: exactly which shard
            "schema": schema,                 # schema_fingerprint
            "shard": shard,                   # shard_identity
            "committed_at": time.time(),
            "metrics": metrics,
            "violation_files": violation_files or [],
            "verdict": verdict,
        }
        tmp = os.path.join(self.dir, f".tmp.{partition}.json")
        with open(tmp, "w") as f:
            json.dump(rec, f, indent=1, sort_keys=True)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, os.path.join(self.dir, f"{partition}.json"))
        return rec

    def write_job_report(self, report: dict[str, Any]) -> str:
        """Job-level record (global constraints span partitions, so their
        results live here, recomputed each run)."""
        path = os.path.join(os.path.dirname(self.dir), "report.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True, default=str)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
        return path

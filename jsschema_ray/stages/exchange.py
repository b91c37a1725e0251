"""The keyed exchange: how a key becomes a partition, and the group step
that hands each partition's rows to one function call.

Every hash-partitioned operator (windows, grouped aggregates and
quantiles, uniqueness, set ops, referential checks, sampling quotas,
partitioned writes) co-locates equal keys the same way:

* a row's partition is ``hash64(key) % n``; several key columns combine
  as ``h * 1000003 + hash64(key_i)`` (uint64, wrapping);
* float key columns are signed-zero-normalized first, because SQL GROUP
  BY / PARTITION BY merges -0.0 and +0.0 while ``hash64`` and pyarrow's
  hash kernels split them;
* the partition id rides in the ``__part`` column through Ray's
  sort-based ``groupby("__part").map_groups`` and is dropped before the
  per-partition function sees the rows.

``by_key`` is the whole exchange for a Dataset keyed on named columns.
Callers that must compute ``__part`` themselves (inside a map step that
packs or tags rows before the exchange) call ``partition_ids`` there
and finish with ``by_part``; a ``__part`` that is a range or tile id
rather than a key hash (packing bins, range-join bins, band buckets,
sorted-neighborhood tiles) rides the same ``by_part`` step.

The blob-packed variant: Ray's shuffle cost is per row, so map steps
that explode many small rows (uniqueness pre-counts, LSH and deletion
bands, candidate pairs) split each batch by partition id with
``pack_parts`` into ONE Arrow IPC blob row per present partition, and
the per-partition function ``unpack``s and concatenates the blobs. The
exchange then moves O(batches x partitions) rows, not O(exploded rows).
``pack``/``unpack`` are also the wire format of single-row sketch blobs
(stats' heavy-hitter candidates).

``fanout`` is the one rule for how many partitions an exchange splits
into: one per cluster CPU, more only when a partition would otherwise
hold over ``ROWS_PER_PARTITION`` input rows. Every exchange asks it, once
per call and on the driver, and uses that one count for every side of
the exchange; no operator takes a partition count. ``by_key`` asks it
itself. Stage functions look it up as ``exchange.fanout()`` at call time
and pass no rows, because a lazy Dataset's row count costs an execution;
the validation pipeline passes its footer row count.

Callers: windows, aggregates, quantiles, sampling, stats, referential,
transform, uniqueness (its Dataset-level functions), dedup, join, text,
packing, graph, drift and sources/io. Every grouped aggregate
(aggregates.grouped_sums and grouped_extrema, so graph's per-round MIN
and drift's KS counts too) merges here; no module uses Ray's key-sorting
groupby aggregate. The validation pipeline's x-uniqueness uses the
exchange's parts without its shuffle: its scan ``pack_parts`` each
block's pre-counts by ``partition_ids`` into a file, and its reduce
reads each partition's byte ranges back in at most ``fanout`` tasks.
"""

from __future__ import annotations

import functools
import os

import numpy as np
import pyarrow as pa

import ray

from jsschema_ray.state.hll import hash64, normalize_zeros

PART = "__part"
ROWS_PER_PARTITION = 2 ** 22


def fanout(rows: int = 0) -> int:
    """The number of partitions of an exchange over ``rows`` input rows:
    every CPU of the cluster reduces one, and no partition covers more
    than ``ROWS_PER_PARTITION`` rows. Before Ray Data has started Ray,
    the CPUs are this machine's, which its auto-started Ray would get."""
    cpus = (int(ray.cluster_resources().get("CPU", 1))
            if ray.is_initialized() else os.cpu_count() or 1)
    return max(cpus, -(-rows // ROWS_PER_PARTITION))


def partition_ids(table: pa.Table, keys: list[str], n: int) -> np.ndarray:
    """int32 partition id per row of ``table`` for the key columns
    ``keys``. Equal keys get equal ids regardless of which rows share the
    batch (``hash64``'s batch-composition invariant), and -0.0/+0.0 get
    one id."""
    if not table.num_rows:
        return np.empty(0, dtype=np.int32)
    h = None
    for k in keys:
        hk = hash64(normalize_zeros(table.column(k).combine_chunks()))
        with np.errstate(over="ignore"):
            h = hk if h is None else h * np.uint64(1000003) + hk
    return (h % np.uint64(n)).astype(np.int32)


def pack(table: pa.Table) -> bytes:
    """``table`` as one Arrow IPC stream blob."""
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, table.schema) as w:
        w.write_table(table)
    return sink.getvalue().to_pybytes()


def unpack(blob: bytes) -> pa.Table:
    return pa.ipc.open_stream(pa.BufferReader(blob)).read_all()


def pack_parts(table: pa.Table, part: np.ndarray, n: int) -> pa.Table:
    """(``__part``, ``blob``) rows: ``table`` split by the partition id
    per row ``part`` (in ``[0, n)``), one packed blob per present id in
    ascending id order, rows keeping their order within a blob."""
    order = np.argsort(part, kind="stable")
    table = table.take(pa.array(order))
    bounds = np.searchsorted(part[order], np.arange(n + 1))
    present = np.flatnonzero(bounds[1:] > bounds[:-1])
    return pa.table({
        PART: pa.array(present, type=pa.int32()),
        "blob": pa.array([pack(table.slice(bounds[p],
                                           bounds[p + 1] - bounds[p]))
                          for p in present], type=pa.binary())})


def by_part(ds, fn, batch_format: str = "pyarrow"):
    """Run ``fn`` once per ``__part`` group of ``ds`` (Ray's sort
    shuffle), with ``__part`` dropped from the rows ``fn`` receives."""

    @functools.wraps(fn)  # Ray names the operator after fn
    def call(group):
        if isinstance(group, pa.Table):
            return fn(group.drop_columns([PART]))
        return fn(group.drop(columns=[PART]))

    return ds.groupby(PART).map_groups(call, batch_format=batch_format)


def by_key(ds, keys: list[str], fn, batch_format: str = "pyarrow"):
    """Hash-partition ``ds`` on ``keys`` into ``fanout()`` groups and run
    ``fn`` once per group, so all rows of a key arrive in one call.
    Float key columns reach ``fn`` signed-zero-normalized. The partition
    column is added by a task-pool map with ``batch_size=None``, which Ray
    fuses into the caller's preceding map step."""
    n = fanout()

    def add_part(batch: pa.Table) -> pa.Table:
        for k in keys:
            i = batch.schema.get_field_index(k)
            col = batch.column(i)
            if pa.types.is_floating(col.type):
                batch = batch.set_column(i, k, normalize_zeros(col))
        return batch.append_column(
            PART, pa.array(partition_ids(batch, keys, n)))

    return by_part(ds.map_batches(add_part, batch_format="pyarrow",
                                  batch_size=None, zero_copy_batch=True),
                   fn, batch_format)

"""Distributed connected components over a pair/edge Dataset.

Why it exists: every near-dup operator in stages/dedup.py (minhash, simhash,
embedding LSH, exact Jaccard) ends in "group the verified pairs into
clusters".  Through round 2 that grouping was a driver-side union-find over
the collected pair list (dedup.py `_clusters_from_pairs`) — fine while the
verified-pair set fits one machine, but it is the one remaining driver-bound
structure in the dedup path.  This operator removes that bound: components
are computed as a bulk-synchronous label-propagation loop where every step
is a Dataset shuffle, and the driver holds only two int64 scalars (the label
checksum of consecutive rounds).

Algorithm (public literature: MapReduce connected components /
"hash-to-min" family, Rastogi et al.; pointer-doubling from classic PRAM
list ranking): every node starts labeled with itself; each round a node's
label becomes the min of (its label, its neighbors' labels, its label's
label).  The neighbor term floods minima along edges (O(diameter) alone);
the label's-label term is pointer doubling, which collapses the chains the
flood builds, giving O(log diameter) rounds overall.  Labels only ever
decrease, so SUM(label) is a monotone convergence witness: a round that
leaves the sum unchanged changed nothing (termination check = one small
sum task per materialized label block, no Ray Data execution and no row
comparison shuffle).

Scale shape: the edge set is symmetrized ONCE and materialized (2|E| rows
of two int64s); each round is two hash-partitioned joins (reusing
stages/join.hash_join — Acero per bucket) plus one grouped MIN
(aggregates.grouped_extrema: per-batch partial minima, merged per
partition after the keyed exchange, exchange.by_key).  Every exchange of
every round asks exchange.fanout (one partition per cluster CPU), so the
rounds split alike; a cluster resized mid-call changes the layout, never
the labels.  Nothing per-round touches the driver except the int64
checksum.  Nodes that appear in no edge are their own singleton components
and are simply absent from the output (same contract as the SQL mirror,
which also derives its node set from the edge list).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from jsschema_ray.stages.aggregates import grouped_extrema

# a node's new label: the smallest label delivered to it
_MIN_LABEL = {"label": ("label", "min")}


@ray.remote
def _block_label_sum(block: pa.Table) -> int:
    # an empty partition's block may carry no columns at all
    return pc.sum(block.column("label")).as_py() if block.num_rows else 0


def _label_sum(labels) -> int:
    """SUM(label) over the materialized ``labels``: one task per block,
    where the block lives, so only one int per block reaches the driver
    and no Ray Data execution (a global Aggregate) runs."""
    return sum(ray.get([_block_label_sum.remote(b)
                        for b in labels.to_arrow_refs()]))


def _quiet_empty_schema_warning():
    """Drop Ray Data's cosmetic 'RefBundle with a different schema ...
    new schema: .' WARNING (an EMPTY-schema bundle from an empty sort
    partition inside the per-round groupby — nothing is wrong; the blocks
    carry zero rows).  Narrow by construction: only the empty-new-schema
    variant is filtered, a real schema mismatch still logs.  Driver-side
    logger, so a plain filter works (cf. bench._quiet_worker_logs for the
    worker-side counterpart of this pattern)."""
    import logging

    class _DropEmptySchemaBundle(logging.Filter):
        def filter(self, record):
            msg = record.getMessage()
            return not ("RefBundle with a different schema" in msg
                        and "new schema: ." in msg)

    logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state"
    ).addFilter(_DropEmptySchemaBundle())


def connected_components(pairs, a_col: str = "doc_a", b_col: str = "doc_b",
                         max_rounds: int = 64,
                         batch_size: int = 262144):
    """Connected components of the undirected graph given by the pair
    Dataset ``pairs`` (one row per edge, int64 endpoints).  Returns a
    Dataset of (node, component) where component is the SMALLEST node id
    in the node's component — one row per node that appears in >= 1 edge.

    Deterministic (min labels are order-independent), layout-independent,
    and exact.  ``max_rounds`` is a loud safety valve only: pointer
    doubling converges in O(log diameter) rounds, so 64 covers any graph
    that fits in a universe of 2^64 nodes.
    """
    from jsschema_ray.stages.join import hash_join

    _quiet_empty_schema_warning()

    def symmetrize(batch: pa.Table) -> pa.Table:
        a = batch.column(a_col).cast(pa.int64())
        b = batch.column(b_col).cast(pa.int64())
        return pa.table(
            {"src": pa.chunked_array([a, b]).combine_chunks(),
             "dst": pa.chunked_array([b, a]).combine_chunks()}
        )

    edges = pairs.map_batches(
        symmetrize, batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True,
    ).materialize()

    if edges.count() == 0:
        # an edgeless graph has no rows to emit (one row per node IN >= 1
        # edge); return a TYPED empty dataset — a schema-less empty would
        # crash any downstream join on (node, component)
        import ray.data as _rd

        return _rd.from_arrow(pa.table({
            "node": pa.array([], pa.int64()),
            "component": pa.array([], pa.int64()),
        }))

    # round 0 folded into init: label(u) = min(u, min neighbor)
    def init_rows(batch: pa.Table) -> pa.Table:
        src = batch.column("src").to_numpy(zero_copy_only=False)
        dst = batch.column("dst").to_numpy(zero_copy_only=False)
        return pa.table({"node": pa.array(src),
                         "label": pa.array(np.minimum(src, dst))})

    labels = grouped_extrema(
        edges.map_batches(init_rows, batch_format="pyarrow",
                          batch_size=batch_size, zero_copy_batch=True),
        ["node"], _MIN_LABEL, batch_size=batch_size,
    ).materialize()
    prev_sum = _label_sum(labels)

    for _ in range(max_rounds):
        # neighbor flood: deliver label(dst) to src
        nbr = hash_join(
            edges, labels, key="dst", right_key="node",
            how="inner", batch_size=batch_size,
        ).map_batches(
            lambda b: pa.table({"node": b.column("src"),
                                "label": b.column("label")}),
            batch_format="pyarrow", zero_copy_batch=True,
        )
        # pointer doubling: deliver label(label(u)) to u
        as_edge = labels.map_batches(
            lambda b: pa.table({"orig": b.column("node"),
                                "lbl": b.column("label")}),
            batch_format="pyarrow", zero_copy_batch=True,
        )
        dbl = hash_join(
            as_edge, labels, key="lbl", right_key="node",
            how="inner", batch_size=batch_size,
        ).map_batches(
            lambda b: pa.table({"node": b.column("orig"),
                                "label": b.column("label")}),
            batch_format="pyarrow", zero_copy_batch=True,
        )
        # note: the current label needs no explicit candidate row — labels
        # are always <= their node id, so label(label(u)) <= label(u) and
        # the doubling row (which exists for every node: every label is
        # itself a node) dominates it.  Union is therefore two LAZY
        # branches only, same shape as hash_join's internal union.
        labels = grouped_extrema(
            nbr.union(dbl), ["node"], _MIN_LABEL, batch_size=batch_size
        ).materialize()
        cur_sum = _label_sum(labels)
        if cur_sum == prev_sum:  # monotone witness: nothing moved
            break
        prev_sum = cur_sum
    else:
        raise RuntimeError(
            f"connected_components did not converge in {max_rounds} rounds "
            "(impossible for a graph addressable in int64 — corrupt input?)"
        )

    def rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(["node", "component"])

    return labels.map_batches(rename, batch_format="pyarrow",
                              zero_copy_batch=True)

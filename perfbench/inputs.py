"""Seeded input synthesis for the three workloads, cached per seed and shape.

Every table is a pure function of ``(seed, shape)``. A cache entry lives in
``.perfbench/cache/<workload>-<shape>-s<seed>/`` inside the checkout and is
published with an atomic rename, so a killed synthesis leaves nothing that
a later run would trust. The entry also holds the ground truth each pass is
checked against: the injected-violation manifest for the pipeline tables,
and the DuckDB answer of every ``oracle_sql()`` for the exchange tables.
"""

from __future__ import annotations

import datetime
import json
import os
import shutil
from typing import Any, Callable

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

#: input shapes; the cache key includes every value
SHAPES: dict[str, dict[str, Any]] = {
    # distinct PNG payloads (one image per row) so the per-task decode cache
    # of stages/multimodal.py cannot collapse the decode layer
    "image_full": {"rows": 40_000, "shards": 8, "violation_frac": 0.02,
                   "img_side": 16},
    # metadata only, no payload column and no x-* keywords: row-local path
    "tabular_dirty": {"rows": 1_200_000, "shards": 32, "violation_frac": 0.25},
    # TPC-H-like star plus events and documents, about sf0.01
    "exchange_mix": {"customers": 1_500, "orders": 15_000, "events": 10_000,
                     "users": 150, "documents": 500},
}

#: violation families that the row-local stage reports
ROWLOCAL_FAMILIES = ("id_pattern", "w_range", "h_range", "fmt_enum",
                     "caption_len", "required_null")

#: the exchange_mix operations, in the order one pass runs them
EXCHANGE_QUERIES = (
    "duplicate_keys", "join_orders_customers", "rolling_rows",
    "session_windows", "group_quantiles", "exact_dedup", "tpch_q18",
    "value_cdf", "candidate_keys", "event_ranks", "except_all_events",
    "asof_join_orders", "dedup_components",
)

EXCHANGE_TABLES = ("customer", "orders", "lineitem", "events", "documents")


def _key(workload: str, seed: int) -> str:
    shape = SHAPES[workload]
    tag = "-".join(f"{k}{shape[k]}" for k in sorted(shape))
    return f"{workload}-{tag}-s{seed}"


def ensure(cache_root: str, workload: str, seed: int) -> tuple[str, bool]:
    """Directory holding the inputs of ``workload`` for ``seed``; builds it
    on a miss. Returns ``(path, hit)``."""
    path = os.path.join(cache_root, _key(workload, seed))
    if os.path.exists(os.path.join(path, "_DONE")):
        return path, True
    tmp = f"{path}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    _BUILDERS[workload](tmp, seed, SHAPES[workload])
    with open(os.path.join(tmp, "_DONE"), "w") as f:
        f.write("ok\n")
    shutil.rmtree(path, ignore_errors=True)
    os.replace(tmp, path)
    return path, False


def load_truth(path: str) -> dict[str, Any]:
    with open(os.path.join(path, "truth.json")) as f:
        return json.load(f)


# -- image and tabular tables ----------------------------------------------

def seeded_pngs(seed: int, n: int, side: int, start: int = 0) -> list[bytes]:
    """``n`` distinct PNG payloads; image ``i`` depends only on (seed, i)."""
    from jsschema_ray.sources.png import encode_png

    return [
        encode_png(np.random.default_rng((seed, 11, i))
                   .integers(0, 256, size=(side, side, 3), dtype=np.uint8))
        for i in range(start, start + n)
    ]


def _shard_sizes(rows: int, shards: int) -> list[int]:
    per = rows // shards
    return [per] * (shards - 1) + [rows - per * (shards - 1)]


def _build_image_full(out: str, seed: int, shape: dict) -> None:
    from jsschema_ray.sources.synth import synth_image_table

    data = os.path.join(out, "data")
    os.makedirs(data)
    manifest: dict[str, set] = {}
    png_ids: set = set()
    offset = 0
    for s, n in enumerate(_shard_sizes(shape["rows"], shape["shards"])):
        t, m = synth_image_table(n, seed=seed,
                                 violation_frac=shape["violation_frac"],
                                 with_bytes=False, row_offset=offset)
        bad = set(m["bad_bytes"])
        ids = t.column("image_id").to_pylist()
        payloads = seeded_pngs(seed, n, shape["img_side"], start=offset)
        # truncated mid-IDAT, as sources/synth.py corrupts a payload
        payloads = [p[: len(p) // 2] if i in bad else p
                    for p, i in zip(payloads, ids)]
        t = t.set_column(t.schema.get_field_index("bytes"), "bytes",
                         pa.array(payloads, type=pa.binary()))
        pq.write_table(t, os.path.join(data, f"part-{s:05d}.parquet"),
                       row_group_size=2048)
        fmts = t.column("fmt").to_pylist()
        png_ids.update(i for i, f in zip(ids, fmts) if f == "png")
        for fam, keys in m.items():
            manifest.setdefault(fam, set()).update(keys)
        offset += n
    truth = {
        "rows": shape["rows"],
        "rowlocal_keys": sorted(set().union(
            *(manifest[f] for f in ROWLOCAL_FAMILIES))),
        "dup_image_ids": sorted(manifest["dup_image_id"]),
        "fmt_enum_keys": sorted(manifest["fmt_enum"]),
        # lossy formats are skipped by the decode stage (no PIL here)
        "bad_png_keys": sorted(manifest["bad_bytes"] & png_ids),
    }
    with open(os.path.join(out, "truth.json"), "w") as f:
        json.dump(truth, f)


def _build_tabular_dirty(out: str, seed: int, shape: dict) -> None:
    from jsschema_ray.sources.synth import synth_image_table

    data = os.path.join(out, "data")
    os.makedirs(data)
    keys: set = set()
    offset = 0
    for s, n in enumerate(_shard_sizes(shape["rows"], shape["shards"])):
        t, m = synth_image_table(n, seed=seed,
                                 violation_frac=shape["violation_frac"],
                                 with_bytes=False, row_offset=offset)
        pq.write_table(t.drop_columns(["bytes"]),
                       os.path.join(data, f"part-{s:05d}.parquet"),
                       row_group_size=65536)
        for fam in ROWLOCAL_FAMILIES:
            keys.update(m[fam])
        offset += n
    with open(os.path.join(out, "truth.json"), "w") as f:
        json.dump({"rows": shape["rows"], "rowlocal_keys": sorted(keys)}, f)


# -- exchange tables --------------------------------------------------------

_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"]
_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
_EVENT_TYPES = ["click", "view", "purchase", "signup", "error"]
_LANGS = ["en", "de", "fr", "es", "zh"]
_VOCAB = ("the a data table row column key value part order line customer "
          "query join group sort merge scan filter batch stream window agg "
          "hash vector spark fast slow big small").split()


def _cents(rng, lo, hi, n):
    return np.round(rng.uniform(lo, hi, n), 2)


def _exchange_tables(seed: int, shape: dict) -> dict[str, pa.Table]:
    rng = np.random.default_rng((seed, 23))
    n_c, n_o = shape["customers"], shape["orders"]
    customer = pa.table({
        "c_custkey": pa.array(np.arange(n_c, dtype=np.int64)),
        "c_name": pa.array([f"Customer#{i:09d}" for i in range(n_c)]),
        "c_nationkey": pa.array(rng.integers(0, 25, n_c, dtype=np.int32)),
        "c_acctbal": pa.array(_cents(rng, -999.99, 9999.99, n_c)),
        "c_mktsegment": pa.array(np.array(_SEGMENTS)[rng.integers(0, 5, n_c)]),
    })
    day0 = np.datetime64("1995-01-01", "us")
    days = rng.integers(0, 2400, n_o)
    orders = pa.table({
        "o_orderkey": pa.array(np.arange(n_o, dtype=np.int64)),
        "o_custkey": pa.array(rng.integers(0, n_c, n_o, dtype=np.int64)),
        "o_orderstatus": pa.array(np.array(["F", "O", "P"])[
            rng.integers(0, 3, n_o)]),
        "o_totalprice": pa.array(_cents(rng, 1000.0, 500000.0, n_o)),
        "o_orderdate": pa.array(day0 + days * np.timedelta64(1, "D")),
        "o_orderpriority": pa.array(np.array(_PRIORITIES)[
            rng.integers(0, 5, n_o)]),
    })
    lines = rng.integers(1, 8, n_o)
    okey = np.repeat(np.arange(n_o, dtype=np.int64), lines)
    lnum = (np.arange(len(okey)) - np.repeat(np.cumsum(lines) - lines, lines)
            + 1).astype(np.int32)
    n_l = len(okey)
    qty = rng.integers(1, 51, n_l).astype(np.float64)
    lineitem = pa.table({
        "l_orderkey": pa.array(okey),
        "l_partkey": pa.array(rng.integers(0, 2000, n_l, dtype=np.int64)),
        "l_suppkey": pa.array(rng.integers(0, 100, n_l, dtype=np.int64)),
        "l_linenumber": pa.array(lnum),
        "l_quantity": pa.array(qty),
        "l_extendedprice": pa.array(np.round(qty * _cents(rng, 900, 2100,
                                                          n_l), 2)),
        "l_discount": pa.array(rng.integers(0, 11, n_l) / 100.0),
        "l_tax": pa.array(rng.integers(0, 9, n_l) / 100.0),
        "l_returnflag": pa.array(np.array(["A", "N", "R"])[
            rng.integers(0, 3, n_l)]),
        "l_linestatus": pa.array(np.array(["F", "O"])[
            rng.integers(0, 2, n_l)]),
        "l_shipdate": pa.array(day0 + (np.repeat(days, lines)
                                       + rng.integers(1, 120, n_l))
                               * np.timedelta64(1, "D")),
    })
    n_e = shape["events"]
    ev0 = np.datetime64(datetime.datetime(2024, 1, 1), "us")
    month_us = 30 * 86_400_000_000
    events = pa.table({
        "event_id": pa.array(np.arange(n_e, dtype=np.int64)),
        "ts": pa.array(ev0 + rng.integers(0, month_us, n_e)
                       .astype("timedelta64[us]")),
        "user_id": pa.array(rng.integers(0, shape["users"], n_e,
                                         dtype=np.int64)),
        "event_type": pa.array(np.array(_EVENT_TYPES)[
            rng.integers(0, 5, n_e)]),
        "value": pa.array(_cents(rng, 0.01, 490.0, n_e)),
        "props": pa.array([json.dumps({"k": int(k)})
                           for k in rng.integers(0, 100, n_e)]),
    })
    return {"customer": customer, "orders": orders, "lineitem": lineitem,
            "events": events, "documents": _documents(rng, shape)}


def _documents(rng, shape: dict) -> pa.Table:
    """Random word documents with injected exact duplicates and
    one-word-edit near duplicates, so exact_dedup and dedup_components
    have clusters to find."""
    n = shape["documents"]
    vocab = np.array(_VOCAB)
    texts: list[str] = []
    for i in range(n):
        r = rng.random()
        if i > 10 and r < 0.05:
            texts.append(texts[int(rng.integers(0, i))])
        elif i > 10 and r < 0.12:
            words = texts[int(rng.integers(0, i))].split()
            words[int(rng.integers(0, len(words)))] = "edit"
            texts.append(" ".join(words))
        else:
            k = int(rng.integers(20, 70))
            texts.append(" ".join(vocab[rng.integers(0, len(vocab), k)]))
    return pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "text": pa.array(texts),
        "lang": pa.array(np.array(_LANGS)[rng.integers(0, 5, n)]),
        "source": pa.array([f"src{int(s)}" for s in rng.integers(0, 8, n)]),
        "n_chars": pa.array(np.array([len(t) for t in texts],
                                     dtype=np.int64)),
    })


def canon(df):
    """Order-insensitive canonical form, as tests/test_oracle_parity.py
    compares a query result with its oracle."""
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="stable").reset_index(
        drop=True)


def same_answer(got, want) -> bool:
    """The oracle-parity rule: same columns, rows and dtype kinds; floats
    within 1e-9, everything else equal as text."""
    if list(got.columns) != list(want.columns) or len(got) != len(want):
        return False
    for c in got.columns:
        a, b = got[c], want[c]
        if a.dtype.kind != b.dtype.kind:
            return False
        if a.dtype.kind == "f":
            if len(a) and not (a.astype(float) - b.astype(float)).abs().max() \
                    < 1e-9:
                return False
        elif not (a.astype(str).to_numpy() == b.astype(str).to_numpy()).all():
            return False
    return True


def _build_exchange_mix(out: str, seed: int, shape: dict) -> None:
    from unittest import mock

    import duckdb

    import __ray_entry__ as contract

    sf = os.path.join(out, "sf")
    os.makedirs(sf)
    for name, table in _exchange_tables(seed, shape).items():
        pq.write_table(table, os.path.join(sf, f"{name}.parquet"))
    # oracle_sql() first makes sure its shared image tables exist under the
    # system temp dir; none of these queries reads them, so that step is
    # stubbed and the benchmark writes only inside its checkout
    with mock.patch.object(contract, "_image_meta_path_rows", str), \
            mock.patch.object(contract, "_image_dir_rows", str):
        oracles = contract.oracle_sql()
    con = duckdb.connect()
    for t in EXCHANGE_TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")
    ans = os.path.join(out, "oracle")
    os.makedirs(ans)
    rows = {}
    for q in EXCHANGE_QUERIES:
        df = canon(con.execute(oracles[q]).df())
        df.to_pickle(os.path.join(ans, f"{q}.pkl"))
        rows[q] = len(df)
    con.close()
    with open(os.path.join(out, "truth.json"), "w") as f:
        json.dump({"oracle_rows": rows}, f)


_BUILDERS: dict[str, Callable[[str, int, dict], None]] = {
    "image_full": _build_image_full,
    "tabular_dirty": _build_tabular_dirty,
    "exchange_mix": _build_exchange_mix,
}

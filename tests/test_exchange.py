"""The keyed exchange (stages/exchange.py): partition ids are the
historical ``hash64(key) % n`` / ``h * 1000003 + hk`` formulas, so no key
moves partition; signed zeros share a partition; ``by_key`` hands every
key's rows to exactly one call without the ``__part`` column; no
migrated module grows its own copy of the exchange again; and no grouped
aggregate goes back to Ray's key-sorting ``Aggregate``."""

import pathlib
import re

import numpy as np
import pyarrow as pa
import pytest

from jsschema_ray.stages.exchange import (ROWS_PER_PARTITION, by_key, fanout,
                                          partition_ids)
from jsschema_ray.state.hll import hash64


def _old_single(col, n):
    return (hash64(col) % np.uint64(n)).astype(np.int32)


def _old_multi(cols, n):
    h = None
    for c in cols:
        hk = hash64(c)
        with np.errstate(over="ignore"):
            h = hk if h is None else h * np.uint64(1000003) + hk
    return (h % np.uint64(n)).astype(np.int32)


def test_partition_ids_match_historical_formulas():
    rng = np.random.default_rng(5)
    ints = pa.array(rng.integers(-2**62, 2**62, 500), pa.int64())
    strs = pa.array([f"k{i}" for i in rng.integers(0, 10**6, 500)])
    t = pa.table({"i": ints, "s": strs})
    for n in (1, 7, 64):
        got_i = partition_ids(t, ["i"], n)
        assert got_i.dtype == np.int32
        np.testing.assert_array_equal(got_i, _old_single(ints, n))
        np.testing.assert_array_equal(partition_ids(t, ["s"], n),
                                      _old_single(strs, n))
        np.testing.assert_array_equal(partition_ids(t, ["s", "i"], n),
                                      _old_multi([strs, ints], n))


def test_partition_ids_independent_of_nulls_in_batch():
    with_nulls = pa.table({"k": pa.array([5, None, 2**60 + 1], pa.int64())})
    without = pa.table({"k": pa.array([5, 2**60 + 1], pa.int64())})
    a = partition_ids(with_nulls, ["k"], 64)
    b = partition_ids(without, ["k"], 64)
    assert a[0] == b[0] and a[2] == b[1]


def test_partition_ids_signed_zero_one_partition():
    t = pa.table({"f": pa.array([0.0, -0.0], pa.float64()),
                  "s": ["x", "x"]})
    for keys in (["f"], ["s", "f"]):
        ids = partition_ids(t, keys, 64)
        assert ids[0] == ids[1]


def test_fanout_is_the_cluster_cpus_until_partitions_grow_too_large(
        ray_session, monkeypatch):
    import os

    import ray

    # the test session has 4 CPUs
    assert fanout(0) == fanout(4 * ROWS_PER_PARTITION) == 4
    assert fanout(4 * ROWS_PER_PARTITION + 1) == 5
    assert fanout(10 * ROWS_PER_PARTITION) == 10
    # before Ray is started: the CPUs an auto-started local Ray would get
    monkeypatch.setattr(ray, "is_initialized", lambda: False)
    assert fanout(0) == os.cpu_count()


def test_partition_ids_empty_input():
    t = pa.table({"k": pa.array([], pa.int64())})
    ids = partition_ids(t, ["k"], 8)
    assert ids.dtype == np.int32 and len(ids) == 0


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("batch_format", ["pyarrow", "pandas"])
def test_by_key_one_call_per_key_without_part_column(batch_format):
    import uuid

    import ray.data

    rng = np.random.default_rng(9)
    n = 2000
    t = pa.table({"k": pa.array(rng.integers(0, 300, n), pa.int64()),
                  "f": pa.array(rng.choice([0.0, -0.0, 1.5], n)),
                  "v": pa.array(np.arange(n), pa.int64())})

    def fn(g):
        cols = list(g.column_names if isinstance(g, pa.Table) else g.columns)
        assert "__part" not in cols
        call = uuid.uuid4().hex
        if isinstance(g, pa.Table):
            return g.append_column("call", pa.array([call] * g.num_rows))
        return g.assign(call=call)

    ds = ray.data.from_arrow(t).repartition(6)
    got = by_key(ds, ["k", "f"], fn, batch_format=batch_format).to_pandas()
    assert sorted(got["v"]) == list(range(n))
    assert set(got.columns) == {"k", "f", "v", "call"}
    calls = got.groupby(["k", "f"])["call"].nunique()
    assert (calls == 1).all()
    # signed zeros reach fn normalized: one key, not two
    assert not np.signbit(got["f"].to_numpy()).any()


#: every module that partitions; each must reach the exchange only
#: through stages/exchange.py
_MIGRATED = ["stages/windows.py", "stages/aggregates.py",
             "stages/quantiles.py", "stages/sampling.py", "stages/stats.py",
             "stages/referential.py", "stages/transform.py",
             "stages/uniqueness.py", "sources/io.py", "stages/dedup.py",
             "stages/join.py", "stages/text.py", "stages/packing.py",
             "stages/graph.py", "stages/drift.py"]

#: a Ray group step on a partition-id column, or a partition id taken
#: modulo the partition count; ``\s*`` lets a chain split across lines
_HAND_ROLLED = re.compile(
    r'groupby\(\s*"(__part|part|vpart|bucket|__bucket|__bin|__p)"\s*\)'
    r'|%\s*np\.u?int64\(\s*(num_part|num_bucket)')

#: the blob format and the partition-blob splitter live only in
#: stages/exchange.py
_BLOB_COPY = re.compile(r"^def (_?pack|_?unpack|_pack_parted)\b", re.M)


def _scan(pattern):
    root = pathlib.Path(__file__).resolve().parents[1] / "jsschema_ray"
    found = []
    for m in _MIGRATED:
        text = (root / m).read_text()
        for hit in pattern.finditer(text):
            line = text.count("\n", 0, hit.start()) + 1
            found.append(f"{m}:{line}: {hit.group(0)!r}")
    return found


def test_no_hand_rolled_exchange_in_migrated_modules():
    assert _scan(_HAND_ROLLED) == []


def test_hand_rolled_pattern_sees_split_chains():
    for src in ('x.groupby(\n    "part"\n).map_groups(f)',
                'ds.groupby("__bin").map_groups(f)',
                'ds.groupby( "__p" )',
                '(h % np.uint64(num_parts))',
                '(b % np.int64(num_parts))',
                'h %\n  np.uint64(num_buckets)'):
        assert _HAND_ROLLED.search(src), src
    assert not _HAND_ROLLED.search('ds.groupby("partition")')


def test_blob_format_defined_only_in_exchange():
    assert _scan(_BLOB_COPY) == []


def test_no_module_imports_ray_aggregate():
    """Grouped aggregates merge on the keyed exchange: no library module
    imports Ray's aggregate functions (whose groupby merge sorts keys)."""
    import ast

    root = pathlib.Path(__file__).resolve().parents[1]
    found = []
    for path in sorted((root / "jsschema_ray").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""] + [
                    f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            if any(m == "ray.data.aggregate"
                   or m.startswith("ray.data.aggregate.") for m in mods):
                found.append(f"{path.relative_to(root)}:{node.lineno}")
    assert found == []


def _operator_names(dag) -> list[str]:
    return [dag.name] + [n for d in dag.input_dependencies
                         for n in _operator_names(d)]


@pytest.mark.usefixtures("ray_session")
def test_grouped_sums_matches_pyarrow_on_the_exchange(monkeypatch):
    """grouped_sums over ~50k distinct int64 keys in several blocks equals
    a pyarrow group_by: null keys form one group, -0.0 and +0.0 one key;
    and its plan has no Aggregate operator."""
    import pyarrow.compute as pc
    import ray
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    from jsschema_ray.stages.aggregates import grouped_sums

    rng = np.random.default_rng(13)
    n = 200_000
    k = rng.integers(0, 50_000, n)
    t = pa.table({
        "k": pa.array(k, pa.int64(), mask=rng.random(n) < 0.05),
        "f": pa.array(rng.choice([0.0, -0.0, 2.5], n)),
        "v": pa.array(rng.integers(-1000, 1000, n), pa.int64())})
    dags = []
    execute = StreamingExecutor.execute

    def spy_execute(self, dag, *args, **kwargs):
        dags.append(dag)
        return execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", spy_execute)
    blocks = [t.slice(lo, 25_000) for lo in range(0, n, 25_000)]
    out = grouped_sums(ray.data.from_arrow(blocks), ["k", "f"],
                       {"sv": "v"}, batch_size=10_000).materialize()
    # a partition no key hashed to is an empty block without a schema
    got = pa.concat_tables(
        [b for b in ray.get(out.to_arrow_refs()) if b.num_rows])

    # -0.0 + 0.0 is +0.0: the reference merges the zeros the same way
    ref = t.set_column(1, "f", pc.add(t.column("f"), 0.0))
    want = ref.group_by(["k", "f"]).aggregate(
        [("v", "sum"), ([], "count_all")]).rename_columns(
        ["k", "f", "sv", "n"])
    assert want.num_rows < t.group_by(["k", "f"]).aggregate([]).num_rows
    order = [("k", "ascending"), ("f", "ascending")]
    assert got.select(want.column_names).sort_by(order).equals(
        want.sort_by(order))
    assert not np.signbit(got.column("f").to_numpy()).any()
    names = [n for d in dags for n in _operator_names(d)]
    assert names and not [n for n in names if "Aggregate" in n], names


#: the partition-count parameter names no exchange may take any more
_COUNTS = {"num_parts", "num_buckets", "num_partitions"}


def _count_params(fn) -> tuple[list[str], list[str]]:
    """(count parameters of ``fn``, those of them that have a default)."""
    a = fn.args
    pos = a.posonlyargs + a.args
    defaulted = pos[len(pos) - len(a.defaults):] + [
        k for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    names = [p.arg for p in pos + a.kwonlyargs if p.arg in _COUNTS]
    return names, [p.arg for p in defaulted if p.arg in _COUNTS]


def test_one_fanout_rule():
    """Every exchange asks ``exchange.fanout``: no public function of the
    library takes a partition count, no function defaults one, and the
    query and bench drivers neither define a rule of their own
    (``_fanout``) nor pass a count."""
    import ast

    root = pathlib.Path(__file__).resolve().parents[1]
    found = []
    paths = sorted((root / "jsschema_ray").rglob("*.py"))
    for path in paths + [root / "__ray_entry__.py", root / "bench.py"]:
        rel = path.relative_to(root)
        driver = path.parent == root
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names, defaulted = _count_params(node)
                public = not node.name.startswith("_")
                if names and (public or driver):
                    found.append(f"{rel}:{node.lineno} {node.name}{names}")
                elif defaulted:
                    found.append(f"{rel}:{node.lineno} {node.name} "
                                 f"defaults {defaulted}")
                if driver and node.name == "_fanout":
                    found.append(f"{rel}:{node.lineno} def _fanout")
            elif driver and isinstance(node, ast.keyword) \
                    and node.arg in _COUNTS:
                found.append(f"{rel}:{node.value.lineno} {node.arg}=")
    assert found == []


def _docs():
    """A small corpus with exact and near duplicates."""
    base = ["the quick brown fox jumps over the lazy dog again",
            "a stitch in time saves nine said the old tailor",
            "all that glitters is not gold and never was gold",
            "the early bird catches the worm but the mouse gets cheese"]
    text = [base[i % 4] + ("" if i % 3 else f" extra {i}") for i in range(24)]
    return pa.table({"doc_id": pa.array(range(24), pa.int64()),
                     "text": text})


def _keyed(n=600, seed=3):
    rng = np.random.default_rng(seed)
    return pa.table({
        "id": pa.array(np.arange(n) * 2, pa.int64()),
        "k": pa.array(rng.integers(0, 40, n), pa.int64()),
        "v": pa.array(rng.integers(-50, 50, n), pa.int64()),
        "ts": pa.array(rng.integers(0, 10**12, n).astype("datetime64[ns]")),
        "flag": pa.array(rng.random(n) < 0.5),
    })


def _ds(table, blocks=3):
    import ray.data

    return ray.data.from_arrow(table).repartition(blocks)


def _invariance_cases(tmp_path):
    from jsschema_ray.sources.io import write_partitioned
    from jsschema_ray.stages import (aggregates, dedup, drift, graph, join,
                                     packing, quantiles, referential,
                                     sampling, stats, text, transform,
                                     uniqueness, windows)

    t = _keyed()
    kv = t.select(["k", "v"])
    edges = pa.table({"doc_a": pa.array([1, 2, 3, 10, 20, 21, 5], pa.int64()),
                      "doc_b": pa.array([2, 3, 4, 11, 21, 22, 1], pa.int64())})
    runs = iter(range(100))
    return {
        "windows": lambda: windows.rolling_windows(
            _ds(t), key="k", ts="ts", value="v"),
        "aggregates": lambda: aggregates.top_n_with_ties(
            _ds(kv), "k", "v", n=2),
        "quantiles": lambda: quantiles.grouped_quantile_disc(
            _ds(kv), "k", "v", 0.5),
        "sampling": lambda: sampling.cap_per_key(_ds(t), "k", 3, "id"),
        "stats": lambda: stats.grouped_distinct_sketch(_ds(kv), "k", "v"),
        "referential": lambda: referential.id_gaps(_ds(t), "id"),
        "transform": lambda: transform.table_diff(
            _ds(kv.slice(0, 40).group_by("k").aggregate([("v", "min")])),
            _ds(kv.slice(20, 40).group_by("k").aggregate([("v", "min")])),
            "k", ["v_min"]),
        "uniqueness": lambda: uniqueness.except_all_rows(
            _ds(kv), _ds(kv.slice(0, 300))),
        "io": lambda: write_partitioned(
            _ds(kv), str(tmp_path / f"run{next(runs)}"), by="k"),
        "dedup": lambda: dedup.exact_jaccard_pairs(
            _ds(_docs()), threshold=0.5, k=3),
        "dedup_minhash": lambda: dedup.minhash_candidate_pairs(
            _ds(_docs()), num_perm=32, bands=8),
        "dedup_simhash": lambda: dedup.simhash_verified_pairs(_ds(_docs())),
        "join": lambda: join.hash_join(
            _ds(kv), _ds(kv.slice(0, 50).rename_columns(["k", "w"])),
            key="k", hot_keys=[kv.column("k")[0].as_py()], salt=16),
        "text": lambda: text.tfidf_top_terms(_ds(_docs()), k=2),
        "packing": lambda: packing.pack_sequences(
            _ds(t.select(["id", "k"])), "id", "k", budget=100, bin_width=64),
        "graph": lambda: graph.connected_components(_ds(edges)),
        "drift": lambda: drift.categorical_drift(_ds(t), "k", "flag"),
    }


_CASES = ["windows", "aggregates", "quantiles", "sampling", "stats",
          "referential", "transform", "uniqueness", "io", "dedup",
          "dedup_minhash", "dedup_simhash", "join", "text", "packing",
          "graph", "drift"]


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("case", _CASES)
def test_results_do_not_depend_on_the_fanout(case, set_fanout, tmp_path):
    """One function per partitioning module gives the same rows at
    fan-out 1 and at fan-out 7 (the candidate-pair stages emit a pair
    once per partition that holds it, so they compare as sets)."""
    run = _invariance_cases(tmp_path)[case]
    outs = []
    for n in (1, 7):
        set_fanout(n)
        asked = set_fanout.asked
        df = run().to_pandas()
        assert set_fanout.asked > asked  # the stage asked the one rule
        if case.startswith("dedup_"):
            outs.append(set(zip(df["a"], df["b"])))
        else:
            outs.append(df.sort_values(list(df.columns))
                        .reset_index(drop=True))
    if case.startswith("dedup_"):
        assert outs[0] == outs[1] and outs[0]
    else:
        assert len(outs[0])
        import pandas as pd

        pd.testing.assert_frame_equal(outs[0], outs[1])

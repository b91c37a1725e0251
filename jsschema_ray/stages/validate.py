"""Row-local validation stages: the distributed `Validate` analogue.

The reference validates one value per call after a lazy one-time compile
(validator/validator.go:41-63). Here the DAG is compiled ONCE, in the
callable class's ``__init__`` on the driver, ships once in the task spec
of the stateless tasks, and is then applied to zero-copy Arrow batches
with the vectorized kernels (kernels/columnar.py). Per-batch work is pure
pyarrow/numpy; no Python row loops. The violations table is built the
same way: the failing rows' key and observed values are taken and cast
to text by Arrow, which writes what ``str`` writes for string and
integer columns. Other types (float, bool, temporal, binary, nested) keep
a per-value ``_obs``/``str`` fallback over the failing rows only, since
Arrow prints ``1.0`` as ``1`` and ``True`` as ``true``.

Three outputs, all streaming-friendly:
  * annotate: input batch + ``valid`` bool column (keeps pipeline width);
  * violations: only failing rows, as (key, column, path, keyword,
    observed) — small unless the data is very dirty;
  * summary: per-batch (path, keyword, n_failed, n_rows) partial counts,
    meant to be summed by a tiny groupby — constraint-level reporting at
    100 TB without shipping any row.
"""

from __future__ import annotations

import json
import re
from typing import Any, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from jsschema_ray.kernels.columnar import eval_table
from jsschema_ray.kernels.json_eval import evaluate
from jsschema_ray.schema.compiler import compile_schema

_VIOLATION_COLUMNS = ("key", "column", "path", "keyword", "observed",
                      "expected")
_NONE = pa.scalar("None")
_COL_FROM_PATH = re.compile(
    r"^#/(?:properties/(?P<prop>[^/]+)|patternProperties/[^:]*:(?P<pprop>[^/]+)|required)"
)


def _column_of(path: str, keyword: str) -> str:
    m = _COL_FROM_PATH.match(path)
    if m:
        if m.group("prop"):
            return m.group("prop")
        if m.group("pprop"):
            return m.group("pprop")
        return keyword  # "#/required" entries carry the column as keyword
    return ""


class ValidateBatch:
    """Callable map_batches stage. Modes: 'annotate' | 'violations' |
    'summary'. The schema is compiled once in __init__ (the analogue of
    the reference's compile-once mutex, validator/validator.go:41-53)."""

    def __init__(
        self,
        schema: dict[str, Any],
        mode: str = "annotate",
        key_column: Optional[str] = None,
    ):
        if mode not in ("annotate", "violations", "summary"):
            raise ValueError(f"unknown mode {mode!r}")
        self.dag = compile_schema(schema)
        self.mode = mode
        self.key_column = key_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.mode == "annotate":
            mask = eval_table(self.dag, batch)
            return batch.append_column("valid", pa.array(mask))
        collector: list = []
        mask = eval_table(self.dag, batch, collector)
        if self.mode == "summary":
            paths, kws, fails = [], [], []
            for path, kw, idx in collector:
                paths.append(path)
                kws.append(kw)
                fails.append(len(idx))
            return pa.table(
                {
                    "path": pa.array(paths, type=pa.string()),
                    "keyword": pa.array(kws, type=pa.string()),
                    "n_failed": pa.array(fails, type=pa.int64()),
                    "n_rows": pa.array(
                        [batch.num_rows] * len(paths), type=pa.int64()
                    ),
                }
            )
        return self._violations(batch, collector)

    def _violations(self, batch: pa.Table, collector: list) -> pa.Table:
        """One run of rows per collector entry, built from Arrow arrays:
        ``key`` and ``observed`` are the failing rows taken and cast to
        text, the other columns repeat the entry's scalars."""
        key_arr = (
            batch.column(self.key_column)
            if self.key_column and self.key_column in batch.column_names
            else None
        )
        pieces: dict[str, list] = {name: [] for name in _VIOLATION_COLUMNS}
        for path, kw, idx in collector:
            n = len(idx)
            if not n:
                continue
            col = _column_of(path, kw)
            take = pa.array(idx)
            if key_arr is not None:
                keys = _text(key_arr.take(take), observed=False)
            else:
                keys = take.cast(pa.string())
            observed = (_text(batch.column(col).take(take), observed=True)
                        if col in batch.column_names
                        else pa.repeat(_NONE, n))
            exp = expected_text(self.dag, path, kw)
            for name, arr in (
                ("key", keys), ("column", pa.repeat(col, n)),
                ("path", pa.repeat(path, n)), ("keyword", pa.repeat(kw, n)),
                ("observed", observed), ("expected", pa.repeat(exp, n)),
            ):
                pieces[name].append(arr)
        return pa.table({
            name: pa.concat_arrays(arrs) if arrs else pa.array([], pa.string())
            for name, arrs in pieces.items()
        })


def _node_at(dag, path: str):
    """Resolve a collector schema-path back to its ConstraintNode (tolerant:
    returns None on any segment it cannot follow)."""
    node = dag.deref()
    if not path.startswith("#"):
        return None
    segs = [s for s in path[1:].split("/") if s]
    i = 0
    while i < len(segs):
        seg = segs[i]
        try:
            if seg == "properties":
                node = node.properties[segs[i + 1]].deref()
                i += 2
            elif seg == "patternProperties":
                pat = segs[i + 1].rsplit(":", 1)[0]
                node = node.pattern_properties[pat].deref()
                i += 2
            elif seg in ("allOf", "anyOf", "oneOf"):
                node = getattr(
                    node, {"allOf": "all_of", "anyOf": "any_of",
                           "oneOf": "one_of"}[seg]
                )[int(segs[i + 1])].deref()
                i += 2
            elif seg == "items":
                if i + 1 < len(segs) and segs[i + 1].isdigit():
                    node = node.items.schemas[int(segs[i + 1])].deref()
                    i += 2
                else:
                    node = node.items.schemas[0].deref()
                    i += 1
            elif seg == "additionalItems":
                from jsschema_ray.schema.nodes import ConstraintNode

                node = (node.additional_items.deref()
                        if isinstance(node.additional_items, ConstraintNode)
                        else node)
                i += 1
            elif seg == "dependencies":
                sub = (node.dependencies.schemas or {}).get(segs[i + 1])
                node = sub.deref() if sub is not None else node
                i += 2
            elif seg == "required":
                i += 1
            else:
                return None
        except (KeyError, IndexError, TypeError, AttributeError):
            return None
    return node


def expected_text(dag, path: str, keyword: str) -> str:
    """Human-readable 'expected' for a violation — the tabular analogue of
    the reference's error strings (Validate returns a descriptive error,
    validator/validator.go:57-63)."""
    if path.endswith("/required") or path.endswith("#/required"):
        return "value present (required)"
    if "/dependencies/" in path and keyword != "schema":
        dep_key = path.rsplit("/dependencies/", 1)[1].split("/")[0]
        return f"'{keyword}' present when '{dep_key}' is present"
    node = _node_at(dag, path)
    if node is None:
        return keyword
    try:
        if keyword == "minimum":
            return f"> {node.minimum}" if node.exclusive_minimum else f">= {node.minimum}"
        if keyword == "maximum":
            return f"< {node.maximum}" if node.exclusive_maximum else f"<= {node.maximum}"
        if keyword == "minLength":
            return f"length >= {node.min_length}"
        if keyword == "maxLength":
            return f"length <= {node.max_length}"
        if keyword == "pattern":
            return f"match /{node.pattern}/"
        if keyword == "enum":
            return f"one of {node.enum}"
        if keyword == "type":
            return "type " + "/".join(node.types or ())
        if keyword == "multipleOf":
            return f"multiple of {node.multiple_of}"
        if keyword == "format":
            return f"format {node.format}"
        if keyword == "minItems":
            return f">= {node.min_items} items"
        if keyword == "maxItems":
            return f"<= {node.max_items} items"
        if keyword == "uniqueItems":
            return "unique items"
        if keyword == "additionalItems":
            return f"<= {len(node.items.schemas)} items"
        if keyword == "minProperties":
            return f">= {node.min_properties} properties"
        if keyword == "maxProperties":
            return f"<= {node.max_properties} properties"
        if keyword == "anyOf":
            return "at least one sub-schema"
        if keyword == "oneOf":
            return "exactly one sub-schema"
        if keyword == "not":
            return "must not match sub-schema"
        if keyword == "items":
            return "all items match item schema"
    except (AttributeError, TypeError):
        pass
    return keyword


def _obs(v: Any) -> str:
    if isinstance(v, bytes):
        return f"<{len(v)} bytes>"
    s = str(v)
    return s if len(s) <= 120 else s[:117] + "..."


def _text(values: "pa.ChunkedArray", observed: bool) -> pa.Array:
    """Each value as text: ``_obs(v)`` for an observed value, ``str(v)``
    for a key. Arrow's cast writes what ``str`` writes for strings and
    integers; other types (floats print ``1.0``, bools ``True``) are
    formatted per value. ``_obs``'s cut at 120 code points is applied to
    the cast text too."""
    arr = values.combine_chunks()
    if pa.types.is_dictionary(arr.type):
        arr = arr.dictionary_decode()
    t = arr.type
    if not (pa.types.is_string(t) or pa.types.is_large_string(t)
            or pa.types.is_integer(t) or pa.types.is_null(t)):
        fmt = _obs if observed else str
        return pa.array([fmt(v) for v in arr.to_pylist()], pa.string())
    text = arr.cast(pa.string()).fill_null(_NONE)
    if observed:
        long = pc.greater(pc.utf8_length(text), 120)
        if pc.any(long).as_py():
            cut = pc.binary_join_element_wise(
                pc.utf8_slice_codeunits(text, 0, 117), "...", "")
            text = pc.if_else(long, cut, text)
    return text


def validate(
    ds: "ray.data.Dataset",
    schema: dict[str, Any],
    mode: str = "annotate",
    key_column: Optional[str] = None,
    batch_size: int = 65536,
) -> "ray.data.Dataset":
    """Attach the validation stage to a Dataset: stateless tasks, the
    compiled closure ships once in the task spec."""
    stage = ValidateBatch(schema, mode=mode, key_column=key_column)
    return ds.map_batches(stage, batch_format="pyarrow",
                          batch_size=batch_size, zero_copy_batch=True)


def violations(ds, schema, key_column=None, **kw):
    return validate(ds, schema, mode="violations", key_column=key_column, **kw)


def summarize(ds, schema, **kw):
    """Global per-constraint failure counts as a pyarrow Table: per-batch
    partials (one row per batch × constraint) folded by a driver-side
    groupby. The partial count is O(batches × constraints), tiny at any
    single-job scale, so an exchange over it would be pure fixed cost."""
    import pandas as pd

    rows = validate(ds, schema, mode="summary", **kw).take_all()
    if not rows:
        return pa.table({"path": pa.array([], type=pa.string()),
                         "keyword": pa.array([], type=pa.string()),
                         "n_failed": pa.array([], type=pa.int64()),
                         "n_checked": pa.array([], type=pa.int64())})
    df = pd.DataFrame(rows).groupby(["path", "keyword"], sort=True).agg(
        n_failed=("n_failed", "sum"), n_checked=("n_rows", "sum")
    ).reset_index()
    return pa.Table.from_pandas(df, preserve_index=False)


class JsonColumnValidator:
    """Validate a column of dynamic JSON documents (e.g. the ``events.props``
    string column) against a compiled DAG — the per-row fallback for data a
    fixed Arrow schema cannot type. Runs as an actor pool: DAG compiled once
    per actor; the per-batch loop is unavoidable for schemaless payloads and
    stays off the tabular hot path."""

    def __init__(self, schema: dict[str, Any], column: str,
                 out_column: str = "json_valid"):
        self.dag = compile_schema(schema)
        self.column = column
        self.out_column = out_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        vals = batch.column(self.column).to_pylist()
        out = np.empty(len(vals), dtype=bool)
        for i, v in enumerate(vals):
            if v is None:
                out[i] = True
                continue
            try:
                out[i] = evaluate(self.dag, json.loads(v))
            except (ValueError, TypeError):
                out[i] = False
        return batch.append_column(self.out_column, pa.array(out))

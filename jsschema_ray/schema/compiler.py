"""dict -> ConstraintDAG compiler and ConstraintDAG -> dict serializer.

Mirrors the keyword-by-keyword extraction semantics of the reference's
``Schema.Extract`` (reference marshal.go:474-667) with per-keyword value-type
checks (the ``extract*`` helpers, marshal.go:12-169), the string-or-list
``type`` union (marshal.go:392-429), tuple-vs-list ``items`` detection
(marshal.go:337-369), the additionalItems/additionalProperties tri-states
(marshal.go:590-626) and name-list-vs-schema ``dependencies``
(marshal.go:371-390,431-459). Unknown keywords land in ``extras``
(marshal.go:650-660).

Deliberate differences from the reference (documented in SURVEY.md §2.A):
  * malformed minLength/maxLength/minItems/maxItems RAISE here — the
    reference silently discards those errors (marshal.go:534-548 stale-err
    quirk), which we do not reproduce;
  * ``$ref`` is resolved at COMPILE time into a shared, possibly cyclic node
    graph (memoized by JSON pointer), instead of the reference's lazy
    runtime resolution with a mutex-guarded memo cache (schema.go:204-269).
    Only local refs (``#`` / ``#/...``) are supported, matching the
    reference's practical scope (findSchemaByID is "Quite unimplemented",
    schema.go:166; full id scoping is a README TODO, README.md:78).

Serialization (``to_json``) mirrors MarshalJSON (marshal.go:738-866): only
initialized keywords are emitted, round-trip tested.
"""

from __future__ import annotations

import json
import numbers
import urllib.parse
from pathlib import Path
from typing import Any, Union

from jsschema_ray.schema.nodes import (
    ALLOW,
    FORBID,
    ConstraintNode,
    DependencySpec,
    ItemSpec,
    PRIMITIVE_TYPES,
    SchemaError,
)

# Keywords handled by named fields; everything else is an "extra"
# (reference marshal.go:474-667 switch arms + interface.go:85-134 fields).
_KNOWN_KEYWORDS = {
    "id", "title", "description", "default", "$schema", "$ref", "definitions",
    "type", "enum", "format", "multipleOf", "minimum", "maximum",
    "exclusiveMinimum", "exclusiveMaximum", "minLength", "maxLength",
    "pattern", "items", "additionalItems", "minItems", "maxItems",
    "uniqueItems", "minProperties", "maxProperties", "required", "properties",
    "patternProperties", "additionalProperties", "dependencies", "allOf",
    "anyOf", "oneOf", "not",
}


def _is_number(v: Any) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _need(v: Any, typ: type, kw: str) -> Any:
    if typ is float:
        if not _is_number(v):
            raise SchemaError(f"keyword {kw!r}: expected number, got {type(v).__name__}")
        return v
    if typ is int:
        if isinstance(v, bool) or not isinstance(v, int):
            raise SchemaError(f"keyword {kw!r}: expected integer, got {type(v).__name__}")
        return v
    if not isinstance(v, typ):
        raise SchemaError(
            f"keyword {kw!r}: expected {typ.__name__}, got {type(v).__name__}"
        )
    return v


class _Compiler:
    def __init__(self, root_raw: dict[str, Any]):
        self.root_raw = root_raw
        self.memo: dict[str, ConstraintNode] = {}
        self.pending_refs: list[tuple[ConstraintNode, str]] = []

    # -- JSON pointer ------------------------------------------------------
    def _navigate(self, pointer: str) -> Any:
        """Resolve a local JSON pointer ('#', '#/a/b', with ~0 ~1 and %XX
        escapes) against the raw root document."""
        if pointer in ("#", "", "#/"):
            return self.root_raw
        if not pointer.startswith("#/"):
            raise SchemaError(
                f"unsupported $ref {pointer!r}: only local '#/...' refs are "
                "supported (matches reference scope, schema.go:166/README.md:78)"
            )
        cur: Any = self.root_raw
        for raw_tok in pointer[2:].split("/"):
            tok = urllib.parse.unquote(raw_tok).replace("~1", "/").replace("~0", "~")
            if isinstance(cur, dict):
                if tok not in cur:
                    raise SchemaError(f"$ref {pointer!r}: key {tok!r} not found")
                cur = cur[tok]
            elif isinstance(cur, list):
                try:
                    cur = cur[int(tok)]
                except (ValueError, IndexError) as e:
                    raise SchemaError(f"$ref {pointer!r}: bad index {tok!r}") from e
            else:
                raise SchemaError(f"$ref {pointer!r}: cannot traverse into {type(cur)}")
        return cur

    # -- compile -----------------------------------------------------------
    def compile(self, raw: Any, pointer: str) -> ConstraintNode:
        if pointer in self.memo:
            return self.memo[pointer]
        if isinstance(raw, bool):
            # draft-04 proper has no boolean schemas, but additionalItems /
            # additionalProperties accept them; handled by callers. A bare
            # boolean elsewhere is malformed.
            raise SchemaError(f"schema at {pointer}: expected object, got bool")
        if not isinstance(raw, dict):
            raise SchemaError(
                f"schema at {pointer}: expected object, got {type(raw).__name__}"
            )
        node = ConstraintNode()
        self.memo[pointer] = node  # memo BEFORE children so cycles close
        self._fill(node, raw, pointer)
        return node

    def _sub(self, raw: Any, pointer: str) -> ConstraintNode:
        return self.compile(raw, pointer)

    def _fill(self, n: ConstraintNode, m: dict[str, Any], ptr: str) -> None:
        # annotations (marshal.go:482-515)
        if "id" in m:
            n.id = _need(m["id"], str, "id")
        if "title" in m:
            n.title = _need(m["title"], str, "title")
        if "description" in m:
            n.description = _need(m["description"], str, "description")
        if "default" in m:
            n.default, n.has_default = m["default"], True
        if "$schema" in m:
            n.schema_uri = _need(m["$schema"], str, "$schema")

        if "$ref" in m:
            n.ref = _need(m["$ref"], str, "$ref")
            self.pending_refs.append((n, n.ref))

        if "definitions" in m:
            defs = _need(m["definitions"], dict, "definitions")
            n.definitions = {
                k: self._sub(v, f"{ptr}/definitions/{k}") for k, v in defs.items()
            }

        # type: string or list of strings -> union (marshal.go:392-429)
        if "type" in m:
            tv = m["type"]
            if isinstance(tv, str):
                tv = [tv]
            if not isinstance(tv, list) or not all(isinstance(t, str) for t in tv):
                raise SchemaError("keyword 'type': expected string or list of strings")
            for t in tv:
                if t not in PRIMITIVE_TYPES:
                    raise SchemaError(f"keyword 'type': invalid primitive type {t!r}")
            n.types = tuple(tv)

        if "enum" in m:
            n.enum = list(_need(m["enum"], list, "enum"))
        if "format" in m:
            n.format = _need(m["format"], str, "format")

        # numeric (marshal.go:517-532, 560-575)
        if "multipleOf" in m:
            n.multiple_of = _need(m["multipleOf"], float, "multipleOf")
            # draft-04 §5.1.1: "The value of multipleOf MUST be a number,
            # strictly greater than 0" — rejecting here keeps the row-wise
            # evaluator (ZeroDivisionError) and the columnar kernel from
            # ever seeing a non-positive divisor
            if n.multiple_of <= 0:
                raise SchemaError("keyword 'multipleOf': must be > 0")
        if "minimum" in m:
            n.minimum = _need(m["minimum"], float, "minimum")
        if "maximum" in m:
            n.maximum = _need(m["maximum"], float, "maximum")
        if "exclusiveMinimum" in m:
            n.exclusive_minimum = _need(m["exclusiveMinimum"], bool, "exclusiveMinimum")
        if "exclusiveMaximum" in m:
            n.exclusive_maximum = _need(m["exclusiveMaximum"], bool, "exclusiveMaximum")

        # string (marshal.go:534-558); malformed values RAISE (no stale-err quirk)
        if "minLength" in m:
            n.min_length = _need(m["minLength"], int, "minLength")
        if "maxLength" in m:
            n.max_length = _need(m["maxLength"], int, "maxLength")
        if "pattern" in m:
            n.pattern = _need(m["pattern"], str, "pattern")
            n.pattern_re()  # compile now, like the reference compiles at parse
            # time (marshal.go:143-169)
            # the contract dialect is RE2 (Go regexp in the reference; Arrow
            # in the columnar kernels): Python-re-only syntax (lookaheads,
            # backrefs) would compile here but crash every worker at
            # runtime — reject it at compile time instead
            try:
                import pyarrow as _pa
                import pyarrow.compute as _pc

                _pc.match_substring_regex(
                    _pa.array([""], type=_pa.string()), n.pattern
                )
            except _pa.lib.ArrowInvalid as e:
                raise SchemaError(
                    f"keyword 'pattern': regex not supported by RE2 (the "
                    f"Go/Arrow dialect this engine matches): {e}"
                ) from e

        # array (marshal.go:337-369, 577-607)
        if "items" in m:
            iv = m["items"]
            if isinstance(iv, dict):
                n.items = ItemSpec(False, [self._sub(iv, f"{ptr}/items")])
            elif isinstance(iv, list):
                n.items = ItemSpec(
                    True, [self._sub(s, f"{ptr}/items/{i}") for i, s in enumerate(iv)]
                )
            else:
                raise SchemaError("keyword 'items': expected object or list")
        if "additionalItems" in m:
            av = m["additionalItems"]
            if av is False:
                n.additional_items = FORBID
            elif av is True:
                n.additional_items = ALLOW
            elif isinstance(av, dict):
                n.additional_items = self._sub(av, f"{ptr}/additionalItems")
            else:
                raise SchemaError("keyword 'additionalItems': expected bool or object")
        if "minItems" in m:
            n.min_items = _need(m["minItems"], int, "minItems")
        if "maxItems" in m:
            n.max_items = _need(m["maxItems"], int, "maxItems")
        if "uniqueItems" in m:
            n.unique_items = _need(m["uniqueItems"], bool, "uniqueItems")

        # object (marshal.go:609-648)
        if "minProperties" in m:
            n.min_properties = _need(m["minProperties"], int, "minProperties")
        if "maxProperties" in m:
            n.max_properties = _need(m["maxProperties"], int, "maxProperties")
        if "required" in m:
            rv = _need(m["required"], list, "required")
            if not all(isinstance(r, str) for r in rv):
                raise SchemaError("keyword 'required': expected list of strings")
            n.required = list(rv)
        if "properties" in m:
            pv = _need(m["properties"], dict, "properties")
            n.properties = {
                k: self._sub(v, f"{ptr}/properties/{_esc(k)}") for k, v in pv.items()
            }
        if "patternProperties" in m:
            pv = _need(m["patternProperties"], dict, "patternProperties")
            n.pattern_properties = {
                k: self._sub(v, f"{ptr}/patternProperties/{_esc(k)}")
                for k, v in pv.items()
            }
            n.pattern_props_re()  # compile regexes now
        if "additionalProperties" in m:
            av = m["additionalProperties"]
            if av is False:
                n.additional_properties = FORBID
            elif av is True:
                n.additional_properties = ALLOW
            elif isinstance(av, dict):
                n.additional_properties = self._sub(av, f"{ptr}/additionalProperties")
            else:
                raise SchemaError(
                    "keyword 'additionalProperties': expected bool or object"
                )
        if "dependencies" in m:
            dv = _need(m["dependencies"], dict, "dependencies")
            dep = DependencySpec()
            for k, v in dv.items():
                if isinstance(v, list):
                    if not all(isinstance(x, str) for x in v):
                        raise SchemaError(
                            f"dependency {k!r}: name list must be strings"
                        )
                    dep.names[k] = list(v)
                elif isinstance(v, str):
                    dep.names[k] = [v]
                elif isinstance(v, dict):
                    dep.schemas[k] = self._sub(v, f"{ptr}/dependencies/{_esc(k)}")
                else:
                    raise SchemaError(
                        f"dependency {k!r}: expected list, string or schema"
                    )
            n.dependencies = dep

        # combinators (marshal.go:628-648)
        for kw, attr in (("allOf", "all_of"), ("anyOf", "any_of"), ("oneOf", "one_of")):
            if kw in m:
                lv = _need(m[kw], list, kw)
                setattr(
                    n, attr,
                    [self._sub(s, f"{ptr}/{kw}/{i}") for i, s in enumerate(lv)],
                )
        if "not" in m:
            n.not_ = self._sub(_need(m["not"], dict, "not"), f"{ptr}/not")

        # unknown keywords preserved verbatim (marshal.go:650-660)
        for k, v in m.items():
            if k not in _KNOWN_KEYWORDS:
                n.extras[k] = v

    def resolve_refs(self) -> None:
        for node, ref in self.pending_refs:
            target_raw = self._navigate(ref)
            # canonical pointer == the ref string itself (local refs only)
            ptr = ref if ref.startswith("#") else "#" + ref
            node.ref_target = self.compile(target_raw, ptr)
        self.pending_refs.clear()


def _esc(tok: str) -> str:
    return tok.replace("~", "~0").replace("/", "~1")


def compile_schema(src: Union[str, Path, dict[str, Any]]) -> ConstraintNode:
    """Compile a schema (dict, JSON string, or file path) to a ConstraintDAG.

    The compile-once / validate-many analogue of the reference's lazy
    validator build (validator/validator.go:41-53): the DAG is built once on
    the driver and shipped to workers via closure capture / actor __init__.
    """
    if isinstance(src, (str, Path)):
        # JSON text starts with a bracket; anything else names a file, so a
        # missing file raises FileNotFoundError, not a JSON parse error
        if isinstance(src, Path) or not src.lstrip().startswith(("{", "[")):
            raw = json.loads(Path(src).read_text())
        else:
            raw = json.loads(src)
    else:
        raw = src
    if not isinstance(raw, dict):
        raise SchemaError(f"schema root must be an object, got {type(raw).__name__}")
    c = _Compiler(raw)
    root = c.compile(raw, "#")
    # iterate: resolving refs may discover new refs in newly compiled subtrees
    for _ in range(64):
        if not c.pending_refs:
            break
        c.resolve_refs()
    else:
        raise SchemaError("$ref resolution did not converge (deep ref chain)")
    return root


# --------------------------------------------------------------------------
# serialization (MarshalJSON analogue, marshal.go:738-866)
# --------------------------------------------------------------------------

def to_json(node: ConstraintNode) -> dict[str, Any]:
    """Serialize a ConstraintDAG back to a JSON-able dict. Cyclic graphs are
    handled because resolved ``$ref`` nodes serialize as ``{"$ref": ...}``
    (the graph's only cycles go through refs)."""
    return _ser(node, set())


def _ser(n: ConstraintNode, on_path: set[int]) -> dict[str, Any]:
    if id(n) in on_path:
        raise SchemaError("cannot serialize cyclic schema without $ref")
    on_path = on_path | {id(n)}
    out: dict[str, Any] = {}
    if n.id is not None:
        out["id"] = n.id
    if n.schema_uri is not None:
        out["$schema"] = n.schema_uri
    if n.title is not None:
        out["title"] = n.title
    if n.description is not None:
        out["description"] = n.description
    if n.has_default:
        out["default"] = n.default
    if n.ref is not None:
        out["$ref"] = n.ref
    if n.definitions is not None:
        out["definitions"] = {k: _ser(v, on_path) for k, v in n.definitions.items()}
    if n.types is not None:
        out["type"] = n.types[0] if len(n.types) == 1 else list(n.types)
    if n.enum is not None:
        out["enum"] = n.enum
    if n.format is not None:
        out["format"] = n.format
    if n.multiple_of is not None:
        out["multipleOf"] = n.multiple_of
    if n.minimum is not None:
        out["minimum"] = n.minimum
    if n.exclusive_minimum:
        out["exclusiveMinimum"] = True
    if n.maximum is not None:
        out["maximum"] = n.maximum
    if n.exclusive_maximum:
        out["exclusiveMaximum"] = True
    if n.min_length is not None:
        out["minLength"] = n.min_length
    if n.max_length is not None:
        out["maxLength"] = n.max_length
    if n.pattern is not None:
        out["pattern"] = n.pattern
    if n.items is not None:
        if n.items.tuple_mode:
            out["items"] = [_ser(s, on_path) for s in n.items.schemas]
        else:
            out["items"] = _ser(n.items.schemas[0], on_path)
    if n.additional_items is FORBID:
        out["additionalItems"] = False
    elif isinstance(n.additional_items, ConstraintNode):
        out["additionalItems"] = _ser(n.additional_items, on_path)
    if n.min_items is not None:
        out["minItems"] = n.min_items
    if n.max_items is not None:
        out["maxItems"] = n.max_items
    if n.unique_items:
        out["uniqueItems"] = True
    if n.min_properties is not None:
        out["minProperties"] = n.min_properties
    if n.max_properties is not None:
        out["maxProperties"] = n.max_properties
    if n.required is not None:
        out["required"] = list(n.required)
    if n.properties is not None:
        out["properties"] = {k: _ser(v, on_path) for k, v in n.properties.items()}
    if n.pattern_properties is not None:
        out["patternProperties"] = {
            k: _ser(v, on_path) for k, v in n.pattern_properties.items()
        }
    if n.additional_properties is FORBID:
        out["additionalProperties"] = False
    elif isinstance(n.additional_properties, ConstraintNode):
        out["additionalProperties"] = _ser(n.additional_properties, on_path)
    if n.dependencies is not None and not n.dependencies.is_empty():
        dep: dict[str, Any] = {}
        for k, v in n.dependencies.names.items():
            dep[k] = list(v)
        for k, s in n.dependencies.schemas.items():
            dep[k] = _ser(s, on_path)
        out["dependencies"] = dep
    if n.all_of is not None:
        out["allOf"] = [_ser(s, on_path) for s in n.all_of]
    if n.any_of is not None:
        out["anyOf"] = [_ser(s, on_path) for s in n.any_of]
    if n.one_of is not None:
        out["oneOf"] = [_ser(s, on_path) for s in n.one_of]
    if n.not_ is not None:
        out["not"] = _ser(n.not_, on_path)
    for k, v in n.extras.items():
        out[k] = v
    return out

"""Schema compiler unit tests: extraction semantics, tri-states, extras
preservation, $ref resolution, round-trip serialization
(cf. reference marshal_test.go:13-65, schema_test.go:107-123)."""

import json
import os

import pytest

from jsschema_ray import compile_schema
from jsschema_ray.schema import ALLOW, FORBID, ConstraintNode, SchemaError, to_json
from jsschema_ray.kernels import validate_value
from tests.conftest import REFERENCE_TEST_DIR


def test_type_string_and_list():
    assert compile_schema({"type": "integer"}).types == ("integer",)
    assert compile_schema({"type": ["string", "null"]}).types == ("string", "null")
    with pytest.raises(SchemaError):
        compile_schema({"type": "florb"})
    with pytest.raises(SchemaError):
        compile_schema({"type": 3})


def test_tristates():
    n = compile_schema({"items": [{"type": "string"}], "additionalItems": False})
    assert n.additional_items is FORBID
    n = compile_schema({"additionalItems": True})
    assert n.additional_items is ALLOW
    n = compile_schema({"additionalItems": {"type": "integer"}})
    assert isinstance(n.additional_items, ConstraintNode)
    n = compile_schema({"additionalProperties": False})
    assert n.additional_properties is FORBID
    n = compile_schema({})
    assert n.additional_properties is ALLOW and n.additional_items is ALLOW


def test_items_modes():
    n = compile_schema({"items": {"type": "string"}})
    assert not n.items.tuple_mode and len(n.items.schemas) == 1
    n = compile_schema({"items": [{"type": "string"}, {"type": "number"}]})
    assert n.items.tuple_mode and len(n.items.schemas) == 2


def test_dependencies_forms():
    n = compile_schema(
        {"dependencies": {"a": ["b", "c"], "d": "e", "f": {"required": ["g"]}}}
    )
    assert n.dependencies.names == {"a": ["b", "c"], "d": ["e"]}
    assert "f" in n.dependencies.schemas


def test_malformed_keywords_raise():
    # the reference silently ignores these (marshal.go:534-548 quirk); we raise
    for bad in (
        {"minLength": "5"},
        {"maxItems": 1.5},
        {"pattern": 7},
        {"required": [1]},
        {"enum": "x"},
        {"minimum": "low"},
    ):
        with pytest.raises(SchemaError):
            compile_schema(bad)


def test_extras_preserved():
    # unknown keywords preserved verbatim (schema_test.go:107-123)
    raw = {"type": "object", "x-uniqueness": {"columns": ["image_id"]}, "custom": [1]}
    n = compile_schema(raw)
    assert n.extras == {"x-uniqueness": {"columns": ["image_id"]}, "custom": [1]}
    assert to_json(n)["x-uniqueness"] == {"columns": ["image_id"]}


def test_ref_resolution_and_cycles():
    raw = {
        "definitions": {
            "node": {
                "type": "object",
                "properties": {"next": {"$ref": "#/definitions/node"}},
            }
        },
        "$ref": "#/definitions/node",
    }
    n = compile_schema(raw)
    eff = n.deref()
    assert eff.properties["next"].deref() is eff  # cycle shared, not copied
    ok, _ = validate_value(n, {"next": {"next": {}}})
    assert ok
    ok, _ = validate_value(n, {"next": "not-an-object"})
    assert not ok


def test_ref_errors():
    with pytest.raises(SchemaError):
        compile_schema({"$ref": "#/definitions/missing"})
    with pytest.raises(SchemaError):
        compile_schema({"$ref": "http://example.com/schema.json"})


def test_schema_path_and_text_sources(tmp_path):
    """A string that is not JSON text names a file: a missing one raises
    FileNotFoundError, not a JSON parse error."""
    missing = tmp_path / "missing.json"
    with pytest.raises(FileNotFoundError):
        compile_schema(str(missing))
    with pytest.raises(FileNotFoundError):
        compile_schema(missing)
    path = tmp_path / "s.json"
    path.write_text('{"type": "integer"}')
    assert compile_schema(str(path)).types == ("integer",)
    assert compile_schema(' {"type": "integer"}').types == ("integer",)


def test_roundtrip_fixpoint():
    """compile -> to_json -> compile -> to_json is a fixpoint (the tabular
    analogue of the reference's marshal round-trip, marshal_test.go:13-65)."""
    sources = [
        {"type": "integer", "minimum": 5, "exclusiveMinimum": True},
        {"type": "object", "properties": {"name": {"type": "string", "maxLength": 10}},
         "required": ["name"], "additionalProperties": False},
        {"items": [{"type": "number"}, {"enum": ["a", "b"]}],
         "additionalItems": False, "uniqueItems": True},
    ]
    if os.path.isdir(REFERENCE_TEST_DIR):
        for fam in ("business", "objectpatterns", "arraytuple", "schema", "qiita"):
            sources.append(json.loads(open(f"{REFERENCE_TEST_DIR}/{fam}.json").read()))
    for raw in sources:
        j1 = to_json(compile_schema(raw))
        j2 = to_json(compile_schema(j1))
        assert j1 == j2


def test_absent_vs_zero():
    # Number/Integer/Bool{Initialized} analogue (interface.go:49-67): absent
    # keyword is None, explicit zero is kept
    n = compile_schema({"minimum": 0})
    assert n.minimum == 0 and n.maximum is None and n.exclusive_minimum is False
    ok, _ = validate_value(n, -1)
    assert not ok
    ok, _ = validate_value(n, 0)
    assert ok


def test_pattern_non_re2_rejected():
    """Lookaheads/backrefs compile in Python re but crash Arrow's RE2 at
    runtime on every worker; the contract dialect is RE2 (the reference is
    Go regexp), so compile must reject them with a clear error."""
    import pytest

    from jsschema_ray.schema.compiler import SchemaError, compile_schema

    for pat in (r"(?=ab)c", r"(a)\1"):
        with pytest.raises(SchemaError, match="RE2"):
            compile_schema({"pattern": pat})
    compile_schema({"pattern": "^a+[0-9]{3}$"})  # RE2-safe passes

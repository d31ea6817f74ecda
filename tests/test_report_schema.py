"""The in-package report check (`schema.check_schema`) gives the verdict of
jsonschema's draft-07 validator on `report all` JSON and mutations of it."""

import contextlib
import copy
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st
import jsonschema
import pytest

from chi2qec import cli
from chi2qec.schema import SchemaViolation, check_schema, report_schema

SCHEMA = report_schema()
FORMATS = SCHEMA["properties"]["config"]["properties"]["format"]["enum"]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def report():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["report", "all"]) == 1  # the red gate identities
    return json.loads(out.getvalue())


def _accepts(doc, schema=SCHEMA) -> bool:
    try:
        check_schema(doc, schema)
    except SchemaViolation:
        return False
    return True


def _objects(doc):
    """The document, its config and its results rows, where a mutation has
    not replaced them with something other than an object."""
    parts = [doc, doc.get("config")]
    if isinstance(doc.get("results"), list):
        parts += doc["results"]
    return [p for p in parts if isinstance(p, dict)]


def _set_config(doc, key, value):
    if isinstance(doc.get("config"), dict):
        doc["config"][key] = value


def drop_key(doc, draw):
    obj = draw(st.sampled_from(_objects(doc)))
    if obj:
        del obj[draw(st.sampled_from(sorted(obj)))]


def extra_top_level_key(doc, draw):
    key = draw(st.text(max_size=6).filter(lambda k: k not in SCHEMA["properties"]))
    doc[key] = draw(JSON_VALUES)


def wrong_type(doc, draw):
    obj = draw(st.sampled_from(_objects(doc)))
    if obj:
        obj[draw(st.sampled_from(sorted(obj)))] = draw(JSON_VALUES)


def boolean_or_float_seed(doc, draw):
    _set_config(doc, "seed", draw(st.sampled_from([True, False, 1.0, 2026.0, 2026.5])))


def zero_tolerance(doc, draw):
    _set_config(doc, "tolerance", draw(st.sampled_from([0, 0.0, -1e-9, False])))


def format_outside_enum(doc, draw):
    _set_config(doc, "format", draw(st.text(max_size=5).filter(lambda f: f not in FORMATS)))


def zero_threads(doc, draw):
    _set_config(doc, "threads", draw(st.sampled_from([0, 0.0, 1.0, True, -3])))


def row_without_name(doc, draw):
    rows = [r for r in _objects(doc)[2:] if "name" in r]
    if rows:
        del draw(st.sampled_from(rows))["name"]


MUTATIONS = [drop_key, extra_top_level_key, wrong_type, boolean_or_float_seed,
             zero_tolerance, format_outside_enum, zero_threads, row_without_name]


def test_report_all_passes_both_checks(report):
    assert _accepts(report)
    jsonschema.Draft7Validator(SCHEMA).validate(report)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_schema_check_agrees_with_jsonschema(report, data):
    doc = copy.deepcopy(report)
    for mutate in data.draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3),
                            label="mutations"):
        mutate(doc, data.draw)
    assert _accepts(doc) == jsonschema.Draft7Validator(SCHEMA).is_valid(doc)


@pytest.mark.parametrize("path,value,message", [
    (("config", "seed"), True, r"^\$\.config\.seed: True is not of type 'integer'"),
    (("config", "seed"), 1.0, None),  # draft-07: an integral float is an integer
    (("config", "tolerance"), 0, r"^\$\.config\.tolerance: 0 is not above 0"),
    (("config", "threads"), 0, r"^\$\.config\.threads: 0 is below the minimum 1"),
    (("config", "format"), "yaml", r"^\$\.config\.format: 'yaml' is not one of"),
    (("tool",), True, r"^\$\.tool: True is not 'chi2qec'"),
    (("passed",), 1, r"^\$\.passed: 1 is not of type 'boolean'"),
    (("extra",), 1, r"^\$\.extra: no value is allowed here"),
])
def test_listed_mutations_get_the_jsonschema_verdict(report, path, value, message):
    doc = copy.deepcopy(report)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    assert jsonschema.Draft7Validator(SCHEMA).is_valid(doc) == (message is None)
    if message is None:
        check_schema(doc, SCHEMA)
    else:
        with pytest.raises(SchemaViolation, match=message):
            check_schema(doc, SCHEMA)


def test_a_keyword_the_check_does_not_interpret_raises():
    with pytest.raises(ValueError, match=r"\$\.n uses keywords .*\['maximum'\]") as info:
        check_schema({"n": 2}, {"properties": {"n": {"type": "integer", "maximum": 3}}})
    assert info.type is ValueError  # not a verdict on the document


@pytest.mark.parametrize("value,schema", [
    (1, {"const": True}),
    (True, {"const": 1}),
    (True, {"enum": [1, 0]}),
    (1.0, {"const": 1}),
    ([1, True], {"const": [1, 1]}),
    ({"a": 1.0}, {"enum": [{"a": 1}]}),
    (1.0, {"type": "integer"}),
    (1.5, {"type": "integer"}),
    (False, {"type": "number"}),
    (True, {"minimum": 2}),
    ("x", {"exclusiveMinimum": 0}),
    ([], {"required": ["a"]}),
    ({"a": [0, "1"]}, {"properties": {"a": {"items": {"type": "integer"}}}}),
])
def test_draft07_semantics_on_small_schemas(value, schema):
    assert _accepts(value, schema) == jsonschema.Draft7Validator(schema).is_valid(value)

"""Run-time check of JSON reports against the bundled report.schema.json.

`check_schema` interprets, with draft-07 semantics, the keywords that
report.schema.json uses, so `report` checks its JSON on every run without
the jsonschema package (a test-only dependency, against whose verdicts the
tests hold this check).  Any other keyword raises ValueError once it is
applied, so the schema cannot outgrow the check unnoticed.
"""

import json
import os
import reprlib

from .fock import shared


class SchemaViolation(ValueError):
    """A document breaks its schema; the message starts with the JSON path
    of the offending value."""


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# As in draft-07: true is no number, and a float with an integral value is
# an integer.
_JSON_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": _is_number,
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
}

# The constraining keywords check_schema interprets, and annotations that
# constrain nothing.
_SCHEMA_KEYWORDS = {
    "type", "const", "enum", "required", "properties", "additionalProperties",
    "items", "minimum", "exclusiveMinimum", "$schema", "$id", "title",
}


def _json_equal(a, b) -> bool:
    """Equality as const and enum compare: true is not 1, but 1.0 is 1."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_json_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_json_equal(a[k], b[k]) for k in a)
    return a == b


def check_schema(value, schema, path: str = "$") -> None:
    """Raise SchemaViolation unless the parsed JSON `value` is valid under
    `schema`; raise ValueError if an applied subschema uses a keyword
    outside _SCHEMA_KEYWORDS."""
    if schema is True:
        return
    if schema is False:
        raise SchemaViolation("%s: no value is allowed here" % path)
    unknown = schema.keys() - _SCHEMA_KEYWORDS
    if unknown:
        raise ValueError("the schema for %s uses keywords the check does not "
                         "interpret: %s" % (path, sorted(unknown)))
    problem = None
    if "type" in schema and not _JSON_TYPES[schema["type"]](value):
        problem = "%s is not of type %r" % (reprlib.repr(value), schema["type"])
    elif "const" in schema and not _json_equal(value, schema["const"]):
        problem = "%s is not %r" % (reprlib.repr(value), schema["const"])
    elif "enum" in schema and not any(_json_equal(value, e) for e in schema["enum"]):
        problem = "%s is not one of %r" % (reprlib.repr(value), schema["enum"])
    elif "minimum" in schema and _is_number(value) and value < schema["minimum"]:
        problem = "%r is below the minimum %r" % (value, schema["minimum"])
    elif ("exclusiveMinimum" in schema and _is_number(value)
          and value <= schema["exclusiveMinimum"]):
        problem = "%r is not above %r" % (value, schema["exclusiveMinimum"])
    elif isinstance(value, dict):
        missing = [key for key in schema.get("required", ()) if key not in value]
        if missing:
            problem = "missing required keys %s" % missing
    if problem:
        raise SchemaViolation("%s: %s" % (path, problem))
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, item in value.items():
            check_schema(item, properties.get(key, extra), "%s.%s" % (path, key))
    elif isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            check_schema(item, schema["items"], "%s[%d]" % (path, i))


@shared
def report_schema() -> dict:
    """The bundled report.schema.json, shared; callers must not change it."""
    with open(os.path.join(os.path.dirname(__file__), "report.schema.json")) as fh:
        return json.load(fh)

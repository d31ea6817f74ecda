"""`emit`'s JSON writer prints what `json.dumps(indent=2, sort_keys=True)`
prints for the same document with each complex array as nested lists."""

import json
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from chi2qec import cli

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e308, -1e308,
               1.7976931348623157e308, 0.1, 1 / 3]
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from(EDGE_FLOATS))
ANY_FLOAT = st.one_of(FINITE, st.sampled_from([math.nan, math.inf, -math.inf]))


@st.composite
def complex_arrays(draw):
    """A K x K complex array, K = 1..8; some hold NaN or +-inf."""
    K = draw(st.integers(1, 8))
    elements = draw(st.sampled_from([FINITE, FINITE, ANY_FLOAT]))
    parts = draw(arrays(np.float64, (K, K, 2), elements=elements))
    return parts.view(complex)[..., 0]


LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                   st.text(), complex_arrays())
DOCUMENTS = st.recursive(
    LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=12,
)


def _as_lists(value):
    """The document with each complex array as `[[[re, im], ...], ...]`."""
    if isinstance(value, np.ndarray):
        return [[[float(z.real), float(z.imag)] for z in row] for row in value]
    if isinstance(value, dict):
        return {key: _as_lists(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_as_lists(item) for item in value]
    return value


@settings(max_examples=300, deadline=None)
@given(DOCUMENTS)
@example({"alpha": np.array([[-0.0 + 5e-324j, 1e308 - 1e308j]] * 2)})
@example([{"alpha": np.array([[math.nan - 0.0j, complex(math.inf, -math.inf)]] * 2)}])
@example({"results": [{"alpha": np.full((1, 1), -0.0 - 0.0j), "name": "x"}], "b": []})
def test_writer_prints_the_bytes_of_json_dumps(doc):
    assert cli._json_text(doc) == json.dumps(_as_lists(doc), indent=2, sort_keys=True)


def test_non_finite_entries_are_written_as_json_writes_them():
    text = cli._json_text({"a": np.array([[math.nan + 1j, complex(-math.inf, 0.0)]] * 2)})
    assert "NaN" in text and "-Infinity" in text
    assert "nan" not in text and "inf" not in text

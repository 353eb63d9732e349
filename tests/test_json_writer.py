"""The CLI's JSON writer prints exactly the bytes of json.dumps(sort_keys=True, indent=2)."""

import enum
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waring.cli import _json_text
from waring.serialize import HOLE, FloatRecords


def reference(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


# quotes, backslashes, control characters, DEL and non-ASCII, as well as any text
texts = st.text(alphabet=st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\x7f", "a", "é",
                                          " ", "\U0001f600"])) | st.text()
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200) | st.integers(max_value=-(2**64)),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-300, 5e-324]),
    texts,
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(texts, children, max_size=4),
    ),
    max_leaves=24,
)
containers = st.one_of(st.lists(values, min_size=1, max_size=3),
                       st.dictionaries(texts, values, min_size=1, max_size=3))


@settings(max_examples=150, deadline=None, database=None)
@given(values)
def test_bytes_equal_json_dumps(value):
    assert _json_text(value) == reference(value)


@settings(max_examples=100, deadline=None, database=None)
@given(containers, values)
def test_a_shared_object_is_written_as_json_dumps_writes_it(shared, other):
    # twice at the same depth, and once at two different depths
    payload = {"same": [shared, shared], "deeper": [shared, [shared]], "other": other}
    assert _json_text(payload) == reference(payload)


def test_empty_containers_and_named_floats():
    payload = {"": [], "a": {}, "b": ((), [{}]), "c": [math.nan, math.inf, -math.inf, -0.0]}
    assert _json_text(payload) == reference(payload)


def test_subclasses_and_scalar_keys_are_written_as_json_dumps_writes_them():
    class Flag(enum.IntEnum):
        ON = 1

    class Real(float):
        def __repr__(self):
            return "not this"

    class Text(str):
        pass

    payload = [Flag.ON, Real(0.5), Text('q"'), {1: "int", 2.5: "float", -math.inf: "inf"},
               {True: "bool"}, {None: "null"}, {Text("k"): 1}, Real(math.inf), 7]
    assert _json_text(payload) == reference(payload)
    assert _json_text("top") == reference("top") and _json_text(3.0) == reference(3.0)


@pytest.mark.parametrize("value", [
    ["a", {"b": 1}],  # starts with a string, ends in a record
    ["a", 2, "c"],  # a string at both ends, an int in between
    ["a", [1, "b"], None, True, 1.5, -math.inf, "z"],
    [["a", "b"], "c"],
])
def test_a_list_that_starts_with_a_string_and_holds_other_items(value):
    payload = {"top": value, "deeper": [value, {"k": value}]}
    assert _json_text(payload) == reference(payload)


def test_a_list_of_strings_and_str_subclasses():
    class Text(str):
        def __str__(self):
            return "not this"

    payload = [[Text('q"'), "b"], ["a", Text("\u00e9")], [Text("x")], ["a", "b", Text("c")]]
    assert _json_text(payload) == reference(payload)


@pytest.mark.parametrize("value", [
    [object()],
    ["a", b"bytes", "z"],  # a string at both ends, not JSON in between
    {"a": {1, 2}},
    {"a": [1, b"bytes"]},
    {(1, 2): "tuple key"},
    1j,
])
def test_a_value_that_is_not_json_raises_type_error(value):
    with pytest.raises(TypeError) as want:
        reference(value)
    with pytest.raises(TypeError) as got:
        _json_text(value)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("shape, numbers", [
    ({"a%s": HOLE, "b": [HOLE, "x%d", {}], "c": [], "d": 1}, [[1.5, -0.0], [math.nan, 1e300]]),
    ({"re": HOLE, "im": HOLE}, [[math.inf, -math.inf], [5e-324, -2.5]]),
    (HOLE, [[0.1], [-0.0], [math.nan]]),  # a bare number per record
    ({"k": "v"}, [[], []]),  # no holes
    ([HOLE, HOLE], np.zeros((0, 2))),  # no records
])
def test_float_records_are_written_as_their_records(shape, numbers):
    rows = FloatRecords(shape, np.array(numbers, dtype=float))
    payload = {"top": rows, "deeper": [[rows], {"x": rows}]}
    records = rows.records()
    assert _json_text(payload) == reference({"top": records, "deeper": [[records], {"x": records}]})

"""The CLI's JSON writer prints exactly the bytes of json.dumps(sort_keys=True, indent=2)."""

import enum
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waring import cli
from waring.cli import _json_text
from waring.cyclotomic import CycloScalar
from waring.monomials import MonomialSpec
from waring.polynomial import DUAL, SparsePoly
from waring.serialize import HOLE, Records, plain, poly_to_json


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
    rows = Records(shape, np.array(numbers, dtype=float))
    payload = {"top": rows, "deeper": [[rows], {"x": rows}]}
    records = rows.records()
    assert _json_text(payload) == reference({"top": records, "deeper": [[records], {"x": records}]})


# -- records of str, int, float and shared-record values, at depths 1 to 4 ---------------

SHARED = {"conductor": 3, "coeffs": ["1/2", "-1%"]}  # one object in many rows, as the
# shared writer hands out equal cyclotomic records
percent_texts = st.lists(st.sampled_from(["%", "%s", "%d", "%%", "a", '"', "\\", "é"]),
                         max_size=4).map("".join)
hole_values = st.one_of(percent_texts, st.integers(), st.integers(min_value=2**70),
                        st.floats(), st.just(SHARED), st.booleans(), st.none())
shape_texts = percent_texts | st.text(max_size=3).filter(lambda text: HOLE not in text)
shapes = st.recursive(
    st.just(HOLE) | shape_texts | st.integers(-3, 3),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(shape_texts, children,
                                                                      max_size=3),
    max_leaves=8,
)


def holes(shape) -> int:
    if shape is HOLE:
        return 1
    if isinstance(shape, dict):
        shape = list(shape.values())
    return sum(map(holes, shape)) if isinstance(shape, list) else 0


@st.composite
def generic_records(draw):
    shape = draw(shapes)
    width = holes(shape)
    count = draw(st.integers(0, 4))
    if draw(st.booleans()):  # a float array, as a float decomposition or point set holds
        numbers = draw(st.lists(st.floats(), min_size=count * width, max_size=count * width))
        return Records(shape, np.array(numbers, dtype=float).reshape(count, width))
    return Records(shape, [tuple(draw(st.lists(hole_values, min_size=width, max_size=width)))
                           for _ in range(count)])


coefficients = st.one_of(
    st.integers(-9, 9),
    st.fractions(max_denominator=12),
    st.just(Fraction(-7, 3)),
    st.builds(lambda a, b: CycloScalar(3, (a, b), 2), st.integers(-3, 3), st.integers(1, 3)),
)


@st.composite
def polynomials(draw):
    num_vars = draw(st.integers(1, 4))
    exponents = st.tuples(*[st.integers(0, 3)] * num_vars)
    size = draw(st.sampled_from([0, 1, 1, 2, 5]))  # the zero and a one-term polynomial too
    terms = draw(st.dictionaries(exponents, coefficients, min_size=size, max_size=size))
    return poly_to_json(SparsePoly(num_vars, DUAL, terms))


@st.composite
def nested_records(draw):
    """Records, a polynomial's too, nested 1 to 4 deep, some of them twice at one depth."""
    value = draw(generic_records() | polynomials())
    for _ in range(draw(st.integers(0, 3))):
        other = draw(generic_records() | polynomials() | st.just("%s"))
        value = draw(st.sampled_from([[value], [value, value], {"k%": value, "z": other},
                                      {"a": [other, value]}]))
    return value


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.lists(nested_records(), min_size=1, max_size=3))
def test_records_are_written_as_json_dumps_writes_their_plain_lists(payload):
    assert _json_text(payload) == json.dumps(plain(payload), sort_keys=True, indent=2)


def test_the_zero_and_a_one_term_polynomial():
    zero = poly_to_json(SparsePoly(3, DUAL, {}))
    one = poly_to_json(SparsePoly(3, DUAL, {(1, 0, 2): Fraction(-3, 4)}))
    assert zero == [] and one.records() == [{"exponent": [1, 0, 2], "coeff": "-3/4"}]
    payload = {"zero": zero, "one": [one, {"again": one}]}
    assert _json_text(payload) == json.dumps(plain(payload), sort_keys=True, indent=2)


# argv of each command that prints records, on the benchmark rounds' monomials
COMMANDS = [
    ["ideal", "x*y^2*z^3", "--phi=4*a0 + 8*a1 - 4*a2",
     "--phi=-3*a0^2 + 6*a0*a1 - 3*a0*a2 + 5*a1^2 - a1*a2 + a2^2",
     "--member=16*a0^5 - 64*a0^4*a1 + 47*a0^4*a2 - 40*a0^3*a1^2 - 22*a0^3*a1*a2 "
     "+ 43*a0^3*a2^2 + 2*a0^2*a1^3 - 25*a0^2*a1^2*a2 + 77*a0^2*a1*a2^2 - 41*a0^2*a2^3 "
     "+ 8*a0*a2^4 - 9*a1^3*a2^2 + 5*a2^5"],
    ["ideal", "x*y^2*z^5", "--phi=-3*a0 + a1 - 2*a2",
     "--phi=-14*a0^4 + 5*a0^3*a1 - 45*a0^3*a2 + 3*a0^2*a1^2 + 5*a0^2*a1*a2 - 17*a0^2*a2^2 "
     "- 7*a0*a1^3 + 4*a0*a1^2*a2 + a0*a1*a2^2 - 6*a0*a2^3 - 8*a1^3*a2 + 8*a1^2*a2^2 "
     "+ 4*a1*a2^3 + 8*a2^4", "--canonicalize"],
    ["radical", "x*y^3*z^5", "--phi=0", "--phi=6*a0^4 - 4*a0^3*a1 + 8*a0^3*a2 + a0^2*a1^2 "
     "- 8*a0^2*a1*a2 + 7*a0^2*a2^2 + 2*a0*a1^3 - 3*a0*a1^2*a2 + a0*a1*a2^2 + 6*a0*a2^3 "
     "+ 2*a1^3*a2 + 4*a1^2*a2^2 + 6*a1*a2^3 - 2*a2^4"],
    ["radical", "x*y^3*z^3", "--phi=3*a1^2 - 7*a1*a2 - 7*a2^2", "--phi=-5*a1^2 - a1*a2 + a2^2"],
    ["sample", "x*y*z^2*w^3", "--seed", "800805", "--count", "3"],
    ["decompose", "x^3*y^6*z^7", "--exact"],
    ["decompose", "x^2*y^3*z^3*w^3", "--exact"],
    ["decompose", "x*y*z^2*w^3", "--seed", "800805"],
]


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv[:2] + argv[-1:]))
def test_real_payloads_are_written_as_json_dumps_writes_their_plain_lists(capsys, argv):
    args = cli.build_parser().parse_args(argv)
    cli._check_limits(args)
    payload = args.fn(MonomialSpec.parse(args.monomial), args)
    text = _json_text(payload)
    assert text == json.dumps(plain(payload), sort_keys=True, indent=2)
    assert cli.main(argv) == 0 and capsys.readouterr().out == text + "\n"

import json
import math
import random
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waring import CycloScalar, MonomialSpec, cyclotomic_poly, explicit_decomposition, root_of_unity
from waring import serialize
from waring.cli import _json_text
from waring.monomials import Decomposition
from waring.serialize import (
    DigitLimitError,
    decomposition_from_json,
    decomposition_to_json,
    phi_to_json,
    pointset_from_json,
    pointset_to_json,
    poly_to_json,
    scalar_from_json,
    scalar_to_json,
)
from waring.polynomial import DUAL, LinearForm, parse_poly
from waring.solver import PointSet, certify_radical, extract_points
from waring.vsp import decompose_from_phi, parameter_space, sample_phi

from oracles import fraction_coords


class TestScalars:
    def test_rational_as_string(self):
        assert scalar_to_json(Fraction(3, 4)) == "3/4"
        assert scalar_to_json(Fraction(5)) == "5"
        assert scalar_to_json(7) == "7"
        assert scalar_from_json("3/4") == Fraction(3, 4)

    def test_rational_valued_cyclotomic_demotes_to_string(self):
        assert scalar_to_json(CycloScalar.from_rational(Fraction(1, 4), 2)) == "1/4"

    def test_cyclotomic_record(self):
        z = root_of_unity(12, 1) / 3
        record = scalar_to_json(z)
        assert record["conductor"] == 12
        assert scalar_from_json(record) == z

    def test_complex_record(self):
        record = scalar_to_json(1.5 - 2.25j)
        assert record == {"re": 1.5, "im": -2.25}
        assert scalar_from_json(record) == 1.5 - 2.25j

    @pytest.mark.parametrize("value", [complex(-0.0, -0.0), complex(-0.0, 2.0), -0.0])
    def test_negative_zero_is_written_as_zero(self, value):
        # JSON writes -0.0 and 0.0 apart; the sign of a float zero is not part of the value
        assert json.dumps(scalar_to_json(value)) == json.dumps(
            {"re": value.real or 0.0, "im": value.imag or 0.0})
        assert "-0.0" not in json.dumps(scalar_to_json(value))

    def test_written_records_have_phi_of_m_coefficients(self):
        for m in range(1, 121):
            value = root_of_unity(m, 1) / 3 + Fraction(2, 7)
            record = scalar_to_json(value)
            if m > 2:
                assert len(record["coeffs"]) == cyclotomic_poly(m).degree == serialize._totient(m)
            assert scalar_from_json(record) == value
            assert scalar_to_json(scalar_from_json(record)) == record

    def test_round_trip_is_stable(self):
        for value in (Fraction(-7, 3), root_of_unity(5, 2) + 1, 0.125 + 4j):
            once = scalar_to_json(value)
            twice = scalar_to_json(scalar_from_json(once))
            assert json.dumps(once, sort_keys=True) == json.dumps(twice, sort_keys=True)


def reference_scalar_to_json(value):
    """The exact records written through Fraction and ``oracles.fraction_coords``: the reference bytes."""
    if isinstance(value, CycloScalar):
        if value.is_rational():
            return str(value.to_fraction())
        return {"conductor": value.conductor, "coeffs": [str(c) for c in fraction_coords(value)]}
    return str(value)


class TestExactWriter:
    def test_bytes_match_the_fraction_writer(self):
        rng = random.Random(0)
        values = [0, -7, 10**40, Fraction(-7, 3), Fraction(10**30, 7),
                  CycloScalar.from_rational(0, 5)]
        for _ in range(300):
            m = rng.choice([1, 2, 3, 4, 5, 7, 12, 20, 56])
            deg = len(CycloScalar.from_rational(0, m).num)
            small, large = rng.randint(-50, 50), rng.randint(-10**20, 10**20)
            num = [rng.choice([0, 0, small, large, 6, -35]) for _ in range(deg)]
            den = rng.choice([1, 2, 6, 35, rng.randint(1, 10**6)])
            values += [CycloScalar(m, tuple(num), den),
                       CycloScalar(m, (num[0],) + (0,) * (deg - 1), den),  # rational-valued
                       Fraction(small * den, rng.randint(1, 1000))]
        for value in values:
            assert scalar_to_json(value) == reference_scalar_to_json(value), value

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this interpreter has no int-to-str digit limit")
    @pytest.mark.parametrize("value, what, digits", [
        (10**5000, "rational scalar", 5001),
        (-(10**4300), "rational scalar", 4301),
        (Fraction(-1, 10**4400), "rational scalar", 4401),
        (CycloScalar.from_rational(Fraction(10**4300, 3), 4), "rational scalar", 4301),
        (CycloScalar(3, (10**5000, 1)), "cyclotomic scalar of conductor 3", 5001),
    ], ids=["int", "negative-int", "denominator", "rational-cyclotomic", "cyclotomic"])
    def test_digits_beyond_the_int_limit_name_the_record(self, value, what, digits):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(DigitLimitError, match=f"cannot write {what}: .* {digits} decimal digits"):
            scalar_to_json(value)
        assert sys.get_int_max_str_digits() == limit
        # a failure to write an answer, not bad input: the CLI exits 1, not 2
        assert not issubclass(DigitLimitError, ValueError)


class TestPolynomials:
    def test_poly_round_trip(self):
        # no command reads polynomial JSON: each term's record reads back to its coefficient
        p = parse_poly("a1^3 - 5/2*a0^2*a2", 3, DUAL)
        data = poly_to_json(p)
        assert {tuple(t["exponent"]): scalar_from_json(t["coeff"]) for t in data} == p.terms

    def test_descending_grevlex_ordering(self):
        p = parse_poly("a2 + a0 + a1", 3, DUAL)
        data = poly_to_json(p)
        assert [d["exponent"] for d in data] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


class TestDecompositions:
    def test_exact_round_trip(self):
        spec = MonomialSpec.parse("x*y*z^2")
        dec = explicit_decomposition(spec)
        data = decomposition_to_json(dec)
        back = decomposition_from_json(data)
        assert decomposition_to_json(back) == data
        assert len(back) == len(dec)
        for (c1, f1), (c2, f2) in zip(dec.summands, back.summands):
            assert c1 == c2
            assert all(a == b for a, b in zip(f1.coeffs, f2.coeffs))


class TestPhiAndPoints:
    def test_phi_round_trip(self):
        spec = MonomialSpec.parse("x*y^2*z^3")
        phi = sample_phi(parameter_space(spec), 3)
        data = phi_to_json(phi)
        assert data["canonical"] is phi.canonical is True
        assert [{tuple(t["exponent"]): scalar_from_json(t["coeff"]) for t in entry}
                for entry in data["entries"]] == [p.terms for p in phi.entries]

    def test_pointset_round_trip(self):
        pts = PointSet(
            points=((1 + 0j, 0.5 - 0.25j), (1 + 0j, -2 + 0j)),
            tol=1e-8,
            residuals=(1e-12, 3e-13),
        )
        data = pointset_to_json(pts)
        back = pointset_from_json(data)
        assert pointset_to_json(back) == data


class TestMalformedInput:
    """Every reader answers JSON of the wrong shape with a ValueError naming the field."""

    @pytest.mark.parametrize("record, text", [
        ("1/0", "zero denominator"),
        ({"conductor": 3}, "'coeffs'"),
        ({"conductor": 3, "coeffs": 5}, "'coeffs'"),
        ({"conductor": "3", "coeffs": ["1", "0"]}, "'conductor'"),
        ({"conductor": 3, "coeffs": [1, 0]}, "cyclotomic coefficient"),
        ({"re": "1"}, "'re'"),
        ({"re": 1.0, "im": [0]}, "'im'"),
        (3, "not a scalar record"),
        ({"re": 10**400}, "'re' is beyond float range"),
        ({"re": 1, "im": -(10**400)}, "'im' is beyond float range"),
        ({"conductor": 0, "coeffs": ["1"]}, "conductor must be a positive integer"),
        ({"conductor": -3, "coeffs": ["1", "0"]}, "conductor must be a positive integer"),
    ])
    def test_scalar(self, record, text):
        with pytest.raises(ValueError, match=text):
            scalar_from_json(record)

    @pytest.mark.parametrize("text", ["1_000", "\u0661/2", " 3/4 ", "+3", "0.5", "1e-3", "3/-4",
                                      "3/", "-", "", "3\n"])
    def test_rational_strings_are_what_scalar_to_json_writes(self, text):
        # no underscores, other scripts' digits, whitespace, signs but a leading '-', or decimals
        for record, what in ((text, "rational scalar"),
                             ({"conductor": 3, "coeffs": ["1", text]}, "cyclotomic coefficient")):
            with pytest.raises(ValueError, match=f"{what} .* is not an integer or a ratio"):
                scalar_from_json(record)

    def test_digits_beyond_the_int_limit_name_the_record(self):
        with pytest.raises(ValueError, match="rational scalar '1111.*Exceeds the limit"):
            scalar_from_json("1" * 5000)

    @pytest.mark.parametrize("conductor, count", [
        (1, 0), (1, 2), (2, 2), (5, 3), (5, 5), (12, 3), (12, 5), (13, 11), (56, 25),
        (200000, 1), (2 * 3**2 + 1, 3), (2**64, 2),
    ])
    def test_cyclotomic_record_needs_phi_of_m_coefficients(self, conductor, count):
        with pytest.raises(ValueError, match=re.escape(
                f"conductor {conductor} needs phi({conductor}) coefficients, got {count}")):
            scalar_from_json({"conductor": conductor, "coeffs": ["1"] * count})

    def test_conductor_beyond_twice_the_squared_length_skips_phi(self, monkeypatch):
        # phi(m) >= sqrt(m/2): past 2 * len^2 no conductor fits, and phi(m) is not taken
        monkeypatch.setattr(serialize, "_totient", lambda m: pytest.fail(f"phi({m}) taken"))
        for conductor in (2 * 3**2 + 1, 200000, 10**30):
            with pytest.raises(ValueError, match="needs phi"):
                scalar_from_json({"conductor": conductor, "coeffs": ["1", "0", "0"]})

    def test_cyclotomic_coefficients_over_one_denominator(self):
        z = scalar_from_json({"conductor": 5, "coeffs": ["-1/6", "0", "3/4", "-7"]})
        assert (z.num, z.den) == ((-2, 0, 9, -84), 12)
        assert scalar_from_json("-12/8") == Fraction(-3, 2) and scalar_from_json("-0") == 0

    @pytest.mark.parametrize("data, text", [
        ({}, "'summands'"),
        ({"summands": 3}, "'summands'"),
        ([], "object"),
        ({"summands": [3]}, "summand"),
        ({"summands": [{"form": ["1", "1"]}]}, "'coeff'"),
        ({"summands": [{"coeff": "1", "form": "1"}]}, "'form'"),
        ({"summands": [], "degree": "2", "domain": "complex-float"}, "'degree'"),
        ({"summands": [], "degree": 2}, "'domain'"),
        ({"summands": [], "degree": 2, "domain": "complex-float", "residual": "x"}, "'residual'"),
    ])
    def test_decomposition(self, data, text):
        with pytest.raises(ValueError, match=text):
            decomposition_from_json(data)

    @pytest.mark.parametrize("data, text", [
        ({}, "'points'"),
        ([], "object"),
        ({"points": {}}, "'points'"),
        ({"points": ["1"]}, "point"),
        ({"points": [["1"]], "multiplicity_free": "yes"}, "'multiplicity_free'"),
        ({"points": [["1"]], "residuals": 0.1}, "'residuals'"),
        ({"points": [["1"]], "tol": "small"}, "'tol'"),
    ])
    def test_pointset(self, data, text):
        with pytest.raises(ValueError, match=text):
            pointset_from_json(data)

    def test_optional_fields_may_be_absent_or_null(self):
        back = pointset_from_json({"points": [["1", "2"]], "tol": None, "residuals": None})
        assert back.tol is None and back.residuals is None
        dec = decomposition_from_json(
            {"summands": [], "degree": 2, "domain": "complex-float", "residual": None})
        assert dec.verified == "unverified" and dec.residual is None



def record_payload(payload):
    """``payload`` with each float record list written record by record, as scalar_to_json does."""
    return {key: value.records() if isinstance(value, serialize.FloatRecords) else value
            for key, value in payload.items()}


def seeded_decomposition(text, seed):
    spec = MonomialSpec.parse(text)
    return spec, decompose_from_phi(spec, sample_phi(parameter_space(spec), seed), seed=seed)


def float_payloads():
    """(name, array-backed payload, the same payload built one scalar_to_json record at a time)"""
    out = []
    for text, seed in [("x*y^2*z^3", 1), ("x^3*y^6*z^7", 1), ("x0*x2^2", 1)]:
        _, dec = seeded_decomposition(text, seed)
        records = {"degree": dec.degree, "domain": dec.domain, "verified": dec.verified,
                   "residual": dec.residual,
                   "summands": [{"coeff": scalar_to_json(c),
                                 "form": [scalar_to_json(v) for v in form.coeffs]}
                                for c, form in dec.summands]}
        out.append((f"decompose {text}", decomposition_to_json(dec), records))
    spec = MonomialSpec.parse("x*y*z^2")
    certificate = certify_radical(spec, sample_phi(parameter_space(spec), 3))
    points = extract_points(certificate.quotient, seed=3)
    records = {"points": [[scalar_to_json(c) for c in p] for p in points.points],
               "normalized": "alpha0=1", "multiplicity_free": True, "tol": points.tol,
               "residuals": list(points.residuals)}
    out.append(("points x*y*z^2", pointset_to_json(points), records))
    return out


def signed_zero_payload():
    """A float decomposition with -0.0, NaN and infinite parts, and x1 of exponent 0."""
    spec = MonomialSpec.parse("x0*x2^2")
    coeffs = np.array([complex(-0.0, -0.0), complex(math.nan, 1.5), complex(0.25, math.inf)])
    coords = np.array([[1, complex(-math.inf, -0.0)], [-0.0, complex(0.0, math.nan)],
                       [complex(math.nan, math.nan), 2.0]])
    dec = Decomposition.from_arrays(spec, coeffs, coords)
    records = {"degree": 3, "domain": "complex-float", "verified": "unverified",
               "summands": [{"coeff": scalar_to_json(c),
                             "form": [scalar_to_json(v) for v in form.coeffs]}
                            for c, form in dec.summands]}
    return decomposition_to_json(dec), records


class TestFloatRecords:
    """A float decomposition or point set is written from its arrays, as its records would be."""

    @pytest.mark.parametrize("payload, records",
                             [pytest.param(*case[1:], id=case[0]) for case in float_payloads()])
    def test_json_text_equals_json_dumps_of_the_records(self, payload, records):
        assert isinstance(payload.get("summands", payload.get("points")), serialize.FloatRecords)
        text = json.dumps(records, sort_keys=True, indent=2)
        assert _json_text(payload) == text
        assert json.dumps(record_payload(payload), sort_keys=True, indent=2) == text

    def test_signed_zeros_and_non_finite_parts(self):
        self.test_json_text_equals_json_dumps_of_the_records(*signed_zero_payload())

    def test_records_keep_the_key_order_of_scalar_to_json(self):
        # --format text writes the records in their key order: re before im
        _, dec = seeded_decomposition("x0*x2^2", 1)
        first = decomposition_to_json(dec)["summands"].records()[0]
        assert list(first) == ["coeff", "form"] and list(first["coeff"]) == ["re", "im"]
        assert first["form"][1] == "0" and list(first["form"][2]) == ["re", "im"]

    def test_a_variable_of_exponent_zero_holds_the_int_zero(self):
        spec, dec = seeded_decomposition("x0*x2^2", 1)
        assert dec.zero_columns == (1,)
        assert all(type(form.coeffs[1]) is int and form.coeffs[1] == 0
                   for _, form in dec.summands)
        assert [form.coeffs for _, form in dec.summands] == [
            spec.form_to_original(row).coeffs for row in dec.forms[:, [0, 2]].tolist()]

    def test_a_decomposition_built_from_summands_is_written_record_by_record(self):
        _, dec = seeded_decomposition("x*y^2*z^3", 1)
        again = Decomposition(dec.degree, dec.domain, dec.summands, dec.verified, dec.residual)
        data = decomposition_to_json(again)
        assert isinstance(data["summands"], list)
        assert _json_text(data) == _json_text(decomposition_to_json(dec))


class TestSharedRecords:
    """Each distinct scalar is built once per call of the decomposition reader and writer."""

    def test_repeated_records_read_as_one_scalar_and_write_back_the_same_bytes(self):
        data = decomposition_to_json(explicit_decomposition(MonomialSpec.parse("x^3*y^6*z^7")))
        text = json.dumps(data, sort_keys=True)
        back = decomposition_from_json(json.loads(text))  # fresh record objects
        shared = {}
        for (coeff, form), entry in zip(back.summands, data["summands"], strict=True):
            for record, value in [(entry["coeff"], coeff), *zip(entry["form"], form.coeffs)]:
                key = json.dumps(record, sort_keys=True)
                assert shared.setdefault(key, value) is value
                assert value == scalar_from_json(record)
        assert len(shared) < sum(1 + len(entry["form"]) for entry in data["summands"])
        assert json.dumps(decomposition_to_json(back), sort_keys=True) == text

    def test_equal_scalars_are_written_as_one_record(self):
        data = decomposition_to_json(explicit_decomposition(MonomialSpec.parse("x*y^3*z^5")))
        records = [r for entry in data["summands"] for r in (entry["coeff"], *entry["form"])
                   if isinstance(r, dict)]
        assert len({id(r) for r in records}) == len({json.dumps(r) for r in records}) < len(records)

    @pytest.mark.parametrize("bad, text", [
        ({"conductor": 3, "coeffs": [0, 1]},
         "cyclotomic coefficient must be a JSON string, got integer"),
        ({"conductor": 3, "coeffs": [["0"], "1"]},
         "cyclotomic coefficient must be a JSON string, got array"),
        ({"conductor": True, "coeffs": ["0", "1"]},
         "cyclotomic scalar field 'conductor' must be a JSON integer, got boolean"),
        ({"conductor": 3.0, "coeffs": ["0", "1"]},
         "cyclotomic scalar field 'conductor' must be a JSON integer, got number"),
        ({"conductor": 3, "coeffs": "01"},
         "cyclotomic scalar field 'coeffs' must be a JSON array, got string"),
        ({"conductor": 3, "coeffs": ["0", "1/0"]},
         "cyclotomic coefficient '1/0' has a zero denominator"),
        ("1/0", "rational scalar '1/0' has a zero denominator"),
    ])
    def test_the_first_malformed_record_keeps_its_error(self, bad, text):
        # the valid records before it repeat, so they are read from the memo
        z = {"conductor": 3, "coeffs": ["0", "1"]}
        data = {"degree": 2, "domain": "exact-cyclotomic", "summands": [
            {"coeff": "1/2", "form": ["1", z]},
            {"coeff": "1/2", "form": ["1", {"conductor": 3, "coeffs": ["0", "1"]}]},
            {"coeff": "1/2", "form": [z, bad]},
            {"coeff": "2/0", "form": ["1", z]},
        ]}
        with pytest.raises(ValueError) as unshared:
            scalar_from_json(bad)
        assert str(unshared.value) == text
        with pytest.raises(ValueError) as read:
            decomposition_from_json(data)
        assert str(read.value) == text

    def test_equal_values_from_different_records(self):
        z = {"conductor": 3, "coeffs": ["0", "1"]}
        data = {"degree": 2, "domain": "exact-cyclotomic", "summands": [
            {"coeff": "1/2", "form": ["1", z]},
            {"coeff": "2/4", "form": ["1", dict(z, note="an extra key")]},
        ]}
        (c1, f1), (c2, f2) = decomposition_from_json(data).summands
        assert c1 == c2 == Fraction(1, 2)
        assert f1.coeffs[1] == f2.coeffs[1] == root_of_unity(3, 1)


# records that scalar_from_json refuses; the first failing check names the error
MALFORMED_CYCLOTOMIC = {
    "conductor-0": {"conductor": 0, "coeffs": []},
    "conductor-0-one-coefficient": {"conductor": 0, "coeffs": ["1"]},
    "conductor-true": {"conductor": True, "coeffs": ["1", "2"]},
    "conductor-negative": {"conductor": -3, "coeffs": ["1", "2"]},
    "count-above-phi": {"conductor": 3, "coeffs": ["1", "2", "3"]},
    "count-below-phi": {"conductor": 12, "coeffs": ["1", "2", "3"]},
    "conductor-past-twice-the-squared-count": {"conductor": 10**30, "coeffs": ["1", "2"]},
    "zero-denominator": {"conductor": 3, "coeffs": ["1/0", "1"]},
    "non-string": {"conductor": 3, "coeffs": ["1", 2]},
    "unhashable": {"conductor": 3, "coeffs": [["1"], "1"]},
    "bad-syntax": {"conductor": 5, "coeffs": ["1", "2", "3/-4", "0"]},
    # a coefficient is read before the conductor and the count are checked
    "conductor-0-and-zero-denominator": {"conductor": 0, "coeffs": ["1/0"]},
    "count-and-non-string": {"conductor": 3, "coeffs": ["1", "2", None]},
}


class TestSharedReader:
    """The reader of a decomposition reads each record as ``scalar_from_json`` reads it."""

    @pytest.mark.parametrize("record", MALFORMED_CYCLOTOMIC.values(), ids=MALFORMED_CYCLOTOMIC)
    def test_a_malformed_record_fails_as_scalar_from_json_fails(self, record):
        with pytest.raises(Exception) as want:
            scalar_from_json(record)
        read = serialize._shared_reader()
        read({"conductor": 3, "coeffs": ["1", "2"]})  # its texts are parsed and kept first
        for _ in range(2):  # a failed record is not kept
            with pytest.raises(Exception) as got:
                read(record)
            assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))

    @pytest.mark.parametrize("record", [
        {"conductor": 3, "coeffs": ["2/4", "1/3"]},
        {"conductor": 5, "coeffs": ["1/2", "-2/3", "0", "5/6"]},
        {"conductor": 5, "coeffs": ["-1/6", "0", "3/4", "-7"]},
        {"conductor": 12, "coeffs": ["3/6", "0/5", "-4/8", "7"]},
        {"conductor": 6, "coeffs": ["-9/6", "4/6"]},
        {"conductor": 4, "coeffs": ["0/7", "0"]},
        {"conductor": 1, "coeffs": ["6/4"]},
        {"conductor": 7, "coeffs": ["2/4", "2/4", "2/4", "2/4", "2/4", "2/4"]},  # sum is -1/2
    ])
    def test_mixed_or_unreduced_denominators_read_as_scalar_from_json(self, record):
        want = scalar_from_json(record)
        for read in (serialize._shared_reader(), serialize._shared_reader()):
            read({"conductor": 5, "coeffs": ["1/2", "2/4", "0", "1"]})  # shares texts
            got = read(record)
            assert (got.conductor, got.num, got.den) == (want.conductor, want.num, want.den)
            assert read(dict(record)) is got


@st.composite
def exact_decompositions(draw):
    """Decompositions over Q(zeta_m), m <= 60, with repeated and rational-valued scalars."""
    conductors = draw(st.lists(st.integers(1, 60), min_size=1, max_size=2))

    def scalar():
        if draw(st.booleans()):
            return Fraction(draw(st.integers(-50, 50)), draw(st.integers(1, 12)))
        m = draw(st.sampled_from(conductors))
        deg = serialize._totient(m)
        small = st.integers(-30, 30) | st.sampled_from([0, 0, 1, -1, 10**25])
        num = draw(st.lists(small, min_size=deg, max_size=deg))
        return CycloScalar(m, tuple(num), draw(st.integers(1, 60) | st.just(2**70)))

    pool = [scalar() for _ in range(draw(st.integers(1, 6)))]
    num_vars = draw(st.integers(1, 4))
    summands = tuple(
        (draw(st.sampled_from(pool)),
         LinearForm([Fraction(1)] + [draw(st.sampled_from(pool)) for _ in range(num_vars - 1)]))
        for _ in range(draw(st.integers(1, 6))))
    return Decomposition(degree=draw(st.integers(1, 6)), domain="exact-cyclotomic",
                         summands=summands, verified=draw(st.sampled_from(["exact", "unverified"])))


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(exact_decompositions())
def test_exact_decompositions_round_trip_through_the_printed_text(dec):
    payload = decomposition_to_json(dec)
    assert payload["summands"] == [  # the shared writer writes what scalar_to_json writes
        {"coeff": scalar_to_json(c), "form": [scalar_to_json(v) for v in form.coeffs]}
        for c, form in dec.summands]
    text = _json_text(payload)
    assert text == json.dumps(payload, sort_keys=True, indent=2)
    back = decomposition_from_json(json.loads(text))
    assert back == dec
    assert _json_text(decomposition_to_json(back)) == text

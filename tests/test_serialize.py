import json
import random
import sys
from fractions import Fraction

import pytest

from waring import CycloScalar, MonomialSpec, explicit_decomposition, root_of_unity
from waring.serialize import (
    DigitLimitError,
    decomposition_from_json,
    decomposition_to_json,
    phi_from_json,
    phi_to_json,
    pointset_from_json,
    pointset_to_json,
    poly_from_json,
    poly_to_json,
    scalar_from_json,
    scalar_to_json,
)
from waring.polynomial import DUAL, parse_poly
from waring.solver import PointSet
from waring.vsp import parameter_space, sample_phi


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

    def test_round_trip_is_stable(self):
        for value in (Fraction(-7, 3), root_of_unity(5, 2) + 1, 0.125 + 4j):
            once = scalar_to_json(value)
            twice = scalar_to_json(scalar_from_json(once))
            assert json.dumps(once, sort_keys=True) == json.dumps(twice, sort_keys=True)


def reference_scalar_to_json(value):
    """The exact records written through Fraction and CycloScalar.coeffs: the reference bytes."""
    if isinstance(value, CycloScalar):
        if value.is_rational():
            return str(value.to_fraction())
        return {"conductor": value.conductor, "coeffs": [str(c) for c in value.coeffs]}
    return str(value)


class TestExactWriter:
    def test_bytes_match_the_fraction_writer(self):
        rng = random.Random(0)
        values = [0, -7, 10**40, Fraction(-7, 3), Fraction(10**30, 7), CycloScalar.zero(5)]
        for _ in range(300):
            m = rng.choice([1, 2, 3, 4, 5, 7, 12, 20, 56])
            deg = len(CycloScalar.zero(m).num)
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
        p = parse_poly("a1^3 - 5/2*a0^2*a2", 3, DUAL)
        data = poly_to_json(p)
        assert poly_from_json(data, 3, DUAL) == p

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
        assert phi_from_json(data, spec) == phi

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

    @pytest.mark.parametrize("data, text", [
        ({"exponent": [0, 1]}, "polynomial JSON"),
        ([{"coeff": "1"}], "'exponent'"),
        ([{"exponent": [0, "1"], "coeff": "1"}], "exponent entry"),
        ([{"exponent": [0, 1]}], "'coeff'"),
    ])
    def test_poly(self, data, text):
        with pytest.raises(ValueError, match=text):
            poly_from_json(data, 2, DUAL)

    def test_phi(self):
        spec = MonomialSpec.parse("x*y*z")
        with pytest.raises(ValueError, match="'entries'"):
            phi_from_json({"canonical": True}, spec)
        with pytest.raises(ValueError, match="phi"):
            phi_from_json(3, spec)

import random
import re
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waring import (
    DUAL,
    PRIMAL,
    LinearForm,
    SparsePoly,
    apply_diff,
    dehomogenize,
    root_of_unity,
)
from waring.polynomial import exponents_of_degree, multinomial, parse_poly

from oracles import coefficient, fraction_parse_poly, power_linear_form, scale


def P(text, n=3):
    return parse_poly(text, n, PRIMAL)


def D(text, n=3):
    return parse_poly(text, n, DUAL)


def test_grevlex_order_degree_two():
    exps = exponents_of_degree(3, 2)
    # x^2 > xy > y^2 > xz > yz > z^2
    assert exps == ((2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2))


def test_multinomial():
    assert multinomial(3, (1, 1, 1)) == 6
    assert multinomial(4, (1, 1, 2)) == 12
    with pytest.raises(ValueError):
        multinomial(3, (1, 1))


def test_apply_diff_basics():
    # a0 applied to x0^2 x1 = 2 x0 x1
    assert apply_diff(D("a0"), P("x0^2*x1")) == P("2*x0*x1")
    # perfect pairing in equal degree
    assert apply_diff(D("a0*a1"), P("x0*x1")) == P("1")
    # a0^(d0+1) kills x0^d0 * rest
    assert not apply_diff(D("a0^3"), P("x0^2*x1*x2"))


def test_apply_diff_requires_matching_rings():
    with pytest.raises(ValueError):
        apply_diff(P("x0"), P("x1"))
    with pytest.raises(ValueError):
        apply_diff(D("a0", 2), P("x0", 3))


def _diff_once(poly, index):
    # independent single-derivative oracle
    terms = {}
    for e, c in poly.terms.items():
        if e[index] == 0:
            continue
        out = tuple(v - 1 if i == index else v for i, v in enumerate(e))
        terms[out] = terms.get(out, 0) + c * e[index]
    return SparsePoly(poly.num_vars, PRIMAL, terms)


def test_apply_diff_agrees_with_repeated_single_derivatives():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 4)
        f_terms = {
            tuple(rng.randint(0, 3) for _ in range(n)): Fraction(rng.randint(-9, 9))
            for _ in range(rng.randint(1, 20))
        }
        f = SparsePoly(n, PRIMAL, f_terms)
        s = tuple(rng.randint(0, 2) for _ in range(n))
        op = SparsePoly.monomial(n, DUAL, s, Fraction(rng.randint(1, 5)))
        expected = f
        for i, si in enumerate(s):
            for _ in range(si):
                expected = _diff_once(expected, i)
        expected = scale(expected, op.terms[s])
        assert apply_diff(op, f) == expected


def test_pairing_gram_matrix_is_diagonal_with_factorials():
    from math import factorial

    for n in range(1, 4):
        for d in range(1, 7):
            exps = exponents_of_degree(n + 1, d)
            for a in exps:
                for b in exps:
                    result = apply_diff(
                        SparsePoly.monomial(n + 1, DUAL, a),
                        SparsePoly.monomial(n + 1, PRIMAL, b),
                    )
                    if a == b:
                        expected = 1
                        for ai in a:
                            expected *= factorial(ai)
                        assert result == SparsePoly.constant(n + 1, PRIMAL, expected)
                    else:
                        assert not result


def test_degree_law_for_apply_diff():
    f = P("x0^2*x1^2 + x2^4")
    g = apply_diff(D("a0*a1"), f)
    assert g.degree() == f.degree() - 2


def test_power_linear_form_binomials():
    assert power_linear_form(LinearForm((1, 1)), 2) == P("x0^2 + 2*x0*x1 + x1^2", 2)
    assert power_linear_form(LinearForm((1, -1)), 2) == P("x0^2 - 2*x0*x1 + x1^2", 2)
    cube = power_linear_form(LinearForm((1, 1, 1)), 3)
    assert coefficient(cube, (1, 1, 1)) == 6


def test_power_linear_form_number_of_terms_bound():
    from math import comb

    form = LinearForm((1, 2, 3))
    for d in (1, 2, 5):
        assert len(power_linear_form(form, d).terms) <= comb(2 + d, 2)


def test_power_linear_form_matches_evaluation():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 4)
        form = LinearForm(tuple(Fraction(rng.randint(-5, 5)) for _ in range(n)))
        if form.is_zero():
            continue
        d = rng.randint(1, 5)
        point = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
        power = power_linear_form(form, d)
        at_point = sum(c * prod(x**k for x, k in zip(point, e)) for e, c in power.terms.items())
        assert at_point == sum(c * x for c, x in zip(form.coeffs, point)) ** d


def test_power_linear_form_cyclotomic_coefficients():
    z = root_of_unity(3, 1)
    sq = power_linear_form(LinearForm((1, z)), 2)
    assert coefficient(sq, (1, 1)) == 2 * z
    assert coefficient(sq, (0, 2)) == z * z


def test_dehomogenize():
    assert dehomogenize(D("a1^3 - a0^2*a2"), 0) == D("a1^3 - a2")
    assert dehomogenize(D("a0^4"), 0) == D("1")
    assert dehomogenize(D("a2^4 - a0^2*a1^2"), 0) == D("a2^4 - a1^2")
    with pytest.raises(ValueError):
        dehomogenize(D("a0^2 + a1"), 0)


def test_polynomial_ring_safety():
    with pytest.raises(ValueError):
        P("x0", 2) + P("x0", 3)
    with pytest.raises(ValueError):
        P("x0", 2) * D("a0", 2)


def test_zero_coefficients_are_dropped():
    f = P("x0") - P("x0")
    assert not f and not f.terms
    g = SparsePoly(2, PRIMAL, {(1, 0): Fraction(0), (0, 1): 1})
    assert list(g.terms) == [(0, 1)]


@pytest.mark.parametrize("terms, message", [
    ({(1, 0): 1, (1,): 2}, "exponent length does not match the number of variables"),
    ({(1, 0, 0): 0}, "exponent length does not match the number of variables"),
    ({(1, 1): 1, (2, -1): 3}, "negative exponent"),
    ({(1, 1): 1, (-1, 3): 0}, "negative exponent"),  # a zero term is checked too
])
def test_malformed_exponents_are_refused(terms, message):
    with pytest.raises(ValueError) as error:
        SparsePoly(2, DUAL, terms)
    assert str(error.value) == message


def test_str_round_trips_through_parser():
    for text in ("x0^2 - 2*x0*x1 + x1^2", "3/4*x1*x2^3 - x0^4", "1"):
        f = P(text, 3)
        assert parse_poly(str(f), 3, PRIMAL) == f


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_poly("qq + 1", 3, PRIMAL)
    with pytest.raises(ValueError):
        parse_poly("x5", 3, PRIMAL)
    with pytest.raises(ValueError):
        parse_poly("", 3, PRIMAL)


def test_parse_rejects_a_caret_without_exponent():
    for text in ("2^-1", "a0^", "a1^*a2", "a0 + 3^"):
        with pytest.raises(ValueError, match="missing exponent"):
            D(text)


def test_parse_rejects_a_zero_denominator():
    for text in ("1/0", "1/0*a0", "a1 - 3/0*a2"):
        with pytest.raises(ValueError, match="zero denominator"):
            D(text)


@pytest.mark.parametrize("text, literal", [
    ("1_000", "'1_000'"),
    ("\u0661*a0", "'\u0661'"),
    ("a1 - 1_0/3*a2", "'1_0/3'"),
    ("3/1_0", "'3/1_0'"),
    ("1e1_0*a0", "'1e1_0'"),
    ("2.5_0", "'2.5_0'"),
])
def test_parse_rejects_a_number_beyond_ascii_digits(text, literal):
    with pytest.raises(ValueError, match=f"invalid number {literal}"):
        D(text)


@pytest.mark.parametrize("text, literal", [
    ("a1^1_0", "'1_0'"), ("a0^\u0661", "'\u0661'"), ("a1*a2^\u00b2", "'\u00b2'"),
])
def test_parse_rejects_an_exponent_beyond_ascii_digits(text, literal):
    with pytest.raises(ValueError, match=f"invalid exponent {literal}"):
        D(text)


@pytest.mark.parametrize("text, message", [
    ("a1^", "missing exponent after '^' in 'a1^'"),
    ("a1^^2", "invalid exponent '^2' in 'a1^^2'"),
    ("^2*a1", "missing base before '^' in '^2*a1'"),
    ("a1^2^3", "invalid exponent '2^3' in 'a1^2^3'"),
    ("a1^+3", "missing exponent after '^' in 'a1^+3'"),  # "+" starts a term first
    ("a1^1_0", "invalid exponent '1_0' in 'a1^1_0'"),
    ("a1^\u0663", "invalid exponent '\u0663' in 'a1^\u0663'"),
    ("a9^2", "variable 'a9' out of range for 3 variables"),
    ("b7^2", "unknown variable 'b7' in 'b7^2'"),
])
def test_a_factor_with_a_power_keeps_the_error_text_of_split_power(text, message):
    # a well-formed "name^digits" is read inline; every other factor with "^" goes through
    # split_power, so these texts are the ones split_power has always written
    with pytest.raises(ValueError) as error:
        D(text)
    assert str(error.value) == message


def test_parse_rejects_a_variable_index_beyond_ascii_digits():
    with pytest.raises(ValueError, match="unknown variable 'a\u0661'"):
        D("a\u0661")


def test_parse_exponent_notation_literals():
    assert parse_poly("1e-300", 2, DUAL) == SparsePoly.constant(2, DUAL, Fraction(1, 10**300))
    assert D("2.5E+3*a1") == SparsePoly.monomial(3, DUAL, (0, 1, 0), 2500)
    assert D("-1e-2*a0^2") == SparsePoly.monomial(3, DUAL, (2, 0, 0), Fraction(-1, 100))
    assert D("a0 - 1e-2*a1 + 2E+1*a2") == D("a0 - 1/100*a1 + 20*a2")
    assert D("3/2*a0 + 1.*a1 + 0.25*a2") == D("3/2*a0 + a1 + 1/4*a2")


@pytest.mark.parametrize("text", ["9" * 5000 + "*a1", "a0 - " + "9" * 5000 + "^2*a1"])
def test_parse_names_the_digit_limit(text):
    with pytest.raises(ValueError, match=r"^Exceeds the limit \(4300 digits\) for integer string "
                                         r"conversion: value has 5000 digits"):
        D(text)


_literals = st.one_of(
    st.integers(0, 10**6).map(str),
    st.tuples(st.integers(0, 99), st.integers(1, 99)).map("{0[0]}/{0[1]}".format),
    st.tuples(st.integers(0, 99), st.text("0123456789", max_size=3)).map("{0[0]}.{0[1]}".format),
    st.tuples(st.integers(0, 99).map(str), st.sampled_from(["", ".", ".5", ".25"]),
              st.sampled_from("eE"), st.sampled_from(["", "+", "-"]),
              st.integers(0, 4).map(str)).map("".join),
)
_factors = st.one_of(
    st.tuples(_literals, st.sampled_from(["", "^0", "^2", "^3"])).map("".join),
    st.tuples(st.sampled_from(["a0", "a1", "a2", "a", "b", "c"]),
              st.sampled_from(["", "^1", "^2"])).map("".join),
)
_SIGNS = {False: ["+", " + "], True: ["-", " - ", "+-"]}
# a term: (negative, which spelling of its sign, factors)
_terms = st.tuples(st.booleans(), st.integers(0, 2),
                   st.lists(_factors, min_size=1, max_size=4).map("*".join))


class TestIntegralCoefficientsAreInt:
    """``parse_poly`` against the all-``Fraction`` reference: equal coefficients, and an
    ``int`` exactly where the value is integral, whichever literal wrote it."""

    @staticmethod
    def check(text):
        try:
            want = fraction_parse_poly(text, 3, DUAL)
        except ValueError as exc:  # "^2" with no base, "0^0" raised to a negative power, ...
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                D(text)
            return
        got = D(text)
        assert got == want
        for e, c in got.terms.items():
            assert type(c) is (int if want.terms[e].denominator == 1 else Fraction), (text, c)

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.lists(_terms, min_size=1, max_size=5), st.booleans(), st.integers(0, 9))
    def test_agrees_with_the_fraction_parser(self, terms, cancel, bare):
        if cancel:  # every term again with the other sign: all of them cancel
            terms = terms + [(not negative, k, body) for negative, k, body in terms]
        text = "".join(_SIGNS[negative][k % len(_SIGNS[negative])] + body
                       for negative, k, body in terms)
        self.check(text if bare else text + "*^2")  # one text in ten has a "^" with no base

    @pytest.mark.parametrize("text", [
        "4/2*a1", "2.0*a1", "2.5E+3*a1", "1e3*a1", "1e-300*a1", "2^3*a1", "6/4*a1 + 1/2*a1",
        "a1*a1^2 - 2*a1^3", "1/2*a1 + 1/2*a1 - a0", "0.5*a1 + 1/3*a1", "3*a1 - 3*a1 + 0*a0",
        "10^30*a1^2", "-7", "0/5*a2 + 1.*a0", "a01^2*b - 2*c*a + a0^0",
        "2.e-3*a1", "2.e+3*a1 - 1.E-1*a0", "a2 + 5.e-0",
    ])
    def test_literals(self, text):
        self.check(text)

    def test_a_bare_point_keeps_the_sign_of_its_exponent(self):
        assert D("2.e-3*a1") == D("2.0e-3*a1") == D("1/500*a1")
        assert D("a0 - 2.E+1*a1") == D("a0 - 20*a1")

    @pytest.mark.parametrize("text", [
        "qq + 1", "x5", "", "2^-1", "a0^", "a1^*a2", "a0 + 3^", "1/0", "1/0*a0", "a1 - 3/0*a2",
        "1_000", "\u0661*a0", "a1 - 1_0/3*a2", "3/1_0", "1e1_0*a0", "2.5_0", "a1^1_0",
        "a0^\u0661", "a1*a2^\u00b2", "a\u0661", "a0 ++ a1", "a5", "9" * 5000, "9" * 5000 + "^2",
        "1/" + "9" * 5000, "2^3^2", "a1 - 1/0 + 9" + "9" * 5000, "a3", "x1", "d", "a1^2*a03",
        "^2*a1", "a1*^3", "a0 + ^", "x.e-3*a1",
    ])
    def test_errors_keep_their_text(self, text):
        with pytest.raises(ValueError) as want:
            fraction_parse_poly(text, 3, DUAL)
        with pytest.raises(ValueError) as got:
            D(text)
        assert str(got.value) == str(want.value)


def test_parse_explicit_plus_minus():
    assert parse_poly("a0+-a1", 2, DUAL) == parse_poly("a0-a1", 2, DUAL)
    assert D("+-a0 + -2*a1^2 - a2") == D("-a0 - 2*a1^2 - a2")
    assert D("a0 +-1e-2*a1") == D("a0 - 1/100*a1")
    with pytest.raises(ValueError):
        D("a0 ++ a1")


class TestEvaluationArray:
    """The array mode of ``evaluation_matrix`` against its scalar mode."""

    EXPONENTS = [(0, 0, 0), (1, 0, 0), (0, 3, 0), (2, 0, 4), (5, 1, 2), (0, 2, 7)]

    def test_matches_the_scalar_mode(self):
        import numpy as np

        from waring.polynomial import evaluation_matrix

        rng = np.random.default_rng(7)
        points = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        points[2, 1] = 0  # 0^0 = 1 in (2, 0, 4), 0 elsewhere
        got = evaluation_matrix(points, self.EXPONENTS)
        want = evaluation_matrix([tuple(p) for p in points.tolist()], self.EXPONENTS)
        assert got.shape == (6, len(self.EXPONENTS))
        assert np.allclose(got, np.array(want), rtol=1e-13, atol=0)
        assert got[2, 2] == 0 and got[2, 3] != 0 and (got[:, 0] == 1).all()

    def test_empty_exponents_and_no_points(self):
        import numpy as np

        from waring.polynomial import evaluation_matrix

        points = np.ones((4, 3), dtype=complex)
        assert evaluation_matrix(points, []).shape == (4, 0)
        assert evaluation_matrix(np.empty((0, 3), dtype=complex), self.EXPONENTS).shape == (0, 6)
        assert evaluation_matrix(np.empty((0, 3)), []).shape == (0, 0)

    def test_scalar_mode_stays_exact(self):
        from waring.polynomial import evaluation_matrix

        rows = evaluation_matrix([(Fraction(1, 2), 0, 3)], self.EXPONENTS)
        assert rows == [[1, Fraction(1, 2), 0, Fraction(81, 4), 0, 0]]
        assert all(isinstance(v, (int, Fraction)) for v in rows[0])


def test_exponents_of_degree_is_cached_and_immutable():
    assert exponents_of_degree(4, 6) is exponents_of_degree(4, 6)
    assert isinstance(exponents_of_degree(4, 6), tuple)
    assert exponents_of_degree(3, -1) == ()


exps = st.tuples(*[st.integers(0, 2)] * 3)
coeffs = st.fractions(min_value=-2, max_value=2, max_denominator=2)
polys = st.dictionaries(exps, coeffs, max_size=6)
homogeneous = st.integers(0, 3).flatmap(
    lambda d: st.dictionaries(st.sampled_from(exponents_of_degree(3, d)), coeffs, max_size=6))


class TestZeroTermsHaveOneOwner:
    """Only the ``SparsePoly`` constructor drops zero terms; every builder just sums.

    Each builder is checked against a plain dict-of-``Fraction`` reference that sums
    (exponent, coefficient) pairs and then drops the zeros.  Exponents up to 2 in 3
    variables and coefficients in [-2, 2] with denominators up to 2 make terms cancel
    often.
    """

    @staticmethod
    def reference(pairs) -> dict:
        out = {}
        for e, c in pairs:
            out[e] = out.get(e, 0) + Fraction(c)
        return {e: c for e, c in out.items() if c}

    @staticmethod
    def check(poly, want):
        assert all(poly.terms.values()), poly.terms  # no zero coefficient is stored
        assert poly.terms == want

    @settings(max_examples=100, deadline=None, database=None)
    @given(polys, polys)
    def test_sums_differences_and_negation(self, f, g):
        pf, pg = SparsePoly(3, DUAL, f), SparsePoly(3, DUAL, g)
        self.check(pf, self.reference(f.items()))
        self.check(pf + pg, self.reference([*f.items(), *g.items()]))
        self.check(pf - pg, self.reference([*f.items(), *((e, -c) for e, c in g.items())]))
        self.check(-pf, self.reference((e, -c) for e, c in f.items()))
        self.check(pf + -pf, {})

    @settings(max_examples=100, deadline=None, database=None)
    @given(polys, polys)
    def test_products(self, f, g):
        product = SparsePoly(3, PRIMAL, f) * SparsePoly(3, PRIMAL, g)
        self.check(product, self.reference(
            (tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
            for e1, c1 in f.items() for e2, c2 in g.items()))

    @settings(max_examples=100, deadline=None, database=None)
    @given(homogeneous, st.integers(0, 2))
    def test_dehomogenize(self, f, var_index):
        got = dehomogenize(SparsePoly(3, DUAL, f), var_index)
        self.check(got, self.reference(
            (tuple(0 if i == var_index else ei for i, ei in enumerate(e)), c)
            for e, c in f.items()))

    @settings(max_examples=100, deadline=None, database=None)
    @given(polys, polys)
    def test_apply_diff(self, op, target):
        got = apply_diff(SparsePoly(3, DUAL, op), SparsePoly(3, PRIMAL, target))
        self.check(got, self.reference(
            (tuple(ei - si for ei, si in zip(e, s)),
             prod(factorial(ei) // factorial(ei - si) for ei, si in zip(e, s)) * cs * ce)
            for s, cs in op.items() for e, ce in target.items()
            if all(ei >= si for ei, si in zip(e, s))))

    @settings(max_examples=100, deadline=None, database=None)
    @given(st.lists(st.tuples(coeffs, exps), max_size=8))
    def test_parse_poly(self, terms):
        def term(c, e):
            body = "*".join(f"a{i}^{ei}" for i, ei in enumerate(e) if ei)
            return f"{abs(c)}*{body}" if body else str(abs(c))

        text = "".join(("-" if c < 0 else "+") + term(c, e) for c, e in terms) or "0"
        self.check(parse_poly(text, 3, DUAL), self.reference((e, c) for c, e in terms))

    @settings(max_examples=100, deadline=None, database=None)
    @given(polys)
    def test_equality_ignores_term_order(self, f):
        items = list(f.items())
        assert SparsePoly(3, DUAL, dict(reversed(items))) == SparsePoly(3, DUAL, f)
        assert SparsePoly(3, PRIMAL, f) != SparsePoly(3, DUAL, f)

    def test_a_term_that_cancels_and_returns(self):
        # the returning a0 keeps its first place in ``terms``; == reads no order
        again = D("a0 + a1 - a0 + a0")
        assert list(again.terms) == [(1, 0, 0), (0, 1, 0)]
        assert again == D("a1 + a0") and list(D("a1 + a0").terms) == [(0, 1, 0), (1, 0, 0)]
        assert again != D("a1 + 2*a0")

import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from math import factorial, lcm, prod
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from waring import (
    MonomialSpec,
    explicit_decomposition,
    multinomial_C,
    rank_lower_bound,
    verify_decomposition,
    waring_rank,
)
from waring import monomials
from waring.cyclotomic import CycloScalar, cyclotomic_poly, embed, root_of_unity
from waring.monomials import Decomposition, EXACT_CYCLOTOMIC
from waring.polynomial import PRIMAL, LinearForm, SparsePoly, exponents_of_degree

from conftest import spec_grid
from oracles import coefficient, coefficient_Cm, explicit_weight, power_linear_form, scale


class TestMonomialSpec:
    def test_sorting_and_bookkeeping(self):
        spec = MonomialSpec.from_exponents([3, 1, 2])
        assert spec.exponents == (1, 2, 3)
        assert spec.positions == (1, 2, 0)
        assert spec.degree == 6 and spec.rank == 12 and spec.conductor == 12

    def test_zero_exponents_are_stripped(self):
        spec = MonomialSpec.from_exponents([0, 2, 0, 1])
        assert spec.exponents == (1, 2)
        assert spec.positions == (3, 1)
        assert spec.num_original_vars == 4

    def test_invalid_input(self):
        with pytest.raises(ValueError):
            MonomialSpec.from_exponents([0, 0])
        with pytest.raises(ValueError):
            MonomialSpec.from_exponents([-1, 2])

    def test_parse_variants(self):
        assert MonomialSpec.parse("x^2*y^2*z^3").exponents == (2, 2, 3)
        assert MonomialSpec.parse("x0^2*x1^2*x2^3").exponents == (2, 2, 3)
        assert MonomialSpec.parse("2,2,3").exponents == (2, 2, 3)
        assert MonomialSpec.parse("z^2*x").exponents == (1, 2)
        assert MonomialSpec.parse("x*x*y").exponents == (1, 2)
        with pytest.raises(ValueError):
            MonomialSpec.parse("2*x*y")
        with pytest.raises(ValueError):
            MonomialSpec.parse("q^2")

    @pytest.mark.parametrize("text, message", [
        ("x^1_0", "invalid exponent '1_0'"),
        ("x^+3*y", "invalid exponent '+3'"),
        ("x^\u0661", "invalid exponent '\u0661'"),
        ("x^\u00b2*y", "invalid exponent '\u00b2'"),
        ("x\u0661*y", "unknown variable 'x\u0661'"),
        ("\u0661,2", "unknown variable '\u0661,2'"),
    ])
    def test_parse_takes_ascii_digits_only(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            MonomialSpec.parse(text)

    def test_pure_power(self):
        spec = MonomialSpec.parse("x^5")
        assert spec.n == 0 and spec.rank == 1 and spec.conductor == 1


class TestRankFormulas:
    def test_known_rank_values(self):
        assert waring_rank(MonomialSpec.parse("x*y*z")) == 4
        assert waring_rank(MonomialSpec.parse("x*y*z*w")) == 8
        assert waring_rank(MonomialSpec.parse("x*y*z^2")) == 6
        assert waring_rank(MonomialSpec.parse("x^2*y^2*z^2")) == 9

    def test_lower_bound_values(self):
        assert rank_lower_bound(MonomialSpec.parse("x*y*z")) == 4
        assert rank_lower_bound(MonomialSpec.parse("x*y^2*z^3")) == 6
        assert rank_lower_bound(MonomialSpec.parse("x^2*y^2*z^2")) == 9

    def test_bound_vs_rank_over_grid(self):
        for exps in spec_grid(3, 7):
            spec = MonomialSpec.from_exponents(exps)
            lower, rank = rank_lower_bound(spec), waring_rank(spec)
            assert lower <= rank
            assert (lower == rank) == (spec.exponents[0] == spec.exponents[-1])

    def test_rank_invariant_under_permutation(self):
        rng = random.Random(9)
        for exps in [(1, 2, 3), (2, 2, 5), (1, 1, 4, 4)]:
            reference = waring_rank(MonomialSpec.from_exponents(exps))
            for _ in range(4):
                shuffled = list(exps)
                rng.shuffle(shuffled)
                assert waring_rank(MonomialSpec.from_exponents(shuffled)) == reference

    def test_multinomial_C_values(self):
        assert multinomial_C(MonomialSpec.parse("x*y*z")) == 24
        assert multinomial_C(MonomialSpec.parse("x*y")) == 4
        assert multinomial_C(MonomialSpec.parse("x*y*z^2")) == 72


class TestExplicitDecomposition:
    def test_xy_is_the_classical_identity(self):
        spec = MonomialSpec.parse("x*y")
        dec = explicit_decomposition(spec)
        got = {(complex(c).real.__round__(6), tuple(complex(v).real.__round__(6) for v in f.coeffs))
               for c, f in dec.summands}
        assert got == {(0.25, (1.0, 1.0)), (-0.25, (1.0, -1.0))}

    def test_xyz_signs(self):
        spec = MonomialSpec.parse("x*y*z")
        dec = explicit_decomposition(spec)
        assert len(dec) == 4
        for c, form in dec.summands:
            minus_signs = sum(1 for v in form.coeffs if v == -1)
            expected = Fraction(1, 24) if minus_signs % 2 == 0 else Fraction(-1, 24)
            assert c == expected
        assert verify_decomposition(spec, dec).ok

    def test_xyz2_summand_count_and_conductor(self):
        spec = MonomialSpec.parse("x*y*z^2")
        dec = explicit_decomposition(spec)
        assert len(dec) == 6
        assert all(c.conductor == 6 for c, _ in dec.summands)
        assert verify_decomposition(spec, dec).ok

    def test_x2y2z3_full_cyclotomic_expansion(self):
        spec = MonomialSpec.parse("x^2*y^2*z^3")
        assert spec.conductor == 12
        report = verify_decomposition(spec, explicit_decomposition(spec))
        assert report.ok and report.mode == "exact"

    def test_pure_power_decomposition(self):
        spec = MonomialSpec.parse("x^4")
        dec = explicit_decomposition(spec)
        assert len(dec) == 1
        assert verify_decomposition(spec, dec).ok

    def test_permuted_variables_verify_in_original_order(self):
        spec = MonomialSpec.parse("x^3*y*z^2")  # unsorted exponents (3, 1, 2)
        assert verify_decomposition(spec, explicit_decomposition(spec)).ok

    def test_stripped_variable_stays_out_of_the_forms(self):
        spec = MonomialSpec.from_exponents([2, 0, 1])
        dec = explicit_decomposition(spec)
        assert all(form.coeffs[1] == 0 for _, form in dec.summands)
        assert verify_decomposition(spec, dec).ok

    def test_each_weight_is_its_root_times_one_over_c(self):
        # the summand of form x0 + z^a1 x1 + ... weighs z^(a1 + ...) / C; read k off the form
        for exps in spec_grid(3, 8, min_n=0):
            spec = MonomialSpec.from_exponents(exps)
            m = spec.conductor
            roots = [root_of_unity(m, k) for k in range(m)]
            for coeff, form in explicit_decomposition(spec).summands:
                root = prod((v for v in form.coeffs if v != 0), start=CycloScalar.one(m))
                want = explicit_weight(spec, roots.index(root))
                assert (coeff.conductor, coeff.num, coeff.den) == (m, want.num, want.den)

    def test_grid_small_degrees(self):
        for exps in spec_grid(3, 5):
            spec = MonomialSpec.from_exponents(exps)
            dec = explicit_decomposition(spec)
            assert len(dec) == waring_rank(spec)
            assert verify_decomposition(spec, dec).ok


class TestVerification:
    def test_flipped_sign_fails_with_the_right_difference(self):
        spec = MonomialSpec.parse("x*y")
        wrong = Decomposition(
            degree=2,
            domain=EXACT_CYCLOTOMIC,
            summands=(
                (Fraction(1, 4), LinearForm((1, 1))),
                (Fraction(1, 4), LinearForm((1, -1))),
            ),
        )
        report = verify_decomposition(spec, wrong)
        assert not report.ok
        expected = scale(power_linear_form(LinearForm((1, -1)), 2), Fraction(1, 2))
        assert report.difference == expected

    @pytest.mark.parametrize("domain", ["weird", "exact_cyclotomic", ""])
    def test_unknown_domain_is_refused(self, domain):
        with pytest.raises(ValueError, match="unknown decomposition domain"):
            Decomposition(2, domain, ((Fraction(1, 4), LinearForm((1, 1))),))

    @pytest.mark.parametrize("delta, ok", [(1e-12j, True), (2.5e-9, True), (2.5e-8, False)])
    def test_float_domain_uses_tolerance(self, delta, ok):
        # x*y = 1/4 (x + y)^2 - 1/4 (x - y)^2 with delta added to the first coefficient:
        # the x*y coefficient is off by 2 delta, so max_error = 2 |delta|; 5e-8 lies
        # between tol and 10 tol
        spec = MonomialSpec.parse("x*y")
        dec = Decomposition(
            degree=2,
            domain="complex-float",
            summands=(
                (0.25 + delta, LinearForm((1.0, 1.0))),
                (-0.25 + 0j, LinearForm((1.0, -1.0))),
            ),
        )
        report = verify_decomposition(spec, dec, tol=1e-8)
        assert report.ok is ok and report.mode == "numeric"
        assert report.max_error == pytest.approx(2 * abs(delta), rel=1e-6, abs=1e-15)

    def test_degree_mismatch_rejected(self):
        spec = MonomialSpec.parse("x*y")
        dec = Decomposition(degree=3, domain=EXACT_CYCLOTOMIC,
                            summands=((Fraction(1), LinearForm((1, 1))),))
        with pytest.raises(ValueError):
            verify_decomposition(spec, dec)

    def test_variable_count_mismatch_rejected(self):
        spec = MonomialSpec.parse("x*y")
        dec = Decomposition(degree=2, domain=EXACT_CYCLOTOMIC,
                            summands=((Fraction(1), LinearForm((1, 1, 1))),))
        with pytest.raises(ValueError):
            verify_decomposition(spec, dec)


class TestCoefficientFormula:
    def test_spec_values(self, xyz2, x2y2z2):
        assert coefficient_Cm(xyz2, (1, 1, 2)) == 1
        assert not coefficient_Cm(xyz2, (4, 0, 0))
        assert not coefficient_Cm(x2y2z2, (0, 3, 3))

    def test_only_the_target_survives(self):
        for exps in [(1, 1), (1, 2), (2, 2), (1, 1, 2), (1, 2, 2)]:
            spec = MonomialSpec.from_exponents(exps)
            for m_vec in exponents_of_degree(spec.n + 1, spec.degree):
                value = coefficient_Cm(spec, m_vec)
                assert value == (1 if m_vec == spec.exponents else 0)

    def test_agrees_with_brute_force_expansion(self, xyz2):
        # expand the full sum and compare every coefficient with the formula
        dec = explicit_decomposition(xyz2)
        total = None
        for c, form in dec.summands:
            piece = scale(power_linear_form(form, dec.degree), c)
            total = piece if total is None else total + piece
        for m_vec in exponents_of_degree(3, xyz2.degree):
            assert coefficient(total, m_vec) == coefficient_Cm(xyz2, m_vec)

    def test_degree_mismatch_rejected(self, xyz2):
        with pytest.raises(ValueError):
            coefficient_Cm(xyz2, (1, 1, 1))


def reference_difference(spec, dec):
    """The scalar expansion the exact verifier is checked against: products summed."""
    total = SparsePoly(spec.num_original_vars, PRIMAL)
    for c, form in dec.summands:
        total = total + scale(power_linear_form(form, dec.degree), c)
    return total - SparsePoly.monomial(spec.num_original_vars, PRIMAL, spec.original_exponents)


def check_against_reference(spec, dec):
    report = verify_decomposition(spec, dec)
    expected = reference_difference(spec, dec)
    assert report.mode == "exact"
    assert report.ok == (not expected)
    if report.ok:
        assert report.difference is None and report.max_error == 0.0
    else:
        assert report.difference == expected and report.max_error == float("inf")
    return report


def exact_dec(degree, summands):
    return Decomposition(degree=degree, domain=EXACT_CYCLOTOMIC,
                         summands=tuple((c, LinearForm(f)) for c, f in summands))


class TestIntegerBucketVerifier:
    def test_explicit_grid_matches_reference(self):
        for exps in spec_grid(3, 5):
            spec = MonomialSpec.from_exponents(exps)
            assert check_against_reference(spec, explicit_decomposition(spec)).ok

    def test_rational_forms(self):
        spec = MonomialSpec.parse("x*y")
        third = Fraction(1, 3)
        good = exact_dec(2, [(Fraction(1, 16), (2, 2)), (Fraction(-9, 4), (third, -third))])
        assert check_against_reference(spec, good).ok
        rng = random.Random(3)

        def rational():
            return Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 5))

        for _ in range(10):
            summands = [(rational(), (rational(), rational(), rational())) for _ in range(3)]
            dec = exact_dec(3, summands)
            assert not check_against_reference(MonomialSpec.parse("x*y*z"), dec).ok

    def test_non_root_cyclotomic_coefficients(self):
        golden = CycloScalar(5, (1, 1, 0, 0))  # 1 + zeta_5: not a rational multiple of a root
        scaled = CycloScalar(12, (0, 0, 0, 2), 3)  # 2/3 * zeta_12^3
        high = root_of_unity(7, 6)  # reduces to a six-term vector
        spec = MonomialSpec.parse("x*y^2")
        summands = [(golden, (1, golden)), (scaled, (high, 1)), (Fraction(1, 2), (golden, high))]
        assert not check_against_reference(spec, exact_dec(3, summands)).ok
        # a summand and its negative cancel whatever the coefficients
        pair = ((golden, LinearForm((golden, high))), (-golden, LinearForm((golden, high))))
        padded = Decomposition(3, EXACT_CYCLOTOMIC, explicit_decomposition(spec).summands + pair)
        assert check_against_reference(spec, padded).ok

    def test_mixed_conductors(self):
        z6, z4 = root_of_unity(6, 1), root_of_unity(4, 1)
        spec = MonomialSpec.parse("x*y*z^2")  # explicit decomposition lives in Q(zeta_6)
        base = explicit_decomposition(spec).summands
        extra = ((z4, LinearForm((1, z4, z6))), (-z4, LinearForm((1, z4, z6))))
        dec = Decomposition(degree=4, domain=EXACT_CYCLOTOMIC, summands=base + extra)
        assert check_against_reference(spec, dec).ok
        # zeta_6^2 written as zeta_3 is the same scalar at a smaller conductor
        rewritten = tuple(
            (c, LinearForm(tuple(root_of_unity(3, 1) if v == z6**2 else v for v in form.coeffs)))
            for c, form in base
        )
        assert any(getattr(v, "conductor", 1) == 3 for _, f in rewritten for v in f.coeffs)
        assert check_against_reference(spec, Decomposition(4, EXACT_CYCLOTOMIC, rewritten)).ok
        lopsided = Decomposition(4, EXACT_CYCLOTOMIC, base + extra[:1])
        report = check_against_reference(spec, lopsided)
        assert not report.ok
        assert all(c.conductor == 12 for c in report.difference.terms.values())

    @pytest.mark.parametrize("exps", [(1, 2), (1, 1, 2), (1, 2, 2), (2, 1, 3), (1, 1, 1, 1)])
    def test_seeded_perturbations_are_rejected(self, exps):
        spec = MonomialSpec.from_exponents(exps)
        summands = list(explicit_decomposition(spec).summands)
        rng = random.Random(sum(exps) * 31 + len(exps))
        m = spec.conductor
        for _ in range(3):
            j = rng.randrange(len(summands))
            c, form = summands[j]
            changed = summands.copy()
            changed[j] = (c * Fraction(rng.randint(2, 9), rng.randint(1, 9) * 10 + 1), form)
            dropped = summands[:j] + summands[j + 1:]
            coeffs = list(form.coeffs)
            slot = rng.choice([i for i, v in enumerate(coeffs) if v])
            coeffs[slot] = coeffs[slot] * root_of_unity(m, rng.randrange(1, m))
            rotated = summands.copy()
            rotated[j] = (c, LinearForm(coeffs))
            for variant in (changed, dropped, rotated):
                dec = Decomposition(spec.degree, EXACT_CYCLOTOMIC, tuple(variant))
                assert not check_against_reference(spec, dec).ok

    def test_scalars_map_to_z_mod_n(self):
        # z -> 2^b into Z/N, N = Phi_24(2^b): a scalar of conductor c sits at z^(k*24/c)
        b, m = 8, 24
        n = monomials._substitute(cyclotomic_poly(m).coeffs, b)
        assert n.bit_length() == b * cyclotomic_poly(m).degree and (2 ** (b * m) - 1) % n == 0

        def image(x):
            num, den, cond = monomials._parts(x)
            assert den == 1
            return monomials._substitute(num, b * (m // cond)) % n

        assert image(root_of_unity(24, 5)) == pow(2, 5 * b, n)
        assert image(root_of_unity(8, 7)) == pow(2, 21 * b, n)  # -zeta_8^3 mod Phi_8
        assert image(-root_of_unity(3, 1)) == pow(2, 20 * b, n)  # -zeta_3 = zeta_24^20
        assert image(Fraction(-3)) == n - 3 and image(CycloScalar(2, (5,))) == 5
        x, y = CycloScalar(12, (1, -2, 0, 3)), CycloScalar(8, (2, 0, 1, 1))
        assert image(x * y) == image(x) * image(y) % n
        assert image(x + y) == (image(x) + image(y)) % n

    def test_coordinates_beyond_float_range(self):
        big = 10**400
        spec = MonomialSpec.parse("x*y")
        for x in (CycloScalar(3, (big, big + 1), big), CycloScalar(3, (0, big), 3),
                  CycloScalar(6, (10**300, 10**300), 7)):
            dec = exact_dec(2, [(x, (1, x)), (Fraction(1, 4), (1, 1))])
            assert not check_against_reference(spec, dec).ok

    def test_float_scalars_refused_in_the_exact_domain(self):
        spec = MonomialSpec.parse("x*y")
        dec = exact_dec(2, [(0.25, (1, 1)), (Fraction(-1, 4), (1, -1))])
        with pytest.raises(ValueError):
            verify_decomposition(spec, dec)


SWEEP_SPECS = [(1, 1), (1, 2), (2, 2), (2, 3), (1, 1, 1), (1, 1, 2), (2, 1, 1), (1, 0, 2),
               (1, 1, 1, 1)]


def random_scalar(rng, kind, conductor):
    """A nonzero scalar for the sweep: what ``kind`` says about its conductor and support."""
    q = Fraction(rng.choice([-3, -2, -1, 1, 2, 3, 5]), rng.randint(1, 6))
    if kind == "rational":
        return rng.choice([q, q.numerator, CycloScalar.from_rational(q)])
    if kind == "conductor2":
        return CycloScalar(2, (q.numerator,), q.denominator)
    if kind == "mixed":
        conductor = rng.choice([3, 4, 6])
    if kind == "sparse":
        return q * root_of_unity(conductor, rng.randrange(conductor))
    deg = cyclotomic_poly(conductor).degree
    coords = tuple(rng.randint(-4, 4) for _ in range(deg))
    return CycloScalar(conductor, coords, rng.randint(1, 6)) if any(coords) else q


def sweep_case(kind, seed):
    """(spec, decomposition) of one seeded case; an even seed gives an identity.

    Grids are the explicit decomposition; a torus case rescales it by a rational
    lambda, x_i -> lambda_i x_i, which an odd seed leaves out of one coefficient.
    Every other kind adds random summands to the grid, and an even seed also
    adds their negatives, so the sum is still the target.
    """
    rng = random.Random(f"{kind}-{seed}")
    spec = MonomialSpec.from_exponents(rng.choice(SWEEP_SPECS))
    summands = list(explicit_decomposition(spec).summands)
    ok = seed % 2 == 0
    if kind == "grid" and not ok:
        j = rng.randrange(len(summands))
        c, form = summands[j]
        slot = rng.choice([i for i, v in enumerate(form.coeffs) if v])
        coeffs = list(form.coeffs)
        coeffs[slot] = coeffs[slot] * random_scalar(rng, "sparse", spec.conductor)
        summands[j] = (c, LinearForm(coeffs))
    elif kind == "torus":
        lam = [Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4))
               for _ in spec.original_exponents]
        scale = prod(l**e for l, e in zip(lam, spec.original_exponents))
        summands = [(c / scale, LinearForm(tuple(v * l for v, l in zip(form.coeffs, lam))))
                    for c, form in summands]
        if not ok:
            j = rng.randrange(len(summands))
            summands[j] = (summands[j][0] * scale, summands[j][1])
    elif kind != "grid":
        extra = []
        for _ in range(rng.randint(1, 3)):
            entries = [rng.choice([0, random_scalar(rng, kind, spec.conductor)])
                       for _ in spec.original_exponents]
            entries[rng.randrange(len(entries))] = random_scalar(rng, kind, spec.conductor)
            extra.append((random_scalar(rng, kind, spec.conductor), LinearForm(entries)))
        summands += extra + ([(-c, form) for c, form in extra] if ok else [])
    return spec, Decomposition(spec.degree, EXACT_CYCLOTOMIC, tuple(summands))


conductors = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12])
rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))


@st.composite
def exact_scalars(draw):
    """A rational, an integer times a root of unity, or a dense cyclotomic scalar."""
    kind = draw(st.sampled_from(["rational", "unit", "dense"]))
    if kind == "rational":
        q = draw(rationals)
        return q.numerator if q.denominator == 1 and draw(st.booleans()) else q
    m = draw(conductors)
    if kind == "unit":
        return draw(rationals) * root_of_unity(m, draw(st.integers(0, m - 1)))
    coords = draw(st.lists(st.integers(-4, 4), min_size=cyclotomic_poly(m).degree,
                           max_size=cyclotomic_poly(m).degree))
    return CycloScalar(m, tuple(coords), draw(st.integers(1, 4)))


@st.composite
def small_decompositions(draw):
    """(spec, summands): a small target and up to four random summands, zeros allowed."""
    spec = MonomialSpec.from_exponents(draw(st.sampled_from(SWEEP_SPECS[:8])))
    width = spec.num_original_vars
    summands = draw(st.lists(st.tuples(
        st.one_of(st.just(0), exact_scalars()),
        st.lists(st.one_of(st.just(0), exact_scalars()), min_size=width, max_size=width)
        .filter(any)), min_size=0, max_size=4))
    return spec, [(c, LinearForm(form)) for c, form in summands]


class TestVerifierProperties:
    """verify_decomposition against the scalar expansion on drawn exact decompositions."""

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(small_decompositions())
    def test_random_summands(self, case):
        spec, summands = case
        check_against_reference(spec, Decomposition(spec.degree, EXACT_CYCLOTOMIC,
                                                     tuple(summands)))

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(small_decompositions(), exact_scalars(), st.data())
    def test_identities_and_one_perturbed_summand(self, case, factor, data):
        # the explicit decomposition, plus the drawn summands and their negatives, is the
        # target; scaling one nonzero coefficient by a factor other than 1 adds
        # (factor - 1) * c * l^d, which is not zero
        spec, extra = case
        summands = list(explicit_decomposition(spec).summands) + extra + [
            (-c, form) for c, form in extra]
        assert check_against_reference(spec, Decomposition(
            spec.degree, EXACT_CYCLOTOMIC, tuple(summands))).ok
        assume(factor != 1)
        j = data.draw(st.sampled_from([j for j, (c, _) in enumerate(summands) if c]))
        summands[j] = (summands[j][0] * factor, summands[j][1])
        assert not check_against_reference(spec, Decomposition(
            spec.degree, EXACT_CYCLOTOMIC, tuple(summands))).ok


def verify_with_a_small_modulus(bits):
    """verify_decomposition with b forced to ``bits``; 'raised' if the bound check fires."""
    spec = MonomialSpec.parse("x*y^2")
    dec = explicit_decomposition(spec)
    wrong = Decomposition(3, EXACT_CYCLOTOMIC, dec.summands[1:])
    choose = monomials._modulus_bits
    monomials._modulus_bits = lambda bound: bits
    try:
        return [verify_decomposition(spec, d).ok for d in (dec, wrong)]
    except AssertionError as exc:
        return "raised" if "Kronecker" in str(exc) else repr(exc)
    finally:
        monomials._modulus_bits = choose


def verify_with_no_bound():
    """verify_decomposition of a decomposition less a summand with rho and H taken as 0,
    so that C + H = 0 and b = 1: 'raised' if the check on the digits fires."""
    spec = MonomialSpec.parse("x*y^2")
    wrong = Decomposition(3, EXACT_CYCLOTOMIC, explicit_decomposition(spec).summands[1:])
    constants = monomials._ring_constants
    monomials._ring_constants = lambda m: (0, 0)
    try:
        return verify_decomposition(spec, wrong).ok
    except AssertionError as exc:
        return "raised" if "digits beyond" in str(exc) else repr(exc)
    finally:
        monomials._ring_constants = constants


class TestKroneckerVerifier:
    """The verifier in Z/Phi_M(2^b) against the scalar expansion, on seeded input."""

    @pytest.mark.parametrize("kind", ["grid", "torus", "sparse", "dense", "rational",
                                      "conductor2", "mixed"])
    def test_seeded_sweep_matches_reference(self, kind):
        outcomes = [check_against_reference(*sweep_case(kind, seed)).ok for seed in range(30)]
        assert all(outcomes[::2])
        assert not all(outcomes[1::2])

    def test_a_modulus_below_the_bound_raises(self):
        assert verify_with_a_small_modulus(2) == "raised"

    def test_digits_beyond_the_field_raise(self):
        assert verify_with_no_bound() == "raised"

    def test_a_modulus_below_the_bound_raises_in_optimized_mode(self):
        tests = Path(__file__).resolve().parent
        code = ("from test_monomials import verify_with_a_small_modulus, verify_with_no_bound\n"
                "print(verify_with_a_small_modulus(2))\n"
                "print(verify_with_no_bound())\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True).stdout
        assert out.splitlines() == ["raised", "raised"]


def chosen_bound(spec, dec):
    """The bound C + H that ``verify_decomposition`` sized its modulus 2^b by."""
    seen = []
    choose = monomials._modulus_bits
    monomials._modulus_bits = lambda bound: seen.append(bound) or choose(bound)
    try:
        verify_decomposition(spec, dec)
    finally:
        monomials._modulus_bits = choose
    return seen[0]


def cyclo(x):
    return x if isinstance(x, CycloScalar) else CycloScalar.from_rational(x)


def verifier_ring(dec):
    """(M, D): the conductor and the common denominator of the verifier.

    D is the lcm over the summands with a nonzero coefficient of
    den(c) * lcm(den of the form's entries)^d.
    """
    m = lcm(*(cyclo(x).conductor for c, form in dec.summands for x in (c, *form.coeffs)))
    d = lcm(*(cyclo(c).den * lcm(*(cyclo(v).den for v in form.coeffs)) ** dec.degree
              for c, form in dec.summands if c))
    return m, d


def largest_integral_coordinate(values, m):
    """The largest |power-basis coordinate| of scalars that must lie in Z[zeta_m]."""
    largest = 0
    for value in values:
        scaled = embed(cyclo(value), m)
        assert scaled.den == 1
        largest = max(largest, *map(abs, scaled.num))
    return largest


def largest_coordinate(spec, dec, difference=None):
    """(M, the largest |power-basis coordinate| over e of S_e), by the scalar expansion.

    S_e = D * sum_j c_j * prod_i a_ji^e_i is D times the x^e coefficient of
    sum_j c_j l_j^d divided by the multinomial (d; e); it lies in Z[zeta_M].
    ``difference`` is ``reference_difference(spec, dec)`` when the caller has it.
    """
    m, d = verifier_ring(dec)
    if difference is None:
        difference = reference_difference(spec, dec)
    target = SparsePoly.monomial(spec.num_original_vars, PRIMAL, spec.original_exponents)
    expansion = difference + target
    return m, largest_integral_coordinate(
        (value * Fraction(d * prod(map(factorial, e)), factorial(dec.degree))
         for e, value in expansion.terms.items()), m)


def largest_difference_coordinate(dec, difference):
    """The largest |power-basis coordinate| over e of R_e, D times the x^e coefficient of
    ``difference``, the ``reference_difference`` of ``dec``."""
    m, d = verifier_ring(dec)
    return largest_integral_coordinate((value * d for value in difference.terms.values()), m)


# the nine monomials of the exact benchmark, and the b of their explicit decompositions;
# the bound on D*R_e = (d; e)*S_e - [e = target]*D gave 25, 18, 21, 20, 21, 24, 22, 24, 29
BENCHMARK_BITS = {(2, 3, 3, 3): 8, (1, 3, 5): 6, (1, 2, 3, 3): 7, (1, 3, 7): 7,
                  (2, 4, 5): 6, (1, 3, 9): 7, (1, 4, 6): 7, (2, 4, 6): 7, (3, 6, 7): 7}


def torus_scaled(spec, lam):
    """The explicit decomposition moved by x_i -> lam_i x_i: forms scaled, coefficients divided."""
    scale = prod(l**e for l, e in zip(lam, spec.original_exponents))
    return Decomposition(spec.degree, EXACT_CYCLOTOMIC, tuple(
        (c / scale, LinearForm(tuple(v * l for v, l in zip(form.coeffs, lam))))
        for c, form in explicit_decomposition(spec).summands))


def dropped_summand(spec):
    """The explicit decomposition of ``spec`` less one seeded summand."""
    summands = explicit_decomposition(spec).summands
    j = random.Random(sum(spec.exponents)).randrange(len(summands))
    return Decomposition(spec.degree, EXACT_CYCLOTOMIC, summands[:j] + summands[j + 1:])


class TestKroneckerBound:
    """C bounds every coordinate of S_e, and b stays sized by the per-summand bound."""

    @staticmethod
    def check(spec, dec):
        m, largest = largest_coordinate(spec, dec)
        height = max(map(abs, cyclotomic_poly(m).coeffs))
        assert chosen_bound(spec, dec) - height >= largest
        return largest

    @pytest.mark.parametrize("kind", ["grid", "torus", "sparse", "dense", "rational",
                                      "conductor2", "mixed"])
    def test_the_bound_holds_on_the_sweep(self, kind):
        assert any([self.check(*sweep_case(kind, seed)) for seed in range(30)])

    @pytest.mark.parametrize("exps", sorted(BENCHMARK_BITS))
    def test_the_bound_holds_with_a_summand_dropped(self, exps):
        spec = MonomialSpec.from_exponents(exps)
        assert self.check(spec, dropped_summand(spec))

    @pytest.mark.parametrize("exps", [(3, 6, 7), (1, 4, 6), (1, 3, 5)])
    def test_a_difference_beyond_the_digits_is_reported_exactly(self, exps):
        # R_e = (d; e)*S_e - [e = target]*D is formed from the digits of S_e, so its
        # coordinates may run far past the 2^(b-1) that bounds every digit
        spec = MonomialSpec.from_exponents(exps)
        dec = dropped_summand(spec)
        expected = reference_difference(spec, dec)
        report = verify_decomposition(spec, dec)
        assert not report.ok and report.difference == expected
        b = monomials._modulus_bits(chosen_bound(spec, dec))
        assert largest_coordinate(spec, dec, expected)[1] < 2 ** (b - 1)
        assert largest_difference_coordinate(dec, expected) > 2 ** (b + 3)

    def test_the_benchmark_moduli_stay_small(self):
        bits = {}
        for exps in BENCHMARK_BITS:
            spec = MonomialSpec.from_exponents(exps)
            bits[exps] = monomials._modulus_bits(chosen_bound(spec, explicit_decomposition(spec)))
        assert all(bits[exps] <= most for exps, most in BENCHMARK_BITS.items()), bits

    def test_the_unit_table_knows_roots_and_their_multiples(self):
        spec = MonomialSpec.parse("x^3*y^6*z^7")
        lam = (2, Fraction(-3, 2), Fraction(5, 3))
        dec = torus_scaled(spec, lam)
        assert verify_decomposition(spec, dec).ok
        for (_, form), (_, scaled) in zip(explicit_decomposition(spec).summands, dec.summands):
            for v, w, l in zip(form.coeffs, scaled.coeffs, lam):
                t, k = monomials._unit(v.num, v.conductor)
                assert t in (1, -1) and v == t * root_of_unity(v.conductor, k)
                t, k = monomials._unit(w.num, w.conductor)
                assert abs(t) == abs(Fraction(l).numerator)
                assert w == Fraction(t, w.den) * root_of_unity(w.conductor, k)
        # s = (12, 9, 10) after clearing the denominators 6: the bound on D*R_e gave b = 87
        assert monomials._modulus_bits(chosen_bound(spec, dec)) <= 65
        golden = CycloScalar(5, (1, 1, 0, 0))  # 1 + zeta_5: a unit, but no root of unity
        assert monomials._unit(golden.num, 5) is None
        assert monomials._unit((2, 2, 0, 0), 5) is None
        assert monomials._unit((0, 0, 0, 0), 5) == (0, 0)
        assert monomials._unit((-4,), 1) == (-4, 0) and monomials._unit((3,), 2) == (3, 0)
        assert monomials._unit((0, -6), 3) == (-6, 1)  # -6 * zeta_3
        assert monomials._unit((-6, -6), 3) == (6, 2)  # 6 * zeta_3^2 = -6 - 6*zeta_3
        assert monomials._unit((6, 6), 3) == (-6, 2)


class TestFloatEvaluationProduct:
    """The float verifier is one evaluation product; the scalar expansion is its reference."""

    def check(self, spec, dec):
        report = verify_decomposition(spec, dec)
        expected = max((abs(complex(c)) for c in reference_difference(spec, dec).terms.values()),
                       default=0.0)
        assert report.mode == "numeric"
        assert report.max_error == pytest.approx(expected, rel=1e-9, abs=1e-14)
        return report

    def test_explicit_grid_in_floats(self):
        for exps in spec_grid(3, 4):
            spec = MonomialSpec.from_exponents(exps)
            summands = tuple((complex(c), LinearForm(tuple(complex(v) for v in form.coeffs)))
                             for c, form in explicit_decomposition(spec).summands)
            assert self.check(spec, Decomposition(spec.degree, "complex-float", summands)).ok

    def test_random_forms_with_zero_entries_and_stray_variables(self):
        rng = random.Random(5)
        spec = MonomialSpec.from_exponents([1, 0, 2])  # x1 divides no term of the target

        def entry():
            return rng.choice([0, complex(rng.uniform(-2, 2), rng.uniform(-2, 2))])

        for _ in range(10):
            summands = tuple((complex(rng.uniform(-1, 1)), LinearForm((entry(), entry(), 1.5)))
                             for _ in range(4))
            assert not self.check(spec, Decomposition(3, "complex-float", summands)).ok
        assert self.check(spec, Decomposition(3, "complex-float", ())).max_error == 1.0

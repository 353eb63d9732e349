"""Independent references that the tests check the package against.

No command runs these: each is the plain, slow form of something the package
computes another way (the expansion coefficients by closed form, a power of
a linear form term by term), or a small reading of a package value that only
the tests need.
"""

from fractions import Fraction

from waring import cyclotomic
from waring.cyclotomic import CycloScalar, embed
from waring.linalg import _is_exact_scalar
from waring.monomials import multinomial_C
from waring.polynomial import (
    PRIMAL,
    SparsePoly,
    evaluation_matrix,
    exponents_of_degree,
    multinomial,
)
from waring.solver import PointSet


def root_power_sum(m: int, e: int) -> CycloScalar:
    """Sum of (zeta_m^e)^a over a = 0, ..., m-1, computed by actual summation.

    The result is m when m divides e and 0 otherwise; the summation is checked
    against that closed form before returning.
    """
    if m < 1:
        raise ValueError("conductor must be a positive integer")
    total = CycloScalar.from_rational(0, m)
    for a in range(m):
        total = total + cyclotomic.root_of_unity(m, e * a)
    expected = m if e % m == 0 else 0
    if total != expected:
        raise AssertionError(
            f"root_power_sum({m}, {e}): the summed roots give {total}, the closed form {expected}"
        )
    return total


def coefficient_Cm(spec, m_vec) -> CycloScalar:
    """Coefficient of x^m_vec in the explicit expression, by the factored formula.

    The geometric sums over each root of unity factor the coefficient into a
    product of ``root_power_sum`` values times (d; m_vec)/C; it is 1 at the
    spec's own exponent vector and 0 at every other degree-d exponent.
    ``m_vec`` is read in the spec's sorted variable frame.
    """
    if len(m_vec) != spec.n + 1:
        raise ValueError("m_vec length must match the number of variables")
    if sum(m_vec) != spec.degree:
        raise ValueError("m_vec must have the same total degree as the monomial")
    value = CycloScalar.from_rational(
        Fraction(multinomial(spec.degree, tuple(m_vec))) / multinomial_C(spec), spec.conductor
    )
    for i in range(1, spec.n + 1):
        value = value * root_power_sum(spec.exponents[i] + 1, m_vec[i] + 1)
    return embed(value, spec.conductor) if value.conductor != spec.conductor else value


def power_linear_form(form, degree: int) -> SparsePoly:
    """Expand form^degree by the multinomial theorem (primal ring): the x^e
    coefficient is (d; e) * l^e, over the exponents supported where l is nonzero."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    support = [i for i, c in enumerate(form.coeffs) if c]
    if not support:
        raise ValueError("cannot raise the zero form to a power")
    exponents = []
    for part in exponents_of_degree(len(support), degree):
        e = [0] * form.num_vars
        for i, ei in zip(support, part):
            e[i] = ei
        exponents.append(tuple(e))
    (values,) = evaluation_matrix([form.coeffs], exponents)
    return SparsePoly(form.num_vars, PRIMAL,
                      {e: multinomial(degree, e) * v for e, v in zip(exponents, values)})


def scale(poly: SparsePoly, scalar) -> SparsePoly:
    """scalar * poly; zero products drop out."""
    return SparsePoly(poly.num_vars, poly.ring, {e: scalar * c for e, c in poly.terms.items()})


def coefficient(poly: SparsePoly, exponent):
    """The coefficient of a^exponent in poly, 0 when the term is absent."""
    return poly.terms.get(tuple(exponent), 0)


def fraction_coords(x: CycloScalar) -> tuple[Fraction, ...]:
    """Coordinates in the power basis 1, z, ..., z^(phi(m)-1), as Fractions."""
    return tuple(Fraction(c, x.den) for c in x.num)


def is_exact(points: PointSet) -> bool:
    """True when every coordinate is an int, Fraction or CycloScalar."""
    return all(_is_exact_scalar(c) for p in points.points for c in p)

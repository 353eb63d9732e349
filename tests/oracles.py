"""Independent references that the tests check the package against.

No command runs these: each is the plain, slow form of something the package
computes another way (the expansion coefficients by closed form, the weights
zeta_m^k / C by a product instead of the root table, a power of a linear form
term by term, the summand coefficients by a square solve instead of 1/J, q_t
by its definition instead of the previous degree's dim I_t, every parsed
coefficient in ``Fraction``, the remainder mod Phi_m by long division instead
of a table of powers), or a small reading of a package value that only the
tests need.
"""

import re
from fractions import Fraction

import numpy as np

from waring import cyclotomic
from waring.cyclotomic import CycloScalar, cyclotomic_poly, embed
from waring.linalg import (
    LinearSolveError,
    _all_exact,
    _exactify,
    _is_exact_scalar,
    exact_solve,
    rank,
)
from waring.monomials import (
    COMPLEX_FLOAT,
    EXACT_CYCLOTOMIC,
    Decomposition,
    multinomial_C,
    verify_decomposition,
)
from waring.polynomial import (
    _NUMBER,
    _VAR_PREFIX,
    PRIMAL,
    SparsePoly,
    evaluation_matrix,
    exponents_of_degree,
    is_digits,
    multinomial,
    split_power,
)
from waring.solver import NonRadicalIdealError, PointSet, _coords, in_chart, standard_monomials


def remainder_mod_phi(m: int, vec) -> list[int]:
    """sum_j vec[j] z^j modulo Phi_m by long division, highest term first.

    Phi_m is monic, so each step subtracts c * z^(top - deg) * Phi_m for the
    leading coefficient c; no table of powers, and z^m = 1 is never used.
    """
    phi = cyclotomic_poly(m).coeffs
    deg = len(phi) - 1
    rem = list(vec) + [0] * (deg - len(vec))
    for top in range(len(rem) - 1, deg - 1, -1):
        c = rem[top]
        if c:
            for i, p in enumerate(phi):
                rem[top - deg + i] -= c * p
    return rem[:deg]


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


def explicit_weight(spec, k: int) -> CycloScalar:
    """zeta_m^k / C, the weight of a summand of the explicit decomposition, as a product."""
    m = spec.conductor
    return cyclotomic.root_of_unity(m, k) * CycloScalar.from_rational(
        Fraction(1, multinomial_C(spec)), m)


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


def points_from_decomposition(dec, spec) -> PointSet:
    """The point set of a decomposition's forms, rescaled to a0 = 1, sorted frame."""
    pts = []
    for _, form in dec.summands:
        sorted_coords = _exactify(form.coeffs[spec.positions[i]] for i in range(spec.n + 1))
        lead = sorted_coords[0]
        if not lead:
            raise ValueError("form has zero a0 coordinate; cannot normalize")
        pts.append(tuple(c / lead for c in sorted_coords))
    return PointSet(points=tuple(pts))


def fit_coefficients(spec, points, tol: float = 1e-6) -> list:
    """The c_j of sum_j c_j * (l_j)^d = monomial by one r x r solve: the reference for 1/J.

    With each point scaled to a0 = 1, the x^e coefficient at e = (d - |b|, b)
    is (d; e) * sum_j c_j p_j^b; over the standard monomials b that reads
    V^T c = e_top / (d; d0, ..., dn), V[j][b] = p_j^b, top = (0, d1, ..., dn).
    Each c_j is then divided by a0^d of its point as given, so unnormalized
    forms fit too.  Exact points solve exactly and are checked exactly, float
    points solve with numpy and are checked to ``tol``.  A singular V or a
    failed check raises NonRadicalIdealError.
    """
    basis = standard_monomials(spec)
    top = (0,) + spec.exponents[1:]
    rhs = [int(b == top) for b in basis]
    chart = in_chart(spec, points)
    singular = "the points are not distinct (V is singular)"
    if exact := _all_exact(chart):
        try:
            solution = exact_solve(list(zip(*evaluation_matrix(chart, basis))), rhs)
        except LinearSolveError:
            raise NonRadicalIdealError(singular) from None
    else:
        try:
            v = evaluation_matrix(np.array(chart, dtype=complex), basis)
            solution = np.linalg.solve(v.T, rhs).tolist()
        except np.linalg.LinAlgError:
            raise NonRadicalIdealError(singular) from None
    coords = _coords(points)
    scale = multinomial(spec.degree, spec.exponents)
    coeffs = [x / (scale * p[0] ** spec.degree) for x, p in zip(solution, coords)]
    dec = Decomposition(spec.degree, EXACT_CYCLOTOMIC if exact else COMPLEX_FLOAT,
                        tuple(zip(coeffs, map(spec.form_to_original, coords))))
    report = verify_decomposition(spec, dec, tol)
    if not report.ok:
        detail = "" if exact else f" (residual {report.max_error:.3e}, tol {tol})"
        raise NonRadicalIdealError(
            f"power-expansion system is inconsistent{detail}; "
            "the points are not a power-sum configuration for this monomial"
        )
    return coeffs


def full_columns(q) -> tuple:
    """All n*r columns of M_1..M_n of a quotient as (row, value) pairs: a unit shift of the
    plan as ((row, 1),), a boundary column as the quotient stores it."""
    return tuple(tuple(((g, 1),) if g >= 0 else boundary[b] for b, g in enumerate(shifts))
                 for shifts, boundary in zip(q.plan.shifts, q.boundary))


def column_product(columns, var: int, pairs) -> list:
    """M_var times a vector given as (index, value) pairs, M_var given by all its columns
    (as ``full_columns`` gives them), summed column by column: the reference for
    ``QuotientAlgebra.times``."""
    out = [0] * len(columns[var - 1])
    for b, v in pairs:
        if v:
            for row, c in columns[var - 1][b]:
                out[row] += c * v
    return out


def q_t_diagnostic(spec, points, t: int) -> int:
    """dim of I_t intersected with a0 * S_{t-1}: the reference for q_t = dim I_{t-1}.

    A degree-t polynomial divisible by a0 is exactly one supported on the
    a0-divisible monomials, so the intersection is the kernel of the
    evaluation matrix restricted to those columns.
    """
    if t <= 0:
        return 0
    coords_list = _coords(points)
    if not coords_list:
        raise ValueError("empty point set")
    if len(coords_list[0]) != spec.n + 1:
        raise ValueError("points do not match the spec's variable count")
    exponents = [e for e in exponents_of_degree(spec.n + 1, t) if e[0] >= 1]
    return len(exponents) - rank(evaluation_matrix(coords_list, exponents))


def fraction_parse_poly(text: str, num_vars: int, ring: str) -> SparsePoly:
    """``parse_poly`` with every coefficient built in ``Fraction``: the reference for its values
    and for the text and order of its errors."""
    prefix = _VAR_PREFIX[ring]
    aliases = {"x": 0, "y": 1, "z": 2, "w": 3} if ring == PRIMAL else {"a": 0, "b": 1, "c": 2}
    cleaned = text.replace(" ", "")
    if not cleaned:
        raise ValueError("empty polynomial")
    cleaned = re.sub(r"(?<!\d[eE])(?<!\d\.[eE])(?<!\+)-", "+-", cleaned)
    if cleaned.startswith("+"):
        cleaned = cleaned[1:]
    terms = {}
    for chunk in re.split(r"(?<!\d[eE])(?<!\d\.[eE])\+", cleaned):
        if not chunk:
            raise ValueError(f"could not parse polynomial {text!r}")
        coeff = Fraction(1)
        if chunk.startswith("-"):
            coeff = -coeff
            chunk = chunk[1:]
        exponent = [0] * num_vars
        for factor in chunk.split("*"):
            if not factor:
                raise ValueError(f"could not parse polynomial {text!r}")
            name, power = split_power(factor, text)
            if name[0].isdigit():
                if not _NUMBER.fullmatch(name):
                    raise ValueError(f"invalid number {name!r} in {text!r}")
                try:
                    coeff *= Fraction(name) ** power
                except ZeroDivisionError:
                    raise ValueError(f"zero denominator in {name!r} of {text!r}") from None
                continue
            if name.startswith(prefix) and is_digits(name[len(prefix):]):
                index = int(name[len(prefix):])
            elif name in aliases:
                index = aliases[name]
            else:
                raise ValueError(f"unknown variable {name!r} in {text!r}")
            if index >= num_vars:
                raise ValueError(f"variable {name!r} out of range for {num_vars} variables")
            exponent[index] += power
        key = tuple(exponent)
        terms[key] = terms.get(key, 0) + coeff
    return SparsePoly(num_vars, ring, terms)

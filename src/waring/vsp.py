"""Exploring the space of power-sum decompositions of a monomial.

The canonical generator tuples phi (no term in the model ideal J) parametrize
the reduced decompositions bijectively, so sampling phi and solving the
resulting ideal walks the space of decompositions: its r points are the linear
forms, and they fix the coefficients, c_j = 1/(C * J(p_j)).  Each phi is
certified radical once, and each decomposition is expanded once, to verify.
This module also hosts the point-side Hilbert function, one rank per degree
(``diagnose`` reads q_t off it: no point has a0 = 0, so q_t = dim I_(t-1)),
and the torus normalization that, for equal exponents, maps any decomposition
to the canonical one.  The Hilbert function and the phi fit evaluate monomials
at points through the one builder, ``polynomial.evaluation_matrix``, in its
scalar mode, so exact points give exact rows, and leave the exact-or-float
choice of rank and solve to ``linalg``.  The float stage of a decomposition
(points, Newton steps, coefficients, verification) runs on its array mode, one
row per point.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from math import prod

from .ideals import PhiTuple, basis_Bprime, dim_vsp
from .linalg import InconsistentSystem, RankDeficientSystem, _is_exact_scalar, rank, solve
from .monomials import Decomposition, MonomialSpec
from .polynomial import DUAL, SparsePoly, evaluation_matrix, exponents_of_degree
from .solver import (
    NonRadicalIdealError,
    PointSet,
    _coords,
    _fit_decomposition,
    certify_radical,
    extract_points,
    in_chart,
)


@dataclass(frozen=True)
class VSPParameterSpace:
    """Monomial bases of the coefficient spaces for each phi_i."""

    spec: MonomialSpec
    bases: tuple[tuple, ...]

    @property
    def dimension(self) -> int:
        return sum(len(b) for b in self.bases)


def parameter_space(spec: MonomialSpec) -> VSPParameterSpace:
    space = VSPParameterSpace(
        spec=spec, bases=tuple(tuple(basis_Bprime(spec, i)) for i in range(1, spec.n + 1))
    )
    expected = dim_vsp(spec)
    if space.dimension != expected:
        raise AssertionError(
            f"parameter_space({spec}): the bases span {space.dimension} parameters, "
            f"dim_vsp gives {expected}"
        )
    return space


def sample_phi(space: VSPParameterSpace, seed: int) -> PhiTuple:
    """A seeded random canonical tuple: every basis monomial of each phi_i gets
    a nonzero integer coefficient in [-9, 9]."""
    rng = random.Random(seed)
    spec = space.spec
    entries = []
    nonzero = [k for k in range(-9, 10) if k != 0]
    for basis in space.bases:
        terms = {e: rng.choice(nonzero) for e in basis}
        entries.append(SparsePoly(spec.n + 1, DUAL, terms))
    phi = PhiTuple(spec, entries)
    if not phi.canonical:
        raise AssertionError(f"sample_phi(seed={seed}) built a non-canonical tuple {phi}")
    return phi


def decompose_from_phi(
    spec: MonomialSpec, phi: PhiTuple, tol: float = 1e-8, seed: int = 0
) -> Decomposition:
    """Radicality certificate, point extraction, coefficient fit, numeric verification.

    Raises NonRadicalIdealError unless I(n, phi) cuts out the full set of
    reduced points, and refuses to return anything whose expansion misses the
    monomial by more than ``tol`` in any coefficient.  The quotient algebra
    that ``certify_radical`` built for the certificate is the one solved.
    """
    certificate = certify_radical(spec, phi)
    if not certificate.radical:
        raise NonRadicalIdealError(f"I(n, phi) is not radical for phi = {phi}")
    q = certificate.quotient
    return _fit_decomposition(q, extract_points(q, tol, seed), tol)


def fit_phi_from_points(spec: MonomialSpec, points) -> PhiTuple:
    """Recover the canonical phi from a point set.

    For each i the generator a_i^(d_i+1) - phi_i * a0^(d0+1) must vanish on
    every point; with a0 normalized to 1 that reads phi_i(p) = p_i^(d_i+1),
    a linear system for the coefficients of phi_i over the no-term-in-J basis.
    Points ``in_chart`` refuses or whose values leave float range raise ValueError;
    no fit, or many, raise InconsistentSystem or RankDeficientSystem.
    """
    coords_list = in_chart(spec, points)
    entries = []
    for i in range(1, spec.n + 1):
        basis = basis_Bprime(spec, i)
        top = spec.exponents[i] + 1
        rows, rhs = [], []
        for j, p in enumerate(coords_list):
            try:
                (row,), value = evaluation_matrix([p], basis), p[i] ** top
            except OverflowError:  # complex ** past float range
                row, value = [], math.inf
            if not all(_is_exact_scalar(v) or cmath.isfinite(v) for v in [*row, value]):
                raise ValueError(f"point {j} is outside float range: at a0 = 1, a power of its "
                                 f"coordinates up to degree {top} is not finite")
            rows.append(row)
            rhs.append(value)
        try:
            solution = solve(rows, rhs)
        except RankDeficientSystem:
            raise RankDeficientSystem(
                "phi fit is not unique; degenerate point configuration") from None
        except InconsistentSystem as exc:
            raise InconsistentSystem(
                f"no phi fits these points{exc.detail}; not a power-sum configuration"
            ) from None
        entries.append(SparsePoly(spec.n + 1, DUAL, dict(zip(basis, solution))))
    phi = PhiTuple(spec, entries)
    if not phi.canonical:
        raise AssertionError(f"fit_phi_from_points({spec}) fitted a non-canonical tuple {phi}")
    return phi


def point_ideal_hilbert(points, t: int) -> int:
    """Hilbert function of the point ideal: dim (S/I)_t = rank of the evaluation matrix
    (on float points, by SVD with the relative cutoff ``linalg.RANK_CUTOFF``)."""
    if t < 0:
        return 0
    coords_list = _coords(points)
    if not coords_list:
        raise ValueError("empty point set")
    return rank(evaluation_matrix(coords_list, exponents_of_degree(len(coords_list[0]), t)))


@dataclass(frozen=True)
class TorusElement:
    """A variable rescaling (l_0, ..., l_n) with prod l_i^(d_i) = 1."""

    lam: tuple[complex, ...]
    exponents: tuple[int, ...]

    def __post_init__(self):
        if len(self.lam) != len(self.exponents):
            raise ValueError("scaling vector length must match the exponent tuple")
        if any(not v for v in self.lam):
            raise ValueError("torus elements have nonzero entries")
        check = prod(v ** d for v, d in zip(self.lam, self.exponents))
        if abs(check - 1) > 1e-10:
            raise ValueError(f"not a torus element: prod lambda_i^d_i = {check}")


def apply_torus(torus: TorusElement, points) -> PointSet:
    """Coordinatewise action on points, renormalized back to the a0 = 1 chart."""
    coords_list = _coords(points)
    out = []
    for p in coords_list:
        scaled = [complex(l) * complex(c) for l, c in zip(torus.lam, p)]
        out.append(tuple(c / scaled[0] for c in scaled))
    return PointSet(points=tuple(out))


def torus_normalize(spec: MonomialSpec, phi: PhiTuple) -> tuple[TorusElement, PhiTuple]:
    """For equal exponents, the torus element carrying V(I(n, phi)) onto the
    canonical variety V(a_i^(k+1) - a0^(k+1)).

    The scalars phi_i must be nonzero (radicality).  Writing k for the common
    exponent, the ratios lambda_i / lambda_0 must be (k+1)-th roots of 1/phi_i;
    the principal branch is used, and a single global factor places the vector
    inside the torus.  The summed principal logarithms make the torus relation
    hold on the nose rather than up to a root of unity.
    """
    k = spec.exponents[0]
    if any(d != k for d in spec.exponents):
        raise ValueError("torus normalization applies to equal exponents only")
    if len(phi) != spec.n:
        raise ValueError("need a complete phi tuple")
    logs = []
    for i, p in enumerate(phi.entries, start=1):
        if not p:
            raise NonRadicalIdealError(f"phi_{i} = 0: the ideal is not radical")
        if p.degree() != 0:
            raise ValueError("equal exponents force scalar phi entries")
        v = next(iter(p.terms.values()))
        try:
            logs.append(cmath.log(complex(v)))
        except (OverflowError, ValueError):  # a rational past float range; math.log takes ints
            logs.append(complex(math.log(abs(v.numerator)) - math.log(v.denominator),
                                math.pi if v < 0 else 0.0))
    n = spec.n
    # lambda_i = c * exp(-log(phi_i)/(k+1)), with c = lambda_0 balancing prod lambda^k = 1
    lam = []
    for i, x in enumerate([sum(logs) / ((n + 1) * (k + 1))] + [-v / (k + 1) for v in logs]):
        try:
            lam.append(lam[0] * cmath.exp(x) if lam else cmath.exp(x))
        except OverflowError:
            lam.append(0)
        if not lam[-1] or not cmath.isfinite(lam[-1]):
            source = f"phi_{i}" if i else "the product of the phi_i"
            raise ValueError(f"lambda_{i}, from {source}, is outside float range")
    torus = TorusElement(lam=tuple(lam), exponents=spec.exponents)
    ones = PhiTuple(spec, [SparsePoly.constant(n + 1, DUAL, 1) for _ in range(n)])
    return torus, ones


@dataclass
class SampleReport:
    """One seeded sample: the phi drawn, its radicality, and verification data."""

    seed: int
    phi: PhiTuple
    radical: bool
    verified: bool
    residual: float | None


def sample_decompositions(
    spec: MonomialSpec, seed: int, count: int, tol: float = 1e-8
) -> list[SampleReport]:
    """Run the sampling pipeline for seeds seed, seed+1, ..., seed+count-1."""
    space = parameter_space(spec)
    reports = []
    for s in range(seed, seed + count):
        phi = sample_phi(space, s)
        certificate = certify_radical(spec, phi)
        q = certificate.quotient
        dec = _fit_decomposition(q, extract_points(q, tol, s), tol) if certificate.radical else None
        reports.append(SampleReport(seed=s, phi=phi, radical=certificate.radical,
                                    verified=dec is not None,
                                    residual=None if dec is None else dec.residual))
    return reports

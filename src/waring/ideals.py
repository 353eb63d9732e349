"""Hilbert functions and the complete intersections I(k, phi).

Every length-minimal power-sum decomposition of a monomial is cut out by an
ideal with generators a_i^(d_i+1) - phi_i * a0^(d0+1) for homogeneous phi_i of
degree d_i - d0.  This module builds those ideals, normalizes the phi tuple to
its canonical representative (no term divisible by any a_j^(d_j+1), j >= 1),
and computes the Hilbert-function data that controls the dimension count of
the space of decompositions.

All polynomials here live in the dual ring over the spec's sorted frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .groebner import ci_normal_form
from .monomials import MonomialSpec
from .polynomial import (
    DUAL,
    Exponent,
    SparsePoly,
    apply_diff,
    exponents_of_degree,
)


def _dim_S(n: int, t: int) -> int:
    """Dimension of the degree-t piece of a polynomial ring in n+1 variables."""
    return comb(t + n, n) if t >= 0 else 0


def _series_numerator(spec: MonomialSpec) -> list[int]:
    """Coefficients of prod_{i>=1} (1 - s^(d_i+1)) as a dense integer list."""
    num = [1]
    for d in spec.exponents[1:]:
        width = d + 1
        out = [0] * (len(num) + width)
        for j, c in enumerate(num):
            out[j] += c
            out[j + width] -= c
        num = out
    return num


def hilbert_S_mod_J(spec: MonomialSpec, t: int) -> int:
    """Hilbert function of S modulo J = (a1^(d1+1), ..., an^(dn+1)) at degree t.

    Computed two independent ways that must agree: counting the monomials with
    a_i <= d_i for i >= 1 directly, and expanding the rational generating
    series prod (1-s^(d_i+1)) / (1-s)^(n+1).  Stabilizes at the rank for
    t >= d1 + ... + dn.
    """
    if t < 0:
        return 0
    count = _count_bounded(spec.exponents[1:], t)
    series = sum(
        c * _dim_S(spec.n, t - j) for j, c in enumerate(_series_numerator(spec)) if c
    )
    if count != series:
        raise AssertionError(
            f"hilbert_S_mod_J at t={t}: monomial count {count}, generating series {series}"
        )
    return count


def _count_bounded(bounds, t: int) -> int:
    """Number of tuples (a_1..a_n) with 0 <= a_i <= bound_i and sum <= t."""
    counts = {0: 1}
    for bound in bounds:
        nxt: dict[int, int] = {}
        for s, ways in counts.items():
            for a in range(bound + 1):
                if s + a <= t:
                    nxt[s + a] = nxt.get(s + a, 0) + ways
        counts = nxt
    return sum(counts.values())


def dim_vsp(spec: MonomialSpec) -> int:
    """Dimension of the variety of power-sum decompositions: sum of h(d_i - d0)."""
    d0 = spec.exponents[0]
    return sum(hilbert_S_mod_J(spec, d - d0) for d in spec.exponents[1:])


def basis_Bprime(spec: MonomialSpec, i: int) -> list[Exponent]:
    """Monomials of degree d_i - d0 with no factor a_j^(d_j+1), j >= 1.

    These represent a basis of the degree-(d_i - d0) piece of S/J; powers of
    a0 are unrestricted.  Indexed by 1 <= i <= n, in descending grevlex order.
    """
    if not 1 <= i <= spec.n:
        raise ValueError("index must satisfy 1 <= i <= n")
    degree = spec.exponents[i] - spec.exponents[0]
    out = [
        e
        for e in exponents_of_degree(spec.n + 1, degree)
        if all(e[j] <= spec.exponents[j] for j in range(1, spec.n + 1))
    ]
    expected = hilbert_S_mod_J(spec, degree)
    if len(out) != expected:
        raise AssertionError(
            f"basis_Bprime(i={i}) has {len(out)} monomials of degree {degree}, "
            f"the Hilbert function gives {expected}"
        )
    return out


class PhiTuple:
    """The generator data (phi_1, ..., phi_k): dual polynomials, deg phi_i = d_i - d0.

    ``canonical`` records whether no term of any entry is divisible by some
    a_j^(d_j+1) with j >= 1; canonical tuples are the unique representatives
    of their ideals.
    """

    __slots__ = ("entries", "canonical")

    def __init__(self, spec: MonomialSpec, entries):
        polys = []
        d0 = spec.exponents[0]
        for i, entry in enumerate(entries, start=1):
            if not isinstance(entry, SparsePoly):
                entry = SparsePoly.constant(spec.n + 1, DUAL, entry)
            if entry.ring != DUAL or entry.num_vars != spec.n + 1:
                raise ValueError("phi entries must be dual polynomials over the sorted frame")
            want = spec.exponents[i] - d0
            if entry and (not entry.is_homogeneous() or entry.degree() != want):
                raise ValueError(f"phi_{i} must be homogeneous of degree {want}")
            polys.append(entry)
        if len(polys) > spec.n:
            raise ValueError("too many phi entries")
        self.entries = tuple(polys)
        self.canonical = all(
            not _exponent_in_J(spec, e) for p in self.entries for e in p.terms
        )

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i: int) -> SparsePoly:
        return self.entries[i]

    def __eq__(self, other):
        if not isinstance(other, PhiTuple):
            return NotImplemented
        return self.entries == other.entries

    def __str__(self) -> str:
        return "(" + ", ".join(str(p) for p in self.entries) + ")"


def _exponent_in_J(spec: MonomialSpec, exponent: Exponent) -> bool:
    return any(exponent[j] >= spec.exponents[j] + 1 for j in range(1, spec.n + 1))


def explicit_phi(spec: MonomialSpec) -> PhiTuple:
    """The tuple (a0^(d1-d0), ..., a0^(dn-d0)) realized by the explicit decomposition."""
    d0 = spec.exponents[0]
    entries = [
        SparsePoly.monomial(spec.n + 1, DUAL, (d - d0,) + (0,) * spec.n)
        for d in spec.exponents[1:]
    ]
    return PhiTuple(spec, entries)


@dataclass
class CIIdeal:
    """The complete intersection I(k, phi) with its generators a_i^(d_i+1) - tails[i-1]."""

    spec: MonomialSpec
    phi: PhiTuple
    generators: tuple[SparsePoly, ...]
    tails: tuple[SparsePoly, ...]  # phi_i * a0^(d0+1), what the normal form rewrites to

    @property
    def k(self) -> int:
        return len(self.phi)


def generator_tails(spec: MonomialSpec, entries) -> tuple[SparsePoly, ...]:
    """phi_i * a0^(d0+1) per entry: generator i of I(k, phi) is a_i^(d_i+1) minus it.

    Multiplying by the monomial a0^(d0+1) only raises the a0 exponent of each term.
    """
    shift = spec.exponents[0] + 1
    return tuple(
        SparsePoly(spec.n + 1, DUAL, {(e[0] + shift, *e[1:]): c for e, c in p.terms.items()})
        for p in entries
    )


def make_ci_ideal(spec: MonomialSpec, phi: PhiTuple) -> CIIdeal:
    """Build I(k, phi) = (a_i^(d_i+1) - phi_i * a0^(d0+1) : 1 <= i <= k), k = len(phi).

    Each generator is checked to be homogeneous of degree d_i + 1 and to
    annihilate the monomial under the differentiation action.
    """
    n = spec.n
    target = spec.monomial_poly()
    gens, tails = [], generator_tails(spec, phi.entries)
    for i, tail in enumerate(tails, start=1):
        lead = tuple(spec.exponents[i] + 1 if j == i else 0 for j in range(n + 1))
        # every tail term carries a0^(d0+1), so none of them meets the lead
        g = SparsePoly(n + 1, DUAL, {lead: 1, **{e: -c for e, c in tail.terms.items()}})
        if not g.is_homogeneous() or g.degree() != spec.exponents[i] + 1:
            raise ValueError(f"generator {i} is not homogeneous of degree {spec.exponents[i] + 1}")
        if apply_diff(g, target):
            raise ValueError(f"generator {i} does not annihilate the monomial")
        gens.append(g)
    return CIIdeal(spec=spec, phi=phi, generators=tuple(gens), tails=tails)


def canonicalize_phi(spec: MonomialSpec, phi: PhiTuple) -> PhiTuple:
    """Rewrite phi so that no term of any entry is divisible by a_j^(d_j+1).

    Each entry is replaced by its normal form modulo the generators, which
    rewrites every factor a_j^(d_j+1) as phi_j * a0^(d0+1): that subtracts
    a multiple of generator j from generator i, so the ideal is unchanged.
    A term of phi_i has degree d_i - d0, so only factors with j < i occur and
    the generator needed is always in the tuple.  The normal form is unique,
    so the result is idempotent on canonical input.
    """
    tails = generator_tails(spec, phi.entries)
    entries = [
        SparsePoly(spec.n + 1, DUAL, ci_normal_form(p.terms, spec.exponents, tails))
        for p in phi.entries
    ]
    return PhiTuple(spec, entries)


def dim_perp_cap_alpha0(spec: MonomialSpec, t: int) -> int:
    """dim of (annihilator)_t intersected with a0 * S_{t-1}, by monomial counting.

    The annihilator of the monomial is (a0^(d0+1), ..., an^(dn+1)), so its
    degree-t monomials in a0 * S_{t-1} are those with e_0 >= 1 and some
    e_i > d_i.  The same quantity computed on the model-ideal side,
    dim J_{t-1} - dim J_{t-d0-1} + dim S_{t-d0-1}, is checked to agree.
    """
    if t < 0:
        return 0
    n = spec.n
    d0 = spec.exponents[0]
    lhs = sum(
        1
        for e in exponents_of_degree(n + 1, t)
        if e[0] >= 1 and (e[0] > d0 or _exponent_in_J(spec, e))
    )

    def dim_J(s: int) -> int:
        return _dim_S(n, s) - hilbert_S_mod_J(spec, s) if s >= 0 else 0

    rhs = dim_J(t - 1) - dim_J(t - d0 - 1) + _dim_S(n, t - d0 - 1)
    if lhs != rhs:
        raise AssertionError(
            f"dim_perp_cap_alpha0 at t={t}: monomial count {lhs}, dimension identity {rhs}"
        )
    return lhs

"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Elements are stored as polynomials in z modulo the m-th cyclotomic polynomial
Phi_m, with z standing for zeta_m = exp(2*pi*i/m).  Working modulo Phi_m
(rather than modulo z^m - 1) makes the representation a field, so testing a
coefficient for zero is a sound way to certify polynomial identities.

A scalar keeps an integer coefficient vector over a single positive
denominator.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_divmod_exact(num: list[int], den: list[int]) -> list[int]:
    """Divide integer polynomials, requiring a monic divisor and zero remainder."""
    num = list(num)
    dd = len(den) - 1
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    quot = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        quot[i - dd] = c
        for j, dj in enumerate(den):
            num[i - dd + j] -= c * dj
    if any(num):
        raise ValueError("division is not exact")
    return quot


@dataclass(frozen=True)
class CyclotomicPolynomial:
    """The m-th cyclotomic polynomial Phi_m with integer coefficients.

    ``coeffs`` is dense, ascending; Phi_m is monic of degree phi(m), and the
    product of Phi_d over all divisors d of m is z^m - 1.
    """

    m: int
    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


@lru_cache(maxsize=256)
def _totient(m: int) -> int:
    """Euler's phi(m) for m >= 1, the degree of Phi_m, by trial division."""
    result = rest = m
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            result -= result // p
            while rest % p == 0:
                rest //= p
        p += 1
    return result - result // rest if rest > 1 else result


# The largest table of z^j mod Phi_m, phi(m) <= j < m, that a conductor m may need:
# (m - phi(m)) * phi(m) integers.  Conductor 3127 (53 * 59) needs 334,776 and the explicit
# decomposition of x*y^1000 (m = 1001) 202,320; m = 15015 (3*5*7*11*13) would need 53 million.
MAX_TABLE_ENTRIES = 10**6


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> CyclotomicPolynomial:
    """Compute Phi_m as (z^m - 1) / prod of Phi_d over proper divisors d of m.

    A conductor whose table of powers (``_reduction_rows``) would hold more than
    ``MAX_TABLE_ENTRIES`` integers is refused with a ValueError before either is built.

    >>> cyclotomic_poly(1).coeffs, cyclotomic_poly(2).coeffs
    ((-1, 1), (1, 1))
    >>> cyclotomic_poly(6).coeffs
    (1, -1, 1)
    """
    if m < 1:
        raise ValueError("conductor must be a positive integer")
    degree = _totient(m)
    entries = (m - degree) * degree
    if entries > MAX_TABLE_ENTRIES:
        raise ValueError(f"conductor {m} needs a table of {entries} powers of zeta_{m}, "
                         f"past the limit of {MAX_TABLE_ENTRIES}")
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            num = _poly_divmod_exact(num, list(cyclotomic_poly(d).coeffs))
    return CyclotomicPolynomial(m, tuple(num))


@lru_cache(maxsize=None)
def _reduction_rows(m: int) -> tuple[tuple[int, ...], ...]:
    """z^j mod Phi_m, as integer vectors of length deg(Phi_m), for deg <= j < m.

    Row index 0 corresponds to j = deg.  Since z^m = 1, these rows and the unit
    vectors below deg are every power of z.
    """
    phi = cyclotomic_poly(m).coeffs
    deg = len(phi) - 1
    rows = []
    cur = [-c for c in phi[:deg]]
    for _ in range(deg, m):
        rows.append(tuple(cur))
        lead = cur[-1]  # z * cur, less lead * Phi_m
        cur = [a - lead * b for a, b in zip([0] + cur[:-1], phi)]
    return tuple(rows)


def _reduce_mod_phi(m: int, vec) -> list[int]:
    """The polynomial sum_j vec[j] z^j modulo Phi_m: z^j is z^(j mod m), then a table row."""
    deg = cyclotomic_poly(m).degree
    if len(vec) <= deg:
        return list(vec) + [0] * (deg - len(vec))
    out = list(vec[:deg])
    rows = _reduction_rows(m)
    for j in range(deg, len(vec)):
        c = vec[j]
        if c:
            k = j % m
            if k < deg:
                out[k] += c
            else:
                row = rows[k - deg]
                for i in range(deg):
                    out[i] += c * row[i]
    return out


class CycloScalar:
    """An exact element of Q(zeta_m), reduced modulo Phi_m.

    Mixed-conductor arithmetic embeds both operands into Q(zeta_lcm) first,
    so values like zeta_6^2 and zeta_3 compare equal.  Arithmetic with floats
    is refused: exact identities must never silently degrade.
    """

    __slots__ = ("conductor", "num", "den")

    def __init__(self, conductor: int, num: tuple[int, ...], den: int = 1):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        vec = _reduce_mod_phi(conductor, num)
        if den < 0:
            den, vec = -den, [-c for c in vec]
        g = gcd(den, *vec) if any(vec) else den
        if g > 1:
            den //= g
            vec = [c // g for c in vec]
        if not any(vec):
            den = 1
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "num", tuple(vec))
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("CycloScalar is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(value: int | Fraction, conductor: int = 1) -> CycloScalar:
        q = Fraction(value)
        return CycloScalar(conductor, (q.numerator,), q.denominator)

    @staticmethod
    def one(conductor: int = 1) -> CycloScalar:
        return CycloScalar.from_rational(1, conductor)

    # -- views -------------------------------------------------------------

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def to_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    def __complex__(self) -> complex:
        try:
            value = self._power_sum(self.num) / self.den
            if cmath.isfinite(value):
                return value
        except OverflowError:
            pass
        # a coordinate or the denominator is beyond float range: divide each first
        return self._power_sum([c / self.den for c in self.num])

    def _power_sum(self, coords) -> complex:
        z = cmath.exp(2j * cmath.pi / self.conductor)
        total = 0j
        power = 1 + 0j
        for c in coords:
            if c:
                total += c * power
            power *= z
        return total

    def __bool__(self) -> bool:
        return any(self.num)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> tuple[CycloScalar, CycloScalar] | None:
        if isinstance(other, CycloScalar):
            if other.conductor == self.conductor:
                return self, other
            m = lcm(self.conductor, other.conductor)
            return embed(self, m), embed(other, m)
        if isinstance(other, (int, Fraction)):
            return self, CycloScalar.from_rational(other, self.conductor)
        return None

    def __add__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        den = lcm(a.den, b.den)
        fa, fb = den // a.den, den // b.den
        return CycloScalar(a.conductor, tuple(x * fa + y * fb for x, y in zip(a.num, b.num)), den)

    __radd__ = __add__

    def __neg__(self):
        return CycloScalar(self.conductor, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        return pair[0] + (-pair[1])

    def __rsub__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        return (-pair[0]) + pair[1]

    def __mul__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return CycloScalar(a.conductor, tuple(_poly_mul(list(a.num), list(b.num))), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> CycloScalar:
        """Multiplicative inverse by the norm, with no division in Q[z].

        The cofactor is the product of the other Galois conjugates sigma_k(x),
        z -> z^k for k prime to m and k != 1; x * cofactor is the norm of x, a
        nonzero rational, and the inverse is cofactor / norm.
        """
        if not self:
            raise ZeroDivisionError("inverse of zero")
        m = self.conductor
        cofactor = CycloScalar.one(m)
        for k in range(2, m):
            if gcd(k, m) == 1:
                image = [0] * m
                for j, c in enumerate(self.num):
                    image[j * k % m] += c
                cofactor = cofactor * CycloScalar(m, tuple(image), self.den)
        norm = (self * cofactor).to_fraction()
        return CycloScalar(m, tuple(c * norm.denominator for c in cofactor.num),
                           cofactor.den * norm.numerator)

    def __truediv__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        return pair[0] * pair[1].inverse()

    def __rtruediv__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        return pair[1] * pair[0].inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = CycloScalar.one(self.conductor)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __eq__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a.num == b.num and a.den == b.den

    def __str__(self) -> str:
        if self.is_rational():
            return str(self.to_fraction())
        parts = []
        for j, c in enumerate(self.num):
            if c == 0:
                continue
            mono = "1" if j == 0 else (f"z{self.conductor}" if j == 1 else f"z{self.conductor}^{j}")
            coeff = Fraction(c, self.den)
            if parts:
                sign = " - " if coeff < 0 else " + "
                coeff = abs(coeff)
            else:
                sign = "-" if coeff < 0 else ""
                coeff = abs(coeff)
            if j == 0:
                parts.append(f"{sign}{coeff}")
            elif coeff == 1:
                parts.append(f"{sign}{mono}")
            else:
                parts.append(f"{sign}{coeff}*{mono}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"CycloScalar({self.conductor}, {self.num}, {self.den})"


def root_of_unity(m: int, k: int) -> CycloScalar:
    """zeta_m^k as an element of Q(zeta_m), reduced modulo Phi_m.

    >>> root_of_unity(2, 1) == -1
    True
    >>> root_of_unity(3, 3) == 1
    True
    """
    if m < 1:
        raise ValueError("conductor must be a positive integer")
    k %= m
    deg = cyclotomic_poly(m).degree
    if k < deg:
        return CycloScalar(m, tuple(1 if i == k else 0 for i in range(deg)))
    return CycloScalar(m, _reduction_rows(m)[k - deg])


def embed(x: CycloScalar, conductor: int) -> CycloScalar:
    """Image of x under zeta_{m} -> zeta_{conductor}^(conductor/m).

    Requires the source conductor to divide the target; the map is a ring
    homomorphism and fixes rationals.
    """
    if conductor % x.conductor != 0:
        raise ValueError(f"conductor {x.conductor} does not divide {conductor}")
    if conductor == x.conductor:
        return x
    step = conductor // x.conductor
    vec = [0] * ((len(x.num) - 1) * step + 1)
    vec[::step] = x.num  # zeta_m^j is zeta_conductor^(j*step)
    return CycloScalar(conductor, tuple(vec), x.den)

"""Sparse multivariate polynomials over a pluggable scalar domain.

Two rings appear throughout the package: the "primal" ring of the target
polynomials (variables x0, x1, ...) and the "dual" ring of differential
operators (variables a0, a1, ...).  A dual polynomial D acts on a primal
polynomial F by letting a_i act as d/dx_i; the action is implemented without
normalizing factorials, so a_i^(e+1) kills x_i^e on the nose.

Exponents are plain tuples of non-negative integers, one entry per variable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import comb, factorial
from operator import neg

PRIMAL = "primal"
DUAL = "dual"

_VAR_PREFIX = {PRIMAL: "x", DUAL: "a"}

# a coefficient literal: an integer, a fraction, or a decimal with an optional exponent
_NUMBER = re.compile(r"[0-9]+(?:/[0-9]+|(?:\.[0-9]*)?(?:[eE][-+]?[0-9]+)?)")
# the "-" that starts a term and the "+" between terms: not the sign of a decimal
# exponent after "<digit>e" or "<digit>.e", as in 1e-300 or 2.e-3, and a "-" right
# after "+" already starts a term
_TERM_SIGN = re.compile(r"(?<!\d[eE])(?<!\d\.[eE])(?<!\+)-")
_TERM_PLUS = re.compile(r"(?<!\d[eE])(?<!\d\.[eE])\+")

Exponent = tuple[int, ...]


def grevlex_key(exponent: Exponent):
    """Sort key for graded reverse lexicographic order (larger key = larger monomial):
    the degree, then the negated exponents from the last variable to the first."""
    return (sum(exponent), tuple(map(neg, reversed(exponent))))


def _term_key(term: tuple[Exponent, object]):
    """``grevlex_key`` of a (exponent, coefficient) term."""
    exponent = term[0]
    return (sum(exponent), tuple(map(neg, reversed(exponent))))


@lru_cache(maxsize=256)
def exponents_of_degree(num_vars: int, degree: int) -> tuple[Exponent, ...]:
    """All exponent tuples of the given total degree, in descending grevlex order.

    Cached per (num_vars, degree); the result is a tuple, so no caller can
    alter what the next one gets.
    """
    if degree < 0:
        return ()
    out: list[Exponent] = []

    def rec(prefix: tuple[int, ...], remaining: int, slots: int):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), degree, num_vars)
    out.sort(key=grevlex_key, reverse=True)
    return tuple(out)


@lru_cache(maxsize=256)
def multinomial_weights(num_vars: int, degree: int) -> tuple[float, ...]:
    """The floats (degree; e) for e in ``exponents_of_degree``, cached alike."""
    return tuple(float(multinomial(degree, e)) for e in exponents_of_degree(num_vars, degree))


def multinomial(degree: int, parts: Exponent) -> int:
    """The multinomial coefficient degree! / (parts_0! * parts_1! * ...)."""
    if sum(parts) != degree:
        raise ValueError("parts must sum to the degree")
    result = 1
    remaining = degree
    for p in parts:
        result *= comb(remaining, p)
        remaining -= p
    return result


def evaluation_matrix(points, exponents):
    """Row j holds the monomials x^e, e in ``exponents``, evaluated at the j-th point.

    A sequence of points gives a list of rows.  Coordinates may be any scalars
    that multiply; a factor x_k^0 is left out, so an entry is exact unless it
    uses an inexact coordinate, and exact callers never load numpy.

    A 2-D numpy array, one row per point, gives a points x exponents array.
    Each coordinate gets one power table x_k^0, x_k^1, ... up to its largest
    exponent, built by repeated multiplication (so 0^0 = 1), and entry (j, e)
    is the product over k of the table entries at e_k.
    """
    if getattr(points, "ndim", None) == 2:
        return _evaluation_array(points, exponents)
    rows = []
    for p in points:
        row = []
        for e in exponents:
            v = 1
            for k, ek in enumerate(e):
                if ek:
                    v = v * p[k] ** ek
            row.append(v)
        rows.append(row)
    return rows


@lru_cache(maxsize=64)
def _exponent_table(exponents: tuple, num_vars: int):
    """The exponents as a read-only intp array, one row per variable, and its largest entry."""
    import numpy as np

    table = np.asarray(exponents, dtype=np.intp).reshape(len(exponents), num_vars).T
    table.flags.writeable = False
    return table, int(table.max(initial=0))


def _evaluation_array(points, exponents):
    """The array mode of ``evaluation_matrix``: points (m, k) -> values (m, len(exponents)).

    The exponent table is cached by the exponent tuple, so the verifier's
    ``exponents_of_degree`` and a quotient's chart exponents are converted once.
    """
    import numpy as np

    num_points, num_vars = points.shape
    dtype = np.result_type(points.dtype, np.float64)
    table, top = _exponent_table(tuple(exponents), num_vars)
    powers = np.empty((num_vars, top + 1, num_points), dtype=dtype)  # powers[k, t, j] = x_jk^t
    powers[:, 0] = 1
    for t in range(1, top + 1):
        powers[:, t] = powers[:, t - 1] * points.T
    out = np.ones((len(exponents), num_points), dtype=dtype)
    for k in range(num_vars):
        out *= powers[k].take(table[k], axis=0)
    return out.T


class SparsePoly:
    """A sparse polynomial: exponent tuples to nonzero scalars; only the constructor drops zeros."""

    __slots__ = ("num_vars", "ring", "terms")

    def __init__(self, num_vars: int, ring: str, terms: dict[Exponent, object] | None = None):
        if ring not in (PRIMAL, DUAL):
            raise ValueError(f"unknown ring tag {ring!r}")
        terms = terms or {}
        clean: dict[Exponent, object] = {}
        for exponent, coeff in terms.items():
            if len(exponent) != num_vars:
                raise ValueError("exponent length does not match the number of variables")
            if coeff:
                clean[tuple(exponent)] = coeff
        if min(chain.from_iterable(terms), default=0) < 0:  # of every term, a zero one too
            raise ValueError("negative exponent")
        self.num_vars = num_vars
        self.ring = ring
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(num_vars: int, ring: str, value) -> SparsePoly:
        return SparsePoly(num_vars, ring, {(0,) * num_vars: value})

    @staticmethod
    def monomial(num_vars: int, ring: str, exponent: Exponent, coeff=1) -> SparsePoly:
        return SparsePoly(num_vars, ring, {tuple(exponent): coeff})

    # -- structure ---------------------------------------------------------

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def sorted_terms(self) -> list[tuple[Exponent, object]]:
        return sorted(self.terms.items(), key=_term_key, reverse=True)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        if self.num_vars != other.num_vars or self.ring != other.ring:
            raise ValueError("polynomials live in different rings")
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return SparsePoly(self.num_vars, self.ring, terms)

    def __neg__(self):
        return SparsePoly(self.num_vars, self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        if self.num_vars != other.num_vars or self.ring != other.ring:
            raise ValueError("polynomials live in different rings")
        terms: dict[Exponent, object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return SparsePoly(self.num_vars, self.ring, terms)

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        if self.num_vars != other.num_vars or self.ring != other.ring:
            return False
        return self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __str__(self) -> str:
        return self.text(self.sorted_terms())

    def text(self, terms: list[tuple[Exponent, object]]) -> str:
        """The text of the polynomial; ``terms`` are its ``sorted_terms()``."""
        if not terms:
            return "0"
        prefix = _VAR_PREFIX[self.ring]
        out = ""
        for e, c in terms:
            body = "*".join([f"{prefix}{i}^{ei}" if ei > 1 else f"{prefix}{i}"
                             for i, ei in enumerate(e) if ei])
            cs = str(c)
            if body and ("+" in cs[1:] or "-" in cs[1:]):
                cs = f"({cs})"
            sign = " + "
            if cs.startswith("-"):
                sign = " - "
                cs = cs[1:]
            term = cs if not body else (body if cs == "1" else f"{cs}*{body}")
            if not out:
                out = term if sign == " + " else "-" + term
            else:
                out += sign + term
        return out

    def __repr__(self) -> str:
        return f"SparsePoly({self.num_vars}, {self.ring!r}, {self.terms!r})"


@dataclass(frozen=True)
class LinearForm:
    """A linear form given by its coefficient sequence (a_0, ..., a_n)."""

    coeffs: tuple

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @property
    def num_vars(self) -> int:
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)


def apply_diff(op: SparsePoly, target: SparsePoly) -> SparsePoly:
    """Apply a dual polynomial to a primal one, a_i acting as d/dx_i.

    On monomials, a^s applied to x^e gives (prod e_i!/(e_i - s_i)!) x^(e-s)
    when e >= s componentwise and 0 otherwise; the map is bilinear.
    """
    if op.ring != DUAL or target.ring != PRIMAL:
        raise ValueError("apply_diff expects a dual operator and a primal target")
    if op.num_vars != target.num_vars:
        raise ValueError("operator and target have different numbers of variables")
    terms: dict[Exponent, object] = {}
    for s, cs in op.terms.items():
        for e, ce in target.terms.items():
            if all(ei >= si for ei, si in zip(e, s)):
                scale = 1
                for ei, si in zip(e, s):
                    if si:
                        scale *= factorial(ei) // factorial(ei - si)
                out = tuple(ei - si for ei, si in zip(e, s))
                terms[out] = terms.get(out, 0) + scale * cs * ce
    return SparsePoly(op.num_vars, PRIMAL, terms)


def dehomogenize(poly: SparsePoly, var_index: int) -> SparsePoly:
    """Substitute 1 for the chosen variable of a homogeneous polynomial."""
    if not poly.is_homogeneous():
        raise ValueError("dehomogenize expects a homogeneous polynomial")
    if not 0 <= var_index < poly.num_vars:
        raise ValueError("variable index out of range")
    terms: dict[Exponent, object] = {}
    for e, c in poly.terms.items():
        out = tuple(0 if i == var_index else ei for i, ei in enumerate(e))
        terms[out] = terms.get(out, 0) + c
    return SparsePoly(poly.num_vars, poly.ring, terms)


def is_digits(text: str) -> bool:
    """True for a nonempty run of ASCII digits; ``str.isdigit`` also takes other scripts."""
    return text.isascii() and text.isdigit()


def split_power(factor: str, text: str) -> tuple[str, int]:
    """Split a factor "name^k" of ``text`` into (name, k); a bare name has power 1.

    A "^" with nothing after it is refused rather than read as power 1, and
    k must be ASCII digits: no sign, underscore or other script.  A "^" with
    nothing before it is refused too.
    """
    name, caret, exp_text = factor.partition("^")
    if caret and not exp_text:
        raise ValueError(f"missing exponent after '^' in {text!r}")
    if caret and not is_digits(exp_text):
        raise ValueError(f"invalid exponent {exp_text!r} in {text!r}")
    if caret and not name:
        raise ValueError(f"missing base before '^' in {text!r}")
    return name, int(exp_text) if exp_text else 1


def parse_poly(text: str, num_vars: int, ring: str) -> SparsePoly:
    """Parse "3/2*a1^2*a2 - a0" style input; variables are x0.../a0... by ring.

    The one-letter aliases x, y, z, w for x0..x3 (and a, b, c for a0..a2 in
    the dual ring) are accepted for convenience.  A coefficient whose value is
    integral is stored as an ``int``, any other as a ``Fraction``: a digit run
    is read by ``int``, only a "p/q" or decimal literal by ``Fraction``.
    """
    prefix = _VAR_PREFIX[ring]
    aliases = {"x": 0, "y": 1, "z": 2, "w": 3} if ring == PRIMAL else {"a": 0, "b": 1, "c": 2}
    # the plain names of the variables, read without further checks
    known = {f"{prefix}{i}": i for i in range(num_vars)}
    known.update((name, i) for name, i in aliases.items() if i < num_vars)
    cleaned = text.replace(" ", "")
    if not cleaned:
        raise ValueError("empty polynomial")
    cleaned = _TERM_SIGN.sub("+-", cleaned)
    if cleaned.startswith("+"):
        cleaned = cleaned[1:]
    terms: dict[Exponent, object] = {}
    for chunk in _TERM_PLUS.split(cleaned):
        if not chunk:
            raise ValueError(f"could not parse polynomial {text!r}")
        coeff = 1
        if chunk.startswith("-"):
            coeff = -1
            chunk = chunk[1:]
        exponent = [0] * num_vars
        for factor in chunk.split("*"):
            if not factor:
                raise ValueError(f"could not parse polynomial {text!r}")
            name, caret, digits = factor.partition("^")
            if not caret:
                power = 1
            elif name and is_digits(digits):  # "name^digits"; split_power words every error
                power = int(digits)
            else:
                name, power = split_power(factor, text)
            index = known.get(name)
            if index is None:
                if name[0].isdigit():
                    if is_digits(name):
                        value = int(name)
                    elif not _NUMBER.fullmatch(name):
                        raise ValueError(f"invalid number {name!r} in {text!r}")
                    else:
                        try:
                            value = Fraction(name)
                        except ZeroDivisionError:
                            raise ValueError(f"zero denominator in {name!r} of {text!r}") from None
                    coeff *= value ** power
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
    return SparsePoly(num_vars, ring,
                      {e: c.numerator if c.denominator == 1 else c for e, c in terms.items()})

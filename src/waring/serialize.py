"""JSON encoding and decoding for the package's value types.

Scalar records are polymorphic by shape: a rational value is the string "p/q"
(or "p" when the denominator is 1), an irrational cyclotomic value is
{"conductor": m, "coeffs": ["p/q", ...]}, and a float value is
{"re": ..., "im": ...}.  Polynomials are lists of {"exponent": [...],
"coeff": record} entries in descending grevlex order, which makes every
serialization byte-stable for equal inputs.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, lcm

from .cyclotomic import CycloScalar
from .ideals import CIIdeal, PhiTuple
from .monomials import Decomposition, MonomialSpec
from .polynomial import DUAL, LinearForm, SparsePoly
from .solver import PointSet


class DigitLimitError(OverflowError):
    """A scalar has an integer past the interpreter's limit on int-to-str conversion.

    Not a ValueError: the input was fine, the answer cannot be written.
    """


def _decimal(value: int, what: str) -> str:
    try:
        return str(value)
    except ValueError:  # past sys.get_int_max_str_digits(), which is left as it is
        digits = (abs(value).bit_length() - 1) * 3010299 // 10**7  # a lower bound
        while abs(value) >= 10**digits:
            digits += 1
        raise DigitLimitError(
            f"cannot write {what}: one of its integers has {digits} decimal digits, past "
            f"the limit of {sys.get_int_max_str_digits()} on int-to-str conversion"
        ) from None


def _ratio_text(num: int, den: int, what: str) -> str:
    """The record of num/den (den > 0) in lowest terms: "p/q", or "p" when q is 1."""
    g = gcd(num, den)
    if g == den:
        return _decimal(num // g, what)
    return f"{_decimal(num // g, what)}/{_decimal(den // g, what)}"


def scalar_to_json(value):
    if isinstance(value, bool):
        raise TypeError("booleans are not scalars")
    if isinstance(value, int):
        return _decimal(value, "rational scalar")
    if isinstance(value, Fraction):
        return _ratio_text(value.numerator, value.denominator, "rational scalar")
    if isinstance(value, CycloScalar):
        if not any(value.num[1:]):
            return _ratio_text(value.num[0], value.den, "rational scalar")
        what = f"cyclotomic scalar of conductor {value.conductor}"
        return {
            "conductor": value.conductor,
            "coeffs": [_ratio_text(c, value.den, what) for c in value.num],
        }
    if isinstance(value, (complex, float)):  # + 0.0 writes a -0.0 part as 0.0
        return {"re": value.real + 0.0, "im": value.imag + 0.0}
    raise TypeError(f"cannot serialize scalar {value!r}")


_JSON_TYPES = {dict: "object", list: "array", str: "string", bool: "boolean", int: "integer",
               float: "number", type(None): "null"}
_REQUIRED = object()


def _expect(value, kind: str, what: str):
    """``value`` if it is a JSON ``kind`` ("number" admits an integer), else a ValueError."""
    found = _JSON_TYPES.get(type(value), type(value).__name__)
    if found != kind and not (kind == "number" and found == "integer"):
        raise ValueError(f"{what} must be a JSON {kind}, got {found}")
    return value


def _field(data, name: str, kind: str | None, where: str, default=_REQUIRED):
    """``data[name]`` checked to be a JSON ``kind`` (None: any), or a ValueError naming the
    field.  An absent field, or a null one defaulting to None, reads as the default."""
    value = _expect(data, "object", where).get(name, default)
    if value is _REQUIRED:
        raise ValueError(f"{where} has no {name!r} field")
    if kind is None or value is default:
        return value
    return _expect(value, kind, f"{where} field {name!r}")


_RATIO = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")  # exactly what scalar_to_json writes


def _ratio(text, what: str) -> tuple[int, int]:
    """(p, q) of a "p/q" or "p" record; anything else, "1/0" too, is a ValueError."""
    match = _RATIO.fullmatch(_expect(text, "string", what))
    if match is None:
        raise ValueError(f"{what} {text!r} is not an integer or a ratio p/q of integers")
    try:
        num, den = int(match[1]), int(match[2] or 1)
    except ValueError as exc:  # more digits than int() converts
        raise ValueError(f"{what} {text[:20]!r}...: {exc}") from None
    if not den:
        raise ValueError(f"{what} {text!r} has a zero denominator")
    return num, den


def _float(obj, name: str, default=_REQUIRED) -> float:  # a JSON integer may overflow a float
    try:
        return float(_field(obj, name, "number", "float scalar", default))
    except OverflowError:
        raise ValueError(f"float scalar field {name!r} is beyond float range") from None


def scalar_from_json(obj):
    if isinstance(obj, str):
        return Fraction(*_ratio(obj, "rational scalar"))
    if isinstance(obj, dict) and "conductor" in obj:
        conductor = _field(obj, "conductor", "integer", "cyclotomic scalar")
        coeffs = [_ratio(c, "cyclotomic coefficient")
                  for c in _field(obj, "coeffs", "array", "cyclotomic scalar")]
        den = lcm(*(q for _, q in coeffs))
        return CycloScalar(conductor, tuple(p * (den // q) for p, q in coeffs), den)
    if isinstance(obj, dict) and "re" in obj:
        return complex(_float(obj, "re"), _float(obj, "im", 0.0))
    raise ValueError(f"not a scalar record: {obj!r}")


def poly_to_json(poly: SparsePoly) -> list:
    return [
        {"exponent": list(e), "coeff": scalar_to_json(c)} for e, c in poly.sorted_terms()
    ]


def poly_from_json(data: list, num_vars: int, ring: str) -> SparsePoly:
    terms = {}
    for entry in _expect(data, "array", "polynomial JSON"):
        exponent = tuple(_expect(e, "integer", "each exponent entry")
                         for e in _field(entry, "exponent", "array", "polynomial term"))
        terms[exponent] = scalar_from_json(_field(entry, "coeff", None, "polynomial term"))
    return SparsePoly(num_vars, ring, terms)


def spec_to_json(spec: MonomialSpec) -> dict:
    return {
        "monomial": str(spec),
        "original_exponents": list(spec.original_exponents),
        "sorted_exponents": list(spec.exponents),
        "degree": spec.degree,
        "rank": spec.rank,
        "conductor": spec.conductor,
    }


def decomposition_to_json(dec: Decomposition) -> dict:
    out = {
        "degree": dec.degree,
        "domain": dec.domain,
        "summands": [
            {
                "coeff": scalar_to_json(c),
                "form": [scalar_to_json(v) for v in form.coeffs],
            }
            for c, form in dec.summands
        ],
        "verified": dec.verified,
    }
    if dec.residual is not None:
        out["residual"] = dec.residual
    return out


def decomposition_from_json(data: dict) -> Decomposition:
    where = "decomposition JSON"
    summands = tuple(
        (
            scalar_from_json(_field(entry, "coeff", None, "summand")),
            LinearForm([scalar_from_json(v) for v in _field(entry, "form", "array", "summand")]),
        )
        for entry in _field(data, "summands", "array", where)
    )
    return Decomposition(
        degree=_field(data, "degree", "integer", where),
        domain=_field(data, "domain", "string", where),
        summands=summands,
        verified=_field(data, "verified", "string", where, "unverified"),
        residual=_field(data, "residual", "number", where, None),
    )


def phi_to_json(phi: PhiTuple) -> dict:
    return {
        "entries": [poly_to_json(p) for p in phi.entries],
        "canonical": phi.canonical,
    }


def phi_from_json(data, spec: MonomialSpec) -> PhiTuple:
    entries_data = _field(data, "entries", "array", "phi JSON") if isinstance(data, dict) else data
    entries = [poly_from_json(p, spec.n + 1, DUAL) for p in _expect(entries_data, "array", "phi")]
    return PhiTuple(spec, entries)


def ci_ideal_to_json(ideal: CIIdeal) -> dict:
    return {
        "spec": spec_to_json(ideal.spec),
        "phi": phi_to_json(ideal.phi),
        "k": ideal.k,
        "generators": [str(g) for g in ideal.generators],
        "generators_json": [poly_to_json(g) for g in ideal.generators],
    }


def pointset_to_json(points: PointSet) -> dict:
    out = {
        "points": [[scalar_to_json(c) for c in p] for p in points.points],
        "normalized": "alpha0=1",
        "multiplicity_free": True,  # a PointSet holds distinct points only
    }
    if points.tol is not None:
        out["tol"] = points.tol
    if points.residuals is not None:
        out["residuals"] = list(points.residuals)
    return out


def pointset_from_json(data: dict) -> PointSet:
    where = "point-set JSON"
    points = _field(data, "points", "array", where)
    residuals = _field(data, "residuals", "array", where, None)
    _field(data, "multiplicity_free", "boolean", where, True)  # written for the schema only
    return PointSet(
        points=tuple(tuple(scalar_from_json(c) for c in _expect(p, "array", "each point"))
                     for p in points),
        tol=_field(data, "tol", "number", where, None),
        residuals=tuple(residuals) if residuals is not None else None,
    )

"""JSON encoding and decoding for the package's value types.

Scalar records are polymorphic by shape: a rational value is the string "p/q"
(or "p" when the denominator is 1), an irrational cyclotomic value is
{"conductor": m, "coeffs": ["p/q", ...]} with phi(m) coefficients, and a
float value is {"re": ..., "im": ...}.  Polynomials are lists of
{"exponent": [...], "coeff": record} entries in descending grevlex order,
which makes every serialization byte-stable for equal inputs.  A list of
records of one shape (the terms of a polynomial, the summands of a
decomposition, the points of a point set held as an array) is handed on as
one ``Records``: the shape once and the values of each record, which
``cli._json_text`` writes from one template; ``plain`` gives the lists.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .cyclotomic import CycloScalar, _totient
from .ideals import CIIdeal, PhiTuple
from .monomials import Decomposition, MonomialSpec
from .polynomial import LinearForm, SparsePoly
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


def scalar_to_json(value, ratio_text=_ratio_text):
    """The record of a scalar; ``ratio_text`` writes its "p/q" texts, as ``_ratio_text`` does."""
    if isinstance(value, bool):
        raise TypeError("booleans are not scalars")
    if isinstance(value, int):
        return _decimal(value, "rational scalar")
    if isinstance(value, Fraction):
        return ratio_text(value.numerator, value.denominator, "rational scalar")
    if isinstance(value, CycloScalar):
        if value.is_rational():
            return ratio_text(value.num[0], value.den, "rational scalar")
        what = f"cyclotomic scalar of conductor {value.conductor}"
        return {
            "conductor": value.conductor,
            "coeffs": [ratio_text(c, value.den, what) for c in value.num],
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


def scalar_from_json(obj, ratio=_ratio):
    """The scalar of a record; ``ratio`` reads its "p/q" texts, as ``_ratio`` does."""
    if isinstance(obj, str):
        return Fraction(*ratio(obj, "rational scalar"))
    if isinstance(obj, dict) and "conductor" in obj:
        conductor = _field(obj, "conductor", "integer", "cyclotomic scalar")
        coeffs = [ratio(c, "cyclotomic coefficient")
                  for c in _field(obj, "coeffs", "array", "cyclotomic scalar")]
        if conductor < 1:
            raise ValueError("conductor must be a positive integer")
        # phi(m) >= sqrt(m/2), so a conductor above 2*len^2 is refused before phi(m) is taken
        if conductor > 2 * len(coeffs) ** 2 or _totient(conductor) != len(coeffs):
            raise ValueError(f"cyclotomic scalar of conductor {conductor} needs phi({conductor}) "
                             f"coefficients, got {len(coeffs)}")
        den = lcm(*{q for _, q in coeffs})  # each distinct denominator once
        return CycloScalar(conductor, [p if q == den else p * (den // q) for p, q in coeffs], den)
    if isinstance(obj, dict) and "re" in obj:
        return complex(_float(obj, "re"), _float(obj, "im", 0.0))
    raise ValueError(f"not a scalar record: {obj!r}")


# a hole of ``Records.shape``: a string no record holds, so ``cli._json_text`` can find it
HOLE = "\x00"
_COMPLEX_RECORD = {"re": HOLE, "im": HOLE}  # scalar_to_json of a complex; sorted, im comes first


@dataclass(frozen=True, eq=False)
class Records:
    """A JSON list of records of one shape that differ only in the values at its holes.

    ``shape`` is one record with ``HOLE`` wherever a value goes, and row j of
    ``rows`` holds the values of record j in the order ``json.dumps(sort_keys=True)``
    meets the holes.  ``rows`` is a records x holes float array, or a list of
    tuples whose values are str, int or float scalars or records, such as the
    shared cyclotomic records of ``_shared_writer``.  ``cli._json_text`` writes
    the list in one pass from one template; ``records`` builds it.
    """

    shape: object
    rows: object

    def records(self) -> list:
        """The list of records, each value passed through ``plain``."""
        def fill(shape, values):
            if shape is HOLE:
                return plain(next(values))
            if isinstance(shape, dict):  # filled in sorted order, kept in the shape's order
                filled = {key: fill(shape[key], values) for key in sorted(shape)}
                return {key: filled[key] for key in shape}
            if isinstance(shape, (list, tuple)):
                return [fill(item, values) for item in shape]
            return shape

        rows = self.rows if type(self.rows) is list else self.rows.tolist()
        return [fill(self.shape, iter(row)) for row in rows]


def plain(value):
    """``value`` with every ``Records`` in it, at any depth, replaced by its records."""
    if type(value) is Records:
        return value.records()
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    return value


@lru_cache(maxsize=64)
def _term_shape(num_vars: int) -> dict:
    """The shape of a term record; shared, so ``cli._json_text`` writes it once per depth."""
    return {"exponent": [HOLE] * num_vars, "coeff": HOLE}


def poly_to_json(poly: SparsePoly, terms: list | None = None) -> Records | list:
    """The term records of ``poly`` in descending grevlex order, as one ``Records`` whose
    rows are (coefficient record, *exponent); the zero polynomial is ``[]``.  ``terms``
    are ``poly.sorted_terms()`` when the caller has them already."""
    if not poly.terms:
        return []
    return Records(_term_shape(poly.num_vars), [(scalar_to_json(c), *e) for e, c in
                                                terms or poly.sorted_terms()])


def spec_to_json(spec: MonomialSpec) -> dict:
    return {
        "monomial": str(spec),
        "original_exponents": list(spec.original_exponents),
        "sorted_exponents": list(spec.exponents),
        "degree": spec.degree,
        "rank": spec.rank,
        "conductor": spec.conductor,
    }


def _shared_writer():
    """``scalar_to_json`` that writes each distinct cyclotomic scalar once per writer.

    Equal scalars, keyed by (conductor, num, den), get the same record object, so the
    caller must never mutate a record it is given.  The text of each coordinate is kept
    by (numerator, denominator) too: the records of one decomposition share a handful of
    distinct coordinates, so most of them are a dict lookup, not a gcd and a conversion.
    """
    records, texts = {}, {}

    def coordinate_text(num: int, den: int, what: str) -> str:
        text = texts.get((num, den))
        if text is None:
            text = texts[num, den] = _ratio_text(num, den, what)
        return text

    def write(value):
        if type(value) is not CycloScalar:
            return scalar_to_json(value)
        key = (value.conductor, value.num, value.den)
        record = records.get(key)
        if record is None:
            record = records[key] = scalar_to_json(value, coordinate_text)
        return record

    return write


def _shared_reader():
    """``scalar_from_json`` that reads each distinct rational or cyclotomic record once per reader.

    The key is the text of a rational record, or (conductor, coefficient strings) of a
    cyclotomic one; equal records give the same immutable scalar.  Each distinct "p/q"
    text is parsed once too, since different cyclotomic records share most of theirs.
    Only a record or text that was accepted is kept, so every other one, an unhashable
    one too, takes its path and meets its errors in the same order.
    """
    scalars, ratios = {}, {}

    def ratio(text, what):
        if type(text) is not str:
            return _ratio(text, what)
        value = ratios.get(text)
        if value is None:
            value = ratios[text] = _ratio(text, what)
        return value

    def read(obj):
        if type(obj) is str:
            key = obj
        elif (type(obj) is dict and type(obj.get("conductor")) is int
              and type(obj.get("coeffs")) is list):
            key = (obj["conductor"], tuple(obj["coeffs"]))
        else:
            return scalar_from_json(obj, ratio)
        try:
            return scalars[key]
        except KeyError:
            value = scalars[key] = scalar_from_json(obj, ratio)
            return value
        except TypeError:  # a coefficient that cannot be hashed: not a valid record
            return scalar_from_json(obj, ratio)

    return read


def _complex_records(shape, columns) -> Records:
    """Records of ``shape`` whose complex records take, in turn, the columns of ``columns``
    (records x columns, complex): the holes in pairs (im, re), -0.0 written 0.0."""
    import numpy as np

    numbers = np.empty(columns.shape + (2,))
    numbers[..., 0], numbers[..., 1] = columns.imag, columns.real
    numbers += 0.0  # the + 0.0 of scalar_to_json
    return Records(shape, numbers.reshape(len(columns), 2 * columns.shape[1]))


def decomposition_to_json(dec: Decomposition) -> dict:
    """The decomposition record, its summands one ``Records``.

    A float decomposition held as arrays gives them as a float array, each form entry
    a complex record or the "0" of a variable of exponent 0; one built from summands
    gives rows (coefficient record, *form records), equal scalars sharing one record.
    Forms of different lengths have no common shape: a ValueError names the first
    summand whose form differs from the first one's.
    """
    if dec.forms is not None:
        import numpy as np

        zero = dec.zero_columns
        kept = [k for k in range(dec.forms.shape[1]) if k not in zero]
        shape = {"coeff": _COMPLEX_RECORD,
                 "form": [scalar_to_json(0) if k in zero else _COMPLEX_RECORD
                          for k in range(dec.forms.shape[1])]}
        summands = _complex_records(shape, np.column_stack((dec.coeffs, dec.forms[:, kept])))
    else:
        write = _shared_writer()
        width = len(dec.summands[0][1].coeffs) if dec.summands else 0
        rows = []
        for j, (c, form) in enumerate(dec.summands):
            if len(form.coeffs) != width:
                raise ValueError(f"summand {j} has a form of {len(form.coeffs)} coordinates, "
                                 f"summand 0 one of {width}")
            rows.append((write(c), *map(write, form.coeffs)))
        summands = Records({"coeff": HOLE, "form": [HOLE] * width}, rows)
    out = {
        "degree": dec.degree,
        "domain": dec.domain,
        "summands": summands,
        "verified": dec.verified,
    }
    if dec.residual is not None:
        out["residual"] = dec.residual
    return out


def decomposition_from_json(data: dict) -> Decomposition:
    where = "decomposition JSON"
    read = _shared_reader()
    summands = tuple(
        (
            read(_field(entry, "coeff", None, "summand")),
            LinearForm([read(v) for v in _field(entry, "form", "array", "summand")]),
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


def ci_ideal_to_json(ideal: CIIdeal) -> dict:
    terms = [(g, g.sorted_terms()) for g in ideal.generators]  # one sort for text and records
    return {
        "spec": spec_to_json(ideal.spec),
        "phi": phi_to_json(ideal.phi),
        "k": ideal.k,
        "generators": [g.text(t) for g, t in terms],
        "generators_json": [poly_to_json(g, t) for g, t in terms],
    }


def pointset_to_json(points: PointSet) -> dict:
    """The point-set record; a set held as an array gives its points as one ``Records``."""
    if points.coords is not None:
        records = _complex_records([_COMPLEX_RECORD] * points.coords.shape[1], points.coords)
    else:
        records = [[scalar_to_json(c) for c in p] for p in points.points]
    out = {
        "points": records,
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

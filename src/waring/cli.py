"""Command-line front end.

Every subcommand takes a monomial ("x^2*y^2*z^3", "x0^2*x1^2*x2^3", or an exponent
list "2,2,3"), which ``main`` parses once and hands to the command as a
``MonomialSpec``, and writes JSON by default (``--format text`` for a human-readable
rendering).  Exit codes: 0 on success, 1 on a mathematical failure (for example a
non-radical phi where a radical one is required), 2 on usage or parse errors, among
them an option the command would ignore; a failure or usage error prints
``{"error": ...}``.  141 (128 + SIGPIPE, what a shell reports for a program killed by
a closed pipe) when the reader of standard output closes it early, as ``| head -1``
does, with nothing on standard error.  Randomized subcommands require a seed, either
via --seed or the WARING_SEED environment variable, and are reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from itertools import chain, cycle
from json.encoder import encode_basestring_ascii as _quote
from math import comb, isfinite

from . import serialize
from .ideals import (
    PhiTuple,
    canonicalize_phi,
    dim_perp_cap_alpha0,
    dim_vsp,
    explicit_phi,
    hilbert_S_mod_J,
    make_ci_ideal,
)
from .linalg import LinearSolveError
from .monomials import (
    EXACT_CYCLOTOMIC,
    MonomialSpec,
    explicit_decomposition,
    multinomial_C,
    rank_lower_bound,
    verify_decomposition,
    waring_rank,
)
from .polynomial import DUAL, is_digits, parse_poly
from .solver import (
    NonRadicalIdealError,
    PointExtractionError,
    build_quotient,
    certify_radical,
    extract_points,
    ideal_membership,
)
from .vsp import (
    apply_torus,
    decompose_from_phi,
    fit_phi_from_points,
    parameter_space,
    point_ideal_hilbert,
    sample_decompositions,
    sample_phi,
    torus_normalize,
)


class MathFailure(Exception):
    """A well-posed computation with a negative outcome that the command treats as failure."""


def _parse_phi(spec: MonomialSpec, phi_args: list[str] | None) -> PhiTuple:
    if not phi_args:
        return explicit_phi(spec)
    if len(phi_args) != spec.n:
        raise ValueError(f"expected {spec.n} phi entries, got {len(phi_args)}")
    entries = [parse_poly(text, spec.n + 1, DUAL) for text in phi_args]
    return PhiTuple(spec, entries)


# a decimal literal as in a phi coefficient: no sign, underscore, space, nan, inf or other script
_DECIMAL = re.compile(r"[0-9]+(?:\.[0-9]*)?(?:[eE][-+]?[0-9]+)?")


def _whole(text: str, name: str, least: int = 0) -> int:
    """The integer written ``text`` in ASCII digits, at least ``least``; ``name`` is its source."""
    if not is_digits(text) or int(text) < least:
        raise ValueError(f"{name} must be a whole number of at least {least} "
                         f"in ASCII digits, got {text!r}")
    return int(text)


def _check_limits(args) -> None:
    """Read --tol, --seed, --count and --t-max, left as text by argparse, from ASCII digits.

    An option the command would ignore is refused; --tol then defaults to 1e-8, except
    in verify, which leaves the default to ``verify_decomposition``.
    """
    if getattr(args, "tol", None) is not None:
        if not _DECIMAL.fullmatch(args.tol):
            raise ValueError(f"--tol must be a non-negative decimal number, got {args.tol!r}")
        if not isfinite(float(args.tol)):  # past float range, as "1e400"
            raise ValueError(f"--tol must be a finite decimal number, got {args.tol!r}")
        args.tol = float(args.tol)
    for dest, option, least in (("seed", "--seed", 0), ("count", "--count", 1),
                                ("t_max", "--t-max", 0)):
        if getattr(args, dest, None) is not None:
            setattr(args, dest, _whole(getattr(args, dest), option, least))
    if getattr(args, "exact", False):
        given = [option for option in ("--phi", "--seed", "--tol")
                 if getattr(args, option[2:]) is not None]
        if given:
            raise ValueError(f"decompose --exact takes no {', '.join(given)}: the explicit "
                             "decomposition has no phi, seed or tolerance")
    if args.command == "normalize" and args.tol is not None and _seed(args) is None:
        raise ValueError("normalize reads --tol only to extract points, which takes --seed "
                         "or WARING_SEED")
    if hasattr(args, "tol") and args.tol is None and args.command != "verify":
        args.tol = 1e-8


def _seed(args, required: bool = False) -> int | None:
    """--seed, else the WARING_SEED variable, else None (a usage error if ``required``)."""
    if args.seed is not None:
        return args.seed
    env = os.environ.get("WARING_SEED")
    if env is not None:
        return _whole(env, "WARING_SEED")
    if required:
        raise ValueError("this command is randomized; pass --seed or set WARING_SEED")
    return None


def cmd_rank(spec: MonomialSpec, args) -> dict:
    return {"monomial": str(spec), "rank": waring_rank(spec)}


def cmd_bounds(spec: MonomialSpec, args) -> dict:
    return {
        "monomial": str(spec),
        "lower_bound": rank_lower_bound(spec),
        "rank": waring_rank(spec),
        "upper_bound": waring_rank(spec),
        "normalizing_constant": serialize.scalar_to_json(multinomial_C(spec)),
    }


def cmd_decompose(spec: MonomialSpec, args) -> dict:
    seed = None if args.exact else _seed(args, required=bool(args.phi))
    if seed is None:
        dec = explicit_decomposition(spec)
        report = verify_decomposition(spec, dec)
        if not report.ok:
            raise MathFailure(f"exact decomposition failed verification: {report}")
        dec.verified = "exact"
    else:
        if args.phi:
            phi = _parse_phi(spec, args.phi)
        else:
            phi = sample_phi(parameter_space(spec), seed)
        dec = decompose_from_phi(spec, phi, tol=args.tol, seed=seed)
    out = serialize.decomposition_to_json(dec)
    out["monomial"] = str(spec)
    return out


def _load_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:  # not JSON, not text, or nested too deeply
        raise ValueError(f"cannot read JSON from {'standard input' if path == '-' else path}: "
                         f"{exc}") from None


def cmd_verify(spec: MonomialSpec, args) -> dict:
    data = _load_json(args.input)
    dec = serialize.decomposition_from_json(data)
    given = {} if args.tol is None else {"tol": args.tol}
    if given and dec.domain == EXACT_CYCLOTOMIC:
        raise ValueError("verify takes no --tol on an exact-cyclotomic decomposition: "
                         "its expansion must cancel exactly")
    report = verify_decomposition(spec, dec, **given)
    if not report.ok:
        raise MathFailure(str(report))
    return {
        "monomial": str(spec),
        "verified": report.mode,
        "max_error": report.max_error,
    }


def cmd_hilbert(spec: MonomialSpec, args) -> dict:
    t_max = args.t_max if args.t_max is not None else spec.degree + 2
    table = {str(t): hilbert_S_mod_J(spec, t) for t in range(t_max + 1)}
    return {
        "monomial": str(spec),
        "hilbert_S_mod_J": table,
        "stable_value": spec.rank,
    }


def cmd_vsp_dim(spec: MonomialSpec, args) -> dict:
    return {"monomial": str(spec), "dim_vsp": dim_vsp(spec)}


def cmd_ideal(spec: MonomialSpec, args) -> dict:
    phi = _parse_phi(spec, args.phi)
    if args.canonicalize:
        phi = canonicalize_phi(spec, phi)
    ideal = make_ci_ideal(spec, phi)
    out = serialize.ci_ideal_to_json(ideal)
    if args.member:
        poly = parse_poly(args.member, spec.n + 1, DUAL)
        out["member"] = {"poly": str(poly), "in_ideal": ideal_membership(poly, ideal)}
    return out


def cmd_radical(spec: MonomialSpec, args) -> dict:
    phi = _parse_phi(spec, args.phi)
    certificate = certify_radical(spec, phi)
    out = {
        "monomial": str(spec),
        "phi": serialize.phi_to_json(phi),
        "radical": certificate.radical,
        "trace_rank": certificate.trace_rank,
        "dimension": spec.rank,
    }
    if certificate.quotient is None:
        out["note"] = "a zero phi entry forces a non-reduced point"
    return out


def cmd_points(spec: MonomialSpec, args) -> dict:
    phi = _parse_phi(spec, args.phi)
    seed = _seed(args, required=True)
    certificate = certify_radical(spec, phi)
    if not certificate.radical:
        raise MathFailure("the ideal is not radical; points would not be reduced")
    points = extract_points(certificate.quotient, tol=args.tol, seed=seed)
    out = serialize.pointset_to_json(points)
    out["monomial"] = str(spec)
    # at a0 = 0 the generators read a_i^(d_i+1) = 0: no point of I(n, phi) has a0 = 0
    out["alpha0_nonzero"] = True
    return out


def cmd_fit_phi(spec: MonomialSpec, args) -> dict:
    data = _load_json(args.points)
    points = serialize.pointset_from_json(data)
    try:  # points the fit refuses are bad input (ValueError, exit 2)
        phi = fit_phi_from_points(spec, points)
    except LinearSolveError as exc:  # no phi fits, or many
        raise MathFailure(str(exc)) from None
    return {"monomial": str(spec), "phi": serialize.phi_to_json(phi)}


def cmd_normalize(spec: MonomialSpec, args) -> dict:
    phi = _parse_phi(spec, args.phi)
    try:
        torus, ones = torus_normalize(spec, phi)
    except ValueError as exc:  # NonRadicalIdealError too
        raise MathFailure(str(exc)) from None
    out = {
        "monomial": str(spec),
        "lambda": [serialize.scalar_to_json(v) for v in torus.lam],
        "phi_normalized": serialize.phi_to_json(ones),
    }
    seed = _seed(args)
    if seed is not None:
        # certified all the same: torus_normalize found every phi_i a nonzero constant
        q = build_quotient(spec, phi)
        points = extract_points(q, tol=args.tol, seed=seed)
        moved = apply_torus(torus, points)
        k = spec.exponents[0]
        residual = max(
            (abs(p[i] ** (k + 1) - 1) for p in moved.points for i in range(1, spec.n + 1)),
            default=0.0,  # n = 0: no a_i to normalize
        )
        out["canonical_residual"] = residual
    return out


def cmd_sample(spec: MonomialSpec, args) -> dict:
    seed = _seed(args, required=True)
    reports = sample_decompositions(spec, seed, args.count, tol=args.tol)
    return {
        "spec": serialize.spec_to_json(spec),
        "samples": [
            {
                "seed": r.seed,
                "phi": serialize.phi_to_json(r.phi),
                "radical": r.radical,
                "verified": r.verified,
                "residual": r.residual,
            }
            for r in reports
        ],
        "radical_fraction": sum(r.radical for r in reports) / len(reports),  # --count >= 1
    }


def cmd_diagnose(spec: MonomialSpec, args) -> dict:
    seed = _seed(args)
    if args.phi:
        phi = _parse_phi(spec, args.phi)
    elif seed is not None:
        phi = sample_phi(parameter_space(spec), seed)
    else:
        phi = explicit_phi(spec)
    certificate = certify_radical(spec, phi)
    if not certificate.radical:
        raise MathFailure("the ideal is not radical; diagnostics need reduced points")
    points = extract_points(certificate.quotient, tol=args.tol, seed=seed or 0)
    t_max = args.t_max if args.t_max is not None else spec.degree + 2
    rows, dim_I = [], 0  # dim I_(t-1), 0 before degree 0
    for t in range(t_max + 1):
        h_model = hilbert_S_mod_J(spec, t)
        h_points = point_ideal_hilbert(points, t)  # dim (S/I)_t; dim I_t is the rest of S_t
        # q_t = dim(I_t cap a0*S_(t-1)): every extracted point has a0 = 1, so the a0-divisible
        # block of the degree-t matrix is the degree t-1 matrix and q_t = dim I_(t-1)
        q_t, dim_I = dim_I, comb(t + spec.n, spec.n) - h_points
        rows.append(
            {
                "t": t,
                "hilbert_model": h_model,
                "hilbert_points": h_points,
                "agree": h_model == h_points,
                "dim_I_t": dim_I,
                "q_t": q_t,
                "perp_cap_alpha0": dim_perp_cap_alpha0(spec, t),
            }
        )
    return {
        "monomial": str(spec),
        "phi": serialize.phi_to_json(phi),
        "table": rows,
        "all_agree": all(r["agree"] for r in rows),
    }


def _holds_record(value) -> bool:
    """Whether ``value`` is a record or a list that holds one, at any depth."""
    return isinstance(value, dict) or isinstance(value, list) and any(map(_holds_record, value))


def _render_items(items: list, indent: int) -> list[str]:
    """The lines of a list that holds records: item by item, a "-" line between items."""
    pad = "  " * indent
    lines = []
    for item in items:
        if isinstance(item, dict):
            lines.append(_render_text(item, indent + 1))
        elif _holds_record(item):  # a list of records, such as a point's coordinates
            lines.extend(_render_items(item, indent + 1))
        else:
            lines.append(f"{pad}  {item}")
        lines.append(pad + "  -")
    lines.pop()
    return lines


def _render_text(payload: dict, indent: int = 0) -> str:
    """The text rendering of a payload of plain values (``serialize.plain``)."""
    lines = []
    pad = "  " * indent
    for key, value in payload.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_text(value, indent + 1))
        elif isinstance(value, list) and _holds_record(value):
            lines.append(f"{pad}{key}:")  # records, lists of them and scalars, item by item
            lines.extend(_render_items(value, indent))
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)


def _float_text(value: float) -> str:
    if isfinite(value):
        return float.__repr__(value)
    return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"


# the text json.dumps writes for a scalar, by its exact type
_SCALAR_TEXT = {str: _quote, int: int.__repr__, float: _float_text,
                bool: lambda value: "true" if value else "false", type(None): lambda _: "null"}


def _json_text(payload) -> str:
    """``json.dumps(serialize.plain(payload), sort_keys=True, indent=2)``, byte for byte.

    With ``indent`` set the stdlib runs its pure-Python encoder.  This writer joins
    strings, and writes a container once when the same object comes up again at the
    same depth (the shared scalar records of ``serialize``).  A ``serialize.Records``
    is written as the list of its records: its shape once, as a template with one
    ``%s`` per hole, filled by the JSON text of each value: ``float.__repr__`` over a
    float array (``_float_text`` when a number is not finite), the scalar text of a
    str, int or float, and ``write`` at the hole's depth for any other value, so a
    shared record is still written once per depth.  A value that is not JSON raises
    TypeError, as in ``json.dumps``; a cycle, which no payload has, recurses until
    RecursionError instead of raising ValueError.
    """
    written: dict[tuple[int, int], str] = {}  # (id, depth) -> text; the payload keeps ids live
    # (id of a shape, depth) -> its template and the depth of each hole
    templates: dict[tuple[int, int], tuple[str, list[int]]] = {}
    exact = _SCALAR_TEXT.get
    hole = _quote(serialize.HOLE)

    def scalar(value) -> str | None:  # subclasses of str, int and float too, as json.dumps does
        kind = type(value) if type(value) in _SCALAR_TEXT else next(
            (k for k in (str, int, float) if isinstance(value, k)), None)
        return _SCALAR_TEXT[kind](value) if kind else None

    def key_text(key) -> str:
        if isinstance(key, str):
            return _quote(key)
        text = scalar(key)  # json.dumps writes a scalar key as a string
        if text is None:
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {type(key).__name__}")
        return f'"{text}"'

    def write(value, depth: int) -> str:
        memo = (id(value), depth)
        if memo in written:
            return written[memo]
        depth += 1  # of the items; one of an exact scalar type is written without a call
        if isinstance(value, (list, tuple)):
            ends = "[]"
            parts = [text(item) if (text := exact(type(item))) else write(item, depth)
                     for item in value]
        elif isinstance(value, dict):
            ends = "{}"
            parts = [f"{key_text(key)}: "
                     f"{text(item) if (text := exact(type(item))) else write(item, depth)}"
                     for key, item in sorted(value.items())]
        elif type(value) is serialize.Records:
            written[memo] = text = records(value, depth)
            return text
        else:
            text = scalar(value)
            if text is None:
                raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
            return text
        if not parts:
            return ends
        inner = "\n" + "  " * depth
        text = written[memo] = (f"{ends[0]}{inner}{(',' + inner).join(parts)}"
                                f"\n{'  ' * (depth - 1)}{ends[1]}")
        return text

    def hole_depths(shape, depth: int) -> list[int]:  # the depth write() gives each hole
        if shape is serialize.HOLE:
            return [depth]
        if isinstance(shape, dict):
            shape = [shape[key] for key in sorted(shape)]
        elif not isinstance(shape, (list, tuple)):
            return []
        return [d for item in shape for d in hole_depths(item, depth + 1)]

    def records(value, depth: int) -> str:  # the list of records, its items at depth
        rows = value.rows
        if not len(rows):
            return "[]"
        memo = (id(value.shape), depth)
        if memo not in templates:
            templates[memo] = (write(value.shape, depth).replace("%", "%%").replace(hole, "%s"),
                               hole_depths(value.shape, depth))
        template, depths = templates[memo]
        if type(rows) is list:
            texts = [text(item) if (text := exact(type(item))) else write(item, d)
                     for item, d in zip(chain.from_iterable(rows), cycle(depths))]
        else:
            text = float.__repr__ if isfinite(abs(rows).max(initial=0.0)) else _float_text
            texts = map(text, rows.ravel().tolist())
        inner = "\n" + "  " * depth
        return (f"[{inner}{(',' + inner).join([template] * len(rows))}\n{'  ' * (depth - 1)}]"
                % tuple(texts))

    return write(payload, 0)


class _Parser(argparse.ArgumentParser):
    """Raises its errors (an unknown option, a missing argument) as ValueError: exit 2 in JSON."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="waring",
        description="Exact Waring ranks and decompositions of monomials.",
    )
    parser.add_argument("--format", choices=["json", "text"], default="json")
    sub = parser.add_subparsers(dest="command", required=True)
    shared = {
        "--phi": {"action": "append", "help": "phi entry (repeat per entry)"},
        # numbers stay text here; _check_limits reads them
        "--seed": {},
        "--tol": {},
        "--t-max": {"dest": "t_max"},
    }

    def add(name, fn, summary, *options):
        p = sub.add_parser(name, help=summary)
        p.add_argument("monomial", help="monomial, e.g. \"x^2*y^2*z^3\" or \"2,2,3\"")
        p.set_defaults(fn=fn)
        for option in options:
            p.add_argument(option, **shared[option])
        return p

    add("rank", cmd_rank, "Waring rank of the monomial")
    add("bounds", cmd_bounds, "rank with its lower/upper bounds")
    add("decompose", cmd_decompose, "compute a decomposition", "--phi", "--seed", "--tol"
        ).add_argument("--exact", action="store_true", help="the explicit exact decomposition")
    add("verify", cmd_verify, "verify a decomposition JSON file", "--tol"
        ).add_argument("--input", required=True, help="decomposition JSON path or -")
    add("hilbert", cmd_hilbert, "Hilbert function of the model quotient", "--t-max")
    add("vsp-dim", cmd_vsp_dim, "dimension of the space of decompositions")
    p = add("ideal", cmd_ideal, "the complete intersection ideal of a phi tuple", "--phi")
    p.add_argument("--canonicalize", action="store_true")
    p.add_argument("--member", help="test a dual polynomial for membership")
    add("radical", cmd_radical, "exact radicality certificate", "--phi")
    add("points", cmd_points, "extract the decomposition points", "--phi", "--seed", "--tol")
    add("fit-phi", cmd_fit_phi, "recover phi from a point-set JSON"
        ).add_argument("--points", required=True, help="point-set JSON path or -")
    add("normalize", cmd_normalize, "torus normalization (equal exponents)",
        "--phi", "--seed", "--tol")
    add("sample", cmd_sample, "sample random phi tuples and decompose", "--seed", "--tol"
        ).add_argument("--count", default="1")
    add("diagnose", cmd_diagnose, "Hilbert-function and q_t diagnostics",
        "--phi", "--seed", "--tol", "--t-max")

    return parser


# options whose value is a polynomial, which may start with "-"
_POLY_OPTIONS = ("--phi", "--member")


def _attach_poly_values(argv: list[str]) -> list[str]:
    """Rewrite "--phi -5*a1^2" as "--phi=-5*a1^2": argparse reads "-5*a1^2" as an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _POLY_OPTIONS and arg.startswith("-") and not arg.startswith("--"):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


_parser: argparse.ArgumentParser | None = None  # built by the first main() and reused


def main(argv=None) -> int:
    global _parser
    _parser = _parser or build_parser()
    try:
        args = _parser.parse_args(_attach_poly_values(sys.argv[1:] if argv is None else argv))
        _check_limits(args)
        payload = args.fn(MonomialSpec.parse(args.monomial), args)
    except (MathFailure, NonRadicalIdealError, PointExtractionError,
            serialize.DigitLimitError, MemoryError) as exc:  # a MemoryError's text may be ""
        code, text = 1, json.dumps({"error": str(exc) or "out of memory"}, sort_keys=True)
    except (ValueError, OSError) as exc:
        code, text = 2, json.dumps({"error": str(exc)}, sort_keys=True)
    else:
        code, text = 0, (_json_text(payload) if args.format == "json"
                         else _render_text(serialize.plain(payload)))
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader is gone; the exit flush must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())

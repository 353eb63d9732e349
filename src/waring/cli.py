"""Command-line front end.

Every subcommand takes a monomial ("x^2*y^2*z^3", "x0^2*x1^2*x2^3", or an
exponent list "2,2,3") and writes JSON by default (``--format text`` for a
human-readable rendering).  Exit codes: 0 on success, 1 on a mathematical
failure (for example a non-radical phi where a radical one is required), 2 on
usage or parse errors; a failure or usage error prints ``{"error": ...}``.
Randomized subcommands require a seed, either via --seed or the WARING_SEED
environment variable, and are reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
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
    check_alpha0_nonzero,
    decompose_from_phi,
    fit_phi_from_points,
    parameter_space,
    point_ideal_hilbert,
    q_t_diagnostic,
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
    """Read --tol, --seed, --count and --t-max, left as text by argparse, from ASCII digits."""
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


def cmd_rank(args) -> dict:
    spec = MonomialSpec.parse(args.monomial)
    return {"monomial": str(spec), "rank": waring_rank(spec)}


def cmd_bounds(args) -> dict:
    spec = MonomialSpec.parse(args.monomial)
    return {
        "monomial": str(spec),
        "lower_bound": rank_lower_bound(spec),
        "rank": waring_rank(spec),
        "upper_bound": waring_rank(spec),
        "normalizing_constant": serialize.scalar_to_json(multinomial_C(spec)),
    }


def cmd_decompose(args) -> dict:
    spec = MonomialSpec.parse(args.monomial)
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
    except ValueError as exc:  # not JSON, or not text
        raise ValueError(f"cannot read JSON from {'standard input' if path == '-' else path}: "
                         f"{exc}") from None


def cmd_verify(args) -> dict:
    spec = MonomialSpec.parse(args.monomial)
    data = _load_json(args.input)
    dec = serialize.decomposition_from_json(data)
    report = verify_decomposition(spec, dec, tol=args.tol)
    if not report.ok:
        raise MathFailure(str(report))
    return {
        "monomial": str(spec),
        "verified": report.mode,
        "max_error": report.max_error,
    }


def cmd_hilbert(args) -> dict:
    spec = MonomialSpec.parse(args.monomial)
    t_max = args.t_max if args.t_max is not None else spec.degree + 2
    table = {str(t): hilbert_S_mod_J(spec, t) for t in range(t_max + 1)}
    return {
        "monomial": str(spec),
        "hilbert_S_mod_J": table,
        "stable_value": spec.rank,
    }


def cmd_vsp_dim(args) -> dict:
    spec = MonomialSpec.parse(args.monomial)
    return {"monomial": str(spec), "dim_vsp": dim_vsp(spec)}


def cmd_ideal(args) -> dict:
    spec = MonomialSpec.parse(args.monomial)
    phi = _parse_phi(spec, args.phi)
    if args.canonicalize:
        phi = canonicalize_phi(spec, phi)
    ideal = make_ci_ideal(spec, phi)
    out = serialize.ci_ideal_to_json(ideal)
    if args.member:
        poly = parse_poly(args.member, spec.n + 1, DUAL)
        out["member"] = {"poly": str(poly), "in_ideal": ideal_membership(poly, ideal)}
    return out


def cmd_radical(args) -> dict:
    spec = MonomialSpec.parse(args.monomial)
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


def cmd_points(args) -> dict:
    spec = MonomialSpec.parse(args.monomial)
    phi = _parse_phi(spec, args.phi)
    seed = _seed(args, required=True)
    certificate = certify_radical(spec, phi)
    if not certificate.radical:
        raise MathFailure("the ideal is not radical; points would not be reduced")
    points = extract_points(certificate.quotient, tol=args.tol, seed=seed)
    out = serialize.pointset_to_json(points)
    out["monomial"] = str(spec)
    out["alpha0_nonzero"] = check_alpha0_nonzero(points)
    return out


def cmd_fit_phi(args) -> dict:
    spec = MonomialSpec.parse(args.monomial)
    data = _load_json(args.points)
    points = serialize.pointset_from_json(data)
    try:
        phi = fit_phi_from_points(spec, points)
    except (ValueError, LinearSolveError) as exc:
        raise MathFailure(str(exc)) from None
    return {"monomial": str(spec), "phi": serialize.phi_to_json(phi)}


def cmd_normalize(args) -> dict:
    spec = MonomialSpec.parse(args.monomial)
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


def cmd_sample(args) -> dict:
    spec = MonomialSpec.parse(args.monomial)
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


def cmd_diagnose(args) -> dict:
    spec = MonomialSpec.parse(args.monomial)
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
    rows = []
    for t in range(t_max + 1):
        h_model = hilbert_S_mod_J(spec, t)
        h_points = point_ideal_hilbert(points, t)  # dim (S/I)_t; dim I_t is the rest of S_t
        rows.append(
            {
                "t": t,
                "hilbert_model": h_model,
                "hilbert_points": h_points,
                "agree": h_model == h_points,
                "dim_I_t": comb(t + spec.n, spec.n) - h_points,
                "q_t": q_t_diagnostic(spec, points, t),
                "perp_cap_alpha0": dim_perp_cap_alpha0(spec, t),
            }
        )
    return {
        "monomial": str(spec),
        "phi": serialize.phi_to_json(phi),
        "table": rows,
        "all_agree": all(r["agree"] for r in rows),
    }


def _render_text(payload: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key, value in payload.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_text(value, indent + 1))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            for item in value:
                lines.append(_render_text(item, indent + 1))
                lines.append(pad + "  -")
            lines.pop()
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="waring",
        description="Exact Waring ranks and decompositions of monomials.",
    )
    parser.add_argument("--format", choices=["json", "text"], default="json")
    sub = parser.add_subparsers(dest="command", required=True)
    shared = {
        "--phi": {"action": "append", "help": "phi entry (repeat per entry)"},
        # numbers stay text here; _check_limits reads them
        "--seed": {},
        "--tol": {"default": "1e-8"},
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
    args = _parser.parse_args(_attach_poly_values(sys.argv[1:] if argv is None else argv))
    try:
        _check_limits(args)
        payload = args.fn(args)
    except (MathFailure, NonRadicalIdealError, PointExtractionError,
            serialize.DigitLimitError) as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True))
        return 1
    except (ValueError, OSError) as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True))
        return 2
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(_render_text(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())

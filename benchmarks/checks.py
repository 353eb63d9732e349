"""Independent checks of the JSON that `waring` prints.

Nothing here imports `waring`.  Decompositions are rebuilt from their JSON
scalar records with plain complex arithmetic (zeta_m = exp(2*pi*i/m)) and
compared with the monomial at random points; ideals, members and phi tuples
are built with the small exact polynomial arithmetic below.  Every check
returns None when the output is right and a one-line reason when it is not.

Polynomials are dicts {exponent tuple: int or Fraction} over the sorted
frame a0..an, the frame the CLI uses for phi entries and generators.
"""

from __future__ import annotations

import cmath
import itertools
from fractions import Fraction
from math import prod

# -- exact polynomials in a0..an ---------------------------------------------


def poly_add(p: dict, q: dict, scale=1) -> dict:
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, 0) + scale * c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def monomial(exponent, coeff=1) -> dict:
    return {tuple(exponent): coeff}


def exponents_of_degree(num_vars: int, degree: int, caps=None):
    """All exponent tuples of the given total degree, optionally capped per variable."""
    caps = caps or (degree,) * num_vars
    return [
        e
        for e in itertools.product(*(range(min(c, degree) + 1) for c in caps))
        if sum(e) == degree
    ]


def poly_text(p: dict) -> str:
    """Render a polynomial as the CLI's `--phi`/`--member` syntax, e.g. "3*a0^2*a1 - a2"."""
    if not p:
        return "0"
    parts = []
    for e in sorted(p, reverse=True):
        c = p[e]
        factors = [f"a{i}" + (f"^{x}" if x > 1 else "") for i, x in enumerate(e) if x]
        mag = abs(c)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        sign = "-" if c < 0 else "+"
        parts.append((sign, "*".join(factors)))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def poly_from_records(records) -> dict:
    """Read the CLI's [{"exponent": [...], "coeff": "p/q"}, ...] polynomial records."""
    out = {}
    for entry in records:
        c = Fraction(entry["coeff"])
        if c:
            out[tuple(entry["exponent"])] = c
    return out


def generators(exponents, phi) -> list[dict]:
    """g_i = a_i^(d_i+1) - phi_i * a0^(d0+1) for the sorted exponents (d0, ..., dn)."""
    n = len(exponents) - 1
    shift = monomial((exponents[0] + 1,) + (0,) * n)
    gens = []
    for i, entry in enumerate(phi, start=1):
        lead = monomial(tuple(exponents[i] + 1 if j == i else 0 for j in range(n + 1)))
        gens.append(poly_add(lead, poly_mul(entry, shift), -1))
    return gens


def canonical_monomials(exponents, i: int):
    """Degree d_i - d0 monomials with no factor a_j^(d_j+1), j >= 1 (a basis of phi_i's space)."""
    caps = (exponents[i] - exponents[0],) + tuple(exponents[1:])
    return exponents_of_degree(len(exponents), exponents[i] - exponents[0], caps)


def is_canonical(exponents, phi) -> bool:
    return all(
        e[j] <= exponents[j] for entry in phi for e in entry for j in range(1, len(exponents))
    )


# -- complex evaluation of decompositions -------------------------------------


def scalar_value(record) -> complex:
    """A JSON scalar record as a complex number: "p/q", {"conductor", "coeffs"} or {"re", "im"}."""
    if isinstance(record, str):
        return complex(float(Fraction(record)))
    if "conductor" in record:
        z = cmath.exp(2j * cmath.pi / record["conductor"])
        return sum(float(Fraction(c)) * z**k for k, c in enumerate(record["coeffs"]))
    return complex(record["re"], record["im"])


def unit_points(rng, num_vars: int, count: int = 3):
    """Random points on the unit torus, so the target monomial has modulus 1 there."""
    return [
        [cmath.exp(2j * cmath.pi * rng.random()) for _ in range(num_vars)] for _ in range(count)
    ]


def decomposition_error(summands, original_exponents, points) -> float:
    """max over points of |sum_j c_j (l_j . x)^d - prod x_i^d_i| / max(1, sum_j |c_j| |l_j . x|^d)."""
    d = sum(original_exponents)
    rows = [
        (scalar_value(s["coeff"]), [scalar_value(v) for v in s["form"]]) for s in summands
    ]
    worst = 0.0
    for x in points:
        target = prod(xi**e for xi, e in zip(x, original_exponents))
        total = 0j
        scale = 0.0
        for c, form in rows:
            term = c * sum(li * xi for li, xi in zip(form, x)) ** d
            total += term
            scale += abs(term)
        worst = max(worst, abs(total - target) / max(1.0, scale))
    return worst


def rank_formula(original_exponents) -> int:
    """The paper's rank: prod_{i >= 1} (d_i + 1) over the sorted positive exponents."""
    sorted_d = sorted(e for e in original_exponents if e)
    return prod(e + 1 for e in sorted_d[1:])


EXACT_TOL = 1e-9
NUMERIC_TOL = 1e-6


def check_decomposition(out: dict, original_exponents, points, verified: str):
    """A decomposition with the rank-formula count, the given verdict, and the right values."""
    want = rank_formula(original_exponents)
    summands = out.get("summands", [])
    if len(summands) != want:
        return f"{len(summands)} summands, rank formula gives {want}"
    if out.get("verified") != verified:
        return f"verified is {out.get('verified')!r}, expected {verified!r}"
    if any(len(s["form"]) != len(original_exponents) for s in summands):
        return "a form has the wrong number of variables"
    tol = EXACT_TOL if verified == "exact" else NUMERIC_TOL
    err = decomposition_error(summands, original_exponents, points)
    if not err <= tol:
        return f"decomposition misses the monomial by {err:.3e} (tol {tol:.0e})"
    return None


def check_points_on_phi(out: dict, exponents, phi, tol: float = NUMERIC_TOL):
    """Every form of a sorted-frame decomposition, scaled to a0 = 1, is a zero of I(n, phi)."""
    n = len(exponents) - 1
    for s in out["summands"]:
        form = [scalar_value(v) for v in s["form"]]
        if abs(form[0]) < 1e-12:
            return "a form has a vanishing a0 coordinate"
        p = [v / form[0] for v in form]
        for i in range(1, n + 1):
            lhs = p[i] ** (exponents[i] + 1)
            rhs = sum(c * prod(pj**ej for pj, ej in zip(p, e)) for e, c in phi[i - 1].items())
            if abs(lhs - rhs) > tol * max(1.0, abs(lhs)):
                return f"a point misses generator {i} by {abs(lhs - rhs):.3e}"
    return None


# -- ideal and radicality answers ---------------------------------------------


def check_member(out: dict, gens, expect: bool):
    """The CLI's generators equal ours, and the membership answer is the known one."""
    got = [poly_from_records(g) for g in out.get("generators_json", [])]
    if got != gens:
        return "generators differ from a_i^(d_i+1) - phi_i * a0^(d0+1)"
    answer = out.get("member", {}).get("in_ideal")
    if answer is not expect:
        return f"in_ideal is {answer!r}, expected {expect!r}"
    return None


def check_canonical(out: dict, exponents, canon):
    """Canonicalization returns the one canonical tuple of the ideal, which we built first."""
    got = [poly_from_records(p) for p in out["phi"]["entries"]]
    if out["phi"].get("canonical") is not True or not is_canonical(exponents, got):
        return "returned phi is not canonical"
    if got != canon:
        return "canonical phi differs from the tuple the input was built from"
    return None


def check_radical(out: dict, rank: int, expect: str):
    """expect: "radical" (trace rank r), "deficient" (trace rank < r), "zero-entry" (no rank)."""
    if out.get("dimension") != rank:
        return f"dimension {out.get('dimension')} != rank {rank}"
    radical, trace_rank = out.get("radical"), out.get("trace_rank")
    if expect == "radical":
        ok = radical is True and trace_rank == rank
    elif expect == "deficient":
        ok = radical is False and isinstance(trace_rank, int) and trace_rank < rank
    else:
        ok = radical is False and trace_rank is None
    if not ok:
        return f"radical={radical!r} trace_rank={trace_rank!r}, expected {expect}"
    return None


def check_samples(out: dict, exponents, seed: int, count: int):
    """Seeds run seed..seed+count-1; each phi is a full canonical integer tuple; verdicts agree."""
    samples = out.get("samples", [])
    if [s["seed"] for s in samples] != list(range(seed, seed + count)):
        return "sample seeds are not the requested consecutive run"
    n = len(exponents) - 1
    for s in samples:
        phi = [poly_from_records(p) for p in s["phi"]["entries"]]
        if len(phi) != n or not is_canonical(exponents, phi):
            return "a sampled phi is not a canonical n-tuple"
        for i, entry in enumerate(phi, start=1):
            if sorted(entry) != sorted(canonical_monomials(exponents, i)):
                return f"phi_{i} does not use every basis monomial of its space"
            if any(c.denominator != 1 or not 1 <= abs(c) <= 9 for c in entry.values()):
                return f"phi_{i} has a coefficient outside the nonzero integers in [-9, 9]"
        if s["verified"] != s["radical"]:
            return "a radical sample was not verified"
        if s["verified"] and not (s["residual"] is not None and s["residual"] < 1e-8):
            return f"a verified sample has residual {s['residual']!r}"
    fraction = sum(1 for s in samples if s["radical"]) / count
    if out.get("radical_fraction") != fraction:
        return "radical_fraction disagrees with the samples"
    return None

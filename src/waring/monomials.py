"""Waring ranks and the explicit root-of-unity decomposition of a monomial.

A monomial x0^d0 * ... * xn^dn with every d_i >= 1 has Waring rank
(d1+1)*...*(dn+1) once the exponents are sorted ascending.  The decomposition
realizing that rank averages the forms x0 + z1^a1 x1 + ... + zn^an xn over all
tuples of (d_i+1)-th roots of unity z_i^a_i, with an explicit scalar in front
of each summand; everything here is exact over Q(zeta_m) for
m = lcm(d1+1, ..., dn+1).
"""

from __future__ import annotations

from cmath import phase
from dataclasses import dataclass
from fractions import Fraction
from math import lcm, pi, prod

from .cyclotomic import CycloScalar, _reduce_mod_phi, embed, root_of_unity, root_power_sum
from .polynomial import (
    PRIMAL,
    Exponent,
    LinearForm,
    SparsePoly,
    evaluation_matrix,
    exponents_of_degree,
    is_digits,
    multinomial,
    split_power,
)

EXACT_CYCLOTOMIC = "exact-cyclotomic"
COMPLEX_FLOAT = "complex-float"

_ALIASES = {"x": 0, "y": 1, "z": 2, "w": 3}


@dataclass(frozen=True)
class MonomialSpec:
    """A target monomial, normalized to sorted positive exponents.

    ``exponents`` is the sorted tuple (d0, ..., dn) with d0 >= 1; variables
    with exponent zero are stripped before sorting (they cannot occur in any
    decomposition of minimal length).  ``positions[i]`` records which original
    variable the i-th sorted slot came from, so results can be handed back in
    the caller's variable order.
    """

    exponents: tuple[int, ...]
    positions: tuple[int, ...]
    original_exponents: tuple[int, ...]

    @staticmethod
    def from_exponents(exponents) -> MonomialSpec:
        original = tuple(int(e) for e in exponents)
        if any(e < 0 for e in original):
            raise ValueError("exponents must be non-negative")
        pairs = sorted(
            ((e, i) for i, e in enumerate(original) if e > 0), key=lambda p: p[0]
        )
        if not pairs:
            raise ValueError("constant monomials have no Waring decomposition problem")
        return MonomialSpec(
            exponents=tuple(e for e, _ in pairs),
            positions=tuple(i for _, i in pairs),
            original_exponents=original,
        )

    @staticmethod
    def parse(text: str) -> MonomialSpec:
        """Parse "x^2*y^2*z^3", "x0^2*x1*x2^3", or an exponent list "2,2,3".

        Only monic monomials are accepted: a leading numeric factor must be 1.
        """
        cleaned = text.replace(" ", "")
        if not cleaned:
            raise ValueError("empty monomial")
        if all(is_digits(part.lstrip("-")) for part in cleaned.split(",")) and "," in cleaned:
            return MonomialSpec.from_exponents(int(p) for p in cleaned.split(","))
        if is_digits(cleaned):
            raise ValueError("a bare number is not a monomial; give variables or a comma list")
        exponents: dict[int, int] = {}
        for factor in cleaned.split("*"):
            if not factor:
                raise ValueError(f"could not parse monomial {text!r}")
            name, power = split_power(factor, text)
            if is_digits(name):
                if int(name) != 1:
                    raise ValueError("only monic monomials are supported")
                continue
            if name in _ALIASES:
                index = _ALIASES[name]
            elif name.startswith("x") and is_digits(name[1:]):
                index = int(name[1:])
            else:
                raise ValueError(f"unknown variable {name!r}; use x0..x9 or x, y, z, w")
            if index > 9:
                raise ValueError("variables x0..x9 only")
            exponents[index] = exponents.get(index, 0) + power
        size = max(exponents) + 1
        return MonomialSpec.from_exponents(exponents.get(i, 0) for i in range(size))

    # -- derived quantities --------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.exponents) - 1

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def rank(self) -> int:
        return prod(d + 1 for d in self.exponents[1:])

    @property
    def conductor(self) -> int:
        return lcm(*(d + 1 for d in self.exponents[1:])) if self.n >= 1 else 1

    @property
    def num_original_vars(self) -> int:
        return len(self.original_exponents)

    def monomial_poly(self, frame: str = "original") -> SparsePoly:
        if frame == "sorted":
            return SparsePoly.monomial(self.n + 1, PRIMAL, self.exponents)
        return SparsePoly.monomial(self.num_original_vars, PRIMAL, self.original_exponents)

    def form_to_original(self, sorted_coeffs) -> LinearForm:
        """Place sorted-frame form coefficients back at the original variable slots."""
        coeffs = [0] * self.num_original_vars
        for slot, c in enumerate(sorted_coeffs):
            coeffs[self.positions[slot]] = c
        return LinearForm(coeffs)

    def __str__(self) -> str:
        factors = [
            f"x{i}" + (f"^{e}" if e > 1 else "")
            for i, e in enumerate(self.original_exponents)
            if e
        ]
        return "*".join(factors)


def waring_rank(spec: MonomialSpec) -> int:
    """(d1+1)*...*(dn+1) for sorted exponents d0 <= ... <= dn."""
    return spec.rank


def rank_lower_bound(spec: MonomialSpec) -> int:
    """(d0+1)*...*(d_{n-1}+1); coincides with the rank exactly when d0 = dn."""
    return prod(d + 1 for d in spec.exponents[:-1])


def multinomial_C(spec: MonomialSpec) -> Fraction:
    """The normalizing constant: the multinomial (d; d0..dn) times the rank."""
    return Fraction(multinomial(spec.degree, spec.exponents) * spec.rank)


@dataclass
class Decomposition:
    """A weighted power-sum expression sum_j c_j * (l_j)^d for the target."""

    degree: int
    domain: str  # EXACT_CYCLOTOMIC or COMPLEX_FLOAT
    summands: tuple[tuple[object, LinearForm], ...]
    verified: str = "unverified"  # "exact" | "numeric" | "unverified"
    residual: float | None = None

    def __post_init__(self):
        for _, form in self.summands:
            if form.is_zero():
                raise ValueError("decomposition summands must be nonzero forms")

    def __len__(self) -> int:
        return len(self.summands)


def explicit_decomposition(spec: MonomialSpec) -> Decomposition:
    """The root-of-unity decomposition with (d1+1)*...*(dn+1) summands.

    Summands are indexed by tuples (a_1, ..., a_n) with 0 <= a_i <= d_i; the
    summand's form is x0 + z1^a1 x1 + ... + zn^an xn and its coefficient is
    z1^a1 * ... * zn^an divided by the constant of ``multinomial_C``.  All
    scalars live in Q(zeta_m) for the single conductor m of the spec, and the
    output forms are rearranged into the caller's variable order.
    """
    m = spec.conductor
    inv_c = CycloScalar.from_rational(1 / multinomial_C(spec), m)
    one = CycloScalar.one(m)
    steps = [m // (d + 1) for d in spec.exponents[1:]]
    summands = []

    def rec(i: int, index: tuple[int, ...]):
        if i == spec.n:
            coeffs = [one] + [root_of_unity(m, steps[j] * index[j]) for j in range(spec.n)]
            weight = root_of_unity(m, sum(steps[j] * index[j] for j in range(spec.n))) * inv_c
            summands.append((weight, spec.form_to_original(coeffs)))
            return
        for a in range(spec.exponents[i + 1] + 1):
            rec(i + 1, index + (a,))

    rec(0, ())
    if len(summands) != spec.rank:
        raise AssertionError(
            f"explicit decomposition built {len(summands)} summands, expected rank {spec.rank}"
        )
    return Decomposition(degree=spec.degree, domain=EXACT_CYCLOTOMIC, summands=tuple(summands))


def coefficient_Cm(spec: MonomialSpec, m_vec: Exponent) -> CycloScalar:
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


@dataclass
class VerificationReport:
    """Outcome of expanding a decomposition and comparing it to the target."""

    ok: bool
    mode: str  # "exact" | "numeric"
    max_error: float
    difference: SparsePoly | None = None

    def __str__(self) -> str:
        status = "pass" if self.ok else "FAIL"
        if self.mode == "exact":
            detail = "difference = 0" if self.ok else f"difference = {self.difference}"
        else:
            detail = f"max coefficient error = {self.max_error:.3e}"
        return f"{status} ({self.mode}): {detail}"


def verify_decomposition(
    spec: MonomialSpec, dec: Decomposition, tol: float = 1e-8
) -> VerificationReport:
    """Expand sum c_j l_j^d with the multinomial theorem and subtract the target.

    Exact domains must cancel identically in Q(zeta_M), M the lcm of every
    scalar's conductor.  The expansion runs in integer buckets: each output
    monomial owns one integer vector in Z[z]/(z^M - 1) over a common
    denominator D, which is reduced modulo Phi_M once at the end and tested
    for zero exactly (see ``_verify_exact``).  The float domain is held to a
    max-coefficient tolerance instead, and its expansion is one evaluation
    product: the x^e coefficient of sum_j c_j l_j^d is (d; e) * sum_j c_j l_j^e.
    """
    if dec.degree != spec.degree:
        raise ValueError("decomposition degree does not match the monomial")
    if any(form.num_vars != spec.num_original_vars for _, form in dec.summands):
        raise ValueError("form has the wrong number of variables")
    if dec.domain == EXACT_CYCLOTOMIC:
        return _verify_exact(spec, dec)
    import numpy as np  # only the float domain needs it

    # the target's variables and those of some form: no other one occurs in the expansion
    used = [k for k, d in enumerate(spec.original_exponents)
            if d or any(form.coeffs[k] for _, form in dec.summands)]
    exponents = exponents_of_degree(len(used), dec.degree)
    columns = [np.array([complex(form.coeffs[k]) for _, form in dec.summands]) for k in used]
    (powers,) = evaluation_matrix([columns], exponents)  # powers[i][j] = l_j^(exponents[i])
    c = np.array([complex(coeff) for coeff, _ in dec.summands])
    difference = [float(multinomial(dec.degree, e)) * (p @ c) for e, p in zip(exponents, powers)]
    difference[exponents.index(tuple(spec.original_exponents[k] for k in used))] -= 1
    max_error = float(np.max(np.abs(difference)))
    return VerificationReport(ok=max_error < tol, mode="numeric", max_error=max_error)


def _conductor(x) -> int:
    if isinstance(x, CycloScalar):
        return x.conductor
    if isinstance(x, (int, Fraction)):
        return 1
    raise ValueError(f"exact verification needs rational or cyclotomic scalars, got {x!r}")


def _lift(x, m: int) -> tuple[dict[int, int], int]:
    """A preimage of x in Z[z]/(z^m - 1): a sparse {power of z: integer} map and a denominator.

    A rational multiple q*zeta_m^k lifts to the single term q*z^k.  The
    argument of complex(x) only proposes k; k is taken when x*zeta_m^(-k) is
    exactly rational.  Any other x lifts its reduced coordinates, the basis
    element zeta_c^j going to z^(j*m/c).
    """
    if not isinstance(x, CycloScalar):
        q = Fraction(x)
        return ({0: q.numerator} if q else {}), q.denominator
    if not x.is_rational():
        try:
            k = round(phase(complex(x)) * m / (2 * pi)) % m
        except OverflowError:  # coordinates beyond float range give no hint
            k = 0
        q = x * root_of_unity(m, -k)
        if q.is_rational():
            return {k: q.num[0]}, q.den
    step = m // x.conductor
    return {j * step: c for j, c in enumerate(x.num) if c}, x.den


def _cyclic_mul(a: dict[int, int], b: dict[int, int], m: int) -> dict[int, int]:
    """Product of two sparse integer vectors in Z[z]/(z^m - 1)."""
    out: dict[int, int] = {}
    for i, u in a.items():
        for j, v in b.items():
            k = (i + j) % m
            out[k] = out.get(k, 0) + u * v
    return out


def _verify_exact(spec: MonomialSpec, dec: Decomposition) -> VerificationReport:
    """The exact check, in integer buckets of Z[z]/(z^M - 1) over one denominator.

    Every scalar is lifted to Z[z]/(z^M - 1) (``_lift``) and every summand is
    brought to the common denominator D.  The x^e coefficient of c*l^d is
    (d; e) * c * prod a_i^e_i, which adds plain integers into the bucket of e.
    Reducing a bucket modulo Phi_M gives D times the true coefficient in
    Q(zeta_M), because Z[z]/(z^M - 1) -> Q(zeta_M), z -> zeta_M, is a ring
    homomorphism; Q(zeta_M) is a field, so the zero test after reduction is exact.
    """
    degree = dec.degree
    num_vars = spec.num_original_vars
    m = lcm(*(_conductor(x) for c, form in dec.summands for x in (c, *form.coeffs)))
    lifts: dict = {}

    def lift(x):
        key = (x.conductor, x.num, x.den) if isinstance(x, CycloScalar) else x
        if key not in lifts:
            lifts[key] = _lift(x, m)
        return lifts[key]

    # (coefficient vector, summand denominator, [(variable, entry vector)])
    summands = []
    for coeff, form in dec.summands:
        c_vec, c_den = lift(coeff)
        if not c_vec:
            continue
        entries = [(i, lift(v)) for i, v in enumerate(form.coeffs) if v]
        form_den = lcm(*(den for _, (_, den) in entries))
        entries = [
            (i, {k: a * (form_den // den) for k, a in vec.items()}) for i, (vec, den) in entries
        ]
        summands.append((c_vec, c_den * form_den**degree, entries))
    common_den = lcm(*(den for _, den, _ in summands))

    power_rows: dict[tuple, list[dict[int, int]]] = {}

    def powers(vec: dict[int, int]) -> list[dict[int, int]]:
        key = tuple(sorted(vec.items()))
        if key not in power_rows:
            row = [{0: 1}]
            for _ in range(degree):
                row.append(_cyclic_mul(row[-1], vec, m))
            power_rows[key] = row
        return power_rows[key]

    buckets: dict[Exponent, tuple[int, list[int]]] = {}  # e -> ((d; e), integer vector)
    for c_vec, den, entries in summands:
        support = [i for i, _ in entries]
        rows = [powers(vec) for _, vec in entries]
        last = len(support) - 1
        exponent = [0] * num_vars

        def rec(idx: int, remaining: int, vec: dict[int, int]):
            i = support[idx]
            if idx == last:
                exponent[i] = remaining
                e = tuple(exponent)
                exponent[i] = 0
                if e not in buckets:
                    buckets[e] = (multinomial(degree, e), [0] * m)
                mult, bucket = buckets[e]
                row = rows[idx][remaining]
                for k1, u in vec.items():
                    u *= mult
                    for k2, v in row.items():
                        bucket[(k1 + k2) % m] += u * v
                return
            for j in range(remaining + 1):
                exponent[i] = j
                rec(idx + 1, remaining - j, _cyclic_mul(vec, rows[idx][j], m))
            exponent[i] = 0

        scale = common_den // den
        rec(0, degree, {k: a * scale for k, a in c_vec.items()})

    target = spec.original_exponents
    if target not in buckets:
        buckets[target] = (1, [0] * m)
    buckets[target][1][0] -= common_den
    difference = {}
    for e, (_, bucket) in buckets.items():
        if any(bucket):
            reduced = _reduce_mod_phi(m, bucket)
            if any(reduced):
                difference[e] = CycloScalar(m, tuple(reduced), common_den)
    if not difference:
        return VerificationReport(ok=True, mode="exact", max_error=0.0)
    return VerificationReport(ok=False, mode="exact", max_error=float("inf"),
                              difference=SparsePoly(num_vars, PRIMAL, difference))

"""Waring ranks and the explicit root-of-unity decomposition of a monomial.

A monomial x0^d0 * ... * xn^dn with every d_i >= 1 has Waring rank
(d1+1)*...*(dn+1) once the exponents are sorted ascending.  The decomposition
realizing that rank averages the forms x0 + z1^a1 x1 + ... + zn^an xn over all
tuples of (d_i+1)-th roots of unity z_i^a_i, with an explicit scalar in front
of each summand; everything here is exact over Q(zeta_m) for
m = lcm(d1+1, ..., dn+1).  A decomposition over Q(zeta_M) is verified exactly
in the integers modulo N = Phi_M(2^b), with b chosen from a coefficient bound
so that a zero residue is a proof (``verify_decomposition``).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm, prod

from .cyclotomic import CycloScalar, _reduction_rows, cyclotomic_poly, root_of_unity
from .polynomial import (
    PRIMAL,
    LinearForm,
    SparsePoly,
    evaluation_matrix,
    exponents_of_degree,
    is_digits,
    multinomial,
    multinomial_weights,
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

    def monomial_poly(self) -> SparsePoly:
        """The monomial in the sorted frame."""
        return SparsePoly.monomial(self.n + 1, PRIMAL, self.exponents)

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


class Decomposition:
    """A weighted power-sum expression sum_j c_j * (l_j)^d for the target.

    Built from ``summands``, (c_j, l_j) pairs with l_j a LinearForm, or, in the
    complex-float domain, from arrays by ``from_arrays``: then ``coeffs`` holds
    the r coefficients and ``forms`` the r x variables form entries, both
    complex, ``zero_columns`` the variables whose entries are the int 0, and
    ``summands`` is built from them on first use.  A decomposition built from
    summands has no arrays (``coeffs`` and ``forms`` are None).
    """

    def __init__(self, degree: int, domain: str, summands: tuple[tuple[object, LinearForm], ...],
                 verified: str = "unverified", residual: float | None = None):
        if domain not in (EXACT_CYCLOTOMIC, COMPLEX_FLOAT):
            raise ValueError(f"unknown decomposition domain {domain!r}, expected "
                             f"{EXACT_CYCLOTOMIC!r} or {COMPLEX_FLOAT!r}")
        for _, form in summands:
            if form.is_zero():
                raise ValueError("decomposition summands must be nonzero forms")
        self.degree, self.domain, self._summands = degree, domain, summands
        self.verified: str = verified  # "exact" | "numeric" | "unverified"
        self.residual = residual
        self.coeffs = self.forms = None
        self.zero_columns: tuple[int, ...] = ()

    @classmethod
    def from_arrays(cls, spec: MonomialSpec, coeffs, coords) -> Decomposition:
        """The complex-float decomposition with coefficients ``coeffs`` (r) whose form j has the
        sorted-frame coordinates ``coords[j]`` (r x (n+1)), placed as ``form_to_original``
        places them: a variable of exponent 0 holds the int 0."""
        import numpy as np

        if not np.all(coords.any(axis=1)):
            raise ValueError("decomposition summands must be nonzero forms")
        dec = cls(spec.degree, COMPLEX_FLOAT, ())
        dec._summands = None
        dec.coeffs = coeffs
        dec.forms = np.zeros((len(coords), spec.num_original_vars), dtype=complex)
        dec.forms[:, spec.positions] = coords
        dec.zero_columns = tuple(k for k in range(spec.num_original_vars) if k not in spec.positions)
        return dec

    @property
    def summands(self) -> tuple[tuple[object, LinearForm], ...]:
        if self._summands is None:
            rows = self.forms.tolist()
            for row in rows:
                for k in self.zero_columns:
                    row[k] = 0
            self._summands = tuple((c, LinearForm(row))
                                   for c, row in zip(self.coeffs.tolist(), rows))
        return self._summands

    def __len__(self) -> int:
        return len(self.summands) if self.coeffs is None else len(self.coeffs)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return ((self.degree, self.domain, self.summands, self.verified, self.residual)
                == (other.degree, other.domain, other.summands, other.verified, other.residual))

    def __repr__(self) -> str:
        return (f"Decomposition(degree={self.degree!r}, domain={self.domain!r}, "
                f"summands={self.summands!r}, verified={self.verified!r}, "
                f"residual={self.residual!r})")


def explicit_decomposition(spec: MonomialSpec) -> Decomposition:
    """The root-of-unity decomposition with (d1+1)*...*(dn+1) summands.

    Summands are indexed by tuples (a_1, ..., a_n) with 0 <= a_i <= d_i; the
    summand's form is x0 + z1^a1 x1 + ... + zn^an xn and its coefficient is
    z1^a1 * ... * zn^an divided by the constant of ``multinomial_C``.  All
    scalars live in Q(zeta_m) for the single conductor m of the spec, and the
    output forms are rearranged into the caller's variable order.
    """
    m = spec.conductor
    c = multinomial_C(spec).numerator
    roots = [root_of_unity(m, k) for k in range(m)]  # built once, shared by every summand
    # zeta^k / C with no product: a root's coordinates have gcd 1, so C stays the denominator
    weights = [CycloScalar(m, root.num, c) for root in roots]
    steps = [m // (d + 1) for d in spec.exponents[1:]]
    summands = []
    for index in product(*(range(d + 1) for d in spec.exponents[1:])):
        powers = [step * a for step, a in zip(steps, index)]
        form = spec.form_to_original([roots[0]] + [roots[k] for k in powers])
        summands.append((weights[sum(powers) % m], form))
    if len(summands) != spec.rank:
        raise AssertionError(
            f"explicit decomposition built {len(summands)} summands, expected rank {spec.rank}"
        )
    return Decomposition(degree=spec.degree, domain=EXACT_CYCLOTOMIC, summands=tuple(summands))


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
    scalar's conductor.  Each summand is brought to integers over one common
    denominator D: a' = a * F / den_a for the form entries, F their lcm
    denominator, and c' = c * D / (den_c * F^d).  Then D times the x^e
    coefficient of the difference is R_e = (d; e) * S_e - [e = target] * D,
    with S_e = sum_j c'_j * prod_i a'_ji^e_i in Z[zeta_M].

    The check is Kronecker substitution: z -> 2^b is a ring homomorphism
    Z[zeta_M] -> Z/N, N = Phi_M(2^b), under which a scalar of conductor c
    with coordinates num_k maps to sum_k num_k * 2^(b*k*M/c), so the sums
    S_e are taken mod N and R_e never is.  Read a scalar x = t * zeta_c^k,
    t an integer, as the monomial t * z^(k*M/c) of weight w(x) = |t| (|t| is
    the gcd of the coordinates, since a root of unity has norm +-1 and so no
    common factor), and any other x as the polynomial sum_k num_k * z^(k*M/c)
    of weight w(x) = ||x||_1 = sum_k |num_k|, its L1 norm.  A product's L1
    norm, multiplied out and not yet reduced, is at most the product of the
    factors' weights, and z^K mod Phi_M has every coordinate at
    most rho_M, the largest |coordinate| of z^k mod Phi_M over k < M.  Since
    sum_i e_i = d, every power-basis coordinate of S_e, at every e, is at
    most C = rho_M * sum_j w(c'_j) * (max_i w(a'_ji))^d.  Neither (d; e) nor
    D is in C, as neither is in S_e.  For H the largest |coefficient| of
    Phi_M and 2^b > 2*(C + H) + 1, |S_e(2^b)| < N/2: it is at most C times
    sum_k 2^(b*k) over k < deg(Phi_M), and N is at least 2^(b*deg(Phi_M))
    less H times that sum.  So S_e = 0 exactly when S_e = 0 mod N, and the
    balanced base-2^b digits of the centered residue of S_e are its
    coordinates.  An e other than the target whose residue is zero has
    S_e = 0 and so R_e = 0; at every other e, R_e is formed from the digits
    in exact integers, and R_e / D is the reported x^e coefficient of the
    difference.  The verdict is exact: the residues prove every S_e, and
    through them every R_e.  The expansion mod N holds the powers a^0..a^k of
    each entry in one int, one slot per power, so a state takes one product
    per pass; a bound that fails to hold raises AssertionError (both in
    ``_verify_exact``).  The float domain is held to a max-coefficient
    tolerance instead: it passes when that error is at most ``tol``, so
    ``tol = 0`` accepts an exact fit.  It reads the decomposition's arrays, or
    puts the summands into one summands x variables array when it has none,
    and the expansion is one product with their evaluation:
    the x^e coefficients of sum_j c_j l_j^d are weights * (c @ powers),
    weights[e] = (d; e) and powers[j, e] = l_j^e.
    """
    if dec.degree != spec.degree:
        raise ValueError("decomposition degree does not match the monomial")
    if dec.forms is not None:
        widths = {dec.forms.shape[1]}
    else:
        widths = {form.num_vars for _, form in dec.summands}
    if widths - {spec.num_original_vars}:
        raise ValueError("form has the wrong number of variables")
    if dec.domain == EXACT_CYCLOTOMIC:
        return _verify_exact(spec, dec)
    import numpy as np  # only the float domain needs it

    if dec.forms is not None:
        c, forms = dec.coeffs, dec.forms
    else:
        c = np.array([complex(coeff) for coeff, _ in dec.summands], dtype=complex)
        forms = np.array([[complex(a) for a in form.coeffs] for _, form in dec.summands],
                         dtype=complex).reshape(len(dec.summands), spec.num_original_vars)
    # the target's variables and those of some form: no other one occurs in the expansion
    used = [k for k, d in enumerate(spec.original_exponents) if d or forms[:, k].any()]
    exponents = exponents_of_degree(len(used), dec.degree)
    powers = evaluation_matrix(forms[:, used], exponents)  # powers[j, i] = l_j^(exponents[i])
    difference = np.array(multinomial_weights(len(used), dec.degree)) * (c @ powers)
    difference[exponents.index(tuple(spec.original_exponents[k] for k in used))] -= 1
    max_error = float(np.max(np.abs(difference)))
    return VerificationReport(ok=max_error <= tol, mode="numeric", max_error=max_error)


def _parts(x) -> tuple[tuple[int, ...], int, int]:
    """(integer coordinates, denominator, conductor) of a rational or cyclotomic scalar."""
    if isinstance(x, CycloScalar):
        return x.num, x.den, x.conductor
    if isinstance(x, (int, Fraction)):
        q = Fraction(x)
        return (q.numerator,), q.denominator, 1
    raise ValueError(f"exact verification needs rational or cyclotomic scalars, got {x!r}")


@lru_cache(maxsize=None)
def _ring_constants(m: int) -> tuple[int, int]:
    """(rho_m, H_m): the largest |coordinate| of z^k mod Phi_m over k < m, and the largest
    |coefficient| of Phi_m."""
    rho = max((max(map(abs, row)) for row in _reduction_rows(m)), default=1)
    return rho, max(map(abs, cyclotomic_poly(m).coeffs))


@lru_cache(maxsize=None)
def _unit_powers(m: int) -> dict[tuple[int, ...], tuple[int, int]]:
    """z^k mod Phi_m -> (1, k) and -z^k mod Phi_m -> (-1, k), for deg(Phi_m) <= k < m."""
    rows = _reduction_rows(m)
    start = m - len(rows)
    table = {tuple(-c for c in row): (-1, start + k) for k, row in enumerate(rows)}
    table.update((row, (1, start + k)) for k, row in enumerate(rows))
    return table


def _unit(coords: tuple[int, ...], conductor: int) -> tuple[int, int] | None:
    """(t, k) when the scalar with these coordinates is t * zeta^k, t an integer; else None.

    |t| is the gcd of the coordinates: a root of unity has norm +-1, so no integer
    above 1 divides all of its coordinates, and t * zeta^k has gcd |t|.  Zero is (0, 0).
    """
    if coords.count(0) >= len(coords) - 1:  # zero, or t * zeta^k with k < deg(Phi_m)
        for k, t in enumerate(coords):
            if t:
                return t, k
        return 0, 0
    s = gcd(*coords)
    found = _unit_powers(conductor).get(coords if s == 1 else tuple(c // s for c in coords))
    return None if found is None else (found[0] * s, found[1])


def _substitute(coords, shift: int) -> int:
    """sum_k coords[k] * 2^(shift*k), an integer polynomial at z = 2^shift.

    N = Phi_M(2^b) is ``_substitute(Phi_M, b)``; a scalar of conductor c,
    read in Q(zeta_M), has its coordinates at z^(k*M/c), so shift = b*M/c.
    """
    return sum(a << shift * k for k, a in enumerate(coords) if a)


def _modulus_bits(bound: int) -> int:
    """The b of ``_verify_exact``: 2^b > 2*(C + H) + 1 for bound = C + H."""
    return (2 * bound + 1).bit_length()


def _verify_exact(spec: MonomialSpec, dec: Decomposition) -> VerificationReport:
    """The exact check: Kronecker substitution into Z/N, summed one variable at a time.

    See ``verify_decomposition`` for the map z -> 2^b and its bound.  Each
    distinct scalar object is read once (coordinates, denominator, conductor,
    weight and image), and the summands refer to it by index.  The sums
    S_e = sum_j c'_j * prod_i a'_ji^e_i are built over states (exponents
    chosen so far, entries still to use), one variable per pass; summands
    that share their remaining entries merge into one state, so the variable
    with the most distinct entries goes first.  The powers a^0..a^k of an
    entry, reduced mod N, sit in one int as slots of ``width`` bytes, wide
    enough for a sum of as many products below N^2 as there are summands; so
    a state adds all of its products by one multiply-add, and each merged
    state is cut back into slots once.  The last pass needs one power per
    state and multiplies it alone.
    """
    degree, num_vars = dec.degree, spec.num_original_vars
    index: dict[int, int] = {}  # id of a scalar object -> its place in ``parts``
    parts = []  # (coordinates, denominator, conductor) of each distinct scalar object

    def ref(x):
        i = index.get(id(x))  # every scalar is held by ``dec``, so its id stays its own
        if i is None:
            i = index[id(x)] = len(parts)
            parts.append(_parts(x))
        return i

    listed = [(ref(c), [ref(v) for v in form.coeffs]) for c, form in dec.summands]
    m = lcm(*(cond for _, _, cond in parts))
    units = [_unit(num, cond) for num, _, cond in parts]
    weights = [abs(u[0]) if u else sum(map(abs, num)) for u, (num, _, _) in zip(units, parts)]
    dens = [den for _, den, _ in parts]
    scaled: dict[tuple[int, int], int] = {}  # (scalar, factor) -> the index of factor * scalar
    summands = []  # (coefficient, entries a', denominator), scalars as indices
    for c, entries in listed:
        if any(parts[c][0]):
            form_den = lcm(*[dens[i] for i in entries])
            if form_den > 1:
                entries = [scaled.setdefault((i, form_den // dens[i]), len(parts) + len(scaled))
                           for i in entries]
            summands.append((c, entries, dens[c] * form_den**degree))
    weights += [weights[i] * f for i, f in scaled]
    common_den = lcm(*(den for _, _, den in summands))

    rho, height = _ring_constants(m)
    mass = sum(weights[c] * (common_den // den) * max(map(weights.__getitem__, entries)) ** degree
               for c, entries, den in summands)
    bound = rho * mass + height
    b = _modulus_bits(bound)
    if 1 << b <= 2 * bound + 1:
        raise AssertionError(f"Kronecker substitution: 2^{b} is not above 2*(C + H) + 1 = "
                             f"{2 * bound + 1}, so a zero residue would prove nothing")
    modulus = _substitute(cyclotomic_poly(m).coeffs, b)
    images = [(u[0] << b * u[1] * (m // cond)) % modulus if u
              else _substitute(num, b * (m // cond)) % modulus
              for u, (num, _, cond) in zip(units, parts)]
    images += [images[i] * f % modulus for i, f in scaled]

    ids: dict[int, int] = {}  # image of a form entry -> its index into powers
    keyed = [(images[c] * (common_den // den) % modulus,
              [ids.setdefault(images[i], len(ids)) for i in entries])
             for c, entries, den in summands]
    width = (2 * modulus.bit_length() + len(summands).bit_length() + 8) // 8
    powers, packed = [], []  # packed[i][k]: powers[i][0..k] in slots of ``width`` bytes
    for value in ids:
        row, rows = [1], [1]
        for k in range(1, degree + 1):
            row.append(row[-1] * value % modulus)
            rows.append(rows[-1] | row[-1] << 8 * width * k)
        powers.append(row)
        packed.append(rows)
    order = sorted(range(num_vars), key=lambda i: -len({key[i] for _, key in keyed}))
    states: dict[tuple, dict[tuple, int]] = defaultdict(lambda: defaultdict(int))
    for value, key in keyed:  # entries still to use -> {exponents chosen so far: sum}
        states[tuple(key[i] for i in order)][()] += value
    for _ in range(num_vars - 1):
        merged: dict[tuple, dict[tuple, int]] = defaultdict(lambda: defaultdict(int))
        for rest, sums in states.items():
            rows, out = packed[rest[0]], merged[rest[1:]]
            for chosen, value in sums.items():
                out[chosen] += value * rows[degree - sum(chosen)]
        states = {}
        for rest, sums in merged.items():
            out = states[rest] = {}
            for chosen, value in sums.items():
                left = degree - sum(chosen)
                raw = value.to_bytes(width * (left + 1), "little")
                for k in range(left + 1):
                    slot = int.from_bytes(raw[width * k:width * (k + 1)], "little") % modulus
                    if slot:
                        out[chosen + (k,)] = slot
    last: dict[tuple, int] = defaultdict(int)
    for (entry,), sums in states.items():
        row = powers[entry]
        for chosen, value in sums.items():
            left = degree - sum(chosen)
            last[chosen + (left,)] += value * row[left]

    place = [order.index(i) for i in range(num_vars)]  # exponents are chosen in ``order``
    sums = {tuple(chosen[p] for p in place): value % modulus for chosen, value in last.items()}
    target = spec.original_exponents
    sums.setdefault(target, 0)
    difference = {}
    phi_m = cyclotomic_poly(m).degree
    for e, residue in sums.items():
        if not residue and e != target:
            continue  # S_e = 0, so R_e = 0
        residue -= modulus if 2 * residue > modulus else 0
        digits = []  # balanced base-2^b digits: the power-basis coordinates of S_e
        for _ in range(phi_m):
            low = residue & ((1 << b) - 1)
            low -= 1 << b if low >> (b - 1) else 0
            digits.append(low)
            residue = (residue - low) >> b
        if residue:
            raise AssertionError(f"Kronecker substitution: the residue of x^{e} has digits "
                                 f"beyond the {phi_m} coordinates of Q(zeta_{m})")
        weight = multinomial(degree, e)  # R_e = (d; e) * S_e - [e = target] * D
        coords = [weight * t for t in digits]
        if e == target:
            coords[0] -= common_den
        if any(coords):
            difference[e] = CycloScalar(m, tuple(coords), common_den)
    if not difference:
        return VerificationReport(ok=True, mode="exact", max_error=0.0)
    return VerificationReport(ok=False, mode="exact", max_error=float("inf"),
                              difference=SparsePoly(num_vars, PRIMAL, difference))

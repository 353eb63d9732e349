"""Zero-dimensional solving of the decomposition ideals I(n, phi).

In the affine chart a0 = 1 the dehomogenized generators g_i = a_i^(d_i+1) - psi_i
have pairwise coprime leading monomials, so they already form a reduction basis:
normal forms are supported on the r = (d1+1)*...*(dn+1) standard monomials
a^e with e_i <= d_i.  From the multiplication matrices on that basis we get

* an exact radicality certificate: the rank of the trace form, the number of
  distinct points, is that of multiplication by the Jacobian J of the
  generators; ``build_quotient`` rescales the variables by the lcm D of phi's
  denominators, so M_J is one int matrix, whose kernel over Z/p proves full
  rank when empty and, below it, the rank once its vectors lift to Q and
  check exactly (exact elimination is the fallback when no prime certifies).
  ``certify_radical`` is the one place that decides radicality, and it hands
  back the quotient it built so that no caller builds or ranks it twice,
* the points themselves via a floating-point eigendecomposition of a random
  linear combination of the multiplication matrices: phi is rational, so
  that combination is a real matrix and one real ``eig`` (LAPACK ``dgeev``)
  gives its eigenpairs, real ones real and complex ones in conjugate pairs,
* for a binomial phi, every phi_i = c_i * a0^(d_i - d0) (``_binomial``), no M_J
  and no ``eig``: its trace rank is r by separability, and its points are the
  grid of the roots of t^(d_i+1) = c_i, and
* the points refined by Newton's method on the chart generators, and the
  summand coefficients in closed form, c_j = 1/(C * J(p_j)) with C the
  multinomial (d; d0, ..., dn), by the Euler-Jacobi residue formula;
  ``verify_decomposition`` is the only judge of the result.

What depends on the monomial alone is one quotient plan per sorted exponent
tuple (``_quotient_plan``, cached), shared by every phi: the standard basis
and its index, per variable the unit shifts (b_i < d_i: column b of M_i is the
basis vector of b + e_i, ``shifts``) and the boundary columns (b_i = d_i: the
only columns the reduction makes, ``lifts``), and the chain b -> (i, b - e_i)
along which the columns of M_J are built.  A quotient stores only its
boundary columns, so ``build_quotient`` reduces only the boundary monomials,
``QuotientAlgebra.times`` is the one product by M_i (a unit step moves an
entry, a boundary step adds a column), the commutation check and M_J go
through it, and the real M_i is one scatter.  The plan holds nothing that
depends on phi.

Homogeneous ideal membership needs no completion either: with a0 the smallest
variable in grevlex the homogeneous generators of I(k, phi) have the coprime
leading terms a_i^(d_i+1), so one reduction by them decides it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import lcm
from operator import add

from .groebner import ci_normal_form, ci_normal_forms
from .ideals import CIIdeal, PhiTuple
from .linalg import _exactify, exact_rank, nullspace_mod_p, rational_reconstruction
from .monomials import Decomposition, MonomialSpec
from .monomials import verify_decomposition
from .polynomial import (
    DUAL,
    Exponent,
    SparsePoly,
    dehomogenize,
    evaluation_matrix,
    grevlex_key,
    multinomial,
)


class NonRadicalIdealError(ValueError):
    """Raised when an operation requires a radical ideal and the input is not."""


class PointExtractionError(RuntimeError):
    """Point extraction failed: an entry past float range, crowded points, a singular Jacobian."""


@dataclass
class QuotientAlgebra:
    """S/I(n, phi) in the chart a0 = 1, with its multiplication matrices.

    ``basis`` lists the standard monomials (exponent tuples over the full
    sorted frame, first entry always 0).  Column b of M_i is the basis vector
    of b + e_i when ``plan.shifts[i-1][b]`` names it; otherwise b_i = d_i and
    ``boundary[i-1][b]`` holds the normal form of b_i * basis[b] as sorted
    (row, int) pairs, in the variables b_j = D * a_j, D = ``scale``, so that
    every entry is an integer.  Entry (g, b) is D^(1 + |b| - |g|) times that
    of a_i in the variables a_j.  ``plan`` is the monomial's cached
    ``_QuotientPlan``, shared by all its quotients.  ``psi`` holds the int
    tails psi_i of the generators b_i^(d_i+1) - psi_i.
    """

    spec: MonomialSpec
    phi: PhiTuple
    basis: tuple[Exponent, ...]
    index: dict[Exponent, int]
    boundary: tuple[dict[int, tuple[tuple[int, int], ...]], ...]
    plan: _QuotientPlan
    scale: int = 1
    psi: tuple[SparsePoly, ...] = ()

    @property
    def dim(self) -> int:
        return len(self.basis)

    def times(self, var: int, pairs) -> list:
        """b_var (1-based variable index) times a vector given as (index, value) pairs.

        A dense vector ``vec`` goes in as ``enumerate(vec)``, a column as its
        pairs; the product comes out dense.
        """
        out = [0] * self.dim
        shifts, boundary = self.plan.shifts[var - 1], self.boundary[var - 1]
        for b, v in pairs:
            if v:
                if (g := shifts[b]) >= 0:
                    out[g] += v
                else:
                    for row, c in boundary[b]:
                        out[row] += c * v
        return out

    def dense_matrix(self, var: int) -> np.ndarray:
        """Real M_var in the variables a_j, filled by one scatter of its nonzero entries.

        A unit shift is 1.0; a boundary entry (g, b) is its int over D^(1 + |b| - |g|),
        so correctly rounded, and one past float range raises PointExtractionError naming
        the first such entry in column order.  phi is rational, so M_var is real and
        ``extract_points`` runs a real ``eig`` on it.
        """
        import numpy as np

        r, degree, boundary = self.dim, self.plan.degree, self.boundary[var - 1]
        powers = [self.scale ** k for k in range(max(degree) + 2)]
        flat = [g * r + b for b, g in enumerate(self.plan.shifts[var - 1]) if g >= 0]
        values = [1.0] * len(flat)
        try:
            for b, column in boundary.items():
                top = 1 + degree[b]
                for g, c in column:
                    values.append(c / powers[top - degree[g]])
                    flat.append(g * r + b)
        except OverflowError:
            raise PointExtractionError(f"eigenvalue stage: entry of M_{var} at row {g}, "
                                       f"column {b} is outside float range") from None
        m = np.zeros(r * r)
        m[flat] = values
        return m.reshape(r, r)

    @cached_property
    def _chart_system(self):
        """The chart generators g_i = a_i^(d_i+1) - phi_i(1, a) and their derivatives.

        Returns the exponents E over a_1..a_n and an array C of shape
        |E| x n x (n+1): column 0 holds the coefficients of g_i, column j those
        of dg_i/da_j, so ``_chart_values`` gives every g_i and the Jacobian at
        once.  Built on first use and kept with the quotient.
        """
        import numpy as np

        n = self.spec.n
        entries = {}  # (exponent, i, column) -> coefficient; no key comes up twice
        for i, (d, entry) in enumerate(zip(self.spec.exponents[1:], self.phi.entries)):
            lead = tuple((d + 1) * (k == i) for k in range(n))
            tail = [(e[1:], -c.numerator / c.denominator) for e, c in entry.terms.items()]
            for e, c in [(lead, 1)] + tail:
                entries[e, i, 0] = c
                for j, x in enumerate(e):
                    if x:
                        entries[e[:j] + (x - 1,) + e[j + 1:], i, j + 1] = c * x
        index = {e: k for k, e in enumerate(dict.fromkeys(e for e, _, _ in entries))}
        system = np.zeros((len(index), n, n + 1), dtype=complex)
        for (e, i, column), c in entries.items():
            system[index[e], i, column] = c
        return tuple(index), system


def standard_monomials(spec: MonomialSpec) -> list[Exponent]:
    """The r monomials a^b, b_0 = 0, b_i <= d_i (grevlex): a basis of S/I(n, phi) at a0 = 1."""
    box = product(*(range(d + 1) for d in spec.exponents[1:]))
    return sorted(((0,) + b for b in box), key=grevlex_key)


@dataclass(frozen=True)
class _QuotientPlan:
    """The phi-independent part of every quotient of one monomial (see the module docstring).

    Per variable i (position i - 1): ``shifts`` maps each column b to the index of b + e_i,
    or to -1 at a boundary column; ``lifts`` holds the (b, b + e_i) pairs of the boundary
    columns, in basis order.  ``chain`` gives, for each basis monomial after the first,
    (i, index of b - e_i) with i its first nonzero exponent.  Every quotient of the monomial
    holds this one object, so nothing may change it; ``build_quotient`` copies ``index``.
    """

    basis: tuple[Exponent, ...]
    index: dict[Exponent, int]
    degree: tuple[int, ...]
    shifts: tuple[tuple[int, ...], ...]
    lifts: tuple[tuple[tuple[int, Exponent], ...], ...]
    chain: tuple[tuple[int, int], ...]


@lru_cache(maxsize=64)
def _quotient_plan(exponents: Exponent) -> _QuotientPlan:
    """The plan of the monomial with sorted exponents (d0, ..., dn); a few KB at r = 64."""
    n = len(exponents) - 1
    basis = tuple(standard_monomials(MonomialSpec.from_exponents(exponents)))
    index = {e: i for i, e in enumerate(basis)}
    shifts, lifts = [], []
    for i in range(1, n + 1):
        lifted = [b[:i] + (b[i] + 1,) + b[i + 1:] for b in basis]
        shifts.append(tuple(index.get(t, -1) for t in lifted))
        lifts.append(tuple((b, t) for b, (t, g) in enumerate(zip(lifted, shifts[-1])) if g < 0))
    chain = []
    for b in basis[1:]:
        i = next(i for i, x in enumerate(b) if x)
        chain.append((i, index[b[:i] + (b[i] - 1,) + b[i + 1:]]))
    return _QuotientPlan(basis=basis, index=index, degree=tuple(map(sum, basis)),
                         shifts=tuple(shifts), lifts=tuple(lifts), chain=tuple(chain))


def build_quotient(spec: MonomialSpec, phi: PhiTuple) -> QuotientAlgebra:
    """Dehomogenize the generators at a0 = 1 and build the boundary columns of M_1..M_n.

    In the variables b_j = D * a_j, D the lcm of the denominators of phi's
    coefficients, a term c * a^e of psi_i becomes the int c * D^(d_i + 1 - |e|)
    (d_i + 1 - |e| >= d0 + 1), and every leading coefficient is 1, so the
    reduction runs in int.  It strictly drops degree (deg psi_i <= d_i - d0),
    so normal forms terminate; the unit shifts stay in the monomial's plan,
    and the boundary columns share one memo (``ci_normal_forms``), which
    reduces each nonstandard monomial once.  Pairwise commutation of the
    resulting matrices is asserted, failure would mean a reduction bug.  A
    coefficient that is not int or Fraction raises TypeError.
    """
    n = spec.n
    if len(phi) != n:
        raise ValueError("build_quotient needs a complete phi tuple (k = n)")
    other = {type(c) for p in phi.entries for c in p.terms.values()} - {int, Fraction}
    if other:
        raise TypeError(f"build_quotient requires int or Fraction coefficients in phi, "
                        f"got {other.pop().__name__}")
    scale = lcm(*(c.denominator for p in phi.entries for c in p.terms.values()))
    psi = tuple(SparsePoly(n + 1, DUAL, {e: c.numerator * scale ** (d + 1 - sum(e)) // c.denominator
                                     for e, c in dehomogenize(p, 0).terms.items()})
                for d, p in zip(spec.exponents[1:], phi.entries))
    plan = _quotient_plan(spec.exponents)
    index = dict(plan.index)
    outside = [t for lifts in plan.lifts for _, t in lifts]
    forms = ci_normal_forms(outside, spec.exponents, psi, index)
    boundary = tuple({b: tuple(sorted(forms[t].items())) for b, t in lifts} for lifts in plan.lifts)
    algebra = QuotientAlgebra(spec=spec, phi=phi, basis=plan.basis, index=index,
                              boundary=boundary, plan=plan, scale=scale, psi=psi)
    _assert_commuting(algebra)
    return algebra


def _assert_commuting(q: QuotientAlgebra):
    """M_i * (M_j e_b) must equal M_j * (M_i e_b) for every i < j and every b.

    Where both steps are unit shifts, both sides are the basis vector of b + e_i + e_j,
    which lies in the box; elsewhere both sides go through ``times``.
    """
    shifts = q.plan.shifts
    for i in range(1, q.spec.n + 1):
        for j in range(i + 1, q.spec.n + 1):
            for b, (unit_i, unit_j) in enumerate(zip(shifts[i - 1], shifts[j - 1])):
                if unit_i >= 0 and unit_j >= 0:
                    continue
                step_i = ((unit_i, 1),) if unit_i >= 0 else q.boundary[i - 1][b]
                step_j = ((unit_j, 1),) if unit_j >= 0 else q.boundary[j - 1][b]
                if q.times(i, step_j) != q.times(j, step_i):
                    raise AssertionError(f"multiplication matrices {i} and {j} do not commute "
                                         f"at column {b}")


# Mersenne primes tried in turn.  Any one proves full rank by an empty kernel, and 2^31 - 1
# packs a residue into 9 bytes of ``nullspace_mod_p`` instead of 17; kernel entries past the
# reconstruction bound isqrt(p // 2), about 2^15 for 2^31 - 1, lift modulo the product of the
# primes that agree on the free columns.
TRACE_PRIMES = (2**31 - 1, 2**61 - 1, 2**127 - 1, 2**521 - 1)


def _add_product(total: dict, f: dict, g: dict, sign: int):
    """total += sign * f * g, for polynomials held as {exponent: int} dicts."""
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(map(add, e1, e2))
            total[e] = total.get(e, 0) + sign * c1 * c2


def _jacobian_columns(q: QuotientAlgebra) -> list[list[int]]:
    """The r columns of M_J, J = det(dg_i/db_j) for the chart generators g_i = b_i^(d_i+1) - psi_i.

    J is one Laplace expansion over the nonzero entries, each minor computed
    once as an {exponent: int} dict: n products (``_add_product``) when every
    psi_i is constant.  Column 0 is the normal form of J, and column b is
    ``times(i, ...)`` of the earlier column b - e_i (the plan's ``chain``).
    """
    n, bounds = q.spec.n, q.spec.exponents
    rows = [[{e[:j] + (e[j] - 1,) + e[j + 1:]: -c * e[j] for e, c in tail.terms.items() if e[j]}
             for j in range(1, n + 1)] for tail in q.psi]  # -dpsi_i/db_j
    for i, row in enumerate(rows, start=1):  # deg psi_i < d_i, so no term of it reaches b_i^d_i
        row[i - 1][tuple(bounds[i] * (k == i) for k in range(n + 1))] = bounds[i] + 1
    minors = {(): {(0,) * (n + 1): 1}}

    def det(cols: tuple[int, ...]) -> dict:  # the last len(cols) rows against cols
        if cols not in minors:
            row, total = rows[n - len(cols)], {}
            for pos, j in enumerate(cols):
                if row[j]:
                    _add_product(total, row[j], det(cols[:pos] + cols[pos + 1:]), (-1) ** pos)
            minors[cols] = {e: c for e, c in total.items() if c}
        return minors[cols]

    form = ci_normal_form(det(tuple(range(n))), bounds, q.psi)
    columns = [[form.get(b, 0) for b in q.basis]]
    for i, lower in q.plan.chain:
        columns.append(q.times(i, enumerate(columns[lower])))
    return columns


def _lifts_to_exact_kernel(matrix: list[list[int]], kernel: list[list[int]], modulus: int,
                          powers: list[int], scale: int) -> bool:
    """True when the kernel basis mod ``modulus`` lifts to as many independent kernel vectors
    over Q.

    ``modulus`` is a product of primes none of which divides ``scale``, each with
    this kernel's free columns, so the rank over Q is at least ncols - len(kernel).
    ``matrix`` is M_J^T in the b_j = D * a_j, entry (g, b) of M_J a constant times
    D^(|b| - |g|) that in the a_j: v is in its kernel iff (D^(e_b) v_b), e_b =
    ``powers[b]`` = -|b|, is in the kernel in the a_j, free of powers of D.  With
    f the free column of v (v_f = 1, v_b = 0 after it), u_b = v_b * D^(e_b - e_f)
    mod the modulus is lifted by rational reconstruction, cleared of denominators
    and scaled back exactly, v_b = u_b * D^(t - e_b), t the largest e_b in the
    support; a zero residue lifts to 0, so only the nonzero entries are read.
    Each lift must be nonzero, end in a column no other lift ends in (so they are
    independent) and be annihilated exactly by ``matrix``: then the rank over Q
    is at most ncols - len(kernel) too.
    """
    ends = set()
    for vector in kernel:
        nonzero = [(i, v) for i, v in enumerate(vector) if v]
        e_free = powers[nonzero[-1][0]] if nonzero else 0
        lifts = [(i, rational_reconstruction(v * pow(scale, powers[i] - e_free, modulus) % modulus,
                                             modulus)) for i, v in nonzero]
        if any(x is None for _, x in lifts):
            return False
        entries = [(i, x) for i, x in lifts if x]
        if not entries or entries[-1][0] in ends:
            return False
        ends.add(entries[-1][0])
        common = lcm(*(x.denominator for _, x in entries))
        top = max(powers[i] for i, _ in entries)
        support = [(i, x.numerator * (common // x.denominator) * scale ** (top - powers[i]))
                   for i, x in entries]
        total = [0] * len(matrix)  # matrix times the lift, one support column at a time
        for i, x in support:
            total = [t + row[i] * x for t, row in zip(total, matrix)]
        if any(total):
            return False
    return True


def trace_form_rank(q: QuotientAlgebra) -> int:
    """Exact rank of the trace bilinear form; equals the number of distinct points.

    On a zero-dimensional complete intersection Tr(h) = Res(J * h) (Scheja &
    Storch, J. reine angew. Math. 1975), Res(h) the top coefficient of the
    normal form of h, so T = R * M_J with the perfect pairing R[a][b] =
    Res(basis[a] * basis[b]), and rank M_J = rank T.  The int columns of M_J
    are the rows ranked mod each p of ``TRACE_PRIMES`` in turn: the rank mod p
    never exceeds the rank over Q, so an empty kernel proves full rank at any
    of them, the first and cheapest included, and kernel vectors that lift to
    Q and check exactly prove the rank.  A kernel whose lifts fail (entries
    past the reconstruction bound, or a rank that only drops mod p) is kept:
    when the next prime's kernel has the same free columns, the two canonical
    bases are residues of one basis over Q, so they are joined by the Chinese
    remainder theorem and lifted modulo the product, whose bound isqrt(P // 2)
    grows with every prime.  When the free columns differ, the prime of higher
    rank is kept (on a tie, the newer).  A prime that divides D is skipped once
    its kernel is not empty.  After the last prime, exact elimination decides.
    A boundary entry that is not int raises TypeError.
    """
    other = {type(c) for cols in q.boundary for col in cols.values() for _, c in col} - {int}
    if other:
        raise TypeError(f"trace form requires int entries, got {other.pop().__name__}")
    matrix = _jacobian_columns(q)
    powers = [-sum(b) for b in q.basis]
    residues, modulus, kept = None, 1, None  # the kernel kept, its modulus and free columns
    for p in TRACE_PRIMES:
        kernel = nullspace_mod_p(matrix, p)
        if not kernel:
            return q.dim
        if q.scale % p == 0:
            continue
        free = [max(i for i, v in enumerate(vector) if v) for vector in kernel]
        if free == kept:
            inverse = pow(modulus, -1, p)
            residues = [[a + modulus * ((b - a) * inverse % p) for a, b in zip(old, new)]
                        for old, new in zip(residues, kernel)]
            modulus *= p
        elif residues is None or len(kernel) <= len(residues):
            residues, modulus, kept = kernel, p, free
        else:
            continue
        if _lifts_to_exact_kernel(matrix, residues, modulus, powers, q.scale):
            return q.dim - len(residues)
    return exact_rank(matrix)


@dataclass(frozen=True)
class RadicalityCertificate:
    """The verdict with its quotient algebra and trace rank; both None after a zero phi entry."""

    radical: bool
    quotient: QuotientAlgebra | None
    trace_rank: int | None


def _binomial(phi: PhiTuple) -> bool:
    """True when every phi_i is one term c_i * a0^(d_i - d0), c_i != 0: the chart generators
    are then the binomials a_i^(d_i+1) - c_i."""
    return all(len(p.terms) == 1 and not any(next(iter(p.terms))[1:]) for p in phi.entries)


def certify_radical(spec: MonomialSpec, phi: PhiTuple) -> RadicalityCertificate:
    """Decide whether I(n, phi) cuts out r distinct reduced points.

    A zero entry in phi forces a_i^(d_i+1) into the ideal, which already rules
    out reducedness, so that case short-circuits without building the algebra.
    A binomial phi (``_binomial``) has trace rank r with no M_J: in the chart
    the algebra is the tensor product of the Q[t]/(t^m - c_i), m = d_i + 1, and
    for c != 0 gcd(t^m - c, m * t^(m-1)) = 1 over Q, so each factor is reduced
    with m distinct roots and the product has r distinct points, rank M_J = r.
    """
    if len(phi) != spec.n:
        raise ValueError("radicality is decided for complete tuples only")
    if any(not p for p in phi.entries):
        return RadicalityCertificate(False, None, None)
    q = build_quotient(spec, phi)
    rank = q.dim if _binomial(phi) else trace_form_rank(q)
    return RadicalityCertificate(rank == q.dim, q, rank)


def ideal_membership(poly: SparsePoly, ideal: CIIdeal) -> bool:
    """Exact homogeneous membership: the normal form by the generators is zero."""
    if not poly.is_homogeneous():
        raise ValueError("membership test expects a homogeneous polynomial")
    return not ci_normal_form(poly.terms, ideal.spec.exponents, ideal.tails)


class PointSet:
    """Projective points, normalized to a0 = 1 whenever the chart allows.

    ``tol`` is the separation the points were extracted with; ``residuals``
    reports, per point, the worst relative error on a generator.  A set from
    ``extract_points`` holds its points as one r x (n+1) complex array,
    ``coords`` (a0 = 1 in column 0), with the Jacobian determinant J(p_j) of
    the chart generators at each point, ``jacobian``, and builds ``points``
    from ``coords`` on first use; a set built from ``points`` has neither array.
    """

    def __init__(self, points: tuple[tuple, ...], tol: float | None = None,
                 residuals: tuple[float, ...] | None = None):
        self._points, self.tol, self.residuals = points, tol, residuals
        self.coords = self.jacobian = None

    @classmethod
    def _refined(cls, coords, jacobian, tol: float, residuals: tuple[float, ...]) -> PointSet:
        points = cls(None, tol, residuals)
        points.coords, points.jacobian = coords, jacobian
        return points

    @property
    def points(self) -> tuple[tuple, ...]:
        if self._points is None:
            self._points = tuple(map(tuple, self.coords.tolist()))
        return self._points

    def __len__(self) -> int:
        return len(self.points) if self.coords is None else len(self.coords)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return ((self.points, self.tol, self.residuals)
                == (other.points, other.tol, other.residuals))

    def __repr__(self) -> str:
        return f"PointSet(points={self.points!r}, tol={self.tol!r}, residuals={self.residuals!r})"


def _coords(points) -> list:
    """The coordinate tuples of a PointSet or of a plain sequence of points."""
    return list(points.points if isinstance(points, PointSet) else points)


# Newton steps on the eigenvalue points: each about doubles their correct digits
NEWTON_STEPS = 2


def _chart_values(q: QuotientAlgebra, coords):
    """g_i and dg_i/da_j at each row of ``coords`` (a_1..a_n): shape r x n x (n+1), column 0 g_i."""
    exponents, system = q._chart_system
    n = q.spec.n
    flat = system.reshape(len(exponents), n * (n + 1))
    return (evaluation_matrix(coords, exponents) @ flat).reshape(len(coords), n, n + 1)


def _point_order(coords) -> list[int]:
    """The rows of ``coords`` (r x n complex) sorted by (re, im) of each coordinate, rounded
    to 9 digits as ``round(x, 9)`` rounds them: flattened pairs compare as the pairs do.

    The keys are rint(x * 1e9) / 1e9, one numpy pass.  Below 2^52 the product moves
    x * 1e9 by at most half a float step, and every half-integer there is a float, so
    it crosses none without landing on it; those entries, found with a margin of 1e-6,
    and the ones at 2^52 and above, which have no fraction left, take ``round`` itself.
    A stable ``lexsort`` then orders the rows as ``sorted`` orders the key tuples.  NaN
    and infinities take the tuples throughout, as NaN compares false both ways, and so
    do rows with no coordinates.
    """
    import numpy as np

    pairs = np.ascontiguousarray(coords).view(float)  # re, im, re, im, ...
    if not (pairs.size and np.isfinite(pairs).all()):
        width = (9,) * pairs.shape[1]
        keys = [tuple(map(round, row, width)) for row in pairs.tolist()]
        return sorted(range(len(keys)), key=keys.__getitem__)
    scaled = pairs * 1e9
    keys = np.rint(scaled) / 1e9
    doubtful = (np.abs(scaled - np.floor(scaled) - 0.5) <= 1e-6) | (np.abs(scaled) >= 2.0**52)
    for j, k in zip(*np.nonzero(doubtful)):
        keys[j, k] = round(float(pairs[j, k]), 9)
    return np.lexsort(keys.T[::-1]).tolist()


def _binomial_points(q: QuotientAlgebra):
    """The grid of the roots of t^m = c_i, m = d_i + 1, of a binomial phi: r x n complex.

    Root k is |c|^(1/m) * e^(i * theta_k), theta_k = (2k + [c < 0]) * pi / m; a root past
    its own conjugate takes that conjugate and a real one is exactly +-|c|^(1/m), so the
    grid is closed under conjugation exactly.  A c_i past float range raises as in
    ``dense_matrix``, every boundary entry of M_i being c_i."""
    import numpy as np

    roots = []
    for i, (d, entry) in enumerate(zip(q.spec.exponents[1:], q.phi.entries), start=1):
        (c,), m = entry.terms.values(), d + 1
        try:
            size = abs(float(c)) ** (1 / m)
        except OverflowError:  # so is each boundary entry of M_i; this raises at the first
            q.dense_matrix(i)
            raise
        k = np.arange(m)
        mirror = (-k - (c < 0)) % m  # theta_mirror = 2 * pi - theta_k
        unit = np.exp(1j * np.pi / m * (2 * k + (c < 0)))
        roots.append(size * np.where(k < mirror, unit, np.where(k == mirror, unit.real.round(),
                                                                unit[mirror].conj())))
    return np.array(list(product(*roots)), dtype=complex).reshape(q.dim, q.spec.n)


def extract_points(q: QuotientAlgebra, tol: float = 1e-8, seed: int = 0) -> PointSet:
    """Eigenvalue method (or the root grid of a binomial phi), then Newton's method.

    ``q`` must be the quotient of a phi that ``certify_radical`` found
    radical, so that it has r distinct reduced points.  A seeded random real
    combination M of the multiplication matrices, itself a real matrix, is
    eigendecomposed by one real ``eig``; each left eigenvector (complex ones
    come in conjugate pairs) is up to scale the evaluation vector of the basis
    monomials at one point, so after normalizing the constant coordinate to 1
    the degree-one coordinates are the point itself.  An eigenvector with a
    vanishing constant coordinate raises.  A binomial phi takes the root grid
    of ``_binomial_points`` instead, and ``seed`` moves nothing.  A point within
    ``tol * min(1, s)`` of an earlier one in every coordinate raises, s the largest
    |a_k| over all points (one max-abs distance matrix): a cloud near the
    origin is told apart relative to its extent, while a double point at the
    origin of a larger cloud still raises.  Then ``NEWTON_STEPS`` batched
    Newton steps on g_i = a_i^(d_i+1) - phi_i(1, a) refine every point at
    once (one solve over the r stacked n x n Jacobians; a singular one
    raises), and the points are sorted.  ``residuals`` holds, per point, the
    largest |g_i(p)| / max(1, max_k |p_k|^(d_i+1)) at the refined points, and
    the same evaluation of the chart system gives the Jacobian determinants
    J(p_j) that ``_fit_decomposition`` needs.
    """
    import numpy as np

    n, r = q.spec.n, q.dim
    if _binomial(q.phi):
        coords = _binomial_points(q)
    else:
        weights = np.random.default_rng(seed).uniform(0.5, 1.5, size=n)
        m = sum((weights[i - 1] * q.dense_matrix(i) for i in range(1, n + 1)), np.zeros((r, r)))
        _, vectors = np.linalg.eig(m.T)
        vectors = vectors.astype(complex)  # real when every eigenvalue is
        one_idx = q.index[(0,) * (n + 1)]
        var_idx = [q.index[tuple(1 if j == i else 0 for j in range(n + 1))] for i in range(1, n + 1)]
        vectors = vectors / np.linalg.norm(vectors, axis=0)
        lead = vectors[one_idx]
        scale = np.linalg.norm(vectors[[one_idx] + var_idx], axis=0)  # of the degree <= 1 window
        if (np.abs(lead) < 1e-12 * scale).any():
            raise PointExtractionError(
                "eigenvector has vanishing constant coordinate; "
                "the combination matrix looks non-diagonalizable"
            )
        coords = (vectors[var_idx] / lead).T  # one row per eigenvector, a0 dropped

    # distances in units of the cloud's extent, at most 1: shrinking a small cloud keeps the
    # verdict; a cloud all at the origin keeps tol, so coincident points there still raise
    limit = tol * min(1.0, np.abs(coords).max(initial=0.0)) or tol
    near = np.abs(coords[:, None, :] - coords[None, :, :]).max(axis=2, initial=0.0) < limit
    crowded = int(np.tril(near, -1).any(axis=1).sum())  # within limit of some earlier point
    if crowded:
        raise PointExtractionError(f"expected {r} separated points: {crowded} within "
                                   f"tol={tol} of an earlier one")

    for _ in range(NEWTON_STEPS):
        values = _chart_values(q, coords)
        try:
            coords = coords - np.linalg.solve(values[..., 1:], values[..., :1])[..., 0]
        except np.linalg.LinAlgError:
            j = int(np.abs(np.linalg.det(values[..., 1:])).argmin())
            raise PointExtractionError(f"Newton step: the Jacobian at eigenvector {j} "
                                       "is singular") from None
    coords = coords[_point_order(coords)]

    values = _chart_values(q, coords)  # the residuals, and J(p_j) for the fit
    tops = np.abs(coords).max(axis=1, initial=1.0)  # a0 = 1 takes part in the max
    powers = np.array(q.spec.exponents[1:], dtype=float) + 1
    gaps = np.abs(values[..., 0]) / tops[:, None] ** powers
    full = np.ones((r, n + 1), dtype=complex)
    full[:, 1:] = coords
    return PointSet._refined(full, np.linalg.det(values[..., 1:]), tol,
                             tuple(gaps.max(axis=1, initial=0.0).tolist()))


def in_chart(spec: MonomialSpec, points) -> list[tuple]:
    """The r points (n + 1 coordinates each) scaled to a0 = 1, exactly on exact coordinates;
    once any point holds a float coordinate every point is complex, as ``linalg.solve``
    reads them all.  A wrong point count or length, a0 = 0 or a value past float range
    raises ValueError.
    """
    coords_list = _coords(points)
    if len(coords_list) != spec.rank:
        raise ValueError(f"expected {spec.rank} points, got {len(coords_list)}")
    floats = any(isinstance(c, (float, complex)) for p in coords_list for c in p)
    for j, p in enumerate(coords_list):
        if len(p) != spec.n + 1:
            raise ValueError(f"point {j}: expected {spec.n + 1} coordinates, got {len(p)}")
        if floats:
            try:
                p = coords_list[j] = [complex(c) for c in p]
            except OverflowError:
                raise ValueError(f"point {j} is outside float range") from None
        if not p[0]:
            raise ValueError(f"point {j} has a0 = 0: it is outside the chart a0 = 1")
    return [tuple(c / p[0] for c in _exactify(p)) for p in coords_list]


def _fit_decomposition(q: QuotientAlgebra, points: PointSet, tol: float) -> Decomposition:
    """sum_j c_j * (l_j)^d = monomial with c_j = 1/(C * J(p_j)), judged by ``verify_decomposition``.

    ``points`` come from ``extract_points(q)``, so a0 = 1.  The monomial asks
    sum_j c_j p_j^b = [b = top] / C on the standard monomials b, C = (d; d0, ..., dn),
    and by Euler-Jacobi (Cattani, Dickenstein & Sturmfels 1998) sum_j p_j^b / J(p_j)
    is the residue of a^b, [b = top], J = det(dg_i/da_j).  A zero or non-finite
    J(p_j) raises PointExtractionError; a check failed to ``tol``, NonRadicalIdealError.
    The coordinates and J(p_j) come as arrays from ``extract_points``; a point set
    built by hand has its points put into one array and the chart system evaluated.
    """
    import numpy as np

    spec = q.spec
    coords, det = points.coords, points.jacobian
    if coords is None:
        coords = np.array(points.points, dtype=complex).reshape(len(points), spec.n + 1)
        det = np.linalg.det(_chart_values(q, coords[:, 1:])[..., 1:])
    bad = np.flatnonzero(~np.isfinite(det) | (det == 0))
    if bad.size:
        raise PointExtractionError(f"coefficient fit: |J| = {abs(det[bad[0]]):.3e} at point "
                                   f"{bad[0]}, so c = 1/(C*J) is not finite")
    coeffs = 1 / (multinomial(spec.degree, spec.exponents) * det)
    dec = Decomposition.from_arrays(spec, coeffs, coords)
    report = verify_decomposition(spec, dec, tol)
    if not report.ok:
        raise NonRadicalIdealError(
            f"power-expansion system is inconsistent (residual {report.max_error:.3e}, tol {tol}); "
            "the points are not a power-sum configuration for this monomial"
        )
    dec.verified = report.mode
    dec.residual = report.max_error
    return dec

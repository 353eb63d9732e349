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
  linear combination of the multiplication matrices, and
* the summand coefficients from one square solve on the standard monomials,
  which the certified points make nonsingular; ``verify_decomposition`` is
  the only judge of the result.

Homogeneous ideal membership needs no completion either: with a0 the smallest
variable in grevlex the homogeneous generators of I(k, phi) have the coprime
leading terms a_i^(d_i+1), so one reduction by them decides it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm

from .groebner import ci_normal_form
from .ideals import CIIdeal, PhiTuple, generator_tails
from .linalg import (
    LinearSolveError,
    _all_exact,
    _exactify,
    exact_rank,
    exact_solve,
    nullspace_mod_p,
    rational_reconstruction,
)
from .monomials import COMPLEX_FLOAT, EXACT_CYCLOTOMIC, Decomposition, MonomialSpec
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
    """Point extraction failed: an entry outside float range, or no r separated points."""


@dataclass
class QuotientAlgebra:
    """S/I(n, phi) in the chart a0 = 1, with its multiplication matrices.

    ``basis`` lists the standard monomials (exponent tuples over the full
    sorted frame, first entry always 0); ``columns[i-1][b]`` holds the normal
    form of b_i * basis[b] as sparse (row, int) pairs, in the variables
    b_j = D * a_j, D = ``scale``, so that every entry is an integer.  Entry
    (g, b) is D^(1 + |b| - |g|) times that of a_i in the variables a_j.
    ``psi`` holds the int tails psi_i of the generators b_i^(d_i+1) - psi_i.
    """

    spec: MonomialSpec
    phi: PhiTuple
    basis: tuple[Exponent, ...]
    index: dict[Exponent, int]
    columns: tuple[tuple[tuple[tuple[int, int], ...], ...], ...]
    scale: int = 1
    psi: tuple[SparsePoly, ...] = ()

    @property
    def dim(self) -> int:
        return len(self.basis)

    def apply(self, var: int, pairs) -> list:
        """Multiply a vector, given as (index, value) pairs, by b_var (1-based variable index).

        A dense vector ``vec`` goes in as ``enumerate(vec)``, a column of
        ``columns`` as it is; the product comes out dense.
        """
        out = [0] * self.dim
        for col_idx, v in pairs:
            if v:
                for row, c in self.columns[var - 1][col_idx]:
                    out[row] = out[row] + c * v
        return out

    def dense_matrix(self, var: int) -> np.ndarray:
        """M_var in the variables a_j: each int entry over its power of D, correctly rounded."""
        import numpy as np

        degree = [sum(b) for b in self.basis]
        m = np.zeros((self.dim, self.dim), dtype=complex)
        for col_idx, col in enumerate(self.columns[var - 1]):
            for row, c in col:
                try:
                    m[row, col_idx] = c / self.scale ** (1 + degree[col_idx] - degree[row])
                except OverflowError:
                    raise PointExtractionError(f"eigenvalue stage: entry of M_{var} at row {row}, "
                                               f"column {col_idx} is outside float range") from None
        return m


def standard_monomials(spec: MonomialSpec) -> list[Exponent]:
    """The r monomials a^b, b_0 = 0, b_i <= d_i (grevlex): a basis of S/I(n, phi) at a0 = 1."""
    box = product(*(range(d + 1) for d in spec.exponents[1:]))
    return sorted(((0,) + b for b in box), key=grevlex_key)


def build_quotient(spec: MonomialSpec, phi: PhiTuple) -> QuotientAlgebra:
    """Dehomogenize the generators at a0 = 1 and build the multiplication matrices.

    In the variables b_j = D * a_j, D the lcm of the denominators of phi's
    coefficients, a term c * a^e of psi_i becomes the int c * D^(d_i + 1 - |e|)
    (d_i + 1 - |e| >= d0 + 1), and every leading coefficient is 1, so the
    reduction runs in int.  It strictly drops degree (deg psi_i <= d_i - d0),
    so normal forms terminate; pairwise commutation of the resulting matrices
    is asserted, failure would mean a reduction bug.  A coefficient that is
    not int or Fraction raises TypeError.
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
    bounds = spec.exponents
    basis = standard_monomials(spec)
    index = {e: i for i, e in enumerate(basis)}

    columns = []
    for i in range(1, n + 1):
        cols_i = []
        for e in basis:
            lifted = tuple(ei + 1 if j == i else ei for j, ei in enumerate(e))
            if lifted in index:
                cols_i.append(((index[lifted], 1),))
            else:
                reduced = ci_normal_form({lifted: 1}, bounds, psi)
                cols_i.append(tuple(sorted((index[t], c) for t, c in reduced.items())))
        columns.append(tuple(cols_i))

    algebra = QuotientAlgebra(spec=spec, phi=phi, basis=tuple(basis), index=index,
                              columns=tuple(columns), scale=scale, psi=psi)
    _assert_commuting(algebra)
    return algebra


def _assert_commuting(q: QuotientAlgebra):
    """Column b of M_i * M_j is M_i applied to column b of M_j; it must equal that of M_j * M_i."""
    for i in range(1, q.spec.n + 1):
        for j in range(i + 1, q.spec.n + 1):
            for b in range(q.dim):
                if q.apply(i, q.columns[j - 1][b]) != q.apply(j, q.columns[i - 1][b]):
                    raise AssertionError(
                        f"multiplication matrices {i} and {j} do not commute"
                    )


# Mersenne primes tried in turn: a larger one lifts larger kernel entries, on larger residues
TRACE_PRIMES = (2**61 - 1, 2**127 - 1, 2**521 - 1)


def _jacobian_columns(q: QuotientAlgebra) -> list[list[int]]:
    """The r columns of M_J, J = det(dg_i/db_j) for the chart generators g_i = b_i^(d_i+1) - psi_i.

    J is one Laplace expansion over the nonzero entries, each minor computed
    once: n products when every psi_i is constant.  Column 0 is the normal
    form of J, and column b is b_i times the earlier column b - e_i.
    """
    n, bounds = q.spec.n, q.spec.exponents
    rows = [[SparsePoly(n + 1, DUAL, {tuple(x - (k == j) for k, x in enumerate(e)): -c * e[j]
                                      for e, c in tail.terms.items() if e[j]})
             for j in range(1, n + 1)] for tail in q.psi]  # -dpsi_i/db_j
    for i, row in enumerate(rows, start=1):
        lead = tuple(bounds[i] * (k == i) for k in range(n + 1))
        row[i - 1] = row[i - 1] + SparsePoly.monomial(n + 1, DUAL, lead, bounds[i] + 1)
    minors = {(): SparsePoly.constant(n + 1, DUAL, 1)}

    def det(cols: tuple[int, ...]) -> SparsePoly:  # the last len(cols) rows against cols
        if cols not in minors:
            row, total = rows[n - len(cols)], SparsePoly(n + 1, DUAL)
            for pos, j in enumerate(cols):
                if row[j]:
                    term = row[j] * det(cols[:pos] + cols[pos + 1:])
                    total = total - term if pos % 2 else total + term
            minors[cols] = total
        return minors[cols]

    form = ci_normal_form(det(tuple(range(n))).terms, bounds, q.psi)
    columns = [[form.get(b, 0) for b in q.basis]]
    for b in q.basis[1:]:
        i = next(i for i, x in enumerate(b) if x)
        lower = q.index[tuple(x - (k == i) for k, x in enumerate(b))]
        columns.append(q.apply(i, enumerate(columns[lower])))
    return columns


def _lifts_to_exact_kernel(matrix: list[list[int]], kernel: list[list[int]], p: int,
                          powers: list[int], scale: int) -> bool:
    """True when the kernel basis mod p lifts to as many independent kernel vectors over Q.

    ``matrix`` is M_J^T in the b_j = D * a_j, entry (g, b) of M_J a constant times
    D^(|b| - |g|) that in the a_j: v is in its kernel iff (D^(e_b) v_b), e_b =
    ``powers[b]`` = -|b|, is in the kernel in the a_j, free of powers of D.  With
    f the free column of v (v_f = 1, v_b = 0 after it), u_b = v_b * D^(e_b - e_f)
    mod p is lifted by rational reconstruction, cleared of denominators and
    scaled back exactly, v_b = u_b * D^(t - e_b), t the largest e_b in the
    support.  Each lift must be nonzero, end in a column no other lift ends in
    (so they are independent) and be annihilated exactly by ``matrix``: then
    the rank over Q is at most ncols - len(kernel), the rank mod p, its bound.
    """
    if scale % p == 0:
        return False
    weight = [pow(scale, e, p) for e in powers]
    ends = set()
    for vector in kernel:
        unit = pow(weight[max(i for i, v in enumerate(vector) if v)], -1, p)
        entries = [rational_reconstruction(v * w * unit % p, p) for v, w in zip(vector, weight)]
        if any(x is None for x in entries):
            return False
        common = lcm(*(x.denominator for x in entries))
        top = max((powers[i] for i, x in enumerate(entries) if x), default=0)
        support = [(i, x.numerator * (common // x.denominator) * scale ** (top - powers[i]))
                   for i, x in enumerate(entries) if x]
        if not support or support[-1][0] in ends:
            return False
        ends.add(support[-1][0])
        if any(sum(row[i] * x for i, x in support) for row in matrix):
            return False
    return True


def trace_form_rank(q: QuotientAlgebra) -> int:
    """Exact rank of the trace bilinear form; equals the number of distinct points.

    On a zero-dimensional complete intersection Tr(h) = Res(J * h) (Scheja &
    Storch, J. reine angew. Math. 1975), Res(h) the top coefficient of the
    normal form of h, so T = R * M_J with the perfect pairing R[a][b] =
    Res(basis[a] * basis[b]), and rank M_J = rank T.  The int columns of M_J
    are the rows ranked mod each p of ``TRACE_PRIMES`` in turn: the rank mod p
    never exceeds the rank over Q, so an empty kernel proves full rank, and
    kernel vectors that lift to Q prove the rank; after the last prime, exact
    elimination decides.  A column entry that is not int raises TypeError.
    """
    other = {type(c) for cols in q.columns for col in cols for _, c in col} - {int}
    if other:
        raise TypeError(f"trace form requires int entries, got {other.pop().__name__}")
    matrix = _jacobian_columns(q)
    powers = [-sum(b) for b in q.basis]
    for p in TRACE_PRIMES:
        kernel = nullspace_mod_p(matrix, p)
        if not kernel:
            return q.dim
        if _lifts_to_exact_kernel(matrix, kernel, p, powers, q.scale):
            return q.dim - len(kernel)
    return exact_rank(matrix)


@dataclass(frozen=True)
class RadicalityCertificate:
    """The verdict with its quotient algebra and trace rank; both None after a zero phi entry."""

    radical: bool
    quotient: QuotientAlgebra | None
    trace_rank: int | None


def certify_radical(spec: MonomialSpec, phi: PhiTuple) -> RadicalityCertificate:
    """Decide whether I(n, phi) cuts out r distinct reduced points.

    A zero entry in phi forces a_i^(d_i+1) into the ideal, which already rules
    out reducedness, so that case short-circuits without building the algebra.
    """
    if len(phi) != spec.n:
        raise ValueError("radicality is decided for complete tuples only")
    if any(not p for p in phi.entries):
        return RadicalityCertificate(False, None, None)
    q = build_quotient(spec, phi)
    rank = trace_form_rank(q)
    return RadicalityCertificate(rank == q.dim, q, rank)


def ideal_membership(poly: SparsePoly, ideal: CIIdeal) -> bool:
    """Exact homogeneous membership: the normal form by the generators is zero."""
    if not poly.is_homogeneous():
        raise ValueError("membership test expects a homogeneous polynomial")
    tails = generator_tails(ideal.spec, ideal.phi.entries)
    return not ci_normal_form(poly.terms, ideal.spec.exponents, tails)


@dataclass
class PointSet:
    """Projective points, normalized to a0 = 1 whenever the chart allows.

    ``tol`` is the separation the points were extracted with; ``residuals``
    reports, per point, the worst relative error on a generator.
    """

    points: tuple[tuple, ...]
    tol: float | None = None
    residuals: tuple[float, ...] | None = None

    def __len__(self) -> int:
        return len(self.points)


def _coords(points) -> list:
    """The coordinate tuples of a PointSet or of a plain sequence of points."""
    return list(points.points if isinstance(points, PointSet) else points)


def points_from_decomposition(dec, spec: MonomialSpec) -> PointSet:
    """The point set of a decomposition's forms, rescaled to a0 = 1, sorted frame."""
    pts = []
    for _, form in dec.summands:
        sorted_coords = _exactify(form.coeffs[spec.positions[i]] for i in range(spec.n + 1))
        lead = sorted_coords[0]
        if not lead:
            raise ValueError("form has zero a0 coordinate; cannot normalize")
        pts.append(tuple(c / lead for c in sorted_coords))
    return PointSet(points=tuple(pts))


def extract_points(q: QuotientAlgebra, tol: float = 1e-8, seed: int = 0) -> PointSet:
    """Eigenvalue method: read the points off the eigenvectors of a random combination.

    ``q`` must be the quotient of a phi that ``certify_radical`` found
    radical, so that it has r distinct reduced points.  A seeded random real
    combination M of the multiplication matrices is eigendecomposed; each
    left eigenvector is (up to scale) the evaluation vector of the basis
    monomials at one point, so after normalizing the constant coordinate to 1
    the degree-one coordinates are the point itself.  An eigenvector with a
    vanishing constant coordinate raises, and so does a point within
    ``tol * min(1, s)`` of an earlier one in every coordinate, s the largest
    |a_k| over all points (one max-abs distance matrix): a cloud near the
    origin is told apart relative to its extent, while a double point at the
    origin of a larger cloud still raises.  The generator residuals are
    evaluated on the array of points.
    """
    import numpy as np

    spec, n, r = q.spec, q.spec.n, q.dim
    weights = np.random.default_rng(seed).uniform(0.5, 1.5, size=n)
    m = sum((weights[i - 1] * q.dense_matrix(i) for i in range(1, n + 1)), np.zeros((r, r)))
    _, vectors = np.linalg.eig(m.T)

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
    rows = [(1.0 + 0j,) + tuple(row) for row in coords.tolist()]
    order = sorted(range(r), key=lambda a: tuple(
        (round(x.real, 9), round(x.imag, 9)) for x in rows[a]))
    points = [rows[a] for a in order]

    # generator a_i^(d_i+1) - phi_i at each point; a0 = 1, so the homogeneous phi_i serves
    cloud = np.array(points, dtype=complex).reshape(r, n + 1)
    residuals = np.zeros(r)
    tops = np.abs(cloud).max(axis=1)
    for i, entry in enumerate(q.phi.entries, start=1):
        d = spec.exponents[i]
        lifted = tuple(d + 1 if j == i else 0 for j in range(n + 1))
        values = evaluation_matrix(cloud, (lifted,) + tuple(entry.terms))
        rhs = values[:, 1:] @ np.array([complex(c) for c in entry.terms.values()])
        gap = np.abs(values[:, 0] - rhs) / np.maximum(1.0, tops ** (d + 1))
        residuals = np.maximum(residuals, gap)

    return PointSet(points=tuple(points), tol=tol, residuals=tuple(residuals.tolist()))


def in_chart(spec: MonomialSpec, points) -> list[tuple]:
    """The r points (n + 1 coordinates each) scaled to a0 = 1, exactly on exact coordinates."""
    coords_list = _coords(points)
    if len(coords_list) != spec.rank:
        raise ValueError(f"expected {spec.rank} points, got {len(coords_list)}")
    for j, p in enumerate(coords_list):
        if len(p) != spec.n + 1:
            raise ValueError(f"point {j}: expected {spec.n + 1} coordinates, got {len(p)}")
    if any(not p[0] for p in coords_list):
        raise NonRadicalIdealError("points must have nonzero a0 coordinate")
    return [tuple(c / p[0] for c in _exactify(p)) for p in coords_list]


def _fit_decomposition(spec: MonomialSpec, points, tol: float) -> Decomposition:
    """sum_j c_j * (l_j)^d = monomial by one r x r solve, judged by ``verify_decomposition``.

    With each point scaled to a0 = 1, the x^e coefficient at e = (d - |b|, b)
    is (d; e) * sum_j c_j p_j^b; over the standard monomials b that reads
    V^T c = e_top / (d; d0, ..., dn), V[j][b] = p_j^b, top = (0, d1, ..., dn).
    The r points of a radical I(n, phi) make V nonsingular, so the solve takes
    no rank gate.  Exact points keep scalar rows and an exact solve, and give
    an exact decomposition, checked exactly; float points give V as one array
    evaluation and a decomposition checked to ``tol`` that carries its
    residual.  Sorted-frame points are read as forms.  A singular V or a
    failed check raises NonRadicalIdealError: no power-sum configuration for
    the monomial has these points.
    """
    basis = standard_monomials(spec)
    top = (0,) + spec.exponents[1:]
    rhs = [int(b == top) for b in basis]
    chart = in_chart(spec, points)
    singular = "the points are not distinct (V is singular)"
    if exact := _all_exact(chart):
        try:
            solution = exact_solve(list(zip(*evaluation_matrix(chart, basis))), rhs)
        except LinearSolveError:
            raise NonRadicalIdealError(singular) from None
    else:
        import numpy as np

        cloud = np.array(chart, dtype=complex)
        try:  # V is not kept: it would stay alive through the verification below
            solution = np.linalg.solve(evaluation_matrix(cloud, basis).T, rhs).tolist()
        except np.linalg.LinAlgError:
            raise NonRadicalIdealError(singular) from None
    coords_list = _coords(points)
    scale = multinomial(spec.degree, spec.exponents)
    dec = Decomposition(spec.degree, EXACT_CYCLOTOMIC if exact else COMPLEX_FLOAT, tuple(
        (x / (scale * p[0] ** spec.degree), spec.form_to_original(p))
        for x, p in zip(solution, coords_list)))
    report = verify_decomposition(spec, dec, tol)
    if not report.ok:
        detail = "" if report.mode == "exact" else f" (residual {report.max_error:.3e}, tol {tol})"
        raise NonRadicalIdealError(
            f"power-expansion system is inconsistent{detail}; "
            "the points are not a power-sum configuration for this monomial"
        )
    dec.verified = report.mode
    if report.mode == "numeric":
        dec.residual = report.max_error
    return dec


def fit_coefficients(spec: MonomialSpec, points, tol: float = 1e-6):
    """Solve sum_j c_j * (l_j)^d = monomial for the coefficients c_j.

    ``points`` may be a PointSet or a plain sequence of sorted-frame coordinate
    tuples (the latter allows unnormalized forms).  ``verify_decomposition``
    judges the solution, exactly on exact points and to ``tol`` on floats;
    no power-sum configuration for the monomial raises NonRadicalIdealError.
    """
    return [c for c, _ in _fit_decomposition(spec, points, tol).summands]

"""Zero-dimensional solving of the decomposition ideals I(n, phi).

In the affine chart a0 = 1 the dehomogenized generators g_i = a_i^(d_i+1) - psi_i
have pairwise coprime leading monomials, so they already form a reduction basis:
normal forms are supported on the r = (d1+1)*...*(dn+1) standard monomials
a^e with e_i <= d_i.  From the multiplication matrices on that basis we get

* an exact radicality certificate (the rank of the trace bilinear form equals
  the number of distinct points of the scheme); the form is built once, as an
  integer matrix after rescaling the variables for rational entries, and its
  kernel is taken over Z/p: an empty kernel proves full rank, and below full
  rank the kernel vectors lifted to Q and checked exactly prove the rank mod
  p is the rank over Q, so ``trace_form_rank`` is always the exact rank
  (exact elimination remains only as the fallback when no prime certifies).
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

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from math import lcm, prod

from .cyclotomic import CycloScalar
from .groebner import ci_normal_form
from .ideals import CIIdeal, PhiTuple, generator_tails
from .linalg import (
    RankDeficientSystem,
    _all_exact,
    _exactify,
    _is_exact_scalar,
    exact_rank,
    nullspace_mod_p,
    rational_reconstruction,
    solve_nonsingular,
)
from .monomials import COMPLEX_FLOAT, EXACT_CYCLOTOMIC, Decomposition, MonomialSpec
from .monomials import verify_decomposition
from .polynomial import (
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
    form of a_i * basis[b] as sparse (row, coeff) pairs.
    """

    spec: MonomialSpec
    phi: PhiTuple
    basis: tuple[Exponent, ...]
    index: dict[Exponent, int]
    columns: tuple[tuple[tuple[tuple[int, object], ...], ...], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_exact(self) -> bool:
        return all(
            _is_exact_scalar(c) for cols in self.columns for col in cols for _, c in col
        )

    def apply(self, var: int, pairs) -> list:
        """Multiply a vector, given as (index, value) pairs, by a_var (1-based variable index).

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
        import numpy as np

        m = np.zeros((self.dim, self.dim), dtype=complex)
        for col_idx, col in enumerate(self.columns[var - 1]):
            for row, c in col:
                try:
                    m[row, col_idx] = complex(c)
                except OverflowError:
                    raise PointExtractionError(f"eigenvalue stage: entry of M_{var} at row {row}, "
                                               f"column {col_idx} is outside float range") from None
        return m


def standard_monomials(spec: MonomialSpec) -> list[Exponent]:
    """The r monomials a^b, b_0 = 0, b_i <= d_i (grevlex): a basis of S/I(n, phi) at a0 = 1."""
    box = product(*(range(d + 1) for d in spec.exponents[1:]))
    return sorted(((0,) + b for b in box), key=grevlex_key)


def _as_int(c):
    """An integral Fraction as its int numerator; any other coefficient unchanged."""
    return c.numerator if isinstance(c, Fraction) and c.denominator == 1 else c


def build_quotient(spec: MonomialSpec, phi: PhiTuple) -> QuotientAlgebra:
    """Dehomogenize the generators at a0 = 1 and build the multiplication matrices.

    The reduction a_i^(d_i+1) -> psi_i strictly drops degree (deg psi_i <= d_i - d0),
    so normal forms terminate; pairwise commutation of the resulting matrices
    is asserted, failure would mean a reduction bug.  A coefficient that is a
    Fraction with denominator 1 enters the reduction as its int numerator, so
    an integral phi gives int columns and the whole certificate runs in int.
    """
    n = spec.n
    if len(phi) != n:
        raise ValueError("build_quotient needs a complete phi tuple (k = n)")
    psi = [dehomogenize(p, 0).map_coefficients(_as_int) if p else p for p in phi.entries]
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
                              columns=tuple(columns))
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


# Mersenne primes, tried in turn by the trace-form certificate: a larger prime
# reconstructs larger kernel entries, at the cost of larger residues
TRACE_PRIMES = (2**61 - 1, 2**127 - 1, 2**521 - 1)


def _integral_columns(q: QuotientAlgebra, scale: int):
    """``q.columns`` of the isomorphic algebra a_j -> a_j / D, as plain ints.

    D = ``scale`` is the lcm of the entry denominators.  Entry c in row g,
    column b becomes c * D^(1 + |b| - |g|): each rewrite a_i^(d_i+1) -> psi_i
    lowers the degree by at least d0 + 1 and brings in one denominator, and an
    entry no rewrite reached is the lifted monomial with coefficient 1.  The
    trace form of the new algebra is Delta T Delta, Delta = diag(D^|b|), so its
    rank is that of T.
    """
    degree = [sum(b) for b in q.basis]
    mapped = []
    for i, cols in enumerate(q.columns, start=1):
        mapped_cols = []
        for b, col in enumerate(cols):
            entries = []
            for g, c in col:
                power = 1 + degree[b] - degree[g]
                value = c * scale**max(power, 0)
                if power < 0 or value.denominator != 1:
                    raise AssertionError(
                        f"trace form rescaling: entry {c} of M_{i} at row {g}, column {b} "
                        f"times D^{power}, D = {scale}, is not an integer"
                    )
                entries.append((g, value.numerator))
            mapped_cols.append(tuple(entries))
        mapped.append(tuple(mapped_cols))
    return tuple(mapped)


def _trace_matrix(q: QuotientAlgebra) -> list[list]:
    """The trace form T[a][b] = L(a + b), L(e) the trace of multiplication by a^e.

    Normal forms of the grid monomials a^e, e_i <= 2*d_i, come by dynamic
    programming, one multiplication by a variable each; the trace of basis
    monomial k is the sum of the diagonal entries of its multiplication
    matrix, and L(e) = sum_k trace_k * NF(a^e)[k], once per grid exponent.
    Grid exponents are numbered with strides, so a + b has the number of a
    plus that of b.  The arithmetic is that of the entries of ``q.columns``.
    """
    sizes = [2 * d + 1 for d in q.spec.exponents[1:]]
    strides = [prod(sizes[i + 1:]) for i in range(len(sizes))]
    table = []
    for e in product(*(range(size) for size in sizes)):  # each e - e_i comes before e
        if any(e):
            i = next(idx for idx, ei in enumerate(e) if ei)
            table.append(q.apply(i + 1, enumerate(table[len(table) - strides[i]])))
        else:
            unit = [0] * q.dim
            unit[q.index[(0,) * len(q.spec.exponents)]] = 1
            table.append(unit)
    place = [sum(x * stride for x, stride in zip(b[1:], strides)) for b in q.basis]
    traces = [sum(table[c + a][k] for k, a in enumerate(place)) for c in place]
    values = [sum(t * v for t, v in zip(traces, vec) if v) for vec in table]
    return [[values[a + b] for b in place] for a in place]


def _lifts_to_exact_kernel(matrix: list[list[int]], kernel: list[list[int]], p: int,
                          degrees: list[int], scale: int) -> bool:
    """True when the kernel basis mod p lifts to as many independent kernel vectors over Q.

    ``matrix`` is Delta T Delta, Delta = diag(D^|b|) (``_integral_columns``),
    so v is in its kernel exactly when Delta v is in that of T, whose kernel
    carries no powers of D.  With f the free column of v (v_f = 1, v_b = 0
    after it), u_b = v_b * D^(|b| - |f|) mod p is lifted entry by entry by
    rational reconstruction, its denominators are cleared and it is scaled
    back exactly, v_b = u_b * D^(t - |b|), t the largest |b| in the support
    (v is known up to a factor); the lift must be nonzero, its last
    nonzero entry must sit in a column no other lift ends in (so the lifts are
    independent), and matrix * lift must be exactly 0.  Then the rank over Q
    is at most ncols - len(kernel), which is the rank mod p, a lower bound on it.
    """
    if scale % p == 0:
        return False
    weight = [pow(scale, d, p) for d in degrees]
    ends = set()
    for vector in kernel:
        unit = pow(weight[max(i for i, v in enumerate(vector) if v)], -1, p)
        entries = [rational_reconstruction(v * w * unit % p, p) for v, w in zip(vector, weight)]
        if any(x is None for x in entries):
            return False
        common = lcm(*(x.denominator for x in entries))
        top = max((degrees[i] for i, x in enumerate(entries) if x), default=0)
        support = [(i, x.numerator * (common // x.denominator) * scale ** (top - degrees[i]))
                   for i, x in enumerate(entries) if x]
        if not support or support[-1][0] in ends:
            return False
        ends.add(support[-1][0])
        if any(sum(row[i] * x for i, x in support) for row in matrix):
            return False
    return True


def trace_form_rank(q: QuotientAlgebra) -> int:
    """Exact rank of the trace bilinear form; equals the number of distinct points.

    Entry (a, b) is L(a + b), the trace of multiplication by basis[a] *
    basis[b], so the matrix is read off one trace value per grid exponent,
    and it is built once.  Rational entries are first rescaled to an
    isomorphic algebra with integer multiplication matrices, so the form is
    an integer matrix T.  For each prime p of ``TRACE_PRIMES`` in turn, T
    gets a kernel basis over Z/p.  The rank mod p never exceeds the rank over
    Q, so an empty kernel proves full rank.  Otherwise the kernel vectors are
    lifted to Q by rational reconstruction; if the lifts are independent and
    T annihilates them exactly, the rank over Q is at most the rank mod p,
    hence equal to it.  A failed lift moves on to the next prime; after the
    last one, and for CycloScalar entries, the matrix is ranked by exact
    elimination.  Floating-point coefficient domains are refused: this is a
    certificate, not an estimate.
    """
    if not q.is_exact():
        raise TypeError("trace form requires an exact coefficient domain")
    if any(isinstance(c, CycloScalar) for cols in q.columns for col in cols for _, c in col):
        return exact_rank(_trace_matrix(q))
    scale = lcm(*(c.denominator for cols in q.columns for col in cols for _, c in col))
    matrix = _trace_matrix(replace(q, columns=_integral_columns(q, scale)))
    degrees = [sum(b) for b in q.basis]
    for p in TRACE_PRIMES:
        kernel = nullspace_mod_p(matrix, p)
        if not kernel:
            return q.dim
        if _lifts_to_exact_kernel(matrix, kernel, p, degrees, scale):
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


def is_radical(spec: MonomialSpec, phi: PhiTuple) -> bool:
    """True when I(n, phi) cuts out r distinct reduced points."""
    return certify_radical(spec, phi).radical


def ideal_membership(poly: SparsePoly, ideal: CIIdeal) -> bool:
    """Exact homogeneous membership: the normal form by the generators is zero."""
    if not poly.is_homogeneous():
        raise ValueError("membership test expects a homogeneous polynomial")
    tails = generator_tails(ideal.spec, ideal.phi.entries[: ideal.k])
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

    def is_exact(self) -> bool:
        return all(_is_exact_scalar(c) for p in self.points for c in p)


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
    """The r points scaled to a0 = 1, exactly on exact coordinates."""
    coords_list = _coords(points)
    if len(coords_list) != spec.rank:
        raise ValueError(f"expected {spec.rank} points, got {len(coords_list)}")
    if any(not p[0] for p in coords_list):
        raise NonRadicalIdealError("points must have nonzero a0 coordinate")
    return [tuple(c / p[0] for c in _exactify(p)) for p in coords_list]


def summand_coefficients(spec: MonomialSpec, points) -> list:
    """The c_j with sum_j c_j * (l_j)^d equal to the monomial, by one r x r solve.

    With each point scaled to a0 = 1, the x^e coefficient at e = (d - |b|, b)
    is (d; e) * sum_j c_j p_j^b; over the standard monomials b that reads
    V^T c = e_top / (d; d0, ..., dn), V[j][b] = p_j^b, top = (0, d1, ..., dn).
    The r points of a radical I(n, phi) make V nonsingular, so the solve takes
    no rank gate; ``verify_decomposition`` judges the other coefficients.
    Float points give V as one array evaluation; exact points keep scalar
    rows, so the solve stays exact.
    """
    basis = standard_monomials(spec)
    top = (0,) + spec.exponents[1:]
    chart = in_chart(spec, points)
    if _all_exact(chart):
        v_transposed = [list(col) for col in zip(*evaluation_matrix(chart, basis))]
    else:
        import numpy as np

        v_transposed = evaluation_matrix(np.array(chart, dtype=complex), basis).T
    try:
        solution = solve_nonsingular(v_transposed, [int(b == top) for b in basis])
    except RankDeficientSystem:
        raise NonRadicalIdealError("the points are not distinct (V is singular)") from None
    scale = multinomial(spec.degree, spec.exponents)
    return [x / (scale * p[0] ** spec.degree) for x, p in zip(solution, _coords(points))]


def _fit_decomposition(spec: MonomialSpec, points, tol: float) -> Decomposition:
    """sum_j c_j * (l_j)^d from ``summand_coefficients``, judged by ``verify_decomposition``.

    Sorted-frame points are read as forms; exact points give an exact
    decomposition, checked exactly, float points one checked to ``tol`` that
    carries its residual.  A failed check raises NonRadicalIdealError: no
    power-sum configuration for the monomial has these points.
    """
    coeffs = summand_coefficients(spec, points)
    coords_list = _coords(points)
    domain = EXACT_CYCLOTOMIC if _all_exact(coords_list) else COMPLEX_FLOAT
    dec = Decomposition(spec.degree, domain, tuple(
        (c, spec.form_to_original(p)) for c, p in zip(coeffs, coords_list)))
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

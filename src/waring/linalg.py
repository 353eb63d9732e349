"""Small dense linear algebra over exact fields, plus float-rank helpers.

The exact routines only need field operations (+, -, *, /, truthiness), so
they work uniformly for Fraction and CycloScalar entries.  ``nullspace_mod_p``
gives a kernel basis of an integer matrix over Z/p (its length is the number
of columns less the rank mod p, which never exceeds the rank over Q), and
``rational_reconstruction`` lifts a residue mod p to a fraction.
Floating-point ranks use an SVD with a relative singular-value cutoff; numpy
is imported only by the float routines, so exact work never loads it.

``rank``, ``solve`` and ``solve_nonsingular`` are the one place that chooses
between the two, by the entries: all int, Fraction or CycloScalar is exact,
anything else is complex floats (``solve`` gates on column rank and residual).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .cyclotomic import CycloScalar


def _is_exact_scalar(c) -> bool:
    return isinstance(c, (int, Fraction, CycloScalar))


def _all_exact(*matrices) -> bool:
    return all(_is_exact_scalar(v) for rows in matrices for row in rows for v in row)


def _exactify(row) -> list:
    """Promote ints to Fractions so that division stays exact."""
    return [Fraction(v) if isinstance(v, int) else v for v in row]


class LinearSolveError(ValueError):
    pass


class InconsistentSystem(LinearSolveError):
    """No solution; a float solve sets ``residual`` (max norm) and names it in ``detail``."""

    def __init__(self, message: str = "no solution", residual: float | None = None):
        super().__init__(message)
        self.residual = residual
        self.detail = "" if residual is None else f" (residual {residual:.3e})"


class RankDeficientSystem(LinearSolveError):
    pass


def _eliminate(matrix: list[list], ncols: int) -> list[int]:
    """Row-reduce ``matrix`` in place to echelon form on its first ``ncols`` columns
    (later columns ride along); returns the pivot columns."""
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        top = matrix[rank]
        inv = top[col]
        for r in range(rank + 1, len(matrix)):
            if matrix[r][col]:
                factor = matrix[r][col] / inv
                row = matrix[r]
                for c in range(col, len(row)):
                    if top[c]:
                        row[c] = row[c] - factor * top[c]
        pivots.append(col)
        if len(pivots) == len(matrix):
            break
    return pivots


def exact_rank(rows) -> int:
    """Rank of a matrix (list of rows) over an exact field, by Gaussian elimination."""
    matrix = [_exactify(r) for r in rows]
    if not matrix or not matrix[0]:
        return 0
    return len(_eliminate(matrix, len(matrix[0])))


def nullspace_mod_p(rows, p: int) -> list[list[int]]:
    """A basis of the right kernel over Z/p (p prime) of a matrix of integers.

    One vector per free (non-pivot) column of the echelon form: 1 on that
    column, 0 on the other free columns and after it, entries in [0, p).
    Forward elimination runs as for a rank; the back-substitution runs only
    when there is a free column, so at full column rank the call costs one
    elimination.  Row updates take no remainder (delayed reduction): each
    entry is reduced once, in its column just before the pivot search, and a
    pivot row when it is normalized, so the back-substitution reads reduced
    rows.  An entry starts in [0, p) and each of at most ``len(rows)`` updates
    subtracts a product of two residues, so it stays below p + len(rows)*p^2
    in absolute value.
    """
    matrix = [[v % p for v in row] for row in rows]
    ncols = len(matrix[0]) if matrix else 0
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        for r in range(rank, len(matrix)):
            matrix[r][col] %= p
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = pow(matrix[rank][col], -1, p)
        top = [v * inv % p for v in matrix[rank][col:]]
        matrix[rank][col:] = top
        for r in range(rank + 1, len(matrix)):
            row = matrix[r]
            factor = row[col]
            if factor:
                row[col:] = [x - factor * y for x, y in zip(row[col:], top)]
        pivots.append(col)
        if len(pivots) == len(matrix):
            break
    pivot_set = set(pivots)
    basis = []
    for free in (c for c in range(ncols) if c not in pivot_set):
        vector = [0] * ncols
        vector[free] = 1
        for row, col in reversed(list(enumerate(pivots))):
            if col < free:
                echelon = matrix[row]
                vector[col] = -sum(echelon[c] * vector[c] for c in range(col + 1, free + 1)) % p
        basis.append(vector)
    return basis


def rational_reconstruction(a: int, p: int) -> Fraction | None:
    """The fraction n/d with |n|, d <= isqrt(p // 2) and n = a*d mod p, or None.

    Extended Euclid on (p, a mod p), stopped at the first remainder within the
    bound (von zur Gathen & Gerhard, Modern Computer Algebra, 5.10).  The
    bound makes the fraction unique when it exists.
    """
    bound = isqrt(p // 2)
    r0, r1 = p, a % p
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def exact_solve(rows, rhs) -> list:
    """Solve a consistent linear system with a unique solution, exactly.

    The system may be overdetermined; raises InconsistentSystem if no solution
    exists and RankDeficientSystem if the solution is not unique.
    """
    matrix = [_exactify(list(r) + [b]) for r, b in zip(rows, rhs)]
    if not matrix:
        raise RankDeficientSystem("empty system")
    ncols = len(rows[0])
    rank = len(_eliminate(matrix, ncols))
    if any(row[ncols] for row in matrix[rank:]):
        raise InconsistentSystem()
    if rank < ncols:
        raise RankDeficientSystem("solution is not unique")
    solution = [None] * ncols
    for r in reversed(range(ncols)):
        row = matrix[r]
        value = row[ncols]
        for c in range(r + 1, ncols):
            value = value - row[c] * solution[c]
        solution[r] = value / row[r]
    return solution


def float_rank(matrix: np.ndarray, cutoff: float = 1e-8) -> int:
    """Numerical rank: singular values below cutoff * (largest) count as zero."""
    import numpy as np

    a = np.asarray(matrix)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > cutoff * s[0]))


def rank(rows, cutoff: float = 1e-8) -> int:
    """Rank of a matrix given as rows: exact on exact entries, else by SVD with ``cutoff``."""
    if _all_exact(rows):
        return exact_rank(rows)
    import numpy as np

    return float_rank(np.array(rows, dtype=complex), cutoff=cutoff)


def solve(rows, rhs, tol: float) -> list:
    """The unique solution of rows * x = rhs: exact on exact entries, else least squares,
    refused below full column rank (RankDeficientSystem) or when the max-norm residual
    exceeds ``tol`` (InconsistentSystem, which carries it)."""
    if _all_exact(rows, [rhs]):
        return exact_solve(rows, rhs)
    import numpy as np

    a = np.array(rows, dtype=complex)
    if float_rank(a) < a.shape[1]:
        raise RankDeficientSystem("solution is not unique")
    b = np.array(rhs, dtype=complex)
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    residual = float(np.max(np.abs(a @ x - b)))
    if residual > tol:
        raise InconsistentSystem(f"no solution (residual {residual:.3e})", residual)
    return [complex(c) for c in x]


def solve_nonsingular(rows, rhs) -> list:
    """The solution of a square system known to be nonsingular, with no gate on floats;
    a singular matrix (exactly, or to working precision) raises RankDeficientSystem."""
    if _all_exact(rows, [rhs]):
        try:
            return exact_solve(rows, rhs)
        except InconsistentSystem:  # a square system with no solution
            raise RankDeficientSystem("matrix is singular") from None
    import numpy as np

    try:
        x = np.linalg.solve(np.array(rows, dtype=complex), np.array(rhs, dtype=complex))
    except np.linalg.LinAlgError:
        raise RankDeficientSystem("matrix is singular") from None
    return [complex(c) for c in x]

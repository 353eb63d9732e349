"""Small dense linear algebra over exact fields, plus float-rank helpers.

The exact routines only need field operations (+, -, *, /, truthiness), so
they work uniformly for Fraction and CycloScalar entries.  ``nullspace_mod_p``
gives a kernel basis of an integer matrix over Z/p (its length is the number
of columns less the rank mod p, which never exceeds the rank over Q); it
peels the rows with one nonzero entry, then eliminates on rows packed into
one int each, one field per column, so a row update is one big-int
multiply-add.  ``rational_reconstruction`` lifts a residue mod p to a
fraction.
Floating-point ranks use an SVD with the relative cutoff ``RANK_CUTOFF``; numpy
is imported only by the float routines, so exact work never loads it.

``rank`` and ``solve`` choose between the two by the entries: all int,
Fraction or CycloScalar is exact, anything else is complex floats.  A float
``solve`` factors its matrix once: it gates on the column rank that its own
least squares reads at ``RANK_CUTOFF``, and on a residual above ``SOLVE_TOL``.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from itertools import compress
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

    One vector per free (non-pivot) column of the column-order echelon form:
    1 on that column, 0 on the other free columns and after it, entries in
    [0, p).  Such a basis is unique, since the free columns are those in the
    span of the columns before them.

    Singleton rows are peeled first, the first phase of structured Gaussian
    elimination (LaMacchia & Odlyzko, 1990).  A row with exactly one entry
    nonzero mod p forces that entry's column to 0 in every kernel vector,
    and the column is a pivot, since no earlier column reaches that row.  So
    the row and the column are dropped, and again for every row that the
    drop leaves with one nonzero entry, until none is left; rows left with
    none drop too.  The kernel is then that of the rest, with 0 in each
    dropped column, and its free columns, so its basis, are the same.  An
    entry that is a nonzero multiple of p counts as zero: counting it would
    overstate the rank mod p.  The rest goes to ``_packed_kernel``.
    """
    ncols = len(rows[0]) if rows else 0
    if not ncols:
        return []
    reduced = [[v and v % p for v in row] for row in rows]  # a zero skips the long division
    count = [ncols - row.count(0) for row in reduced]
    dropped = [False] * ncols
    todo = [i for i, n in enumerate(count) if n == 1]
    if todo:
        support = [list(compress(range(ncols), row)) for row in reduced]
        hits: list[list[int]] = [[] for _ in range(ncols)]  # column -> the rows nonzero on it
        for i, cols in enumerate(support):
            for j in cols:
                hits[j].append(i)
    while todo:
        i = todo.pop()
        if count[i] != 1:  # its last column was dropped through another row
            continue
        j = next(j for j in support[i] if not dropped[j])
        dropped[j] = True
        for other in hits[j]:
            count[other] -= 1
            if count[other] == 1:
                todo.append(other)
    keep = [j for j in range(ncols) if not dropped[j]]
    if not keep:
        return []
    rest = [row for row, n in zip(reduced, count) if n]
    if len(keep) == ncols:
        return _packed_kernel(rest, ncols, p)
    basis = _packed_kernel([[row[j] for j in keep] for row in rest], len(keep), p)
    out = [[0] * ncols for _ in basis]
    for full, vector in zip(out, basis):
        for j, v in zip(keep, vector):
            full[j] = v
    return out


def _packed_kernel(rows: list[list[int]], ncols: int, p: int) -> list[list[int]]:
    """The basis of ``nullspace_mod_p`` for rows of ``ncols`` entries in [0, p).

    Each live row is one int: field j, w bits wide, holds the row's entry in
    the j-th column not yet eliminated, and every field stays >= 0, so the
    column being eliminated is the lowest field and a row's head is
    ``(row & (2^w - 1)) % p``.  The first row with a nonzero head is the
    pivot; its fields after the head are folded with 2^k = c mod p
    (k = p.bit_length(), c = 2^k - p; c = 1 for a Mersenne prime):
    x -> (x mod 2^k) + c*(x >> k) on every field at once, by one mask, until
    no field reaches 2^(k+1).  Every other row drops its head field and adds
    ((-head/pivot head) mod p) times the folded pivot row, the factor taken
    from the raw field as field * (p - 1/pivot head) mod p, with no reduced
    head kept: one multiply-add on the packed int (delayed reduction and
    packing as in FFLAS-FFPACK, Dumas, Giorgi & Pernet, ACM TOMS 2008;
    Kronecker substitution, von zur Gathen & Gerhard, 8.4).  A field starts
    below p and each of at most ``len(rows)`` updates adds below p*2^(k+1) <
    2^(2k+1), so it stays below 2^(2k+1+len(rows).bit_length()), and a width
    w >= 2k + 3 + len(rows).bit_length() (rounded up to whole bytes, so that a
    row packs and unpacks through one bytes object) never carries between
    fields.  Up to
    127 rows that is 9 bytes for p = 2^31 - 1 against 17 for 2^61 - 1, so
    the smaller prime about halves the int each multiply-add runs on.  Below
    2^63 a row packs through one ``struct.Struct`` per call, each field a "Q"
    (the entry, below p) then zero pad bytes, so at least 8 bytes wide, and the
    echelon rows unpack the same way, their folded fields being below
    2^(k+1) <= 2^64; a larger prime packs field by field with ``to_bytes``.  The
    pivot rows are unpacked and normalized only when a free column exists, so
    at full column rank the call costs the forward elimination alone.
    """
    k = p.bit_length()
    size = (2 * k + 3 + len(rows).bit_length() + 7) // 8
    field = None
    if k < 64:  # every entry, and every folded field (below 2^(k+1)), is one "Q" of a field
        size = max(size, 8)
        layout = "Q" + "x" * (size - 8)
        field = struct.Struct("<" + layout)
    w = 8 * size
    mask, c = (1 << w) - 1, (1 << k) - p
    ones = ((1 << w * ncols) - 1) // mask  # 1 in every field
    low, high = ones * ((1 << k) - 1), ones * (mask ^ ((1 << k + 1) - 1))
    if field:
        packer = struct.Struct("<" + layout * ncols)
        live = [int.from_bytes(packer.pack(*row), "little") for row in rows]
    else:
        live = [int.from_bytes(b"".join(v.to_bytes(size, "little") for v in row), "little")
                for row in rows]
    pivots = []  # (column, inverse of its head, folded fields of the later columns)
    for col in range(ncols):
        i = next((i for i, row in enumerate(live) if (row & mask) % p), None)
        if i is None:
            live = [row >> w for row in live]
            continue
        top = live.pop(i)
        inv = pow(top & mask, -1, p)
        top >>= w
        while top & high:
            part = top & low
            top = part + c * ((top - part) >> k)
        pivots.append((col, inv, top))
        minus = p - inv  # a raw head field times p - inv is -head/pivot head mod p
        live = [(row >> w) + (row & mask) * minus % p * top if row & mask else row >> w
                for row in live]
        if not live:
            break
    if len(pivots) == ncols:
        return []
    echelon = []
    for col, inv, top in pivots:
        packed = top.to_bytes((ncols - col - 1) * size, "little")
        if field:
            fields = [x for x, in field.iter_unpack(packed)]
        else:
            fields = [int.from_bytes(packed[j:j + size], "little")
                      for j in range(0, len(packed), size)]
        echelon.append((col, [x * inv % p for x in fields]))
    pivot_set = {col for col, _ in echelon}
    basis = []
    for free in (j for j in range(ncols) if j not in pivot_set):
        vector = [0] * ncols
        vector[free] = 1
        for col, row in reversed(echelon):
            if col < free:
                vector[col] = -sum(x * y for x, y in zip(row, vector[col + 1:free + 1])) % p
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


RANK_CUTOFF = 1e-8
SOLVE_TOL = 1e-6  # max-norm residual a float ``solve`` accepts


def float_rank(matrix: np.ndarray) -> int:
    """Numerical rank: singular values below RANK_CUTOFF * (largest) count as zero."""
    import numpy as np

    a = np.asarray(matrix)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > RANK_CUTOFF * s[0]))


def rank(rows) -> int:
    """Rank of a matrix given as rows: exact on exact entries, else by SVD (``float_rank``)."""
    if _all_exact(rows):
        return exact_rank(rows)
    import numpy as np

    return float_rank(np.array(rows, dtype=complex))


def solve(rows, rhs) -> list:
    """The unique solution of rows * x = rhs: exact on exact entries, else least squares,
    refused below full column rank (RankDeficientSystem; the rank is the one the least
    squares' SVD reads at ``RANK_CUTOFF``, as ``float_rank`` would) or when the max-norm
    residual exceeds ``SOLVE_TOL`` (InconsistentSystem, which carries it)."""
    if _all_exact(rows, [rhs]):
        return exact_solve(rows, rhs)
    import numpy as np

    a = np.array(rows, dtype=complex)
    b = np.array(rhs, dtype=complex)
    x, _, column_rank, _ = np.linalg.lstsq(a, b, rcond=RANK_CUTOFF)
    if column_rank < a.shape[1]:
        raise RankDeficientSystem("solution is not unique")
    residual = float(np.max(np.abs(a @ x - b)))
    if residual > SOLVE_TOL:
        raise InconsistentSystem(f"no solution (residual {residual:.3e})", residual)
    return [complex(c) for c in x]


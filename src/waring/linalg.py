"""Small dense linear algebra over exact fields, plus float-rank helpers.

The exact routines only need field operations (+, -, *, /, truthiness), so
they work uniformly for Fraction and CycloScalar entries.  ``nullspace_mod_p``
gives a kernel basis of an integer matrix over Z/p (its length is the number
of columns less the rank mod p, which never exceeds the rank over Q); it
eliminates on rows packed into one int each, one field per column, so a row
update is one big-int multiply-add.  ``full_rank_mod_p`` runs the same
elimination and stops at the first column without a pivot.
``rational_reconstruction`` lifts a residue mod p to a fraction.
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

    ``_packed_elimination`` gives the pivot rows.  Back-substitution reads
    them as the elimination keeps them: column, inverse of the head, folded
    fields.  A kernel vector starts as 1 on its free column; for each pivot
    column before it, last first, its entry is -inv * sum(field_j * v_j) mod p
    over the nonzero entries v_j found so far, field j being
    ``(top >> w*(j - col - 1)) & mask``.  No pivot row is unpacked or
    normalized, so at full column rank the call costs the forward elimination
    alone.
    """
    ncols = len(rows[0]) if rows else 0
    w = 8 * _field_bytes(p, len(rows))
    mask = (1 << w) - 1
    pivots = [(col, *pivot) for col, pivot in enumerate(_packed_elimination(rows, ncols, p))
              if pivot is not None]  # (column, inverse of its head, folded later fields)
    pivot_set = {col for col, _, _ in pivots}
    basis = []
    for free in (j for j in range(ncols) if j not in pivot_set):
        found = [(free, 1)]  # the nonzero entries so far, as (column, entry)
        for col, inv, top in reversed(pivots):
            if col < free:
                x = -inv * sum(((top >> w * (j - col - 1)) & mask) * v for j, v in found) % p
                if x:
                    found.append((col, x))
        vector = dict(found)
        basis.append([vector.get(j, 0) for j in range(ncols)])
    return basis


def full_rank_mod_p(rows, p: int) -> bool:
    """True when a matrix of integers has full column rank over Z/p (p prime), that is when
    ``nullspace_mod_p`` is empty; full column rank mod p proves it over Q.

    The forward elimination of ``nullspace_mod_p`` (``_packed_elimination``), stopped at
    the first column without a pivot.  Column 0 is searched on the rows as given,
    before any entry is reduced or packed, so a zero first column costs one scan.
    """
    ncols = len(rows[0]) if rows else 0
    if not ncols:
        return True
    if not any(row[0] % p for row in rows):
        return False
    return None not in _packed_elimination(rows, ncols, p)


def _field_bytes(p: int, nrows: int) -> int:
    """The bytes of one packed field: a width of at least 2k + 3 + nrows.bit_length() bits,
    k = p.bit_length(), never carries between fields (``_packed_elimination``)."""
    return (2 * p.bit_length() + 3 + nrows.bit_length() + 7) // 8


def _packed_elimination(rows: list[list[int]], ncols: int, p: int):
    """Forward elimination mod p on rows of ``ncols`` integers, packed one int each; yields,
    column by column, None for a column without a pivot, else (inverse of the pivot's
    head, the pivot row's folded fields of the later columns).

    The entries are first reduced into [0, p), in new rows: the caller's rows
    are never written, and an entry that is a nonzero multiple of p is zero.
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
    w >= 2k + 3 + len(rows).bit_length() (``_field_bytes``: rounded up to whole
    bytes, so that a row packs through one bytes object) never carries between
    fields.  Up to 127 rows that is 3 bytes for p = 2^7 - 1, 9 for 2^31 - 1
    and 17 for 2^61 - 1, so a smaller prime runs every multiply-add on a
    smaller int.  Below 2^63 a row packs through one ``struct.Struct`` per
    call, each field the narrowest of "B", "H", "I" and "Q" that holds p's k
    bits (the entry) then zero pad bytes; a larger prime packs field by field
    with ``to_bytes``.  Once every row is a pivot, each later column yields
    None.
    """
    rows = [[v and v % p for v in row] for row in rows]  # a zero skips the long division
    k = p.bit_length()
    size = _field_bytes(p, len(rows))
    if k < 64:  # every entry is one struct code of a field
        code = next(code for code in "BHIQ" if k <= 8 * struct.calcsize(code))
        packer = struct.Struct("<" + (code + "x" * (size - struct.calcsize(code))) * ncols)
        live = [int.from_bytes(packer.pack(*row), "little") for row in rows]
    else:
        live = [int.from_bytes(b"".join(v.to_bytes(size, "little") for v in row), "little")
                for row in rows]
    w = 8 * size
    mask, c = (1 << w) - 1, (1 << k) - p
    ones = ((1 << w * ncols) - 1) // mask  # 1 in every field
    low, high = ones * ((1 << k) - 1), ones * (mask ^ ((1 << k + 1) - 1))
    for _ in range(ncols):
        i = next((i for i, row in enumerate(live) if (row & mask) % p), None)
        if i is None:
            live = [row >> w for row in live]
            yield None
            continue
        top = live.pop(i)
        inv = pow(top & mask, -1, p)
        top >>= w
        while top & high:
            part = top & low
            top = part + c * ((top - part) >> k)
        minus = p - inv  # a raw head field times p - inv is -head/pivot head mod p
        live = [(row >> w) + (row & mask) * minus % p * top if row & mask else row >> w
                for row in live]
        yield inv, top


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


"""The exact/float dispatch of linalg.rank and linalg.solve."""

import random
from fractions import Fraction
from math import isqrt

import pytest

from waring import MonomialSpec, build_quotient, explicit_decomposition, explicit_phi, linalg
from waring.cyclotomic import root_of_unity
from waring.linalg import (
    InconsistentSystem,
    RankDeficientSystem,
    exact_rank,
    exact_solve,
    nullspace_mod_p,
    rank,
    rational_reconstruction,
    solve,
)
from waring.solver import TRACE_PRIMES, NonRadicalIdealError, PointSet, _jacobian_columns
from waring.vsp import fit_phi_from_points, parameter_space, sample_phi

from oracles import fit_coefficients, points_from_decomposition


class TestRank:
    def test_exact_entries_rank_exactly(self):
        # a float SVD with cutoff 1e-8 would call this rank 1
        rows = [[1, 1], [1, 1 + Fraction(1, 10**12)]]
        assert rank(rows) == 2

    def test_float_entries_rank_by_svd(self):
        assert rank([[1.0, 1.0], [1.0, 1.0 + 1e-12]]) == 1
        # sigma_min / sigma_max is about 2.5e-7 here, above the relative cutoff 1e-8
        assert rank([[1.0, 1.0], [1.0, 1.0 + 1e-6]]) == 2

    def test_cyclotomic_entries(self):
        z = root_of_unity(3, 1)
        assert rank([[1, z], [z, z * z], [z * z, 1]]) == 1
        assert exact_rank([[1, z], [1, z * z]]) == 2

    def test_empty(self):
        assert rank([]) == 0


P = 2**61 - 1


def random_matrix(rng, rows, cols, rank_bound):
    """A product of rows x k and k x cols integer matrices, k = rank_bound: rank at most k."""
    left = [[rng.randint(-3, 3) for _ in range(rank_bound)] for _ in range(rows)]
    right = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rank_bound)]
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]


class TestRankModP:
    """The rank mod p is the column count less the kernel dimension over Z/p."""

    # entries of at most 3 * 3 * 6 = 54 bound every minor of a matrix up to 7 x 7 by
    # 54^7 * 7^3.5 < 2^51 (Hadamard), so no nonzero minor vanishes mod p: the ranks agree
    @pytest.mark.parametrize("seed", range(12))
    def test_agrees_with_exact_rank(self, seed):
        rng = random.Random(seed)
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        matrix = random_matrix(rng, rows, cols, rng.randint(1, min(rows, cols, 6)))
        assert cols - len(nullspace_mod_p(matrix, P)) == exact_rank(matrix)

    def test_deficient(self):
        rng = random.Random(99)
        matrix = random_matrix(rng, 7, 7, 4)
        assert 7 - len(nullspace_mod_p(matrix, P)) == exact_rank(matrix) == 4

    def test_multiples_of_p_reduce_to_zero(self):
        rng = random.Random(7)
        matrix = random_matrix(rng, 6, 7, 5)
        shifted = [[v + P * rng.randint(-3, 3) for v in row] for row in matrix]
        assert 7 - len(nullspace_mod_p(shifted, P)) == exact_rank(matrix) == 5
        assert len(nullspace_mod_p([[P * v for v in row] for row in matrix], P)) == 7
        assert 2 - len(nullspace_mod_p([[2, 4], [1, 3]], 2)) == 1 < exact_rank([[2, 4], [1, 3]])

    def test_empty(self):
        assert nullspace_mod_p([], P) == []
        assert nullspace_mod_p([[]], P) == []


def annihilates(matrix, vector, p):
    return all(sum(a * b for a, b in zip(row, vector)) % p == 0 for row in matrix)


class TestNullspaceModP:
    @pytest.mark.parametrize("seed", range(12))
    def test_basis_of_the_kernel(self, seed):
        rng = random.Random(seed)
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        matrix = random_matrix(rng, rows, cols, rng.randint(1, min(rows, cols, 6)))
        kernel = nullspace_mod_p(matrix, P)
        # the minors are below p (see TestRankModP), so the kernel is that over Q
        assert len(kernel) == cols - exact_rank(matrix)
        assert all(annihilates(matrix, v, P) and all(0 <= x < P for x in v) for v in kernel)
        # 1 on its own free column and 0 after it: the free columns are the last nonzero
        # entries, all distinct, so the vectors are independent
        ends = [max(i for i, x in enumerate(v) if x) for v in kernel]
        assert len(set(ends)) == len(kernel)
        for v, end in zip(kernel, ends):
            assert v[end] == 1 and all(v[other] == 0 for other in ends if other != end)

    def test_small_prime(self):
        for seed in range(20):
            rng = random.Random(seed)
            matrix = random_matrix(rng, 5, 6, 4)
            kernel = nullspace_mod_p(matrix, 3)
            assert len(kernel) >= 2
            assert all(annihilates(matrix, v, 3) for v in kernel)

    def test_empty_at_full_rank(self):
        assert nullspace_mod_p([[2, 1], [1, 1]], P) == []
        assert nullspace_mod_p([[1, 0], [0, 1], [1, 1]], P) == []
        matrix = random_matrix(random.Random(3), 5, 4, 4)
        assert exact_rank(matrix) == 4 and nullspace_mod_p(matrix, P) == []

    def test_multiples_of_p(self):
        assert nullspace_mod_p([[P, 2 * P], [3 * P, -P]], P) == [[1, 0], [0, 1]]
        assert nullspace_mod_p([[1 + P, 2 - P], [2, 4 + 3 * P]], P) == [[P - 2, 1]]
        assert nullspace_mod_p([[2, 4], [1, 3]], 2) == [[1, 1]]

    def test_wide_and_empty(self):
        assert nullspace_mod_p([[1, 2, 3]], P) == [[P - 2, 1, 0], [P - 3, 0, 1]]
        assert nullspace_mod_p([], P) == []
        assert nullspace_mod_p([[]], P) == []
        assert nullspace_mod_p([[0, 0]], P) == [[1, 0], [0, 1]]


def reference_nullspace_mod_p(rows, p):
    """The elimination with every entry reduced mod p at every step: the reference."""
    matrix = [[v % p for v in row] for row in rows]
    ncols = len(matrix[0]) if matrix else 0
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = pow(matrix[rank][col], -1, p)
        matrix[rank] = [v * inv % p for v in matrix[rank]]
        for r in range(rank + 1, len(matrix)):
            factor = matrix[r][col]
            matrix[r] = [(x - factor * y) % p for x, y in zip(matrix[r], matrix[rank])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vector = [0] * ncols
        vector[free] = 1
        for row, col in reversed(list(enumerate(pivots))):
            if col < free:
                vector[col] = -sum(matrix[row][c] * vector[c] for c in range(col + 1, free + 1)) % p
        basis.append(vector)
    return basis


# 2 is the one prime not of the form 2^k - 1; 2^63 - 25 and 2^64 - 59, the largest primes
# of 63 and 64 bits, sit on either side of the 64-bit struct field of the packing; the last
# four are TRACE_PRIMES
PRIMES = [2, 3, 7, 2**63 - 25, 2**64 - 59, *TRACE_PRIMES]


class TestLazyElimination:
    """nullspace_mod_p eliminates on packed rows with delayed reduction; its kernel
    basis is that of the elimination reduced at every step."""

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_the_reduced_elimination(self, p, seed):
        rng = random.Random(seed)
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        low = random_matrix(rng, rows, cols, rng.randint(1, min(rows, cols)))  # often deficient
        for matrix in (
            low,
            [[v + p * rng.randint(-3, 3) for v in row] for row in low],  # shifted by multiples
            [[p * v for v in row] for row in low],  # zero mod p
            [[rng.randint(-3 * p, 3 * p) for _ in range(cols)] for _ in range(rows)],
            [[rng.choice([0, 0, 1, -1, p - 1, p, -p, 2 * p + 1]) for _ in range(cols)]
             for _ in range(rows)],
        ):
            kernel = nullspace_mod_p(matrix, p)
            assert kernel == reference_nullspace_mod_p(matrix, p)
            assert all(0 <= x < p for v in kernel for x in v)
            assert all(annihilates(matrix, v, p) for v in kernel)

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("rows, cols", [(70, 70), (70, 9), (9, 70), (40, 1), (1, 40)])
    def test_large_shapes(self, p, rows, cols):
        rng = random.Random(100 * rows + cols)
        for matrix in (
            [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)],
            random_matrix(rng, rows, cols, min(rows, cols) // 2),  # deficient
            [[rng.choice([0, 0, 0, 1, p - 1]) for _ in range(cols)] for _ in range(rows)],
        ):
            kernel = nullspace_mod_p(matrix, p)
            assert kernel == reference_nullspace_mod_p(matrix, p)
            assert all(0 <= x < p for v in kernel for x in v)

    @pytest.mark.parametrize("p", PRIMES)
    def test_width_bound_worst_case(self, p):
        # 80 x 71, entries p - 1: row i < 70 is nonzero on columns 0..i and 70, the
        # last ten rows everywhere.  Pivot i is row i, so row i takes i updates and
        # the last ten rows 70, each adding (p - 1) times a pivot's last field, which
        # earlier updates pushed near 2^(k+1).  That field reaches up to 2k + 7 bits
        # against the bound's 2k + 1 + len(rows).bit_length() = 2k + 8, and column
        # 70, the one free column, takes it into the kernel vector
        n = 70
        triangle = [[p - 1 if j <= i or j == n else 0 for j in range(n + 1)] for i in range(n)]
        matrix = triangle + [[p - 1] * (n + 1)] * 10
        kernel = nullspace_mod_p(matrix, p)
        assert len(kernel) == 1 and kernel == reference_nullspace_mod_p(matrix, p)
        flat = [[p - 1] * n] * 2 * n  # tall, rank 1
        assert nullspace_mod_p(flat, p) == reference_nullspace_mod_p(flat, p)

    def test_deficient_and_empty(self):
        rng = random.Random(99)
        matrix = random_matrix(rng, 9, 9, 5)
        kernel = nullspace_mod_p(matrix, P)
        assert len(kernel) == 4 and kernel == reference_nullspace_mod_p(matrix, P)
        for empty in ([], [[]], [[], []]):
            assert nullspace_mod_p(empty, P) == reference_nullspace_mod_p(empty, P) == []

    def test_rows_are_not_mutated(self):
        matrix = [[P + 1, -2, 3], [4, 5 * P, -6]]
        copy = [row[:] for row in matrix]
        nullspace_mod_p(matrix, P)
        assert matrix == copy


def sparse_shapes(rng, p):
    """Matrices whose rows have one nonzero entry, or come to have one as others are peeled."""
    yield [[0] * j + [rng.choice([1, -1, p - 1, p + 2, 5])] + [0] * (8 - j)
           for j in (rng.randrange(9) for _ in range(rng.randint(1, 12)))]  # one per row
    perm = rng.sample(range(9), 9)
    diag = [rng.choice([1, 2, p - 1, -3, p, 0]) for _ in range(9)]  # p and 0 leave a gap
    yield [[diag[i] if j == perm[i] else 0 for j in range(9)] for i in range(9)]
    # row i is nonzero on columns order[0..i]: each is a singleton once the earlier ones
    # are peeled; below them a deficient block on the last three columns, and zero rows
    order = rng.sample(range(9), 6)
    chain = [[rng.choice([1, -2, p + 1]) if j in order[:i + 1] else 0 for j in range(9)]
             for i in range(6)]
    rest = [j for j in range(9) if j not in order]
    block = [[0] * 9 for _ in range(4)]
    for row, values in zip(block, random_matrix(rng, 4, 3, 2)):
        for j, v in zip(rest, values):
            row[j] = v
    yield chain + block + [[0] * 9, [p] * 9]
    yield [[p, 0, 0], [0, 0, 2 * p], [0, 0, 0], [3, p, 0]]  # multiples of p are zero
    yield [[0] * 5 for _ in range(4)]


class TestSingletonPeel:
    """Rows with one entry nonzero mod p are peeled before the packed elimination; the
    kernel basis stays that of the elimination reduced at every step."""

    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_with_the_reduced_elimination(self, p, seed):
        rng = random.Random(seed)
        for matrix in sparse_shapes(rng, p):
            kernel = nullspace_mod_p(matrix, p)
            assert kernel == reference_nullspace_mod_p(matrix, p)
            assert all(annihilates(matrix, v, p) for v in kernel)

    def test_an_entry_equal_to_p_is_no_pivot(self):
        assert nullspace_mod_p([[P]], P) == [[1]]
        assert nullspace_mod_p([[P, 0], [0, 1]], P) == [[1, 0]]
        # row 0 is a singleton at column 1 only because P counts as zero; then row 1 is one
        assert nullspace_mod_p([[P, 4, 0], [2, 3, 0]], P) == [[0, 0, 1]]
        assert nullspace_mod_p([[6, 4, 0], [2, 3, 0]], 2) == [[1, 0, 0], [0, 0, 1]]

    @pytest.mark.parametrize("p", PRIMES)
    def test_explicit_and_sampled_jacobian_matrices(self, p):
        for text in ("x*y^3*z^3*w^3", "x^3*y^3*z^3*w^3", "x*y^2*z^3"):
            spec = MonomialSpec.parse(text)
            for phi in (explicit_phi(spec), sample_phi(parameter_space(spec), 0)):
                matrix = _jacobian_columns(build_quotient(spec, phi))
                assert nullspace_mod_p(matrix, p) == reference_nullspace_mod_p(matrix, p)


class TestRationalReconstruction:
    BOUND = isqrt(P // 2)

    @pytest.mark.parametrize("value", [
        Fraction(0), Fraction(1), Fraction(-1), Fraction(3, 7), Fraction(-5, 11),
        Fraction(BOUND), Fraction(-BOUND, BOUND - 1), Fraction(1, BOUND),
    ])
    def test_round_trip_within_the_bound(self, value):
        residue = value.numerator * pow(value.denominator, -1, P) % P
        assert rational_reconstruction(residue, P) == value
        assert rational_reconstruction(residue - 5 * P, P) == value

    def test_beyond_the_bound(self):
        for value in (Fraction(self.BOUND + 1, 3), Fraction(1, self.BOUND + 1)):
            residue = value.numerator * pow(value.denominator, -1, P) % P
            assert rational_reconstruction(residue, P) is None
        # p = 101 takes |n|, d <= 7: 8 has no such fraction, 51 is 1/2
        assert rational_reconstruction(8, 101) is None
        assert rational_reconstruction(51, 101) == Fraction(1, 2)

    def test_a_pair_with_a_common_factor_is_refused(self):
        # mod q * P, q = 2^31 - 1, the residue a = 3/5 mod P: Euclid stops at (3q, 5q),
        # both within isqrt(q * P // 2), and 3q/5q is no fraction in lowest terms for a
        q = 2**31 - 1
        assert 5 * q <= isqrt(q * P // 2)
        assert rational_reconstruction(3 * pow(5, -1, P) % P, q * P) is None


class TestSolve:
    def test_exact_overdetermined(self):
        rows = [[1, 2], [3, 4], [5, 6]]
        assert solve(rows, [5, 11, 17]) == [Fraction(1), Fraction(2)]
        assert exact_solve(rows, [5, 11, 17]) == [1, 2]

    def test_exact_cyclotomic(self):
        z = root_of_unity(4, 1)
        rows, x = [[1, z], [z, 1], [z * z, z]], [1 - z, Fraction(1, 2) + z]
        rhs = [sum((a * b for a, b in zip(row, x)), 0) for row in rows]
        assert solve(rows, rhs) == x

    def test_float_solution_is_complex(self):
        x = solve([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]], [1.0, 4.0, 3.0])
        assert all(isinstance(v, complex) for v in x)
        assert abs(x[0] - 1) < 1e-12 and abs(x[1] - 2) < 1e-12

    def test_float_rhs_makes_a_float_system(self):
        x = solve([[1], [1]], [2.0 + 1j, 2.0 + 1j])
        assert isinstance(x[0], complex) and abs(x[0] - (2 + 1j)) < 1e-12

    def test_rank_gate(self):
        with pytest.raises(RankDeficientSystem):
            solve([[1.0, 2.0], [2.0, 4.0]], [1.0, 2.0])
        with pytest.raises(RankDeficientSystem):
            solve([[1, 2], [2, 4]], [1, 2])

    def test_residual_gate_carries_the_residual(self):
        with pytest.raises(InconsistentSystem) as info:
            solve([[1.0], [1.0]], [0.0, 1.0])
        assert info.value.residual == pytest.approx(0.5)
        assert info.value.detail == " (residual 5.000e-01)"

    def test_exact_inconsistency_has_no_residual(self):
        with pytest.raises(InconsistentSystem) as info:
            solve([[1], [1]], [0, 1])
        assert info.value.residual is None and info.value.detail == ""


class TestFloatSolveFactorsOnce:
    """A float solve reads its column rank off its own least squares, at RANK_CUTOFF."""

    @pytest.fixture
    def lstsq_calls(self, monkeypatch):
        import numpy as np

        def refuse(matrix):
            raise AssertionError("a float solve ranked its matrix a second time")

        calls, real = [], np.linalg.lstsq

        def counting(*args, **kwargs):
            calls.append(kwargs.get("rcond"))
            return real(*args, **kwargs)

        monkeypatch.setattr(linalg, "float_rank", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        monkeypatch.setattr(np.linalg, "lstsq", counting)
        return calls

    def test_full_rank(self, lstsq_calls):
        x = solve([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]], [1.0, 4.0, 3.0])
        assert abs(x[0] - 1) < 1e-12 and abs(x[1] - 2) < 1e-12
        assert lstsq_calls == [linalg.RANK_CUTOFF]

    @pytest.mark.parametrize("rows", [[[1.0, 2.0], [2.0, 4.0]],
                                      [[1.0, 0.0], [0.0, 1e-10]]])  # below the cutoff
    def test_rank_deficient(self, lstsq_calls, rows):
        with pytest.raises(RankDeficientSystem):
            solve(rows, [1.0, 2.0])
        assert len(lstsq_calls) == 1

    def test_inconsistent_carries_the_residual(self, lstsq_calls):
        with pytest.raises(InconsistentSystem) as info:
            solve([[1.0], [1.0]], [0.0, 1.0])
        assert info.value.residual == pytest.approx(0.5)
        assert info.value.detail == " (residual 5.000e-01)"
        assert len(lstsq_calls) == 1

    def test_degenerate_float_points(self, lstsq_calls):
        spec = MonomialSpec.parse("x*y^2")
        with pytest.raises(RankDeficientSystem, match="phi fit is not unique"):
            fit_phi_from_points(spec, PointSet(points=((1.0 + 0j, 1.0 + 0j),) * 3))
        with pytest.raises(InconsistentSystem, match="no phi fits these points"):
            fit_phi_from_points(spec, PointSet(points=((1.0, 1.0), (1.0, 2.0), (1.0, 3.0))))


class TestFitCoefficientsErrors:
    def test_exact_points_raise_non_radical(self):
        spec = MonomialSpec.parse("x*y*z")
        pts = list(points_from_decomposition(explicit_decomposition(spec), spec).points)
        pts[1] = pts[0]
        with pytest.raises(NonRadicalIdealError):
            fit_coefficients(spec, pts)
        pts = [(1, 1, 1), (1, 1, -1), (1, -1, 1), (1, 2, 3)]
        with pytest.raises(NonRadicalIdealError, match="inconsistent; the points"):
            fit_coefficients(spec, pts)

    def test_float_inconsistency_names_the_residual(self):
        spec = MonomialSpec.parse("x*y*z")
        pts = [(1.0, 1.0, 1.0), (1.0, 1.0, -1.0), (1.0, -1.0, 1.0), (1.0, 2.0, 3.0)]
        with pytest.raises(NonRadicalIdealError, match=r"inconsistent \(residual"):
            fit_coefficients(spec, pts)

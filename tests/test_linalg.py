"""The exact/float dispatch of linalg.rank and linalg.solve."""

import random
from fractions import Fraction

import pytest

from waring import MonomialSpec, explicit_decomposition, fit_coefficients, points_from_decomposition
from waring.cyclotomic import root_of_unity
from waring.linalg import (
    InconsistentSystem,
    RankDeficientSystem,
    exact_rank,
    exact_solve,
    rank,
    rank_mod_p,
    solve,
)
from waring.solver import NonRadicalIdealError


class TestRank:
    def test_exact_entries_rank_exactly(self):
        # a float SVD with cutoff 1e-8 would call this rank 1
        rows = [[1, 1], [1, 1 + Fraction(1, 10**12)]]
        assert rank(rows) == 2

    def test_float_entries_rank_by_svd(self):
        assert rank([[1.0, 1.0], [1.0, 1.0 + 1e-12]]) == 1
        assert rank([[1.0, 1.0], [1.0, 1.0 + 1e-12]], cutoff=1e-14) == 2

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
    # entries of at most 3 * 3 * 6 = 54 bound every minor of a matrix up to 7 x 7 by
    # 54^7 * 7^3.5 < 2^51 (Hadamard), so no nonzero minor vanishes mod p: the ranks agree
    @pytest.mark.parametrize("seed", range(12))
    def test_agrees_with_exact_rank(self, seed):
        rng = random.Random(seed)
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        matrix = random_matrix(rng, rows, cols, rng.randint(1, min(rows, cols, 6)))
        assert rank_mod_p(matrix, P) == exact_rank(matrix)

    def test_deficient(self):
        rng = random.Random(99)
        matrix = random_matrix(rng, 7, 7, 4)
        assert rank_mod_p(matrix, P) == exact_rank(matrix) == 4

    def test_multiples_of_p_reduce_to_zero(self):
        rng = random.Random(7)
        matrix = random_matrix(rng, 6, 7, 5)
        shifted = [[v + P * rng.randint(-3, 3) for v in row] for row in matrix]
        assert rank_mod_p(shifted, P) == exact_rank(matrix) == 5
        assert rank_mod_p([[P * v for v in row] for row in matrix], P) == 0
        assert rank_mod_p([[2, 4], [1, 3]], 2) == 1 < exact_rank([[2, 4], [1, 3]])

    def test_empty(self):
        assert rank_mod_p([], P) == 0
        assert rank_mod_p([[]], P) == 0


class TestSolve:
    def test_exact_overdetermined(self):
        rows = [[1, 2], [3, 4], [5, 6]]
        assert solve(rows, [5, 11, 17], 1e-6) == [Fraction(1), Fraction(2)]
        assert exact_solve(rows, [5, 11, 17]) == [1, 2]

    def test_exact_cyclotomic(self):
        z = root_of_unity(4, 1)
        rows, x = [[1, z], [z, 1], [z * z, z]], [1 - z, Fraction(1, 2) + z]
        rhs = [sum((a * b for a, b in zip(row, x)), 0) for row in rows]
        assert solve(rows, rhs, 1e-6) == x

    def test_float_solution_is_complex(self):
        x = solve([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]], [1.0, 4.0, 3.0], 1e-9)
        assert all(isinstance(v, complex) for v in x)
        assert abs(x[0] - 1) < 1e-12 and abs(x[1] - 2) < 1e-12

    def test_float_rhs_makes_a_float_system(self):
        x = solve([[1], [1]], [2.0 + 1j, 2.0 + 1j], 1e-9)
        assert isinstance(x[0], complex) and abs(x[0] - (2 + 1j)) < 1e-12

    def test_rank_gate(self):
        with pytest.raises(RankDeficientSystem):
            solve([[1.0, 2.0], [2.0, 4.0]], [1.0, 2.0], 1e-6)
        with pytest.raises(RankDeficientSystem):
            solve([[1, 2], [2, 4]], [1, 2], 1e-6)

    def test_residual_gate_carries_the_residual(self):
        with pytest.raises(InconsistentSystem) as info:
            solve([[1.0], [1.0]], [0.0, 1.0], 1e-6)
        assert info.value.residual == pytest.approx(0.5)
        assert info.value.detail == " (residual 5.000e-01)"

    def test_exact_inconsistency_has_no_residual(self):
        with pytest.raises(InconsistentSystem) as info:
            solve([[1], [1]], [0, 1], 1e-6)
        assert info.value.residual is None and info.value.detail == ""


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

import cmath
import itertools
import os
import subprocess
import sys
from fractions import Fraction
from math import prod
from pathlib import Path

import numpy as np
import pytest

from waring import (
    MonomialSpec,
    PhiTuple,
    build_quotient,
    explicit_decomposition,
    explicit_phi,
    extract_points,
    fit_coefficients,
    ideal_membership,
    is_radical,
    make_ci_ideal,
    points_from_decomposition,
    trace_form_rank,
)
from waring import solver
from waring.cyclotomic import root_of_unity
from waring.linalg import exact_rank
from waring.monomials import EXACT_CYCLOTOMIC, Decomposition
from waring.solver import NonRadicalIdealError, PointExtractionError
from waring.polynomial import DUAL, LinearForm, SparsePoly, exponents_of_degree, parse_poly
from waring.vsp import parameter_space, sample_phi


def D(text, n=3):
    return parse_poly(text, n, DUAL)


def phi_of(spec, *entries):
    return PhiTuple(spec, [e if not isinstance(e, str) else D(e, spec.n + 1) for e in entries])


class TestBuildQuotient:
    def test_dimensions(self, xyz, x2y2z2, xy2z3):
        assert build_quotient(x2y2z2, phi_of(x2y2z2, Fraction(1), Fraction(1))).dim == 9
        assert build_quotient(xyz, phi_of(xyz, Fraction(1), Fraction(1))).dim == 4
        assert build_quotient(xy2z3, phi_of(xy2z3, "a2", "a1^2")).dim == 12

    def test_basis_is_the_standard_monomial_box(self, x2y2z2):
        q = build_quotient(x2y2z2, phi_of(x2y2z2, Fraction(1), Fraction(1)))
        assert set(q.basis) == {(0, a, b) for a in range(3) for b in range(3)}

    def test_multiplication_matrices_commute(self, xy2z3):
        # build_quotient asserts commutation internally; also verify densely
        q = build_quotient(xy2z3, phi_of(xy2z3, "a1 + a2", "a0^2 - a1*a2"))
        m1, m2 = q.dense_matrix(1), q.dense_matrix(2)
        assert np.allclose(m1 @ m2, m2 @ m1)

    def test_incomplete_phi_rejected(self, xyz):
        with pytest.raises(ValueError):
            build_quotient(xyz, PhiTuple(xyz, [Fraction(1)]))


class TestTraceForm:
    def test_full_rank_for_distinct_points(self, x2y2z2):
        q = build_quotient(x2y2z2, phi_of(x2y2z2, Fraction(1), Fraction(1)))
        assert trace_form_rank(q) == 9

    def test_zero_phi_drops_rank(self, x2y2z2):
        q = build_quotient(x2y2z2, phi_of(x2y2z2, Fraction(1), Fraction(0)))
        assert trace_form_rank(q) < 9

    def test_embedded_point_example_rank_eleven(self, xy2z3):
        # scheme of length 2 at one point plus 10 reduced points:
        # the computed value 11 is kept as a regression constant
        q = build_quotient(xy2z3, phi_of(xy2z3, "a2", "a1^2"))
        assert trace_form_rank(q) == 11

    def test_float_domain_refused(self, xyz):
        q = build_quotient(xyz, phi_of(xyz, Fraction(1), Fraction(1)))
        fake = q.__class__(
            spec=q.spec,
            phi=q.phi,
            basis=q.basis,
            index=q.index,
            columns=tuple(
                tuple(tuple((r, complex(c)) for r, c in col) for col in cols)
                for cols in q.columns
            ),
        )
        with pytest.raises(TypeError):
            trace_form_rank(fake)


class TestTraceRankFloatCrossCheck:
    def test_rank_equals_separated_point_count(self):
        # at tol 1e-6 extraction raises exactly when the trace rank is below dim:
        # defective multiplicities collapse below that, distinct points stay apart
        cases = [
            ((1, 2), ("2*a0 + 3*a1",), False),  # double root: y^3 - 3y - 2
            ((1, 2), ("2*a0 + 4*a1",), True),
            ((1, 2, 3), ("a2", "a1^2"), False),  # embedded double point
            ((2, 2, 2), (Fraction(1), Fraction(1)), True),
        ]
        for exps, entries, radical in cases:
            spec = MonomialSpec.from_exponents(exps)
            phi = phi_of(spec, *entries)
            q = build_quotient(spec, phi)
            rank = trace_form_rank(q)
            assert rank <= q.dim
            assert (rank == q.dim) == radical
            for seed in range(8):
                if not radical:
                    with pytest.raises(PointExtractionError):
                        extract_points(q, tol=1e-6, seed=seed)
                    continue
                pts = extract_points(q, tol=1e-6, seed=seed)
                assert len(pts) == q.dim
                for a, b in itertools.combinations(pts.points, 2):
                    assert max(abs(x - y) for x, y in zip(a, b)) > 1e-6


def reference_trace_rank(q):
    """The pairwise construction: every T[a][b] an r-term dot product over Q, then exact rank."""
    table = {}

    def normal_form(e):
        if e not in table:
            i = next((i for i, ei in enumerate(e) if ei), None)
            if i is None:
                table[e] = [int(b == e) for b in q.basis]
            else:
                below = normal_form(tuple(x - (k == i) for k, x in enumerate(e)))
                table[e] = q.apply(i, enumerate(below))
        return table[e]

    def add(a, b):
        return tuple(x + y for x, y in zip(a, b))

    traces = [sum(normal_form(add(c, a))[k] for k, a in enumerate(q.basis)) for c in q.basis]
    matrix = [[sum(t * v for t, v in zip(traces, normal_form(add(a, b))) if v) for b in q.basis]
              for a in q.basis]
    return exact_rank(matrix)


def dense_phi(spec, seed, denominator=None):
    """Every phi_i a full form in (a1..an) of degree d_i - d0 >= 2: the chart origin is singular.

    Coefficients are k / denominator, k in 1..9, or k over a random 1..5 by default."""
    rng = np.random.default_rng(seed)
    entries = []
    for d in spec.exponents[1:]:
        terms = {(0,) + e: Fraction(int(rng.integers(1, 10)),
                                    denominator or int(rng.integers(1, 6)))
                 for e in exponents_of_degree(spec.n, d - spec.exponents[0])}
        entries.append(SparsePoly(spec.n + 1, DUAL, terms))
    return PhiTuple(spec, entries)


CORRUPTIONS = [lambda x: x + 1 if x else x, lambda x: Fraction(0)]


def ranks_with_corrupted_lifts(corrupt):
    """(trace_form_rank, reference) pairs and the count of exact ranks, with every
    reconstructed kernel entry passed through ``corrupt``.

    The first phi is dense and deficient: every prime must reject its lifts, and
    exact elimination decides.  The second has full rank over Q, but its form drops
    rank mod 2^61 - 1: a lift accepted there would report a rank below 9.
    """
    dense = MonomialSpec.parse("x*y^3*z^3")
    x2y2z2 = MonomialSpec.parse("x^2*y^2*z^2")
    cases = [(dense, dense_phi(dense, 5)),
             (x2y2z2, phi_of(x2y2z2, Fraction(1, 2**61 - 1), Fraction(3)))]
    calls = []
    reconstruct, rank = solver.rational_reconstruction, solver.exact_rank
    solver.rational_reconstruction = lambda a, p: corrupt(reconstruct(a, p))
    solver.exact_rank = lambda rows: calls.append(len(rows)) or rank(rows)
    try:
        quotients = [build_quotient(spec, phi) for spec, phi in cases]
        return [(trace_form_rank(q), reference_trace_rank(q)) for q in quotients], len(calls)
    finally:
        solver.rational_reconstruction, solver.exact_rank = reconstruct, rank


class TestModularCertificate:
    """trace_form_rank agrees with the pairwise exact construction; below full rank mod p
    it is certified by kernel vectors lifted to Q, and it ranks by exact elimination only
    when no prime certifies or the entries are cyclotomic."""

    @pytest.fixture
    def exact_calls(self, monkeypatch):
        calls = []

        def counting(rows):
            calls.append(len(rows))
            return exact_rank(rows)

        monkeypatch.setattr(solver, "exact_rank", counting)
        return calls

    def check(self, spec, phi, exact_calls, want_exact_calls):
        q = build_quotient(spec, phi)
        expected = reference_trace_rank(q)
        assert trace_form_rank(q) == expected
        assert len(exact_calls) == want_exact_calls
        return expected, q.dim

    @pytest.mark.parametrize("text", ["x*y^2*z^3", "x^2*y^2*z^3", "x*y*z^2*w^3"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_sampled_full_rank_phi_skips_exact_rank(self, exact_calls, text, seed):
        spec = MonomialSpec.parse(text)
        rank, r = self.check(spec, sample_phi(parameter_space(spec), seed), exact_calls, 0)
        assert rank == r

    @pytest.mark.parametrize("text", ["x*y*z^2", "x*y^3*z^3"])
    def test_explicit_phi(self, exact_calls, text):
        spec = MonomialSpec.parse(text)
        rank, r = self.check(spec, explicit_phi(spec), exact_calls, 0)
        assert rank == r

    @pytest.mark.parametrize("text", ["x*y^3*z^3", "x*y^3*z^3*w^3"])
    def test_dense_deficient_phi_ranks_exactly_once(self, exact_calls, monkeypatch, text):
        # with every lift refused, each prime of TRACE_PRIMES falls through and one
        # exact elimination decides, not one per prime
        monkeypatch.setattr(solver, "rational_reconstruction", lambda a, p: None)
        spec = MonomialSpec.parse(text)
        rank, r = self.check(spec, dense_phi(spec, 5), exact_calls, 1)
        assert rank < r

    @pytest.mark.parametrize("text", ["x*y^3*z^3", "x*y^3*z^3*w^3"])
    def test_dense_deficient_phi_is_certified_by_the_kernel_lift(self, exact_calls, text):
        spec = MonomialSpec.parse(text)
        rank, r = self.check(spec, dense_phi(spec, 5), exact_calls, 0)
        assert rank < r

    @pytest.mark.parametrize("text", ["x*y^3*z^3", "x*y^3*z^5", "x*y^4*z^4"])
    @pytest.mark.parametrize("denominator", [1, 6, 35])
    def test_dense_phi_sweep_is_certified_by_the_kernel_lift(self, exact_calls, text,
                                                             denominator):
        spec = MonomialSpec.parse(text)
        rank, r = self.check(spec, dense_phi(spec, 0, denominator), exact_calls, 0)
        assert rank < r

    def test_kernel_beyond_one_prime_falls_back_to_exact_rank(self, exact_calls, monkeypatch):
        # with the denominator 2^20 + 7 the kernel vectors need more than 30 bits even
        # with the powers of D taken out, so one 61-bit prime cannot reconstruct them
        monkeypatch.setattr(solver, "TRACE_PRIMES", (2**61 - 1,))
        spec = MonomialSpec.parse("x*y^3*z^3")
        rank, r = self.check(spec, dense_phi(spec, 0, 2**20 + 7), exact_calls, 1)
        assert rank < r

    @pytest.mark.parametrize("text", ["x*y^3*z^3", "x*y^4*z^4", "x*y^3*z^3*w^3"])
    @pytest.mark.parametrize("denominator", [1, 6, 35])
    def test_rational_dense_phi_is_certified_at_the_first_prime(self, exact_calls, monkeypatch,
                                                                 text, denominator):
        # the kernel is reconstructed without the powers of D the rescaled form carries
        primes = []
        kernel = solver.nullspace_mod_p
        monkeypatch.setattr(solver, "nullspace_mod_p",
                            lambda rows, p: primes.append(p) or kernel(rows, p))
        spec = MonomialSpec.parse(text)
        rank, r = self.check(spec, dense_phi(spec, 0, denominator), exact_calls, 0)
        assert rank < r and primes == [2**61 - 1]

    @pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=["shifted", "zero"])
    def test_corrupted_lift_is_rejected(self, corrupt):
        assert ranks_with_corrupted_lifts(corrupt) == ([(13, 13), (9, 9)], 1)

    def test_corrupted_lift_is_rejected_in_optimized_mode(self):
        tests = Path(__file__).resolve().parent
        code = (
            "from test_solver import CORRUPTIONS, ranks_with_corrupted_lifts\n"
            "for corrupt in CORRUPTIONS:\n"
            "    print(ranks_with_corrupted_lifts(corrupt))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True).stdout
        assert out.splitlines() == ["([(13, 13), (9, 9)], 1)"] * 2

    @pytest.mark.parametrize("text", ["x*y^3*z^3", "x*y^3*z^3*w^3"])
    def test_dense_deficient_phi_builds_the_grid_once(self, monkeypatch, text):
        builds = []
        build = solver._trace_matrix
        monkeypatch.setattr(solver, "_trace_matrix",
                            lambda *args: builds.append(args) or build(*args))
        spec = MonomialSpec.parse(text)
        q = build_quotient(spec, dense_phi(spec, 5))
        assert trace_form_rank(q) < q.dim
        assert len(builds) == 1

    @pytest.mark.parametrize("text", ["x*y^2*z^3", "x^2*y^2*z^3", "x*y*z^2*w^3"])
    def test_rational_phi_is_certified_mod_p(self, exact_calls, text):
        spec = MonomialSpec.parse(text)
        divisors = itertools.cycle([2, 3, 5, 7])
        phi = PhiTuple(spec, [
            SparsePoly(p.num_vars, DUAL, {e: Fraction(c) / next(divisors) for e, c in p.terms.items()})
            for p in sample_phi(parameter_space(spec), 0).entries
        ])
        q = build_quotient(spec, phi)
        assert any(c.denominator > 1 for cols in q.columns for col in cols for _, c in col)
        rank, r = self.check(spec, phi, exact_calls, 0)
        assert rank == r

    def test_embedded_point_is_certified_by_the_kernel_lift(self, exact_calls, xy2z3):
        assert self.check(xy2z3, phi_of(xy2z3, "a2", "a1^2"), exact_calls, 0) == (11, 12)

    def test_denominator_divisible_by_p_is_certified_by_the_next_prime(self, exact_calls,
                                                                        x2y2z2):
        # mod 2^61 - 1 the rescaled form drops rank, no lift passes, and 2^127 - 1 certifies
        phi = phi_of(x2y2z2, Fraction(1, 2**61 - 1), Fraction(3))
        assert self.check(x2y2z2, phi, exact_calls, 0) == (9, 9)

    def test_cyclotomic_quotient_takes_the_exact_path(self, exact_calls, x2y2z2):
        z = root_of_unity(3, 1)
        assert self.check(x2y2z2, phi_of(x2y2z2, z, 1 + z), exact_calls, 1) == (9, 9)


def fraction_columns(spec, phi):
    """The multiplication matrices reduced with Fraction tails, as phi stores them when
    parsed or sampled: the reference for the int columns of build_quotient."""
    tails = [solver.dehomogenize(p, 0).map_coefficients(Fraction) for p in phi.entries]
    basis = solver.standard_monomials(spec)
    index = {e: i for i, e in enumerate(basis)}
    columns = []
    for i in range(1, spec.n + 1):
        lifted = [tuple(x + (j == i) for j, x in enumerate(e)) for e in basis]
        columns.append(tuple(
            ((index[t], 1),) if t in index else tuple(sorted(
                (index[m], c) for m, c in
                solver.ci_normal_form({t: Fraction(1)}, spec.exponents, tails).items()))
            for t in lifted))
    return tuple(columns)


def entries(columns):
    return [c for cols in columns for col in cols for _, c in col]


class TestIntegerColumns:
    """An integral phi reduces in int, and its columns equal the Fraction reduction."""

    @pytest.mark.parametrize("text, phi", [
        ("x*y^2*z^3", "sampled"), ("x^2*y^2*z^3", "sampled"), ("x*y*z^2*w^3", "sampled"),
        ("x*y^3*z^3", "explicit"), ("x*y^3*z^3*w^3", "explicit"), ("x*y^3*z^3", "dense"),
    ])
    def test_integral_phi_gives_int_columns(self, text, phi):
        spec = MonomialSpec.parse(text)
        phi = {"sampled": lambda: sample_phi(parameter_space(spec), 0),
               "explicit": lambda: explicit_phi(spec),
               "dense": lambda: dense_phi(spec, 5, 1)}[phi]()
        columns = build_quotient(spec, phi).columns
        assert all(type(c) is int for c in entries(columns))
        reference = fraction_columns(spec, phi)
        assert any(type(c) is Fraction for c in entries(reference))
        assert columns == reference

    @pytest.mark.parametrize("denominator", [6, 35])
    def test_rational_phi_keeps_fraction_columns(self, denominator):
        spec = MonomialSpec.parse("x*y^3*z^3")
        phi = dense_phi(spec, 0, denominator)
        columns = build_quotient(spec, phi).columns
        assert any(isinstance(c, Fraction) and c.denominator > 1 for c in entries(columns))
        assert columns == fraction_columns(spec, phi)


class TestIsRadical:
    def test_ab_nonzero_dichotomy(self, x2y2z2):
        for a, b in itertools.product(range(-2, 3), repeat=2):
            expected = a != 0 and b != 0
            assert is_radical(x2y2z2, phi_of(x2y2z2, Fraction(a), Fraction(b))) == expected

    def test_embedded_point_example_is_not_radical(self, xy2z3):
        assert not is_radical(xy2z3, phi_of(xy2z3, "a2", "a1^2"))

    def test_explicit_phi_is_radical(self, xyz2):
        assert is_radical(xyz2, explicit_phi(xyz2))


class TestIdealMembership:
    def test_embedded_point_example_membership(self, xy2z3):
        ideal = make_ci_ideal(xy2z3, phi_of(xy2z3, "a2", "a1^2"))
        P = D("a0^4*a1 - a1^2*a2^3")
        assert not ideal_membership(P, ideal)
        assert ideal_membership(P * P, ideal)
        assert ideal_membership(ideal.generators[0], ideal)

    def test_rejects_inhomogeneous(self, xy2z3):
        ideal = make_ci_ideal(xy2z3, phi_of(xy2z3, "a2", "a1^2"))
        with pytest.raises(ValueError):
            ideal_membership(D("a0 + 1"), ideal)


class TestExtractPoints:
    def test_x2y2z2_closed_form_points(self, x2y2z2):
        q = build_quotient(x2y2z2, phi_of(x2y2z2, Fraction(1), Fraction(1)))
        pts = extract_points(q, seed=2)
        assert len(pts) == 9
        omega = cmath.exp(2j * cmath.pi / 3)
        expected = sorted(
            ((omega**i).real.__round__(8), (omega**i).imag.__round__(8),
             (omega**j).real.__round__(8), (omega**j).imag.__round__(8))
            for i in range(3)
            for j in range(3)
        )
        got = sorted(
            (p[1].real.__round__(8), p[1].imag.__round__(8),
             p[2].real.__round__(8), p[2].imag.__round__(8))
            for p in pts.points
        )
        assert got == pytest.approx(expected, abs=1e-9)

    def test_xyz_sign_points(self, xyz):
        q = build_quotient(xyz, phi_of(xyz, Fraction(1), Fraction(1)))
        pts = extract_points(q, seed=0)
        got = sorted((round(p[1].real), round(p[2].real)) for p in pts.points)
        assert got == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
        assert max(pts.residuals) < 1e-9

    def test_xyz2_explicit_phi_points(self, xyz2):
        q = build_quotient(xyz2, explicit_phi(xyz2))
        pts = extract_points(q, seed=1)
        assert len(pts) == 6
        for p in pts.points:
            assert abs(p[1] ** 2 - 1) < 1e-9  # +-1
            assert abs(p[2] ** 3 - 1) < 1e-9  # cube roots of unity

    def test_residuals_small_on_random_radical(self, xy2z3):
        from waring.vsp import parameter_space, sample_phi

        phi = sample_phi(parameter_space(xy2z3), 123)
        assert is_radical(xy2z3, phi)
        pts = extract_points(build_quotient(xy2z3, phi), seed=123)
        assert max(pts.residuals) < 1e-9

    def test_non_radical_raises(self, x2y2z2):
        q = build_quotient(x2y2z2, phi_of(x2y2z2, Fraction(1), Fraction(0)))
        with pytest.raises(PointExtractionError):
            extract_points(q, seed=0)

    def test_determinism(self, xy2z3):
        q = build_quotient(xy2z3, explicit_phi(xy2z3))
        a = extract_points(q, seed=9)
        b = extract_points(q, seed=9)
        assert a.points == b.points

    def test_pure_power(self):
        spec = MonomialSpec.parse("x^3")
        q = build_quotient(spec, PhiTuple(spec, []))
        pts = extract_points(q, seed=0)
        assert pts.points == ((1.0 + 0j,),)


def loop_extract_points(q, tol=1e-8, seed=0):
    """``extract_points`` as it was before it ran on arrays: one eigenvector at a time.

    Kept as the reference for the array version; it returns (points,
    residuals, a0 coordinates and degree <= 1 window norms of the unit
    eigenvectors) and raises PointExtractionError alike.
    """
    spec = q.spec
    n = spec.n
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 1.5, size=n)
    m = sum((weights[i - 1] * q.dense_matrix(i) for i in range(1, n + 1)), np.zeros((q.dim, q.dim)))
    _, vectors = np.linalg.eig(m.T)

    one_idx = q.index[(0,) * (n + 1)]
    var_idx = [q.index[tuple(1 if j == i else 0 for j in range(n + 1))] for i in range(1, n + 1)]
    raw = []
    for col in range(vectors.shape[1]):
        v = vectors[:, col]
        v = v / np.linalg.norm(v)
        lead = v[one_idx]
        scale = float(np.linalg.norm(np.concatenate(([v[one_idx]], v[var_idx]))))
        if abs(lead) < 1e-12 * scale:
            raise PointExtractionError("vanishing constant coordinate")
        point = (1.0 + 0j,) + tuple(complex(v[k] / lead) for k in var_idx)
        if any(max(abs(a - b) for a, b in zip(point, other[0])) < tol for other in raw):
            raise PointExtractionError("a point within tol of an earlier one")
        raw.append((point, complex(lead), scale))
    merged = sorted(
        raw, key=lambda record: tuple((round(x.real, 9), round(x.imag, 9)) for x in record[0])
    )
    points = [record[0] for record in merged]

    residuals = [0.0] * len(points)
    for i, entry in enumerate(q.phi.entries, start=1):
        d = spec.exponents[i]
        for j, p in enumerate(points):
            rhs = sum(complex(c) * prod(x**k for x, k in zip(p, e)) for e, c in entry.terms.items())
            top = max(abs(c) for c in p)
            residuals[j] = max(residuals[j], abs(p[i] ** (d + 1) - rhs) / max(1.0, top ** (d + 1)))
    return points, residuals, [rec[1] for rec in merged], [rec[2] for rec in merged]


def assert_close(got, want, tol=1e-12):
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert abs(complex(x) - complex(y)) <= tol * max(1.0, abs(complex(y)))


def assert_a0_ratio(points, alpha0, scale):
    """|p0| / ||p||_2, which check_alpha0_nonzero reads, is the eigenvector's |lead| / ||window||."""
    assert_close([1 / np.linalg.norm(p) for p in points.points], np.abs(alpha0) / np.array(scale))


class TestExtractPointsAgainstTheLoop:
    @pytest.mark.parametrize("text, seed", [("x*y^2*z^3", 0), ("x*y^2*z^3", 5),
                                            ("x^2*y^2*z^3", 1), ("x*y*z^2*w^2", 2),
                                            ("x^2*y^3*z^3*w^3", 4), ("x*y^4", 3)])
    def test_points_and_residuals_agree(self, text, seed):
        spec = MonomialSpec.parse(text)
        q = build_quotient(spec, sample_phi(parameter_space(spec), seed))
        got = extract_points(q, seed=seed)
        points, residuals, alpha0, scale = loop_extract_points(q, seed=seed)
        assert len(got) == len(points) == spec.rank
        for p, want in zip(got.points, points):  # the same order
            assert_close(p, want)
        assert_close(got.residuals, residuals)
        assert_a0_ratio(got, alpha0, scale)

    @pytest.mark.parametrize("text", ["x*y^2*z^3", "x*y*z^2*w^2"])
    def test_residuals_of_generators_the_points_miss(self, text):
        # points of one phi judged against another: residuals of order 1, not rounding
        from dataclasses import replace

        spec = MonomialSpec.parse(text)
        space = parameter_space(spec)
        q = replace(build_quotient(spec, sample_phi(space, 1)), phi=sample_phi(space, 2))
        got = extract_points(q, seed=1)
        _, residuals, _, _ = loop_extract_points(q, seed=1)
        assert min(residuals) > 1e-3
        assert_close(got.residuals, residuals)

    def test_non_radical_raises_alike(self, x2y2z2):
        q = build_quotient(x2y2z2, phi_of(x2y2z2, Fraction(1), Fraction(0)))
        for extract in (extract_points, loop_extract_points):
            with pytest.raises(PointExtractionError):
                extract(q, seed=0)

    def test_pure_power(self):
        spec = MonomialSpec.parse("x^3")
        q = build_quotient(spec, PhiTuple(spec, []))
        got = extract_points(q, seed=0)
        points, residuals, alpha0, scale = loop_extract_points(q, seed=0)
        assert got.points == tuple(points) == ((1.0 + 0j,),)
        assert list(got.residuals) == residuals == [0.0]
        assert_a0_ratio(got, alpha0, scale)


class TestFitCoefficients:
    def test_xy_quarter_coefficients(self):
        spec = MonomialSpec.parse("x*y")
        coeffs = fit_coefficients(spec, [(1, 1), (1, -1)])
        assert coeffs == [Fraction(1, 4), Fraction(-1, 4)]

    def test_xyz_sign_pattern(self, xyz):
        points = [(1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)]
        coeffs = fit_coefficients(xyz, points)
        assert coeffs == [Fraction(1, 24), Fraction(-1, 24), Fraction(-1, 24), Fraction(1, 24)]

    def test_exact_recovery_of_explicit_coefficients(self, xyz2, x2y2z2):
        for spec in (xyz2, x2y2z2):
            dec = explicit_decomposition(spec)
            pts = points_from_decomposition(dec, spec)
            coeffs = fit_coefficients(spec, pts)
            for got, (expected, _) in zip(coeffs, dec.summands):
                assert got == expected

    def test_integer_forms_give_exact_points(self):
        # 1/4 (x + y)^2 - 1/4 (x - y)^2 = x*y, with plain int coordinates
        spec = MonomialSpec.parse("x*y")
        dec = Decomposition(2, EXACT_CYCLOTOMIC, ((Fraction(1, 4), LinearForm((1, 1))),
                                                   (Fraction(-1, 4), LinearForm((1, -1)))))
        pts = points_from_decomposition(dec, spec)
        assert pts.is_exact()
        assert pts.points == ((1, 1), (1, -1))
        assert all(isinstance(c, Fraction) for p in pts.points for c in p)
        assert fit_coefficients(spec, pts) == [Fraction(1, 4), Fraction(-1, 4)]

    def test_folded_forms_give_all_ones(self, xyz):
        # scale each form by c^(1/d) so the coefficients fold into the forms
        dec = explicit_decomposition(xyz)
        folded = []
        for c, form in dec.summands:
            root = complex(c) ** (1 / dec.degree)
            folded.append(tuple(root * complex(v) for v in form.coeffs))
        coeffs = fit_coefficients(xyz, folded)
        assert all(abs(c - 1) < 1e-9 for c in coeffs)

    def test_wrong_point_count_rejected(self, xyz):
        with pytest.raises(ValueError):
            fit_coefficients(xyz, [(1, 1, 1)])

    def test_inconsistent_points_rejected(self, xyz):
        bad = [(1.0, 1.0, 1.0), (1.0, 1.0, -1.0), (1.0, -1.0, 1.0), (1.0, 2.0, 3.0)]
        with pytest.raises(NonRadicalIdealError):
            fit_coefficients(xyz, bad)

    def test_dropping_a_point_breaks_the_fit(self, xyz):
        # minimality: no (r-1)-subset of the true points can express the monomial
        dec = explicit_decomposition(xyz)
        pts = [tuple(complex(v) for v in form.coeffs) for _, form in dec.summands]
        from waring.polynomial import evaluation_matrix, exponents_of_degree, multinomial

        # one row per degree-d exponent e: (d; e) * l_j^e over the kept points
        exponents = exponents_of_degree(xyz.n + 1, xyz.degree)
        values = evaluation_matrix(pts[:-1], exponents)
        rows = [[multinomial(xyz.degree, e) * at_point[i] for at_point in values]
                for i, e in enumerate(exponents)]
        target = [1 if e == xyz.exponents else 0 for e in exponents]
        a, b = np.array(rows, complex), np.array(target, complex)
        x, *_ = np.linalg.lstsq(a, b, rcond=None)
        assert np.max(np.abs(a @ x - b)) > 1e-3

    def test_point_off_the_chart_is_refused(self, xyz):
        with pytest.raises(NonRadicalIdealError, match="nonzero a0"):
            fit_coefficients(xyz, [(0, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)])
        with pytest.raises(NonRadicalIdealError, match="nonzero a0"):
            fit_coefficients(xyz, [(0j, 1.0, 1.0), (1.0, 1.0, -1.0), (1.0, -1.0, 1.0), (1.0, 0, 0)])

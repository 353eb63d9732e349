import cmath
import itertools
import json
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
    ideal_membership,
    make_ci_ideal,
    trace_form_rank,
)
from waring import cli, solver
from waring.cyclotomic import root_of_unity
from waring.linalg import exact_rank
from waring.monomials import EXACT_CYCLOTOMIC, Decomposition, verify_decomposition
from waring.solver import NonRadicalIdealError, PointExtractionError, certify_radical
from waring.polynomial import DUAL, LinearForm, SparsePoly, exponents_of_degree, parse_poly
from waring.vsp import parameter_space, sample_phi

from conftest import spec_grid
from oracles import (
    column_product,
    fit_coefficients,
    full_columns,
    is_exact,
    jacobian_determinant,
    points_from_decomposition,
)


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

    def test_float_phi_refused(self, xyz):
        with pytest.raises(TypeError, match="int or Fraction coefficients in phi, got float"):
            build_quotient(xyz, phi_of(xyz, 1.5, Fraction(1)))


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
            boundary=tuple(
                {b: tuple((r, complex(c)) for r, c in col) for b, col in cols.items()}
                for cols in q.boundary
            ),
            plan=q.plan,
        )
        with pytest.raises(TypeError, match="trace form requires int entries, got complex"):
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


def reference_pairings(q, columns=None):
    """(T, R) from ``columns``, all n*r columns of M_1..M_n (q's own by default), pairwise:
    T[a][b] the trace of multiplication by basis[a] * basis[b], an r-term dot product, and
    R[a][b] its residue, the top coefficient of its normal form."""
    columns = columns or full_columns(q)
    table = {}

    def normal_form(e):
        if e not in table:
            i = next((i for i, ei in enumerate(e) if ei), None)
            if i is None:
                table[e] = [int(b == e) for b in q.basis]
            else:
                below = normal_form(tuple(x - (k == i) for k, x in enumerate(e)))
                table[e] = column_product(columns, i, enumerate(below))
        return table[e]

    def add(a, b):
        return tuple(x + y for x, y in zip(a, b))

    top = q.index[(0,) + q.spec.exponents[1:]]
    traces = [sum(normal_form(add(c, a))[k] for k, a in enumerate(q.basis)) for c in q.basis]
    trace = [[sum(t * v for t, v in zip(traces, normal_form(add(a, b))) if v) for b in q.basis]
             for a in q.basis]
    return trace, [[normal_form(add(a, b))[top] for b in q.basis] for a in q.basis]


def reference_trace_rank(q):
    """The exact rank of the pairwise trace form on the Fraction matrices of q's phi
    (``fraction_columns``)."""
    return exact_rank(reference_pairings(q, fraction_columns(q.spec, q.phi))[0])


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


def mixed_kernel_phi(lam=1):
    """A phi of x*y^3*z^3 of trace rank 13 whose kernel of M_J^T is not spanned by unit
    vectors (two of its three basis vectors have entries +-1 on three or four monomials),
    so a shifted entry breaks a kernel vector; with ``lam`` its image under a_j -> lam * a_j,
    j >= 1."""
    spec = MonomialSpec.parse("x*y^3*z^3")
    phi = phi_of(spec, "a1^2 + a0*a2 + a1*a2 - a2^2", "-a0*a2 - a1*a2")
    return spec, torus_image(spec, phi, lam)


def torus_image(spec, phi, lam):
    """phi_i(a0, lam * a) / lam^(d_i + 1): the ideal of phi with every point a / lam."""
    return PhiTuple(spec, [
        SparsePoly(p.num_vars, DUAL, {e: Fraction(c) * Fraction(lam) ** (sum(e) - e[0] - d - 1)
                                      for e, c in p.terms.items()})
        for d, p in zip(spec.exponents[1:], phi.entries)])


CORRUPTIONS = [lambda x: x + 1 if x else x, lambda x: Fraction(0)]


def ranks_with_corrupted_lifts(corrupt):
    """(trace_form_rank, reference) pairs and the count of exact ranks, with every
    reconstructed kernel entry passed through ``corrupt``.

    The first phi is deficient, and a corrupted lift of its kernel is no kernel
    vector: every prime must reject its lifts, and exact elimination decides.  The
    second has full rank over Q, but a1^3 = 2^31 - 1 makes a1 nilpotent mod 2^31 - 1,
    so M_J drops rank there and its kernel is reconstructed: a lift accepted there
    would report a rank below 9.
    """
    x2y2z2 = MonomialSpec.parse("x^2*y^2*z^2")
    cases = [mixed_kernel_phi(), (x2y2z2, phi_of(x2y2z2, 2**31 - 1, 3))]
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

    def test_a_repeated_kernel_vector_does_not_lift(self):
        # phi = (a1^2, a2^2) of x*y^3*z^3 has trace rank 9 of 16: its 7 kernel vectors
        # mod 2^31 - 1 lift, but one vector twice ends twice in one free column
        spec = MonomialSpec.parse("x*y^3*z^3")
        q = build_quotient(spec, phi_of(spec, "a1^2", "a2^2"))
        matrix, p = solver._jacobian_columns(q), 2**31 - 1
        kernel, powers = solver.nullspace_mod_p(matrix, p), [-sum(b) for b in q.basis]
        assert len(kernel) == 7
        assert solver._lifts_to_exact_kernel(matrix, kernel, p, powers, q.scale)
        assert not solver._lifts_to_exact_kernel(matrix, kernel[:1] * 2, p, powers, q.scale)

    def test_the_lift_reconstructs_only_nonzero_entries(self, monkeypatch, capsys):
        # the dense r = 64 radical of the ideal_queries round at seed 1 has a kernel of 7
        # vectors mod 2^31 - 1: 448 entries, of which 16 are nonzero and reconstructed
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
        try:
            import workloads
        finally:
            sys.path.pop(0)
        label = "radical x*y^3*z^3*w^3 (dense in (a1..an)^2)"
        argv = next(op.argv for op in workloads.build("ideal_queries", 1) if op.label == label)
        calls, kernels = [], []
        reconstruct, lift = solver.rational_reconstruction, solver._lifts_to_exact_kernel
        monkeypatch.setattr(solver, "rational_reconstruction",
                            lambda a, p: calls.append(a) or reconstruct(a, p))
        monkeypatch.setattr(solver, "_lifts_to_exact_kernel",
                            lambda matrix, kernel, *rest: kernels.append(kernel)
                            or lift(matrix, kernel, *rest))
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["trace_rank"] == 57
        [kernel] = kernels
        entries = [v for vector in kernel for v in vector]
        assert len(entries) == 448 and len(calls) == sum(map(bool, entries)) == 16

    def test_kernel_beyond_one_prime_falls_back_to_exact_rank(self, exact_calls, monkeypatch):
        # the torus image by lam = 2^20 + 7 puts powers of lam into the kernel vectors even
        # with the powers of D taken out, so one 61-bit prime cannot reconstruct them
        monkeypatch.setattr(solver, "TRACE_PRIMES", (2**61 - 1,))
        rank, r = self.check(*mixed_kernel_phi(2**20 + 7), exact_calls, 1)
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
        assert rank < r and primes == [2**31 - 1]

    @pytest.mark.parametrize("case", ["torus 35", "torus 250", "dense"])
    def test_kernels_of_agreeing_primes_are_joined(self, exact_calls, monkeypatch, case):
        # kernel entries up to lam^3 pass the bound 63 of 8191 and the 511 of 524287, and so
        # do those of the dense phi: they lift modulo the product of the primes, and only there
        monkeypatch.setattr(solver, "TRACE_PRIMES", (8191, 131071, 524287))
        if case == "dense":
            spec = MonomialSpec.parse("x*y^3*z^3*w^3")
            phi = dense_phi(spec, 0)
        else:
            spec, phi = mixed_kernel_phi(int(case.split()[1]))
        q = build_quotient(spec, phi)
        assert trace_form_rank(q) == exact_rank(solver._jacobian_columns(q)) < q.dim
        assert not exact_calls

    def test_a_prime_of_lower_rank_is_passed_over(self, exact_calls, monkeypatch):
        # at 8191 the first row of M_J^T outside the span of the others is taken times p, so
        # the rank drops as at a prime where it drops only mod p: other free columns and one
        # kernel vector more.  The kernel of 131071 is kept and joined with that of 524287;
        # its entries reach 20^3, past the bound 511 of 524287 alone
        kernel = solver.nullspace_mod_p
        sizes = []

        def dropping(rows, p):
            if p == 8191:
                scaled = ([*rows[:i], [p * v for v in rows[i]], *rows[i + 1:]]
                          for i in range(len(rows)))
                rows = next(m for m in scaled if len(kernel(m, p)) > len(kernel(rows, p)))
            basis = kernel(rows, p)
            sizes.append(len(basis))
            return basis

        monkeypatch.setattr(solver, "TRACE_PRIMES", (131071, 8191, 524287))
        monkeypatch.setattr(solver, "nullspace_mod_p", dropping)
        q = build_quotient(*mixed_kernel_phi(20))
        assert trace_form_rank(q) == 13 and sizes == [3, 4, 3]
        assert not exact_calls

    @pytest.mark.parametrize("lam", [6, 35, 1000])
    def test_torus_image_is_certified_at_the_first_prime(self, exact_calls, monkeypatch, lam):
        # D = lam^3, and the kernel of M_J^T in the b_j is Delta = diag(D^|b|) times the one
        # in the a_j: weighted by D^-|b| it reconstructs mod 2^61 - 1, by D^|b| it would not.
        # Its entries reach lam^3, past the bound 2^15 of 2^31 - 1 from lam = 35 on
        want = {6: [2**31 - 1], 35: [2**31 - 1, 2**61 - 1], 1000: [2**31 - 1, 2**61 - 1]}[lam]
        primes = []
        kernel = solver.nullspace_mod_p
        monkeypatch.setattr(solver, "nullspace_mod_p",
                            lambda rows, p: primes.append(p) or kernel(rows, p))
        spec, phi = mixed_kernel_phi(lam)
        assert self.check(spec, phi, exact_calls, 0) == (13, 16)
        assert build_quotient(spec, phi).scale == lam**3 and primes == want

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
        build = solver._jacobian_columns
        monkeypatch.setattr(solver, "_jacobian_columns",
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
        assert q.scale > 1 and all(type(c) is int for c in entries(full_columns(q)))
        rank, r = self.check(spec, phi, exact_calls, 0)
        assert rank == r

    def test_embedded_point_is_certified_by_the_kernel_lift(self, exact_calls, xy2z3):
        assert self.check(xy2z3, phi_of(xy2z3, "a2", "a1^2"), exact_calls, 0) == (11, 12)

    def test_denominator_divisible_by_p_is_certified_by_the_next_prime(self, exact_calls,
                                                                        x2y2z2):
        # D = 2^61 - 1 is a unit mod 2^31 - 1, which certifies; mod 2^61 - 1 the rescaled
        # form would drop rank (the next test has D = 2^31 - 1)
        phi = phi_of(x2y2z2, Fraction(1, 2**61 - 1), Fraction(3))
        assert self.check(x2y2z2, phi, exact_calls, 0) == (9, 9)

    def test_denominator_of_the_first_prime_is_certified_by_the_second(self, exact_calls,
                                                                        monkeypatch, x2y2z2):
        # D = 2^31 - 1: mod the first prime the rescaled form drops rank and no lift is
        # tried (p divides D), and 2^61 - 1 certifies full rank
        kernels = []  # (prime, kernel dimension)
        kernel = solver.nullspace_mod_p

        def counting(rows, p):
            basis = kernel(rows, p)
            kernels.append((p, len(basis)))
            return basis

        lifts = []  # the modulus of each lift tried
        lift = solver._lifts_to_exact_kernel
        monkeypatch.setattr(solver, "nullspace_mod_p", counting)
        monkeypatch.setattr(solver, "_lifts_to_exact_kernel",
                            lambda matrix, kernel, modulus, *rest: lifts.append(modulus)
                            or lift(matrix, kernel, modulus, *rest))
        phi = phi_of(x2y2z2, Fraction(1, 2**31 - 1), Fraction(3))
        assert self.check(x2y2z2, phi, exact_calls, 0) == (9, 9)
        assert [p for p, _ in kernels] == [2**31 - 1, 2**61 - 1]
        assert kernels[0][1] > 0 and kernels[1][1] == 0 and lifts == []

    @pytest.mark.parametrize("kind", ["sampled", "dense", "torus"])
    def test_first_prime_keeps_every_rank(self, monkeypatch, kind):
        # 36 phi per kind: the rank with 2^31 - 1 first equals the rank with 2^61 - 1 first
        specs = [MonomialSpec.parse(t) for t in ("x*y^2*z^3", "x*y^3*z^3", "x*y*z^2*w^3")]
        cases = {
            "sampled": lambda: [(s, sample_phi(parameter_space(s), seed))
                                for s in specs for seed in range(12)],
            "dense": lambda: [(s, dense_phi(s, seed)) for s in specs for seed in range(12)],
            "torus": lambda: [mixed_kernel_phi(lam) for lam in range(1, 37)],
        }[kind]()
        quotients = [build_quotient(spec, phi) for spec, phi in cases]
        new = [trace_form_rank(q) for q in quotients]
        monkeypatch.setattr(solver, "TRACE_PRIMES", (2**61 - 1, 2**127 - 1, 2**521 - 1))
        assert [trace_form_rank(q) for q in quotients] == new

    def test_cyclotomic_quotient_is_refused(self, exact_calls, x2y2z2):
        # the parser makes only rational phi: a CycloScalar entry is refused like a float
        z = root_of_unity(3, 1)
        with pytest.raises(TypeError, match="int or Fraction coefficients in phi, got CycloScalar"):
            build_quotient(x2y2z2, phi_of(x2y2z2, z, 1 + z))
        assert not exact_calls


def fraction_columns(spec, phi):
    """The multiplication matrices in the variables a_j, reduced with Fraction tails: the
    reference for the int columns of build_quotient."""
    tails = [SparsePoly(p.num_vars, DUAL, {e: Fraction(c) for e, c in
                                           solver.dehomogenize(p, 0).terms.items()})
             for p in phi.entries]
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


def rescaled(columns, basis, scale):
    """Entry (g, b) times D^(1 + |b| - |g|): the matrices in the variables b_j = D * a_j."""
    degree = [sum(b) for b in basis]
    return tuple(tuple(tuple((g, c * scale ** (1 + degree[b] - degree[g])) for g, c in col)
                       for b, col in enumerate(cols)) for cols in columns)


def entries(columns):
    return [c for cols in columns for col in cols for _, c in col]


def rational_phi(kind):
    """A dense phi over a fixed denominator, a phi with a coefficient 10^-20, or a
    non-canonical phi (a1^2 in phi_2 of x*y*z^3)."""
    if kind == "tiny":
        spec = MonomialSpec.parse("x*y^2")
        return spec, PhiTuple(spec, [SparsePoly(2, DUAL, {(1, 0): Fraction(3),
                                                          (0, 1): Fraction(1, 10**20)})])
    if kind == "non-canonical":
        spec = MonomialSpec.parse("x*y*z^3")
        return spec, phi_of(spec, Fraction(2, 3), "1/2*a1^2 + 3/5*a0*a2 - a1*a2")
    spec = MonomialSpec.parse("x*y^3*z^3")
    return spec, dense_phi(spec, 0, kind)


RATIONAL_PHIS = [6, 35, 2**20 + 7, "tiny", "non-canonical"]


class TestIntegerColumns:
    """build_quotient gives int columns: the Fraction reduction in the variables a_j,
    rescaled by the lcm D of phi's denominators (D = 1 for an integral phi)."""

    @pytest.mark.parametrize("text, phi", [
        ("x*y^2*z^3", "sampled"), ("x^2*y^2*z^3", "sampled"), ("x*y*z^2*w^3", "sampled"),
        ("x*y^3*z^3", "explicit"), ("x*y^3*z^3*w^3", "explicit"), ("x*y^3*z^3", "dense"),
    ])
    def test_integral_phi_gives_int_columns(self, text, phi):
        spec = MonomialSpec.parse(text)
        phi = {"sampled": lambda: sample_phi(parameter_space(spec), 0),
               "explicit": lambda: explicit_phi(spec),
               "dense": lambda: dense_phi(spec, 5, 1)}[phi]()
        q = build_quotient(spec, phi)
        assert q.scale == 1
        assert all(type(c) is int for c in entries(full_columns(q)))
        reference = fraction_columns(spec, phi)
        assert any(type(c) is Fraction for c in entries(reference))
        assert full_columns(q) == reference

    @pytest.mark.parametrize("kind", RATIONAL_PHIS)
    def test_rational_phi_gives_rescaled_int_columns(self, kind):
        spec, phi = rational_phi(kind)
        q = build_quotient(spec, phi)
        assert q.scale == {"tiny": 10**20, "non-canonical": 30}.get(kind, kind)
        assert all(type(c) is int for c in entries(full_columns(q)))
        assert full_columns(q) == rescaled(fraction_columns(spec, phi), q.basis, q.scale)

    @pytest.mark.parametrize("kind", RATIONAL_PHIS)
    def test_dense_matrix_is_the_reference_rounded(self, kind):
        # each int entry over its power of D rounds as the Fraction entry does, bit for bit
        spec, phi = rational_phi(kind)
        q = build_quotient(spec, phi)
        for i, cols in enumerate(fraction_columns(spec, phi), start=1):
            want = np.zeros((q.dim, q.dim))
            for b, col in enumerate(cols):
                for g, c in col:
                    want[g, b] = float(c)
            got = q.dense_matrix(i)
            assert got.dtype == np.float64
            assert np.array_equal(got, want)


def unit_phi(spec, seed):
    """Every phi_i a nonzero form in (a0..an) with coefficients drawn from {-1, 0, 1}."""
    rng = np.random.default_rng(seed)
    entries = []
    for d in spec.exponents[1:]:
        entry = SparsePoly(spec.n + 1, DUAL)
        while not entry:
            entry = SparsePoly(spec.n + 1, DUAL, {
                e: int(rng.integers(-1, 2))
                for e in exponents_of_degree(spec.n + 1, d - spec.exponents[0])})
        entries.append(entry)
    return PhiTuple(spec, entries)


def identity_case(kind):
    if kind == "embedded":
        spec = MonomialSpec.parse("x*y^2*z^3")
        return spec, phi_of(spec, "a2", "a1^2"), 11
    if kind == "mixed":
        return (*mixed_kernel_phi(), 13)
    if kind.startswith("sampled"):
        spec = MonomialSpec.parse(kind.split()[1])
        return spec, sample_phi(parameter_space(spec), 0), spec.rank
    spec = MonomialSpec.parse("x*y^3*z^3")
    return {"dense": (spec, dense_phi(spec, 5), 13),
            "rational 6": (spec, dense_phi(spec, 0, 6), 13),
            "rational 35": (spec, dense_phi(spec, 0, 35), 13)}[kind]


class TestJacobianCertificate:
    """Tr(h) = Res(J * h) (Scheja-Storch), so T = R * M_J with R the residue pairing,
    and trace_form_rank, which ranks M_J, is the rank of the trace form."""

    @pytest.mark.parametrize("kind", ["sampled x*y^2*z^3", "sampled x*y*z^2*w^3", "rational 6",
                                      "rational 35", "dense", "embedded", "mixed"])
    def test_trace_form_is_the_residue_pairing_times_m_j(self, kind):
        spec, phi, rank = identity_case(kind)
        q = build_quotient(spec, phi)
        trace, residue = reference_pairings(q)
        columns = solver._jacobian_columns(q)
        assert [[sum(x * y for x, y in zip(row, col)) for col in columns]
                for row in residue] == trace
        assert exact_rank(columns) == exact_rank(trace) == trace_form_rank(q) == rank
        if kind.startswith("rational"):
            assert q.scale == int(kind.split()[1])

    @pytest.mark.parametrize("text", ["x*y^2*z^2", "x*y^3*z^3", "x*y*z^2*w^2",
                                      "x0*x1*x2*x3*x4*x5^2"])
    def test_rank_agrees_with_the_reference(self, text):
        spec = MonomialSpec.parse(text)
        deficient = 0
        for seed in range(16):
            q = build_quotient(spec, unit_phi(spec, seed))
            rank = trace_form_rank(q)
            assert rank == reference_trace_rank(q)
            deficient += rank < q.dim
        assert deficient

    @pytest.mark.parametrize("text", ["x*y^2*z^3", "x*y*z^2*w^3", "x^3*y^6*z^7"])
    @pytest.mark.parametrize("kind", ["sampled", "explicit", "dense", "rational"])
    def test_the_dict_jacobian_is_the_laplace_expansion(self, monkeypatch, text, kind):
        spec = MonomialSpec.parse(text)
        phi = {"sampled": lambda: sample_phi(parameter_space(spec), 1),
               "explicit": lambda: explicit_phi(spec),
               "dense": lambda: dense_phi(spec, 5),
               "rational": lambda: dense_phi(spec, 0, 35)}[kind]()
        q = build_quotient(spec, phi)
        handed = []
        normal_form = solver.ci_normal_form
        monkeypatch.setattr(solver, "ci_normal_form", lambda terms, *rest:
                            handed.append(dict(terms)) or normal_form(terms, *rest))
        columns = solver._jacobian_columns(q)
        want = jacobian_determinant(q)
        assert want and handed == [want.terms]
        assert columns[0] == [normal_form(want.terms, spec.exponents, q.psi).get(b, 0)
                              for b in q.basis]
        if kind == "rational":
            assert q.scale > 1

    def test_equal_exponents_give_a_diagonal_jacobian(self):
        # every psi_i constant: J = prod (d_i + 1) b_i^d_i, one product per row
        spec = MonomialSpec.parse("x^2*y^2*z^2*w^2")
        q = build_quotient(spec, explicit_phi(spec))
        products = []
        add_product = solver._add_product
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "_add_product",
                          lambda *args: products.append(1) or add_product(*args))
            columns = solver._jacobian_columns(q)
        assert len(products) == spec.n
        # J = 27 b1^2 b2^2 b3^2 is the top standard monomial: column 0 needs no reduction
        assert columns[0] == [27 * (b == (0, 2, 2, 2)) for b in q.basis]
        assert trace_form_rank(q) == spec.rank


class TestTraceFormColumns:
    """trace_form_rank ranks the int columns of build_quotient as they are."""

    @pytest.mark.parametrize("text", ["x*y^2*z^3", "x*y*z^2*w^3"])
    def test_sampled_phi_is_certified_without_a_copy(self, monkeypatch, text):
        ranked = []
        build = solver._jacobian_columns
        monkeypatch.setattr(solver, "_jacobian_columns", lambda q: ranked.append(q) or build(q))
        spec = MonomialSpec.parse(text)
        certificate = certify_radical(spec, sample_phi(parameter_space(spec), 0))
        assert certificate.radical and certificate.quotient.scale == 1
        assert len(ranked) == 1 and ranked[0] is certificate.quotient

    def test_a_third_is_rescaled(self, xy2z3):
        phi = phi_of(xy2z3, "4/3*a0 + 5*a1 - 8*a2",
                     "-a0^2 + 8*a0*a1 + 7*a1^2 + 4*a0*a2 + a1*a2 + 7*a2^2")
        q = build_quotient(xy2z3, phi)
        assert q.scale == 3
        assert trace_form_rank(q) == reference_trace_rank(q) == 12

    def test_fraction_entries_of_denominator_one_are_made_int(self):
        # radical x*y*z^3 --phi 2 --phi "1/2*a1^2": phi_2 reduces through a1^2 -> 2, so
        # the Fraction reduction gives entries Fraction(1); the rescaled one gives ints
        spec = MonomialSpec.parse("x*y*z^3")
        phi = phi_of(spec, Fraction(2), "1/2*a1^2")
        q = build_quotient(spec, phi)
        assert any(type(c) is Fraction for c in entries(fraction_columns(spec, phi)))
        assert q.scale == 2
        assert all(type(c) is int for c in entries(full_columns(q)))
        assert trace_form_rank(q) == reference_trace_rank(q) == 8


def reference_jacobian_columns(q):
    """M_J with column b = b_i * column (b - e_i) through ``column_product`` over
    ``full_columns(q)`` and ``index``, for the first nonzero b_i; column 0, the normal form
    of J, is that of ``_jacobian_columns``."""
    columns, matrices = solver._jacobian_columns(q)[:1], full_columns(q)
    for b in q.basis[1:]:
        i = next(i for i, x in enumerate(b) if x)
        lower = q.index[tuple(x - (k == i) for k, x in enumerate(b))]
        columns.append(column_product(matrices, i, enumerate(columns[lower])))
    return columns


class TestQuotientPlan:
    """Every phi of a monomial shares one plan; what it builds equals a build from scratch."""

    @pytest.mark.parametrize("text", ["x*y^3", "x*y^2*z^3", "x*y*z^2*w^3", "x0*x1*x2*x3*x4^2"])
    def test_each_phi_equals_a_build_from_scratch(self, text):
        spec = MonomialSpec.parse(text)
        basis = tuple(solver.standard_monomials(spec))
        solver._quotient_plan.cache_clear()
        for kind, phi in [("sampled", sample_phi(parameter_space(spec), 0)),
                          ("explicit", explicit_phi(spec)), ("dense", dense_phi(spec, 1, 1)),
                          ("rational", dense_phi(spec, 0, 6))]:
            q = build_quotient(spec, phi)
            assert (q.scale > 1) == (kind == "rational")
            assert q.basis == basis and q.index == {e: i for i, e in enumerate(basis)}
            assert full_columns(q) == rescaled(fraction_columns(spec, phi), basis, q.scale)
            columns = solver._jacobian_columns(q)
            assert columns == reference_jacobian_columns(q)
            assert trace_form_rank(q) == exact_rank(columns)
        assert solver._quotient_plan.cache_info().misses == 1

    def test_a_changed_quotient_changes_no_later_one(self):
        spec = MonomialSpec.parse("x*y^2*z^3")
        first = build_quotient(spec, explicit_phi(spec))
        assert first.index is not solver._quotient_plan(spec.exponents).index
        first.index.clear()
        first.index[(0, 0, 0)] = 5
        first.basis = first.basis[::-1]
        phi = sample_phi(parameter_space(spec), 3)
        q = build_quotient(spec, phi)
        basis = tuple(solver.standard_monomials(spec))
        assert q.basis == basis and q.index == {e: i for i, e in enumerate(basis)}
        assert full_columns(q) == fraction_columns(spec, phi)


class TestTimes:
    """``times`` is the product by M_i over all n*r columns, the unit shifts included."""

    @pytest.mark.parametrize("kind", ["sampled", "explicit", "dense", "rational"])
    @pytest.mark.parametrize("text", ["x*y^2*z^3", "x*y*z^2*w^3"])
    def test_times_is_the_product_over_all_columns(self, text, kind):
        spec = MonomialSpec.parse(text)
        phi = {"sampled": lambda: sample_phi(parameter_space(spec), 0),
               "explicit": lambda: explicit_phi(spec),
               "dense": lambda: dense_phi(spec, 1, 1),
               "rational": lambda: dense_phi(spec, 0, 6)}[kind]()
        q = build_quotient(spec, phi)
        columns = full_columns(q)
        rng = np.random.default_rng(0)
        for _ in range(8):
            support = rng.choice(q.dim, size=int(rng.integers(1, 4)), replace=False)
            sparse = [(int(b), int(rng.integers(-9, 10))) for b in support]
            dense = [int(x) for x in rng.integers(-10**12, 10**12, size=q.dim)]
            for i in range(1, spec.n + 1):
                assert q.times(i, sparse) == column_product(columns, i, sparse)
                assert q.times(i, enumerate(dense)) == column_product(columns, i,
                                                                      enumerate(dense))

    @pytest.mark.parametrize("text", ["x*y^2*z^3", "x*y*z^2*w^3", "x0*x1*x2*x3*x4^2"])
    def test_two_unit_steps_meet_at_one_unit_column(self, text):
        # what ``_assert_commuting`` leaves out: from a column where b_i and b_j shift,
        # each order of the two steps is a unit shift to the basis vector of b + e_i + e_j
        shifts = solver._quotient_plan(MonomialSpec.parse(text).exponents).shifts
        for i, j in itertools.combinations(range(len(shifts)), 2):
            for b, (g_i, g_j) in enumerate(zip(shifts[i], shifts[j])):
                if g_i >= 0 and g_j >= 0:
                    assert shifts[i][g_j] == shifts[j][g_i] >= 0


def old_point_order(coords):
    """The sort of the points before the flat key: (re, im) pairs, a0 = 1 + 0j first."""
    rows = [(1.0 + 0j,) + tuple(row) for row in coords.tolist()]
    return sorted(range(len(rows)), key=lambda a: tuple(
        (round(x.real, 9), round(x.imag, 9)) for x in rows[a]))


def test_flat_point_key_sorts_as_the_pairs():
    # ties in re and in im, equal to 9 digits or exactly, -0.0, and rows with NaN and inf;
    # a NaN compares false both ways, and the two keys make the same comparisons
    values = [1 + 2j, 1 + 1j, 1 + 1j + 1e-12, 1 - 1j, 0.5 + 1j, complex(-0.0, 0.0), 0j,
              complex(1, 2 + 3e-10)]
    coords = np.array([[a, b] for a in values for b in values]
                      + [[complex(np.nan, 0), 1], [1, complex(np.inf, 0)],
                         [complex(1, np.nan), 0], [complex(-np.inf, 1), 2], [1 + 1j, np.nan]])
    rng = np.random.default_rng(0)
    for _ in range(5):
        shuffled = coords[rng.permutation(len(coords))]
        assert solver._point_order(shuffled) == old_point_order(shuffled)
        assert solver._point_order(shuffled.T.copy().T) == old_point_order(shuffled)  # F order



def tuple_point_order(coords):
    """The sort of the points by one tuple of round(x, 9) over their re, im, re, im, ..."""
    rows = np.ascontiguousarray(coords).view(float).tolist()
    keys = [tuple(round(x, 9) for x in row) for row in rows]
    return sorted(range(len(keys)), key=keys.__getitem__)


def near_ties(rng, count):
    """Values x whose x * 1e9 lies at or within a few ulps of a half-integer, from 1e-9 to
    1e8: where rint(x * 1e9) can round the other way than round(x, 9)."""
    values = [(2 * j + 1) / 1024 for j in range(8)]  # x * 1e9 is a half-integer exactly
    for _ in range(count):
        half = (int(rng.integers(0, 10 ** int(rng.integers(1, 18)))) + 0.5) / 1e9
        values += [half * rng.choice([1, -1])]
        for _ in range(3):
            values.append(np.nextafter(values[-1], rng.choice([np.inf, -np.inf])))
    for _ in range(count // 4):  # x * 1e9 >= 2^52: round(x, 9) is x, rint(x * 1e9) / 1e9 may not be
        values.append(float(rng.uniform(1, 2) * 10.0 ** rng.integers(7, 25)))
        for _ in range(3):
            values.append(np.nextafter(values[-1], np.inf))
    return values + [2.0**52 / 1e9, -1e20]


class TestVectorPointOrder:
    """The numpy keys of ``_point_order`` order rows as the tuples of round(x, 9) do."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_arrays(self, seed):
        rng = np.random.default_rng(seed)
        r, n = int(rng.integers(1, 40)), int(rng.integers(1, 5))
        scale = 10.0 ** rng.integers(-9, 9)
        coords = (rng.normal(size=(r, n)) + 1j * rng.normal(size=(r, n))) * scale
        coords[rng.integers(0, r, r // 3)] = coords[0]  # equal rows
        coords[rng.integers(0, r, r // 3), 0] = coords[-1, 0]  # rows that tie on a prefix
        grid = np.round(coords * 1e9) / 1e9  # equal to 9 digits, but for noise below them
        noisy = grid + rng.normal(size=(r, n)) * 1e-13 * max(scale, 1.0)
        for case in (coords, grid, noisy):
            assert solver._point_order(case) == tuple_point_order(case)

    @pytest.mark.parametrize("seed", range(4))
    def test_near_ties_against_their_rounded_values(self, seed):
        # each x sits beside round(x, 9) in a group of its own: a key that rounded x the
        # other way would break their tie, and so move one of the two orders below
        rng = np.random.default_rng(100 + seed)
        values = near_ties(rng, 40)
        rows = []
        for group, x in enumerate(values):
            rounded = round(x, 9)
            rows += [[group, rounded], [group, x], [group, x], [group, rounded]]
        coords = np.array(rows, dtype=float) * (1 - 1j if seed % 2 else 1)
        coords = coords[::-1] if seed > 1 else coords
        assert solver._point_order(coords) == tuple_point_order(coords)

    def test_a_shuffled_mix_and_no_coordinates(self):
        rng = np.random.default_rng(7)
        values = np.array(near_ties(rng, 60))
        coords = rng.choice(values, size=(200, 3)) + 1j * rng.choice(values, size=(200, 3))
        coords[::5, 0] = coords[0, 0]
        for _ in range(3):
            shuffled = coords[rng.permutation(len(coords))]
            assert solver._point_order(shuffled) == tuple_point_order(shuffled)
        assert solver._point_order(np.zeros((3, 0), dtype=complex)) == [0, 1, 2]

    def test_neighbouring_floats_in_descending_rows(self):
        # two keys that fell together where round(x, 9) keeps them apart would keep
        # these rows in their descending order
        rng = np.random.default_rng(11)
        values = sorted(set(near_ties(rng, 80)), reverse=True)
        coords = np.array(values)[:, None] * np.array([1, 1j])
        assert solver._point_order(coords) == tuple_point_order(coords)


class TestIsRadical:
    def test_ab_nonzero_dichotomy(self, x2y2z2):
        for a, b in itertools.product(range(-2, 3), repeat=2):
            expected = a != 0 and b != 0
            phi = phi_of(x2y2z2, Fraction(a), Fraction(b))
            assert certify_radical(x2y2z2, phi).radical == expected

    def test_embedded_point_example_is_not_radical(self, xy2z3):
        assert not certify_radical(xy2z3, phi_of(xy2z3, "a2", "a1^2")).radical

    def test_explicit_phi_is_radical(self, xyz2):
        assert certify_radical(xyz2, explicit_phi(xyz2)).radical


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
        assert certify_radical(xy2z3, phi).radical
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


def loop_chart(q, a):
    """g_i = a_i^(d_i+1) - phi_i(1, a) and dg_i/da_j at one point a = (a_1..a_n), term by term."""
    spec, n = q.spec, q.spec.n
    g, jac = np.zeros(n, complex), np.zeros((n, n), complex)
    for i, entry in enumerate(q.phi.entries):
        d = spec.exponents[i + 1]
        g[i], jac[i, i] = a[i] ** (d + 1), (d + 1) * a[i] ** d
        for e, c in entry.terms.items():
            g[i] -= complex(c) * prod(x**k for x, k in zip(a, e[1:]))
            for j in range(n):
                if e[j + 1]:
                    jac[i, j] -= complex(c) * e[j + 1] * prod(
                        x ** (k - (m == j)) for m, (x, k) in enumerate(zip(a, e[1:])))
    return g, jac


def loop_newton(q, point):
    """``solver.NEWTON_STEPS`` Newton steps at one point, by ``loop_chart``.

    A singular Jacobian raises PointExtractionError, as in ``extract_points``.
    """
    a = list(point[1:])
    for _ in range(solver.NEWTON_STEPS):
        g, jac = loop_chart(q, a)
        try:
            a = (np.array(a) - np.linalg.solve(jac, g)).tolist()
        except np.linalg.LinAlgError:
            raise PointExtractionError("Newton step: the Jacobian is singular") from None
    return (1.0 + 0j,) + tuple(complex(x) for x in a)


def loop_extract_points(q, tol=1e-8, seed=0):
    """``extract_points`` as it was before it ran on arrays: one eigenvector at a time.

    Kept as the reference for the array version; each point is refined on its
    own by ``loop_newton``.  It returns (points, residuals, a0 coordinates and
    degree <= 1 window norms of the unit eigenvectors) and raises
    PointExtractionError alike.
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
    raw = [(loop_newton(q, point), lead, scale) for point, lead, scale in raw]
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
    """|p0| / ||p||_2 of each point, with p0 = 1, is the eigenvector's |lead| / ||window||."""
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
    def test_residuals_of_generators_the_points_miss(self, monkeypatch, text):
        # points of one phi judged against another: residuals of order 1, not rounding;
        # without Newton steps, which would move the points toward the other phi's roots
        from dataclasses import replace

        monkeypatch.setattr(solver, "NEWTON_STEPS", 0)
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


class TestRealEigenvalueStage:
    """phi is rational, so M is real: one real ``eig``, and the points stay complex."""

    @staticmethod
    def eig_calls(monkeypatch, q, seed):
        calls = []
        eig = np.linalg.eig

        def spy(a):
            calls.append((a.dtype, a.shape))
            return eig(a)

        monkeypatch.setattr(np.linalg, "eig", spy)
        extract_points(q, seed=seed)
        return calls

    @pytest.mark.parametrize("text, seed", [("x*y^2", 0), ("x*y^2*z^3", 0), ("x^2*y^3*z^3*w^3", 4)])
    def test_one_float64_eig_per_call(self, monkeypatch, text, seed):
        spec = MonomialSpec.parse(text)
        q = build_quotient(spec, sample_phi(parameter_space(spec), seed))
        assert self.eig_calls(monkeypatch, q, seed) == [(np.float64, (spec.rank, spec.rank))]

    @pytest.mark.parametrize("text, seed", [("x*y", 0), ("x^3*y^3*z^3*w^3", 1), ("x*y^2*z^3", None)])
    def test_no_eig_on_a_binomial_phi(self, monkeypatch, text, seed):
        spec = MonomialSpec.parse(text)
        phi = explicit_phi(spec) if seed is None else sample_phi(parameter_space(spec), seed)
        assert self.eig_calls(monkeypatch, build_quotient(spec, phi), 0) == []

    def test_all_real_points_keep_complex_coordinates(self):
        # the roots of a^2 = 1 are real: the grid holds them as complex numbers
        spec = MonomialSpec.parse("x*y")
        q = build_quotient(spec, phi_of(spec, Fraction(1)))
        points = extract_points(q, seed=0)
        assert points.points == ((1.0 + 0j, -1.0 + 0j), (1.0 + 0j, 1.0 + 0j))
        assert all(type(x) is complex for p in points.points for x in p)

    @pytest.mark.parametrize("text, seed", [("x*y^2", 4), ("x*y^2*z^3", 0), ("x*y*z^2*w^2", 2),
                                            ("x^3*y^3*z^3*w^3", 11)])
    def test_points_closed_under_conjugation(self, text, seed):
        spec = MonomialSpec.parse(text)
        q = build_quotient(spec, sample_phi(parameter_space(spec), seed))
        points = np.array(extract_points(q, seed=seed).points)
        assert (np.abs(points.imag) > 1e-6).any()  # some point is not real
        gap = np.abs(points.conj()[:, None, :] - points[None, :, :]).max(axis=2).min(axis=1)
        assert gap.max() <= 1e-12 * max(1.0, np.abs(points).max())


def binomial_cases():
    """On the acceptance grid (n <= 3, degree <= 8): every equal-exponent monomial with
    ``sample_phi`` seeds 0-4, and every monomial with its ``explicit_phi``."""
    out = []
    for exps in spec_grid(3, 8):
        if len(set(exps)) == 1:
            out += [pytest.param(exps, seed, id=f"{exps}-seed{seed}") for seed in range(5)]
        out.append(pytest.param(exps, None, id=f"{exps}-explicit"))
    return out


class TestBinomialPhi:
    """phi_i = c_i * a0^(d_i - d0): trace rank r with no M_J, points from the root grid,
    each against the M_J rank and the eig readout."""

    @pytest.mark.parametrize("exps, seed", binomial_cases())
    def test_rank_points_and_decomposition_agree_with_the_general_path(self, monkeypatch,
                                                                        exps, seed):
        spec = MonomialSpec.from_exponents(exps)
        phi = explicit_phi(spec) if seed is None else sample_phi(parameter_space(spec), seed)
        assert solver._binomial(phi)
        certificate = certify_radical(spec, phi)
        assert certificate.trace_rank == trace_form_rank(build_quotient(spec, phi)) == spec.rank
        q = certificate.quotient
        with monkeypatch.context() as patch:  # the readouts alone, sorted by _point_order
            patch.setattr(solver, "NEWTON_STEPS", 0)
            grid = extract_points(q, seed=seed or 0).coords
            patch.setattr(solver, "_binomial", lambda phi: False)
            assert_close(grid.ravel(), extract_points(q, seed=seed or 0).coords.ravel())
        got = extract_points(q, seed=seed or 0)
        monkeypatch.setattr(solver, "_binomial", lambda phi: False)
        assert_close(got.coords.ravel(), extract_points(q, seed=seed or 0).coords.ravel())
        assert max(got.residuals) < 1e-10
        dec = solver._fit_decomposition(q, got, 1e-8)
        assert dec.verified == "numeric" and dec.residual < 1e-10

    @pytest.mark.parametrize("c", [Fraction(-3, 4), Fraction(5), Fraction(-2, 9), Fraction(1, 10**300)])
    @pytest.mark.parametrize("text", ["x*y", "x^2*y^2", "x^3*y^3*z^3"])
    def test_grid_is_closed_under_conjugation_exactly(self, text, c):
        spec = MonomialSpec.parse(text)
        q = build_quotient(spec, phi_of(spec, *[c] * spec.n))
        grid = solver._binomial_points(q)
        assert {tuple(p) for p in grid.conj().tolist()} == {tuple(p) for p in grid.tolist()}
        m = spec.exponents[1] + 1
        size = abs(float(c)) ** (1 / m)
        real = grid[(grid.imag == 0).all(axis=1)]
        assert set(real.real.ravel().tolist()) <= {size, -size}
        roots = 1 if m % 2 else 2 * (c > 0)  # real roots of t^m = c
        assert len(real) == roots ** spec.n

    def test_a_term_outside_a0_is_not_binomial(self):
        spec = MonomialSpec.parse("x*y^3*z^3")
        for phi in (phi_of(spec, D("a1^2"), D("a2^2")), phi_of(spec, D("a0^2 + a1^2"), D("a0^2")),
                    phi_of(spec, Fraction(0), D("a0^2")), explicit_phi(spec)):
            assert solver._binomial(phi) == (phi == explicit_phi(spec))


# the benchmark's seeded monomials (sorted exponents), and (1, 4, 4, 4) at r = 125
BENCHMARK_SPECS = [(1, 1, 2, 3), (2, 2, 3, 3), (3, 3, 3, 3), (2, 3, 5), (1, 2, 2, 2),
                   (1, 1, 3, 3), (2, 2, 2, 3), (1, 1, 2, 5), (2, 2, 2, 2), (1, 1, 1, 5)]


def refined_decomposition(exps, seed):
    spec = MonomialSpec.from_exponents(exps)
    certificate = certify_radical(spec, sample_phi(parameter_space(spec), seed))
    assert certificate.radical
    q = certificate.quotient
    points = extract_points(q, seed=seed)
    return q, points, solver._fit_decomposition(q, points, 1e-8)


class TestClosedFormCoefficients:
    """c_j = 1/(C * J(p_j)) on the refined points, against the r x r solve of the oracle."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("exps", BENCHMARK_SPECS + [(1, 4, 4, 4)], ids=str)
    def test_equals_the_v_solve(self, exps, seed):
        q, points, dec = refined_decomposition(exps, seed)
        want = np.array(fit_coefficients(q.spec, points))
        got = np.array([c for c, _ in dec.summands])
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()
        assert dec.residual < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("exps", BENCHMARK_SPECS + [(1, 4, 4, 4)], ids=str)
    def test_euler_jacobi(self, exps, seed):
        # sum_j p_j^b / J(p_j) is the residue of a^b: 1 at b = top, 0 on the other
        # standard monomials; J term by term, not through the chart system
        q, points, _ = refined_decomposition(exps, seed)
        inverse = np.array([1 / np.linalg.det(loop_chart(q, p[1:])[1]) for p in points.points])
        values = np.array(solver.evaluation_matrix(points.points, q.basis)) * inverse[:, None]
        top = (0,) + q.spec.exponents[1:]
        sums, scale = values.sum(axis=0), np.abs(values).sum(axis=0)
        assert np.all(np.abs(sums - [b == top for b in q.basis]) <= 1e-12 * scale)

    @pytest.mark.parametrize("text", ["x*y", "x*y*z^2", "x^2*y^2*z^2", "x*y^2*z^3",
                                      "x*y^3*z^3*w^3"])
    def test_explicit_phi_gives_the_explicit_coefficients(self, text):
        # g_i = a_i^(d_i+1) - 1: J = prod (d_i + 1) a_i^d_i, and 1/(C * J) = zeta/C at the roots
        spec = MonomialSpec.parse(text)
        q = build_quotient(spec, explicit_phi(spec))
        points = extract_points(q, seed=0)
        for p in points.points:
            jac = prod((d + 1) * x**d for d, x in zip(spec.exponents[1:], p[1:]))
            assert abs(jac - np.linalg.det(solver._chart_values(q, np.array([p[1:]]))[0, :, 1:])
                       ) <= 1e-12 * abs(jac)
        explicit = [(complex(c), np.array([complex(a) for a in form.coeffs]))
                    for c, form in explicit_decomposition(spec).summands]
        for c, form in solver._fit_decomposition(q, points, 1e-8).summands:
            want, _ = min(explicit, key=lambda e: np.abs(e[1] - form.coeffs).max())
            assert abs(c - want) <= 1e-12 * abs(want)

    def test_pure_power_has_the_empty_jacobian(self):
        # n = 0: no generator, det() = 1, and x^3 = 1 * x^3
        spec = MonomialSpec.parse("x^3")
        q = build_quotient(spec, PhiTuple(spec, []))
        dec = solver._fit_decomposition(q, extract_points(q), 1e-8)
        assert [(c, form.coeffs) for c, form in dec.summands] == [(1, (1,))]
        assert dec.residual == 0.0

    @pytest.mark.parametrize("exps", [(1, 2, 3), (1, 1, 2, 5), (1, 0, 2)], ids=str)
    def test_a_point_set_built_by_hand_gives_the_same_fit(self, exps):
        # extract_points hands over coordinates and J(p_j) as arrays; a set built from the
        # tuples has the chart system evaluated again, and ends in the same decomposition
        q, points, dec = refined_decomposition(exps, 1)
        by_hand = solver._fit_decomposition(q, solver.PointSet(points=points.points), 1e-8)
        assert np.abs(by_hand.coeffs - dec.coeffs).max() <= 1e-12 * np.abs(dec.coeffs).max()
        assert [f.coeffs for _, f in by_hand.summands] == [f.coeffs for _, f in dec.summands]
        assert by_hand.zero_columns == dec.zero_columns == tuple(
            k for k, d in enumerate(exps) if not d)
        # the verifier reads the arrays, or puts the summands into arrays, alike
        again = Decomposition(dec.degree, dec.domain, dec.summands)
        assert again.forms is None
        assert verify_decomposition(q.spec, again).max_error == dec.residual

    def test_zero_jacobian_names_the_point(self):
        spec = MonomialSpec.parse("x*y")
        q = build_quotient(spec, explicit_phi(spec))
        points = solver.PointSet(points=((1 + 0j, -1 + 0j), (1 + 0j, 0j)))
        error = r"^coefficient fit: \|J\| = 0\.000e\+00 at point 1, so c = 1/\(C\*J\) is not finite"
        with pytest.raises(PointExtractionError, match=error):
            solver._fit_decomposition(q, points, 1e-8)

    def test_singular_newton_step_raises(self, monkeypatch):
        spec = MonomialSpec.parse("x*y^2")
        q = build_quotient(spec, explicit_phi(spec))
        monkeypatch.setattr(solver, "_chart_values",
                            lambda q, coords: np.zeros((len(coords), 1, 2)))
        error = "^Newton step: the Jacobian at eigenvector 0 is singular$"
        with pytest.raises(PointExtractionError, match=error):
            extract_points(q, seed=0)

    def test_system_is_built_once_per_decomposition(self, monkeypatch):
        # read from phi on first use and kept with the quotient; evaluated NEWTON_STEPS + 1
        # times: the last evaluation gives the residuals and J(p_j) for the fit
        calls = []
        values = solver._chart_values
        monkeypatch.setattr(solver, "_chart_values",
                            lambda q, coords: calls.append(q) or values(q, coords))
        q, _, _ = refined_decomposition((1, 2, 3), 0)
        assert len(calls) == solver.NEWTON_STEPS + 1 and all(c is q for c in calls)
        assert "_chart_system" in vars(q)


class TestFitCoefficients:
    """The oracle: the r x r solve V^T c = e_top, exact on exact points."""

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
        assert is_exact(pts)
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

    @pytest.mark.parametrize("bad, count", [((1, 1), 2), ((), 0), ((1, 1, 1, 5), 4)])
    def test_point_of_the_wrong_length_rejected(self, xyz, bad, count):
        points = [(1, 1, 1), (1, 1, -1), bad, (1, -1, -1)]
        with pytest.raises(ValueError, match=f"^point 2: expected 3 coordinates, got {count}$"):
            fit_coefficients(xyz, points)
        with pytest.raises(ValueError, match="point 2: expected 3 coordinates"):
            fit_coefficients(xyz, [tuple(map(float, p)) for p in points])

    @pytest.mark.parametrize("kind", [int, float])
    def test_repeated_point_makes_v_singular(self, xyz, kind):
        points = [(1, 1, 1), (1, 1, 1), (1, -1, 1), (1, -1, -1)]
        singular = r"^the points are not distinct \(V is singular\)$"
        with pytest.raises(NonRadicalIdealError, match=singular):
            fit_coefficients(xyz, [tuple(map(kind, p)) for p in points])

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
        with pytest.raises(ValueError, match="^point 0 has a0 = 0"):
            fit_coefficients(xyz, [(0, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)])
        with pytest.raises(ValueError, match="^point 0 has a0 = 0"):
            fit_coefficients(xyz, [(0j, 1.0, 1.0), (1.0, 1.0, -1.0), (1.0, -1.0, 1.0), (1.0, 0, 0)])

from fractions import Fraction
from math import comb, prod

import pytest

from waring import (
    MonomialSpec,
    PhiTuple,
    build_quotient,
    explicit_decomposition,
    explicit_phi,
    extract_points,
    hilbert_S_mod_J,
    make_ci_ideal,
)
from waring.solver import NonRadicalIdealError, PointSet, certify_radical
from waring.vsp import (
    TorusElement,
    apply_torus,
    decompose_from_phi,
    fit_phi_from_points,
    parameter_space,
    point_ideal_hilbert,
    sample_decompositions,
    sample_phi,
    torus_normalize,
)

from oracles import coefficient, is_exact, points_from_decomposition, q_t_diagnostic


def _phi_close(a, b, tol=1e-8):
    exps = set()
    for p in list(a.entries) + list(b.entries):
        exps |= set(p.terms)
    return all(
        abs(complex(coefficient(pa, e)) - complex(coefficient(pb, e))) < tol
        for pa, pb in zip(a.entries, b.entries)
        for e in (set(pa.terms) | set(pb.terms))
    )


class TestSampling:
    def test_equal_exponents_give_nonzero_scalars(self, x2y2z2):
        phi = sample_phi(parameter_space(x2y2z2), 4)
        assert all(p.degree() == 0 for p in phi.entries)
        assert all(p for p in phi.entries)

    def test_shapes_and_coefficient_range(self, xy2z3):
        phi = sample_phi(parameter_space(xy2z3), 17)
        assert phi.entries[0].degree() == 1
        assert phi.entries[1].degree() == 2
        for p in phi.entries:
            for c in p.terms.values():
                assert c != 0 and abs(c) <= 9 and c.denominator == 1

    def test_determinism(self, xy2z3):
        space = parameter_space(xy2z3)
        assert sample_phi(space, 5) == sample_phi(space, 5)
        assert sample_phi(space, 5) != sample_phi(space, 6)

    def test_distinct_phi_give_distinct_point_sets(self, xyz2):
        space = parameter_space(xyz2)
        seen = []
        for seed in range(5):
            phi = sample_phi(space, seed)
            if not certify_radical(xyz2, phi).radical:
                continue
            pts = extract_points(build_quotient(xyz2, phi), seed=seed)
            key = tuple(
                (round(c.real, 6), round(c.imag, 6)) for p in pts.points for c in p
            )
            assert key not in seen
            seen.append(key)


class TestDecomposeFromPhi:
    def test_x2y2z2_unit_phi(self, x2y2z2):
        dec = decompose_from_phi(
            x2y2z2, PhiTuple(x2y2z2, [Fraction(1), Fraction(1)]), seed=3
        )
        assert len(dec) == 9
        assert dec.verified == "numeric" and dec.residual < 1e-9

    def test_explicit_phi_reproduces_the_closed_form(self, xyz2):
        dec = decompose_from_phi(xyz2, explicit_phi(xyz2), seed=1)
        closed = explicit_decomposition(xyz2)
        got = sorted(
            (round(complex(f.coeffs[1]).real, 6), round(complex(f.coeffs[2]).real, 6),
             round(complex(f.coeffs[2]).imag, 6))
            for _, f in dec.summands
        )
        expected = sorted(
            (round(complex(f.coeffs[1]).real, 6), round(complex(f.coeffs[2]).real, 6),
             round(complex(f.coeffs[2]).imag, 6))
            for _, f in closed.summands
        )
        assert got == pytest.approx(expected, abs=1e-6)

    def test_non_radical_is_refused(self, x2y2z2):
        with pytest.raises(NonRadicalIdealError):
            decompose_from_phi(x2y2z2, PhiTuple(x2y2z2, [Fraction(1), Fraction(0)]), seed=0)

    def test_summand_count_equals_rank(self, xy2z3):
        phi = sample_phi(parameter_space(xy2z3), 8)
        assert certify_radical(xy2z3, phi).radical
        assert len(decompose_from_phi(xy2z3, phi, seed=8)) == xy2z3.rank

    def test_unsorted_input_variables_round_trip(self):
        # x^3*y sorts to (1, 3) with a nontrivial permutation back to x, y
        spec = MonomialSpec.parse("x^3*y")
        assert spec.positions == (1, 0)
        phi = sample_phi(parameter_space(spec), 1)
        dec = decompose_from_phi(spec, phi, seed=1)
        assert len(dec) == 4 and dec.residual < 1e-9


class TestFitPhi:
    def test_explicit_points_recover_the_power_tuple_exactly(self, xyz2, xy2z3):
        for spec in (xyz2, xy2z3):
            pts = points_from_decomposition(explicit_decomposition(spec), spec)
            phi = fit_phi_from_points(spec, pts)
            assert phi.canonical
            assert phi == explicit_phi(spec)

    def test_xyz_sign_points_give_unit_phi(self, xyz):
        pts = [(1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)]
        phi = fit_phi_from_points(xyz, pts)
        assert phi == PhiTuple(xyz, [Fraction(1), Fraction(1)])

    def test_float_round_trip(self, xy2z3):
        space = parameter_space(xy2z3)
        for seed in (0, 1, 2):
            phi = sample_phi(space, seed)
            if not certify_radical(xy2z3, phi).radical:
                continue
            pts = extract_points(build_quotient(xy2z3, phi), seed=seed)
            assert _phi_close(fit_phi_from_points(xy2z3, pts), phi)

    def test_wrong_cardinality_rejected(self, xyz):
        with pytest.raises(ValueError):
            fit_phi_from_points(xyz, [(1, 1, 1)])


class TestPointIdealHilbert:
    def test_xyz_table(self, xyz):
        pts = points_from_decomposition(explicit_decomposition(xyz), xyz)
        assert [point_ideal_hilbert(pts, t) for t in range(4)] == [1, 3, 4, 4]

    def test_single_point(self):
        pts = PointSet(points=((1, 2, 3),))
        assert point_ideal_hilbert(pts, 1) == 1

    def test_matches_model_hilbert_function(self, x2y2z2):
        q = build_quotient(x2y2z2, PhiTuple(x2y2z2, [Fraction(1), Fraction(1)]))
        pts = extract_points(q, seed=5)
        for t in range(8):
            assert point_ideal_hilbert(pts, t) == hilbert_S_mod_J(x2y2z2, t)

    def test_exact_and_float_paths_agree(self, xyz2):
        exact_pts = points_from_decomposition(explicit_decomposition(xyz2), xyz2)
        float_pts = PointSet(
            points=tuple(tuple(complex(c) for c in p) for p in exact_pts.points),
        )
        for t in range(xyz2.degree + 3):
            assert point_ideal_hilbert(exact_pts, t) == point_ideal_hilbert(float_pts, t)

    def test_exact_rank_over_conductor_twelve(self):
        # exact evaluation ranks with genuinely irrational cyclotomic entries
        spec = MonomialSpec.parse("x^2*y^2*z^3")
        assert spec.conductor == 12
        pts = points_from_decomposition(explicit_decomposition(spec), spec)
        assert is_exact(pts)
        for t in range(5):
            assert point_ideal_hilbert(pts, t) == hilbert_S_mod_J(spec, t)


class TestQtDiagnostics:
    def test_q0_is_zero(self, xyz):
        pts = points_from_decomposition(explicit_decomposition(xyz), xyz)
        assert q_t_diagnostic(xyz, pts, 0) == 0

    def test_shift_identity_and_upper_bound_on_xyz_points(self, xyz):
        pts = points_from_decomposition(explicit_decomposition(xyz), xyz)
        for t in range(xyz.degree + 2):
            dim_I = comb(t + 2, 2) - point_ideal_hilbert(pts, t)  # dim S_t - h_points(t)
            assert q_t_diagnostic(xyz, pts, t + 1) == dim_I
        for t in range(xyz.degree + 3):
            s = t - 1
            dim_J = comb(s + 2, 2) - hilbert_S_mod_J(xyz, s) if s >= 0 else 0
            assert q_t_diagnostic(xyz, pts, t) <= dim_J


class TestTorus:
    def test_unit_phi_gives_identity(self, x2y2z2):
        torus, ones = torus_normalize(x2y2z2, PhiTuple(x2y2z2, [Fraction(1), Fraction(1)]))
        assert all(abs(v - 1) < 1e-12 for v in torus.lam)
        assert all(str(p) == "1" for p in ones.entries)

    def test_action_lands_on_the_canonical_variety(self, x2y2z2):
        phi = PhiTuple(x2y2z2, [Fraction(64), Fraction(729)])
        torus, _ = torus_normalize(x2y2z2, phi)
        k = 2
        assert abs(prod(v**k for v in torus.lam) - 1) < 1e-10
        pts = extract_points(build_quotient(x2y2z2, phi), seed=11)
        moved = apply_torus(torus, pts)
        assert max(abs(p[i] ** 3 - 1) for p in moved.points for i in (1, 2)) < 1e-9

    def test_negative_scalars_are_fine(self, x2y2z2):
        phi = PhiTuple(x2y2z2, [Fraction(-2), Fraction(5)])
        torus, _ = torus_normalize(x2y2z2, phi)
        pts = extract_points(build_quotient(x2y2z2, phi), seed=4)
        moved = apply_torus(torus, pts)
        assert max(abs(p[i] ** 3 - 1) for p in moved.points for i in (1, 2)) < 1e-9

    def test_zero_phi_rejected(self, x2y2z2):
        with pytest.raises(NonRadicalIdealError):
            torus_normalize(x2y2z2, PhiTuple(x2y2z2, [Fraction(0), Fraction(1)]))

    def test_unequal_exponents_rejected(self, xy2z3):
        with pytest.raises(ValueError):
            torus_normalize(xy2z3, explicit_phi(xy2z3))

    def test_torus_element_validates_the_relation(self):
        with pytest.raises(ValueError):
            TorusElement(lam=(2.0, 1.0), exponents=(1, 1))


class TestAlpha0:
    """No point of any I(n, phi) has a0 = 0, so ``points`` prints ``alpha0_nonzero`` as true."""

    def test_explicit_points_pass(self, xyz):
        pts = points_from_decomposition(explicit_decomposition(xyz), xyz)
        assert all(p[0] == 1 for p in pts.points)

    def test_constructed_failure(self, xy2z3):
        # at a0 = 0 generator i reads a_i^(d_i+1): a point there with some a_i != 0 misses it
        generators = make_ci_ideal(xy2z3, sample_phi(parameter_space(xy2z3), 2)).generators
        for point in [(0, 1, 0), (0, 0, 1), (0, 2, -3)]:
            assert any(sum(c * prod(x**k for x, k in zip(point, e)) for e, c in g.terms.items())
                       for g in generators)

    def test_extracted_points_pass(self, xy2z3):
        phi = sample_phi(parameter_space(xy2z3), 2)
        assert certify_radical(xy2z3, phi).radical
        pts = extract_points(build_quotient(xy2z3, phi), seed=2)
        assert all(p[0] == 1 for p in pts.points)


class TestSampleReports:
    def test_report_shape(self, xyz2):
        reports = sample_decompositions(xyz2, seed=10, count=5)
        assert [r.seed for r in reports] == list(range(10, 15))
        for r in reports:
            if r.radical:
                assert r.verified and r.residual < 1e-8

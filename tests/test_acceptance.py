"""Acceptance suite: one test per criterion, at the stated tolerance and budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion.  Sampling-based criteria use fixed seed ranges and are fully
deterministic.
"""

import itertools
import time
from fractions import Fraction
from math import comb, prod

import pytest

from waring import (
    MonomialSpec,
    PhiTuple,
    build_quotient,
    coefficient_Cm,
    dim_perp_cap_alpha0,
    dim_vsp,
    explicit_decomposition,
    explicit_phi,
    extract_points,
    fit_coefficients,
    hilbert_S_mod_J,
    ideal_membership,
    is_radical,
    make_ci_ideal,
    points_from_decomposition,
    rank_lower_bound,
    trace_form_rank,
    verify_decomposition,
    waring_rank,
)
from waring.polynomial import DUAL, parse_poly
from waring.solver import PointSet
from waring.vsp import (
    apply_torus,
    fit_phi_from_points,
    parameter_space,
    point_ideal_hilbert,
    q_t_diagnostic,
    sample_phi,
    torus_normalize,
)

from conftest import spec_grid


def _float_points(points: PointSet) -> PointSet:
    return PointSet(points=tuple(tuple(complex(c) for c in p) for p in points.points))


def _radical_samples(spec, count, seed_base=0, max_attempts=400):
    """First ``count`` radical samples (seed, phi), deterministic per spec."""
    space = parameter_space(spec)
    found = []
    for seed in range(seed_base, seed_base + max_attempts):
        phi = sample_phi(space, seed)
        if is_radical(spec, phi):
            found.append((seed, phi))
            if len(found) == count:
                return found
    raise AssertionError(f"could not find {count} radical samples for {spec}")


def test_criterion_01_rank_table():
    start = time.monotonic()
    assert waring_rank(MonomialSpec.parse("x*y*z")) == 4
    assert waring_rank(MonomialSpec.parse("x*y*z*w")) == 8
    assert waring_rank(MonomialSpec.parse("x*y*z^2")) == 6
    checked = 0
    for num_vars in range(1, 6):  # n <= 4
        for exps in itertools.combinations_with_replacement(range(1, 6), num_vars):
            spec = MonomialSpec.from_exponents(exps)
            expected = prod(d + 1 for d in sorted(exps)[1:])
            assert waring_rank(spec) == expected
            assert rank_lower_bound(spec) <= expected
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"rank table took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 01 PASS - rank formula exact on {checked} specs in {elapsed:.2f}s")


def test_criterion_02_explicit_decomposition_identity():
    start = time.monotonic()
    grid = spec_grid(3, 8, min_n=0)
    for exps in grid:
        spec = MonomialSpec.from_exponents(exps)
        dec = explicit_decomposition(spec)
        assert len(dec) == waring_rank(spec)
        report = verify_decomposition(spec, dec)
        assert report.ok and report.mode == "exact", f"{exps}: {report}"
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"identity grid took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 02 PASS - exact identity on {len(grid)} specs (n<=3, d<=8) in {elapsed:.1f}s")


def test_criterion_03_coefficient_analysis():
    from waring.polynomial import exponents_of_degree, power_linear_form

    checked = 0
    for exps in spec_grid(2, 8, min_n=0):
        spec = MonomialSpec.from_exponents(exps)
        for m_vec in exponents_of_degree(spec.n + 1, spec.degree):
            value = coefficient_Cm(spec, m_vec)
            assert value == (1 if m_vec == spec.exponents else 0), (exps, m_vec)
            checked += 1
    # independent confirmation by brute-force expansion of the full sum
    for exps in [(1, 2), (1, 1, 2), (2, 2, 2)]:
        spec = MonomialSpec.from_exponents(exps)
        dec = explicit_decomposition(spec)
        total = None
        for c, form in dec.summands:
            piece = power_linear_form(form, dec.degree).scale(c)
            total = piece if total is None else total + piece
        for m_vec in exponents_of_degree(spec.n + 1, spec.degree):
            assert total.coefficient(m_vec) == coefficient_Cm(spec, m_vec)
    print(f"\nACCEPTANCE 03 PASS - C_m vanishing verified on {checked} exponent vectors")


def test_criterion_04_hilbert_function_agreement():
    start = time.monotonic()
    grid = spec_grid(2, 7)
    configs = 0
    for exps in grid:
        spec = MonomialSpec.from_exponents(exps)
        point_sets = [
            _float_points(points_from_decomposition(explicit_decomposition(spec), spec))
        ]
        for seed, phi in _radical_samples(spec, 20):
            q = build_quotient(spec, phi)
            point_sets.append(extract_points(q, seed=seed))
        for pts in point_sets:
            for t in range(spec.degree + 3):
                assert point_ideal_hilbert(pts, t, cutoff=1e-8) == hilbert_S_mod_J(spec, t), (
                    exps, t)
            configs += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"Hilbert agreement took {elapsed:.1f}s"
    print(
        f"\nACCEPTANCE 04 PASS - point/model Hilbert functions agree on {configs} "
        f"configurations ({len(grid)} specs) in {elapsed:.1f}s"
    )


def test_criterion_05_graded_dimension_identities():
    # dimension-difference identity, exact monomial counting on both sides
    pairs = 0
    for exps in spec_grid(3, 8, min_n=0):
        spec = MonomialSpec.from_exponents(exps)
        for t in range(spec.degree + 3):
            dim_perp_cap_alpha0(spec, t)  # asserts the two-sided identity
            pairs += 1
    # q_t identities on sampled radical configurations
    sampled = 0
    for exps in spec_grid(2, 7):
        spec = MonomialSpec.from_exponents(exps)
        n = spec.n
        for seed, phi in _radical_samples(spec, 5):
            pts = extract_points(build_quotient(spec, phi), seed=seed)
            for t in range(spec.degree + 3):
                if t + 1 <= spec.degree + 2:
                    # dim I_t = dim S_t - h_points(t)
                    dim_I = comb(t + n, n) - point_ideal_hilbert(pts, t)
                    assert q_t_diagnostic(spec, pts, t + 1) == dim_I
                dim_J = comb(t - 1 + n, n) - hilbert_S_mod_J(spec, t - 1) if t >= 1 else 0
                assert q_t_diagnostic(spec, pts, t) <= dim_J
            sampled += 1
    print(
        f"\nACCEPTANCE 05 PASS - dimension-difference identity at {pairs} (spec, t) pairs; "
        f"q_t shift identity and bound on {sampled} radical samples"
    )


def test_criterion_06_vsp_dimension():
    assert dim_vsp(MonomialSpec.parse("x^2*y^2*z^2")) == 2
    for n in range(1, 5):
        for k in range(1, 4):
            assert dim_vsp(MonomialSpec.from_exponents([k] * (n + 1))) == n
    for exps in spec_grid(3, 8):
        spec = MonomialSpec.from_exponents(exps)
        value = dim_vsp(spec)
        assert value >= spec.n
        assert (value == spec.n) == (spec.exponents[0] == spec.exponents[-1])
    # independent standard-monomial enumeration oracle for x y^2 z^3
    spec = MonomialSpec.parse("x*y^2*z^3")
    d0 = spec.exponents[0]
    oracle = 0
    for di in spec.exponents[1:]:
        degree = di - d0
        for e in itertools.product(*(range(b + 1) for b in (degree,) + spec.exponents[1:])):
            if sum(e) == degree and all(e[j] <= spec.exponents[j] for j in range(1, 3)):
                oracle += 1
    assert oracle == 9 and dim_vsp(spec) == 9
    print("\nACCEPTANCE 06 PASS - VSP dimension formula and equality cases verified")


def test_criterion_07_radicality_dichotomies():
    start = time.monotonic()
    spec = MonomialSpec.parse("x^2*y^2*z^2")
    for a, b in itertools.product(range(-2, 3), repeat=2):
        phi = PhiTuple(spec, [Fraction(a), Fraction(b)])
        assert is_radical(spec, phi) == (a != 0 and b != 0), (a, b)
    spec4 = MonomialSpec.parse("x*y^2*z^3")
    phi4 = PhiTuple(spec4, [parse_poly("a2", 3, DUAL), parse_poly("a1^2", 3, DUAL)])
    q = build_quotient(spec4, phi4)
    rank = trace_form_rank(q)
    assert rank < 12
    assert rank == 11  # regression value: one length-2 point, ten reduced points
    ideal = make_ci_ideal(spec4, phi4)
    member = parse_poly("a0^4*a1 - a1^2*a2^3", 3, DUAL)
    assert not ideal_membership(member, ideal)
    assert ideal_membership(member * member, ideal)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"radicality dichotomies took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 07 PASS - radicality dichotomies and membership in {elapsed:.1f}s")


def test_criterion_08_genericity_of_radicality():
    start = time.monotonic()
    worst = 1.0
    for exps in spec_grid(2, 7):
        spec = MonomialSpec.from_exponents(exps)
        space = parameter_space(spec)
        radical = sum(1 for seed in range(100) if is_radical(spec, sample_phi(space, seed)))
        fraction = radical / 100.0
        worst = min(worst, fraction)
        assert fraction >= 0.95, f"{exps}: only {radical}/100 radical"
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"genericity sampling took {elapsed:.1f}s"
    print(
        f"\nACCEPTANCE 08 PASS - radical fraction >= 0.95 on every spec "
        f"(worst {worst:.2f}) in {elapsed:.1f}s"
    )


def test_criterion_09_round_trips():
    # sampled round trip: phi -> quotient -> points -> phi, 1e-8 coefficientwise
    samples = 0
    for exps in spec_grid(2, 7):
        spec = MonomialSpec.from_exponents(exps)
        for seed, phi in _radical_samples(spec, 5):
            pts = extract_points(build_quotient(spec, phi), seed=seed)
            fitted = fit_phi_from_points(spec, pts)
            for original, recovered in zip(phi.entries, fitted.entries):
                for e in set(original.terms) | set(recovered.terms):
                    delta = abs(
                        complex(original.coefficient(e)) - complex(recovered.coefficient(e))
                    )
                    assert delta < 1e-8, (exps, seed, e, delta)
            samples += 1
    # exact recovery of the explicit coefficients from the explicit points
    for text in ("x*y", "x*y*z", "x*y*z^2", "x^2*y^2*z^2", "x*y^2*z^3"):
        spec = MonomialSpec.parse(text)
        dec = explicit_decomposition(spec)
        coeffs = fit_coefficients(spec, points_from_decomposition(dec, spec))
        for got, (expected, _) in zip(coeffs, dec.summands):
            assert got == expected, text
    # folding the coefficients into the forms leaves the all-ones vector
    for text in ("x*y*z", "x^2*y^2*z^2"):
        spec = MonomialSpec.parse(text)
        dec = explicit_decomposition(spec)
        folded = [
            tuple(complex(c) ** (1 / dec.degree) * complex(v) for v in form.coeffs)
            for c, form in dec.summands
        ]
        ones = fit_coefficients(spec, folded)
        assert all(abs(c - 1) < 1e-8 for c in ones), text
    print(
        f"\nACCEPTANCE 09 PASS - phi round trip on {samples} radical samples; "
        f"explicit coefficients recovered exactly; folded fit is all-ones"
    )


def test_criterion_10_torus_transitivity():
    checked = 0
    for n in range(1, 4):
        for k in range(1, 4):
            spec = MonomialSpec.from_exponents([k] * (n + 1))
            space = parameter_space(spec)
            for seed in range(25):
                phi = sample_phi(space, seed)
                assert is_radical(spec, phi)
                torus, ones = torus_normalize(spec, phi)
                assert abs(prod(v**k for v in torus.lam) - 1) < 1e-10
                assert all(str(p) == "1" for p in ones.entries)
                pts = extract_points(build_quotient(spec, phi), seed=seed)
                moved = apply_torus(torus, pts)
                residual = max(
                    abs(p[i] ** (k + 1) - 1) for p in moved.points for i in range(1, n + 1)
                )
                assert residual < 1e-8, (n, k, seed, residual)
                # r distinct images satisfying the canonical equations = onto
                assert len({tuple(round(c.real, 6) + 1j * round(c.imag, 6) for c in p)
                            for p in moved.points}) == spec.rank
                checked += 1
    # non-transitivity for unequal exponents: refusal plus dimension excess
    for exps in [(1, 2), (1, 1, 2), (1, 2, 3), (2, 2, 3)]:
        spec = MonomialSpec.from_exponents(exps)
        with pytest.raises(ValueError):
            torus_normalize(spec, explicit_phi(spec))
        assert dim_vsp(spec) > spec.n
    print(f"\nACCEPTANCE 10 PASS - torus normalization verified on {checked} samples")

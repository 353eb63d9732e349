from fractions import Fraction
import pytest

from waring import (
    MonomialSpec,
    PhiTuple,
    apply_diff,
    basis_Bprime,
    canonicalize_phi,
    dim_perp_cap_alpha0,
    dim_vsp,
    explicit_phi,
    hilbert_S_mod_J,
    ideal_membership,
    make_ci_ideal,
)
from waring.polynomial import DUAL, SparsePoly, parse_poly

from conftest import spec_grid


def D(text, n=3):
    return parse_poly(text, n, DUAL)


class TestAnnihilator:
    def test_generators_kill_the_monomial(self):
        # the annihilator (a0^(d0+1), ..., an^(dn+1)) that dim_perp_cap_alpha0 counts in
        for exps in spec_grid(2, 6):
            spec = MonomialSpec.from_exponents(exps)
            target = spec.monomial_poly()
            for i, d in enumerate(spec.exponents):
                g = tuple(d + 1 if j == i else 0 for j in range(spec.n + 1))
                assert not apply_diff(SparsePoly.monomial(spec.n + 1, DUAL, g), target)


class TestHilbertFunction:
    def test_x2y2z2_table(self, x2y2z2):
        values = [hilbert_S_mod_J(x2y2z2, t) for t in range(8)]
        assert values == [1, 3, 6, 8, 9, 9, 9, 9]

    def test_xyz_table(self, xyz):
        assert [hilbert_S_mod_J(xyz, t) for t in range(5)] == [1, 3, 4, 4, 4]

    def test_xy2z3_low_degrees(self, xy2z3):
        assert hilbert_S_mod_J(xy2z3, 1) == 3
        assert hilbert_S_mod_J(xy2z3, 2) == 6

    def test_negative_degree_is_zero(self, xyz):
        assert hilbert_S_mod_J(xyz, -1) == 0

    def test_stabilizes_at_rank(self):
        for exps in spec_grid(2, 7):
            spec = MonomialSpec.from_exponents(exps)
            start = sum(spec.exponents[1:])
            for t in range(start, start + 3):
                assert hilbert_S_mod_J(spec, t) == spec.rank


class TestDimVSP:
    def test_reference_values(self, x2y2z2, xy2z3):
        assert dim_vsp(x2y2z2) == 2
        assert dim_vsp(xy2z3) == 9

    def test_equal_exponent_value_is_n(self):
        for n in range(1, 5):
            for k in range(1, 4):
                spec = MonomialSpec.from_exponents([k] * (n + 1))
                assert dim_vsp(spec) == n

    def test_lower_bound_with_equality_iff_equal(self):
        for exps in spec_grid(3, 8):
            spec = MonomialSpec.from_exponents(exps)
            value = dim_vsp(spec)
            assert value >= spec.n
            assert (value == spec.n) == (spec.exponents[0] == spec.exponents[-1])


class TestBasisBprime:
    def test_examples(self, x2y2z2, xy2z3):
        assert basis_Bprime(x2y2z2, 1) == [(0, 0, 0)]
        assert set(basis_Bprime(xy2z3, 1)) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
        assert len(basis_Bprime(xy2z3, 2)) == 6

    def test_sizes_sum_to_dim_vsp(self):
        for exps in spec_grid(2, 7):
            spec = MonomialSpec.from_exponents(exps)
            assert sum(len(basis_Bprime(spec, i)) for i in range(1, spec.n + 1)) == dim_vsp(spec)

    def test_index_range(self, xyz):
        with pytest.raises(ValueError):
            basis_Bprime(xyz, 0)
        with pytest.raises(ValueError):
            basis_Bprime(xyz, 3)


class TestPhiTupleAndIdeal:
    def test_degree_validation(self, xy2z3):
        with pytest.raises(ValueError):
            PhiTuple(xy2z3, [D("a0^2"), D("a1^2")])  # phi_1 must be linear

    def test_scalar_entries_are_coerced(self, x2y2z2):
        phi = PhiTuple(x2y2z2, [Fraction(1), Fraction(2)])
        assert phi.canonical
        assert phi.entries[0].degree() == 0

    def test_make_ci_ideal_for_the_embedded_point_example(self, xy2z3):
        phi = PhiTuple(xy2z3, [D("a2"), D("a1^2")])
        ideal = make_ci_ideal(xy2z3, phi)
        assert [str(g) for g in ideal.generators] == [
            "a1^3 - a0^2*a2",
            "-a0^2*a1^2 + a2^4",
        ]

    def test_scalar_phi_gives_the_binomial_generators(self, xyz):
        ideal = make_ci_ideal(xyz, PhiTuple(xyz, [Fraction(1), Fraction(1)]))
        assert [str(g) for g in ideal.generators] == ["-a0^2 + a1^2", "-a0^2 + a2^2"]

    def test_explicit_phi_matches_the_power_tuple(self, xy2z3):
        phi = explicit_phi(xy2z3)
        assert [str(p) for p in phi.entries] == ["a0", "a0^2"]
        assert phi.canonical

    def test_generators_annihilate_for_random_phi(self, xy2z3):
        from waring.vsp import parameter_space, sample_phi

        space = parameter_space(xy2z3)
        for seed in range(3):
            make_ci_ideal(xy2z3, sample_phi(space, seed))  # internal check raises on failure

    def test_partial_ideal(self, xy2z3):
        phi = PhiTuple(xy2z3, [D("a2")])
        ideal = make_ci_ideal(xy2z3, phi)
        assert len(ideal.generators) == ideal.k == 1


class TestCanonicalize:
    def test_idempotent_on_canonical_input(self, xy2z3):
        phi = PhiTuple(xy2z3, [D("a2"), D("a1^2")])
        assert canonicalize_phi(xy2z3, phi) == phi

    def test_scalars_are_always_canonical(self, x2y2z2):
        phi = PhiTuple(x2y2z2, [Fraction(3), Fraction(-2)])
        assert canonicalize_phi(x2y2z2, phi) == phi

    def test_rewrite_preserves_the_ideal(self):
        # (1,1,5): phi_2 has degree 4 and may contain a1^2-divisible terms
        spec = MonomialSpec.from_exponents([1, 1, 5])
        phi = PhiTuple(spec, [D("2"), D("a1^2*a2^2")])
        assert not phi.canonical
        fixed = canonicalize_phi(spec, phi)
        assert fixed.canonical
        assert str(fixed.entries[1]) == "2*a0^2*a2^2"
        before = make_ci_ideal(spec, phi)
        after = make_ci_ideal(spec, fixed)
        for g in before.generators:
            assert ideal_membership(g, after)
        for g in after.generators:
            assert ideal_membership(g, before)
        assert canonicalize_phi(spec, fixed) == fixed

    def test_chained_rewrites_terminate(self):
        spec = MonomialSpec.from_exponents([1, 1, 5])
        # a1^4 rewrites to phi_1 * a0^2 * a1^2, which rewrites again
        phi = PhiTuple(spec, [D("3"), D("a1^4")])
        fixed = canonicalize_phi(spec, phi)
        assert fixed.canonical
        assert str(fixed.entries[1]) == "9*a0^4"


class TestDimensionDifferenceIdentity:
    def test_example_value(self, x2y2z2):
        assert dim_perp_cap_alpha0(x2y2z2, 4) == 5

    def test_degree_zero(self, xyz, x2y2z2):
        assert dim_perp_cap_alpha0(xyz, 0) == 0
        assert dim_perp_cap_alpha0(x2y2z2, 0) == 0

    def test_identity_holds_on_grid(self):
        # the function asserts the two-sided identity internally
        for exps in spec_grid(2, 6):
            spec = MonomialSpec.from_exponents(exps)
            for t in range(spec.degree + 3):
                dim_perp_cap_alpha0(spec, t)

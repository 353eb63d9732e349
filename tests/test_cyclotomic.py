import cmath
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waring import CycloScalar, MonomialSpec, cyclotomic, cyclotomic_poly, embed, root_of_unity
from waring.cyclotomic import MAX_TABLE_ENTRIES, _reduce_mod_phi, _reduction_rows, _totient

from oracles import fraction_coords, remainder_mod_phi, root_power_sum


def test_cyclotomic_poly_small_values():
    assert cyclotomic_poly(1).coeffs == (-1, 1)  # z - 1
    assert cyclotomic_poly(2).coeffs == (1, 1)  # z + 1
    assert cyclotomic_poly(3).coeffs == (1, 1, 1)
    assert cyclotomic_poly(4).coeffs == (1, 0, 1)
    assert cyclotomic_poly(6).coeffs == (1, -1, 1)  # z^2 - z + 1
    assert cyclotomic_poly(12).coeffs == (1, 0, -1, 0, 1)


class TestConductorLimit:
    """A conductor whose table of z^j mod Phi_m would hold more than MAX_TABLE_ENTRIES
    integers is refused before Phi_m is built."""

    def test_a_table_past_the_limit_is_refused(self, monkeypatch):
        monkeypatch.setattr(cyclotomic, "_poly_divmod_exact",
                            lambda *args: pytest.fail("a division was run"))
        message = ("conductor 15015 needs a table of 53308800 powers of zeta_15015, "
                   "past the limit of 1000000")
        with pytest.raises(ValueError, match=message):
            cyclotomic_poly(15015)

    @pytest.mark.parametrize("text, m", [("x*y^1000", 1001), ("x^200*y^200", 201),
                                         ("x^500*y^500", 501)])
    def test_high_degree_explicit_conductors_are_admitted(self, text, m):
        assert MonomialSpec.parse(text).conductor == m
        assert (m - _totient(m)) * _totient(m) <= MAX_TABLE_ENTRIES


def test_cyclotomic_product_is_z_m_minus_one():
    # prod over divisors d of m of Phi_d = z^m - 1
    for m in (1, 2, 6, 12, 30):
        prod = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                phi = cyclotomic_poly(d).coeffs
                out = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        out[i + j] += a * b
                prod = out
        assert prod == [-1] + [0] * (m - 1) + [1]


def test_cyclotomic_poly_rejects_nonpositive():
    with pytest.raises(ValueError):
        cyclotomic_poly(0)


def test_root_of_unity_basics():
    assert root_of_unity(2, 1) == -1
    assert root_of_unity(3, 3) == 1
    assert root_of_unity(4, 2) == -1  # z^2 mod z^2 + 1
    assert root_of_unity(5, 7) == root_of_unity(5, 2)
    assert root_of_unity(1, 123) == 1


@pytest.mark.parametrize("m", range(2, 31))
def test_root_of_unity_order_and_sum(m):
    z = root_of_unity(m, 1)
    assert z**m == 1
    total = CycloScalar.from_rational(0, m)
    for a in range(m):
        total = total + root_of_unity(m, a)
    assert total == 0


# a conductor and an integer vector of up to three times its length: past z^(m-1), the
# last power the table holds, and past the 2*deg(Phi_m) - 1 coordinates of a product
conductor_and_vector = st.integers(1, 120).flatmap(
    lambda m: st.tuples(st.just(m), st.lists(st.integers(-50, 50), max_size=3 * m)))


class TestReductionModPhi:
    @settings(max_examples=300, deadline=None, database=None)
    @given(conductor_and_vector)
    def test_agrees_with_long_division(self, case):
        m, vec = case
        assert _reduce_mod_phi(m, vec) == remainder_mod_phi(m, vec)
        assert _reduce_mod_phi(m, tuple(vec)) == remainder_mod_phi(m, vec)

    @settings(max_examples=100, deadline=None, database=None)
    @given(conductor_and_vector, st.integers(2, 5), st.integers(1, 9))
    def test_embed_is_the_remainder_of_the_spread_vector(self, case, step, den):
        m, vec = case
        x = CycloScalar(m, tuple(vec), den)
        spread = [0] * (m * step)
        for j, c in enumerate(x.num):
            spread[j * step] = c  # zeta_m^j = zeta_(m*step)^(j*step)
        image = remainder_mod_phi(m * step, spread)
        assert embed(x, m * step) == CycloScalar(m * step, tuple(image), x.den)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 7, 12, 30, 53])
    def test_the_table_holds_the_powers_below_m(self, m):
        deg = cyclotomic_poly(m).degree
        rows = _reduction_rows(m)
        assert len(rows) == m - deg
        for j, row in enumerate(rows, start=deg):
            assert list(row) == remainder_mod_phi(m, [0] * j + [1])

    def test_a_vector_longer_than_the_table(self):
        assert CycloScalar(3, (0,) * 5 + (1,)) == root_of_unity(3, 5)
        assert CycloScalar(3, (0,) * 5 + (1,)).num == (-1, -1)
        assert CycloScalar(5, (1,) * 11) == 1  # two sums of z^0..z^4 vanish, z^10 = 1
        assert CycloScalar(2, (7,)) == 7 and CycloScalar(12, ()) == 0


def test_root_power_sum_closed_form():
    assert root_power_sum(3, 3) == 3
    assert root_power_sum(3, 2) == 0
    assert root_power_sum(1, 0) == 1
    assert root_power_sum(4, 8) == 4
    assert root_power_sum(6, 4) == 0


def test_field_axioms_on_random_samples():
    rng = random.Random(20240901)
    conductors = [1, 2, 3, 4, 5, 6, 8, 12, 35, 56]  # phi(35) = phi(56) = 24

    def sample(m):
        deg = cyclotomic_poly(m).degree
        return CycloScalar(
            m,
            tuple(rng.randint(-5, 5) for _ in range(deg)),
            rng.randint(1, 7),
        )

    for _ in range(60):
        m = rng.choice(conductors)
        a, b, c = sample(m), sample(m), sample(m)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        if a:
            assert a * a.inverse() == 1
            assert (a / a) == 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        CycloScalar.from_rational(0, 5).inverse()


def test_embed_basic_values():
    assert embed(CycloScalar.from_rational(5), 6) == 5
    assert embed(root_of_unity(2, 1), 6) == root_of_unity(6, 3)
    z6sq = embed(root_of_unity(3, 1), 6)
    assert z6sq == root_of_unity(6, 2)
    # primitivity: order exactly three
    assert z6sq**3 == 1
    assert z6sq != 1 and z6sq**2 != 1


def test_embed_requires_divisibility():
    with pytest.raises(ValueError):
        embed(root_of_unity(4, 1), 6)


def test_embed_composes_transitively():
    rng = random.Random(13)
    for _ in range(20):
        m = rng.choice([2, 3, 4])
        mid = m * rng.choice([2, 3])
        top = mid * rng.choice([2, 5])
        deg = cyclotomic_poly(m).degree
        x = CycloScalar(m, tuple(rng.randint(-6, 6) for _ in range(deg)), rng.randint(1, 4))
        assert embed(embed(x, mid), top) == embed(x, top)


def test_embed_is_ring_homomorphism_on_samples():
    rng = random.Random(77)
    for _ in range(40):
        m = rng.choice([2, 3, 4, 6])
        target = m * rng.choice([2, 3, 5])
        deg = cyclotomic_poly(m).degree
        x = CycloScalar(m, tuple(rng.randint(-4, 4) for _ in range(deg)), rng.randint(1, 5))
        y = CycloScalar(m, tuple(rng.randint(-4, 4) for _ in range(deg)), rng.randint(1, 5))
        assert embed(x * y, target) == embed(x, target) * embed(y, target)
        assert embed(x + y, target) == embed(x, target) + embed(y, target)


def test_mixed_conductor_arithmetic_embeds_to_lcm():
    z2 = root_of_unity(2, 1)
    z3 = root_of_unity(3, 1)
    prod = z2 * z3
    assert prod.conductor == lcm(2, 3)
    assert prod == root_of_unity(6, 5)  # zeta_6^3 * zeta_6^2


def test_complex_shadow_matches_exact_arithmetic():
    rng = random.Random(5)
    for _ in range(50):
        m = rng.choice([3, 4, 5, 6, 8, 12])
        deg = cyclotomic_poly(m).degree
        a = CycloScalar(m, tuple(rng.randint(-9, 9) for _ in range(deg)), rng.randint(1, 9))
        b = CycloScalar(m, tuple(rng.randint(-9, 9) for _ in range(deg)), rng.randint(1, 9))
        exact = complex(a * b + a - b)
        shadow = complex(a) * complex(b) + complex(a) - complex(b)
        assert cmath.isclose(exact, shadow, rel_tol=1e-12, abs_tol=1e-12)


def test_complex_beyond_float_range():
    big = 10**400
    value = complex(CycloScalar(3, (big, big + 1), big))  # 1 + zeta_3
    assert cmath.isclose(value, 0.5 + 0.8660254037844386j, rel_tol=1e-12)
    assert cmath.isclose(complex(CycloScalar(4, (0, -big), 3 * big)), -1j / 3, rel_tol=1e-12)
    assert complex(CycloScalar(4, (1, 0), big)) == 0j  # underflows to zero


def test_complex_in_float_range_sums_before_dividing():
    # the exact verifier reads this conversion as a hint: keep its arithmetic exactly
    rng = random.Random(9)
    for _ in range(50):
        m = rng.choice([3, 5, 7, 12, 56])
        deg = cyclotomic_poly(m).degree
        x = CycloScalar(m, tuple(rng.randint(-10**12, 10**12) for _ in range(deg)),
                        rng.randint(1, 10**9))
        z = cmath.exp(2j * cmath.pi / m)
        total, power = 0j, 1 + 0j
        for c in x.num:
            if c:
                total += c * power
            power *= z
        assert complex(x) == total / x.den


def test_rational_detection_and_coeffs_view():
    x = root_of_unity(4, 1) + root_of_unity(4, 3)  # i + (-i) = 0
    assert x.is_rational() and x.to_fraction() == 0
    y = CycloScalar(3, (1, 2), 6)
    assert fraction_coords(y) == (Fraction(1, 6), Fraction(1, 3))
    with pytest.raises(ValueError):
        y.to_fraction()


def test_power_and_division():
    z = root_of_unity(5, 1)
    assert z**-1 == root_of_unity(5, 4)
    assert (z**7) == root_of_unity(5, 2)
    assert (1 / z) == root_of_unity(5, 4)
    assert (Fraction(1, 2) * z) * 2 == z


def test_scalars_are_immutable():
    z = root_of_unity(3, 1)
    with pytest.raises(AttributeError):
        z.den = 2

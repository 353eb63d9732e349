"""Normal forms modulo I(k, phi): membership, remainders and canonical phi."""

import random
import sys
from fractions import Fraction

import pytest

from waring import (
    MonomialSpec,
    PhiTuple,
    build_quotient,
    canonicalize_phi,
    explicit_phi,
    ideal_membership,
    make_ci_ideal,
)
from waring.cyclotomic import root_of_unity
from waring.groebner import ci_normal_form
from waring.ideals import generator_tails
from waring.linalg import exact_rank
from waring.polynomial import DUAL, SparsePoly, exponents_of_degree, parse_poly
from waring.vsp import parameter_space, sample_phi

from oracles import coefficient, full_columns
from test_solver import dense_phi

SPECS = [(1, 2), (1, 3), (1, 2, 3), (1, 1, 5), (2, 2, 3), (1, 2, 2, 3)]


def random_poly(rng, num_vars, degree, terms):
    pool = exponents_of_degree(num_vars, degree)
    picked = rng.sample(pool, min(terms, len(pool)))
    return SparsePoly(num_vars, DUAL, {e: Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                                       for e in picked})


def random_phi(rng, spec):
    """Every monomial of each degree d_i - d0, so the tuple is usually not canonical."""
    d0 = spec.exponents[0]
    return PhiTuple(spec, [random_poly(rng, spec.n + 1, d - d0, 99) for d in spec.exponents[1:]])


def member_of(rng, ideal, degree):
    total = SparsePoly(ideal.spec.n + 1, DUAL)
    for g in ideal.generators:
        total = total + random_poly(rng, ideal.spec.n + 1, degree - g.degree(), 3) * g
    return total


def in_span(poly, ideal, degree):
    """Independent oracle: poly lies in the span of m * g_i of the given degree."""
    num_vars = ideal.spec.n + 1
    columns = exponents_of_degree(num_vars, degree)
    rows = [
        [coefficient(SparsePoly.monomial(num_vars, DUAL, m) * g, e) for e in columns]
        for g in ideal.generators
        for m in exponents_of_degree(num_vars, degree - g.degree())
    ]
    target = [coefficient(poly, e) for e in columns]
    return exact_rank(rows + [target]) == exact_rank(rows)


def remainder(poly, ideal):
    tails = generator_tails(ideal.spec, ideal.phi.entries)
    return ci_normal_form(poly.terms, ideal.spec.exponents, tails)


@pytest.mark.parametrize("exps", SPECS)
def test_members_and_non_members_for_every_k(exps):
    spec = MonomialSpec.from_exponents(exps)
    rng = random.Random(str(exps))
    phi = random_phi(rng, spec)
    top = max(exps) + 2
    a0_power = SparsePoly.monomial(spec.n + 1, DUAL, (top,) + (0,) * spec.n)
    for k in range(1, spec.n + 1):
        ideal = make_ci_ideal(spec, PhiTuple(spec, phi.entries[:k]))
        for _ in range(3):
            member = member_of(rng, ideal, top)
            assert ideal_membership(member, ideal)
            assert not ideal_membership(member + a0_power, ideal)
            assert remainder(member + a0_power, ideal) == a0_power.terms


@pytest.mark.parametrize("exps", SPECS)
def test_membership_agrees_with_linear_algebra(exps):
    spec = MonomialSpec.from_exponents(exps)
    rng = random.Random(f"span{exps}")
    phi = random_phi(rng, spec)
    degree = max(exps) + 2
    for k in range(1, spec.n + 1):
        ideal = make_ci_ideal(spec, PhiTuple(spec, phi.entries[:k]))
        for poly in (member_of(rng, ideal, degree), random_poly(rng, spec.n + 1, degree, 4)):
            assert ideal_membership(poly, ideal) == in_span(poly, ideal, degree)


@pytest.mark.parametrize("exps", SPECS)
def test_remainder_has_no_leading_term_factor(exps):
    spec = MonomialSpec.from_exponents(exps)
    rng = random.Random(f"rem{exps}")
    phi = random_phi(rng, spec)
    degree = max(exps) + 3
    for k in range(1, spec.n + 1):
        ideal = make_ci_ideal(spec, PhiTuple(spec, phi.entries[:k]))
        poly = random_poly(rng, spec.n + 1, degree, 12)
        rest = remainder(poly, ideal)
        assert rest
        for e in rest:
            assert all(e[i] <= exps[i] for i in range(1, k + 1))
        # poly minus its remainder lies in the ideal
        assert ideal_membership(poly - SparsePoly(spec.n + 1, DUAL, rest), ideal)


def test_non_canonical_phi_gives_the_ideal_of_its_canonical_form():
    spec = MonomialSpec.from_exponents([1, 1, 5])
    phi = PhiTuple(spec, [parse_poly("2", 3, DUAL), parse_poly("a1^2*a2^2 - a1^4", 3, DUAL)])
    assert not phi.canonical
    fixed = canonicalize_phi(spec, phi)
    assert fixed.canonical
    assert str(fixed.entries[1]) == "-4*a0^4 + 2*a0^2*a2^2"
    before, after = make_ci_ideal(spec, phi), make_ci_ideal(spec, fixed)
    for g in before.generators:
        assert ideal_membership(g, after)
    for g in after.generators:
        assert ideal_membership(g, before)


def test_cyclotomic_coefficients():
    spec = MonomialSpec.from_exponents([1, 2, 3])
    zeta = root_of_unity(5, 1)
    phi = PhiTuple(spec, [SparsePoly.monomial(3, DUAL, (0, 0, 1), zeta),
                          SparsePoly.monomial(3, DUAL, (0, 2, 0), zeta * zeta)])
    ideal = make_ci_ideal(spec, phi)
    g1, g2 = ideal.generators
    combo = (g1 * parse_poly("a0*a2 - 3*a1^2", 3, DUAL)
             + g2 * SparsePoly.monomial(3, DUAL, (1, 0, 0), zeta))
    assert ideal_membership(combo, ideal)
    assert not ideal_membership(combo + parse_poly("a0^5", 3, DUAL), ideal)


def test_normal_form_reduces_leading_terms():
    # in the chart a0 = 1: a1^3 -> 1 + a2, a2^2 -> a1, so a1^3 * a2^2 -> a1 + a1*a2
    tails = [parse_poly("1 + a2", 3, DUAL), parse_poly("a1", 3, DUAL)]
    out = ci_normal_form({(0, 3, 2): 1}, (1, 2, 1), tails)
    assert out == {(0, 1, 0): 1, (0, 1, 1): 1}
    # homogeneous, x*y^2*z^3 with phi = (a2, a1^2): a1^3 -> a0^2*a2, a2^4 -> a0^2*a1^2
    tails = [parse_poly("a0^2*a2", 3, DUAL), parse_poly("a0^2*a1^2", 3, DUAL)]
    out = ci_normal_form({(0, 3, 4): 1}, (1, 2, 3), tails)
    assert out == {(4, 2, 1): 1}
    # k = 1 leaves a2^4 alone
    assert ci_normal_form({(0, 3, 4): 1}, (1, 2, 3), tails[:1]) == {(2, 0, 5): 1}


def test_normal_form_of_zero():
    spec = MonomialSpec.from_exponents([1, 2, 3])
    phi = PhiTuple(spec, [parse_poly("a2", 3, DUAL), parse_poly("a1^2", 3, DUAL)])
    assert ci_normal_form({}, spec.exponents, generator_tails(spec, phi.entries)) == {}
    assert ideal_membership(SparsePoly(3, DUAL), make_ci_ideal(spec, phi))


def test_membership_is_ideal_closed():
    spec = MonomialSpec.from_exponents([1, 2, 3])
    ideal = make_ci_ideal(spec, PhiTuple(spec, [parse_poly("a2", 3, DUAL),
                                                parse_poly("a1^2", 3, DUAL)]))
    g1, g2 = ideal.generators
    for g in (g1, g2):
        assert ideal_membership(g, ideal)
    combo = g1 * parse_poly("a0*a2", 3, DUAL) - g2 * parse_poly("7*a1", 3, DUAL)
    assert ideal_membership(combo, ideal)
    assert ideal_membership(combo * parse_poly("a0 - 2*a1 + a2", 3, DUAL), ideal)
    assert not ideal_membership(combo + parse_poly("a1^2*a2^3", 3, DUAL), ideal)


def test_groebner_basis_of_principal_ideal():
    # n = 1: I(1, phi) = (a1^3 - phi_1*a0^2) is principal, its generator a Groebner basis
    spec = MonomialSpec.from_exponents([1, 2])
    ideal = make_ci_ideal(spec, PhiTuple(spec, [parse_poly("3*a0 - a1", 2, DUAL)]))
    (g,) = ideal.generators
    assert ideal_membership(g * parse_poly("a0^2 - a1^2", 2, DUAL), ideal)
    assert not ideal_membership(g * parse_poly("a0^2", 2, DUAL) + parse_poly("a0^5", 2, DUAL), ideal)
    assert not ideal_membership(parse_poly("a1^3", 2, DUAL), ideal)


def test_canonicalize_refuses_a_term_that_needs_a_missing_generator():
    # A term of phi_i has degree d_i - d0 < d_j + 1 for every j >= i, so only a
    # tuple altered after its degree check can hold a_j^(d_j+1) with j > k.
    spec = MonomialSpec.from_exponents([1, 1, 2])
    phi = PhiTuple(spec, [parse_poly("1", 3, DUAL)])
    phi.entries = (parse_poly("a2^3", 3, DUAL),)
    with pytest.raises(ValueError):
        canonicalize_phi(spec, phi)


def lifo_normal_form(terms, exponents, tails):
    """The reduction as it was before the heap order: pop the last-inserted monomial.

    Kept as the reference: the remainder is unique, so both orders must agree.
    """
    k = len(tails)
    out = {}
    work = dict(terms)
    while work:
        e, c = work.popitem()
        over = next((i for i in range(1, k + 1) if e[i] > exponents[i]), None)
        if over is None:
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
            continue
        rest = tuple(ei - (exponents[over] + 1) if i == over else ei for i, ei in enumerate(e))
        for te, tc in tails[over - 1].terms.items():
            ne = tuple(a + b for a, b in zip(rest, te))
            s = work.get(ne, 0) + c * tc
            if s:
                work[ne] = s
            else:
                work.pop(ne, None)
    return out


@pytest.fixture
def pops(monkeypatch):
    """Every monomial the reduction pops, as one (heap, popped monomials) pair per call."""
    import waring.groebner as groebner

    calls = []
    real_pop = groebner.heappop

    def heappop(heap):
        if not calls or calls[-1][0] is not heap:  # a new call brings its own heap
            calls.append((heap, []))
        item = real_pop(heap)
        calls[-1][1].append(item[2])
        return item

    monkeypatch.setattr(groebner, "heappop", heappop)
    return calls


def assert_each_popped_once(calls):
    assert calls
    for _, popped in calls:
        assert len(popped) == len(set(popped))


def per_column(q, normal_form):
    """The multiplication matrices of q rebuilt with one ``normal_form`` call per nonstandard
    column, as ``build_quotient`` built them before its memo."""
    columns = []
    for i in range(1, q.spec.n + 1):
        lifted = [tuple(x + (j == i) for j, x in enumerate(e)) for e in q.basis]
        columns.append(tuple(
            ((q.index[t], 1),) if t in q.index else tuple(sorted(
                (q.index[m], c) for m, c in normal_form({t: 1}, q.spec.exponents, q.psi).items()))
            for t in lifted))
    return tuple(columns)


@pytest.fixture
def rewrites(monkeypatch):
    """Every monomial the reductions rewrite, in order."""
    import waring.groebner as groebner

    seen = []
    rewrite = groebner._rewrite
    monkeypatch.setattr(groebner, "_rewrite", lambda e, *rest: seen.append(e) or rewrite(e, *rest))
    return seen


@pytest.mark.parametrize("exps", [(1, 2, 3), (1, 1, 2, 3), (2, 2, 3, 3), (1, 3, 3, 3)])
def test_quotient_columns_match_the_lifo_reduction(rewrites, exps):
    spec = MonomialSpec.from_exponents(exps)
    for seed in range(3):
        rewrites.clear()
        q = build_quotient(spec, sample_phi(parameter_space(spec), seed))
        assert rewrites and len(rewrites) == len(set(rewrites))  # no monomial reduced twice
        assert full_columns(q) == per_column(q, lifo_normal_form)


@pytest.mark.parametrize("kind", ["sampled", "dense", "rational", "explicit"])
@pytest.mark.parametrize("exps", [(1, 2, 3), (2, 3, 5), (1, 3, 3, 3), (1, 1, 1, 2, 2, 2)])
def test_memo_columns_match_one_normal_form_per_column(kind, exps):
    spec = MonomialSpec.from_exponents(exps)
    phi = {"sampled": lambda: sample_phi(parameter_space(spec), 0),
           "dense": lambda: dense_phi(spec, 1, 1),
           "rational": lambda: dense_phi(spec, 0, 35),
           "explicit": lambda: explicit_phi(spec)}[kind]()
    q = build_quotient(spec, phi)
    assert (q.scale > 1) == (kind == "rational")
    assert full_columns(q) == per_column(q, ci_normal_form)


def test_long_rewrite_chain_builds_without_recursion():
    # x*y*z^2100 with phi = (1, a1^2099): b_2 * a1 * a2^2100 -> a1^2100, which a1^2 -> 1
    # rewrites 1050 times, one memo entry per step: a chain past the recursion limit
    spec = MonomialSpec.from_exponents((1, 1, 2100))
    assert 2100 // 2 > sys.getrecursionlimit()
    q = build_quotient(spec, PhiTuple(spec, [SparsePoly.constant(3, DUAL, 1),
                                             SparsePoly.monomial(3, DUAL, (0, 2099, 0))]))
    for a1, image in ((0, (0, 1, 0)), (1, (0, 0, 0))):
        assert q.boundary[1][q.index[(0, a1, 2100)]] == ((q.index[image], 1),)


@pytest.mark.parametrize("exps", SPECS)
def test_membership_matches_the_lifo_reduction(pops, exps):
    spec = MonomialSpec.from_exponents(exps)
    rng = random.Random(f"lifo{exps}")
    phi = random_phi(rng, spec)
    top = max(exps) + 3
    a0_power = SparsePoly.monomial(spec.n + 1, DUAL, (top,) + (0,) * spec.n)
    for k in range(1, spec.n + 1):
        ideal = make_ci_ideal(spec, PhiTuple(spec, phi.entries[:k]))
        tails = generator_tails(spec, phi.entries[:k])
        for _ in range(3):
            member = member_of(rng, ideal, top)
            for poly, inside in ((member, True), (member + a0_power, False),
                                 (random_poly(rng, spec.n + 1, top, 6), None)):
                heap = ci_normal_form(poly.terms, spec.exponents, tails)
                assert heap == lifo_normal_form(poly.terms, spec.exponents, tails)
                if inside is not None:
                    assert (not heap) == inside == ideal_membership(poly, ideal)
    assert_each_popped_once(pops)

"""Certificate invariants raise explicitly, so they also hold under python -O."""

import ast
import os
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from waring import MonomialSpec, cyclotomic, ideals, solver, vsp
from waring.cyclotomic import CycloScalar
from waring.monomials import explicit_decomposition
from waring.solver import PointSet

import oracles


def _wrong_rank(monkeypatch):
    monkeypatch.setattr(MonomialSpec, "rank", property(lambda self: 99))


def _points_of_xyz():
    spec = MonomialSpec.parse("x*y*z")
    dec = explicit_decomposition(spec)
    return PointSet(points=tuple(tuple(form.coeffs) for _, form in dec.summands))


def _half_lift_quotient():
    """x*y*z with a1 * a1 = 1/2: a hand-built quotient with a Fraction boundary entry."""
    spec = MonomialSpec.parse("x*y*z")
    q = solver.build_quotient(spec, ideals.explicit_phi(spec))
    b = q.index[0, 1, 0]
    (row, _), = q.boundary[0][b]
    return replace(q, boundary=({**q.boundary[0], b: ((row, Fraction(1, 2)),)},) + q.boundary[1:])


def _constant_normal_forms(monkeypatch):
    """A corrupted memo reduction: every nonstandard column reads 1, the constant's row."""
    monkeypatch.setattr(solver, "ci_normal_forms",
                        lambda monomials, exponents, tails, index: dict.fromkeys(monomials, {0: 1}))


def _one_boundary_form_off(monkeypatch):
    """The boundary column (0, 0, 3) of M_2 of x*y^2*z^3, the form of a2^4, one off in row 0.

    a1 * (0, 0, 3) is a unit shift, so only the products through ``times`` compare it."""
    reduce = solver.ci_normal_forms

    def off(monomials, exponents, tails, index):
        memo = reduce(monomials, exponents, tails, index)
        form = memo[0, 0, 4] = dict(memo[0, 0, 4])
        form[0] = form.get(0, 0) + 1
        return memo

    monkeypatch.setattr(solver, "ci_normal_forms", off)


def _explicit_quotient_of_xy2z3():
    spec = MonomialSpec.parse("x*y^2*z^3")
    return solver.build_quotient(spec, ideals.explicit_phi(spec))


# (break one side of an invariant, call that checks it, the message it must name)
CASES = [
    pytest.param(
        lambda mp: mp.setattr(cyclotomic, "root_of_unity", lambda m, k: CycloScalar.one(m)),
        lambda: oracles.root_power_sum(4, 1), "root_power_sum(4, 1)", id="root_power_sum"),
    pytest.param(
        lambda mp: mp.setattr(ideals, "_count_bounded", lambda bounds, t: -1),
        lambda: ideals.hilbert_S_mod_J(MonomialSpec.parse("x*y*z"), 2), "monomial count -1",
        id="hilbert_S_mod_J"),
    pytest.param(
        lambda mp: mp.setattr(ideals, "hilbert_S_mod_J", lambda spec, t: 7),
        lambda: ideals.basis_Bprime(MonomialSpec.parse("x*y^2"), 1), "the Hilbert function gives 7",
        id="basis_Bprime"),
    pytest.param(
        lambda mp: mp.setattr(ideals, "_exponent_in_J", lambda spec, e: True),
        lambda: ideals.dim_perp_cap_alpha0(MonomialSpec.parse("x*y*z"), 2), "monomial count 3",
        id="dim_perp_cap_alpha0"),
    pytest.param(
        _wrong_rank, lambda: explicit_decomposition(MonomialSpec.parse("x*y")), "expected rank 99",
        id="explicit_decomposition"),
    pytest.param(
        lambda mp: mp.setattr(vsp, "dim_vsp", lambda spec: -1),
        lambda: vsp.parameter_space(MonomialSpec.parse("x*y^2")), "dim_vsp gives -1",
        id="parameter_space"),
    pytest.param(
        lambda mp: mp.setattr(ideals, "_exponent_in_J", lambda spec, e: True),
        lambda: vsp.sample_phi(vsp.parameter_space(MonomialSpec.parse("x*y^2")), 5),
        "sample_phi(seed=5)", id="sample_phi"),
    pytest.param(
        lambda mp: mp.setattr(ideals, "_exponent_in_J", lambda spec, e: True),
        lambda: vsp.fit_phi_from_points(MonomialSpec.parse("x*y*z"), _points_of_xyz()),
        "non-canonical", id="fit_phi_from_points"),
    pytest.param(
        _constant_normal_forms, _explicit_quotient_of_xy2z3,
        "multiplication matrices 1 and 2 do not commute at column 5", id="build_quotient"),
    pytest.param(
        _one_boundary_form_off, _explicit_quotient_of_xy2z3,
        "multiplication matrices 1 and 2 do not commute at column 6",
        id="build_quotient_boundary_column"),
]


@pytest.mark.parametrize("break_it, call, message", CASES)
def test_broken_invariant_raises(monkeypatch, break_it, call, message):
    break_it(monkeypatch)
    with pytest.raises(AssertionError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("break_it, call, message", CASES)
def test_broken_invariant_raises_after_a_warm_call(monkeypatch, break_it, call, message):
    # what the first call caches (the quotient plan among it) holds nothing the break touches
    call()
    break_it(monkeypatch)
    with pytest.raises(AssertionError, match=re.escape(message)):
        call()


def test_invariant_survives_optimized_mode():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "from waring import MonomialSpec, ideals\n"
        "ideals._count_bounded = lambda bounds, t: -1\n"
        "try:\n"
        "    ideals.hilbert_S_mod_J(MonomialSpec.parse('x*y*z'), 2)\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert "hilbert_S_mod_J at t=2: monomial count -1" in out


def test_trace_form_type_check_survives_optimized_mode():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "from test_invariants import _half_lift_quotient\n"
        "from waring import solver\n"
        "try:\n"
        "    solver.trace_form_rank(_half_lift_quotient())\n"
        "except TypeError as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(Path(__file__).parent)]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert "trace form requires int entries, got Fraction" in out


def _build_under_optimized_mode(corrupt: str) -> str:
    """Stdout of building the explicit quotient of x*y^2*z^3 with ``corrupt`` applied, under -O."""
    tests = Path(__file__).resolve().parent
    code = (
        "from types import SimpleNamespace\n"
        f"from test_invariants import {corrupt}, _explicit_quotient_of_xy2z3\n"
        f"{corrupt}(SimpleNamespace(setattr=setattr))\n"
        "try:\n"
        "    _explicit_quotient_of_xy2z3()\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    return subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True).stdout


def test_corrupted_reduction_raises_in_optimized_mode():
    assert _build_under_optimized_mode("_constant_normal_forms") == (
        "multiplication matrices 1 and 2 do not commute at column 5\n")


def test_corrupted_boundary_column_raises_in_optimized_mode():
    assert _build_under_optimized_mode("_one_boundary_form_off") == (
        "multiplication matrices 1 and 2 do not commute at column 6\n")


def test_zero_jacobian_raise_survives_optimized_mode():
    # at a0 = 1, the point (1, 0) of x*y has J = 2 * a1 = 0: no finite coefficient 1/(C * J)
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "from waring import MonomialSpec, ideals, solver\n"
        "spec = MonomialSpec.parse('x*y')\n"
        "q = solver.build_quotient(spec, ideals.explicit_phi(spec))\n"
        "points = solver.PointSet(points=((1 + 0j, -1 + 0j), (1 + 0j, 0j)))\n"
        "try:\n"
        "    solver._fit_decomposition(q, points, 1e-8)\n"
        "except solver.PointExtractionError as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out == "coefficient fit: |J| = 0.000e+00 at point 1, so c = 1/(C*J) is not finite\n"


def test_package_has_no_assert_statement():
    """An invariant that gates a certificate is an explicit raise: -O strips asserts."""
    package = Path(__file__).resolve().parents[1] / "src" / "waring"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []

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


def _wrong_rank(monkeypatch):
    monkeypatch.setattr(MonomialSpec, "rank", property(lambda self: 99))


def _points_of_xyz():
    spec = MonomialSpec.parse("x*y*z")
    dec = explicit_decomposition(spec)
    return PointSet(points=tuple(tuple(form.coeffs) for _, form in dec.summands))


def _half_lift_quotient():
    """x*y*z with a1 * 1 = 1/2 * a1: a column entry that no rewrite reached has a denominator."""
    spec = MonomialSpec.parse("x*y*z")
    q = solver.build_quotient(spec, ideals.explicit_phi(spec))
    (row, _), = q.columns[0][0]
    columns = ((((row, Fraction(1, 2)),),) + q.columns[0][1:],) + q.columns[1:]
    return replace(q, columns=columns)


class _NoMonomials:
    def contains_exponent(self, exponent):
        return False


# (break one side of an invariant, call that checks it, the message it must name)
CASES = [
    pytest.param(
        lambda mp: mp.setattr(cyclotomic, "root_of_unity", lambda m, k: CycloScalar.one(m)),
        lambda: cyclotomic.root_power_sum(4, 1), "root_power_sum(4, 1)", id="root_power_sum"),
    pytest.param(
        lambda mp: mp.setattr(ideals, "_count_bounded", lambda bounds, t: -1),
        lambda: ideals.hilbert_S_mod_J(MonomialSpec.parse("x*y*z"), 2), "monomial count -1",
        id="hilbert_S_mod_J"),
    pytest.param(
        lambda mp: mp.setattr(ideals, "hilbert_S_mod_J", lambda spec, t: 7),
        lambda: ideals.basis_Bprime(MonomialSpec.parse("x*y^2"), 1), "the Hilbert function gives 7",
        id="basis_Bprime"),
    pytest.param(
        lambda mp: mp.setattr(ideals, "annihilator", lambda spec: _NoMonomials()),
        lambda: ideals.dim_perp_cap_alpha0(MonomialSpec.parse("x*y*z"), 2), "monomial count 0",
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
        lambda mp: mp.setattr(solver, "ci_normal_form",
                              lambda terms, bounds, tails: {(0,) * len(bounds): 1}),
        lambda: solver.build_quotient(MonomialSpec.parse("x*y^2*z^3"),
                                      ideals.explicit_phi(MonomialSpec.parse("x*y^2*z^3"))),
        "multiplication matrices 1 and 2 do not commute", id="build_quotient"),
    pytest.param(
        lambda mp: None, lambda: solver.trace_form_rank(_half_lift_quotient()),
        "trace form rescaling: entry 1/2 of M_1", id="trace_form_rank"),
]


@pytest.mark.parametrize("break_it, call, message", CASES)
def test_broken_invariant_raises(monkeypatch, break_it, call, message):
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


def test_trace_rescaling_survives_optimized_mode():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "from test_invariants import _half_lift_quotient\n"
        "from waring import solver\n"
        "try:\n"
        "    solver.trace_form_rank(_half_lift_quotient())\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(Path(__file__).parent)]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert "trace form rescaling: entry 1/2 of M_1" in out


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

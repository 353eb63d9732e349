"""Tests of the benchmark's own checks: wrong outputs must be rejected.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from waring import cli  # noqa: E402


def waring(*argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return json.loads(out.getvalue())


def points(num_vars):
    return checks.unit_points(random.Random(0), num_vars)


@pytest.mark.parametrize("argv, exps, verified", [
    (("decompose", "x*y^2*z^2", "--exact"), (1, 2, 2), "exact"),
    (("decompose", "x*y*z^2", "--seed", "3"), (1, 1, 2), "numeric"),
])
def test_perturbed_coefficient_is_rejected(argv, exps, verified):
    out = waring(*argv)
    assert checks.check_decomposition(out, exps, points(3), verified) is None
    c = checks.scalar_value(out["summands"][0]["coeff"]) * 1.001
    out["summands"][0]["coeff"] = {"re": c.real, "im": c.imag}
    assert "misses the monomial" in checks.check_decomposition(out, exps, points(3), verified)


def test_summand_count_and_verdict_are_checked():
    out = waring("decompose", "x*y^2", "--exact")
    short = dict(out, summands=out["summands"][:-1])
    assert "rank formula" in checks.check_decomposition(short, (1, 2), points(2), "exact")
    assert "verified" in checks.check_decomposition(out, (1, 2), points(2), "numeric")


def test_wrong_membership_answer_is_rejected():
    rng = random.Random(1)
    ops = workloads._membership(rng, (1, 2, 3), workloads.random_canonical_phi(rng, (1, 2, 3)))
    for op, truth in zip(ops, (True, False)):
        out = waring(*op.argv)
        assert op.check(out, {}) is None
        out["member"]["in_ideal"] = not truth
        assert "in_ideal" in op.check(out, {})


def test_wrong_radical_and_canonical_answers_are_rejected():
    out = waring("radical", "x*y^3*z^3", "--phi", "a1^2", "--phi", "a1*a2 + a2^2")
    assert checks.check_radical(out, 16, "deficient") is None
    assert checks.check_radical(dict(out, radical=True), 16, "deficient") is not None
    op = workloads._canonicalize(random.Random(2), (1, 2, 5))
    out = waring(*op.argv)
    assert op.check(out, {}) is None
    out["phi"]["entries"][1][0]["coeff"] = "1234"
    assert op.check(out, {}) is not None


def test_smoke_run_on_smallest_inputs(monkeypatch):
    monkeypatch.setattr(workloads, "EXACT_SPECS", [(1, 1), (1, 1, 2)])
    monkeypatch.setattr(workloads, "SAMPLE_SPECS", [((1, 1, 2), 2)])
    monkeypatch.setattr(workloads, "DECOMPOSE_SPECS", [(1, 2)])
    monkeypatch.setattr(workloads, "KNOWN_FAULTS", [])
    monkeypatch.setattr(workloads, "CHAINS", [[(1, 1), (1, 1, 2)], [(1, 2)]])
    monkeypatch.setattr(workloads, "CANONICALIZE_SPECS", [(1, 1, 3)])
    monkeypatch.setattr(workloads, "ZERO_ENTRY_SPEC", (1, 2))
    monkeypatch.setattr(workloads, "EXPLICIT_SPECS", [(1, 1, 2)])
    monkeypatch.setattr(workloads, "DENSE_SPECS", [(1, 3)])
    for name in workloads.NAMES:
        runner = run.Runner(cli, workloads.build(name, 0))
        runner.run_round(traced=False)
        assert runner.wrong == [] and runner.failed == 0, (name, runner.failures)
        assert runner.attempted == len(runner.ops) and min(runner.times) > 0

"""Full benchmark rounds of all three workloads, run through the CLI.

Every output is judged by `benchmarks/checks.py`, which does not import the
package, so membership, canonicalization and radicality answers, and every
decomposition, are checked against an independent oracle.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from waring import cli, solver

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCHMARKS))
    return workloads


def run_round(workloads, monkeypatch, name):
    ctx = {}
    for op in workloads.build(name, 7):
        if op.stdin_from:
            monkeypatch.setattr(sys, "stdin", io.StringIO(ctx[op.stdin_from]))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(op.argv)
        assert code == 0, f"{op.label}: exit {code}: {out.getvalue()[:200]}"
        if op.key:
            ctx[op.key] = out.getvalue()
        assert op.check(json.loads(out.getvalue()), ctx) is None, op.label


def test_ideal_queries_round(workloads, monkeypatch):
    # the dense, rank-deficient phi are certified by the kernel lift, never by exact elimination
    calls = []
    rank = solver.exact_rank
    monkeypatch.setattr(solver, "exact_rank", lambda rows: calls.append(len(rows)) or rank(rows))
    run_round(workloads, monkeypatch, "ideal_queries")
    assert calls == []


def test_sample_decompose_round(workloads, monkeypatch):
    # includes the two x^3*y^6*z^7 seeds whose certified points the old coefficient fit refused
    run_round(workloads, monkeypatch, "sample_decompose")


def test_exact_certify_round(workloads, monkeypatch):
    # every exact decomposition is verified twice: by decompose --exact and by verify
    run_round(workloads, monkeypatch, "exact_certify")

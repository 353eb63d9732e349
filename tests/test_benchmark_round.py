"""One full `ideal_queries` round of the benchmark, run through the CLI.

Every output is judged by `benchmarks/checks.py`, which does not import the
package, so the membership, canonicalization and radicality answers are
checked against an independent oracle.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from waring import cli

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCHMARKS))
    return workloads


def test_ideal_queries_round(workloads, monkeypatch):
    ctx = {}
    for op in workloads.build("ideal_queries", 7):
        if op.stdin_from:
            monkeypatch.setattr(sys, "stdin", io.StringIO(ctx[op.stdin_from]))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(op.argv)
        assert code == 0, f"{op.label}: exit {code}: {out.getvalue()[:200]}"
        if op.key:
            ctx[op.key] = out.getvalue()
        assert op.check(json.loads(out.getvalue()), ctx) is None, op.label

"""Every command that needs a radical ideal builds its quotient once per phi and ranks it
once unless phi is binomial, and expands each decomposition it returns once."""

import json
import sys
from collections import Counter

import pytest

import waring
from waring import cli, solver

COMMANDS = [
    ["sample", "x*y*z^2", "--seed", "0", "--count", "3"],
    ["sample", "x^2*y^2*z^2", "--seed", "4", "--count", "2"],
    ["decompose", "x*y^2*z^3", "--seed", "1"],
    ["points", "x*y*z^2", "--seed", "3"],
    ["diagnose", "x*y*z", "--seed", "1", "--t-max", "2"],
    ["diagnose", "x^2*y^2*z^2", "--phi", "8", "--phi", "27", "--t-max", "2"],
    ["radical", "x*y^2*z^3", "--phi", "a2", "--phi", "a1^2"],
]


def binomial(phi) -> bool:
    """Every entry one term c * a0^k: the certificate needs no trace rank."""
    return all(len(p.terms) == 1 and all(not any(e[1:]) for e in p.terms) for p in phi.entries)


@pytest.fixture
def calls(monkeypatch):
    """Per phi, how often build_quotient and trace_form_rank ran, wherever they are bound;
    ``binomial`` holds the text of each binomial phi built."""
    counts = {"build_quotient": Counter(), "trace_form_rank": Counter(), "binomial": set()}

    def built(spec, phi):
        if binomial(phi):
            counts["binomial"].add(str(phi))
        return str(phi)

    def counting(name, fn, key):
        def wrapper(*args, **kwargs):
            counts[name][key(*args)] += 1
            return fn(*args, **kwargs)
        return wrapper

    wrappers = {
        "build_quotient": counting("build_quotient", solver.build_quotient, built),
        "trace_form_rank": counting("trace_form_rank", solver.trace_form_rank,
                                    lambda q: str(q.phi)),
    }
    originals = {name: getattr(solver, name) for name in wrappers}
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "waring"]
    for module in modules:
        for name, wrapper in wrappers.items():
            if getattr(module, name, None) is originals[name]:
                monkeypatch.setattr(module, name, wrapper)
    return counts


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: " ".join(argv[:2]))
def test_one_quotient_and_one_trace_rank_per_phi(calls, capsys, argv):
    assert cli.main(argv) in (0, 1)
    capsys.readouterr()
    built, ranked = calls["build_quotient"], calls["trace_form_rank"]
    assert built, "no quotient was built"
    assert set(built) - calls["binomial"] == set(ranked)
    assert all(n == 1 for n in built.values()), built
    assert all(n == 1 for n in ranked.values()), ranked


def test_the_commands_build_binomial_and_other_phi(calls, capsys):
    """Both sides of the rank count above are exercised by ``COMMANDS``."""
    for argv in COMMANDS:
        cli.main(argv)
    capsys.readouterr()
    assert calls["binomial"] and set(calls["build_quotient"]) - calls["binomial"]


def test_zero_entry_builds_nothing(calls):
    spec = waring.MonomialSpec.parse("x^2*y^2*z^2")
    phi = cli._parse_phi(spec, ["1", "0"])
    certificate = solver.certify_radical(spec, phi)
    assert (certificate.radical, certificate.quotient, certificate.trace_rank) == (False, None, None)
    assert not calls["build_quotient"] and not calls["trace_form_rank"]


def test_certificate_carries_the_quotient_and_rank():
    spec = waring.MonomialSpec.parse("x*y^2*z^3")
    non_radical = solver.certify_radical(spec, cli._parse_phi(spec, ["a2", "a1^2"]))
    assert not non_radical.radical
    assert non_radical.trace_rank < non_radical.quotient.dim == spec.rank
    radical = solver.certify_radical(spec, waring.explicit_phi(spec))
    assert radical.radical and radical.trace_rank == radical.quotient.dim == spec.rank
    assert radical.quotient.phi == waring.explicit_phi(spec)


@pytest.mark.parametrize("argv", [
    ["decompose", "x*y^2*z^3", "--seed", "1"],
    ["sample", "x*y*z^2", "--seed", "0", "--count", "3"],
], ids=lambda argv: " ".join(argv[:2]))
def test_one_expansion_per_decomposition(monkeypatch, capsys, argv):
    """The coefficients come from the square solve; only the verifier expands, once."""
    from waring import monomials

    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    name, fn = "verify_decomposition", monomials.verify_decomposition
    for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "waring"]:
        if getattr(module, name, None) is fn:
            monkeypatch.setattr(module, name, counting(name, fn))
    assert cli.main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    decompositions = sum(s["verified"] for s in out["samples"]) if "samples" in out else 1
    assert decompositions >= 1
    assert counts == Counter(verify_decomposition=decompositions), counts

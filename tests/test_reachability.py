"""Every function and method of the package is run by some command.

A fixed list of in-process ``cli.main`` calls runs under ``sys.setprofile``.
It covers every subcommand on small monomials, exact and float input to
``verify`` and ``fit-phi``, and ``--format text``.  Every function and every
method defined in ``src/waring`` whose name is not a dunder must be entered,
except those in ``ALLOWED``, which is empty: a name goes there only with the
reason no command reaches it.  Code only the tests use belongs in ``tests/``.
"""

import importlib
import inspect
import json
import pkgutil
import sys
from functools import cached_property

import waring
from waring import cli

# (the name as this test prints it, why no command enters it)
ALLOWED: dict[str, str] = {}


def zeta3(*coeffs):
    return {"conductor": 3, "coeffs": list(coeffs)}


# the points (1, 1), (1, zeta_3), (1, zeta_3^2) of x*y^2, and its explicit decomposition
# sum_a zeta_3^a / 9 * (x + zeta_3^a y)^3 read as floats; the points (1, zeta_4^a) of x*y^3,
# -1 given with conductor 2, so the exact solve embeds it into Q(zeta_4)
INPUTS = {
    "cyclotomic_points": {"points": [["1", "1"], ["1", zeta3("0", "1")],
                                     ["1", zeta3("-1", "-1")]]},
    "mixed_conductor_points": {"points": [
        ["1", "1"], ["1", {"conductor": 4, "coeffs": ["0", "1"]}],
        ["1", {"conductor": 2, "coeffs": ["-1"]}], ["1", {"conductor": 4, "coeffs": ["0", "-1"]}]]},
    "cyclotomic_as_float": {"degree": 3, "domain": "complex-float", "summands": [
        {"coeff": "1/9", "form": ["1", "1"]},
        {"coeff": zeta3("0", "1/9"), "form": ["1", zeta3("0", "1")]},
        {"coeff": zeta3("-1/9", "-1/9"), "form": ["1", zeta3("-1", "-1")]}]},
}

# an unknown option: the one call that exits 2, through the parser's JSON error
PARSER_ERROR = ["rank", "x*y", "--seed", "3"]

# (argv, file to write stdout to, or None); "{name}" in argv is that file's path
CALLS = [
    (["rank", "x*y^2*z^3"], None),
    (["bounds", "x*y^2"], None),
    (["--format", "text", "bounds", "x*y"], None),
    (["decompose", "x*y^2", "--exact"], "exact"),
    (["verify", "x*y^2", "--input", "{exact}"], None),
    (["decompose", "x*y^2", "--seed", "0"], "float"),
    (["--format", "text", "decompose", "x*y^2", "--seed", "0"], None),
    (["verify", "x*y^2", "--input", "{float}"], None),
    (["verify", "x*y^2", "--input", "{cyclotomic_as_float}"], None),
    (["decompose", "x*y^2", "--phi", "a0 + 2*a1", "--seed", "1"], None),
    (["hilbert", "x*y^2*z^2"], None),
    (["vsp-dim", "x*y^2*z^3"], None),
    (["ideal", "1,1,5", "--phi", "2", "--phi", "a1^2*a2^2", "--canonicalize",
      "--member", "a2^6 - 2*a0^2*a2^4"], None),
    (["radical", "x*y^2*z^3"], None),
    (["radical", "x*y^2", "--phi", "1/2*a0 + a1"], None),
    (["radical", "x*y*z", "--phi", "0", "--phi", "1"], None),
    (["radical", "x*y^2*z^3", "--phi", "a2", "--phi", "a1^2"], None),  # rank 11 of 12
    # a double point at a1 = 10^200: no prime reconstructs the kernel, exact elimination decides
    (["radical", "x*y^2", "--phi=-2e600*a0 + 3e400*a1"], None),
    (["points", "x*y^2", "--seed", "0"], "points"),
    (["fit-phi", "x*y^2", "--points", "{points}"], None),
    (["fit-phi", "x*y^2", "--points", "{cyclotomic_points}"], None),
    (["fit-phi", "x*y^3", "--points", "{mixed_conductor_points}"], None),
    (["normalize", "x^2*y^2", "--phi", "2", "--seed", "0"], None),
    (["sample", "x*y^2", "--seed", "0", "--count", "2"], None),
    (["diagnose", "x*y"], None),
    (["diagnose", "x*y", "--seed", "0"], None),
    (["diagnose", "x*y^2", "--phi", "3*a0 + a1", "--seed", "2", "--t-max", "3"], None),
    (PARSER_ERROR, None),
]


def package_modules():
    return [importlib.import_module(f"waring.{info.name}")
            for info in pkgutil.iter_modules(waring.__path__)]


def defined_code():
    """Code object -> name, for each non-dunder function and method defined in the package.

    Properties count by their getter, cached properties, static and class methods by
    their function, cached functions by the function they wrap.
    """
    out = {}
    for module in package_modules():
        short = module.__name__.split(".", 1)[1]
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                for attr, raw in vars(obj).items():
                    if attr.startswith("__") and attr.endswith("__"):
                        continue
                    raw = raw.fget if isinstance(raw, property) else raw
                    raw = raw.func if isinstance(raw, cached_property) else raw
                    raw = getattr(raw, "__func__", raw)
                    if inspect.isfunction(raw):
                        out[raw.__code__] = f"{short}.{name}.{attr}"
                continue
            fn = inspect.unwrap(obj) if callable(obj) else None
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                if not (name.startswith("__") and name.endswith("__")):
                    out[fn.__code__] = f"{short}.{name}"
    return out


def entered_by_the_calls(tmp_path, capsys, monkeypatch):
    """The code objects entered while the calls run, with cold caches and a new parser."""
    for module in package_modules():
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", "") == module.__name__:
                obj.cache_clear()
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.delenv("WARING_SEED", raising=False)
    files = {name: tmp_path / f"{name}.json" for name in INPUTS}
    for name, data in INPUTS.items():
        files[name].write_text(json.dumps(data))
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    codes = []
    for argv, save in CALLS:
        argv = [arg.format(**files) if "{" in arg else arg for arg in argv]
        sys.setprofile(profile)
        try:
            code = cli.main(argv)
        finally:
            sys.setprofile(None)
        out = capsys.readouterr().out
        codes.append((" ".join(argv), code))
        if save:
            files[save] = tmp_path / f"{save}.json"
            files[save].write_text(out)
    return entered, codes


def test_every_function_is_entered_by_a_command(tmp_path, capsys, monkeypatch):
    code = defined_code()
    entered, codes = entered_by_the_calls(tmp_path, capsys, monkeypatch)
    refused = " ".join(PARSER_ERROR)
    assert all(exit_code == 2 * (call == refused) for call, exit_code in codes), codes
    names = set(code.values())
    assert set(ALLOWED) <= names, sorted(set(ALLOWED) - names)
    missed = sorted(name for c, name in code.items() if c not in entered and name not in ALLOWED)
    assert missed == [], missed
    allowed_but_entered = sorted(name for c, name in code.items()
                                 if c in entered and name in ALLOWED)
    assert allowed_but_entered == [], allowed_but_entered


# waring.__all__, sorted: a change to a public name is an edit here
PUBLIC_NAMES = [
    "CIIdeal", "CycloScalar", "CyclotomicPolynomial", "DUAL", "Decomposition", "LinearForm",
    "MonomialSpec", "NonRadicalIdealError", "PRIMAL", "PhiTuple", "PointExtractionError",
    "PointSet", "QuotientAlgebra", "SparsePoly", "TorusElement", "VSPParameterSpace",
    "VerificationReport", "apply_diff", "apply_torus", "basis_Bprime", "build_quotient",
    "canonicalize_phi", "cyclotomic_poly", "decompose_from_phi", "dehomogenize",
    "dim_perp_cap_alpha0", "dim_vsp", "embed", "explicit_decomposition", "explicit_phi",
    "extract_points", "fit_phi_from_points", "hilbert_S_mod_J", "ideal_membership",
    "make_ci_ideal", "multinomial_C", "parameter_space", "point_ideal_hilbert",
    "rank_lower_bound", "root_of_unity", "sample_phi", "torus_normalize", "trace_form_rank",
    "verify_decomposition", "waring_rank",
]


def test_public_names_are_pinned():
    assert sorted(waring.__all__) == PUBLIC_NAMES
    assert len(set(waring.__all__)) == len(waring.__all__)
    assert all(hasattr(waring, name) for name in PUBLIC_NAMES)

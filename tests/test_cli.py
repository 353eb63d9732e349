import argparse
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from waring import (
    MonomialSpec,
    cli,
    cyclotomic,
    explicit_decomposition,
    groebner,
    ideals,
    monomials,
    serialize,
    solver,
)
from waring.cli import main
from waring.vsp import parameter_space, sample_phi

from oracles import points_from_decomposition, q_t_diagnostic


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestBasicCommands:
    def test_rank(self, capsys):
        code, data = run_json(capsys, "rank", "x*y*z")
        assert code == 0 and data["rank"] == 4

    def test_rank_exponent_list(self, capsys):
        code, data = run_json(capsys, "rank", "1,1,2")
        assert code == 0 and data["rank"] == 6

    def test_bounds(self, capsys):
        code, data = run_json(capsys, "bounds", "x*y^2*z^3")
        assert code == 0
        assert data["lower_bound"] == 6 and data["rank"] == 12

    def test_vsp_dim(self, capsys):
        code, data = run_json(capsys, "vsp-dim", "x^2*y^2*z^2")
        assert code == 0 and data["dim_vsp"] == 2

    def test_hilbert(self, capsys):
        code, data = run_json(capsys, "hilbert", "x^2*y^2*z^2", "--t-max", "4")
        assert code == 0
        assert data["hilbert_S_mod_J"] == {"0": 1, "1": 3, "2": 6, "3": 8, "4": 9}


class TestDecompose:
    def test_exact_xy(self, capsys):
        code, data = run_json(capsys, "decompose", "x*y", "--exact")
        assert code == 0
        assert data["verified"] == "exact"
        assert sorted(s["coeff"] for s in data["summands"]) == ["-1/4", "1/4"]

    def test_sampled_decomposition(self, capsys):
        code, data = run_json(capsys, "decompose", "x*y*z^2", "--seed", "5")
        assert code == 0
        assert data["verified"] == "numeric" and len(data["summands"]) == 6

    def test_phi_decomposition(self, capsys):
        code, data = run_json(
            capsys, "decompose", "x^2*y^2*z^2", "--phi", "1", "--phi", "1", "--seed", "0"
        )
        assert code == 0 and len(data["summands"]) == 9

    def test_non_radical_phi_exits_one(self, capsys):
        code, data = run_json(
            capsys, "decompose", "x^2*y^2*z^2", "--phi", "1", "--phi", "0", "--seed", "0"
        )
        assert code == 1 and "error" in data

    def test_all_real_points_print_complex_records(self, capsys):
        # both points (a1 = -1 and 1) are real; their records still carry "im"
        code, data = run_json(capsys, "decompose", "x*y", "--phi", "1", "--seed", "0")
        assert code == 0 and data["residual"] == 0.0
        one, minus = {"re": 1.0, "im": 0.0}, {"re": -1.0, "im": 0.0}
        assert data["summands"] == [
            {"coeff": {"re": -0.25, "im": 0.0}, "form": [one, minus]},
            {"coeff": {"re": 0.25, "im": 0.0}, "form": [one, one]},
        ]

    @pytest.mark.parametrize("argv", [
        ["decompose", "x*y*z", "--phi", "1", "--phi", "1"],
        ["points", "x*y"],
        ["sample", "x*y"],
    ])
    def test_missing_seed_is_usage_error(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("WARING_SEED", raising=False)
        code, data = run_json(capsys, *argv)
        assert code == 2
        assert "--seed" in data["error"] and "WARING_SEED" in data["error"]

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("WARING_SEED", "7")
        code, data = run_json(capsys, "decompose", "x*y*z", "--phi", "1", "--phi", "1")
        assert code == 0 and len(data["summands"]) == 4


class TestCertifiedPointsAreFitted:
    """Seeds whose certified points the old 1e-8 rank gate on the power-expansion
    system refused: the square solve fits them and the verifier accepts them."""

    @pytest.mark.parametrize("monomial, seed", [("x^3*y^6*z^7", 0), ("x^3*y^6*z^7", 3)] + [
        ("x*y^4*z^6", s) for s in (0, 3, 13, 15, 23, 24, 26, 41, 48, 53, 59, 60, 68, 77, 78)
    ])
    def test_decompose_seed_verifies(self, capsys, monomial, seed):
        code, data = run_json(capsys, "decompose", monomial, "--seed", str(seed))
        assert code == 0, data
        assert data["verified"] == "numeric" and data["residual"] < 1e-8


class TestVerifyRoundTrip:
    def test_verify_reads_decompose_output(self, capsys, tmp_path):
        code, out = run(capsys, "decompose", "x*y*z", "--exact")
        assert code == 0
        path = tmp_path / "dec.json"
        path.write_text(out)
        code, data = run_json(capsys, "verify", "x*y*z", "--input", str(path))
        assert code == 0 and data["verified"] == "exact"

    def test_verify_rejects_corrupted(self, capsys, tmp_path):
        code, out = run(capsys, "decompose", "x*y", "--exact")
        payload = json.loads(out)
        payload["summands"][0]["coeff"] = "1/3"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, data = run_json(capsys, "verify", "x*y", "--input", str(path))
        assert code == 1 and "error" in data

    def test_a_large_conductor_lcm_reads_a_small_table(self, capsys, tmp_path):
        # 1/2*(zeta_53*x + zeta_59*y)^2 is checked in Q(zeta_3127), phi(3127) = 3016: the
        # table of z^j mod Phi_3127 holds only the 111 powers j in [3016, 3127)
        def zeta(m):
            return {"conductor": m, "coeffs": ["0", "1"] + ["0"] * (m - 3)}

        path = tmp_path / "lcm.json"
        path.write_text(json.dumps({"degree": 2, "domain": "exact-cyclotomic", "summands": [
            {"coeff": "1/2", "form": [zeta(53), zeta(59)]}]}))
        for cached in (cyclotomic._reduction_rows, monomials._ring_constants):
            cached.cache_clear()
        tracemalloc.start()
        try:
            code, out = run(capsys, "verify", "x*y", "--input", str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert out == ('{"error": "FAIL (exact): difference = 1/2*z3127^118*x0^2 + '
                       '(-1 + z3127^112)*x0*x1 + 1/2*z3127^106*x1^2"}\n')
        assert len(cyclotomic._reduction_rows(3127)) == 111
        assert peak < 10_000_000, peak

    def test_a_conductor_past_the_table_limit_is_refused(self, capsys, tmp_path):
        # conductors 3, 5, 7, 11 and 13 meet in Q(zeta_15015), whose table of z^j mod
        # Phi_15015 would hold 9255 rows of 5760: refused before Phi_15015 is built
        def zeta(m):
            return {"conductor": m, "coeffs": ["0", "1"] + ["0"] * (m - 3)}

        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"degree": 2, "domain": "exact-cyclotomic", "summands": [
            {"coeff": "1/4", "form": [zeta(3), zeta(5)]},
            {"coeff": "-1/4", "form": [zeta(7), zeta(11)]},
            {"coeff": "1/4", "form": [zeta(13), "1"]}]}))
        start = time.perf_counter()
        code, data = run_json(capsys, "verify", "x*y", "--input", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and data == {"error": "conductor 15015 needs a table of 53308800 powers "
                                               "of zeta_15015, past the limit of 1000000"}

    def test_a_high_degree_check_holds_one_packed_int_per_entry(self, capsys, monkeypatch):
        # d = 120: one int of d + 1 power slots per entry image peaks near 1.3 MB, while
        # O(d^2) slots per image (d + 1 packed prefixes) read 52 MB
        tracemalloc.start()
        try:
            code, out = run(capsys, "decompose", "x^60*y^60", "--exact")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 10_000_000, peak
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        code, data = run_json(capsys, "verify", "x^60*y^60", "--input", "-")
        assert code == 0 and data["verified"] == "exact"

    def test_running_out_of_memory_is_a_json_error(self, capsys, monkeypatch):
        def exhausted(spec, args):
            raise MemoryError

        monkeypatch.setattr(cli, "cmd_rank", exhausted)
        monkeypatch.setattr(cli, "_parser", None)  # rebuilt around the patched command
        code, out = run(capsys, "rank", "x*y")
        assert code == 1 and json.loads(out) == {"error": "out of memory"}


class TestIdealAndRadical:
    def test_ideal_membership_flag(self, capsys):
        code, data = run_json(
            capsys,
            "ideal",
            "x*y^2*z^3",
            "--phi", "a2", "--phi", "a1^2",
            "--member", "a0^4*a1 - a1^2*a2^3",
        )
        assert code == 0
        assert data["member"]["in_ideal"] is False
        assert data["generators"] == ["a1^3 - a0^2*a2", "-a0^2*a1^2 + a2^4"]

    def test_radical_true_false(self, capsys):
        code, data = run_json(capsys, "radical", "x^2*y^2*z^2", "--phi", "2", "--phi", "3")
        assert code == 0 and data["radical"] is True and data["trace_rank"] == 9
        code, data = run_json(capsys, "radical", "x*y^2*z^3", "--phi", "a2", "--phi", "a1^2")
        assert code == 0 and data["radical"] is False and data["trace_rank"] == 11

    # (monomial, phi, radical, trace_rank): exact answers, the same on every machine
    @pytest.mark.parametrize("monomial, phi, radical, trace_rank", [
        ("x*y^2*z^3", ["4*a0 + 5*a1 - 8*a2",
                       "-a0^2 + 8*a0*a1 + 7*a1^2 + 4*a0*a2 + a1*a2 + 7*a2^2"], True, 12),
        ("x*y^2*z^3", ["4/35*a0 + 5/6*a1 - 8*a2",
                       "-1/6*a0^2 + 8/35*a0*a1 + 7*a1^2 + 4*a0*a2 + a1*a2 + 7/6*a2^2"], True, 12),
        ("x*y^3*z^3", ["4/3*a1^2 + a1*a2 + 5/6*a2^2", "1/2*a1^2 + 1/2*a1*a2 + 1/6*a2^2"],
         False, 13),
        ("x*y^4*z^4", ["8/35*a1^3 + 6/35*a1^2*a2 + 1/7*a1*a2^2 + 3/35*a2^3",
                       "3/35*a1^3 + 1/35*a1^2*a2 + 1/35*a1*a2^2 + 1/35*a2^3"], False, 17),
        ("x*y^3*z^3", ["4*a1^2 + a1*a2 + 5*a2^2", "a1^2 + a1*a2 + 6*a2^2"], False, 13),
        ("x*y^3*z^3*w^3", ["7*a1^2 + a1*a2 + 5*a2^2 + 3*a1*a3 + 9*a2*a3 + 3*a3^2",
                           "2*a1^2 + 2*a1*a2 + a2^2 + 2*a1*a3 + a2*a3 + 7*a3^2",
                           "a1^2 + 3*a1*a2 + 4*a2^2 + 8*a1*a3 + a2*a3 + 2*a3^2"], False, 57),
        ("x*y^3*z^3", [], True, 16),
        ("x*y^3*z^3*w^3", [], True, 64),
        ("x*y^3*z^3", ["0", "a1^2"], False, None),
    ], ids=["integer", "rational-6-35", "dense-6", "dense-35", "dense-integer",
            "dense-integer-4vars", "explicit", "explicit-4vars", "zero-entry"])
    def test_radical_outputs_are_pinned(self, capsys, monomial, phi, radical, trace_rank):
        code, data = run_json(capsys, "radical", monomial, *(f"--phi={p}" for p in phi))
        assert code == 0
        assert (data["radical"], data["trace_rank"]) == (radical, trace_rank)

    def test_phi_value_starting_with_minus(self, capsys):
        code, spaced = run(capsys, "radical", "x*y^3", "--phi", "-5*a1^2")
        assert code == 0
        code, joined = run(capsys, "radical", "x*y^3", "--phi=-5*a1^2")
        assert code == 0 and joined == spaced
        data = json.loads(spaced)
        assert data["phi"]["entries"][0] == [{"coeff": "-5", "exponent": [0, 2]}]

    def test_member_value_starting_with_minus(self, capsys):
        base = ["ideal", "x*y^2*z^3", "--phi", "-a2", "--phi", "a1^2"]
        code, spaced = run(capsys, *base, "--member", "-a1^3 - a0^2*a2")
        assert code == 0
        code, joined = run(capsys, *base, "--member=-a1^3 - a0^2*a2")
        assert code == 0 and joined == spaced
        data = json.loads(spaced)
        assert data["member"] == {"poly": "-a1^3 - a0^2*a2", "in_ideal": True}
        code, data = run_json(capsys, *base, "--member", "-a1^3")
        assert code == 0 and data["member"]["in_ideal"] is False

    def test_ideal_canonicalize_flag(self, capsys):
        code, data = run_json(
            capsys, "ideal", "1,1,5",
            "--phi", "2", "--phi", "a1^2*a2^2", "--canonicalize",
        )
        assert code == 0
        assert data["phi"]["canonical"] is True
        assert data["generators"][1] == "-2*a0^4*a2^2 + a2^6"

    @pytest.mark.parametrize("extra, built", [([], 1), (["--canonicalize"], 2)])
    def test_ideal_builds_the_tails_once_per_phi(self, capsys, monkeypatch, extra, built):
        # make_ci_ideal builds them and membership reads ideal.tails; canonicalizing
        # builds those of the phi as given
        argv = ["ideal", "1,1,5", "--phi", "2", "--phi", "a1^2*a2^2", *extra,
                "--member", "a2^6 - 2*a0^2*a2^4"]
        plain = run(capsys, *argv)
        calls = []
        original = ideals.generator_tails
        monkeypatch.setattr(ideals, "generator_tails",
                            lambda *args: calls.append(args) or original(*args))
        assert run(capsys, *argv) == plain and plain[0] == 0
        assert len(calls) == built


    @pytest.mark.parametrize("phi, member, types", [
        (["2", "a1^2*a2^2"], "a2^6 - 4/2*a0^4*a2^2", {int}),
        (["2.0", "3*a1^2*a2^2 - 1e1*a0^2*a1*a2"], "a2^6 - 2*a0^4*a2^2 + a1^6", {int}),
        (["1/2", "a1^2*a2^2"], "a2^6 - a0^4*a2^2", {int, Fraction}),
    ])
    def test_integral_input_reduces_in_int(self, capsys, monkeypatch, phi, member, types):
        # the coefficients of every input, tail and remainder of the normal forms that
        # --canonicalize and --member take
        seen = set()
        original = groebner.ci_normal_form

        def spy(terms, exponents, tails):
            out = original(terms, exponents, tails)
            seen.update(type(c) for poly in (terms, out, *(t.terms for t in tails))
                        for c in poly.values())
            return out

        monkeypatch.setattr(ideals, "ci_normal_form", spy)
        monkeypatch.setattr(solver, "ci_normal_form", spy)
        argv = ["ideal", "1,1,5", "--phi", phi[0], "--phi", phi[1], "--canonicalize"]
        assert run(capsys, *argv, "--member", member)[0] == 0
        assert seen == types


class TestPointsFitNormalize:
    def test_points_then_fit_phi(self, capsys, tmp_path):
        code, out = run(capsys, "points", "x*y*z^2", "--seed", "3")
        assert code == 0
        path = tmp_path / "points.json"
        path.write_text(out)
        code, data = run_json(capsys, "fit-phi", "x*y*z^2", "--points", str(path))
        assert code == 0
        assert data["phi"]["canonical"] is True

    @pytest.mark.parametrize("phi", ["a1", "1e-20*a1", "1e20*a1"])
    def test_points_alpha0_nonzero_is_always_true(self, capsys, phi):
        # a float test |p0| > 1e-8*||p||_2 read false at 1e20, whose points are about 1e10
        code, data = run_json(capsys, "points", "x*y^2", "--phi", phi, "--seed", "0")
        assert code == 0 and data["alpha0_nonzero"] is True

    def test_normalize(self, capsys):
        code, data = run_json(
            capsys, "normalize", "x^2*y^2*z^2", "--phi", "8", "--phi", "27", "--seed", "2"
        )
        assert code == 0
        assert data["canonical_residual"] < 1e-8

    def test_normalize_pure_power(self, capsys):
        code, data = run_json(capsys, "normalize", "x", "--seed", "1")
        assert code == 0 and data["canonical_residual"] == 0.0

    def test_normalize_unequal_exponents_fails(self, capsys):
        code, data = run_json(capsys, "normalize", "x*y^2*z^3", "--phi", "a2", "--phi", "a1^2")
        assert code == 1

    def test_points_refuses_non_radical(self, capsys):
        code, data = run_json(
            capsys, "points", "x*y^2*z^3", "--phi", "a2", "--phi", "a1^2", "--seed", "0"
        )
        assert code == 1 and "error" in data


    @pytest.mark.parametrize("monomial, seed", [("x*y*z", "0"), ("x*y", "3"),
                                                ("x*y*z*w", "5")])
    def test_points_write_no_negative_zero(self, capsys, tmp_path, monomial, seed):
        # JSON writes -0.0 and 0.0 apart; a zero part of a float is always written 0.0
        path = tmp_path / "points.json"
        for argv in (["points", monomial, "--seed", seed], ["decompose", monomial, "--seed", seed],
                     ["fit-phi", monomial, "--points", str(path)]):
            code, out = run(capsys, *argv)
            assert code == 0 and not re.search(r"-0\.0\b", out)
            assert '"im": 0.0' in out
            if argv[0] == "points":
                path.write_text(out)

    @pytest.mark.parametrize("command", ["points", "normalize", "decompose"])
    def test_points_near_the_origin_are_told_apart(self, capsys, command):
        # the points (1, +-1e-150) are 2e-150 apart: separated relative to the cloud's extent
        code, data = run_json(capsys, command, "x*y", "--phi", "1e-300", "--seed", "0")
        assert code == 0
        if command == "decompose":
            coeffs = sorted(s["coeff"]["re"] for s in data["summands"])
            assert coeffs == pytest.approx([-2.5e149, 2.5e149], rel=1e-12)
            assert data["residual"] < 1e-12  # the x*y coefficient's rounding; x^2 and y^2 cancel
        if command == "points":
            assert sorted(p[1]["re"] for p in data["points"]) == pytest.approx([-1e-150, 1e-150])

    def test_fit_phi_past_float_range_names_the_point(self, capsys, tmp_path):
        path = tmp_path / "points.json"
        path.write_text(json.dumps({"points": [[{"re": 1.0}, {"re": 1e308}],
                                               [{"re": 1.0}, {"re": -1e308}]]}))
        code, data = run_json(capsys, "fit-phi", "x*y", "--points", str(path))
        assert code == 2
        assert data["error"].startswith("point 0 is outside float range")

    @pytest.mark.parametrize("a0", ["0", {"re": 0.0, "im": 0.0}])
    def test_fit_phi_point_off_the_chart_is_bad_input(self, capsys, tmp_path, a0):
        path = tmp_path / "points.json"
        path.write_text(json.dumps({"points": [["1", "1"], [a0, "1"]]}))
        code, data = run_json(capsys, "fit-phi", "x*y", "--points", str(path))
        assert (code, data) == (2, {"error": "point 1 has a0 = 0: it is outside the chart a0 = 1"})

    def test_fit_phi_reads_a_point_with_cyclotomic_and_float_records(self, capsys, tmp_path):
        # the explicit points of x*y^3*z^3, one coordinate of a point with a cyclotomic
        # record written as a float record: that point is fitted in complex throughout
        spec = MonomialSpec.parse("x*y^3*z^3")
        data = serialize.pointset_to_json(
            points_from_decomposition(explicit_decomposition(spec), spec))
        j, k = next((j, k) for j, p in enumerate(data["points"]) for k in (1, 2)
                    if isinstance(p[k], dict) and isinstance(p[3 - k], str))
        value = complex(serialize.scalar_from_json(data["points"][j][3 - k]))
        data["points"][j][3 - k] = {"re": value.real, "im": value.imag}
        path = tmp_path / "points.json"
        path.write_text(json.dumps(data))
        code, out = run_json(capsys, "fit-phi", "x*y^3*z^3", "--points", str(path))
        assert code == 0
        for entry in out["phi"]["entries"]:  # the explicit phi: a0^2 for each entry
            got = {tuple(t["exponent"]): complex(t["coeff"]["re"], t["coeff"]["im"])
                   for t in entry}
            assert (2, 0, 0) in got
            assert all(abs(c - (e == (2, 0, 0))) < 1e-12 for e, c in got.items())

    def test_fit_phi_mixed_records_end_in_json(self, capsys, tmp_path):
        # a cyclotomic and a float record in one point, 15 rational points that fit nothing
        points = [["1", {"conductor": 3, "coeffs": ["0", "1"]}, {"re": 1.0}]]
        points += [["1", str(j), str(j * j % 7 + 1)] for j in range(1, 16)]
        path = tmp_path / "points.json"
        path.write_text(json.dumps({"points": points}))
        code, data = run_json(capsys, "fit-phi", "x*y^3*z^3", "--points", str(path))
        assert code in (0, 1) and (code == 0 or set(data) == {"error"})

    def test_fit_phi_mixed_records_past_float_range(self, capsys, tmp_path):
        path = tmp_path / "points.json"
        path.write_text(json.dumps({"points": [["1", "1"], [{"re": 1.0}, "1" + "0" * 400]]}))
        code, data = run_json(capsys, "fit-phi", "x*y", "--points", str(path))
        assert code == 2
        assert data["error"].startswith("point 1 is outside float range")

    def test_fit_phi_float_point_beside_a_huge_exact_point(self, capsys, tmp_path):
        # the float record is in point 0, so point 1 holds exact coordinates only; it is
        # converted all the same, since the solve reads every point in complex
        path = tmp_path / "points.json"
        path.write_text(json.dumps({"points": [["1", {"re": 1.0}], ["1", "1" + "0" * 400]]}))
        code, data = run_json(capsys, "fit-phi", "x*y", "--points", str(path))
        assert (code, data) == (2, {"error": "point 1 is outside float range"})


class TestRefinedPoints:
    """x*y^5*z^5*w^5, seed 0: trace rank 216 of 216, and the fit on the eigenvalue points
    alone missed tol (residual 4.8e-08); Newton's method and c_j = 1/(C * J(p_j)) pass."""

    ARGV = ["decompose", "x*y^5*z^5*w^5", "--seed", "0"]

    def test_decompose(self, capsys):
        code, data = run_json(capsys, *self.ARGV)
        assert code == 0 and data["verified"] == "numeric" and data["residual"] < 1e-12

    def test_decompose_on_two_blas_threads(self):
        # LAPACK's last bits follow the thread count
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run([sys.executable, "-m", "waring.cli", *self.ARGV], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stdout
        assert json.loads(done.stdout)["residual"] < 1e-12

    def test_sample(self, capsys):
        code, data = run_json(capsys, "sample", "x*y^5*z^5*w^5", "--seed", "0", "--count", "2")
        assert code == 0
        assert [(s["radical"], s["verified"]) for s in data["samples"]] == [(True, True)] * 2
        assert all(s["residual"] < 1e-12 for s in data["samples"])


class TestBinomialPhi:
    """Every phi_i = c_i * a0^(d_i - d0): points from the grid of the roots of t^(d_i+1) = c_i,
    with the exit codes and texts of the eig readout at the edges."""

    @pytest.mark.parametrize("phi", ["-3/4", "5/2", "-7"])
    def test_negative_and_rational_constants(self, capsys, phi):
        code, data = run_json(capsys, "decompose", "x^2*y^2", f"--phi={phi}", "--seed", "0")
        assert code == 0 and data["verified"] == "numeric" and data["residual"] < 1e-12
        assert len(data["summands"]) == 3

    def test_seed_moves_no_point(self, capsys):
        outs = [run(capsys, "points", "x^2*y^2*z^2", "--seed", seed)[1] for seed in ("0", "5")]
        assert outs[0] == outs[1]

    def test_tiny_constants_keep_the_zero_jacobian_text(self, capsys):
        code, data = run_json(capsys, "decompose", "x*y*z*w", "--phi", "1e-300", "--phi",
                              "1e-300", "--phi", "1e-300", "--seed", "0")
        assert code == 1
        assert data["error"] == ("coefficient fit: |J| = 0.000e+00 at point 0, "
                                 "so c = 1/(C*J) is not finite")

    def test_a_constant_below_float_range_leaves_no_separated_point(self, capsys):
        # 1e-400 reads 0.0, so all three roots of a^3 = c sit at the origin
        code, data = run_json(capsys, "decompose", "x^2*y^2", "--phi", "1e-400", "--seed", "0")
        assert (code, data["error"]) == (1, "expected 3 separated points: 2 within tol=1e-08 "
                                            "of an earlier one")

    def test_pure_power_keeps_its_one_point(self, capsys):
        code, data = run_json(capsys, "points", "x^3", "--seed", "0")
        assert code == 0 and data["points"] == [[{"re": 1.0, "im": 0.0}]]

    def test_single_terms_outside_a0_take_the_trace_rank(self, capsys):
        code, data = run_json(capsys, "radical", "x*y^3*z^3", "--phi", "a1^2", "--phi", "a2^2")
        assert code == 0
        assert (data["radical"], data["trace_rank"], data["dimension"]) == (False, 9, 16)


class TestSampleAndDiagnose:
    def test_sample_batch(self, capsys):
        code, data = run_json(capsys, "sample", "x*y*z^2", "--seed", "0", "--count", "4")
        assert code == 0
        assert len(data["samples"]) == 4
        assert 0.0 <= data["radical_fraction"] <= 1.0

    def test_diagnose_table(self, capsys):
        code, data = run_json(capsys, "diagnose", "x*y*z", "--seed", "1", "--t-max", "4")
        assert code == 0
        assert data["all_agree"] is True
        assert [row["hilbert_model"] for row in data["table"]] == [1, 3, 4, 4, 4]

    def test_diagnose_extracts_with_the_environment_seed(self, capsys, monkeypatch):
        seeds = []
        real = cli.extract_points

        def recording(q, tol, seed):
            seeds.append(seed)
            return real(q, tol=tol, seed=seed)

        monkeypatch.setattr(cli, "extract_points", recording)
        monkeypatch.setenv("WARING_SEED", "13")
        code, data = run_json(capsys, "diagnose", "x*y*z", "--t-max", "2")
        assert code == 0 and data["all_agree"] is True
        assert seeds == [13]

    def test_diagnose_ranks_each_evaluation_matrix_once(self, capsys, monkeypatch):
        from waring import vsp

        ranks, extracted = [], []
        real_rank, real_extract = vsp.rank, cli.extract_points

        def counting(*args):
            ranks.append(args)
            return real_rank(*args)

        def recording(q, tol, seed):
            extracted.append(real_extract(q, tol=tol, seed=seed))
            return extracted[-1]

        monkeypatch.setattr(vsp, "rank", counting)
        monkeypatch.setattr(cli, "extract_points", recording)
        code, data = run_json(capsys, "diagnose", "x*y*z^2", "--seed", "1", "--t-max", "6")
        # one rank per row, for hilbert_points; q_t is the previous row's dim_I_t
        assert code == 0 and len(ranks) == 7
        monkeypatch.setattr(vsp, "rank", real_rank)
        assert [row["dim_I_t"] for row in data["table"]] == [
            comb(t + 2, 2) - vsp.point_ideal_hilbert(extracted[0], t) for t in range(7)
        ]

    @pytest.mark.parametrize("argv", [
        ["x^3"],  # n = 0: no point ideal in any degree
        ["x*y*z^2", "--seed", "1"],
        ["x*y^2", "--phi", "1/3*a0+a1"],
        ["x*y*z", "--phi", "1/2", "--phi", "-2/3"],
        ["x*y", "--phi", "1e-300", "--seed", "0"],
        ["x*y^2", "--phi", "1e20*a1"],
        ["x*y^2", "--phi", "1e-20*a1"],
    ])
    def test_diagnose_q_t_is_the_definition_on_its_own_points(self, capsys, monkeypatch, argv):
        extracted = []
        real = cli.extract_points

        def recording(q, tol, seed):
            extracted.append(real(q, tol=tol, seed=seed))
            return extracted[-1]

        monkeypatch.setattr(cli, "extract_points", recording)
        code, data = run_json(capsys, "diagnose", *argv)
        spec = MonomialSpec.parse(argv[0])
        assert code == 0 and len(extracted) == 1
        assert [row["q_t"] for row in data["table"]] == [
            q_t_diagnostic(spec, extracted[0], row["t"]) for row in data["table"]
        ]

    def test_diagnose_of_a_tiny_constant_still_disagrees(self, capsys):
        # a known defect of the float ranks on a certified phi (ROADMAP item 2): the
        # Hilbert functions disagree, and balancing the torus should turn this true
        code, data = run_json(capsys, "diagnose", "x*y", "--phi", "1e-300", "--seed", "0")
        assert code == 0 and data["all_agree"] is False

    @pytest.mark.parametrize("argv, t", [
        # points (1, +-1e150): a1^3 leaves float range in the degree-3 row
        (["x*y", "--phi=1e300", "--seed", "0"], 3),
        (["x^2*y^2", "--phi=1/3+1e300+1e300", "--seed", "40"], 4),
    ])
    def test_diagnose_of_a_huge_constant_names_the_degree(self, capsys, argv, t):
        code, data = run_json(capsys, "diagnose", *argv)
        assert code == 1
        assert data == {"error": f"point ideal stage: the degree-{t} evaluation matrix of "
                                 "the points is outside float range"}

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_sample_count_below_one_is_usage_error(self, capsys, count):
        code, data = run_json(capsys, "sample", "x*y*z", "--seed", "0", "--count", count)
        assert code == 2 and "--count" in data["error"]


class TestDeterminismAndErrors:
    def test_identical_invocations_identical_bytes(self, capsys):
        _, first = run(capsys, "decompose", "x*y*z^2", "--seed", "9")
        _, second = run(capsys, "decompose", "x*y*z^2", "--seed", "9")
        assert first == second

    @pytest.mark.parametrize("monomial", ["x*y*z^2*w^3", "x^3*y^6*z^7", "x*y^3*z^3*w^3"])
    def test_the_seed_only_picks_the_combination_weights(self, capsys, monomial):
        # with phi fixed, every seed reads the same sorted decomposition to a relative 1e-12
        spec = MonomialSpec.parse(monomial)
        phi = sample_phi(parameter_space(spec), 0)  # not binomial: the weights are drawn
        argv = ["decompose", monomial, *(f"--phi={entry}" for entry in phi.entries)]

        def entries(seed):
            code, data = run_json(capsys, *argv, "--seed", str(seed))
            assert code == 0, (monomial, seed)
            return [complex(v["re"], v["im"]) for summand in data["summands"]
                    for v in (summand["coeff"], *summand["form"])]

        first = entries(0)
        for seed in range(1, 10):
            other = entries(seed)
            assert len(other) == len(first)
            assert all(abs(a - b) <= 1e-12 * max(abs(a), abs(b)) for a, b in zip(first, other))

    def test_output_round_trips_through_the_schema(self, capsys):
        from waring.serialize import decomposition_from_json, decomposition_to_json, plain

        for argv in (["decompose", "x*y*z^2", "--exact"],
                     ["decompose", "x*y*z^2", "--seed", "2"]):
            _, out = run(capsys, *argv)
            data = json.loads(out)
            data.pop("monomial")
            reparsed = decomposition_to_json(decomposition_from_json(data))
            assert json.dumps(plain(reparsed), sort_keys=True) == json.dumps(data, sort_keys=True)

    def test_bad_monomial_exits_two(self, capsys):
        code, data = run_json(capsys, "rank", "2*x*y")
        assert code == 2 and "error" in data

    @pytest.mark.parametrize("argv, message", [
        (["radical", "x*y", "--phi", "0^-1"], "missing exponent"),
        (["rank", "x^*y^2"], "missing exponent"),
        (["radical", "x*y", "--phi", "1/0"], "zero denominator"),
        (["ideal", "x*y", "--member", "1/0*a0"], "zero denominator"),
        (["rank", "x^1_0"], "invalid exponent '1_0'"),
        (["rank", "x^+3*y"], "invalid exponent '+3'"),
        (["rank", "x^\u0661"], "invalid exponent '\u0661'"),
        (["radical", "x*y", "--phi", "1_000"], "invalid number '1_000'"),
        (["ideal", "x*y^2", "--member=^2*a1"], "missing base before '^' in '^2*a1'"),
        (["radical", "x*y^2", "--phi=a1*^3"], "missing base before '^' in 'a1*^3'"),
    ])
    def test_malformed_number_is_usage_error(self, capsys, argv, message):
        code, data = run_json(capsys, *argv)
        assert code == 2 and message in data["error"]

    def test_a_mantissa_ending_in_a_point_takes_a_signed_exponent(self, capsys):
        bare = run(capsys, "radical", "x*y^2", "--phi=2.e-3*a1")
        assert bare == run(capsys, "radical", "x*y^2", "--phi=2.0e-3*a1")
        assert bare[0] == 0 and '"1/500"' in bare[1]

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this interpreter has no int-to-str digit limit")
    def test_answer_past_the_digit_limit_is_a_failure(self, capsys):
        # the normalizing constant 20000! / (10000!)^2 has 6023 digits
        code, data = run_json(capsys, "bounds", "x^10000*y^10000")
        assert code == 1
        assert data["error"].startswith("cannot write rational scalar")
        assert "6023 decimal digits" in data["error"]

    def test_text_format(self, capsys):
        code, out = run(capsys, "--format", "text", "rank", "x*y*z")
        assert code == 0 and "rank: 4" in out

    @pytest.mark.parametrize("monomial", ["x0*x2^2", "x1*x2"])
    def test_text_format_of_a_form_with_an_absent_variable(self, capsys, monomial):
        # the form holds the "0" of the absent variable beside complex records
        code, out = run(capsys, "--format", "text", "decompose", monomial, "--seed", "1")
        assert code == 0 and out.endswith(f"monomial: {monomial}\n")
        forms = out.split("  form:\n")[1:]
        assert len(forms) == (3 if monomial == "x0*x2^2" else 2)
        assert all("    0" in form.splitlines() for form in forms)

    @pytest.mark.parametrize("argv", [["points", "x*y", "--seed", "1"],
                                      ["points", "x*y*z^2", "--seed", "1"],
                                      ["diagnose", "x*y*z", "--seed", "1"],
                                      ["normalize", "x*y*z", "--seed", "1"]])
    def test_text_format_of_a_list_of_lists_of_records(self, capsys, argv):
        # a point is a list of complex records, a phi entry a list of term records: each
        # is written record by record, not as a Python repr
        code, out = run(capsys, "--format", "text", *argv)
        assert code == 0 and "{'" not in out and "[{" not in out
        if argv[0] == "points":
            assert out.startswith("points:\n    re: 1.0\n    im: 0.0\n    -\n")

    @pytest.mark.parametrize("argv", [
        ["decompose", "x*y*z", "--seed", "1"],
        ["verify", "x*y", "--input", "-"],
        ["points", "x*y*z", "--seed", "1"],
        ["normalize", "x*y", "--seed", "1"],
        ["sample", "x*y*z", "--seed", "1"],
        ["diagnose", "x*y*z", "--seed", "1"],
    ])
    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_negative_tolerance_is_usage_error(self, capsys, argv, tol):
        code, data = run_json(capsys, *argv, "--tol", tol)
        assert code == 2 and "--tol" in data["error"]

    @pytest.mark.parametrize("tol", ["1e400", "1" + "0" * 400])
    def test_tolerance_past_float_range_is_usage_error(self, capsys, tol):
        code, data = run_json(capsys, "points", "x*y", "--seed", "0", "--tol", tol)
        assert code == 2
        assert data["error"] == f"--tol must be a finite decimal number, got {tol!r}"

    @pytest.mark.parametrize("argv, option", [
        (["decompose", "x*y*z", "--seed", "1_0"], "--seed"),
        (["decompose", "x*y*z", "--seed", " 3 "], "--seed"),
        (["decompose", "x*y*z", "--seed=-1"], "--seed"),
        (["points", "x*y", "--seed", "abc"], "--seed"),
        (["sample", "x*y", "--seed", "\u0663"], "--seed"),
        (["sample", "x*y", "--seed", "0", "--count", "\u0662"], "--count"),
        (["diagnose", "x*y", "--t-max", "0_1"], "--t-max"),
        (["hilbert", "x*y", "--t-max", "+1"], "--t-max"),
        (["decompose", "x*y*z", "--seed", "1", "--tol", "\u0661e-3"], "--tol"),
        (["decompose", "x*y*z", "--seed", "1", "--tol", "1_0"], "--tol"),
        (["decompose", "x*y*z", "--seed", "1", "--tol", " 1e-3"], "--tol"),
        (["decompose", "x*y*z", "--seed", "1", "--tol", "inf"], "--tol"),
    ])
    def test_numeric_option_in_ascii_digits_only(self, capsys, argv, option):
        code, data = run_json(capsys, *argv)
        assert code == 2 and option in data["error"]

    @pytest.mark.parametrize("value", ["1_000", "abc", "-1", " 7", "\u0667"])
    def test_seed_variable_in_ascii_digits_only(self, capsys, monkeypatch, value):
        monkeypatch.setenv("WARING_SEED", value)
        code, data = run_json(capsys, "decompose", "x*y*z", "--phi", "1", "--phi", "1")
        assert code == 2 and "WARING_SEED" in data["error"]
        # a command that reads no seed, and a given --seed, ignore the variable
        assert run_json(capsys, "decompose", "x*y*z", "--exact")[0] == 0
        assert run_json(capsys, "sample", "x*y", "--seed", "1")[0] == 0

    @pytest.mark.parametrize("tol", ["1e-6", "0.5", "3", "2.", "1E+2", "0"])
    def test_decimal_tolerances_keep_parsing(self, capsys, tol):
        code, data = run_json(capsys, "decompose", "x*y", "--seed", "1", "--tol", tol)
        assert code in (0, 1) and "--tol" not in data.get("error", "")

    def test_exponent_notation_phi(self, capsys):
        code, data = run_json(capsys, "normalize", "x*y", "--phi", "1e-300")
        assert code == 0 and data["phi_normalized"]["canonical"] is True

    @pytest.mark.parametrize("monomial, phi", [
        ("x*y", "1e-300"), ("x*y", "2.5E+3"), ("x*y", "3/2"), ("x*y^2", "a0+-a1"),
    ])
    def test_number_literals_keep_parsing(self, capsys, monomial, phi):
        code, data = run_json(capsys, "radical", monomial, f"--phi={phi}")
        assert code == 0 and "error" not in data


    @pytest.mark.parametrize("command", ["decompose", "points", "diagnose", "normalize"])
    def test_phi_past_float_range_is_a_failure(self, capsys, command):
        # radical certifies this phi exactly; the float stage names the entry it cannot hold
        code, data = run_json(capsys, command, "x^2*y^2", "--phi", "1e400", "--seed", "0")
        assert code == 1
        assert data["error"] == ("eigenvalue stage: entry of M_1 at row 0, column 2 "
                                 "is outside float range")

    @pytest.mark.parametrize("phi", ["1e400", "1e-400"])
    def test_normalize_takes_the_log_of_a_rational(self, capsys, phi):
        code, data = run_json(capsys, "normalize", "x^2*y^2", "--phi", phi)
        assert code == 0
        lam = [complex(v["re"], v["im"]) for v in data["lambda"]]
        assert abs(lam[0] ** 2 * lam[1] ** 2 - 1) < 1e-10

    @pytest.mark.parametrize("phis, lam", [(["1e100000"], 0), (["1e2000", "1"], 1)])
    def test_torus_element_past_float_range_is_a_failure(self, capsys, phis, lam):
        monomial = "*".join(v + "^2" for v in "xyz"[: len(phis) + 1])
        code, data = run_json(capsys, "normalize", monomial, *(f"--phi={p}" for p in phis))
        assert code == 1
        assert data["error"].startswith(f"lambda_{lam}, from ")
        assert "outside float range" in data["error"]


class TestParserReuse:
    ARGVS = [
        ["radical", "x*y^2*z^3", "--phi", "a2", "--phi", "a1^2"],
        ["ideal", "x*y^2*z^3", "--phi", "a0+a2", "--phi", "-5*a1^2", "--member", "a1^3"],
        ["radical", "x^2*y^2*z^2", "--phi", "1", "--phi", "0"],
        ["decompose", "x*y*z^2", "--phi", "1", "--phi", "a1+a2", "--seed", "2"],
        ["radical", "x^2*y^2*z^2"],
        ["diagnose", "x*y*z", "--t-max", "2"],
        ["hilbert", "x*y"],
        ["radical", "x*y^2*z^3", "--phi", "a2"],
    ]

    def test_one_parser_serves_every_call(self, capsys, monkeypatch):
        built = []
        original = cli.build_parser
        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or original())
        reused = [run(capsys, *argv) for argv in self.ARGVS]
        assert len(built) == 1
        fresh = []
        for argv in self.ARGVS:
            cli._parser = None
            fresh.append(run(capsys, *argv))
        assert len(built) == 1 + len(self.ARGVS)
        # no --phi value (an append action) leaks from one call into the next
        assert reused == fresh
        assert reused[-1][0] == 2 and "expected 2 phi entries, got 1" in reused[-1][1]


class TestMalformedJson:
    @pytest.mark.parametrize("payload, field", [
        ({}, "'summands'"),
        ({"summands": 3}, "'summands'"),
        ([], "object"),
        ({"summands": [{"coeff": "1"}], "degree": 2, "domain": "complex-float"}, "'form'"),
        ({"summands": [], "domain": "complex-float"}, "'degree'"),
        ({"summands": [{"coeff": {"re": 10**400}, "form": ["1", "1"]}], "degree": 2,
          "domain": "complex-float"}, "'re' is beyond float range"),
        ({"summands": [{"coeff": " 1/4", "form": ["1", "1"]}], "degree": 2,
          "domain": "exact-cyclotomic"}, "' 1/4' is not an integer or a ratio"),
        ({"summands": [{"coeff": {"conductor": 3, "coeffs": ["1e-3", "1"]}, "form": ["1", "1"]}],
          "degree": 2, "domain": "exact-cyclotomic"}, "cyclotomic coefficient '1e-3'"),
        ({"summands": [{"coeff": "1/4", "form": ["1", "1"]},
                       {"coeff": "-1/4", "form": ["1", "-1"]}],
          "degree": 2, "domain": "weird"}, "unknown decomposition domain 'weird'"),
        ({"summands": [], "degree": 2, "domain": "exact_cyclotomic"},
         "unknown decomposition domain 'exact_cyclotomic', expected 'exact-cyclotomic' or "
         "'complex-float'"),
    ])
    def test_verify_input_of_the_wrong_shape(self, capsys, tmp_path, payload, field):
        path = tmp_path / "dec.json"
        path.write_text(json.dumps(payload))
        code, data = run_json(capsys, "verify", "x*y", "--input", str(path))
        assert code == 2 and field in data["error"]

    def test_huge_conductor_is_refused_at_once(self, capsys, tmp_path):
        # one coefficient cannot fill phi(200000) = 80000 slots; Phi_200000 is never built
        payload = {"summands": [{"coeff": {"conductor": 200000, "coeffs": ["1"]},
                                 "form": ["1", "1"]}], "degree": 2, "domain": "exact-cyclotomic"}
        path = tmp_path / "dec.json"
        path.write_text(json.dumps(payload))
        start = time.perf_counter()
        code, data = run_json(capsys, "verify", "x*y", "--input", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert data == {"error": "cyclotomic scalar of conductor 200000 needs phi(200000) "
                                 "coefficients, got 1"}

    @pytest.mark.parametrize("conductor, phi_m", [(3, 2), (12, 4), (56, 24)])
    @pytest.mark.parametrize("extra", [-1, 1])
    def test_cyclotomic_record_of_the_wrong_length(self, capsys, tmp_path, conductor, phi_m,
                                                   extra):
        # no longer padded with zeros (too few) or reduced mod Phi_m (too many)
        coeffs = (["0", "1"] + ["0"] * phi_m)[:phi_m + extra]
        payload = {"points": [["1", {"conductor": conductor, "coeffs": coeffs}]]}
        path = tmp_path / "points.json"
        path.write_text(json.dumps(payload))
        code, data = run_json(capsys, "fit-phi", "x*y", "--points", str(path))
        assert code == 2
        assert data["error"] == (f"cyclotomic scalar of conductor {conductor} needs "
                                 f"phi({conductor}) coefficients, got {phi_m + extra}")

    @pytest.mark.parametrize("payload, field", [
        ({}, "'points'"),
        ({"summands": 3}, "'points'"),
        ([], "object"),
        ({"points": 3}, "'points'"),
        ({"points": [3]}, "point"),
        ({"points": [[{"re": "1"}]]}, "'re'"),
        ({"points": [["1/0"]]}, "zero denominator"),
        ({"points": [[{"re": 10**400, "im": 0}]]}, "'re' is beyond float range"),
        ({"points": [["1_000"]]}, "'1_000' is not an integer or a ratio"),
        ({"points": [["0.5"]]}, "'0.5' is not an integer or a ratio"),
    ])
    def test_fit_phi_points_of_the_wrong_shape(self, capsys, tmp_path, payload, field):
        path = tmp_path / "points.json"
        path.write_text(json.dumps(payload))
        code, data = run_json(capsys, "fit-phi", "x*y", "--points", str(path))
        assert code == 2 and field in data["error"]

    @pytest.mark.parametrize("points, count", [([["1"], ["1", "-1"]], 1),
                                               ([[], ["1", "-1"]], 0),
                                               ([["1", "1", "5"], ["1", "-1", "7"]], 3)])
    def test_fit_phi_point_of_the_wrong_length(self, capsys, tmp_path, points, count):
        path = tmp_path / "points.json"
        path.write_text(json.dumps({"points": points}))
        code, data = run_json(capsys, "fit-phi", "x*y", "--points", str(path))
        assert code == 2
        assert data == {"error": f"point 0: expected 2 coordinates, got {count}"}

    @pytest.mark.parametrize("monomial, points, code, error", [
        ("x*y", [["1"]] * 1, 2, "expected 2 points, got 1"),
        ("x*y^2", [["1", "1"], ["1", "2"]], 2, "expected 3 points, got 2"),
        ("x*y", [["1", "1"], ["1", "2"]], 1, "no phi fits these points; not a power-sum "
                                             "configuration"),
        ("x*y^2", [["1", "1"]] * 3, 1, "phi fit is not unique; degenerate point configuration"),
    ])
    def test_fit_phi_wrong_point_count_is_bad_input(self, capsys, tmp_path, monomial, points,
                                                    code, error):
        # the shape of the points is input (exit 2); no fit or many is a math failure (exit 1)
        path = tmp_path / "points.json"
        path.write_text(json.dumps({"points": points}))
        assert run_json(capsys, "fit-phi", monomial, "--points", str(path)) == (code,
                                                                               {"error": error})

    @pytest.mark.parametrize("command, option", [("fit-phi", "--points"), ("verify", "--input")])
    def test_deeply_nested_json_is_a_usage_error(self, capsys, monkeypatch, command, option):
        monkeypatch.setattr(sys, "stdin", io.StringIO("[" * 100000 + "]" * 100000))
        code, data = run_json(capsys, command, "x*y", option, "-")
        assert code == 2
        assert data["error"].startswith("cannot read JSON from standard input: maximum recursion")

    @pytest.mark.parametrize("command, option", [("fit-phi", "--points"), ("verify", "--input")])
    def test_unreadable_json_names_the_path(self, capsys, tmp_path, command, option):
        path = tmp_path / "empty.json"
        path.write_text("")
        code, data = run_json(capsys, command, "x*y", option, str(path))
        assert code == 2
        assert data["error"] == f"cannot read JSON from {path}: Expecting value: line 1 column 1 (char 0)"


class TestRefusedOptions:
    @pytest.mark.parametrize("options, named", [
        (["--phi", "5"], "--phi"),
        (["--seed", "3"], "--seed"),
        (["--tol", "1e-3"], "--tol"),
        (["--phi", "1", "--seed", "0", "--tol", "1e-8"], "--phi, --seed, --tol"),
    ])
    def test_exact_decompose_refuses_what_it_would_ignore(self, capsys, options, named):
        code, data = run_json(capsys, "decompose", "x*y", "--exact", *options)
        assert code == 2
        assert data["error"].startswith(f"decompose --exact takes no {named}:")

    def test_exact_decompose_ignores_the_seed_variable(self, capsys, monkeypatch):
        # the variable is not an option given on the command line: --exact still runs
        monkeypatch.delenv("WARING_SEED", raising=False)
        plain = run(capsys, "decompose", "x*y", "--exact")
        monkeypatch.setenv("WARING_SEED", "4")
        assert run(capsys, "decompose", "x*y", "--exact") == plain and plain[0] == 0

    def test_verify_refuses_tol_on_an_exact_file(self, capsys, tmp_path):
        path = tmp_path / "dec.json"
        path.write_text(run(capsys, "decompose", "x*y", "--exact")[1])
        assert run_json(capsys, "verify", "x*y", "--input", str(path))[0] == 0
        code, data = run_json(capsys, "verify", "x*y", "--input", str(path), "--tol", "1e-3")
        assert code == 2
        assert data["error"].startswith("verify takes no --tol on an exact-cyclotomic")

    def test_verify_reads_tol_on_a_float_file(self, capsys, tmp_path):
        code, out = run(capsys, "decompose", "x*y", "--seed", "0")
        payload = json.loads(out)
        assert code == 0 and payload["domain"] == "complex-float"
        payload["summands"][0]["coeff"]["re"] += 1e-6  # off by 1e-6 in one coefficient
        path = tmp_path / "dec.json"
        path.write_text(json.dumps(payload))
        code, data = run_json(capsys, "verify", "x*y", "--input", str(path))
        assert code == 1 and "max coefficient error" in data["error"]
        code, data = run_json(capsys, "verify", "x*y", "--input", str(path), "--tol", "1e-3")
        assert code == 0 and 1e-7 < data["max_error"] < 1e-5

    def test_tol_zero_accepts_an_exact_fit(self, capsys, tmp_path):
        code, out = run(capsys, "decompose", "x*y", "--seed", "0", "--tol", "0")
        payload = json.loads(out)
        assert code == 0 and payload["residual"] == 0.0
        path = tmp_path / "dec.json"
        path.write_text(out)
        code, data = run_json(capsys, "verify", "x*y", "--input", str(path), "--tol", "0")
        assert code == 0 and data["max_error"] == 0.0
        payload["summands"][0]["coeff"]["re"] += 1e-6  # off by 1e-6 in one coefficient
        path.write_text(json.dumps(payload))
        code, data = run_json(capsys, "verify", "x*y", "--input", str(path), "--tol", "0")
        assert code == 1 and "max coefficient error" in data["error"]

    def test_normalize_tol_needs_a_seed(self, capsys, monkeypatch):
        monkeypatch.delenv("WARING_SEED", raising=False)
        argv = ["normalize", "x^2*y^2", "--phi", "2"]
        code, data = run_json(capsys, *argv, "--tol", "1e-3")
        assert code == 2 and "--tol" in data["error"] and "--seed" in data["error"]
        assert run_json(capsys, *argv, "--tol", "1e-3", "--seed", "0")[0] == 0
        monkeypatch.setenv("WARING_SEED", "0")
        assert run(capsys, *argv, "--tol", "1e-8") == run(capsys, *argv, "--seed", "0")

    @pytest.mark.parametrize("argv, error", [
        (["rank", "x*y", "--seed", "3"], "waring: unrecognized arguments: --seed 3"),
        (["rank"], "waring rank: the following arguments are required: monomial"),
        ([], "waring: the following arguments are required: command"),
        (["verify", "x*y"], "waring verify: the following arguments are required: --input"),
        (["--format", "xml", "rank", "x"], "waring: argument --format: invalid choice: 'xml' "
                                           "(choose from 'json', 'text')"),
        (["frobnicate"], "waring: argument command: invalid choice: 'frobnicate'"),
    ])
    def test_parser_errors_are_json(self, capsys, argv, error):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.err == ""
        assert json.loads(captured.out)["error"].startswith(error)


def test_closed_pipe_ends_quietly():
    # the reading end is closed before the command writes: every write meets a closed pipe
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    try:
        done = subprocess.run([sys.executable, "-m", "waring.cli", "hilbert", "x^3*y^4*z^5",
                               "--t-max", "40"], stdout=write, stderr=subprocess.PIPE, env=env,
                              timeout=60)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (141, b"")


class TestTMax:
    @pytest.mark.parametrize("argv", [
        ["hilbert", "x*y*z"],
        ["diagnose", "x*y"],
        ["diagnose", "x*y", "--seed", "1"],
    ])
    def test_negative_t_max_is_usage_error(self, capsys, argv):
        code, data = run_json(capsys, *argv, "--t-max", "-3")
        assert code == 2 and "--t-max" in data["error"]

    def test_zero_t_max_is_one_row(self, capsys):
        code, data = run_json(capsys, "diagnose", "x*y", "--t-max", "0")
        assert code == 0 and [row["t"] for row in data["table"]] == [0]
        code, data = run_json(capsys, "hilbert", "x*y", "--t-max", "0")
        assert code == 0 and data["hilbert_S_mod_J"] == {"0": 1}


# a file a row reads, by its placeholder: the argv that writes it
INPUT_FILES = {
    "{exact}": ["decompose", "x^2*y^3*z^3*w^3", "--exact"],
    "{float}": ["decompose", "x*y*z^2*w^3", "--seed", "0"],
    "{points}": ["points", "x*y^2", "--phi", "a0 + 2*a1", "--seed", "0"],
}


@pytest.mark.parametrize("argv, forbidden", [
    (["decompose", "x^2*y^3*z^3*w^3", "--exact"], "numpy"),
    (["radical", "x*y^2*z^3", "--phi", "a2", "--phi", "a1^2"], "numpy"),
    # r = 64, every phi_i dense in (a1..a3)^2: trace rank 57, so the kernel is lifted
    (["radical", "x*y^3*z^3*w^3",
      "--phi=3*a1^2-2*a1*a2+5*a1*a3-a2^2+4*a2*a3-7*a3^2",
      "--phi=-a1^2+6*a1*a2-3*a1*a3+2*a2^2-5*a2*a3+a3^2",
      "--phi=2*a1^2+a1*a2-4*a1*a3-6*a2^2+3*a2*a3+9*a3^2"], "numpy"),
    # the explicit phi is binomial: its trace rank is r by separability, with no M_J built
    (["radical", "x*y^3*z^3*w^3"], "numpy"),
    (["rank", "x*y^2*z^3"], "numpy"),
    (["ideal", "x*y^2*z^3", "--phi", "a2", "--phi", "a1^2", "--member", "a1^3"], "numpy"),
    (["ideal", "x*y^2*z^3", "--phi", "a2", "--phi", "a1^2", "--canonicalize"], "numpy"),
    # the verify half of the exact benchmark round
    (["verify", "x^2*y^3*z^3*w^3", "--input", "{exact}"], "numpy"),
    # the float commands load numpy but not numpy.random: the eigenvalue stage draws its
    # combination weights from the stdlib random (the first four from a non-binomial phi)
    (["decompose", "x*y*z^2*w^3", "--seed", "0"], "numpy.random"),
    (["sample", "x*y*z^2*w^3", "--count", "2", "--seed", "0"], "numpy.random"),
    (["points", "x*y^2", "--phi", "a0 + 2*a1", "--seed", "0"], "numpy.random"),
    (["diagnose", "x*y*z^2", "--seed", "0"], "numpy.random"),
    (["normalize", "x^2*y^2", "--phi", "2", "--seed", "0"], "numpy.random"),
    (["fit-phi", "x*y^2", "--points", "{points}"], "numpy.random"),
    (["verify", "x*y*z^2*w^3", "--input", "{float}"], "numpy.random"),
])
def test_commands_do_not_import_their_forbidden_module(capsys, tmp_path, argv, forbidden):
    for placeholder, writer in INPUT_FILES.items():
        if placeholder in argv:
            path = tmp_path / "input.json"
            path.write_text(run(capsys, *writer)[1])
            argv = [str(path) if arg == placeholder else arg for arg in argv]
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "import waring.cli\n"
        f"print({forbidden!r} in sys.modules)\n"
        f"code = waring.cli.main({argv!r})\n"
        f"print({forbidden!r} in sys.modules, code, file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.splitlines()[0] == "False"
    assert done.stderr.split() == ["False", "0"]


class TestOptionContract:
    """Every option counts: with it and without it, stdout differs.

    The pairs come from ``build_parser()``, so a new option without a case here
    fails ``test_every_option_has_a_case``.  A refusal (exit 2 with a JSON
    error) on one side counts as a difference; a refusal on both sides shows
    nothing.  "{float}" and "{points}" are files written by ``decompose`` and
    ``points`` of x*y^2 at seed 0.
    """

    # (command, option) -> (argv without the option, argv with it)
    CASES = {
        (None, "--format"): (["rank", "x*y"], ["--format", "text", "rank", "x*y"]),
        ("decompose", "--phi"): (["decompose", "x*y^2", "--seed", "0"],
                                 ["decompose", "x*y^2", "--seed", "0", "--phi", "a0 + 2*a1"]),
        ("decompose", "--seed"): (["decompose", "x*y^2"], ["decompose", "x*y^2", "--seed", "0"]),
        ("decompose", "--tol"): (["decompose", "x*y^2", "--seed", "0"],
                                 ["decompose", "x*y^2", "--seed", "0", "--tol", "1e-30"]),
        # the seed variable alone makes decompose sample a phi; --exact keeps the explicit one
        ("decompose", "--exact"): (["decompose", "x*y^2"], ["decompose", "x*y^2", "--exact"]),
        ("verify", "--tol"): (["verify", "x*y^2", "--input", "{float}"],
                              ["verify", "x*y^2", "--input", "{float}", "--tol", "1e-30"]),
        ("verify", "--input"): (["verify", "x*y^2"], ["verify", "x*y^2", "--input", "{float}"]),
        ("hilbert", "--t-max"): (["hilbert", "x*y"], ["hilbert", "x*y", "--t-max", "1"]),
        ("ideal", "--phi"): (["ideal", "x*y^2"], ["ideal", "x*y^2", "--phi", "a1"]),
        ("ideal", "--canonicalize"): (
            ["ideal", "1,1,5", "--phi", "2", "--phi", "a1^2*a2^2"],
            ["ideal", "1,1,5", "--phi", "2", "--phi", "a1^2*a2^2", "--canonicalize"]),
        ("ideal", "--member"): (["ideal", "x*y^2"], ["ideal", "x*y^2", "--member", "a1^3"]),
        ("radical", "--phi"): (["radical", "x*y^2"], ["radical", "x*y^2", "--phi", "1/2*a0 + a1"]),
        ("points", "--phi"): (["points", "x*y^2", "--seed", "0"],
                              ["points", "x*y^2", "--seed", "0", "--phi", "a0 + 2*a1"]),
        ("points", "--seed"): (["points", "x*y^2"], ["points", "x*y^2", "--seed", "0"]),
        # --tol 10 crowds every point of x*y^2 into the first
        ("points", "--tol"): (["points", "x*y^2", "--seed", "0"],
                              ["points", "x*y^2", "--seed", "0", "--tol", "10"]),
        ("fit-phi", "--points"): (["fit-phi", "x*y^2"],
                                  ["fit-phi", "x*y^2", "--points", "{points}"]),
        ("normalize", "--phi"): (["normalize", "x^2*y^2"], ["normalize", "x^2*y^2", "--phi", "2"]),
        ("normalize", "--seed"): (["normalize", "x^2*y^2", "--phi", "2"],
                                  ["normalize", "x^2*y^2", "--phi", "2", "--seed", "0"]),
        ("normalize", "--tol"): (["normalize", "x^2*y^2", "--phi", "2", "--seed", "0"],
                                 ["normalize", "x^2*y^2", "--phi", "2", "--seed", "0",
                                  "--tol", "10"]),
        ("sample", "--seed"): (["sample", "x*y^2"], ["sample", "x*y^2", "--seed", "0"]),
        ("sample", "--tol"): (["sample", "x*y^2", "--seed", "0"],
                              ["sample", "x*y^2", "--seed", "0", "--tol", "1e-30"]),
        ("sample", "--count"): (["sample", "x*y^2", "--seed", "0"],
                                ["sample", "x*y^2", "--seed", "0", "--count", "2"]),
        ("diagnose", "--phi"): (["diagnose", "x*y^2"], ["diagnose", "x*y^2", "--phi", "3*a0 + a1"]),
        ("diagnose", "--seed"): (["diagnose", "x*y^2"], ["diagnose", "x*y^2", "--seed", "1"]),
        ("diagnose", "--tol"): (["diagnose", "x*y^2", "--seed", "0"],
                                ["diagnose", "x*y^2", "--seed", "0", "--tol", "10"]),
        ("diagnose", "--t-max"): (["diagnose", "x*y^2"], ["diagnose", "x*y^2", "--t-max", "1"]),
    }
    ENV = {("decompose", "--exact"): "0"}  # WARING_SEED for the case; unset for the others

    @staticmethod
    def parser_options():
        def options(parser):
            return [a.option_strings[0] for a in parser._actions
                    if a.option_strings and not isinstance(a, argparse._HelpAction)]

        parser = cli.build_parser()
        pairs = {(None, option) for option in options(parser)}
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        pairs |= {(name, option) for name, sub in commands.items() for option in options(sub)}
        return pairs

    @staticmethod
    def write_files(capsys, tmp_path) -> dict:
        files = {"float": tmp_path / "float.json", "points": tmp_path / "points.json"}
        files["float"].write_text(run(capsys, "decompose", "x*y^2", "--seed", "0")[1])
        files["points"].write_text(run(capsys, "points", "x*y^2", "--seed", "0")[1])
        return files

    def test_every_option_has_a_case(self):
        assert self.parser_options() == set(self.CASES)

    @pytest.mark.parametrize("pair", sorted(CASES, key=str))
    def test_the_option_changes_stdout(self, capsys, tmp_path, monkeypatch, pair):
        monkeypatch.delenv("WARING_SEED", raising=False)
        files = self.write_files(capsys, tmp_path)
        if pair in self.ENV:
            monkeypatch.setenv("WARING_SEED", self.ENV[pair])
        without, with_ = ([arg.format(**files) for arg in argv] for argv in self.CASES[pair])
        (code_without, out_without), (code_with, out_with) = run(capsys, *without), run(
            capsys, *with_)
        assert out_with != out_without
        assert (code_with, code_without) != (2, 2)  # refused both ways: the option shows nothing
        for code, out in ((code_without, out_without), (code_with, out_with)):
            assert code == 0 or (code in (1, 2) and set(json.loads(out)) == {"error"})

    def test_main_parses_the_monomial_once(self, capsys, tmp_path, monkeypatch):
        # every command, through every case: one parse per call that reaches the command
        monkeypatch.delenv("WARING_SEED", raising=False)
        files = self.write_files(capsys, tmp_path)
        seen = []
        parse = MonomialSpec.parse
        monkeypatch.setattr(MonomialSpec, "parse",
                            staticmethod(lambda text: seen.append(text) or parse(text)))
        commands = set()
        optionless = [["bounds", "x*y"], ["vsp-dim", "x*y"]]
        for argv in [argv for pair in self.CASES.values() for argv in pair] + optionless:
            seen.clear()
            code, _ = run(capsys, *(arg.format(**files) for arg in argv))
            if code != 2:
                assert len(seen) == 1 and seen[0] in argv, (argv, seen)
                commands.add(argv[argv.index(seen[0]) - 1])
        assert len(commands) == 13  # every subcommand of build_parser

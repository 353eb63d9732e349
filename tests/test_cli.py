import json
import os
import re
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from waring import cli
from waring.cli import main


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


class TestPointsFitNormalize:
    def test_points_then_fit_phi(self, capsys, tmp_path):
        code, out = run(capsys, "points", "x*y*z^2", "--seed", "3")
        assert code == 0
        path = tmp_path / "points.json"
        path.write_text(out)
        code, data = run_json(capsys, "fit-phi", "x*y*z^2", "--points", str(path))
        assert code == 0
        assert data["phi"]["canonical"] is True

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
            assert data["residual"] == 0.0
        if command == "points":
            assert sorted(p[1]["re"] for p in data["points"]) == pytest.approx([-1e-150, 1e-150])

    def test_fit_phi_past_float_range_names_the_point(self, capsys, tmp_path):
        path = tmp_path / "points.json"
        path.write_text(json.dumps({"points": [[{"re": 1.0}, {"re": 1e308}],
                                               [{"re": 1.0}, {"re": -1e308}]]}))
        code, data = run_json(capsys, "fit-phi", "x*y", "--points", str(path))
        assert code == 1
        assert data["error"].startswith("point 0 is outside float range")


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
        # one rank per row for hilbert_points, one per row t >= 1 for q_t
        assert code == 0 and len(ranks) == 13
        monkeypatch.setattr(vsp, "rank", real_rank)
        assert [row["dim_I_t"] for row in data["table"]] == [
            comb(t + 2, 2) - vsp.point_ideal_hilbert(extracted[0], t) for t in range(7)
        ]

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_sample_count_below_one_is_usage_error(self, capsys, count):
        code, data = run_json(capsys, "sample", "x*y*z", "--seed", "0", "--count", count)
        assert code == 2 and "--count" in data["error"]


class TestDeterminismAndErrors:
    def test_identical_invocations_identical_bytes(self, capsys):
        _, first = run(capsys, "decompose", "x*y*z^2", "--seed", "9")
        _, second = run(capsys, "decompose", "x*y*z^2", "--seed", "9")
        assert first == second

    def test_output_round_trips_through_the_schema(self, capsys):
        from waring.serialize import decomposition_from_json, decomposition_to_json

        for argv in (["decompose", "x*y*z^2", "--exact"],
                     ["decompose", "x*y*z^2", "--seed", "2"]):
            _, out = run(capsys, *argv)
            data = json.loads(out)
            data.pop("monomial")
            reparsed = decomposition_to_json(decomposition_from_json(data))
            assert json.dumps(reparsed, sort_keys=True) == json.dumps(data, sort_keys=True)

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
    ])
    def test_malformed_number_is_usage_error(self, capsys, argv, message):
        code, data = run_json(capsys, *argv)
        assert code == 2 and message in data["error"]

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
    ])
    def test_verify_input_of_the_wrong_shape(self, capsys, tmp_path, payload, field):
        path = tmp_path / "dec.json"
        path.write_text(json.dumps(payload))
        code, data = run_json(capsys, "verify", "x*y", "--input", str(path))
        assert code == 2 and field in data["error"]

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

    @pytest.mark.parametrize("command, option", [("fit-phi", "--points"), ("verify", "--input")])
    def test_unreadable_json_names_the_path(self, capsys, tmp_path, command, option):
        path = tmp_path / "empty.json"
        path.write_text("")
        code, data = run_json(capsys, command, "x*y", option, str(path))
        assert code == 2
        assert data["error"] == f"cannot read JSON from {path}: Expecting value: line 1 column 1 (char 0)"


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


@pytest.mark.parametrize("argv", [
    ["decompose", "x^2*y^3*z^3*w^3", "--exact"],
    ["radical", "x*y^2*z^3", "--phi", "a2", "--phi", "a1^2"],
    ["rank", "x*y^2*z^3"],
])
def test_exact_commands_do_not_import_numpy(argv):
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "import waring.cli\n"
        "print('numpy' in sys.modules)\n"
        f"code = waring.cli.main({argv!r})\n"
        "print('numpy' in sys.modules, code, file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.splitlines()[0] == "False"
    assert done.stderr.split() == ["False", "0"]

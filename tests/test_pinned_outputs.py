"""The exact commands print the same bytes on every machine: their digests are pinned.

Each case fixes the exit code and the SHA-256 of stdout.  Only commands whose
answer is exact are pinned; the float commands' bits depend on LAPACK.  A
change to the JSON schema or to an exact answer shows up here, and its digest
is updated in the same change that names it.
"""

import hashlib

import pytest

from waring.cli import main

# name: (argv, exit code, SHA-256 of stdout)
PINNED = {
    "rank": (["rank", "x*y^2*z^3"], 0,
             "5ec1f186eeed9a0bed7aba02ddfca6526626fca414a6c6bd64884e24ce3f712e"),
    "bounds": (["bounds", "x*y^2*z^3"], 0,
               "e442659f2b5b8c21fea4f34d58c76c458bbc40c22d282cef1147825f007ade8a"),
    "hilbert": (["hilbert", "x^2*y^2*z^2"], 0,
                "3c4ce641db5fcb261b0c57257d7c1590a6cb8f032729a2f9f9b19db3cd10a2e9"),
    "vsp-dim": (["vsp-dim", "x^2*y^3*z^4"], 0,
                "e5aee72b58bc51007669c4ffa2d64ddca684353030f6f4e1af18f6b0a693a7e8"),
    "decompose-exact": (["decompose", "x*y^2*z^3", "--exact"], 0,
                        "7ae4bf5f9839435c0a326e21504bfa950620d4202137a2d75eea7539b2261ab5"),
    "ideal-member": (["ideal", "x*y^2*z^3", "--phi", "a2", "--phi", "a1^2",
                      "--member", "a0^4*a1 - a1^2*a2^3"], 0,
                     "fc8a8cce5bc2108c92c05d2f244449ceff7cc741e86e0aff035fe788ad7cb00d"),
    "ideal-canonicalize": (["ideal", "1,1,5", "--phi", "2", "--phi", "a1^2*a2^2",
                            "--canonicalize"], 0,
                           "e295bd47ee43b3cdbc7f0b3ce37ab172ad25d3871f99d8ae0a1ce2b12403e0a9"),
    "radical-integer": (["radical", "x*y^2*z^3", "--phi=4*a0 + 5*a1 - 8*a2",
                         "--phi=-a0^2 + 8*a0*a1 + 7*a1^2 + 4*a0*a2 + a1*a2 + 7*a2^2"], 0,
                        "9ac4a99bf03af0a6a70f2edc03eafe4d150b4de9c7d8079073205e2f14e7975c"),
    "radical-rational": (["radical", "x*y^2*z^3", "--phi=4/35*a0 + 5/6*a1 - 8*a2",
                          "--phi=-1/6*a0^2 + 8/35*a0*a1 + 7*a1^2 + 4*a0*a2 + a1*a2 + 7/6*a2^2"],
                         0, "f1b38d353c2afec81ab4dffe01f5063625ff3763a3a082e2e21e62bacf7e517b"),
    "radical-zero-entry": (["radical", "x*y^3*z^3", "--phi=0", "--phi=a1^2"], 0,
                           "f61d0650e80a235dd00cfc61db96cfd549d3c36b32a081700f4d2431c752bc89"),
    "radical-dense-deficient": (["radical", "x*y^3*z^3", "--phi=4*a1^2 + a1*a2 + 5*a2^2",
                                 "--phi=a1^2 + a1*a2 + 6*a2^2"], 0,
                                "b0a590cac0c9240c52a88e328fe8b7bb8796d867a0e97055cf74bb9b37d92636"),
    "fail-normalize-unequal": (["normalize", "x*y^2*z^3", "--phi", "a2", "--phi", "a1^2"], 1,
                               "4ceebab236aa30f318374f2fd2a99f0173b69bffca73e30ab2521f06e2f65592"),
    "fail-points-non-radical": (["points", "x*y^2*z^3", "--phi", "a2", "--phi", "a1^2",
                                 "--seed", "0"], 1,
                                "4b00c8315e4ea1723171e083df48dffd46a66349126722237cd3cf2d6243aa81"),
    "usage-bad-monomial": (["rank", "2*x*y"], 2,
                           "56bbb7b0763ca219e70dde3d77dbab3adf68a5e01c6617f3af662ba42413cb6f"),
    "usage-phi-count": (["radical", "x*y^2*z^3", "--phi", "a2"], 2,
                        "5702280c29695606cccfdc09f1e27e20b4aa3a968a7d4acfde812bd58364bf3c"),
}

# verify of the "decompose-exact" output
VERIFY_DIGEST = "1d5e32af25736683b5070654b33d7d0a34fc16b7c041e3ea0b49a28fa215d882"


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_exact_command_output_is_pinned(capsys, name):
    argv, code, digest = PINNED[name]
    got_code, out, got_digest = _run(capsys, argv)
    assert (got_code, got_digest) == (code, digest), out


def test_verify_of_the_exact_decomposition_is_pinned(capsys, tmp_path):
    argv, _, _ = PINNED["decompose-exact"]
    path = tmp_path / "dec.json"
    path.write_text(_run(capsys, argv)[1])
    monomial = argv[1]
    assert _run(capsys, ["verify", monomial, "--input", str(path)])[::2] == (0, VERIFY_DIGEST)

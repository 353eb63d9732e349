"""The exact commands print the same bytes on every machine: their digests are pinned.

Each case fixes the exit code and the SHA-256 of stdout.  A change to the
JSON schema or to an exact answer shows up here, and its digest is updated in
the same change that names it.

The float commands' last bits depend on LAPACK and on the order of the
arithmetic, so ``FLOAT_PINS`` fixes their values instead, to a relative 1e-10:
each number is compared against the largest magnitude in its group (all
summand coefficients, one form, one point).  Counts, order and flags must
match exactly.  The residuals are rounding errors, so they are only held
below 1e-10.
"""

import hashlib
import json

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
    # m = 56, r = 56: the heaviest op of the exact benchmark round
    "decompose-exact-m56": (["decompose", "x^3*y^6*z^7", "--exact"], 0,
                            "a979fa6e3a1acac954e681e64b9922039fd41112f3388ab173907b510e5f6410"),
    # the other eight monomials of the exact benchmark round
    "decompose-exact-m4": (["decompose", "x^2*y^3*z^3*w^3", "--exact"], 0,
                           "724b9c2d1c9a8d892bb408f78d2636efd4715f013b857c7d47586118f3a0f887"),
    "decompose-exact-m24": (["decompose", "x*y^3*z^5", "--exact"], 0,
                            "1e86c53bb93c503315eff85759338fa5128e049fc2c6561c8d31c7e9812e2c03"),
    "decompose-exact-m12": (["decompose", "x*y^2*z^3*w^3", "--exact"], 0,
                            "690feaaf79d2b77dc492f28a5edaf50ed358442fadd72cd2c7402f85794c0bbd"),
    "decompose-exact-m32": (["decompose", "x*y^3*z^7", "--exact"], 0,
                            "1aba37b7db0c357bfb2a0c9f26fb4a80eeccf7a18bbf8262b323acc6f81ec6a1"),
    "decompose-exact-m30": (["decompose", "x^2*y^4*z^5", "--exact"], 0,
                            "dcfa45b8ac165c0e19b48b0dd91777bf7b30af9becbf7ef4effcc70e174f39ec"),
    "decompose-exact-m40": (["decompose", "x*y^3*z^9", "--exact"], 0,
                            "14761376e2a8283605d5f42ed279d9b4971b9cdbb6e2ee7abf87aa6bf14871f3"),
    "decompose-exact-m35": (["decompose", "x*y^4*z^6", "--exact"], 0,
                            "37d3d5f59d3879f89a50b094c31efcd40265f03b7a0df316a9390d259164017c"),
    "decompose-exact-m35-d12": (["decompose", "x^2*y^4*z^6", "--exact"], 0,
                                "1ec35e5d8a4b9e99e7d4d0489b81676f7aa583f9c7b0553cb644bc9bbc94de57"),
    "ideal-member": (["ideal", "x*y^2*z^3", "--phi", "a2", "--phi", "a1^2",
                      "--member", "a0^4*a1 - a1^2*a2^3"], 0,
                     "fc8a8cce5bc2108c92c05d2f244449ceff7cc741e86e0aff035fe788ad7cb00d"),
    "ideal-canonicalize": (["ideal", "1,1,5", "--phi", "2", "--phi", "a1^2*a2^2",
                            "--canonicalize"], 0,
                           "e295bd47ee43b3cdbc7f0b3ce37ab172ad25d3871f99d8ae0a1ce2b12403e0a9"),
    # a rational phi: its coefficients stay Fraction, and print as before
    "ideal-rational": (["ideal", "x*y^2*z^3", "--phi", "1/2*a1", "--phi", "a1^2 - 3/4*a0*a2",
                        "--member", "a1^3 - 1/2*a0^2*a1", "--canonicalize"], 0,
                       "453268af47e707596f83c12f1aed2aa301f9ec42a0b0685f01f78758d35adc22"),
    "radical-half": (["radical", "x*y^2", "--phi", "1/2*a1"], 0,
                     "e909c831add9b7e6f333cbaa669ed9f6ad98ebb9837e34d074183e74386cc361"),
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

# verify of the "decompose-exact" and "decompose-exact-m56" outputs
VERIFY_DIGEST = "1d5e32af25736683b5070654b33d7d0a34fc16b7c041e3ea0b49a28fa215d882"
VERIFY_M56_DIGEST = "2f9c86eef93ca9b8c78ba006537136fa7da0366d40aa9d9cc2c2f30cd50acf2d"
# verify of the "decompose-exact-m56" output without its last summand
VERIFY_M56_DROPPED_DIGEST = "19f112490c03131e1644fcc5d0a22b1361319b604494c01ff75d6b33ee5e8a13"
# verify of the other eight exact outputs
VERIFY_DIGESTS = {
    "decompose-exact-m4": "b597986bce4e49855f3cb56b51d5c5380b5f70adf41c97baa46b32b851dbaa2d",
    "decompose-exact-m24": "14e314f97bb6eb9860df9dbd47f050270dfdfc1ad1b1fc0fa2e389744ce35158",
    "decompose-exact-m12": "7cc6ae0545d9a2b289b3c4e9589170c9fd5bd52f22882f83516841ab315ac977",
    "decompose-exact-m32": "87c22dc7ab2e992a93f69c92c0f75e377837e709adc9f032817d63c7d26c7852",
    "decompose-exact-m30": "71e7b190d8c46238dc80e5ad4fdd9ff8da37ca5772f47dafa66dddbc1dacc98d",
    "decompose-exact-m40": "1ec352b5309d06f8e5bbced4fc121eb4905e292cabf5d79ad5094ef707c8a0b6",
    "decompose-exact-m35": "373f163e0f8edd9e2052dcebfc9c09923f7c801bb279c85e63ae5a6745251728",
    "decompose-exact-m35-d12": "e09682683c31f245859b3e78e9b0f7e9b7d4dd2b3b2c9f2ab978adffdde9499c",
}

# name: (file written by hand, verify's exit code, SHA-256 of its stdout), all for x*y
HAND_WRITTEN = {
    # x*y = 1/4 (x + y)^2 - 1/4 (x - y)^2: a negative coordinate and a denominator above 1
    "rational": ([("1/4", ["1", "1"]), ("-1/4", ["1", "-1"])], 0,
                 "c3407ec02d6e26665d86797b6ef7c00d006e543700519f2a2af5380c7b2b126d"),
    # one more summand, (1/2 + 1/3 z3)(x + y)^2, its record not in lowest terms: the
    # difference it leaves is printed in lowest terms
    "cyclotomic-unreduced": ([("1/4", ["1", "1"]), ("-1/4", ["1", "-1"]),
                              ({"conductor": 3, "coeffs": ["2/4", "1/3"]}, ["1", "1"])], 1,
                             "5d01483bb5f822cf66e63ff23c8627cdd486045aed0dff592c4733bf622810a5"),
}


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_exact_command_output_is_pinned(capsys, name):
    argv, code, digest = PINNED[name]
    got_code, out, got_digest = _run(capsys, argv)
    assert (got_code, got_digest) == (code, digest), out


def _verify_output(capsys, tmp_path, name):
    argv, _, _ = PINNED[name]
    path = tmp_path / "dec.json"
    path.write_text(_run(capsys, argv)[1])
    monomial = argv[1]
    return _run(capsys, ["verify", monomial, "--input", str(path)])[::2]


def test_verify_of_the_exact_decomposition_is_pinned(capsys, tmp_path):
    assert _verify_output(capsys, tmp_path, "decompose-exact") == (0, VERIFY_DIGEST)


def test_verify_of_the_heaviest_exact_decomposition_is_pinned(capsys, tmp_path):
    assert _verify_output(capsys, tmp_path, "decompose-exact-m56") == (0, VERIFY_M56_DIGEST)


@pytest.mark.parametrize("name", sorted(VERIFY_DIGESTS))
def test_verify_of_each_exact_benchmark_decomposition_is_pinned(capsys, tmp_path, name):
    assert _verify_output(capsys, tmp_path, name) == (0, VERIFY_DIGESTS[name])


@pytest.mark.parametrize("name", sorted(HAND_WRITTEN))
def test_verify_of_a_hand_written_decomposition_is_pinned(capsys, tmp_path, name):
    summands, code, digest = HAND_WRITTEN[name]
    path = tmp_path / "dec.json"
    path.write_text(json.dumps({"degree": 2, "domain": "exact-cyclotomic", "summands": [
        {"coeff": coeff, "form": form} for coeff, form in summands]}))
    assert _run(capsys, ["verify", "x*y", "--input", str(path)])[::2] == (code, digest)


def test_verify_of_a_dropped_summand_prints_the_pinned_difference(capsys, tmp_path):
    # the difference is read back from the residues mod Phi_56(2^b): every digit pinned
    data = json.loads(_run(capsys, PINNED["decompose-exact-m56"][0])[1])
    del data["summands"][-1]
    path = tmp_path / "dropped.json"
    path.write_text(json.dumps(data))
    assert _run(capsys, ["verify", "x^3*y^6*z^7", "--input", str(path)])[::2] == (
        1, VERIFY_M56_DROPPED_DIGEST)


# name: (argv, exit code, values); "coeffs", "forms" and "points" hold (re, im) pairs
FLOAT_PINS = {
    "decompose x*y^2": (
        ["decompose", "x*y^2", "--seed", "4"], 0,
        {"coeffs": [(0.05608095336161, 2.421241584579e-18), (-0.0280404766808, 0.07459177704404),
                    (-0.0280404766808, -0.07459177704404)],
         "forms": [[(1.0, 0.0), (-1.521379706805, 1.141695235898e-16)],
                   [(1.0, 0.0), (0.7606898534023, -0.8578736265952)],
                   [(1.0, 0.0), (0.7606898534023, 0.8578736265952)]]}),
    "decompose x*y^2*z^3": (
        ["decompose", "x*y^2*z^3", "--seed", "4"], 0,
        {"coeffs": [(-1.567626467287e-05, 6.533152788066e-06),
                    (-1.567626467287e-05, -6.533152788066e-06),
                    (-1.57871376299e-05, -1.132991581355e-05),
                    (-1.57871376299e-05, 1.132991581355e-05),
                    (0.0001924046406058, -1.499396594557e-19),
                    (5.591499783506e-07, 4.229179859394e-06),
                    (5.591499783507e-07, -4.229179859394e-06),
                    (-3.347697059492e-05, 8.073280994776e-05),
                    (-3.347697059492e-05, -8.073280994776e-05),
                    (-4.622691352599e-05, -2.119052526534e-19),
                    (-8.707640620592e-06, -1.028199263224e-05),
                    (-8.707640620592e-06, 1.028199263224e-05)],
         "forms": [[(1.0, 0.0), (-2.499395713831, -0.7979768069307),
                    (1.056613107407, 2.274788469502)],
                   [(1.0, 0.0), (-2.499395713831, 0.7979768069307),
                    (1.056613107407, -2.274788469502)],
                   [(1.0, 0.0), (-1.904650934238, -1.497253455466),
                    (-1.634085658314, 1.906831538631)],
                   [(1.0, 0.0), (-1.904650934238, 1.497253455466),
                    (-1.634085658314, -1.906831538631)],
                   [(1.0, 0.0), (-0.4455837034922, 1.59468579252e-16),
                    (-0.3928525599656, -1.678616623706e-17)],
                   [(1.0, 0.0), (0.1031791297608, -2.786631411504),
                    (0.08428931786969, -4.056117031568)],
                   [(1.0, 0.0), (0.1031791297608, 2.786631411504),
                    (0.0842893178697, 4.056117031568)],
                   [(1.0, 0.0), (1.257826075581, -1.249229499364),
                    (0.5260965816763, 0.4550953408044)],
                   [(1.0, 0.0), (1.257826075581, 1.249229499364),
                    (0.5260965816763, -0.4550953408044)],
                   [(1.0, 0.0), (2.16505003419, -7.549516955934e-16),
                    (-1.663915945264, 1.683738028479e-15)],
                   [(1.0, 0.0), (2.183308277378, -1.572530095935),
                    (0.9954709039759, 2.837802016204)],
                   [(1.0, 0.0), (2.183308277378, 1.572530095935),
                    (0.9954709039759, -2.837802016204)]]}),
    "decompose x*y*z^2*w": (
        ["decompose", "x*y*z^2*w", "--seed", "4"], 0,
        {"coeffs": [(-6.24357764008e-05, -0.0001984767945979),
                    (-7.116599124478e-05, 0.0001144141384451),
                    (0.0001336017676456, 8.406265615278e-05),
                    (0.0005261348235478, -9.772189618133e-05),
                    (-1.070129800714e-05, -0.0001792536093407),
                    (-0.0005154335255407, 0.000276975505522),
                    (-6.24357764008e-05, 0.0001984767945979),
                    (-7.116599124478e-05, -0.0001144141384451),
                    (0.0001336017676456, -8.406265615278e-05),
                    (0.0005261348235478, 9.772189618133e-05),
                    (-1.070129800714e-05, 0.0001792536093407),
                    (-0.0005154335255407, -0.000276975505522)],
         "forms": [[(1.0, 0.0), (-1.261412657987e-15, -1.414213562373),
                    (-1.73289862463, -0.4086792631062), (-1.0, -9.173910239908e-16)],
                   [(1.0, 0.0), (-6.875955223394e-15, -1.414213562373),
                    (0.6680366771902, 2.881335475992), (-1.0, 3.615192952506e-15)],
                   [(1.0, 0.0), (-6.739360283564e-16, -1.414213562373),
                    (1.06486194744, -2.472656212886), (-1.0, -2.503190962467e-15)],
                   [(1.0, 0.0), (-2.591113910784e-15, -1.414213562373),
                    (-0.5887220172733, -1.532447731205), (1.0, -7.522588773244e-16)],
                   [(1.0, 0.0), (-7.443218793124e-15, -1.414213562373),
                    (-0.06102977003505, 2.67015421599), (1.0, -1.646801967372e-15)],
                   [(1.0, 0.0), (-1.393489543405e-16, -1.414213562373),
                    (0.6497517873084, -1.137706484784), (1.0, 4.180468630216e-16)],
                   [(1.0, 0.0), (2.064129803979e-15, 1.414213562373),
                    (-1.73289862463, 0.4086792631062), (-1.0, 2.98152082797e-15)],
                   [(1.0, 0.0), (-7.797474995602e-16, 1.414213562373),
                    (0.6680366771902, -2.881335475992), (-1.0, 4.253168179419e-16)],
                   [(1.0, 0.0), (-1.347872056713e-15, 1.414213562373),
                    (1.06486194744, 2.472656212886), (-1.0, 8.664891793154e-16)],
                   [(1.0, 0.0), (-7.522588773244e-16, 1.414213562373),
                    (-0.5887220172733, 1.532447731205), (1.0, -1.671686394054e-16)],
                   [(1.0, 0.0), (-6.081753800296e-15, 1.414213562373),
                    (-0.06102977003505, -2.67015421599), (1.0, 4.076242493496e-17)],
                   [(1.0, 0.0), (-3.483723858513e-16, 1.414213562373),
                    (0.6497517873084, 1.137706484784), (1.0, -5.573958173621e-16)]]}),
    "points x*y^2": (
        ["points", "x*y^2", "--seed", "4"], 0,
        {"points": [[(1.0, 0.0), (-0.5, -0.8660254037844)], [(1.0, 0.0), (-0.5, 0.8660254037844)],
                    [(1.0, 0.0), (1.0, 1.628162398125e-32)]],
         "multiplicity_free": True}),
    "points x*y^2*z^3": (
        ["points", "x*y^2*z^3", "--seed", "4", "--phi=4*a0 + 5*a1 - 8*a2",
         "--phi=-a0^2 + 8*a0*a1 + 7*a1^2 + 4*a0*a2 + a1*a2 + 7*a2^2"], 0,
        {"points": [[(1.0, 0.0), (-3.438026775821, 1.765562641501e-15),
                     (3.430929907294, -1.085678741058e-15)],
                    [(1.0, 0.0), (-2.390783935794, -1.377142936585),
                     (-0.9863862871511, 1.76464011355)],
                    [(1.0, 0.0), (-2.390783935794, 1.377142936585),
                     (-0.9863862871511, -1.76464011355)],
                    [(1.0, 0.0), (-1.412368330867, -2.238266240948),
                     (-2.683958951598, -1.126262798426)],
                    [(1.0, 0.0), (-1.412368330867, 2.238266240948),
                     (-2.683958951598, 1.126262798426)],
                    [(1.0, 0.0), (-1.266169173248, -2.125656750536e-17),
                     (-0.03761790390288, -1.680358937377e-16)],
                    [(1.0, 0.0), (-0.2071972547542, -2.782004546932e-17),
                     (0.3716136062383, 4.868507957131e-17)],
                    [(1.0, 0.0), (1.452874316501, -2.054646917215),
                     (3.324728748729, -0.7419953130255)],
                    [(1.0, 0.0), (1.452874316501, 2.054646917215),
                     (3.324728748729, 0.7419953130255)],
                    [(1.0, 0.0), (2.931407487345, -1.023605555518),
                     (0.3351651772574, 2.524682316776)],
                    [(1.0, 0.0), (2.931407487345, 1.023605555518),
                     (0.3351651772574, -2.524682316776)],
                    [(1.0, 0.0), (3.749134129452, 2.645718052597e-16),
                     (-3.744022984103, 5.850953892897e-15)]],
         "multiplicity_free": True}),
    "points x*y*z^2*w": (
        ["points", "x*y*z^2*w", "--seed", "4"], 0,
        {"points": [[(1.0, 0.0), (-1.0, -8.326672684689e-16), (-1.0, -6.661338147751e-16),
                     (-0.5, -0.8660254037844)],
                    [(1.0, 0.0), (-1.0, 6.661338147751e-16), (-1.0, 1.33226762955e-15),
                     (-0.5, 0.8660254037844)],
                    [(1.0, 0.0), (-1.0, -1.024760375961e-30), (-1.0, -2.561900939902e-31),
                     (1.0, 1.104819780333e-30)],
                    [(1.0, 0.0), (-1.0, -3.845925372767e-16), (1.0, 1.922962686384e-15),
                     (-0.5, -0.8660254037844)],
                    [(1.0, 0.0), (-1.0, 5.768888059151e-16), (1.0, -3.365184701171e-16),
                     (-0.5, 0.8660254037844)],
                    [(1.0, 0.0), (-1.0, -2.935511493637e-32), (1.0, 2.428468599282e-31),
                     (1.0, 2.428468599282e-31)],
                    [(1.0, 0.0), (1.0, 1.415534356397e-15), (-1.0, -9.992007221626e-16),
                     (-0.5, -0.8660254037844)],
                    [(1.0, 0.0), (1.0, -8.326672684689e-16), (-1.0, 8.326672684689e-16),
                     (-0.5, 0.8660254037844)],
                    [(1.0, 0.0), (1.0, -2.775392684893e-31), (-1.0, -2.08154451367e-31),
                     (1.0, 7.438852989558e-32)],
                    [(1.0, 0.0), (1.0, -3.845925372767e-16), (1.0, -2.403703357979e-16),
                     (-0.5, -0.8660254037844)],
                    [(1.0, 0.0), (1.0, 1.346073880468e-15), (1.0, -9.614813431918e-17),
                     (-0.5, 0.8660254037844)],
                    [(1.0, 0.0), (1.0, -2.884444029575e-16), (1.0, -3.365184701171e-16),
                     (1.0, -9.134072760322e-16)]],
         "multiplicity_free": True}),
    "sample x*y^2": (
        ["sample", "x*y^2", "--seed", "4", "--count", "2"], 0,
        {"radical": [True, True], "verified": [True, True]}),
    "sample x*y^2*z^3": (
        ["sample", "x*y^2*z^3", "--seed", "4", "--count", "2"], 0,
        {"radical": [True, True], "verified": [True, True]}),
    "sample x*y*z^2*w": (
        ["sample", "x*y*z^2*w", "--seed", "4", "--count", "2"], 0,
        {"radical": [True, True], "verified": [True, True]}),
}


def _assert_group_close(got, want):
    """Complex values equal to 1e-10 of the largest magnitude in ``want``."""
    assert len(got) == len(want)
    scale = max(abs(complex(*w)) for w in want)
    for g, w in zip(got, want):
        assert abs(complex(g["re"], g["im"]) - complex(*w)) <= 1e-10 * scale, (g, w)


@pytest.mark.parametrize("name", sorted(FLOAT_PINS))
def test_float_command_output_is_pinned(capsys, name):
    argv, code, want = FLOAT_PINS[name]
    got_code, out, _ = _run(capsys, argv)
    assert got_code == code, out
    data = json.loads(out)
    if "coeffs" in want:
        assert data["residual"] < 1e-10
        _assert_group_close([s["coeff"] for s in data["summands"]], want["coeffs"])
        for summand, form in zip(data["summands"], want["forms"], strict=True):
            _assert_group_close(summand["form"], form)
    elif "points" in want:
        assert data["multiplicity_free"] == want["multiplicity_free"]
        assert max(data["residuals"]) < 1e-10
        for point, pinned in zip(data["points"], want["points"], strict=True):
            _assert_group_close(point, pinned)
    else:
        samples = data["samples"]
        assert [s["radical"] for s in samples] == want["radical"]
        assert [s["verified"] for s in samples] == want["verified"]
        assert all(s["residual"] < 1e-10 for s in samples if s["verified"])

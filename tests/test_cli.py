"""Command-line interface: JSON documents, config handling, exit codes."""
import json
import re
import shlex
from pathlib import Path

import pytest

from dahakz import cli


def run_json(argv, tmp_path):
    out = tmp_path / "doc.json"
    code = cli.main(argv + ["--out", str(out)])
    return code, json.loads(out.read_text()) if code == 0 else None


def test_roots_document(tmp_path):
    code, doc = run_json(["roots", "--type", "A2"], tmp_path)
    assert code == 0
    assert doc["schema"] == "dahakz/1"
    assert doc["subcommand"] == "roots"
    assert doc["result"]["coxeter_number"] == 3


def test_domains_a1_census(tmp_path):
    code, doc = run_json(["domains", "--type", "A1", "--k", "1"], tmp_path)
    assert code == 0
    doms = doc["result"]["domains"]
    assert len(doms) == 3
    assert sum(1 for d in doms if d["bounded"]) == 1


def test_simple_char_bounded_domain(tmp_path):
    code, doc = run_json(
        ["simple-char", "--type", "A1", "--k", "1", "--domain", "bounded"],
        tmp_path)
    assert code == 0
    weights = doc["result"]["weights"]
    assert weights == [["1/4"]]


def test_translations_print_as_rational_strings(tmp_path):
    code, doc = run_json(["stabilizer", "--type", "A2", "--lam", "0,0"],
                         tmp_path)
    assert code == 0
    assert doc["result"]["elements"][0]["translation"] == ["0/1", "0/1"]
    code, doc = run_json(["alcoves", "--type", "A2", "--radius", "2"],
                         tmp_path)
    assert code == 0
    trans = [a["element"]["translation"] for a in doc["result"]["alcoves"]]
    assert ["0/1", "0/1"] in trans and ["1/1", "1/1"] in trans


def test_byte_determinism(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    argv = ["char", "--type", "A1", "--window", "8", "--out"]
    assert cli.main(argv + [str(out1)]) == 0
    assert cli.main(argv + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_config_file_and_flag_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("# orbit run\ntype = A1\nwindow = 4\n")
    code, doc = run_json(["orbit", "--config", str(cfgfile)], tmp_path)
    assert code == 0
    n4 = doc["result"]["count"]
    code, doc = run_json(["orbit", "--config", str(cfgfile),
                          "--window", "6"], tmp_path)
    assert code == 0
    assert doc["result"]["count"] > n4
    assert doc["config"]["window"] == "6"


def test_unknown_config_key_is_exit_2(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("type = A1\nnot_a_key = 5\n")
    assert cli.main(["orbit", "--config", str(cfgfile)]) == 2


def test_bad_type_is_exit_2():
    assert cli.main(["roots", "--type", "E8"]) == 2


def test_k_with_lam0_or_h0_is_exit_2(tmp_path):
    # k selects lam0 and h0 (the rho/n family), so an explicit one would be
    # silently overridden; the flags and the config file count alike
    for argv in (["domains", "--type", "A2", "--k", "1", "--h0", "7/9", "--lam0", "1/5,1/7"],
                 ["simple-char", "--type", "A1", "--k", "1", "--lam0", "1/4"],
                 ["verify-thm41", "--type", "A1", "--k", "1", "--h0", "1/2", "--word", "H"]):
        assert cli.main(argv) == 2
    cfgfile = tmp_path / "k.cfg"
    cfgfile.write_text("k = 1\nh0 = 1/2\n")
    assert cli.main(["domains", "--type", "A1", "--config", str(cfgfile)]) == 2
    cfgfile.write_text("h0 = 1/2\n")
    assert cli.main(["domains", "--type", "A1", "--config", str(cfgfile), "--k", "1"]) == 2
    # with k alone the record does not claim the default h0 it did not read
    code, doc = run_json(["domains", "--type", "A1", "--k", "1"], tmp_path)
    assert code == 0
    assert doc["config"] == {"type": "A1", "k": "1", "lam0": None, "h0": None}


def test_scope_violation_is_exit_3():
    # lam0 = 0 has a non-trivial stabilizer: outside the regular scope
    assert cli.main(["domains", "--type", "A1", "--lam0", "0",
                     "--h0", "1/2"]) == 3
    # mu0 = 1/4 at h = 1/2 and the k = 1 point of A1 are not generic: no
    # joint y-eigenvector is cyclic, which no --tol decides
    assert cli.main(["verify-parabolic", "--J", "", "--prec", "64", "--order", "8"]) == 3
    assert cli.main(["verify-thm41", "--k", "1", "--word", "", "--prec", "64",
                     "--order", "8"]) == 3


def test_affine_letter_on_aha_and_jets_without_J_are_exit_3():
    # the AHA has no affine letter H; J = () identifies the standard
    # fiber, which has jet order 1 only
    assert cli.main(["intertwiner", "--type", "A2", "--side", "aha",
                     "--word", "H", "--point", "1/5,1/7"]) == 3
    assert cli.main(["verify-parabolic", "--type", "A1", "--J", "",
                     "--mu0", "1/8", "--n", "3"]) == 3


def test_intertwiner_matrix_is_0_or_1():
    # any other value used to mean "no blocks", as did --side aha
    assert cli.main(["intertwiner", "--type", "A1", "--word", "0",
                     "--point", "3/4", "--matrix", "ture"]) == 2
    assert cli.main(["intertwiner", "--type", "A1", "--word", "0", "--side", "aha",
                     "--point", "1/5", "--matrix", "1"]) == 3


def test_tolerance_failure_is_exit_4():
    assert cli.main(["monodromy", "--type", "A1", "--mu0=-3/4",
                     "--prec", "64", "--order", "4", "--rtol", "1e-5",
                     "--tol", "1e-40"]) == 4
    # relation residuals 8.8e-20; the identification gate reads --tol too
    assert cli.main(["verify-thm41", "--type", "A1", "--k", "1", "--word", "H",
                     "--prec", "64", "--order", "8", "--tol", "1e-60"]) == 4
    # J = (0): jet residual 2.2e-57, not cyclic at tol; J = (): the
    # identification distance 5.0e-29
    assert cli.main(["verify-parabolic", "--type", "A1", "--J", "0",
                     "--mu0", "1/4", "--n", "2", "--prec", "64", "--order", "8",
                     "--tol", "1e-60"]) == 4
    assert cli.main(["verify-parabolic", "--type", "A1", "--J", "",
                     "--mu0=-3/4", "--prec", "64", "--order", "8",
                     "--tol", "1e-60"]) == 4
    # the A2 jet fiber's ray bound at order 8 leaves the float range before
    # its term cap: the cap ends it, where an OverflowError escaped (exit 1)
    assert cli.main(["verify-parabolic", "--type", "A2", "--J", "0", "--mu0", "1/5,1/7",
                     "--n", "2", "--prec", "64", "--order", "8"]) == 4
    # at |mu0| this large F = P G is numerically singular at the working
    # precision, where mpmath's ZeroDivisionError escaped (exit 1)
    assert cli.main(["monodromy", "--type", "A1", "--h", "1/4", "--mu0=-3001/7",
                     "--prec", "64", "--order", "8"]) == 4


def test_resonance_beyond_the_series_order_is_exit_3():
    # at mu0 = 5/2 the exponents differ by 5: a series of order 4 stops
    # before the resonance, whose logarithmic term it would miss
    for order in ("4", "8"):
        assert cli.main(["monodromy", "--type", "A1", "--mu0=5/2",
                         "--prec", "64", "--order", order]) == 3


def _no_series(monkeypatch):
    from dahakz import kz

    def never(*args, **kwargs):
        raise AssertionError("the series ran")

    monkeypatch.setattr(kz, "frobenius_series", never)


@pytest.mark.parametrize("rtol", ["nan", "inf", "0", "-1", "1e-400"])
def test_rtol_that_disarms_the_bound_is_exit_2(rtol, monkeypatch):
    # a NaN or infinite rtol would switch the certified bound off, a zero or
    # negative one (1e-400 parses to 0.0) would fail every path; each
    # subcommand that reads --rtol refuses them before any series is solved
    _no_series(monkeypatch)
    for argv in (["monodromy", "--type", "A1", "--mu0=-3/4"],
                 ["verify-thm41", "--type", "A1", "--k", "1", "--word", "H"],
                 ["verify-parabolic", "--type", "A1", "--J", "0", "--mu0=-3/4"]):
        assert cli.main(argv + ["--prec", "64", "--rtol", rtol]) == 2, argv


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1", "1e-400", "abc"])
def test_tol_that_disarms_the_gate_is_exit_2(tol, monkeypatch):
    # the residual gate worst < tol passes everything at tol = inf and
    # nothing at a NaN, zero or negative tol; each subcommand that reads
    # --tol refuses them, and a non-number, before any series is solved
    _no_series(monkeypatch)
    for argv in (["monodromy", "--type", "A1", "--mu0=-3/4"],
                 ["verify-thm41", "--type", "A1", "--k", "1", "--word", "H"],
                 ["verify-parabolic", "--type", "A1", "--J", "0", "--mu0=-3/4"]):
        assert cli.main(argv + ["--prec", "64", "--tol", tol]) == 2, argv


# the options that hold a weight (one rational per simple root) or a word
# (letters H and 0..rank-1): each gets a valid A2 value, and one bad one at a
# time, an out-of-range length or letter
_WEIGHTS, _WORDS = ("lam", "lam0", "mu0", "point"), ("word", "J")
_VALID = {**dict.fromkeys(_WEIGHTS, "1/5,1/7"), **dict.fromkeys(_WORDS, "0")}
_BAD = {**dict.fromkeys(_WEIGHTS, ("1/5,1/7,1/9", "1/5")),
        **dict.fromkeys(_WORDS, ("2", "-1"))}
_MALFORMED = [(name, key, bad) for name, (_, keys) in cli.COMMANDS.items()
              for key in keys if key in _BAD for bad in _BAD[key]]


@pytest.mark.parametrize("name, key, bad", _MALFORMED,
                         ids=["%s-%s=%s" % case for case in _MALFORMED])
def test_malformed_weight_or_word_is_exit_2(name, key, bad, monkeypatch):
    # every subcommand of cli.COMMANDS that reads a weight or a word refuses
    # a wrong length or letter as a config error, never exit 0 with a
    # coordinate dropped or a traceback, and before any series is solved
    _no_series(monkeypatch)
    keys = cli.COMMANDS[name][1]
    argv = [name, "--type", "A2"] + ["--%s=%s" % (k, _VALID[k]) for k in keys
                                     if k in _VALID and k != key]
    assert cli.main(argv + ["--%s=%s" % (key, bad)]) == 2


def test_removed_detour_option_is_exit_2(tmp_path, capsys):
    # a subcommand takes only the options it reads: an option of another
    # subcommand, a removed alias (--lam for --point or --mu0), a removed
    # option (--jobs, --detour) or an abbreviation (--h for --h0) is an
    # argparse error, and a config file that sets one has an unknown key
    for argv in (["roots", "--type", "A1", "--tol", "abc"],
                 ["monodromy", "--type", "A1", "--lam=-3/4"],
                 ["char", "--type", "A1", "--lam", "1/4"],
                 ["dunkl-check", "--type", "A1", "--jobs", "2"],
                 ["monodromy", "--type", "A1", "--mu0=-3/4", "--detour", "upper"],
                 ["aha-mul", "--type", "A1", "--h", "1/3", "--a", "t0", "--b", "t0"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2, argv
    for subcommand, line in (("monodromy", "detour = upper"), ("orbit", "tol = 1e-3")):
        cfgfile = tmp_path / "old.cfg"
        cfgfile.write_text(f"type = A1\n{line}\n")
        capsys.readouterr()
        assert cli.main([subcommand, "--config", str(cfgfile)]) == 2, line
        key = line.split()[0]
        assert f"unknown key {key!r} for {subcommand}" in capsys.readouterr().err


def test_readme_commands_exit_0(tmp_path):
    # every dahakz line of the README's command block runs as written, so a
    # flag removed from the CLI cannot stay in the docs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n```sh\n", 2)[2].split("\n```", 1)[0]
    lines = [ln for ln in block.splitlines() if ln.startswith("dahakz ")]
    assert len(lines) == 13
    out = tmp_path / "doc.json"
    for line in lines:
        argv = shlex.split(line)[1:]
        assert cli.main(argv + ["--out", str(out)]) == 0, line
        # the echo holds the options the subcommand reads, and only those
        doc = json.loads(out.read_text())
        assert set(doc["config"]) == set(cli.COMMANDS[argv[0]][1]), line
    # and its option table lists each subcommand's options as cli.COMMANDS does
    rows = re.findall(r"^\| `([a-z0-9-]+)` \| `([A-Za-z0-9 ]+)` \|$", readme, re.M)
    assert dict(rows) == {name: " ".join(keys) for name, (_, keys) in cli.COMMANDS.items()}


def test_monodromy_documents_carry_accuracy_bits(tmp_path):
    code, doc = run_json(["monodromy", "--type", "A1", "--mu0=-3/4",
                          "--prec", "128", "--order", "16"], tmp_path)
    assert code == 0 and doc["result"]["accuracy_bits"] >= 100
    code, doc = run_json(["verify-thm41", "--type", "A1", "--k", "1",
                          "--word", "H", "--prec", "128", "--order", "16"],
                         tmp_path)
    assert code == 0 and doc["result"]["accuracy_bits"] >= 100


def test_daha_mul_expression(tmp_path):
    code, doc = run_json(
        ["daha-mul", "--type", "A1",
         "--a", "s0*xi0", "--b", "xi0"], tmp_path)
    assert code == 0
    assert doc["result"]["product"]


def test_quick_selftests(tmp_path):
    assert set(cli.SELFTESTS) == set(cli.COMMANDS)
    for name in cli.SELFTESTS:
        out = tmp_path / f"{name}.json"
        assert cli.main([name, "--selftest", "--out", str(out)]) == 0, name

"""Command-line interface: JSON documents, config handling, exit codes."""
import json
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


def test_scope_violation_is_exit_3():
    # lam0 = 0 has a non-trivial stabilizer: outside the regular scope
    assert cli.main(["domains", "--type", "A1", "--lam0", "0",
                     "--h0", "1/2"]) == 3


def test_affine_letter_on_aha_and_jets_without_J_are_exit_3():
    # the AHA has no affine letter H; J = () identifies the standard
    # fiber, which has jet order 1 only
    assert cli.main(["intertwiner", "--type", "A2", "--side", "aha",
                     "--word", "H", "--point", "1/5,1/7"]) == 3
    assert cli.main(["verify-parabolic", "--type", "A1", "--J", "",
                     "--mu0", "1/8", "--n", "3"]) == 3


def test_tolerance_failure_is_exit_4():
    assert cli.main(["monodromy", "--type", "A1", "--mu0=-3/4",
                     "--prec", "64", "--order", "4", "--rtol", "1e-5",
                     "--tol", "1e-40"]) == 4


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
                 ["verify-parabolic", "--type", "A1", "--J", "0", "--mu0=-3/4"]):
        assert cli.main(argv + ["--prec", "64", "--tol", tol]) == 2, argv


def test_removed_detour_option_is_exit_2(tmp_path):
    # the wall detour side is fixed: a stale flag is an argparse error and
    # a config file that sets it has an unknown key
    with pytest.raises(SystemExit) as exc:
        cli.main(["monodromy", "--type", "A1", "--mu0=-3/4", "--detour", "upper"])
    assert exc.value.code == 2
    cfgfile = tmp_path / "old.cfg"
    cfgfile.write_text("type = A1\ndetour = upper\n")
    assert cli.main(["monodromy", "--config", str(cfgfile), "--mu0=-3/4"]) == 2


def test_readme_commands_exit_0(tmp_path):
    # every dahakz line of the README's command block runs as written, so a
    # flag removed from the CLI cannot stay in the docs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n```sh\n", 2)[2].split("\n```", 1)[0]
    lines = [ln for ln in block.splitlines() if ln.startswith("dahakz ")]
    assert len(lines) == 13
    for line in lines:
        argv = shlex.split(line)[1:]
        assert cli.main(argv + ["--out", str(tmp_path / "doc.json")]) == 0, line


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


def test_dunkl_check_two_jobs_sums_the_chunks(tmp_path):
    code, doc = run_json(["dunkl-check", "--type", "A1", "--degree", "2",
                          "--samples", "4", "--jobs", "2", "--seed", "7"],
                         tmp_path)
    assert code == 0
    chunks = [cli._dunkl_chunk((1, "1/2", 2, 2, 7 + i)) for i in range(2)]
    for key in ("pairs", "failures", "zero_actors"):
        assert doc["result"][key] == sum(c[key] for c in chunks)
    assert doc["result"]["pairs"] == 2

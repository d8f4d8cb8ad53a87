import argparse
import contextlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kummercodes
from kummercodes import twopoint
from kummercodes.cli import (
    EXIT_CONFIG,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_VERIFY,
    REFERENCE_CONFIGS,
    build_parser,
    main,
    write_reference_configs,
)
from kummercodes.code import DEFAULT_BUDGET
from kummercodes.curve import curve_from_config, load_curve, parse_curve_config


@pytest.fixture(scope="module")
def cfg_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("configs")
    write_reference_configs(directory)
    # y^3 = x^2 + 2 over F_5: f has no root, so no place P_i can be named
    (directory / "f5_y3.cfg").write_text("p = 5\ne = 1\nm = 3\nlambda = 1\nf = 2,0,1\n",
                                         encoding="utf-8")
    return directory


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_semigroup_subcommand(capsys, cfg_dir):
    code, out, _ = run_cli(
        capsys, "semigroup", "--curve", str(cfg_dir / "f64_y9.cfg"), "--place", "inf"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["gaps"] == [1, 2, 3, 5, 6, 7, 10, 11, 14, 15, 19, 23]
    assert payload["generators"] == [4, 9]
    assert payload["place"] == "P_inf"


def test_semigroup_text_and_csv_views(capsys, cfg_dir):
    code, out, _ = run_cli(
        capsys, "semigroup", "--curve", str(cfg_dir / "f25_y3.cfg"),
        "--place", "1", "--format", "text",
    )
    assert code == EXIT_OK and "gaps: 1 2 4 7" in out
    code, out, _ = run_cli(
        capsys, "semigroup", "--curve", str(cfg_dir / "f25_y3.cfg"),
        "--place", "1", "--format", "csv",
    )
    assert code == EXIT_OK and "gaps,1;2;4;7" in out


def test_deterministic_output(capsys, cfg_dir):
    args = ("twopoint", "--curve", str(cfg_dir / "f64_y9.cfg"), "--gamma")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    pairs = json.loads(out1)["pairs"]
    assert pairs[0] == [1, 20] and pairs[-1] == [23, 1] and len(pairs) == 12


def test_twopoint_member_verdicts(capsys, cfg_dir, monkeypatch):
    args = ("twopoint", "--curve", str(cfg_dir / "f64_y9.cfg"), "--member", "10", "10")
    code, out, _ = run_cli(capsys, *args)
    payload = json.loads(out)
    assert code == EXIT_OK
    assert payload["verdict"] == "gap, pure"
    assert payload["member_formula"] is False and payload["member_oracle"] is False
    assert payload["pure_gap_formula"] is True and payload["pure_gap_oracle"] is True

    code, out, _ = run_cli(
        capsys, "twopoint", "--curve", str(cfg_dir / "f64_y9.cfg"),
        "--member", "0", "0",
    )
    assert code == EXIT_OK and json.loads(out)["verdict"] == "member"

    code, out, _ = run_cli(
        capsys, "twopoint", "--curve", str(cfg_dir / "f64_y9.cfg"),
        "--member", "19", "10",
    )
    assert code == EXIT_OK and json.loads(out)["verdict"] == "member"

    # a closed form that disagrees with the oracle is reported, never hidden
    monkeypatch.setattr(twopoint, "is_member", lambda curve, a, b: True)
    code, out, err = run_cli(capsys, *args)
    assert code == EXIT_MISMATCH and err == "error[4]: closed form and dimension oracle disagree\n"
    assert "verdict" not in json.loads(out)


def test_twopoint_pure_gaps(capsys, cfg_dir):
    code, out, _ = run_cli(
        capsys, "twopoint", "--curve", str(cfg_dir / "f25_y3.cfg"),
        "--pure-gaps", "16",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["pure_gaps"] == [[1, 1], [1, 2], [1, 4], [2, 1], [4, 1]]
    assert payload["count"] == 5


def test_code_subcommand(capsys, cfg_dir, tmp_path):
    matrix_path = tmp_path / "gen.txt"
    code, out, _ = run_cli(
        capsys, "code", "--curve", str(cfg_dir / "f25_y3.cfg"),
        "--G", "5P_inf", "--exact-d", "--matrix-out", str(matrix_path),
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert (payload["n"], payload["k"]) == (65, 3)
    assert payload["designed_d"] == 60 and payload["exact_d"] == 60
    assert payload["G"] == "5P_inf"
    text = matrix_path.read_text(encoding="utf-8")
    assert len(text.splitlines()) == 3
    assert "\r" not in text and text.endswith("\n")


def test_code_omega_with_box_upgrade(capsys, cfg_dir):
    code, out, _ = run_cli(
        capsys, "code", "--curve", str(cfg_dir / "f64_y9.cfg"),
        "--G", "19P_inf + 19P_1", "--omega",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert (payload["n"], payload["k"]) == (255, 228)
    assert payload["designed_d"] == 18 and payload["d_kind"] == "homma_kim"

    code, out, _ = run_cli(
        capsys, "code", "--curve", str(cfg_dir / "f25_y6.cfg"),
        "--G", "25P_inf + 1P_1", "--omega",
    )
    payload = json.loads(out)
    assert (payload["n"], payload["k"]) == (124, 107)
    assert payload["designed_d"] == 10

    # g = 12 on f64_y9: the box lookup covers the finite index of any
    # a*P_inf + b*P_i, and no box reaches a coefficient past 4g - 3 = 45
    for spec, kind, designed_d in (
        ("19P_inf + 19P_2", "homma_kim", 18),
        ("19P_inf + 46P_1", "goppa_omega", 65 - 22),
        ("40P_inf", "goppa_omega", 40 - 22),
    ):
        code, out, _ = run_cli(
            capsys, "code", "--curve", str(cfg_dir / "f64_y9.cfg"), "--G", spec, "--omega",
        )
        payload = json.loads(out)
        assert code == EXIT_OK and payload["G"] == spec
        assert payload["d_kind"] == kind and payload["designed_d"] == designed_d


def test_code_budget_notice(capsys, cfg_dir):
    code, out, err = run_cli(
        capsys, "code", "--curve", str(cfg_dir / "f25_y3.cfg"),
        "--G", "5P_inf", "--exact-d", "--budget", "100",
    )
    assert code == EXIT_OK
    assert "exact_d" not in json.loads(out)
    assert "budget" in err


def test_code_budget_validation(capsys, cfg_dir):
    args = ("code", "--curve", str(cfg_dir / "f25_y3.cfg"), "--G", "5P_inf", "--exact-d")
    for bad in ("-5", "0"):
        code, out, err = run_cli(capsys, *args, "--budget", bad)
        assert code == EXIT_PRECONDITION and not out and "budget" in err
        # only the scan reads the budget
        code, out, err = run_cli(capsys, *args[:-1], "--budget", bad)
        assert code == EXIT_OK and "exact_d" not in json.loads(out) and not err
    with pytest.raises(SystemExit) as exc:  # not an integer: a usage error
        main([*args, "--budget", "abc"])
    assert exc.value.code == 2 and "--budget" in capsys.readouterr().err
    # scan iff q^k <= budget; q^k = 25^3 = 15625
    code, out, err = run_cli(capsys, *args, "--budget", "15625")
    assert code == EXIT_OK and json.loads(out)["exact_d"] == 60 and not err
    code, out, err = run_cli(capsys, *args, "--budget", "15624")
    assert code == EXIT_OK and "exact_d" not in json.loads(out)
    assert "exceeds the budget" in err
    # the help states the default, which lives in the code layer
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    budget = next(a for a in sub.choices["code"]._actions if "--budget" in a.option_strings)
    assert 2 ** int(re.search(r"\(default 2\^(\d+)\)", budget.help).group(1)) == DEFAULT_BUDGET


@pytest.mark.parametrize("value", ["abc", "1"])
def test_code_ignores_kummer_budget_env(capsys, cfg_dir, monkeypatch, value):
    # the budget has one source, --budget; the environment changes nothing
    args = ("code", "--curve", str(cfg_dir / "f25_y3.cfg"), "--G", "5P_inf")
    for argv in (args, (*args, "--exact-d")):
        monkeypatch.delenv("KUMMER_BUDGET", raising=False)
        want = run_cli(capsys, *argv)
        monkeypatch.setenv("KUMMER_BUDGET", value)
        assert run_cli(capsys, *argv) == want
        assert want[0] == EXIT_OK


def test_code_degenerate_dual_rejected(capsys, cfg_dir):
    # deg G = 200 > n = 65: C_Omega would have k = 0
    code, out, err = run_cli(
        capsys, "code", "--curve", str(cfg_dir / "f25_y3.cfg"),
        "--G", "200P_inf", "--omega", "--exact-d",
    )
    assert code == EXIT_PRECONDITION and not out and "k = 0" in err


def test_code_shorten_flag(capsys, cfg_dir):
    code, out, _ = run_cli(
        capsys, "code", "--curve", str(cfg_dir / "f64_y9.cfg"),
        "--G", "19P_inf + 19P_1", "--omega", "--shorten", "29",
    )
    payload = json.loads(out)
    assert payload["shortened"]["n"] == 226 and payload["shortened"]["k"] == 199
    assert payload["shortened"]["designed_d"] == 18


@pytest.mark.parametrize("config,G,divisor,omega", [
    ("p = 2\ne = 6\nm = 9\nlambda = 1\nf = 0,1,1,0,1\n", "19P_inf + 19P_1",
     kummercodes.Divisor(19, {1: 19}), True),
    ("p = 2\ne = 10\nm = 3\nlambda = 1\nf = 0,1,0,0,1\n", "7P_inf",
     kummercodes.Divisor.at_infinity(7), False),
])
def test_matrix_out_parses_back_to_the_generator(capsys, tmp_path, config, G, divisor, omega):
    # one uint8 field (F_64) and one uint16 field (F_1024): the file written
    # row by row holds the generator's encodings, one row per line
    cfg, matrix_path = tmp_path / "curve.cfg", tmp_path / "gen.txt"
    cfg.write_text(config, encoding="utf-8")
    argv = ["code", "--curve", str(cfg), "--G", G, "--matrix-out", str(matrix_path)]
    code, out, _ = run_cli(capsys, *argv, *(["--omega"] if omega else []))
    assert code == EXIT_OK
    curve = kummercodes.load_curve(cfg)
    text = matrix_path.read_text(encoding="utf-8")
    rows = [[int(v) for v in line.split(" ")] for line in text.split("\n")[:-1]]
    build = kummercodes.residue_code if omega else kummercodes.evaluation_code
    assert rows == build(curve, divisor).gen.tolist()
    assert len(rows) == json.loads(out)["k"] and text.endswith("\n")


def test_error_exit_codes(capsys, cfg_dir, tmp_path):
    f2 = tmp_path / "f2.cfg"  # y^3 = x^2 + x: P_inf, P_1 and P_2 are all its places
    f2.write_text("p = 2\ne = 1\nm = 3\nlambda = 1\nf = 0,1,1\n", encoding="utf-8")
    for omega in ((), ("--omega",)):
        code, out, err = run_cli(capsys, "code", "--curve", str(f2), "--G", "1P_inf + 1P_1 + 1P_2",
                                 *omega)
        assert (code, out) == (EXIT_PRECONDITION, "")
        assert err == "error[3]: supp(G) holds every rational place: the code would have " \
                      "length n = 0\n"

    bad = tmp_path / "bad.cfg"
    bad.write_text("p = 5\ne = 2\nm = 3\n", encoding="utf-8")  # missing keys
    code, _, err = run_cli(capsys, "semigroup", "--curve", str(bad))
    assert code == EXIT_CONFIG and "missing" in err

    code, _, err = run_cli(capsys, "semigroup", "--curve", str(tmp_path / "nope.cfg"))
    assert code == EXIT_CONFIG

    # a directory used to escape as an IsADirectoryError traceback, exit 1
    code, out, err = run_cli(capsys, "semigroup", "--curve", str(tmp_path))
    assert code == EXIT_CONFIG and not out
    assert err.startswith("error[2]:") and str(tmp_path) in err

    code, _, err = run_cli(
        capsys, "semigroup", "--curve", str(cfg_dir / "f25_y3.cfg"), "--place", "9"
    )
    assert code == EXIT_PRECONDITION and "out of range" in err

    code, _, err = run_cli(
        capsys, "code", "--curve", str(cfg_dir / "f25_y3.cfg"), "--G", "5Q_inf"
    )
    assert code == EXIT_PRECONDITION

    bad_m = tmp_path / "badm.cfg"
    bad_m.write_text(
        "p = 5\ne = 2\nm = 5\nlambda = 1\nf = 0,4,0,0,0,1\n", encoding="utf-8"
    )
    code, _, err = run_cli(capsys, "semigroup", "--curve", str(bad_m))
    assert code == EXIT_PRECONDITION and "divides" in err


_NO_ROOT = "f has no root in F_q, so the curve has no place P_i to name"


# a --G place label and --place are read by one KummerCurve.place, so the
# same place gives the same text through either; each argv starts with the
# stem of the config it runs on
@pytest.mark.parametrize("argv,message", [
    (("f25_y3", "semigroup", "--place", "x"), "bad place selector 'x'; use 'inf' or an index"),
    (("f25_y3", "code", "--G", "5P_inf +"), "empty term in divisor spec"),
    (("f25_y3", "code", "--G", "xP_inf"), "bad coefficient in divisor term 'xP_inf'"),
    (("f25_y3", "code", "--G", "5P_a"), "bad place selector 'P_a'; use 'inf' or an index"),
    (("f25_y3", "code", "--G", "5P_9"), "ramified place index 9 out of range 1..5"),
    (("f25_y3", "twopoint", "--place", "inf", "--gamma"),
     "the second point must be a finite ramified place"),
    (("f25_y3", "twopoint"), "choose one of --gamma, --pure-gaps, --member"),
    (("f25_y3", "code", "--omega", "--G=2P_inf + -9P_1"),
     "the residue code is trivial: l(G) = 0, so it is all of F_q^64 (k = 64)"),
    (("f25_y3", "semigroup", "--place", "9"), "ramified place index 9 out of range 1..5"),
    (("f5_y3", "code", "--G", "1P_1"), _NO_ROOT),
    (("f5_y3", "twopoint", "--place", "1"), _NO_ROOT),
])
def test_precondition_messages(capsys, cfg_dir, argv, message):
    curve, command, *rest = argv
    code, out, err = run_cli(capsys, command, "--curve", str(cfg_dir / f"{curve}.cfg"), *rest)
    assert (code, out, err) == (EXIT_PRECONDITION, "", f"error[3]: {message}\n")


def test_verify_paper_passes(capsys, tmp_path):
    code, out, err = run_cli(capsys, "verify-paper")
    assert code == EXIT_OK
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 8 and all(l.startswith("PASS") for l in lines)
    # the written reference configs read back as the same curves
    for path in write_reference_configs(tmp_path):
        text = REFERENCE_CONFIGS[path.stem]
        assert load_curve(path) == curve_from_config(parse_curve_config(text))


def test_verify_paper_list(capsys):
    code, out, _ = run_cli(capsys, "verify-paper", "--list")
    assert code == EXIT_OK
    ids = out.splitlines()
    assert "f64_y9/curve" in ids and len(ids) == 8


def test_verify_paper_tampered_fixture(capsys, monkeypatch):
    text = REFERENCE_CONFIGS["f64_y9"].replace("m = 9", "m = 7")
    monkeypatch.setitem(REFERENCE_CONFIGS, "f64_y9", text)
    code, out, err = run_cli(capsys, "verify-paper")
    assert code == EXIT_VERIFY
    assert "FAIL f64_y9/curve" in out and "genus" in out
    assert "f64_y9/curve" in err


def test_console_entry_point(cfg_dir):
    src = str(Path(kummercodes.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "kummercodes.cli", "semigroup",
         "--curve", str(cfg_dir / "f25_y3.cfg")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == EXIT_OK
    assert json.loads(result.stdout)["generators"] == [3, 5]


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_broken_invariant_exits_4(cfg_dir, flags):
    # a library invariant is checked by a plain raise, which -O keeps, and
    # reported as a failed internal check, not as a user error
    body = ("import sys\n"
            "from kummercodes import cli, onepoint\n"
            "wrong = onepoint.NumericalSemigroup((1,))  # genus 1 on a genus-4 curve\n"
            "onepoint.semigroups = lambda m, r: (wrong, wrong)\n"
            "print(__debug__)\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
    src = str(Path(kummercodes.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, *flags, "-c", body, "semigroup", "--curve", str(cfg_dir / "f25_y3.cfg")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert result.stdout == f"{not flags}\n"
    assert result.returncode == EXIT_MISMATCH
    assert result.stderr == "error[4]: internal check failed: 1 gaps, want the curve genus 4\n"


def test_output_file(capsys, cfg_dir, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "semigroup", "--curve", str(cfg_dir / "f25_y3.cfg"),
        "--output", str(out_path),
    )
    assert code == EXIT_OK and out == ""
    assert json.loads(out_path.read_text(encoding="utf-8"))["generators"] == [3, 5]


def test_twopoint_member_formula_on_general_lambda(capsys, tmp_path):
    cfg = tmp_path / "lam2.cfg"
    cfg.write_text("p = 7\ne = 1\nm = 5\nlambda = 2\nf = 0,2,4,1\n", encoding="utf-8")
    verdicts = set()
    for a, b in ((1, 1), (2, 3), (5, 3), (7, 2)):
        code, out, err = run_cli(
            capsys, "twopoint", "--curve", str(cfg), "--member", str(a), str(b)
        )
        payload = json.loads(out)
        assert code == EXIT_OK and err == ""
        assert payload["pure_gap_formula"] is payload["pure_gap_oracle"]
        verdicts.add(payload["verdict"])
    assert verdicts == {"gap, pure", "gap", "member"}


def test_field_size_cap_exits_promptly(capsys, tmp_path):
    # q = 2^20 used to hang scanning F_q for the roots of f
    cfg = tmp_path / "q2e20.cfg"
    cfg.write_text("p = 2\ne = 20\nm = 3\nlambda = 1\nf = 0,1,0,0,1\n", encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "semigroup", "--curve", str(cfg))
    assert code == EXIT_CONFIG and out == ""
    assert "MAX_Q = 2**16" in err
    assert time.perf_counter() - start < 10


def test_table_size_cap_exits_promptly(capsys, tmp_path):
    # q = 2^13 dense uint16 tables would take 4*q^2 = 256 MiB; a G past
    # n + 2g - 1 takes the identity route, which must refuse before it
    # allocates the n x n identity
    cfg = tmp_path / "q2e13.cfg"
    cfg.write_text("p = 2\ne = 13\nm = 3\nlambda = 1\nf = 0,1,0,0,1\n", encoding="utf-8")
    for G in ("3P_inf", "1000000000P_inf"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "code", "--curve", str(cfg), "--G", G)
        assert code == EXIT_PRECONDITION and out == ""
        assert "MAX_TABLE_Q = 2**12" in err
        assert time.perf_counter() - start < 30


@pytest.mark.parametrize("modes", [
    ("--gamma", "--member", "1", "1"),
    ("--gamma", "--pure-gaps", "3"),
    ("--pure-gaps", "3", "--member", "1", "1"),
])
def test_twopoint_modes_exclude_each_other(capsys, cfg_dir, modes):
    with pytest.raises(SystemExit) as exc:
        main(["twopoint", "--curve", str(cfg_dir / "f25_y3.cfg"), *modes])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and not captured.out
    assert "not allowed with argument" in captured.err


def test_printed_forms_are_accepted(capsys, cfg_dir):
    # the report's "G" and "place" fields parse back as --G and --place
    cfg = str(cfg_dir / "f25_y3.cfg")
    code, out, _ = run_cli(capsys, "code", "--curve", cfg, "--G", "0")
    assert code == EXIT_OK and json.loads(out)["G"] == "0"
    code, out, _ = run_cli(capsys, "semigroup", "--curve", cfg, "--place", "P_2")
    assert code == EXIT_OK and json.loads(out)["place"] == "P_2"
    code, out, _ = run_cli(capsys, "twopoint", "--curve", cfg, "--place", "P_2", "--member", "3", "3")
    assert code == EXIT_OK and json.loads(out)["place"] == "P_2"


class _TooSlow(Exception):
    pass


_TOKENS = ("f25_y3", "f25_y6", "f64_y9")
_CURVES = st.sampled_from(_TOKENS)
_COEFF = st.one_of(st.integers(-10 ** 12, 10 ** 12), st.integers(-5, 300))
_G_TEXT = st.one_of(
    st.lists(st.builds("{}P_{}".format, _COEFF,
                       st.sampled_from(["inf", "inf", "1", "2", "5", "9", "x"])),
             min_size=1, max_size=3).map(" + ".join),
    st.sampled_from(["0", "", "+", "P_inf", "5P_inf +", "5Q_inf", "1000000000000P_inf"]),
)
_CODE_ARGV = st.builds(
    lambda curve, G, omega, exact, budget, s, matrix, fmt: [
        "code", "--curve", curve, f"--G={G}", "--format", fmt,
        *(["--omega"] if omega else []),
        *(["--exact-d", "--budget", budget] if exact else []),
        *(["--shorten", str(s)] if s else []),
        *(["--matrix-out", matrix] if matrix else [])],
    _CURVES, _G_TEXT, st.booleans(), st.booleans(), st.sampled_from(["200000", "1", "x"]),
    st.one_of(st.just(0), st.integers(1, 300)), st.sampled_from([None, "gen.txt"]),
    st.sampled_from(["json", "text", "csv"]),
)
_TWOPOINT_ARGV = st.builds(
    lambda curve, place, mode: ["twopoint", "--curve", curve, "--place", place, *mode],
    _CURVES, st.sampled_from(["1", "P_1", "P_2", "inf", "9", "x"]),
    st.one_of(st.tuples(st.just("--member"), _COEFF.map(str), _COEFF.map(str)),
              st.tuples(st.just("--pure-gaps"), _COEFF.map(str)),
              st.just(("--gamma",)), st.just(())),
)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_CODE_ARGV, _TWOPOINT_ARGV))
@example(["code", "--curve", "f25_y3", "--G", "3000000P_inf"])
@example(["code", "--curve", "f25_y3", "--G", "99999999999P_inf", "--omega"])
@example(["code", "--curve", "f25_y3", "--G", "1P_inf + 1000000P_1"])
@example(["code", "--curve", "f25_y3", "--G", "1P_inf + 1000000P_1", "--omega"])
@example(["code", "--curve", "f25_y3", f"--G={10 ** 22}P_inf + {10 - 10 ** 22}P_1"])
def test_cli_answers_any_input_promptly(cfg_dir, argv):
    # huge divisors and coefficients answer from the code's size, not the
    # divisor's: every call exits 0, 2 or 3 within seconds, with no traceback
    paths = {token: str(cfg_dir / f"{token}.cfg") for token in _TOKENS}
    paths["gen.txt"] = str(cfg_dir / "gen.txt")
    argv = [paths.get(a, a) for a in argv]

    def too_slow(signum, frame):
        raise _TooSlow(" ".join(argv))

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 3.0)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_PRECONDITION), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_readme_cli_section_names_every_option():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {opt for p in sub.choices.values() for action in p._actions
               for opt in action.option_strings if opt.startswith("--") and opt != "--help"}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"--[A-Za-z][A-Za-z-]*", section)) == options

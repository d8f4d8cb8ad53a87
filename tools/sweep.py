"""Byte-identity check of the CLI against recorded digests.

    python tools/sweep.py                  compare every record with tests/golden_outputs.json
    python tools/sweep.py --write          record them anew (only with a named output change)
    python tools/sweep.py --python PATH    compare the records of another interpreter

Each record runs one argv in this process through `kummercodes.cli.main`
and keeps its exit code, the sha256 of its stdout, its stderr text and the
sha256 of each file it writes (--output, --matrix-out).  The curve configs
and output files live in one temporary directory, written `{dir}` in the
argvs and in every recorded text.  The argvs cover the reference and
benchmark curves, lambda != 1 and non-split f, the F_2 curve with n <= 3,
every subcommand and option, the cap exits, bad configs and the --help
texts.  argparse's help and usage texts follow the Python version; the
digests were recorded on Python 3.11, and the tier-1 test leaves those
records out (`argparse_text`), as does --python.  --python runs the sweep
under the interpreter at PATH, every record when it has numpy, else the
ones that run without it (`numpy_free`).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden_outputs.json"
sys.path.insert(0, str(ROOT / "src"))

from kummercodes import cli  # noqa: E402

# token -> (p, e, m, lambda, f); the reference curves keep their bundled text
CURVES = {
    "f25_y3": None, "f64_y9": None, "f25_y6": None,
    "f256_y3": (2, 8, 3, 1, "0,1,0,0,1"),
    "f7_l2": (7, 1, 3, 2, "6,0,1"),           # y^3 = (x^2 - 1)^2
    "f7_l5": (7, 1, 3, 5, "6,0,1"),           # lambda = 5 = 2 + m
    "f7_part": (7, 1, 2, 1, "0,1,0,1"),       # y^2 = x^3 + x, x^2 + 1 irreducible
    "f16_l3": (2, 4, 5, 3, "0,1,1"),
    "f49_l3": (7, 2, 4, 3, "0,6,0,1"),
    "f27_l3": (3, 3, 5, 3, "1,0,1"),          # x^2 + 1 has no root in F_27
    "f13_l5": (13, 1, 7, 5, "0,12,0,1"),
    "f5_y2": (5, 1, 2, 1, "0,1,0,1"),
    "f5_y3": (5, 1, 3, 1, "2,0,1"),           # x^2 + 2 has no root in F_5
    "f2_y3": (2, 1, 3, 1, "0,1,1"),           # y^3 = x^2 + x: n <= 3
}
BAD_CONFIGS = {
    "bad_missing": "p = 5\ne = 1\nm = 3\nlambda = 1\n",
    "bad_key": "p = 5\ne = 1\nm = 3\nlambda = 1\nf = 0,1,1\nq = 5\n",
    "bad_int": "p = five\ne = 1\nm = 3\nlambda = 1\nf = 0,1,1\n",
    "bad_coeffs": "p = 5\ne = 1\nm = 3\nlambda = 1\nf = 0,x,1\n",
    "bad_range": "p = 5\ne = 1\nm = 3\nlambda = 1\nf = 0,7,1\n",
    "bad_prime": "p = 6\ne = 1\nm = 5\nlambda = 1\nf = 0,1,1\n",
    "bad_q": "p = 2\ne = 17\nm = 3\nlambda = 1\nf = 0,1,1\n",
    "bad_m": "p = 5\ne = 1\nm = 5\nlambda = 1\nf = 0,1,1\n",
    "bad_gcd": "p = 5\ne = 1\nm = 4\nlambda = 1\nf = 0,1,1\n",
    "bad_sep": "p = 5\ne = 1\nm = 3\nlambda = 1\nf = 1,2,1\n",
    "bad_deg": "p = 5\ne = 1\nm = 3\nlambda = 1\nf = 0,1\n",
    "bad_dup": "p = 5\np = 5\n",
    "big_genus": "p = 5\ne = 1\nm = 100003\nlambda = 1\nf = 0,1,0,1\n",  # g = 100002
    "big_scan": "p = 2\ne = 1\nm = 201\nlambda = 1\nf = 0,1,1\n",       # g = 100
    "g465": "p = 37\ne = 1\nm = 31\nlambda = 1\nf = 0,4,18,18,29,28,31,36,26,9,5,25,34,22,19,"
            "17,27,9,28,2,24,14,9,35,17,34,14,25,32,23,29,22,1\n",  # x(x-1)...(x-31)
    "f8192": "p = 2\ne = 13\nm = 3\nlambda = 1\nf = 0,1,1\n",
}
# curves of one record each
LONE_CONFIGS = {
    "f8_y7": "p = 2\ne = 3\nm = 7\nlambda = 1\nf = 0,1,1\n",  # y^7 = x^2 + x: 3 places
}
FORMATS = ("json", "text", "csv")
PLACES = ("inf", "Pinf", "1", "P_1", "2", "3", "0", "9", "x")
MEMBERS = ((0, 0), (1, 1), (2, 3), (5, 0), (10, 10), (13, 1), (0, 7))
PURE_GAP_BOUNDS = ("0", "1", "5", "12", "30")


def _divisors(token: str) -> list[str]:
    """The --G values of one curve: degenerate, low, middle and high degree,
    one- and two-point, on named and unnamed places."""
    if token == "f256_y3":
        return ["5P_inf", "20P_inf", "-3P_inf", "6P_inf + 14P_1", "8P_inf + 12P_2", "3P_5"]
    return ["0", "1P_inf", "3P_inf", "6P_inf", "9P_inf", "14P_inf", "-3P_inf",
            "2P_inf + -9P_1", "2P_inf + 1P_1", "4P_inf + 3P_1", "7P_inf + 1P_1",
            "10P_inf + 10P_1", "5P_1 + 2P_2", "-4P_inf + 5P_2", "1P_inf + 1P_1 + 1P_2",
            "100000P_inf"]


def argvs() -> list[list[str]]:
    """Every argv the sweep runs, in order; "{dir}" is the work directory."""
    out = [["--help"], ["semigroup", "--help"], ["twopoint", "--help"], ["code", "--help"],
           ["verify-paper", "--help"], [], ["verify-paper"], ["verify-paper", "--list"],
           ["verify-paper", "--fixtures", "x"], ["semigroup"],
           ["semigroup", "--curve", "{dir}/missing.cfg"]]
    for token in BAD_CONFIGS:
        out.append(["semigroup", "--curve", f"{{dir}}/{token}.cfg"])
    out += [["twopoint", "--curve", "{dir}/big_genus.cfg", "--gamma"],
            ["twopoint", "--curve", "{dir}/big_scan.cfg", "--pure-gaps", "100000"],
            ["twopoint", "--curve", "{dir}/g465.cfg", "--pure-gaps", "1860"],
            ["twopoint", "--curve", "{dir}/g465.cfg", "--pure-gaps", "100"],
            ["code", "--curve", "{dir}/f8192.cfg", "--G", "3P_inf"]]
    for token in CURVES:
        cfg = f"{{dir}}/{token}.cfg"
        for place in PLACES:
            for fmt in FORMATS if place in ("inf", "1") else ("json",):
                out.append(["semigroup", "--curve", cfg, "--place", place, "--format", fmt])
        out.append(["twopoint", "--curve", cfg, "--place", "inf", "--gamma"])
        for place in ("1", "2"):
            two = ["twopoint", "--curve", cfg, "--place", place]
            out.append(two)
            out += [two + ["--gamma", "--format", fmt] for fmt in FORMATS]
            out += [two + ["--pure-gaps", bound] for bound in PURE_GAP_BOUNDS]
            out += [two + ["--member", str(a), str(b)] for a, b in MEMBERS]
        out.append(["twopoint", "--curve", cfg, "--gamma", "--member", "1", "1"])
        for G in _divisors(token):
            for omega in ([], ["--omega"]):
                code = ["code", "--curve", cfg, f"--G={G}", *omega]
                out.append(code)
                out.append(code + ["--format", "text", "--shorten", "2",
                                   "--matrix-out", "{dir}/gen.txt", "--output", "{dir}/out.txt"])
                if token != "f256_y3":
                    out.append(code + ["--exact-d", "--budget", "65536", "--format", "csv"])
    f25 = "{dir}/f25_y3.cfg"
    out += [["code", "--curve", f25, "--G", "6P_inf", "--exact-d"],
            ["code", "--curve", f25, "--G", "6P_inf", "--exact-d", "--budget", "0"],
            ["code", "--curve", f25, "--G", "6P_inf", "--exact-d", "--budget", "624"],
            ["code", "--curve", f25, "--G", "6P_inf", "--shorten", "4"],
            ["code", "--curve", f25, "--G", "6P_inf", "--shorten", "-1"],
            ["code", "--curve", f25, "--G", "6P_inf", "--matrix-out", "{dir}/no/such/gen.txt"],
            ["code", "--curve", f25, "--G", "6P_inf", "--output", "{dir}/no/such/out.txt"],
            ["code", "--curve", f25, "--G", "6P_inf", "--format", "xml"],
            ["code", "--curve", f25, "--G", "5P_inf + bad"],
            ["code", "--curve", f25, "--G", "5P_inf + +"],
            ["code", "--curve", f25, "--G", "xP_inf"],
            ["code", "--curve", f25, "--G", "5P_z"],
            ["code", "--curve", f25, "--G", "-5P_inf"],
            # n = 1, and L(G) = <y> vanishes at P_1: C_Omega is all of F_8^1
            ["code", "--curve", "{dir}/f8_y7.cfg", "--omega", "--G", "2P_inf + -1P_2"]]
    return out


def numpy_free(argv: list[str]) -> bool:
    """Whether argv runs without numpy: the theory subcommands and the check list."""
    return argv[:1] in (["semigroup"], ["twopoint"]) or argv == ["verify-paper", "--list"]


def runnable_records() -> dict[str, list]:
    """The records this interpreter can run: all with numpy, else the numpy_free ones."""
    has_numpy = importlib.util.find_spec("numpy") is not None
    return records([a for a in argvs() if has_numpy or numpy_free(a)])


# what --python runs under PATH, with this directory as its argument
CHILD = "import json, sys; sys.path.insert(0, sys.argv[1]); import sweep; " \
        "json.dump(sweep.runnable_records(), sys.stdout)"


def write_configs(directory: Path) -> None:
    texts = {**BAD_CONFIGS, **LONE_CONFIGS}
    for token, spec in CURVES.items():
        if spec is None:
            texts[token] = cli.REFERENCE_CONFIGS[token]
        else:
            p, e, m, lam, f = spec
            texts[token] = f"p = {p}\ne = {e}\nm = {m}\nlambda = {lam}\nf = {f}\n"
    for token, text in texts.items():
        (directory / f"{token}.cfg").write_text(text, encoding="utf-8")


def run(argv: list[str], directory: Path) -> list:
    """[exit code, stdout sha256, stderr, {file: sha256}] of one argv."""
    real = [a.replace("{dir}", str(directory)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(real)
        except SystemExit as exc:  # argparse: --help, usage errors
            rc = exc.code
    files = {}
    for name in ("out.txt", "gen.txt"):
        path = directory / name
        if path.exists():
            files[name] = _digest(path.read_text(encoding="utf-8"), directory)
            path.unlink()
    return [rc, _digest(out.getvalue(), directory),
            err.getvalue().replace(str(directory), "{dir}"), files]


def _digest(text: str, directory: Path) -> str:
    return hashlib.sha256(text.replace(str(directory), "{dir}").encode()).hexdigest()


def key(argv: list[str]) -> str:
    return shlex.join(argv)


def records(selected: list[list[str]]) -> dict[str, list]:
    """The record of each argv in selected, keyed by its shell form."""
    # argparse wraps its help to the terminal width
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, COLUMNS="80"):
        directory = Path(tmp)
        write_configs(directory)
        return {key(argv): run(argv, directory) for argv in selected}


def argparse_text(argv: list[str], record: list) -> bool:
    """Whether argparse wrote record's output: a --help text or a usage error."""
    return "--help" in argv or record[0] == 2 and record[2].startswith("usage:")


def load_golden() -> dict[str, list]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true",
                      help=f"rewrite {GOLDEN.relative_to(ROOT)} from this checkout")
    mode.add_argument("--python", metavar="PATH",
                      help="compare the records of the sweep under this interpreter")
    args = parser.parse_args(argv)
    if args.python:
        child = subprocess.run([args.python, "-c", CHILD, str(Path(__file__).parent)],
                               check=True, stdout=subprocess.PIPE, text=True)
        got = {k: v for k, v in json.loads(child.stdout).items()
               if not argparse_text(shlex.split(k), v)}
        print(f"{args.python}: {len(got)} records without argparse text")
    else:
        got = records(argvs())
    if args.write:
        lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in got.items()]
        GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
        print(f"wrote {len(got)} records to {GOLDEN.relative_to(ROOT)}")
        return 0
    want = {k: v for k, v in load_golden().items() if not args.python or k in got}
    differ = [k for k in got.keys() | want.keys() if got.get(k) != want.get(k)]
    for k in sorted(differ):
        print(f"DIFFERS {k}\n  recorded {want.get(k)}\n  now      {got.get(k)}")
    print(f"{len(got) - len(differ)} of {len(got | want)} records identical")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())

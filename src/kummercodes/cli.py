"""Command-line front end.

Subcommands: semigroup, twopoint, code, verify-paper.  JSON is the canonical
output format (text and csv are views of the same dictionary), and identical
invocations produce byte-identical output.  This module only wires arguments
and formats reports: --G is read by rr.Divisor.parse, and --place and each
place label of --G by KummerCurve.place, next to the code that prints them.

Exit codes: 0 success; 2 bad curve configuration, or a curve, output or
matrix file that cannot be read or written; 3 precondition violation;
4 closed-form/oracle disagreement or a failed internal check (must never
happen); 5 a bundled reference check failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import onepoint, rr, twopoint
from .curve import ConfigError, curve_from_config, load_curve, parse_curve_config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_MISMATCH = 4
EXIT_VERIFY = 5

# bundled reference curves: equation tokens -> configuration text
REFERENCE_CONFIGS = {
    "f25_y3": "p = 5\ne = 2\nm = 3\nlambda = 1\nf = 0,4,0,0,0,1\n",   # y^3 = x^5 - x
    "f64_y9": "p = 2\ne = 6\nm = 9\nlambda = 1\nf = 0,1,1,0,1\n",      # y^9 = x^4 + x^2 + x
    "f25_y6": "p = 5\ne = 2\nm = 6\nlambda = 1\nf = 0,1,0,0,0,1\n",   # y^6 = x^5 + x
}


def _emit(payload: dict, fmt: str, out_path: str | None) -> None:
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:  # argparse allows only json, text and csv
        colon, sep = (": ", " ") if fmt == "text" else (",", ";")
        text = "".join(f"{key}{colon}{_flat(value, sep)}\n"
                       for key, value in sorted(payload.items()))
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(text)


def _flat(value, sep: str):
    if isinstance(value, list):
        return sep.join(_flat(v, sep) for v in value)
    return str(value)


def _fail(exit_code: int, message: str) -> int:
    sys.stderr.write(f"error[{exit_code}]: {message}\n")
    return exit_code


# ---------------------------------------------------------------------------
# subcommands


def cmd_semigroup(args) -> int:
    curve = load_curve(args.curve)
    place = curve.place(args.place)
    sem = onepoint.semigroup_at(curve, place)
    payload = sem.to_dict()
    payload["place"] = place.label()
    payload["symmetric"] = onepoint.is_symmetric(sem)
    payload["genus_curve"] = curve.genus
    _emit(payload, args.format, args.output)
    return EXIT_OK


def cmd_twopoint(args) -> int:
    curve = load_curve(args.curve)
    place = curve.place(args.place)
    if place.kind != "ramified":
        raise ValueError("the second point must be a finite ramified place")
    if args.gamma:
        payload = {"place": place.label(), "pairs": twopoint.gap_graph(curve).to_list(),
                   "genus": curve.genus}
    elif args.pure_gaps is not None:
        gaps = twopoint.enumerate_pure_gaps(curve, args.pure_gaps)
        payload = {
            "place": place.label(),
            "bound": args.pure_gaps,
            "count": len(gaps),
            "pure_gaps": [list(p) for p in gaps],
        }
    elif args.member is not None:
        a, b = args.member
        member_formula = twopoint.is_member(curve, a, b)
        member_oracle = rr.member_by_dims(curve, a, b, index=place.index)
        payload = {
            "a": a,
            "b": b,
            "place": place.label(),
            "member_formula": member_formula,
            "member_oracle": member_oracle,
        }
        pure_formula = pure_oracle = None
        if a >= 1 and b >= 1:
            pure_oracle = rr.pure_gap_by_dims(curve, a, b, index=place.index)
            pure_formula = twopoint.floor_pure_gap(curve.m, curve.r, a, b)
            payload["pure_gap_oracle"] = pure_oracle
            payload["pure_gap_formula"] = pure_formula
        if member_formula != member_oracle or pure_formula != pure_oracle:
            _emit(payload, args.format, args.output)
            return _fail(EXIT_MISMATCH, "closed form and dimension oracle disagree")
        if member_oracle:
            payload["verdict"] = "member"
        elif pure_oracle:
            payload["verdict"] = "gap, pure"
        else:
            payload["verdict"] = "gap"
    else:
        raise ValueError("choose one of --gamma, --pure-gaps, --member")
    _emit(payload, args.format, args.output)
    return EXIT_OK


def cmd_code(args) -> int:
    from . import code  # numpy comes with the code layer: only code and verify-paper load it

    curve = load_curve(args.curve)
    G = rr.Divisor.parse(args.G, curve)
    if args.omega:
        lin = code.residue_code(curve, G)
    else:
        lin = code.evaluation_code(curve, G)
    payload = lin.summary()
    payload["G"] = repr(G)
    payload["genus"] = curve.genus
    if args.exact_d:
        budget = code.DEFAULT_BUDGET if args.budget is None else args.budget
        exact = code.exact_min_distance(lin, budget=budget)
        if exact is None:
            sys.stderr.write(
                f"notice: q^k = {curve.field.q}**{lin.k} exceeds the budget "
                f"{budget}; exact distance omitted\n"
            )
        else:
            payload["exact_d"] = exact
    if args.shorten:
        short = code.shorten(lin, args.shorten)
        payload["shortened"] = short.summary()
    if args.matrix_out:
        with open(args.matrix_out, "w", encoding="utf-8", newline="\n") as out:
            out.writelines(lin.matrix_lines())
        payload["matrix_file"] = args.matrix_out
    _emit(payload, args.format, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bundled reference verification


def _check(label, got, want):
    if got != want:
        raise AssertionError(f"{label}: got {got!r}, want {want!r}")


def _verify_f25_y3_curve(curve, code):
    _check("genus", curve.genus, 4)
    _check("rational places", len(curve.rational_places()), 66)
    sem = onepoint.semigroup_at(curve, curve.place_infinity())
    _check("H(P_inf) generators", sem.generators, (3, 5))


def _verify_f25_y3_codes(curve, code):
    cl = code.evaluation_code(curve, rr.Divisor.at_infinity(5))
    _check("[n,k] for G=5P_inf", (cl.n, cl.k), (65, 3))
    _check("designed d", cl.designed_d, 60)
    _check("exact d", code.exact_min_distance(cl), 60)
    cl6 = code.evaluation_code(curve, rr.Divisor.at_infinity(6))
    _check("[n,k] for G=6P_inf", (cl6.n, cl6.k), (65, 4))
    _check("exact d", code.exact_min_distance(cl6), 59)


def _verify_f64_y9_curve(curve, code):
    _check("genus", curve.genus, 12)
    _check("rational places", len(curve.rational_places()), 257)
    inf = onepoint.semigroup_at(curve, curve.place_infinity())
    _check("G(P_inf)", inf.gaps, (1, 2, 3, 5, 6, 7, 10, 11, 14, 15, 19, 23))
    fin = onepoint.semigroup_at(curve, curve.ramified_place(1))
    _check("G(P)", fin.gaps, (1, 2, 3, 4, 5, 6, 10, 11, 12, 13, 19, 20))
    graph = twopoint.gap_graph(curve)
    _check("gap pair graph", graph.pairs, (
        (1, 20), (2, 13), (3, 6), (5, 19), (6, 12), (7, 5),
        (10, 11), (11, 4), (14, 10), (15, 3), (19, 2), (23, 1),
    ))


def _verify_f64_y9_puregap(curve, code):
    _check("(10,10) floor criterion", twopoint.floor_pure_gap(curve.m, curve.r, 10, 10), True)
    _check("(10,10) dimension oracle", rr.pure_gap_by_dims(curve, 10, 10), True)


def _verify_f64_y9_code(curve, code):
    G = rr.Divisor(19, {1: 19})
    box = twopoint.box_for_divisor(curve, 19, 19)
    _check("box", (box.beta, box.gamma, box.t1, box.t2), (10, 10, 0, 0))
    om = code.residue_code(curve, G)
    _check("[n,k]", (om.n, om.k), (255, 228))
    _check("designed d", om.designed_d, 18)


def _verify_f25_y6_curve(curve, code):
    _check("genus", curve.genus, 10)
    _check("rational places", len(curve.rational_places()), 126)


def _verify_f25_y6_puregap(curve, code):
    _check("family pair", twopoint.known_pure_gap(5, 1), (13, 1))
    _check("(13,1) floor criterion", twopoint.floor_pure_gap(curve.m, curve.r, 13, 1), True)
    _check("(13,1) dimension oracle", rr.pure_gap_by_dims(curve, 13, 1), True)


def _verify_f25_y6_code(curve, code):
    G = rr.Divisor(25, {1: 1})
    box = twopoint.box_for_divisor(curve, 25, 1)
    _check("box", (box.beta, box.gamma, box.t1, box.t2), (13, 1, 0, 0))
    om = code.residue_code(curve, G)
    _check("[n,k]", (om.n, om.k), (124, 107))
    _check("designed d", om.designed_d, 10)


# (check id, curve token, check(curve, code layer)): cmd_verify imports the
# code layer once and hands it to every check
VERIFY_CHECKS = (
    ("f25_y3/curve", "f25_y3", _verify_f25_y3_curve),
    ("f25_y3/codes", "f25_y3", _verify_f25_y3_codes),
    ("f64_y9/curve", "f64_y9", _verify_f64_y9_curve),
    ("f64_y9/pure_gap", "f64_y9", _verify_f64_y9_puregap),
    ("f64_y9/code", "f64_y9", _verify_f64_y9_code),
    ("f25_y6/curve", "f25_y6", _verify_f25_y6_curve),
    ("f25_y6/pure_gap", "f25_y6", _verify_f25_y6_puregap),
    ("f25_y6/code", "f25_y6", _verify_f25_y6_code),
)


def cmd_verify(args) -> int:
    if args.list:
        for check_id, _, _ in VERIFY_CHECKS:
            sys.stdout.write(check_id + "\n")
        return EXIT_OK
    from . import code
    curves = {}
    for token, text in REFERENCE_CONFIGS.items():
        curves[token] = curve_from_config(parse_curve_config(text))
    failures = []
    for check_id, token, fn in VERIFY_CHECKS:
        try:
            fn(curves[token], code)
        except Exception as exc:  # noqa: BLE001 - report and continue
            sys.stdout.write(f"FAIL {check_id}: {exc}\n")
            failures.append((check_id, str(exc)))
            continue
        sys.stdout.write(f"PASS {check_id}\n")
    if failures:
        return _fail(EXIT_VERIFY, f"{failures[0][0]}: {failures[0][1]}")
    return EXIT_OK


def write_reference_configs(directory: str | Path) -> list[Path]:
    """Write the bundled reference curves as <token>.cfg config files, for
    inspection or as inputs to the other subcommands."""
    out = []
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for token, text in REFERENCE_CONFIGS.items():
        path = directory / f"{token}.cfg"
        path.write_text(text, encoding="utf-8", newline="\n")
        out.append(path)
    return out


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kummercodes",
        description="Weierstrass semigroups, pure gaps and AG codes on "
                    "curves y^m = f(x)^lambda",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--curve", required=True, help="curve config file")
        p.add_argument("--format", choices=("json", "text", "csv"), default="json")
        p.add_argument("--output", help="write the report here instead of stdout")

    p_sem = sub.add_parser("semigroup", help="one-point semigroup and gap set")
    common(p_sem)
    p_sem.add_argument("--place", default="inf",
                       help="'inf' or a ramified place index (default inf)")
    p_sem.set_defaults(fn=cmd_semigroup)

    p_two = sub.add_parser("twopoint", help="two-point pairs, pure gaps, membership")
    common(p_two)
    p_two.add_argument("--place", default="1", help="finite ramified place index")
    mode = p_two.add_mutually_exclusive_group()
    mode.add_argument("--gamma", action="store_true",
                      help="print the gap bijection pairs")
    mode.add_argument("--pure-gaps", type=int, metavar="BOUND",
                      help="enumerate pure gaps with coordinates in [1, BOUND]")
    mode.add_argument("--member", type=int, nargs=2, metavar=("A", "B"),
                      help="membership / pure-gap verdict for the pair (A, B)")
    p_two.set_defaults(fn=cmd_twopoint)

    p_code = sub.add_parser("code", help="build an AG code from a divisor")
    common(p_code)
    p_code.add_argument("--G", required=True,
                        help="divisor, e.g. '5P_inf' or '19P_inf + 19P_1'")
    p_code.add_argument("--omega", action="store_true",
                        help="build the dual (residue) code")
    p_code.add_argument("--exact-d", action="store_true",
                        help="brute-force the exact minimum distance")
    p_code.add_argument("--shorten", type=int, default=0, metavar="S",
                        help="also report the code shortened on S coordinates")
    p_code.add_argument("--budget", type=int,
                        help="scan for --exact-d only if q^k <= this positive "
                             "integer (default 2^24)")
    p_code.add_argument("--matrix-out", help="write the generator matrix here")
    p_code.set_defaults(fn=cmd_code)

    p_ver = sub.add_parser(
        "verify-paper",
        help="re-run the bundled reference constructions and check their "
             "published parameters",
    )
    p_ver.add_argument("--list", action="store_true", help="list check ids and exit")
    p_ver.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, str(exc))
    except OSError as exc:  # a file named on the command line
        return _fail(EXIT_CONFIG, str(exc))
    except ValueError as exc:
        return _fail(EXIT_PRECONDITION, str(exc))
    except rr.InternalCheckError as exc:
        return _fail(EXIT_MISMATCH, f"internal check failed: {exc}")


if __name__ == "__main__":
    raise SystemExit(main())

"""Operator-swap mutation testing of the tier-1 suite.

    python tools/mutants.py --seed 18 --count 40 src/kummercodes/twopoint.py src/kummercodes/onepoint.py

Each mutant swaps one comparison or arithmetic operator, at a site of the
named modules drawn with the seed, in a temporary copy of src/ and the test
inputs (tools/workcopy.py); the checkout is never written.  A mutant is
killed when the suite fails on it or runs past TIMEOUT_S; a survivor is a
gap in the tests or an equivalent mutant.
"""

import argparse
import ast
import random
import subprocess
import sys
from pathlib import Path

from workcopy import ROOT, run_suite, work_copy

TIMEOUT_S = 300
SWAPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
         ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="), ast.Add: ("+", "-"), ast.Sub: ("-", "+"),
         ast.Mult: ("*", "//"), ast.FloorDiv: ("//", "*"), ast.Mod: ("%", "//")}


def sites(path: Path):
    """(path, line, column, old, new) for each swappable operator whose operands
    meet on one line; ast columns are byte offsets."""
    lines = path.read_bytes().splitlines()
    for node in ast.walk(ast.parse(b"\n".join(lines))):
        if isinstance(node, ast.Compare):
            operands, ops = [node.left, *node.comparators], node.ops
        elif isinstance(node, ast.BinOp):
            operands, ops = [node.left, node.right], [node.op]
        else:
            continue
        for left, op, right in zip(operands, ops, operands[1:]):
            if type(op) in SWAPS and left.end_lineno == right.lineno:
                old, new = SWAPS[type(op)]
                col = lines[right.lineno - 1].index(old.encode(), left.end_col_offset)
                yield path, right.lineno, col, old, new


def suite_passes(work: Path) -> bool:
    try:
        return run_suite(work, "-x", timeout=TIMEOUT_S).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", type=Path, help="modules under src/ to mutate")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=30)
    args = parser.parse_args()
    pool = [site for f in args.files for site in sites(f.resolve())]
    chosen = sorted(random.Random(args.seed).sample(pool, min(args.count, len(pool))))
    with work_copy() as work:
        if not suite_passes(work):
            sys.exit("the suite fails on the unmutated copy")
        killed = 0
        for path, line, col, old, new in chosen:
            target, source = work / path.relative_to(ROOT), path.read_bytes().splitlines(True)
            text = source[line - 1]
            source[line - 1] = text[:col] + new.encode() + text[col + len(old):]
            target.write_bytes(b"".join(source))
            dead = not suite_passes(work)
            target.write_bytes(path.read_bytes())
            killed += dead
            print(f"{'killed  ' if dead else 'SURVIVED'} {path.relative_to(ROOT)}:{line}:{col + 1} "
                  f"{old} -> {new}   {text.decode().strip()}", flush=True)
    print(f"{killed} of {len(chosen)} killed (seed {args.seed})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

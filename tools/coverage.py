"""Statement coverage of src/kummercodes under the tier-1 suite, stdlib only.

    python tools/coverage.py

The suite runs in a temporary copy of the checkout (tools/workcopy.py) whose
src/ holds a sitecustomize.py.  The tests start their child interpreters on
that src/, so the hook traces the pytest process and every child, such as
`python -m kummercodes.cli`, with sys.settrace, and each process appends the
package lines it ran to a file when it exits.  A statement, as `ast` parses
it, counts as run when a line of its header ran (from its first decorator
to the line before its body, the whole statement if it has no body) or the
first statement of its body did; docstrings are not statements.  The only
exemption is a statement whose header carries ``# pragma: no cover``: it is
skipped together with everything nested in it.

Prints each unrun statement as path:line and a summary; exits 1 when a
statement is unrun or the suite fails.
"""

import argparse
import ast
import sys
from collections import defaultdict
from pathlib import Path

from workcopy import ROOT, run_suite, work_copy

PRAGMA = "# pragma: no cover"
PACKAGE = ROOT / "src" / "kummercodes"
HITS_DIR = ".coverage-lines"

HOOK = '''\
"""Line tracer that tools/coverage.py puts into a throwaway copy of the
checkout: records the lines of src/kummercodes that this process runs."""
import atexit
import os
import sys
import threading

_SRC = os.path.dirname(os.path.realpath(__file__))
_PKG = os.path.join(_SRC, "kummercodes") + os.sep
_names = {}  # co_filename -> its set of lines run, or None outside the package
_hits = {}   # real path -> the same set


def _local(frame, event, arg):
    if event == "line":
        _names[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    lines = _names.get(name, 0)
    if lines == 0:
        path = os.path.realpath(name)
        lines = _names[name] = _hits.setdefault(path, set()) if path.startswith(_PKG) else None
    return None if lines is None else _local


def _dump():
    sys.settrace(None)
    out = os.path.join(os.path.dirname(_SRC), "%s")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "%%d.txt" %% os.getpid()), "a") as fh:
        for path, lines in _hits.items():
            fh.write(os.path.relpath(path, _PKG) + "\\t" + " ".join(map(str, lines)) + "\\n")


atexit.register(_dump)
threading.settrace(_global)
sys.settrace(_global)
''' % HITS_DIR


class Report:
    def __init__(self):
        self.counted = self.exempt = 0
        self.unrun: list[int] = []


def _has_docstring(node) -> bool:
    return (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and bool(node.body) and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str))


def _blocks(node):
    """The statement lists nested in node, its own body first."""
    for name in ("body", "orelse", "finalbody"):
        block = getattr(node, name, None)
        if block:
            yield block[1:] if name == "body" and _has_docstring(node) else block
    for clause in [*getattr(node, "handlers", ()), *getattr(node, "cases", ())]:
        yield clause.body


def _check_block(block, lines, hit, report) -> bool:
    """Check each statement of block; return whether its first one ran."""
    ran = [_check(node, lines, hit, report) for node in block]
    return bool(ran) and ran[0]


def _check(node, lines, hit, report) -> bool:
    """Check node and the statements nested in it; return whether node ran."""
    start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    body = next(_blocks(node), None) if hasattr(node, "body") else None
    end = max(node.lineno, node.body[0].lineno - 1) if body is not None else node.end_lineno
    header = range(start, end + 1)
    if any(PRAGMA in lines[i - 1] for i in header):
        report.exempt += sum(isinstance(n, ast.stmt) for n in ast.walk(node))
        return True
    nested = [_check_block(block, lines, hit, report) for block in _blocks(node)]
    ran = any(i in hit for i in header) or bool(body) and nested[0]
    report.counted += 1
    if not ran:
        report.unrun.append(node.lineno)
    return ran


def check_module(source: str, hit: set[int]) -> Report:
    """The statements of one module's source that the lines in hit leave unrun."""
    tree, report = ast.parse(source), Report()
    _check_block(next(_blocks(tree), []), source.splitlines(), hit, report)
    report.unrun.sort()
    return report


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    hits = defaultdict(set)
    with work_copy() as work:
        (work / "src" / "sitecustomize.py").write_text(HOOK)
        result = run_suite(work)
        for dump in (work / HITS_DIR).glob("*.txt"):
            for row in dump.read_text().splitlines():
                name, _, nums = row.partition("\t")
                hits[name].update(map(int, nums.split()))
    counted = exempt = unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        report = check_module(source, hits[path.name])
        lines = source.splitlines()
        for line in report.unrun:
            print(f"{path.relative_to(ROOT)}:{line}  {lines[line - 1].strip()}")
        counted, exempt, unrun = (counted + report.counted, exempt + report.exempt,
                                  unrun + len(report.unrun))
    summary = (result.stdout.strip().splitlines() or ["no pytest output"])[-1]
    print(f"{counted} statements in {PACKAGE.relative_to(ROOT)}, {unrun} unrun, "
          f"{exempt} exempt by '{PRAGMA}'; pytest: {summary}")
    if result.returncode:
        sys.stderr.write(result.stdout[-4000:] + result.stderr[-4000:])
    return 1 if unrun or result.returncode else 0


if __name__ == "__main__":
    raise SystemExit(main())

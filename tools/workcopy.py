"""The throwaway checkout that tools/mutants.py and tools/coverage.py run the
tier-1 suite in, so that neither tool ever writes the real checkout."""

import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# everything the suite reads: the package, the tests, the benchmark whose
# hooks they check, the tools the sweep test runs, and the README they quote
COPIED = ("src", "tests", "perfbench", "tools", "README.md", "pyproject.toml")


@contextmanager
def work_copy():
    """Yield a temporary directory holding a copy of COPIED; removed on exit."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in COPIED:
            copy = shutil.copytree if (ROOT / name).is_dir() else shutil.copy
            copy(ROOT / name, work / name)
        yield work


def run_suite(work: Path, *pytest_args: str, timeout: float | None = None):
    """Run pytest in the copy, on the copy's src/, and return the CompletedProcess."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *pytest_args]
    return subprocess.run(cmd, cwd=work, env={**os.environ, "PYTHONPATH": str(work / "src")},
                          capture_output=True, text=True, timeout=timeout)

"""Record the sha256 of every generator matrix the benchmark can ask for.

    python3 perfbench/record_hashes.py      (from the checkout root)

The cli_codes jobs that pass --matrix-out draw G from the finite lists in
jobs.py; this writes one hash per (curve, G, code kind) to
matrix_sha256.json.  The committed file was recorded at the commit that
added the benchmark, so later commits are checked against that output.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import jobs

CATALOG = (
    [jobs.CliJob("record", "code", "f25_y3", a, 0, matrix_out=True) for a in jobs.F25_MATRIX_A]
    + [jobs.CliJob("record", "code", "f64_y9", a, b, omega=True, matrix_out=True)
       for a, b in jobs.F64_MATRIX_G]
)


def main() -> int:
    root = Path.cwd()
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    env.pop("KUMMER_BUDGET", None)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=root))
    try:
        configs = jobs.write_curve_configs(work)
        matrix = work / "generator.txt"
        hashes = {}
        for job in CATALOG:
            subprocess.run([sys.executable, "-m", "kummercodes.cli",
                            *job.argv(configs, matrix)],
                           env=env, check=True, stdout=subprocess.DEVNULL)
            hashes[job.matrix_key] = hashlib.sha256(matrix.read_bytes()).hexdigest()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    jobs.MATRIX_SHA256.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    print(f"recorded {len(hashes)} matrix hashes in {jobs.MATRIX_SHA256}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Quick self-check of the benchmark: one job per workload, both modes.

    python3 perfbench/selfcheck.py      (from the checkout root, ~1 minute)

For every workload it runs run.py with --jobs 1, untraced and traced, and
asserts that the last line is a correct result carrying exactly the
end-to-end or per-layer metrics named in BENCHMARK.json, with their units.
It also checks that run.py fails, without a result, in a directory holding
only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, workload: str, trace: int, extra=()) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(workload: str, trace: int) -> None:
    proc = run_bench(Path.cwd(), workload, trace, ["--jobs", "1"])
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0, proc.stdout
    specs = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    want = {spec["name"]: spec["unit"] for spec in specs}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{workload} trace={trace}: metric names or units differ: " \
        f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}"
    if not trace:
        zero = [name for name, m in result["metrics"].items() if not m["value"] > 0]
        assert not zero, f"{workload}: end-to-end metrics not positive: {zero}"
    print(f"ok  {workload} trace={trace}: {len(got)} metrics")


def check_fails_without_program() -> None:
    bare = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=Path.cwd()))
    try:
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "cli_codes", 0)
        assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  fails without src/kummercodes")


def main() -> int:
    for workload in (w["name"] for w in BENCH["workloads"]):
        for trace in (0, 1):
            check_result(workload, trace)
    check_fails_without_program()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

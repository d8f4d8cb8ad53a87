"""Benchmark harness for kummercodes.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout (it needs src/kummercodes).  Workloads:

* cli_codes    - fresh `python -m kummercodes.cli` processes building C_L
                 and C_Omega codes on four curves (q = 25, 64, 256), some
                 shortened or written out, plus verify-paper;
* min_distance - fresh CLI processes running `code --exact-d` on small-k
                 codes (q^k near 2^18) and one over-budget skip;
* theory_sweep - one long-lived library process answering the semigroup,
                 gap-graph, pure-gap, membership and box queries for every
                 curve of the 2 <= m <= 10, 2 <= r <= 6 grid.

Each is a closed loop with one client.  `--trace 0` measures the end-to-end
metrics; `--trace 1` runs the same jobs untraced and then through the
tracer, checks that stdout is byte-identical, and reports per-layer
metrics and the tracing overhead.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
from tracer import layer_metrics, merge  # noqa: E402

WORKLOADS = ("cli_codes", "min_distance", "theory_sweep")
SETUP_REPEATS = 7
CLI_TIMEOUT_S = 60.0
WORKER_SLACK_S = 60.0            # theory worker: time allowed beyond its window
TAIL_BEYOND = 10                 # samples beyond the reported tail percentile
COMPARE_SHARE = 0.4              # share of --seconds for each half of a traced run
WORKER = str(HERE / "worker.py")


def job_env(root: Path) -> dict[str, str]:
    """The same environment for every child: no budget override, fixed hash
    seed, the checkout's src first on the path, single-threaded numpy."""
    env = {k: v for k, v in os.environ.items() if k != "KUMMER_BUDGET"}
    env.update(PYTHONHASHSEED="0", PYTHONPATH=str(root / "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


@dataclass
class Proc:
    wall: float
    cpu: float
    rss_mb: float
    rc: int
    timed_out: bool
    out: bytes
    err: bytes


def spawn(argv: list[str], env: dict, work: Path, timeout: float) -> Proc:
    """Run a child to completion and read its own rusage through wait4.

    The child writes stdout/stderr to files (no pipe can fill up); a pidfd
    lets the parent wait with a timeout, after which the child is killed and
    the job counts as failed.
    """
    out_path, err_path = work / "stdout", work / "stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
    ]
    start = perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], timeout)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
    wall = perf_counter() - start
    return Proc(wall=wall, cpu=usage.ru_utime + usage.ru_stime,
                rss_mb=usage.ru_maxrss / 1024.0, rc=os.waitstatus_to_exitcode(status),
                timed_out=not ready, out=out_path.read_bytes(), err=err_path.read_bytes())


def measure_setup(workload: str, env: dict, work: Path) -> tuple[float, list[str]]:
    """Median wall time of fresh interpreters importing kummercodes and
    building the workload's curves."""
    argv = [WORKER, "setup", "--workload", workload, "--configs", str(work)]
    walls, errors = [], []
    for _ in range(SETUP_REPEATS):
        proc = spawn(argv, env, work, CLI_TIMEOUT_S)
        walls.append(proc.wall)
        if proc.rc != 0:
            errors.append(f"setup exit {proc.rc}: {proc.err.decode(errors='replace')[-300:]}")
    return statistics.median(walls), errors


# ---------------------------------------------------------------------------
# end-to-end summary


def tail(latencies: list[float]) -> tuple[float, float]:
    """The latency with exactly TAIL_BEYOND samples above it (the maximum
    when there are too few samples), and the percentile that is."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(setup_s, walls, cpus, rss_mb, ok, elapsed) -> tuple[dict, list[str]]:
    tail_s, pct = tail(walls)
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (sum(ok) / elapsed, "1/s"),
        "job_p50_s": (statistics.median(walls), "s"),
        "job_tail_s": (tail_s, "s"),
        "cpu_per_job_s": (sum(cpus) / len(cpus), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = [f"job_tail_s is p{pct:.1f} of {len(walls)} timed jobs "
             f"({min(TAIL_BEYOND, len(walls) - 1)} samples above it)",
             f"error_rate {1 - sum(ok) / len(ok):.4f} ({len(ok) - sum(ok)} of {len(ok)})"]
    return metrics, notes


# ---------------------------------------------------------------------------
# CLI workloads


class CliRunner:
    def __init__(self, workload: str, seed: int, root: Path, work: Path, env: dict,
                 configs: dict[str, Path]):
        sys.path.insert(0, str(root / "src"))
        import kummercodes

        self.workload, self.work, self.env, self.configs = workload, work, env, configs
        self.matrix = work / "generator.txt"
        self.checker = jobs.CliChecker(kummercodes, self.configs)
        self.stream = jobs.cli_jobs(workload, seed)
        self.failures: list[str] = []

    def run(self, job: jobs.CliJob, traced_records: Path | None = None,
            job_id: int = 0) -> tuple[Proc, bool]:
        if self.matrix.exists():
            self.matrix.unlink()
        cli_argv = job.argv(self.configs, self.matrix)
        if traced_records is None:
            argv = ["-m", "kummercodes.cli", *cli_argv]
        else:
            argv = [WORKER, "cli", "--records", str(traced_records), "--job-id", str(job_id),
                    "--", *cli_argv]
        proc = spawn(argv, self.env, self.work, CLI_TIMEOUT_S)
        problem = "timeout" if proc.timed_out else self.checker.check(
            job, proc.rc, proc.out, proc.err, self.matrix)
        if problem:
            self.failures.append(f"{job.slot} {' '.join(cli_argv)}: {problem}")
        return proc, problem is None

    def untraced(self, seconds: float, setup_s: float, max_jobs: int) -> dict:
        self.run(next(self.stream))                      # warm-up, checked, not timed
        attempted_warm = 1
        procs, ok, by_slot = [], [], {}
        start = perf_counter()
        while len(procs) < max_jobs if max_jobs else perf_counter() - start < seconds:
            job = next(self.stream)
            proc, good = self.run(job)
            procs.append(proc)
            ok.append(good)
            by_slot.setdefault(job.slot, []).append(proc.wall)
        elapsed = perf_counter() - start
        metrics, notes = end_to_end(
            setup_s, [p.wall for p in procs], [p.cpu for p in procs],
            max(p.rss_mb for p in procs), ok, elapsed)
        notes.append("median wall per slot: " + ", ".join(
            f"{slot} {statistics.median(walls):.3f} s" for slot, walls in by_slot.items()))
        return self._result(metrics, notes, attempted_warm + len(ok))

    def traced(self, seconds: float, max_jobs: int) -> dict:
        """Run whole cycles, each job untraced and then traced, back to back
        so that drift in machine speed hits both halves alike."""
        cycle = jobs.cycle_length(self.workload)
        batch, plain, traced, records = [], [], [], []
        rec_path = self.work / "records.json"
        start = perf_counter()
        while (len(batch) < max_jobs if max_jobs else
               perf_counter() - start < seconds * 2 * COMPARE_SHARE or len(batch) % cycle):
            job = next(self.stream)
            batch.append(job)
            plain.append(self.run(job)[0])
            proc, _ = self.run(job, rec_path, len(batch) - 1)
            traced.append(proc)
            if (proc.rc, proc.out) != (plain[-1].rc, plain[-1].out):
                self.failures.append(f"{job.slot}: traced stdout/exit differs from untraced")
            if rec_path.exists():
                records.append(json.loads(rec_path.read_text(encoding="utf-8")))
                rec_path.unlink()
            else:
                self.failures.append(f"{job.slot}: traced job wrote no records")
        counts, self_s = merge(records)
        plain_wall, traced_wall = sum(p.wall for p in plain), sum(p.wall for p in traced)
        extra = {
            "cli.import_s": sum(r.get("import_s", 0.0) for r in records) / max(len(records), 1),
            "trace.overhead_ratio": traced_wall / plain_wall,
        }
        metrics = layer_metrics(counts, self_s, len(batch), extra)
        notes = [f"tracing overhead: untraced {len(batch) / plain_wall:.4f} jobs/s, "
                 f"traced {len(batch) / traced_wall:.4f} jobs/s over the same {len(batch)} jobs",
                 *reanchor(self.env, self.work)]
        return self._result(metrics, notes, 2 * len(batch))

    def _result(self, metrics, notes, attempted) -> dict:
        return {"metrics": metrics, "notes": notes, "attempted": attempted,
                "failures": self.failures}


# ---------------------------------------------------------------------------
# theory_sweep


def run_theory_worker(seed, env, work, flags) -> tuple[Proc, dict]:
    out = work / "theory.json"
    argv = [WORKER, "theory", "--seed", str(seed), "--out", str(out), *flags]
    window = float(flags[1]) if flags[0] == "--seconds" else 0.0
    proc = spawn(argv, env, work, timeout=WORKER_SLACK_S + window)
    data = json.loads(out.read_text(encoding="utf-8")) if proc.rc == 0 and out.exists() else None
    return proc, data


def theory_failures(proc: Proc, data: dict | None) -> list[str]:
    if data is None:
        why = "timeout" if proc.timed_out else f"exit {proc.rc}"
        return [f"theory worker {why}: {proc.err.decode(errors='replace')[-500:]}"]
    jobs_run = ([data["warmup"]] if data["warmup"] else []) + data["jobs"]
    return [j["error"] for j in jobs_run if j["error"]]


def theory_untraced(seed, seconds, setup_s, env, work, max_jobs) -> dict:
    limit = ["--jobs", str(max_jobs)] if max_jobs else ["--seconds", str(seconds)]
    proc, data = run_theory_worker(seed, env, work, limit)
    failures = theory_failures(proc, data)
    if data is None:
        return {"metrics": None, "notes": [], "attempted": 1, "failures": failures}
    done = data["jobs"]
    metrics, notes = end_to_end(
        setup_s, [j["wall"] for j in done], [j["cpu"] for j in done], proc.rss_mb,
        [j["error"] is None for j in done], data["elapsed"])
    return {"metrics": metrics, "notes": notes, "attempted": 1 + len(done),
            "failures": failures}


def theory_traced(seed, seconds, env, work, max_jobs) -> dict:
    limit = (["--jobs", str(max_jobs)] if max_jobs
             else ["--seconds", str(seconds * COMPARE_SHARE), "--whole-passes"])
    proc, plain = run_theory_worker(seed, env, work, limit)
    failures = theory_failures(proc, plain)
    if plain is None:
        return {"metrics": None, "notes": [], "attempted": 1, "failures": failures}
    plain_jobs = ([plain["warmup"]] if plain["warmup"] else []) + plain["jobs"]
    proc, traced = run_theory_worker(seed, env, work, ["--jobs", str(len(plain_jobs)), "--trace"])
    failures += theory_failures(proc, traced)
    if traced is None:
        return {"metrics": None, "notes": [], "attempted": len(plain_jobs) + 1,
                "failures": failures}
    for i, (a, b) in enumerate(zip(plain_jobs, traced["jobs"])):
        if a["digest"] != b["digest"]:
            failures.append(f"theory job {i}: traced output differs from untraced")
    counts, self_s = merge([traced["trace"]])
    plain_wall = sum(j["wall"] for j in plain_jobs)
    traced_wall = sum(j["wall"] for j in traced["jobs"])
    metrics = layer_metrics(counts, self_s, len(plain_jobs),
                            {"cli.import_s": 0.0, "trace.overhead_ratio": traced_wall / plain_wall})
    notes = [f"tracing overhead: untraced {len(plain_jobs) / plain_wall:.4f} jobs/s, traced "
             f"{len(plain_jobs) / traced_wall:.4f} jobs/s over the same {len(plain_jobs)} jobs",
             *reanchor(env, work)]
    return {"metrics": metrics, "notes": notes, "attempted": 2 * len(plain_jobs),
            "failures": failures}


def reanchor(env, work) -> list[str]:
    proc = spawn([WORKER, "reanchor", "--configs", str(work)], env, work, CLI_TIMEOUT_S)
    if proc.rc != 0:
        return [f"reanchor figures unavailable (exit {proc.rc})"]
    return proc.out.decode().splitlines()


# ---------------------------------------------------------------------------


def metadata(root: Path) -> dict:
    src = root / "src" / "kummercodes"
    files = sorted(src.glob("*.py"))
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    import numpy

    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in files),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kummercodes benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=0,
                        help="run this many jobs instead of a timed window (self-check)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "kummercodes" / "__init__.py").is_file():
        sys.stderr.write("error: run from a checkout root holding src/kummercodes\n")
        return 2
    env = job_env(root)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=root))
    try:
        configs = jobs.write_curve_configs(work)
        setup_s, setup_errors = 0.0, []
        if not args.trace:
            setup_s, setup_errors = measure_setup(args.workload, env, work)
        if args.workload == "theory_sweep":
            if args.trace:
                res = theory_traced(args.seed, args.seconds, env, work, args.jobs)
            else:
                res = theory_untraced(args.seed, args.seconds, setup_s, env, work, args.jobs)
        else:
            runner = CliRunner(args.workload, args.seed, root, work, env, configs)
            if args.trace:
                res = runner.traced(args.seconds, args.jobs)
            else:
                res = runner.untraced(args.seconds, setup_s, args.jobs)
        meta = metadata(root)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = setup_errors + res["failures"]
    print("meta " + json.dumps(meta, sort_keys=True))
    for note in res["notes"]:
        print(note)
    for failure in failures[:20]:
        print("FAILED " + failure.strip().replace("\n", " | "))
    if res["metrics"] is None:
        return 1
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in res["metrics"].items()}
    print(json.dumps({
        "correct": not failures,
        "attempted": res["attempted"],
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Child processes of the benchmark, one mode each.

    worker.py setup    --workload W --configs DIR
        import kummercodes and build the workload's curves, then exit
        (the parent times this from spawn to exit: setup_s);
    worker.py theory   --seed N --out FILE [--seconds T | --jobs N] [--trace]
        the theory_sweep library process: build the grid curves, run jobs
        in a closed loop and write per-job latency, CPU and output hashes;
    worker.py cli      --records FILE -- ARGV...
        one traced CLI job: wrap the library, run kummercodes.cli.main(ARGV)
        and write the trace records at exit;
    worker.py reanchor --configs DIR
        print the ROADMAP baseline figures this machine reproduces.

Run with PYTHONPATH pointing at the checkout's src directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import signal
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

import jobs
from tracer import Tracer

JOB_TIMEOUT_S = 30.0


class JobTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise JobTimeout(f"job exceeded {JOB_TIMEOUT_S} s")


def build_grid(kc):
    return [
        kc.make_curve(kc.make_field(p), m, lam,
                      kc.Polynomial.from_roots(kc.make_field(p), range(r)))
        for p, m, r, lam in jobs.grid_curves()
    ]


def cmd_setup(args) -> int:
    import kummercodes as kc

    if args.workload == "theory_sweep":
        build_grid(kc)
    else:
        for token in jobs.workload_curves(args.workload):
            kc.load_curve(Path(args.configs) / f"{token}.cfg")
    return 0


def cmd_theory(args) -> int:
    import kummercodes as kc

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(kc)
    curves = build_grid(kc)
    stream = jobs.theory_jobs(args.seed)
    signal.signal(signal.SIGALRM, _alarm)

    def run(job, job_id):
        if tracer:
            tracer.job = job_id
        t0, c0 = perf_counter(), process_time()
        signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
        try:
            out = jobs.run_theory_job(kc, curves[job.curve], job)
            digest, error = hashlib.sha256(out.encode()).hexdigest(), None
        except Exception:  # noqa: BLE001 - a failed job is counted, the loop goes on
            digest, error = None, traceback.format_exc(limit=3)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return {"wall": perf_counter() - t0, "cpu": process_time() - c0,
                "digest": digest, "error": error}

    result = {"warmup": None, "jobs": []}
    if args.jobs:
        result["jobs"] = [run(next(stream), i) for i in range(args.jobs)]
        result["elapsed"] = sum(j["wall"] for j in result["jobs"])
    else:
        result["warmup"] = run(next(stream), "warmup")
        cycle = jobs.cycle_length("theory_sweep") if args.whole_passes else 1
        start = perf_counter()
        while perf_counter() - start < args.seconds or len(result["jobs"]) % cycle:
            result["jobs"].append(run(next(stream), len(result["jobs"])))
        result["elapsed"] = perf_counter() - start
    if tracer:
        result["trace"] = tracer.records()
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


def cmd_cli(args) -> int:
    t0 = perf_counter()
    import kummercodes as kc
    import kummercodes.cli as cli

    import_s = perf_counter() - t0
    tracer = Tracer()
    tracer.install(kc)
    tracer.job = args.job_id
    try:
        rc = cli.main(args.argv)
    except SystemExit as exc:   # argparse errors exit like the real CLI
        rc = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    rec = tracer.records()
    rec["import_s"] = import_s
    Path(args.records).write_text(json.dumps(rec), encoding="utf-8")
    return rc


def cmd_reanchor(args) -> int:
    """Time the ROADMAP re-anchor figures in this fresh process."""
    import kummercodes as kc

    configs = Path(args.configs)
    for q, (p, e) in ((64, (2, 6)), (256, (2, 8))):
        field = kc.make_field(p, e)
        t0 = perf_counter()
        field.tables()
        print(f"reanchor Field.tables() q={q}: {perf_counter() - t0:.3f} s "
              f"(ROADMAP: {0.05 if q == 64 else 0.96} s)")
    f64 = kc.load_curve(configs / "f64_y9.cfg")
    t0 = perf_counter()
    lin = kc.residue_code(f64, kc.Divisor(19, {1: 19}))
    print(f"reanchor residue_code(19P_inf+19P_1) on F_64: {perf_counter() - t0:.3f} s "
          f"[{lin.n},{lin.k}] (ROADMAP: 1.2 s)")
    f25 = kc.load_curve(configs / "f25_y3.cfg")
    lin = kc.evaluation_code(f25, kc.Divisor.at_infinity(6))
    t0 = perf_counter()
    d = kc.exact_min_distance(lin)
    print(f"reanchor exact_min_distance [{lin.n},{lin.k}]_25: {perf_counter() - t0:.3f} s "
          f"d={d} (ROADMAP re-anchor lists only [65,5]_25 at 38.5 s)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True)
    p.add_argument("--configs", required=True)
    p.set_defaults(fn=cmd_setup)
    p = sub.add_parser("theory")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--jobs", type=int, default=0)
    p.add_argument("--whole-passes", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(fn=cmd_theory)
    p = sub.add_parser("cli")
    p.add_argument("--records", required=True)
    p.add_argument("--job-id", default="0")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p.set_defaults(fn=cmd_cli)
    p = sub.add_parser("reanchor")
    p.add_argument("--configs", required=True)
    p.set_defaults(fn=cmd_reanchor)
    args = parser.parse_args(argv)
    if getattr(args, "argv", None) and args.argv[0] == "--":
        args.argv = args.argv[1:]
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())

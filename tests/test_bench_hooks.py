"""The benchmark's tracer wraps library functions by name; a rename or a
deletion of one of them must fail here, not only in the slower benchmark
self-check.  Each run is a fresh process, so no memoised answer carries
over from the untraced run to the traced one."""

import json
from pathlib import Path

import pytest

from kummercodes.cli import write_reference_configs

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

_BODY = """
import contextlib, hashlib, io, json, sys
sys.path.insert(0, {perfbench!r})
import kummercodes as kc
import kummercodes.cli as cli
import jobs, worker
from tracer import Tracer

tracer = None
if {trace!r}:
    tracer = Tracer()
    tracer.install(kc)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = cli.main({argv!r})
with open({matrix!r}, "rb") as fh:
    matrix = hashlib.sha256(fh.read()).hexdigest()
job = next(j for j in jobs.theory_jobs(7) if j.best_box_n is not None)
answer = jobs.run_theory_job(kc, worker.build_grid(kc)[job.curve], job)
calls = sorted(k for k in tracer.counts if k.endswith(".calls")) if tracer else []
print(json.dumps({{"rc": rc, "stdout": out.getvalue(), "matrix": matrix,
                  "job": hashlib.sha256(answer.encode()).hexdigest(), "calls": calls}}))
"""


@pytest.fixture(scope="module")
def runs(tmp_path_factory, run_fresh):
    directory = tmp_path_factory.mktemp("hooks")
    write_reference_configs(directory)
    out = {}
    for trace in (False, True):
        matrix = str(directory / "gen.txt")
        argv = ["code", "--curve", str(directory / "f25_y3.cfg"), "--G", "64P_inf",
                "--omega", "--shorten", "2", "--exact-d", "--matrix-out", matrix]
        out[trace] = run_fresh(_BODY.format(perfbench=str(PERFBENCH), trace=trace,
                                            argv=argv, matrix=matrix))
    return out


def test_traced_run_matches_untraced(runs):
    plain, traced = runs[False], runs[True]
    assert plain["rc"] == 0 and json.loads(plain["stdout"])["exact_d"] > 0
    for key in ("rc", "stdout", "matrix", "job"):
        assert traced[key] == plain[key], key


def test_tracer_reaches_every_measured_layer(runs):
    # the layers a code build and a theory job pass through must be seen
    # through the tracer's wrappers, or their per-layer metrics read 0
    want = {"cli.main", "gf.tables", "curve.load", "curve.rational_places", "rr.basis",
            "rr.dim", "onepoint.semigroup_at", "twopoint.gap_graph",
            "twopoint.enumerate_pure_gaps", "twopoint.is_member",
            "twopoint.is_pure_gap", "twopoint.best_pure_gap_box",
            "twopoint.box_for_divisor", "code.residue_code", "code.evaluation_code",
            "code.rref", "code.nullspace", "code.shorten", "code.exact_min_distance"}
    assert {name + ".calls" for name in want} <= set(runs[True]["calls"])

"""Outside-in tracing of the kummercodes modules.

`Tracer.install(kc)` replaces the public functions and methods of each
module with wrappers, under every name through which they are looked up
(`from .gf import make_field` in curve.py, module globals in code.py, the
package namespace).  The library itself is not modified on disk.

Two kinds of wrapper:

* layer-entry calls open a span (name, start, end, parent span, job id),
  kept in memory and written out by the caller at exit;
* per-element calls (FieldElement ops, Polynomial.__call__,
  BasisFunction.evaluate, rr.dim, ...) only bump a counter and, for the
  timed ones, a time total: a span per call would swamp the run.

Both subtract their duration from the enclosing frame, so `self_s[name]`
is the time spent in a call minus the time covered by traced calls below
it.  Count-only wrappers are not timed and their cost stays in the caller.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

THEORY_PREFIXES = ("onepoint.", "twopoint.")


class Tracer:
    def __init__(self):
        self.job = None
        self.spans: list[tuple] = []         # (id, name, start, end, parent id, job)
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self._stack: list[list] = []         # open frames: [name, span id, child time]
        self._theory_depth = 0

    # -- wrappers ------------------------------------------------------------

    def _frame(self, name, fn, record, before=None, after=None):
        """Wrapper that times fn as a frame; `record` keeps a span for it."""
        stack, counts, self_s = self._stack, self.counts, self.self_s
        theory = name.startswith(THEORY_PREFIXES)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            if theory:
                if self._theory_depth == 0:
                    counts["theory.queries"] += 1
                self._theory_depth += 1
            state = before(args) if before else None
            span_id = len(self.spans) if record else None
            if record:
                self.spans.append(None)      # reserve the id, filled at exit
            frame = [name, span_id, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if theory:
                    self._theory_depth -= 1
                dur = end - start
                self_s[name] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                if record:
                    self.spans[span_id] = (span_id, name, start, end,
                                           parent[1] if parent else None, self.job)
            if after:
                after(self, args, state, result)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts
        theory = name.startswith(THEORY_PREFIXES)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            if theory and self._theory_depth == 0:
                counts["theory.queries"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def inside(self, name) -> bool:
        return any(frame[0] == name for frame in self._stack)

    # -- installation ----------------------------------------------------------

    def install(self, kc) -> None:
        """Wrap the public entry points of every kummercodes module."""
        gf, poly, curve, rr, code = kc.gf, kc.poly, kc.curve, kc.rr, kc.code
        onepoint, twopoint = kc.onepoint, kc.twopoint
        modules = [m for name, m in sys.modules.items()
                   if name == "kummercodes" or name.startswith("kummercodes.")]

        def patch_function(module, attr, wrapper_for):
            original = getattr(module, attr)
            wrapped = wrapper_for(original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

        def span(name, before=None, after=None):
            return lambda fn: self._frame(name, fn, True, before, after)

        def timed(name, after=None):
            return lambda fn: self._frame(name, fn, False, None, after)

        def count(name):
            return lambda fn: self._count(name, fn)

        # gf: table builds as spans with their size, element ops counted
        def tables_before(args):
            return args[0]._tables is None

        def tables_after(tr, args, fresh, tabs):
            if fresh:
                tr.counts["gf.tables.bytes"] += sum(
                    a.nbytes for a in (tabs.add, tabs.mul, tabs.neg, tabs.inv))

        Field, FieldElement = gf.Field, gf.FieldElement
        Field.tables = span("gf.tables", tables_before, tables_after)(Field.tables)
        patch_function(gf, "make_field", span("gf.make_field"))
        mul = count("gf.mul")
        FieldElement.__mul__ = mul(FieldElement.__mul__)
        FieldElement.__rmul__ = mul(FieldElement.__rmul__)
        FieldElement.__pow__ = count("gf.pow")(FieldElement.__pow__)

        # poly
        poly.Polynomial.__call__ = count("poly.eval")(poly.Polynomial.__call__)
        patch_function(poly, "roots_in_field", span("poly.roots_in_field"))

        # curve: every constructor counts as loading
        for attr in ("load_curve", "curve_from_config", "make_curve"):
            patch_function(curve, attr, span("curve.load"))

        def places_before(args):
            return args[0]._places is None

        def places_after(tr, args, fresh, places):
            if fresh:
                tr.counts["curve.rational_places.n"] += len(places)

        KummerCurve = curve.KummerCurve
        KummerCurve.rational_places = span(
            "curve.rational_places", places_before, places_after)(KummerCurve.rational_places)

        # rr
        def basis_after(tr, args, _, result):
            tr.counts["rr.basis.size"] += len(result.functions)

        def dim_after(tr, args, _, result):
            if tr._theory_depth:
                tr.counts["rr.dim.in_theory"] += 1

        patch_function(rr, "basis", span("rr.basis", after=basis_after))
        patch_function(rr, "dim", timed("rr.dim", dim_after))
        rr.BasisFunction.evaluate = timed("rr.evaluate")(rr.BasisFunction.evaluate)

        # onepoint / twopoint
        def box_after(tr, args, _, box):
            if box is not None:
                tr.counts["twopoint.box_for_divisor.hits"] += 1

        patch_function(onepoint, "semigroup_at", span("onepoint.semigroup_at"))
        for attr in ("gap_graph", "enumerate_pure_gaps", "best_pure_gap_box"):
            patch_function(twopoint, attr, span(f"twopoint.{attr}"))
        patch_function(twopoint, "box_for_divisor",
                       span("twopoint.box_for_divisor", after=box_after))
        patch_function(twopoint, "is_member", timed("twopoint.is_member"))
        patch_function(twopoint, "is_pure_gap", count("twopoint.is_pure_gap"))

        # code
        def rref_after(tr, args, _, result):
            tr.counts["code.rref.rows"] += len(args[1])
            if tr.inside("code.shorten"):
                tr.counts["code.shorten.rref_calls"] += 1

        def scan_after(tr, args, _, result):
            lin = args[0]
            if result is None:
                tr.counts["code.exact_min_distance.skipped"] += 1
            else:
                tr.counts["code.exact_min_distance.words"] += lin.field.q ** lin.k - 1

        patch_function(code, "rref", span("code.rref", after=rref_after))
        for attr in ("evaluation_code", "residue_code", "nullspace", "field_matmul",
                     "shorten"):
            patch_function(code, attr, span(f"code.{attr}"))
        patch_function(code, "exact_min_distance",
                       span("code.exact_min_distance", after=scan_after))

        # cli: only main; cli imports its collaborators as modules, so the
        # wrappers above are reached through their module attributes
        cli = sys.modules.get("kummercodes.cli")
        if cli is not None:
            patch_function(cli, "main", span("cli.main"))

    # -- output ----------------------------------------------------------------

    def records(self) -> dict:
        return {
            "spans": [s for s in self.spans if s is not None],
            "counts": dict(self.counts),
            "self_s": dict(self.self_s),
        }


def merge(records: list[dict]) -> tuple[Counter, defaultdict]:
    """Sum counts and self times over several processes' records."""
    counts: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    for rec in records:
        counts.update(rec["counts"])
        for name, secs in rec["self_s"].items():
            self_s[name] += secs
    return counts, self_s


def unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(("ratio", "per_query")):
        return "ratio"
    return "count"


def layer_metrics(counts, self_s, jobs: int, extra: dict[str, float]) -> dict[str, tuple]:
    """Per-layer metrics as name -> (value, unit), per job: totals over the
    traced jobs divided by their number; ratios are ratios of totals."""
    per = 1.0 / max(jobs, 1)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "gf.tables.s": self_s["gf.tables"] * per,
        "gf.tables.bytes": counts["gf.tables.bytes"] * per,
        "gf.mul.calls": counts["gf.mul.calls"] * per,
        "gf.pow.calls": counts["gf.pow.calls"] * per,
        "poly.eval.calls": counts["poly.eval.calls"] * per,
        "poly.roots_in_field.s": self_s["poly.roots_in_field"] * per,
        "curve.load.s": self_s["curve.load"] * per,
        "curve.rational_places.s": self_s["curve.rational_places"] * per,
        "curve.rational_places.n": counts["curve.rational_places.n"] * per,
        "rr.basis.s": self_s["rr.basis"] * per,
        "rr.basis.size": counts["rr.basis.size"] * per,
        "rr.evaluate.calls": counts["rr.evaluate.calls"] * per,
        "rr.evaluate.s": self_s["rr.evaluate"] * per,
        "rr.dim.calls": counts["rr.dim.calls"] * per,
        "rr.dim.s": self_s["rr.dim"] * per,
        "onepoint.semigroup_at.calls": counts["onepoint.semigroup_at.calls"] * per,
        "onepoint.semigroup_at.s": self_s["onepoint.semigroup_at"] * per,
        "twopoint.gap_graph.s": self_s["twopoint.gap_graph"] * per,
        "twopoint.enumerate_pure_gaps.s": self_s["twopoint.enumerate_pure_gaps"] * per,
        "twopoint.is_member.calls": counts["twopoint.is_member.calls"] * per,
        "twopoint.is_member.s": self_s["twopoint.is_member"] * per,
        "twopoint.is_pure_gap.calls": counts["twopoint.is_pure_gap.calls"] * per,
        "twopoint.best_pure_gap_box.s": self_s["twopoint.best_pure_gap_box"] * per,
        "twopoint.box_for_divisor.s": self_s["twopoint.box_for_divisor"] * per,
        "twopoint.box_for_divisor.hit_ratio": ratio(
            counts["twopoint.box_for_divisor.hits"], counts["twopoint.box_for_divisor.calls"]),
        "twopoint.dims_per_query": ratio(counts["rr.dim.in_theory"], counts["theory.queries"]),
        "code.evaluation_code.s": self_s["code.evaluation_code"] * per,
        "code.residue_code.s": self_s["code.residue_code"] * per,
        "code.rref.calls": counts["code.rref.calls"] * per,
        "code.rref.s": self_s["code.rref"] * per,
        "code.rref.rows": counts["code.rref.rows"] * per,
        "code.nullspace.s": self_s["code.nullspace"] * per,
        "code.field_matmul.s": self_s["code.field_matmul"] * per,
        "code.shorten.s": self_s["code.shorten"] * per,
        "code.shorten.rref_calls": counts["code.shorten.rref_calls"] * per,
        "code.exact_min_distance.s": self_s["code.exact_min_distance"] * per,
        "code.exact_min_distance.words": counts["code.exact_min_distance.words"] * per,
        "code.exact_min_distance.words_per_s": ratio(
            counts["code.exact_min_distance.words"], self_s["code.exact_min_distance"]),
        "code.exact_min_distance.skipped": counts["code.exact_min_distance.skipped"] * per,
        "cli.main.s": self_s["cli.main"] * per,
    }
    out.update(extra)
    return {name: (value, unit(name)) for name, value in out.items()}

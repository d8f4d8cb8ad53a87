"""Workload definitions: curves, seeded job streams and output checks.

Every workload is a fixed cycle of job slots.  The seed only picks the
parameters inside each slot (the divisor G, the shortening length, the
query pairs), from ranges chosen so that every choice costs about the same;
this keeps run-to-run spread low while no two seeds send the same inputs.
Nothing here imports the library: job generation is pure integer work, and
the checks that need the library receive it as an argument.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from math import gcd
from pathlib import Path

# Curve configurations written as config files into the run's work
# directory.  Place counts come from the paper (66, 126, 257) and, for the
# F_256 curve y^3 = x^4 + x, from counting: P_inf, 4 ramified places over
# 0 and the cube roots of unity, and 3 points over each of the 84 nonzero
# cubes among the other 252 values of f.
CURVES = {
    "f25_y3": {"cfg": {"p": 5, "e": 2, "m": 3, "lambda": 1, "f": [0, 4, 0, 0, 0, 1]},
               "places": 66},
    "f25_y6": {"cfg": {"p": 5, "e": 2, "m": 6, "lambda": 1, "f": [0, 1, 0, 0, 0, 1]},
               "places": 126},
    "f64_y9": {"cfg": {"p": 2, "e": 6, "m": 9, "lambda": 1, "f": [0, 1, 1, 0, 1]},
               "places": 257},
    "f256_y3": {"cfg": {"p": 2, "e": 8, "m": 3, "lambda": 1, "f": [0, 1, 0, 0, 1]},
                "places": 257},
}

MATRIX_SHA256 = Path(__file__).with_name("matrix_sha256.json")

VERIFY_PASS_LINES = 8


def write_curve_configs(directory: Path) -> dict[str, Path]:
    paths = {}
    for token, spec in CURVES.items():
        cfg = spec["cfg"]
        path = directory / f"{token}.cfg"
        path.write_text(
            f"p = {cfg['p']}\ne = {cfg['e']}\nm = {cfg['m']}\n"
            f"lambda = {cfg['lambda']}\nf = {','.join(map(str, cfg['f']))}\n",
            encoding="utf-8",
        )
        paths[token] = path
    return paths


# ---------------------------------------------------------------------------
# CLI jobs


@dataclass(frozen=True)
class CliJob:
    """One `python -m kummercodes.cli` invocation and what to check."""

    slot: str
    kind: str                  # "code" or "verify"
    curve: str | None = None
    a: int = 0                 # G = a*P_inf + b*P_1
    b: int = 0
    omega: bool = False
    shorten: int = 0
    exact_d: bool = False
    matrix_out: bool = False
    expect_skip: bool = False  # q^k exceeds the default budget

    @property
    def G(self) -> str:
        terms = []
        if self.a:
            terms.append(f"{self.a}P_inf")
        if self.b:
            terms.append(f"{self.b}P_1")
        return " + ".join(terms)

    @property
    def matrix_key(self) -> str:
        return f"{self.curve}|{self.G}|{'omega' if self.omega else 'L'}"

    def argv(self, configs: dict[str, Path], matrix_path: Path) -> list[str]:
        if self.kind == "verify":
            return ["verify-paper"]
        out = ["code", "--curve", str(configs[self.curve]), "--G", self.G]
        if self.omega:
            out.append("--omega")
        if self.exact_d:
            out.append("--exact-d")
        if self.shorten:
            out += ["--shorten", str(self.shorten)]
        if self.matrix_out:
            out += ["--matrix-out", str(matrix_path)]
        return out


def _pair(rng, a_range, b_range):
    return rng.randint(*a_range), rng.randint(*b_range)


# The median and the tail (the 11th-slowest job) of a run are order
# statistics, so each must fall well inside a group of slots of similar
# cost, not on the edge between two groups, or they jump between groups
# from run to run.  In both CLI cycles most jobs are "medium" jobs that
# hold both order statistics in 32 s runs of 13 to 30 jobs (slow and fast
# host); a few heavy and cheap slots sit on either side.
#
# cli_codes: code builds with 2g-2 < deg G < n on every reference curve plus
# the q = 256 curve, some shortened and written out, and verify-paper.  Only
# verify-paper scans for an exact distance.  Within a slot deg G varies by
# at most one (k, and so the basis size, follows deg G) and the seed mostly
# moves the split of G between P_inf and P_1, so a slot's cost barely
# depends on the seed.  Per cycle: 2 heavy jobs (~3 s), 10 medium (1-2 s)
# and 2 cheap f25_y3 jobs (~0.3 s), so that even a slow run of ~16 jobs
# keeps its 11th-slowest job among the medium ones.
F64_MATRIX_G = ((19, 19), (17, 21), (21, 17), (20, 18), (18, 20), (16, 22), (22, 16), (23, 15))
F25_MATRIX_A = tuple(range(14, 25))


def _split(rng, deg, b_range):
    """G = a*P_inf + b*P_1 with deg G within one of deg."""
    d = rng.randint(deg - 1, deg + 1)
    b = rng.randint(*b_range)
    return d - b, b


def _cli_codes_cycle(rng):
    yield CliJob("L_f25_y3_matrix", "code", "f25_y3", rng.choice(F25_MATRIX_A), 0,
                 matrix_out=True)
    yield CliJob("L_f64_y9", "code", "f64_y9", *_split(rng, 40, (8, 12)))
    yield CliJob("omega_f256_y3", "code", "f256_y3", *_split(rng, 20, (6, 14)), omega=True)
    yield CliJob("omega_f64_y9", "code", "f64_y9", *_split(rng, 38, (15, 23)), omega=True)
    yield CliJob("L_f256_y3", "code", "f256_y3", rng.randint(14, 16), 0)
    yield CliJob("omega_f25_y3_shorten", "code", "f25_y3", *_split(rng, 20, (2, 8)),
                 omega=True, shorten=rng.randint(10, 14))
    a, b = rng.choice(F64_MATRIX_G)
    yield CliJob("omega_f64_y9_shorten_matrix", "code", "f64_y9", a, b, omega=True,
                 shorten=rng.randint(10, 20), matrix_out=True)
    yield CliJob("L_f64_y9_deg44", "code", "f64_y9", *_split(rng, 44, (8, 12)))
    yield CliJob("verify_paper", "verify")
    yield CliJob("omega_f25_y6", "code", "f25_y6", *_split(rng, 60, (10, 20)), omega=True)
    yield CliJob("L_f256_y3_high", "code", "f256_y3", rng.randint(17, 19), 0)
    yield CliJob("omega_f64_y9_one_point", "code", "f64_y9", rng.randint(49, 51), 0,
                 omega=True)
    yield CliJob("L_f25_y6_shorten", "code", "f25_y6", *_split(rng, 80, (10, 20)),
                 shorten=rng.randint(25, 30))
    yield CliJob("L_f64_y9_deg36", "code", "f64_y9", *_split(rng, 36, (8, 12)))


# min_distance: exact-d scans of C_L codes near q^k = 2^18.  The divisor
# lists hold divisors G = a*P_inf + b*P_1 with the stated l(G); all of one
# slot have the same q^k and n within one, so the same scan size whatever
# the seed.  Per cycle: five [65,4]_25 scans (q^k = 2^18.6, holding the
# median and the tail), one [256,3]_64 scan (2^18, the largest memory peak)
# and one code over the default budget (q^k = 2^30) that takes the skip
# path.  Cheaper scans are left out: a slow run holds only ~13 jobs, and
# two cheap ones would already pull its 11th-slowest job out of the scans.
MD_DIVISORS = {
    ("f25_y3", 4): ((0, 6), (0, 7), (1, 6), (2, 5), (3, 3), (3, 4), (4, 3), (5, 2),
                    (6, 0), (6, 1), (7, 0)),
    ("f64_y9", 3): ((0, 8), (1, 8), (2, 8), (3, 7), (4, 6), (5, 6), (6, 6), (7, 5),
                    (8, 0), (8, 1), (8, 2), (8, 3), (8, 4)),
    ("f64_y9", 5): ((0, 14), (1, 14), (2, 13), (3, 9), (4, 8), (7, 7), (8, 6), (12, 0),
                    (12, 1)),
}
MD_CYCLE = (("f25_y3", 4), ("f25_y3", 4), ("f64_y9", 3), ("f25_y3", 4), ("f64_y9", 5),
            ("f25_y3", 4), ("f25_y3", 4))


def _min_distance_cycle(rng):
    for curve, k in MD_CYCLE:
        a, b = rng.choice(MD_DIVISORS[(curve, k)])
        yield CliJob(f"exact_{curve}_k{k}", "code", curve, a, b, exact_d=True,
                     expect_skip=(curve, k) == ("f64_y9", 5))


CLI_CYCLES = {"cli_codes": _cli_codes_cycle, "min_distance": _min_distance_cycle}


def cycle_length(workload: str) -> int:
    if workload == "theory_sweep":
        return len(grid_curves())
    return sum(1 for _ in CLI_CYCLES[workload](random.Random(0)))


def workload_curves(workload: str) -> list[str]:
    """The curve tokens a CLI workload's jobs use, in CURVES order."""
    used = {job.curve for job in CLI_CYCLES[workload](random.Random(0))}
    return [token for token in CURVES if token in used]


def cli_jobs(workload: str, seed: int):
    """Endless seeded job stream: the workload's cycle, fresh parameters
    on every pass."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield from CLI_CYCLES[workload](rng)


class CliChecker:
    """Checks a CLI job's exit code, stdout, stderr and matrix file.

    The expected n comes from the published place counts, the expected k
    from the library's own Riemann-Roch dimension (rr.dim), so a wrong rank
    in the evaluation matrix shows as a failure.
    """

    def __init__(self, kc, configs: dict[str, Path]):
        self.kc = kc
        self.curves = {token: kc.load_curve(path) for token, path in configs.items()}
        self.hashes = json.loads(MATRIX_SHA256.read_text(encoding="utf-8"))

    def check(self, job: CliJob, rc: int, out: bytes, err: bytes, matrix_path: Path) -> str | None:
        """None when the output is right, else the reason it is not."""
        if rc != 0:
            return f"exit {rc}: {err.decode(errors='replace').strip()[-200:]}"
        text = out.decode()
        if job.kind == "verify":
            lines = text.splitlines()
            if len(lines) != VERIFY_PASS_LINES or not all(s.startswith("PASS ") for s in lines):
                return f"verify-paper printed {lines!r}"
            return None
        rep = json.loads(text)
        curve = self.curves[job.curve]
        supp = (job.a > 0) + (job.b > 0)
        n = CURVES[job.curve]["places"] - supp
        deg = job.a + job.b
        if rep["q"] != curve.field.q or rep["n"] != n:
            return f"q, n = {rep['q']}, {rep['n']}; want {curve.field.q}, {n}"
        if deg < n:
            l_g = self.kc.rr.dim(curve, self.kc.rr.Divisor(job.a, {1: job.b} if job.b else {}))
            want_k = n - l_g if job.omega else l_g
            if rep["k"] != want_k:
                return f"k = {rep['k']}, want {want_k}"
        k = rep["k"]
        if job.exact_d:
            if job.expect_skip:
                if "exact_d" in rep or b"exceeds the budget" not in err:
                    return "expected the over-budget skip notice"
            elif not rep["designed_d"] <= rep.get("exact_d", -1) <= n - k + 1:
                return (f"exact_d {rep.get('exact_d')} outside "
                        f"[{rep['designed_d']}, {n - k + 1}]")
        if job.shorten:
            short = rep["shortened"]
            if (short["n"], short["k"]) != (n - job.shorten, k - job.shorten):
                return f"shortened [n, k] = [{short['n']}, {short['k']}]"
        if job.matrix_out:
            digest = hashlib.sha256(matrix_path.read_bytes()).hexdigest()
            want = self.hashes.get(job.matrix_key)
            if digest != want:
                return f"matrix sha256 {digest[:12]} != recorded {str(want)[:12]}"
        return None


# ---------------------------------------------------------------------------
# theory_sweep jobs


# primes hosting the grid curves, as in the test suite: p >= 3 keeps the
# two-point oracle valid, p >= r gives r distinct roots 0..r-1
GRID_PRIMES = (3, 5, 7, 11, 13)


def grid_curves() -> list[tuple[int, int, int, int]]:
    """(p, m, r, lambda) for 2 <= m <= 10, 2 <= r <= 6 and every valid
    lambda, f = x(x-1)...(x-r+1) over the smallest suitable prime field."""
    out = []
    for m in range(2, 11):
        for r in range(2, 7):
            p = next(pp for pp in GRID_PRIMES if pp >= r and m % pp)
            for lam in range(1, m):
                if gcd(m, r * lam) == 1:
                    out.append((p, m, r, lam))
    return out


@dataclass(frozen=True)
class TheoryJob:
    """All queries for one grid curve."""

    curve: int                              # index into grid_curves()
    member_pairs: tuple[tuple[int, int], ...]
    pure_pairs: tuple[tuple[int, int], ...]  # sampled against the oracle
    box: tuple[int, int]                    # box_for_divisor(a, b)
    best_box_n: int | None = None           # best_pure_gap_box(n=...)


def theory_jobs(seed: int):
    """Endless seeded stream: every pass visits the whole grid once, in a
    seeded order, with fresh query parameters."""
    rng = random.Random(f"theory_sweep:{seed}")
    grid = grid_curves()
    while True:
        order = list(range(len(grid)))
        rng.shuffle(order)
        for idx in order:
            _, m, r, lam = grid[idx]
            g = (m - 1) * (r - 1) // 2
            top = 2 * g + m
            bound = 4 * g
            best_n = None
            # genus <= 3 grid curves have no rectangle with 2g-2 < deg G
            if lam == 1 and g >= 4:
                best_n = rng.randint(4 * g + 4, 8 * g + 8)
            yield TheoryJob(
                curve=idx,
                member_pairs=tuple(_pair(rng, (0, top), (0, top)) for _ in range(6)),
                pure_pairs=tuple(_pair(rng, (1, bound), (1, bound)) for _ in range(4)),
                # a narrow band keeps the box search's cost fixed per curve
                box=_pair(rng, (g, g + 2), (g, g + 2)),
                best_box_n=best_n,
            )


class CrossCheckError(AssertionError):
    """A closed form disagreed with the Riemann-Roch dimension oracle."""


def run_theory_job(kc, curve, job: TheoryJob) -> str:
    """Run one curve's queries, cross-check each closed form against the
    dimension oracle, and return the answers as canonical JSON."""
    onepoint, twopoint, rr = kc.onepoint, kc.twopoint, kc.rr
    g = curve.genus
    sem_inf = onepoint.semigroup_at(curve, curve.place_infinity())
    sem_p = onepoint.semigroup_at(curve, curve.ramified_place(1))
    for sem, place in ((sem_inf, curve.place_infinity()), (sem_p, curve.ramified_place(1))):
        oracle = tuple(s for s in range(1, 2 * g) if rr.gap_by_dims(curve, place, s))
        if oracle != sem.gaps:
            raise CrossCheckError(f"{curve!r} {place.label()}: gaps {sem.gaps} != {oracle}")
    graph = twopoint.gap_graph(curve)
    pure = twopoint.enumerate_pure_gaps(curve)
    pure_set = set(pure)
    for a, b in job.pure_pairs:
        if ((a, b) in pure_set) != rr.pure_gap_by_dims(curve, a, b):
            raise CrossCheckError(f"{curve!r}: pure gap ({a}, {b})")
    members = []
    for a, b in job.member_pairs:
        verdict = twopoint.is_member(curve, a, b)
        if verdict != rr.member_by_dims(curve, a, b):
            raise CrossCheckError(f"{curve!r}: member ({a}, {b})")
        members.append(verdict)
    box = twopoint.box_for_divisor(curve, *job.box)
    box_out = None
    if box is not None:
        box_out = [box.beta, box.gamma, box.t1, box.t2]
        for a, b in box.points():
            if not rr.pure_gap_by_dims(curve, a, b):
                raise CrossCheckError(f"{curve!r}: box point ({a}, {b})")
    best = None
    if job.best_box_n is not None:
        best = twopoint.best_pure_gap_box(curve, n=job.best_box_n).to_dict()
    return json.dumps([
        list(sem_inf.gaps), list(sem_p.gaps), graph.to_list(),
        [list(p) for p in pure], members, box_out, best,
    ], sort_keys=True)

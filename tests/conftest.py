import contextlib
import json
import operator
import os
import subprocess
import sys
from math import gcd
from pathlib import Path
from unittest import mock

import pytest

import kummercodes
from kummercodes import NumericalSemigroup, Polynomial, make_curve, make_field
from kummercodes.gf import FieldElement

# primes used to host the sweep curves; p >= 3 keeps the two-point membership
# oracle's two-term combination argument valid, p >= r gives r distinct roots
GRID_PRIMES = (3, 5, 7, 11, 13)


def build_grid_curves():
    """Every curve in the sweep grid: 2 <= m <= 10, 2 <= r <= 6,
    1 <= lambda < m with gcd(m, r*lambda) = 1 and p not dividing m,
    f fully split with roots 0..r-1 over the smallest suitable prime field.
    """
    out = []
    for m in range(2, 11):
        for r in range(2, 7):
            p = next(pp for pp in GRID_PRIMES if pp >= r and m % pp)
            field = make_field(p)
            f = Polynomial.from_roots(field, range(r))
            for lam in range(1, m):
                if gcd(m, r * lam) == 1:
                    out.append(make_curve(field, m, lam, f))
    return out


@pytest.fixture(scope="session")
def grid_curves():
    return build_grid_curves()


@contextlib.contextmanager
def _element_arithmetic_refused():
    def refuse(*args):
        raise AssertionError("FieldElement arithmetic")

    # every operator the class defines, reflected ones included, so the
    # guard follows the class as operators come and go
    ops = [name for name, attr in vars(FieldElement).items() if callable(attr)
           and {name, name.replace("__r", "__", 1)} & vars(operator).keys()]
    assert {"__mul__", "__rmul__", "__pow__"} <= set(ops)
    with contextlib.ExitStack() as stack:
        for op in ops:
            stack.enter_context(mock.patch.object(FieldElement, op, refuse))
        yield


@pytest.fixture(scope="session")
def no_element_arithmetic():
    """A context manager under which every FieldElement operator raises, so
    that a test can show a route computes on the encodings alone."""
    return _element_arithmetic_refused


def _sieve_semigroup(generators):
    """The monoid generated by the given positive integers, sieved up to the
    Schur bound (n1 - 1)(nk - 1), past which everything is a member; their
    gcd must be 1, otherwise the gap set is infinite."""
    gens = sorted(set(int(g) for g in generators))
    if not gens or gens[0] < 1:
        raise ValueError("generators must be positive integers")
    if gcd(*gens) != 1:
        raise ValueError(f"gcd of generators is {gcd(*gens)}; the complement is infinite")
    bound = (gens[0] - 1) * (gens[-1] - 1)
    member = [True] + [False] * bound
    for n in range(1, bound + 1):
        member[n] = any(n >= x and member[n - x] for x in gens)
    return NumericalSemigroup(n for n in range(1, bound + 1) if not member[n])


@pytest.fixture(scope="session")
def from_generators():
    """from_generators(gens): the sieve oracle for the semigroup <gens>."""
    return _sieve_semigroup


@pytest.fixture(scope="session")
def f25():
    return make_field(5, 2)


@pytest.fixture(scope="session")
def f64():
    return make_field(2, 6)


@pytest.fixture(scope="session")
def curve_y3_x5x(f25):
    """y^3 = x^5 - x over F_25: genus 4, 66 rational places."""
    return make_curve(f25, 3, 1, Polynomial(f25, [0, 4, 0, 0, 0, 1]))


@pytest.fixture(scope="session")
def curve_y9_quartic(f64):
    """y^9 = x^4 + x^2 + x over F_64: genus 12, 257 rational places."""
    return make_curve(f64, 9, 1, Polynomial(f64, [0, 1, 1, 0, 1]))


@pytest.fixture(scope="session")
def curve_y6_x5x(f25):
    """y^6 = x^5 + x over F_25: genus 10, 126 rational places."""
    return make_curve(f25, 6, 1, Polynomial(f25, [0, 1, 0, 0, 0, 1]))


# VmHWM is the peak RSS of this process's own memory; ru_maxrss would carry
# over the peak of the process that spawned it, here pytest's
_PEAK_RSS_PRELUDE = (
    "import json\n"
    "def peak_mb():\n"
    "    with open('/proc/self/status') as status:\n"
    "        kb = next(line.split()[1] for line in status if line.startswith('VmHWM:'))\n"
    "    return int(kb) / 1024\n"
)


@pytest.fixture(scope="session")
def run_fresh():
    """run_fresh(body) runs body in a fresh interpreter that imports this
    checkout of the package and returns the JSON object it prints.  body
    may call peak_mb(), the process's peak RSS so far in MB, so that a bound
    on it measures only what the body allocates on top of the interpreter."""
    src = str(Path(kummercodes.__file__).resolve().parents[1])

    def run(body: str, timeout: float = 120) -> dict:
        result = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS_PRELUDE + body], capture_output=True,
            text=True, timeout=timeout, env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout)

    return run

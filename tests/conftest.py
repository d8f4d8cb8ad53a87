import json
import os
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

import kummercodes
from kummercodes import Polynomial, make_curve, make_field

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


_PEAK_RSS_PRELUDE = (
    "import json, resource\n"
    "def peak_mb():\n"
    "    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024\n"
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

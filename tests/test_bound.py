"""The two-point bound on C_Omega held against exact minimum distances.

residue_code gives C_Omega(a*P_inf + b*P_1) the Homma-Kim bound
deg G - (2g - 2) + t1 + t2 + 2 when G has a pure-gap box.  Here that bound
is checked against a full scan on a seeded sample of boxed codes over small
fields, and must be attained on a few tight fixtures.
"""

import random
from math import gcd

import pytest

from kummercodes import Polynomial, make_curve, make_field
from kummercodes.code import HOMMA_KIM, exact_min_distance, residue_code
from kummercodes.rr import Divisor
from kummercodes.twopoint import PureGapBox, best_pure_gap_box, enumerate_pure_gaps, verified_box

# (p, e) for q = 5, 7, 8, 9, 11, 13
BOUND_FIELDS = ((5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1))
SCAN_LIMIT = 2 ** 16  # q**k of the sampled codes


def _curve(p, e, m, r):
    field = make_field(p, e)
    return make_curve(field, m, 1, Polynomial.from_roots(field, range(r)))


@pytest.fixture(scope="module")
def bound_curves():
    """y^m = prod_{i<r} (x - i) over each field, m | q - 1, gcd(m, r) = 1."""
    out = []
    for p, e in BOUND_FIELDS:
        q = p ** e
        for m in range(2, q):
            for r in range(2, q + 1):
                if (q - 1) % m == 0 and gcd(m, r) == 1:
                    out.append(_curve(p, e, m, r))
    return out


def _sampled_divisors(curves, seed):
    """Endless seeded draws of (curve, box, a, b): a random pure gap with a
    random width and height in 0..2, kept when all its points are pure gaps,
    its bound is positive and deg G <= n + 2g - 2 (past that C_Omega = 0)."""
    rng = random.Random(seed)
    pure = {}  # curve -> (pure gaps in order, the same as a set)
    seen = set()
    while True:
        c = rng.choice(curves)
        if c not in pure:
            gaps = enumerate_pure_gaps(c)
            pure[c] = (gaps, set(gaps))
        gaps, gap_set = pure[c]
        if not gaps:
            continue
        box = PureGapBox(*rng.choice(gaps), rng.randrange(3), rng.randrange(3))
        a, b = box.divisor_coefficients()
        n = len(c.rational_places()) - 2
        if (c, a, b) in seen or a + b > n + 2 * c.genus - 2 or box.bound(c.genus) < 1:
            continue
        if not gap_set.issuperset(box.points()):
            continue
        seen.add((c, a, b))
        yield c, box, a, b


def test_two_point_bound_below_exact_distance(bound_curves):
    checked = tight = tight_boxed = 0
    for c, box, a, b in _sampled_divisors(bound_curves, seed=2015):
        if checked == 150:
            break
        try:
            code = residue_code(c, Divisor(a, {1: b}))
        except ValueError as exc:  # C_L(G) is all of F_q^n
            assert "k = 0" in str(exc)
            continue
        if c.field.q ** code.k > SCAN_LIMIT:
            continue
        # residue_code finds a box for G at least as wide as the drawn one
        assert code.d_kind == HOMMA_KIM and code.designed_d >= box.bound(c.genus)
        d = exact_min_distance(code)
        assert code.designed_d <= d, (c, a, b, code.designed_d, d)
        checked += 1
        if code.designed_d == d:
            tight += 1
            tight_boxed += code.designed_d > a + b - (2 * c.genus - 2) + 2
    # the sample must reach the codes where an off-by-one shows
    assert tight >= 40 and tight_boxed >= 20, (tight, tight_boxed)


@pytest.mark.parametrize("field, m, r, a, b, box, nk, d", [
    # [10,3] with designed d = exact d = 4 where the Goppa bound is 0
    ((7, 1), 6, 5, 2, 16, (1, 8, 1, 1), (10, 3), 4),
    ((3, 2), 8, 7, 19, 20, (9, 9, 2, 3), (14, 3), 6),
    ((13, 1), 12, 11, 53, 54, (25, 25, 4, 5), (22, 3), 10),
])
def test_two_point_bound_tight(field, m, r, a, b, box, nk, d):
    c = _curve(*field, m, r)
    code = residue_code(c, Divisor(a, {1: b}))
    assert (code.n, code.k) == nk
    assert code.d_kind == HOMMA_KIM
    assert code.designed_d == verified_box(c, *box).bound(c.genus) == d
    assert d > a + b - (2 * c.genus - 2) + 2  # the box is more than one pure gap
    assert exact_min_distance(code) == d


def test_best_box_designs_are_pure_and_kept(bound_curves):
    designs = 0
    for c in bound_curves:
        try:
            design = best_pure_gap_box(c, len(c.rational_places()) - 2)
        except ValueError as exc:  # no rectangle designs 2g - 2 < deg G < n
            assert str(exc).startswith("no pure")
            continue
        box = design.box
        assert verified_box(c, box.beta, box.gamma, box.t1, box.t2) == box
        a, b = box.divisor_coefficients()
        code = residue_code(c, Divisor(a, {1: b}))
        assert code.designed_d >= design.designed_distance
        designs += 1
    assert designs >= 5

import random
import time
from functools import lru_cache
from math import gcd

import pytest

from kummercodes import Polynomial, make_curve, make_field
from kummercodes import rr
from kummercodes.onepoint import NumericalSemigroup, gap_pairs, semigroup_at
from kummercodes.twopoint import (
    PureGapBox,
    best_pure_gap_box,
    box_for_divisor,
    enumerate_pure_gaps,
    floor_pure_gap,
    gap_graph,
    is_member,
    is_pure_gap,
    known_pure_gap,
    verified_box,
)

REFERENCE_PAIRS = (
    (1, 20), (2, 13), (3, 6), (5, 19), (6, 12), (7, 5),
    (10, 11), (11, 4), (14, 10), (15, 3), (19, 2), (23, 1),
)


def test_gap_graph_reference(curve_y9_quartic):
    graph = gap_graph(curve_y9_quartic)
    assert graph.pairs == REFERENCE_PAIRS
    assert graph.by_first()[14] == 10
    assert graph.by_second()[1] == 23


def test_gap_graph_small_cases(curve_y3_x5x):
    f5 = make_field(5)
    g1 = make_curve(f5, 3, 1, Polynomial.from_roots(f5, [0, 1]))
    assert gap_graph(g1).pairs == ((1, 1),)
    assert gap_graph(curve_y3_x5x).pairs == ((1, 7), (2, 2), (4, 4), (7, 1))


def test_gap_graph_coordinates_biject_gap_sets():
    # the one lattice walk against routes that do not read it: the sieve of
    # <m, r> at P_inf, the residue criterion at P, and the genus count
    for m in range(2, 41):
        for r in range(2, 41):
            if gcd(m, r) != 1:
                continue
            pairs = list(gap_pairs(m, r))
            g = (m - 1) * (r - 1) // 2
            assert len(pairs) == g
            firsts, seconds = zip(*pairs)
            assert sorted(firsts) == list(NumericalSemigroup.from_generators((m, r)).gaps)
            # every gap lies below 2g, and the criterion holds for none past it
            residue = [s for s in range(1, 2 * g + m) if r * (-s % m) > m * (1 + (s - 1) // m)]
            assert sorted(seconds) == residue


def test_graph_pairs_are_members(curve_y9_quartic):
    for a, b in gap_graph(curve_y9_quartic).pairs:
        assert is_member(curve_y9_quartic, a, b)
        assert rr.member_by_dims(curve_y9_quartic, a, b)


def test_membership_examples(curve_y9_quartic):
    c = curve_y9_quartic
    assert is_member(c, 0, 0)
    assert is_member(c, 19, 10)       # lub of (19, 2) and (14, 10)
    assert not is_member(c, 10, 10)
    assert is_member(c, 1, 20) and not is_member(c, 20, 1)  # pairing order matters
    with pytest.raises(ValueError):
        is_member(c, -1, 0)


def test_membership_matches_oracle_sweep(curve_y3_x5x):
    c = curve_y3_x5x
    bound = 4 * c.genus
    for a in range(bound + 1):
        for b in range(bound + 1):
            assert is_member(c, a, b) == rr.member_by_dims(c, a, b)


def test_floor_pure_gap_examples(curve_y9_quartic, curve_y6_x5x):
    assert floor_pure_gap(9, 4, 10, 10)
    assert floor_pure_gap(6, 5, 13, 1)
    assert not floor_pure_gap(9, 4, 0, 0)
    assert not floor_pure_gap(9, 4, 19, 10)  # member, so not a pure gap
    with pytest.raises(ValueError):
        floor_pure_gap(9, 4, -1, 1)


def test_is_pure_gap_dispatch(curve_y9_quartic):
    assert is_pure_gap(curve_y9_quartic, 10, 10)
    assert not is_pure_gap(curve_y9_quartic, 0, 0)
    # lambda > 1 uses the same floor criterion: pure gaps are intrinsic to
    # the function field, so the dimension oracle of the lambda = 2 model agrees
    f7 = make_field(7)
    f = Polynomial.from_roots(f7, [0, 1, 2])
    c_lam1 = make_curve(f7, 5, 1, f)
    c_lam2 = make_curve(f7, 5, 2, f)
    for a in range(1, 4 * c_lam1.genus + 1):
        for b in range(1, 4 * c_lam1.genus + 1):
            assert is_pure_gap(c_lam2, a, b) == rr.pure_gap_by_dims(c_lam2, a, b)
            assert is_pure_gap(c_lam2, a, b) == floor_pure_gap(5, 3, a, b)


def test_known_pure_gap_family():
    assert known_pure_gap(5, 1) == (13, 1)
    assert known_pure_gap(7, 1) == (33, 1)
    assert known_pure_gap(4, 1) == (6, 1)
    assert known_pure_gap(8, 1) == (46, 1)
    assert known_pure_gap(9, 1) == (61, 1)
    for q in (3, 6, 10, 12):  # q <= 3, or not a prime power
        with pytest.raises(ValueError):
            known_pure_gap(q, 1)
    with pytest.raises(ValueError):
        known_pure_gap(5, 0)


def test_known_pure_gap_against_oracle():
    # q = 7, l = 1: m = 8, r = 7; the oracle only needs (m, r, lambda)
    f7 = make_field(7)
    c = make_curve(f7, 8, 1, Polynomial.from_roots(f7, range(7)))
    assert rr.pure_gap_by_dims(c, 33, 1)
    # q = 4, l = 1: m = 5 over F_4 with f = x^4 + x (fully split)
    f4 = make_field(2, 2)
    c4 = make_curve(f4, 5, 1, Polynomial.from_roots(f4, range(4)))
    assert rr.pure_gap_by_dims(c4, 6, 1)


def test_enumerate_pure_gaps_frozen(curve_y3_x5x, curve_y9_quartic):
    frozen = ((1, 1), (1, 2), (1, 4), (2, 1), (4, 1))
    assert enumerate_pure_gaps(curve_y3_x5x, 16) == frozen
    oracle = tuple(
        (a, b)
        for a in range(1, 17)
        for b in range(1, 17)
        if rr.pure_gap_by_dims(curve_y3_x5x, a, b)
    )
    assert oracle == frozen
    big = enumerate_pure_gaps(curve_y9_quartic, 24)
    assert (10, 10) in big
    assert all(a >= 1 and b >= 1 for a, b in big)
    g = curve_y9_quartic.genus
    assert all(a + b <= 2 * g - 1 for a, b in big)
    # a pure gap is in particular a gap in each coordinate
    inf_gaps = set(semigroup_at(curve_y9_quartic, curve_y9_quartic.place_infinity()).gaps)
    p_gaps = set(semigroup_at(curve_y9_quartic, curve_y9_quartic.ramified_place(1)).gaps)
    assert all(a in inf_gaps and b in p_gaps for a, b in big)
    with pytest.raises(ValueError):
        enumerate_pure_gaps(curve_y3_x5x, 0)


def test_enumerate_default_bound(curve_y3_x5x):
    assert enumerate_pure_gaps(curve_y3_x5x) == enumerate_pure_gaps(curve_y3_x5x, 16)


def test_verified_box(curve_y9_quartic):
    box = verified_box(curve_y9_quartic, 10, 10, 0, 0)
    assert box.divisor_coefficients() == (19, 19)
    with pytest.raises(ValueError):
        verified_box(curve_y9_quartic, 7, 13, 0, 0)  # member pair inside


def test_best_box_reference_curves(curve_y9_quartic, curve_y6_x5x):
    design = best_pure_gap_box(curve_y9_quartic, 255)
    assert design.n == 255
    assert design.designed_distance == 18 and design.k == 228
    assert (design.box.beta, design.box.gamma, design.box.t1, design.box.t2) == (1, 19, 0, 0)
    assert design.deg_G == 38
    # the published choice (10, 10, 0, 0) designs the same [255, 228, >= 18]
    d3 = best_pure_gap_box(curve_y6_x5x, 124)
    assert (d3.box.beta, d3.box.gamma, d3.box.t1, d3.box.t2) == (1, 13, 0, 1)
    assert d3.designed_distance == 12 and d3.k == 106 and d3.n == 124


def test_box_design_to_dict(curve_y9_quartic):
    # the benchmark's theory jobs hash this dict
    assert best_pure_gap_box(curve_y9_quartic, 255).to_dict() == {
        "beta": 1, "gamma": 19, "t1": 0, "t2": 0, "inf_coeff": 1,
        "place_coeff": 37, "degG": 38, "designed_d": 18, "k": 228,
    }


def test_best_box_errors():
    f5 = make_field(5)
    g1 = make_curve(f5, 3, 1, Polynomial.from_roots(f5, [0, 1]))
    assert enumerate_pure_gaps(g1) == ()
    with pytest.raises(ValueError, match="no pure gaps"):
        best_pure_gap_box(g1, len(g1.rational_places()) - 2)


def test_box_for_divisor(curve_y9_quartic, curve_y6_x5x, curve_y3_x5x):
    box = box_for_divisor(curve_y9_quartic, 19, 19)
    assert (box.beta, box.gamma, box.t1, box.t2) == (10, 10, 0, 0)
    box3 = box_for_divisor(curve_y6_x5x, 25, 1)
    assert (box3.beta, box3.gamma, box3.t1, box3.t2) == (13, 1, 0, 0)
    assert box_for_divisor(curve_y3_x5x, 1, 1) == PureGapBox(1, 1, 0, 0)
    assert box_for_divisor(curve_y3_x5x, 2, 2) is None
    assert box_for_divisor(curve_y3_x5x, 0, 3) is None


def test_box_divisor_coefficients():
    box = PureGapBox(beta=10, gamma=10, t1=0, t2=0)
    assert box.divisor_coefficients() == (19, 19)
    assert list(PureGapBox(1, 2, 1, 0).points()) == [(1, 2), (2, 2)]


def _pure_gaps_reference(curve, bound):
    """The scan of every pair in [1, bound]^2, with no cap."""
    return tuple((a, b) for a in range(1, bound + 1) for b in range(1, bound + 1)
                 if floor_pure_gap(curve.m, curve.r, a, b))


def _box_reference(curve, inf_coeff, place_coeff):
    """box_for_divisor's former scan of every (t1, t2), with no cap on the
    coefficients; a rectangle is pure when it holds (t1 + 1)(t2 + 1) pure gaps."""
    count = _pure_gap_counts(curve.m, curve.r, 1 << max(inf_coeff, place_coeff).bit_length())
    best = None
    for t1 in range(inf_coeff + 1):
        beta, odd = divmod(inf_coeff + 1 - t1, 2)
        for t2 in range(place_coeff + 1):
            gamma, odd2 = divmod(place_coeff + 1 - t2, 2)
            if odd or odd2 or beta < 1 or gamma < 1:
                continue
            if best is not None and t1 + t2 <= best.t1 + best.t2:
                continue
            a, b = beta + t1, gamma + t2
            inside = count[a][b] - count[beta - 1][b] - count[a][gamma - 1] + count[beta - 1][gamma - 1]
            if inside == (t1 + 1) * (t2 + 1):
                best = PureGapBox(beta, gamma, t1, t2)
    return best


@lru_cache(maxsize=None)
def _pure_gap_counts(m, r, size):
    """count[a][b] = the number of pure gaps in [1, a] x [1, b], a, b <= size."""
    count = [[0] * (size + 1) for _ in range(size + 1)]
    for a in range(1, size + 1):
        for b in range(1, size + 1):
            count[a][b] = (count[a - 1][b] + count[a][b - 1] - count[a - 1][b - 1]
                           + floor_pure_gap(m, r, a, b))
    return count


def test_pure_gap_searches_match_unbounded_reference(
        curve_y3_x5x, curve_y6_x5x, curve_y9_quartic, grid_curves):
    # every pure gap lies in G(P_inf) x G(P), so coordinates stop at 2g - 1
    # and a box designs coefficients up to 4g - 3: the caps lose nothing
    references = [curve_y3_x5x, curve_y6_x5x, curve_y9_quartic]
    for c in [*references, *grid_curves[::9]]:
        g = c.genus
        for bound in (2 * g - 1, 4 * g - 1, 4 * g, 4 * g + 1, 4 * g + 5):
            assert enumerate_pure_gaps(c, bound) == _pure_gaps_reference(c, bound)
        # the largest coefficients a box reaches here, and those around 4g - 3
        widest = max((2 * max(pair) - 1 for pair in _pure_gaps_reference(c, 4 * g)), default=1)
        coeffs = {1, 2, g, *range(widest - 2, widest + 3), *range(4 * g - 6, 4 * g + 3)}
        coeffs = sorted(n for n in coeffs if n >= 1)
        for a in coeffs:
            for b in coeffs:
                assert box_for_divisor(c, a, b) == _box_reference(c, a, b), (c, a, b)
    # the staircase walk finds the scan's box for every G up to just past the cap
    for c in [*references, *random.Random(2015).sample(grid_curves, 5)]:
        top = 4 * c.genus + 1
        for a in range(1, top + 1):
            for b in range(1, top + 1):
                assert box_for_divisor(c, a, b) == _box_reference(c, a, b), (c, a, b)


def test_pure_gap_searches_bounded_by_genus(curve_y9_quartic, curve_y3_x5x):
    start = time.perf_counter()
    assert enumerate_pure_gaps(curve_y9_quartic, 10 ** 5) == enumerate_pure_gaps(curve_y9_quartic)
    assert box_for_divisor(curve_y3_x5x, 10 ** 5, 10 ** 5) is None
    assert box_for_divisor(curve_y9_quartic, 19, 10 ** 5) is None
    assert box_for_divisor(curve_y9_quartic, 10 ** 5, 19) is None
    # the uncapped scans of these inputs take minutes
    assert time.perf_counter() - start < 5
    # genus 465: the staircase walk takes O(a + b) rectangle tests, where
    # a test of every (t1, t2) took seconds
    f37 = make_field(37)
    c = make_curve(f37, 31, 1, Polynomial.from_roots(f37, range(32)))
    assert c.genus == 465
    for coeffs in ((465, 465), (900, 900)):
        start = time.perf_counter()
        assert box_for_divisor(c, *coeffs) is None
        assert time.perf_counter() - start < 1

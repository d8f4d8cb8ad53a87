"""Acceptance suite: one test per criterion, exact tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  The sweep criteria (4, 5) cover the full grid
{2 <= m <= 10, 2 <= r <= 6, 1 <= lambda < m, gcd(m, r*lambda) = 1, p !| m}
with fully split separable f over a suitable prime field.
"""

import random

from kummercodes import rr
from kummercodes.code import (
    evaluation_code,
    exact_min_distance,
    field_matmul,
    residue_code,
)
from kummercodes.onepoint import (
    check_consecutive_form,
    consecutive_genus,
    is_gap,
    is_symmetric,
    semigroup_at,
)
from kummercodes.rr import Divisor
from kummercodes.twopoint import box_for_divisor, floor_pure_gap, gap_graph, is_member


def _report(criterion: str, detail: str):
    print(f"PASS {criterion}: {detail}")


# -- criterion 1: genus-4 curve over F_25, exact one-point code parameters ---


def test_criterion_1_f25_one_point_codes(curve_y3_x5x):
    c = curve_y3_x5x
    assert len(c.rational_places()) == 66
    assert c.genus == 4

    code5 = evaluation_code(c, Divisor.at_infinity(5))
    assert (code5.n, code5.k) == (65, 3)
    assert c.field.q ** code5.k - 1 == 15_624
    assert exact_min_distance(code5) == 60

    code6 = evaluation_code(c, Divisor.at_infinity(6))
    assert (code6.n, code6.k) == (65, 4)
    assert c.field.q ** code6.k - 1 == 390_624
    assert exact_min_distance(code6) == 59

    _report(
        "criterion-1",
        "y^3 = x^5 - x / F_25: 66 places, g=4, C_L(5P_inf) = [65,3,60] and "
        "C_L(6P_inf) = [65,4,59] by full enumeration",
    )


# -- criterion 2: genus-12 curve over F_64 -----------------------------------


def test_criterion_2_f64_two_point_code(curve_y9_quartic):
    c = curve_y9_quartic
    assert len(c.rational_places()) == 257
    assert c.genus == 12

    inf_gaps = semigroup_at(c, c.place_infinity()).gaps
    assert inf_gaps == (1, 2, 3, 5, 6, 7, 10, 11, 14, 15, 19, 23)
    p_gaps = semigroup_at(c, c.ramified_place(1)).gaps
    assert p_gaps == (1, 2, 3, 4, 5, 6, 10, 11, 12, 13, 19, 20)
    assert gap_graph(c).pairs == (
        (1, 20), (2, 13), (3, 6), (5, 19), (6, 12), (7, 5),
        (10, 11), (11, 4), (14, 10), (15, 3), (19, 2), (23, 1),
    )

    assert floor_pure_gap(c.m, c.r, 10, 10)
    assert rr.pure_gap_by_dims(c, 10, 10)

    G = Divisor(19, {1: 19})
    box = box_for_divisor(c, 19, 19)
    assert (box.beta, box.gamma, box.t1, box.t2) == (10, 10, 0, 0)
    code = residue_code(c, G)
    assert (code.n, code.k) == (255, 228)
    assert code.designed_d == 18
    # exact minimum distance is out of enumeration reach and not claimed
    assert exact_min_distance(code) is None

    _report(
        "criterion-2",
        "y^9 = x^4+x^2+x / F_64: 257 places, g=12, gap sets and pair graph "
        "match, (10,10) pure by both routes, C_Omega(19P_inf+19P_1) = "
        "[255,228,>=18]",
    )


# -- criterion 3: genus-10 curve over F_25 -----------------------------------


def test_criterion_3_f25_two_point_code(curve_y6_x5x):
    c = curve_y6_x5x
    assert len(c.rational_places()) == 126
    assert c.genus == 10

    from kummercodes.twopoint import known_pure_gap

    assert known_pure_gap(5, 1) == (13, 1)
    assert floor_pure_gap(c.m, c.r, 13, 1)
    assert rr.pure_gap_by_dims(c, 13, 1)

    G = Divisor(25, {1: 1})
    box = box_for_divisor(c, 25, 1)
    assert (box.beta, box.gamma, box.t1, box.t2) == (13, 1, 0, 0)
    code = residue_code(c, G)
    assert (code.n, code.k) == (124, 107)
    assert code.designed_d == 10  # the lower bound; exactness is out of scope

    _report(
        "criterion-3",
        "y^6 = x^5+x / F_25: 126 places, g=10, (13,1) pure by family + floor "
        "criterion + oracle, C_Omega(25P_inf+P_1) = [124,107,>=10]",
    )


# -- criterion 4: one-point gap routes agree across the grid -----------------


def test_criterion_4_gap_route_equivalence(grid_curves):
    assert len(grid_curves) == 90
    for c in grid_curves:
        g = c.genus
        p1 = c.ramified_place(1)
        closed = set(semigroup_at(c, p1).gaps)
        criterion = {s for s in range(0, 2 * g + 1) if is_gap(c, p1, s)}
        oracle = {s for s in range(1, 2 * g + 1) if rr.gap_by_dims(c, p1, s)}
        assert closed == criterion == oracle, (c, "finite place routes differ")
        assert len(closed) == g

        pinf = c.place_infinity()
        closed_inf = set(semigroup_at(c, pinf).gaps)
        criterion_inf = {s for s in range(0, 2 * g + 1) if is_gap(c, pinf, s)}
        oracle_inf = {s for s in range(1, 2 * g + 1) if rr.gap_by_dims(c, pinf, s)}
        assert closed_inf == criterion_inf == oracle_inf, (c, "P_inf routes differ")
        assert len(closed_inf) == g

    _report(
        "criterion-4",
        f"{len(grid_curves)} grid curves: closed form, residue criterion and "
        "dimension oracle give identical gap sets; |G(P)| = g at P_1 and P_inf",
    )


# -- criterion 5: two-point routes agree across the grid ---------------------


def test_criterion_5_two_point_equivalence(grid_curves):
    checked_pairs = 0
    for c in grid_curves:
        bound = 4 * c.genus
        # raw dimension table: the oracle recomputed from first principles
        dims = {}
        for a in range(-1, bound + 1):
            for b in range(-1, bound + 1):
                dims[(a, b)] = rr.dim(c, Divisor(a, {1: b}))

        for a, b in gap_graph(c).pairs:
            assert dims[(a, b)] > dims[(a - 1, b)] and dims[(a, b)] > dims[(a, b - 1)]

        for a in range(bound + 1):
            for b in range(bound + 1):
                oracle_member = (
                    dims[(a, b)] > dims[(a - 1, b)] and dims[(a, b)] > dims[(a, b - 1)]
                )
                assert is_member(c, a, b) == oracle_member, (c, a, b)
                checked_pairs += 1

        for a in range(1, bound + 1):
            for b in range(1, bound + 1):
                oracle_pure = dims[(a, b)] == dims[(a - 1, b - 1)]
                assert floor_pure_gap(c.m, c.r, a, b) == oracle_pure, (c, a, b)

    _report(
        "criterion-5",
        f"lub-closure membership = oracle on {checked_pairs} pairs, pair "
        "graph inside the semigroup, floor pure-gap criterion = oracle on "
        "every grid curve",
    )


# -- criterion 6: consecutive-generator semigroups ---------------------------


def test_criterion_6_consecutive_semigroups(grid_curves, curve_y9_quartic):
    assert consecutive_genus(7, 3) == 12 == curve_y9_quartic.genus
    ok, built = check_consecutive_form(
        curve_y9_quartic, curve_y9_quartic.ramified_place(1)
    )
    assert ok and built.generators == (7, 8, 9)

    checked = 0
    for c in grid_curves:
        if c.m <= c.r or (c.m - 1) % c.r != 0:
            continue
        matches, _ = check_consecutive_form(c, c.ramified_place(1))
        assert matches, c
        sem = semigroup_at(c, c.ramified_place(1))
        assert is_symmetric(sem) == (c.m == c.r + 1), c
        checked += 1
    assert checked > 0

    _report(
        "criterion-6",
        f"<7,8,9> has genus 12 = curve genus; on {checked} grid curves with "
        "m = rt+1 the semigroup is the consecutive-generator one and is "
        "symmetric iff m = r + 1",
    )


# -- criterion 7: Riemann-Roch sanity ----------------------------------------


def test_criterion_7_riemann_roch_sanity(grid_curves, curve_y3_x5x, curve_y6_x5x):
    rng = random.Random(20240915)
    for c in grid_curves:
        g = c.genus
        for _ in range(100):
            coeffs = {i: rng.randint(0, 6) for i in range(1, c.r + 1)}
            deficit = 2 * g - 1 - sum(coeffs.values())
            inf = rng.randint(max(0, deficit), max(0, deficit) + g + 3)
            D = Divisor(inf, coeffs)
            assert D.degree >= 2 * g - 1
            assert rr.dim(c, D) == D.degree + 1 - g, (c, D)

        D = Divisor(rng.randint(0, g), {1: rng.randint(0, g)})
        for step in (Divisor.at_infinity(1), Divisor.at_place(1, 1)):
            cur = rr.dim(c, D)
            up = rr.dim(c, D + step)
            assert cur <= up <= cur + 1

    duality_checked = []
    for c, G in [
        (curve_y3_x5x, Divisor.at_infinity(5)),
        (curve_y3_x5x, Divisor.at_infinity(6)),
        (curve_y6_x5x, Divisor(25, {1: 1})),
        (grid_curves[0], Divisor.at_infinity(2 * grid_curves[0].genus)),
        (
            next(cc for cc in grid_curves if cc.lam > 1),
            Divisor.at_infinity(2 * next(cc for cc in grid_curves if cc.lam > 1).genus),
        ),
    ]:
        cl = evaluation_code(c, G)
        com = residue_code(c, G)
        assert cl.k + com.k == cl.n, (c, G)
        assert not field_matmul(c.field, cl.gen, com.gen.T).any()
        duality_checked.append((cl.n, cl.k))

    _report(
        "criterion-7",
        f"dim = deg + 1 - g on 100 random divisors per grid curve; unit-step "
        f"monotonicity; rank(C_L) + rank(C_Omega) = n on {duality_checked}",
    )

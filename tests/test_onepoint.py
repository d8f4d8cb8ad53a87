import time
from dataclasses import FrozenInstanceError
from math import gcd
from types import SimpleNamespace
from unittest import mock

import pytest

from kummercodes import Polynomial, make_curve, make_field, onepoint
from kummercodes import rr
from kummercodes.cli import EXIT_PRECONDITION, main
from kummercodes.onepoint import (
    NumericalSemigroup,
    check_consecutive_form,
    consecutive_genus,
    is_gap,
    is_symmetric,
    semigroup_at,
)


def test_semigroup_from_generators_basics(from_generators):
    s = from_generators((2, 3))
    assert s.gaps == (1,)
    assert (s.genus, s.frobenius, s.conductor) == (1, 1, 2)
    assert s.generators == (2, 3)
    assert 0 in s and 2 in s and 1 not in s and -1 not in s
    # the gaps define equality: unsorted, repeated gaps and a filled
    # generator cache change neither equality nor hash
    fresh = NumericalSemigroup((1, 1))
    assert "generators" not in vars(fresh) and fresh == s and hash(fresh) == hash(s)
    assert "generators" in vars(s) and s.generators is s.generators
    assert NumericalSemigroup((3, 1)) == NumericalSemigroup([1, 3]) != s
    for name in ("genus", "x"):
        with pytest.raises(AttributeError):
            setattr(s, name, 2)
    for sem in (s, fresh):  # the cached generators are read-only, filled or not
        with pytest.raises(FrozenInstanceError):
            sem.generators = (2,)
    assert repr(s) == "NumericalSemigroup(<2,3>, genus=1)"
    with pytest.raises(ValueError, match="positive"):
        NumericalSemigroup((0, 1))
    s56 = from_generators((5, 6))
    assert s56.genus == 10  # sieve is the brute-force genus count
    with pytest.raises(ValueError):
        from_generators((4, 6))  # gcd 2
    trivial = from_generators((1,))
    assert trivial.genus == 0 and trivial.conductor == 0 and trivial.generators == (1,)


def test_additive_closure_up_to_twice_conductor(from_generators):
    for gens in [(3, 5), (4, 9), (7, 8, 9), (5, 6)]:
        s = from_generators(gens)
        members = [n for n in range(2 * s.conductor + 1) if n in s]
        for a in members:
            for b in members:
                if a + b <= 2 * s.conductor:
                    assert a + b in s


def test_generators_are_the_sums_free_members(from_generators):
    sems = [s for m in range(2, 17) for r in range(2, 17) if gcd(m, r) == 1
            for s in onepoint.semigroups(m, r)]
    sems += [from_generators(g) for g in ((6, 10, 15), (11, 13, 17, 19))]
    for sem in sems:
        least = min(n for n in range(1, sem.conductor + 1) if n in sem)
        brute = tuple(n for n in range(1, sem.conductor + least + 1) if n in sem
                      and not any(k in sem and n - k in sem for k in range(1, n)))
        assert sem.generators == brute, sem.gaps


def test_generators_fast_at_large_genus():
    # y^(2g+1) = f with deg f = 2: H(P_inf) = <2, 2g+1>, and H(P) is generated
    # by the g + 1 consecutive integers g+1, ..., 2g+1, each of which a
    # member-by-member search would test against every smaller integer
    g = 2 ** 14
    sem_inf, sem_p = onepoint.semigroups(2 * g + 1, 2)
    start = time.perf_counter()
    assert sem_inf.generators == (2, 2 * g + 1)
    assert sem_p.generators == tuple(range(g + 1, 2 * g + 2))
    assert time.perf_counter() - start < 1.0


def test_reference_gap_sets(curve_y9_quartic, curve_y3_x5x):
    inf = semigroup_at(curve_y9_quartic, curve_y9_quartic.place_infinity())
    assert inf.gaps == (1, 2, 3, 5, 6, 7, 10, 11, 14, 15, 19, 23)
    assert inf.generators == (4, 9)
    fin = semigroup_at(curve_y9_quartic, curve_y9_quartic.ramified_place(1))
    assert fin.gaps == (1, 2, 3, 4, 5, 6, 10, 11, 12, 13, 19, 20)
    assert fin.generators == (7, 8, 9)
    # genus-4 curve: closed form cross-checked against the dimension oracle
    fin3 = semigroup_at(curve_y3_x5x, curve_y3_x5x.ramified_place(1))
    assert fin3.gaps == (1, 2, 4, 7)
    oracle = tuple(
        s for s in range(1, 2 * curve_y3_x5x.genus + 1)
        if rr.gap_by_dims(curve_y3_x5x, curve_y3_x5x.ramified_place(1), s)
    )
    assert fin3.gaps == oracle
    inf3 = semigroup_at(curve_y3_x5x, curve_y3_x5x.place_infinity())
    assert inf3.generators == (3, 5)


def test_gap_criterion_examples(curve_y9_quartic):
    p1 = curve_y9_quartic.ramified_place(1)
    assert is_gap(curve_y9_quartic, p1, 1)       # t = 8: 4*(8/9) > 1
    assert not is_gap(curve_y9_quartic, p1, 7)   # 7 generates H(P)
    assert not is_gap(curve_y9_quartic, p1, 0)
    assert not is_gap(curve_y9_quartic, p1, 9)   # multiples of m: t = 0
    assert not is_gap(curve_y9_quartic, p1, 18)
    pinf = curve_y9_quartic.place_infinity()
    assert not is_gap(curve_y9_quartic, pinf, 4)  # 4 in <4, 9>
    assert is_gap(curve_y9_quartic, pinf, 23)
    with pytest.raises(ValueError):
        is_gap(curve_y9_quartic, p1, -1)
    ordinary = curve_y9_quartic.rational_places()[-1]
    with pytest.raises(ValueError):
        is_gap(curve_y9_quartic, ordinary, 1)


def test_three_routes_agree_on_sample(grid_curves):
    # full grid runs in the acceptance module; probe a few cells here
    sample = [c for c in grid_curves if (c.m, c.r, c.lam) in
              {(3, 5, 1), (9, 4, 1), (5, 3, 2), (7, 2, 3), (8, 5, 7)}]
    assert len(sample) == 5
    for c in sample:
        p1 = c.ramified_place(1)
        closed = set(semigroup_at(c, p1).gaps)
        criterion = {s for s in range(2 * c.genus + 1) if is_gap(c, p1, s)}
        oracle = {s for s in range(1, 2 * c.genus + 1) if rr.gap_by_dims(c, p1, s)}
        assert closed == criterion == oracle
        assert len(closed) == c.genus


def test_gap_set_shape_properties(grid_curves):
    for c in grid_curves[:12]:
        for place in (c.place_infinity(), c.ramified_place(1)):
            sem = semigroup_at(c, place)
            assert sem.genus == c.genus
            assert sem.frobenius <= 2 * c.genus - 1
            assert 1 in sem.gaps


def test_consecutive_genus(from_generators):
    assert consecutive_genus(7, 3) == 12
    assert consecutive_genus(2, 2) == 1
    assert consecutive_genus(5, 2) == 10
    assert consecutive_genus(5, 2) == from_generators((5, 6)).genus
    n = 10 ** 17 + 3  # <n, n+1> has genus (n - 1)n/2, past float precision
    assert consecutive_genus(n, 2) == (n - 1) * n // 2
    with pytest.raises(ValueError):
        consecutive_genus(5, 1)
    with pytest.raises(ValueError):
        consecutive_genus(1, 2)


def test_check_consecutive_form(curve_y9_quartic, curve_y3_x5x):
    ok, built = check_consecutive_form(curve_y9_quartic, curve_y9_quartic.ramified_place(1))
    assert ok and built.generators == (7, 8, 9)
    f5 = make_field(5)
    c32 = make_curve(f5, 3, 1, Polynomial.from_roots(f5, [0, 1]))
    ok32, built32 = check_consecutive_form(c32, c32.ramified_place(1))
    assert ok32 and built32.generators == (2, 3)
    f3 = make_field(3)
    c83 = make_curve(f3, 8, 1, Polynomial.from_roots(f3, [0, 1, 2]))
    with pytest.raises(ValueError):
        check_consecutive_form(c83, c83.ramified_place(1))  # 8 != 3t + 1
    with pytest.raises(ValueError, match="not of the form"):
        check_consecutive_form(curve_y3_x5x, curve_y3_x5x.ramified_place(1))  # m = 3 < r = 5
    with pytest.raises(ValueError):
        check_consecutive_form(curve_y9_quartic, curve_y9_quartic.place_infinity())


def test_consecutive_form_closed_form_matches_sieve(from_generators):
    # the closed-form gap test against the sieve of <n, ..., m>, for every
    # m = r*t + 1 below 60; the sieve runs to the Schur bound (n - 1)(m - 1)
    f61 = make_field(61)  # prime to every m here, and room for r < m distinct roots
    cases = 0
    for m in range(3, 60):
        for r in range(2, m):
            if (m - 1) % r:
                continue
            c = make_curve(f61, m, 1, Polynomial.from_roots(f61, range(r)))
            ok, built = check_consecutive_form(c, c.ramified_place(1))
            assert ok and built == from_generators(range(m - m // r, m + 1))
            cases += 1
    assert cases == 189


def test_consecutive_form_at_large_genus():
    # m = 20001, r = 2: g = 10000, where the sieve to the Schur bound took
    # seconds; semigroup_at's genus cap refuses past MAX_GENUS first
    f5 = make_field(5)
    c = make_curve(f5, 20001, 1, Polynomial.from_roots(f5, [0, 1]))
    start = time.perf_counter()
    ok, built = check_consecutive_form(c, c.ramified_place(1))
    assert time.perf_counter() - start < 1
    assert ok and built.gaps == tuple(range(1, 10001))  # n = 10001, so gaps 1..n-1
    huge = make_curve(f5, 2 * onepoint.MAX_GENUS + 7, 1, Polynomial.from_roots(f5, [0, 1]))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="MAX_GENUS"):
        check_consecutive_form(huge, huge.ramified_place(1))
    assert time.perf_counter() - start < 1


def test_is_symmetric(from_generators):
    assert is_symmetric(from_generators((2, 3)))
    s789 = from_generators((7, 8, 9))
    assert s789.genus == 12 and s789.frobenius == 20
    assert not is_symmetric(s789)
    with pytest.raises(ValueError):
        is_symmetric(NumericalSemigroup(()))


def test_symmetry_iff_m_equals_r_plus_one_sample():
    # consecutive-form curves: symmetric exactly when t = 1, i.e. m = r + 1
    f5 = make_field(5)
    c43 = make_curve(f5, 4, 1, Polynomial.from_roots(f5, [0, 1, 2]))  # m = r + 1
    sem = semigroup_at(c43, c43.ramified_place(1))
    assert is_symmetric(sem) and sem.frobenius == 2 * c43.genus - 1
    c94 = make_curve(
        make_field(5), 9, 1, Polynomial.from_roots(make_field(5), range(4))
    )  # m = 2r + 1
    assert not is_symmetric(semigroup_at(c94, c94.ramified_place(1)))


def test_semigroup_serialization(curve_y9_quartic):
    sem = semigroup_at(curve_y9_quartic, curve_y9_quartic.place_infinity())
    d = sem.to_dict()
    assert d["generators"] == [4, 9]
    assert d["genus"] == 12 and d["frobenius"] == 23


def test_gap_test_at_infinity_is_a_closed_form(curve_y9_quartic, monkeypatch, from_generators):
    # is_gap at P_inf must not read the walk behind semigroups: with
    # semigroups stubbed to wrong sets it still matches the sieve of <m, r>
    wrong = (NumericalSemigroup(()), NumericalSemigroup(()))
    monkeypatch.setattr(onepoint, "semigroups", lambda m, r: wrong)
    pinf = curve_y9_quartic.place_infinity()
    for m in range(2, 41):
        for r in range(2, 41):
            if gcd(m, r) != 1:
                continue
            sieve = from_generators((m, r))
            curve = SimpleNamespace(m=m, r=r)
            got = [s for s in range(sieve.conductor + 2) if is_gap(curve, pinf, s)]
            assert tuple(got) == sieve.gaps, (m, r)


def test_walk_capped_by_genus(tmp_path, capsys):
    # y^(2g+1) = x^2 + x over F_2 has genus g
    assert onepoint.MAX_GENUS == 2 ** 16
    onepoint.gap_pairs(2 * onepoint.MAX_GENUS + 1, 2)  # at the cap: allowed
    with pytest.raises(ValueError, match="MAX_GENUS"):
        onepoint.gap_pairs(2 * onepoint.MAX_GENUS + 3, 2)
    with pytest.raises(ValueError, match="genus 65703 exceeds"):
        onepoint.gap_pairs(363, 364)  # g = 362 * 363 / 2: the cap reads both degrees
    cfg = tmp_path / "big.cfg"
    cfg.write_text(f"p = 2\ne = 1\nm = {2 * 65537 + 1}\nlambda = 1\nf = 0,1,1\n")
    for argv in (["semigroup", "--curve", str(cfg)],
                 ["twopoint", "--curve", str(cfg), "--gamma"],
                 ["twopoint", "--curve", str(cfg), "--member", "1", "1"]):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == EXIT_PRECONDITION and "genus 65537" in err and "MAX_GENUS" in err
        assert elapsed < 0.5


def test_gap_pair_count_is_checked():
    # a walk that lost its pairs is caught by a raise, which python -O keeps
    with mock.patch.object(onepoint, "sorted", create=True, return_value=[]):
        with pytest.raises(rr.InternalCheckError, match="0 gap pairs, want the genus 4"):
            onepoint.gap_pairs.__wrapped__(3, 5)

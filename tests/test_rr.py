import dataclasses
import random
import time
from collections import Counter
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kummercodes import Polynomial, load_curve, make_curve, make_field, rr
from kummercodes.cli import EXIT_PRECONDITION, main
from kummercodes.gf import is_prime
from kummercodes.onepoint import semigroup_at
from kummercodes.poly import is_separable, roots_in_field
from kummercodes.rr import (
    BasisFunction,
    Divisor,
    basis,
    dim,
    gap_by_dims,
    member_by_dims,
    pure_gap_by_dims,
)


def test_divisor_algebra():
    d = Divisor(5, {1: 2, 3: -1})
    assert d.degree == 6
    assert d.coeff(1) == 2 and d.coeff(2) == 0
    assert d.support_indices == (1, 3)
    assert d + Divisor(-5, {1: -2, 3: 1}) == Divisor()
    assert Divisor.at_infinity(4).coeff_inf == 4
    assert hash(Divisor(1, {1: 1})) == hash(Divisor(1, {1: 1}))
    assert Divisor(2, {1: 0}) == Divisor(2) and hash(Divisor(2, {1: 0})) == hash(Divisor(2))
    assert Divisor(0, {3: 1, 1: 2}) == Divisor(0, {1: 2, 3: 1}) != Divisor(0, {1: 2})
    # the stored form is accepted as input, so dataclasses.replace works
    assert Divisor(5, ((1, 2),)) == Divisor(5, {1: 2})
    assert dataclasses.replace(Divisor(5, {1: 2}), coeff_inf=3) == Divisor(3, {1: 2})
    for name in ("coeff_inf", "x"):
        with pytest.raises(AttributeError):
            setattr(d, name, 1)
    with pytest.raises(ValueError):
        Divisor(0, {0: 3})


def test_dim_reference_values(curve_y3_x5x, curve_y9_quartic, curve_y6_x5x):
    assert dim(curve_y3_x5x, Divisor.at_infinity(5)) == 3
    assert dim(curve_y3_x5x, Divisor.at_infinity(6)) == 4
    assert dim(curve_y9_quartic, Divisor(19, {1: 19})) == 27
    assert dim(curve_y6_x5x, Divisor(25, {1: 1})) == 17
    assert dim(curve_y3_x5x, Divisor()) == 1
    assert dim(curve_y3_x5x, Divisor(-1)) == 0
    assert dim(curve_y3_x5x, Divisor(2, {1: -4})) == 0


def test_riemann_bound_randomized(curve_y3_x5x, curve_y9_quartic, curve_y6_x5x):
    rng = random.Random(415)
    for c in (curve_y3_x5x, curve_y9_quartic, curve_y6_x5x):
        g = c.genus
        for _ in range(100):
            coeffs = {i: rng.randint(0, 8) for i in range(1, c.r + 1)}
            deficit = 2 * g - 1 - sum(coeffs.values())
            inf = rng.randint(max(0, deficit), max(0, deficit) + 2 * g)
            D = Divisor(inf, coeffs)
            assert D.degree >= 2 * g - 1
            assert dim(c, D) == D.degree + 1 - g


def test_dim_monotone_unit_steps(curve_y9_quartic):
    rng = random.Random(77)
    c = curve_y9_quartic
    for _ in range(40):
        D = Divisor(rng.randint(-3, 20), {i: rng.randint(-3, 8) for i in (1, 2, 3, 4)})
        base = dim(c, D)
        for step in [Divisor.at_infinity(1), Divisor.at_place(2, 1)]:
            up = dim(c, D + step)
            assert base <= up <= base + 1


def test_dim_independent_of_lambda():
    # the function field only depends on f and m when gcd(lambda, m) = 1
    rng = random.Random(7)
    f7 = make_field(7)
    f = Polynomial.from_roots(f7, [0, 1, 2])
    curves = [make_curve(f7, 5, lam, f) for lam in (1, 2, 3, 4)]
    for _ in range(150):
        D = Divisor(rng.randint(-5, 25), {i: rng.randint(-5, 25) for i in (1, 2, 3)})
        dims = {dim(c, D) for c in curves}
        assert len(dims) == 1


def test_basis_reference(curve_y3_x5x):
    b5 = basis(curve_y3_x5x, Divisor.at_infinity(5))
    assert b5.as_strings() == ["1", "x", "y"]
    b6 = basis(curve_y3_x5x, Divisor.at_infinity(6))
    assert b6.as_strings() == ["1", "x", "x^2", "y"]
    b0 = basis(curve_y3_x5x, Divisor())
    assert b0.as_strings() == ["1"]


def test_basis_stratum_dimensions(curve_y9_quartic):
    fns = basis(curve_y9_quartic, Divisor(19, {1: 19})).functions
    per_stratum = Counter(fn.y_pow for fn in fns)
    assert [per_stratum[t] for t in range(9)] == [5, 4, 4, 3, 3, 2, 2, 2, 2]


def test_basis_matches_dim_and_valuations(curve_y9_quartic, curve_y6_x5x):
    rng = random.Random(2718)
    for c in (curve_y9_quartic, curve_y6_x5x):
        places = [c.place_infinity()] + [
            c.ramified_place(i) for i in range(1, len(c.alphas) + 1)
        ]
        for _ in range(20):
            D = Divisor(
                rng.randint(0, 3 * c.genus),
                {i: rng.randint(-2, 6) for i in range(1, len(c.alphas) + 1)},
            )
            bas = basis(c, D)
            assert bas.dimension == dim(c, D)
            seen = set()
            for fn in bas.functions:
                key = (fn.y_pow, fn.x_pow)
                assert key not in seen  # distinct monomials: independence
                seen.add(key)
                for place in places:
                    bound = D.coeff_inf if place.kind == "infinity" else D.coeff(place.index)
                    assert fn.valuation(c, place) >= -bound
    # x has its pole at P_inf and 1/(x - alpha_1) at P_1; valuations are
    # tracked at the distinguished places only
    c = curve_y9_quartic
    x = BasisFunction(y_pow=0, x_pow=1, denom=(), f_pow=0)
    pole_1 = BasisFunction(y_pow=0, x_pow=0, denom=((1, 1),), f_pow=0)
    for fn, place in ((x, c.place_infinity()), (pole_1, c.ramified_place(1))):
        with pytest.raises(ValueError, match="pole at the evaluation place"):
            fn.evaluate(c, place)
    with pytest.raises(ValueError, match="distinguished places only"):
        x.valuation(c, c.rational_places()[-1])


def test_basis_valuations_general_lambda():
    f7 = make_field(7)
    c = make_curve(f7, 5, 2, Polynomial.from_roots(f7, [0, 1, 2]))
    D = Divisor(11, {1: 3})
    bas = basis(c, D)
    assert bas.dimension == dim(c, D)
    assert any(fn.f_pow > 0 for fn in bas.functions)  # strata past t*lam >= m
    for fn in bas.functions:
        assert fn.valuation(c, c.place_infinity()) >= -11
        assert fn.valuation(c, c.ramified_place(1)) >= -3
        for i in (2, 3):
            assert fn.valuation(c, c.ramified_place(i)) >= 0
    # the pole orders at P_inf of a one-point basis run through H(P_inf)
    for curve in (c, make_curve(f7, 4, 3, Polynomial.from_roots(f7, range(5)))):
        inf = curve.place_infinity()
        gaps = set(semigroup_at(curve, inf).gaps)
        for a in range(2 * curve.genus + 2):
            poles = sorted(-fn.valuation(curve, inf) for fn in basis(curve, Divisor(a)).functions)
            assert poles == [s for s in range(a + 1) if s not in gaps]


def test_basis_rejects_unnamed_support():
    f5 = make_field(5)
    c = make_curve(f5, 3, 1, Polynomial(f5, [2, 0, 1]))  # x^2 + 2, no roots in F_5
    assert dim(c, Divisor(0, {1: 5})) >= 1  # dimension is still computable
    with pytest.raises(ValueError, match="not in F_q"):
        basis(c, Divisor(0, {1: 5}))


def test_dim_rejects_index_beyond_r(curve_y3_x5x):
    with pytest.raises(ValueError, match="exceeds r=5"):
        dim(curve_y3_x5x, Divisor(0, {6: 1}))
    with pytest.raises(ValueError, match="not in F_q"):
        basis(curve_y3_x5x, Divisor(0, {6: 1}))


def _dim_reference(curve, D):
    """dim's former loop: a floor at every named place, the default floor
    at each unnamed one, replaced where D has a coefficient."""
    m, lam, r = curve.m, curve.lam, curve.r
    named = len(curve.alphas)
    total = 0
    for t in range(m):
        deg = (D.coeff_inf - t * r * lam) // m
        shared = (t * lam) // m
        deg += (r - named) * shared
        for i in range(1, named + 1):
            deg += (D.coeff(i) + t * lam) // m
        for i, c in D.coeffs:
            if i > named:
                deg += (c + t * lam) // m - shared
        if deg >= 0:
            total += deg + 1
    return total


@lru_cache(maxsize=None)
def _partly_split_curve(m, r, lam, named):
    """y^m = f^lam, f = x(x-1)...(x-named+1) * h with h monic, separable, of
    degree r - named and without roots, over the smallest prime p >= 3 not
    dividing m (and >= named)."""
    p = next(p for p in range(max(named, 3), 100) if is_prime(p) and m % p)
    field = make_field(p)
    f = Polynomial.from_roots(field, range(named))
    d = r - named
    if d:
        candidates = (Polynomial(field, [(n // p ** i) % p for i in range(d)] + [1])
                      for n in range(p ** d))
        f = f * next(h for h in candidates if not roots_in_field(h) and is_separable(h))
    c = make_curve(field, m, lam, f)
    assert len(c.alphas) == named
    return c


@st.composite
def divisors_on_curves(draw):
    m = draw(st.integers(2, 12))
    r = draw(st.integers(2, 6).filter(lambda r: gcd(m, r) == 1))
    lam = draw(st.sampled_from([lam for lam in range(1, m) if gcd(m, lam) == 1]))
    named = draw(st.sampled_from([r, *range(r - 1)]))
    c = _partly_split_curve(m, r, lam, named)
    support = draw(st.lists(st.integers(1, r), unique=True, max_size=3))
    coeffs = {i: draw(st.integers(-3 * m, 4 * m)) for i in support}
    return c, Divisor(draw(st.integers(-3 * m, 4 * c.genus + m)), coeffs)


@settings(max_examples=300, deadline=None)
@given(divisors_on_curves())
def test_stratum_walk_matches_reference(case):
    c, D = case
    assert dim(c, D) == _dim_reference(c, D)
    named = len(c.alphas)
    if any(i > named for i in D.support_indices):
        return
    bas = basis(c, D)
    assert bas.dimension == dim(c, D)
    places = [c.place_infinity()] + [c.ramified_place(i) for i in range(1, named + 1)]
    for fn in bas.functions:
        for place in places:
            bound = D.coeff_inf if place.kind == "infinity" else D.coeff(place.index)
            assert fn.valuation(c, place) >= -bound, (fn, place)


@settings(max_examples=200, deadline=None)
@given(divisors_on_curves())
def test_riemann_roch_duality(case):
    # an oracle for dim that shares no code with it: H(P_inf) = <m, r> is
    # symmetric, so K = (2g - 2)P_inf is canonical, and Riemann-Roch gives
    # l(G) - l(K - G) = deg G + 1 - g for every G, whatever its signs
    c, G = case
    K_minus_G = Divisor(2 * c.genus - 2 - G.coeff_inf, {i: -b for i, b in G.coeffs})
    assert dim(c, G) - dim(c, K_minus_G) == G.degree + 1 - c.genus


def test_gap_oracle(curve_y9_quartic):
    c = curve_y9_quartic
    pinf = c.place_infinity()
    assert gap_by_dims(c, pinf, 23)
    assert not gap_by_dims(c, pinf, 9)
    assert not gap_by_dims(c, pinf, 2 * c.genus)
    assert gap_by_dims(c, c.ramified_place(1), 20)
    with pytest.raises(ValueError):
        gap_by_dims(c, pinf, 0)
    with pytest.raises(ValueError):
        gap_by_dims(c, c.rational_places()[-1], 3)


def test_two_point_oracles(curve_y9_quartic):
    c = curve_y9_quartic
    assert member_by_dims(c, 0, 0)
    assert member_by_dims(c, 23, 1)
    assert not member_by_dims(c, 10, 10)
    assert pure_gap_by_dims(c, 10, 10)
    assert not pure_gap_by_dims(c, 0, 0)
    with pytest.raises(ValueError):
        member_by_dims(c, -1, 2)
    with pytest.raises(ValueError):
        pure_gap_by_dims(c, 1, -1)


def test_basis_function_strings():
    fn = BasisFunction(y_pow=3, x_pow=2, denom=((1, 2),), f_pow=1)
    assert str(fn) == "x^2 * y^3 * (x-a1)^-2 * f^-1"
    assert str(BasisFunction(y_pow=0, x_pow=0, denom=(), f_pow=0)) == "1"
    assert str(BasisFunction(y_pow=1, x_pow=1, denom=(), f_pow=0)) == "x * y"


def test_evaluate_ramified_f_power():
    # x**j / h_i**s with h_i = f // (x - alpha_i) is x**j * (x - alpha_i)**s / f**s,
    # which rr.basis never builds; at P_i it takes the value alpha_i**j * h_i(alpha_i)**-s
    f7, f16, f64 = make_field(7), make_field(2, 4), make_field(2, 6)
    curves = [
        make_curve(f7, 4, 1, Polynomial(f7, [0, 6, 5, 3])),     # 3x(x-1)(x-2), not monic
        make_curve(f7, 3, 2, Polynomial(f7, [6, 0, 1])),        # y^3 = (x^2 - 1)^2
        make_curve(f16, 5, 3, Polynomial(f16, [1, 1, 1])),      # characteristic 2
        make_curve(f64, 9, 1, Polynomial(f64, [0, 1, 1, 0, 1])),
    ]
    for c in curves:
        assert c.alphas
        F = c.field
        for i, alpha in enumerate(c.alphas, start=1):
            h, rem = divmod(c.f, Polynomial(F, [F.neg(alpha), 1]))
            assert rem.is_zero()
            for s in (1, 2, 3):
                for j in range(4 if alpha else 1):
                    fn = BasisFunction(y_pow=0, x_pow=j, denom=((i, -s),), f_pow=s)
                    value = fn.evaluate(c, c.ramified_place(i))
                    assert value == F.mul(F.pow(alpha, j), F.pow(h(alpha), -s)), (c, i, s, j)


def test_evaluate_checks_the_y_cancellation(curve_y3_x5x):
    # y**m / (x - alpha_1) = f / (x - alpha_1) has valuation 0 at P_1 with a y
    # factor, which no function of rr.basis has (y_pow < m there): a raise,
    # which python -O keeps
    fn = BasisFunction(y_pow=3, x_pow=0, denom=((1, 1),), f_pow=0)
    place = curve_y3_x5x.ramified_place(1)
    assert fn.valuation(curve_y3_x5x, place) == 0
    with pytest.raises(rr.InternalCheckError, match="valuation 0 with a y factor"):
        fn.evaluate(curve_y3_x5x, place)


def test_divisor_parse_forms(curve_y3_x5x):
    c = curve_y3_x5x
    assert Divisor.parse("0", c) == Divisor.parse(" 0 ", c) == Divisor()
    assert Divisor.parse("5P_inf + 2P_1 + -1P_inf + 3P_1", c) == Divisor(4, {1: 5})
    assert Divisor.parse("2P_1 + -2P_1", c) == Divisor()
    with pytest.raises(ValueError, match="bad divisor term '0'"):  # '0' is a whole divisor
        Divisor.parse("0 + 5P_inf", c)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.data())
def test_divisor_parse_reads_what_repr_prints(named, data):
    curve = _partly_split_curve(3, 8, 1, named)
    coeff = st.integers(-10 ** 12, 10 ** 12)
    coeff_inf = data.draw(st.one_of(st.just(0), coeff), label="coeff_inf")
    places = st.integers(1, named) if named else st.nothing()
    coeffs = data.draw(st.dictionaries(places, coeff, max_size=named), label="coeffs")
    D = Divisor(coeff_inf, coeffs)
    assert Divisor.parse(repr(D), curve) == D


def test_basis_cap(curve_y3_x5x, monkeypatch):
    c = curve_y3_x5x
    with pytest.raises(ValueError, match=r"l\(D\) = 999999999997 exceeds the basis cap "
                                         r"rr.MAX_BASIS = 65536"):
        basis(c, Divisor.at_infinity(10 ** 12))
    monkeypatch.setattr(rr, "MAX_BASIS", 8)
    assert basis(c, Divisor.at_infinity(11)).dimension == 8 == dim(c, Divisor.at_infinity(11))
    with pytest.raises(ValueError, match="rr.MAX_BASIS = 8"):
        basis(c, Divisor.at_infinity(12))


def test_strata_walk_capped_by_genus(tmp_path, capsys):
    # y^(10^8 + 1) = x^2 + x over F_2: before the cap, the strata walk under
    # code's first l(G) took ~20 s for C_L and ~42 s for C_Omega
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("p = 2\ne = 1\nm = 100000001\nlambda = 1\nf = 0,1,1\n")
    for argv in (["code", "--curve", str(cfg), "--G", "1P_inf"],
                 ["code", "--curve", str(cfg), "--G", "1P_inf", "--omega"]):
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == EXIT_PRECONDITION, err
        assert "genus 50000000 exceeds onepoint.MAX_GENUS = 65536" in err
        assert elapsed < 1
    huge = load_curve(cfg)
    for walk in (dim, basis):
        with pytest.raises(ValueError, match="MAX_GENUS"):
            walk(huge, Divisor.at_infinity(1))
    # y^(2g+1) = x^2 + x has genus g: the cap itself is allowed
    f2 = make_field(2)
    at_cap = make_curve(f2, 2 * rr.MAX_GENUS + 1, 1, Polynomial(f2, [0, 1, 1]))
    assert dim(at_cap, Divisor.at_infinity(2)) == 2
    over = make_curve(f2, 2 * rr.MAX_GENUS + 3, 1, Polynomial(f2, [0, 1, 1]))
    with pytest.raises(ValueError, match="genus 65537 exceeds"):
        dim(over, Divisor.at_infinity(2))

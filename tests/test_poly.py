import random

import pytest

from kummercodes.curve import parse_curve_config
from kummercodes.poly import Polynomial, gcd, is_separable, roots_in_field


def test_parse_format_roundtrip(f25):
    # format prints a config's f = line, which the config reader reads back
    f = Polynomial(f25, [0, 4, 0, 0, 0, 1])
    assert f.degree == 5
    assert f.format() == "0,4,0,0,0,1"
    assert Polynomial(f25).format() == "0"
    for poly, line in ((f, "0, 4 ,0,0,0,1"), (f, f.format()), (Polynomial(f25), "0")):
        cfg = parse_curve_config(f"p = 5\ne = 2\nm = 3\nlambda = 1\nf = {line}\n")
        assert Polynomial(f25, cfg["f"]) == poly


def test_coefficients_from_another_field_rejected(f25, f64):
    with pytest.raises(ValueError, match="different field"):
        Polynomial(f64, [f25.one()])
    with pytest.raises(ValueError, match="different field"):
        Polynomial.from_roots(f64, [f25.one()])
    f, g = Polynomial(f25, [1, 1]), Polynomial(f64, [1, 1])
    for op in (lambda: f * g, lambda: divmod(f, g), lambda: gcd(f, g)):
        with pytest.raises(ValueError, match="different fields"):
            op()


def test_trailing_zeros_trimmed(f25):
    f = Polynomial(f25, [1, 2, 0, 0])
    assert f.degree == 1
    # elements and encodings alike are kept as the encodings
    assert Polynomial(f25, [f25.element(3), 2, f25.zero()]).coeffs == (3, 2)
    assert all(type(c) is int for c in f.coeffs)
    assert Polynomial(f25, [0, 0]).is_zero()
    assert Polynomial(f25, [0, 0]).degree == -1


def test_eval_roots(f25):
    f = Polynomial(f25, [0, 4, 0, 0, 0, 1])  # x^5 - x
    for n in range(5):  # the prime subfield
        assert f(n) == 0
    assert f(5) != 0 and type(f(5)) is int


def test_gcd_with_unit_derivative(f25):
    f = Polynomial(f25, [0, 4, 0, 0, 0, 1])
    d = f.derivative()
    assert d == Polynomial(f25, [4])  # 5x^4 - 1 = -1 in characteristic 5
    g = gcd(f, d)
    assert g.degree == 0 and g.leading_coefficient() == 1


def test_divmod_exact_char2(f64):
    f = Polynomial(f64, [0, 1, 1, 0, 1])  # x^4 + x^2 + x
    q, r = divmod(f, Polynomial(f64, [0, 1]))
    assert r.is_zero()
    assert q == Polynomial(f64, [1, 1, 0, 1])  # x^3 + x + 1
    assert f.derivative() == Polynomial(f64, [1])  # 4x^3 + 2x + 1 -> 1


def test_divmod_reconstruction_randomized(f25, f64):
    rng = random.Random(20240601)
    for field in (f25, f64):
        for _ in range(50):
            f = Polynomial(field, [rng.randrange(field.q) for _ in range(rng.randint(0, 9))])
            g = Polynomial(field, [rng.randrange(field.q) for _ in range(rng.randint(1, 6))])
            if g.is_zero():
                continue
            q, r = divmod(f, g)
            # every degree is below q, so agreeing on F_q means equal
            E = field.element
            assert all(E(q(a)) * E(g(a)) + E(r(a)) == E(f(a)) for a in range(field.q))
            assert r.is_zero() or r.degree < g.degree
    with pytest.raises(ZeroDivisionError):
        divmod(Polynomial(f25, [0, 1]), Polynomial(f25))


def test_is_separable(f25, f64):
    assert is_separable(Polynomial(f25, [0, 4, 0, 0, 0, 1]))
    assert is_separable(Polynomial(f64, [0, 1, 1, 0, 1]))
    x = Polynomial(f25, [0, 1])
    assert not is_separable(x * x)
    with pytest.raises(ValueError):
        is_separable(Polynomial(f25))


def test_separable_iff_distinct_roots_on_split_products(f25):
    roots = [f25.element(n) for n in (0, 3, 7, 12)]
    assert is_separable(Polynomial.from_roots(f25, roots))
    assert not is_separable(Polynomial.from_roots(f25, roots + [f25.element(3)]))


def test_roots_in_field(f25, f64):
    f = Polynomial(f25, [0, 4, 0, 0, 0, 1])
    assert roots_in_field(f) == {0, 1, 2, 3, 4}
    quartic = Polynomial(f64, [0, 1, 1, 0, 1])
    rts = roots_in_field(quartic)
    assert len(rts) == 4 and 0 in rts
    assert roots_in_field(Polynomial(f25, [1])) == set()
    with pytest.raises(ValueError):
        roots_in_field(Polynomial(f25))


def test_arithmetic_identities(f25):
    rng = random.Random(99)
    for _ in range(25):
        f = Polynomial(f25, [rng.randrange(25) for _ in range(rng.randint(0, 6))])
        g = Polynomial(f25, [rng.randrange(25) for _ in range(rng.randint(0, 6))])
        assert f * g == g * f
        a, E = rng.randrange(25), f25.element
        assert E((f * g)(a)) == E(f(a)) * E(g(a))


def test_monic_and_pow(f25):
    f = Polynomial(f25, [2, 0, 3])
    m = f.monic()
    assert m.leading_coefficient() == 1
    with pytest.raises(ValueError, match="zero polynomial has no leading coefficient"):
        Polynomial(f25).monic()

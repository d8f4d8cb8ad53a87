"""Closed forms against the Riemann-Roch dimension oracle on random (m, r, lambda)."""

from functools import lru_cache
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from kummercodes import Polynomial, make_curve, make_field
from kummercodes.gf import is_prime
from kummercodes.onepoint import is_gap, semigroup_at
from kummercodes.rr import gap_by_dims, member_by_dims, pure_gap_by_dims
from kummercodes.twopoint import floor_pure_gap, is_member


@lru_cache(maxsize=None)
def split_curve(m, r, lam):
    """y^m = (x(x-1)...(x-r+1))^lam over the smallest prime p >= max(r, 3)
    not dividing m."""
    p = next(p for p in range(max(r, 3), 100) if is_prime(p) and m % p)
    field = make_field(p)
    return make_curve(field, m, lam, Polynomial.from_roots(field, range(r)))


@st.composite
def curves(draw):
    m = draw(st.integers(2, 16))
    r = draw(st.integers(2, 8).filter(lambda r: gcd(m, r) == 1))
    lam = draw(st.sampled_from([lam for lam in range(1, m) if gcd(m, lam) == 1]))
    return split_curve(m, r, lam)


@settings(max_examples=200, deadline=None)
@given(curves(), st.data())
def test_closed_forms_match_oracle(c, data):
    g, m = c.genus, c.m
    for place in (c.place_infinity(), c.ramified_place(1)):
        oracle = tuple(s for s in range(1, 2 * g + m) if gap_by_dims(c, place, s))
        assert semigroup_at(c, place).gaps == oracle
        assert not is_gap(c, place, 0)
        assert all(is_gap(c, place, s) == (s in oracle) for s in range(1, 2 * g + m))
    pair = st.tuples(st.integers(0, 2 * g + m), st.integers(0, 2 * g + m))
    for a, b in data.draw(st.lists(pair, min_size=1, max_size=12), label="member pairs"):
        assert is_member(c, a, b) == member_by_dims(c, a, b), (a, b)
    pair = st.tuples(st.integers(0, 2 * g + 1), st.integers(0, 2 * g + 1))
    for a, b in data.draw(st.lists(pair, min_size=1, max_size=12), label="pure-gap pairs"):
        assert floor_pure_gap(c.m, c.r, a, b) == pure_gap_by_dims(c, a, b), (a, b)

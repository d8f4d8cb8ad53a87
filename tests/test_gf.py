import copy
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kummercodes import gf
from kummercodes.gf import Field, is_prime, make_field


# -- independent irreducibility oracle: gcd with x**(p**k) - x ---------------
# (the library uses trial division; this route must agree)


def _fp_mulmod(a, b, mod, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    dm = len(mod) - 1
    while len(out) > dm:
        lead = out[-1]
        if lead:
            off = len(out) - 1 - dm
            for i in range(dm):
                out[off + i] = (out[off + i] - lead * mod[i]) % p
        out.pop()
    while out and out[-1] == 0:
        out.pop()
    return out


def _fp_powmod_x(exp, mod, p):
    result = [1]
    base = [0, 1]
    while exp:
        if exp & 1:
            result = _fp_mulmod(result, base, mod, p)
        base = _fp_mulmod(base, base, mod, p)
        exp >>= 1
    return result


def _fp_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        # reduce a mod b
        inv = pow(b[-1], p - 2, p)
        while len(a) >= len(b) and a:
            lead = (a[-1] * inv) % p
            off = len(a) - len(b)
            for i in range(len(b)):
                a[off + i] = (a[off + i] - lead * b[i]) % p
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return a


def _irreducible_by_gcd(f, p):
    e = len(f) - 1
    xq = _fp_powmod_x(p ** e, f, p)
    xq = list(xq) + [0] * (2 - len(xq))
    if (xq[1] - 1) % p or xq[0] % p or any(c for c in xq[2:]):
        return False
    d = 2
    ee = e
    prime_divs = set()
    while d * d <= ee:
        if ee % d == 0:
            prime_divs.add(d)
            while ee % d == 0:
                ee //= d
        d += 1
    if ee > 1:
        prime_divs.add(ee)
    for d in prime_divs:
        xk = _fp_powmod_x(p ** (e // d), f, p)
        diff = list(xk) + [0] * (2 - len(xk))
        diff[1] = (diff[1] - 1) % p
        while diff and diff[-1] == 0:
            diff.pop()
        g = _fp_gcd(list(f), diff, p)
        if len(g) != 1:
            return False
    return True


def _smallest_modulus_by_gcd_scan(p, e):
    for low in range(p ** e):
        coeffs = []
        n = low
        for _ in range(e):
            n, rem = divmod(n, p)
            coeffs.append(rem)
        cand = tuple(coeffs) + (1,)
        if _irreducible_by_gcd(cand, p):
            return cand
    raise AssertionError


def test_prime_field_modulus_is_x():
    assert make_field(5, 1).modulus == (0, 1)
    assert make_field(2).modulus == (0, 1)


@pytest.mark.parametrize("p,e,expected", [(2, 6, (1, 1, 0, 0, 0, 0, 1)), (5, 2, (2, 0, 1))])
def test_smallest_irreducible_matches_gcd_scan(p, e, expected):
    field = make_field(p, e)
    assert field.modulus == _smallest_modulus_by_gcd_scan(p, e)
    assert field.modulus == expected
    assert field.q == p ** e


def test_make_field_rejects_bad_input():
    with pytest.raises(ValueError):
        make_field(6, 1)
    with pytest.raises(ValueError):
        make_field(1, 2)
    with pytest.raises(ValueError):
        Field(5, 0)


def test_prime_field_inverse():
    f5 = make_field(5)
    assert f5.element(2).inverse() == f5.element(3)
    assert f5.one().inverse() == f5.one()
    with pytest.raises(ZeroDivisionError):
        f5.zero().inverse()


def test_lagrange_and_inverses_f25(f25):
    one = f25.one()
    for a in f25.elements():
        if a.is_zero():
            continue
        assert a ** 24 == one
        assert a * a.inverse() == one


def test_encoding_roundtrip(f25, f64):
    for field in (f25, f64):
        for n in range(field.q):
            el = field.element(n)
            assert el.enc == n
            assert field.element(el.coeffs) == el
    with pytest.raises(ValueError, match=r"encoding 25 outside \[0, 25\)"):
        f25.element(25)
    # a prime field refuses what is no encoding too, rather than reducing it
    for n in (5, -1):
        with pytest.raises(ValueError, match=rf"encoding {n} outside \[0, 5\)"):
            make_field(5).element(n)
    with pytest.raises(ValueError, match="expected 2 coefficients, got 3"):
        f25.element([1, 0, 0])


def test_mixed_field_operands_rejected(f25, f64):
    with pytest.raises(ValueError):
        f25.element(3) + f64.element(3)
    with pytest.raises(ValueError):
        f25.element(3) * f64.element(3)
    with pytest.raises(ValueError):
        f64.element(f25.element(1))


def test_frobenius_additivity(f25, f64):
    for field in (f25, f64):
        p = field.p
        for a in field.elements():
            for b in field.elements():
                assert (a + b) ** p == a ** p + b ** p


def test_ring_axioms_exhaustive_f25(f25):
    els = list(f25.elements())
    for a in els:
        for b in els:
            assert a + b == b + a
            assert a * b == b * a
    # associativity and distributivity on the full cube of a small subfield
    sub = els[:5]
    for a in els:
        for b in els:
            for c in sub:
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


def test_ring_axioms_f64(f64):
    els = list(f64.elements())
    for a in els:
        for b in els:
            assert a + b == b + a
            assert a * b == b * a
    probes = [f64.element(2), f64.element(3), f64.element(37)]
    for a in els:
        for c in probes:
            b = a + c
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_element_hash_and_repr(f25):
    a = f25.element(7)
    assert hash(a) == hash(f25.element(7))
    assert repr(a) == "7"
    assert {a, f25.element(7)} == {a}
    # (p, e) and (field, enc) define equality: a fresh F_25 without tables
    # equals the cached one with them, and so do their elements
    fresh = Field(5, 2)
    f25.tables()
    assert fresh._tables is None and fresh == f25 and hash(fresh) == hash(f25)
    assert fresh.element(7) == a and hash(fresh.element(7)) == hash(a)
    assert make_field(5).element(2) != f25.element(2) and f25.element(8) != a
    assert repr(f25) == "Field(p=5, e=2)"
    # a name that is no field is refused too, by FrozenInstanceError
    for obj, name in ((f25, "q"), (f25, "_tables"), (f25, "x"), (a, "enc"), (a, "x")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 1)
    assert pickle.loads(pickle.dumps(a)) == a == copy.copy(a)


# -- the exp/log/Zech arithmetic against the tuple reference above -----------

_PRIME_FIELDS = [(p, 1) for p in range(2, 2 ** 10) if is_prime(p)]
_EXTENSION_FIELDS = [(p, e) for p in range(2, 32) if is_prime(p)
                     for e in range(2, 11) if p ** e <= 2 ** 10]


def _ref_add(field, a, b):
    return field.element([x + y for x, y in zip(a.coeffs, b.coeffs)])


def _ref_mul(field, a, b):
    prod = _fp_mulmod(list(a.coeffs), list(b.coeffs), list(field.modulus), field.p)
    return field.element(prod + [0] * (field.e - len(prod)))


def _ref_pow(field, a, n):
    if n < 0:
        a, n = _ref_pow(field, a, field.q - 2), -n
    out = field.one()
    for bit in bin(n)[2:]:
        out = _ref_mul(field, out, out)
        if bit == "1":
            out = _ref_mul(field, out, a)
    return out


@st.composite
def field_operands(draw):
    p, e = draw(st.sampled_from(_PRIME_FIELDS) | st.sampled_from(_EXTENSION_FIELDS))
    field = make_field(p, e)
    a = field.element(draw(st.integers(0, field.q - 1)))
    b = field.element(draw(st.integers(0, field.q - 1)))
    n = draw(st.integers(-3 * field.q, 3 * field.q))
    return field, a, b, n


@settings(max_examples=400, deadline=None)
@given(field_operands())
def test_arithmetic_matches_tuple_reference(operands):
    field, a, b, n = operands
    assert field.zero() ** 0 == field.one() and field.zero() ** 3 == field.zero()
    # the scalar ops on the encodings, which the operators delegate to
    x, y = a.enc, b.enc
    assert field.mul(x, y) == _ref_mul(field, a, b).enc
    assert field.add(x, y) == _ref_add(field, a, b).enc
    assert field.neg(y) == field.element([-c for c in b.coeffs]).enc
    assert field.pow(0, 0) == 1 and field.pow(0, 3) == 0
    with pytest.raises(ZeroDivisionError):
        field.pow(0, -1)
    if x or n >= 0:
        assert field.pow(x, n) == _ref_pow(field, a, n).enc
    assert a * b == _ref_mul(field, a, b)
    assert a + b == _ref_add(field, a, b)
    assert -b == field.element([-c for c in b.coeffs])
    assert a - b == _ref_add(field, a, -b)
    assert a ** 0 == field.one()
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
        if n < 0:
            with pytest.raises(ZeroDivisionError):
                a ** n
            return
    else:
        assert a.inverse() == _ref_pow(field, a, field.q - 2)
        assert a * a.inverse() == field.one()
    assert a ** n == _ref_pow(field, a, n)


@pytest.mark.parametrize("p,e", [(5, 2), (2, 6), (2, 8)])
def test_tables_agree_with_scalar_operators(p, e):
    field = make_field(p, e)
    t = field.tables()
    els = list(field.elements())
    for arr, shape in ((t.add, (field.q, field.q)), (t.mul, (field.q, field.q)),
                       (t.neg, (field.q,)), (t.inv, (field.q,))):
        assert arr.dtype == ("uint8" if field.q <= 256 else "uint16") and arr.shape == shape
    assert t.neg.tolist() == [(-a).enc for a in els]
    assert t.inv.tolist() == [0] + [a.inverse().enc for a in els[1:]]
    g, order = els[int(t.exp[1])], field.q - 1
    assert t.exp.tolist() == [(g ** n).enc for n in range(2 * order)]
    assert t.log[0] == -1 and sorted(t.log[1:].tolist()) == list(range(order))
    assert all(t.exp[t.log[a.enc]] == a.enc for a in els[1:])
    for a in els:
        assert t.add[a.enc].tolist() == [(a + b).enc for b in els]
        assert t.mul[a.enc].tolist() == [(a * b).enc for b in els]


def test_size_caps():
    with pytest.raises(ValueError, match="MAX_Q"):
        Field(2, 17)
    with pytest.raises(ValueError, match="MAX_Q"):
        make_field(65537)
    # q = MAX_Q passes the size cap, so p = MAX_Q itself needs the primality test
    with pytest.raises(ValueError, match="characteristic must be prime, got 65536"):
        make_field(2 ** 16)
    with pytest.raises(ValueError, match="MAX_Q"):
        make_field(3, 10 ** 9)
    assert make_field(2, 16).q == gf.MAX_Q  # the cap itself is allowed
    big = make_field(2, 13)
    # two uint16 tables of q^2 entries
    with pytest.raises(ValueError, match=r"4\*q\^2 = 268435456 bytes.*MAX_TABLE_Q"):
        big.tables()
    assert big._tables is None


@pytest.mark.parametrize("p,e", [(5, 2), (2, 6), (2, 8), (2, 1), (3, 1), (2, 2), (5, 1),
                                 (7, 1), (2, 3), (3, 2), (2, 4), (2, 10)])
def test_tables_built_in_row_blocks(p, e):
    # a fresh field built one row at a time (a budget too small for one
    # row, 0 included, still takes one), and 7 rows at a time with a short
    # last block, must give the arrays of the default build
    whole = make_field(p, e).tables()
    q = whole.add.shape[0]
    for budget in (0, 8 * 7 * q):
        with mock.patch.object(gf, "WORK_BYTES", budget):
            blocked = Field(p, e).tables()
        for name in ("add", "mul", "neg", "inv", "exp", "log"):
            assert np.array_equal(getattr(blocked, name), getattr(whole, name))


def test_tables_are_read_only(f25):
    # every caller in the process shares the cached arrays
    t = f25.tables()
    for name in ("add", "mul", "neg", "inv", "exp", "log"):
        arr = getattr(t, name)
        with pytest.raises(ValueError, match="read-only"):
            arr[1] = 0
        with pytest.raises(ValueError, match="read-only"):
            arr.ravel()[0] = 0
    assert t.add[1, 1] == (f25.one() + f25.one()).enc


def test_largest_tables_peak_memory(run_fresh):
    # q = 4096 = MAX_TABLE_Q: 2 x 32 MiB of uint16 tables, built through
    # int64 index temporaries of at most WORK_BYTES each.  A fresh process,
    # so that its peak RSS is the build's.
    report = run_fresh(
        "from kummercodes import make_field\n"
        "field = make_field(2, 12)\n"
        "t = field.tables()\n"
        "els = [field.element(n) for n in (0, 1, 2, 255, 256, 257, 2048, 4095)]\n"
        "ok = all(t.add[a.enc, b.enc] == (a + b).enc and t.mul[a.enc, b.enc] == (a * b).enc\n"
        "         for a in els for b in els)\n"
        "print(json.dumps({'ok': ok, 'shape': t.add.shape, 'rss_mb': peak_mb()}))\n"
    )
    assert report["ok"] and report["shape"] == [4096, 4096]
    assert report["rss_mb"] < 110

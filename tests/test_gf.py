from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kummercodes import gf
from kummercodes.gf import Field, FieldElement, is_prime, make_field


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
    assert f5.pow(2, -1) == 3
    assert f5.pow(1, -1) == 1
    with pytest.raises(ZeroDivisionError):
        f5.pow(0, -1)


def test_lagrange_and_inverses_f25(f25):
    for a in range(1, f25.q):
        assert f25.pow(a, 24) == 1
        assert f25.mul(a, f25.pow(a, -1)) == 1


def test_encoding_roundtrip(f25, f64):
    # the library's digit codec against the reference's
    for field in (f25, f64):
        for n in range(field.q):
            digits = gf._decode_coeffs(n, field.p, field.e)
            assert list(digits) == _digits(field, n)
            assert gf._encode(digits, field.p) == _enc(field, digits) == n


def test_mixed_field_operands_rejected(f25, f64):
    with pytest.raises(ValueError, match="different fields"):
        FieldElement(f25, 3) * FieldElement(f64, 3)
    with pytest.raises(ValueError, match="different fields"):
        FieldElement.__rmul__(FieldElement(f64, 3), FieldElement(f25, 3))
    # fields are one by (p, e), not by identity
    assert (FieldElement(Field(5, 2), 3) * FieldElement(f25, 3)).enc == f25.mul(3, 3)


def test_frobenius_additivity(f25, f64):
    for F in (f25, f64):
        p = F.p
        for a in range(F.q):
            for b in range(F.q):
                assert F.pow(F.add(a, b), p) == F.add(F.pow(a, p), F.pow(b, p))


def test_ring_axioms_exhaustive_f25(f25):
    F, els = f25, range(f25.q)
    for a in els:
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
    # associativity and distributivity on the full cube of a small subfield
    sub = els[:5]
    for a in els:
        for b in els:
            for c in sub:
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_ring_axioms_f64(f64):
    F, els = f64, range(f64.q)
    for a in els:
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
    for a in els:
        for c in (2, 3, 37):
            b = F.add(a, c)
            assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_element_hash_and_repr(f25):
    a = FieldElement(f25, 7)
    assert hash(a) == hash(FieldElement(f25, 7))
    assert {a, FieldElement(f25, 7)} == {a}
    # (p, e) and (field, enc) define equality: a fresh F_25 without tables
    # equals the cached one with them, and so do their elements
    fresh = Field(5, 2)
    f25.tables()
    assert fresh._tables is None and fresh == f25 and hash(fresh) == hash(f25)
    assert FieldElement(fresh, 7) == a and hash(FieldElement(fresh, 7)) == hash(a)
    assert FieldElement(make_field(5), 2) != FieldElement(f25, 2) != FieldElement(f25, 8)
    assert repr(f25) == "Field(p=5, e=2)"
    # a name that is no field is refused too, by FrozenInstanceError
    for obj, name in ((f25, "q"), (f25, "_tables"), (f25, "x"), (a, "enc"), (a, "x")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 1)


# -- the exp/log/Zech arithmetic against the tuple reference above -----------

_PRIME_FIELDS = [(p, 1) for p in range(2, 2 ** 10) if is_prime(p)]
_EXTENSION_FIELDS = [(p, e) for p in range(2, 32) if is_prime(p)
                     for e in range(2, 11) if p ** e <= 2 ** 10]


def _digits(field, n):
    """The base-p digits of the encoding n, lowest first."""
    return [n // field.p ** i % field.p for i in range(field.e)]


def _enc(field, digits):
    return sum(c % field.p * field.p ** i for i, c in enumerate(digits))


def _ref_add(field, x, y):
    return _enc(field, [a + b for a, b in zip(_digits(field, x), _digits(field, y))])


def _ref_neg(field, x):
    return _enc(field, [-c for c in _digits(field, x)])


def _ref_mul(field, x, y):
    return _enc(field, _fp_mulmod(_digits(field, x), _digits(field, y),
                                  list(field.modulus), field.p))


def _ref_pow(field, x, n):
    if n < 0:
        x, n = _ref_pow(field, x, field.q - 2), -n
    out = 1
    for bit in bin(n)[2:]:
        out = _ref_mul(field, out, out)
        if bit == "1":
            out = _ref_mul(field, out, x)
    return out


@st.composite
def field_operands(draw):
    p, e = draw(st.sampled_from(_PRIME_FIELDS) | st.sampled_from(_EXTENSION_FIELDS))
    field = make_field(p, e)
    x = draw(st.integers(0, field.q - 1))
    y = draw(st.integers(0, field.q - 1))
    n = draw(st.integers(-3 * field.q, 3 * field.q))
    return field, x, y, n


@settings(max_examples=400, deadline=None)
@given(field_operands())
def test_arithmetic_matches_tuple_reference(operands):
    field, x, y, n = operands
    assert field.mul(x, y) == _ref_mul(field, x, y)
    assert field.add(x, y) == _ref_add(field, x, y)
    assert field.neg(y) == _ref_neg(field, y)
    assert field.add(x, field.neg(y)) == _ref_add(field, x, _ref_neg(field, y))
    assert field.pow(0, 0) == 1 and field.pow(0, 3) == 0 and field.pow(x, 0) == 1
    with pytest.raises(ZeroDivisionError):
        field.pow(0, -1)
    if x:
        assert field.pow(x, -1) == _ref_pow(field, x, field.q - 2)
        assert field.mul(x, field.pow(x, -1)) == 1
    elif n < 0:
        with pytest.raises(ZeroDivisionError):
            field.pow(x, n)
        with pytest.raises(ZeroDivisionError):
            FieldElement(field, x) ** n
        return
    assert field.pow(x, n) == _ref_pow(field, x, n)
    # the operators the benchmark's tracer wraps are the same ops
    a, b = FieldElement(field, x), FieldElement(field, y)
    assert (a * b).enc == FieldElement.__rmul__(a, b).enc == _ref_mul(field, x, y)
    assert (a ** n).enc == _ref_pow(field, x, n)


@pytest.mark.parametrize("p,e", [(5, 2), (2, 6), (2, 8)])
def test_tables_agree_with_scalar_operators(p, e):
    field = make_field(p, e)
    t = field.tables()
    F, els = field, range(field.q)
    for arr, shape in ((t.add, (field.q, field.q)), (t.mul, (field.q, field.q)),
                       (t.neg, (field.q,)), (t.inv, (field.q,))):
        assert arr.dtype == ("uint8" if field.q <= 256 else "uint16") and arr.shape == shape
    assert t.neg.tolist() == [F.neg(a) for a in els]
    assert t.inv.tolist() == [0] + [F.pow(a, -1) for a in els[1:]]
    g, order = int(t.exp[1]), field.q - 1
    assert t.exp.tolist() == [F.pow(g, n) for n in range(2 * order)]
    assert t.log[0] == -1 and sorted(t.log[1:].tolist()) == list(range(order))
    assert all(t.exp[t.log[a]] == a for a in els[1:])
    for a in els:
        assert t.add[a].tolist() == [F.add(a, b) for b in els]
        assert t.mul[a].tolist() == [F.mul(a, b) for b in els]


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
    assert t.add[1, 1] == f25.add(1, 1)


def test_largest_tables_peak_memory(run_fresh):
    # q = 4096 = MAX_TABLE_Q: 2 x 32 MiB of uint16 tables, built through
    # int64 index temporaries of at most WORK_BYTES each.  A fresh process,
    # so that its peak RSS is the build's.
    report = run_fresh(
        "from kummercodes import make_field\n"
        "field = make_field(2, 12)\n"
        "t = field.tables()\n"
        "els = (0, 1, 2, 255, 256, 257, 2048, 4095)\n"
        "ok = all(t.add[a, b] == field.add(a, b) and t.mul[a, b] == field.mul(a, b)\n"
        "         for a in els for b in els)\n"
        "print(json.dumps({'ok': ok, 'shape': t.add.shape, 'rss_mb': peak_mb()}))\n"
    )
    assert report["ok"] and report["shape"] == [4096, 4096]
    assert report["rss_mb"] < 110


def test_peak_mb_is_the_childs_own(run_fresh):
    # a parent that first touched 150 MB spawns the child: the child's
    # peak_mb() must read its own few MB, not the parent's peak
    from conftest import _PEAK_RSS_PRELUDE

    report = run_fresh(
        "import subprocess, sys\n"
        "ballast = bytearray(150 * 2 ** 20)\n"
        "ballast[::4096] = b'x' * len(ballast[::4096])\n"
        f"child = {_PEAK_RSS_PRELUDE + 'print(peak_mb())'!r}\n"
        "out = subprocess.run([sys.executable, '-c', child], capture_output=True, text=True)\n"
        "print(json.dumps({'parent_mb': peak_mb(), 'child_mb': float(out.stdout)}))\n"
    )
    assert report["parent_mb"] > 150 > 50 > report["child_mb"]

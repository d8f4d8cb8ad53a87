"""Exact arithmetic in prime-power finite fields F_q, built from integers up.

Elements are coefficient vectors modulo a fixed monic irreducible polynomial
over F_p.  Every element has a canonical integer encoding
``enc = sum(coeffs[i] * p**i)`` in ``[0, q)``, the wire format used
throughout the package.  :class:`Field`'s ``add``, ``neg``, ``mul`` and
``pow`` are the scalar arithmetic on encodings; a :class:`FieldElement` holds
only its encoding and is the public view over them.

That arithmetic is Zech-logarithm arithmetic (Lidl-Niederreiter, *Finite
Fields*) on O(q) lists built once per field from the primitive element g of
smallest encoding: ``exp[n] = enc(g**n)``, its inverse ``log``, ``neg`` and
``zech[n] = log(1 + g**n)`` (-1 where g**n = -1), so that
``a*b = exp[log a + log b]`` and ``a + b = a * g**zech[log b - log a]``,
exponents mod q - 1; :meth:`Field.tables` is the same rule vectorised.
Polynomial arithmetic mod the modulus only picks the modulus and walks the
powers of g once.  Caps: q <= MAX_Q = 2**16, and the dense
:meth:`Field.tables` need q <= MAX_TABLE_Q = 2**12.  The tables hold
encodings in the narrowest unsigned dtype that fits q, uint8 up to q = 256
and uint16 above, so the two q x q tables take 2*q**2 or 4*q**2 bytes; they
are read-only, since every caller in the process shares them.

WORK_BYTES bounds the working set of the table build and of the code layer
on top of it: every temporary whose size grows with q**2 or with a matrix
(the build's index blocks, rref's elimination blocks, the distance scan's
suffix table) stays within that many bytes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - imports for annotations only
    import numpy as np


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# ---------------------------------------------------------------------------
# polynomial helpers over the prime field F_p, on plain int tuples
# (little-endian, used only for modulus construction and reduction)

def _fp_trim(c: tuple[int, ...]) -> tuple[int, ...]:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


def _fp_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _fp_trim(tuple(out))


def _fp_mod(a: tuple[int, ...], mod: tuple[int, ...], p: int) -> tuple[int, ...]:
    # mod must be monic
    a = list(a)
    dm = len(mod) - 1
    while len(a) > dm:
        lead = a[-1] % p
        if lead:
            off = len(a) - 1 - dm
            for i in range(dm):
                a[off + i] = (a[off + i] - lead * mod[i]) % p
        a.pop()
    return _fp_trim(tuple(x % p for x in a))


def _fp_is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg(f)//2."""
    for d in range(1, (len(f) - 1) // 2 + 1):
        for low in range(p ** d):
            cand = _decode_coeffs(low, p, d) + (1,)
            if not _fp_mod(f, cand, p):
                return False
    return True


def _decode_coeffs(n: int, p: int, length: int) -> tuple[int, ...]:
    out = []
    for _ in range(length):
        n, r = divmod(n, p)
        out.append(r)
    return tuple(out)


def _encode(coeffs: Sequence[int], p: int) -> int:
    n = 0
    for c in reversed(coeffs):
        n = n * p + c
    return n


def _exp_table(p: int, e: int, modulus: tuple[int, ...]) -> list[int]:
    """Encodings of g**0, ..., g**(q-2) for the primitive element g of
    smallest encoding: the first candidate with g**((q-1)/r) != 1 for every
    prime r dividing q - 1."""
    q = p ** e

    def mul(a, b):
        return _fp_mod(_fp_mul(a, b, p), modulus, p)

    def power(a, k):
        out = (1,)
        for bit in bin(k)[2:]:
            out = mul(out, out)
            if bit == "1":
                out = mul(out, a)
        return out

    cofactors = [(q - 1) // r for r in range(2, q) if (q - 1) % r == 0 and is_prime(r)]
    for g in range(1, q):
        gc = _fp_trim(_decode_coeffs(g, p, e))
        if all(power(gc, k) != (1,) for k in cofactors):
            break
    powers, cur = [], (1,)
    for _ in range(q - 1):
        powers.append(_encode(cur, p))
        cur = mul(cur, gc)
    return powers


@dataclass(frozen=True)
class FieldTables:
    """Dense lookup tables on canonical encodings, derived from the
    exp/log/Zech lists, so the matrix layer's hot loops run on numpy arrays;
    exp and log serve its gathers in the exponent domain.

    Every encoding table is in the field's encoding dtype (uint8 for
    q <= 256, else uint16), so gathers through them keep that dtype; log is
    int64 for its -1 sentinel and for exponent arithmetic without overflow.
    """

    add: np.ndarray   # add[i, j] = enc(a_i + a_j)
    mul: np.ndarray   # mul[i, j] = enc(a_i * a_j)
    neg: np.ndarray   # neg[i]    = enc(-a_i)
    inv: np.ndarray   # inv[i]    = enc(a_i**-1); inv[0] = 0 (unused)
    exp: np.ndarray   # exp[n]    = enc(g**n), 0 <= n < 2*(q - 1)
    log: np.ndarray   # log[i]    = n with a_i = g**n; log[0] = -1 (unused)


# largest field order, and largest order with dense q x q tables (2*q**2 bytes
# in uint8 up to q = 256, 4*q**2 bytes in uint16 above)
MAX_Q = 2 ** 16
MAX_TABLE_Q = 2 ** 12
# bytes in one temporary of the table build or of the code layer (a block of
# int64 indices, a block of matrix rows, the scan's suffix table)
WORK_BYTES = 2 ** 16


@dataclass(frozen=True)
class Field:
    """The field F_q, q = p**e, modulo the encoding-smallest monic
    irreducible of degree e over F_p.

    Instances are immutable and compared and hashed by (p, e), which fix
    everything else; :func:`make_field` caches them.
    """

    p: int
    e: int
    q: int = dataclasses.field(init=False, compare=False)
    modulus: tuple[int, ...] = dataclasses.field(init=False, compare=False)
    _exp: list[int] = dataclasses.field(init=False, compare=False)
    _log: list[int] = dataclasses.field(init=False, compare=False)
    _zech: list[int] = dataclasses.field(init=False, compare=False)
    _neg: list[int] = dataclasses.field(init=False, compare=False)
    _tables: FieldTables | None = dataclasses.field(init=False, compare=False, default=None)

    def __post_init__(self):
        p, e = self.p, self.e
        if e < 1:
            raise ValueError(f"extension degree must be >= 1, got {e}")
        if p <= MAX_Q and not is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        if e > 16 or p ** e > MAX_Q:
            raise ValueError(f"q = {p}**{e} exceeds the field size cap MAX_Q = 2**16")
        modulus = _smallest_irreducible(p, e)
        q = p ** e
        exp = _exp_table(p, e, modulus)
        log = [-1] * q          # log[0] = -1 becomes the zech entry where 1 + g**n = 0
        for n, a in enumerate(exp):
            log[a] = n
        # 1 + a adds 1 to the lowest base-p digit of the encoding
        zech = [log[a - p + 1 if a % p == p - 1 else a + 1] for a in exp]
        half = (q - 1) // 2 if p != 2 else 0      # -1 = g**half
        neg = [0] + [exp[(log[a] + half) % (q - 1)] for a in range(1, q)]
        for name, value in (("q", q), ("modulus", modulus), ("_exp", exp), ("_log", log),
                            ("_zech", zech), ("_neg", neg)):
            object.__setattr__(self, name, value)

    def __repr__(self):
        return f"Field(p={self.p}, e={self.e})"

    # -- element construction ------------------------------------------------

    def element(self, value) -> FieldElement:
        """Make an element from an encoding in [0, q) or a coefficient vector."""
        if isinstance(value, FieldElement):
            if value.field != self:
                raise ValueError("element belongs to a different field")
            return value
        if isinstance(value, int):
            if not 0 <= value < self.q:
                raise ValueError(f"encoding {value} outside [0, {self.q})")
            return FieldElement(self, value)
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) != self.e:
            raise ValueError(f"expected {self.e} coefficients, got {len(coeffs)}")
        return FieldElement(self, _encode(coeffs, self.p))

    def zero(self) -> FieldElement:
        return FieldElement(self, 0)

    def one(self) -> FieldElement:
        return FieldElement(self, 1)

    def elements(self) -> Iterator[FieldElement]:
        """All field elements in increasing encoding order."""
        return (FieldElement(self, n) for n in range(self.q))

    # -- scalar arithmetic on encodings in [0, q) ------------------------------

    def add(self, a: int, b: int) -> int:
        if not a or not b:
            return a or b
        la, order = self._log[a], self.q - 1
        z = self._zech[(self._log[b] - la) % order]
        return 0 if z < 0 else self._exp[(la + z) % order]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        return a and b and self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def pow(self, a: int, n: int) -> int:
        """a**n for any integer n, with 0**0 = 1; 0**n for n < 0 raises."""
        if not a:
            if n < 0:
                raise ZeroDivisionError("0 has no multiplicative inverse")
            return 0 if n else 1
        return self._exp[self._log[a] * n % (self.q - 1)]

    def tables(self) -> FieldTables:
        """enc-indexed add/mul/neg/inv tables (built once, then cached).

        Derived from the exp/log/Zech arrays by numpy broadcasting, in
        blocks of rows so that each int64 index temporary stays within
        WORK_BYTES whatever q is (one row at least); raises ValueError
        before allocating when q > MAX_TABLE_Q.  The arrays are read-only.
        """
        if self._tables is not None:
            return self._tables
        import numpy as np  # only the matrix layer needs numpy

        q, order = self.q, self.q - 1
        enc = np.dtype(np.uint8 if q <= 256 else np.uint16)
        if q > MAX_TABLE_Q:
            raise ValueError(
                f"field tables need {2 * enc.itemsize}*q^2 = {2 * enc.itemsize * q * q} "
                f"bytes; q = {q} exceeds the table cap MAX_TABLE_Q = 2**12")
        # doubled lists, so sums of two logs index them without reduction
        exp = np.array(self._exp * 2, dtype=enc)
        zech = np.array(self._zech * 2, dtype=np.int64)
        logs = np.array(self._log[1:], dtype=np.int64)
        mul = np.zeros((q, q), dtype=enc)
        add = np.empty((q, q), dtype=enc)
        add[0] = add[:, 0] = np.arange(q)
        step = max(1, WORK_BYTES // (8 * q))
        for lo in range(0, order, step):
            rows = slice(1 + lo, 1 + lo + step)
            log_a = logs[lo:lo + step, None]
            mul[rows, 1:] = exp[log_a + logs]
            # a + b = a * g**zech[log b - log a], and 0 where zech is -1 (b = -a)
            z = zech[logs - log_a + order]
            add[rows, 1:] = np.where(z < 0, 0, exp[z + log_a])
        inv = np.zeros(q, dtype=enc)
        inv[1:] = exp[order - logs]
        tabs = FieldTables(add=add, mul=mul, neg=np.array(self._neg, dtype=enc), inv=inv,
                           exp=exp, log=np.array(self._log, dtype=np.int64))
        for arr in vars(tabs).values():
            arr.setflags(write=False)
        object.__setattr__(self, "_tables", tabs)
        return tabs


@dataclass(frozen=True)
class FieldElement:
    """Element of a :class:`Field`, held as its encoding ``enc``; immutable,
    and compared and hashed by (field, enc).

    Every operator delegates to the field's scalar op on the encodings;
    both operands are elements, and of different fields they raise ValueError.
    The slots are spelled out rather than made by ``slots=True``, whose
    rebuilt class breaks the frozen ``__setattr__`` on Python 3.10 and 3.11.
    """

    __slots__ = ("field", "enc")
    field: Field
    enc: int

    @property
    def coeffs(self) -> tuple[int, ...]:
        return _decode_coeffs(self.enc, self.field.p, self.field.e)

    def is_zero(self) -> bool:
        return self.enc == 0

    def _operand(self, other: FieldElement) -> int:
        if other.field is not self.field and other.field != self.field:
            raise ValueError("operands belong to different fields")
        return other.enc

    def __add__(self, other: FieldElement) -> FieldElement:
        return FieldElement(self.field, self.field.add(self.enc, self._operand(other)))

    def __sub__(self, other: FieldElement) -> FieldElement:
        return self + (-other)

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.enc))

    def __mul__(self, other: FieldElement) -> FieldElement:
        return FieldElement(self.field, self.field.mul(self.enc, self._operand(other)))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        return self ** -1

    def __pow__(self, n: int) -> "FieldElement":
        """a**n for any integer n, with 0**0 = 1; 0**n for n < 0 raises."""
        return FieldElement(self.field, self.field.pow(self.enc, n))

    def __reduce__(self):  # pickle and copy rebuild through __init__
        return FieldElement, (self.field, self.enc)

    def __repr__(self):
        return f"{self.enc}"


@lru_cache(maxsize=None)
def _smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Monic irreducible of degree e over F_p with smallest encoding.

    Candidates are scanned by the integer encoding of their non-leading
    coefficients, so the result is deterministic across runs.  For e = 1
    this yields x itself.
    """
    candidates = (_decode_coeffs(low, p, e) + (1,) for low in range(p ** e))
    return next(cand for cand in candidates if _fp_is_irreducible(cand, p))


@lru_cache(maxsize=None)
def make_field(p: int, e: int = 1) -> Field:
    """The field F_(p**e) with the encoding-smallest irreducible modulus."""
    return Field(p, e)

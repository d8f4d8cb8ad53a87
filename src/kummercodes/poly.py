"""The curve's f in F_q[x].

f is built from its coefficient encodings or from its roots, and offers
what the curve needs of it: evaluation on F_q, the derivative, and the gcd
behind the separability test.  Coefficients are encodings, dense
little-endian with no trailing zeros (the zero polynomial is the empty
sequence), and the field's scalar ops do all their arithmetic.  Degrees stay
small here (around 10), so schoolbook algorithms are used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .gf import Field


@dataclass(frozen=True)
class Polynomial:
    """Polynomial with encoding coefficients, given as encodings or elements;
    immutable, and compared and hashed by (field, coeffs) once trailing zeros
    are trimmed.  ``f(a)`` takes an encoding and returns one."""

    field: Field
    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        cs = [self.field.element(c).enc for c in self.coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_roots(cls, field: Field, roots: Iterable[int]) -> "Polynomial":
        """The monic polynomial with the given roots (encodings or elements), with multiplicity."""
        out = cls(field, [1])
        for a in roots:
            out = out * cls(field, [field.neg(field.element(a).enc), 1])
        return out

    def format(self) -> str:
        """The little-endian encodings as a config's ``f =`` line: "0,4,0,0,0,1"
        is x**5 + 4x in characteristic 5; the zero polynomial prints as "0"."""
        return ",".join(map(str, self.coeffs)) or "0"

    # -- structure ------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading_coefficient(self) -> int:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self) -> "Polynomial":
        F, inv = self.field, self.field.pow(self.leading_coefficient(), -1)
        return Polynomial(F, [F.mul(c, inv) for c in self.coeffs])

    # -- arithmetic ------------------------------------------------------------

    def _check_field(self, other: "Polynomial") -> None:
        if other.field != self.field:
            raise ValueError("polynomials over different fields")

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_field(other)
        F = self.field
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)  # zeros, or [], if a factor is 0
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = F.add(out[i + j], F.mul(a, b))
        return Polynomial(F, out)

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        self._check_field(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Polynomial(F), self
        inv_lead = F.pow(other.leading_coefficient(), -1)
        quot = [0] * (dq + 1)
        for k in range(dq, -1, -1):
            quot[k] = c = F.mul(rem[k + other.degree], inv_lead)
            for i, b in enumerate(other.coeffs):
                rem[k + i] = F.add(rem[k + i], F.neg(F.mul(c, b)))
        return Polynomial(F, quot), Polynomial(F, rem)

    def derivative(self) -> "Polynomial":
        F = self.field
        # the integer i is the prime-field element of encoding i mod p
        return Polynomial(F, [F.mul(c, i % F.p) for i, c in enumerate(self.coeffs) if i])

    def __call__(self, a: int) -> int:
        """f(a) for an encoding a, as an encoding, by Horner's rule."""
        F, acc = self.field, 0
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, a), c)
        return acc

    def __repr__(self):
        return f"Polynomial({self.format()!r})"


def gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic greatest common divisor of f and g, not both zero (gcd with 0
    is the other argument, monic)."""
    f._check_field(g)
    a, b = f, g
    while not b.is_zero():
        a, b = b, divmod(a, b)[1]
    return a.monic()


def is_separable(f: Polynomial) -> bool:
    """True iff f has pairwise distinct roots, i.e. gcd(f, f') is constant."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    d = f.derivative()
    if d.is_zero():
        return f.degree == 0
    return gcd(f, d).degree == 0


def roots_in_field(f: Polynomial) -> set[int]:
    """The encodings a with f(a) = 0, by exhaustive scan of the field."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    return {a for a in range(f.field.q) if not f(a)}

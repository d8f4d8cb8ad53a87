"""The curve's f in F_q[x].

f is built from its coefficient encodings or from its roots, and offers
what the curve needs of it: evaluation on F_q, the derivative, and the gcd
behind the separability test.  Coefficients are dense little-endian with no
trailing zeros; the zero polynomial is the empty sequence.  Degrees stay
small here (around 10), so schoolbook algorithms are used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .gf import Field, FieldElement


@dataclass(frozen=True)
class Polynomial:
    """Polynomial with FieldElement coefficients, given as elements or
    encodings; immutable, and compared and hashed by (field, coeffs) once
    trailing zeros are trimmed."""

    field: Field
    coeffs: tuple[FieldElement, ...] = ()

    def __post_init__(self):
        cs = [self.field.element(c) for c in self.coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_roots(cls, field: Field, roots: Iterable[FieldElement | int]) -> "Polynomial":
        """The monic polynomial with the given roots (with multiplicity)."""
        out = cls(field, [field.one()])
        for a in roots:
            out = out * cls(field, [-field.element(a), field.one()])
        return out

    def format(self) -> str:
        """The little-endian encodings as a config's ``f =`` line: "0,4,0,0,0,1"
        is x**5 + 4x in characteristic 5; the zero polynomial prints as "0"."""
        if not self.coeffs:
            return "0"
        return ",".join(str(c.enc) for c in self.coeffs)

    # -- structure ------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading_coefficient(self) -> FieldElement:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self) -> "Polynomial":
        inv = self.leading_coefficient().inverse()
        return Polynomial(self.field, [c * inv for c in self.coeffs])

    # -- arithmetic ------------------------------------------------------------

    def _check_field(self, other: "Polynomial") -> None:
        if other.field != self.field:
            raise ValueError("polynomials over different fields")

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_field(other)
        if self.is_zero() or other.is_zero():
            return Polynomial(self.field)
        z = self.field.zero()
        out = [z] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Polynomial(self.field, out)

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        self._check_field(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Polynomial(self.field), self
        inv_lead = other.leading_coefficient().inverse()
        quot = [self.field.zero()] * (dq + 1)
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] * inv_lead
            quot[k] = c
            if not c.is_zero():
                for i, b in enumerate(other.coeffs):
                    rem[k + i] = rem[k + i] - c * b
        return Polynomial(self.field, quot), Polynomial(self.field, rem)

    def derivative(self) -> "Polynomial":
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(self.coeffs[i] * self.field.element(i % self.field.p))
        return Polynomial(self.field, out)

    def __call__(self, a: FieldElement) -> FieldElement:
        """Evaluate by Horner's rule."""
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * a + c
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


def roots_in_field(f: Polynomial) -> set[FieldElement]:
    """{a in F_q : f(a) = 0}, by exhaustive scan of the field."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    return {a for a in f.field.elements() if f(a).is_zero()}

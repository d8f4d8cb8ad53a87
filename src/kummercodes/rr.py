"""Divisors on the distinguished places and Riemann-Roch spaces.

Divisors here live on the totally ramified places P_1..P_r (over the roots
of f) and P_inf.  Such divisors are invariant under the Kummer automorphisms,
so the space L(D) splits into y-power strata, each a genus-zero Riemann-Roch
space of the restricted divisor on the rational subfield.  One walk over
the strata, with a floor per place of supp D, gives each stratum's degree:
``dim`` sums them and ``basis`` expands them into monomials, with no linear
algebra involved.

The ``*_by_dims`` functions are the dimension oracles: they decide gap,
two-point membership and pure-gap questions straight from the definitions,
and are used to cross-check every closed form in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - imports for annotations only
    from .curve import KummerCurve, Place

# largest l(D) that basis builds: an evaluation code needs at most n + g - 1
MAX_BASIS = 2 ** 16


class InternalCheckError(RuntimeError):
    """A library invariant failed: a bug, never a bad input.  Raised by a
    plain check, so that ``python -O`` keeps it."""


@dataclass(frozen=True)
class Divisor:
    """Integer combination of the places P_1..P_r and P_inf.

    Indices 1..len(curve.alphas) are the ramified places with centers in
    F_q (in encoding order); larger indices up to r denote the remaining
    conjugate places, which can carry coefficients for dimension counts but
    cannot be used in explicit bases or code supports.

    ``coeffs`` is given as a mapping {index: coefficient} or as its
    (index, coefficient) pairs, and kept as those pairs, sorted and without
    the zero ones; the divisor is immutable, and compared and hashed by
    (coeff_inf, coeffs).
    """

    coeff_inf: int = 0
    coeffs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        # the dimension oracles build a Divisor per dim call, so the empty
        # default is not copied
        if self.coeffs == ():
            return
        items = []
        for i, c in dict(self.coeffs).items():
            if i < 1:
                raise ValueError(f"place index must be >= 1, got {i}")
            if c:
                items.append((int(i), int(c)))
        items.sort()
        object.__setattr__(self, "coeffs", tuple(items))

    @classmethod
    def at_infinity(cls, n: int) -> "Divisor":
        return cls(coeff_inf=n)

    @classmethod
    def at_place(cls, index: int, n: int) -> "Divisor":
        return cls(coeffs={index: n})

    def coeff(self, index: int) -> int:
        for i, c in self.coeffs:
            if i == index:
                return c
        return 0

    @property
    def degree(self) -> int:
        return self.coeff_inf + sum(c for _, c in self.coeffs)

    @property
    def support_indices(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.coeffs)

    def __add__(self, other: "Divisor") -> "Divisor":
        merged = dict(self.coeffs)
        for i, c in other.coeffs:
            merged[i] = merged.get(i, 0) + c
        return Divisor(self.coeff_inf + other.coeff_inf, merged)

    def __repr__(self):
        """The CLI form: '19P_inf + 19P_1', and '0' for the zero divisor."""
        parts = [f"{c}P_{i}" for i, c in self.coeffs]
        if self.coeff_inf:
            parts.insert(0, f"{self.coeff_inf}P_inf")
        return " + ".join(parts) or "0"

    @classmethod
    def parse(cls, text: str, curve: "KummerCurve") -> "Divisor":
        """Read what __repr__ prints: '0', or terms '<int>P_inf' and
        '<int>P_<i>' joined by '+' (spaces ignored), each label read by
        ``curve.place``."""
        total, spec = cls(), text.replace(" ", "")
        for term in spec.split("+") if spec != "0" else ():
            if not term:
                raise ValueError("empty term in divisor spec")
            head, sep, tail = term.partition("P_")
            if not sep:
                raise ValueError(f"bad divisor term {term!r}; expected <int>P_inf or <int>P_<i>")
            try:
                coeff = int(head)
            except ValueError:
                raise ValueError(f"bad coefficient in divisor term {term!r}") from None
            place = curve.place("P_" + tail)
            total += cls(coeff) if place.kind == "infinity" else cls.at_place(place.index, coeff)
        return total


def _strata(curve: "KummerCurve", D: Divisor):
    """(t, shared, deg, denom) per non-empty y-power stratum t of L(D), which
    holds x**j * y**t / (f**shared * prod (x - alpha_i)**e_i) for j <= deg.

    shared = floor(t*lambda/m) is the floor at every place off supp D, so
    only supp D gets its own floor; denom lists its nonzero (i, e_i).
    """
    m, lam, r = curve.m, curve.lam, curve.r
    for i, _ in D.coeffs:
        if i > r:
            raise ValueError(f"place index {i} exceeds r={r}")
    for t in range(m):
        shared = (t * lam) // m
        deg = (D.coeff_inf - t * r * lam) // m + r * shared
        denom = []
        for i, c in D.coeffs:
            e = (c + t * lam) // m - shared
            if e:
                deg += e
                denom.append((i, e))
        if deg >= 0:
            yield t, shared, deg, tuple(denom)


def dim(curve: "KummerCurve", D: Divisor) -> int:
    """l(D), the dimension of the Riemann-Roch space of D.

    Sums genus-zero dimensions over the y-power strata; exact for any
    divisor supported on the distinguished places, any coefficient signs.
    """
    return sum(deg + 1 for _, _, deg, _ in _strata(curve, D))


@dataclass(frozen=True)
class BasisFunction:
    """x**x_pow * y**y_pow * prod_i (x - alpha_i)**(-denom[i]) * f(x)**(-f_pow).

    denom holds exponents for named ramified indices only; the remaining
    conjugate roots are absorbed into the f(x) power, which keeps every
    function F_q-rational.
    """

    y_pow: int
    x_pow: int
    denom: tuple[tuple[int, int], ...]
    f_pow: int

    def valuation(self, curve: "KummerCurve", place: "Place") -> int:
        """Exact valuation at a distinguished place, from the standard
        divisors of x - alpha_i, y and f."""
        m, lam, r = curve.m, curve.lam, curve.r
        if place.kind == "infinity":
            v = -self.x_pow * m - self.y_pow * r * lam + self.f_pow * r * m
            for _, e in self.denom:
                v += e * m
            return v
        if place.kind != "ramified":
            raise ValueError("valuation tracked at distinguished places only")
        x_hits = self.x_pow if curve.alphas[place.index - 1] == 0 else 0
        return self.y_pow * lam + m * (x_hits - dict(self.denom).get(place.index, 0) - self.f_pow)

    def evaluate(self, curve: "KummerCurve", place: "Place") -> int:
        """Value at a place outside the pole support, as an encoding: the
        reference route, by the field's scalar ops on the encodings.

        At ordinary places this is plain substitution.  Elsewhere the y-zeros
        cancel exactly against the denominator poles: a positive valuation
        gives 0, and valuation zero gives 1 at P_inf (every factor is monic
        in x) and at P_i forces y_pow == 0, the value read off after
        cancelling the (x - alpha) factors.
        """
        F = curve.field
        if place.kind == "ordinary":
            x = place.x
            val = F.mul(F.pow(x, self.x_pow), F.pow(place.y, self.y_pow))
            for i, e in self.denom:
                val = F.mul(val, F.pow(F.add(x, F.neg(curve.alphas[i - 1])), -e))
            if self.f_pow:
                val = F.mul(val, F.pow(curve.f(x), -self.f_pow))
            return val
        v = self.valuation(curve, place)
        if v < 0:
            raise ValueError("function has a pole at the evaluation place")
        if v > 0:
            return 0
        if place.kind == "infinity":
            return 1
        if self.y_pow:
            raise InternalCheckError("valuation 0 with a y factor is impossible")
        alpha = curve.alphas[place.index - 1]
        val = F.pow(alpha, self.x_pow) if alpha else 1
        for i, e in self.denom:
            if i != place.index:
                val = F.mul(val, F.pow(F.add(alpha, F.neg(curve.alphas[i - 1])), -e))
        if self.f_pow:
            # f = (x - alpha) * h with h(alpha) = f'(alpha), over any field
            val = F.mul(val, F.pow(curve.f.derivative()(alpha), -self.f_pow))
        return val

    def __str__(self):
        parts = []
        if self.x_pow:
            parts.append("x" if self.x_pow == 1 else f"x^{self.x_pow}")
        if self.y_pow:
            parts.append("y" if self.y_pow == 1 else f"y^{self.y_pow}")
        for i, e in self.denom:
            parts.append(f"(x-a{i})^{-e}")
        if self.f_pow:
            parts.append(f"f^{-self.f_pow}")
        return " * ".join(parts) if parts else "1"


@dataclass(frozen=True)
class RRBasis:
    """Explicit basis of L(D); len(functions) == dim(curve, D)."""

    functions: tuple[BasisFunction, ...]

    @property
    def dimension(self) -> int:
        return len(self.functions)

    def as_strings(self) -> list[str]:
        return [str(fn) for fn in self.functions]


def check_named_support(curve: "KummerCurve", D: Divisor) -> None:
    """Raise ValueError unless every place of supp(D) has a rational center."""
    named = len(curve.alphas)
    for i, _ in D.coeffs:
        if i > named:
            raise ValueError(
                f"divisor touches place P_{i} whose center is not in F_q; "
                "no rational basis is available"
            )


def basis(curve: "KummerCurve", D: Divisor) -> RRBasis:
    """Monomial basis of L(D) from the y-power strata.

    Requires supp(D) inside the named ramified places (plus P_inf); the
    unnamed conjugate roots never need individual factors because they all
    carry the same stratum coefficient, which groups into a power of f.
    l(D) above MAX_BASIS raises ValueError before anything is built.
    """
    check_named_support(curve, D)
    strata = list(_strata(curve, D))
    size = sum(deg + 1 for _, _, deg, _ in strata)
    if size > MAX_BASIS:
        raise ValueError(f"l(D) = {size} exceeds the basis cap rr.MAX_BASIS = {MAX_BASIS}")
    return RRBasis(tuple(
        BasisFunction(y_pow=t, x_pow=j, denom=denom, f_pow=shared)
        for t, shared, deg, denom in strata for j in range(deg + 1)
    ))


# ---------------------------------------------------------------------------
# dimension oracles


def gap_by_dims(curve: "KummerCurve", place: "Place", s: int) -> bool:
    """s is a gap at the place iff l((s-1)P) == l(sP)."""
    if s < 1:
        raise ValueError("gap test needs s >= 1")
    if place.kind == "infinity":
        ds, dprev = Divisor.at_infinity(s), Divisor.at_infinity(s - 1)
    elif place.kind == "ramified":
        ds, dprev = Divisor.at_place(place.index, s), Divisor.at_place(place.index, s - 1)
    else:
        raise ValueError("gap oracle supports the distinguished places only")
    return dim(curve, ds) == dim(curve, dprev)


def member_by_dims(curve: "KummerCurve", a: int, b: int, index: int = 1) -> bool:
    """(a, b) in H(P_inf, P_index): the dimension must drop when either
    coordinate does, which is equivalent to a function with pole divisor
    exactly a*P_inf + b*P."""
    if a < 0 or b < 0:
        raise ValueError("membership is defined for non-negative pairs")
    full = dim(curve, Divisor(a, {index: b}))
    return (
        full > dim(curve, Divisor(a - 1, {index: b}))
        and full > dim(curve, Divisor(a, {index: b - 1}))
    )


def pure_gap_by_dims(curve: "KummerCurve", a: int, b: int, index: int = 1) -> bool:
    """(a, b) is a pure gap at (P_inf, P_index) iff dropping both
    coordinates by one leaves the dimension unchanged.

    Pairs with a zero coordinate are never pure (the constants always
    separate the two spaces), and the computation confirms that.
    """
    if a < 0 or b < 0:
        raise ValueError("pure-gap test needs non-negative coordinates")
    return dim(curve, Divisor(a, {index: b})) == dim(curve, Divisor(a - 1, {index: b - 1}))

"""One-point Weierstrass semigroups at the totally ramified places.

Both gap sets, and the gap graph of :mod:`.twopoint`, are read off one
lattice walk, :func:`gap_pairs`.  Two more routes to the same gap sets stay
as cross-checks: the residue criterion (:func:`is_gap`) and the dimension
oracle in :mod:`.rr`.  The test suite sweeps all of them against each other.

All comparisons are exact integer arithmetic; the fractional-part condition
of the residue criterion is cleared of denominators before comparing.
"""

from __future__ import annotations

from functools import lru_cache
from math import ceil, gcd as int_gcd
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from .curve import KummerCurve, Place


class NumericalSemigroup:
    """A cofinite additive submonoid of the non-negative integers.

    Stored as its finite gap set plus the conductor; membership past the
    conductor is automatic.  ``generators`` is the minimal generating set.
    """

    __slots__ = ("gaps", "genus", "frobenius", "conductor", "_gap_set", "_generators")

    def __init__(self, gaps: Iterable[int]):
        gap_list = sorted(set(int(s) for s in gaps))
        if any(s < 1 for s in gap_list):
            raise ValueError("gaps must be positive integers")
        object.__setattr__(self, "gaps", tuple(gap_list))
        object.__setattr__(self, "genus", len(gap_list))
        object.__setattr__(self, "frobenius", gap_list[-1] if gap_list else -1)
        object.__setattr__(self, "conductor", (gap_list[-1] + 1) if gap_list else 0)
        object.__setattr__(self, "_gap_set", frozenset(gap_list))
        object.__setattr__(self, "_generators", None)

    def __setattr__(self, name, value):
        raise AttributeError("NumericalSemigroup is immutable")

    @classmethod
    def from_generators(cls, generators: Iterable[int]) -> "NumericalSemigroup":
        """Sieve the monoid generated by the given positive integers.

        Their gcd must be 1, otherwise the gap set is infinite.  The sieve
        runs to the Schur bound (n1-1)(nk-1), past which everything is a
        member.
        """
        gens = sorted(set(int(g) for g in generators))
        if not gens or gens[0] < 1:
            raise ValueError("generators must be positive integers")
        g = 0
        for x in gens:
            g = int_gcd(g, x)
        if g != 1:
            raise ValueError(f"gcd of generators is {g}; the complement is infinite")
        if gens[0] == 1:
            return cls(())
        bound = (gens[0] - 1) * (gens[-1] - 1)
        member = [False] * (bound + 1)
        member[0] = True
        for n in range(1, bound + 1):
            member[n] = any(n >= x and member[n - x] for x in gens)
        return cls(n for n in range(1, bound + 1) if not member[n])

    def __contains__(self, n: int) -> bool:
        return n >= 0 and n not in self._gap_set

    @property
    def generators(self) -> tuple[int, ...]:
        """Minimal generators: members not expressible as a sum of two
        smaller positive members (all of them lie below conductor + least
        positive member)."""
        if self._generators is not None:
            return self._generators
        if self.genus == 0:
            object.__setattr__(self, "_generators", (1,))
            return (1,)
        least = next(n for n in range(1, self.conductor + 1) if n in self)
        gens = []
        for n in range(1, self.conductor + least + 1):
            if n not in self:
                continue
            if any((k in self) and ((n - k) in self) for k in range(1, n)):
                continue
            gens.append(n)
        out = tuple(gens)
        object.__setattr__(self, "_generators", out)
        return out

    def __eq__(self, other):
        if isinstance(other, NumericalSemigroup):
            return self.gaps == other.gaps
        return NotImplemented

    def __hash__(self):
        return hash(self.gaps)

    def __repr__(self):
        gens = ",".join(str(g) for g in self.generators)
        return f"NumericalSemigroup(<{gens}>, genus={self.genus})"

    def to_dict(self) -> dict:
        return {
            "generators": list(self.generators),
            "gaps": list(self.gaps),
            "genus": self.genus,
            "frobenius": self.frobenius,
        }


def _require_ramified(place: "Place", allow_infinity: bool) -> None:
    if place.kind == "ramified":
        return
    if place.kind == "infinity" and allow_infinity:
        return
    raise ValueError(f"expected a totally ramified place, got {place.label()}")


def is_gap(curve: "KummerCurve", place: "Place", s: int) -> bool:
    """Gap test at a totally ramified place.

    At a place over a root of f the residue criterion applies: with t the
    unique solution of s + lambda*t = 0 mod m in [0, m), s is a gap iff
    r * (t*lambda mod m) > m * (1 + floor((s-1)/m)).  As t*lambda = -s
    mod m, that reads r * (-s mod m) > m * (1 + floor((s-1)/m)), a function
    of (m, r) alone for every lambda.  Multiples of m are never gaps.

    At P_inf the pole numbers form <m, r>, so the criterion above does not
    apply (it describes the finite ramified places); membership in <m, r>
    decides instead.
    """
    _require_ramified(place, allow_infinity=True)
    if s < 0:
        raise ValueError("s must be non-negative")
    m, r = curve.m, curve.r
    if place.kind == "infinity":
        return s not in semigroups(m, r)[0]
    return r * (-s % m) > m * (1 + (s - 1) // m)


def gap_pairs(m: int, r: int) -> Iterator[tuple[int, int]]:
    """The lattice {(i, j) : i, j >= 1, m*j + r*i < m*r} as pairs
    (m*r - m*j - r*i, i + m*(j - 1)): a gap at P_inf, paired with a gap at
    a place over a root of f."""
    for i in range(1, m - m // r):
        for j in range(1, r - (r * i) // m):
            yield m * r - m * j - r * i, i + m * (j - 1)


@lru_cache(maxsize=None)
def semigroups(m: int, r: int) -> tuple[NumericalSemigroup, NumericalSemigroup]:
    """(H(P_inf), H(P)) as functions of (m, r): <m, r>, and the semigroup at
    every place over a root of f, rational center or not; each is the
    complement of one projection of gap_pairs."""
    return (NumericalSemigroup(a for a, _ in gap_pairs(m, r)),
            NumericalSemigroup(b for _, b in gap_pairs(m, r)))


def semigroup_at(curve: "KummerCurve", place: "Place") -> NumericalSemigroup:
    """The Weierstrass semigroup at a totally ramified place.

    P_inf carries <m, r>; a place over a root of f carries the complement of
    the gaps i + m*(j - 1) of gap_pairs.  Either way the gap count must
    equal the genus, which is asserted.
    """
    _require_ramified(place, allow_infinity=True)
    sem = semigroups(curve.m, curve.r)[place.kind != "infinity"]
    assert sem.genus == curve.genus, "gap count must equal the curve genus"
    return sem


def consecutive_genus(n: int, t: int) -> int:
    """Genus of the semigroup generated by n, n+1, ..., n+t-1 (t >= 2)."""
    if t < 2:
        raise ValueError("need at least two consecutive generators")
    if n < 2:
        raise ValueError("first generator must be >= 2")
    j = ceil((n - 1) / (t - 1))
    return j * (2 * (n - 1) - (j - 1) * (t - 1)) // 2


def check_consecutive_form(curve: "KummerCurve", place: "Place") -> tuple[bool, NumericalSemigroup]:
    """For m = r*t + 1: is H(P) generated by m - floor(m/r), ..., m?

    Builds the consecutive-generator semigroup and compares it with
    semigroup_at; returns (matches, built semigroup).  Requires m = 1 mod r
    with m > r, and a finite ramified place.
    """
    _require_ramified(place, allow_infinity=False)
    m, r = curve.m, curve.r
    if m <= r or (m - 1) % r != 0:
        raise ValueError(f"m = {m} is not of the form r*t + 1 with r = {r}, t >= 1")
    low = m - m // r
    expected = NumericalSemigroup.from_generators(range(low, m + 1))
    return expected == semigroup_at(curve, place), expected


def is_symmetric(sem: NumericalSemigroup) -> bool:
    """A semigroup of genus g is symmetric iff its largest gap is 2g - 1."""
    if sem.genus < 1:
        raise ValueError("symmetry is defined for genus >= 1")
    return sem.frobenius == 2 * sem.genus - 1

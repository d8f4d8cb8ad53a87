"""One-point Weierstrass semigroups at the totally ramified places.

Both gap sets, and the gap graph of :mod:`.twopoint`, are read off one
memoised lattice walk per (m, r), :func:`gap_pairs`, for genus up to
MAX_GENUS.  Two more routes to the same gap sets stay as cross-checks: the
closed-form gap tests of :func:`is_gap`, which never walk, and the
dimension oracle in :mod:`.rr`.
The test suite sweeps all of them against each other.

All comparisons are exact integer arithmetic; the fractional-part condition
of the residue criterion is cleared of denominators before comparing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

from .rr import InternalCheckError

if TYPE_CHECKING:  # pragma: no cover - imports for annotations only
    from .curve import KummerCurve, Place

# the walk's time and memory grow with the genus (m - 1)(r - 1)/2
MAX_GENUS = 2 ** 16


@dataclass(frozen=True)
class NumericalSemigroup:
    """A cofinite additive submonoid of the non-negative integers.

    Built from its finite gap set, kept sorted as ``gaps``; membership past
    the conductor is automatic.  ``generators`` is the minimal generating
    set.  Immutable, and compared and hashed by ``gaps``, from which the
    genus, Frobenius number, conductor and generators are derived.
    """

    gaps: tuple[int, ...]
    genus: int = field(init=False, compare=False)
    frobenius: int = field(init=False, compare=False)
    conductor: int = field(init=False, compare=False)
    _gap_set: frozenset[int] = field(init=False, compare=False)

    def __post_init__(self):
        gap_list = sorted(set(int(s) for s in self.gaps))
        if any(s < 1 for s in gap_list):
            raise ValueError("gaps must be positive integers")
        for name, value in (("gaps", tuple(gap_list)), ("genus", len(gap_list)),
                            ("frobenius", gap_list[-1] if gap_list else -1),
                            ("conductor", (gap_list[-1] + 1) if gap_list else 0),
                            ("_gap_set", frozenset(gap_list))):
            object.__setattr__(self, name, value)

    def __contains__(self, n: int) -> bool:
        return n >= 0 and n not in self._gap_set

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """Minimal generators: members not expressible as a sum of two
        smaller positive members (all of them lie below conductor + least
        positive member).  Such a sum is a smaller generator plus a positive
        member, so one bit-set shift per generator marks all of them."""
        if self.genus == 0:
            return (1,)
        least = next(n for n in range(1, self.conductor + 1) if n in self)
        top = self.conductor + least
        # bit n is set iff n is a positive member below top
        positive = int("".join("1" if n in self else "0" for n in range(top - 1, 0, -1)) + "0", 2)
        sums, gens = 0, []
        for n in range(least, top):
            if n in self and not sums >> n & 1:
                gens.append(n)
                if n < self.conductor:  # larger ones only reach top and past
                    sums |= positive << n
        return tuple(gens)

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
    apply (it describes the finite ramified places).  There s = a*m + b*r
    with a, b >= 0 needs b = s/r mod m, so s is a gap iff s < r*(s/r mod m).
    """
    _require_ramified(place, allow_infinity=True)
    if s < 0:
        raise ValueError("s must be non-negative")
    m, r = curve.m, curve.r
    if place.kind == "infinity":
        return s < r * (s * pow(r, -1, m) % m)
    return r * (-s % m) > m * (1 + (s - 1) // m)


@lru_cache(maxsize=None)
def gap_pairs(m: int, r: int) -> tuple[tuple[int, int], ...]:
    """The lattice {(i, j) : i, j >= 1, m*j + r*i < m*r} as sorted pairs
    (m*r - m*j - r*i, i + m*(j - 1)): a gap at P_inf, paired with a gap at
    a place over a root of f; the one walk per (m, r).  A genus past
    MAX_GENUS raises ValueError before the walk."""
    genus = (m - 1) * (r - 1) // 2
    if genus > MAX_GENUS:
        raise ValueError(f"genus {genus} exceeds onepoint.MAX_GENUS = {MAX_GENUS}")
    pairs = tuple(sorted((m * r - m * j - r * i, i + m * (j - 1))
                         for i in range(1, m - m // r) for j in range(1, r - (r * i) // m)))
    if len(pairs) != genus:
        raise InternalCheckError(f"{len(pairs)} gap pairs, want the genus {genus}")
    return pairs


@lru_cache(maxsize=None)
def semigroups(m: int, r: int) -> tuple[NumericalSemigroup, NumericalSemigroup]:
    """(H(P_inf), H(P)) as functions of (m, r): <m, r>, and the semigroup at
    every place over a root of f, rational center or not; each is the
    complement of one projection of gap_pairs."""
    pairs = gap_pairs(m, r)
    return (NumericalSemigroup(a for a, _ in pairs), NumericalSemigroup(b for _, b in pairs))


def semigroup_at(curve: "KummerCurve", place: "Place") -> NumericalSemigroup:
    """The Weierstrass semigroup at a totally ramified place.

    P_inf carries <m, r>; a place over a root of f carries the complement of
    the gaps i + m*(j - 1) of gap_pairs.  Either way the gap count must
    equal the genus, which is checked.
    """
    _require_ramified(place, allow_infinity=True)
    sem = semigroups(curve.m, curve.r)[place.kind != "infinity"]
    if sem.genus != curve.genus:
        raise InternalCheckError(f"{sem.genus} gaps, want the curve genus {curve.genus}")
    return sem


def consecutive_genus(n: int, t: int) -> int:
    """Genus of the semigroup generated by n, n+1, ..., n+t-1 (t >= 2)."""
    if t < 2:
        raise ValueError("need at least two consecutive generators")
    if n < 2:
        raise ValueError("first generator must be >= 2")
    j = -(-(n - 1) // (t - 1))
    return j * (2 * (n - 1) - (j - 1) * (t - 1)) // 2


def check_consecutive_form(curve: "KummerCurve", place: "Place") -> tuple[bool, NumericalSemigroup]:
    """For m = r*t + 1: is H(P) generated by m - floor(m/r), ..., m?

    Builds the consecutive-generator semigroup and compares it with
    semigroup_at; returns (matches, built semigroup).  Requires m = 1 mod r
    with m > r, and a finite ramified place.  semigroup_at comes first, so
    the genus cap holds here too.  x is a sum of j generators from n, ..., m
    iff j*n <= x <= j*m, so x is a gap iff ceil(x/m) > floor(x/n), and
    from j = ceil((n - 1)/(t - 1)) on, with t = m - n + 1 generators, the
    ranges [j*n, j*m] overlap: every gap lies below j*n.
    """
    _require_ramified(place, allow_infinity=False)
    m, r = curve.m, curve.r
    if (m - 1) % r != 0:  # m >= 2, so this also refuses m <= r
        raise ValueError(f"m = {m} is not of the form r*t + 1 with r = {r}, t >= 1")
    actual = semigroup_at(curve, place)
    n = m - m // r
    top = -(-(n - 1) // (m - n)) * n
    expected = NumericalSemigroup(x for x in range(1, top) if -(-x // m) > x // n)
    return expected == actual, expected


def is_symmetric(sem: NumericalSemigroup) -> bool:
    """A semigroup of genus g is symmetric iff its largest gap is 2g - 1."""
    if sem.genus < 1:
        raise ValueError("symmetry is defined for genus >= 1")
    return sem.frobenius == 2 * sem.genus - 1

"""Two-point Weierstrass theory at (P_inf, P) for a finite ramified P.

All finite totally ramified places carry the same structure, and as
gcd(m, lambda) = 1, y' = y**a / f**b with a*lambda - b*m = 1 turns the
curve into y'**m = f(x) fixing x, P_inf and every P_i.  So everything here
depends only on (m, r) and is memoised on those integers: the gap graph is
the lattice walk onepoint.gap_pairs, pure gaps come from the floor
criterion for every lambda, and the dimension oracle of :mod:`.rr` stays as
the cross-check (tests, ``--member``, verify-paper).
The pair convention: first coordinate at P_inf, second at P.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from typing import TYPE_CHECKING

from .onepoint import gap_pairs, semigroups

if TYPE_CHECKING:  # pragma: no cover
    from .curve import KummerCurve


@dataclass(frozen=True)
class GapGraph:
    """The graph of the bijection between the gap sets at P_inf and P.

    ``pairs`` has exactly genus-many entries; the first coordinates run over
    the gaps at P_inf and the second over the gaps at P, each hit once.
    """

    pairs: tuple[tuple[int, int], ...]

    def by_first(self) -> dict[int, int]:
        return {a: b for a, b in self.pairs}

    def by_second(self) -> dict[int, int]:
        return {b: a for a, b in self.pairs}

    def to_list(self) -> list[list[int]]:
        return [[a, b] for a, b in self.pairs]


@dataclass(frozen=True)
class PureGapBox:
    """Axis-aligned rectangle of pure gaps: [beta, beta+t1] x [gamma, gamma+t2].

    Build through :func:`verified_box` (or the searches below), which check
    every lattice point; the dataclass itself carries no curve reference.
    """

    beta: int
    gamma: int
    t1: int
    t2: int

    def points(self):
        for da in range(self.t1 + 1):
            for db in range(self.t2 + 1):
                yield (self.beta + da, self.gamma + db)

    def divisor_coefficients(self) -> tuple[int, int]:
        """(a, b) with G = a*P_inf + b*P the divisor this box designs."""
        return 2 * self.beta + self.t1 - 1, 2 * self.gamma + self.t2 - 1

    def bound(self, genus: int) -> int:
        """Homma-Kim distance bound of the residue code C_Omega for the
        divisor this box designs: deg G - (2g - 2) + t1 + t2 + 2."""
        return sum(self.divisor_coefficients()) - (2 * genus - 2) + self.t1 + self.t2 + 2


def gap_graph(curve: "KummerCurve") -> GapGraph:
    """The pairs of onepoint.gap_pairs, sorted; its projections are the gap
    sets of onepoint.semigroups."""
    return _gap_graph(curve.m, curve.r)


@lru_cache(maxsize=None)
def _gap_graph(m: int, r: int) -> GapGraph:
    graph = GapGraph(tuple(sorted(gap_pairs(m, r))))
    assert len(graph.pairs) == (m - 1) * (r - 1) // 2, "pair count must equal the genus"
    return graph


@lru_cache(maxsize=None)
def _membership_data(m: int, r: int):
    graph = _gap_graph(m, r)
    return (graph.by_first(), graph.by_second()) + semigroups(m, r)


def is_member(curve: "KummerCurve", a: int, b: int) -> bool:
    """(a, b) in H(P_inf, P), decided through the lub closure.

    The semigroup is the set of componentwise maxima of pairs drawn from
    the gap graph together with H(P_inf) x {0} and {0} x H(P).  (a, b) is
    such a maximum iff the closure contains an element with first
    coordinate exactly a and second <= b, and one with second coordinate
    exactly b and first <= a.
    """
    if a < 0 or b < 0:
        raise ValueError("membership is defined for non-negative pairs")
    by_first, by_second, sem_inf, sem_p = _membership_data(curve.m, curve.r)
    first_ok = (a in sem_inf) or by_first[a] <= b
    second_ok = (b in sem_p) or by_second[b] <= a
    return first_ok and second_ok


def floor_pure_gap(m: int, r: int, a: int, b: int) -> bool:
    """Pure-gap floor criterion for y**m = f(x)**lambda, deg f = r (any
    lambda prime to m, so the criterion for lambda = 1 applies).

    (a, b) is a pure gap at (P_inf, P) iff for every t in [0, m) the sum
    floor((a - r*t)/m) + floor((b + t)/m) is either negative or unchanged
    when a and b both drop by one.  A zero coordinate always fails the
    t = 0 condition, matching the fact that such pairs are never pure.
    """
    if a < 0 or b < 0:
        raise ValueError("pure-gap test needs non-negative coordinates")
    for t in range(m):
        s = (a - r * t) // m + (b + t) // m
        if s < 0:
            continue
        if s == (a - 1 - r * t) // m + (b - 1 + t) // m:
            continue
        return False
    return True


def is_pure_gap(curve: "KummerCurve", a: int, b: int) -> bool:
    """Pure-gap test at (P_inf, P) by the floor criterion."""
    return floor_pure_gap(curve.m, curve.r, a, b)


def known_pure_gap(q: int, l: int) -> tuple[int, int]:
    """The pure gap (q**(l+1) - 2*q**l - 2, 1) on curves y**(q**l + 1) = f(x)
    with f separable of degree q, for prime powers q > 3.

    The returned pair is re-checked against the floor criterion before being
    handed out.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    if q <= 3 or not _is_prime_power(q):
        raise ValueError(f"q must be a prime power > 3, got {q}")
    a = q ** (l + 1) - 2 * q ** l - 2
    assert floor_pure_gap(q ** l + 1, q, a, 1)
    return (a, 1)


def _is_prime_power(n: int) -> bool:
    if n < 2:
        return False
    p = next((d for d in range(2, isqrt(n) + 1) if n % d == 0), n)
    while n % p == 0:
        n //= p
    return n == 1


def enumerate_pure_gaps(curve: "KummerCurve", bound: int | None = None) -> tuple[tuple[int, int], ...]:
    """All pure gaps with both coordinates in [1, bound] (default 4g).

    Every pure-gap coordinate pair satisfies a + b <= 2g - 1, so any bound
    of at least 2g - 1 already captures the full set; the bound exists
    because no two-point analogue of the conductor is available.  The scan
    stops at 4g, so a larger bound costs no more than the default.
    """
    if bound is None:
        bound = 4 * curve.genus
    if bound < 1:
        raise ValueError("bound must be >= 1")
    m, r = curve.m, curve.r
    top = min(bound, 4 * curve.genus)
    return tuple((a, b) for a in range(1, top + 1) for b in range(1, top + 1)
                 if floor_pure_gap(m, r, a, b))


def verified_box(curve: "KummerCurve", beta: int, gamma: int, t1: int, t2: int) -> PureGapBox:
    """Build a PureGapBox after checking every lattice point is a pure gap."""
    box = PureGapBox(beta, gamma, t1, t2)
    bad = _first_impure(curve, box)
    if bad is not None:
        raise ValueError(f"{bad} is not a pure gap; rectangle rejected")
    return box


def _first_impure(curve: "KummerCurve", box: PureGapBox) -> tuple[int, int] | None:
    return next((pt for pt in box.points() if not is_pure_gap(curve, *pt)), None)


@dataclass(frozen=True)
class BoxDesign:
    """A verified box together with the code parameters it designs."""

    box: PureGapBox
    n: int
    deg_G: int
    designed_distance: int
    k: int

    def to_dict(self) -> dict:
        a, b = self.box.divisor_coefficients()
        return {
            "beta": self.box.beta,
            "gamma": self.box.gamma,
            "t1": self.box.t1,
            "t2": self.box.t2,
            "inf_coeff": a,
            "place_coeff": b,
            "degG": self.deg_G,
            "designed_d": self.designed_distance,
            "k": self.k,
        }


def _grow_box(pure: set, beta: int, gamma: int, t1_first: bool) -> tuple[int, int]:
    t1 = t2 = 0
    if t1_first:
        while (beta + t1 + 1, gamma) in pure:
            t1 += 1
        while all((beta + da, gamma + t2 + 1) in pure for da in range(t1 + 1)):
            t2 += 1
    else:
        while (beta, gamma + t2 + 1) in pure:
            t2 += 1
        while all((beta + t1 + 1, gamma + db) in pure for db in range(t2 + 1)):
            t1 += 1
    return t1, t2


def best_pure_gap_box(curve: "KummerCurve", n: int) -> BoxDesign:
    """Search the pure-gap set for the rectangle designing the best code.

    Every pure gap seeds two greedily grown maximal rectangles (width first,
    then the transpose).  A rectangle [beta, beta+t1] x [gamma, gamma+t2]
    designs G = (2*beta+t1-1) P_inf + (2*gamma+t2-1) P with distance bound
    PureGapBox.bound, subject to 2g - 2 < deg G < n, where n is the code
    length the caller builds on: the rational places off P_inf and P.

    The best design has the largest designed distance, then the largest
    dimension k = n + g - 1 - deg G, then the lexicographically smallest box.
    """
    pure_list = enumerate_pure_gaps(curve)
    if not pure_list:
        raise ValueError("no pure gaps found within the bound")
    pure = set(pure_list)
    g = curve.genus
    candidates: dict[PureGapBox, BoxDesign] = {}
    for beta, gamma in pure_list:
        for t1_first in (True, False):
            t1, t2 = _grow_box(pure, beta, gamma, t1_first)
            box = PureGapBox(beta, gamma, t1, t2)
            if box in candidates:
                continue
            deg_g = sum(box.divisor_coefficients())
            if not (2 * g - 2 < deg_g < n):
                continue
            candidates[box] = BoxDesign(
                box=box, n=n, deg_G=deg_g, designed_distance=box.bound(g),
                k=n + g - 1 - deg_g,
            )
    if not candidates:
        raise ValueError(
            "no pure-gap rectangle designs a divisor with 2g - 2 < deg G < n"
        )
    # max keeps the first of equal keys: the smallest box
    boxes = sorted(candidates, key=lambda b: (b.beta, b.gamma, b.t1, b.t2))
    return max((candidates[b] for b in boxes),
               key=lambda d: (d.designed_distance, d.k))


def box_for_divisor(curve: "KummerCurve", inf_coeff: int, place_coeff: int) -> PureGapBox | None:
    """Best pure-gap rectangle matching G = inf_coeff*P_inf + place_coeff*P
    (largest t1 + t2, then smallest t1), or None: then only the plain Goppa
    bound applies to G.

    The matching rectangles share one centre and nest, so the pure ones form
    a staircase: the walk steps t1 up by 2 and only ever lowers t2.  Pure-gap
    coordinates are at most 2g - 1, so a box designs coefficients
    2*beta + t1 - 1 <= 2*(beta + t1) - 1 <= 4g - 3, and larger ones get None.
    """
    top = 4 * curve.genus - 3
    if not (1 <= inf_coeff <= top and 1 <= place_coeff <= top):
        return None
    best: PureGapBox | None = None
    t2 = place_coeff - 1
    for t1 in range(1 - inf_coeff % 2, inf_coeff, 2):
        while t2 >= 0:
            box = PureGapBox((inf_coeff + 1 - t1) // 2, (place_coeff + 1 - t2) // 2, t1, t2)
            if _first_impure(curve, box) is None:
                break
            t2 -= 2
        if t2 < 0:
            break
        if best is None or t1 + t2 > best.t1 + best.t2:
            best = box
    return best

"""Two-point Weierstrass theory at (P_inf, P) for a finite ramified P.

All finite totally ramified places carry the same structure, and as
gcd(m, lambda) = 1, y' = y**a / f**b with a*lambda - b*m = 1 turns the
curve into y'**m = f(x) fixing x, P_inf and every P_i.  So everything here
depends only on (m, r) and is memoised on those integers: the gap graph is
the lattice walk onepoint.gap_pairs, membership reads its bijection alone,
pure gaps come from the floor criterion for every lambda, and the dimension
oracle of :mod:`.rr` stays as the cross-check (tests, ``--member``,
verify-paper).  The box search ranks its designs once per (m, r), and the
code length n only picks the first design with deg G < n.
The pair convention: first coordinate at P_inf, second at P.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from typing import TYPE_CHECKING

from .onepoint import gap_pairs
from .rr import InternalCheckError

if TYPE_CHECKING:  # pragma: no cover - imports for annotations only
    from .curve import KummerCurve

# cap on the pure-gap scan of top**2 pairs, at most m floor steps each: at
# 0.1-0.15 us a step (2-vCPU host) the largest allowed scan takes 2-3 s
MAX_SCAN_STEPS = 2 ** 24


@dataclass(frozen=True)
class GapGraph:
    """The graph of the bijection between the gap sets at P_inf and P.

    ``pairs`` has exactly genus-many entries; the first coordinates run over
    the gaps at P_inf and the second over the gaps at P, each hit once.
    """

    pairs: tuple[tuple[int, int], ...]

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
    """The pairs of onepoint.gap_pairs; its projections are the gap sets of
    onepoint.semigroups."""
    return GapGraph(gap_pairs(curve.m, curve.r))


@lru_cache(maxsize=None)
def _membership_data(m: int, r: int) -> tuple[dict[int, int], dict[int, int]]:
    """The bijection sigma of the gap graph and its inverse."""
    pairs = gap_pairs(m, r)
    return dict(pairs), {b: a for a, b in pairs}


def is_member(curve: "KummerCurve", a: int, b: int) -> bool:
    """(a, b) in H(P_inf, P), decided through the lub closure.

    The semigroup is the set of componentwise maxima of pairs drawn from
    the gap graph together with H(P_inf) x {0} and {0} x H(P).  (a, b) is
    such a maximum iff the closure contains an element with first
    coordinate exactly a and second <= b, and one with second coordinate
    exactly b and first <= a: sigma(a) <= b for a gap a at P_inf, as a
    member a has (a, 0), and sigma^-1(b) <= a for a gap b at P.
    """
    if a < 0 or b < 0:
        raise ValueError("membership is defined for non-negative pairs")
    sigma, sigma_inv = _membership_data(curve.m, curve.r)
    return sigma.get(a, 0) <= b and sigma_inv.get(b, 0) <= a


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

    The returned pair is re-checked against the floor criterion, m = q**l + 1
    steps, before being handed out; past MAX_SCAN_STEPS that check is
    refused with ValueError before it starts.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    if q <= 3:
        raise ValueError(f"q must be a prime power > 3, got {q}")
    # q**l >= 2**l, so a large l is refused before q**l is computed
    if l >= MAX_SCAN_STEPS.bit_length() or q ** l + 1 > MAX_SCAN_STEPS:
        raise ValueError(f"checking the pair takes q**l + 1 floor steps, past "
                         f"twopoint.MAX_SCAN_STEPS = {MAX_SCAN_STEPS}")
    if not _is_prime_power(q):
        raise ValueError(f"q must be a prime power > 3, got {q}")
    a = q ** (l + 1) - 2 * q ** l - 2
    if not floor_pure_gap(q ** l + 1, q, a, 1):
        raise InternalCheckError(f"({a}, 1) fails the floor criterion")
    return (a, 1)


def _is_prime_power(n: int) -> bool:
    """n > 1 (known_pure_gap has already refused q <= 3)."""
    p = next((d for d in range(2, isqrt(n) + 1) if n % d == 0), n)
    while n % p == 0:
        n //= p
    return n == 1


def enumerate_pure_gaps(curve: "KummerCurve", bound: int | None = None) -> tuple[tuple[int, int], ...]:
    """All pure gaps with both coordinates in [1, bound] (default 4g).

    Every pure-gap coordinate pair satisfies a + b <= 2g - 1, so any bound
    of at least 2g - 1 already captures the full set; the bound exists
    because no two-point analogue of the conductor is available.  The scan
    stops at 4g, so a larger bound costs no more than the default.  A scan
    past MAX_SCAN_STEPS floor steps raises ValueError before it starts.
    """
    if bound is None:
        bound = 4 * curve.genus
    if bound < 1:
        raise ValueError("bound must be >= 1")
    top = min(bound, 4 * curve.genus)
    _refuse_long_scan(curve.m, top)
    return _pure_gaps(curve.m, curve.r, top)


def _refuse_long_scan(m: int, top: int) -> None:
    if top * top * m > MAX_SCAN_STEPS:
        raise ValueError(f"pure-gap scan of {top}^2 pairs at {m} steps each exceeds "
                         f"twopoint.MAX_SCAN_STEPS = {MAX_SCAN_STEPS}")


def _pure_gaps(m: int, r: int, top: int) -> tuple[tuple[int, int], ...]:
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
    """A verified box, code length n and genus; the rest is read off them."""

    box: PureGapBox
    n: int
    genus: int

    @property
    def deg_G(self) -> int:
        return sum(self.box.divisor_coefficients())

    @property
    def designed_distance(self) -> int:
        return self.box.bound(self.genus)

    @property
    def k(self) -> int:
        return self.n + self.genus - 1 - self.deg_G

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


def _grow_box(pure: set, beta: int, gamma: int) -> tuple[int, int]:
    """Grow [beta, beta+t1] x [gamma, gamma+t2] inside pure, t1 first."""
    t1 = t2 = 0
    while (beta + t1 + 1, gamma) in pure:
        t1 += 1
    while all((beta + da, gamma + t2 + 1) in pure for da in range(t1 + 1)):
        t2 += 1
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
    As k falls with deg G for every n, the ranking is built once per (m, r)
    by _design_ranking, and n only picks its first design with deg G < n.
    """
    # refused from (m, r) before the memo is read, whatever it holds
    _refuse_long_scan(curve.m, 4 * curve.genus)
    ranking = _design_ranking(curve.m, curve.r)
    if ranking is None:
        raise ValueError("no pure gaps found within the bound")
    box = next((box for deg, box in ranking if deg < n), None)
    if box is None:
        raise ValueError(
            "no pure-gap rectangle designs a divisor with 2g - 2 < deg G < n"
        )
    return BoxDesign(box=box, n=n, genus=curve.genus)


@lru_cache(maxsize=None)
def _design_ranking(m: int, r: int) -> tuple[tuple[int, PureGapBox], ...] | None:
    """(deg G, box) for the grown rectangles with deg G > 2g - 2, best first
    by (-designed distance, deg G, beta, gamma, t1, t2), kept only where
    deg G is below that of every better one: at most one per degree, and
    the first with deg G < n is the best design at n.  None when there is
    no pure gap."""
    g = (m - 1) * (r - 1) // 2
    pure_list = _pure_gaps(m, r, 4 * g)
    if not pure_list:
        return None
    pure = set(pure_list)
    transposed = {(b, a) for a, b in pure_list}
    boxes = (PureGapBox(beta, gamma, t1, t2)
             for beta, gamma in pure_list
             for t1, t2 in (_grow_box(pure, beta, gamma),
                            _grow_box(transposed, gamma, beta)[::-1]))
    kept: list[tuple[int, PureGapBox]] = []
    for _, deg, *box in sorted((-box.bound(g), sum(box.divisor_coefficients()),
                                box.beta, box.gamma, box.t1, box.t2) for box in boxes):
        if deg > 2 * g - 2 and (not kept or deg < kept[-1][0]):
            kept.append((deg, PureGapBox(*box)))
    return tuple(kept)


def box_for_divisor(curve: "KummerCurve", inf_coeff: int, place_coeff: int) -> PureGapBox | None:
    """Best pure-gap rectangle matching G = inf_coeff*P_inf + place_coeff*P
    (largest t1 + t2, then smallest t1), or None: then only the plain Goppa
    bound applies to G.

    The matching rectangles share one centre and nest, so the pure ones form
    a staircase: the walk steps t1 up by 2 and only ever lowers t2.  The far
    corner (beta + t1, gamma + t2) is a pure gap, so its coordinates sum to at
    most 2g - 1, and a box designs inf_coeff + place_coeff
    = 2*(beta + gamma) + t1 + t2 - 2 <= 4g - 4; larger sums get None.
    """
    if inf_coeff < 1 or place_coeff < 1 or inf_coeff + place_coeff > 4 * curve.genus - 4:
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

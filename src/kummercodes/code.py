"""AG code construction on the distinguished divisors.

Evaluation codes come from evaluating a Riemann-Roch basis at every rational
place outside the divisor support; residue codes are their duals, computed
as nullspaces.  Generator matrices are canonical reduced row-echelon forms
over F_q so identical inputs give byte-identical output.  A residue code
finds its own pure-gap box for G (twopoint.box_for_divisor) and takes the
Homma-Kim bound of that box, else the Goppa bound deg G - (2g - 2).

Matrix work runs on numpy arrays of canonical encodings, in the field's
encoding dtype (uint8 for q <= 256, else uint16), through the exact field
lookup tables, on whole arrays: the basis is evaluated at every finite
place by one exp/log gather per y-stratum and at P_inf from valuations,
and rref eliminates each pivot column in one gather per block of rows.  One rref of the columns in
reverse order gives both the canonical dual (nullspace) and the coordinates
a shortening drops; the shortened generator is then read off one more rref.
The exact minimum distance is a full scan of one codeword per scalar class,
(q**k - 1)/(q - 1) words, weighed against a table of suffix combinations.
Every temporary here whose size grows with k*n or q**s*n (rref's index
blocks, the suffix table and its comparisons) stays within gf.WORK_BYTES
bytes, so memory is capped whatever q**k is; the budget still bounds q**k.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import groupby
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from . import gf, rr, twopoint
from .gf import Field

if TYPE_CHECKING:  # pragma: no cover - imports for annotations only
    from .curve import KummerCurve, Place

DEFAULT_BUDGET = 2 ** 24

GOPPA_L = "goppa_L"
GOPPA_OMEGA = "goppa_omega"
HOMMA_KIM = "homma_kim"


class ZeroMapError(ValueError):
    """L(G) vanishes at every evaluation place: the evaluation code is zero."""


@dataclass(frozen=True)
class LinearCode:
    """[n, k] code over F_q with a canonical (RREF) generator matrix."""

    field: Field
    gen: np.ndarray  # k x n array of encodings in the table dtype; made read-only
    designed_d: int
    d_kind: str

    @property
    def n(self) -> int:
        return self.gen.shape[1]

    @property
    def k(self) -> int:
        return self.gen.shape[0]

    def summary(self) -> dict:
        return {
            "q": self.field.q,
            "n": self.n,
            "k": self.k,
            "designed_d": self.designed_d,
            "d_kind": self.d_kind,
        }

    def __post_init__(self):
        self.gen.setflags(write=False)

    def matrix_lines(self) -> Iterator[str]:
        """The generator as text, one newline-terminated row at a time."""
        digits = [str(v) for v in range(self.field.q)]
        for row in self.gen:
            yield " ".join(map(digits.__getitem__, row.tolist())) + "\n"


# ---------------------------------------------------------------------------
# exact linear algebra on encoding arrays


def rref(field: Field, mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form over F_q; returns (matrix, pivot columns).

    Zero rows are dropped, so the result always has full row rank, in the
    field's encoding dtype; an entry outside [0, q) raises ValueError.  Each
    pivot clears its column from every other row by one mul and one add
    gather, on the flat tables at index a*q + b, over the columns from the
    pivot on: the pivot row is zero to its left.  The flat index is formed
    in np.intp, since a*q overflows the encoding dtype, for a block of rows
    at a time, so that each index temporary stays within gf.WORK_BYTES.
    """
    t = field.tables()
    q = field.q
    add_flat, mul_flat = t.add.ravel(), t.mul.ravel()
    m = np.asarray(mat)
    if m.size and (m.min() < 0 or m.max() >= q):
        raise ValueError(f"matrix entries must be encodings in [0, {q})")
    m = m.astype(t.add.dtype)
    rows, cols = m.shape
    pivots = []
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        nz = np.flatnonzero(m[rank:, col])
        if nz.size == 0:
            continue
        sel = rank + int(nz[0])
        if sel != rank:
            m[[rank, sel]] = m[[sel, rank]]
        prow = t.mul[t.inv[m[rank, col]], m[rank, col:]]
        m[rank, col:] = prow
        hit = np.flatnonzero(m[:, col])
        hit = hit[hit != rank]
        step = max(1, gf.WORK_BYTES // (8 * prow.size))  # rows of intp indices
        for lo in range(0, hit.size, step):
            block = hit[lo:lo + step]
            scaled = np.take(mul_flat, t.neg[m[block, col]].astype(np.intp)[:, None] * q + prow)
            m[block, col:] = np.take(add_flat, m[block, col:].astype(np.intp) * q + scaled)
        pivots.append(col)
        rank += 1
    return m[:rank], pivots


def nullspace(field: Field, mat: np.ndarray) -> np.ndarray:
    """Canonical basis of {v : mat . v^T = 0}, as an RREF matrix.

    The pivots of rref(mat[:, ::-1]) are the rightmost information set B of
    the row space; read left to right, the row of that rref for b in B ends
    at column b.  By matroid duality the complement F of B is the leftmost
    information set of the dual, so the vectors with the identity on F and
    the negated rref entries on B are already the dual's RREF: the vector
    for f in F is 0 at every b < f, because the row for b ends before f.
    An entry outside [0, q) raises ValueError.
    """
    mat = np.asarray(mat)
    n = mat.shape[1]
    red, rev_pivots = rref(field, mat[:, ::-1])
    bound = n - 1 - np.array(rev_pivots, dtype=np.int64)
    is_free = np.ones(n, dtype=bool)
    is_free[bound] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((free.size, n), dtype=red.dtype)
    basis[np.arange(free.size), free] = 1
    basis[:, bound] = field.tables().neg[red[:, ::-1][:, free]].T
    return basis


def field_matmul(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a (r x s) times b (s x c) over F_q, on encoding arrays."""
    t = field.tables()
    r, s = a.shape
    s2, c = b.shape
    if s != s2:
        raise rr.InternalCheckError(f"inner dimensions {s} and {s2} differ")
    out = np.zeros((r, c), dtype=t.add.dtype)
    for kk in range(s):
        out = t.add[out, t.mul[a[:, kk][:, None], b[kk, :][None, :]]]
    return out


# ---------------------------------------------------------------------------
# code construction


def evaluation_places(curve: "KummerCurve", G: rr.Divisor):
    """The rational places outside supp(G), in the canonical order; raises
    ValueError unless every place of supp(G) has a rational center, and when
    supp(G) holds every rational place, so that a code would have n = 0."""
    rr.check_named_support(curve, G)
    supp = {("ramified", i) for i in G.support_indices}
    if G.coeff_inf:
        supp.add(("infinity", 0))
    places = [p for p in curve.rational_places() if (p.kind, p.index) not in supp]
    if not places:
        raise ValueError("supp(G) holds every rational place: the code would have "
                         "length n = 0")
    return places


def evaluation_matrix(curve: "KummerCurve", fns: Sequence[rr.BasisFunction],
                      places: Sequence["Place"]) -> np.ndarray:
    """Encodings of the basis functions (rows) at the places (columns).

    At a finite place (x, y), a ramified P_i being (alpha_i, 0), the functions
    of one y-stratum share y**t * prod_i (x - alpha_i)**(-e_i) * f(x)**(-s)
    and differ only in x**j, so each row is one exp gather of
    j*log x + t*log y - sum_i e_i*log(x - alpha_i) - s*log f(x) mod q - 1,
    log f(x) read by x off the curve's one scan of f, ``curve.log_f``,
    and 0 where x = 0 < j or y = 0 < t.  y = f(x) = 0 only at a P_i, where
    t = 0 gives s = 0, and x - alpha_i vanishes only on supp G.  At P_inf
    a function is 1 where its valuation is 0 (monic factors), else 0.
    """
    field = curve.field
    t = field.tables()
    raw = np.zeros((len(fns), len(places)), dtype=t.add.dtype)
    finite, points = [], []
    for col, place in enumerate(places):
        if place.kind == "infinity":
            raw[:, col] = [fn.valuation(curve, place) == 0 for fn in fns]
        else:
            finite.append(col)
            points.append((place.x, place.y) if place.kind == "ordinary"
                          else (curve.alphas[place.index - 1], 0))
    xs, ys = np.array(points, dtype=t.add.dtype).reshape(-1, 2).T
    log_x, log_y, log_f = t.log[xs], t.log[ys], np.asarray(curve.log_f)[xs]
    start = 0
    for (y_pow, denom, f_pow), stratum in groupby(fns, lambda fn: (fn.y_pow, fn.denom, fn.f_pow)):
        js = np.array([fn.x_pow for fn in stratum], dtype=np.int64)
        base = y_pow * log_y - f_pow * log_f
        for i, e in denom:  # e is unbounded, so reduce it to keep base in int64
            base -= e % (field.q - 1) * t.log[t.add[xs, t.neg[curve.alphas[i - 1]]]]
        block = t.exp[(js[:, None] * log_x + base) % (field.q - 1)]
        block[(js[:, None] > 0) & (xs == 0) | (y_pow > 0) & (ys == 0)] = 0
        raw[start:start + len(js), finite] = block
        start += len(js)
    return raw


def evaluation_code(curve: "KummerCurve", G: rr.Divisor) -> LinearCode:
    """The code {(h(P_1), ..., h(P_n)) : h in L(G)} over F_q.

    Rows are the evaluations of the monomial basis of L(G), reduced to
    canonical RREF; k is the resulting rank (equal to l(G) whenever
    deg G < n), and k = 0 raises ZeroMapError.  Designed distance:
    n - deg G.  From deg G >= n + 2g - 1 on, l(G - D) = deg G - n + 1 - g,
    so k = l(G) - l(G - D) = n and the code is all of F_q^n: its RREF is
    the identity, built without a basis.
    """
    places = evaluation_places(curve, G)
    n = len(places)
    if G.degree >= n + 2 * curve.genus - 1:
        # tables() also refuses q > MAX_TABLE_Q before an n x n array is allocated
        gen = np.eye(n, dtype=curve.field.tables().add.dtype)
        return LinearCode(field=curve.field, gen=gen, designed_d=n - G.degree, d_kind=GOPPA_L)
    fns = rr.basis(curve, G).functions
    if not fns:
        raise ValueError("L(G) is trivial; the code would be empty")
    gen, _ = rref(curve.field, evaluation_matrix(curve, fns, places))
    if len(gen) == 0:
        raise ZeroMapError("evaluation map is identically zero")
    return LinearCode(field=curve.field, gen=gen, designed_d=n - G.degree, d_kind=GOPPA_L)


def residue_code(curve: "KummerCurve", G: rr.Divisor) -> LinearCode:
    """The dual of the evaluation code for G.

    Its designed distance is the Goppa bound deg G - (2g - 2), raised to
    PureGapBox.bound when G = a*P_inf + b*P_i with a >= 1 has a pure-gap
    box (twopoint.box_for_divisor).  A trivial dual raises ValueError: all
    of F_q^n when l(G) = 0, which needs deg G < g as l(G) >= deg G + 1 - g,
    and zero from deg G >= n + 2g - 1 on, both refused before anything is
    built; all of F_q^n again when L(G) vanishes at every place of the code.
    """
    n = len(evaluation_places(curve, G))
    if G.degree < curve.genus and rr.dim(curve, G) == 0:
        raise ValueError(f"the residue code is trivial: l(G) = 0, so it is all of "
                         f"F_q^{n} (k = {n})")
    try:
        primal = None if G.degree >= n + 2 * curve.genus - 1 else evaluation_code(curve, G)
    except ZeroMapError:
        raise ValueError(f"the residue code is trivial: L(G) vanishes at every place, "
                         f"so it is all of F_q^{n} (k = {n})") from None
    if primal is None or primal.k == n:
        raise ValueError(
            f"the residue code is trivial: the evaluation code for G is all "
            f"of F_q^{n} (k = 0)"
        )
    gen = nullspace(curve.field, primal.gen)
    box = None
    supp = G.support_indices
    if len(supp) == 1 and G.coeff_inf >= 1:
        box = twopoint.box_for_divisor(curve, G.coeff_inf, G.coeff(supp[0]))
    if box is None:
        designed, kind = G.degree - (2 * curve.genus - 2), GOPPA_OMEGA
    else:
        designed, kind = box.bound(curve.genus), HOMMA_KIM
    return LinearCode(field=curve.field, gen=gen, designed_d=designed, d_kind=kind)


# ---------------------------------------------------------------------------
# exact minimum distance by a full scan of the scalar classes


def exact_min_distance(code: LinearCode, budget: int = DEFAULT_BUDGET) -> int | None:
    """Minimum Hamming weight over all nonzero codewords.

    Returns None when q**k exceeds the budget, and raises ValueError on a
    budget below 1 or on a code with k = 0, which has no nonzero codeword.

    c*w has the weight of w for c != 0, so each of the (q**k - 1)/(q - 1)
    scalar classes is scanned once, through its message whose first nonzero
    digit is 1.  The last rows of the generator are expanded into a table T
    of their F_q-combinations, by T_j = {c*g_j + t : c in C_j, t in T_{j+1}}
    (one add-table gather per entry), while T stays within gf.WORK_BYTES.
    C_j is all of F_q, except at the top row when a whole level would not
    fit: there it is the encodings [0, p**i) for the largest i that fits,
    an additive subgroup, since encodings add digit by digit in base p.
    Every nonzero row of T is a multiple of a message leading inside the table,
    itself in T (each C_j holds 1), so T's nonzero rows are weighed once.  A
    message that leads at row l before the table gives v = g_l + sum c_j*g_j
    over the rows between, the top row's c_j running over the cosets a + C_j, a
    a multiple of p**i; v + t vanishes exactly where t = -v, so the weights of
    all of v + T come from one comparison with the negation table, a block the
    size of T.  Row 0 never enters T: its one prefix word is g_0.  The scan
    never stops early, so the result is exact and deterministic.
    """
    q, k, n = code.field.q, code.k, code.n
    if budget < 1:
        raise ValueError(f"budget must be a positive integer, got {budget}")
    if k == 0:
        raise ValueError("the code has dimension k = 0 and no nonzero codeword")
    if q ** k > budget:
        return None
    t = code.field.tables()
    gen = code.gen
    table = np.zeros((1, n), dtype=t.add.dtype)
    split, top = k, q  # rows split.. are in the table, row split with scalars [0, top)
    while split > 1 and top == q:
        width = q
        while width > 1 and width * table.nbytes > gf.WORK_BYTES:
            width //= code.field.p
        if width == 1:
            break
        split, top = split - 1, width
        table = t.add[t.mul[:top, gen[split]][:, None, :], table[None, :, :]].reshape(-1, n)
    best = int(np.count_nonzero(table[1:], axis=1).min(initial=n))  # row 0 is the zero word
    for lead in range(split):
        choices = [t.mul[:, row] for row in gen[lead + 1:split]]
        if top < q:
            choices.append(t.mul[::top, gen[split]])
        for v in _prefix_words(t, gen[lead], choices):
            best = min(best, int((table != t.neg[v]).sum(axis=1, dtype=np.uint32).min()))
    return best


def _prefix_words(t, word: np.ndarray, choices: list[np.ndarray]):
    """Yield word plus one row of each array in choices, for every choice."""
    if not choices:
        yield word
        return
    for scaled in choices[0]:
        yield from _prefix_words(t, t.add[word, scaled], choices[1:])


def shorten(code: LinearCode, s: int) -> LinearCode:
    """Shorten on s coordinates chosen from the end: keep the codewords that
    vanish there, then delete those positions.

    Columns are taken right-to-left, skipping any that are linearly
    dependent on the ones already chosen, so the result is always an
    [n-s, k-s] code with the same distance bound.  (The generator has rank
    k > s, so s independent columns always exist.)  Those are the first s
    pivots of rref(gen[:, ::-1]); its other k - s rows vanish on them, being
    reduced, so without those columns they span the shortened code, whose
    canonical generator is their rref.
    """
    if not 0 <= s < code.k:
        raise ValueError(f"s must satisfy 0 <= s < k = {code.k}")
    if s == 0:
        return code
    field = code.field
    red, rev_pivots = rref(field, code.gen[:, ::-1])
    dropped = {code.n - 1 - col for col in rev_pivots[:s]}
    keep = [col for col in range(code.n) if col not in dropped]
    red = red[s:, ::-1][:, keep]  # frees the full rref before the second one
    gen, _ = rref(field, red)
    if gen.shape[0] != code.k - s:
        raise rr.InternalCheckError(f"shortened rank {gen.shape[0]}, want k - s = {code.k - s}")
    return replace(code, gen=gen)

"""AG code construction on the distinguished divisors.

Evaluation codes come from evaluating a Riemann-Roch basis at every rational
place outside the divisor support; residue codes are their duals, computed
as nullspaces.  Generator matrices are canonical reduced row-echelon forms
over F_q so identical inputs give byte-identical output.

Matrix work runs on numpy arrays of canonical encodings through the exact
field lookup tables.  The exact minimum distance is a full scan of one
codeword per scalar class, (q**k - 1)/(q - 1) words, weighed against a table
of suffix combinations of at most SCAN_CAP elements, so its memory is capped
whatever q**k is; the budget still bounds q**k.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from . import rr
from .gf import Field
from .twopoint import PureGapBox

if TYPE_CHECKING:  # pragma: no cover
    from .curve import KummerCurve

DEFAULT_BUDGET = 2 ** 24
# elements (rows * n) of the minimum-distance suffix table: 8 MiB as int64
SCAN_CAP = 2 ** 20

GOPPA_L = "goppa_L"
GOPPA_OMEGA = "goppa_omega"
HOMMA_KIM = "homma_kim"


@dataclass(frozen=True)
class LinearCode:
    """[n, k] code over F_q with a canonical (RREF) generator matrix."""

    field: Field
    n: int
    k: int
    gen: np.ndarray  # k x n array of encodings; treated as read-only
    designed_d: int
    d_kind: str
    exact_d: int | None = None

    def summary(self) -> dict:
        out = {
            "q": self.field.q,
            "n": self.n,
            "k": self.k,
            "designed_d": self.designed_d,
            "d_kind": self.d_kind,
        }
        if self.exact_d is not None:
            out["exact_d"] = self.exact_d
        return out

    def matrix_text(self) -> str:
        lines = [" ".join(str(int(v)) for v in row) for row in self.gen]
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# exact linear algebra on encoding arrays


def rref(field: Field, mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form over F_q; returns (matrix, pivot columns).

    Zero rows are dropped, so the result always has full row rank.
    """
    t = field.tables()
    m = np.array(mat, dtype=np.int64)
    rows, cols = m.shape
    pivots = []
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        nz = np.nonzero(m[rank:, col])[0]
        if nz.size == 0:
            continue
        sel = rank + int(nz[0])
        if sel != rank:
            m[[rank, sel]] = m[[sel, rank]]
        inv = t.inv[m[rank, col]]
        m[rank] = t.mul[inv, m[rank]]
        for rr_ in range(rows):
            if rr_ != rank and m[rr_, col]:
                c = t.neg[m[rr_, col]]
                m[rr_] = t.add[m[rr_], t.mul[c, m[rank]]]
        pivots.append(col)
        rank += 1
    return m[:rank], pivots


def nullspace(field: Field, mat: np.ndarray) -> np.ndarray:
    """Canonical basis of {v : mat . v^T = 0}, as an RREF matrix."""
    red, pivots = rref(field, mat)
    rows, cols = red.shape
    t = field.tables()
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for bi, fc in enumerate(free):
        basis[bi, fc] = 1
        for ri, pc in enumerate(pivots):
            basis[bi, pc] = t.neg[red[ri, fc]]
    out, _ = rref(field, basis)
    return out


def field_matmul(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a (r x s) times b (s x c) over F_q, on encoding arrays."""
    t = field.tables()
    r, s = a.shape
    s2, c = b.shape
    assert s == s2
    out = np.zeros((r, c), dtype=np.int64)
    for kk in range(s):
        out = t.add[out, t.mul[a[:, kk][:, None], b[kk, :][None, :]]]
    return out


# ---------------------------------------------------------------------------
# code construction


def _support_places(curve: "KummerCurve", G: rr.Divisor):
    named = len(curve.alphas)
    for i, _ in G.coeffs:
        if i > named:
            raise ValueError(
                f"G touches P_{i}, whose center is outside F_q; codes need "
                "rational divisor support"
            )
    supp = set()
    if G.coeff_inf:
        supp.add(("infinity", 0))
    for i, _ in G.coeffs:
        supp.add(("ramified", i))
    return supp


def evaluation_places(curve: "KummerCurve", G: rr.Divisor):
    """The rational places outside supp(G), in the canonical order."""
    supp = _support_places(curve, G)
    return [p for p in curve.rational_places() if (p.kind, p.index) not in supp]


def evaluation_code(curve: "KummerCurve", G: rr.Divisor) -> LinearCode:
    """The code {(h(P_1), ..., h(P_n)) : h in L(G)} over F_q.

    Rows are the evaluations of the monomial basis of L(G), reduced to
    canonical RREF; k is the resulting rank (equal to l(G) whenever
    deg G < n).  Designed distance: n - deg G.
    """
    places = evaluation_places(curve, G)
    n = len(places)
    fns = rr.basis(curve, G).functions
    if not fns:
        raise ValueError("L(G) is trivial; the code would be empty")
    raw = np.zeros((len(fns), n), dtype=np.int64)
    for i, fn in enumerate(fns):
        for j, place in enumerate(places):
            raw[i, j] = fn.evaluate(curve, place).enc
    gen, _ = rref(curve.field, raw)
    k = gen.shape[0]
    if k == 0:
        raise ValueError("evaluation map is identically zero")
    return LinearCode(
        field=curve.field, n=n, k=k, gen=gen,
        designed_d=n - G.degree, d_kind=GOPPA_L,
    )


def residue_code(curve: "KummerCurve", G: rr.Divisor, box: PureGapBox | None = None) -> LinearCode:
    """The dual of the evaluation code for G.

    With no box the designed distance is deg G - (2g - 2); with a verified
    pure-gap box matching G it improves to the two-point bound
    deg G - (2g - 2) + t1 + t2 + 2.
    """
    primal = evaluation_code(curve, G)
    gen = nullspace(curve.field, primal.gen)
    if gen.shape[0] == 0:
        raise ValueError(
            f"the residue code is trivial: the evaluation code for G is all "
            f"of F_q^{primal.n} (k = 0)"
        )
    kind = HOMMA_KIM if box is not None else GOPPA_OMEGA
    return LinearCode(
        field=curve.field, n=primal.n, k=gen.shape[0], gen=gen,
        designed_d=designed_distance(curve, G, kind, box), d_kind=kind,
    )


def designed_distance(curve: "KummerCurve", G: rr.Divisor, kind: str,
                      box: PureGapBox | None = None) -> int:
    """Provable lower bound on the minimum distance for the given divisor."""
    g = curve.genus
    if kind == GOPPA_L:
        return len(evaluation_places(curve, G)) - G.degree
    if kind == GOPPA_OMEGA:
        return G.degree - (2 * g - 2)
    if kind == HOMMA_KIM:
        if box is None:
            raise ValueError("the two-point bound needs a pure-gap box")
        a, b = box.divisor_coefficients()
        supp = G.support_indices
        if G.coeff_inf != a or len(supp) != 1 or G.coeff(supp[0]) != b:
            raise ValueError(
                f"G = {G!r} does not match the box divisor "
                f"{a}*P_inf + {b}*P"
            )
        return G.degree - (2 * g - 2) + box.t1 + box.t2 + 2
    raise ValueError(f"unknown distance kind {kind!r}")


# ---------------------------------------------------------------------------
# exact minimum distance by a full scan of the scalar classes


def exact_min_distance(code: LinearCode, budget: int = DEFAULT_BUDGET) -> int | None:
    """Minimum Hamming weight over all nonzero codewords.

    Returns None when q**k exceeds the enumeration budget and raises
    ValueError on a code with k = 0, which has no nonzero codeword.

    c*w has the weight of w for c != 0, so each of the (q**k - 1)/(q - 1)
    scalar classes is scanned once, through its message whose first nonzero
    digit is 1.  The last s rows of the generator are expanded into the
    table T of all q**s of their F_q-combinations, s the largest with
    q**s * n <= SCAN_CAP, by T_j = {c*g_j + t : c in F_q, t in T_{j+1}}
    (one add-table gather per entry).  Messages that lead inside the table
    are the c = 1 blocks of that recurrence.  A message that leads at row l
    before the table gives v = g_l + sum c_j*g_j over the rows between, and
    v + t vanishes exactly where t = -v, so the weights of all of v + T
    come from one comparison with the negation table.  Memory stays a few
    times SCAN_CAP elements whatever q**k is; the scan never stops early,
    so the result is exact and deterministic.
    """
    q, k, n = code.field.q, code.k, code.n
    if k == 0:
        raise ValueError("the code has dimension k = 0 and no nonzero codeword")
    if q ** k > budget:
        return None
    t = code.field.tables()
    gen = code.gen
    table = np.zeros((1, n), dtype=np.int64)
    split = k  # rows split.. are in the table
    best = n
    while split > 0 and q * len(table) * n <= SCAN_CAP:
        split -= 1
        rows = len(table)
        table = t.add[t.mul[:, gen[split]][:, None, :], table[None, :, :]].reshape(-1, n)
        lead_block = table[rows:2 * rows]  # c = 1: the messages leading at row split
        best = min(best, int(np.count_nonzero(lead_block, axis=1).min()))
    for lead in range(split):
        for v in _prefix_words(t, gen[lead], gen[lead + 1:split]):
            best = min(best, int(np.count_nonzero(table != t.neg[v], axis=1).min()))
    return best


def _prefix_words(t, word: np.ndarray, rows: np.ndarray):
    """Yield word + sum(c_j * rows[j]) for every choice of digits c_j in F_q."""
    if not len(rows):
        yield word
        return
    for scaled in t.mul[:, rows[0]]:
        yield from _prefix_words(t, t.add[word, scaled], rows[1:])


def shorten(code: LinearCode, s: int) -> LinearCode:
    """Shorten on s coordinates chosen from the end: keep the codewords that
    vanish there, then delete those positions.

    Columns are taken right-to-left, skipping any that are linearly
    dependent on the ones already chosen, so the result is always an
    [n-s, k-s] code with the same distance bound.  (The generator has rank
    k > s, so s independent columns always exist.)
    """
    if not 0 <= s < code.k:
        raise ValueError(f"s must satisfy 0 <= s < k = {code.k}")
    if s == 0:
        return code
    field = code.field
    chosen: list[int] = []
    for col in range(code.n - 1, -1, -1):
        cand = chosen + [col]
        sub = code.gen[:, cand]
        if rref(field, sub.T)[0].shape[0] == len(cand):
            chosen = cand
            if len(chosen) == s:
                break
    assert len(chosen) == s
    mu = nullspace(field, code.gen[:, chosen].T)  # messages vanishing there
    new_rows = field_matmul(field, mu, code.gen)
    keep = [c for c in range(code.n) if c not in set(chosen)]
    gen, _ = rref(field, new_rows[:, keep])
    assert gen.shape[0] == code.k - s
    return replace(
        code, n=code.n - s, k=code.k - s, gen=gen, exact_d=None,
    )

import itertools
from math import gcd
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kummercodes import Polynomial, gf, make_curve, make_field
from kummercodes.code import (
    GOPPA_L,
    GOPPA_OMEGA,
    HOMMA_KIM,
    LinearCode,
    evaluation_code,
    evaluation_matrix,
    evaluation_places,
    exact_min_distance,
    field_matmul,
    nullspace,
    residue_code,
    rref,
    shorten,
    _prefix_words,
)
from kummercodes.rr import Divisor, InternalCheckError, basis, dim


def test_rref_and_nullspace_small():
    f5 = make_field(5)
    # encodings are residues mod 5; the second row is 2 times the first
    mat = np.array([[1, 2, 3, 4], [2, 4, 1, 3], [0, 1, 1, 0]], dtype=np.int64)
    red, pivots = rref(f5, mat)
    assert red.shape[0] == 2 and pivots == [0, 1]
    again, _ = rref(f5, red)
    assert np.array_equal(again, red)
    ns = nullspace(f5, mat)
    assert ns.shape == (2, 4)
    assert not field_matmul(f5, red, ns.T).any()


@pytest.mark.parametrize("q,bad", [(5, -1), (5, 5), (256, -1), (256, 256), (1024, 1024),
                                   (1024, -1)])
def test_rref_and_nullspace_reject_entries_outside_the_field(q, bad):
    # -1 would index from the end and wrap to q - 1 in uint8; q would wrap
    # to 0 in uint8 or fall outside the tables
    field = LA_FIELDS[q]
    mat = np.array([[1, 2, 3], [0, bad, 1]], dtype=np.int64)
    with pytest.raises(ValueError, match=r"\[0, %d\)" % q):
        rref(field, mat)
    with pytest.raises(ValueError, match=r"\[0, %d\)" % q):
        nullspace(field, mat)


def test_evaluation_code_reference(curve_y3_x5x):
    code = evaluation_code(curve_y3_x5x, Divisor.at_infinity(5))
    assert (code.n, code.k) == (65, 3)
    assert code.designed_d == 60 and code.d_kind == GOPPA_L
    again = evaluation_code(curve_y3_x5x, Divisor.at_infinity(5))
    assert np.array_equal(code.gen, again.gen)
    assert list(code.matrix_lines()) == list(again.matrix_lines())
    assert exact_min_distance(code) == 60
    # the generator is shared by every user of the code
    with pytest.raises(ValueError, match="read-only"):
        code.gen[0, 0] = 0


def test_dimension_equals_rr_dim_below_n(curve_y3_x5x):
    for coeff in (3, 5, 6, 9):
        G = Divisor.at_infinity(coeff)
        code = evaluation_code(curve_y3_x5x, G)
        assert code.k == dim(curve_y3_x5x, G)


def test_duality(curve_y3_x5x):
    G = Divisor.at_infinity(6)
    cl = evaluation_code(curve_y3_x5x, G)
    com = residue_code(curve_y3_x5x, G)
    assert cl.k + com.k == cl.n
    assert not field_matmul(curve_y3_x5x.field, cl.gen, com.gen.T).any()
    assert com.d_kind == GOPPA_OMEGA
    assert com.designed_d == G.degree - (2 * curve_y3_x5x.genus - 2) == 0


def test_trivial_divisor_codes(curve_y3_x5x):
    code = evaluation_code(curve_y3_x5x, Divisor())
    assert (code.n, code.k) == (66, 1)  # constants at every rational place
    dual = residue_code(curve_y3_x5x, Divisor())
    assert dual.k == 65
    # l(G) = 0 leaves C_Omega all of F_q^n: refused as trivial, of negative
    # degree and of degree 1 < g
    for G in (Divisor(2, {1: -9}), Divisor(2, {1: -1})):
        assert dim(curve_y3_x5x, G) == 0
        with pytest.raises(ValueError, match=r"residue code is trivial: l\(G\) = 0, .* \(k = 64\)"):
            residue_code(curve_y3_x5x, G)
    # y^3 = x^2 + x over F_2 has the rational places P_inf, P_1 and P_2 only:
    # a G on all three leaves no evaluation place, refused before a basis or a
    # table is built, and L(-4P_inf + 5P_2) vanishes at P_1, the one place left
    f2 = make_field(2)
    c2 = make_curve(f2, 3, 1, Polynomial(f2, [0, 1, 1]))
    with mock.patch.object(gf.Field, "tables", side_effect=AssertionError("tables built")), \
            mock.patch("kummercodes.rr.basis", side_effect=AssertionError("basis built")):
        for build in (evaluation_code, residue_code):
            with pytest.raises(ValueError, match=r"every rational place: .* n = 0"):
                build(c2, Divisor(1, {1: 1, 2: 1}))
    with pytest.raises(ValueError, match="evaluation map is identically zero"):
        evaluation_code(c2, Divisor(-4, {2: 5}))
    # ... so that C_Omega is all of F_2^1, which residue_code refuses itself
    with pytest.raises(ValueError, match=r"trivial: L\(G\) vanishes at every place, "
                                         r"so it is all of F_q\^1 \(k = 1\)"):
        residue_code(c2, Divisor(-4, {2: 5}))


def test_residue_code_reference_f64(curve_y9_quartic):
    G = Divisor(19, {1: 19})
    code = residue_code(curve_y9_quartic, G)
    assert (code.n, code.k) == (255, 228)
    assert code.designed_d == 18 and code.d_kind == HOMMA_KIM
    assert code.k == code.n + curve_y9_quartic.genus - 1 - G.degree
    assert exact_min_distance(code) is None  # 64**228 blows any budget


def test_residue_code_reference_f25(curve_y6_x5x):
    G = Divisor(25, {1: 1})
    code = residue_code(curve_y6_x5x, G)
    assert (code.n, code.k) == (124, 107)
    assert code.designed_d == 10
    primal = evaluation_code(curve_y6_x5x, G)
    assert primal.k + code.k == code.n
    assert not field_matmul(curve_y6_x5x.field, primal.gen, code.gen.T).any()


def test_exact_min_distance_budget(curve_y3_x5x):
    code = evaluation_code(curve_y3_x5x, Divisor.at_infinity(5))
    assert exact_min_distance(code, budget=100) is None  # 25**3 > 100
    d = exact_min_distance(code)
    assert d == 60
    assert d >= code.designed_d
    assert code.k + d <= code.n + 1  # Singleton


def test_degenerate_codes_rejected(curve_y3_x5x):
    # deg G = 200 > n: C_L is all of F_25^65, so its dual has k = 0
    with pytest.raises(ValueError, match="k = 0"):
        residue_code(curve_y3_x5x, Divisor.at_infinity(200))
    empty = LinearCode(
        field=curve_y3_x5x.field, gen=np.zeros((0, 65), dtype=np.int64),
        designed_d=0, d_kind=GOPPA_L,
    )
    with pytest.raises(ValueError, match="k = 0"):
        exact_min_distance(empty)


SMALL_FIELDS = {f.q: f for f in (make_field(p, e) for p, e in
                                 ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)))}


def word_at_a_time_min_distance(code):
    """Reference: build every one of the q**k - 1 nonzero codewords alone."""
    t = code.field.tables()
    best = None
    for msg in itertools.product(range(code.field.q), repeat=code.k):
        if not any(msg):
            continue
        word = np.zeros(code.n, dtype=np.int64)
        for c, row in zip(msg, code.gen):
            word = t.add[word, t.mul[c, row]]
        weight = int(np.count_nonzero(word))
        best = weight if best is None else min(best, weight)
    return best


@st.composite
def rref_codes(draw):
    """A random [n, k] code over a small field, k <= 5, n <= 12, q**k <= 9**4:
    the RREF of a uniform random matrix."""
    field = SMALL_FIELDS[draw(st.sampled_from(sorted(SMALL_FIELDS)))]
    q = field.q
    k = draw(st.sampled_from([k for k in range(1, 6) if q ** k <= 9 ** 4]))
    n = draw(st.sampled_from(range(k, 13)))
    # uniform entries: drawn one by one they lean to 0, and then the lightest
    # word is almost always a row, which would leave the combinations untested
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    gen, _ = rref(field, rng.integers(0, q, size=(k, n), dtype=np.int64))
    assume(len(gen))
    return LinearCode(field=field, gen=gen, designed_d=1, d_kind=GOPPA_L)


@settings(max_examples=60, deadline=None)
@given(rref_codes())
def test_exact_min_distance_matches_word_at_a_time(code):
    want = word_at_a_time_min_distance(code)
    total = code.field.q ** code.k
    row = code.n * code.gen.itemsize
    # default: the whole table but row 0; q rows: one table level, the rest
    # by prefix words; p*q rows: one level and a slice of p scalars of the
    # next (a whole level in a prime field); 0: no table, every word a
    # prefix word
    for work in (gf.WORK_BYTES, code.field.q * row, code.field.p * code.field.q * row, 0):
        with mock.patch.object(gf, "WORK_BYTES", work):
            assert exact_min_distance(code, budget=total) == want
    assert exact_min_distance(code, budget=total - 1) is None


REFERENCE_CURVE_SCRIPT = (
    "from kummercodes import Divisor, evaluation_code, exact_min_distance, residue_code, shorten\n"
    "from kummercodes.cli import REFERENCE_CONFIGS\n"
    "from kummercodes.curve import curve_from_config, parse_curve_config\n"
    "curve = curve_from_config(parse_curve_config(REFERENCE_CONFIGS['f64_y9']))\n"
)


def test_exact_min_distance_reference_scan_is_bounded(run_fresh):
    # [256,4]_64 for G = 9P_inf on y^9 = x^4 + x^2 + x: q^k = 2^24, the
    # default budget; run in a fresh process so that the rise of its peak
    # RSS over the built code is the scan's: the uint8 suffix table and each
    # comparison with it hold at most WORK_BYTES
    report = run_fresh(REFERENCE_CURVE_SCRIPT + (
        "import time\n"
        "code = evaluation_code(curve, Divisor.at_infinity(9))\n"
        "built_mb = peak_mb()\n"
        "t0 = time.perf_counter()\n"
        "d = exact_min_distance(code)\n"
        "print(json.dumps({'nk': [code.n, code.k], 'd': d, 's': time.perf_counter() - t0,\n"
        "                  'built_mb': built_mb, 'rss_mb': peak_mb()}))\n"
    ))
    assert report["nk"] == [256, 4] and report["d"] == 247
    assert report["s"] < 5
    assert report["rss_mb"] < 100
    assert report["rss_mb"] - report["built_mb"] < 1


def test_exact_min_distance_weighs_suffixes_in_one_table(curve_y3_x5x):
    # the table holds the codewords of the last generator rows, so far fewer
    # than the (q^k - 1)/(q - 1) monic messages are weighed one by one
    code = evaluation_code(curve_y3_x5x, Divisor.at_infinity(6))
    q, k = code.field.q, code.k
    assert (code.n, k) == (65, 4)
    with mock.patch.object(gf, "WORK_BYTES", 0):
        want = exact_min_distance(code)
    prefix_words = []

    def spy(t, word, choices):
        if not choices:  # such a call yields its word, once
            prefix_words.append(word)
        return _prefix_words(t, word, choices)

    with mock.patch("kummercodes.code._prefix_words", spy):
        assert exact_min_distance(code) == want
    assert 0 < len(prefix_words) * q <= (q ** k - 1) // (q - 1)


def test_rref_index_blocks_within_work_bytes():
    # each pivot clears its rows in blocks whose intp index temporaries hold
    # at most gf.WORK_BYTES; all 119 rows at once would take 8 * 119 * 120
    f5 = make_field(5)
    mat = np.random.default_rng(19).integers(0, 5, size=(120, 120))
    want, _ = rref(f5, mat)
    sizes = []
    real_take = np.take

    def spy(a, indices, *args, **kwargs):
        sizes.append(np.asarray(indices).nbytes)
        return real_take(a, indices, *args, **kwargs)

    with mock.patch.object(np, "take", spy):
        red, _ = rref(f5, mat)
    assert np.array_equal(red, want)
    assert 0 < max(sizes) <= gf.WORK_BYTES < 8 * 119 * 120


def test_shorten_peak_memory(run_fresh):
    # the [255,228]_64 C_Omega for G = 19P_inf + 19P_1, shortened by 15:
    # rref's intp index blocks stay within WORK_BYTES, so the peak RSS
    # barely rises over the built code
    report = run_fresh(REFERENCE_CURVE_SCRIPT + (
        "code = residue_code(curve, Divisor(19, {1: 19}))\n"
        "built_mb = peak_mb()\n"
        "short = shorten(code, 15)\n"
        "print(json.dumps({'nk': [short.n, short.k], 'built_mb': built_mb,\n"
        "                  'rss_mb': peak_mb()}))\n"
    ))
    assert report["nk"] == [240, 213]
    assert report["rss_mb"] - report["built_mb"] < 1


def test_shorten(curve_y9_quartic, curve_y3_x5x):
    G = Divisor(19, {1: 19})
    code = residue_code(curve_y9_quartic, G)
    short = shorten(code, 29)
    assert (short.n, short.k) == (226, 199)
    assert short.designed_d == 18
    assert short.gen.shape == (199, 226)
    assert shorten(code, 0) is code
    with pytest.raises(ValueError):
        shorten(code, 228)
    small = evaluation_code(curve_y3_x5x, Divisor.at_infinity(5))
    s2 = shorten(small, 2)
    assert (s2.n, s2.k) == (63, 1)
    d = exact_min_distance(s2)
    assert d >= small.designed_d
    assert d == 62  # regression value from the first verified run


def test_code_layer_checks_raise(curve_y3_x5x):
    # broken invariants raise InternalCheckError, which python -O keeps
    field = curve_y3_x5x.field
    with pytest.raises(InternalCheckError, match="inner dimensions 2 and 3 differ"):
        field_matmul(field, np.zeros((1, 2), np.uint8), np.zeros((3, 1), np.uint8))
    code = evaluation_code(curve_y3_x5x, Divisor.at_infinity(5))
    assert code.k == 3
    first = rref(field, code.gen[:, ::-1])
    with mock.patch("kummercodes.code.rref", side_effect=[first, (code.gen[:0], [])]):
        with pytest.raises(InternalCheckError, match=r"shortened rank 0, want k - s = 1"):
            shorten(code, 2)


@pytest.mark.parametrize("q,dtype", [(25, np.uint8), (1024, np.uint16)])
def test_codes_keep_the_table_dtype(q, dtype, curve_y3_x5x):
    # a stray int64 upcast anywhere on the way would show here
    if q == 25:
        curve = curve_y3_x5x
    else:
        field = make_field(2, 10)
        curve = make_curve(field, 3, 1, Polynomial(field, [0, 1, 0, 0, 1]))
    assert curve.field.tables().add.dtype == dtype
    G = Divisor.at_infinity(3)  # k = 2, so q^k <= 2^20 can be scanned
    codes = [evaluation_code(curve, G), residue_code(curve, G)]
    codes += [shorten(c, 1) for c in codes]
    for c in codes:
        assert c.gen.dtype == dtype
    d = exact_min_distance(codes[0])
    with mock.patch.object(gf, "WORK_BYTES", 0):
        assert exact_min_distance(codes[0]) == d >= codes[0].designed_d


def test_shortened_words_lie_in_parent(curve_y3_x5x):
    parent = evaluation_code(curve_y3_x5x, Divisor.at_infinity(6))
    short = shorten(parent, 1)
    # re-insert the dropped trailing zero: rows must then lie in the parent
    rows = np.hstack([short.gen, np.zeros((short.k, 1), dtype=np.int64)])
    stacked = np.vstack([parent.gen, rows])
    red, _ = rref(curve_y3_x5x.field, stacked)
    assert red.shape[0] == parent.k


def test_code_on_general_lambda_curve():
    f7 = make_field(7)
    c = make_curve(f7, 5, 2, Polynomial.from_roots(f7, [0, 1, 2]))
    G = Divisor.at_infinity(7)
    cl = evaluation_code(c, G)
    assert cl.k == dim(c, G) == 7 + 1 - c.genus
    com = residue_code(c, G)
    assert cl.k + com.k == cl.n
    assert not field_matmul(f7, cl.gen, com.gen.T).any()
    d = exact_min_distance(cl)
    assert d is not None and d >= cl.designed_d


def test_code_on_curve_without_rational_branch_points():
    f5 = make_field(5)
    c = make_curve(f5, 3, 1, Polynomial(f5, [2, 0, 1]))  # x^2 + 2 irreducible
    cl = evaluation_code(c, Divisor.at_infinity(4))
    assert (cl.n, cl.k) == (5, 4)
    com = residue_code(c, Divisor.at_infinity(4))
    assert com.k == 1
    assert not field_matmul(f5, cl.gen, com.gen.T).any()


@pytest.mark.parametrize("p,e,m,lam,f", [
    (5, 1, 4, 3, [0, 4, 0, 1]),        # y^4 = (x^3 - x)^3 over F_5
    (2, 4, 3, 2, [0, 1, 0, 0, 1]),     # y^3 = (x^4 + x)^2 over F_16
    (3, 3, 4, 3, [0, 2, 0, 1]),        # y^4 = (x^3 + 2x)^3 over F_27
    *((2, 6, 5, lam, [0, 1, 1, 0, 1]) for lam in (2, 3, 4)),  # y^5 = (x^4 + x^2 + x)^lam
    *((13, 1, 5, lam, [0, 12, 0, 1]) for lam in (2, 3, 4)),   # y^5 = (x^3 - x)^lam
])
def test_codes_are_the_lambda_one_codes_under_the_place_map(p, e, m, lam, f):
    # y' = y^a f^-b with a*lam - b*m = 1 maps y^m = f^lam onto y'^m = f and
    # fixes x, P_inf and each P_i, so the codes of a G on P_inf and P_1 are
    # the lam = 1 curve's with the columns permuted by (x, y) -> (x, y')
    field = make_field(p, e)
    poly = Polynomial(field, f)
    curve, base = make_curve(field, m, lam, poly), make_curve(field, m, 1, poly)
    a = pow(lam, -1, m)

    def key(place, a=1, b=0):
        if place.kind != "ordinary":
            return place.kind, place.index
        F = field
        return place.kind, place.x, F.mul(F.pow(place.y, a), F.pow(poly(place.x), -b))

    g = curve.genus
    for G in (Divisor.at_infinity(3), Divisor(5, {1: 2}), Divisor.at_infinity(2 * g + 1),
              Divisor(0, {1: 4})):
        column = {key(place): j for j, place in enumerate(evaluation_places(base, G))}
        perm = [column[key(place, a, (a * lam - 1) // m)]
                for place in evaluation_places(curve, G)]
        for build in (evaluation_code, residue_code):
            want, got = build(base, G), build(curve, G)
            assert np.array_equal(rref(field, want.gen[:, perm])[0], got.gen), (build, G)
            assert (want.designed_d, want.d_kind) == (got.designed_d, got.d_kind)


# (p, e) for q = 5, 7, 8, 9, 11, 13, 16
RESIDUE_FIELDS = ((5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4))


@st.composite
def split_curves_and_divisors(draw):
    """y^m = prod_{i<r} (x - i)^lam with m | q - 1, so that f splits and every
    place over an x with a rational point is rational, and a G with
    coeff_inf != 0 and any terms on the r ramified places."""
    field = make_field(*draw(st.sampled_from(RESIDUE_FIELDS)))
    q = field.q
    m = draw(st.sampled_from([m for m in range(2, q) if (q - 1) % m == 0]))
    r = draw(st.sampled_from([r for r in range(2, min(q, 6) + 1) if gcd(m, r) == 1]))
    lam = draw(st.sampled_from([lam for lam in range(1, m) if gcd(m, lam) == 1]))
    curve = make_curve(field, m, lam, Polynomial.from_roots(field, range(r)))
    g = curve.genus
    a = draw(st.integers(-3, -1) | st.integers(1, 2 * g + 4))
    terms = draw(st.dictionaries(st.integers(1, r), st.integers(-3, 2 * g + 4), max_size=r))
    return curve, Divisor(a, terms)


@settings(max_examples=40, deadline=None)
@given(split_curves_and_divisors())
def test_residue_code_by_the_residue_theorem(case):
    """C_Omega(G) built without nullspace (Stichtenoth, Prop. 2.2.10).

    With S the x-values of the finite rational places and h_S = prod_{c in S}
    (x - c), eta = dx / h_S has a simple pole at each of them: (dx) =
    (m - 1) sum_i P_i - (m + 1) P_inf, and x - c vanishes to order m at P_i
    over c = alpha_i and to order 1 at the m unramified places over other c.
    So E = D - G + (eta) = (|S| m - m - 1 - a) P_inf - sum_i (b_i + 1) P_i
    lies on the distinguished places, and C_Omega(G) = C_L(E) * diag(res eta),
    with res = 1 / h_S'(c) over c and m / h_S'(alpha_i) at P_i.  The Goppa
    bound of C_L(E), n - deg E, is deg G - (2g - 2).
    """
    curve, G = case
    field, m = curve.field, curve.m
    try:
        want = residue_code(curve, G)
    except ValueError as exc:  # n = 0, or C_L or C_Omega is all of F_q^n
        assume(not any(s in str(exc) for s in ("n = 0", "trivial", "identically zero")))
        raise
    places = evaluation_places(curve, G)
    F, centre = field, dict(enumerate(curve.alphas, start=1))
    S = {place.x if place.kind == "ordinary" else centre[place.index]
         for place in curve.rational_places() if place.kind != "infinity"}

    def h_prime(c):
        out = 1
        for other in S - {c}:
            out = F.mul(out, F.add(c, F.neg(other)))
        return out

    residues = [F.mul(m % F.p, F.pow(h_prime(centre[pl.index]), -1))
                if pl.kind == "ramified" else F.pow(h_prime(pl.x), -1) for pl in places]
    E = Divisor(len(S) * m - m - 1 - G.coeff_inf, {i: -(b + 1) for i, b in G.coeffs})
    mat = evaluation_matrix(curve, basis(curve, E).functions, places)
    gen, _ = rref(field, field.tables().mul[mat, np.array(residues, dtype=mat.dtype)])
    assert np.array_equal(gen, want.gen)
    goppa = G.degree - (2 * curve.genus - 2)
    assert len(places) - E.degree == goppa
    assert want.designed_d == goppa if want.d_kind == GOPPA_OMEGA else want.designed_d > goppa


def test_code_rejects_unsupported_divisors(curve_y3_x5x):
    f5 = make_field(5)
    c_irr = make_curve(f5, 3, 1, Polynomial(f5, [2, 0, 1]))
    with pytest.raises(ValueError):
        evaluation_code(c_irr, Divisor(0, {1: 4}))  # center not in F_q
    with pytest.raises(ValueError):
        evaluation_code(curve_y3_x5x, Divisor(-7))  # L(G) trivial


def test_ramified_places_in_evaluation_support(curve_y6_x5x):
    # G = 25P_inf + P_1 leaves P_2..P_5 as evaluation places (n = 124)
    G = Divisor(25, {1: 1})
    code = evaluation_code(curve_y6_x5x, G)
    assert code.n == 124
    from kummercodes.code import evaluation_places

    kinds = [p.kind for p in evaluation_places(curve_y6_x5x, G)]
    assert kinds.count("ramified") == 4
    assert "infinity" not in kinds


def test_full_divisors_give_the_identity_without_a_basis(curve_y3_x5x, curve_y6_x5x):
    # from deg G >= n + 2g - 1 on, C_L is all of F_q^n: the identity is what
    # rref of the evaluated basis gives, and it is built without the basis
    for c in (curve_y3_x5x, curve_y6_x5x):
        N, g = len(c.rational_places()), c.genus
        for G in (Divisor.at_infinity(N + 2 * g - 2), Divisor(N + 2 * g + 4, {1: -3}),
                  Divisor(1, {1: N + 2 * g})):
            places = evaluation_places(c, G)
            assert G.degree >= len(places) + 2 * g - 1
            want, _ = rref(c.field, evaluation_matrix(c, basis(c, G).functions, places))
            with mock.patch("kummercodes.rr.basis", side_effect=AssertionError("basis built")):
                code = evaluation_code(c, G)
                with pytest.raises(ValueError, match="residue code is trivial"):
                    residue_code(c, G)
            assert code.gen.dtype == want.dtype and code.gen.tolist() == want.tolist()
            assert code.k == code.n == len(places) and code.designed_d == code.n - G.degree
    f5 = make_field(5)
    c_irr = make_curve(f5, 3, 1, Polynomial(f5, [2, 0, 1]))  # P_1's center is not in F_5
    with pytest.raises(ValueError, match="not in F_q"):
        evaluation_code(c_irr, Divisor(10 ** 12, {1: 4}))


def test_trivial_residue_code_builds_no_field_tables(curve_y3_x5x, curve_y6_x5x):
    # from deg G >= n + 2g - 1 on, C_Omega is trivial by n, g and deg G alone;
    # a G on a place without a rational center is still refused for that first
    f5 = make_field(5)
    c_irr = make_curve(f5, 3, 1, Polynomial(f5, [2, 0, 1]))  # P_1's center is not in F_5
    with mock.patch.object(gf.Field, "tables", side_effect=AssertionError("tables built")):
        for c in (curve_y3_x5x, curve_y6_x5x):
            N, g = len(c.rational_places()), c.genus
            for G in (Divisor.at_infinity(N + 2 * g - 2), Divisor(1, {1: N + 2 * g}),
                      Divisor(10 ** 12, {2: 4})):
                with pytest.raises(ValueError, match="residue code is trivial"):
                    residue_code(c, G)
        with pytest.raises(ValueError, match="not in F_q"):
            residue_code(c_irr, Divisor(10 ** 12, {1: 4}))


# ---------------------------------------------------------------------------
# whole-array code construction against the per-element routes it replaced


@pytest.mark.parametrize("p,e,m,lam,f", [
    (7, 1, 3, 1, [6, 0, 1]),   # y^3 = x^2 - 1 over F_7
    (7, 1, 3, 2, [6, 0, 1]),   # y^3 = (x^2 - 1)^2
    (2, 4, 5, 1, [1, 1, 1]),   # y^5 = x^2 + x + 1 over F_16
    (2, 4, 5, 3, [1, 1, 1]),   # y^5 = (x^2 + x + 1)^3
    (5, 1, 4, 1, [0, 4, 0, 1]),  # y^4 = x^3 - x over F_5
    (5, 1, 4, 3, [0, 4, 0, 1]),  # y^4 = (x^3 - x)^3
])
def test_evaluation_matrix_matches_evaluate(p, e, m, lam, f):
    field = make_field(p, e)
    curve = make_curve(field, m, lam, Polynomial(field, f))
    if f[0]:
        # ordinary places over x = 0, and both roots of f are named
        assert len(curve.alphas) == 2
        assert any(pl.kind == "ordinary" and pl.x == 0 for pl in curve.rational_places())
        divisors = (Divisor(4, {1: 2}), Divisor(6, {1: -1, 2: 3}), Divisor(2, {1: 5}),
                    Divisor(0, {1: 7}), Divisor(10 ** 22 + 6, {1: -10 ** 22, 2: 3}))
    else:
        # all three roots are named and P_1 is centred at 0; G leaves P_inf
        # and P_1 among the columns
        assert len(curve.alphas) == 3 and curve.alphas[0] == 0
        divisors = (Divisor(0, {2: 5}), Divisor(0, {2: -1, 3: 9}), Divisor(0, {3: 7}),
                    Divisor(0, {2: 10 ** 22 + 6, 3: -10 ** 22}))
    for G in divisors:
        fns = basis(curve, G).functions
        assert any(fn.denom for fn in fns)
        assert any(fn.f_pow for fn in fns) == (lam > 1)
        places = evaluation_places(curve, G)
        if not f[0]:
            assert [pl.label() for pl in places[:2]] == ["P_inf", "P_1"]
        want = [[fn.evaluate(curve, place) for place in places] for fn in fns]
        assert {type(v) for row in want for v in row} == {int}
        assert evaluation_matrix(curve, fns, places).tolist() == want


def test_evaluation_matrix_does_no_element_arithmetic(curve_y3_x5x, curve_y9_quartic,
                                                      curve_y6_x5x, no_element_arithmetic):
    # every column, P_inf and the ramified places included, is read off the
    # tables, with no FieldElement arithmetic
    f5 = make_field(5)
    cube = make_curve(f5, 4, 3, Polynomial(f5, [0, 4, 0, 1]))  # y^4 = (x^3 - x)^3
    cases = ((curve_y3_x5x, Divisor(7, {1: 1})), (curve_y9_quartic, Divisor(19, {1: 19})),
             (curve_y6_x5x, Divisor.at_place(2, 30)), (cube, Divisor.at_place(2, 9)))
    for curve, G in cases:
        fns = basis(curve, G).functions
        places = evaluation_places(curve, G)
        want = [[fn.evaluate(curve, place) for place in places] for fn in fns]
        with no_element_arithmetic():
            got = evaluation_matrix(curve, fns, places)
        assert got.tolist() == want


def rref_by_rows(field, mat):
    """Reference: eliminate the pivot column one row at a time."""
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
        m[rank] = t.mul[t.inv[m[rank, col]], m[rank]]
        for other in range(rows):
            if other != rank and m[other, col]:
                c = t.neg[m[other, col]]
                m[other] = t.add[m[other], t.mul[c, m[rank]]]
        pivots.append(col)
        rank += 1
    return m[:rank], pivots


def nullspace_by_two_rrefs(field, mat):
    """Reference: identity on the free columns of rref(mat), then rref."""
    red, pivots = rref_by_rows(field, mat)
    cols = red.shape[1]
    t = field.tables()
    free = [c for c in range(cols) if c not in pivots]
    rows = np.zeros((len(free), cols), dtype=np.int64)
    for bi, fc in enumerate(free):
        rows[bi, fc] = 1
        for ri, pc in enumerate(pivots):
            rows[bi, pc] = t.neg[red[ri, fc]]
    return rref_by_rows(field, rows)[0]


def shorten_by_candidates(code, s):
    """Reference: test each column from the right for independence, then
    take the messages vanishing on the chosen ones."""
    field = code.field
    chosen = []
    for col in range(code.n - 1, -1, -1):
        cand = chosen + [col]
        if rref_by_rows(field, code.gen[:, cand].T)[0].shape[0] == len(cand):
            chosen = cand
            if len(chosen) == s:
                break
    mu = nullspace_by_two_rrefs(field, code.gen[:, chosen].T)
    rows = field_matmul(field, mu, code.gen)
    keep = [c for c in range(code.n) if c not in chosen]
    return rref_by_rows(field, rows[:, keep])[0]


# F_256 is the largest uint8 field, F_1024 takes the uint16 path
LA_FIELDS = {**SMALL_FIELDS, 16: make_field(2, 4), 25: make_field(5, 2),
             256: make_field(2, 8), 1024: make_field(2, 10)}


@st.composite
def field_matrices(draw):
    """A random matrix over F_2..F_9, F_16, F_25, F_256 or F_1024, at most
    8 x 12: uniform, sparse, or a product of two random factors, so that
    dependent rows and columns and zero columns all occur."""
    field = LA_FIELDS[draw(st.sampled_from(sorted(LA_FIELDS)))]
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mat = rng.integers(0, field.q, size=(rows, cols), dtype=np.int64)
    shape = draw(st.sampled_from(["uniform", "sparse", "low_rank"]))
    if shape == "sparse":
        mat[rng.random((rows, cols)) < 0.7] = 0
    elif shape == "low_rank":
        inner = draw(st.integers(1, 4))
        left = rng.integers(0, field.q, size=(rows, inner), dtype=np.int64)
        right = rng.integers(0, field.q, size=(inner, cols), dtype=np.int64)
        mat = field_matmul(field, left, right)
    return field, mat


@settings(max_examples=150, deadline=None)
@given(field_matrices())
def test_rref_matches_row_loop_and_is_idempotent(case):
    field, mat = case
    red, pivots = rref(field, mat)
    want, want_pivots = rref_by_rows(field, mat)
    assert np.array_equal(red, want) and pivots == want_pivots
    again, again_pivots = rref(field, red)
    assert np.array_equal(again, red) and again_pivots == pivots


@settings(max_examples=150, deadline=None)
@given(field_matrices())
def test_nullspace_is_the_canonical_dual(case):
    field, mat = case
    ns = nullspace(field, mat)
    assert np.array_equal(rref(field, ns)[0], ns)
    assert not field_matmul(field, mat, ns.T).any()
    assert len(rref(field, mat)[0]) + len(ns) == mat.shape[1]
    assert np.array_equal(ns, nullspace_by_two_rrefs(field, mat))


@settings(max_examples=150, deadline=None)
@given(field_matrices(), st.data())
def test_shorten_matches_candidate_columns(case, data):
    field, mat = case
    gen, _ = rref(field, mat)
    assume(len(gen))
    code = LinearCode(field=field, gen=gen, designed_d=1, d_kind=GOPPA_L)
    s = data.draw(st.integers(0, code.k - 1))
    short = shorten(code, s)
    assert (short.n, short.k) == (code.n - s, code.k - s)
    want = code.gen if s == 0 else shorten_by_candidates(code, s)
    assert np.array_equal(short.gen, want)


@settings(max_examples=100, deadline=None)
@given(field_matrices(), st.data())
def test_one_row_blocks_agree(case, data):
    # with WORK_BYTES below one row, rref and nullspace clear each pivot one
    # row at a time and the scan keeps no table; results must not change
    field, mat = case
    gen, pivots = rref(field, mat)
    assume(len(gen))
    code = LinearCode(field=field, gen=gen, designed_d=1, d_kind=GOPPA_L)
    s = data.draw(st.integers(0, code.k - 1))
    want_ns, want_short = nullspace(field, mat), shorten(code, s).gen
    want_d = exact_min_distance(code, budget=2 ** 16)
    with mock.patch.object(gf, "WORK_BYTES", 1):
        red, red_pivots = rref(field, mat)
        assert np.array_equal(red, gen) and red_pivots == pivots
        assert np.array_equal(nullspace(field, mat), want_ns)
        assert np.array_equal(shorten(code, s).gen, want_short)
        assert exact_min_distance(code, budget=2 ** 16) == want_d

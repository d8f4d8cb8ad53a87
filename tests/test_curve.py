import itertools
import json
import os
import subprocess
import sys
from math import gcd
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kummercodes
from kummercodes import Polynomial, make_curve, make_field
from kummercodes.code import residue_code
from kummercodes.curve import ConfigError, KummerCurve, Place, load_curve, parse_curve_config
from kummercodes.poly import roots_in_field
from kummercodes.rr import Divisor


def test_reference_curve_parameters(curve_y3_x5x, curve_y9_quartic, curve_y6_x5x):
    assert (curve_y3_x5x.r, curve_y3_x5x.genus) == (5, 4)
    assert (curve_y9_quartic.r, curve_y9_quartic.genus) == (4, 12)
    assert (curve_y6_x5x.r, curve_y6_x5x.genus) == (5, 10)
    assert len(curve_y3_x5x.alphas) == 5
    assert curve_y9_quartic.alphas[0] == 0


def test_lambda_normalized(f25):
    f = Polynomial(f25, [0, 4, 0, 0, 0, 1])
    c = make_curve(f25, 3, 4, f)  # 4 = 1 mod 3
    assert c.lam == 1


@pytest.mark.parametrize("build", [make_curve, KummerCurve], ids=["make_curve", "KummerCurve"])
def test_make_curve_rejects_bad_data(f25, f64, build):
    f = Polynomial(f25, [0, 4, 0, 0, 0, 1])
    with pytest.raises(ValueError):
        build(f25, 5, 1, f)  # p | m
    with pytest.raises(ValueError):
        build(f25, 1, 1, f)  # m < 2
    with pytest.raises(ValueError):
        build(f25, 3, 0, f)  # lambda < 1
    with pytest.raises(ValueError):
        build(f25, 3, 3, f)  # lambda = 0 mod m -> gcd failure
    with pytest.raises(ValueError):
        build(f25, 3, 1, Polynomial.from_roots(f25, range(6)))  # gcd(3, 6) > 1
    x = Polynomial(f25, [0, 1])
    with pytest.raises(ValueError):
        build(f25, 3, 1, x * x)  # not separable
    f3 = make_field(3)
    with pytest.raises(ValueError, match="separable"):
        build(f3, 2, 1, Polynomial(f3, [1, 0, 0, 1]))  # x^3 + 1 = (x + 1)^3: f' = 0
    with pytest.raises(ValueError, match="different field"):
        build(f25, 3, 1, Polynomial(f64, [0, 1, 1, 0, 1]))
    with pytest.raises(ValueError):
        build(f25, 2, 1, x)  # degree 1: genus 0, rejected as degenerate
    f5 = make_field(5)
    with pytest.raises(ValueError, match=r"gcd\(m, r\*lambda\) = 2 must be 1"):
        build(f5, 4, 2, Polynomial.from_roots(f5, range(3)))


@pytest.mark.parametrize(
    "fixture,count",
    [("curve_y3_x5x", 66), ("curve_y9_quartic", 257), ("curve_y6_x5x", 126)],
)
def test_rational_place_counts(fixture, count, request):
    curve = request.getfixturevalue(fixture)
    assert len(curve.rational_places()) == count
    # each reference curve is maximal: N - q - 1 = 2g*sqrt(q) (Hasse-Weil)
    q, g = curve.field.q, curve.genus
    assert count > q + 1 and (count - q - 1) ** 2 == 4 * g * g * q


def _places_by_power_table(c):
    """The places as listed before the exponent route: a table of b**m over
    F_q, looked up at f(a)**lam for every a with f(a) != 0."""
    places = [Place("infinity")]
    places += [Place("ramified", i) for i in range(1, len(roots_in_field(c.f)) + 1)]
    power_of = {}
    for b in c.field.elements():
        power_of.setdefault((b ** c.m).enc, []).append(b)
    for a in c.field.elements():
        fa = c.field.element(c.f(a.enc))
        if not fa.is_zero():
            places += [Place("ordinary", x=a.enc, y=b.enc)
                       for b in power_of.get((fa ** c.lam).enc, ())]
    return tuple(places)


# q = 2, 4, 8, 16, 32, 64, 3, 9, 27, 5, 25, 7, 49, 11, 13
PLACE_FIELDS = ((2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 1), (3, 2), (3, 3),
                (5, 1), (5, 2), (7, 1), (7, 2), (11, 1), (13, 1))


@st.composite
def drawn_curves(draw):
    """y^m = f(x)^lam for a random f of degree 2..6, any lam (normalized mod m)."""
    field = make_field(*draw(st.sampled_from(PLACE_FIELDS)))
    m = draw(st.sampled_from([m for m in range(2, 13) if m % field.p]))
    lam = draw(st.integers(1, 2 * m))
    coeffs = draw(st.lists(st.integers(0, field.q - 1), min_size=3, max_size=7))
    assume(coeffs[-1])
    try:
        return make_curve(field, m, lam, Polynomial(field, coeffs))
    except ValueError:
        assume(False)


@settings(max_examples=80, deadline=None)
@given(drawn_curves())
def test_place_count_oracle(c):
    """N = 1 + #roots + d * #{a : f(a) != 0 and f(a)**lam is a d-th power},
    d = gcd(m, q - 1): y -> y**m maps F_q^* d-to-1 onto the d-th powers.
    Counted with element powers, apart from the exponent route, and held to
    Hasse-Weil, (N - q - 1)**2 <= 4 g**2 q."""
    q, one = c.field.q, c.field.one()
    d = gcd(c.m, q - 1)
    roots = roots_in_field(c.f)
    values = [c.field.element(c.f(a)) for a in range(q) if a not in roots]
    N = 1 + len(roots) + d * sum((v ** c.lam) ** ((q - 1) // d) == one for v in values)
    places = c.rational_places()
    assert len(places) == N
    assert (N - q - 1) ** 2 <= 4 * c.genus ** 2 * q
    assert places == _places_by_power_table(c)
    assert c.alphas == tuple(sorted(roots))


def test_place_ordering_and_kinds(curve_y3_x5x):
    places = curve_y3_x5x.rational_places()
    assert places[0].kind == "infinity"
    ram = [p for p in places if p.kind == "ramified"]
    assert [p.index for p in ram] == [1, 2, 3, 4, 5]
    centres = [curve_y3_x5x.alphas[p.index - 1] for p in ram]
    assert centres == sorted(centres)
    ordinary = [p for p in places if p.kind == "ordinary"]
    keys = [(p.x, p.y) for p in ordinary]
    assert keys == sorted(keys)
    # roots and points are the field's encodings, not elements
    assert {type(v) for v in curve_y3_x5x.alphas} == {int}
    assert {type(v) for p in ordinary for v in (p.x, p.y)} == {int}
    # construction is cached and deterministic
    assert curve_y3_x5x.rational_places() is places


def test_ordinary_places_satisfy_equation(curve_y6_x5x):
    c = curve_y6_x5x
    for p in c.rational_places():
        if p.kind == "ordinary":
            y, fx = c.field.element(p.y), c.field.element(c.f(p.x))
            assert y ** c.m == fx ** c.lam
            assert not fx.is_zero()


def test_scan_does_no_element_arithmetic(curve_y3_x5x, curve_y9_quartic, no_element_arithmetic):
    # building a curve, its scan of F_q, the roots of f and the places run on
    # the field's scalar ops; FieldElement arithmetic is the tests' view only
    with no_element_arithmetic():
        fresh = [make_curve(c.field, c.m, c.lam, Polynomial(c.field, c.f.coeffs))
                 for c in (curve_y3_x5x, curve_y9_quartic)]
        got = [(c.log_f, c.alphas, c.rational_places()) for c in fresh]
    for c, (log_f, alphas, places) in zip((curve_y3_x5x, curve_y9_quartic), got):
        assert len(log_f) == c.field.q and alphas == c.alphas
        assert places == c.rational_places()


def test_place_census_against_root_scan(curve_y3_x5x):
    """1 + #{rational roots of f} + sum over non-roots of #(m-th roots)."""
    c = curve_y3_x5x
    expected = 1 + len(c.alphas)
    for a in c.field.elements():
        fa = c.field.element(c.f(a.enc))
        if not fa.is_zero():
            expected += sum(b ** c.m == fa ** c.lam for b in c.field.elements())
    assert len(c.rational_places()) == expected


def test_ramified_place_accessors(curve_y3_x5x):
    p1 = curve_y3_x5x.ramified_place(1)
    assert p1.kind == "ramified" and curve_y3_x5x.alphas[p1.index - 1] == 0
    with pytest.raises(ValueError):
        curve_y3_x5x.ramified_place(6)
    assert curve_y3_x5x.place_infinity().label() == "P_inf"
    assert p1.label() == "P_1"


def test_curve_with_no_rational_branch_points(f25):
    # f irreducible over F_5 (roots live upstairs); the curve is still fine
    f5 = make_field(5)
    f = Polynomial(f5, [2, 0, 1])  # x^2 + 2
    c = make_curve(f5, 3, 1, f)
    assert c.alphas == ()
    for name_place in (lambda: c.ramified_place(1), lambda: Divisor.parse("5P_inf+1P_1", c)):
        with pytest.raises(ValueError) as exc:
            name_place()
        assert str(exc.value) == "f has no root in F_q, so the curve has no place P_i to name"
    places = c.rational_places()
    # x -> x^3 is a bijection on F_5, so each nonzero value has one cube root
    assert len(places) == 1 + 0 + 5


def test_config_roundtrip(tmp_path):
    text = "\n".join([
        "# reference curve",
        "p = 5",
        "e = 2",
        "m = 3",
        "lambda = 1",
        "f = 0,4,0,0,0,1",
    ])
    cfg = parse_curve_config(text)
    assert cfg == {"p": 5, "e": 2, "m": 3, "lambda": 1, "f": [0, 4, 0, 0, 0, 1]}
    path = tmp_path / "curve.cfg"
    path.write_text(text + "\n", encoding="utf-8")
    c = load_curve(path)
    assert (c.m, c.lam, c.genus) == (3, 1, 4)


@pytest.mark.parametrize(
    "text,line",
    [
        ("p = 5\nbogus\n", 2),
        ("p = 5\ne = 2\nwidth = 3\n", 3),
        ("p = 5\np = 7\n", 2),
        ("p = five\n", 1),
        ("p = 5\ne = 1\nm = 3\nlambda = 1\nf = 0,a,1\n", 5),
    ],
)
def test_config_errors_cite_lines(text, line):
    with pytest.raises(ConfigError) as err:
        parse_curve_config(text)
    assert f"line {line}" in str(err.value)


def test_config_missing_keys_and_bad_encodings():
    with pytest.raises(ConfigError, match="missing"):
        parse_curve_config("p = 5\ne = 2\n")
    from kummercodes.curve import curve_from_config

    with pytest.raises(ConfigError, match="encodings"):
        curve_from_config({"p": 5, "e": 1, "m": 3, "lambda": 1, "f": [0, 9, 1]})
    # an encoding equal to q is refused too, not reduced mod p to a coefficient
    with pytest.raises(ConfigError, match=r"encodings \[5\] outside \[0, 5\)"):
        curve_from_config({"p": 5, "e": 1, "m": 3, "lambda": 1, "f": [1, 5, 1]})


def test_curve_hashable(curve_y3_x5x, f25):
    same = make_curve(f25, 3, 1, Polynomial(f25, [0, 4, 0, 0, 0, 1]))
    assert same == curve_y3_x5x
    assert hash(same) == hash(curve_y3_x5x)
    assert len({same, curve_y3_x5x}) == 1
    # trailing zero coefficients, lambda + m and a filled place cache change
    # neither equality nor hash
    f = Polynomial(f25, [0, 4, 0, 0, 0, 1, 0, 0])
    assert f == same.f and hash(f) == hash(same.f) and repr(f) == "Polynomial('0,4,0,0,0,1')"
    shifted = make_curve(f25, 3, 4, f)
    curve_y3_x5x.rational_places()
    assert shifted._places is None
    assert shifted == curve_y3_x5x and hash(shifted) == hash(curve_y3_x5x)
    assert make_curve(f25, 3, 2, f) != curve_y3_x5x
    assert repr(same) == "KummerCurve(q=25, m=3, lam=1, f=0,4,0,0,0,1, g=4)"
    for obj, name in ((same, "lam"), (same, "genus"), (same, "x"), (f, "coeffs"), (f, "x")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 1)
    # f is evaluated once per element of F_q, by whichever of alphas, the
    # places and a code build comes first, and never while a curve is built
    evaluations, evaluate = [], Polynomial.__call__

    def counted(poly, a):
        evaluations.append(a)
        return evaluate(poly, a)

    reads = (lambda c: c.alphas, lambda c: c.rational_places(),
             lambda c: residue_code(c, Divisor(7, {1: 1})))
    for order in itertools.permutations(reads):
        evaluations.clear()
        with mock.patch.object(Polynomial, "__call__", counted):
            fresh = make_curve(f25, 3, 1, f)
            assert evaluations == []
            for read in order:
                read(fresh)
                assert len(evaluations) == f25.q
        assert fresh.alphas is fresh.alphas and fresh.alphas == curve_y3_x5x.alphas


def test_theory_path_does_not_import_numpy(tmp_path):
    # numpy is the code layer's; the theory queries and load_curve must not
    # pull it (or kummercodes.code) in.  A fresh process, as pytest's own
    # process has imported both.
    path = tmp_path / "curve.cfg"
    path.write_text("p = 2\ne = 6\nm = 9\nlambda = 1\nf = 0,1,1,0,1\n", encoding="utf-8")
    script = (
        "import json, sys\n"
        "import kummercodes as kc\n"
        f"c = kc.load_curve({str(path)!r})\n"
        "kc.semigroup_at(c, c.place_infinity()), kc.semigroup_at(c, c.ramified_place(1))\n"
        "kc.gap_graph(c), kc.enumerate_pure_gaps(c), kc.is_member(c, 10, 10)\n"
        "print(json.dumps([m for m in ('numpy', 'kummercodes.code') if m in sys.modules]))\n"
    )
    src = str(Path(kummercodes.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []


def test_place_reads_every_printed_label(curve_y3_x5x, curve_y9_quartic, curve_y6_x5x):
    for c in (curve_y3_x5x, curve_y9_quartic, curve_y6_x5x):
        named = [c.ramified_place(i) for i in range(1, len(c.alphas) + 1)]
        for p in (c.place_infinity(), *named):
            assert c.place(p.label()) == p
        assert c.place("inf") == c.place("Pinf") == c.place_infinity()
        assert [c.place(str(p.index)) for p in named] == named
    with pytest.raises(ValueError, match="ramified place index 6 out of range 1..5"):
        curve_y3_x5x.place("P_6")
    for spec in ("P_x", "x", "P_1P"):
        with pytest.raises(ValueError, match=f"bad place selector '{spec}'"):
            curve_y3_x5x.place(spec)

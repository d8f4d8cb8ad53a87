"""The Kummer extension y**m = f(x)**lambda over F_q.

Validates the defining data, computes the genus and enumerates the
degree-one places off one scan of F_q, f evaluated once per x: P_inf, P_i
centred on the root ``alphas[i - 1]`` of f, and the ordinary points (x, y),
all as ints, the field encodings (``field.element`` reads them).  Valuations
and Riemann-Roch spaces on the distinguished places are :mod:`.rr`'s.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from math import gcd as int_gcd
from pathlib import Path

from .gf import Field, make_field
from .poly import Polynomial, is_separable


class ConfigError(ValueError):
    """Malformed curve configuration; carries the input line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True)
class Place:
    """A degree-one place: P_inf, a ramified P_i (centred on the curve's
    alphas[i - 1]), or an ordinary point (x, y), given by the encodings."""

    kind: str  # "infinity" | "ramified" | "ordinary"
    index: int = 0
    x: int | None = None
    y: int | None = None

    def label(self) -> str:
        if self.kind == "infinity":
            return "P_inf"
        if self.kind == "ramified":
            return f"P_{self.index}"
        return f"P({self.x},{self.y})"


@dataclass(frozen=True)
class KummerCurve:
    """The curve y**m = f(x)**lam, validated on construction: m >= 2 and
    prime to the characteristic, f separable of degree >= 2 (degree 1 would
    give genus 0, where the whole gap theory is empty), gcd(m, r*lam) = 1.
    lam is normalized into (0, m).  Immutable, and compared and hashed by
    (field, m, lam, f); r and genus are derived on construction, and
    log_f (the one scan of F_q), alphas and the places when first read."""

    field: Field
    m: int
    lam: int
    f: Polynomial
    r: int = dataclasses.field(init=False, compare=False)
    genus: int = dataclasses.field(init=False, compare=False)
    _places: tuple[Place, ...] | None = dataclasses.field(init=False, compare=False,
                                                          default=None)

    def __post_init__(self):
        field, m, lam, f = self.field, self.m, self.lam, self.f
        if f.field != field:
            raise ValueError("f is defined over a different field")
        if m < 2:
            raise ValueError(f"Kummer degree m must be >= 2, got {m}")
        if m % field.p == 0:
            raise ValueError(f"characteristic {field.p} divides m = {m}")
        if lam < 1:
            raise ValueError(f"lambda must be positive, got {lam}")
        r = f.degree
        if r < 2:
            raise ValueError(
                f"deg f = {r} gives a degenerate (genus zero) curve; need deg f >= 2"
            )
        lam = lam % m
        if int_gcd(m, r * lam) != 1:
            raise ValueError(f"gcd(m, r*lambda) = {int_gcd(m, r * lam)} must be 1")
        if not is_separable(f):
            raise ValueError("f must be separable (pairwise distinct roots)")
        for name, value in (("lam", lam), ("r", r), ("genus", (m - 1) * (r - 1) // 2)):
            object.__setattr__(self, name, value)

    @cached_property
    def log_f(self) -> tuple[int, ...]:
        """log f(x) by the encoding of x, -1 where f(x) = 0: f evaluated once per x."""
        return tuple(self.field._log[self.f(x)] for x in range(self.field.q))

    @cached_property
    def alphas(self) -> tuple[int, ...]:
        """The roots of f in F_q as ascending encodings: P_i is centred on alphas[i - 1]."""
        return tuple(x for x, v in enumerate(self.log_f) if v < 0)

    def __repr__(self):
        return (f"KummerCurve(q={self.field.q}, m={self.m}, lam={self.lam}, "
                f"f={self.f.format()}, g={self.genus})")

    # -- places ----------------------------------------------------------------

    def place_infinity(self) -> Place:
        return Place("infinity")

    def ramified_place(self, index: int) -> Place:
        if not 1 <= index <= len(self.alphas):
            raise ValueError(f"ramified place index {index} out of range 1..{len(self.alphas)}"
                             if self.alphas else
                             "f has no root in F_q, so the curve has no place P_i to name")
        return Place("ramified", index)

    def place(self, spec: str) -> Place:
        """Read a place selector: 'inf', 'Pinf', 'P_inf', an index 'i' or its label 'P_i'."""
        if spec in ("inf", "P_inf", "Pinf"):
            return Place("infinity")
        try:
            index = int(spec.removeprefix("P_"))
        except ValueError:
            raise ValueError(f"bad place selector {spec!r}; use 'inf' or an index") from None
        return self.ramified_place(index)

    def rational_places(self) -> tuple[Place, ...]:
        """All degree-one places: P_inf, the P_i in encoding order of their
        centers, then the ordinary points in (enc x, enc y) order.  Over f(x) =
        g**v != 0 they are the y = g**u with m*u = lam*v mod q - 1, if any."""
        if self._places is not None:
            return self._places
        field, order = self.field, self.field.q - 1
        d = int_gcd(self.m, order)
        step, inverse = order // d, pow(self.m // d, -1, order // d)  # 0 when q = 2
        places = [Place("infinity")]
        places += [Place("ramified", i) for i in range(1, len(self.alphas) + 1)]
        for x, v in enumerate(self.log_f):
            if v >= 0 and self.lam * v % d == 0:
                u = self.lam * v // d * inverse % step
                places += [Place("ordinary", x=x, y=y)
                           for y in sorted(field._exp[u + k * step] for k in range(d))]
        object.__setattr__(self, "_places", tuple(places))
        return self._places


def make_curve(field: Field, m: int, lam: int, f: Polynomial) -> KummerCurve:
    """Validate and build the curve y**m = f(x)**lam (see KummerCurve)."""
    return KummerCurve(field, m, lam, f)


# ---------------------------------------------------------------------------
# plain-text curve configuration: "key = value" lines for p, e, m, lambda, f


_CONFIG_KEYS = ("p", "e", "m", "lambda", "f")


def parse_curve_config(text: str) -> dict:
    """Parse the key/value curve format.

    Lines are "key = value"; '#' starts a comment; blank lines are skipped.
    Keys: p, e, m, lambda (integers) and f (comma-separated coefficient
    encodings, little-endian).  Errors carry the offending line number.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        if key == "f":
            try:
                values["f"] = [int(s.strip()) for s in val.split(",")]
            except ValueError:
                raise ConfigError(f"bad coefficient list {val!r}", lineno) from None
        else:
            try:
                values[key] = int(val)
            except ValueError:
                raise ConfigError(f"bad integer {val!r} for key {key!r}", lineno) from None
    missing = [k for k in _CONFIG_KEYS if k not in values]
    if missing:
        raise ConfigError(f"missing keys: {', '.join(missing)}")
    return values


def curve_from_config(cfg: dict) -> KummerCurve:
    try:
        field = make_field(cfg["p"], cfg["e"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    encs = cfg["f"]
    bad = [n for n in encs if not 0 <= n < field.q]
    if bad:
        raise ConfigError(f"coefficient encodings {bad} outside [0, {field.q})")
    return make_curve(field, cfg["m"], cfg["lambda"], Polynomial(field, encs))


def load_curve(path: str | Path) -> KummerCurve:
    """Read a curve configuration file and build the curve."""
    return curve_from_config(parse_curve_config(Path(path).read_text(encoding="utf-8")))

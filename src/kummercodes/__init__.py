"""Weierstrass semigroups, pure gaps and AG codes on Kummer extensions.

The curve model is y**m = f(x)**lambda over F_q with f separable of degree r
and gcd(m, r*lambda) = 1.  See the README for the CLI and a library tour.
"""

import importlib

from . import onepoint, rr, twopoint
from .curve import (
    ConfigError,
    KummerCurve,
    Place,
    load_curve,
    make_curve,
    parse_curve_config,
)
from .gf import Field, FieldElement, make_field
from .onepoint import (
    NumericalSemigroup,
    check_consecutive_form,
    consecutive_genus,
    is_gap,
    is_symmetric,
    semigroup_at,
)
from .poly import Polynomial, gcd, is_separable, roots_in_field
from .rr import Divisor, RRBasis
from .twopoint import (
    GapGraph,
    PureGapBox,
    best_pure_gap_box,
    box_for_divisor,
    enumerate_pure_gaps,
    floor_pure_gap,
    gap_graph,
    is_member,
    is_pure_gap,
    known_pure_gap,
    verified_box,
)

__version__ = "0.1.0"

_CODE_NAMES = ("LinearCode", "evaluation_code", "exact_min_distance",
               "residue_code", "shorten")


def __getattr__(name):
    # the code layer needs numpy, so theory-only use never imports it
    if name == "code" or name in _CODE_NAMES:
        code = importlib.import_module(".code", __name__)
        return code if name == "code" else getattr(code, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ConfigError",
    "Divisor",
    "Field",
    "FieldElement",
    "GapGraph",
    "KummerCurve",
    "LinearCode",
    "NumericalSemigroup",
    "Place",
    "Polynomial",
    "PureGapBox",
    "RRBasis",
    "best_pure_gap_box",
    "box_for_divisor",
    "check_consecutive_form",
    "consecutive_genus",
    "enumerate_pure_gaps",
    "evaluation_code",
    "exact_min_distance",
    "floor_pure_gap",
    "gap_graph",
    "gcd",
    "is_gap",
    "is_member",
    "is_pure_gap",
    "is_separable",
    "is_symmetric",
    "known_pure_gap",
    "load_curve",
    "make_curve",
    "make_field",
    "onepoint",
    "parse_curve_config",
    "residue_code",
    "roots_in_field",
    "rr",
    "semigroup_at",
    "shorten",
    "twopoint",
    "verified_box",
]

"""Weierstrass semigroups, pure gaps and AG codes on Kummer extensions.

The curve model is y**m = f(x)**lambda over F_q with f separable of degree r
and gcd(m, r*lambda) = 1.  See the README for the CLI and a library tour.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the public names it exports; a submodule that lists its
# own name exports itself.  A name is imported from its submodule on first
# use, so theory-only use never loads the code layer and its numpy.
_EXPORTS = {
    "gf": ("Field", "make_field"),
    "poly": ("Polynomial", "gcd", "is_separable", "roots_in_field"),
    "curve": ("ConfigError", "KummerCurve", "Place", "load_curve", "make_curve",
              "parse_curve_config"),
    "rr": ("rr", "Divisor", "RRBasis"),
    "onepoint": ("onepoint", "NumericalSemigroup", "check_consecutive_form",
                 "consecutive_genus", "is_gap", "is_symmetric", "semigroup_at"),
    "twopoint": ("twopoint", "GapGraph", "PureGapBox", "best_pure_gap_box",
                 "box_for_divisor", "enumerate_pure_gaps", "floor_pure_gap",
                 "gap_graph", "is_member", "is_pure_gap", "known_pure_gap",
                 "verified_box"),
    "code": ("LinearCode", "evaluation_code", "exact_min_distance", "residue_code",
             "shorten"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    owner = _OWNER.get(name, name if name in _EXPORTS else None)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{owner}", __name__)
    return module if name == owner else getattr(module, name)

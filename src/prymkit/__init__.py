"""prymkit: exact-rational verification of a pencil of bielliptic curves,
their Kummer-surface elliptic fibrations, and the associated genus-2 data."""

from .rat import Rat, rat, rat_str, sqrt_exact
from .upoly import UPoly, bracket, discriminant, gcd, resultant
from .bpoly import MPoly
from .ratfunc import RatFunc
from .factorq import rational_roots, squarefree_places
from .invariants import IgusaClebsch, igusa_clebsch as igusa_clebsch_coeffs, wp_equal, wp_scale_equal

__all__ = [
    "Rat",
    "rat",
    "rat_str",
    "sqrt_exact",
    "UPoly",
    "MPoly",
    "RatFunc",
    "bracket",
    "discriminant",
    "gcd",
    "resultant",
    "rational_roots",
    "squarefree_places",
    "IgusaClebsch",
    "igusa_clebsch_coeffs",
    "wp_equal",
    "wp_scale_equal",
]

__version__ = "0.1.0"

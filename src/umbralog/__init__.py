"""Exact formal-power-series and umbral-calculus engine.

Builds binomial-type polynomial sequences and their continuations from a
series f in x + x^2 C[[x]], constructs the associated noncommutative
operator calculus, expands the logarithm of the continuations in a
generalized Stirling series, and machine-verifies the identities relating
all of these against independent brute-force oracles.
"""

__version__ = "0.1.0"

from .asymptotic import AsymptoticSeries
from .parampoly import ParamPoly
from .polys import Poly
from .presets import build_f, family
from .series import OrderError, PowerSeries, SeriesError
from .umbral import BinomialFamily, build_family, p_seq, p_symbolic, tau_inverse

__all__ = [
    "AsymptoticSeries",
    "BinomialFamily",
    "OrderError",
    "ParamPoly",
    "Poly",
    "PowerSeries",
    "SeriesError",
    "build_f",
    "build_family",
    "family",
    "p_seq",
    "p_symbolic",
    "tau_inverse",
]

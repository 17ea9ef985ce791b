"""Preset input families and the --f specification parser.

Preset names: id (f = x), exp1 (f = e^x - 1), geom (f = x/(1-x)),
nu (the series whose f/f' equals x e^{-x}), poly:<coeff list>.
A bare comma-separated list of rationals is read as the coefficients of
x^1, x^2, ... and must start with 1.

``family`` keeps the FAMILY_CACHE_SIZE most recently used families, so
that every caller asking for the same (spec, order) shares one family and
the tables memoized on it; ``family.cache_clear()`` drops them.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .series import PowerSeries, SeriesError
from .umbral import BinomialFamily, build_family, tau_inverse

PRESET_NAMES = ("id", "exp1", "geom", "nu")

# Callers reuse a family within one suite or command, so a short history
# catches almost every repeat (a traced perfbench verify_sweep pass builds
# 53 families for 49 distinct inputs, and 102 without the cache); the bound
# keeps a long-running process from holding every family it ever built.
FAMILY_CACHE_SIZE = 16


def f_id(order: int) -> PowerSeries:
    return PowerSeries.identity("x", order)


def f_exp1(order: int) -> PowerSeries:
    return PowerSeries(
        "x", [Fraction(0)] + [Fraction(1, factorial(n)) for n in range(1, order + 1)]
    )


def f_geom(order: int) -> PowerSeries:
    return PowerSeries("x", [Fraction(0)] + [Fraction(1)] * order)


def x_exp_minus_x(order: int) -> PowerSeries:
    coeffs = [Fraction(0)] * (order + 1)
    for n in range(1, order + 1):
        coeffs[n] = Fraction((-1) ** (n - 1), factorial(n - 1))
    return PowerSeries("x", coeffs)


def f_nu(order: int) -> PowerSeries:
    return tau_inverse(x_exp_minus_x(order))


def f_poly(coeffs, order: int) -> PowerSeries:
    """Coefficients of x^1, x^2, ...; padded with zeros to the order."""
    coeffs = [Fraction(c) for c in coeffs]
    if not coeffs or coeffs[0] != 1:
        raise SeriesError("an explicit f must start with coefficient 1 on x")
    if len(coeffs) > order:
        raise SeriesError(f"more coefficients than the requested order {order}")
    data = [Fraction(0)] + coeffs + [Fraction(0)] * (order - len(coeffs))
    return PowerSeries("x", data)


def f_random(degree: int, seed: int, order: int) -> PowerSeries:
    """Seeded random polynomial f of the given degree, its coefficients
    num/den with |num| <= 10 and 1 <= den <= 10."""
    rng = random.Random(seed)
    coeffs = [Fraction(1)]
    for _ in range(degree - 1):
        num = rng.randint(-10, 10)
        den = rng.randint(1, 10)
        coeffs.append(Fraction(num, den))
    if coeffs[-1] == 0:
        coeffs[-1] = Fraction(1)
    return f_poly(coeffs, order)


def _clip(text: str) -> str:
    """repr(text), past 48 characters cut to its first and last 16."""
    if len(text) <= 48:
        return repr(text)
    return f"{text[:16] + '...' + text[-16:]!r} ({len(text)} characters)"


def parse_rational(text: str, spec: str | None = None) -> Fraction:
    """A rational given by the user, alone or as a coefficient of the family
    spec ``spec``.  A zero denominator, a malformed text and a rational with
    more digits than ``sys.get_int_max_str_digits()`` lets ``int`` convert
    are ValueErrors whose one-line message clips the text."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {_clip(text)}") from None
    except ValueError as exc:
        what = _clip(text)
        if spec is not None:
            what = f"coefficient {what} in family spec {_clip(spec)}"
        if "integer string conversion" in str(exc):
            raise ValueError(
                f"{what} is too long to convert: an integer in it has more "
                f"than {sys.get_int_max_str_digits()} digits"
            ) from None
        raise ValueError(f"{what} is not a rational") from None


def _coefficient(spec: str, text: str) -> Fraction:
    """One coefficient of a poly: spec; an empty or non-rational one is
    reported together with the spec."""
    text = text.strip()
    if not text:
        raise SeriesError(f"empty coefficient in family spec {_clip(spec)}")
    return parse_rational(text, spec)


def build_f(spec: str, order: int) -> PowerSeries:
    spec = given = spec.strip()
    if spec == "id":
        return f_id(order)
    if spec == "exp1":
        return f_exp1(order)
    if spec == "geom":
        return f_geom(order)
    if spec == "nu":
        return f_nu(order)
    if spec.startswith("poly:"):
        spec = spec[len("poly:") :]
    if "," in spec or "/" in spec or spec.lstrip("-").isdigit():
        return f_poly([_coefficient(given, c) for c in spec.split(",")], order)
    raise SeriesError(
        f"unknown family spec {spec!r} (presets: {', '.join(PRESET_NAMES)}, "
        "or poly:c1,c2,...)"
    )


def family(spec: str, order: int) -> BinomialFamily:
    """The family of a spec at an order, built once while it stays among the
    FAMILY_CACHE_SIZE most recently used."""
    return _cached_family(spec.strip(), order)


@lru_cache(maxsize=FAMILY_CACHE_SIZE)
def _cached_family(spec: str, order: int) -> BinomialFamily:
    return build_family(build_f(spec, order))


family.cache_clear = _cached_family.cache_clear

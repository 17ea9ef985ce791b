"""Preset input families and the --f specification parser.

Preset names: id (f = x), exp1 (f = e^x - 1), geom (f = x/(1-x)),
nu (the series whose f/f' equals x e^{-x}), poly:<coeff list>.
A bare comma-separated list of rationals is read as the coefficients of
x^1, x^2, ... and must start with 1.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

from .series import PowerSeries, SeriesError
from .umbral import BinomialFamily, build_family, tau_inverse

PRESET_NAMES = ("id", "exp1", "geom", "nu")


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


def f_random(degree: int, seed: int, order: int, height: int = 10) -> PowerSeries:
    """Seeded random polynomial f of the given degree (height-bounded)."""
    rng = random.Random(seed)
    coeffs = [Fraction(1)]
    for _ in range(degree - 1):
        num = rng.randint(-height, height)
        den = rng.randint(1, height)
        coeffs.append(Fraction(num, den))
    if coeffs[-1] == 0:
        coeffs[-1] = Fraction(1)
    return f_poly(coeffs, order)


def parse_rational(text) -> Fraction:
    """A rational given by the user; a zero denominator is a ValueError."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def build_f(spec: str, order: int) -> PowerSeries:
    spec = spec.strip()
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
        return f_poly([parse_rational(c.strip()) for c in spec.split(",")], order)
    raise SeriesError(
        f"unknown family spec {spec!r} (presets: {', '.join(PRESET_NAMES)}, "
        "or poly:c1,c2,...)"
    )


def family(spec: str, order: int) -> BinomialFamily:
    return build_family(build_f(spec, order))

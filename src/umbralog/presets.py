"""Preset input families and the --f specification parser.

Preset names: id (f = x), exp1 (f = e^x - 1), geom (f = x/(1-x)),
nu (the series whose f/f' equals x e^{-x}), poly:<coeff list>.
A bare comma-separated list of rationals is read as the coefficients of
x^1, x^2, ... and must start with 1.

``family`` holds the FAMILY_CACHE_SIZE most recently used families, so
that every caller asking for the same (spec, order) shares one family and
the tables memoized on it; ``family.cache_clear()`` drops them.  A spec
asked below an order it is held at is served by truncating the held
family (``BinomialFamily.truncate``): the prefix of a family that passed
``build_family``'s checks (f(phi(x)) = x, and omega against f through the
held f'(omega)) is exactly the lower-order family.  Every other request
runs ``build_family``, checks included.
"""

from __future__ import annotations

import random
import sys
import threading
from collections import OrderedDict
from fractions import Fraction
from math import factorial

from .series import PowerSeries, SeriesError
from .umbral import BinomialFamily, build_family, tau_inverse

PRESET_NAMES = ("id", "exp1", "geom", "nu")

# Callers reuse a family within one suite or command, so a short history
# catches almost every repeat (a perfbench verify_sweep pass asks for 100
# families: 49 are held already, 21 are served by truncation and 30 are
# built); the bound keeps a long-running process from holding every family
# it ever built.
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
    """The family of a spec at an order, held while it stays among the
    FAMILY_CACHE_SIZE most recently used.  A new request first builds f,
    so that bad input raises as before; it is then served by truncation if
    a family of the same spec is held at a higher order whose f has f as
    its prefix, and built by ``build_family`` otherwise.  The lock guards
    the map only: builds run outside it."""
    spec = spec.strip()
    key = (spec, order)
    with _lock:
        fam = _held.get(key)
        if fam is not None:
            _held.move_to_end(key)
            return fam
    f = build_f(spec, order)
    n = f.order
    with _lock:
        donor = next(
            (held for (s, _), held in reversed(_held.items()) if s == spec and held.order > n),
            None,
        )
    if donor is not None and donor.f.truncate(n) == f:
        fam = donor.truncate(n)
    else:
        fam = build_family(f)
    with _lock:
        fam = _held.setdefault(key, fam)
        _held.move_to_end(key)
        while len(_held) > FAMILY_CACHE_SIZE:
            _held.popitem(last=False)
    return fam


def _cache_clear() -> None:
    with _lock:
        _held.clear()


_held: OrderedDict = OrderedDict()  # (spec, order) -> family, least recent first
_lock = threading.Lock()
family.cache_clear = _cache_clear

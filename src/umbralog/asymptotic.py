"""Asymptotic series alpha^e * sum c_k alpha^{-k} with symbolic exponents.

The exponent is a ``ParamPoly`` in the parameters s and H; the sum is a
``PowerSeries`` in the variable ``1/a`` (alpha^{-1}) whose coefficients are
``ParamPoly`` values.  ln(alpha) is the ``ParamPoly`` symbol ``L``: it enters
only by taking the logarithm.
"""

from __future__ import annotations

from fractions import Fraction

from .parampoly import L, ParamPoly
from .polys import Poly
from .series import OrderError, PowerSeries, SeriesError


_VAR = "1/a"
_ZERO = ParamPoly()
_ONE = ParamPoly.const(1)


class AsymptoticSeries:
    """alpha^exponent * (c_0 + c_1 alpha^{-1} + ... + c_depth alpha^{-depth})."""

    __slots__ = ("exponent", "body")

    def __init__(self, exponent: ParamPoly, coeffs):
        coeffs = [ParamPoly.coerce(c) for c in coeffs]
        if not coeffs:
            raise SeriesError("an asymptotic series needs a leading coefficient")
        self.exponent = ParamPoly.coerce(exponent)
        self.body = PowerSeries(_VAR, coeffs)

    @staticmethod
    def _of(exponent: ParamPoly, body: PowerSeries) -> "AsymptoticSeries":
        out = object.__new__(AsymptoticSeries)
        out.exponent = exponent
        out.body = body
        return out

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_alpha_poly(p: Poly, depth: int) -> "AsymptoticSeries":
        """Exact polynomial in alpha, written as alpha^deg * (descending),
        to alpha^{deg - depth}."""
        if p.is_zero():
            raise SeriesError("cannot grade the zero polynomial")
        d = p.degree()
        return AsymptoticSeries(d, [p.coefficient(d - k) for k in range(depth + 1)])

    @staticmethod
    def from_poly_ratio(num: Poly, den: Poly, depth: int) -> "AsymptoticSeries":
        """num/den expanded around alpha = infinity, to alpha^{-depth}."""
        if num.is_zero():
            return AsymptoticSeries(0, [_ZERO] * (depth + 1))
        a = AsymptoticSeries.from_alpha_poly(num, depth)
        b = AsymptoticSeries.from_alpha_poly(den, depth)
        return a / b

    # -- basics ------------------------------------------------------------

    @property
    def depth(self) -> int:
        return self.body.order

    @property
    def coeffs(self) -> tuple:
        return self.body.coeffs

    def coefficient(self, k: int) -> ParamPoly:
        """c_k, which must be free of ln(alpha)."""
        c = self.body.coefficient(k)
        if c.degree("L") > 0:
            raise SeriesError(f"coefficient {k} carries ln(alpha) terms")
        return c

    def truncate(self, depth: int) -> "AsymptoticSeries":
        return AsymptoticSeries._of(self.exponent, self.body.truncate(depth))

    def is_zero(self) -> bool:
        return self.body.is_zero()

    def __eq__(self, other):
        if not isinstance(other, AsymptoticSeries):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        return self.exponent == other.exponent and self.body == other.body

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "AsymptoticSeries"):
        if self.exponent != other.exponent:
            raise SeriesError("cannot add expansions with different exponents")
        return AsymptoticSeries._of(self.exponent, self.body + other.body)

    def __neg__(self):
        return AsymptoticSeries._of(self.exponent, -self.body)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "AsymptoticSeries":
        return AsymptoticSeries._of(self.exponent, self.body.scale(c))

    def __mul__(self, other):
        if not isinstance(other, AsymptoticSeries):
            return self.scale(other)
        return AsymptoticSeries._of(
            self.exponent + other.exponent, self.body * other.body
        )

    __rmul__ = scale

    def __truediv__(self, other: "AsymptoticSeries"):
        lead = other.body.coefficient(0)
        if lead != _ONE:
            raise SeriesError(
                f"division needs a unit leading coefficient (got {lead})"
            )
        return AsymptoticSeries._of(
            self.exponent - other.exponent, self.body / other.body
        )

    def log(self) -> "AsymptoticSeries":
        """ln(self) = exponent*ln(alpha) + log of the regular part.

        Requires a unit leading coefficient; the exponent*ln(alpha) term is
        the ``L`` part of the constant coefficient.
        """
        if self.body.coefficient(0) != _ONE:
            raise SeriesError("log needs a unit leading coefficient")
        return AsymptoticSeries._of(
            _ZERO, self.body.log() + self.exponent * L
        )

    # -- specialization ----------------------------------------------------------

    def specialize_to_poly(self, s=None, H=None) -> Poly:
        """Substitute integers for the parameters; must yield a polynomial."""
        vals = {}
        if s is not None:
            vals["s"] = Fraction(s)
        if H is not None:
            vals["H"] = Fraction(H)
        e = self.exponent.eval(**vals)
        if e.denominator != 1 or e < 0:
            raise SeriesError(f"exponent {e} does not specialize to a polynomial")
        e = int(e)
        out = [Fraction(0)] * (e + 1)
        for k, c in enumerate(self.coeffs):
            if c.degree("L") > 0:
                raise SeriesError("cannot specialize ln(alpha) terms to a polynomial")
            v = c.eval(**vals)
            if k > e:
                if v:
                    raise SeriesError(
                        f"coefficient at alpha^{{{e - k}}} is {v}, not a polynomial"
                    )
            else:
                out[e - k] = v
        if self.depth < e:
            raise OrderError("expansion too shallow to specialize exactly")
        return Poly(out)

    def map_coeffs(self, fn) -> "AsymptoticSeries":
        return AsymptoticSeries(self.exponent, [fn(c) for c in self.coeffs])

    def align_to(self, exponent: ParamPoly) -> "AsymptoticSeries":
        """Rewrite with a larger exponent by shifting in leading zeros."""
        exponent = ParamPoly.coerce(exponent)
        d = exponent - self.exponent
        shift = d.constant_value() if d.is_constant() else None
        if shift is None or shift.denominator != 1 or shift < 0:
            raise SeriesError(
                f"cannot align exponent {self.exponent} to {exponent}"
            )
        return AsymptoticSeries._of(exponent, self.body.mul_var(int(shift)))

    @staticmethod
    def equal_to_depth(a: "AsymptoticSeries", b: "AsymptoticSeries", depth: int) -> bool:
        """Equality to the given depth, tolerating integer exponent offsets.

        The higher window decides: a series that is zero on it equals one
        whose terms all lie below it.
        """
        if min(a.depth, b.depth) < depth:
            raise OrderError("comparison depth exceeds a valid expansion depth")
        a = a.truncate(depth)
        b = b.truncate(depth)
        d = a.exponent - b.exponent
        if not d.is_constant() or d.constant_value().denominator != 1:
            return a.is_zero() and b.is_zero()
        if d.constant_value() > 0:
            b = b.align_to(a.exponent)
        elif d.constant_value() < 0:
            a = a.align_to(b.exponent)
        return a.body.prefix_equal(b.body)

    def __repr__(self):
        bits = [
            f"[({c})]*a^({self.exponent} - {k})"
            for k, c in enumerate(self.coeffs[:8])
            if c
        ]
        if self.depth >= 8:
            bits.append("...")
        return " + ".join(bits) if bits else "0"

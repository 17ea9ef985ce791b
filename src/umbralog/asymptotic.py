"""Asymptotic series alpha^e * sum c_k alpha^{-k} with symbolic exponents.

The exponent is an exact linear form in the parameters s and H; the
coefficients are ``ParamPoly`` values, optionally carrying powers of a formal
``ln(alpha)`` adjunct (introduced only by differentiation in s, or by taking
the logarithm itself).
"""

from __future__ import annotations

from fractions import Fraction

from .parampoly import ParamPoly
from .polys import Poly
from .series import OrderError, SeriesError


class LinForm:
    """const + cs*s + cH*H with Fraction coefficients."""

    __slots__ = ("const", "cs", "cH")

    def __init__(self, const=0, cs=0, cH=0):
        self.const = Fraction(const)
        self.cs = Fraction(cs)
        self.cH = Fraction(cH)

    ZERO: "LinForm"
    S: "LinForm"
    H: "LinForm"

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LinForm(other)
        return LinForm(self.const + other.const, self.cs + other.cs, self.cH + other.cH)

    __radd__ = __add__

    def __neg__(self):
        return LinForm(-self.const, -self.cs, -self.cH)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LinForm(other)
        return self + (-other)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LinForm(other)
        return (
            isinstance(other, LinForm)
            and (self.const, self.cs, self.cH) == (other.const, other.cs, other.cH)
        )

    def __hash__(self):
        # a constant equals its rational value, so it must hash like it
        if not (self.cs or self.cH):
            return hash(self.const)
        return hash((self.const, self.cs, self.cH))

    def is_zero(self) -> bool:
        return not (self.const or self.cs or self.cH)

    def as_parampoly(self) -> ParamPoly:
        return (
            ParamPoly.const(self.const)
            + ParamPoly.symbol("s") * self.cs
            + ParamPoly.symbol("H") * self.cH
        )

    def subs(self, s=None, H=None) -> Fraction:
        if (self.cs and s is None) or (self.cH and H is None):
            raise ValueError("missing value for a symbol in the exponent")
        acc = self.const
        if self.cs:
            acc += self.cs * Fraction(s)
        if self.cH:
            acc += self.cH * Fraction(H)
        return acc

    def __repr__(self):
        bits = []
        if self.cs:
            bits.append("s" if self.cs == 1 else f"{self.cs}*s")
        if self.cH:
            bits.append("H" if self.cH == 1 else f"{self.cH}*H")
        if self.const or not bits:
            bits.append(f"{self.const}")
        return " + ".join(bits)


LinForm.ZERO = LinForm()
LinForm.S = LinForm(0, 1, 0)
LinForm.H = LinForm(0, 0, 1)


def _lc_trim(parts) -> tuple:
    parts = [ParamPoly.coerce(p) for p in parts]
    while len(parts) > 1 and parts[-1].is_zero():
        parts.pop()
    return tuple(parts)


def _lc_add(a, b):
    n = max(len(a), len(b))
    return _lc_trim(
        [
            (a[i] if i < len(a) else ParamPoly())
            + (b[i] if i < len(b) else ParamPoly())
            for i in range(n)
        ]
    )


def _lc_mul(a, b):
    out = [ParamPoly() for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _lc_trim(out)


def _lc_scale(a, c):
    return _lc_trim([x * c for x in a])


def _lc_is_zero(a) -> bool:
    return all(x.is_zero() for x in a)


class AsymptoticSeries:
    """alpha^exponent * (c_0 + c_1 alpha^{-1} + ... + c_depth alpha^{-depth})."""

    __slots__ = ("exponent", "coeffs")

    def __init__(self, exponent: LinForm, coeffs):
        norm = []
        for c in coeffs:
            if isinstance(c, tuple):
                norm.append(_lc_trim(c))
            else:
                norm.append(_lc_trim([c]))
        if not norm:
            raise SeriesError("an asymptotic series needs a leading coefficient")
        self.exponent = exponent
        self.coeffs = tuple(norm)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_plain(exponent: LinForm, plain_coeffs) -> "AsymptoticSeries":
        return AsymptoticSeries(exponent, [ParamPoly.coerce(c) for c in plain_coeffs])

    @staticmethod
    def from_alpha_poly(p: Poly, depth: int | None = None) -> "AsymptoticSeries":
        """Exact polynomial in alpha, written as alpha^deg * (descending)."""
        if p.is_zero():
            raise SeriesError("cannot grade the zero polynomial")
        d = p.degree()
        if depth is None:
            depth = d
        coeffs = [
            p.coefficient(d - k) if k <= d else Fraction(0)
            for k in range(depth + 1)
        ]
        return AsymptoticSeries.from_plain(LinForm(d), coeffs)

    @staticmethod
    def zero(exponent: LinForm, depth: int) -> "AsymptoticSeries":
        return AsymptoticSeries(exponent, [ParamPoly()] * (depth + 1))

    @staticmethod
    def from_poly_ratio(num: Poly, den: Poly, depth: int) -> "AsymptoticSeries":
        """num/den expanded around alpha = infinity, to alpha^{-depth}."""
        if num.is_zero():
            return AsymptoticSeries.zero(LinForm.ZERO, depth)
        a = AsymptoticSeries.from_alpha_poly(num, depth)
        b = AsymptoticSeries.from_alpha_poly(den, depth)
        return a / b

    # -- basics ------------------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> ParamPoly:
        """The lnalpha-free part of c_k (errors if a log term is present)."""
        c = self.log_coefficient(k)
        if len(c) > 1:
            raise SeriesError(f"coefficient {k} carries ln(alpha) terms")
        return c[0]

    def log_coefficient(self, k: int) -> tuple:
        if k < 0:
            raise SeriesError("negative depth index")
        if k > self.depth:
            raise OrderError(
                f"coefficient {k} of an expansion valid to depth {self.depth}"
            )
        return self.coeffs[k]

    def has_log_terms(self) -> bool:
        return any(len(c) > 1 for c in self.coeffs)

    def truncate(self, depth: int) -> "AsymptoticSeries":
        if depth > self.depth:
            raise OrderError("cannot extend an asymptotic expansion")
        return AsymptoticSeries(self.exponent, self.coeffs[: depth + 1])

    def is_zero(self) -> bool:
        return all(_lc_is_zero(c) for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, AsymptoticSeries):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        return (
            self.exponent == other.exponent
            and self.depth == other.depth
            and self.coeffs == other.coeffs
        )

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "AsymptoticSeries"):
        if self.exponent != other.exponent:
            raise SeriesError("cannot add expansions with different exponents")
        n = min(self.depth, other.depth)
        return AsymptoticSeries(
            self.exponent,
            [_lc_add(self.coeffs[k], other.coeffs[k]) for k in range(n + 1)],
        )

    def __neg__(self):
        return AsymptoticSeries(
            self.exponent, [_lc_scale(c, Fraction(-1)) for c in self.coeffs]
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "AsymptoticSeries":
        return AsymptoticSeries(
            self.exponent, [_lc_scale(x, ParamPoly.coerce(c)) for x in self.coeffs]
        )

    def shift_exponent(self, delta) -> "AsymptoticSeries":
        if isinstance(delta, (int, Fraction)):
            delta = LinForm(delta)
        return AsymptoticSeries(self.exponent + delta, self.coeffs)

    def __mul__(self, other):
        if not isinstance(other, AsymptoticSeries):
            return self.scale(other)
        n = min(self.depth, other.depth)
        out = [(ParamPoly(),) for _ in range(n + 1)]
        for i in range(n + 1):
            if _lc_is_zero(self.coeffs[i]):
                continue
            for j in range(n + 1 - i):
                if _lc_is_zero(other.coeffs[j]):
                    continue
                out[i + j] = _lc_add(
                    out[i + j], _lc_mul(self.coeffs[i], other.coeffs[j])
                )
        return AsymptoticSeries(self.exponent + other.exponent, out)

    __rmul__ = scale

    def __truediv__(self, other: "AsymptoticSeries"):
        lead = other.coeffs[0]
        if len(lead) > 1 or lead[0] != ParamPoly.const(1):
            raise SeriesError(
                "division needs a unit leading coefficient (got "
                f"{lead})"
            )
        n = min(self.depth, other.depth)
        out: list = []
        for k in range(n + 1):
            acc = self.coeffs[k]
            for j in range(k):
                acc = _lc_add(
                    acc, _lc_scale(_lc_mul(out[j], other.coeffs[k - j]), Fraction(-1))
                )
            out.append(acc)
        return AsymptoticSeries(self.exponent - other.exponent, out)

    def log(self) -> "AsymptoticSeries":
        """ln(self) = exponent*ln(alpha) + log of the regular part.

        Requires a unit leading coefficient; the exponent*ln(alpha) term is
        stored as the ln-degree-1 part of the constant coefficient.
        """
        lead = self.coeffs[0]
        if len(lead) > 1 or lead[0] != ParamPoly.const(1):
            raise SeriesError("log needs a unit leading coefficient")
        n = self.depth
        # u = self/alpha^e - 1, then log(1+u) = sum (-1)^{j+1} u^j / j
        u = AsymptoticSeries(
            LinForm.ZERO, ((ParamPoly(),),) + self.coeffs[1:]
        )
        acc = AsymptoticSeries(LinForm.ZERO, [(ParamPoly(),)] * (n + 1))
        power = None
        for j in range(1, n + 1):
            power = u if power is None else power * u
            acc = acc + power.scale(Fraction((-1) ** (j + 1), j))
        head = _lc_add(
            acc.coeffs[0], (ParamPoly(), self.exponent.as_parampoly())
        )
        return AsymptoticSeries(LinForm.ZERO, (head,) + acc.coeffs[1:])

    def derive_alpha(self) -> "AsymptoticSeries":
        """d/dalpha, lowering the exponent by one."""
        out = []
        for k, c in enumerate(self.coeffs):
            factor = (self.exponent - k).as_parampoly()
            parts = [factor * p for p in c]
            # d/dalpha ln^j alpha = j ln^{j-1} alpha / alpha
            for j in range(1, len(c)):
                parts[j - 1] = parts[j - 1] + c[j] * j
            out.append(_lc_trim(parts))
        return AsymptoticSeries(self.exponent - 1, out)

    def derive_s(self) -> "AsymptoticSeries":
        """d/ds; produces one extra ln(alpha) power from alpha^{e(s)}."""
        es = self.exponent.cs
        out = []
        for c in self.coeffs:
            parts = [p.derive("s") for p in c]
            if es:
                parts = _lc_add(
                    _lc_trim(parts) if parts else (ParamPoly(),),
                    (ParamPoly(),) + tuple(p * es for p in c),
                )
            out.append(_lc_trim(parts) if parts else (ParamPoly(),))
        return AsymptoticSeries(self.exponent, out)

    # -- specialization ----------------------------------------------------------

    def specialize_to_poly(self, s=None, H=None) -> Poly:
        """Substitute integers for the parameters; must yield a polynomial."""
        e = self.exponent.subs(s=s, H=H)
        if e.denominator != 1 or e < 0:
            raise SeriesError(f"exponent {e} does not specialize to a polynomial")
        e = int(e)
        vals = {}
        if s is not None:
            vals["s"] = Fraction(s)
        if H is not None:
            vals["H"] = Fraction(H)
        out = [Fraction(0)] * (e + 1)
        for k, c in enumerate(self.coeffs):
            if len(c) > 1 and not all(p.is_zero() for p in c[1:]):
                raise SeriesError("cannot specialize ln(alpha) terms to a polynomial")
            v = c[0].eval(**vals)
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
        return AsymptoticSeries(
            self.exponent, [tuple(fn(p) for p in c) for c in self.coeffs]
        )

    def align_to(self, exponent: LinForm) -> "AsymptoticSeries":
        """Rewrite with a larger exponent by shifting in leading zeros."""
        d = self.exponent - exponent
        if d.cs or d.cH or d.const.denominator != 1 or d.const > 0:
            raise SeriesError(
                f"cannot align exponent {self.exponent} to {exponent}"
            )
        shift = int(-d.const)
        coeffs = ((ParamPoly(),),) * shift + self.coeffs
        return AsymptoticSeries(exponent, coeffs)

    @staticmethod
    def equal_to_depth(a: "AsymptoticSeries", b: "AsymptoticSeries", depth: int) -> bool:
        """Equality to the given depth, tolerating integer exponent offsets."""
        if min(a.depth, b.depth) < depth:
            raise OrderError("comparison depth exceeds a valid expansion depth")
        a = a.truncate(depth)
        b = b.truncate(depth)
        if a.is_zero() or b.is_zero():
            return a.is_zero() and b.is_zero()
        d = a.exponent - b.exponent
        if d.cs or d.cH or d.const.denominator != 1:
            return False
        if d.const > 0:
            b = b.align_to(a.exponent)
        elif d.const < 0:
            a = a.align_to(b.exponent)
        n = min(a.depth, b.depth)
        return all(a.log_coefficient(k) == b.log_coefficient(k) for k in range(n + 1))

    def __repr__(self):
        bits = []
        for k, c in enumerate(self.coeffs[:8]):
            if _lc_is_zero(c):
                continue
            parts = []
            for j, p in enumerate(c):
                if p.is_zero():
                    continue
                ln = "" if j == 0 else ("*ln(a)" if j == 1 else f"*ln(a)^{j}")
                parts.append(f"({p}){ln}")
            bits.append(f"[{' + '.join(parts)}]*a^({self.exponent} - {k})")
        if self.depth >= 8:
            bits.append("...")
        return " + ".join(bits) if bits else "0"

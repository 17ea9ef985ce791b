"""Dense exact polynomials.

``Poly`` is the workhorse for genuine polynomial data (binomial-type and
Sheffer sequences, direct ratio oracles).  Unlike truncated power series it
has no order bookkeeping: what you see is the whole polynomial.

A polynomial is stored as ``ParamPoly`` stores itself: a trimmed tuple of
integer numerators ``num``, lowest degree first, over one positive
denominator ``den``, divided by their content.  So the denominator and the
numerators have gcd 1, the last numerator is nonzero, and equal polynomials
have equal ``num`` and ``den``.  Every operation runs on integers and builds
no ``Fraction`` per term; ``coeffs`` builds the coefficients when read.

Polynomials in two variables live in Q[x][y]: ``taylor`` and
``divided_difference`` build them.  There the numerators are integral
``Poly`` objects in the inner variable (denominator 1), over the one
denominator, and the content is the gcd of all their integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, lcm

from .parampoly import _as_fraction, _lift

_ZERO = Fraction(0)


def _conv(a, b, n: int) -> list:
    """Schoolbook product of two integral vectors, truncated at degree n."""
    out = [0] * (n + 1)
    b_nonzero = [(j, y) for j, y in enumerate(b[: n + 1]) if y]
    for i, x in enumerate(a[: n + 1]):
        if x:
            room = n - i
            for j, y in b_nonzero:
                if j > room:
                    break
                out[i + j] += x * y
    return out


def _lin(parts, div: int = 1) -> tuple:
    """The sum of c x^e num/den over the parts (c, e, (num, den)), for
    integers c and e >= 0, divided by the positive integer div: a pair
    (num, den) of integer coefficients, lowest degree first, over a positive
    denominator, divided by their gcd."""
    common = lcm(*[p[1] for _, _, p in parts])
    out = []
    for c, e, (num, den) in parts:
        c *= common // den
        out += [0] * (len(num) + e - len(out))
        for i, x in enumerate(num, e):
            out[i] += c * x
    common *= div
    g = gcd(common, *out)
    return tuple(x // g for x in out), common // g


def _times(p: tuple, q: tuple) -> tuple:
    """The product of two pairs (num, den), not reduced."""
    return tuple(_conv(p[0], q[0], len(p[0]) + len(q[0]) - 2)), p[1] * q[1]


def _nested(num) -> bool:
    """Whether ``num`` holds integral ``Poly``s (Q[x][y]) rather than ints."""
    return bool(num) and type(num[0]) is Poly


def _content(num) -> int:
    """The gcd of the integers in ``num``, through every level."""
    if _nested(num):
        return gcd(*[_content(p.num) for p in num])
    return gcd(*num)


def _divide(num, g: int, m: int = 1) -> tuple:
    """``num`` times an integer m, divided by an integer g that divides m
    times its content."""
    if _nested(num):
        return tuple(Poly._reduced(_divide(p.num, g, m), 1) for p in num)
    return tuple(x * m // g for x in num)


def _canonical(num, den: int) -> tuple:
    """``num`` over ``den > 0``, trimmed and divided by their gcd."""
    n = len(num)
    while n and not num[n - 1]:
        n -= 1
    num = tuple(num[:n])
    if den != 1:
        g = gcd(den, _content(num))
        if g != 1:
            return _divide(num, g), den // g
    return num, den


def _nest(num) -> tuple:
    """Integer numerators as integral constant ``Poly``s; nested ones as
    they are."""
    if not num or _nested(num):
        return num
    return tuple(Poly._reduced((x,), 1) if x else _PZERO for x in num)


class Poly:
    """Univariate polynomial: integer numerators ``num``, lowest degree first,
    over the positive denominator ``den``, reduced as far as it goes.  The
    numerators are ints, or integral Polys for a polynomial in two
    variables."""

    __slots__ = ("num", "den")

    def __init__(self, coeffs=()):
        """From ``int`` and ``Fraction`` coefficients, or over ``Poly`` (an
        ``int`` or ``Fraction`` beside a ``Poly`` is a constant one)."""
        coeffs = list(coeffs)
        if any(isinstance(c, Poly) for c in coeffs):
            coeffs = [c if isinstance(c, Poly) else Poly.const(c) for c in coeffs]
            den = lcm(*[c.den for c in coeffs])
            num = [c._scale(den, 1) for c in coeffs]
        else:
            num, den = _lift([_as_fraction(c) for c in coeffs])
        self.num, self.den = _canonical(num, den)

    @staticmethod
    def _make(num, den: int) -> "Poly":
        """Trim ``num`` over ``den > 0`` and reduce it by their gcd."""
        return Poly._reduced(*_canonical(num, den))

    @staticmethod
    def _reduced(num: tuple, den: int) -> "Poly":
        """Wrap a pair the caller guarantees is already canonical."""
        p = object.__new__(Poly)
        p.num, p.den = num, den
        return p

    def _at(self, x):
        """The coefficient with numerator x."""
        if type(x) is int:
            return Fraction(x, self.den)
        return Poly._make(x.num, self.den)

    @property
    def coeffs(self) -> tuple:
        """The coefficients, as ``Fraction``s (or ``Poly``s in Q[x][y])."""
        return tuple(map(self._at, self.num))

    @staticmethod
    def const(x) -> "Poly":
        if isinstance(x, Poly):
            return Poly([x])
        x = _as_fraction(x)
        return Poly._reduced((x.numerator,), x.denominator) if x else _PZERO

    @staticmethod
    def x() -> "Poly":
        return Poly._reduced((0, 1), 1)

    def degree(self) -> int:
        return len(self.num) - 1

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_zero(self) -> bool:
        return not self.num

    def leading(self) -> Fraction:
        if not self.num:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._at(self.num[-1])

    def coefficient(self, k: int) -> Fraction:
        return self._at(self.num[k]) if 0 <= k < len(self.num) else _ZERO

    def _plus(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other, for sign 1 or -1."""
        a, b = self.num, other.num
        if _nested(a) != _nested(b):
            a, b = _nest(a), _nest(b)
        da, db = self.den, other.den
        den = da if da == db else lcm(da, db)
        ca, cb = den // da, sign * (den // db)
        if ca != 1:
            a = [x * ca for x in a]
        if cb != 1:
            b = [y * cb for y in b]
        if len(a) < len(b):
            a, b = b, a
        out = [x + y for x, y in zip(a, b)]
        out += a[len(b):]
        return Poly._make(out, den)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        elif not isinstance(other, Poly):
            return NotImplemented  # a series adds a Poly itself
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Poly._reduced(tuple(-x for x in self.num), self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        elif not isinstance(other, Poly):
            return NotImplemented
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def _scale(self, p: int, q: int) -> "Poly":
        """self * p/q for a reduced p/q with q > 0; the result needs no
        gcd over all numerators, since both self and p/q are reduced."""
        num, den = self.num, self.den
        if not p or not num:
            return _PZERO
        g = gcd(p, den)
        if g != 1:
            p //= g
            den //= g
        if q != 1:
            h = gcd(q, _content(num))
            if h != 1:
                q //= h
                num = _divide(num, h)
            den *= q
        if p != 1:
            num = tuple(x * p for x in num)
        return Poly._reduced(num, den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(other.numerator, other.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.num, other.num
        if not a or not b:
            return _PZERO
        out = _conv(a, b, len(a) + len(b) - 2)
        if _nested(a) or _nested(b):  # no term landed on an int zero
            out = [x if type(x) is Poly else _PZERO for x in out]
        return Poly._make(out, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = _as_fraction(other)
        if not c:
            raise ZeroDivisionError("Poly division by zero")
        p, q = c.numerator, c.denominator
        return self._scale(q, p) if p > 0 else self._scale(-q, -p)

    def __rtruediv__(self, other):
        return Poly.const(other / self.constant_value())

    def constant_value(self) -> Fraction:
        if len(self.num) > 1:
            raise ValueError("only degree-0 polynomials are invertible")
        return self.coefficient(0)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        elif not isinstance(other, Poly):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        # a constant equals its rational value, so it must hash like it
        if len(self.num) <= 1:
            return hash(self.coefficient(0))
        return hash((self.num, self.den))

    def mul_x(self, k: int = 1) -> "Poly":
        if k < 0:
            raise ValueError(f"mul_x needs a count >= 0, not {k}")
        if not k or not self.num:
            return self
        zero = _PZERO if _nested(self.num) else 0
        return Poly._reduced((zero,) * k + self.num, self.den)

    def derive(self, n: int = 1) -> "Poly":
        """The n-th derivative: numerator k is (k+n)!/k! num[k+n]."""
        if n < 0:
            raise ValueError(f"derive needs a count >= 0, not {n}")
        num = self.num
        if not n:
            return self
        out = []
        f = factorial(n)  # (k+n)!/k!
        for k in range(len(num) - n):
            out.append(f * num[k + n])
            f = f * (k + n + 1) // (k + 1)
        return Poly._make(out, self.den)

    def eval(self, x0):
        """Value at x0: a rational, or a Poly to substitute.

        At x0 = p/q, integer Horner sums num[j] p^j q^(deg - j) over
        den q^deg; at a Poly, Horner on the coefficients.
        """
        num = self.num
        if not num:
            return _ZERO * x0
        if isinstance(x0, (int, Fraction)):
            p, q = x0.numerator, x0.denominator
            acc, up = 0, 1  # up = q ** (deg - j)
            for c in reversed(num):
                acc = acc * p + c * up
                up *= q
            den = self.den * (up // q)
            return Fraction(acc, den) if type(acc) is int else acc / den
        acc = _ZERO * x0
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return acc

    def taylor(self) -> "Poly":
        """p(x + y) in Q[x][y]: the y^j coefficient is p^{(j)}(x)/j!, with
        numerators C(i+j, j) num[i+j] over den."""
        num = self.num
        n = len(num)
        rows = tuple(
            Poly._reduced(tuple(comb(i + j, j) * num[i + j] for i in range(n - j)), 1)
            for j in range(n)
        )
        return Poly._reduced(rows, self.den)

    def __repr__(self):
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        bits = []
        for i in range(len(coeffs) - 1, -1, -1):
            c = coeffs[i]
            if not c:
                continue
            mono = "" if i == 0 else ("a" if i == 1 else f"a^{i}")
            if not mono:
                bits.append(f"{c}")
            elif c == 1:
                bits.append(mono)
            elif c == -1:
                bits.append(f"-{mono}")
            else:
                bits.append(f"{c}*{mono}")
        return " + ".join(bits).replace("+ -", "- ")


_PZERO = Poly._reduced((), 1)


def divided_difference(g: Poly) -> Poly:
    """(x*g(x) - p*g(p)) / (x - p) in Q[x][p], exact over Fraction.

    Its p^k coefficient is the tail sum_{j >= k} g_j x^{j-k}: the numerators
    g.num[k:] over g.den.  This is the rational action of the resolvent of
    the 0-derivative at shift parameter p on the polynomial g.
    """
    num = g.num
    return Poly._reduced(tuple(Poly._reduced(num[k:], 1) for k in range(len(num))), g.den)

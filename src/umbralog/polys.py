"""Dense exact polynomials.

``Poly`` is the workhorse for genuine polynomial data (binomial-type and
Sheffer sequences, direct ratio oracles).  Unlike truncated power series it
has no order bookkeeping: what you see is the whole polynomial.  Its
coefficients may themselves be ``Poly`` objects, so polynomials in two
variables live in Q[x][y]: ``taylor`` and ``divided_difference`` build them.
"""

from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)


def _trim(coeffs):
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


class Poly:
    """Univariate polynomial, ascending coefficients; the coefficients are
    Fractions, or Polys for a polynomial in two variables."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = _trim([Fraction(c) if isinstance(c, int) else c for c in coeffs])

    @staticmethod
    def const(x) -> "Poly":
        return Poly([Fraction(x) if isinstance(x, int) else x])

    @staticmethod
    def x() -> "Poly":
        return Poly([_ZERO, Fraction(1)])

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else _ZERO

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        elif not isinstance(other, Poly):
            return NotImplemented  # a series adds a Poly itself
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            [self.coefficient(i) + other.coefficient(i) for i in range(n)]
        )

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return Poly([c / other for c in self.coeffs])

    def __rtruediv__(self, other):
        return Poly.const(other / self.constant_value())

    def constant_value(self) -> Fraction:
        if self.degree() > 0:
            raise ValueError("only degree-0 polynomials are invertible")
        return self.coefficient(0)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a constant equals its rational value, so it must hash like it
        if self.degree() <= 0:
            return hash(self.coefficient(0))
        return hash(self.coeffs)

    def mul_x(self, k: int = 1) -> "Poly":
        if self.is_zero():
            return self
        return Poly((_ZERO,) * k + self.coeffs)

    def derive(self, n: int = 1) -> "Poly":
        out = self
        for _ in range(n):
            out = Poly([i * c for i, c in enumerate(out.coeffs)][1:])
        return out

    def eval(self, x0):
        """Value at x0 (a rational, or a Poly to substitute)."""
        acc = _ZERO * x0
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return acc

    def taylor(self) -> "Poly":
        """p(x + y) in Q[x][y]: the y^j coefficient is p^{(j)}(x)/j!."""
        out = []
        d = self
        for j in range(1, len(self.coeffs) + 1):
            out.append(d)
            d = d.derive() / j
        return Poly(out)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
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


def divided_difference(g: Poly) -> Poly:
    """(x*g(x) - p*g(p)) / (x - p) in Q[x][p], exact over Fraction.

    Its p^k coefficient is the tail sum_{j >= k} g_j x^{j-k}.  This is the
    rational action of the resolvent of the 0-derivative at shift parameter
    p on the polynomial g.
    """
    return Poly([Poly(g.coeffs[k:]) for k in range(len(g.coeffs))])

"""Dense exact polynomials: univariate (in alpha) and bivariate helpers.

``Poly`` is the workhorse for genuine polynomial data (binomial-type and
Sheffer sequences, direct ratio oracles).  Unlike truncated power series it
has no order bookkeeping: what you see is the whole polynomial.
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
    """Univariate polynomial over Fraction, ascending coefficients."""

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
        if self.degree() != 0:
            raise ValueError("only degree-0 polynomials are invertible")
        return Poly.const(other / self.coeffs[0])

    def __pow__(self, n: int):
        out = Poly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

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

    def derive(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def eval(self, x0) -> Fraction:
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return acc

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


class BiPoly:
    """Polynomial in two commuting variables (x, p) over Fraction."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @staticmethod
    def const(c) -> "BiPoly":
        c = Fraction(c) if isinstance(c, int) else c
        return BiPoly({(0, 0): c}) if c else BiPoly()

    @staticmethod
    def monomial(i: int, j: int, c=Fraction(1)) -> "BiPoly":
        return BiPoly({(i, j): c})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            w = out.get(k, _ZERO) + v
            if w:
                out[k] = w
            else:
                out.pop(k, None)
        return BiPoly(out)

    def __neg__(self):
        return BiPoly({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return BiPoly({k: v * other for k, v in self.terms.items()})
        out: dict = {}
        for (i1, j1), v1 in self.terms.items():
            for (i2, j2), v2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                w = out.get(k, _ZERO) + v1 * v2
                if w:
                    out[k] = w
                else:
                    out.pop(k, None)
        return BiPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, BiPoly) and self.terms == other.terms

    def d_dp(self, n: int = 1) -> "BiPoly":
        out = self
        for _ in range(n):
            out = BiPoly(
                {(i, j - 1): v * j for (i, j), v in out.terms.items() if j}
            )
        return out

    def shift_x_by_p(self) -> "BiPoly":
        """x -> x + p (the shift operator exp(p d/dx))."""
        from math import comb

        out: dict = {}
        for (i, j), v in self.terms.items():
            for k in range(i + 1):
                key = (k, j + i - k)
                w = out.get(key, _ZERO) + v * comb(i, k)
                if w:
                    out[key] = w
                else:
                    out.pop(key, None)
        return BiPoly(out)

    def at_x0(self) -> "Poly":
        """Set x = 0; the result is a polynomial in p."""
        out: dict = {}
        for (i, j), v in self.terms.items():
            if i == 0:
                out[j] = out.get(j, _ZERO) + v
        n = max(out) + 1 if out else 0
        return Poly([out.get(k, _ZERO) for k in range(n)])

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (i, j) in sorted(self.terms):
            v = self.terms[(i, j)]
            mono = "".join(
                [
                    f"x^{i}" if i > 1 else ("x" if i else ""),
                    f"p^{j}" if j > 1 else ("p" if j else ""),
                ]
            )
            bits.append(f"{v}{'*' + mono if mono else ''}")
        return " + ".join(bits)


def divided_difference(g: Poly) -> BiPoly:
    """(x*g(x) - p*g(p)) / (x - p), exact over Fraction.

    This is the rational action of the resolvent of the 0-derivative at
    shift parameter p on the polynomial g.
    """
    out: dict = {}
    for j, c in enumerate(g.coeffs):
        if not c:
            continue
        # (x^{j+1} - p^{j+1})/(x - p) = sum_i x^i p^{j-i}
        for i in range(j + 1):
            key = (i, j - i)
            out[key] = out.get(key, _ZERO) + c
    return BiPoly(out)

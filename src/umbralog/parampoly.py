"""Exact polynomials in the fixed parameter symbols ``s``, ``H``, ``L``.

Coefficient domain for symbolic expansions: every coefficient is a
``fractions.Fraction`` and the symbol set is fixed, so terms are keyed by a
dense multi-degree tuple ``(deg_s, deg_H, deg_L)``.  ``L`` stands for
ln(alpha) in asymptotic alpha-expansions.  Adding a symbol is a code-level
change by design.

Products of two polynomials, and evaluation at rational points, run on
integer numerators over one common denominator and return the same
rationals as the term-by-term ``Fraction`` loops.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

SYMBOLS = ("s", "H", "L")

_ZERO = Fraction(0)
_CONST_KEY = (0, 0, 0)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected a rational, got {type(x).__name__}")


def _lift(coeffs) -> tuple:
    """Integer numerators over the lcm of the denominators of ``coeffs``."""
    den = lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


class ParamPoly:
    """Polynomial in s, H, L with Fraction coefficients, no stored zeros."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms:
            self.terms = {k: v for k, v in terms.items() if v}
        else:
            self.terms = {}

    @staticmethod
    def _make(terms: dict) -> "ParamPoly":
        """Wrap a dict the caller guarantees holds no zero values."""
        p = object.__new__(ParamPoly)
        p.terms = terms
        return p

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(x) -> "ParamPoly":
        x = _as_fraction(x)
        return ParamPoly({_CONST_KEY: x}) if x else ParamPoly()

    @staticmethod
    def symbol(name: str) -> "ParamPoly":
        i = SYMBOLS.index(name)
        key = tuple(1 if j == i else 0 for j in range(3))
        return ParamPoly({key: Fraction(1)})

    @staticmethod
    def coerce(x) -> "ParamPoly":
        if isinstance(x, ParamPoly):
            return x
        return ParamPoly.const(x)

    # -- predicates ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(k == _CONST_KEY for k in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self!r}")
        return self.terms.get(_CONST_KEY, _ZERO)

    def degree(self, name: str) -> int:
        """Degree in one symbol; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        i = SYMBOLS.index(name)
        return max(k[i] for k in self.terms)

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        other = ParamPoly.coerce(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            w = out.get(k, _ZERO) + v
            if w:
                out[k] = w
            else:
                out.pop(k, None)
        return ParamPoly._make(out)

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-ParamPoly.coerce(other))

    def __rsub__(self, other):
        return (-self) + ParamPoly.coerce(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if not c:
                return ParamPoly()
            return ParamPoly._make({k: v * c for k, v in self.terms.items()})
        if not isinstance(other, ParamPoly):
            return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return ParamPoly()
        na, da = _lift(a.values())
        nb, db = _lift(b.values())
        nb = list(zip(b, nb))
        out: dict = {}
        get = out.get
        for (i, j, l), x in zip(a, na):
            for (i2, j2, l2), y in nb:
                k = (i + i2, j + j2, l + l2)
                out[k] = get(k, 0) + x * y
        den = da * db
        return ParamPoly._make({k: Fraction(c, den) for k, c in out.items() if c})

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = _as_fraction(other)
        return ParamPoly({k: v / c for k, v in self.terms.items()})

    def __rtruediv__(self, other):
        return ParamPoly.const(_as_fraction(other) / self.constant_value())

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a ParamPoly")
        out = ParamPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ParamPoly.const(other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a constant equals its rational value, so it must hash like it
        if self.is_constant():
            return hash(self.constant_value())
        return hash(frozenset(self.terms.items()))

    # -- substitution / evaluation --------------------------------------

    def eval(self, **values) -> Fraction:
        """Evaluate with rational values for every symbol that occurs."""
        vals = [
            _as_fraction(values[n]) if n in values else None for n in SYMBOLS
        ]
        if not self.terms:
            return _ZERO
        nums, den = _lift(self.terms.values())
        # x_i = p_i / q_i; scale every term by q_i^maxdeg_i so that
        # p_i^d q_i^(maxdeg_i - d) are integers
        tables = []
        for i, x in enumerate(vals):
            top = max(k[i] for k in self.terms)
            if not top:
                tables.append((1,))
                continue
            if x is None:
                raise ValueError(f"no value given for {SYMBOLS[i]}")
            p, q = x.numerator, x.denominator
            tables.append([p**d * q ** (top - d) for d in range(top + 1)])
            den *= q**top
        t0, t1, t2 = tables
        acc = 0
        for (i, j, l), c in zip(self.terms, nums):
            acc += c * t0[i] * t1[j] * t2[l]
        return Fraction(acc, den)

    def derive(self, name: str) -> "ParamPoly":
        """Partial derivative with respect to one symbol."""
        i = SYMBOLS.index(name)
        out = {}
        for k, v in self.terms.items():
            if k[i]:
                key = tuple(k[j] - (1 if j == i else 0) for j in range(3))
                out[key] = out.get(key, _ZERO) + v * k[i]
        return ParamPoly(out)

    def div_exact_symbol(self, name: str) -> "ParamPoly":
        """Exact division by one symbol; errors if not divisible."""
        i = SYMBOLS.index(name)
        out = {}
        for k, v in self.terms.items():
            if k[i] == 0:
                raise ValueError(f"{self!r} is not divisible by {name}")
            out[tuple(k[j] - (1 if j == i else 0) for j in range(3))] = v
        return ParamPoly(out)

    # -- misc ------------------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for k in sorted(self.terms, reverse=True):
            v = self.terms[k]
            mono = "*".join(
                f"{SYMBOLS[i]}" + (f"^{d}" if d > 1 else "")
                for i, d in enumerate(k)
                if d
            )
            if mono:
                lead = "" if v == 1 else ("-" if v == -1 else f"{v}*")
                bits.append(f"{lead}{mono}")
            else:
                bits.append(f"{v}")
        text = " + ".join(bits).replace("+ -", "- ")
        return text


def falling(base: ParamPoly, m: int) -> ParamPoly:
    """Falling product base*(base-1)*...*(base-m+1)."""
    out = ParamPoly.const(1)
    for j in range(m):
        out = out * (base - Fraction(j))
    return out


def binom_poly(base: ParamPoly, k: int) -> ParamPoly:
    """Binomial coefficient of a polynomial argument, expanded eagerly."""
    return falling(base, k) / Fraction(factorial(k))


S = ParamPoly.symbol("s")
H = ParamPoly.symbol("H")
L = ParamPoly.symbol("L")

"""Exact polynomials in the fixed parameter symbols ``s``, ``H``, ``L``.

Coefficient domain for symbolic expansions.  The symbol set is fixed, so
terms are keyed by a dense multi-degree tuple ``(deg_s, deg_H, deg_L)``.
``L`` stands for ln(alpha) in asymptotic alpha-expansions.  Adding a symbol
is a code-level change by design.

A polynomial is stored as integer numerators over one positive denominator,
in canonical form: the denominator and the numerators have gcd 1, and no
numerator is zero.  Every operation runs on integers and builds no
``Fraction`` per term; equal polynomials have equal numerators and
denominators.  ``terms`` shows the coefficients as ``Fraction`` values.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from numbers import Number

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


def _canonical(num: dict, den: int) -> tuple:
    """``num`` (no zero values) over ``den > 0``, divided by their gcd."""
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            return {k: v // g for k, v in num.items()}, den // g
    return num, den


def _convolve(a: dict, b: dict) -> dict:
    """The product of two numerator dicts, without its zero terms."""
    nb = list(b.items())
    out: dict = {}
    get = out.get
    for (i, j, l), x in a.items():
        for (i2, j2, l2), y in nb:
            k = (i + i2, j + j2, l + l2)
            out[k] = get(k, 0) + x * y
    return {k: c for k, c in out.items() if c}


def _shift(k: tuple, i: int) -> tuple:
    """The multi-degree ``k`` with one less in symbol ``i``."""
    return k[:i] + (k[i] - 1,) + k[i + 1:]


class ParamPoly:
    """Polynomial in s, H, L: ``num`` maps each multi-degree to a nonzero
    integer, all over the denominator ``den``, reduced as far as it goes."""

    __slots__ = ("num", "den")

    def __init__(self, terms=None):
        """From a dict of ``int`` or ``Fraction`` coefficients."""
        num, den = {}, 1
        if terms:
            nums, den = _lift([_as_fraction(v) for v in terms.values()])
            num = {k: n for k, n in zip(terms, nums) if n}
        self.num, self.den = _canonical(num, den)

    @staticmethod
    def _make(num: dict, den: int) -> "ParamPoly":
        """Reduce ``num`` (no zero values) over ``den > 0`` by their gcd."""
        return ParamPoly._reduced(*_canonical(num, den))

    @staticmethod
    def _reduced(num: dict, den: int) -> "ParamPoly":
        """Wrap a pair the caller guarantees is already canonical."""
        p = object.__new__(ParamPoly)
        p.num, p.den = num, den
        return p

    @property
    def terms(self) -> dict:
        """The coefficients, as a fresh ``{multi-degree: Fraction}`` dict."""
        den = self.den
        return {k: Fraction(v, den) for k, v in self.num.items()}

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(x) -> "ParamPoly":
        x = _as_fraction(x)
        if not x:
            return ParamPoly()
        return ParamPoly._reduced({_CONST_KEY: x.numerator}, x.denominator)

    @staticmethod
    def symbol(name: str) -> "ParamPoly":
        i = SYMBOLS.index(name)
        key = tuple(1 if j == i else 0 for j in range(3))
        return ParamPoly._reduced({key: 1}, 1)

    @staticmethod
    def coerce(x) -> "ParamPoly":
        if isinstance(x, ParamPoly):
            return x
        return ParamPoly.const(x)

    # -- predicates ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return all(k == _CONST_KEY for k in self.num)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self!r}")
        return Fraction(self.num.get(_CONST_KEY, 0), self.den)

    def degree(self, name: str) -> int:
        """Degree in one symbol; -1 for the zero polynomial."""
        if not self.num:
            return -1
        i = SYMBOLS.index(name)
        return max(k[i] for k in self.num)

    # -- ring operations -----------------------------------------------

    def _plus(self, other: "ParamPoly", sign: int) -> "ParamPoly":
        """self + sign * other, for sign 1 or -1."""
        da, db = self.den, other.den
        if da == db:
            out, cb = dict(self.num), sign
        else:
            den = lcm(da, db)
            ca, cb = den // da, sign * (den // db)
            out = {k: v * ca for k, v in self.num.items()}
            da = den
        get = out.get
        for k, v in other.num.items():
            w = get(k, 0) + v * cb
            if w:
                out[k] = w
            else:
                del out[k]
        return ParamPoly._make(out, da)

    def __add__(self, other):
        if not isinstance(other, (ParamPoly, Number)):
            return NotImplemented  # a series adds a ParamPoly itself
        return self._plus(ParamPoly.coerce(other), 1)

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly._reduced({k: -v for k, v in self.num.items()}, self.den)

    def __sub__(self, other):
        if not isinstance(other, (ParamPoly, Number)):
            return NotImplemented
        return self._plus(ParamPoly.coerce(other), -1)

    def __rsub__(self, other):
        return ParamPoly.coerce(other)._plus(self, -1)

    def _scale(self, p: int, q: int) -> "ParamPoly":
        """self * p/q for a reduced p/q with q > 0; the result needs no
        gcd over all numerators, since both self and p/q are reduced."""
        if not p:
            return ParamPoly()
        num, den = self.num, self.den
        g = gcd(p, den)
        if g != 1:
            p //= g
            den //= g
        if q != 1:
            h = gcd(q, *num.values())
            if h != 1:
                q //= h
                num = {k: v // h for k, v in num.items()}
            den *= q
        return ParamPoly._reduced({k: v * p for k, v in num.items()} if p != 1 else num, den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(other.numerator, other.denominator)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        if not self.num or not other.num:
            return ParamPoly()
        return ParamPoly._make(
            _convolve(self.num, other.num), self.den * other.den
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = _as_fraction(other)
        if not c:
            raise ZeroDivisionError("ParamPoly division by zero")
        if c.numerator < 0:
            return self._scale(-c.denominator, -c.numerator)
        return self._scale(c.denominator, c.numerator)

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
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        # a constant equals its rational value, so it must hash like it
        if self.is_constant():
            return hash(Fraction(self.num.get(_CONST_KEY, 0), self.den))
        return hash((frozenset(self.num.items()), self.den))

    # -- substitution / evaluation --------------------------------------

    def eval(self, **values) -> Fraction:
        """Evaluate with rational values for every symbol that occurs."""
        vals = [
            _as_fraction(values[n]) if n in values else None for n in SYMBOLS
        ]
        if not self.num:
            return _ZERO
        den = self.den
        # x_i = p_i / q_i; scale every term by q_i^maxdeg_i so that
        # p_i^d q_i^(maxdeg_i - d) are integers
        tables = []
        for i, x in enumerate(vals):
            top = max(k[i] for k in self.num)
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
        for (i, j, l), c in self.num.items():
            acc += c * t0[i] * t1[j] * t2[l]
        return Fraction(acc, den)

    def derive(self, name: str) -> "ParamPoly":
        """Partial derivative with respect to one symbol."""
        i = SYMBOLS.index(name)
        # distinct terms keep distinct multi-degrees, so nothing cancels
        out = {_shift(k, i): v * k[i] for k, v in self.num.items() if k[i]}
        return ParamPoly._make(out, self.den)

    # -- misc ------------------------------------------------------------

    def __repr__(self):
        if not self.num:
            return "0"
        terms = self.terms
        bits = []
        for k in sorted(terms, reverse=True):
            v = terms[k]
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


def lifted_values(polys, den: int, e) -> tuple:
    """The values P(e) / den of integer polynomials P in one variable, given
    as coefficient lists (lowest degree first), as integral elements over one
    denominator: (elements, den q^top) for e = p/q and top the largest degree.

    An ``int`` or ``Fraction`` e gives ``int`` elements by integer Horner,
    sum_j P_j p^j q^(top - j); a ``ParamPoly`` e = E/q gives ``ParamPoly``s
    over 1, the same sums with the numerator dicts of the powers of E.  A
    monomial E's powers are single terms, built from its multi-degree.
    """
    top = max(map(len, polys)) - 1
    out = []
    if isinstance(e, ParamPoly) and len(e.num) == 1 and _CONST_KEY not in e.num:
        # a monomial c m / q: P_j e^j is the one term P_j c^j q^(top - j) m^j
        [(key, c)] = e.num.items()
        q = e.den
        terms = [(tuple(j * d for d in key), c**j * q ** (top - j)) for j in range(top + 1)]
        for poly in polys:
            out.append(ParamPoly._reduced({k: x * w for (k, w), x in zip(terms, poly) if x}, 1))
        return out, den * q**top
    if isinstance(e, ParamPoly):
        q = e.den
        powers = [{_CONST_KEY: 1}]
        for _ in range(top):
            powers.append(_convolve(powers[-1], e.num))
        for poly in polys:
            acc: dict = {}
            get = acc.get
            up = q ** (top + 1 - len(poly))  # q ** (top - j)
            for j in range(len(poly) - 1, -1, -1):
                c = poly[j] * up
                if c:
                    for k, v in powers[j].items():
                        acc[k] = get(k, 0) + c * v
                up *= q
            out.append(ParamPoly._reduced({k: v for k, v in acc.items() if v}, 1))
        return out, den * q**top
    p, q = e.numerator, e.denominator
    for poly in polys:
        acc, up = 0, q ** (top + 1 - len(poly))
        for c in reversed(poly):
            acc = acc * p + c * up
            up *= q
        out.append(acc)
    return out, den * q**top


def binom_poly(base: ParamPoly, k: int) -> ParamPoly:
    """Binomial coefficient of a polynomial argument, expanded eagerly."""
    out = ParamPoly.const(1)
    for j in range(k):
        out = out * (base - Fraction(j))
    return out / Fraction(factorial(k))


S = ParamPoly.symbol("s")
H = ParamPoly.symbol("H")
L = ParamPoly.symbol("L")

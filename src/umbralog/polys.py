"""Dense exact polynomials, and the dense integer-vector core that they and
``series.PowerSeries`` run on.

``Poly`` is the workhorse for genuine polynomial data (binomial-type and
Sheffer sequences, direct ratio oracles).  Unlike truncated power series it
has no order bookkeeping: what you see is the whole polynomial.

A polynomial is stored as a series is: a trimmed tuple of integral elements
``num``, lowest degree first, over one positive denominator ``den``,
divided by their content (content and primitive part: Geddes, Czapor and
Labahn, *Algorithms for Computer Algebra*, 1992, ch. 2).  So the last
element is nonzero, and equal polynomials have equal ``num`` and ``den``.
Every operation runs on integers and builds no ``Fraction`` per term;
``coeffs`` builds the coefficients when read.

Polynomials in two variables live in Q[x][y]: ``taylor`` and
``divided_difference`` build them.  There the elements are integral
``Poly`` objects in the inner variable, and the content is the gcd of all
their integers.  ``Poly`` stops there: a coefficient in Q[x][y], of a
``Poly`` or a series, and ``taylor`` or ``divided_difference`` of one, is a
``TypeError``.

The core: one lift per element type (``_Lift``: ``_INTS``, and
``_elements`` for polynomials over 1, such as ``_POLYS``), the canonical
form ``_primitive``, the product ``_conv``, and ``_sum_vec``,
``_scale_vec``, ``_derive_vec`` and the integer Horner ``_eval_vec``.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import repeat
from math import comb, gcd, lcm, perm
from operator import mul

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


# -- one lift per element type ----------------------------------------------------
#
# ``lift`` writes coefficients as integral elements over one positive
# denominator; ``at`` is one coefficient, from its element and the
# denominator.  ``zero`` is the domain's zero coefficient and ``const`` turns
# an ``int`` into an element.  ``reduce`` divides a vector and its
# denominator by their integer content, ``reduce1`` one element and a
# denominator.  ``times`` multiplies each element of a stored vector by an
# integer, and takes the content from the elements' contents first, so each
# element is built once.  The kernels mix ``int`` entries (zeros, and a
# ``Fraction`` operand's elements) into the elements, and every other hook
# takes them as constants.
_Lift = namedtuple("_Lift", "lift at zero const reduce reduce1 times")


def _reduce_ints(vec: list, den: int) -> tuple:
    g = gcd(den, *vec) if den != 1 else 1
    return (vec, den) if g == 1 else ([x // g for x in vec], den // g)


def _reduce1_ints(x: int, den: int) -> tuple:
    g = gcd(x, den)
    return x // g, den // g


def _lift_elements(coeffs) -> tuple:
    """Coefficients that have a ``den`` as integral ones of their own type
    over the lcm of their denominators; as they are if that is 1."""
    d = lcm(*[c.den for c in coeffs])
    return ([c * d for c in coeffs] if d != 1 else coeffs), d


def _elements(domain, content, scaled) -> _Lift:
    """The lift of ``domain`` to elements of its own type over 1, for the
    gcd content(g, x) of g and the integers of an element x, and the element
    scaled(x, m, g) = x m / g for integers m != 0 and g that divides m times
    the content of x."""

    def at(x, d):
        return domain._make(x.num, d)

    zero = domain.const(0)

    def const(x):
        return domain.const(x) if x else zero

    def common(g, x):
        return gcd(g, x) if type(x) is int else content(g, x)

    def div(x, g):
        return x // g if type(x) is int else scaled(x, 1, g)

    def reduce(vec, d):
        g = d
        for x in vec:
            if g == 1:
                break
            g = common(g, x)
        return (vec, d) if g == 1 else ([div(x, g) for x in vec], d // g)

    def reduce1(x, d):
        g = common(d, x)
        return (x, d) if g == 1 else (div(x, g), d // g)

    def times(vec, ms, d):
        g = d  # gcd(g, m c) = gcd(g, m gcd(g, c)) for the content c of x
        for m, x in zip(ms, vec):
            if g == 1:
                break
            g = gcd(g, m * common(g, x))
        return [scaled(x, m, g) if m else zero for m, x in zip(ms, vec)], d // g

    return _Lift(_lift_elements, at, zero, const, reduce, reduce1, times)


_INTS = _Lift(
    _lift,
    Fraction,
    _ZERO,
    int,
    _reduce_ints,
    _reduce1_ints,
    lambda vec, ms, d: _reduce_ints(list(map(mul, ms, vec)), d),
)


def _primitive(vec, den: int, dom: _Lift) -> tuple:
    """The canonical form of vec / den, for elements (and ``int``s) of the
    lift dom over a positive den: a tuple divided by its content, with an
    ``int`` beside elements as a constant element."""
    if den != 1:
        vec, den = dom.reduce(vec, den)
    if dom is not _INTS and int in map(type, vec):
        const = dom.const
        vec = [const(x) if type(x) is int else x for x in vec]
    return tuple(vec), den


def _sum_vec(a, da: int, b, db: int) -> tuple:
    """a / da + b / db over lcm(da, db), the longer vector's tail as it is;
    not reduced."""
    den = da if da == db else lcm(da, db)
    if den != da:
        a = list(map(mul, a, repeat(den // da)))
    if den != db:
        b = list(map(mul, b, repeat(den // db)))
    if len(a) < len(b):
        a, b = b, a
    out = [x + y for x, y in zip(a, b)]
    out += a[len(b):]
    return out, den


def _scale_vec(vec, den: int, p: int, q: int, dom: _Lift) -> tuple:
    """The canonical vec / den times p / q, for a reduced p / q with q > 0.

    Both are reduced, so the content is gcd(p, den) gcd(q, content of vec):
    two gcds before one multiplication, and none over the products."""
    g = gcd(p, den)
    if q != 1:
        vec, q = dom.reduce(vec, q)
    if p != g:
        vec = list(map(mul, vec, repeat(p // g)))
    return tuple(vec), den // g * q


def _derive_vec(vec, n: int, den: int, dom: _Lift) -> tuple:
    """The n-th derivative of vec / den, canonical: element k is
    (k+n)!/k! vec[k + n]."""
    size = len(vec) - n
    ms = range(1, size + 1) if n == 1 else [perm(k + n, n) for k in range(size)]
    vec, den = dom.times(vec[n:], ms, den)
    return tuple(vec), den


def _eval_vec(vec, den: int, x0):
    """The polynomial vec / den at the rational x0 = p/q: integer Horner
    sums vec[j] p^j q^(N - j) over den q^N."""
    p, q = x0.numerator, x0.denominator
    acc, up = 0, 1  # up = q ** (N - j)
    for c in reversed(vec):
        acc = acc * p + c * up
        up *= q
    return Fraction(acc * q, den * up) if type(acc) is int else acc * q / (den * up)


class Poly:
    """Univariate polynomial: integral elements ``num``, lowest degree first,
    over the positive denominator ``den``, reduced as far as it goes.  The
    elements are ints, or integral Polys in one variable for a polynomial in
    two."""

    __slots__ = ("num", "den")

    def __init__(self, coeffs=()):
        """From ``int`` and ``Fraction`` coefficients, or over ``Poly`` in one
        variable (an ``int`` or ``Fraction`` beside a ``Poly`` is a constant
        one)."""
        coeffs = list(coeffs)
        if any(isinstance(c, Poly) for c in coeffs):
            dom, coeffs = _POLYS, [c if isinstance(c, Poly) else Poly.const(c) for c in coeffs]
        else:
            dom, coeffs = _INTS, [_as_fraction(c) for c in coeffs]
        p = Poly._make(*dom.lift(coeffs), dom)
        self.num, self.den = p.num, p.den

    @staticmethod
    def _make(num, den: int, dom: _Lift = _INTS) -> "Poly":
        """Trim ``num`` over ``den > 0``, elements of dom, to canonical form."""
        n = len(num)
        while n and not num[n - 1]:
            n -= 1
        return Poly._reduced(*_primitive(num[:n], den, dom))

    @staticmethod
    def _reduced(num: tuple, den: int) -> "Poly":
        """Wrap a pair the caller guarantees is already canonical."""
        p = object.__new__(Poly)
        p.num, p.den = num, den
        return p

    @property
    def coeffs(self) -> tuple:
        """The coefficients, as ``Fraction``s (or ``Poly``s in Q[x][y])."""
        return tuple(map(_kind(self).at, self.num, repeat(self.den)))

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
        return self.coefficient(len(self.num) - 1)

    def coefficient(self, k: int) -> Fraction:
        return _kind(self).at(self.num[k], self.den) if 0 <= k < len(self.num) else _ZERO

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        elif not isinstance(other, Poly):
            return NotImplemented  # a series adds a Poly itself
        return Poly._make(*_sum_vec(self.num, self.den, other.num, other.den), _kind(self, other))

    __radd__ = __add__

    def __neg__(self):
        return Poly._reduced(tuple(-x for x in self.num), self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _scale(self, p: int, q: int) -> "Poly":
        """self * p/q for a reduced p/q with q > 0."""
        if not p or not self.num:
            return _PZERO
        return Poly._reduced(*_scale_vec(self.num, self.den, p, q, _kind(self)))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(other.numerator, other.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.num, other.num
        if not a or not b:
            return _PZERO
        out = _conv(a, b, len(a) + len(b) - 2)
        return Poly._make(out, self.den * other.den, _kind(self, other))

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
        return Poly._reduced((_kind(self).const(0),) * k + self.num, self.den)

    def derive(self, n: int = 1) -> "Poly":
        """The n-th derivative (``_derive_vec``)."""
        if n < 0:
            raise ValueError(f"derive needs a count >= 0, not {n}")
        if not n:
            return self
        return Poly._reduced(*_derive_vec(self.num, n, self.den, _kind(self)))

    def eval(self, x0):
        """Value at x0: a rational (``_eval_vec``), or a Poly to substitute
        by Horner on the coefficients."""
        if isinstance(x0, (int, Fraction)):
            return _eval_vec(self.num, self.den, x0)
        acc = _ZERO * x0
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return acc

    def taylor(self) -> "Poly":
        """p(x + y) in Q[x][y]: the y^j coefficient is p^{(j)}(x)/j!, with
        numerators C(i+j, j) num[i+j] over den."""
        _need_flat("taylor() of a Poly", self)
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


def _kind(p: Poly, q: Poly = _PZERO) -> _Lift:
    """``_POLYS`` if p or q is in Q[x][y], else ``_INTS``."""
    if p.num and type(p.num[0]) is Poly or q.num and type(q.num[0]) is Poly:
        return _POLYS
    return _INTS


def _need_flat(what: str, *polys) -> None:
    """Reject a polynomial in Q[x][y] where one in one variable is due."""
    if Poly in {type(p.num[0]) for p in polys if p.num}:
        raise TypeError(f"{what} in Q[x][y] would be in Q[x][y][z]; Poly stops at Q[x][y]")


def _lift_flat(coeffs) -> tuple:
    """``_lift_elements`` for Polys in one variable only: the lift of
    ``_POLYS``, whose elements' content then needs no recursion."""
    _need_flat("a coefficient", *coeffs)
    return _lift_elements(coeffs)


_POLYS = _elements(
    Poly,
    lambda g, x: gcd(g, *x.num),
    lambda x, m, g: Poly._reduced(tuple(v * m // g for v in x.num), 1),
)._replace(lift=_lift_flat)


def divided_difference(g: Poly) -> Poly:
    """(x*g(x) - p*g(p)) / (x - p) in Q[x][p], exact over Fraction.

    Its p^k coefficient is the tail sum_{j >= k} g_j x^{j-k}: the numerators
    g.num[k:] over g.den.  This is the rational action of the resolvent of
    the 0-derivative at shift parameter p on the polynomial g.
    """
    _need_flat("divided_difference of a Poly", g)
    num = g.num
    return Poly._reduced(tuple(Poly._reduced(num[k:], 1) for k in range(len(num))), g.den)

"""Exact truncated power series over pluggable coefficient domains.

A series carries the name of its variable, its coefficients ``c_0..c_N`` and
(implicitly) its truncation order ``N``.  Every operation returns a result
truncated to the order it can guarantee exactly; reading a coefficient past
that order raises ``OrderError`` instead of silently producing zero.

A series is stored as its lift: a tuple ``num`` of integral elements over
one positive denominator ``den``, divided by their content (content and
primitive part: Geddes, Czapor and Labahn, *Algorithms for Computer
Algebra*, 1992, ch. 2), so c_k = num[k] / den, and equal series have equal
``num`` and ``den``.  Coefficient domains: ``fractions.Fraction``, whose
elements are plain ``int``s, and ``ParamPoly`` and ``Poly``, whose elements
are ``ParamPoly``s and ``Poly``s over 1.  The elements all have one type,
the only record of the domain (``_DOMAINS``).  The constructor lifts its
coefficients once: it turns ``int`` into ``Fraction``, lifts a mixed list to
the widest domain in it, and rejects a number that is not rational (a
``float``, ``complex`` or ``Decimal``).  ``coeffs`` and ``coefficient``
build coefficients when read, and ``czero`` is the domain's zero.  So
mixing two domains keeps the wider one, and ``_need_fraction`` is the one
check that rejects a series outside ``Fraction``.

Every operation reads and writes the lift, and divides a result by its
content once (``_series``).  ``+``, ``scale``, ``derive`` and
``integrate`` rescale numerators; ``derive`` and ``scale`` by a rational
find the content from the elements' contents before they build any element
(``_Lift.times``).  ``*``, ``/`` (so ``inv`` and ``log``),
``compose``, ``revert`` and ``exp`` run one kernel for every domain
(``_conv``, ``_div_rational``, ``_horner``, ``_revert``, ``_exp_rational``),
which uses only ring operations on elements, so two domains' lifts mix
(``int`` times ``ParamPoly`` is its ``_scale``).  The term-by-term loops
it replaced are the oracles in ``tests/oracles.py``.  Its schoolbook
product ``_conv`` is ``polys._conv``, the loop of ``Poly``'s own product.

Miller's power recurrence (``_power_polys``) runs on integer polynomials in
the exponent, with coefficients that are integer vectors in a second
variable t: ``pow_param`` is its t-free caller over ``Fraction`` (other
domains take exp(e log g)), and ``umbral.q_table`` and the symbolic
continuation of ``umbral``/``sheffer`` read its polynomials directly.

Lifted entries, a dict of integer vectors over one denominator, are the
shape ``operators.apply_Tn`` (keyed by derivative order) and the graded
inversion of ``grading`` and ``conjugation`` (keyed by alpha grade) share:
``_lift_terms`` rescales series to an entry, ``_derive`` differentiates one
vector, ``_combine`` sums entries over the lcm of their denominators,
``_lmul`` multiplies by a lifted series, ``_reduce`` divides out a common
gcd, and ``_to_series`` builds ``Fraction`` series once, at the end.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm, perm
from numbers import Number, Rational
from operator import mul

from .parampoly import ParamPoly, _lift, lifted_values
from .polys import Poly, _content, _conv, _divide


class SeriesError(ValueError):
    pass


class OrderError(SeriesError):
    """Raised when a computation would read past the guaranteed order."""


_QZERO = Fraction(0)
_QONE = Fraction(1)


def _widen(coeffs) -> tuple:
    """``coeffs`` in the widest of their domains, with ``int`` as ``Fraction``."""
    coeffs = [Fraction(c) if isinstance(c, int) else c for c in coeffs]
    zero = _QZERO
    for c in coeffs:  # the zero of the domain that holds zero's and c's
        zero = zero if type(zero) is type(c) else zero + c * 0
    return tuple(c if type(c) is type(zero) else zero + c for c in coeffs)


def _need_fraction(s, need: str) -> None:
    """Reject a series whose coefficients are not ``Fraction``."""
    domain = type(s.num[0])
    if domain is not int:
        raise SeriesError(f"{need} over Fraction coefficients, not {domain.__name__}")


def _need_count(k: int, name: str) -> None:
    """Reject a negative power of the variable or derivative order."""
    if k < 0:
        raise SeriesError(f"{name} needs a count >= 0, not {k}")


# -- one lift per coefficient domain ---------------------------------------------
#
# ``lift`` writes coefficients as integral elements over one positive
# denominator, and ``unlift`` inverts it; ``at`` is one coefficient, from its
# element and the denominator.  ``zero`` is the domain's zero coefficient and
# ``const`` turns an ``int`` into an element.  ``reduce`` divides a vector
# and its denominator by their integer content, ``reduce1`` one element and a
# denominator; ``value`` is the integer value of a constant element.
# ``times`` multiplies each element of a stored vector by an integer, and
# takes the content from the elements' contents first, so each element is
# built once.  The kernels mix ``int`` entries (zeros, and a ``Fraction``
# operand's elements) into the elements, and every other hook takes them as
# constants.
_Lift = namedtuple("_Lift", "lift unlift at zero const reduce reduce1 value times")


def _reduce_ints(vec: list, den: int) -> tuple:
    g = gcd(den, *vec)
    if g == 1:
        return vec, den
    return [x // g for x in vec], den // g


def _reduce1_ints(x: int, den: int) -> tuple:
    g = gcd(x, den)
    return x // g, den // g


def _elements(domain, content, scaled) -> _Lift:
    """The lift of ``domain`` to elements of its own type over 1, for the
    gcd content(g, x) of g and the integers of an element x, and the element
    scaled(x, m, g) = x m / g for integers m != 0 and g that divides m times
    the content of x."""

    def lift(coeffs):
        d = lcm(*[c.den for c in coeffs])
        return [c * d for c in coeffs], d

    def at(x, d):
        return domain._make(x.num, d)

    def unlift(vec, d):
        return tuple(at(x, d) for x in vec)

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
                return vec, d
            g = common(g, x)
        if g == 1:
            return vec, d
        return [div(x, g) for x in vec], d // g

    def reduce1(x, d):
        g = common(d, x)
        return (x, d) if g == 1 else (div(x, g), d // g)

    def value(x):
        return x if type(x) is int else int(x.constant_value())

    def times(vec, ms, d):
        g = d  # gcd(g, m c) = gcd(g, m gcd(g, c)) for the content c of x
        for m, x in zip(ms, vec):
            if g == 1:
                break
            g = gcd(g, m * common(g, x))
        return [scaled(x, m, g) if m else zero for m, x in zip(ms, vec)], d // g

    return _Lift(lift, unlift, at, zero, const, reduce, reduce1, value, times)


_INTS = _Lift(
    _lift,
    lambda v, d: tuple(Fraction(x, d) for x in v),
    Fraction,
    _QZERO,
    int,
    _reduce_ints,
    _reduce1_ints,
    int,
    lambda vec, ms, d: _reduce_ints(list(map(mul, ms, vec)), d),
)
_DOMAINS = {
    int: _INTS,
    Fraction: _INTS,
    ParamPoly: _elements(
        ParamPoly,
        lambda g, x: gcd(g, *x.num.values()),
        lambda x, m, g: ParamPoly._reduced({k: v * m // g for k, v in x.num.items()}, 1),
    ),
    Poly: _elements(
        Poly,
        lambda g, x: gcd(g, _content(x.num)),
        lambda x, m, g: Poly._reduced(_divide(x.num, g, m), 1),
    ),
}


def _unlifted(*args):
    raise SeriesError("no arithmetic over coefficients without a lift to integers")


# Coefficients of any other type (a series, say) are kept as they are, over
# 1: such a series can be built and read, and ``_need_fraction`` names its
# domain, but no operation that rescales or divides runs on it.
_UNLIFTED = _Lift(
    lambda coeffs: (coeffs, 1),
    lambda v, d: v,
    lambda x, d: x,
    None,
    _unlifted,
    _unlifted,
    _unlifted,
    _unlifted,
    _unlifted,
)


def _domain(s) -> _Lift:
    return _DOMAINS.get(type(s.num[0]), _UNLIFTED)


def _join(s, t) -> _Lift:
    """The lift of the domain that holds s's and t's (``Fraction`` widens)."""
    a, b = _domain(s), _domain(t)
    return b if a is _INTS else a


def _series(var: str, vec, den: int, dom: _Lift = _INTS) -> "PowerSeries":
    """The series vec / den in var, for elements (and ``int``s) of the
    domain dom over a positive den, divided by their content."""
    vec, den = dom.reduce(vec, den)
    if dom is not _INTS and int in map(type, vec):
        const = dom.const
        vec = [const(x) if type(x) is int else x for x in vec]
    return PowerSeries._of(var, tuple(vec), den)


# -- lifted entries ---------------------------------------------------------------
#
# An entry is a pair (terms, den): ``terms`` maps each key to the integer
# numerators of a series, all over the one positive denominator ``den``.
# ``operators.apply_Tn`` keys its entries by derivative order and
# ``grading.geometric_sum`` by alpha grade.  A series' truncation order is
# its length minus one, as in ``PowerSeries``.


def _lift_terms(terms: dict) -> tuple:
    """``Fraction`` series as integer numerators over one denominator."""
    den = lcm(*[s.den for s in terms.values()])
    return {j: [x * (den // s.den) for x in s.num] for j, s in terms.items()}, den


def _derive(c: list, error: str) -> list:
    if len(c) < 2:
        raise OrderError(error)
    return [k * c[k] for k in range(1, len(c))]


def _combine(parts) -> tuple:
    """The sum of entry / w over the (entry, w) pairs, for nonzero integers
    w, over the lcm of the entries' denominators times w.  Shared keys
    add, truncated to the shorter coefficient."""
    den = lcm(*[e[1] * w for e, w in parts])
    out: dict = {}
    for (terms, d), w in parts:
        up = den // (d * w)
        for j, c in terms.items():
            c = [up * y for y in c]
            out[j] = [a + b for a, b in zip(out[j], c)] if j in out else c
    return out, den


def _lmul(m: tuple, entry: tuple) -> tuple:
    """m∘y: every coefficient of y times the lifted series m."""
    mn, md = m
    terms, den = entry
    out = {j: _conv(c, mn, min(len(c), len(mn)) - 1) for j, c in terms.items()}
    return out, den * md


def _reduce(entry: tuple) -> tuple:
    """The entry divided through by the gcd of its numerators and denominator."""
    terms, den = entry
    g = gcd(den, *[y for c in terms.values() for y in c])
    if g == 1:
        return entry
    return {j: [y // g for y in c] for j, c in terms.items()}, den // g


def _to_series(var: str, entry: tuple) -> dict:
    """The entry's coefficients as ``Fraction`` series in var."""
    terms, den = entry
    return {j: _series(var, c, den) for j, c in terms.items()}


def _place(vec: list, den: int, i: int, num, d: int) -> tuple:
    """``vec`` over ``den``, whose entry i is 0, with num/d there instead,
    over lcm(den, d)."""
    common = lcm(den, d)
    if common != den:
        up = common // den
        vec = [x * up for x in vec]
    vec[i] = num * (common // d)
    return vec, common


def _horner(on, od: int, b, d: int, n: int, dom) -> tuple:
    """Horner evaluation of outer(inner) to order n on lifts, for the lifted
    outer = on / od and inner = b / d, in the joined domain dom; returns
    (elements, den).

    The accumulator is one integral vector over a single denominator, kept
    reduced.  ``inner`` has zero constant term, so ``outer[k]`` reaches the
    result only through ``inner**k``: terms past ``n`` are skipped, and after
    the step that adds ``outer[k]`` only the first ``n - k + 1`` coefficients
    of the accumulator are kept.
    """
    reduce = dom.reduce
    acc, den = [0], 1
    for k in range(n, -1, -1):
        acc = _conv(acc, b, n - k)
        acc, den = _place(acc, den * d, 0, on[k], od)
        acc, den = reduce(acc, den)
    return acc, den


def _ladder(n: int) -> list:
    """The Newton orders up to n, taken downward m <- ceil(m/2) from n, so
    each step from order k to m has k < m <= 2k: 36 gives 2, 3, 5, 9, 18, 36."""
    out = []
    while n > 1:
        out.append(n)
        n = (n + 1) // 2
    return out[::-1]


def _revert(un, ud: int, n: int, dom) -> tuple:
    """The inverse of u = un / ud (u_0 = 0, u_1 = 1) to order n on lifts in
    u's domain dom; returns (elements, den).

    v stays one reduced integral vector over one denominator.  Each step from
    order k to m is v <- v - x^(k+1) [(u(v) - x) / x^(k+1)] v', with the
    product truncated at m - k - 1: the correction and v's own coefficients
    do not overlap, so the new vector is v over the error's denominator with
    the negated correction appended.
    """
    v, den = [0, 1], 1
    for m in _ladder(n):
        k = len(v) - 1  # v is correct through order k
        err, e = _horner(un, ud, v, den, m, dom)
        err[1] -= e  # u(v) - x, of valuation k + 1
        if any(err[: k + 1]):
            raise SeriesError(
                f"internal check failed: reversion step {k} -> {m} starts from "
                f"a v that is not exact through order {k}"
            )
        dv = [j * v[j] for j in range(1, m - k + 1)]
        fix = _conv(err[k + 1 :], dv, m - k - 1)
        v, den = dom.reduce([y * e for y in v] + [-y for y in fix], den * e)
    return v, den


def _div_rational(an, da: int, bn, db: int, lead: int, dom) -> tuple:
    """The quotient a / b on lifts in the joined domain dom, for a = an / da
    and b = bn / db of one length whose lifted constant term bn[0] has the
    nonzero integer value lead; returns (elements, den).

    Runs q_k = (a_k - sum_{j<k} q_j b_{k-j}) / b_0 with the quotient so far
    as one integral vector over the lcm of its reduced denominators: each
    step takes one sum and one gcd, and rescales the vector only when the
    new coefficient's denominator does not divide the common one.
    """
    reduce1 = dom.reduce1
    if lead < 0:  # b = (-bn) / (-db): keep b_0's numerator positive
        bn, db, lead = [-y for y in bn], -db, -lead
    lead *= da
    b_tail = [(i, y) for i, y in enumerate(bn) if i and y]
    quo, den = [0] * len(an), 1
    for k in range(len(an)):
        s = 0
        for i, y in b_tail:
            if i > k:
                break
            s += quo[k - i] * y
        # q_k = (a_k - s / (den * db)) * db / b_0
        num, dk = reduce1(an[k] * (den * db) - s * da, lead * den)
        quo, den = _place(quo, den, k, num, dk)
    return quo, den


def _exp_rational(un, ud: int, dom) -> tuple:
    """exp(u) on lifts in u's domain dom, for u = un / ud with un[0] = 0;
    returns (elements, den).

    Runs n e_n = sum_{k=1..n} k u_k e_{n-k} as ``_div_rational`` runs its
    recurrence: the series so far is one integral vector over the lcm of its
    reduced denominators, so each step takes one sum and one gcd, and
    rescales the vector only when e_n brings a new denominator.
    """
    tail = [(k, k * y) for k, y in enumerate(un) if k and y]
    out, den = [1] + [0] * (len(un) - 1), 1
    for n in range(1, len(un)):
        s = 0
        for k, y in tail:
            if k > n:
                break
            s += out[n - k] * y
        # e_n = s / (den * ud) / n
        num, dn = dom.reduce1(s, n * ud * den)
        out, den = _place(out, den, n, num, dn)
    return out, den


def _power_polys(a, d: int) -> tuple:
    """Miller's recurrence for g^e with the exponent e kept as a variable,
    for the unit series g = sum_k a_k x^k / d whose coefficients a_k are
    integer t-vectors of one length T + 1 (a_0 = d, 0, ..., 0): series in t
    to order T, and for T = 0 plain rationals.

    Returns, for each n, the t-indexed integer coefficient lists W_n[j]
    (lowest degree in e first, degree n) and one denominator den with
    [x^n t^j] g^e = W_n[j](e) / den.  Each step is
    n d w_n = (e+1) sum_k k a_k w_{n-k} - n sum_k a_k w_{n-k}, with every
    product truncated in t at T: two integer sums, one gcd, and a rescale of
    the earlier W only when w_n's reduced denominator does not divide den.
    """
    width = len(a[0])
    tail = []
    for k in range(1, len(a)):
        entries = [(j, x) for j, x in enumerate(a[k]) if x]
        if entries:
            tail.append((k, entries))
    polys, den = [[[1]] + [[0]] * (width - 1)], 1
    for n in range(1, len(a)):
        weighted = [[0] * n for _ in range(width)]
        total = [[0] * n for _ in range(width)]
        for k, entries in tail:
            if k > n:
                break
            w = polys[n - k]
            for j, x in entries:
                kx = k * x
                for i in range(width - j):
                    wt, tt = weighted[i + j], total[i + j]
                    for m, c in enumerate(w[i]):
                        wt[m] += kx * c
                        tt[m] += x * c
        rows = []
        for wt, tt in zip(weighted, total):
            num = [0] * (n + 1)
            for m, c in enumerate(wt):
                num[m + 1] += c
                num[m] += c - n * tt[m]
            rows.append(num)
        dn = n * d * den
        h = gcd(dn, *[c for num in rows for c in num])
        dn //= h
        common = lcm(den, dn)
        if common != den:
            up = common // den
            polys = [[[c * up for c in p] for p in w] for w in polys]
            den = common
        up = common // dn
        polys.append([[c // h * up for c in num] for num in rows])
    return polys, den


class PowerSeries:
    __slots__ = ("var", "num", "den")

    def __init__(self, var: str, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise SeriesError("a series needs at least its constant term")
        domain, *others = {*map(type, coeffs)}
        if others or domain is not Fraction:
            for t in (domain, *others):
                if issubclass(t, Number) and not issubclass(t, Rational):
                    raise TypeError(f"expected a rational, got {t.__name__}")
            if others or issubclass(domain, int):
                coeffs = _widen(coeffs)
                domain = type(coeffs[0])
        num, den = _DOMAINS.get(domain, _UNLIFTED).lift(coeffs)
        self.var = var
        self.num = tuple(num)
        self.den = den

    @staticmethod
    def _of(var: str, num: tuple, den: int) -> "PowerSeries":
        """Wrap a lift the caller guarantees is already canonical."""
        s = object.__new__(PowerSeries)
        s.var, s.num, s.den = var, num, den
        return s

    @property
    def coeffs(self) -> tuple:
        """The coefficients, built when read."""
        return _domain(self).unlift(self.num, self.den)

    @property
    def czero(self):
        """The zero of the coefficients' domain."""
        zero = _domain(self).zero
        return self.num[0] * 0 if zero is None else zero

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(var: str, order: int, czero=_QZERO) -> "PowerSeries":
        return PowerSeries(var, (czero,) * (order + 1))

    @staticmethod
    def one(var: str, order: int, czero=_QZERO) -> "PowerSeries":
        return PowerSeries(var, (czero + 1,) + (czero,) * order)

    @staticmethod
    def identity(var: str, order: int, czero=_QZERO) -> "PowerSeries":
        if order < 1:
            raise SeriesError("identity needs order >= 1")
        return PowerSeries(var, (czero, czero + 1) + (czero,) * (order - 1))

    def zero_like(self) -> "PowerSeries":
        return PowerSeries.zero(self.var, self.order, self.czero)

    def one_like(self) -> "PowerSeries":
        return PowerSeries.one(self.var, self.order, self.czero)

    # -- basics -----------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.num) - 1

    def coefficient(self, k: int):
        if k < 0:
            raise SeriesError("negative coefficient index")
        if k > self.order:
            raise OrderError(
                f"coefficient {k} of a series in {self.var} only valid to "
                f"order {self.order}"
            )
        return _domain(self).at(self.num[k], self.den)

    def truncate(self, n: int) -> "PowerSeries":
        if n > self.order:
            raise OrderError(
                f"cannot extend a series of order {self.order} to {n}"
            )
        if n == self.order:
            return self
        return _series(self.var, self.num[: n + 1], self.den, _domain(self))

    def __bool__(self) -> bool:
        return any(self.num)

    def is_zero(self) -> bool:
        return not self

    def _check_var(self, other: "PowerSeries"):
        if self.var != other.var:
            raise SeriesError(
                f"variable mismatch: {self.var} vs {other.var}"
            )

    def __eq__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return (
            self.var == other.var
            and self.den == other.den
            and len(self.num) == len(other.num)
            and _same(self.num, other.num)
        )

    def __hash__(self):
        # an element of one domain equal to one of another (a constant, or a
        # zero) hashes like the int it equals, and equal series have equal
        # denominators
        return hash((self.var, self.den, self.num))

    def prefix_equal(self, other: "PowerSeries") -> bool:
        """Equality of the shared prefix of coefficients."""
        self._check_var(other)
        n = min(self.order, other.order) + 1
        a, b = self.num[:n], other.num[:n]
        if self.den != other.den:
            a, b = [x * other.den for x in a], [y * self.den for y in b]
        return _same(a, b)

    # -- linear structure ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PowerSeries):
            return self._add_scalar(other)
        self._check_var(other)
        n = min(self.order, other.order) + 1
        a, da, b, db = self.num[:n], self.den, other.num[:n], other.den
        den = da if da == db else lcm(da, db)
        if den != da:
            a = [x * (den // da) for x in a]
        if den != db:
            b = [y * (den // db) for y in b]
        return _series(self.var, [x + y for x, y in zip(a, b)], den, _join(self, other))

    def _add_scalar(self, c):
        c = PowerSeries(self.var, (c,))
        den = lcm(self.den, c.den)
        up = den // self.den
        vec = [x * up for x in self.num] if up != 1 else list(self.num)
        vec[0] = vec[0] + c.num[0] * (den // c.den)
        return _series(self.var, vec, den, _join(self, c))

    __radd__ = __add__

    def __neg__(self):
        return PowerSeries._of(self.var, tuple(-x for x in self.num), self.den)

    def __sub__(self, other):
        if isinstance(other, PowerSeries):
            return self + (-other)
        return self._add_scalar(-other)

    def __rsub__(self, other):
        return (-self)._add_scalar(other)

    def scale(self, c) -> "PowerSeries":
        c = PowerSeries(self.var, (c,))
        x = c.num[0]
        if type(x) is int:  # a rational: every element times one integer
            vec, den = _domain(self).times(self.num, repeat(x), self.den * c.den)
            return PowerSeries._of(self.var, tuple(vec), den)
        vec = [y * x for y in self.num]
        return _series(self.var, vec, self.den * c.den, _join(self, c))

    # -- multiplication / division --------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, PowerSeries):
            return self.scale(other)
        self._check_var(other)
        n = min(self.order, other.order)
        vec = _conv(self.num, other.num, n)
        return _series(self.var, vec, self.den * other.den, _join(self, other))

    __rmul__ = scale

    def __truediv__(self, other):
        if not isinstance(other, PowerSeries):
            return self.scale(_QONE / other)
        self._check_var(other)
        if not other.num[0]:
            raise SeriesError(
                "division by a series with zero constant term"
            )
        n = min(self.order, other.order) + 1
        dom = _join(self, other)
        bn = other.num[:n]
        quo, den = _div_rational(self.num[:n], self.den, bn, other.den, dom.value(bn[0]), dom)
        return _series(self.var, quo, den, dom)

    def __rtruediv__(self, c):
        return self.inv().scale(c)

    def inv(self) -> "PowerSeries":
        return self.one_like() / self

    def pow_int(self, n: int) -> "PowerSeries":
        if n < 0:
            return self.inv().pow_int(-n)
        out = self.one_like()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- shifts ---------------------------------------------------------------

    def mul_var(self, k: int = 1) -> "PowerSeries":
        """Multiply by var^k (order grows by k: those coefficients are exact)."""
        _need_count(k, "mul_var")
        zero = _domain(self).const(0)
        return PowerSeries._of(self.var, (zero,) * k + self.num, self.den)

    def div_var(self, k: int = 1) -> "PowerSeries":
        """Divide by var^k; the first k coefficients must vanish."""
        _need_count(k, "div_var")
        if any(self.num[:k]):
            raise SeriesError(
                f"series not divisible by {self.var}^{k}"
            )
        if k > self.order:
            raise SeriesError("a series needs at least its constant term")
        return PowerSeries._of(self.var, self.num[k:], self.den)

    # -- composition / reversion ------------------------------------------------

    def compose(self, inner: "PowerSeries") -> "PowerSeries":
        """self(inner); requires inner constant term zero."""
        if inner.num[0]:
            raise SeriesError(
                "composition requires inner constant term zero"
            )
        n = min(self.order, inner.order)
        dom = _join(self, inner)
        acc, den = _horner(self.num, self.den, inner.num, inner.den, n, dom)
        return _series(inner.var, acc, den, dom)

    def revert(self) -> "PowerSeries":
        """Functional inverse by Newton iteration (Brent and Kung), on the
        orders of ``_ladder``.  If v is correct through order k, then
        1/u'(v) = v' mod x^k, so a step to order m <= 2k subtracts
        x^(k+1) times the error over x^(k+1) times v', truncated at
        m - k - 1: one composition and one product, and no division.  The
        loop runs on the stored lift (``_revert``), in plain integers over
        ``Fraction``.

        Requires a zero constant term and linear coefficient 1; any other
        linear coefficient is a ``SeriesError``.
        """
        if self.order < 1:
            raise OrderError("reversion needs order >= 1")
        if self.num[0]:
            raise SeriesError("reversion requires zero constant term")
        if self.num[1] != self.den:
            raise SeriesError("reversion requires linear coefficient 1")
        dom = _domain(self)
        v, den = _revert(self.num, self.den, self.order, dom)
        return _series(self.var, v, den, dom)

    # -- calculus ----------------------------------------------------------------

    def derive(self, n: int = 1) -> "PowerSeries":
        _need_count(n, "derive")
        if not n:
            return self
        if len(self.num) <= n:
            raise OrderError("derivative of an order-0 series")
        size = len(self.num) - n  # coefficient k is (k+n)!/k! times num[k + n]
        ms = range(1, size + 1) if n == 1 else [perm(k + n, n) for k in range(size)]
        vec, den = _domain(self).times(self.num[n:], ms, self.den)
        return PowerSeries._of(self.var, tuple(vec), den)

    def integrate(self) -> "PowerSeries":
        """Termwise integral with zero constant term (order grows by one)."""
        dom = _domain(self)
        parts = [dom.reduce1(x, k + 1) for k, x in enumerate(self.num)]
        common = lcm(*[d for _, d in parts])
        vec = [0] + [x * (common // d) for x, d in parts]
        return _series(self.var, vec, self.den * common, dom)

    # -- exp / log / powers ---------------------------------------------------------

    def exp(self) -> "PowerSeries":
        if self.num[0]:
            raise SeriesError("exp requires a zero constant term")
        dom = _domain(self)
        return _series(self.var, *_exp_rational(self.num, self.den, dom), dom)

    def log(self) -> "PowerSeries":
        if self.num[0] != self.den:
            raise SeriesError("log requires constant term 1")
        if self.order == 0:
            return PowerSeries._of(self.var, (_domain(self).const(0),), 1)
        return (self.derive() / self.truncate(self.order - 1)).integrate()

    def pow_param(self, e) -> "PowerSeries":
        """Raise a unit series g to a power e: an ``int``, a ``Fraction`` or
        a ``ParamPoly``.

        J. C. P. Miller's recurrence for the powers of a series (Knuth,
        TAOCP vol. 2, §4.7) gives w = g^e as w_0 = 1 and

            n w_n = sum_{k=1..n} ((e+1) k - n) g_k w_{n-k}.

        It runs on integer polynomials in e (``_power_polys``), and each w_n
        is evaluated at e once.  That needs integer numerators, so a g over
        ``ParamPoly`` or ``Poly`` takes exp(e log g), the same series.
        """
        if self.num[0] != self.den:
            raise SeriesError("symbolic powers need constant term 1")
        if type(self.num[0]) is not int:
            return self.log().scale(e).exp()
        polys, den = _power_polys([[x] for x in self.num], self.den)
        vec, den = lifted_values([w[0] for w in polys], den, e)
        return _series(self.var, vec, den, _DOMAINS[type(vec[0])])

    # -- evaluation / reshaping -------------------------------------------------------

    def eval_truncated(self, x0: Fraction) -> Fraction:
        """Evaluate the truncating polynomial at a rational point x0 = p/q:
        integer Horner sums num[j] p^j q^(N - j) over den q^N."""
        _need_fraction(self, "numeric evaluation needs a series")
        p, q = x0.numerator, x0.denominator
        acc, up = 0, 1  # up = q ** (N - j)
        for c in reversed(self.num):
            acc = acc * p + c * up
            up *= q
        return Fraction(acc, self.den * (up // q))

    def map_coeffs(self, fn) -> "PowerSeries":
        return PowerSeries(self.var, [fn(c) for c in self.coeffs])

    def __repr__(self):
        bits = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                bits.append(f"{c}")
            else:
                x = self.var if k == 1 else f"{self.var}^{k}"
                bits.append(f"({c})*{x}" if not isinstance(c, Fraction) else (x if c == 1 else f"{c}*{x}"))
            if len(bits) > 11:
                bits.append("...")
                break
        body = " + ".join(bits) if bits else "0"
        return f"<{body} + O({self.var}^{self.order + 1})>"


def _same(a, b) -> bool:
    """Elementwise equality of two lifts over one denominator; a zero of
    one domain equals a zero of any other."""
    return a == b or all(x == y or (not x and not y) for x, y in zip(a, b))

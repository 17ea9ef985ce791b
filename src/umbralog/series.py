"""Exact truncated power series over a closed set of coefficient domains.

A series carries the name of its variable, its coefficients ``c_0..c_N`` and
(implicitly) its truncation order ``N``.  Every operation returns a result
truncated to the order it can guarantee exactly; reading a coefficient past
that order raises ``OrderError`` instead of silently producing zero.

A series is stored as ``Poly`` is, on the dense integer-vector core in
``polys``: a tuple ``num`` of integral elements over one positive
denominator ``den``, divided by their content, so c_k = num[k] / den, and
equal series have equal ``num`` and ``den``.  The coefficient domains are
``fractions.Fraction``, whose elements are plain ``int``s, and ``ParamPoly``
and ``Poly`` in one variable, whose elements are ``ParamPoly``s and
``Poly``s over 1; there are no others.  The elements all have one type, the
only record of the domain (``_DOMAINS``: one ``polys._Lift`` each).  The
constructor lifts its coefficients once: it turns ``int`` into ``Fraction``,
lifts a mixed list to the widest domain in it, and rejects any other
coefficient (a ``float``, a ``Decimal``, a series) with a ``TypeError``, as
it does a mix of ``ParamPoly`` and ``Poly``, which have no common domain.
``coeffs`` and ``coefficient`` build coefficients when read, and ``czero``
is the domain's zero; ``_need_fraction`` is the one check that rejects a
series outside ``Fraction``.

Every operation reads and writes the lift and returns its canonical form
(``_series``).  ``+``, ``scale``, ``derive`` and ``eval_truncated`` run the
core's ``_sum_vec``, ``_scale_vec``, ``_derive_vec`` and ``_eval_vec``, as
``Poly`` does.  ``*``, ``/`` (so ``inv`` and ``log``), ``compose``,
``revert`` and ``exp`` run one kernel for every domain (``_conv``,
``_div_rational``, ``_horner``, ``_revert``, ``_exp_rational``), which uses
only ring operations on elements, so two domains' lifts mix (``int`` times
``ParamPoly`` is its ``_scale``).  The term-by-term loops it replaced are
the oracles in ``tests/oracles.py``.

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

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm

from .parampoly import ParamPoly, lifted_values
from .polys import (
    _INTS,
    _POLYS,
    Poly,
    _conv,
    _derive_vec,
    _elements,
    _eval_vec,
    _Lift,
    _primitive,
    _scale_vec,
    _sum_vec,
)


class SeriesError(ValueError):
    pass


class OrderError(SeriesError):
    """Raised when a computation would read past the guaranteed order."""


_QONE = Fraction(1)


def _widen(coeffs) -> tuple:
    """``coeffs`` in the widest of their domains, with ``int`` as ``Fraction``;
    a coefficient of any other type is a ``TypeError``."""
    coeffs = [Fraction(c) if isinstance(c, int) else c for c in coeffs]
    dom = _INTS
    for t in {*map(type, coeffs)}:
        if t not in _DOMAINS:
            raise TypeError(f"expected a rational, got {t.__name__}")
        dom = _join(dom, _DOMAINS[t])
    zero = dom.zero
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


_DOMAINS = {
    int: _INTS,
    Fraction: _INTS,
    ParamPoly: _elements(
        ParamPoly,
        lambda g, x: gcd(g, *x.num.values()),
        lambda x, m, g: ParamPoly._reduced({k: v * m // g for k, v in x.num.items()}, 1),
    ),
    Poly: _POLYS,
}


def _domain(s) -> _Lift:
    return _DOMAINS[type(s.num[0])]


def _join(a: _Lift, b: _Lift) -> _Lift:
    """The lift of the domain that holds a's and b's: ``Fraction`` widens to
    either other, and ``ParamPoly`` and ``Poly`` have none in common."""
    if a is _INTS or a is b:
        return b
    if b is _INTS:
        return a
    raise TypeError("no common coefficient domain for ParamPoly and Poly")


def _series(var: str, vec, den: int, dom: _Lift = _INTS) -> "PowerSeries":
    """The series vec / den in var, for elements (and ``int``s) of the
    domain dom over a positive den, in canonical form (``_primitive``)."""
    return PowerSeries._of(var, *_primitive(vec, den, dom))


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
        if others or domain is int or domain not in _DOMAINS:
            coeffs = _widen(coeffs)
            domain = type(coeffs[0])
        num, den = _DOMAINS[domain].lift(coeffs)
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
        return tuple(map(_domain(self).at, self.num, repeat(self.den)))

    @property
    def czero(self):
        """The zero of the coefficients' domain."""
        return _domain(self).zero

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(var: str, order: int, czero=_INTS.zero) -> "PowerSeries":
        return PowerSeries(var, (czero,) * (order + 1))

    @staticmethod
    def one(var: str, order: int, czero=_INTS.zero) -> "PowerSeries":
        return PowerSeries(var, (czero + 1,) + (czero,) * order)

    @staticmethod
    def identity(var: str, order: int, czero=_INTS.zero) -> "PowerSeries":
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
        if isinstance(other, PowerSeries):
            self._check_var(other)
            n = min(self.order, other.order) + 1
            a, b = self.num[:n], other.num[:n]
        else:  # a scalar, as a constant series
            other = PowerSeries(self.var, (other,))
            a, b = self.num, other.num
        dom = _join(_domain(self), _domain(other))
        return _series(self.var, *_sum_vec(a, self.den, b, other.den), dom)

    __radd__ = __add__

    def __neg__(self):
        return PowerSeries._of(self.var, tuple(-x for x in self.num), self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "PowerSeries":
        c = PowerSeries(self.var, (c,))
        dom = _join(_domain(self), _domain(c))
        x = c.num[0]
        if type(x) is int:  # a rational p/q: ``_scale_vec``
            return PowerSeries._of(self.var, *_scale_vec(self.num, self.den, x, c.den, dom))
        return _series(self.var, [y * x for y in self.num], self.den * c.den, dom)

    # -- multiplication / division --------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, PowerSeries):
            return self.scale(other)
        self._check_var(other)
        dom = _join(_domain(self), _domain(other))
        vec = _conv(self.num, other.num, min(self.order, other.order))
        return _series(self.var, vec, self.den * other.den, dom)

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
        dom = _join(_domain(self), _domain(other))
        bn = other.num[:n]
        lead = bn[0] if type(bn[0]) is int else int(bn[0].constant_value())
        quo, den = _div_rational(self.num[:n], self.den, bn, other.den, lead, dom)
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
        dom = _join(_domain(self), _domain(inner))
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
        return PowerSeries._of(self.var, *_derive_vec(self.num, n, self.den, _domain(self)))

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
        """Evaluate the truncating polynomial at a rational point x0
        (``_eval_vec``)."""
        _need_fraction(self, "numeric evaluation needs a series")
        return _eval_vec(self.num, self.den, x0)

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

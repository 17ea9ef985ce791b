"""Exact truncated power series over pluggable coefficient domains.

A series carries the name of its variable, its coefficients ``c_0..c_N`` and
(implicitly) its truncation order ``N = len(coeffs) - 1``.  Every operation
returns a result truncated to the order it can guarantee exactly; reading a
coefficient past that order raises ``OrderError`` instead of silently
producing zero.

Coefficient domains: ``fractions.Fraction``, ``ParamPoly`` and ``Poly``.
Each is reached through Python's numeric operators, with ``Fraction``'s
meaning: ``not c`` tests for zero, ``c * 0`` and ``z + 1`` give the domain's
zero and one, and ``Fraction(1) / c`` inverts a unit; and through its one
lift to integral elements over a common denominator (``_DOMAINS``).
``ParamPoly`` and ``Poly`` each store themselves as integer numerators over
one denominator ``den``, so their lift reads ``den`` and scales each
coefficient by an integer.  A series' coefficients are the only record of
its domain: they all have one type, since the constructor turns ``int``
into ``Fraction``, lifts a mixed list to the widest domain in it, and
rejects a number that is not rational (a ``float``, ``complex`` or
``Decimal``), and ``czero`` is the zero of that type.  So mixing two
domains keeps the wider one, and ``_need_fraction`` is the one check that
rejects a series outside ``Fraction``.

``*``, ``/`` (so ``inv`` and ``log``), ``compose`` and ``revert`` run one
kernel on lifts for every domain (``_conv``, ``_div_rational``,
``_horner``, ``_revert``), on plain ``int``s over ``Fraction``; the
term-by-term loops it replaced are the oracles in ``tests/oracles.py``.
Its schoolbook product ``_conv`` is ``polys._conv``, the loop of ``Poly``'s
own product.

Miller's power recurrence (``_power_polys``) runs on integer polynomials in
the exponent, with coefficients that are integer vectors in a second
variable t: ``pow_param`` is its t-free caller over ``Fraction`` (other
domains take exp(e log g)), and ``umbral.q_table`` and the symbolic
continuation of ``umbral``/``sheffer`` read its polynomials directly.

Lifted entries, a dict of integer vectors over one denominator, are the
shape ``operators.apply_Tn`` (keyed by derivative order) and the graded
inversion of ``grading`` and ``conjugation`` (keyed by alpha grade) share:
``_lift_terms`` lifts series to an entry, ``_derive`` differentiates one
vector, ``_combine`` sums entries over the lcm of their denominators,
``_lmul`` multiplies by a lifted series, ``_reduce`` divides out a common
gcd, and ``_to_series`` builds ``Fraction`` series once, at the end.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm
from numbers import Number, Rational

from .parampoly import ParamPoly, _lift, values_at
from .polys import Poly, _conv


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
    domain = type(s.coeffs[0])
    if domain is not Fraction:
        raise SeriesError(f"{need} over Fraction coefficients, not {domain.__name__}")


def _need_count(k: int, name: str) -> None:
    """Reject a negative power of the variable or derivative order."""
    if k < 0:
        raise SeriesError(f"{name} needs a count >= 0, not {k}")


# -- one lift per coefficient domain ---------------------------------------------
#
# ``lift`` writes coefficients as integral elements over one positive
# denominator (content and primitive part: Geddes, Czapor and Labahn, 1992,
# ch. 2), and ``unlift`` inverts it.  ``reduce`` divides a vector and its
# denominator by their integer content, ``reduce1`` one element and a
# denominator; ``value`` is the integer value of a constant element.  The
# kernels use only ring operations on elements, so two domains' lifts mix
# (``int`` times ``ParamPoly`` is its ``_scale``).
_Lift = namedtuple("_Lift", "lift unlift reduce reduce1 value")


def _reduce_ints(vec: list, den: int) -> tuple:
    g = gcd(den, *vec)
    if g == 1:
        return vec, den
    return [x // g for x in vec], den // g


def _reduce1_ints(x: int, den: int) -> tuple:
    g = gcd(x, den)
    return x // g, den // g


def _elements(domain, den) -> _Lift:
    """The lift of ``domain`` to integral elements of its own type, for the
    denominator den(c) of a coefficient c.  The kernels mix ``int`` entries
    (zeros, and a ``Fraction`` operand's constants) into the elements, and
    each hook takes them as constants; ``reduce`` lifts the coefficients,
    canonical in their domain, again."""

    def lift(coeffs):
        d = lcm(*map(den, coeffs))
        return [c * d for c in coeffs], d

    zero = domain.const(0)

    def unlift(vec, d):
        inv = Fraction(1, d)
        return [(domain.const(x * inv) if x else zero) if type(x) is int else x * inv for x in vec]

    def reduce(vec, d):
        return (vec, d) if d == 1 else lift(unlift(vec, d))

    def reduce1(x, d):
        (x,), d = reduce([x], d)
        return x, d

    def value(x):
        return x if type(x) is int else int(x.constant_value())

    return _Lift(lift, unlift, reduce, reduce1, value)


_INTS = _Lift(_lift, lambda v, d: [Fraction(x, d) for x in v], _reduce_ints, _reduce1_ints, lambda c: c)
_DOMAINS = {
    Fraction: _INTS,
    ParamPoly: _elements(ParamPoly, lambda c: c.den),
    Poly: _elements(Poly, lambda c: c.den),
}


def _lifts(s, t, n: int) -> tuple:
    """s's and t's coefficients through order n, lifted, and the lift of the
    domain that holds both (``Fraction`` widens)."""
    a, b = _DOMAINS[type(s.coeffs[0])], _DOMAINS[type(t.coeffs[0])]
    return (*a.lift(s.coeffs[: n + 1]), *b.lift(t.coeffs[: n + 1])), b if a is _INTS else a


# -- lifted entries ---------------------------------------------------------------
#
# An entry is a pair (terms, den): ``terms`` maps each key to the integer
# numerators of a series, all over the one positive denominator ``den``.
# ``operators.apply_Tn`` keys its entries by derivative order and
# ``grading.geometric_sum`` by alpha grade.  A series' truncation order is
# its length minus one, as in ``PowerSeries``.


def _lift_terms(terms: dict) -> tuple:
    """Series coefficients as integer numerators over one denominator."""
    flat, den = _lift([c for s in terms.values() for c in s.coeffs])
    it = iter(flat)
    return {j: [next(it) for _ in s.coeffs] for j, s in terms.items()}, den


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
    return {j: PowerSeries(var, [Fraction(y, den) for y in c]) for j, c in terms.items()}


def _place(vec: list, den: int, i: int, num, d: int) -> tuple:
    """``vec`` over ``den``, whose entry i is 0, with num/d there instead,
    over lcm(den, d)."""
    common = lcm(den, d)
    if common != den:
        up = common // den
        vec = [x * up for x in vec]
    vec[i] = num * (common // d)
    return vec, common


def _horner(on: list, od: int, b: list, d: int, n: int, dom) -> tuple:
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


def _revert(un: list, ud: int, n: int, dom) -> tuple:
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
        dv = [j * v[j] for j in range(1, m - k + 1)]
        fix = _conv(err[k + 1 :], dv, m - k - 1)
        v, den = dom.reduce([y * e for y in v] + [-y for y in fix], den * e)
    return v, den


def _div_rational(an: list, da: int, bn: list, db: int, lead: int, dom) -> tuple:
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
    __slots__ = ("var", "coeffs")

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
        self.var = var
        self.coeffs = coeffs

    @property
    def czero(self):
        """The zero of the coefficients' domain."""
        c = self.coeffs[0]
        return _QZERO if type(c) is Fraction else c * 0

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
        return len(self.coeffs) - 1

    def coefficient(self, k: int):
        if k < 0:
            raise SeriesError("negative coefficient index")
        if k > self.order:
            raise OrderError(
                f"coefficient {k} of a series in {self.var} only valid to "
                f"order {self.order}"
            )
        return self.coeffs[k]

    def truncate(self, n: int) -> "PowerSeries":
        if n > self.order:
            raise OrderError(
                f"cannot extend a series of order {self.order} to {n}"
            )
        if n == self.order:
            return self
        return PowerSeries(self.var, self.coeffs[: n + 1])

    def __bool__(self) -> bool:
        return any(self.coeffs)

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
            and self.order == other.order
            and all(
                a == b or (not a and not b)
                for a, b in zip(self.coeffs, other.coeffs)
            )
        )

    def __hash__(self):
        # __eq__ equates zeros of any two domains, also where the domains'
        # own == does not (a Poly 0 and a ParamPoly 0): hash only the
        # variable, the order and which coefficients vanish.
        support = tuple(k for k, c in enumerate(self.coeffs) if c)
        return hash((self.var, self.order, support))

    def prefix_equal(self, other: "PowerSeries") -> bool:
        """Equality of the shared prefix of coefficients."""
        self._check_var(other)
        n = min(self.order, other.order) + 1
        return self.coeffs[:n] == other.coeffs[:n]

    # -- linear structure ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PowerSeries):
            return self._add_scalar(other)
        self._check_var(other)
        n = min(self.order, other.order)
        return PowerSeries(
            self.var, [self.coeffs[k] + other.coeffs[k] for k in range(n + 1)]
        )

    def _add_scalar(self, c):
        coeffs = list(self.coeffs)
        coeffs[0] = coeffs[0] + c
        return PowerSeries(self.var, coeffs)

    __radd__ = __add__

    def __neg__(self):
        return PowerSeries(self.var, [-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, PowerSeries):
            return self + (-other)
        return self._add_scalar(-other)

    def __rsub__(self, other):
        return (-self)._add_scalar(other)

    def scale(self, c) -> "PowerSeries":
        return PowerSeries(self.var, [x * c for x in self.coeffs])

    # -- multiplication / division --------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, PowerSeries):
            return self.scale(other)
        self._check_var(other)
        n = min(self.order, other.order)
        (an, da, bn, db), join = _lifts(self, other, n)
        return PowerSeries(self.var, join.unlift(_conv(an, bn, n), da * db))

    __rmul__ = scale

    def __truediv__(self, other):
        if not isinstance(other, PowerSeries):
            return self.scale(_QONE / other)
        self._check_var(other)
        if not other.coeffs[0]:
            raise SeriesError(
                "division by a series with zero constant term"
            )
        n = min(self.order, other.order)
        (an, da, bn, db), join = _lifts(self, other, n)
        quo, den = _div_rational(an, da, bn, db, join.value(bn[0]), join)
        return PowerSeries(self.var, join.unlift(quo, den))

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
        return PowerSeries(self.var, (self.czero,) * k + self.coeffs)

    def div_var(self, k: int = 1) -> "PowerSeries":
        """Divide by var^k; the first k coefficients must vanish."""
        _need_count(k, "div_var")
        for j in range(k):
            if self.coeffs[j]:
                raise SeriesError(
                    f"series not divisible by {self.var}^{k}"
                )
        return PowerSeries(self.var, self.coeffs[k:])

    # -- composition / reversion ------------------------------------------------

    def compose(self, inner: "PowerSeries") -> "PowerSeries":
        """self(inner); requires inner constant term zero."""
        if inner.coeffs[0]:
            raise SeriesError(
                "composition requires inner constant term zero"
            )
        n = min(self.order, inner.order)
        lifts, join = _lifts(self, inner, n)
        acc, den = _horner(*lifts, n, join)
        return PowerSeries(inner.var, join.unlift(acc, den))

    def revert(self) -> "PowerSeries":
        """Functional inverse by Newton iteration (Brent and Kung), on the
        orders of ``_ladder``.  If v is correct through order k, then
        1/u'(v) = v' mod x^k, so a step to order m <= 2k subtracts
        x^(k+1) times the error over x^(k+1) times v', truncated at
        m - k - 1: one composition and one product, and no division.  The
        loop runs on the lift of the coefficients' domain (``_revert``), in
        plain integers over ``Fraction``.

        Requires a zero constant term and linear coefficient 1; any other
        linear coefficient is a ``SeriesError``.
        """
        if self.order < 1:
            raise OrderError("reversion needs order >= 1")
        if self.coeffs[0]:
            raise SeriesError("reversion requires zero constant term")
        if self.coeffs[1] != self.czero + 1:
            raise SeriesError("reversion requires linear coefficient 1")
        dom = _DOMAINS[type(self.coeffs[0])]
        v, den = _revert(*dom.lift(self.coeffs), self.order, dom)
        return PowerSeries(self.var, dom.unlift(v, den))

    # -- calculus ----------------------------------------------------------------

    def derive(self, n: int = 1) -> "PowerSeries":
        _need_count(n, "derive")
        out = self
        for _ in range(n):
            if out.order < 1:
                raise OrderError("derivative of an order-0 series")
            out = PowerSeries(
                out.var, [out.coeffs[k] * k for k in range(1, out.order + 1)]
            )
        return out

    def integrate(self) -> "PowerSeries":
        """Termwise integral with zero constant term (order grows by one)."""
        return PowerSeries(
            self.var,
            (self.czero,) + tuple(c / (k + 1) for k, c in enumerate(self.coeffs)),
        )

    # -- exp / log / powers ---------------------------------------------------------

    def exp(self) -> "PowerSeries":
        if self.coeffs[0]:
            raise SeriesError("exp requires a zero constant term")
        e0 = self.czero + 1
        zero = e0 * _QZERO
        out = [e0]
        for n in range(1, self.order + 1):
            acc = zero
            for k in range(1, n + 1):
                acc = acc + (k * self.coeffs[k]) * out[n - k]
            out.append(acc / Fraction(n))
        return PowerSeries(self.var, out)

    def log(self) -> "PowerSeries":
        c0 = self.coeffs[0]
        if c0 != self.czero + 1:
            raise SeriesError("log requires constant term 1")
        l0 = c0 * _QZERO
        if self.order == 0:
            return PowerSeries(self.var, (l0,))
        body = (self.derive() / self.truncate(self.order - 1)).integrate()
        return body._add_scalar(l0)

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
        if self.coeffs[0] != _QONE:
            raise SeriesError("symbolic powers need constant term 1")
        if type(self.coeffs[0]) is not Fraction:
            return self.log().scale(e).exp()
        a, d = _lift(self.coeffs)
        polys, den = _power_polys([[x] for x in a], d)
        return PowerSeries(self.var, values_at([w[0] for w in polys], den, e))

    # -- evaluation / reshaping -------------------------------------------------------

    def eval_truncated(self, x0: Fraction) -> Fraction:
        """Evaluate the truncating polynomial at a rational point."""
        _need_fraction(self, "numeric evaluation needs a series")
        acc = _QZERO
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return acc

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

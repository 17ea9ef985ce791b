"""Exact truncated power series over pluggable coefficient domains.

A series carries the name of its variable, its coefficients ``c_0..c_N`` and
(implicitly) its truncation order ``N = len(coeffs) - 1``.  Every operation
returns a result truncated to the order it can guarantee exactly; reading a
coefficient past that order raises ``OrderError`` instead of silently
producing zero.

Coefficient domains: ``fractions.Fraction``, ``ParamPoly`` and ``Poly``.
Each is reached only through Python's numeric operators, with ``Fraction``'s
meaning: ``not c`` tests for zero, ``c * 0`` and ``z + 1`` give the domain's
zero and one, and ``Fraction(1) / c`` inverts a unit.  Mixing two domains
keeps the wider one.

Products, quotients and compositions whose coefficients are all
``Fraction`` run on integer numerators over one common denominator instead
of one normalising ``Fraction`` operation per term; so do ``inv``, ``log``
and the Newton step of ``revert``, which divide.  They return the same
rationals as the generic loops, which every other domain still uses.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .parampoly import _lift


class SeriesError(ValueError):
    pass


class OrderError(SeriesError):
    """Raised when a computation would read past the guaranteed order."""


_QZERO = Fraction(0)
_QONE = Fraction(1)


def _join_zero(zero, c):
    """The zero of the domain that holds both ``zero``'s domain and ``c``."""
    return zero if type(zero) is type(c) else zero + c * 0


# -- integer kernel for the Fraction domain -------------------------------------


def _rational(coeffs) -> bool:
    return all(type(c) is Fraction for c in coeffs)


def _conv(a, b, n: int) -> list:
    """Schoolbook product of two integer vectors, truncated at degree n."""
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


def _place(vec: list, den: int, i: int, num: int, d: int) -> tuple:
    """``vec`` over ``den`` plus num/d at index i, over lcm(den, d)."""
    common = lcm(den, d)
    if common != den:
        up = common // den
        vec = [x * up for x in vec]
    vec[i] += num * (common // d)
    return vec, common


def _compose_rational(outer, inner, n: int) -> list:
    """Horner evaluation of outer(inner) to order n in integers.

    The accumulator is one integer vector over a single denominator, kept
    reduced.  ``inner`` has zero constant term, so ``outer[k]`` reaches the
    result only through ``inner**k``: terms past ``n`` are skipped, and after
    the step that adds ``outer[k]`` only the first ``n - k + 1`` coefficients
    of the accumulator are kept.
    """
    b, d = _lift(inner[: n + 1])
    acc, den = [0], 1
    for k in range(n, -1, -1):
        acc = _conv(acc, b, n - k)
        den *= d
        c = outer[k]
        acc, den = _place(acc, den, 0, c.numerator, c.denominator)
        g = gcd(den, *acc)
        if g != 1:
            acc = [x // g for x in acc]
            den //= g
    return [Fraction(x, den) for x in acc]


def _div_rational(a, b) -> list:
    """The quotient a / b in integers, for a and b of one length, b[0] != 0.

    Runs q_k = (a_k - sum_{j<k} q_j b_{k-j}) / b_0 with the quotient so far
    as one integer vector over the lcm of its reduced denominators: each step
    takes one integer sum and one gcd, and rescales the vector only when the
    new coefficient's denominator does not divide the common one.
    """
    an, da = _lift(a)
    bn, db = _lift(b)
    if bn[0] < 0:  # b = (-bn) / (-db): keep b_0's numerator positive
        bn, db = [-y for y in bn], -db
    lead = da * bn[0]
    b_tail = [(i, y) for i, y in enumerate(bn) if i and y]
    q, den = [0] * len(an), 1
    for k in range(len(an)):
        s = 0
        for i, y in b_tail:
            if i > k:
                break
            s += q[k - i] * y
        # q_k = (a_k - s / (den * db)) * db / b_0
        num = an[k] * den * db - s * da
        dk = lead * den
        g = gcd(num, dk)
        q, den = _place(q, den, k, num // g, dk // g)
    return [Fraction(x, den) for x in q]


class PowerSeries:
    __slots__ = ("var", "coeffs", "czero")

    def __init__(self, var: str, coeffs, czero=_QZERO):
        coeffs = tuple(
            Fraction(c) if isinstance(c, int) else c for c in coeffs
        )
        if not coeffs:
            raise SeriesError("a series needs at least its constant term")
        self.var = var
        self.coeffs = coeffs
        self.czero = czero

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(var: str, order: int, czero=_QZERO) -> "PowerSeries":
        return PowerSeries(var, (czero,) * (order + 1), czero)

    @staticmethod
    def one(var: str, order: int, czero=_QZERO) -> "PowerSeries":
        return PowerSeries(
            var, (czero + 1,) + (czero,) * order, czero
        )

    @staticmethod
    def identity(var: str, order: int, czero=_QZERO) -> "PowerSeries":
        if order < 1:
            raise SeriesError("identity needs order >= 1")
        return PowerSeries(
            var, (czero, czero + 1) + (czero,) * (order - 1), czero
        )

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
        return PowerSeries(self.var, self.coeffs[: n + 1], self.czero)

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
            self.var,
            [self.coeffs[k] + other.coeffs[k] for k in range(n + 1)],
            _join_zero(self.czero, other.czero),
        )

    def _add_scalar(self, c):
        coeffs = list(self.coeffs)
        coeffs[0] = coeffs[0] + c
        return PowerSeries(self.var, coeffs, _join_zero(self.czero, c))

    __radd__ = __add__

    def __neg__(self):
        return PowerSeries(self.var, [-c for c in self.coeffs], self.czero)

    def __sub__(self, other):
        if isinstance(other, PowerSeries):
            return self + (-other)
        return self._add_scalar(-other)

    def __rsub__(self, other):
        return (-self)._add_scalar(other)

    def scale(self, c) -> "PowerSeries":
        zero = _join_zero(self.czero, c)
        return PowerSeries(self.var, [x * c for x in self.coeffs], zero)

    # -- multiplication / division --------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, PowerSeries):
            return self.scale(other)
        self._check_var(other)
        n = min(self.order, other.order)
        zero = _join_zero(self.czero, other.czero)
        lhs, rhs = self.coeffs[: n + 1], other.coeffs[: n + 1]
        if type(zero) is Fraction and _rational(lhs) and _rational(rhs):
            (an, da), (bn, db) = _lift(lhs), _lift(rhs)
            den = da * db
            return PowerSeries(
                self.var, [Fraction(c, den) for c in _conv(an, bn, n)], zero
            )
        out = [zero] * (n + 1)
        for i in range(n + 1):
            a = self.coeffs[i]
            if not a:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if not b:
                    continue
                out[i + j] = out[i + j] + a * b
        return PowerSeries(self.var, out, zero)

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
        zero = _join_zero(self.czero, other.czero)
        lhs, rhs = self.coeffs[: n + 1], other.coeffs[: n + 1]
        if type(zero) is Fraction and _rational(lhs) and _rational(rhs):
            return PowerSeries(self.var, _div_rational(lhs, rhs), zero)
        inv0 = _QONE / other.coeffs[0]
        out: list = []
        for k in range(n + 1):
            acc = self.coeffs[k]
            for j in range(k):
                acc = acc - out[j] * other.coeffs[k - j]
            out.append(acc * inv0)
        return PowerSeries(self.var, out, zero)

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
        return PowerSeries(
            self.var, (self.czero,) * k + self.coeffs, self.czero
        )

    def div_var(self, k: int = 1) -> "PowerSeries":
        """Divide by var^k; the first k coefficients must vanish."""
        for j in range(k):
            if self.coeffs[j]:
                raise SeriesError(
                    f"series not divisible by {self.var}^{k}"
                )
        return PowerSeries(self.var, self.coeffs[k:], self.czero)

    # -- composition / reversion ------------------------------------------------

    def compose(self, inner: "PowerSeries") -> "PowerSeries":
        """self(inner); requires inner constant term zero."""
        if inner.coeffs[0]:
            raise SeriesError(
                "composition requires inner constant term zero"
            )
        n = min(self.order, inner.order)
        if (
            type(inner.czero) is Fraction
            and _rational(self.coeffs)
            and _rational(inner.coeffs[: n + 1])
        ):
            return PowerSeries(
                inner.var,
                _compose_rational(self.coeffs, inner.coeffs, n),
                inner.czero,
            )
        zero = _join_zero(inner.czero, self.coeffs[0] * inner.coeffs[0])
        acc = PowerSeries.zero(inner.var, n, zero)
        trunc_inner = inner.truncate(n)
        for k in range(self.order, -1, -1):
            acc = (acc * trunc_inner)._add_scalar(self.coeffs[k])
        return acc

    def revert(self) -> "PowerSeries":
        """Functional inverse by Newton iteration with order doubling.

        Each step from order k to m divides the error, of valuation k + 1,
        by u'(v); the correction keeps only order m - k - 1, so u'(v) is
        composed only to that order.

        Requires a zero constant term and linear coefficient 1; any other
        linear coefficient is a ``SeriesError``.
        """
        if self.order < 1:
            raise OrderError("reversion needs order >= 1")
        if self.coeffs[0]:
            raise SeriesError("reversion requires zero constant term")
        if self.coeffs[1] != self.czero + 1:
            raise SeriesError("reversion requires linear coefficient 1")
        target = self.order
        v = PowerSeries.identity(self.var, 1, self.czero)
        while v.order < target:
            k = v.order  # v is correct through order k
            m = min(2 * k + 1, target)
            u = self.truncate(m)
            v = PowerSeries(
                self.var, v.coeffs + (self.czero,) * (m - k), self.czero
            )
            x = PowerSeries.identity(self.var, m, self.czero)
            err = u.compose(v) - x  # valuation >= k + 1
            keep = m - k - 1
            denom = u.derive().truncate(keep).compose(v.truncate(keep))
            v = v - (err.div_var(k + 1) / denom).mul_var(k + 1)
        return v

    # -- calculus ----------------------------------------------------------------

    def derive(self, n: int = 1) -> "PowerSeries":
        out = self
        for _ in range(n):
            if out.order < 1:
                raise OrderError("derivative of an order-0 series")
            out = PowerSeries(
                out.var,
                [out.coeffs[k] * k for k in range(1, out.order + 1)],
                out.czero,
            )
        return out

    def integrate(self) -> "PowerSeries":
        """Termwise integral with zero constant term (order grows by one)."""
        return PowerSeries(
            self.var,
            (self.czero,)
            + tuple(c / Fraction(k + 1) for k, c in enumerate(self.coeffs)),
            self.czero,
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
        return PowerSeries(self.var, out, self.czero)

    def log(self) -> "PowerSeries":
        c0 = self.coeffs[0]
        if c0 != self.czero + 1:
            raise SeriesError("log requires constant term 1")
        l0 = c0 * _QZERO
        if self.order == 0:
            return PowerSeries(self.var, (l0,), self.czero)
        body = (self.derive() / self.truncate(self.order - 1)).integrate()
        return body._add_scalar(l0)

    def pow_param(self, e) -> "PowerSeries":
        """Raise a unit series to a symbolic or rational power: exp(e*log)."""
        if self.coeffs[0] != _QONE:
            raise SeriesError("symbolic powers need constant term 1")
        return self.log().scale(e).exp()

    # -- evaluation / reshaping -------------------------------------------------------

    def eval_truncated(self, x0: Fraction) -> Fraction:
        """Evaluate the truncating polynomial at a rational point."""
        acc = _QZERO
        for c in reversed(self.coeffs):
            if not isinstance(c, Fraction):
                raise SeriesError("numeric evaluation needs Fraction coefficients")
            acc = acc * x0 + c
        return acc

    def map_coeffs(self, fn) -> "PowerSeries":
        coeffs = [fn(c) for c in self.coeffs]
        return PowerSeries(self.var, coeffs, coeffs[0] * _QZERO)

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

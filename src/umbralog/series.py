"""Exact truncated power series over pluggable coefficient domains.

A series carries the name of its variable, its coefficients ``c_0..c_N`` and
(implicitly) its truncation order ``N = len(coeffs) - 1``.  Every operation
returns a result truncated to the order it can guarantee exactly; reading a
coefficient past that order raises ``OrderError`` instead of silently
producing zero.

Coefficient domains: ``fractions.Fraction``, ``ParamPoly``, ``Poly`` and
nested ``PowerSeries`` (for bivariate work) all satisfy the small protocol
used here (ring operators plus ``is_zero``/``inv``).

Products and compositions whose coefficients are all ``Fraction`` run on
integer numerators over one common denominator instead of one normalising
``Fraction`` operation per term; they return the same rationals as the
generic loops, which every other domain still uses.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .parampoly import ParamPoly, _lift
from .polys import Poly


class SeriesError(ValueError):
    pass


class OrderError(SeriesError):
    """Raised when a computation would read past the guaranteed order."""


_QZERO = Fraction(0)
_QONE = Fraction(1)


def czero_of(c):
    if isinstance(c, Fraction):
        return _QZERO
    if isinstance(c, ParamPoly):
        return ParamPoly()
    if isinstance(c, Poly):
        return Poly()
    if isinstance(c, PowerSeries):
        return c.zero_like()
    if isinstance(c, int):
        return _QZERO
    raise TypeError(f"unsupported coefficient type {type(c).__name__}")


def cone_of(zero):
    if isinstance(zero, Fraction):
        return _QONE
    if isinstance(zero, ParamPoly):
        return ParamPoly.const(1)
    if isinstance(zero, Poly):
        return Poly.const(1)
    if isinstance(zero, PowerSeries):
        return zero.one_like()
    raise TypeError(f"unsupported coefficient type {type(zero).__name__}")


def cis_zero(c) -> bool:
    if isinstance(c, Fraction):
        return c == 0
    return c.is_zero()


def cinv(c):
    """Multiplicative inverse of a coefficient; raises if not a unit."""
    if isinstance(c, Fraction):
        if c == 0:
            raise SeriesError("division by zero coefficient")
        return 1 / c
    return c.inv()


def _widen_zero(z1, z2):
    if type(z1) is type(z2):
        if isinstance(z1, PowerSeries):
            z1._check_var(z2)
            inner = _widen_zero(z1.czero, z2.czero)
            short = z1 if z1.order <= z2.order else z2
            return PowerSeries.zero(short.var, short.order, inner)
        return z1
    if isinstance(z1, Fraction):
        return z2
    if isinstance(z2, Fraction):
        return z1
    if isinstance(z1, PowerSeries):
        return PowerSeries.zero(z1.var, z1.order, _widen_zero(z1.czero, z2))
    if isinstance(z2, PowerSeries):
        return PowerSeries.zero(z2.var, z2.order, _widen_zero(z2.czero, z1))
    raise TypeError(
        f"incompatible coefficient domains {type(z1).__name__} / {type(z2).__name__}"
    )


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
        common = lcm(den, c.denominator)
        if common != den:
            up = common // den
            acc = [x * up for x in acc]
            den = common
        acc[0] += c.numerator * (den // c.denominator)
        g = gcd(den, *acc)
        if g != 1:
            acc = [x // g for x in acc]
            den //= g
    return [Fraction(x, den) for x in acc]


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
            var, (cone_of(czero),) + (czero,) * order, czero
        )

    @staticmethod
    def identity(var: str, order: int, czero=_QZERO) -> "PowerSeries":
        if order < 1:
            raise SeriesError("identity needs order >= 1")
        one = cone_of(czero)
        return PowerSeries(
            var, (czero, one) + (czero,) * (order - 1), czero
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

    def constant(self):
        return self.coeffs[0]

    def truncate(self, n: int) -> "PowerSeries":
        if n > self.order:
            raise OrderError(
                f"cannot extend a series of order {self.order} to {n}"
            )
        if n == self.order:
            return self
        return PowerSeries(self.var, self.coeffs[: n + 1], self.czero)

    def is_zero(self) -> bool:
        return all(cis_zero(c) for c in self.coeffs)

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
                a == b or (cis_zero(a) and cis_zero(b))
                for a, b in zip(self.coeffs, other.coeffs)
            )
        )

    def __hash__(self):
        # __eq__ holds across coefficient domains (Fraction 1 equals
        # ParamPoly 1), whose hashes differ: hash only the variable, the
        # order and which coefficients vanish.
        support = tuple(k for k, c in enumerate(self.coeffs) if not cis_zero(c))
        return hash((self.var, self.order, support))

    def prefix_equal(self, other: "PowerSeries", upto: int | None = None) -> bool:
        """Equality of the shared (or requested) prefix of coefficients."""
        self._check_var(other)
        n = min(self.order, other.order)
        if upto is not None:
            if upto > n:
                raise OrderError("prefix comparison past a valid order")
            n = upto
        for k in range(n + 1):
            a, b = self.coeffs[k], other.coeffs[k]
            if isinstance(a, PowerSeries) and isinstance(b, PowerSeries):
                if not a.prefix_equal(b):
                    return False
            elif a != b:
                return False
        return True

    # -- linear structure ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PowerSeries):
            return self._add_scalar(other)
        self._check_var(other)
        n = min(self.order, other.order)
        return PowerSeries(
            self.var,
            [self.coeffs[k] + other.coeffs[k] for k in range(n + 1)],
            _widen_zero(self.czero, other.czero),
        )

    def _add_scalar(self, c):
        coeffs = list(self.coeffs)
        coeffs[0] = coeffs[0] + c
        return PowerSeries(self.var, coeffs, self.czero)

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
        zero = _widen_zero(self.czero, czero_of(c))
        return PowerSeries(self.var, [x * c for x in self.coeffs], zero)

    # -- multiplication / division --------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, PowerSeries):
            return self.scale(other)
        self._check_var(other)
        n = min(self.order, other.order)
        zero = _widen_zero(self.czero, other.czero)
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
            if cis_zero(a):
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if cis_zero(b):
                    continue
                out[i + j] = out[i + j] + a * b
        return PowerSeries(self.var, out, zero)

    __rmul__ = scale

    def __truediv__(self, other):
        if not isinstance(other, PowerSeries):
            return self.scale(cinv(other) if not isinstance(other, (int, Fraction)) else Fraction(1) / other)
        self._check_var(other)
        if cis_zero(other.coeffs[0]):
            raise SeriesError(
                "division by a series with zero constant term"
            )
        inv0 = cinv(other.coeffs[0])
        n = min(self.order, other.order)
        zero = _widen_zero(self.czero, other.czero)
        out: list = []
        for k in range(n + 1):
            acc = self.coeffs[k]
            for j in range(k):
                acc = acc - out[j] * other.coeffs[k - j]
            out.append(acc * inv0)
        return PowerSeries(self.var, out, zero)

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
            if not cis_zero(self.coeffs[j]):
                raise SeriesError(
                    f"series not divisible by {self.var}^{k}"
                )
        return PowerSeries(self.var, self.coeffs[k:], self.czero)

    # -- composition / reversion ------------------------------------------------

    def compose(self, inner: "PowerSeries") -> "PowerSeries":
        """self(inner); requires inner constant term zero."""
        if not cis_zero(inner.coeffs[0]):
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
        zero = _widen_zero(czero_of(self.coeffs[0] * inner.coeffs[0]), inner.czero)
        acc = PowerSeries.zero(inner.var, n, zero)
        trunc_inner = inner.truncate(n)
        for k in range(self.order, -1, -1):
            acc = (acc * trunc_inner)._add_scalar(self.coeffs[k])
        return acc

    def revert(self, normalize: bool = False) -> "PowerSeries":
        """Functional inverse by Newton iteration with order doubling.

        Requires a zero constant term and unit linear coefficient; with
        ``normalize=True`` any invertible linear coefficient is accepted and
        scaled out first.
        """
        if self.order < 1:
            raise OrderError("reversion needs order >= 1")
        if not cis_zero(self.coeffs[0]):
            raise SeriesError("reversion requires zero constant term")
        c1 = self.coeffs[1]
        if cis_zero(c1):
            raise SeriesError("reversion requires a unit linear coefficient")
        one = cone_of(self.czero)
        if c1 != one:
            if not normalize:
                raise SeriesError(
                    "linear coefficient is not 1 (pass normalize=True)"
                )
            u = cinv(c1)
            # (c*w(x))^inv = w^inv(x/c)
            scaled = self.scale(u)
            inner = PowerSeries.identity(self.var, self.order, self.czero).scale(u)
            return scaled.revert().compose(inner)
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
            denom = u.derive().compose(v.truncate(m - 1))
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
                [k * out.coeffs[k] for k in range(1, out.order + 1)],
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
        c0 = self.coeffs[0]
        if isinstance(c0, PowerSeries):
            e0 = c0.exp()
        elif cis_zero(c0):
            e0 = cone_of(self.czero)
        else:
            raise SeriesError("exp requires a zero constant term")
        out = [e0]
        for n in range(1, self.order + 1):
            acc = czero_of(e0)
            for k in range(1, n + 1):
                acc = acc + (k * self.coeffs[k]) * out[n - k]
            out.append(acc / Fraction(n))
        return PowerSeries(self.var, out, self.czero)

    def log(self) -> "PowerSeries":
        c0 = self.coeffs[0]
        if isinstance(c0, PowerSeries):
            l0 = c0.log()
        elif c0 == cone_of(self.czero):
            l0 = czero_of(self.coeffs[0])
        else:
            raise SeriesError("log requires constant term 1")
        if self.order == 0:
            return PowerSeries(self.var, (l0,), self.czero)
        body = (self.derive() / self.truncate(self.order - 1)).integrate()
        return body._add_scalar(l0)

    def pow_param(self, e) -> "PowerSeries":
        """Raise a unit series to a symbolic or rational power: exp(e*log)."""
        c0 = self.coeffs[0]
        inner_one = c0
        while isinstance(inner_one, PowerSeries):
            inner_one = inner_one.coeffs[0]
        if inner_one != _QONE:
            raise SeriesError("symbolic powers need constant term 1")
        lg = self.log()
        if isinstance(e, int):
            e = Fraction(e)
        return lg.scale(e).exp()

    # -- evaluation / reshaping -------------------------------------------------------

    def eval_truncated(self, x0: Fraction) -> Fraction:
        """Evaluate the truncating polynomial at a rational point."""
        acc = _QZERO
        for c in reversed(self.coeffs):
            if not isinstance(c, Fraction):
                raise SeriesError("numeric evaluation needs Fraction coefficients")
            acc = acc * x0 + c
        return acc

    def map_coeffs(self, fn, czero=None) -> "PowerSeries":
        coeffs = [fn(c) for c in self.coeffs]
        return PowerSeries(
            self.var, coeffs, czero if czero is not None else czero_of(coeffs[0])
        )

    def __repr__(self):
        bits = []
        for k, c in enumerate(self.coeffs):
            if cis_zero(c):
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

"""Alpha-graded series of x-series and geometric inversion of graded operators.

A ``GradedSeries`` is sum_n alpha^{base-n} * part_n(x).  A ``GradedOp`` is a
sum of pieces, each raising the alpha^{-1} grade by at least one, so that
(1 - X)^{-1} = sum X^k terminates grade by grade; this is the engine behind
every resolvent identity in the package.  The pieces are assembled from the
omega-side operators of ``BinomialFamily`` (d/domega, the step
s L - d/domega, f'(omega(x))) and the 0-derivative ``umbral.op_L``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from types import MappingProxyType

from .asymptotic import AsymptoticSeries
from .parampoly import S, ParamPoly
from .series import OrderError, PowerSeries, SeriesError
from .umbral import BinomialFamily, op_L, per_family, q_at_omega


class GradedSeries:
    """sum_n alpha^{base-n} parts[n](x); read-only, since the graded
    targets are memoized per family and shared."""

    __slots__ = ("base", "parts")

    def __init__(self, base: ParamPoly, parts: dict):
        self.base = ParamPoly.coerce(base)
        self.parts = MappingProxyType(
            {n: p for n, p in parts.items() if not p.is_zero()}
        )

    def is_empty(self) -> bool:
        return not self.parts

    def truncate(self, depth: int) -> "GradedSeries":
        return GradedSeries(
            self.base, {n: p for n, p in self.parts.items() if n <= depth}
        )

    def add(self, other: "GradedSeries") -> "GradedSeries":
        if self.base != other.base:
            raise SeriesError("graded series with different bases")
        parts = dict(self.parts)
        for n, p in other.parts.items():
            parts[n] = parts[n] + p if n in parts else p
        return GradedSeries(self.base, parts)

    def scale(self, c) -> "GradedSeries":
        return GradedSeries(self.base, {n: p.scale(c) for n, p in self.parts.items()})

    def at_x0(self, depth: int) -> AsymptoticSeries:
        coeffs = []
        for n in range(depth + 1):
            p = self.parts.get(n)
            coeffs.append(
                ParamPoly.coerce(p.coefficient(0)) if p is not None else ParamPoly()
            )
        return AsymptoticSeries(self.base, coeffs)

    def at_s_over_alpha(self, depth: int) -> AsymptoticSeries:
        """Substitute x = s/alpha: x^k contributes s^k at grade n+k."""
        coeffs = [ParamPoly() for _ in range(depth + 1)]
        for n, p in self.parts.items():
            if n > depth:
                continue
            if p.order < depth - n:
                raise OrderError(
                    f"part at grade {n} only valid to x-order {p.order}, "
                    f"need {depth - n}"
                )
            for k in range(depth - n + 1):
                c = p.coefficient(k)
                coeffs[n + k] = coeffs[n + k] + ParamPoly.coerce(c) * S**k
        return AsymptoticSeries(self.base, coeffs)


class GradedOp:
    """Pieces (delta >= 1, series transform); applying sums over pieces."""

    __slots__ = ("pieces",)

    def __init__(self, pieces):
        for delta, _ in pieces:
            if delta < 1:
                raise SeriesError(
                    "geometric inversion needs every piece at grade >= 1"
                )
        self.pieces = list(pieces)

    def apply(self, gs: GradedSeries, depth: int) -> GradedSeries:
        out: dict = {}
        for n, p in gs.parts.items():
            for delta, fn in self.pieces:
                m = n + delta
                if m > depth:
                    continue
                q = fn(p)
                out[m] = out[m] + q if m in out else q
        return GradedSeries(gs.base, out)


def geometric_sum(op: GradedOp, target: GradedSeries, depth: int) -> GradedSeries:
    """(1 - op)^{-1} target = sum_k op^k target, exact to the given depth."""
    total = target.truncate(depth)
    frontier = total
    while True:
        frontier = op.apply(frontier, depth)
        if frontier.is_empty():
            return total
        total = total.add(frontier)


# -- resolvent operators ----------------------------------------------------------


def op_ratio_nested(fam: BinomialFamily, s_val, depth: int) -> GradedOp:
    """X = (s/alpha) (1 + alpha^{-1} d/domega)^{-1} L, with the inner
    geometric series expanded and fused into the grade table."""

    def piece(m: int):
        sign = Fraction((-1) ** m)

        def fn(g: PowerSeries) -> PowerSeries:
            h = op_L(g)
            for _ in range(m):
                h = fam.d_domega(h)
            return h.scale(sign).scale(s_val)

        return (1 + m, fn)

    return GradedOp([piece(m) for m in range(depth)])


def op_ratio_split(fam: BinomialFamily, s_val) -> GradedOp:
    """X = s alpha^{-1} L - alpha^{-1} d/domega."""
    return GradedOp([(1, lambda g: fam.x_op(g, s_val))])


def op_shifted_eval(fam: BinomialFamily, s_val, depth: int) -> GradedOp:
    """X = -alpha^{-1} (d/domega) (1 - s alpha^{-1} L)^{-1}, fused."""

    def piece(j: int):
        def fn(g: PowerSeries) -> PowerSeries:
            h = g
            for _ in range(j):
                h = op_L(h).scale(s_val)
            return -fam.d_domega(h)

        return (1 + j, fn)

    return GradedOp([piece(j) for j in range(depth)])


def op_sheffer(fam: BinomialFamily, ell_omega: PowerSeries, s_val) -> GradedOp:
    """X = s alpha^{-1} ell(omega) L ell(omega)^{-1} - alpha^{-1} d/domega."""
    inv_ell = ell_omega.inv()

    return GradedOp(
        [
            (1, lambda g: (ell_omega * op_L(g * inv_ell)).scale(s_val)),
            (1, lambda g: -fam.d_domega(g)),
        ]
    )


# -- graded targets -----------------------------------------------------------------


@per_family
def target_powers_image(fam: BinomialFamily, h: int, depth: int, x_order: int) -> GradedSeries:
    """p_H^{omega(x)}(alpha) f'(omega(x))^{-H} for an integer H >= 0."""
    if h < 0:
        raise SeriesError("integer grading needs H >= 0")
    n_top = min(depth, h - 1) if h >= 1 else depth
    qv = q_at_omega(fam, max(n_top, 0), x_order, Fraction(h))
    fw = fam.fprime_at_omega(x_order).pow_int(-h)
    parts = {}
    for n in range(depth + 1):
        if h >= 1:
            if n > h - 1:
                break
            c = Fraction(comb(h - 1, n))
        else:
            c = Fraction((-1) ** n)  # binom(-1, n)
        parts[n] = (qv[n] if n < len(qv) else qv[0].zero_like()).scale(c) * fw
    if h == 0:
        # q_n^t(0) = 0 for n >= 1, so only the constant part survives
        parts = {0: PowerSeries.one(fam.f.var, x_order)}
    return GradedSeries(h, parts)


@per_family
def target_powers_image_shifted(
    fam: BinomialFamily, h: int, depth: int, x_order: int
) -> GradedSeries:
    """p_{H+1}^{omega(x)}(alpha)/alpha * f'(omega(x))^{-H}, integer H >= 0."""
    n_top = min(depth, h)
    qv = q_at_omega(fam, n_top, x_order, Fraction(h + 1))
    fw = fam.fprime_at_omega(x_order).pow_int(-h)
    parts = {}
    for n in range(n_top + 1):
        parts[n] = qv[n].scale(Fraction(comb(h, n))) * fw
    return GradedSeries(h, parts)


def target_conjugated(fam: BinomialFamily, T: list, x_order: int) -> GradedSeries:
    """exp(-alpha omega) T exp(alpha omega) for T = sum alpha^a h_a(D):
    each piece becomes alpha^a h_a(omega(x))."""
    if not T:
        raise SeriesError("empty operator description")
    om = fam.omega.truncate(x_order)
    base = max(a for a, _ in T)
    parts: dict = {}
    for a, h in T:
        n = base - a
        val = h.truncate(x_order).compose(om)
        parts[n] = parts[n] + val if n in parts else val
    return GradedSeries(base, parts)


# -- assembled ratio checks ------------------------------------------------------------


def ratio_resolvent(
    fam: BinomialFamily, s: int, h: int, depth: int, form: str = "split"
) -> AsymptoticSeries:
    """The ratio p_{s+H}/p_s computed by graded geometric inversion, for
    integers s, H >= 0, exact to alpha^{H-depth}."""
    x_order = depth + 2
    if form == "nested":
        op = op_ratio_nested(fam, Fraction(s), depth)
        target = target_powers_image(fam, h, depth, x_order)
    elif form == "split":
        op = op_ratio_split(fam, Fraction(s))
        target = target_powers_image_shifted(fam, h, depth, x_order)
    else:
        raise ValueError(f"unknown form {form!r}")
    return geometric_sum(op, target, depth).at_x0(depth)

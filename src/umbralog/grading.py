"""Alpha-graded series of x-series and geometric inversion of graded operators.

A ``GradedSeries`` is sum_n alpha^{base-n} * part_n(x).  A ``GradedOp`` is a
sum of pieces (delta, word), each raising the alpha^{-1} grade by delta >= 1,
so that (1 - X)^{-1} = sum X^k terminates grade by grade; this is the engine
behind every resolvent identity in the package.

A word lists a piece's steps, first step first: ``L``, the 0-derivative
(g - g(0))/x, which drops numerator 0; ``D``, d/domega, the index and then
the lifted factor 1/omega'(x); a ``Fraction`` scalar, folded into the
numerators and the denominator; and a lifted series factor.  So the step
s L - d/domega of ``BinomialFamily.x_op`` is the pieces (1, [L, s]) and
(1, [D, -1]).  ``geometric_sum`` lifts the target once to a ``series`` entry
keyed by grade and runs the words on it, adding shared grades truncated to
the shorter vector and dropping all-zero grades after each step, as
``PowerSeries`` addition and ``GradedSeries`` do; it builds ``Fraction``
series once, at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from types import MappingProxyType

from .asymptotic import AsymptoticSeries
from .parampoly import S, ParamPoly
from .series import (
    OrderError,
    PowerSeries,
    SeriesError,
    _combine,
    _derive,
    _lift_terms,
    _lmul,
    _need_fraction,
    _reduce,
    _to_series,
)
from .umbral import BinomialFamily, per_family, q_at_omega


class GradedSeries:
    """sum_n alpha^{base-n} parts[n](x); read-only, since the graded
    targets are memoized per family and shared."""

    __slots__ = ("base", "parts")

    def __init__(self, base: ParamPoly, parts: dict):
        self.base = ParamPoly.coerce(base)
        self.parts = MappingProxyType(
            {n: p for n, p in parts.items() if not p.is_zero()}
        )

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


# -- step words on lifted graded entries -------------------------------------------

_L = "L"
_DX = "d/dx"


def _lifted(name: str, s: PowerSeries) -> tuple:
    """A series factor step: s's numerators over one denominator."""
    _need_fraction(s, f"graded inversion needs {name}")
    return s.num, s.den


def _scalar(c) -> Fraction:
    if type(c) not in (int, Fraction):
        raise SeriesError(
            f"graded inversion needs rational scalars, not {type(c).__name__}"
        )
    return Fraction(c)


def _d_omega(fam: BinomialFamily) -> list:
    """The step D: d/dx, then the factor 1/omega'(x)."""
    return [_DX, _lifted("1/omega'", fam.inv_omega_prime)]


def _drop_constant(c: list) -> list:
    if len(c) < 2:
        raise OrderError("0-derivative of an order-0 series")
    return c[1:]


def _step(entry: tuple, step) -> tuple:
    terms, den = entry
    if isinstance(step, Fraction):
        p = step.numerator
        return {n: [p * y for y in c] for n, c in terms.items()}, den * step.denominator
    if step == _L:
        return {n: _drop_constant(c) for n, c in terms.items()}, den
    if step == _DX:
        error = "derivative of an order-0 series"
        return {n: _derive(c, error) for n, c in terms.items()}, den
    return _lmul(step, entry)


def _nonzero(entry: tuple) -> tuple:
    terms, den = entry
    return {n: c for n, c in terms.items() if any(c)}, den


class GradedOp:
    """Pieces (delta >= 1, word); applying sums over pieces."""

    __slots__ = ("pieces",)

    def __init__(self, pieces):
        for delta, _ in pieces:
            if delta < 1:
                raise SeriesError(
                    "geometric inversion needs every piece at grade >= 1"
                )
        self.pieces = list(pieces)

    def apply(self, entry: tuple, depth: int) -> tuple:
        """The operator on a lifted entry keyed by grade, to grade depth,
        without its all-zero grades."""
        terms, den = entry
        out = []
        for delta, word in self.pieces:
            part = ({n: c for n, c in terms.items() if n + delta <= depth}, den)
            if not part[0]:
                continue
            for step in word:
                part = _step(part, step)
            out.append((({n + delta: c for n, c in part[0].items()}, part[1]), 1))
        if not out:
            return {}, 1
        return _nonzero(_reduce(_combine(out)))


def geometric_sum(op: GradedOp, target: GradedSeries, depth: int) -> GradedSeries:
    """(1 - op)^{-1} target = sum_k op^k target, exact to the given depth.

    The target's parts must be ``Fraction`` series; any other domain is a
    ``SeriesError``."""
    parts = {n: p for n, p in target.parts.items() if n <= depth}
    var = None
    for p in parts.values():
        _need_fraction(p, "graded inversion needs the target")
        var = p.var
    total = frontier = _lift_terms(parts)
    while True:
        frontier = op.apply(frontier, depth)
        if not frontier[0]:
            return GradedSeries(target.base, _to_series(var, total))
        total = _nonzero(_combine([(total, 1), (frontier, 1)]))


# -- resolvent operators ----------------------------------------------------------


def op_ratio_nested(fam: BinomialFamily, s_val, depth: int) -> GradedOp:
    """X = (s/alpha) (1 + alpha^{-1} d/domega)^{-1} L, with the inner
    geometric series expanded and fused into the grade table."""
    s, D = _scalar(s_val), _d_omega(fam)
    return GradedOp([(1 + m, [_L, *D * m, (-1) ** m * s]) for m in range(depth)])


def op_ratio_split(fam: BinomialFamily, s_val) -> GradedOp:
    """X = s alpha^{-1} L - alpha^{-1} d/domega."""
    return GradedOp([(1, [_L, _scalar(s_val)]), (1, [*_d_omega(fam), Fraction(-1)])])


def op_shifted_eval(fam: BinomialFamily, s_val, depth: int) -> GradedOp:
    """X = -alpha^{-1} (d/domega) (1 - s alpha^{-1} L)^{-1}, fused."""
    s, D = _scalar(s_val), _d_omega(fam)
    return GradedOp([(1 + j, [_L, s] * j + [*D, Fraction(-1)]) for j in range(depth)])


def op_sheffer(fam: BinomialFamily, ell_omega: PowerSeries, s_val) -> GradedOp:
    """X = s alpha^{-1} ell(omega) L ell(omega)^{-1} - alpha^{-1} d/domega."""
    ell = _lifted("ell(omega)", ell_omega)
    inv = ell_omega.inv()
    inv_ell = inv.num, inv.den
    return GradedOp(
        [(1, [inv_ell, _L, ell, _scalar(s_val)]), (1, [*_d_omega(fam), Fraction(-1)])]
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

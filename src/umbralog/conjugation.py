"""Conjugated-operator machinery on omega-power columns.

The operator C = (omega/f(omega))^s (s L - d/domega) (f(omega)/omega)^s acts
on series written as sum g_n omega(x)^n / n!.  Its action has a closed
coefficient law; iterating it produces the expectation series
ell_s(alpha) = sum g_0^k alpha^{-k}, a binomial recurrence identity, and a
closed form for the full graded resolvent that this module verifies by
independent pipelines.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .asymptotic import AsymptoticSeries, LinForm
from .grading import (
    GradedSeries,
    geometric_sum,
    op_ratio_split,
    op_shifted_eval,
    target_conjugated,
)
from .parampoly import ParamPoly, binom_poly
from .polys import Poly
from .series import OrderError, PowerSeries, SeriesError
from .umbral import BinomialFamily, p_seq, q_zero_table

S = ParamPoly.symbol("s")


def _coerce_exponent(s_val):
    return s_val if isinstance(s_val, ParamPoly) else Fraction(s_val)


def conjugated_step_law(col: list, q: list, s_val=S) -> list:
    """Closed coefficient law: next_n = (s-n-1)/(n+1) (g_{n+1} - g_0 q_{n+1})."""
    out = []
    for n in range(len(col) - 1):
        factor = (s_val - Fraction(n + 1)) / Fraction(n + 1)
        out.append(factor * (col[n + 1] - col[0] * q[n + 1]))
    return out


class ConjugationContext:
    """Shared series data for the direct (truncated-series) pipeline."""

    def __init__(self, fam: BinomialFamily, depth: int, s_val=S, x_margin: int = 2):
        self.fam = fam
        self.depth = depth
        self.s_val = _coerce_exponent(s_val)
        self.x_order = depth + x_margin
        need = self.x_order + 2
        if fam.omega.order < need or fam.f.order < need + 1:
            raise OrderError(
                f"family order {fam.order} too small for conjugation depth {depth}"
            )
        om = fam.omega.truncate(need)
        f_at_om = fam.f.truncate(need + 1).compose(om)
        ratio = f_at_om.div_var(1) / om.div_var(1)  # f(omega)/omega, unit
        self.conj = ratio.pow_param(self.s_val).truncate(self.x_order)
        self.conj_inv = ratio.pow_param(-self.s_val).truncate(self.x_order)
        self.omega = om.truncate(self.x_order + 1)
        self.inv_wp = fam.inv_omega_prime().truncate(self.x_order)
        self.tau = fam.tau_f.truncate(self.x_order + 1)
        self.omega_pows = [PowerSeries.one(fam.f.var, self.x_order)]
        for _ in range(depth):
            self.omega_pows.append(
                (self.omega_pows[-1] * self.omega.truncate(self.x_order)).truncate(
                    self.x_order
                )
            )
        self.q = q_zero_table(fam, depth + 1, exponent=self.s_val)

    def column_to_series(self, col: list) -> PowerSeries:
        acc = None
        for n, g in enumerate(col):
            term = self.omega_pows[n].scale(g).scale(Fraction(1, factorial(n)))
            acc = term if acc is None else acc + term
        return acc

    def series_to_column(self, u: PowerSeries, length: int) -> list:
        back = u.truncate(min(u.order, self.tau.order)).compose(
            self.tau.truncate(min(u.order, self.tau.order))
        )
        if length - 1 > back.order:
            raise OrderError("series too short to read the requested column")
        return [
            ParamPoly.coerce(back.coefficient(n)) * Fraction(factorial(n))
            if isinstance(self.s_val, ParamPoly)
            else back.coefficient(n) * Fraction(factorial(n))
            for n in range(length)
        ]

    def apply_direct(self, col: list) -> list:
        """(omega/f(omega))^s (sL - d/domega) (f(omega)/omega)^s on a column."""
        u = self.column_to_series(col) * self.conj
        ell = (u - u.coefficient(0)).div_var(1)
        v = ell.scale(self.s_val) - u.derive() * self.inv_wp.truncate(u.order - 1)
        w = v * self.conj_inv.truncate(v.order)
        return self.series_to_column(w, len(col) - 1)


def conjugated_step(fam: BinomialFamily, col: list, depth: int | None = None, s_val=S):
    """One application of the conjugated operator, by both pipelines.

    Returns (law column, ok) where ok demands exact agreement between the
    closed coefficient law and the direct truncated-series conjugation.
    """
    if depth is None:
        depth = len(col)
    ctx = ConjugationContext(fam, depth, s_val)
    q = ctx.q
    law = conjugated_step_law(col, q, ctx.s_val)
    direct = ctx.apply_direct(col)
    ok = all(law[n] == direct[n] for n in range(len(law)))
    return law, ok


def g_table(fam: BinomialFamily, col0: list, k_max: int, s_val=S) -> list:
    """Iterated law columns: table[k][n] = g_n^k (column shrinks with k)."""
    q = q_zero_table(fam, len(col0), exponent=_coerce_exponent(s_val))
    table = [list(col0)]
    for _ in range(k_max):
        table.append(conjugated_step_law(table[-1], q, _coerce_exponent(s_val)))
    return table


def binomial_recurrence_check(fam: BinomialFamily, col0: list, n_max: int, k_max: int):
    """The summed identity tying table columns back to the initial data:

        binom(s-1,n)(g_n^k - g_0^k q_n) + sum_m binom(s-1,n+m) q_{n+m} g_0^{k-m}
            = binom(s-1,n+k) g_{n+k}^0

    verified exactly as polynomials in s for all n <= n_max, k <= k_max.
    """
    if len(col0) <= n_max + k_max:
        raise OrderError("initial column too short for the requested ranges")
    table = g_table(fam, col0, k_max)
    q = q_zero_table(fam, n_max + k_max, exponent=S)
    failures = []
    for n in range(n_max + 1):
        for k in range(k_max + 1):
            lhs = binom_poly(S - 1, n) * (table[k][n] - table[k][0] * q[n])
            for m in range(k + 1):
                lhs = lhs + binom_poly(S - 1, n + m) * q[n + m] * table[k - m][0]
            rhs = binom_poly(S - 1, n + k) * table[0][n + k]
            if lhs != rhs:
                failures.append((n, k))
    return not failures, {"n_max": n_max, "k_max": k_max, "failures": failures}


# -- the expectation series -----------------------------------------------------------


def ell_s(fam: BinomialFamily, g: PowerSeries, depth: int, s_val=S):
    """ell_s(alpha) = sum_k g_0^k alpha^{-k}, with the independent pipeline

        (alpha / p_s(alpha)) g(D) . alpha^{s-1}

    checked against it, plus the product consistency identity."""
    s_val = _coerce_exponent(s_val)
    if g.order < depth:
        raise OrderError("g truncated below the requested depth")
    col0 = [
        (
            ParamPoly.coerce(g.coefficient(n))
            if isinstance(s_val, ParamPoly)
            else g.coefficient(n)
        )
        * Fraction(factorial(n))
        for n in range(depth + 1)
    ]
    table = g_table(fam, col0, depth, s_val)
    series = [table[k][0] for k in range(depth + 1)]

    q = q_zero_table(fam, depth, exponent=s_val)
    # g(D) alpha^{s-1} = sum_n g_n binom(s-1, n) alpha^{s-1-n}; dividing by
    # p_s/alpha leaves series in alpha^{-1} with polynomial coefficients
    def bin_sn(n):
        if isinstance(s_val, ParamPoly):
            return binom_poly(s_val - 1, n)
        return Fraction(
            _falling_frac(s_val - 1, n), factorial(n)
        )

    num = AsymptoticSeries(
        LinForm.ZERO, [ParamPoly.coerce(bin_sn(n) * col0[n]) for n in range(depth + 1)]
    )
    den = AsymptoticSeries(
        LinForm.ZERO, [ParamPoly.coerce(bin_sn(k) * q[k]) for k in range(depth + 1)]
    )
    alt = num / den
    pipeline_ok = all(
        alt.coefficient(k) == ParamPoly.coerce(series[k]) for k in range(depth + 1)
    )

    # product consistency: ell_s * sum binom(s-1,k) q_k a^{-k}
    #                      = sum binom(s-1,k) g_k^0 a^{-k}
    lhs = AsymptoticSeries(LinForm.ZERO, [ParamPoly.coerce(c) for c in series]) * den
    consistency_ok = all(
        lhs.coefficient(k) == num.coefficient(k) for k in range(depth + 1)
    )
    return series, pipeline_ok and consistency_ok, {
        "pipeline_ok": pipeline_ok,
        "consistency_ok": consistency_ok,
    }


def _falling_frac(x: Fraction, n: int) -> Fraction:
    out = Fraction(1)
    for j in range(n):
        out *= x - j
    return out


# -- the closed-form resolvent ---------------------------------------------------------


def resolvent_closed_form(
    fam: BinomialFamily,
    g: PowerSeries,
    s_val: Fraction,
    depth_x: int,
    depth_a: int,
):
    """Exact check of the closed form for the graded resolvent.

    LHS: (1 - s a^{-1} L + a^{-1} d/domega)^{-1} [(f(omega)/omega)^s g(omega(x))]
    by graded geometric inversion.

    RHS: ell_s(alpha) + (f(omega)/omega)^s * alpha omega(x) *
         sum_k ((g_k - ell_s q_k)/k!) omega^k int_0^1 t^{k-s} e^{-alpha omega (1-t)} dt
    with every t-integral evaluated by the exact rational rule
    int_0^1 t^{k-s}(1-t)^j dt = j! / ((k+1-s)...(k+1+j-s)).

    s must be a non-integer rational so no pole k+1-s is hit.
    """
    s_val = Fraction(s_val)
    if s_val.denominator == 1:
        raise SeriesError("pick a non-integer rational s (poles at integers)")
    ctx = ConjugationContext(fam, depth_a, s_val, x_margin=depth_x + 2)
    x_order = ctx.x_order
    if g.order < x_order:
        raise OrderError(
            f"g must be given to order {x_order} for depths "
            f"({depth_x}, {depth_a})"
        )
    gw = g.truncate(x_order).compose(ctx.omega.truncate(x_order))
    target_series = ctx.conj * gw
    target = GradedSeries(LinForm.ZERO, {0: target_series})
    lhs = geometric_sum(op_ratio_split(fam, s_val), target, depth_a)

    # ell_s to enough depth that all positive alpha powers cancel
    ell_depth = depth_a + depth_x + 2
    col0 = [g.coefficient(n) * Fraction(factorial(n)) for n in range(ell_depth + 1)]
    table = g_table(fam, col0, ell_depth, s_val)
    ell = [table[k][0] for k in range(ell_depth + 1)]
    q = q_zero_table(fam, depth_x + 1, exponent=s_val)

    # grades[m] multiplies alpha^{-m}; negative m = positive powers, which
    # must cancel identically
    zero_x = PowerSeries.zero(fam.f.var, ctx.x_order)
    grades: dict = {m: zero_x + ell[m] for m in range(depth_a + 1)}
    om = ctx.omega.truncate(ctx.x_order)
    om_pows = [PowerSeries.one(fam.f.var, ctx.x_order)]
    for _ in range(depth_x + 1):
        om_pows.append((om_pows[-1] * om).truncate(ctx.x_order))

    for k in range(depth_x + 1):
        # c_k(alpha) = g_k - ell_s(alpha) q_k(s), carried grade by grade
        for j in range(depth_x + 1 - k):
            beta = Fraction(factorial(j))
            for i in range(j + 1):
                beta /= k + 1 + i - s_val
            base = (
                ctx.conj
                * om_pows[k + 1 + j].scale(
                    Fraction((-1) ** j, factorial(k) * factorial(j)) * beta
                )
            ).truncate(ctx.x_order)
            # alpha^{1+j} * (g_k - sum_m ell_m alpha^{-m} q_k)
            m0 = -(1 + j)
            add_to(grades, m0, base.scale(col0[k]))
            for m in range(ell_depth + 1):
                mm = m0 + m
                if mm > depth_a:
                    continue
                add_to(grades, mm, base.scale(-ell[m] * q[k]))

    diffs = []
    for m in sorted(grades):
        series = grades[m]
        if m < 0:
            if not series.is_zero():
                diffs.append({"grade": m, "issue": "positive alpha power survives",
                              "series": repr(series)})
            continue
        if m > depth_a:
            continue
        lhs_part = lhs.parts.get(m)
        expect = series
        got = lhs_part if lhs_part is not None else expect.zero_like()
        n = min(got.order, expect.order, depth_x)
        if not got.truncate(n).prefix_equal(expect.truncate(n)):
            diffs.append({"grade": m, "lhs": repr(got.truncate(n)),
                          "rhs": repr(expect.truncate(n))})
    return not diffs, {"s": str(s_val), "depth_x": depth_x, "depth_a": depth_a,
                       "diffs": diffs}


def add_to(grades: dict, m: int, series: PowerSeries):
    if m in grades:
        grades[m] = grades[m] + series
    else:
        grades[m] = series


# -- the conjugated-expectation identity -------------------------------------------------


def conjugated_expectation(fam: BinomialFamily, T: list, s: int, depth: int):
    """(alpha/p_s) T (p_s/alpha) by direct action on the polynomials, against
    the graded inversion at x = 0 and the shifted-evaluation variant at
    x = s/alpha; exact agreement to the given depth."""
    if s < 1:
        raise SeriesError("direct action needs integer s >= 1")
    seq = p_seq(fam, s)
    p_over_a = Poly(seq[s].coeffs[1:])

    from .sheffer import apply_d_series

    applied = Poly()
    for a, h in T:
        part = apply_d_series(h, p_over_a)
        for _ in range(a):
            part = part.mul_x()
        applied = applied + part
    lhs = AsymptoticSeries.from_poly_ratio(applied, p_over_a, depth)

    x_order = depth + 2
    target = target_conjugated(fam, [(a, h) for a, h in T], x_order)
    rhs0 = geometric_sum(op_ratio_split(fam, Fraction(s)), target, depth).at_x0(depth)
    shifted = geometric_sum(op_shifted_eval(fam, Fraction(s), depth), target, depth)
    rhs1 = shifted.at_s_over_alpha(depth).map_coeffs(
        lambda p: ParamPoly.const(p.eval(s=Fraction(s))) if not p.is_zero() else p
    )
    ok0 = AsymptoticSeries.equal_to_depth(lhs, rhs0, depth)
    ok1 = AsymptoticSeries.equal_to_depth(lhs, rhs1, depth)
    return ok0 and ok1, {
        "s": s,
        "depth": depth,
        "x0_form_ok": ok0,
        "shifted_form_ok": ok1,
    }

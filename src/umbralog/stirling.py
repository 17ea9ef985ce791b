"""The log-expansion machinery: generalized Stirling terms for ln p_s,
the two operator-logarithm identities, the invariance law under
f -> f e^{-Ax}, the limit statements, and the tree-family worked example.

The expansion of ln p_s(s/alpha) is organized by powers of s:

    s*ln(s/alpha) + s*R(alpha) + g_2(alpha) + g_3(alpha)/s + g_4(alpha)/s^2 + ...

where R = -I(alpha)/alpha with I(alpha) = int_0^alpha ln f'(omega(t)) dt,
g_2 = (1/2) ln omega'(alpha), and every stored alpha-series has zero
constant term.  The n-th graded term of the derivative expansion
(-s)^{1-n} alpha^{n-2} (T_n omega)(alpha) integrates to the s^{1-n} block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation, localcontext
from fractions import Fraction
from math import factorial

from .operators import apply_Tn, build_Tn
from .parampoly import H, ParamPoly
from .presets import family
from .polys import _lin, _times
from .series import OrderError, PowerSeries, SeriesError
from .umbral import (
    BinomialFamily,
    _times_root,
    build_family,
    growing,
    p_seq,
    per_family,
    q_at_omega,
    rename,
)

ALPHA = "a"


class StirlingError(SeriesError):
    pass


def omega_in_alpha(fam: BinomialFamily) -> PowerSeries:
    return rename(fam.omega, ALPHA)


@per_family
def _tn_omega(fam: BinomialFamily, n: int) -> PowerSeries:
    """(T_n omega)(alpha), kept on the family for every depth that asks."""
    return apply_Tn(omega_in_alpha(fam), n, fam.sigma(ALPHA))


def t_n_omega(fam: BinomialFamily, n_max: int) -> list:
    """(T_n omega)(alpha) as exact alpha-series, n = 0..n_max."""
    return [_tn_omega(fam, n) for n in range(n_max + 1)]


@dataclass(frozen=True)
class StirlingExpansion:
    fam: BinomialFamily
    integral_term: PowerSeries          # I(alpha)
    s1_regular: PowerSeries             # R(alpha) = -I(alpha)/alpha
    g: dict = field(default_factory=dict)  # k >= 2 -> g_k(alpha), coeff of s^{2-k}


@per_family
def _integral_term(fam: BinomialFamily) -> PowerSeries:
    """I = int_0^x ln f'(omega(t)) dt, in the family's variable: the head's
    second route and the second limit's I(1/alpha) read this one table."""
    return fam.fprime_at_omega(fam.order - 2).log().integrate()


@per_family
def _stirling_head(fam: BinomialFamily) -> tuple:
    """I(alpha), R(alpha) and g_2, each checked against a second route:
    the part of every expansion that no depth changes."""
    om = _tn_omega(fam, 0)

    # grade 0: -s omega(alpha)/alpha^2; the 1/alpha resonance integrates to
    # the -s ln(alpha) part of the symbolic leading tag s*ln(s/alpha)
    if om.coefficient(1) != 1:
        raise StirlingError("omega must be monic")
    reduced = -(om - PowerSeries.identity(ALPHA, om.order)).div_var(2)
    s1_regular = reduced.integrate()

    # independent route: I(alpha) = int ln f'(omega(t)) dt, R = -I/alpha
    integral_term = rename(_integral_term(fam), ALPHA)
    alt = -integral_term.div_var(1)
    if not s1_regular.prefix_equal(alt):
        raise StirlingError(
            "internal check failed: the grade-0 integral does not match "
            "-I(alpha)/alpha"
        )

    # grade 1 integrates to (1/2) ln omega'(alpha)
    g2 = _tn_omega(fam, 1).div_var(1).integrate()
    half_log = om.derive().log().scale(Fraction(1, 2))
    if not g2.prefix_equal(half_log):
        raise StirlingError(
            "internal check failed: the grade-1 integral is not "
            "half the log-derivative"
        )
    return integral_term, s1_regular, g2


def stirling_terms(fam: BinomialFamily, N: int) -> StirlingExpansion:
    """Termwise alpha-integration of the graded derivative expansion.

    N is the depth in 1/s: terms g_2..g_N are produced.  The only
    alpha^{-1} resonance sits in the leading grade (it integrates to the
    s*ln(s/alpha) tag, carried symbolically); any other resonance raises.
    """
    if N < 2:
        raise StirlingError("need N >= 2 for at least the g_2 term")
    tn = t_n_omega(fam, N - 1)
    integral_term, s1_regular, g2 = _stirling_head(fam)
    g = {2: g2}
    for n in range(2, N):
        integrand = tn[n].mul_var(n - 2)
        g[n + 1] = integrand.integrate().scale(Fraction((-1) ** (n - 1)))
    return StirlingExpansion(fam, integral_term, s1_regular, g)


def g3_closed_form(fam: BinomialFamily, order: int) -> PowerSeries:
    """The 1/(24 s) bracket assembled from the displayed closed form."""
    om = omega_in_alpha(fam).truncate(order + 4)
    w1 = om.derive()
    w2 = w1.derive()
    w3 = w2.derive()
    a = PowerSeries.identity(ALPHA, w3.order)
    inv1 = w1.truncate(w3.order).inv()
    t1 = (w1.truncate(w3.order) - 1) * inv1 * 2
    t2 = (a * a * w2.truncate(w3.order) * w2.truncate(w3.order)) * inv1.pow_int(3) * 4
    t3 = (a * w2.truncate(w3.order)) * inv1.pow_int(2) * (-2)
    t4 = (a * a * w3) * inv1.pow_int(2) * (-3)
    return ((t1 + t2 + t3 + t4) / Fraction(24)).truncate(order)


def g4_closed_form(fam: BinomialFamily, order: int) -> PowerSeries:
    """-(1/48) (alpha^3/omega') (alpha/omega')''''."""
    om = omega_in_alpha(fam).truncate(order + 6)
    w1 = om.derive()
    a = PowerSeries.identity(ALPHA, w1.order)
    sig = a * w1.inv()                      # alpha/omega'
    d4 = sig.derive(4)
    a3 = PowerSeries.identity(ALPHA, d4.order)
    lead = (a3 * a3 * a3) * w1.truncate(d4.order).inv()
    return (lead * d4).scale(Fraction(-1, 48)).truncate(order)


# -- the two operator-logarithm identities ------------------------------------------


# Each side is a table grown one index per depth (``growing``).  A row's
# first entry is the side's coefficient of alpha^{-n}, built once as a
# ``ParamPoly``; the rest, what the deeper rows are computed from, are
# polynomials in s as integer coefficient lists over one denominator (the
# reduced pairs of ``polys._lin``), so the recurrences build no ``ParamPoly``.


def _head(p: tuple, low: int = 0) -> ParamPoly:
    """The pair p over s^low as a ``ParamPoly``; s^low must divide it."""
    if any(p[0][:low]):
        raise StirlingError(f"internal check failed: s^{low} does not divide {p}")
    return ParamPoly._reduced({(i, 0, 0): x for i, x in enumerate(p[0][low:]) if x}, p[1])


@growing
def _lhs_side(fam: BinomialFamily, depth: int, known=()) -> tuple:
    """Rows (lhs_n, l_n, c_n, w_n, F_n) of (1/s) ln(alpha^{-s} p_s(alpha)),
    all but lhs_n pairs in s.

    With g = x/f, Miller's recurrence n w_n = sum_k ((s+1)k - n) g_k w_{n-k}
    gives w_n = [x^n] g^s; F_n = (s-1)(s-2)...(s-n) and c_n = F_n w_n is
    the coefficient of alpha^{s-n} in p_s.  Its logarithm l has
    l_n = c_n - (1/n) sum_{k<n} k l_k c_{n-k}, and lhs_n = l_n / s.
    """
    g = fam.x_over_f.truncate(depth)
    a, d = g.num, g.den  # g_k = a_k / d
    one = (1,), 1
    rows = list(known) or [(ParamPoly(), ((), 1), one, one, one)]
    for n in range(len(rows), depth + 1):
        terms = [(k, a[k], rows[n - k][3]) for k in range(1, n + 1) if a[k]]
        w = _lin([(k * x, 1, p) for k, x, p in terms]
                 + [((k - n) * x, 0, p) for k, x, p in terms], n * d)
        falling = tuple(_times_root(rows[n - 1][4][0], n)), 1
        c = _times(falling, w)  # reduced as w_n is, since F_n is monic (Gauss)
        ln = _lin([(n, 0, c)] + [
            (-k, 0, _times(rows[k][1], rows[n - k][2])) for k in range(1, n)], n)
        rows.append((_head(ln, 1), ln, c, w, falling))
    return tuple(rows)


@growing
def _log_side(fam: BinomialFamily, depth: int, known=()) -> tuple:
    """Rows (rhs_m, T[0][m], T[1][m-1], ..., T[m][0]) of the log route, T in pairs.

    T[i][j] = [x^j] (s L - d/domega)^i (omega/x), so that row m holds the
    antidiagonal i + j = m and rhs_m = -T[m][0]/m.  With iota = 1/omega',
    T[0][j] = omega_{j+1} and

        T[i][j] = s T[i-1][j+1] - sum_{a+b=j} (a+1) T[i-1][a+1] iota_b.
    """
    om, iota = fam.omega, fam.inv_omega_prime.num
    di = fam.inv_omega_prime.den  # iota_b = iota[b] / di
    diags = [row[1:] for row in known]
    rows = list(known)
    for m in range(len(rows), depth + 1):
        diag = [_lin([(om.num[m + 1], 0, ((1,), om.den))])]
        diags.append(diag)
        for i in range(1, m + 1):
            j = m - i
            diag.append(_lin([(di, 1, diag[i - 1])] + [
                (-(a + 1) * iota[j - a], 0, diags[i + a][i - 1])
                for a in range(j + 1) if iota[j - a]], di))
        rows.append((_head(_lin([(-1, 0, diag[m])], m)) if m else ParamPoly(), *diag))
    return tuple(rows)


@growing
def _exp_side(fam: BinomialFamily, depth: int, known=()) -> tuple:
    """Rows (rhs_m, U[0][m], U[1][m-1], ..., U[m][0]) of the exp route, U in pairs.

    U[i][j] = [x^j] g_i for g_0 = u = x/(f/f') and g_i = g_{i-1}' - s u L g_{i-1},
    so that row m holds the antidiagonal i + j = m and
    rhs_m = (-1)^{m-1} U[m][0]/m:

        U[i][j] = (j+1) U[i-1][j+1] - s sum_{a+b=j} u_a U[i-1][b+1].
    """
    x_over_tau = fam.x_over_tau.truncate(depth)
    u, d = x_over_tau.num, x_over_tau.den  # u_a = u[a] / d
    diags = [row[1:] for row in known]
    rows = list(known)
    for m in range(len(rows), depth + 1):
        diag = [_lin([(u[m], 0, ((1,), d))])]
        diags.append(diag)
        for i in range(1, m + 1):
            j = m - i
            diag.append(_lin([(d * (j + 1), 0, diag[i - 1])] + [
                (-u[a], 1, diags[i + j - a][i - 1]) for a in range(j + 1) if u[a]], d))
        rows.append((_head(_lin([(-(-1) ** m, 0, diag[m])], m)) if m else ParamPoly(), *diag))
    return tuple(rows)


_RHS_SIDES = {"log": _log_side, "exp": _exp_side}


def verify_log_identity(fam: BinomialFamily, variant: str, depth: int):
    """Exact Q[s]-coefficient comparison of (1/s) ln(alpha^{-s} p_s) against
    an operator pipeline.

    variant "log": -sum_k (1/k) alpha^{-k} (s L - d/domega)^k (omega(x)/x)|_0.
    variant "exp": expand exp(d/dalpha (d/dx - s u L)) u |_{x=0} with
    u = x f'(x)/f(x), then hit ln(alpha) with the formal rule
    (d/dalpha)^m ln alpha = (-1)^{m-1} (m-1)! alpha^{-m}.

    Both sides are kept on the family, so a deeper depth only adds its
    own coefficients.
    """
    if variant not in _RHS_SIDES:
        raise ValueError(f"unknown variant {variant!r}")
    if fam.omega.order < depth + 3:
        raise OrderError("family truncation too small for the requested depth")
    lhs = _lhs_side(fam, depth)
    rhs = _RHS_SIDES[variant](fam, depth)
    diffs = [
        {"k": k, "lhs": repr(a[0]), "rhs": repr(b[0])}
        for k, (a, b) in enumerate(zip(lhs, rhs))
        if a[0] != b[0]
    ]
    return not diffs, {"variant": variant, "depth": depth, "diffs": diffs}


# -- invariance under f -> f e^{-Ax} --------------------------------------------------


def exp_series(c: Fraction, var: str, order: int) -> PowerSeries:
    return PowerSeries(
        var, [Fraction(c) ** n / Fraction(factorial(n)) for n in range(order + 1)]
    )


def transformed_family(fam: BinomialFamily, A: Fraction) -> BinomialFamily:
    damp = exp_series(-A, fam.f.var, fam.f.order)
    return build_family(fam.f * damp)


def mobius_series(A: Fraction, var: str, order: int) -> PowerSeries:
    """x/(1+Ax) as an exact truncated series."""
    coeffs = [Fraction(0)] + [(-A) ** (n - 1) for n in range(1, order + 1)]
    return PowerSeries(var, coeffs)


def invariance_check(fam: BinomialFamily, A: Fraction, N: int) -> dict:
    """Exact transformation laws of the Stirling terms under
    f -> f e^{-Ax}, alpha -> alpha/(1 + A alpha).

    The terms g_k with k >= 3 are plainly invariant.  The two leading
    blocks are not: the s^1 regular part picks up +ln(1+A alpha) and the
    s^0 term g_2 picks up -ln(1+A alpha) (half the log-Jacobian of the
    alpha substitution).  All three laws are checked exactly, in both
    directions.
    """
    A = Fraction(A)
    fam2 = transformed_family(fam, A)
    st1 = stirling_terms(fam, N)
    st2 = stirling_terms(fam2, N)

    x_ord = fam2.omega.order
    mob_x = mobius_series(A, fam.f.var, x_ord)
    omega_sub = fam.omega.truncate(x_ord).compose(mob_x)
    omega_ok = fam2.omega.prefix_equal(omega_sub)

    a_ord = min(st1.s1_regular.order, st2.s1_regular.order)
    beta = mobius_series(A, ALPHA, a_ord)
    one_plus = PowerSeries(
        ALPHA, [Fraction(1), A] + [Fraction(0)] * (a_ord - 1)
    )
    log_one_plus = one_plus.log()

    def compose_beta(u: PowerSeries) -> PowerSeries:
        return u.truncate(min(u.order, beta.order)).compose(
            beta.truncate(min(u.order, beta.order))
        )

    report: dict = {"A": str(A), "omega_ok": omega_ok, "terms": []}

    d_s1 = st2.s1_regular - compose_beta(st1.s1_regular)
    s1_law = d_s1.prefix_equal(log_one_plus)
    s1_plain = d_s1.is_zero()
    report["terms"].append(
        {"term": "s^1 regular", "plain_invariant": s1_plain, "anomaly_law_ok": s1_law,
         "anomaly": "+ln(1+A*alpha)"}
    )

    d_g2 = st2.g[2] - compose_beta(st1.g[2])
    g2_law = d_g2.prefix_equal(-log_one_plus)
    g2_plain = d_g2.is_zero()
    report["terms"].append(
        {"term": "g_2", "plain_invariant": g2_plain, "anomaly_law_ok": g2_law,
         "anomaly": "-ln(1+A*alpha)"}
    )

    for k in sorted(st1.g):
        if k == 2:
            continue
        diff = st2.g[k] - compose_beta(st1.g[k])
        report["terms"].append(
            {"term": f"g_{k}", "plain_invariant": diff.is_zero(),
             "anomaly_law_ok": diff.is_zero(), "anomaly": "none"}
        )

    expected = all(
        t["anomaly_law_ok"] for t in report["terms"]
    ) and omega_ok
    if A != 0:
        expected = expected and not report["terms"][0]["plain_invariant"]
        expected = expected and not report["terms"][1]["plain_invariant"]
    report["ok"] = expected
    return report


# -- limit statements -------------------------------------------------------------------


def to_decimal(q: Fraction) -> Decimal:
    """q in the current decimal context."""
    return Decimal(q.numerator) / Decimal(q.denominator)


def ln_decimal(q: Fraction) -> Decimal:
    """ln q in the current decimal context."""
    if q <= 0:
        raise ValueError("log of a nonpositive rational")
    return to_decimal(q).ln()


@dataclass
class LimitReport:
    quantity: str
    target: str
    samples: list          # (n, value as str)
    errors: list           # (n, |sample - target| as str)
    ratios: list           # error(n)/error(2n) as float; None where
                           # error(2n) is zero
    monotone: bool
    final_error: str
    extrapolated: str      # 2*x(2n) - x(n), exact for errors of the form C/n;
                           # "" when n_max < 8 leaves a single sample
    target_floor: str      # |target - target from its series one order lower|:
                           # errors near it are truncation, not convergence
    ok: bool


def _ln_at(q: Fraction, what: str, alpha: Fraction) -> Decimal:
    """ln q for the second limit; a q <= 0 is a ``StirlingError`` naming alpha."""
    if q <= 0:
        raise StirlingError(
            f"{what} is not positive at alpha = {alpha}, so its log is undefined: "
            f"1/alpha = {1 / alpha} lies outside omega's disc of convergence for "
            "this family; try a larger alpha (--alpha)"
        )
    return ln_decimal(q)


def _doubling(n_max: int) -> list:
    out = []
    n = 4
    while n <= n_max:
        out.append(n)
        n *= 2
    return out


def limit_check(
    fam: BinomialFamily, which: str, alpha: Fraction, n_max: int
) -> LimitReport:
    """Exact rational samples of a limit statement at n = 4, 8, ..., n_max,
    with a high-precision decimal trend summary at the end.

    The closed-form targets are evaluated from the truncated series at the
    rational point 1/alpha, which must lie well inside the truncation's
    safe range (small rational alpha^{-1})."""
    alpha = Fraction(alpha)
    if not alpha:
        raise StirlingError("alpha = 0 has no evaluation point 1/alpha")
    point = 1 / alpha
    if abs(point) >= 1:
        raise StirlingError(
            f"evaluation point 1/alpha = {point} is outside the safe "
            "range of the truncated series"
        )
    if n_max < 4:
        raise StirlingError(f"n_max = {n_max} is below 4, the first sample point")
    if which == "second" and alpha < 0:
        raise StirlingError(
            f"the second limit takes ln(alpha*n), which needs alpha > 0, not {alpha}"
        )
    ns = _doubling(n_max)
    seq = p_seq(fam, max(ns) + 1)
    om = omega_in_alpha(fam)

    samples: list = []
    sample_vals: list = []
    with localcontext() as ctx:
        ctx.prec = 80
        if which == "conclusion":
            series, value = om, lambda u: to_decimal(u.eval_truncated(point))
            quantity = "p_n'(n*alpha)/p_n(n*alpha)"
            tstr = "omega(1/alpha)"
            for n in ns:
                val = seq[n].derive().eval(n * alpha) / seq[n].eval(n * alpha)
                sample_vals.append(to_decimal(val))
        elif which == "first":
            fw = fam.fprime_at_omega(fam.order - 2)
            series, value = fw, lambda u: to_decimal(alpha / u.eval_truncated(point))
            quantity = "p_{n+1}(n*alpha)/p_n(n*alpha)/n"
            tstr = "alpha*f'(omega(1/alpha))^{-1}"
            for n in ns:
                val = seq[n + 1].eval(n * alpha) / seq[n].eval(n * alpha) / n
                sample_vals.append(to_decimal(val))
        elif which == "second":
            i_val = _integral_term(fam).eval_truncated(point)
            series, value = om.derive(), lambda u: (
                _ln_at(u.eval_truncated(point), "omega'(1/alpha)", alpha) / 2
            )
            quantity = "ln p_n(alpha*n) - n*ln(alpha*n) + n*alpha*I(1/alpha)"
            tstr = "(1/2) ln omega'(1/alpha)"
            for n in ns:
                p_val = seq[n].eval(alpha * n)
                lhs = (
                    _ln_at(p_val, f"p_{n}({n}*alpha)", alpha)
                    - n * ln_decimal(alpha * n)
                    + to_decimal(n * alpha * i_val)
                )
                sample_vals.append(lhs)
        else:
            raise ValueError(f"unknown limit {which!r}")

        target = value(series)
        floor = abs(target - value(series.truncate(series.order - 1)))
        try:
            samples = [(n, str(+v.quantize(Decimal("1e-30")))) for n, v in zip(ns, sample_vals)]
            errors = [abs(v - target) for v in sample_vals]
            ratios = [
                float(errors[i] / errors[i + 1]) if errors[i + 1] else None
                for i in range(len(errors) - 1)
            ]
            monotone = all(errors[i] > errors[i + 1] for i in range(len(errors) - 1))
            extrapolated = ""
            if len(sample_vals) >= 2:
                richardson = 2 * sample_vals[-1] - sample_vals[-2]
                extrapolated = str(+richardson.quantize(Decimal("1e-30")))
            return LimitReport(
                quantity=quantity,
                target=f"{tstr} = {str(+target.quantize(Decimal('1e-30')))}",
                samples=samples,
                errors=[(n, str(+e.quantize(Decimal("1e-30")))) for n, e in zip(ns, errors)],
                ratios=ratios,
                monotone=monotone,
                final_error=str(+errors[-1].quantize(Decimal("1e-30"))),
                extrapolated=extrapolated,
                target_floor=str(+floor.quantize(Decimal("1e-30"))),
                ok=monotone,
            )
        except InvalidOperation:  # quantize: a value past 80 - 30 integer digits
            raise StirlingError(
                f"the {which} limit at alpha = {alpha} has a value of 10^50 or more, "
                "past what 80 digits hold at 30 decimal places; try a smaller alpha"
            ) from None


# -- the two-orders ratio check ------------------------------------------------------


def ratio_two_orders(fam: BinomialFamily, order: int):
    """Exact check of the alpha^H and alpha^{H-1} coefficients of
    p_{alpha s + H}(alpha) / p_{alpha s}(alpha) against the displayed
    closed forms, as s-series with polynomial-in-H coefficients."""
    x_order = order + 4
    if fam.omega.order < x_order + 1:
        raise OrderError("family truncation too small for ratio_two_orders")

    qv = q_at_omega(fam, 1, x_order, exponent=H + Fraction(1))
    q1 = rename(qv[1], "s")
    G = rename(fam.fprime_at_omega(x_order), "s").pow_param(-H)

    w1 = rename(fam.omega.derive(), "s")
    # closed form for q_1^{omega(s)}(1+H): (1+H)/2 * (1 - omega'(s))/(s omega'(s))
    one_minus = -(w1.truncate(q1.order + 1) - 1)
    rhs_q1 = (
        one_minus.div_var(1) * w1.truncate(q1.order).inv()
    ).scale((H + 1) / Fraction(2))
    q1_ok = q1.prefix_equal(rhs_q1)

    # alpha^{H-1} coefficient from the operator machinery:
    #   H q_1 G - s^{-1} T_1 (s G)
    T1 = build_Tn(fam, 1, var="s")
    t_part = T1.apply(G.mul_var(1)).div_var(1)
    machinery = q1.truncate(t_part.order) * G.truncate(t_part.order) * H - t_part

    w2 = w1.derive()
    bracket = (
        (-(w1 - 1)).div_var(1).truncate(w2.order) * (H * H) / Fraction(2)
        + (w2 * w1.truncate(w2.order).inv()) * H / Fraction(2)
    )
    closed = bracket.truncate(min(bracket.order, G.order)) * G.truncate(
        min(bracket.order, G.order)
    )

    n = min(machinery.order, closed.order, order)
    ok1 = machinery.truncate(n).prefix_equal(closed.truncate(n))
    return q1_ok and ok1, {
        "q1_closed_form_ok": q1_ok,
        "alpha_pow_H_minus_1_ok": ok1,
        "order": n,
    }


# -- the tree-family example -----------------------------------------------------------


def tree_example_check(N: int):
    """For the family with f/f' = x e^{-x}: the s^1 coefficient series is
    -sum alpha^n/n * (n+1)^{n-1}/n! and the s^0 series is
    (1/2) sum alpha^n/n * sum_{k<=n} n^k/k!, termwise to order N."""
    if N == 0:
        return True, {"order": 0, "note": "empty check"}
    st = stirling_terms(family("nu", N + 6), 2)

    s1_expected = PowerSeries(
        ALPHA,
        [Fraction(0)]
        + [
            -Fraction((n + 1) ** (n - 1), n * factorial(n))
            for n in range(1, N + 1)
        ],
    )
    g2_expected = PowerSeries(
        ALPHA,
        [Fraction(0)]
        + [
            Fraction(
                sum(Fraction(n**k, factorial(k)) for k in range(n + 1)), 2 * n
            )
            for n in range(1, N + 1)
        ],
    )
    ok_s1 = st.s1_regular.truncate(N).prefix_equal(s1_expected)
    ok_g2 = st.g[2].truncate(N).prefix_equal(g2_expected)
    return ok_s1 and ok_g2, {"order": N, "s1_ok": ok_s1, "g2_ok": ok_g2}

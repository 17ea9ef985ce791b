"""Sheffer extensions: sequences ell(D) applied to the binomial continuation,
their eigen-operator, the Sheffer resolvent identity, the lam-conjugated
word operators, and the Bernoulli-logarithm experiment.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .asymptotic import _VAR, AsymptoticSeries
from .grading import (
    GradedSeries,
    geometric_sum,
    op_sheffer,
    target_conjugated,
)
from .operators import DiffOperator, apply_Tn
from .parampoly import S, ParamPoly, lifted_values
from .polys import Poly
from .presets import family
from .series import _DOMAINS, OrderError, PowerSeries, SeriesError, _need_fraction, _series
from .umbral import (
    BinomialFamily,
    _continuation,
    _need_size,
    op_L,
    per_family,
    rename,
    sheffer_polys,
)


@dataclass(frozen=True)
class ShefferFamily:
    fam: BinomialFamily
    ell: PowerSeries
    tau_polys: tuple
    tau_symbolic: AsymptoticSeries

    def __getitem__(self, n: int) -> Poly:
        return self.tau_polys[n]


@per_family
def tau_seq(fam: BinomialFamily, ell: PowerSeries, N: int) -> ShefferFamily:
    """Polynomials from sum tau_n(a) x^n / n! = ell(phi(x)) exp(a phi(x)),
    plus the symbolic continuation ell(d/da) applied to the alpha^s series."""
    _need_fraction(fam.f, "tau_seq needs f")
    _need_fraction(ell, "tau_seq needs ell")
    if ell.coefficient(0) != 1:
        raise SeriesError("ell must have constant term 1")
    if fam.phi.order < N or ell.order < N:
        raise OrderError("family or ell truncation too small for tau_seq")

    phip = fam.phi.derive()
    ellphi = ell.truncate(fam.phi.order).compose(fam.phi)
    logd = ellphi.derive() / ellphi.truncate(ellphi.order - 1)
    d = [factorial(j) * phip.coefficient(j) for j in range(N)]
    e = [factorial(j) * logd.coefficient(j) for j in range(N)]
    polys = sheffer_polys(d, e, N)
    for n, p in enumerate(polys):
        if p.degree() != n or p.leading() != 1:
            raise SeriesError(f"tau_{n} is not monic of degree {n}")

    # the symbolic continuation, and the check that it specializes to
    # tau_n at s = n: its integer numerators at s = n by Horner's rule,
    # against tau_n's own numerators over its denominator
    nums, den = _continuation(fam, N, ell.num[: N + 1], ell.den)
    for n, p in enumerate(polys):
        for j, num in enumerate(nums):
            v = 0
            for c in reversed(num):
                v = v * n + c
            if v * p.den != (p.num[n - j] if j <= n else 0) * den:
                raise SeriesError(
                    f"symbolic tau does not specialize to tau_{n}"
                )
    body = _series(_VAR, *lifted_values(nums, den, S), _DOMAINS[ParamPoly])
    return ShefferFamily(fam, ell, polys, AsymptoticSeries._of(S, body))


# -- operators on alpha-polynomials ------------------------------------------------


def apply_d_series(h: PowerSeries, p: Poly) -> Poly:
    """h(d/da) acting on a polynomial (exact when h.order >= deg p)."""
    if h.order < p.degree():
        raise OrderError("operator series truncated below the polynomial degree")
    out = Poly()
    dp = p
    for j in range(p.degree() + 1):
        c = h.coefficient(j)
        if c:
            out = out + dp * c
        dp = dp.derive()
    return out


def apply_T(T: list, p: Poly) -> Poly:
    """T(alpha, d/da) p for T = sum alpha^a h_a(D), given as [(a, h_a), ...]."""
    out = Poly()
    for a, h in T:
        if a < 0:
            raise SeriesError("alpha powers in T must be nonnegative")
        out = out + apply_d_series(h, p).mul_x(a)
    return out


def theta_apply(sf: ShefferFamily, p: Poly) -> Poly:
    """ell(D) A_f D_f ell(D)^{-1} p  with A_f D_f = a * (f/f')(D)."""
    return _theta(sf, p, sf.ell.inv())


def _theta(sf: ShefferFamily, p: Poly, ell_inv: PowerSeries) -> Poly:
    """``theta_apply`` with ell(D)^{-1} given."""
    deg = p.degree() + 1
    need = max(deg, 1)
    ell = sf.ell
    fam = sf.fam
    if ell.order < need or fam.tau_f.order < need:
        raise OrderError("series truncated below the working degree")
    step1 = apply_d_series(ell_inv, p)
    step2 = apply_d_series(fam.tau_f, step1).mul_x()
    return apply_d_series(ell, step2)


def theta_check(sf: ShefferFamily, n_max: int):
    bad = []
    ell_inv = sf.ell.inv()
    for n in range(n_max + 1):
        if _theta(sf, sf[n], ell_inv) != sf[n] * n:
            bad.append(n)
    return not bad, {"n_max": n_max, "failures": bad}


# -- the Sheffer resolvent identity --------------------------------------------------


def ell_at_omega(sf: ShefferFamily, x_order: int) -> PowerSeries:
    if sf.ell.order < x_order or sf.fam.omega.order < x_order:
        raise OrderError("truncation too small for ell(omega(x))")
    return sf.ell.truncate(x_order).compose(sf.fam.omega.truncate(x_order))


def sheffer_resolvent_check(sf: ShefferFamily, T: list, s: int, depth: int):
    """Both pipelines of

        (alpha / tau_s) T(alpha, D) tau_{s-1}
            = (1 + a^{-1} d/domega - s a^{-1} ell(omega) L ell(omega)^{-1})^{-1}
              T(alpha, omega(x)) ell(omega(x)) f'(omega(x)) |_{x=0}

    for integer s >= 1 and T a finite list of (alpha power, series in D).
    """
    if s < 1:
        raise SeriesError("the direct side needs integer s >= 1")
    if len(sf.tau_polys) <= s:
        raise OrderError("tau sequence too short")
    fam = sf.fam
    lhs = AsymptoticSeries.from_poly_ratio(apply_T(T, sf[s - 1]).mul_x(), sf[s], depth)

    x_order = depth + 2
    ellw = ell_at_omega(sf, x_order)
    weight = ellw * fam.fprime_at_omega(x_order)
    conj = target_conjugated(fam, T, x_order)
    target = GradedSeries(conj.base, {n: p * weight for n, p in conj.parts.items()})
    op = op_sheffer(fam, ellw, Fraction(s))
    rhs = geometric_sum(op, target, depth).at_x0(depth)
    ok = AsymptoticSeries.equal_to_depth(lhs, rhs, depth)
    return ok, {
        "s": s,
        "depth": depth,
        "lhs": repr(lhs),
        "rhs": repr(rhs),
    }


# -- lam-conjugated word operators ----------------------------------------------------


def _sigma_lam(sf: ShefferFamily, var: str) -> tuple:
    """sigma = v/omega'(v) and lam = ell(omega(v)), in the variable v."""
    sigma = sf.fam.sigma(var)
    return sigma, rename(ell_at_omega(sf, sigma.order), var)


def build_Tn_ell(sf: ShefferFamily, n: int, var: str = "a") -> DiffOperator:
    """Head of the n-th lam-rewrite iterate with sigma -> v/omega'(v) and
    lam -> ell(omega(v)) substituted; reduces to the plain operator at ell = 1."""
    sigma, lam = _sigma_lam(sf, var)
    identity = DiffOperator.identity(var, sigma.order)
    return apply_Tn(identity, n, sigma, lam).nonzero()


def tn_ell_trend_check(
    sf: ShefferFamily, alpha: Fraction, s_values=(16, 32), n_terms: int = 1
):
    """Integer-index oracle for the lam-conjugated operators: the residual of

        tau_s'(s/alpha)/tau_s(s/alpha)
            ~ sum_n (-alpha)^n s^{-n} (T_n^ell omega)(alpha)

    after n <= n_terms must shrink like s^{-(n_terms+1)}."""
    alpha = Fraction(alpha)
    om = rename(sf.fam.omega, "a")
    sigma, lam = _sigma_lam(sf, "a")
    partial_terms = [apply_Tn(om, n, sigma, lam) for n in range(n_terms + 1)]

    residuals = []
    for s in s_values:
        if len(sf.tau_polys) <= s:
            raise OrderError("tau sequence too short for the trend oracle")
        x0 = Fraction(s) / alpha
        lhs = sf[s].derive().eval(x0) / sf[s].eval(x0)
        rhs = sum(
            (-alpha) ** n * Fraction(1, s**n) * t.eval_truncated(alpha)
            for n, t in enumerate(partial_terms)
        )
        residuals.append(lhs - rhs)
    ratio = abs(residuals[0]) / abs(residuals[1]) if residuals[1] else None
    expect = Fraction(s_values[1], s_values[0]) ** (n_terms + 1)
    ok = ratio is not None and Fraction(2, 3) * expect < ratio < Fraction(3, 2) * expect
    return ok, {
        "alpha": str(alpha),
        "s_values": list(s_values),
        "residual_ratio": float(ratio) if ratio else None,
        "expected_ratio": float(expect),
    }


# -- the Bernoulli-logarithm experiment ------------------------------------------------


def bernoulli_weight(order: int) -> PowerSeries:
    """The Bernoulli weight x/(e^x - 1) to the given order."""
    expm1 = PowerSeries(
        "x",
        [Fraction(0)] + [Fraction(1, factorial(n)) for n in range(1, order + 2)],
    )
    return expm1.div_var(1).inv()


def bernoulli_operator_log(depth: int) -> list:
    """alpha^{-k} coefficients of the displayed operator logarithm

        ln(1 + a^{-1} d/dx - s a^{-1} u L u^{-1}) . u |_{x=0},
        u = x/(e^x - 1),

    taken literally: plain d/dx and multiplication by u, not their
    omega-conjugated counterparts."""
    u = bernoulli_weight(depth + 2)
    uinv = u.inv()

    out = [ParamPoly()]
    g = u
    for k in range(1, depth + 1):
        lg = op_L(g * uinv)
        g = g.derive() - (u.truncate(lg.order) * lg).scale(S)
        out.append(ParamPoly.coerce(g.coefficient(0)) * Fraction((-1) ** (k - 1), k))
    return out


def bernoulli_log_experiment(depth: int) -> dict:
    """Per-coefficient diff report for the two candidate continuations B_s.

    Candidate "sheffer-exp1": tau with f = e^x - 1, ell = x/(e^x - 1).
    Candidate "classical": tau with f = x, ell = x/(e^x - 1), whose integer
    values are the classical Bernoulli polynomials.  For each candidate the
    report compares s * RHS_k against the alpha^{-k} coefficient of
    ln(B_s(alpha) alpha^{-s}), exactly in Q[s].

    The report depends on the depth alone, so it is computed once per depth
    (``_bernoulli_report``); each call returns its own copy.
    """
    _need_size(depth, "depth")
    return copy.deepcopy(_bernoulli_report(depth))


@lru_cache(maxsize=8)
def _bernoulli_report(depth: int) -> dict:
    rhs = bernoulli_operator_log(depth)
    order = depth + 4
    ell = bernoulli_weight(order)
    candidates = {
        "sheffer-exp1": tau_seq(family("exp1", order), ell, depth),
        "classical": tau_seq(family("id", order), ell, depth),
    }
    report: dict = {"depth": depth, "rhs_times_s": [repr(S * c) for c in rhs],
                    "note": (
                        "the displayed identity uses d/dx and multiplication by "
                        "x/(e^x-1) literally; for the classical (f = x) reading "
                        "these coincide with d/domega and ell(omega), for the "
                        "exp1 reading they do not"
                    ),
                    "candidates": {}}
    for name, sf in candidates.items():
        reg = AsymptoticSeries._of(ParamPoly(), sf.tau_symbolic.body)
        lg = reg.log()
        rows = []
        match_depth = depth
        for k in range(depth + 1):
            lhs_k = lg.coefficient(k)
            diff = lhs_k - S * rhs[k]
            rows.append(
                {
                    "k": k,
                    "lhs": repr(lhs_k),
                    "s_times_rhs": repr(S * rhs[k]),
                    "diff": repr(diff),
                    "match": diff.is_zero(),
                }
            )
            if not diff.is_zero() and match_depth == depth:
                match_depth = k - 1
        report["candidates"][name] = {
            "rows": rows,
            "exact_through_depth": match_depth,
        }
    return report

"""Independent brute-force oracles used by the tests.

Everything here deliberately avoids the code paths it is used to check:
Bernoulli numbers come from the defining recurrence, reversion coefficients
from the coefficient-extraction inversion formula, exponentials from raw
partial sums.  ``naive_mul``, ``naive_div``, ``naive_compose``,
``naive_revert``, ``naive_add``, ``naive_scale``, ``naive_derive``,
``naive_integrate``, ``naive_exp``, ``naive_log``, ``naive_eval_truncated``,
``naive_p_seq``, ``naive_tau_polys``,
``naive_parampoly_mul``, ``naive_parampoly_eval`` and ``naive_tau_symbolic``
are the term-by-term loops the integer kernels (and the integer symbolic
continuation of ``tau_seq``) replaced, kept to check that the fast paths
return the same rationals.  ``naive_terms_add``, ``naive_terms_scale``,
``naive_terms_derive`` and ``naive_terms_div_symbol`` do the other
``ParamPoly`` operations on its ``Fraction`` terms, one monomial at a time,
and return the resulting terms dict.  ``naive_asym_mul``,
``naive_asym_div`` and ``naive_asym_log`` are the alpha-expansion loops that
``AsymptoticSeries`` replaced by ``PowerSeries`` operations: they keep ln(alpha)
out of ``ParamPoly`` and carry each coefficient as a tuple of its
ln(alpha)^0, ln(alpha)^1, ... parts, with the logarithm as the power sum
sum (-1)^{j+1} u^j / j.  ``word_to_diffop`` and ``ncpoly_to_diffop``
realize the grade operators word by word from ``ncwords.head_word_poly``,
the route ``operators.apply_Tn``'s right-to-left matrix scheme replaced;
``naive_apply_Tn`` is that scheme over ``Fraction`` series, with operators
added, scaled, multiplied and differentiated by ``op_add``, ``op_scale``,
``op_lmul`` and ``op_derive``, which share no code with ``umbralog``'s
integer kernel.  ``q_table_by_powers`` builds the q tables at integer
exponents from the binomial expansion of f(x+t) and plain two-dimensional
products, without ``umbral.q_table``'s power recurrence.
``q_table_by_series`` is that recurrence on ``Fraction`` series in t, and
``p_symbolic_by_binom`` sums binom(s-1, k) q_k(s) as ``ParamPoly``
products: the routes ``q_table`` and ``p_symbolic`` had before they ran on
integer polynomials in the exponent.  ``falling`` is the falling product
``naive_tau_symbolic`` and ``p_symbolic_by_binom`` rebuild.
``NaivePoly`` and ``naive_divided_difference`` are ``polys.Poly`` as it was
before it ran on integer numerators over one denominator: one normalised
``Fraction`` (or ``NaivePoly``, in two variables) per coefficient.
``pow_by_exp_log`` is the route ``PowerSeries.pow_param`` had before it ran
Miller's power recurrence: exp(e log g).  ``lhs_log_by_series``,
``rhs_log_by_x_op`` and ``rhs_exp_by_derive`` are the sides of
``stirling.verify_log_identity`` as whole-series operations, the routes its
per-family coefficient recurrences replaced: the logarithm of
``p_symbolic`` by ``AsymptoticSeries.log``, and the iterates of the step
s L - d/domega and of g -> g' - s u L g on truncated series.
``naive_op_ratio_nested``, ``naive_op_ratio_split``,
``naive_op_shifted_eval`` and ``naive_op_sheffer`` are the graded operators
as series closures, and ``naive_geometric_sum`` sums (1 - X)^{-1} with them
by ``PowerSeries`` operations; ``closed_form_grades_by_series`` is the
right side of ``conjugation.resolvent_closed_form`` as series sums: the
routes ``grading`` and ``conjugation`` had before they ran on integer
entries keyed by alpha grade.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from umbralog.asymptotic import AsymptoticSeries
from umbralog.conjugation import ConjugationContext, g_table
from umbralog.grading import GradedSeries
from umbralog.ncwords import D, LAM, LAMINV, SIGMA, NCPoly, head_word_poly, nu_bar_step
from umbralog.operators import DiffOperator
from umbralog.parampoly import SYMBOLS, S, ParamPoly, binom_poly
from umbralog.polys import Poly
from umbralog.presets import family
from umbralog.series import OrderError, PowerSeries, SeriesError
from umbralog.umbral import BinomialFamily, op_L, p_symbolic, q_zero_table, rename


class NaivePoly:
    """Dense polynomial, ascending coefficients: Fractions, or NaivePolys
    for a polynomial in two variables, one arithmetic operation per term."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = [Fraction(c) if isinstance(c, int) else c for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @staticmethod
    def const(x) -> "NaivePoly":
        return NaivePoly([x])

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coefficient(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = NaivePoly.const(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return NaivePoly([self.coefficient(i) + other.coefficient(i) for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return NaivePoly([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = NaivePoly.const(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return NaivePoly([c * other for c in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return NaivePoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return NaivePoly(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return NaivePoly([c / other for c in self.coeffs])

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = NaivePoly.const(other)
        return self.coeffs == other.coeffs

    def mul_x(self, k: int = 1) -> "NaivePoly":
        return NaivePoly((Fraction(0),) * k + self.coeffs) if self.coeffs else self

    def derive(self, n: int = 1) -> "NaivePoly":
        out = self
        for _ in range(n):
            out = NaivePoly([i * c for i, c in enumerate(out.coeffs)][1:])
        return out

    def eval(self, x0):
        acc = Fraction(0) * x0
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return acc

    def taylor(self) -> "NaivePoly":
        """p(x + y): the y^j coefficient is p^{(j)}(x)/j!."""
        out, d = [], self
        for j in range(1, len(self.coeffs) + 1):
            out.append(d)
            d = d.derive() / j
        return NaivePoly(out)


def naive_divided_difference(g: NaivePoly) -> NaivePoly:
    """The p^k coefficient is the tail sum_{j >= k} g_j x^{j-k}."""
    return NaivePoly([NaivePoly(g.coeffs[k:]) for k in range(len(g.coeffs))])


def bernoulli_numbers(n_max: int) -> list:
    """B_0..B_n from sum_{k<=n} binom(n+1,k) B_k = 0."""
    b = [Fraction(1)]
    for n in range(1, n_max + 1):
        acc = Fraction(0)
        for k in range(n):
            acc += comb(n + 1, k) * b[k]
        b.append(-acc / (n + 1))
    return b


def stirling_term_closed_form(spec: str, k: int, order: int) -> PowerSeries:
    """g_k(alpha), k >= 3, in closed form, for the families "id" and "exp1".

    For f = x every g_k vanishes.  For f = e^x - 1, g_k = 0 for even k and

        g_{2m+1} = B_{2m} / (2m (2m-1)) alpha^{2m-1} (1 - (1-alpha)^{1-2m}),

    where 1 - (1-alpha)^{1-2m} = -sum_{j>=1} binom(2m-2+j, j) alpha^j."""
    coeffs = [Fraction(0)] * (order + 1)
    if spec == "exp1" and k % 2:
        m = (k - 1) // 2
        c = bernoulli_numbers(2 * m)[2 * m] / (2 * m * (2 * m - 1))
        for j in range(1, order - 2 * m + 2):
            coeffs[2 * m - 1 + j] = -c * comb(2 * m - 2 + j, j)
    elif spec != "id" and spec != "exp1":
        raise ValueError(f"no closed form for {spec!r}")
    return PowerSeries("a", coeffs)


def lagrange_inverse_coefficients(u: PowerSeries, n_max: int) -> list:
    """[x^n] of the compositional inverse via the classical extraction

        [x^n] u^inv = (1/n) [x^{n-1}] (x/u(x))^n

    computed with plain series products only (no Newton iteration)."""
    x_over_u = u.div_var(1).inv()
    out = [Fraction(0)]
    for n in range(1, n_max + 1):
        power = x_over_u.pow_int(n)
        out.append(power.coefficient(n - 1) / n)
    return out


def exp_by_partial_sums(u: PowerSeries) -> PowerSeries:
    """exp(u) as sum u^k/k!, valid because u has zero constant term."""
    acc = PowerSeries.one(u.var, u.order)
    term = PowerSeries.one(u.var, u.order)
    for k in range(1, u.order + 1):
        term = term * u
        acc = acc + term.scale(Fraction(1, factorial(k)))
    return acc


def pow_by_exp_log(g: PowerSeries, e) -> PowerSeries:
    """g^e for a unit series g as exp(e log g)."""
    if g.coeffs[0] != 1:
        raise SeriesError("symbolic powers need constant term 1")
    return g.log().scale(e).exp()


def lhs_log_by_series(fam: BinomialFamily, depth: int) -> list:
    """(1/s) ln(alpha^{-s} p_s(alpha)): Q[s] coefficients of alpha^0..alpha^{-depth}."""
    lg = AsymptoticSeries(0, p_symbolic(fam, depth).coeffs).log()
    return [lg.coefficient(k).div_exact_symbol("s") for k in range(depth + 1)]


def rhs_log_by_x_op(fam: BinomialFamily, depth: int) -> list:
    """-(1/k) (s L - d/domega)^k (omega(x)/x) at x = 0, for k = 0..depth."""
    g = fam.omega.truncate(depth + 3).div_var(1)
    out = [ParamPoly()]
    for k in range(1, depth + 1):
        g = fam.x_op(g, S)
        out.append(ParamPoly.coerce(g.coefficient(0)) * Fraction(-1, k))
    return out


def rhs_exp_by_derive(fam: BinomialFamily, depth: int) -> list:
    """(-1)^{m-1} (m-1)!/m! [x^0] g_m for g_0 = u = x f'/f and
    g_m = g_{m-1}' - s u L g_{m-1}, for m = 0..depth."""
    u = fam.tau_f.truncate(depth + 3).div_var(1).inv()
    g = u
    out = [ParamPoly()]
    for m in range(1, depth + 1):
        ell = op_L(g)
        g = g.derive() - (u.truncate(ell.order) * ell).scale(S)
        out.append(ParamPoly.coerce(g.coefficient(0)) * Fraction((-1) ** (m - 1), m))
    return out


def falling_factorial_poly(n: int):
    """alpha (alpha-1) ... (alpha-n+1) as an exact polynomial."""
    p = Poly.const(1)
    for j in range(n):
        p = p * Poly([-Fraction(j), Fraction(1)])
    return p


def abel_poly(n: int, a: Fraction):
    """alpha (alpha + a n)^{n-1}, the sequence attached to x e^{-a x}."""
    if n == 0:
        return Poly.const(1)
    p = Poly.const(1)
    for _ in range(n - 1):
        p = p * Poly([a * n, Fraction(1)])
    return p.mul_x()


def naive_mul(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Truncated product, one ring operation per term."""
    n = min(a.order, b.order)
    ac, bc = a.coeffs, b.coeffs
    out = [a.czero + b.czero] * (n + 1)
    for i in range(n + 1):
        x = ac[i]
        if x == 0:
            continue
        for j in range(n + 1 - i):
            y = bc[j]
            if y == 0:
                continue
            out[i + j] = out[i + j] + x * y
    return PowerSeries(a.var, out)


def naive_div(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Truncated quotient from q_k = (a_k - sum_{j<k} q_j b_{k-j}) / b_0,
    one ring operation per term."""
    n = min(a.order, b.order)
    ac, bc = a.coeffs, b.coeffs
    inv0 = Fraction(1) / bc[0]
    out = []
    for k in range(n + 1):
        acc = ac[k]
        for j in range(k):
            acc = acc - out[j] * bc[k - j]
        out.append(acc * inv0)
    return PowerSeries(a.var, out)


def naive_compose(outer: PowerSeries, inner: PowerSeries) -> PowerSeries:
    """outer(inner) by Horner's rule over ``naive_mul``."""
    n = min(outer.order, inner.order)
    inner = inner.truncate(n)
    acc = PowerSeries.zero(inner.var, n)
    oc = outer.coeffs
    for k in range(outer.order, -1, -1):
        acc = naive_mul(acc, inner) + oc[k]
    return acc


def naive_revert(u: PowerSeries) -> PowerSeries:
    """Functional inverse by Newton iteration over ``naive_compose`` and
    ``naive_div``."""
    v = PowerSeries.identity(u.var, 1)
    while v.order < u.order:
        k = v.order
        m = min(2 * k + 1, u.order)
        w = u.truncate(m)
        v = PowerSeries(u.var, v.coeffs + (Fraction(0),) * (m - k))
        err = naive_compose(w, v) - PowerSeries.identity(u.var, m)
        denom = naive_compose(w.derive(), v.truncate(m - 1))
        v = v - naive_div(err.div_var(k + 1), denom).mul_var(k + 1)
    return v


def naive_add(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Truncated sum, one ring operation per term."""
    ac, bc = a.coeffs, b.coeffs
    return PowerSeries(a.var, [ac[k] + bc[k] for k in range(min(a.order, b.order) + 1)])


def naive_scale(a: PowerSeries, c) -> PowerSeries:
    return PowerSeries(a.var, [x * c for x in a.coeffs])


def naive_derive(a: PowerSeries) -> PowerSeries:
    c = a.coeffs
    return PowerSeries(a.var, [c[k] * k for k in range(1, len(c))])


def naive_integrate(a: PowerSeries) -> PowerSeries:
    return PowerSeries(a.var, (a.czero,) + tuple(c / (k + 1) for k, c in enumerate(a.coeffs)))


def naive_exp(u: PowerSeries) -> PowerSeries:
    """exp(u) from n e_n = sum_k k u_k e_{n-k}, one ring operation per term."""
    c = u.coeffs
    e0 = u.czero + 1
    out = [e0]
    for n in range(1, len(c)):
        acc = u.czero
        for k in range(1, n + 1):
            acc = acc + (k * c[k]) * out[n - k]
        out.append(acc / Fraction(n))
    return PowerSeries(u.var, out)


def naive_log(u: PowerSeries) -> PowerSeries:
    """log(u) = integral of u' / u, over the loops above."""
    return naive_integrate(naive_div(naive_derive(u), u.truncate(u.order - 1)))


def naive_eval_truncated(u: PowerSeries, x0: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(u.coeffs):
        acc = acc * x0 + c
    return acc


def naive_p_seq(fam: BinomialFamily, N: int) -> list:
    """p_0..p_N from the convolution recurrence in Fraction arithmetic."""
    phip = fam.phi.derive()
    d = [factorial(j) * phip.coefficient(j) for j in range(N)]
    polys = [Poly.const(1)]
    for n in range(N):
        acc = Poly()
        for k in range(n + 1):
            c = comb(n, k) * d[n - k]
            if c:
                acc = acc + polys[k] * c
        polys.append(acc.mul_x())
    return polys


def q_table_by_powers(f: PowerSeries, n_max: int, t_order: int, m: int) -> list:
    """n! [x^n t^j] (x f'(t) / (f(x+t) - f(t)))^(-m) for an integer m >= 0,
    as rows n = 0..n_max of t-coefficients j = 0..t_order: f(x+t) expanded
    binomially, [x^i t^j] f(x+t) = f_{i+j} C(i+j, i), each x-row of
    (f(x+t) - f(t)) / x divided by f'(t), and that raised to the m-th power
    by plain two-dimensional products."""
    fk = [f.coefficient(k) for k in range(n_max + t_order + 2)]
    fp = [(j + 1) * fk[j + 1] for j in range(t_order + 1)]

    def row(i):  # x^i of (f(x+t) - f(t)) / (x f'(t))
        num = [fk[i + 1 + j] * comb(i + 1 + j, i + 1) for j in range(t_order + 1)]
        out: list = []
        for j in range(t_order + 1):
            acc = num[j] - sum(out[k] * fp[j - k] for k in range(j))
            out.append(acc / fp[0])
        return out

    g = [row(i) for i in range(n_max + 1)]
    power = [[Fraction(int(i == j == 0)) for j in range(t_order + 1)]
             for i in range(n_max + 1)]
    for _ in range(m):
        nxt = [[Fraction(0)] * (t_order + 1) for _ in range(n_max + 1)]
        for i1 in range(n_max + 1):
            for j1 in range(t_order + 1):
                for i2 in range(n_max + 1 - i1):
                    for j2 in range(t_order + 1 - j1):
                        nxt[i1 + i2][j1 + j2] += power[i1][j1] * g[i2][j2]
        power = nxt
    return [[factorial(i) * x for x in power[i]] for i in range(n_max + 1)]


def q_table_by_series(fam: BinomialFamily, n_max: int, t_order: int, exponent=S) -> tuple:
    """``umbral.q_table`` by Miller's recurrence on ``Fraction`` series in t:
    with c_k = f^{(k+1)}(t) / ((k+1)! f'(t)) and a = -exponent, w_0 = 1 and
    n w_n = sum_{k=1..n} ((a+1) k - n) c_k w_{n-k}, one series product and
    sum per term; entry n is n! w_n in the exponent's domain (``Fraction``
    for an ``int`` or ``Fraction`` exponent)."""
    need = n_max + 1 + t_order
    if fam.f.order < need:
        raise OrderError(
            f"family order {fam.order} too small (need {need}) for the q table"
        )
    deriv = rename(fam.fprime, "t")
    fp_t = deriv.truncate(t_order)
    c = [PowerSeries.one("t", t_order)]
    for k in range(1, n_max + 1):
        deriv = deriv.derive()
        c_k = deriv.truncate(t_order) / fp_t
        c.append(c_k.scale(Fraction(1, factorial(k + 1))))

    a1 = 1 - exponent  # a + 1
    w = [PowerSeries.one("t", t_order, fam.f.czero + exponent * 0)]
    for n in range(1, n_max + 1):
        total = weighted = c[1] * w[n - 1]
        for k in range(2, n + 1):
            p = c[k] * w[n - k]
            total, weighted = total + p, weighted + p.scale(k)
        w.append(weighted.scale(a1 * Fraction(1, n)) - total)

    return tuple(wn.scale(factorial(n)) for n, wn in enumerate(w))


def falling(base: ParamPoly, m: int) -> ParamPoly:
    """Falling product base*(base-1)*...*(base-m+1)."""
    out = ParamPoly.const(1)
    for j in range(m):
        out = out * (base - Fraction(j))
    return out


def p_symbolic_by_binom(fam: BinomialFamily, N: int) -> AsymptoticSeries:
    """``umbral.p_symbolic`` as the sum of binom(s-1, k) q_k(s) alpha^{s-k},
    each binomial expanded by ``binom_poly`` and multiplied by the q_k of
    ``q_zero_table``."""
    q = q_zero_table(fam, N)
    return AsymptoticSeries(S, [binom_poly(S - Fraction(1), k) * q[k] for k in range(N + 1)])


def naive_tau_polys(fam: BinomialFamily, ell: PowerSeries, N: int) -> list:
    """tau_0..tau_N of ``sheffer.tau_seq`` from its convolution recurrence,
    tau_{n+1} = sum_k C(n, k) (x d_{n-k} + e_{n-k}) tau_k, in ``Poly``
    arithmetic."""
    phip = fam.phi.derive()
    ellphi = ell.truncate(fam.phi.order).compose(fam.phi)
    logd = ellphi.derive() / ellphi.truncate(ellphi.order - 1)
    d = [factorial(j) * phip.coefficient(j) for j in range(N)]
    e = [factorial(j) * logd.coefficient(j) for j in range(N)]
    polys = [Poly.const(1)]
    for n in range(N):
        acc = Poly()
        for k in range(n + 1):
            c = comb(n, k)
            acc = acc + (polys[k].mul_x() * (c * d[n - k]))
            acc = acc + (polys[k] * (c * e[n - k]))
        polys.append(acc)
    return polys


def naive_parampoly_mul(a: ParamPoly, b: ParamPoly) -> ParamPoly:
    """Product with one Fraction multiply and add per pair of terms."""
    out: dict = {}
    for k1, v1 in a.terms.items():
        for k2, v2 in b.terms.items():
            k = (k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2])
            w = out.get(k, Fraction(0)) + v1 * v2
            if w:
                out[k] = w
            else:
                out.pop(k, None)
    return ParamPoly(out)


def _nonzero(terms: dict) -> dict:
    return {k: v for k, v in terms.items() if v}


def naive_terms_add(a: ParamPoly, b: ParamPoly) -> dict:
    """The terms of a + b, one Fraction add per shared monomial."""
    out = a.terms
    for k, v in b.terms.items():
        out[k] = out.get(k, Fraction(0)) + v
    return _nonzero(out)


def naive_terms_scale(a: ParamPoly, c: Fraction) -> dict:
    """The terms of c * a, one Fraction multiply per term."""
    return _nonzero({k: v * c for k, v in a.terms.items()})


def naive_terms_derive(a: ParamPoly, name: str) -> dict:
    """The terms of d/d(name) a, term by term."""
    i = SYMBOLS.index(name)
    out: dict = {}
    for k, v in a.terms.items():
        if k[i]:
            key = tuple(d - (j == i) for j, d in enumerate(k))
            out[key] = out.get(key, Fraction(0)) + v * k[i]
    return _nonzero(out)


def naive_terms_div_symbol(a: ParamPoly, name: str) -> dict:
    """The terms of a / name; a ValueError if some term lacks the symbol."""
    i = SYMBOLS.index(name)
    if not all(k[i] for k in a.terms):
        raise ValueError(f"not divisible by {name}")
    return {tuple(d - (j == i) for j, d in enumerate(k)): v for k, v in a.terms.items()}


def naive_parampoly_eval(p: ParamPoly, **values) -> Fraction:
    """Sum of the terms, each evaluated in Fraction arithmetic."""
    acc = Fraction(0)
    for k, v in p.terms.items():
        term = v
        for name, d in zip(SYMBOLS, k):
            if d:
                term *= Fraction(values[name]) ** d
        acc += term
    return acc


def naive_tau_symbolic(fam: BinomialFamily, ell: PowerSeries, depth: int) -> list:
    """Coefficients of alpha^{s-j}, j <= depth, of the symbolic tau:

        sum_{k+m=j} binom(s-1,k) q_k(s) ell_m (s-k)(s-k-1)...(s-k-m+1)

    with every binomial and falling factorial rebuilt from scratch.  Its
    products go through ``ParamPoly.__mul__``, which is checked on its own
    against ``naive_parampoly_mul``."""
    S = ParamPoly.symbol("s")
    q = q_zero_table(fam, depth)
    coeffs = []
    for j in range(depth + 1):
        acc = ParamPoly()
        for k in range(j + 1):
            m = j - k
            acc = acc + (
                binom_poly(S - 1, k)
                * q[k]
                * ell.coefficient(m)
                * falling(S - Fraction(k), m)
            )
        coeffs.append(acc)
    return coeffs


# -- alpha-expansions with ln(alpha) as a tuple index ------------------------------


def _ln_trim(parts) -> tuple:
    parts = [ParamPoly.coerce(p) for p in parts]
    while len(parts) > 1 and parts[-1].is_zero():
        parts.pop()
    return tuple(parts)


def _ln_add(a, b) -> tuple:
    n = max(len(a), len(b))
    zero = ParamPoly()
    return _ln_trim(
        [(a[i] if i < len(a) else zero) + (b[i] if i < len(b) else zero) for i in range(n)]
    )


def _ln_mul(a, b) -> tuple:
    out = [ParamPoly() for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _ln_trim(out)


def _ln_scale(a, c) -> tuple:
    return _ln_trim([x * c for x in a])


def _ln_is_zero(a) -> bool:
    return all(x.is_zero() for x in a)


def ln_split(p: ParamPoly) -> tuple:
    """p as the tuple of its L^0, L^1, ... parts, each free of L."""
    i = SYMBOLS.index("L")
    parts: dict = {}
    for k, v in p.terms.items():
        rest = k[:i] + (0,) + k[i + 1:]
        parts.setdefault(k[i], {})[rest] = v
    top = max(parts, default=0)
    return _ln_trim([ParamPoly(parts.get(d, {})) for d in range(top + 1)])


def naive_asym_mul(a: list, b: list) -> list:
    """Product of two lists of ln-tuples, to the smaller depth."""
    n = min(len(a), len(b)) - 1
    out = [(ParamPoly(),) for _ in range(n + 1)]
    for i in range(n + 1):
        if _ln_is_zero(a[i]):
            continue
        for j in range(n + 1 - i):
            if _ln_is_zero(b[j]):
                continue
            out[i + j] = _ln_add(out[i + j], _ln_mul(a[i], b[j]))
    return out


def naive_asym_div(a: list, b: list) -> list:
    """Long division by a list of ln-tuples that leads with 1."""
    assert b[0] == (ParamPoly.const(1),)
    n = min(len(a), len(b)) - 1
    out: list = []
    for k in range(n + 1):
        acc = a[k]
        for j in range(k):
            acc = _ln_add(acc, _ln_scale(_ln_mul(out[j], b[k - j]), Fraction(-1)))
        out.append(acc)
    return out


def naive_asym_log(a: list, exponent: ParamPoly) -> list:
    """ln(alpha^exponent * sum a_k alpha^{-k}) for a list leading with 1:
    exponent in the ln(alpha)^1 slot of the constant term, plus the power
    sum of u = sum_{k >= 1} a_k alpha^{-k}."""
    assert a[0] == (ParamPoly.const(1),)
    n = len(a) - 1
    u = [(ParamPoly(),)] + list(a[1:])
    acc = [(ParamPoly(),)] * (n + 1)
    power = None
    for j in range(1, n + 1):
        power = u if power is None else naive_asym_mul(power, u)
        c = Fraction((-1) ** (j + 1), j)
        acc = [_ln_add(x, _ln_scale(y, c)) for x, y in zip(acc, power)]
    acc[0] = _ln_add(acc[0], (ParamPoly(), exponent))
    return acc


# -- grade operators, word by word ------------------------------------------------


def op_add(a: DiffOperator, b: DiffOperator) -> DiffOperator:
    """a + b, order by order; a shared order adds its coefficients."""
    terms = dict(a.terms)
    for j, c in b.terms.items():
        terms[j] = terms[j] + c if j in terms else c
    return DiffOperator(a.var, terms)


def op_scale(a: DiffOperator, c) -> DiffOperator:
    return DiffOperator(a.var, {j: x.scale(c) for j, x in a.terms.items()})


def op_lmul(m: PowerSeries, a: DiffOperator) -> DiffOperator:
    """m∘a: every coefficient times the series m."""
    return DiffOperator(a.var, {j: m * c for j, c in a.terms.items()})


def op_derive(a: DiffOperator) -> DiffOperator:
    """D∘a = sum_j c_j' d^j + c_j d^{j+1}, by the product rule."""
    if any(c.order < 1 for c in a.terms.values()):
        raise OrderError("operator coefficient truncated away; increase the family order")
    terms = a.terms.items()
    return op_add(
        DiffOperator(a.var, {j: c.derive() for j, c in terms}),
        DiffOperator(a.var, {j + 1: c for j, c in terms}),
    )


def word_to_diffop(
    w: tuple, sigma: PowerSeries, lam: PowerSeries | None = None
) -> DiffOperator:
    """Realize one E-free word, rightmost letter acting first."""
    subs = {SIGMA: sigma}
    if lam is not None:
        subs[LAM] = lam
        subs[LAMINV] = lam.inv()
    op = DiffOperator.identity(sigma.var, sigma.order)
    for letter in reversed(w):
        if letter == D:
            op = op_derive(op)
        elif letter in subs:
            op = op_lmul(subs[letter], op)
        else:
            raise SeriesError(f"no series substitution for letter {letter!r}")
    return op.nonzero()


def ncpoly_to_diffop(
    p: NCPoly, sigma: PowerSeries, lam: PowerSeries | None = None
) -> DiffOperator:
    out = DiffOperator(sigma.var, {})
    for w, c in p.terms.items():
        out = op_add(out, op_scale(word_to_diffop(w, sigma, lam), c)).nonzero()
    return out


def same_series(a: PowerSeries, b: PowerSeries) -> bool:
    """Equal variable and coefficient tuples, so equal truncation orders."""
    return a.var == b.var and a.coeffs == b.coeffs


def same_operator(a: DiffOperator, b: DiffOperator) -> bool:
    """The same derivative orders, each with a ``same_series`` coefficient."""
    return set(a.terms) == set(b.terms) and all(
        same_series(c, b.terms[j]) for j, c in a.terms.items()
    )


def word_Tn(fam: BinomialFamily, n: int, var: str = "s") -> DiffOperator:
    """The grade-n operator from the 3^(n-1) head words."""
    return ncpoly_to_diffop(head_word_poly(n), fam.sigma(var))


@lru_cache(maxsize=None)
def cached_word_Tn(spec: str, order: int, n: int, var: str = "s") -> DiffOperator:
    return word_Tn(family(spec, order), n, var)


def word_Tn_ell(sigma: PowerSeries, lam: PowerSeries, n: int) -> DiffOperator:
    """The lam-rewrite's grade-n operator from its head words."""
    return ncpoly_to_diffop(head_word_poly(n, step=nu_bar_step), sigma, lam)


def naive_apply_Tn(x, n: int, sigma: PowerSeries, lam: PowerSeries | None = None):
    """The right-to-left matrix scheme of ``operators.apply_Tn`` with one
    ``PowerSeries`` or ``DiffOperator`` operation per step: for k = n .. 1,
    row i of the new vector is sigma (A_i x_0 - B x_{i+1}/(i+1)
    + x_{i+2}/(i+2)), with B = D (or lam^{-1} D lam) and A_i as documented
    there."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    on_operators = isinstance(x, DiffOperator)
    lam_inv = None if lam is None else lam.inv()

    def mul(m, y):  # m∘y
        return op_lmul(m, y) if on_operators else m * y

    def derive(y):
        return op_derive(y) if on_operators else y.derive()

    def add(y, z):
        return op_add(y, z) if on_operators else y + z

    def scale(y, c):
        return op_scale(y, c) if on_operators else y.scale(c)

    def B(y):
        return derive(y) if lam is None else mul(lam_inv, derive(mul(lam, y)))

    vec = [x]
    for k in range(n, 0, -1):
        d = [vec[0]]  # D^j x_0
        for _ in range(2 * k):
            d.append(derive(d[-1]))
        new = []
        for i in range(2 * k - 1):
            a, b = Fraction(1, i + 1), Fraction(1, i + 2)
            if lam is None:
                row = scale(d[i + 2], a * b)
            else:
                row = add(scale(B(d[i + 1]), a), scale(d[i + 2], -b))
            if len(vec) > 1:
                row = add(add(row, scale(B(vec[i + 1]), -a)), scale(vec[i + 2], b))
            new.append(mul(sigma, row))
        vec = new
    return vec[0]


# -- graded inversion, closure by closure ----------------------------------------


def naive_op_ratio_nested(fam: BinomialFamily, s_val, depth: int) -> list:
    """The pieces of ``grading.op_ratio_nested`` as series closures."""

    def piece(m: int):
        sign = Fraction((-1) ** m)

        def fn(g: PowerSeries) -> PowerSeries:
            h = op_L(g)
            for _ in range(m):
                h = fam.d_domega(h)
            return h.scale(sign).scale(s_val)

        return (1 + m, fn)

    return [piece(m) for m in range(depth)]


def naive_op_ratio_split(fam: BinomialFamily, s_val) -> list:
    """``grading.op_ratio_split`` as one closure, the step s L - d/domega."""
    return [(1, lambda g: fam.x_op(g, s_val))]


def naive_op_shifted_eval(fam: BinomialFamily, s_val, depth: int) -> list:
    """The pieces of ``grading.op_shifted_eval`` as series closures."""

    def piece(j: int):
        def fn(g: PowerSeries) -> PowerSeries:
            h = g
            for _ in range(j):
                h = op_L(h).scale(s_val)
            return -fam.d_domega(h)

        return (1 + j, fn)

    return [piece(j) for j in range(depth)]


def naive_op_sheffer(fam: BinomialFamily, ell_omega: PowerSeries, s_val) -> list:
    """The pieces of ``grading.op_sheffer`` as series closures."""
    inv_ell = ell_omega.inv()
    return [
        (1, lambda g: (ell_omega * op_L(g * inv_ell)).scale(s_val)),
        (1, lambda g: -fam.d_domega(g)),
    ]


def _nonzero_parts(parts: dict) -> dict:
    return {n: p for n, p in parts.items() if not p.is_zero()}


def naive_geometric_sum(pieces: list, target: GradedSeries, depth: int) -> GradedSeries:
    """(1 - X)^{-1} target = sum_k X^k target by ``PowerSeries`` operations,
    the route ``grading.geometric_sum`` had: each closure piece (delta, fn)
    maps a part at grade n to one at n + delta, shared grades add (truncated
    to the shorter order, as series addition does), and zero parts are
    dropped after every sum."""
    total = frontier = {n: p for n, p in target.parts.items() if n <= depth}
    while True:
        out: dict = {}
        for n, p in frontier.items():
            for delta, fn in pieces:
                m = n + delta
                if m <= depth:
                    q = fn(p)
                    out[m] = out[m] + q if m in out else q
        frontier = _nonzero_parts(out)
        if not frontier:
            return GradedSeries(target.base, total)
        parts = dict(total)
        for n, p in frontier.items():
            parts[n] = parts[n] + p if n in parts else p
        total = _nonzero_parts(parts)


def closed_form_grades_by_series(ctx: ConjugationContext, g: PowerSeries, depth_x: int) -> dict:
    """The right side of ``conjugation.resolvent_closed_form`` by series
    sums, the loop its integer lift replaced: grade m (alpha^{-m}) starts
    at ell_m, and each (k, j) adds conj * omega^{k+1+j} scaled by
    (-1)^j beta / (k! j!) times g_k at grade -(1+j) and times -ell_m q_k at
    grade m - (1+j)."""
    fam, s_val, depth_a, x_order = ctx.fam, ctx.s_val, ctx.depth, ctx.x_order
    ell_depth = depth_a + depth_x + 2
    col0 = [g.coefficient(n) * Fraction(factorial(n)) for n in range(ell_depth + 1)]
    table = g_table(fam, col0, ell_depth, s_val)
    ell = [table[k][0] for k in range(ell_depth + 1)]
    q = q_zero_table(fam, depth_x + 1, exponent=s_val)

    zero_x = PowerSeries.zero(fam.f.var, x_order)
    grades: dict = {m: zero_x + ell[m] for m in range(depth_a + 1)}
    om = ctx.omega.truncate(x_order)
    om_pows = [PowerSeries.one(fam.f.var, x_order)]
    for _ in range(depth_x + 1):
        om_pows.append((om_pows[-1] * om).truncate(x_order))

    def add_to(m: int, series: PowerSeries):
        grades[m] = grades[m] + series if m in grades else series

    for k in range(depth_x + 1):
        for j in range(depth_x + 1 - k):
            beta = Fraction(factorial(j))
            for i in range(j + 1):
                beta /= k + 1 + i - s_val
            base = (
                ctx.conj
                * om_pows[k + 1 + j].scale(
                    Fraction((-1) ** j, factorial(k) * factorial(j)) * beta
                )
            ).truncate(x_order)
            m0 = -(1 + j)
            add_to(m0, base.scale(col0[k]))
            for m in range(ell_depth + 1):
                if m0 + m <= depth_a:
                    add_to(m0 + m, base.scale(-ell[m] * q[k]))
    return grades

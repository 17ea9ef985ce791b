"""Everything derived directly from a series f in x + x^2 C[[x]]:

the change-of-variable series (f/f', its inverse omega, the functional
inverse phi), the binomial-type polynomial sequence, the q-coefficient
tables, the symbolic continuation alpha^s + lower, and the two routes to
the ratio expansion p_{s+H}/p_s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd, lcm

from .asymptotic import AsymptoticSeries, LinForm
from .parampoly import ParamPoly, _lift, binom_poly
from .polys import Poly
from .series import OrderError, PowerSeries, SeriesError

S = ParamPoly.symbol("s")
H = ParamPoly.symbol("H")


def rename(u: PowerSeries, var: str) -> PowerSeries:
    return PowerSeries(var, u.coeffs, u.czero)


class FamilyError(SeriesError):
    pass


@dataclass(frozen=True)
class BinomialFamily:
    f: PowerSeries
    fprime: PowerSeries
    phi: PowerSeries          # functional inverse of f
    tau_f: PowerSeries        # f/f'
    omega: PowerSeries        # functional inverse of f/f'
    order: int

    @property
    def omega_order(self) -> int:
        return self.omega.order

    def omega_prime(self) -> PowerSeries:
        return self.omega.derive()

    def inv_omega_prime(self) -> PowerSeries:
        return self.omega.derive().inv()

    def sigma(self, var: str = "s") -> PowerSeries:
        """The series v/omega'(v) (zero constant, unit linear term)."""
        return rename(self.inv_omega_prime(), var).mul_var(1)


def check_admissible(f: PowerSeries):
    if f.order < 2:
        raise FamilyError("f must be given at least to order 2")
    if f.coefficient(0) or f.coefficient(1) != Fraction(1):
        raise FamilyError("f must lie in x + x^2*C[[x]]")


def build_family(f: PowerSeries) -> BinomialFamily:
    check_admissible(f)
    n = f.order
    fprime = f.derive()
    phi = f.revert()
    tau = f / fprime
    omega = tau.revert()
    ident = PowerSeries.identity(f.var, n, f.czero)
    if not f.compose(phi).prefix_equal(ident):
        raise FamilyError("internal check failed: f(phi(x)) != x")
    if not tau.compose(omega).prefix_equal(ident.truncate(n - 1)):
        raise FamilyError("internal check failed: (f/f')(omega(x)) != x")
    return BinomialFamily(f, fprime, phi, tau, omega, n)


def tau_inverse(g: PowerSeries) -> PowerSeries:
    """The series f with f/f' = g, for g in x + x^2 C[[x]].

    Solves (ln(f/x))' = 1/g - 1/x termwise and exponentiates.
    """
    check_admissible(g)
    x_over_g = g.div_var(1).inv()          # x/g, constant term 1
    hprime = (x_over_g - Fraction(1)).div_var(1)
    f = hprime.integrate().exp().mul_var(1)
    return f.truncate(g.order)


# -- polynomial sequence ------------------------------------------------------


class PSequence:
    """p_0..p_N with p_0 = 1, deg p_n = n, monic."""

    __slots__ = ("polys",)

    def __init__(self, polys):
        self.polys = list(polys)
        if not self.polys or self.polys[0] != Poly.const(1):
            raise FamilyError("p_0 must be 1")
        for n, p in enumerate(self.polys):
            if p.degree() != n or p.leading() != 1:
                raise FamilyError(f"p_{n} is not monic of degree {n}")

    def __getitem__(self, n: int) -> Poly:
        return self.polys[n]

    def __len__(self):
        return len(self.polys)


def p_seq(fam: BinomialFamily, N: int) -> PSequence:
    """Binomial-type sequence from sum p_n(a) x^n / n! = exp(a*phi(x)).

    Computed through the equivalent convolution recurrence obtained by
    differentiating the generating identity in x,

        p_{n+1} = x * sum_k C(n, k) d_{n-k} p_k,   d_j = j! [x^j] phi',

    with each p_k held as integer numerators over one reduced denominator.
    """
    if fam.phi.order < N:
        raise OrderError(f"family order {fam.order} too small for p_{N}")
    phip = fam.phi.derive()
    d, d_den = _lift([factorial(j) * phip.coefficient(j) for j in range(N)])
    nums, dens = [[1]], [1]
    for n in range(N):
        common = lcm(*dens)
        acc = [0] * (n + 1)
        for k in range(n + 1):
            c = comb(n, k) * d[n - k]
            if c:
                c *= common // dens[k]
                for i, x in enumerate(nums[k]):
                    acc[i] += c * x
        den = common * d_den
        g = gcd(den, *acc)
        nums.append([0] + [x // g for x in acc])
        dens.append(den // g)
    return PSequence(
        Poly([Fraction(x, den) for x in p]) for p, den in zip(nums, dens)
    )


# -- q coefficients ------------------------------------------------------------


def q_zero_table(fam: BinomialFamily, n_max: int, exponent=S) -> list:
    """q_n at t = 0: coefficients of (x/f(x))^exponent, times n!."""
    if fam.f.order < n_max + 1:
        raise OrderError("family order too small for the requested q table")
    x_over_f = fam.f.div_var(1).inv()
    u = x_over_f.pow_param(exponent)
    return [factorial(n) * ParamPoly.coerce(u.coefficient(n)) for n in range(n_max + 1)]


def q_table(fam: BinomialFamily, n_max: int, t_order: int, exponent=S) -> list:
    """q_n^t as truncated series in t; entry n is n! times the x^n slice of

    (x f'(t) / (f(x+t) - f(t)))^exponent

    computed in the nested series-in-t-of-series-in-x representation.
    """
    need = n_max + 1 + t_order
    if fam.f.order < need:
        raise OrderError(
            f"family order {fam.order} too small (need {need}) for the q table"
        )
    x_ord = n_max
    czero = fam.f.czero
    xzero = PowerSeries.zero(fam.f.var, x_ord, czero)

    # Taylor slices ((f^{(j)}(x) - f^{(j)}(0)) / j!) / x for j <= t_order
    slices = []
    deriv = fam.f
    for j in range(t_order + 1):
        c = Fraction(1, factorial(j))
        centered = (deriv - deriv.coefficient(0)).scale(c)
        slices.append(centered.div_var(1).truncate(x_ord))
        if j < t_order:
            deriv = deriv.derive()

    v = PowerSeries("t", slices, xzero)
    fp = fam.fprime
    fp_consts = [
        (xzero + fp.coefficient(j)) for j in range(t_order + 1)
    ]
    fp_t = PowerSeries("t", fp_consts, xzero)
    u = fp_t / v
    us = u.pow_param(exponent)

    pzero = ParamPoly()
    out = []
    for n in range(n_max + 1):
        coeffs = [
            ParamPoly.coerce(us.coefficient(j).coefficient(n))
            for j in range(t_order + 1)
        ]
        out.append(PowerSeries("t", coeffs, pzero).scale(Fraction(factorial(n))))
    return out


def q_coeffs(fam: BinomialFamily, n_x: int, n_t: int, exponent=S) -> list:
    """Alias for the bivariate table keyed by the two truncation depths."""
    return q_table(fam, n_x, n_t, exponent)


def q_at_omega(fam: BinomialFamily, n_max: int, x_order: int, exponent=S) -> list:
    """q_n^{omega(x)} as series in x (t substituted by omega)."""
    table = q_table(fam, n_max, x_order, exponent)
    if fam.omega.order < x_order:
        raise OrderError("omega truncated below the requested x order")
    om = fam.omega.truncate(x_order)
    return [rename(q, fam.f.var).compose(om) for q in table]


# -- continuations ---------------------------------------------------------------


@dataclass(frozen=True)
class PHTExpansion:
    """alpha^H * sum_n binom(H-1, n) q_n^t(H) alpha^{-n}, t kept as a series."""

    coeffs: list  # entry n: PowerSeries in t over ParamPoly (symbol H)

    def specialize(self, h: int, n_alpha: int | None = None) -> Poly:
        """Integer H, t = 0: recover the plain polynomial p_H(alpha)."""
        n_alpha = len(self.coeffs) - 1 if n_alpha is None else n_alpha
        out = [Fraction(0)] * (h + 1)
        for n, c in enumerate(self.coeffs[: n_alpha + 1]):
            v = ParamPoly.coerce(c.coefficient(0)).eval(H=Fraction(h))
            if h - n >= 0:
                out[h - n] = v
            elif v:
                raise FamilyError(f"nonzero coefficient at alpha^{h - n}")
        return Poly(out)


def p_H_t(fam: BinomialFamily, N: int, t_order: int | None = None) -> PHTExpansion:
    if t_order is None:
        t_order = N
    table = q_table(fam, N, t_order, exponent=H)
    coeffs = [table[n].scale(binom_poly(H - Fraction(1), n)) for n in range(N + 1)]
    return PHTExpansion(coeffs)


def p_symbolic(fam: BinomialFamily, N: int) -> AsymptoticSeries:
    """The continuation alpha^s (1 + ...): sum_k binom(s-1,k) q_k(s) a^{s-k}."""
    q = q_zero_table(fam, N)
    coeffs = [binom_poly(S - Fraction(1), k) * q[k] for k in range(N + 1)]
    return AsymptoticSeries(LinForm.S, coeffs)


# -- ratio expansion -------------------------------------------------------------


def ratio_P_direct(fam: BinomialFamily, s: int, h: int, N: int) -> list:
    """P_n^H(s) for integers s, H >= 0 by direct polynomial division."""
    if s < 0 or h < 0 or s + h < 0:
        raise FamilyError("direct mode needs s, H with s, s+H >= 0")
    seq = p_seq(fam, s + h)
    ratio = AsymptoticSeries.from_poly_ratio(seq[s + h], seq[s], N)
    return [ratio.coefficient(k).constant_value() for k in range(N + 1)]


def ratio_P_symbolic(fam: BinomialFamily, N: int, x_order: int | None = None) -> list:
    """P_n^H(s) with both parameters symbolic.

    Assembles, for each n, the sum over k of

        binom(H, n-k) (s L - d/domega)^k [ q_{n-k}^{omega(x)}(1+H)
                                           f'(omega(x))^{-H} ]  at x = 0.
    """
    if x_order is None:
        x_order = N + 2
    qv = q_at_omega(fam, N, x_order, exponent=H + Fraction(1))
    fpw = fam.fprime.truncate(x_order + 1).compose(fam.omega.truncate(x_order + 1))
    fpw_mH = fpw.truncate(x_order).pow_param(-H)
    invop = rename(fam.inv_omega_prime(), fam.f.var)

    def x_op(g: PowerSeries) -> PowerSeries:
        ell = (g - g.coefficient(0)).div_var(1)
        return ell.scale(S) - g.derive() * invop

    vals = {}
    for m in range(N + 1):
        g = qv[m] * fpw_mH
        for k in range(N + 1 - m):
            vals[(m, k)] = ParamPoly.coerce(g.coefficient(0))
            if k < N - m:
                g = x_op(g)
    out = []
    for n in range(N + 1):
        acc = ParamPoly()
        for k in range(n + 1):
            acc = acc + binom_poly(H, n - k) * vals[(n - k, k)]
        out.append(acc)
    return out


def ratio_P(fam: BinomialFamily, mode: str, N: int, s: int | None = None, h: int | None = None):
    if mode == "direct":
        return ratio_P_direct(fam, s, h, N)
    if mode == "symbolic":
        return ratio_P_symbolic(fam, N)
    raise ValueError(f"unknown mode {mode!r}")

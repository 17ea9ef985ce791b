"""Everything derived directly from a series f in x + x^2 C[[x]]:

the change-of-variable series (f/f', its inverse omega, the functional
inverse phi), the omega-side operators every resolvent identity is built
from (f'(omega(x)), d/domega = (1/omega') d/dx and the step
s L - d/domega, with L the 0-derivative), the binomial-type polynomial
sequence, the q-coefficient tables, the symbolic continuation
alpha^s + lower, and the two routes to the ratio expansion p_{s+H}/p_s.

Tables that depend only on a family and a few arguments are memoized on
the family instance by ``per_family``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, wraps
from math import comb, factorial, gcd, lcm

from .asymptotic import AsymptoticSeries
from .parampoly import H, S, ParamPoly, _lift, binom_poly
from .polys import Poly
from .series import OrderError, PowerSeries, SeriesError


def rename(u: PowerSeries, var: str) -> PowerSeries:
    return PowerSeries(var, u.coeffs, u.czero)


def op_L(g: PowerSeries) -> PowerSeries:
    """0-derivative: (g(x) - g(0)) / x."""
    return (g - g.coefficient(0)).div_var(1)


class FamilyError(SeriesError):
    pass


def _exact_key(x):
    """x together with its exact type, through every level of a series.

    1, Fraction(1) and ParamPoly.const(1) compare equal, but as exponents or
    coefficients they give results in different coefficient domains."""
    if isinstance(x, PowerSeries):
        return (PowerSeries, x.var, _exact_key(x.czero),
                tuple(_exact_key(c) for c in x.coeffs))
    return (type(x), x)


def per_family(fn):
    """Memoize ``fn(fam, ...)`` on the family instance, keyed by ``fn`` and
    its other arguments with their exact types (defaults filled in).

    An entry lives as long as its family; a call that raises stores
    nothing.  ``fn`` may be a ``BinomialFamily`` method.  It must return
    an immutable value (a series, a tuple of series, a frozen dataclass),
    since every caller shares it.  The undecorated function is
    ``__wrapped__``.
    """
    sig = inspect.signature(fn)

    @wraps(fn)
    def memoized(fam, *args, **kwargs):
        bound = sig.bind(fam, *args, **kwargs)
        bound.apply_defaults()
        _, *args_after_fam = bound.arguments.values()
        key = (fn, *map(_exact_key, args_after_fam))
        tables = fam._tables
        if key not in tables:
            tables[key] = fn(fam, *args, **kwargs)
        return tables[key]

    return memoized


@dataclass(frozen=True)
class BinomialFamily:
    f: PowerSeries
    fprime: PowerSeries
    phi: PowerSeries          # functional inverse of f
    tau_f: PowerSeries        # f/f'
    omega: PowerSeries        # functional inverse of f/f'
    order: int

    @cached_property
    def _tables(self) -> dict:
        """The results ``per_family`` memoizes; they live as long as the family."""
        return {}

    @cached_property
    def inv_omega_prime(self) -> PowerSeries:
        """1/omega'(x), computed once: every d/domega step multiplies by it."""
        return self.omega.derive().inv()

    def sigma(self, var: str = "s") -> PowerSeries:
        """The series v/omega'(v) (zero constant, unit linear term)."""
        return rename(self.inv_omega_prime, var).mul_var(1)

    @per_family
    def fprime_at_omega(self, order: int) -> PowerSeries:
        """f'(omega(x)) to the given order."""
        if self.fprime.order < order + 1 or self.omega.order < order + 1:
            raise OrderError("family truncation too small for f'(omega(x))")
        return self.fprime.truncate(order + 1).compose(
            self.omega.truncate(order + 1)
        ).truncate(order)

    def d_domega(self, g: PowerSeries) -> PowerSeries:
        """d/domega = (1/omega'(x)) d/dx, in g's variable."""
        return g.derive() * rename(self.inv_omega_prime, g.var)

    def x_op(self, g: PowerSeries, s) -> PowerSeries:
        """The step s L - d/domega."""
        return op_L(g).scale(s) - self.d_domega(g)


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
    hprime = op_L(g.div_var(1).inv())      # x/g has constant term 1
    f = hprime.integrate().exp().mul_var(1)
    return f.truncate(g.order)


# -- polynomial sequence ------------------------------------------------------


class PSequence:
    """p_0..p_N with p_0 = 1, deg p_n = n, monic."""

    __slots__ = ("polys",)

    def __init__(self, polys):
        self.polys = tuple(polys)
        if not self.polys or self.polys[0] != Poly.const(1):
            raise FamilyError("p_0 must be 1")
        for n, p in enumerate(self.polys):
            if p.degree() != n or p.leading() != 1:
                raise FamilyError(f"p_{n} is not monic of degree {n}")

    def __getitem__(self, n: int) -> Poly:
        return self.polys[n]


def sheffer_polys(d: list, e: list, N: int) -> tuple:
    """tau_0..tau_N from tau_0 = 1 and the convolution recurrence

        tau_{n+1} = sum_k C(n, k) (x d_{n-k} + e_{n-k}) tau_k

    for rationals d_0..d_{N-1} and e_0..e_{N-1}, with each tau_k held as
    integer numerators over one reduced denominator.  A zero e_j costs
    nothing, so e = 0 (the binomial-type case) runs only the x d terms.
    """
    nums, den = _lift([*d, *e])
    dn, en = nums[: len(d)], nums[len(d):]
    taus, dens = [[1]], [1]
    for n in range(N):
        common = lcm(*dens)
        acc = [0] * (n + 2)
        for k, tau in enumerate(taus):
            dj, ej = dn[n - k], en[n - k]
            if not (dj or ej):
                continue
            c = comb(n, k) * (common // dens[k])
            if dj:
                cd = c * dj
                for i, x in enumerate(tau, 1):
                    acc[i] += cd * x
            if ej:
                ce = c * ej
                for i, x in enumerate(tau):
                    acc[i] += ce * x
        top = common * den
        g = gcd(top, *acc)
        taus.append([x // g for x in acc])
        dens.append(top // g)
    return tuple(
        Poly([Fraction(x, dk) for x in tau]) for tau, dk in zip(taus, dens)
    )


@per_family
def p_seq(fam: BinomialFamily, N: int) -> PSequence:
    """Binomial-type sequence from sum p_n(a) x^n / n! = exp(a*phi(x)).

    Computed through the equivalent convolution recurrence obtained by
    differentiating the generating identity in x,

        p_{n+1} = x * sum_k C(n, k) d_{n-k} p_k,   d_j = j! [x^j] phi',

    which is ``sheffer_polys`` with e = 0.
    """
    if fam.phi.order < N:
        raise OrderError(f"family order {fam.order} too small for p_{N}")
    phip = fam.phi.derive()
    d = [factorial(j) * phip.coefficient(j) for j in range(N)]
    return PSequence(sheffer_polys(d, [0] * N, N))


# -- q coefficients ------------------------------------------------------------


@per_family
def q_zero_table(fam: BinomialFamily, n_max: int, exponent=S) -> tuple:
    """q_n at t = 0: coefficients of (x/f(x))^exponent, times n!."""
    if fam.f.order < n_max + 1:
        raise OrderError("family order too small for the requested q table")
    x_over_f = fam.f.div_var(1).inv()
    u = x_over_f.pow_param(exponent)
    return tuple(
        factorial(n) * ParamPoly.coerce(u.coefficient(n)) for n in range(n_max + 1)
    )


def q_table(fam: BinomialFamily, n_max: int, t_order: int, exponent=S) -> tuple:
    """q_n^t as truncated series in t; entry n is n! times the x^n slice of

    (x f'(t) / (f(x+t) - f(t)))^exponent = G(x, t)^a,   a = -exponent,

    where G = (f(x+t) - f(t)) / (x f'(t)) = sum_k c_k(t) x^k with c_0 = 1 and
    c_k = f^{(k+1)}(t) / ((k+1)! f'(t)).  J. C. P. Miller's recurrence for
    the powers of a series gives the slices w_n of G^a as w_0 = 1 and

        n w_n = sum_{k=1..n} ((a+1) k - n) c_k w_{n-k},

    so every product is one of series in t alone.
    """
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
        # w_n = ((a+1)/n) sum_k k c_k w_{n-k} - sum_k c_k w_{n-k}
        total = weighted = c[1] * w[n - 1]
        for k in range(2, n + 1):
            p = c[k] * w[n - k]
            total, weighted = total + p, weighted + p.scale(k)
        w.append(weighted.scale(a1 * Fraction(1, n)) - total)

    return tuple(
        wn.map_coeffs(ParamPoly.coerce).scale(factorial(n)) for n, wn in enumerate(w)
    )


@per_family
def q_at_omega(fam: BinomialFamily, n_max: int, x_order: int, exponent=S) -> tuple:
    """q_n^{omega(x)} as series in x (t substituted by omega)."""
    table = q_table(fam, n_max, x_order, exponent)
    if fam.omega.order < x_order:
        raise OrderError("omega truncated below the requested x order")
    om = fam.omega.truncate(x_order)
    return tuple(rename(q, fam.f.var).compose(om) for q in table)


# -- continuations ---------------------------------------------------------------


@dataclass(frozen=True)
class PHTExpansion:
    """alpha^H * sum_n binom(H-1, n) q_n^t(H) alpha^{-n}, t kept as a series."""

    coeffs: list  # entry n: PowerSeries in t over ParamPoly (symbol H)

    def specialize(self, h: int) -> Poly:
        """Integer H, t = 0: recover the plain polynomial p_H(alpha)."""
        out = [Fraction(0)] * (h + 1)
        for n, c in enumerate(self.coeffs):
            v = ParamPoly.coerce(c.coefficient(0)).eval(H=Fraction(h))
            if h - n >= 0:
                out[h - n] = v
            elif v:
                raise FamilyError(f"nonzero coefficient at alpha^{h - n}")
        return Poly(out)


def p_H_t(fam: BinomialFamily, N: int) -> PHTExpansion:
    table = q_table(fam, N, N, exponent=H)
    coeffs = [table[n].scale(binom_poly(H - Fraction(1), n)) for n in range(N + 1)]
    return PHTExpansion(coeffs)


def p_symbolic(fam: BinomialFamily, N: int) -> AsymptoticSeries:
    """The continuation alpha^s (1 + ...): sum_k binom(s-1,k) q_k(s) a^{s-k}."""
    q = q_zero_table(fam, N)
    coeffs = [binom_poly(S - Fraction(1), k) * q[k] for k in range(N + 1)]
    return AsymptoticSeries(S, coeffs)


# -- ratio expansion -------------------------------------------------------------


def ratio_P_direct(fam: BinomialFamily, s: int, h: int, N: int) -> list:
    """P_n^H(s) for integers s, H >= 0 by direct polynomial division."""
    if s < 0 or h < 0 or s + h < 0:
        raise FamilyError("direct mode needs s, H with s, s+H >= 0")
    seq = p_seq(fam, s + h)
    ratio = AsymptoticSeries.from_poly_ratio(seq[s + h], seq[s], N)
    return [ratio.coefficient(k).constant_value() for k in range(N + 1)]


def ratio_P_symbolic(fam: BinomialFamily, N: int) -> list:
    """P_n^H(s) with both parameters symbolic.

    Assembles, for each n, the sum over k of

        binom(H, n-k) (s L - d/domega)^k [ q_{n-k}^{omega(x)}(1+H)
                                           f'(omega(x))^{-H} ]  at x = 0.
    """
    x_order = N + 2
    qv = q_at_omega(fam, N, x_order, exponent=H + Fraction(1))
    fpw_mH = fam.fprime_at_omega(x_order).pow_param(-H)
    vals = {}
    for m in range(N + 1):
        g = qv[m] * fpw_mH
        for k in range(N + 1 - m):
            vals[(m, k)] = ParamPoly.coerce(g.coefficient(0))
            if k < N - m:
                g = fam.x_op(g, S)
    out = []
    for n in range(N + 1):
        acc = ParamPoly()
        for k in range(n + 1):
            acc = acc + binom_poly(H, n - k) * vals[(n - k, k)]
        out.append(acc)
    return out


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
from math import comb, factorial, lcm

from .asymptotic import _VAR, AsymptoticSeries
from .parampoly import H, S, ParamPoly, _lift, binom_poly, lifted_values
from .polys import Poly, _reduce_ints
from .series import (
    _DOMAINS,
    OrderError,
    PowerSeries,
    SeriesError,
    _conv,
    _need_fraction,
    _power_polys,
    _series,
)


def rename(u: PowerSeries, var: str) -> PowerSeries:
    return PowerSeries._of(var, u.num, u.den)


def op_L(g: PowerSeries) -> PowerSeries:
    """0-derivative: (g(x) - g(0)) / x."""
    return (g - g.coefficient(0)).div_var(1)


class FamilyError(SeriesError):
    pass


def _need_size(k: int, name: str) -> None:
    """Reject a negative table size or order, naming the argument."""
    if k < 0:
        raise FamilyError(f"{name} must be >= 0, not {name} = {k}")


def _exact_key(x):
    """x together with its exact type, through every level of a series.

    1, Fraction(1) and ParamPoly.const(1) compare equal, but as exponents or
    coefficients they give results in different coefficient domains."""
    if isinstance(x, PowerSeries):
        return (PowerSeries, x.var, type(x.num[0]), x.num, x.den)
    return (type(x), x)


def per_family(fn):
    """Memoize ``fn(fam, ...)`` on the family instance, keyed by ``fn`` and
    its other arguments with their exact types (defaults filled in).

    An entry lives as long as its family; a call that raises stores
    nothing.  ``fn`` may be a ``BinomialFamily`` method.  It must return
    an immutable value (a series, a tuple of series, a frozen dataclass),
    since every caller shares it.  The undecorated function is
    ``__wrapped__``.

    A table whose entry k does not depend on how far it was asked for is
    memoized by ``growing`` instead, one entry per family: it is swapped
    for a longer immutable table when a call asks further, and is never
    mutated, so a prefix handed out earlier stays valid.  A call that
    raises leaves the entry as it was.
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


def growing(fn):
    """Memoize on the family the table ``fn(fam, n)``, rows 0..n, grown on
    demand (the contract is in ``per_family``).

    ``fn(fam, n, known)`` must return rows 0..n as an immutable sequence
    whose slices are tables too (a tuple, a ``PSequence``), starting with
    ``known``: the rows the family holds, fewer than n + 1 of them, which
    it continues and does not recompute.  A shorter request reads a
    prefix of the longest table held.  The undecorated function is
    ``__wrapped__``; ``fn(fam, n)`` computes the table from nothing.
    """

    @wraps(fn)
    def grown(fam, n: int):
        _need_size(n, "n")
        tables = fam._tables
        key = (fn,)
        held = tables.get(key, ())
        if len(held) <= n:
            held = tables[key] = fn(fam, n, held)
        return held if len(held) == n + 1 else held[: n + 1]

    return grown


@dataclass(frozen=True)
class BinomialFamily:
    f: PowerSeries
    fprime: PowerSeries
    phi: PowerSeries          # functional inverse of f
    tau_f: PowerSeries        # f/f'
    omega: PowerSeries        # functional inverse of f/f'
    fprime_omega: PowerSeries  # f'(omega(x)) to order - 2, composed and checked by the build
    order: int

    @cached_property
    def _tables(self) -> dict:
        """The results ``per_family`` memoizes; they live as long as the family."""
        return {}

    @cached_property
    def inv_omega_prime(self) -> PowerSeries:
        """1/omega'(x), computed once: every d/domega step multiplies by it."""
        return self.omega.derive().inv()

    @cached_property
    def x_over_f(self) -> PowerSeries:
        """x/f(x), computed once.  Tables read prefixes of it: a truncated
        inverse holds the same rationals as the inverse of a truncation."""
        return self.f.div_var(1).inv()

    @cached_property
    def x_over_tau(self) -> PowerSeries:
        """x/(f/f')(x), computed once and read as ``x_over_f`` is."""
        return self.tau_f.div_var(1).inv()

    def sigma(self, var: str = "s") -> PowerSeries:
        """The series v/omega'(v) (zero constant, unit linear term)."""
        return rename(self.inv_omega_prime, var).mul_var(1)

    @per_family
    def fprime_at_omega(self, order: int) -> PowerSeries:
        """f'(omega(x)) to the given order, a prefix of ``fprime_omega``."""
        _need_size(order, "order")
        if self.fprime.order < order + 1 or self.omega.order < order + 1:
            raise OrderError("family truncation too small for f'(omega(x))")
        return self.fprime_omega.truncate(order)

    def d_domega(self, g: PowerSeries) -> PowerSeries:
        """d/domega = (1/omega'(x)) d/dx, in g's variable."""
        return g.derive() * rename(self.inv_omega_prime, g.var)

    def x_op(self, g: PowerSeries, s) -> PowerSeries:
        """The step s L - d/domega."""
        return op_L(g).scale(s) - self.d_domega(g)

    def truncate(self, n: int) -> "BinomialFamily":
        """The family ``build_family`` gives on f truncated to order n, read
        off this one's parts: coefficient k of phi depends only on f up to
        x^k, and coefficient k of f', f/f' and omega only on f up to
        x^(k+1), so their prefixes are exactly the lower-order parts; so is
        f'(omega)'s, whose coefficient k reads f' and omega up to x^k."""
        f = self.f.truncate(n)
        check_admissible(f)
        return BinomialFamily(
            f,
            self.fprime.truncate(n - 1),
            self.phi.truncate(n),
            self.tau_f.truncate(n - 1),
            self.omega.truncate(n - 1),
            self.fprime_omega.truncate(n - 2),
            n,
        )


def check_admissible(f: PowerSeries):
    if f.order < 2:
        raise FamilyError("f must be given at least to order 2")
    if f.coefficient(0) or f.coefficient(1) != Fraction(1):
        raise FamilyError("f must lie in x + x^2*C[[x]]")


def build_family(f: PowerSeries) -> BinomialFamily:
    """The family of f, to f's order n, with two round-trip checks.

    f(phi(x)) = x is checked through x^n.  omega is checked against f and
    f' themselves through G = f'(omega), which the family holds: with
    F = f(omega), the chain rule gives F' = G omega'.  F and xG vanish at
    0, so F = xG iff F' = (xG)' = G + xG'; and G is a unit, so F = xG iff
    (f/f')(omega) = x.  G omega' = (xG)' through x^(n-2) is (f/f')(omega) = x
    through x^(n-1), omega's last coefficient included (it enters through
    omega').  Each side is one product or rescale, not a composition.
    """
    check_admissible(f)
    n = f.order
    fprime = f.derive()
    phi = f.revert()
    tau = f / fprime
    omega = tau.revert()
    ident = PowerSeries.identity(f.var, n, f.czero)
    if not f.compose(phi).prefix_equal(ident):
        raise FamilyError("internal check failed: f(phi(x)) != x")
    g = fprime.truncate(n - 2).compose(omega.truncate(n - 2))
    if not (g * omega.derive()).prefix_equal(g.mul_var(1).derive()):
        raise FamilyError("internal check failed: (f/f')(omega(x)) != x")
    return BinomialFamily(f, fprime, phi, tau, omega, g, n)


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
    """p_0..p_N with p_0 = 1, deg p_n = n, monic.  A slice is a
    ``PSequence`` too."""

    __slots__ = ("polys",)

    def __init__(self, polys):
        self.polys = tuple(polys)
        if not self.polys or self.polys[0] != Poly.const(1):
            raise FamilyError("p_0 must be 1")
        for n, p in enumerate(self.polys):
            if p.degree() != n or p.leading() != 1:
                raise FamilyError(f"p_{n} is not monic of degree {n}")

    def __len__(self) -> int:
        return len(self.polys)

    def __getitem__(self, n):
        if isinstance(n, slice):
            return PSequence(self.polys[n])
        return self.polys[n]


def sheffer_polys(d: list, e: list, N: int, known=()) -> tuple:
    """tau_0..tau_N from tau_0 = 1 and the convolution recurrence

        tau_{n+1} = sum_k C(n, k) (x d_{n-k} + e_{n-k}) tau_k

    for rationals d_0..d_{N-1} and e_0..e_{N-1}, with each tau_k held as
    integer numerators over one reduced denominator.  A zero e_j costs
    nothing, so e = 0 (the binomial-type case) runs only the x d terms.
    ``known``, the polynomials tau_0..tau_m of an earlier call, is
    continued from tau_{m+1} on.
    """
    nums, den = _lift([*d, *e])
    dn, en = nums[: len(d)], nums[len(d):]
    taus = [p.num for p in known] or [(1,)]
    dens = [p.den for p in known] or [1]
    start = len(known)
    for n in range(len(taus) - 1, N):
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
        tau, dk = _reduce_ints(acc, common * den)
        taus.append(tuple(tau))
        dens.append(dk)
    # each row is reduced; the callers check that it is monic of degree k
    return (*known, *(Poly._reduced(tau, dk) for tau, dk in zip(taus[start:], dens[start:])))


@growing
def p_seq(fam: BinomialFamily, N: int, known=()) -> PSequence:
    """Binomial-type sequence from sum p_n(a) x^n / n! = exp(a*phi(x)).

    Computed through the equivalent convolution recurrence obtained by
    differentiating the generating identity in x,

        p_{n+1} = x * sum_k C(n, k) d_{n-k} p_k,   d_j = j! [x^j] phi',

    which is ``sheffer_polys`` with e = 0.  One table per family grows
    with the largest N asked.
    """
    _need_fraction(fam.f, "p_seq needs f")
    if fam.phi.order < N:
        raise OrderError(f"family order {fam.order} too small for p_{N}")
    phip = fam.phi.derive()
    d = [factorial(j) * phip.coefficient(j) for j in range(N)]
    return PSequence(sheffer_polys(d, [0] * N, N, known))


# -- q coefficients ------------------------------------------------------------


@per_family
def q_zero_table(fam: BinomialFamily, n_max: int, exponent=S) -> tuple:
    """q_n at t = 0: coefficients of (x/f(x))^exponent, times n!, in the
    exponent's domain (``Fraction`` for an ``int`` or ``Fraction``, as
    ``pow_param``)."""
    _need_size(n_max, "n_max")
    if fam.f.order < n_max + 1:
        raise OrderError("family order too small for the requested q table")
    u = fam.x_over_f.truncate(n_max).pow_param(exponent)
    return tuple(factorial(n) * u.coefficient(n) for n in range(n_max + 1))


def q_table(fam: BinomialFamily, n_max: int, t_order: int, exponent=S) -> tuple:
    """q_n^t as truncated series in t; entry n is n! times the x^n slice of

    (x f'(t) / (f(x+t) - f(t)))^exponent = G(x, t)^a,   a = -exponent,

    where G = (f(x+t) - f(t)) / (x f'(t)) = sum_k c_k(t) x^k with c_0 = 1 and
    c_k = f^{(k+1)}(t) / ((k+1)! f'(t)).  The c_k are lifted to integer
    t-vectors over one denominator, and J. C. P. Miller's recurrence for the
    powers of a series (``series._power_polys``) gives the slices of G^e as
    t-indexed integer polynomials in e, evaluated once at e = a.  The values
    and the zero are in the exponent's domain, as for ``pow_param``:
    ``Fraction`` for an ``int`` or ``Fraction`` exponent, ``ParamPoly`` for
    a ``ParamPoly`` one.
    """
    _need_size(n_max, "n_max")
    _need_size(t_order, "t_order")
    need = n_max + 1 + t_order
    if fam.f.order < need:
        raise OrderError(
            f"family order {fam.order} too small (need {need}) for the q table"
        )
    _need_fraction(fam.f, "q_table needs f")
    f, fd = fam.f.num, fam.f.den
    # [t^j] f^{(k+1)}(t) / (k+1)! = C(k+1+j, j) f_{k+1+j}; row 0 is f'(t)
    rows = [
        _series("t", [comb(k + 1 + j, j) * f[k + 1 + j] for j in range(t_order + 1)], fd)
        for k in range(n_max + 1)
    ]
    inv_fp = rows[0].inv()
    prods = [row * inv_fp for row in rows[1:]]
    d = lcm(*[p.den for p in prods])
    nums = [x * (d // p.den) for p in prods for x in p.num]
    width = t_order + 1
    a = [[d] + [0] * t_order] + [nums[i : i + width] for i in range(0, len(nums), width)]
    polys, den = _power_polys(a, d)
    vec, den = lifted_values(
        [[factorial(n) * c for c in p] for n, w in enumerate(polys) for p in w], den, -exponent
    )
    dom = _DOMAINS[type(vec[0])]
    return tuple(
        _series("t", vec[n * width : (n + 1) * width], den, dom) for n in range(n_max + 1)
    )


@per_family
def q_at_omega(fam: BinomialFamily, n_max: int, x_order: int, exponent=S) -> tuple:
    """q_n^{omega(x)} as series in x (t substituted by omega)."""
    _need_size(x_order, "x_order")
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


def _continuation(fam: BinomialFamily, N: int, ells, dl: int) -> tuple:
    """The coefficients of alpha^{s-j}, j = 0..N, of the continuation

        sum_{k+m=j} binom(s-1,k) q_k(s) ell_m (s-k)(s-k-1)...(s-k-m+1)

    for rationals ell_m = ells[m] / dl, m = 0..N (a shorter ells stands for
    zeros after it), as integer polynomials in s (lowest degree
    first) over one denominator.  With q_k(s) = k! W_k(s) / den from Miller's
    recurrence for (x/f)^s, the k! cancels binom's 1/k!: the k-th lead is
    (s-1)...(s-k) W_k(s), and both it and the falling factorial grow by one
    linear factor per step.
    """
    _need_size(N, "N")
    _need_fraction(fam.f, "the symbolic continuation needs f")
    if fam.f.order < N + 1:
        raise OrderError("family order too small for the requested q table")
    g = fam.x_over_f.truncate(N)
    polys, den = _power_polys([[x] for x in g.num], g.den)
    top = max(m for m, x in enumerate(ells) if x)
    out = [[0] * (2 * j + 1) for j in range(N + 1)]
    binom = [1]  # k! binom(s-1, k) = (s-1)(s-2)...(s-k)
    for k in range(N + 1):
        if k:
            binom = _times_root(binom, k)
        lead = _conv(binom, polys[k][0], 2 * k)
        for m in range(min(top, N - k) + 1):
            if m:
                lead = _times_root(lead, k + m - 1)
            if ells[m]:
                acc = out[k + m]
                for i, c in enumerate(lead):
                    acc[i] += ells[m] * c
    return out, den * dl


def _times_root(p: list, r: int) -> list:
    """p(s) (s - r) for an integer coefficient list p, in one pass (a
    general ``_conv`` by the two-term factor takes about 2.5 times as long)."""
    out = [0, *p]
    for i, c in enumerate(p):
        out[i] -= r * c
    return out


def p_symbolic(fam: BinomialFamily, N: int) -> AsymptoticSeries:
    """The continuation alpha^s (1 + ...): sum_k binom(s-1,k) q_k(s) a^{s-k}."""
    polys, den = _continuation(fam, N, [1], 1)
    body = _series(_VAR, *lifted_values(polys, den, S), _DOMAINS[ParamPoly])
    return AsymptoticSeries._of(S, body)


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
    _need_size(N, "N")
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


"""Independent brute-force oracles used by the tests.

Everything here deliberately avoids the code paths it is used to check:
Bernoulli numbers come from the defining recurrence, reversion coefficients
from the coefficient-extraction inversion formula, exponentials from raw
partial sums.  ``naive_mul``, ``naive_div``, ``naive_compose``,
``naive_revert``, ``naive_p_seq``, ``naive_tau_polys``,
``naive_parampoly_mul``, ``naive_parampoly_eval`` and ``naive_tau_symbolic``
are the term-by-term loops the integer kernels (and the O(depth^2) symbolic
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
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from umbralog.ncwords import D, LAM, LAMINV, SIGMA, NCPoly, head_word_poly, nu_bar_step
from umbralog.operators import DiffOperator
from umbralog.parampoly import SYMBOLS, ParamPoly, binom_poly, falling
from umbralog.polys import Poly
from umbralog.presets import family
from umbralog.series import OrderError, PowerSeries, SeriesError
from umbralog.umbral import BinomialFamily, q_zero_table


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
    out = [Fraction(0)] * (n + 1)
    for i in range(n + 1):
        x = a.coeffs[i]
        if x == 0:
            continue
        for j in range(n + 1 - i):
            y = b.coeffs[j]
            if y == 0:
                continue
            out[i + j] = out[i + j] + x * y
    return PowerSeries(a.var, out, a.czero)


def naive_div(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Truncated quotient from q_k = (a_k - sum_{j<k} q_j b_{k-j}) / b_0,
    one ring operation per term."""
    n = min(a.order, b.order)
    inv0 = Fraction(1) / b.coeffs[0]
    out = []
    for k in range(n + 1):
        acc = a.coeffs[k]
        for j in range(k):
            acc = acc - out[j] * b.coeffs[k - j]
        out.append(acc * inv0)
    return PowerSeries(a.var, out, a.czero)


def naive_compose(outer: PowerSeries, inner: PowerSeries) -> PowerSeries:
    """outer(inner) by Horner's rule over ``naive_mul``."""
    n = min(outer.order, inner.order)
    inner = inner.truncate(n)
    acc = PowerSeries.zero(inner.var, n)
    for k in range(outer.order, -1, -1):
        acc = naive_mul(acc, inner) + outer.coeffs[k]
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

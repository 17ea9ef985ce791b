"""Differential-operator realizations of the grade operators.

The grade-n operator T_n is the head coefficient of the n-th rewrite
iterate (``ncwords.head_word_poly``), a sum of 3^(n-1) words in {sigma, D}
(or {sigma, D, lam, lam_inv} for the lam-rewrite).  ``apply_Tn`` never lists
those words: it runs the linear matrix scheme of
``ncwords.head_word_poly_matrix`` right to left on a vector whose entries
are series (giving T_n g) or normal-ordered operators sum_j c_j(v) d^j/dv^j
(giving T_n itself), in O(n^2) products.  sigma is multiplication by
v/omega'(v) and lam by a supplied unit series.  The scheme runs on one
integer lift of its ``Fraction`` inputs: each entry is integer numerators
over one denominator, and ``Fraction`` values are built only for the
result, which equals the same scheme over ``Fraction`` series term for term.
``word_to_diffop`` realizes a single word on the same integer entries.
``DiffOperator`` only holds and applies a result: it has no arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, perm

from .ncwords import D, LAM, LAMINV, SIGMA
from .polys import Poly, divided_difference
from .series import (
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
from .umbral import BinomialFamily, rename


class DiffOperator:
    """Normal-ordered sum of (series coefficient) * (d/dv)^j terms.

    A zero coefficient is kept until ``nonzero()`` drops it: it still
    carries its truncation order, which a later D must respect."""

    __slots__ = ("var", "terms")

    def __init__(self, var: str, terms):
        self.var = var
        self.terms = dict(terms)

    def nonzero(self) -> "DiffOperator":
        return DiffOperator(
            self.var, {j: c for j, c in self.terms.items() if not c.is_zero()}
        )

    @staticmethod
    def identity(var: str, order: int) -> "DiffOperator":
        return DiffOperator(var, {0: PowerSeries.one(var, order)})

    def apply(self, g: PowerSeries) -> PowerSeries:
        """sum_j c_j * g^{(j)}; the result order reflects derivative losses."""
        if g.var != self.var:
            raise SeriesError(f"operator in {self.var} applied to {g.var}")
        if not self.terms:
            return PowerSeries.zero(g.var, max(g.order - 2, 0), g.czero)
        out = None
        for j, c in self.terms.items():
            term = c * g.derive(j) if j else c * g
            out = term if out is None else out + term
        return out

    def __eq__(self, other):
        if not isinstance(other, DiffOperator):
            return NotImplemented
        if self.var != other.var or self.terms.keys() != other.terms.keys():
            return False
        return all(c.prefix_equal(other.terms[j]) for j, c in self.terms.items())

    def __repr__(self):
        bits = [f"({c}) d^{j}" for j, c in sorted(self.terms.items())]
        return " + ".join(bits) if bits else "0"


# -- the grade operators on integer numerators ----------------------------------
#
# A vector entry of the matrix scheme is a lifted entry of ``series`` keyed by
# derivative order j: the integer numerators of each coefficient series over
# one denominator; a series is the entry {0: c}.


def _derive_series(entry: tuple) -> tuple:
    terms, den = entry
    return {0: _derive(terms[0], "derivative of an order-0 series")}, den


def _derive_operator(entry: tuple) -> tuple:
    """D∘A = sum_j c_j' d^j + c_j d^{j+1}, by the product rule; a coefficient
    of order 0, zero or not, cannot be differentiated."""
    terms, den = entry
    error = "operator coefficient truncated away; increase the family order"
    out = {j: _derive(c, error) for j, c in terms.items()}
    for j, c in terms.items():
        out[j + 1] = [a + b for a, b in zip(out[j + 1], c)] if j + 1 in out else c
    return out, den


def _require_fraction(name: str, s: PowerSeries, var: str) -> None:
    _need_fraction(s, f"the grade operators need {name}")
    if s.var != var:
        raise SeriesError(f"variable mismatch: {s.var} vs {var}")


def apply_Tn(x, n: int, sigma: PowerSeries, lam: PowerSeries | None = None):
    """T_n x for a series x, or T_n∘x for an operator x, where T_n is the
    grade-n operator of the plain rewrite, or of the lam-rewrite given lam.

    Runs the matrix scheme of ``ncwords.head_word_poly_matrix`` right to
    left: x starts alone in column 0, and for k = n .. 1 row i = 0 .. 2k-2
    of the new vector is sigma (A_i x_0 - B x_{i+1}/(i+1) + x_{i+2}/(i+2)),
    with B = D and A_i = D^{i+2}/((i+1)(i+2)) for the plain rewrite, and
    B = lam^{-1} D lam and A_i = B D^{i+1}/(i+1) - D^{i+2}/(i+2) for the
    lam-rewrite.  Column 0 of the last vector is T_n x.

    x, sigma and lam (and lam^{-1}) are lifted once to integer numerators
    over one denominator, and the whole scheme runs on such vector entries
    (described above): D multiplies by the index, the row weights fold into the
    denominator, and each row is reduced by a gcd after its sigma product.
    The result holds the same rationals, coefficient orders and operator
    keys (zero coefficients included) as the same scheme over ``Fraction``
    series, and raises ``OrderError`` where it would.  Coefficients must be
    ``Fraction``; any other domain is a ``SeriesError``.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    on_operators = isinstance(x, DiffOperator)
    terms = x.terms if on_operators else {0: x}
    var = sigma.var
    _require_fraction("sigma", sigma, var)
    for c in terms.values():
        _require_fraction("x", c, var)
    if lam is not None:
        _require_fraction("lam", lam, var)
        inv = lam.inv()
        lam_inv, lam = (inv.num, inv.den), (lam.num, lam.den)
    if n == 0:
        return x
    sig = sigma.num, sigma.den
    D = _derive_operator if on_operators else _derive_series

    def B(y):
        return _lmul(lam_inv, D(_lmul(lam, y)))

    vec = [_lift_terms(terms)]
    for k in range(n, 0, -1):
        d = [vec[0]]  # D^j x_0
        for _ in range(2 * k):
            d.append(D(d[-1]))
        tail = len(vec) > 1
        new = []
        for i in range(2 * k - 1):
            a, b = i + 1, i + 2
            if lam is None:
                row = [(d[i + 2], a * b)]
                if tail:
                    row += [(D(vec[i + 1]), -a), (vec[i + 2], b)]
            else:
                # B D^{i+1} x_0 - B x_{i+1} = B (D^{i+1} x_0 - x_{i+1}), with
                # the same orders and keys, as B only multiplies and derives
                y = _combine([(d[i + 1], 1), (vec[i + 1], -1)]) if tail else d[i + 1]
                row = [(B(y), a), (d[i + 2], -b)]
                if tail:
                    row.append((vec[i + 2], b))
            new.append(_reduce(_lmul(sig, _combine(row))))
        vec = new

    coeffs = _to_series(var, vec[0])
    return DiffOperator(x.var, coeffs) if on_operators else coeffs[0]


def word_to_diffop(
    w: tuple, sigma: PowerSeries, lam: PowerSeries | None = None
) -> DiffOperator:
    """One E-free word as an operator, rightmost letter acting first, on the
    integer entries of ``apply_Tn`` and under its ``Fraction``-only contract.
    The grade operators never list words; this realizes a single one."""
    var = sigma.var
    _require_fraction("sigma", sigma, var)
    subs = {SIGMA: (sigma.num, sigma.den)}
    if lam is not None:
        _require_fraction("lam", lam, var)
        inv = lam.inv()
        subs[LAM], subs[LAMINV] = (lam.num, lam.den), (inv.num, inv.den)
    entry = ({0: [1] + [0] * sigma.order}, 1)
    for letter in reversed(w):
        if letter == D:
            entry = _derive_operator(entry)
        elif letter in subs:
            entry = _reduce(_lmul(subs[letter], entry))
        else:
            raise SeriesError(f"no series substitution for letter {letter!r}")
    return DiffOperator(var, _to_series(var, entry)).nonzero()


def build_Tn(fam: BinomialFamily, n: int, var: str = "s") -> DiffOperator:
    """The grade-n operator of the conjugation expansion, in (v, d/dv),
    with sigma -> v/omega'(v)."""
    sigma = fam.sigma(var)
    return apply_Tn(DiffOperator.identity(var, sigma.order), n, sigma).nonzero()


# -- the divided-difference / shift commutator identity -------------------------


def divided_difference_shift_check(n: int, m: int):
    """Both sides of the commutator law for the resolvent of the 0-derivative,

        eval_0 shift_p d^n/dp^n (1 - p L)^{-1} L
            = eval_0 (1/(n+1)) [d^{n+1}/dp^{n+1} shift_p
                                - shift_p d^{n+1}/dp^{n+1}],

    applied to x^m with p symbolic, compared exactly as polynomials in p.
    The left side uses the explicit rational action
    (1 - p L)^{-1} f = (x f(x) - p f(p)) / (x - p), held by its p^k
    coefficients, where eval_0 shift_p is the substitution x := p.
    """
    g = Poly([Fraction(0)] * m + [Fraction(1)])  # x^m
    lg = Poly(g.coeffs[1:])  # L x^m
    # d^n/dp^n takes the p^k coefficient c_k to k!/(k-n)! c_k at p^(k-n)
    lhs = Poly()
    for k, c in enumerate(divided_difference(lg)[n:], n):
        lhs = lhs + c.mul_x(k - n) * perm(k, n)

    # the x^0 coefficients of d^{n+1}/dp^{n+1} (x + p)^m, as a polynomial in p
    shifted = enumerate(g.taylor()[n + 1 :], n + 1)
    rhs = Poly([perm(j, n + 1) * c.coefficient(0) for j, c in shifted]) / Fraction(n + 1)
    # the reversed-order term shift_p d^{n+1}/dp^{n+1} x^m vanishes (x^m is
    # p-free), so it contributes nothing to either side
    ok = lhs == rhs
    return ok, {"n": n, "m": m, "lhs": repr(lhs), "rhs": repr(rhs)}


# -- iterated-integral representation (small n only) -----------------------------


class EpsPoly:
    """Polynomial in eps_1..eps_n (degree <= 2 each) and t_1..t_n, with
    truncated power-series coefficients."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms = dict(terms or {})

    @staticmethod
    def const(n: int, series: PowerSeries) -> "EpsPoly":
        return EpsPoly(n, {((0,) * n, (0,) * n): series})

    def add(self, other: "EpsPoly") -> "EpsPoly":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out[k] + v if k in out else v
        return EpsPoly(self.n, out)

    def mul(self, other: "EpsPoly") -> "EpsPoly":
        out: dict = {}
        for (e1, t1), v1 in self.terms.items():
            for (e2, t2), v2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if any(d > 2 for d in e):
                    continue  # killed by the d^2/deps^2 |_0 extraction
                t = tuple(a + b for a, b in zip(t1, t2))
                key = (e, t)
                prod = v1 * v2
                out[key] = out[key] + prod if key in out else prod
        return EpsPoly(self.n, out)


def _taylor_shift(F: PowerSeries, delta: EpsPoly, max_j: int) -> EpsPoly:
    """F(v + delta) expanded through the eps-truncation of delta."""
    n = delta.n
    out = EpsPoly.const(n, F)
    power = None
    deriv = F
    for j in range(1, max_j + 1):
        deriv = deriv.derive()
        power = delta if j == 1 else power.mul(delta)
        if not power.terms:
            break
        c = Fraction(1, factorial(j))
        out = out.add(
            EpsPoly(n, {k: (v * deriv).scale(c) for k, v in power.terms.items()})
        )
    return out


def tn_via_integral(fam: BinomialFamily, n: int, g: PowerSeries) -> PowerSeries:
    """Iterated [0,1]^n integral representation of the grade-n operator.

    Expands to degree exactly 2 in each eps_k and integrates the t-monomials
    with the exact rule int_0^1 t^{a-1} dt = 1/a; a zero exponent would mean
    the expansion bookkeeping is broken, and raises.
    """
    if n not in (1, 2):
        raise ValueError("the integral form is only tractable for n in {1, 2}")
    var = g.var
    sigma = rename(fam.sigma("tmp"), var)
    work = min(g.order, sigma.order)
    sig = sigma.truncate(work)
    gg = g.truncate(work)

    def delta_upto(k: int) -> EpsPoly:
        # eps_k t_k + eps_{k-1} t_{k-1} t_k + ... + eps_1 t_1 ... t_k
        acc = EpsPoly(n, {})
        for i in range(1, k + 1):
            e = tuple(1 if j == i - 1 else 0 for j in range(n))
            t = tuple(1 if i - 1 <= j <= k - 1 else 0 for j in range(n))
            acc = acc.add(EpsPoly(n, {(e, t): PowerSeries.one(var, work)}))
        return acc

    acc = EpsPoly.const(n, PowerSeries.one(var, work))
    for k in range(1, n):
        acc = acc.mul(_taylor_shift(sig, delta_upto(k), 2 * n))
    acc = acc.mul(_taylor_shift(gg, delta_upto(n), 2 * n))

    top = (2,) * n
    total = None
    for (e, t), series in acc.terms.items():
        if e != top:
            continue
        weight = Fraction(2**n)  # (d^2/deps^2)|_0 contributes 2! per slot
        for a in t:
            if a == 0:
                raise SeriesError("divergent t-monomial in the integral form")
            weight /= a
        term = series.scale(weight)
        total = term if total is None else total + term
    if total is None:
        return PowerSeries.zero(var, max(work - 2 * n, 0), g.czero)
    return sig * total

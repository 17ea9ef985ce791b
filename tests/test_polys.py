"""Dense polynomials in one variable on integer numerators over one
denominator, against the ``Fraction``-per-coefficient oracle; a polynomial
in two variables is the tuple of its outer coefficients."""

from fractions import Fraction as Q
from math import comb, factorial, gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import NaivePoly, naive_divided_difference
from umbralog.polys import Poly, divided_difference
from umbralog.presets import family
from umbralog.series import PowerSeries
from umbralog.umbral import p_seq

small = st.fractions(min_value=-9, max_value=9, max_denominator=7)
polys = st.lists(small, max_size=8).map(Poly)


def eval2(p: tuple, x, y):
    """The y^j coefficients p, Polys in x, at (x, y)."""
    return sum((c.eval(x) * y**j for j, c in enumerate(p)), Q(0))


@settings(max_examples=80, deadline=None)
@given(polys, small, small)
def test_taylor_is_the_shift(p, x, y):
    assert eval2(p.taylor(), x, y) == p.eval(x + y)


@settings(max_examples=80, deadline=None)
@given(polys, small, small)
def test_divided_difference_at_rational_points(g, x, p):
    assume(x != p)
    want = (x * g.eval(x) - p * g.eval(p)) / (x - p)
    assert eval2(divided_difference(g), x, p) == want


def test_substitution_of_a_poly():
    # a Poly is evaluated at rationals only; y := x in a polynomial in two
    # variables sums its y^j coefficients times x^j: (1 + 2y + y^2 x) gives
    # 1 + 2x + x^3, and the Taylor tuple of q gives q(2x)
    def at_y_is_x(p: tuple) -> Poly:
        return sum((c.mul_x(j) for j, c in enumerate(p)), Poly())

    assert at_y_is_x((Poly([1]), Poly([2]), Poly([0, 1]))) == Poly([1, 2, 0, 1])
    assert at_y_is_x(()) == Poly()
    q = Poly([1, Q(1, 2), -3, 2])
    assert at_y_is_x(q.taylor()) == Poly([c * 2**i for i, c in enumerate(q.coeffs)])
    with pytest.raises(TypeError, match="^expected a rational, got Poly$"):
        q.eval(Poly.x())


class TestClosedAtTwoVariables:
    """``Poly`` stops at Q[x]: a polynomial in two variables, as
    ``taylor`` and ``divided_difference`` give, is the tuple of its outer
    coefficients, each over rationals, and one of them where a coefficient
    is due is one named ``TypeError``."""

    p = Poly([1, 2, Q(-1, 3), 4])
    message = "^expected a rational, got Poly$"

    def test_a_coefficient_of_a_poly(self):
        xy = self.p.taylor()
        for coeffs in (xy, [1, xy[1]], [Q(1, 2), 0, xy[-1]]):
            with pytest.raises(TypeError, match=self.message):
                Poly(coeffs)
        with pytest.raises(TypeError, match=self.message):
            Poly.const(xy[2])
        # the same step from rationals: p(0 + y) has p's coefficients
        assert Poly([c.eval(0) for c in xy]) == self.p

    def test_taylor(self):
        xy = self.p.taylor()
        assert type(xy) is tuple and len(xy) == self.p.degree() + 1
        for j, c in enumerate(xy):
            assert type(c) is Poly and all(type(a) is Q for a in c.coeffs)
            assert c == self.p.derive(j) * Q(1, factorial(j))
        assert Poly([1, 2]).taylor() == (Poly([1, 2]), Poly([2]))
        assert Poly().taylor() == ()

    def test_divided_difference(self):
        dd = divided_difference(self.p)
        assert type(dd) is tuple and len(dd) == self.p.degree() + 1
        # the tails by Horner's rule: each is x times the next plus p_k
        for k, c in enumerate(dd):
            assert type(c) is Poly and all(type(a) is Q for a in c.coeffs)
            rest = dd[k + 1] if k + 1 < len(dd) else Poly()
            assert c == rest.mul_x(1) + self.p.coefficient(k)
        assert divided_difference(Poly([1, 2])) == (Poly([1, 2]), Poly([2]))
        assert divided_difference(Poly()) == ()

    def test_a_series_coefficient(self):
        xy = self.p.taylor()
        for coeffs in (xy, [Q(1, 2), xy[1]], [xy[0].eval(1), 0, xy[2]]):
            with pytest.raises(TypeError, match=self.message):
                PowerSeries("y", coeffs)
        # at a rational x the tuple is a series in y over rationals
        u = PowerSeries("y", [c.eval(Q(1, 2)) for c in xy])
        assert u.coeffs == tuple(c.eval(Q(1, 2)) for c in xy)


def binomial_convolution(seq, n: int) -> tuple:
    """The y^j coefficients of sum_k C(n, k) p_k(x) p_{n-k}(y), j <= n."""
    return tuple(
        sum((seq[k] * (comb(n, k) * seq[n - k].coefficient(j)) for k in range(n + 1)), Poly())
        for j in range(n + 1)
    )


def test_nested_equality_is_not_trivial():
    # p_n(x + y) = p_n(x) p_n(y) fails for exp1 at every n >= 2, so comparing
    # y^j coefficients can tell different polynomials apart; the true
    # binomial-type convolution holds at the same n
    seq = p_seq(family("exp1", 9), 8)
    for n in range(2, 9):
        product = tuple(seq[n] * c for c in seq[n].coeffs)
        assert seq[n].taylor() != product
        assert seq[n].taylor() == binomial_convolution(seq, n)


# -- against the oracle ------------------------------------------------------------

# zeros are frequent, so trailing zeros and cancellations get trimmed
coefficient = st.one_of(st.just(Q(0)), small)
flat_lists = st.lists(coefficient, max_size=6)
nonzero = small.filter(bool)


def assert_canonical(p: Poly):
    """Trimmed integer numerators over a positive denominator, gcd 1
    between them."""
    assert type(p.num) is tuple and type(p.den) is int and p.den > 0
    assert not p.num or p.num[-1]
    assert all(type(x) is int for x in p.num)
    assert gcd(p.den, *p.num) == 1
    # equal values have equal numerators and denominators
    again = Poly(p.coeffs)
    assert (again.num, again.den) == (p.num, p.den)


def assert_same(got, want):
    """Equal values, of the oracle's exact type: a ``Fraction``, a canonical
    ``Poly`` of ``Fraction`` coefficients, or a tuple of such Polys."""
    if isinstance(want, tuple):
        assert type(got) is tuple and len(got) == len(want)
        for g, w in zip(got, want):
            assert_same(g, w)
    elif isinstance(want, Q):
        assert type(got) is Q and got == want
    else:
        assert type(got) is Poly
        assert_canonical(got)
        assert got.coeffs == want.coeffs
        assert all(type(c) is Q for c in got.coeffs)


@settings(max_examples=60, deadline=None)
@given(flat_lists, flat_lists, small, small)
def test_every_operation_in_one_variable_matches_the_oracle(ca, cb, r, x0):
    a, na, b, nb = Poly(ca), NaivePoly(ca), Poly(cb), NaivePoly(cb)
    assert_same(a + b, na + nb)
    assert_same(a - b, na - nb)
    assert_same(a * b, na * nb)
    assert_same(-a, -na)
    assert_same(a + r, na + r)
    assert_same(a - r, na - r)
    assert_same(r - a, (-na) + r)
    assert_same(a * r, na * r)
    assert_same(r * a, na * r)
    assert_same(a * 3, na * 3)
    if r:
        assert_same(a / r, na / r)
    for k in range(3):
        assert_same(a.derive(k), na.derive(k))
        assert_same(a.mul_x(k), na.mul_x(k))
    assert_same(a.taylor(), na.taylor())
    assert_same(divided_difference(a), naive_divided_difference(na))
    assert_same(a.eval(x0), na.eval(x0))
    assert_same(a.eval(int(x0)), na.eval(Q(int(x0))))


@settings(max_examples=60, deadline=None)
@given(flat_lists, nonzero)
def test_equal_values_have_equal_numerators_and_denominators(ca, r):
    a = Poly(ca)
    for b in (a * r / r, a + Poly([r]) - r, a.derive(0).mul_x(0), Poly(a.coeffs)):
        assert (b.num, b.den) == (a.num, a.den)
        assert b == a and hash(b) == hash(a)


@settings(max_examples=60, deadline=None)
@given(flat_lists, flat_lists)
def test_eq_and_hash_agree(ca, cb):
    a, b = Poly(ca), Poly(cb)
    assert (a == b) == (a.coeffs == b.coeffs)
    if a == b:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("r", [0, 1, -3, Q(1, 2), Q(-7, 3)])
def test_a_constant_equals_and_hashes_like_its_rational(r):
    for c in (Poly.const(r), Poly([r])):
        assert c == r and c == Q(r)
        assert hash(c) == hash(r) == hash(Q(r))


def test_coeffs_is_read_only_and_built_on_reading():
    p = Poly([Q(1, 2), Q(1, 3)])
    assert (p.num, p.den) == ((3, 2), 6)
    assert p.coeffs == (Q(1, 2), Q(1, 3))
    with pytest.raises(AttributeError):
        p.coeffs = (Q(1),)


@pytest.mark.parametrize("method", ["mul_x", "derive"])
def test_a_negative_count_is_a_value_error(method):
    with pytest.raises(ValueError, match=f"{method} needs a count >= 0, not -1"):
        getattr(Poly([1, 2, 3]), method)(-1)

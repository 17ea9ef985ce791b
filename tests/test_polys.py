"""Polynomials in two variables as ``Poly`` over ``Poly`` (Q[x][y])."""

from fractions import Fraction as Q
from math import comb

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from umbralog.polys import Poly, divided_difference
from umbralog.presets import family
from umbralog.umbral import p_seq

small = st.fractions(min_value=-9, max_value=9, max_denominator=7)
polys = st.lists(small, max_size=8).map(Poly)


def eval2(p: Poly, x, y):
    """p in Q[x][y] at (x, y): the y^j coefficient is a Poly in x."""
    return sum((c.eval(x) * y**j for j, c in enumerate(p.coeffs)), Q(0))


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
    # (1 + 2y + y^2 x) with y := x is 1 + 2x + x^3
    p = Poly([Poly([1]), Poly([2]), Poly([0, 1])])
    assert p.eval(Poly.x()) == Poly([1, 2, 0, 1])
    assert Poly().eval(Poly.x()) == Poly()


def binomial_convolution(seq, n: int) -> Poly:
    rhs = Poly()
    for k in range(n + 1):
        rhs = rhs + Poly([seq[k] * c for c in seq[n - k].coeffs]) * comb(n, k)
    return rhs


def test_nested_equality_is_not_trivial():
    # p_n(x + y) = p_n(x) p_n(y) fails for exp1 at every n >= 2, so the
    # Q[x][y] comparison can tell different polynomials apart; the true
    # binomial-type convolution holds at the same n
    seq = p_seq(family("exp1", 9), 8)
    for n in range(2, 9):
        product = Poly([seq[n] * c for c in seq[n].coeffs])
        assert seq[n].taylor() != product
        assert seq[n].taylor() == binomial_convolution(seq, n)

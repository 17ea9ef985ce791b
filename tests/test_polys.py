"""Dense polynomials on integer numerators over one denominator, against
the ``Fraction``-per-coefficient oracle, and polynomials in two variables
as ``Poly`` over ``Poly`` (Q[x][y])."""

from fractions import Fraction as Q
from math import comb, gcd

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


class TestClosedAtTwoVariables:
    """``Poly`` stops at Q[x][y]: each way into Q[x][y][z] is one named
    ``TypeError``, and the same steps from Q[x] still work."""

    xy = Poly([Poly([1, 2]), Poly([0, Q(1, 3)])])  # 1 + 2x + xy/3
    deeper = r" in Q\[x\]\[y\] would be in Q\[x\]\[y\]\[z\]; Poly stops at Q\[x\]\[y\]$"

    def test_a_coefficient_of_a_poly(self):
        for coeffs in ([self.xy], [1, self.xy], [Poly.x(), self.xy]):
            with pytest.raises(TypeError, match="^a coefficient" + self.deeper):
                Poly(coeffs)
        with pytest.raises(TypeError, match="^a coefficient" + self.deeper):
            Poly.const(self.xy)
        assert Poly([Poly.x(), 1]).coeffs == (Poly.x(), Poly.const(1))

    def test_taylor(self):
        with pytest.raises(TypeError, match=r"^taylor\(\) of a Poly" + self.deeper):
            self.xy.taylor()
        assert Poly([1, 2]).taylor() == Poly([Poly([1, 2]), Poly([2])])

    def test_divided_difference(self):
        with pytest.raises(TypeError, match="^divided_difference of a Poly" + self.deeper):
            divided_difference(self.xy)
        assert divided_difference(Poly([1, 2])) == Poly([Poly([1, 2]), Poly([2])])

    def test_a_series_coefficient(self):
        for coeffs in ([self.xy, 1], [Poly.x(), Q(1, 2), self.xy]):
            with pytest.raises(TypeError, match="^a coefficient" + self.deeper):
                PowerSeries("x", coeffs)
        assert PowerSeries("x", [Poly.x(), 1]).coeffs == (Poly.x(), Poly.const(1))


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


# -- against the oracle ------------------------------------------------------------

# zeros are frequent, so trailing zeros and cancellations get trimmed
coefficient = st.one_of(st.just(Q(0)), small)
flat_lists = st.lists(coefficient, max_size=6)
nested_lists = st.lists(st.lists(coefficient, max_size=4), max_size=4)
nonzero = small.filter(bool)


def both(coeffs):
    """The new Poly and the oracle over one coefficient list, nested or not."""
    if coeffs and isinstance(coeffs[0], list):
        return Poly([Poly(c) for c in coeffs]), NaivePoly([NaivePoly(c) for c in coeffs])
    return Poly(coeffs), NaivePoly(coeffs)


def depth(x) -> int:
    """0 for a rational, 1 for a polynomial over rationals, 2 over polynomials."""
    if isinstance(x, Q):
        return 0
    return 1 + max(map(depth, x.coeffs), default=0)


def value(x, depth: int):
    """x as nested lists of Fractions, depth levels deep; a rational where a
    polynomial is due is a constant one (the oracle mixes them in)."""
    if depth == 0:
        assert isinstance(x, Q)
        return x
    if isinstance(x, Q):
        return [x] if x else []
    out = [value(c, depth - 1) for c in x.coeffs]
    while out and not out[-1]:
        out.pop()
    return out


def assert_canonical(p: Poly):
    """Trimmed numerators over a positive denominator, gcd 1 between them;
    in Q[x][y] the numerators are canonical integral Polys."""
    assert type(p.num) is tuple and type(p.den) is int and p.den > 0
    assert not p.num or p.num[-1]
    assert len({type(x) for x in p.num}) <= 1
    ints = []
    for x in p.num:
        if type(x) is Poly:
            assert x.den == 1
            assert_canonical(x)
            ints.extend(x.num)
        else:
            assert type(x) is int
            ints.append(x)
    assert gcd(p.den, *ints) == 1
    # equal values have equal numerators and denominators
    again = Poly(p.coeffs)
    assert (again.num, again.den) == (p.num, p.den)


def assert_same(got, want):
    """Equal values, at the oracle's depth, and of the exact type of that
    depth at every level: a ``Fraction``, or a canonical ``Poly`` whose
    coefficients all have one type."""
    d = depth(want)
    if d == 0:
        assert type(got) is Q and got == want
        return
    assert type(got) is Poly
    assert_canonical(got)
    assert depth(got) == d and value(got, d) == value(want, d)
    for c in got.coeffs:
        if d == 1:
            assert type(c) is Q
        else:
            assert type(c) is Poly and all(type(y) is Q for y in c.coeffs)


def check_ring(a, b, na, nb, r):
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


@settings(max_examples=60, deadline=None)
@given(flat_lists, flat_lists, small, small)
def test_every_operation_in_one_variable_matches_the_oracle(ca, cb, r, x0):
    (a, na), (b, nb) = both(ca), both(cb)
    check_ring(a, b, na, nb, r)
    assert_same(a.taylor(), na.taylor())
    assert_same(divided_difference(a), naive_divided_difference(na))
    assert_same(a.eval(x0), na.eval(x0))
    assert_same(a.eval(int(x0)), na.eval(Q(int(x0))))
    assert_same(a.eval(b), na.eval(nb))


@settings(max_examples=40, deadline=None)
@given(nested_lists, nested_lists, flat_lists, small, small)
def test_every_operation_in_two_variables_matches_the_oracle(ca, cb, cx, r, x0):
    (a, na), (b, nb), (x, nx) = both(ca), both(cb), both(cx)
    check_ring(a, b, na, nb, r)
    # beside one over Poly, a Poly over rationals has constant coefficients
    assert_same(a + x, na + nx)
    assert_same(x - a, nx - na)
    assert_same(a * x, na * nx)
    assert_same(x * a, nx * na)
    assert_same(a.eval(x0), na.eval(x0))
    assert_same(a.eval(x), na.eval(nx))


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
    for c in (Poly.const(r), Poly([r]), Poly([Poly([r])]), Poly.const(Poly.const(r))):
        assert c == r and c == Q(r)
        assert hash(c) == hash(r) == hash(Q(r))
    assert Poly([Poly([1])]) == 1 and hash(Poly([Poly([1])])) == hash(1)
    assert Poly([Poly([1]), Poly([2])]) == Poly([1, 2])
    assert hash(Poly([Poly([1]), Poly([2])])) == hash(Poly([1, 2]))


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

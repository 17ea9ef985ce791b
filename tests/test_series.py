"""Core series arithmetic against independent oracles and stated examples."""

from fractions import Fraction as Q
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bernoulli_numbers, exp_by_partial_sums, lagrange_inverse_coefficients
from umbralog.parampoly import ParamPoly
from umbralog.polys import Poly
from umbralog.presets import family
from umbralog.series import OrderError, PowerSeries, SeriesError

S = ParamPoly.symbol("s")


def series(coeffs, var="x"):
    return PowerSeries(var, [Q(c) for c in coeffs])


def geometric(order):
    return PowerSeries("x", [Q(1)] * (order + 1))


def expm1(order):
    return PowerSeries("x", [Q(0)] + [Q(1, factorial(n)) for n in range(1, order + 1)])


class TestArith:
    def test_telescoping_product(self):
        a = series([1, 1, 0, 0])
        b = series([1, -1, 0, 0])
        assert a * b == series([1, 0, -1, 0])

    def test_x_over_expm1_matches_bernoulli_recurrence(self):
        u = expm1(6).div_var(1).inv()
        b = bernoulli_numbers(5)
        for n in range(6):
            assert u.coefficient(n) == b[n] / factorial(n)
        assert u.truncate(4) == series([1, Q(-1, 2), Q(1, 12), 0, Q(-1, 720)])

    def test_self_division_is_one(self):
        for f in (expm1(8), geometric(8), series([2, 3, -1, 5, 0, 7])):
            if f.coefficient(0) == 0:
                continue
            assert (f / f).prefix_equal(PowerSeries.one("x", f.order))

    def test_division_by_zero_constant_rejected(self):
        with pytest.raises(SeriesError):
            series([1, 2, 3]) / series([0, 1, 1])

    def test_variable_mismatch_rejected(self):
        with pytest.raises(SeriesError):
            series([1, 2]) * PowerSeries("t", [Q(1), Q(2)])


class TestCompose:
    def test_exp_log_inverse_pair(self):
        e = expm1(8)
        lg = PowerSeries("x", [Q(0)] + [Q((-1) ** (n + 1), n) for n in range(1, 9)])
        assert e.compose(lg).prefix_equal(PowerSeries.identity("x", 8))

    def test_square_of_shift(self):
        outer = series([0, 0, 1, 0, 0])
        inner = series([0, 1, 1, 0, 0])
        assert outer.compose(inner) == series([0, 0, 1, 2, 1])

    def test_omega_composed_with_its_defining_series(self):
        fam = family("exp1", 13)
        ident = PowerSeries.identity("x", 12)
        assert fam.tau_f.compose(fam.omega).prefix_equal(ident)
        assert fam.omega.compose(fam.tau_f.truncate(12)).prefix_equal(ident)

    def test_nonzero_inner_constant_rejected(self):
        with pytest.raises(SeriesError):
            series([1, 1]).compose(series([1, 1]))


class TestRevert:
    def test_identity(self):
        x = PowerSeries.identity("x", 6)
        assert x.revert() == x

    def test_log_series_from_saturation_curve(self):
        # (1 - e^{-x})^inv has coefficients 1, 1/2, 1/3, ...
        u = PowerSeries(
            "x", [Q(0)] + [Q(-((-1) ** n), factorial(n)) for n in range(1, 9)]
        )
        v = u.revert()
        for n in range(1, 9):
            assert v.coefficient(n) == Q(1, n)

    def test_against_lagrange_inversion_oracle(self):
        u = series([0, 1, 1] + [0] * 9)
        v = u.revert()
        expected = lagrange_inverse_coefficients(u, 11)
        for n in range(1, 12):
            assert v.coefficient(n) == expected[n]
        assert [v.coefficient(n) for n in range(1, 5)] == [1, -1, 2, -5]

    def test_rejects_zero_linear_coefficient(self):
        with pytest.raises(SeriesError):
            series([0, 0, 1, 1]).revert()

    def test_rejects_non_unit_linear_coefficient(self):
        with pytest.raises(SeriesError):
            series([0, 2, 1, 1, 0, 0, 0]).revert()


class TestExpLog:
    def test_exp_of_zero(self):
        z = PowerSeries.zero("x", 5)
        assert z.exp() == PowerSeries.one("x", 5)

    def test_log_exp_round_trip(self):
        u = series([0, 1, 0, 1, 0, 0, 0, 0])
        assert u.exp().log().prefix_equal(u)

    def test_exp_example_against_partial_sums(self):
        u = PowerSeries(
            "x", [Q(0)] + [Q(1, n * factorial(n)) for n in range(1, 8)]
        )
        e = u.exp()
        assert e.truncate(3) == series([1, 1, Q(3, 4), Q(17, 36)])
        assert e.prefix_equal(exp_by_partial_sums(u))

    def test_exp_requires_zero_constant(self):
        with pytest.raises(SeriesError):
            series([1, 1]).exp()

    def test_log_requires_unit_constant(self):
        with pytest.raises(SeriesError):
            series([2, 1]).log()


class TestPowParam:
    def test_power_of_one(self):
        one = PowerSeries.one("x", 5)
        u = one.pow_param(S)
        assert all(ParamPoly.coerce(u.coefficient(k)).is_zero() for k in range(1, 6))

    def test_linear_coefficient_of_bernoulli_base(self):
        u = expm1(6).div_var(1).inv().pow_param(S)
        assert ParamPoly.coerce(u.coefficient(1)) == S * Q(-1, 2)

    def test_binomial_series(self):
        u = series([1, 1] + [0] * 8).pow_param(S)
        for e in range(6):
            for n in range(9):
                lhs = ParamPoly.coerce(u.coefficient(n)).eval(s=Q(e))
                from math import comb

                assert lhs == (comb(e, n) if n <= e else 0)

    def test_requires_unit_constant(self):
        with pytest.raises(SeriesError):
            series([0, 1]).pow_param(S)


class TestCalculus:
    def test_derive_monomial(self):
        assert series([0, 0, 0, 1, 0]).derive() == series([0, 0, 3, 0])

    def test_integrate_geometric_tail(self):
        u = geometric(7) - 1
        v = u.integrate()
        assert v.coefficient(0) == 0 and v.coefficient(1) == 0
        for n in range(2, 9):
            assert v.coefficient(n) == Q(1, n)

    def test_derivative_of_reverted_saturation(self):
        u = PowerSeries(
            "x", [Q(0)] + [Q(-((-1) ** n), factorial(n)) for n in range(1, 10)]
        )
        assert u.revert().derive().prefix_equal(geometric(8))


class TestStrictTruncation:
    def test_reading_past_order_raises(self):
        u = series([1, 2, 3])
        with pytest.raises(OrderError):
            u.coefficient(3)

    def test_truncate_cannot_extend(self):
        with pytest.raises(OrderError):
            series([1, 2]).truncate(5)

    def test_product_order_is_min(self):
        assert (series([1] * 9) * series([1] * 5)).order == 4

    def test_derive_drops_order(self):
        assert series([1] * 6).derive().order == 4


small_rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=10
)


@st.composite
def truncated_series(draw, order=st.integers(min_value=2, max_value=16)):
    n = draw(order)
    return PowerSeries("x", [draw(small_rationals) for _ in range(n + 1)])


class TestProperties:
    @given(truncated_series(), truncated_series(), truncated_series())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        n = min(a.order, b.order, c.order)
        a, b, c = a.truncate(n), b.truncate(n), c.truncate(n)
        assert ((a * b) * c).prefix_equal(a * (b * c))
        assert ((a + b) + c).prefix_equal(a + (b + c))
        assert (a * (b + c)).prefix_equal(a * b + a * c)

    @given(truncated_series())
    @settings(max_examples=50, deadline=None)
    def test_revert_round_trip(self, u):
        coeffs = list(u.coeffs)
        coeffs[0], coeffs[1] = Q(0), Q(1)
        u = PowerSeries("x", coeffs)
        v = u.revert()
        ident = PowerSeries.identity("x", u.order)
        assert u.compose(v).prefix_equal(ident)
        assert v.compose(u).prefix_equal(ident)

    @given(truncated_series(order=st.integers(min_value=2, max_value=10)),
           st.integers(min_value=0, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_pow_param_specializes(self, u, e):
        u = u - u.coefficient(0) + Q(1)
        spec = u.pow_param(S).map_coeffs(
            lambda p: ParamPoly.coerce(p).eval(s=Q(e))
        )
        assert spec.prefix_equal(u.pow_int(e))

    @given(truncated_series())
    @settings(max_examples=40, deadline=None)
    def test_derive_integrate_identity(self, u):
        u = u - u.coefficient(0)
        assert u.integrate().derive().prefix_equal(u)


@st.composite
def small_param_polys(draw):
    keys = st.tuples(st.integers(0, 2), st.integers(0, 2), st.just(0))
    return ParamPoly(draw(st.dictionaries(keys, small_rationals, max_size=3)))


@st.composite
def domain_series(draw, head):
    """A series in x over ParamPoly.  ``head`` fixes the first coefficients:
    "tangent" is 0 + 1*x + ..., "unit" is 1 + ...."""
    n = draw(st.integers(min_value=2, max_value=5))
    zero = ParamPoly()
    fixed = [zero, zero + 1] if head == "tangent" else [zero + 1]
    rest = [draw(small_param_polys()) for _ in range(n + 1 - len(fixed))]
    return PowerSeries("x", fixed + rest, zero)


def assert_order(u, n):
    """u is valid exactly to order n: reading past raises."""
    assert u.order == n
    with pytest.raises(OrderError):
        u.coefficient(n + 1)


class TestDomainProperties:
    """Round trips and truncation orders over ParamPoly, the domain of the
    q tables and continuations."""

    @given(domain_series("tangent"))
    @settings(max_examples=30, deadline=None)
    def test_compose_revert_round_trip(self, u):
        v = u.revert()
        ident = PowerSeries.identity("x", u.order, u.czero)
        assert u.compose(v).prefix_equal(ident)
        assert v.compose(u).prefix_equal(ident)
        assert_order(v, u.order)

    @given(domain_series("unit"), domain_series("tangent"))
    @settings(max_examples=30, deadline=None)
    def test_exp_log_round_trip(self, w, v):
        assert w.log().exp().prefix_equal(w)
        assert_order(w.log(), w.order)
        assert v.exp().log().prefix_equal(v)
        assert_order(v.exp(), v.order)

    @given(domain_series("tangent"), st.data())
    @settings(max_examples=30, deadline=None)
    def test_orders_propagate(self, u, data):
        k = data.draw(st.integers(min_value=1, max_value=u.order))
        short = u.truncate(k)
        assert_order(u * short, k)
        assert_order(u.compose(short), k)
        assert_order(short.compose(u), k)
        assert_order(u.div_var(1) / short.div_var(1), k - 1)
        assert_order(u.derive(), u.order - 1)
        assert_order(u.div_var(1).pow_param(S), u.order - 1)
        with pytest.raises(OrderError):
            short.truncate(k + 1)


class TestHash:
    def test_equal_series_hash_equal_across_domains(self):
        pzero = ParamPoly()
        pairs = [
            (series([0, 1]), PowerSeries("x", [pzero, ParamPoly.const(1)], pzero)),
            (series([2, 0, Q(1, 3)]),
             PowerSeries("x", [ParamPoly.const(2), pzero, ParamPoly.const(Q(1, 3))], pzero)),
            (series([1, 2]), PowerSeries("x", [Q(1), Q(2)], pzero)),
        ]
        for a, b in pairs:
            assert a == b
            assert hash(a) == hash(b)
        assert len({a for a, _ in pairs} | {b for _, b in pairs}) == len(pairs)


class TestCoefficientProtocol:
    """Every coefficient domain answers Fraction's operators."""

    def test_bool_means_nonzero(self):
        values = [
            ParamPoly(), ParamPoly.const(0), ParamPoly.const(3), S - S, S,
            Poly(), Poly.const(0), Poly.const(Q(1, 2)), Poly.x(),
            series([0, 0]), series([0, 1]),
        ]
        for c in values:
            assert bool(c) == (not c.is_zero())
        assert not ParamPoly() and not Poly() and not series([0, 0])

    def test_rational_over_constant(self):
        assert Q(1) / ParamPoly.const(Q(-2, 3)) == ParamPoly.const(Q(-3, 2))
        assert Q(1) / Poly.const(4) == Poly.const(Q(1, 4))
        with pytest.raises(ValueError):
            Q(1) / S
        with pytest.raises(ValueError):
            Q(1) / Poly.x()
        u = series([2, 4, 6]) / ParamPoly.const(2)
        assert u.coeffs == (ParamPoly.const(1), ParamPoly.const(2), ParamPoly.const(3))

    def test_adding_a_scalar_widens_the_domain(self):
        u = PowerSeries.zero("x", 2) + S
        assert type(u.czero) is ParamPoly
        assert all(type(c) is ParamPoly for c in (u * u).coeffs)

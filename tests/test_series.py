"""Core series arithmetic against independent oracles and stated examples."""

from decimal import Decimal
from fractions import Fraction as Q
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    bernoulli_numbers,
    exp_by_partial_sums,
    lagrange_inverse_coefficients,
    naive_add,
    naive_compose,
    naive_derive,
    naive_div,
    naive_eval_truncated,
    naive_exp,
    naive_integrate,
    naive_log,
    naive_mul,
    naive_revert,
    naive_scale,
    pow_by_exp_log,
)
from umbralog import polys
from umbralog import series as series_module
from umbralog.parampoly import ParamPoly
from umbralog.polys import Poly
from umbralog.presets import family
from umbralog.series import OrderError, PowerSeries, SeriesError
from umbralog.umbral import rename

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
    return PowerSeries("x", fixed + rest)


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
            (series([0, 1]), PowerSeries("x", [pzero, ParamPoly.const(1)])),
            (series([2, 0, Q(1, 3)]),
             PowerSeries("x", [ParamPoly.const(2), pzero, ParamPoly.const(Q(1, 3))])),
            (series([1, 2]), PowerSeries("x", [Poly.const(1), Poly.const(2)])),
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


# each domain with a value that is not a rational constant in it
DOMAINS = {Q: Q(1, 3), ParamPoly: S, Poly: Poly.x()}


def in_domain(coeffs, domain):
    """A series in x over ``domain``: each rational coefficient lifted to it,
    and the string "sym" replaced by the domain's non-constant value."""
    lift = {Q: Q, ParamPoly: ParamPoly.const, Poly: Poly.const}[domain]
    return PowerSeries("x", [DOMAINS[domain] if c == "sym" else lift(c) for c in coeffs])


def assert_uniform(u, domain):
    assert {type(c) for c in u.coeffs} == {domain}
    assert type(u.czero) is domain and not u.czero


class TestOneDomainPerSeries:
    """A series' coefficients all have one type, the join of its inputs'
    domains; ``czero`` is that type's zero."""

    @pytest.mark.parametrize("domain", DOMAINS)
    @pytest.mark.parametrize("other", [Q, "same"])
    def test_every_operation_returns_the_joined_domain(self, domain, other):
        other = domain if other == "same" else other
        unit = in_domain([1, "sym", Q(1, 2), -2, 0, 5], domain)
        tangent = in_domain([0, 1, "sym", 3, 0, Q(-1, 7)], domain)
        unit2 = in_domain([2, Q(1, 5), 0, "sym", 1, 1], other)
        tangent2 = in_domain([0, 1, Q(2, 3), 0, "sym", 4], other)
        results = [
            unit * unit2, unit2 * unit, unit * Q(3), unit.scale(Q(-1, 2)),
            unit + unit2, unit2 - unit, unit + 1, 1 - unit,
            unit / unit2, unit2 / unit, unit.inv(), unit.pow_int(3),
            unit.compose(tangent2), unit2.compose(tangent), tangent.revert(),
            unit.pow_param(Q(1, 3)), unit.pow_param(-2), tangent.exp(), unit.log(),
            unit.derive(), tangent.integrate(), tangent.div_var(1), unit.mul_var(2),
            unit.truncate(2), unit.map_coeffs(lambda c: c * 2),
        ]
        for got in results:
            assert_uniform(got, domain)

    @pytest.mark.parametrize("wider", [ParamPoly, Poly])
    def test_a_wider_scalar_or_factor_widens_every_coefficient(self, wider):
        sym = DOMAINS[wider]
        u = in_domain([1, Q(1, 2), 0, -3], Q)
        v = in_domain([0, 1, Q(1, 4), 2], Q)
        w = in_domain([1, "sym", 0, 2], wider)
        results = [
            u + sym, u - sym, u.scale(sym), u * w, w * u, u / w,
            u.compose(in_domain([0, 1, "sym", 0], wider)), w.compose(v),
            u.map_coeffs(lambda c: c * sym if c else c),
        ]
        if wider is ParamPoly:
            results += [u.pow_param(S), (v * S + v).exp(), (u + S * v).log()]
        for got in results:
            assert_uniform(got, wider)

    @pytest.mark.parametrize("wider", [ParamPoly, Poly])
    def test_a_scalar_on_the_left_of_a_series_widens_it(self, wider):
        sym = DOMAINS[wider]
        u = in_domain([1, 2, 3], Q)
        assert sym + u == u + sym
        assert sym - u == -(u - sym)
        for got in (sym + u, sym - u):
            assert_uniform(got, wider)
            assert got.coefficient(2) in (Q(3), Q(-3))

    def test_a_float_is_not_a_parampoly_operand(self):
        with pytest.raises(TypeError, match="expected a rational, got float"):
            S + 1.5
        with pytest.raises(TypeError, match="expected a rational, got float"):
            S - 1.5

    def test_the_constructor_states_one_domain(self):
        assert PowerSeries("x", [1, 0, True]).coeffs == (Q(1), Q(0), Q(1))
        assert_uniform(PowerSeries("x", [1, 0, True]), Q)
        mixed = PowerSeries("x", [Q(1), 2, S, ParamPoly()])
        assert_uniform(mixed, ParamPoly)
        assert mixed.coeffs == (ParamPoly.const(1), ParamPoly.const(2), S, ParamPoly())
        assert_uniform(PowerSeries("x", [Poly.x(), Q(1, 2)]), Poly)
        assert PowerSeries.__slots__ == ("var", "num", "den")


class TestNoCommonDomain:
    """``ParamPoly`` and ``Poly`` have no common domain: a series that would
    mix them is one named ``TypeError``, in either order."""

    message = "^no common coefficient domain for ParamPoly and Poly$"
    u = in_domain([1, "sym", Q(1, 2), 0], ParamPoly)
    v = in_domain([1, Q(1, 3), "sym", 2], Poly)

    def test_the_constructor(self):
        for coeffs in ([S, Poly.x()], [Poly.x(), Q(1, 2), S], [1, ParamPoly.const(2), Poly()]):
            with pytest.raises(TypeError, match=self.message):
                PowerSeries("x", coeffs)

    def test_a_sum(self):
        for a, b in ((self.u, self.v), (self.v, self.u)):
            with pytest.raises(TypeError, match=self.message):
                a + b
            with pytest.raises(TypeError, match=self.message):
                a - b
        with pytest.raises(TypeError, match=self.message):
            self.u + Poly.x()

    def test_a_product(self):
        for a, b in ((self.u, self.v), (self.v, self.u)):
            with pytest.raises(TypeError, match=self.message):
                a * b
            with pytest.raises(TypeError, match=self.message):
                a / b
            with pytest.raises(TypeError, match=self.message):
                a.compose(b - b.coefficient(0))

    def test_a_scale(self):
        for a, c in ((self.u, Poly.x()), (self.v, S), (self.u, Poly.const(2))):
            with pytest.raises(TypeError, match=self.message):
                a.scale(c)


def test_one_dense_vector_core():
    """The series' lifts and vector operations are the ones ``polys``
    defines, and neither module keeps a second copy of them."""
    lifts = series_module._DOMAINS
    assert lifts[Q] is lifts[int] is polys._INTS
    assert lifts[Poly] is polys._POLYS
    assert set(lifts) == {int, Q, ParamPoly, Poly}
    assert polys._Lift._fields == ("lift", "at", "zero", "const", "reduce", "reduce1", "times")
    for name in ("_conv", "_Lift", "_elements", "_primitive", "_sum_vec", "_scale_vec",
                 "_derive_vec", "_eval_vec"):
        assert getattr(series_module, name) is getattr(polys, name), name
    for name in ("_UNLIFTED", "_unlifted", "_reduce_ints", "_reduce1_ints"):
        assert not hasattr(series_module, name), name
    own = {
        name for name, value in vars(series_module).items()
        if getattr(value, "__module__", None) == series_module.__name__
    }
    assert not own & set(vars(polys))
    helpers = [
        name for name in vars(polys)
        if "content" in name or "canonical" in name or name in ("_nested", "_divide", "_nest")
    ]
    assert helpers == []


INEXACT = [1.5, 1.5 + 0j, Decimal("1.5")]


@pytest.mark.parametrize("value", INEXACT, ids=lambda v: type(v).__name__)
class TestInexactCoefficients:
    """A number that is not rational is no coefficient: both constructors
    name its type, so no operation can return one."""

    def test_the_constructors_reject_it(self, value):
        message = f"expected a rational, got {type(value).__name__}"
        with pytest.raises(TypeError, match=message):
            PowerSeries("x", [value, 2])
        with pytest.raises(TypeError, match=message):
            PowerSeries("x", [Q(1), value])
        with pytest.raises(TypeError, match=message):
            Poly([value])
        with pytest.raises(TypeError, match=message):
            Poly([1, value])
        with pytest.raises(TypeError, match=message):
            Poly.const(value)

    def test_no_operation_returns_it(self, value):
        u = series([1, 2, 3])
        with pytest.raises(TypeError):
            u.scale(value)
        with pytest.raises(TypeError):
            u + value
        with pytest.raises(TypeError):
            Poly([1, 2]) * value
        with pytest.raises(TypeError):
            Poly([1, 2]) / value


class TestNegativeCounts:
    u = series([1, 2, 3, 4])

    def test_div_var(self):
        with pytest.raises(SeriesError, match="div_var needs a count >= 0, not -1"):
            self.u.div_var(-1)

    def test_mul_var(self):
        with pytest.raises(SeriesError, match="mul_var needs a count >= 0, not -1"):
            self.u.mul_var(-1)

    def test_derive(self):
        with pytest.raises(SeriesError, match="derive needs a count >= 0, not -1"):
            self.u.derive(-1)

    def test_zero_counts_return_the_series(self):
        assert self.u.div_var(0) == self.u.mul_var(0) == self.u.derive(0) == self.u


# -- the stored lift -------------------------------------------------------------


def assert_canonical(u):
    """num over den > 0 with gcd 1, elements of one type: int for Fraction,
    ParamPoly or Poly over 1 otherwise."""
    assert type(u.num) is tuple and u.den > 0
    (kind,) = {type(x) for x in u.num}
    if kind is int:
        ints = u.num
        assert {type(c) for c in u.coeffs} == {Q}
    else:
        assert kind in (ParamPoly, Poly) and all(x.den == 1 for x in u.num)
        ints = [y for x in u.num for y in (x.num.values() if kind is ParamPoly else x.num)]
        assert {type(c) for c in u.coeffs} == {kind}
    assert gcd(u.den, *ints) == 1


def assert_same_lift(got, want):
    """Equal values, of the same exact type, in the same stored form."""
    assert_canonical(got)
    assert got == want
    assert got.coeffs == want.coeffs
    assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]
    assert (got.var, got.num, got.den) == (want.var, want.num, want.den)
    assert hash(got) == hash(want)


def lifted_coefficient(domain):
    if domain is Q:
        return small_rationals
    if domain is ParamPoly:
        return small_param_polys()
    return st.lists(small_rationals, max_size=3).map(Poly)


@st.composite
def lifted_series(draw, domain, head=None, max_order=4):
    """A series over domain; head "tangent" fixes 0 + 1*x, "unit" 1 and
    "unit_const" a nonzero rational constant term."""
    n = draw(st.integers(min_value=2, max_value=max_order))
    lift = {Q: Q, ParamPoly: ParamPoly.const, Poly: Poly.const}[domain]
    fixed = {
        None: [],
        "tangent": [lift(0), lift(1)],
        "unit": [lift(1)],
        "unit_const": [lift(draw(small_rationals.filter(bool)))],
    }[head]
    rest = [draw(lifted_coefficient(domain)) for _ in range(n + 1 - len(fixed))]
    return PowerSeries("x", fixed + rest)


LIFT_DOMAINS = [Q, ParamPoly, Poly]


@pytest.mark.parametrize("domain", LIFT_DOMAINS, ids=lambda d: d.__name__)
class TestStoredLift:
    """Every operation returns a canonical lift, equal in value, exact
    coefficient type and stored form to the term-by-term oracle loop."""

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_ring_operations(self, domain, data):
        a = data.draw(lifted_series(domain))
        b = data.draw(lifted_series(domain))
        unit = data.draw(lifted_series(domain, "unit_const"))
        c = data.draw(lifted_coefficient(domain))
        assert_canonical(a)
        assert_same_lift(a * b, naive_mul(a, b))
        assert_same_lift(a / unit, naive_div(a, unit))
        assert_same_lift(a + b, naive_add(a, b))
        assert_same_lift(a - b, naive_add(a, naive_scale(b, Q(-1))))
        assert_same_lift(-a, naive_scale(a, Q(-1)))
        assert_same_lift(a.scale(c), naive_scale(a, c))
        assert_same_lift(a.scale(Q(-3, 4)), naive_scale(a, Q(-3, 4)))
        assert_same_lift(a + c, PowerSeries("x", [a.coeffs[0] + c, *a.coeffs[1:]]))
        assert_same_lift(a.scale(Q(0)), naive_scale(a, Q(0)))
        assert_same_lift(a.derive(), naive_derive(a))
        assert_same_lift(a.derive(2), naive_derive(naive_derive(a)))
        assert_same_lift(a.integrate(), naive_integrate(a))
        assert_same_lift(a.truncate(1), PowerSeries("x", a.coeffs[:2]))
        assert_same_lift(a.mul_var(2), PowerSeries("x", [a.czero] * 2 + list(a.coeffs)))
        assert_same_lift(a.mul_var(1).div_var(1), a)

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_composition_and_transcendental_operations(self, domain, data):
        a = data.draw(lifted_series(domain))
        t = data.draw(lifted_series(domain, "tangent"))
        unit = data.draw(lifted_series(domain, "unit"))
        t0 = t - PowerSeries("x", [t.czero, t.czero + 1] + [t.czero] * (t.order - 1))
        assert_same_lift(a.compose(t), naive_compose(a, t))
        assert_same_lift(t.revert(), naive_revert(t))
        assert_same_lift(t0.exp(), naive_exp(t0))
        assert_same_lift(t.exp(), naive_exp(t))
        assert_same_lift(unit.log(), naive_log(unit))
        assert_same_lift(unit.pow_param(Q(-2, 3)), pow_by_exp_log(unit, Q(-2, 3)))

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_equal_series_by_different_routes(self, domain, data):
        a = data.draw(lifted_series(domain))
        b = data.draw(lifted_series(domain))
        k = min(a.order, b.order) - 1
        routes = [
            ((a * b).truncate(k), a.truncate(k) * b.truncate(k)),
            ((a + b) - b, a.truncate(min(a.order, b.order))),
            (a - a, PowerSeries.zero("x", a.order, a.czero)),
            (rename(rename(a, "t"), "x"), a),
            (a.scale(Q(6)).scale(Q(1, 6)), a),
        ]
        for got, want in routes:
            assert_same_lift(got, want)


@given(truncated_series(), small_rationals)
@settings(max_examples=30, deadline=None)
def test_eval_truncated_matches_the_horner_loop(u, x0):
    assert u.eval_truncated(x0) == naive_eval_truncated(u, x0)


def test_a_mixed_operation_widens_to_one_element_type():
    u = series([1, Q(1, 2), 0, -3])
    for got in (u * in_domain([1, "sym", 0, 2], ParamPoly), u + S, u.scale(Poly.x())):
        assert_canonical(got)

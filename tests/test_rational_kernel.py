"""The lifted kernels against the term-by-term loops.

``PowerSeries.__mul__``, ``PowerSeries.__truediv__`` (and through it
``inv`` and ``log``), ``PowerSeries.compose`` and ``PowerSeries.revert``
compute on integral elements over a common denominator in every
coefficient domain, and ``umbral.sheffer_polys`` (behind ``p_seq`` and
``tau_seq``) on integer numerators; they must return the very values of
the loops in ``oracles.py``, in the same type: ``Fraction`` objects over
``Fraction``, canonical ``ParamPoly`` objects (equal ``num`` and ``den``)
over ``ParamPoly``, ``Poly`` objects over ``Poly``, and the wider domain
for a mixed pair.  ``naive_revert`` doubles its order 1 -> 3 -> 7 -> ...
and divides each error by u'(v), composed to the full order; ``revert``
climbs a halving ladder from the target and multiplies the error by v'
instead, with no composition of u' and no division.
"""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    naive_compose,
    naive_div,
    naive_mul,
    naive_p_seq,
    naive_revert,
    naive_tau_polys,
)
from umbralog import series
from umbralog.parampoly import ParamPoly
from umbralog.polys import Poly
from umbralog.presets import PRESET_NAMES, build_f, family
from umbralog.series import OrderError, PowerSeries, SeriesError
from umbralog.sheffer import bernoulli_weight, tau_seq
from umbralog.umbral import FamilyError, build_family, p_seq
from umbralog.verify import suite_series

S = ParamPoly.symbol("s")


def assert_same_rationals(got: PowerSeries, want: PowerSeries):
    assert got.var == want.var
    assert got.coeffs == want.coeffs
    assert all(type(c) is Q for c in got.coeffs)
    assert type(got.czero) is Q


@st.composite
def rational_series(draw, min_order=0, max_order=18):
    """Random heights up to 10**6, integer-only or not, with zero runs."""
    n = draw(st.integers(min_value=min_order, max_value=max_order))
    h = draw(st.sampled_from([1, 10, 10**3, 10**6]))
    if draw(st.booleans()):
        coeff = st.integers(min_value=-h, max_value=h).map(Q)
    else:
        coeff = st.fractions(min_value=-h, max_value=h, max_denominator=h)
    coeffs = [draw(coeff) for _ in range(n + 1)]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        lo = draw(st.integers(min_value=0, max_value=n))
        hi = draw(st.integers(min_value=lo, max_value=n + 1))
        coeffs[lo:hi] = [Q(0)] * (hi - lo)
    return PowerSeries("x", coeffs)


def vanishing_constant(u: PowerSeries) -> PowerSeries:
    return PowerSeries(u.var, (Q(0),) + u.coeffs[1:])


def with_constant(u: PowerSeries, c) -> PowerSeries:
    return PowerSeries(u.var, (c,) + u.coeffs[1:])


# nonzero constant terms: units and non-units, negative, fractional, tall
divisor_constants = st.one_of(
    st.sampled_from([Q(1), Q(-1), Q(2), Q(-3), Q(1, 7), Q(-5, 2), Q(10**6, 999_999)]),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6).filter(bool),
)


class TestProperties:
    @given(rational_series(), rational_series())
    @settings(max_examples=150, deadline=None)
    def test_mul_matches_oracle(self, a, b):
        got = a * b
        assert got.order == min(a.order, b.order)
        assert_same_rationals(got, naive_mul(a, b))

    @given(rational_series(), rational_series(), divisor_constants)
    @settings(max_examples=100, deadline=None)
    def test_div_matches_oracle(self, a, b, b0):
        b = with_constant(b, b0)
        got = a / b
        assert got.order == min(a.order, b.order)
        assert_same_rationals(got, naive_div(a, b))

    @given(rational_series(), divisor_constants)
    @settings(max_examples=50, deadline=None)
    def test_inv_matches_oracle(self, u, c0):
        u = with_constant(u, c0)
        assert_same_rationals(u.inv(), naive_div(u.one_like(), u))

    @given(rational_series(min_order=1))
    @settings(max_examples=50, deadline=None)
    def test_log_matches_oracle(self, u):
        u = with_constant(u, Q(1))
        want = naive_div(u.derive(), u.truncate(u.order - 1)).integrate()
        assert_same_rationals(u.log(), want)

    @given(rational_series(), rational_series())
    @settings(max_examples=100, deadline=None)
    def test_compose_matches_oracle(self, outer, inner):
        inner = vanishing_constant(inner)
        got = outer.compose(inner)
        assert got.order == min(outer.order, inner.order)
        assert_same_rationals(got, naive_compose(outer, inner))

    @given(rational_series(min_order=2, max_order=12))
    @settings(max_examples=50, deadline=None)
    def test_revert_matches_oracle(self, u):
        coeffs = list(u.coeffs)
        coeffs[0], coeffs[1] = Q(0), Q(1)
        u = PowerSeries("x", coeffs)
        assert_same_rationals(u.revert(), naive_revert(u))


# each rational as a constant of a coefficient domain
LIFT = {Q: Q, ParamPoly: ParamPoly.const, Poly: Poly.const}

SPECS = ("exp1", "geom", "nu", "poly:1,1/2,-1/3,1/5,-1/6", "poly:1,0,0,-7/3,0,1000000")


def unit_linear_series(order: int) -> PowerSeries:
    """0 + x + sum_{k>=2} (-1)^k (k^2 + 1)/(3k - 1) x^k, to the given order."""
    tail = [Q((-1) ** k * (k * k + 1), 3 * k - 1) for k in range(2, order + 1)]
    return PowerSeries("x", [Q(0), Q(1)] + tail)


# The Newton orders run m <- ceil(m/2) down from the target (36: 2, 3, 5, 9,
# 18, 36; 37: 2, 3, 5, 10, 19, 37), so a step from k to m has m <= 2k, and
# at m = 2k the correction is as long as v' mod x^k allows.  1 runs no step.
# The oracle's doubling boundaries (3, 7, 15, 31, and one past) stay too.
REVERT_ORDERS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 16, 17, 18, 19, 33, 36, 37, 65)


class TestRevertFixedCases:
    @pytest.mark.parametrize("order", REVERT_ORDERS)
    def test_unit_linear(self, order):
        u = unit_linear_series(order)
        got = u.revert()
        assert got.order == order
        assert_same_rationals(got, naive_revert(u))

    @pytest.mark.parametrize("spec", SPECS)
    def test_family_inverses_at_order_40(self, spec):
        fam = family(spec, 40)
        assert_same_rationals(fam.phi, naive_revert(fam.f))
        assert_same_rationals(fam.omega, naive_revert(fam.tau_f))

    @pytest.mark.parametrize("order", (2, 5, 10, 19))
    def test_parampoly_constants_give_the_fraction_result(self, order):
        u = unit_linear_series(order)
        lifted = u.map_coeffs(ParamPoly.const)
        got = lifted.revert()
        assert got.order == order
        assert all(type(c) is ParamPoly for c in got.coeffs)
        assert type(got.czero) is ParamPoly
        assert got.coeffs == tuple(ParamPoly.const(c) for c in u.revert().coeffs)


class TestRoundTripChecksStayLive:
    """A reversion off by one in its last coefficient is a named failure,
    over ``Fraction`` and over ``ParamPoly``; so is a composition off by one,
    through ``presets.family`` at every order asked."""

    @pytest.fixture
    def bumped(self, monkeypatch):
        original = series._revert

        def bumped(*lifted):
            v, den = original(*lifted)
            return v[:-1] + [v[-1] + den], den

        monkeypatch.setattr(series, "_revert", bumped)

    @pytest.mark.parametrize("domain", [Q, ParamPoly])
    @pytest.mark.parametrize("spec", SPECS)
    def test_build_family_raises(self, bumped, spec, domain):
        f = build_f(spec, 12).map_coeffs(LIFT[domain])  # fresh: presets.family is memoized
        with pytest.raises(FamilyError, match=r"^internal check failed: f\(phi\(x\)\) != x$"):
            build_family(f)

    def test_suite_series_records_the_failure(self, bumped):
        rep = suite_series()
        failed = [c.name for c in rep.checks if c.status == "fail"]
        assert failed == ["reversion is a two-sided compositional inverse"]

    @pytest.mark.parametrize("spec", SPECS)
    def test_a_faulty_build_is_never_held_and_served(self, monkeypatch, spec):
        original = PowerSeries.compose

        def faulty(outer, inner):
            coeffs = list(original(outer, inner).coeffs)
            coeffs[-1] += 1
            return PowerSeries(inner.var, coeffs)

        monkeypatch.setattr(PowerSeries, "compose", faulty)
        family.cache_clear()
        try:
            for order in (20, 12, 6):  # the first, highest order raises too
                with pytest.raises(FamilyError, match=r"^internal check failed: f\(phi\(x\)\) != x$"):
                    family(spec, order)
        finally:
            family.cache_clear()


OMEGA_CHECK = r"^internal check failed: \(f/f'\)\(omega\(x\)\) != x$"


def plus_one_last(u: PowerSeries) -> PowerSeries:
    return PowerSeries(u.var, u.coeffs[:-1] + (u.coeffs[-1] + 1,))


@pytest.mark.parametrize("n", [3, 4, 12])
@pytest.mark.parametrize("spec", PRESET_NAMES + ("poly:1,1/2,-1/3",))
class TestOmegaCheckStaysLive:
    """omega is checked against f and f' through G = f'(omega): G omega' must
    equal (xG)'.  Each fault below leaves f(phi) = x intact and is caught by
    that check, on a fresh family of order n."""

    @pytest.fixture(autouse=True)
    def fresh(self):
        family.cache_clear()
        yield
        family.cache_clear()

    @staticmethod
    def spoil(monkeypatch, name, applies):
        """Add 1 to the last coefficient of ``PowerSeries.<name>``'s result
        wherever ``applies`` holds for its operands."""
        original = getattr(PowerSeries, name)

        def spoiled(*operands):
            out = original(*operands)
            return plus_one_last(out) if applies(*operands) else out

        monkeypatch.setattr(PowerSeries, name, spoiled)

    def test_the_reversion_of_f_over_fprime(self, monkeypatch, spec, n):
        # f/f' has order n - 1; f, reverted to phi, has order n
        self.spoil(monkeypatch, "revert", lambda u: u.order == n - 1)
        with pytest.raises(FamilyError, match=OMEGA_CHECK):
            family(spec, n)

    def test_coefficient_n_minus_2_of_fprime_at_omega(self, monkeypatch, spec, n):
        # G = f'(omega) is composed to order n - 2; f(phi) to order n
        self.spoil(monkeypatch, "compose", lambda outer, inner: outer.order == n - 2)
        with pytest.raises(FamilyError, match=OMEGA_CHECK):
            family(spec, n)

    def test_f_over_fprime(self, monkeypatch, spec, n):
        self.spoil(monkeypatch, "__truediv__", lambda u, v: u.order == n and v.order == n - 1)
        with pytest.raises(FamilyError, match=OMEGA_CHECK):
            family(spec, n)


def test_revert_stops_at_the_first_step_a_faulty_product_spoils(monkeypatch):
    """A product kernel wrong from x^3 on stops the Newton ladder (2, 3, 5, ...,
    66) at once, at the first step whose start is no longer exact."""
    f = build_f("exp1", 66)
    original = series._conv

    def faulty(a, b, n):
        out = original(a, b, n)
        if len(out) > 3:
            out[3] += 1
        return out

    monkeypatch.setattr(series, "_conv", faulty)
    with pytest.raises(SeriesError, match=r"^internal check failed: reversion step 3 -> 5 "):
        f.revert()


@pytest.mark.parametrize("spec", SPECS)
def test_tau_polys_match_oracle(spec):
    """tau_0..tau_33 for the Bernoulli weight and a polynomial weight."""
    fam = family(spec, 40)
    poly_ell = PowerSeries("x", [Q(1), Q(1, 2), Q(-1, 3), Q(0), Q(5, 7)] + [Q(0)] * 36)
    for ell in (bernoulli_weight(40), poly_ell):
        got = tau_seq(fam, ell, 33).tau_polys
        want = naive_tau_polys(fam, ell, 33)
        assert [p.coeffs for p in got] == [p.coeffs for p in want]
        assert all(type(c) is Q for p in got for c in p.coeffs)


@pytest.mark.parametrize("spec", SPECS)
class TestFixedCases:
    ORDER = 24

    def fam(self, spec):
        return family(spec, self.ORDER)

    def test_mul(self, spec):
        fam = self.fam(spec)
        for a, b in ((fam.f, fam.phi), (fam.tau_f, fam.omega), (fam.fprime, fam.fprime)):
            assert_same_rationals(a * b, naive_mul(a, b))

    def test_compose(self, spec):
        fam = self.fam(spec)
        for outer, inner in ((fam.f, fam.phi), (fam.tau_f, fam.omega),
                             (fam.fprime, fam.omega), (fam.omega, fam.f)):
            assert_same_rationals(outer.compose(inner), naive_compose(outer, inner))

    def test_revert(self, spec):
        fam = self.fam(spec)
        assert_same_rationals(fam.phi, naive_revert(fam.f))
        assert_same_rationals(fam.omega, naive_revert(fam.tau_f))

    def test_p_seq(self, spec):
        fam = self.fam(spec)
        got = p_seq(fam, self.ORDER)
        want = naive_p_seq(fam, self.ORDER)
        assert [p.coeffs for p in got.polys] == [p.coeffs for p in want]
        assert all(type(c) is Q for p in got.polys for c in p.coeffs)


@pytest.mark.parametrize("spec", PRESET_NAMES + SPECS[3:])
def test_family_quotients_match_oracle(spec):
    """f/f' and 1/omega' of every preset at order 36."""
    fam = family(spec, 36)
    assert_same_rationals(fam.tau_f, naive_div(fam.f, fam.fprime))
    inv_omega_prime = naive_div(fam.omega.derive().one_like(), fam.omega.derive())
    assert_same_rationals(fam.inv_omega_prime, inv_omega_prime)


class TestDivisionContract:
    def test_zero_constant_divisor_raises(self):
        a = PowerSeries("x", [Q(1), Q(2), Q(3)])
        b = PowerSeries("x", [Q(0), Q(1, 2), Q(3)])
        with pytest.raises(SeriesError, match="^division by a series with zero constant term$"):
            a / b
        with pytest.raises(SeriesError, match="zero constant term"):
            b.inv()

    def test_order_of_the_shorter_operand(self):
        a = PowerSeries("x", [Q(k + 1, 3) for k in range(9)])
        b = PowerSeries("x", [Q(-2), Q(1, 5), Q(0), Q(7)])
        for got in (a / b, b / a):
            assert got.order == 3
            got.coefficient(3)
            with pytest.raises(OrderError):
                got.coefficient(4)

    def test_fraction_by_parampoly_keeps_the_wider_domain(self):
        a = PowerSeries("x", [Q(1), Q(2, 3), Q(0), Q(-5)])
        b = PowerSeries("x", [ParamPoly.const(2), S, ParamPoly(), S * S])
        # the last pair: rational values written as ParamPoly constants
        widened = a.map_coeffs(ParamPoly.const)
        c = PowerSeries("x", [Q(2), Q(1), Q(0), Q(0)])
        for x, y in ((a, b), (b, a), (widened, c)):
            got = x / y
            assert type(got.czero) is ParamPoly
            assert got == naive_div(x, y)
        assert (a / b).coefficient(1) == Q(1, 3) - S * Q(1, 4)


class TestMixedDomains:
    def test_fraction_times_parampoly_domain(self):
        a = PowerSeries("x", [Q(1), Q(2, 3), Q(0), Q(-5)])
        b = PowerSeries("x", [ParamPoly.const(1), S, ParamPoly(), S * S])
        for got in (a * b, b * a):
            assert isinstance(got.czero, ParamPoly)
            assert got == naive_mul(a, b)
        assert (a * b).coefficient(1) == S + Q(2, 3)

    def test_mixed_coefficients_widen_to_parampoly(self):
        a = PowerSeries("x", [Q(1), S, Q(2)])
        b = PowerSeries("x", [Q(0), Q(1, 2), Q(3)])
        assert a.coeffs == (ParamPoly.const(1), S, ParamPoly.const(2))
        assert all(type(c) is ParamPoly for c in a.coeffs)
        assert type(a.czero) is ParamPoly
        for got in (a * b, b * a):
            assert got == naive_mul(a, b)
            assert got.coefficient(2) == S * Q(1, 2) + Q(3)
        comp = a.compose(b)
        assert comp == naive_compose(a, b)
        assert comp.coefficient(2) == S * Q(3) + Q(1, 2)
        inner = PowerSeries("x", [Q(0), S, Q(1)])
        comp = b.compose(inner)
        assert comp == naive_compose(b, inner)
        assert comp.coefficient(2) == S * S * Q(3) + Q(1, 2)


small_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def coefficient(draw, domain):
    """A small coefficient of the domain: a ParamPoly in s and H, a Poly of
    degree at most 2, or a rational."""
    if domain is ParamPoly:
        keys = st.tuples(st.integers(0, 2), st.integers(0, 1), st.just(0))
        return ParamPoly(draw(st.dictionaries(keys, small_rationals, max_size=3)))
    if domain is Poly:
        return Poly(draw(st.lists(small_rationals, max_size=3)))
    return draw(small_rationals)


@st.composite
def series_over(draw, domain, min_order=0, max_order=4):
    n = draw(st.integers(min_value=min_order, max_value=max_order))
    return PowerSeries("x", [draw(coefficient(domain)) for _ in range(n + 1)])


def assert_same_elements(got: PowerSeries, want: PowerSeries, domain):
    """Equal values, all of the domain's type, canonical for ParamPoly."""
    assert got.var == want.var
    assert got.coeffs == want.coeffs
    assert {type(c) for c in got.coeffs} == {domain}
    assert type(got.czero) is domain
    if domain is ParamPoly:
        assert [(c.num, c.den) for c in got.coeffs] == [(c.num, c.den) for c in want.coeffs]


# (left, right, joined): one domain throughout, then the mixed pairs
PAIRS = [
    (ParamPoly, ParamPoly, ParamPoly),
    (Poly, Poly, Poly),
    (ParamPoly, Q, ParamPoly),
    (Q, Poly, Poly),
    (Q, ParamPoly, ParamPoly),
]
PAIR_IDS = ["ParamPoly", "Poly", "ParamPoly-Fraction", "Fraction-Poly", "Fraction-ParamPoly"]


@pytest.mark.parametrize("left, right, joined", PAIRS, ids=PAIR_IDS)
class TestEveryDomainMatchesTheOracle:
    """The kernels over ParamPoly, Poly and mixed pairs return the oracle
    loops' values, types and canonical forms."""

    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_mul(self, left, right, joined, data):
        a, b = data.draw(series_over(left)), data.draw(series_over(right))
        got = a * b
        assert got.order == min(a.order, b.order)
        assert_same_elements(got, naive_mul(a, b), joined)

    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_div(self, left, right, joined, data):
        a, b = data.draw(series_over(left)), data.draw(series_over(right))
        b = with_constant(b, LIFT[right](data.draw(divisor_constants)))
        got = a / b
        assert got.order == min(a.order, b.order)
        assert_same_elements(got, naive_div(a, b), joined)

    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_compose(self, left, right, joined, data):
        outer = data.draw(series_over(left))
        inner = with_constant(data.draw(series_over(right, min_order=1)), LIFT[right](0))
        got = outer.compose(inner)
        assert got.order == min(outer.order, inner.order)
        assert_same_elements(got, naive_compose(outer, inner), joined)


@pytest.mark.parametrize("domain", [ParamPoly, Poly])
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_revert_over_every_domain_matches_the_oracle(domain, data):
    u = data.draw(series_over(domain, min_order=2, max_order=4))
    u = PowerSeries("x", (LIFT[domain](0), LIFT[domain](1)) + u.coeffs[2:])
    assert_same_elements(u.revert(), naive_revert(u), domain)


@pytest.mark.parametrize(
    "divisor, message",
    [(Poly.x() + 1, "only degree-0 polynomials are invertible"), (S + 1, "not a constant: s")],
)
@pytest.mark.parametrize("dividend", [Q, "same"])
def test_a_non_unit_constant_divisor_raises_its_domains_value_error(divisor, message, dividend):
    """Division needs a constant term the domain inverts; any other is the
    domain's own ``ValueError``, not a ``SeriesError``."""
    b = PowerSeries("x", [divisor, type(divisor).const(2)])
    a = PowerSeries("x", [Q(1), Q(2)]) if dividend is Q else b
    with pytest.raises(ValueError, match=message) as info:
        a / b
    assert type(info.value) is ValueError

"""Word rewrites, their matrix scheme, and the differential-operator layer."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    cached_word_Tn,
    naive_apply_Tn,
    same_operator,
    same_series,
    word_Tn,
)
from oracles import word_to_diffop as oracle_word_to_diffop
from umbralog.ncwords import (
    D,
    E,
    LAM,
    LAMINV,
    SIGMA,
    NCPoly,
    P0,
    ShapeError,
    head_word_poly,
    head_word_poly_matrix,
    nu_bar_step,
    nu_step,
    split_canonical,
)
from umbralog.operators import (
    DiffOperator,
    apply_Tn,
    build_Tn,
    divided_difference_shift_check,
    tn_via_integral,
    word_to_diffop,
)
from umbralog.parampoly import ParamPoly
from umbralog.polys import Poly
from umbralog.presets import family
from umbralog.series import OrderError, PowerSeries, SeriesError
from umbralog.stirling import omega_in_alpha, t_n_omega


def monomial_s(m, order=10):
    return PowerSeries("s", [Q(0)] * m + [Q(1)] + [Q(0)] * (order - m))


class TestRewrites:
    def test_first_image_of_E(self):
        assert nu_step(P0) == NCPoly(
            {
                (SIGMA, D, D, E): Q(1, 2),
                (SIGMA, D, E, D): Q(-1),
                (SIGMA, E, D, D): Q(1, 2),
            }
        )

    def test_second_iterate_head(self):
        assert head_word_poly(2) == NCPoly(
            {
                (SIGMA, D, D, SIGMA, D, D): Q(1, 4),
                (SIGMA, D, SIGMA, D, D, D): Q(-1, 6),
                (SIGMA, SIGMA, D, D, D, D): Q(1, 24),
            }
        )

    def test_zero_maps_to_zero(self):
        assert nu_step(NCPoly.zero()).is_zero()
        assert nu_bar_step(NCPoly.zero()).is_zero()

    def test_canonical_shape_is_preserved(self):
        p = P0
        for _ in range(6):
            p = nu_step(p)
            for w in p.terms:
                prefix, _ = split_canonical(w)
                assert E not in prefix

    def test_true_free_term_rejected(self):
        with pytest.raises(ShapeError):
            nu_step(NCPoly.monomial((SIGMA, D)))

    def test_matrix_route_agrees_word_for_word(self):
        for n in range(6):
            assert head_word_poly(n) == head_word_poly_matrix(n)

    def test_lam_rewrite_display(self):
        expected = NCPoly(
            {
                (SIGMA, LAMINV, D, LAM, D, E): Q(1),
                (SIGMA, D, D, E): Q(-1, 2),
                (SIGMA, LAMINV, D, LAM, E, D): Q(-1),
                (SIGMA, E, D, D): Q(1, 2),
            }
        )
        assert nu_bar_step(P0) == expected

    def test_lam_rewrite_reduces_when_lam_is_one(self):
        p = P0
        q = P0
        for _ in range(3):
            p = nu_step(p)
            q = nu_bar_step(q)
            assert q.strip_lambda() == p


class TestDiffOperators:
    def test_T0_is_identity(self):
        fam = family("exp1", 12)
        T0 = build_Tn(fam, 0)
        g = monomial_s(3)
        assert T0.apply(g).prefix_equal(g)

    def test_T1_shape(self):
        fam = family("exp1", 12)
        T1 = build_Tn(fam, 1)
        assert set(T1.terms) == {2}
        sigma = fam.sigma("s")
        assert T1.terms[2].prefix_equal(sigma.scale(Q(1, 2)))

    def test_T1_on_cube_for_trivial_family(self):
        fam = family("id", 10)
        T1 = build_Tn(fam, 1)
        out = T1.apply(monomial_s(3))
        # sigma = s here, so T1 s^3 = (1/2) s * 6s = 3 s^2
        assert out.prefix_equal(monomial_s(2, 8).scale(Q(3)))

    def test_T1_on_square_exp1(self):
        fam = family("exp1", 12)
        out = build_Tn(fam, 1).apply(monomial_s(2))
        expected = PowerSeries("s", [Q(0), Q(1), Q(-1)] + [Q(0)] * 6)
        assert out.prefix_equal(expected)

    def test_Tn_kills_constants(self):
        fam = family("geom", 12)
        const = PowerSeries.one("s", 8)
        for n in (1, 2, 3):
            assert build_Tn(fam, n).apply(const).is_zero()


SPECS = ("id", "exp1", "geom", "nu", "poly:1,1/2,-1/3")


class TestSchemeAgainstWords:
    """The right-to-left matrix scheme reproduces the word-by-word route."""

    @pytest.mark.parametrize("spec", SPECS)
    def test_build_Tn_term_for_term(self, spec):
        fam = family(spec, 14)
        for n in range(7):
            assert same_operator(
                build_Tn(fam, n, "a"), cached_word_Tn(spec, 14, n, "a")
            ), n

    @pytest.mark.parametrize("spec", SPECS)
    def test_t_n_omega_equals_word_operator_on_omega(self, spec):
        fam = family(spec, 14)
        om = omega_in_alpha(fam)
        for n, t in enumerate(t_n_omega(fam, 6)):
            assert same_series(t, cached_word_Tn(spec, 14, n, "a").apply(om)), n

    # (family order, grade) pairs where a coefficient is truncated away
    @pytest.mark.parametrize("order,n", [(3, 2), (5, 3), (7, 4), (9, 5)])
    def test_too_small_an_order_raises_on_both_routes(self, order, n):
        fam = family("nu", order)
        om = omega_in_alpha(fam)
        sigma = fam.sigma("a")
        with pytest.raises(OrderError):
            word_Tn(fam, n, "a")
        with pytest.raises(OrderError):
            build_Tn(fam, n, "a")
        with pytest.raises(OrderError):
            apply_Tn(om, n, sigma)
        # one grade lower fits the same order on both routes
        assert same_operator(build_Tn(fam, n - 1, "a"), word_Tn(fam, n - 1, "a"))

    def test_zero_coefficients_keep_their_order(self):
        # D∘1 has the zero coefficient c_0 = 1', known to order 0 only, so a
        # second D cannot differentiate it; the word's operator drops it
        sigma = PowerSeries.identity("a", 1)
        assert set(word_to_diffop((D,), sigma).terms) == {1}
        for route in (word_to_diffop, oracle_word_to_diffop):
            with pytest.raises(OrderError):
                route((D, D), sigma)

    def test_rejects_negative_grade(self):
        fam = family("exp1", 12)
        with pytest.raises(ValueError):
            build_Tn(fam, -1)


def word_outcome(route, w, sigma, lam=None):
    """The operator ``route`` gives for the word w, or its OrderError."""
    try:
        return "value", route(w, sigma, lam)
    except OrderError as e:
        return "OrderError", str(e)


def assert_same_word_operators(words, sigma, lam=None):
    for w in words:
        (kind, got), (want_kind, want) = (
            word_outcome(word_to_diffop, w, sigma, lam),
            word_outcome(oracle_word_to_diffop, w, sigma, lam),
        )
        assert kind == want_kind, w
        assert got == want if kind == "OrderError" else same_operator(got, want), w


LAM_SERIES = PowerSeries("a", [Q(5, 3), Q(1, 3)] + [Q(-1, 7)] * 13)


class TestWordRoute:
    """``operators.word_to_diffop`` on integer entries realizes each word as
    the oracle's word route over ``Fraction`` series does."""

    @pytest.mark.parametrize("spec", SPECS)
    def test_plain_head_words(self, spec):
        sigma = family(spec, 14).sigma("a")
        for n in range(5):
            assert_same_word_operators(head_word_poly(n).terms, sigma)

    @pytest.mark.parametrize("spec", SPECS)
    def test_lam_head_words(self, spec):
        sigma = family(spec, 14).sigma("a")
        lam = LAM_SERIES.truncate(sigma.order)
        for n in range(4):
            assert_same_word_operators(
                head_word_poly(n, step=nu_bar_step).terms, sigma, lam
            )

    # the (family order, grade) pairs where some word runs out of order
    @pytest.mark.parametrize("order,n", [(3, 2), (5, 3), (7, 4), (9, 5)])
    def test_too_small_an_order_raises_on_both_routes(self, order, n):
        sigma = family("nu", order).sigma("a")
        words = head_word_poly(n).terms
        with pytest.raises(OrderError):
            for w in words:
                word_to_diffop(w, sigma)
        assert_same_word_operators(words, sigma)
        lam = LAM_SERIES.truncate(sigma.order)
        assert_same_word_operators(head_word_poly(n, step=nu_bar_step).terms, sigma, lam)

    def test_letter_without_a_series_is_named(self):
        sigma = family("exp1", 8).sigma("a")
        for route in (word_to_diffop, oracle_word_to_diffop):
            with pytest.raises(SeriesError, match="'lam'"):
                route((SIGMA, LAM, D), sigma)


def outcome(x, n, sigma, lam, apply=apply_Tn):
    """The value of ``apply``, or the OrderError it raises, as a pair."""
    try:
        return "value", apply(x, n, sigma, lam)
    except OrderError as e:
        return "OrderError", str(e)


def assert_same_outcome(x, n, sigma, lam=None):
    """The kernel and the generic scheme agree on the rationals, their type,
    every coefficient's order and the operator's keys before and after
    nonzero(), or raise the same OrderError."""
    (kind, got), (want_kind, want) = (
        outcome(x, n, sigma, lam),
        outcome(x, n, sigma, lam, naive_apply_Tn),
    )
    assert kind == want_kind, (got, want)
    if kind == "OrderError":
        assert got == want
        return
    pairs = [(got, want)]
    if isinstance(want, DiffOperator):
        assert got.var == want.var
        assert got.terms.keys() == want.terms.keys()
        assert got.nonzero().terms.keys() == want.nonzero().terms.keys()
        pairs = [(got.terms[j], c) for j, c in want.terms.items()]
    for g, w in pairs:
        assert same_series(g, w)  # values and orders
        assert all(type(c) is Q for c in g.coeffs)


@st.composite
def rational_coeffs(draw, min_order=0, max_order=14):
    """Heights up to 10**6, with runs of zeros."""
    n = draw(st.integers(min_value=min_order, max_value=max_order))
    h = draw(st.sampled_from([1, 10, 10**3, 10**6]))
    coeff = st.fractions(min_value=-h, max_value=h, max_denominator=h)
    coeffs = [draw(coeff) for _ in range(n + 1)]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        lo = draw(st.integers(min_value=0, max_value=n))
        hi = draw(st.integers(min_value=lo, max_value=n + 1))
        coeffs[lo:hi] = [Q(0)] * (hi - lo)
    return coeffs


@st.composite
def kernel_cases(draw, on_operators: bool):
    """(x, n, sigma, lam) with every order near 2n, where the scheme starts
    to run out of order: x a series or an operator with up to four
    coefficients of their own orders, sigma of valuation 1, and lam None or
    a unit with constant term 1, -1 or 5/3."""
    n = draw(st.integers(min_value=0, max_value=6))

    def coeffs(min_order=0):
        return draw(rational_coeffs(max(min_order, 2 * n - 2), 2 * n + 3))

    if on_operators:
        keys = draw(st.sets(st.integers(min_value=0, max_value=3), min_size=1))
        x = DiffOperator("a", {j: PowerSeries("a", coeffs()) for j in sorted(keys)})
    else:
        x = PowerSeries("a", coeffs())
    c1 = draw(st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6))
    sigma = PowerSeries("a", [Q(0), c1 or Q(1)] + coeffs(1)[2:])
    lam = None
    if draw(st.booleans()):
        lam = PowerSeries("a", [draw(st.sampled_from([Q(1), Q(-1), Q(5, 3)]))] + coeffs()[1:])
    return x, n, sigma, lam


class TestIntegerKernel:
    """``apply_Tn`` runs the matrix scheme on integer numerators; it must
    return exactly what the scheme over ``Fraction`` series returns."""

    @given(kernel_cases(on_operators=False))
    @settings(max_examples=120, deadline=None)
    def test_series_matches_generic_scheme(self, case):
        assert_same_outcome(*case)

    @given(kernel_cases(on_operators=True))
    @settings(max_examples=60, deadline=None)
    def test_operator_matches_generic_scheme(self, case):
        assert_same_outcome(*case)

    def test_family_inputs_match_generic_scheme(self):
        fam = family("poly:1,1/2,-1/3", 14)
        sigma = fam.sigma("a")
        lam = PowerSeries("a", [Q(5, 3), Q(1, 3)] + [Q(-1, 7)] * (sigma.order - 1))
        for n in range(7):
            for x in (omega_in_alpha(fam), DiffOperator.identity("a", sigma.order)):
                assert_same_outcome(x, n, sigma)
                assert_same_outcome(x, n, sigma, lam)

    # the (family order, grade) pairs of the word-route test above
    @pytest.mark.parametrize("order,n", [(3, 2), (5, 3), (7, 4), (9, 5)])
    @pytest.mark.parametrize("rewrite", ["plain", "lam"])
    @pytest.mark.parametrize("form", ["series", "operator"])
    def test_too_small_an_order_raises_like_the_generic_scheme(
        self, order, n, rewrite, form
    ):
        fam = family("nu", order)
        sigma = fam.sigma("a")
        lam = None
        if rewrite == "lam":
            lam = PowerSeries("a", [Q(1), Q(1, 3)] + [Q(1, 7)] * (sigma.order - 1))
        x = omega_in_alpha(fam)
        if form == "operator":
            x = DiffOperator.identity("a", sigma.order)
        with pytest.raises(OrderError):
            naive_apply_Tn(x, n, sigma, lam)
        with pytest.raises(OrderError):
            apply_Tn(x, n, sigma, lam)
        assert_same_outcome(x, n - 1, sigma, lam)

    def test_zero_coefficients_keep_their_keys_and_orders(self):
        # T_1 = (sigma/2) D^2: D∘D∘1 keeps the zero coefficients of d^0 and d^1
        sigma = family("exp1", 8).sigma("a")
        t1 = apply_Tn(DiffOperator.identity("a", sigma.order), 1, sigma)
        assert set(t1.terms) == {0, 1, 2}
        assert set(t1.nonzero().terms) == {2}
        assert_same_outcome(DiffOperator.identity("a", sigma.order), 1, sigma)
        # a zero coefficient known to order 0 cannot be differentiated: D∘1
        # keeps one (with_zero), and T_1's first D makes one from the order-1
        # coefficient of d/da (the word (D,))
        with_zero = DiffOperator(
            "a", {0: PowerSeries.zero("a", 0), 1: PowerSeries.one("a", 1)}
        )
        d_da = word_to_diffop((D,), PowerSeries.identity("a", 1))
        for d in (with_zero, d_da):
            with pytest.raises(OrderError):
                apply_Tn(d, 1, sigma)
            assert_same_outcome(d, 1, sigma)


OTHER_DOMAINS = {
    "ParamPoly": ParamPoly.symbol("s"),
    "Poly": Poly.const(Q(1, 2)),
}


def with_other(s: PowerSeries, domain: str) -> PowerSeries:
    """s with its coefficient 2 taken from the other domain."""
    return PowerSeries(s.var, s.coeffs[:2] + (OTHER_DOMAINS[domain],) + s.coeffs[3:])


class TestDomainContract:
    """``apply_Tn`` and ``word_to_diffop`` work over ``Fraction`` coefficients
    only."""

    @pytest.mark.parametrize("slot", ["series x", "operator x", "sigma", "lam"])
    @pytest.mark.parametrize("domain", sorted(OTHER_DOMAINS))
    def test_other_coefficient_domains_are_named(self, domain, slot):
        fam = family("exp1", 10)
        sigma, om = fam.sigma("a"), omega_in_alpha(fam)
        lam = PowerSeries.one("a", sigma.order)
        x = om
        if slot == "series x":
            x = with_other(om, domain)
        elif slot == "operator x":
            x = DiffOperator("a", {0: lam, 1: with_other(om, domain)})
        elif slot == "sigma":
            sigma = with_other(sigma, domain)
        else:
            lam = with_other(lam, domain)
        for n in (0, 2):
            with pytest.raises(SeriesError, match=f"over Fraction coefficients, not {domain}$"):
                apply_Tn(x, n, sigma, lam)

    @pytest.mark.parametrize("slot", ["sigma", "lam"])
    @pytest.mark.parametrize("domain", sorted(OTHER_DOMAINS))
    def test_word_route_names_other_domains(self, domain, slot):
        sigma = family("exp1", 10).sigma("a")
        lam = PowerSeries.one("a", sigma.order)
        if slot == "sigma":
            sigma = with_other(sigma, domain)
        else:
            lam = with_other(lam, domain)
        with pytest.raises(SeriesError, match=f"over Fraction coefficients, not {domain}$"):
            word_to_diffop((SIGMA, D), sigma, lam)

    def test_a_series_is_no_coefficient(self):
        # the coefficient domains are closed: a series of series is never built
        om = omega_in_alpha(family("exp1", 10))
        t = PowerSeries("t", [Q(1, 2), Q(1)])
        with pytest.raises(TypeError, match="^expected a rational, got PowerSeries$"):
            PowerSeries(om.var, om.coeffs[:2] + (t,) + om.coeffs[3:])


class TestDividedDifferenceShift:
    def test_base_case(self):
        ok, rep = divided_difference_shift_check(0, 1)
        assert ok and rep["lhs"] == "1"

    def test_grid(self):
        for n in range(5):
            for m in range(1, 7):
                ok, _ = divided_difference_shift_check(n, m)
                assert ok, (n, m)


class TestIntegralForm:
    def test_matches_word_route_on_square(self):
        fam = family("exp1", 12)
        out = tn_via_integral(fam, 1, monomial_s(2))
        assert out.prefix_equal(PowerSeries("s", [Q(0), Q(1), Q(-1)] + [Q(0)] * 5))

    def test_constant_maps_to_zero(self):
        fam = family("exp1", 12)
        assert tn_via_integral(fam, 1, PowerSeries.one("s", 8)).is_zero()

    def test_grade_two_trivial_family(self):
        fam = family("id", 12)
        g = monomial_s(4)
        a = tn_via_integral(fam, 2, g)
        b = build_Tn(fam, 2).apply(g)
        n = min(a.order, b.order)
        assert a.truncate(n).prefix_equal(b.truncate(n))

    def test_agreement_three_families(self):
        for name in ("id", "exp1", "geom"):
            fam = family(name, 14)
            for n in (1, 2):
                for m in range(7):
                    g = monomial_s(m, 11)
                    a = tn_via_integral(fam, n, g)
                    b = build_Tn(fam, n).apply(g)
                    w = min(a.order, b.order)
                    assert a.truncate(w).prefix_equal(b.truncate(w)), (name, n, m)

    def test_rejects_large_n(self):
        fam = family("exp1", 12)
        with pytest.raises(ValueError):
            tn_via_integral(fam, 3, monomial_s(2))

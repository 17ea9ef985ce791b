"""Word rewrites, their matrix scheme, and the differential-operator layer."""

from fractions import Fraction as Q

import pytest

from oracles import (
    cached_word_Tn,
    same_operator,
    same_series,
    word_Tn,
)
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
)
from umbralog.presets import family
from umbralog.series import OrderError, PowerSeries
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
        # D∘1 keeps the zero coefficient c_0 = 1', known to order 0 only,
        # so a second D cannot differentiate it; nonzero() drops it
        d = DiffOperator.identity("a", 1).derive()
        assert set(d.terms) == {0, 1} and d.terms[0].is_zero()
        with pytest.raises(OrderError):
            d.derive()
        assert set(d.nonzero().terms) == {1}

    def test_rejects_negative_grade(self):
        fam = family("exp1", 12)
        with pytest.raises(ValueError):
            build_Tn(fam, -1)


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

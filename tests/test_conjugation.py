"""The conjugated-operator column law and its consequences."""

import random
from fractions import Fraction as Q

import pytest

from umbralog.asymptotic import AsymptoticSeries
from umbralog.conjugation import (
    binomial_recurrence_check,
    conjugated_expectation,
    conjugated_step,
    conjugated_step_law,
    ell_s,
    resolvent_closed_form,
)
from umbralog.parampoly import ParamPoly
from umbralog.presets import family
from umbralog.series import PowerSeries, SeriesError
from umbralog.umbral import p_seq, q_zero_table

S = ParamPoly.symbol("s")


def random_column(seed, length, symbolic=True):
    rng = random.Random(seed)
    vals = [Q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(length)]
    return [ParamPoly.const(v) for v in vals] if symbolic else vals


class TestStep:
    @pytest.mark.parametrize("name", ["id", "exp1", "geom"])
    def test_law_equals_series_pipeline(self, name):
        fam = family(name, 20)
        col = random_column(31 + len(name), 9)
        _, ok = conjugated_step(fam, col, depth=9)
        assert ok

    def test_eigencolumn_maps_to_zero(self):
        fam = family("exp1", 20)
        q = q_zero_table(fam, 8)
        law, ok = conjugated_step(fam, q[:8], depth=8)
        assert ok
        assert all(c.is_zero() for c in law)

    def test_delta_column(self):
        fam = family("exp1", 20)
        col = [ParamPoly.const(1) if n == 1 else ParamPoly() for n in range(6)]
        law, ok = conjugated_step(fam, col, depth=6)
        assert ok
        assert law[0] == S - 1

    def test_integer_specialization_kills_factor(self):
        # at s = n+1 the (s-n-1) factor annihilates the n-th output entry
        fam = family("geom", 20)
        col = random_column(77, 8)
        q = q_zero_table(fam, 8)
        law = conjugated_step_law(col, q)
        for n in range(len(law)):
            assert law[n].eval(s=Q(n + 1)) == 0


class TestBinomialRecurrence:
    def test_k_zero_is_a_tautology(self):
        fam = family("exp1", 16)
        col = random_column(5, 8)
        ok, det = binomial_recurrence_check(fam, col, 4, 0)
        assert ok

    @pytest.mark.parametrize("name", ["exp1", "geom"])
    def test_full_grid(self, name):
        fam = family(name, 16)
        col = random_column(11, 10)
        ok, det = binomial_recurrence_check(fam, col, 4, 4)
        assert ok, det


class TestExpectationSeries:
    def test_constant_input_trivial_family(self):
        fam = family("id", 16)
        series, ok, det = ell_s(fam, PowerSeries.one("x", 12), 6)
        assert ok
        assert series[0] == ParamPoly.const(1)
        assert all(series[k].is_zero() for k in range(1, 7))

    def test_linear_input(self):
        fam = family("exp1", 16)
        series, ok, det = ell_s(fam, PowerSeries.identity("x", 12), 6)
        assert ok, det
        # g(D) a^{s-1} = (s-1) a^{s-2}: the leading entries are 0, s-1
        assert series[0].is_zero()
        assert series[1] == S - 1

    def test_rational_exponent(self):
        fam = family("geom", 16)
        series, ok, det = ell_s(fam, PowerSeries.one("x", 12), 6, s_val=Q(1, 2))
        assert ok, det


class TestClosedFormResolvent:
    def test_zero_input(self):
        fam = family("exp1", 20)
        ok, det = resolvent_closed_form(
            fam, PowerSeries.zero("x", 16), Q(1, 2), 4, 4
        )
        assert ok

    def test_integer_s_rejected(self):
        fam = family("exp1", 20)
        with pytest.raises(SeriesError):
            resolvent_closed_form(fam, PowerSeries.one("x", 16), Q(2), 4, 4)

    @pytest.mark.parametrize("s_val", [Q(1, 2), Q(3, 2), Q(-1, 2)])
    def test_exp1_depths_six(self, s_val):
        fam = family("exp1", 20)
        ok, det = resolvent_closed_form(
            fam, PowerSeries.one("x", 16), s_val, 6, 6
        )
        assert ok, det["diffs"]

    def test_trivial_family_reduces_to_pure_divided_difference(self):
        fam = family("id", 20)
        ok, det = resolvent_closed_form(
            fam, PowerSeries.identity("x", 16), Q(1, 2), 5, 5
        )
        assert ok, det["diffs"]


class TestConjugatedExpectation:
    def test_identity_operator(self):
        fam = family("exp1", 18)
        one = PowerSeries.one("x", 8)
        ok, det = conjugated_expectation(fam, [(0, one)], 2, 5)
        assert ok

    @pytest.mark.parametrize("s", [2, 3])
    def test_operator_family(self, s):
        fam = family("exp1", 18)
        one = PowerSeries.one("x", 8)
        Dh = PowerSeries.identity("x", 8)
        D2 = PowerSeries("x", [0, 0, 1] + [0] * 5)
        for T in ([(0, one)], [(0, Dh)], [(1, D2)]):
            ok, det = conjugated_expectation(fam, T, s, 5)
            assert ok, det

    def test_log_derivative_display(self):
        # T = D f'(D)/f(D) acts as (alpha/s) p_s'/p_s on the sequence
        fam = family("exp1", 18)
        s = 3
        u = fam.tau_f.truncate(9).div_var(1).inv()  # x f'(x)/f(x)
        from umbralog.sheffer import apply_d_series
        from umbralog.polys import Poly

        seq = p_seq(fam, s)
        p_over_a = Poly(seq[s].coeffs[1:])
        lhs = AsymptoticSeries.from_poly_ratio(
            apply_d_series(u, p_over_a), p_over_a, 5
        )
        rhs = AsymptoticSeries.from_poly_ratio(
            seq[s].derive().mul_x(), seq[s], 5
        ).scale(Q(1, s))
        assert AsymptoticSeries.equal_to_depth(lhs, rhs, 5)

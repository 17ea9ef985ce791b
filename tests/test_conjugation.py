"""The conjugated-operator column law and its consequences."""

import random
from fractions import Fraction as Q

import pytest

from oracles import closed_form_grades_by_series
from umbralog import conjugation
from umbralog.asymptotic import AsymptoticSeries
from umbralog.conjugation import (
    ConjugationContext,
    _closed_form_grades,
    binomial_recurrence_check,
    conjugated_expectation,
    conjugated_step,
    conjugated_step_law,
    ell_s,
    resolvent_closed_form,
)
from umbralog.parampoly import ParamPoly
from umbralog.grading import GradedSeries
from umbralog.presets import build_f, family
from umbralog.series import PowerSeries, SeriesError
from umbralog.umbral import build_family, p_seq, q_zero_table

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


class TestClosedFormGrades:
    """The right side runs on one integer lift; the series loop it replaced
    is the oracle, grade for grade."""

    G = {
        "zero": PowerSeries.zero("x", 20),
        "one": PowerSeries.one("x", 20),
        "x": PowerSeries.identity("x", 20),
        "mixed": PowerSeries("x", [Q(2), Q(-1, 3), Q(0), Q(5, 4)] + [Q(1, 9)] * 17),
    }

    @pytest.mark.parametrize("spec", ["id", "exp1", "geom", "nu", "poly:1,1/2,-1/3"])
    @pytest.mark.parametrize("s_val", [Q(1, 2), Q(3, 2), Q(-1, 2), Q(2, 3)])
    def test_equals_the_series_loop(self, spec, s_val):
        fam = build_family(build_f(spec, 20))
        for depth_x, depth_a in ((0, 0), (2, 5), (4, 3), (6, 6)):
            ctx = ConjugationContext(fam, depth_a, s_val, x_margin=depth_x + 2)
            for name, g in self.G.items():
                got = _closed_form_grades(ctx, g, depth_x)
                want = closed_form_grades_by_series(ctx, g, depth_x)
                assert sorted(got) == sorted(want), name
                for m, u in want.items():
                    assert (got[m].var, got[m].coeffs) == (u.var, u.coeffs), (name, m)
                    assert type(got[m].czero) is type(u.czero), (name, m)
                    assert all(type(c) is Q for c in got[m].coeffs), (name, m)


def bumped_q(original):
    """q_zero_table with q_2 raised by 1/7."""

    def table(fam, n_max, exponent):
        q = list(original(fam, n_max, exponent=exponent))
        if n_max >= 2:
            q[2] += Q(1, 7)
        return tuple(q)

    return table


def bumped_target(original):
    """target_conjugated with coefficient 1 of its grade-0 part raised by 1/7."""

    def target(*args):
        gs = original(*args)
        parts = dict(gs.parts)
        c = list(parts[0].coeffs)
        c[1] += Q(1, 7)
        parts[0] = PowerSeries(parts[0].var, c)
        return GradedSeries(gs.base, parts)

    return target


class TestLiveness:
    """A perturbed q or target makes each graded check fail."""

    @pytest.mark.parametrize("s_val", [Q(1, 2), Q(3, 2), Q(-1, 2)])
    def test_closed_form_reports_diffs(self, monkeypatch, s_val):
        monkeypatch.setattr(conjugation, "q_zero_table", bumped_q(q_zero_table))
        fam = build_family(build_f("exp1", 20))
        ok, det = resolvent_closed_form(fam, PowerSeries.one("x", 16), s_val, 6, 6)
        assert not ok and det["diffs"]

    @pytest.mark.parametrize("s", [2, 3])
    def test_conjugated_expectation_fails_both_forms(self, monkeypatch, s):
        monkeypatch.setattr(conjugation, "target_conjugated",
                            bumped_target(conjugation.target_conjugated))
        fam = build_family(build_f("exp1", 18))
        one = PowerSeries.one("x", 8)
        Dh = PowerSeries.identity("x", 8)
        D2 = PowerSeries("x", [0, 0, 1] + [0] * 5)
        for T in ([(0, one)], [(0, Dh)], [(1, D2)]):
            ok, det = conjugated_expectation(fam, T, s, 5)
            assert not ok and not det["x0_form_ok"] and not det["shifted_form_ok"], T


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

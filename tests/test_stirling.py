"""Log expansion: graded terms, operator-log identities, invariance, limits."""

from fractions import Fraction as Q

import pytest

from oracles import stirling_term_closed_form
from umbralog import stirling
from umbralog.asymptotic import AsymptoticSeries
from umbralog.parampoly import ParamPoly
from umbralog.presets import build_f, f_random, family
from umbralog.series import PowerSeries
from umbralog.stirling import (
    g3_closed_form,
    g4_closed_form,
    invariance_check,
    limit_check,
    ratio_two_orders,
    stirling_terms,
    t_n_omega,
    tree_example_check,
    verify_log_identity,
)
from umbralog.umbral import _times_root, build_family, p_symbolic


class TestStirlingTerms:
    def test_trivial_family_has_no_corrections(self):
        st = stirling_terms(family("id", 12), 4)
        assert st.integral_term.is_zero()
        assert st.s1_regular.is_zero()
        assert all(g.is_zero() for g in st.g.values())

    def test_exp1_g2_is_half_log(self):
        st = stirling_terms(family("exp1", 14), 3)
        # (1/2) ln(1/(1-a)) = sum a^n/(2n)
        for n in range(1, st.g[2].order + 1):
            assert st.g[2].coefficient(n) == Q(1, 2 * n)

    def test_exp1_g3_bracket(self):
        st = stirling_terms(family("exp1", 14), 3)
        g3 = st.g[3]
        expected = PowerSeries(
            "a", [Q(0), Q(0)] + [Q(-1, 12)] * (g3.order - 1)
        )
        assert g3.prefix_equal(expected)

    def test_exp1_g4_vanishes_identically(self):
        # the alpha/omega' series is the quadratic a - a^2, so its fourth
        # derivative (hence the whole 1/s^2 term) is exactly zero
        st = stirling_terms(family("exp1", 16), 4)
        assert st.g[4].is_zero()

    @pytest.mark.parametrize("name,order,N", [("exp1", 16, 6), ("id", 12, 6)])
    def test_terms_match_bernoulli_closed_form(self, name, order, N):
        st = stirling_terms(family(name, order), N)
        for k in range(3, N + 1):
            g = st.g[k]
            assert g.prefix_equal(stirling_term_closed_form(name, k, g.order)), k

    @pytest.mark.parametrize("name", ["exp1", "geom", "nu"])
    def test_displayed_closed_forms(self, name):
        fam = family(name, 18)
        st = stirling_terms(fam, 5)
        assert st.g[3].prefix_equal(
            g3_closed_form(fam, min(st.g[3].order, fam.order - 5))
        )
        assert st.g[4].prefix_equal(
            g4_closed_form(fam, min(st.g[4].order, fam.order - 7))
        )


class TestDerivativeExpansionOracle:
    """The graded terms against the symbolic-continuation pipeline.

    Writing ln(a^{-s} p_s(a)) = sum_k chat_k(s) a^{-k} and
    chat_k(s) = sum_d gamma_{k,d} s^d, matching powers of s in the scaled
    log-derivative forces, for every n,

        sum_k k gamma_{k, k+1-n} a^{k-1}  (minus a^{-1} at n = 0)
            = (-1)^{1-n} a^{n-2} (T_n omega)(a).
    """

    @pytest.mark.parametrize("name", ["exp1", "geom"])
    def test_matches_symbolic_route(self, name):
        K = 10
        fam = family(name, 16)
        ps = p_symbolic(fam, K)
        lg = AsymptoticSeries(ParamPoly(), ps.coeffs).log()
        gamma = {}
        for k in range(K + 1):
            poly = lg.coefficient(k)
            for (ds, dh, da), v in poly.terms.items():
                gamma[(k, ds)] = v
        tn = t_n_omega(fam, 3)
        for n in range(4):
            coeffs = [Q(0)] * K
            for k in range(1, K + 1):
                coeffs[k - 1] = k * gamma.get((k, k + 1 - n), Q(0))
            s_n = PowerSeries("a", coeffs)
            if n == 0:
                # alpha^2 S_0 - alpha must equal -omega
                lhs = s_n.mul_var(2) - PowerSeries.identity("a", s_n.order + 2)
                rhs = -tn[0]
            elif n == 1:
                lhs = s_n.mul_var(1)
                rhs = tn[1]
            else:
                lhs = s_n
                rhs = tn[n].mul_var(n - 2).scale(Q((-1) ** (1 - n)))
            w = min(lhs.order, rhs.order)
            assert lhs.truncate(w).prefix_equal(rhs.truncate(w)), n


class TestLogIdentity:
    @pytest.mark.parametrize("name", ["id", "exp1", "geom"])
    @pytest.mark.parametrize("variant", ["log", "exp"])
    def test_presets_depth_six(self, name, variant):
        ok, det = verify_log_identity(family(name, 12), variant, 6)
        assert ok, det["diffs"]

    def test_random_degree_six_family(self):
        fam = build_family(f_random(6, 991, 12))
        for variant in ("log", "exp"):
            ok, det = verify_log_identity(fam, variant, 6)
            assert ok, det["diffs"]

    def test_depth_zero_is_trivial(self):
        ok, det = verify_log_identity(family("exp1", 12), "log", 0)
        assert ok

    @pytest.mark.parametrize("variant", ["log", "exp"])
    def test_a_unit_fault_in_one_c_n_is_a_diff_from_k_n_on(self, monkeypatch, variant):
        n = 3
        falling = [1]  # F_n = (s-1)...(s-n), the factor c_n = F_n w_n starts from
        for r in range(1, n + 1):
            falling = _times_root(falling, r)
        original = stirling._times

        def faulty(p, q):
            num, den = original(p, q)
            if p == (tuple(falling), 1):
                num = (*num[:-1], num[-1] + 1)
            return num, den

        monkeypatch.setattr(stirling, "_times", faulty)
        ok, det = verify_log_identity(build_family(build_f("exp1", 12)), variant, 6)
        assert not ok
        assert min(d["k"] for d in det["diffs"]) == n


class TestInvariance:
    def test_zero_shift_is_the_identity(self):
        rep = invariance_check(family("exp1", 14), Q(0), 3)
        assert rep["ok"] and rep["omega_ok"]
        assert all(t["plain_invariant"] for t in rep["terms"])

    def test_exp1_transformation_laws(self):
        rep = invariance_check(family("exp1", 16), Q(1, 3), 4)
        assert rep["ok"] and rep["omega_ok"]
        by_term = {t["term"]: t for t in rep["terms"]}
        assert not by_term["s^1 regular"]["plain_invariant"]
        assert by_term["s^1 regular"]["anomaly_law_ok"]
        assert not by_term["g_2"]["plain_invariant"]
        assert by_term["g_2"]["anomaly_law_ok"]
        assert by_term["g_3"]["plain_invariant"]
        assert by_term["g_4"]["plain_invariant"]

    def test_trivial_family_omega_mobius(self):
        # for f = x the transformed change of variable is x/(1+Ax) exactly
        from umbralog.stirling import mobius_series, transformed_family

        fam = family("id", 12)
        fam2 = transformed_family(fam, Q(1, 2))
        mob = mobius_series(Q(1, 2), "x", fam2.omega.order)
        assert fam2.omega.prefix_equal(mob)

    @pytest.mark.xfail(
        strict=True,
        reason="plain substitution invariance of the s^0 term is provably "
        "false: g_2 = (1/2) ln omega' picks up half the log-Jacobian "
        "-ln(1+A*alpha) under alpha -> alpha/(1+A*alpha)",
    )
    def test_g2_plain_invariance_does_not_hold(self):
        rep = invariance_check(family("exp1", 16), Q(1, 3), 3)
        assert {t["term"]: t for t in rep["terms"]}["g_2"]["plain_invariant"]


class TestTreeExample:
    def test_empty_check_passes(self):
        ok, det = tree_example_check(0)
        assert ok

    def test_first_two_coefficients(self):
        fam = family("nu", 10)
        st = stirling_terms(fam, 2)
        assert st.s1_regular.coefficient(1) == Q(-1)
        assert st.s1_regular.coefficient(2) == Q(-3, 4)
        assert st.g[2].coefficient(1) == Q(1)
        assert st.g[2].coefficient(2) == Q(5, 4)

    def test_termwise_to_order_six(self):
        ok, det = tree_example_check(6)
        assert ok, det


class TestRatioTwoOrders:
    @pytest.mark.parametrize("name", ["exp1", "geom", "nu"])
    def test_closed_forms(self, name):
        ok, det = ratio_two_orders(family(name, 16), 6)
        assert ok, det

    def test_trivial_family_second_order_vanishes(self):
        fam = family("id", 14)
        ok, det = ratio_two_orders(fam, 6)
        assert ok
        # omega' = 1 and omega'' = 0, so the alpha^{H-1} bracket is zero
        from umbralog.operators import build_Tn
        from umbralog.umbral import rename

        g = rename(fam.fprime, "s").truncate(8).pow_param(
            -ParamPoly.symbol("H")
        )
        t_part = build_Tn(fam, 1, var="s").apply(g.mul_var(1)).div_var(1)
        assert t_part.is_zero()


class TestLimits:
    def test_conclusion_trivial_family_is_exact(self):
        lr = limit_check(family("id", 20), "conclusion", Q(2), 16)
        assert all(Q(e[1]) == 0 for e in lr.errors)

    def test_conclusion_exp1_converges(self):
        lr = limit_check(family("exp1", 34), "conclusion", Q(2), 32)
        assert lr.monotone
        assert 1.8 < lr.ratios[-1] < 2.2  # error ~ C/n

    def test_first_exp1(self):
        lr = limit_check(family("exp1", 34), "first", Q(2), 32)
        # the ratio is exactly 1 for this family; the residual is the target's
        # series-truncation noise, of size about 2^{-(order-2)}
        assert Q(lr.errors[-1][1]) < Q(1, 10**8)

    def test_second_exp1(self):
        lr = limit_check(family("exp1", 34), "second", Q(2), 32)
        assert lr.monotone
        assert 1.8 < lr.ratios[-1] < 2.2

    def test_unsafe_alpha_rejected(self):
        from umbralog.stirling import StirlingError

        with pytest.raises(StirlingError):
            limit_check(family("exp1", 20), "conclusion", Q(1, 2), 8)

    def test_zero_alpha_rejected(self):
        from umbralog.stirling import StirlingError

        with pytest.raises(StirlingError, match="alpha = 0"):
            limit_check(family("exp1", 20), "conclusion", Q(0), 8)

    def test_negative_alpha_rejected_by_the_second_limit(self):
        from umbralog.stirling import StirlingError

        with pytest.raises(StirlingError, match="needs alpha > 0, not -2$"):
            limit_check(family("exp1", 20), "second", Q(-2), 8)

    def test_n_max_below_first_sample_rejected(self):
        from umbralog.stirling import StirlingError

        with pytest.raises(StirlingError, match="n_max"):
            limit_check(family("exp1", 20), "conclusion", Q(2), 3)

    @pytest.mark.parametrize("which", ["conclusion", "second"])
    def test_extrapolation_beats_last_sample_exp1(self, which):
        # errors ~ C/n, so 2*x(32) - x(16) cancels the leading term
        lr = limit_check(family("exp1", 34), which, Q(2), 32)
        target = Q(lr.target.split("= ")[1])
        assert abs(Q(lr.extrapolated) - target) < Q(lr.final_error) / 10

    def test_extrapolation_trivial_family_is_exact(self):
        lr = limit_check(family("id", 20), "conclusion", Q(2), 16)
        assert Q(lr.extrapolated) == Q(1, 2)

    def test_target_floor_separates_truncation_from_convergence(self):
        fam = family("exp1", 66)
        # the samples of the first limit are exact (alpha - 1 at every n):
        # every error is the target's own truncation, 2^-65
        first = limit_check(fam, "first", Q(2), 64)
        assert {e for _, e in first.errors} == {"2.7105054312E-20"}
        assert first.target_floor == "2.7105054312E-20"
        # the conclusion's floor, 2^-65/65, lies far below its final error
        conclusion = limit_check(fam, "conclusion", Q(2), 64)
        assert Q(4, 10**22) < Q(conclusion.target_floor) < Q(43, 10**23)
        assert Q(38, 10**4) < Q(conclusion.final_error) < Q(4, 10**3)

    def test_trivial_family_has_no_target_floor(self):
        lr = limit_check(family("id", 20), "conclusion", Q(2), 16)
        assert Q(lr.target_floor) == 0

    def test_single_sample_has_no_extrapolation(self):
        lr = limit_check(family("exp1", 20), "conclusion", Q(2), 4)
        assert [n for n, _ in lr.samples] == [4]
        assert lr.extrapolated == ""

    def test_verify_suite_limits_passes(self):
        from umbralog.verify import SUITES

        rep = SUITES["limits"](order=34, n_max=32)
        assert rep.checks
        assert all(c.status == "pass" for c in rep.checks)

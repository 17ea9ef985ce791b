"""Weighted (Sheffer) sequences, their eigen-operator and resolvent."""

from fractions import Fraction as Q
import copy
from math import factorial

import pytest

from oracles import (
    exp_by_partial_sums,
    same_operator,
    same_series,
    word_Tn_ell,
)
from umbralog import sheffer
from umbralog.operators import DiffOperator, apply_Tn
from umbralog.parampoly import ParamPoly
from umbralog.polys import Poly
from umbralog.presets import build_f, family
from umbralog.series import OrderError, PowerSeries, SeriesError
from umbralog.sheffer import (
    bernoulli_log_experiment,
    bernoulli_weight,
    build_Tn_ell,
    ell_at_omega,
    sheffer_resolvent_check,
    tau_seq,
    theta_check,
    tn_ell_trend_check,
)
from umbralog.umbral import FamilyError, build_family, p_seq, rename


def bernoulli_ell(order):
    expm1 = PowerSeries(
        "x",
        [Q(0)] + [Q(1, factorial(n)) for n in range(1, order + 2)],
    )
    return expm1.div_var(1).inv()


class TestTauSeq:
    def test_weight_one_reduces_to_p(self):
        fam = family("exp1", 14)
        sf = tau_seq(fam, PowerSeries.one("x", 14), 8)
        seq = p_seq(fam, 8)
        for n in range(9):
            assert sf[n] == seq[n]

    def test_bernoulli_type_values(self):
        fam = family("exp1", 14)
        sf = tau_seq(fam, bernoulli_ell(14), 8)
        assert sf[1] == Poly([Q(-1, 2), Q(1)])
        assert sf[2] == Poly([Q(2, 3), Q(-2), Q(1)])

    def test_generating_function_oracle(self):
        # ell(phi(x)) e^{a phi(x)} = ln(1+x)/x * (1+x)^a for the exp1 family
        fam = family("exp1", 14)
        sf = tau_seq(fam, bernoulli_ell(14), 10)
        a = Poly.x()
        phi = fam.phi.truncate(10)
        gen = bernoulli_ell(14).truncate(10).compose(phi) * exp_by_partial_sums(
            phi.scale(a)
        )
        for n in range(11):
            assert sf[n] == gen.coefficient(n) * factorial(n)

    def test_classical_bernoulli_values(self):
        # f = x gives the classical Bernoulli polynomials
        fam = family("id", 14)
        sf = tau_seq(fam, bernoulli_ell(14), 6)
        assert sf[2] == Poly([Q(1, 6), Q(-1), Q(1)])
        assert sf[3] == Poly([Q(0), Q(1, 2), Q(-3, 2), Q(1)])

    def test_rejects_bad_weight(self):
        fam = family("exp1", 12)
        with pytest.raises(SeriesError):
            tau_seq(fam, PowerSeries("x", [Q(2), Q(1)] + [Q(0)] * 10), 4)

    def test_rejects_parampoly_weight_and_stores_nothing(self):
        fam = family("exp1", 12)
        ell = bernoulli_weight(12).map_coeffs(ParamPoly.coerce)
        keys = set(fam._tables)
        with pytest.raises(SeriesError, match="Fraction.*ParamPoly"):
            tau_seq(fam, ell, 6)
        assert set(fam._tables) == keys
        sf = tau_seq(fam, bernoulli_weight(12), 6)
        assert len(sf.tau_polys) == 7 and sf[1] == Poly([Q(-1, 2), Q(1)])


class TestSymbolicCheck:
    """``tau_seq`` checks that its symbolic continuation gives tau_n at s = n."""

    WEIGHTS = {
        "bernoulli": bernoulli_ell,
        "1+x": lambda order: PowerSeries("x", [Q(1), Q(1)] + [Q(0)] * (order - 1)),
    }

    @pytest.mark.parametrize("spec", ["exp1", "geom", "nu"])
    @pytest.mark.parametrize("weight", sorted(WEIGHTS))
    def test_continuation_specializes_to_tau_n(self, spec, weight):
        N = 10
        sf = tau_seq(family(spec, 14), self.WEIGHTS[weight](14), N)
        for n in range(N + 1):
            assert sf.tau_symbolic.specialize_to_poly(s=n) == sf[n]

    def test_a_wrong_tau_n_is_caught(self, monkeypatch):
        real = sheffer.sheffer_polys

        def perturbed(d, e, N, known=()):
            polys = list(real(d, e, N, known))
            polys[3] = polys[3] + Poly([Q(0), Q(1, 7)])
            return tuple(polys)

        monkeypatch.setattr(sheffer, "sheffer_polys", perturbed)
        fam = build_family(build_f("exp1", 12))
        p_seq(fam, 6)
        held = dict(fam._tables)
        with pytest.raises(SeriesError, match="symbolic tau does not specialize to tau_3"):
            tau_seq(fam, bernoulli_weight(12), 6)
        assert fam._tables.keys() == held.keys()
        assert all(fam._tables[key] is table for key, table in held.items())
        monkeypatch.undo()
        sf = tau_seq(fam, bernoulli_weight(12), 6)
        assert sf.tau_polys == tau_seq(family("exp1", 12), bernoulli_weight(12), 6).tau_polys


class TestTheta:
    def test_annihilates_constants(self):
        fam = family("exp1", 14)
        sf = tau_seq(fam, bernoulli_ell(14), 8)
        from umbralog.sheffer import theta_apply

        assert theta_apply(sf, Poly.const(1)).is_zero()

    def test_weight_one_reduces_to_index_operator(self):
        fam = family("geom", 14)
        sf = tau_seq(fam, PowerSeries.one("x", 14), 8)
        ok, det = theta_check(sf, 8)
        assert ok, det

    def test_bernoulli_weight_eigenvalues(self):
        fam = family("exp1", 14)
        sf = tau_seq(fam, bernoulli_ell(14), 8)
        ok, det = theta_check(sf, 8)
        assert ok, det


class TestResolvent:
    def test_s1_weight1_collapses(self):
        fam = family("exp1", 16)
        sf = tau_seq(fam, PowerSeries.one("x", 16), 6)
        one = PowerSeries.one("x", 10)
        ok, det = sheffer_resolvent_check(sf, [(0, one)], 1, 5)
        assert ok, det

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_bernoulli_family_many_operators(self, s):
        fam = family("exp1", 16)
        sf = tau_seq(fam, bernoulli_ell(16), 8)
        one = PowerSeries.one("x", 10)
        Dh = PowerSeries.identity("x", 10)
        for T in ([(0, one)], [(0, Dh)], [(1, one)]):
            ok, det = sheffer_resolvent_check(sf, T, s, 5)
            assert ok, det


def test_a_perturbed_ell_fails_the_resolvent_check(monkeypatch):
    # ell(omega) enters both the operator and the target weight; at s = 1 a
    # change in its x coefficient cancels for T = D, so s >= 2 is used
    original = sheffer.ell_at_omega

    def bumped(sf, x_order):
        c = list(original(sf, x_order).coeffs)
        c[1] += Q(1, 7)
        return PowerSeries("x", c)

    monkeypatch.setattr(sheffer, "ell_at_omega", bumped)
    fam = build_family(build_f("exp1", 16))
    sf = tau_seq(fam, bernoulli_ell(16), 8)
    one = PowerSeries.one("x", 10)
    Dh = PowerSeries.identity("x", 10)
    for s in (2, 3):
        for T in ([(0, one)], [(0, Dh)], [(1, one)]):
            ok, det = sheffer_resolvent_check(sf, T, s, 5)
            assert not ok, (s, T)


class TestLamOperators:
    def test_weight_one_reduction(self):
        from umbralog.operators import build_Tn

        fam = family("exp1", 16)
        sf = tau_seq(fam, PowerSeries.one("x", 16), 4)
        for n in range(4):
            assert build_Tn_ell(sf, n, var="a") == build_Tn(fam, n, var="a")

    def test_integer_index_trend(self):
        fam = family("exp1", 40)
        sf = tau_seq(fam, bernoulli_ell(40), 33)
        ok, det = tn_ell_trend_check(sf, Q(1, 3), (16, 32), 1)
        assert ok, det


class TestLamSchemeAgainstWords:
    """The lam-rewrite's right-to-left scheme reproduces its head words."""

    WEIGHTS = {
        "bernoulli": bernoulli_ell,
        "poly": lambda order: PowerSeries(
            "x", [Q(1), Q(1, 3), Q(-2, 5)] + [Q(0)] * (order - 2)
        ),
    }

    SPECS = ("id", "exp1", "geom", "nu", "poly:1,1/2,-1/3")

    @pytest.mark.parametrize(
        "spec,weight", [(s, "bernoulli") for s in SPECS] + [("exp1", "poly")]
    )
    def test_operator_and_series_routes(self, spec, weight):
        fam = family(spec, 12)
        sf = tau_seq(fam, self.WEIGHTS[weight](12), 4)
        sigma = fam.sigma("a")
        lam = rename(ell_at_omega(sf, sigma.order), "a")
        om = rename(fam.omega, "a")
        for n in range(5):
            oracle = word_Tn_ell(sigma, lam, n)
            assert same_operator(build_Tn_ell(sf, n), oracle), n
            assert same_series(apply_Tn(om, n, sigma, lam), oracle.apply(om)), n

    @pytest.mark.parametrize("order,n", [(3, 2), (5, 3), (7, 4)])
    def test_too_small_an_order_raises_on_both_routes(self, order, n):
        fam = family("nu", order)
        sigma = fam.sigma("a")
        lam = PowerSeries("a", [Q(1), Q(1, 3)] + [Q(1, 7)] * (sigma.order - 1))
        with pytest.raises(OrderError):
            word_Tn_ell(sigma, lam, n)
        with pytest.raises(OrderError):
            apply_Tn(DiffOperator.identity("a", sigma.order), n, sigma, lam)
        with pytest.raises(OrderError):
            apply_Tn(rename(fam.omega, "a"), n, sigma, lam)


class TestBernoulliExperiment:
    def test_depth_zero_trivial(self):
        rep = bernoulli_log_experiment(0)
        for c in rep["candidates"].values():
            assert c["rows"][0]["match"]

    def test_report_is_complete(self):
        rep = bernoulli_log_experiment(6)
        assert set(rep["candidates"]) == {"sheffer-exp1", "classical"}
        for c in rep["candidates"].values():
            assert [row["k"] for row in c["rows"]] == list(range(7))
            assert all("diff" in row for row in c["rows"])

    def test_first_order_value_and_candidate_split(self):
        # RHS_1 = -1/2: the first alpha^{-1} coefficient of the operator side
        from umbralog.sheffer import bernoulli_operator_log

        rhs = bernoulli_operator_log(2)
        assert rhs[1] == ParamPoly.const(Q(-1, 2))
        rep = bernoulli_log_experiment(6)
        # the classical continuation satisfies the displayed identity exactly,
        # the exp1-based reading departs at the first coefficient
        assert rep["candidates"]["classical"]["exact_through_depth"] == 6
        assert rep["candidates"]["sheffer-exp1"]["exact_through_depth"] == 0

    def test_computed_once_per_depth_and_copied_per_call(self, monkeypatch):
        calls = []
        real = sheffer.bernoulli_operator_log
        monkeypatch.setattr(
            sheffer, "bernoulli_operator_log", lambda depth: calls.append(depth) or real(depth)
        )
        first = bernoulli_log_experiment(5)
        kept = copy.deepcopy(first)
        assert bernoulli_log_experiment(5) == kept
        assert len(calls) <= 1  # none if an earlier test asked for depth 5
        first["depth"] = -1
        first["rhs_times_s"].append("0")
        first["candidates"]["classical"]["rows"][0]["match"] = False
        del first["candidates"]["sheffer-exp1"]
        assert bernoulli_log_experiment(5) == kept

    def test_a_negative_depth_is_rejected_by_name(self):
        with pytest.raises(FamilyError, match=r"^depth must be >= 0, not depth = -1$"):
            bernoulli_log_experiment(-1)

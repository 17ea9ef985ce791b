"""Families, polynomial sequences, q-tables and the ratio expansion."""

import random
from fractions import Fraction as Q
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    abel_poly,
    falling_factorial_poly,
    naive_compose,
    p_symbolic_by_binom,
    q_table_by_powers,
    q_table_by_series,
)
from umbralog.operators import apply_Tn
from umbralog.parampoly import ParamPoly
from umbralog.polys import Poly
from umbralog.presets import build_f, f_poly, family, x_exp_minus_x
from umbralog.series import OrderError, PowerSeries, SeriesError
from umbralog.sheffer import bernoulli_weight, tau_seq
from umbralog.stirling import _lhs_side
from umbralog.umbral import (
    FamilyError,
    build_family,
    p_H_t,
    p_seq,
    p_symbolic,
    q_at_omega,
    q_table,
    q_zero_table,
    ratio_P_direct,
    ratio_P_symbolic,
    tau_inverse,
)

S = ParamPoly.symbol("s")
H = ParamPoly.symbol("H")

KERNEL_SPECS = [
    "id", "exp1", "geom", "nu",
    "poly:1,1/2,-1/3,1/5,1/6", "poly:1,-1/2,1/3,-1/5,-1/6",
]


def typed(u: PowerSeries) -> tuple:
    """u with the type of its zero and of every coefficient."""
    return (
        u.var,
        (type(u.czero), u.czero),
        tuple((type(c), c) for c in u.coeffs),
    )


class TestBuildFamily:
    def test_identity_is_a_fixed_point(self):
        fam = family("id", 8)
        x = PowerSeries.identity("x", 8)
        assert fam.phi.prefix_equal(x)
        assert fam.tau_f.prefix_equal(x)
        assert fam.omega.prefix_equal(x)

    def test_exp1_omega_is_the_log_series(self):
        fam = family("exp1", 10)
        for n in range(1, 10):
            assert fam.omega.coefficient(n) == Q(1, n)

    def test_quadratic_family(self):
        fam = build_family(f_poly([1, 1], 10))
        # f/f' = (x + x^2)/(1 + 2x), cross-multiplied exactly
        lhs = fam.tau_f * PowerSeries("x", [Q(1), Q(2)] + [Q(0)] * 8)
        assert lhs.prefix_equal(fam.f.truncate(lhs.order))

    def test_rejects_bad_leading_terms(self):
        with pytest.raises(FamilyError):
            build_family(PowerSeries("x", [Q(1), Q(1), Q(0)]))
        with pytest.raises(FamilyError):
            build_family(PowerSeries("x", [Q(0), Q(2), Q(0)]))


class TestOmegaSideOperators:
    def test_fprime_at_omega_stops_at_the_family_order(self):
        fam = family("exp1", 10)
        fw = fam.fprime_at_omega(fam.order - 2)
        assert fw.order == fam.order - 2
        # exp1: f'(omega(x)) = e^{log(1/(1-x))} = 1/(1-x)
        assert all(fw.coefficient(k) == 1 for k in range(fw.order + 1))
        with pytest.raises(OrderError):
            fam.fprime_at_omega(fam.order - 1)

    @pytest.mark.parametrize("name", ["exp1", "geom"])
    @pytest.mark.parametrize("s", [Q(3, 2), S])
    def test_step_is_s_L_minus_d_domega(self, name, s):
        fam = family(name, 12)
        rng = random.Random(11)
        g = PowerSeries(
            "x", [Q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(9)]
        )
        # s (g - g(0))/x from the coefficient shift, g'/omega' by division
        ell = PowerSeries("x", [g.coefficient(k + 1) for k in range(g.order)])
        want = ell.scale(s) - g.derive() / fam.omega.derive()
        got = fam.x_op(g, s)
        assert got.order == want.order == g.order - 1
        for k in range(got.order + 1):
            assert got.coefficient(k) == want.coefficient(k)

    def test_d_domega_keeps_the_variable(self):
        fam = family("geom", 10)
        g = PowerSeries("a", [Q(0), Q(1), Q(2), Q(3)])
        assert fam.d_domega(g).var == "a"

    def test_inverse_omega_prime_is_computed_once(self):
        fam = build_family(family("nu", 8).f)
        assert fam.inv_omega_prime is fam.inv_omega_prime
        assert fam == family("nu", 8)
        assert hash(fam) == hash(family("nu", 8))

    @pytest.mark.parametrize("spec", ["exp1", "nu", "poly:1,1/2,-1/3,1/5,1/6"])
    def test_held_inverses_truncate_to_the_inverse_of_a_truncation(self, spec):
        fam = build_family(build_f(spec, 12))
        assert fam.x_over_f is fam.x_over_f and fam.x_over_tau is fam.x_over_tau
        for k in range(fam.x_over_f.order + 1):
            want = fam.f.truncate(k + 1).div_var(1).inv()
            assert fam.x_over_f.truncate(k).coeffs == want.coeffs
        for k in range(fam.x_over_tau.order + 1):
            want = fam.tau_f.truncate(k + 1).div_var(1).inv()
            assert fam.x_over_tau.truncate(k).coeffs == want.coeffs


SPECS = ["id", "exp1", "geom", "nu", "poly:1,1/2,-1/3"]


@st.composite
def poly_f(draw):
    """f = x + c_2 x^2 + ... + c_m x^m to an order n >= m, over Fraction or
    with ``ParamPoly`` constants as coefficients."""
    n = draw(st.integers(min_value=2, max_value=14))
    m = draw(st.integers(min_value=1, max_value=n))
    h = draw(st.sampled_from([1, 7, 10**3]))
    tail = [draw(st.fractions(min_value=-h, max_value=h, max_denominator=h)) for _ in range(m - 1)]
    f = f_poly([1, *tail], n)
    return f.map_coeffs(ParamPoly.const) if draw(st.booleans()) else f


def assert_fprime_at_omega_is_the_composition(f: PowerSeries):
    fam = build_family(f)
    want = naive_compose(fam.fprime, fam.omega)
    for k in range(fam.order - 1):
        assert typed(fam.fprime_at_omega(k)) == typed(want.truncate(k)), k
    with pytest.raises(OrderError):
        fam.fprime_at_omega(fam.order - 1)


class TestHeldFprimeAtOmega:
    """``build_family`` composes f'(omega) once, to order n - 2, and checks
    omega through it; ``fprime_at_omega(k)`` reads its prefix, which equals
    the oracle's Horner composition of f' and omega at every k <= n - 2."""

    @pytest.mark.parametrize("domain", [Q, ParamPoly.const], ids=["Fraction", "ParamPoly"])
    @pytest.mark.parametrize("n", [3, 4, 12])
    @pytest.mark.parametrize("spec", SPECS)
    def test_specs(self, spec, n, domain):
        assert_fprime_at_omega_is_the_composition(build_f(spec, n).map_coeffs(domain))

    @given(poly_f())
    @settings(max_examples=60, deadline=None)
    def test_poly_families(self, f):
        assert_fprime_at_omega_is_the_composition(f)

    @pytest.mark.parametrize("spec", SPECS[:4])
    def test_order_two_builds(self, spec):
        fam = build_family(build_f(spec, 2))
        assert fam.fprime_at_omega(0).coeffs == (1,)


# each entry point that takes a size, with the argument it must name
NEGATIVE_SIZES = {
    "fprime_at_omega": (lambda fam: fam.fprime_at_omega(-1), "order"),
    "q_table": (lambda fam: q_table(fam, 3, -1), "t_order"),
    "q_zero_table": (lambda fam: q_zero_table(fam, -1), "n_max"),
    "q_at_omega": (lambda fam: q_at_omega(fam, 3, -1), "x_order"),
    "p_symbolic": (lambda fam: p_symbolic(fam, -1), "N"),
    "ratio_P_symbolic": (lambda fam: ratio_P_symbolic(fam, -1), "N"),
}


@pytest.mark.parametrize("entry", NEGATIVE_SIZES)
def test_a_negative_size_is_rejected_by_name(entry):
    call, name = NEGATIVE_SIZES[entry]
    fam = build_family(build_f("exp1", 12))
    with pytest.raises(FamilyError, match=rf"^{name} must be >= 0, not {name} = -1$"):
        call(fam)
    assert fam._tables == {}


class TestTauInverse:
    def test_identity(self):
        x = PowerSeries.identity("x", 8)
        assert tau_inverse(x).prefix_equal(x)

    def test_tree_series_input(self):
        g = x_exp_minus_x(10)
        f = tau_inverse(g)
        assert f.truncate(4) == PowerSeries(
            "x", [Q(0), Q(1), Q(1), Q(3, 4), Q(17, 36)]
        )
        # verify the defining property f/f' = g termwise
        ratio = f / f.derive()
        assert ratio.prefix_equal(g.truncate(ratio.order))

    def test_round_trip_on_random_families(self):
        rng = random.Random(7)
        for _ in range(5):
            coeffs = [Q(1)] + [
                Q(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(5)
            ]
            f = f_poly(coeffs, 12)
            fam = build_family(f)
            back = tau_inverse(fam.tau_f)
            assert back.prefix_equal(f.truncate(back.order))


class TestPSeq:
    def test_identity_gives_monomials(self):
        seq = p_seq(family("id", 9), 8)
        for n in range(9):
            assert seq[n] == Poly([Q(0)] * n + [Q(1)])

    def test_exp1_gives_falling_factorials(self):
        seq = p_seq(family("exp1", 13), 12)
        for n in range(13):
            assert seq[n] == falling_factorial_poly(n)

    def test_abel_family(self):
        # f = x e^{-x} has the explicit sequence alpha (alpha + n)^{n-1}
        fam = build_family(x_exp_minus_x(11))
        seq = p_seq(fam, 10)
        for n in range(11):
            assert seq[n] == abel_poly(n, Q(1))

    def test_binomial_convolution_identity(self):
        # p_n(x + y) = sum_k C(n, k) p_k(x) p_{n-k}(y), in Q[x][y]
        for name in ("exp1", "geom", "nu"):
            seq = p_seq(family(name, 13), 12)
            for n in range(13):
                rhs = Poly()
                for k in range(n + 1):
                    rhs = rhs + Poly(
                        [seq[k] * c for c in seq[n - k].coeffs]
                    ) * comb(n, k)
                assert seq[n].taylor() == rhs

    def test_generating_function_identity(self):
        # sum p_k(a) f(x)^k / k! = exp(a x) through order 12 in x
        for name in ("id", "exp1", "geom", "nu"):
            fam = family(name, 13)
            seq = p_seq(fam, 12)
            a = Poly.x()
            acc = None
            fpow = PowerSeries.one("x", 12)
            for k in range(13):
                term = fpow.scale(seq[k] / Q(factorial(k)))
                acc = term if acc is None else acc + term
                fpow = (fpow * fam.f.truncate(12)) if k < 12 else fpow
            expected = PowerSeries.identity("x", 12).scale(a).exp()
            assert acc.prefix_equal(expected)


class TestQCoefficients:
    def test_q0_is_one(self):
        fam = family("exp1", 12)
        table = q_table(fam, 3, 4)
        assert ParamPoly.coerce(table[0].coefficient(0)) == ParamPoly.const(1)
        assert all(
            ParamPoly.coerce(table[0].coefficient(j)).is_zero()
            for j in range(1, 5)
        )

    def test_q1_matches_displayed_formula(self):
        # q_1^t(s) = -(s/2) f''(t)/f'(t)
        for name in ("exp1", "geom", "nu"):
            fam = family(name, 14)
            table = q_table(fam, 1, 6)
            ratio = fam.f.derive(2) / fam.f.derive()
            for j in range(7):
                expected = S * ratio.coefficient(j) * Q(-1, 2)
                assert ParamPoly.coerce(table[1].coefficient(j)) == expected

    @pytest.mark.parametrize("spec", ["exp1", "geom", "nu", "poly:1,1/2,-1/3"])
    def test_against_two_dimensional_powers(self, spec):
        # q_n^t(s) has degree n in s, so n_max + 2 integer points pin it down
        n_max, t_order = 4, 3
        fam = family(spec, n_max + 1 + t_order)
        in_s = q_table(fam, n_max, t_order, S)
        in_h = q_table(fam, n_max, t_order, H + 1)
        for m in range(n_max + 2):
            expected = q_table_by_powers(fam.f, n_max, t_order, m)
            rational = q_table(fam, n_max, t_order, Q(-m))
            for n in range(n_max + 1):
                for j in range(t_order + 1):
                    assert rational[n].coefficient(j) == expected[n][j]
                    assert in_s[n].coefficient(j).eval(s=-m) == expected[n][j]
                    assert in_h[n].coefficient(j).eval(H=-m - 1) == expected[n][j]

    def test_exp1_q2_against_direct_power(self):
        fam = family("exp1", 12)
        q2 = q_zero_table(fam, 2)[2]
        assert q2 == S * S * Q(1, 4) - S * Q(1, 12)  # s(3s-1)/12
        direct = fam.f.div_var(1).inv().pow_param(S)
        assert q2 == ParamPoly.coerce(direct.coefficient(2)) * 2


class TestQTableAgainstSeries:
    """``q_table`` runs Miller's recurrence on integer polynomials in the
    exponent; the series-in-t loop it replaced is the oracle."""

    SIZES = [(0, 3), (3, 0), (4, 4), (12, 4), (16, 6)]
    EXPONENTS = [S, -S, H, H + 1, Q(2, 3) * S + 1, 2, Q(-2), Q(1, 2), ParamPoly.const(2)]

    @pytest.mark.parametrize("spec", KERNEL_SPECS)
    @pytest.mark.parametrize("n_max,t_order", SIZES)
    def test_equals_series_loop(self, spec, n_max, t_order):
        fam = build_family(build_f(spec, n_max + t_order + 3))
        for e in self.EXPONENTS:
            got = q_table(fam, n_max, t_order, e)
            want = q_table_by_series(fam, n_max, t_order, e)
            assert type(got) is tuple and len(got) == n_max + 1
            assert [typed(g) for g in got] == [typed(w) for w in want], e

    def test_order_error_text_is_unchanged(self):
        fam = family("nu", 10)
        with pytest.raises(OrderError) as got:
            q_table(fam, 6, 4)
        with pytest.raises(OrderError) as want:
            q_table_by_series(fam, 6, 4)
        assert str(got.value) == str(want.value)
        assert "family order 10 too small (need 11)" in str(got.value)

    def test_rejects_a_family_over_parampoly(self):
        """build_family runs over ParamPoly; the tables that lift f to
        integers name the domain instead of failing inside the lift."""
        fam = build_family(build_f("exp1", 8).map_coeffs(ParamPoly.coerce))
        entry_points = {
            "p_seq": lambda: p_seq(fam, 4),
            "p_symbolic": lambda: p_symbolic(fam, 4),
            "tau_seq": lambda: tau_seq(fam, bernoulli_weight(8), 4),
            "q_table": lambda: q_table(fam, 2, 2),
            "apply_Tn": lambda: apply_Tn(fam.omega, 2, fam.sigma("x")),
        }
        for call in entry_points.values():
            with pytest.raises(SeriesError, match="over Fraction coefficients, not ParamPoly$"):
                call()
        assert not fam._tables


class TestQTableDomain:
    """q_table and q_zero_table give values in the exponent's domain, as
    ``pow_param`` does: ``Fraction`` for an ``int`` or ``Fraction`` exponent,
    ``ParamPoly`` for a ``ParamPoly`` one."""

    RATIONAL = [2, Q(-2), Q(1, 2)]
    SYMBOLIC = [ParamPoly.const(2), S, H + 1]

    @pytest.mark.parametrize("spec", ["exp1", "nu", "poly:1,1/2,-1/3,1/5,1/6"])
    def test_values_and_zero_follow_the_exponent(self, spec):
        fam = build_family(build_f(spec, 10))
        for domain, exponents in ((Q, self.RATIONAL), (ParamPoly, self.SYMBOLIC)):
            for e in exponents:
                for row in q_table(fam, 4, 3, e):
                    assert type(row.czero) is domain, e
                    assert all(type(c) is domain for c in row.coeffs), e
                assert all(type(c) is domain for c in q_zero_table(fam, 6, e)), e

    def test_equal_exponents_give_equal_values(self):
        fam = build_family(build_f("geom", 10))
        rational, symbolic = q_table(fam, 4, 3, 2), q_table(fam, 4, 3, ParamPoly.const(2))
        assert [r.coeffs for r in rational] == [p.coeffs for p in symbolic]
        assert q_zero_table(fam, 6, Q(2)) == q_zero_table(fam, 6, ParamPoly.const(2))


class TestContinuations:
    def test_pht_low_cases(self):
        fam = family("exp1", 14)
        pht = p_H_t(fam, 5)
        assert pht.specialize(1) == Poly([Q(0), Q(1)])
        assert pht.specialize(2) == Poly([Q(0), Q(-1), Q(1)])
        # leading coefficient is always 1 (q_0 = 1)
        assert ParamPoly.coerce(pht.coeffs[0].coefficient(0)) == ParamPoly.const(1)

    def test_p_symbolic_specializes(self):
        for name in ("id", "exp1", "geom", "nu"):
            fam = family(name, 12)
            ps = p_symbolic(fam, 10)
            seq = p_seq(fam, 9)
            for n in range(9):
                assert ps.specialize_to_poly(s=n) == seq[n]

    def test_p_symbolic_alpha_coefficient(self):
        fam = family("exp1", 10)
        ps = p_symbolic(fam, 6)
        assert ps.coefficient(1) == (S - 1) * S * Q(-1, 2)

    @pytest.mark.parametrize("spec", KERNEL_SPECS)
    def test_p_symbolic_equals_binomial_sum(self, spec):
        fam = family(spec, 22)
        for N in (0, 1, 6, 10, 20):
            got, want = p_symbolic(fam, N), p_symbolic_by_binom(fam, N)
            assert (type(got.exponent), got.exponent) == (type(want.exponent), want.exponent)
            assert typed(got.body) == typed(want.body)

    @pytest.mark.parametrize("spec", KERNEL_SPECS)
    def test_p_symbolic_equals_the_log_identity_side(self, spec):
        # _lhs_side row n holds c_n = (s-1)...(s-n) [x^n] (x/f)^s from a
        # recurrence of its own, as integer coefficients in s over a denominator
        fam = build_family(build_f(spec, 12))
        rows = _lhs_side(fam, 8)
        ps = p_symbolic(fam, 8)
        for n in range(9):
            num, den = rows[n][2]
            assert ps.coeffs[n] == ParamPoly({(i, 0, 0): Q(c, den) for i, c in enumerate(num)})

    def test_p_symbolic_order_error(self):
        fam = family("geom", 8)
        p_symbolic(fam, 7)
        with pytest.raises(OrderError, match="family order too small"):
            p_symbolic(fam, 8)


class TestRatio:
    def test_h_zero_is_trivial(self):
        fam = family("exp1", 12)
        vals = ratio_P_direct(fam, 2, 0, 5)
        assert vals == [1, 0, 0, 0, 0, 0]
        sym = ratio_P_symbolic(fam, 3)
        specialized = [p.eval(s=Q(2), H=Q(0)) for p in sym]
        assert specialized == [1, 0, 0, 0]

    def test_exp1_shift_by_one(self):
        fam = family("exp1", 12)
        assert ratio_P_direct(fam, 2, 1, 4) == [1, -2, 0, 0, 0]

    def test_modes_agree(self):
        for name in ("exp1", "geom"):
            fam = family(name, 14)
            sym = ratio_P_symbolic(fam, 5)
            for s in range(4):
                for h in range(3):
                    direct = ratio_P_direct(fam, s, h, 5)
                    assert [
                        p.eval(s=Q(s), H=Q(h)) for p in sym
                    ] == direct

    def test_degree_bound(self):
        for name in ("exp1", "geom", "nu"):
            fam = family(name, 15)
            for n, p in enumerate(ratio_P_symbolic(fam, 6)):
                assert p.degree("s") <= n

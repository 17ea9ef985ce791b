"""Symbolic powers of unit series: Miller's recurrence against exp(e log g),
and the power tables that read only a prefix of it."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import pow_by_exp_log
from umbralog.conjugation import ConjugationContext
from umbralog.parampoly import H, S, ParamPoly
from umbralog.presets import build_f, family
from umbralog.series import OrderError, PowerSeries
from umbralog.stirling import _tn_omega, stirling_terms
from umbralog.umbral import build_family, q_zero_table

SPECS = ["id", "exp1", "geom", "nu", "poly:1,1/2,-1/3"]
EXPONENTS = [2, Q(2), Q(-7, 3), ParamPoly.const(2), S, -H, H + 1, Q(2, 3) * S + 1]

small_rationals = st.fractions(min_value=-10, max_value=10, max_denominator=10)


@st.composite
def unit_series(draw):
    """A series 1 + ... over Fraction or over ParamPoly (zero of its domain)."""
    n = draw(st.integers(min_value=0, max_value=9))
    tail = [draw(small_rationals) for _ in range(n)]
    if draw(st.booleans()):
        return PowerSeries("x", [Q(1)] + tail)
    keys = st.tuples(st.integers(0, 2), st.integers(0, 1), st.just(0))
    polys = [
        ParamPoly(draw(st.dictionaries(keys, small_rationals, max_size=2)))
        for _ in tail
    ]
    return PowerSeries("x", [ParamPoly.const(1)] + polys)


def typed(u: PowerSeries) -> tuple:
    """u with the type of its zero and of every coefficient."""
    return (
        u.var,
        (type(u.czero), u.czero),
        tuple((type(c), c) for c in u.coeffs),
    )


class TestMillerAgainstExpLog:
    @given(unit_series(), st.sampled_from(EXPONENTS))
    @settings(max_examples=150, deadline=None)
    def test_pow_param_equals_oracle(self, g, e):
        assert typed(g.pow_param(e)) == typed(pow_by_exp_log(g, e))

    @pytest.mark.parametrize("spec", SPECS)
    def test_family_powers_equal_oracle(self, spec):
        fam = family(spec, 16)
        bases = [
            fam.f.div_var(1).inv(),
            fam.fprime_at_omega(14),
        ]
        for g in bases:
            for e in EXPONENTS:
                assert typed(g.pow_param(e)) == typed(pow_by_exp_log(g, e))

    def test_parampoly_constant_base_keeps_its_domain(self):
        g = PowerSeries("x", [Q(1), Q(1, 2), Q(-3)]).map_coeffs(ParamPoly.const)
        for e in (2, Q(1, 3), S):
            got = g.pow_param(e)
            assert typed(got) == typed(pow_by_exp_log(g, e))
            assert all(type(c) is ParamPoly for c in got.coeffs)


class TestQZeroPrefix:
    @pytest.mark.parametrize("spec", SPECS)
    def test_short_table_is_prefix_of_full(self, spec):
        order = 12
        for exponent in (S, H + 1, Q(2)):
            full = q_zero_table(build_family(build_f(spec, order)), order - 1, exponent)
            for n in range(order):
                fam = build_family(build_f(spec, order))
                short = q_zero_table(fam, n, exponent)
                assert [(type(c), c) for c in short] == [
                    (type(c), c) for c in full[: n + 1]
                ]

    @pytest.mark.parametrize("spec", SPECS)
    def test_order_error_past_the_family(self, spec):
        fam = family(spec, 8)
        q_zero_table(fam, 7)
        with pytest.raises(OrderError, match="family order too small"):
            q_zero_table(fam, 8)


class TestConjugationPowers:
    @pytest.mark.parametrize("spec", SPECS)
    def test_truncated_ratio_gives_the_same_powers(self, spec):
        fam = family(spec, 14)
        ctx = ConjugationContext(fam, 4)
        need = ctx.x_order + 2
        om = fam.omega.truncate(need)
        ratio = fam.f.truncate(need + 1).compose(om).div_var(1) / om.div_var(1)
        assert typed(ctx.conj) == typed(
            pow_by_exp_log(ratio, S).truncate(ctx.x_order)
        )
        assert typed(ctx.conj_inv) == typed(
            pow_by_exp_log(ratio, -S).truncate(ctx.x_order)
        )


def test_stirling_depths_share_t_n_omega():
    fam = build_family(build_f("exp1", 14))
    for depth in (4, 5, 6):
        stirling_terms(fam, depth)
    keys = [key for key in fam._tables if key[0] is _tn_omega.__wrapped__]
    assert sorted(key[1][1] for key in keys) == list(range(6))

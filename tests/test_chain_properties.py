"""Truncation soundness along the chain f -> omega -> p_n -> T_n -> g_k.

For a drawn f = x + sum_k c_k x^k, a result computed from f to order N must
be the prefix of the same result computed from f to order N + 6: the extra
orders may add coefficients but never change one that was claimed.  And
asking for one coefficient, polynomial or order past what N supports is an
``OrderError``, never a silent zero.  Families are built directly, so no
table is served from the ``presets.family`` cache.
"""

from dataclasses import fields
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbralog.series import OrderError, PowerSeries
from umbralog.sheffer import tau_seq
from umbralog.stirling import stirling_terms, t_n_omega
from umbralog.umbral import build_family, p_seq, q_zero_table

MORE = 6
small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def chains(draw):
    """(f to order N, f to order N + 6, ell to order N, ell to order N + 6)
    for a polynomial f of degree 2 to 6 and a polynomial weight ell."""
    degree = draw(st.integers(min_value=2, max_value=6))
    f = [Q(0), Q(1)] + [draw(small) for _ in range(degree - 1)]
    ell = [Q(1)] + [draw(small) for _ in range(draw(st.integers(min_value=1, max_value=3)))]
    n = draw(st.integers(min_value=10, max_value=14))
    return tuple(at_order(c, m) for m in (n, n + MORE) for c in (f, ell))


def at_order(coeffs: list, order: int) -> PowerSeries:
    return PowerSeries("x", (coeffs + [Q(0)] * order)[: order + 1])


def assert_prefix(lo: PowerSeries, hi: PowerSeries):
    """lo is hi truncated to lo's order, in the same stored form, and lo
    claims nothing past its order."""
    assert hi.order > lo.order
    assert hi.truncate(lo.order) == lo
    with pytest.raises(OrderError):
        lo.coefficient(lo.order + 1)


@settings(max_examples=60, deadline=None)
@given(chains())
def test_a_result_at_order_n_is_a_prefix_of_the_result_at_n_plus_6(chain):
    f_lo, ell_lo, f_hi, ell_hi = chain
    n = f_lo.order
    lo, hi = build_family(f_lo), build_family(f_hi)

    # the family's parts, f'(omega) among them
    for part in fields(lo):
        if part.name != "order":
            assert_prefix(getattr(lo, part.name), getattr(hi, part.name))
    for k in (0, n // 2, n - 2):
        assert_prefix(lo.fprime_at_omega(k), hi.fprime_at_omega(k + 1))
    with pytest.raises(OrderError):
        lo.fprime_at_omega(n - 1)

    # p_0..p_N and the q_n at t = 0 are exact: equal at both orders
    assert tuple(p_seq(hi, n + MORE)[: n + 1].polys) == tuple(p_seq(lo, n).polys)
    with pytest.raises(OrderError):
        p_seq(lo, n + 1)
    assert q_zero_table(hi, n + MORE - 1)[:n] == q_zero_table(lo, n - 1)
    with pytest.raises(OrderError):
        q_zero_table(lo, n)

    # (T_n omega)(alpha) and the Stirling terms to depth 3
    for got, want in zip(t_n_omega(lo, 2), t_n_omega(hi, 2)):
        assert_prefix(got, want)
    s_lo, s_hi = stirling_terms(lo, 3), stirling_terms(hi, 3)
    assert_prefix(s_lo.integral_term, s_hi.integral_term)
    assert_prefix(s_lo.s1_regular, s_hi.s1_regular)
    assert sorted(s_lo.g) == sorted(s_hi.g) == [2, 3]
    for k in s_lo.g:
        assert_prefix(s_lo.g[k], s_hi.g[k])

    # tau_0..tau_(N-1) for the weight ell, and their symbolic continuation
    # (which reads f to one order more than its depth)
    t_lo, t_hi = tau_seq(lo, ell_lo, n - 1), tau_seq(hi, ell_hi, n + MORE - 1)
    assert t_hi.tau_polys[:n] == t_lo.tau_polys
    assert_prefix(t_lo.tau_symbolic.body, t_hi.tau_symbolic.body)
    with pytest.raises(OrderError):
        tau_seq(lo, ell_lo, n)

"""Graded alpha-expansions: arithmetic, logs, and the ln(alpha) adjunct."""

from fractions import Fraction as Q

import pytest

from umbralog.asymptotic import AsymptoticSeries, LinForm
from umbralog.parampoly import ParamPoly
from umbralog.polys import Poly
from umbralog.series import OrderError, SeriesError

S = ParamPoly.symbol("s")


def test_self_division_is_one():
    p = AsymptoticSeries.from_plain(LinForm.S, [Q(1), S * 2, S * S - 1, Q(5)])
    r = p / p
    assert r.exponent == LinForm.ZERO
    assert r.coefficient(0) == ParamPoly.const(1)
    assert all(r.coefficient(k).is_zero() for k in range(1, 4))


def test_log_of_shifted_unit():
    c1 = ParamPoly.const(Q(3, 2))
    p = AsymptoticSeries.from_plain(LinForm.S, [Q(1), c1, Q(0), Q(0)])
    lg = p.log()
    head = lg.log_coefficient(0)
    assert head[0].is_zero() and head[1] == S  # s * ln(alpha)
    assert lg.coefficient(1) == c1
    assert lg.coefficient(2) == c1 * c1 * Q(-1, 2)
    assert lg.coefficient(3) == c1 * c1 * c1 * Q(1, 3)


def test_derive_s_introduces_log_adjunct():
    p = AsymptoticSeries.from_plain(LinForm.S, [Q(1), Q(0)])
    d = p.derive_s()
    c = d.log_coefficient(0)
    assert c[0].is_zero() and c[1] == ParamPoly.const(1)


def test_derive_alpha_shifts_exponent():
    p = AsymptoticSeries.from_plain(LinForm.S, [Q(1), Q(2)])
    d = p.derive_alpha()
    assert d.exponent == LinForm.S - 1
    assert d.coefficient(0) == S
    assert d.coefficient(1) == (S - 1) * 2


def test_poly_ratio_expansion():
    num = Poly([Q(0), Q(2), Q(-3), Q(1)])  # a(a-1)(a-2)
    den = Poly([Q(0), Q(-1), Q(1)])        # a(a-1)
    r = AsymptoticSeries.from_poly_ratio(num, den, 4)
    assert r.exponent == LinForm(1)
    assert [r.coefficient(k).constant_value() for k in range(3)] == [1, -2, 0]


def test_division_requires_unit_leading():
    p = AsymptoticSeries.from_plain(LinForm.ZERO, [Q(2), Q(1)])
    with pytest.raises(SeriesError):
        p / p


def test_depth_read_guard():
    p = AsymptoticSeries.from_plain(LinForm.ZERO, [Q(1), Q(1)])
    with pytest.raises(OrderError):
        p.coefficient(2)


def test_specialize_to_poly():
    coeffs = [ParamPoly.const(1), S - 1, (S - 1) * (S - 2) / Q(2)]
    p = AsymptoticSeries(LinForm.S, coeffs)
    assert p.specialize_to_poly(s=2) == Poly([Q(0), Q(1), Q(1)])


def test_equal_to_depth_handles_exponent_offsets():
    a = AsymptoticSeries.from_plain(LinForm(2), [Q(0), Q(1), Q(5)])
    b = AsymptoticSeries.from_plain(LinForm(1), [Q(1), Q(5), Q(0)])
    assert AsymptoticSeries.equal_to_depth(a, b, 1)


def test_div_log_derive_alpha_methods():
    p = AsymptoticSeries.from_plain(LinForm.S, [Q(1), S])
    assert (p / p).coefficient(0) == ParamPoly.const(1)
    assert p.derive_alpha().exponent == LinForm.S - 1
    assert p.log().coefficient(1) == S

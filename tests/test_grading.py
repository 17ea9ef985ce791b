"""Graded geometric inversion against the direct polynomial ratios."""

from fractions import Fraction as Q

import pytest

from umbralog.asymptotic import AsymptoticSeries
from umbralog.grading import (
    GradedOp,
    GradedSeries,
    geometric_sum,
    op_ratio_split,
    ratio_resolvent,
    target_conjugated,
    target_powers_image_shifted,
)
from umbralog.parampoly import ParamPoly
from umbralog.presets import family
from umbralog.series import PowerSeries, SeriesError
from umbralog.umbral import p_seq


def test_zero_operator_returns_target():
    target = GradedSeries(
        ParamPoly.const(0), {0: PowerSeries("x", [Q(3), Q(1), Q(4)])}
    )
    out = geometric_sum(GradedOp([]), target, 2)
    assert out.at_x0(2).coefficient(0).constant_value() == 3


def test_grade_zero_piece_rejected():
    with pytest.raises(SeriesError):
        GradedOp([(0, lambda g: g)])


def test_s_zero_collapses_to_first_term():
    fam = family("exp1", 14)
    seq = p_seq(fam, 3)
    for h in range(4):
        res = ratio_resolvent(fam, 0, h, 5, "nested")
        direct = AsymptoticSeries.from_poly_ratio(seq[h], seq[0], 5)
        assert AsymptoticSeries.equal_to_depth(res, direct, 5)


@pytest.mark.parametrize("name", ["id", "exp1", "geom", "nu"])
@pytest.mark.parametrize("form", ["nested", "split"])
def test_ratio_resolvent_matches_direct_division(name, form):
    fam = family(name, 16)
    seq = p_seq(fam, 7)
    for s in range(4):
        for h in range(4):
            res = ratio_resolvent(fam, s, h, 5, form)
            direct = AsymptoticSeries.from_poly_ratio(seq[s + h], seq[s], 5)
            assert AsymptoticSeries.equal_to_depth(res, direct, 5), (s, h)


def test_conjugated_target_eigenvalue_reading():
    # exp(-a w) D exp(a w) is multiplication by omega(x)
    fam = family("exp1", 12)
    t = target_conjugated(fam, [(0, PowerSeries.identity("x", 8))], 8)
    assert t.parts[0].prefix_equal(fam.omega.truncate(8))


def test_graded_resolvent_at_x0():
    fam = family("exp1", 14)
    op = op_ratio_split(fam, Q(2))
    target = target_powers_image_shifted(fam, 1, 4, 8)
    out = geometric_sum(op, target, 4).at_x0(4)
    seq = p_seq(fam, 3)
    direct = AsymptoticSeries.from_poly_ratio(seq[3], seq[2], 4)
    assert AsymptoticSeries.equal_to_depth(out, direct, 4)

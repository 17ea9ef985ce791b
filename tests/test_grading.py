"""Graded geometric inversion against the direct polynomial ratios."""

from fractions import Fraction as Q

import pytest

from oracles import (
    naive_geometric_sum,
    naive_op_ratio_nested,
    naive_op_ratio_split,
    naive_op_sheffer,
    naive_op_shifted_eval,
)
from umbralog import grading
from umbralog.asymptotic import AsymptoticSeries
from umbralog.grading import (
    GradedOp,
    GradedSeries,
    geometric_sum,
    op_ratio_nested,
    op_ratio_split,
    op_sheffer,
    op_shifted_eval,
    ratio_resolvent,
    target_conjugated,
    target_powers_image_shifted,
)
from umbralog.parampoly import S, ParamPoly
from umbralog.presets import build_f, family
from umbralog.series import OrderError, PowerSeries, SeriesError
from umbralog.sheffer import bernoulli_weight
from umbralog.umbral import build_family, p_seq

SPECS = [
    "id", "exp1", "geom", "nu",
    "poly:1,1/2,-1/3,1/5,1/6", "poly:1,-1/2,1/3,-1/5,-1/6",
]
SCALARS = [0, 1, 2, 3, Q(1, 2), Q(-1, 2)]
BUILDERS = ["nested", "split", "shifted", "sheffer"]


def typed(gs: GradedSeries) -> tuple:
    """gs with every part's variable, order, zero and coefficient types."""
    return gs.base, {
        n: (p.var, (type(p.czero), p.czero), tuple((type(c), c) for c in p.coeffs))
        for n, p in gs.parts.items()
    }


def both_operators(builder: str, fam, s, depth: int, x_order: int) -> tuple:
    """The builder's step-word operator and the closure pieces it replaced."""
    if builder == "nested":
        return op_ratio_nested(fam, s, depth), naive_op_ratio_nested(fam, s, depth)
    if builder == "split":
        return op_ratio_split(fam, s), naive_op_ratio_split(fam, s)
    if builder == "shifted":
        return op_shifted_eval(fam, s, depth), naive_op_shifted_eval(fam, s, depth)
    ellw = bernoulli_weight(x_order).compose(fam.omega.truncate(x_order))
    return op_sheffer(fam, ellw, s), naive_op_sheffer(fam, ellw, s)


def targets(fam, depth: int, x_order: int) -> list:
    """A powers image, a conjugated operator, and parts of unequal orders."""
    T = [(0, PowerSeries.identity("x", x_order)),
         (1, PowerSeries("x", [Q(1, 3), Q(-2), Q(0), Q(5, 7)] + [Q(0)] * (x_order - 3)))]
    fw = fam.fprime_at_omega(x_order)
    ragged = GradedSeries(2, {n: fw.truncate(x_order - n).scale(Q(n - 1, 3))
                              for n in range(depth + 1)})
    return [target_powers_image_shifted(fam, 2, depth, x_order),
            target_conjugated(fam, T, x_order), ragged]


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


class TestLiftedInversion:
    """``geometric_sum`` runs step words on one integer lift; the closure
    pieces and the ``PowerSeries`` loop it replaced are the oracle."""

    @pytest.mark.parametrize("builder", BUILDERS)
    @pytest.mark.parametrize("spec", SPECS)
    def test_equals_the_series_loop(self, spec, builder):
        fam = build_family(build_f(spec, 12))
        for depth in range(2, 7):
            x_order = depth + 2
            for target in targets(fam, depth, x_order):
                for s in SCALARS:
                    op, pieces = both_operators(builder, fam, Q(s), depth, x_order)
                    got = geometric_sum(op, target, depth)
                    want = naive_geometric_sum(pieces, target, depth)
                    assert typed(got) == typed(want), (depth, s)

    def test_a_grade_that_cancels_is_dropped(self):
        # grade 2 of the target cancels the image of grade 1, so the sum
        # drops it and grade 2 takes the order of X^2 t_0 alone
        fam = build_family(build_f("geom", 12))
        op, pieces = both_operators("split", fam, Q(2), 4, 8)
        t1 = fam.omega.truncate(3)
        target = GradedSeries(0, {0: fam.fprime_at_omega(8), 1: t1,
                                  2: -fam.x_op(t1, Q(2))})
        got = geometric_sum(op, target, 4)
        assert typed(got) == typed(naive_geometric_sum(pieces, target, 4))
        assert got.parts[2].order == 6

    def test_a_zero_image_truncates_nothing(self):
        # X maps the constant at grade 1 to zero (of order 2), which must not
        # cut grade 2 of the target down to its order
        fam = build_family(build_f("nu", 12))
        op, pieces = both_operators("split", fam, Q(3), 4, 8)
        target = GradedSeries(0, {0: fam.fprime_at_omega(8),
                                  1: PowerSeries("x", [Q(5)] * 1 + [Q(0)] * 3),
                                  2: fam.omega.truncate(8)})
        got = geometric_sum(op, target, 4)
        assert typed(got) == typed(naive_geometric_sum(pieces, target, 4))
        assert got.parts[2].order == 6

    def test_at_s_over_alpha_order_error_text_is_unchanged(self):
        fam = build_family(build_f("nu", 12))
        target = target_conjugated(fam, [(0, PowerSeries.identity("x", 5))], 5)
        op, pieces = both_operators("shifted", fam, Q(2), 3, 5)
        got = geometric_sum(op, target, 3)
        want = naive_geometric_sum(pieces, target, 3)
        with pytest.raises(OrderError) as got_error:
            got.at_s_over_alpha(6)
        with pytest.raises(OrderError) as want_error:
            want.at_s_over_alpha(6)
        assert str(got_error.value) == str(want_error.value)
        assert "only valid to x-order" in str(got_error.value)

    def test_rejects_a_parampoly_target_and_changes_nothing(self):
        fam = build_family(build_f("exp1", 12))
        op = op_ratio_split(fam, Q(1))
        part = PowerSeries("x", [ParamPoly.const(1), S, ParamPoly(), S * S])
        target = GradedSeries(0, {0: part})
        tables = dict(fam._tables)
        with pytest.raises(SeriesError, match="Fraction.*ParamPoly"):
            geometric_sum(op, target, 2)
        assert fam._tables == tables
        assert dict(target.parts) == {0: part}

    def test_rejects_a_symbolic_scalar(self):
        fam = family("exp1", 12)
        with pytest.raises(SeriesError, match="rational.*ParamPoly"):
            op_ratio_split(fam, S)


def perturbed(gs: GradedSeries) -> GradedSeries:
    """gs with coefficient 1 of its grade-0 part raised by 1/7: only the
    inversion carries it to x = 0, through L or d/domega."""
    parts = dict(gs.parts)
    c = list(parts[0].coeffs)
    c[1] += Q(1, 7)
    parts[0] = PowerSeries(parts[0].var, c)
    return GradedSeries(gs.base, parts)


# a change in the x^k coefficient does not reach x = 0 for 1 <= s <= k (seen
# for k <= 3), and the nested operator vanishes at s = 0, so those s are left out
@pytest.mark.parametrize("form,name,scalars", [
    ("split", "target_powers_image_shifted", (0, 2, 3)),
    ("nested", "target_powers_image", (2, 3)),
])
def test_a_perturbed_target_fails_the_ratio_check(monkeypatch, form, name, scalars):
    fam = build_family(build_f("geom", 16))
    seq = p_seq(fam, 7)
    original = getattr(grading, name)
    monkeypatch.setattr(grading, name, lambda *args: perturbed(original(*args)))
    for s in scalars:
        for h in range(4):
            res = ratio_resolvent(fam, s, h, 5, form)
            direct = AsymptoticSeries.from_poly_ratio(seq[s + h], seq[s], 5)
            assert not AsymptoticSeries.equal_to_depth(res, direct, 5), (s, h)

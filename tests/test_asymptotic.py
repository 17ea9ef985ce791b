"""Graded alpha-expansions: arithmetic, logs, and ln(alpha) as the symbol L."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ln_split, naive_asym_div, naive_asym_log, naive_asym_mul
from umbralog.asymptotic import AsymptoticSeries
from umbralog.parampoly import L, ParamPoly
from umbralog.polys import Poly
from umbralog.series import OrderError, SeriesError

S = ParamPoly.symbol("s")
H = ParamPoly.symbol("H")


def test_self_division_is_one():
    p = AsymptoticSeries(S, [Q(1), S * 2, S * S - 1, Q(5)])
    r = p / p
    assert r.exponent == ParamPoly()
    assert r.coefficient(0) == ParamPoly.const(1)
    assert all(r.coefficient(k).is_zero() for k in range(1, 4))


def test_log_of_shifted_unit():
    c1 = ParamPoly.const(Q(3, 2))
    p = AsymptoticSeries(S, [Q(1), c1, Q(0), Q(0)])
    lg = p.log()
    assert lg.coeffs[0] == S * L  # s * ln(alpha)
    assert lg.coefficient(1) == c1
    assert lg.coefficient(2) == c1 * c1 * Q(-1, 2)
    assert lg.coefficient(3) == c1 * c1 * c1 * Q(1, 3)


def test_poly_ratio_expansion():
    num = Poly([Q(0), Q(2), Q(-3), Q(1)])  # a(a-1)(a-2)
    den = Poly([Q(0), Q(-1), Q(1)])        # a(a-1)
    r = AsymptoticSeries.from_poly_ratio(num, den, 4)
    assert r.exponent == ParamPoly.const(1)
    assert [r.coefficient(k).constant_value() for k in range(3)] == [1, -2, 0]


def test_division_requires_unit_leading():
    p = AsymptoticSeries(ParamPoly(), [Q(2), Q(1)])
    with pytest.raises(SeriesError):
        p / p
    with pytest.raises(SeriesError):
        p.log()


def test_depth_read_guard():
    p = AsymptoticSeries(ParamPoly(), [Q(1), Q(1)])
    with pytest.raises(OrderError):
        p.coefficient(2)
    with pytest.raises(OrderError):
        p.truncate(2)
    with pytest.raises(OrderError):
        (p * AsymptoticSeries(S, [Q(1), S, S])).coefficient(2)


def test_log_terms_do_not_read_as_plain_coefficients():
    p = AsymptoticSeries(S, [Q(1), Q(0), Q(0)]).log()
    with pytest.raises(SeriesError, match="ln"):
        p.coefficient(0)
    assert p.coefficient(1).is_zero()
    q = AsymptoticSeries(ParamPoly.const(1), [Q(1), L])
    with pytest.raises(SeriesError, match="ln"):
        q.specialize_to_poly()


def test_specialize_to_poly():
    coeffs = [ParamPoly.const(1), S - 1, (S - 1) * (S - 2) / Q(2)]
    p = AsymptoticSeries(S, coeffs)
    assert p.specialize_to_poly(s=2) == Poly([Q(0), Q(1), Q(1)])


def test_equal_to_depth_handles_exponent_offsets():
    a = AsymptoticSeries(ParamPoly.const(2), [Q(0), Q(1), Q(5)])
    b = AsymptoticSeries(ParamPoly.const(1), [Q(1), Q(5), Q(0)])
    assert AsymptoticSeries.equal_to_depth(a, b, 1)


def test_zero_window_equals_a_value_below_it():
    # the graded side of a check can vanish on its whole window
    # alpha^1..alpha^0 while the direct side starts at alpha^-1
    zero = AsymptoticSeries(ParamPoly.const(1), [Q(0), Q(0)])
    below = AsymptoticSeries(ParamPoly.const(-1), [Q(2), Q(6)])
    assert AsymptoticSeries.equal_to_depth(below, zero, 1)
    assert AsymptoticSeries.equal_to_depth(zero, below, 1)


def test_zero_window_differs_from_a_value_inside_it():
    zero = AsymptoticSeries(ParamPoly.const(1), [Q(0), Q(0)])
    inside = AsymptoticSeries(ParamPoly.const(0), [Q(3), Q(1)])
    assert not AsymptoticSeries.equal_to_depth(zero, inside, 1)
    assert not AsymptoticSeries.equal_to_depth(inside, zero, 1)


def test_symbolic_exponent_gap_compares_zeros_only():
    zero = AsymptoticSeries(S, [Q(0), Q(0)])
    also_zero = AsymptoticSeries(ParamPoly.const(0), [Q(0), Q(0)])
    other = AsymptoticSeries(ParamPoly.const(1), [Q(1), Q(0)])
    assert AsymptoticSeries.equal_to_depth(zero, also_zero, 1)
    assert not AsymptoticSeries.equal_to_depth(zero, other, 1)


def test_fractional_exponent_gap_compares_zeros_only():
    zero = AsymptoticSeries(ParamPoly.const(Q(1, 2)), [Q(0), Q(0)])
    also_zero = AsymptoticSeries(ParamPoly.const(0), [Q(0), Q(0)])
    half = AsymptoticSeries(ParamPoly.const(Q(1, 2)), [Q(1), Q(0)])
    one = AsymptoticSeries(ParamPoly.const(1), [Q(1), Q(0)])
    assert AsymptoticSeries.equal_to_depth(zero, also_zero, 1)
    assert not AsymptoticSeries.equal_to_depth(half, one, 1)
    assert not AsymptoticSeries.equal_to_depth(one, half, 1)


def test_align_to_shifts_by_a_nonnegative_integer():
    p = AsymptoticSeries(S, [Q(1), Q(2)])
    q = p.align_to(S + 2)
    assert q.exponent == S + 2
    assert list(q.coeffs) == [0, 0, 1, 2]


@pytest.mark.parametrize(
    "target", [S + 1, ParamPoly.const(Q(3, 2)), ParamPoly.const(0)],
    ids=["symbolic", "fractional", "below"],
)
def test_align_to_rejects(target):
    p = AsymptoticSeries(ParamPoly.const(1), [Q(1), Q(2)])
    with pytest.raises(SeriesError, match="cannot align"):
        p.align_to(target)


def test_specialize_to_poly_with_exponent_s_plus_h():
    p = AsymptoticSeries(S + H, [Q(1), S - H, Q(0), Q(0)])
    assert p.specialize_to_poly(s=2, H=1) == Poly([Q(0), Q(0), Q(1), Q(1)])
    with pytest.raises(ValueError):
        p.specialize_to_poly(s=2)


def test_div_and_log_methods():
    p = AsymptoticSeries(S, [Q(1), S])
    assert (p / p).coefficient(0) == ParamPoly.const(1)
    assert p.log().coefficient(1) == S


def test_coefficients_are_parampolys():
    p = AsymptoticSeries(S, [1, Q(1, 2), S])
    assert all(type(c) is ParamPoly for c in p.coeffs)
    assert all(type(c) is ParamPoly for c in p.log().coeffs)
    with pytest.raises(TypeError):
        AsymptoticSeries(S, [(ParamPoly.const(1),)])


# -- the PowerSeries route against the ln-tuple loops ---------------------------

small = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def coefficients(draw):
    """A ParamPoly in s, H and L; zero about a third of the time."""
    if draw(st.integers(min_value=0, max_value=2)) == 0:
        return ParamPoly()
    keys = st.tuples(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=2),
    )
    return ParamPoly(draw(st.dictionaries(keys, small, max_size=3)))


@st.composite
def expansions(draw, unit=False):
    depth = draw(st.integers(min_value=0, max_value=6))
    coeffs = draw(st.lists(coefficients(), min_size=depth + 1, max_size=depth + 1))
    if unit:
        coeffs[0] = ParamPoly.const(1)
    c, a, b = draw(small), draw(st.integers(-2, 2)), draw(st.integers(-1, 1))
    exponent = c + a * S + b * H
    return AsymptoticSeries(exponent, coeffs)


def split(a: AsymptoticSeries) -> list:
    return [ln_split(c) for c in a.coeffs]


def test_ln_split_reads_the_symbol_degree():
    assert ln_split(S + L * L * H) == (S, ParamPoly(), H)
    assert ln_split(ParamPoly()) == (ParamPoly(),)


@settings(max_examples=60, deadline=None)
@given(expansions(), expansions())
def test_mul_matches_tuple_oracle(a, b):
    got = a * b
    assert got.exponent == a.exponent + b.exponent
    assert split(got) == naive_asym_mul(split(a), split(b))


@settings(max_examples=60, deadline=None)
@given(expansions(), expansions(unit=True))
def test_div_matches_tuple_oracle(a, b):
    got = a / b
    assert got.exponent == a.exponent - b.exponent
    want = naive_asym_div(split(a), split(b))
    assert split(got) == want
    assert got.depth == len(want) - 1


@settings(max_examples=60, deadline=None)
@given(expansions(unit=True))
def test_log_matches_tuple_oracle(a):
    got = a.log()
    assert got.exponent == ParamPoly()
    assert got.depth == a.depth
    assert split(got) == naive_asym_log(split(a), a.exponent)

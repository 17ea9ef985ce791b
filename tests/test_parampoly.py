"""The integer kernel of ``ParamPoly`` against the term-by-term loops.

Products of polynomials with several terms and ``eval`` compute on integer
numerators over a common denominator, and ``tau_seq`` builds its symbolic
continuation with O(depth^2) products; all must return the very rationals of
the loops in ``oracles.py``, as ``Fraction`` objects, with no stored zeros.
"""

from fractions import Fraction as Q
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    cached_family,
    naive_parampoly_eval,
    naive_parampoly_mul,
    naive_tau_symbolic,
)
from umbralog.asymptotic import AsymptoticSeries, LinForm
from umbralog.parampoly import SYMBOLS, ParamPoly
from umbralog.polys import Poly
from umbralog.series import PowerSeries
from umbralog.sheffer import tau_seq

S = ParamPoly.symbol("s")
H = ParamPoly.symbol("H")


def assert_same_poly(got: ParamPoly, want: ParamPoly):
    assert got.terms == want.terms
    assert all(v != 0 and type(v) is Q for v in got.terms.values())


heights = st.sampled_from([1, 10, 10**3, 10**6])


@st.composite
def rationals(draw):
    h = draw(heights)
    if draw(st.booleans()):
        return Q(draw(st.integers(min_value=-h, max_value=h)))
    return draw(st.fractions(min_value=-h, max_value=h, max_denominator=h))


@st.composite
def param_polys(draw, max_terms=8):
    keys = st.tuples(*[st.integers(min_value=0, max_value=4)] * 3)
    terms = draw(st.dictionaries(keys, rationals(), max_size=max_terms))
    return ParamPoly(terms)


@st.composite
def operand_pairs(draw):
    """Plain pairs, pairs with a one-term operand, and (u+v, u-v), whose
    cross terms cancel."""
    kind = draw(st.sampled_from(["plain", "one-term", "cancelling"]))
    if kind == "plain":
        return draw(param_polys()), draw(param_polys())
    if kind == "one-term":
        a, b = draw(param_polys(max_terms=1)), draw(param_polys())
        return (a, b) if draw(st.booleans()) else (b, a)
    u, v = draw(param_polys()), draw(param_polys())
    return u + v, u - v


class TestKernelProperties:
    @given(operand_pairs())
    @settings(max_examples=100, deadline=None)
    def test_mul_matches_oracle(self, pair):
        a, b = pair
        assert_same_poly(a * b, naive_parampoly_mul(a, b))

    @given(param_polys(), param_polys())
    @settings(max_examples=50, deadline=None)
    def test_cancelling_product_is_difference_of_squares(self, u, v):
        got = (u + v) * (u - v)
        assert_same_poly(got, naive_parampoly_mul(u, u) - naive_parampoly_mul(v, v))

    @given(param_polys(), st.lists(rationals(), min_size=3, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_eval_matches_oracle(self, p, xs):
        values = dict(zip(SYMBOLS, xs))
        got = p.eval(**values)
        assert type(got) is Q
        assert got == naive_parampoly_eval(p, **values)


class TestKernelEdges:
    def test_product_with_zero_and_one(self):
        p = S * S - Q(1, 3) * H + Q(2)
        assert (p * ParamPoly()).terms == {}
        assert (ParamPoly() * p).terms == {}
        assert_same_poly(p * ParamPoly.const(1), p)
        assert_same_poly(ParamPoly.const(Q(-1, 2)) * p, p * Q(-1, 2))

    def test_full_cancellation_leaves_no_terms(self):
        assert ((S + 1) * (S - 1) - S * S + 1).terms == {}
        assert ((S + H) * (S - H)).terms == {(2, 0, 0): 1, (0, 2, 0): -1}

    def test_eval_of_zero_poly(self):
        got = ParamPoly().eval(s=Q(3))
        assert got == 0 and type(got) is Q

    def test_eval_needs_only_the_symbols_that_occur(self):
        p = S * S * Q(1, 2) + Q(3, 7)
        assert p.eval(s=Q(2, 3)) == Q(2, 9) + Q(3, 7)
        with pytest.raises(ValueError, match="no value given for s"):
            p.eval(H=Q(1))

    def test_eval_at_zero(self):
        p = S * S * H + S * 5 + Q(1, 6)
        assert p.eval(s=Q(0), H=Q(0)) == Q(1, 6)


class TestHash:
    def test_constant_hashes_as_its_rational(self):
        for x in (Q(0), Q(1), Q(-7, 3), Q(10**6, 999_983)):
            p = ParamPoly.const(x)
            assert p == x and hash(p) == hash(x)
        assert ParamPoly() == 0 and hash(ParamPoly()) == hash(0)
        assert ParamPoly.const(1) == 1 and hash(ParamPoly.const(1)) == hash(1)

    def test_dict_lookup_across_rationals(self):
        table = {Q(1, 2): "half", 0: "zero"}
        assert table[ParamPoly.const(Q(1, 2))] == "half"
        assert table[(S + Q(1, 2)) - S] == "half"
        assert table[S - S] == "zero"
        assert len({Q(3), ParamPoly.const(3), S * 0 + 3}) == 1

    def test_poly_and_linform_constants_hash_as_rationals(self):
        for x in (Q(0), Q(2), Q(-7, 3)):
            for c in (Poly.const(x), LinForm(x)):
                assert c == x and hash(c) == hash(x)
        assert Poly() == 0 and hash(Poly()) == hash(0)
        assert {Poly.const(2): 1}.get(Q(2)) == 1
        assert {LinForm(2): 1}.get(Q(2)) == 1
        assert hash(Poly([Q(1), Q(2)])) == hash(Poly([1, 2]))
        assert hash(LinForm.S + 1) == hash(LinForm(1, 1, 0))

    @given(param_polys(), param_polys())
    @settings(max_examples=50, deadline=None)
    def test_equal_polys_hash_equal(self, p, r):
        # (p + r) - r rebuilds p through other dicts
        q = (p + r) - r
        assert q == p and hash(q) == hash(p)


def bernoulli_ell(order):
    expm1 = PowerSeries("x", [Q(0)] + [Q(1, factorial(n)) for n in range(1, order + 2)])
    return expm1.div_var(1).inv()


@pytest.mark.parametrize(
    "spec,order,N",
    [("exp1", 16, 12), ("id", 16, 12), ("geom", 16, 12), ("exp1", 40, 33)],
)
def test_tau_symbolic_matches_oracle(spec, order, N):
    fam = cached_family(spec, order)
    ell = bernoulli_ell(order)
    got = tau_seq(fam, ell, N).tau_symbolic
    want = AsymptoticSeries(LinForm.S, naive_tau_symbolic(fam, ell, N))
    assert got.exponent == want.exponent
    assert len(got.coeffs) == N + 1
    for g, w in zip(got.coeffs, want.coeffs):
        assert len(g) == len(w) == 1
        assert_same_poly(g[0], w[0])


def test_tau_symbolic_with_sparse_ell():
    fam = cached_family("geom", 16)
    ell = PowerSeries("x", [Q(1), Q(0), Q(-2, 3), Q(0), Q(0), Q(10**6, 7)] + [Q(0)] * 11)
    got = tau_seq(fam, ell, 12).tau_symbolic
    want = naive_tau_symbolic(fam, ell, 12)
    for g, w in zip(got.coeffs, want):
        assert_same_poly(g[0], w)

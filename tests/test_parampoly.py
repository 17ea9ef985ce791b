"""The integer kernel of ``ParamPoly`` against the term-by-term loops.

A ``ParamPoly`` holds integer numerators over one reduced denominator, and
every operation computes on them; ``tau_seq`` builds its symbolic
continuation with O(depth^2) products.  All must return the very rationals
of the loops in ``oracles.py``, shown by ``terms`` as ``Fraction`` objects,
in canonical form: a positive denominator, gcd 1, no zero numerator.
"""

from fractions import Fraction as Q
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    naive_parampoly_eval,
    naive_parampoly_mul,
    naive_tau_symbolic,
    naive_terms_add,
    naive_terms_derive,
    naive_terms_div_symbol,
    naive_terms_scale,
)
from umbralog.asymptotic import AsymptoticSeries
from umbralog.parampoly import SYMBOLS, ParamPoly, lifted_values
from umbralog.polys import Poly
from umbralog.presets import family
from umbralog.series import PowerSeries
from umbralog.sheffer import tau_seq

S = ParamPoly.symbol("s")
H = ParamPoly.symbol("H")


def assert_canonical(p: ParamPoly):
    assert type(p.den) is int and p.den > 0
    assert gcd(p.den, *p.num.values()) == 1
    assert all(type(v) is int and v for v in p.num.values())
    assert all(type(v) is Q for v in p.terms.values())


def assert_terms(got: ParamPoly, want: dict):
    assert_canonical(got)
    assert got.terms == want


def assert_same_poly(got: ParamPoly, want: ParamPoly):
    assert_terms(got, want.terms)


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

    @given(operand_pairs(), rationals())
    @settings(max_examples=100, deadline=None)
    def test_sum_and_difference_match_oracle(self, pair, c):
        a, b = pair
        assert_terms(a + b, naive_terms_add(a, b))
        assert_terms(a - b, naive_terms_add(a, -b))
        assert_terms(-a, naive_terms_scale(a, Q(-1)))
        const = ParamPoly.const(c)
        assert_terms(a + c, naive_terms_add(a, const))
        assert_terms(c + a, naive_terms_add(a, const))
        assert_terms(a + int(c), naive_terms_add(a, ParamPoly.const(int(c))))
        assert_terms(a - c, naive_terms_add(a, -const))
        assert_terms(c - a, naive_terms_add(const, -a))

    @given(param_polys(), rationals())
    @settings(max_examples=100, deadline=None)
    def test_scalar_product_and_quotient_match_oracle(self, a, c):
        for x in (c, int(c), c.numerator, Q(1, c.denominator), 0, -1):
            assert_terms(a * x, naive_terms_scale(a, Q(x)))
            assert_terms(x * a, naive_terms_scale(a, Q(x)))
            if x:
                assert_terms(a / x, naive_terms_scale(a, 1 / Q(x)))
        with pytest.raises(ZeroDivisionError):
            a / 0

    @given(param_polys(max_terms=4), st.integers(min_value=0, max_value=3))
    @settings(max_examples=50, deadline=None)
    def test_power_matches_repeated_oracle_product(self, a, n):
        want = ParamPoly.const(1)
        for _ in range(n):
            want = naive_parampoly_mul(want, a)
        assert_same_poly(a**n, want)

    @given(param_polys(), st.sampled_from(SYMBOLS))
    @settings(max_examples=100, deadline=None)
    def test_derive_matches_oracle(self, a, name):
        assert_terms(a.derive(name), naive_terms_derive(a, name))

    @given(param_polys(), st.sampled_from(SYMBOLS))
    @settings(max_examples=100, deadline=None)
    def test_div_exact_symbol_matches_oracle(self, a, name):
        x = ParamPoly.symbol(name)
        assert_terms((a * x).div_exact_symbol(name), a.terms)
        try:
            want = naive_terms_div_symbol(a, name)
        except ValueError:
            with pytest.raises(ValueError, match="is not divisible by"):
                a.div_exact_symbol(name)
        else:
            assert_terms(a.div_exact_symbol(name), want)

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

    @given(
        param_polys(max_terms=3),
        st.lists(st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=1, max_size=9),
                 min_size=1, max_size=4),
        st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=100, deadline=None)
    def test_lifted_values_match_horner(self, e, polys, den):
        """One-term exponents (the powers built from the multi-degree) and
        others, against Horner's rule in ``ParamPoly`` arithmetic."""
        out, out_den = lifted_values(polys, den, e)
        assert len(out) == len(polys)
        for got, poly in zip(out, polys):
            want = ParamPoly()
            for c in reversed(poly):
                want = want * e + c
            assert got.den == 1
            assert_same_poly(ParamPoly._make(got.num, out_den), want / den)


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

    def test_float_coefficient_is_rejected(self):
        with pytest.raises(TypeError, match="expected a rational, got float"):
            ParamPoly({(0, 0, 0): 0.5})

    def test_constructor_reduces_to_one_denominator(self):
        p = ParamPoly({(1, 0, 0): Q(1, 6), (0, 1, 0): Q(-2, 3), (0, 0, 0): 0})
        assert (p.num, p.den) == ({(1, 0, 0): 1, (0, 1, 0): -4}, 6)
        q = ParamPoly({(1, 0, 0): Q(2, 4), (0, 0, 0): 3})
        assert (q.num, q.den) == ({(1, 0, 0): 1, (0, 0, 0): 6}, 2)
        assert (ParamPoly().num, ParamPoly().den) == ({}, 1)
        assert ((S - S).num, (S - S).den) == ({}, 1)


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

    def test_poly_constants_hash_as_rationals(self):
        for x in (Q(0), Q(2), Q(-7, 3)):
            c = Poly.const(x)
            assert c == x and hash(c) == hash(x)
        assert Poly() == 0 and hash(Poly()) == hash(0)
        assert {Poly.const(2): 1}.get(Q(2)) == 1
        assert hash(Poly([Q(1), Q(2)])) == hash(Poly([1, 2]))

    @given(param_polys(), param_polys(), rationals())
    @settings(max_examples=50, deadline=None)
    def test_equal_polys_hash_equal(self, p, r, c):
        # each route rebuilds p through other dicts and denominators
        routes = [(p + r) - r, -(-p), ParamPoly(p.terms), p * 1, p + 0]
        if c:
            routes += [(p * c) / c, (p / c) * c]
        for q in routes:
            assert_canonical(q)
            assert q == p and hash(q) == hash(p)

    @given(rationals(), param_polys())
    @settings(max_examples=50, deadline=None)
    def test_constant_hashes_as_its_fraction_by_any_route(self, x, r):
        routes = [
            ParamPoly.const(x),
            ParamPoly({(0, 0, 0): x}),
            (r + x) - r,
            (S + x) - S,
            S * 0 + x,
            (S * x).div_exact_symbol("s"),
            (S * S * x / 2).derive("s").div_exact_symbol("s"),
        ]
        for p in routes:
            assert_canonical(p)
            assert p == x and hash(p) == hash(x)


def bernoulli_ell(order):
    expm1 = PowerSeries("x", [Q(0)] + [Q(1, factorial(n)) for n in range(1, order + 2)])
    return expm1.div_var(1).inv()


@pytest.mark.parametrize(
    "spec,order,N",
    [("exp1", 16, 12), ("id", 16, 12), ("geom", 16, 12), ("exp1", 40, 33)],
)
def test_tau_symbolic_matches_oracle(spec, order, N):
    fam = family(spec, order)
    ell = bernoulli_ell(order)
    got = tau_seq(fam, ell, N).tau_symbolic
    want = AsymptoticSeries(S, naive_tau_symbolic(fam, ell, N))
    assert got.exponent == want.exponent
    assert len(got.coeffs) == N + 1
    for g, w in zip(got.coeffs, want.coeffs):
        assert_same_poly(g, w)


def test_tau_symbolic_with_sparse_ell():
    fam = family("geom", 16)
    ell = PowerSeries("x", [Q(1), Q(0), Q(-2, 3), Q(0), Q(0), Q(10**6, 7)] + [Q(0)] * 11)
    got = tau_seq(fam, ell, 12).tau_symbolic
    want = naive_tau_symbolic(fam, ell, 12)
    for g, w in zip(got.coeffs, want):
        assert_same_poly(g, w)

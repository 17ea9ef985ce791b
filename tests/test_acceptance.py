"""Acceptance suite: one test per criterion, each printing a PASS line.

Two sub-checks are provably unattainable as originally worded and are kept
as strict xfails with the corrected statement asserted alongside:

* criterion 3's numeric band assumed a nonzero 1/s^2 correction, but for
  f = e^x - 1 that term vanishes identically (the alpha/omega' series is a
  quadratic polynomial), so the truncation error decays like 1/n^3 and the
  doubling ratio is ~8, not ~4;
* criterion 7 asked for plain substitution invariance of the s^0 term, but
  g_2 = (1/2) ln omega' picks up exactly -ln(1+A*alpha) (half the
  log-Jacobian of the alpha substitution); invariance starts at the 1/(24s)
  term.  The exact anomaly law is asserted instead, in both directions.
"""

import time
from decimal import Decimal, localcontext
from fractions import Fraction as Q
from math import factorial

import pytest

from oracles import stirling_term_closed_form
from umbralog.asymptotic import AsymptoticSeries
from umbralog.conjugation import (
    binomial_recurrence_check,
    conjugated_expectation,
    conjugated_step,
    resolvent_closed_form,
)
from umbralog.grading import ratio_resolvent
from umbralog.ncwords import D, SIGMA, NCPoly, head_word_poly, head_word_poly_matrix
from umbralog.operators import (
    build_Tn,
    divided_difference_shift_check,
    tn_via_integral,
)
from umbralog.parampoly import ParamPoly
from umbralog.presets import f_random, family
from umbralog.series import PowerSeries
from umbralog.sheffer import (
    bernoulli_log_experiment,
    sheffer_resolvent_check,
    tau_seq,
    theta_check,
)
from umbralog.stirling import (
    limit_check,
    ln_decimal,
    mobius_series,
    ratio_two_orders,
    stirling_terms,
    to_decimal,
    transformed_family,
    verify_log_identity,
)
from umbralog.umbral import build_family, p_seq, ratio_P_symbolic


def announce(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_t_operator_ground_truth():
    t0 = time.time()
    fam = family("exp1", 14)
    T0 = build_Tn(fam, 0)
    g = PowerSeries("s", [Q(1), Q(2), Q(3)] + [Q(0)] * 6)
    assert T0.apply(g).prefix_equal(g)

    T1 = build_Tn(fam, 1)
    assert set(T1.terms) == {2}
    assert T1.terms[2].prefix_equal(fam.sigma("s").scale(Q(1, 2)))

    assert head_word_poly(2) == NCPoly(
        {
            (SIGMA, D, D, SIGMA, D, D): Q(1, 4),
            (SIGMA, D, SIGMA, D, D, D): Q(-1, 6),
            (SIGMA, SIGMA, D, D, D, D): Q(1, 24),
        }
    )
    for n in range(6):
        assert head_word_poly(n) == head_word_poly_matrix(n)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    announce(1, f"operator ground truth and route agreement (n<=5) in {elapsed:.2f}s")


def test_criterion_2_master_log_identity_depth_8():
    t0 = time.time()
    fams = [
        family("id", 15),
        family("exp1", 15),
        family("geom", 15),
        build_family(f_random(6, 20260810 + 2, 15)),
    ]
    for fam in fams:
        ok, det = verify_log_identity(fam, "log", 8)
        assert ok, det["diffs"]
    elapsed = time.time() - t0
    assert elapsed < 30.0
    announce(2, f"operator-log identity exact to depth 8 on 4 families in {elapsed:.1f}s")


def _stirling_error_ratio():
    """|ln p_n(2n) - truncation through the 1/(24s) term| at n = 20 and 40."""
    fam = family("exp1", 50)
    st = stirling_terms(fam, 3)
    alpha = Q(1, 2)
    i_val = st.integral_term.eval_truncated(alpha)
    from umbralog.umbral import rename

    wp_val = rename(fam.omega.derive(), "a").eval_truncated(alpha)
    g3_val = st.g[3].eval_truncated(alpha)
    seq = p_seq(fam, 41)
    with localcontext() as ctx:
        ctx.prec = 80
        errs = {}
        for n in (20, 40):
            exact = ln_decimal(seq[n].eval(Q(2 * n)))
            approx = (
                n * ln_decimal(Q(2 * n))
                - to_decimal(Q(2 * n) * i_val)
                + ln_decimal(wp_val) / 2
                + to_decimal(g3_val) / n
            )
            errs[n] = abs(exact - approx)
        return float(errs[20] / errs[40])


def test_criterion_3_classical_stirling_degeneration():
    fam = family("exp1", 16)
    st = stirling_terms(fam, 4)
    # g_2 = -(1/2) ln(1 - a)
    one_minus = PowerSeries("a", [Q(1), Q(-1)] + [Q(0)] * (st.g[2].order - 1))
    assert st.g[2].prefix_equal(one_minus.log().scale(Q(-1, 2)))
    # the 1/(24s) bracket collapses to -a^2/(12(1-a))
    geo = PowerSeries("a", [Q(0), Q(0)] + [Q(-1, 12)] * (st.g[3].order - 1))
    assert st.g[3].prefix_equal(geo)
    # the 1/s^2 term vanishes identically for this family, which is why the
    # truncation error after the 1/(24s) term decays one order faster than
    # a generic family's would
    assert st.g[4].is_zero()
    ratio = _stirling_error_ratio()
    assert 6.4 <= ratio <= 9.6
    announce(3, f"exact brackets; error ratio 20->40 = {ratio:.3f}, "
                "consistent with the vanishing 1/s^2 term (next term 1/s^3)")


@pytest.mark.parametrize("name", ["exp1", "id"])
def test_criterion_3_closed_form_at_depth_16(name):
    # depth 16 has 3^14 head words in T_15: reachable only without words
    st = stirling_terms(family(name, 40), 16)
    for k in range(3, 17):
        g = st.g[k]
        assert g.order >= 40 - k - 1, k
        assert g.prefix_equal(stirling_term_closed_form(name, k, g.order)), k
    announce(3, f"{name}: g_3..g_16 equal the Bernoulli closed form exactly")


@pytest.mark.xfail(
    strict=True,
    reason="stated band [3.2, 4.8] presumes a nonzero 1/s^2 correction; for "
    "f = e^x - 1 that term is identically zero (machine-verified), so the "
    "doubling ratio is ~8",
)
def test_criterion_3_literal_error_band():
    ratio = _stirling_error_ratio()
    assert 3.2 <= ratio <= 4.8


def test_criterion_4_tree_family_expansion():
    fam = family("nu", 12)
    st = stirling_terms(fam, 2)
    n_ord = 6
    s1_expected = [Q(0)] + [
        -Q((n + 1) ** (n - 1), n * factorial(n)) for n in range(1, n_ord + 1)
    ]
    g2_expected = [Q(0)] + [
        Q(sum(Q(n**k, factorial(k)) for k in range(n + 1)), 2 * n)
        for n in range(1, n_ord + 1)
    ]
    for n in range(n_ord + 1):
        assert st.s1_regular.coefficient(n) == s1_expected[n]
        assert st.g[2].coefficient(n) == g2_expected[n]
    announce(4, "tree-family s^1 and s^0 series match the closed sums to order 6")


def test_criterion_5_commutator_and_integral_forms():
    for n in range(5):
        for m in range(1, 7):
            ok, _ = divided_difference_shift_check(n, m)
            assert ok, (n, m)
    for name in ("id", "exp1", "geom"):
        fam = family(name, 14)
        for n in (1, 2):
            for m in range(7):
                g = PowerSeries("s", [Q(0)] * m + [Q(1)] + [Q(0)] * 6)
                a = tn_via_integral(fam, n, g)
                b = build_Tn(fam, n).apply(g)
                w = min(a.order, b.order)
                assert a.truncate(w).prefix_equal(b.truncate(w)), (name, n, m)
    announce(5, "shift-commutator law (n<=4, m<=6) and integral form (n in {1,2})")


def test_criterion_6_ratio_identities():
    for name in ("id", "exp1", "geom", "nu"):
        fam = family(name, 16)
        seq = p_seq(fam, 7)
        for s in range(4):
            for h in range(4):
                direct = AsymptoticSeries.from_poly_ratio(seq[s + h], seq[s], 5)
                for form in ("nested", "split"):
                    res = ratio_resolvent(fam, s, h, 5, form)
                    assert AsymptoticSeries.equal_to_depth(res, direct, 5), (
                        name, s, h, form,
                    )
        for n, p in enumerate(ratio_P_symbolic(fam, 6)):
            assert p.degree("s") <= n
    announce(6, "graded resolvents equal direct ratios on {0..3}^2, "
                "s-degree bound holds to n = 6")


def test_criterion_7_invariance():
    fam = family("exp1", 18)
    A = Q(1, 3)
    fam2 = transformed_family(fam, A)
    # omega-tilde check to order 12
    mob = mobius_series(A, "x", 12)
    assert fam2.omega.truncate(12).prefix_equal(
        fam.omega.truncate(12).compose(mob)
    )
    st1 = stirling_terms(fam, 4)
    st2 = stirling_terms(fam2, 4)
    beta = mobius_series(A, "a", 10)
    for k in (3, 4):
        sub = st1.g[k].truncate(10).compose(beta)
        assert st2.g[k].truncate(10).prefix_equal(sub), k
    # the two leading blocks are NOT plainly invariant; their exact anomaly
    # is +/- ln(1 + A alpha)
    one_plus = PowerSeries("a", [Q(1), A] + [Q(0)] * 9)
    log_jac = one_plus.log()
    d_s1 = st2.s1_regular.truncate(10) - st1.s1_regular.truncate(10).compose(beta)
    assert not d_s1.is_zero()
    assert d_s1.prefix_equal(log_jac)
    d_g2 = st2.g[2].truncate(10) - st1.g[2].truncate(10).compose(beta)
    assert not d_g2.is_zero()
    assert d_g2.prefix_equal(-log_jac)
    announce(7, "omega law to order 12; plain invariance for the 1/(24s) and "
                "1/(48s^2) terms to order 10; exact +/-ln(1+A*alpha) anomalies "
                "for the two leading blocks")


@pytest.mark.xfail(
    strict=True,
    reason="plain substitution invariance of g_2 is provably false: the s^0 "
    "term transforms with the anomaly -ln(1+A*alpha); invariance starts at "
    "the 1/(24s) term",
)
def test_criterion_7_literal_g2_invariance():
    fam = family("exp1", 18)
    A = Q(1, 3)
    st1 = stirling_terms(fam, 3)
    st2 = stirling_terms(transformed_family(fam, A), 3)
    beta = mobius_series(A, "a", 10)
    assert st2.g[2].truncate(10).prefix_equal(st1.g[2].truncate(10).compose(beta))


def test_criterion_8_conjugation_machinery():
    import random

    rng = random.Random(4)
    for name in ("id", "exp1", "geom"):
        fam = family(name, 20)
        col = [
            ParamPoly.const(Q(rng.randint(-9, 9), rng.randint(1, 9)))
            for _ in range(9)
        ]
        _, ok = conjugated_step(fam, col, depth=9)
        assert ok, name

    fam = family("exp1", 20)
    col0 = [
        ParamPoly.const(Q(rng.randint(-9, 9), rng.randint(1, 9)))
        for _ in range(10)
    ]
    ok, det = binomial_recurrence_check(fam, col0, 4, 4)
    assert ok, det

    for s_val in (Q(1, 2), Q(3, 2), Q(-1, 2)):
        ok, det = resolvent_closed_form(
            fam, PowerSeries.one("x", 16), s_val, 6, 6
        )
        assert ok, (s_val, det["diffs"])

    one = PowerSeries.one("x", 8)
    Dh = PowerSeries.identity("x", 8)
    D2 = PowerSeries("x", [0, 0, 1] + [0] * 5)
    for s in (2, 3):
        for T in ([(0, one)], [(0, Dh)], [(1, D2)]):
            ok, det = conjugated_expectation(fam, T, s, 5)
            assert ok, (s, det)
    announce(8, "column law dual pipelines (n<=8); recurrence (n,k<=4); "
                "closed resolvent at s in {1/2,3/2,-1/2}; expectations exact")


def test_criterion_9_limit_formulas():
    fam = family("exp1", 66)
    lr = limit_check(fam, "conclusion", Q(2), 64)
    errs = [Q(e) for _, e in lr.errors]
    tail = errs[1:]  # n = 8..64
    assert all(tail[i] > tail[i + 1] for i in range(len(tail) - 1))
    assert tail[-1] < Q(2, 100)

    lr = limit_check(fam, "first", Q(2), 64)
    target_val = Decimal(lr.target.split("= ")[1])
    assert Decimal(lr.errors[-1][1]) < abs(target_val) / 100

    for name in ("exp1", "geom"):
        ok, det = ratio_two_orders(family(name, 16), 6)
        assert ok, det
    announce(9, "log-derivative limit monotone with final error "
                f"{float(tail[-1]):.4f} < 0.02; first-limit ratio within 1%; "
                "two-order closed forms exact")


def test_criterion_10_sheffer_suite():
    from oracles import exp_by_partial_sums

    def bernoulli_ell(order):
        expm1 = PowerSeries(
            "x", [Q(0)] + [Q(1, factorial(n)) for n in range(1, order + 2)]
        )
        return expm1.div_var(1).inv()

    presets = [
        (family("exp1", 16), bernoulli_ell(16)),
        (family("id", 16), bernoulli_ell(16)),
        (
            family("geom", 16),
            PowerSeries("x", [Q(1), Q(1)] + [Q(0)] * 15),
        ),
    ]
    for fam, ell in presets:
        sf = tau_seq(fam, ell, 12)
        phi = fam.phi.truncate(12)
        weight = ell.truncate(12).compose(phi)
        # at a = 0..12: 13 values fix each tau_n, of degree n <= 12
        for a in range(13):
            gen = weight * exp_by_partial_sums(phi.scale(a))
            for n in range(13):
                assert sf[n].eval(a) == gen.coefficient(n) * factorial(n)
        ok, det = theta_check(sf, 8)
        assert ok, det

    fam = family("exp1", 16)
    sf = tau_seq(fam, bernoulli_ell(16), 10)
    one = PowerSeries.one("x", 10)
    Dh = PowerSeries.identity("x", 10)
    for s in (1, 2, 3):
        for T in ([(0, one)], [(0, Dh)], [(1, one)]):
            ok, det = sheffer_resolvent_check(sf, T, s, 5)
            assert ok, (s, det)

    rep = bernoulli_log_experiment(6)
    assert set(rep["candidates"]) == {"sheffer-exp1", "classical"}
    for cand in rep["candidates"].values():
        assert [row["k"] for row in cand["rows"]] == list(range(7))
        assert all("diff" in row and "match" in row for row in cand["rows"])
    announce(10, "generating function exact to order 12; eigenvalues to n=8; "
                 "resolvent exact to s=3; two-candidate log report complete "
                 f"(classical candidate exact through depth "
                 f"{rep['candidates']['classical']['exact_through_depth']})")

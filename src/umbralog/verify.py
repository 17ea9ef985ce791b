"""Verification suites: every identity the package claims, run end to end
against its in-package dual pipelines, organized for the command line."""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, factorial

from .asymptotic import AsymptoticSeries
from .conjugation import (
    binomial_recurrence_check,
    conjugated_expectation,
    conjugated_step,
    ell_s,
    resolvent_closed_form,
)
from .grading import ratio_resolvent
from .ncwords import (
    E,
    D,
    SIGMA,
    NCPoly,
    P0,
    head_word_poly,
    head_word_poly_matrix,
    nu_bar_step,
    nu_step,
    nu_power,
    split_canonical,
)
from .operators import (
    build_Tn,
    divided_difference_shift_check,
    tn_via_integral,
)
from .parampoly import S, ParamPoly
from .polys import Poly
from .presets import f_random, family
from .report import Report
from .series import PowerSeries
from .sheffer import (
    bernoulli_log_experiment,
    bernoulli_weight,
    sheffer_resolvent_check,
    tau_seq,
    theta_check,
    tn_ell_trend_check,
    build_Tn_ell,
)
from .stirling import (
    g3_closed_form,
    g4_closed_form,
    invariance_check,
    limit_check,
    ratio_two_orders,
    stirling_terms,
    tree_example_check,
    verify_log_identity,
)
from .umbral import (
    build_family,
    p_H_t,
    p_seq,
    p_symbolic,
    q_table,
    q_zero_table,
    ratio_P_direct,
    ratio_P_symbolic,
    tau_inverse,
)

RANDOM_SEED = 20260810
PRESETS3 = ("id", "exp1", "geom")


def _random_series(rng, var, order):
    coeffs = [Fraction(rng.randint(-10, 10), rng.randint(1, 10))
              for _ in range(order + 1)]
    return PowerSeries(var, coeffs)


def suite_series(order: int = 12, depth: int = 0) -> Report:
    order = max(order, 4)
    rep = Report("series")
    rng = random.Random(RANDOM_SEED)

    ok = True
    for _ in range(25):
        a = _random_series(rng, "x", order)
        b = _random_series(rng, "x", order)
        c = _random_series(rng, "x", order)
        ok = ok and ((a * b) * c).prefix_equal(a * (b * c))
        ok = ok and (a * (b + c)).prefix_equal(a * b + a * c)
    rep.record("ring axioms on random truncated series", ok, n=25, order=order)

    ok = True
    for _ in range(50):
        u = _random_series(rng, "x", order)
        coeffs = list(u.coeffs)
        coeffs[0] = Fraction(0)
        coeffs[1] = Fraction(1)
        u = PowerSeries("x", coeffs)
        v = u.revert()
        ident = PowerSeries.identity("x", order)
        ok = ok and u.compose(v).prefix_equal(ident) and v.compose(u).prefix_equal(ident)
    rep.record("reversion is a two-sided compositional inverse", ok, n=50)

    ok = True
    for _ in range(10):
        u = _random_series(rng, "x", 10)
        u = u - u.coefficient(0) + Fraction(1)
        powers = u.pow_param(S)
        for e in range(6):
            spec = powers.map_coeffs(
                lambda p: ParamPoly.coerce(p).eval(s=Fraction(e))
            )
            ok = ok and spec.prefix_equal(u.pow_int(e))
    rep.record("symbolic powers specialize to repeated multiplication", ok)

    ok = True
    for _ in range(10):
        u = _random_series(rng, "x", order)
        coeffs = list(u.coeffs)
        coeffs[0] = Fraction(0)
        u = PowerSeries("x", coeffs)
        ok = ok and u.integrate().derive().prefix_equal(u)
    rep.record("derivative of the integral is the identity", ok)

    return rep


def suite_umbral(order: int = 14, depth: int = 6) -> Report:
    order = max(order, 14)  # a floor: the fixed check grid needs this much
    rep = Report("umbral")
    rng = random.Random(RANDOM_SEED + 1)

    for name in PRESETS3 + ("nu",):
        fam = family(name, order)
        back = tau_inverse(fam.tau_f)
        rep.record(
            f"tau_inverse round trip ({name})",
            back.prefix_equal(fam.f.truncate(back.order)),
        )

    for name in PRESETS3:
        fam = family(name, order)
        seq = p_seq(fam, 12)
        # generating-function oracle over polynomial coefficients
        a_sym = Poly.x()
        phi = fam.phi.truncate(12)
        gen = phi.scale(a_sym).exp()
        ok = all(
            seq[n] == gen.coefficient(n) * factorial(n) for n in range(13)
        )
        rep.record(f"p_n match exp(a*phi) coefficients ({name})", ok, n=12)

        ok = True
        for n in range(13):
            # p_n(x + y) = sum_k C(n, k) p_k(x) p_{n-k}(y), in Q[x][y]
            rhs = Poly()
            for k in range(n + 1):
                rhs = rhs + Poly([seq[k] * c for c in seq[n - k].coeffs]) * comb(n, k)
            ok = ok and seq[n].taylor() == rhs
        rep.record(f"binomial-type convolution identity ({name})", ok, n=12)

        ps = p_symbolic(fam, 10)
        ok = all(ps.specialize_to_poly(s=n) == seq[n] for n in range(9))
        rep.record(f"symbolic continuation specializes to p_n ({name})", ok)

        qt = q_table(fam, 4, 4)
        q0 = q_zero_table(fam, 4)
        ok = all(
            ParamPoly.coerce(qt[n].coefficient(0)) == q0[n] for n in range(5)
        )
        rep.record(f"bivariate q at t=0 equals the direct q ({name})", ok)

        pht = p_H_t(fam, 5)
        ok = all(pht.specialize(h) == seq[h] for h in range(1, 6))
        rep.record(f"p_H^t specializes to p_H at integer H, t=0 ({name})", ok)

        sym = ratio_P_symbolic(fam, 5)
        ok_deg = all(p.degree("s") <= n for n, p in enumerate(sym))
        ok_modes = True
        for s in range(3):
            for h in range(3):
                direct = ratio_P_direct(fam, s, h, 5)
                vals = [
                    p.eval(s=Fraction(s), H=Fraction(h)) for p in sym
                ]
                ok_modes = ok_modes and vals == direct
        rep.record(f"ratio coefficients: symbolic/direct agreement ({name})",
                   ok_modes)
        rep.record(f"ratio coefficients: s-degree bound ({name})", ok_deg)

    return rep


def _expected_head_words():
    """The displayed word polynomials for the first two grades."""
    t1 = NCPoly({(SIGMA, D, D): Fraction(1, 2)})
    t2 = NCPoly(
        {
            (SIGMA, D, D, SIGMA, D, D): Fraction(1, 4),
            (SIGMA, D, SIGMA, D, D, D): Fraction(-1, 6),
            (SIGMA, SIGMA, D, D, D, D): Fraction(1, 24),
        }
    )
    return t1, t2


def suite_operators(order: int = 14, depth: int = 5) -> Report:
    order = max(order, 14)
    depth = max(depth, 2)
    rep = Report("operators")

    p1 = nu_step(P0)
    expected_p1 = NCPoly(
        {
            (SIGMA, D, D, E): Fraction(1, 2),
            (SIGMA, D, E, D): Fraction(-1),
            (SIGMA, E, D, D): Fraction(1, 2),
        }
    )
    rep.record("first rewrite image of E matches the display", p1 == expected_p1)

    t1, t2 = _expected_head_words()
    rep.record("grade-1 head word matches the display", head_word_poly(1) == t1)
    rep.record("grade-2 head word matches the display", head_word_poly(2) == t2)
    rep.record(
        "head words: rewrite route equals matrix route (n <= 5)",
        all(head_word_poly(n) == head_word_poly_matrix(n) for n in range(6)),
    )
    ok = True
    for n in range(1, 7):
        p = nu_power(n)
        for w in p.terms:
            split_canonical(w)  # raises if the one-E shape is broken
        ok = ok and all(w.count(E) == 1 for w in p.terms)
    rep.record("rewrite preserves the one-E canonical shape (n <= 6)", ok)

    red = nu_bar_step(P0).strip_lambda() == nu_step(P0)
    rep.record("lam-rewrite with lam = 1 reduces to the plain rewrite", red)

    ok = all(
        divided_difference_shift_check(n, m)[0]
        for n in range(5)
        for m in range(1, 7)
    )
    rep.record("divided-difference shift commutator (n <= 4, m <= 6)", ok)

    ok = True
    for name in PRESETS3:
        fam = family(name, order)
        for n in (1, 2):
            tn = build_Tn(fam, n)
            for m in range(7):
                g = PowerSeries(
                    "s", [Fraction(0)] * m + [Fraction(1)] + [Fraction(0)] * 6
                )
                direct = tn.apply(g)
                integral = tn_via_integral(fam, n, g)
                w = min(direct.order, integral.order)
                ok = ok and direct.truncate(w).prefix_equal(integral.truncate(w))
    rep.record("integral form agrees with the word operators (n in {1,2})", ok)

    ok = True
    for name in PRESETS3:
        fam = family(name, max(order, 2 * depth + 6))
        seq = p_seq(fam, 6 + 1)
        for s in range(4):
            for h in range(4):
                direct = AsymptoticSeries.from_poly_ratio(seq[s + h], seq[s], depth)
                for form in ("nested", "split"):
                    res = ratio_resolvent(fam, s, h, depth, form)
                    ok = ok and AsymptoticSeries.equal_to_depth(res, direct, depth)
    rep.record(
        "graded resolvent equals direct polynomial ratio "
        "((s,H) in {0..3}^2, both forms)",
        ok,
        depth=depth,
    )

    return rep


def suite_stirling(order: int = 14, depth: int = 8) -> Report:
    order = max(order, 13)
    rep = Report("stirling")

    fams = {name: family(name, max(order, depth + 6)) for name in PRESETS3}
    fams["random6"] = build_family(
        f_random(6, RANDOM_SEED + 2, max(order, depth + 6))
    )

    for name, fam in fams.items():
        for variant in ("log", "exp"):
            ok, det = verify_log_identity(fam, variant, depth)
            rep.record(
                f"operator-logarithm identity, {variant} route ({name})",
                ok,
                depth=depth,
                diffs=det["diffs"],
            )

    st = stirling_terms(fams["id"], 4)
    ok = st.integral_term.is_zero() and all(g.is_zero() for g in st.g.values())
    rep.record("f = x: expansion collapses to the leading term", ok)

    fam = fams["exp1"]
    st = stirling_terms(fam, 4)
    # g_3 for exp1 simplifies to -a^2/(12(1-a))
    n = st.g[3].order
    target = PowerSeries(
        "a", [Fraction(0), Fraction(0)] + [Fraction(-1, 12)] * (n - 1)
    )
    rep.record("exp1: the 1/(24s) bracket simplifies to -a^2/(12(1-a))",
               st.g[3].prefix_equal(target))
    for name, f in fams.items():
        stx = stirling_terms(f, 5)
        okg3 = stx.g[3].prefix_equal(
            g3_closed_form(f, min(stx.g[3].order, f.order - 5))
        )
        okg4 = stx.g[4].prefix_equal(
            g4_closed_form(f, min(stx.g[4].order, f.order - 7))
        )
        rep.record(f"displayed closed forms for the 1/s and 1/s^2 terms ({name})",
                   okg3 and okg4)

    inv = invariance_check(fam, Fraction(1, 3), 4)
    rep.record(
        "transformation law of every stirling term under f -> f e^{-Ax}",
        inv["ok"],
        terms=inv["terms"],
    )

    ok, det = tree_example_check(6)
    rep.record("tree-family series: s^1 and s^0 coefficient laws (order 6)",
               ok, **det)

    for name in ("exp1", "geom"):
        ok, det = ratio_two_orders(fams[name], 6)
        rep.record(f"two leading orders of the scaled-index ratio ({name})",
                   ok, **det)

    return rep


def suite_limits(order: int = 66, depth: int = 0, n_max: int = 64) -> Report:
    rep = Report("limits")
    fam = family("exp1", max(order, n_max + 2))

    lr = limit_check(fam, "conclusion", Fraction(2), n_max)
    rep.record(
        "log-derivative limit: monotone approach, final error < 0.02",
        lr.monotone and Fraction(lr.final_error) < Fraction(2, 100),
        exact=False,
        samples=lr.samples,
        errors=lr.errors,
        ratios=lr.ratios,
        extrapolated=lr.extrapolated,
        target=lr.target,
        target_floor=lr.target_floor,
    )
    lr = limit_check(fam, "first", Fraction(2), n_max)
    rep.record(
        "first limit: ratio within 1% of the closed form at n_max",
        abs(Fraction(lr.errors[-1][1])) < abs(Fraction(lr.target.split("= ")[1])) / 100,
        exact=False,
        errors=lr.errors,
        ratios=lr.ratios,
        extrapolated=lr.extrapolated,
        target=lr.target,
        target_floor=lr.target_floor,
    )
    lr = limit_check(fam, "second", Fraction(2), n_max)
    rep.record(
        "second limit: monotone approach to half the log-derivative",
        lr.monotone,
        exact=False,
        errors=lr.errors,
        ratios=lr.ratios,
        extrapolated=lr.extrapolated,
        target=lr.target,
        target_floor=lr.target_floor,
    )

    fam_id = family("id", 18)
    lr = limit_check(fam_id, "conclusion", Fraction(2), 16)
    ok = all(Fraction(e[1]) == 0 for e in lr.errors)
    rep.record("f = x: the log-derivative limit is exact at every n", ok,
               errors=lr.errors, ratios=lr.ratios, extrapolated=lr.extrapolated,
               target_floor=lr.target_floor)

    return rep


def suite_sheffer(order: int = 16, depth: int = 5) -> Report:
    order = max(order, 16)
    depth = max(depth, 2)
    rep = Report("sheffer")

    ell_b = bernoulli_weight(order)
    one_plus = PowerSeries("x", [Fraction(1), Fraction(1)] + [Fraction(0)] * (order - 1))
    presets = [
        ("exp1 with the Bernoulli weight", family("exp1", order), ell_b),
        ("id with the Bernoulli weight", family("id", order), ell_b),
        ("geom with weight 1+x", family("geom", order), one_plus),
    ]
    for label, fam, ell in presets:
        sf = tau_seq(fam, ell, 12)
        a_sym = Poly.x()
        phi = fam.phi.truncate(12)
        gen = ell.truncate(12).compose(phi) * phi.scale(a_sym).exp()
        ok = all(
            sf[n] == gen.coefficient(n) * factorial(n) for n in range(13)
        )
        rep.record(f"generating-function identity to order 12 ({label})", ok)
        ok, det = theta_check(sf, 8)
        rep.record(f"eigen-operator property through n = 8 ({label})", ok)

    fam = family("exp1", max(order, depth + 10))
    sf = tau_seq(fam, bernoulli_weight(fam.order), depth + 5)
    one = PowerSeries.one("x", depth + 4)
    Dh = PowerSeries.identity("x", depth + 4)
    ok = True
    for s in (1, 2, 3):
        for T, lbl in (([(0, one)], "1"), ([(0, Dh)], "D"), ([(1, one)], "alpha")):
            okx, det = sheffer_resolvent_check(sf, T, s, depth)
            ok = ok and okx
    rep.record("sheffer resolvent identity (s in {1,2,3}; T in {1, D, alpha})",
               ok, depth=depth)

    ell1 = PowerSeries.one("x", fam.order)
    sf1 = tau_seq(fam, ell1, 4)
    ok = all(
        build_Tn_ell(sf1, n, var="a") == build_Tn(fam, n, var="a")
        for n in range(4)
    )
    rep.record("lam-conjugated operators reduce to the plain ones at ell = 1", ok)

    fam_big = family("exp1", 40)
    sf_big = tau_seq(fam_big, bernoulli_weight(fam_big.order), 33)
    ok, det = tn_ell_trend_check(sf_big, Fraction(1, 3), (16, 32), 1)
    rep.record("lam-operator integer-index trend oracle (s = 16, 32)", ok,
               exact=False, **det)

    exp_rep = bernoulli_log_experiment(6)
    complete = all(
        len(c["rows"]) == 7 for c in exp_rep["candidates"].values()
    )
    rep.record(
        "bernoulli-logarithm experiment produces full diff report (depth 6)",
        complete,
        exact=False,
    )
    rep.info("bernoulli-logarithm experiment detail", **exp_rep)

    return rep


def suite_conjugation(order: int = 20, depth: int = 6) -> Report:
    depth = max(depth, 2)
    order = max(order, 18, depth + 6)
    rep = Report("conjugation")
    rng = random.Random(RANDOM_SEED + 3)

    for name in PRESETS3:
        fam = family(name, order)
        col = [
            ParamPoly.const(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            for _ in range(9)
        ]
        _, ok = conjugated_step(fam, col, depth=9)
        rep.record(f"conjugated step: law equals series pipeline, n <= 8 ({name})",
                   ok)

    fam = family("exp1", order)
    q = q_zero_table(fam, 8)
    law, _ = conjugated_step(fam, q[:8], depth=8)
    rep.record("conjugated step kills the eigen-direction column",
               all(c.is_zero() for c in law))

    col0 = [
        ParamPoly.const(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        for _ in range(10)
    ]
    ok, det = binomial_recurrence_check(fam, col0, 4, 4)
    rep.record("binomial recurrence identity (n, k <= 4)", ok)

    g_ord = max(16, depth)
    for gdesc, glabel in (
        (PowerSeries.one("x", g_ord), "1"),
        (PowerSeries.identity("x", g_ord), "x"),
    ):
        series, ok, det = ell_s(fam, gdesc, depth)
        rep.record(f"expectation series: table vs division pipeline (g = {glabel})",
                   ok, **det)

    for s_val in (Fraction(1, 2), Fraction(3, 2), Fraction(-1, 2)):
        ok, det = resolvent_closed_form(
            fam, PowerSeries.one("x", 16), s_val, 6, 6
        )
        rep.record(f"closed-form resolvent at s = {s_val}, depths (6,6)", ok,
                   diffs=det["diffs"])

    t_ord = depth + 4
    one = PowerSeries.one("x", t_ord)
    Dh = PowerSeries.identity("x", t_ord)
    D2 = PowerSeries("x", [0, 0, 1] + [0] * (t_ord - 2))
    ok = True
    for s in (2, 3):
        for T in ([(0, one)], [(0, Dh)], [(1, D2)]):
            okx, det = conjugated_expectation(fam, T, s, depth - 1)
            ok = ok and okx
    rep.record(
        "conjugated expectation: direct action vs both graded forms "
        "(T in {1, D, alpha D^2}, s in {2,3})",
        ok,
        depth=depth - 1,
    )

    return rep


SUITES = {
    "series": suite_series,
    "umbral": suite_umbral,
    "operators": suite_operators,
    "stirling": suite_stirling,
    "limits": suite_limits,
    "sheffer": suite_sheffer,
    "conjugation": suite_conjugation,
}


def run_suites(names, order: int | None = None, depth: int | None = None) -> list:
    out = []
    for name in names:
        fn = SUITES[name]
        kwargs = {}
        if order is not None:
            kwargs["order"] = order
        if depth is not None and name != "limits":
            kwargs["depth"] = depth
        out.append(fn(**kwargs))
    return out

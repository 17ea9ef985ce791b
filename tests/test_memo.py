"""Memoized families and per-family tables: shared results equal fresh ones."""

import random
import sys
import threading
import time
from dataclasses import fields
from fractions import Fraction as Q

import pytest

from oracles import lhs_log_by_series, rhs_exp_by_derive, rhs_log_by_x_op
from umbralog import presets
from umbralog.grading import GradedSeries, target_powers_image, target_powers_image_shifted
from umbralog.parampoly import H, ParamPoly
from umbralog.polys import Poly
from umbralog.presets import FAMILY_CACHE_SIZE, build_f, f_random, family
from umbralog.series import OrderError, PowerSeries, SeriesError
from umbralog.sheffer import ShefferFamily, bernoulli_weight, tau_seq
from umbralog.stirling import (
    StirlingExpansion,
    _exp_side,
    _integral_term,
    _lhs_side,
    _log_side,
    _stirling_head,
    _tn_omega,
    limit_check,
    stirling_terms,
    verify_log_identity,
)
from umbralog.umbral import (
    BinomialFamily,
    FamilyError,
    PSequence,
    _exact_key,
    build_family,
    p_seq,
    q_at_omega,
    q_zero_table,
    rename,
)

SPECS = ["id", "exp1", "geom", "nu", "poly:1,1/2,-1/3"]
ORDER = 12

# each memoized table with small arguments the order-12 families allow
CALLS = [
    (q_zero_table, (6,)),
    (q_zero_table, (4, Q(2))),
    (q_at_omega, (3, 4)),
    (q_at_omega, (3, 4, H + 1)),
    (target_powers_image, (2, 3, 5)),
    (target_powers_image_shifted, (2, 3, 5)),
    (tau_seq, (bernoulli_weight(ORDER), 5)),
    (_lhs_side, (4,)),
    (_log_side, (4,)),
    (_exp_side, (4,)),
    (_stirling_head, ()),
    (_integral_term, ()),
    (_tn_omega, (3,)),
    (p_seq, (9,)),
    (BinomialFamily.fprime_at_omega, (6,)),
]


def exact(x):
    """x as nested tuples that carry every type, so that == is exact."""
    if isinstance(x, (tuple, list)):
        return (type(x), tuple(exact(v) for v in x))
    if isinstance(x, PowerSeries):
        return (PowerSeries, x.var, exact(x.czero), exact(x.coeffs))
    if isinstance(x, Poly):
        return (Poly, exact(x.coeffs))
    if isinstance(x, PSequence):
        return (PSequence, exact(x.polys))
    if isinstance(x, GradedSeries):
        return (GradedSeries, x.base, tuple((n, exact(x.parts[n])) for n in sorted(x.parts)))
    if isinstance(x, StirlingExpansion):
        return (StirlingExpansion, exact(x.integral_term), exact(x.s1_regular),
                tuple((k, exact(x.g[k])) for k in sorted(x.g)))
    if isinstance(x, ShefferFamily):
        sym = x.tau_symbolic
        return (ShefferFamily, exact(x.ell), exact(x.tau_polys), sym.exponent, exact(sym.coeffs))
    return (type(x), x)


@pytest.fixture
def cleared():
    family.cache_clear()
    yield
    family.cache_clear()


class TestFamilyCache:
    def test_second_call_is_the_same_family(self, cleared):
        fam = family("exp1", ORDER)
        assert family("exp1", ORDER) is fam
        assert family("  exp1 ", ORDER) is fam
        assert family("exp1", ORDER + 1) is not fam

    def test_cache_clear_builds_anew(self, cleared):
        fam = family("geom", 6)
        family.cache_clear()
        again = family("geom", 6)
        assert again is not fam and again == fam

    def test_bounded_to_the_most_recent_families(self, cleared):
        first = family("id", 3)
        for order in range(4, 4 + FAMILY_CACHE_SIZE - 1):
            family("id", order)
        assert family("id", 3) is first
        family("id", 4 + FAMILY_CACHE_SIZE)  # evicts the least recent, order 4
        assert family("id", 3) is first
        assert family("id", 4) is not family("id", 4 + FAMILY_CACHE_SIZE)


@pytest.fixture
def builds(monkeypatch):
    """The order of each f ``presets.family`` builds a family of, in call order."""
    orders = []

    def counted(f):
        orders.append(f.order)
        return build_family(f)

    monkeypatch.setattr(presets, "build_family", counted)
    return orders


def parts(fam: BinomialFamily) -> tuple:
    """Every field of a family, each series as num, den, variable, order
    and element types."""
    return tuple(
        (u.num, u.den, u.var, u.order, tuple(map(type, u.num))) if isinstance(u, PowerSeries) else u
        for u in (getattr(fam, fd.name) for fd in fields(fam))
    )


def outcome(call):
    """The parts of the family ``call()`` returns, or the type and message
    of the exception it raises."""
    try:
        return parts(call())
    except Exception as exc:
        return type(exc), str(exc)


SERVED_SPECS = ["id", "exp1", "geom", "nu", "poly:1,1/2,-1/3,1/5,-1/6", "poly:1,-2,3/5,1/7"]


class TestServedByTruncation:
    @pytest.mark.parametrize("top", [8, 14, 20, 36])
    @pytest.mark.parametrize("spec", SERVED_SPECS)
    def test_served_equals_a_fresh_build(self, cleared, builds, spec, top):
        """Every lower order, those a build rejects (n = 0 and 1, and a poly
        with more coefficients than n) included."""
        held = family(spec, top)
        for n in range(top):
            assert family(spec, top) is held  # keeps the top order the most recent
            want = outcome(lambda: build_family(build_f(spec, n)))
            assert outcome(lambda: family(spec, n)) == want, n
        assert builds == [top]

    def test_a_second_request_is_the_same_family(self, cleared, builds):
        top = family("nu", 16)
        served = family("nu", 10)
        assert served is not top and served.order == 10
        assert family("nu", 10) is served and family(" nu", 10) is served
        assert builds == [16]

    def test_a_lower_order_held_first_is_not_extended(self, cleared, builds):
        family("exp1", 6)
        family("exp1", 12)
        assert builds == [6, 12]


class TestThreads:
    def test_shared_requests_equal_fresh_builds(self, cleared):
        keys = [(spec, n) for spec in SERVED_SPECS[:5] for n in range(6, 15, 2)]
        fresh = {key: parts(build_family(build_f(*key))) for key in keys}
        sizes, errors = [], []
        deadline = time.monotonic() + 2.0

        def worker(seed):
            rng = random.Random(seed)
            try:
                for _ in range(400):
                    if time.monotonic() > deadline:
                        break
                    key = rng.choice(keys)
                    if parts(family(*key)) != fresh[key]:
                        errors.append(key)
                    with presets._lock:
                        sizes.append(len(presets._held))
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert sizes and max(sizes) <= FAMILY_CACHE_SIZE


def assert_tables_equal_fresh(fam: BinomialFamily, spec: str):
    fresh = build_family(build_f(spec, ORDER))
    for fn, args in CALLS:
        got = fn(fam, *args)
        assert fn(fam, *args) is got, fn.__name__
        assert exact(got) == exact(fn.__wrapped__(fresh, *args)), fn.__name__


class TestTables:
    @pytest.mark.parametrize("spec", SPECS)
    def test_memoized_equals_fresh_undecorated(self, spec):
        assert_tables_equal_fresh(family(spec, ORDER), spec)

    @pytest.mark.parametrize("spec", SPECS)
    def test_memoized_on_a_served_family_equals_fresh_undecorated(self, cleared, builds, spec):
        family(spec, ORDER + 8)
        fam = family(spec, ORDER)
        assert builds == [ORDER + 8]
        assert_tables_equal_fresh(fam, spec)

    def test_results_cannot_be_mutated(self):
        fam = family("exp1", ORDER)
        for fn, args in CALLS:
            got = fn(fam, *args)
            if isinstance(got, GradedSeries):
                with pytest.raises(TypeError):
                    got.parts[0] = got.parts[0]
            elif isinstance(got, ShefferFamily):
                assert type(got.tau_polys) is tuple
            elif isinstance(got, PSequence):
                assert type(got.polys) is tuple
            elif isinstance(got, PowerSeries):
                assert type(got.coeffs) is tuple
            else:
                assert type(got) is tuple, fn.__name__

    def test_defaults_and_keywords_share_an_entry(self):
        fam = family("geom", ORDER)
        table = q_at_omega(fam, 3, 4)
        assert q_at_omega(fam, n_max=3, x_order=4) is table
        assert q_at_omega(fam, 3, 4, exponent=ParamPoly.symbol("s")) is table

    def test_limit_statements_share_one_p_table_and_one_fprime(self):
        fam = build_family(build_f("geom", 20))
        stirling_terms(fam, 3)
        for which in ("conclusion", "first", "second"):
            limit_check(fam, which, Q(4), 8)
        fns = [key[0] for key in fam._tables]
        assert fns.count(p_seq.__wrapped__) == 1
        assert fns.count(BinomialFamily.fprime_at_omega.__wrapped__) == 1
        # the Stirling head and the second limit read one I(alpha)
        assert fns.count(_integral_term.__wrapped__) == 1


class TestExactKeys:
    def test_equal_exponents_of_different_types_are_separate(self):
        fam = build_family(build_f("exp1", ORDER))
        tables = [q_zero_table(fam, 4, e) for e in (2, Q(2), ParamPoly.const(2))]
        assert tables[0] == tables[1] == tables[2]
        assert len({id(t) for t in tables}) == 3
        assert all(q_zero_table(fam, 4, e) is t
                   for e, t in zip((2, Q(2), ParamPoly.const(2)), tables))

    def test_ell_differing_in_variable_or_domain_is_separate(self):
        fam = build_family(build_f("exp1", ORDER))
        ell = bernoulli_weight(ORDER)
        renamed = rename(ell, "t")
        # the same values as ParamPoly constants: an equal series, another key
        widened = ell.map_coeffs(ParamPoly.const)
        assert ell == widened and renamed.coeffs == ell.coeffs
        assert _exact_key(widened) != _exact_key(ell)
        got = [tau_seq(fam, e, 5) for e in (ell, renamed)]
        assert got[0] is not got[1] and got[1].ell.var == "t"
        keys = set(fam._tables)
        with pytest.raises(SeriesError, match="over Fraction coefficients, not ParamPoly$"):
            tau_seq(fam, widened, 5)
        assert set(fam._tables) == keys
        assert tau_seq(fam, bernoulli_weight(ORDER), 5) is got[0]


class TestErrorsAreNotCached:
    def test_order_error_raises_again(self):
        fam = family("nu", 8)
        for _ in range(2):
            with pytest.raises(OrderError):
                q_at_omega(fam, 6, 6)
        assert exact(q_at_omega(fam, 3, 3)) == exact(
            q_at_omega.__wrapped__(build_family(build_f("nu", 8)), 3, 3)
        )

    def test_p_seq_order_error_stores_nothing(self):
        fam = build_family(build_f("nu", 8))
        for _ in range(2):
            with pytest.raises(OrderError):
                p_seq(fam, 9)
        assert fam._tables == {}
        assert exact(p_seq(fam, 8)) == exact(p_seq.__wrapped__(fam, 8))


# -- tables grown one index per depth ------------------------------------------------

SIDE_SPECS = SPECS + ["random6"]
SIDES = (_lhs_side, _log_side, _exp_side)
ROUTES = {"log": (_log_side, rhs_log_by_x_op), "exp": (_exp_side, rhs_exp_by_derive)}
MAX_DEPTH = 8  # the deepest identity an order-12 family allows


def fresh_family(spec: str) -> BinomialFamily:
    f = f_random(6, 991, ORDER) if spec == "random6" else build_f(spec, ORDER)
    return build_family(f)


def shuffled(values) -> list:
    values = list(values)
    random.Random(len(values)).shuffle(values)
    return values


def side(rows) -> tuple:
    """A side's coefficients, the first entry of each row."""
    return tuple(row[0] for row in rows)


class TestGrowingTables:
    @pytest.mark.parametrize("spec", SIDE_SPECS)
    def test_log_identity_sides_equal_the_series_routes(self, spec):
        fam = fresh_family(spec)
        for depth in shuffled(range(MAX_DEPTH + 1)):
            lhs = side(_lhs_side(fam, depth))
            assert exact(lhs) == exact(tuple(lhs_log_by_series(fam, depth)))
            for variant, (table, route) in ROUTES.items():
                ok, det = verify_log_identity(fam, variant, depth)
                assert ok, det["diffs"]
                assert exact(side(table(fam, depth))) == exact(tuple(route(fam, depth)))

    @pytest.mark.parametrize("depths", [
        range(MAX_DEPTH + 1),
        range(MAX_DEPTH, -1, -1),
        shuffled(range(MAX_DEPTH + 1)),
    ], ids=["ascending", "descending", "shuffled"])
    def test_any_order_of_depths_gives_the_fresh_tables(self, depths):
        fam = fresh_family("geom")
        deepest = -1
        for depth in depths:
            deepest = max(deepest, depth)
            for fn in SIDES:
                got = fn(fam, depth)
                assert exact(got) == exact(fn.__wrapped__(fam, depth)), fn.__name__
                held = fam._tables[(fn.__wrapped__,)]
                assert len(held) == deepest + 1 and got == held[: depth + 1]
                assert all(a is b for a, b in zip(got, held))

    def test_stirling_terms_and_p_seq_in_any_order_equal_a_fresh_family(self):
        fam = fresh_family("nu")
        for N in shuffled(range(2, 6)):
            assert exact(stirling_terms(fam, N)) == exact(
                stirling_terms(fresh_family("nu"), N)
            )
        for N in shuffled(range(ORDER + 1)):
            assert exact(p_seq(fam, N)) == exact(p_seq(fresh_family("nu"), N))
        fns = [key[0] for key in fam._tables]
        assert fns.count(p_seq.__wrapped__) == 1
        assert fns.count(_stirling_head.__wrapped__) == 1

    def test_a_shorter_request_reads_a_prefix(self):
        fam = fresh_family("exp1")
        longest = p_seq(fam, 10)
        assert p_seq(fam, 10) is longest
        assert all(a is b for a, b in zip(p_seq(fam, 4).polys, longest.polys[:5]))
        assert len(p_seq(fam, 4).polys) == 5

    def test_a_negative_length_is_rejected(self):
        fam = fresh_family("exp1")
        with pytest.raises(FamilyError, match="not n = -1"):
            p_seq(fam, -1)
        with pytest.raises(FamilyError, match="not n = -2"):
            verify_log_identity(fam, "exp", -2)
        assert fam._tables == {}

    def test_order_errors_leave_the_tables_usable(self):
        fam = fresh_family("exp1")
        for variant in ROUTES:
            verify_log_identity(fam, variant, 3)
        p_seq(fam, 5)
        held = dict(fam._tables)
        with pytest.raises(OrderError):
            verify_log_identity(fam, "log", MAX_DEPTH + 1)
        with pytest.raises(OrderError):
            p_seq(fam, ORDER + 1)
        assert fam._tables.keys() == held.keys()
        assert all(fam._tables[key] is table for key, table in held.items())
        for variant in ROUTES:
            assert verify_log_identity(fam, variant, MAX_DEPTH)[0]
        for fn in SIDES:
            assert exact(fn(fam, MAX_DEPTH)) == exact(fn.__wrapped__(fam, MAX_DEPTH))
        assert exact(p_seq(fam, ORDER)) == exact(p_seq.__wrapped__(fam, ORDER))


class TestUnknownVariant:
    def test_rejected_before_any_work(self):
        fam = fresh_family("exp1")
        with pytest.raises(ValueError, match="unknown variant 'sideways'"):
            verify_log_identity(fam, "sideways", 4)
        assert fam._tables == {}

    def test_tables_unchanged(self):
        fam = fresh_family("exp1")
        verify_log_identity(fam, "log", 4)
        held = dict(fam._tables)
        with pytest.raises(ValueError):
            verify_log_identity(fam, "sideways", 6)
        assert fam._tables.keys() == held.keys()
        assert all(fam._tables[key] is table for key, table in held.items())

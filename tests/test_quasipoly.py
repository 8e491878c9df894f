"""Certificates: construction by both routes, evaluation, structure, serialization."""

import functools
import itertools
import json
import math
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denumerant import (
    CapacityError,
    HalfInt,
    InputError,
    IntegralityError,
    PeriodicFn,
    QuasiPoly,
    base_case,
    bernoulli_poly,
    build_explicit,
    build_recursive,
    closure_fn,
    count_dp,
    extend_recursive,
    iter_multisets,
    lcm_of,
    psi,
    r_coeffs_recursive,
    run_properties,
    v1_explicit,
)
from denumerant import quasipoly
from denumerant.quasipoly import _guard_cells, _shift_fold, _shift_weights
from helpers import natural_average, numerators_reference, to_json_reference
from test_cert_bytes import PINNED

HALF = Fraction(1, 2)


class TestPsi:
    def test_values(self):
        assert psi(3, 6) == 1
        assert psi(3, 4) == 0
        assert psi(3, 0) == 1
        assert psi(2, Fraction(7, 2)) == 0
        assert psi(1, HalfInt(5)) == 0  # half-odd point, never divisible
        assert psi(1, -4) == 1

    def test_bad_modulus(self):
        with pytest.raises(InputError):
            psi(0, 1)


class TestPeriodicFn:
    def test_residue_indexing(self):
        # the value at s sits at 2s mod 2 * period
        f = PeriodicFn(2, [10, 11, 12, 13])
        assert f.at_twice(0) == 10
        assert f.at_twice(1) == 11
        assert f.at_twice(2) == 12
        assert f.at_twice(-1) == 13
        assert f.at_twice(4) == 10  # wraps at the period

    def test_length_enforced(self):
        with pytest.raises(InputError):
            PeriodicFn(2, [1, 2, 3])

    def test_with_period(self):
        f = PeriodicFn(1, [5, 7])
        g = f.with_period(3)
        assert g.period == 3
        assert g.values == (5, 7) * 3
        for t in range(-6, 7):
            assert f.at_twice(t) == g.at_twice(t)
        with pytest.raises(InputError):
            f.with_period(0)
        with pytest.raises(InputError):
            f.with_period(True)  # period 1: a bool is never a period

    def test_integer_table(self):
        f = PeriodicFn(2, [Fraction(1, 6), 0, Fraction(-1, 4), 3])
        assert (f.den, f.nums) == (12, (2, 0, -3, 36))
        assert f.values == (Fraction(1, 6), 0, Fraction(-1, 4), 3)
        assert all(type(v) is Fraction for v in f.values)
        assert (PeriodicFn(1, [0, 0]).den, PeriodicFn(1, [0, 0]).nums) == (1, (0, 0))
        assert PeriodicFn.from_numerators(2, 24, [4, 0, -6, 72]) == f

    @pytest.mark.parametrize("bad", [0.1, True, "1/2", None, 1j])
    def test_only_ints_and_fractions(self, bad):
        with pytest.raises(InputError):
            PeriodicFn(1, [0, bad])
        with pytest.raises(InputError):
            PeriodicFn(1, [bad] * 2)

    def test_natural_average(self):
        f = PeriodicFn(2, [1, 0, 3, 0])
        assert natural_average(f, 0) == 2
        assert natural_average(f, 1) == 0
        assert natural_average(f, 7) == 0  # only parity matters


class TestBaseCase:
    def test_unit_part(self):
        c = base_case(1)
        assert c.master_period == 1
        assert [c.count(n) for n in range(6)] == [1] * 6
        assert c.value(Fraction(5, 2)) == 1
        assert c.value(3) == 0  # integers sit off the natural grid for one odd part

    def test_general_part(self):
        c = base_case(3)
        assert c.value(Fraction(3, 2)) == 1
        assert c.value(Fraction(9, 2)) == 1
        assert c.value(Fraction(5, 2)) == 0
        assert [c.count(n) for n in range(10)] == [1 if n % 3 == 0 else 0 for n in range(10)]


class TestExtend:
    def test_two_unit_parts(self):
        c = extend_recursive(base_case(1), 1)
        assert [c.count(n) for n in range(12)] == list(range(1, 13))
        assert c.value(0) == 0

    def test_one_two(self):
        c = extend_recursive(base_case(1), 2)
        assert [c.count(n) for n in range(12)] == [n // 2 + 1 for n in range(12)]
        # free coefficient in the counting frame: 1 at even n, 1/2 at odd n
        xi = HalfInt(3)
        for n in range(8):
            s = HalfInt(2 * n) + xi
            w0 = Fraction(3, 2) * c.coeffs[0].at_twice(s.twice) + c.coeffs[1].at_twice(s.twice)
            assert w0 == (1 if n % 2 == 0 else HALF), n

    def test_even_parts(self):
        c = extend_recursive(base_case(2), 2)
        assert [c.count(n) for n in range(12)] == [
            n // 2 + 1 if n % 2 == 0 else 0 for n in range(12)
        ]

    def test_matches_oracle_three_parts(self):
        c = build_recursive((2, 3, 5))
        t = count_dp((2, 3, 5), 100)
        for n in range(101):
            assert c.count(n) == t[n]

    def test_reads_previous_level_at_its_true_period(self):
        # the same function stored at period 6 (both builders) and at 12,
        # which does not divide the new lcm 30: one result
        prevs = [build_recursive((2, 3)), build_explicit((2, 3)), build_recursive((2, 3)).aligned(12)]
        grown = [extend_recursive(prev, 5) for prev in prevs]
        assert grown[0] == build_recursive((2, 3, 5))
        assert grown[1] == grown[0]
        assert grown[2] == grown[0]


class TestExplicit:
    def test_one_part_equals_base_case(self):
        assert build_explicit((1,)) == base_case(1)
        assert build_explicit((4,)) == base_case(4)
        # build_recursive's first step is closure_fn alone: the one-part indicator
        for d in range(1, 13):
            assert closure_fn((d,)) == base_case(d).coeffs[0], d
            assert build_recursive((d,)) == base_case(d), d

    def test_matches_recursive_tables(self):
        for parts in [(1, 2), (2, 3), (2, 2), (1, 2, 3), (2, 3, 4), (1, 1, 3)]:
            e = build_explicit(parts)
            r = build_recursive(parts)
            assert e.aligned(e.master_period) == r.aligned(e.master_period), parts

    def test_matches_oracle(self):
        c = build_explicit((2, 3, 5))
        t = count_dp((2, 3, 5), 60)
        for n in range(61):
            assert c.count(n) == t[n]

    @pytest.mark.parametrize(
        "parts, builders",
        [
            ((1, 2, 3, 4, 5, 6, 7), (build_explicit, build_recursive)),
            ((6, 5, 4, 3, 2, 1), (build_explicit, build_recursive)),
            ((1, 1, 2, 2, 3, 3), (build_explicit, build_recursive)),
            ((2, 2, 3, 3, 4, 4), (build_explicit, build_recursive)),
            ((1, 2, 3, 4, 5), (build_explicit, build_recursive)),
        ],
    )
    def test_many_parts_proved_by_oracle(self, parts, builders):
        # m values per residue class fix a degree-(m-1), period-tau
        # quasi-polynomial, so agreement on n = 0..m*tau-1 is a proof
        m, tau = len(parts), lcm_of(parts)
        table = count_dp(parts, m * tau - 1)
        certs = [build(parts) for build in builders]
        for cert in certs:
            assert tuple(cert.count(n) for n in range(m * tau)) == table.counts
        for cert in certs[1:]:
            assert cert.aligned(tau) == certs[0].aligned(tau)


# any order, duplicates allowed: m <= 4 with parts <= 6, or m = 5 with parts <= 4
PART_LISTS = st.one_of(
    st.lists(st.integers(1, 6), min_size=1, max_size=4),
    st.lists(st.integers(1, 4), min_size=5, max_size=5),
)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(PART_LISTS)
def test_builders_on_unsorted_lists_proved_by_oracle(parts):
    parts = tuple(parts)
    m, tau = len(parts), lcm_of(parts)
    explicit, recursive = build_explicit(parts), build_recursive(parts)
    assert explicit == recursive
    assert r_coeffs_recursive(parts) == v1_explicit(parts)
    # m values per residue class fix the certificate: a proof, not a sample
    table = count_dp(parts, m * tau - 1)
    assert tuple(explicit.count(n) for n in range(m * tau)) == table.counts


class TestWorkedTwoPartForms:
    """Fully expanded m = 2 formulas, frozen as an independent reference."""

    PAIRS = [(1, 2), (2, 3), (3, 4), (2, 4)]

    def test_leading_coefficient(self):
        for d1, d2 in self.PAIRS:
            tau = lcm_of((d1, d2))
            c = build_recursive((d1, d2))
            for rho in range(2 * tau):
                s = HalfInt(rho)
                want = sum(
                    psi(d1, s - HalfInt((2 * p + 1) * d2) - HalfInt(d1))
                    for p in range(tau // d2)
                ) / tau
                assert c.coeffs[0].at_twice(rho) == want, (d1, d2, rho)

    def test_free_coefficient_partial(self):
        # the piece reachable from the one-part level
        for d1, d2 in self.PAIRS:
            tau = lcm_of((d1, d2))
            c = build_recursive((d1, d2))
            rem = closure_fn((d1, d2))
            for rho in range(2 * tau):
                s = HalfInt(rho)
                want = sum(
                    bernoulli_poly(1, 1 - Fraction((2 * p + 1) * d2, 2 * tau))
                    * psi(d1, s - HalfInt((2 * p + 1) * d2) - HalfInt(d1))
                    for p in range(tau // d2)
                )
                assert c.coeffs[1].at_twice(rho) - rem.at_twice(rho) == want, (d1, d2, rho)

    def test_free_coefficient_remainder(self):
        # remainder piece, periodic in the second part
        for d1, d2 in self.PAIRS:
            tau = lcm_of((d1, d2))
            rem = closure_fn((d1, d2))
            for rho in range(2 * tau):
                s = HalfInt(rho)
                want = sum(
                    bernoulli_poly(1, 1 - Fraction((2 * p + 1) * d1, 2 * tau))
                    * psi(d2, s - HalfInt((2 * p + 1) * d1) - HalfInt(d2))
                    for p in range(tau // d1)
                )
                assert rem.at_twice(rho) == want, (d1, d2, rho)


class TestCompactFreeForm:
    def test_value_decomposition(self):
        # V(s) = remainder(s) + sum_l (tau^(l-1)/l) sum_p B_l((s + (p+1/2) d_m)/tau)
        #                                   * prev_coeff_(m-l)(s + (p+1/2) d_m)
        for parts in [(1, 2), (2, 3), (1, 2, 3), (2, 3, 4)]:
            m = len(parts)
            dm = parts[-1]
            tau = lcm_of(parts)
            cert = build_recursive(parts)
            prev = build_recursive(parts[:-1])
            rem = closure_fn(parts)
            for rho in range(2 * tau):
                s = HalfInt(rho)
                acc = rem.at_twice(rho)
                for l in range(1, m):
                    for p in range(tau // dm):
                        sp = s + HalfInt((2 * p + 1) * dm)
                        acc += (
                            Fraction(tau) ** (l - 1)
                            / l
                            * bernoulli_poly(l, Fraction(sp.twice, 2 * tau))
                            * prev.coeffs[m - l - 1].at_twice(sp.twice)
                        )
                assert acc == cert.value(s), (parts, rho)


class TestRecurrences:
    def test_single_step(self):
        for parts in [(1, 2), (2, 3), (1, 2, 3), (2, 2, 3), (2, 3, 4, 5)]:
            cert = build_explicit(parts)
            prev = build_explicit(parts[:-1])
            dm = parts[-1]
            tau = cert.master_period
            for rho in range(2 * tau):
                lhs = cert.value(HalfInt(rho)) - cert.value(HalfInt(rho - 2 * dm))
                assert lhs == prev.value(HalfInt(rho - dm)), (parts, rho)

    def test_full_period_step(self):
        for parts in [(1, 2), (2, 3), (1, 2, 3), (2, 2, 3)]:
            cert = build_explicit(parts)
            prev = build_explicit(parts[:-1])
            dm = parts[-1]
            tau = cert.master_period
            for rho in range(0, 2 * tau, 3):
                lhs = cert.value(HalfInt(rho + 2 * tau)) - cert.value(HalfInt(rho))
                rhs = sum(
                    prev.value(HalfInt(rho + 2 * tau - (2 * p + 1) * dm))
                    for p in range(tau // dm)
                )
                assert lhs == rhs, (parts, rho)


class TestSymmetry:
    def test_parity(self):
        for parts in [(1,), (1, 2), (2, 3), (1, 2, 3), (2, 2, 3, 4)]:
            m = len(parts)
            sign = -1 if m % 2 == 0 else 1
            cert = build_explicit(parts)
            start = sum(parts) % 2
            for t in range(start, 4 * cert.master_period, 2):
                assert cert.value(HalfInt(-t)) == sign * cert.value(HalfInt(t)), (parts, t)

    def test_forced_zeros(self):
        for parts in [(1, 2), (1, 2, 3, 4), (2, 3, 4, 5), (1, 1, 1, 2, 3)]:
            m = len(parts)
            cert = build_explicit(parts)
            if m % 2 == 0:
                pts = [HalfInt(2 * k) for k in range(m // 2)]
            else:
                pts = [HalfInt(2 * k + 1) for k in range((m - 1) // 2)]
            for s in pts:
                assert cert.value(s) == 0, (parts, s)

    def test_off_natural_grid_vanishes(self):
        for parts in [(1,), (1, 2), (2, 3), (1, 2, 3)]:
            cert = build_explicit(parts)
            off = 1 - sum(parts) % 2
            for t in range(off, 4 * cert.master_period, 2):
                assert cert.value(HalfInt(t)) == 0
                assert cert.value(HalfInt(-t)) == 0


class TestEvaluation:
    def test_count_type_and_examples(self):
        c = build_explicit((1, 2))
        for n in range(11):
            got = c.count(n)
            assert isinstance(got, int)
            assert got == n // 2 + 1
        assert build_explicit((2, 4)).count(5) == 0
        assert build_explicit((1, 1)).value(0) == 0

    def test_count_rejects_non_integer_argument(self):
        c = build_explicit((1, 2))
        with pytest.raises(InputError):
            c.count(Fraction(1, 2))
        with pytest.raises(InputError):
            c.count(True)

    def test_integrality_violation_raises(self):
        broken = QuasiPoly(
            (1,), (PeriodicFn(1, [HALF, HALF]),), 1
        )
        with pytest.raises(IntegralityError):
            broken.count(2)

    def test_permutation_invariance_of_counts(self):
        for parts in [(1, 2, 3), (2, 3), (2, 2, 3)]:
            base = [build_explicit(parts).count(n) for n in range(31)]
            for perm in set(permutations(parts)):
                cert = build_explicit(perm)
                assert [cert.count(n) for n in range(31)] == base, perm

    def test_mean_value(self):
        for parts in [(1, 2), (2, 3), (1, 2, 3)]:
            cert = build_explicit(parts)
            consts = v1_explicit(parts)
            parity = sum(parts) % 2
            for j in range(len(parts)):
                assert natural_average(cert.coeffs[j], parity) == consts[j]


class TestAlign:
    def test_identity(self):
        c = build_explicit((1, 2))
        assert c.aligned(2) == c

    def test_doubling(self):
        c = build_explicit((1, 2))
        d = c.aligned(4)
        assert d.master_period == 4
        for fn_c, fn_d in zip(c.coeffs, d.coeffs):
            assert fn_d.values == fn_c.values * 2

    def test_values_unchanged(self):
        c = build_explicit((2, 3))
        d = c.aligned(12)
        for t in range(-20, 21):
            assert c.value(HalfInt(t)) == d.value(HalfInt(t))

    def test_rejects_non_multiple(self):
        with pytest.raises(InputError):
            build_explicit((2, 3)).aligned(9)


def _shift_weights_direct(dk, t, m, size):
    """The shift weights summed term by term over p < t/d_k at the given t,
    in first-seen residue order: the form _shift_weights reduces by Raabe's
    theorem, kept here as its reference."""
    per_e = []
    for e in range(m):
        by_res = {}
        for p in range(t // dk):
            key = ((2 * p + 1) * dk) % size
            b = bernoulli_poly(e, 1 - Fraction((2 * p + 1) * dk, 2 * t))
            by_res[key] = by_res.get(key, 0) + b
        scale = Fraction(t) ** (e - 1) / math.factorial(e)
        per_e.append([(key, scale * b) for key, b in by_res.items() if b])
    return per_e


@functools.lru_cache(maxsize=None)
def _direct_at_lcm(dk, m, size):
    return _shift_weights_direct(dk, math.lcm(dk, size // 2), m, size)


def _shift_fold_direct(d, m, pivot):
    """The shift-sum fold on Fractions, position by position, over the direct
    weights at t = lcm(d_k, pivot) mod 2*pivot: the form _shift_fold runs on
    integer numerators, kept here as its reference."""
    size = 2 * pivot
    fold = {(0, 0): {pivot: Fraction(1)}}
    for dk in d:
        per_e = _direct_at_lcm(dk, m, size)
        nxt = {}
        for (l, z), table in fold.items():
            for e in range(m - l):
                out = nxt.setdefault((l + e, z + (e == 0)), {})
                for sh, w in per_e[e]:
                    for res, a in table.items():
                        key = (res + sh) % size
                        out[key] = out.get(key, 0) + a * w
        fold = nxt
    return fold


def _over_den(den, per_e):
    return [[(key, Fraction(w, den)) for key, w in row] for row in per_e]


class TestShiftWeights:
    def test_matches_direct_sum_at_multiples_of_lcm(self):
        for dk in range(1, 13):
            for period in range(1, 13):
                lcm = math.lcm(dk, period)
                for k in (1, 2, 3):
                    # the table for m is the first m rows of the table for 5
                    direct = _shift_weights_direct(dk, lcm * k, 5, 2 * period)
                    for m in range(1, 6):
                        den, per_e = _shift_weights(dk, m, 2 * period)
                        assert _over_den(den, per_e) == direct[:m], (dk, period, k, m)

    def test_matches_direct_sum_at_full_period(self):
        # d_k = 31 read mod 2*37 inside (31, 37, 41), whose lcm is 47027
        den, per_e = _shift_weights(31, 3, 74)
        assert _over_den(den, per_e) == _shift_weights_direct(31, 47027, 3, 74)

    def test_integer_numerators_in_lowest_terms(self):
        for dk in range(1, 13):
            for period in range(1, 13):
                den, per_e = _shift_weights(dk, 5, 2 * period)
                nums = [w for row in per_e for _, w in row]
                assert all(type(w) is int and w for w in nums)
                assert type(den) is int and den > 0
                assert math.gcd(den, *nums) == 1, (dk, period)


# the weight keys (d_k, m, 2P) of the corpus (parts and periods up to 6, m up
# to 4), of parts and periods up to 8 at m = 8, and of (31, 37, 41)
CACHE_KEYS = (
    [(dk, m, 2 * p) for dk in range(1, 7) for p in range(1, 7) for m in range(1, 5)]
    + [(dk, 8, 2 * p) for dk in range(1, 9) for p in range(1, 9)]
    + [(dk, m, 2 * p) for dk in (31, 37, 41) for p in (31, 37, 41) for m in (2, 3)]
)


def _all_tuples(x):
    return type(x) is int or (type(x) is tuple and all(map(_all_tuples, x)))


class TestShiftWeightsCache:
    def test_one_verify_call_computes_each_table_once(self):
        _shift_weights.cache_clear()
        run_properties((1, 2, 3, 4, 5))
        info = _shift_weights.cache_info()
        assert (info.misses, info.hits + info.misses) == (32, 52)
        run_properties((1, 2, 3, 4, 5))
        assert _shift_weights.cache_info().misses == 32
        assert _shift_weights.cache_info().hits == info.hits + 52

    def test_bounded(self):
        assert _shift_weights.cache_info().maxsize == 1024

    def test_cached_tables_are_tuples_at_every_level(self):
        for key in CACHE_KEYS:
            weights = _shift_weights(*key)
            assert _shift_weights(*key) is weights
            assert _all_tuples(weights), key

    def test_cached_tables_match_uncached_and_direct(self):
        for dk, m, size in CACHE_KEYS:
            den, per_e = _shift_weights(dk, m, size)
            assert (den, per_e) == _shift_weights.__wrapped__(dk, m, size), (dk, m, size)
            assert _over_den(den, per_e) == _direct_at_lcm(dk, m, size), (dk, m, size)


@functools.lru_cache(maxsize=None)
def _pivot_fold_direct(others, di):
    """The reference fold over `others` around pivot d_i, as build_explicit and
    closure_fn start it; cached because many lists share one (read-only)."""
    return _shift_fold_direct(others, len(others) + 1, di)


class TestShiftFold:
    # every ordered list with m <= 4 and parts <= 6, and 1..7
    LISTS = [
        p for m in range(1, 5) for p in itertools.product(range(1, 7), repeat=m)
    ] + [(1, 2, 3, 4, 5, 6, 7)]

    def test_integer_fold_matches_fraction_fold(self):
        # every pivot of every list; the fold depends only on (others, d_i)
        pivots = {(d[:i] + d[i + 1 :], di) for d in self.LISTS for i, di in enumerate(d)}
        for others, di in sorted(pivots):
            den, fold = _shift_fold(others, len(others) + 1, di)
            got = {
                state: {res: Fraction(a, den) for res, a in table.items()}
                for state, table in fold.items()
            }
            assert got == _pivot_fold_direct(others, di), (others, di)

    def test_closure_fn_matches_fraction_fold(self):
        for d in self.LISTS:
            m, size = len(d), 2 * d[-1]
            table = [Fraction(0)] * size
            for (l, _), res_table in _pivot_fold_direct(d[:-1], d[-1]).items():
                if l == m - 1:
                    for res, a in res_table.items():
                        table[res] += a
            assert closure_fn(d).values == tuple(table), d


# the benchmark's deep and wide lists
BENCH_LISTS = [
    (1, 2, 3, 4, 5), (1, 1, 2, 3, 4), (1, 1, 1, 2, 2, 3), (1, 1, 2, 2, 3, 3),
    (1, 2, 2, 3, 3, 4), (2, 2, 3, 3, 4, 4),
    (2, 3, 5, 7), (5, 6, 7), (3, 7, 10), (3, 7, 11), (4, 5, 11), (5, 7, 9),
]


class TestIntegerTables:
    @pytest.mark.parametrize("builder", [build_explicit, build_recursive])
    def test_builders_store_reduced_tables(self, builder):
        for parts in list(iter_multisets(4, 6)) + BENCH_LISTS + list(PINNED):
            cert = builder(parts)
            assert cert.numerator_tables() == numerators_reference(cert), parts
            for fn in cert.coeffs:
                assert fn.den > 0 and math.gcd(fn.den, *fn.nums) == 1, parts
                assert len(fn.nums) == len(fn.values) == 2 * fn.period
                copy = PeriodicFn(fn.period, fn.values)
                assert copy == fn and hash(copy) == hash(fn), parts

    @pytest.mark.parametrize("period", [0, -1, True, 2.0, "2"])
    def test_bad_periods_refused(self, period):
        with pytest.raises(InputError, match="is not a positive integer period"):
            build_explicit((2, 3)).numerator_tables(period)

    def test_tables_at_other_periods(self):
        # read as at_twice reads: tiled below, cut off above the stored period
        cert = build_explicit((2, 3))
        ref_den, ref = numerators_reference(cert.aligned(12))
        for period in (1, 3, 4, 6, 9, 12):
            assert cert.numerator_tables(period) == (ref_den, [t[: 2 * period] for t in ref])


def _build_explicit_per_pivot(parts):
    """build_explicit with one fold per pivot position: each pivot's buckets
    brought to the pivots' common denominator and spread residue by residue
    into the 2 tau tables. The form build_explicit had before it folded once
    per distinct part and handed its pieces to _materialise, kept as the
    reference for both."""
    d = tuple(parts)
    m = len(d)
    tau = lcm_of(d)
    top = math.factorial(m - 1) * math.lcm(*range(1, m + 1))
    pivots = []
    for i, di in enumerate(d):
        folded = [[0] * (2 * di) for _ in range(m)]
        den, fold = _shift_fold(d[:i] + d[i + 1 :], m, di)
        for (l, z), res_table in fold.items():
            w = top // ((1 + z) * math.factorial(m - 1 - l))
            for res, a in res_table.items():
                folded[l][res] += w * a
        pivots.append((den, folded))
    common = math.lcm(*(den for den, _ in pivots))
    acc = [[0] * (2 * tau) for _ in range(m)]
    for den, folded in pivots:
        for bucket, res_table in zip(acc, folded):
            for res, a in enumerate(res_table):
                for rho in range(res, 2 * tau, len(res_table)):
                    bucket[rho] += a * (common // den)
    return QuasiPoly(d, [PeriodicFn.from_numerators(tau, common * top, vals) for vals in acc], tau)


class TestExplicitPieces:
    def test_matches_per_pivot_reference(self):
        lists = list(iter_multisets(4, 6)) + BENCH_LISTS + list(PINNED)
        for parts in lists + [(1, 1, 1, 1, 1, 1, 1), (3, 3, 5), (7,), (2, 1, 2), (6, 1, 4, 1)]:
            assert build_explicit(parts) == _build_explicit_per_pivot(parts), parts

    @pytest.mark.parametrize("parts, starts", [
        ((1, 1, 1, 2, 2, 3), [1, 2, 3]),
        ((2, 3, 5, 7), [2, 3, 5, 7]),
        ((2, 2, 2, 2), [2]),
        ((6, 1, 4, 1), [6, 1, 4]),
    ])
    def test_one_fold_per_distinct_part(self, monkeypatch, parts, starts):
        # one fold per distinct part, started at that part: its pivot
        seen = []

        def counted(d, m, pivot):
            seen.append(pivot)
            return _shift_fold(d, m, pivot)

        monkeypatch.setattr(quasipoly, "_shift_fold", counted)
        build_explicit(parts)
        assert seen == starts


class TestCapacityGuard:
    @pytest.mark.parametrize("builder", [build_explicit, build_recursive])
    def test_builders_over_limit(self, monkeypatch, builder):
        # (2, 3, 5, 7) takes 4 tables of 2 * 210 cells: 1680
        monkeypatch.setenv("RPF_GUARD_LIMIT", "1000")
        with pytest.raises(CapacityError, match="over the limit 1000"):
            builder((2, 3, 5, 7))
        monkeypatch.setenv("RPF_GUARD_LIMIT", "1680")
        assert builder((2, 3, 5, 7)).master_period == 210  # at the limit

    def test_extend_over_limit(self, monkeypatch):
        prev = build_recursive((2, 3, 5))
        monkeypatch.setenv("RPF_GUARD_LIMIT", "1000")
        with pytest.raises(CapacityError, match="over the limit 1000"):
            extend_recursive(prev, 7)

    def test_default_limit(self, monkeypatch):
        # (97, 101, 103): 3 x 2 * 1009091 cells, about 6.05 million, fits
        monkeypatch.delenv("RPF_GUARD_LIMIT", raising=False)
        assert _guard_cells(3, 97 * 101 * 103) is None
        with pytest.raises(CapacityError):
            _guard_cells(4, 97 * 101 * 103 * 107)

    def test_parsed_and_hand_built_over_limit(self, monkeypatch):
        # one part at master period 5000: 1 table of 10000 cells, refused when
        # the certificate is made, before numerator_tables could tile its
        # period-1 coefficient to the master period
        fn = PeriodicFn(1, [0, 1])
        text = QuasiPoly((1,), (fn,), 5000).to_json()
        monkeypatch.setenv("RPF_GUARD_LIMIT", "100")
        with pytest.raises(CapacityError, match="1 x 10000 cells, over the limit 100"):
            QuasiPoly.from_json(text)
        with pytest.raises(CapacityError, match="1 x 10000 cells, over the limit 100"):
            QuasiPoly((1,), (fn,), 5000)
        assert QuasiPoly((1,), (fn,), 50).master_period == 50  # at the limit

    def test_retabulation_over_limit(self, monkeypatch):
        # (1, 2) holds 2 tables of 4 cells; at period 24 they take 96 cells,
        # at 26 they would take 104, refused before any table is tiled
        cert = build_explicit((1, 2))
        monkeypatch.setenv("RPF_GUARD_LIMIT", "100")
        assert cert.aligned(24).master_period == 24
        assert len(cert.numerator_tables(24)[1][0]) == 48

        def untiled(*args):
            raise AssertionError("a table was tiled past the guard")

        monkeypatch.setattr(PeriodicFn, "with_period", untiled)
        with pytest.raises(CapacityError, match="2 x 52 cells, over the limit 100"):
            cert.aligned(26)
        with pytest.raises(CapacityError, match="2 x 52 cells, over the limit 100"):
            cert.numerator_tables(26)


class TestSerialization:
    def test_round_trip(self):
        for parts in [(1,), (1, 2), (2, 3, 4)]:
            cert = build_explicit(parts)
            again = QuasiPoly.from_json(cert.to_json())
            assert again == cert

    def test_writer_matches_reference(self):
        # both builders' certificates, at tau and at 2 tau, print what
        # json.dumps(indent=2) printed for the Fraction dict; the builders'
        # certificates are equal, so one reference text serves both
        for parts in list(iter_multisets(4, 6)) + BENCH_LISTS + list(PINNED):
            explicit, recursive = build_explicit(parts), build_recursive(parts)
            assert explicit == recursive, parts
            for period in (explicit.master_period, 2 * explicit.master_period):
                want = to_json_reference(explicit.aligned(period))
                assert explicit.aligned(period).to_json() == want, (parts, period)
                assert recursive.aligned(period).to_json() == want, (parts, period)
            text = explicit.to_json()
            assert QuasiPoly.from_json(text).to_json() == text, parts

    def test_writer_hand_built(self):
        # negative Fractions, plain ints, numerators sharing a factor with the
        # denominator, zero, and period-1 coefficients
        certs = [
            QuasiPoly((1,), (PeriodicFn(1, [Fraction(-3, 4), 2]),)),
            QuasiPoly((2, 3), (
                PeriodicFn(1, [Fraction(1, 6)] * 2),
                PeriodicFn(3, [Fraction(1, 6), Fraction(1, 3), Fraction(1, 2), 0, -1, Fraction(-2, 3)]),
            )),
            QuasiPoly((2, 2), (
                PeriodicFn.from_numerators(1, 12, [-8, 3]),
                PeriodicFn.from_numerators(2, 12, [12, -6, 4, 0]),
            ), 4),
            QuasiPoly((5, 1), (PeriodicFn(1, [7] * 2), PeriodicFn(5, [-10**30] * 10))),
        ]
        for cert in certs:
            text = cert.to_json()
            assert text == to_json_reference(cert), cert
            assert QuasiPoly.from_json(text) == cert
            assert QuasiPoly.from_json(text).to_json() == text

    def test_deterministic_bytes(self):
        a = build_explicit((2, 3)).to_json()
        b = build_explicit((2, 3)).to_json()
        assert a == b
        assert a == QuasiPoly.from_json(a).to_json()

    def test_schema_shape(self):
        raw = json.loads(build_explicit((1, 2)).to_json())
        assert list(raw) == ["parts", "master_period", "xi", "coefficients"]
        assert raw["parts"] == [1, 2]
        assert raw["master_period"] == 2
        assert raw["xi"] == "3/2"
        assert [e["power"] for e in raw["coefficients"]] == [1, 0]
        for entry in raw["coefficients"]:
            assert list(entry) == ["power", "period", "values"]
            assert list(entry["values"]) == [str(r) for r in range(2 * entry["period"])]
            assert all(isinstance(v, str) for v in entry["values"].values())

    def test_malformed_rejected(self):
        cert = build_explicit((1, 2))
        raw = json.loads(cert.to_json())
        raw["coefficients"][0]["power"] = 5
        with pytest.raises(InputError):
            QuasiPoly.from_json(json.dumps(raw))
        with pytest.raises(InputError):
            QuasiPoly.from_json("not json")
        raw = json.loads(cert.to_json())
        raw["xi"] = "7/2"
        with pytest.raises(InputError):
            QuasiPoly.from_json(json.dumps(raw))

    @pytest.mark.parametrize("path", [("master_period",), ("coefficients", 1, "period"),
                                      ("coefficients", 0, "power"), ("coefficients", 1, "power")])
    def test_json_booleans_rejected(self, path):
        # true == 1 and false == 0 in Python, so these loaded, and a period or
        # master period read as true was written back out as true
        raw = json.loads(build_explicit((1, 1)).to_json())
        *outer, key = path
        node = raw
        for k in outer:
            node = node[k]
        node[key] = bool(node[key])
        with pytest.raises(InputError):
            QuasiPoly.from_json(json.dumps(raw))

    def test_zero_denominator_rejected(self):
        raw = json.loads(build_explicit((1, 2)).to_json())
        raw["coefficients"][1]["values"]["0"] = "1/0"
        with pytest.raises(InputError):
            QuasiPoly.from_json(json.dumps(raw))

    def test_json_number_rejected(self):
        # a JSON number arrives as a binary float, never an exact rational
        raw = json.loads(build_explicit((1, 2)).to_json())
        raw["coefficients"][1]["values"]["0"] = 0.1
        with pytest.raises(InputError):
            QuasiPoly.from_json(json.dumps(raw))

    @pytest.mark.parametrize("cell", [True, False, None, 1, [1], {"1": 1}])
    def test_non_string_values_rejected(self, cell):
        # residue 2 of R_2 for (1, 2) repeats the string at residue 0, so a
        # non-string there must be rejected though the string parsed
        raw = json.loads(build_explicit((1, 2)).to_json())
        values = raw["coefficients"][1]["values"]
        assert values["0"] == values["2"]
        values["2"] = cell
        with pytest.raises(InputError, match="exact string"):
            QuasiPoly.from_json(json.dumps(raw))

    def test_missing_residue_rejected(self):
        raw = json.loads(build_explicit((1, 2)).to_json())
        del raw["coefficients"][1]["values"]["3"]
        with pytest.raises(InputError, match="malformed"):
            QuasiPoly.from_json(json.dumps(raw))

    def test_first_bad_cell_reported(self):
        raw = json.loads(build_explicit((2, 3, 4)).to_json())
        values = raw["coefficients"][2]["values"]
        values["2"], values["5"] = "x", "1/0"
        with pytest.raises(InputError, match="'x'"):
            QuasiPoly.from_json(json.dumps(raw))
        values["2"] = values["7"]
        with pytest.raises(InputError, match="'1/0'"):
            QuasiPoly.from_json(json.dumps(raw))


class TestValidation:
    def test_coefficient_count_enforced(self):
        with pytest.raises(InputError):
            QuasiPoly((1, 2), (PeriodicFn(2, [1] * 4),), 2)

    def test_bool_periods_rejected(self):
        with pytest.raises(InputError):
            PeriodicFn(True, [1, 1])
        with pytest.raises(InputError):
            QuasiPoly((1,), (PeriodicFn(1, [1] * 2),), True)

    def test_period_divisibility_enforced(self):
        with pytest.raises(InputError):
            QuasiPoly((2, 3), (PeriodicFn(4, [1] * 8), PeriodicFn(6, [0] * 12)), 6)

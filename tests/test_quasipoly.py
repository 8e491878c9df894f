"""Certificates: construction by both routes, evaluation, structure, serialization."""

import collections
import functools
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denumerant import (
    CapacityError,
    InputError,
    IntegralityError,
    PeriodicFn,
    QuasiPoly,
    bernoulli_poly,
    build_explicit,
    build_recursive,
    closure_fn,
    count_dp,
    extend_recursive,
    iter_multisets,
    lcm_of,
    run_properties,
    v1_explicit,
)
from denumerant import quasipoly
from denumerant.quasipoly import _guard_cells, _shift_fold, _shift_weights
from helpers import (
    at_twice,
    base_case,
    count_reference,
    extend_reference,
    least_periods,
    materialise_reference,
    natural_average,
    numerators_reference,
    psi,
    tiled_json,
    to_json_reference,
    value_reference,
)
from reference import r_coeffs_recursive
from test_cert_bytes import PINNED, PINNED_TILED

HALF = Fraction(1, 2)


class TestPsi:
    def test_values(self):
        # the reference indicator takes the point s as t = 2s
        assert psi(3, 12) == 1
        assert psi(3, 8) == 0
        assert psi(3, 0) == 1
        assert psi(2, 7) == 0
        assert psi(1, 5) == 0  # half-odd point, never divisible
        assert psi(1, -8) == 1

    def test_bad_modulus(self):
        with pytest.raises(InputError):
            psi(0, 1)


class TestPeriodicFn:
    def test_residue_indexing(self):
        # the value at s sits at 2s mod 2 * period
        f = PeriodicFn(2, [10, 11, 12, 13])
        assert at_twice(f, 0) == 10
        assert at_twice(f, 1) == 11
        assert at_twice(f, 2) == 12
        assert at_twice(f, -1) == 13
        assert at_twice(f, 4) == 10  # wraps at the period

    def test_length_enforced(self):
        with pytest.raises(InputError):
            PeriodicFn(2, [1, 2, 3])

    def test_integer_table(self):
        f = PeriodicFn(2, [Fraction(1, 6), 0, Fraction(-1, 4), 3])
        assert (f.den, f.nums) == (12, (2, 0, -3, 36))
        assert f.values == (Fraction(1, 6), 0, Fraction(-1, 4), 3)
        assert all(type(v) is Fraction for v in f.values)
        assert (PeriodicFn(1, [0, 0]).den, PeriodicFn(1, [0, 0]).nums) == (1, (0, 0))
        assert PeriodicFn.from_numerators(2, 24, [4, 0, -6, 72]) == f

    def test_stored_at_least_period(self):
        # the table is cut to its least period before it is reduced there:
        # 2 cells, an odd number of cells (stored as twice as many), and a
        # full table that does not repeat
        halves = PeriodicFn.from_numerators(3, 4, [2, 6] * 3)
        assert (halves.period, halves.den, halves.nums) == (1, 2, (1, 3))
        odd = PeriodicFn.from_numerators(6, 1, [1, 2, 3] * 4)
        assert (odd.period, odd.nums) == (3, (1, 2, 3, 1, 2, 3))
        whole = PeriodicFn.from_numerators(3, 1, [0, 0, 0, 0, 0, 1])
        assert (whole.period, whole.nums) == (3, (0, 0, 0, 0, 0, 1))
        constant = PeriodicFn(5, [Fraction(-3, 4)] * 10)
        assert (constant.period, constant.den, constant.nums) == (1, 4, (-3, -3))

    def test_equality_by_function(self):
        # one function handed over at period 1 and at period 3 is stored
        # once, at period 1, so plain (den, nums) equality and hash go by it
        short, long = PeriodicFn(1, [5, 7]), PeriodicFn(3, [5, 7] * 3)
        assert (long.period, long.den, long.nums) == (short.period, short.den, short.nums)
        assert short == long and long == short
        assert hash(short) == hash(long)
        assert len({short, long, PeriodicFn(2, [5, 7] * 2)}) == 1
        # least period 2 handed over at 2 and at 6; least period 1 handed
        # over at 2 and at 3, neither of which divides the other
        two, six = PeriodicFn(2, [1, 0, 3, 0]), PeriodicFn(6, [1, 0, 3, 0] * 3)
        assert two == six and hash(two) == hash(six) and six.period == 2
        assert PeriodicFn(2, [1, 2, 1, 2]) == PeriodicFn(3, [1, 2] * 3)
        # a different denominator, or one different cell at either period
        assert short != PeriodicFn(1, [Fraction(5, 2), Fraction(7, 2)])
        assert short != PeriodicFn(3, [5, 7, 5, 7, 5, 8])
        assert PeriodicFn(3, [5, 7, 5, 7, 5, 8]) != short
        assert two != PeriodicFn(6, [1, 0, 3, 0, 1, 0, 3, 0, 1, 1, 3, 0])
        assert PeriodicFn(2, [1, 2, 1, 2]) != PeriodicFn(3, [1, 2, 1, 2, 2, 2])

    @pytest.mark.parametrize("bad", [0.1, True, "1/2", None, 1j])
    def test_only_ints_and_fractions(self, bad):
        with pytest.raises(InputError):
            PeriodicFn(1, [0, bad])
        with pytest.raises(InputError):
            PeriodicFn(1, [bad] * 2)

    @pytest.mark.parametrize("den, nums", [
        (-2, [0, 1]),  # compared unequal to its reduced form and wrote "0/-1"
        (0, [0, 1]),
        (True, [0, 1]),
        (2.0, [0, 1]),
        (Fraction(2), [0, 1]),
        (1, [0, 0.5]),
        (1, [0, True]),
        (1, [1, True]),  # a bool equal to another cell's int
        (1, [0, Fraction(1, 2)]),
        (1, ["1", 0]),
    ])
    def test_constructor_checks_denominator_and_numerators(self, den, nums):
        with pytest.raises(InputError):
            PeriodicFn.from_numerators(1, den, nums)

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
        for n in range(8):
            t = 2 * n + 3  # 2s, s = n + xi
            w0 = Fraction(3, 2) * at_twice(c.coeffs[0], t) + at_twice(c.coeffs[1], t)
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
        # the same function at master period 6 (both builders) and at 12 and
        # 18, neither of which divides the new lcm 30: one result
        prevs = [
            build_recursive((2, 3)),
            build_explicit((2, 3)),
            build_recursive((2, 3)).aligned(12),
            build_recursive((2, 3)).aligned(18),
        ]
        for prev in prevs:
            assert extend_recursive(prev, 5) == build_recursive((2, 3, 5)), prev
        # three parts at master period 24, which does not divide the new lcm 60
        prev = build_recursive((2, 3, 4)).aligned(24)
        assert extend_recursive(prev, 5) == build_recursive((2, 3, 4, 5))

    def test_matches_dense_rotation_on_both_parities(self):
        # hand-built previous levels, not certificates, with nonzero cells
        # on both parities of every coefficient: the correlation over
        # nonzero cells assumes no parity class and equals dense rotation
        rng = random.Random(30)
        for prev_parts, d_new in [((2, 3), 5), ((2, 3), 4), ((1, 2), 2), ((4,), 6), ((1, 3, 2), 3)]:
            tau = lcm_of(prev_parts)
            periods = [p for p in range(1, tau + 1) if tau % p == 0]
            coeffs = []
            for _ in prev_parts:
                period = rng.choice(periods)
                cells = [Fraction(rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 6))
                         for _ in range(2 * period)]
                coeffs.append(PeriodicFn(period, cells))
            prev = QuasiPoly(prev_parts, coeffs, tau)
            for fn in prev.coeffs:
                assert any(fn.nums[0::2]) and any(fn.nums[1::2])
            assert extend_recursive(prev, d_new) == extend_reference(prev, d_new), prev_parts


def _closure(parts):
    """closure_fn's (den, table) of 2 d_m numerators as the function it is."""
    return PeriodicFn.from_numerators(parts[-1], *closure_fn(parts))


class TestExplicit:
    def test_one_part_equals_base_case(self):
        assert build_explicit((1,)) == base_case(1)
        assert build_explicit((4,)) == base_case(4)
        # build_recursive's first step is closure_fn alone: the one-part indicator
        for d in range(1, 13):
            assert _closure((d,)) == base_case(d).coeffs[0], d
            assert build_recursive((d,)) == base_case(d), d

    def test_matches_recursive_tables(self):
        for parts in [(1, 2), (2, 3), (2, 2), (1, 2, 3), (2, 3, 4), (1, 1, 3)]:
            e = build_explicit(parts)
            r = build_recursive(parts)
            assert e == r, parts

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
            assert cert == certs[0]


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
                want = sum(
                    psi(d1, rho - (2 * p + 1) * d2 - d1)
                    for p in range(tau // d2)
                ) / tau
                assert at_twice(c.coeffs[0], rho) == want, (d1, d2, rho)

    def test_free_coefficient_partial(self):
        # the piece reachable from the one-part level
        for d1, d2 in self.PAIRS:
            tau = lcm_of((d1, d2))
            c = build_recursive((d1, d2))
            rem = _closure((d1, d2))
            for rho in range(2 * tau):
                want = sum(
                    bernoulli_poly(1, 1 - Fraction((2 * p + 1) * d2, 2 * tau))
                    * psi(d1, rho - (2 * p + 1) * d2 - d1)
                    for p in range(tau // d2)
                )
                assert at_twice(c.coeffs[1], rho) - at_twice(rem, rho) == want, (d1, d2, rho)

    def test_free_coefficient_remainder(self):
        # remainder piece, periodic in the second part
        for d1, d2 in self.PAIRS:
            tau = lcm_of((d1, d2))
            rem = _closure((d1, d2))
            for rho in range(2 * tau):
                want = sum(
                    bernoulli_poly(1, 1 - Fraction((2 * p + 1) * d1, 2 * tau))
                    * psi(d2, rho - (2 * p + 1) * d1 - d2)
                    for p in range(tau // d1)
                )
                assert at_twice(rem, rho) == want, (d1, d2, rho)


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
            rem = _closure(parts)
            for rho in range(2 * tau):
                acc = at_twice(rem, rho)
                for l in range(1, m):
                    for p in range(tau // dm):
                        sp = rho + (2 * p + 1) * dm  # 2s + (2p+1) d_m
                        acc += (
                            Fraction(tau) ** (l - 1)
                            / l
                            * bernoulli_poly(l, Fraction(sp, 2 * tau))
                            * at_twice(prev.coeffs[m - l - 1], sp)
                        )
                assert acc == cert.value(Fraction(rho, 2)), (parts, rho)


class TestRecurrences:
    def test_single_step(self):
        for parts in [(1, 2), (2, 3), (1, 2, 3), (2, 2, 3), (2, 3, 4, 5)]:
            cert = build_explicit(parts)
            prev = build_explicit(parts[:-1])
            dm = parts[-1]
            tau = cert.master_period
            for rho in range(2 * tau):
                lhs = cert.value(Fraction(rho, 2)) - cert.value(Fraction(rho - 2 * dm, 2))
                assert lhs == prev.value(Fraction(rho - dm, 2)), (parts, rho)

    def test_full_period_step(self):
        for parts in [(1, 2), (2, 3), (1, 2, 3), (2, 2, 3)]:
            cert = build_explicit(parts)
            prev = build_explicit(parts[:-1])
            dm = parts[-1]
            tau = cert.master_period
            for rho in range(0, 2 * tau, 3):
                lhs = cert.value(Fraction(rho + 2 * tau, 2)) - cert.value(Fraction(rho, 2))
                rhs = sum(
                    prev.value(Fraction(rho + 2 * tau - (2 * p + 1) * dm, 2))
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
                assert cert.value(Fraction(-t, 2)) == sign * cert.value(Fraction(t, 2)), (parts, t)

    def test_forced_zeros(self):
        for parts in [(1, 2), (1, 2, 3, 4), (2, 3, 4, 5), (1, 1, 1, 2, 3)]:
            m = len(parts)
            cert = build_explicit(parts)
            if m % 2 == 0:
                pts = [Fraction(2 * k, 2) for k in range(m // 2)]
            else:
                pts = [Fraction(2 * k + 1, 2) for k in range((m - 1) // 2)]
            for s in pts:
                assert cert.value(s) == 0, (parts, s)

    def test_off_natural_grid_vanishes(self):
        for parts in [(1,), (1, 2), (2, 3), (1, 2, 3)]:
            cert = build_explicit(parts)
            off = 1 - sum(parts) % 2
            for t in range(off, 4 * cert.master_period, 2):
                assert cert.value(Fraction(t, 2)) == 0
                assert cert.value(Fraction(-t, 2)) == 0


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

    def test_value_takes_lattice_points(self):
        # an int, a half-odd Fraction and a Fraction with denominator 1, each on
        # its certificate's natural grid, where V(n + xi) is the count at n
        one_two, one_one = build_explicit((1, 2)), build_explicit((1, 1))
        assert one_two.value(Fraction(5, 2)) == one_two.count(1) == 1
        assert one_one.value(3) == one_one.count(2) == 3
        assert one_one.value(Fraction(-4)) == one_one.count(-5) == -4

    @pytest.mark.parametrize("s", [True, 1.5, Fraction(1, 3), "1/2"])
    def test_value_refuses_off_lattice(self, s):
        with pytest.raises(InputError, match="is not a half-integer lattice point"):
            build_explicit((1, 2)).value(s)

    @pytest.mark.parametrize("parts", list(PINNED), ids=lambda p: ",".join(map(str, p)))
    def test_xi_is_the_json_shift(self, parts):
        cert = build_explicit(parts)
        assert cert.xi == Fraction(sum(parts), 2)
        assert str(cert.xi) == json.loads(cert.to_json())["xi"]

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
        # doubling the master period keeps every coefficient as it is stored
        c = build_explicit((1, 2))
        d = c.aligned(4)
        assert d.master_period == 4
        assert d.coeffs == c.coeffs
        assert [fn.period for fn in d.coeffs] == [fn.period for fn in c.coeffs]

    def test_values_unchanged(self):
        c = build_explicit((2, 3))
        d = c.aligned(12)
        for t in range(-20, 21):
            assert c.value(Fraction(t, 2)) == d.value(Fraction(t, 2))

    def test_rejects_non_multiple(self):
        with pytest.raises(InputError):
            build_explicit((2, 3)).aligned(9)

    def test_keeps_stored_tables(self):
        # a period-1 coefficient under master period 3: the stored table is
        # not tiled, and every value is unchanged
        c = QuasiPoly((1,), (PeriodicFn(1, [5, 7]),), 1)
        d = c.aligned(3)
        (f,), (g,) = c.coeffs, d.coeffs
        assert (d.master_period, g.period) == (3, 1)
        assert g.values == (5, 7)
        for t in range(-6, 7):
            assert at_twice(f, t) == at_twice(g, t)
            assert c.value(Fraction(t, 2)) == d.value(Fraction(t, 2))

    @pytest.mark.parametrize("target", [0, -1, True, 2.0])
    def test_rejects_non_periods(self, target):
        # True == 1 is a multiple of master period 1, but a bool is never a period
        with pytest.raises(InputError, match="is not a positive multiple"):
            QuasiPoly((1,), (PeriodicFn(1, [5, 7]),), 1).aligned(target)


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


def _shift_fold_direct(d, m, pivot, skip):
    """The shift-sum fold on Fractions, position by position, over the direct
    weights at t = lcm(d_k, pivot) mod 2*pivot, with (total exponent, zero
    count) states and e = 0 dropped at the first `skip` positions: the form
    _shift_fold runs on integer numerators, kept here as its reference."""
    size = 2 * pivot
    fold = {(0, 0): {pivot: Fraction(1)}}
    for k, dk in enumerate(d):
        per_e = _direct_at_lcm(dk, m, size)
        nxt = {}
        for (l, z), table in fold.items():
            for e in range(1 if k < skip else 0, m - l):
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
        # 40 lookups: the recurrence's prefix reads the recursive pass's
        # levels, so it looks up no weights of its own
        _shift_weights.cache_clear()
        run_properties((1, 2, 3, 4, 5))
        info = _shift_weights.cache_info()
        assert (info.misses, info.hits + info.misses) == (32, 40)
        run_properties((1, 2, 3, 4, 5))
        assert _shift_weights.cache_info().misses == 32
        assert _shift_weights.cache_info().hits == info.hits + 40

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
def _pivot_fold_direct(others, di, skip):
    """The reference fold over `others` around pivot d_i, as build_explicit and
    closure_fn start it; cached because many lists share one (read-only)."""
    return _shift_fold_direct(others, len(others) + 1, di, skip)


def _shift_fold_reference(d, m, pivot, skip=0):
    """_shift_fold on integer numerators as it ran with (total exponent, zero
    count) states and q rotations per e = 0 step, with e = 0 dropped at the
    first `skip` positions. Kept as the reference for the coset step and for
    the paper's split weight 1/(1+z), which reads the zero count."""
    size = 2 * pivot
    den = 1
    fold = {(0, 0): {pivot: 1}}
    for k, dk in enumerate(d):
        dk_den, per_e = _shift_weights(dk, m, size)
        den *= dk_den
        nxt = {}
        for (l, z), table in fold.items():
            for e in range(1 if k < skip else 0, m - l):
                out = nxt.setdefault((l + e, z + (e == 0)), {})
                for sh, w in per_e[e]:
                    for res, a in table.items():
                        key = (res + sh) % size
                        out[key] = out.get(key, 0) + a * w
        fold = nxt
    return den, fold


def _by_total(fold, m):
    """An (l, z)-keyed fold as _shift_fold keeps it: the m tables of total
    exponent l, each summed over the zero count z."""
    merged = [{} for _ in range(m)]
    for (l, _), table in fold.items():
        for res, a in table.items():
            merged[l][res] = merged[l].get(res, 0) + a
    return merged


def _fold_cells(pivot, d, folded):
    """_shift_fold's (den, fold, flat) as (den, tables): each flat value
    folded back into its table, added at every key of the parity class
    pivot + sum(d) mod 2. The plain residue tables the references keep."""
    den, fold, flat = folded
    tables = [dict(table) for table in fold]
    for table, u in zip(tables, flat):
        for key in range((pivot + sum(d)) % 2, 2 * pivot, 2):
            table[key] = table.get(key, 0) + u
    return den, tables


def _carries(pivot, d, skip):
    """Whether a fold takes an e = 0 step at a part coprime to a pivot above
    1, the step whose table _shift_fold carries as one integer."""
    return pivot > 1 and any(math.gcd(dk, pivot) == 1 for dk in d[skip:])


def _nonzero(fold):
    """The fold as a function: each table with its zero cells dropped. The
    coset step writes no cell whose sum is zero; a rotation may."""
    return [{res: a for res, a in table.items() if a} for table in fold]


class TestShiftFold:
    # every ordered list with m <= 4 and parts <= 6, and 1..7
    LISTS = [
        p for m in range(1, 5) for p in itertools.product(range(1, 7), repeat=m)
    ] + [(1, 2, 3, 4, 5, 6, 7)]

    def test_integer_fold_matches_fraction_fold(self):
        # every pivot of every list, at every number 0..m-1 of leading
        # positions that skip e = 0; the fold depends only on (others, d_i)
        pivots = {(d[:i] + d[i + 1 :], di) for d in self.LISTS for i, di in enumerate(d)}
        for others, di in sorted(pivots):
            m = len(others) + 1
            for skip in range(m):
                den, fold = _fold_cells(di, others, _shift_fold(others, m, di, skip))
                got = [{res: Fraction(a, den) for res, a in table.items()} for table in _nonzero(fold)]
                ref = _by_total(_pivot_fold_direct(others, di, skip), m)
                assert got == _nonzero(ref), (others, di, skip)

    @pytest.mark.parametrize("leading", [False, True])
    def test_fold_matches_reference(self, leading):
        # every pivot of every list here, of the benchmark's and of PINNED, at
        # every number of leading positions that take e >= 1 only: none, as
        # closure_fn folds, or each count 1..m-1 that build_explicit passes
        lists = self.LISTS + BENCH_LISTS + list(PINNED)
        pivots = {(d[:i] + d[i + 1 :], di) for d in lists for i, di in enumerate(d)}
        cosets = carries = 0
        for others, di in sorted(pivots):
            m = len(others) + 1
            for skip in range(1, m) if leading else [0]:
                folded = _shift_fold(others, m, di, skip)
                den, fold = _fold_cells(di, others, folded)
                ref_den, ref = _shift_fold_reference(others, m, di, skip)
                expected = (ref_den, _nonzero(_by_total(ref, m)))
                assert (den, _nonzero(fold)) == expected, (others, di, skip)
                cosets += any(math.gcd(2 * dk, 2 * di) < 2 * di for dk in others[skip:])
                # only such a step makes a flat value (a fold whose tables
                # all vanish before it makes none)
                carried = _carries(di, others, skip)
                assert carried or not any(folded[2]), (others, di, skip)
                carries += carried
        assert cosets > 1000  # the coset step is what most of these folds run
        assert carries > 1000  # and an e = 0 step at a part coprime to the pivot

    def test_run_fold_is_sum_of_copy_folds(self):
        # a part v with c copies, i parts before them: the one fold with
        # copies=c equals the c reference folds that skip e = 0 at the first
        # i + j positions, j < c, summed cell for cell with the flat value.
        # Runs are taken in each list's own order too: the parts before and
        # after the copies need not be smaller or larger than v
        rng = random.Random(31)
        lists = self.LISTS + BENCH_LISTS + list(PINNED) + [(1,) * 7, (2, 1, 2, 1, 2, 1)]
        lists += [tuple(rng.sample(d, len(d))) for d in lists]
        runs = set()
        for d in lists:
            for v, c in collections.Counter(d).items():
                rest = tuple(x for x in d if x != v)
                i = sum(x < v for x in d)
                runs.add((rest[:i] + (v,) * (c - 1) + rest[i:], v, i, c))
        for seq, v, i, c in sorted(runs):
            m = len(seq) + 1
            den, fold = _fold_cells(v, seq, _shift_fold(seq, m, v, i, c))
            ref_den, ref = None, [{} for _ in range(m)]
            for j in range(c):
                ref_den, copy = _shift_fold_reference(seq, m, v, i + j)
                for total, table in zip(ref, _by_total(copy, m)):
                    for res, a in table.items():
                        total[res] = total.get(res, 0) + a
            assert (den, _nonzero(fold)) == (ref_den, _nonzero(ref)), (seq, v, i, c)
        # every multiplicity up to 7 is folded as one run
        assert sum(c >= 3 for *_, c in runs) > 40
        assert max(c for *_, c in runs) == 7

    def test_closure_fn_matches_fraction_fold(self):
        # its 2 d_m numerators over its denominator are the reference table,
        # cell for cell, the flat value included
        for d in self.LISTS:
            m, size = len(d), 2 * d[-1]
            table = [Fraction(0)] * size
            for (l, _), res_table in _pivot_fold_direct(d[:-1], d[-1], 0).items():
                if l == m - 1:
                    for res, a in res_table.items():
                        table[res] += a
            den, nums = closure_fn(d)
            assert len(nums) == size and all(type(a) is int for a in nums), d
            assert [Fraction(a, den) for a in nums] == table, d


# the benchmark's deep and wide lists
BENCH_LISTS = [
    (1, 2, 3, 4, 5), (1, 1, 2, 3, 4), (1, 1, 1, 2, 2, 3), (1, 1, 2, 2, 3, 3),
    (1, 2, 2, 3, 3, 4), (2, 2, 3, 3, 4, 4),
    (2, 3, 5, 7), (5, 6, 7), (3, 7, 10), (3, 7, 11), (4, 5, 11), (5, 7, 9),
]


class TestIntegerTables:
    @pytest.mark.parametrize("builder", [build_explicit, build_recursive])
    def test_builders_store_reduced_tables(self, builder):
        # numerator_tables reads each coefficient at its stored 2 * period
        # cells, untiled; tiled to the master period it is the reference read
        below = 0
        for parts in list(iter_multisets(4, 6)) + BENCH_LISTS + list(PINNED):
            cert = builder(parts)
            den, tables = cert.numerator_tables()
            assert [len(col) for col in tables] == [2 * fn.period for fn in cert.coeffs], parts
            tiled = [col * (cert.master_period // fn.period) for col, fn in zip(tables, cert.coeffs)]
            assert (den, tiled) == numerators_reference(cert), parts
            below += any(fn.period < cert.master_period for fn in cert.coeffs)
            for fn in cert.coeffs:
                assert fn.den > 0 and math.gcd(fn.den, *fn.nums) == 1, parts
                assert len(fn.nums) == len(fn.values) == 2 * fn.period
                copy = PeriodicFn(fn.period, fn.values)
                assert copy == fn and hash(copy) == hash(fn), parts
        # some columns are read shorter than the master period
        assert below > 0

    @pytest.mark.parametrize("builder", [build_explicit, build_recursive])
    def test_builders_store_least_periods(self, builder):
        # every coefficient is stored at the least period least_periods finds
        # on its table tiled to the master period, at that period's cells, and
        # so is every coefficient of the file tiled to the master period
        below = 0
        for parts in list(iter_multisets(4, 6)) + BENCH_LISTS + list(PINNED):
            cert = builder(parts)
            assert cert.master_period == lcm_of(parts), parts
            own = least_periods(cert)
            parsed = QuasiPoly.from_json(tiled_json(cert.to_json()))
            for view in (cert, parsed):
                assert [(fn.period, fn.den, fn.nums) for fn in view.coeffs] == own, parts
            below += any(p < cert.master_period for p, _, _ in own)
        assert below > 0

    @pytest.mark.parametrize("builder", [build_explicit, build_recursive])
    def test_one_int_per_distinct_numerator(self, builder):
        # from_numerators reduces each distinct numerator once, for a built
        # certificate and for one read from a file tiled to the master
        # period: every cell holding a numerator holds the same int
        for parts in list(iter_multisets(4, 6)) + BENCH_LISTS + list(PINNED):
            cert = builder(parts)
            for view in (cert, QuasiPoly.from_json(tiled_json(cert.to_json()))):
                for fn in view.coeffs:
                    assert len({id(a) for a in fn.nums}) == len(set(fn.nums)), parts


class TestMaterialise:
    @pytest.mark.parametrize("builder", [build_explicit, build_recursive])
    def test_matches_reference(self, monkeypatch, builder):
        # every pieces dict either builder hands _materialise, against the form
        # that tiled each piece to 2 tau and reduced the 2 tau sums
        seen = []
        original = quasipoly._materialise

        def recording(parts, pieces):
            seen.append((parts, pieces))
            return original(parts, pieces)

        monkeypatch.setattr(quasipoly, "_materialise", recording)
        for parts in list(iter_multisets(4, 6)) + BENCH_LISTS + list(PINNED):
            builder(parts)
        partial = 0
        for parts, pieces in seen:
            assert original(parts, pieces) == materialise_reference(parts, pieces), parts
            for period, (_, tables) in pieces.items():
                for table in tables:
                    least = next(p for p in range(1, period + 1)
                                 if table == table[: 2 * p] * (period // p))
                    partial += 1 < least < period
        # some tables have a least period strictly between 1 and P and join at 2P
        assert partial > 0


class TestIntegerEvaluation:
    """value and count run integer Horner on the stored numerators and divide
    once; the Fraction Horner they replaced is the reference."""

    @pytest.mark.parametrize("builder", [build_explicit, build_recursive])
    def test_matches_fraction_reference(self, builder):
        below = 0
        for parts in list(iter_multisets(4, 6)) + BENCH_LISTS + list(PINNED):
            cert = builder(parts)
            # coefficients stored below the master period, read back from a
            # file written at the master period
            parsed = QuasiPoly.from_json(tiled_json(cert.to_json()))
            below += any(fn.period < parsed.master_period for fn in parsed.coeffs)
            sigma = sum(parts)
            # negative n at both edges of the reciprocity window -sigma < n < 0
            ns = [-sigma - 2, -sigma - 1, -sigma, -(sigma // 2), -1, *range(12), 10**6, 10**12 + 7]
            off_grid = [t for t in range(-9, 10) if (t - sigma) % 2] + [2 * 10**12 + sigma + 1]
            for view in (cert, cert.aligned(2 * cert.master_period), parsed):
                assert [view.count(n) for n in ns] == [count_reference(view, n) for n in ns], parts
                for t in off_grid:
                    s = Fraction(t, 2)
                    assert view.value(s) == value_reference(view, s), (parts, t)
        assert below > 0

    def test_integrality_and_continuation(self):
        broken = QuasiPoly((1,), (PeriodicFn(1, [HALF, HALF]),), 1)
        with pytest.raises(IntegralityError, match=r"^count at n=2 evaluated to 1/2, not an integer$"):
            broken.count(2)
        assert broken.count(-3) == count_reference(broken, -3) == HALF
        cert = build_explicit((2, 3))
        for n in range(-12, 0):
            got = cert.count(n)
            assert got == count_reference(cert, n) and type(got) is type(count_reference(cert, n))


def _build_explicit_per_pivot(parts):
    """The paper's explicit formula, one fold per pivot position with
    (total exponent, zero count) states: each composition split evenly over
    its 1 + z zero positions, bucket (l, z) weighted by l!/(1+z) times
    binomial(m-1, l)/(m-1)!, each pivot's buckets brought to the pivots'
    common denominator and spread residue by residue into the 2 tau tables.
    The reference for build_explicit, which gives each composition to its
    first zero position and hands its pieces to _materialise."""
    d = tuple(parts)
    m = len(d)
    tau = lcm_of(d)
    top = math.factorial(m - 1) * math.lcm(*range(1, m + 1))
    pivots = []
    for i, di in enumerate(d):
        folded = [[0] * (2 * di) for _ in range(m)]
        den, fold = _shift_fold_reference(d[:i] + d[i + 1 :], m, di)
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
        # the multi-part lists with m <= 5 and parts <= 6, sorted and in one
        # seeded shuffled order each: the first zero position depends on order
        multi = [p for p in iter_multisets(5, 6) if len(p) > 1]
        rng = random.Random(26)
        shuffled = [tuple(rng.sample(p, len(p))) for p in multi]
        extra = [(1, 1, 1, 1, 1, 1, 1), (3, 3, 5), (7,), (2, 1, 2), (6, 1, 4, 1)]
        for parts in multi + shuffled + BENCH_LISTS + list(PINNED) + extra:
            assert build_explicit(parts) == _build_explicit_per_pivot(parts), parts

    @pytest.mark.parametrize("parts", [(2, 3, 4), (4, 6, 3), (1, 2, 2, 3), (3, 1, 3, 2)])
    def test_pivot_term_same_at_every_zero_position(self, parts):
        # the argument in build_explicit's docstring, term by term at tau: for
        # every composition r with total below m, the pivot's indicator
        # convolved with the other positions' direct weights of exponent r_k
        # is one table, whichever position with r_i = 0 is the pivot
        m, size = len(parts), 2 * lcm_of(parts)
        weights = [_shift_weights_direct(dk, size // 2, m, size) for dk in parts]
        for r in itertools.product(range(m), repeat=m):
            zeros = [i for i, e in enumerate(r) if e == 0]
            if sum(r) >= m or len(zeros) < 2:
                continue
            terms = []
            for i in zeros:
                table = {key: Fraction(1) for key in range(parts[i], size, 2 * parts[i])}
                for k in range(m):
                    if k != i:
                        out = {}
                        for sh, w in weights[k][r[k]]:
                            for res, a in table.items():
                                key = (res + sh) % size
                                out[key] = out.get(key, 0) + a * w
                        table = out
                terms.append({res: a for res, a in table.items() if a})
            assert all(term == terms[0] for term in terms), (parts, r)

    @pytest.mark.parametrize("parts", [(1, 1, 1, 2, 2, 3), (2, 3, 5, 7), (2, 2, 2, 2), (6, 1, 4, 1)])
    def test_one_fold_per_position(self, monkeypatch, parts):
        # one fold per distinct part v, its pivot, over the sorted list less
        # one copy of v, with the i smaller parts and the other copies taking
        # e >= 1 only: one call per run of equal parts, not per position
        seen = []

        def counted(d, m, pivot, skip, copies=1):
            seen.append((pivot, skip, copies, tuple(d)))
            return _shift_fold(d, m, pivot, skip, copies)

        monkeypatch.setattr(quasipoly, "_shift_fold", counted)
        build_explicit(parts)
        ordered = tuple(sorted(parts))
        expected = []
        for v in sorted(set(parts)):
            i = ordered.index(v)
            expected.append((v, i, parts.count(v), ordered[:i] + ordered[i + 1 :]))
        assert seen == expected

    def test_no_empty_fold(self, monkeypatch):
        # every multiset with m <= 5 and parts <= 7, sorted and in one seeded
        # shuffled order: no fold comes out with no nonzero cell and an
        # all-zero flat value, as a later copy's own fold did when each
        # position was folded on its own
        empty = []

        def checked(d, m, pivot, skip, copies=1):
            den, fold, flat = _shift_fold(d, m, pivot, skip, copies)
            if not any(flat) and not any(a for table in fold for a in table.values()):
                empty.append((tuple(d), pivot, skip, copies))
            return den, fold, flat

        monkeypatch.setattr(quasipoly, "_shift_fold", checked)
        rng = random.Random(31)
        lists = list(iter_multisets(5, 7))
        for parts in lists + [tuple(rng.sample(p, len(p))) for p in lists]:
            build_explicit(parts)
        assert empty == []


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
        # the certificate is made, though its period-1 coefficient holds 2
        fn = PeriodicFn(1, [0, 1])
        text = QuasiPoly((1,), (fn,), 5000).to_json()
        monkeypatch.setenv("RPF_GUARD_LIMIT", "100")
        with pytest.raises(CapacityError, match="1 x 10000 cells, over the limit 100"):
            QuasiPoly.from_json(text)
        with pytest.raises(CapacityError, match="1 x 10000 cells, over the limit 100"):
            QuasiPoly((1,), (fn,), 5000)
        assert QuasiPoly((1,), (fn,), 50).master_period == 50  # at the limit

    def test_retabulation_over_limit(self, monkeypatch):
        # (1, 2) at master period 24 counts 2 tables of 48 cells, 96; at 26
        # it would count 104, refused by the constructor's guard, before any
        # coefficient is made
        cert = build_explicit((1, 2))
        monkeypatch.setenv("RPF_GUARD_LIMIT", "100")
        assert cert.aligned(24).master_period == 24

        def unmade(*args):
            raise AssertionError("a coefficient was made past the guard")

        monkeypatch.setattr(PeriodicFn, "from_numerators", unmade)
        with pytest.raises(CapacityError, match="2 x 52 cells, over the limit 100"):
            cert.aligned(26)


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
            # as built, at least periods; read back, and read from the file
            # tiled to tau, it writes the same bytes
            text = explicit.to_json()
            assert text == recursive.to_json() == to_json_reference(explicit), parts
            assert QuasiPoly.from_json(text).to_json() == text, parts
            assert QuasiPoly.from_json(tiled_json(text)).to_json() == text, parts

    def test_tiled_file_reads_as_built(self):
        # a certificate written with every coefficient tiled to tau, as the
        # builders wrote it before they stored least periods, reads back as
        # the built one: equal, at the same stored periods, counting the
        # same, and writing the built bytes, not its own
        for parts in PINNED_TILED:
            cert = build_explicit(parts)
            tau = cert.master_period
            text = tiled_json(cert.to_json())
            assert hashlib.sha256(text.encode()).hexdigest() == PINNED_TILED[parts]
            old = QuasiPoly.from_json(text)
            assert [fn.period for fn in old.coeffs] == [fn.period for fn in cert.coeffs], parts
            assert old == cert and cert == old and hash(old) == hash(cert), parts
            ns = [0, 1, 7, 2 * tau + 1, 10**12]
            assert [old.count(n) for n in ns] == [cert.count(n) for n in ns], parts
            assert old.to_json() == cert.to_json() != text, parts

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

    @pytest.mark.parametrize(
        "text, message",
        [('{"parts": [1]}', "'coefficients'"), ("[]", "list indices must be integers")],
    )
    def test_wrong_shape_rejected(self, text, message):
        # a missing key or a document that is no object: the KeyError or
        # TypeError of the read is reported as malformed
        with pytest.raises(InputError, match=f"^malformed certificate JSON: {message}"):
            QuasiPoly.from_json(text)

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

    def test_stray_residue_keys_rejected(self):
        # R_2 of (1, 2) has period 2: keys "0".."3" and nothing else
        for key, cell in [("99", "5"), ("-1", "banana"), ("4", "0"), ("00", "0"), ("x", "1")]:
            raw = json.loads(build_explicit((1, 2)).to_json())
            raw["coefficients"][1]["values"][key] = cell
            with pytest.raises(InputError, match="outside 0..3"):
                QuasiPoly.from_json(json.dumps(raw))

    def test_integer_over_digit_limit_rejected(self):
        # json.loads raises a plain ValueError for an integer longer than int() reads
        with pytest.raises(InputError, match="not valid JSON"):
            QuasiPoly.from_json('{"parts": [1' + "0" * 5000 + "]}")

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

    def test_missing_residue_named(self):
        raw = json.loads(QuasiPoly((1,), (PeriodicFn(1, [0, 1]),)).to_json())
        del raw["coefficients"][0]["values"]["1"]
        with pytest.raises(
            InputError, match=r"the power 0 coefficient \(period 1\) has no residue key '1'$"
        ):
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

    @pytest.mark.parametrize("coeffs", [[1, 2], [PeriodicFn(1, [1, 1]), Fraction(1, 2)]])
    def test_coefficients_must_be_periodic_functions(self, coeffs):
        with pytest.raises(InputError, match="coefficients must be PeriodicFn, got"):
            QuasiPoly((1, 2), coeffs)

    def test_bool_periods_rejected(self):
        with pytest.raises(InputError):
            PeriodicFn(True, [1, 1])
        with pytest.raises(InputError):
            QuasiPoly((1,), (PeriodicFn(1, [1] * 2),), True)

    def test_period_divisibility_enforced(self):
        # a function of least period 4 under master period 6 is refused
        with pytest.raises(InputError, match="coefficient period 4 does not divide master period 6"):
            QuasiPoly((2, 3), (PeriodicFn(4, [1] + [0] * 7), PeriodicFn(6, [0] * 12)), 6)
        # the check refuses a function, not a layout: a table handed over at
        # period 4 whose function has period 1 is accepted
        cert = QuasiPoly((2, 3), (PeriodicFn(4, [1] * 8), PeriodicFn(6, [0] * 12)), 6)
        assert [fn.period for fn in cert.coeffs] == [1, 1]

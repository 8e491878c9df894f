"""Certificates: construction by both routes, evaluation, structure, serialization."""

import collections
import copy
import functools
import hashlib
import itertools
import json
import math
import random
import re
import sys
import threading
import types
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

    def test_numerators_from_any_iterable(self):
        # nums is read once, as a tuple: a generator and an iterator give
        # the stored form the list gives, and a wrong length is still named
        nums = [4, 0, -6, 72, 4, 0, -6, 72]
        want = PeriodicFn.from_numerators(4, 24, nums)
        for given in ((a for a in nums), iter(nums), tuple(nums)):
            got = PeriodicFn.from_numerators(4, 24, given)
            assert (got.period, got.den, got.nums) == (want.period, want.den, want.nums)
        assert PeriodicFn.from_numerators(1, 1, iter([1, 2])) == PeriodicFn(1, [1, 2])
        with pytest.raises(InputError, match="period 2 needs 4 residue values, got 3"):
            PeriodicFn.from_numerators(2, 1, iter([1, 2, 3]))

    def test_integer_table(self):
        f = PeriodicFn(2, [Fraction(1, 6), 0, Fraction(-1, 4), 3])
        assert (f.den, f.nums) == (12, (2, 0, -3, 36))
        assert f.values == (Fraction(1, 6), 0, Fraction(-1, 4), 3)
        assert all(type(v) is Fraction for v in f.values)
        assert (PeriodicFn(1, [0, 0]).den, PeriodicFn(1, [0, 0]).nums) == (1, (0, 0))
        assert PeriodicFn.from_numerators(2, 24, [4, 0, -6, 72]) == f

    def test_stored_at_least_period(self):
        # a PeriodicFn is stored at the period it was given, reduced there,
        # and never cut: a table repeating every 2 cells, every 3 cells (an
        # odd count), one that does not repeat, and a constant. The least
        # period is the certificate's: its coeffs are built from its stored
        # rows, each cut once to its least period
        halves = PeriodicFn.from_numerators(3, 4, [2, 6] * 3)
        assert (halves.period, halves.den, halves.nums) == (3, 2, (1, 3) * 3)
        odd = PeriodicFn.from_numerators(6, 1, [1, 2, 3] * 4)
        assert (odd.period, odd.nums) == (6, (1, 2, 3) * 4)
        whole = PeriodicFn.from_numerators(3, 1, [0, 0, 0, 0, 0, 1])
        assert (whole.period, whole.nums) == (3, (0, 0, 0, 0, 0, 1))
        constant = PeriodicFn(5, [Fraction(-3, 4)] * 10)
        assert (constant.period, constant.den, constant.nums) == (5, 4, (-3,) * 10)
        # on the class 2s = 0 mod 2 of (2,), at master period 6
        given = PeriodicFn.from_numerators(3, 4, [2, 0] * 3)
        (least,) = QuasiPoly((2,), (given,), 6).coeffs
        assert (least.period, least.den, least.nums) == (1, 2, (1, 0))
        wide = PeriodicFn.from_numerators(6, 1, [1, 0, 2, 0, 3, 0] * 2)
        (least,) = QuasiPoly((2,), (wide,), 6).coeffs
        assert (least.period, least.nums) == (3, (1, 0, 2, 0, 3, 0))

    def test_equality_by_function(self):
        # a PeriodicFn compares and hashes as (den, nums) at the period it
        # was given: equal only at equal periods, where one function handed
        # over as Fractions, unreduced numerators or ints is one stored form
        short, long = PeriodicFn(1, [5, 7]), PeriodicFn(3, [5, 7] * 3)
        assert long.period == 3 and short != long and long != short
        assert len({short, long, PeriodicFn(2, [5, 7] * 2)}) == 3
        same = PeriodicFn.from_numerators(1, 2, [10, 14])
        assert same == short and short == same and hash(same) == hash(short)
        two, six = PeriodicFn(2, [1, 0, 3, 0]), PeriodicFn(6, [1, 0, 3, 0] * 3)
        assert two != six and six.period == 6
        assert six == PeriodicFn(6, [Fraction(a) for a in [1, 0, 3, 0] * 3])
        # a different denominator, or one different cell
        assert short != PeriodicFn(1, [Fraction(5, 2), Fraction(7, 2)])
        assert long != PeriodicFn(3, [5, 7, 5, 7, 5, 8])
        assert PeriodicFn(3, [5, 7, 5, 7, 5, 8]) != long
        assert six != PeriodicFn(6, [1, 0, 3, 0, 1, 0, 3, 0, 1, 1, 3, 0])
        # as coefficients, two and six are one function: the certificates are
        # equal and give it back at its least period
        certs = [QuasiPoly((1, 1), (fn, PeriodicFn(1, [1, 0])), 6) for fn in (two, six)]
        assert certs[0] == certs[1] and hash(certs[0]) == hash(certs[1])
        assert certs[1].coeffs[0] == two

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


# previous part lists and new parts for the hand-built extension tests:
# sum(prev_parts) and sum(prev_parts) + d_new each take both parities
EXTEND_CASES = [((2, 3), 5), ((2, 3), 4), ((1, 2), 2), ((4,), 6), ((1, 3, 2), 3)]


def _natural_table(parts, rng, zero):
    """A hand-built certificate-shaped table for parts at master period tau
    = lcm(parts), each coefficient at a random period dividing tau with
    random Fractions on the class sum(parts) mod 2 (zeros among them when
    zero) and 0 on the other class."""
    tau, sigma = lcm_of(parts), sum(parts) % 2
    periods = [p for p in range(1, tau + 1) if tau % p == 0]
    coeffs = []
    for _ in parts:
        period = rng.choice(periods)
        cells = [Fraction(0)] * (2 * period)
        for rho in range(sigma, 2 * period, 2):
            num = rng.randint(-9, 9) if zero else rng.randint(1, 9) * rng.choice((-1, 1))
            cells[rho] = Fraction(num, rng.randint(1, 6))
        coeffs.append(PeriodicFn(period, cells))
    return QuasiPoly(parts, coeffs, tau)


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
        # hand-built previous levels, not certificates: every coefficient
        # random and nonzero on the natural class sum(prev_parts) mod 2, with
        # both parities of that sum. The correlation over nonzero cells
        # equals dense rotation over every cell
        rng = random.Random(30)
        sums = set()
        for prev_parts, d_new in EXTEND_CASES:
            sigma = sum(prev_parts) % 2
            prev = _natural_table(prev_parts, rng, zero=False)
            for fn in prev.coeffs:
                assert all(fn.nums[sigma::2]) and not any(fn.nums[1 - sigma :: 2])
            assert extend_recursive(prev, d_new) == extend_reference(prev, d_new), prev_parts
            sums.add(sigma)
        assert sums == {0, 1}

    def test_both_classes_written_as_read(self):
        # a hand-built previous level, random on its natural class, on lists
        # whose new sums have both parities: it is read as one piece at its
        # true period, beside the closure's piece at d_new; the bytes written
        # before the first read are those written after it and those of the
        # dense-rotation reference, and reading them back gives the
        # certificate
        rng = random.Random(39)
        classes = set()
        for prev_parts, d_new in EXTEND_CASES:
            prev = _natural_table(prev_parts, rng, zero=True)
            cert = extend_recursive(prev, d_new)
            assert set(cert._pieces) == {lcm_of(prev_parts), d_new}, prev_parts
            fresh = cert.to_json()
            read = extend_recursive(prev, d_new)
            read.coeffs
            assert fresh == read.to_json() == extend_reference(prev, d_new).to_json(), prev_parts
            assert QuasiPoly.from_json(fresh) == read, prev_parts
            classes.add((sum(prev_parts) + d_new) % 2)
        assert classes == {0, 1}

    def test_off_grid_table_refused(self):
        # a table with a nonzero cell off the class sum(parts) mod 2 is no
        # certificate of its parts, so none reaches extend_recursive: the
        # constructor refuses it, naming the parts, the coefficient's power,
        # the residue and the class. Each builder's certificate with one
        # off-class cell set in any one coefficient, by the constructor and
        # by from_json, and a hand-built table on the other class only
        for prev_parts, d_new in EXTEND_CASES + [((1,), 1), ((3,), 2)]:
            m, sigma = len(prev_parts), sum(prev_parts) % 2
            for builder in (build_explicit, build_recursive):
                for j in range(m):
                    cert = builder(prev_parts)
                    coeffs = list(cert.coeffs)
                    fn = coeffs[j]
                    nums = list(fn.nums)
                    nums[1 - sigma] += 1
                    coeffs[j] = PeriodicFn.from_numerators(fn.period, fn.den, nums)
                    message = re.escape(
                        f"the power {m - 1 - j} coefficient of {prev_parts} has a nonzero cell at "
                        f"residue 2s = {1 - sigma} (mod {2 * fn.period}), off its class 2s = {sigma} mod 2"
                    )
                    with pytest.raises(InputError, match=message):
                        QuasiPoly(prev_parts, coeffs)
                    raw = json.loads(cert.to_json())
                    raw["coefficients"][j]["values"][str(1 - sigma)] = "1"
                    with pytest.raises(InputError, match=message):
                        QuasiPoly.from_json(json.dumps(raw))
            cells = [0, 0]
            cells[1 - sigma] = 1
            with pytest.raises(InputError, match=re.escape(f"the power {m - 1} coefficient of {prev_parts}")):
                QuasiPoly(prev_parts, [PeriodicFn(1, cells)] * m)
            assert extend_recursive(builder(prev_parts), d_new) == build_recursive(prev_parts + (d_new,))

    def test_period_beyond_the_parts_lcm_refused(self):
        # a hand-built certificate at a master period above lcm(parts) may
        # hold a coefficient whose period does not divide lcm(parts): it is
        # no certificate of its parts, and extend_recursive refuses it rather
        # than read its table cut short
        parts = (2, 3, 4)
        cert = build_explicit(parts)
        fns = list(cert.coeffs)
        cells = [0] * 16
        cells[1] = 1  # on the class 2s = 1 mod 2, period 8
        fns[0] = PeriodicFn(8, cells)
        wide = QuasiPoly(parts, fns, 24)
        assert wide.coeffs[0].period == 8
        with pytest.raises(InputError, match=re.escape("coefficient period 8 of (2, 3, 4) does not divide lcm(parts) = 12")):
            extend_recursive(wide, 5)
        # a period that divides lcm(parts) under the same master period is read
        assert extend_recursive(cert.aligned(24), 5) == build_recursive(parts + (5,))

    def test_recursive_pass_matches_builds(self):
        # one pass gives the bytes of build_recursive on the list and on all
        # but its last part; a single part has no prefix
        lists = list(iter_multisets(4, 6)) + BENCH_LISTS + list(PINNED)
        for parts in lists:
            prefix, cert = quasipoly._recursive_pass(parts)
            assert cert.to_json() == build_recursive(parts).to_json(), parts
            if len(parts) == 1:
                assert prefix is None
            else:
                assert prefix.to_json() == build_recursive(parts[:-1]).to_json(), parts

    def test_shared_closures_match_one_level_folds(self, monkeypatch):
        # the pass reads each level's closure from one fold state per part
        # value, folded with as many buckets as that value's last level; every
        # level's table is closure_fn's own fold over that prefix as a
        # function: cell for cell once each side is put over the other's
        # denominator. Shuffles put equal parts apart
        rng = random.Random(18)
        lists = list(iter_multisets(5, 6)) + BENCH_LISTS + list(PINNED)
        lists += [tuple(rng.sample(d, len(d))) for d in lists if len(set(d)) < len(d)]
        read = []

        def recording(parts, states=None, real=quasipoly.closure_fn):
            got = real(parts, states)
            read.append((parts, states is not None, got))
            return got

        monkeypatch.setattr(quasipoly, "closure_fn", recording)
        for d in lists:
            read.clear()
            quasipoly._recursive_pass(d)
            assert [(p, shared) for p, shared, _ in read] == [(d[:k], True) for k in range(1, len(d) + 1)]
            for p, _, (den, table) in read:
                ref_den, ref = closure_fn(p)
                assert len(table) == len(ref) == p[-1], p
                assert [a * ref_den for a in table] == [b * den for b in ref], p


def _closure(parts):
    """closure_fn's (den, row) of d_m natural cells as the function it is:
    cell i laid out at 2s = 2i + sum(parts) mod 2 of 2 d_m cells, 0 on the
    other class."""
    den, row = closure_fn(parts)
    cells = [0] * (2 * len(row))
    cells[sum(parts) % 2 :: 2] = row
    return PeriodicFn.from_numerators(len(row), den, cells)


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
            (1,), (PeriodicFn(1, [0, HALF]),), 1
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
        c = QuasiPoly((1,), (PeriodicFn(1, [0, 7]),), 1)
        d = c.aligned(3)
        (f,), (g,) = c.coeffs, d.coeffs
        assert (d.master_period, g.period) == (3, 1)
        assert g.values == (0, 7)
        for t in range(-6, 7):
            assert at_twice(f, t) == at_twice(g, t)
            assert c.value(Fraction(t, 2)) == d.value(Fraction(t, 2))

    @pytest.mark.parametrize("target", [0, -1, True, 2.0])
    def test_rejects_non_periods(self, target):
        # True == 1 is a multiple of master period 1, but a bool is never a period
        with pytest.raises(InputError, match="is not a positive multiple"):
            QuasiPoly((1,), (PeriodicFn(1, [0, 7]),), 1).aligned(target)


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
                        den, per_e, _ = _shift_weights(dk, m, 2 * period)
                        assert _over_den(den, per_e) == direct[:m], (dk, period, k, m)

    def test_matches_direct_sum_at_full_period(self):
        # d_k = 31 read mod 2*37 inside (31, 37, 41), whose lcm is 47027
        den, per_e, _ = _shift_weights(31, 3, 74)
        assert _over_den(den, per_e) == _shift_weights_direct(31, 47027, 3, 74)

    def test_integer_numerators_in_lowest_terms(self):
        for dk in range(1, 13):
            for period in range(1, 13):
                den, per_e, _ = _shift_weights(dk, 5, 2 * period)
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
        # 40 lookups, one per fold position and per recursive-step piece: 20
        # in the explicit pass's 5 folds over 4 positions, 2(k-1) at each
        # recursive level k. The recurrence's prefix reads the recursive
        # pass's levels, so it looks up no weights of its own
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
        # each row's total is the sum of its numerators
        for dk, m, size in CACHE_KEYS:
            den, per_e, totals = _shift_weights(dk, m, size)
            assert (den, per_e, totals) == _shift_weights.__wrapped__(dk, m, size), (dk, m, size)
            assert _over_den(den, per_e) == _direct_at_lcm(dk, m, size), (dk, m, size)
            assert totals == tuple(sum(w for _, w in row) for row in per_e), (dk, m, size)


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
        dk_den, per_e, _ = _shift_weights(dk, m, size)
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


def _weighted(states, m, pivot):
    """A reference fold's m total-exponent states as the dense tables of a
    piece: state l's cells weighted by (m-1)!/(m-1-l)!, to be read over the
    reference's denominator times (m-1)!. The bucket weights _shift_fold
    writes, kept here as their reference."""
    top = math.factorial(m - 1)
    tables = []
    for l, table in enumerate(states):
        w = top // math.factorial(m - 1 - l)
        row = [0] * (2 * pivot)
        for res, a in table.items():
            row[res] += w * a
        tables.append(row)
    return tables


def _natural_half(tables, sigma):
    """Dense 2P reference tables as a piece holds them: the cells 2i + sigma
    of each, once the other half is asserted to be zero."""
    for table in tables:
        assert not any(table[1 - sigma :: 2]), sigma
    return [table[sigma::2] for table in tables]


def _carries(pivot, d, skip):
    """Whether a fold takes an e = 0 step at a part coprime to a pivot above
    1, the step whose table _shift_fold carries as one integer."""
    return pivot > 1 and any(math.gcd(dk, pivot) == 1 for dk in d[skip:])


class TestShiftFold:
    # every ordered list with m <= 4 and parts <= 6, and 1..7
    LISTS = [
        p for m in range(1, 5) for p in itertools.product(range(1, 7), repeat=m)
    ] + [(1, 2, 3, 4, 5, 6, 7)]
    # longer lists, where _shift_fold's forced positions (the leading ones,
    # which take e >= 1) drop most buckets: 1..10's last pivot has 9 of them
    LONG = [tuple(range(1, 11)), (1, 2) * 5, (1, 1, 1, 2, 2, 3, 3, 4)]

    def test_integer_fold_matches_fraction_fold(self):
        # every pivot of every list, at every number 0..m-1 of leading
        # positions that skip e = 0; the fold depends only on (others, d_i).
        # The Fraction reference weighted by (m-1)!/(m-1-l)! over (m-1)! is
        # zero off the class d_i + sum(others) mod 2, and on it every cell
        # of the piece, over its denominator, is the reference's
        pivots = {(d[:i] + d[i + 1 :], di) for d in self.LISTS for i, di in enumerate(d)}
        for others, di in sorted(pivots):
            m = len(others) + 1
            top = math.factorial(m - 1)
            sigma = (di + sum(others)) % 2
            for skip in range(m):
                den, tables = _shift_fold(others, m, di, skip)
                got = [[Fraction(a, den) for a in table] for table in tables]
                ref = _weighted(_by_total(_pivot_fold_direct(others, di, skip), m), m, di)
                ref = [[Fraction(a) / top for a in table] for table in ref]
                assert got == _natural_half(ref, sigma), (others, di, skip)

    @pytest.mark.parametrize("leading", [False, True])
    def test_fold_matches_reference(self, leading):
        # every pivot of every list here, of the benchmark's and of PINNED, at
        # every number of leading positions that take e >= 1 only: none, as
        # closure_fn folds, or each count 1..m-1 that build_explicit passes,
        # and then on the LONG lists too. The integer reference weighted by
        # (m-1)!/(m-1-l)! is zero off the class d_i + sum(others) mod 2, and
        # the piece is its other half over its denominator times (m-1)!,
        # every cell of every table
        lists = self.LISTS + BENCH_LISTS + list(PINNED) + (self.LONG if leading else [])
        pivots = {(d[:i] + d[i + 1 :], di) for d in lists for i, di in enumerate(d)}
        cosets = carries = 0
        for others, di in sorted(pivots):
            m = len(others) + 1
            for skip in range(1, m) if leading else [0]:
                ref_den, ref = _shift_fold_reference(others, m, di, skip)
                tables = _natural_half(_weighted(_by_total(ref, m), m, di), (di + sum(others)) % 2)
                expected = (ref_den * math.factorial(m - 1), tables)
                assert _shift_fold(others, m, di, skip) == expected, (others, di, skip)
                cosets += any(math.gcd(2 * dk, 2 * di) < 2 * di for dk in others[skip:])
                carries += _carries(di, others, skip)
        assert cosets > 1000  # the coset step is what most of these folds run
        assert carries > 1000  # and an e = 0 step at a part coprime to the pivot

    def test_run_fold_is_sum_of_copy_folds(self):
        # a part v with c copies, i parts before them: the one fold with
        # copies=c equals the c reference folds that skip e = 0 at the first
        # i + j positions, j < c, summed cell for cell and weighted by
        # (m-1)!/(m-1-l)! over their denominator times (m-1)!: zero off the
        # class v + sum(seq) mod 2, and on it the piece.
        # Runs are taken in each list's own order too: the parts before and
        # after the copies need not be smaller or larger than v. The LONG
        # lists are taken sorted, as build_explicit folds them
        rng = random.Random(31)
        lists = self.LISTS + BENCH_LISTS + list(PINNED) + [(1,) * 7, (2, 1, 2, 1, 2, 1)]
        lists += [tuple(rng.sample(d, len(d))) for d in lists] + self.LONG
        runs = set()
        for d in lists:
            for v, c in collections.Counter(d).items():
                rest = tuple(x for x in d if x != v)
                i = sum(x < v for x in d)
                runs.add((rest[:i] + (v,) * (c - 1) + rest[i:], v, i, c))
        for seq, v, i, c in sorted(runs):
            m = len(seq) + 1
            ref_den, ref = None, [{} for _ in range(m)]
            for j in range(c):
                ref_den, copy = _shift_fold_reference(seq, m, v, i + j)
                for total, table in zip(ref, _by_total(copy, m)):
                    for res, a in table.items():
                        total[res] = total.get(res, 0) + a
            tables = _natural_half(_weighted(ref, m, v), (v + sum(seq)) % 2)
            expected = (ref_den * math.factorial(m - 1), tables)
            assert _shift_fold(seq, m, v, i, c) == expected, (seq, v, i, c)
        # every multiplicity up to 7 is folded as one run
        assert sum(c >= 3 for *_, c in runs) > 40
        assert max(c for *_, c in runs) == 7

    def test_closure_fn_matches_fraction_fold(self):
        # its d_m natural numerators over its denominator are the reference
        # table's cells on the class sum(d) mod 2, cell for cell, the flat
        # value included, and the reference is zero on the other class
        for d in self.LISTS:
            m, size = len(d), 2 * d[-1]
            table = [Fraction(0)] * size
            for (l, _), res_table in _pivot_fold_direct(d[:-1], d[-1], 0).items():
                if l == m - 1:
                    for res, a in res_table.items():
                        table[res] += a
            den, nums = closure_fn(d)
            assert len(nums) == d[-1] and all(type(a) is int for a in nums), d
            assert [[Fraction(a, den) for a in nums]] == _natural_half([table], sum(d) % 2), d


# the benchmark's deep and wide lists
WIDE_LISTS = [(2, 3, 5, 7), (5, 6, 7), (3, 7, 10), (3, 7, 11), (4, 5, 11), (5, 7, 9)]
BENCH_LISTS = [
    (1, 2, 3, 4, 5), (1, 1, 2, 3, 4), (1, 1, 1, 2, 2, 3), (1, 1, 2, 2, 3, 3),
    (1, 2, 2, 3, 3, 4), (2, 2, 3, 3, 4, 4),
] + WIDE_LISTS
# the ladder of larger lists the performance notes time
LADDER = [
    (1, 2, 3, 4), tuple(range(1, 7)), (2, 3, 5, 7), tuple(range(1, 10)), tuple(range(1, 11)),
    (2, 3, 5, 7, 11), (1, 1, 2, 2, 3, 3, 4, 4), (31, 37, 41),
]


class TestIntegerTables:
    @pytest.mark.parametrize("builder", [build_explicit, build_recursive])
    def test_builders_store_reduced_tables(self, builder):
        # numerator_tables reads each coefficient at its period's natural
        # cells, untiled; tiled to the master period it is the natural half
        # of the reference read, whose other half is zero
        below = 0
        for parts in list(iter_multisets(4, 6)) + BENCH_LISTS + list(PINNED):
            cert = builder(parts)
            sigma = sum(parts) % 2
            den, tables = cert.numerator_tables()
            assert [len(col) for col in tables] == [fn.period for fn in cert.coeffs], parts
            tiled = [col * (cert.master_period // fn.period) for col, fn in zip(tables, cert.coeffs)]
            ref_den, ref = numerators_reference(cert)
            assert (den, tiled) == (ref_den, [col[sigma::2] for col in ref]), parts
            assert not any(a for col in ref for a in col[1 - sigma :: 2]), parts
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
        # the stored form keeps one int per distinct numerator, for a filled
        # certificate and for one read from a file tiled to the master
        # period: every cell holding a numerator, in any stored row, and so
        # in any row of numerator_tables, holds the same int. A certificate
        # that still holds its pieces is filled first: numerator_tables does
        # not fill it. A PeriodicFn built from the rows shares nothing
        for parts in list(iter_multisets(4, 6)) + BENCH_LISTS + list(PINNED):
            cert = builder(parts)
            cert.count(0)
            for view in (cert, QuasiPoly.from_json(tiled_json(cert.to_json()))):
                for rows in (view._stored[1], view.numerator_tables()[1]):
                    cells = [a for row in rows for a in row]
                    assert len({id(a) for a in cells}) == len(set(cells)), parts

    @pytest.mark.parametrize("builder", [build_explicit, build_recursive])
    def test_tables_before_and_after_the_first_read(self, builder):
        # numerator_tables never fills: on a certificate that still holds its
        # pieces it gives their sums reduced by one joint gcd, and once the
        # first read has filled the stored form, the same (den, rows). Every
        # stored row holds its coefficient's period of natural cells, for a
        # built certificate and for one read from a file tiled to tau
        for parts in list(iter_multisets(4, 6)) + WIDE_LISTS + LADDER:
            cert = builder(parts)
            den, rows = before = cert.numerator_tables()
            assert cert._pieces is not None and cert._stored is None, parts
            assert math.gcd(den, *(a for row in rows for a in row)) == 1, parts
            cert.count(0)
            assert cert._pieces is None, parts
            assert cert.numerator_tables() == before, parts
            for view in (cert, QuasiPoly.from_json(tiled_json(cert.to_json()))):
                assert [len(row) for row in view._stored[1]] == [fn.period for fn in view.coeffs], parts

    def test_tables_are_fresh_lists(self):
        # numerator_tables hands out lists of its own: changing them changes
        # neither the certificate's counts, bytes and equality nor a later read
        for cert in (build_explicit((2, 3, 5, 7)), build_recursive((1, 2, 2, 3)),
                     QuasiPoly.from_json(build_explicit((5, 7, 9)).to_json())):
            ns = [0, 1, 2, 17, 10**12]
            text, counts, again = cert.to_json(), [cert.count(n) for n in ns], QuasiPoly.from_json(cert.to_json())
            den, tables = cert.numerator_tables()
            kept = copy.deepcopy(tables)
            assert all(type(row) is list for row in tables)
            for row in tables:
                row[:] = [a + 1 for a in row]
                row.append(5)
            tables.append([1, 1])
            assert cert.numerator_tables() == (den, kept)
            assert cert.to_json() == text and [cert.count(n) for n in ns] == counts
            assert cert == again and hash(cert) == hash(again)

    def test_hand_built_mixed_denominators(self):
        # coefficients over the reduced denominators 3, 4 and 1, each zero
        # off the even class of (1, 2, 3), are stored over their lcm 12, and
        # every read gives the Fraction reference read from the
        # coefficients' own values. At u = n + 3 = t/2, V is 8u^2/3, an int
        # when 3 divides u, plus u/4 (u even) or -u/2 (u odd), plus an int:
        # an int when 12 divides u
        fns = (
            PeriodicFn(1, [Fraction(8, 3), 0]),
            PeriodicFn(2, [Fraction(1, 4), 0, Fraction(-1, 2), 0]),
            PeriodicFn(3, [1, 0, 0, 0, 7, 0]),
        )
        assert [fn.den for fn in fns] == [3, 4, 1]
        parts = (1, 2, 3)
        cert = QuasiPoly(parts, fns)
        assert cert.master_period == 6 and cert.coeffs == fns
        want = [[int(v * 12) for v in fn.values[::2]] for fn in fns]
        assert cert.numerator_tables() == (12, want) == (12, [[32], [3, -6], [12, 0, 84]])
        # the references read the given coefficients, not the stored form
        given = types.SimpleNamespace(parts=parts, coeffs=fns, m=3, master_period=6, xi=cert.xi)
        for n in range(-20, 20):
            ref = count_reference(given, n)
            assert (type(ref) is int) == (n % 12 == 9), n
            if n >= 0 and type(ref) is Fraction:
                with pytest.raises(IntegralityError):
                    cert.count(n)
            else:
                assert cert.count(n) == ref and type(cert.count(n)) is type(ref), n
        for t in range(-30, 30):
            assert cert.value(Fraction(t, 2)) == value_reference(given, Fraction(t, 2)), t
        text = cert.to_json()
        assert text == to_json_reference(given)
        # the same functions given unreduced, or tiled past their least period
        same = QuasiPoly(parts, (
            PeriodicFn.from_numerators(2, 9, [24, 0, 24, 0]),
            PeriodicFn.from_numerators(2, 8, [2, 0, -4, 0]),
            PeriodicFn(6, list(fns[2].values) * 2),
        ))
        for other in (same, QuasiPoly.from_json(text), QuasiPoly.from_json(tiled_json(text))):
            assert other == cert and cert == other and hash(other) == hash(cert)
            assert other.numerator_tables() == cert.numerator_tables()
            assert other.to_json() == text
        aligned = cert.aligned(12)
        assert aligned == QuasiPoly(parts, fns, 12) and aligned != cert
        assert aligned.numerator_tables() == cert.numerator_tables()
        changed = QuasiPoly(parts, (PeriodicFn(1, [Fraction(2, 3), 0]),) + fns[1:])
        assert changed != cert and changed.numerator_tables()[0] == 12


def _handed(monkeypatch, builder, lists=None):
    """Every (parts, pieces) the builder hands _materialise on the lists (by
    default iter_multisets(4, 6), BENCH_LISTS and PINNED's), recorded
    through a patch, and the unpatched _materialise."""
    seen = []
    original = quasipoly._materialise

    def recording(parts, pieces):
        seen.append((parts, pieces))
        return original(parts, pieces)

    monkeypatch.setattr(quasipoly, "_materialise", recording)
    if lists is None:
        lists = list(iter_multisets(4, 6)) + BENCH_LISTS + list(PINNED)
    for parts in lists:
        builder(parts)
    return seen, original


def _dense(parts, pieces):
    """A builder's pieces as the 2P-cell tables materialise_reference reads,
    {P: (den, tables)}: each piece is keyed by its period P and must hold P
    cells per table, and its cells go to 2i + sum(parts) mod 2, the class
    taken from the parts, the other half zero."""
    sigma = sum(parts) % 2
    dense = {}
    for period, (den, tables) in pieces.items():
        assert all(len(t) == period for t in tables), (parts, period)
        rows = []
        for table in tables:
            row = [0] * (2 * period)
            row[sigma::2] = table
            rows.append(row)
        dense[period] = (den, rows)
    return dense


class TestMaterialise:
    @pytest.mark.parametrize("builder", [build_explicit, build_recursive])
    def test_matches_reference(self, monkeypatch, builder):
        # every pieces dict either builder hands _materialise, laid out on
        # 2P cells with the off-class half zero (_dense), against the form
        # that tiled each piece to 2 tau and reduced the 2 tau sums
        seen, original = _handed(monkeypatch, builder)
        partial = 0
        for parts, pieces in seen:
            reference = materialise_reference(parts, _dense(parts, pieces))
            assert original(parts, pieces) == reference, parts
            for period, (_, tables) in pieces.items():
                for table in tables:
                    least = next(p for p in range(1, period + 1)
                                 if table == table[:p] * (period // p))
                    partial += 1 < least < period
        # some tables have a least period strictly between 1 and P and join at P
        assert partial > 0


    @pytest.mark.parametrize("builder", [build_explicit, build_recursive])
    def test_pieces_hold_natural_cells(self, monkeypatch, builder):
        # every piece either builder hands _materialise is keyed by its
        # period P alone, an int dividing lcm(parts), and holds P cells per
        # table, on lists with sum(parts) even and odd: the class comes from
        # the parts, and the other half of a 2P table would be zero
        seen, _ = _handed(monkeypatch, builder, list(iter_multisets(4, 6)) + WIDE_LISTS + LADDER)
        classes = set()
        for parts, pieces in seen:
            for period, (_, tables) in pieces.items():
                assert type(period) is int and lcm_of(parts) % period == 0, parts
                assert len(tables) == len(parts) and all(len(t) == period for t in tables), parts
            classes.add(sum(parts) % 2)
        assert classes == {0, 1}


class TestLazyCoefficients:
    """A builder's certificate holds its pieces until coeffs is first read;
    to_json before that writes from the summed pieces."""

    @pytest.mark.parametrize("builder", [build_explicit, build_recursive])
    def test_fresh_writer_matches_reference(self, monkeypatch, builder):
        # no coefficient read: the bytes written from the summed pieces are
        # those of the certificate the tiled reference materialises from the
        # pieces laid out on 2P cells, the off-class half zero (_dense)
        seen, original = _handed(monkeypatch, builder)
        for parts, pieces in seen:
            fresh = original(parts, pieces)
            reference = materialise_reference(parts, _dense(parts, pieces))
            assert fresh.to_json() == reference.to_json(), parts

    @pytest.mark.parametrize("builder", [build_explicit, build_recursive])
    def test_reads_leave_certificate_unchanged(self, monkeypatch, builder):
        # writing and reading coeffs change neither the bytes nor the pieces
        seen, original = _handed(monkeypatch, builder)
        for parts, pieces in seen:
            kept = copy.deepcopy(pieces)
            fresh = original(parts, pieces)
            text = fresh.to_json()
            assert pieces == kept, parts
            fresh.coeffs
            assert fresh.to_json() == text, parts
            assert pieces == kept, parts

    @pytest.mark.parametrize("builder", [build_explicit, build_recursive])
    def test_fresh_and_read_compare_equal(self, monkeypatch, builder):
        seen, original = _handed(monkeypatch, builder)
        for parts, pieces in seen:
            read = original(parts, pieces)
            read.coeffs
            assert original(parts, pieces) == read, parts
            assert read == original(parts, pieces), parts
            assert hash(original(parts, pieces)) == hash(read), parts
            assert original(parts, pieces) == original(parts, pieces), parts

    def test_cert_path_makes_no_coefficient(self, monkeypatch):
        # build + to_json, the cert command's path, calls from_numerators
        # zero times, and so do both builds of (97, 101, 103), a default
        # verify call, one on fresh builder certificates, and count,
        # numerator_tables, ==, hash and aligned on fresh certificates; a read
        # of coeffs makes one call per coefficient
        calls = []
        made = PeriodicFn.from_numerators

        def counting(cls, *args):
            calls.append(args[0])
            return made(*args)

        monkeypatch.setattr(PeriodicFn, "from_numerators", classmethod(counting))
        for parts in list(iter_multisets(4, 6)) + BENCH_LISTS + list(PINNED):
            for builder in (build_explicit, build_recursive):
                builder(parts).to_json()
        for builder in (build_explicit, build_recursive):
            assert builder((97, 101, 103)).master_period == 97 * 101 * 103
        for parts in [(2, 3, 5, 7), (1, 1, 2, 3), (3, 1, 2), (6, 1, 4, 1), (5,)]:
            assert run_properties(parts).passed
            fresh = {"explicit": build_explicit(parts), "recursive": build_recursive(parts)}
            assert run_properties(parts, certs=fresh).passed
            for builder in (build_explicit, build_recursive):
                assert builder(parts).count(10**12) == fresh["explicit"].count(10**12)
                assert builder(parts).numerator_tables()[0] > 0
                assert builder(parts) == builder(parts)
                assert hash(builder(parts)) == hash(fresh["recursive"])
                assert builder(parts).aligned(2 * lcm_of(parts)).master_period == 2 * lcm_of(parts)
        assert calls == []
        build_explicit((2, 3, 5, 7)).coeffs
        assert calls == [1, 1, 1, 210]

    @pytest.mark.parametrize("builder", [build_explicit, build_recursive])
    def test_first_read_cuts_each_row_once(self, monkeypatch, builder):
        # the first read cuts each summed row of more than 2 cells to its
        # least period once (_summed), and nothing cuts it again. It cuts the
        # row's natural cells: half the lcm of its piece tables' lengths laid
        # out on 2P cells (_dense), a table constant on each lattice counted
        # as 2 cells
        seen, original = _handed(monkeypatch, builder)
        cut = []
        least = quasipoly._least_length

        def counting(col):
            cut.append(len(col))
            return least(col)

        monkeypatch.setattr(quasipoly, "_least_length", counting)
        rows = 0
        for parts, pieces in seen:
            want = []
            dense = _dense(parts, pieces)
            for j in range(len(parts)):
                lengths = [2 if t[2:] == t[:-2] else len(t)
                           for t in (tables[j] for _, tables in dense.values()) if any(t)]
                if math.lcm(2, *lengths) > 2:
                    want.append(math.lcm(*lengths) // 2)
            cut.clear()
            original(parts, pieces).count(0)
            assert cut == want, parts
            rows += len(want)
        assert rows > 0

    def test_one_cut_per_store(self, monkeypatch):
        # every certificate is stored by one path (QuasiPoly._store), and
        # _summed is its one least-period cut: building PeriodicFns of a
        # certificate's coefficients tiled to tau cuts nothing, and each of
        # the constructor on them, from_json of the document tiled to tau and
        # a builder's first read sums once
        calls = collections.Counter()
        for name in ("_least_length", "_summed"):
            def counting(*args, real=getattr(quasipoly, name), name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(quasipoly, name, counting)
        for parts in LADDER:
            certs = [builder(parts) for builder in (build_explicit, build_recursive)]
            for cert in certs:
                calls.clear()
                cert.count(0)
                assert calls["_summed"] == 1, parts
            cert, tau = certs[0], certs[0].master_period
            text = tiled_json(cert.to_json())
            calls.clear()
            fns = [PeriodicFn.from_numerators(tau, fn.den, fn.nums * (tau // fn.period)) for fn in cert.coeffs]
            assert not calls, parts
            assert QuasiPoly(parts, fns, tau) == cert
            assert calls["_summed"] == 1, parts
            calls.clear()
            assert QuasiPoly.from_json(text) == cert
            assert calls["_summed"] == 1, parts

    def test_concurrent_first_read(self):
        # 8 threads on one fresh certificate, each starting on a different
        # read (coeffs, count or to_json) at a short switch interval: every
        # thread sees the certificate build_recursive gives
        parts, n = (2, 3, 5, 7, 11), 10**6
        want = build_recursive(parts)
        expected = (want.coeffs, want.count(n), want.to_json())

        def read(k, cert, barrier, results):
            reads = (lambda: cert.coeffs, lambda: cert.count(n), cert.to_json)
            barrier.wait(timeout=60)
            got = [None] * 3
            for i in range(3):
                j = (k + i) % 3
                got[j] = reads[j]()
            results[k] = tuple(got)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                cert, barrier, results = build_explicit(parts), threading.Barrier(8), [None] * 8
                threads = [threading.Thread(target=read, args=(k, cert, barrier, results))
                           for k in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert results == [expected] * 8
        finally:
            sys.setswitchinterval(interval)


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
                # coeffs builds its PeriodicFns on each read: the references read them once
                ref = types.SimpleNamespace(parts=view.parts, coeffs=view.coeffs)
                assert [view.count(n) for n in ns] == [count_reference(ref, n) for n in ns], parts
                for t in off_grid:
                    s = Fraction(t, 2)
                    assert view.value(s) == value_reference(ref, s), (parts, t)
        assert below > 0

    def test_integrality_and_continuation(self):
        broken = QuasiPoly((1,), (PeriodicFn(1, [0, HALF]),), 1)
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
        # shuffled order: no fold returns a piece whose every cell is 0, as a
        # later copy's own fold did when each position was folded on its own
        empty = []

        def checked(d, m, pivot, skip, copies=1):
            piece = _shift_fold(d, m, pivot, skip, copies)
            if not any(map(any, piece[1])):
                empty.append((tuple(d), pivot, skip, copies))
            return piece

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
            # and so does the constructor's certificate from the built one's
            # coefficients tiled to tau: one stored form by either route
            tiled = [PeriodicFn.from_numerators(tau, fn.den, fn.nums * (tau // fn.period)) for fn in cert.coeffs]
            for old in (QuasiPoly.from_json(text), QuasiPoly(parts, tiled, tau)):
                assert [fn.period for fn in old.coeffs] == [fn.period for fn in cert.coeffs], parts
                assert old == cert and cert == old and hash(old) == hash(cert), parts
                assert old._stored == cert._stored, parts
                ns = [0, 1, 7, 2 * tau + 1, 10**12]
                assert [old.count(n) for n in ns] == [cert.count(n) for n in ns], parts
                assert old.to_json() == cert.to_json() != text, parts

    def test_writer_hand_built(self):
        # negative Fractions, plain ints, numerators sharing a factor with the
        # denominator, zero, and period-1 coefficients, each zero off the
        # class sum(parts) mod 2, on both classes
        certs = [
            QuasiPoly((1,), (PeriodicFn(1, [0, Fraction(-3, 4)]),)),
            QuasiPoly((2, 3), (
                PeriodicFn(1, [0, Fraction(1, 6)]),
                PeriodicFn(3, [0, Fraction(1, 3), 0, -1, 0, Fraction(-2, 3)]),
            )),
            QuasiPoly((2, 2), (
                PeriodicFn.from_numerators(1, 12, [-8, 0]),
                PeriodicFn.from_numerators(2, 12, [12, 0, 4, 0]),
            ), 4),
            QuasiPoly((5, 1), (PeriodicFn(1, [7, 0]), PeriodicFn(5, [-10**30, 0, 3, 0, -10**30, 0, 2, 0, 9, 0]))),
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
        [
            pytest.param(
                '{"parts": [1]}',
                "missing keys ['coefficients', 'master_period', 'xi'] in the document",
                id="""{"parts": [1]}-'coefficients'""",
            ),
            ("[]", "the document must be an object, got list"),
            ("3", "the document must be an object, got int"),
            ('"parts"', "the document must be an object, got str"),
            ("null", "the document must be an object, got NoneType"),
        ],
    )
    def test_wrong_shape_rejected(self, text, message):
        # missing keys, named in sorted order, or a document that is no
        # object, named before anything is read
        with pytest.raises(InputError, match=f"^malformed certificate JSON: {re.escape(message)}$"):
            QuasiPoly.from_json(text)

    @pytest.mark.parametrize("key", ["parts", "master_period", "xi", "coefficients", "power", "period", "values"])
    def test_missing_key_named(self, key):
        # each missing key is named beside the unknown ones, before any cell
        # is parsed: a bad cell in the first coefficient is not reached when
        # the document or the last coefficient lacks a key
        raw = json.loads(build_explicit((1, 2)).to_json())
        raw["coefficients"][0]["values"]["0"] = "x"
        if key in raw:
            del raw[key]
            where = "the document"
        else:
            del raw["coefficients"][-1][key]
            where = "a coefficient"
        message = f"^malformed certificate JSON: missing keys {re.escape(repr([key]))} in {where}$"
        with pytest.raises(InputError, match=message):
            QuasiPoly.from_json(json.dumps(raw))

    @pytest.mark.parametrize(
        "values, kind", [("0123", "str"), (None, "NoneType"), (["1", "0", "0", "0"], "list"), (7, "int")]
    )
    def test_non_object_values_named(self, values, kind):
        # R_1 of (1, 2) is the power 1 coefficient; a string, null or a list
        # of cells where its residue object belongs is named as such
        raw = json.loads(build_explicit((1, 2)).to_json())
        raw["coefficients"][0]["values"] = values
        message = "^malformed certificate JSON: the power 1 coefficient's values must be an object, got "
        with pytest.raises(InputError, match=message + kind + "$"):
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

    def test_stray_residue_keys_rejected(self):
        # R_2 of (1, 2) has period 2: keys "0".."3" and nothing else
        for key, cell in [("99", "5"), ("-1", "banana"), ("4", "0"), ("00", "0"), ("x", "1")]:
            raw = json.loads(build_explicit((1, 2)).to_json())
            raw["coefficients"][1]["values"][key] = cell
            with pytest.raises(InputError, match="outside 0..3"):
                QuasiPoly.from_json(json.dumps(raw))

    def test_unknown_document_key_rejected(self):
        # the four top-level keys to_json writes, and no other
        raw = json.loads(build_explicit((1, 2)).to_json())
        raw["extra"] = 1
        message = r"^malformed certificate JSON: unknown keys \['extra'\] in the document$"
        with pytest.raises(InputError, match=message):
            QuasiPoly.from_json(json.dumps(raw))

    def test_unknown_coefficient_key_rejected(self):
        # a coefficient holds power, period and values, and no other key
        raw = json.loads(build_explicit((1, 2)).to_json())
        raw["coefficients"][1]["note"] = "x"
        message = r"^malformed certificate JSON: unknown keys \['note'\] in a coefficient$"
        with pytest.raises(InputError, match=message):
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

    @pytest.mark.parametrize("period", [-1, 0, True, 2.0, "2"])
    def test_bad_period_named(self, period):
        # the period is checked before its residue keys are read
        raw = json.loads(build_explicit((1, 2)).to_json())
        raw["coefficients"][1]["period"] = period
        raw["coefficients"][1]["values"] = {}
        message = f"^period must be a positive integer, got {re.escape(repr(period))}$"
        with pytest.raises(InputError, match=message):
            QuasiPoly.from_json(json.dumps(raw))

    @pytest.mark.parametrize("power", ["1", None, [1], 1.0])
    def test_bad_power_named(self, power):
        # the powers' types are checked before the entries are sorted by power
        raw = json.loads(build_explicit((1, 2)).to_json())
        raw["coefficients"][0]["power"] = power
        message = f"^malformed certificate JSON: coefficient powers must be integers, got {re.escape(repr(power))}$"
        with pytest.raises(InputError, match=message):
            QuasiPoly.from_json(json.dumps(raw))

    @pytest.mark.parametrize("entry", [3, "power", [1, 2, {}], None])
    def test_non_object_coefficient_named(self, entry):
        raw = json.loads(build_explicit((1, 2)).to_json())
        raw["coefficients"][1] = entry
        message = f"^malformed certificate JSON: each coefficient must be an object, got {re.escape(repr(entry))}$"
        with pytest.raises(InputError, match=message):
            QuasiPoly.from_json(json.dumps(raw))

    @pytest.mark.parametrize("key", ["parts", "coefficients"])
    @pytest.mark.parametrize("value", [12, "12", {"0": 1}, None])
    def test_non_list_named(self, key, value):
        raw = json.loads(build_explicit((1, 2)).to_json())
        raw[key] = value
        message = f"^malformed certificate JSON: {key} must be a list, got {re.escape(repr(value))}$"
        with pytest.raises(InputError, match=message):
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
            QuasiPoly((2, 3), (PeriodicFn(4, [0, 1] + [0] * 6), PeriodicFn(6, [0] * 12)), 6)
        # the check refuses a function, not a layout: a table handed over at
        # period 4 whose function has period 1 is accepted
        cert = QuasiPoly((2, 3), (PeriodicFn(4, [0, 1] * 4), PeriodicFn(6, [0] * 12)), 6)
        assert [fn.period for fn in cert.coeffs] == [1, 1]

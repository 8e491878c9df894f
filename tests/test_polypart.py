"""Polynomial part: closed form vs the one-part-at-a-time recursion."""

import math
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import pytest

from denumerant import (
    InputError,
    bernoulli_poly,
    iter_multisets,
    r_coeffs_recursive,
    split_weight,
    v1_explicit,
)
from denumerant.bernoulli import _central_rows, _even_sum
from denumerant.polypart import r_mm_constant
from helpers import horner, poly_sub, taylor_shift
from test_bernoulli import _d_symmetric_all
from test_cert_bytes import PINNED
from test_quasipoly import BENCH_LISTS

HALF = Fraction(1, 2)
SAMPLE_S = [Fraction(0), Fraction(1), HALF, Fraction(-3, 2), Fraction(5, 3)]


class TestPolynomial:
    """The coefficient-list helpers the polynomial-part tests rely on."""

    def test_eval_and_degree(self):
        p = [1, -2, HALF]  # s^2 - 2s + 1/2
        assert horner(p, 0) == HALF
        assert horner(p, Fraction(3, 2)) == Fraction(9, 4) - 3 + HALF

    def test_shift_matches_evaluation(self):
        p = [Fraction(2, 3), 0, -1, 5]
        for delta in [Fraction(1), Fraction(-7, 2), Fraction(2, 5)]:
            q = taylor_shift(p, delta)
            for s in SAMPLE_S:
                assert horner(q, s) == horner(p, s + delta)

    def test_sub(self):
        assert poly_sub([1, 0, 0], [1, -1, 3]) == [0, 1, -3]
        assert poly_sub([1, 2], [1, 0, 0]) == [-1, 1, 2]  # the shorter is padded


class TestV1:
    def test_one_part(self):
        assert v1_explicit((1,)) == (1,)
        assert v1_explicit((4,)) == (Fraction(1, 4),)

    def test_two_parts(self):
        assert v1_explicit((1, 1)) == (1, 0)  # V1 = s
        assert v1_explicit((1, 2)) == (HALF, 0)  # V1 = s/2

    def test_counting_frame(self):
        # substitute s -> s + sum(parts)/2 to count in n
        for p, want in [((1,), [1]), ((1, 1), [1, 1]), ((1, 2), [HALF, Fraction(3, 4)])]:
            assert taylor_shift(v1_explicit(p), Fraction(sum(p), 2)) == want

    def test_leading_coefficient(self):
        for parts in [(1, 2), (2, 3, 4), (1, 1, 5, 6)]:
            m = len(parts)
            v1 = v1_explicit(parts)
            assert v1[0] == Fraction(1, math.factorial(m - 1) * math.prod(parts))

    def test_even_powers_only_vanish(self):
        # coefficient of s^(m-1-l) vanishes for odd l (odd central values are zero)
        for parts in [(1, 2), (2, 3, 4), (1, 2, 3, 4)]:
            v1 = v1_explicit(parts)
            for l, c in enumerate(v1):
                if l % 2 == 1:
                    assert c == 0, (parts, l)

    def test_permutation_invariance(self):
        for parts in [(1, 2, 3), (2, 2, 5), (1, 3, 4)]:
            base = v1_explicit(parts)
            for perm in permutations(parts):
                assert v1_explicit(perm) == base

    def test_closed_form_over_all_compositions(self):
        # C(m-1, l) D_l^(m) / ((m-1)! prod d 2^l), D_l^(m) summed in Fractions
        # over every composition of l
        for parts in list(iter_multisets(4, 6)) + BENCH_LISTS + [tuple(range(1, 11))]:
            m = len(parts)
            pref = Fraction(1, math.factorial(m - 1) * math.prod(parts))
            want = tuple(
                pref * math.comb(m - 1, l) * _d_symmetric_all(l, parts) / 2**l for l in range(m)
            )
            assert v1_explicit(parts) == want, parts

    def test_product_matches_composition_sum(self):
        # the per-part product against the composition sum it replaced:
        # C(m-1, l) beta^m D_l^(m) from _even_sum, over (m-1)! prod d beta^m 2^l
        lists = list(iter_multisets(5, 6)) + BENCH_LISTS + list(PINNED) + [tuple(range(1, 11))]
        for parts in lists:
            m = len(parts)
            beta, rows = _central_rows(parts, m - 1)
            den = math.factorial(m - 1) * math.prod(parts) * beta**m
            want = tuple(
                Fraction(math.comb(m - 1, l) * _even_sum(l, rows), den * 2**l) for l in range(m)
            )
            assert v1_explicit(parts) == want, parts


class TestRecursiveCoefficients:
    def test_base(self):
        assert r_coeffs_recursive((1,)) == (1,)
        assert r_coeffs_recursive((3,)) == (Fraction(1, 3),)

    def test_matches_explicit_everywhere(self):
        for m in range(1, 5):
            for parts in combinations_with_replacement(range(1, 6), m):
                assert r_coeffs_recursive(parts) == v1_explicit(parts), parts

    def test_polynomial_recurrence(self):
        # V1(s) - V1(s - d_m) equals the previous level at s - d_m/2
        for parts in [(1, 2), (2, 3), (1, 2, 3), (2, 3, 5), (1, 1, 4, 6)]:
            v1 = v1_explicit(parts)
            prev = v1_explicit(parts[:-1])
            dm = parts[-1]
            lhs = poly_sub(v1, taylor_shift(v1, -dm))
            rhs = taylor_shift(prev, Fraction(-dm, 2))
            assert lhs == [0] + rhs, parts

    def test_compact_free_coefficient_form(self):
        # V1(s) = r_mm + sum_l (d_m^(l-1)/l) B_l(1/2 + s/d_m) * prev coeff (m-l)
        for parts in [(1, 2), (2, 3), (1, 2, 3), (2, 3, 4), (1, 2, 3, 4)]:
            m = len(parts)
            dm = parts[-1]
            v1 = v1_explicit(parts)
            prev = v1_explicit(parts[:-1])
            for s in SAMPLE_S:
                acc = r_mm_constant(parts)
                for l in range(1, m):
                    acc += (
                        Fraction(dm) ** (l - 1)
                        / l
                        * bernoulli_poly(l, HALF + Fraction(s, dm))
                        * prev[m - l - 1]
                    )
                assert acc == horner(v1, s), (parts, s)


class TestSplitWeights:
    def test_values(self):
        # l = 0: every exponent zero, divisor m
        assert split_weight(0, 3, 1, (0, 0)) == Fraction(1, 3)
        # one nonzero exponent among three positions: divisor 2
        assert split_weight(1, 3, 2, (1, 0)) == HALF
        assert split_weight(2, 3, 1, (1, 1)) == Fraction(2)
        assert split_weight(1, 2, 1, (1,)) == 1

    def test_validation(self):
        with pytest.raises(InputError):
            split_weight(1, 3, 1, (2, 1))  # sum mismatch
        with pytest.raises(InputError, match="pivot must be in 1..3, got 0"):
            split_weight(1, 3, 0, (1, 0))
        with pytest.raises(InputError):
            split_weight(3, 3, 1, (2, 1))  # l must stay below m
        with pytest.raises(InputError):
            split_weight(1, 3, 1, (1,))  # wrong arity

    def test_buckets_restore_plain_power(self):
        # sum over pivots and compositions of weight * prod d_n^(r_n) = (sum d)^l
        from denumerant import compositions

        for parts in [(1, 2), (2, 3, 4), (1, 1, 2, 5)]:
            m = len(parts)
            for l in range(m):
                total = Fraction(0)
                for i in range(1, m + 1):
                    others = [d for k, d in enumerate(parts) if k != i - 1]
                    for r in compositions(l, m - 1):
                        term = split_weight(l, m, i, r)
                        for d, e in zip(others, r):
                            term *= Fraction(d) ** e
                        total += term
                assert total == Fraction(sum(parts)) ** l, (parts, l)

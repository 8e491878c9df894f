"""Bernoulli layer: numbers, polynomials, central and higher-order coefficients."""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from denumerant import (
    InputError,
    compositions,
    bernoulli_higher,
    bernoulli_number,
    bernoulli_poly,
    d_higher_recursive,
    d_higher_symmetric,
    d_scalar,
    iter_multisets,
    multinomial,
)
from helpers import akiyama_tanigawa, higher_bernoulli_series
from test_cert_bytes import PINNED
from test_quasipoly import BENCH_LISTS

HALF = Fraction(1, 2)
# the benchmark's deep and wide lists, the pinned certificate lists, 1..10, and
# lists with negative and zero parts
REFERENCE_LISTS = BENCH_LISTS + list(PINNED) + [
    tuple(range(1, 11)), (1, -2), (-3, 4, -5), (-1, -1, 2, 0, 3),
]


def _d_symmetric_all(n, parts):
    """D_n^(m) summed over every composition r of n, odd exponents included:
    the reference for the even-composition sum. A term is skipped only when
    one of its factors d^e D_e is zero."""
    factors = [[Fraction(d) ** e * d_scalar(e) for e in range(n + 1)] for d in parts]
    zero = [[not x for x in row] for row in factors]
    total = Fraction(0)
    for r in compositions(n, len(parts)):
        if any(row[e] for row, e in zip(zero, r)):
            continue
        term = Fraction(multinomial(n, r))
        for row, e in zip(factors, r):
            term *= row[e]
        total += term
    return total


class TestNumbers:
    def test_frozen_values(self):
        assert bernoulli_number(0) == 1
        assert bernoulli_number(1) == Fraction(-1, 2)
        assert bernoulli_number(2) == Fraction(1, 6)
        assert bernoulli_number(4) == Fraction(-1, 30)
        assert bernoulli_number(12) == Fraction(-691, 2730)

    def test_against_independent_triangle(self):
        # Akiyama-Tanigawa gives B_1 = +1/2; flip that one index
        want = akiyama_tanigawa(24)
        want[1] = -want[1]
        for n in range(25):
            assert bernoulli_number(n) == want[n], n

    def test_odd_vanish(self):
        for n in range(3, 25, 2):
            assert bernoulli_number(n) == 0

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            bernoulli_number(-1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: bernoulli_number(True),
        lambda: bernoulli_poly(2, 0.5),
        lambda: bernoulli_poly(2.0, 1),
        lambda: bernoulli_poly(True, 1),
        lambda: d_scalar(True),
        lambda: bernoulli_higher(2, 0.5, (1, 2)),
        lambda: bernoulli_higher(2, 0, (1.5, 2)),
        lambda: bernoulli_higher(2, 0, (True, 2)),
    ],
    ids=["number-true", "poly-float-x", "poly-float-n", "poly-true-n", "d_scalar-true",
         "higher-float-s", "higher-float-part", "higher-true-part"],
)
def test_inexact_or_bool_input_refused(call):
    # each took True as 1 or a float as an exact value, or raised TypeError
    with pytest.raises(InputError):
        call()


class TestPolynomials:
    def test_values(self):
        assert bernoulli_poly(0, Fraction(7, 3)) == 1
        assert bernoulli_poly(1, HALF) == 0
        assert bernoulli_poly(2, HALF) == Fraction(-1, 12)
        assert bernoulli_poly(1, Fraction(0)) == Fraction(-1, 2)
        assert bernoulli_poly(3, Fraction(2)) == Fraction(3)

    def test_endpoints(self):
        # B_n(0) = B_n always; B_n(1) = B_n except the sign flip at n = 1
        for n in range(10):
            assert bernoulli_poly(n, 0) == bernoulli_number(n)
            want = -bernoulli_number(n) if n == 1 else bernoulli_number(n)
            assert bernoulli_poly(n, 1) == want

    def test_difference_identity(self):
        # B_n(x+1) - B_n(x) = n x^(n-1)
        for n in range(1, 9):
            for x in [Fraction(0), Fraction(1, 3), Fraction(-5, 2), Fraction(4)]:
                assert bernoulli_poly(n, x + 1) - bernoulli_poly(n, x) == n * x ** (n - 1)

    def test_multiplication_theorem(self):
        # sum_{r<k} B_n(x + r/k) = k^(1-n) B_n(k x)
        for n in range(9):
            for k in range(1, 7):
                for x in [Fraction(0), HALF, Fraction(1, 3)]:
                    lhs = sum(bernoulli_poly(n, x + Fraction(r, k)) for r in range(k))
                    assert lhs == Fraction(k) ** (1 - n) * bernoulli_poly(n, k * x), (n, k, x)


class TestCentral:
    def test_scalar_values(self):
        assert d_scalar(0) == 1
        assert d_scalar(1) == 0
        assert d_scalar(2) == Fraction(-1, 3)
        assert d_scalar(4) == Fraction(7, 15)

    def test_scalar_odd_vanish(self):
        for n in range(1, 16, 2):
            assert d_scalar(n) == 0


class TestHigherCoefficients:
    def test_small_values(self):
        assert d_higher_recursive(0, (3, 5)) == 1
        assert d_higher_recursive(1, (2, 7, 9)) == 0
        assert d_higher_recursive(2, (2,)) == Fraction(-4, 3)
        assert d_higher_recursive(2, (1, 1)) == Fraction(-2, 3)
        assert d_higher_symmetric(2, (1, 1)) == Fraction(-2, 3)

    def test_routes_agree_on_grid(self):
        for m in range(1, 5):
            for parts in combinations_with_replacement(range(1, 6), m):
                for n in range(9):
                    assert d_higher_recursive(n, parts) == d_higher_symmetric(n, parts), (n, parts)

    def test_even_compositions_match_all_compositions(self):
        for parts in list(iter_multisets(4, 6)) + [tuple(range(1, 10))]:
            for n in range(len(parts) + 3):
                want = _d_symmetric_all(n, parts)
                assert d_higher_symmetric(n, parts) == want, (n, parts)
                assert d_higher_recursive(n, parts) == want, (n, parts)

    def test_integer_sum_matches_all_compositions(self):
        for parts in REFERENCE_LISTS:
            for n in range(len(parts) + 2):
                assert d_higher_symmetric(n, parts) == _d_symmetric_all(n, parts), (n, parts)

    @pytest.mark.parametrize("route", [d_higher_symmetric, d_higher_recursive])
    @pytest.mark.parametrize("n, parts", [
        (4, (1.5, 2)), (4, (Fraction(1), 2)), (2, (1, True)), (2, ("1",)),
        (True, (1, 1)), (2.0, (1, 2)), (-1, (1, 2)),
    ])
    def test_non_integer_input_refused(self, route, n, parts):
        with pytest.raises(InputError):
            route(n, parts)

    def test_odd_vanish(self):
        for m in range(1, 5):
            for parts in combinations_with_replacement(range(1, 6), m):
                for n in range(1, 9, 2):
                    assert d_higher_recursive(n, parts) == 0, (n, parts)

    def test_order_invariance(self):
        assert d_higher_recursive(6, (2, 3, 5)) == d_higher_recursive(6, (5, 3, 2))


class TestHigherValues:
    def test_order_zero_and_one(self):
        assert bernoulli_higher(0, Fraction(9, 4), (2, 3)) == 1
        # odd orders vanish at the symmetry point
        for parts in [(1,), (2, 3), (1, 2, 4)]:
            xi = Fraction(sum(parts), 2)
            assert bernoulli_higher(1, xi, parts) == 0
            assert bernoulli_higher(3, xi, parts) == 0

    def test_against_series_oracle(self):
        s_values = [Fraction(0), HALF, Fraction(-2, 3)]
        for m in range(1, 4):
            for parts in combinations_with_replacement(range(1, 5), m):
                for n in range(9):
                    for s in s_values:
                        assert bernoulli_higher(n, s, parts) == higher_bernoulli_series(n, s, parts), (
                            n, s, parts,
                        )

    def test_reflection(self):
        # negating every part shifts the argument by the part sum
        for parts in [(1,), (2, 3), (1, 2, 4), (3, 3)]:
            neg = tuple(-d for d in parts)
            for n in range(7):
                for s in [Fraction(0), Fraction(5, 2), Fraction(-1, 3)]:
                    assert bernoulli_higher(n, s, neg) == bernoulli_higher(n, s + sum(parts), parts)

    def test_zero_part_rejected(self):
        with pytest.raises(InputError):
            bernoulli_higher(2, 0, (1, 0))

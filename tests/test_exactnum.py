"""Exact arithmetic and combinatorial primitives."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from denumerant import (
    InputError,
    as_parts,
    compositions,
    iter_multisets,
    lcm_of,
    multinomial,
    parse_rational,
)
from helpers import psi


class TestParts:
    def test_keeps_order_and_duplicates(self):
        assert as_parts([3, 1, 1, 2]) == (3, 1, 1, 2)

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            as_parts([])

    @pytest.mark.parametrize("bad", [[0], [1, -2], [1.5], ["2"], [True]])
    def test_rejects_nonpositive_and_nonint(self, bad):
        with pytest.raises(InputError):
            as_parts(bad)


@pytest.mark.parametrize(
    "call",
    [
        lambda: lcm_of([True, 2]),
        lambda: psi(True, 3),
        lambda: list(iter_multisets(True, 2)),
        lambda: list(iter_multisets(2, True)),
        lambda: list(iter_multisets(2.5, 2)),
        lambda: list(iter_multisets(2, "3")),
    ],
    ids=["lcm_of-true", "psi-true", "multisets-true-m", "multisets-true-part",
         "multisets-float", "multisets-str"],
)
def test_bool_and_nonint_bounds_refused(call):
    # as_parts, PeriodicFn and count_dp already refuse bool; these took True
    # as the integer 1 (psi is the test reference in helpers)
    with pytest.raises(InputError):
        call()


class TestLcm:
    def test_values(self):
        assert lcm_of((1, 2, 3)) == 6
        assert lcm_of((4, 6)) == 12
        assert lcm_of((5,)) == 5

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            lcm_of(())

    @given(st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=6))
    def test_order_and_duplication_invariance(self, xs):
        assert lcm_of(tuple(xs)) == lcm_of(tuple(sorted(xs)))
        assert lcm_of(tuple(xs) + (xs[0],)) == lcm_of(tuple(xs))


class TestMultinomial:
    def test_values(self):
        assert multinomial(4, (2, 1, 1)) == 12
        assert multinomial(0, ()) == 1
        assert multinomial(3, (3,)) == 1
        assert multinomial(6, (2, 2, 2)) == 90

    def test_sum_mismatch_rejected(self):
        with pytest.raises(InputError):
            multinomial(4, (2, 1))
        with pytest.raises(InputError):
            multinomial(2, (3, -1))


class TestCompositions:
    def test_order_is_first_coordinate_descending(self):
        assert list(compositions(2, 2)) == [(2, 0), (1, 1), (0, 2)]
        assert list(compositions(0, 3)) == [(0, 0, 0)]
        assert list(compositions(1, 3)) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_zero_length(self):
        assert list(compositions(0, 0)) == [()]
        assert list(compositions(2, 0)) == []

    def test_counts_match_stars_and_bars(self):
        for total in range(6):
            for length in range(1, 5):
                got = list(compositions(total, length))
                assert len(got) == math.comb(total + length - 1, length - 1)
                assert len(set(got)) == len(got)
                assert all(sum(c) == total and len(c) == length for c in got)

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            list(compositions(-1, 2))


@given(
    st.integers(min_value=-(10**40), max_value=10**40),
    st.integers(min_value=1, max_value=10**40),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.integers(min_value=1, max_value=10**40),
)
def test_rational_arithmetic_is_exact(a, b, c, d):
    assert Fraction(a, b) + Fraction(c, d) == Fraction(a * d + c * b, b * d)
    assert Fraction(a, b) * Fraction(c, d) == Fraction(a * c, b * d)


def test_rational_serialization():
    assert parse_rational("22/7") == Fraction(22, 7)
    assert parse_rational("-3") == Fraction(-3)
    assert parse_rational("0") == 0
    assert parse_rational("2/4") == Fraction(1, 2)


@pytest.mark.parametrize(
    "text",
    ["0.5", "1e3", "1_000", " 3/4 ", "3/4\n", "\u0661\u0662", "+3", "3/-4", "1e10000000",
     "1" * 5000],
    ids=["decimal", "exponent", "underscore", "spaces", "newline", "arabic-indic-digits",
         "plus", "signed-denominator", "long-exponent", "over-digit-limit"],
)
def test_rational_outside_the_written_grammar_refused(text):
    # Fraction() reads each of these, and expands an exponent before it
    # returns: "1e10000000" took seconds. Only -?[0-9]+(/[0-9]+)? is read.
    start = time.perf_counter()
    with pytest.raises(InputError, match="not an exact rational"):
        parse_rational(text)
    assert time.perf_counter() - start < 1.0

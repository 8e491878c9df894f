"""Counting oracles: DP, nested enumeration, and the shifted frame."""

from fractions import Fraction
from itertools import permutations

import pytest

from denumerant import (
    CapacityError,
    CountTable,
    HalfInt,
    InputError,
    count_dp,
    count_enum,
    shifted_q,
)


class TestCountDp:
    def test_frozen_small_values(self):
        # {1,2,3} at n=5: enumerated by hand (5 ways: 5x1; 3x1+2; 1+2+2; 2x1+3; 2+3)
        assert count_dp((1, 2, 3), 5)[5] == 5
        # {1,2} is floor(n/2)+1
        t = count_dp((1, 2), 12)
        assert [t[n] for n in range(13)] == [n // 2 + 1 for n in range(13)]
        # duplicated parts count labeled coordinates: {1,1} gives n+1
        t = count_dp((1, 1), 10)
        assert [t[n] for n in range(11)] == list(range(1, 12))

    def test_single_part(self):
        t = count_dp((7,), 20)
        assert [n for n in range(21) if t[n]] == [0, 7, 14]
        assert all(t[n] == 1 for n in (0, 7, 14))

    def test_zero_only_solution(self):
        assert count_dp((4, 6), 0)[0] == 1

    def test_negative_index_is_zero(self):
        assert count_dp((1, 2), 5)[-3] == 0

    def test_bad_args(self):
        with pytest.raises(InputError):
            count_dp((1, 2), -1)
        with pytest.raises(InputError):
            count_dp((), 5)

    def test_monotone_with_unit_part(self):
        t = count_dp((1, 3, 4), 40)
        assert all(t[n] <= t[n + 1] for n in range(40))

    def test_permutation_invariance(self):
        for perm in permutations((2, 3, 5)):
            assert count_dp(perm, 30).counts == count_dp((2, 3, 5), 30).counts

    def test_convolution_consistency(self):
        # appending a part convolves with its one-part series
        a = count_dp((2, 3), 25)
        b = count_dp((2, 3, 4), 25)
        for n in range(26):
            assert b[n] == sum(a[n - 4 * k] for k in range(n // 4 + 1))

    def test_guard(self, monkeypatch):
        monkeypatch.setenv("RPF_GUARD_LIMIT", "100")
        with pytest.raises(CapacityError):
            count_dp((1, 2), 100)
        assert count_dp((1, 2), 49)[49] == 25  # 2 x 50 cells: at the limit

    def test_csv(self):
        csv = count_dp((1, 2), 3).to_csv()
        assert csv == "n,count\n0,1\n1,1\n2,2\n3,2\n"


class TestCountEnum:
    def test_frozen_values(self):
        assert count_enum((1, 2), 4) == 3
        assert count_enum((2, 4), 5) == 0
        assert count_enum((1,), 17) == 1
        assert count_enum((1, 1), 6) == 7

    def test_negative_n(self):
        assert count_enum((1, 2), -4) == 0

    def test_matches_dp(self):
        for parts in [(1,), (2, 3), (1, 2, 3), (2, 2), (3, 5, 7)]:
            t = count_dp(parts, 24)
            for n in range(25):
                assert count_enum(parts, n) == t[n], (parts, n)

    def test_guard_argument(self):
        with pytest.raises(CapacityError):
            count_enum((1, 1, 1), 1000, guard_limit=100)

    def test_guard_env(self, monkeypatch):
        monkeypatch.setenv("RPF_GUARD_LIMIT", "10")
        with pytest.raises(CapacityError):
            count_enum((1, 1), 100)
        monkeypatch.setenv("RPF_GUARD_LIMIT", "1000000")
        assert count_enum((1, 1), 100) == 101

    def test_guard_env_invalid(self, monkeypatch):
        monkeypatch.setenv("RPF_GUARD_LIMIT", "ten")
        with pytest.raises(InputError):
            count_enum((1, 1), 5)


class TestShiftedQ:
    def test_values(self):
        assert shifted_q((1, 1), 3) == 3  # counts n = 2
        assert shifted_q((1, 2), Fraction(3, 2)) == 1  # n = 0
        assert shifted_q((1, 2), Fraction(1, 2)) == 0  # n = -1
        assert shifted_q((1, 2), HalfInt(7)) == 2  # n = 2

    def test_off_lattice_is_zero(self):
        # s - xi a half-odd: no integer n to count
        assert shifted_q((1, 2), 2) == 0
        assert shifted_q((1, 1), Fraction(5, 2)) == 0


def test_count_table_len_and_maxn():
    t = CountTable((1,), (1, 1, 1))
    assert len(t) == 3 and t.max_n == 2

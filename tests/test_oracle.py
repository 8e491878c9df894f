"""Counting oracles: DP and nested enumeration."""

from itertools import permutations

import pytest

from denumerant import (
    CapacityError,
    CountTable,
    InputError,
    count_dp,
    iter_multisets,
)
from helpers import count_dp_reference
from reference import count_enum


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
        with pytest.raises(InputError):
            count_dp((1, 2), True)  # a bool is not a count

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

    @pytest.mark.parametrize("max_n", [0, 1, 5, 6, 7, 29, 60, 211])
    def test_matches_per_cell_reference(self, max_n):
        # the prefix sums per residue class against the per-cell loop, with
        # parts below, at and above max_n
        lists = list(iter_multisets(3, 7)) + [(1, 2, 3, 4, 5, 6), (31, 37, 41), (2, 100), (300,), (7, 7, 250)]
        for parts in lists:
            assert count_dp(parts, max_n).counts == tuple(count_dp_reference(parts, max_n)), parts

    def test_guard(self, monkeypatch):
        monkeypatch.setenv("RPF_GUARD_LIMIT", "100")
        with pytest.raises(CapacityError):
            count_dp((1, 2), 100)
        assert count_dp((1, 2), 49)[49] == 25  # 2 x 50 cells: at the limit


class TestCountEnum:
    def test_frozen_values(self):
        assert count_enum((1, 2), 4) == 3
        assert count_enum((2, 4), 5) == 0
        assert count_enum((1,), 17) == 1
        assert count_enum((1, 1), 6) == 7

    def test_negative_n(self):
        assert count_enum((1, 2), -4) == 0

    def test_bad_args(self):
        for bad in (True, False, 2.0, "3"):
            with pytest.raises(InputError):
                count_enum((1, 2), bad)

    def test_matches_dp(self):
        for parts in [(1,), (2, 3), (1, 2, 3), (2, 2), (3, 5, 7)]:
            t = count_dp(parts, 24)
            for n in range(25):
                assert count_enum(parts, n) == t[n], (parts, n)

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


def test_count_table_len_and_maxn():
    t = CountTable((1,), (1, 1, 1))
    assert len(t) == 3 and t.max_n == 2

"""Ground-truth counting by the generating-function DP, and the guard limit.

Everything here is plain integer arithmetic and knows nothing about
certificates; the rest of the package is validated against this module, and
the test suite checks the DP against a brute-force enumeration.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import accumulate

from .errors import CapacityError, InputError
from .exactnum import as_parts

__all__ = [
    "CountTable", "count_dp", "guard", "DEFAULT_GUARD_LIMIT", "GUARD_ENV",
]

DEFAULT_GUARD_LIMIT = 10_000_000
GUARD_ENV = "RPF_GUARD_LIMIT"


@dataclass(frozen=True)
class CountTable:
    """Counts for one part list at n = 0..max_n."""

    parts: tuple[int, ...]
    counts: tuple[int, ...]

    @property
    def max_n(self) -> int:
        return len(self.counts) - 1

    def __getitem__(self, n: int) -> int:
        # counting convention: nothing to count below zero
        if n < 0:
            return 0
        return self.counts[n]

    def __len__(self) -> int:
        return len(self.counts)


def count_dp(parts, max_n: int) -> CountTable:
    """Coefficients of prod_i 1/(1 - t^(d_i)) up to t^max_n.

    One in-place convolution pass per part, linear in max_n: multiplying by
    1/(1 - t^d) is counts[n] += counts[n - d] in increasing n, that is a
    running sum along each residue class n = r (mod d), taken as one prefix
    sum per class, counts[r::d] = accumulate(counts[r::d]). The m * (max_n + 1)
    cell updates are checked against the guard limit first.
    """
    d = as_parts(parts)
    if not isinstance(max_n, int) or isinstance(max_n, bool) or max_n < 0:
        raise InputError(f"max_n must be a nonnegative integer, got {max_n!r}")
    guard(len(d) * (max_n + 1), f"the DP table would take {len(d)} x {max_n + 1} cells")
    counts = [0] * (max_n + 1)
    counts[0] = 1
    for di in d:
        # a class with one cell below max_n is its own prefix sum
        for r in range(min(di, max_n + 1 - di)):
            counts[r::di] = accumulate(counts[r::di])
    return CountTable(d, tuple(counts))


def _guard_limit() -> int:
    env = os.environ.get(GUARD_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InputError(f"{GUARD_ENV} must be an integer, got {env!r}") from exc
    return DEFAULT_GUARD_LIMIT


def guard(work: int, what: str) -> None:
    """Raise CapacityError, saying `what`, when `work` exceeds the guard limit.

    The limit is the RPF_GUARD_LIMIT environment variable when it is set, the
    default otherwise.
    """
    limit = _guard_limit()
    if work > limit:
        raise CapacityError(f"{what}, over the limit {limit}")

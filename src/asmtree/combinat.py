"""Exact integer combinatorics: factorials, binomial coefficients,
Stirling numbers of the second kind, and counts of compositions into
parts 1 and 2, plus the upward-filling memo the closed forms recurse
through.

Everything returns plain Python ints, so counts that outgrow machine words
(ordered set partitions pass 2**64 before n hits 21) stay exact.
"""

from __future__ import annotations

import math
from functools import wraps
from typing import Callable

factorial = math.factorial  # n!; rejects negative n


def memo_upward(first: int) -> Callable[[Callable], Callable]:
    """Memoise a recursion f(n) whose value at n calls f only at arguments
    in first..n-1, filling the memo from `first` upward: a miss at n first
    evaluates every smaller missing argument in increasing order, so each
    evaluation finds the values it recurses on already stored and the stack
    depth stays flat however large n is. Arguments below `first` go
    straight to f, which rejects them. `cache_clear` empties the memo, as
    on functools.lru_cache.
    """

    def decorate(fn: Callable) -> Callable:
        table: list = []  # f(first), f(first + 1), ...

        @wraps(fn)
        def memoized(n: int):
            if n < first:
                return fn(n)
            while len(table) <= n - first:
                table.append(fn(first + len(table)))
            return table[n - first]

        memoized.cache_clear = table.clear  # type: ignore[attr-defined]
        return memoized

    return decorate


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), zero whenever k < 0 or k > n.

    Several recursions below rely on out-of-range terms vanishing rather
    than raising, so the convention lives here once.
    """
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind: set partitions of an n-set into
    exactly k nonempty blocks. Zero outside the triangle 0 <= k <= n,
    except stirling2(0, 0) == 1.
    """
    if n < 0 or k < 0 or k > n:
        return 0
    return _stirling2_row(n)[k]


@memo_upward(0)
def _stirling2_row(n: int) -> tuple[int, ...]:
    """stirling2(n, 0..n), from the row above by
    S(n, k) = k S(n-1, k) + S(n-1, k-1)."""
    if n == 0:
        return (1,)
    above = _stirling2_row(n - 1) + (0,)
    return (0, *(k * above[k] + above[k - 1] for k in range(1, n + 1)))


def count_compositions_1_2(n: int, k: int) -> int:
    """Compositions of n into exactly k parts, each part 1 or 2.

    Such a composition has n - k twos among its k parts, so the count is
    C(k, n - k) = C(k, 2k - n), vanishing outside ceil(n/2) <= k <= n.
    `formulas.td_edge_path` weighs a first time step by it: the blocks it
    leaves on a path of n vertices are such a composition.
    """
    return binomial(k, 2 * k - n)

"""Closed forms and recursions for assembly-tree counts on the classic
families: stars, paths, cycles and complete graphs, plain and timed.

Every function here has a brute-force counterpart in `assembly`; the test
suite drives both over shared ranges and the two must agree exactly. All
results are plain ints and all recursions are memoized, so a warm process
answers repeated queries instantly; the memos fill from small n upward, so
the stack depth does not grow with n.

Naming: the count for a star or path on n vertices takes n as written on
the graph. The one- and two-vertex cycles and the one-vertex complete
graph appearing below are recursion base cases with value 1; they are not
constructible graphs.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple

from .combinat import (
    binomial,
    factorial,
    memo_upward,
    stirling2,
)


@lru_cache(maxsize=None)
def fubini(n: int) -> int:
    """Ordered set partitions of an n-set, with fubini(0) == 1."""
    if n < 0:
        raise ValueError(f"fubini is undefined for n={n}")
    if n == 0:
        return 1
    return sum(factorial(k) * stirling2(n, k) for k in range(1, n + 1))


def connected_star(total: int) -> int:
    """Connected-rule assembly trees of the star on `total` vertices.

    Each tree orders the leaves into the groups that join the center
    together, so the count is the ordered-set-partition number of the
    leaf set: fubini(total - 1).
    """
    if total < 2:
        raise ValueError("stars need at least 2 vertices")
    return fubini(total - 1)


@memo_upward(1)
def super_catalan(n: int) -> int:
    """Plane trees with n leaves and no single-child nodes (1, 1, 3, 11,
    45, 197, ... for n = 1, 2, 3, ...)."""
    if n < 1:
        raise ValueError(f"super_catalan is undefined for n={n}")
    if n == 1:
        return 1
    return sum(super_catalan(j) * _ordered_forest(n - j) for j in range(1, n))


@memo_upward(0)
def _ordered_forest(m: int) -> int:
    """Ordered sequences of plane trees with m leaves in total."""
    if m == 0:
        return 1
    return sum(super_catalan(j) * _ordered_forest(m - j) for j in range(1, m + 1))


def connected_path(n: int) -> int:
    """Connected-rule assembly trees of the path on n vertices.

    Connected labels on a path are intervals, so a tree is exactly a plane
    tree over the ordered leaves: super_catalan(n).
    """
    if n < 1:
        raise ValueError("paths need at least 1 vertex")
    return super_catalan(n)


def connected_cycle(n: int) -> int:
    """Connected-rule assembly trees of the cycle on n >= 3 vertices.

    The root splits the cycle into k >= 2 arcs; an arc of length i behaves
    like a path (super_catalan(i) trees) and the i choices of where the
    first arc starts give the leading factor.
    """
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return sum(
        first * super_catalan(first) * _ordered_forest(n - first)
        for first in range(1, n)
    )


def connected_cycle_closed(n: int, variant: str = "a") -> int:
    """Two closed forms for connected_cycle, kept for cross-validation.

    variant "a": sum_i C(n-2, i) * C(n+i-1, i)
    variant "b": sum_k C(n-2, k) * C(n-1, k+1) * 2**k
    """
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    if variant == "a":
        return sum(binomial(n - 2, i) * binomial(n + i - 1, i) for i in range(n - 1))
    if variant == "b":
        return sum(
            binomial(n - 2, k) * binomial(n - 1, k + 1) * 2**k for k in range(n - 1)
        )
    raise ValueError(f"unknown variant {variant!r}")


@memo_upward(1)
def connected_complete(n: int) -> int:
    """Connected-rule assembly trees of the complete graph on n vertices.

    Every label is connected here, so this also counts rule-free assembly
    trees of any n-vertex graph. The root's child holding vertex 1 has k
    vertices (C(n-1, k-1) ways, T(k) trees); the other n - k vertices form
    any forest, and a forest on m >= 2 vertices is one tree or the children
    of a root, so there are 2 T(m) of them (1 for m <= 1).
    """
    if n < 1:
        raise ValueError("complete graphs need at least 1 vertex")
    if n == 1:
        return 1
    return sum(
        binomial(n - 1, k - 1) * connected_complete(k) * _complete_forests(n - k)
        for k in range(1, n)
    )


def _complete_forests(m: int) -> int:
    """Rule-free assembly forests on m labelled vertices."""
    return 1 if m <= 1 else 2 * connected_complete(m)


def td_connected_star(total: int) -> int:
    """Timed connected-rule trees of the star on `total` vertices.

    Time steps order the leaf groups, so timing adds nothing beyond the
    plain count: fubini(total - 1) again.
    """
    if total < 2:
        raise ValueError("stars need at least 2 vertices")
    return fubini(total - 1)


def td_connected_path(n: int) -> int:
    """Timed connected-rule trees of the path on n vertices: the interval
    merges performed at each time step order a set partition of the n - 1
    gaps, giving fubini(n - 1)."""
    if n < 1:
        raise ValueError("paths need at least 1 vertex")
    return fubini(n - 1)


@memo_upward(1)
def td_connected_cycle(n: int) -> int:
    """Timed connected-rule trees of the cycle: 1 for the all-at-once tree
    plus, for each first-step outcome with j surviving arcs, C(n, j) ways
    to cut the cycle and a timed count of the quotient j-cycle."""
    if n < 1:
        raise ValueError(f"td_connected_cycle is undefined for n={n}")
    if n <= 2:
        return 1
    return 1 + sum(binomial(n, j) * td_connected_cycle(j) for j in range(2, n))


@memo_upward(1)
def td_connected_complete(n: int) -> int:
    """Timed connected-rule trees of the complete graph: the first step
    picks a partition into j blocks (stirling2(n, j) ways) and the rest is
    a timed count of the quotient K_j."""
    if n < 1:
        raise ValueError(f"td_connected_complete is undefined for n={n}")
    if n <= 2:
        return 1
    return sum(stirling2(n, j) * td_connected_complete(j) for j in range(1, n))


def td_edge_star(total: int) -> int:
    """Timed edge-rule trees of the star: leaves attach one per time step
    in any order, so (total - 1)!."""
    if total < 2:
        raise ValueError("stars need at least 2 vertices")
    return factorial(total - 1)


@memo_upward(1)
def td_edge_path(n: int) -> int:
    """Timed edge-rule trees of the path on n vertices: the first step
    merges j disjoint adjacent pairs (C(n-j, n-2j) placements) and leaves
    a path on n - j blocks."""
    if n < 1:
        raise ValueError(f"td_edge_path is undefined for n={n}")
    if n <= 2:
        return 1
    return sum(
        binomial(n - j, n - 2 * j) * td_edge_path(n - j) for j in range(1, n // 2 + 1)
    )


@memo_upward(1)
def td_edge_cycle(n: int) -> int:
    """Timed edge-rule trees of the cycle; like td_edge_path but the pair
    placements wrap around, contributing the second binomial."""
    if n < 1:
        raise ValueError(f"td_edge_cycle is undefined for n={n}")
    if n <= 2:
        return 1
    return sum(
        (binomial(n - j, n - 2 * j) + binomial(n - j - 1, n - 2 * j))
        * td_edge_cycle(n - j)
        for j in range(1, n // 2 + 1)
    )


@memo_upward(1)
def td_edge_complete(n: int) -> int:
    """Timed edge-rule trees of the complete graph: the first step picks i
    disjoint unordered pairs, n! / (2^i i! (n-2i)!) ways, leaving K_{n-i}."""
    if n < 1:
        raise ValueError(f"td_edge_complete is undefined for n={n}")
    if n <= 2:
        return 1
    return sum(
        factorial(n) // (2**i * factorial(i) * factorial(n - 2 * i))
        * td_edge_complete(n - i)
        for i in range(1, n // 2 + 1)
    )


class SequenceFormula(NamedTuple):
    """A closed form for one (family, rule, timed) combination."""

    fn: Callable[[int], int]
    min_n: int


_FORMULAS: dict[tuple[str, str, bool], SequenceFormula] = {
    ("star", "connected", False): SequenceFormula(connected_star, 2),
    ("path", "connected", False): SequenceFormula(connected_path, 1),
    ("cycle", "connected", False): SequenceFormula(connected_cycle, 3),
    ("complete", "connected", False): SequenceFormula(connected_complete, 1),
    ("star", "connected", True): SequenceFormula(td_connected_star, 2),
    ("path", "connected", True): SequenceFormula(td_connected_path, 1),
    ("cycle", "connected", True): SequenceFormula(td_connected_cycle, 1),
    ("complete", "connected", True): SequenceFormula(td_connected_complete, 1),
    ("star", "edge", True): SequenceFormula(td_edge_star, 2),
    ("path", "edge", True): SequenceFormula(td_edge_path, 1),
    ("cycle", "edge", True): SequenceFormula(td_edge_cycle, 1),
    ("complete", "edge", True): SequenceFormula(td_edge_complete, 1),
}


def formula_for(family: str, rule: str, timed: bool) -> SequenceFormula | None:
    """The closed form for a family/rule/timed combination, or None.

    Plain edge-rule counts and everything under rule "none" have no entry
    here on purpose: those are served by the enumeration-backed counters.
    """
    return _FORMULAS.get((family, rule, bool(timed)))

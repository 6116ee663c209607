"""Closed forms and recursions for assembly-tree counts on the classic
families: stars, paths, cycles and complete graphs, plain and timed.

Every function here has a brute-force counterpart in `assembly`; the test
suite drives both over shared ranges and the two must agree exactly. All
results are plain ints. Each recursive count takes the first decision (the
root's child holding vertex 1, or the first time step), counts the ways to
make it, and recurses on a smaller member of the same family: one memoised
recurrence, `_recurrence`, serves them all and fills from small n upward,
so the stack depth does not grow with n.

Naming: the count for a star or path on n vertices takes n as written on
the graph. The one- and two-vertex cycles and the one-vertex complete
graph appearing below are recursion base cases with value 1; they are not
constructible graphs.
"""

from __future__ import annotations

from functools import lru_cache, wraps
from typing import Callable, NamedTuple

from .combinat import (
    binomial,
    count_compositions_1_2,
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


def _recurrence(weight: Callable[[int, int], int]) -> Callable[[int], int]:
    """The count T(1) = T(2) = 1, T(n) = sum over j < n of weight(n, j) T(j),
    where weight(n, j) counts the first decisions that leave size j. T keeps
    the weight's name and docstring and rejects n < 1; its memo fills
    upward, so a weight may call T below n."""

    @memo_upward(1)
    @wraps(weight)
    def count(n: int) -> int:
        if n < 1:
            raise ValueError(f"{weight.__name__} is undefined for n={n}")
        if n <= 2:
            return 1
        return sum(weight(n, j) * count(j) for j in range(1, n))

    # help() and inspect show T's (n), not the weight's (n, j): inspect
    # stops unwrapping at an object with a __signature__ attribute, and
    # reads the signature of its code when that attribute is None.
    count.__signature__ = None
    return count


def _forests(count: Callable[[int], int], m: int) -> int:
    """Forests of m >= 2 leaves are one tree or a root's children, so 2
    count(m) of them; there is one forest for m <= 1."""
    return 1 if m <= 1 else 2 * count(m)


@_recurrence
def super_catalan(n: int, j: int) -> int:
    """Plane trees with n leaves and no single-child nodes (1, 1, 3, 11,
    45, 197, ... for n = 1, 2, 3, ...): the root's first subtree has j
    leaves, and an ordered forest holds the other n - j."""
    return _forests(super_catalan, n - j)


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
        first * super_catalan(first) * _forests(super_catalan, n - first)
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


@_recurrence
def connected_complete(n: int, k: int) -> int:
    """Connected-rule assembly trees of the complete graph on n vertices.

    Every label is connected here, so this also counts rule-free assembly
    trees of any n-vertex graph. The root's child holding vertex 1 has k
    vertices, C(n-1, k-1) ways; the other n - k form any forest.
    """
    return binomial(n - 1, k - 1) * _forests(connected_complete, n - k)


# Timed connected-rule trees of the star: time steps order the leaf groups
# as the plain trees already do, so timing adds nothing on a star.
td_connected_star = connected_star


def td_connected_path(n: int) -> int:
    """Timed connected-rule trees of the path on n vertices: the interval
    merges performed at each time step order a set partition of the n - 1
    gaps, giving fubini(n - 1)."""
    if n < 1:
        raise ValueError("paths need at least 1 vertex")
    return fubini(n - 1)


@_recurrence
def td_connected_cycle(n: int, j: int) -> int:
    """Timed connected-rule trees of the cycle: the first time step merges
    the arcs between j cut edges, C(n, j) ways for j >= 2 and one way for
    j = 1 (all at once), leaving the quotient j-cycle."""
    return binomial(n, j) if j >= 2 else 1


@_recurrence
def td_connected_complete(n: int, j: int) -> int:
    """Timed connected-rule trees of the complete graph: the first time
    step forms j blocks, stirling2(n, j) ways, leaving the quotient K_j."""
    return stirling2(n, j)


def td_edge_star(total: int) -> int:
    """Timed edge-rule trees of the star: leaves attach one per time step
    in any order, so (total - 1)!."""
    if total < 2:
        raise ValueError("stars need at least 2 vertices")
    return factorial(total - 1)


@_recurrence
def td_edge_path(n: int, j: int) -> int:
    """Timed edge-rule trees of the path: the first time step merges
    disjoint adjacent pairs, leaving a path of j blocks whose sizes are a
    composition of n into parts 1 and 2."""
    return count_compositions_1_2(n, j)


@_recurrence
def td_edge_cycle(n: int, j: int) -> int:
    """Timed edge-rule trees of the cycle: the first time step merges
    n - j disjoint edges, leaving a j-cycle; the edge {n, 1} is left as on
    a path (C(j, 2j-n) ways) or merged (C(j-1, 2j-n))."""
    return binomial(j, 2 * j - n) + binomial(j - 1, 2 * j - n)


@_recurrence
def td_edge_complete(n: int, j: int) -> int:
    """Timed edge-rule trees of the complete graph: the first time step
    merges i = n - j disjoint pairs, n! / (2^i i! (n-2i)!) ways, leaving
    K_j; none when 2j < n."""
    if 2 * j < n:
        return 0
    i = n - j
    return factorial(n) // (2**i * factorial(i) * factorial(n - 2 * i))


class SequenceFormula(NamedTuple):
    """A closed form for one (family, rule, timed) combination. `fn`
    refuses an n below the graph's domain; the CLI states each family's
    smallest n."""

    fn: Callable[[int], int]


_FORMULAS: dict[tuple[str, str, bool], SequenceFormula] = {
    ("star", "connected", False): SequenceFormula(connected_star),
    ("path", "connected", False): SequenceFormula(connected_path),
    ("cycle", "connected", False): SequenceFormula(connected_cycle),
    ("complete", "connected", False): SequenceFormula(connected_complete),
    ("star", "connected", True): SequenceFormula(td_connected_star),
    ("path", "connected", True): SequenceFormula(td_connected_path),
    ("cycle", "connected", True): SequenceFormula(td_connected_cycle),
    ("complete", "connected", True): SequenceFormula(td_connected_complete),
    ("star", "edge", True): SequenceFormula(td_edge_star),
    ("path", "edge", True): SequenceFormula(td_edge_path),
    ("cycle", "edge", True): SequenceFormula(td_edge_cycle),
    ("complete", "edge", True): SequenceFormula(td_edge_complete),
}


def formula_for(family: str, rule: str, timed: bool) -> SequenceFormula | None:
    """The closed form for a family/rule/timed combination, or None.

    Plain edge-rule counts and everything under rule "none" have no entry
    here on purpose: those are served by the enumeration-backed counters.
    An entry holds its function only; `cli._SEQUENCES` states each
    family's smallest n.
    """
    return _FORMULAS.get((family, rule, bool(timed)))

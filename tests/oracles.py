"""Slow reference implementations the tests trust.

Everything in this file is written the obvious way on purpose: explicit
set partitions, explicit tree objects, union-find over edge lists. None of
it shares code, bit tricks or memo tables with the package, so a bug would
have to be made twice, independently, to slip through a comparison.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb


# ---------------------------------------------------------------- partitions


def set_partitions(items):
    """Yield every set partition of `items` as a list of blocks (lists)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [smaller[i] + [first]] + smaller[i + 1 :]
        yield smaller + [[first]]


def ordered_set_partitions(items):
    """Every set partition in every block order."""
    for blocks in set_partitions(items):
        yield from itertools.permutations(
            tuple(tuple(b) for b in blocks)
        )


def fubini_by_listing(n: int) -> int:
    return sum(1 for _ in ordered_set_partitions(range(n)))


def stirling2_by_listing(n: int, k: int) -> int:
    return sum(1 for blocks in set_partitions(range(n)) if len(blocks) == k)


def bell_numbers(n: int) -> list[int]:
    """B_0 .. B_n via the Bell triangle (no Stirling numbers involved)."""
    bells = [1]
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
        bells.append(row[0])
    return bells


def compositions(total: int):
    """Ordered sequences of positive integers summing to `total`."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first, *rest)


def compositions_1_2(n: int):
    """Compositions of n whose parts are all 1 or 2."""
    if n == 0:
        yield ()
        return
    for first in (1, 2):
        if first <= n:
            for rest in compositions_1_2(n - first):
                yield (first, *rest)


def count_1_2_compositions(n: int) -> int:
    """f(n) = f(n-1) + f(n-2) with f(0) = f(1) = 1."""
    a, b = 1, 1
    for _ in range(n):
        a, b = b, a + b
    return a


# --------------------------------------------------------------- plane trees


def plane_trees(n_leaves: int):
    """Every ordered tree with the given number of leaves in which each
    internal node has at least two children. A leaf is None; an internal
    node is the tuple of its children."""
    if n_leaves == 1:
        yield None
        return
    for parts in compositions(n_leaves):
        if len(parts) < 2:
            continue
        pools = [list(plane_trees(p)) for p in parts]
        for kids in itertools.product(*pools):
            yield kids


def super_catalan_by_listing(n: int) -> int:
    return sum(1 for _ in plane_trees(n))


# ------------------------------------------------------------- power series
# A truncated series is a plain list of Fractions, coefficients 0..order.
# Products are schoolbook; reciprocal, sqrt and exp sum textbook series in
# a variable u with zero constant term, whose m-th power starts at x**m, so
# terms up to the order suffice.


def series_product(a, b):
    n = min(len(a), len(b))
    return [sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0)) for k in range(n)]


def _sum_of_powers(u, weights):
    """sum over m of weights[m] * u**m, u a series with zero constant term."""
    total = [Fraction(0)] * len(u)
    power = [Fraction(1)] + [Fraction(0)] * (len(u) - 1)
    for w in weights:
        total = [t + w * p for t, p in zip(total, power)]
        power = series_product(power, u)
    return total


def series_reciprocal(a):
    """1/a = (1/a0) * sum of (-u)**m with u = a/a0 - 1."""
    c = Fraction(a[0])
    u = [Fraction(0)] + [-x / c for x in a[1:]]
    return [t / c for t in _sum_of_powers(u, [1] * len(a))]


def series_sqrt(a):
    """sqrt(1 + u) = sum of binomial(1/2, m) u**m, with u = a - 1."""
    u = [Fraction(0)] + [Fraction(x) for x in a[1:]]
    weights, w = [], Fraction(1)
    for m in range(len(a)):
        weights.append(w)
        w = w * (Fraction(1, 2) - m) / (m + 1)
    return _sum_of_powers(u, weights)


def series_exp(a):
    """exp(a) = sum of a**m / m!, a with zero constant term."""
    weights, w = [], Fraction(1)
    for m in range(len(a)):
        weights.append(w)
        w /= m + 1
    return _sum_of_powers([Fraction(x) for x in a], weights)


def series_compose(outer, inner):
    """sum of outer[k] * inner**k, inner an exact polynomial with zero
    constant term, truncated to the order of `outer`."""
    n = len(outer)
    q = ([Fraction(x) for x in inner] + [Fraction(0)] * n)[:n]
    total = [Fraction(0)] * n
    power = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for c in outer:
        total = [t + c * p for t, p in zip(total, power)]
        power = series_product(power, q)
    return total


# -------------------------------------------------------------------- graphs


def induced_connected(subset, edges) -> bool:
    """Union-find connectivity of the subgraph induced by `subset`."""
    parent = {v: v for v in subset}
    if not parent:
        raise ValueError("empty subset")

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, w in edges:
        if u in parent and w in parent:
            ru, rw = find(u), find(w)
            if ru != rw:
                parent[ru] = rw
    roots = {find(v) for v in parent}
    return len(roots) == 1


def is_circular_arc(subset, n: int) -> bool:
    """Does `subset` form one contiguous run around the n-cycle 1..n?

    Used as the independent connectivity oracle for cycle graphs: an
    induced subgraph of a cycle is connected exactly when its vertices
    are consecutive (allowing wraparound).
    """
    members = set(subset)
    if not members:
        raise ValueError("empty subset")
    if len(members) == n:
        return True
    # Count maximal runs by counting right boundaries.
    boundaries = sum(1 for v in members if (v % n) + 1 not in members)
    return boundaries == 1


# ----------------------------------------------------------- assembly shapes
#
# Trees are nested tuples: ("leaf", v) or ("node", child, child, ...).
# Children are ordered by smallest descendant so each tree appears once.


def min_leaf(tree) -> int:
    if tree[0] == "leaf":
        return tree[1]
    return min(min_leaf(c) for c in tree[1:])


def walk(tree):
    yield tree
    if tree[0] == "node":
        for child in tree[1:]:
            yield from walk(child)


def all_assembly_trees(vertices):
    """Every rooted tree over the given leaf set whose internal nodes all
    have at least two children, with no gluing rule applied."""
    vs = sorted(vertices)
    if len(vs) == 1:
        yield ("leaf", vs[0])
        return
    for blocks in set_partitions(vs):
        if len(blocks) < 2:
            continue
        pools = [list(all_assembly_trees(b)) for b in blocks]
        for kids in itertools.product(*pools):
            yield ("node", *sorted(kids, key=min_leaf))


def rule_ok(tree, edges, rule: str) -> bool:
    """Does the tree satisfy the gluing rule on the graph given by `edges`?"""
    return _leaves_if_ok(tree, frozenset(edges), rule) is not None


@lru_cache(maxsize=None)
def _induced_connected_once(subset: frozenset, edges: frozenset) -> bool:
    """induced_connected, run once per vertex set and edge set: the trees
    listed on one graph share most of their nodes' vertex sets."""
    return induced_connected(subset, edges)


def _leaves_if_ok(tree, edges: frozenset, rule: str):
    """The tree's leaf set if every node satisfies the rule, else None."""
    if tree[0] == "leaf":
        return frozenset((tree[1],))
    parts = []
    for kid in tree[1:]:
        part = _leaves_if_ok(kid, edges, rule)
        if part is None:
            return None
        parts.append(part)
    leaves = frozenset().union(*parts)
    if rule == "connected" and not _induced_connected_once(leaves, edges):
        return None
    if rule == "edge":
        if len(parts) != 2:
            return None
        a, b = parts
        if not any((u in a and w in b) or (u in b and w in a) for u, w in edges):
            return None
    return leaves


def count_trees_by_listing(n: int, edges, rule: str) -> int:
    return sum(
        1
        for t in all_assembly_trees(range(1, n + 1))
        if rule_ok(t, edges, rule)
    )


def count_timings_by_listing(tree) -> int:
    """Valid time maps for a tree's internal nodes, by trying them all.

    A map is valid when the times used are exactly 1..m for some m and
    every internal child is strictly earlier than its parent; that also
    forces the root to sit alone at m.
    """
    internals = [sub for sub in walk(tree) if sub[0] == "node"]
    k = len(internals)
    if k == 0:
        return 1
    total = 0
    for m in range(1, k + 1):
        for stamp in itertools.product(range(1, m + 1), repeat=k):
            if set(stamp) != set(range(1, m + 1)):
                continue
            ok = True
            for i, node in enumerate(internals):
                for child in node[1:]:
                    if child[0] == "node" and stamp[internals.index(child)] >= stamp[i]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                total += 1
    return total


def count_timed_by_listing(n: int, edges, rule: str) -> int:
    return sum(
        count_timings_by_listing(t)
        for t in all_assembly_trees(range(1, n + 1))
        if rule_ok(t, edges, rule)
    )


# --------------------------------------------------- closed-form spot values


def a047781_term(n: int) -> int:
    """The defining binomial sum, independent of any recursion here."""
    return sum(comb(n - 1, k) * comb(n + k, k) for k in range(n))

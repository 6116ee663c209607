"""Reference values for every answer the benchmark checks.

Each sequence is computed here from its own definition, iteratively, so no
recursion limit applies; nothing is imported from asmtree. `self_check`
compares the references with the OEIS b-files in tests/data and, on graphs
of up to 6 vertices, with the naive listings in tests/oracles.py.
"""

from __future__ import annotations

import importlib.util
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

FAMILIES = ("star", "path", "cycle", "complete")
FAMILY_MIN_N = {"star": 2, "path": 1, "cycle": 3, "complete": 1}


# ------------------------------------------------------------------ graphs


def family_edges(family: str, n: int) -> list[tuple[int, int]]:
    """Edges of the named family on vertices 1..n, numbered as asmtree numbers
    them (the star's centre is vertex 1)."""
    if family == "star":
        return [(1, v) for v in range(2, n + 1)]
    if family == "path":
        return [(i, i + 1) for i in range(1, n)]
    if family == "cycle":
        return [(i, i + 1) for i in range(1, n)] + [(1, n)]
    if family == "complete":
        return [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)]
    raise ValueError(f"unknown family {family!r}")


def caterpillar_edges(legs: list[int]) -> list[tuple[int, int]]:
    """Spine 1..len(legs), then the pendants of each spine vertex in order."""
    spine = len(legs)
    edges = [(i, i + 1) for i in range(1, spine)]
    nxt = spine + 1
    for i, count in enumerate(legs, start=1):
        for _ in range(count):
            edges.append((i, nxt))
            nxt += 1
    return edges


# --------------------------------------------------------------- sequences


def total_partitions(n_max: int) -> list[int]:
    """A000311: trees on n labelled leaves whose internal nodes have >= 2
    children. T(n) sums over the block B of the root partition that holds
    the first leaf; F(m) counts forests on m leaves (F(n) = 2 T(n), n >= 2)."""
    t = [0, 1]
    f = [1, 1]
    for n in range(2, n_max + 1):
        t.append(sum(comb(n - 1, j - 1) * t[j] * f[n - j] for j in range(1, n)))
        f.append(2 * t[n])
    return t[: n_max + 1]


def fubini(n_max: int) -> list[int]:
    """A000670: a(0) = 1, a(n) = Sum_{k=1..n} C(n,k) a(n-k)."""
    a = [1]
    for n in range(1, n_max + 1):
        a.append(sum(comb(n, k) * a[n - k] for k in range(1, n + 1)))
    return a


def little_schroeder(n_max: int) -> list[int]:
    """A001003: (n+1) a(n) = (6n-3) a(n-1) - (n-2) a(n-2), a(0) = a(1) = 1."""
    a = [1, 1]
    for n in range(2, n_max + 1):
        a.append(((6 * n - 3) * a[n - 1] - (n - 2) * a[n - 2]) // (n + 1))
    return a[: n_max + 1]


def a047781(n: int) -> int:
    return sum(comb(n - 1, k) * comb(n + k, k) for k in range(n))


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def double_factorial_odd(n: int) -> int:
    """(2n-3)!! for n >= 2, and 1 for n = 1."""
    out = 1
    for k in range(3, 2 * n - 2, 2):
        out *= k
    return out


def _stirling2_rows(n_max: int) -> list[list[int]]:
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        row = [0] * (n + 1)
        for k in range(1, n + 1):
            row[k] = k * (prev[k] if k < len(prev) else 0) + prev[k - 1]
        rows.append(row)
    return rows


def timed_complete_connected(n_max: int) -> list[int]:
    """Time-dependent trees of K_n (any gluing that allows every merge): the
    first step partitions the n vertices into j blocks, leaving K_j."""
    s2 = _stirling2_rows(n_max)
    a = [1, 1, 1]
    for n in range(3, n_max + 1):
        a.append(sum(s2[n][j] * a[j] for j in range(1, n)))
    return a[: n_max + 1]


def timed_cycle_connected(n_max: int) -> list[int]:
    """The first step either merges everything or leaves j arcs, cut in
    C(n, j) ways, whose quotient is a j-cycle."""
    a = [1, 1, 1]
    for n in range(3, n_max + 1):
        a.append(1 + sum(comb(n, j) * a[j] for j in range(2, n)))
    return a[: n_max + 1]


def timed_path_edge(n_max: int) -> list[int]:
    """A171792: a(1) = 1, a(n) = Sum_{m<n} C(m, n-m) a(m): the first step
    glues n - m disjoint adjacent pairs of a path that keeps m blocks."""
    a = [0, 1]
    for n in range(2, n_max + 1):
        a.append(sum(comb(m, n - m) * a[m] for m in range(1, n)))
    return a[: n_max + 1]


def timed_cycle_edge(n_max: int) -> list[int]:
    """As for the path, but the j glued pairs may wrap around the cycle."""
    a = [1, 1, 1]
    for n in range(3, n_max + 1):
        a.append(
            sum(
                (comb(n - j, n - 2 * j) + comb(n - j - 1, n - 2 * j)) * a[n - j]
                for j in range(1, n // 2 + 1)
            )
        )
    return a[: n_max + 1]


def timed_complete_edge(n_max: int) -> list[int]:
    """The first step glues i disjoint pairs of K_n, leaving K_{n-i}."""
    a = [1, 1, 1]
    for n in range(3, n_max + 1):
        a.append(
            sum(
                factorial(n) // (2**i * factorial(i) * factorial(n - 2 * i)) * a[n - i]
                for i in range(1, n // 2 + 1)
            )
        )
    return a[: n_max + 1]


# ------------------------------------------------------------ family counts


def plain_count(family: str, rule: str, n: int) -> int:
    """Assembly trees of the n-vertex family graph under the rule."""
    if rule == "none" or (family == "complete" and rule == "connected"):
        return total_partitions(n)[n]
    if n == 1:
        return 1
    table = {
        ("complete", "edge"): lambda: double_factorial_odd(n),
        ("path", "connected"): lambda: little_schroeder(n - 1)[n - 1],
        ("path", "edge"): lambda: catalan(n - 1),
        ("star", "connected"): lambda: fubini(n - 1)[n - 1],
        ("star", "edge"): lambda: factorial(n - 1),
        ("cycle", "connected"): lambda: a047781(n - 1),
        # The root cuts the cycle into two arcs, i.e. two paths.
        ("cycle", "edge"): lambda: n * catalan(n - 1) // 2,
    }
    return table[family, rule]()


def timed_count(family: str, rule: str, n: int) -> int:
    """Time-dependent assembly trees of the n-vertex family graph."""
    if rule == "none" or (family == "complete" and rule == "connected"):
        return timed_complete_connected(n)[n]
    if n == 1:
        return 1
    table = {
        ("complete", "edge"): lambda: timed_complete_edge(n)[n],
        ("cycle", "connected"): lambda: timed_cycle_connected(n)[n],
        ("cycle", "edge"): lambda: timed_cycle_edge(n)[n],
        ("path", "connected"): lambda: fubini(n - 1)[n - 1],
        ("path", "edge"): lambda: timed_path_edge(n)[n],
        ("star", "connected"): lambda: fubini(n - 1)[n - 1],
        ("star", "edge"): lambda: factorial(n - 1),
    }
    return table[family, rule]()


def count(family: str, rule: str, n: int, timed: bool) -> int:
    return timed_count(family, rule, n) if timed else plain_count(family, rule, n)


# ------------------------------------------------------------------ series


def series_coefficients(which: str, order: int) -> list[Fraction]:
    """Coefficients 0..order that `asmtree series --which <which>` prints."""
    if which == "fubini-egf":
        fub = fubini(order)
        return [Fraction(fub[k], factorial(k)) for k in range(order + 1)]
    if which == "super-catalan-ogf":
        schroeder = little_schroeder(order)
        return [Fraction(0)] + [Fraction(schroeder[k - 1]) for k in range(1, order + 1)]
    if which == "cycle-ogf":
        head = [Fraction(0), Fraction(1), Fraction(1)]
        return (head + [Fraction(a047781(k - 1)) for k in range(3, order + 1)])[: order + 1]
    if which == "td-cycle-egf":
        tdc = timed_cycle_connected(order)
        return [Fraction(0)] + [Fraction(tdc[k], factorial(k)) for k in range(1, order + 1)]
    raise ValueError(f"unknown series {which!r}")


def series_text(which: str, order: int) -> str:
    """The exact stdout of `asmtree series --which <which> --order <order>`."""
    if which == "td-path-funceq":
        return "PASS\n"
    lines = []
    for k, c in enumerate(series_coefficients(which, order)):
        if c.denominator == 1:
            lines.append(f"{k}\t{c.numerator}")
        else:
            lines.append(f"{k}\t{c.numerator}/{c.denominator}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------- the self-check

# b-file name -> (family, rule, timed, offset from b-file index to n)
BFILES = {
    "b000670.txt": ("star", "connected", False, 1),
    "b001003.txt": ("path", "connected", False, 1),
    "b047781.txt": ("cycle", "connected", False, 1),
    "b171792.txt": ("path", "edge", True, 0),
}


def read_bfile(path: Path) -> list[tuple[int, int]]:
    terms = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            index, value = line.split()
            terms.append((int(index), int(value)))
    return terms


def self_check(root: Path, oracle_plain_max: int = 6, oracle_timed_max: int = 5) -> list[str]:
    """Compare the references with the b-files and the naive listings;
    return the disagreements (empty when all agree)."""
    problems = []
    data = root / "tests" / "data"
    for name, (family, rule, timed, offset) in BFILES.items():
        compared = 0
        for index, value in read_bfile(data / name):
            n = index + offset
            if n < FAMILY_MIN_N[family]:
                continue
            got = count(family, rule, n, timed)
            compared += 1
            if got != value:
                problems.append(f"{name}: index {index} reads {value}, reference gives {got}")
        if compared < 10:
            problems.append(f"{name}: only {compared} terms compared")

    spec = importlib.util.spec_from_file_location("bench_oracles", root / "tests" / "oracles.py")
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    for n in range(1, oracle_plain_max + 1):
        # The listing of every tree is shared by all families and rules of one n.
        trees = list(oracles.all_assembly_trees(range(1, n + 1)))
        timings = [oracles.count_timings_by_listing(t) for t in trees] if n <= oracle_timed_max else []
        for family in FAMILIES:
            if n < FAMILY_MIN_N[family]:
                continue
            edges = family_edges(family, n)
            for rule in ("none", "connected", "edge"):
                ok = [oracles.rule_ok(t, edges, rule) for t in trees]
                listed = sum(ok)
                if listed != plain_count(family, rule, n):
                    problems.append(f"{family}{n} {rule}: listing {listed}, reference "
                                    f"{plain_count(family, rule, n)}")
                if timings:
                    listed = sum(k for k, good in zip(timings, ok) if good)
                    if listed != timed_count(family, rule, n):
                        problems.append(f"{family}{n} {rule} timed: listing {listed}, "
                                        f"reference {timed_count(family, rule, n)}")
    return problems

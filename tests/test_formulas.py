import inspect
from collections import Counter

import pytest

from asmtree.assembly import (
    count_timed_trees,
    count_trees,
    enumerate_timed_trees,
    enumerate_trees,
    frontier_partition,
)
from asmtree.combinat import factorial
from asmtree.formulas import (
    connected_complete,
    connected_cycle,
    connected_cycle_closed,
    connected_path,
    connected_star,
    formula_for,
    fubini,
    super_catalan,
    td_connected_complete,
    td_connected_cycle,
    td_connected_path,
    td_connected_star,
    td_edge_complete,
    td_edge_cycle,
    td_edge_path,
    td_edge_star,
)
from asmtree.graph import complete, cycle, path, star

from oracles import (
    a047781_term,
    fubini_by_listing,
    super_catalan_by_listing,
)


# ------------------------------------------------------------- frozen tables
#
# The expected values below were produced by the brute-force enumerators in
# oracles.py before the closed forms existed, and they stay hard-coded so a
# regression in either side trips the comparison.


def test_fubini_values():
    assert [fubini(n) for n in range(11)] == [
        1, 1, 3, 13, 75, 541, 4683, 47293, 545835, 7087261, 102247563,
    ]


def test_super_catalan_values():
    assert [super_catalan(n) for n in range(1, 13)] == [
        1, 1, 3, 11, 45, 197, 903, 4279, 20793, 103049, 518859, 2646723,
    ]


def test_star_values():
    assert [connected_star(n) for n in range(2, 10)] == [
        1, 3, 13, 75, 541, 4683, 47293, 545835,
    ]
    assert [td_connected_star(n) for n in range(2, 10)] == [
        1, 3, 13, 75, 541, 4683, 47293, 545835,
    ]
    assert [td_edge_star(n) for n in range(2, 10)] == [
        1, 2, 6, 24, 120, 720, 5040, 40320,
    ]


def test_path_values():
    assert [connected_path(n) for n in range(1, 9)] == [
        1, 1, 3, 11, 45, 197, 903, 4279,
    ]
    assert [td_connected_path(n) for n in range(1, 9)] == [
        1, 1, 3, 13, 75, 541, 4683, 47293,
    ]
    assert [td_edge_path(n) for n in range(1, 17)] == [
        1, 1, 2, 7, 34, 214, 1652, 15121, 160110, 1925442, 25924260,
        386354366, 6314171932, 112286067892, 2158562109096, 44605949528355,
    ]


def test_cycle_values():
    assert [connected_cycle(n) for n in range(3, 11)] == [
        4, 19, 96, 501, 2668, 14407, 78592, 432073,
    ]
    assert [td_connected_cycle(n) for n in range(1, 10)] == [
        1, 1, 4, 23, 166, 1437, 14512, 167491, 2174746,
    ]
    assert [td_edge_cycle(n) for n in range(1, 10)] == [
        1, 1, 3, 14, 85, 642, 5782, 60484, 720495,
    ]


def test_complete_values():
    assert [connected_complete(n) for n in range(1, 9)] == [
        1, 1, 4, 26, 236, 2752, 39208, 660032,
    ]
    assert [td_connected_complete(n) for n in range(1, 9)] == [
        1, 1, 4, 32, 436, 9012, 262760, 10270696,
    ]
    assert [td_edge_complete(n) for n in range(1, 9)] == [
        1, 1, 3, 21, 255, 4815, 130095, 4763115,
    ]


# ------------------------------------------------------- independent oracles


def test_fubini_against_listing():
    for n in range(7):
        assert fubini(n) == fubini_by_listing(n)


def test_super_catalan_against_listing():
    for n in range(1, 8):
        assert super_catalan(n) == super_catalan_by_listing(n)


def test_cycle_closed_forms_agree():
    for n in range(3, 21):
        recursion = connected_cycle(n)
        assert connected_cycle_closed(n, "a") == recursion
        assert connected_cycle_closed(n, "b") == recursion
        assert a047781_term(n - 1) == recursion


def test_star_and_path_share_the_timed_count():
    # both reduce to ordering merge events, one per set partition block
    for n in range(2, 12):
        assert td_connected_star(n) == td_connected_path(n) == fubini(n - 1)


# ----------------------------------------- agreement with the tree counters


def test_plain_formulas_match_tree_counts():
    for n in range(2, 9):
        assert connected_star(n) == count_trees(star(n), "connected")
        assert connected_path(n) == count_trees(path(n), "connected")
        if n >= 3:
            assert connected_cycle(n) == count_trees(cycle(n), "connected")
    for n in range(1, 7):
        assert connected_complete(n) == count_trees(complete(n), "connected")


def test_complete_formula_counts_unrestricted_trees():
    # on a complete graph every label is connected, so the same recursion
    # counts rule-free trees of any connected graph
    for n in range(1, 8):
        assert connected_complete(n) == count_trees(path(n), "none")
    for n in range(1, 7):
        assert td_connected_complete(n) == count_timed_trees(path(n), "none")


def test_timed_formulas_match_tree_counts():
    for n in range(2, 8):
        assert td_connected_star(n) == count_timed_trees(star(n), "connected")
        assert td_edge_star(n) == count_timed_trees(star(n), "edge")
    for n in range(1, 13):
        assert td_connected_path(n) == count_timed_trees(path(n), "connected")
        assert td_edge_path(n) == count_timed_trees(path(n), "edge")
    for n in range(3, 12):
        assert td_connected_cycle(n) == count_timed_trees(cycle(n), "connected")
        assert td_edge_cycle(n) == count_timed_trees(cycle(n), "edge")
    for n in range(1, 9):
        assert td_connected_complete(n) == count_timed_trees(
            complete(n), "connected"
        )
        assert td_edge_complete(n) == count_timed_trees(complete(n), "edge")


def test_edge_rule_star_timing_is_free():
    # every edge-rule star tree is a chain, which admits exactly one
    # schedule, so the timed and plain counts coincide
    for n in range(2, 9):
        assert count_trees(star(n), "edge") == td_edge_star(n) == factorial(n - 1)


def test_plain_edge_counts_without_formulas():
    assert [count_trees(path(n), "edge") for n in range(1, 10)] == [
        1, 1, 2, 5, 14, 42, 132, 429, 1430,  # Catalan numbers
    ]
    assert [count_trees(cycle(n), "edge") for n in range(3, 10)] == [
        3, 10, 35, 126, 462, 1716, 6435,
    ]
    assert [count_trees(complete(n), "edge") for n in range(1, 8)] == [
        1, 1, 3, 15, 105, 945, 10395,  # double factorials (2n-3)!!
    ]


# ------------------------------------------ one recurrence, weight by weight
#
# Each recursive count is T(n) = sum over j of weight(n, j) T(j), where
# weight(n, j) counts the first decisions that leave size j. Sorting the
# enumerated trees by the size their first decision leaves must give
# exactly those terms.


def first_decisions(fn, n):
    # the recursion shows its own (n); the weight (n, j) sits behind it
    assert list(inspect.signature(fn).parameters) == ["n"]
    weight = inspect.unwrap(fn)
    terms = {j: weight(n, j) * fn(j) for j in range(1, n)}
    return {j: term for j, term in terms.items() if term}


@pytest.mark.parametrize(
    "fn, build, rule",
    [
        (td_connected_cycle, cycle, "connected"),
        (td_connected_complete, complete, "connected"),
        (td_edge_path, path, "edge"),
        (td_edge_cycle, cycle, "edge"),
        (td_edge_complete, complete, "edge"),
    ],
)
def test_timed_weights_count_first_time_steps(fn, build, rule):
    # the first time step leaves as many blocks as the partition at time 1
    for n in range(3, 7):
        hist = Counter(
            len(frontier_partition(t, 1)) for t in enumerate_timed_trees(build(n), rule)
        )
        assert hist == first_decisions(fn, n)


@pytest.mark.parametrize(
    "fn, build", [(super_catalan, path), (connected_complete, complete)]
)
def test_plain_weights_count_the_child_holding_vertex_1(fn, build):
    # children are in canonical order, so the first one holds vertex 1
    for n in range(3, 8):
        hist = Counter(
            len(t.children[0].label) for t in enumerate_trees(build(n), "connected")
        )
        assert hist == first_decisions(fn, n)


# -------------------------------------------------------------- the registry


def test_formula_registry_contents():
    combos = [
        ("star", "connected", False, connected_star, 2),
        ("path", "connected", False, connected_path, 1),
        ("cycle", "connected", False, connected_cycle, 3),
        ("complete", "connected", False, connected_complete, 1),
        ("star", "connected", True, td_connected_star, 2),
        ("path", "connected", True, td_connected_path, 1),
        ("cycle", "connected", True, td_connected_cycle, 1),
        ("complete", "connected", True, td_connected_complete, 1),
        ("star", "edge", True, td_edge_star, 2),
        ("path", "edge", True, td_edge_path, 1),
        ("cycle", "edge", True, td_edge_cycle, 1),
        ("complete", "edge", True, td_edge_complete, 1),
    ]
    for family, rule, timed, fn, min_n in combos:
        entry = formula_for(family, rule, timed)
        assert entry is not None
        assert entry.fn is fn
        with pytest.raises(ValueError):  # the CLI relies on this
            fn(min_n - 1)


def test_formula_registry_gaps():
    assert formula_for("path", "edge", False) is None
    assert formula_for("star", "none", False) is None
    assert formula_for("complete", "none", True) is None
    assert formula_for("caterpillar", "connected", False) is None
    assert formula_for("custom", "connected", True) is None


def test_memoized_functions_survive_cache_clears():
    warm = [td_edge_path(n) for n in range(1, 12)]
    td_edge_path.cache_clear()
    assert [td_edge_path(n) for n in range(1, 12)] == warm

    warm = [connected_complete(n) for n in range(1, 8)]
    connected_complete.cache_clear()
    assert [connected_complete(n) for n in range(1, 8)] == warm


def test_domain_errors():
    cases = [
        (fubini, -1),
        (connected_star, 1),
        (super_catalan, 0),
        (connected_path, 0),
        (connected_cycle, 2),
        (connected_complete, 0),
        (td_connected_star, 1),
        (td_connected_path, 0),
        (td_connected_cycle, 0),
        (td_connected_complete, 0),
        (td_edge_star, 1),
        (td_edge_path, 0),
        (td_edge_cycle, -2),
        (td_edge_complete, 0),
    ]
    for fn, bad in cases:
        with pytest.raises(ValueError):
            fn(bad)
    with pytest.raises(ValueError):
        connected_cycle_closed(2)
    with pytest.raises(ValueError):
        connected_cycle_closed(5, "c")

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from asmtree.assembly import (
    AssemblyTree,
    branch,
    count_level_assignments,
    count_timed_trees,
    count_trees,
    enumerate_timed_trees,
    enumerate_trees,
    frontier_partition,
    leaf,
    parse_tree,
    serialize_tree,
    timed_branch,
    timed_leaf,
    tree_from_dict,
    tree_to_dict,
    validate,
    validation_errors,
)
from asmtree.combinat import binomial, stirling2
from asmtree.graph import Graph, complete, cycle, path, star

from oracles import (
    all_assembly_trees,
    count_timed_by_listing,
    count_timings_by_listing,
    count_trees_by_listing,
    rule_ok,
)

RULES = ("none", "connected", "edge")


def families(n):
    out = [("path", path(n)), ("complete", complete(n))]
    if n >= 2:
        out.append(("star", star(n)))
    if n >= 3:
        out.append(("cycle", cycle(n)))
    return out


def from_oracle(t):
    if t[0] == "leaf":
        return leaf(t[1])
    return branch(from_oracle(c) for c in t[1:])


# ------------------------------------------------------------------ factories


def test_leaf_and_branch():
    l1 = leaf(3)
    assert l1.label == frozenset({3})
    assert l1.is_leaf and l1.children == ()

    t = branch([leaf(2), leaf(1)])
    assert t.label == frozenset({1, 2})
    assert [min(c.label) for c in t.children] == [1, 2]
    assert not t.is_leaf

    nested = branch([branch([leaf(4), leaf(2)]), leaf(1)])
    assert [sorted(c.label) for c in nested.children] == [[1], [2, 4]]
    assert [sorted(n.label) for n in nested.walk()] == [[1, 2, 4], [1], [2, 4], [2], [4]]


def test_branch_rejects_bad_children():
    with pytest.raises(ValueError):
        branch([leaf(1)])
    with pytest.raises(ValueError):
        branch([branch([leaf(1), leaf(2)]), leaf(2)])


def test_timed_factories():
    assert timed_leaf(5).time == 0
    t = timed_branch([timed_leaf(2), timed_leaf(1)], 1)
    assert t.time == 1 and t.label == frozenset({1, 2})
    later = timed_branch([t, timed_leaf(3)], 4)
    assert later.time == 4

    with pytest.raises(ValueError):
        timed_branch([timed_leaf(1)], 1)
    with pytest.raises(ValueError):
        timed_branch([timed_leaf(1), timed_leaf(2)], 0)
    with pytest.raises(ValueError):
        timed_branch([t, timed_leaf(3)], 1)  # child time == parent time
    with pytest.raises(ValueError):
        branch([timed_leaf(1), leaf(2)], 1)
    with pytest.raises(ValueError):
        branch([timed_leaf(1), timed_leaf(2)])  # untimed parent, timed children


def test_untimed_drops_stamps():
    t = timed_branch([timed_branch([timed_leaf(1), timed_leaf(2)], 1), timed_leaf(3)], 2)
    assert t.untimed() == branch([branch([leaf(1), leaf(2)]), leaf(3)])


# ---------------------------------------------------------------- enumeration


def test_triangle_trees_by_hand():
    g = cycle(3)
    pairs = [
        branch([branch([leaf(1), leaf(2)]), leaf(3)]),
        branch([branch([leaf(1), leaf(3)]), leaf(2)]),
        branch([branch([leaf(2), leaf(3)]), leaf(1)]),
    ]
    ternary = branch([leaf(1), leaf(2), leaf(3)])
    assert set(enumerate_trees(g, "edge")) == set(pairs)
    assert set(enumerate_trees(g, "connected")) == set(pairs) | {ternary}
    assert count_trees(g, "edge") == 3
    assert count_trees(g, "connected") == 4


def test_single_and_two_vertex_graphs():
    for rule in RULES:
        assert list(enumerate_trees(path(1), rule)) == [leaf(1)]
        assert list(enumerate_trees(path(2), rule)) == [branch([leaf(1), leaf(2)])]
        assert count_trees(path(1), rule) == 1
        assert count_trees(path(2), rule) == 1


def test_count_matches_enumeration():
    for n in range(1, 7):
        for _, g in families(n):
            for rule in RULES:
                trees = list(enumerate_trees(g, rule))
                assert len(trees) == len(set(trees))
                assert count_trees(g, rule) == len(trees)


def test_enumeration_is_complete():
    # same trees as filtering the unrestricted listing, not just as many
    for _, g in families(5):
        for rule in RULES:
            expected = {
                from_oracle(t)
                for t in all_assembly_trees(range(1, 6))
                if rule_ok(t, g.edges, rule)
            }
            assert set(enumerate_trees(g, rule)) == expected
    for _, g in families(6):
        for rule in RULES:
            assert count_trees(g, rule) == count_trees_by_listing(6, g.edges, rule)


def test_enumeration_is_deterministic():
    first = list(enumerate_trees(cycle(5), "connected"))
    second = list(enumerate_trees(cycle(5), "connected"))
    assert first == second
    for t in first:
        for node in t.walk():
            mins = [min(c.label) for c in node.children]
            assert mins == sorted(mins)


def test_disconnected_graph_rejected():
    g = Graph(3, [(1, 2)])
    with pytest.raises(ValueError):
        next(enumerate_trees(g, "none"))
    with pytest.raises(ValueError):
        count_trees(g, "none")
    with pytest.raises(ValueError):
        count_timed_trees(g, "connected")
    with pytest.raises(ValueError):
        next(enumerate_timed_trees(g, "edge"))


def test_size_caps():
    gen = enumerate_trees(path(10), "connected")  # creating it is fine
    with pytest.raises(ValueError):
        next(gen)
    with pytest.raises(ValueError):
        next(enumerate_trees(path(5), "connected", limit=4))
    with pytest.raises(ValueError):
        count_trees(path(17), "connected")
    with pytest.raises(ValueError):
        count_trees(path(5), "none", limit=3)
    with pytest.raises(ValueError):
        count_timed_trees(path(17), "edge")


def test_cap_override_allows_larger_graphs():
    trees = list(enumerate_trees(path(10), "edge", limit=10))
    assert len(trees) == 4862  # ninth Catalan number
    assert count_trees(path(10), "connected") == 103049


# ----------------------------------------------------------------- validation


def test_enumerated_trees_validate():
    for _, g in families(5):
        for rule in RULES:
            for t in enumerate_trees(g, rule):
                assert validation_errors(g, t, rule) == []


def test_rule_boundaries_on_small_examples():
    ternary = branch([leaf(1), leaf(2), leaf(3)])
    assert validate(cycle(3), ternary, "connected")
    assert not validate(cycle(3), ternary, "edge")

    # gluing the two path ends first leaves a disconnected, edgeless pair
    ends_first = branch([branch([leaf(1), leaf(3)]), leaf(2)])
    assert validate(path(3), ends_first, "none")
    assert not validate(path(3), ends_first, "connected")
    assert not validate(path(3), ends_first, "edge")


def test_validation_error_reasons():
    g = path(3)

    wrong_root = branch([leaf(1), leaf(2)])
    assert any("root" in e for e in validation_errors(g, wrong_root, "none"))

    overlap = AssemblyTree(
        frozenset({1, 2, 3}),
        (
            AssemblyTree(frozenset({1, 2}), (leaf(1), leaf(2))),
            AssemblyTree(frozenset({2, 3}), (leaf(2), leaf(3))),
        ),
    )
    assert any("overlap" in e for e in validation_errors(g, overlap, "none"))

    lonely_child = AssemblyTree(
        frozenset({1, 2, 3}),
        (AssemblyTree(frozenset({1, 2, 3}), (leaf(1), leaf(2), leaf(3))),),
    )
    assert any("two children" in e for e in validation_errors(g, lonely_child, "none"))

    out_of_range = branch([leaf(1), leaf(2), leaf(5)])
    assert any("outside vertex range" in e for e in validation_errors(g, out_of_range, "none"))

    fat_leaf = AssemblyTree(
        frozenset({1, 2, 3}), (AssemblyTree(frozenset({1, 2})), leaf(3))
    )
    errors = validation_errors(g, fat_leaf, "none")
    assert any("singletons" in e for e in errors)


def test_timed_validation_error_reasons():
    g = path(2)

    late_leaf = AssemblyTree(
        frozenset({1, 2}),
        (AssemblyTree(frozenset({1}), time=1), timed_leaf(2)),
        time=1,
    )
    errors = validation_errors(g, late_leaf, "none")
    assert any("time 0" in e for e in errors)

    slack = AssemblyTree(
        frozenset({1, 2}), (timed_leaf(1), timed_leaf(2)), time=3
    )
    assert any("unoccupied" in e for e in validation_errors(g, slack, "none"))

    flat = AssemblyTree(
        frozenset({1, 2, 3}),
        (
            AssemblyTree(frozenset({1, 2}), (timed_leaf(1), timed_leaf(2)), time=1),
            timed_leaf(3),
        ),
        time=1,
    )
    assert any("strictly earlier" in e for e in validation_errors(path(3), flat, "none"))

    mixed = AssemblyTree(frozenset({1, 2}), (leaf(1), timed_leaf(2)), time=1)
    assert validation_errors(g, mixed, "none") == ["node {1}: timed and untimed nodes mix"]
    untimed_root = AssemblyTree(frozenset({1, 2}), (timed_leaf(1), timed_leaf(2)))
    errors = validation_errors(g, untimed_root, "none")
    assert errors == [f"node {{{v}}}: timed and untimed nodes mix" for v in (1, 2)]


def test_enumerated_timed_trees_validate():
    for _, g in families(4):
        for rule in RULES:
            for t in enumerate_timed_trees(g, rule):
                assert validation_errors(g, t, rule) == []


# -------------------------------------------------------------- time stamping


def test_level_assignment_counts_by_hand():
    two_cherries = branch(
        [branch([leaf(1), leaf(2)]), branch([leaf(3), leaf(4)])]
    )
    assert count_level_assignments(two_cherries) == 3

    comb = leaf(1)
    for v in range(2, 7):
        comb = branch([comb, leaf(v)])
    assert count_level_assignments(comb) == 1  # a chain admits one schedule

    three_cherries = branch(
        [
            branch([leaf(1), leaf(2)]),
            branch([leaf(3), leaf(4)]),
            branch([leaf(5), leaf(6)]),
        ]
    )
    # three incomparable cherries, then the root: ordered set partitions of 3
    assert count_level_assignments(three_cherries) == 13

    assert count_level_assignments(leaf(1)) == 1


def test_level_assignments_match_brute_force():
    for t in all_assembly_trees(range(1, 6)):
        assert count_level_assignments(from_oracle(t)) == count_timings_by_listing(t)


def test_timed_enumeration_matches_counts():
    for n in range(1, 6):
        for _, g in families(n):
            for rule in RULES:
                timed = list(enumerate_timed_trees(g, rule))
                assert len(timed) == len(set(timed))
                assert count_timed_trees(g, rule) == len(timed)
                grouped = Counter(t.untimed() for t in timed)
                assert grouped == {
                    t: count_level_assignments(t) for t in enumerate_trees(g, rule)
                }


def test_timed_count_equals_stamping_sum_on_larger_graphs():
    for _, g in families(6):
        for rule in RULES:
            direct = count_timed_trees(g, rule)
            summed = sum(
                count_level_assignments(t) for t in enumerate_trees(g, rule)
            )
            assert direct == summed


def test_timed_counts_against_listing_oracle():
    assert count_timed_trees(path(1), "none") == 1
    assert count_timed_trees(cycle(4), "connected") == 23
    assert count_timed_trees(cycle(4), "edge") == 14
    assert count_timed_trees(complete(4), "edge") == 21
    assert count_timed_trees(complete(4), "none") == 32
    for _, g in families(4):
        for rule in RULES:
            assert count_timed_trees(g, rule) == count_timed_by_listing(
                4, g.edges, rule
            )
    assert count_timed_trees(cycle(5), "connected") == count_timed_by_listing(
        5, cycle(5).edges, "connected"
    )


def test_every_tree_has_a_stamping():
    for _, g in families(6):
        for rule in RULES:
            assert count_timed_trees(g, rule) >= count_trees(g, rule)


def test_timed_counts_on_random_graphs_keep_their_relations():
    # Past the reach of enumeration: a relabelled copy counts the same,
    # a looser rule never counts fewer, and every tree has a stamping.
    rng = random.Random(4)
    for n in (7, 8, 8, 9, 9, 9):
        edges = {(rng.randint(1, v - 1), v) for v in range(2, n + 1)}
        while len(edges) < n + 3:
            edges.add(tuple(sorted(rng.sample(range(1, n + 1), 2))))
        g = Graph(n, edges)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        h = Graph(n, [(perm[u - 1], perm[v - 1]) for u, v in edges])
        timed = {rule: count_timed_trees(g, rule) for rule in RULES}
        assert timed == {rule: count_timed_trees(h, rule) for rule in RULES}
        assert timed["edge"] <= timed["connected"] <= timed["none"]
        for rule in RULES:
            assert count_trees(g, rule) <= timed[rule]


# ---------------------------------------------------- frontiers of timed trees


def two_wing_example():
    """A seven-vertex example worked out by hand: two wings assembled in
    parallel, one finishing a step before the other."""
    g = Graph(7, [(1, 3), (3, 5), (5, 7), (2, 6), (2, 4), (1, 2)])
    wing = timed_branch(
        [timed_leaf(1), timed_leaf(3), timed_leaf(5), timed_leaf(7)], 1
    )
    pair = timed_branch([timed_leaf(2), timed_leaf(6)], 1)
    other = timed_branch([timed_leaf(4), pair], 2)
    return g, timed_branch([wing, other], 3)


def test_two_wing_example_is_valid():
    g, t = two_wing_example()
    assert validate(g, t, "connected")
    assert validate(g, t, "none")
    assert not validate(g, t, "edge")  # the four-leaf wing is not binary
    assert t in set(enumerate_timed_trees(g, "connected"))


def test_two_wing_example_frontiers():
    g, t = two_wing_example()
    fs = frozenset
    assert frontier_partition(t, 0) == fs(fs((v,)) for v in range(1, 8))
    assert frontier_partition(t, 1) == fs(
        {fs({1, 3, 5, 7}), fs({2, 6}), fs({4})}
    )
    assert frontier_partition(t, 2) == fs({fs({1, 3, 5, 7}), fs({2, 4, 6})})
    assert frontier_partition(t, 3) == fs({fs(range(1, 8))})
    with pytest.raises(ValueError):
        frontier_partition(t, 4)
    with pytest.raises(ValueError):
        frontier_partition(t, -1)
    with pytest.raises(ValueError, match="untimed tree"):
        frontier_partition(branch([leaf(1), leaf(2)]), 0)


def test_frontier_invariants():
    g = cycle(5)
    for t in enumerate_timed_trees(g, "connected"):
        sizes = []
        for j in range(t.time + 1):
            blocks = frontier_partition(t, j)
            assert sorted(v for b in blocks for v in b) == [1, 2, 3, 4, 5]
            sizes.append(len(blocks))
        assert sizes[0] == 5
        assert sizes[-1] == 1
        assert all(a > b for a, b in zip(sizes, sizes[1:]))


def test_first_frontier_grouping_for_cycles():
    # blocks at time 1 are arcs: C(n, j) ways to pick j of them, then the
    # contracted cycle on j blocks assembles independently
    tcc = [None, 1, 1, 4, 23, 166]
    for n in range(4, 7):
        hist = Counter(
            len(frontier_partition(t, 1))
            for t in enumerate_timed_trees(cycle(n), "connected")
        )
        expected = {1: 1}
        for j in range(2, n):
            expected[j] = binomial(n, j) * tcc[j]
        assert hist == expected


def test_first_frontier_grouping_for_complete_graphs():
    tdcc = [None, 1, 1, 4, 32]
    for n in range(3, 6):
        hist = Counter(
            len(frontier_partition(t, 1))
            for t in enumerate_timed_trees(complete(n), "none")
        )
        expected = {j: stirling2(n, j) * tdcc[j] for j in range(1, n)}
        assert hist == expected


# ------------------------------------------------------------ rule comparisons


def test_rules_nest():
    for n in range(2, 7):
        for _, g in families(n):
            edge_set = set(enumerate_trees(g, "edge"))
            conn_set = set(enumerate_trees(g, "connected"))
            none_set = set(enumerate_trees(g, "none"))
            assert edge_set <= conn_set <= none_set


def test_unrestricted_rule_ignores_graph_structure():
    shapes = set(enumerate_trees(path(5), "none"))
    for _, g in families(5):
        assert set(enumerate_trees(g, "none")) == shapes
    for n in (6, 7):
        counts = {count_trees(g, "none") for _, g in families(n)}
        assert len(counts) == 1
        timed_counts = {count_timed_trees(g, "none") for _, g in families(n)}
        assert len(timed_counts) == 1


def test_complete_graph_makes_connectivity_vacuous():
    for n in range(2, 7):
        g = complete(n)
        assert set(enumerate_trees(g, "connected")) == set(
            enumerate_trees(g, "none")
        )


# -------------------------------------------------------------- serialization


def test_json_round_trip():
    for t in enumerate_trees(path(4), "connected"):
        assert parse_tree(serialize_tree(t)) == t
    for t in enumerate_timed_trees(cycle(4), "edge"):
        assert parse_tree(serialize_tree(t)) == t


def test_exact_json_forms():
    assert serialize_tree(leaf(3)) == '{"label":[3],"children":[]}'
    assert (
        serialize_tree(timed_leaf(3)) == '{"label":[3],"time":0,"children":[]}'
    )
    t = branch([leaf(2), leaf(1)])
    assert (
        serialize_tree(t)
        == '{"label":[1,2],"children":[{"label":[1],"children":[]},{"label":[2],"children":[]}]}'
    )


def test_dot_output():
    t = timed_branch([timed_leaf(1), timed_leaf(2)], 1)
    assert serialize_tree(t, "dot") == "\n".join(
        [
            "digraph assembly_tree {",
            '  n0 [label="{1,2}@1"];',
            '  n1 [label="{1}@0"];',
            "  n0 -> n1;",
            '  n2 [label="{2}@0"];',
            "  n0 -> n2;",
            "}",
        ]
    )
    plain = serialize_tree(branch([leaf(1), leaf(2)]), "dot")
    assert "@" not in plain and '"{1,2}"' in plain
    with pytest.raises(ValueError):
        serialize_tree(t, "yaml")


def test_tree_dict_round_trip_keeps_times():
    t = timed_branch(
        [timed_branch([timed_leaf(1), timed_leaf(2)], 1), timed_leaf(3)], 2
    )
    again = tree_from_dict(tree_to_dict(t))
    assert again.time is not None
    assert again == t


def test_parse_tree_rejects_malformed_input():
    bad = [
        "nope",
        "[1, 2]",
        '{"children": []}',
        '{"label": ["a"], "children": []}',
        '{"label": [1, 2], "children": 3}',
        '{"label": [1, 2], "time": "x", "children": []}',
        # timed root with an untimed child
        '{"label":[1,2],"time":1,"children":[{"label":[1],"children":[]},'
        '{"label":[2],"time":0,"children":[]}]}',
    ]
    for text in bad:
        with pytest.raises(ValueError):
            parse_tree(text)


# ------------------------------------------------- random graphs, all routes


@st.composite
def connected_graphs(draw):
    """A random spanning tree on 1..n (each vertex hangs off an earlier
    one) plus any subset of the remaining pairs."""
    n = draw(st.integers(min_value=2, max_value=6))
    edges = {(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)}
    others = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if (u, v) not in edges]
    extra = draw(st.lists(st.sampled_from(others), unique=True) if others else st.just([]))
    return n, sorted(edges | set(extra))


@settings(max_examples=12, deadline=None)
@given(connected_graphs())
def test_random_graphs_counts_enumeration_and_oracles_agree(case):
    n, edges = case
    g = Graph(n, edges)
    shapes = list(all_assembly_trees(range(1, n + 1)))
    for rule in RULES:
        trees = list(enumerate_trees(g, rule))
        assert len(set(trees)) == len(trees) == count_trees(g, rule)
        assert set(trees) == {from_oracle(t) for t in shapes if rule_ok(t, edges, rule)}
        assert all(validate(g, t, rule) for t in trees)

        timed = list(enumerate_timed_trees(g, rule))
        assert len(set(timed)) == len(timed) == count_timed_trees(g, rule)
        # The naive timing listing tries up to (k-1)^(k-1) stampings per
        # tree; past five vertices every example would take seconds.
        if n <= 5:
            assert len(timed) == count_timed_by_listing(n, edges, rule)
        assert all(validate(g, t, rule) for t in timed)

import gc
import hashlib
import itertools
import json
import math
import pickle
import random
import re
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from asmtree import assembly
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
from asmtree.formulas import (
    connected_complete,
    fubini,
    td_connected_complete,
    td_connected_cycle,
    td_connected_path,
    td_connected_star,
    td_edge_complete,
    td_edge_cycle,
    td_edge_path,
    td_edge_star,
)
from asmtree.graph import (
    Graph,
    caterpillar,
    complete,
    component_mask,
    connected_mask,
    cycle,
    mask_vertices,
    path,
    star,
    vertex_mask,
)

from oracles import (
    all_assembly_trees,
    count_timed_by_listing,
    count_timings_by_listing,
    count_trees_by_listing,
    induced_connected,
    rule_ok,
    walk,
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


def test_tree_nodes_are_immutable_values():
    t = AssemblyTree(frozenset({1, 2}), (leaf(1), leaf(2)))
    assert (t.label, t.children, t.time) == (frozenset({1, 2}), (leaf(1), leaf(2)), None)
    assert AssemblyTree(frozenset({3})) == AssemblyTree(frozenset({3}), (), None) == leaf(3)
    assert t == branch([leaf(2), leaf(1)]) and hash(t) == hash(branch([leaf(2), leaf(1)]))
    assert leaf(1) != timed_leaf(1) and leaf(1) != (frozenset({1}), (), None)
    assert len({t, branch([leaf(1), leaf(2)]), timed_branch([timed_leaf(1), timed_leaf(2)], 1)}) == 2
    assert repr(timed_leaf(1)) == "AssemblyTree(label=frozenset({1}), children=(), time=0)"
    assert repr(t) == (
        "AssemblyTree(label=frozenset({1, 2}), children=("
        "AssemblyTree(label=frozenset({1}), children=(), time=None), "
        "AssemblyTree(label=frozenset({2}), children=(), time=None)), time=None)"
    )
    for name in ("label", "children", "time", "other"):
        with pytest.raises(AttributeError):
            setattr(t, name, None)
        with pytest.raises(AttributeError):
            delattr(t, name)
    assert not hasattr(t, "__dict__")
    assert pickle.loads(pickle.dumps(t)) == t


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


def stream_digest(trees) -> tuple[int, str]:
    """How many trees, and the sha256 of their JSON lines, as `asmtree
    trees` prints them."""
    h = hashlib.sha256()
    n = 0
    for t in trees:
        h.update(serialize_tree(t).encode() + b"\n")
        n += 1
    return n, h.hexdigest()


P9_CONNECTED = (20793, "0bfd45a589882ecf58790293d6ec77125f6a107c56cc2cde21f0cfda69528bed")
K8_CONNECTED_FIRST_20000 = (
    20000,
    "11695be09ce9ace8b1847b53ee5128ab33bbfb526eb2bc133883ff03e17acdf1",
)
C9_EDGE = (6435, "6a15e1b37810842e1e2db47a3d7827321536457db740c7b26ffa57bb23bd3ec8")


def test_streams_through_pools_too_large_to_keep_are_pinned():
    # Pools above the keep bound, such as P8's 4,279 trees or K6's 2,752,
    # are streamed rather than kept. The P9 and K8 digests were taken when
    # every pool was built in full before the first tree, the C9 one when
    # EDGE still tested each two-split for a crossing edge.
    p9 = list(enumerate_trees(path(9), "connected"))
    assert stream_digest(p9) == P9_CONNECTED
    k8 = itertools.islice(enumerate_trees(complete(8), "connected"), 20000)
    assert stream_digest(k8) == K8_CONNECTED_FIRST_20000
    c9 = list(enumerate_trees(cycle(9), "edge"))
    assert stream_digest(c9) == C9_EDGE
    for g, rule, trees in ((path(9), "connected", p9), (cycle(9), "edge", c9)):
        assert len(set(trees)) == len(trees) == count_trees(g, rule)


P7_EDGE_TIMED = (1652, "e2a09c4c08512867c7a339c5e5f82b12e09c3d345a5310e48263ec9ab4d265c9")
C6_CONNECTED_TIMED = (1437, "9bde45a1e774e3f19523b2c43778eb6ce3180d03b1c0c683fe3cdc169b4da4b7")
K5_EDGE_TIMED = (255, "0b51e6ffb82ed46892cd55adde301c4a9519255d3733a90ccb4a619226f9a2d4")
P8_CONNECTED_TIMED_FIRST_20000 = (
    20000,
    "d3b1f08295ce340a8278adce8ae0130c7d13a2f26c91c15d2a84addbd7f0defe",
)


def test_timed_streams_are_pinned():
    # Taken while the stampings were still built as time maps and the
    # EDGE and CONNECTED rules ran separate enumerators.
    assert stream_digest(enumerate_timed_trees(path(7), "edge")) == P7_EDGE_TIMED
    assert stream_digest(enumerate_timed_trees(cycle(6), "connected")) == C6_CONNECTED_TIMED
    assert stream_digest(enumerate_timed_trees(complete(5), "edge")) == K5_EDGE_TIMED
    p8 = itertools.islice(enumerate_timed_trees(path(8), "connected"), 20000)
    assert stream_digest(p8) == P8_CONNECTED_TIMED_FIRST_20000


WIDE_TIMED = (4683, "73220a2cbbe5bc1b33484c508e2d9d975fe9e5e2398d64457860d93952cef26f")


def test_stampings_of_a_wide_tree_are_pinned():
    # A root over six cherries has six nodes ready in its first round, so
    # that round steps all 63 nonempty subsets of them; the family graphs
    # of the digests above have few nodes ready at once. Taken when the
    # preorder table and the ready set came from helpers of their own.
    wide = branch([branch([leaf(2 * i + 1), leaf(2 * i + 2)]) for i in range(6)])
    stamped = list(assembly._stampings(wide))
    assert stream_digest(stamped) == WIDE_TIMED
    assert len(set(stamped)) == fubini(6) == count_level_assignments(wide)
    k12 = complete(12)
    assert all(t.untimed() == wide and validate(k12, t, "none") for t in stamped)


def test_streams_are_unchanged_when_little_is_kept(monkeypatch):
    # With a tiny keep bound nearly every pool is built again for each
    # choice of trees on the blocks before it.
    cases = [(complete(6), "connected"), (cycle(7), "edge"), (star(6), "none")]
    expected = [list(enumerate_trees(g, rule)) for g, rule in cases]
    monkeypatch.setattr(assembly, "_KEEP", 3)
    assert stream_digest(enumerate_trees(path(9), "connected")) == P9_CONNECTED
    assert [list(enumerate_trees(g, rule)) for g, rule in cases] == expected


def test_streaming_starts_at_once_and_keeps_memory_flat():
    start = time.perf_counter()
    next(enumerate_trees(complete(8), "connected"))
    assert time.perf_counter() - start < 0.05
    # K9 has 12.8M trees; building them all first would take gigabytes.
    tracemalloc.start()
    try:
        for _ in itertools.islice(enumerate_trees(complete(9), "connected"), 50000):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


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
    # NONE is served on K_n, which must not hide that g is disconnected.
    with pytest.raises(ValueError):
        count_timed_trees(g, "none")
    with pytest.raises(ValueError):
        next(enumerate_timed_trees(g, "none"))


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
    with pytest.raises(ValueError):
        count_timed_trees(path(17), "none")


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


def node(label, *children, time=None):
    return AssemblyTree(frozenset(label), children, time)


def test_validation_error_lists_are_pinned():
    """Every reason validation_errors can give, in order, on hand-made
    trees, several with more than one fault."""
    p3, p4 = path(3), path(4)
    leaves = "leaves: must be exactly the n singletons, each once"
    cases = [
        (p3, node({1, 2, 3}, node({1, 2}, leaf(1), leaf(2)), leaf(3)), "edge", []),
        (
            p3,
            node({1, 2, 3}, node({1, 2}, timed_leaf(1), timed_leaf(2), time=1), timed_leaf(3), time=2),
            "connected",
            [],
        ),
        (p3, node({1, 2}, leaf(1), leaf(2)), "none", ["root: label {1,2} is not the full vertex set", leaves]),
        (
            p3,
            node({1, 2, 3}, node({1, 2}, leaf(1), leaf(2)), node({2, 3}, leaf(2), leaf(3))),
            "none",
            ["node {1,2,3}: children labels overlap", leaves],
        ),
        # overlap plus a missing leaf
        (
            p4,
            node({1, 2, 3, 4}, node({1, 2}, leaf(1), leaf(2)), node({2, 3}, leaf(2), leaf(3))),
            "connected",
            [
                "node {1,2,3,4}: label is not the union of its children",
                "node {1,2,3,4}: children labels overlap",
                leaves,
            ],
        ),
        (
            p3,
            node({1, 2, 3}, node({1, 2, 3}, leaf(1), leaf(2), leaf(3))),
            "none",
            ["node {1,2,3}: internal nodes need at least two children"],
        ),
        (
            p3,
            node({1, 2, 3}, node({1, 2, 3}, leaf(1), leaf(2), leaf(3))),
            "edge",
            [
                "node {1,2,3}: internal nodes need at least two children",
                "node {1,2,3}: edge rule requires exactly two children",
                "node {1,2,3}: edge rule requires exactly two children",
            ],
        ),
        (
            p3,
            node({1, 2, 5}, leaf(1), leaf(2), leaf(5)),
            "none",
            [
                "root: label {1,2,5} is not the full vertex set",
                "node {1,2,5}: label outside vertex range 1..3",
                "node {5}: label outside vertex range 1..3",
                leaves,
            ],
        ),
        (
            p3,
            node({1, 2, 3}, node({1, 3, 7}, leaf(1), leaf(3), leaf(7)), leaf(2)),
            "connected",
            [
                "node {1,2,3}: label is not the union of its children",
                "node {1,3,7}: label outside vertex range 1..3",
                "node {7}: label outside vertex range 1..3",
            ],
        ),
        (
            p3,
            node({1, 2, 3}, node({1, 7}, leaf(1), leaf(7)), node({2, 3}, leaf(2), leaf(3))),
            "edge",
            [
                "node {1,2,3}: label is not the union of its children",
                "node {1,7}: label outside vertex range 1..3",
                "node {7}: label outside vertex range 1..3",
            ],
        ),
        (
            p3,
            node({1, 2, 3}, node({1, 2}), leaf(3)),
            "none",
            ["leaf {1,2}: leaves must carry singletons", leaves],
        ),
        # n leaves covering the vertex set, but not as singletons
        (
            p3,
            node({1, 2, 3}, node({1, 2}), node({2, 3}), leaf(1)),
            "none",
            [
                "node {1,2,3}: children labels overlap",
                "leaf {1,2}: leaves must carry singletons",
                "leaf {2,3}: leaves must carry singletons",
                leaves,
            ],
        ),
        (path(2), node({1, 2}, node(()), leaf(1), leaf(2)), "connected", ["node: empty label"]),
        (
            Graph(1),
            node(()),
            "none",
            ["root: label {} is not the full vertex set", "node: empty label", leaves],
        ),
        (path(2), node({1, 2}, node(()), node({1, 2}, leaf(1), leaf(2))), "edge", ["node: empty label"]),
        (
            p3,
            node({1, 2, 3}, leaf(1), leaf(2)),
            "none",
            ["node {1,2,3}: label is not the union of its children", leaves],
        ),
        (
            p3,
            node({1, 2, 3}, node({1, 3}, leaf(1), leaf(3)), leaf(2)),
            "connected",
            ["node {1,3}: label does not induce a connected subgraph"],
        ),
        (
            p3,
            node({1, 2, 3}, node({1, 3}, leaf(1), leaf(3)), leaf(2)),
            "edge",
            ["node {1,3}: no edge joins {1} and {3}"],
        ),
        # an edge node with three children plus a disconnected label
        (
            p4,
            node({1, 2, 3, 4}, node({1, 3}, leaf(1), leaf(3)), leaf(2), leaf(4)),
            "edge",
            [
                "node {1,2,3,4}: edge rule requires exactly two children",
                "node {1,3}: no edge joins {1} and {3}",
            ],
        ),
        (
            p4,
            node({1, 2, 3, 4}, node({1, 3}, leaf(1), leaf(3)), leaf(2), leaf(4)),
            "connected",
            ["node {1,3}: label does not induce a connected subgraph"],
        ),
        (
            star(4),
            node({1, 2, 3, 4}, node({2, 3, 4}, leaf(2), leaf(3), leaf(4)), leaf(1)),
            "connected",
            ["node {2,3,4}: label does not induce a connected subgraph"],
        ),
        (
            star(4),
            node({1, 2, 3, 4}, node({2, 3}, leaf(2), leaf(3)), node({1, 4}, leaf(1), leaf(4))),
            "edge",
            ["node {2,3}: no edge joins {2} and {3}"],
        ),
        # overlapping children are not tested for a crossing edge
        (
            p3,
            node({1, 2, 3}, node({1, 2}, leaf(1), leaf(2)), node({2, 3}, leaf(2), leaf(3))),
            "edge",
            ["node {1,2,3}: children labels overlap", leaves],
        ),
        (
            path(2),
            node({1, 2}, node({1}, time=1), timed_leaf(2), time=1),
            "none",
            ["node {1,2}: child {1} is not strictly earlier", "leaf {1}: leaves must sit at time 0"],
        ),
        (
            path(2),
            node({1, 2}, timed_leaf(1), timed_leaf(2), time=3),
            "none",
            ["times: values [1, 2] are unoccupied below the root time 3"],
        ),
        (
            p4,
            node(
                {1, 2, 3, 4},
                node({1, 2}, timed_leaf(1), timed_leaf(2), time=2),
                node({3, 4}, timed_leaf(3), timed_leaf(4), time=1),
                time=5,
            ),
            "edge",
            ["times: values [3, 4] are unoccupied below the root time 5"],
        ),
        (
            p3,
            node({1, 2, 3}, node({1, 2}, timed_leaf(1), timed_leaf(2), time=1), timed_leaf(3), time=1),
            "none",
            ["node {1,2,3}: child {1,2} is not strictly earlier"],
        ),
        (
            p3,
            node({1, 2, 3}, node({1, 3}, timed_leaf(1), timed_leaf(3), time=2), node({2}, time=3), time=1),
            "connected",
            [
                "node {1,2,3}: child {1,3} is not strictly earlier",
                "node {1,2,3}: child {2} is not strictly earlier",
                "node {1,3}: label does not induce a connected subgraph",
                "leaf {2}: leaves must sit at time 0",
            ],
        ),
        (path(2), node({1, 2}, leaf(1), timed_leaf(2), time=1), "none", ["node {1}: timed and untimed nodes mix"]),
        (
            path(2),
            node({1, 2}, timed_leaf(1), timed_leaf(2)),
            "none",
            ["node {1}: timed and untimed nodes mix", "node {2}: timed and untimed nodes mix"],
        ),
        # mixed times plus out of range
        (
            p3,
            node({1, 2, 5}, timed_leaf(1), leaf(2), node({5}, time=2), time=1),
            "connected",
            [
                "root: label {1,2,5} is not the full vertex set",
                "node {2}: timed and untimed nodes mix",
                "node {1,2,5}: label outside vertex range 1..3",
                "node {5}: label outside vertex range 1..3",
                leaves,
            ],
        ),
        (
            p3,
            node({1, 2, 3}, node({1, 3}, timed_leaf(1), leaf(3), time=0), node({2, 9}, time=4), time=1),
            "edge",
            [
                "node {3}: timed and untimed nodes mix",
                "node {1,2,3}: label is not the union of its children",
                "node {1,3}: no edge joins {1} and {3}",
                "node {2,9}: label outside vertex range 1..3",
                leaves,
            ],
        ),
    ]
    for g, t, rule, expected in cases:
        assert validation_errors(g, t, rule) == expected


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


def test_level_assignments_of_wide_and_deep_trees():
    # A root over k cherries: the cherries take an ordered set partition
    # of themselves, fubini(k) ways. A count over sets of stamped internal
    # nodes would step all 2^k sets of cherries.
    def cherries(k):
        return branch([branch([leaf(2 * i + 1), leaf(2 * i + 2)]) for i in range(k)])

    def perfect(low, leaves):
        if leaves == 1:
            return leaf(low)
        half = leaves // 2
        return branch([perfect(low, half), perfect(low + half, half)])

    start = time.perf_counter()
    for k in (16, 20, 32):
        assert count_level_assignments(cherries(k)) == fubini(k)
    assert time.perf_counter() - start < 1
    # pinned by the count over sets of internal nodes
    assert count_level_assignments(perfect(1, 16)) == 1323338487
    assert count_level_assignments(perfect(1, 64)) > 0


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


def test_timed_counts_at_the_counting_cap():
    # K_n and every count under none go by size alone; paths and cycles
    # take the subset recursion over all 2^16 sets.
    assert count_timed_trees(complete(16), "connected") == td_connected_complete(16)
    assert count_timed_trees(complete(16), "edge") == td_edge_complete(16)
    assert count_timed_trees(path(16), "none") == td_connected_complete(16)
    assert count_timed_trees(path(16), "connected") == td_connected_path(16)
    assert count_timed_trees(path(16), "edge") == td_edge_path(16)
    assert count_timed_trees(cycle(16), "connected") == td_connected_cycle(16)
    assert count_timed_trees(cycle(16), "edge") == td_edge_cycle(16)


def random_graph(n, extra, seed):
    """R(n, extra, seed): a random spanning tree on n vertices, each
    vertex i >= 2 joined to a random earlier one, plus `extra` random
    edges."""
    r = random.Random(seed)
    edges = {(r.randrange(1, i), i) for i in range(2, n + 1)}
    while len(edges) < n - 1 + extra:
        edges.add(tuple(sorted(r.sample(range(1, n + 1), 2))))
    return Graph(n, edges)


def test_timed_counts_on_dense_graphs_are_pinned():
    # Dense graphs that are not complete, pinned by the quotient-graph
    # recursion that counted timed trees before the multichain one.
    halves = Graph(10, [(a, b) for a in range(1, 6) for b in range(6, 11)])
    pinned = [
        (random_graph(11, 30, 9), 715649082740, 256961506054),
        (random_graph(10, 20, 4), 6371694272, 2296225490),
        (halves, 6395202751, 2290581000),  # K5,5
    ]
    for g, connected, edge in pinned:
        assert (count_timed_trees(g, "connected"), count_timed_trees(g, "edge")) == (
            connected, edge
        )


def test_timed_counts_on_a_seeded_sweep_are_pinned():
    # Four random graphs of each size 1..9, sparse to dense, under every
    # rule; the digest was taken with the quotient-graph recursion.
    rng = random.Random(9)
    lines = []
    for n in range(1, 10):
        for _ in range(4):
            extra = rng.randint(0, (n - 1) * (n - 2) // 2)
            g = random_graph(n, extra, rng.randrange(1 << 30))
            lines.extend(f"{count_timed_trees(g, rule)}\n" for rule in RULES)
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == "93dae7f75be9924135741aa77ef5017a2893c418307e3af4a591c80629d4c1a9"


def test_timed_counts_do_not_depend_on_the_numbering():
    rng = random.Random(12)
    for n in (1, 2, 3, 4, 5, 6, 6, 7, 7, 8, 8, 9, 9):
        edges = {(rng.randint(1, v - 1), v) for v in range(2, n + 1)}
        extra = rng.randint(0, n * (n - 1) // 2 - len(edges)) // 2
        while len(edges) < n - 1 + extra:
            edges.add(tuple(sorted(rng.sample(range(1, n + 1), 2))))
        g = Graph(n, edges)
        counts = {rule: count_timed_trees(g, rule) for rule in RULES}
        for _ in range(3):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            h = Graph(n, [(perm[u - 1], perm[v - 1]) for u, v in edges])
            assert counts == {rule: count_timed_trees(h, rule) for rule in RULES}


def test_plain_counts_on_random_graphs_keep_their_relations():
    # Past the enumeration cap, on sparse and dense graphs: a relabelled
    # copy counts the same, a looser rule never counts fewer, and rule none
    # counts the trees of K_n.
    rng = random.Random(11)
    for n, extra in ((10, 2), (10, 25), (11, 3), (11, 30), (12, 4), (12, 40)):
        edges = {(rng.randint(1, v - 1), v) for v in range(2, n + 1)}
        while len(edges) < n - 1 + extra:
            edges.add(tuple(sorted(rng.sample(range(1, n + 1), 2))))
        g = Graph(n, edges)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        h = Graph(n, [(perm[u - 1], perm[v - 1]) for u, v in edges])
        plain = {rule: count_trees(g, rule) for rule in RULES}
        assert plain == {rule: count_trees(h, rule) for rule in RULES}
        assert plain["edge"] <= plain["connected"] <= plain["none"] == connected_complete(n)


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
    # A tree built past branch's checks mixes an untimed leaf under a timed root.
    mixed = AssemblyTree(fs({1, 2}), (leaf(1), timed_leaf(2)), 1)
    with pytest.raises(ValueError, match="timed and untimed nodes cannot mix"):
        frontier_partition(mixed, 0)


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


def test_edge_trees_are_the_binary_connected_trees():
    # Every label of an EDGE tree is connected, and a connected set split
    # into two connected sides has an edge across: the EDGE stream is the
    # CONNECTED stream cut down to binary trees, in the same order, and so
    # are the timed streams and counts.
    graphs = [g for n in range(3, 8) for _, g in families(n)]
    rng = random.Random(8)
    for n in (4, 5, 6, 7, 7):
        edges = {(rng.randint(1, v - 1), v) for v in range(2, n + 1)}
        while len(edges) < n + 2:
            edges.add(tuple(sorted(rng.sample(range(1, n + 1), 2))))
        graphs.append(Graph(n, edges))
    perm = list(range(1, 8))
    rng.shuffle(perm)
    graphs.append(Graph(7, [(perm[u - 1], perm[v - 1]) for u, v in graphs[-1].edges]))

    def binary(trees):
        return [t for t in trees if all(len(node.children) in (0, 2) for node in t.walk())]

    for g in graphs:
        assert list(enumerate_trees(g, "edge")) == binary(enumerate_trees(g, "connected"))
        if g.n <= 6:
            timed = binary(enumerate_timed_trees(g, "connected"))
            assert list(enumerate_timed_trees(g, "edge")) == timed
            assert count_timed_trees(g, "edge") == len(timed)


def test_plain_edge_counts_at_the_counting_cap():
    # Bóna and Vince's counts: Catalan(n-1) on paths, C(2n-3, n-1) on
    # cycles, (n-1)! on stars and (2n-3)!! on complete graphs.
    assert count_trees(path(16), "edge") == binomial(30, 15) // 16
    assert count_trees(cycle(16), "edge") == binomial(29, 15)
    assert count_trees(star(12), "edge") == math.factorial(11)
    assert count_trees(complete(16), "edge") == math.prod(range(1, 30, 2))


def test_clique_counts_at_the_counting_cap():
    # K_n is one twin class, so K16 and every `none` count at the cap
    # enter 15 sets, and K64 at the vertex cap 63.
    for rule in ("none", "connected"):
        assert count_trees(complete(16), rule) == connected_complete(16)
        assert count_trees(complete(64), rule, limit=64) == connected_complete(64)
    assert count_trees(path(16), "none") == connected_complete(16)
    assert count_trees(complete(64), "edge", limit=64) == math.prod(range(1, 126, 2))


def test_clique_size_table():
    # K_k by its size, through the subset DP on one twin class: Bóna and
    # Vince's connected_complete and (2k - 3)!! binary trees, and the
    # timed closed forms.
    for k in range(1, 41):
        for rule in ("none", "connected"):
            assert count_trees(complete(k), rule, limit=k) == connected_complete(k)
            assert count_timed_trees(complete(k), rule, limit=k) == td_connected_complete(k)
        assert count_trees(complete(k), "edge", limit=k) == math.prod(range(1, 2 * k - 2, 2))
        assert count_timed_trees(complete(k), "edge", limit=k) == td_edge_complete(k)


def test_clique_size_recursion_agrees_with_the_subset_dp():
    # _forests called directly on K_n, one twin class: in its convention
    # F = T on one vertex, and with no bound F = 2 T on two or more.
    for n in range(1, 41):
        full = (1 << n) - 1
        assert forests_on(complete(n), full, 1) == (2 * connected_complete(n) if n > 1 else 1)
        assert forests_on(complete(n), full, 0) == math.prod(range(1, 2 * n - 2, 2))


def test_plain_counts_on_cliques_test_no_subsets(monkeypatch):
    # The subset DP recurses through the module's `_forests`. K_n is one
    # twin class, so the sets it enters are the canonical ones, the n - 1
    # of two or more vertices that hold the lowest; and as every block is
    # grown connected, no set is tested beyond _prepare's check.
    calls, entered = [], []

    def counted(g, mask):
        calls.append(mask)
        return connected_mask(g, mask)

    def forests(mask, *args):
        entered.append(mask)
        return recurse(mask, *args)

    recurse = assembly._forests
    monkeypatch.setattr(assembly, "connected_mask", counted)
    monkeypatch.setattr(assembly, "_forests", forests)
    for rule in RULES:
        calls.clear()
        entered.clear()
        count_trees(complete(12), rule)
        assert calls == [(1 << 12) - 1]  # _prepare's check alone
        assert sorted(entered) == [(1 << k) - 1 for k in range(2, 13)]


def test_plain_counts_walk_each_set_at_most_once(monkeypatch):
    # First blocks are grown connected, so the only walk left is the one
    # that tells whether a set falls apart: one per entry into `_forests`,
    # and never one per block.
    walks, entered = [], []

    def walk(g, mask):
        walks.append(mask)
        return component_mask(g, mask)

    def forests(mask, *args):
        entered.append(mask)
        return recurse(mask, *args)

    recurse = assembly._forests
    monkeypatch.setattr(assembly, "component_mask", walk)
    monkeypatch.setattr(assembly, "_forests", forests)
    graphs = {"P12": path(12), "C12": cycle(12), "cat": caterpillar(4, [2, 1, 3, 2])}
    work = {}
    for name, g in graphs.items():
        for rule in ("connected", "edge"):
            walks.clear()
            entered.clear()
            count_trees(g, rule)
            assert len(walks) == len(entered)
            work[name, rule] = (len(walks), len(entered))
    # (walks, entries); a path's sets are its 66 intervals of two or more
    # vertices. Paths and cycles have no twins; the caterpillar's legs on
    # one spine vertex are a twin class, and only canonical sets of its
    # peeled graph are entered.
    assert work == {
        ("P12", "connected"): (66, 66),
        ("P12", "edge"): (66, 66),
        ("C12", "connected"): (616, 616),
        ("C12", "edge"): (616, 616),
        ("cat", "connected"): (324, 324),
        ("cat", "edge"): (324, 324),
    }


def forests_entered(monkeypatch):
    """The masks each later count_trees enters `_forests` with, in a list
    the caller clears."""
    entered = []

    def forests(mask, *args):
        entered.append(mask)
        return recurse(mask, *args)

    recurse = assembly._forests
    monkeypatch.setattr(assembly, "_forests", forests)
    return entered


def test_relabelled_paths_enter_only_their_intervals(monkeypatch):
    # The counters run on the graph peeled in smallest-last order, where
    # each vertex of a path is an end of the path it and the later ones
    # form. So a subpath's lowest vertex is one of its ends, its first
    # blocks and their rests are subpaths again, and each seeded
    # relabelling of P12 enters its 66 intervals of two or more vertices
    # and nothing else. On its own labels a lowest vertex may lie inside
    # a subpath, whose rests then fall apart, and it entered 275 to 382.
    counts = {rule: count_trees(path(12), rule) for rule in ("connected", "edge")}
    entered = forests_entered(monkeypatch)
    rng = random.Random(5)
    for _ in range(5):
        perm = list(range(1, 13))
        rng.shuffle(perm)
        h = Graph(12, [(perm[u - 1], perm[v - 1]) for u, v in path(12).edges])
        for rule in ("connected", "edge"):
            entered.clear()
            assert count_trees(h, rule) == counts[rule]
            peeled = assembly._peeled(h)
            intervals = [m for m in range(1 << 12) if m & (m - 1) and connected_mask(peeled, m)]
            assert len(intervals) == 66
            assert sorted(entered) == intervals


def test_plain_count_work_at_the_counting_cap_is_pinned(monkeypatch):
    # R(16, 8, 5) `connected` entered 38,453 sets on its own labels and
    # enters 25,846 peeled: a lost order shows here as work, not as time.
    entered = forests_entered(monkeypatch)
    count_trees(random_graph(16, 8, 5), "connected")
    assert len(entered) == 25846


def smallest_last(g):
    """g's vertices in smallest-last order, by sets: each has the least
    degree among the vertices left, counting edges to those alone, ties
    going to the lowest."""
    nbrs = {v: g.neighbors(v) for v in range(1, g.n + 1)}
    left, order = set(nbrs), []
    while left:
        v = min(left, key=lambda v: (len(nbrs[v] & left), v))
        order.append(v)
        left.remove(v)
    return order


def test_peeled_graph_is_the_graph_in_smallest_last_order():
    # Vertex i of the peeled graph is the i-th vertex of g's smallest-last
    # order, so mapping its edges back gives g's, and each of its vertices
    # has the least degree among the vertices from it on. An order that is
    # already the identity, as on K_n, P_n and C_n, returns g itself.
    graphs = [g for n in range(1, 6) for g in labelled_connected_graphs(n)] + twin_rich_graphs()
    for g in graphs:
        h = assembly._peeled(g)
        order = smallest_last(g)
        assert h.n == g.n
        assert sorted(tuple(sorted((order[u - 1], order[v - 1]))) for u, v in h.edges) == list(g.edges)
        for i in range(1, h.n + 1):
            later = set(range(i, h.n + 1))
            degrees = [len(h.neighbors(v) & later) for v in range(i, h.n + 1)]
            assert degrees[0] == min(degrees)
        assert (h is g) == (order == sorted(order))
    for n in range(1, 17):
        for g in [complete(n), path(n)] + ([cycle(n)] if n >= 3 else []):
            assert assembly._peeled(g) is g


def test_first_blocks_are_the_connected_sets_holding_the_lowest_vertex():
    # On every nonempty mask, connected or not, each block comes once, and
    # together they are the submasks holding the mask's lowest vertex that
    # induce a connected subgraph.
    rng = random.Random(23)
    graphs = [star(7), complete(6), cycle(7)]
    for n in range(1, 9):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for _ in range(2):
            graphs.append(Graph(n, rng.sample(pairs, rng.randint(0, len(pairs)))))
    for g in graphs:
        for mask in range(1, 1 << g.n):
            low = mask & -mask
            blocks = assembly._first_blocks(g, mask)
            assert len(blocks) == len(set(blocks))
            assert sorted(blocks) == [
                b for b in range(mask + 1) if b & mask == b and b & low and connected_mask(g, b)
            ]


def blown_up(rng, n):
    """A seeded graph of at most n vertices rich in twins: a random
    connected graph on a few classes, each class of one to three vertices
    made true twins (a clique) or false twins, under a random relabelling.
    It falls apart only when it is one class of false twins."""
    base = rng.randint(1, 4)
    sizes = [rng.randint(1, 3) for _ in range(base)]
    while sum(sizes) > n:
        sizes[sizes.index(max(sizes))] -= 1
    cliques = [rng.random() < 0.5 for _ in range(base)]
    links = {(rng.randint(0, c - 1), c) for c in range(1, base)}
    links |= {(a, b) for a, b in itertools.combinations(range(base), 2) if rng.random() < 0.4}
    home = [c for c, size in enumerate(sizes) for _ in range(size)]
    labels = list(range(1, len(home) + 1))
    rng.shuffle(labels)
    edges = [
        (labels[u], labels[v])
        for u, v in itertools.combinations(range(len(home)), 2)
        if (home[u], home[v]) in links or (home[u] == home[v] and cliques[home[u]])
    ]
    return Graph(len(home), edges)


def twin_rich_graphs():
    rng = random.Random(24)
    graphs = [star(7), caterpillar(3, [2, 0, 3]), complete(5), cycle(4), path(3),
              Graph(6, [(a, b) for a in range(1, 4) for b in range(4, 7)])]
    graphs += [blown_up(rng, 8) for _ in range(30)]
    return [g for g in graphs if connected_mask(g, g.full_mask())]


def test_twin_classes_are_the_vertices_with_equal_neighbourhoods():
    # u and v are twins when N(u) - v = N(v) - u; the classes partition
    # the twinned vertices, and leaving a vertex out of a block leaves out
    # the members of its class above it.
    rng = random.Random(25)
    graphs = twin_rich_graphs()
    for n in range(1, 9):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        graphs += [Graph(n, rng.sample(pairs, rng.randint(0, len(pairs)))) for _ in range(3)]
    for g in graphs:
        twins = assembly._twin_classes(g)
        nbrs = {v: g.neighbors(v) for v in range(1, g.n + 1)}
        expected = {
            v: {u for u in nbrs if nbrs[u] - {v} == nbrs[v] - {u}} for v in nbrs
        }
        found = {v: {v} for v in nbrs}
        for members, prefixes in twins.classes:
            vertices = sorted(mask_vertices(members))
            assert prefixes == tuple(vertex_mask(vertices[:j]) for j in range(len(vertices) + 1))
            for v in vertices:
                found[v] = set(vertices)
        assert found == expected
        assert twins.twinned == vertex_mask(v for v in nbrs if len(found[v]) > 1)
        for v in mask_vertices(twins.twinned):
            assert ~twins.keep[v] == vertex_mask(u for u in found[v] if u >= v)


def canonical_masks(g):
    twins = assembly._twin_classes(g)
    return [m for m in range(1, 1 << g.n) if assembly._canonical(m, twins) == m]


def test_first_blocks_with_twins_are_the_canonical_connected_blocks():
    # On a canonical set, the blocks grown with the twin classes are the
    # connected blocks holding its lowest vertex that are canonical, each
    # once; with no twin classes, all connected blocks come, as they do
    # for the enumerator.
    for g in twin_rich_graphs():
        twins = assembly._twin_classes(g)
        for mask in canonical_masks(g):
            blocks = assembly._first_blocks(g, mask, twins.twinned, twins.keep)
            assert len(blocks) == len(set(blocks))
            assert sorted(blocks) == sorted(
                b for b in assembly._first_blocks(g, mask)
                if assembly._canonical(b, twins) == b
            )


def test_counts_memoise_canonical_sets_only(monkeypatch):
    # Both counters enter canonical sets of the peeled graph they run on
    # alone, and count as the enumerators do and under a relabelling.
    entered = []

    def recording(recurse):
        def wrapped(mask, *args):
            entered.append(mask)
            return recurse(mask, *args)
        return wrapped

    monkeypatch.setattr(assembly, "_forests", recording(assembly._forests))
    monkeypatch.setattr(assembly, "_multichains", recording(assembly._multichains))
    rng = random.Random(26)
    for g in twin_rich_graphs():
        canonical = set(canonical_masks(assembly._peeled(g)))
        perm = list(range(1, g.n + 1))
        rng.shuffle(perm)
        h = Graph(g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges])
        for rule in RULES:
            entered.clear()
            plain, timed = count_trees(g, rule), count_timed_trees(g, rule)
            assert set(entered) <= canonical
            assert (plain, timed) == (count_trees(h, rule), count_timed_trees(h, rule))
            if g.n <= 6:
                trees = list(enumerate_trees(g, rule))
                assert plain == len(trees)
                assert timed == sum(map(count_level_assignments, trees))


def test_twin_classes_count_as_a_graph_without_them(monkeypatch):
    # The weighted blocks and canonical rests against the plain recursion
    # over every set, past the reach of enumeration: with an empty class
    # table no set holds twins, and no block or rest is mapped.
    rng = random.Random(28)
    graphs = twin_rich_graphs() + [
        g for g in (blown_up(rng, 10) for _ in range(20)) if connected_mask(g, g.full_mask())
    ]
    counts = [
        (count_trees(g, rule), count_timed_trees(g, rule)) for g in graphs for rule in RULES
    ]
    monkeypatch.setattr(
        assembly, "_twin_classes", lambda g: assembly._Twins(0, (0,) * (g.n + 1), ())
    )
    assert counts == [
        (count_trees(g, rule), count_timed_trees(g, rule)) for g in graphs for rule in RULES
    ]


def test_twin_rich_counts_at_the_counting_cap():
    # Stars by their closed forms; K8,8 and K16 less an edge pinned by
    # the subset recursion before twin classes, which took up to a minute
    # and a half each. A seeded relabelling of each counts the same.
    halves = Graph(16, [(a, b) for a in range(1, 9) for b in range(9, 17)])
    less = Graph(16, [e for e in complete(16).edges if e != (1, 2)])
    pinned = [
        (star(16), (fubini(15), math.factorial(15)), (td_connected_star(16), td_edge_star(16))),
        (halves, (37441834826501971, 591422976144000),
         (4477179063878755299095, 1255859745815875132800)),
        (less, (232160244922771456, 5976825306952500),
         (82076505889692421859072, 27189279938490655986000)),
    ]
    rng = random.Random(27)
    for g, plain, timed in pinned:
        perm = list(range(1, 17))
        rng.shuffle(perm)
        h = Graph(16, [(perm[u - 1], perm[v - 1]) for u, v in g.edges])
        for graph in (g, h):
            assert tuple(count_trees(graph, rule) for rule in ("connected", "edge")) == plain
            assert tuple(count_timed_trees(graph, rule) for rule in ("connected", "edge")) == timed


def test_enumerations_walk_only_to_check_a_last_block(monkeypatch):
    # First blocks are grown connected, so the walks left are _prepare's
    # check of the whole graph and, under bound 2, one per side beside the
    # first block that has two or more vertices, which must be connected.
    walks = []

    def walk(g, mask):
        walks.append(mask)
        return connected_mask(g, mask)

    monkeypatch.setattr(assembly, "connected_mask", walk)
    work = {}
    for name, g, rule in (("P8", path(8), "connected"), ("C8", cycle(8), "edge")):
        walks.clear()
        list(enumerate_trees(g, rule))
        work[name, rule] = len(walks)
    assert work == {("P8", "connected"): 1, ("C8", "edge"): 197}


def labelled_connected_graphs(n):
    """Every connected graph on the vertices 1..n, one per edge set."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for keep in itertools.product((False, True), repeat=len(pairs)):
        edges = list(itertools.compress(pairs, keep))
        if induced_connected(range(1, n + 1), edges):
            yield Graph(n, edges)


def test_census_of_small_connected_graphs():
    # Every labelled connected graph on at most 5 vertices (OEIS A001187),
    # under every rule: the count is the number of trees enumerated, and up
    # to 4 vertices the number the oracle lists. The timed count is the
    # sum of the enumerated trees' stampings, and up to 4 vertices the
    # number of timed trees enumerated.
    census = {n: list(labelled_connected_graphs(n)) for n in range(1, 6)}
    assert [len(graphs) for graphs in census.values()] == [1, 1, 4, 38, 728]
    for n, graphs in census.items():
        for g in graphs:
            for rule in RULES:
                trees = list(enumerate_trees(g, rule))
                count = count_trees(g, rule)
                timed = count_timed_trees(g, rule)
                assert count == len(trees)
                assert timed == sum(map(count_level_assignments, trees))
                if n <= 4:
                    assert count == count_trees_by_listing(n, g.edges, rule)
                    assert timed == len(list(enumerate_timed_trees(g, rule)))


def connected_graphs_up_to_isomorphism(most):
    """The connected graphs on 1..most vertices, one edge list per
    isomorphism class, keyed by size. Every connected graph has a vertex
    whose removal leaves it connected, so each grows from a smaller one
    by a vertex joined to some of the others; a graph's canonical form is
    the least sorted edge list over all numberings of its vertices."""
    def canonical(n, edges):
        return min(
            tuple(sorted(tuple(sorted((p[u - 1], p[v - 1]))) for u, v in edges))
            for p in itertools.permutations(range(1, n + 1))
        )

    classes = {1: [()]}
    for n in range(2, most + 1):
        grown = set()
        for edges in classes[n - 1]:
            for joined in itertools.product((False, True), repeat=n - 1):
                if any(joined):
                    new = [(v, n) for v, j in enumerate(joined, 1) if j]
                    grown.add(canonical(n, [*edges, *new]))
        classes[n] = sorted(grown)
    return classes


def test_census_up_to_isomorphism():
    # One graph of each connected class on 1..5 vertices (OEIS A001349).
    # On 5 vertices, under every rule, the timed trees enumerated are the
    # timed count and the stampings summed over the trees enumerated, and
    # the listing oracles give both counts.
    classes = connected_graphs_up_to_isomorphism(5)
    assert [len(classes[n]) for n in range(1, 6)] == [1, 1, 2, 6, 21]
    for edges in classes[5]:
        g = Graph(5, edges)
        for rule in RULES:
            timed = len(list(enumerate_timed_trees(g, rule)))
            assert timed == count_timed_trees(g, rule)
            assert timed == sum(map(count_level_assignments, enumerate_trees(g, rule)))
            assert timed == count_timed_by_listing(5, g.edges, rule)
            assert count_trees(g, rule) == count_trees_by_listing(5, g.edges, rule)


def test_census_of_six_vertex_graphs_up_to_isomorphism():
    # One graph of each of the 112 connected classes on 6 vertices (OEIS
    # A001349), under `connected` and `edge`: the trees enumerated are the
    # count, and the timed trees enumerated are the timed count and the
    # stampings summed over the trees. `none` runs on K6 for every graph,
    # so it is checked once.
    def streamed(g, rule):
        trees = stampings = 0
        for t in enumerate_trees(g, rule):
            trees += 1
            stampings += count_level_assignments(t)
        assert trees == count_trees(g, rule)
        timed = sum(1 for _ in enumerate_timed_trees(g, rule))
        assert timed == stampings == count_timed_trees(g, rule)
        return trees, timed

    classes = connected_graphs_up_to_isomorphism(6)[6]
    assert len(classes) == 112
    assert streamed(Graph(6, classes[0]), "none") == (
        connected_complete(6), td_connected_complete(6)
    )
    totals = [
        streamed(Graph(6, edges), rule) for edges in classes for rule in ("connected", "edge")
    ]
    assert [sum(column) for column in zip(*totals)] == [152533, 432143]
    # Each class under a seeded numbering of its vertices counts the same.
    rng = random.Random(112)
    relabelled = []
    for edges in classes:
        p = rng.sample(range(1, 7), 6)
        g = Graph(6, [(p[u - 1], p[v - 1]) for u, v in edges])
        relabelled += [
            (count_trees(g, rule), count_timed_trees(g, rule)) for rule in ("connected", "edge")
        ]
    assert relabelled == totals


def test_plain_counts_where_only_some_subsets_are_cliques():
    def less(n, gone):
        return Graph(n, [e for e in complete(n).edges if e not in gone])

    rng = random.Random(13)
    graphs = [less(5, {(1, 2)}), less(6, {(1, 2)})]
    for n in (5, 6, 7):
        while True:
            g = less(n, set(rng.sample(complete(n).edges, rng.randint(2, 3))))
            if connected_mask(g, g.full_mask()):
                break
        graphs.append(g)
    # Random connected graphs of every size up to 6. One recursion serves
    # both merge bounds: 2 for `edge`, and for `connected` at n <= 2, where
    # every tree is binary.
    for n in range(1, 7):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for _ in range(4):
            edges = {(rng.randint(1, v - 1), v) for v in range(2, n + 1)}
            graphs.append(Graph(n, edges | set(rng.sample(pairs, rng.randint(0, len(pairs))))))
    listed = {n: list(all_assembly_trees(range(1, n + 1))) for n in range(1, 8)}
    for g in graphs:
        for rule in RULES:
            # count_trees_by_listing, with each n's trees listed once
            assert count_trees(g, rule) == sum(rule_ok(t, g.edges, rule) for t in listed[g.n])
    # Every relabelling of K_n less an edge is K_n less some edge.
    for n in (5, 6, 7, 8):
        for rule in RULES:
            assert len({count_trees(less(n, {gone}), rule) for gone in complete(n).edges}) == 1


def forests_on(g, mask, several):
    """assembly._forests on a canonical mask of g, set up as count_trees
    sets it up."""
    twins = assembly._twin_classes(g)
    assert assembly._canonical(mask, twins) == mask
    memo = {1 << v: 1 for v in range(g.n)}
    memo[0] = 0
    return memo.get(mask) or assembly._forests(mask, several, g, twins, memo)


def test_forests_on_a_set_that_falls_apart_multiply_over_its_components():
    # No block crosses components: with no bound a forest is one forest
    # per component, and under bound 2 no forest is one tree.
    g = path(8)
    for parts in (((1, 2, 3), (5, 6, 7, 8)), ((1, 2, 3), (5,)), ((1,), (3, 4, 5)),
                  ((2, 3), (5, 6), (8,))):
        mask = vertex_mask(itertools.chain(*parts))
        expected = math.prod(forests_on(g, vertex_mask(part), 1) for part in parts)
        # F = 2 T on a connected set of two or more vertices, 1 on a singleton
        assert expected == math.prod(
            2 * count_trees(path(len(part)), "connected") if len(part) > 1 else 1
            for part in parts
        )
        assert forests_on(g, mask, 1) == expected
        assert forests_on(g, mask, 0) == 0


def test_plain_counts_on_sparse_graphs_do_not_depend_on_the_numbering():
    # Two cliques joined by a long path, and sparse random graphs, whose
    # vertex sets fall apart in many ways.
    bridge = Graph(13, [
        *itertools.combinations(range(1, 5), 2),
        *((v, v + 1) for v in range(4, 10)),
        *itertools.combinations(range(10, 14), 2),
    ])
    graphs = [bridge]
    rng = random.Random(16)
    for n in (11, 12, 13):
        edges = {(rng.randint(1, v - 1), v) for v in range(2, n + 1)}
        while len(edges) < n + 2:
            edges.add(tuple(sorted(rng.sample(range(1, n + 1), 2))))
        graphs.append(Graph(n, edges))
    for g in graphs:
        counts = {rule: count_trees(g, rule) for rule in RULES}
        for _ in range(3):
            perm = list(range(1, g.n + 1))
            rng.shuffle(perm)
            h = Graph(g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges])
            assert counts == {rule: count_trees(h, rule) for rule in RULES}


def test_plain_counts_at_the_counting_cap_are_pinned():
    pinned = [
        (cycle(16), 13141557519, 77558760),
        (path(16), 1968801519, 9694845),
        (random_graph(16, 8, 5), 33624586397876, 232175775103),
    ]
    for g, connected, edge in pinned:
        assert (count_trees(g, "connected"), count_trees(g, "edge")) == (connected, edge)


def test_counters_and_enumerators_leave_no_garbage_cycles():
    # A count's memo is freed when the count returns, not when the
    # collector next runs: no call leaves a reference cycle behind.
    timed = next(enumerate_timed_trees(cycle(5), "connected"))
    text = serialize_tree(timed)
    calls = [
        lambda: count_trees(cycle(10), "connected"),
        lambda: count_trees(cycle(10), "edge"),
        lambda: count_timed_trees(cycle(10), "edge"),
        lambda: count_timed_trees(complete(10), "connected"),
        lambda: count_level_assignments(next(enumerate_trees(path(6), "connected"))),
        lambda: list(enumerate_trees(cycle(6), "connected")),
        lambda: next(enumerate_trees(complete(7), "connected")),
        lambda: list(enumerate_timed_trees(cycle(5), "connected")),
        lambda: next(enumerate_timed_trees(complete(6), "connected")),
        lambda: parse_tree(text),
        lambda: serialize_tree(timed, "dot"),
        lambda: frontier_partition(timed, 1),
    ]
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            call()
            assert gc.collect() == 0
    finally:
        gc.enable()


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
    label_error = 'node needs a "label" list of ints, got '
    bad = [
        ("nope", "not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        ("[1, 2]", "tree JSON must be an object"),
        ('{"children": []}', label_error + "None"),
        ('{"label": ["a"], "children": []}', label_error + "['a']"),
        ('{"label": [1, 2], "children": 3}', '"children" must be a list'),
        ('{"label": [1, 2], "time": "x", "children": []}', "\"time\" must be an int, got 'x'"),
        # timed root with an untimed child
        (
            '{"label":[1,2],"time":1,"children":[{"label":[1],"children":[]},'
            '{"label":[2],"time":0,"children":[]}]}',
            "mixed timed and untimed nodes",
        ),
        # JSON booleans in place of a vertex or a time: P2 read as [1, 2]
        (
            '{"label":[true,2],"time":true,"children":[{"label":[true],"time":false,'
            '"children":[]},{"label":[2],"time":0,"children":[]}]}',
            label_error + "[True, 2]",
        ),
        (
            '{"label":[1,2],"time":1,"children":[{"label":[1],"time":false,'
            '"children":[]},{"label":[2],"time":0,"children":[]}]}',
            '"time" must be an int, got False',
        ),
        (
            '{"label":[true,2],"children":[{"label":[1],"children":[]},'
            '{"label":[2],"children":[]}]}',
            label_error + "[True, 2]",
        ),
        # nested past what json.loads can recurse through
        ("[" * 100000 + "]" * 100000, "tree JSON nests too deeply"),
        ('{"label":[1],"children":[' * 100000 + "]}" * 100000, "tree JSON nests too deeply"),
        # deeper than any tree on at most 64 vertices
        ('{"label":[1],"children":[' * 64 + '{"label":[1]}' + "]}" * 64, "tree nests deeper than 63 levels"),
    ]
    for text, message in bad:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_tree(text)


def test_parse_tree_takes_the_deepest_trees():
    """A caterpillar on 64 vertices nests 63 levels deep, the most any
    assembly tree on at most 64 vertices can."""
    t = leaf(1)
    for v in range(2, 65):
        t = branch([t, leaf(v)])
    assert parse_tree(serialize_tree(t)) == t
    assert validate(path(64), t, "edge")


def test_json_is_tree_to_dict_dumped_and_walk_is_preorder():
    def preorder(t):
        yield t
        for child in t.children:
            yield from preorder(child)

    for n in range(1, 6):
        for _, g in families(n):
            for rule in RULES:
                trees = list(enumerate_trees(g, rule))
                if n <= 4:
                    trees += enumerate_timed_trees(g, rule)
                for t in trees:
                    assert serialize_tree(t) == json.dumps(tree_to_dict(t), separators=(",", ":"))
                    assert list(t.walk()) == list(preorder(t))


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


@settings(max_examples=12, deadline=None, print_blob=True, derandomize=True)
@given(connected_graphs())
def test_random_graphs_counts_enumeration_and_oracles_agree(case):
    n, edges = case
    g = Graph(n, edges)
    shapes = [(t, from_oracle(t)) for t in all_assembly_trees(range(1, n + 1))]
    for rule in RULES:
        trees = list(enumerate_trees(g, rule))
        accepted = {tree for t, tree in shapes if rule_ok(t, edges, rule)}
        assert len(set(trees)) == len(trees) == count_trees(g, rule)
        assert set(trees) == accepted
        assert all(validate(g, t, rule) for t in trees)
        for _, tree in shapes:
            assert validate(g, tree, rule) == (tree in accepted)

        timed = list(enumerate_timed_trees(g, rule))
        assert len(set(timed)) == len(timed) == count_timed_trees(g, rule)
        # The naive timing listing tries up to (k-1)^(k-1) stampings per
        # tree; past five vertices every example would take seconds.
        if n <= 5:
            assert len(timed) == count_timed_by_listing(n, edges, rule)
        assert all(validate(g, t, rule) for t in timed)


def test_timed_validation_matches_the_definition():
    """On every graph of up to 4 vertices, every tree with every
    map from its internal nodes to 1..k validates exactly when the rule
    holds and the stamps make a timed tree: leaves at 0, each parent
    strictly later than its children, and the occupied times gapless."""

    def stamped(t, times):
        if t[0] == "leaf":
            return AssemblyTree(frozenset((t[1],)), time=0)
        time = next(times)  # preorder: the parent before its children
        kids = tuple(stamped(c, times) for c in t[1:])
        return AssemblyTree(frozenset().union(*(c.label for c in kids)), kids, time)

    def nodes(t):
        return [t] + [d for c in t.children for d in nodes(c)]

    def is_timed_tree(t):
        every = nodes(t)
        occupied = {d.time for d in every}
        return (
            all(d.time == 0 for d in every if not d.children)
            and all(c.time < d.time for d in every for c in d.children)
            and occupied == set(range(max(occupied) + 1))
        )

    for n in range(1, 5):
        shapes = []
        for t in all_assembly_trees(range(1, n + 1)):
            k = sum(1 for s in walk(t) if s[0] == "node")
            trees = [stamped(t, iter(times)) for times in itertools.product(range(1, k + 1), repeat=k)]
            shapes.append((t, [(tree, is_timed_tree(tree)) for tree in trees]))
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for chosen in itertools.product((False, True), repeat=len(pairs)):
            edges = [e for e, keep in zip(pairs, chosen) if keep]
            g = Graph(n, edges)
            for rule in RULES:
                for t, stampings in shapes:
                    shape_ok = rule_ok(t, edges, rule)
                    for tree, timed_ok in stampings:
                        assert validate(g, tree, rule) == (shape_ok and timed_ok)


def test_parse_tree_refuses_a_child_that_is_not_an_object():
    with pytest.raises(ValueError, match="^every tree node must be an object$"):
        parse_tree('{"label":[1,2],"children":[1,2]}')

import itertools
import tracemalloc

import pytest
from hypothesis import assume, given, strategies as st

from asmtree.graph import (
    Graph,
    caterpillar,
    complete,
    component_mask,
    connected_mask,
    crossing_mask,
    cycle,
    graph_from_json,
    graph_to_json,
    iter_bits,
    mask_vertices,
    path,
    star,
    vertex_mask,
)

from oracles import induced_connected, is_circular_arc


def test_mask_round_trip():
    assert vertex_mask([1]) == 1
    assert vertex_mask([1, 3, 4]) == 0b1101
    assert vertex_mask([]) == 0
    assert mask_vertices(0b1101) == frozenset({1, 3, 4})
    assert list(iter_bits(0b100110)) == [2, 3, 6]
    for vs in itertools.chain.from_iterable(
        itertools.combinations(range(1, 9), r) for r in range(9)
    ):
        assert mask_vertices(vertex_mask(vs)) == frozenset(vs)


def test_graph_canonicalizes_edges():
    g = Graph(3, [(2, 1), (1, 2), (2, 3)])
    assert g.edges == ((1, 2), (2, 3))
    assert g == Graph(3, [(1, 2), (2, 3)])
    assert hash(g) == hash(Graph(3, [(2, 3), (2, 1)]))
    assert g != Graph(4, [(1, 2), (2, 3)])


def test_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph(0)
    with pytest.raises(ValueError):
        Graph(65)
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 4)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 2)])


def test_graph_refuses_vertices_that_are_not_ints():
    # A bool is an int to isinstance: kept as given, it was written out as
    # [true,2], which graph_from_json refuses. Other types raised TypeError.
    for n, edges in ((True, []), (3.0, []), ("3", []), (3, [(True, 2)]), (3, [(1, False)]),
                     (3, [(1.0, 2)]), (3, [("1", 2)]), (3, [(1, None)])):
        with pytest.raises(ValueError, match="int") as info:
            Graph(n, edges)
        assert "\n" not in str(info.value)


def test_graph_accessors():
    g = path(4)
    assert g.vertices() == frozenset({1, 2, 3, 4})
    assert g.full_mask() == 0b1111
    assert g.neighbors(2) == frozenset({1, 3})
    assert g.adjacency_mask(1) == 0b10
    assert g.has_edge(3, 4) and g.has_edge(4, 3)
    assert not g.has_edge(1, 3)
    with pytest.raises(ValueError):
        g.neighbors(5)
    with pytest.raises(ValueError):
        g.has_edge(0, 1)


def test_family_constructors():
    assert star(4).edges == ((1, 2), (1, 3), (1, 4))
    assert path(1).edges == ()
    assert path(3).edges == ((1, 2), (2, 3))
    assert cycle(3).edges == ((1, 2), (1, 3), (2, 3))
    assert cycle(5).edges == ((1, 2), (1, 5), (2, 3), (3, 4), (4, 5))
    assert complete(1).edges == ()
    assert complete(4).edges == tuple(
        sorted((u, v) for u in range(1, 4) for v in range(u + 1, 5))
    )
    assert len(complete(8).edges) == 28


def test_family_constructor_bounds():
    with pytest.raises(ValueError):
        star(1)
    with pytest.raises(ValueError):
        path(0)
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        complete(0)


def test_caterpillar():
    assert caterpillar(1, [3]) == star(4)
    for n in range(1, 7):
        assert caterpillar(n, [0] * n) == path(n)
    g = caterpillar(4, [1, 1, 1, 1])
    assert g.n == 8
    assert g.edges == (
        (1, 2), (1, 5), (2, 3), (2, 6), (3, 4), (3, 7), (4, 8),
    )
    with pytest.raises(ValueError):
        caterpillar(0, [])
    with pytest.raises(ValueError):
        caterpillar(2, [1])
    with pytest.raises(ValueError):
        caterpillar(2, [1, -1])


def test_builders_refuse_a_large_n_before_listing_edges():
    # Graph checks n before it reads the edges, which every builder hands
    # over unbuilt; a list of a million edges takes tens of MiB.
    tracemalloc.start()
    try:
        for build, arg in (
            (star, 10**6), (path, 10**6), (cycle, 10**6), (complete, 2000),
            (lambda n: caterpillar(1, [n]), 10**6),
        ):
            with pytest.raises(ValueError, match=r"1\.\.64"):
                build(arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_adjacency_is_symmetric_and_loop_free():
    graphs = [star(6), path(7), cycle(8), complete(6), caterpillar(3, [2, 0, 1])]
    for g in graphs:
        for v in range(1, g.n + 1):
            assert not g.has_edge(v, v)
            for w in range(1, g.n + 1):
                assert g.has_edge(v, w) == g.has_edge(w, v)


def connected(g, vertices):
    return connected_mask(g, vertex_mask(vertices))


def crossing(g, a, b):
    return crossing_mask(g, vertex_mask(a), vertex_mask(b))


def test_connected_mask_examples():
    g = path(5)
    assert connected(g, {2, 3, 4})
    assert connected(g, {1})
    assert not connected(g, {1, 3})
    assert not connected(g, {1, 2, 4, 5})
    with pytest.raises(ValueError):
        connected_mask(g, 0)


def test_every_complete_subset_is_connected():
    g = complete(4)
    for r in range(1, 5):
        for vs in itertools.combinations(range(1, 5), r):
            assert connected(g, vs)


def test_connectivity_matches_union_find_oracle():
    cases = [star(6), path(6), cycle(6), caterpillar(3, [1, 2, 0])]
    for g in cases:
        for r in range(1, g.n + 1):
            for vs in itertools.combinations(range(1, g.n + 1), r):
                assert connected(g, vs) == induced_connected(vs, g.edges)


def test_component_mask_matches_union_find_oracle():
    # The component of the lowest vertex: connected, and no vertex of the
    # rest of the set can join it, so it is the whole set exactly when the
    # set is connected.
    cases = [star(6), path(6), cycle(7), caterpillar(3, [1, 2, 0]),
             Graph(7, [(1, 4), (2, 5), (4, 7), (3, 6), (5, 6)])]
    for g in cases:
        for r in range(1, g.n + 1):
            for vs in itertools.combinations(range(1, g.n + 1), r):
                part = mask_vertices(component_mask(g, vertex_mask(vs)))
                assert min(vs) in part and part <= set(vs)
                assert induced_connected(part, g.edges)
                assert not any(induced_connected(part | {v}, g.edges) for v in set(vs) - part)
                assert (part == set(vs)) == induced_connected(vs, g.edges)
    with pytest.raises(ValueError):
        component_mask(path(3), 0)


def test_cycle_connectivity_is_circular_arcs():
    # an induced subgraph of a cycle is connected iff the vertices are
    # consecutive around the cycle
    for n in range(3, 11):
        g = cycle(n)
        for r in range(1, n + 1):
            for vs in itertools.combinations(range(1, n + 1), r):
                assert connected(g, vs) == is_circular_arc(vs, n)


def test_crossing_mask():
    g = path(4)
    assert crossing(g, {1, 2}, {3, 4})
    assert crossing(g, {2}, {1, 3})
    assert not crossing(g, {1}, {3, 4})
    assert not crossing(star(5), {2, 3}, {4, 5})


@st.composite
def _two_connected_parts(draw):
    """A graph plus two disjoint sets wired to be connected and joined."""
    n = draw(st.integers(min_value=2, max_value=10))
    verts = list(range(1, n + 1))
    a = draw(st.sets(st.sampled_from(verts), min_size=1))
    pool = [v for v in verts if v not in a]
    assume(pool)
    b = draw(st.sets(st.sampled_from(pool), min_size=1))
    edges = set()
    for group in (sorted(a), sorted(b)):
        edges.update(zip(group, group[1:]))
    edges.add((min(a), min(b)))
    extras = [(u, v) for u in range(1, n) for v in range(u + 1, n + 1)]
    edges.update(draw(st.sets(st.sampled_from(extras))))
    return Graph(n, edges), a, b


@given(_two_connected_parts())
def test_merging_connected_parts_across_an_edge_stays_connected(case):
    g, a, b = case
    assert connected(g, a)
    assert connected(g, b)
    assert crossing(g, a, b)
    assert connected(g, a | b)


def test_json_round_trip():
    for g in [star(5), path(1), cycle(4), complete(3), caterpillar(2, [1, 2])]:
        assert graph_from_json(graph_to_json(g)) == g
    assert graph_to_json(path(2)) == '{"n":2,"edges":[[1,2]]}'


def test_json_rejects_malformed_input():
    for text in [
        "not json",
        "[1, 2]",
        '{"edges": []}',
        '{"n": "3"}',
        '{"n": 3, "edges": 7}',
        '{"n": 3, "edges": [[1]]}',
        '{"n": 3, "edges": [[1, "2"]]}',
        '{"n": 3, "edges": [[1, 4]]}',
        # JSON booleans are not integers, though bool subclasses int
        '{"n": true, "edges": []}',
        '{"n": 2, "edges": [[true, 2]]}',
    ]:
        with pytest.raises(ValueError):
            graph_from_json(text)


def test_json_refuses_text_nested_too_deeply_in_one_line():
    # json.loads raises RecursionError this deep on every supported Python
    for text in ("[" * 100000, '{"n": 3, "edges": ' + "[" * 100000):
        with pytest.raises(ValueError, match=r"^graph JSON nests too deeply$"):
            graph_from_json(text)


def test_graph_repr_and_equality_with_other_types():
    assert repr(path(3)) == "Graph(n=3, edges=[(1, 2), (2, 3)])"
    assert repr(Graph(1)) == "Graph(n=1, edges=[])"
    assert path(3) != "x"
    assert not path(3) == "x"

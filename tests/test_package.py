import asmtree


def test_public_names_exist_once():
    names = asmtree.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(asmtree, name), name


def test_retired_graph_predicates_are_gone():
    # connected_mask and crossing_mask on vertex_mask(...) answer both
    for name in ("is_connected_induced", "has_crossing_edge"):
        assert name not in asmtree.__all__
        assert not hasattr(asmtree, name)
        assert not hasattr(asmtree.graph, name)

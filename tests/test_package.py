import sys
import types

import asmtree
from asmtree import cli
from asmtree.assembly import GluingRule


def test_public_names_exist_once():
    names = asmtree.__all__
    assert len(names) == len(set(names))
    assert set(names) <= set(dir(asmtree))
    for name in names:
        assert hasattr(asmtree, name), name

    # a name read through the package is its defining submodule's object
    star = {}
    exec("from asmtree import *", star)
    for name in names:
        value = getattr(asmtree, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"asmtree.{name}"], name
        else:
            assert getattr(sys.modules[value.__module__], name) is value, name
        assert star[name] is value, name
    assert asmtree.count_trees is asmtree.assembly.count_trees

    # the CLI spells the rules out rather than importing the counters
    assert cli.RULES == tuple(r.value for r in GluingRule)


def test_retired_graph_predicates_are_gone():
    # connected_mask and crossing_mask on vertex_mask(...) answer both
    for name in ("is_connected_induced", "has_crossing_edge"):
        assert name not in asmtree.__all__
        assert not hasattr(asmtree, name)
        assert not hasattr(asmtree.graph, name)

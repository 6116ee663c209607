"""Exact counting, enumeration and verification of graph assembly trees.

Each public name is imported from the submodule that defines it the first
time it is read (PEP 562), so `import asmtree` loads no submodule and an
`asmtree` command pays only for the modules its request runs.
"""

__version__ = "0.1.0"

# Each public name and the submodule that defines it; `combinat` and
# `formulas` are public as modules.
_HOMES = {
    **dict.fromkeys(
        (
            "Graph",
            "caterpillar",
            "complete",
            "cycle",
            "graph_from_json",
            "graph_to_json",
            "path",
            "star",
        ),
        "graph",
    ),
    **dict.fromkeys(
        (
            "AssemblyTree",
            "GluingRule",
            "branch",
            "count_level_assignments",
            "count_timed_trees",
            "count_trees",
            "enumerate_timed_trees",
            "enumerate_trees",
            "frontier_partition",
            "leaf",
            "parse_tree",
            "serialize_tree",
            "timed_branch",
            "timed_leaf",
            "validate",
            "validation_errors",
        ),
        "assembly",
    ),
    **dict.fromkeys(
        (
            "PowerSeries",
            "check_td_path_functional_eq",
            "dump_coefficients",
            "egf_fubini",
            "egf_td_cycle",
            "ogf_connected_cycle",
            "ogf_super_catalan",
        ),
        "series",
    ),
    "combinat": "combinat",
    "formulas": "formulas",
}
_SUBMODULES = frozenset(_HOMES.values())

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name, name)
    if home not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, shows in -X importtime;
    # a non-empty fromlist makes it return the submodule.
    value = __import__(f"{__name__}.{home}", fromlist=["*"])
    if name != home:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})

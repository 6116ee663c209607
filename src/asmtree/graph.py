"""Small simple labeled graphs and the families used throughout: stars,
paths, cycles, complete graphs and caterpillars.

Vertices are numbered 1..n. Vertex subsets cross the API boundary as
ordinary Python sets; internally they travel as bit masks (bit i-1 stands
for vertex i), which is what keeps the subset dynamic programming in
`assembly` cheap, and the connectivity tests `component_mask`,
`connected_mask` and `crossing_mask` take masks (`vertex_mask` packs a
set). Graphs never change after construction.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Iterable, Iterator

MAX_VERTICES = 64


def vertex_mask(vertices: Iterable[int]) -> int:
    """Pack 1-based vertex numbers into a bit mask."""
    mask = 0
    for v in vertices:
        mask |= 1 << (v - 1)
    return mask


def mask_vertices(mask: int) -> frozenset[int]:
    """Unpack a bit mask into 1-based vertex numbers."""
    return frozenset(iter_bits(mask))


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the 1-based positions of the set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


class Graph:
    """Immutable simple undirected graph on vertices 1..n."""

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        # n is checked before `edges` is read, so a builder that hands over a
        # generator allocates nothing for a graph that is refused. Types are
        # checked exactly, as graph_from_json checks them: a bool is an int
        # to isinstance, and would be kept and written out as given.
        if type(n) is not int or not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be an int in 1..{MAX_VERTICES}, got {n!r}")
        canonical = set()
        for u, v in edges:
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"edge ({u!r},{v!r}) must join two int vertices")
            if u == v:
                raise ValueError(f"loop at vertex {u} is not allowed")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) outside vertex range 1..{n}")
            canonical.add((u, v) if u < v else (v, u))
        self.n = n
        self.edges = tuple(sorted(canonical))
        adj = [0] * (n + 1)
        for u, v in self.edges:
            adj[u] |= 1 << (v - 1)
            adj[v] |= 1 << (u - 1)
        self._adj = tuple(adj)

    def vertices(self) -> frozenset[int]:
        return frozenset(range(1, self.n + 1))

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def adjacency_mask(self, v: int) -> int:
        """Neighborhood of v as a bit mask."""
        self._check_vertex(v)
        return self._adj[v]

    def neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return mask_vertices(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self._adj[u] >> (v - 1) & 1)

    def _check_vertex(self, v: int) -> None:
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} outside range 1..{self.n}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges)!r})"


def component_mask(g: Graph, mask: int) -> int:
    """The component of the masked set's lowest vertex in the subgraph the
    set induces, as a bit mask."""
    if mask == 0:
        raise ValueError("empty vertex set")
    adj = g._adj
    seen = todo = mask & -mask
    while todo:
        v = todo & -todo
        todo ^= v
        new = adj[v.bit_length()] & mask & ~seen
        seen |= new
        todo |= new
    return seen


def connected_mask(g: Graph, mask: int) -> bool:
    """Is the subgraph induced by the masked vertex set connected?"""
    return component_mask(g, mask) == mask


def crossing_mask(g: Graph, a_mask: int, b_mask: int) -> bool:
    """Does any edge of g run between the two masked vertex sets?"""
    for v in iter_bits(a_mask):
        if g._adj[v] & b_mask:
            return True
    return False


def star(total: int) -> Graph:
    """Star on `total` vertices: center 1 joined to leaves 2..total."""
    if total < 2:
        raise ValueError("a star needs at least 2 vertices")
    return Graph(total, ((1, v) for v in range(2, total + 1)))


def path(n: int) -> Graph:
    """Path 1 - 2 - ... - n."""
    if n < 1:
        raise ValueError("a path needs at least 1 vertex")
    return Graph(n, ((i, i + 1) for i in range(1, n)))


def cycle(n: int) -> Graph:
    """Cycle 1 - 2 - ... - n - 1. Needs n >= 3; the 1- and 2-vertex
    "cycles" appearing as base cases of the counting recursions are values,
    not graphs."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(n, chain(((i, i + 1) for i in range(1, n)), [(1, n)]))


def complete(n: int) -> Graph:
    """Complete graph on n vertices."""
    if n < 1:
        raise ValueError("a complete graph needs at least 1 vertex")
    return Graph(n, ((u, v) for u in range(1, n) for v in range(u + 1, n + 1)))


def caterpillar(spine: int, legs: Iterable[int]) -> Graph:
    """Path on `spine` vertices with legs[i] pendant vertices hanging off
    spine vertex i+1.

    Spine vertices are numbered first (1..spine), then pendants in spine
    order, so caterpillar(1, [k]) is star(k + 1) up to labels.
    """
    legs = list(legs)
    if spine < 1:
        raise ValueError("a caterpillar needs at least 1 spine vertex")
    if len(legs) != spine:
        raise ValueError(f"need one leg count per spine vertex, got {len(legs)} for spine {spine}")
    if any(c < 0 for c in legs):
        raise ValueError("leg counts must be nonnegative")

    def edges() -> Iterator[tuple[int, int]]:
        yield from ((i, i + 1) for i in range(1, spine))
        nxt = spine + 1
        for i, count in enumerate(legs, start=1):
            for _ in range(count):
                yield i, nxt
                nxt += 1

    return Graph(spine + sum(legs), edges())


def graph_to_json(g: Graph) -> str:
    """Serialize as {"n": ..., "edges": [[u, v], ...]} with sorted edges."""
    return json.dumps({"n": g.n, "edges": [list(e) for e in g.edges]}, separators=(",", ":"))


def _load_json(text: str, what: str) -> object:
    """json.loads, refusing bad syntax and text nested past json's reach
    with a one-line ValueError; `what` names the document ("graph" or
    "tree")."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise ValueError(f"{what} JSON nests too deeply") from None


def graph_from_json(text: str) -> Graph:
    """Inverse of graph_to_json. Malformed input, including text nested
    too deeply for json to read, raises ValueError."""
    data = _load_json(text, "graph")
    # type(x) is int, not isinstance: JSON true and false load as bools,
    # which are ints to isinstance.
    if not isinstance(data, dict) or type(data.get("n")) is not int:
        raise ValueError('graph JSON must be an object with an integer "n"')
    raw_edges = data.get("edges", [])
    if not isinstance(raw_edges, list):
        raise ValueError('"edges" must be a list of [u, v] pairs')
    edges = []
    for item in raw_edges:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(type(x) is int for x in item)
        ):
            raise ValueError(f"bad edge entry {item!r}; expected [u, v]")
        edges.append((item[0], item[1]))
    return Graph(data["n"], edges)

"""Assembly trees of a graph: the model, brute-force enumeration, memoized
counting, validation and serialization.

An assembly tree for a connected graph on vertices {1..n} is a rooted tree
whose n leaves carry the singletons, whose internal nodes each have at
least two children, and where every internal label is the disjoint union
of its children's labels; the root carries the full vertex set. A gluing
rule restricts which trees are admissible:

* NONE       no restriction beyond the shape (counts depend only on n),
* CONNECTED  every label must induce a connected subgraph,
* EDGE       every internal node has exactly two children with at least
             one edge of the graph running between them.

A timed assembly tree additionally stamps every node with a build time:
leaves sit at time 0, each parent is strictly later than each of its
children, and the occupied times form a gapless range 0..m, which forces
the root to sit alone at m.

The enumerators are deliberately direct and serve as ground truth for the
closed forms in `formulas`. The counters use memoized dynamic programming
(over vertex subsets for plain trees, over the quotient graphs that frontier
partitions leave for timed ones) and must agree with the enumerators
wherever both run; `validate` is a separate code path against the
definition so it can audit either.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Iterable, Iterator

from .graph import (
    Graph,
    connected_mask,
    crossing_mask,
    has_crossing_edge,
    is_connected_induced,
    iter_bits,
    mask_vertices,
)

ENUMERATION_LIMIT = 9
COUNTING_LIMIT = 16


class GluingRule(Enum):
    NONE = "none"
    CONNECTED = "connected"
    EDGE = "edge"


@dataclass(frozen=True, slots=True)
class AssemblyTree:
    """One node of an assembly tree; a leaf when `children` is empty.

    `time` is the node's build time in a timed tree and None on every node
    of an untimed one.
    """

    label: frozenset[int]
    children: tuple["AssemblyTree", ...] = ()
    time: int | None = None

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def walk(self) -> Iterator["AssemblyTree"]:
        """Preorder traversal of the subtree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def untimed(self) -> "AssemblyTree":
        """The same tree with the time stamps dropped."""
        return AssemblyTree(self.label, tuple(c.untimed() for c in self.children))


def leaf(v: int) -> AssemblyTree:
    return AssemblyTree(frozenset((v,)))


def timed_leaf(v: int) -> AssemblyTree:
    return AssemblyTree(frozenset((v,)), time=0)


def branch(children: Iterable[AssemblyTree], time: int | None = None) -> AssemblyTree:
    """Internal node over the given subtrees, built at `time` in a timed
    tree or with time None in an untimed one. The label is their union and
    the children are stored in canonical order (ascending minimum vertex);
    timed children must already be strictly earlier.
    """
    kids = tuple(sorted(children, key=lambda c: min(c.label)))
    if len(kids) < 2:
        raise ValueError("an internal node needs at least two children")
    if any((c.time is None) != (time is None) for c in kids):
        raise ValueError("timed and untimed nodes cannot mix")
    if time is not None and any(c.time >= time for c in kids):
        raise ValueError("children must be strictly earlier than their parent")
    label = frozenset().union(*(c.label for c in kids))
    if len(label) != sum(len(c.label) for c in kids):
        raise ValueError("children labels overlap")
    return AssemblyTree(label, kids, time)


timed_branch = branch


def _as_rule(rule: GluingRule | str) -> GluingRule:
    return rule if isinstance(rule, GluingRule) else GluingRule(rule)


def _submasks(mask: int) -> Iterator[int]:
    """All submasks of mask, ascending, starting at 0 and ending at mask."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def _two_splits(mask: int) -> Iterator[tuple[int, int]]:
    """Unordered proper 2-splits of the masked set, each exactly once; the
    side containing the lowest vertex comes first."""
    low = mask & -mask
    rest = mask ^ low
    for sub in _submasks(rest):
        if sub == rest:
            return
        first = low | sub
        yield first, mask ^ first


def _partitions_ge1(mask: int) -> Iterator[tuple[int, ...]]:
    """Set partitions of the masked set into any number of blocks, each
    exactly once, blocks listed by ascending minimum vertex. The single
    block comes last."""
    if mask == 0:
        yield ()
        return
    low = mask & -mask
    rest = mask ^ low
    for sub in _submasks(rest):
        first = low | sub
        for others in _partitions_ge1(mask ^ first):
            yield (first, *others)


def _check_graph(g: Graph, limit: int | None, default: int) -> None:
    cap = default if limit is None else limit
    if g.n > cap:
        raise ValueError(
            f"graph has {g.n} vertices but the cap is {cap}; pass limit= to override"
        )
    if not connected_mask(g, g.full_mask()):
        raise ValueError("graph must be connected")


def enumerate_trees(
    g: Graph, rule: GluingRule | str, *, limit: int | None = None
) -> Iterator[AssemblyTree]:
    """Yield every assembly tree of g under the rule, each exactly once.

    Children of every node are in canonical order and the stream order is
    deterministic, so repeated runs produce identical output. Capped at
    `limit` vertices (default ENUMERATION_LIMIT) because the tree count
    grows much faster than exponentially.
    """
    rule = _as_rule(rule)
    _check_graph(g, limit, ENUMERATION_LIMIT)
    memo: dict[int, tuple[AssemblyTree, ...]] = {}
    yield from _trees(g, rule, g.full_mask(), memo)


def _trees(
    g: Graph, rule: GluingRule, mask: int, memo: dict[int, tuple[AssemblyTree, ...]]
) -> tuple[AssemblyTree, ...]:
    found = memo.get(mask)
    if found is None:
        found = tuple(_build_trees(g, rule, mask, memo))
        memo[mask] = found
    return found


def _build_trees(g, rule, mask, memo) -> Iterator[AssemblyTree]:
    if mask & (mask - 1) == 0:
        yield leaf(mask.bit_length())
        return
    label = mask_vertices(mask)
    if rule is GluingRule.EDGE:
        for a_mask, b_mask in _two_splits(mask):
            if not crossing_mask(g, a_mask, b_mask):
                continue
            for left_tree in _trees(g, rule, a_mask, memo):
                for right_tree in _trees(g, rule, b_mask, memo):
                    yield AssemblyTree(label, (left_tree, right_tree))
        return
    if rule is GluingRule.CONNECTED and not connected_mask(g, mask):
        return
    for blocks in _partitions_ge1(mask):
        if len(blocks) == 1:
            return  # the single block, listed last, is not a branching
        if rule is GluingRule.CONNECTED and not all(
            b & (b - 1) == 0 or connected_mask(g, b) for b in blocks
        ):
            continue
        pools = [_trees(g, rule, b, memo) for b in blocks]
        for combo in product(*pools):
            yield AssemblyTree(label, combo)


def count_trees(g: Graph, rule: GluingRule | str, *, limit: int | None = None) -> int:
    """Number of assembly trees of g under the rule.

    Memoized recursion keyed by the vertex subset alone: a subset's count
    sums, over its partitions into admissible blocks (two-splits with a
    crossing edge for EDGE), the product of the block counts. Agrees with
    len(list(enumerate_trees(...))) wherever enumeration is feasible and
    goes considerably further (default cap COUNTING_LIMIT).
    """
    rule = _as_rule(rule)
    _check_graph(g, limit, COUNTING_LIMIT)
    full = g.full_mask()
    if rule is GluingRule.EDGE:
        return _count_edge(g, full, {})
    if g.n == 1:
        return 1

    if rule is GluingRule.NONE:
        def label_ok(m: int) -> bool:
            return True
    else:
        conn: dict[int, bool] = {}
        def label_ok(m: int) -> bool:
            hit = conn.get(m)
            if hit is None:
                hit = conn[m] = connected_mask(g, m)
            return hit

    return _forests(full, label_ok, {}) >> 1


def _forests(mask: int, label_ok, memo: dict[int, int]) -> int:
    """F(S): partitions of the masked set S into admissible blocks, summing
    the product of the blocks' tree counts T.

    The trees rooted at S are its partitions into >= 2 blocks, so for
    |S| >= 2, T(S) = ok(S) * (F(S) - T(S)): F(S) also counts S as a single
    block, which contributes T(S). An admissible S therefore has
    F(S) = 2 T(S), and T(S) = F(S) >> 1; a singleton has T = F = 1.
    """
    if mask & (mask - 1) == 0:
        return 1
    cached = memo.get(mask)
    if cached is not None:
        return cached
    low = mask & -mask
    rest = mask ^ low
    total = _forests(rest, label_ok, memo)  # the lowest vertex as a singleton
    sub = rest & -rest
    # The other blocks holding the lowest vertex, bar S itself (added below),
    # stepping through the nonempty proper submasks of rest as in _submasks.
    while sub != rest:
        first = low | sub
        if label_ok(first):
            total += (_forests(first, label_ok, memo) >> 1) * _forests(
                mask ^ first, label_ok, memo
            )
        sub = (sub - rest) & rest
    if label_ok(mask):
        total *= 2
    memo[mask] = total
    return total


def _count_edge(g: Graph, mask: int, memo: dict[int, int]) -> int:
    if mask & (mask - 1) == 0:
        return 1
    cached = memo.get(mask)
    if cached is not None:
        return cached
    total = 0
    for a_mask, b_mask in _two_splits(mask):
        if crossing_mask(g, a_mask, b_mask):
            total += _count_edge(g, a_mask, memo) * _count_edge(g, b_mask, memo)
    memo[mask] = total
    return total


def _internal_index(t: AssemblyTree) -> tuple[list[AssemblyTree], list[int]]:
    """Internal nodes of t in preorder, plus for each one the bit mask of
    its internal children's indices."""
    order: list[AssemblyTree] = []
    index: dict[frozenset[int], int] = {}
    for node in t.walk():
        if node.children:
            index[node.label] = len(order)
            order.append(node)
    masks = []
    for node in order:
        m = 0
        for child in node.children:
            if child.children:
                m |= 1 << index[child.label]
        masks.append(m)
    return order, masks


def _rounds(child_masks: list[int], placed: int) -> Iterator[int]:
    """The rounds that can follow once the nodes in `placed` are stamped:
    every nonempty subset of the nodes whose internal children are all
    stamped."""
    ready = 0
    for i, m in enumerate(child_masks):
        if not placed >> i & 1 and m & ~placed == 0:
            ready |= 1 << i
    for pick in _submasks(ready):
        if pick:
            yield pick


def count_level_assignments(t: AssemblyTree) -> int:
    """Number of time stampings that turn t into a valid timed tree.

    Internal nodes are stamped in rounds: a node becomes ready once all of
    its internal children are stamped, and each round stamps a nonempty
    subset of the ready nodes with the next time value. The count is the
    number of distinct round sequences, found by dynamic programming over
    the set of already-stamped nodes.
    """
    _, child_masks = _internal_index(t)
    memo = {(1 << len(child_masks)) - 1: 1}

    def fill(placed: int) -> int:
        cached = memo.get(placed)
        if cached is None:
            cached = memo[placed] = sum(
                fill(placed | pick) for pick in _rounds(child_masks, placed)
            )
        return cached

    return fill(0)


def _level_assignments(t: AssemblyTree) -> Iterator[dict[frozenset[int], int]]:
    """Yield every valid time map for the internal nodes of t."""
    order, child_masks = _internal_index(t)
    full = (1 << len(child_masks)) - 1

    def build(placed: int, next_time: int, times: dict) -> Iterator[dict]:
        if placed == full:
            yield dict(times)
            return
        for pick in _rounds(child_masks, placed):
            for i in iter_bits(pick):
                times[order[i - 1].label] = next_time
            yield from build(placed | pick, next_time + 1, times)
            for i in iter_bits(pick):
                del times[order[i - 1].label]

    yield from build(0, 1, {})


def _stamp(node: AssemblyTree, times: dict[frozenset[int], int]) -> AssemblyTree:
    if not node.children:
        return AssemblyTree(node.label, time=0)
    kids = tuple(_stamp(c, times) for c in node.children)
    return AssemblyTree(node.label, kids, times[node.label])


def enumerate_timed_trees(
    g: Graph, rule: GluingRule | str, *, limit: int | None = None
) -> Iterator[AssemblyTree]:
    """Yield every timed assembly tree once: every plain tree combined
    with each of its valid time stampings. Deterministic order; same cap
    as enumerate_trees."""
    for t in enumerate_trees(g, rule, limit=limit):
        for times in _level_assignments(t):
            yield _stamp(t, times)


def count_timed_trees(g: Graph, rule: GluingRule | str, *, limit: int | None = None) -> int:
    """Number of timed assembly trees of g under the rule.

    A timed tree is uniquely determined by its chain of frontier
    partitions: singletons at time 0, then a strictly coarser partition at
    every time step, where each group of blocks merged in one step must be
    admissible for the rule (union connected for CONNECTED, exactly two
    blocks joined by an edge for EDGE, any >= 2 blocks for NONE). It must,
    and in the tests does, agree with summing count_level_assignments over
    enumerate_trees.

    Under CONNECTED and EDGE every block of such a chain is connected, so
    whether a group may merge can be read off the quotient graph G/pi: one
    vertex per block, two joined when an edge of G joins the blocks. The
    number of ways to finish from pi thus depends only on that quotient,
    and the count is a memoized recursion over quotients, from G itself
    down to the one-vertex quotient, which counts 1. A state numbers the
    blocks by lowest vertex and lists, for each block, the mask of its
    lower-numbered neighbours. Under NONE any group may merge and only the
    number of blocks matters, so the quotient is taken complete and the
    states are keyed by that number alone. The merges out of a state are
    generated already admissible (see _step_total); dense graphs still
    get slow well before the cap (default COUNTING_LIMIT).
    """
    rule = _as_rule(rule)
    _check_graph(g, limit, COUNTING_LIMIT)
    if rule is GluingRule.NONE:
        start = tuple((1 << i) - 1 for i in range(g.n))
    else:
        start = tuple(m & ((1 << i) - 1) for i, m in enumerate(g._adj[1:]))
    memo: dict[tuple[int, ...], int] = {(0,): 1}

    def finish(lower: tuple[int, ...]) -> int:
        cached = memo.get(lower)
        if cached is None:
            cached = memo[lower] = _step_total(lower, rule, finish)
        return cached

    return finish(start)


def _step_total(lower: tuple[int, ...], rule: GluingRule, finish) -> int:
    """Sum of finish(q) over the quotients q one time step away from the
    quotient whose lower-neighbour masks are `lower`.

    A step partitions the quotient's vertices into admissible groups, bar
    the partition into singletons. Groups are placed in order of their
    lowest vertex, `head`: it stays alone or merges with one neighbour
    (EDGE), a connected set grown from it (CONNECTED) or any set of the
    vertices not yet placed (NONE). Each group's row of the next quotient
    is built as it is placed, from its reach (the union of its members'
    neighbourhoods) and the groups placed before it.
    """
    k = len(lower)
    adj = list(lower)
    for b, m in enumerate(lower):
        for a in iter_bits(m):
            adj[a - 1] |= 1 << b
    groups: list[int] = []
    rows: list[int] = []

    def options(head: int, rest: int) -> Iterator[tuple[int, int]]:
        """The groups that `head` can lead, each with its reach."""
        reach = adj[head.bit_length() - 1]
        yield head, reach
        if rule is GluingRule.EDGE:
            others = reach & rest
            while others:
                other = others & -others
                yield head | other, reach | adj[other.bit_length() - 1]
                others ^= other
        elif rule is GluingRule.CONNECTED:
            yield from _connected_growths(adj, head, reach, rest)
        else:
            # The quotient is complete, so every group reaches everyone.
            sub = rest
            while sub:
                yield head | sub, reach
                sub = (sub - 1) & rest

    def arrange(remaining: int, placed: int) -> int:
        if not remaining:
            return finish(tuple(rows)) if len(rows) < k else 0
        total = 0
        head = remaining & -remaining
        for group, reach in options(head, remaining ^ head):
            reach &= placed
            row = 0
            if reach:
                for a, earlier in enumerate(groups):
                    if reach & earlier:
                        row |= 1 << a
            groups.append(group)
            rows.append(row)
            total += arrange(remaining ^ group, placed | group)
            groups.pop()
            rows.pop()
        return total

    return arrange((1 << k) - 1, 0)


def _connected_growths(
    adj: list[int], grown: int, reach: int, allowed: int
) -> Iterator[tuple[int, int]]:
    """Each connected set that strictly contains the connected set `grown`
    and lies within grown | allowed, once, with its reach. `reach` is the
    union of the neighbourhoods of grown's vertices. The lowest vertex on
    the frontier is either taken, or left out of this set and every later
    one."""
    frontier = reach & allowed
    while frontier:
        v = frontier & -frontier
        frontier ^= v
        allowed ^= v
        bigger = grown | v
        wider = reach | adj[v.bit_length() - 1]
        yield bigger, wider
        yield from _connected_growths(adj, bigger, wider, allowed)


def frontier_partition(t: AssemblyTree, j: int) -> frozenset[frozenset[int]]:
    """The vertex partition formed at time j: labels of nodes with time
    <= j that are maximal under inclusion."""
    if t.time is None:
        raise ValueError("an untimed tree has no frontier partitions")
    if j < 0 or j > t.time:
        raise ValueError(f"time {j} outside 0..{t.time}")
    blocks = []

    def collect(node: AssemblyTree) -> None:
        if node.time <= j:
            # Descendants are strictly earlier, hence never maximal.
            blocks.append(node.label)
        else:
            for child in node.children:
                collect(child)

    collect(t)
    return frozenset(blocks)


def _set_str(label: Iterable[int]) -> str:
    return "{" + ",".join(str(v) for v in sorted(label)) + "}"


def validation_errors(g: Graph, t: AssemblyTree, rule: GluingRule | str) -> list[str]:
    """Why t fails to be a valid (timed) assembly tree of g under the rule;
    an empty list means valid.

    Checks run directly against the definition, sharing nothing with the
    enumerators, so they can audit enumerator output. Reasons are short
    stable strings meant for both humans and tests.
    """
    rule = _as_rule(rule)
    errors: list[str] = []
    timed = t.time is not None
    universe = g.vertices()

    if t.label != universe:
        errors.append(f"root: label {_set_str(t.label)} is not the full vertex set")
    mixed = [node for node in t.walk() if (node.time is not None) != timed]
    for node in mixed:
        errors.append(f"node {_set_str(node.label)}: timed and untimed nodes mix")
    # The time checks below compare times, so they need one on every node.
    timed = timed and not mixed

    leaf_labels: list[frozenset[int]] = []
    for node in t.walk():
        name = _set_str(node.label)
        if not node.label:
            errors.append("node: empty label")
            continue
        if not node.label <= universe:
            errors.append(f"node {name}: label outside vertex range 1..{g.n}")
            continue
        if node.children:
            if len(node.children) < 2:
                errors.append(f"node {name}: internal nodes need at least two children")
            union = frozenset().union(*(c.label for c in node.children))
            if union != node.label:
                errors.append(f"node {name}: label is not the union of its children")
            if len(union) != sum(len(c.label) for c in node.children):
                errors.append(f"node {name}: children labels overlap")
            if rule is GluingRule.CONNECTED and union <= universe and union:
                if len(node.label) >= 2 and not is_connected_induced(g, node.label):
                    errors.append(f"node {name}: label does not induce a connected subgraph")
            if rule is GluingRule.EDGE:
                if len(node.children) != 2:
                    errors.append(f"node {name}: edge rule requires exactly two children")
                else:
                    a, b = (c.label for c in node.children)
                    if a and b and not a & b and a | b <= universe:
                        if not has_crossing_edge(g, a, b):
                            errors.append(
                                f"node {name}: no edge joins {_set_str(a)} and {_set_str(b)}"
                            )
            if timed:
                for child in node.children:
                    if child.time >= node.time:
                        errors.append(
                            f"node {name}: child {_set_str(child.label)} is not strictly earlier"
                        )
        else:
            leaf_labels.append(node.label)
            if len(node.label) != 1:
                errors.append(f"leaf {name}: leaves must carry singletons")
            if timed and node.time != 0:
                errors.append(f"leaf {name}: leaves must sit at time 0")

    expected_leaves = sorted(sorted(s) for s in (frozenset((v,)) for v in universe))
    if sorted(sorted(s) for s in leaf_labels) != expected_leaves:
        errors.append("leaves: must be exactly the n singletons, each once")

    if timed and not errors:
        occupied = {node.time for node in t.walk()}
        if occupied != set(range(t.time + 1)):
            missing = sorted(set(range(t.time + 1)) - occupied)
            errors.append(f"times: values {missing} are unoccupied below the root time {t.time}")
        if any(node.time >= t.time for node in t.walk() if node is not t):
            errors.append("times: the root must sit strictly above every other node")

    return errors


def validate(g: Graph, t: AssemblyTree, rule: GluingRule | str) -> bool:
    """True iff t is a valid (timed) assembly tree of g under the rule."""
    return not validation_errors(g, t, rule)


def tree_to_dict(t: AssemblyTree) -> dict:
    """Plain-dict form: {"label": [...], ("time": ...,) "children": [...]}."""
    out: dict = {"label": sorted(t.label)}
    if t.time is not None:
        out["time"] = t.time
    out["children"] = [tree_to_dict(c) for c in t.children]
    return out


def tree_from_dict(data: object) -> AssemblyTree:
    """Inverse of tree_to_dict; malformed input raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError("tree JSON must be an object")
    timed = "time" in data

    def build(d: object) -> AssemblyTree:
        if not isinstance(d, dict):
            raise ValueError("every tree node must be an object")
        raw_label = d.get("label")
        if not isinstance(raw_label, list) or not all(isinstance(v, int) for v in raw_label):
            raise ValueError(f'node needs a "label" list of ints, got {raw_label!r}')
        if ("time" in d) != timed:
            raise ValueError("mixed timed and untimed nodes")
        raw_children = d.get("children", [])
        if not isinstance(raw_children, list):
            raise ValueError('"children" must be a list')
        kids = tuple(build(c) for c in raw_children)
        if timed and not isinstance(d["time"], int):
            raise ValueError(f'"time" must be an int, got {d["time"]!r}')
        return AssemblyTree(frozenset(raw_label), kids, d.get("time"))  # type: ignore[arg-type]

    return build(data)


def serialize_tree(t: AssemblyTree, fmt: str = "json") -> str:
    """Canonical text form of a tree: single-line JSON or a DOT digraph.

    Node labels render as "{1,2,3}" with "@time" appended for timed trees.
    """
    if fmt == "json":
        return json.dumps(tree_to_dict(t), separators=(",", ":"))
    if fmt == "dot":
        return _to_dot(t)
    raise ValueError(f"unknown tree format {fmt!r}")


def parse_tree(text: str) -> AssemblyTree:
    """Inverse of serialize_tree(..., "json")."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from None
    return tree_from_dict(data)


def _to_dot(t: AssemblyTree) -> str:
    lines = ["digraph assembly_tree {"]
    counter = iter(range(10**9))

    def emit(node: AssemblyTree) -> int:
        me = next(counter)
        tag = _set_str(node.label)
        if node.time is not None:
            tag += f"@{node.time}"
        lines.append(f'  n{me} [label="{tag}"];')
        for child in node.children:
            cid = emit(child)
            lines.append(f"  n{me} -> n{cid};")
        return me

    emit(t)
    lines.append("}")
    return "\n".join(lines)

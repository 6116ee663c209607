"""Assembly trees of a graph: the model, brute-force enumeration, memoized
counting, validation and serialization.

An assembly tree for a connected graph on vertices {1..n} is a rooted tree
whose n leaves carry the singletons, whose internal nodes each have at
least two children, and where every internal label is the disjoint union
of its children's labels; the root carries the full vertex set. A gluing
rule restricts which trees are admissible. Each rule is a graph plus a
merge bound, the most parts one merge may join: every label must be
connected in the graph and no node may have more children than the bound.

* NONE       K_n, no bound: nothing beyond the shape, since every vertex
             set of K_n is connected, so counts depend only on n,
* CONNECTED  g, no bound: every label induces a connected subgraph,
* EDGE       g, bound 2: every internal node has exactly two children
             joined by an edge of g; these are the binary CONNECTED trees.

A timed assembly tree additionally stamps every node with a build time:
leaves sit at time 0, each parent is strictly later than each of its
children, and the occupied times form a gapless range 0..m, which forces
the root to sit alone at m.

The enumerators are deliberately direct and serve as ground truth for the
closed forms in `formulas`. They stream lazily: a vertex subset's trees are
kept once built only when there are few of them, and a larger set is built
again each time it is needed, so memory is bounded by that keep bound, not
by the tree count. The counters share one memoized recursion over vertex
subsets, with one count per set for plain trees and one per number of
time steps for timed ones. Twins, vertices u and v with N(u) - v = N(v) -
u, are swapped by an automorphism of the graph, so a set's count depends
only on how many members of each twin class it holds: the recursion
memoises canonical sets alone, which hold the lowest members of each
class, so K_n, one class, takes n - 1 sets of two or more vertices. Both
counters and the enumerators take a set's connected first blocks from
_first_blocks alone, and each counter sums over them in one loop, which
weighs a canonical block by the blocks it stands for when the set holds
twins to swap. A count does not depend on the labels but this work does,
so both counters run on the graph peeled in smallest-last order
(_peeled), where a set's lowest vertex lies in few connected blocks; the
enumerators keep the caller's labels, and so their streams.
The counters must agree with the enumerators wherever both run; `validate`
is a separate code path against the definition so it can audit either.
"""

from __future__ import annotations

from enum import Enum
from itertools import accumulate, chain, count, islice, product
from math import comb, prod
from operator import mul, sub
from typing import Iterable, Iterator, NamedTuple

from .graph import (
    MAX_VERTICES,
    Graph,
    _load_json,
    complete,
    component_mask,
    connected_mask,
    iter_bits,
    mask_vertices,
    vertex_mask,
)

ENUMERATION_LIMIT = 9
COUNTING_LIMIT = 16
# The most trees an enumeration keeps in memory for one vertex subset; a
# larger pool is streamed again each time it is needed.
_KEEP = 2048


class GluingRule(Enum):
    NONE = "none"
    CONNECTED = "connected"
    EDGE = "edge"


_new, _set = object.__new__, object.__setattr__


class AssemblyTree:
    """One node of an assembly tree; a leaf when `children` is empty.

    `time` is the node's build time in a timed tree and None on every node
    of an untimed one. Nodes are immutable and compare and hash by their
    three fields.
    """

    __slots__ = ("label", "children", "time")
    label: frozenset[int]
    children: tuple["AssemblyTree", ...]
    time: int | None

    def __init__(
        self,
        label: frozenset[int],
        children: tuple["AssemblyTree", ...] = (),
        time: int | None = None,
    ) -> None:
        _set(self, "label", label)
        _set(self, "children", children)
        _set(self, "time", time)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return AssemblyTree, (self.label, self.children, self.time)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.label, self.children, self.time) == (
                other.label, other.children, other.time
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.label, self.children, self.time))

    def __repr__(self) -> str:
        return (
            f"AssemblyTree(label={self.label!r}, children={self.children!r}, "
            f"time={self.time!r})"
        )

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def walk(self) -> Iterator["AssemblyTree"]:
        """Preorder traversal of the subtree."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

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


class _Twins(NamedTuple):
    """A graph's twin classes as the subset recursion reads them.

    twinned: the vertices that have a twin.
    keep: keep[v] for a twinned vertex v is the mask of all vertices but v
        and the members of its class above it, those a block may no longer
        take once it leaves v out.
    classes: (class mask, prefixes) for each class of two or more
        vertices, where prefixes[j] is the mask of its j lowest members.
    """

    twinned: int
    keep: tuple[int, ...]
    classes: tuple[tuple[int, tuple[int, ...]], ...]


def _twin_classes(g: Graph) -> _Twins:
    """g's twin classes: u and v are twins when N(u) - v = N(v) - u, so
    false twins share their open neighbourhood and true twins their closed
    one. No vertex has twins of both kinds, since a true twin of u is
    adjacent to u's neighbours and so to a false twin of u, which would
    then be adjacent to u. Swapping two twins is an automorphism."""
    opened: dict[int, int] = {}  # vertices by open neighbourhood
    closed: dict[int, int] = {}  # and by closed neighbourhood
    for v in range(1, g.n + 1):
        bit = 1 << (v - 1)
        nbrs = g._adj[v]
        opened[nbrs] = opened.get(nbrs, 0) | bit
        nbrs |= bit
        closed[nbrs] = closed.get(nbrs, 0) | bit
    keep = [0] * (g.n + 1)
    twinned = 0
    classes = []
    for members in chain(opened.values(), closed.values()):
        if members & (members - 1):
            twinned |= members
            prefixes = [0]
            for v in iter_bits(members):
                keep[v] = ~(members ^ prefixes[-1])  # v and the members above it
                prefixes.append(prefixes[-1] | 1 << (v - 1))
            classes.append((members, tuple(prefixes)))
    return _Twins(twinned, tuple(keep), tuple(classes))


def _canonical(mask: int, twins: _Twins) -> int:
    """The canonical set of the masked one: for every twin class, the
    same number of its members, the lowest ones."""
    for members, prefixes in twins.classes:
        held = mask & members
        if held:
            mask ^= held ^ prefixes[held.bit_count()]
    return mask


def _first_blocks(g: Graph, mask: int, twinned: int = 0, keep: tuple[int, ...] = ()) -> list[int]:
    """The connected blocks B of g within the masked set that hold its
    lowest vertex, each once, the whole set among them when it is
    connected. The counters and the enumerator take their first blocks
    from here alone. The counters pass a twin class table (twinned and
    keep of _Twins) and a canonical set, and only the blocks that are
    canonical sets come; the enumerator passes none and takes them all.

    The blocks are grown as connected sets from states (block, reach,
    allowed) on an explicit stack: reach is the union of the block's
    neighbourhoods, and allowed the vertices of the set the block may
    still take. A state leaves a vertex v of its frontier reach & allowed
    out of this block and of every later one, and pushes the state that
    takes it, so each connected B comes once. Twinned vertices of the
    frontier go first, lowest first, and leaving one out also leaves out
    the members of its class above it. A twin u below v is then in the
    block already, or in the frontier before v (a neighbour of v in the
    block other than u is one of u's), or was left out, and v with it:
    of each class, every block holds the lowest members. Once the frontier
    holds no twinned vertex and is all of allowed, or empty, every block
    | sub with sub a submask of the frontier is connected and canonical:
    the state steps those submasks with no test and grows no further. So
    a sparse set grows only its connected blocks, while on a dense set
    the frontier covers the rest after a vertex or two and the submasks
    are stepped as they come, with no block tested for connectivity; on a
    star's centre the leaves are one class, and the blocks are the centre
    with its j lowest leaves.
    """
    adj = g._adj
    low = mask & -mask
    blocks = []
    stack = [(low, adj[low.bit_length()], mask ^ low)]
    while stack:
        block, reach, allowed = stack.pop()
        frontier = reach & allowed
        while frontier & twinned:
            v = frontier & twinned
            v &= -v
            i = v.bit_length()
            stack.append((block | v, reach | adj[i], allowed ^ v))
            allowed &= keep[i]
            frontier &= allowed
        while frontier and frontier != allowed:
            v = frontier & -frontier
            frontier ^= v
            allowed ^= v
            stack.append((block | v, reach | adj[v.bit_length()], allowed))
        # Every block | sub with sub a submask of the frontier is connected.
        sub = 0
        while True:
            blocks.append(block | sub)
            if sub == frontier:
                break
            sub = (sub - frontier) & frontier
    return blocks


def _partitions_ge1(g: Graph, mask: int, most: int) -> Iterator[tuple[int, ...]]:
    """Set partitions of the masked set into at most `most` blocks that
    are connected in g, each exactly once, blocks listed by ascending
    minimum vertex and first blocks, from _first_blocks, by ascending
    mask, so the single block comes last. With most = 2 these are the
    two-splits, by ascending side holding the lowest vertex, then the
    single block. The lowest vertex alone is the least first block, and
    its partitions come before the blocks are listed, so the first
    partition lists none. A last block is the whole remainder, and takes
    one walk unless it is a single vertex."""
    if mask == 0:
        yield ()
        return
    if most == 1:
        if mask & (mask - 1) == 0 or connected_mask(g, mask):
            yield (mask,)
        return
    low = mask & -mask
    for others in _partitions_ge1(g, mask ^ low, most - 1):
        yield (low, *others)
    for first in sorted(_first_blocks(g, mask))[1:]:
        for others in _partitions_ge1(g, mask ^ first, most - 1):
            yield (first, *others)


def _prepare(
    g: Graph, rule: GluingRule | str, limit: int | None, default: int
) -> tuple[Graph, int]:
    """The graph and merge bound `most` a counter or enumerator runs on,
    once g has passed the vertex cap and the connectivity check.

    The counters and enumerators run on this pair alone and never test
    the rule. EDGE is g with most = 2, since its trees are the binary
    CONNECTED trees (see _forests); CONNECTED is g with most = n, no
    bound. NONE is K_n with most = n: every vertex set of K_n is
    connected, and trees carry labels, not edges, so the trees and their
    order are the same. The checks run on g itself first, so a
    disconnected g is still rejected.
    """
    rule = GluingRule(rule)
    cap = default if limit is None else limit
    if g.n > cap:
        raise ValueError(
            f"graph has {g.n} vertices but the cap is {cap}; pass limit= to override"
        )
    if not connected_mask(g, g.full_mask()):
        raise ValueError("graph must be connected")
    if rule is GluingRule.NONE:
        return complete(g.n), g.n
    return g, 2 if rule is GluingRule.EDGE else g.n


def _peeled(g: Graph) -> Graph:
    """g relabelled in smallest-last order (Matula and Beck, J. ACM 30,
    1983): vertex 1 has least degree, and each later vertex least degree
    among the vertices not yet taken, counting only edges to them, ties
    going to the lowest label. g itself when that order is the identity,
    as on K_n and the natural P_n and C_n.

    A count is invariant under relabelling, but the counters' work is
    not: they sum, for every connected set, over the connected blocks
    that hold its lowest vertex. A vertex taken early has few neighbours
    among those after it, so as a set's lowest vertex it lies in few
    blocks; a peeled path visits exactly its intervals."""
    adj = g._adj
    left = g.full_mask()
    order = []
    while left:
        v = min(iter_bits(left), key=lambda v: (adj[v] & left).bit_count())
        order.append(v)
        left ^= 1 << (v - 1)
    if order == list(range(1, g.n + 1)):
        return g
    label = {v: i for i, v in enumerate(order, 1)}
    return Graph(g.n, ((label[u], label[v]) for u, v in g.edges))


def enumerate_trees(
    g: Graph, rule: GluingRule | str, *, limit: int | None = None
) -> Iterator[AssemblyTree]:
    """Yield every assembly tree of g under the rule, each exactly once.

    Children of every node are in canonical order and the stream order is
    deterministic, so repeated runs produce identical output. Capped at
    `limit` vertices (default ENUMERATION_LIMIT) because the tree count
    grows much faster than exponentially.

    The stream is lazy. Trees come branching by branching (the ways to
    split the vertex set into the root's children, in a fixed order), and
    within one in the order of the product of its blocks' trees, the
    leftmost block varying slowest. A block's trees are kept in memory when
    there are at most _KEEP of them and built again for each use
    otherwise, so memory is bounded by _KEEP trees per vertex subset, not
    by the number of trees; the order does not depend on what is kept. The
    first tree of K8 thus comes without building its 660,032 trees.
    """
    g, most = _prepare(g, rule, limit, ENUMERATION_LIMIT)
    yield from _build_trees(g, most, g.full_mask(), {})


def _trees(g: Graph, most: int, mask: int, kept: dict) -> Iterable[AssemblyTree]:
    """The trees on the masked set. Up to _KEEP of them are built at once
    and kept, as a tuple, for the rest of the enumeration; a larger pool
    is marked None in `kept` and streamed again each time it is needed."""
    pool = kept.get(mask)
    if pool is not None:
        return pool
    stream = _build_trees(g, most, mask, kept)
    if mask in kept:
        return stream
    pool = tuple(islice(stream, _KEEP + 1))
    if len(pool) > _KEEP:
        kept[mask] = None
        return chain(pool, stream)
    kept[mask] = pool
    return pool


def _product(g: Graph, most: int, blocks: tuple[int, ...], kept: dict) -> Iterator[tuple]:
    """One tree on each block, in the order of itertools.product: the
    leftmost block varies slowest. A pool that is not kept is streamed
    again for each choice of trees on the blocks before it."""
    pools = tuple(map(kept.get, blocks))
    if None not in pools:
        yield from product(*pools)
        return
    for head in _product(g, most, blocks[:-1], kept):
        for t in _trees(g, most, blocks[-1], kept):
            yield (*head, t)


def _build_trees(g: Graph, most: int, mask: int, kept: dict) -> Iterator[AssemblyTree]:
    """The trees on the masked set, which must be connected in g: the full
    set has passed _prepare's check and every block is connected."""
    if mask & (mask - 1) == 0:
        yield leaf(mask.bit_length())
        return
    label = mask_vertices(mask)
    for blocks in _partitions_ge1(g, mask, most):
        if len(blocks) == 1:
            return  # the single block, listed last, is not a branching
        for combo in _product(g, most, blocks, kept):
            yield AssemblyTree(label, combo)


def count_trees(g: Graph, rule: GluingRule | str, *, limit: int | None = None) -> int:
    """Number of assembly trees of g under the rule.

    One memoized recursion over vertex subsets (see _forests) serves both
    merge bounds: a connected subset's count sums, over its partitions
    into connected blocks, the product of the block counts, where under
    bound 2 the rest beside the block holding the lowest vertex must be
    one tree. A subset that falls apart in g counts as the product of its
    components, so only connected subsets have first blocks to sum over
    (see _first_blocks). Sets that differ by swapping twins count the
    same, so only canonical sets are memoised: K_n, one twin class, and
    every NONE count, which _prepare runs on K_n, enter n - 1 sets. The
    recursion runs on the graph peeled in smallest-last order (_peeled),
    which counts the same and sums over fewer blocks.
    Agrees with len(list(enumerate_trees(...))) wherever enumeration is
    feasible and goes considerably further (default cap COUNTING_LIMIT).
    """
    g, most = _prepare(g, rule, limit, COUNTING_LIMIT)
    g = _peeled(g)
    several = int(most > 2)
    memo = {1 << v: 1 for v in range(g.n)}  # a singleton has one tree
    memo[0] = 0  # so that a set is never its own first block
    full = g.full_mask()
    return (memo.get(full) or _forests(full, several, g, _twin_classes(g), memo)) >> several


def _held(mask: int, twins: _Twins) -> list[tuple[int, tuple[int, ...], int]] | None:
    """For each twin class of which the canonical masked set S less its
    lowest vertex holds more than the class's lowest member: the members
    it holds, the class's prefixes and their number. None when S - low
    holds at most one member of each class, the lowest, as it does for
    every set of a graph with no twins: then every connected block of S
    and every rest is canonical, and the block loops of _forests and
    _multichains neither weigh nor map them."""
    others = mask & (mask - 1)
    held = []
    for members, prefixes in twins.classes:
        members &= others
        if members & (members - 1) or members & ~prefixes[1]:
            held.append((members, prefixes, members.bit_count()))
    return held or None


def _forests(mask: int, several: int, g: Graph, twins: _Twins, memo: dict[int, int]) -> int:
    """F(S): the forests of admissible trees on the masked set S, summing
    the product of the trees' counts T, for an S that is not in `memo`.
    The merge bound `most` is 2 or at least |S|, and several =
    int(most > 2). The caller looks `memo` up first, so a hit costs no
    call. `memo` must hold from the start 1 for each singleton, which has
    T = F = 1, and 0 for the empty set, so that S is not its own block.

    `twins` holds g's twin classes (_twin_classes), and S must be
    canonical: of each class it holds the lowest members. Every set
    passed on is mapped to its canonical set (_canonical), which has the
    same count, so `memo` holds canonical sets alone.

    A forest's trees sit on connected blocks, so a block never crosses
    the components of the graph S induces. When S falls apart, with no
    bound F(S) is the product of F over the component of S's lowest
    vertex and F over the rest; under bound 2 the forest must be one
    tree, and F(S) = 0. One walk (component_mask) per S tells which. The
    component is canonical: it holds all members of a class that S
    holds, or, when they have no neighbour in S, at most the lowest.

    On a connected S, a forest's first tree is on a block B holding S's
    lowest vertex. With no bound the rest S - B may hold several trees;
    under bound 2 it must be one tree, so there F = T. Write R(S) for the
    sum, over connected B != S, of T(B) F(S - B): these are the trees
    rooted at S, and with no bound F(S) also counts S as one block. So
    F(S) = R(S) << several, and T(S) = F(S) >> several for S of two or
    more vertices. The loop sums F(B) F(S - B) instead, which weighs
    every block of two or more vertices by F(B) = T(B) << several and
    the lowest vertex alone by 1; with no bound, adding F(S - low) once
    more gives 2 R(S) = F(S). A block whose rest counts 0 is skipped:
    under bound 2 a rest that falls apart, and B = S itself, whose rest
    is the empty set. These binary trees are the EDGE trees: an edge
    joins two connected sides exactly when their union is connected.

    One loop takes the blocks B from _first_blocks, grown as connected
    canonical sets, so none is built only to be thrown away. When S - low
    holds two members of a class, or one above its lowest (_held), each B
    stands for the blocks that swapping twins within S - low maps onto
    it, prod C(k_c, b_c) of them over the classes c, where S - low holds
    k_c members of c and B - low b_c; for the class of S's lowest vertex
    that is C(k - 1, b - 1) in the class's own counts. The loop then
    weighs B's product by that number and maps S - B to its canonical
    set. Otherwise every block and every rest is canonical and weighs 1,
    and a block pays for the twins only the tests of `held`.
    """
    part = component_mask(g, mask)
    if part != mask:
        total = 0
        if several:
            total = memo.get(part)
            if total is None:
                total = _forests(part, several, g, twins, memo)
            rest = mask ^ part
            if rest & twins.twinned:
                rest = _canonical(rest, twins)
            others = memo.get(rest)
            if others is None:
                others = _forests(rest, several, g, twins, memo)
            total *= others
        memo[mask] = total
        return total
    held = _held(mask, twins) if mask & twins.twinned else None
    total = 0
    for first in _first_blocks(g, mask, twins.twinned, twins.keep):
        rest = mask ^ first
        if held is not None:
            ways = 1
            for members, prefixes, k in held:
                b = (first & members).bit_count()
                ways *= comb(k, b)
                rest ^= (rest & members) ^ prefixes[k - b]
        others = memo.get(rest)
        if others is None:
            others = _forests(rest, several, g, twins, memo)
        if others:
            trees = memo.get(first)
            if trees is None:
                trees = _forests(first, several, g, twins, memo)
            total += (trees if held is None else ways * trees) * others
    if several:
        # the lowest vertex alone, once more
        total += memo[mask & (mask - 1) if held is None else _canonical(mask & (mask - 1), twins)]
    memo[mask] = total
    return total


def count_level_assignments(t: AssemblyTree) -> int:
    """Number of time stampings that turn t into a valid timed tree.

    Counted as count_timed_trees counts, through stampings that may leave
    times empty: E_m(v) counts those of v's subtree at times at most m. A
    leaf sits at time 0, so E_m = 1 at every level, and an internal node at
    some time k <= m over children stamped below k, so E_m(v) sums, over k
    <= m, the product of its children's E_(k-1). A gapless stamping of t
    occupies at most as many times past 0 as t has internal nodes, so that
    many levels plus one serve, and the count depends only on t's shape.
    _gapless then takes the gapless stampings from the root's levels, as
    it takes the timed trees in count_timed_trees. The work is the number
    of nodes times the number of levels, however wide t is.
    """
    size = sum(1 for node in t.walk() if node.children) + 1
    return _gapless(_levels(t, (1,) * size))


def _levels(t: AssemblyTree, ones: tuple[int, ...]) -> tuple[int, ...]:
    """(E_0, ..., E_(len(ones) - 1)) of t's subtree, as in
    count_level_assignments; `ones` is a leaf's levels."""
    if not t.children:
        return ones
    products = map(prod, zip(*[_levels(c, ones) for c in t.children]))
    return tuple(accumulate(products, initial=0))[: len(ones)]


def _gapless(levels: tuple[int, ...]) -> int:
    """The stampings that occupy every time 0..j for some j, from the
    levels E_0.. of those that may leave times empty. A stamping at times
    at most m with j times past 0 occupied comes from a gapless one of j
    steps in C(m, j) ways, so E_m sums C(m, j) G_j over j, and inverted,
    G_j, the gapless ones of j steps, is the j-th forward difference of E
    at 0 (the zeta polynomial of Stanley's Enumerative Combinatorics I,
    3.12). `levels` must reach the most steps a stamping can take."""
    total = 0
    while levels:
        total += levels[0]
        levels = [*map(sub, levels[1:], levels)]
    return total


def _stampings(t: AssemblyTree) -> Iterator[AssemblyTree]:
    """t under each of its valid time stampings, lazily. Internal nodes
    are stamped in rounds: a node is ready once its internal children are
    stamped, and each round stamps a nonempty subset of the ready nodes
    at the next time. One preorder walk lists the internal nodes, node i
    at bit i, and stamps the leaves at time 0; each internal node then
    gets the mask of its internal children."""
    order, stamped = [], {}
    for node in t.walk():
        if node.children:
            order.append(node)
        else:
            stamped[node.label] = AssemblyTree(node.label, time=0)
    bits = {node.label: 1 << i for i, node in enumerate(order)}
    child_masks = [sum(bits.get(c.label, 0) for c in node.children) for node in order]
    return _stamp(t.label, order, child_masks, stamped, 0, 1)


def _stamp(
    root: frozenset[int], order: list[AssemblyTree], child_masks: list[int],
    stamped: dict[frozenset[int], AssemblyTree], placed: int, time: int,
) -> Iterator[AssemblyTree]:
    """_stampings once the nodes in `placed` are stamped and the next
    round is at `time`. The rounds that can come next are the nonempty
    submasks of the ready nodes, stepped in ascending order; none are
    ready once every node is placed. Each round builds its picked nodes
    over their children's stamped forms, which earlier rounds have placed
    in `stamped`; a node is overwritten only by a later branch that
    places it again."""
    ready = 0
    for i, m in enumerate(child_masks):
        if not placed >> i & 1 and m & ~placed == 0:
            ready |= 1 << i
    if not ready:
        yield stamped[root]
        return
    pick = 0
    while pick != ready:
        pick = (pick - ready) & ready
        for i in iter_bits(pick):
            node = order[i - 1]
            kids = tuple([stamped[c.label] for c in node.children])
            stamped[node.label] = AssemblyTree(node.label, kids, time)
        yield from _stamp(root, order, child_masks, stamped, placed | pick, time + 1)


def enumerate_timed_trees(
    g: Graph, rule: GluingRule | str, *, limit: int | None = None
) -> Iterator[AssemblyTree]:
    """Yield every timed assembly tree once: each plain tree, in
    enumerate_trees' order, under each of its valid time stampings, in
    _stampings' order, where a round's pick comes before every pick of a
    larger mask. Deterministic order; same cap as enumerate_trees."""
    for t in enumerate_trees(g, rule, limit=limit):
        yield from _stampings(t)


def count_timed_trees(g: Graph, rule: GluingRule | str, *, limit: int | None = None) -> int:
    """Number of timed assembly trees of g under the rule.

    A timed tree is uniquely determined by its chain of frontier
    partitions: singletons at time 0, then a strictly coarser partition at
    every time step, where each group of blocks merged in one step must
    have a connected union in the graph _prepare returns and at most its
    merge bound of blocks (two for EDGE, which with connected blocks is
    two blocks joined by an edge). It must, and in the tests does, agree
    with summing count_level_assignments over enumerate_trees.

    Chains are counted through multichains, which may also idle: E_m(V)
    counts the m-step multichains from the singletons to the one block V,
    and a multichain is a strict chain of j steps with m - j idle steps
    put in, C(m, j) ways, which _gapless inverts. A chain has at most n -
    1 steps. The levels E_0..E_(n-1) of every vertex set come from one
    memoized recursion over canonical subsets (see _multichains) of the
    peeled graph (_peeled), as in count_trees, so K_n enters n - 1 sets.
    Default cap COUNTING_LIMIT.
    """
    g, most = _prepare(g, rule, limit, COUNTING_LIMIT)
    g = _peeled(g)
    several = int(most > 2)
    n = g.n
    memo = {1 << v: (1,) * n for v in range(n)}  # one block at every level
    memo[0] = ()  # counts 0, so that a set is never its own first block
    full = g.full_mask()
    return _gapless(memo.get(full) or _multichains(full, several, g, _twin_classes(g), memo))


def _multichains(
    mask: int, several: int, g: Graph, twins: _Twins, memo: dict[int, tuple[int, ...]]
) -> tuple[int, ...]:
    """(E_0(S), ..., E_(n-1)(S)) for the masked set S, which is not in
    `memo`: E_m(S) counts the m-step multichains of admissible partitions
    from the singletons of S to the one block S. The merge bound `most` is
    2 or at least |S|, and several = int(most > 2). The memo is set up and
    looked up as in _forests, with () for 0: it must hold (1, ..., 1) for
    each singleton and () for the empty set. S is canonical, and every
    set passed on is mapped to its canonical set, as in _forests.

    A multichain's blocks are independent of one another, so it is read
    off its next-to-last partition: either that is S already, E_(m-1)(S)
    ways, or its blocks, each holding an (m - 1)-step multichain, merge at
    the last step. Writing B for the block of S's lowest vertex, E_0(S) =
    [|S| = 1] and for m >= 1, E_m(S) = E_(m-1)(S) + the sum over connected
    B != S of E_(m-1)(B) times a factor for the rest S - B. With no bound
    the rest is any partition into connected blocks with (m - 1)-step
    multichains, which is E_m(S - B) again, taken as a product over the
    components of S - B as in _forests. Under bound 2 the rest is one
    block, so the factor is E_(m-1)(S - B), and () when S - B falls apart.

    One loop takes the blocks B from _first_blocks, weighs each by the
    blocks it stands for and maps its rest to a canonical set, as in
    _forests, and each (S, B) pair adds its products for every level at
    once; a prefix sum over the levels then gives E(S).
    """
    part = component_mask(g, mask)
    if part != mask:
        levels: tuple[int, ...] = ()
        if several:
            levels = memo.get(part)
            if levels is None:
                levels = _multichains(part, several, g, twins, memo)
            rest = mask ^ part
            if rest & twins.twinned:
                rest = _canonical(rest, twins)
            others = memo.get(rest)
            if others is None:
                others = _multichains(rest, several, g, twins, memo)
            levels = tuple(map(mul, levels, others))
        memo[mask] = levels
        return levels
    held = _held(mask, twins) if mask & twins.twinned else None
    terms = []
    for first in _first_blocks(g, mask, twins.twinned, twins.keep):
        rest = mask ^ first
        if held is not None:
            ways = 1
            for members, prefixes, k in held:
                b = (first & members).bit_count()
                ways *= comb(k, b)
                rest ^= (rest & members) ^ prefixes[k - b]
        others = memo.get(rest)
        if others is None:
            others = _multichains(rest, several, g, twins, memo)
        if others:
            chains = memo.get(first)
            if chains is None:
                chains = _multichains(first, several, g, twins, memo)
            # E_m(S - B) with no bound, E_(m-1)(S - B) under bound 2
            products = map(mul, chains, others[several:])
            terms.append(products if held is None else map(ways.__mul__, products))
    # Under bound 2 the products run one level past E_(n-1).
    levels = tuple(accumulate(map(sum, zip(*terms)), initial=0))[: len(memo[mask & -mask])]
    memo[mask] = levels
    return levels


def frontier_partition(t: AssemblyTree, j: int) -> frozenset[frozenset[int]]:
    """The vertex partition formed at time j: labels of nodes with time
    <= j that are maximal under inclusion."""
    if t.time is None:
        raise ValueError("an untimed tree has no frontier partitions")
    if j < 0 or j > t.time:
        raise ValueError(f"time {j} outside 0..{t.time}")
    blocks = []
    stack = [t]
    while stack:
        node = stack.pop()
        if node.time is None:
            raise ValueError("timed and untimed nodes cannot mix")
        if node.time <= j:
            # Descendants are strictly earlier, hence never maximal.
            blocks.append(node.label)
        else:
            stack.extend(node.children)
    return frozenset(blocks)


def _set_str(label: Iterable[int]) -> str:
    return "{" + ",".join(str(v) for v in sorted(label)) + "}"


def validation_errors(g: Graph, t: AssemblyTree, rule: GluingRule | str) -> list[str]:
    """Why t fails to be a valid (timed) assembly tree of g under the rule;
    an empty list means valid.

    Checks run directly against the definition, sharing nothing with the
    enumerators, so they can audit enumerator output. Reasons are short
    stable strings meant for both humans and tests. One walk lists the
    nodes in preorder and every check reads that list; a reason's string
    is built only when that error is found.
    """
    rule = GluingRule(rule)
    connected, edge = rule is GluingRule.CONNECTED, rule is GluingRule.EDGE
    errors: list[str] = []
    timed = t.time is not None
    universe = g.vertices()

    if t.label != universe:
        errors.append(f"root: label {_set_str(t.label)} is not the full vertex set")
    nodes, stack = [], [t]
    while stack:  # preorder, as t.walk() lists it
        nodes.append(node := stack.pop())
        stack += node.children[::-1]
    mixed = [node for node in nodes if (node.time is None) is timed]
    for node in mixed:
        errors.append(f"node {_set_str(node.label)}: timed and untimed nodes mix")
    # The time checks below compare times, so they need one on every node.
    timed = timed and not mixed

    leaf_labels: list[frozenset[int]] = []
    for node in nodes:
        label = node.label
        if not label:
            errors.append("node: empty label")
            continue
        if not label <= universe:
            errors.append(f"node {_set_str(label)}: label outside vertex range 1..{g.n}")
            continue
        kids = node.children
        if not kids:
            leaf_labels.append(label)
            if len(label) != 1:
                errors.append(f"leaf {_set_str(label)}: leaves must carry singletons")
            if timed and node.time != 0:
                errors.append(f"leaf {_set_str(label)}: leaves must sit at time 0")
            continue
        if len(kids) < 2:
            errors.append(f"node {_set_str(label)}: internal nodes need at least two children")
        labels = [c.label for c in kids]
        union = frozenset().union(*labels)
        if union != label:
            errors.append(f"node {_set_str(label)}: label is not the union of its children")
        if len(union) != sum(map(len, labels)):
            errors.append(f"node {_set_str(label)}: children labels overlap")
        if connected and len(label) >= 2 and union and union <= universe:
            if component_mask(g, mask := vertex_mask(label)) != mask:
                errors.append(
                    f"node {_set_str(label)}: label does not induce a connected subgraph"
                )
        if edge:
            if len(kids) != 2:
                errors.append(f"node {_set_str(label)}: edge rule requires exactly two children")
            else:
                a, b = labels
                if a and b and not a & b and union <= universe:
                    reach = 0
                    for v in a:
                        reach |= g._adj[v]
                    if not reach & vertex_mask(b):
                        errors.append(
                            f"node {_set_str(label)}: no edge joins {_set_str(a)} and {_set_str(b)}"
                        )
        if timed:
            for child in kids:
                if child.time >= node.time:
                    errors.append(
                        f"node {_set_str(label)}: child {_set_str(child.label)} is not strictly earlier"
                    )

    # Exactly the n singletons: n nonempty labels of total size n whose
    # union is the vertex set.
    if not (
        len(leaf_labels) == g.n == sum(map(len, leaf_labels))
        and frozenset().union(*leaf_labels) == universe
    ):
        errors.append("leaves: must be exactly the n singletons, each once")

    if timed and not errors:
        occupied = {node.time for node in nodes}
        if occupied != set(range(t.time + 1)):
            missing = sorted(set(range(t.time + 1)) - occupied)
            errors.append(f"times: values {missing} are unoccupied below the root time {t.time}")

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
    return _node_from_dict(data, "time" in data, 0)


def _node_from_dict(d: object, timed: bool, depth: int) -> AssemblyTree:
    """tree_from_dict on a node at the given depth of a tree that is timed
    or not, as its root says."""
    if not isinstance(d, dict):
        raise ValueError("every tree node must be an object")
    # Each internal node on a path down from the root has a child off
    # the path, so a tree of depth d has at least d + 1 leaves.
    if depth >= MAX_VERTICES:
        raise ValueError(f"tree nests deeper than {MAX_VERTICES - 1} levels")
    raw_label = d.get("label")
    # Exact types, not isinstance: JSON true and false load as bools,
    # which are ints to isinstance. A label that is no list fails as [None].
    for v in raw_label if isinstance(raw_label, list) else (None,):
        if type(v) is not int:
            raise ValueError(f'node needs a "label" list of ints, got {raw_label!r}')
    label = frozenset(raw_label)
    if len(label) != len(raw_label):
        raise ValueError(f"node label lists a vertex twice, got {raw_label!r}")
    if ("time" in d) != timed:
        raise ValueError("mixed timed and untimed nodes")
    raw_children = d.get("children", [])
    if not isinstance(raw_children, list):
        raise ValueError('"children" must be a list')
    kids = []
    for child in raw_children:
        kids.append(_node_from_dict(child, timed, depth + 1))
    time = d.get("time")
    if timed and type(time) is not int:
        raise ValueError(f'"time" must be an int, got {time!r}')
    node = _new(AssemblyTree)  # built as __init__ builds it, without its frame
    _set(node, "label", label)
    _set(node, "children", tuple(kids))
    _set(node, "time", time)
    return node


def serialize_tree(t: AssemblyTree, fmt: str = "json") -> str:
    """Canonical text form of a tree: single-line JSON or a DOT digraph.

    The JSON is json.dumps(tree_to_dict(t), separators=(",", ":")) for
    int labels and times, built in one pass. DOT node labels render as
    "{1,2,3}" with "@time" appended for timed trees.
    """
    if fmt == "json":
        return _to_json(t)
    if fmt == "dot":
        return _to_dot(t)
    raise ValueError(f"unknown tree format {fmt!r}")


def _to_json(t: AssemblyTree) -> str:
    time = "" if t.time is None else f',"time":{t.time}'
    if t.children or len(t.label) != 1:
        label = ",".join(map(str, sorted(t.label)))
        return f'{{"label":[{label}]{time},"children":[{",".join(map(_to_json, t.children))}]}}'
    (v,) = t.label  # a leaf, written from its one vertex, with no sort or join
    return f'{{"label":[{v}]{time},"children":[]}}'


def parse_tree(text: str) -> AssemblyTree:
    """Inverse of serialize_tree(..., "json"). Malformed input, including
    text nested too deeply for json to read, raises ValueError."""
    return tree_from_dict(_load_json(text, "tree"))


def _to_dot(t: AssemblyTree) -> str:
    lines = ["digraph assembly_tree {"]
    _dot_lines(t, lines, count())
    lines.append("}")
    return "\n".join(lines)


def _dot_lines(node: AssemblyTree, lines: list[str], numbers: Iterator[int]) -> int:
    """Append the DOT lines of node's subtree, numbering its nodes in
    preorder from `numbers`, and return node's number."""
    me = next(numbers)
    tag = _set_str(node.label)
    if node.time is not None:
        tag += f"@{node.time}"
    lines.append(f'  n{me} [label="{tag}"];')
    for child in node.children:
        cid = _dot_lines(child, lines, numbers)
        lines.append(f"  n{me} -> n{cid};")
    return me

"""Checkers for the answers the benchmark receives, and their self-test.

Every checker returns a list of problems; an empty list means the answer is
right. The tree checker works on the JSON form of a tree and shares no code
with asmtree, so it can audit both the library and the CLI.
"""

from __future__ import annotations

import json


def check_count(what: str, got: object, expected: int) -> list[str]:
    if type(got) is not int or got != expected:
        return [f"{what}: got {got!r}, expected {expected}"]
    return []


def _connected(vertices: frozenset[int], adj: dict[int, set[int]]) -> bool:
    start = next(iter(vertices))
    seen = {start}
    todo = [start]
    while todo:
        v = todo.pop()
        for w in adj[v]:
            if w in vertices and w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == len(vertices)


def tree_problems(tree: dict, n: int, edges: list[tuple[int, int]], rule: str, timed: bool) -> list[str]:
    """Why the JSON tree (a dict) is not an assembly tree of the graph
    under the rule; iterative, straight from the definition."""
    adj: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    problems = []
    if sorted(tree.get("label", [])) != list(range(1, n + 1)):
        problems.append("root does not carry the full vertex set")
    leaves = []
    times = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        label = frozenset(node["label"])
        kids = node["children"]
        if timed:
            times.add(node["time"])
        if not kids:
            leaves.append(label)
            if len(label) != 1 or (timed and node["time"] != 0):
                problems.append(f"bad leaf {sorted(label)}")
            continue
        kid_labels = [frozenset(k["label"]) for k in kids]
        if len(kids) < 2 or frozenset().union(*kid_labels) != label or \
                sum(map(len, kid_labels)) != len(label):
            problems.append(f"node {sorted(label)} is not a disjoint union of >= 2 children")
        if rule == "connected" and not _connected(label, adj):
            problems.append(f"node {sorted(label)} is not connected")
        if rule == "edge" and (len(kids) != 2 or not any(
                adj[u] & kid_labels[1] for u in kid_labels[0])):
            problems.append(f"node {sorted(label)} is not two children joined by an edge")
        if timed and any(k["time"] >= node["time"] for k in kids):
            problems.append(f"node {sorted(label)} is not later than its children")
        stack.extend(kids)
    if sorted(min(s) for s in leaves) != list(range(1, n + 1)):
        problems.append("leaves are not the n singletons")
    if timed and times != set(range(tree["time"] + 1)):
        problems.append("times have gaps")
    return problems


def check_tree_lines(what: str, lines: list[str], n: int, edges: list[tuple[int, int]],
                     rule: str, timed: bool, expected: int | None) -> list[str]:
    """A stream of serialized trees: each one valid, none repeated, and, for
    a whole enumeration, as many as the reference count."""
    problems = []
    if expected is not None and len(lines) != expected:
        problems.append(f"{what}: {len(lines)} trees, expected {expected}")
    if len(set(lines)) != len(lines):
        problems.append(f"{what}: {len(lines) - len(set(lines))} duplicated trees")
    for line in lines:
        try:
            found = tree_problems(json.loads(line), n, edges, rule, timed)
        except (ValueError, KeyError, TypeError, StopIteration) as exc:
            found = [f"unreadable tree: {exc!r}"]
        if found:
            problems.append(f"{what}: {found[0]} in {line[:80]}")
            break
    return problems


def check_cli(what: str, code: int, stdout: bytes, expected_code: int, expected: bytes) -> list[str]:
    problems = []
    if code != expected_code:
        problems.append(f"{what}: exit code {code}, expected {expected_code}")
    if stdout != expected:
        at = next((i for i, (a, b) in enumerate(zip(stdout, expected)) if a != b),
                  min(len(stdout), len(expected)))
        problems.append(f"{what}: stdout differs from the expected bytes at byte {at}")
    return problems


def self_test() -> list[str]:
    """Feed each checker a right answer and corrupted ones; return the
    checkers that misjudged (empty when all behave)."""
    failures = []

    def expect(name: str, problems: list[str], flagged: bool) -> None:
        if bool(problems) != flagged:
            failures.append(f"{name}: {'missed' if flagged else 'false alarm'} {problems}")

    expect("count right", check_count("c", 4, 4), False)
    expect("count off by one", check_count("c", 5, 4), True)
    expect("count as text", check_count("c", "4", 4), True)

    # The triangle under the edge rule has exactly three trees.
    edges = [(1, 2), (2, 3), (1, 3)]
    leaf = lambda v, t=None: {"label": [v], **({} if t is None else {"time": t}), "children": []}
    good = [
        json.dumps({"label": [1, 2, 3], "children": [
            {"label": [1, 2], "children": [leaf(1), leaf(2)]}, leaf(3)]}),
        json.dumps({"label": [1, 2, 3], "children": [
            {"label": [1, 3], "children": [leaf(1), leaf(3)]}, leaf(2)]}),
        json.dumps({"label": [1, 2, 3], "children": [
            leaf(1), {"label": [2, 3], "children": [leaf(2), leaf(3)]}]}),
    ]
    expect("trees right", check_tree_lines("t", good, 3, edges, "edge", False, 3), False)
    expect("tree duplicated", check_tree_lines("t", good[:2] + good[:1], 3, edges, "edge", False, 3), True)
    flat = json.dumps({"label": [1, 2, 3], "children": [leaf(1), leaf(2), leaf(3)]})
    expect("tree invalid", check_tree_lines("t", good[:2] + [flat], 3, edges, "edge", False, 3), True)
    expect("flat tree valid under none",
           check_tree_lines("t", [flat], 3, edges, "none", False, 1), False)
    path_edges = [(1, 2), (2, 3)]
    expect("tree disconnected", check_tree_lines("t", good[1:2], 3, path_edges, "connected", False, 1), True)
    timed = json.dumps({"label": [1, 2, 3], "time": 2, "children": [
        {"label": [1, 2], "time": 1, "children": [leaf(1, 0), leaf(2, 0)]}, leaf(3, 0)]})
    expect("timed tree right", check_tree_lines("t", [timed], 3, edges, "edge", True, 1), False)
    gap = timed.replace('"time": 2', '"time": 3')
    expect("timed tree with a gap", check_tree_lines("t", [gap], 3, edges, "edge", True, 1), True)
    expect("tree missing", check_tree_lines("t", good[:2], 3, edges, "edge", False, 3), True)

    expect("cli right", check_cli("c", 0, b"75\n", 0, b"75\n"), False)
    expect("cli byte changed", check_cli("c", 0, b"76\n", 0, b"75\n"), True)
    expect("cli byte added", check_cli("c", 0, b"75\n\n", 0, b"75\n"), True)
    expect("cli wrong exit code", check_cli("c", 2, b"75\n", 0, b"75\n"), True)
    return failures

"""One benchmark workload in a fresh interpreter; run.py starts it as

    python3 workloads.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

It builds the workload's inputs from the seed and prints "ready". Then it
runs whole rounds of the workload's fixed operation list, checks every
answer, and starts another round only while that round still fits in the
run's seconds. The last line of its output is one JSON object with the
round figures.

An operation is one call into asmtree's public API or one `asmtree`
invocation in a fresh interpreter, at most one at a time. Only the time
inside those calls is counted; the checks run outside it. Times are paced
(pace.py): a call into the API by the kernel run right before and right
after it, an invocation's CPU time by the pace children run right before
and right after it.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import asmtree  # noqa: E402
import checks  # noqa: E402  (this file's directory is sys.path[0])
import pace  # noqa: E402
import refs  # noqa: E402
import tracing  # noqa: E402

clock = time.perf_counter
CLI_TIMEOUT = 60
CONSOLE_ENTRY = "from asmtree.cli import run; run()"
IMPORT_PROBE = ("import time; t = time.perf_counter(); import asmtree.cli; "
                "print(time.perf_counter() - t)")


# ------------------------------------------------------------ inputs


class Case:
    """One input graph: its edge list, the asmtree graph and a short name."""

    def __init__(self, name: str, n: int, edges: list[tuple[int, int]], family: str | None = None):
        self.name, self.n, self.edges, self.family = name, n, edges, family
        self.graph = asmtree.Graph(n, edges)

    def ref(self, rule: str, timed: bool = False) -> int:
        return refs.count(self.family, rule, self.n, timed)

    def relabelled(self, rng: random.Random) -> "Case":
        perm = list(range(1, self.n + 1))
        rng.shuffle(perm)
        edges = [(perm[u - 1], perm[v - 1]) for u, v in self.edges]
        return Case(self.name + "'", self.n, edges, self.family)

    def plus_edge(self, rng: random.Random) -> "Case":
        present = {tuple(sorted(e)) for e in self.edges}
        missing = [(u, v) for u in range(1, self.n) for v in range(u + 1, self.n + 1)
                   if (u, v) not in present]
        return Case(self.name + "+e", self.n, self.edges + [rng.choice(missing)])

    def write(self, path: Path) -> str:
        path.write_text(json.dumps({"n": self.n, "edges": [list(e) for e in self.edges]}))
        return str(path)


def family(rng: random.Random, name: str, n: int) -> Case:
    """The family graph under a seeded relabelling: the same work and answer
    for every seed, on different vertex labels."""
    return Case(f"{name}{n}", n, refs.family_edges(name, n), name).relabelled(rng)


def seeded_legs(rng: random.Random, spine: int, total: int) -> list[int]:
    """Leg counts of a caterpillar: `total - spine` pendants spread over the spine."""
    legs = [0] * spine
    for _ in range(total - spine):
        legs[rng.randrange(spine)] += 1
    return legs


def caterpillar(legs: list[int]) -> Case:
    return Case("cat" + "".join(map(str, legs)), len(legs) + sum(legs), refs.caterpillar_edges(legs))


def random_connected(rng: random.Random, n: int, m: int, tag: str) -> Case:
    """A seeded connected graph with n vertices and m edges: a path through
    the vertices in random order plus random chords. A random spanning tree
    would range from path-like to star-like, and the DPs' work with it;
    the path keeps the work of one seed close to that of another."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = set()
    for u, v in zip(order, order[1:]):
        edges.add((min(u, v), max(u, v)))
    while len(edges) < m:
        u, v = sorted(rng.sample(range(1, n + 1), 2))
        edges.add((u, v))
    return Case(f"R{n}{tag}", n, sorted(edges))


# ------------------------------------------------------------ the harness


class Op:
    """The figures of one operation in one round. `main` marks the
    workload's own operations, which total_s sums; `first` is the time to
    the first tree of an enumeration, `trees` the trees it streamed; `kind`
    is "cold" or "hit" for a count request to the CLI."""

    def __init__(self, seconds: float, main: bool, first: float | None = None,
                 trees: int = 0, kind: str | None = None) -> None:
        self.seconds, self.main, self.first, self.trees, self.kind = seconds, main, first, trees, kind

    def paced(self, factor: float) -> "Op":
        """Scale the raw times by the factor pace.py gives for the operation."""
        self.seconds *= factor
        if self.first is not None:
            self.first *= factor
        return self


class Round:
    def __init__(self) -> None:
        self.ops: list[Op] = []
        self.main_s: list[float] = []  # in-process cli.main time per invocation
        self.child_stats: dict[str, list] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.cache_bytes = 0


class Bench:
    def __init__(self, seed: int, trace: bool, work: Path) -> None:
        self.api = asmtree
        self.rng = random.Random(seed)
        self.work = work
        self.tracer = tracing.Tracer() if trace else None
        self.env = {k: v for k, v in os.environ.items() if k != "ASMTREE_OEIS_BASE_URL"}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.cache_template: Path | None = None
        self.cache_dir = work / "cache"
        self.r = Round()
        self.calls = 0
        # The CPU time of the pace child that ran right after the last
        # invocation, while no other operation has run since.
        self.last_pace: float | None = None

    # -- rounds

    def begin_round(self) -> None:
        self.r = Round()
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        if self.cache_template is not None:
            shutil.copytree(self.cache_template, self.cache_dir)
        else:
            self.cache_dir.mkdir()
        self.last_pace = None
        if self.tracer:
            self.tracer.reset()

    def end_round(self) -> None:
        cache = self.cache_dir / "counts.txt"
        self.r.cache_bytes = cache.stat().st_size if cache.exists() else 0

    def fail(self, what: str, exc: BaseException) -> None:
        self.r.failed += 1
        self.r.ops.append(Op(float("nan"), False))
        print(f"{what}: failed: {exc!r}", file=sys.stderr)

    # -- operations

    def count(self, what: str, case: Case, rule: str, timed: bool = False,
              expected: int | None = None, main: bool = True) -> int | None:
        """One count_trees or count_timed_trees call."""
        fn = self.api.count_timed_trees if timed else self.api.count_trees
        self.r.attempted += 1
        before = pace.sample()
        t0 = clock()
        try:
            value = fn(case.graph, rule)
        except Exception as exc:  # a failed operation is counted, the run goes on
            self.fail(what, exc)
            return None
        self.r.ops.append(Op(clock() - t0, main).paced(pace.scale(before, pace.sample())))
        self.last_pace = None
        if expected is not None:
            self.r.problems += checks.check_count(what, value, expected)
        return value

    def stream(self, what: str, case: Case, rule: str, timed: bool = False,
               expected: int | None = None, limit: int | None = None,
               main: bool = True, levels: bool = False, memory: bool = False) -> list | None:
        """One enumeration: the time to its first tree, then each tree (the
        first `limit` of them) serialized, parsed back and validated. With
        `levels`, also count_level_assignments of every tree, returned.
        With `memory`, the call is paced by the memory kernel (pace.py)."""
        api = self.api
        fn = api.enumerate_timed_trees if timed else api.enumerate_trees
        self.r.attempted += 1
        out = []
        first = 0.0
        before = pace.sample(memory)
        t0 = clock()
        try:
            for tree in fn(case.graph, rule):
                if not out:
                    first = clock() - t0
                text = api.serialize_tree(tree)
                back = api.parse_tree(text)
                out.append((tree, text, back, api.validate(case.graph, back, rule)))
                if len(out) == limit:
                    break
            spent = clock() - t0
            level_counts = []
            if levels:
                t1 = clock()
                level_counts = [api.count_level_assignments(t) for t, _, _, _ in out]
                spent += clock() - t1
        except Exception as exc:  # a failed operation is counted, the run goes on
            self.fail(what, exc)
            return None
        # trees_per_s is the rate of the fixed-length streams; a first tree
        # alone is a latency, and a whole small enumeration is mostly set-up.
        self.r.ops.append(Op(spent, main, first, len(out) if limit and limit > 1 else 0)
                          .paced(pace.scale(before, pace.sample(memory), memory)))
        self.last_pace = None
        texts = [text for _, text, _, _ in out]
        self.r.problems += checks.check_tree_lines(what, texts, case.n, case.edges, rule, timed,
                                                   None if limit else expected)
        if not all(ok for _, _, _, ok in out):
            self.r.problems.append(f"{what}: validate rejected an enumerated tree")
        if any(tree != back for tree, _, back, _ in out):
            self.r.problems.append(f"{what}: parse_tree(serialize_tree(t)) != t")
        return level_counts if levels else texts

    def cli(self, what: str, args: list[str], expected: bytes | None = None, kind: str | None = None,
            trees: tuple | None = None, code: int = 0, main: bool = True) -> bytes | None:
        """One `asmtree` invocation in a fresh interpreter, timed by its CPU
        time and paced by the pace children right before and after it
        (pace.py). `kind` marks a count request as a cache miss
        ("cold") or a hit; `trees` is (case, rule, timed, count) for a
        `trees` request."""
        self.r.attempted += 1
        self.calls += 1
        args = [*args, "--no-banner"]
        trace_file = self.work / f"cli-{self.calls}.json"
        if self.tracer:
            cmd = [sys.executable, str(HERE / "launch.py"), str(trace_file), *args]
        else:
            cmd = [sys.executable, "-c", CONSOLE_ENTRY, *args]
        env = dict(self.env, ASMTREE_CACHE_DIR=str(self.cache_dir))
        with open(self.work / "stderr.txt", "w+b") as err_file:
            before = self.last_pace if self.last_pace is not None else pace.child_sample()
            used = pace.child_cpu()
            t0 = clock()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err_file, env=env, cwd=ROOT)
            timer = threading.Timer(CLI_TIMEOUT, proc.kill)
            timer.start()
            try:
                with proc.stdout:
                    head = proc.stdout.readline()
                    first = clock() - t0
                    rest = proc.stdout.read()
                proc.wait()
            finally:
                timer.cancel()
            elapsed = clock() - t0
            cpu = pace.child_cpu() - used
            after = pace.child_sample()
            factor = pace.child_scale(before, after)
            self.last_pace = after
            err_file.seek(0)
            err = err_file.read()
        if proc.returncode < 0:
            self.fail(what, TimeoutError(f"killed after {CLI_TIMEOUT} s"))
            return None
        out = head + rest
        if self.tracer and trace_file.exists():
            data = json.loads(trace_file.read_text())
            tracing.merge(self.r.child_stats, data["stats"])
            self.r.main_s += [end - start for name, start, end, _ in data["spans"] if name == "cli.main"]
            trace_file.unlink()
        if trees is not None:
            case, rule, timed, count = trees
            lines = out.decode().splitlines()
            # The time to the first line, in CPU time: its share of the wall time.
            self.r.ops.append(Op(cpu, main, first * cpu / elapsed, len(lines)).paced(factor))
            self.r.problems += checks.check_tree_lines(what, lines, case.n, case.edges, rule, timed, count)
            if proc.returncode != code:
                self.r.problems.append(f"{what}: exit code {proc.returncode}, expected {code}")
        else:
            self.r.ops.append(Op(cpu, main, kind=kind).paced(factor))
            self.r.problems += checks.check_cli(what, proc.returncode, out, code, expected)
        if proc.returncode != code:
            print(f"{what}: {err.decode(errors='replace')[-400:]}", file=sys.stderr)
        return out

    def cli_counts(self, requests: list[tuple[str, list[str], int]], main: bool = True) -> None:
        """Each count request once cold and once more as a cache hit, whose
        stdout must be byte-identical to the cold one."""
        colds = [self.cli(what, args, f"{value}\n".encode(), "cold", main=main)
                 for what, args, value in requests]
        for (what, args, value), cold in zip(requests, colds):
            hit = self.cli(what + " (hit)", args, f"{value}\n".encode(), "hit", main=main)
            if cold is not None and hit is not None and hit != cold:
                self.r.problems.append(f"{what}: the cache hit differs from the cold answer")

    # -- property checks on answers that have no closed form

    def expect(self, what: str, holds: bool) -> None:
        if not holds:
            self.r.problems.append(f"property violated: {what}")

    def ordered(self, what: str, *values: int | None) -> None:
        """edge <= connected <= none (or plain <= timed)."""
        if None not in values:
            self.expect(f"{what}: {' <= '.join(map(str, values))}",
                        all(a <= b for a, b in zip(values, values[1:])))

    def same(self, what: str, a: int | None, b: int | None) -> None:
        if None not in (a, b):
            self.expect(f"{what}: {a} == {b}", a == b)


def count_args(family_name: str, rule: str, n: int, timed: bool = False, method: str | None = None) -> list[str]:
    args = ["count", "--family", family_name, "--rule", rule, "--n", str(n)]
    return args + (["--timed"] if timed else []) + (["--method", method] if method else [])


def custom_args(path: str, rule: str, timed: bool = False) -> list[str]:
    return ["count", "--family", "custom", "--graph-file", path, "--rule", rule] + (
        ["--timed"] if timed else [])


# ------------------------------------------------------------ workloads


class PlainCounts:
    """count_trees under none, connected and edge: the subset DP and the
    graph primitives do all of the work, the partition DP none."""

    def setup(self, b: Bench) -> None:
        rng = b.rng
        self.families = [
            (family(rng, "complete", 12), ("none", "connected", "edge")),
            (family(rng, "cycle", 12), ("connected", "edge")),
            (family(rng, "path", 12), ("connected", "edge")),
            (family(rng, "star", 11), ("connected", "edge")),
        ]
        self.cat = caterpillar(seeded_legs(rng, 4, 11)).relabelled(rng)
        self.cat2 = self.cat.relabelled(rng)
        self.sparse12 = random_connected(rng, 12, 15, "s")
        self.sparse12b = self.sparse12.relabelled(rng)
        self.sparse12c = self.sparse12.plus_edge(rng)
        self.connected_only = [random_connected(rng, 12, 33, "d"), random_connected(rng, 13, 13, "s"),
                               random_connected(rng, 14, 14, "s")]
        probe_graph = family(rng, "cycle", 10)
        self.probe_requests = [
            ("custom C10 edge", custom_args(probe_graph.write(b.work / "c10.json"), "edge"),
             probe_graph.ref("edge")),
            ("cycle 10 connected both", count_args("cycle", "connected", 10, method="both"),
             refs.plain_count("cycle", "connected", 10)),
            ("path 11 connected", count_args("path", "connected", 11), refs.plain_count("path", "connected", 11)),
            ("star 10 connected", count_args("star", "connected", 10), refs.plain_count("star", "connected", 10)),
        ]
        self.probe_streams = [family(rng, "path", 9), family(rng, "cycle", 6)]

    def round(self, b: Bench) -> None:
        for case, rules in self.families:
            for rule in rules:
                b.count(f"{case.name} {rule}", case, rule, expected=case.ref(rule))
        b.count("R12s none", self.sparse12, "none", expected=refs.plain_count("complete", "none", 12))
        for case, other in ((self.cat, self.cat2), (self.sparse12, self.sparse12b)):
            conn = b.count(f"{case.name} connected", case, "connected")
            edge = b.count(f"{case.name} edge", case, "edge")
            b.ordered(f"{case.name} edge <= connected <= none", edge, conn,
                      refs.plain_count("complete", "none", case.n))
            b.same(f"{case.name} relabelled", conn, b.count(f"{other.name} connected", other, "connected"))
        # `conn` is now the connected count of R12s.
        b.ordered("R12s plus an edge", conn, b.count("R12s+e connected", self.sparse12c, "connected"))
        for case in self.connected_only:
            b.ordered(f"{case.name} connected <= none", b.count(f"{case.name} connected", case, "connected"),
                      refs.plain_count("complete", "none", case.n))
        probe(b, self.probe_streams, self.probe_requests, timed=False)


class TimedCounts:
    """count_timed_trees under connected, edge and none: the partition-lattice
    DP dominates."""

    def setup(self, b: Bench) -> None:
        rng = b.rng
        self.families = [
            (family(rng, "cycle", 10), ("connected", "edge")),
            (family(rng, "complete", 7), ("connected", "none")),
            (family(rng, "complete", 8), ("edge",)),
            (family(rng, "path", 10), ("connected",)),
            (family(rng, "path", 11), ("edge",)),
            (family(rng, "star", 9), ("connected", "edge")),
        ]
        self.cat = caterpillar(seeded_legs(rng, 3, 9)).relabelled(rng)
        self.sparse = [random_connected(rng, 9, 10, "a"), random_connected(rng, 9, 10, "b")]
        self.sparse9b = self.sparse[0].relabelled(rng)
        self.sparse9c = self.sparse[1].plus_edge(rng)
        self.edge_only = [random_connected(rng, 10, 11, ""), random_connected(rng, 11, 11, "")]
        self.none_only = random_connected(rng, 7, 9, "")
        probe_graph = family(rng, "cycle", 8)
        self.probe_requests = [
            ("custom C8 connected timed", custom_args(probe_graph.write(b.work / "c8.json"), "connected", True),
             probe_graph.ref("connected", True)),
            ("path 9 edge timed both", count_args("path", "edge", 9, timed=True, method="both"),
             refs.timed_count("path", "edge", 9)),
            ("cycle 9 connected timed", count_args("cycle", "connected", 9, timed=True),
             refs.timed_count("cycle", "connected", 9)),
            ("star 8 edge timed", count_args("star", "edge", 8, timed=True), refs.timed_count("star", "edge", 8)),
        ]
        self.probe_streams = [family(rng, "path", 8), family(rng, "cycle", 5)]

    def round(self, b: Bench) -> None:
        for case, rules in self.families:
            for rule in rules:
                b.count(f"{case.name} {rule} timed", case, rule, True, expected=case.ref(rule, True))
        for case in [self.cat] + self.sparse:
            conn = b.count(f"{case.name} connected timed", case, "connected", True)
            edge = b.count(f"{case.name} edge timed", case, "edge", True)
            b.ordered(f"{case.name} edge <= connected <= none",
                      edge, conn, refs.timed_count("complete", "none", case.n))
            b.ordered(f"{case.name} plain <= timed (connected)",
                      b.count(f"{case.name} connected", case, "connected"), conn)
            b.ordered(f"{case.name} plain <= timed (edge)", b.count(f"{case.name} edge", case, "edge"), edge)
            if case is self.sparse[0]:
                b.same("R9a relabelled", conn, b.count("R9a' connected timed", self.sparse9b, "connected", True))
            if case is self.sparse[1]:
                b.ordered("R9b plus an edge", conn,
                          b.count("R9b+e connected timed", self.sparse9c, "connected", True))
        for case in self.edge_only:
            b.ordered(f"{case.name} plain <= timed (edge)", b.count(f"{case.name} edge", case, "edge"),
                      b.count(f"{case.name} edge timed", case, "edge", True))
        b.count("R7 none timed", self.none_only, "none", True,
                expected=refs.timed_count("complete", "none", 7))
        probe(b, self.probe_streams, self.probe_requests, timed=True)


class Enumerate:
    """Streaming, memory and the per-tree layer: the time to the first tree
    of a large enumeration, streamed trees near the enumeration cap, and
    whole plain and timed enumerations of small graphs."""

    STREAMED = 600

    def setup(self, b: Bench) -> None:
        rng = b.rng
        self.k8 = family(rng, "complete", 8)
        self.near_cap = [(family(rng, "path", 9), "connected"), (family(rng, "cycle", 9), "edge")]
        self.small = [(family(rng, "cycle", 6), "connected"), (family(rng, "complete", 5), "edge")]
        for tag in "ab":
            case = random_connected(rng, 5, 6, tag)
            self.small += [(case, "connected"), (case, "edge")]
        probe_graph = family(rng, "path", 9)
        self.probe_requests = [
            ("custom P9 connected", custom_args(probe_graph.write(b.work / "p9.json"), "connected"),
             probe_graph.ref("connected")),
            ("star 8 connected both", count_args("star", "connected", 8, method="both"),
             refs.plain_count("star", "connected", 8)),
            ("path 8 connected", count_args("path", "connected", 8), refs.plain_count("path", "connected", 8)),
            ("cycle 8 connected", count_args("cycle", "connected", 8), refs.plain_count("cycle", "connected", 8)),
        ]

    def round(self, b: Bench) -> None:
        # Bound by memory: it builds all 660,032 trees before the first.
        b.stream("K8 connected first tree", self.k8, "connected", limit=1, memory=True)
        for case, rule in self.near_cap:
            b.stream(f"{case.name} {rule} first {self.STREAMED}", case, rule, limit=self.STREAMED)
        for case, rule in self.small:
            known = case.family is not None
            plain = b.count(f"{case.name} {rule}", case, rule,
                            expected=case.ref(rule) if known else None)
            timed = b.count(f"{case.name} {rule} timed", case, rule, True,
                            expected=case.ref(rule, True) if known else None)
            levels = b.stream(f"{case.name} {rule} trees", case, rule, expected=plain, levels=True)
            texts = b.stream(f"{case.name} {rule} timed trees", case, rule, True, expected=timed)
            if levels is not None and texts is not None:
                b.same(f"{case.name} {rule}: sum of level assignments == timed trees",
                       sum(levels), len(texts))
        b.cli_counts(self.probe_requests, main=False)


def probe(b: Bench, streams: list[Case], requests: list, timed: bool) -> None:
    """The end-to-end figures a counting workload's own operations do not
    produce: a first tree, a short stream of checked trees and a cold and a
    cached `asmtree count`. Left out of total_s."""
    big, small = streams
    for _ in range(4):  # four times, for more samples of a short operation
        b.stream(f"{big.name} connected first 400", big, "connected", timed, limit=400, main=False)
    b.stream(f"{small.name} connected trees", small, "connected", timed,
             expected=small.ref("connected", timed), main=False)
    b.cli_counts(requests, main=False)


class Cli:
    """A seeded sequence of `asmtree` invocations sharing one cache directory
    that is pre-filled before timing: cold counts through the closed forms
    and the DPs, cache hits, series, table, oeis and trees."""

    PREFILL_MAX_N = 18

    def setup(self, b: Bench) -> None:
        from asmtree import cli

        rng = b.rng
        b.cache_template = b.work / "cache-template"
        os.environ["ASMTREE_CACHE_DIR"] = str(b.cache_template)
        self.prefilled = []
        for fam in refs.FAMILIES:
            for rule, timed in (("connected", False), ("connected", True), ("edge", True)):
                for n in range(refs.FAMILY_MIN_N[fam], self.PREFILL_MAX_N + 1):
                    args = count_args(fam, rule, n, timed)
                    with redirect_stdout(io.StringIO()) as out:
                        cli.main(args + ["--no-banner"])
                    expected = refs.count(fam, rule, n, timed)
                    if out.getvalue() != f"{expected}\n":
                        raise RuntimeError(f"pre-filling {args} printed {out.getvalue()!r}")
                    self.prefilled.append((" ".join(args), args, expected))

        def formula(what: str, fam: str, rule: str, n: int, timed: bool = False) -> tuple:
            return what, count_args(fam, rule, n, timed), refs.count(fam, rule, n, timed)

        pick = rng.randint
        self.formula_requests = [
            formula("K30 connected", "complete", "connected", 30),
            formula("path connected", "path", "connected", pick(60, 120)),
            formula("cycle connected timed", "cycle", "connected", pick(60, 120), True),
            formula("complete connected timed", "complete", "connected", pick(30, 60), True),
            formula("path edge timed", "path", "edge", pick(60, 120), True),
            formula("cycle edge timed", "cycle", "edge", pick(60, 120), True),
        ]
        legs = seeded_legs(rng, 4, 10)
        self.cat = caterpillar(legs)
        self.cat_args = ["count", "--family", "caterpillar", "--legs", ",".join(map(str, legs))]
        self.custom = random_connected(rng, 9, 12, "")
        self.custom_path = self.custom.write(b.work / "custom.json")
        self.custom2 = self.custom.relabelled(rng)
        self.custom2_path = self.custom2.write(b.work / "custom-relabelled.json")
        self.custom_plus = self.custom.plus_edge(rng)
        self.cat2 = self.cat.relabelled(rng)
        self.tree_cases = [(family(rng, "path", 7), "edge", True), (family(rng, "cycle", 6), "connected", False),
                           (family(rng, "star", 6), "connected", True)]
        self.tree_paths = [case.write(b.work / f"trees-{i}.json")
                           for i, (case, _, _) in enumerate(self.tree_cases)]
        self.prefilled_hit = rng.choice(self.prefilled)
        self.table_n_max = pick(8, 9)
        self.oeis_n_max = pick(10, 12)

    def prepare(self, b: Bench) -> None:
        """Answers with no closed form come from the library, before timing
        and tracing start. They are used only if they have the properties
        that tie them to each other and to the references."""
        api = b.api
        plain, timed = api.count_trees, api.count_timed_trees
        cat_conn, cat_edge = plain(self.cat.graph, "connected"), plain(self.cat.graph, "edge")
        custom_conn, custom_edge = plain(self.custom.graph, "connected"), plain(self.custom.graph, "edge")
        custom_conn_t, custom_edge_t = timed(self.custom.graph, "connected"), timed(self.custom.graph, "edge")
        n = self.custom.n
        properties = {
            "caterpillar: edge <= connected <= none": (
                cat_edge <= cat_conn <= refs.plain_count("complete", "none", self.cat.n)),
            "caterpillar: invariant under relabelling": (
                plain(self.cat2.graph, "connected") == cat_conn and plain(self.cat2.graph, "edge") == cat_edge),
            "custom: edge <= connected <= none": (
                custom_edge <= custom_conn <= refs.plain_count("complete", "none", n)),
            "custom, timed: edge <= connected <= none": (
                custom_edge_t <= custom_conn_t <= refs.timed_count("complete", "none", n)),
            "custom: plain <= timed": custom_conn <= custom_conn_t and custom_edge <= custom_edge_t,
            "custom: invariant under relabelling": (
                plain(self.custom2.graph, "connected") == custom_conn
                and timed(self.custom2.graph, "edge") == custom_edge_t),
            "custom: no fall when an edge is added": (
                plain(self.custom_plus.graph, "connected") >= custom_conn
                and timed(self.custom_plus.graph, "edge") >= custom_edge_t),
        }
        broken = [name for name, holds in properties.items() if not holds]
        if broken:
            raise RuntimeError(f"the library's DP answers break: {'; '.join(broken)}")
        self.dp_requests = [
            ("caterpillar connected", self.cat_args + ["--rule", "connected"], cat_conn),
            ("custom connected", custom_args(self.custom_path, "connected"), custom_conn),
            # The relabelled file is another cache key with the same answer.
            ("custom relabelled connected", custom_args(self.custom2_path, "connected"), custom_conn),
            ("custom edge timed", custom_args(self.custom_path, "edge", True), custom_edge_t),
        ]

    def round(self, b: Bench) -> None:
        requests = self.formula_requests + self.dp_requests
        colds = [b.cli(what, args, f"{value}\n".encode(), "cold") for what, args, value in requests]
        for (what, args, value), cold in list(zip(requests, colds))[::2]:
            hit = b.cli(what + " (hit)", args, f"{value}\n".encode(), "hit")
            if hit is not None and cold is not None and hit != cold:
                b.r.problems.append(f"{what}: the cache hit differs from the cold answer")
        what, args, value = self.prefilled_hit
        b.cli(what + " (pre-filled hit)", args, f"{value}\n".encode(), "hit")
        for order in (60, 120):
            for which in ("fubini-egf", "super-catalan-ogf", "cycle-ogf", "td-cycle-egf", "td-path-funceq"):
                b.cli(f"series {which} {order}", ["series", "--which", which, "--order", str(order)],
                      refs.series_text(which, order).encode())
        b.cli("table path connected", ["table", "--family", "path", "--rule", "connected",
                                       "--n-min", "1", "--n-max", str(self.table_n_max)],
              table_csv("path", "connected", False, 1, self.table_n_max).encode())
        for name, (fam, rule, timed, offset) in refs.BFILES.items():
            path = ROOT / "tests" / "data" / name
            n_max = self.oeis_n_max if name == "b000670.txt" else None
            args = ["oeis", "--bfile", str(path), "--family", fam, "--rule", rule,
                    "--offset", str(offset)] + (["--timed"] if timed else []) + (
                        ["--n-max", str(n_max)] if n_max else [])
            b.cli(f"oeis {name}", args, oeis_text(path, fam, rule, timed, offset, n_max).encode())
        for (case, rule, timed), path in zip(self.tree_cases, self.tree_paths):
            b.cli(f"trees {case.name} {rule}",
                  ["trees", "--family", "custom", "--graph-file", path, "--rule", rule]
                  + (["--timed"] if timed else []),
                  trees=(case, rule, timed, case.ref(rule, timed)))


def table_rows(fam: str, rule: str, timed: bool, n_min: int, n_max: int) -> list[tuple]:
    """(n, formula, oracle) as `asmtree table` fills them: a formula where a
    closed form exists, an oracle where the graph exists within the
    enumeration cap of 9 vertices."""
    has_formula = rule == "connected" or (rule == "edge" and timed)
    rows = []
    for n in range(n_min, n_max + 1):
        value = refs.count(fam, rule, n, timed) if n >= refs.FAMILY_MIN_N[fam] else None
        rows.append((n, value if has_formula else None, value if n <= 9 else None))
    return rows


def table_csv(fam: str, rule: str, timed: bool, n_min: int, n_max: int) -> str:
    lines = ["n,formula,oracle,agree"]
    for n, formula, oracle in table_rows(fam, rule, timed, n_min, n_max):
        agree = "" if None in (formula, oracle) else str(formula == oracle).lower()
        lines.append(f"{n},{'' if formula is None else formula},{'' if oracle is None else oracle},{agree}")
    return "\n".join(lines) + "\n"


def oeis_text(path: Path, fam: str, rule: str, timed: bool, offset: int, n_max: int | None) -> str:
    lines = []
    for index, value in sorted(refs.read_bfile(path)):
        n = index + offset
        if n < refs.FAMILY_MIN_N[fam] or (n_max is not None and n > n_max):
            continue
        lines.append(f"{index}\t{value}\t{refs.count(fam, rule, n, timed)}\tok")
    return "\n".join(lines + [f"PASS ({len(lines)} terms)"]) + "\n"


WORKLOADS = {"plain-counts": PlainCounts, "timed-counts": TimedCounts,
             "enumerate": Enumerate, "cli": Cli}


# ------------------------------------------------------------ figures


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def child_seconds(b: Bench, cmd: list[str], samples: int = 5) -> float:
    """Median wall time of a bare command in a fresh interpreter."""
    times = []
    for _ in range(samples):
        t0 = clock()
        subprocess.run(cmd, env=b.env, cwd=ROOT, check=True, capture_output=True, timeout=CLI_TIMEOUT)
        times.append(clock() - t0)
    return statistics.median(times)


def typical(runs: tuple[Op, ...]) -> Op:
    """One operation's figures over the rounds: the median of its paced times."""
    times = [op.seconds for op in runs if op.seconds == op.seconds]
    firsts = [op.first for op in runs if op.first is not None]
    return Op(median(times), runs[0].main, median(firsts) if firsts else None,
              runs[0].trees, runs[0].kind)


def end_to_end(name: str, rounds: list[Round]) -> dict:
    ops = [typical(runs) for runs in zip(*(r.ops for r in rounds))]
    streams = [op for op in ops if op.trees]
    peak = resource.getrusage(resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF)
    return {
        "total_s": sum(op.seconds for op in ops if op.main),
        "peak_rss_mib": peak.ru_maxrss / 1024,
        "first_tree_s": sum(op.first for op in ops if op.first is not None),
        "trees_per_s": sum(op.trees for op in streams) / sum(op.seconds for op in streams),
        "cli_cold_p50_s": median([op.seconds for op in ops if op.kind == "cold"]),
        "cli_hit_p50_s": median([op.seconds for op in ops if op.kind == "hit"]),
    }


def per_layer(b: Bench, names: list[str], rounds: list[Round], stats: list[dict]) -> dict:
    extras = {
        "cli.interpreter_s": child_seconds(b, [sys.executable, "-c", "pass"]),
        "cli.import_s": statistics.median(
            float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=b.env, cwd=ROOT, check=True,
                                 capture_output=True, text=True, timeout=CLI_TIMEOUT).stdout)
            for _ in range(5)),
    }
    out = {}
    for name in names:
        if name in extras:
            out[name] = extras[name]
        elif name == "cli.main.s":
            out[name] = median([median(r.main_s) for r in rounds])
        elif name == "cli.cache_bytes":
            out[name] = median([r.cache_bytes for r in rounds])
        else:
            out[name] = median([tracing.layer_value(name, s) for s in stats])
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    work = HERE / "_run" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        b = Bench(args.seed, bool(args.trace), work)
        workload = WORKLOADS[args.workload]()
        workload.setup(b)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        if hasattr(workload, "prepare"):
            workload.prepare(b)
        if b.tracer:
            tracing.install(b.tracer)
        start = clock()
        rounds, stats = [], []
        while True:
            b.begin_round()
            t0 = clock()
            workload.round(b)
            wall = clock() - t0
            b.end_round()
            rounds.append(b.r)
            if b.tracer:
                merged = {k: list(v) for k, v in b.tracer.stats.items()}
                tracing.merge(merged, b.r.child_stats)
                stats.append(merged)
            if clock() - start + wall > args.seconds:
                break
        problems = [p for r in rounds for p in r.problems]
        for p in problems[:20]:
            print(f"check failed: {p}", file=sys.stderr)
        e2e = end_to_end(args.workload, rounds)
        print(f"{args.workload}: {len(rounds)} rounds, total_s {e2e['total_s']:.4f}"
              f" ({'traced' if b.tracer else 'untraced'})", file=sys.stderr)
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        if b.tracer:
            metrics = per_layer(b, [m["name"] for m in bench["per_layer"]], rounds, stats)
            traces = HERE / "_run" / "traces"
            traces.mkdir(exist_ok=True)
            b.tracer.dump(traces / f"{args.workload}-seed{args.seed}.json")
        else:
            metrics = e2e
        print(json.dumps({
            "correct": not problems,
            "attempted": sum(r.attempted for r in rounds),
            "failed": sum(r.failed for r in rounds),
            "rounds": len(rounds),
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

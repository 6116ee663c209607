"""Per-layer tracing: wrappers around asmtree's public functions.

`install` puts each wrapper into every namespace the function is looked up
in (asmtree.assembly binds connected_mask and crossing_mask by name when it
is imported, the CLI reaches the closed forms through formula_for). Hot
leaf functions are aggregated to a call count and a total time; the counting
and I/O functions also keep one span each, in memory, until `dump`.

Every statistic is a list [calls, seconds, extra, tally]: `extra` is the self
time of a span (its time minus that of the traced calls it made) or the
time to the first item of a generator, `tally` the number of true results
of a predicate or of items a generator yielded.
"""

from __future__ import annotations

import json
import time

clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.spans: list[tuple[str, float, float, int]] = []
        # Time spent in traced calls made from the frame on top of the stack.
        self._child = [0.0]

    def reset(self) -> None:
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0, 0]
        self.spans.clear()
        del self._child[1:]
        self._child[0] = 0.0

    def stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0])

    def leaf(self, name: str, fn, truth: bool = False):
        """Aggregate only: calls, time and, for a predicate, true results."""
        stat, child = self.stat(name), self._child

        def traced(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - t0
            stat[0] += 1
            stat[1] += elapsed
            if truth and result:
                stat[3] += 1
            child[-1] += elapsed
            return result

        return traced

    def span(self, name: str, fn):
        """One span per call, with the call's self time."""
        stat, child, spans = self.stat(name), self._child, self.spans

        def traced(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                inner = child.pop()
                stat[0] += 1
                stat[1] += t1 - t0
                stat[2] += t1 - t0 - inner
                child[-1] += t1 - t0
                spans.append((name, t0, t1, len(child)))

        return traced

    def generator(self, name: str, fn):
        """Time spent inside the generator, the part before its first item,
        and the number of items."""
        stat, child = self.stat(name), self._child

        def traced(*args, **kwargs):
            stat[0] += 1
            inner = fn(*args, **kwargs)
            first = True
            while True:
                child.append(0.0)
                t0 = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    elapsed = clock() - t0
                    child.pop()
                    child[-1] += elapsed
                    stat[1] += elapsed
                    if first:
                        stat[2] += elapsed
                        first = False
                stat[3] += 1
                yield item

        return traced

    def layer_entry(self, layer: str, name: str, fn, guard: list):
        """Counts a call only when it enters the layer from outside, so the
        memoised recursions inside the layer are not counted twice."""
        stat, total, child = self.stat(name), self.stat(layer), self._child

        def traced(*args, **kwargs):
            if guard[0]:
                return fn(*args, **kwargs)
            guard[0] = 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                guard[0] = 0
                for s in (stat, total):
                    s[0] += 1
                    s[1] += elapsed
                child[-1] += elapsed

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"stats": self.stats, "spans": self.spans}, fh)


def install(tracer: Tracer, with_cli: bool = False) -> None:
    import asmtree
    from asmtree import assembly, formulas, graph, series

    def put(name, wrapper, *modules):
        for module in modules:
            setattr(module, name, wrapper)

    for name in ("connected_mask", "crossing_mask"):
        put(name, tracer.leaf(f"graph.{name}", getattr(graph, name), truth=True), graph, assembly)
    for name in ("count_trees", "count_timed_trees", "count_level_assignments",
                 "serialize_tree", "parse_tree", "validate"):
        put(name, tracer.span(f"assembly.{name}", getattr(assembly, name)), assembly, asmtree)
    for name in ("enumerate_trees", "enumerate_timed_trees"):
        put(name, tracer.generator(f"assembly.{name}", getattr(assembly, name)), assembly, asmtree)

    guard = [0]
    wrapped = {}
    for name, fn in list(vars(formulas).items()):
        if (callable(fn) and not isinstance(fn, type) and not name.startswith("_")
                and getattr(fn, "__module__", None) == formulas.__name__ and name != "formula_for"):
            wrapped[fn] = tracer.layer_entry("formulas", f"formulas.{name}", fn, guard)
            put(name, wrapped[fn], formulas)
    formula_for = formulas.formula_for

    def traced_formula_for(*args, **kwargs):
        entry = formula_for(*args, **kwargs)
        return entry if entry is None else entry._replace(fn=wrapped.get(entry.fn, entry.fn))

    formulas.formula_for = traced_formula_for

    mul = tracer.leaf("series.PowerSeries.mul", series.PowerSeries.__mul__)
    series.PowerSeries.__mul__ = series.PowerSeries.__rmul__ = mul
    for name in ("reciprocal", "exp", "sqrt", "compose"):
        setattr(series.PowerSeries, name,
                tracer.leaf(f"series.PowerSeries.{name}", getattr(series.PowerSeries, name)))
    put("check_td_path_functional_eq",
        tracer.leaf("series.check_td_path_functional_eq", series.check_td_path_functional_eq),
        series, asmtree)

    if with_cli:
        from asmtree import cli

        cli.main = tracer.span("cli.main", cli.main)


def merge(into: dict[str, list], stats: dict[str, list]) -> None:
    for name, stat in stats.items():
        target = into.setdefault(name, [0, 0.0, 0.0, 0])
        for i in range(4):
            target[i] += stat[i]


_FIELDS = {"calls": 0, "s": 1, "self_s": 2, "first_s": 2, "trees": 3}


def layer_value(metric: str, stats: dict[str, list]) -> float:
    """The per-layer metric named `<stat>.<field>` from merged statistics."""
    name, field = metric.rsplit(".", 1)
    stat = stats.get(name, [0, 0.0, 0.0, 0])
    if field == "true_ratio":
        return stat[3] / stat[0] if stat[0] else 0.0
    return stat[_FIELDS[field]]

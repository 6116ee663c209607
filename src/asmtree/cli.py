"""Command line interface.

    asmtree count  --family path --rule connected --n 6 --method both
    asmtree table  --family star --rule connected --n-min 2 --n-max 8 --format csv
    asmtree trees  --family complete --n 3 --rule edge --format dot
    asmtree series --which fubini-egf --order 12
    asmtree oeis   --bfile b000670.txt --family star --rule connected --offset 1

Counts print as plain decimal. "--method formula" evaluates the closed
form; "--method enumerate" runs the memoised counter (count_trees, or
count_timed_trees with --timed), which lists no trees; "--method both"
cross-checks the two and exits 1 if they disagree, printing both. The
default is the formula when one exists.
Identical invocations produce byte-identical stdout once the version
banner is suppressed with --no-banner.

Environment: ASMTREE_CACHE_DIR relocates the count cache (default
~/.cache/asmtree); ASMTREE_OEIS_BASE_URL enables fetching b-files that are
not present locally, storing them beside the cache.

Exit codes: 0 success, 1 verification mismatch, 2 invalid request. A
reader that closes stdout early, as `asmtree trees ... | head` does, ends
the run quietly with exit 0; any other failed write is an error (exit 2).

Each request imports the modules it runs inside the function that runs
them, so that a cache hit or a closed form starts without the counters,
the series and the graph builders; they are looked up as module
attributes at call time.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable

from . import __version__, formulas
from .combinat import factorial

if TYPE_CHECKING:
    from .graph import Graph
    from .series import PowerSeries

# The families sized by --n, each built by the `graph` function of its
# name, and their smallest n.
_SEQUENCES = {"star": 2, "path": 1, "cycle": 3, "complete": 1}
# The name of the `series` builder, first k checked, whether coefficient k
# is scaled by k! (an EGF), and the name of the `formulas` function it
# must reproduce; both functions are looked up when the request runs.
_SERIES = {
    "fubini-egf": ("egf_fubini", 1, True, "fubini"),
    "super-catalan-ogf": ("ogf_super_catalan", 1, False, "super_catalan"),
    "cycle-ogf": ("ogf_connected_cycle", 3, False, "connected_cycle"),
    "td-cycle-egf": ("egf_td_cycle", 1, True, "td_connected_cycle"),
}
SEQUENCE_FAMILIES = tuple(_SEQUENCES)
FAMILIES = SEQUENCE_FAMILIES + ("caterpillar", "custom")
RULES = ("none", "connected", "edge")  # the values of assembly.GluingRule
SERIES_SELECTORS = (*_SERIES, "td-path-funceq")
CACHE_FILE = "counts.txt"
# The largest n a closed form is evaluated at. The forms memoise every
# smaller value; at n = 1000 each takes at most about 17 s and 15 MiB, but
# for td_connected_complete, whose Stirling rows grow as n**3: 212 MiB at
# n = 1000, 406 MiB at n = 1250.
FORMULA_LIMIT = 1000


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--no-banner", action="store_true", help="suppress the version banner"
    )
    common.add_argument(
        "--no-cache", action="store_true", help="bypass the on-disk count cache"
    )

    parser = argparse.ArgumentParser(
        prog="asmtree",
        description="count, enumerate and verify assembly trees of graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser(
        "count", parents=[common], help="count assembly trees of one graph"
    )
    count.set_defaults(handler=_cmd_count)
    _add_graph_args(count)
    count.add_argument(
        "--method",
        choices=("formula", "enumerate", "both"),
        help="closed form, memoised counter (lists no trees), or both cross-checked "
        "(default: formula when one exists)",
    )

    table = sub.add_parser(
        "table", parents=[common], help="tabulate counts over a range of n"
    )
    table.set_defaults(handler=_cmd_table)
    table.add_argument("--family", choices=SEQUENCE_FAMILIES, required=True)
    table.add_argument("--rule", choices=RULES, required=True)
    table.add_argument("--timed", action="store_true")
    table.add_argument("--n-min", type=int, required=True)
    table.add_argument("--n-max", type=int, required=True)
    table.add_argument(
        "--format", choices=("csv", "json", "markdown"), default="csv"
    )

    trees = sub.add_parser(
        "trees", parents=[common], help="stream every assembly tree of one graph"
    )
    trees.set_defaults(handler=_cmd_trees)
    _add_graph_args(trees)
    trees.add_argument("--format", choices=("json", "dot"), default="json")

    ser = sub.add_parser(
        "series", parents=[common], help="print generating-function coefficients"
    )
    ser.set_defaults(handler=_cmd_series)
    ser.add_argument("--which", choices=SERIES_SELECTORS, required=True)
    ser.add_argument("--order", type=int, required=True)

    oeis = sub.add_parser(
        "oeis", parents=[common], help="compare a formula against an OEIS b-file"
    )
    oeis.set_defaults(handler=_cmd_oeis)
    oeis.add_argument("--bfile", required=True, help="path (or fetchable name) of the b-file")
    oeis.add_argument("--family", choices=SEQUENCE_FAMILIES, required=True)
    oeis.add_argument("--rule", choices=RULES, required=True)
    oeis.add_argument("--timed", action="store_true")
    oeis.add_argument(
        "--offset",
        type=int,
        default=0,
        help="generator argument = b-file index + offset (default 0)",
    )
    oeis.add_argument("--n-max", type=int, help="ignore terms beyond this n")

    return parser


def _add_graph_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", choices=FAMILIES, required=True)
    sub.add_argument("--rule", choices=RULES, required=True)
    sub.add_argument("--timed", action="store_true", help="count/enumerate timed trees")
    sub.add_argument("--n", type=int, help="number of vertices (star/path/cycle/complete)")
    sub.add_argument(
        "--legs",
        help="comma-separated pendant counts per spine vertex (family caterpillar)",
    )
    sub.add_argument("--graph-file", help="graph JSON file (family custom)")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Timed K_n counts pass 4300 digits, the default cap on int <-> str
    # conversion from Python 3.11 on, from n = 882 (below FORMULA_LIMIT);
    # every count is printed in full.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        if not args.no_banner:
            print(f"asmtree {__version__}")
        code = args.handler(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader has all it wants, as with `| head`. Later writes,
        # including the flush at exit, go to devnull.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


def _read_graph(args: argparse.Namespace) -> tuple[Callable[[], str], Callable[[], Graph]]:
    """Read --n, --legs or --graph-file once, refusing what cannot be read
    and an n below the family's domain. Returns two functions: the graph's
    part of the cache key, and a builder of the graph. A custom graph is
    read here, so that `count` refuses a bad file before the cache is read;
    its digest (hashlib loads OpenSSL, which `trees` does not need), every
    other graph and the `graph` module wait until called."""
    family = args.family
    if family == "custom":
        if not args.graph_file:
            raise ValueError("--graph-file is required for family custom")
        from . import graph

        g = graph.graph_from_json(Path(args.graph_file).read_text())

        def key() -> str:
            import hashlib

            digest = hashlib.sha256(graph.graph_to_json(g).encode()).hexdigest()
            return f"graph={digest[:16]}"

        return key, lambda: g
    if family == "caterpillar":
        if not args.legs:
            raise ValueError("--legs is required for family caterpillar")
        try:
            legs = [int(tok) for tok in args.legs.split(",")]
        except ValueError:
            raise ValueError(
                f"--legs must be comma-separated integers, got {args.legs!r}"
            ) from None
        # The key names the parsed legs, so every spelling of them is one entry.
        part, build_args = "legs=" + ",".join(map(str, legs)), (len(legs), legs)
    else:
        if args.n is None:
            raise ValueError(f"--n is required for family {family}")
        min_n = _SEQUENCES[family]
        if args.n < min_n:
            vertices = "1 vertex" if min_n == 1 else f"{min_n} vertices"
            raise ValueError(f"family {family} needs at least {vertices}, got --n {args.n}")
        part, build_args = f"n={args.n}", (args.n,)

    def build() -> Graph:
        from . import graph

        return getattr(graph, family)(*build_args)

    return lambda: part, build


def _oracle_count(g: Graph, rule: str, timed: bool) -> int:
    from . import assembly

    if timed:
        return assembly.count_timed_trees(g, rule)
    return assembly.count_trees(g, rule)


def _cache_dir() -> Path:
    override = os.environ.get("ASMTREE_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "asmtree"


def _load_cache() -> dict[str, str]:
    try:
        # A byte that is not UTF-8 damages its line only, not the load.
        text = (_cache_dir() / CACHE_FILE).read_text(errors="replace")
    except OSError:
        return {}
    entries = {}
    # Text after the last newline is a store cut short and is never served;
    # a key stored twice keeps its last value.
    for line in text.split("\n")[:-1]:
        key, tab, value = line.partition("\t")
        # A count is a decimal integer; any other line is damage and is skipped.
        if tab and value.isascii() and value.isdigit():
            entries[key] = value
    return entries


def _store_cache(key: str, value: str) -> None:
    import fcntl

    directory = _cache_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / CACHE_FILE
    line = f"{key}\t{value}\n".encode()
    # A store is one line in one unbuffered write to a file opened with
    # O_APPEND. On Linux each such write to a local file lands whole at the
    # end, so concurrent writers lose no entry and never interleave within a
    # line. Counts reach about 5,000 digits, so a line stays a few KiB.
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        # A store cut short leaves a last line with no newline; start a new
        # line, or this one would join it and be skipped with it. Writers
        # take turns under the lock, so the last byte read is the last one
        # written: without it, a writer could read the size of another's
        # line before the line itself, and start a stray empty line.
        fcntl.flock(fd, fcntl.LOCK_EX)
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            line = b"\n" + line
        written = os.write(fd, line)
    finally:
        os.close(fd)
    if written != len(line):
        raise OSError(f"short write to {path}: {written} of {len(line)} bytes")


def _no_closed_form(args: argparse.Namespace, hint: str = "") -> ValueError:
    return ValueError(
        f"no closed form is known for family={args.family} rule={args.rule} "
        f"timed={str(args.timed).lower()}{hint}"
    )


def _check_formula_n(n: int) -> None:
    # Each command checks the largest n it evaluates, before any form runs.
    if n > FORMULA_LIMIT:
        raise ValueError(f"closed forms are evaluated up to n = {FORMULA_LIMIT}, got {n}")


def _cmd_count(args: argparse.Namespace) -> int:
    entry = formulas.formula_for(args.family, args.rule, args.timed)
    method = args.method or ("enumerate" if entry is None else "formula")
    if method != "enumerate" and entry is None:
        raise _no_closed_form(args, "; use --method enumerate")
    # Every method refuses graph arguments it cannot read, and an n below
    # the family's domain, before a closed form runs or the cache is read.
    graph_key, build = _read_graph(args)
    # The version is in the key, so a new version reads no older entry.
    key = (
        f"count version={__version__} family={args.family} rule={args.rule} "
        f"timed={int(args.timed)} method={method} {graph_key()}"
    )
    if not args.no_cache:
        cached = _load_cache().get(key)
        if cached is not None:
            print(cached)
            return 0

    formula_value = oracle_value = None
    if method in ("formula", "both"):
        # A closed form serves a sequence family, whose n was checked above.
        _check_formula_n(args.n)
        formula_value = entry.fn(args.n)
    if method in ("enumerate", "both"):
        oracle_value = _oracle_count(build(), args.rule, args.timed)

    if method == "both" and formula_value != oracle_value:
        print(f"formula={formula_value}")
        print(f"oracle={oracle_value}")
        print("error: formula and counter disagree", file=sys.stderr)
        return 1

    value = str(formula_value if formula_value is not None else oracle_value)
    print(value)
    if not args.no_cache:
        try:
            _store_cache(key, value)
        except OSError as exc:
            print(f"warning: count not cached: {exc}", file=sys.stderr)
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    if args.n_min > args.n_max:
        raise ValueError(f"--n-min {args.n_min} exceeds --n-max {args.n_max}")
    if args.n_min < 1:
        raise ValueError("--n-min must be at least 1")
    # Capped with or without a closed form: even a blank row costs memory.
    if args.n_max > FORMULA_LIMIT:
        raise ValueError(f"--n-max must be at most {FORMULA_LIMIT}, got {args.n_max}")
    entry = formulas.formula_for(args.family, args.rule, args.timed)
    from . import assembly, graph

    build, min_n = getattr(graph, args.family), _SEQUENCES[args.family]
    columns = ("n", "formula", "oracle", "agree")
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        # Counts travel as decimal strings, in JSON too; a silent route is
        # None, as is every route below the family's domain, where `count`
        # refuses n.
        formula = oracle = agree = None
        if entry is not None and n >= min_n:
            formula = str(entry.fn(n))
        if min_n <= n <= assembly.ENUMERATION_LIMIT:
            oracle = str(_oracle_count(build(n), args.rule, args.timed))
        if formula is not None and oracle is not None:
            agree = formula == oracle
        rows.append((n, formula, oracle, agree))

    if args.format == "json":
        import json

        payload = {
            "family": args.family,
            "rule": args.rule,
            "timed": args.timed,
            "rows": [dict(zip(columns, row)) for row in rows],
        }
        print(json.dumps(payload, indent=2))
        return 0
    lines = [columns, *rows]
    if args.format == "markdown":
        # Markdown is csv with a separator row and "| ... |" framing.
        lines.insert(1, ("---",) * len(columns))
        join, frame = " | ", "| {} |"
    else:
        join, frame = ",", "{}"
    for row in lines:
        # Counts are digits, so lowering spells only the booleans as JSON does.
        print(frame.format(join.join("" if v is None else str(v).lower() for v in row)))
    return 0


def _cmd_trees(args: argparse.Namespace) -> int:
    from . import assembly

    _, build = _read_graph(args)
    if args.timed:
        stream: Iterable = assembly.enumerate_timed_trees(build(), args.rule)
    else:
        stream = assembly.enumerate_trees(build(), args.rule)
    for t in stream:
        print(assembly.serialize_tree(t, args.format))
    return 0


def _series_checks(which: str, ps: PowerSeries, order: int) -> list[str]:
    """Compare coefficients against the formula route; return mismatch
    descriptions (empty when everything agrees)."""
    _, first, egf, name = _SERIES[which]
    formula = getattr(formulas, name)
    problems = []
    for k in range(first, order + 1):
        got = ps.coefficient(k) * (factorial(k) if egf else 1)
        expected = formula(k)
        if got != expected:
            problems.append(f"k={k}: series gives {got}, formula gives {expected}")
    return problems


def _cmd_series(args: argparse.Namespace) -> int:
    # Every selector evaluates a closed form at each k up to the order.
    if args.order > FORMULA_LIMIT:
        raise ValueError(f"series are evaluated up to order {FORMULA_LIMIT}, got {args.order}")
    from . import series

    if args.which == "td-path-funceq":
        verdict = series.check_td_path_functional_eq(args.order)
        if verdict.ok:
            print("PASS")
            return 0
        print(f"FAIL at k={verdict.first_mismatch}")
        return 1
    ps = getattr(series, _SERIES[args.which][0])(args.order)
    print(series.dump_coefficients(ps))
    problems = _series_checks(args.which, ps, args.order)
    if problems:
        for line in problems:
            print(f"error: {line}", file=sys.stderr)
        return 1
    return 0


def _read_bfile(path: str) -> list[tuple[int, int]]:
    entries = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if len(tokens) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'index value', got {line!r}")
            try:
                entries.append((int(tokens[0]), int(tokens[1])))
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: non-integer entry {line!r}"
                ) from None
    if not entries:
        raise ValueError(f"{path}: no data lines found")
    return entries


def _resolve_bfile(arg: str) -> str:
    if os.path.exists(arg):
        return arg
    base = os.environ.get("ASMTREE_OEIS_BASE_URL")
    if not base:
        raise ValueError(
            f"b-file {arg!r} not found (set ASMTREE_OEIS_BASE_URL to enable fetching)"
        )
    name = os.path.basename(arg)
    directory = _cache_dir()
    directory.mkdir(parents=True, exist_ok=True)
    target = directory / name
    if not target.exists():
        import urllib.request  # only here: it is a large share of the start-up time

        url = base.rstrip("/") + "/" + name
        with urllib.request.urlopen(url) as resp:
            target.write_bytes(resp.read())
    return str(target)


def _cmd_oeis(args: argparse.Namespace) -> int:
    entry = formulas.formula_for(args.family, args.rule, args.timed)
    if entry is None:
        raise _no_closed_form(args)
    terms = [
        (index, expected)
        for index, expected in sorted(_read_bfile(_resolve_bfile(args.bfile)))
        if _SEQUENCES[args.family] <= index + args.offset
        and (args.n_max is None or index + args.offset <= args.n_max)
    ]
    if not terms:
        raise ValueError("no overlapping terms between the b-file and the family's domain")
    _check_formula_n(terms[-1][0] + args.offset)
    for index, expected in terms:
        got = entry.fn(index + args.offset)
        ok = got == expected
        print(f"{index}\t{expected}\t{got}\t{'ok' if ok else 'MISMATCH'}")
        if not ok:
            print(f"FAIL at index {index}")
            return 1
    print(f"PASS ({len(terms)} terms)")
    return 0


if __name__ == "__main__":
    run()

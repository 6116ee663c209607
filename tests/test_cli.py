import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from asmtree import cli, formulas
from asmtree.assembly import branch, leaf, parse_tree
from asmtree.formulas import SequenceFormula
from asmtree.graph import cycle, graph_to_json

DATA = Path(__file__).parent / "data"


@pytest.fixture(autouse=True)
def isolated_env(monkeypatch, tmp_path):
    """Keep every test away from the real cache and the network."""
    monkeypatch.setenv("ASMTREE_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("ASMTREE_OEIS_BASE_URL", raising=False)
    return tmp_path


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- plumbing


def test_banner(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--family", "star", "--rule", "connected", "--n", "5"
    )
    assert code == 0
    assert out.splitlines() == ["asmtree 0.1.0", "75"]

    code, out, _ = run_cli(
        capsys,
        "count", "--family", "star", "--rule", "connected", "--n", "5",
        "--no-banner",
    )
    assert code == 0
    assert out == "75\n"


def test_bad_arguments_exit_via_argparse(capsys):
    for argv in (
        [],
        ["count"],
        ["count", "--family", "blob", "--rule", "connected", "--n", "3"],
        ["count", "--family", "path", "--rule", "sideways", "--n", "3"],
        ["series", "--which", "nope", "--order", "5"],
        ["table", "--family", "path", "--rule", "connected", "--n-min", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


def test_run_wraps_main_in_sys_exit(capsys, monkeypatch):
    monkeypatch.setattr(
        sys,
        "argv",
        ["asmtree", "count", "--family", "path", "--rule", "connected",
         "--n", "3", "--no-banner", "--no-cache"],
    )
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == 0
    assert capsys.readouterr().out == "3\n"


# -------------------------------------------------------------------- count


def test_count_examples(capsys):
    cases = [
        (["--family", "star", "--rule", "connected", "--n", "5"], "75"),
        (["--family", "complete", "--rule", "connected", "--n", "3",
          "--method", "both"], "4"),
        (["--family", "path", "--rule", "edge", "--timed", "--n", "4",
          "--method", "both"], "7"),
        (["--family", "path", "--rule", "edge", "--n", "4"], "5"),
        (["--family", "star", "--rule", "none", "--n", "4",
          "--method", "enumerate"], "26"),
        (["--family", "cycle", "--rule", "connected", "--timed", "--n", "5",
          "--method", "both"], "166"),
    ]
    for argv, expected in cases:
        code, out, err = run_cli(capsys, "count", *argv, "--no-banner", "--no-cache")
        assert (code, err) == (0, "")
        assert out == expected + "\n"


def test_count_caterpillar_and_custom(capsys, tmp_path):
    # two spine vertices with one pendant each: a relabeled 4-path
    code, out, _ = run_cli(
        capsys,
        "count", "--family", "caterpillar", "--legs", "1,1",
        "--rule", "connected", "--method", "enumerate", "--no-banner",
    )
    assert (code, out) == (0, "11\n")

    gf = tmp_path / "triangle.json"
    gf.write_text(graph_to_json(cycle(3)))
    code, out, _ = run_cli(
        capsys,
        "count", "--family", "custom", "--graph-file", str(gf),
        "--rule", "connected", "--method", "enumerate", "--no-banner",
    )
    assert (code, out) == (0, "4\n")


@pytest.mark.parametrize(
    "family, rule, timed",
    [
        ("path", "connected", ()),
        ("path", "edge", ("--timed",)),
        ("star", "connected", ()),
        ("complete", "connected", ("--timed",)),
        ("complete", "connected", ()),
    ],
)
def test_count_formulas_at_large_n(capsys, family, rule, timed):
    code, out, err = run_cli(
        capsys,
        "count", "--family", family, "--rule", rule, *timed, "--n", "600",
        "--no-banner", "--no-cache",
    )
    assert (code, err) == (0, "")
    assert out.strip().isdigit()


def test_closed_forms_stop_at_the_formula_limit(capsys, monkeypatch, tmp_path):
    evaluated = []
    real = formulas.formula_for

    def watched(family, rule, timed):
        entry = real(family, rule, timed)
        if entry is None:
            return None

        def fn(n):
            evaluated.append(n)
            return entry.fn(n)

        return SequenceFormula(fn)

    monkeypatch.setattr(cli.formulas, "formula_for", watched)
    bfile = tmp_path / "b.txt"
    bfile.write_text("1 1\n1001 1\n")
    for argv in (
        ["count", "--family", "star", "--rule", "connected", "--n", "1001"],
        ["count", "--family", "complete", "--rule", "connected", "--timed",
         "--n", "1001", "--method", "both"],
        ["table", "--family", "path", "--rule", "connected",
         "--n-min", "1", "--n-max", "1001"],
        ["oeis", "--bfile", str(bfile), "--family", "star", "--rule", "connected"],
    ):
        code, out, err = run_cli(capsys, *argv, "--no-banner", "--no-cache")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert evaluated == []  # refused before any closed form ran


def test_counts_print_in_full_past_the_int_string_cap(capsys, monkeypatch, tmp_path):
    # timed K_n passes 4300 digits from n = 882, below FORMULA_LIMIT
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    huge = "1" + "0" * 4999 + "1"  # 10**5000 + 1, written without str(int)
    monkeypatch.setattr(
        cli.formulas, "formula_for", lambda *_: SequenceFormula(lambda n: 10**5000 + 1)
    )
    bfile = tmp_path / "b.txt"
    bfile.write_text(f"3 {huge}\n")
    for argv, last in (
        (["count", "--family", "complete", "--rule", "connected", "--n", "3"], huge),
        (["count", "--family", "complete", "--rule", "connected", "--n", "3"], huge),
        (["table", "--family", "complete", "--rule", "connected",
          "--n-min", "3", "--n-max", "3"], f"3,{huge},4,false"),
        (["oeis", "--bfile", str(bfile), "--family", "complete",
          "--rule", "connected"], "PASS (1 terms)"),
    ):
        code, out, err = run_cli(capsys, *argv, "--no-banner")
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == last


def test_count_cliques_and_none_at_the_counting_cap(capsys):
    # No closed form answers these; count_trees counts K_n by its size.
    cases = [
        (["--family", "complete", "--rule", "edge"], math.prod(range(1, 30, 2))),  # 29!!
        (["--family", "star", "--rule", "none"], formulas.connected_complete(16)),
    ]
    for argv, expected in cases:
        code, out, err = run_cli(capsys, "count", *argv, "--n", "16", "--no-banner", "--no-cache")
        assert (code, err) == (0, "")
        assert out == f"{expected}\n"


def test_count_rejects_unanswerable_requests(capsys):
    # Each request with a word its one-line reason must name.
    bad = [
        # no closed form for plain edge counts
        (["count", "--family", "path", "--rule", "edge", "--n", "4",
          "--method", "formula"], "closed form"),
        (["count", "--family", "caterpillar", "--legs", "1,1",
          "--rule", "connected", "--method", "both"], "closed form"),
        (["count", "--family", "custom", "--rule", "connected"], "--graph-file"),
        (["count", "--family", "caterpillar", "--rule", "connected"], "--legs"),
        (["count", "--family", "caterpillar", "--legs", "1,x",
          "--rule", "connected"], "--legs"),
        (["count", "--family", "path", "--rule", "connected"], "--n"),
        # refused by cli._read_graph, since no closed form is consulted
        (["count", "--family", "star", "--rule", "connected",
          "--method", "enumerate"], "--n"),
        (["count", "--family", "star", "--rule", "connected", "--n", "1"], "2 vertices"),
        # trees refuses an n below the domain in count's words
        (["trees", "--family", "cycle", "--rule", "connected", "--n", "2"],
         "family cycle needs at least 3 vertices, got --n 2"),
        (["count", "--family", "custom", "--graph-file", "/no/such/file.json",
          "--rule", "connected"], "/no/such/file.json"),
    ]
    for argv, word in bad:
        code, out, err = run_cli(capsys, *argv, "--no-banner", "--no-cache")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and word in err
        assert len(err.splitlines()) == 1


def test_refused_counts_leave_the_cache_alone(capsys, isolated_env):
    # with the cache on, a refusal after the cache lookup stores nothing
    for extra in ([], ["--n", "1001"]):
        code, out, err = run_cli(
            capsys,
            "count", "--family", "path", "--rule", "connected", *extra, "--no-banner",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert not (isolated_env / "cache" / "counts.txt").exists()


def test_count_refuses_n_below_the_family_domain(capsys, monkeypatch, isolated_env):
    # Every method refuses as enumeration does, before a closed form runs
    # (the timed cycle form is defined from n = 1) and with nothing cached.
    evaluated = []
    real = formulas.formula_for

    def watched(family, rule, timed):
        entry = real(family, rule, timed)
        return entry and entry._replace(fn=lambda n: evaluated.append(n) or entry.fn(n))

    monkeypatch.setattr(cli.formulas, "formula_for", watched)
    requests = [
        (["--family", "cycle", "--rule", "connected", "--timed", "--n", n], "3 vertices")
        for n in ("1", "2")
    ] + [(["--family", "star", "--rule", "connected", "--n", "1"], "2 vertices")]
    for argv, word in requests:
        for method in ("formula", "both", "enumerate"):
            code, out, err = run_cli(capsys, "count", *argv, "--method", method, "--no-banner")
            assert (code, out) == (2, "")
            assert err.startswith("error:") and word in err
            assert len(err.splitlines()) == 1
    assert evaluated == []
    assert not (isolated_env / "cache" / "counts.txt").exists()


def test_count_says_1_vertex_in_the_singular(capsys):
    for family in ("path", "complete"):
        for rule in ("none", "connected", "edge"):
            for timed in ([], ["--timed"]):
                for method in ([], ["--method", "formula"], ["--method", "enumerate"],
                               ["--method", "both"]):
                    code, out, err = run_cli(
                        capsys,
                        "count", "--family", family, "--rule", rule, *timed, "--n", "0",
                        *method, "--no-banner", "--no-cache",
                    )
                    if err.startswith("error: no closed form"):
                        continue  # refused for its method first
                    assert (code, out) == (2, "")
                    assert err == f"error: family {family} needs at least 1 vertex, got --n 0\n"


def test_graph_files_nested_too_deeply_are_refused_in_one_line(capsys, tmp_path):
    for i, text in enumerate(("[" * 100000, '{"n": 3, "edges": ' + "[" * 100000)):
        gf = tmp_path / f"deep{i}.json"
        gf.write_text(text)
        for command in ("count", "trees"):
            code, out, err = run_cli(
                capsys,
                command, "--family", "custom", "--graph-file", str(gf),
                "--rule", "connected", "--no-banner", "--no-cache",
            )
            assert (code, out, err) == (2, "", "error: graph JSON nests too deeply\n")


def test_counts_are_cached_under_home_by_default(capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("ASMTREE_CACHE_DIR")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    code, out, _ = run_cli(
        capsys, "count", "--family", "path", "--rule", "connected", "--n", "4", "--no-banner"
    )
    assert (code, out) == (0, "11\n")
    stored = (tmp_path / "home" / ".cache" / "asmtree" / "counts.txt").read_text()
    assert stored.endswith("family=path rule=connected timed=0 method=formula n=4\t11\n")


def test_count_rejects_json_booleans_in_a_graph_file(capsys, tmp_path):
    for i, text in enumerate(
        ['{"n": true, "edges": []}', '{"n": 2, "edges": [[true, 2]]}']
    ):
        gf = tmp_path / f"bool{i}.json"
        gf.write_text(text)
        code, out, err = run_cli(
            capsys,
            "count", "--family", "custom", "--graph-file", str(gf),
            "--rule", "connected", "--no-banner", "--no-cache",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1


IMPORT_CLI = """
import sys
before = set(sys.modules)
import asmtree.cli
loaded = set(sys.modules) - before
foreign = sorted(
    m for m in loaded
    if m.split(".")[0] not in sys.stdlib_module_names and m.split(".")[0] != "asmtree"
)
print(foreign, "urllib.request" in sys.modules)
"""


def test_cli_imports_only_the_standard_library():
    # the package has no runtime dependencies, and the CLI loads the
    # network stack only when it fetches a b-file
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_CLI],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "[] False\n"


CACHE_HIT = """
import sys
import asmtree
bare = sorted(m for m in sys.modules if m.startswith("asmtree."))
from asmtree.cli import main
# a cache miss would run the counter and import asmtree.assembly
main("count --family path --rule connected --n 6 --method enumerate --no-banner".split())
heavy = ("asmtree.assembly", "asmtree.series", "asmtree.graph",
         "dataclasses", "fractions", "hashlib", "json")
print(bare, [m for m in heavy if m in sys.modules])
"""


def test_a_cache_hit_imports_only_what_it_runs(capsys):
    # a bare import loads no submodule, and a cached count loads neither
    # the counters, the series, the graph builders nor their imports
    argv = "count --family path --rule connected --n 6 --method enumerate --no-banner"
    assert run_cli(capsys, *argv.split()) == (0, "197\n", "")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", CACHE_HIT],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "197\n[] []\n"


COUNTER_ROUTE = """
import sys
from asmtree.cli import main
main("count --family path --rule connected --n 5 --method enumerate --no-cache --no-banner".split())
print([m for m in ("dataclasses", "inspect") if m in sys.modules])
"""


def test_the_counter_route_leaves_dataclasses_and_inspect_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", COUNTER_ROUTE],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "45\n[]\n"


def test_count_cross_check_catches_a_wrong_formula(capsys, monkeypatch):
    real = formulas.formula_for

    def sabotaged(family, rule, timed):
        if (family, rule, timed) == ("path", "connected", False):
            return SequenceFormula(lambda n: 999)
        return real(family, rule, timed)

    monkeypatch.setattr(cli.formulas, "formula_for", sabotaged)
    code, out, err = run_cli(
        capsys,
        "count", "--family", "path", "--rule", "connected", "--n", "5",
        "--method", "both", "--no-banner", "--no-cache",
    )
    assert code == 1
    assert out.splitlines() == ["formula=999", "oracle=45"]
    assert "disagree" in err


# -------------------------------------------------------------------- cache


def count_star(capsys, *extra):
    return run_cli(
        capsys,
        "count", "--family", "star", "--rule", "connected", "--n", "5",
        "--no-banner", *extra,
    )


STAR_KEY = "count version=0.1.0 family=star rule=connected timed=0 method=formula n=5"


def test_cache_file_layout(capsys, isolated_env):
    count_star(capsys)
    run_cli(
        capsys,
        "count", "--family", "path", "--rule", "connected", "--n", "4",
        "--no-banner",
    )
    cache = isolated_env / "cache" / "counts.txt"
    # one line per store, in store order, each key naming the version
    assert cache.read_text().splitlines() == [
        f"{STAR_KEY}\t75",
        "count version=0.1.0 family=path rule=connected timed=0 method=formula n=4\t11",
    ]
    assert [p.name for p in cache.parent.iterdir()] == ["counts.txt"]


def test_cache_is_read_back(capsys, isolated_env):
    count_star(capsys)
    cache = isolated_env / "cache" / "counts.txt"
    # plant a wrong value to prove later answers come from the file
    cache.write_text(cache.read_text().replace("\t75", "\t123456"))
    assert count_star(capsys)[1] == "123456\n"
    assert count_star(capsys, "--no-cache")[1] == "75\n"


def test_stale_cache_version_is_ignored(capsys, isolated_env):
    cache = isolated_env / "cache" / "counts.txt"
    cache.parent.mkdir()
    stale = STAR_KEY.replace("version=0.1.0", "version=0.0.9") + "\t123456"
    cache.write_text(stale + "\n")
    assert count_star(capsys)[1] == "75\n"
    assert cache.read_text().splitlines() == [stale, f"{STAR_KEY}\t75"]


def test_cache_skips_values_that_are_not_counts(capsys, isolated_env):
    cache = isolated_env / "cache" / "counts.txt"
    cache.parent.mkdir()
    cache.write_bytes(f"{STAR_KEY}\tnot-a-number\n{STAR_KEY}\t\xff7\n".encode("latin-1"))
    assert count_star(capsys) == (0, "75\n", "")
    assert cache.read_bytes().splitlines()[-1] == f"{STAR_KEY}\t75".encode()


def test_cache_serves_no_line_cut_short(capsys, isolated_env):
    # a store cut short leaves a last line with no newline, here a prefix
    # of the digits of 75
    cache = isolated_env / "cache" / "counts.txt"
    cache.parent.mkdir()
    cache.write_text(f"{STAR_KEY}\t7")
    assert count_star(capsys) == (0, "75\n", "")
    # the store after the cut line starts a line of its own
    assert cli._load_cache()[STAR_KEY] == "75"


def test_cache_keeps_the_last_value_stored(capsys, isolated_env):
    cache = isolated_env / "cache" / "counts.txt"
    cache.parent.mkdir()
    cache.write_text(f"{STAR_KEY}\t75\n{STAR_KEY}\t123456\n")
    assert count_star(capsys) == (0, "123456\n", "")


def test_failed_cache_store_is_only_a_warning(capsys, isolated_env):
    (isolated_env / "cache").write_text("a file where the cache directory should be")
    code, out, err = count_star(capsys)
    assert (code, out) == (0, "75\n")
    assert err.startswith("warning:") and err.count("\n") == 1


STORE_MANY = """
import sys
from asmtree import cli
for i in range(150):
    cli._store_cache(f"count writer={sys.argv[1]} n={i}", str(i))
"""


def start_writers(script, *argvs):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return [
        subprocess.Popen(
            [sys.executable, "-c", script, *argv],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for argv in argvs
    ]


def test_concurrent_cache_writers(isolated_env):
    for proc in start_writers(STORE_MANY, ["a"], ["b"]):
        out, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (0, "")
    lines = (isolated_env / "cache" / "counts.txt").read_text().splitlines()
    assert len(lines) > 1
    for line in lines:
        key, value = line.split("\t")
        assert key.startswith("count writer=") and int(value) >= 0
    assert [p.name for p in (isolated_env / "cache").iterdir()] == ["counts.txt"]


COUNT_MANY = """
import sys
from asmtree import cli
family, first = sys.argv[1], int(sys.argv[2])
for n in range(first, first + 200):
    cli.main(["count", "--family", family, "--rule", "connected", "--n", str(n), "--no-banner"])
"""


def test_concurrent_counts_lose_no_cache_entry(isolated_env):
    # Three processes each store 200 distinct counts in one cache at once;
    # every entry must survive, with its value.
    starts = {"path": 1, "star": 2, "cycle": 3}
    writers = start_writers(COUNT_MANY, *([f, str(n)] for f, n in starts.items()))
    expected = {}
    for (family, first), proc in zip(starts.items(), writers):
        out, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (0, "")
        fn = formulas.formula_for(family, "connected", False).fn
        values = [str(fn(n)) for n in range(first, first + 200)]
        assert out.splitlines() == values
        for n, value in zip(range(first, first + 200), values):
            key = f"count version=0.1.0 family={family} rule=connected timed=0 method=formula n={n}"
            expected[key] = value
    entries = cli._load_cache()
    assert len(entries) == 600
    assert entries == expected
    assert [p.name for p in (isolated_env / "cache").iterdir()] == ["counts.txt"]


def test_every_spelling_of_a_caterpillar_is_one_cache_entry(capsys, isolated_env):
    # The key names the parsed legs, so no spelling adds an entry, and none
    # carries a newline or tab into the file.
    for legs in ("1,1", " 1,1", "01,1", "1,1\n", "1,\t1"):
        code, out, err = run_cli(
            capsys, "count", "--family", "caterpillar", "--legs", legs,
            "--rule", "connected", "--no-banner",
        )
        assert (code, out, err) == (0, "11\n", "")
    assert list(cli._load_cache()) == [
        "count version=0.1.0 family=caterpillar rule=connected timed=0 "
        "method=enumerate legs=1,1"
    ]
    for line in (isolated_env / "cache" / "counts.txt").read_text().split("\n")[:-1]:
        key, value = line.split("\t")
        assert key and value.isascii() and value.isdigit()


def test_cache_is_transparent(capsys, isolated_env):
    first = count_star(capsys)
    warm = count_star(capsys)
    cold = count_star(capsys, "--no-cache")
    assert first == warm == cold
    shutil.rmtree(isolated_env / "cache")
    assert count_star(capsys) == first


# -------------------------------------------------------------------- table


def test_table_csv_paths(capsys):
    code, out, _ = run_cli(
        capsys,
        "table", "--family", "path", "--rule", "connected",
        "--n-min", "1", "--n-max", "6", "--no-banner",
    )
    assert code == 0
    assert out.splitlines() == [
        "n,formula,oracle,agree",
        "1,1,1,true",
        "2,1,1,true",
        "3,3,3,true",
        "4,11,11,true",
        "5,45,45,true",
        "6,197,197,true",
    ]


def test_table_csv_timed_complete(capsys):
    code, out, _ = run_cli(
        capsys,
        "table", "--family", "complete", "--rule", "edge", "--timed",
        "--n-min", "1", "--n-max", "5", "--no-banner",
    )
    assert code == 0
    assert out.splitlines()[1:] == [
        "1,1,1,true",
        "2,1,1,true",
        "3,3,3,true",
        "4,21,21,true",
        "5,255,255,true",
    ]


def test_table_blanks_where_a_route_is_silent(capsys):
    # the oracle column stops at the enumeration cap
    code, out, _ = run_cli(
        capsys,
        "table", "--family", "star", "--rule", "connected",
        "--n-min", "9", "--n-max", "11", "--no-banner",
    )
    assert code == 0
    assert out.splitlines()[1:] == [
        "9,545835,545835,true",
        "10,7087261,,",
        "11,102247563,,",
    ]

    # cycle graphs start at n=3: the timed recursion is defined from 1, but
    # rows below the family's domain stay blank, as `count` refuses them
    code, out, _ = run_cli(
        capsys,
        "table", "--family", "cycle", "--rule", "connected", "--timed",
        "--n-min", "1", "--n-max", "4", "--no-banner",
    )
    assert out.splitlines()[1:] == ["1,,,", "2,,,", "3,4,4,true", "4,23,23,true"]

    # no closed form under rule none: only the oracle column fills
    code, out, _ = run_cli(
        capsys,
        "table", "--family", "path", "--rule", "none",
        "--n-min", "4", "--n-max", "5", "--no-banner",
    )
    assert out.splitlines()[1:] == ["4,,26,", "5,,236,"]


def test_table_markdown(capsys):
    code, out, _ = run_cli(
        capsys,
        "table", "--family", "path", "--rule", "connected",
        "--n-min", "3", "--n-max", "4", "--format", "markdown", "--no-banner",
    )
    assert code == 0
    assert out.splitlines() == [
        "| n | formula | oracle | agree |",
        "| --- | --- | --- | --- |",
        "| 3 | 3 | 3 | true |",
        "| 4 | 11 | 11 | true |",
    ]

    # blank cells keep their framing: past the enumeration cap, and under
    # rule none, which has no closed form
    for argv, last in (
        (["--family", "star", "--rule", "connected", "--n-min", "9", "--n-max", "10"],
         "| 10 | 7087261 |  |  |"),
        (["--family", "path", "--rule", "none", "--n-min", "4", "--n-max", "5"],
         "| 5 |  | 236 |  |"),
    ):
        code, out, err = run_cli(
            capsys, "table", *argv, "--format", "markdown", "--no-banner"
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == "| --- | --- | --- | --- |"
        assert out.splitlines()[-1] == last


def test_table_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "table", "--family", "star", "--rule", "connected",
        "--n-min", "2", "--n-max", "10", "--format", "json", "--no-banner",
    )
    assert code == 0
    assert out.startswith('{\n  "family"')  # indent=2
    payload = json.loads(out)
    assert payload["family"] == "star"
    assert payload["rule"] == "connected"
    assert payload["timed"] is False
    rows = {row["n"]: row for row in payload["rows"]}
    assert rows[5]["formula"] == "75"  # counts travel as strings
    assert rows[5]["oracle"] == "75"
    assert rows[5]["agree"] is True
    assert rows[10]["oracle"] is None
    assert rows[10]["agree"] is None


def test_table_rejects_bad_ranges(capsys):
    for argv, word in (
        (["table", "--family", "path", "--rule", "connected",
          "--n-min", "0", "--n-max", "3"], "--n-min"),
        (["table", "--family", "path", "--rule", "connected",
          "--n-min", "5", "--n-max", "3"], "--n-min"),
        # no closed form, yet capped as a table with one is
        (["table", "--family", "star", "--rule", "edge",
          "--n-min", "1", "--n-max", "1001"], "--n-max"),
    ):
        code, out, err = run_cli(capsys, *argv, "--no-banner")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and word in err
        assert err.count("\n") == 1


# -------------------------------------------------------------------- trees


def test_trees_streams_triangle(capsys):
    code, out, _ = run_cli(
        capsys,
        "trees", "--family", "complete", "--n", "3", "--rule", "edge",
        "--no-banner",
    )
    assert code == 0
    lines = out.splitlines()
    assert [parse_tree(line) for line in lines] == [
        branch([leaf(1), branch([leaf(2), leaf(3)])]),
        branch([branch([leaf(1), leaf(2)]), leaf(3)]),
        branch([branch([leaf(1), leaf(3)]), leaf(2)]),
    ]


def test_trees_dot_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "trees", "--family", "complete", "--n", "3", "--rule", "edge",
        "--format", "dot", "--no-banner",
    )
    assert code == 0
    assert out.count("digraph assembly_tree {") == 3
    assert '"{2,3}"' in out


def test_trees_timed(capsys):
    code, out, _ = run_cli(
        capsys,
        "trees", "--family", "path", "--n", "2", "--rule", "connected",
        "--timed", "--no-banner",
    )
    assert code == 0
    assert out == (
        '{"label":[1,2],"time":1,"children":[{"label":[1],"time":0,'
        '"children":[]},{"label":[2],"time":0,"children":[]}]}\n'
    )


def test_trees_line_count_matches_count(capsys):
    code, out, _ = run_cli(
        capsys,
        "trees", "--family", "path", "--n", "5", "--rule", "none", "--no-banner",
    )
    assert code == 0
    assert len(out.splitlines()) == 236


def test_trees_stop_quietly_when_the_reader_closes_the_pipe():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    argv = "trees --family complete --n 9 --rule connected --no-banner".split()
    with subprocess.Popen(
        [sys.executable, "-c", "from asmtree.cli import run; run()", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            proc.wait(timeout=60)
        finally:
            proc.kill()
        err = proc.stderr.read()
    assert parse_tree(first).label == frozenset(range(1, 10))
    assert (proc.returncode, err) == (0, "")


@pytest.mark.parametrize("module", ["asmtree", "asmtree.cli"])
def test_runs_as_a_module(module):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    argv = "count --family star --rule connected --n 5 --no-banner --no-cache".split()
    done = subprocess.run(
        [sys.executable, "-m", module, *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "75\n", "")


def test_trees_respects_the_enumeration_cap(capsys):
    code, _, err = run_cli(
        capsys,
        "trees", "--family", "path", "--n", "10", "--rule", "connected",
        "--no-banner",
    )
    assert code == 2
    assert "cap" in err


# ------------------------------------------------------------------- series


def test_series_dump_fubini(capsys):
    code, out, err = run_cli(
        capsys, "series", "--which", "fubini-egf", "--order", "5", "--no-banner"
    )
    assert (code, err) == (0, "")
    assert out == "0\t1\n1\t1\n2\t3/2\n3\t13/6\n4\t25/8\n5\t541/120\n"


def test_series_dump_cycle(capsys):
    code, out, err = run_cli(
        capsys, "series", "--which", "cycle-ogf", "--order", "5", "--no-banner"
    )
    assert (code, err) == (0, "")
    assert out.splitlines() == ["0\t0", "1\t1", "2\t1", "3\t4", "4\t19", "5\t96"]


def test_series_all_builders_verify(capsys):
    for which in ("fubini-egf", "super-catalan-ogf", "cycle-ogf", "td-cycle-egf"):
        code, out, err = run_cli(
            capsys, "series", "--which", which, "--order", "12", "--no-banner"
        )
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 13


def test_series_funceq(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, "series", "--which", "td-path-funceq", "--order", "15", "--no-banner"
    )
    assert (code, out) == (0, "PASS\n")

    code, _, err = run_cli(
        capsys, "series", "--which", "td-path-funceq", "--order", "1", "--no-banner"
    )
    assert code == 2
    assert "order" in err

    real = formulas.td_edge_path
    monkeypatch.setattr(formulas, "td_edge_path", lambda n: real(n) + (n == 5))
    code, out, _ = run_cli(
        capsys, "series", "--which", "td-path-funceq", "--order", "10", "--no-banner"
    )
    assert (code, out) == (1, "FAIL at k=5\n")


def test_series_flags_formula_disagreement(capsys, monkeypatch):
    monkeypatch.setattr(cli.formulas, "fubini", lambda n: 999)
    code, out, err = run_cli(
        capsys, "series", "--which", "fubini-egf", "--order", "4", "--no-banner"
    )
    assert code == 1
    assert out  # the dump still prints before the verdict
    assert "k=1" in err and "formula gives 999" in err


def test_series_rejects_order_zero_for_builders(capsys):
    code, _, err = run_cli(
        capsys, "series", "--which", "fubini-egf", "--order", "0", "--no-banner"
    )
    assert code == 2
    assert err.startswith("error:")


# Exit code and sha256 of stdout at orders 1, 2, 12, 60 and 120, taken from
# the Fraction-based series before the integer representation replaced it.
SERIES_PINS = {
    "fubini-egf": [
        (1, 0, "f32229497275b9917d3a9e97d5da0e0ca30ec8e6761336f2006884d5bd5da756"),
        (2, 0, "a01e602d325f660faab3bcc076e4d07950dd52234be48a23d739fd687748609c"),
        (12, 0, "8243fdee95b962059d27112cd6974c08e2a9e6e6eeddbfb8ae844cd265abb030"),
        (60, 0, "141b6be1e855e50a2f72e2eb1e502af8f5091abfa86efd98d9b7a70ceee84bc1"),
        (120, 0, "1e7f2b269af5dbc920ce891b953212d698547ff4b04d83577e1614a4ad08fa80"),
    ],
    "super-catalan-ogf": [
        (1, 0, "949a856b6412af5f8ad5e089b01c2707ee1d8f55180bebdd53d49822ac10e053"),
        (2, 0, "71dc0c01dde0f2acb268270a199b48ed5eb6a472844e3ee2fb7007d5fc61a991"),
        (12, 0, "338ac9759ead4f95d5829f08b6a753bc4759277b2f7d71283571d774eae58d81"),
        (60, 0, "42337b77e310f64212e956436577fad6bc7ae1fe70c98c547be6f8f446e2662a"),
        (120, 0, "5ab47f0c3c8422e71d9b46dc2aa3a830cf792bd241afc8e622bf293e56896426"),
    ],
    "cycle-ogf": [
        (1, 0, "949a856b6412af5f8ad5e089b01c2707ee1d8f55180bebdd53d49822ac10e053"),
        (2, 0, "71dc0c01dde0f2acb268270a199b48ed5eb6a472844e3ee2fb7007d5fc61a991"),
        (12, 0, "07719d519142130b034ab2402193c7a2d3d75db938bd270bb8ab99c01a4384e8"),
        (60, 0, "fd99704ff3e9ce14c2d3e4aaaa9dd06749d86cd796979c4ae070a6ba7b409948"),
        (120, 0, "4a42fa3e31b5d747ad861dac6dea84b3c0143e16d39e285200bde827fcce617e"),
    ],
    "td-cycle-egf": [
        (1, 0, "949a856b6412af5f8ad5e089b01c2707ee1d8f55180bebdd53d49822ac10e053"),
        (2, 0, "c513e0e07c22ebf54af5afc3f1c26ad772455c7836592c0f4b07d870cc7bbc84"),
        (12, 0, "a1c5e4fb0cdfcd7ff5f234cdf6b7037df68859d43f571dd9a93e0d3e6d048fbb"),
        (60, 0, "4626d6354bd566779be2ad17300d2b80674f1faa3bfcfc75f43a6a17e3e6dd23"),
        (120, 0, "ab91618c5da37cde91b9cab1dc0b19c60047c393eb6dbe630104228d21076f66"),
    ],
    "td-path-funceq": [
        (1, 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        (2, 0, "c26de83abdc9496cd1301470918ec39ecca1cf389ef0ae1c6504da1800d1c431"),
        (12, 0, "c26de83abdc9496cd1301470918ec39ecca1cf389ef0ae1c6504da1800d1c431"),
        (60, 0, "c26de83abdc9496cd1301470918ec39ecca1cf389ef0ae1c6504da1800d1c431"),
        (120, 0, "c26de83abdc9496cd1301470918ec39ecca1cf389ef0ae1c6504da1800d1c431"),
    ],
}


@pytest.mark.parametrize("which", sorted(SERIES_PINS))
def test_series_output_is_pinned(capsys, which):
    for order, code, digest in SERIES_PINS[which]:
        argv = ["series", "--which", which, "--order", str(order), "--no-banner"]
        got, out, err = run_cli(capsys, *argv)
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest), order
        assert err.count("\n") == (code != 0)


def test_series_refuses_orders_past_the_formula_limit(capsys):
    for which in cli.SERIES_SELECTORS:
        argv = ["series", "--which", which, "--order", "1001", "--no-banner"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: series are evaluated up to order 1000, got 1001\n"


# --------------------------------------------------------------------- oeis


def oeis_args(bfile, family, rule, offset, *extra):
    return [
        "oeis", "--bfile", bfile, "--family", family, "--rule", rule,
        "--offset", str(offset), "--no-banner", *extra,
    ]


def test_oeis_fixtures_pass(capsys):
    cases = [
        ("b000670.txt", "star", "connected", 1, (), 12),
        ("b001003.txt", "path", "connected", 1, (), 15),
        ("b047781.txt", "cycle", "connected", 1, (), 14),
        ("b171792.txt", "path", "edge", 0, ("--timed",), 16),
    ]
    for name, family, rule, offset, extra, terms in cases:
        code, out, err = run_cli(
            capsys, *oeis_args(str(DATA / name), family, rule, offset, *extra)
        )
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[-1] == f"PASS ({terms} terms)"
        assert len(lines) == terms + 1
        assert all(line.endswith("\tok") for line in lines[:-1])


def test_oeis_wrong_offset_fails(capsys):
    code, out, _ = run_cli(
        capsys, *oeis_args(str(DATA / "b000670.txt"), "star", "connected", 2)
    )
    assert code == 1
    lines = out.splitlines()
    assert lines[0].endswith("\tok")  # both sequences start 1, 1
    assert "MISMATCH" in lines[1]
    assert lines[-1] == "FAIL at index 1"


def test_oeis_n_max_limits_the_comparison(capsys):
    code, out, _ = run_cli(
        capsys,
        *oeis_args(str(DATA / "b001003.txt"), "path", "connected", 1, "--n-max", "5"),
    )
    assert code == 0
    assert out.splitlines()[-1] == "PASS (5 terms)"


def test_oeis_compares_only_the_family_domain(capsys, tmp_path):
    # The timed cycle formulas run from n = 1, but a cycle needs 3
    # vertices: `count` refuses n = 1 and 2, so `oeis` skips them too.
    bfile = tmp_path / "b.txt"
    bfile.write_text("1 1\n2 1\n3 4\n4 23\n")
    code, out, err = run_cli(
        capsys, *oeis_args(str(bfile), "cycle", "connected", 0, "--timed")
    )
    assert (code, err) == (0, "")
    assert out.splitlines() == ["3\t4\t4\tok", "4\t23\t23\tok", "PASS (2 terms)"]


def test_oeis_error_cases(capsys, tmp_path):
    short = tmp_path / "short.txt"
    short.write_text("0 1\n1\n")
    code, _, err = run_cli(
        capsys, *oeis_args(str(short), "star", "connected", 1)
    )
    assert code == 2
    assert f"{short}:2" in err

    garbled = tmp_path / "garbled.txt"
    garbled.write_text("0 x\n")
    code, _, err = run_cli(
        capsys, *oeis_args(str(garbled), "star", "connected", 1)
    )
    assert code == 2
    assert "non-integer" in err

    empty = tmp_path / "empty.txt"
    empty.write_text("# only a comment\n\n")
    code, _, err = run_cli(capsys, *oeis_args(str(empty), "star", "connected", 1))
    assert code == 2
    assert "no data lines" in err

    # in range but below the formula domain everywhere
    code, _, err = run_cli(
        capsys,
        *oeis_args(str(DATA / "b000670.txt"), "star", "connected", 1, "--n-max", "1"),
    )
    assert code == 2
    assert "no overlapping terms" in err

    code, _, err = run_cli(
        capsys, *oeis_args(str(DATA / "b000670.txt"), "star", "none", 1)
    )
    assert code == 2
    assert "no closed form" in err


def test_oeis_fetches_when_allowed(capsys, monkeypatch, tmp_path, isolated_env):
    source = tmp_path / "served"
    source.mkdir()
    shutil.copy(DATA / "b000670.txt", source / "b000670.txt")

    code, _, err = run_cli(
        capsys, *oeis_args("b000670.txt", "star", "connected", 1)
    )
    assert code == 2
    assert "ASMTREE_OEIS_BASE_URL" in err

    monkeypatch.setenv("ASMTREE_OEIS_BASE_URL", source.as_uri())
    code, out, _ = run_cli(capsys, *oeis_args("b000670.txt", "star", "connected", 1))
    assert code == 0
    assert (isolated_env / "cache" / "b000670.txt").exists()

    # the fetched copy is reused once the source disappears
    shutil.rmtree(source)
    code, out, _ = run_cli(capsys, *oeis_args("b000670.txt", "star", "connected", 1))
    assert code == 0
    assert out.splitlines()[-1] == "PASS (12 terms)"


# ---------------------------------------------------------------- stability


def test_repeated_runs_are_byte_identical(capsys):
    argv = [
        "table", "--family", "path", "--rule", "connected",
        "--n-min", "1", "--n-max", "8", "--no-banner",
    ]
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first == second

    argv = ["trees", "--family", "cycle", "--n", "5", "--rule", "edge", "--no-banner"]
    assert run_cli(capsys, *argv) == run_cli(capsys, *argv)


@pytest.mark.parametrize(
    "argv, lines, digest",
    [
        (
            "--family cycle --n 5 --rule connected --timed --format json",
            166,
            "8a3605eebaec9444d34e0a72d51a217351d47ada032c01a3fe678bee66916868",
        ),
        (
            "--family cycle --n 5 --rule connected --timed --format dot",
            2958,
            "0dabadbadf273327f06a43623051d1f9dbfec0c671faebcd519df148893aca72",
        ),
        (
            "--family complete --n 4 --rule edge --format json",
            15,
            "09bf6f5261ada0977b1b2358e6d01e14f341709b30795841d030b85d9b0b77dd",
        ),
        (
            "--family complete --n 4 --rule none --timed --format dot",
            456,
            "7b9841d0c7d6c0d9c13a6a153089a55a89de060152438884ce05d3abc3bab0a8",
        ),
        (
            "--family path --n 5 --rule none --format json",
            236,
            "f72d29af206d7d65dd49331710429b8655cfc48bdb96dd20c22a4ba0b3de1d2e",
        ),
        (
            "--family star --n 5 --rule none --timed --format json",
            436,
            "e1d25bbc650db01899ac31ee0893a83bfab3519ed0715f8b8010ee88079f592d",
        ),
    ],
)
def test_trees_output_is_pinned(capsys, argv, lines, digest):
    code, out, err = run_cli(capsys, "trees", *argv.split(), "--no-banner", "--no-cache")
    assert (code, err) == (0, "")
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_bfile_fixtures_match_their_generator(tmp_path):
    script = DATA / "generate_bfiles.py"
    subprocess.run(
        [sys.executable, str(script), str(tmp_path)], check=True, capture_output=True
    )
    for name in ("b000670.txt", "b001003.txt", "b047781.txt", "b171792.txt"):
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes()

import hashlib
import json
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


def test_count_rejects_unanswerable_requests(capsys):
    bad = [
        # no closed form for plain edge counts
        ["count", "--family", "path", "--rule", "edge", "--n", "4",
         "--method", "formula"],
        ["count", "--family", "caterpillar", "--legs", "1,1",
         "--rule", "connected", "--method", "both"],
        ["count", "--family", "custom", "--rule", "connected"],
        ["count", "--family", "caterpillar", "--rule", "connected"],
        ["count", "--family", "caterpillar", "--legs", "1,x",
         "--rule", "connected"],
        ["count", "--family", "path", "--rule", "connected"],
        ["count", "--family", "star", "--rule", "connected", "--n", "1"],
        ["count", "--family", "custom", "--graph-file", "/no/such/file.json",
         "--rule", "connected"],
    ]
    for argv in bad:
        code, _, err = run_cli(capsys, *argv, "--no-banner", "--no-cache")
        assert code == 2
        assert err.startswith("error:")


def test_count_cross_check_catches_a_wrong_formula(capsys, monkeypatch):
    real = formulas.formula_for

    def sabotaged(family, rule, timed):
        if (family, rule, timed) == ("path", "connected", False):
            return SequenceFormula(lambda n: 999, 1)
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


def test_cache_file_layout(capsys, isolated_env):
    count_star(capsys)
    run_cli(
        capsys,
        "count", "--family", "path", "--rule", "connected", "--n", "4",
        "--no-banner",
    )
    cache = isolated_env / "cache" / "counts.txt"
    lines = cache.read_text().splitlines()
    assert lines[0] == "# asmtree-cache 0.1.0"
    keys = [line.split("\t")[0] for line in lines[1:]]
    assert keys == sorted(keys)
    assert "count family=star rule=connected timed=0 method=formula n=5\t75" in lines
    assert not cache.with_name("counts.txt.tmp").exists()


def test_cache_is_read_back(capsys, isolated_env):
    count_star(capsys)
    cache = isolated_env / "cache" / "counts.txt"
    # plant a wrong value to prove later answers come from the file
    cache.write_text(cache.read_text().replace("\t75", "\t123456"))
    assert count_star(capsys)[1] == "123456\n"
    assert count_star(capsys, "--no-cache")[1] == "75\n"


def test_stale_cache_version_is_ignored(capsys, isolated_env):
    count_star(capsys)
    cache = isolated_env / "cache" / "counts.txt"
    body = cache.read_text().replace("\t75", "\t123456")
    cache.write_text(body.replace("asmtree-cache 0.1.0", "asmtree-cache 0.0.9"))
    assert count_star(capsys)[1] == "75\n"
    assert cache.read_text().splitlines()[0] == "# asmtree-cache 0.1.0"


def test_cache_skips_values_that_are_not_counts(capsys, isolated_env):
    cache = isolated_env / "cache" / "counts.txt"
    cache.parent.mkdir()
    cache.write_text(
        "# asmtree-cache 0.1.0\n"
        "count family=star rule=connected timed=0 method=formula n=5\tnot-a-number\n"
    )
    assert count_star(capsys) == (0, "75\n", "")
    assert "\t75" in cache.read_text()


def test_failed_cache_store_is_only_a_warning(capsys, isolated_env):
    (isolated_env / "cache").write_text("a file where the cache directory should be")
    code, out, err = count_star(capsys)
    assert (code, out) == (0, "75\n")
    assert err.startswith("warning:") and err.count("\n") == 1


STORE_MANY = """
import sys
from asmtree import cli
for i in range(150):
    entries = cli._load_cache()
    entries[f"count writer={sys.argv[1]} n={i}"] = str(i)
    cli._store_cache(entries)
"""


def test_concurrent_cache_writers(isolated_env):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    writers = [
        subprocess.Popen(
            [sys.executable, "-c", STORE_MANY, name],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for name in ("a", "b")
    ]
    for proc in writers:
        out, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (0, "")
    lines = (isolated_env / "cache" / "counts.txt").read_text().splitlines()
    assert lines[0] == "# asmtree-cache 0.1.0"
    assert len(lines) > 1
    for line in lines[1:]:
        key, value = line.split("\t")
        assert key.startswith("count writer=") and int(value) >= 0
    assert [p.name for p in (isolated_env / "cache").iterdir()] == ["counts.txt"]


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
    # the brute-force column stops at the enumeration cap
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

    # cycle graphs start at n=3 but the timed recursion is defined from 1
    code, out, _ = run_cli(
        capsys,
        "table", "--family", "cycle", "--rule", "connected", "--timed",
        "--n-min", "1", "--n-max", "4", "--no-banner",
    )
    assert out.splitlines()[1:] == ["1,1,,", "2,1,,", "3,4,4,true", "4,23,23,true"]

    # no closed form under rule none: only the brute-force column fills
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
    for argv in (
        ["table", "--family", "path", "--rule", "connected",
         "--n-min", "0", "--n-max", "3"],
        ["table", "--family", "path", "--rule", "connected",
         "--n-min", "5", "--n-max", "3"],
    ):
        code, _, err = run_cli(capsys, *argv, "--no-banner")
        assert code == 2
        assert err.startswith("error:")


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


def test_series_funceq(capsys):
    code, out, _ = run_cli(
        capsys, "series", "--which", "td-path-funceq", "--order", "15", "--no-banner"
    )
    assert (code, out) == (0, "PASS\n")

    code, _, err = run_cli(
        capsys, "series", "--which", "td-path-funceq", "--order", "1", "--no-banner"
    )
    assert code == 2
    assert "order" in err


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

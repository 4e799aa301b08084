"""Command-line behavior: output shapes, exit codes, JSON schema stability."""

from __future__ import annotations

import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reduct_forge.cli as cli
from reduct_forge import builtin_seven_segment
from reduct_forge.cli import main

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parent.parent / "src"
MASK = re.compile(r'"elapsed_ms": [0-9.]+')


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: a usage error or --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def masked(text: str) -> str:
    return MASK.sub('"elapsed_ms": "MASKED"', text)


class TestSignificanceCommand:
    def test_builtin_rows_in_rank_order(self):
        code, out, _ = run_cli(["significance", "--builtin", "seven-segment"])
        assert code == 0
        rows = [line.split() for line in out.splitlines()[1:]]
        assert [r[0] for r in rows] == ["c", "d", "a", "f", "g", "b", "e"]
        assert [r[2].strip("()") for r in rows] == [
            "0.0", "0.0", "0.2", "0.2", "0.2", "0.4", "0.4",
        ]

    def test_json_has_seven_ranked_entries(self):
        code, out, _ = run_cli(["significance", "--builtin", "seven-segment", "--json"])
        assert code == 0
        report = json.loads(out)
        assert len(report["ranked"]) == 7
        assert report["ranked"][0] == {
            "attribute": "c",
            "significance": {"num": 0, "den": 1, "decimal": "0.0"},
        }

    def test_missing_file_names_path(self):
        code, _, err = run_cli(["significance", "/no/such/file.csv"])
        assert code == 2
        assert "/no/such/file.csv" in err


class TestReductCommand:
    def test_builtin_reduct(self):
        code, out, _ = run_cli(["reduct", "--builtin", "seven-segment"])
        assert code == 0
        assert "{a, b, e, f, g}" in out
        assert "[c, d]" in out

    def test_exhaustive_flag(self):
        code, out, _ = run_cli(
            ["reduct", "--builtin", "seven-segment", "--exhaustive", "--json"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["all_reducts"] == [["a", "b", "e", "f", "g"]]
        assert report["heuristic_is_minimal"] is True

    def test_trace_starts_with_redundant_c(self):
        code, out, _ = run_cli(
            ["reduct", "--builtin", "seven-segment", "--trace", "--json"]
        )
        assert code == 0
        trace = json.loads(out)["trace"]
        assert trace[0]["attribute"] == "c"
        assert trace[0]["verdict"] == "redundant"

    def test_group_policies_agree(self):
        reducts = []
        for group in ["threshold", "count:0", "count:4", "count:7"]:
            code, out, _ = run_cli(
                ["reduct", "--builtin", "seven-segment", "--group", group, "--json"]
            )
            assert code == 0
            reducts.append(tuple(json.loads(out)["reduct"]))
        assert len(set(reducts)) == 1

    def test_bad_group_value(self):
        code, _, err = run_cli(
            ["reduct", "--builtin", "seven-segment", "--group", "half"]
        )
        assert code == 2
        assert "half" in err

    def test_cap_exceeded_exit_code(self, monkeypatch):
        monkeypatch.setenv("REDUCT_FORGE_MAX_ATTRS", "6")
        code, _, err = run_cli(["reduct", "--builtin", "seven-segment", "--exhaustive"])
        assert code == 3
        assert "cap" in err

    def test_cap_checked_before_elimination(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eliminate ran on a table over the cap")

        monkeypatch.setattr("reduct_forge.cli.eliminate", refuse)
        monkeypatch.setenv("REDUCT_FORGE_MAX_ATTRS", "2")
        code, out, err = run_cli(["reduct", "--builtin", "seven-segment", "--exhaustive"])
        assert (code, out) == (3, "")
        assert err == "error: exhaustive search refused: 7 attributes exceeds cap 2\n"

    @pytest.mark.parametrize("group", ["count:+1", "count: 1", "count:1 ", "count:-1",
                                       "count:", "count:x",
                                       pytest.param("count:" + "1" * 5000, id="5000-digits")])
    def test_group_count_needs_decimal_digits(self, group):
        code, out, err = run_cli(["reduct", "--builtin", "seven-segment", "--group", group])
        assert (code, out) == (2, "")
        assert err == f"error: bad --group value: {group!r}\n"

    def test_group_count_out_of_range(self):
        code, _, err = run_cli(
            ["reduct", "--builtin", "seven-segment", "--group", "count:99"]
        )
        assert code == 2
        assert "count:99" in err and "[0, 7]" in err

    @pytest.mark.parametrize("cap", ["abc", "-1", "+7", " 7", "7 ", "",
                                     pytest.param("9" * 5000, id="5000-digits")])
    def test_bad_cap_is_input_error(self, monkeypatch, cap):
        monkeypatch.setenv("REDUCT_FORGE_MAX_ATTRS", cap)
        code, _, err = run_cli(["reduct", "--builtin", "seven-segment", "--exhaustive"])
        assert code == 2
        assert "REDUCT_FORGE_MAX_ATTRS" in err and repr(cap) in err


class TestPartitionAndBaseCommands:
    def test_partition_blocks(self):
        code, out, _ = run_cli(
            ["partition", "--builtin", "seven-segment", "--attrs", "b,e", "--json"]
        )
        assert code == 0
        assert json.loads(out)["blocks"] == [[0, 2, 8], [1, 3, 4, 7, 9], [5], [6]]

    def test_base_methods_agree(self):
        code, out, _ = run_cli(
            ["base", "--builtin", "seven-segment", "--attrs", "d,a,f,g", "--json"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["base"] == [[0], [1], [2, 3], [4], [5, 6, 8, 9], [7]]
        assert report["base_from_matrix"] == report["base"]
        assert report["methods_agree"] is True
        assert report["subbase_size"] == 8

    def test_full_base_is_singletons(self):
        code, out, _ = run_cli(["base", "--builtin", "seven-segment", "--json"])
        assert code == 0
        report = json.loads(out)
        assert report["subbase_size"] == 14
        assert report["base"] == [[i] for i in range(10)]

    @pytest.mark.parametrize("command", ["partition", "base"])
    def test_duplicate_attr_in_attrs(self, command):
        code, out, err = run_cli(
            [command, "--builtin", "seven-segment", "--attrs", "a,a", "--json"]
        )
        assert code == 2
        assert out == ""
        assert "duplicate attribute name: 'a'" in err

    def test_unknown_attr_in_attrs(self):
        code, _, err = run_cli(
            ["partition", "--builtin", "seven-segment", "--attrs", "z"]
        )
        assert code == 2
        assert "z" in err


class TestInputHandling:
    def test_requires_exactly_one_source(self):
        code, _, err = run_cli(["significance"])
        assert code == 2
        code, _, err = run_cli(
            ["significance", "x.csv", "--builtin", "seven-segment"]
        )
        assert code == 2

    def test_csv_file_input(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("p,q\n1,0\n1,1\n2,0\n")
        code, out, _ = run_cli(["reduct", str(path), "--json"])
        assert code == 0
        assert json.loads(out)["reduct"] == ["p", "q"]

    def test_decision_column_flag(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("p,q,cls\n1,0,x\n1,1,x\n2,0,y\n2,1,y\n")
        code, out, _ = run_cli(
            ["significance", str(path), "--decision", "cls", "--json"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["dataset"]["decision"] == "cls"
        assert report["dataset"]["conditional_attributes"] == ["p", "q"]

    def test_builtin_with_decision_column(self):
        code, out, _ = run_cli(
            ["significance", "--builtin", "seven-segment", "--decision", "g", "--json"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["dataset"]["decision"] == "g"
        assert report["dataset"]["conditional_attributes"] == list("abcdef")

    def test_ragged_csv_is_input_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("p,q\n1\n")
        code, _, err = run_cli(["significance", str(path)])
        assert code == 2
        assert "row 2" in err

    def test_unknown_decision_is_input_error(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("p\n1\n")
        code, _, err = run_cli(["significance", str(path), "--decision", "nope"])
        assert code == 2
        assert "nope" in err

    def test_table_whose_only_attribute_is_the_decision(self, tmp_path):
        """No conditional attribute: the ranking is empty, so the trace's
        threshold is the empty ranking's default, and the empty set is the
        one reduct; the partition over no attribute is one block, and a
        base over it is refused."""
        path = tmp_path / "t.csv"
        path.write_text("id,a\nx,1\ny,2\n")
        source = [str(path), "--decision", "a", "--json"]
        code, out, _ = run_cli(["reduct", "--trace", "--exhaustive", *source])
        assert code == 0
        report = json.loads(out)
        assert (report["trace"], report["all_reducts"]) == ([], [[]])
        code, out, _ = run_cli(["significance", *source])
        assert (code, json.loads(out)["ranked"]) == (0, [])
        code, out, _ = run_cli(["partition", *source])
        assert (code, json.loads(out)["blocks"]) == (0, [[0, 1]])
        assert run_cli(["base", *source]) == (
            2, "", "error: attribute set must be nonempty\n")


# An id column between attributes, cells padded with spaces and tabs, and a
# duplicate row (o1 and o4).
PADDED_CSV = "a, id ,b,\td\n 0,o1,x , y\n1 ,o2,\tx,y\n0, o3 ,z,n \n 0,o4,x,\ty\n1,o5,z ,n\n"
PRODUCTION_ARGV = [
    ["significance", "--decision", "d"],
    ["reduct", "--trace", "--exhaustive"],
    ["reduct", "--decision", "d", "--group", "count:2"],
    ["partition"],
]


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("argv", PRODUCTION_ARGV, ids=[" ".join(a) for a in PRODUCTION_ARGV])
def test_production_path_reads_no_row_tuples(tmp_path, monkeypatch, argv, json_flag):
    """The kernel groups a table's coded columns; its ``rows`` view only
    derives row tuples for callers, so the CLI answers the same with the
    view unreadable."""
    path = tmp_path / "t.csv"
    path.write_text(PADDED_CSV)
    argv = [argv[0], str(path), *argv[1:], *json_flag]
    code, expected, err = run_cli(argv)
    assert (code, err) == (0, "")

    def unreadable(*args):
        raise AssertionError("row tuples read on the production path")

    view = type(builtin_seven_segment().rows)
    monkeypatch.setattr(view, "__getitem__", unreadable)
    monkeypatch.setattr(view, "__iter__", unreadable)
    code, out, err = run_cli(argv)
    assert (code, masked(out), err) == (0, masked(expected), "")


GOLDEN_CASES = [
    ("significance.json", ["significance", "--builtin", "seven-segment", "--json"]),
    (
        "reduct_trace_exhaustive.json",
        ["reduct", "--builtin", "seven-segment", "--trace", "--exhaustive", "--json"],
    ),
    ("base_dafg.json", ["base", "--builtin", "seven-segment", "--attrs", "d,a,f,g", "--json"]),
    ("partition_be.json", ["partition", "--builtin", "seven-segment", "--attrs", "b,e", "--json"]),
    # Repeated rows, whose objects are read through the row index.
    (
        "partition_duplicates.json",
        ["partition", str(DATA / "duplicates.csv"), "--decision", "d", "--json"],
    ),
    # Repeated rows, repeats with conflicting decisions and a copied column.
    (
        "significance_duplicates.json",
        ["significance", str(DATA / "duplicates.csv"), "--decision", "d", "--json"],
    ),
    (
        "reduct_duplicates_trace_exhaustive.json",
        ["reduct", str(DATA / "duplicates.csv"), "--decision", "d", "--trace", "--exhaustive",
         "--json"],
    ),
    # 200 rows of 30 seeded ternary columns and 4 copies of them, under the
    # identity decision: the walk's mixed-radix keys would pass one int
    # digit, so the kernel renumbers them.
    ("reduct_wide_trace.json", ["reduct", str(DATA / "wide.csv"), "--trace", "--json"]),
    # Every attribute is core, so elimination's column-order walk keeps
    # each and takes its witness pair off the grouping that tested it; the
    # trace takes every count from that walk, as nothing was removed.
    ("reduct_irredundant_trace.json",
     ["reduct", str(DATA / "irredundant.csv"), "--trace", "--json"]),
    # The only redundant attribute, one of the copied pair b and c, is
    # tested after a kept one, which splits a block without changing the
    # positive region.  Each attribute of significance 0, c among them,
    # takes the count that elimination's column-order walk measured, and
    # e, of positive significance, that of R - e from the trace's walk
    # over the attributes of positive significance.
    ("reduct_late_redundant_trace.json",
     ["reduct", str(DATA / "late_redundant.csv"), "--decision", "d", "--trace", "--json"]),
    # late_redundant with a copy of e, e2, before d: the verdicts run kept,
    # redundant, kept, redundant, kept, and every significance is 0, so the
    # trace takes every count from elimination's column-order walk; witness
    # pairs from that walk certify the reduct, and no walk measures it
    # again.
    ("reduct_kept_then_redundant_trace.json",
     ["reduct", str(DATA / "kept_then_redundant.csv"), "--decision", "d", "--trace", "--json"]),
    # The same under --exhaustive: the oracle reads the core off the
    # elimination pass that eliminate then reads.  The pairs of the kept c
    # and e2 also differ on the removed b and e, so one walk over c and e2
    # settles the core, a; the oracle finds the four reducts that take one
    # of b and c and one of e and e2.
    ("reduct_kept_then_redundant_trace_exhaustive.json",
     ["reduct", str(DATA / "kept_then_redundant.csv"), "--decision", "d", "--trace",
      "--exhaustive", "--json"]),
    # Every attribute but c is core, so elimination keeps every attribute
    # but c.  e, a core attribute of significance 0 ranked after c, takes
    # the count elimination measured, 6 blocks for C - c - e, where C - e
    # has 8; a, of positive significance, takes that of R - a from the
    # trace's walk over the attributes of positive significance.
    ("reduct_one_non_core_trace.json",
     ["reduct", str(DATA / "one_non_core.csv"), "--decision", "d", "--trace", "--json"]),
    # p is removed, as t or s tells apart every pair that it does; s, a
    # core attribute of significance 0, ranks after it and takes the count
    # of C - p - s that elimination measured.  t, of positive significance and first in
    # column order, takes that of R - t, 2 blocks, where C - t has 3.
    ("reduct_zero_significance_core_trace.json",
     ["reduct", str(DATA / "zero_significance_core.csv"), "--decision", "d", "--trace",
      "--json"]),
]


@pytest.mark.parametrize("golden,argv", GOLDEN_CASES, ids=[g for g, _ in GOLDEN_CASES])
def test_json_matches_golden_file(golden, argv):
    code, out, _ = run_cli(argv)
    assert code == 0
    assert masked(out) == (DATA / golden).read_text()


# Runs every golden case through cli.main in one process, forwards and then
# backwards, and prints each case's name, exit code and stdout as JSON.
_SHARED_PROCESS = """
import io, json, sys
from contextlib import redirect_stdout
from reduct_forge.cli import main
cases = json.load(sys.stdin)
results = []
for golden, argv in cases + cases[::-1]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    results.append([golden, code, out.getvalue()])
json.dump(results, sys.stdout)
"""


def test_goldens_hold_under_any_hash_seed_in_one_process():
    """Answers are bit-for-bit: under two string-hash seeds, and with every
    golden command run in one process, forwards and then backwards, where
    ``main`` reuses its parser and each table keeps its walk.  Each child
    must print every golden file, once the timings are masked."""
    cases = json.dumps([[golden, argv] for golden, argv in GOLDEN_CASES])
    for seed in ("0", "12345"):
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed}
        proc = subprocess.run([sys.executable, "-c", _SHARED_PROCESS], input=cases,
                              capture_output=True, text=True, env=env, timeout=300)
        assert (proc.returncode, proc.stderr) == (0, ""), seed
        results = json.loads(proc.stdout)
        assert len(results) == 2 * len(GOLDEN_CASES)
        for golden, code, out in results:
            assert (code, masked(out)) == (0, (DATA / golden).read_text()), (seed, golden)


# Runs cli.main on each argv of the JSON list on stdin, discarding its
# output, and prints which of the modules named in argv[1:] it then holds.
_LOADED_AFTER = """
import io, json, sys
from contextlib import redirect_stdout
from reduct_forge.cli import main
for argv in json.load(sys.stdin):
    with redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(json.dumps([name for name in sys.argv[1:] if name in sys.modules]))
"""
REFERENCE_AND_FRACTIONS = ["reduct_forge.partition", "reduct_forge.topology", "fractions"]
SEVEN = ["--builtin", "seven-segment", "--json"]
LAUNCHES = [
    ("reduct", [["reduct", *SEVEN],
                ["reduct", str(DATA / "duplicates.csv"), "--decision", "d", "--exhaustive",
                 "--json"]], []),
    ("reduct-trace", [["reduct", "--trace", *SEVEN]], ["fractions"]),
    ("significance", [["significance", *SEVEN]], ["fractions"]),
    ("partition", [["partition", *SEVEN]], ["reduct_forge.partition", "fractions"]),
    ("base", [["base", *SEVEN]], REFERENCE_AND_FRACTIONS),
]


@pytest.mark.parametrize("argvs,loaded", [case[1:] for case in LAUNCHES],
                         ids=[case[0] for case in LAUNCHES])
def test_a_launch_loads_only_the_code_it_runs(argvs, loaded):
    """A ``reduct`` launch, with or without ``--exhaustive``, makes no
    ``Fraction`` and calls no per-object reference code, so it imports
    neither; ``significance`` and ``--trace`` make a ``Fraction``, and
    ``partition`` and ``base`` run the reference path.  Each case starts a
    fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", _LOADED_AFTER, *REFERENCE_AND_FRACTIONS],
                          input=json.dumps(argvs), capture_output=True, text=True, env=env,
                          timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == loaded


TEXT_CASES = [
    (
        ["partition", "--builtin", "seven-segment", "--attrs", "b,e"],
        "partition over {b, e}: 4 blocks\n"
        "  {0,2,8}\n"
        "  {1,3,4,7,9}\n"
        "  {5}\n"
        "  {6}\n",
    ),
    (
        ["base", "--builtin", "seven-segment", "--attrs", "d,a,f,g"],
        "sub-base over {d, a, f, g}: 8 members\n"
        "base (6 members):\n"
        "  {0}\n"
        "  {1}\n"
        "  {2,3}\n"
        "  {4}\n"
        "  {5,6,8,9}\n"
        "  {7}\n"
        "matrix method agrees: True\n",
    ),
    (
        ["reduct", "--builtin", "seven-segment", "--trace", "--exhaustive"],
        "reduct:  {a, b, e, f, g}\n"
        "removed: [c, d]\n"
        "verified minimal: True\n"
        "trace:\n"
        "  c        sig=0/1 group=low -> redundant (base 10 -> 10)\n"
        "  d        sig=0/1 group=low -> redundant (base 10 -> 10)\n"
        "  a        sig=1/5 group=low -> kept (base 10 -> 8)\n"
        "  f        sig=1/5 group=low -> kept (base 10 -> 8)\n"
        "  g        sig=1/5 group=low -> kept (base 10 -> 8)\n"
        "  b        sig=2/5 group=high -> kept (base 10 -> 8)\n"
        "  e        sig=2/5 group=high -> kept (base 10 -> 7)\n"
        "all minimal reducts:\n"
        "  {a, b, e, f, g}\n"
        "heuristic result is minimal: True\n",
    ),
]


@pytest.mark.parametrize("argv,expected", TEXT_CASES, ids=[a[0] for a, _ in TEXT_CASES])
def test_text_output_is_pinned(argv, expected):
    assert run_cli(argv) == (0, expected, "")


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_closed_stdout_is_not_an_error(json_flag):
    """A reader that stops early, as ``| head -1`` does, leaves the CLI
    writing to a closed pipe; the run still exits 0 with nothing on stderr.
    The pipe's read end is closed before the CLI starts, so every write
    fails and the test does not race the reader."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    argv = [sys.executable, "-m", "reduct_forge.cli", "partition",
            str(DATA / "duplicates.csv"), *json_flag]
    try:
        proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=env,
                              timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_out_of_memory_exits_with_the_cap_code(tmp_path):
    """A run that exhausts memory exits 3 with one line on stderr, not a
    traceback.  Only the child's own address space is capped, by
    ``RLIMIT_AS`` set between fork and exec, at 64 MB.  A ``reduct`` of a
    table of 200000 distinct rows over 40 ternary columns peaks at about
    200 MB resident without the cap, several times the limit.  A tiny table
    runs under the same cap, so the cap sits above the interpreter's
    start-up.  Skipped only where the platform has no ``RLIMIT_AS``."""
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("this platform has no RLIMIT_AS")
    limit = 64 << 20

    def capped() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    rng = random.Random("out-of-memory")
    big = tmp_path / "big.csv"
    lines = [",".join(f"c{i + 1}" for i in range(40))]
    lines += [",".join(rng.choices("012", k=40)) for _ in range(200000)]
    big.write_text("\n".join(lines) + "\n")
    tiny = tmp_path / "tiny.csv"
    tiny.write_text("a,b\n0,1\n1,0\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    runs = {}
    for path in (tiny, big):
        proc = subprocess.run([sys.executable, "-m", "reduct_forge.cli", "reduct", str(path),
                               "--json"], capture_output=True, text=True, env=env,
                              preexec_fn=capped, timeout=120)
        runs[path.name] = proc.returncode, proc.stderr
    assert runs["tiny.csv"] == (0, "")
    assert runs["big.csv"] == (3, "error: out of memory\n")


def test_reused_parser_leaks_nothing_between_calls(monkeypatch):
    """``main`` keeps one parser per process.  A sequence of calls through
    it, after errors, help, every subcommand, flags that the next call
    leaves out and a changed cap, answers as freshly built parsers do."""
    builtin = ["--builtin", "seven-segment"]
    csv = str(DATA / "duplicates.csv")
    steps = [
        (["reduct", "--no-such-flag"], None),
        (["--help"], None),
        (["significance", *builtin, "--json"], None),
        (["significance", csv, "--decision", "d"], None),
        (["reduct", *builtin, "--trace", "--exhaustive", "--json"], None),
        (["reduct", *builtin, "--json"], None),
        (["reduct", csv, "--decision", "d", "--group", "count:2", "--trace"], None),
        (["partition", *builtin, "--attrs", "b,e", "--json"], None),
        (["partition", csv], None),
        (["base", *builtin, "--attrs", "d,a,f,g", "--json"], None),
        (["base", csv, *builtin], None),
        (["reduct", *builtin, "--exhaustive", "--json"], "6"),
        (["reduct", *builtin, "--exhaustive", "--json"], "7"),
        (["significance"], None),
    ]

    def run_all() -> list[tuple[int, str, str]]:
        results = []
        for argv, cap in steps:
            if cap is None:
                monkeypatch.delenv("REDUCT_FORGE_MAX_ATTRS", raising=False)
            else:
                monkeypatch.setenv("REDUCT_FORGE_MAX_ATTRS", cap)
            code, out, err = run_cli(argv)
            results.append((code, masked(out), err))
        return results

    assert cli._main_parser() is cli._main_parser()
    shared = run_all()
    monkeypatch.setattr(cli, "_main_parser", cli.build_parser)
    fresh = run_all()
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 3, 0, 2]
    assert "trace" in json.loads(shared[4][1]) and "trace" not in json.loads(shared[5][1])
    assert cli.build_parser() is not cli.build_parser()


def test_json_deterministic_up_to_timing():
    argv = ["reduct", "--builtin", "seven-segment", "--trace", "--json"]
    first = masked(run_cli(argv)[1])
    second = masked(run_cli(argv)[1])
    assert first == second


# ---------------------------------------------------------------------------
# Exit-code contract: any input and flag combination exits 0, 2 or 3.
# ---------------------------------------------------------------------------

_NAMES = st.sampled_from(["id", "a", " a", "b", "c", "d", "", "a b", '"a"'])
_CELLS = st.sampled_from(["0", "1", "2", "", " 1 ", '"', "\u00e9", "id"])


@st.composite
def csv_bytes(draw) -> bytes:
    """A header of at most six names, maybe a ragged row, blank lines, CR or
    CRLF line ends, and maybe a byte-order mark or a few arbitrary bytes."""
    header = draw(st.lists(_NAMES, min_size=1, max_size=6, unique=True))
    row = st.lists(_CELLS, min_size=len(header), max_size=len(header))
    lines = [",".join(header)] + [",".join(r) for r in draw(st.lists(row, min_size=1, max_size=6))]
    if draw(st.integers(0, 3)) == 0:
        lines.append(",".join(draw(st.lists(_CELLS | st.just('"a,b"'), max_size=7))))
    for at in draw(st.lists(st.integers(0, len(lines)), max_size=2)):
        lines.insert(at, "")
    data = draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines).encode("utf-8")
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=4)) + data[at:]
    return data


@st.composite
def cli_argv(draw) -> list[str]:
    command = draw(st.sampled_from(["significance", "reduct", "partition", "base"]))
    argv = [command]
    if draw(st.booleans()):
        argv.append("--decision=" + draw(st.sampled_from(["identity", "a", "d", "id", "zz"])))
    if command == "reduct":
        if draw(st.booleans()):
            groups = ["threshold", "count:0", "count:2", "count:5", "count:9", "half"]
            argv.append("--group=" + draw(st.sampled_from(groups)))
        argv += draw(st.lists(st.sampled_from(["--exhaustive", "--trace"]), unique=True))
    if command in ("partition", "base") and draw(st.booleans()):
        attrs = ["a", "a,b", "a,a", "b,,c", ",", "id", "zz"]
        argv.append("--attrs=" + draw(st.sampled_from(attrs)))
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@given(data=csv_bytes(), argv=cli_argv())
@settings(max_examples=300, deadline=None)
def test_any_input_exits_with_documented_code(data, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_bytes(data)
        code, _, err = run_cli([*argv, str(path)])
    assert code in (0, 2, 3)
    assert "Traceback" not in err
